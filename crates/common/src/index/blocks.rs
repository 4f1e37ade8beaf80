//! Compressed block layout for posting lists: delta-encoded, bit-packed
//! keys plus a per-block skip directory (each block's last key).
//!
//! A [`BlockList`] stores a sorted posting list as fixed-span blocks of
//! [`BLOCK_SPAN`] postings. Within a block, each posting's 64-bit sort key
//! ([`Posting::key64`]) is stored as a non-negative delta from its
//! predecessor (the first delta is taken against the previous block's last
//! key), bit-packed at the block's maximum delta width; the posting's extra
//! fields ([`Posting::extra`]) are packed alongside at their own per-block
//! widths. Every block starts word-aligned so a cursor can jump straight to
//! it from the [`BlockMeta`] directory.
//!
//! The per-block `last_key` — the largest key in the block — is what makes
//! skipping possible: a `seek(k)` gallops over the directory and only
//! decodes the one block that can contain `k`; every block jumped over is
//! never touched.
//!
//! **Invariants** (checked in debug builds, relied on by the kernels):
//!
//! 1. Keys are non-decreasing in list order (`key64` is a monotone image of
//!    [`Posting::sort_key`] order).
//! 2. `meta[b].last_key` equals the key of the last posting of block `b`,
//!    and is non-decreasing across blocks.

use super::posting::Posting;
use std::marker::PhantomData;

/// Postings per block. 128 keeps per-block metadata overhead near 0.25
/// bytes/posting while leaving in-block linear decode short enough that a
/// `seek` never scans more than one block span.
pub const BLOCK_SPAN: usize = 128;

/// Upper bound on [`Posting::EXTRA_FIELDS`] the block codec supports.
pub const MAX_EXTRA_FIELDS: usize = 4;

/// Bits needed to store `v` (0 for `v == 0`; width-0 fields occupy no bits).
#[inline]
fn bits_needed(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Skip-directory entry for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Largest `key64` in the block (= key of its last posting).
    pub last_key: u64,
    /// Word index where the block's bit stream begins (blocks are
    /// word-aligned).
    pub word_offset: u32,
    /// Postings in this block (≤ [`BLOCK_SPAN`]; only the final block may
    /// be short).
    pub count: u16,
    /// Bit width of the packed key deltas.
    pub key_bits: u8,
    /// Bit width of each packed extra field.
    pub extra_bits: [u8; MAX_EXTRA_FIELDS],
}

/// Append-only bit stream packed LSB-first into `u64` words.
#[derive(Debug, Default)]
struct BitWriter {
    words: Vec<u64>,
    bit: usize,
}

impl BitWriter {
    /// Append the low `bits` bits of `v`.
    fn put(&mut self, v: u64, bits: u8) {
        debug_assert!(bits <= 64);
        debug_assert!(bits == 64 || v >> bits == 0, "value wider than field");
        if bits == 0 {
            return;
        }
        let word = self.bit / 64;
        let off = self.bit % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= v << off;
        if off + bits as usize > 64 {
            self.words.push(v >> (64 - off));
        }
        self.bit += bits as usize;
    }

    /// Round the write position up to the next word boundary.
    fn align_word(&mut self) {
        self.bit = self.bit.div_ceil(64) * 64;
    }
}

/// Read position into a [`BlockList`]'s word stream.
#[derive(Debug, Clone, Copy)]
struct BitReader<'a> {
    words: &'a [u64],
    bit: usize,
}

impl<'a> BitReader<'a> {
    #[inline]
    fn get(&mut self, bits: u8) -> u64 {
        if bits == 0 {
            return 0;
        }
        let word = self.bit / 64;
        let off = self.bit % 64;
        let mut v = self.words[word] >> off;
        let have = 64 - off;
        if bits as usize > have {
            v |= self.words[word + 1] << have;
        }
        self.bit += bits as usize;
        if bits == 64 {
            v
        } else {
            v & ((1u64 << bits) - 1)
        }
    }
}

/// A sorted posting list in compressed block form. Immutable once encoded;
/// mutation paths decode back to a plain `Vec` first.
#[derive(Debug, Clone)]
pub struct BlockList<P> {
    metas: Vec<BlockMeta>,
    words: Vec<u64>,
    len: usize,
    _marker: PhantomData<P>,
}

impl<P: Posting> BlockList<P> {
    /// Encode a sorted, coalesced slice. Keys (`key64`) must be
    /// non-decreasing — guaranteed after `PostingList::finalize` because
    /// `key64` is a monotone image of the sort key.
    pub fn encode(entries: &[P]) -> Self {
        assert!(
            P::EXTRA_FIELDS <= MAX_EXTRA_FIELDS,
            "posting has more extra fields than the block codec supports"
        );
        let mut w = BitWriter::default();
        let mut metas = Vec::with_capacity(entries.len().div_ceil(BLOCK_SPAN));
        let mut base = 0u64; // previous block's last key
        for chunk in entries.chunks(BLOCK_SPAN) {
            let mut max_delta = 0u64;
            let mut extra_max = [0u64; MAX_EXTRA_FIELDS];
            let mut prev = base;
            for p in chunk {
                let key = p.key64();
                debug_assert!(key >= prev, "key64 must be non-decreasing");
                max_delta = max_delta.max(key - prev);
                for (f, m) in extra_max.iter_mut().enumerate().take(P::EXTRA_FIELDS) {
                    *m = (*m).max(p.extra(f));
                }
                prev = key;
            }
            let key_bits = bits_needed(max_delta);
            let mut extra_bits = [0u8; MAX_EXTRA_FIELDS];
            for (eb, &max) in extra_bits.iter_mut().zip(&extra_max[..P::EXTRA_FIELDS]) {
                *eb = bits_needed(max);
            }
            w.align_word();
            let word_offset = (w.bit / 64) as u32;
            let mut prev = base;
            for p in chunk {
                let key = p.key64();
                w.put(key - prev, key_bits);
                for (f, &bits) in extra_bits.iter().enumerate().take(P::EXTRA_FIELDS) {
                    w.put(p.extra(f), bits);
                }
                prev = key;
            }
            base = prev;
            metas.push(BlockMeta {
                last_key: base,
                word_offset,
                count: chunk.len() as u16,
                key_bits,
                extra_bits,
            });
        }
        metas.shrink_to_fit();
        w.words.shrink_to_fit();
        BlockList {
            metas,
            words: w.words,
            len: entries.len(),
            _marker: PhantomData,
        }
    }

    /// Stored postings.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of encoded blocks.
    pub fn num_blocks(&self) -> usize {
        self.metas.len()
    }

    /// Skip-directory entry of block `b`.
    pub fn meta(&self, b: usize) -> &BlockMeta {
        &self.metas[b]
    }

    /// Heap bytes held by the encoded form (words + skip directory).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8 + self.metas.len() * std::mem::size_of::<BlockMeta>()
    }

    /// Delta base of block `b`: the previous block's last key (0 for the
    /// first block).
    #[inline]
    fn block_base(&self, b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            self.metas[b - 1].last_key
        }
    }

    /// Decode block `b`, appending its postings to `out`.
    pub fn decode_block_into(&self, b: usize, out: &mut Vec<P>) {
        let meta = &self.metas[b];
        let mut r = BitReader {
            words: &self.words,
            bit: meta.word_offset as usize * 64,
        };
        let mut prev = self.block_base(b);
        for _ in 0..meta.count {
            out.push(decode_one(&mut r, meta, &mut prev));
        }
    }

    /// Decode the whole list, appending to `out`.
    pub fn decode_into(&self, out: &mut Vec<P>) {
        out.reserve(self.len);
        for b in 0..self.metas.len() {
            self.decode_block_into(b, out);
        }
    }

    pub fn to_vec(&self) -> Vec<P> {
        let mut v = Vec::with_capacity(self.len);
        self.decode_into(&mut v);
        v
    }

    /// A cursor positioned at the first posting.
    pub fn cursor(&self) -> BlockCursor<'_, P> {
        let mut c = BlockCursor {
            list: self,
            block: 0,
            idx: 0,
            reader: BitReader {
                words: &self.words,
                bit: 0,
            },
            cur: None,
        };
        if !self.metas.is_empty() {
            c.enter_block(0);
        }
        c
    }

    /// The last posting `keep` accepts among the first `upto` entries of
    /// block `b` (decodes that prefix of the block, nothing else).
    fn last_kept_in_block(&self, b: usize, upto: usize, keep: &impl Fn(&P) -> bool) -> Option<P> {
        let meta = &self.metas[b];
        let mut r = BitReader {
            words: &self.words,
            bit: meta.word_offset as usize * 64,
        };
        let mut prev = self.block_base(b);
        let mut last = None;
        for _ in 0..upto {
            let p = decode_one(&mut r, meta, &mut prev);
            if keep(&p) {
                last = Some(p);
            }
        }
        last
    }

    /// Last posting of block `b` (decodes the block).
    fn block_last(&self, b: usize) -> P {
        let meta = &self.metas[b];
        let mut r = BitReader {
            words: &self.words,
            bit: meta.word_offset as usize * 64,
        };
        let mut prev = self.block_base(b);
        let mut last = decode_one(&mut r, meta, &mut prev);
        for _ in 1..meta.count {
            last = decode_one(&mut r, meta, &mut prev);
        }
        last
    }
}

/// Decode one posting at the reader position; `prev` carries the delta
/// chain and is updated to the decoded key.
#[inline]
fn decode_one<P: Posting>(r: &mut BitReader<'_>, meta: &BlockMeta, prev: &mut u64) -> P {
    let key = *prev + r.get(meta.key_bits);
    *prev = key;
    let mut extras = [0u64; MAX_EXTRA_FIELDS];
    for (f, e) in extras.iter_mut().enumerate().take(P::EXTRA_FIELDS) {
        *e = r.get(meta.extra_bits[f]);
    }
    P::from_parts(key, &extras[..P::EXTRA_FIELDS])
}

impl<P: Posting + Ord> BlockList<P> {
    /// First block that can contain an element `≥` a posting with key
    /// `key`: the first block whose `last_key ≥ key`.
    fn block_for(&self, key: u64) -> usize {
        self.metas.partition_point(|m| m.last_key < key)
    }

    /// Smallest posting `≥ v` — the *rm* probe on the compressed form.
    /// Probes require `key64` to respect the `Ord` order (monotone:
    /// `a ≤ b ⟹ a.key64() ≤ b.key64()`), which every `Ord` posting in the
    /// tree satisfies.
    pub fn right_match(&self, v: P) -> Option<P> {
        let vk = v.key64();
        let mut buf = Vec::with_capacity(BLOCK_SPAN);
        for b in self.block_for(vk)..self.metas.len() {
            buf.clear();
            self.decode_block_into(b, &mut buf);
            if let Some(p) = buf.iter().find(|&&p| p >= v) {
                return Some(*p);
            }
        }
        None
    }

    /// Largest posting `≤ v` — the *lm* probe on the compressed form.
    pub fn left_match(&self, v: P) -> Option<P> {
        let vk = v.key64();
        let start = self.block_for(vk);
        if start == self.metas.len() {
            // every block ends below v's key ⇒ the global last posting is ≤ v
            return (!self.metas.is_empty()).then(|| self.block_last(self.metas.len() - 1));
        }
        let mut buf = Vec::with_capacity(BLOCK_SPAN);
        for b in start..self.metas.len() {
            buf.clear();
            self.decode_block_into(b, &mut buf);
            if let Some(p) = buf.iter().rev().find(|&&p| p <= v) {
                return Some(*p);
            }
            if buf.first().is_some_and(|&p| p > v) {
                break; // everything from here on is > v
            }
        }
        // all candidates precede block `start`
        (start > 0).then(|| self.block_last(start - 1))
    }

    /// Binary membership probe on the compressed form.
    pub fn contains(&self, v: &P) -> bool {
        self.right_match(*v) == Some(*v)
    }
}

/// Decode-on-the-fly cursor over a [`BlockList`]: holds a bit-reader into
/// the current block and never allocates. `seek` gallops over the skip
/// directory, decoding only the destination block.
#[derive(Debug, Clone)]
pub struct BlockCursor<'a, P: Posting> {
    list: &'a BlockList<P>,
    block: usize,
    idx: usize,
    reader: BitReader<'a>,
    cur: Option<P>,
}

impl<'a, P: Posting> BlockCursor<'a, P> {
    fn enter_block(&mut self, b: usize) {
        let meta = &self.list.metas[b];
        self.block = b;
        self.idx = 0;
        self.reader = BitReader {
            words: &self.list.words,
            bit: meta.word_offset as usize * 64,
        };
        let mut prev = self.list.block_base(b);
        self.cur = Some(decode_one(&mut self.reader, meta, &mut prev));
    }

    /// The posting under the cursor (`None` once exhausted).
    #[inline]
    pub fn peek(&self) -> Option<P> {
        self.cur
    }

    /// Step to the next posting.
    pub fn advance(&mut self) {
        let Some(cur) = self.cur else { return };
        let meta = &self.list.metas[self.block];
        if self.idx + 1 < meta.count as usize {
            self.idx += 1;
            let mut prev = cur.key64();
            self.cur = Some(decode_one(&mut self.reader, meta, &mut prev));
        } else if self.block + 1 < self.list.metas.len() {
            self.enter_block(self.block + 1);
        } else {
            self.cur = None;
        }
    }

    /// The last posting before the cursor that `keep` accepts (the list's
    /// last such posting once exhausted): scans the current block up to the
    /// cursor, then earlier blocks back to front.
    pub(crate) fn prev_where(&self, keep: impl Fn(&P) -> bool) -> Option<P> {
        let list = self.list;
        let (mut b, mut upto) = match self.cur {
            Some(_) => (self.block, self.idx),
            None => (list.metas.len(), 0),
        };
        loop {
            if upto > 0 {
                if let Some(p) = list.last_kept_in_block(b, upto, &keep) {
                    return Some(p);
                }
            }
            if b == 0 {
                return None;
            }
            b -= 1;
            upto = list.metas[b].count as usize;
        }
    }

    /// First posting with `key64 ≥ key`, galloping over the skip directory.
    pub fn seek(&mut self, key: u64) -> Option<P> {
        let cur = self.cur?;
        if cur.key64() >= key {
            return self.cur;
        }
        if self.list.metas[self.block].last_key < key {
            // Destination block: first one whose last_key reaches `key`.
            let rel = self.list.metas[self.block + 1..].partition_point(|m| m.last_key < key);
            let target = self.block + 1 + rel;
            if target == self.list.metas.len() {
                self.cur = None;
                return None;
            }
            self.enter_block(target);
        }
        // Within this block (its last_key ≥ key) linear-decode forward.
        while self.cur.is_some_and(|p| p.key64() < key) {
            self.advance();
        }
        self.cur
    }
}

/// Iterator decoding a [`BlockList`] front to back.
#[derive(Debug, Clone)]
pub struct BlockIter<'a, P: Posting> {
    cursor: BlockCursor<'a, P>,
}

impl<'a, P: Posting> BlockIter<'a, P> {
    pub(crate) fn new(list: &'a BlockList<P>) -> Self {
        BlockIter {
            cursor: list.cursor(),
        }
    }
}

impl<P: Posting> Iterator for BlockIter<'_, P> {
    type Item = P;

    fn next(&mut self) -> Option<P> {
        let p = self.cursor.peek();
        self.cursor.advance();
        p
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Exact remaining count: full blocks after this one plus the rest
        // of the current block.
        let c = &self.cursor;
        if c.cur.is_none() {
            return (0, Some(0));
        }
        let in_block = c.list.metas[c.block].count as usize - c.idx;
        let after: usize = c.list.metas[c.block + 1..]
            .iter()
            .map(|m| m.count as usize)
            .sum();
        let n = in_block + after;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Doc-id-style posting with a tf payload as its one extra field.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Doc {
        id: u64,
        tf: u32,
    }

    impl Posting for Doc {
        type SortKey = u64;
        const EXTRA_FIELDS: usize = 1;
        fn sort_key(&self) -> u64 {
            self.id
        }
        fn key64(&self) -> u64 {
            self.id
        }
        fn extra(&self, _i: usize) -> u64 {
            self.tf as u64
        }
        fn from_parts(key: u64, extras: &[u64]) -> Self {
            Doc {
                id: key,
                tf: extras[0] as u32,
            }
        }
        fn coalesce(&mut self, other: &Self) -> bool {
            if self.id == other.id {
                self.tf += other.tf;
                true
            } else {
                false
            }
        }
        fn occurrences(&self) -> u64 {
            self.tf as u64
        }
        fn same_doc(&self, other: &Self) -> bool {
            self.id == other.id
        }
    }

    fn random_docs(rng: &mut Rng, len: usize, gap: u64) -> Vec<Doc> {
        let mut id = 0u64;
        (0..len)
            .map(|_| {
                id += rng.gen_range(0..gap.max(1) as u32) as u64;
                let d = Doc {
                    id,
                    tf: 1 + rng.gen_range(0..1000u32),
                };
                id += 1;
                d
            })
            .collect()
    }

    #[test]
    fn bit_writer_reader_round_trip_all_widths() {
        let mut rng = Rng::seed_from_u64(41);
        let mut vals: Vec<(u64, u8)> = Vec::new();
        let mut w = BitWriter::default();
        for _ in 0..2000 {
            let bits = rng.gen_index(65) as u8;
            let v = if bits == 0 {
                0
            } else if bits == 64 {
                ((rng.gen_range(0..u32::MAX) as u64) << 32) | rng.gen_range(0..u32::MAX) as u64
            } else {
                (((rng.gen_range(0..u32::MAX) as u64) << 32) | rng.gen_range(0..u32::MAX) as u64)
                    & ((1u64 << bits) - 1)
            };
            w.put(v, bits);
            vals.push((v, bits));
            if rng.gen_index(10) == 0 {
                w.align_word();
                vals.push((u64::MAX, 255)); // sentinel: align marker
            }
        }
        let mut r = BitReader {
            words: &w.words,
            bit: 0,
        };
        for (v, bits) in vals {
            if bits == 255 {
                r.bit = r.bit.div_ceil(64) * 64;
            } else {
                assert_eq!(r.get(bits), v, "width {bits}");
            }
        }
    }

    #[test]
    fn encode_decode_identity_over_random_lists() {
        let mut rng = Rng::seed_from_u64(42);
        for len in [0usize, 1, 2, 127, 128, 129, 1000, 5000] {
            for gap in [1u64, 2, 1000, 1 << 20] {
                let docs = random_docs(&mut rng, len, gap);
                let bl = BlockList::encode(&docs);
                assert_eq!(bl.len(), docs.len());
                assert_eq!(bl.to_vec(), docs, "len {len} gap {gap}");
                assert_eq!(
                    BlockIter::new(&bl).collect::<Vec<_>>(),
                    docs,
                    "iterator parity"
                );
            }
        }
    }

    #[test]
    fn meta_invariants_hold() {
        let mut rng = Rng::seed_from_u64(43);
        let docs = random_docs(&mut rng, 3000, 50);
        let bl = BlockList::encode(&docs);
        let mut decoded = Vec::new();
        for b in 0..bl.num_blocks() {
            let start = decoded.len();
            bl.decode_block_into(b, &mut decoded);
            let block = &decoded[start..];
            let meta = bl.meta(b);
            assert_eq!(meta.count as usize, block.len());
            assert_eq!(meta.last_key, block.last().unwrap().id);
        }
        assert_eq!(decoded, docs);
        assert!(bl.metas.windows(2).all(|w| w[0].last_key <= w[1].last_key));
    }

    #[test]
    fn cursor_seek_matches_linear_scan() {
        let mut rng = Rng::seed_from_u64(44);
        let docs = random_docs(&mut rng, 2000, 37);
        let bl = BlockList::encode(&docs);
        let max_key = docs.last().unwrap().id + 10;
        // Monotone random probe sequence on one cursor.
        let mut probes: Vec<u64> = (0..300)
            .map(|_| rng.gen_range(0..max_key as u32) as u64)
            .collect();
        probes.sort_unstable();
        let mut c = bl.cursor();
        for &k in &probes {
            let want = docs.iter().find(|d| d.id >= k).copied();
            assert_eq!(c.seek(k), want, "seek {k}");
        }
        // A fresh cursor per probe for non-monotone coverage.
        for _ in 0..100 {
            let k = rng.gen_range(0..max_key as u32) as u64;
            let want = docs.iter().find(|d| d.id >= k).copied();
            assert_eq!(bl.cursor().seek(k), want, "fresh seek {k}");
        }
    }

    #[test]
    fn probes_match_plain_kernels() {
        let mut rng = Rng::seed_from_u64(45);
        let docs = random_docs(&mut rng, 700, 11);
        let bl = BlockList::encode(&docs);
        let max = docs.last().unwrap().id + 5;
        for _ in 0..400 {
            let v = Doc {
                id: rng.gen_range(0..max as u32) as u64,
                tf: 1,
            };
            assert_eq!(
                bl.right_match(v),
                crate::index::kernels::right_match(&docs, v)
            );
            assert_eq!(
                bl.left_match(v),
                crate::index::kernels::left_match(&docs, v)
            );
            assert_eq!(bl.contains(&v), docs.binary_search(&v).is_ok());
        }
    }

    #[test]
    fn compresses_dense_keys_well() {
        // Dense u64 keys with small tf: plain = 16 B/posting, blocks ≈
        // (few delta bits + ~10 tf bits)/posting + 24 B/block metadata.
        let docs: Vec<Doc> = (0..100_000u64)
            .map(|i| Doc {
                id: i * 3,
                tf: 1 + (i % 700) as u32,
            })
            .collect();
        let bl = BlockList::encode(&docs);
        let plain = docs.len() * std::mem::size_of::<Doc>();
        assert!(
            bl.heap_bytes() * 2 < plain,
            "blocks {} vs plain {plain}",
            bl.heap_bytes()
        );
    }
}
