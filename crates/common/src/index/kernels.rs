//! Sorted-list kernels shared by every substrate index: intersection
//! (linear merge vs galloping, chosen by size ratio), the `lm`/`rm` binary
//! probes of the SLCA/XKSearch family, and the cursor kernel — galloping
//! cursor intersection — that operates on [`PostingCursor`]s.
//!
//! Slice kernels operate on sorted slices of any `Ord + Copy` element, so
//! the same code serves relational `RowId`s, XML `NodeId`s, and graph
//! `NodeId`s. Intersections use *set* semantics: the output is strictly
//! increasing even when the inputs contain duplicates.

use super::posting::{Posting, PostingCursor};

/// Size ratio at which intersection switches from linear merge to galloping:
/// when the larger list is at least this many times the smaller, skipping
/// through the large list with exponential search beats scanning it.
pub const GALLOP_RATIO: usize = 8;

/// Smallest element of sorted `list` that is `≥ v` — XKSearch's *rm* probe.
/// `None` if every element precedes `v`.
pub fn right_match<T: Ord + Copy>(list: &[T], v: T) -> Option<T> {
    let i = list.partition_point(|x| *x < v);
    list.get(i).copied()
}

/// Largest element of sorted `list` that is `≤ v` — XKSearch's *lm* probe.
/// `None` if every element follows `v`.
pub fn left_match<T: Ord + Copy>(list: &[T], v: T) -> Option<T> {
    let i = list.partition_point(|x| *x <= v);
    i.checked_sub(1).map(|j| list[j])
}

/// Is `v` contained in sorted `list`? (Binary search membership probe.)
pub fn contains<T: Ord>(list: &[T], v: &T) -> bool {
    list.binary_search(v).is_ok()
}

/// Index of the first element `≥ target` in `list[from..]`, found by
/// exponential (galloping) search from `from`. Returns `list.len()` when no
/// such element exists. `O(log d)` in the distance `d` to the answer, which
/// is what makes skewed-size intersections cheap.
pub fn gallop_lower_bound<T: Ord>(list: &[T], target: &T, from: usize) -> usize {
    gallop_by(list, from, |x| *x >= *target)
}

/// Index of the first element at or after `from` satisfying `pred`, found
/// by exponential search. `pred` must be monotone over the slice (false
/// then true); returns `list.len()` when nothing satisfies it. This is the
/// predicate-shaped gallop that cursor `seek` uses to jump by `key64`.
pub fn gallop_by<T>(list: &[T], from: usize, pred: impl Fn(&T) -> bool) -> usize {
    if from >= list.len() || pred(&list[from]) {
        return from.min(list.len());
    }
    // invariant: !pred(list[lo]); hi is the first probe with pred(list[hi])
    let mut step = 1usize;
    let mut lo = from;
    let hi = loop {
        let probe = from + step;
        if probe >= list.len() {
            break list.len();
        }
        if !pred(&list[probe]) {
            lo = probe;
            step <<= 1;
        } else {
            break probe;
        }
    };
    lo + 1 + list[lo + 1..hi].partition_point(|x| !pred(x))
}

/// Intersection by linear merge into a caller buffer (cleared first):
/// `O(|a| + |b|)`. Best when the lists are of comparable length.
pub fn intersect_linear_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if out.last() != Some(&a[i]) {
                    out.push(a[i]);
                }
                i += 1;
                j += 1;
            }
        }
    }
}

/// Intersection by galloping into a caller buffer (cleared first): for each
/// element of `small`, exponential-search forward in `large`.
/// `O(|small| · log(|large| / |small|))` — the win when one list dwarfs the
/// other (a rare query term against a stop-word-like list).
pub fn intersect_gallop_into<T: Ord + Copy>(small: &[T], large: &[T], out: &mut Vec<T>) {
    out.clear();
    let mut pos = 0usize;
    for &v in small {
        if out.last() == Some(&v) {
            continue; // duplicate in `small`
        }
        pos = gallop_lower_bound(large, &v, pos);
        if pos == large.len() {
            break;
        }
        if large[pos] == v {
            out.push(v);
        }
    }
}

/// Intersect two sorted lists into a caller buffer (cleared first),
/// choosing the kernel by size ratio: galloping when the larger list is ≥
/// [`GALLOP_RATIO`]× the smaller, linear merge otherwise.
pub fn intersect_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        out.clear();
        return;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        intersect_gallop_into(small, large, out)
    } else {
        intersect_linear_into(small, large, out)
    }
}

/// Intersect two posting cursors with mutual galloping
/// `seek`, appending equal postings to `out` with set semantics. Requires
/// the postings' `Ord` to agree with `key64` order (monotone), which every
/// `Ord` posting in the tree satisfies.
pub fn intersect_cursors<P: Posting + Ord>(
    a: &mut PostingCursor<'_, P>,
    b: &mut PostingCursor<'_, P>,
    out: &mut Vec<P>,
) {
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Equal => {
                if out.last() != Some(&x) {
                    out.push(x);
                }
                a.advance();
                b.advance();
            }
            std::cmp::Ordering::Less => {
                // jump a forward to y's key, then step over same-key
                // postings that still order below y
                a.seek(y.key64());
                while a.peek().is_some_and(|p| p < y) {
                    a.advance();
                }
            }
            std::cmp::Ordering::Greater => {
                b.seek(x.key64());
                while b.peek().is_some_and(|p| p < x) {
                    b.advance();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TermIndex;
    use crate::rng::Rng;
    use std::collections::BTreeSet;

    /// Reference intersection: sorted set semantics.
    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        sa.intersection(&sb).copied().collect()
    }

    /// Sorted random list; `universe` small ⇒ duplicate-heavy.
    fn random_list(rng: &mut Rng, len: usize, universe: u32) -> Vec<u32> {
        let mut v: Vec<u32> = (0..len)
            .map(|_| rng.gen_range(0..universe.max(1)))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn probes_match_naive_scan() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..200 {
            let len = rng.gen_index(20);
            let list = random_list(&mut rng, len, 30);
            let v = rng.gen_range(0..35u32);
            let rm = list.iter().copied().find(|&x| x >= v);
            let lm = list.iter().copied().rev().find(|&x| x <= v);
            assert_eq!(right_match(&list, v), rm, "rm {list:?} {v}");
            assert_eq!(left_match(&list, v), lm, "lm {list:?} {v}");
            assert_eq!(contains(&list, &v), list.binary_search(&v).is_ok());
        }
    }

    #[test]
    fn gallop_lower_bound_matches_partition_point() {
        let mut rng = Rng::seed_from_u64(8);
        for _ in 0..200 {
            let len = rng.gen_index(50);
            let list = random_list(&mut rng, len, 40);
            let target = rng.gen_range(0..45u32);
            let from = rng.gen_index(list.len() + 1);
            let expect = from + list[from..].partition_point(|x| *x < target);
            assert_eq!(
                gallop_lower_bound(&list, &target, from),
                expect,
                "list {list:?} target {target} from {from}"
            );
        }
    }

    #[test]
    fn intersection_kernels_agree_with_naive_over_adversarial_ratios() {
        let mut rng = Rng::seed_from_u64(9);
        // adversarial size pairs: empty, singleton, tiny-vs-huge, balanced
        let sizes: [(usize, usize); 8] = [
            (0, 0),
            (0, 40),
            (1, 1),
            (1, 500),
            (3, 1000),
            (64, 64),
            (100, 101),
            (7, 7000),
        ];
        for &(la, lb) in &sizes {
            for universe in [5u32, 1000, 100_000] {
                for _ in 0..8 {
                    let a = random_list(&mut rng, la, universe);
                    let b = random_list(&mut rng, lb, universe);
                    let expect = naive(&a, &b);
                    let mut out = Vec::new();
                    intersect_into(&a, &b, &mut out);
                    assert_eq!(out, expect, "dispatch {la}x{lb} u{universe}");
                    intersect_linear_into(&a, &b, &mut out);
                    assert_eq!(out, expect, "linear");
                    let (s, l) = if a.len() <= b.len() {
                        (&a, &b)
                    } else {
                        (&b, &a)
                    };
                    intersect_gallop_into(s, l, &mut out);
                    assert_eq!(out, expect, "gallop");
                }
            }
        }
    }

    #[test]
    fn intersect_into_reuses_buffer_without_stale_entries() {
        let mut out = vec![99u32; 8]; // stale junk that must be cleared
        intersect_into(&[1u32, 3, 5], &[3u32, 4, 5], &mut out);
        assert_eq!(out, vec![3, 5]);
        intersect_into(&[7u32], &[8u32], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_heavy_output_is_strictly_increasing() {
        let a = [1u32, 1, 1, 2, 2, 3, 9, 9];
        let b = [1u32, 2, 2, 9, 9, 9];
        let mut out = Vec::new();
        for kernel in [intersect_into, intersect_linear_into, intersect_gallop_into] {
            kernel(&a, &b, &mut out);
            assert_eq!(out, vec![1, 2, 9]);
        }
    }

    // ------- cursor kernels -------

    /// NodeId-like test posting.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct N(u32);
    impl Posting for N {
        type SortKey = u32;
        fn sort_key(&self) -> u32 {
            self.0
        }
        fn key64(&self) -> u64 {
            self.0 as u64
        }
        fn coalesce(&mut self, other: &Self) -> bool {
            self == other
        }
    }

    /// An index holding `lists` as terms `t0`, `t1`, …
    fn store_with(lists: &[&[u32]]) -> TermIndex<N> {
        let mut st = TermIndex::new();
        for (i, l) in lists.iter().enumerate() {
            for &v in *l {
                st.add(&format!("t{i}"), N(v));
            }
        }
        st
    }

    #[test]
    fn cursor_intersection_matches_slice_kernels() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..40 {
            let la = rng.gen_index(800);
            let lb = rng.gen_index(800);
            let a = random_list(&mut rng, la, 500);
            let b = random_list(&mut rng, lb, 500);
            let expect: Vec<N> = naive(&a, &b).into_iter().map(N).collect();
            let sa = store_with(&[&a]);
            let sb = store_with(&[&b]);
            let mut out = Vec::new();
            let mut ca = sa.postings_str("t0").cursor();
            let mut cb = sb.postings_str("t0").cursor();
            intersect_cursors(&mut ca, &mut cb, &mut out);
            assert_eq!(out, expect);
            let mut slice = Vec::new();
            intersect_into(&a, &b, &mut slice);
            assert_eq!(out, slice.into_iter().map(N).collect::<Vec<_>>());
        }
    }
}
