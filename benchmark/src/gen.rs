//! Load generators. Everything here is a pure function of the workload
//! seed and the index vocabulary: the program under test receives only the
//! generated requests.

use kwdb::common::Rng;
use std::collections::HashSet;

/// Number of most frequent terms that form the *head* of a vocabulary. On
/// the DBLP generator's 120-term vocabulary the 50 most frequent terms are
/// exactly the title words; every later term is a name part or a venue. A
/// query of three title words joins paper–cite–paper chains for seconds
/// (5–20 s measured on `dblp_large`), so `kw3` takes at most one.
pub const HEAD_TERMS: usize = 50;

/// An index vocabulary ranked by document frequency (descending, ties by
/// term). Rank 0 is the most frequent term.
#[derive(Debug, Clone)]
pub struct Vocab {
    terms: Vec<(String, usize)>,
    /// Cumulative harmonic weights: `cdf[i] = Σ_{r ≤ i} 1/(r+1)`.
    cdf: Vec<f64>,
}

impl Vocab {
    pub fn ranked(mut terms: Vec<(String, usize)>) -> Self {
        terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        assert!(
            terms.len() > HEAD_TERMS + 2,
            "vocabulary too small for head/tail queries"
        );
        let cdf = harmonic_cdf(terms.len());
        Vocab { terms, cdf }
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn term(&self, rank: usize) -> &str {
        &self.terms[rank].0
    }

    /// Every unordered pair of ranks, most expensive first by the proxy
    /// `doc_freq(a) · doc_freq(b)` (ties by rank).
    fn pairs_by_cost(&self) -> Vec<[usize; 2]> {
        let n = self.len();
        let mut pairs: Vec<[usize; 2]> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| [a, b]))
            .collect();
        pairs.sort_by_key(|&[a, b]| (std::cmp::Reverse(self.terms[a].1 * self.terms[b].1), a, b));
        pairs
    }

    /// The Zipf(1.0) rank in `lo..hi` at cumulative position `u ∈ [0, 1)`.
    fn zipf_rank(&self, u: f64, lo: usize, hi: usize) -> usize {
        let base = if lo == 0 { 0.0 } else { self.cdf[lo - 1] };
        let target = base + u * (self.cdf[hi - 1] - base);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < target)).min(hi - 1)
    }
}

/// Cumulative Zipf(1.0) weights: element `i` is `Σ_{r ≤ i} 1/(r+1)`.
pub fn harmonic_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    (1..=n)
        .map(|r| {
            acc += 1.0 / r as f64;
            acc
        })
        .collect()
}

/// An additive-recurrence (Kronecker) sequence `frac(x₀ + i·α)`: every
/// prefix covers `[0, 1)` evenly, so two seeds draw differently placed but
/// equally spread term ranks and the latency distribution of a run depends
/// on the seed as little as a sample can.
#[derive(Debug, Clone)]
struct Kronecker {
    x: f64,
    alpha: f64,
}

impl Kronecker {
    fn new(x0: f64, alpha: f64) -> Self {
        Kronecker { x: x0, alpha }
    }

    fn next(&mut self) -> f64 {
        self.x = (self.x + self.alpha).fract();
        self.x
    }
}

/// An endless stream of *distinct* keyword queries over one vocabulary.
/// Distinct means distinct as a keyword *set*, which is what the engines'
/// result-cache key is built from.
///
/// `kw2` walks the population of all term pairs, ordered by a cost proxy,
/// with a Kronecker sequence: every prefix of the stream covers the cost
/// range evenly, so the cost mix neither depends on the seed nor drifts with
/// how far a run gets. (Zipf-ranked draws *without replacement* from a
/// 120-term vocabulary use up the frequent — expensive — pairs first: a run
/// slowed by noise then measures costlier queries, which amplifies the
/// noise. Measured p50 11.0 vs 12.4 ms for the same seed at 20 s vs 10 s.)
///
/// `kw3` is one Zipf-ranked head term plus two distinct Zipf-ranked tail
/// terms, which bounds its work by construction (see [`HEAD_TERMS`]); its
/// population is large enough that drawing without replacement does not
/// deplete it.
#[derive(Debug, Clone)]
pub struct QueryGen {
    vocab: Vocab,
    pairs: Vec<[usize; 2]>,
    dims: [Kronecker; 4],
    seen: HashSet<Vec<usize>>,
}

/// Draws of a fresh `kw2` attempted before the stream falls back to `kw3`
/// (only reached when a long run has used up most of the pair population).
const KW2_ATTEMPTS: usize = 256;

impl QueryGen {
    pub fn new(vocab: Vocab, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        // square roots of distinct primes: rationally independent steps
        let alphas = [
            (5f64.sqrt() - 1.0) / 2.0,
            std::f64::consts::SQRT_2 - 1.0,
            3f64.sqrt() - 1.0,
            7f64.sqrt() - 2.0,
        ];
        let dims = alphas.map(|a| Kronecker::new(rng.gen_f64(), a));
        QueryGen {
            pairs: vocab.pairs_by_cost(),
            vocab,
            dims,
            seen: HashSet::new(),
        }
    }

    fn render(&self, ranks: &[usize]) -> String {
        ranks
            .iter()
            .map(|&r| self.vocab.term(r))
            .collect::<Vec<_>>()
            .join(" ")
    }

    fn admit(&mut self, ranks: &[usize]) -> bool {
        let mut key = ranks.to_vec();
        key.sort_unstable();
        key.windows(2).all(|w| w[0] != w[1]) && self.seen.insert(key)
    }

    /// The ranks of the next fresh `kw2`, or `None` when none turned up.
    fn kw2_ranks(&mut self) -> Option<[usize; 2]> {
        for _ in 0..KW2_ATTEMPTS {
            let at = (self.dims[0].next() * self.pairs.len() as f64) as usize;
            let pair = self.pairs[at.min(self.pairs.len() - 1)];
            if self.admit(&pair) {
                return Some(pair);
            }
        }
        None
    }

    pub fn kw3_ranks(&mut self) -> [usize; 3] {
        let n = self.vocab.len();
        loop {
            let h = self.vocab.zipf_rank(self.dims[1].next(), 0, HEAD_TERMS);
            let t1 = self.vocab.zipf_rank(self.dims[2].next(), HEAD_TERMS, n);
            let t2 = self.vocab.zipf_rank(self.dims[3].next(), HEAD_TERMS, n);
            if self.admit(&[h, t1, t2]) {
                return [h, t1, t2];
            }
        }
    }

    pub fn kw2(&mut self) -> String {
        match self.kw2_ranks() {
            Some(r) => self.render(&r),
            None => self.kw3(),
        }
    }

    pub fn kw3(&mut self) -> String {
        let r = self.kw3_ranks();
        self.render(&r)
    }

    /// Query number `i` of a stream that is `kw3` on every `period`-th
    /// position and `kw2` elsewhere, so the class mix of any prefix is fixed.
    pub fn mixed(&mut self, i: u64, period: u64) -> String {
        if i % period == period - 1 {
            self.kw3()
        } else {
            self.kw2()
        }
    }
}

/// One step of the exploration stream: which session to (re)play.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionVisit {
    /// Index into the run's list of opened sessions.
    pub session: usize,
    /// The session's keyword query when this visit opens it.
    pub opens: Option<String>,
}

/// Slots per block of the session stream; exactly one slot of every block
/// opens a new session.
pub const SESSION_BLOCK: usize = 4;

/// The exploration stream: in every block of [`SESSION_BLOCK`] visits one
/// (seed-chosen) slot opens a session with a fresh `kw2`, the others revisit
/// a session opened earlier, chosen Zipf(1.0) by order of first appearance.
/// The share of new sessions is therefore exact in every prefix, which keeps
/// the miss/hit mix — and so throughput — independent of how far a run gets.
#[derive(Debug, Clone)]
pub struct SessionStream {
    queries: QueryGen,
    rng: Rng,
    opened: usize,
    slot: usize,
    new_slot: usize,
    cdf: Vec<f64>,
}

impl SessionStream {
    pub fn new(vocab: Vocab, seed: u64) -> Self {
        SessionStream {
            queries: QueryGen::new(vocab, seed),
            rng: Rng::seed_from_u64(seed ^ 0x5e55_1045),
            opened: 0,
            slot: 0,
            new_slot: 0, // the very first visit has nothing to revisit
            cdf: Vec::new(),
        }
    }
}

impl Iterator for SessionStream {
    type Item = SessionVisit;

    fn next(&mut self) -> Option<SessionVisit> {
        let visit = if self.slot == self.new_slot {
            self.opened += 1;
            let last = self.cdf.last().copied().unwrap_or(0.0);
            self.cdf.push(last + 1.0 / self.opened as f64);
            SessionVisit {
                session: self.opened - 1,
                opens: Some(self.queries.kw2()),
            }
        } else {
            let target = self.rng.gen_f64() * self.cdf[self.opened - 1];
            let session = self.cdf.partition_point(|&c| c < target);
            SessionVisit {
                session: session.min(self.opened - 1),
                opens: None,
            }
        };
        self.slot += 1;
        if self.slot == SESSION_BLOCK {
            self.slot = 0;
            self.new_slot = self.rng.gen_index(SESSION_BLOCK);
        }
        Some(visit)
    }
}

/// One generated mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteOp {
    /// `(table, column values)`; integers and text only.
    Ingest(&'static str, Vec<Cell>),
    /// Delete the paper with this primary key.
    DeletePaper(i64),
}

#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Text(String),
}

/// Tuples one generated paper expands to: the paper, two authorships, one
/// citation.
pub const TUPLES_PER_PAPER: usize = 4;

/// FK-valid write traffic against a DBLP-shaped database: each paper gets a
/// unique marker token `mk<pid>` in its title (the read-your-writes probe),
/// authorships point at base authors, citations at base papers (which are
/// never deleted), and every twentieth paper is followed by the deletion of
/// an earlier *ingested* paper — 5 % of them, each at most once.
#[derive(Debug, Clone)]
pub struct IngestGen {
    rng: Rng,
    vocab: Vocab,
    base_papers: i64,
    base_authors: i64,
    conferences: i64,
    next_pid: i64,
    next_wid: i64,
    next_cite: i64,
    /// Ingested papers still live (delete candidates).
    live: Vec<i64>,
    pub deleted: Vec<i64>,
}

pub struct BaseCounts {
    pub papers: usize,
    pub authors: usize,
    pub conferences: usize,
    pub writes: usize,
    pub cites: usize,
}

impl IngestGen {
    pub fn new(vocab: Vocab, base: &BaseCounts, seed: u64) -> Self {
        IngestGen {
            rng: Rng::seed_from_u64(seed ^ 0x1465_57aa),
            vocab,
            base_papers: base.papers as i64,
            base_authors: base.authors as i64,
            conferences: base.conferences as i64,
            next_pid: base.papers as i64,
            next_wid: base.writes as i64,
            next_cite: base.cites as i64,
            live: Vec::new(),
            deleted: Vec::new(),
        }
    }

    pub fn marker(pid: i64) -> String {
        format!("mk{pid}")
    }

    /// The next paper's operations: [`TUPLES_PER_PAPER`] ingests, plus a
    /// delete after every twentieth paper. Returns the new paper's key too.
    pub fn next_paper(&mut self) -> (i64, Vec<WriteOp>) {
        let pid = self.next_pid;
        self.next_pid += 1;
        let n = self.vocab.len();
        let mut title: Vec<String> = (0..4)
            .map(|_| {
                let r = self.vocab.zipf_rank(self.rng.gen_f64(), 0, n);
                self.vocab.term(r).to_string()
            })
            .collect();
        title.push(Self::marker(pid));
        let mut ops = vec![WriteOp::Ingest(
            "paper",
            vec![
                Cell::Int(pid),
                Cell::Text(title.join(" ")),
                Cell::Int(self.rng.gen_range(0..self.conferences)),
            ],
        )];
        let first = self.rng.gen_range(0..self.base_authors);
        for aid in [first, (first + 1) % self.base_authors] {
            ops.push(WriteOp::Ingest(
                "write",
                vec![Cell::Int(self.next_wid), Cell::Int(aid), Cell::Int(pid)],
            ));
            self.next_wid += 1;
        }
        ops.push(WriteOp::Ingest(
            "cite",
            vec![
                Cell::Int(self.next_cite),
                Cell::Int(pid),
                Cell::Int(self.rng.gen_range(0..self.base_papers)),
            ],
        ));
        self.next_cite += 1;
        self.live.push(pid);
        if (pid - self.base_papers) % 20 == 19 {
            // never the paper just written: its marker is the commit probe
            let victim = self
                .live
                .swap_remove(self.rng.gen_index(self.live.len() - 1));
            self.deleted.push(victim);
            ops.push(WriteOp::DeletePaper(victim));
        }
        (pid, ops)
    }
}

/// Due time of batch `i` of an open-loop schedule at `rate` batches/s.
pub fn due_ns(i: u64, batches_per_s: f64) -> u64 {
    (i as f64 * 1e9 / batches_per_s) as u64
}

/// What one open-loop batch experienced: the stall a client saw (completion
/// measured from when the batch was *due*, so a late start counts) and how
/// late the generator itself started it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopTiming {
    pub stall_ns: u64,
    pub lateness_ns: u64,
}

pub fn open_loop_timing(due: u64, started: u64, finished: u64) -> OpenLoopTiming {
    OpenLoopTiming {
        stall_ns: finished.saturating_sub(due),
        lateness_ns: started.saturating_sub(due),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocab {
        Vocab::ranked((0..120).map(|i| (format!("t{i:03}"), 1000 - i)).collect())
    }

    #[test]
    fn vocabulary_is_ranked_by_frequency_then_term() {
        let v = Vocab::ranked(
            [("b", 5), ("a", 5), ("z", 9)]
                .into_iter()
                .map(|(t, df)| (t.to_string(), df))
                .chain((0..50).map(|i| (format!("x{i:02}"), 1)))
                .collect(),
        );
        assert_eq!([v.term(0), v.term(1), v.term(2)], ["z", "a", "b"]);
        assert_eq!(v.zipf_rank(0.0, 0, v.len()), 0);
        assert_eq!(v.zipf_rank(0.999_999, 0, v.len()), v.len() - 1);
        assert_eq!(v.zipf_rank(0.0, HEAD_TERMS, v.len()), HEAD_TERMS);
    }

    #[test]
    fn query_streams_are_pure_functions_of_the_seed() {
        let take = |seed| {
            let mut g = QueryGen::new(vocab(), seed);
            (0..200).map(|i| g.mixed(i, 5)).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn queries_are_distinct_keyword_sets() {
        let mut g = QueryGen::new(vocab(), 3);
        let mut sets = HashSet::new();
        for i in 0..2000 {
            let q = g.mixed(i, 5);
            let mut terms: Vec<&str> = q.split(' ').collect();
            assert_eq!(terms.len(), if i % 5 == 4 { 3 } else { 2 });
            terms.sort_unstable();
            terms.dedup();
            assert_eq!(terms.len(), if i % 5 == 4 { 3 } else { 2 }, "{q}");
            assert!(sets.insert(terms.join(" ")), "repeated keyword set {q}");
        }
    }

    #[test]
    fn kw3_never_draws_three_head_terms() {
        let mut g = QueryGen::new(vocab(), 11);
        for _ in 0..3000 {
            let [h, t1, t2] = g.kw3_ranks();
            assert!(h < HEAD_TERMS);
            assert!(t1 >= HEAD_TERMS && t2 >= HEAD_TERMS && t1 != t2);
        }
    }

    #[test]
    fn kw2_falls_back_to_kw3_once_the_pair_population_is_used_up() {
        let small = Vocab::ranked((0..54).map(|i| (format!("t{i:02}"), 100 - i)).collect());
        let mut g = QueryGen::new(small, 1);
        let pairs = 54 * 53 / 2;
        let mut three = 0;
        for _ in 0..pairs + 50 {
            if g.kw2().split(' ').count() == 3 {
                three += 1;
            }
        }
        assert!(three >= 50, "only {three} fallbacks");
    }

    #[test]
    fn session_stream_is_seeded_and_opens_one_session_per_block() {
        let take = |seed| {
            SessionStream::new(vocab(), seed)
                .take(400)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(5), take(5));
        assert_ne!(take(5), take(6));
        let visits = take(5);
        assert!(visits[0].opens.is_some());
        for block in visits.chunks(SESSION_BLOCK) {
            assert_eq!(block.iter().filter(|v| v.opens.is_some()).count(), 1);
        }
        // the pool holds distinct sessions, numbered in order of appearance
        let opened: Vec<&String> = visits.iter().filter_map(|v| v.opens.as_ref()).collect();
        assert_eq!(
            opened.iter().collect::<HashSet<_>>().len(),
            opened.len(),
            "sessions repeat"
        );
        let mut seen = 0;
        for v in &visits {
            match v.opens {
                Some(_) => {
                    assert_eq!(v.session, seen);
                    seen += 1;
                }
                None => assert!(v.session < seen, "revisit of an unopened session"),
            }
        }
        // Zipf revisits favour the earliest sessions
        let first = visits.iter().filter(|v| v.session == 0).count();
        let fiftieth = visits.iter().filter(|v| v.session == 49).count();
        assert!(first > 5 * fiftieth.max(1), "{first} vs {fiftieth}");
    }

    #[test]
    fn ingest_stream_is_seeded_fk_valid_and_deletes_each_paper_once() {
        let base = BaseCounts {
            papers: 100,
            authors: 30,
            conferences: 4,
            writes: 220,
            cites: 150,
        };
        let run = |seed| {
            let mut g = IngestGen::new(vocab(), &base, seed);
            let ops: Vec<_> = (0..400).map(|_| g.next_paper()).collect();
            (ops, g.deleted)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1).0, run(2).0);
        let (ops, deleted) = run(1);
        assert_eq!(deleted.len(), 400 / 20);
        assert_eq!(
            deleted.iter().collect::<HashSet<_>>().len(),
            deleted.len(),
            "a paper was deleted twice"
        );
        let mut live: HashSet<i64> = (0..100).collect();
        let mut pks: HashSet<(&str, i64)> = HashSet::new();
        for (pid, paper_ops) in &ops {
            for op in paper_ops {
                match op {
                    WriteOp::Ingest(table, cells) => {
                        let ints: Vec<i64> = cells
                            .iter()
                            .filter_map(|c| match c {
                                Cell::Int(i) => Some(*i),
                                Cell::Text(_) => None,
                            })
                            .collect();
                        assert!(pks.insert((table, ints[0])), "duplicate key in {table}");
                        match *table {
                            "paper" => {
                                assert_eq!(ints[0], *pid);
                                assert!((0..4).contains(&ints[1]));
                                live.insert(*pid);
                                let Cell::Text(title) = &cells[1] else {
                                    panic!("title must be text")
                                };
                                assert!(title.ends_with(&IngestGen::marker(*pid)));
                            }
                            "write" => {
                                assert!((0..30).contains(&ints[1]));
                                assert!(live.contains(&ints[2]));
                            }
                            "cite" => {
                                assert!(live.contains(&ints[1]));
                                assert!((0..100).contains(&ints[2]), "cites a non-base paper");
                            }
                            other => panic!("unexpected table {other}"),
                        }
                    }
                    WriteOp::DeletePaper(victim) => {
                        assert!(*victim >= 100 && victim != pid);
                        assert!(live.remove(victim), "deleted a dead paper");
                    }
                }
            }
        }
    }

    #[test]
    fn open_loop_batches_are_timed_from_their_due_time() {
        assert_eq!(due_ns(0, 20.0), 0);
        assert_eq!(due_ns(3, 20.0), 150_000_000);
        // started 2 ms late, ran 5 ms: the client saw 7 ms
        let t = open_loop_timing(150_000_000, 152_000_000, 157_000_000);
        assert_eq!(t.stall_ns, 7_000_000);
        assert_eq!(t.lateness_ns, 2_000_000);
        // a generator that is early never reports negative lateness
        let t = open_loop_timing(150_000_000, 149_000_000, 151_000_000);
        assert_eq!((t.stall_ns, t.lateness_ns), (1_000_000, 0));
    }
}
