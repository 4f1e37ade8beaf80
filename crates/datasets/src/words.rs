//! Vocabulary and Zipf sampling for the generators.

use kwdb_common::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Database-flavoured title vocabulary (ranked roughly by how common the
/// term is in real venue titles, so Zipf sampling looks natural).
pub const TITLE_WORDS: &[&str] = &[
    "data",
    "query",
    "database",
    "search",
    "keyword",
    "xml",
    "system",
    "processing",
    "efficient",
    "distributed",
    "graph",
    "web",
    "index",
    "optimization",
    "stream",
    "mining",
    "relational",
    "semantic",
    "schema",
    "join",
    "ranking",
    "cloud",
    "scalable",
    "storage",
    "transaction",
    "parallel",
    "spatial",
    "temporal",
    "probabilistic",
    "approximate",
    "adaptive",
    "incremental",
    "secure",
    "privacy",
    "workflow",
    "provenance",
    "benchmark",
    "sampling",
    "compression",
    "recovery",
    "views",
    "caching",
    "partitioning",
    "replication",
    "consistency",
    "concurrency",
    "learning",
    "embedding",
    "federated",
    "crowdsourcing",
];

/// First names for authors/people.
pub const FIRST_NAMES: &[&str] = &[
    "jennifer", "serge", "michael", "david", "hector", "rakesh", "jeffrey", "jim", "moshe",
    "christos", "yannis", "susan", "laura", "divesh", "surajit", "joseph", "raghu", "mary",
    "peter", "wei", "hans", "anhai", "gerhard", "jiawei", "elisa", "timos", "ricardo", "umesh",
    "stefano", "sihem",
];

/// Last names.
pub const LAST_NAMES: &[&str] = &[
    "widom",
    "abiteboul",
    "stonebraker",
    "dewitt",
    "garcia",
    "agrawal",
    "ullman",
    "gray",
    "vardi",
    "faloutsos",
    "ioannidis",
    "davidson",
    "haas",
    "srivastava",
    "chaudhuri",
    "hellerstein",
    "ramakrishnan",
    "fernandez",
    "buneman",
    "wang",
    "boral",
    "doan",
    "weikum",
    "han",
    "bertino",
    "sellis",
    "baeza",
    "dayal",
    "ceri",
    "amer",
];

/// Conference names.
pub const VENUES: &[&str] = &[
    "sigmod", "vldb", "icde", "edbt", "cikm", "kdd", "www", "sigir", "pods", "cidr",
];

/// Sample an index in `0..n` under a Zipf(s≈1) distribution: inverse CDF
/// over the harmonic weights `1/1, 1/2, …, 1/n`. The weights' prefix sums are
/// tabulated once per `n`, by the left-to-right accumulation a scan of them
/// would perform, so the sample is the first rank whose sum reaches the
/// target — bit for bit the rank that scan would stop at.
pub fn zipf(rng: &mut Rng, n: usize) -> usize {
    debug_assert!(n > 0);
    thread_local! {
        static PREFIX_SUMS: RefCell<BTreeMap<usize, Vec<f64>>> = const { RefCell::new(BTreeMap::new()) };
    }
    PREFIX_SUMS.with_borrow_mut(|tables| {
        let sums = tables.entry(n).or_insert_with(|| {
            let mut acc = 0.0;
            (1..=n)
                .map(|i| {
                    acc += 1.0 / i as f64;
                    acc
                })
                .collect()
        });
        let target = rng.gen_f64() * sums[n - 1];
        sums.partition_point(|&acc| acc < target).min(n - 1)
    })
}

/// A title of `len` Zipf-sampled distinct-ish words.
pub fn title(rng: &mut Rng, len: usize) -> String {
    let mut words = Vec::with_capacity(len);
    for _ in 0..len {
        words.push(TITLE_WORDS[zipf(rng, TITLE_WORDS.len())]);
    }
    words.join(" ")
}

/// A person name `first last`.
pub fn person(rng: &mut Rng) -> String {
    format!(
        "{} {}",
        FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
        LAST_NAMES[rng.gen_range(0..LAST_NAMES.len())]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[zipf(&mut rng, 10)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[0] > 2 * counts[9]);
    }

    #[test]
    fn tabulated_zipf_picks_the_rank_a_scan_of_the_weights_stops_at() {
        // The definition: re-sum the normaliser, then accumulate up to the
        // target — what `zipf` did per sample before it kept the sums.
        let by_scan = |rng: &mut Rng, n: usize| {
            let h: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
            let target = rng.gen_f64() * h;
            let mut acc = 0.0;
            (1..=n)
                .position(|i| {
                    acc += 1.0 / i as f64;
                    acc >= target
                })
                .unwrap_or(n - 1)
        };
        for n in [1usize, 2, 10, 40, 333, 2_666, 6_666] {
            let mut a = Rng::seed_from_u64(n as u64);
            let mut b = Rng::seed_from_u64(n as u64);
            for _ in 0..2_000 {
                assert_eq!(zipf(&mut a, n), by_scan(&mut b, n), "n = {n}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        assert_eq!(title(&mut a, 4), title(&mut b, 4));
        assert_eq!(person(&mut a), person(&mut b));
    }

    #[test]
    fn titles_have_requested_length() {
        let mut rng = Rng::seed_from_u64(1);
        let t = title(&mut rng, 5);
        assert_eq!(t.split(' ').count(), 5);
    }
}
