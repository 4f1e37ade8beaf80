//! Log-linear histograms with atomic recording and quantile extraction.
//!
//! The bucket layout is HDR-style log-linear: values below 16 get exact
//! buckets; every power-of-two octave above that is split into 16 linear
//! sub-buckets, so the relative quantization error is bounded by 1/16
//! (6.25%) across the whole `u64` range. Recording is a single atomic
//! increment on the bucket plus count/sum/max updates — safe to call from
//! any number of threads with no locking, which is what lets every engine
//! worker record into one shared registry on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per octave (16 ⇒ ≤ 6.25% relative error).
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64`:
/// 16 exact buckets + 60 octaves × 16 sub-buckets.
pub const N_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Bucket index for a value (log-linear).
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ SUB_BITS
    let group = (msb - SUB_BITS + 1) as u64;
    let offset = (v >> (msb - SUB_BITS)) & (SUB - 1);
    (group * SUB + offset) as usize
}

/// Inclusive upper bound of a bucket — the value reported for quantiles
/// falling in it (so quantiles never under-report).
fn bucket_upper(index: usize) -> u64 {
    let i = index as u64;
    if i < SUB {
        return i;
    }
    let group = i / SUB;
    let offset = i % SUB;
    let low = (SUB + offset) << (group - 1);
    let width = 1u64 << (group - 1);
    // parenthesized so the top octave (low + width == 2^64) cannot overflow
    low + (width - 1)
}

/// A thread-safe log-linear histogram of `u64` observations.
///
/// Suitable for latencies (record nanoseconds via
/// [`Histogram::record_duration`]) and work counters alike.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // A zero adds nothing and a value below the maximum raises nothing:
        // skip the locked operation for both (the phases a result-cache hit
        // never entered record zeros).
        if v != 0 {
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for export: bucket counts are read one by
    /// one, so a snapshot taken while writers are active may be off by the
    /// writes that raced it, never torn within one bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        let count = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum(),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Quantile `q` in `[0, 1]` of everything recorded so far — what
    /// [`snapshot`](Self::snapshot)`().quantile(q)` reports, read straight
    /// off the atomics with no allocation. The walk starts at the bucket of
    /// the recorded maximum and goes down, so a high quantile of a
    /// long-tailed latency distribution visits only the tail's buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let max = self.max.load(Ordering::Relaxed);
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        // The bucket holding the rank-th smallest observation is the first,
        // coming down from the top, at which more than `count - rank`
        // observations have been passed.
        let mut above = 0u64;
        for i in (0..=bucket_index(max)).rev() {
            above += self.buckets[i].load(Ordering::Relaxed);
            if above > count - rank {
                return bucket_upper(i).min(max);
            }
        }
        // Only reachable while writers race the walk: `count` ran ahead of
        // the bucket increments it summarizes.
        0
    }
}

/// An immutable copy of a histogram's state: sparse `(bucket index, count)`
/// pairs plus count/sum/max. Snapshots merge associatively, so per-worker
/// histograms can be combined in any grouping order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(bucket index, count)`, ascending by index.
    pub buckets: Vec<(usize, u64)>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistogramSnapshot {
    /// Fold `other` into `self`: bucket counts, count and sum add; max takes
    /// the maximum. `(a ∪ b) ∪ c == a ∪ (b ∪ c)` — tested.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(ia, na)), Some(&(ib, nb))) => match ia.cmp(&ib) {
                    std::cmp::Ordering::Less => {
                        merged.push((ia, na));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((ib, nb));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((ia, na + nb));
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(ia, na)), None) => {
                    merged.push((ia, na));
                    i += 1;
                }
                (None, Some(&(ib, nb))) => {
                    merged.push((ib, nb));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Quantile `q` in `[0, 1]`: the upper bound of the bucket holding the
    /// `⌈q·count⌉`-th smallest observation (clamped to the recorded max, so
    /// a p99 can never exceed the largest value actually seen).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Cumulative `(inclusive upper bound, count ≤ bound)` pairs over the
    /// non-empty buckets — the shape Prometheus histogram exposition wants.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|&(i, n)| {
                acc += n;
                (bucket_upper(i), acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_common::Rng;
    use std::sync::Arc;

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.sum, (0..16).sum::<u64>());
        for v in 0..16u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // every value maps into a bucket whose range contains it, and the
        // relative error of the upper bound is ≤ 1/16
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..10_000 {
            let v = rng.next_u64() >> (rng.gen_index(60) as u32);
            let i = bucket_index(v);
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper {upper} < value {v}");
            let err = (upper - v) as f64 / (v.max(1)) as f64;
            assert!(err <= 1.0 / 16.0 + 1e-9, "error {err} for value {v}");
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = Rng::seed_from_u64(7);
        let mk = |rng: &mut Rng| {
            let h = Histogram::new();
            for _ in 0..rng.gen_range(1usize..500) {
                h.record(rng.next_u64() >> rng.gen_index(64) as u32);
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));

        // (a ∪ b) ∪ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ∪ (b ∪ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // b ∪ a == a ∪ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.count, a.count + b.count);
        assert_eq!(ab.sum, a.sum + b.sum);
    }

    #[test]
    fn quantiles_bound_error_on_uniform_distribution() {
        let mut rng = Rng::seed_from_u64(42);
        let h = Histogram::new();
        let n = 100_000u64;
        for _ in 0..n {
            h.record(rng.gen_range(1u64..=1_000_000));
        }
        let s = h.snapshot();
        assert_eq!(s.count, n);
        // uniform on [1, 1e6]: true quantile q is ≈ q·1e6; log-linear
        // buckets guarantee ≤ 1/16 relative quantization error, and the
        // sample itself adds a little noise — allow 10% total
        for (q, truth) in [(0.50, 500_000.0), (0.90, 900_000.0), (0.99, 990_000.0)] {
            let got = s.quantile(q) as f64;
            let rel = (got - truth).abs() / truth;
            assert!(rel < 0.10, "q={q}: got {got}, want ≈{truth} (rel {rel:.3})");
        }
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        assert!(s.p99() <= s.max);
    }

    #[test]
    fn quantiles_on_exponential_like_distribution() {
        // two-point mass: 90% at 10, 10% at 10_000 — p50 must sit on the
        // low mode, p99 on the high one
        let h = Histogram::new();
        for _ in 0..9000 {
            h.record(10);
        }
        for _ in 0..1000 {
            h.record(10_000);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 10);
        assert_eq!(s.quantile(0.90), 10);
        let p99 = s.p99() as f64;
        assert!((p99 - 10_000.0).abs() / 10_000.0 <= 1.0 / 16.0 + 1e-9);
    }

    #[test]
    fn atomic_quantile_walk_equals_the_snapshot_quantile() {
        let qs = [0.0, 0.5, 0.9, 0.99, 1.0];
        let same = |h: &Histogram, what: &str| {
            let snap = h.snapshot();
            for q in qs {
                assert_eq!(h.quantile(q), snap.quantile(q), "{what}: q={q}");
            }
        };
        let h = Histogram::new();
        same(&h, "empty");
        h.record(4_321);
        same(&h, "single sample");
        let zero = Histogram::new();
        zero.record(0);
        same(&zero, "a single zero");
        let mut rng = Rng::seed_from_u64(19);
        for round in 0..20 {
            let h = Histogram::new();
            for _ in 0..rng.gen_range(1usize..2_000) {
                // latencies-like: spread over many octaves, heavy low end
                h.record(rng.next_u64() >> (24 + rng.gen_index(40) as u32));
            }
            same(&h, &format!("seeded round {round}"));
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // 8 threads × 20_000 records into one histogram, mirroring the
        // dispatcher worker pool in tests/concurrency.rs: the totals must be
        // exact (atomics, not racy read-modify-write).
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 20_000u64;
        let expected_sum: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let h = Arc::clone(&h);
                    scope.spawn(move || {
                        let mut rng = Rng::seed_from_u64(t as u64);
                        let mut local_sum = 0u64;
                        for _ in 0..per_thread {
                            let v = rng.gen_range(0u64..1_000_000);
                            h.record(v);
                            local_sum += v;
                        }
                        local_sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads as u64 * per_thread);
        assert_eq!(s.sum, expected_sum);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), s.count);
    }
}
