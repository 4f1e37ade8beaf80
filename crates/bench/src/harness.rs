//! Minimal Criterion-compatible micro-benchmark harness.
//!
//! The container builds offline, so the real `criterion` crate is not
//! available; this module re-implements the small API surface our bench
//! files use (`Criterion`, `benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `sample_size`, `b.iter`, and the
//! `criterion_group!`/`criterion_main!` macros) on top of
//! `std::time::Instant`. Each benchmark runs a short warm-up, then takes
//! `sample_size` timed samples and reports the median, mean, and minimum
//! per-iteration time. Pass a substring as the first CLI argument to run
//! only matching benchmarks.

use std::fmt;
use std::hint::black_box;
use std::time::{Duration, Instant};

const DEFAULT_SAMPLE_SIZE: usize = 30;
/// Target wall-clock spend per sample; iteration counts are calibrated so
/// one sample takes roughly this long.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(20);
const WARM_UP_TIME: Duration = Duration::from_millis(150);

/// Benchmark identifier: a function name plus a parameter rendered into the
/// reported label as `function/parameter`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new<S: Into<String>, P: fmt::Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// Top-level harness state: holds the CLI filter and prints results.
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        // First non-flag CLI argument filters benchmarks by substring
        // (mirrors `cargo bench -- <filter>`). Flags such as `--bench` that
        // cargo passes through are ignored.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion { filter }
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            c: self,
            group_name: name.to_string(),
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    fn matches(&self, full_label: &str) -> bool {
        match &self.filter {
            Some(f) => full_label.contains(f.as_str()),
            None => true,
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    group_name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (Criterion's knob of the same
    /// name; kept ≥ 2 so the median is meaningful).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn bench_function<F>(&mut self, name: impl Into<BenchLabel>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.group_name, name.into().0);
        if self.c.matches(&label) {
            run_benchmark(&label, self.sample_size, |b| routine(b));
        }
        self
    }

    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.group_name, id.label);
        if self.c.matches(&label) {
            run_benchmark(&label, self.sample_size, |b| routine(b, input));
        }
        self
    }

    /// End the group (kept for Criterion API compatibility; prints a blank
    /// separator line).
    pub fn finish(&mut self) {
        println!();
    }
}

/// Accepts both `&str` and `BenchmarkId` where Criterion does.
pub struct BenchLabel(String);

impl From<&str> for BenchLabel {
    fn from(s: &str) -> Self {
        BenchLabel(s.to_string())
    }
}

impl From<String> for BenchLabel {
    fn from(s: String) -> Self {
        BenchLabel(s)
    }
}

impl From<BenchmarkId> for BenchLabel {
    fn from(id: BenchmarkId) -> Self {
        BenchLabel(id.label)
    }
}

/// Passed to the benchmark closure; `iter` times the supplied routine.
pub struct Bencher {
    /// Iterations to run in the current timed sample.
    iters: u64,
    /// Wall-clock time of the last `iter` call.
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, mut routine: F) {
    // Warm-up: grow the iteration count until one sample costs roughly
    // TARGET_SAMPLE_TIME, also warming caches and branch predictors.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    let warm_up_start = Instant::now();
    loop {
        routine(&mut b);
        if warm_up_start.elapsed() >= WARM_UP_TIME {
            break;
        }
        let per_iter = b.elapsed.as_secs_f64() / b.iters as f64;
        if per_iter > 0.0 && b.elapsed < TARGET_SAMPLE_TIME {
            let want = TARGET_SAMPLE_TIME.as_secs_f64() / per_iter;
            b.iters = (want.ceil() as u64).clamp(b.iters, b.iters.saturating_mul(8).max(1));
        }
    }

    let mut samples: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        routine(&mut b);
        samples.push(b.elapsed.as_secs_f64() / b.iters as f64);
    }
    samples.sort_by(|a, c| a.total_cmp(c));
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples[0];
    println!(
        "  {label:<44} median {:>12}  mean {:>12}  min {:>12}  ({} samples x {} iters)",
        fmt_time(median),
        fmt_time(mean),
        fmt_time(min),
        samples.len(),
        b.iters,
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Criterion-compatible: collect benchmark functions under one name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::new();
            $( $target(&mut c); )+
        }
    };
}

/// Criterion-compatible: the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

// Re-export the macros under the harness module path so bench files can
// `use kwdb_bench::harness::{criterion_group, criterion_main, ...}` exactly
// as they previously imported from `criterion`.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_renders_function_slash_parameter() {
        let id = BenchmarkId::new("dpbf", 40);
        assert_eq!(id.label, "dpbf/40");
    }

    #[test]
    fn fmt_time_picks_unit() {
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(2e-3).ends_with(" ms"));
        assert!(fmt_time(2e-6).ends_with(" µs"));
        assert!(fmt_time(2e-9).ends_with(" ns"));
    }

    #[test]
    fn bencher_runs_and_times() {
        let mut calls = 0u64;
        let mut b = Bencher {
            iters: 5,
            elapsed: Duration::ZERO,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 5);
    }
}
