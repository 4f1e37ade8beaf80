//! Execution statistics — the cost metrics the tutorial's efficiency section
//! compares engines on (tuples scanned, join probes, results produced).

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared, thread-safe operator counters. The parallel CN executor updates
/// these from worker threads, so they are atomics rather than `Cell`s.
#[derive(Debug, Default)]
pub struct ExecStats {
    tuples_scanned: AtomicU64,
    join_probes: AtomicU64,
    joins_executed: AtomicU64,
    rows_output: AtomicU64,
    probe_rows: AtomicU64,
}

impl ExecStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_scanned(&self, n: u64) {
        self.tuples_scanned.fetch_add(n, Ordering::Relaxed);
    }
    pub fn add_probes(&self, n: u64) {
        self.join_probes.fetch_add(n, Ordering::Relaxed);
    }
    pub fn add_join(&self) {
        self.joins_executed.fetch_add(1, Ordering::Relaxed);
    }
    pub fn add_output(&self, n: u64) {
        self.rows_output.fetch_add(n, Ordering::Relaxed);
    }
    /// Rows matched by hash-join probes (probe *hits*, not attempts).
    pub fn add_probe_rows(&self, n: u64) {
        self.probe_rows.fetch_add(n, Ordering::Relaxed);
    }

    pub fn tuples_scanned(&self) -> u64 {
        self.tuples_scanned.load(Ordering::Relaxed)
    }
    pub fn join_probes(&self) -> u64 {
        self.join_probes.load(Ordering::Relaxed)
    }
    pub fn joins_executed(&self) -> u64 {
        self.joins_executed.load(Ordering::Relaxed)
    }
    pub fn rows_output(&self) -> u64 {
        self.rows_output.load(Ordering::Relaxed)
    }
    pub fn probe_rows(&self) -> u64 {
        self.probe_rows.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.tuples_scanned.store(0, Ordering::Relaxed);
        self.join_probes.store(0, Ordering::Relaxed);
        self.joins_executed.store(0, Ordering::Relaxed);
        self.rows_output.store(0, Ordering::Relaxed);
        self.probe_rows.store(0, Ordering::Relaxed);
    }

    /// Snapshot as a plain struct for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            tuples_scanned: self.tuples_scanned(),
            join_probes: self.join_probes(),
            joins_executed: self.joins_executed(),
            rows_output: self.rows_output(),
            probe_rows: self.probe_rows(),
        }
    }
}

/// A point-in-time copy of [`ExecStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub tuples_scanned: u64,
    pub join_probes: u64,
    pub joins_executed: u64,
    pub rows_output: u64,
    pub probe_rows: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = ExecStats::new();
        s.add_scanned(5);
        s.add_scanned(3);
        s.add_probes(2);
        s.add_join();
        s.add_output(7);
        s.add_probe_rows(4);
        let snap = s.snapshot();
        assert_eq!(snap.tuples_scanned, 8);
        assert_eq!(snap.join_probes, 2);
        assert_eq!(snap.joins_executed, 1);
        assert_eq!(snap.rows_output, 7);
        assert_eq!(snap.probe_rows, 4);
    }

    #[test]
    fn reset_zeroes() {
        let s = ExecStats::new();
        s.add_scanned(5);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
