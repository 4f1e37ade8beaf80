//! Execution statistics — the cost metrics the tutorial's efficiency section
//! compares engines on (tuples scanned, join probes, results produced).

use std::cell::Cell;

/// Operator counters of one query, which runs on one thread: the operators
/// it calls add to them through a shared reference.
#[derive(Debug, Default)]
pub struct ExecStats {
    tuples_scanned: Cell<u64>,
    join_probes: Cell<u64>,
    joins_executed: Cell<u64>,
    rows_output: Cell<u64>,
    probe_rows: Cell<u64>,
}

impl ExecStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_scanned(&self, n: u64) {
        self.tuples_scanned.set(self.tuples_scanned.get() + n);
    }
    pub fn add_probes(&self, n: u64) {
        self.join_probes.set(self.join_probes.get() + n);
    }
    pub fn add_join(&self) {
        self.joins_executed.set(self.joins_executed.get() + 1);
    }
    pub fn add_output(&self, n: u64) {
        self.rows_output.set(self.rows_output.get() + n);
    }
    /// Rows matched by hash-join probes (probe *hits*, not attempts).
    pub fn add_probe_rows(&self, n: u64) {
        self.probe_rows.set(self.probe_rows.get() + n);
    }

    pub fn tuples_scanned(&self) -> u64 {
        self.tuples_scanned.get()
    }
    pub fn join_probes(&self) -> u64 {
        self.join_probes.get()
    }
    pub fn joins_executed(&self) -> u64 {
        self.joins_executed.get()
    }
    pub fn rows_output(&self) -> u64 {
        self.rows_output.get()
    }
    pub fn probe_rows(&self) -> u64 {
        self.probe_rows.get()
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
}
