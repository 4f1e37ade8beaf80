//! Per-layer figures read off the public response fields
//! (`SearchResponse.stats`) of the timed requests.

use crate::metrics::{ratio, Values};
use crate::stats;
use kwdb::common::QueryStats;
use kwdb::engine::{Hit, SearchResponse};

/// Sums over the relational responses of a run.
#[derive(Debug, Default)]
pub struct RelationalAgg {
    computed: u64,
    result_hits: u64,
    wall_ns: u64,
    phase_ns: [u64; 5],
    cns_generated: u64,
    cns_evaluated: u64,
    plan_hits: u64,
    plan_misses: u64,
    tuples_scanned: u64,
    join_probes: u64,
    blocks_skipped: u64,
    hits_returned: u64,
    faceted: u64,
    facet_values: u64,
    facet_rows: u64,
}

impl RelationalAgg {
    pub fn observe(&mut self, resp: &SearchResponse<Hit>, ns: u64) {
        let s: &QueryStats = &resp.stats;
        if s.result_cache_hits == 1 {
            self.result_hits += 1;
            return;
        }
        self.computed += 1;
        self.wall_ns += ns;
        let p = &s.phases;
        for (sum, d) in self
            .phase_ns
            .iter_mut()
            .zip([p.parse, p.build, p.plan, p.evaluate, p.facets])
        {
            *sum += d.as_nanos() as u64;
        }
        self.cns_generated += s.candidates_generated;
        self.cns_evaluated += s.cns_evaluated;
        self.plan_hits += s.cache_hits;
        self.plan_misses += s.cache_misses;
        self.tuples_scanned += s.operators.tuples_scanned;
        self.join_probes += s.operators.join_probes;
        self.blocks_skipped += s.operators.blocks_skipped;
        self.hits_returned += resp.hits.len() as u64;
        if !resp.facets.is_empty() {
            self.faceted += 1;
            self.facet_values += resp
                .facets
                .iter()
                .map(|f| f.values.len() as u64)
                .sum::<u64>();
            self.facet_rows += s.operators.rows_output;
        }
    }

    pub fn result_cache_hit_ratio(&self) -> f64 {
        ratio(
            self.result_hits as f64,
            (self.result_hits + self.computed) as f64,
        )
    }

    pub fn report(&self, values: &mut Values) {
        let n = self.computed as f64;
        let names = [
            "engine.phase.parse_us",
            "engine.phase.build_us",
            "engine.phase.plan_us",
            "engine.phase.evaluate_us",
            "engine.phase.facets_us",
        ];
        for (name, ns) in names.into_iter().zip(self.phase_ns) {
            values.set(name, ratio(ns as f64 / 1e3, n));
        }
        values.set(
            "engine.phase_sum_share",
            ratio(
                self.phase_ns.iter().sum::<u64>() as f64,
                self.wall_ns as f64,
            ),
        );
        values.set(
            "engine.result_cache.hit_ratio",
            self.result_cache_hit_ratio(),
        );
        values.set(
            "engine.plan_cache.hit_ratio",
            ratio(
                self.plan_hits as f64,
                (self.plan_hits + self.plan_misses) as f64,
            ),
        );
        values.set(
            "relsearch.cn.cns_per_query",
            ratio(self.cns_generated as f64, n),
        );
        values.set(
            "relsearch.cns_evaluated_share",
            ratio(self.cns_evaluated as f64, self.cns_generated as f64),
        );
        let hits = self.hits_returned as f64;
        values.set(
            "relsearch.tuples_scanned_per_hit",
            ratio(self.tuples_scanned as f64, hits),
        );
        values.set(
            "relsearch.join_probes_per_hit",
            ratio(self.join_probes as f64, hits),
        );
        values.set("relsearch.blocks_skipped", self.blocks_skipped as f64);
        let faceted = self.faceted as f64;
        values.set(
            "relsearch.facets.values_per_query",
            ratio(self.facet_values as f64, faceted),
        );
        values.set(
            "relsearch.facets.rows_enumerated_per_query",
            ratio(self.facet_rows as f64, faceted),
        );
    }
}

/// Tail diagnostics of the parallel CN executor. Its pruning depends on
/// thread timing, so p99, max and throughput of cold relational traffic
/// swing run to run; they are reported here, not as end-to-end metrics.
pub fn pexec_tail(values: &mut Values, computed_ms: &mut [f64]) {
    if computed_ms.is_empty() {
        return;
    }
    let p50 = stats::median(computed_ms);
    let n = computed_ms.len();
    values.set(
        "relsearch.pexec.p99_ms",
        stats::percentile(computed_ms, 0.99),
    );
    values.set("relsearch.pexec.max_ms", computed_ms[n - 1]);
    values.set(
        "relsearch.pexec.jitter_share",
        computed_ms.iter().filter(|&&ms| ms > 10.0 * p50).count() as f64 / n as f64,
    );
    values.set(
        "relsearch.pexec.qps",
        ratio(n as f64, computed_ms.iter().sum::<f64>() / 1e3),
    );
}
