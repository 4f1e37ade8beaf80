//! The engine's CN executor — the one top-k path `RelationalEngine` runs,
//! for either score model.
//!
//! This is DISCOVER2's Sparse (tutorial slide 116) under one bound: one
//! keyword query's candidate networks go into **one list**, best upper bound
//! first, evaluated in that order on the calling thread against a single
//! top-k collector ([`kwdb_common::topk::TopK`]). A CN is skipped once
//! its bound cannot beat the k-th best. Slide 117 presents SPARK as the same
//! loop with another bound and another final score, and that is all
//! [`Scoring`] changes here. The tutorial's slide-116 strategies in
//! [`crate::topk`] and the slide-117 sweeps in [`crate::spark`] are the
//! serial references this executor is checked against, not alternatives the
//! engine chooses between. One query runs on one thread: concurrency is
//! across requests, in the dispatcher. (The tutorial's parallel CN
//! computation, slides 130–133, is simulated in [`crate::parallel`].)
//!
//! The executor evaluates whole CNs: the join follows the database's FK
//! index — every foreign key already resolved to a row id, in both
//! directions, each step holding its edge's arrays ([`FkEdge`]) — and
//! leaves its output in the flat buffers of an [`EvalScratch`] instead of
//! allocating row vectors per CN. A single-node CN
//! is a CN like any other: its result set is the tuple set the query
//! already built. A step that places a keyword node on the referenced side
//! of its edge has at most one partner per tuple; when its parent was
//! placed by the step just before it, it runs inside that step, as a test
//! on each row that step emits, so a row it drops is never copied into the
//! next intermediate (`join_cn`).
//!
//! # Scoring
//!
//! The query's [`ScoreTable`] holds each keyword's weight per small term
//! frequency and one column per tuple set over the frequencies the tuple
//! sets kept from the postings: each column's exact maximum, found when the
//! table is built, and each row's entry, its weights summed where it is
//! read. A CN's upper bound is its keyword nodes' column maxima over its
//! size; a joined row is summed where it lies in the scratch buffer — over
//! the CN's keyword nodes, in node order, the column entry at the node's
//! row position (the row array the tuple-set build wrote and the sets
//! keep gives it), over the size; a free node's tuple scores 0. So only
//! rows a join reached are scored.
//!
//! Under [`Scoring::Monotone`] nothing reads a tuple's text: that sum *is*
//! the row's score, and the row becomes a [`JoinedResult`] only if the
//! top-k would accept it. The value is the text-derived reference's, bit for
//! bit (see [`crate::score`]); debug builds assert it on every column entry
//! read and, for the sum, on every scored row.
//!
//! Under [`Scoring::Spark`] the columns hold `watf` and the sum is the row's
//! *upper bound*. A row whose bound the top-k would reject is skipped;
//! one that passes is scored exactly with
//! [`ResultScorer::spark_score`](crate::score::ResultScorer::spark_score) —
//! the one place this executor tokenizes tuples — and offered with that
//! score (debug builds assert `exact ≤ bound`).
//!
//! # Refinements and facets
//!
//! A drill-down refinement is evaluated as part of the CN, not as a filter
//! on its output: each CN becomes the disjoint restricted cases of
//! [`crate::facets::restrictions`], joined one after another under the CN's
//! one bound and one budget ticket, each node's literals tested on the rows
//! a join step placed at it; a CN the refinements leave no case of is never
//! considered. Facet counts are not this module's business:
//! [`crate::facets::count_facets`] derives them from the CN trees without a
//! join, so a faceted request goes through this loop — bound order, prune,
//! abandon — exactly as a plain one does.
//!
//! # Determinism
//!
//! The executor returns the *exact* top-k of the full result multiset,
//! because (a) every bound is monotone — a CN's bound dominates its rows'
//! and, for SPARK, a row's bound dominates its score — and a CN or row is
//! skipped only when its bound is strictly below the k-th best held so far,
//! so it provably cannot contribute; and (b) the collector orders ties by
//! result content, not arrival. Everything else it reports — hits, score
//! bits, truncation verdict, `cns_evaluated` / `cns_pruned` and the
//! operator counters — is a function of the request and the data: the CNs
//! are visited in one fixed order, and a refined CN whose earlier cases
//! raised the bound past its own is abandoned at the same join step or
//! scoring checkpoint on every run. Under a candidate cap of `c` the
//! position in the list *is* the budget ticket, so the CNs considered are
//! exactly the `c` best-bound ones. A deadline cuts wherever the clock says,
//! as in any anytime algorithm.

use crate::cn::CandidateNetwork;
use crate::eval::JoinedResult;
use crate::facets::{
    admits, count_facets, restrictions, CountScratch, FacetRequest, FacetTally, Literal,
    ResolvedRefinement, Restriction,
};
use crate::parallel::{join_plan, JoinPlan};
use crate::score::{ScoreTable, Scoring};
use crate::topk::{CnExecOutcome, RankedResult, TopKQuery};
use crate::tupleset::{position, BuildBuffers, TupleSets, NIL};
use kwdb_common::topk::TopK;
use kwdb_common::{Budget, ScratchPool, TruncationReason};
use kwdb_relational::{Database, ExecStats, FkEdge, RowId, Table, TupleId};
use std::ops::Deref;
use std::time::Instant;

/// Reusable query buffers, checked out of a [`ScratchPool`] once per query
/// (an engine serving concurrent requests keeps one per thread) and passed
/// through the tuple-set build, the facet count and the executor. Nothing
/// in it outlives one query but the allocated capacity — and the lengths of
/// `group_head`, every entry `NIL`, and of `counts`' arrays and the pooled
/// row array, every entry 0 (unmatched).
#[derive(Default)]
pub struct EvalScratch {
    join: JoinBuffers,
    /// The tuple-set build's: the row array between queries
    /// ([`TupleSets::build_with`] takes it, [`TupleSets::recycle`] hands it
    /// back) and its compaction buffers.
    pub(crate) build: BuildBuffers,
    /// [`count_facets`]' message buffers, pooled with the join's.
    pub(crate) counts: CountScratch,
}

/// The join's own buffers.
#[derive(Default)]
struct JoinBuffers {
    /// Flat ping-pong intermediates: `cur` holds the joined prefix as
    /// `stride`-sized chunks of `RowId`s, `next` receives the join output.
    cur: Vec<RowId>,
    next: Vec<RowId>,
    /// The intermediate grouped by parent row id, for the one join step
    /// that probes it: `group_head[row]` is the first intermediate tuple
    /// whose parent is `row`, `group_next[t]` the tuple after `t` with the
    /// same parent. `group_head` covers the largest table grouped so far
    /// and is all `NIL` between steps: a step resets the entries it set.
    group_head: Vec<u32>,
    group_next: Vec<u32>,
}

/// Most forward steps folded into one step: longer runs fold in pieces.
const FOLD_MAX: usize = 4;

impl EvalScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Write the joined row `chunk` (plan order) into `tuples` in the CN's node
/// order — the alignment [`JoinedResult`] promises.
fn fill_tuples(cn: &CandidateNetwork, plan: &JoinPlan, chunk: &[RowId], tuples: &mut Vec<TupleId>) {
    tuples.clear();
    tuples.resize(chunk.len(), TupleId::new(cn.nodes[0].table, RowId(0)));
    for (&node, &row) in plan.order.iter().zip(chunk) {
        tuples[node] = TupleId::new(cn.nodes[node].table, row);
    }
}

/// Join `cn` over its default row sets into `join` and return the joined
/// rows where they lie: one chunk of `cn.nodes.len()` row ids per result,
/// in `plan.order` (not node order). The result *set* is
/// [`crate::eval::evaluate_cn`]'s, less the rows `case` rejects: a node's
/// literals are tested on each row a step places at it (the root's rows
/// included), so a refined join never carries a row its refinement would
/// drop from the output past the step that met it.
///
/// `cancel` is polled before each step that runs a loop of its own, and once
/// more at the end. When it is true the evaluation stops and returns no
/// rows — the executor uses this to abandon a refined CN's later case once
/// the rows of its earlier cases have raised the top-k bound strictly past
/// the CN's upper bound (every result it could still produce would be
/// rejected, so dropping them cannot change the final top-k). Nothing
/// raises the bound while the join runs, so its answer is the same at every
/// poll: no step is interrupted for it, and a step folded into another
/// (below) would have passed the poll it skips.
///
/// `deadline` is read once every [`POLL_ROWS`] rows the steps scan or emit;
/// with none, that poll is one branch per row. Once it has passed the join
/// stops where it is — a grouping step still resets its arrays — and
/// returns `None`: the executor keeps the top-k it holds and marks the
/// answer truncated. So a join overruns a deadline by at most one poll
/// quantum of rows.
///
/// The join follows `plan`, the CN's [`join_plan`]: from the keyword node
/// estimated cheapest to start at, most selective neighbour first. No step
/// reads a column value: every foreign key was resolved to a row id when
/// the database's FK index was built or the row ingested, and the join
/// follows those, each step through the one [`FkEdge`] it resolved when the
/// join began. A free node `R^∅` is never scanned or materialized: each
/// intermediate tuple looks its partners up — [`FkEdge::referenced`] when
/// the free node is the referenced side of the edge,
/// [`FkEdge::referencing`] when it is the referencing side — and keeps
/// those that match no query keyword — unmatched in the row array `ts`
/// keeps ([`TupleSets::positions`]). A keyword node on the referenced side
/// is joined the same way, keeping the partner that is in its tuple set:
/// the one found there at the position the array gives it
/// (`set[position(r)] == r`). Either test is one load and one compare; no
/// lookup searches a set. A keyword node on
/// the referencing side has no index from the intermediate into its tuple
/// set, so on that one edge the tuple set probes the intermediate: the
/// intermediate is grouped by parent row id (two pooled `u32` arrays that
/// live for this step only — the grouping depends on this CN's prefix), and
/// each tuple-set row finds the group of the row it references, emitting
/// in tuple-set order, intermediate order within a group. The FK index
/// resolves by key *value* (see [`kwdb_relational::Database::referenced_row`]),
/// so the result set is the by-value hash join's,
/// [`crate::eval::evaluate_cn`]'s.
///
/// A *forward* step places the referenced side of its edge, so a tuple has
/// at most one partner there. The forward steps to keyword nodes that
/// directly follow a step, each off the node placed just before it, are
/// folded into it ([`Step::folds_after`]): each row it would emit looks up
/// its chain of partners at once and reaches `next` only if all of them
/// are kept. A row one of them drops is never copied; the chunks come out
/// in the separate steps' order.
///
/// [`ExecStats`] per step, folded or not, as the step alone would count:
/// for a lookup step, one `join_probes` per tuple it takes in, one
/// `tuples_scanned` per chain row a reverse lookup visits, one `probe_rows`
/// per match it keeps; for the probing step, one `tuples_scanned` per
/// intermediate tuple grouped, one `join_probes` per tuple-set row, one
/// `probe_rows` per match kept. A step counts into its [`Step`] and adds
/// to the counters when its host step ends, and only if it took a tuple
/// in — a separate step after an empty one would not have run. The totals
/// are those of the by-value joins this replaced.
#[allow(clippy::too_many_arguments)]
fn join_cn<'s>(
    db: &Database,
    cn: &CandidateNetwork,
    plan: &JoinPlan,
    case: &Restriction<'_>,
    ts: &TupleSets,
    scratch: &'s mut JoinBuffers,
    stats: &ExecStats,
    cancel: &dyn Fn() -> bool,
    deadline: Option<Instant>,
) -> Option<std::slice::Chunks<'s, RowId>> {
    let n = cn.nodes.len();
    if n == 0 {
        return Some([].chunks(1));
    }
    // Rows of a keyword node. (A free root has none: a network without a
    // keyword node covers no keyword and is not a CN.)
    let rows_of = |ni: usize| -> &[RowId] {
        let node = cn.nodes[ni];
        ts.get(node.table, node.mask).map_or(&[], |s| &s.rows)
    };
    let JoinPlan {
        order,
        join_via,
        slot,
        ..
    } = plan;
    let mut steps: Vec<Step> = (order.iter().skip(1))
        .map(|&node| {
            let edge = &cn.edges[join_via[node].expect("non-root placed via an edge")];
            let parent = if edge.a == node { edge.b } else { edge.a };
            Step {
                node,
                parent,
                pslot: slot[parent],
                edge: db.fk_edge(edge.schema_edge),
                forward: edge.from_side_is(parent),
                free: cn.nodes[node].mask == 0,
                table: db.table(cn.nodes[node].table),
                set: rows_of(node),
                map: ts.positions(cn.nodes[node].table),
                literals: case.on(node),
                probes: 0,
                scanned: 0,
                kept: 0,
            }
        })
        .collect();

    let JoinBuffers {
        cur,
        next,
        group_head: head,
        group_next: link,
    } = scratch;
    // The root's rows go into the smaller buffer: the first step's output,
    // usually the largest intermediate, then fills the one a join as large
    // has grown before (the two swap at every step).
    if cur.capacity() > next.capacity() {
        std::mem::swap(cur, next);
    }
    cur.clear();
    let first_rows = rows_of(order[0]);
    stats.add_scanned(first_rows.len() as u64);
    let (root, literals) = (db.table(cn.nodes[order[0]].table), case.on(order[0]));
    match literals {
        [] => cur.extend_from_slice(first_rows),
        _ => cur.extend(first_rows.iter().filter(|&&r| admits(root, literals, r))),
    }
    let mut stride = 1usize;

    let mut clock = Clock {
        deadline,
        rows: 0,
        late: false,
    };
    let mut cancelled = false;
    let mut at = 0;
    while at < steps.len() {
        if cur.is_empty() {
            break;
        }
        if cancel() {
            cancelled = true;
            break;
        }
        let folded = (steps[at + 1..].iter().zip(&steps[at..]))
            .take_while(|(step, before)| step.folds_after(before))
            .take(FOLD_MAX)
            .count();
        let (host, fold) = steps[at..=at + folded].split_first_mut().expect("a step");
        let ntuples = cur.len() / stride;
        next.clear();
        // A row the host keeps goes on — with the rows the folded steps
        // reach from it — only if every folded step kept one.
        let mut chain = [RowId(0); FOLD_MAX];
        let mut emit = |tuple: &[RowId], r: RowId, fold: &mut [Step]| {
            if follow(r, fold, &mut chain) {
                next.extend_from_slice(tuple);
                next.push(r);
                chain[..fold.len()].iter().for_each(|&p| next.push(p));
            }
        };

        if host.free || host.forward {
            // Each intermediate tuple looks its partners up and keeps those
            // in the node's row set — for a free node the rows the map has
            // in no tuple set.
            'scan: for tuple in cur.chunks_exact(stride) {
                if clock.tick() {
                    break;
                }
                host.probes += 1;
                let parent = tuple[host.pslot];
                if host.forward {
                    // (a NULL foreign key references no row)
                    let partner = host.edge.referenced(parent);
                    if let Some(r) = partner.filter(|&r| host.keeps(r)) {
                        host.kept += 1;
                        emit(tuple, r, fold);
                    }
                } else {
                    for r in host.edge.referencing(parent) {
                        if clock.tick() {
                            break 'scan;
                        }
                        host.scanned += 1;
                        if host.keeps(r) {
                            host.kept += 1;
                            emit(tuple, r, fold);
                        }
                    }
                }
            }
        } else {
            // A keyword node on the referencing side: group the
            // intermediate by parent row, probe with the node's tuple set.
            let parent_len = db.table(cn.nodes[host.parent].table).len();
            if head.len() < parent_len {
                head.resize(parent_len, NIL);
            }
            assert!(ntuples < NIL as usize, "intermediate outgrew u32 tuple ids");
            link.clear();
            link.resize(ntuples, NIL);
            // Last tuple first, so a group reads in intermediate order.
            for t in (0..ntuples).rev() {
                let p = cur[t * stride + host.pslot].0 as usize;
                link[t] = std::mem::replace(&mut head[p], t as u32);
            }
            host.scanned += ntuples as u64;
            'probe: for &r in host.set {
                if clock.tick() {
                    break;
                }
                host.probes += 1;
                let Some(p) = host.edge.referenced(r) else {
                    continue;
                };
                let mut t = head[p.0 as usize];
                if t == NIL || !admits(host.table, host.literals, r) {
                    continue;
                }
                while t != NIL {
                    if clock.tick() {
                        break 'probe;
                    }
                    let at = t as usize * stride;
                    host.kept += 1;
                    emit(&cur[at..at + stride], r, fold);
                    t = link[t as usize];
                }
            }
            for t in 0..ntuples {
                head[cur[t * stride + host.pslot].0 as usize] = NIL;
            }
        }
        // (each row a step keeps is one tuple the next folded step takes in)
        let mut probes = host.kept;
        for step in fold.iter_mut() {
            (step.probes, probes) = (probes, step.kept);
        }
        for step in std::iter::once(host).chain(fold).filter(|s| s.probes > 0) {
            stats.add_join();
            stats.add_probes(step.probes);
            stats.add_scanned(step.scanned);
            stats.add_probe_rows(step.kept);
            stats.add_output(step.kept);
        }
        if clock.late {
            return None;
        }
        std::mem::swap(cur, next);
        stride += 1 + folded;
        at += 1 + folded;
    }

    if cancelled || stride < n || cancel() {
        cur.clear(); // abandoned, or a join emptied out before all nodes were placed
    }
    Some(scratch.cur.chunks(n))
}

/// Rows a join step scans or emits between two reads of the clock: a power
/// of two, so the poll is a mask test.
const POLL_ROWS: u32 = 4096;

/// A join's deadline poll ([`join_cn`]), counting rows across its steps.
struct Clock {
    deadline: Option<Instant>,
    rows: u32,
    late: bool,
}

impl Clock {
    /// Count one row, and read the clock on every [`POLL_ROWS`]-th: whether
    /// the deadline has passed. Without a deadline, one branch.
    #[inline]
    fn tick(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        self.rows = self.rows.wrapping_add(1);
        self.late = self.rows.is_multiple_of(POLL_ROWS) && Instant::now() >= deadline;
        self.late
    }
}

/// Run the forward steps `fold` from `r`, each off the row the one before
/// reached, into `chain`: whether every step kept a row.
fn follow(r: RowId, fold: &mut [Step], chain: &mut [RowId; FOLD_MAX]) -> bool {
    let mut prev = r;
    for (step, row) in fold.iter_mut().zip(chain) {
        match step.edge.referenced(prev) {
            Some(p) if step.keeps(p) => (step.kept, *row, prev) = (step.kept + 1, p, p),
            _ => return false,
        }
    }
    true
}

/// One join step of a CN: `node` placed through schema edge `edge` off
/// `parent`, which sits at `pslot` of the intermediate; `forward` when
/// `node` is the edge's referenced side. The counts are the step's own.
struct Step<'a> {
    node: usize,
    parent: usize,
    pslot: usize,
    edge: FkEdge<'a>,
    forward: bool,
    free: bool,
    /// The node's table, for its literals.
    table: &'a Table,
    /// The node's tuple set (none for a free node) and its table's entries
    /// of the row array.
    set: &'a [RowId],
    map: &'a [u32],
    literals: &'a [Literal<'a>],
    probes: u64,
    scanned: u64,
    kept: u64,
}

impl Step<'_> {
    /// Whether this step runs inside `before`, the step just before it: a
    /// forward step to a keyword node, off the node `before` placed. (A
    /// forward step to a free node keeps nearly every row it takes in —
    /// few referenced rows match a keyword — so folding it saves next to
    /// no copying, and it slowed the heaviest joins.)
    fn folds_after(&self, before: &Step) -> bool {
        self.forward && !self.free && self.parent == before.node
    }

    /// Whether a row the step reaches belongs at its node: in its tuple
    /// set (a free node: in none) and admitted by its literals.
    #[inline]
    fn keeps(&self, r: RowId) -> bool {
        let at = position(self.map, r);
        let member = if self.free {
            at == NIL
        } else {
            self.set.get(at as usize) == Some(&r)
        };
        member && (self.literals.is_empty() || admits(self.table, self.literals, r))
    }
}

/// [`evaluate`] under [`Scoring::Monotone`] on a scratch checked out of
/// `pool`; `workers` is ignored. Kept only for `benchmark/`, deleted by
/// ROADMAP 1(a).
pub fn parallel_topk_budgeted<S, D>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    stats: &ExecStats,
    budget: &Budget,
    _workers: usize,
    pool: &ScratchPool<EvalScratch>,
) -> CnExecOutcome
where
    S: AsRef<str>,
    D: Deref<Target = Database>,
{
    let scratch = &mut pool.checkout(EvalScratch::new);
    evaluate(q, k, Scoring::Monotone, stats, budget, scratch, &[])
}

/// [`count_facets`], then [`parallel_topk_budgeted`] restricted by
/// `freq.refinements`, on one scratch checked out of `pool`. Kept only for
/// `benchmark/`, deleted by ROADMAP 1(a).
pub fn parallel_topk_faceted<'a, S, D>(
    q: &TopKQuery<'a, S, D>,
    k: usize,
    stats: &ExecStats,
    budget: &Budget,
    _workers: usize,
    pool: &ScratchPool<EvalScratch>,
    freq: &FacetRequest<'_>,
) -> (CnExecOutcome, FacetTally<'a>)
where
    S: AsRef<str>,
    D: Deref<Target = Database>,
{
    let scratch = &mut pool.checkout(EvalScratch::new);
    let tally = count_facets(q.db, q.ts, q.cns, freq, budget, stats, scratch);
    let model = Scoring::Monotone;
    let outcome = evaluate(q, k, model, stats, budget, scratch, freq.refinements);
    (outcome, tally)
}

/// A joined row as the top-k holds it, ordered by CN and then tuples (the
/// content tie-break). Cloned into an evicted entry, it reuses that
/// entry's tuple buffer.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Found {
    cn: usize,
    result: JoinedResult,
}

impl Clone for Found {
    fn clone(&self) -> Self {
        Found {
            cn: self.cn,
            result: self.result.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cn = source.cn;
        self.result.tuples.clone_from(&source.result.tuples);
    }
}

/// The executor under either score `model`, with every CN restricted by
/// `refinements` ([`restrictions`]; a CN they leave no case of is never
/// considered and counts as pruned): a CN the bound does not prune gets
/// its [`JoinPlan`], which drives its join. This is the executor's one
/// entry point; it finds rows by the positions `q.ts`'s build wrote, and
/// joins in `scratch`'s buffers.
pub fn evaluate<S, D>(
    q: &TopKQuery<'_, S, D>,
    k: usize,
    model: Scoring,
    stats: &ExecStats,
    budget: &Budget,
    scratch: &mut EvalScratch,
    refinements: &[ResolvedRefinement],
) -> CnExecOutcome
where
    S: AsRef<str>,
    D: Deref<Target = Database>,
{
    let n = q.cns.len();
    if n == 0 {
        return CnExecOutcome {
            results: Vec::new(),
            truncation: budget.truncation(),
            cns_evaluated: 0,
            cns_pruned: 0,
        };
    }
    // Every tuple set's column, from the frequencies the sets carry. A CN's
    // upper bound takes each keyword node's best; free nodes add nothing.
    let scores = ScoreTable::new(q.ts, q.scorer, q.keywords, model);
    let bounds: Vec<f64> = q
        .cns
        .iter()
        .map(|cn| {
            let sum: f64 = (cn.nodes.iter().filter(|node| node.mask != 0))
                .filter_map(|node| scores.column(node.table, node.mask))
                .map(|column| column.best())
                .sum();
            sum / cn.size() as f64
        })
        .collect();

    // A refined CN is evaluated case by case; unrefined, every CN is its
    // one unrestricted case.
    let unrestricted = [Restriction::default()];
    let cases: Vec<Vec<Restriction<'_>>> = match refinements {
        [] => Vec::new(),
        refinements => (q.cns.iter())
            .map(|cn| restrictions(cn, refinements))
            .collect(),
    };
    let cases_of = |j: usize| cases.get(j).map_or(&unrestricted[..], |c| c);

    // Best bound first, so the threshold rises as early as possible and a
    // candidate cap keeps the most promising CNs.
    let mut jobs: Vec<usize> = (0..n).filter(|&j| !cases_of(j).is_empty()).collect();
    jobs.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));

    let mut top: TopK<Found> = TopK::new(k);
    let mut truncation = None;
    let mut evaluated = 0u64;
    // Scoring by text and the top-k read a result as tuples: one buffer,
    // refilled per joined row, copied only into an entry the top-k keeps.
    let mut probe = Found {
        cn: 0,
        result: JoinedResult { tuples: Vec::new() },
    };
    let join = &mut scratch.join;
    let deadline = budget.deadline();
    // Per keyword node of the CN in hand, in node order: where its row sits
    // in a joined chunk, its tuple set's score column and its table's
    // entries of the row array.
    let mut columns = Vec::new();
    'cns: for (pos, &j) in jobs.iter().enumerate() {
        if let Some(reason) = budget.truncation_at(pos as u64) {
            truncation = Some(reason);
            break;
        }
        if !top.would_accept(bounds[j]) {
            continue; // strictly below the k-th best: pruned
        }
        let cn = &q.cns[j];
        let plan = join_plan(q.db, q.ts, cn);
        evaluated += 1;
        probe.cn = j;
        columns.clear();
        columns.extend(
            (cn.nodes.iter().zip(&plan.slot)).filter_map(|(node, &slot)| {
                let column = scores.column(node.table, node.mask)?;
                Some((slot, column, q.ts.positions(node.table)))
            }),
        );
        for case in cases_of(j) {
            // Abandon — before a join step, or mid-way through scoring what
            // it produced — once this CN's own rows have raised the
            // threshold past its bound: everything it could still offer
            // would be rejected.
            let outbid = || !top.would_accept(bounds[j]);
            let joined = join_cn(q.db, cn, &plan, case, q.ts, join, stats, &outbid, deadline);
            // A deadline that passed mid-join, or mid-way through scoring
            // its rows, cuts the query as one between CNs does: the top-k
            // held so far is the answer.
            let Some(joined) = joined else {
                truncation = Some(TruncationReason::DeadlineExceeded);
                break 'cns;
            };
            for (i, chunk) in joined.enumerate() {
                if i % 256 == 255 {
                    if !top.would_accept(bounds[j]) {
                        break;
                    }
                    if let Some(reason) = budget.truncation() {
                        truncation = Some(reason);
                        break 'cns;
                    }
                }
                // Column entries read at the rows' positions and summed
                // in node order over CN size: the DISCOVER2 score, or the
                // SPARK bound. The text-derived reference also adds a free
                // node's `+0.0`, which changes no sum that holds a keyword
                // node's positive entry, so the two agree bitwise.
                let sum: f64 = (columns.iter())
                    .map(|&(slot, column, map)| column.score(position(map, chunk[slot]) as usize))
                    .sum();
                let mut score = sum / chunk.len() as f64;
                match model {
                    Scoring::Monotone => debug_assert_eq!(score.to_bits(), {
                        fill_tuples(cn, &plan, chunk, &mut probe.result.tuples);
                        q.scorer.monotone_score(&probe.result, q.keywords).to_bits()
                    }),
                    Scoring::Spark => {
                        if !top.would_accept(score) {
                            continue; // even its bound is below the k-th best
                        }
                        fill_tuples(cn, &plan, chunk, &mut probe.result.tuples);
                        let exact = q.scorer.spark_score(&probe.result, q.keywords);
                        debug_assert!(exact <= score, "watf bound {score} < score {exact}");
                        score = exact;
                    }
                }
                if top.would_accept(score) {
                    fill_tuples(cn, &plan, chunk, &mut probe.result.tuples);
                    top.push_cloned(score, &probe);
                }
            }
        }
    }

    let results = top
        .into_sorted_vec()
        .into_iter()
        .map(|(score, Found { cn, result })| RankedResult {
            cn_index: cn,
            result,
            score,
        })
        .collect();
    CnExecOutcome {
        results,
        truncation,
        cns_evaluated: evaluated,
        cns_pruned: n as u64 - evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cn::{CnGenConfig, CnGenerator, MaskOracle};
    use crate::eval::evaluate_cn;
    use crate::score::ResultScorer;
    use crate::topk::global_pipeline;
    use kwdb_common::Value;
    use kwdb_relational::database::dblp_schema;

    fn db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("conference", vec![2.into(), "VLDB".into(), 2008.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "Serge Abiteboul".into()])
            .unwrap();
        db.insert("author", vec![3.into(), "Widom Junior".into()])
            .unwrap();
        for (pid, title, cid) in [
            (10, "XML keyword search", 1),
            (11, "Data on the Web", 1),
            (12, "Streams and XML", 2),
            (13, "Query optimization", 2),
        ] {
            db.insert("paper", vec![pid.into(), title.into(), cid.into()])
                .unwrap();
        }
        for (wid, aid, pid) in [(100, 1, 10), (101, 2, 11), (102, 1, 12), (103, 3, 13)] {
            db.insert("write", vec![wid.into(), aid.into(), pid.into()])
                .unwrap();
        }
        db.build_text_index();
        db
    }

    /// Evaluate `cn` fully over its default row sets: the join the
    /// executor scores in place, materialized.
    fn materialize(
        db: &Database,
        cn: &CandidateNetwork,
        ts: &TupleSets,
        scratch: &mut EvalScratch,
        stats: &ExecStats,
    ) -> Vec<JoinedResult> {
        materialize_case(db, cn, &Restriction::default(), ts, scratch, stats)
    }

    /// [`materialize`] restricted to `case`.
    fn materialize_case(
        db: &Database,
        cn: &CandidateNetwork,
        case: &Restriction<'_>,
        ts: &TupleSets,
        scratch: &mut EvalScratch,
        stats: &ExecStats,
    ) -> Vec<JoinedResult> {
        let plan = join_plan(db, ts, cn);
        let join = &mut scratch.join;
        join_cn(db, cn, &plan, case, ts, join, stats, &|| false, None)
            .expect("no deadline")
            .map(|chunk| {
                let mut tuples = Vec::new();
                fill_tuples(cn, &plan, chunk, &mut tuples);
                JoinedResult { tuples }
            })
            .collect()
    }

    fn setup(db: &Database, keywords: &[&str]) -> (TupleSets, Vec<CandidateNetwork>) {
        let ts = TupleSets::build(db, keywords).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let mut generator = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: 5,
                dedupe: true,
                max_cns: 0,
            },
        );
        (ts, generator.generate())
    }

    #[test]
    fn pooled_eval_matches_plain_eval_as_sets() {
        let db = db();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        assert!(!cns.is_empty());
        let mut scratch = EvalScratch::new();
        for cn in &cns {
            let stats = ExecStats::new();
            let mut plain = evaluate_cn(&db, cn, &ts, &stats);
            let mut pooled = materialize(&db, cn, &ts, &mut scratch, &stats);
            plain.sort();
            pooled.sort();
            assert_eq!(plain, pooled, "pooled evaluator diverged on a CN");
        }
    }

    /// `[tuples_scanned, join_probes, joins_executed, rows_output,
    /// probe_rows]` of every CN of three queries on the fixture plus a NULL
    /// `write.aid` and a NULL `paper.cid`, as counted by the by-value joins
    /// this executor had before it joined by row id (`lookup_pk` per forward
    /// hop, a `HashMap<&Value, _>` per referencing-side keyword node).
    const GOLDEN_STATS: &[(&str, [u64; 5])] = &[
        ("author^{widom}⋈(write⋈(paper^{xml}))", [5, 5, 2, 5, 5]),
        (
            "author^{widom}⋈(write⋈(paper⋈(conference⋈(paper^{xml}))))",
            [6, 9, 4, 6, 6],
        ),
        (
            "author^{widom}⋈(write⋈(paper⋈(cite⋈(paper^{xml}))))",
            [3, 3, 1, 0, 0],
        ),
        (
            "author^{widom}⋈(write⋈(paper⋈(cite⋈(paper^{xml}))))",
            [3, 3, 1, 0, 0],
        ),
        ("conference^{sigmod}⋈(paper^{xml})", [2, 3, 1, 1, 1]),
        (
            "conference^{sigmod}⋈(paper⋈(cite⋈(paper^{xml})))",
            [3, 3, 1, 0, 0],
        ),
        (
            "conference^{sigmod}⋈(paper⋈(cite⋈(paper^{xml})))",
            [3, 3, 1, 0, 0],
        ),
        (
            "conference^{vldb}⋈(paper⋈(write⋈(author^{widom})))",
            [6, 6, 3, 7, 7],
        ),
    ];

    #[test]
    fn join_by_row_id_keeps_the_result_set_and_the_by_value_stats() {
        let mut db = db();
        db.insert("write", vec![104.into(), Value::Null, 12.into()])
            .unwrap();
        db.insert(
            "paper",
            vec![14.into(), "XML without a venue".into(), Value::Null],
        )
        .unwrap();
        db.build_text_index();
        // (joined node is free, its parent is the referencing side)
        let mut edge_kinds = std::collections::BTreeSet::new();
        let mut got: Vec<(String, [u64; 5])> = Vec::new();
        let mut scratch = EvalScratch::new();
        for keywords in [["widom", "xml"], ["sigmod", "xml"], ["vldb", "widom"]] {
            let (ts, cns) = setup(&db, &keywords);
            for cn in &cns {
                let plan = join_plan(&db, &ts, cn);
                for &node in plan.order.iter().skip(1) {
                    let e = &cn.edges[plan.join_via[node].unwrap()];
                    let parent = if e.a == node { e.b } else { e.a };
                    edge_kinds.insert((cn.nodes[node].mask == 0, e.from_side_is(parent)));
                }
                let mut reference = evaluate_cn(&db, cn, &ts, &ExecStats::new());
                let stats = ExecStats::new();
                let mut pooled = materialize(&db, cn, &ts, &mut scratch, &stats);
                reference.sort();
                pooled.sort();
                assert_eq!(reference, pooled, "{}", cn.display(&db, &keywords));
                let s = stats.snapshot();
                got.push((
                    cn.display(&db, &keywords),
                    [
                        s.tuples_scanned,
                        s.join_probes,
                        s.joins_executed,
                        s.rows_output,
                        s.probe_rows,
                    ],
                ));
            }
        }
        // a PK-side keyword node, a PK-side free node, a reverse-FK free
        // node, a referencing-side keyword node
        for kind in [(false, true), (true, true), (true, false), (false, false)] {
            assert!(edge_kinds.contains(&kind), "no edge of kind {kind:?}");
        }
        let golden: Vec<(String, [u64; 5])> = GOLDEN_STATS
            .iter()
            .map(|(cn, s)| (cn.to_string(), *s))
            .collect();
        assert_eq!(got, golden, "{got:#?}");
    }

    /// `[tuples_scanned, join_probes, joins_executed, rows_output,
    /// probe_rows]` of every (CN, case) of the two fixtures below, as
    /// counted by the join before it folded forward steps into the step
    /// before them.
    const GOLDEN_FOLD_STATS: &[[u64; 5]] = &[
        [6, 6, 2, 6, 6],
        [6, 6, 4, 5, 5],
        [4, 3, 2, 1, 1],
        [9, 9, 4, 9, 9],
        [2, 2, 1, 0, 0],
        [2, 2, 1, 0, 0],
        [2, 2, 1, 1, 1],
        [2, 2, 1, 1, 1],
        [2, 2, 1, 0, 0],
        [2, 2, 1, 0, 0],
        [2, 2, 1, 0, 0],
        [2, 2, 1, 0, 0],
        [2, 2, 1, 0, 0],
        [2, 2, 1, 0, 0],
        [1, 0, 0, 0, 0],
        [6, 6, 3, 7, 7],
        [2, 12, 2, 6, 6],
        [2, 13, 2, 8, 8],
        [7, 1, 1, 0, 0],
        [7, 1, 1, 0, 0],
        [7, 1, 1, 0, 0],
        [7, 1, 1, 0, 0],
        [7, 1, 1, 0, 0],
        [7, 1, 1, 0, 0],
    ];

    /// Join every CN of `queries` on `db` under each case `refinements`
    /// make of it and unrestricted, hold the result set to
    /// [`evaluate_cn`]'s, and return each join's stats, with how many
    /// steps folded into a lookup step and into a probing step, and how
    /// many of those carried literals.
    fn fold_stats(
        db: &Database,
        refinements: &[ResolvedRefinement],
        queries: &[&[&str]],
    ) -> (Vec<[u64; 5]>, [usize; 3]) {
        let (mut got, mut folds) = (Vec::new(), [0; 3]);
        let mut scratch = EvalScratch::new();
        for keywords in queries {
            let (ts, cns) = setup(db, keywords);
            for cn in &cns {
                let plan = join_plan(db, &ts, cn);
                let mut cases = restrictions(cn, refinements);
                cases.push(Restriction::default());
                for case in &cases {
                    // (a forward step to a keyword node, off the node the
                    // step before placed)
                    for w in plan.order.windows(2).skip(1) {
                        let edge = |v: usize| &cn.edges[plan.join_via[v].unwrap()];
                        let (e, before) = (edge(w[1]), edge(w[0]));
                        let parent = if e.a == w[1] { e.b } else { e.a };
                        let keyword = cn.nodes[w[1]].mask != 0;
                        if parent == w[0] && e.from_side_is(parent) && keyword {
                            let probing = cn.nodes[w[0]].mask != 0 && before.from_side_is(w[0]);
                            folds[probing as usize] += 1;
                            folds[2] += !case.on(w[1]).is_empty() as usize;
                        }
                    }
                    let stats = ExecStats::new();
                    let mut pooled = materialize_case(db, cn, case, &ts, &mut scratch, &stats);
                    let mut reference: Vec<JoinedResult> =
                        evaluate_cn(db, cn, &ts, &ExecStats::new())
                            .into_iter()
                            .filter(|r| {
                                (r.tuples.iter().enumerate())
                                    .all(|(ni, t)| admits(db.table(t.table), case.on(ni), t.row))
                            })
                            .collect();
                    reference.sort();
                    pooled.sort();
                    assert_eq!(reference, pooled, "{}", cn.display(db, keywords));
                    let s = stats.snapshot();
                    got.push([
                        s.tuples_scanned,
                        s.join_probes,
                        s.joins_executed,
                        s.rows_output,
                        s.probe_rows,
                    ]);
                }
            }
        }
        (got, folds)
    }

    #[test]
    fn folded_forward_steps_keep_the_result_set_and_the_unfolded_stats() {
        use crate::facets::{resolve_refinements, Refinement};
        use kwdb_relational::{ColumnType, TableBuilder};
        let mut db = db();
        db.insert("write", vec![104.into(), Value::Null, 12.into()])
            .unwrap(); // a NULL forward FK
        db.insert("write", vec![105.into(), 99.into(), 10.into()])
            .unwrap(); // a dangling one: no author 99
        db.insert("paper", vec![14.into(), "XML to go".into(), 2.into()])
            .unwrap();
        db.build_text_index();
        // A tombstone inside author 1's chain of writes, and a deleted
        // keyword row.
        db.ingest("write", vec![106.into(), 1.into(), 13.into()])
            .unwrap();
        db.ingest("write", vec![107.into(), 1.into(), 11.into()])
            .unwrap();
        db.delete("write", &106.into()).unwrap();
        db.delete("paper", &14.into()).unwrap();
        // Literals on every paper and every conference node: the nodes
        // forward steps place.
        let range = |attr: &str, lo, hi| Refinement::Range {
            attr: attr.into(),
            lo,
            hi,
        };
        let year = Refinement::Term {
            attr: "conference.year".into(),
            value: "2007".into(),
        };
        let refinements = [range("paper.pid", 10.0, 13.0), year];
        let refinements = resolve_refinements(&db, &refinements).unwrap();
        let queries: [&[&str]; 3] = [&["widom", "xml"], &["sigmod", "xml"], &["vldb", "widom"]];
        let (mut got, dblp) = fold_stats(&db, &refinements, &queries);

        // A keyword table that references two others: joined from `a`, it
        // is probed, and the forward step to `c` folds into the probing.
        let mut db = Database::new();
        let text_table = |name| {
            TableBuilder::new(name)
                .column("id", ColumnType::Int)
                .column("text", ColumnType::Text)
                .primary_key("id")
        };
        db.create_table(text_table("a")).unwrap();
        db.create_table(text_table("c")).unwrap();
        let b = text_table("b")
            .column("a", ColumnType::Int)
            .column("c", ColumnType::Int)
            .foreign_key("a", "a")
            .foreign_key("c", "c");
        db.create_table(b).unwrap();
        db.insert("a", vec![1.into(), "ax".into()]).unwrap();
        db.insert("a", vec![2.into(), "plain".into()]).unwrap();
        for (id, text) in [(1, "cz"), (2, "cz"), (3, "plain"), (4, "cz")] {
            db.insert("c", vec![id.into(), text.into()]).unwrap();
        }
        let bs = [(1, 1), (1, 2), (1, 3), (2, 1), (1, 99), (1, 4), (1, 2)];
        for (id, (a, c)) in (10..).zip(bs) {
            db.insert("b", vec![id.into(), "by".into(), a.into(), c.into()])
                .unwrap();
        }
        db.insert("b", vec![20.into(), "by".into(), 1.into(), Value::Null])
            .unwrap();
        db.build_text_index();
        db.delete("b", &16.into()).unwrap();
        db.delete("c", &4.into()).unwrap();
        let refinements = [range("c.id", 1.0, 2.0), range("b.id", 10.0, 20.0)];
        let refinements = resolve_refinements(&db, &refinements).unwrap();
        let (chain, probing) = fold_stats(&db, &refinements, &[&["ax", "by", "cz"]]);
        got.extend(chain);
        assert!(dblp[0] > 0 && dblp[2] > 0, "{dblp:?}");
        assert!(probing[1] > 0 && probing[2] > 0, "{probing:?}");
        assert_eq!(got, GOLDEN_FOLD_STATS, "{got:?}");
    }

    #[test]
    fn parallel_matches_serial_scores_across_worker_counts() {
        let db = db();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        let scorer = ResultScorer::new(&db);
        let keywords = ["widom", "xml"];
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let (mut scratch, budget) = (EvalScratch::new(), Budget::unlimited());
        for k in [1, 3, 10] {
            let serial: Vec<f64> = global_pipeline(&q, k, &ExecStats::new())
                .iter()
                .map(|r| r.score)
                .collect();
            let stats = ExecStats::new();
            let out = evaluate(&q, k, Scoring::Monotone, &stats, &budget, &mut scratch, &[]);
            let scores: Vec<f64> = out.results.iter().map(|r| r.score).collect();
            assert_eq!(serial, scores, "k={k}");
            assert!(out.truncation.is_none());
            assert_eq!(out.cns_evaluated + out.cns_pruned, cns.len() as u64);
        }
    }

    #[test]
    fn single_node_cn_matches_serial() {
        let mut db = db();
        // A row matching every keyword, so a single-node full-mask CN
        // exists and produces results.
        db.insert(
            "paper",
            vec![14.into(), "Widom XML retrospective".into(), 2.into()],
        )
        .unwrap();
        db.build_text_index();
        let (ts, cns) = setup(&db, &["widom", "xml"]);
        let one_node = cns
            .iter()
            .find(|cn| cn.nodes.len() == 1 && cn.nodes[0].mask == ts.full_mask())
            .expect("a single-node full-mask CN");
        let full_set = ts
            .get(one_node.nodes[0].table, ts.full_mask())
            .expect("its tuple set")
            .rows
            .len() as u64;
        let scorer = ResultScorer::new(&db);
        let keywords = ["widom", "xml"];
        let q = TopKQuery {
            db: &db,
            ts: &ts,
            cns: &cns,
            scorer: &scorer,
            keywords: &keywords,
        };
        let serial = global_pipeline(&q, 3, &ExecStats::new());
        let serial_scores: Vec<f64> = serial.iter().map(|r| r.score).collect();
        let mut serial_sets: Vec<_> = serial.iter().map(|r| r.result.tuples.clone()).collect();
        serial_sets.sort();
        let stats = ExecStats::new();
        let (mut scratch, budget) = (EvalScratch::new(), Budget::unlimited());
        let out = evaluate(&q, 3, Scoring::Monotone, &stats, &budget, &mut scratch, &[]);
        let scores: Vec<f64> = out.results.iter().map(|r| r.score).collect();
        assert_eq!(serial_scores, scores);
        let mut sets: Vec<_> = out
            .results
            .iter()
            .map(|r| r.result.tuples.clone())
            .collect();
        sets.sort();
        assert_eq!(serial_sets, sets);
        // Both keywords in one tuple of a size-1 network: the best
        // bound of the fixture, so this CN is evaluated first and
        // its tuple set is the least the query can have scanned.
        assert!(
            stats.tuples_scanned() >= full_set && full_set > 0,
            "scanned {} < {full_set}",
            stats.tuples_scanned()
        );
    }
}
