//! What the relational executor allocates as a join grows.
//!
//! The executor's per-row work is array reads into pooled buffers: the join
//! writes into the scratch's intermediates, a row's score is its keywords'
//! weights summed where the join left it, and a row the top-k keeps is
//! copied into the entry it evicts. So with the tuple sets and the CN plan
//! in hand, an executor call allocates what its CNs and its `k` need, and
//! nothing per row joined or scored. This suite counts allocator calls per
//! executor call (a counting `#[global_allocator]`) on two queries of one
//! shape whose joins differ fifteenfold, each row scoring above the last so
//! that the top-k takes in every one, and holds the two counts to within
//! [`SLACK`] of each other.

use kwdb::common::{Budget, Value};
use kwdb::relational::database::dblp_schema;
use kwdb::relational::{Database, ExecStats, TupleId};
use kwdb::relsearch::cn::{CnGenConfig, CnGenerator, MaskOracle};
use kwdb::relsearch::pexec::{evaluate, EvalScratch};
use kwdb::relsearch::score::Scoring;
use kwdb::relsearch::topk::TopKQuery;
use kwdb::relsearch::{ResultScorer, TupleSets};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocator calls one executor call may make beyond the other's, on joins
/// of one shape: none is owed to the rows, so this only absorbs a buffer
/// that happens to double once more on the larger query.
const SLACK: u64 = 2;

thread_local! {
    /// Allocator calls (alloc, alloc_zeroed, realloc) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`; returns its result and the allocator calls this thread made
/// meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Two conferences, each named by one keyword, and `papers` papers in each
/// whose titles repeat that conference's title keyword: paper `i` holds it
/// `1 + i / 10` times, so in title order every tenth paper scores above
/// the ones before it.
fn db(papers: [(&str, &str, usize); 2]) -> Database {
    let mut db = Database::new();
    dblp_schema(&mut db).unwrap();
    let mut pid = 0i64;
    for (cid, (venue, word, n)) in (1i64..).zip(papers) {
        let name = format!("{venue} symposium");
        db.insert("conference", vec![cid.into(), name.into(), 2000.into()])
            .unwrap();
        for i in 0..n {
            let title = vec![word; 1 + i / 10].join(" ");
            db.insert("paper", vec![pid.into(), title.into(), cid.into()])
                .unwrap();
            pid += 1;
        }
    }
    db.insert("author", vec![1.into(), "nobody".into()])
        .unwrap();
    db.insert("write", vec![1.into(), 1.into(), Value::Int(0)])
        .unwrap();
    db.build_text_index();
    db
}

/// The executor's answer at `k` = 10, as score bits and tuples.
type Answer = Vec<(u64, Vec<TupleId>)>;

/// One executor call on `keywords` after a first that sized the pooled
/// buffers: its allocator calls, the rows it joined, the CNs it evaluated
/// and its answer.
fn executor_call(db: &Database, keywords: [&str; 2]) -> (u64, u64, u64, Answer) {
    let ts = TupleSets::build(db, &keywords).unwrap();
    let oracle = MaskOracle::from_tuplesets(&ts);
    let cfg = CnGenConfig {
        max_size: 5,
        dedupe: true,
        max_cns: 0,
    };
    let cns = CnGenerator::new(db.schema_graph(), &oracle, cfg).generate();
    let scorer = ResultScorer::new(db);
    let q = TopKQuery {
        db,
        ts: &ts,
        cns: &cns,
        scorer: &scorer,
        keywords: &keywords,
    };
    let (mut scratch, budget) = (EvalScratch::new(), Budget::unlimited());
    let mut run =
        |stats: &ExecStats| evaluate(&q, 10, Scoring::Monotone, stats, &budget, &mut scratch, &[]);
    let warm = run(&ExecStats::new());
    let stats = ExecStats::new();
    let (out, allocations) = counted(|| run(&stats));
    let answer: Answer = (out.results.iter())
        .map(|r| (r.score.to_bits(), r.result.tuples.clone()))
        .collect();
    let warm: Answer = (warm.results.iter())
        .map(|r| (r.score.to_bits(), r.result.tuples.clone()))
        .collect();
    assert_eq!(answer, warm, "{keywords:?}");
    assert!(out.truncation.is_none());
    (allocations, stats.rows_output(), out.cns_evaluated, answer)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds re-derive every score the executor reads from the tuple's text, which allocates per row"
)]
fn executor_allocations_do_not_grow_with_the_rows_joined() {
    const LARGE: u32 = 1_500;
    const SMALL: u32 = 100;
    let db = db([
        ("beta", "alpha", LARGE as usize),
        ("delta", "gamma", SMALL as usize),
    ]);
    let (large, large_rows, large_cns, large_answer) = executor_call(&db, ["alpha", "beta"]);
    let (small, small_rows, small_cns, small_answer) = executor_call(&db, ["gamma", "delta"]);
    // One shape: the paper–conference CN is evaluated and its ten best
    // rows outbid every larger CN's bound, in both.
    assert_eq!(large_cns, small_cns);
    assert!(
        large_rows >= 10 * small_rows && small_rows > 0,
        "{large_rows} vs {small_rows}"
    );
    // Every tenth row outscores those before it, so the top-k took in most
    // of the rows: the answer is the last ten papers.
    let papers = |answer: &Answer| -> Vec<u32> {
        answer
            .iter()
            .map(|(_, tuples)| tuples[0].row.0.max(tuples[1].row.0))
            .collect()
    };
    let last_ten = |end: u32| (end - 10..end).collect::<Vec<_>>();
    assert_eq!(papers(&large_answer), last_ten(LARGE));
    assert_eq!(papers(&small_answer), last_ten(LARGE + SMALL));
    assert!(
        large.abs_diff(small) <= SLACK,
        "{large} allocator calls on {large_rows} rows joined against {small} on {small_rows}"
    );
}
