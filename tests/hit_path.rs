//! What a result-cache hit allocates, end to end through the dispatcher.
//!
//! A hit hands back one copy of a stored answer, so its heap traffic should
//! be that copy plus a small fixed overhead: the parsed keywords, the cache
//! key (one buffer, whatever facets and refinements the request carries:
//! nothing is rendered as text), the erased hit vector, the response vector
//! and the flight record's digest. This suite counts allocator calls per
//! `Dispatcher::execute_serial` request that was answered from the cache —
//! all engines and the dispatcher recording into one registry with the
//! default sampling policy, the deployed shape — and holds them to
//! `allocations of cloning that response + what the request shape needs +
//! MARGIN`. Timings move with the host; this count does not, which makes it
//! the gate on the hit path.

use kwdb::common::{FacetSpec, RangeBucket};
use kwdb::datasets::{self, generate_dblp, DblpConfig};
use kwdb::dispatch::{Catalog, Dispatcher};
use kwdb::engine::{
    GraphEngine, GraphSemantics, Hit, RelationalEngine, SearchRequest, SearchResponse, XmlEngine,
};
use kwdb::obs::MetricsRegistry;
use kwdb::relsearch::Refinement;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Allocator calls a hit may make beyond one copy of its response and the
/// `beyond` its request shape needs: the keywords as `parse_query` returns
/// them, the cache key's one buffer, the erased hit vector, the response
/// vector and the flight record's digest. A faceted or drill-down hit needs
/// what a plain one does, and the count is the same in debug and release,
/// on one core and on many. Two, because the cheapest regressions this gate
/// stands for cost four each: one string-keyed registry lookup
/// (`reg.counter(..)`) or one `std::thread::available_parallelism()` call put
/// back into `engine::run_query`. Both were tried and fail this suite.
const MARGIN: u64 = 2;

/// Requests issued per shape; the AutoP99 slow threshold starts reading the
/// latency histogram after 32 of them.
const ROUNDS: usize = 150;

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

fn dispatcher() -> Dispatcher {
    let registry = Arc::new(MetricsRegistry::new());
    let mut catalog = Catalog::new();
    catalog.register(
        "dblp",
        RelationalEngine::new(generate_dblp(&DblpConfig {
            n_papers: 80,
            n_authors: 40,
            ..Default::default()
        }))
        .with_registry(Arc::clone(&registry)),
    );
    catalog.register(
        "social",
        GraphEngine::new(datasets::graphs::generate_graph(&Default::default()))
            .with_registry(Arc::clone(&registry)),
    );
    catalog.register(
        "bib",
        XmlEngine::from_tree(datasets::generate_bib_xml(&Default::default()))
            .with_registry(Arc::clone(&registry)),
    );
    Dispatcher::with_workers(catalog, 2).with_registry(registry)
}

/// The `explore_session` faceted step: a terms facet and a decade range.
fn faceted(query: &str) -> SearchRequest {
    SearchRequest::new(query)
        .k(10)
        .facet(FacetSpec::terms("conference.name", 10))
        .facet(FacetSpec::range(
            "conference.year",
            (1970..2030)
                .step_by(10)
                .map(|y| RangeBucket::new(format!("{y}s"), y as f64, (y + 10) as f64))
                .collect(),
        ))
}

/// Issue `req` [`ROUNDS`] times and hold every hit to `beyond` allocator
/// calls over the copy of its response, plus [`MARGIN`]. Returns the last
/// hit for the caller to build the next step from.
fn hold_hits_to_the_bound(
    d: &Dispatcher,
    what: &str,
    engine: &str,
    req: SearchRequest,
    beyond: u64,
) -> SearchResponse<Hit> {
    let batch = [(engine.to_string(), req)];
    let mut last = None;
    let mut hits = 0;
    for round in 0..ROUNDS {
        let (mut out, allocations) = counted(|| d.execute_serial(&batch));
        let resp = out.responses.pop().expect("one response").expect("Ok");
        if resp.stats.result_cache_hits != 1 {
            // the first execution, and the 1-in-128 the policy traces
            continue;
        }
        hits += 1;
        let (copy, copying) = counted(|| resp.clone());
        assert!(
            allocations <= copying + beyond + MARGIN,
            "{what}, round {round}: a hit made {allocations} allocator calls; cloning its \
             response ({} hits, {} facets) makes {copying}, and the bound is that + {beyond} \
             + {MARGIN}",
            copy.hits.len(),
            copy.facets.len(),
        );
        last = Some(resp);
    }
    assert!(
        hits >= ROUNDS - 3,
        "{what}: only {hits} of {ROUNDS} were hits"
    );
    let last = last.expect("at least one hit");
    assert!(
        !last.hits.is_empty(),
        "{what}: the measured answer is empty"
    );
    last
}

#[test]
fn a_hit_allocates_its_answer_and_a_small_constant() {
    let d = dispatcher();
    // The four request shapes of an `explore_session` session.
    let plain = SearchRequest::new("data query").k(10);
    hold_hits_to_the_bound(&d, "plain", "dblp", plain.clone(), 11);
    let step = hold_hits_to_the_bound(&d, "two facets", "dblp", faceted("data query"), 11);
    let drill = faceted("data query").refine(Refinement::Term {
        attr: "conference.name".into(),
        value: step.facets[0].values[0].value.clone(),
    });
    hold_hits_to_the_bound(&d, "drill-down", "dblp", drill.clone(), 11);
    let summarized =
        hold_hits_to_the_bound(&d, "drill-down + summaries", "dblp", drill.summaries(5), 11);
    assert!(summarized.hits.iter().all(|h| match h {
        Hit::Relational(h) => !h.summary.is_empty(),
        _ => false,
    }));
    let banks = SearchRequest::new("kw0 kw1")
        .k(5)
        .semantics(GraphSemantics::Banks);
    hold_hits_to_the_bound(&d, "graph", "social", banks, 12);
    hold_hits_to_the_bound(&d, "xml", "bib", plain, 12);
}
