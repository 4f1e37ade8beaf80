//! Parity suite for the dense (array-by-`NodeId`) graph engine: the
//! node→keyword distance lists against a naive fixpoint, however they were
//! filled and after the graph changes, their `next` walks and their
//! distance classes against the distances; BANKS and BLINKS against an exhaustive distinct-root scan, the
//! engine's `Banks` requests against its `DistinctRoot` ones and BANKS I,
//! DPBF against brute force, and — the part
//! arrays add over hash maps — that a reused [`SearchScratch`] never leaks
//! one query's state into the next.
//!
//! Every comparison is bitwise on `f64`s and runs on seeded random graphs
//! with disconnected components, zero-weight edges, log-degree (irrational)
//! weights, nodes matching several keywords, a repeated keyword and an
//! absent one. CI also runs it in release, where `debug_assert!`s are gone
//! and these comparisons are the whole check.

use kwdb::common::text::parse_query;
use kwdb::common::{Budget, CacheConfig, Rng, TruncationReason};
use kwdb::datasets::{generate_dblp, DblpConfig};
use kwdb::engine::{GraphEngine, GraphSemantics, SearchRequest};
use kwdb::graph::graph::{from_database, EdgeWeighting};
use kwdb::graph::shortest::multi_source;
use kwdb::graph::{DataGraph, DistanceList, NodeId};
use kwdb::graphsearch::dpbf::brute_force_gst_cost;
use kwdb::graphsearch::{AnswerTree, BanksI, Blinks, Dpbf, SearchScratch, TraversalStats};

const KEYWORDS: [&str; 4] = ["kw0", "kw1", "kw2", "kw3"];

/// `n` nodes in up to three components that no edge crosses; each keyword
/// on one to four random nodes (so a node can hold several). `log_degree`
/// weighs an edge `1 + ln(1 + endpoint degree)` as the tuple-graph view
/// does; otherwise weights are small integers, a quarter of them zero.
fn random_graph(rng: &mut Rng, n: usize, log_degree: bool) -> DataGraph {
    let components = rng.gen_range(1usize..4);
    let mut content = vec![String::new(); n];
    for kw in KEYWORDS {
        for _ in 0..rng.gen_range(1usize..5) {
            let node = &mut content[rng.gen_index(n)];
            if !node.contains(kw) {
                node.push_str(kw);
                node.push(' ');
            }
        }
    }
    let mut g = DataGraph::new();
    let ids: Vec<NodeId> = content.iter().map(|c| g.add_node("n", c)).collect();
    let mut pairs = Vec::new();
    for _ in 0..rng.gen_range(n..3 * n) {
        let (u, v) = (rng.gen_index(n), rng.gen_index(n));
        if u != v && u % components == v % components {
            pairs.push((u, v));
        }
    }
    let mut degree = vec![0usize; n];
    for &(u, v) in &pairs {
        degree[u] += 1;
        degree[v] += 1;
    }
    for (u, v) in pairs {
        let w = if log_degree {
            1.0 + (1.0 + degree[v] as f64).ln()
        } else {
            *rng.choose(&[0.0, 1.0, 2.0, 3.0])
        };
        g.add_edge(ids[u], ids[v], w);
    }
    g
}

/// `(dist, nearest source)` per node by relaxing every edge until nothing
/// changes — no queue, no scratch, nothing shared with the code under test.
fn fixpoint_nearest(
    g: &DataGraph,
    sources: &[NodeId],
    max_dist: Option<f64>,
) -> Vec<Option<(f64, NodeId)>> {
    let mut best: Vec<Option<(f64, NodeId)>> = vec![None; g.node_count()];
    for &s in sources {
        best[s.0 as usize] = Some((0.0, s));
    }
    loop {
        let mut changed = false;
        for u in g.iter() {
            let Some((d, origin)) = best[u.0 as usize] else {
                continue;
            };
            for &(v, w) in g.neighbors(u) {
                let cand = (d + w, origin);
                if max_dist.is_some_and(|md| cand.0 > md) {
                    continue;
                }
                if best[v.0 as usize].is_none_or(|cur| cand < cur) {
                    best[v.0 as usize] = Some(cand);
                    changed = true;
                }
            }
        }
        if !changed {
            return best;
        }
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// `kw`'s distance list on `g`, built here if no one has read it yet;
/// `None` for a keyword outside the vocabulary.
fn list<'g>(g: &'g DataGraph, kw: &str) -> Option<&'g DistanceList> {
    let sym = g.keyword_sym(kw)?;
    Some(g.distance_list(sym).0)
}

/// Everything a distance list says, bit for bit: `(dist, nearest match)` per
/// node and the sorted-access order.
type ListBits = (Vec<Option<(u64, NodeId)>>, Vec<NodeId>);

fn list_bits(g: &DataGraph, kw: &str) -> Option<ListBits> {
    let list = list(g, kw)?;
    let per_node = g
        .iter()
        .map(|n| list.get(n).map(|(d, m)| (d.to_bits(), m)))
        .collect();
    Some((per_node, list.sorted().to_vec()))
}

#[test]
fn index_equals_the_fixpoint_reference_at_any_thread_count() {
    let mut rng = Rng::seed_from_u64(0x17);
    for round in 0..40 {
        let n = rng.gen_range(4usize..40);
        let g = random_graph(&mut rng, n, round % 2 == 0);
        let max_dist = (round % 3 == 0).then_some(2.5);
        // a repeated keyword and an absent one ride along
        let listed = ["kw0", "kw1", "kw0", "kw2", "absent", "kw3"];
        // One graph three times over, its lists filled in keyword order, in
        // reverse, and by two threads racing in opposite directions.
        let (forward, reverse, raced) = (g.clone(), g.clone(), g);
        for kw in listed {
            list(&forward, kw);
        }
        for kw in listed.iter().rev() {
            list(&reverse, kw);
        }
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for reversed in [false, true] {
                let (raced, barrier) = (&raced, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..listed.len() {
                        list(
                            raced,
                            listed[if reversed { listed.len() - 1 - i } else { i }],
                        );
                    }
                });
            }
        });
        let mut entries = 0;
        for kw in listed {
            let sources = raced.keyword_nodes(kw).to_vec();
            let want = fixpoint_nearest(&raced, &sources, None);
            // `multi_source` keeps its distance cap; the lists have none
            let capped = fixpoint_nearest(&raced, &sources, max_dist);
            let (ms_dist, ms_origin) = multi_source(&raced, sources.iter().copied(), max_dist);
            for n in raced.iter() {
                let c = capped[n.0 as usize];
                let ctx = format!("round {round} {kw} {n:?}");
                assert_eq!(
                    bits(ms_dist.get(&n).copied()),
                    bits(c.map(|c| c.0)),
                    "{ctx}"
                );
                assert_eq!(ms_origin.get(&n).copied(), c.map(|c| c.1), "{ctx}");
            }
            let mut order: Vec<(f64, NodeId)> = raced
                .iter()
                .filter_map(|n| Some((want[n.0 as usize]?.0, n)))
                .collect();
            order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let order: Vec<NodeId> = order.into_iter().map(|(_, n)| n).collect();
            let want_bits = (!sources.is_empty()).then(|| {
                let per_node = want.iter().map(|w| w.map(|(d, m)| (d.to_bits(), m)));
                (per_node.collect(), order.clone())
            });
            for g in [&forward, &reverse, &raced] {
                assert_eq!(list_bits(g, kw), want_bits, "round {round} {kw}");
            }
            if kw != "kw0" || entries == 0 {
                entries += order.len(); // count the repeated keyword once
            }
        }
        for g in [&forward, &reverse, &raced] {
            let stats = g.distance_list_stats();
            assert_eq!(stats.terms, 4, "the repeat is one list, the absent none");
            assert_eq!(stats.postings, entries);
        }
    }
}

/// A list's `next` links are its answer paths: from every node that reaches
/// a match, the walk ends at that nearest match, each step crosses one edge
/// and is tight bit for bit, and the nearest match never changes on the way.
#[test]
fn next_links_walk_each_node_to_its_nearest_match_over_tight_edges() {
    let mut rng = Rng::seed_from_u64(0x22);
    for round in 0..60 {
        let n = rng.gen_range(4usize..60);
        let g = random_graph(&mut rng, n, round % 2 == 0);
        for kw in KEYWORDS {
            let list = list(&g, kw).expect("every keyword is planted");
            for node in g.iter() {
                let ctx = format!("round {round} {kw} {node:?}");
                let Some(m) = list.nearest_match(node) else {
                    assert_eq!(list.path(node).count(), 0, "{ctx}");
                    continue;
                };
                let mut at = node;
                for (step, (u, next)) in list.path(node).enumerate() {
                    assert!(step < n, "{ctx}: the walk repeats a node");
                    assert_eq!(u, at, "{ctx}");
                    let w = g.edge_weight(u, next).expect("a step is an edge");
                    let (du, dn) = (list.dist(u).unwrap(), list.dist(next).unwrap());
                    assert_eq!(du.to_bits(), (dn + w).to_bits(), "{ctx}: {u:?}→{next:?}");
                    assert_eq!(list.nearest_match(next), Some(m), "{ctx}");
                    at = next;
                }
                assert_eq!(at, m, "{ctx}: the walk ends at the nearest match");
                assert_eq!(list.dist(m), Some(0.0), "{ctx}");
            }
        }
    }
}

/// A list keeps class ids into `levels`, not distances: the levels ascend
/// strictly, a node has a class exactly when it reaches a match, its level
/// is its distance bit for bit, and along the sorted access order the class
/// starts at 0, never falls, and steps up by exactly one at each new
/// distance, ending on the last level.
#[test]
fn distance_classes_number_the_distinct_distances_in_order() {
    let mut rng = Rng::seed_from_u64(0x24);
    for round in 0..60 {
        let n = rng.gen_range(4usize..60);
        let g = random_graph(&mut rng, n, round % 2 == 0);
        for kw in KEYWORDS {
            let list = list(&g, kw).expect("every keyword is planted");
            let levels = list.levels();
            let ctx = format!("round {round} {kw}");
            assert!(levels.windows(2).all(|w| w[0] < w[1]), "{ctx}: {levels:?}");
            for node in g.iter() {
                let class = list.class(node);
                let unreachable = class == DistanceList::UNREACHABLE;
                assert_eq!(unreachable, list.get(node).is_none(), "{ctx} {node:?}");
                if let Some(d) = list.dist(node) {
                    let level = levels[class as usize];
                    assert_eq!(level.to_bits(), d.to_bits(), "{ctx} {node:?}");
                }
            }
            let sorted = list.sorted();
            let classes: Vec<u32> = sorted.iter().map(|&n| list.class(n)).collect();
            assert_eq!(classes.first(), Some(&0), "{ctx}");
            assert_eq!(
                classes.last().map(|&c| c as usize + 1),
                Some(levels.len()),
                "{ctx}"
            );
            for (w, c) in sorted.windows(2).zip(classes.windows(2)) {
                let step = u32::from(list.dist(w[0]) != list.dist(w[1]));
                assert_eq!(c[1], c[0] + step, "{ctx}: {:?}→{:?}", w[0], w[1]);
            }
        }
    }
}

#[test]
fn a_mutated_clone_rebuilds_its_lists_and_the_original_keeps_its_own() {
    let mut rng = Rng::seed_from_u64(0x1d);
    for round in 0..20 {
        let seed = rng.gen_range(0u64..1 << 32);
        let fresh = || random_graph(&mut Rng::seed_from_u64(seed), 30, round % 2 == 0);
        let g = fresh();
        let before: Vec<_> = KEYWORDS.iter().map(|kw| list_bits(&g, kw)).collect();
        // A zero-weight shortcut from a `kw0` node to the node farthest from
        // any `kw0` (lowering the weight if the edge is already there).
        let kw0 = list(&g, "kw0").expect("every keyword is planted");
        let source = g.keyword_nodes("kw0").first().expect("a kw0 node");
        let far = *kw0.sorted().last().expect("the source reaches itself");
        let mut shortcut = g.clone();
        shortcut.add_edge(source, far, 0.0);
        let mut rebuilt = fresh();
        rebuilt.add_edge(source, far, 0.0);
        // and a new `kw0` node joined to the far one
        let mut grown = g.clone();
        let added = grown.add_node("n", "kw0");
        grown.add_edge(added, far, 0.0);
        let mut regrown = fresh();
        let readded = regrown.add_node("n", "kw0");
        regrown.add_edge(readded, far, 0.0);
        for (i, kw) in KEYWORDS.iter().enumerate() {
            let ctx = format!("round {round} {kw}");
            assert_eq!(list_bits(&shortcut, kw), list_bits(&rebuilt, kw), "{ctx}");
            assert_eq!(list_bits(&grown, kw), list_bits(&regrown, kw), "{ctx}");
            assert_eq!(list_bits(&g, kw), before[i], "{ctx}: the original moved");
        }
        if kw0.dist(far) != Some(0.0) {
            assert_ne!(list_bits(&shortcut, "kw0"), before[0], "round {round}");
        }
        assert_ne!(list_bits(&grown, "kw0"), before[0], "round {round}");
    }
}

#[test]
fn engines_sharing_a_graph_share_its_lists() {
    let mut rng = Rng::seed_from_u64(0x1e);
    let g = std::sync::Arc::new(random_graph(&mut rng, 100, true));
    let engine =
        || GraphEngine::new(std::sync::Arc::clone(&g)).with_result_cache(CacheConfig::disabled());
    let (a, b) = (engine(), engine());
    let outcome = |e: &GraphEngine, q: &str| {
        let req = SearchRequest::new(q)
            .k(3)
            .semantics(GraphSemantics::DistinctRoot);
        let stats = e.execute(&req).unwrap().stats;
        (stats.cache_hits, stats.cache_misses)
    };
    assert_eq!(outcome(&a, "kw0 kw1"), (0, 1), "the first read builds");
    assert_eq!(
        outcome(&b, "kw1 kw0"),
        (1, 0),
        "the other engine reads them"
    );
    assert_eq!(outcome(&b, "kw1 kw2"), (0, 1), "kw2 is new");
    assert_eq!(outcome(&a, "kw2"), (1, 0));
    assert_eq!(
        outcome(&a, "kw3 absent"),
        (1, 0),
        "an absent keyword builds nothing"
    );
    assert_eq!(g.distance_list_stats().terms, 3);
}

/// The k smallest `Σᵢ dist(r, Sᵢ)` over every node that reaches all groups,
/// summed in keyword order as both engines do.
fn exhaustive_root_costs(g: &DataGraph, keywords: &[&str], k: usize) -> Vec<u64> {
    let fields: Vec<_> = keywords
        .iter()
        .map(|kw| fixpoint_nearest(g, &g.keyword_nodes(kw).to_vec(), None))
        .collect();
    let mut costs: Vec<f64> = g
        .iter()
        .filter_map(|r| {
            fields
                .iter()
                .try_fold(0.0, |sum, f| Some(sum + f[r.0 as usize]?.0))
        })
        .collect();
    costs.sort_by(f64::total_cmp);
    costs.truncate(k);
    costs.into_iter().map(f64::to_bits).collect()
}

fn rank_bits(trees: &[AnswerTree]) -> Vec<u64> {
    trees.iter().map(|t| t.rank_cost.to_bits()).collect()
}

fn queries() -> Vec<Vec<&'static str>> {
    vec![
        vec!["kw0", "kw1"],
        vec!["kw2", "kw0", "kw3"],
        vec!["kw1", "kw3", "kw1"], // a repeated keyword is two equal groups
        vec!["kw0", "absent"],
        vec!["kw3"],
    ]
}

#[test]
fn banks_and_blinks_rank_costs_equal_the_exhaustive_scan() {
    let mut rng = Rng::seed_from_u64(0x18);
    let unlimited = Budget::unlimited();
    // one scratch for the whole test: graphs of different sizes, all engines
    let mut scratch = SearchScratch::default();
    for round in 0..40 {
        let n = rng.gen_range(4usize..40);
        let g = random_graph(&mut rng, n, round % 2 == 0);
        for kws in queries() {
            for k in [1, 3, 50] {
                let want = exhaustive_root_costs(&g, &kws, k);
                let ctx = format!("round {round} {kws:?} k={k}");
                let (banks, cut, _) =
                    BanksI::new(&g).search_budgeted(&kws, k, &unlimited, &mut scratch);
                assert_eq!(rank_bits(&banks), want, "BANKS {ctx}");
                assert!(cut.is_none());
                let (blinks, cut, _) =
                    Blinks::new(&g).search_budgeted(&kws, k, &unlimited, &mut scratch);
                assert_eq!(rank_bits(&blinks), want, "BLINKS {ctx}");
                assert!(cut.is_none());
                for t in banks.iter().chain(&blinks) {
                    t.validate(&g, &kws)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert!(t.cost <= t.rank_cost + 1e-9, "shared edges are paid once");
                }
            }
        }
    }
}

#[test]
fn dpbf_top1_equals_brute_force_and_every_tree_validates() {
    let mut rng = Rng::seed_from_u64(0x19);
    let mut scratch = SearchScratch::default();
    for round in 0..60 {
        // integer weights: the optimum is the same number however it is summed
        let n = rng.gen_range(3usize..13);
        let g = random_graph(&mut rng, n, false);
        for kws in queries() {
            let (trees, _, _) =
                Dpbf::new(&g).search_budgeted(&kws, 4, &Budget::unlimited(), &mut scratch);
            let ctx = format!("round {round} {kws:?}");
            assert_eq!(
                trees.first().map(|t| t.cost.to_bits()),
                brute_force_gst_cost(&g, &kws).map(f64::to_bits),
                "{ctx}"
            );
            assert!(trees.windows(2).all(|w| w[0].cost <= w[1].cost), "{ctx}");
            for t in &trees {
                t.validate(&g, &kws)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
        }
    }
}

/// An answer tree with its costs as bit patterns.
type TreeBits = (NodeId, u64, u64, Vec<(NodeId, NodeId)>, Vec<NodeId>);

fn tree_bits(trees: Vec<AnswerTree>) -> Vec<TreeBits> {
    let bits = |t: AnswerTree| {
        let (cost, rank) = (t.cost.to_bits(), t.rank_cost.to_bits());
        (t.root, cost, rank, t.edges, t.matches)
    };
    trees.into_iter().map(bits).collect()
}

/// Everything observable about one search, bit for bit.
type Outcome = (Vec<TreeBits>, Option<TruncationReason>, TraversalStats);

fn outcome(
    (trees, cut, work): (Vec<AnswerTree>, Option<TruncationReason>, TraversalStats),
) -> Outcome {
    (tree_bits(trees), cut, work)
}

/// All three engines on `kws`, capped or not, out of `scratch`.
fn run_all(
    g: &DataGraph,
    kws: &[&str],
    budget: &Budget,
    scratch: &mut SearchScratch,
) -> [Outcome; 3] {
    [
        outcome(BanksI::new(g).search_budgeted(kws, 3, budget, scratch)),
        outcome(Dpbf::new(g).search_budgeted(kws, 3, budget, scratch)),
        outcome(Blinks::new(g).search_budgeted(kws, 3, budget, scratch)),
    ]
}

#[test]
fn a_reused_scratch_answers_like_a_fresh_one() {
    let mut rng = Rng::seed_from_u64(0x1a);
    let mut reused = SearchScratch::default();
    for round in 0..25 {
        let n = rng.gen_range(8usize..60);
        let g = random_graph(&mut rng, n, round % 2 == 0);
        // A, B, A, … with a cap in between: whatever the last query left in
        // the scratch — full expansions, a cut-short one, an early return on
        // an absent keyword — the next answers as if it were the first.
        let capped = Budget::unlimited().with_max_candidates(5);
        let unlimited = Budget::unlimited();
        let mut script: Vec<(Vec<&str>, &Budget)> = Vec::new();
        for kws in queries() {
            script.push((kws.clone(), &unlimited));
            script.push((kws, &capped));
        }
        script.extend(script.clone().into_iter().rev());
        for (kws, budget) in script {
            let fresh = run_all(&g, &kws, budget, &mut SearchScratch::default());
            let again = run_all(&g, &kws, budget, &mut reused);
            assert_eq!(again, fresh, "round {round} {kws:?} {budget:?}");
        }
    }
}

#[test]
fn a_candidate_cap_cuts_at_the_same_point_every_time() {
    let mut rng = Rng::seed_from_u64(0x1b);
    let g = random_graph(&mut rng, 200, true);
    let mut scratch = SearchScratch::default();
    let kws = ["kw0", "kw1", "kw2"];
    for cap in [1, 2, 7, 30, 120] {
        let budget = Budget::unlimited().with_max_candidates(cap);
        let first = run_all(&g, &kws, &budget, &mut scratch);
        let full = run_all(&g, &kws, &Budget::unlimited(), &mut scratch);
        for _ in 0..3 {
            assert_eq!(run_all(&g, &kws, &budget, &mut scratch), first);
        }
        for ((trees, cut, work), (_, _, full_work)) in first.iter().zip(&full) {
            // the cap is the verdict exactly when there was more work to do
            let spent = work.nodes_expanded + work.states_popped + work.sorted_accesses;
            let needed =
                full_work.nodes_expanded + full_work.states_popped + full_work.sorted_accesses;
            assert_eq!(spent as u64, cap.min(needed as u64), "cap {cap}");
            if (needed as u64) > cap {
                assert_eq!(
                    *cut,
                    Some(TruncationReason::CandidateCapReached),
                    "cap {cap}"
                );
            }
            assert!(trees
                .windows(2)
                .all(|w| f64::from_bits(w[0].2) <= f64::from_bits(w[1].2)));
        }
    }
}

/// What a client sees of a response, bit for bit, work counters included.
fn response_bits(
    engine: &GraphEngine,
    query: &str,
    sem: GraphSemantics,
) -> (Vec<TreeBits>, [u64; 3]) {
    let resp = engine
        .execute(&SearchRequest::new(query).k(4).semantics(sem))
        .unwrap();
    let ops = resp.stats.operators;
    (
        tree_bits(resp.hits),
        [ops.tuples_scanned, ops.sorted_accesses, ops.random_accesses],
    )
}

#[test]
fn pooled_scratch_leaves_no_residue_serially_or_across_threads() {
    let mut rng = Rng::seed_from_u64(0x1c);
    let g = random_graph(&mut rng, 400, true);
    let engine = GraphEngine::new(g).with_result_cache(CacheConfig::disabled());
    let sems = [
        GraphSemantics::Banks,
        GraphSemantics::SteinerExact,
        GraphSemantics::DistinctRoot,
    ];
    let plan: Vec<(&str, GraphSemantics)> = ["kw0 kw1", "kw2 kw3 kw0", "kw1 kw1 kw3", "kw2"]
        .into_iter()
        .flat_map(|q| sems.map(|s| (q, s)))
        .collect();
    // reference: each request on an engine of its own, so on a fresh scratch
    let reference: Vec<_> = plan
        .iter()
        .map(|&(q, s)| {
            let fresh = GraphEngine::new(engine.graph()).with_result_cache(CacheConfig::disabled());
            response_bits(&fresh, q, s)
        })
        .collect();
    // A, B, A on the one engine
    for i in (0..plan.len())
        .chain((0..plan.len()).rev())
        .chain(0..plan.len())
    {
        assert_eq!(response_bits(&engine, plan[i].0, plan[i].1), reference[i]);
    }
    // two threads at once, walking the plan in opposite directions
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for reversed in [false, true] {
            let (engine, plan, reference, barrier) = (&engine, &plan, &reference, &barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..6 {
                    for step in 0..plan.len() {
                        let i = if reversed {
                            plan.len() - 1 - step
                        } else {
                            step
                        };
                        assert_eq!(
                            response_bits(engine, plan[i].0, plan[i].1),
                            reference[i],
                            "round {round} request {i}"
                        );
                    }
                }
            });
        }
    });
}

/// `Banks` is an alias of `DistinctRoot`: at every `k` and candidate cap the
/// two requests answer hit for hit, with the same verdict and accesses, and
/// an uncapped one ranks by BANKS I's own `rank_cost` bits.
#[test]
fn a_banks_request_answers_as_a_distinct_root_request() {
    let mut rng = Rng::seed_from_u64(0x23);
    let mut scratch = SearchScratch::default();
    for round in 0..30 {
        let n = rng.gen_range(4usize..40);
        let g = std::sync::Arc::new(random_graph(&mut rng, n, round % 2 == 0));
        let engine =
            GraphEngine::new(std::sync::Arc::clone(&g)).with_result_cache(CacheConfig::disabled());
        for kws in queries() {
            for k in [1, 3, 50] {
                for cap in [None, Some(1), Some(6), Some(40)] {
                    let budget = cap.map_or(Budget::unlimited(), |c| {
                        Budget::unlimited().with_max_candidates(c)
                    });
                    let run = |sem| {
                        let req = SearchRequest::new(kws.join(" "))
                            .k(k)
                            .semantics(sem)
                            .budget(budget);
                        let resp = engine.execute(&req).unwrap();
                        let work = (resp.stats.operators, resp.stats.candidates_generated);
                        (tree_bits(resp.hits), resp.truncation, work)
                    };
                    let banks = run(GraphSemantics::Banks);
                    let ctx = format!("round {round} {kws:?} k={k} cap={cap:?}");
                    assert_eq!(banks, run(GraphSemantics::DistinctRoot), "{ctx}");
                    if cap.is_none() {
                        // the engine answers the parsed, de-duplicated query
                        let parsed = parse_query(&kws.join(" "));
                        let (reference, _, _) =
                            BanksI::new(&g).search_budgeted(&parsed, k, &budget, &mut scratch);
                        let ranks: Vec<u64> = banks.0.iter().map(|t| t.2).collect();
                        assert_eq!(ranks, rank_bits(&reference), "{ctx}");
                    }
                }
            }
        }
    }
}

/// FNV-1a over 64-bit words, over every tree's shape too (`edges` and
/// `cost`) or, with `shapes` off, over everything but BLINKS tree shapes.
#[derive(Debug)]
struct Digest {
    hash: u64,
    shapes: bool,
}

impl Digest {
    fn new(shapes: bool) -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            shapes,
        }
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.hash = (self.hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// One search: every tree (root, matches, sorted edges, `cost` and
    /// `rank_cost` bits — edges and `cost` only if `shape`), the truncation
    /// verdict and every work counter.
    fn search(
        &mut self,
        (trees, cut, work): (Vec<AnswerTree>, Option<TruncationReason>, TraversalStats),
        shape: bool,
    ) {
        self.word(trees.len() as u64);
        for t in trees {
            self.word(t.root.0 as u64);
            self.word(t.matches.len() as u64);
            for m in &t.matches {
                self.word(m.0 as u64);
            }
            if shape {
                let mut edges = t.edges;
                edges.sort();
                self.word(edges.len() as u64);
                for (u, v) in edges {
                    self.word((u.0 as u64) << 32 | v.0 as u64);
                }
                self.word(t.cost.to_bits());
            }
            self.word(t.rank_cost.to_bits());
        }
        self.word(match cut {
            None => 0,
            Some(TruncationReason::DeadlineExceeded) => 1,
            Some(TruncationReason::CandidateCapReached) => 2,
        });
        for counter in [
            work.nodes_expanded,
            work.states_popped,
            work.sorted_accesses,
            work.random_accesses,
        ] {
            self.word(counter as u64);
        }
    }
}

/// BANKS and BLINKS on `kws` at every `k` and cap, out of one scratch.
fn digest_searches(
    digest: &mut Digest,
    g: &DataGraph,
    kws: &[&str],
    ks: &[usize],
    scratch: &mut SearchScratch,
) {
    for &k in ks {
        for cap in [None, Some(1), Some(6), Some(40)] {
            let budget = cap.map_or(Budget::unlimited(), |c| {
                Budget::unlimited().with_max_candidates(c)
            });
            digest.search(
                BanksI::new(g).search_budgeted(kws, k, &budget, scratch),
                true,
            );
            let blinks = Blinks::new(g).search_budgeted(kws, k, &budget, scratch);
            digest.search(blinks, digest.shapes);
        }
    }
}

/// BANKS and BLINKS over the frozen script: seeded random graphs, then the
/// tuple graph of a small DBLP database under both weightings.
fn frozen_script(shapes: bool) -> Digest {
    let mut digest = Digest::new(shapes);
    let mut scratch = SearchScratch::default();
    let mut rng = Rng::seed_from_u64(0x20);
    for round in 0..30 {
        let n = rng.gen_range(8usize..80);
        let g = random_graph(&mut rng, n, round % 2 == 0);
        for kws in queries() {
            digest_searches(&mut digest, &g, &kws, &[1, 3, 20], &mut scratch);
        }
    }
    // The tuple graph of a small DBLP database, as the engine serves it:
    // unit weights, conference hubs, many equal distances.
    let db = generate_dblp(&DblpConfig {
        n_conferences: 6,
        n_authors: 60,
        n_papers: 150,
        ..Default::default()
    });
    for weighting in [EdgeWeighting::Uniform, EdgeWeighting::LogDegree] {
        let (g, _) = from_database(&db, weighting);
        let vocab: Vec<&str> = g.vocabulary().collect();
        let mut rng = Rng::seed_from_u64(0x21);
        for q in 0..120 {
            let kws: Vec<&str> = (0..2 + q % 2).map(|_| *rng.choose(&vocab)).collect();
            digest_searches(&mut digest, &g, &kws, &[1, 10], &mut scratch);
        }
    }
    digest
}

/// The answers and work counters of BANKS and BLINKS, frozen: a change to
/// the shortest-path code either runs on must leave every tree, cost bit
/// and counter where it was. Re-frozen only when tree shapes move on
/// purpose, in a commit of its own: last when BLINKS trees became walks
/// down the distance lists' `next` links (BLINKS `edges` and `cost` moved).
#[test]
fn banks_and_blinks_answers_and_work_equal_the_frozen_digest() {
    let digest = frozen_script(true);
    assert_eq!(digest.hash, 5_321_193_360_920_751_911, "{digest:?}");
}

/// The same script without BLINKS tree shapes: roots, matches, `rank_cost`
/// bits, verdicts and work counters of both engines, and BANKS' trees in
/// full. A BLINKS answer tree may take another path of the same length to a
/// match, which moves its edges and so its `cost`; nothing else may move.
/// Never edit the constant.
#[test]
fn banks_and_blinks_ranks_and_work_equal_the_frozen_digest() {
    let digest = frozen_script(false);
    assert_eq!(digest.hash, 9_279_800_691_624_543_608, "{digest:?}");
}
