//! Property tests over random graphs: the hub index must always agree with
//! Dijkstra, and the keyword-distance index must match direct shortest-path
//! computation.

use kwdb_common::Rng;
use kwdb_graph::hub::{HubIndex, HubSelection};
use kwdb_graph::shortest::distance;
use kwdb_graph::{DataGraph, NodeId};

fn build_graph(n: usize, edges: &[(u8, u8, u8)], keyword_nodes: &[u8]) -> DataGraph {
    let mut g = DataGraph::new();
    let kw: std::collections::HashSet<usize> =
        keyword_nodes.iter().map(|&k| k as usize % n).collect();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| g.add_node("n", if kw.contains(&i) { "kw" } else { "" }))
        .collect();
    for &(u, v, w) in edges {
        let (u, v) = (u as usize % n, v as usize % n);
        if u != v {
            g.add_edge(ids[u], ids[v], (w % 5 + 1) as f64);
        }
    }
    g
}

fn rand_edges(rng: &mut Rng, lo: usize, hi: usize) -> Vec<(u8, u8, u8)> {
    let len = rng.gen_range(lo..hi);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
                rng.gen_range(0u8..=255),
            )
        })
        .collect()
}

#[test]
fn hub_index_always_exact() {
    let mut rng = Rng::seed_from_u64(71);
    for _ in 0..40 {
        let n = rng.gen_range(2usize..12);
        let edges = rand_edges(&mut rng, 1, 24);
        let n_hubs = rng.gen_index(4);
        let g = build_graph(n, &edges, &[]);
        let ix = HubIndex::build(&g, n_hubs, HubSelection::HighestDegree);
        for i in 0..n {
            for j in 0..n {
                let (a, b) = (NodeId(i as u32), NodeId(j as u32));
                assert_eq!(
                    ix.distance(a, b),
                    distance(&g, a, b),
                    "hub index wrong for {a:?}→{b:?}"
                );
            }
        }
    }
}

#[test]
fn keyword_index_matches_direct_search() {
    let mut rng = Rng::seed_from_u64(73);
    for _ in 0..40 {
        let n = rng.gen_range(2usize..10);
        let edges = rand_edges(&mut rng, 1, 20);
        let n_kw = rng.gen_range(1usize..4);
        let kw_nodes: Vec<u8> = (0..n_kw).map(|_| rng.gen_range(0u8..=255)).collect();
        let g = build_graph(n, &edges, &kw_nodes);
        let sym = g.keyword_sym("kw").expect("a keyword node");
        let (list, _) = g.distance_list(sym);
        let sources = g.keyword_nodes("kw");
        assert!(!sources.is_empty());
        for node in g.iter() {
            let direct = sources
                .iter()
                .filter_map(|s| distance(&g, node, s))
                .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.min(d))));
            assert_eq!(list.dist(node), direct, "node {node:?}");
        }
        // sorted list is ascending and complete
        let sorted = list.sorted();
        assert!(sorted
            .windows(2)
            .all(|w| list.dist(w[0]) <= list.dist(w[1])));
        let reachable = g.iter().filter(|&n| list.dist(n).is_some()).count();
        assert_eq!(sorted.len(), reachable);
        // the reported bytes are the arrays': two u32s per node, a NodeId
        // per reachable node, an f64 per distinct distance
        let stats = g.distance_list_stats();
        assert_eq!((stats.terms, stats.postings), (1, sorted.len()));
        assert_eq!(
            stats.posting_bytes,
            n * (4 + 4) + sorted.len() * 4 + list.levels().len() * 8
        );
    }
}
