//! Weighted data graphs with keyword content.

use crate::node2kw::DistanceList;
use kwdb_common::index::{IndexStats, Postings, TermIndex};
use kwdb_common::intern::{Interner, Sym};
use kwdb_common::text::tokenize;
use kwdb_relational::{Database, TupleId};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Graph node identifier (dense, insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A graph node *is* its posting: node-id ordered, deduplicated on insert.
impl kwdb_common::index::Posting for NodeId {
    type SortKey = NodeId;

    fn sort_key(&self) -> NodeId {
        *self
    }

    fn key64(&self) -> u64 {
        self.0 as u64
    }

    fn coalesce(&mut self, other: &Self) -> bool {
        self == other
    }
}

#[derive(Debug, Clone)]
struct NodeData {
    kind: Sym,
    /// Normalized content keywords of this node.
    terms: Vec<String>,
    /// Original tuple, when the graph is a database view.
    tuple: Option<TupleId>,
}

/// A weighted undirected graph whose nodes carry keyword content.
///
/// Edge weights are *costs* (lower = closer); keyword search engines minimize
/// total edge weight of answer trees. Parallel edges are collapsed to the
/// cheapest at insertion.
#[derive(Debug, Clone, Default)]
pub struct DataGraph {
    nodes: Vec<NodeData>,
    adj: Vec<Vec<(NodeId, f64)>>,
    kinds: Interner,
    /// keyword → sorted node list (node ids ascend, so every add is a push
    /// at the end of its list).
    kw_index: TermIndex<NodeId>,
    edge_count: usize,
    /// The smallest edge weight; `None` while there is no edge.
    min_weight: Option<f64>,
    /// One write-once BLINKS distance list per keyword-dictionary term, by
    /// `Sym` (see [`distance_list`](Self::distance_list)); the slot array
    /// itself is sized to the vocabulary on the first read. Every `&mut`
    /// verb that changes nodes or edges drops it.
    distances: OnceLock<Box<[OnceLock<DistanceList>]>>,
}

impl DataGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node of `kind` whose content is tokenized from `content`.
    pub fn add_node(&mut self, kind: &str, content: &str) -> NodeId {
        self.add_node_inner(kind, content, None)
    }

    fn add_node_inner(&mut self, kind: &str, content: &str, tuple: Option<TupleId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let kind = self.kinds.intern(kind);
        let terms = tokenize(content);
        for t in &terms {
            self.kw_index.add(t, id);
        }
        self.nodes.push(NodeData { kind, terms, tuple });
        self.adj.push(Vec::new());
        self.distances.take();
        id
    }

    /// Add an undirected edge of weight `w` (≥ 0). Parallel edges keep the
    /// smaller weight; self-loops are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        assert!(w >= 0.0, "edge weights are costs and must be non-negative");
        if u == v {
            return;
        }
        self.min_weight = Some(self.min_weight.map_or(w, |m| m.min(w)));
        if let Some(slot) = self.adj[u.0 as usize].iter_mut().find(|(x, _)| *x == v) {
            if w < slot.1 {
                slot.1 = w;
                self.adj[v.0 as usize]
                    .iter_mut()
                    .find(|(x, _)| *x == u)
                    .expect("undirected edge symmetric")
                    .1 = w;
                self.distances.take();
            }
            return;
        }
        self.adj[u.0 as usize].push((v, w));
        self.adj[v.0 as usize].push((u, w));
        self.edge_count += 1;
        self.distances.take();
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The smallest edge weight, `+∞` for a graph without edges.
    pub fn min_edge_weight(&self) -> f64 {
        self.min_weight.unwrap_or(f64::INFINITY)
    }

    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, f64)] {
        &self.adj[n.0 as usize]
    }

    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.0 as usize].len()
    }

    pub fn kind(&self, n: NodeId) -> &str {
        self.kinds.resolve(self.nodes[n.0 as usize].kind)
    }

    pub fn terms(&self, n: NodeId) -> &[String] {
        &self.nodes[n.0 as usize].terms
    }

    /// The originating tuple when this graph is a database view.
    pub fn tuple(&self, n: NodeId) -> Option<TupleId> {
        self.nodes[n.0 as usize].tuple
    }

    /// All distinct terms appearing in any node's content, in dictionary id
    /// order — the graph's keyword vocabulary.
    pub fn vocabulary(&self) -> impl Iterator<Item = &str> {
        self.kw_index.terms()
    }

    /// Resolve a query term to its dense id — one dictionary lookup. Do this
    /// once per query term, then fetch node lists by `Sym`.
    pub fn keyword_sym(&self, term: &str) -> Option<Sym> {
        self.kw_index.sym(term)
    }

    /// Sorted nodes whose content contains `term`.
    pub fn keyword_nodes(&self, term: &str) -> Postings<'_, NodeId> {
        self.kw_index.postings_str(term)
    }

    /// Sorted nodes for an already-resolved term.
    pub fn keyword_nodes_sym(&self, sym: Sym) -> Postings<'_, NodeId> {
        self.kw_index.postings(sym)
    }

    /// Does node `n` contain `term`?
    pub fn node_has_term(&self, n: NodeId, term: &str) -> bool {
        self.keyword_nodes(term).contains(&n)
    }

    /// Keyword-index size figures (terms, postings, bytes). Build time is
    /// unset: the graph index grows incrementally with the nodes.
    pub fn keyword_index_stats(&self) -> IndexStats {
        self.kw_index.index_stats()
    }

    /// The BLINKS distance list of keyword `sym` (a [`Sym`] of this graph's
    /// keyword dictionary, from [`keyword_sym`](Self::keyword_sym)), and
    /// whether this call built it. The first read of a keyword builds its
    /// list in one pass from its match nodes; racing first reads build it
    /// once (the others wait), and every later read is a slot load.
    pub fn distance_list(&self, sym: Sym) -> (&DistanceList, bool) {
        let slots = self.distances.get_or_init(|| {
            (0..self.kw_index.term_count())
                .map(|_| OnceLock::new())
                .collect()
        });
        let mut built = false;
        let list = slots[sym.0 as usize].get_or_init(|| {
            built = true;
            DistanceList::build(self, sym)
        });
        (list, built)
    }

    /// Size figures of the distance lists built so far: terms = lists,
    /// postings = reachable (node, keyword) pairs, bytes = what their arrays
    /// hold. Build time is unset: lists are built one at a time, on demand.
    pub fn distance_list_stats(&self) -> IndexStats {
        let built = self.distances.get().into_iter().flatten();
        let (mut terms, mut postings, mut bytes) = (0, 0, 0);
        for list in built.filter_map(OnceLock::get) {
            terms += 1;
            postings += list.sorted().len();
            bytes += list.bytes();
        }
        IndexStats::new(terms, postings, bytes)
    }

    /// Iterate all node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Weight of edge `(u, v)` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.adj[u.0 as usize]
            .iter()
            .find(|(x, _)| *x == v)
            .map(|(_, w)| *w)
    }
}

/// Incremental builder that tracks tuple → node mapping while converting a
/// relational database.
#[derive(Debug)]
pub struct GraphBuilder {
    g: DataGraph,
    by_tuple: HashMap<TupleId, NodeId>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        GraphBuilder {
            g: DataGraph::new(),
            by_tuple: HashMap::new(),
        }
    }

    pub fn add_tuple(&mut self, kind: &str, content: &str, tuple: TupleId) -> NodeId {
        let id = self.g.add_node_inner(kind, content, Some(tuple));
        self.by_tuple.insert(tuple, id);
        id
    }

    pub fn node_of(&self, tuple: TupleId) -> Option<NodeId> {
        self.by_tuple.get(&tuple).copied()
    }

    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) {
        self.g.add_edge(u, v, w);
    }

    pub fn finish(self) -> (DataGraph, HashMap<TupleId, NodeId>) {
        (self.g, self.by_tuple)
    }
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Edge-weighting policy for the database view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeWeighting {
    /// All FK edges cost 1 — the textbook data graph.
    Uniform,
    /// `w(u→v) = 1 + ln(1 + indegree(v))`: edges into popular nodes cost
    /// more, BANKS' prestige-aware weighting (Bhalotia et al., ICDE 02).
    LogDegree,
}

/// Build the tuple graph of a relational database: one node per tuple
/// (content = its indexed text columns), one edge per foreign-key reference.
pub fn from_database(
    db: &Database,
    weighting: EdgeWeighting,
) -> (DataGraph, HashMap<TupleId, NodeId>) {
    let mut b = GraphBuilder::new();
    for t in db.tables() {
        for (rid, _row) in t.iter() {
            let tid = TupleId::new(t.id, rid);
            let content = db.tuple_tokens(tid).join(" ");
            b.add_tuple(&t.schema.name, &content, tid);
        }
    }
    // First pass: collect FK edges as (from,to) node pairs.
    let mut pairs = Vec::new();
    for t in db.tables() {
        for (rid, _row) in t.iter() {
            let tid = TupleId::new(t.id, rid);
            let u = b.node_of(tid).expect("node added above");
            for nbr in db.fk_neighbors(tid) {
                let v = b.node_of(nbr).expect("all tuples added");
                pairs.push((u, v));
            }
        }
    }
    match weighting {
        EdgeWeighting::Uniform => {
            for (u, v) in pairs {
                b.add_edge(u, v, 1.0);
            }
        }
        EdgeWeighting::LogDegree => {
            // indegree = number of FK references pointing at a node
            let mut indeg: HashMap<NodeId, usize> = HashMap::new();
            for &(_, v) in &pairs {
                *indeg.entry(v).or_insert(0) += 1;
            }
            for (u, v) in pairs {
                let w = 1.0 + (1.0 + indeg[&v] as f64).ln();
                b.add_edge(u, v, w);
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_relational::database::dblp_schema;

    #[test]
    fn nodes_and_keyword_index() {
        let mut g = DataGraph::new();
        let a = g.add_node("author", "Jennifer Widom");
        let p = g.add_node("paper", "XML keyword search");
        g.add_edge(a, p, 1.0);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.keyword_nodes("widom"), &[a]);
        assert_eq!(g.keyword_nodes("xml"), &[p]);
        assert!(g.node_has_term(p, "keyword"));
        assert!(!g.node_has_term(a, "keyword"));
        assert_eq!(g.kind(a), "author");
    }

    #[test]
    fn parallel_edges_keep_min_weight() {
        let mut g = DataGraph::new();
        let a = g.add_node("x", "");
        let b = g.add_node("x", "");
        g.add_edge(a, b, 5.0);
        g.add_edge(a, b, 2.0);
        g.add_edge(a, b, 7.0);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(a, b), Some(2.0));
        assert_eq!(g.edge_weight(b, a), Some(2.0));
    }

    #[test]
    fn min_edge_weight_follows_the_cheapest_edge() {
        let mut g = DataGraph::default();
        assert_eq!(g.min_edge_weight(), f64::INFINITY, "no edges");
        let (a, b, c) = (
            g.add_node("x", ""),
            g.add_node("x", ""),
            g.add_node("x", ""),
        );
        g.add_edge(a, a, 0.5);
        assert_eq!(g.min_edge_weight(), f64::INFINITY, "a self-loop is no edge");
        g.add_edge(a, b, 5.0);
        g.add_edge(b, c, 3.0);
        g.add_edge(a, b, 7.0);
        assert_eq!(g.min_edge_weight(), 3.0);
        g.add_edge(b, a, 2.0); // lowers the parallel edge
        assert_eq!(g.min_edge_weight(), 2.0);
        assert_eq!(DataGraph::new().min_edge_weight(), f64::INFINITY);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = DataGraph::new();
        let a = g.add_node("x", "");
        g.add_edge(a, a, 1.0);
        assert_eq!(g.edge_count(), 0);
    }

    fn sample_db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Widom".into()]).unwrap();
        db.insert("author", vec![2.into(), "Ullman".into()])
            .unwrap();
        db.insert("paper", vec![10.into(), "XML search".into(), 1.into()])
            .unwrap();
        db.insert("write", vec![100.into(), 1.into(), 10.into()])
            .unwrap();
        db.insert("write", vec![101.into(), 2.into(), 10.into()])
            .unwrap();
        db.build_text_index();
        db
    }

    #[test]
    fn database_view_has_tuple_nodes_and_fk_edges() {
        let db = sample_db();
        let (g, by_tuple) = from_database(&db, EdgeWeighting::Uniform);
        assert_eq!(g.node_count(), 6);
        // edges: paper→conf, write1→author1, write1→paper, write2→author2, write2→paper
        assert_eq!(g.edge_count(), 5);
        assert_eq!(by_tuple.len(), 6);
        // author Widom node carries its tuple id and keyword
        let widom = g.keyword_nodes("widom");
        assert_eq!(widom.len(), 1);
        assert!(g.tuple(widom.first().unwrap()).is_some());
    }

    #[test]
    fn log_degree_weighting_penalizes_popular_targets() {
        let db = sample_db();
        let (g, _) = from_database(&db, EdgeWeighting::LogDegree);
        // the paper node is referenced twice (both writes) → heavier edges
        let paper = g.keyword_nodes("xml").first().unwrap();
        let conf = g.keyword_nodes("sigmod").first().unwrap();
        let w_into_paper = g
            .neighbors(paper)
            .iter()
            .find(|(n, _)| g.kind(*n) == "write")
            .map(|(_, w)| *w)
            .unwrap();
        let w_into_conf = g.edge_weight(paper, conf).unwrap();
        assert!(w_into_paper > w_into_conf);
    }
}
