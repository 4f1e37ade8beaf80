//! Candidate network (CN) generation — DISCOVER (Hristidis &
//! Papakonstantinou, VLDB 02) with duplicate-free enumeration
//! (Markowetz et al., SIGMOD 07). Tutorial slides 28 and 115.
//!
//! A CN is a schema-level join tree whose nodes are tuple sets `R^K` (or
//! free sets `R^{}`) and whose edges are foreign keys. A *valid* CN is
//!
//! * **total**: the node masks union to the full query,
//! * **duplicate-free across keywords**: masks are pairwise disjoint (the
//!   exact-subset tuple sets guarantee each joining tree of tuples matches
//!   exactly one CN),
//! * **minimal**: every leaf is a non-free set (a free leaf adds nothing),
//! * **non-redundant**: no node carries two same-direction copies of one
//!   foreign key on its FK side — both children would be forced to be the
//!   same tuple.
//!
//! Generation is breadth-first over partial trees with canonical-form (AHU)
//! duplicate elimination. E02 measures what the canonical check saves by
//! reading [`CnGenerator::duplicates_pruned`]; every caller sets
//! [`CnGenConfig::dedupe`], so nothing switches the check off.

use crate::tupleset::TupleSets;
use kwdb_relational::{Database, SchemaGraph, TableId};
use std::collections::{HashMap, HashSet, VecDeque};

/// A CN node: a tuple set `table^mask` (`mask == 0` is the free set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnNode {
    pub table: TableId,
    pub mask: u32,
}

/// A CN edge between node indices, carrying which schema FK it instantiates
/// and its orientation (needed for self-referencing FKs like `cite`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CnEdge {
    pub a: usize,
    pub b: usize,
    /// Index into [`SchemaGraph::edges`].
    pub schema_edge: usize,
    /// Whether node `a` is on the FK (referencing / `from`) side.
    pub a_is_from: bool,
}

impl CnEdge {
    /// Is node `i` (an endpoint) on the FK side of this edge?
    pub fn from_side_is(&self, i: usize) -> bool {
        (i == self.a) == self.a_is_from
    }
}

/// A candidate network.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateNetwork {
    pub nodes: Vec<CnNode>,
    pub edges: Vec<CnEdge>,
}

impl CandidateNetwork {
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Union of node masks.
    pub fn cover_mask(&self) -> u32 {
        self.nodes.iter().fold(0, |m, n| m | n.mask)
    }

    /// Node indices with degree ≤ 1.
    pub fn leaves(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            deg[e.a] += 1;
            deg[e.b] += 1;
        }
        deg.iter()
            .enumerate()
            .filter(|&(_, &d)| d <= 1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of non-free nodes.
    pub fn keyword_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].mask != 0)
            .collect()
    }

    /// Full validity check (used by tests and the generator's acceptance).
    pub fn is_valid(&self, full_mask: u32) -> bool {
        if self.nodes.is_empty() || self.edges.len() + 1 != self.nodes.len() {
            return false;
        }
        // masks pairwise disjoint and total
        let mut seen = 0u32;
        for n in &self.nodes {
            if n.mask & seen != 0 {
                return false;
            }
            seen |= n.mask;
        }
        if seen != full_mask {
            return false;
        }
        // leaves non-free (single node CN: the node is a leaf and must be non-free)
        for leaf in self.leaves() {
            if self.nodes[leaf].mask == 0 {
                return false;
            }
        }
        // connectivity
        let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
        for e in &self.edges {
            adj.entry(e.a).or_default().push(e.b);
            adj.entry(e.b).or_default().push(e.a);
        }
        let mut reach = HashSet::new();
        let mut stack = vec![0usize];
        while let Some(u) = stack.pop() {
            if reach.insert(u) {
                stack.extend(adj.get(&u).into_iter().flatten().copied());
            }
        }
        reach.len() == self.nodes.len()
    }

    /// Canonical AHU code: identical trees (up to node renumbering) get the
    /// same string. Rooted codes are computed at the tree center(s) and the
    /// lexicographically smaller one wins.
    pub fn canonical_code(&self) -> String {
        let n = self.nodes.len();
        if n == 0 {
            return String::new();
        }
        // adjacency entries: (neighbor, schema edge, neighbor-is-from-side)
        let mut adj: Vec<Vec<(usize, usize, bool)>> = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.a].push((e.b, e.schema_edge, e.from_side_is(e.b)));
            adj[e.b].push((e.a, e.schema_edge, e.from_side_is(e.a)));
        }
        centers(n, &adj)
            .into_iter()
            .map(|c| rooted_code(c, usize::MAX, &adj, &self.nodes))
            .min()
            .expect("tree has a center")
    }

    /// Canonical code of the subtree of `node` away from `parent` (table,
    /// mask, FK identity and orientation all included): the operator mesh's
    /// cache key and the partitioners' shareable operator. `each` sees the
    /// code of every subtree below and including this one.
    pub fn subtree_code(&self, node: usize, parent: usize, each: &mut dyn FnMut(&str)) -> String {
        let mut kids: Vec<String> = self
            .edges
            .iter()
            .filter_map(|e| {
                let child = if e.a == node && e.b != parent {
                    e.b
                } else if e.b == node && e.a != parent {
                    e.a
                } else {
                    return None;
                };
                Some(format!(
                    "-{}{}-{}",
                    e.schema_edge,
                    if e.from_side_is(child) { ">" } else { "<" },
                    self.subtree_code(child, node, each)
                ))
            })
            .collect();
        kids.sort();
        let code = format!(
            "{}:{}({})",
            self.nodes[node].table.0,
            self.nodes[node].mask,
            kids.join(",")
        );
        each(&code);
        code
    }

    /// Human-readable rendering, e.g. `author^{widom}⋈write⋈paper^{xml}`.
    pub fn display<S: AsRef<str>>(&self, db: &Database, keywords: &[S]) -> String {
        let node_str = |n: &CnNode| {
            let tname = &db.table(n.table).schema.name;
            if n.mask == 0 {
                tname.clone()
            } else {
                let kws: Vec<&str> = keywords
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| n.mask & (1 << i) != 0)
                    .map(|(_, k)| k.as_ref())
                    .collect();
                format!("{tname}^{{{}}}", kws.join(","))
            }
        };
        if self.edges.is_empty() {
            return node_str(&self.nodes[0]);
        }
        // DFS rendering from node 0
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            adj[e.a].push(e.b);
            adj[e.b].push(e.a);
        }
        fn render(
            u: usize,
            parent: usize,
            adj: &[Vec<usize>],
            f: &dyn Fn(usize) -> String,
        ) -> String {
            let kids: Vec<String> = adj[u]
                .iter()
                .filter(|&&v| v != parent)
                .map(|&v| render(v, u, adj, f))
                .collect();
            if kids.is_empty() {
                f(u)
            } else {
                format!("{}⋈({})", f(u), kids.join(", "))
            }
        }
        render(0, usize::MAX, &adj, &|i| node_str(&self.nodes[i]))
    }
}

fn centers(n: usize, adj: &[Vec<(usize, usize, bool)>]) -> Vec<usize> {
    if n == 1 {
        return vec![0];
    }
    let mut deg: Vec<usize> = adj.iter().map(|a| a.len()).collect();
    let mut layer: VecDeque<usize> = (0..n).filter(|&i| deg[i] <= 1).collect();
    let mut remaining = n;
    let mut removed = vec![false; n];
    while remaining > 2 {
        let mut next = VecDeque::new();
        for &u in &layer {
            removed[u] = true;
            remaining -= 1;
            for &(v, _, _) in &adj[u] {
                if !removed[v] {
                    deg[v] -= 1;
                    if deg[v] == 1 {
                        next.push_back(v);
                    }
                }
            }
        }
        layer = next;
    }
    (0..n).filter(|&i| !removed[i]).collect()
}

fn rooted_code(
    u: usize,
    parent: usize,
    adj: &[Vec<(usize, usize, bool)>],
    nodes: &[CnNode],
) -> String {
    let mut kids: Vec<String> = adj[u]
        .iter()
        .filter(|&&(v, _, _)| v != parent)
        .map(|&(v, se, v_from)| {
            format!(
                "-{se}{}-{}",
                if v_from { ">" } else { "<" },
                rooted_code(v, u, adj, nodes)
            )
        })
        .collect();
    kids.sort();
    format!("{}:{}({})", nodes[u].table.0, nodes[u].mask, kids.join(","))
}

/// Which non-free masks exist per table — the generator's data oracle.
#[derive(Debug, Clone)]
pub struct MaskOracle {
    masks: HashMap<TableId, Vec<u32>>,
    full_mask: u32,
}

impl MaskOracle {
    /// Data-aware oracle: only the non-empty tuple sets of `ts`.
    pub fn from_tuplesets(ts: &TupleSets) -> Self {
        let mut masks: HashMap<TableId, Vec<u32>> = HashMap::new();
        for (t, m) in ts.keys() {
            masks.entry(t).or_default().push(m);
        }
        MaskOracle {
            masks,
            full_mask: ts.full_mask(),
        }
    }

    /// Schema-level oracle: every subset is assumed non-empty for every
    /// listed table (used by E02's CN-count experiments).
    pub fn schema_level(tables: &[TableId], n_keywords: usize) -> Self {
        assert!(n_keywords <= 16);
        let full = if n_keywords == 0 {
            0
        } else {
            (1u32 << n_keywords) - 1
        };
        let all: Vec<u32> = (1..=full).collect();
        MaskOracle {
            masks: tables.iter().map(|&t| (t, all.clone())).collect(),
            full_mask: full,
        }
    }

    fn masks_for(&self, t: TableId) -> &[u32] {
        self.masks.get(&t).map(|v| v.as_slice()).unwrap_or(&[])
    }

    fn tables(&self) -> Vec<TableId> {
        let mut t: Vec<TableId> = self.masks.keys().copied().collect();
        t.sort();
        t
    }
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct CnGenConfig {
    /// Maximum CN size (node count) — `Tmax` in the literature.
    pub max_size: usize,
    /// Canonical-form duplicate elimination. Every caller sets it `true`:
    /// an inert name, deleted by ROADMAP 1(a) (`benchmark/` builds the
    /// literal).
    pub dedupe: bool,
    /// Safety cap on produced CNs (0 = unlimited).
    pub max_cns: usize,
}

impl Default for CnGenConfig {
    fn default() -> Self {
        CnGenConfig {
            max_size: 5,
            dedupe: true,
            max_cns: 0,
        }
    }
}

/// Breadth-first CN generator.
#[derive(Debug)]
pub struct CnGenerator<'a> {
    schema: &'a SchemaGraph,
    oracle: &'a MaskOracle,
    cfg: CnGenConfig,
    /// Partial trees enqueued (work metric).
    pub partials_enqueued: usize,
    /// Partial trees skipped as canonical duplicates.
    pub duplicates_pruned: usize,
}

impl<'a> CnGenerator<'a> {
    pub fn new(schema: &'a SchemaGraph, oracle: &'a MaskOracle, cfg: CnGenConfig) -> Self {
        CnGenerator {
            schema,
            oracle,
            cfg,
            partials_enqueued: 0,
            duplicates_pruned: 0,
        }
    }

    /// Enumerate all valid CNs up to `max_size`, smallest first.
    pub fn generate(&mut self) -> Vec<CandidateNetwork> {
        let full = self.oracle.full_mask;
        let mut results = Vec::new();
        if full == 0 {
            return results;
        }
        let mut queue: VecDeque<CandidateNetwork> = VecDeque::new();
        let mut seen_partial: HashSet<String> = HashSet::new();
        let mut seen_result: HashSet<String> = HashSet::new();

        for t in self.oracle.tables() {
            for &m in self.oracle.masks_for(t) {
                let cn = CandidateNetwork {
                    nodes: vec![CnNode { table: t, mask: m }],
                    edges: vec![],
                };
                self.enqueue(cn, &mut queue, &mut seen_partial);
            }
        }

        while let Some(cn) = queue.pop_front() {
            let cover = cn.cover_mask();
            if cover == full {
                // acceptance: all leaves non-free
                if cn.leaves().iter().all(|&i| cn.nodes[i].mask != 0) {
                    let code = cn.canonical_code();
                    if !self.cfg.dedupe || seen_result.insert(code) {
                        results.push(cn);
                        if self.cfg.max_cns > 0 && results.len() >= self.cfg.max_cns {
                            break;
                        }
                    }
                }
                // complete trees cannot be usefully extended (any new node is
                // free and creates an unfixable free leaf eventually, and
                // non-free masks would overlap)
                continue;
            }
            if cn.size() >= self.cfg.max_size {
                continue;
            }
            // expand: attach a neighbor tuple set to any node
            for i in 0..cn.nodes.len() {
                let t = cn.nodes[i].table;
                for (se_idx, se) in self.schema.edges().iter().enumerate() {
                    // i_on_from_side = node i plays the referencing role of
                    // this FK (its fk column points at the new node's PK).
                    // Self-referencing edges (from == to) allow both roles.
                    for i_on_from_side in attach_sides(se.from == t, se.to == t) {
                        // non-redundancy: an FK column holds one value, so a
                        // node may act as its `from` side at most once
                        if i_on_from_side
                            && cn.edges.iter().any(|e| {
                                e.schema_edge == se_idx
                                    && (e.a == i || e.b == i)
                                    && e.from_side_is(i)
                            })
                        {
                            continue;
                        }
                        let new_table = if i_on_from_side { se.to } else { se.from };
                        // candidate masks: free + disjoint non-free
                        let mut mask_options = vec![0u32];
                        for &m in self.oracle.masks_for(new_table) {
                            if m & cover == 0 {
                                mask_options.push(m);
                            }
                        }
                        for m in mask_options {
                            let mut next = cn.clone();
                            let j = next.nodes.len();
                            next.nodes.push(CnNode {
                                table: new_table,
                                mask: m,
                            });
                            next.edges.push(CnEdge {
                                a: i,
                                b: j,
                                schema_edge: se_idx,
                                a_is_from: i_on_from_side,
                            });
                            self.enqueue(next, &mut queue, &mut seen_partial);
                        }
                    }
                }
            }
        }
        results
    }

    fn enqueue(
        &mut self,
        cn: CandidateNetwork,
        queue: &mut VecDeque<CandidateNetwork>,
        seen: &mut HashSet<String>,
    ) {
        if self.cfg.dedupe {
            let code = cn.canonical_code();
            if !seen.insert(code) {
                self.duplicates_pruned += 1;
                return;
            }
        }
        self.partials_enqueued += 1;
        queue.push_back(cn);
    }
}

/// For a schema edge incident to table `t`, which attachment orientations
/// apply: attaching on the FK (`from`) side creates the referenced (`to`)
/// table; on the PK (`to`) side creates the referencing (`from`) table.
/// Self-referencing edges (from == to) allow both.
fn attach_sides(t_is_from: bool, t_is_to: bool) -> Vec<bool> {
    match (t_is_from, t_is_to) {
        (true, true) => vec![true, false],
        (true, false) => vec![true],
        (false, true) => vec![false],
        (false, false) => vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_relational::database::dblp_schema;
    use kwdb_relational::{ColumnType, Database, TableBuilder};

    /// Minimal A ← W → P schema (slide 28).
    fn awp() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableBuilder::new("author")
                .column("aid", ColumnType::Int)
                .column("name", ColumnType::Text)
                .primary_key("aid"),
        )
        .unwrap();
        db.create_table(
            TableBuilder::new("paper")
                .column("pid", ColumnType::Int)
                .column("title", ColumnType::Text)
                .primary_key("pid"),
        )
        .unwrap();
        db.create_table(
            TableBuilder::new("write")
                .column("aid", ColumnType::Int)
                .column("pid", ColumnType::Int)
                .foreign_key("aid", "author")
                .foreign_key("pid", "paper"),
        )
        .unwrap();
        db
    }

    fn awp_tables(db: &Database) -> Vec<TableId> {
        ["author", "paper", "write"]
            .iter()
            .map(|t| db.table_id(t).unwrap())
            .collect()
    }

    #[test]
    fn slide28_cn_shapes_for_two_keywords() {
        // Q = {widom, xml}: slide 28 lists 5 CNs up to size 5:
        //   A^Q | P^Q | A^q1–W–P^q2 (plus swap, same canonical shape family)
        //   A–W–P–W–A | P–W–A–W–P
        let db = awp();
        let oracle = MaskOracle::schema_level(&awp_tables(&db), 2);
        let cfg = CnGenConfig {
            max_size: 5,
            dedupe: true,
            max_cns: 0,
        };
        let mut generator = CnGenerator::new(db.schema_graph(), &oracle, cfg);
        let cns = generator.generate();
        for cn in &cns {
            assert!(cn.is_valid(0b11), "invalid CN: {cn:?}");
        }
        // Size-1: A^{12}, P^{12}, W^{12} (schema-level oracle includes W text)
        let size1 = cns.iter().filter(|c| c.size() == 1).count();
        assert_eq!(size1, 3);
        // The classic A^{k1}–W–P^{k2} shape must be present.
        let author = db.table_id("author").unwrap();
        let paper = db.table_id("paper").unwrap();
        let has_awp = cns.iter().any(|c| {
            c.size() == 3
                && c.nodes.iter().any(|n| n.table == author && n.mask == 0b01)
                && c.nodes.iter().any(|n| n.table == paper && n.mask == 0b10)
        });
        assert!(has_awp);
        // A^{k1}–W–A^{k2} (two authors of one... wait, W joins one author) —
        // two authors joined through one W is forbidden by non-redundancy.
        let two_authors_one_write = cns
            .iter()
            .any(|c| c.size() == 3 && c.nodes.iter().filter(|n| n.table == author).count() == 2);
        assert!(
            !two_authors_one_write,
            "W^{{}} cannot reference two distinct authors through one aid"
        );
    }

    #[test]
    fn canonical_dedup_removes_mirror_enumerations() {
        let db = awp();
        let oracle = MaskOracle::schema_level(&awp_tables(&db), 2);
        let mut with = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: 4,
                dedupe: true,
                max_cns: 0,
            },
        );
        let deduped = with.generate();
        assert!(with.duplicates_pruned > 0);
        // all canonical codes distinct
        let codes: HashSet<String> = deduped.iter().map(|c| c.canonical_code()).collect();
        assert_eq!(codes.len(), deduped.len());
    }

    #[test]
    fn canonical_code_invariant_under_renumbering() {
        let db = awp();
        let a = db.table_id("author").unwrap();
        let p = db.table_id("paper").unwrap();
        let w = db.table_id("write").unwrap();
        let cn1 = CandidateNetwork {
            nodes: vec![
                CnNode { table: a, mask: 1 },
                CnNode { table: w, mask: 0 },
                CnNode { table: p, mask: 2 },
            ],
            edges: vec![
                CnEdge {
                    a: 1,
                    b: 0,
                    schema_edge: 0,
                    a_is_from: true,
                },
                CnEdge {
                    a: 1,
                    b: 2,
                    schema_edge: 1,
                    a_is_from: true,
                },
            ],
        };
        let cn2 = CandidateNetwork {
            nodes: vec![
                CnNode { table: p, mask: 2 },
                CnNode { table: w, mask: 0 },
                CnNode { table: a, mask: 1 },
            ],
            edges: vec![
                CnEdge {
                    a: 1,
                    b: 2,
                    schema_edge: 0,
                    a_is_from: true,
                },
                CnEdge {
                    a: 0,
                    b: 1,
                    schema_edge: 1,
                    a_is_from: false,
                },
            ],
        };
        assert_eq!(cn1.canonical_code(), cn2.canonical_code());
    }

    #[test]
    fn free_leaf_rejected_by_validity() {
        let db = awp();
        let a = db.table_id("author").unwrap();
        let w = db.table_id("write").unwrap();
        let cn = CandidateNetwork {
            nodes: vec![
                CnNode {
                    table: a,
                    mask: 0b11,
                },
                CnNode { table: w, mask: 0 },
            ],
            edges: vec![CnEdge {
                a: 0,
                b: 1,
                schema_edge: 0,
                a_is_from: false,
            }],
        };
        assert!(!cn.is_valid(0b11));
    }

    #[test]
    fn growth_with_max_size() {
        let db = awp();
        let oracle = MaskOracle::schema_level(&awp_tables(&db), 2);
        let mut counts = Vec::new();
        for tmax in 1..=7 {
            let mut g = CnGenerator::new(
                db.schema_graph(),
                &oracle,
                CnGenConfig {
                    max_size: tmax,
                    dedupe: true,
                    max_cns: 0,
                },
            );
            counts.push(g.generate().len());
        }
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert!(counts[6] > counts[2], "CN count must grow with Tmax");
    }

    #[test]
    fn data_aware_oracle_restricts_masks() {
        let mut db = awp();
        db.insert("author", vec![1.into(), "widom".into()]).unwrap();
        db.insert("paper", vec![10.into(), "xml".into()]).unwrap();
        db.insert("write", vec![1.into(), 10.into()]).unwrap();
        db.build_text_index();
        let ts = TupleSets::build(&db, &["widom", "xml"]).unwrap();
        let oracle = MaskOracle::from_tuplesets(&ts);
        let mut g = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: 3,
                dedupe: true,
                max_cns: 0,
            },
        );
        let cns = g.generate();
        // No single tuple matches both keywords → no size-1 CN.
        assert!(cns.iter().all(|c| c.size() > 1));
        // The A^{widom}–W–P^{xml} CN exists.
        assert!(cns.iter().any(|c| c.size() == 3));
    }

    #[test]
    fn display_renders_masks() {
        let db = awp();
        let a = db.table_id("author").unwrap();
        let cn = CandidateNetwork {
            nodes: vec![CnNode {
                table: a,
                mask: 0b1,
            }],
            edges: vec![],
        };
        assert_eq!(cn.display(&db, &["widom", "xml"]), "author^{widom}");
    }

    #[test]
    fn cite_self_reference_generates_both_orientations() {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        let paper = db.table_id("paper").unwrap();
        let oracle = MaskOracle::schema_level(&[paper], 2);
        let mut g = CnGenerator::new(
            db.schema_graph(),
            &oracle,
            CnGenConfig {
                max_size: 3,
                dedupe: true,
                max_cns: 0,
            },
        );
        let cns = g.generate();
        // P^{k1}–cite–P^{k2} must appear (papers connected by citation)
        assert!(cns
            .iter()
            .any(|c| c.size() == 3 && c.nodes.iter().filter(|n| n.table == paper).count() == 2));
    }
}
