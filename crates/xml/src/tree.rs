//! Arena XML tree with pre-order node ids.
//!
//! Because ids are assigned in pre-order, the subtree of `n` is exactly the
//! id interval `[n, n + subtree_size(n))`: containment is two comparisons
//! against an array computed once at build, and LCA climbs the parent chain.
//! Parent, depth and subtree size live in dense `u32` arrays indexed by id,
//! apart from the node records, so a climb step reads 8 bytes. Dewey
//! identifiers are derived on demand for the callers that print or
//! resolve positions.

use crate::dewey::Dewey;
use kwdb_common::intern::{Interner, Sym};

/// Node identifier. Because the arena is filled in document (pre-)order,
/// `NodeId` order *is* document order — the inverted lists exploit this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub label: Sym,
    pub children: Vec<NodeId>,
    pub text: Option<String>,
}

/// `parent` entry of the root, which has none.
const NO_PARENT: u32 = u32::MAX;

/// An XML document as an arena of element nodes.
///
/// Text content lives on the element that directly contains it (mixed
/// content is concatenated). Attributes are modeled as child elements whose
/// label starts with `@`, which lets every algorithm treat them uniformly.
#[derive(Debug, Clone)]
pub struct XmlTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) labels: Interner,
    /// The structure, dense by id: parent ([`NO_PARENT`] for the root),
    /// depth (0 for the root) and subtree size.
    parent: Vec<u32>,
    depth: Vec<u32>,
    sizes: Vec<u32>,
    avg_leaf_depth: f64,
}

impl XmlTree {
    /// Start building a tree whose root element has `label`.
    pub fn builder(label: &str) -> XmlBuilder {
        XmlBuilder::new(label)
    }

    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn label(&self, n: NodeId) -> &str {
        self.labels.resolve(self.nodes[n.0 as usize].label)
    }

    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parent[n.0 as usize];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.0 as usize].children
    }

    pub fn text(&self, n: NodeId) -> Option<&str> {
        self.nodes[n.0 as usize].text.as_deref()
    }

    /// The Dewey id of `n`, built from the parent chain and each node's
    /// ordinal among its parent's children. O(depth · log fan-out); for
    /// printing and resolving positions — the search algorithms compare
    /// pre-order intervals instead.
    pub fn dewey(&self, n: NodeId) -> Dewey {
        let mut path = vec![0u32; self.depth(n) as usize];
        let mut cur = n;
        for slot in path.iter_mut().rev() {
            let p = self.parent(cur).expect("depth counts the parent chain");
            // children are appended in pre-order, so their ids ascend
            *slot = self
                .children(p)
                .binary_search(&cur)
                .expect("a node is among its parent's children") as u32;
            cur = p;
        }
        Dewey::from_path(path)
    }

    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.0 as usize]
    }

    /// Resolve a Dewey id back to the node carrying it, or `None` if no such
    /// node exists. O(depth).
    pub fn node_at(&self, d: &Dewey) -> Option<NodeId> {
        let mut cur = self.root();
        for &ord in d.components() {
            cur = *self.children(cur).get(ord as usize)?;
        }
        Some(cur)
    }

    /// Lowest common ancestor of two nodes: climb from `a` until its
    /// pre-order interval holds `b`. O(depth), no allocation.
    pub fn lca(&self, mut a: NodeId, b: NodeId) -> NodeId {
        while !self.is_ancestor_or_self(a, b) {
            a = self
                .parent(a)
                .expect("the root's interval holds every node");
        }
        a
    }

    /// Is `a` an ancestor of `b` (proper)? `b` lies strictly inside `a`'s
    /// pre-order interval.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        a < b && b < self.subtree_end(a)
    }

    /// Is `a` an ancestor of `b` or `b` itself?
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        a <= b && b < self.subtree_end(a)
    }

    /// Pre-order iterator over all node ids.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Nodes in the subtree rooted at `n` (including `n`), document order:
    /// the id interval `n .. subtree_end(n)`.
    pub fn subtree(&self, n: NodeId) -> Vec<NodeId> {
        (n.0..self.subtree_end(n).0).map(NodeId).collect()
    }

    /// Number of nodes in the subtree rooted at `n`.
    pub fn subtree_size(&self, n: NodeId) -> usize {
        self.sizes[n.0 as usize] as usize
    }

    /// One past the last node of `n`'s subtree: the subtree is the id range
    /// `n .. subtree_end(n)`.
    pub fn subtree_end(&self, n: NodeId) -> NodeId {
        NodeId(n.0 + self.sizes[n.0 as usize])
    }

    /// Root-to-node label path, e.g. `/conf/paper/title`: one walk up the
    /// parent chain sizes the buffer, a second fills it from the back.
    pub fn label_path(&self, n: NodeId) -> String {
        let chain = || std::iter::successors(Some(n), |&x| self.parent(x));
        let mut end: usize = chain().map(|x| 1 + self.label(x).len()).sum();
        let mut path = vec![b'/'; end];
        for label in chain().map(|x| self.label(x).as_bytes()) {
            path[end - label.len()..end].copy_from_slice(label);
            end -= 1 + label.len();
        }
        String::from_utf8(path).expect("labels are UTF-8")
    }

    /// All text in the subtree of `n`, concatenated in document order.
    pub fn subtree_text(&self, n: NodeId) -> String {
        let mut out = String::new();
        for x in self.subtree(n) {
            if let Some(t) = self.text(x) {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(t);
            }
        }
        out
    }

    /// Subtree size of every node, dense by id, computed at build. Because
    /// node ids are pre-order, the subtree of `n` is exactly the id range
    /// `[n, n + sizes[n])` — the interval trick the SLCA/ELCA algorithms use.
    pub fn subtree_sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Average leaf depth, computed at build; proximity ranking discounts
    /// by it.
    pub fn avg_leaf_depth(&self) -> f64 {
        self.avg_leaf_depth
    }

    /// Serialize back to XML text (for snippets and debugging).
    pub fn to_xml(&self, n: NodeId) -> String {
        let mut s = String::new();
        self.write_xml(n, &mut s);
        s
    }

    fn write_xml(&self, n: NodeId, out: &mut String) {
        let label = self.label(n);
        out.push('<');
        out.push_str(label);
        out.push('>');
        if let Some(t) = self.text(n) {
            out.push_str(t);
        }
        for &c in self.children(n) {
            self.write_xml(c, out);
        }
        out.push_str("</");
        out.push_str(label);
        out.push('>');
    }
}

/// Cursor-style builder producing an [`XmlTree`] in document order.
#[derive(Debug)]
pub struct XmlBuilder {
    nodes: Vec<Node>,
    labels: Interner,
    parent: Vec<u32>,
    depth: Vec<u32>,
    /// Stack of open elements.
    open: Vec<NodeId>,
}

impl XmlBuilder {
    pub fn new(root_label: &str) -> Self {
        let mut labels = Interner::new();
        let sym = labels.intern(root_label);
        let root = Node {
            label: sym,
            children: Vec::new(),
            text: None,
        };
        XmlBuilder {
            nodes: vec![root],
            labels,
            parent: vec![NO_PARENT],
            depth: vec![0],
            open: vec![NodeId(0)],
        }
    }

    fn current(&self) -> NodeId {
        *self.open.last().expect("builder has no open element")
    }

    /// Open a child element and descend into it.
    pub fn open(&mut self, label: &str) -> &mut Self {
        let parent = self.current();
        let sym = self.labels.intern(label);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label: sym,
            children: Vec::new(),
            text: None,
        });
        self.parent.push(parent.0);
        self.depth.push(self.open.len() as u32);
        self.nodes[parent.0 as usize].children.push(id);
        self.open.push(id);
        self
    }

    /// Append text content to the current element.
    pub fn text(&mut self, t: &str) -> &mut Self {
        let cur = self.current();
        let slot = &mut self.nodes[cur.0 as usize].text;
        match slot {
            Some(existing) => {
                existing.push(' ');
                existing.push_str(t);
            }
            None => *slot = Some(t.to_string()),
        }
        self
    }

    /// Close the current element, ascending to its parent.
    pub fn close(&mut self) -> &mut Self {
        assert!(self.open.len() > 1, "cannot close the root element");
        self.open.pop();
        self
    }

    /// Shorthand: open an element, set text, close it.
    pub fn leaf(&mut self, label: &str, text: &str) -> &mut Self {
        self.open(label).text(text).close()
    }

    /// Finish. Panics if elements other than the root remain open — a
    /// construction bug, not a runtime condition.
    pub fn build(mut self) -> XmlTree {
        assert_eq!(self.open.len(), 1, "unclosed elements at build()");
        self.open.clear();
        let (nodes, parent, depth) = (self.nodes, self.parent, self.depth);
        let mut sizes = vec![1u32; nodes.len()];
        // children have larger ids than parents; accumulate in reverse
        for i in (1..nodes.len()).rev() {
            sizes[parent[i] as usize] += sizes[i];
        }
        let (mut leaves, mut depth_sum) = (0usize, 0.0f64);
        for (_, &d) in nodes
            .iter()
            .zip(&depth)
            .filter(|(n, _)| n.children.is_empty())
        {
            leaves += 1;
            depth_sum += d as f64;
        }
        XmlTree {
            avg_leaf_depth: if leaves == 0 {
                0.0
            } else {
                depth_sum / leaves as f64
            },
            parent,
            depth,
            sizes,
            nodes,
            labels: self.labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XmlTree {
        let mut b = XmlTree::builder("conf");
        b.leaf("name", "SIGMOD")
            .leaf("year", "2007")
            .open("paper")
            .leaf("title", "keyword search")
            .leaf("author", "Mark")
            .close();
        b.build()
    }

    #[test]
    fn structure_is_document_order() {
        let t = sample();
        assert_eq!(t.len(), 6);
        assert_eq!(t.label(t.root()), "conf");
        let kids = t.children(t.root());
        assert_eq!(kids.len(), 3);
        assert_eq!(t.label(kids[2]), "paper");
        // NodeId order == document order
        let ids: Vec<u32> = t.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn dewey_assignment() {
        let t = sample();
        let paper = t.children(t.root())[2];
        assert_eq!(t.dewey(paper).components(), &[2]);
        let title = t.children(paper)[0];
        assert_eq!(t.dewey(title).components(), &[2, 0]);
        assert_eq!(t.node_at(&t.dewey(title)), Some(title));
        assert_eq!(t.dewey(t.root()), Dewey::root());
        assert_eq!(t.depth(title), 2);
    }

    #[test]
    fn lca_and_ancestor() {
        let t = sample();
        let paper = t.children(t.root())[2];
        let title = t.children(paper)[0];
        let author = t.children(paper)[1];
        assert_eq!(t.lca(title, author), paper);
        assert_eq!(t.lca(title, t.children(t.root())[0]), t.root());
        assert!(t.is_ancestor(t.root(), title));
        assert!(!t.is_ancestor(title, t.root()));
        assert!(!t.is_ancestor(title, title) && t.is_ancestor_or_self(title, title));
        assert!(!t.is_ancestor(paper, t.children(t.root())[0]));
        assert!(!t.is_ancestor(title, author));
    }

    #[test]
    fn subtree_and_text() {
        let t = sample();
        let paper = t.children(t.root())[2];
        assert_eq!(t.subtree_size(paper), 3);
        assert_eq!(t.subtree_end(paper), NodeId(paper.0 + 3));
        assert_eq!(t.subtree_sizes(), &[6, 1, 1, 3, 1, 1]);
        assert_eq!(t.subtree_text(paper), "keyword search Mark");
        assert_eq!(t.subtree(paper).len(), 3);
    }

    #[test]
    fn label_path() {
        let t = sample();
        let paper = t.children(t.root())[2];
        let title = t.children(paper)[0];
        assert_eq!(t.label_path(title), "/conf/paper/title");
        assert_eq!(t.label_path(t.root()), "/conf");
    }

    #[test]
    fn to_xml_round_text() {
        let t = sample();
        let paper = t.children(t.root())[2];
        assert_eq!(
            t.to_xml(paper),
            "<paper><title>keyword search</title><author>Mark</author></paper>"
        );
    }

    #[test]
    fn avg_leaf_depth() {
        let t = sample();
        // leaves: name(1), year(1), title(2), author(2) → 1.5
        assert!((t.avg_leaf_depth() - 1.5).abs() < 1e-12);
    }

    /// Subtree size by a fresh walk over the children lists.
    fn walk_size(t: &XmlTree, n: NodeId) -> usize {
        1 + t
            .children(n)
            .iter()
            .map(|&c| walk_size(t, c))
            .sum::<usize>()
    }

    /// Interval containment, the parent-chain LCA, the structure arrays
    /// (parent, depth, sizes) and the derived Dewey ids agree with Dewey
    /// algebra and fresh walks on random trees, bushy and chain-like.
    #[test]
    fn interval_and_climb_agree_with_dewey_algebra() {
        let mut rng = kwdb_common::Rng::seed_from_u64(7);
        for round in 0..40 {
            let mut b = XmlTree::builder("r");
            let mut depth = 0;
            for _ in 0..rng.gen_range(1usize..60) {
                // odd rounds close an element only one open in eight
                let pops = if round % 2 == 0 || rng.gen_index(8) == 0 {
                    rng.gen_index(3)
                } else {
                    0
                };
                for _ in 0..pops.min(depth) {
                    b.close();
                    depth -= 1;
                }
                b.open("n");
                depth += 1;
            }
            for _ in 0..depth {
                b.close();
            }
            let t = b.build();
            let leaves: Vec<f64> = t
                .iter()
                .filter(|&n| t.children(n).is_empty())
                .map(|n| t.depth(n) as f64)
                .collect();
            let avg = leaves.iter().sum::<f64>() / leaves.len() as f64;
            assert_eq!(t.avg_leaf_depth().to_bits(), avg.to_bits());
            assert_eq!((t.parent(t.root()), t.depth(t.root())), (None, 0));
            for a in t.iter() {
                for &c in t.children(a) {
                    assert_eq!(t.parent(c), Some(a));
                    assert_eq!(t.depth(c), t.depth(a) + 1);
                }
                let da = t.dewey(a);
                assert_eq!(t.subtree_size(a), walk_size(&t, a));
                assert_eq!(t.subtree_sizes()[a.0 as usize] as usize, walk_size(&t, a));
                assert_eq!(t.node_at(&da), Some(a));
                for c in t.iter() {
                    let dc = t.dewey(c);
                    assert_eq!(t.is_ancestor(a, c), da.is_ancestor_of(&dc));
                    assert_eq!(t.is_ancestor_or_self(a, c), da.is_ancestor_or_self(&dc));
                    assert_eq!(t.dewey(t.lca(a, c)), da.lca(&dc));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unbalanced_build_panics() {
        let mut b = XmlTree::builder("r");
        b.open("x");
        b.build();
    }

    #[test]
    fn mixed_text_concatenates() {
        let mut b = XmlTree::builder("r");
        b.text("hello").text("world");
        let t = b.build();
        assert_eq!(t.text(t.root()), Some("hello world"));
    }
}
