//! ElemRank: XRank's authority ranking for XML elements
//! (Guo et al., SIGMOD 03) — the ranking half of slide 137's engine.
//!
//! PageRank adapted to element trees: authority flows from parents to
//! children (containment is an endorsement), from children back to parents
//! (an element aggregates its content's importance), with the two directions
//! weighted differently. XRank ranks ELCA answers by the authority of their
//! result roots combined with keyword proximity ([`rank_results`]); only
//! this module's tests call it.

use kwdb_rank::pagerank::{PageRank, PageRankConfig};
use kwdb_xml::{NodeId, XmlTree};

/// Forward (parent→child) vs backward (child→parent) flow weights.
const DOWNWARD: f64 = 1.0;
const UPWARD: f64 = 0.7;

/// Compute ElemRank authorities for every node.
pub fn elem_rank(tree: &XmlTree) -> Vec<f64> {
    let mut pr = PageRank::new(tree.len());
    for n in tree.iter() {
        for &c in tree.children(n) {
            pr.add_edge(n.0 as usize, c.0 as usize, DOWNWARD, UPWARD);
        }
    }
    pr.run(&PageRankConfig::default())
}

/// Rank result roots by `authority · proximity` where proximity is the
/// reciprocal subtree size (XRank combines both signals).
pub fn rank_results(tree: &XmlTree, results: &[NodeId]) -> Vec<(NodeId, f64)> {
    let authority = elem_rank(tree);
    let mut out: Vec<(NodeId, f64)> = results
        .iter()
        .map(|&r| {
            let score = authority[r.0 as usize] / (1.0 + (tree.subtree_size(r) as f64).ln());
            (r, score)
        })
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_xml::XmlBuilder;

    fn tree() -> XmlTree {
        let mut b = XmlBuilder::new("bib");
        b.open("conf");
        for i in 0..5 {
            b.open("paper").leaf("title", &format!("t{i}")).close();
        }
        b.close();
        b.open("workshop");
        b.open("paper").leaf("title", "w0").close();
        b.close();
        b.build()
    }

    #[test]
    fn authorities_form_a_distribution() {
        let t = tree();
        let a = elem_rank(&t);
        assert_eq!(a.len(), t.len());
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(a.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn hub_venue_outranks_sparse_venue() {
        let t = tree();
        let a = elem_rank(&t);
        let conf = t.children(t.root())[0];
        let workshop = t.children(t.root())[1];
        assert!(
            a[conf.0 as usize] > a[workshop.0 as usize],
            "a venue with 5 papers aggregates more authority than one with 1"
        );
    }

    #[test]
    fn rank_results_orders_descending() {
        let t = tree();
        let papers: Vec<NodeId> = t.iter().filter(|&n| t.label(n) == "paper").collect();
        let ranked = rank_results(&t, &papers);
        assert_eq!(ranked.len(), papers.len());
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
