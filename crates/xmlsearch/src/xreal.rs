//! XReal: statistics-driven inference of the *search-for node type*
//! (Bao et al., ICDE 09) — tutorial slides 37–38.
//!
//! For query `Q = {k₁,…,k_l}` XReal scores every label path `T` by
//!
//! ```text
//! C(T) = ln(1 + Π_k f(T, k)) · r^{depth(T)}
//! ```
//!
//! where `f(T, k)` is the number of `T`-typed nodes whose subtree contains
//! `k` (from [`kwdb_xml::PathStats`]) and `r < 1` gently prefers higher
//! (more general) types. The product guarantees the slide-37 behaviour: a
//! type that cannot match *all* keywords scores exactly 0
//! (`/phdthesis/paper → 0`), and `/conf/paper` outranks `/journal/paper`
//! when conference papers dominate the keyword statistics.

use kwdb_xml::{NodeId, PathStats, XmlIndex, XmlTree};

/// Depth-reduction factor `r`.
const DEPTH_FACTOR: f64 = 0.8;

/// A scored candidate return type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeScore {
    pub path: String,
    pub score: f64,
}

/// Rank all label paths as search-for types for `keywords`, best first.
/// Paths that cannot cover every keyword are omitted (score 0).
pub fn infer_return_types<S: AsRef<str>>(stats: &PathStats, keywords: &[S]) -> Vec<TypeScore> {
    let mut out: Vec<TypeScore> = stats
        .paths()
        .filter_map(|(path, _)| {
            let mut product = 1.0f64;
            for k in keywords {
                let f = stats.term_node_count(path, k.as_ref());
                if f == 0 {
                    return None;
                }
                product *= f as f64;
            }
            let depth = PathStats::path_depth(path) as i32;
            let score = (1.0 + product).ln() * DEPTH_FACTOR.powi(depth);
            Some(TypeScore {
                path: path.to_string(),
                score,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap()
            .then(a.path.cmp(&b.path))
    });
    out
}

/// Score of one specific path (0 when it cannot cover all keywords).
pub fn type_score<S: AsRef<str>>(stats: &PathStats, path: &str, keywords: &[S]) -> f64 {
    let mut product = 1.0f64;
    for k in keywords {
        let f = stats.term_node_count(path, k.as_ref());
        if f == 0 {
            return 0.0;
        }
        product *= f as f64;
    }
    (1.0 + product).ln() * DEPTH_FACTOR.powi(PathStats::path_depth(path) as i32)
}

/// XReal phase 2: score the *instances* of the chosen type. Leaf content
/// contributes tf·ief; internal nodes aggregate their children — here
/// computed directly over subtree term frequencies.
pub fn score_instances<S: AsRef<str>>(
    tree: &XmlTree,
    index: &XmlIndex,
    type_path: &str,
    keywords: &[S],
) -> Vec<(NodeId, f64)> {
    let n_nodes = tree.len() as f64;
    let mut out: Vec<(NodeId, f64)> = tree
        .iter()
        .filter(|&n| tree.label_path(n) == type_path)
        .map(|n| {
            let end = tree.subtree_end(n);
            let score: f64 = keywords
                .iter()
                .map(|k| {
                    let list = index.nodes(k.as_ref());
                    let tf = list.count_between(n, end) as f64;
                    if tf == 0.0 {
                        0.0
                    } else {
                        let ief = (n_nodes / (list.len() as f64)).ln().max(0.0) + 1.0;
                        (1.0 + tf.ln()) * ief
                    }
                })
                .sum();
            (n, score)
        })
        .collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_xml::XmlBuilder;

    /// Slide 37's shape: Widom's XML papers live under conf; journals have
    /// fewer; phdthesis has none.
    fn bib() -> kwdb_xml::XmlTree {
        let mut b = XmlBuilder::new("bib");
        b.open("conf");
        for i in 0..3 {
            b.open("paper")
                .leaf("author", "Widom")
                .leaf("title", &format!("XML study {i}"))
                .close();
        }
        b.close();
        b.open("journal");
        b.open("paper")
            .leaf("author", "Widom")
            .leaf("title", "XML journal work")
            .close();
        b.open("paper")
            .leaf("author", "Other")
            .leaf("title", "Relational")
            .close();
        b.close();
        b.open("phdthesis");
        b.open("paper")
            .leaf("author", "Student")
            .leaf("title", "Thesis on graphs")
            .close();
        b.close();
        b.build()
    }

    #[test]
    fn conf_paper_outranks_journal_paper() {
        let t = bib();
        let stats = kwdb_xml::PathStats::build(&t);
        let kws = ["widom", "xml"];
        let ranked = infer_return_types(&stats, &kws);
        assert!(!ranked.is_empty());
        let pos = |p: &str| ranked.iter().position(|ts| ts.path == p);
        let conf = pos("/bib/conf/paper").expect("conf paper is a candidate");
        let journal = pos("/bib/journal/paper").expect("journal paper is a candidate");
        assert!(
            conf < journal,
            "conf {conf} must rank above journal {journal}"
        );
        // phdthesis/paper can't match → absent (score 0 per slide 37)
        assert!(pos("/bib/phdthesis/paper").is_none());
        assert_eq!(type_score(&stats, "/bib/phdthesis/paper", &kws), 0.0);
    }

    #[test]
    fn depth_factor_prefers_types_over_deep_leaves() {
        let t = bib();
        let stats = kwdb_xml::PathStats::build(&t);
        // With a single keyword contained in both paper and title, the
        // shallower path must get the depth advantage when counts are equal.
        let s_paper = type_score(&stats, "/bib/journal/paper", &["xml"]);
        let s_title = type_score(&stats, "/bib/journal/paper/title", &["xml"]);
        assert!(s_paper > s_title);
    }

    #[test]
    fn instances_ranked_by_content() {
        let t = bib();
        let ix = kwdb_xml::XmlIndex::build(&t);
        let ranked = score_instances(&t, &ix, "/bib/conf/paper", &["widom", "xml"]);
        assert_eq!(ranked.len(), 3);
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
        assert!(ranked[0].1 > 0.0);
    }

    #[test]
    fn no_candidates_for_unmatched_keyword() {
        let t = bib();
        let stats = kwdb_xml::PathStats::build(&t);
        assert!(infer_return_types(&stats, &["widom", "zzz"]).is_empty());
    }
}
