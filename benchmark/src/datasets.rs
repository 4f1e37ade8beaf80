//! The benchmark's datasets: fixed scales, fixed generator seeds (the
//! `--seed` argument drives the *load*, never the data), and the digests
//! every run checks its inputs against.

use crate::harness::{relational_vocab, DatasetDigest};
use kwdb::datasets::{generate_bib_xml, generate_dblp, BibConfig, DblpConfig};
use kwdb::graph::graph::{from_database, EdgeWeighting};
use kwdb::graph::DataGraph;
use kwdb::relational::Database;
use kwdb::xml::{XmlIndex, XmlTree};

/// ≈10 k tuples: the exploration workload (faceted misses are exhaustive).
pub const DBLP_SMALL: DblpConfig = dblp(2_000);
/// ≈100 k tuples: cold top-k and ingest.
pub const DBLP_LARGE: DblpConfig = dblp(20_000);
/// ≈40 k tuples, the source of the data graph. Not the 100 k of
/// `DBLP_LARGE`: the BLINKS index costs ~0.65 s per 10 k nodes to build and
/// set-up is repeated three times inside the driver's per-run time budget.
pub const DBLP_GRAPH: DblpConfig = dblp(8_000);

pub const BIB_LARGE: BibConfig = BibConfig {
    n_conferences: 200,
    n_journals: 100,
    papers_per_venue: 66,
    authors_per_paper: 2,
    seed: 0x0b1b,
};

const fn dblp(papers: usize) -> DblpConfig {
    DblpConfig {
        n_conferences: 40,
        n_authors: papers / 3,
        n_papers: papers,
        authors_per_paper: 2.2,
        citations_per_paper: 1.5,
        seed: 0xdb19,
    }
}

/// `(items, postings, vocabulary hash)` per dataset, frozen when the
/// benchmark was defined. A mismatch means `crates/datasets` (or the
/// tokenizer) changed the workload: re-freeze in a benchmark PR, never in a
/// PR that claims a gain.
pub mod frozen {
    pub const DBLP_SMALL: (u64, u64, u64) = (10_058, 9_933, 0xfaf5_1f8a_fe0e_f193);
    pub const DBLP_LARGE: (u64, u64, u64) = (100_292, 98_854, 0x43e3_b48e_7d42_6645);
    pub const GRAPH: (u64, u64, u64) = (40_074, 39_527, 0xfa4e_2cd5_585c_3529);
    pub const BIB_LARGE: (u64, u64, u64) = (80_101, 237_534, 0x21cc_8519_605d_5b03);
}

pub fn relational(name: &'static str, cfg: &DblpConfig) -> (Database, DatasetDigest) {
    let db = generate_dblp(cfg);
    let postings = db
        .text_index()
        .expect("generated databases are indexed")
        .index_stats()
        .postings;
    let digest = DatasetDigest::new(name, db.tuple_count(), postings, relational_vocab(&db));
    (db, digest)
}

pub fn graph_vocab(g: &DataGraph) -> Vec<(String, usize)> {
    g.vocabulary()
        .map(|t| (t.to_string(), g.keyword_nodes(t).len()))
        .collect()
}

/// The tuple graph of `db` with uniform edge weights.
pub fn graph(db: &Database) -> (DataGraph, DatasetDigest) {
    let (g, _) = from_database(db, EdgeWeighting::Uniform);
    let digest = DatasetDigest::new(
        "graph",
        g.node_count(),
        g.keyword_index_stats().postings,
        graph_vocab(&g),
    );
    (g, digest)
}

pub fn xml_vocab(index: &XmlIndex) -> Vec<(String, usize)> {
    index
        .terms()
        .map(|t| (t.to_string(), index.freq(t)))
        .collect()
}

pub fn bib() -> XmlTree {
    generate_bib_xml(&BIB_LARGE)
}

pub fn bib_digest(tree: &XmlTree, index: &XmlIndex) -> DatasetDigest {
    DatasetDigest::new(
        "bib_large",
        tree.len(),
        index.index_stats().postings,
        xml_vocab(index),
    )
}
