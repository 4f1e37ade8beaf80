//! Seeded synthetic datasets for the kwdb experiments.
//!
//! The paper's systems were evaluated on DBLP, IMDB and product catalogs;
//! those corpora are not shipped here, so these generators produce
//! statistically similar substitutes (documented in DESIGN.md): the same
//! schema shapes, Zipf-distributed vocabulary, and configurable sizes and
//! fan-outs. All generators are deterministic given a seed.
//!
//! * [`words`] — vocabulary and Zipf sampling;
//! * [`dblp`] — author/paper/conference/write/cite relational databases;
//! * [`xmlgen`] — bibliography and movie XML documents;
//! * [`products`] — laptop-style entity tables with query logs;
//! * [`graphs`] — random weighted graphs with planted keywords.

pub mod dblp;
pub mod graphs;
pub mod products;
pub mod words;
pub mod xmlgen;

pub use dblp::{generate_dblp, DblpConfig};
pub use xmlgen::{generate_bib_xml, BibConfig};

#[cfg(test)]
mod digests {
    //! The benchmark's dataset configurations, held to the sizes and
    //! vocabulary they had when the benchmark froze them
    //! (`benchmark/src/datasets.rs`, `frozen`): a drift in a generator, the
    //! seeded RNG or the tokenizer fails here, in `cargo test`, not first in
    //! a benchmark run.

    use crate::{generate_bib_xml, generate_dblp, BibConfig, DblpConfig};
    use kwdb_xml::XmlIndex;

    /// The benchmark's `dblp(papers)`.
    fn dblp(papers: usize) -> DblpConfig {
        DblpConfig {
            n_conferences: 40,
            n_authors: papers / 3,
            n_papers: papers,
            authors_per_paper: 2.2,
            citations_per_paper: 1.5,
            seed: 0xdb19,
        }
    }

    /// The benchmark's `BIB_LARGE`.
    const BIB_LARGE: BibConfig = BibConfig {
        n_conferences: 200,
        n_journals: 100,
        papers_per_venue: 66,
        authors_per_paper: 2,
        seed: 0x0b1b,
    };

    /// FNV-1a over the sorted `(term, doc_freq)` pairs: each term's bytes, a
    /// `0xff` terminator, the frequency as eight little-endian bytes — the
    /// benchmark's `DatasetDigest` hash.
    fn vocab_hash(mut vocab: Vec<(String, usize)>) -> u64 {
        vocab.sort();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (term, df) in &vocab {
            eat(term.as_bytes());
            eat(&[0xff]);
            eat(&(*df as u64).to_le_bytes());
        }
        h
    }

    /// `(tuples, postings, vocabulary hash)` of the generated database.
    fn dblp_digest(papers: usize) -> (usize, usize, u64) {
        let db = generate_dblp(&dblp(papers));
        let ix = db.text_index().expect("generated databases are indexed");
        let vocab = ix.terms().map(|t| (t.to_string(), ix.doc_freq(t)));
        (
            db.tuple_count(),
            ix.index_stats().postings,
            vocab_hash(vocab.collect()),
        )
    }

    #[test]
    fn dblp_small_is_the_frozen_dataset() {
        assert_eq!(dblp_digest(2_000), (10_058, 9_933, 0xfaf5_1f8a_fe0e_f193));
    }

    #[test]
    fn dblp_graph_source_is_the_frozen_dataset() {
        assert_eq!(dblp_digest(8_000), (40_074, 39_527, 0xfa4e_2cd5_585c_3529));
    }

    #[test]
    fn dblp_large_is_the_frozen_dataset() {
        assert_eq!(
            dblp_digest(20_000),
            (100_292, 98_854, 0x43e3_b48e_7d42_6645)
        );
    }

    #[test]
    fn bib_large_is_the_frozen_dataset() {
        let tree = generate_bib_xml(&BIB_LARGE);
        let ix = XmlIndex::build(&tree);
        let vocab = ix.terms().map(|t| (t.to_string(), ix.freq(t)));
        assert_eq!(
            (
                tree.len(),
                ix.index_stats().postings,
                vocab_hash(vocab.collect())
            ),
            (80_101, 237_534, 0x21cc_8519_605d_5b03)
        );
    }
}
