//! TF·IDF corpus statistics and term weighting.
//!
//! In keyword search on databases a "document" is whatever granule an engine
//! scores: a tuple, an XML node's subtree, a CN join result. [`CorpusStats`]
//! is built once over the granules and answers document-frequency queries;
//! [`TfIdf`] combines them into the standard `tf · idf` weight with the
//! sub-linear tf damping SPARK and XRank both use.

use std::collections::{HashMap, HashSet};

/// Document-frequency statistics over a corpus of token multisets.
#[derive(Debug, Clone, Default)]
pub struct CorpusStats {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
    /// Total token occurrences per term (collection frequency).
    coll_freq: HashMap<String, u64>,
    total_tokens: u64,
}

impl CorpusStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Account for one document given its token list (duplicates allowed).
    pub fn add_doc<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.doc_count += 1;
        let mut seen = HashSet::new();
        for t in tokens {
            let t = t.as_ref();
            *self.coll_freq.entry(t.to_string()).or_insert(0) += 1;
            self.total_tokens += 1;
            if seen.insert(t) {
                *self.doc_freq.entry(t.to_string()).or_insert(0) += 1;
            }
        }
    }

    /// Number of documents indexed.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Total token occurrences across the corpus.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Number of documents containing `term`.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.doc_freq.get(term).copied().unwrap_or(0)
    }

    /// Total occurrences of `term` across the corpus.
    pub fn coll_freq(&self, term: &str) -> u64 {
        self.coll_freq.get(term).copied().unwrap_or(0)
    }

    /// Collection language-model probability `P(term | corpus)` with
    /// add-one smoothing; the noisy-channel cleaners use this as their prior.
    pub fn lm_prob(&self, term: &str) -> f64 {
        let vocab = self.coll_freq.len() as f64;
        (self.coll_freq(term) as f64 + 1.0) / (self.total_tokens as f64 + vocab.max(1.0))
    }

    /// Smoothed inverse document frequency: `ln((N+1)/(df+1)) + 1`.
    ///
    /// Always positive, so a term occurring in every document still
    /// contributes (weight 1) instead of vanishing — XBridge's `ief` has the
    /// same property.
    pub fn idf(&self, term: &str) -> f64 {
        idf(self.doc_count, self.doc_freq(term))
    }

    /// Vocabulary iterator (terms with nonzero document frequency).
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.doc_freq.keys().map(|s| s.as_str())
    }
}

/// Smoothed inverse document frequency of a term held by `df` of `docs`
/// documents: `ln((N+1)/(df+1)) + 1` — the one statement of the formula,
/// whatever counted the documents.
pub fn idf(docs: usize, df: usize) -> f64 {
    ((docs as f64 + 1.0) / (df as f64 + 1.0)).ln() + 1.0
}

/// Average length of `docs` documents holding `tokens` tokens in all, at
/// least 1 (so 1 for an empty corpus) — what pivoted length normalization
/// divides by.
pub fn avg_doc_len(docs: usize, tokens: u64) -> f64 {
    (tokens as f64 / docs.max(1) as f64).max(1.0)
}

/// TF·IDF scorer over a [`CorpusStats`].
#[derive(Debug, Clone)]
pub struct TfIdf<'a> {
    stats: &'a CorpusStats,
}

impl<'a> TfIdf<'a> {
    pub fn new(stats: &'a CorpusStats) -> Self {
        TfIdf { stats }
    }

    /// Sub-linear tf damping: `1 + ln(tf)` for `tf ≥ 1`, else 0.
    pub fn tf_weight(tf: usize) -> f64 {
        if tf == 0 {
            0.0
        } else {
            1.0 + (tf as f64).ln()
        }
    }

    /// Weight of `term` appearing `tf` times in a document.
    pub fn weight(&self, term: &str, tf: usize) -> f64 {
        Self::tf_weight(tf) * self.stats.idf(term)
    }

    /// Score a document (bag of tokens) against query keywords: the sum of
    /// tf·idf weights of the query terms, the additive model DISCOVER2 and
    /// SPARK start from.
    pub fn score<S: AsRef<str>, T: AsRef<str>>(&self, query: &[S], doc_tokens: &[T]) -> f64 {
        let mut tf: HashMap<&str, usize> = HashMap::new();
        for t in doc_tokens {
            *tf.entry(t.as_ref()).or_insert(0) += 1;
        }
        query
            .iter()
            .map(|q| self.weight(q.as_ref(), tf.get(q.as_ref()).copied().unwrap_or(0)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> CorpusStats {
        let mut s = CorpusStats::new();
        s.add_doc(&["xml", "keyword", "search"]);
        s.add_doc(&["xml", "xml", "query"]);
        s.add_doc(&["graph", "search"]);
        s
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let s = corpus();
        assert_eq!(s.doc_count(), 3);
        assert_eq!(s.doc_freq("xml"), 2);
        assert_eq!(s.coll_freq("xml"), 3);
        assert_eq!(s.doc_freq("missing"), 0);
    }

    #[test]
    fn idf_ranks_rare_above_common() {
        let s = corpus();
        assert!(s.idf("graph") > s.idf("xml"));
        assert!(s.idf("xml") > 0.0);
    }

    #[test]
    fn idf_of_everywhere_term_is_one() {
        let mut s = CorpusStats::new();
        s.add_doc(&["a"]);
        s.add_doc(&["a"]);
        // ln((2+1)/(2+1)) + 1 == 1
        assert!((s.idf("a") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tf_weight_is_sublinear() {
        assert_eq!(TfIdf::tf_weight(0), 0.0);
        assert_eq!(TfIdf::tf_weight(1), 1.0);
        let w2 = TfIdf::tf_weight(2);
        let w4 = TfIdf::tf_weight(4);
        assert!(w2 > 1.0 && w4 > w2 && w4 < 2.0 * w2);
    }

    #[test]
    fn score_prefers_matching_docs() {
        let s = corpus();
        let scorer = TfIdf::new(&s);
        let q = ["xml", "search"];
        let hit = scorer.score(&q, &["xml", "keyword", "search"]);
        let partial = scorer.score(&q, &["xml", "xml", "query"]);
        let miss = scorer.score(&q, &["graph"]);
        assert!(hit > partial);
        assert!(partial > miss);
        assert_eq!(miss, 0.0);
    }

    #[test]
    fn lm_prob_sums_reasonably() {
        let s = corpus();
        assert!(s.lm_prob("xml") > s.lm_prob("graph"));
        assert!(s.lm_prob("unseen") > 0.0);
        assert!(s.lm_prob("unseen") < s.lm_prob("xml"));
    }
}
