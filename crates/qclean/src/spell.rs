//! Noisy-channel spelling correction (tutorial slide 66; Pu & Yu VLDB 08).
//!
//! The user intends `C`, the channel garbles it into the observed `Q`;
//! correction maximizes `P(C | Q) ∝ P(Q | C) · P(C)`:
//!
//! * the **error model** `P(Q | C) = λ^edit_dist(Q, C)` decays with
//!   Damerau–Levenshtein distance (transpositions are single errors —
//!   `ipda → ipad`);
//! * the **prior** `P(C)` is the database language model: frequent database
//!   tokens are likelier intentions.
//!
//! The *confusion set* of a token is every vocabulary word within the
//! distance budget, plus vocabulary words extending it as a prefix
//! (`conf → conference`, slide 12's unfinished words).

use kwdb_common::strutil::{common_prefix_len, damerau_levenshtein};
use std::collections::HashMap;

/// Error-model decay per edit.
const LAMBDA: f64 = 0.05;
/// Mild penalty for prefix completions, per completed character.
const COMPLETION_DECAY: f64 = 0.9;

/// A corrector built over a token vocabulary with frequencies.
#[derive(Debug, Clone, Default)]
pub struct SpellCorrector {
    vocab: HashMap<String, u64>,
    total: u64,
}

/// One correction candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub word: String,
    /// `P(Q | C) · P(C)` up to normalization.
    pub score: f64,
    pub distance: usize,
}

impl SpellCorrector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(token, frequency)` pairs (e.g. a database text index).
    pub fn from_vocab<I, S>(vocab: I) -> Self
    where
        I: IntoIterator<Item = (S, u64)>,
        S: Into<String>,
    {
        let mut c = Self::new();
        for (w, f) in vocab {
            c.add_word(w.into(), f);
        }
        c
    }

    pub fn add_word(&mut self, word: String, freq: u64) {
        self.total += freq;
        *self.vocab.entry(word).or_insert(0) += freq;
    }

    /// Is `word` a known database token?
    pub fn contains(&self, word: &str) -> bool {
        self.vocab.contains_key(word)
    }

    /// Smoothed unigram prior.
    fn prior(&self, word: &str) -> f64 {
        let f = self.vocab.get(word).copied().unwrap_or(0) as f64;
        (f + 1.0) / (self.total as f64 + self.vocab.len().max(1) as f64)
    }

    /// The confusion set of `token`: vocabulary words within `max_dist`
    /// edits, plus prefix completions, scored by the noisy-channel model.
    /// Sorted best-first; always contains `token` itself if it is in the
    /// vocabulary.
    pub fn confusion_set(&self, token: &str, max_dist: usize) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        let tlen = token.chars().count();
        for w in self.vocab.keys() {
            let wlen = w.chars().count();
            // prefix completion: token is a strict prefix of w
            let is_completion = wlen > tlen && common_prefix_len(token, w) == tlen;
            if is_completion {
                let extra = (wlen - tlen) as i32;
                out.push(Candidate {
                    word: w.clone(),
                    score: COMPLETION_DECAY.powi(extra) * self.prior(w),
                    distance: 0,
                });
                continue;
            }
            if wlen.abs_diff(tlen) > max_dist {
                continue;
            }
            let d = damerau_levenshtein(token, w);
            if d <= max_dist {
                out.push(Candidate {
                    word: w.clone(),
                    score: LAMBDA.powi(d as i32) * self.prior(w),
                    distance: d,
                });
            }
        }
        // total_cmp: a NaN score must sort deterministically, not panic.
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.word.cmp(&b.word)));
        out
    }

    /// Best single-token correction, if any candidate exists.
    pub fn correct(&self, token: &str, max_dist: usize) -> Option<Candidate> {
        self.confusion_set(token, max_dist).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corrector() -> SpellCorrector {
        SpellCorrector::from_vocab([
            ("apple", 50u64),
            ("ipad", 30),
            ("ipod", 20),
            ("nano", 25),
            ("at&t", 10),
            ("database", 40),
            ("conference", 15),
            ("applet", 2),
        ])
    }

    #[test]
    fn exact_word_wins_its_confusion_set() {
        let c = corrector();
        let best = c.correct("ipad", 2).unwrap();
        assert_eq!(best.word, "ipad");
        assert_eq!(best.distance, 0);
    }

    #[test]
    fn slide67_ipd_prefers_ipad_over_ipod() {
        // both are distance 1; "ipad" has the higher prior
        let c = corrector();
        let set = c.confusion_set("ipd", 2);
        let words: Vec<&str> = set.iter().map(|c| c.word.as_str()).collect();
        assert!(words.contains(&"ipad") && words.contains(&"ipod"));
        assert_eq!(set[0].word, "ipad");
    }

    #[test]
    fn transposition_is_one_edit() {
        let c = corrector();
        let best = c.correct("ipda", 1).unwrap();
        assert_eq!(best.word, "ipad");
        assert_eq!(best.distance, 1);
    }

    #[test]
    fn datbase_corrects_to_database() {
        let c = corrector();
        assert_eq!(c.correct("datbase", 2).unwrap().word, "database");
    }

    #[test]
    fn prefix_completion() {
        // "conf" → "conference" (slide 12's unfinished word)
        let c = corrector();
        let set = c.confusion_set("conf", 1);
        assert!(set.iter().any(|cand| cand.word == "conference"));
    }

    #[test]
    fn completion_prefers_shorter_and_frequent() {
        let c = corrector();
        let set = c.confusion_set("appl", 0);
        // apple (freq 50, +1 char) must beat applet (freq 2, +2 chars)
        let apple = set.iter().position(|c| c.word == "apple").unwrap();
        let applet = set.iter().position(|c| c.word == "applet").unwrap();
        assert!(apple < applet);
    }

    #[test]
    fn far_tokens_have_empty_sets() {
        let c = corrector();
        assert!(c.confusion_set("zzzzzzz", 1).is_empty());
        assert!(c.correct("zzzzzzz", 1).is_none());
    }

    #[test]
    fn edit_beats_nothing_but_loses_to_exact() {
        let c = corrector();
        // "nano" exact must outscore any 1-edit alternative of "nano"
        let set = c.confusion_set("nano", 2);
        assert_eq!(set[0].word, "nano");
    }
}
