//! Result scoring for relational keyword search.
//!
//! Two scoring regimes ([`Scoring`], tutorial slides 116–117):
//!
//! * the **monotonic** DISCOVER2 model — a result's score is the sum of its
//!   tuples' tf·idf scores, normalized by CN size; monotone in per-tuple
//!   scores, which the pipelined top-k executors rely on;
//! * the **non-monotonic** SPARK model — the joined tuples form one *virtual
//!   document* whose term frequencies aggregate before the double-log
//!   damping and length normalization, so combining two strong tuples can
//!   score *less* than their sum. SPARK's `watf` upper bound (monotone,
//!   per-tuple) is what the executor, Skyline-Sweep and Block-Pipeline
//!   prune with.
//!
//! # Where the per-tuple numbers come from
//!
//! Each model has one monotone per-tuple formula over the tuple's
//! term-frequency slice (keywords in query order), stated once:
//! [`tfidf_sum`] = `Σ_k tf_weight(tf_k) · idf(k)`, the DISCOVER2 tuple
//! score, and [`watf_sum`] = `Σ_k double_log_tf(tf_k) · idf(k) / (1 − s)`,
//! SPARK's bound. Either has two sources of counts:
//!
//! * [`ResultScorer::tuple_score`] / [`ResultScorer::watf`] count the
//!   keywords in the tuple's *text* — the reference the serial
//!   [`crate::topk`] strategies, the [`crate::spark`] sweeps, `timebound`
//!   and the differential tests use;
//! * [`ScoreTable`] takes them from the *tuple sets*, which kept the
//!   frequencies the postings carried, and looks each keyword's `idf` up
//!   once per query — a weight per keyword and small count, and one column
//!   per tuple set, which is all the engine's executor ([`crate::pexec`])
//!   reads to order and prune. A column knows its exact maximum from the
//!   start (the formulas are monotone in every count, so most rows need
//!   not be scored to find it) and sums a row's weights where the executor
//!   reads them, by the row's position in the set.
//!
//! Both form the same products and add them in the same order, so the two
//! are equal bit for bit: a keyword outside a row's mask has `tf = 0` and
//! adds `0.0 · idf = +0.0` on the text side, which leaves the sum as it
//! was (see [`ScoreTable`]). A free tuple matches no keyword, so it scores
//! exactly `0.0` and needs no column.

use crate::eval::JoinedResult;
use crate::tupleset::{TupleSet, TupleSets};
use kwdb_common::Result;
use kwdb_rank::tfidf::{avg_doc_len, idf, TfIdf};
use kwdb_rank::CorpusStats;
use kwdb_relational::{Database, TableId, TupleId};
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::Arc;

/// Corpus statistics over every live tuple of `db` — one "document" per
/// tuple — by a scan of all of them. This is what [`ResultScorer::new`]
/// performs, and the reference for the counts the text index keeps, which
/// the engine scores with ([`ResultScorer::from_index`]).
pub fn corpus_stats(db: &Database) -> CorpusStats {
    let mut stats = CorpusStats::new();
    for t in db.tables() {
        for (rid, _) in t.iter() {
            stats.add_doc(&db.tuple_tokens(TupleId::new(t.id, rid)));
        }
    }
    stats
}

/// Which score model ranks a relational query — the parameter of
/// [`ScoreTable`] and of the CN executor ([`crate::pexec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scoring {
    /// DISCOVER2's monotone model: a result scores the sum of its tuples'
    /// [`tfidf_sum`] over its size, so a column entry *is* the tuple's share
    /// of the score.
    #[default]
    Monotone,
    /// SPARK's non-monotonic virtual-document model
    /// ([`ResultScorer::spark_score`]): the columns hold [`watf_sum`], a
    /// joined row's column sum over its size bounds its score from above, and
    /// only rows whose bound can still enter the top-k are scored exactly.
    Spark,
}

/// The monotone per-tuple score `Σ_k tf_weight(tfs[k]) · idf(k)` over the
/// query keywords in query order — the one statement of the formula (its
/// product is `term_weight`'s, which [`ScoreTable`] tabulates).
pub fn tfidf_sum(tfs: &[u32], idf: impl Fn(usize) -> f64) -> f64 {
    (tfs.iter().enumerate())
        .map(|(k, &tf)| term_weight(Scoring::Monotone, tf, idf(k)))
        .sum()
}

/// SPARK's monotone per-tuple upper bound `watf` =
/// `Σ_k double_log_tf(tfs[k]) · idf(k) / (1 − SLOPE)`: for any result `T`,
/// `spark_score(T) ≤ Σ_{t ∈ T} watf(t) / |T|`. Holds because `double_log_tf`
/// is subadditive, `norm ≥ 1 − SLOPE`, the completeness factor is `≤ 1` and
/// the size penalty is exactly `1 / |T|`.
pub fn watf_sum(tfs: &[u32], idf: impl Fn(usize) -> f64) -> f64 {
    let a: f64 = (tfs.iter().enumerate())
        .map(|(k, &tf)| term_weight(Scoring::Spark, tf, idf(k)))
        .sum();
    a / (1.0 - SLOPE)
}

/// One keyword's term in `model`'s per-tuple sum at count `tf`:
/// `tf_weight(tf) · idf` ([`tfidf_sum`]) or `double_log_tf(tf) · idf`
/// ([`watf_sum`]).
fn term_weight(model: Scoring, tf: u32, idf: f64) -> f64 {
    match model {
        Scoring::Monotone => TfIdf::tf_weight(tf as usize) * idf,
        Scoring::Spark => double_log_tf(tf as usize) * idf,
    }
}

/// SPARK's length-normalization slope (`s` in pivoted normalization).
const SLOPE: f64 = 0.2;

/// Shared scorer: term statistics over all database tuples, one "document"
/// per tuple.
///
/// Generic over how the database is held: `ResultScorer::new(&db)` borrows
/// (the zero-copy path used by the per-crate pipelines, benches, and tests),
/// while `ResultScorer::from_index(Arc::clone(&db))` owns a handle — that is
/// what lets the unified `RelationalEngine` be `'static` and `Send + Sync`
/// for shared concurrent use.
#[derive(Debug)]
pub struct ResultScorer<D: Deref<Target = Database> = std::sync::Arc<Database>> {
    db: D,
    /// Term statistics by a scan ([`corpus_stats`]), or `None` for the
    /// database's text index, where a term's document frequency is the
    /// length of its posting list.
    stats: Option<Arc<CorpusStats>>,
    avg_len: f64,
}

impl<D: Deref<Target = Database>> ResultScorer<D> {
    /// Scan every tuple for its term statistics.
    pub fn new(db: D) -> Self {
        let stats = corpus_stats(&db);
        Self::from_stats(db, Arc::new(stats))
    }

    /// A scorer over statistics already at hand, such as one
    /// [`corpus_stats`] scan shared by many scorers.
    pub fn from_stats(db: D, stats: Arc<CorpusStats>) -> Self {
        let avg_len = avg_doc_len(stats.doc_count(), stats.total_tokens());
        ResultScorer {
            db,
            stats: Some(stats),
            avg_len,
        }
    }

    /// A scorer over the counts the database's text index keeps — the
    /// engine's per-query path, which reads no tuple. Fails with the typed
    /// error of [`Database::text_index`] when the index is not fresh.
    pub fn from_index(db: D) -> Result<Self> {
        let ix = db.text_index()?;
        let avg_len = avg_doc_len(ix.doc_count(), ix.total_tokens());
        Ok(ResultScorer {
            db,
            stats: None,
            avg_len,
        })
    }

    /// The smoothed inverse document frequency of `term`: [`idf`] of the
    /// same two counts whichever the source, so both give the same bits.
    pub fn idf(&self, term: &str) -> f64 {
        match &self.stats {
            Some(stats) => stats.idf(term),
            None => {
                let ix = self.db.text_index().expect("fresh when built");
                idf(ix.doc_count(), ix.doc_freq(term))
            }
        }
    }

    /// The average document (tuple) length, in tokens, at least 1.
    pub fn avg_len(&self) -> f64 {
        self.avg_len
    }

    /// The query keywords' counts in the tuple's text, in query order.
    fn text_tfs<S: AsRef<str>>(&self, tid: TupleId, keywords: &[S]) -> Vec<u32> {
        let toks = self.db.tuple_tokens(tid);
        let tf = term_freqs(&toks);
        keywords
            .iter()
            .map(|k| tf.get(k.as_ref()).map_or(0, |&n| n as u32))
            .collect()
    }

    /// Monotonic per-tuple score: [`tfidf_sum`] over the query keywords'
    /// counts in the tuple's text.
    pub fn tuple_score<S: AsRef<str>>(&self, tid: TupleId, keywords: &[S]) -> f64 {
        let idf = |k: usize| self.idf(keywords[k].as_ref());
        tfidf_sum(&self.text_tfs(tid, keywords), idf)
    }

    /// DISCOVER2 result score: sum of tuple scores over size (smaller
    /// networks matching equally well rank higher). Monotone in the
    /// per-tuple scores for a fixed CN.
    pub fn monotone_score<S: AsRef<str>>(&self, r: &JoinedResult, keywords: &[S]) -> f64 {
        let sum: f64 = r
            .tuples
            .iter()
            .map(|&t| self.tuple_score(t, keywords))
            .sum();
        sum / r.tuples.len() as f64
    }

    /// SPARK virtual-document score: aggregate term frequencies across the
    /// joined tuples, then apply `(1 + ln(1 + ln tf)) · idf` per keyword with
    /// pivoted length normalization and a size penalty.
    pub fn spark_score<S: AsRef<str>>(&self, r: &JoinedResult, keywords: &[S]) -> f64 {
        let mut tf: HashMap<String, usize> = HashMap::new();
        let mut dl = 0usize;
        for &t in &r.tuples {
            let toks = self.db.tuple_tokens(t);
            dl += toks.len();
            for tok in toks {
                *tf.entry(tok).or_insert(0) += 1;
            }
        }
        let norm = (1.0 - SLOPE) + SLOPE * (dl as f64 / self.avg_len);
        let a: f64 = keywords
            .iter()
            .map(|k| {
                let k = k.as_ref();
                double_log_tf(tf.get(k).copied().unwrap_or(0)) * self.idf(k)
            })
            .sum();
        // completeness: fraction of keywords present (1.0 for valid results)
        let matched = keywords
            .iter()
            .filter(|k| tf.get(k.as_ref()).copied().unwrap_or(0) > 0)
            .count();
        let b = matched as f64 / keywords.len().max(1) as f64;
        // size penalty
        let c = 1.0 / r.tuples.len() as f64;
        a / norm * b * c
    }

    /// SPARK's per-tuple upper bound: [`watf_sum`] over the query keywords'
    /// counts in the tuple's text.
    pub fn watf<S: AsRef<str>>(&self, tid: TupleId, keywords: &[S]) -> f64 {
        let idf = |k: usize| self.idf(keywords[k].as_ref());
        watf_sum(&self.text_tfs(tid, keywords), idf)
    }
}

/// One tuple set's column of per-tuple numbers under the query's
/// [`Scoring`] — scores for `Monotone`, `watf` bounds for `Spark` — read by
/// a row's position in [`TupleSet::rows`]. A view into its [`ScoreTable`].
#[derive(Clone, Copy)]
pub struct ScoreColumn<'t> {
    table: &'t ScoreTable<'t>,
    set: &'t TupleSet,
    /// A one-keyword set's counts and that keyword's weights by count: a
    /// row's entry is one load from each.
    single: Option<(&'t [u32], &'t [f64])>,
    best: f64,
}

impl ScoreColumn<'_> {
    /// The number of the row at position `at` of the tuple set: its
    /// keywords' weights, summed.
    #[inline]
    pub fn score(&self, at: usize) -> f64 {
        self.table.entry(self.set, self.single, at)
    }

    /// The column's exact maximum — what a keyword node over this tuple set
    /// contributes to a CN's upper bound.
    pub fn best(&self) -> f64 {
        self.best
    }
}

/// A column's tuple set and its maximum.
struct Column<'a> {
    set: &'a TupleSet,
    best: f64,
}

/// Counts below this read a keyword's weight from the [`ScoreTable`]; a
/// larger one (rare in text) is weighted by the formula.
const TF_TABLE: usize = 8;

/// One query's per-tuple numbers, from the index: per tuple set a
/// [`ScoreColumn`] of each row's [`tfidf_sum`] (`Monotone`) or [`watf_sum`]
/// (`Spark`) over the frequencies the set kept.
///
/// The table holds each keyword's term weight — `tf_weight(tf) · idf` or
/// `double_log_tf(tf) · idf` — for every count below 8 (`TF_TABLE`), and each
/// column's exact maximum. A row's entry is its keywords' weights summed
/// over its set's mask bits in keyword order (over `1 − s` for `Spark`):
/// the products the formula forms, added in the order it adds them. The
/// formula also adds `0.0 · idf = +0.0` for each keyword outside the mask,
/// and adding `+0.0` changes no sum but `−0.0` — which only the empty
/// sum's start can be, and every set's mask has a bit — so the two agree
/// bit for bit. A query computes nothing per row ahead of the joins and
/// caches nothing: an entry is a few loads and adds, made where a join
/// reads it.
pub struct ScoreTable<'a> {
    columns: HashMap<(TableId, u32), Column<'a>>,
    model: Scoring,
    idfs: Vec<f64>,
    /// `weights[k * TF_TABLE + tf]`: keyword `k`'s term weight at count
    /// `tf`.
    weights: Vec<f64>,
    /// The same number re-derived from the tuple's text, which debug builds
    /// hold every entry read to.
    text: Box<dyn Fn(TupleId) -> f64 + 'a>,
}

impl<'a> ScoreTable<'a> {
    /// A column for every tuple set of `ts`, which must have been built for
    /// `keywords`, under the formula `model` names. One `idf` lookup per
    /// keyword; nothing reads the tuples' text.
    ///
    /// A column's maximum is exact without computing every entry: both
    /// formulas are monotone in each keyword's count (`tf_weight` and
    /// `double_log_tf` never fall as `tf` grows, every `idf` is positive and
    /// rounding is monotone), so a row whose counts are each at most those of
    /// the best row so far cannot beat it and is skipped. In a one-keyword
    /// set one row is computed: the first holding the largest count.
    pub fn new<S: AsRef<str>, D: Deref<Target = Database>>(
        ts: &'a TupleSets,
        scorer: &'a ResultScorer<D>,
        keywords: &'a [S],
        model: Scoring,
    ) -> Self {
        let idfs: Vec<f64> = (keywords.iter()).map(|k| scorer.idf(k.as_ref())).collect();
        let weights = (idfs.iter())
            .flat_map(|&idf| (0..TF_TABLE as u32).map(move |tf| term_weight(model, tf, idf)))
            .collect();
        let text: Box<dyn Fn(TupleId) -> f64 + 'a> = match model {
            Scoring::Monotone => Box::new(|t| scorer.tuple_score(t, keywords)),
            Scoring::Spark => Box::new(|t| scorer.watf(t, keywords)),
        };
        let mut table = ScoreTable {
            columns: HashMap::with_capacity(ts.len()),
            model,
            idfs,
            weights,
            text,
        };
        for set in ts.sets() {
            let best = table.best(set, table.single(set));
            table
                .columns
                .insert((set.table, set.mask), Column { set, best });
        }
        table
    }

    /// The largest entry of `set`'s column, computing only rows that could
    /// be it.
    fn best(&self, set: &TupleSet, single: Option<(&[u32], &[f64])>) -> f64 {
        if set.mask.count_ones() == 1 {
            // One count per row: any row holding the largest count scores
            // the maximum.
            let max = set.tfs.iter().max();
            let at = max.and_then(|max| set.tfs.iter().position(|tf| tf == max));
            return at.map_or(0.0, |at| self.entry(set, single, at));
        }
        let (mut best, mut top) = (0.0, None);
        for at in 0..set.rows.len() {
            let tfs = set.row_tfs(at);
            let dominated =
                top.is_some_and(|t| tfs.iter().zip(set.row_tfs(t)).all(|(a, b)| a <= b));
            if !dominated && self.entry(set, single, at) > best {
                (best, top) = (self.entry(set, single, at), Some(at));
            }
        }
        best
    }

    /// A one-keyword set's counts and its keyword's weights, for
    /// [`ScoreTable::entry`]'s short path.
    fn single<'s>(&'s self, set: &'s TupleSet) -> Option<(&'s [u32], &'s [f64])> {
        let k = set.mask.trailing_zeros() as usize;
        let weights = &self.weights[k * TF_TABLE..(k + 1) * TF_TABLE];
        set.mask
            .is_power_of_two()
            .then_some((&set.tfs[..], weights))
    }

    /// Entry `at` of `set`'s column: the weights of the row's counts,
    /// summed in keyword order. With `single` (a one-keyword set) and a
    /// count in the table, the sum is that one weight (`−0.0 + w = w`).
    #[inline]
    fn entry(&self, set: &TupleSet, single: Option<(&[u32], &[f64])>, at: usize) -> f64 {
        let one = single.and_then(|(tfs, weights)| weights.get(tfs[at] as usize));
        let sum = match one {
            Some(&weight) => weight,
            None => self.sum(set, at),
        };
        let score = match self.model {
            Scoring::Monotone => sum,
            Scoring::Spark => sum / (1.0 - SLOPE),
        };
        debug_assert_eq!(
            score.to_bits(),
            (self.text)(TupleId::new(set.table, set.rows[at])).to_bits(),
            "index-derived score diverged from the text-derived one"
        );
        score
    }

    /// The weights of row `at`'s counts, summed over `set`'s mask bits in
    /// keyword order.
    fn sum(&self, set: &TupleSet, at: usize) -> f64 {
        let mut bits = set.mask;
        (set.row_tfs(at).iter())
            .map(|&tf| {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                match tf as usize {
                    tf if tf < TF_TABLE => self.weights[k * TF_TABLE + tf],
                    _ => term_weight(self.model, tf, self.idfs[k]),
                }
            })
            .sum()
    }

    /// The column of tuple set `(table, mask)`; `None` when the set is
    /// empty — and for the free set (`mask == 0`), whose tuples score 0.
    pub fn column(&self, table: TableId, mask: u32) -> Option<ScoreColumn<'_>> {
        let Column { set, best } = self.columns.get(&(table, mask))?;
        Some(ScoreColumn {
            table: self,
            set,
            single: self.single(set),
            best: *best,
        })
    }
}

fn term_freqs(tokens: &[String]) -> HashMap<&str, usize> {
    let mut tf: HashMap<&str, usize> = HashMap::new();
    for t in tokens {
        *tf.entry(t.as_str()).or_insert(0) += 1;
    }
    tf
}

/// `1 + ln(1 + ln tf)` for `tf ≥ 1`, else 0 — SPARK's damped tf.
fn double_log_tf(tf: usize) -> f64 {
    if tf == 0 {
        0.0
    } else {
        1.0 + (1.0 + (tf as f64).ln()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kwdb_relational::database::dblp_schema;
    use kwdb_relational::RowId;

    fn db() -> Database {
        let mut db = Database::new();
        dblp_schema(&mut db).unwrap();
        db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
            .unwrap();
        db.insert("author", vec![1.into(), "Jennifer Widom".into()])
            .unwrap();
        db.insert("author", vec![2.into(), "XML Xml xml fan".into()])
            .unwrap();
        db.insert(
            "paper",
            vec![10.into(), "XML keyword search".into(), 1.into()],
        )
        .unwrap();
        db.build_text_index();
        db
    }

    fn tid(db: &Database, table: &str, row: u32) -> TupleId {
        TupleId::new(db.table_id(table).unwrap(), RowId(row))
    }

    #[test]
    fn tuple_score_matches_keywords() {
        let db = db();
        let s = ResultScorer::new(&db);
        let widom = s.tuple_score(tid(&db, "author", 0), &["widom"]);
        let miss = s.tuple_score(tid(&db, "author", 0), &["xml"]);
        assert!(widom > 0.0);
        assert_eq!(miss, 0.0);
    }

    #[test]
    fn monotone_score_penalizes_size() {
        let db = db();
        let s = ResultScorer::new(&db);
        let small = JoinedResult {
            tuples: vec![tid(&db, "paper", 0)],
        };
        let big = JoinedResult {
            tuples: vec![tid(&db, "paper", 0), tid(&db, "conference", 0)],
        };
        assert!(s.monotone_score(&small, &["xml"]) > s.monotone_score(&big, &["xml"]));
    }

    #[test]
    fn spark_double_log_damps_repeats() {
        let db = db();
        let s = ResultScorer::new(&db);
        let spammy = JoinedResult {
            tuples: vec![tid(&db, "author", 1)],
        }; // xml ×3
        let normal = JoinedResult {
            tuples: vec![tid(&db, "paper", 0)],
        }; // xml ×1
        let r_spam = s.spark_score(&spammy, &["xml"]);
        let r_norm = s.spark_score(&normal, &["xml"]);
        // three repetitions must give far less than 3× the single occurrence
        assert!(r_spam < 2.0 * r_norm);
        assert!(r_spam > 0.0);
    }

    #[test]
    fn watf_upper_bounds_spark_score() {
        let db = db();
        let s = ResultScorer::new(&db);
        let kws = ["xml", "widom", "keyword"];
        let results = [
            JoinedResult {
                tuples: vec![tid(&db, "paper", 0)],
            },
            JoinedResult {
                tuples: vec![tid(&db, "author", 0), tid(&db, "paper", 0)],
            },
            JoinedResult {
                tuples: vec![
                    tid(&db, "author", 0),
                    tid(&db, "author", 1),
                    tid(&db, "paper", 0),
                ],
            },
        ];
        for r in &results {
            let bound: f64 = r.tuples.iter().map(|&t| s.watf(t, &kws)).sum();
            let score = s.spark_score(r, &kws);
            assert!(
                score <= bound + 1e-9,
                "watf bound violated: score {score} > bound {bound}"
            );
        }
    }

    #[test]
    fn spark_completeness_penalizes_partial_match() {
        let db = db();
        let s = ResultScorer::new(&db);
        let r = JoinedResult {
            tuples: vec![tid(&db, "paper", 0)],
        };
        let full = s.spark_score(&r, &["xml"]);
        let half = s.spark_score(&r, &["xml", "widom"]);
        assert!(half < full);
    }
}
