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
//!   once per query — one column per tuple set, which is all the engine's
//!   executor ([`crate::pexec`]) reads to order and prune. A column knows
//!   its exact maximum from the start (the formulas are monotone in every
//!   count, so most rows need not be scored to find it) and computes a
//!   row's entry the first time the executor reads it, by the row's
//!   position in the set.
//!
//! Both feed the same function the same counts, so the two are equal bit
//! for bit: a keyword outside a row's mask has `tf = 0` on either side and
//! adds `0.0 · idf = 0.0`. A free tuple matches no keyword, so it scores
//! exactly `0.0` and needs no column.

use crate::eval::JoinedResult;
use crate::tupleset::{TupleSet, TupleSets, MAX_KEYWORDS};
use kwdb_common::Result;
use kwdb_rank::tfidf::{avg_doc_len, idf, TfIdf};
use kwdb_rank::CorpusStats;
use kwdb_relational::{Database, TableId, TupleId};
use std::cell::Cell;
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
/// query keywords in query order — the one statement of the formula.
pub fn tfidf_sum(tfs: &[u32], idf: impl Fn(usize) -> f64) -> f64 {
    tfs.iter()
        .enumerate()
        .map(|(k, &tf)| TfIdf::tf_weight(tf as usize) * idf(k))
        .sum()
}

/// SPARK's monotone per-tuple upper bound `watf` =
/// `Σ_k double_log_tf(tfs[k]) · idf(k) / (1 − SLOPE)`: for any result `T`,
/// `spark_score(T) ≤ Σ_{t ∈ T} watf(t) / |T|`. Holds because `double_log_tf`
/// is subadditive, `norm ≥ 1 − SLOPE`, the completeness factor is `≤ 1` and
/// the size penalty is exactly `1 / |T|`.
pub fn watf_sum(tfs: &[u32], idf: impl Fn(usize) -> f64) -> f64 {
    let a: f64 = tfs
        .iter()
        .enumerate()
        .map(|(k, &tf)| double_log_tf(tf as usize) * idf(k))
        .sum();
    a / (1.0 - SLOPE)
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
    column: &'t Column<'t>,
}

impl ScoreColumn<'_> {
    /// The number of the row at position `at` of the tuple set, computed the
    /// first time it is read.
    pub fn score(&self, at: usize) -> f64 {
        self.table.read(self.column, at)
    }

    /// The column's exact maximum — what a keyword node over this tuple set
    /// contributes to a CN's upper bound.
    pub fn best(&self) -> f64 {
        self.column.best
    }
}

/// A column's tuple set, its maximum and the entries read so far (`NaN`
/// until then: no entry is `NaN`).
struct Column<'a> {
    set: &'a TupleSet,
    scores: Box<[Cell<f64>]>,
    best: f64,
}

/// One query's per-tuple numbers, from the index: per tuple set a
/// [`ScoreColumn`] of each row's [`tfidf_sum`] (`Monotone`) or [`watf_sum`]
/// (`Spark`) over the frequencies the set kept. Building the table finds
/// each column's exact maximum; a row's entry is computed once, the first
/// time it is read, so a query pays for the rows its joins reach, not for
/// every row of every set.
pub struct ScoreTable<'a> {
    columns: HashMap<(TableId, u32), Column<'a>>,
    model: Scoring,
    idfs: Vec<f64>,
    /// The same number re-derived from the tuple's text, which debug builds
    /// hold every computed entry to.
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
        let idfs = (keywords.iter()).map(|k| scorer.idf(k.as_ref())).collect();
        let text: Box<dyn Fn(TupleId) -> f64 + 'a> = match model {
            Scoring::Monotone => Box::new(|t| scorer.tuple_score(t, keywords)),
            Scoring::Spark => Box::new(|t| scorer.watf(t, keywords)),
        };
        let mut table = ScoreTable {
            columns: HashMap::with_capacity(ts.len()),
            model,
            idfs,
            text,
        };
        for set in ts.sets() {
            let mut column = Column {
                set,
                scores: vec![Cell::new(f64::NAN); set.rows.len()].into(),
                best: 0.0,
            };
            column.best = table.best(&column);
            table.columns.insert((set.table, set.mask), column);
        }
        table
    }

    /// The largest entry of `column`, computing only rows that could be it.
    fn best(&self, column: &Column<'_>) -> f64 {
        let set = column.set;
        if set.mask.count_ones() == 1 {
            // One count per row: any row holding the largest count scores
            // the maximum.
            let max = set.tfs.iter().max();
            let at = max.and_then(|max| set.tfs.iter().position(|tf| tf == max));
            return at.map_or(0.0, |at| self.read(column, at));
        }
        let (mut best, mut top) = (0.0, None);
        for at in 0..set.rows.len() {
            let tfs = set.row_tfs(at);
            let dominated =
                top.is_some_and(|t| tfs.iter().zip(set.row_tfs(t)).all(|(a, b)| a <= b));
            if !dominated && self.read(column, at) > best {
                (best, top) = (self.read(column, at), Some(at));
            }
        }
        best
    }

    /// Entry `at` of `column`: the cached value, or the formula over the
    /// row's counts spread over all keywords (those outside the set's mask
    /// count 0), cached.
    fn read(&self, column: &Column<'_>, at: usize) -> f64 {
        let cached = column.scores[at].get();
        if !cached.is_nan() {
            return cached;
        }
        let set = column.set;
        let n = self.idfs.len();
        let mut tfs = [0u32; MAX_KEYWORDS];
        let bits = (0..n).filter(|&k| set.mask & (1 << k) != 0);
        for (k, &tf) in bits.zip(set.row_tfs(at)) {
            tfs[k] = tf;
        }
        let idf = |k: usize| self.idfs[k];
        let score = match self.model {
            Scoring::Monotone => tfidf_sum(&tfs[..n], idf),
            Scoring::Spark => watf_sum(&tfs[..n], idf),
        };
        debug_assert_eq!(
            score.to_bits(),
            (self.text)(TupleId::new(set.table, set.rows[at])).to_bits(),
            "index-derived score diverged from the text-derived one"
        );
        column.scores[at].set(score);
        score
    }

    /// The column of tuple set `(table, mask)`; `None` when the set is
    /// empty — and for the free set (`mask == 0`), whose tuples score 0.
    pub fn column(&self, table: TableId, mask: u32) -> Option<ScoreColumn<'_>> {
        let column = self.columns.get(&(table, mask))?;
        Some(ScoreColumn {
            table: self,
            column,
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
