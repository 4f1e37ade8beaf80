//! Relational keyword search: the DISCOVER/SPARK family.
//!
//! Keyword search over a relational database answers a query
//! `Q = {k₁, …, k_l}` with *joining trees of tuples*: minimal trees of
//! FK-connected tuples that together contain every keyword (tutorial
//! slides 28, 44, 115–117). The pipeline:
//!
//! 1. [`tupleset`] — partition each table's keyword-matching rows into
//!    *tuple sets* `R^K` (rows containing exactly the keyword subset `K`),
//!    each row with the term frequencies its postings carried;
//! 2. [`cn`] — enumerate *candidate networks* (CNs): schema-level join trees
//!    over tuple sets that are total and minimal covers of the query,
//!    breadth-first with canonical-form duplicate elimination
//!    (Hristidis & Papakonstantinou VLDB 02; Markowetz et al. SIGMOD 07);
//! 3. [`eval`] — evaluate a CN bottom-up with hash joins;
//! 4. [`topk`] — the tutorial's reference top-k strategies over many CNs:
//!    Naive, Sparse, Single and Global Pipeline (DISCOVER2, VLDB 03) —
//!    compared by the experiments and used as the serial oracle in tests;
//!    [`pexec`] — the engine's executor: Sparse over one bound-ordered CN
//!    list under one top-k bound, on the calling thread, joining
//!    through the database's key indexes and ranking from [`score`]'s
//!    per-query [`score::ScoreTable`] — scores computed from the tuple
//!    sets' frequencies, bit-identical to the text-derived
//!    [`ResultScorer::tuple_score`] the references use;
//! 5. [`spark`] — SPARK's non-monotonic virtual-document scoring with the
//!    Skyline-Sweep and Block-Pipeline algorithms (Luo et al., SIGMOD 07);
//! 6. [`mesh`] — shared execution across CNs with common subtrees
//!    (operator mesh, SIGMOD 07; SPARK2 partition graph, TKDE 11);
//! 7. [`parallel`] — the per-CN join plans the executor follows, plus the
//!    multi-core CN partitioners — sharing-oblivious vs
//!    sharing-aware vs operator-level (Qin et al., VLDB 10) — that
//!    experiment E22 simulates;
//! 8. [`rdbms_power`] — distinct-core evaluation expressed purely as
//!    relational operators (Qin et al., SIGMOD 09);
//! 9. [`dbselect`] — keyword-relationship summaries for routing queries to
//!    the right database (Yu et al., SIGMOD 07; slide 168);
//! 10. [`timebound`] — budgeted search returning residual query forms for
//!     the unexplored space (Baid et al., ICDE 10; slides 119–120).

pub mod cn;
pub mod dbselect;
pub mod eval;
pub mod facets;
pub mod mesh;
pub mod parallel;
pub mod pexec;
pub mod rdbms_power;
pub mod score;
pub mod spark;
pub mod timebound;
pub mod topk;
pub mod tupleset;

pub use cn::{CandidateNetwork, CnGenConfig, CnGenerator};
pub use eval::{evaluate_cn, JoinedResult};
pub use facets::{FacetAccum, FacetRequest, Refinement, ResolvedFacet, ResolvedRefinement};
pub use score::{corpus_stats, ResultScorer};
pub use tupleset::{TupleSet, TupleSets};
