//! One-stop imports for the common case: `use kwdb::prelude::*;`.
//!
//! Re-exports the request/response surface, the three unified engines with
//! their typed hits and per-model knobs, the dispatcher, the execution
//! budget, and the observability handles — everything a typical caller
//! touches, nothing index- or algorithm-internal.
//!
//! ```
//! use kwdb::prelude::*;
//!
//! let mut db = kwdb::relational::Database::new();
//! kwdb::relational::database::dblp_schema(&mut db).unwrap();
//! db.insert("conference", vec![1.into(), "SIGMOD".into(), 2007.into()])
//!     .unwrap();
//! db.build_text_index();
//! let engine = RelationalEngine::new(db);
//! let resp = engine.execute(&SearchRequest::new("sigmod").k(3)).unwrap();
//! assert!(!resp.truncated());
//! ```

pub use crate::dispatch::{Catalog, DispatchOutcome, Dispatcher};
pub use crate::engine::{
    Engine, GraphEngine, GraphSemantics, Hit, RelationalConfig, RelationalEngine, RelationalHit,
    Scoring, SearchRequest, SearchResponse, XmlEngine, XmlHit,
};
pub use kwdb_common::index::IndexStats;
pub use kwdb_common::{
    Budget, FacetCount, FacetCounts, FacetSpec, KwdbError, QueryStats, RangeBucket, Result,
    TruncationReason,
};
pub use kwdb_obs::{MetricsRegistry, QueryTrace, TraceLevel};
pub use kwdb_relsearch::Refinement;
