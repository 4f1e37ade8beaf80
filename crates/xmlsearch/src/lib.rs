//! XML keyword search.
//!
//! The tutorial's XML track has two halves, both implemented here:
//!
//! **Finding results** (slides 32–34, 137–141): subtrees rooted at
//! ?LCA nodes —
//! * [`slca`] — Smallest LCAs via Indexed-Lookup-Eager and Scan-Eager
//!   (Xu & Papakonstantinou, SIGMOD 05), plus Multiway-SLCA (WWW 07);
//! * [`elca`](mod@crate::elca) — Exclusive LCAs via the Index-Stack candidate + verify scheme
//!   (EDBT 08 / XRank SIGMOD 03), returned in document order;
//! * [`interconnection`] — XSEarch's interconnection semantics: matches
//!   related iff their connecting path has no repeated labels
//!   (Cohen et al., VLDB 03; slide 34);
//!
//! **Interpreting queries and results**:
//! * [`xseek`] — keyword-role analysis and return-node inference
//!   (Liu & Chen, SIGMOD 07; slides 51 and 161);
//! * [`xreal`] — statistics-driven search-for-type inference
//!   (Bao et al., ICDE 09; slides 37–38);
//! * [`ntc`] — normalized total correlation for design-independent
//!   structural ranking (Termehchy & Winslett, CIKM 09; slides 41–43);
//! * [`xpath_infer`] — probabilistic keyword→XPath inference
//!   (Petkova et al., ECIR 09; slides 47–48);
//! * [`snippet`] — query-biased result snippets (Huang et al., SIGMOD 08;
//!   slides 147–148).

pub mod elca;
pub mod interconnection;
pub mod ntc;
pub mod slca;
pub mod snippet;
pub mod xpath_infer;
pub mod xreal;
pub mod xseek;

pub use elca::elca;
pub use slca::{multiway_slca, slca_indexed_budgeted, slca_indexed_lookup_eager, slca_scan_eager};
