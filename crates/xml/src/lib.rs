//! XML tree substrate for kwdb.
//!
//! XML keyword search (SLCA/ELCA families, XSeek, XReal, snippets, …) runs
//! over a tree store with three essential services, all provided here:
//!
//! * an **arena tree** with pre-order node ids and parent/children/depth
//!   accessors, where containment is a pre-order interval test and LCA a
//!   parent-chain climb — [`tree::XmlTree`];
//! * **Dewey ids**, derived on demand, for printing and resolving node
//!   positions across trees — [`dewey::Dewey`];
//! * **keyword inverted lists** sorted in document order with the binary-
//!   search probes (`lm`/`rm` in XKSearch's terms) the SLCA algorithms are
//!   built from — [`index::XmlIndex`];
//! * **label-path statistics** (node counts and term distributions per
//!   root-to-node label path) that XReal/XBridge score structures with —
//!   [`stats::PathStats`].
//!
//! Trees come from the tiny [`parse`] module (enough XML for datasets and
//! tests: elements, attributes, text) or the programmatic
//! [`tree::XmlBuilder`].

pub mod dewey;
pub mod index;
pub mod parse;
pub mod stats;
pub mod tree;

pub use dewey::Dewey;
pub use index::XmlIndex;
pub use parse::parse_xml;
pub use stats::PathStats;
pub use tree::{NodeId, XmlBuilder, XmlTree};
