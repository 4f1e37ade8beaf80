//! The term dictionary: normalized term ⇄ dense [`Sym`] id.

use crate::intern::{Interner, Sym};

/// A dictionary of index terms built on the string [`Interner`].
///
/// Terms get dense, insertion-ordered [`Sym`] ids, so a posting store can
/// keep per-term data in plain `Vec`s indexed by `Sym` instead of hashing
/// `String` keys. Build paths call [`intern`](Self::intern) (one `String`
/// allocation per *distinct* term, ever); query paths call
/// [`lookup`](Self::lookup) once per query term and then carry the `Sym`.
#[derive(Debug, Default, Clone)]
pub struct TermDict {
    interner: Interner,
}

impl TermDict {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `term`, returning its stable id. Allocates only the first
    /// time a distinct term is seen.
    pub fn intern(&mut self, term: &str) -> Sym {
        self.interner.intern(term)
    }

    /// Resolve a query term to its id, if the term was ever indexed.
    pub fn lookup(&self, term: &str) -> Option<Sym> {
        self.interner.get(term)
    }

    /// The string form of an interned term. Panics on a foreign `Sym`.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.interner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.interner.is_empty()
    }

    /// Iterate `(Sym, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.interner.iter()
    }

    /// Iterate all terms in id order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        self.interner.iter().map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_then_lookup_round_trips() {
        let mut d = TermDict::new();
        let a = d.intern("xml");
        assert_eq!(d.intern("xml"), a, "idempotent");
        assert_eq!(d.lookup("xml"), Some(a));
        assert_eq!(d.lookup("missing"), None);
        assert_eq!(d.resolve(a), "xml");
        assert_eq!(d.len(), 1);
    }
}
