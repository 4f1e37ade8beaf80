//! A simple string interner.
//!
//! The term index ([`crate::index::TermIndex`]) interns its terms, the XML
//! substrate element labels and the graph substrate node kinds; all need
//! cheap `Copy` ids with O(1) both-way lookup.

use std::collections::HashMap;

/// Interned-string id. Ids are dense, starting at 0, in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// Append-only string interner.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    map: HashMap<String, Sym>,
    strings: Vec<String>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        self.strings.push(s.to_string());
        self.map.insert(s.to_string(), sym);
        sym
    }

    /// Look up an already-interned string.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolve an id back to its string. Panics on a foreign `Sym`.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterate `(Sym, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("paper");
        let b = i.intern("paper");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let a = i.intern("author");
        let p = i.intern("paper");
        assert_eq!(i.resolve(a), "author");
        assert_eq!(i.resolve(p), "paper");
        assert_eq!(i.get("author"), Some(a));
        assert_eq!(i.get("missing"), None);
    }

    #[test]
    fn ids_are_dense_insertion_order() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), Sym(0));
        assert_eq!(i.intern("b"), Sym(1));
        let pairs: Vec<_> = i.iter().collect();
        assert_eq!(pairs, vec![(Sym(0), "a"), (Sym(1), "b")]);
    }
}
