//! Bounded top-k collection, used by every ranked search engine in kwdb.
//!
//! [`TopK`] breaks score ties by the items themselves, so a caller states
//! its tie rule in its item type: the relational executor and references
//! push `(cn, result)`, so ties go by content and the kept set is a function
//! of the multiset offered; the graph searches push `(arrival, root)`, with
//! `arrival` a per-search counter, so ties go by insertion order.

/// The most items a collector makes room for before any arrives: the `k` of
/// a request bounds the answer, not an allocation.
const PREALLOCATED: usize = 64;

/// Keeps the `k` best items under the order `(score desc, item asc)`: of
/// several equally scored items the smallest survive, so the kept set is a
/// function of the multiset offered. One sorted `Vec` — `k` is small (tens), so a
/// binary-searched insert beats heap bookkeeping and keeps eviction order
/// obvious.
#[derive(Debug)]
pub struct TopK<T> {
    k: usize,
    /// Best first; `len() <= k`.
    items: Vec<(f64, T)>,
}

impl<T: Ord> TopK<T> {
    /// A collector for the best `k` items. `k == 0` accepts nothing. Room
    /// for at most `PREALLOCATED` (64) items is made up front; past that
    /// the `Vec` grows as items arrive, so any `k` (up to `usize::MAX`,
    /// "all of them") costs what is kept.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            items: Vec::with_capacity(k.min(PREALLOCATED) + 1),
        }
    }

    /// The k-th best score, once `k` items are held: every kept item meets
    /// or beats it. Prune on **strictly below** only — an item scoring
    /// exactly the threshold may still enter under the item tie-break.
    pub fn threshold(&self) -> Option<f64> {
        let last = self.k.checked_sub(1)?;
        self.items.get(last).map(|e| e.0)
    }

    /// Whether `score` could still enter (is not strictly below the
    /// threshold): callers skip whole candidates on `false` before doing
    /// any work for them.
    pub fn would_accept(&self, score: f64) -> bool {
        self.threshold().is_none_or(|t| score >= t)
    }

    /// Offer an item. Returns `true` if it was kept (a better item may
    /// still evict it later).
    pub fn push(&mut self, score: f64, item: T) -> bool {
        let Some(pos) = self.place(score, &item) else {
            return false;
        };
        self.items.insert(pos, (score, item));
        self.items.truncate(self.k);
        true
    }

    /// [`push`](Self::push) an item held by reference, cloning it only if
    /// it is kept: an item that ties the k-th best score and orders after
    /// it under content costs a comparison, not a copy. Once `k` items are
    /// held, the evicted k-th entry is reused for the newcomer
    /// ([`Clone::clone_from`]), so an item type that reuses its buffers
    /// there costs no allocation per kept item.
    pub fn push_cloned(&mut self, score: f64, item: &T) -> bool
    where
        T: Clone,
    {
        let Some(pos) = self.place(score, item) else {
            return false;
        };
        let entry = if self.items.len() == self.k {
            // (full, so `k ≥ 1`: the k-th entry leaves and is refilled)
            let (_, mut evicted) = self.items.pop().expect("k items held");
            evicted.clone_from(item);
            (score, evicted)
        } else {
            (score, item.clone())
        };
        self.items.insert(pos, entry);
        true
    }

    /// Where `(score, item)` would go under the content order (higher
    /// score first, then smaller item), if it would be kept. Once `k` items
    /// are held, an offer that orders strictly after the k-th is rejected
    /// by that one comparison, before any search: the usual case, since a
    /// CN's rows tie at the k-th score and order after it by content.
    fn place(&self, score: f64, item: &T) -> Option<usize> {
        if !self.would_accept(score) {
            return None;
        }
        let order = |e: &(f64, T)| score.total_cmp(&e.0).then_with(|| e.1.cmp(item));
        let kth = self.k.checked_sub(1).and_then(|last| self.items.get(last));
        if kth.is_some_and(|e| order(e).is_lt()) {
            return None;
        }
        let (Ok(pos) | Err(pos)) = self.items.binary_search_by(order);
        (pos < self.k).then_some(pos) // not after the k-th best (never, at k = 0)
    }

    /// The kept items, best first under `(score desc, item asc)`.
    pub fn into_sorted_vec(self) -> Vec<(f64, T)> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut tk = TopK::new(3);
        for (s, v) in [(1.0, "a"), (5.0, "b"), (3.0, "c"), (4.0, "d"), (2.0, "e")] {
            tk.push(s, v);
        }
        assert_eq!(
            tk.into_sorted_vec(),
            vec![(5.0, "b"), (4.0, "d"), (3.0, "c")]
        );
        // Whatever the arrival order.
        let mut tk = TopK::new(3);
        for (i, s) in [1.0, 9.0, 3.0, 7.0, 5.0, 8.0].iter().enumerate() {
            tk.push(*s, i as u32);
        }
        assert_eq!(tk.into_sorted_vec(), vec![(9.0, 1), (8.0, 5), (7.0, 3)]);
    }

    /// `(arrival, item)` items, as the graph searches push them: ties go by
    /// insertion order, whatever the items.
    #[test]
    fn ties_keep_earlier_item() {
        let mut tk = TopK::new(1);
        assert!(tk.push(1.0, (0, "z")));
        assert!(
            !tk.push(1.0, (1, "a")),
            "a later tie, though a smaller item"
        );
        assert_eq!(tk.into_sorted_vec(), vec![(1.0, (0, "z"))]);
    }

    #[test]
    fn equal_scores_order_by_insertion() {
        let mut tk = TopK::new(3);
        for (arrival, v) in ["c", "a", "b", "d"].into_iter().enumerate() {
            tk.push(2.0, (arrival, v));
        }
        let out: Vec<&str> = tk
            .into_sorted_vec()
            .into_iter()
            .map(|(_, (_, v))| v)
            .collect();
        assert_eq!(out, vec!["c", "a", "b"]);
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut tk = TopK::new(0);
        assert_eq!(tk.threshold(), None);
        assert!(tk.would_accept(10.0), "no threshold to prune with");
        assert!(!tk.push(10.0, "x"));
        assert!(!tk.push_cloned(10.0, &"y"));
        assert!(tk.into_sorted_vec().is_empty());
    }

    #[test]
    fn fewer_than_k_items() {
        let mut tk = TopK::new(10);
        tk.push(1.0, 1);
        tk.push(2.0, 2);
        assert_eq!(tk.threshold(), None, "not full");
        assert_eq!(tk.into_sorted_vec(), vec![(2.0, 2), (1.0, 1)]);
    }

    #[test]
    fn content_order_breaks_ties_by_item_not_arrival() {
        let mut tk = TopK::new(2);
        tk.push(5.0, 9u32);
        tk.push(5.0, 2u32);
        tk.push(5.0, 7u32);
        assert_eq!(tk.into_sorted_vec(), vec![(5.0, 2), (5.0, 7)]);
    }

    #[test]
    fn content_order_boundary_ties_survive_the_threshold() {
        // The best two of three equal scores are the two smallest items,
        // even when the largest arrives first.
        let mut tk = TopK::new(2);
        tk.push(5.0, 3u32);
        tk.push(5.0, 1);
        assert!(tk.would_accept(5.0), "a tie with the threshold may enter");
        assert!(tk.push(5.0, 2));
        assert!(!tk.push(5.0, 4), "ties the k-th score, orders after it");
        assert_eq!(tk.into_sorted_vec(), vec![(5.0, 1), (5.0, 2)]);
    }

    #[test]
    fn content_order_threshold_appears_once_full() {
        let mut tk = TopK::new(2);
        assert_eq!(tk.threshold(), None);
        assert!(tk.would_accept(f64::MIN));
        tk.push(4.0, 1u32);
        assert_eq!(tk.threshold(), None, "not full yet");
        tk.push(6.0, 2);
        assert_eq!(tk.threshold(), Some(4.0));
        assert!(tk.would_accept(4.0));
        assert!(!tk.would_accept(3.9));
        assert!(!tk.push(3.9, 0), "strictly below the threshold");
        tk.push(5.0, 3);
        assert_eq!(tk.threshold(), Some(5.0), "rises as better items arrive");
    }

    #[test]
    fn push_cloned_keeps_what_push_keeps() {
        let offers = [
            (5.0, 3u32),
            (5.0, 1),
            (7.0, 9),
            (5.0, 2),
            (5.0, 4),
            (6.0, 0),
        ];
        let (mut owned, mut cloned) = (TopK::new(3), TopK::new(3));
        for (s, v) in offers {
            assert_eq!(owned.push(s, v), cloned.push_cloned(s, &v), "{s} {v}");
        }
        assert_eq!(owned.into_sorted_vec(), cloned.into_sorted_vec());
    }

    #[test]
    fn push_cloned_refills_the_evicted_entry() {
        let mut top = TopK::new(2);
        top.push_cloned(1.0, &vec![1u32, 2, 3]);
        top.push_cloned(2.0, &vec![4, 5, 6]);
        let evicted = top.items[1].1.as_ptr();
        assert!(top.push_cloned(3.0, &vec![7, 8, 9]));
        assert_eq!(
            top.items[0].1.as_ptr(),
            evicted,
            "the evicted buffer holds it"
        );
        let kept = [(3.0, vec![7, 8, 9]), (2.0, vec![4, 5, 6])];
        assert_eq!(top.into_sorted_vec(), kept);
    }

    /// Placement by the threshold test and the binary search alone, with no
    /// k-th-entry reject: what `push` and `push_cloned` must keep.
    fn place_by_search(items: &[(f64, u32)], k: usize, score: f64, item: u32) -> Option<usize> {
        let full = k.checked_sub(1).and_then(|last| items.get(last));
        if full.is_some_and(|e| score < e.0) {
            return None;
        }
        let order = |e: &(f64, u32)| score.total_cmp(&e.0).then_with(|| e.1.cmp(&item));
        let (Ok(pos) | Err(pos)) = items.binary_search_by(order);
        (pos < k).then_some(pos)
    }

    #[test]
    fn the_fast_reject_keeps_what_the_search_kept() {
        let mut rng = crate::Rng::seed_from_u64(46);
        for k in [0, 1, 2, 3, 5, 10, 64] {
            for _ in 0..40 {
                let (mut owned, mut cloned) = (TopK::new(k), TopK::new(k));
                let mut reference: Vec<(f64, u32)> = Vec::new();
                for _ in 0..300 {
                    // Few distinct scores and items: heavy ties, and
                    // duplicates of whole offers.
                    let score = rng.gen_index(4) as f64 * 0.5;
                    let item = rng.gen_index(6) as u32;
                    let kept = place_by_search(&reference, k, score, item).map(|pos| {
                        reference.insert(pos, (score, item));
                        reference.truncate(k);
                    });
                    assert_eq!(owned.push(score, item), kept.is_some(), "k {k}");
                    assert_eq!(cloned.push_cloned(score, &item), kept.is_some(), "k {k}");
                    assert_eq!(owned.items, reference, "k {k}");
                    assert_eq!(cloned.items, reference, "k {k}");
                }
            }
        }
    }

    #[test]
    fn unbounded_k_sizes_nothing_by_k() {
        let mut tk = TopK::new(usize::MAX);
        assert_eq!(tk.threshold(), None);
        for i in 0..5u32 {
            assert!(tk.push(f64::from(i), i));
        }
        let kept = tk.into_sorted_vec();
        assert_eq!((kept.len(), kept[0]), (5, (4.0, 4)));
    }
}
