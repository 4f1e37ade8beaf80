//! A lock-striped, byte-budgeted sharded LRU cache with a singleflight
//! layer.
//!
//! This is the substrate for both inter-query caches the engines run on:
//! the per-engine *result cache* (sealed responses keyed by generation +
//! normalized query shape) and the relational *tupleset cache* (per-term
//! tuple-key lists keyed by generation + term symbol). Invalidation is by
//! construction — every key embeds the engine's data generation, so a
//! mutation makes old entries unreachable and the LRU sweep reclaims them;
//! nothing ever calls an explicit `invalidate`.
//!
//! Design:
//!
//! - **Striping.** `shard = hash(key) % stripes`, one `Mutex` per shard, so
//!   concurrent lookups on different keys rarely contend. Hit/miss/eviction
//!   counters and the byte/entry totals are process-global atomics read
//!   without any lock. A lookup — hit, follower or leader-elect — takes its
//!   key's shard lock once and no other.
//! - **Recency.** Each shard threads its entries on an intrusive
//!   doubly-linked list, least recently used at the head. A touch finds the
//!   entry's slot through the shard's map (one hash of the key) and moves
//!   two links; it neither clones the key nor looks it up again.
//! - **Byte budget.** Every insert carries the caller's byte estimate for
//!   the value. When the global total exceeds `max_bytes` (or the entry
//!   count exceeds `max_entries`), shards are probed cyclically starting at
//!   the inserting shard and each probed shard evicts its own
//!   least-recently-used entry until the totals are back under budget — a
//!   strict global bound with per-shard LRU victim selection. A single
//!   value larger than the whole byte budget is not stored at all.
//! - **Singleflight.** [`ShardedCache::get_or_compute`] collapses N
//!   concurrent misses on one key into a single compute: the first caller
//!   becomes the *leader* and runs the closure; followers block on a
//!   condvar. A leader publishes either the cacheable value (followers
//!   share it and count as hits) or "not cacheable" (followers retry, and
//!   the first retrier becomes the new leader — a truncated or failed
//!   compute must never be handed to a caller with a different budget).
//!   A key's flight lives in the key's shard, beside its entry: the leader
//!   stores its value and retires its flight under one hold of that lock,
//!   so a caller that finds neither really is first.
//!
//! Lock order: no two shard locks are ever held together, and the compute
//! closure runs with no cache lock held.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sizing and enablement knobs for one [`ShardedCache`].
///
/// `Copy` so engine configs embedding it stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch: a disabled cache never stores and every lookup
    /// misses (engines skip consulting it entirely).
    pub enabled: bool,
    /// Global budget for the sum of the callers' per-value byte estimates.
    pub max_bytes: usize,
    /// Global cap on the number of live entries.
    pub max_entries: usize,
    /// Number of lock stripes (clamped to at least 1).
    pub stripes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: true,
            max_bytes: 32 << 20, // 32 MiB
            max_entries: 4096,
            stripes: 16,
        }
    }
}

impl CacheConfig {
    /// A switched-off cache: the per-engine spelling of "cache off" (one
    /// request opts out with `SearchRequest::caching(false)`; there is no
    /// third, fleet-wide switch). Consults are skipped and count nothing.
    pub fn disabled() -> Self {
        CacheConfig {
            enabled: false,
            ..Default::default()
        }
    }
}

/// Point-in-time counters of one cache, all readable without a lock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
    pub bytes: usize,
}

/// "No entry" in a shard's recency links.
const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    bytes: usize,
    /// Neighbours in the shard's recency list: `prev` is the next older
    /// entry, `next` the next newer one.
    prev: usize,
    next: usize,
}

struct Shard<K, V> {
    /// key → position in `entries`.
    slots: HashMap<K, usize>,
    /// Dense: a removal moves the last entry into the hole.
    entries: Vec<Entry<K, V>>,
    /// Least recently used entry — the next victim — and most recently
    /// used one; [`NIL`] when the shard is empty.
    oldest: usize,
    newest: usize,
    /// Computes in flight for keys that hash to this shard.
    flights: HashMap<K, Arc<Flight<V>>>,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            slots: HashMap::new(),
            entries: Vec::new(),
            oldest: NIL,
            newest: NIL,
            flights: HashMap::new(),
        }
    }

    /// Take entry `i` out of the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.entries[i].prev, self.entries[i].next);
        match prev {
            NIL => self.oldest = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.newest = prev,
            n => self.entries[n].prev = prev,
        }
    }

    /// Make entry `i` (not on the list) the most recently used.
    fn link_newest(&mut self, i: usize) {
        self.entries[i].prev = self.newest;
        self.entries[i].next = NIL;
        match self.newest {
            NIL => self.oldest = i,
            n => self.entries[n].next = i,
        }
        self.newest = i;
    }

    /// Move entry `i` to the most-recently-used end of the list.
    fn promote(&mut self, i: usize) {
        if self.newest != i {
            self.unlink(i);
            self.link_newest(i);
        }
    }

    /// Look `key` up and mark it most recently used.
    fn touch(&mut self, key: &K) -> Option<&V> {
        let i = *self.slots.get(key)?;
        self.promote(i);
        Some(&self.entries[i].value)
    }

    /// Store `value` under `key` as the most recently used entry; returns
    /// the byte estimate of the entry it replaced, if the key was resident.
    fn store(&mut self, key: K, value: V, bytes: usize) -> Option<usize> {
        if let Some(&i) = self.slots.get(&key) {
            let entry = &mut self.entries[i];
            entry.value = value;
            let old = std::mem::replace(&mut entry.bytes, bytes);
            self.promote(i);
            return Some(old);
        }
        let i = self.entries.len();
        self.entries.push(Entry {
            key: key.clone(),
            value,
            bytes,
            prev: NIL,
            next: NIL,
        });
        self.slots.insert(key, i);
        self.link_newest(i);
        None
    }

    /// Evict this shard's LRU entry; returns its byte estimate.
    fn evict_lru(&mut self) -> Option<usize> {
        let victim = self.oldest;
        if victim == NIL {
            return None;
        }
        self.unlink(victim);
        self.slots.remove(&self.entries[victim].key);
        let evicted = self.entries.swap_remove(victim);
        // The last entry now sits at `victim`: repoint whatever named it by
        // its old position (its slot, its list neighbours or the list ends).
        if let Some(moved) = self.entries.get(victim) {
            let (prev, next) = (moved.prev, moved.next);
            *self
                .slots
                .get_mut(&moved.key)
                .expect("every entry has a slot") = victim;
            match prev {
                NIL => self.oldest = victim,
                p => self.entries[p].next = victim,
            }
            match next {
                NIL => self.newest = victim,
                n => self.entries[n].prev = victim,
            }
        }
        Some(evicted.bytes)
    }
}

/// A leader/followers rendezvous for one in-flight key: the leader
/// publishes `Some(value)` (cacheable) or `None` (not cacheable — retry).
struct Flight<V> {
    done: Mutex<Option<Option<V>>>,
    cv: Condvar,
}

/// Outcome of [`ShardedCache::get_or_compute`].
pub enum Looked<R, V> {
    /// This caller ran the compute closure; `R` is whatever it returned.
    Computed(R),
    /// The value came out of the cache (or from a concurrent leader's
    /// compute); counted as a hit.
    Cached(V),
}

/// The lock-striped LRU described in the [module docs](self).
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    cfg: CacheConfig,
    bytes: AtomicUsize,
    entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Resolves the leader's flight when [`ShardedCache::get_or_compute`]'s
/// compute returns — or unwinds, in which case nothing was stored and the
/// followers are told to retry.
struct Landing<'a, K: Hash + Eq + Clone, V: Clone> {
    cache: &'a ShardedCache<K, V>,
    home: usize,
    key: Option<K>,
    cacheable: Option<(V, usize)>,
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for Landing<'_, K, V> {
    fn drop(&mut self) {
        let key = self.key.take().expect("a landing is dropped once");
        let published = self.cacheable.as_ref().map(|(v, _)| v.clone());
        // Store before retiring the flight, under one hold of the shard
        // lock: "no value and no flight" then always means "first".
        let flight = {
            let mut shard = self.cache.lock(self.home);
            let flight = shard.flights.remove(&key);
            if let Some((value, bytes)) = self.cacheable.take() {
                self.cache.store_locked(&mut shard, key, value, bytes);
            }
            flight
        };
        self.cache.sweep(self.home);
        if let Some(f) = flight {
            *f.done.lock().expect("flight poisoned") = Some(published);
            f.cv.notify_all();
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    pub fn new(cfg: CacheConfig) -> Self {
        let stripes = cfg.stripes.max(1);
        ShardedCache {
            shards: (0..stripes).map(|_| Mutex::new(Shard::new())).collect(),
            cfg,
            bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn shard_of(&self, key: &K) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[shard].lock().expect("cache shard poisoned")
    }

    /// Plain lookup, counting a hit or miss. Disabled caches always miss
    /// (without counting — callers are expected not to consult them).
    pub fn get(&self, key: &K) -> Option<V> {
        if !self.cfg.enabled {
            return None;
        }
        let got = self.lock(self.shard_of(key)).touch(key).cloned();
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Insert `value` with the caller's byte estimate, then sweep shards
    /// until the global budgets hold again. A value alone exceeding the
    /// whole byte budget is rejected outright.
    pub fn insert(&self, key: K, value: V, value_bytes: usize) {
        if !self.cfg.enabled {
            return;
        }
        let home = self.shard_of(&key);
        self.store_locked(&mut self.lock(home), key, value, value_bytes);
        self.sweep(home);
    }

    /// The store half of [`insert`](Self::insert), under the home shard's
    /// lock: keeps the global byte and entry totals in step.
    fn store_locked(&self, shard: &mut Shard<K, V>, key: K, value: V, value_bytes: usize) {
        if value_bytes > self.cfg.max_bytes {
            return;
        }
        if let Some(replaced) = shard.store(key, value, value_bytes) {
            self.bytes.fetch_sub(replaced, Ordering::Relaxed);
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        self.bytes.fetch_add(value_bytes, Ordering::Relaxed);
        self.entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Probe shards cyclically from `home`, evicting each probed shard's
    /// LRU, until both global budgets hold. Each probe drops at most one
    /// entry, so the loop terminates once the cache is empty even under
    /// adversarial byte estimates.
    fn sweep(&self, home: usize) {
        let mut probe = home;
        while self.bytes.load(Ordering::Relaxed) > self.cfg.max_bytes
            || self.entries.load(Ordering::Relaxed) > self.cfg.max_entries
        {
            let evicted = self.lock(probe).evict_lru();
            if let Some(freed) = evicted {
                self.bytes.fetch_sub(freed, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else if self.entries.load(Ordering::Relaxed) == 0 {
                break;
            }
            probe = (probe + 1) % self.shards.len();
        }
    }

    /// Look `key` up; on a miss, collapse concurrent callers into one
    /// *leader* that runs `compute` while followers wait.
    ///
    /// `compute` returns `(result, cacheable)`: the `result` is handed back
    /// verbatim in [`Looked::Computed`], and `cacheable` is `Some((value,
    /// bytes))` when the computed value may be shared — it is inserted and
    /// published to the followers, who receive it as [`Looked::Cached`].
    /// `None` marks the result non-cacheable (truncated, failed): nothing
    /// is stored, and each follower retries the lookup from the top, the
    /// first of them becoming the next leader. Followers count as hits,
    /// the leader as a miss.
    ///
    /// The closure runs with no cache lock held. If it panics, the flight
    /// is resolved as non-cacheable so followers are never stranded.
    pub fn get_or_compute<R>(
        &self,
        key: K,
        compute: impl FnOnce() -> (R, Option<(V, usize)>),
    ) -> Looked<R, V> {
        if !self.cfg.enabled {
            let (result, _) = compute();
            return Looked::Computed(result);
        }
        let home = self.shard_of(&key);
        loop {
            // One hold of the key's shard lock decides hit, follower or
            // leader. A leader stores its value and retires its flight under
            // one hold of the same lock (`Landing`), so finding neither can
            // only mean this caller is first, never that it raced a
            // leader's completion.
            let flight = {
                let mut shard = self.lock(home);
                if let Some(v) = shard.touch(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Looked::Cached(v.clone());
                }
                match shard.flights.get(&key) {
                    Some(f) => Arc::clone(f),
                    None => {
                        // Leader-elect: this is the miss that stands.
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        shard.flights.insert(
                            key.clone(),
                            Arc::new(Flight {
                                done: Mutex::new(None),
                                cv: Condvar::new(),
                            }),
                        );
                        drop(shard);
                        let mut landing = Landing {
                            cache: self,
                            home,
                            key: Some(key),
                            cacheable: None,
                        };
                        let (result, cacheable) = compute();
                        landing.cacheable = cacheable;
                        return Looked::Computed(result);
                    }
                }
            };
            let mut done = flight.done.lock().expect("flight poisoned");
            while done.is_none() {
                done = flight.cv.wait(done).expect("flight poisoned");
            }
            if let Some(v) = done.as_ref().expect("loop established Some") {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Looked::Cached(v.clone());
            }
            // Leader's result wasn't cacheable: retry; this caller may
            // become the next leader.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(max_bytes: usize, max_entries: usize, stripes: usize) -> ShardedCache<u64, String> {
        ShardedCache::new(CacheConfig {
            enabled: true,
            max_bytes,
            max_entries,
            stripes,
        })
    }

    #[test]
    fn hit_miss_and_counters() {
        let c = cache(1024, 16, 4);
        assert_eq!(c.get(&1), None);
        c.insert(1, "one".into(), 3);
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.entries, s.bytes), (1, 3));
        // replacing a key swaps its bytes, not duplicates them
        c.insert(1, "uno!".into(), 10);
        let s = c.stats();
        assert_eq!((s.entries, s.bytes), (1, 10));
        assert_eq!(c.get(&1).as_deref(), Some("uno!"));
    }

    #[test]
    fn byte_budget_is_a_strict_bound() {
        // Every insert leaves total bytes ≤ max_bytes, across any number of
        // shards, and evictions are accounted.
        let c = cache(100, 1000, 4);
        for i in 0..50u64 {
            c.insert(i, format!("v{i}"), 10);
            let s = c.stats();
            assert!(s.bytes <= 100, "byte budget violated: {}", s.bytes);
            assert_eq!(s.bytes, s.entries * 10);
        }
        let s = c.stats();
        assert_eq!(s.entries, 10);
        assert_eq!(s.evictions, 40);
    }

    #[test]
    fn entry_budget_is_a_strict_bound() {
        let c = cache(usize::MAX, 5, 2);
        for i in 0..20u64 {
            c.insert(i, "x".into(), 1);
            assert!(c.stats().entries <= 5);
        }
        assert_eq!(c.stats().evictions, 15);
    }

    #[test]
    fn eviction_prefers_least_recently_used() {
        // One stripe makes the LRU order global and deterministic.
        let c = cache(30, 1000, 1);
        c.insert(1, "a".into(), 10);
        c.insert(2, "b".into(), 10);
        c.insert(3, "c".into(), 10);
        assert_eq!(c.get(&1).as_deref(), Some("a")); // refresh 1
        c.insert(4, "d".into(), 10); // evicts 2, the LRU
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&1).as_deref(), Some("a"));
        assert_eq!(c.get(&3).as_deref(), Some("c"));
        assert_eq!(c.get(&4).as_deref(), Some("d"));
    }

    #[test]
    fn oversized_value_is_not_stored() {
        let c = cache(100, 16, 2);
        c.insert(1, "small".into(), 10);
        c.insert(2, "huge".into(), 101);
        assert_eq!(c.get(&2), None);
        // and it didn't evict the resident entry to make room
        assert_eq!(c.get(&1).as_deref(), Some("small"));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn disabled_cache_never_stores_and_always_computes() {
        let c: ShardedCache<u64, String> = ShardedCache::new(CacheConfig::disabled());
        c.insert(1, "x".into(), 1);
        assert_eq!(c.get(&1), None);
        let mut ran = false;
        match c.get_or_compute(1, || {
            ran = true;
            (7u32, Some(("x".to_string(), 1)))
        }) {
            Looked::Computed(r) => assert_eq!(r, 7),
            Looked::Cached(_) => panic!("disabled cache returned a value"),
        }
        assert!(ran);
        assert_eq!(c.stats(), CacheStats::default());
    }

    #[test]
    fn singleflight_computes_once_under_contention() {
        use std::sync::atomic::AtomicU32;
        let c = Arc::new(cache(1024, 16, 4));
        let computes = AtomicU32::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                let computes = &computes;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let v = match c.get_or_compute(42, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        // widen the race window so followers really queue
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        ("val".to_string(), Some(("val".to_string(), 3)))
                    }) {
                        Looked::Computed(v) => v,
                        Looked::Cached(v) => v,
                    };
                    assert_eq!(v, "val");
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "exactly one compute");
        let s = c.stats();
        assert_eq!(s.misses, 1, "only the leader missed");
        assert_eq!(s.hits, 7, "every follower shared the leader's result");
    }

    #[test]
    fn non_cacheable_compute_is_retried_not_shared() {
        let c = Arc::new(cache(1024, 16, 4));
        let barrier = std::sync::Barrier::new(4);
        let computes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let computes = &computes;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    match c.get_or_compute(7, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        ("truncated".to_string(), None)
                    }) {
                        Looked::Computed(v) => assert_eq!(v, "truncated"),
                        Looked::Cached(_) => panic!("non-cacheable value was shared"),
                    }
                });
            }
        });
        // every thread computed for itself (leaders in sequence)
        assert_eq!(computes.load(Ordering::Relaxed), 4);
        assert_eq!(c.get(&7), None, "nothing was stored");
    }

    #[test]
    fn panicking_leader_does_not_strand_followers() {
        let c = Arc::new(cache(1024, 16, 4));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let leader = {
            let c = Arc::clone(&c);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    c.get_or_compute(9, || {
                        barrier.wait();
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        panic!("compute exploded");
                        #[allow(unreachable_code)]
                        ((), Some(("x".to_string(), 1)))
                    })
                }));
            })
        };
        barrier.wait(); // the leader is inside its compute now
        let got = c.get_or_compute(9, || ("recovered".to_string(), None));
        match got {
            Looked::Computed(v) => assert_eq!(v, "recovered"),
            Looked::Cached(_) => panic!("panicked flight published a value"),
        }
        leader.join().unwrap();
    }

    #[test]
    fn generation_in_the_key_invalidates_without_any_call() {
        // The pattern every engine uses: (generation, term) keys. Bumping
        // the generation makes old entries unreachable; LRU reclaims them.
        let c: ShardedCache<(u64, u32), String> = ShardedCache::new(CacheConfig {
            enabled: true,
            max_bytes: 40,
            max_entries: 4,
            stripes: 2,
        });
        c.insert((0, 1), "gen0".into(), 10);
        assert_eq!(c.get(&(0, 1)).as_deref(), Some("gen0"));
        // generation bump: same term, new key — a miss, no invalidation API
        assert_eq!(c.get(&(1, 1)), None);
        for t in 0..4u32 {
            c.insert((1, t), "gen1".into(), 10);
        }
        assert_eq!(c.get(&(0, 1)), None, "stale entry swept by LRU");
    }

    /// A cached value that reports its key when the cache lets go of it:
    /// the cache holds the only long-lived `Arc`, so the drop *is* the
    /// eviction (or the replacement by a later insert of the same key).
    struct Tracked {
        key: u64,
        log: Arc<Mutex<Vec<u64>>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.log.lock().unwrap().push(self.key);
        }
    }

    #[test]
    fn seeded_sequence_evicts_the_golden_keys_in_the_golden_order() {
        // 10 000 seeded get / insert / get_or_compute calls over 600 keys
        // against a 4-stripe cache that holds about a sixth of them, by
        // entries and by bytes. The order in which values leave the cache
        // is the whole replacement policy — per-shard LRU, cyclic sweep
        // from the inserting shard — and must not move when the recency
        // bookkeeping does. Golden values captured from the tick-ordered
        // `BTreeMap` implementation.
        let log = Arc::new(Mutex::new(Vec::new()));
        let c: ShardedCache<u64, Arc<Tracked>> = ShardedCache::new(CacheConfig {
            enabled: true,
            max_bytes: 2_000,
            max_entries: 100,
            stripes: 4,
        });
        let tracked = |key: u64| {
            Arc::new(Tracked {
                key,
                log: Arc::clone(&log),
            })
        };
        let mut rng = crate::Rng::seed_from_u64(0x5eed_cac4e);
        let mut computed = 0u64;
        for _ in 0..10_000 {
            // Skewed keys, so touches reorder entries that are resident.
            let key = (rng.gen_index(600) * rng.gen_index(600) / 600) as u64;
            let bytes = 8 + rng.gen_index(40);
            match rng.gen_index(10) {
                0..=3 => drop(c.get(&key)),
                4..=5 => c.insert(key, tracked(key), bytes),
                _ => {
                    let cacheable = rng.gen_index(8) != 0;
                    let looked = c.get_or_compute(key, || {
                        computed += 1;
                        ((), cacheable.then(|| (tracked(key), bytes)))
                    });
                    drop(looked);
                }
            }
        }
        let stats = c.stats();
        let left = log.lock().unwrap().clone();
        let fnv = left.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &k| {
            (h ^ k).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, computed),
            (1791, 6171, 4258, 3140)
        );
        assert_eq!((stats.entries, stats.bytes), (78, 1955));
        assert_eq!((left.len(), fnv), (4706, 12273808141781952430));
        assert_eq!(
            left[..12],
            [27, 90, 434, 260, 40, 27, 28, 317, 0, 92, 137, 203]
        );
    }
}
