//! A tiny object pool for reusable scratch buffers.
//!
//! Hot query paths allocate the same `Vec`/`HashMap` shapes per candidate;
//! [`ScratchPool`] lets each worker check out a scratch object, reuse its
//! capacity across many evaluations, and return it automatically on drop.
//! The pool is a mutex around a free list — checkouts happen once per
//! query/worker, not per candidate, so contention is negligible.

use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

/// A shared pool of reusable `T` values.
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T> Default for ScratchPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ScratchPool<T> {
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Take a pooled value, or build a fresh one with `init` if the pool is
    /// empty. The value returns to the pool when the guard drops; callers
    /// are responsible for clearing any state they don't want to inherit.
    pub fn checkout(&self, init: impl FnOnce() -> T) -> Scratch<'_, T> {
        let item = self.free.lock().expect("pool poisoned").pop();
        Scratch {
            pool: self,
            item: Some(item.unwrap_or_else(init)),
        }
    }

    /// Pooled values currently idle (checked in).
    pub fn idle(&self) -> usize {
        self.free.lock().expect("pool poisoned").len()
    }
}

/// RAII guard over a checked-out pool value; derefs to `T` and returns the
/// value to its pool on drop — unless the thread is panicking: a value
/// dropped mid-unwind may hold half-done state a later checkout would
/// inherit, so it is dropped with the guard instead.
pub struct Scratch<'a, T> {
    pool: &'a ScratchPool<T>,
    item: Option<T>,
}

impl<T> Deref for Scratch<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.item.as_ref().expect("scratch taken")
    }
}

impl<T> DerefMut for Scratch<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("scratch taken")
    }
}

impl<T> Drop for Scratch<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if let Some(item) = self.item.take() {
            self.pool.free.lock().expect("pool poisoned").push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn checkout_reuses_returned_values() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        {
            let mut s = pool.checkout(Vec::new);
            s.extend([1, 2, 3]);
            assert_eq!(pool.idle(), 0);
        }
        assert_eq!(pool.idle(), 1);
        // the reused buffer keeps its contents — callers clear what they need
        let s = pool.checkout(|| panic!("must reuse, not init"));
        assert_eq!(*s, vec![1, 2, 3]);
    }

    #[test]
    fn a_checkout_dropped_by_a_panic_is_not_pooled() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        let idle = pool.idle();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = pool.checkout(Vec::new);
            s.push(7); // half-done work
            panic!("mid-step");
        }));
        assert!(unwound.is_err());
        assert_eq!(pool.idle(), idle, "the dirty value was pooled");
    }

    #[test]
    fn concurrent_checkouts_never_share_a_value() {
        let pool: Arc<ScratchPool<Vec<usize>>> = Arc::new(ScratchPool::new());
        std::thread::scope(|scope| {
            for w in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for i in 0..100 {
                        let mut s = pool.checkout(Vec::new);
                        s.clear();
                        s.push(w * 1000 + i);
                        assert_eq!(s.len(), 1, "no other thread touched this buffer");
                    }
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 8);
    }
}
