//! Scoped fork/join parallelism without dependencies.
//!
//! The proof pipeline's unit of work is embarrassingly parallel — each VC
//! discharge and each conformance case is independent — so the only
//! scheduler needed is an indexed fan-out: run `f(0..len)` across worker
//! threads, return the results **in index order**. Determinism is the
//! design constraint here: a run's output must be byte-identical whatever
//! the worker count, so results are keyed by item index, never by
//! completion order.
//!
//! Workers pull indices from a shared atomic counter (dynamic load
//! balancing: a slow item does not stall the queue behind a fixed stride),
//! and [`std::thread::scope`] lets closures borrow from the caller's stack
//! — no `'static` bounds, no `Arc` plumbing.
//!
//! [`ThreadPool`] is the workspace's one scheduler. The verification daemon
//! needs none of its own: it runs each request's work on the thread that
//! handles the request, and coalesces identical work in flight.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fixed-width fan-out scheduler.
///
/// `ThreadPool` is a configuration handle (worker count), not a set of
/// persistent threads: each [`scoped_map`](ThreadPool::scoped_map) call
/// spawns scoped workers that exit when the call returns. For this
/// codebase's workloads (items are milliseconds to seconds of kernel
/// work), thread spawn cost is noise, and scoped spawning keeps the API
/// free of lifetime gymnastics.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    workers: usize,
}

impl ThreadPool {
    /// A pool with exactly `workers` workers (clamped to at least 1).
    pub fn new(workers: usize) -> ThreadPool {
        ThreadPool { workers: workers.max(1) }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The default worker count: `CHICALA_WORKERS` if set, otherwise the
    /// machine's available parallelism.
    pub fn default_workers() -> usize {
        if let Some(n) = std::env::var("CHICALA_WORKERS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            return n.max(1);
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }

    /// Runs `f(i)` for every `i in 0..len` and returns the results in
    /// index order, regardless of which worker ran which item or in what
    /// order items completed.
    ///
    /// With one worker (or one item) the items run inline on the calling
    /// thread in index order — the sequential and parallel paths are the
    /// same code shape, so a 1-worker pool is a drop-in oracle for
    /// determinism tests.
    ///
    /// # Panics
    ///
    /// If `f` panics on any item, the original panic payload is re-raised
    /// on the caller's thread after all workers have stopped (workers
    /// catch it, so `std::thread::scope` never sees a panicked thread and
    /// cannot replace the payload with its own).
    pub fn scoped_map<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.workers == 1 || len <= 1 {
            return (0..len).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(len));
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        let spawn = self.workers.min(len);
        std::thread::scope(|s| {
            for _ in 0..spawn {
                s.spawn(|| {
                    // Buffer locally; one lock per worker, not per item.
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                            Ok(v) => local.push((i, v)),
                            Err(payload) => {
                                *panicked.lock().expect("payload slot") = Some(payload);
                                break;
                            }
                        }
                    }
                    done.lock().expect("no poisoned result buffer").extend(local);
                });
            }
        });
        if let Some(payload) = panicked.into_inner().expect("workers finished") {
            std::panic::resume_unwind(payload);
        }
        let mut items = done.into_inner().expect("workers finished");
        items.sort_by_key(|&(i, _)| i);
        debug_assert_eq!(items.len(), len);
        items.into_iter().map(|(_, v)| v).collect()
    }

    /// Like [`scoped_map`](ThreadPool::scoped_map) over a slice: runs
    /// `f(&items[i])` and returns results in item order.
    pub fn map_slice<'a, I, T, F>(&self, items: &'a [I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&'a I) -> T + Sync,
    {
        self.scoped_map(items.len(), |i| f(&items[i]))
    }
}

impl Default for ThreadPool {
    fn default() -> ThreadPool {
        ThreadPool::new(ThreadPool::default_workers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let pool = ThreadPool::new(4);
        let out = pool.scoped_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_matches_many() {
        let work = |i: usize| (i, i.wrapping_mul(0x9e3779b97f4a7c15) >> 7);
        for workers in [1, 2, 8] {
            let out = ThreadPool::new(workers).scoped_map(37, work);
            assert_eq!(out, (0..37).map(work).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_from_caller_stack() {
        let data: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let pool = ThreadPool::new(3);
        let out = pool.map_slice(&data, |x| x + 1);
        assert_eq!(out, (0..50).map(|i| i * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let pool = ThreadPool::new(8);
        assert_eq!(pool.scoped_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.scoped_map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still come back in order.
        let pool = ThreadPool::new(4);
        let out = pool.scoped_map(16, |i| {
            if i % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "item 7")]
    fn panics_propagate() {
        let pool = ThreadPool::new(2);
        pool.scoped_map(10, |i| {
            if i == 7 {
                panic!("item 7");
            }
            i
        });
    }

    #[test]
    fn clamps_zero_workers() {
        assert_eq!(ThreadPool::new(0).workers(), 1);
    }
}
