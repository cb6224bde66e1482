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
//! Two fan-outs share that shape. [`ThreadPool::scoped_map`] runs every
//! item and returns the results. [`ThreadPool::try_each`] is the early-
//! stopping loop `for i in 0..len { f(i)? }`: the proof kernel runs a
//! goal's hypothesis cases through it, with the calling thread as one of
//! the workers so its warm thread-local stores do part of the work.
//!
//! A fan-out started from inside a worker runs inline on that worker, in
//! index order, so a fan-out nested in another never starts workers²
//! threads.
//!
//! [`ThreadPool`] is the workspace's one scheduler. The verification daemon
//! needs none of its own: it runs each request's work on the thread that
//! handles the request, and coalesces identical work in flight.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Whether this thread is running items of a parallel fan-out.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped, then restores
/// the mark it had before.
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> WorkerMark {
        WorkerMark(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Whether a fan-out started now must run inline: the pool has one worker,
/// there is at most one item, or this thread is already a pool worker.
fn runs_inline(workers: usize, len: usize) -> bool {
    workers == 1 || len <= 1 || IN_WORKER.with(Cell::get)
}

/// How the lowest failing index of a [`ThreadPool::try_each`] failed.
enum Failure<E> {
    Err(E),
    Panic(Box<dyn Any + Send>),
}

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
    /// With one worker (or one item), or when called from inside a pool
    /// worker, the items run inline on the calling thread in index order —
    /// the sequential and parallel paths are the same code shape, so a
    /// 1-worker pool is a drop-in oracle for determinism tests.
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
        if runs_inline(self.workers, len) {
            return (0..len).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(len));
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let spawn = self.workers.min(len);
        std::thread::scope(|s| {
            for _ in 0..spawn {
                s.spawn(|| {
                    let _mark = WorkerMark::set();
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

    /// Runs `f(i)` for `i in 0..len` until one fails, and returns exactly
    /// what the sequential loop `for i in 0..len { f(i)? }` returns: `Ok`
    /// when every item succeeds, otherwise the error of the lowest failing
    /// index.
    ///
    /// Items are handed out in index order, and the calling thread is one
    /// of the workers. Once index `i` has failed no index above `i` is
    /// started, and every index below the lowest failure runs to
    /// completion. Items above the lowest failure that were already
    /// running when it failed also finish; their results are dropped.
    ///
    /// With one worker (or one item), or when called from inside a pool
    /// worker, the loop runs inline on the calling thread in index order
    /// and stops at the first failure.
    ///
    /// # Panics
    ///
    /// A panic counts as a failure of its index. If the lowest failing
    /// index panicked, its payload is re-raised on the caller's thread
    /// after all workers have stopped.
    pub fn try_each<E, F>(&self, len: usize, f: F) -> Result<(), E>
    where
        E: Send,
        F: Fn(usize) -> Result<(), E> + Sync,
    {
        if runs_inline(self.workers, len) {
            return (0..len).try_for_each(f);
        }
        let next = AtomicUsize::new(0);
        // The lowest index that has failed so far; `len` while none has.
        // Both counters are bounds only: the failure itself is published
        // through the mutex, so relaxed ordering suffices.
        let stop = AtomicUsize::new(len);
        let failure: Mutex<Option<(usize, Failure<E>)>> = Mutex::new(None);
        let work = || {
            let _mark = WorkerMark::set();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len || i > stop.load(Ordering::Relaxed) {
                    break;
                }
                let failed = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(Ok(())) => continue,
                    Ok(Err(e)) => Failure::Err(e),
                    Err(payload) => Failure::Panic(payload),
                };
                let mut slot = failure.lock().expect("failure slot");
                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                    *slot = Some((i, failed));
                }
                stop.fetch_min(i, Ordering::Relaxed);
                // Every index below `i` was handed out before it.
                break;
            }
        };
        std::thread::scope(|s| {
            for _ in 1..self.workers.min(len) {
                s.spawn(work);
            }
            work();
        });
        match failure.into_inner().expect("workers finished") {
            None => Ok(()),
            Some((_, Failure::Err(e))) => Err(e),
            Some((_, Failure::Panic(payload))) => std::panic::resume_unwind(payload),
        }
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
    use std::sync::atomic::AtomicBool;

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

    /// Runs `pool.try_each(len, ..)` where the indices in `fail` fail
    /// after sleeping their paired milliseconds and every other index
    /// succeeds at once; returns the result and the indices that ran, in
    /// the order they started.
    fn run_failing(
        pool: ThreadPool,
        len: usize,
        fail: &[(usize, u64)],
    ) -> (Result<(), usize>, Vec<usize>) {
        let started = Mutex::new(Vec::new());
        let r = pool.try_each(len, |i| {
            started.lock().unwrap().push(i);
            match fail.iter().find(|&&(j, _)| j == i) {
                Some(&(_, ms)) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    Err(i)
                }
                None => Ok(()),
            }
        });
        (r, started.into_inner().unwrap())
    }

    #[test]
    fn try_each_runs_everything_when_nothing_fails() {
        let ran: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let r: Result<(), ()> = ThreadPool::new(4).try_each(64, |i| {
            ran[i].fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        assert_eq!(r, Ok(()));
        assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        assert_eq!(ThreadPool::new(4).try_each(0, |_| Err(())), Ok(()));
    }

    #[test]
    fn try_each_returns_the_lowest_error_when_a_higher_index_fails_first() {
        // Index 3 fails only after index 9 has: the sequential loop would
        // have stopped at 3, so 3's error is the answer.
        let nine_failed = AtomicBool::new(false);
        let r = ThreadPool::new(4).try_each(40, |i| match i {
            3 => {
                while !nine_failed.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                Err(3)
            }
            9 => {
                nine_failed.store(true, Ordering::Release);
                Err(9)
            }
            11 => Err(11),
            _ => Ok(()),
        });
        assert_eq!(r, Err(3));
    }

    #[test]
    fn try_each_runs_every_index_below_the_failure() {
        let (r, started) = run_failing(ThreadPool::new(3), 200, &[(120, 5), (150, 0)]);
        assert_eq!(r, Err(120));
        let mut below: Vec<usize> = started.iter().copied().filter(|&i| i <= 120).collect();
        below.sort_unstable();
        assert_eq!(
            below,
            (0..=120).collect::<Vec<_>>(),
            "each index up to the failure, once"
        );
        // Nothing past the failure starts after it fails; the handful the
        // other workers had already taken may have run.
        assert!(
            started.len() < 200,
            "the loop did not stop: {} started",
            started.len()
        );
    }

    #[test]
    fn one_worker_try_each_is_the_sequential_loop() {
        let (r, started) = run_failing(ThreadPool::new(1), 30, &[(7, 0), (12, 0)]);
        assert_eq!(r, Err(7));
        assert_eq!(started, (0..=7).collect::<Vec<_>>());
    }

    #[test]
    fn nested_fan_outs_run_on_the_worker_thread() {
        let pool = ThreadPool::new(2);
        let same = |outer: std::thread::ThreadId| {
            let threads = Mutex::new(Vec::new());
            let r: Result<(), ()> = pool.try_each(16, |_| {
                threads.lock().unwrap().push(std::thread::current().id());
                Ok(())
            });
            assert_eq!(r, Ok(()));
            let inner = pool.scoped_map(16, |_| std::thread::current().id());
            let threads = threads.into_inner().unwrap();
            threads.len() == 16 && threads.iter().chain(&inner).all(|&t| t == outer)
        };
        let from_map = pool.scoped_map(4, |_| same(std::thread::current().id()));
        assert_eq!(from_map, vec![true; 4]);
        let from_try_each: Result<(), usize> = pool.try_each(4, |i| {
            if same(std::thread::current().id()) {
                Ok(())
            } else {
                Err(i)
            }
        });
        assert_eq!(from_try_each, Ok(()));
        // Back on the caller, outside any fan-out, the pool fans out again.
        let caller = std::thread::current().id();
        let outside = pool.scoped_map(8, |_| std::thread::current().id());
        assert!(
            outside.iter().all(|&t| t != caller),
            "the caller stayed marked"
        );
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn try_each_panics_propagate() {
        let pool = ThreadPool::new(2);
        let _ = pool.try_each(10, |i| {
            if i == 5 {
                panic!("item 5");
            }
            Ok::<(), ()>(())
        });
    }
}
