//! A persistent work-stealing pool with per-job priorities and in-flight
//! deduplication — the scheduler behind the verification service.
//!
//! [`ThreadPool`](crate::ThreadPool) is the right tool for a closed batch
//! (`f(0..len)`, results in index order). A daemon has the opposite shape:
//! jobs arrive continuously, some matter more than others (an interactive
//! `prove` request should jump a background soak), and bursts of identical
//! requests are common (every client asking for the same certificate).
//! [`StealPool`] covers that shape:
//!
//! * **persistent workers** — threads are spawned once and park on a
//!   condvar when idle, so enqueue-to-start latency is a wakeup, not a
//!   thread spawn;
//! * **priorities** — each job carries an `i32` priority; among jobs that
//!   are queued together, higher priority runs first, ties broken by
//!   submission order (FIFO within a priority level);
//! * **work stealing** — each worker owns a priority heap; an idle worker
//!   steals the best job from a busy neighbour instead of parking;
//! * **in-flight dedup** — a job submitted with a key while an identical
//!   key is still queued or running attaches to the existing job's result
//!   instead of re-running it ([`StealPool::submit_keyed`]).
//!
//! A 1-worker pool executes jobs strictly sequentially in (priority,
//! submission-order) — there is no stealing and no interleaving, so it is
//! the determinism oracle for scheduler tests, mirroring the 1-worker
//! guarantee of [`ThreadPool::scoped_map`](crate::ThreadPool::scoped_map).

use std::any::Any;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A queued, type-erased job. Ordered so that the *greatest* element (what
/// `BinaryHeap::pop` returns) is the highest-priority, earliest-submitted
/// job.
struct QueuedJob {
    priority: i32,
    seq: u64,
    run: Box<dyn FnOnce() + Send>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Higher priority wins; within a priority, earlier seq wins.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Result slot shared between a job and every handle attached to it.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    cv: Condvar,
}

enum SlotState<T> {
    Pending,
    Done(T),
    Panicked(String),
}

impl<T> Slot<T> {
    fn new() -> Slot<T> {
        Slot { state: Mutex::new(SlotState::Pending), cv: Condvar::new() }
    }

    fn fill(&self, value: Result<T, String>) {
        let mut st = self.state.lock().expect("slot state");
        *st = match value {
            Ok(v) => SlotState::Done(v),
            Err(msg) => SlotState::Panicked(msg),
        };
        self.cv.notify_all();
    }
}

/// A handle to a submitted job's eventual result.
///
/// Handles are cheap to clone-by-attachment: deduplicated submissions hand
/// out distinct `JobHandle`s backed by the same slot, which is why joining
/// requires `T: Clone`.
pub struct JobHandle<T> {
    slot: Arc<Slot<T>>,
}

impl<T: Clone> JobHandle<T> {
    /// Blocks until the job completes and returns its result.
    ///
    /// # Panics
    ///
    /// If the job panicked, re-raises the panic (message-preserving) on
    /// the joining thread.
    pub fn join(&self) -> T {
        let mut st = self.slot.state.lock().expect("slot state");
        loop {
            match &*st {
                SlotState::Done(v) => return v.clone(),
                SlotState::Panicked(msg) => panic!("steal-pool job panicked: {msg}"),
                SlotState::Pending => {
                    st = self.slot.cv.wait(st).expect("slot state");
                }
            }
        }
    }

    /// Returns the result if the job has already completed, without
    /// blocking. `None` while the job is still queued or running.
    pub fn try_join(&self) -> Option<T> {
        let st = self.slot.state.lock().expect("slot state");
        match &*st {
            SlotState::Done(v) => Some(v.clone()),
            SlotState::Panicked(msg) => panic!("steal-pool job panicked: {msg}"),
            SlotState::Pending => None,
        }
    }
}

/// Monotonic scheduler counters, readable at any time via
/// [`StealPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs accepted (including ones later deduplicated onto others).
    pub submitted: u64,
    /// Jobs actually executed by a worker.
    pub executed: u64,
    /// Submissions that attached to an already queued/running identical
    /// job instead of executing.
    pub dedup_hits: u64,
    /// Jobs a worker took from another worker's queue.
    pub steals: u64,
    /// Worker thread count.
    pub workers: u64,
}

struct Inner {
    queues: Vec<Mutex<BinaryHeap<QueuedJob>>>,
    /// Count of queued-but-unclaimed jobs; the condvar wakes parked
    /// workers when it rises.
    ready: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
    seq: AtomicU64,
    rr: AtomicUsize,
    inflight: Mutex<HashMap<u128, Box<dyn Any + Send>>>,
    submitted: AtomicU64,
    executed: AtomicU64,
    dedup_hits: AtomicU64,
    steals: AtomicU64,
}

impl Inner {
    /// Claims one job: own queue first, then steal a victim's best.
    /// Only called after reserving a unit of `ready`, so a job is
    /// guaranteed to exist somewhere — loop until the scan finds it.
    fn claim(&self, me: usize) -> QueuedJob {
        let n = self.queues.len();
        loop {
            for k in 0..n {
                let qi = (me + k) % n;
                if let Some(job) = self.queues[qi].lock().expect("job queue").pop() {
                    if k != 0 {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return job;
                }
            }
            // A racing worker claimed the job between our reservation and
            // the scan; its own reserved job is still in flight somewhere.
            std::thread::yield_now();
        }
    }
}

/// A persistent work-stealing pool. Dropping the pool drains every queued
/// job (graceful shutdown: submitted work always runs) and joins the
/// workers.
pub struct StealPool {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl StealPool {
    /// A pool with exactly `workers` persistent worker threads (clamped to
    /// at least 1).
    pub fn new(workers: usize) -> StealPool {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queues: (0..workers).map(|_| Mutex::new(BinaryHeap::new())).collect(),
            ready: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            rr: AtomicUsize::new(0),
            inflight: Mutex::new(HashMap::new()),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("chicala-steal-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn steal-pool worker")
            })
            .collect();
        StealPool { inner, workers: handles }
    }

    /// A pool sized by `CHICALA_WORKERS` (if set) or the machine's
    /// available parallelism — the same rule as
    /// [`ThreadPool::default_workers`](crate::ThreadPool::default_workers).
    pub fn with_default_workers() -> StealPool {
        StealPool::new(crate::ThreadPool::default_workers())
    }

    /// The worker thread count.
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            executed: self.inner.executed.load(Ordering::Relaxed),
            dedup_hits: self.inner.dedup_hits.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            workers: self.inner.queues.len() as u64,
        }
    }

    /// Submits `job` with `priority` (higher runs sooner). Returns a
    /// handle to its eventual result.
    pub fn submit<T, F>(&self, priority: i32, job: F) -> JobHandle<T>
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_inner(priority, None, job)
    }

    /// Submits `job` keyed by `key`: if a job with the same key is still
    /// queued or running, the new submission attaches to its result and
    /// `job` is never executed (in-flight deduplication). The key should
    /// be a content digest of everything that determines the result.
    ///
    /// A deduplicated attachment must agree on the result type; a key
    /// collision across different `T`s falls back to a fresh (un-keyed)
    /// execution rather than serving a wrong-typed result.
    pub fn submit_keyed<T, F>(&self, priority: i32, key: u128, job: F) -> JobHandle<T>
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_inner(priority, Some(key), job)
    }

    fn submit_inner<T, F>(&self, priority: i32, key: Option<u128>, job: F) -> JobHandle<T>
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        let slot = if let Some(k) = key {
            let mut inflight = self.inner.inflight.lock().expect("inflight map");
            match inflight.get(&k).and_then(|a| a.downcast_ref::<Arc<Slot<T>>>()) {
                Some(existing) => {
                    self.inner.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    return JobHandle { slot: Arc::clone(existing) };
                }
                None => {
                    let slot = Arc::new(Slot::new());
                    // Insert even over a wrong-typed collision: the digest
                    // space is 128-bit, and last-writer-wins only affects
                    // which of two *different* computations future
                    // duplicates attach to.
                    inflight.insert(k, Box::new(Arc::clone(&slot)));
                    slot
                }
            }
        } else {
            Arc::new(Slot::new())
        };

        let inner = Arc::clone(&self.inner);
        let run_slot = Arc::clone(&slot);
        let run: Box<dyn FnOnce() + Send> = Box::new(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            inner.executed.fetch_add(1, Ordering::Relaxed);
            // Retire the key *before* publishing the result so a client
            // that joins and immediately resubmits starts a fresh job
            // rather than racing the retirement.
            if let Some(k) = key {
                inner.inflight.lock().expect("inflight map").remove(&k);
            }
            run_slot.fill(result.map_err(panic_message));
        });

        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let qi = self.inner.rr.fetch_add(1, Ordering::Relaxed) % self.inner.queues.len();
        self.inner.queues[qi]
            .lock()
            .expect("job queue")
            .push(QueuedJob { priority, seq, run });
        {
            let mut ready = self.inner.ready.lock().expect("ready count");
            *ready += 1;
            self.inner.cv.notify_one();
        }
        JobHandle { slot }
    }
}

impl Drop for StealPool {
    fn drop(&mut self) {
        {
            // Set the flag under the lock the workers check it under: a
            // worker between its check and its `wait` would otherwise miss
            // the notification below and sleep forever, and the join hang.
            let _ready = self.inner.ready.lock().expect("ready count");
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    loop {
        {
            let mut ready = inner.ready.lock().expect("ready count");
            loop {
                if *ready > 0 {
                    *ready -= 1;
                    break;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                ready = inner.cv.wait(ready).expect("ready count");
            }
        }
        let job = inner.claim(me);
        (job.run)();
    }
}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    #[test]
    fn executes_and_joins() {
        let pool = StealPool::new(4);
        let handles: Vec<_> = (0..64u64).map(|i| pool.submit(0, move || i * i)).collect();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.join(), (i as u64) * (i as u64));
        }
        let stats = pool.stats();
        assert_eq!(stats.submitted, 64);
        assert_eq!(stats.executed, 64);
    }

    #[test]
    fn one_worker_runs_in_priority_then_submission_order() {
        // Gate the single worker on job 0 so the rest queue up, then
        // check they execute in (priority desc, submission asc) order.
        let pool = StealPool::new(1);
        let gate = Arc::new(Barrier::new(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&gate);
        let blocker = pool.submit(100, move || {
            g.wait();
        });
        // (priority, tag) in submission order.
        let jobs = [(0, 'a'), (5, 'b'), (0, 'c'), (5, 'd'), (9, 'e')];
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(pri, tag)| {
                let order = Arc::clone(&order);
                pool.submit(pri, move || order.lock().unwrap().push(tag))
            })
            .collect();
        gate.wait();
        blocker.join();
        for h in &handles {
            h.join();
        }
        assert_eq!(*order.lock().unwrap(), vec!['e', 'b', 'd', 'a', 'c']);
    }

    #[test]
    fn inflight_dedup_coalesces_identical_jobs() {
        let pool = StealPool::new(2);
        let runs = Arc::new(AtomicU32::new(0));
        // Hold the key's first job open until all duplicates are queued.
        let gate = Arc::new(Barrier::new(2));
        let (g, r) = (Arc::clone(&gate), Arc::clone(&runs));
        let first = pool.submit_keyed(0, 0xDEAD_BEEF, move || {
            g.wait();
            r.fetch_add(1, Ordering::SeqCst);
            42u32
        });
        let dups: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&runs);
                pool.submit_keyed(0, 0xDEAD_BEEF, move || {
                    r.fetch_add(1, Ordering::SeqCst);
                    42u32
                })
            })
            .collect();
        gate.wait();
        assert_eq!(first.join(), 42);
        for d in &dups {
            assert_eq!(d.join(), 42);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 1, "duplicates must not re-run");
        let stats = pool.stats();
        assert_eq!(stats.dedup_hits, 8);
        assert_eq!(stats.executed, 1);
    }

    #[test]
    fn key_retires_after_completion() {
        let pool = StealPool::new(1);
        let runs = Arc::new(AtomicU32::new(0));
        for _ in 0..3 {
            let r = Arc::clone(&runs);
            let h = pool.submit_keyed(0, 7, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
            h.join();
        }
        // Sequential identical submissions each run: dedup is in-flight
        // only — persistence across completions is the cache's job.
        assert_eq!(runs.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn stealing_happens_under_imbalance() {
        // Round-robin placement puts jobs on both queues; a fast worker
        // whose queue empties steals from the slow one's backlog.
        let pool = StealPool::new(2);
        let handles: Vec<_> = (0..32)
            .map(|i| {
                pool.submit(0, move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    i
                })
            })
            .collect();
        for (i, h) in handles.iter().enumerate() {
            assert_eq!(h.join(), i);
        }
        // Not asserting steals > 0 (timing-dependent); the invariant is
        // that all jobs completed with correct results.
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let done = Arc::new(AtomicU32::new(0));
        {
            let pool = StealPool::new(1);
            for _ in 0..16 {
                let d = Arc::clone(&done);
                pool.submit(0, move || {
                    d.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop without joining: shutdown must still run everything.
        }
        assert_eq!(done.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn drop_right_after_a_join_never_hangs() {
        // A stress test: dropping the pool races the worker that just ran
        // the joined job back into its idle wait. When shutdown was set
        // without the `ready` lock, that worker could miss the wakeup and
        // the drop hung; on a 2-core machine 3 of 3 runs hung within
        // 1,300 iterations. A hang fails the test after 20 s instead of
        // blocking the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..3_000 {
                let pool = StealPool::new(2);
                let (a, b) = (pool.submit(0, || 1u32), pool.submit(0, || 2u32));
                assert_eq!(a.join() + b.join(), 3);
                drop(pool);
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(20))
            .expect("a StealPool drop hung");
    }

    #[test]
    #[should_panic(expected = "boom in job")]
    fn join_propagates_panics() {
        let pool = StealPool::new(2);
        let h = pool.submit(0, || {
            panic!("boom in job");
        });
        h.join()
    }

    #[test]
    fn honours_chicala_workers_default() {
        // Can't set env vars safely in-process across threads; just pin
        // that the constructor clamps and reports sizes correctly.
        assert_eq!(StealPool::new(0).workers(), 1);
        assert_eq!(StealPool::new(3).workers(), 3);
        assert_eq!(
            StealPool::with_default_workers().workers(),
            crate::ThreadPool::default_workers()
        );
    }
}
