//! Per-key once-cells that coalesce identical work.
//!
//! The server runs every request's work on the thread that handles the
//! request. When two requests need the same work at once, the first to ask
//! runs it and the other waits on the key's cell for the same result, so
//! the work is done once. Nothing queues: a request never waits behind
//! work it did not ask for.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One key's result, filled once by the call that runs the work.
struct Cell<T> {
    result: Mutex<Option<Result<T, String>>>,
    filled: Condvar,
}

/// A map of per-key once-cells. The first call for a key runs its work on
/// the caller's thread; a twin that arrives while it runs waits on the
/// key's cell and takes the same result. With `keep`, a successful result
/// stays in its cell for later calls (a memo); otherwise, and after an
/// error, the running call removes the cell as it returns, so coalescing
/// is in flight only.
pub(crate) struct Coalesce<K, T> {
    cells: Mutex<HashMap<K, Arc<Cell<T>>>>,
    keep: bool,
    ran: AtomicU64,
    attached: AtomicU64,
}

impl<K: Eq + Hash + Clone, T: Clone> Coalesce<K, T> {
    /// An empty map; `keep` makes it a memo of successful results.
    pub(crate) fn new(keep: bool) -> Coalesce<K, T> {
        Coalesce {
            cells: Mutex::new(HashMap::new()),
            keep,
            ran: AtomicU64::new(0),
            attached: AtomicU64::new(0),
        }
    }

    /// The result of `work` for `key`, and whether this call ran it rather
    /// than take the result of the twin that runs or ran it. A panic in
    /// `work` becomes the error of this call and of every twin waiting on
    /// it, and removes the cell, so no twin is stranded and the next call
    /// for `key` runs afresh.
    pub(crate) fn run(
        &self,
        key: K,
        work: impl FnOnce() -> Result<T, String>,
    ) -> (Result<T, String>, bool) {
        let (cell, ran) = {
            let mut cells = self.cells.lock().expect("coalescing cells");
            match cells.get(&key) {
                Some(cell) => {
                    if cell.result.lock().expect("cell result").is_none() {
                        self.attached.fetch_add(1, Ordering::Relaxed);
                    }
                    (Arc::clone(cell), false)
                }
                None => {
                    let cell = Arc::new(Cell { result: Mutex::new(None), filled: Condvar::new() });
                    cells.insert(key.clone(), Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if !ran {
            let mut result = cell.result.lock().expect("cell result");
            loop {
                if let Some(r) = &*result {
                    return (r.clone(), false);
                }
                result = cell.filled.wait(result).expect("cell result");
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work))
            .unwrap_or_else(|payload| Err(format!("the work panicked: {}", panic_message(&*payload))));
        self.ran.fetch_add(1, Ordering::Relaxed);
        // Remove the cell before filling it: a twin that takes this result
        // and asks again at once runs afresh instead of finding it.
        if !(self.keep && result.is_ok()) {
            self.cells.lock().expect("coalescing cells").remove(&key);
        }
        *cell.result.lock().expect("cell result") = Some(result.clone());
        cell.filled.notify_all();
        (result, true)
    }

    /// Calls that ran their work.
    pub(crate) fn ran(&self) -> u64 {
        self.ran.load(Ordering::Relaxed)
    }

    /// Calls that waited on a twin's run.
    pub(crate) fn attached(&self) -> u64 {
        self.attached.load(Ordering::Relaxed)
    }

    /// Cells in the map: kept results and runs in flight.
    pub(crate) fn len(&self) -> usize {
        self.cells.lock().expect("coalescing cells").len()
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}
