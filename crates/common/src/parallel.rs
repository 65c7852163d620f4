//! A small persistent worker pool for the PDN's red/black SOR solver, and
//! the [`Stepping`] mode of the cycle-level simulators.
//!
//! Each red/black half-sweep updates one colour of the grid from the
//! other colour only, so contiguous bands of a colour can be relaxed
//! independently and the result does not depend on scheduling. Spawning
//! OS threads every half-sweep would dominate the runtime, so
//! [`WorkerPool`] keeps the threads alive across sweeps and hands them one
//! closure per *epoch* (one `run` call), with a condvar barrier at the end
//! of each epoch.
//!
//! A pool with `threads <= 1` has no worker threads at all: `run` invokes
//! the closure inline for shard 0, so the single-threaded path executes the
//! exact same code as the sharded path.
//!
//! The NoC fabric and the multi-tile machine do not use the pool: one
//! simulated cycle of either is too little work to pay for a barrier, so
//! each steps every cycle on the calling thread.
//!
//! # Examples
//!
//! ```
//! use std::sync::Mutex;
//! use wsp_common::parallel::{band_ranges, WorkerPool};
//!
//! let pool = WorkerPool::new(4);
//! let bands = band_ranges(1000, pool.threads());
//! let partial: Vec<Mutex<u64>> = bands.iter().map(|_| Mutex::new(0)).collect();
//! pool.run(&|shard| {
//!     let sum: u64 = bands[shard].clone().map(|i| i as u64).sum();
//!     *partial[shard].lock().unwrap() = sum;
//! });
//! let total: u64 = partial.iter().map(|m| *m.lock().unwrap()).sum();
//! assert_eq!(total, 499_500);
//! ```

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The number of threads worth using on this host, as reported by the OS.
///
/// Falls back to 1 when the parallelism query fails (e.g. in restricted
/// sandboxes).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `items` into `shards` contiguous, near-equal ranges.
///
/// The ranges cover `0..items` exactly, in order, and differ in length by at
/// most one. With `shards > items` the trailing ranges are empty, so callers
/// may always index `bands[shard]` for `shard < shards`.
pub fn band_ranges(items: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    (0..shards)
        .map(|s| (s * items / shards)..((s + 1) * items / shards))
        .collect()
}

/// A type-erased pointer to the `run` closure, valid only for the epoch in
/// which it was published (the publishing `run` call blocks until every
/// worker has finished with it).
#[derive(Clone, Copy)]
struct Task {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointer is only dereferenced while the publishing `run` call
// is blocked waiting for the epoch to finish, so the borrow it erases is
// live for every dereference.
unsafe impl Send for Task {}

struct PoolState {
    epoch: u64,
    task: Option<Task>,
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// A fixed-size pool of persistent worker threads dispatching one closure
/// per epoch.
///
/// `run(f)` invokes `f(shard)` once for every shard in `0..threads()`:
/// shard 0 on the calling thread, the rest on the workers. It returns only
/// after every shard has finished, so `f` may borrow from the caller's
/// stack. Shards must write disjoint state (or synchronise); the pool
/// provides the barrier, not the partitioning.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serialises concurrent `run` calls from different pool handles.
    run_lock: Mutex<()>,
}

impl WorkerPool {
    /// Creates a pool that runs `threads` shards per epoch.
    ///
    /// `threads <= 1` creates an inline pool with no OS threads.
    pub fn new(threads: usize) -> Self {
        let workers_wanted = threads.saturating_sub(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                task: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..workers_wanted)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wsp-shard-{}", i + 1))
                    .spawn(move || worker_loop(shared, i + 1))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            run_lock: Mutex::new(()),
        }
    }

    /// Number of shards each epoch runs, including the caller's shard 0.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(shard)` for every shard in `0..threads()` and blocks until
    /// all shards complete.
    ///
    /// # Panics
    ///
    /// If `f` panics on any shard the panic is propagated here after the
    /// epoch barrier, leaving the pool reusable.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() {
            f(0);
            return;
        }
        // A propagated shard panic unwinds through `run` while holding this
        // lock; poisoning must not brick the pool.
        let _serial = self
            .run_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        unsafe fn call_erased(data: *const (), shard: usize) {
            // SAFETY: `data` was produced below from an `&&dyn Fn` that
            // outlives the epoch (see `Task`).
            let f = unsafe { &*(data as *const &(dyn Fn(usize) + Sync)) };
            f(shard);
        }
        let fat: &(dyn Fn(usize) + Sync) = f;
        let task = Task {
            data: std::ptr::addr_of!(fat) as *const (),
            call: call_erased,
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.task = Some(task);
            st.remaining = self.workers.len();
            st.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        // Shard 0 runs here; even if it panics we must wait for the barrier
        // before unwinding, or the workers would race a dangling closure.
        let local = panic::catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panicked = {
            let mut st = self.shared.state.lock().unwrap();
            while st.remaining > 0 {
                st = self.shared.done_cv.wait(st).unwrap();
            }
            st.task = None;
            std::mem::replace(&mut st.panicked, false)
        };
        if let Err(payload) = local {
            panic::resume_unwind(payload);
        }
        assert!(!worker_panicked, "a worker shard panicked");
    }

    /// Moves one value per shard through `f`, returning the outputs in
    /// shard order.
    ///
    /// `inputs.len()` must equal `threads()`.
    pub fn map<T, R>(&self, inputs: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        assert_eq!(inputs.len(), self.threads(), "one input per shard");
        let slots: Vec<Mutex<(Option<T>, Option<R>)>> = inputs
            .into_iter()
            .map(|t| Mutex::new((Some(t), None)))
            .collect();
        self.run(&|shard| {
            let input = slots[shard].lock().unwrap().0.take().expect("input set");
            let output = f(shard, input);
            slots[shard].lock().unwrap().1 = Some(output);
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().unwrap().1.expect("shard produced output"))
            .collect()
    }
}

/// How a simulator advances simulated time.
///
/// Within an executed cycle both modes visit the same work: the `wsp-noc`
/// fabric walks its occupancy bitmask and the `wsp-core` machine its
/// runnable tiles. `Wheel` is the default: whenever nothing can make
/// progress until a known future deadline (a pending response's ready
/// cycle, a stall expiry),
/// simulated `now` jumps straight there and the skipped window is
/// replayed in bulk — bit-identical to executing it (see DESIGN.md
/// "Simulator internals"). `Dense` executes every cycle (the machine
/// visits every tile) and is the reference the equivalence tests and the
/// CI byte-compare gate run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Stepping {
    /// Execute every cycle — the reference sweep.
    Dense,
    /// Active-set walks plus event-wheel skips over idle/stalled windows.
    #[default]
    Wheel,
}

impl Stepping {
    /// Parses a CLI value (`"dense"` / `"wheel"`).
    pub fn parse(raw: &str) -> Option<Stepping> {
        match raw {
            "dense" => Some(Stepping::Dense),
            "wheel" => Some(Stepping::Wheel),
            _ => None,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, shard: usize) {
    let mut last_epoch = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    break st.task.expect("task published with epoch");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            // SAFETY: the publishing `run` call is blocked on this epoch's
            // barrier, so the erased closure borrow is still live.
            unsafe { (task.call)(task.data, shard) }
        }));
        let mut st = shared.state.lock().unwrap();
        if outcome.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn band_ranges_cover_exactly_and_in_order() {
        for items in [0usize, 1, 5, 17, 1024] {
            for shards in [1usize, 2, 3, 7, 16] {
                let bands = band_ranges(items, shards);
                assert_eq!(bands.len(), shards);
                let mut next = 0;
                for band in &bands {
                    assert_eq!(band.start, next);
                    next = band.end;
                }
                assert_eq!(next, items);
                let max = bands.iter().map(|b| b.len()).max().unwrap();
                let min = bands.iter().map(|b| b.len()).min().unwrap();
                assert!(max - min <= 1, "near-equal split");
            }
        }
    }

    #[test]
    fn inline_pool_runs_shard_zero_only() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicU64::new(0);
        pool.run(&|shard| {
            assert_eq!(shard, 0);
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn every_shard_runs_exactly_once_per_epoch() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        for _epoch in 0..100 {
            let seen: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            pool.run(&|shard| {
                seen[shard].fetch_add(1, Ordering::SeqCst);
            });
            for s in &seen {
                assert_eq!(s.load(Ordering::SeqCst), 1);
            }
        }
    }

    #[test]
    fn map_returns_outputs_in_shard_order() {
        let pool = WorkerPool::new(3);
        let out = pool.map(vec![10u64, 20, 30], |shard, x| x + shard as u64);
        assert_eq!(out, vec![10, 21, 32]);
    }

    #[test]
    fn sharded_sum_matches_sequential() {
        let data: Vec<u64> = (0..10_000).map(|i| i * 3 + 1).collect();
        let expected: u64 = data.iter().sum();
        for threads in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let bands = band_ranges(data.len(), pool.threads());
            let partial: Vec<Mutex<u64>> = bands.iter().map(|_| Mutex::new(0)).collect();
            pool.run(&|shard| {
                *partial[shard].lock().unwrap() = data[bands[shard].clone()].iter().sum();
            });
            let total: u64 = partial.iter().map(|m| *m.lock().unwrap()).sum();
            assert_eq!(total, expected);
        }
    }

    #[test]
    fn stepping_parses_and_defaults_to_wheel() {
        assert_eq!(Stepping::parse("dense"), Some(Stepping::Dense));
        assert_eq!(Stepping::parse("wheel"), Some(Stepping::Wheel));
        assert_eq!(Stepping::parse("sparse"), None, "the sparse mode is gone");
        assert_eq!(Stepping::parse("turbo"), None);
        assert_eq!(Stepping::default(), Stepping::Wheel);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|shard| {
                if shard == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable after a shard panicked.
        let hits = AtomicU64::new(0);
        pool.run(&|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }
}
