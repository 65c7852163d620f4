//! A small persistent worker pool for deterministic band-parallel
//! simulation loops.
//!
//! The simulators in this workspace (NoC fabric, machine tile-step, PDN
//! red/black SOR) all follow the same shape: every cycle, a *plan* phase
//! reads immutable pre-cycle state and can be computed independently per
//! contiguous band of tiles/rows, then a short *commit* phase applies the
//! results sequentially in canonical order. Determinism therefore does not
//! depend on scheduling — each shard computes a pure function of the
//! pre-cycle state — but spawning OS threads every cycle would dominate the
//! runtime. [`WorkerPool`] keeps the threads alive across cycles and hands
//! them one closure per *epoch* (one `run` call), with a condvar barrier at
//! the end of each epoch.
//!
//! A pool with `threads <= 1` has no worker threads at all: `run` invokes
//! the closure inline for shard 0, so the single-threaded path executes the
//! exact same code as the sharded path.
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
    let mut out = Vec::new();
    band_ranges_into(items, shards, &mut out);
    out
}

/// [`band_ranges`] into a caller-owned buffer, cleared not reallocated —
/// for per-tick hot loops that recompute their sharding every cycle.
pub fn band_ranges_into(items: usize, shards: usize, out: &mut Vec<Range<usize>>) {
    let shards = shards.max(1);
    out.clear();
    out.extend((0..shards).map(|s| (s * items / shards)..((s + 1) * items / shards)));
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

    /// Runs `f(shard, &mut slots[shard])` for every shard — the
    /// allocation-free sibling of [`WorkerPool::map`] for hot loops that
    /// keep one reusable scratch slot per shard across epochs.
    ///
    /// `slots.len()` must equal `threads()`.
    pub fn run_mut<T: Send>(&self, slots: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        assert_eq!(slots.len(), self.threads(), "one slot per shard");
        struct SlotsPtr<T>(*mut T);
        // SAFETY: shard indices within an epoch are distinct, so the
        // `&mut` projections handed to `f` never alias.
        unsafe impl<T: Send> Sync for SlotsPtr<T> {}
        let slots = SlotsPtr(slots.as_mut_ptr());
        let slots = &slots;
        self.run(&move |shard| {
            // SAFETY: `shard < threads() == slots.len()` and each shard
            // runs exactly once per epoch, touching only its own slot.
            let slot = unsafe { &mut *slots.0.add(shard) };
            f(shard, slot);
        });
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
/// progress until a known future deadline (an
/// [`EventWheel`](crate::wheel::EventWheel) entry, a stall expiry),
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

/// Minimum active items per shard before banding pays for itself.
///
/// Below this, the plan/apply split plus the pool barrier cost more than
/// the work they distribute, so [`AdaptiveExecutor::shards_for`] collapses
/// to a single inline shard.
pub const MIN_ACTIVE_PER_SHARD: usize = 64;

/// A [`WorkerPool`] wrapper that falls back to inline sequential
/// execution when the work is too small to amortise the pool barrier.
///
/// `threads <= 1` holds no pool at all (satisfying the "never construct a
/// `WorkerPool` when threads == 1" rule), and `shards_for` returns 1
/// whenever the active set is under [`MIN_ACTIVE_PER_SHARD`] per thread —
/// so a mostly idle simulator pays neither thread wake-ups nor per-shard
/// bookkeeping, while a busy one still bands out.
///
/// # Examples
///
/// ```
/// use wsp_common::parallel::{AdaptiveExecutor, MIN_ACTIVE_PER_SHARD};
///
/// let exec = AdaptiveExecutor::new(4);
/// assert_eq!(exec.threads(), 4);
/// assert_eq!(exec.shards_for(10), 1, "tiny active set runs inline");
/// assert_eq!(exec.shards_for(MIN_ACTIVE_PER_SHARD * 4), 4);
///
/// let inline = AdaptiveExecutor::new(1);
/// assert!(inline.pool().is_none(), "no pool at one thread");
/// ```
#[derive(Clone, Default)]
pub struct AdaptiveExecutor {
    pool: Option<Arc<WorkerPool>>,
}

impl AdaptiveExecutor {
    /// An executor for `threads` workers; `threads <= 1` builds no pool.
    pub fn new(threads: usize) -> Self {
        AdaptiveExecutor {
            pool: (threads > 1).then(|| Arc::new(WorkerPool::new(threads))),
        }
    }

    /// Wraps an existing (possibly shared) pool; inline pools are treated
    /// as absent.
    pub fn from_pool(pool: Option<Arc<WorkerPool>>) -> Self {
        AdaptiveExecutor {
            pool: pool.filter(|p| p.threads() > 1),
        }
    }

    /// The shared pool handle, if any — for wiring one pool through
    /// several subsystems (a machine and its fabric).
    pub fn pool(&self) -> Option<Arc<WorkerPool>> {
        self.pool.clone()
    }

    /// Shards each epoch runs when banded (1 when inline).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.threads())
    }

    /// How many shards to carve for `active_items` pieces of live work:
    /// either 1 (inline) or `threads()` (banded), never in between, so
    /// the result is always a valid [`WorkerPool::map`] input length.
    pub fn shards_for(&self, active_items: usize) -> usize {
        match &self.pool {
            Some(pool) if active_items >= MIN_ACTIVE_PER_SHARD * pool.threads() => pool.threads(),
            _ => 1,
        }
    }

    /// Runs `f(shard, &mut slots[shard])` for every slot: on the pool
    /// when `slots` fills every shard, inline otherwise. Like
    /// [`WorkerPool::run_mut`], nothing is allocated per call — the point
    /// for per-tick simulation loops reusing per-shard scratch buffers.
    pub fn run_mut<T: Send>(&self, slots: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        match &self.pool {
            Some(pool) if slots.len() == pool.threads() && pool.threads() > 1 => {
                pool.run_mut(slots, f);
            }
            _ => {
                for (shard, slot) in slots.iter_mut().enumerate() {
                    f(shard, slot);
                }
            }
        }
    }

    /// Moves one value per shard through `f`, in shard order: on the pool
    /// when `inputs` fills every shard, inline otherwise.
    pub fn map<T, R>(&self, inputs: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        match &self.pool {
            Some(pool) if inputs.len() == pool.threads() && pool.threads() > 1 => {
                pool.map(inputs, f)
            }
            _ => inputs
                .into_iter()
                .enumerate()
                .map(|(shard, input)| f(shard, input))
                .collect(),
        }
    }
}

impl std::fmt::Debug for AdaptiveExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptiveExecutor")
            .field("threads", &self.threads())
            .finish()
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
    fn band_ranges_into_reuses_the_buffer() {
        let mut buf = Vec::new();
        band_ranges_into(10, 3, &mut buf);
        assert_eq!(buf, band_ranges(10, 3));
        let cap = buf.capacity();
        band_ranges_into(7, 2, &mut buf);
        assert_eq!(buf, band_ranges(7, 2));
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn run_mut_gives_each_shard_its_own_slot() {
        let pool = WorkerPool::new(4);
        let mut slots = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for epoch in 0..50u64 {
            pool.run_mut(&mut slots, |shard, slot: &mut Vec<u64>| {
                slot.push(epoch * 10 + shard as u64);
            });
        }
        for (shard, slot) in slots.iter().enumerate() {
            assert_eq!(slot.len(), 50);
            for (epoch, &v) in slot.iter().enumerate() {
                assert_eq!(v, epoch as u64 * 10 + shard as u64);
            }
        }
    }

    #[test]
    fn adaptive_run_mut_matches_inline_and_pooled() {
        let exec = AdaptiveExecutor::new(3);
        let mut slots = vec![0u64; 3];
        exec.run_mut(&mut slots, |shard, slot| *slot = shard as u64 + 1);
        assert_eq!(slots, vec![1, 2, 3]);
        // Partial slot counts fall back to inline execution.
        let mut partial = vec![0u64; 2];
        exec.run_mut(&mut partial, |shard, slot| *slot = shard as u64 + 1);
        assert_eq!(partial, vec![1, 2]);
        let inline = AdaptiveExecutor::new(1);
        let mut one = vec![0u64; 1];
        inline.run_mut(&mut one, |shard, slot| *slot = shard as u64 + 7);
        assert_eq!(one, vec![7]);
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
    fn adaptive_executor_collapses_small_active_sets() {
        let exec = AdaptiveExecutor::new(4);
        assert_eq!(exec.threads(), 4);
        assert_eq!(exec.shards_for(0), 1);
        assert_eq!(exec.shards_for(MIN_ACTIVE_PER_SHARD * 4 - 1), 1);
        assert_eq!(exec.shards_for(MIN_ACTIVE_PER_SHARD * 4), 4);

        let inline = AdaptiveExecutor::new(1);
        assert!(inline.pool().is_none());
        assert_eq!(inline.threads(), 1);
        assert_eq!(inline.shards_for(usize::MAX), 1);
    }

    #[test]
    fn adaptive_map_matches_pool_map_and_runs_inline() {
        let exec = AdaptiveExecutor::new(3);
        // Full-width input: banded on the pool.
        assert_eq!(
            exec.map(vec![10u64, 20, 30], |shard, x| x + shard as u64),
            vec![10, 21, 32]
        );
        // Single input: inline, shard index 0.
        assert_eq!(exec.map(vec![5u64], |shard, x| x + shard as u64), vec![5]);
        // No pool: always inline, any length.
        let inline = AdaptiveExecutor::new(1);
        assert_eq!(
            inline.map(vec![1u64, 2, 3], |shard, x| x * 10 + shard as u64),
            vec![10, 21, 32]
        );
    }

    #[test]
    fn adaptive_from_pool_filters_inline_pools() {
        let shared = Arc::new(WorkerPool::new(2));
        let exec = AdaptiveExecutor::from_pool(Some(Arc::clone(&shared)));
        assert_eq!(exec.threads(), 2);
        assert!(
            AdaptiveExecutor::from_pool(Some(Arc::new(WorkerPool::new(1))))
                .pool()
                .is_none()
        );
        assert!(AdaptiveExecutor::from_pool(None).pool().is_none());
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
