//! The fork-join pool and the resident helper threads it hands chunks to.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Fork-joins that handed work to at least one helper, process-wide.
static FORK_JOINS: AtomicU64 = AtomicU64::new(0);

/// How many pool calls in this process have handed work to a helper so far
/// (whether or not a helper got to it before the caller finished). A call
/// that fits in one chunk, or runs on a pool of width 1, runs on the caller
/// and does not count — so a test can assert that a code path never forks.
pub fn fork_joins() -> u64 {
    FORK_JOINS.load(Ordering::Relaxed)
}

/// How many resident helper threads this process has started. The helper
/// set starts empty, grows to the largest `min(threads, chunks) - 1` any one
/// call has asked for, and never shrinks — so a repeated fork-join starts
/// no thread after its first, and a test can assert that.
pub fn threads_started() -> u64 {
    *lock(&HELPERS) as u64
}

/// Every lock here guards a value that each update leaves whole (a queue
/// push or pop, a counter, one state assignment), so a poisoned guard is
/// still valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A task body as a helper holds it: a caller's closure with its lifetime
/// erased (see [`Tasks::submit`]).
type Job = &'static (dyn Fn() + Sync);

/// Where one submitted task stands. A helper moves it from `Pending` to
/// `Running` and, when the body returns, to `Settled`; the caller moves a
/// task that is still `Pending` straight to `Settled` (cancelled), after
/// which no helper runs it.
enum Slot {
    Pending(Job),
    Running,
    Settled,
}

struct Task {
    slot: Mutex<Slot>,
    settled: Condvar,
}

impl Task {
    /// Helper side: takes the body unless the caller cancelled the task.
    fn start(&self) -> Option<Job> {
        let mut slot = lock(&self.slot);
        let Slot::Pending(job) = *slot else { return None };
        *slot = Slot::Running;
        Some(job)
    }

    /// Helper side, once the body has returned or unwound.
    fn finish(&self) {
        *lock(&self.slot) = Slot::Settled;
        self.settled.notify_one();
    }

    /// Caller side: cancels the task if no helper has started it, else
    /// waits until its helper finishes it. A caller therefore never waits
    /// for a task that has not begun, which is why neither a call nested in
    /// a helper's chunk nor concurrent callers can deadlock on the helpers.
    fn settle(&self) {
        let mut slot = lock(&self.slot);
        if let Slot::Pending(_) = *slot {
            *slot = Slot::Settled;
        }
        while let Slot::Running = *slot {
            slot = self.settled.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Settles a task when its helper leaves the body, unwinding included.
struct Finish<'a>(&'a Task);

impl Drop for Finish<'_> {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// The helpers' one queue, and the signal an idle helper blocks on.
static QUEUE: Mutex<VecDeque<Arc<Task>>> = Mutex::new(VecDeque::new());
static QUEUED: Condvar = Condvar::new();

/// Resident helpers started, process-wide (none ever stops).
static HELPERS: Mutex<usize> = Mutex::new(0);

/// Grows the helper set to at least `n`. A helper that cannot be started is
/// not an error: its task stays pending and the caller cancels it, having
/// run every chunk itself.
fn ensure_helpers(n: usize) {
    let mut helpers = lock(&HELPERS);
    while *helpers < n {
        // Detached on purpose: a helper lives as long as the process.
        #[expect(clippy::disallowed_methods, reason = "parkit's resident helpers, the one fork")]
        let started = std::thread::Builder::new().name("parkit".into()).spawn(resident);
        if started.is_err() {
            break;
        }
        *helpers += 1;
    }
}

/// A resident helper's loop: takes tasks off the queue in order and runs
/// those their callers have not cancelled, blocking (never spinning) while
/// the queue is empty.
fn resident() {
    loop {
        let task = {
            let mut queue = lock(&QUEUE);
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                queue = QUEUED.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some(job) = task.start() {
            let _finish = Finish(&task);
            job();
        }
    }
}

/// The tasks one call handed to the helpers, all running the same body.
/// Dropping it settles every task — cancelled if still pending, waited for
/// if started — so the call that borrowed the body for `'a` cannot return or
/// unwind while a helper may still run it.
struct Tasks<'a> {
    tasks: Vec<Arc<Task>>,
    body: PhantomData<&'a (dyn Fn() + Sync + 'a)>,
}

impl<'a> Tasks<'a> {
    /// Queues `n` tasks that each run `body`, starting helpers if fewer than
    /// `n` exist.
    fn submit(body: &'a (dyn Fn() + Sync + 'a), n: usize) -> Self {
        ensure_helpers(n);
        // SAFETY: a helper calls the erased reference only between
        // `Task::start` and `Task::finish`, and the only way a `Tasks` ends
        // is its `Drop`, which returns only after every task it queued is
        // `Settled`: cancelled before `start` could take the body, or
        // finished after the body returned (`Finish` runs on unwind too).
        // The borrow of `body` outlives the returned `Tasks` (`PhantomData`
        // above), and no code in this module forgets a `Tasks`, so no call
        // of the erased reference can outlive `'a`. Nor does a settled
        // task keep it: `start` moves it out of the slot and cancelling
        // overwrites it.
        #[expect(
            unsafe_code,
            reason = "a resident helper runs a closure borrowed from the caller's stack"
        )]
        let job = unsafe { std::mem::transmute::<&'a (dyn Fn() + Sync + 'a), Job>(body) };
        let tasks: Vec<Arc<Task>> = (0..n)
            .map(|_| {
                Arc::new(Task { slot: Mutex::new(Slot::Pending(job)), settled: Condvar::new() })
            })
            .collect();
        lock(&QUEUE).extend(tasks.iter().cloned());
        for _ in 0..n {
            QUEUED.notify_one();
        }
        Self { tasks, body: PhantomData }
    }
}

impl Drop for Tasks<'_> {
    fn drop(&mut self) {
        for task in &self.tasks {
            task.settle();
        }
    }
}

/// Upper bound on the automatic chunk size (items per claimed chunk).
const DEFAULT_CHUNK: usize = 1024;

/// Automatic chunk size: a function of the input length ONLY (never the
/// thread count), so chunk boundaries — and therefore reduction association
/// order — are identical at every `UNISEM_THREADS` setting.
fn auto_chunk(n: usize) -> usize {
    (n / 64).clamp(1, DEFAULT_CHUNK)
}

/// Number of chunks an auto-chunked map over `n` items dispatches.
/// Width-invariant by construction (depends on `n` only), so observers —
/// e.g. the `parkit.batch_chunks` metric — record the same value at every
/// thread count; `0` for an empty input.
pub fn auto_chunk_count(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.div_ceil(auto_chunk(n))
    }
}

#[expect(clippy::disallowed_methods, reason = "UNISEM_THREADS is documented configuration")]
fn resolve_default_threads() -> usize {
    std::env::var("UNISEM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&t| t >= 1)
        .or_else(|| std::thread::available_parallelism().ok().map(usize::from))
        .unwrap_or(1)
}

/// The process-wide default pool: `UNISEM_THREADS` if set, else
/// `available_parallelism`. Resolved once per process. Every fan-out that
/// is not handed a pool runs on this one — an engine's `ParallelConfig`
/// does not change it (see the crate header for the list of sites).
pub fn global() -> Pool {
    static THREADS: OnceLock<usize> = OnceLock::new();
    Pool::new(*THREADS.get_or_init(resolve_default_threads))
}

/// A fork-join pool of a fixed logical width.
///
/// The pool is a *policy*, not a set of threads: each call hands
/// `min(threads, chunks) - 1` tasks to the process's resident helpers (the
/// caller is the remaining worker) and settles every one before returning,
/// cancelling those no helper has started. Nested calls therefore cannot
/// deadlock, and a 1-thread pool never hands anything over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` logical workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A single-threaded pool: every call is a plain sequential loop.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The logical worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Core executor: runs `job(0..n_chunks)` across the pool, returning
    /// results in chunk-index order. The first panic in `job` stops the
    /// remaining chunks and is re-raised on the caller once every helper
    /// task has been settled.
    ///
    /// Chunks are claimed dynamically from an atomic cursor, so load
    /// balances across workers; results are merged by index, so the output
    /// does not depend on which worker ran which chunk.
    fn run<R, F>(&self, n_chunks: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n_chunks == 0 {
            return Vec::new();
        }
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);

        let worker = || {
            let mut out: Vec<(usize, R)> = Vec::new();
            loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                match panic::catch_unwind(AssertUnwindSafe(|| job(i))) {
                    Ok(r) => out.push((i, r)),
                    Err(payload) => {
                        let mut slot = lock(&first_panic);
                        if slot.is_none() {
                            *slot = Some(payload);
                        }
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            }
            out
        };

        let helpers = self.threads.min(n_chunks).saturating_sub(1);
        // One worker's share, run by the caller and by each helper task.
        let parts: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::with_capacity(helpers + 1));
        let share = || {
            let part = worker();
            lock(&parts).push(part);
        };
        if helpers == 0 {
            share();
        } else {
            FORK_JOINS.fetch_add(1, Ordering::Relaxed);
            let tasks = Tasks::submit(&share, helpers);
            share();
            drop(tasks);
        }

        if let Some(payload) = lock(&first_panic).take() {
            panic::resume_unwind(payload);
        }

        // Index-ordered merge: output position = chunk index.
        let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
        for part in parts.into_inner().unwrap_or_else(PoisonError::into_inner) {
            for (i, r) in part {
                debug_assert!(slots[i].is_none(), "chunk {i} claimed twice");
                slots[i] = Some(r);
            }
        }
        slots.into_iter().map(|s| s.expect("all chunks completed")).collect()
    }

    /// [`Pool::run`] over the fixed-size sub-ranges of `0..n` (the last may
    /// be short), one result per sub-range in range order.
    fn run_spans<R, F>(&self, n: usize, chunk_size: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let chunk_size = chunk_size.max(1);
        self.run(n.div_ceil(chunk_size), |c| {
            let lo = c * chunk_size;
            job(lo..(lo + chunk_size).min(n))
        })
    }

    /// Maps `f` over `0..n`, returning results in index order. Panics in
    /// `f` are re-raised on the caller.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.par_map_range_chunked(n, auto_chunk(n), f)
    }

    /// [`Pool::par_map_range`] with an explicit chunk size (items per
    /// claimed chunk). The chunk size must not be derived from the thread
    /// count, or reduction determinism across `UNISEM_THREADS` is lost.
    pub fn par_map_range_chunked<R, F>(&self, n: usize, chunk_size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let chunked = self.run_spans(n, chunk_size, |span| span.map(&f).collect::<Vec<R>>());
        chunked.into_iter().flatten().collect()
    }

    /// Maps `f` over a slice, returning results in input order. Panics in
    /// `f` are re-raised on the caller.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_range(items.len(), |i| f(&items[i]))
    }

    /// Applies `f` to fixed-size chunks of `items` (last chunk may be
    /// short), returning one result per chunk in chunk order. `f` receives
    /// the chunk's starting index and the chunk slice.
    pub fn par_chunks<T, R, F>(&self, items: &[T], chunk_size: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        self.run_spans(items.len(), chunk_size, |span| f(span.start, &items[span]))
    }

    /// Deterministic parallel reduction: folds each fixed-size index
    /// sub-range of `0..n` with `fold`, then combines the accumulators
    /// **left to right in range order**. Because the boundaries depend only
    /// on `(n, chunk_size)`, the association order — and thus every
    /// floating-point rounding step — is identical for any thread count.
    ///
    /// Returns `None` for an empty input.
    pub fn par_reduce_range<A, FF, CF>(
        &self,
        n: usize,
        chunk_size: usize,
        fold: FF,
        combine: CF,
    ) -> Option<A>
    where
        A: Send,
        FF: Fn(Range<usize>) -> A + Sync,
        CF: Fn(A, A) -> A,
    {
        self.run_spans(n, chunk_size, fold).into_iter().reduce(combine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let items: Vec<u64> = (0..1000).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            assert_eq!(pool.par_map(&items, |x| x * x + 1), expected, "threads={threads}");
        }
    }

    #[test]
    fn results_are_input_ordered_not_completion_ordered() {
        let pool = Pool::new(4);
        // Earlier items sleep longer, so completion order inverts input
        // order on a real multi-core scheduler; the merge must restore it.
        let items: Vec<u64> = (0..32).collect();
        let out = pool.par_map(&items, |&x| {
            std::thread::sleep(std::time::Duration::from_micros(40u64.saturating_sub(x)));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |x| x + 1).is_empty());
        assert_eq!(pool.par_map(&[7u32], |x| x + 1), vec![8]);
        assert_eq!(pool.par_reduce_range(0, 8, |r| r.len(), |a, b| a + b), None);
        assert_eq!(pool.par_reduce_range(1, 8, |r| r.len(), |a, b| a + b), Some(1));
    }

    #[test]
    fn float_reduction_bit_identical_across_thread_counts() {
        // Pathological float mix where association order matters.
        let xs: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.7).sin() * 1e-3 + 1e9).collect();
        let sum = |threads| {
            Pool::new(threads)
                .par_reduce_range(xs.len(), 128, |r| xs[r].iter().sum::<f64>(), |a, b| a + b)
                .unwrap()
        };
        let reference = sum(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(sum(threads).to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_covers_input_with_ragged_tail() {
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..10).collect();
        let spans = pool.par_chunks(&items, 4, |start, chunk| (start, chunk.to_vec()));
        assert_eq!(spans, vec![(0, vec![0, 1, 2, 3]), (4, vec![4, 5, 6, 7]), (8, vec![8, 9])]);
    }

    #[test]
    fn par_map_reraises_panic_payload() {
        let pool = Pool::new(2);
        let items: Vec<u32> = (0..64).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 40, "kaboom");
                x
            })
        }));
        let payload = caught.expect_err("must propagate");
        assert!(payload.downcast_ref::<&str>().is_some_and(|m| m.contains("kaboom")));
    }

    #[test]
    fn nested_parallelism_completes() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let out = pool.par_map(&outer, |&i| {
            let inner = Pool::new(4);
            inner.par_map_range(16, |j| i * 100 + j).iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn global_pool_resolves_at_least_one_thread() {
        assert!(global().threads() >= 1);
        assert_eq!(Pool::new(0).threads(), 1, "zero clamps to sequential");
        assert_eq!(Pool::sequential().threads(), 1);
    }

    #[test]
    fn auto_chunk_is_length_dependent_only() {
        assert_eq!(auto_chunk(0), 1);
        assert_eq!(auto_chunk(63), 1);
        assert_eq!(auto_chunk(6400), 100);
        assert_eq!(auto_chunk(1_000_000), DEFAULT_CHUNK);
        assert_eq!(auto_chunk_count(0), 0);
        assert_eq!(auto_chunk_count(63), 63, "chunk size 1 → one chunk per item");
        assert_eq!(auto_chunk_count(6400), 64);
    }
}
