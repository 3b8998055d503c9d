//! The scoped fork-join pool.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fork-joins that spawned at least one worker, process-wide.
static FORK_JOINS: AtomicU64 = AtomicU64::new(0);

/// How many pool calls in this process have spawned threads so far. A call
/// that fits in one chunk, or runs on a pool of width 1, runs on the caller
/// and does not count — so a test can assert that a code path never forks.
pub fn fork_joins() -> u64 {
    FORK_JOINS.load(Ordering::Relaxed)
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

/// A scoped fork-join pool of a fixed logical width.
///
/// The pool is a *policy*, not a set of resident threads: each call spawns
/// `threads - 1` scoped workers (the caller is the remaining worker) and
/// joins them before returning. Nested calls therefore cannot deadlock, and
/// a 1-thread pool never spawns at all.
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
    /// remaining chunks and is re-raised on the caller once every worker
    /// has been joined.
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
                        let mut slot =
                            first_panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
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

        let spawned = self.threads.min(n_chunks).saturating_sub(1);
        let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(spawned + 1);
        if spawned == 0 {
            parts.push(worker());
        } else {
            FORK_JOINS.fetch_add(1, Ordering::Relaxed);
            #[expect(clippy::disallowed_methods, reason = "the pool's one fork, merged in order")]
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..spawned).map(|_| scope.spawn(worker)).collect();
                parts.push(worker());
                for h in handles {
                    // Workers never unwind (the job is caught inside), so a
                    // join error can only be an external thread kill; treat
                    // it like a panic.
                    match h.join() {
                        Ok(part) => parts.push(part),
                        Err(payload) => {
                            let mut slot = first_panic
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                        }
                    }
                }
            });
        }

        if let Some(payload) =
            first_panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
        {
            panic::resume_unwind(payload);
        }

        // Index-ordered merge: output position = chunk index.
        let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
        for part in parts {
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
