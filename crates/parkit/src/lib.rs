//! # parkit
//!
//! Deterministic parallelism for the unisem workspace (DESIGN.md §6/§7):
//! a zero-dependency, std-only fork-join toolkit whose results are
//! **bit-identical for any thread count**, including 1.
//!
//! The determinism contract rests on three rules, all enforced here rather
//! than left to callers:
//!
//! 1. **Index-ordered merge.** Work is split into chunks; whichever worker
//!    finishes a chunk, its results are placed back by chunk index, so the
//!    output order equals the input order.
//! 2. **Thread-count-invariant chunking.** Chunk boundaries are a function
//!    of the input length (and an explicit chunk size) only — never of the
//!    thread count. This matters for floating-point reductions: partial
//!    sums are combined left-to-right in chunk order, so the association
//!    order (and therefore every rounding step) is the same whether the
//!    chunks ran on one thread or eight.
//! 3. **Forked RNG substreams.** Stochastic work must not share one
//!    sequential RNG across items. Callers fork one decorrelated substream
//!    per item *before* dispatch (`detkit::Rng::fork`), so each item's
//!    stream is a pure function of its index, not of scheduling.
//!
//! A call hands its chunks to **resident helper threads**: one process-wide
//! set, started lazily, grown to the most helpers any one call has asked
//! for (`min(threads, chunks) - 1`) and never shrunk, that takes tasks from
//! one queue and blocks while it is empty. The calling thread always
//! participates as a worker, so a pool of 1 thread never hands anything
//! over and degenerates to a plain sequential loop. When its own share is
//! done, the caller settles each task it queued: one no helper has started
//! is cancelled, one that has started is waited for. A caller never waits
//! for a task that has not begun, so nested parallelism (`par_map` inside
//! `par_map`) and concurrent callers cannot deadlock on the helpers: at
//! worst the caller runs every chunk itself. A helper runs a closure
//! borrowed from the caller's stack, which takes the workspace's one
//! `unsafe` block (a lifetime erasure in `pool.rs`); it is sound for the
//! reason [`std::thread::scope`] is — the call cannot return or unwind
//! while a helper may still run its closure.
//!
//! Worker panics are caught, the remaining chunks are abandoned, and the
//! first panic payload is re-raised on the caller once every task has been
//! settled — a panicking task can never hang the pool, behaves exactly as
//! it would in a sequential loop, and leaves its helper alive.
//!
//! ## Which setting governs which site
//!
//! A [`Pool`] is only a width, and two widths exist in a process:
//!
//! - [`global`] — `UNISEM_THREADS` if set and ≥ 1, else
//!   [`std::thread::available_parallelism`], else 1; resolved once per
//!   process. It governs every site that takes no pool: graph entity
//!   tagging and the PageRank prior — build-time work, the prior also
//!   recomputed once after an ingest drops it.
//! - An explicit [`Pool::new`] handed in by the caller. The engine's
//!   `ParallelConfig` resolves to one (to [`global`] when its thread count
//!   is 0), and it governs only what the engine passes it to:
//!   `answer_batch`'s outer map, and the dense retriever, which keeps the
//!   pool it was built with for build and scan. It does **not**
//!   reach the sites of the first kind.
//!
//! Results are bit-identical at any width either way; only where the
//! threads come from differs.

mod pool;

pub use pool::{auto_chunk_count, fork_joins, global, threads_started, Pool};
