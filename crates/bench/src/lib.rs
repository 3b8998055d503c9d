//! # unisem-bench
//!
//! The experiment harness behind `src/bin/experiments.rs`. Each experiment
//! returns its tables as text, a function of the seeds alone, and only the
//! binary prints; `tests/experiments_golden.rs` holds every rendering to
//! its fenced block in EXPERIMENTS.md. Timing lives in unibench
//! (`benchmark/`, `BENCHMARK.json`), not here.
//!
//! Every experiment in EXPERIMENTS.md is regenerated by
//! `cargo run -p unisem-bench --bin experiments -- <e1..e8|all>`.

pub mod experiments;
pub mod harness;

pub use harness::{
    base_config, build_ecommerce_engine, build_healthcare_engine, evaluate_pipeline, EvalResult,
    TextTable,
};
