//! # unisem-bench
//!
//! The experiment harness behind `src/bin/experiments.rs`. Timing lives
//! in unibench (`benchmark/`, `BENCHMARK.json`), not here.
//!
//! Every experiment in EXPERIMENTS.md is regenerated by
//! `cargo run -p unisem-bench --bin experiments -- <e1..e8|all>`.

pub mod experiments;
pub mod harness;

pub use harness::{
    build_ecommerce_engine, build_healthcare_engine, evaluate_pipeline, EvalResult, TextTable,
};
