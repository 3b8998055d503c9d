//! `unibench`: the repeatable end-to-end and per-layer benchmark of the
//! unisem engine. `BENCHMARK.json` at the repository root names this
//! package; `README.md` beside it explains the workloads and the metrics.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload structured_qa --seed 379422 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --check
//! ```
//!
//! One client, closed loop: the engine is an in-process library whose
//! caller waits for each reply, so there is no arrival rate to sweep. The
//! benchmark spawns no threads; the only parallelism is the engine's pool.

mod calibrate;
mod ingest;
mod inputs;
mod layers;
mod metrics;
mod qa;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use workload::{Outcome, Scale, Shape, Spec, WORKLOADS};

const USAGE: &str = "usage: unibench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>] [--out-dir <dir>]
       unibench --check [--seed <n>] [--out-dir <dir>]
workloads: structured_qa, retrieval_qa, mixed_batch, ingest_stream
seeds are decimal or 0x-prefixed hexadecimal; the default is 0x5CA1E";

struct Args {
    workload: Option<String>,
    check: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        check: false,
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        // The benchmark runs from the root of a checkout and keeps every
        // file it writes inside its own directory there.
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.check == args.workload.is_some() {
        return Err("give exactly one of --workload and --check".to_string());
    }
    Ok(args)
}

/// Removes the run's temporary directory when the run ends, however it ends.
struct TempDir(PathBuf);

impl TempDir {
    fn create(out_dir: &Path) -> std::io::Result<TempDir> {
        let path = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn run_one(
    spec: &Spec,
    scale: Scale,
    args: &Args,
    seconds: f64,
    trace: bool,
    tmp: &Path,
) -> Outcome {
    if trace {
        let spans = args.out_dir.join(format!("spans-{}-{:#x}.jsonl", spec.name, args.seed));
        return layers::run(spec, scale, args.seed, tmp, &spans);
    }
    match spec.shape {
        Shape::Answers { mix, batch } => qa::run(mix, batch, scale, args.seed, seconds),
        Shape::Ingest => ingest::run(scale, args.seed, seconds, tmp),
    }
}

/// Prints the notes, every metric by name with its unit, and the failures;
/// returns the metrics as the JSON object of the result line.
fn print_outcome(spec: &Spec, out: &Outcome, defs: &[MetricDef]) -> Result<String, String> {
    for note in &out.notes {
        println!("# {note}");
    }
    let values = out.metrics.in_order(defs)?;
    let mut json = Vec::with_capacity(values.len());
    for (name, value, unit) in values {
        println!("{}/{name} = {value} {unit}", spec.name);
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let share = stats::failed_share(out.failed, out.attempted);
    println!(
        "{}/failed = {} of {} attempted (share {share})",
        spec.name, out.failed, out.attempted
    );
    for line in &out.broken {
        println!("{}/CHECK FAILED: {line}", spec.name);
    }
    Ok(format!("{{{}}}", json.join(", ")))
}

fn main() -> ExitCode {
    // The engine reads these at build and answer time; a run must not
    // depend on the caller's shell. No thread exists yet.
    for var in ["UNISEM_THREADS", "UNISEM_FAULTS", "UNISEM_TRACE"] {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("unibench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp = match TempDir::create(&args.out_dir) {
        Ok(tmp) => tmp,
        Err(e) => {
            eprintln!("unibench: cannot create a directory under {}: {e}", args.out_dir.display());
            return ExitCode::from(2);
        }
    };

    if args.check {
        // CI mode: every workload, untraced then traced, on a small corpus.
        let mut ok = true;
        for spec in WORKLOADS {
            for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let out = run_one(spec, spec.check_scale(), &args, 0.0, trace, &tmp.0);
                let printed = print_outcome(spec, &out, defs);
                if let Err(e) = &printed {
                    println!("{}/CHECK FAILED: {e}", spec.name);
                }
                ok &= out.correct() && out.attempted >= 1 && printed.is_ok();
            }
        }
        println!("check: {}", if ok { "ok" } else { "FAILED" });
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let name = args.workload.as_deref().expect("parse_args requires it without --check");
    let Some(spec) = Spec::by_name(name) else {
        eprintln!("unibench: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let out = run_one(spec, spec.full, &args, args.seconds, args.trace, &tmp.0);
    drop(tmp);
    match print_outcome(spec, &out, defs) {
        Ok(metrics) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                out.correct(),
                out.attempted,
                out.failed
            );
            if out.correct() && out.attempted >= 1 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("unibench: {e}");
            ExitCode::FAILURE
        }
    }
}
