//! `udlint` — the workspace determinism linter.
//!
//! ```text
//! udlint [--root DIR] [--format text|json] [--deny all] [--list]
//!        [--explain LINT]
//! ```
//!
//! - `--root DIR`        tree to lint (default: current directory)
//! - `--format json`     machine-readable, byte-stable report
//! - `--deny all`        exit non-zero if any unsuppressed diagnostic
//! - `--list`            print the closed lint registry and exit
//! - `--explain LINT`    print the long-form contract documentation for
//!                       one lint and exit

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = String::from("text");
    let mut deny = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => return usage("--root needs a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = "text".into(),
                Some("json") => format = "json".into(),
                _ => return usage("--format must be `text` or `json`"),
            },
            "--deny" => match args.next().as_deref() {
                Some("all") => deny = true,
                _ => return usage("only `--deny all` is supported"),
            },
            "--list" => {
                for (name, desc) in lintkit::LINTS {
                    println!("{name}\n    {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => match args.next() {
                Some(lint) => match lintkit::explain::explain(&lint) {
                    Some(text) => {
                        println!("{lint}\n\n{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!(
                            "udlint: unknown lint `{lint}` (see `udlint --list` for the registry)"
                        );
                        return ExitCode::from(2);
                    }
                },
                None => return usage("--explain needs a lint name"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match lintkit::runner::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("udlint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    match format.as_str() {
        "json" => print!("{}", report.render_json()),
        _ => print!("{}", report.render_text()),
    }

    if deny && !report.diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("udlint: {err}");
    }
    eprintln!(
        "usage: udlint [--root DIR] [--format text|json] [--deny all] [--list] [--explain LINT]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
