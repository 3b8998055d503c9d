//! Experiment runner: `cargo run -p unisem-bench --bin experiments -- <exp>`
//! where `<exp>` is one of `e1..e8` or `all` (the default).

use unisem_bench::experiments::EXPERIMENTS;

fn main() {
    #[expect(clippy::disallowed_methods, reason = "the experiment to run is the one argument")]
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let selected: Vec<_> =
        EXPERIMENTS.iter().filter(|(id, _)| arg == "all" || *id == arg).collect();
    if selected.is_empty() {
        eprintln!("unknown experiment '{arg}'; use e1..e8 or all");
        std::process::exit(2);
    }
    for (id, run) in selected {
        println!("== {id} ==\n\n{}", run());
    }
}
