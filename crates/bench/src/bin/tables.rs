//! `tables` — regenerate every table/figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p brew-bench --bin tables                  # everything
//! cargo run --release -p brew-bench --bin tables -- e1 e2         # selected
//! cargo run --release -p brew-bench --bin tables -- --exp obs     # one experiment
//! ```
//!
//! Experiment ids follow DESIGN.md §3. The output repeats byte for byte;
//! `crates/bench/tests/tables_pins.txt` is the record of a full run.

use brew_bench::{render_all, EXPERIMENTS};

fn main() {
    // `--exp` is accepted (and ignored) before any experiment id, so both
    // `tables obs` and `tables --exp obs` spell the same thing.
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--exp").collect();
    let wanted: Vec<&str> = if args.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(bad) = wanted.iter().find(|id| !EXPERIMENTS.contains(id)) {
        eprintln!(
            "tables: unknown experiment `{bad}`; known: {}",
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    print!("{}", render_all(&wanted));
}
