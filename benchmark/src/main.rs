//! The repository's benchmark: five workloads over the BREW specialization
//! stack, measured end to end (tracing off) and layer by layer (a traced
//! run). See README.md for why each workload exists and how to read the
//! output.
//!
//! ```text
//! brew-benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! brew-benchmark repeat N [--workload W] [--seed N] [--seconds S] [--out DIR]
//! brew-benchmark diff A.json B.json
//! brew-benchmark check-determinism
//! brew-benchmark benchmark-json
//! ```
//!
//! With `--workload` and `--trace` both given (the driver's form) one run
//! happens in this process and the last line of standard output is its
//! result object. Otherwise every selected workload runs in a child process
//! of its own — untraced, then traced — so `peak_rss_mb` is per workload.

mod json;
mod kernels;
mod layers;
mod phases;
mod report;
mod rng;
mod run;
mod span;
mod stats;
mod summary;
mod workloads;

use json::Json;
use report::Outcome;
use run::Plan;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Kind, WORKLOADS};

/// Default `--seconds` of a plain `run`: 8 s untraced, 3 s traced.
const DEFAULT_SECONDS: f64 = 8.0;
/// `--smoke`: all five workloads, both modes, within ten seconds.
const SMOKE_SECONDS: f64 = 0.25;

struct Args {
    command: String,
    positional: Vec<String>,
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> String {
    "usage: brew-benchmark [run|repeat N|diff A B|check-determinism|benchmark-json] \
     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let default_out = if Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out"
    } else {
        "out"
    };
    let mut a = Args {
        command: "run".into(),
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: default_out.into(),
    };
    let mut it = argv.iter();
    let mut first = true;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workload = Some(
                    Kind::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = value("--out")?.into(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            word if first => a.command = word.into(),
            word => a.positional.push(word.into()),
        }
        first = false;
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    fn kinds(&self) -> Vec<Kind> {
        match self.workload {
            Some(k) => vec![k],
            None => WORKLOADS.iter().map(|w| w.0).collect(),
        }
    }
}

fn mode(traced: bool) -> &'static str {
    if traced {
        "traced"
    } else {
        "untraced"
    }
}

/// One run in this process: print it, write its files, return it.
fn single(a: &Args, kind: Kind, traced: bool) -> std::io::Result<Outcome> {
    let outcome = run::run_one(
        kind,
        a.seed,
        Plan {
            seconds: a.seconds(),
            traced,
            smoke: a.smoke,
        },
    );
    print!("{}", outcome.render_text());
    std::fs::create_dir_all(&a.out)?;
    let file = format!("run-{}-{}.json", kind.name(), mode(traced));
    std::fs::write(a.out.join(file), outcome.to_json().render())?;
    if let Some(trace) = &outcome.trace_json {
        std::fs::write(a.out.join(format!("trace-{}.json", kind.name())), trace)?;
    }
    Ok(outcome)
}

/// One run in a child process (its own address space, so its own peak RSS).
/// Echoes the child's report and returns its outcome file.
fn child(a: &Args, kind: Kind, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stdout(Stdio::piped());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = proc.stdout.take().expect("piped stdout");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        // The result object is for machines; the tables above it are the report.
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = proc.wait().map_err(|e| e.to_string())?;
    Json::parse(&last)
        .map_err(|e| format!("{} {}: no result line ({e})", kind.name(), mode(traced)))?;
    let file = a
        .out
        .join(format!("run-{}-{}.json", kind.name(), mode(traced)));
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let outcome = Json::parse(&text)?;
    if !status.success() {
        eprintln!("{} ({}) exited with {status}", kind.name(), mode(traced));
    }
    Ok(outcome)
}

fn failed_of(outcome: &Json) -> (bool, f64) {
    (
        outcome.get("correct") == Some(&Json::Bool(true)),
        outcome.get("failed").and_then(Json::as_f64).unwrap_or(1.0),
    )
}

/// `run`: every selected workload, untraced then traced, into `result.json`.
fn run_all(a: &Args) -> Result<bool, String> {
    let modes: Vec<bool> = a.trace.map_or(vec![false, true], |t| vec![t]);
    let mut sum = summary::Summary::new(a.seed, a.seconds());
    let mut clean = true;
    for kind in a.kinds() {
        for &traced in &modes {
            let outcome = child(a, kind, a.seed, traced)?;
            let (correct, failed) = failed_of(&outcome);
            clean &= correct && failed == 0.0;
            sum.add(kind.name(), traced, &outcome);
        }
    }
    sum.runs = 1;
    let path = a.out.join("result.json");
    std::fs::write(&path, sum.to_json().render()).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(clean)
}

/// `repeat N`: the whole benchmark N times (untraced), seeds `seed..seed+N`.
fn repeat(a: &Args) -> Result<bool, String> {
    let n: u64 = a
        .positional
        .first()
        .and_then(|s| s.parse().ok())
        .filter(|n| *n >= 2)
        .ok_or("repeat needs a count of at least 2")?;
    let mut sum = summary::Summary::new(a.seed, a.seconds());
    let mut clean = true;
    for i in 0..n {
        for kind in a.kinds() {
            let outcome = child(a, kind, a.seed + i, false)?;
            let (correct, failed) = failed_of(&outcome);
            clean &= correct && failed == 0.0;
            sum.add(kind.name(), false, &outcome);
        }
        sum.runs += 1;
    }
    print!("{}", sum.render_spreads());
    let path = a.out.join("repeat.json");
    std::fs::write(&path, sum.to_json().render()).map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(clean)
}

fn diff(a: &Args) -> Result<bool, String> {
    let [left, right] = a.positional.as_slice() else {
        return Err("diff needs two files".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (text, regressed) = summary::diff(&load(left)?, &load(right)?)?;
    print!("{text}");
    Ok(!regressed)
}

/// The deterministic section twice, under two seeds for the probe data: the
/// two renderings must be byte-identical.
fn check_determinism(a: &Args) -> Result<bool, String> {
    let mut same = true;
    for kind in a.kinds() {
        let one = run::deterministic(kind, a.seed).render();
        let two = run::deterministic(kind, a.seed + 1).render();
        let ok = one == two;
        same &= ok;
        println!(
            "{:<12} {} ({} bytes of JSON)",
            kind.name(),
            if ok { "identical" } else { "DIFFERS" },
            one.len()
        );
        if !ok {
            println!("  seed {}: {one}\n  seed {}: {two}", a.seed, a.seed + 1);
        }
    }
    Ok(same)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let ok = match (a.command.as_str(), a.workload, a.trace) {
        ("run", Some(kind), Some(traced)) => match single(&a, kind, traced) {
            Ok(outcome) => {
                // Last line of standard output: the driver's result object.
                println!("{}", outcome.result_line());
                Ok(outcome.correct())
            }
            Err(e) => Err(e.to_string()),
        },
        ("run", _, _) => run_all(&a),
        ("repeat", _, _) => repeat(&a),
        ("diff", _, _) => diff(&a),
        ("check-determinism", _, _) => check_determinism(&a),
        ("benchmark-json", _, _) => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        (other, _, _) => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
