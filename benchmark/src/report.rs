//! The metric catalogue — every name, unit, direction and bound in one place
//! (`BENCHMARK.json` is generated from it and a test keeps the two equal) —
//! and the rendering of one run's outcome as text and JSON.

use crate::json::Json;
use crate::phases::Tally;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Wall-clock bounds are three times the widest interquartile spread two
/// `repeat 10` runs showed for the metric on any workload (README.md,
/// "Bounds"): the sandbox this was built on drifts by 5–10 % over minutes,
/// so every timing lands on the contract's cap.
const WALL: f64 = 0.25;
/// Peak RSS spread at most 4.9 %.
const RSS: f64 = 0.15;
/// Model-cycle and byte counts are deterministic and gate exactly (the
/// bound only absorbs float formatting).
const EXACT: f64 = 0.000001;

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// them, on its own keys.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Lower, WALL),
    e2e("cold_request_us", "us", Lower, WALL),
    e2e("cold_requests_per_s", "1/s", Higher, WALL),
    e2e("warm_entry_us", "us", Lower, WALL),
    e2e("breakeven_calls", "calls", Lower, WALL),
    e2e("spec_cycles_pct", "%", Lower, EXACT),
    e2e("code_bytes", "B", Lower, EXACT),
    e2e("hit_ns", "ns", Lower, WALL),
    e2e("serve_mrps_1t", "Mreq/s", Higher, WALL),
    e2e("serve_mrps_mt", "Mreq/s", Higher, WALL),
    e2e("publish_per_s", "1/s", Higher, WALL),
    e2e("guest_minst_per_s", "Minst/s", Higher, WALL),
    e2e("peak_rss_mb", "MB", Lower, RSS),
];

/// Metrics of single layers, from the traced run: `(name, unit, better)`.
/// The prefix is the layer (a crate or module of the repository).
pub const PER_LAYER: [(&str, &str, Better); 59] = [
    ("x86.decode_ns_per_inst", "ns", Lower),
    ("x86.encode_ns_per_inst", "ns", Lower),
    ("x86.decoded_insts", "count", Lower),
    ("image.read_u64_ns", "ns", Lower),
    ("image.write_u64_ns", "ns", Lower),
    ("image.code_window_ns", "ns", Lower),
    ("minic.compile_us", "us", Lower),
    ("minic.code_bytes", "B", Lower),
    ("emu.ns_per_guest_inst", "ns", Lower),
    ("emu.call_overhead_ns", "ns", Lower),
    ("emu.cycles_generic", "cycles", Lower),
    ("emu.cycles_spec", "cycles", Lower),
    ("emu.insts_generic", "count", Lower),
    ("emu.insts_spec", "count", Lower),
    ("core.rewrite_us", "us", Lower),
    ("core.passes_us", "us", Lower),
    ("core.emit_us", "us", Lower),
    ("core.trace_us", "us", Lower),
    ("core.traced_insts", "count", Lower),
    ("core.blocks", "count", Lower),
    ("core.migrations", "count", Lower),
    ("core.pass_removed", "count", Higher),
    ("core.trace_ns_per_guest_inst", "ns", Lower),
    ("core.elided_share", "ratio", Higher),
    ("core.pass_removed_share", "ratio", Higher),
    ("core.static_insts", "count", Lower),
    ("core.unroll_scaling", "ratio", Lower),
    ("verify.structural_us", "us", Lower),
    ("verify.equiv_us", "us", Lower),
    ("verify.gate_share", "ratio", Lower),
    ("verify.proved_share", "ratio", Higher),
    ("manager.miss_overhead_us", "us", Lower),
    ("manager.fingerprint_ns", "ns", Lower),
    ("manager.hit_p50_ns", "ns", Lower),
    ("manager.hit_p99_ns", "ns", Lower),
    ("manager.denied_ns", "ns", Lower),
    ("manager.invalidate_us", "us", Lower),
    ("manager.scaling_eff", "ratio", Higher),
    ("manager.hit_share", "ratio", Higher),
    ("manager.hits", "count", Higher),
    ("manager.misses", "count", Lower),
    ("manager.evictions", "count", Lower),
    ("manager.coalesced", "count", Lower),
    ("persist.save_us_per_entry", "us", Lower),
    ("persist.load_us_per_entry", "us", Lower),
    ("persist.bytes_per_entry", "B", Lower),
    ("persist.unportable_variants", "count", Lower),
    ("telemetry.flight_record_ns", "ns", Lower),
    ("telemetry.hit_delta_ns", "ns", Lower),
    ("guard.build_us", "us", Lower),
    ("guard.dispatch_cycles", "cycles", Lower),
    ("breakdown.trace_us", "us", Lower),
    ("breakdown.passes_us", "us", Lower),
    ("breakdown.emit_us", "us", Lower),
    ("breakdown.structural_us", "us", Lower),
    ("breakdown.equiv_us", "us", Lower),
    ("breakdown.manager_us", "us", Lower),
    ("bench.trace_overhead_pct", "%", Lower),
    ("bench.failed_share", "ratio", Lower),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> String {
    let metric = |name: &str, unit: &str, better: Better, bound: Option<f64>| {
        let mut m = vec![
            ("name".to_string(), Json::str(name)),
            ("unit".to_string(), Json::str(unit)),
            ("better".to_string(), Json::str(better.name())),
        ];
        m.extend(bound.map(|b| ("bound".to_string(), Json::Num(b))));
        Json::Obj(m)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let top = [
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(_, name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m.name, m.unit, m.better, Some(m.bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| metric(name, unit, *better, None))
                    .collect(),
            ),
        ),
    ];
    // One entry per line: the file is read by people too.
    let mut out = String::from("{\n");
    for (i, (key, value)) in top.iter().enumerate() {
        let sep = if i + 1 < top.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let s = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{s}\n", item.render()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{sep}\n", other.render())),
        }
    }
    out.push_str("}\n");
    out
}

/// One run of one workload in one mode.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    /// `(name, value)` for every metric of the mode's catalogue, in order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Report lines beside the metrics: latency tails, per-kernel rows, the
    /// breakdown table.
    pub notes: Vec<String>,
    /// The same detail, structured, for `result.json`.
    pub detail: Json,
    /// Traced runs: the chrome-trace JSON of every span recorded.
    pub trace_json: Option<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
        .1
}

impl Outcome {
    /// Outputs all correct: no probe, program or reader answer mismatched.
    pub fn correct(&self) -> bool {
        self.tally.mismatched == 0
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    (
                        name.to_string(),
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(unit_of(name))),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The driver's result line.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// Everything about the run, for `result.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", self.metrics_json()),
            ("detail", self.detail.clone()),
        ])
    }

    /// Every metric by name with its unit, then the notes.
    pub fn render_text(&self) -> String {
        let mode = if self.traced { "traced" } else { "untraced" };
        let mut s = format!("== {} ({mode}) ==\n", self.workload);
        for (name, value) in &self.metrics {
            s.push_str(&format!("{name:<32} {value:>16.4} {}\n", unit_of(name)));
        }
        let share = self.tally.failed as f64 / self.tally.attempted.max(1) as f64;
        s.push_str(&format!(
            "{:<32} {share:>16.6} ratio   ({} failed of {} attempted, {} output mismatches)\n",
            "failed_share", self.tally.failed, self.tally.attempted, self.tally.mismatched
        ));
        for n in &self.notes {
            s.push_str(n);
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.1))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.1)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.2.len() <= 200 && !w.2.contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=16).contains(&END_TO_END.len()) && PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_is_generated_from_the_catalogue() {
        let text = benchmark_json();
        assert!(text.len() < 64 * 1024);
        let v = Json::parse(&text).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let e2e = v.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for m in e2e {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
        }
        for m in v.get("per_layer").and_then(Json::as_arr).unwrap() {
            assert_eq!(m.as_obj().unwrap().len(), 3);
        }
        // The committed file, when the checkout has one, is this text.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        if let Ok(committed) = std::fs::read_to_string(root) {
            assert_eq!(committed, text, "regenerate with `-- benchmark-json`");
        }
    }

    #[test]
    fn result_line_is_well_formed() {
        let o = Outcome {
            workload: "serve-hit",
            traced: false,
            tally: Tally {
                attempted: 10,
                failed: 1,
                mismatched: 0,
            },
            metrics: vec![("hit_ns", 241.5), ("setup_s", 0.25)],
            notes: vec![],
            detail: Json::Null,
            trace_json: None,
        };
        let v = Json::parse(&o.result_line()).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("failed").and_then(Json::as_f64), Some(1.0));
        let m = v.get("metrics").unwrap();
        for (name, metric) in m.as_obj().unwrap() {
            assert!(valid_name(name));
            assert!(metric.get("value").and_then(Json::as_f64).is_some());
            assert!(valid_unit(
                metric.get("unit").and_then(Json::as_str).unwrap()
            ));
        }
        assert_eq!(
            m.get("hit_ns")
                .and_then(|h| h.get("unit"))
                .and_then(Json::as_str),
            Some("ns")
        );
        assert!(o.render_text().contains("failed_share"));
    }
}
