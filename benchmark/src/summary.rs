//! `result.json` / `repeat.json` and what is computed over them: per-metric
//! median, quartiles and spread for `repeat`, and deltas against each bound
//! for `diff`. One format serves both files; a single run is a summary of one.

use crate::json::Json;
use crate::report::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use std::fmt::Write as _;

const SECTIONS: [&str; 2] = ["end_to_end", "per_layer"];

/// `(metric, unit, values over the runs)`.
type Series = (String, String, Vec<f64>);

/// One workload's metrics over the runs: `[end_to_end, per_layer]`, and every
/// run's outcome as written.
#[derive(Default)]
struct Workload {
    name: String,
    sections: [Vec<Series>; 2],
    outcomes: Vec<Json>,
}

/// Values of every metric of every workload over one or more runs.
pub struct Summary {
    pub runs: u64,
    seed: u64,
    seconds: f64,
    workloads: Vec<Workload>,
}

impl Summary {
    pub fn new(seed: u64, seconds: f64) -> Summary {
        Summary {
            runs: 0,
            seed,
            seconds,
            workloads: Vec::new(),
        }
    }

    /// Fold one run's outcome (as `Outcome::to_json` wrote it) in.
    pub fn add(&mut self, workload: &str, traced: bool, outcome: &Json) {
        let idx = match self.workloads.iter().position(|w| w.name == workload) {
            Some(i) => i,
            None => {
                self.workloads.push(Workload {
                    name: workload.to_string(),
                    ..Workload::default()
                });
                self.workloads.len() - 1
            }
        };
        let Workload {
            sections, outcomes, ..
        } = &mut self.workloads[idx];
        let section = &mut sections[traced as usize];
        for (name, m) in outcome
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            match section.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, values)) => values.push(value),
                None => {
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    section.push((name.clone(), unit.to_string(), vec![value]));
                }
            }
        }
        outcomes.push(outcome.clone());
    }

    pub fn to_json(&self) -> Json {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Json::obj([
            ("format", Json::str("brew-benchmark/1")),
            ("runs", Json::Num(self.runs as f64)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("nproc", Json::Num(nproc as f64)),
            (
                "workloads",
                Json::Obj(
                    self.workloads
                        .iter()
                        .map(
                            |Workload {
                                 name,
                                 sections,
                                 outcomes,
                             }| {
                                let mut w: Vec<(String, Json)> = SECTIONS
                                    .iter()
                                    .zip(sections)
                                    .map(|(key, metrics)| {
                                        let metrics = metrics.iter().map(|(n, unit, values)| {
                                            let values =
                                                values.iter().map(|v| Json::Num(*v)).collect();
                                            (
                                                n.clone(),
                                                Json::obj([
                                                    ("unit", Json::str(unit.clone())),
                                                    ("values", Json::Arr(values)),
                                                ]),
                                            )
                                        });
                                        (key.to_string(), Json::Obj(metrics.collect()))
                                    })
                                    .collect();
                                w.push(("outcomes".to_string(), Json::Arr(outcomes.clone())));
                                (name.clone(), Json::Obj(w))
                            },
                        )
                        .collect(),
                ),
            ),
        ])
    }

    /// `repeat`'s table: per workload and end-to-end metric, the median, the
    /// quartiles, the interquartile spread the driver computes and the
    /// largest relative distance of any run from the median.
    pub fn render_spreads(&self) -> String {
        let mut s = format!("== repeat: {} runs ==\n", self.runs);
        for Workload { name, sections, .. } in &self.workloads {
            writeln!(
                s,
                "{name}\n  {:<22} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}",
                "metric", "median", "q1", "q3", "spread", "max dev", "bound"
            )
            .expect("write to string");
            for (metric, unit, values) in &sections[0] {
                if values.len() < 2 {
                    continue;
                }
                let [q1, q2, q3] = quartiles(values);
                let dev = values
                    .iter()
                    .map(|v| {
                        if q2 == 0.0 {
                            0.0
                        } else {
                            ((v - q2) / q2).abs()
                        }
                    })
                    .fold(0.0, f64::max);
                let bound = END_TO_END
                    .iter()
                    .find(|m| m.name == metric)
                    .map(|m| m.bound);
                let sp = spread(values);
                // setup_s is gated on its median alone, not on its spread.
                let flag = match bound {
                    Some(b) if metric != "setup_s" && sp > b => "  OVER BOUND",
                    Some(b) if metric != "setup_s" && sp > b / 3.0 => "  over bound/3",
                    _ => "",
                };
                writeln!(
                    s,
                    "  {metric:<22} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>8.2}% {:>8.2}% {:>6.1}% {unit}{flag}",
                    sp * 100.0,
                    dev * 100.0,
                    bound.unwrap_or(0.0) * 100.0
                )
                .expect("write to string");
            }
        }
        s
    }
}

fn values_of(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative: better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one end-to-end metric: B against A under `bound`.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let worse = worse_by(median(a), median(b), better);
    // Where A's own runs spread wider than the bound the comparison cannot
    // resolve a change of that size — unless every B run beats every A run.
    if a.len() >= 2 && spread(a) > bound {
        let all_better = a
            .iter()
            .all(|x| b.iter().all(|y| worse_by(*x, *y, better) < 0.0));
        return if all_better { "improved" } else { "unresolved" };
    }
    if worse > bound {
        "REGRESSED"
    } else if worse < -bound {
        "improved"
    } else {
        "unchanged"
    }
}

/// Per-workload, per-metric deltas of B against A. Returns the table and
/// whether any end-to-end metric regressed beyond its bound.
pub fn diff(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .map(<[(String, Json)]>::to_vec)
            .ok_or("not a result.json / repeat.json")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut s = String::new();
    let mut regressed = false;
    for (name, left) in &wa {
        let Some((_, right)) = wb.iter().find(|(n, _)| n == name) else {
            writeln!(s, "{name}: only in A").expect("write to string");
            continue;
        };
        writeln!(
            s,
            "{name}\n  {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "A median", "B median", "worse by", "bound"
        )
        .expect("write to string");
        for section in SECTIONS {
            let (Some(la), Some(lb)) = (
                left.get(section).and_then(Json::as_obj),
                right.get(section).and_then(Json::as_obj),
            ) else {
                continue;
            };
            for (metric, ma) in la {
                let Some((_, mb)) = lb.iter().find(|(n, _)| n == metric) else {
                    continue;
                };
                let (va, vb) = (values_of(ma), values_of(mb));
                if va.is_empty() || vb.is_empty() {
                    continue;
                }
                let e2e = END_TO_END.iter().find(|m| m.name == metric);
                let better = e2e
                    .map(|m| m.better)
                    .or_else(|| PER_LAYER.iter().find(|m| m.0 == metric).map(|m| m.2));
                let Some(better) = better else { continue };
                let worse = worse_by(median(&va), median(&vb), better);
                let (bound, what) = match e2e {
                    Some(m) => (
                        format!("{:.1}%", m.bound * 100.0),
                        verdict(&va, &vb, better, m.bound),
                    ),
                    // Layer metrics explain a change; they gate nothing.
                    None => ("-".to_string(), ""),
                };
                regressed |= what == "REGRESSED";
                writeln!(
                    s,
                    "  {metric:<30} {:>14.4} {:>14.4} {:>+8.2}% {bound:>7}  {what}",
                    median(&va),
                    median(&vb),
                    worse * 100.0
                )
                .expect("write to string");
            }
        }
    }
    Ok((s, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(metrics: &[(&str, f64, &str)]) -> Json {
        Json::obj([(
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.to_string(),
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(*u))]),
                        )
                    })
                    .collect(),
            ),
        )])
    }

    fn summary(hit_ns: &[f64], code_bytes: f64) -> Json {
        let mut s = Summary::new(1, 8.0);
        for v in hit_ns {
            s.add(
                "serve-hit",
                false,
                &outcome(&[("hit_ns", *v, "ns"), ("code_bytes", code_bytes, "B")]),
            );
            s.runs += 1;
        }
        s.add(
            "serve-hit",
            true,
            &outcome(&[("manager.hit_p50_ns", 200.0, "ns")]),
        );
        // Through text, as the files are.
        Json::parse(&s.to_json().render()).unwrap()
    }

    #[test]
    fn summary_collects_values_per_metric() {
        let j = summary(&[240.0, 250.0, 245.0], 100.0);
        let w = j.get("workloads").and_then(|w| w.get("serve-hit")).unwrap();
        let hit = w.get("end_to_end").and_then(|e| e.get("hit_ns")).unwrap();
        assert_eq!(values_of(hit), vec![240.0, 250.0, 245.0]);
        assert_eq!(hit.get("unit").and_then(Json::as_str), Some("ns"));
        assert!(w
            .get("per_layer")
            .and_then(|p| p.get("manager.hit_p50_ns"))
            .is_some());
        assert_eq!(
            w.get("outcomes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
    }

    #[test]
    fn diff_marks_regressed_improved_and_unchanged() {
        let a = summary(&[240.0, 241.0, 242.0], 100.0);
        let (text, bad) = diff(&a, &summary(&[330.0, 331.0, 332.0], 100.0)).unwrap();
        assert!(bad && text.contains("REGRESSED"), "{text}");
        let (text, bad) = diff(&a, &summary(&[160.0, 161.0, 162.0], 100.0)).unwrap();
        assert!(!bad && text.contains("improved"), "{text}");
        let (text, bad) = diff(&a, &summary(&[243.0, 244.0, 245.0], 100.0)).unwrap();
        assert!(
            !bad && text.contains("unchanged") && !text.contains("REGRESSED"),
            "{text}"
        );
        // An exact metric regresses on a single byte.
        let (text, bad) = diff(&a, &summary(&[240.0, 241.0, 242.0], 101.0)).unwrap();
        assert!(bad, "{text}");
    }

    #[test]
    fn wide_a_side_spread_is_unresolved_not_unchanged() {
        // A's quartiles are ~40 % apart: a 25 % bound cannot be resolved.
        let a = summary(&[200.0, 240.0, 300.0, 330.0], 100.0);
        let (text, bad) = diff(&a, &summary(&[260.0, 270.0, 280.0, 290.0], 100.0)).unwrap();
        assert!(!bad && text.contains("unresolved"), "{text}");
        // ... unless every run of B beats every run of A.
        let (text, _) = diff(&a, &summary(&[100.0, 110.0, 120.0, 130.0], 100.0)).unwrap();
        assert!(
            text.contains("improved") && !text.contains("unresolved"),
            "{text}"
        );
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        assert!(worse_by(4.0, 3.0, Better::Higher) > 0.0);
        assert!(worse_by(4.0, 3.0, Better::Lower) < 0.0);
        assert_eq!(worse_by(0.0, 3.0, Better::Lower), 0.0);
    }

    #[test]
    fn repeat_table_flags_spread_against_the_bound() {
        let mut s = Summary::new(1, 8.0);
        for v in [100.0, 100.5, 101.0, 140.0, 160.0] {
            s.add(
                "serve-hit",
                false,
                &outcome(&[("hit_ns", v, "ns"), ("setup_s", v, "s")]),
            );
            s.runs += 1;
        }
        let text = s.render_spreads();
        let hit = text.lines().find(|l| l.contains("hit_ns")).unwrap();
        assert!(hit.contains("OVER BOUND"), "{text}");
        let setup = text.lines().find(|l| l.contains("setup_s")).unwrap();
        assert!(!setup.contains("OVER") && !setup.contains("over"), "{text}");
    }
}
