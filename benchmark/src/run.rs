//! One run of one workload: set-up, then laps over the life cycle's phases
//! with the wall budget on the workload's own phase, output checks, and the
//! metrics.

use crate::json::Json;
use crate::kernels::observe;
use crate::layers::{self, Decomp};
use crate::phases::{
    churn_slice, cold_slice, hit_slice, run_slice, variants_of, ColdAcc, Counters, HitAcc, RunAcc,
    Tally, Trace, VariantInfo, WarmAcc,
};
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::{latency, median, percentile, quiet_high, quiet_low, sort, Latency};
use crate::workloads::{setup, sources, threads, Env, Kind, Pool, Slot};
use brew_emu::Machine;
use std::time::{Duration, Instant};

/// Nominal clock of the paper's host (2.7 GHz i7-3740QM), in cycles per µs:
/// converts the wall-clock cost of a rewrite into model cycles for the
/// break-even count.
const PAPER_CYCLES_PER_US: f64 = 2700.0;

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// `--seconds`: the wall budget of the workload's own phase.
    pub seconds: f64,
    pub traced: bool,
    /// CI smoke mode: one set-up, one lap, minimal side phases.
    pub smoke: bool,
}

impl Plan {
    /// Laps per run: every phase gets one slice a lap.
    fn laps(&self) -> usize {
        if self.smoke {
            1
        } else {
            10
        }
    }

    /// Seconds of the own phase that are traced in a traced run (3 of the
    /// default 8); another eighth runs untraced, as the reference the
    /// tracing overhead is measured against.
    fn own(&self) -> f64 {
        if self.traced {
            self.seconds * 3.0 / 8.0
        } else {
            self.seconds
        }
    }

    fn reference(&self) -> f64 {
        self.seconds / 8.0
    }

    /// Seconds of each phase that is not the workload's own.
    fn side(&self) -> f64 {
        if self.smoke {
            0.02
        } else {
            3.0
        }
    }

    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// `(rounds, slice)` of the telemetry on/off comparison.
    fn telemetry_probe(&self) -> (usize, Duration) {
        if self.smoke {
            (2, Duration::from_millis(10))
        } else {
            (8, Duration::from_millis(100))
        }
    }

    /// Warm-start loads per lap.
    fn warm_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            6
        }
    }
}

/// Seconds per lap of each phase; zero skips the phase.
#[derive(Debug, Clone, Copy, Default)]
struct Slices {
    cold: f64,
    hit1: f64,
    hit_mt: f64,
    run: f64,
}

impl Slices {
    /// The whole life cycle: `own` seconds on the workload's phase (the two
    /// hit phases of `serve-hit` share it), `side` on each other one.
    fn of(kind: Kind, own: f64, side: f64) -> Slices {
        let pick = |is_own: bool, share: f64| if is_own { own * share } else { side };
        Slices {
            cold: pick(
                matches!(kind, Kind::CorpusCold | Kind::UnrollCold | Kind::ServeChurn),
                1.0,
            ),
            // The churn reader runs inside the cold slice.
            hit1: if kind == Kind::ServeChurn {
                0.0
            } else {
                pick(kind == Kind::ServeHit, 0.5)
            },
            hit_mt: pick(kind == Kind::ServeHit, 0.5),
            run: pick(kind == Kind::RunKernels, 1.0),
        }
    }

    /// The own phase alone, for the untraced reference of a traced run.
    fn own_only(kind: Kind, own: f64) -> Slices {
        Slices {
            hit_mt: 0.0,
            ..Slices::of(kind, own, 0.0)
        }
    }

    fn per_lap(self, laps: usize) -> Slices {
        let n = laps as f64;
        Slices {
            cold: self.cold / n,
            hit1: self.hit1 / n,
            hit_mt: self.hit_mt / n,
            run: self.run / n,
        }
    }
}

/// The accumulators of one pass over the life cycle.
struct Accs<'e> {
    cold: ColdAcc<'e>,
    hit1: HitAcc,
    hit_mt: HitAcc,
    run: RunAcc,
    tally: Tally,
}

impl<'e> Accs<'e> {
    fn new(env: &'e Env) -> Self {
        Accs {
            cold: ColdAcc::new(env),
            hit1: HitAcc::default(),
            hit_mt: HitAcc::default(),
            run: RunAcc::default(),
            tally: Tally::default(),
        }
    }

    /// Manager counters over the workload's own phase.
    fn own_counters(&self, kind: Kind) -> Counters {
        match kind {
            Kind::CorpusCold | Kind::UnrollCold | Kind::ServeChurn => self.cold.counters,
            Kind::ServeHit => {
                let mut c = self.hit1.counters;
                c.merge(&self.hit_mt.counters);
                c
            }
            Kind::RunKernels => self.run.counters,
        }
    }

    /// The workload's headline number (what the trace overhead is measured
    /// on): a latency, or for `run-kernels` a rate.
    fn headline(&self, kind: Kind) -> f64 {
        match kind {
            Kind::CorpusCold | Kind::UnrollCold => quiet_low(&self.cold.latency_us),
            Kind::ServeHit | Kind::ServeChurn => quiet_low(&self.hit1.ns),
            Kind::RunKernels => quiet_high(&self.run.minst_per_s),
        }
    }

    fn total(&self) -> Tally {
        let mut t = self.tally;
        t.merge(self.cold.tally);
        t.merge(self.hit1.tally());
        t.merge(self.hit_mt.tally());
        t.merge(self.run.tally);
        t
    }
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// One lap: a slice of every phase `s` gives time to, in life-cycle order.
fn lap(
    env: &Env,
    slot: &mut Slot,
    pool: &mut Pool,
    a: &mut Accs<'_>,
    s: &Slices,
    mut trace: Option<&mut Trace>,
) {
    let per_call = trace.is_some();
    if env.kind == Kind::ServeChurn {
        if s.cold > 0.0 {
            let t = churn_slice(
                &mut a.cold,
                &mut a.hit1,
                slot,
                pool,
                secs(s.cold),
                trace.as_deref_mut(),
            );
            a.tally.merge(t);
        }
    } else {
        if s.cold > 0.0 {
            cold_slice(&mut a.cold, slot, pool, secs(s.cold), trace.as_deref_mut());
        }
        if s.hit1 > 0.0 {
            let t = hit_slice(&mut a.hit1, env, slot, 1, secs(s.hit1), per_call);
            a.tally.merge(t);
        }
    }
    if s.hit_mt > 0.0 {
        let t = hit_slice(&mut a.hit_mt, env, slot, env.threads, secs(s.hit_mt), false);
        a.tally.merge(t);
    }
    if s.run > 0.0 {
        run_slice(&mut a.run, env, slot, secs(s.run), trace);
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn lat_note(name: &str, unit: &str, l: &Latency, slices: &[f64]) -> String {
    let tail = l
        .tail
        .map_or(String::new(), |(p, v)| format!(", p{p} = {v:.2} {unit}"));
    format!(
        "  {name}: quiet quartile of {} slices (median slice {:.2} {unit}); all {} samples: p50 = {:.2} {unit}{tail}",
        slices.len(),
        median(slices),
        l.samples,
        l.p50
    )
}

fn per_slice(v: &[f64]) -> String {
    v.iter()
        .map(|r| format!("{r:.2}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Generic minus specialized model cycles of one call of key `k`.
fn cycle_saving(env: &Env, slot: &Slot, variants: &[Option<VariantInfo>], k: usize) -> Option<f64> {
    let c = &env.keys[k].cycle_call;
    let mut m = Machine::new();
    let generic = observe(&slot.world.img, &mut m, c.entry, c).ok()?.1.cycles;
    let entry = variants.get(k)?.as_ref()?.entry;
    let spec = observe(&slot.world.img, &mut m, entry, c).ok()?.1.cycles;
    Some(generic as f64 - spec as f64)
}

/// Per-key p50s of the traced decomposition, and what they average to.
struct Breakdown {
    /// `(label, [request, trace, passes, emit, structural, equiv])` in µs.
    rows: Vec<(String, [f64; 6])>,
    /// Mean over keys of each column.
    mean: [f64; 6],
    proved: f64,
}

fn breakdown(env: &Env, cold: &ColdAcc<'_>) -> Breakdown {
    let p50 =
        |d: &[Decomp], f: fn(&Decomp) -> f64| latency(&d.iter().map(f).collect::<Vec<_>>()).p50;
    let mut rows = Vec::new();
    let (mut passed, mut total) = (0usize, 0usize);
    for k in 0..env.keys.len() {
        let d = &cold.decomp[k];
        if d.is_empty() || cold.samples[k].is_empty() {
            continue;
        }
        passed += d.iter().filter(|d| d.passed).count();
        total += d.len();
        rows.push((
            env.keys[k].label.clone(),
            [
                latency(&cold.samples[k]).p50,
                p50(d, Decomp::trace_us),
                p50(d, |d| d.passes_us),
                p50(d, |d| d.emit_us),
                p50(d, |d| d.structural_us),
                p50(d, Decomp::equiv_us),
            ],
        ));
    }
    let mut mean = [0.0; 6];
    for (i, m) in mean.iter_mut().enumerate() {
        *m = rows.iter().map(|r| r.1[i]).sum::<f64>() / rows.len().max(1) as f64;
    }
    Breakdown {
        rows,
        mean,
        proved: passed as f64 / total.max(1) as f64,
    }
}

fn geomean_pct(run: &RunAcc) -> f64 {
    let ratios: Vec<f64> = run
        .rows
        .iter()
        .filter(|(p, g, _)| p.specialized && g.cycles > 0)
        .map(|(_, g, o)| o.cycles as f64 / g.cycles as f64)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp() * 100.0
}

pub fn run_one(kind: Kind, seed: u64, plan: Plan) -> Outcome {
    // ---- set-up: several times, the last one kept ---------------------------
    let readers = threads();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..plan.setup_reps() {
        let t = Instant::now();
        built = Some(setup(kind, seed, readers));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (env, mut pool) = built.expect("at least one set-up");
    let mut slot = pool.take(&env);

    // ---- the laps ---------------------------------------------------------------
    let laps = plan.laps();
    let mut trace = plan.traced.then(Trace::new);
    let mut a = Accs::new(&env);
    // A traced run measures its own phase a second time, untraced.
    let mut reference = Accs::new(&env);
    let full = Slices::of(kind, plan.own(), plan.side()).per_lap(laps);
    let own_only = Slices::own_only(kind, plan.reference()).per_lap(laps);
    let mut warm: Option<WarmAcc> = None;
    for _ in 0..laps {
        lap(&env, &mut slot, &mut pool, &mut a, &full, trace.as_mut());
        if plan.traced {
            lap(&env, &mut slot, &mut pool, &mut reference, &own_only, None);
        }
        // Checkpoint what the first cold slice left resident; warm-start it
        // a couple of times every lap.
        let w = warm.get_or_insert_with(|| {
            let resident = if kind == Kind::ServeChurn {
                &env.hot
            } else {
                &env.cold
            };
            WarmAcc::checkpoint(&env, &slot, resident, trace.as_mut())
        });
        w.load(&env, plan.warm_reps(), trace.as_mut());
    }
    let warm = warm.expect("at least one lap");
    let mut tally = a.total();
    tally.merge(reference.total());
    tally.merge(warm.tally);
    let variants = &a.run.variants;
    let own = a.own_counters(kind);
    let mut notes = Vec::new();

    // ---- end to end -------------------------------------------------------------
    let all_of = |keys: &[usize]| -> Vec<f64> {
        keys.iter()
            .flat_map(|&k| a.cold.samples[k].iter().copied())
            .collect()
    };
    let cold_lat = latency(&all_of(&env.latency));
    let hit_lat = latency(&a.hit1.batch_ns);
    let warm_lat = latency(&warm.samples);
    let savings: Vec<f64> = env
        .breakeven
        .iter()
        .filter_map(|&k| cycle_saving(&env, &slot, variants, k))
        .collect();
    tally.attempted += 1;
    let breakeven = if savings.len() == env.breakeven.len() && mean(&savings) > 0.0 {
        quiet_low(&a.cold.breakeven_us) * PAPER_CYCLES_PER_US / mean(&savings)
    } else {
        tally.failed += 1;
        0.0
    };
    let code_bytes: usize = variants.iter().flatten().map(|v| v.code_len).sum();
    let value = |name: &str| match name {
        "setup_s" => median(&setups),
        "cold_request_us" => quiet_low(&a.cold.latency_us),
        "cold_requests_per_s" => quiet_high(&a.cold.rates),
        "warm_entry_us" => quiet_low(&warm.per_entry_us),
        "breakeven_calls" => breakeven,
        "spec_cycles_pct" => geomean_pct(&a.run),
        "code_bytes" => code_bytes as f64,
        "hit_ns" => quiet_low(&a.hit1.ns),
        "serve_mrps_1t" => quiet_high(&a.hit1.mrps),
        "serve_mrps_mt" => quiet_high(&a.hit_mt.mrps),
        "publish_per_s" => quiet_high(&a.cold.work_rates),
        "guest_minst_per_s" => quiet_high(&a.run.minst_per_s),
        "peak_rss_mb" => peak_rss_mb(),
        other => panic!("no value for end-to-end metric `{other}`"),
    };
    let e2e: Vec<(&'static str, f64)> =
        END_TO_END.iter().map(|m| (m.name, value(m.name))).collect();

    notes.push(format!(
        "host: nproc = {}, reader threads T = {}, seed = {seed}, {laps} laps, own phase {:.2} s",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        env.threads,
        plan.own()
    ));
    notes.push(lat_note(
        "cold_request_us",
        "us",
        &cold_lat,
        &a.cold.latency_us,
    ));
    notes.push(lat_note("hit_ns", "ns", &hit_lat, &a.hit1.ns));
    notes.push(lat_note(
        "warm_entry_us",
        "us",
        &warm_lat,
        &warm.per_entry_us,
    ));
    notes.push(format!(
        "  cold requests/s per slice: {}",
        per_slice(&a.cold.rates)
    ));
    notes.push(format!(
        "  Mreq/s per slice, 1 reader: {}",
        per_slice(&a.hit1.mrps)
    ));
    notes.push(format!(
        "  Mreq/s per slice, {} readers: {}",
        env.threads,
        per_slice(&a.hit_mt.mrps)
    ));
    notes.push(format!(
        "  guest Minst/s per slice: {}",
        per_slice(&a.run.minst_per_s)
    ));
    notes.push(format!(
        "  {} worlds used; own-phase manager counters: {} hits, {} misses, {} evictions",
        a.cold.slots.max(reference.cold.slots),
        own.hits,
        own.misses,
        own.evictions
    ));

    // ---- per-kernel rows (rewrote / verified / identical / size / time) -----------
    let few = env.keys.len() <= 16;
    if few {
        notes.push(format!(
            "  {:<28} {:>8} {:>9} {:>10} {:>7} {:>7} {:>8} {:>11}",
            "kernel", "rewrote", "verified", "identical", "bytes", "insts", "traced", "cold p50 us"
        ));
    }
    let mut kernel_rows = Vec::new();
    let mut identical_all = 0;
    for (k, key) in env.keys.iter().enumerate() {
        let v = variants.get(k).copied().flatten();
        let insts = v.map_or(0, |v| {
            layers::static_insts(&slot.world.img, v.entry, v.code_len)
        });
        let cold_p50 = latency(&a.cold.samples[k]).p50;
        // Managers are gated: a published variant passed both tiers.
        let (rewrote, verified) = (v.is_some(), v.is_some());
        let identical = v.is_some() && !a.cold.mismatch[k];
        identical_all += identical as usize;
        if few {
            notes.push(format!(
                "  {:<28} {:>8} {:>9} {:>10} {:>7} {:>7} {:>8} {:>11.1}",
                key.label,
                rewrote,
                verified,
                identical,
                v.map_or(0, |v| v.code_len),
                insts,
                v.map_or(0, |v| v.stats.traced),
                cold_p50
            ));
        }
        kernel_rows.push(Json::obj([
            ("kernel", Json::str(key.label.clone())),
            ("rewrote", Json::Bool(rewrote)),
            ("verified", Json::Bool(verified)),
            ("identical", Json::Bool(identical)),
            ("bytes", Json::Num(v.map_or(0, |v| v.code_len) as f64)),
            ("static_insts", Json::Num(insts as f64)),
            (
                "traced_insts",
                Json::Num(v.map_or(0, |v| v.stats.traced) as f64),
            ),
            ("cold_p50_us", Json::Num(cold_p50)),
        ]));
    }
    if !few {
        notes.push(format!(
            "  {} kernels: {identical_all} rewrote, verified and ran identically (rows in the run's JSON)",
            env.keys.len()
        ));
    }
    let few = a.run.rows.len() <= 16;
    if few {
        notes.push(format!(
            "  {:<28} {:>14} {:>14} {:>8}",
            "program", "generic cycles", "other cycles", "pct"
        ));
    } else {
        notes.push(format!(
            "  {} programs: generic against specialized cycles (rows in the run's JSON)",
            a.run.rows.len()
        ));
    }
    let mut program_rows = Vec::new();
    for (prog, g, o) in &a.run.rows {
        let pct = o.cycles as f64 / g.cycles.max(1) as f64 * 100.0;
        if few {
            notes.push(format!(
                "  {:<28} {:>14} {:>14} {:>7.2}%{}",
                prog.label,
                g.cycles,
                o.cycles,
                pct,
                if prog.specialized {
                    ""
                } else {
                    "  (hand-written)"
                }
            ));
        }
        program_rows.push(Json::obj([
            ("program", Json::str(prog.label.clone())),
            ("specialized", Json::Bool(prog.specialized)),
            ("cycles_generic", Json::Num(g.cycles as f64)),
            ("cycles_other", Json::Num(o.cycles as f64)),
            ("insts_generic", Json::Num(g.insts as f64)),
            ("insts_other", Json::Num(o.insts as f64)),
            ("pct", Json::Num(pct)),
        ]));
    }
    let slices = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    let mut detail = vec![
        ("seed".to_string(), Json::Num(seed as f64)),
        ("threads".to_string(), Json::Num(env.threads as f64)),
        ("laps".to_string(), Json::Num(laps as f64)),
        (
            "slices".to_string(),
            Json::obj([
                ("cold_request_us", slices(&a.cold.latency_us)),
                ("cold_requests_per_s", slices(&a.cold.rates)),
                ("publish_per_s", slices(&a.cold.work_rates)),
                ("warm_entry_us", slices(&warm.per_entry_us)),
                ("hit_ns", slices(&a.hit1.ns)),
                ("serve_mrps_1t", slices(&a.hit1.mrps)),
                ("serve_mrps_mt", slices(&a.hit_mt.mrps)),
                ("guest_minst_per_s", slices(&a.run.minst_per_s)),
            ]),
        ),
        ("kernels".to_string(), Json::Arr(kernel_rows)),
        ("programs".to_string(), Json::Arr(program_rows)),
    ];

    // ---- per layer (traced) ---------------------------------------------------------
    let metrics = match trace.as_mut() {
        None => e2e,
        Some(tr) => {
            detail.push((
                "end_to_end_traced".to_string(),
                Json::Obj(
                    e2e.iter()
                        .map(|(n, v)| (n.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ));
            let ctx = Layers {
                kind,
                seed,
                env: &env,
                slot: &slot,
                a: &a,
                warm: &warm,
                own,
                headline: (a.headline(kind), reference.headline(kind)),
                telemetry_probe: plan.telemetry_probe(),
                failed_share: tally.failed as f64 / tally.attempted.max(1) as f64,
            };
            ctx.metrics(tr, &mut notes, &mut detail)
        }
    };
    let trace_json = trace.as_ref().map(|t| t.rec.chrome_json());
    Outcome {
        workload: kind.name(),
        traced: plan.traced,
        tally,
        metrics,
        notes,
        detail: Json::Obj(detail),
        trace_json,
    }
}

/// What the per-layer metrics are computed from.
struct Layers<'a> {
    kind: Kind,
    seed: u64,
    env: &'a Env,
    slot: &'a Slot,
    a: &'a Accs<'a>,
    warm: &'a WarmAcc,
    own: Counters,
    /// The workload's headline number, traced and untraced.
    headline: (f64, f64),
    telemetry_probe: (usize, Duration),
    failed_share: f64,
}

impl Layers<'_> {
    fn metrics(
        &self,
        tr: &mut Trace,
        notes: &mut Vec<String>,
        detail: &mut Vec<(String, Json)>,
    ) -> Vec<(&'static str, f64)> {
        let (kind, env, slot, a) = (self.kind, self.env, self.slot, self.a);
        let rec = &mut tr.rec;
        let b = breakdown(env, &a.cold);
        let [request, trace_us, passes, emit, structural, equiv] = b.mean;
        let rewrite = trace_us + passes + emit;
        let gate = structural + equiv;
        let manager = request - rewrite - gate;

        // The table whose rows sum to `cold_request_us`: each stage's share
        // of the mean request, scaled to the headline number.
        let cold_us = quiet_low(&a.cold.latency_us);
        let scale = if request > 0.0 {
            cold_us / request
        } else {
            0.0
        };
        let table = [
            ("trace", trace_us),
            ("passes", passes),
            ("emit", emit),
            ("structural", structural),
            ("equiv", equiv),
            ("manager", manager),
        ];
        notes.push(format!(
            "  cold request breakdown (rows sum to cold_request_us = {cold_us:.1} us):"
        ));
        for (name, v) in table {
            notes.push(format!(
                "    {name:<12} {:>10.1} us  {:>5.1} %",
                v * scale,
                if request > 0.0 {
                    v / request * 100.0
                } else {
                    0.0
                }
            ));
        }
        if manager < 0.0 || manager > 0.25 * request {
            notes.push(format!(
                "    FLAG: manager residual {manager:.1} us is outside 0..25 % of the request ({request:.1} us)"
            ));
        }
        if b.rows.len() <= 16 {
            notes.push(format!(
                "  {:<28} {:>9} {:>9} {:>8} {:>8} {:>10} {:>9}",
                "kernel (p50 us)", "request", "trace", "passes", "emit", "structural", "equiv"
            ));
        }
        let mut rows = Vec::new();
        for (label, r) in &b.rows {
            if b.rows.len() <= 16 {
                notes.push(format!(
                    "  {label:<28} {:>9.1} {:>9.1} {:>8.1} {:>8.1} {:>10.1} {:>9.1}",
                    r[0], r[1], r[2], r[3], r[4], r[5]
                ));
            }
            rows.push(Json::obj([
                ("kernel", Json::str(label.clone())),
                ("request_us", Json::Num(r[0])),
                ("trace_us", Json::Num(r[1])),
                ("passes_us", Json::Num(r[2])),
                ("emit_us", Json::Num(r[3])),
                ("structural_us", Json::Num(r[4])),
                ("equiv_us", Json::Num(r[5])),
            ]));
        }
        detail.push(("breakdown".to_string(), Json::Arr(rows)));

        let variants = &a.run.variants;
        let cold_variants = || {
            env.cold
                .iter()
                .filter_map(|&k| variants.get(k).copied().flatten())
        };
        let sum = |f: fn(&VariantInfo) -> u64| cold_variants().map(|v| f(&v)).sum::<u64>() as f64;
        let traced = sum(|v| v.stats.traced);
        let static_insts: u64 = cold_variants()
            .map(|v| layers::static_insts(&slot.world.img, v.entry, v.code_len))
            .sum();
        // The two unrolled sweeps: cold time ratio over traced-instruction
        // ratio (1.0 = linear in the trace).
        let unroll_scaling = if kind == Kind::UnrollCold && b.rows.len() >= 2 {
            let t = |k: usize| variants[k].map_or(1, |v| v.stats.traced.max(1)) as f64;
            (b.rows[0].1[0] / b.rows[1].1[0]) / (t(0) / t(1))
        } else {
            0.0
        };

        let (decode_ns, encode_ns, decoded) = layers::x86_probe(&slot.world, rec);
        let (compile_us, minic_bytes) = layers::minic_probe(sources(kind), rec);
        let call_ns = layers::call_overhead_ns(rec);
        let fingerprint_ns = layers::fingerprint_ns(&env.keys, rec);
        let denied_ns = layers::denied_ns(&slot.world, &env.keys[env.cold[0]], rec);
        let flight_ns = layers::flight_record_ns(rec);
        let (guard_us, guard_cycles) = layers::guard_probe(rec);

        // What visibility costs per hit: the same reader with the metrics
        // registry and the flight recorder on, then off, alternating.
        let mut on_off = [HitAcc::default(), HitAcc::default()];
        let (rounds, slice) = self.telemetry_probe;
        for round in 0..rounds {
            let on = round % 2 == 0;
            layers::set_telemetry(&slot.mgr, on);
            let acc = &mut on_off[!on as usize];
            hit_slice(acc, env, slot, 1, slice, false);
        }
        layers::set_telemetry(&slot.mgr, true);
        let hit_delta = quiet_low(&on_off[0].ns) - quiet_low(&on_off[1].ns);

        // Last: it allocates a scratch heap region in the slot's world.
        let (read_ns, write_ns, window_ns) = layers::image_probe(&slot.world, self.seed, rec);

        let mut calls: Vec<f64> = a.hit1.calls_ns.iter().map(|&n| n as f64).collect();
        sort(&mut calls);
        let minst = quiet_high(&a.run.minst_per_s);
        let side = |spec: bool| {
            a.run
                .rows
                .iter()
                .filter(|(prog, _, _)| prog.specialized)
                .map(|(_, g, o)| if spec { *o } else { *g })
                .fold((0u64, 0u64), |acc, c| (acc.0 + c.cycles, acc.1 + c.insts))
        };
        let own = self.own;
        let requests = (own.hits + own.misses).max(1) as f64;
        let entries = self.warm.entries.max(1) as f64;
        let (traced_headline, reference) = self.headline;

        let value = |name: &str| -> f64 {
            match name {
                "x86.decode_ns_per_inst" => decode_ns,
                "x86.encode_ns_per_inst" => encode_ns,
                "x86.decoded_insts" => decoded,
                "image.read_u64_ns" => read_ns,
                "image.write_u64_ns" => write_ns,
                "image.code_window_ns" => window_ns,
                "minic.compile_us" => compile_us,
                "minic.code_bytes" => minic_bytes,
                "emu.ns_per_guest_inst" => {
                    if minst > 0.0 {
                        1000.0 / minst
                    } else {
                        0.0
                    }
                }
                "emu.call_overhead_ns" => call_ns,
                "emu.cycles_generic" => side(false).0 as f64,
                "emu.cycles_spec" => side(true).0 as f64,
                "emu.insts_generic" => side(false).1 as f64,
                "emu.insts_spec" => side(true).1 as f64,
                "core.rewrite_us" => rewrite,
                "core.passes_us" => passes,
                "core.emit_us" => emit,
                "core.trace_us" => trace_us,
                "core.traced_insts" => traced,
                "core.blocks" => sum(|v| v.stats.blocks),
                "core.migrations" => sum(|v| v.stats.migrations),
                "core.pass_removed" => sum(|v| v.stats.pass_removed),
                "core.trace_ns_per_guest_inst" => {
                    // Per request, averaged over keys like `trace_us` is.
                    trace_us * 1000.0 / (traced / b.rows.len().max(1) as f64).max(1.0)
                }
                "core.elided_share" => sum(|v| v.stats.elided) / traced.max(1.0),
                "core.pass_removed_share" => {
                    sum(|v| v.stats.pass_removed) / sum(|v| v.stats.emitted).max(1.0)
                }
                "core.static_insts" => static_insts as f64,
                "core.unroll_scaling" => unroll_scaling,
                "verify.structural_us" => structural,
                "verify.equiv_us" => equiv,
                "verify.gate_share" => {
                    if request > 0.0 {
                        gate / request
                    } else {
                        0.0
                    }
                }
                "verify.proved_share" => b.proved,
                "manager.miss_overhead_us" => manager,
                "manager.fingerprint_ns" => fingerprint_ns,
                "manager.hit_p50_ns" => percentile(&calls, 50.0),
                "manager.hit_p99_ns" => percentile(&calls, 99.0),
                "manager.denied_ns" => denied_ns,
                "manager.invalidate_us" => latency(&a.cold.invalidate_us).p50,
                "manager.scaling_eff" => {
                    quiet_high(&a.hit_mt.mrps)
                        / (env.threads as f64 * quiet_high(&a.hit1.mrps)).max(f64::MIN_POSITIVE)
                }
                "manager.hit_share" => own.hits as f64 / requests,
                "manager.hits" => own.hits as f64,
                "manager.misses" => own.misses as f64,
                "manager.evictions" => own.evictions as f64,
                "manager.coalesced" => own.coalesced as f64,
                "persist.save_us_per_entry" => median(&self.warm.save_us),
                "persist.load_us_per_entry" => quiet_low(&self.warm.ungated_us),
                "persist.bytes_per_entry" => self.warm.bytes() as f64 / entries,
                "persist.unportable_variants" => self.warm.unportable as f64,
                "telemetry.flight_record_ns" => flight_ns,
                "telemetry.hit_delta_ns" => hit_delta,
                "guard.build_us" => guard_us,
                "guard.dispatch_cycles" => guard_cycles,
                "breakdown.trace_us" => trace_us * scale,
                "breakdown.passes_us" => passes * scale,
                "breakdown.emit_us" => emit * scale,
                "breakdown.structural_us" => structural * scale,
                "breakdown.equiv_us" => equiv * scale,
                "breakdown.manager_us" => manager * scale,
                "bench.trace_overhead_pct" => {
                    // A rate reads higher when better; flip it so that
                    // overhead is positive either way.
                    let sign = if kind == Kind::RunKernels { -1.0 } else { 1.0 };
                    if reference > 0.0 {
                        sign * (traced_headline - reference) / reference * 100.0
                    } else {
                        0.0
                    }
                }
                "bench.failed_share" => self.failed_share,
                other => panic!("no value for per-layer metric `{other}`"),
            }
        };
        let out: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|m| (m.0, value(m.0))).collect();

        notes.push(format!(
            "  manager.scaling_eff = {:.3} with T = {} readers on {} cores",
            value("manager.scaling_eff"),
            env.threads,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ));
        notes.push(format!(
            "  trace overhead: headline {traced_headline:.3} traced vs {reference:.3} untraced; {} spans recorded, {} dropped",
            rec.spans().len(),
            rec.dropped()
        ));
        notes.push("  span self time by name (ms):".to_string());
        for (name, t) in rec.totals() {
            notes.push(format!(
                "    {name:<26} n = {:>7}  total {:>10.2}  self {:>10.2}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        out
    }
}

/// The deterministic section: emitted sizes, traced and static instruction
/// counts, model cycles per program and the dispatch stub's cost. None of it
/// may depend on the seed — the seed only picks probe data.
pub fn deterministic(kind: Kind, seed: u64) -> Json {
    let (env, mut pool) = setup(kind, seed, 1);
    let mut slot = pool.take(&env);
    let mut cold = ColdAcc::new(&env);
    cold_slice(&mut cold, &mut slot, &mut pool, Duration::ZERO, None);
    let mut run = RunAcc::default();
    run_slice(&mut run, &env, &slot, Duration::ZERO, None);
    let (_, guard_cycles) = layers::guard_probe(&mut crate::span::Recorder::new(0));
    let kernels = env
        .keys
        .iter()
        .zip(&run.variants)
        .map(|(key, v)| {
            let insts = v.map_or(0, |v| {
                layers::static_insts(&slot.world.img, v.entry, v.code_len)
            });
            Json::obj([
                ("kernel", Json::str(key.label.clone())),
                ("code_bytes", Json::Num(v.map_or(0, |v| v.code_len) as f64)),
                (
                    "core.traced_insts",
                    Json::Num(v.map_or(0, |v| v.stats.traced) as f64),
                ),
                ("core.static_insts", Json::Num(insts as f64)),
            ])
        })
        .collect();
    let programs = run
        .rows
        .iter()
        .map(|(p, g, o)| {
            Json::obj([
                ("program", Json::str(p.label.clone())),
                ("cycles_generic", Json::Num(g.cycles as f64)),
                ("cycles_other", Json::Num(o.cycles as f64)),
            ])
        })
        .collect();
    let (_, again) = variants_of(&env, &slot, &env.cold);
    let failed = cold.tally.failed + run.tally.failed + again.failed;
    let code_bytes: usize = run.variants.iter().flatten().map(|v| v.code_len).sum();
    Json::obj([
        ("workload", Json::str(kind.name())),
        ("failed", Json::Num(failed as f64)),
        ("code_bytes", Json::Num(code_bytes as f64)),
        ("spec_cycles_pct", Json::Num(geomean_pct(&run))),
        ("guard.dispatch_cycles", Json::Num(guard_cycles)),
        ("kernels", Json::Arr(kernels)),
        ("programs", Json::Arr(programs)),
    ])
}
