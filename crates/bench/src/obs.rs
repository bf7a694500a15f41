//! OBS: end-to-end telemetry over a real run — the always-on metrics
//! registry fed by the specialization manager, guard hit/fall-through
//! rates read back from a self-counting dispatch stub, the overhead of
//! that counting, and the structured rewrite trace rendered as a
//! Figure-6-style explain report.
//!
//! Every export is validated in here (strict JSON check, exposition line
//! shape). The render leaves out what a stopwatch wrote — the `*_ns`
//! histogram series, the explain report's phase timings, export byte
//! counts — so the section repeats byte for byte.

use brew_core::telemetry::metrics::{Ctr, Hst};
use brew_core::{
    explain_report, validate_json, RetKind, Rewriter, SpecRequest, SpecializationManager,
};
use brew_emu::{CallArgs, Machine, Stats};
use brew_stencil::Stencil;

/// Everything `obs_study` produced: the export payloads (pre-validated)
/// plus the numbers the report renders.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Prometheus text exposition of the manager's registry. The JSON
    /// snapshot of the same registry and the chrome://tracing dump of the
    /// traced rewrite were strict-validated before this struct exists.
    pub prometheus: String,
    /// Number of span events in the chrome trace.
    pub span_events: usize,
    /// Explain report of the traced stencil rewrite (Figure 6 annotated).
    pub explain: String,
    /// Counter-page readback of the poly dispatcher: per-case hits,
    /// fall-through last.
    pub guard_slots: Vec<u64>,
    /// Calls replayed through each dispatcher flavor.
    pub calls: u64,
    /// Model cycles of the replay through the plain stub.
    pub plain: Stats,
    /// Model cycles of the same replay through the counting stub.
    pub counting: Stats,
    /// Manager counters after the stencil run.
    pub stats: brew_core::CacheStats,
}

/// The OBS experiment. Two images are exercised:
///
/// 1. The stencil: `apply` is specialized through a
///    [`SpecializationManager`] (miss), re-requested (hits) and traced
///    once more with span recording for the explain report. The
///    manager's always-on registry picks all of it up.
/// 2. A polynomial kernel: three variants are cached, chained into a
///    *self-counting* dispatcher, and a skewed 200-call stream is
///    replayed through both the plain and the counting stub — same
///    stream, so the cycle delta is the counting overhead, and the
///    counter page must sum to exactly the call count.
pub fn obs_study(xs: i64, ys: i64) -> ObsReport {
    // --- stencil through the manager (registry fed) ---
    let s = Stencil::new(xs, ys);
    let apply = s.prog.func("apply").expect("apply");
    let mgr = SpecializationManager::new();
    mgr.get_or_rewrite(&s.img, apply, &s.apply_request())
        .expect("apply rewrite");
    for _ in 0..3 {
        mgr.get_or_rewrite(&s.img, apply, &s.apply_request())
            .expect("cached apply");
    }

    // --- traced rewrite: span tree + explain report (Figure 6) ---
    let (res, rec) = Rewriter::new(&s.img)
        .rewrite_with_trace(apply, &s.apply_request())
        .expect("traced apply rewrite");
    let explain = explain_report(&s.img, apply, &res, &rec);
    validate_json(&rec.to_chrome_json()).expect("chrome trace JSON malformed");

    // --- self-counting dispatch over poly variants ---
    let src = "int poly(int x, int n) { int r = 1; for (int i = 0; i < n; i++) r *= x; return r; }";
    let pimg = brew_image::Image::new();
    let prog = brew_minic::compile_into(src, &pimg).expect("poly compile");
    let poly = prog.func("poly").expect("poly");
    let pmgr = SpecializationManager::new();
    for n in [16i64, 8, 4] {
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(n)
            .ret(RetKind::Int);
        pmgr.get_or_rewrite(&pimg, poly, &req)
            .expect("poly rewrite");
    }
    let plain_entry = pmgr
        .build_dispatcher(&pimg, poly, poly)
        .expect("plain dispatcher");
    let (count_entry, page) = pmgr
        .build_dispatcher_counting(&pimg, poly, poly)
        .expect("counting dispatcher");

    // Skewed stream: mostly the hottest variant, some misses.
    let mut m = Machine::new();
    let (mut plain, mut counting) = (Stats::default(), Stats::default());
    let mut calls = 0u64;
    for i in 0..200u32 {
        let n: i64 = match i % 10 {
            0..=6 => 16, // 70% hottest case
            7 => 8,
            8 => 4,
            _ => 5, // fall-through to the original
        };
        let args = CallArgs::new().int(3).int(n);
        let p = m.call(&pimg, plain_entry, &args).expect("plain call");
        let c = m.call(&pimg, count_entry, &args).expect("counting call");
        assert_eq!(p.ret_int, c.ret_int, "stub flavors diverged at n={n}");
        plain.merge(&p.stats);
        counting.merge(&c.stats);
        calls += 1;
    }
    let guard_slots = page.snapshot(&pimg).expect("counter page readback");
    assert_eq!(
        guard_slots.iter().sum::<u64>(),
        calls,
        "counter page must account for every call"
    );

    // Fold the observed dispatch rates into the stencil manager's
    // registry so the exposition covers guard metrics too.
    let reg = mgr.metrics();
    let fallthrough = *guard_slots.last().unwrap_or(&0);
    reg.count(Ctr::GuardHits, calls - fallthrough);
    reg.count(Ctr::GuardFallthrough, fallthrough);

    // --- exports, validated here so the gate can trust them ---
    let prometheus = reg.render_prometheus();
    for metric in [
        "brew_cache_hits_total",
        "brew_cache_misses_total",
        "brew_rewrite_trace_ns_bucket",
        "brew_guard_hits_total",
        "brew_guard_fallthrough_total",
    ] {
        assert!(
            prometheus.contains(metric),
            "exposition lost metric {metric}"
        );
    }
    validate_json(&reg.snapshot_json()).expect("registry snapshot JSON malformed");
    assert_eq!(
        reg.histogram(Hst::TotalNs).count(),
        1,
        "one managed rewrite"
    );

    ObsReport {
        prometheus,
        span_events: rec.events().len(),
        explain,
        guard_slots,
        calls,
        plain,
        counting,
        stats: mgr.stats(),
    }
}

/// Render the OBS report: counting overhead, guard rates, the exposition
/// and the explain report.
pub fn render_obs(title: &str, r: &ObsReport) -> String {
    let mut s = format!("## {title}\n\n");
    let d_cyc = r.counting.cycles.saturating_sub(r.plain.cycles);
    let d_inst = r.counting.insts.saturating_sub(r.plain.insts);
    s.push_str(&format!(
        "plain dispatch stub     : {} cycles, {} insts over {} calls\n",
        r.plain.cycles, r.plain.insts, r.calls
    ));
    s.push_str(&format!(
        "counting stub, same mix : {} cycles, {} insts (+{} cycles, +{} insts; \
         +{:.2} cycles/call, {:+.2}% cycles)\n",
        r.counting.cycles,
        r.counting.insts,
        d_cyc,
        d_inst,
        d_cyc as f64 / r.calls.max(1) as f64,
        d_cyc as f64 / r.plain.cycles.max(1) as f64 * 100.0,
    ));
    s.push_str(&format!(
        "guard counter page      : {:?} (fall-through last; sums to {})\n",
        r.guard_slots, r.calls
    ));
    s.push_str(&format!(
        "manager after the run   : {} hits, {} misses, {} bytes resident\n",
        r.stats.hits, r.stats.misses, r.stats.resident_bytes
    ));
    s.push_str(&format!(
        "validated exports       : JSON snapshot, chrome://tracing dump of {} span events\n\n",
        r.span_events
    ));
    s.push_str("### Prometheus exposition (validated; `*_ns` buckets and sums left out)\n\n");
    let wall_clock = |l: &&str| l.contains("_ns_bucket{") || l.contains("_ns_sum ");
    for line in r.prometheus.lines().filter(|l| !wall_clock(l)) {
        s.push_str("    ");
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(
        "\n### Explain report of the specialized stencil apply (from its block table on)\n\n",
    );
    let stable = r.explain.find("### blocks").map_or("", |i| &r.explain[i..]);
    for line in stable.lines() {
        s.push_str("    ");
        s.push_str(line);
        s.push('\n');
    }
    s
}
