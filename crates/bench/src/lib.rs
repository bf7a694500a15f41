//! # brew-bench — shared experiment drivers
//!
//! Each experiment of DESIGN.md §3 is a function here, used both by the
//! Criterion benches (wall-clock of the emulated runs) and by the `tables`
//! binary (model-cycle tables, the unit the paper's ratios are compared
//! against — see EXPERIMENTS.md).

#![warn(missing_docs)]

mod equiv;
mod obs;
mod prof;
mod serve;
mod tier;
mod verify;

pub use equiv::{
    equiv_study, render_equiv, EquivRow, EquivV2Report, MiscompileRow, E2_AGGRESSIVE_GATE,
};
pub use obs::{guard_overhead_rows, obs_study, render_obs, ObsReport};
pub use prof::{prof_study, render_prof, ProfReport, SelfRow, FLIGHT_OVERHEAD_GATE_NS};
pub use serve::{render_serve, serve_study, ServeReport, ServeRow, KEYS, SERVE_HEAD_MASS_PCT};
pub use tier::{render_tier, tier_study, TierPhase, TierReport, FPS, HEAD_MASS_PCT, HOT};
pub use verify::{render_verify, verify_study, CleanRow, KindRow, VerifyV1Report};

use brew_core::OptLevel;
use brew_emu::{Machine, Stats};
use brew_pgas::PgasArray;
use brew_stencil::{Stencil, Variant};

/// Default experiment grid (the paper uses 500²×1000 wall-clock; the
/// emulated substrate uses a smaller grid — ratios are the result).
pub const XS: i64 = 64;
/// Grid height.
pub const YS: i64 = 64;
/// Sweeps per measurement.
pub const ITERS: u32 = 2;

/// One measured row: label, cycles, instructions.
#[derive(Debug, Clone)]
pub struct Row {
    /// Variant name.
    pub label: String,
    /// Model cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub insts: u64,
}

fn row(label: &str, s: Stats) -> Row {
    Row {
        label: label.to_string(),
        cycles: s.cycles,
        insts: s.insts,
    }
}

/// E1+E3: the §V.A/§V.B study. Returns rows in paper order:
/// generic, manual(fn-ptr), specialized, grouped-generic,
/// grouped-specialized, manual-same-CU.
pub fn stencil_study(xs: i64, ys: i64, iters: u32) -> Vec<Row> {
    let mut m = Machine::new();
    let mut out = Vec::new();
    let host = Stencil::new(xs, ys).host_checksum(iters);

    let mut s = Stencil::new(xs, ys);
    let st = s.run(&mut m, Variant::Generic, iters).unwrap();
    assert_eq!(s.checksum(iters), host);
    out.push(row("generic apply (Fig. 4)", st));

    let mut s = Stencil::new(xs, ys);
    let st = s.run(&mut m, Variant::Manual, iters).unwrap();
    assert_eq!(s.checksum(iters), host);
    out.push(row("manual stencil (fn ptr)", st));

    let mut s = Stencil::new(xs, ys);
    let spec = s.specialize_apply().unwrap();
    let st = s.run_with_apply(&mut m, spec.entry, false, iters).unwrap();
    assert_eq!(s.checksum(iters), host);
    out.push(row("BREW-specialized apply", st));

    let mut s = Stencil::new(xs, ys);
    let st = s.run(&mut m, Variant::Grouped, iters).unwrap();
    assert_eq!(s.checksum(iters), host);
    out.push(row("grouped generic", st));

    let mut s = Stencil::new(xs, ys);
    let spec = s.specialize_apply_grouped().unwrap();
    let st = s.run_with_apply(&mut m, spec.entry, true, iters).unwrap();
    assert_eq!(s.checksum(iters), host);
    out.push(row("BREW-specialized grouped", st));

    let mut s = Stencil::new(xs, ys);
    let st = s.run(&mut m, Variant::ManualInline, iters).unwrap();
    assert_eq!(s.checksum(iters), host);
    out.push(row("manual, same comp. unit", st));

    out
}

/// E4: whole-sweep rewriting at different controlled-unrolling factors.
pub fn sweep_study(xs: i64, ys: i64, iters: u32, unrolls: &[u32]) -> Vec<Row> {
    let mut m = Machine::new();
    let host = Stencil::new(xs, ys).host_checksum(iters);
    let mut out = Vec::new();
    for &u in unrolls {
        let mut s = Stencil::new(xs, ys);
        let res = s.specialize_sweep(u).unwrap();
        let st = s
            .run(&mut m, Variant::SpecializedSweep(res.entry), iters)
            .unwrap();
        assert_eq!(s.checksum(iters), host);
        out.push(row(&format!("sweep rewrite, unroll={u}"), st));
    }
    out
}

/// The row label of one rung of the A2 / E2 ladders.
pub fn level_label(level: OptLevel) -> &'static str {
    match level {
        OptLevel::None => "no passes (paper prototype)",
        OptLevel::Peephole => "+ peephole",
        OptLevel::DeadStores => "+ dead-store elim",
        OptLevel::SlotAlloc => "+ slot allocation",
        OptLevel::FrameCompression => "+ frame compression",
        OptLevel::Regalloc => "+ register allocation",
        OptLevel::Dataflow => "+ const-prop + DCE (default)",
        OptLevel::Aggressive => "+ aggressive coalescing (proof-gated)",
    }
}

/// A2: specialized `apply` at every optimization level.
pub fn passes_study(xs: i64, ys: i64, iters: u32) -> Vec<Row> {
    let mut m = Machine::new();
    let host = Stencil::new(xs, ys).host_checksum(iters);
    let mut out = Vec::new();
    for level in OptLevel::ALL {
        let label = level_label(level);
        let mut s = Stencil::new(xs, ys);
        let res = s.specialize_apply_with_passes(level).unwrap();
        let st = s.run_with_apply(&mut m, res.entry, false, iters).unwrap();
        assert_eq!(s.checksum(iters), host);
        out.push(Row {
            label: format!("{label} ({} bytes)", res.code_len),
            cycles: st.cycles,
            insts: st.insts,
        });
    }
    out
}

/// A2's companion: instructions removed (by the slot allocator: converted)
/// per pass stage (the argument of each `cat:"pass"` span) for the specialized `apply` and the
/// whole-sweep rewrite, so each pass's share is visible next to the ladder.
pub fn pass_removed_table(xs: i64, ys: i64) -> String {
    let s = Stencil::new(xs, ys);
    let spans = |func: &str, req: brew_core::SpecRequest| -> Vec<(String, String)> {
        let f = s.prog.func(func).unwrap();
        let (_, rec) = brew_core::Rewriter::new(&s.img)
            .rewrite_with_trace(f, &req)
            .expect("traced rewrite");
        rec.events_in("pass")
            .iter()
            .map(|e| {
                (
                    e.name.clone(),
                    e.args.first().map_or("-".into(), |a| a.1.clone()),
                )
            })
            .collect()
    };
    let apply = spans("apply", s.apply_request());
    let sweep = spans("sweep_generic", s.sweep_request(4));
    let mut out = format!(
        "### instructions removed (slot-alloc: converted) per pass\n\n{:<22} {:>8} {:>10}\n",
        "pass", "apply", "sweep.u4"
    );
    for ((name, a), (_, w)) in apply.iter().zip(&sweep) {
        out.push_str(&format!("{name:<22} {a:>8} {w:>10}\n"));
    }
    out
}

/// A3: inlining on vs off for the specialized apply.
pub fn inline_study(xs: i64, ys: i64, iters: u32) -> Vec<Row> {
    use brew_core::{RetKind, Rewriter, SpecRequest};
    let mut m = Machine::new();
    let host = Stencil::new(xs, ys).host_checksum(iters);
    let mut out = Vec::new();
    for inline in [true, false] {
        let mut s = Stencil::new(xs, ys);
        // Specialize the *sweep-ptr3 caller's* callee: rewrite apply while
        // allowing / forbidding inlining of nothing (apply is a leaf), so
        // instead rewrite sweep_generic with apply inline on/off.
        let sweep = s.prog.func("sweep_generic").unwrap();
        let apply = s.prog.func("apply").unwrap();
        let s5 = s.s5();
        let req = SpecRequest::new()
            .unknown_int() // m1
            .unknown_int() // m2
            .known_int(xs)
            .known_int(ys)
            .known_mem(s5..s5 + brew_stencil::S_SIZE)
            .ret(RetKind::Void)
            .func(sweep, |o| {
                o.branch_unknown = true;
                o.max_variants = 2;
            })
            .func(apply, |o| o.inline = inline)
            .max_trace_insts(16_000_000)
            .max_code_bytes(1 << 22);
        let res = Rewriter::new(&s.img).rewrite(sweep, &req).unwrap();
        let st = s
            .run(&mut m, Variant::SpecializedSweep(res.entry), iters)
            .unwrap();
        assert_eq!(s.checksum(iters), host);
        out.push(row(
            if inline {
                "sweep rewrite, apply inlined"
            } else {
                "sweep rewrite, call kept"
            },
            st,
        ));
    }
    out
}

/// A5: guarded dispatch — hot-path hit-rate sweep. Each hit rate compares
/// the guarded entry point and the plain original *on the same call
/// stream*, so the guard's dispatch overhead and the specialization's win
/// are both visible.
pub fn guard_study() -> Vec<Row> {
    use brew_core::{RetKind, Rewriter, SpecRequest};
    use brew_emu::CallArgs;
    let src = "int poly(int x, int n) { int r = 1; for (int i = 0; i < n; i++) r *= x; return r; }";
    let mut out = Vec::new();
    for hot_pct in [100u32, 90, 50, 0] {
        let img = brew_image::Image::new();
        let prog = brew_minic::compile_into(src, &img).unwrap();
        let poly = prog.func("poly").unwrap();
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(16)
            .ret(RetKind::Int);
        let mut rw = Rewriter::new(&img);
        let spec = rw.rewrite(poly, &req).unwrap();
        let guard = rw.guard(1, 16, spec.entry, poly).unwrap();
        let mut m = Machine::new();
        let (mut guarded, mut original) = (Stats::default(), Stats::default());
        for i in 0..100u32 {
            let n = if i % 100 < hot_pct { 16 } else { 15 };
            let args = CallArgs::new().int(3).int(n as i64);
            let g = m.call(&img, guard, &args).unwrap();
            let o = m.call(&img, poly, &args).unwrap();
            assert_eq!(g.ret_int, o.ret_int);
            guarded.merge(&g.stats);
            original.merge(&o.stats);
        }
        out.push(row(&format!("guarded poly, {hot_pct}% hot"), guarded));
        out.push(row(
            &format!("original poly, same stream ({hot_pct}%)"),
            original,
        ));
    }
    out
}

/// A4: packed-execution headroom — what the paper's planned greedy
/// vectorization pass (§IV) would unlock over the scalar variants.
pub fn vectorize_study(xs: i64, ys: i64, iters: u32) -> Vec<Row> {
    use brew_emu::CallArgs;
    let mut m = Machine::new();
    let host = Stencil::new(xs, ys).host_checksum(iters);
    let mut out = Vec::new();

    let mut s = Stencil::new(xs, ys);
    let res = s.specialize_sweep(4).unwrap();
    let st = s
        .run(&mut m, Variant::SpecializedSweep(res.entry), iters)
        .unwrap();
    assert_eq!(s.checksum(iters), host);
    out.push(row("BREW sweep rewrite (scalar, unroll=4)", st));

    let mut s = Stencil::new(xs, ys);
    let st = s.run(&mut m, Variant::ManualInline, iters).unwrap();
    out.push(row("manual scalar sweep (same CU)", st));

    for (label, packed) in [
        ("hand-scheduled scalar sweep", false),
        ("hand-scheduled packed sweep (the pass target)", true),
    ] {
        let s = Stencil::new(xs, ys);
        let f = if packed {
            brew_stencil::simd::build_packed_sweep(&s.img, xs, ys)
        } else {
            brew_stencil::simd::build_scalar_handtuned_sweep(&s.img, xs, ys)
        };
        let mut total = Stats::default();
        let (mut src, mut dst) = (s.m1, s.m2);
        for _ in 0..iters {
            let o = m
                .call(&s.img, f, &CallArgs::new().ptr(src).ptr(dst))
                .unwrap();
            total.merge(&o.stats);
            std::mem::swap(&mut src, &mut dst);
        }
        assert_eq!(s.checksum(iters), host);
        out.push(row(label, total));
    }
    out
}

/// A6: the cost of rewriting itself (traced guest instructions and
/// generated bytes — amortization data).
pub fn rewrite_cost_study(xs: i64, ys: i64) -> Vec<Row> {
    let mut out = Vec::new();
    let mut s = Stencil::new(xs, ys);
    let res = s.specialize_apply().unwrap();
    out.push(Row {
        label: format!("rewrite apply: {} bytes out", res.code_len),
        cycles: res.stats.traced,
        insts: res.stats.emitted,
    });
    let mut s = Stencil::new(xs, ys);
    let res = s.specialize_apply_grouped().unwrap();
    out.push(Row {
        label: format!("rewrite grouped: {} bytes out", res.code_len),
        cycles: res.stats.traced,
        insts: res.stats.emitted,
    });
    let mut s = Stencil::new(xs, ys);
    let res = s.specialize_sweep(4).unwrap();
    out.push(Row {
        label: format!("rewrite sweep(u=4): {} bytes out", res.code_len),
        cycles: res.stats.traced,
        insts: res.stats.emitted,
    });
    out
}

/// C1 numbers: cost of a cold specialization request (a full rewrite, the
/// A6 baseline) vs a cached re-request through the variant cache.
#[derive(Debug, Clone)]
pub struct CacheReport {
    /// Wall-clock ns of the initial (miss) request — decode, trace,
    /// passes, layout, encode.
    pub cold_ns: u64,
    /// Per-phase breakdown of that cold rewrite.
    pub cold_stats: brew_core::RewriteStats,
    /// Average wall-clock ns of one cached re-request (a hash lookup).
    pub cached_avg_ns: u64,
    /// Number of re-requests replayed.
    pub rerequests: u32,
    /// Manager counters at the end of the replay.
    pub stats: brew_core::CacheStats,
}

/// C1: variant-cache amortization. Replays a skewed stream of
/// specialization requests — the hot request re-arrives 7 of 8 times, a
/// second request shape (same function, passes off, distinct fingerprint)
/// takes the rest — through a [`brew_core::SpecializationManager`] and
/// measures cold-vs-cached request cost.
pub fn cache_study(xs: i64, ys: i64, rerequests: u32) -> CacheReport {
    use brew_core::SpecializationManager;
    use std::time::Instant;

    let s = Stencil::new(xs, ys);
    let func = s.prog.func("apply").unwrap();
    let hot = s.apply_request();
    let alt = s.apply_request().passes(OptLevel::None);

    let mgr = SpecializationManager::new();
    let t0 = Instant::now();
    let first = mgr.get_or_rewrite(&s.img, func, &hot).unwrap();
    let cold_ns = (t0.elapsed().as_nanos() as u64).max(1);
    let cold_stats = first.stats;
    mgr.get_or_rewrite(&s.img, func, &alt).unwrap();

    let t1 = Instant::now();
    for i in 0..rerequests {
        let req = if i % 8 == 7 { &alt } else { &hot };
        let v = mgr.get_or_rewrite(&s.img, func, req).unwrap();
        std::hint::black_box(v.entry);
    }
    let cached_avg_ns = (t1.elapsed().as_nanos() as u64) / u64::from(rerequests.max(1));

    CacheReport {
        cold_ns,
        cold_stats,
        cached_avg_ns,
        rerequests,
        stats: mgr.stats(),
    }
}

/// Render the C1 amortization report.
pub fn render_cache(title: &str, r: &CacheReport) -> String {
    let pct = r.cached_avg_ns as f64 / r.cold_ns as f64 * 100.0;
    let mut s = format!("## {title}\n\n");
    s.push_str(&format!(
        "cold rewrite (miss)     : {:>10} ns   ({}us trace + {}us passes + {}us emit; \
         {} guest insts traced)\n",
        r.cold_ns,
        r.cold_stats.trace_ns / 1_000,
        r.cold_stats.pass_ns / 1_000,
        r.cold_stats.emit_ns / 1_000,
        r.cold_stats.traced,
    ));
    s.push_str(&format!(
        "cached re-request (avg) : {:>10} ns   ({pct:.2}% of a cold rewrite, \
         over {} re-requests)\n",
        r.cached_avg_ns, r.rerequests,
    ));
    s.push_str(&format!(
        "cache counters          : {} hits, {} misses, {} evictions, {} bytes resident\n",
        r.stats.hits, r.stats.misses, r.stats.evictions, r.stats.resident_bytes,
    ));
    s.push_str(&format!(
        "traced guest insts      : {} total — flat across every cached re-request\n",
        r.stats.traced_total,
    ));
    s
}

/// C3 numbers: cost of rediscovering a failing specialization (a full
/// doomed trace) vs a negative-cache denial, plus the cost of a staleness
/// sweep.
#[derive(Debug, Clone)]
pub struct LifecycleReport {
    /// Wall-clock ns of the initial failing request — the rewrite runs
    /// until the trace budget blows.
    pub cold_fail_ns: u64,
    /// Average wall-clock ns of one denied re-request (a shard lookup).
    pub denied_avg_ns: u64,
    /// Denied re-requests replayed.
    pub denials: u32,
    /// Wall-clock ns of one `revalidate` sweep over the resident variants
    /// (all snapshots re-hashed, none stale).
    pub revalidate_clean_ns: u64,
    /// Variants resident during the sweep.
    pub resident: usize,
    /// Variants dropped after one folded byte was mutated.
    pub dropped_after_mutation: usize,
    /// Manager counters at the end.
    pub stats: brew_core::CacheStats,
}

/// C3: failure-path amortization and staleness sweeps. A doomed request
/// (code-size budget too small for the specialized apply) pays the full
/// pipeline once, then is replayed through the negative cache;
/// `revalidate` is timed over the healthy variants, and one byte of the
/// folded descriptor is mutated to show the sweep dropping exactly the
/// dependent variants.
pub fn lifecycle_study(xs: i64, ys: i64, denials: u32) -> LifecycleReport {
    use brew_core::{Invalidation, NegativePolicy, SpecializationManager};
    use std::time::Instant;

    let s = Stencil::new(xs, ys);
    let func = s.prog.func("apply").unwrap();
    let hot = s.apply_request();
    // Doomed at the *end* of the pipeline: the full trace, passes and
    // encoding all run before the code-size budget rejects the result —
    // the expensive way a specialization attempt actually fails.
    let doomed = s.apply_request().max_code_bytes(16);

    let mgr = SpecializationManager::builder()
        .negative_policy(NegativePolicy {
            base_backoff: u64::MAX / 2,
            attempt_cap: 10,
        })
        .build();
    // Two healthy variants for the sweep to re-hash.
    mgr.get_or_rewrite(&s.img, func, &hot).unwrap();
    mgr.get_or_rewrite(&s.img, func, &hot.clone().passes(OptLevel::None))
        .unwrap();

    let t0 = Instant::now();
    mgr.get_or_rewrite(&s.img, func, &doomed).unwrap_err();
    let cold_fail_ns = (t0.elapsed().as_nanos() as u64).max(1);

    let t1 = Instant::now();
    for _ in 0..denials {
        let e = mgr.get_or_rewrite(&s.img, func, &doomed).unwrap_err();
        std::hint::black_box(e);
    }
    let denied_avg_ns = (t1.elapsed().as_nanos() as u64) / u64::from(denials.max(1));

    let resident = mgr.len();
    let t2 = Instant::now();
    assert_eq!(
        mgr.apply_invalidation(Invalidation::Revalidate(&s.img)),
        0,
        "nothing was mutated yet"
    );
    let revalidate_clean_ns = (t2.elapsed().as_nanos() as u64).max(1);

    // Flip one folded byte of the stencil descriptor: both variants baked
    // it, so the sweep drops both.
    let s5 = s.s5();
    let saved = s.img.read_u64(s5).unwrap();
    s.img.write_u64(s5, saved ^ 1).unwrap();
    let dropped_after_mutation = mgr.apply_invalidation(Invalidation::Revalidate(&s.img));
    s.img.write_u64(s5, saved).unwrap();

    LifecycleReport {
        cold_fail_ns,
        denied_avg_ns,
        denials,
        revalidate_clean_ns,
        resident,
        dropped_after_mutation,
        stats: mgr.stats(),
    }
}

/// Render the C3 failure-path/lifecycle report.
pub fn render_lifecycle(title: &str, r: &LifecycleReport) -> String {
    let ratio = r.cold_fail_ns as f64 / r.denied_avg_ns.max(1) as f64;
    let mut s = format!("## {title}\n\n");
    s.push_str(&format!(
        "cold failing request    : {:>10} ns   (full trace+passes+emit before the budget rejects)\n",
        r.cold_fail_ns,
    ));
    s.push_str(&format!(
        "denied re-request (avg) : {:>10} ns   ({ratio:.0}x cheaper, over {} denials)\n",
        r.denied_avg_ns, r.denials,
    ));
    s.push_str(&format!(
        "revalidate, all clean   : {:>10} ns   ({} variants re-hashed, 0 dropped)\n",
        r.revalidate_clean_ns, r.resident,
    ));
    s.push_str(&format!(
        "after 1-byte mutation   : {:>10} variants dropped by the sweep\n",
        r.dropped_after_mutation,
    ));
    s.push_str(&format!(
        "lifecycle counters      : {} denied, {} stale, {} invalidated, {} misses total\n",
        r.stats.denied, r.stats.stale, r.stats.invalidated, r.stats.misses,
    ));
    s
}

/// One C2 row: request-path throughput at a given thread count.
#[derive(Debug, Clone)]
pub struct ConcRow {
    /// Worker threads issuing requests concurrently.
    pub threads: u32,
    /// Total requests issued across all threads.
    pub requests: u64,
    /// Wall-clock ns for the whole request storm.
    pub wall_ns: u64,
    /// Manager counters at quiescence.
    pub stats: brew_core::CacheStats,
}

/// The distinct request fingerprints `conc_study` replays.
pub const CONC_DISTINCT: u64 = 4;

/// C2: concurrent request throughput through one shared
/// [`brew_core::SpecializationManager`]. Every thread hammers the same
/// skewed mix (the hot `apply` shape 5 of 8, three colder shapes for the
/// rest); single-flight coalescing means the miss count stays at the
/// distinct-fingerprint count no matter how many threads race the cold
/// start, and the hit path is a sharded lock-per-shard lookup, so ns/req
/// should stay roughly flat as threads scale.
pub fn conc_study(xs: i64, ys: i64, rounds: u32, thread_counts: &[u32]) -> Vec<ConcRow> {
    use brew_core::SpecializationManager;
    use std::time::Instant;

    let mut out = Vec::new();
    for &nthreads in thread_counts {
        let s = Stencil::new(xs, ys);
        let func = s.prog.func("apply").unwrap();
        // Four distinct fingerprints: the hot shape plus three
        // semantically identical variants distinguished only by config
        // (trace-budget tweaks change the fingerprint, not the code).
        let reqs = [
            s.apply_request(),
            s.apply_request().passes(OptLevel::None),
            s.apply_request().max_trace_insts(3_999_999),
            s.apply_request().max_trace_insts(3_999_998),
        ];
        const MIX: [usize; 8] = [0, 0, 0, 0, 0, 1, 2, 3];
        let mgr = SpecializationManager::new();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for tid in 0..nthreads {
                let (mgr, img, reqs) = (&mgr, &s.img, &reqs);
                scope.spawn(move || {
                    for i in 0..rounds {
                        let req = &reqs[MIX[(tid as usize * 3 + i as usize) % MIX.len()]];
                        let v = mgr.get_or_rewrite(img, func, req).unwrap();
                        std::hint::black_box(v.entry);
                    }
                });
            }
        });
        let wall_ns = (t0.elapsed().as_nanos() as u64).max(1);
        out.push(ConcRow {
            threads: nthreads,
            requests: u64::from(nthreads) * u64::from(rounds),
            wall_ns,
            stats: mgr.stats(),
        });
    }
    out
}

/// Render the C2 concurrency table.
pub fn render_conc(title: &str, rows: &[ConcRow]) -> String {
    let mut s = format!("## {title}\n\n");
    s.push_str(&format!(
        "{:<8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8} {:>11}\n",
        "threads", "requests", "wall us", "ns/req", "hits", "coalesced", "misses", "dup traces"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8} {:>11}\n",
            r.threads,
            r.requests,
            r.wall_ns / 1_000,
            r.wall_ns / r.requests.max(1),
            r.stats.hits,
            r.stats.coalesced,
            r.stats.misses,
            r.stats.misses.saturating_sub(CONC_DISTINCT),
        ));
    }
    s.push_str(
        "\nsingle-flight: misses stay at the distinct-fingerprint count (4) at every \
         thread count;\na duplicate trace would show up in the last column.\n",
    );
    s
}

/// P1: the PGAS study.
pub fn pgas_study(n: i64, nnodes: i64) -> Vec<Row> {
    let mut m = Machine::new();
    let mut out = Vec::new();
    let mut p = PgasArray::new(n, nnodes, 1.min(nnodes - 1));
    let host = p.host_sum();

    let (v, st) = p.gsum_generic(&mut m).unwrap();
    assert_eq!(v, host);
    out.push(row("generic gsum (gread per element)", st));

    let spec = p.specialize_gsum().unwrap();
    let (v, st) = p.gsum_with(&mut m, spec.entry).unwrap();
    assert_eq!(v, host);
    out.push(row("BREW-specialized gsum", st));

    let (v, st) = p.lsum_manual(&mut m).unwrap();
    assert_eq!(v, host);
    out.push(row("manual local sum", st));

    let inst = p.instrument_remote_detection().unwrap();
    let (v, st) = p.gsum_with(&mut m, inst.entry).unwrap();
    assert_eq!(v, host);
    out.push(row("instrumented gsum (remote detection)", st));
    out
}

/// Render rows as a ratio table against the first row.
pub fn render(title: &str, rows: &[Row]) -> String {
    let mut s = format!("## {title}\n\n");
    s.push_str(&format!(
        "{:<42} {:>14} {:>12} {:>10}\n",
        "variant", "model cycles", "insts", "vs first"
    ));
    let base = rows.first().map(|r| r.cycles).unwrap_or(1).max(1);
    for r in rows {
        s.push_str(&format!(
            "{:<42} {:>14} {:>12} {:>9.0}%\n",
            r.label,
            r.cycles,
            r.insts,
            r.cycles as f64 / base as f64 * 100.0
        ));
    }
    s
}
