//! # brew-bench — the deterministic reproduction
//!
//! Each experiment of DESIGN.md §3 is a function here returning a typed
//! report, rendered by the `tables` binary and asserted on by
//! `tests/gates.rs`. Everything printed is a model-cycle count, an
//! instruction count or a manager counter, so two runs print the same
//! bytes (`tests/tables_pins.txt`); wall-clock figures are the benchmark's
//! (`benchmark/`, EXPERIMENTS.md names the metric for each).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[path = "../../verify/tests/corpus/mod.rs"]
mod corpus;
mod equiv;
mod obs;
mod prof;
mod serve;
mod tier;
mod verify;

pub use equiv::{
    equiv_study, render_equiv, EquivRow, EquivV2Report, MiscompileRow, E2_AGGRESSIVE_GATE,
    E2_DEFAULT_GATE,
};
pub use obs::{obs_study, render_obs, ObsReport};
pub use prof::{prof_study, render_prof, ProfReport, SelfRow};
pub use serve::{render_serve, serve_study, ServeReport, ServeRow, KEYS, SERVE_HEAD_MASS_PCT};
pub use tier::{render_tier, tier_study, TierPhase, TierReport, FPS, HEAD_MASS_PCT, HOT};
pub use verify::{render_verify, verify_study, CleanRow, KindRow, VerifyV1Report};

use brew_core::capture::{positions, reverse_postorder};
use brew_core::{OptLevel, RetKind, Rewriter, SpecRequest};
use brew_emu::{Machine, Stats};
use brew_pgas::PgasArray;
use brew_stencil::{programs, Stencil, Variant};
use brew_verify::{ProofWork, VerifyOptions};

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
        OptLevel::SlotAlloc => "+ slot allocation",
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

/// One row of A2's companion table: what one pass stage did to the
/// specialized `apply` and to the whole-sweep rewrite.
#[derive(Debug, Clone)]
pub struct PassCount {
    /// Stage name (the `cat:"pass"` span's name).
    pub pass: String,
    /// Instructions removed from `apply` (by `slot-alloc`: converted).
    pub apply: u64,
    /// The same for `sweep_generic` at unroll 4.
    pub sweep: u64,
}

/// What one pass stage reported on its `cat:"pass"` span: its count first
/// (removed, or converted by the slot allocator), then the deterministic
/// work it took.
#[derive(Debug, Clone)]
pub struct PassWork {
    /// Stage name.
    pub pass: String,
    /// Instructions removed (by `slot-alloc`: converted).
    pub count: u64,
    /// Instructions decoded into an effect, the context's own construction
    /// on the first stage's bill.
    pub decodes: u64,
    /// Of those, instructions the stage wrote itself.
    pub rewritten: u64,
    /// Block visits.
    pub visits: u64,
    /// Liveness fixpoints run.
    pub solves: u64,
}

/// The count a span carries under `key`, if it carries one.
fn span_count(e: &brew_core::telemetry::SpanEvent, key: &str) -> Option<u64> {
    let found = e.args.iter().find(|(k, _)| k == key);
    found.map(|(_, v)| v.parse().expect("a count"))
}

/// The pass spans of one traced rewrite of `func`, and how many
/// instructions the trace captured for the passes to work on.
fn pass_spans(s: &Stencil, func: &str, req: SpecRequest) -> (u64, Vec<PassWork>) {
    let f = s.prog.func(func).unwrap();
    let (res, rec) = Rewriter::new(&s.img)
        .rewrite_with_trace(f, &req)
        .expect("traced rewrite");
    let spans = rec.events_in("pass");
    let work = spans.iter().map(|e| {
        let arg = |key: &str| span_count(e, key).unwrap_or(0);
        let n = e.args.first().expect("a pass span carries its count");
        PassWork {
            pass: e.name.clone(),
            count: n.1.parse().expect("a count"),
            decodes: arg("decodes"),
            rewritten: arg("rewritten"),
            visits: arg("visits"),
            solves: arg("solves"),
        }
    });
    let cap = res
        .equiv
        .as_ref()
        .expect("a fresh rewrite keeps its capture");
    let captured = cap.blocks.iter().map(|b| b.insts.len() as u64).sum();
    (captured, work.collect())
}

/// The stages' work on the specialized `apply` and on the whole-sweep
/// rewrite at unroll 4: `(label, captured instructions, per-stage work)`.
pub fn pass_work(xs: i64, ys: i64) -> Vec<(&'static str, u64, Vec<PassWork>)> {
    let s = Stencil::new(xs, ys);
    let (apply, apply_work) = pass_spans(&s, "apply", s.apply_request());
    let (sweep, sweep_work) = pass_spans(&s, "sweep_generic", s.sweep_request(4));
    vec![
        ("apply", apply, apply_work),
        ("sweep_generic.u4", sweep, sweep_work),
    ]
}

/// What the tracer reported on the `trace` phase span of one rewrite — its
/// three trace statistics, then its deterministic work — beside the static
/// size of the guest code the trace ran through.
#[derive(Debug, Clone)]
pub struct TraceWork {
    /// Workload label.
    pub label: &'static str,
    /// Blocks created (compensation blocks included).
    pub blocks: u64,
    /// Guest instructions fetched and executed (re-traces included).
    pub traced: u64,
    /// World migrations.
    pub migrations: u64,
    /// Guest instructions decoded.
    pub decodes: u64,
    /// Full world comparisons made by the variant search.
    pub compares: u64,
    /// Instructions reachable from the entry, counted by a walk of the
    /// guest code that follows every jump, both arms of every conditional
    /// one and every inlined call: the distinct addresses a trace that
    /// takes every arm fetches.
    pub reachable: u64,
}

/// Distinct instruction addresses reachable from `entry`; calls are followed
/// into the functions of `inlined` and stepped over otherwise.
fn reachable_insts(img: &brew_image::Image, entry: u64, inlined: &[u64]) -> u64 {
    let mut seen = std::collections::BTreeSet::new();
    let mut work = vec![entry];
    while let Some(mut at) = work.pop() {
        while seen.insert(at) {
            let mut window = [0u8; 16];
            let n = img.code_window_into(at, &mut window).expect("code");
            let d = brew_x86::decode(&window[..n], at).expect("an instruction");
            let next = at + d.len as u64;
            at = match d.inst {
                brew_x86::Inst::Ret => break,
                brew_x86::Inst::JmpRel { target } => target,
                brew_x86::Inst::Jcc { target, .. } => {
                    work.push(target);
                    next
                }
                brew_x86::Inst::CallRel { target } if inlined.contains(&target) => {
                    work.push(target);
                    next
                }
                _ => next,
            };
        }
    }
    seen.len() as u64
}

/// [`TraceWork`] of one traced rewrite of `prog`'s `func`, which inlines
/// `apply` and nothing else.
fn trace_span(
    label: &'static str,
    img: &brew_image::Image,
    prog: &brew_minic::Compiled,
    func: &str,
    req: &SpecRequest,
) -> TraceWork {
    let f = prog.func(func).unwrap();
    let (_, rec) = Rewriter::new(img)
        .rewrite_with_trace(f, req)
        .expect("traced rewrite");
    let phases = rec.events_in("phase");
    let span = phases.iter().find(|e| e.name == "trace").expect("a span");
    let arg =
        |key: &str| span_count(span, key).unwrap_or_else(|| panic!("no `{key}` on the trace span"));
    TraceWork {
        label,
        blocks: arg("blocks"),
        traced: arg("guest_insts"),
        migrations: arg("migrations"),
        decodes: arg("decodes"),
        compares: arg("compares"),
        reachable: reachable_insts(img, f, &[prog.func("apply").unwrap()]),
    }
}

/// The §V.C sweep behind `makeDynamic`, unrolled until `max_variants = 16`
/// migrates it (12×12, the benchmark's `unroll-cold` shape): the program
/// compiled into `img` and the request for its `sweep_dynamic_transformed`.
fn unrolled_sweep(img: &brew_image::Image) -> (brew_minic::Compiled, SpecRequest) {
    let prog = brew_minic::compile_into(programs::MAKE_DYNAMIC_PROGRAM, img).unwrap();
    let s5 = prog.global("s5").unwrap();
    let f = prog.func("sweep_dynamic_transformed").unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .unknown_int()
        .known_int(12)
        .known_int(12)
        .known_mem(s5..s5 + brew_stencil::S_SIZE)
        .ret(RetKind::Void)
        .func(prog.func("makeDynamic").unwrap(), |o| o.inline = false)
        .func(f, |o| o.max_variants = 16)
        .max_trace_insts(16_000_000)
        .max_code_bytes(1 << 22);
    (prog, req)
}

/// The tracer's work on the two traces that exercise its variant machinery:
/// the unrolled §V.C sweep and the whole-sweep rewrite at unroll 4.
pub fn trace_work(xs: i64, ys: i64) -> Vec<TraceWork> {
    let img = brew_image::Image::new();
    let (prog, unrolled) = unrolled_sweep(&img);
    let s = Stencil::new(xs, ys);
    vec![
        trace_span(
            "sweep_unrolled.12x12.v16",
            &img,
            &prog,
            "sweep_dynamic_transformed",
            &unrolled,
        ),
        trace_span(
            "sweep_generic.u4",
            &s.img,
            &s.prog,
            "sweep_generic",
            &s.sweep_request(4),
        ),
    ]
}

/// What the equivalence proof of one rewrite reported, beside the shape of
/// the captured CFG it walked.
#[derive(Debug, Clone)]
pub struct ProofRow {
    /// Workload label.
    pub label: String,
    /// Edges of the captured CFG into a block at or before their source in
    /// reverse postorder: the edges that close a loop.
    pub retreating: u64,
    /// Blocks of the captured CFG that lie on a cycle: the only ones the
    /// proof may walk again.
    pub on_cycle: u64,
    /// The proof's counters.
    pub work: ProofWork,
}

/// [`ProofRow`] of one rewrite of `func`, which must prove.
fn proof_row(img: &brew_image::Image, label: &str, func: u64, req: &SpecRequest) -> ProofRow {
    let res = Rewriter::new(img).rewrite(func, req).expect("rewrite");
    let report = brew_verify::verify(img, func, req, &res, &VerifyOptions::default());
    assert!(report.passed(), "{label}: {:?}", report.findings);
    let cap = res
        .equiv
        .as_ref()
        .expect("a fresh rewrite keeps its capture");
    let rpo = reverse_postorder(&cap.blocks, cap.entry_block);
    let pos = &positions(&rpo, cap.blocks.len());
    let retreating = rpo.iter().flat_map(|&b| {
        let succs = cap.blocks[b].term.successors();
        succs.filter(move |s| pos[s.0] <= pos[b])
    });
    // A block is on a cycle when it is reachable from its own successors.
    let on_cycle = rpo.iter().filter(|&&b| {
        let mut seen = vec![false; cap.blocks.len()];
        let succs = |x: usize| cap.blocks[x].term.successors().map(|s| s.0);
        let mut stack: Vec<usize> = succs(b).collect();
        while let Some(x) = stack.pop() {
            if x == b {
                return true;
            }
            if !std::mem::replace(&mut seen[x], true) {
                stack.extend(succs(x));
            }
        }
        false
    });
    ProofRow {
        label: label.to_string(),
        retreating: retreating.count() as u64,
        on_cycle: on_cycle.count() as u64,
        work: report.proof,
    }
}

/// The prover's work on the ten `corpus-cold` requests and on the unrolled
/// §V.C sweep.
pub fn proof_work() -> Vec<ProofRow> {
    let img = brew_image::Image::new();
    let cold = corpus::cold(&img);
    let mut rows: Vec<ProofRow> = cold
        .iter()
        .map(|c| proof_row(&img, &c.label, c.func, &c.req))
        .collect();
    let img = brew_image::Image::new();
    let (prog, req) = unrolled_sweep(&img);
    let f = prog.func("sweep_dynamic_transformed").unwrap();
    rows.push(proof_row(&img, "sweep_unrolled.12x12.v16", f, &req));
    rows
}

/// A2's companion: instructions removed (by the slot allocator: converted)
/// per pass stage — the argument of each `cat:"pass"` span — so each
/// pass's share is visible next to the ladder.
pub fn pass_counts(xs: i64, ys: i64) -> Vec<PassCount> {
    let work = pass_work(xs, ys);
    let rows = work[0].2.iter().zip(&work[1].2).map(|(a, s)| PassCount {
        pass: a.pass.clone(),
        apply: a.count,
        sweep: s.count,
    });
    rows.collect()
}

/// Render [`pass_counts`].
pub fn render_pass_counts(rows: &[PassCount]) -> String {
    let mut out = format!(
        "### instructions removed (slot-alloc: converted) per pass\n\n{:<22} {:>8} {:>10}\n",
        "pass", "apply", "sweep.u4"
    );
    for r in rows {
        out.push_str(&format!("{:<22} {:>8} {:>10}\n", r.pass, r.apply, r.sweep));
    }
    out
}

/// A3: inlining on vs off for the specialized apply.
pub fn inline_study(xs: i64, ys: i64, iters: u32) -> Vec<Row> {
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

/// C3 numbers: what a staleness sweep drops, and the manager's counters
/// after a doomed request was replayed through the negative cache.
#[derive(Debug, Clone)]
pub struct LifecycleReport {
    /// Variants resident during the clean sweep (all re-hashed, none stale).
    pub resident: usize,
    /// Variants dropped after one folded byte was mutated.
    pub dropped_after_mutation: usize,
    /// Manager counters at the end.
    pub stats: brew_core::CacheStats,
}

/// C3: the failure path and staleness sweeps. A doomed request (code-size
/// budget too small for the specialized apply) runs the full pipeline
/// once, then is replayed `denials` times through the negative cache;
/// `revalidate` sweeps the healthy variants, and one byte of the folded
/// descriptor is mutated to show the sweep dropping exactly the dependent
/// variants. What a denial costs against the doomed rewrite is the
/// benchmark's `manager.denied_ns` against `cold_request_us`.
pub fn lifecycle_study(xs: i64, ys: i64, denials: u32) -> LifecycleReport {
    use brew_core::{Invalidation, NegativePolicy, SpecializationManager};

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

    for _ in 0..=denials {
        mgr.get_or_rewrite(&s.img, func, &doomed).unwrap_err();
    }

    let resident = mgr.len();
    assert_eq!(
        mgr.apply_invalidation(Invalidation::Revalidate(&s.img)),
        0,
        "nothing was mutated yet"
    );

    // Flip one folded byte of the stencil descriptor: both variants baked
    // it, so the sweep drops both.
    let s5 = s.s5();
    let saved = s.img.read_u64(s5).unwrap();
    s.img.write_u64(s5, saved ^ 1).unwrap();
    let dropped_after_mutation = mgr.apply_invalidation(Invalidation::Revalidate(&s.img));
    s.img.write_u64(s5, saved).unwrap();

    LifecycleReport {
        resident,
        dropped_after_mutation,
        stats: mgr.stats(),
    }
}

/// Render the C3 failure-path/lifecycle report.
pub fn render_lifecycle(title: &str, r: &LifecycleReport) -> String {
    let mut s = format!("## {title}\n\n");
    s.push_str(&format!(
        "revalidate, all clean   : {:>10} variants re-hashed, 0 dropped\n",
        r.resident,
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

/// Every experiment id, in the order `tables` prints them (DESIGN.md §3).
pub const EXPERIMENTS: [&str; 19] = [
    "e1", "e2", "e3", "e4", "e5", "a1", "a2", "a3", "a4", "a5", "a6", "p1", "obs", "life",
    "verify", "v2", "tier", "serve", "prof",
];

/// Run one experiment and render it; `None` for an id not in
/// [`EXPERIMENTS`].
pub fn render_experiment(id: &str) -> Option<String> {
    Some(match id {
        "e1" => render(
            "E1 — §V.A/§V.B runtimes (paper: generic 100%, manual 37%, specialized 44%, \
             grouped-generic 110%, grouped-specialized 37%, manual-same-CU 24%)",
            &stencil_study(XS, YS, ITERS),
        ),
        "e2" => e2_listing(),
        "e3" => {
            // E3 is the grouped subset of the study; rendered against the
            // grouped-generic baseline for the §V.B framing.
            let rows = stencil_study(XS, YS, ITERS);
            let grouped: Vec<_> = rows
                .into_iter()
                .filter(|r| r.label.contains("grouped") || r.label.contains("manual"))
                .collect();
            render("E3 — §V.B grouped coefficients", &grouped)
        }
        "e4" => render(
            "E4 — whole-sweep rewriting with controlled unrolling (§V.B outlook)",
            &sweep_study(XS, YS, ITERS, &[1, 2, 4, 8]),
        ),
        "e5" => e5_make_dynamic(),
        "a1" => a1_variants(),
        "a2" => format!(
            "{}\n{}",
            render(
                "A2 — optimization-pass ablation",
                &passes_study(XS, YS, ITERS)
            ),
            render_pass_counts(&pass_counts(XS, YS))
        ),
        "a3" => render(
            "A3 — inlining ablation (§IV: 'the most important aspect')",
            &inline_study(XS, YS, ITERS),
        ),
        "a4" => render(
            "A4 — vectorization headroom (§IV future work; hand-scheduled packed target)",
            &vectorize_study(XS, YS, ITERS),
        ),
        "a5" => render("A5 — guarded specialization (§III.D)", &guard_study()),
        "a6" => render(
            "A6 — rewrite cost (cycles column = guest insts traced, insts column = emitted)",
            &rewrite_cost_study(XS, YS),
        ),
        "p1" => render("P1 — PGAS global-to-local translation", &pgas_study(240, 4)),
        "obs" => render_obs(
            "OBS — end-to-end telemetry (registry, self-counting stubs, explain report)",
            &obs_study(XS, YS),
        ),
        "verify" => render_verify(
            "V1 — static variant verifier (translation validation at publish time)",
            &verify_study(),
        ),
        "v2" => render_equiv(
            "V2 — symbolic equivalence prover (aggressive coalescing behind the proof)",
            &equiv_study(),
        ),
        "life" => render_lifecycle(
            "C3 — failure path & staleness sweeps (negative cache, revalidate)",
            &lifecycle_study(XS, YS, 1_000),
        ),
        "tier" => render_tier(
            "C4 — adaptive tiering under a drifting zipf workload (no operator input)",
            &tier_study(4, 12, 256),
        ),
        "prof" => render_prof(
            "PROF — flight recorder, variant self-time attribution & symbolization",
            &prof_study(XS, YS),
        ),
        "serve" => render_serve(
            "C5 — wait-free serving read path & verified persistence (zipfian torture)",
            &serve_study(4_000, &[1, 2, 4]),
        ),
        _ => return None,
    })
}

/// What `tables` prints for `ids`: each experiment's text and a blank
/// line, in the order given. Independent experiments run on scoped threads.
///
/// # Panics
/// On an id not in [`EXPERIMENTS`].
pub fn render_all(ids: &[&str]) -> String {
    std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|id| scope.spawn(move || render_experiment(id).expect("a known experiment id")))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment thread") + "\n")
            .collect()
    })
}

/// E2: the Figure-6 listing — the generated code of the specialized apply,
/// with the structural properties the paper points out.
fn e2_listing() -> String {
    let mut s = Stencil::new(XS, YS);
    let res = s.specialize_apply().expect("rewrite");
    let lines = brew_core::disasm_result(&s.img, &res);
    let mut out = String::from("## E2 — Figure 6: generated code of the specialized apply\n\n");
    let muls = lines.iter().filter(|l| l.contains("mulsd")).count();
    let branches = lines.iter().filter(|l| l.contains(" j")).count();
    let abs_refs = lines.iter().filter(|l| l.contains("[0x6")).count();
    out.push_str(&format!(
        "{} instructions, {} bytes; {muls} mulsd (5 stencil points), \
         {branches} branches (loop fully unrolled), {abs_refs} absolute data references \
         (coefficients at fixed addresses, as in the paper's i-01)\n\n",
        lines.len(),
        res.code_len
    ));
    for l in &lines {
        out.push_str("    ");
        out.push_str(l);
        out.push('\n');
    }

    // The same listing under the proof-gated aggressive coalescer: the
    // compiler frame and the dead rbp save are gone (V2's gated number).
    let mut sa = Stencil::new(XS, YS);
    let ares = sa
        .specialize_apply_with_passes(OptLevel::Aggressive)
        .expect("aggressive rewrite");
    let alines = brew_core::disasm_result(&sa.img, &ares);
    out.push_str(&format!(
        "\nwith aggressive coalescing (equivalence-proved before publish): \
         {} instructions, {} bytes\n\n",
        alines.len(),
        ares.code_len
    ));
    for l in &alines {
        out.push_str("    ");
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// E5: the failed `makeDynamic` approach of §V.C.
fn e5_make_dynamic() -> String {
    let img = brew_image::Image::new();
    let prog = brew_minic::compile_into(programs::MAKE_DYNAMIC_PROGRAM, &img).unwrap();
    let s5 = prog.global("s5").unwrap();
    let make_dynamic = prog.func("makeDynamic").unwrap();
    let (xs, ys) = (24i64, 24i64);

    let mut out = String::from("## E5 — §V.C: failed attempts to avoid loop unrolling\n\n");

    // Rewrite both sweep shapes with makeDynamic treated as an opaque call
    // (not inlined => its result is unknown, the paper's intent).
    for (name, label) in [
        (
            "sweep_dynamic",
            "as written (loops start at makeDynamic(1))",
        ),
        (
            "sweep_dynamic_transformed",
            "as gcc emitted (fresh counter from 0)",
        ),
    ] {
        let f = prog.func(name).unwrap();
        let req = SpecRequest::new()
            .unknown_int() // m1
            .unknown_int() // m2
            .known_int(xs)
            .known_int(ys)
            .known_mem(s5..s5 + brew_stencil::S_SIZE)
            .ret(RetKind::Void)
            // the linker-visible barrier
            .func(make_dynamic, |o| o.inline = false)
            .max_trace_insts(8_000_000)
            .max_code_bytes(1 << 22);
        let res = Rewriter::new(&img).rewrite(f, &req);
        match res {
            Ok(r) => out.push_str(&format!(
                "{label:<46}: {:>8} bytes, {:>6} blocks  {}\n",
                r.code_len,
                r.stats.blocks,
                if r.stats.blocks > 4 * (ys as u64) {
                    "(fully unrolled — the transformation defeated makeDynamic)"
                } else {
                    "(unrolling avoided)"
                }
            )),
            Err(e) => out.push_str(&format!("{label:<46}: rewrite failed: {e}\n")),
        }
    }

    // The working fix: the brute-force fresh_unknown configuration.
    let f = prog.func("sweep_dynamic_transformed").unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .unknown_int()
        .known_int(xs)
        .known_int(ys)
        .known_mem(s5..s5 + brew_stencil::S_SIZE)
        .ret(RetKind::Void)
        .func(make_dynamic, |o| o.inline = false)
        .func(f, |o| o.fresh_unknown = true)
        .max_trace_insts(8_000_000);
    let r = Rewriter::new(&img)
        .rewrite(f, &req)
        .expect("fresh_unknown rewrite");
    out.push_str(&format!(
        "{:<46}: {:>8} bytes, {:>6} blocks  (bounded: values forced unknown; inlined apply still specialized)\n",
        "with fresh_unknown (the working configuration)",
        r.code_len,
        r.stats.blocks
    ));
    out
}

/// A1: variant-threshold sweep — code size vs speed for the whole-sweep
/// rewrite (world-migration in action).
fn a1_variants() -> String {
    let mut out =
        String::from("## A1 — variant threshold & world migration (whole-sweep rewrite)\n\n");
    out.push_str(&format!(
        "{:<12} {:>12} {:>10} {:>12} {:>14}\n",
        "max_variants", "code bytes", "blocks", "migrations", "model cycles"
    ));
    for unroll in [1u32, 2, 4, 8, 16] {
        let mut s = Stencil::new(XS, YS);
        let res = s.specialize_sweep(unroll).unwrap();
        let mut m = Machine::new();
        let st = s
            .run(&mut m, Variant::SpecializedSweep(res.entry), ITERS)
            .unwrap();
        assert_eq!(s.checksum(ITERS), s.host_checksum(ITERS));
        out.push_str(&format!(
            "{:<12} {:>12} {:>10} {:>12} {:>14}\n",
            unroll, res.code_len, res.stats.blocks, res.stats.migrations, st.cycles
        ));
    }
    out
}
