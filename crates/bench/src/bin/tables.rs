//! `tables` — regenerate every table/figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p brew-bench --bin tables                  # everything
//! cargo run --release -p brew-bench --bin tables -- e1 e2         # selected
//! cargo run --release -p brew-bench --bin tables -- --exp cache   # one experiment
//! ```
//!
//! Experiment ids follow DESIGN.md §3. Independent experiments run in
//! parallel via `std::thread` scoped threads.

use brew_bench::*;
use brew_core::{RetKind, Rewriter, SpecRequest};
use brew_stencil::{programs, Stencil};
use std::collections::BTreeMap;

fn main() {
    // `--exp` is accepted (and ignored) before any experiment id, so both
    // `tables cache` and `tables --exp cache` spell the same thing.
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--exp").collect();
    let all = [
        "e1", "e2", "e3", "e4", "e5", "a1", "a2", "a3", "a4", "a5", "a6", "p1", "cache", "conc",
        "obs", "life", "verify", "v2", "tier", "serve", "prof",
    ];
    let wanted: Vec<&str> = if args.is_empty() {
        all.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    // Run independent experiments in parallel, print in order.
    let results: BTreeMap<usize, String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, exp) in wanted.iter().enumerate() {
            let exp = exp.to_string();
            handles.push((i, scope.spawn(move || run_experiment(&exp))));
        }
        handles
            .into_iter()
            .map(|(i, h)| (i, h.join().expect("experiment thread")))
            .collect()
    });

    for (_, text) in results {
        println!("{text}");
    }
}

fn run_experiment(exp: &str) -> String {
    match exp {
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
        "a2" => {
            let ladder = render(
                "A2 — optimization-pass ablation",
                &passes_study(XS, YS, ITERS),
            );
            format!(
                "{ladder}\nladder rows : {} (one per OptLevel)\n\n{}",
                brew_core::OptLevel::ALL.len(),
                pass_removed_table(XS, YS)
            )
        }
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
        "cache" => render_cache(
            "C1 — variant-cache amortization (cached re-requests vs the A6 cold rewrite)",
            &cache_study(XS, YS, 1_000),
        ),
        "conc" => render_conc(
            "C2 — shared manager under concurrency (single-flight + sharded hit path)",
            &conc_study(XS, YS, 2_000, &[1, 2, 4, 8]),
        ),
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
            "C3 — failure-path amortization & staleness sweeps (negative cache, revalidate)",
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
        other => format!("unknown experiment `{other}`\n"),
    }
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
        .specialize_apply_with_passes(brew_core::OptLevel::Aggressive)
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
        let mut m = brew_emu::Machine::new();
        let st = s
            .run(
                &mut m,
                brew_stencil::Variant::SpecializedSweep(res.entry),
                ITERS,
            )
            .unwrap();
        assert_eq!(s.checksum(ITERS), s.host_checksum(ITERS));
        out.push_str(&format!(
            "{:<12} {:>12} {:>10} {:>12} {:>14}\n",
            unroll, res.code_len, res.stats.blocks, res.stats.migrations, st.cycles
        ));
    }
    out
}
