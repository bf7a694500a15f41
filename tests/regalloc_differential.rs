//! Differential gate for the two rungs of the `OptLevel` ladder that
//! rewrite registers and frame slots — the post-rewrite register allocator
//! (`OptLevel::Regalloc`) and the dataflow pair, constant propagation plus
//! the flags- and slot-aware dead-code sweep (`OptLevel::Dataflow`): every
//! program the differential generator can produce must run
//! **bit-identically** at the rung and at the one below it
//! (`FrameCompression`↔`Regalloc`, `Regalloc`↔`Dataflow`), the rung must
//! never retire more instructions (the dataflow pair: nor emit more
//! bytes), and the static verifier must accept every optimized variant
//! with zero findings.
//!
//! This is the soundness contract: spilling back to the original frame
//! slot, or leaving an instruction as it was, is always legal, so a pass
//! can refuse work but never change behavior — and because it runs before
//! publish, all six verifier rules (round-trip, CFG closure, stack
//! discipline, write containment, provenance, equivalence) must hold on
//! its output exactly as they do on unoptimized code.

use brew_core::passes::run_passes;
use brew_suite::prelude::*;
use brew_suite::static_verify::{verify, VerifyOptions};
use proptest::prelude::*;

#[path = "../crates/verify/tests/corpus/mod.rs"]
mod corpus;
#[path = "progs.rs"]
mod progs;

/// The rung below `level`: the comparison isolates what one rung adds.
fn below(level: OptLevel) -> OptLevel {
    OptLevel::ALL[level as usize - 1]
}

/// Rewrite `f` twice — below `level`, then at it — and return both results.
/// Returns `None` when tracing itself faults (a legitimate outcome that
/// must be identical for both configurations).
fn rewrite_pair(
    level: OptLevel,
    img: &Image,
    f: u64,
    req: &SpecRequest,
) -> Option<(RewriteResult, RewriteResult)> {
    let off = Rewriter::new(img).rewrite(f, &req.clone().passes(below(level)));
    let on = Rewriter::new(img).rewrite(f, &req.clone().passes(level));
    match (off, on) {
        (Ok(off), Ok(on)) => {
            if level == OptLevel::Dataflow {
                assert!(
                    on.code_len <= off.code_len,
                    "the dataflow passes grew the code: {} -> {} bytes",
                    off.code_len,
                    on.code_len
                );
            }
            Some((off, on))
        }
        // The passes run after tracing: a trace fault cannot depend on
        // the pass selection.
        (Err(RewriteError::TraceFault { .. }), Err(RewriteError::TraceFault { .. })) => None,
        (off, on) => panic!("pass selection changed the rewrite outcome: {off:?} vs {on:?}"),
    }
}

/// The verifier must have zero false positives on optimized code: the
/// passes only rename frame slots to registers, fold what is constant and
/// drop what is dead, all of which the rules permit (and the equivalence
/// rule proves).
fn assert_verifier_clean(img: &Image, f: u64, req: &SpecRequest, res: &RewriteResult) {
    let report = verify(img, f, req, res, &VerifyOptions::default());
    assert!(
        report.passed(),
        "verifier false positive on optimized variant: {:?}",
        report.first_error()
    );
}

/// The same expression AST as `tests/differential.rs` (private there):
/// integer arithmetic with a never-zero divisor over a, b, c, t.
#[derive(Debug, Clone)]
enum E {
    A,
    B,
    C,
    T,
    Lit(i8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    DivSafe(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::C => "c".into(),
            E::T => "t".into(),
            E::Lit(v) => format!("({v})"),
            E::Add(x, y) => format!("({} + {})", x.render(), y.render()),
            E::Sub(x, y) => format!("({} - {})", x.render(), y.render()),
            E::Mul(x, y) => format!("({} * {})", x.render(), y.render()),
            E::DivSafe(x, y) => {
                format!("({} / (({}) % 13 + 14))", x.render(), y.render())
            }
            E::Lt(x, y) => format!("({} < {})", x.render(), y.render()),
            E::Neg(x) => format!("(-{})", x.render()),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::A),
        Just(E::B),
        Just(E::C),
        Just(E::T),
        any::<i8>().prop_map(E::Lit),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Add(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Sub(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Mul(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::DivSafe(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| E::Lt(Box::new(x), Box::new(y))),
            inner.prop_map(|x| E::Neg(Box::new(x))),
        ]
    })
}

/// Integer corpus: branches, a bounded loop, safe division — under
/// every known/unknown marking. Both variants must agree with the
/// original and with each other on every probe, the pass must never
/// execute more instructions than the code without it, and the verifier
/// must pass the optimized variant.
#[allow(clippy::too_many_arguments)]
fn int_program_case(
    level: OptLevel,
    init: E,
    cond: E,
    then_e: E,
    loop_e: E,
    loop_n: u8,
    spec_mask: u8,
    pins: [i64; 3],
    probes: Vec<[i64; 3]>,
) -> Result<(), TestCaseError> {
    let src = format!(
        r#"
        int f(int a, int b, int c) {{
            int t = 0;
            t = {init};
            if ({cond}) {{ t = t + {then_e}; }} else {{ t = t - 3; }}
            for (int i = 0; i < {loop_n}; i++) {{ t += {loop_e}; }}
            return t;
        }}
        "#,
        init = init.render(),
        cond = cond.render(),
        then_e = then_e.render(),
        loop_e = loop_e.render(),
    );
    let img = Image::new();
    let compiled = compile_into(&src, &img).unwrap();
    let f = compiled.func("f").unwrap();

    let mut req = SpecRequest::new().ret(RetKind::Int);
    for (i, &pin) in pins.iter().enumerate() {
        req = if spec_mask & (1 << i) != 0 {
            req.known_int(pin)
        } else {
            req.unknown_int()
        };
    }
    let Some((off, on)) = rewrite_pair(level, &img, f, &req) else {
        return Ok(());
    };
    assert_verifier_clean(&img, f, &req, &on);

    let mut m = Machine::new();
    for probe in &probes {
        let mut vals = *probe;
        for i in 0..3 {
            if spec_mask & (1 << i) != 0 {
                vals[i] = pins[i];
            }
        }
        let call = CallArgs::new().int(vals[0]).int(vals[1]).int(vals[2]);
        let orig = m.call(&img, f, &call);
        let a = m.call(&img, off.entry, &call);
        let b = m.call(&img, on.entry, &call);
        match (&orig, a, b) {
            (Ok(o), Ok(a), Ok(b)) => {
                prop_assert_eq!(o.ret_int, a.ret_int, "unallocated diverged\n{}", src);
                prop_assert_eq!(a.ret_int, b.ret_int, "regalloc changed behavior\n{}", src);
                // "Never make code worse": spill fallback is the
                // identity, so the allocated body cannot retire more
                // instructions than the unallocated one.
                prop_assert!(
                    b.stats.insts <= a.stats.insts,
                    "regalloc grew the dynamic path: {} -> {} insts\n{}",
                    a.stats.insts,
                    b.stats.insts,
                    src
                );
            }
            (Err(_), Err(_), Err(_)) => {}
            (o, a, b) => panic!("divergent fault behavior: {o:?} / {a:?} / {b:?}\n{src}"),
        }
    }
    Ok(())
}

/// Mixed-ABI corpus: a double parameter, an int parameter, and a
/// pointer-to-struct parameter feeding both integer control flow and
/// double arithmetic. Doubles compare by bits.
#[allow(clippy::too_many_arguments)]
fn double_program_case(
    level: OptLevel,
    u: i16,
    w_num: i16,
    iexpr: E,
    loop_n: u8,
    know_a: bool,
    know_x: bool,
    know_p: bool,
    a_pin: i64,
    x_pin: f64,
    probes: Vec<(i64, f64)>,
) -> Result<(), TestCaseError> {
    let src = format!(
        r#"
        struct Pt {{ double w; int u; int v; }};
        struct Pt pt = {{{w:?}, {u}, 7}};
        double f(int a, double x, struct Pt* p) {{
            int b = p->u;
            int c = p->v;
            int t = 0;
            t = {iexpr};
            double acc = x;
            if (t < b) {{ acc = acc * p->w + x; }} else {{ acc = acc - p->w; }}
            for (int i = 0; i < {loop_n}; i++) {{ acc = acc * 0.5 + p->w; }}
            return acc;
        }}
        "#,
        w = w_num as f64 / 16.0,
        iexpr = iexpr.render(),
    );
    let img = Image::new();
    let compiled = compile_into(&src, &img).unwrap();
    let f = compiled.func("f").unwrap();
    let pt = compiled.global("pt").unwrap();

    let mut req = SpecRequest::new().ret(RetKind::F64);
    req = if know_a {
        req.known_int(a_pin)
    } else {
        req.unknown_int()
    };
    req = if know_x {
        req.known_f64(x_pin)
    } else {
        req.unknown_f64()
    };
    req = if know_p {
        req.ptr_to_known(pt, 24)
    } else {
        req.unknown_int()
    };
    let Some((off, on)) = rewrite_pair(level, &img, f, &req) else {
        return Ok(());
    };
    assert_verifier_clean(&img, f, &req, &on);

    let mut m = Machine::new();
    for (pa, px) in &probes {
        let a = if know_a { a_pin } else { *pa };
        let x = if know_x { x_pin } else { *px };
        let call = CallArgs::new().int(a).f64(x).ptr(pt);
        let orig = m.call(&img, f, &call);
        let va = m.call(&img, off.entry, &call);
        let vb = m.call(&img, on.entry, &call);
        match (&orig, va, vb) {
            (Ok(o), Ok(va), Ok(vb)) => {
                prop_assert_eq!(o.ret_f64.to_bits(), va.ret_f64.to_bits(), "{}", src);
                prop_assert_eq!(
                    va.ret_f64.to_bits(),
                    vb.ret_f64.to_bits(),
                    "regalloc changed f64 bits (know a={} x={} p={})\n{}",
                    know_a,
                    know_x,
                    know_p,
                    src
                );
                prop_assert!(vb.stats.insts <= va.stats.insts, "{}", src);
            }
            (Err(_), Err(_), Err(_)) => {}
            (o, a, b) => panic!("divergent fault behavior: {o:?} / {a:?} / {b:?}\n{src}"),
        }
    }
    Ok(())
}

/// `run_passes` replayed on the captured CFG of one request at every
/// `OptLevel`. In debug builds every stage of every replay ends with
/// `PassCx::assert_coherent`: each cached `Effect` against a fresh decode of
/// its instruction, each summarized block against a from-scratch liveness
/// solution. In every build: a replay repeats to the instruction, and the
/// replay at the level the live path ran at removes what the live path
/// removed — the analysis context is per call, nothing rides on the blocks.
fn replay_every_level(img: &Image, f: u64, req: &SpecRequest) {
    let Ok(res) = Rewriter::new(img).rewrite(f, req) else {
        return;
    };
    let cap = res
        .equiv
        .as_ref()
        .expect("a fresh rewrite keeps its capture");
    let ret = req.config().ret;
    for level in OptLevel::ALL {
        let replay = || {
            let mut blocks = cap.blocks.clone();
            let removed = run_passes(&mut blocks, level, cap.frame_escaped, ret);
            let insts: Vec<_> = blocks.into_iter().map(|b| b.insts).collect();
            (removed, insts)
        };
        let first = replay();
        assert_eq!(first, replay(), "{level:?}: a replay repeats");
        if level == req.pass_config() {
            assert_eq!(
                first.0, res.stats.pass_removed,
                "{level:?}: replay = live path"
            );
        }
    }
}

/// The ten `corpus-cold` kernels of the benchmark, the `makeDynamic` sweep
/// of `unroll-cold` and `madd.64`: the twelve kernels the pass pipeline is
/// measured on.
#[test]
fn passes_replay_coherently_on_the_twelve_kernels() {
    let img = Image::new();
    let cold = corpus::cold(&img);
    for case in &cold {
        replay_every_level(&img, case.func, &case.req);
    }
    let madd = cold.iter().find(|c| c.label == "madd.48").unwrap().func;
    let b64 = SpecRequest::new().unknown_int().known_int(64);
    replay_every_level(&img, madd, &b64.ret(RetKind::Int));

    let img = Image::new();
    let prog = compile_into(brew_stencil::programs::MAKE_DYNAMIC_PROGRAM, &img).unwrap();
    let (f, s5) = (
        prog.func("sweep_dynamic_transformed").unwrap(),
        prog.global("s5").unwrap(),
    );
    let req = SpecRequest::new()
        .unknown_int()
        .unknown_int()
        .known_int(10)
        .known_int(8)
        .known_mem(s5..s5 + brew_stencil::S_SIZE)
        .ret(RetKind::Void)
        .func(prog.func("makeDynamic").unwrap(), |o| o.inline = false)
        .max_trace_insts(8_000_000)
        .max_code_bytes(1 << 22);
    replay_every_level(&img, f, &req);
}

/// What the fixed stage order leaves behind: a second `run_passes` over its
/// own output still finds work on three of the ten corpus kernels. Pinned,
/// not asserted away — the numbers are the measured headroom of a
/// driver-owned fixpoint (ROADMAP items 3b and 9) and move only when a
/// stage or the order changes on purpose.
#[test]
fn second_run_of_the_passes_residual_is_pinned() {
    const RESIDUAL: [(&str, u64); 10] = [
        ("apply", 0),
        ("apply_grouped", 0),
        ("poly.16", 0),
        ("madd.48", 0),
        ("dotk", 3),
        ("clamp", 0),
        ("scale", 0),
        ("sum.4", 0),
        ("gsum.64", 12),
        ("sweep_generic.u4", 10),
    ];
    let img = Image::new();
    let seen: Vec<(String, u64)> = corpus::cold(&img)
        .into_iter()
        .map(|c| {
            let res = Rewriter::new(&img).rewrite(c.func, &c.req).unwrap();
            let cap = res.equiv.as_ref().unwrap();
            let mut blocks = cap.blocks.clone();
            let (level, ret) = (c.req.pass_config(), c.req.config().ret);
            run_passes(&mut blocks, level, cap.frame_escaped, ret);
            let again = run_passes(&mut blocks, level, cap.frame_escaped, ret);
            (c.label, again)
        })
        .collect();
    let pinned: Vec<(String, u64)> = RESIDUAL.iter().map(|(l, n)| (l.to_string(), *n)).collect();
    assert_eq!(seen, pinned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The generator corpus of `tests/progs.rs` under every known/unknown
    /// marking, at every level.
    #[test]
    fn passes_replay_coherently_on_the_generator_corpus(
        prog in progs::arb_prog(),
        spec_mask in 0u8..8,
        pins in proptest::array::uniform3(-40i64..40),
    ) {
        let img = Image::new();
        let f = compile_into(&prog.render(), &img).unwrap().func("f").unwrap();
        let mut req = SpecRequest::new().ret(RetKind::Int);
        for (i, &pin) in pins.iter().enumerate() {
            req = if spec_mask & (1 << i) != 0 {
                req.known_int(pin)
            } else {
                req.unknown_int()
            };
        }
        replay_every_level(&img, f, &req);
    }

    #[test]
    fn regalloc_int_programs_bit_identical(
        init in arb_expr(),
        cond in arb_expr(),
        then_e in arb_expr(),
        loop_e in arb_expr(),
        loop_n in 0u8..6,
        spec_mask in 0u8..8,
        pins in proptest::array::uniform3(-40i64..40),
        probes in proptest::collection::vec(proptest::array::uniform3(-50i64..50), 4),
    ) {
        int_program_case(OptLevel::Regalloc, init, cond, then_e, loop_e, loop_n, spec_mask, pins, probes)?;
    }

    #[test]
    fn dataflow_int_programs_bit_identical(
        init in arb_expr(),
        cond in arb_expr(),
        then_e in arb_expr(),
        loop_e in arb_expr(),
        loop_n in 0u8..6,
        spec_mask in 0u8..8,
        pins in proptest::array::uniform3(-40i64..40),
        probes in proptest::collection::vec(proptest::array::uniform3(-50i64..50), 4),
    ) {
        int_program_case(OptLevel::Dataflow, init, cond, then_e, loop_e, loop_n, spec_mask, pins, probes)?;
    }

    /// Mixed-ABI corpus from the issue: a double parameter, an int
    /// parameter, and a pointer-to-struct parameter feeding both integer
    /// control flow and double arithmetic. Doubles compare by bits.
    #[test]
    fn regalloc_doubles_and_struct_pointers_bit_identical(
        u in any::<i16>(),
        w_num in -300i16..300,
        iexpr in arb_expr(),
        loop_n in 0u8..5,
        know_a in any::<bool>(),
        know_x in any::<bool>(),
        know_p in any::<bool>(),
        a_pin in -40i64..40,
        x_pin in -16.0f64..16.0,
        probes in proptest::collection::vec((-50i64..50, -24.0f64..24.0), 4),
    ) {
        double_program_case(
            OptLevel::Regalloc, u, w_num, iexpr, loop_n, know_a, know_x, know_p, a_pin, x_pin, probes,
        )?;
    }

    #[test]
    fn dataflow_doubles_and_struct_pointers_bit_identical(
        u in any::<i16>(),
        w_num in -300i16..300,
        iexpr in arb_expr(),
        loop_n in 0u8..5,
        know_a in any::<bool>(),
        know_x in any::<bool>(),
        know_p in any::<bool>(),
        a_pin in -40i64..40,
        x_pin in -16.0f64..16.0,
        probes in proptest::collection::vec((-50i64..50, -24.0f64..24.0), 4),
    ) {
        double_program_case(
            OptLevel::Dataflow, u, w_num, iexpr, loop_n, know_a, know_x, know_p, a_pin, x_pin, probes,
        )?;
    }

    /// Random stencil descriptors through the Figure-5 pipeline: the
    /// allocated variant agrees bit-exactly with the unallocated one and
    /// with the generic interpretation, and the verifier passes it.
    #[test]
    fn regalloc_random_stencils_bit_identical(
        points in proptest::collection::vec(
            ((-1i64..2), (-1i64..2), -4.0f64..4.0), 1..6),
        seed in any::<u32>(),
    ) {
        let n = points.len();
        let inits: Vec<String> = points
            .iter()
            .map(|(dx, dy, c)| format!("{{{c:?}, {dx}, {dy}}}"))
            .collect();
        let src = format!(
            r#"
            struct P {{ double f; int dx; int dy; }};
            struct S {{ int ps; struct P p[{n}]; }};
            struct S st = {{{n}, {{{init}}}}};
            double apply(double* m, int xs, struct S* s) {{
                double v = 0.0;
                for (int i = 0; i < s->ps; i++) {{
                    struct P* p = &s->p[i];
                    v += p->f * m[p->dx + xs * p->dy];
                }}
                return v;
            }}
            "#,
            init = inits.join(", "),
        );
        let img = Image::new();
        let prog = compile_into(&src, &img).unwrap();
        let apply = prog.func("apply").unwrap();
        let st = prog.global("st").unwrap();
        let xs = 5i64;

        let req = SpecRequest::new()
            .unknown_int()
            .known_int(xs)
            .ptr_to_known(st, 8 + n as u64 * 24)
            .ret(RetKind::F64);
        let (off, on) =
            rewrite_pair(OptLevel::Regalloc, &img, apply, &req).expect("stencil traces cleanly");
        assert_verifier_clean(&img, apply, &req, &on);

        let m0 = img.alloc_heap(25 * 8, 8);
        let mut state = seed as u64 + 1;
        for i in 0..25u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            img.write_f64(m0 + i * 8, ((state >> 33) % 1000) as f64 / 8.0).unwrap();
        }
        let mut m = Machine::new();
        for y in 1..4i64 {
            for x in 1..4i64 {
                let center = m0 + ((y * xs + x) * 8) as u64;
                let args = CallArgs::new().ptr(center).int(xs).ptr(st);
                let orig = m.call(&img, apply, &args).unwrap();
                let a = m.call(&img, off.entry, &args).unwrap();
                let b = m.call(&img, on.entry, &args).unwrap();
                prop_assert_eq!(orig.ret_f64.to_bits(), a.ret_f64.to_bits());
                prop_assert_eq!(a.ret_f64.to_bits(), b.ret_f64.to_bits(),
                    "regalloc changed stencil {:?} at ({},{})", points, x, y);
                prop_assert!(b.stats.insts <= a.stats.insts);
            }
        }
    }
}

/// The §V workload variants the issue names explicitly: the Figure-5
/// stencil `apply` and the §V.B grouped-coefficient `apply_grouped`, both
/// allocated, must verify clean and agree bit-exactly with their
/// unallocated twins on a full interior sweep.
#[test]
fn allocated_stencil_and_grouped_variants_verify_and_agree() {
    let mut st = brew_stencil::Stencil::new(64, 64);

    // Generic apply: off/on pair via the A2 ablation hook.
    let off = st
        .specialize_apply_with_passes(below(OptLevel::Regalloc))
        .unwrap();
    let on = st.specialize_apply_with_passes(OptLevel::Regalloc).unwrap();
    let apply = st.prog.func("apply").unwrap();
    let req = st.apply_request();
    assert_verifier_clean(&st.img, apply, &req, &on);

    // Grouped apply (default passes include the allocator).
    let grouped = st.specialize_apply_grouped().unwrap();
    let apply_grouped = st.prog.func("apply_grouped").unwrap();
    let sg5 = st.sg5();
    let grouped_req = SpecRequest::new()
        .unknown_int()
        .known_int(st.xs)
        .ptr_to_known(sg5, brew_stencil::SG_SIZE)
        .ret(RetKind::F64);
    assert_verifier_clean(&st.img, apply_grouped, &grouped_req, &grouped);

    // Whole-sweep equivalence: every interior point of the seeded matrix.
    let s5 = st.s5();
    let xs = st.xs;
    let m0 = st.m1;
    let mut m = Machine::new();
    for y in 1..(st.ys - 1) {
        for x in 1..(xs - 1) {
            let center = m0 + ((y * xs + x) * 8) as u64;
            let args = CallArgs::new().ptr(center).int(xs).ptr(s5);
            let o = m.call(&st.img, apply, &args).unwrap().ret_f64;
            let a = m.call(&st.img, off.entry, &args).unwrap().ret_f64;
            let b = m.call(&st.img, on.entry, &args).unwrap().ret_f64;
            assert_eq!(
                o.to_bits(),
                a.to_bits(),
                "unallocated diverged at ({x},{y})"
            );
            assert_eq!(a.to_bits(), b.to_bits(), "regalloc diverged at ({x},{y})");
        }
    }
}

/// Both emissions of one request with the dataflow pair off and on, for
/// the named workloads below (which must all trace).
fn dataflow_pair(img: &Image, f: u64, req: &SpecRequest) -> (RewriteResult, RewriteResult) {
    let (off, on) = rewrite_pair(OptLevel::Dataflow, img, f, req).expect("workload traces cleanly");
    assert_verifier_clean(img, f, req, &on);
    (off, on)
}

/// The workloads the dataflow pair was written for — the whole-sweep
/// rewrite under controlled unrolling, the `makeDynamic` sweep that unrolls
/// to its variant threshold, the PGAS sum whose loop world migration keeps,
/// and the served `madd` family: same results to the bit, never more
/// retired instructions, never more bytes, proved equivalent.
#[test]
fn dataflow_sweeps_gsum_and_madd_agree_and_never_grow() {
    use brew_stencil::{Stencil, Variant};

    // sweep_generic.u4: two sweeps ping-ponging the matrices, each
    // emission in a world of its own.
    let sweep_under = |on: bool| {
        let mut s = Stencil::new(16, 12);
        let sweep = s.prog.func("sweep_generic").unwrap();
        let req = s.sweep_request(4);
        let (off_res, on_res) = dataflow_pair(&s.img, sweep, &req);
        let entry = if on { on_res.entry } else { off_res.entry };
        let stats = s
            .run(&mut Machine::new(), Variant::SpecializedSweep(entry), 2)
            .unwrap();
        assert_eq!(s.checksum(2), s.host_checksum(2));
        (s.checksum(2).to_bits(), stats.insts)
    };
    let ((sum_off, insts_off), (sum_on, insts_on)) = (sweep_under(false), sweep_under(true));
    assert_eq!(sum_off, sum_on);
    assert!(insts_on < insts_off, "{insts_off} -> {insts_on} insts");

    // sweep_dynamic_transformed behind the makeDynamic barrier.
    let img = Image::new();
    let prog = compile_into(brew_stencil::programs::MAKE_DYNAMIC_PROGRAM, &img).unwrap();
    let f = prog.func("sweep_dynamic_transformed").unwrap();
    let s5 = prog.global("s5").unwrap();
    let (xs, ys) = (10i64, 8i64);
    let req = SpecRequest::new()
        .unknown_int()
        .unknown_int()
        .known_int(xs)
        .known_int(ys)
        .known_mem(s5..s5 + brew_stencil::S_SIZE)
        .ret(RetKind::Void)
        .func(prog.func("makeDynamic").unwrap(), |o| o.inline = false)
        .max_trace_insts(8_000_000)
        .max_code_bytes(1 << 22);
    let (off, on) = dataflow_pair(&img, f, &req);
    let cells = (xs * ys) as u64;
    let (m1, m2) = (img.alloc_heap(cells * 8, 16), img.alloc_heap(cells * 8, 16));
    let sweep_with = |entry: u64| {
        for i in 0..cells {
            img.write_f64(m1 + i * 8, ((i * 7) % 11) as f64).unwrap();
            img.write_f64(m2 + i * 8, 0.0).unwrap();
        }
        let call = CallArgs::new().ptr(m1).ptr(m2).int(xs).int(ys);
        let out = Machine::new().call(&img, entry, &call).unwrap();
        let result: Vec<u64> = (0..cells)
            .map(|i| img.read_u64(m2 + i * 8).unwrap())
            .collect();
        (result, out.stats.insts)
    };
    let (orig, _) = sweep_with(f);
    let ((res_off, insts_off), (res_on, insts_on)) = (sweep_with(off.entry), sweep_with(on.entry));
    assert_eq!(orig, res_off);
    assert_eq!(res_off, res_on);
    assert!(insts_on <= insts_off, "{insts_off} -> {insts_on} insts");

    // gsum: the loop stays, gread/remote_fetch inline.
    let mut pg = brew_suite::pgas::PgasArray::new(64, 4, 1);
    let gsum = pg.prog.func("gsum").unwrap();
    let (off, on) = dataflow_pair(&pg.img, gsum, &pg.gsum_request());
    let mut m = Machine::new();
    let (generic, _) = pg.gsum_generic(&mut m).unwrap();
    let (sum_off, stats_off) = pg.gsum_with(&mut m, off.entry).unwrap();
    let (sum_on, stats_on) = pg.gsum_with(&mut m, on.entry).unwrap();
    assert_eq!(generic.to_bits(), sum_off.to_bits());
    assert_eq!(sum_off.to_bits(), sum_on.to_bits());
    assert!(stats_on.insts <= stats_off.insts);

    // The madd family: one straight-line variant per known trip count.
    let img = Image::new();
    let prog = compile_into(
        "int madd(int x, int b) { int acc = 0; for (int i = 0; i < b; i++) { \
         int k = (i * 3 + b) * (i * 5 + 7); acc = acc + x + k + i; } return acc; }",
        &img,
    )
    .unwrap();
    let madd = prog.func("madd").unwrap();
    for b in [1i64, 2, 7, 48] {
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(b)
            .ret(RetKind::Int);
        let (off, on) = dataflow_pair(&img, madd, &req);
        let mut m = Machine::new();
        for x in [-1000i64, -1, 0, 3, 999] {
            let call = CallArgs::new().int(x).int(b);
            let orig = m.call(&img, madd, &call).unwrap();
            let a = m.call(&img, off.entry, &call).unwrap();
            let c = m.call(&img, on.entry, &call).unwrap();
            assert_eq!(orig.ret_int, a.ret_int);
            assert_eq!(a.ret_int, c.ret_int, "madd.{b}({x})");
            assert!(c.stats.insts <= a.stats.insts);
        }
    }
}
