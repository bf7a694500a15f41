//! Differential fuzzing of the rewriter: generate random mini-C programs,
//! rewrite them under random configurations, and require the specialized
//! code to behave bit-identically to the original on random inputs (with
//! known-marked parameters pinned to their baked values).
//!
//! This is the soundness backbone of the reproduction: the rewriter's
//! elide/emit/materialize decisions, world migration and compensation code
//! all have to agree with concrete execution.

use brew_suite::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

#[path = "progs.rs"]
mod progs;
use progs::{arb_expr, arb_prog, Prog, E};

/// Run `req` through the `SpecializationManager` three ways — cold miss,
/// warm hit, and re-request after a forced eviction — and return the
/// specialized entries the caller must probe for bit-identical behavior.
/// The warm hit must be pointer-equal to the cold variant (no re-trace);
/// the post-eviction entry is a genuinely fresh rewrite.
///
/// Every manager here runs with the static verifier as its publish gate,
/// so each variant that reaches a caller has also passed translation
/// validation — a rejection would surface as a rewrite error below.
fn manager_entries(img: &Image, f: u64, req: &SpecRequest) -> Vec<u64> {
    let mgr = SpecializationManager::builder()
        .publish_gate(publish_gate())
        .build();
    let cold = mgr.get_or_rewrite(img, f, req).unwrap();
    let warm = mgr.get_or_rewrite(img, f, req).unwrap();
    assert!(
        Arc::ptr_eq(&cold, &warm),
        "warm hit must return the cached variant"
    );
    let st = mgr.stats();
    assert_eq!((st.hits, st.misses), (1, 1));

    // Budget for exactly one variant, then alternate two fingerprints of
    // the same semantics (`max_trace_insts` is fingerprinted but does not
    // change this trace) to force an eviction and a re-trace.
    let tiny = SpecializationManager::builder()
        .budget(cold.code_len)
        .publish_gate(publish_gate())
        .build();
    tiny.get_or_rewrite(img, f, req).unwrap();
    let alt = req.clone().max_trace_insts(3_999_999);
    tiny.get_or_rewrite(img, f, &alt).unwrap();
    assert!(tiny.stats().evictions >= 1, "tiny budget must evict");
    let again = tiny.get_or_rewrite(img, f, req).unwrap();
    assert_eq!(tiny.stats().misses, 3, "post-eviction re-request re-traces");

    vec![cold.entry, again.entry]
}

/// Run one differential check: compile, rewrite with `spec_mask` selecting
/// which parameters are known (pinned to `pins`), compare on `probes`.
fn check(prog: &Prog, spec_mask: u8, pins: [i64; 3], probes: &[[i64; 3]]) {
    let src = prog.render();
    let img = Image::new();
    let compiled = match compile_into(&src, &img) {
        Ok(c) => c,
        Err(e) => panic!("generated program failed to compile: {e}\n{src}"),
    };
    let f = compiled.func("f").unwrap();

    let mut req = SpecRequest::new().ret(RetKind::Int);
    for (i, &pin) in pins.iter().enumerate() {
        req = if spec_mask & (1 << i) != 0 {
            req.known_int(pin)
        } else {
            req.unknown_int()
        };
    }
    let res = match Rewriter::new(&img).rewrite(f, &req) {
        Ok(r) => r,
        // Failure is a legitimate outcome (the caller keeps the original);
        // a division fault during tracing is the expected cause here.
        Err(RewriteError::TraceFault { .. }) => return,
        Err(e) => panic!("unexpected rewrite failure: {e}\n{src}"),
    };
    // The same request through the manager: cold, warm-hit, and
    // post-eviction variants must all agree with the direct rewrite.
    let mut entries = vec![res.entry];
    entries.extend(manager_entries(&img, f, &req));

    let mut m = Machine::new();
    for probe in probes {
        // Pin known params to their baked values; probe the others.
        let mut vals = *probe;
        for i in 0..3 {
            if spec_mask & (1 << i) != 0 {
                vals[i] = pins[i];
            }
        }
        let call = CallArgs::new().int(vals[0]).int(vals[1]).int(vals[2]);
        let orig = m.call(&img, f, &call);
        for &entry in &entries {
            let spec = m.call(&img, entry, &call);
            match (&orig, spec) {
                (Ok(o), Ok(s)) => {
                    assert_eq!(
                        o.ret_int, s.ret_int,
                        "mismatch for {vals:?} (mask {spec_mask:#b})\n{src}"
                    );
                }
                // If the original faults (e.g. idiv overflow), the
                // rewritten version must fault too.
                (Err(_), Err(_)) => {}
                (o, s) => panic!("divergent fault behavior: {o:?} vs {s:?}\n{src}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rewrite_preserves_semantics(
        prog in arb_prog(),
        spec_mask in 0u8..8,
        pins in proptest::array::uniform3(-40i64..40),
        probes in proptest::collection::vec(proptest::array::uniform3(-50i64..50), 4),
    ) {
        check(&prog, spec_mask, pins, &probes);
    }

    #[test]
    fn fresh_unknown_mode_preserves_semantics(
        prog in arb_prog(),
        pins in proptest::array::uniform3(-30i64..30),
        probes in proptest::collection::vec(proptest::array::uniform3(-50i64..50), 3),
    ) {
        let src = prog.render();
        let mut img = Image::new();
        let compiled = compile_into(&src, &img).unwrap();
        let f = compiled.func("f").unwrap();
        let req = SpecRequest::new()
            .known_int(pins[0])
            .unknown_int()
            .unknown_int()
            .ret(RetKind::Int)
            .func(f, |o| o.fresh_unknown = true);
        let res = match Rewriter::new(&img).rewrite(f, &req) {
            Ok(r) => r,
            Err(RewriteError::TraceFault { .. }) => return Ok(()),
            Err(e) => panic!("unexpected rewrite failure: {e}\n{src}"),
        };
        let mut m = Machine::new();
        for probe in &probes {
            let call = CallArgs::new().int(pins[0]).int(probe[1]).int(probe[2]);
            let orig = m.call(&img, f, &call);
            let spec = m.call(&img, res.entry, &call);
            match (orig, spec) {
                (Ok(o), Ok(s)) => prop_assert_eq!(o.ret_int, s.ret_int, "{}", src),
                (Err(_), Err(_)) => {}
                (o, s) => panic!("divergent fault behavior: {o:?} vs {s:?}\n{src}"),
            }
        }
    }

    #[test]
    fn branch_unknown_mode_preserves_semantics(
        prog in arb_prog(),
        pins in proptest::array::uniform3(-30i64..30),
        probes in proptest::collection::vec(proptest::array::uniform3(-50i64..50), 3),
    ) {
        let src = prog.render();
        let mut img = Image::new();
        let compiled = compile_into(&src, &img).unwrap();
        let f = compiled.func("f").unwrap();
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(pins[1])
            .unknown_int()
            .ret(RetKind::Int)
            .func(f, |o| {
                o.branch_unknown = true;
                o.max_variants = 3;
            });
        let res = match Rewriter::new(&img).rewrite(f, &req) {
            Ok(r) => r,
            Err(RewriteError::TraceFault { .. }) => return Ok(()),
            Err(e) => panic!("unexpected rewrite failure: {e}\n{src}"),
        };
        let mut m = Machine::new();
        for probe in &probes {
            let call = CallArgs::new().int(probe[0]).int(pins[1]).int(probe[2]);
            let orig = m.call(&img, f, &call);
            let spec = m.call(&img, res.entry, &call);
            match (orig, spec) {
                (Ok(o), Ok(s)) => prop_assert_eq!(o.ret_int, s.ret_int, "{}", src),
                (Err(_), Err(_)) => {}
                (o, s) => panic!("divergent fault behavior: {o:?} vs {s:?}\n{src}"),
            }
        }
    }

    #[test]
    fn double_functions_differential(
        k in -8.0f64..8.0,
        probes in proptest::collection::vec((-16.0f64..16.0, -16.0f64..16.0), 4),
        known in any::<bool>(),
    ) {
        let src = r#"
            double f(double x, double y, double k) {
                double acc = 0.0;
                if (x < y) { acc = x * k + y; } else { acc = y * k - x; }
                for (int i = 0; i < 3; i++) { acc = acc * 0.5 + k; }
                return acc;
            }
        "#;
        let mut img = Image::new();
        let compiled = compile_into(src, &img).unwrap();
        let f = compiled.func("f").unwrap();
        let mut req = SpecRequest::new().unknown_f64().unknown_f64().ret(RetKind::F64);
        req = if known { req.known_f64(k) } else { req.unknown_f64() };
        let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
        let mut m = Machine::new();
        for (x, y) in &probes {
            let call = CallArgs::new().f64(*x).f64(*y).f64(k);
            let o = m.call(&img, f, &call).unwrap();
            let s = m.call(&img, res.entry, &call).unwrap();
            prop_assert_eq!(o.ret_f64.to_bits(), s.ret_f64.to_bits());
        }
    }
}

/// Second-generation programs: a helper callee (exercising inlining), a
/// global array (exercising known-memory and address substitution), and
/// safe modular indexing.
#[derive(Debug, Clone)]
struct Prog2 {
    helper: E,
    idx: E,
    body: E,
    loop_n: u8,
}

fn arb_prog2() -> impl Strategy<Value = Prog2> {
    (arb_expr(), arb_expr(), arb_expr(), 0u8..5).prop_map(|(helper, idx, body, loop_n)| Prog2 {
        helper,
        idx,
        body,
        loop_n,
    })
}

impl Prog2 {
    fn render(&self) -> String {
        format!(
            r#"
            int table[8] = {{3, 1, 4, 1, 5, 9, 2, 6}};
            int helper(int a, int b, int c) {{
                int t = 0;
                t = {helper};
                return t;
            }}
            int f(int a, int b, int c) {{
                int t = 0;
                for (int i = 0; i < {n}; i++) {{
                    int j = ({idx}) % 8;
                    if (j < 0) {{ j = j + 8; }}
                    t += table[j] + helper({body}, t, i);
                }}
                return t;
            }}
            "#,
            helper = self.helper.render(),
            idx = self.idx.render(),
            body = self.body.render(),
            n = self.loop_n,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calls_and_arrays_differential(
        prog in arb_prog2(),
        spec_mask in 0u8..8,
        pins in proptest::array::uniform3(-20i64..20),
        probes in proptest::collection::vec(proptest::array::uniform3(-30i64..30), 3),
        inline_helper in any::<bool>(),
        know_table in any::<bool>(),
    ) {
        let src = prog.render();
        let mut img = Image::new();
        let compiled = match compile_into(&src, &img) {
            Ok(c) => c,
            Err(e) => panic!("generated program failed to compile: {e}\n{src}"),
        };
        let f = compiled.func("f").unwrap();
        let helper = compiled.func("helper").unwrap();
        let table = compiled.global("table").unwrap();

        let mut req = SpecRequest::new().ret(RetKind::Int);
        for (i, &pin) in pins.iter().enumerate() {
            req = if spec_mask & (1 << i) != 0 {
                req.known_int(pin)
            } else {
                req.unknown_int()
            };
        }
        req = req.func(helper, |o| o.inline = inline_helper);
        if know_table {
            req = req.known_mem(table..table + 64);
        }
        let res = match Rewriter::new(&img).rewrite(f, &req) {
            Ok(r) => r,
            Err(RewriteError::TraceFault { .. }) => return Ok(()),
            Err(e) => panic!("unexpected rewrite failure: {e}\n{src}"),
        };
        let mut entries = vec![res.entry];
        entries.extend(manager_entries(&img, f, &req));

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
            for &entry in &entries {
                let spec = m.call(&img, entry, &call);
                match (&orig, spec) {
                    (Ok(o), Ok(s)) => prop_assert_eq!(
                        o.ret_int, s.ret_int,
                        "{:?} mask={:#b} inline={} know={}\n{}",
                        vals, spec_mask, inline_helper, know_table, src
                    ),
                    (Err(_), Err(_)) => {}
                    (o, s) => panic!("divergent fault behavior: {o:?} vs {s:?}\n{src}"),
                }
            }
        }
    }
}

/// Third-generation programs widening the ABI surface: a double
/// parameter, an int parameter, and a pointer-to-struct parameter whose
/// fields feed both integer control flow and double arithmetic.
#[derive(Debug, Clone)]
struct Prog3 {
    /// Struct field values baked into the global instance.
    u: i16,
    v: i16,
    w_num: i16,
    /// Integer expression over `a` (param), `b`/`c` (struct fields), `t`.
    iexpr: E,
    /// Second integer expression steering a branch.
    cexpr: E,
    loop_n: u8,
}

fn arb_prog3() -> impl Strategy<Value = Prog3> {
    (
        any::<i16>(),
        any::<i16>(),
        -300i16..300,
        arb_expr(),
        arb_expr(),
        0u8..5,
    )
        .prop_map(|(u, v, w_num, iexpr, cexpr, loop_n)| Prog3 {
            u,
            v,
            w_num,
            iexpr,
            cexpr,
            loop_n,
        })
}

impl Prog3 {
    fn render(&self) -> String {
        format!(
            r#"
            struct Pt {{ double w; int u; int v; }};
            struct Pt pt = {{{w:?}, {u}, {v}}};
            double f(int a, double x, struct Pt* p) {{
                int b = p->u;
                int c = p->v;
                int t = 0;
                t = {iexpr};
                double acc = x;
                if (t < b) {{
                    acc = acc * p->w + x;
                }} else {{
                    acc = acc - p->w;
                }}
                for (int i = 0; i < {n}; i++) {{
                    acc = acc * 0.5 + p->w;
                }}
                if ({cexpr} < t) {{
                    acc = acc + 1.0;
                }}
                return acc;
            }}
            "#,
            w = self.w_num as f64 / 16.0,
            u = self.u,
            v = self.v,
            iexpr = self.iexpr.render(),
            cexpr = self.cexpr.render(),
            n = self.loop_n,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mixed-ABI differential: int + double + pointer-to-struct
    /// parameters, under every combination of known/unknown marking,
    /// through both the direct rewrite and the manager (cold / warm /
    /// post-eviction) paths.
    #[test]
    fn doubles_and_struct_pointers_differential(
        prog in arb_prog3(),
        know_a in any::<bool>(),
        know_x in any::<bool>(),
        know_p in any::<bool>(),
        a_pin in -40i64..40,
        x_pin in -16.0f64..16.0,
        probes in proptest::collection::vec((-50i64..50, -24.0f64..24.0), 4),
    ) {
        let src = prog.render();
        let mut img = Image::new();
        let compiled = match compile_into(&src, &img) {
            Ok(c) => c,
            Err(e) => panic!("generated program failed to compile: {e}\n{src}"),
        };
        let f = compiled.func("f").unwrap();
        let pt = compiled.global("pt").unwrap();

        let mut req = SpecRequest::new().ret(RetKind::F64);
        req = if know_a { req.known_int(a_pin) } else { req.unknown_int() };
        req = if know_x { req.known_f64(x_pin) } else { req.unknown_f64() };
        req = if know_p {
            req.ptr_to_known(pt, 24)
        } else {
            req.unknown_int()
        };
        let res = match Rewriter::new(&img).rewrite(f, &req) {
            Ok(r) => r,
            Err(RewriteError::TraceFault { .. }) => return Ok(()),
            Err(e) => panic!("unexpected rewrite failure: {e}\n{src}"),
        };
        let mut entries = vec![res.entry];
        entries.extend(manager_entries(&img, f, &req));

        let mut m = Machine::new();
        for (pa, px) in &probes {
            let a = if know_a { a_pin } else { *pa };
            let x = if know_x { x_pin } else { *px };
            let call = CallArgs::new().int(a).f64(x).ptr(pt);
            let orig = m.call(&img, f, &call);
            for &entry in &entries {
                let spec = m.call(&img, entry, &call);
                match (&orig, spec) {
                    (Ok(o), Ok(s)) => prop_assert_eq!(
                        o.ret_f64.to_bits(), s.ret_f64.to_bits(),
                        "f({}, {}, pt) diverged (know a={} x={} p={})\n{}",
                        a, x, know_a, know_x, know_p, src
                    ),
                    (Err(_), Err(_)) => {}
                    (o, s) => panic!("divergent fault behavior: {o:?} vs {s:?}\n{src}"),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Figure-5 pipeline on *random* stencil descriptors: arbitrary
    /// point counts, offsets and coefficients, specialized and compared
    /// against the generic interpretation on a random matrix.
    #[test]
    fn random_stencils_specialize_faithfully(
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
        let mut img = Image::new();
        let prog = compile_into(&src, &img).unwrap();
        let apply = prog.func("apply").unwrap();
        let st = prog.global("st").unwrap();
        let xs = 5i64;

        let req = SpecRequest::new()
            .unknown_int()
            .known_int(xs)
            .ptr_to_known(st, 8 + n as u64 * 24)
            .ret(RetKind::F64);
        let res = Rewriter::new(&img).rewrite(apply, &req).unwrap();

        // Random 5x5 matrix; probe all interior points.
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
                let spec = m.call(&img, res.entry, &args).unwrap();
                prop_assert_eq!(orig.ret_f64.to_bits(), spec.ret_f64.to_bits(),
                    "at ({},{}) stencil {:?}", x, y, points);
                // Structure: loop unrolled, one multiply per point.
                prop_assert_eq!(spec.stats.branches, 0);
                prop_assert_eq!(spec.stats.fp_ops as usize, 2 * n);
            }
        }
    }
}
