//! End-to-end rewriter tests: compile mini-C, rewrite, and differentially
//! test original vs specialized code in the emulator.

use brew_core::{OptLevel, RetKind, Rewriter, SpecRequest};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;
use brew_minic::compile_into;

/// The paper's Figure-4 stencil program.
const STENCIL_SRC: &str = r#"
    struct P { double f; int dx; int dy; };
    struct S { int ps; struct P p[5]; };
    struct S s5 = {5, {{-1.0, 0, 0}, {0.25, -1, 0}, {0.25, 1, 0},
                       {0.25, 0, -1}, {0.25, 0, 1}}};
    double apply(double* m, int xs, struct S* s) {
        double v = 0.0;
        for (int i = 0; i < s->ps; i++) {
            struct P* p = &s->p[i];
            v += p->f * m[p->dx + xs * p->dy];
        }
        return v;
    }
"#;

fn setup(src: &str) -> (Image, brew_minic::Compiled) {
    let img = Image::new();
    let prog = compile_into(src, &img).expect("compile");
    (img, prog)
}

#[test]
fn specialize_identity_params_unknown() {
    // No parameters known: the rewrite is a (cleaned-up) clone.
    let (img, prog) = setup("int add(int a, int b) { return a + b; }");
    let f = prog.func("add").unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .unknown_int()
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    for (a, b) in [(1i64, 2i64), (-5, 5), (i64::MAX, 1), (0, 0)] {
        let orig = m.call(&img, f, &CallArgs::new().int(a).int(b)).unwrap();
        let spec = m
            .call(&img, res.entry, &CallArgs::new().int(a).int(b))
            .unwrap();
        assert_eq!(orig.ret_int, spec.ret_int, "add({a},{b})");
    }
}

#[test]
fn specialize_known_param_bakes_constant() {
    let (img, prog) = setup("int madd(int a, int b, int c) { return a * b + c; }");
    let f = prog.func("madd").unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(7)
        .unknown_int()
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    for (a, c) in [(3i64, 4i64), (0, 0), (-2, 9)] {
        let spec = m
            .call(&img, res.entry, &CallArgs::new().int(a).int(7).int(c))
            .unwrap();
        assert_eq!(spec.ret_int as i64, a * 7 + c);
    }
    // Specialized code must be cheaper than the original.
    let a_orig = Machine::new()
        .call(&img, f, &CallArgs::new().int(3).int(7).int(1))
        .unwrap();
    let a_spec = Machine::new()
        .call(&img, res.entry, &CallArgs::new().int(3).int(7).int(1))
        .unwrap();
    assert!(
        a_spec.stats.cycles < a_orig.stats.cycles,
        "specialized {} vs original {}",
        a_spec.stats.cycles,
        a_orig.stats.cycles
    );
}

#[test]
fn constant_loop_fully_unrolls() {
    // sum(1..=n) with n known: the loop disappears entirely.
    let (img, prog) =
        setup("int sum_to(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }");
    let f = prog.func("sum_to").unwrap();
    let req = SpecRequest::new().known_int(42).ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(42)).unwrap();
    assert_eq!(out.ret_int, 903);
    assert_eq!(out.stats.branches, 0, "no conditional branches survive");
    // In fact the whole body folds to `mov rax, 903; ret`-ish code.
    assert!(out.stats.insts < 10, "got {} instructions", out.stats.insts);
}

#[test]
fn unknown_loop_bound_keeps_loop() {
    let (img, prog) =
        setup("int sum_to(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }");
    let f = prog.func("sum_to").unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .ret(RetKind::Int)
        .default_opts(|o| o.max_variants = 4); // allow a little peeling, then close
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    for n in [0i64, 1, 5, 100, 1000] {
        let orig = m.call(&img, f, &CallArgs::new().int(n)).unwrap();
        let spec = m.call(&img, res.entry, &CallArgs::new().int(n)).unwrap();
        assert_eq!(orig.ret_int, spec.ret_int, "sum_to({n})");
    }
}

#[test]
fn the_paper_stencil_specialization() {
    let (img, prog) = setup(STENCIL_SRC);
    let apply = prog.func("apply").unwrap();
    let s5 = prog.global("s5").unwrap();
    let xs = 8i64;

    // Figure 5: xs known, stencil pointer known with known pointee.
    let req = SpecRequest::new()
        .unknown_int() // matrix pointer
        .known_int(xs)
        .ptr_to_known(s5, 8 + 5 * 24)
        .ret(RetKind::F64);
    let res = Rewriter::new(&img).rewrite(apply, &req).unwrap();

    // Fill a matrix and compare original vs specialized on every interior
    // point.
    let ys = 6i64;
    let mbase = img.alloc_heap((xs * ys * 8) as u64, 8);
    for y in 0..ys {
        for x in 0..xs {
            img.write_f64(
                mbase + ((y * xs + x) * 8) as u64,
                (y * 131 + x * 17) as f64 * 0.25,
            )
            .unwrap();
        }
    }
    let mut m = Machine::new();
    let mut orig_cycles = 0;
    let mut spec_cycles = 0;
    for y in 1..ys - 1 {
        for x in 1..xs - 1 {
            let center = mbase + ((y * xs + x) * 8) as u64;
            let args = CallArgs::new().ptr(center).int(xs).ptr(s5);
            let orig = m.call(&img, apply, &args).unwrap();
            let spec = m.call(&img, res.entry, &args).unwrap();
            assert_eq!(orig.ret_f64, spec.ret_f64, "at ({x},{y})");
            orig_cycles += orig.stats.cycles;
            spec_cycles += spec.stats.cycles;
        }
    }
    // The paper reports the specialized version at 44% of the generic
    // runtime (§V.A). Require at least a 1.8x model-cycle improvement.
    assert!(
        spec_cycles * 18 <= orig_cycles * 10,
        "specialized {spec_cycles} vs original {orig_cycles} cycles"
    );

    // Figure 6 structure: no loop, exactly 5 multiplies, coefficients
    // referenced at absolute data addresses.
    let mut m2 = Machine::new();
    let center = mbase + ((xs + 1) * 8) as u64;
    let out = m2
        .call(
            &img,
            res.entry,
            &CallArgs::new().ptr(center).int(xs).ptr(s5),
        )
        .unwrap();
    assert_eq!(out.stats.branches, 0, "loop fully unrolled");
    assert_eq!(out.stats.fp_ops, 10, "5 muls + 5 adds");
    assert_eq!(out.stats.calls, 0);
}

#[test]
fn stencil_sweep_differential() {
    // Whole-sweep rewrite with bounded unrolling (the §V.B configuration).
    let src = format!(
        "{STENCIL_SRC}
        void sweep(double* m1, double* m2, int xs, int ys) {{
            for (int y = 1; y < ys - 1; y++)
                for (int x = 1; x < xs - 1; x++)
                    m2[y * xs + x] = apply(&m1[y * xs + x], xs, &s5);
        }}"
    );
    let (img, prog) = setup(&src);
    let sweep = prog.func("sweep").unwrap();
    let s5 = prog.global("s5").unwrap();
    let (xs, ys) = (7i64, 6i64);

    let req = SpecRequest::new()
        .unknown_int() // m1
        .unknown_int() // m2
        .known_int(xs)
        .known_int(ys)
        .known_mem(s5..s5 + 8 + 5 * 24)
        .ret(RetKind::Void)
        // Avoid full unrolling of the sweep loops: force branches unknown
        // in sweep itself; apply (inlined) still specializes.
        .func(sweep, |o| {
            o.branch_unknown = true;
            o.max_variants = 4;
        });
    let res = Rewriter::new(&img).rewrite(sweep, &req).unwrap();

    let m1 = img.alloc_heap((xs * ys * 8) as u64, 8);
    let m2a = img.alloc_heap((xs * ys * 8) as u64, 8);
    let m2b = img.alloc_heap((xs * ys * 8) as u64, 8);
    for i in 0..xs * ys {
        img.write_f64(m1 + (i * 8) as u64, ((i * 37) % 19) as f64 * 0.5)
            .unwrap();
    }
    let mut m = Machine::new();
    let orig = m
        .call(
            &img,
            sweep,
            &CallArgs::new().ptr(m1).ptr(m2a).int(xs).int(ys),
        )
        .unwrap();
    let spec = m
        .call(
            &img,
            res.entry,
            &CallArgs::new().ptr(m1).ptr(m2b).int(xs).int(ys),
        )
        .unwrap();
    for i in 0..xs * ys {
        let a = img.read_f64(m2a + (i * 8) as u64).unwrap();
        let b = img.read_f64(m2b + (i * 8) as u64).unwrap();
        assert_eq!(a, b, "sweep output differs at {i}");
    }
    assert!(
        spec.stats.cycles < orig.stats.cycles,
        "sweep specialization should pay off: {} vs {}",
        spec.stats.cycles,
        orig.stats.cycles
    );
}

#[test]
fn fresh_unknown_prevents_unrolling() {
    let (img, prog) =
        setup("int sum_to(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }");
    let f = prog.func("sum_to").unwrap();
    let req = SpecRequest::new()
        .known_int(1000)
        .ret(RetKind::Int)
        .func(f, |o| o.fresh_unknown = true);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    // Despite n being known, the loop is not unrolled (§V.C brute force).
    assert!(
        res.code_len < 400,
        "code stays small: {} bytes",
        res.code_len
    );
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(1000)).unwrap();
    assert_eq!(out.ret_int, 500500);
    assert!(out.stats.branches >= 1000, "loop still iterates");
}

#[test]
fn inlining_removes_call_overhead() {
    let src = r#"
        int helper(int x) { return x * 3; }
        int outer(int a) { return helper(a) + helper(a + 1); }
    "#;
    let (img, prog) = setup(src);
    let outer = prog.func("outer").unwrap();
    let req = SpecRequest::new().unknown_int().ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(outer, &req).unwrap();
    assert_eq!(res.stats.inlined_calls, 2);
    assert_eq!(res.stats.kept_calls, 0);

    let mut m = Machine::new();
    for a in [0i64, 1, -7, 1000] {
        let orig = m.call(&img, outer, &CallArgs::new().int(a)).unwrap();
        let spec = m.call(&img, res.entry, &CallArgs::new().int(a)).unwrap();
        assert_eq!(orig.ret_int, spec.ret_int);
        assert_eq!(spec.stats.calls, 0, "no calls left");
        assert!(spec.stats.cycles < orig.stats.cycles);
    }
}

#[test]
fn no_inline_keeps_call_with_compensation() {
    let src = r#"
        int helper(int x) { return x * 3; }
        int outer(int a) { return helper(a + 2); }
    "#;
    let (img, prog) = setup(src);
    let outer = prog.func("outer").unwrap();
    let helper = prog.func("helper").unwrap();
    let req = SpecRequest::new()
        .known_int(40)
        .ret(RetKind::Int)
        .func(helper, |o| o.inline = false);
    let res = Rewriter::new(&img).rewrite(outer, &req).unwrap();
    assert_eq!(res.stats.kept_calls, 1);
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(40)).unwrap();
    assert_eq!(out.ret_int, 126);
    assert_eq!(out.stats.calls, 1, "the helper call survives");
}

#[test]
fn indirect_call_devirtualized() {
    let src = r#"
        typedef int (*op_t)(int, int);
        int add(int a, int b) { return a + b; }
        int call_it(op_t f, int a, int b) { return f(a, b); }
    "#;
    let (img, prog) = setup(src);
    let call_it = prog.func("call_it").unwrap();
    let add = prog.func("add").unwrap();
    let req = SpecRequest::new()
        .known_int(add as i64)
        .unknown_int()
        .unknown_int()
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(call_it, &req).unwrap();
    let mut m = Machine::new();
    let out = m
        .call(&img, res.entry, &CallArgs::new().ptr(add).int(20).int(22))
        .unwrap();
    assert_eq!(out.ret_int, 42);
    assert_eq!(out.stats.calls, 0, "indirect call inlined away");
}

#[test]
fn failure_is_recoverable_bad_code() {
    let img = Image::new();
    // Garbage bytes as a "function".
    let junk = img.alloc_code(&[0x06, 0x07, 0x08]);
    let req = SpecRequest::new();
    let err = Rewriter::new(&img).rewrite(junk, &req).unwrap_err();
    assert!(matches!(err, brew_core::RewriteError::Undecodable { .. }));
}

#[test]
fn infinite_loop_rewrites_to_self_loop() {
    // `jmp self` closes on itself: the world is unchanged across the back
    // edge, so the rewrite is a 5-byte self-loop, not a failure.
    let img = Image::new();
    let mut bytes = Vec::new();
    let base = brew_image::layout::CODE_BASE;
    brew_x86::encode::encode(
        &brew_x86::inst::Inst::JmpRel { target: base },
        base,
        &mut bytes,
    )
    .unwrap();
    img.alloc_code(&bytes);
    let req = SpecRequest::new();
    let res = Rewriter::new(&img).rewrite(base, &req).unwrap();
    assert_eq!(res.code_len, 5);
    let mut m = Machine::new();
    m.fuel = 1000;
    assert!(matches!(
        m.call(&img, res.entry, &CallArgs::new()),
        Err(brew_emu::EmuError::OutOfFuel)
    ));
}

#[test]
fn failure_trace_budget() {
    // A known-bound loop of a billion iterations would fully unroll; the
    // trace budget turns that into a recoverable failure.
    let (img, prog) =
        setup("int sum_to(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }");
    let f = prog.func("sum_to").unwrap();
    let req = SpecRequest::new()
        .known_int(1_000_000_000)
        .ret(RetKind::Int)
        .max_trace_insts(10_000)
        .default_opts(|o| o.max_variants = u32::MAX); // never migrate: force unrolling
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    assert!(
        matches!(
            err,
            brew_core::RewriteError::TraceBudget | brew_core::RewriteError::BlockBudget
        ),
        "{err:?}"
    );
}

#[test]
fn doubles_known_fp_param() {
    let (img, prog) = setup("double scale(double x, double k) { return x * k + 1.0; }");
    let f = prog.func("scale").unwrap();
    let req = SpecRequest::new()
        .unknown_f64()
        .known_f64(2.5)
        .ret(RetKind::F64);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    for x in [0.0f64, 1.5, -3.25, 1e10] {
        let out = m
            .call(&img, res.entry, &CallArgs::new().f64(x).f64(2.5))
            .unwrap();
        assert_eq!(out.ret_f64, x * 2.5 + 1.0);
    }
}

#[test]
fn passes_off_still_correct() {
    let (img, prog) = setup(STENCIL_SRC);
    let apply = prog.func("apply").unwrap();
    let s5 = prog.global("s5").unwrap();
    let xs = 5i64;
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(xs)
        .ptr_to_known(s5, 8 + 5 * 24)
        .ret(RetKind::F64);
    let res_none = Rewriter::new(&img)
        .rewrite(apply, &req.clone().passes(OptLevel::None))
        .unwrap();
    let res_all = Rewriter::new(&img).rewrite(apply, &req).unwrap();

    let mbase = img.alloc_heap((xs * xs * 8) as u64, 8);
    for i in 0..xs * xs {
        img.write_f64(mbase + (i * 8) as u64, (i * i) as f64)
            .unwrap();
    }
    let center = mbase + ((xs + 2) * 8) as u64;
    let mut m = Machine::new();
    let args = CallArgs::new().ptr(center).int(xs).ptr(s5);
    let orig = m.call(&img, apply, &args).unwrap();
    let none = m.call(&img, res_none.entry, &args).unwrap();
    let all = m.call(&img, res_all.entry, &args).unwrap();
    assert_eq!(orig.ret_f64, none.ret_f64);
    assert_eq!(orig.ret_f64, all.ret_f64);
    // Passes strictly help (or at least don't hurt).
    assert!(all.stats.insts <= none.stats.insts);
}

#[test]
fn guard_dispatches() {
    let (img, prog) = setup("int dbl(int x) { return x + x; }");
    let f = prog.func("dbl").unwrap();
    let req = SpecRequest::new().known_int(21).ret(RetKind::Int);
    let mut rw = Rewriter::new(&img);
    let spec = rw.rewrite(f, &req).unwrap();
    let guard = rw.guard(0, 21, spec.entry, f).unwrap();

    let mut m = Machine::new();
    // Hot value: dispatches to the specialized variant.
    let hot = m.call(&img, guard, &CallArgs::new().int(21)).unwrap();
    assert_eq!(hot.ret_int, 42);
    // Cold value: falls back to the original, still correct.
    let cold = m.call(&img, guard, &CallArgs::new().int(5)).unwrap();
    assert_eq!(cold.ret_int, 10);
}
