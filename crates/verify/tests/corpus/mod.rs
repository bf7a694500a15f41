//! The request corpora the structural-tier tests share: the V1 mutation
//! corpus, the V2 proof corpus and the ten `corpus-cold` requests of the
//! benchmark (compiled from the benchmark's own kernel files, so the tests
//! pin what the benchmark measures). Included by path from the integration
//! tests and from the crate's unit tests; not a test target of its own.

#![allow(dead_code)]

use brew_core::{OptLevel, RetKind, SpecRequest};
use brew_image::Image;

/// One request of a corpus.
pub struct Case {
    pub label: String,
    pub func: u64,
    pub req: SpecRequest,
}

fn case(label: impl Into<String>, func: u64, req: SpecRequest) -> Case {
    Case {
        label: label.into(),
        func,
        req,
    }
}

const V1_PROG: &str = r#"
    int hits;
    void tick(int f) { hits += 1; }

    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
    int scale(int x, int k) { return x * k + k / 3; }
    int clamp(int x, int lo, int hi) {
        if (x < lo) return lo;
        if (x > hi) return hi;
        return x;
    }
    int sum(int* p, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += p[i];
        return s;
    }
    int dotk(int* xs, int* ys, int n) {
        tick(0);
        int d = 0;
        for (int i = 0; i < n; i++) d += xs[i] * ys[i];
        return d;
    }
    int held(int x, int k) {
        int y = x * k;
        tick(0);
        return y + x;
    }
    int madd(int x, int b) {
        int acc = 0;
        for (int i = 0; i < b; i++) {
            int k = (i * 3 + b) * (i * 5 + 7);
            acc = acc + x + k + i;
        }
        return acc;
    }
"#;

/// Six `i64`s (`100 + 7 i`) in the heap: the known vector `dotk` folds.
fn known_vector(img: &Image) -> u64 {
    let known = img.alloc_heap(6 * 8, 8);
    for i in 0..6 {
        img.write_u64(known + i * 8, 100 + i * 7).unwrap();
    }
    known
}

/// The V1 corpus (`tables --exp verify`, `tests/mutation_harness.rs`).
pub fn v1(img: &Image) -> Vec<Case> {
    let prog = brew_minic::compile_into(V1_PROG, img).unwrap();
    let known = known_vector(img);
    let f = |n: &str| prog.func(n).unwrap();
    let int = || SpecRequest::new().ret(RetKind::Int);
    vec![
        case("poly n=6", f("poly"), int().unknown_int().known_int(6)),
        case(
            "scale k=123456789",
            f("scale"),
            int().unknown_int().known_int(123_456_789),
        ),
        case(
            "clamp unknown bounds",
            f("clamp"),
            int().unknown_int().unknown_int().unknown_int(),
        ),
        case(
            "hooked sum",
            f("sum"),
            int()
                .unknown_int()
                .known_int(4)
                .entry_hook(f("tick"))
                .func(f("tick"), |o| o.inline = false),
        ),
        case(
            "dotk known xs",
            f("dotk"),
            int().ptr_to_known(known, 6 * 8).unknown_int().known_int(6),
        ),
        case(
            "sum n=6 kept loop",
            f("sum"),
            int().unknown_int().known_int(6).func(f("sum"), |o| {
                o.branch_unknown = true;
                o.max_variants = 2;
            }),
        ),
        // `x` and `y` are live across the kept call: their spills must stay
        // in memory — the site of the dropped-spill-store mutant.
        case(
            "held across a kept call",
            f("held"),
            int()
                .unknown_int()
                .known_int(3)
                .func(f("tick"), |o| o.inline = false),
        ),
        // Unrolled straight-line sums: the cleanup folds the immediates of
        // 48 iterations into a few small ones, the dropped-addend sites.
        case("madd b=48", f("madd"), int().unknown_int().known_int(48)),
    ]
}

const V2_PROG: &str = r#"
    int hits;
    void tick(int f) { hits += 1; }

    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
    int diffsq(int a, int b) { int d = a - b; return d * d; }
    double fdiff(double a, double b, double c) { return (a - b) / c; }
    int modsum(int a, int b, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += (a * i + b) / (i + 1);
        return s;
    }
    int sum(int* p, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += p[i];
        return s;
    }
    int held(int x, int k) {
        int y = x * k;
        tick(0);
        return y + x;
    }
"#;

/// The pass configurations V2 proves every function under.
pub fn pass_points() -> [(&'static str, OptLevel); 3] {
    [
        ("all", OptLevel::default()),
        ("aggr", OptLevel::Aggressive),
        ("none", OptLevel::None),
    ]
}

/// The V2 corpus (`tables --exp equiv`): six functions at every pass point.
pub fn v2(img: &Image) -> Vec<Case> {
    let prog = brew_minic::compile_into(V2_PROG, img).unwrap();
    let f = |n: &str| prog.func(n).unwrap();
    let int = || SpecRequest::new().ret(RetKind::Int);
    let base = [
        case("poly n=6", f("poly"), int().unknown_int().known_int(6)),
        case("diffsq", f("diffsq"), int().unknown_int().unknown_int()),
        case(
            "fdiff c=3.0",
            f("fdiff"),
            SpecRequest::new()
                .unknown_f64()
                .unknown_f64()
                .known_f64(3.0)
                .ret(RetKind::F64),
        ),
        case(
            "modsum n=5",
            f("modsum"),
            int().unknown_int().unknown_int().known_int(5),
        ),
        case(
            "sum n=6 kept loop",
            f("sum"),
            int().unknown_int().known_int(6).func(f("sum"), |o| {
                o.branch_unknown = true;
                o.max_variants = 2;
            }),
        ),
        // Reloads survive the passes only across the kept call: the site
        // of the stale-slot-reg mutant.
        case(
            "held across a kept call",
            f("held"),
            int()
                .unknown_int()
                .known_int(3)
                .func(f("tick"), |o| o.inline = false),
        ),
    ];
    base.iter()
        .flat_map(|c| {
            pass_points().map(|(p, pc)| {
                case(
                    format!("{} [{p}]", c.label),
                    c.func,
                    c.req.clone().passes(pc),
                )
            })
        })
        .collect()
}

const STENCIL: &str = include_str!("../../../../benchmark/kernels/stencil.c");
const PGAS: &str = include_str!("../../../../benchmark/kernels/pgas.c");
const SERVE: &str = include_str!("../../../../benchmark/kernels/serve.c");
const SMALL: &str = include_str!("../../../../benchmark/kernels/small.c");

/// Byte size of `struct S` / `struct SG` / `struct Dist` in the kernels.
pub const S_SIZE: u64 = 8 + 5 * 24;
const SG_SIZE: u64 = 8 + 2 * 80;
const DIST_SIZE: u64 = 24;

/// The ten requests of the benchmark's `corpus-cold` workload, in its key
/// order, over one image compiled as the benchmark compiles it. Matrix and
/// probe contents are unknown memory to every request, so they are left
/// zero; `xs` = `ys` = 16.
pub fn cold(img: &Image) -> Vec<Case> {
    let mut syms = std::collections::HashMap::new();
    for src in [STENCIL, PGAS, SERVE, SMALL] {
        let prog = brew_minic::compile_into(src, img).expect("benchmark kernel compiles");
        for name in prog.funcs.keys() {
            syms.insert(name.clone(), prog.func(name).unwrap());
        }
        for name in prog.globals.keys() {
            syms.insert(name.clone(), prog.global(name).unwrap());
        }
    }
    let sym = |n: &str| syms[n];
    let (xs, ys) = (16i64, 16i64);
    for _ in 0..2 {
        img.alloc_heap((xs * ys * 8) as u64, 16);
    }
    let int = || SpecRequest::new().ret(RetKind::Int);
    let point = |func: &str, desc: &str, size: u64| {
        case(
            func,
            sym(func),
            SpecRequest::new()
                .unknown_int()
                .known_int(xs)
                .ptr_to_known(sym(desc), size)
                .ret(RetKind::F64),
        )
    };
    let known = known_vector(img);
    let dist = sym("dist");
    for (i, v) in [4u64, 16, 1].into_iter().enumerate() {
        img.write_u64(dist + i as u64 * 8, v).unwrap();
    }
    let (s5, sweep, gsum) = (sym("s5"), sym("sweep_generic"), sym("gsum"));
    vec![
        point("apply", "s5", S_SIZE),
        point("apply_grouped", "sg5", SG_SIZE),
        case("poly.16", sym("poly"), int().unknown_int().known_int(16)),
        case("madd.48", sym("madd"), int().unknown_int().known_int(48)),
        case(
            "dotk",
            sym("dotk"),
            int().ptr_to_known(known, 6 * 8).unknown_int().known_int(6),
        ),
        case(
            "clamp",
            sym("clamp"),
            int().unknown_int().unknown_int().unknown_int(),
        ),
        case(
            "scale",
            sym("scale"),
            int().unknown_int().known_int(123_456_789),
        ),
        case("sum.4", sym("sum"), int().unknown_int().known_int(4)),
        case(
            "gsum.64",
            gsum,
            SpecRequest::new()
                .unknown_int()
                .ptr_to_known(dist, DIST_SIZE)
                .unknown_int()
                .ret(RetKind::F64)
                .func(gsum, |o| {
                    o.branch_unknown = true;
                    o.max_variants = 2;
                })
                .max_trace_insts(8_000_000),
        ),
        case(
            "sweep_generic.u4",
            sweep,
            SpecRequest::new()
                .unknown_int()
                .unknown_int()
                .known_int(xs)
                .known_int(ys)
                .known_mem(s5..s5 + S_SIZE)
                .ret(RetKind::Void)
                .max_code_bytes(1 << 22)
                .max_trace_insts(16_000_000)
                .func(sweep, |o| {
                    o.branch_unknown = true;
                    o.max_variants = 4;
                }),
        ),
    ]
}
