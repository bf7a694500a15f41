//! The benchmark's own inputs: mini-C kernels (`benchmark/kernels/`), the
//! specialization request each one is rewritten under, seeded probe
//! arguments, and host references in plain Rust. Every variant is checked
//! against the original function on the emulator *and* against the host
//! reference — never against the rewriter's own output.

use crate::rng::Rng;
use brew_core::{RetKind, SpecRequest};
use brew_emu::{CallArgs, EmuError, Machine, Stats};
use brew_image::Image;
use brew_minic::compile_into;
use std::collections::HashMap;

pub const STENCIL: &str = include_str!("../kernels/stencil.c");
pub const UNROLL: &str = include_str!("../kernels/unroll.c");
pub const PGAS: &str = include_str!("../kernels/pgas.c");
pub const SERVE: &str = include_str!("../kernels/serve.c");
pub const SMALL: &str = include_str!("../kernels/small.c");

/// Byte size of `struct S` / `struct SG` / `struct Dist` (mini-C `int` and
/// `double` are both 8 bytes).
const S_SIZE: u64 = 8 + 5 * 24;
const SG_SIZE: u64 = 8 + 2 * 80;
const DIST_SIZE: u64 = 24;

/// One process image with the kernels a workload needs compiled in.
pub struct World {
    pub img: Image,
    syms: HashMap<String, u64>,
    /// `(function, address, encoded bytes)` of every compiled function.
    pub funcs: Vec<(String, u64, usize)>,
}

impl World {
    /// Compile `sources` in order into a fresh image. The compile is
    /// deterministic, so every world of one workload has the same layout —
    /// what lets a checkpoint taken in one be warm-started into another.
    pub fn new(sources: &[&str]) -> World {
        let img = Image::new();
        let mut syms = HashMap::new();
        let mut funcs = Vec::new();
        for src in sources {
            let prog = compile_into(src, &img).expect("benchmark kernel compiles");
            let mut names: Vec<&String> = prog.funcs.keys().collect();
            names.sort();
            for name in names {
                let addr = prog.func(name).expect("listed function");
                funcs.push((name.clone(), addr, prog.func_len[name]));
                syms.insert(name.clone(), addr);
            }
            for name in prog.globals.keys() {
                syms.insert(name.clone(), prog.global(name).expect("listed global"));
            }
        }
        World { img, syms, funcs }
    }

    /// Address of a compiled function or global.
    pub fn sym(&self, name: &str) -> u64 {
        *self
            .syms
            .get(name)
            .unwrap_or_else(|| panic!("kernel symbol `{name}` missing"))
    }

    fn heap_f64(&self, values: &[f64]) -> u64 {
        let addr = self.img.alloc_heap(values.len() as u64 * 8, 16);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.img.write_bytes(addr, &bytes).expect("heap write");
        addr
    }

    fn heap_i64(&self, values: &[i64]) -> u64 {
        let addr = self.img.alloc_heap(values.len() as u64 * 8, 16);
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.img.write_bytes(addr, &bytes).expect("heap write");
        addr
    }
}

/// What a call leaves behind that the checks compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Out {
    Int(i64),
    /// Bit pattern of the returned double.
    F64(u64),
    /// FNV-1a over the bytes of an output region.
    Mem(u64),
}

/// Where a kernel's result is observed.
#[derive(Debug, Clone)]
pub enum Ret {
    Int,
    F64,
    /// An output region, restored to `reset` before the call so a variant
    /// that writes nothing cannot pass on a predecessor's output.
    Mem {
        addr: u64,
        reset: Vec<u8>,
    },
}

/// One emulator call with its expected observation.
#[derive(Debug, Clone)]
pub struct Call {
    pub entry: u64,
    pub args: CallArgs,
    pub ret: Ret,
    pub expect: Out,
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Run `call` (at `entry`, which may be a variant of `call.entry`) and
/// observe its result.
pub fn observe(
    img: &Image,
    m: &mut Machine,
    entry: u64,
    call: &Call,
) -> Result<(Out, Stats), EmuError> {
    if let Ret::Mem { addr, reset } = &call.ret {
        img.write_bytes(*addr, reset)?;
    }
    let out = m.call(img, entry, &call.args)?;
    let seen = match &call.ret {
        Ret::Int => Out::Int(out.ret_int as i64),
        Ret::F64 => Out::F64(out.ret_f64.to_bits()),
        Ret::Mem { addr, reset } => {
            let mut buf = vec![0u8; reset.len()];
            img.read_bytes(*addr, &mut buf)?;
            Out::Mem(fnv(&buf))
        }
    };
    Ok((seen, out.stats))
}

/// One specialization key: a function, the request it is rewritten under,
/// and the calls that check and cost the resulting variant.
#[derive(Debug, Clone)]
pub struct Key {
    /// Unique within a workload; `[A-Za-z0-9_.-]+`.
    pub label: String,
    pub func: u64,
    pub req: SpecRequest,
    /// Seeded probe calls (`entry` is the original function).
    pub probes: Vec<Call>,
    /// A fixed-argument call for model cycles: the same under every seed.
    pub cycle_call: Call,
}

/// Seeded probes per key.
const PROBES: usize = 4;

fn int_key(
    label: String,
    func: u64,
    req: SpecRequest,
    fixed: &[i64],
    probes: Vec<Vec<i64>>,
    host: impl Fn(&[i64]) -> i64,
) -> Key {
    let call = |a: &[i64]| Call {
        entry: func,
        args: a.iter().fold(CallArgs::new(), |c, v| c.int(*v)),
        ret: Ret::Int,
        expect: Out::Int(host(a)),
    };
    Key {
        label,
        func,
        req: req.ret(RetKind::Int),
        probes: probes.iter().map(|a| call(a)).collect(),
        cycle_call: call(fixed),
    }
}

// ---- host references ------------------------------------------------------

/// Figure 4's generic 5-point stencil at element `i`, in the kernel's own
/// operation order.
pub fn ref_apply(m: &[f64], xs: usize, i: usize) -> f64 {
    const S5: [(f64, isize, isize); 5] = [
        (-1.0, 0, 0),
        (0.25, -1, 0),
        (0.25, 1, 0),
        (0.25, 0, -1),
        (0.25, 0, 1),
    ];
    let mut v = 0.0;
    for (f, dx, dy) in S5 {
        v += f * m[(i as isize + dx + xs as isize * dy) as usize];
    }
    v
}

/// §V.B's coefficient-grouped stencil at element `i`.
pub fn ref_grouped(m: &[f64], xs: usize, i: usize) -> f64 {
    let at = |dx: isize, dy: isize| m[(i as isize + dx + xs as isize * dy) as usize];
    // The two groups of `sg5`: (factor, points).
    let groups: [(f64, &[(isize, isize)]); 2] = [
        (-1.0, &[(0, 0)]),
        (0.25, &[(-1, 0), (1, 0), (0, -1), (0, 1)]),
    ];
    let mut v = 0.0;
    for (f, points) in groups {
        let mut t = 0.0;
        for (dx, dy) in points {
            t += at(*dx, *dy);
        }
        v += f * t;
    }
    v
}

/// One sweep of the 5-point stencil over the interior of `m1` into `m2`.
pub fn ref_sweep(m1: &[f64], m2: &mut [f64], xs: usize, ys: usize) {
    for y in 1..ys - 1 {
        for x in 1..xs - 1 {
            m2[y * xs + x] = ref_apply(m1, xs, y * xs + x);
        }
    }
}

pub fn ref_poly(x: i64, n: i64) -> i64 {
    (0..n).fold(1i64, |r, _| r.wrapping_mul(x))
}

pub fn ref_madd(x: i64, b: i64) -> i64 {
    (0..b).fold(0i64, |acc, i| {
        let k = (i * 3 + b).wrapping_mul(i * 5 + 7);
        acc.wrapping_add(x).wrapping_add(k).wrapping_add(i)
    })
}

pub fn ref_churn(x: i64, b: i64) -> i64 {
    (0..b).fold(0i64, |acc, i| {
        acc.wrapping_add(x.wrapping_mul(2)).wrapping_add(i)
    })
}

pub fn ref_scale(x: i64, k: i64) -> i64 {
    x.wrapping_mul(k).wrapping_add(k / 3)
}

pub fn ref_clamp(x: i64, lo: i64, hi: i64) -> i64 {
    if x < lo {
        lo
    } else if x > hi {
        hi
    } else {
        x
    }
}

pub fn ref_dot(xs: &[i64], ys: &[i64]) -> i64 {
    xs.iter()
        .zip(ys)
        .fold(0i64, |d, (a, b)| d.wrapping_add(a.wrapping_mul(*b)))
}

/// The block-distributed sum: every global index goes through the same
/// node/offset translation `gread` performs.
pub fn ref_gsum(storage: &[f64], blocksz: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..storage.len() {
        let node = i / blocksz;
        s += storage[node * blocksz + (i - node * blocksz)];
    }
    s
}

// ---- key builders -----------------------------------------------------------

/// Two `xs`×`ys` matrices of seeded quarters in the heap: `m1` is the sweep
/// input, `m2` starts as a copy of it.
pub struct Matrices {
    pub xs: usize,
    pub ys: usize,
    pub m1: u64,
    pub m2: u64,
    pub host: Vec<f64>,
}

impl Matrices {
    pub fn new(w: &World, xs: usize, ys: usize, rng: &mut Rng) -> Matrices {
        let host: Vec<f64> = (0..xs * ys).map(|_| rng.quarter()).collect();
        Matrices {
            xs,
            ys,
            m1: w.heap_f64(&host),
            m2: w.heap_f64(&host),
            host,
        }
    }

    fn interior(&self, rng: &mut Rng) -> usize {
        let x = rng.range(1, self.xs as i64 - 2) as usize;
        let y = rng.range(1, self.ys as i64 - 2) as usize;
        y * self.xs + x
    }

    /// A whole-matrix sweep through `entry` with `extra` trailing pointer
    /// arguments; every flavour of the stencil must leave the same `m2`.
    pub fn sweep_call(&self, entry: u64, extra: &[u64]) -> Call {
        let mut expect = self.host.clone();
        ref_sweep(&self.host, &mut expect, self.xs, self.ys);
        let bytes = |v: &[f64]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        let args = CallArgs::new()
            .ptr(self.m1)
            .ptr(self.m2)
            .int(self.xs as i64)
            .int(self.ys as i64);
        Call {
            entry,
            args: extra.iter().fold(args, |a, p| a.ptr(*p)),
            ret: Ret::Mem {
                addr: self.m2,
                reset: bytes(&self.host),
            },
            expect: Out::Mem(fnv(&bytes(&expect))),
        }
    }
}

fn point_key(
    w: &World,
    mx: &Matrices,
    rng: &mut Rng,
    func: &str,
    desc: &str,
    desc_size: u64,
    host: fn(&[f64], usize, usize) -> f64,
) -> Key {
    let (f, d) = (w.sym(func), w.sym(desc));
    let call = |i: usize| Call {
        entry: f,
        args: CallArgs::new()
            .ptr(mx.m1 + i as u64 * 8)
            .int(mx.xs as i64)
            .ptr(d),
        ret: Ret::F64,
        expect: Out::F64(host(&mx.host, mx.xs, i).to_bits()),
    };
    Key {
        label: func.into(),
        func: f,
        req: SpecRequest::new()
            .unknown_int()
            .known_int(mx.xs as i64)
            .ptr_to_known(d, desc_size)
            .ret(RetKind::F64),
        probes: (0..PROBES).map(|_| call(mx.interior(rng))).collect(),
        cycle_call: call(mx.xs + 1),
    }
}

/// Figure 5: `apply` specialized for fixed `xs` and the fixed descriptor.
pub fn apply(w: &World, mx: &Matrices, rng: &mut Rng) -> Key {
    point_key(w, mx, rng, "apply", "s5", S_SIZE, ref_apply)
}

/// §V.B: the grouped variant.
pub fn apply_grouped(w: &World, mx: &Matrices, rng: &mut Rng) -> Key {
    point_key(w, mx, rng, "apply_grouped", "sg5", SG_SIZE, ref_grouped)
}

fn sweep_request(w: &World, mx: &Matrices) -> SpecRequest {
    let s5 = w.sym("s5");
    SpecRequest::new()
        .unknown_int()
        .unknown_int()
        .known_int(mx.xs as i64)
        .known_int(mx.ys as i64)
        .known_mem(s5..s5 + S_SIZE)
        .ret(RetKind::Void)
        .max_code_bytes(1 << 22)
        .max_trace_insts(16_000_000)
}

/// §V.B outlook: the whole sweep rewritten with `unroll` loop-body variants
/// before world migration closes the loop.
pub fn sweep_generic(w: &World, mx: &Matrices, unroll: u32) -> Key {
    let f = w.sym("sweep_generic");
    let call = mx.sweep_call(f, &[]);
    Key {
        label: format!("sweep_generic.u{unroll}"),
        func: f,
        req: sweep_request(w, mx).func(f, |o| {
            o.branch_unknown = true;
            o.max_variants = unroll;
        }),
        probes: vec![call.clone()],
        cycle_call: call,
    }
}

/// §V.C: `sweep_dynamic_transformed` behind the `makeDynamic` barrier. Its
/// loop bounds are unknown to the tracer, so the trace unrolls until the
/// per-address variant threshold `max_variants` migrates it — the matrix
/// size does not change the trace, the threshold does.
pub fn sweep_unrolled(w: &World, mx: &Matrices, max_variants: u32) -> Key {
    let f = w.sym("sweep_dynamic_transformed");
    let call = mx.sweep_call(f, &[]);
    Key {
        label: format!("sweep_unrolled.{}x{}.v{max_variants}", mx.xs, mx.ys),
        func: f,
        req: sweep_request(w, mx)
            .func(w.sym("makeDynamic"), |o| o.inline = false)
            .func(f, |o| o.max_variants = max_variants),
        probes: vec![call.clone()],
        cycle_call: call,
    }
}

fn family_key(w: &World, rng: &mut Rng, func: &str, b: i64, host: fn(i64, i64) -> i64) -> Key {
    int_key(
        format!("{func}.{b}"),
        w.sym(func),
        SpecRequest::new().unknown_int().known_int(b),
        &[3, b],
        (0..PROBES)
            .map(|_| vec![rng.range(-1000, 1000), b])
            .collect(),
        |a| host(a[0], a[1]),
    )
}

/// `poly(x, n)` for known `n`: a constant-trip loop unrolled away.
pub fn poly(w: &World, rng: &mut Rng, n: i64) -> Key {
    int_key(
        format!("poly.{n}"),
        w.sym("poly"),
        SpecRequest::new().unknown_int().known_int(n),
        &[3, n],
        (0..PROBES).map(|_| vec![rng.range(-7, 7), n]).collect(),
        |a| ref_poly(a[0], a[1]),
    )
}

/// `madd(x, b)` for known `b`: one straight-line variant per trip count.
pub fn madd(w: &World, rng: &mut Rng, b: i64) -> Key {
    family_key(w, rng, "madd", b, ref_madd)
}

/// `churn(x, b)` for known `b`: the writer's family in `serve-churn`.
pub fn churn(w: &World, rng: &mut Rng, b: i64) -> Key {
    family_key(w, rng, "churn", b, ref_churn)
}

/// `scale(x, k)` for a known 30-bit `k`: multiply and divide fold.
pub fn scale(w: &World, rng: &mut Rng) -> Key {
    const K: i64 = 123_456_789;
    int_key(
        "scale".into(),
        w.sym("scale"),
        SpecRequest::new().unknown_int().known_int(K),
        &[3, K],
        (0..PROBES)
            .map(|_| vec![rng.range(-100_000, 100_000), K])
            .collect(),
        |a| ref_scale(a[0], a[1]),
    )
}

/// `clamp` with nothing known: unknown branches fork the trace.
pub fn clamp(w: &World, rng: &mut Rng) -> Key {
    int_key(
        "clamp".into(),
        w.sym("clamp"),
        SpecRequest::new().unknown_int().unknown_int().unknown_int(),
        &[5, 0, 10],
        (0..PROBES)
            .map(|_| {
                let lo = rng.range(-50, 50);
                vec![rng.range(-100, 100), lo, lo + rng.range(1, 50)]
            })
            .collect(),
        |a| ref_clamp(a[0], a[1], a[2]),
    )
}

/// `sum(p, 4)`: a known trip count over unknown memory.
pub fn sum4(w: &World, rng: &mut Rng) -> Key {
    let data: Vec<i64> = (0..4).map(|_| rng.range(-1000, 1000)).collect();
    let p = w.heap_i64(&data);
    let total = data.iter().sum();
    int_key(
        "sum.4".into(),
        w.sym("sum"),
        SpecRequest::new().unknown_int().known_int(4),
        &[p as i64, 4],
        vec![vec![p as i64, 4]],
        move |_| total,
    )
}

/// `dotk(xs, ys, 6)` with `xs` known memory folded into immediates, `ys`
/// unknown, and the inlined `tick` store kept. The known vector is fixed,
/// not seeded: it ends up in the emitted code.
pub fn dotk(w: &World, rng: &mut Rng) -> Key {
    let known: Vec<i64> = (0..6).map(|i| 100 + i * 7).collect();
    let kp = w.heap_i64(&known);
    let mut vectors = vec![vec![1, -2, 3, -4, 5, -6]];
    for _ in 0..PROBES {
        vectors.push((0..6).map(|_| rng.range(-1000, 1000)).collect());
    }
    let addrs: Vec<(i64, i64)> = vectors
        .iter()
        .map(|v| (w.heap_i64(v) as i64, ref_dot(&known, v)))
        .collect();
    let lookup = addrs.clone();
    int_key(
        "dotk".into(),
        w.sym("dotk"),
        SpecRequest::new()
            .ptr_to_known(kp, 6 * 8)
            .unknown_int()
            .known_int(6),
        &[kp as i64, addrs[0].0, 6],
        addrs[1..]
            .iter()
            .map(|(p, _)| vec![kp as i64, *p, 6])
            .collect(),
        move |a| {
            lookup
                .iter()
                .find(|(p, _)| *p == a[1])
                .expect("probe vector")
                .1
        },
    )
}

/// PGAS `gsum` over `n` elements block-distributed on 4 nodes, with the
/// distribution descriptor known: `gread`/`remote_fetch` inline, the sum
/// loop is kept by forcing its branch unknown.
pub fn gsum(w: &World, rng: &mut Rng, n: usize) -> Key {
    const NODES: usize = 4;
    assert_eq!(n % NODES, 0, "block distribution needs nodes | n");
    let storage: Vec<f64> = (0..n).map(|_| rng.quarter()).collect();
    let sp = w.heap_f64(&storage);
    let (f, dist) = (w.sym("gsum"), w.sym("dist"));
    for (i, v) in [NODES, n / NODES, 1].into_iter().enumerate() {
        w.img
            .write_u64(dist + i as u64 * 8, v as u64)
            .expect("dist write");
    }
    let call = Call {
        entry: f,
        args: CallArgs::new().ptr(sp).ptr(dist).int(n as i64),
        ret: Ret::F64,
        expect: Out::F64(ref_gsum(&storage, n / NODES).to_bits()),
    };
    Key {
        label: format!("gsum.{n}"),
        func: f,
        req: SpecRequest::new()
            .unknown_int()
            .ptr_to_known(dist, DIST_SIZE)
            .unknown_int()
            .ret(RetKind::F64)
            .func(f, |o| {
                o.branch_unknown = true;
                o.max_variants = 2;
            })
            .max_trace_insts(8_000_000),
        probes: vec![call.clone()],
        cycle_call: call,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_references_agree_with_the_original_kernels() {
        // The references are independent of the rewriter, but they must
        // describe the kernels: run every original on the emulator.
        let w = World::new(&[STENCIL, PGAS, SERVE, SMALL]);
        let mut rng = Rng::new(42);
        let mx = Matrices::new(&w, 9, 7, &mut rng);
        let keys = vec![
            apply(&w, &mx, &mut rng),
            apply_grouped(&w, &mx, &mut rng),
            sweep_generic(&w, &mx, 4),
            poly(&w, &mut rng, 16),
            madd(&w, &mut rng, 48),
            churn(&w, &mut rng, 200),
            scale(&w, &mut rng),
            clamp(&w, &mut rng),
            sum4(&w, &mut rng),
            dotk(&w, &mut rng),
            gsum(&w, &mut rng, 64),
        ];
        let mut m = Machine::new();
        for k in &keys {
            for c in k.probes.iter().chain([&k.cycle_call]) {
                let (seen, _) = observe(&w.img, &mut m, c.entry, c).unwrap();
                assert_eq!(seen, c.expect, "{}", k.label);
            }
        }
        // The hand-written flavours leave the same matrix.
        for (sweep, extra) in [
            ("sweep_manual_inline", vec![]),
            ("sweep_ptr2", vec![w.sym("apply_manual")]),
            ("sweep_ptr3", vec![w.sym("apply")]),
        ] {
            let c = mx.sweep_call(w.sym(sweep), &extra);
            assert_eq!(observe(&w.img, &mut m, c.entry, &c).unwrap().0, c.expect);
        }
    }

    #[test]
    fn unrolled_sweep_reference_agrees() {
        let w = World::new(&[UNROLL]);
        let mut rng = Rng::new(1);
        let mx = Matrices::new(&w, 12, 12, &mut rng);
        let k = sweep_unrolled(&w, &mx, 16);
        let (seen, _) = observe(&w.img, &mut Machine::new(), k.func, &k.cycle_call).unwrap();
        assert_eq!(seen, k.cycle_call.expect);
    }

    #[test]
    fn a_silent_variant_fails_the_memory_check() {
        // `nop` writes nothing: the reset must expose it.
        let w = World::new(&[STENCIL, SMALL]);
        let mx = Matrices::new(&w, 8, 8, &mut Rng::new(3));
        let c = mx.sweep_call(w.sym("sweep_generic"), &[]);
        let mut m = Machine::new();
        assert_eq!(observe(&w.img, &mut m, c.entry, &c).unwrap().0, c.expect);
        assert_ne!(
            observe(&w.img, &mut m, w.sym("nop"), &c).unwrap().0,
            c.expect
        );
    }

    #[test]
    fn probes_and_labels_repeat_from_the_seed() {
        let build = |seed| {
            let w = World::new(&[SERVE, SMALL]);
            let mut rng = Rng::new(seed);
            let k = [madd(&w, &mut rng, 5), clamp(&w, &mut rng)];
            k.map(|k| {
                let a: Vec<Vec<u64>> = k.probes.iter().map(|c| c.args.ints().to_vec()).collect();
                (k.label, k.req.fingerprint(), a)
            })
        };
        assert_eq!(build(9), build(9));
        assert_ne!(build(9)[0].2, build(10)[0].2);
        // The request, and so the variant, does not depend on the seed.
        assert_eq!(build(9)[0].1, build(10)[0].1);
        for (label, _, _) in build(9) {
            assert!(label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
