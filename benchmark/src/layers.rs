//! Layer probes: the one module that calls below the frozen facade
//! (`Rewriter::rewrite`, `run_passes`, `layout_and_emit_mapped`, `verify`,
//! `verify_region`, `decode_all`/`encode`, `SpecRequest::fingerprint`,
//! `FlightRecorder::record`, `MetricsRegistry::set_enabled`,
//! `build_dispatcher`). Layers are measured from outside, by timing calls
//! into their public functions; a refactor of those internals touches this
//! file and nothing else in the benchmark.

use crate::kernels::{self, observe, Key, World};
use crate::rng::Rng;
use crate::span::{Recorder, SpanId};
use crate::stats::{latency, median};
use brew_core::capture::BlockId;
use brew_core::emit::layout_and_emit_mapped;
use brew_core::passes::run_passes;
use brew_core::{
    Dispatch, FlightKind, FlightRecorder, RewriteError, Rewriter, SpecRequest,
    SpecializationManager,
};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;
use brew_minic::compile_into;
use brew_verify::{verify, verify_region, VerifyOptions};
use brew_x86::{decode_all, encode};
use std::hint::black_box;
use std::time::Instant;

/// Time `f`, record it as a span, return its result and duration in µs.
fn timed<R>(
    rec: &mut Recorder,
    name: &'static str,
    parent: Option<SpanId>,
    request: u32,
    f: impl FnOnce() -> R,
) -> (R, f64, Option<SpanId>) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    let id = rec.add(name, t0, t1, parent, request);
    (r, (t1 - t0).as_secs_f64() * 1e6, id)
}

/// One cold request taken apart. The manager's stages cannot be intercepted
/// from outside, so the traced run replays them on the same image and
/// request: `rewrite` ⊃ {`passes`, `emit`}, `verify` ⊃ {`verify.structural`}.
#[derive(Debug, Clone, Copy)]
pub struct Decomp {
    pub rewrite_us: f64,
    /// `run_passes` replayed on a clone of the captured pre-pass blocks.
    pub passes_us: f64,
    /// `layout_and_emit_mapped` replayed on the optimized blocks.
    pub emit_us: f64,
    /// Both gate tiers (`verify`).
    pub verify_us: f64,
    /// The structural tier alone (`verify_region`).
    pub structural_us: f64,
    pub passed: bool,
}

impl Decomp {
    /// Derived: what is left of the rewrite after passes and emit.
    pub fn trace_us(&self) -> f64 {
        (self.rewrite_us - self.passes_us - self.emit_us).max(0.0)
    }

    /// Derived: the equivalence proof.
    pub fn equiv_us(&self) -> f64 {
        (self.verify_us - self.structural_us).max(0.0)
    }
}

pub fn decompose(
    img: &Image,
    func: u64,
    req: &SpecRequest,
    rec: &mut Recorder,
    rid: u32,
) -> Result<Decomp, RewriteError> {
    let (res, rewrite_us, rw) = timed(rec, "rewrite", None, rid, || {
        Rewriter::new(img).rewrite(func, req)
    });
    let res = res?;
    let cap = res
        .equiv
        .as_ref()
        .ok_or_else(|| RewriteError::Internal("fresh rewrite without its capture".into()))?;
    let mut blocks = cap.blocks.clone();
    let (_, passes_us, _) = timed(rec, "passes", rw, rid, || {
        run_passes(
            &mut blocks,
            req.pass_config(),
            cap.frame_escaped,
            req.config().ret,
        )
    });
    let (emitted, emit_us, _) = timed(rec, "emit", rw, rid, || {
        layout_and_emit_mapped(
            &blocks,
            BlockId(cap.entry_block),
            img,
            req.config().max_code_bytes,
            None,
        )
    });
    emitted?;
    let opts = VerifyOptions::default();
    let (report, verify_us, vs) = timed(rec, "verify", None, rid, || {
        verify(img, func, req, &res, &opts)
    });
    let (_, structural_us, _) = timed(rec, "verify.structural", vs, rid, || {
        verify_region(
            img,
            func,
            req,
            res.entry,
            res.code_len,
            &res.snapshot,
            &opts,
        )
    });
    Ok(Decomp {
        rewrite_us,
        passes_us,
        emit_us,
        verify_us,
        structural_us,
        passed: report.passed(),
    })
}

/// Instructions in an emitted variant (decoded back from the JIT segment).
pub fn static_insts(img: &Image, entry: u64, code_len: usize) -> u64 {
    let window = img.code_window(entry, code_len).unwrap_or_default();
    decode_all(&window[..code_len.min(window.len())], entry)
        .0
        .len() as u64
}

/// `load_variant_bytes` through a manager with no publish gate, in µs.
pub fn ungated_load_us(img: &Image, bytes: &[u8], rec: &mut Recorder) -> Option<f64> {
    let mgr = SpecializationManager::builder().build();
    let (report, dt, _) = timed(rec, "persist.load.ungated", None, 0, || {
        mgr.load_variant_bytes(img, bytes)
    });
    report.ok().filter(|r| r.rejected.is_empty()).map(|_| dt)
}

/// The guarded dispatch stub over every resident guardable variant of `func`.
pub fn build_dispatcher(
    mgr: &SpecializationManager,
    img: &Image,
    func: u64,
) -> Result<u64, RewriteError> {
    mgr.build_dispatcher(img, func, func)
}

/// Switch the manager's metrics registry and flight recorder on or off.
pub fn set_telemetry(mgr: &SpecializationManager, on: bool) {
    mgr.metrics().set_enabled(on);
    mgr.flight().set_enabled(on);
}

/// `x86`: decode every compiled function of the world, then re-encode it.
/// Returns `(decode ns/inst, encode ns/inst, instructions)`.
pub fn x86_probe(world: &World, rec: &mut Recorder) -> (f64, f64, f64) {
    const REPS: usize = 20;
    let windows: Vec<(u64, Vec<u8>)> = world
        .funcs
        .iter()
        .map(|(_, addr, len)| {
            let mut w = world.img.code_window(*addr, *len).unwrap_or_default();
            w.truncate(*len);
            (*addr, w)
        })
        .collect();
    let mut decoded = Vec::new();
    let (_, dec_us, _) = timed(rec, "x86.decode", None, 0, || {
        for _ in 0..REPS {
            decoded = windows
                .iter()
                .map(|(addr, w)| decode_all(black_box(w), *addr).0)
                .collect::<Vec<_>>();
        }
    });
    let insts: usize = decoded.iter().map(Vec::len).sum();
    let mut buf = Vec::with_capacity(16);
    let (_, enc_us, _) = timed(rec, "x86.encode", None, 0, || {
        for _ in 0..REPS {
            for (addr, inst) in decoded.iter().flatten() {
                buf.clear();
                black_box(encode(black_box(inst), *addr, &mut buf).ok());
            }
        }
    });
    let per = |total_us: f64| total_us * 1000.0 / (REPS * insts.max(1)) as f64;
    (per(dec_us), per(enc_us), insts as f64)
}

/// `image`: 8-byte reads and writes at seeded heap addresses and 16-byte
/// code windows, in ns per call.
pub fn image_probe(world: &World, seed: u64, rec: &mut Recorder) -> (f64, f64, f64) {
    const N: usize = 200_000;
    const SPAN: u64 = 1 << 20;
    let img = &world.img;
    let base = img.alloc_heap(SPAN, 16);
    let mut rng = Rng::fork(seed, 0x1A6E);
    let addrs: Vec<u64> = (0..N).map(|_| base + rng.below(SPAN / 8) * 8).collect();
    let ((), write_us, _) = timed(rec, "image.write_u64", None, 0, || {
        for a in &addrs {
            black_box(img.write_u64(*a, *a).is_ok());
        }
    });
    let (sum, read_us, _) = timed(rec, "image.read_u64", None, 0, || {
        addrs
            .iter()
            .fold(0u64, |s, a| s.wrapping_add(img.read_u64(*a).unwrap_or(0)))
    });
    black_box(sum);
    let code: Vec<u64> = (0..N)
        .map(|_| {
            let (_, addr, len) = &world.funcs[rng.below(world.funcs.len() as u64) as usize];
            addr + rng.below(*len as u64)
        })
        .collect();
    let (bytes, window_us, _) = timed(rec, "image.code_window", None, 0, || {
        code.iter()
            .map(|a| img.code_window(*a, 16).map_or(0, |w| w.len()))
            .sum::<usize>()
    });
    black_box(bytes);
    let per = |total_us: f64| total_us * 1000.0 / N as f64;
    (per(read_us), per(write_us), per(window_us))
}

/// `minic`: compile the workload's kernel files into a scratch image.
/// Returns `(µs for all files, code bytes)`.
pub fn minic_probe(sources: &[&str], rec: &mut Recorder) -> (f64, f64) {
    let mut times = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let img = Image::new();
        let (n, dt, _) = timed(rec, "minic.compile", None, 0, || {
            sources
                .iter()
                .map(|src| {
                    compile_into(src, &img).map_or(0, |p| p.func_len.values().sum::<usize>())
                })
                .sum::<usize>()
        });
        times.push(dt);
        bytes = n;
    }
    (median(&times), bytes as f64)
}

/// `emu`: `Machine::call` of an empty function, in ns.
pub fn call_overhead_ns(rec: &mut Recorder) -> f64 {
    const N: usize = 20_000;
    let w = World::new(&[kernels::SMALL]);
    let nop = w.sym("nop");
    let mut m = Machine::new();
    let args = CallArgs::new();
    let (ok, dt, _) = timed(rec, "emu.call_overhead", None, 0, || {
        (0..N)
            .filter(|_| m.call(&w.img, nop, &args).is_ok())
            .count()
    });
    assert_eq!(ok, N, "nop call failed");
    dt * 1000.0 / N as f64
}

/// `manager`: `SpecRequest::fingerprint` over the workload's requests, in ns.
pub fn fingerprint_ns(keys: &[Key], rec: &mut Recorder) -> f64 {
    let reps = (200_000 / keys.len().max(1)).max(1);
    let (sum, dt, _) = timed(rec, "manager.fingerprint", None, 0, || {
        let mut sum = 0u64;
        for _ in 0..reps {
            for k in keys {
                sum ^= black_box(&k.req).fingerprint();
            }
        }
        sum
    });
    black_box(sum);
    dt * 1000.0 / (reps * keys.len().max(1)) as f64
}

/// `manager`: a request the negative cache answers. The first attempt traces
/// and fails on its 16-byte code budget; repeats are denied at lookup cost
/// (p50 — the backoff lets a retry through now and then).
pub fn denied_ns(world: &World, key: &Key, rec: &mut Recorder) -> f64 {
    const N: usize = 2_000;
    let mgr = SpecializationManager::builder().build();
    let doomed = key.req.clone().max_code_bytes(16);
    let t0 = Instant::now();
    let mut samples = Vec::with_capacity(N);
    for _ in 0..N {
        let s = Instant::now();
        let d = mgr.request(&world.img, key.func, &doomed);
        samples.push(s.elapsed().as_nanos() as f64);
        assert!(
            !matches!(d, Ok(Dispatch::Specialized(_))),
            "a 16-byte budget cannot fit {}",
            key.label
        );
    }
    rec.add("manager.denied", t0, Instant::now(), None, 0);
    assert!(mgr.stats().denied > 0, "negative cache never answered");
    latency(&samples).p50
}

/// `telemetry`: one `FlightRecorder::record`, in ns.
pub fn flight_record_ns(rec: &mut Recorder) -> f64 {
    const N: u64 = 500_000;
    let fr = FlightRecorder::new(4096);
    let ((), dt, _) = timed(rec, "telemetry.flight_record", None, 0, || {
        for i in 0..N {
            fr.record(FlightKind::Hit, [i, 0, 0, 0]);
        }
    });
    assert_eq!(fr.recorded(), N);
    dt * 1000.0 / N as f64
}

/// `guard`: build the 8-way dispatch stub over `poly`'s variants and cost a
/// call through it. Returns `(build µs, model cycles per call the stub adds
/// over calling the variant directly, averaged over the 8 cases)`.
pub fn guard_probe(rec: &mut Recorder) -> (f64, f64) {
    let w = World::new(&[kernels::SMALL]);
    let mut rng = Rng::new(0);
    let keys: Vec<Key> = (1..=8).map(|n| kernels::poly(&w, &mut rng, n)).collect();
    let mgr = SpecializationManager::builder().build();
    let entries: Vec<u64> = keys
        .iter()
        .map(|k| match mgr.request(&w.img, k.func, &k.req) {
            Ok(Dispatch::Specialized(v)) => v.entry,
            other => panic!("poly variant failed: {other:?}"),
        })
        .collect();
    let (stub, build_us, _) = timed(rec, "guard.build", None, 0, || {
        build_dispatcher(&mgr, &w.img, w.sym("poly"))
    });
    let stub = stub.expect("dispatch stub");
    let mut m = Machine::new();
    let mut extra = 0i64;
    for (k, entry) in keys.iter().zip(entries) {
        let c = &k.cycle_call;
        let (direct, ds) = observe(&w.img, &mut m, entry, c).expect("direct call");
        let (via, vs) = observe(&w.img, &mut m, stub, c).expect("stub call");
        assert_eq!((direct, via), (c.expect, c.expect), "{}", k.label);
        extra += vs.cycles as i64 - ds.cycles as i64;
    }
    (build_us, extra as f64 / keys.len() as f64)
}
