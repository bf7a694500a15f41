//! # brew-core — programmer-controlled binary rewriting at runtime
//!
//! The paper's contribution (Weidendorfer & Breitbart, IPPS 2016): a
//! minimal, low-level API that lets application or library code request a
//! *specialized* version of any compiled function at runtime.
//!
//! ```text
//! brew_initConf(rConf);                        SpecRequest::new()
//! brew_setpar(rConf, 2, BREW_KNOWN);           .known_int(7)
//! brew_setpar(rConf, 3, BREW_PTR_TO_KNOWN);    .ptr_to_known(s5, len)
//! brew_setmem(rConf, start, end, BREW_KNOWN);  .known_mem(start..end)
//! brew_rewrite(rConf, func, 0, xs, &s5);       rw.rewrite(func, &req)
//! ```
//!
//! The rewriter traces one emulated call of the function instruction by
//! instruction, maintaining a known/unknown flag for every value
//! ([`value::Value`]), inlining calls over a shadow stack, following known
//! conditional jumps (which unrolls constant loops), forking at unknown
//! ones with saved known-world states ([`world::World`]), bounding code
//! growth with per-address variant thresholds and world migration, running
//! optimization passes over the captured blocks, and finally laying out,
//! encoding and relocating the result into the image's JIT segment.
//!
//! Rewriting can always fail (§III.G) — every failure is a recoverable
//! [`RewriteError`], and the caller keeps using the original function.
//!
//! ```
//! use brew_core::{RetKind, Rewriter, SpecRequest};
//! use brew_image::Image;
//! use brew_emu::{CallArgs, Machine};
//!
//! let mut img = Image::new();
//! let prog = brew_minic::compile_into(
//!     "int madd(int a, int b, int c) { return a * b + c; }", &mut img).unwrap();
//! let f = prog.func("madd").unwrap();
//!
//! // Specialize for b == 7: bind a treatment *and* a value per parameter.
//! let req = SpecRequest::new()
//!     .unknown_int()
//!     .known_int(7)
//!     .unknown_int()
//!     .ret(RetKind::Int);
//! let spec = Rewriter::new(&mut img).rewrite(f, &req).unwrap();
//!
//! // Drop-in replacement: same signature, parameter 1 is now baked in.
//! let mut m = Machine::new();
//! let out = m.call(&mut img, spec.entry, &CallArgs::new().int(6).int(7).int(-2)).unwrap();
//! assert_eq!(out.ret_int as i64, 40);
//! ```
//!
//! For many specializations of the same code base, drive the rewriter
//! through [`manager::SpecializationManager`]: it memoizes variants by
//! request fingerprint, bounds cached code with cost-aware LRU eviction,
//! emits guarded multi-variant dispatch stubs, and checkpoints its
//! variants to bytes ([`SpecializationManager::save_variant_bytes_report`],
//! [`SpecializationManager::load_variant_bytes`]). Every decision it takes
//! lands in two places, its [`MetricsRegistry`] and its
//! [`FlightRecorder`] journal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod config;
pub mod dataflow;
pub mod emit;
pub mod error;
mod exec;
pub mod guard;
pub mod manager;
pub mod passes;
pub mod persist;
pub mod regalloc;
pub mod request;
pub mod snapshot;
pub mod telemetry;
pub mod tracer;
pub mod value;
pub mod world;

pub use capture::RewriteStats;
pub use config::{ArgValue, FuncOpts, ParamSpec, RetKind, RewriteConfig};
pub use error::RewriteError;
pub use guard::{
    make_guard, make_guard_chain, make_guard_chain_counting, make_guard_counting, CounterPage,
    GuardCase,
};
pub use manager::{
    CacheKey, CacheStats, Dispatch, Invalidation, LoadReport, ManagerBuilder, NegativePolicy,
    PublishGate, PublishRejection, SaveReport, SpecializationManager, TickSummary, TieringConfig,
    Variant,
};
pub use passes::OptLevel;
pub use persist::{PersistError, PersistedVariant};
pub use request::SpecRequest;
pub use snapshot::KnownSnapshot;
pub use telemetry::{
    explain_report, validate_json, DispatchProfiler, FlightDump, FlightKind, FlightRecorder,
    JitSymbol, MetricsRegistry, SpanRecorder, SymbolKind, SymbolTable,
};

use brew_image::{Image, SegKind};
use brew_x86::prelude::*;
use std::time::Instant;
use world::{RegState, World, XmmState};

/// The pre-pass captured CFG of a rewrite, paired with the emitted
/// address of every block — everything a translation validator needs to
/// symbolically compare the optimization pipeline's input against the
/// bytes that actually landed in the JIT segment, and everything the
/// manager needs to re-run the passes conservatively ([`Rewriter::
/// reemit_conservative`]) without tracing again.
#[derive(Debug, Clone)]
pub struct EquivCapture {
    /// The captured blocks exactly as handed to the optimization passes
    /// (entry-hook block included, nothing removed or renamed yet).
    pub blocks: Vec<capture::CapturedBlock>,
    /// Index of the entry block within [`EquivCapture::blocks`].
    pub entry_block: usize,
    /// Whether the trace saw the frame address escape (the passes and the
    /// validator both treat the frame as externally observable then).
    pub frame_escaped: bool,
    /// Emitted start address per block id; `u64::MAX` for blocks the
    /// layout never reached (unreachable from the entry).
    pub block_addrs: Vec<u64>,
}

/// Result of a successful rewrite.
#[derive(Debug, Clone)]
pub struct RewriteResult {
    /// Entry address of the rewritten function (drop-in replacement).
    pub entry: u64,
    /// Emitted code size in bytes.
    pub code_len: usize,
    /// Rewrite statistics.
    pub stats: RewriteStats,
    /// The known-memory bytes this rewrite folded into constants, as a
    /// compact re-checkable snapshot — the basis for staleness detection
    /// and invalidation in the [`manager`].
    pub snapshot: KnownSnapshot,
    /// Pre-pass CFG plus emitted block addresses, for translation
    /// validation and conservative re-emission. Present on every fresh
    /// rewrite; `None` for variants reloaded from a persisted store
    /// (their captured CFG is not serialized, so the equivalence tier is
    /// skipped on warm start).
    pub equiv: Option<EquivCapture>,
}

/// The rewriter. Borrows the image: it reads original code and known data
/// from it and writes specialized code into its JIT segment.
pub struct Rewriter<'a> {
    img: &'a Image,
}

impl<'a> Rewriter<'a> {
    /// Wrap an image for rewriting.
    pub fn new(img: &'a Image) -> Self {
        Rewriter { img }
    }

    /// `brew_rewrite`: generate a specialized variant of the function at
    /// `func` as described by `req` — each parameter's treatment and trace
    /// value bound together, plus configuration and pass selection.
    pub fn rewrite(&mut self, func: u64, req: &SpecRequest) -> Result<RewriteResult, RewriteError> {
        self.rewrite_parts(&req.cfg, func, &req.args, req.level, None)
    }

    /// [`Rewriter::rewrite`] with a structured trace attached: the
    /// returned [`telemetry::SpanRecorder`] holds the span tree of the
    /// rewrite (phases, per-block traces, migration/inlining decisions,
    /// per-pass and per-emit-step timings), exportable as chrome://tracing
    /// JSON or rendered through [`telemetry::explain_report`].
    pub fn rewrite_with_trace(
        &mut self,
        func: u64,
        req: &SpecRequest,
    ) -> Result<(RewriteResult, telemetry::SpanRecorder), RewriteError> {
        let mut rec = telemetry::SpanRecorder::new();
        let res = self.rewrite_parts(&req.cfg, func, &req.args, req.level, Some(&mut rec))?;
        Ok((res, rec))
    }

    /// [`Rewriter::rewrite`] addressing the function by its image symbol.
    pub fn rewrite_named(
        &mut self,
        name: &str,
        req: &SpecRequest,
    ) -> Result<RewriteResult, RewriteError> {
        let func = self
            .img
            .lookup(name)
            .ok_or_else(|| RewriteError::BadConfig(format!("unknown symbol `{name}`")))?;
        self.rewrite(func, req)
    }

    /// The rewrite pipeline proper, over validated parts. `rec` (optional)
    /// collects the span tree of the run.
    fn rewrite_parts(
        &mut self,
        cfg: &RewriteConfig,
        func: u64,
        args: &[ArgValue],
        level: OptLevel,
        mut rec: Option<&mut telemetry::SpanRecorder>,
    ) -> Result<RewriteResult, RewriteError> {
        if cfg.mem_access_hook.is_some()
            && (cfg.func_opts.values().any(|o| o.branch_unknown) || cfg.default_opts.branch_unknown)
        {
            return Err(RewriteError::BadConfig(
                "memory-access hooks cannot be combined with branch_unknown \
                 (handlers clobber flags the forced branches would read)"
                    .into(),
            ));
        }
        if cfg.params.len() > args.len() {
            return Err(RewriteError::BadConfig(format!(
                "{} parameter specs but only {} arguments",
                cfg.params.len(),
                args.len()
            )));
        }
        // Options keyed by an address outside any code are dead weight at
        // best and a misspelled function at worst — reject them.
        for (&addr, _) in cfg.func_opts.iter() {
            if !matches!(
                self.img.segment_of(addr),
                Some(SegKind::Code | SegKind::Jit)
            ) {
                return Err(RewriteError::BadConfig(format!(
                    "func_opts for {addr:#x}: not a code address{}",
                    self.img
                        .symbol_at(addr)
                        .map(|s| format!(" (symbol `{s}`)"))
                        .unwrap_or_default()
                )));
            }
        }

        // Known memory = config ranges + PTR_TO_KNOWN extents.
        let mut known_mem = cfg.known_mem.clone();
        for (i, a) in args.iter().enumerate() {
            if let Some(config::ParamSpec::PtrToKnown { len }) = cfg.params.get(i) {
                let ArgValue::Int(p) = a else {
                    return Err(RewriteError::BadConfig(format!(
                        "parameter {i} marked PTR_TO_KNOWN is not a pointer"
                    )));
                };
                known_mem.push(*p as u64..(*p as u64).saturating_add(*len));
            }
        }

        // Entry world: argument registers carry the known values.
        let world = entry_world(cfg, func, args)?;

        let t_trace = Instant::now();
        let span_trace = rec.as_ref().map(|r| r.now_ns());
        let mut tracer = tracer::Tracer::new(self.img, cfg, known_mem);
        tracer.recorder = rec.as_deref_mut();
        let mut entry_block = tracer.run(func, world)?;

        let mut blocks = std::mem::take(&mut tracer.blocks);
        let escaped = tracer.escaped;
        let mut stats = tracer.stats;
        let (decodes, compares) = (tracer.decodes, tracer.compares);
        let read_set = tracer.read_set.take();
        drop(tracer);
        stats.trace_ns = t_trace.elapsed().as_nanos() as u64;
        if let (Some(r), Some(t0)) = (rec.as_deref_mut(), span_trace) {
            r.complete(
                "trace",
                "phase",
                t0,
                vec![
                    ("blocks".into(), stats.blocks.to_string()),
                    ("guest_insts".into(), stats.traced.to_string()),
                    ("migrations".into(), stats.migrations.to_string()),
                    // The tracer's deterministic work: one decode per
                    // distinct address fetched, full world comparisons of
                    // the variant search (`gates.rs::trace_*`).
                    ("decodes".into(), decodes.to_string()),
                    ("compares".into(), compares.to_string()),
                ],
            );
        }

        // §III.D: inject the profiling call at function begin as a
        // synthetic block in front of the traced entry.
        if let Some(h) = cfg.entry_hook {
            let mut b = capture::CapturedBlock::pending(0);
            b.insts = exec::build_hook_sequence(h, exec::HookArg::Const(func), 0);
            b.term = capture::Terminator::Jmp(entry_block);
            b.traced = true;
            blocks.push(b);
            entry_block = capture::BlockId(blocks.len() - 1);
            stats.hooks_injected += 1;
            if let Some(r) = rec.as_deref_mut() {
                r.instant(
                    "entry-hook",
                    "decision",
                    vec![("func".into(), format!("{func:#x}"))],
                );
            }
        }

        blocks[entry_block.0].is_entry = true;

        // Keep the pre-pass CFG: the translation validator replays it
        // against the emitted bytes, and the manager re-runs the passes
        // over it (conservatively) when an aggressive allocation fails
        // the equivalence proof — no second trace either way.
        let pre_blocks = blocks.clone();

        let t_pass = Instant::now();
        let span_pass = rec.as_ref().map(|r| r.now_ns());
        stats.pass_removed =
            passes::run_passes_traced(&mut blocks, level, escaped, cfg.ret, rec.as_deref_mut());
        stats.pass_ns = t_pass.elapsed().as_nanos() as u64;
        if let (Some(r), Some(t0)) = (rec.as_deref_mut(), span_pass) {
            r.complete(
                "passes",
                "phase",
                t0,
                vec![("removed".into(), stats.pass_removed.to_string())],
            );
        }

        let t_emit = Instant::now();
        let span_emit = rec.as_ref().map(|r| r.now_ns());
        let (entry, code_len, block_addrs) = emit::layout_and_emit_mapped(
            &blocks,
            entry_block,
            self.img,
            cfg.max_code_bytes,
            rec.as_deref_mut(),
        )?;
        stats.emit_ns = t_emit.elapsed().as_nanos() as u64;
        stats.code_bytes = code_len as u64;
        if let (Some(r), Some(t0)) = (rec, span_emit) {
            r.complete(
                "emit",
                "phase",
                t0,
                vec![
                    ("entry".into(), format!("{entry:#x}")),
                    ("bytes".into(), code_len.to_string()),
                ],
            );
        }
        Ok(RewriteResult {
            entry,
            code_len,
            stats,
            snapshot: read_set.snapshot(self.img),
            equiv: Some(EquivCapture {
                blocks: pre_blocks,
                entry_block: entry_block.0,
                frame_escaped: escaped,
                block_addrs,
            }),
        })
    }

    /// Re-run the optimization passes over a previous rewrite's captured
    /// CFG without the proof-carrying ones (at most [`OptLevel::Regalloc`]:
    /// no constant propagation, the dead-code sweeps back to flag-neutral
    /// moves, no aggressive register allocation), and emit the result as
    /// a fresh variant — the publish gate's fallback path when an
    /// emission fails its equivalence proof. No second
    /// trace happens: the captured blocks in `res.equiv` are replayed
    /// as-is, and the returned result keeps the original trace statistics
    /// and snapshot (only pass/emit numbers are re-measured).
    pub fn reemit_conservative(
        &mut self,
        req: &SpecRequest,
        res: &RewriteResult,
    ) -> Result<RewriteResult, RewriteError> {
        let cap = res.equiv.as_ref().ok_or_else(|| {
            RewriteError::BadConfig("no captured CFG to re-emit (persisted variant?)".into())
        })?;
        let mut blocks = cap.blocks.clone();
        let entry_block = capture::BlockId(cap.entry_block);
        let level = req.level.min(OptLevel::Regalloc);
        let mut stats = res.stats;

        let t_pass = Instant::now();
        stats.pass_removed = passes::run_passes(&mut blocks, level, cap.frame_escaped, req.cfg.ret);
        stats.pass_ns = t_pass.elapsed().as_nanos() as u64;

        let t_emit = Instant::now();
        let (entry, code_len, block_addrs) = emit::layout_and_emit_mapped(
            &blocks,
            entry_block,
            self.img,
            req.cfg.max_code_bytes,
            None,
        )?;
        stats.emit_ns = t_emit.elapsed().as_nanos() as u64;
        stats.code_bytes = code_len as u64;
        Ok(RewriteResult {
            entry,
            code_len,
            stats,
            snapshot: res.snapshot.clone(),
            equiv: Some(EquivCapture {
                blocks: cap.blocks.clone(),
                entry_block: cap.entry_block,
                frame_escaped: cap.frame_escaped,
                block_addrs,
            }),
        })
    }

    /// Build a guarded dispatch stub (§III.D): calls `specialized` when
    /// integer parameter `param` equals `expected`, else `original`.
    pub fn guard(
        &mut self,
        param: usize,
        expected: i64,
        specialized: u64,
        original: u64,
    ) -> Result<u64, RewriteError> {
        guard::make_guard(self.img, param, expected, specialized, original)
    }

    /// Build an N-way guarded dispatch chain (§III.D generalized): cases
    /// are tested in order, each a conjunction of integer-parameter
    /// compares guarding one variant; the chain falls through to
    /// `original`.
    pub fn guard_chain(&mut self, cases: &[GuardCase], original: u64) -> Result<u64, RewriteError> {
        guard::make_guard_chain(self.img, cases, original)
    }
}

/// Build the entry [`World`] from the configuration and trace arguments.
fn entry_world(cfg: &RewriteConfig, func: u64, args: &[ArgValue]) -> Result<World, RewriteError> {
    let mut w = World::entry(func);
    let mut int_idx = 0usize;
    let mut fp_idx = 0usize;
    for (i, a) in args.iter().enumerate() {
        let spec = cfg
            .params
            .get(i)
            .copied()
            .unwrap_or(config::ParamSpec::Unknown);
        let known = !matches!(spec, config::ParamSpec::Unknown);
        match a {
            ArgValue::Int(v) => {
                if int_idx >= Gpr::SYSV_ARGS.len() {
                    return Err(RewriteError::BadConfig(
                        "more than 6 integer arguments".into(),
                    ));
                }
                let reg = Gpr::SYSV_ARGS[int_idx];
                int_idx += 1;
                if known {
                    // The caller passes this argument too (same signature),
                    // and under the BREW_KNOWN contract it always equals the
                    // captured value — so the register is synced.
                    w.set_reg(
                        reg,
                        RegState {
                            val: value::Value::Const(*v as u64),
                            synced: true,
                        },
                    );
                }
            }
            ArgValue::F64(v) => {
                if fp_idx >= Xmm::SYSV_ARGS.len() {
                    return Err(RewriteError::BadConfig(
                        "more than 8 floating-point arguments".into(),
                    ));
                }
                let reg = Xmm::SYSV_ARGS[fp_idx];
                fp_idx += 1;
                if known {
                    w.set_xmm(
                        reg,
                        XmmState {
                            lanes: [value::Value::Const(v.to_bits()), value::Value::Unknown],
                            synced: true,
                        },
                    );
                }
            }
        }
    }
    Ok(w)
}

/// Disassemble a rewritten function for inspection (the Figure-6 listing of
/// the paper): `(address, text)` lines.
pub fn disasm_result(img: &Image, res: &RewriteResult) -> Vec<String> {
    let window = img.code_window(res.entry, res.code_len).unwrap_or_default();
    let n = res.code_len.min(window.len());
    let (insts, _) = decode_all(&window[..n], res.entry);
    insts
        .iter()
        .map(|(a, i)| format!("{a:#08x}: {i}"))
        .collect()
}
