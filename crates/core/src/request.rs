//! `SpecRequest` — the specialization request API.
//!
//! The original `brew_*`-shaped interface split a request across two
//! values: a [`RewriteConfig`] holding *parameter specs* by index and a
//! positional `&[ArgValue]` slice holding the *trace values*. Nothing tied
//! the two together, so a spec and its value could silently drift apart
//! (wrong index, wrong count, wrong slot class). A [`SpecRequest`] binds
//! treatment and value per parameter at the same call site:
//!
//! ```
//! use brew_core::{RetKind, Rewriter, SpecRequest};
//! # let mut img = brew_image::Image::new();
//! # let prog = brew_minic::compile_into(
//! #     "int madd(int a, int b, int c) { return a * b + c; }", &mut img).unwrap();
//! # let f = prog.func("madd").unwrap();
//! let req = SpecRequest::new()
//!     .unknown_int()   // a: varies at runtime
//!     .known_int(7)    // b: baked in
//!     .unknown_int()   // c: varies at runtime
//!     .ret(RetKind::Int);
//! let spec = Rewriter::new(&mut img).rewrite(f, &req).unwrap();
//! # assert!(spec.code_len > 0);
//! ```
//!
//! The request also carries everything else a rewrite needs — known-memory
//! ranges, per-function options, budgets, hooks and the optimization
//! level — so one value fully describes one specialization, and the
//! [`fingerprint`](SpecRequest::fingerprint) over that value is the
//! variant-cache key used by [`crate::manager::SpecializationManager`].

use crate::config::{ArgValue, FuncOpts, ParamSpec, RetKind, RewriteConfig};
use crate::error::RewriteError;
use crate::passes::OptLevel;
use std::ops::Range;

/// A complete, self-contained specialization request: per-parameter
/// treatment *and* trace value, plus the rewrite configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRequest {
    pub(crate) cfg: RewriteConfig,
    pub(crate) args: Vec<ArgValue>,
    pub(crate) level: OptLevel,
}

impl Default for SpecRequest {
    fn default() -> Self {
        Self::new()
    }
}

impl SpecRequest {
    /// Fresh request: no parameters bound yet, integer return, default
    /// options, budgets and passes.
    pub fn new() -> Self {
        SpecRequest {
            cfg: RewriteConfig::new(),
            args: Vec::new(),
            level: OptLevel::default(),
        }
    }

    /// Adopt an existing `(config, args)` pair (what a checkpoint entry
    /// decodes to). Fails with [`RewriteError::BadConfig`] when specs and
    /// values don't line up one-to-one — the drift the builder makes
    /// unrepresentable.
    pub fn from_config(
        cfg: &RewriteConfig,
        args: &[ArgValue],
        level: OptLevel,
    ) -> Result<Self, RewriteError> {
        if cfg.params.len() > args.len() {
            return Err(RewriteError::BadConfig(format!(
                "parameter {} has a spec but no trace value ({} specs, {} arguments)",
                args.len(),
                cfg.params.len(),
                args.len()
            )));
        }
        if args.len() > cfg.params.len() {
            return Err(RewriteError::BadConfig(format!(
                "argument {} has no parameter spec ({} arguments, {} specs); \
                 bind every parameter explicitly (SpecRequest::unknown_int for \
                 runtime-varying ones)",
                cfg.params.len(),
                args.len(),
                cfg.params.len()
            )));
        }
        Ok(SpecRequest {
            cfg: cfg.clone(),
            args: args.to_vec(),
            level,
        })
    }

    fn push(mut self, spec: ParamSpec, arg: ArgValue) -> Self {
        let idx = self.args.len();
        self.cfg.set_param(idx, spec);
        self.args.push(arg);
        self
    }

    /// Next parameter: integer/pointer whose value varies at runtime.
    pub fn unknown_int(self) -> Self {
        self.push(ParamSpec::Unknown, ArgValue::Int(0))
    }

    /// Next parameter: integer/pointer fixed to `v` for all future calls
    /// (`BREW_KNOWN`).
    pub fn known_int(self, v: i64) -> Self {
        self.push(ParamSpec::Known, ArgValue::Int(v))
    }

    /// Next parameter: double whose value varies at runtime.
    pub fn unknown_f64(self) -> Self {
        self.push(ParamSpec::Unknown, ArgValue::F64(0.0))
    }

    /// Next parameter: double fixed to `v` for all future calls.
    pub fn known_f64(self, v: f64) -> Self {
        self.push(ParamSpec::Known, ArgValue::F64(v))
    }

    /// Next parameter: pointer fixed to `addr`, with `len` bytes behind it
    /// immutable known data (`BREW_PTR_TO_KNOWN`).
    pub fn ptr_to_known(self, addr: u64, len: u64) -> Self {
        self.push(ParamSpec::PtrToKnown { len }, ArgValue::Int(addr as i64))
    }

    /// Set the return class.
    pub fn ret(mut self, ret: RetKind) -> Self {
        self.cfg.set_ret(ret);
        self
    }

    /// Declare `range` as known immutable memory (`brew_setmem`).
    pub fn known_mem(mut self, range: Range<u64>) -> Self {
        self.cfg.set_mem_known(range);
        self
    }

    /// Adjust the options for the function at `addr`.
    pub fn func(mut self, addr: u64, f: impl FnOnce(&mut FuncOpts)) -> Self {
        f(self.cfg.func(addr));
        self
    }

    /// Adjust the options applied to functions without explicit options.
    pub fn default_opts(mut self, f: impl FnOnce(&mut FuncOpts)) -> Self {
        f(&mut self.cfg.default_opts);
        self
    }

    /// Inject a call to `handler` at function entry (§III.D).
    pub fn entry_hook(mut self, handler: u64) -> Self {
        self.cfg.entry_hook = Some(handler);
        self
    }

    /// Inject a call to `handler` before every return.
    pub fn exit_hook(mut self, handler: u64) -> Self {
        self.cfg.exit_hook = Some(handler);
        self
    }

    /// Inject a call to `handler` before unknown-address memory accesses.
    pub fn mem_access_hook(mut self, handler: u64) -> Self {
        self.cfg.mem_access_hook = Some(handler);
        self
    }

    /// Cap traced guest instructions.
    pub fn max_trace_insts(mut self, n: u64) -> Self {
        self.cfg.max_trace_insts = n;
        self
    }

    /// Cap captured basic blocks.
    pub fn max_blocks(mut self, n: usize) -> Self {
        self.cfg.max_blocks = n;
        self
    }

    /// Cap emitted code bytes.
    pub fn max_code_bytes(mut self, n: usize) -> Self {
        self.cfg.max_code_bytes = n;
        self
    }

    /// Select the optimization level (the A2 ablation; [`OptLevel::None`]
    /// reproduces the paper's pass-less prototype).
    pub fn passes(mut self, level: OptLevel) -> Self {
        self.level = level;
        self
    }

    /// The underlying rewrite configuration.
    pub fn config(&self) -> &RewriteConfig {
        &self.cfg
    }

    /// The bound trace values, one per parameter.
    pub fn args(&self) -> &[ArgValue] {
        &self.args
    }

    /// The optimization level.
    pub fn pass_config(&self) -> OptLevel {
        self.level
    }

    /// Dispatch conditions for a guarded stub over this request's variant:
    /// `(integer-register index, expected value)` per known parameter.
    /// Returns `None` when some known parameter cannot be guarded by an
    /// integer-register compare (a known double), or when nothing is known
    /// (the variant is unconditioned and must not shadow the original).
    pub fn guard_conditions(&self) -> Option<Vec<(usize, i64)>> {
        let mut conds = Vec::new();
        let mut int_idx = 0usize;
        for (spec, arg) in self.cfg.params.iter().zip(&self.args) {
            match arg {
                ArgValue::Int(v) => {
                    match spec {
                        ParamSpec::Unknown => {}
                        // PtrToKnown guards on the pointer value; the
                        // pointee is immutable by contract, so equal
                        // pointers imply equal known data.
                        ParamSpec::Known | ParamSpec::PtrToKnown { .. } => {
                            conds.push((int_idx, *v));
                        }
                    }
                    int_idx += 1;
                }
                ArgValue::F64(_) => {
                    if !matches!(spec, ParamSpec::Unknown) {
                        return None; // can't compare xmm args in a stub
                    }
                }
            }
        }
        if conds.is_empty() {
            None
        } else {
            Some(conds)
        }
    }

    /// Stable content hash of the whole request (FNV-1a): parameter specs
    /// and bound values, return class, known memory, per-function options,
    /// budgets, hooks and optimization level. Two requests with equal
    /// fingerprints ask for the same variant; together with the function
    /// address this is the variant-cache key.
    ///
    /// `PtrToKnown` hashes the pointer and declared extent, not the bytes
    /// behind it — that memory is immutable by contract.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (i, spec) in self.cfg.params.iter().enumerate() {
            h.word(i as u64);
            match spec {
                ParamSpec::Unknown => h.word(0),
                ParamSpec::Known => h.word(1),
                ParamSpec::PtrToKnown { len } => {
                    h.word(2);
                    h.word(*len);
                }
            }
            match self.args.get(i) {
                Some(ArgValue::Int(v)) => {
                    h.word(3);
                    // Unknown values are placeholders, not cache-relevant.
                    if !matches!(spec, ParamSpec::Unknown) {
                        h.word(*v as u64);
                    }
                }
                Some(ArgValue::F64(v)) => {
                    h.word(4);
                    if !matches!(spec, ParamSpec::Unknown) {
                        h.word(v.to_bits());
                    }
                }
                None => h.word(5),
            }
        }
        h.word(match self.cfg.ret {
            RetKind::Int => 10,
            RetKind::F64 => 11,
            RetKind::Void => 12,
        });
        for r in &self.cfg.known_mem {
            h.word(r.start);
            h.word(r.end);
        }
        let mut opts: Vec<(&u64, &FuncOpts)> = self.cfg.func_opts.iter().collect();
        opts.sort_by_key(|(a, _)| **a);
        for (addr, o) in opts {
            h.word(*addr);
            h.opts(o);
        }
        h.opts(&self.cfg.default_opts);
        h.word(self.cfg.max_trace_insts);
        h.word(self.cfg.max_blocks as u64);
        h.word(self.cfg.max_code_bytes as u64);
        for hook in [
            self.cfg.mem_access_hook,
            self.cfg.entry_hook,
            self.cfg.exit_hook,
        ] {
            h.word(hook.map_or(u64::MAX, |a| a));
        }
        h.word(self.level as u64);
        h.finish()
    }
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn opts(&mut self, o: &FuncOpts) {
        self.word(
            (o.inline as u64)
                | (o.fresh_unknown as u64) << 1
                | (o.branch_unknown as u64) << 2
                | (o.max_variants as u64) << 3,
        );
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_binds_spec_and_value_in_step() {
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(42)
            .ptr_to_known(0x60_0000, 24)
            .ret(RetKind::Void);
        assert_eq!(req.cfg.params.len(), 3);
        assert_eq!(req.args.len(), 3);
        assert_eq!(req.cfg.params[1], ParamSpec::Known);
        assert_eq!(req.args[1], ArgValue::Int(42));
        assert_eq!(req.cfg.params[2], ParamSpec::PtrToKnown { len: 24 });
        assert_eq!(req.args[2], ArgValue::Int(0x60_0000));
        assert!(!req.cfg.addr_known(0x60_0000, 8)); // added at rewrite time
        assert_eq!(req.cfg.ret, RetKind::Void);
    }

    #[test]
    fn fingerprint_distinguishes_values_and_specs() {
        let a = SpecRequest::new().known_int(7);
        let b = SpecRequest::new().known_int(8);
        let c = SpecRequest::new().unknown_int();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.fingerprint(),
            SpecRequest::new().known_int(7).fingerprint()
        );
    }

    #[test]
    fn fingerprint_ignores_unknown_placeholder_values() {
        // Unknown parameters contribute no value to the key: requests for
        // "specialize with b unknown" are one cache entry however the
        // placeholder was spelled.
        let a = SpecRequest::from_config(
            &{
                let mut c = RewriteConfig::new();
                c.set_param(0, ParamSpec::Unknown);
                c
            },
            &[ArgValue::Int(1)],
            OptLevel::default(),
        )
        .unwrap();
        let b = SpecRequest::new().unknown_int();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_covers_options_and_passes() {
        let base = SpecRequest::new().known_int(1);
        let opts = base.clone().func(0x40_0000, |o| o.inline = false);
        let passes = base.clone().passes(OptLevel::None);
        let mem = base.clone().known_mem(0x1000..0x2000);
        assert_ne!(base.fingerprint(), opts.fingerprint());
        assert_ne!(base.fingerprint(), passes.fingerprint());
        assert_ne!(base.fingerprint(), mem.fingerprint());
        // No two levels share a cache key.
        let mut prints = OptLevel::ALL.map(|l| base.clone().passes(l).fingerprint());
        prints.sort_unstable();
        assert!(prints.windows(2).all(|w| w[0] != w[1]), "{prints:x?}");
    }

    #[test]
    fn from_config_rejects_arity_drift() {
        let mut cfg = RewriteConfig::new();
        cfg.set_param(2, ParamSpec::Known);
        let err =
            SpecRequest::from_config(&cfg, &[ArgValue::Int(0)], OptLevel::default()).unwrap_err();
        assert!(matches!(err, RewriteError::BadConfig(_)));

        let cfg = RewriteConfig::new();
        let err =
            SpecRequest::from_config(&cfg, &[ArgValue::Int(0)], OptLevel::default()).unwrap_err();
        let RewriteError::BadConfig(msg) = err else {
            panic!()
        };
        assert!(msg.contains("argument 0"), "{msg}");
    }

    #[test]
    fn guard_conditions_use_integer_register_indices() {
        // f(double x, int n, ptr p): xmm args don't consume int slots.
        let req = SpecRequest::new()
            .unknown_f64()
            .known_int(16)
            .ptr_to_known(0x60_0040, 8);
        assert_eq!(req.guard_conditions(), Some(vec![(0, 16), (1, 0x60_0040)]));

        // A known double can't be guarded by the stub.
        let req = SpecRequest::new().known_f64(1.5).known_int(3);
        assert_eq!(req.guard_conditions(), None);

        // Nothing known -> nothing to dispatch on.
        assert_eq!(SpecRequest::new().unknown_int().guard_conditions(), None);
    }
}
