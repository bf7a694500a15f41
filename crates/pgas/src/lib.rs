//! # brew-pgas — a mini PGAS library specialized by BREW
//!
//! The paper motivates runtime rewriting with PGAS libraries (§V intro):
//! *"DASH (a C++ library providing a PGAS programming model) must translate
//! between global and local address space for every call to `operator[]`
//! on distributed data structures. As a result, using this operator is not
//! recommended in inner-most loops."* And §VIII plans to *"use our API to
//! detect remote memory accesses in arbitrary code."*
//!
//! This crate reproduces both:
//!
//! * a block-distributed 1-D array of doubles over `nnodes` simulated
//!   nodes, with a generic `gread` translation routine (descriptor loads,
//!   division, locality check, call into a simulated-RDMA fetch),
//! * [`PgasArray::specialize_gsum`]: the Figure-5 recipe applied to the
//!   reduction loop — the distribution descriptor becomes known, `gread`
//!   and `remote_fetch` are inlined, descriptor loads fold away,
//! * [`PgasArray::instrument_remote_detection`]: the §VIII experiment —
//!   a rewrite with a memory-access handler injected before every
//!   unknown-address access, counting accesses outside the local block,
//! * [`PgasArray::redistribute`]: the Chapel domain-map scenario (§VI) —
//!   change the distribution at runtime and re-specialize.

#![warn(missing_docs)]

use brew_core::{RetKind, RewriteResult, Rewriter, SpecRequest};
use brew_emu::{CallArgs, EmuError, Machine, Stats};
use brew_image::Image;
use brew_minic::Compiled;

/// The mini-C PGAS library + workload.
pub const PGAS_PROGRAM: &str = r#"
struct Dist { int nnodes; int blocksz; int mynode; };
struct Dist dist = {1, 1, 0};
int lo_bound;
int hi_bound;
int remote_count;

// Simulated one-sided RDMA fetch (a real implementation would issue a
// network read; the cost model charges the call + loads).
double remote_fetch(double* storage, int idx) {
    return storage[idx];
}

// The DASH-operator[] analogue: full global-to-local translation with a
// locality check on every access.
double gread(double* storage, struct Dist* d, int i) {
    int node = i / d->blocksz;
    int off = i - node * d->blocksz;
    int idx = node * d->blocksz + off;
    if (node == d->mynode) {
        return storage[idx];
    }
    return remote_fetch(storage, idx);
}

// Reduction over the global index space through the generic accessor —
// exactly the inner-loop pattern the paper says is "not recommended".
double gsum(double* storage, struct Dist* d, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += gread(storage, d, i);
    }
    return s;
}

// The hand-written local baseline.
double lsum(double* p, int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) s += p[i];
    return s;
}

// §VIII: handler for injected memory-access hooks. Counts accesses that
// fall outside the local block [lo_bound, hi_bound).
void on_access(int addr) {
    if (addr < lo_bound) remote_count += 1;
    if (addr >= hi_bound) remote_count += 1;
}
"#;

/// A block-distributed array with its compiled access library.
pub struct PgasArray {
    /// Process image.
    pub img: Image,
    /// Compiled program.
    pub prog: Compiled,
    /// Total elements.
    pub n: i64,
    /// Node count.
    pub nnodes: i64,
    /// Elements per node (block distribution).
    pub blocksz: i64,
    /// The simulated local node id.
    pub mynode: i64,
    /// Backing storage for all blocks (address of element 0).
    pub storage: u64,
}

impl PgasArray {
    /// Create an `n`-element array distributed over `nnodes` nodes, viewed
    /// from `mynode`, filled with a deterministic pattern.
    pub fn new(n: i64, nnodes: i64, mynode: i64) -> Self {
        assert!(n > 0 && nnodes > 0 && mynode < nnodes);
        assert_eq!(n % nnodes, 0, "block distribution requires nnodes | n");
        let img = Image::new();
        let prog = brew_minic::compile_into(PGAS_PROGRAM, &img).expect("pgas program compiles");
        let storage = img.alloc_heap((n * 8) as u64, 16);
        let mut p = PgasArray {
            img,
            prog,
            n,
            nnodes,
            blocksz: n / nnodes,
            mynode,
            storage,
        };
        for i in 0..n {
            p.img
                .write_f64(storage + (i * 8) as u64, ((i * 37) % 101) as f64 * 0.5)
                .unwrap();
        }
        p.write_dist();
        p
    }

    /// Push the distribution descriptor and hook bounds into guest memory.
    fn write_dist(&mut self) {
        let d = self.dist();
        self.img.write_u64(d, self.nnodes as u64).unwrap();
        self.img.write_u64(d + 8, self.blocksz as u64).unwrap();
        self.img.write_u64(d + 16, self.mynode as u64).unwrap();
        let lo = self.storage + (self.mynode * self.blocksz * 8) as u64;
        let hi = lo + (self.blocksz * 8) as u64;
        let lo_b = self.prog.global("lo_bound").unwrap();
        let hi_b = self.prog.global("hi_bound").unwrap();
        self.img.write_u64(lo_b, lo).unwrap();
        self.img.write_u64(hi_b, hi).unwrap();
    }

    /// Address of the distribution descriptor.
    pub fn dist(&self) -> u64 {
        self.prog.global("dist").unwrap()
    }

    /// Host-side reference sum.
    pub fn host_sum(&self) -> f64 {
        (0..self.n).map(|i| ((i * 37) % 101) as f64 * 0.5).sum()
    }

    /// Run the generic `gsum` (the high-overhead baseline).
    pub fn gsum_generic(&mut self, m: &mut Machine) -> Result<(f64, Stats), EmuError> {
        let f = self.prog.func("gsum").unwrap();
        let args = CallArgs::new()
            .ptr(self.storage)
            .ptr(self.dist())
            .int(self.n);
        let out = m.call(&self.img, f, &args)?;
        Ok((out.ret_f64, out.stats))
    }

    /// Run a rewritten `gsum` drop-in replacement.
    pub fn gsum_with(&mut self, m: &mut Machine, entry: u64) -> Result<(f64, Stats), EmuError> {
        let args = CallArgs::new()
            .ptr(self.storage)
            .ptr(self.dist())
            .int(self.n);
        let out = m.call(&self.img, entry, &args)?;
        Ok((out.ret_f64, out.stats))
    }

    /// Run the hand-written local-pointer baseline over the whole array.
    pub fn lsum_manual(&mut self, m: &mut Machine) -> Result<(f64, Stats), EmuError> {
        let f = self.prog.func("lsum").unwrap();
        let args = CallArgs::new().ptr(self.storage).int(self.n);
        let out = m.call(&self.img, f, &args)?;
        Ok((out.ret_f64, out.stats))
    }

    /// The request `gsum` is specialized under for the current
    /// distribution: the descriptor is `PTR_TO_KNOWN`,
    /// `gread`/`remote_fetch` inline, the sum loop is kept (bounded
    /// unrolling via world migration).
    pub fn gsum_request(&self) -> SpecRequest {
        let gsum = self.prog.func("gsum").unwrap();
        SpecRequest::new()
            .unknown_int() // storage pointer
            .ptr_to_known(self.dist(), 24)
            .unknown_int() // n (traced bound comes from the emulated call)
            .ret(RetKind::F64)
            .func(gsum, |o| {
                o.branch_unknown = true;
                o.max_variants = 2;
            })
            .max_trace_insts(8_000_000)
    }

    /// Specialize `gsum` under [`PgasArray::gsum_request`].
    pub fn specialize_gsum(&mut self) -> Result<RewriteResult, brew_core::RewriteError> {
        let gsum = self.prog.func("gsum").unwrap();
        let req = self.gsum_request();
        Rewriter::new(&self.img).rewrite(gsum, &req)
    }

    /// §VIII: rewrite `gsum` with a memory-access hook calling
    /// `on_access`, which counts accesses outside the local block. Returns
    /// the rewritten entry; read the result with
    /// [`PgasArray::remote_count`].
    pub fn instrument_remote_detection(
        &mut self,
    ) -> Result<RewriteResult, brew_core::RewriteError> {
        let gsum = self.prog.func("gsum").unwrap();
        let dist = self.dist();
        let hook = self.prog.func("on_access").unwrap();
        let req = SpecRequest::new()
            .unknown_int() // storage pointer
            .ptr_to_known(dist, 24)
            .unknown_int() // n
            .ret(RetKind::F64)
            .mem_access_hook(hook)
            // branch_unknown is incompatible with hooks; rely on
            // fresh_unknown to bound unrolling instead.
            .func(gsum, |o| {
                o.fresh_unknown = true;
                o.max_variants = 4;
            })
            .max_trace_insts(8_000_000);
        Rewriter::new(&self.img).rewrite(gsum, &req)
    }

    /// Read (and reset) the remote-access counter maintained by the hook.
    pub fn remote_count(&mut self) -> u64 {
        let g = self.prog.global("remote_count").unwrap();
        let v = self.img.read_u64(g).unwrap();
        self.img.write_u64(g, 0).unwrap();
        v
    }

    /// §VI (Chapel domain maps): change the distribution at runtime. The
    /// caller should re-specialize afterwards — that is the point of the
    /// experiment.
    pub fn redistribute(&mut self, nnodes: i64, mynode: i64) {
        assert!(nnodes > 0 && mynode < nnodes && self.n % nnodes == 0);
        self.nnodes = nnodes;
        self.blocksz = self.n / nnodes;
        self.mynode = mynode;
        self.write_dist();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_sum_matches_host() {
        let mut p = PgasArray::new(48, 4, 1);
        let mut m = Machine::new();
        let (v, _) = p.gsum_generic(&mut m).unwrap();
        assert_eq!(v, p.host_sum());
        let (l, _) = p.lsum_manual(&mut m).unwrap();
        assert_eq!(l, p.host_sum());
    }

    #[test]
    fn specialized_sum_matches_and_wins() {
        let mut p = PgasArray::new(64, 4, 2);
        let res = p.specialize_gsum().unwrap();
        let mut m = Machine::new();
        let (v, spec) = p.gsum_with(&mut m, res.entry).unwrap();
        assert_eq!(v, p.host_sum());
        let (_, gen) = p.gsum_generic(&mut m).unwrap();
        assert!(
            spec.cycles < gen.cycles,
            "specialized {} vs generic {}",
            spec.cycles,
            gen.cycles
        );
        // The gread/remote_fetch calls are gone.
        assert_eq!(spec.calls, 0, "abstraction calls inlined away");
    }

    #[test]
    fn remote_detection_counts_non_local_accesses() {
        let mut p = PgasArray::new(40, 4, 1);
        let res = p.instrument_remote_detection().unwrap();
        assert!(res.stats.hooks_injected > 0, "hooks were injected");
        let mut m = Machine::new();
        let (v, _) = p.gsum_with(&mut m, res.entry).unwrap();
        assert_eq!(v, p.host_sum(), "instrumentation must not change results");
        // 30 of 40 elements live on other nodes.
        assert_eq!(p.remote_count(), 30);
    }

    #[test]
    fn redistribution_respecializes() {
        let mut p = PgasArray::new(60, 4, 0);
        let r1 = p.specialize_gsum().unwrap();
        let mut m = Machine::new();
        let (v1, _) = p.gsum_with(&mut m, r1.entry).unwrap();
        assert_eq!(v1, p.host_sum());

        // Domain map changes; the old specialization is stale, a fresh one
        // is generated (the runtime-system trigger of §VI).
        p.redistribute(6, 3);
        let r2 = p.specialize_gsum().unwrap();
        let (v2, _) = p.gsum_with(&mut m, r2.entry).unwrap();
        assert_eq!(v2, p.host_sum());
        assert_ne!(r1.entry, r2.entry);
    }
}
