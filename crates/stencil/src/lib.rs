//! # brew-stencil — the paper's stencil evaluation workload
//!
//! Section V of the paper specializes a generic 2-D 5-point stencil and
//! compares it against a hand-written implementation. This crate packages
//! that study: the mini-C programs (generic / grouped / manual / sweeps),
//! a harness that runs any variant for N iterations over a `xs`×`ys`
//! matrix with model-cycle accounting, a host-side reference for
//! validation, and the rewriting recipes of Figure 5.

#![warn(missing_docs)]

pub mod programs;
pub mod simd;

use brew_core::{RetKind, RewriteResult, Rewriter, SpecRequest};
use brew_emu::{CallArgs, EmuError, Machine, Stats};
use brew_image::Image;
use brew_minic::Compiled;

/// Byte size of `struct S` (generic stencil descriptor).
pub const S_SIZE: u64 = 8 + 5 * 24;
/// Byte size of `struct SG` (grouped stencil descriptor).
pub const SG_SIZE: u64 = 8 + 2 * 80;

/// Which implementation performs the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `sweep_generic`: generic `apply` called directly (the 2.00 s case).
    Generic,
    /// `sweep_grouped`: grouped generic `apply_grouped` (2.21 s).
    Grouped,
    /// `sweep_ptr2(apply_manual)`: hand-written stencil through a function
    /// pointer (0.74 s — the separate-compilation-unit stand-in).
    Manual,
    /// `sweep_manual_inline`: stencil inlined into the sweep (0.48 s).
    ManualInline,
    /// A whole-sweep rewrite used as a drop-in `sweep(m1,m2,xs,ys)`.
    SpecializedSweep(u64),
}

/// The stencil study harness.
pub struct Stencil {
    /// The process image holding programs, matrices and rewritten code.
    pub img: Image,
    /// Compiled program handles.
    pub prog: Compiled,
    /// Matrix width.
    pub xs: i64,
    /// Matrix height.
    pub ys: i64,
    /// First matrix (input of the first sweep).
    pub m1: u64,
    /// Second matrix.
    pub m2: u64,
}

impl Stencil {
    /// Compile the programs and allocate `xs`×`ys` matrices initialized
    /// with a deterministic heat-like pattern.
    pub fn new(xs: i64, ys: i64) -> Self {
        assert!(xs >= 3 && ys >= 3, "matrix too small for a 5-point stencil");
        let img = Image::new();
        let prog = brew_minic::compile_into(programs::STENCIL_PROGRAM, &img)
            .expect("stencil program compiles");
        let bytes = (xs * ys * 8) as u64;
        let m1 = img.alloc_heap(bytes, 16);
        let m2 = img.alloc_heap(bytes, 16);
        let mut s = Stencil {
            img,
            prog,
            xs,
            ys,
            m1,
            m2,
        };
        s.reset_matrices();
        s
    }

    /// (Re)initialize both matrices: hot boundary, patterned interior.
    pub fn reset_matrices(&mut self) {
        for y in 0..self.ys {
            for x in 0..self.xs {
                let v = Self::init_value(self.xs, self.ys, x, y);
                self.write(self.m1, x, y, v);
                self.write(self.m2, x, y, v);
            }
        }
    }

    fn init_value(xs: i64, ys: i64, x: i64, y: i64) -> f64 {
        if x == 0 || y == 0 || x == xs - 1 || y == ys - 1 {
            100.0
        } else {
            ((x * 7 + y * 13) % 11) as f64
        }
    }

    fn write(&mut self, base: u64, x: i64, y: i64, v: f64) {
        self.img
            .write_f64(base + ((y * self.xs + x) * 8) as u64, v)
            .expect("matrix write");
    }

    fn read(&self, base: u64, x: i64, y: i64) -> f64 {
        self.img
            .read_f64(base + ((y * self.xs + x) * 8) as u64)
            .expect("matrix read")
    }

    /// Address of the descriptor `s5`.
    pub fn s5(&self) -> u64 {
        self.prog.global("s5").expect("s5")
    }

    /// Address of the grouped descriptor `sg5`.
    pub fn sg5(&self) -> u64 {
        self.prog.global("sg5").expect("sg5")
    }

    // ---- rewriting recipes (Figure 5) -----------------------------------

    /// The Figure 5 request: specialize `apply` for fixed `xs` and the
    /// fixed stencil descriptor.
    pub fn apply_request(&self) -> SpecRequest {
        let s5 = self.s5();
        SpecRequest::new()
            .unknown_int() // matrix pointer
            .known_int(self.xs)
            .ptr_to_known(s5, S_SIZE)
            .ret(RetKind::F64)
    }

    /// Figure 5: specialize `apply` for fixed `xs` and the fixed stencil.
    pub fn specialize_apply(&mut self) -> Result<RewriteResult, brew_core::RewriteError> {
        let apply = self.prog.func("apply").expect("apply");
        let req = self.apply_request();
        Rewriter::new(&self.img).rewrite(apply, &req)
    }

    /// Like [`Stencil::specialize_apply`] but at an explicit optimization
    /// level (A2 ablation).
    pub fn specialize_apply_with_passes(
        &mut self,
        level: brew_core::OptLevel,
    ) -> Result<RewriteResult, brew_core::RewriteError> {
        let apply = self.prog.func("apply").expect("apply");
        let req = self.apply_request().passes(level);
        Rewriter::new(&self.img).rewrite(apply, &req)
    }

    /// §V.B: specialize the grouped variant.
    pub fn specialize_apply_grouped(&mut self) -> Result<RewriteResult, brew_core::RewriteError> {
        let f = self.prog.func("apply_grouped").expect("apply_grouped");
        let sg5 = self.sg5();
        let req = SpecRequest::new()
            .unknown_int() // matrix pointer
            .known_int(self.xs)
            .ptr_to_known(sg5, SG_SIZE)
            .ret(RetKind::F64);
        Rewriter::new(&self.img).rewrite(f, &req)
    }

    /// The §V.B outlook request: the *whole sweep* with controlled
    /// unrolling (`unroll` loop-body variants before world migration closes
    /// the loop). Matrix pointers stay unknown; `xs`, `ys` and the stencil
    /// are fixed; `apply` is inlined and specialized per unrolled body.
    pub fn sweep_request(&self, unroll: u32) -> SpecRequest {
        let sweep = self.prog.func("sweep_generic").expect("sweep_generic");
        let s5 = self.s5();
        SpecRequest::new()
            .unknown_int() // src matrix
            .unknown_int() // dst matrix
            .known_int(self.xs)
            .known_int(self.ys)
            .known_mem(s5..s5 + S_SIZE)
            .ret(RetKind::Void)
            .func(sweep, |o| {
                o.branch_unknown = true;
                o.max_variants = unroll.max(1);
            })
            .max_code_bytes(1 << 22)
            .max_trace_insts(16_000_000)
    }

    /// §V.B outlook: rewrite `sweep_generic` under
    /// [`Stencil::sweep_request`].
    pub fn specialize_sweep(
        &mut self,
        unroll: u32,
    ) -> Result<RewriteResult, brew_core::RewriteError> {
        let sweep = self.prog.func("sweep_generic").expect("sweep_generic");
        let req = self.sweep_request(unroll);
        Rewriter::new(&self.img).rewrite(sweep, &req)
    }

    // ---- execution --------------------------------------------------------

    /// Run `iters` sweeps of `variant`, ping-ponging the two matrices (the
    /// paper runs 1000 iterations on 500² matrices). Returns accumulated
    /// statistics.
    pub fn run(
        &mut self,
        m: &mut Machine,
        variant: Variant,
        iters: u32,
    ) -> Result<Stats, EmuError> {
        let (func, extra): (u64, Option<u64>) = match variant {
            Variant::Generic => (self.prog.func("sweep_generic").unwrap(), None),
            Variant::Grouped => (self.prog.func("sweep_grouped").unwrap(), None),
            Variant::Manual => (
                self.prog.func("sweep_ptr2").unwrap(),
                Some(self.prog.func("apply_manual").unwrap()),
            ),
            Variant::ManualInline => (self.prog.func("sweep_manual_inline").unwrap(), None),
            Variant::SpecializedSweep(entry) => (entry, None),
        };
        let mut total = Stats::default();
        let (mut src, mut dst) = (self.m1, self.m2);
        for _ in 0..iters {
            let mut args = CallArgs::new().ptr(src).ptr(dst).int(self.xs).int(self.ys);
            if let Some(fp) = extra {
                args = args.ptr(fp);
            }
            let out = m.call(&self.img, func, &args)?;
            total.merge(&out.stats);
            std::mem::swap(&mut src, &mut dst);
        }
        Ok(total)
    }

    /// Run `iters` sweeps where each point calls `apply_fn` through the
    /// matching function-pointer sweep: `grouped` picks `sweep_ptrg`
    /// (`&sg5`), otherwise `sweep_ptr3` (`&s5`). This is how a rewritten
    /// `apply` is used as a drop-in replacement (Figure 5).
    pub fn run_with_apply(
        &mut self,
        m: &mut Machine,
        apply_fn: u64,
        grouped: bool,
        iters: u32,
    ) -> Result<Stats, EmuError> {
        let sweep = if grouped {
            self.prog.func("sweep_ptrg").unwrap()
        } else {
            self.prog.func("sweep_ptr3").unwrap()
        };
        let mut total = Stats::default();
        let (mut src, mut dst) = (self.m1, self.m2);
        for _ in 0..iters {
            let args = CallArgs::new()
                .ptr(src)
                .ptr(dst)
                .int(self.xs)
                .int(self.ys)
                .ptr(apply_fn);
            let out = m.call(&self.img, sweep, &args)?;
            total.merge(&out.stats);
            std::mem::swap(&mut src, &mut dst);
        }
        Ok(total)
    }

    /// Checksum of the matrix holding the result after `iters` sweeps.
    pub fn checksum(&self, iters: u32) -> f64 {
        let base = if iters % 2 == 1 { self.m2 } else { self.m1 };
        let mut sum = 0.0;
        for y in 0..self.ys {
            for x in 0..self.xs {
                sum += self.read(base, x, y) * ((x + 7 * y) % 5 + 1) as f64;
            }
        }
        sum
    }

    /// Host-side reference: the checksum after `iters` sweeps computed in
    /// Rust, for validating every variant.
    pub fn host_checksum(&self, iters: u32) -> f64 {
        let (xs, ys) = (self.xs, self.ys);
        let mut a: Vec<f64> = (0..ys)
            .flat_map(|y| (0..xs).map(move |x| Self::init_value(xs, ys, x, y)))
            .collect();
        let mut b = a.clone();
        for _ in 0..iters {
            for y in 1..ys - 1 {
                for x in 1..xs - 1 {
                    let i = (y * xs + x) as usize;
                    b[i] = 0.25 * (a[i - 1] + a[i + 1] + a[i - xs as usize] + a[i + xs as usize])
                        - a[i];
                }
            }
            std::mem::swap(&mut a, &mut b);
        }
        let result = &a;
        let mut sum = 0.0;
        for y in 0..ys {
            for x in 0..xs {
                sum += result[(y * xs + x) as usize] * ((x + 7 * y) % 5 + 1) as f64;
            }
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_interpreted_variants_agree_with_host() {
        for variant in [
            Variant::Generic,
            Variant::Grouped,
            Variant::Manual,
            Variant::ManualInline,
        ] {
            let mut s = Stencil::new(10, 8);
            let mut m = Machine::new();
            s.run(&mut m, variant, 3).unwrap();
            assert_eq!(s.checksum(3), s.host_checksum(3), "{variant:?}");
        }
    }

    #[test]
    fn specialized_apply_agrees_and_wins() {
        let mut s = Stencil::new(12, 9);
        let res = s.specialize_apply().unwrap();
        let mut m = Machine::new();
        let spec = s.run_with_apply(&mut m, res.entry, false, 2).unwrap();
        assert_eq!(s.checksum(2), s.host_checksum(2));

        let mut s2 = Stencil::new(12, 9);
        let mut m2 = Machine::new();
        let gen = s2.run(&mut m2, Variant::Generic, 2).unwrap();
        assert!(
            spec.cycles * 10 < gen.cycles * 9,
            "specialized {} vs generic {}",
            spec.cycles,
            gen.cycles
        );
    }

    #[test]
    fn specialized_grouped_agrees() {
        let mut s = Stencil::new(9, 9);
        let res = s.specialize_apply_grouped().unwrap();
        let mut m = Machine::new();
        s.run_with_apply(&mut m, res.entry, true, 2).unwrap();
        assert_eq!(s.checksum(2), s.host_checksum(2));
    }

    #[test]
    fn specialized_sweep_agrees() {
        let mut s = Stencil::new(9, 7);
        let res = s.specialize_sweep(4).unwrap();
        let mut m = Machine::new();
        s.run(&mut m, Variant::SpecializedSweep(res.entry), 2)
            .unwrap();
        assert_eq!(s.checksum(2), s.host_checksum(2));
    }

    #[test]
    fn checksum_changes_with_iterations() {
        let mut s = Stencil::new(8, 8);
        let c0 = s.checksum(0);
        let mut m = Machine::new();
        s.run(&mut m, Variant::ManualInline, 1).unwrap();
        assert_ne!(c0, s.checksum(1));
    }
}
