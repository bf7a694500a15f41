//! Symbolic translation validation: prove the optimized, emitted code
//! observationally equivalent to the pre-pass captured CFG.
//!
//! Both sides — the captured block list from [`brew_core::EquivCapture`] and
//! the freshly decoded emitted bytes — are executed over the same term-level
//! abstract machine ([`crate::term`], with the stack frame of
//! [`crate::frame`]). Blocks are walked in lock step through a joint
//! fixpoint; at every block boundary the two machine states are joined with
//! shared phi atoms so that a value the passes merely *moved* (renamed
//! registers, forwarded loads, compressed frame slots) still interns to the
//! identical term id on both sides. Equivalence is then decided by comparing
//! the observable event streams (heap stores, call-boundary register/stack
//! state, the return-value / callee-saved contract, branch polarity) each
//! block's last walk of the fixpoint recorded. Terms that fail to intern
//! equal are *unproven*, never a counterexample: the caller treats a
//! rejection as "fall back to the conservative emission", not "the pass is
//! wrong".
//!
//! A proof allocates per proof, not per operand: terms live inline in one
//! arena, a block walk runs in buffers the [`Prover`] reuses, flags are
//! interned only when something reads them, and the heap sees the arena, one
//! entry state per block and the event streams.

use crate::frame::{Digest, Frame};
use crate::term::{cond_flags, Atom, FlagSrc, Tag, TermId, Terms};
use crate::{Finding, ProofWork, Region, Rule, Severity, VerifyReport};
use brew_core::capture::{positions, reverse_postorder, Terminator};
use brew_core::{EquivCapture, RetKind, RewriteResult, SpecRequest};
use brew_image::Image;
use brew_x86::alu::{AluOp, UnOp};
use brew_x86::cond::Cond;
use brew_x86::inst::{Inst, ShiftCount, SseOp};
use brew_x86::operand::{MemRef, Operand};
use brew_x86::reg::{Gpr, Width};
use brew_x86::WordMap;
use std::collections::BTreeSet;
use std::ops::Range;

/// Caller-saved integer registers (SysV): rax, rcx, rdx, rsi, rdi, r8-r11.
const CALLER_SAVED: [usize; 9] = [0, 1, 2, 6, 7, 8, 9, 10, 11];
/// Callee-saved integer registers (SysV): rbx, rbp, r12-r15.
const CALLEE_SAVED: [usize; 6] = [3, 5, 12, 13, 14, 15];
/// Integer argument registers in ABI order: rdi, rsi, rdx, rcx, r8, r9.
const SYSV_INT_ARGS: [usize; 6] = [7, 6, 2, 1, 8, 9];

/// Layout of [`SideState::r`]: the 16 GPRs by hardware number, then the low
/// and high XMM lanes, the five flags (cf, zf, sf, of, pf), the symbolic
/// heap (everything that is not the tracked frame) and the frame epoch
/// (changes when an escaped frame is havocked by a call).
const XLO: usize = 16;
const XHI: usize = 32;
const FLAGS: usize = 48;
const MEM: usize = 53;
const EPOCH: usize = 54;
const NREGS: usize = 55;

/// Per-side abstract machine state at a program point.
#[derive(Clone, PartialEq)]
struct SideState {
    r: [TermId; NREGS],
    /// Frame contents keyed by offset from entry rsp.
    frame: Frame,
}

impl SideState {
    fn entry(terms: &mut Terms) -> SideState {
        let mut r = [TermId::default(); NREGS];
        for i in 0..16u8 {
            r[i as usize] = terms.atom(Atom::Gpr(i));
            r[XLO + i as usize] = terms.atom(Atom::XmmLo(i));
            r[XHI + i as usize] = terms.atom(Atom::XmmHi(i));
        }
        for f in 0..5u8 {
            r[FLAGS + f as usize] = terms.atom(Atom::Flag(f));
        }
        r[MEM] = terms.atom(Atom::Mem);
        r[EPOCH] = terms.atom(Atom::Frame);
        SideState {
            r,
            frame: Frame::default(),
        }
    }

    /// `*self = src.clone()` into the existing allocation.
    fn assign(&mut self, src: &SideState) {
        self.r = src.r;
        self.frame.assign(&src.frame);
    }
}

/// One observable effect. Two sides are equivalent iff their event streams
/// (per reachable block, from the joined entry state) are identical.
#[derive(Clone, Debug, PartialEq)]
enum Event {
    /// A store outside the private frame.
    Store { len: u8, addr: TermId, val: TermId },
    /// A call boundary: everything the callee may observe.
    Call {
        target: u64,
        ind: Option<TermId>,
        rsp: TermId,
        args: [TermId; 6],
        fargs: [TermId; 8],
        frame: Option<Digest>,
    },
    /// Function exit: everything the caller may observe.
    Ret {
        val: Option<TermId>,
        saved: [TermId; 6],
        rsp: TermId,
        ret_slot: Option<TermId>,
        frame: Digest,
    },
    /// A conditional branch: normalized condition code + the flag terms
    /// read, in [`cond_flags`] order.
    Branch { cc: u8, flags: [Option<TermId>; 3] },
    /// A trapping instruction (ud2).
    Trap,
    /// Anything the walker cannot model; compared textually.
    Other(String),
}

/// What one proof fixes for every walk.
struct Ctx<'a> {
    img: &'a Image,
    /// The snapshot's sorted, coalesced ranges of folded known memory.
    known: &'a [Range<u64>],
    rsp0: TermId,
    escaped: bool,
    ret_kind: RetKind,
}

/// A flag write not yet interned: flag `k` is `Tag::Flag(k, src)` over
/// `args[..n]`. Almost no flag an ALU instruction writes is ever read.
#[derive(Clone, Copy)]
struct Pending {
    src: FlagSrc,
    args: [TermId; 3],
    n: u8,
}

/// Symbolic executor for one side of one block.
struct Walker<'w> {
    cx: &'w Ctx<'w>,
    terms: &'w mut Terms,
    block: u32,
    calls: u16,
    st: &'w mut SideState,
    /// Overrides `st.r[FLAGS + k]` until read or block exit.
    lazy: [Option<Pending>; 5],
    events: &'w mut Vec<Event>,
    halted: bool,
}

impl Walker<'_> {
    fn gpr(&self, r: Gpr) -> TermId {
        self.st.r[r as usize]
    }

    fn frame_off(&self, addr: TermId) -> Option<i64> {
        self.terms.offset_of(addr, self.cx.rsp0)
    }

    fn write_gpr(&mut self, r: Gpr, t: TermId) {
        if r == Gpr::Rsp {
            // Raising rsp abandons everything below the new top: those
            // bytes are dead on both sides regardless of what was stored.
            if let (Some(o), Some(n)) = (self.frame_off(self.gpr(r)), self.frame_off(t)) {
                if n > o {
                    self.st.frame.kill(self.terms, o, n);
                }
            }
        }
        self.st.r[r as usize] = t;
    }

    fn addr_term(&mut self, m: &MemRef) -> TermId {
        let mut t = self.terms.constant(m.disp as i64 as u64);
        if let Some(b) = m.base {
            t = self.terms.add64(t, self.st.r[b as usize]);
        }
        if let Some((i, scale)) = m.index {
            let scaled = self.terms.mul_const(self.st.r[i as usize], scale as i64);
            t = self.terms.add64(t, scaled);
        }
        t
    }

    fn load_t(&mut self, addr: TermId, len: u8) -> TermId {
        if let Some(off) = self.frame_off(addr) {
            return self.st.frame.load(self.terms, self.st.r[EPOCH], off, len);
        }
        if let Some(a) = self.terms.as_const(addr) {
            let known = self.cx.known;
            let inside = known[..known.partition_point(|r| r.start <= a)]
                .last()
                .is_some_and(|r| a.checked_add(len as u64).is_some_and(|end| end <= r.end));
            if inside {
                if let Ok(v) = self.cx.img.read_uint(a, len as u64) {
                    return self.terms.constant(v);
                }
            }
        }
        self.terms.op(Tag::Select(len), &[self.st.r[MEM], addr])
    }

    fn store_t(&mut self, addr: TermId, val: TermId, len: u8) {
        let canon = match len {
            1 => self.terms.byte(val, 0),
            4 => self.terms.low32(val),
            _ => val,
        };
        if let Some(off) = self.frame_off(addr) {
            return self.st.frame.put(self.terms, off, len, canon);
        }
        self.events.push(Event::Store {
            len,
            addr,
            val: canon,
        });
        self.st.r[MEM] = self
            .terms
            .op(Tag::Store(len), &[self.st.r[MEM], addr, canon]);
    }

    fn load(&mut self, m: &MemRef, len: u8) -> TermId {
        let a = self.addr_term(m);
        self.load_t(a, len)
    }

    fn store(&mut self, m: &MemRef, val: TermId, len: u8) {
        let a = self.addr_term(m);
        self.store_t(a, val, len);
    }

    /// The full 64-bit term behind an integer operand, or `None` for xmm.
    fn int_value(&mut self, op: &Operand, w: Width) -> Option<TermId> {
        match op {
            Operand::Reg(r) => Some(self.gpr(*r)),
            Operand::Imm(i) => Some(self.terms.constant(*i as u64)),
            Operand::Mem(m) => Some(self.load(m, w.bytes() as u8)),
            Operand::Xmm(_) => None,
        }
    }

    fn write_gpr_w(&mut self, r: Gpr, w: Width, val: TermId) {
        let t = match w {
            Width::W64 => val,
            Width::W32 => self.terms.low32(val),
            Width::W8 => self.terms.op(Tag::InsertByte0, &[self.gpr(r), val]),
        };
        self.write_gpr(r, t);
    }

    fn write_dst(&mut self, dst: &Operand, w: Width, val: TermId) {
        match dst {
            Operand::Reg(r) => self.write_gpr_w(*r, w, val),
            Operand::Mem(m) => self.store(m, val, w.bytes() as u8),
            _ => self.other_str("write to unsupported operand"),
        }
    }

    /// The value an ALU op computes. Add/sub route through the canonical
    /// linear-sum normalizer so that address and rsp arithmetic stays
    /// comparable (and `offset_of`-extractable) however it was phrased —
    /// `sub rsp, 0x30` and `lea rsp, [rsp-0x30]` must intern equal.
    fn alu_value(&mut self, op: AluOp, w: Width, a: TermId, b: TermId) -> TermId {
        match (op, w) {
            (AluOp::Add, Width::W64) => self.terms.add64(a, b),
            (AluOp::Sub, Width::W64) => self.terms.sub64(a, b),
            (AluOp::Add, Width::W32) => {
                let s = self.terms.add64(a, b);
                self.terms.low32(s)
            }
            (AluOp::Sub, Width::W32) => {
                let s = self.terms.sub64(a, b);
                self.terms.low32(s)
            }
            _ => self.terms.op(Tag::Alu(op, w), &[a, b]),
        }
    }

    /// All five flags now come from `src` over `args`.
    fn set_flags(&mut self, src: FlagSrc, args: &[TermId]) {
        let mut p = Pending {
            src,
            args: [TermId::default(); 3],
            n: args.len() as u8,
        };
        p.args[..args.len()].copy_from_slice(args);
        self.lazy = [Some(p); 5];
    }

    /// Flag `k`, interning its pending producer first.
    fn flag(&mut self, k: usize) -> TermId {
        if let Some(p) = self.lazy[k].take() {
            let tag = Tag::Flag(k as u8, p.src);
            self.st.r[FLAGS + k] = self.terms.op(tag, &p.args[..p.n as usize]);
        }
        self.st.r[FLAGS + k]
    }

    /// The flags `c` reads, in [`cond_flags`] order.
    fn cond_terms(&mut self, c: Cond) -> [Option<TermId>; 3] {
        let mut out = [None; 3];
        for (o, &k) in out.iter_mut().zip(cond_flags(c)) {
            *o = Some(self.flag(k));
        }
        out
    }

    fn other_str(&mut self, s: &str) {
        self.events.push(Event::Other(s.to_string()));
    }

    fn other(&mut self, inst: &Inst) {
        self.events.push(Event::Other(format!("{inst:?}")));
    }

    /// Low 64-bit lane of an SSE source operand.
    fn sse_lo(&mut self, src: &Operand) -> Option<TermId> {
        match src {
            Operand::Xmm(x) => Some(self.st.r[XLO + *x as usize]),
            Operand::Mem(m) => Some(self.load(m, 8)),
            _ => None,
        }
    }

    /// Both lanes of a packed SSE source operand.
    fn sse_pair(&mut self, src: &Operand) -> Option<(TermId, TermId)> {
        match src {
            Operand::Xmm(x) => Some((self.st.r[XLO + *x as usize], self.st.r[XHI + *x as usize])),
            Operand::Mem(m) => {
                let a = self.addr_term(m);
                let ahi = self.terms.add_const(a, 8);
                Some((self.load_t(a, 8), self.load_t(ahi, 8)))
            }
            _ => None,
        }
    }

    fn do_call(&mut self, target: u64, ind: Option<TermId>) {
        let idx = self.calls;
        self.calls += 1;
        let rsp = self.gpr(Gpr::Rsp);
        let rsp_off = self.frame_off(rsp);
        let args = SYSV_INT_ARGS.map(|r| self.st.r[r]);
        let mut fargs = [TermId::default(); 8];
        fargs.copy_from_slice(&self.st.r[XLO..XLO + 8]);
        // If the frame escaped, the callee may read it: its live contents
        // (everything at or above the callee's view of the stack top)
        // become observable at this boundary.
        let escaped = self.cx.escaped;
        let frame = escaped.then(|| self.digest(rsp_off.unwrap_or(i64::MIN)));
        self.events.push(Event::Call {
            target,
            ind,
            rsp,
            args,
            fargs,
            frame,
        });
        // Havoc everything a SysV callee may clobber, with per-call-site
        // atoms so both sides agree on the (unknown) returned values:
        // slots 0-15 the GPRs, 16-47 the xmm lanes, 48-52 the flags.
        let block = self.block;
        let clobbered = CALLER_SAVED.into_iter().chain(XLO..MEM);
        for slot in clobbered {
            self.st.r[slot] = self.terms.atom(Atom::CallOut {
                block,
                idx,
                slot: slot as u8,
            });
        }
        self.lazy = [None; 5];
        self.st.r[MEM] = self.terms.atom(Atom::CallMem { block, idx });
        match rsp_off {
            // Private frame: the callee still owns everything below the
            // current stack top (red zone is not preserved across calls).
            Some(off) if !escaped => self.st.frame.kill(self.terms, i64::MIN, off),
            _ => self.st.frame.clear(),
        }
        if escaped {
            // The callee may rewrite any frame byte it can reach.
            self.st.r[EPOCH] = self.terms.atom(Atom::CallFrame { block, idx });
        }
    }

    fn do_ret(&mut self) {
        let rsp = self.gpr(Gpr::Rsp);
        let rsp_off = self.frame_off(rsp);
        let val = match self.cx.ret_kind {
            RetKind::Int => Some(self.st.r[0]),
            RetKind::F64 => Some(self.st.r[XLO]),
            RetKind::Void => None,
        };
        let saved = CALLEE_SAVED.map(|r| self.st.r[r]);
        let epoch = self.st.r[EPOCH];
        let ret_slot = rsp_off.map(|off| self.st.frame.load(self.terms, epoch, off, 8));
        // The caller owns everything above the return address: stores into
        // the caller's stack area must match even for a private frame.
        let frame = self.digest(rsp_off.map(|o| o + 8).unwrap_or(i64::MIN));
        self.events.push(Event::Ret {
            val,
            saved,
            rsp,
            ret_slot,
            frame,
        });
        self.halted = true;
    }

    /// The live frame contents at or above `lo`, dropping bytes that still
    /// hold their untouched initial value.
    fn digest(&mut self, lo: i64) -> Digest {
        self.st.frame.digest(self.terms, self.st.r[EPOCH], lo)
    }

    fn exec(&mut self, inst: &Inst) {
        match *inst {
            Inst::Nop => {}
            Inst::Mov {
                w,
                ref dst,
                ref src,
            } => {
                if let Some(v) = self.int_value(src, w) {
                    self.write_dst(dst, w, v);
                } else {
                    self.other(inst);
                }
            }
            Inst::MovAbs { dst, imm } => {
                let t = self.terms.constant(imm);
                self.write_gpr(dst, t);
            }
            Inst::Movsxd { dst, ref src } => {
                if let Some(v) = self.int_value(src, Width::W32) {
                    let t = self.terms.op(Tag::Movsxd, &[v]);
                    self.write_gpr(dst, t);
                } else {
                    self.other(inst);
                }
            }
            Inst::Movzx8 { w: _, dst, ref src } => {
                if let Some(v) = self.int_value(src, Width::W8) {
                    let t = self.terms.op(Tag::Movzx8, &[v]);
                    self.write_gpr(dst, t);
                } else {
                    self.other(inst);
                }
            }
            Inst::Lea { dst, ref src } => {
                let t = self.addr_term(src);
                self.write_gpr(dst, t);
            }
            Inst::Alu {
                op,
                w,
                ref dst,
                ref src,
            } => {
                let (a, b) = match (self.int_value(dst, w), self.int_value(src, w)) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        self.other(inst);
                        return;
                    }
                };
                let flag_op = if op == AluOp::Cmp { AluOp::Sub } else { op };
                self.set_flags(FlagSrc::Alu(flag_op, w), &[a, b]);
                if op.writes_dst() {
                    let t = self.alu_value(op, w, a, b);
                    self.write_dst(dst, w, t);
                }
            }
            Inst::Test { w, ref a, ref b } => {
                let (av, bv) = match (self.int_value(a, w), self.int_value(b, w)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => {
                        self.other(inst);
                        return;
                    }
                };
                self.set_flags(FlagSrc::Test(w), &[av, bv]);
            }
            Inst::Imul { w, dst, ref src } => {
                let a = self.gpr(dst);
                let Some(b) = self.int_value(src, w) else {
                    return self.other(inst);
                };
                self.set_flags(FlagSrc::Imul(w), &[a, b]);
                let t = self.terms.op(Tag::Imul(w), &[a, b]);
                self.write_gpr_w(dst, w, t);
            }
            Inst::ImulImm {
                w,
                dst,
                ref src,
                imm,
            } => {
                let Some(a) = self.int_value(src, w) else {
                    return self.other(inst);
                };
                let b = self.terms.constant(imm as i64 as u64);
                self.set_flags(FlagSrc::Imul(w), &[a, b]);
                let t = self.terms.op(Tag::Imul(w), &[a, b]);
                self.write_gpr_w(dst, w, t);
            }
            Inst::Unary { op, w, ref dst } => {
                let Some(v) = self.int_value(dst, w) else {
                    return self.other(inst);
                };
                match op {
                    UnOp::Not => {
                        let t = self.terms.op(Tag::Not(w), &[v]);
                        self.write_dst(dst, w, t);
                    }
                    UnOp::Neg => {
                        // neg ≡ sub from zero, flags included.
                        let z = self.terms.constant(0);
                        self.set_flags(FlagSrc::Alu(AluOp::Sub, w), &[z, v]);
                        let t = self.alu_value(AluOp::Sub, w, z, v);
                        self.write_dst(dst, w, t);
                    }
                    UnOp::Inc | UnOp::Dec => {
                        let one = self.terms.constant(1);
                        let alu = if op == UnOp::Inc {
                            AluOp::Add
                        } else {
                            AluOp::Sub
                        };
                        // inc/dec leave CF untouched, pending or not.
                        let prev_cf = self.lazy[0];
                        self.set_flags(FlagSrc::Alu(alu, w), &[v, one]);
                        self.lazy[0] = prev_cf;
                        let t = self.alu_value(alu, w, v, one);
                        self.write_dst(dst, w, t);
                    }
                }
            }
            Inst::Shift {
                op,
                w,
                ref dst,
                count,
            } => {
                let Some(v) = self.int_value(dst, w) else {
                    return self.other(inst);
                };
                match count {
                    ShiftCount::Imm(c) => {
                        let masked = c & (w.bits() - 1) as u8;
                        if masked == 0 {
                            // Count of zero: value and flags both untouched,
                            // but a 32-bit encoding still zero-extends.
                            let t = match w {
                                Width::W32 => self.terms.low32(v),
                                _ => v,
                            };
                            self.write_dst(dst, w, t);
                        } else {
                            let cnt = self.terms.constant(masked as u64);
                            self.set_flags(FlagSrc::Shift(op, w), &[v, cnt]);
                            let t = self.terms.op(Tag::ShiftVal(op, w), &[v, cnt]);
                            self.write_dst(dst, w, t);
                        }
                    }
                    ShiftCount::Cl => {
                        let cl = self.gpr(Gpr::Rcx);
                        // Flags are conditional on the masked count being
                        // nonzero: each new flag depends on its prior value.
                        for k in 0..5 {
                            let prev = self.flag(k);
                            self.lazy[k] = Some(Pending {
                                src: FlagSrc::ShiftCl(op, w),
                                args: [v, cl, prev],
                                n: 3,
                            });
                        }
                        let t = self.terms.op(Tag::ShiftVal(op, w), &[v, cl]);
                        self.write_dst(dst, w, t);
                    }
                }
            }
            Inst::Cqo { w } => {
                let rax = self.gpr(Gpr::Rax);
                let t = self.terms.op(Tag::Cqo(w), &[rax]);
                self.write_gpr(Gpr::Rdx, t);
            }
            Inst::Idiv { w, ref src } => {
                let Some(d) = self.int_value(src, w) else {
                    return self.other(inst);
                };
                let hi = self.gpr(Gpr::Rdx);
                let lo = self.gpr(Gpr::Rax);
                let q = self.terms.op(Tag::Quot(w), &[hi, lo, d]);
                let r = self.terms.op(Tag::Rem(w), &[hi, lo, d]);
                self.set_flags(FlagSrc::Idiv(w), &[hi, lo, d]);
                self.write_gpr(Gpr::Rax, q);
                self.write_gpr(Gpr::Rdx, r);
            }
            Inst::Push { ref src } => {
                let Some(v) = self.int_value(src, Width::W64) else {
                    return self.other(inst);
                };
                let rsp = self.gpr(Gpr::Rsp);
                let nrsp = self.terms.add_const(rsp, -8);
                self.write_gpr(Gpr::Rsp, nrsp);
                self.store_t(nrsp, v, 8);
            }
            Inst::Pop { ref dst } => {
                let rsp = self.gpr(Gpr::Rsp);
                let v = self.load_t(rsp, 8);
                let nrsp = self.terms.add_const(rsp, 8);
                self.write_gpr(Gpr::Rsp, nrsp);
                match dst {
                    Operand::Reg(r) => self.write_gpr(*r, v),
                    Operand::Mem(m) => {
                        self.store(m, v, 8);
                    }
                    _ => self.other(inst),
                }
            }
            Inst::CallRel { target } => self.do_call(target, None),
            Inst::CallInd { ref src } => {
                let t = match src {
                    Operand::Reg(r) => Some(self.gpr(*r)),
                    Operand::Mem(m) => Some(self.load(m, 8)),
                    _ => None,
                };
                match t {
                    Some(t) => self.do_call(0, Some(t)),
                    None => self.other(inst),
                }
            }
            Inst::Ret => self.do_ret(),
            Inst::JmpRel { .. } | Inst::JmpInd { .. } | Inst::Jcc { .. } => {
                // Terminators are stripped by the block matcher; one inside
                // a body means the slice was wrong — surface it as an event.
                self.other(inst);
            }
            Inst::Setcc { cond, ref dst } => {
                let flags = self.cond_terms(cond).map(Option::unwrap_or_default);
                let n = cond_flags(cond).len();
                let t = self.terms.op(Tag::Setcc(cond), &flags[..n]);
                self.write_dst(dst, Width::W8, t);
            }
            Inst::MovSd { ref dst, ref src } => match (dst, src) {
                (Operand::Xmm(d), Operand::Xmm(s)) => {
                    // Register form copies only the low lane.
                    self.st.r[XLO + *d as usize] = self.st.r[XLO + *s as usize];
                }
                (Operand::Xmm(d), Operand::Mem(m)) => {
                    self.st.r[XLO + *d as usize] = self.load(m, 8);
                    // Load form zeroes the high lane.
                    self.st.r[XHI + *d as usize] = self.terms.constant(0);
                }
                (Operand::Mem(m), Operand::Xmm(s)) => {
                    self.store(m, self.st.r[XLO + *s as usize], 8);
                }
                _ => self.other(inst),
            },
            Inst::MovUpd { ref dst, ref src } => match (dst, src) {
                (Operand::Xmm(d), src) => match self.sse_pair(src) {
                    Some((lo, hi)) => {
                        self.st.r[XLO + *d as usize] = lo;
                        self.st.r[XHI + *d as usize] = hi;
                    }
                    None => self.other(inst),
                },
                (Operand::Mem(m), Operand::Xmm(s)) => {
                    let a = self.addr_term(m);
                    self.store_t(a, self.st.r[XLO + *s as usize], 8);
                    let ahi = self.terms.add_const(a, 8);
                    self.store_t(ahi, self.st.r[XHI + *s as usize], 8);
                }
                _ => self.other(inst),
            },
            Inst::Sse { op, dst, ref src } => {
                let (lo, hi) = (XLO + dst as usize, XHI + dst as usize);
                if op == SseOp::Unpcklpd {
                    // dst = [dst.lo, src.lo]; the low lane is unchanged.
                    match self.sse_lo(src) {
                        Some(slo) => self.st.r[hi] = slo,
                        None => self.other(inst),
                    }
                } else if op.is_packed() {
                    let scalar = match op {
                        SseOp::Addpd => SseOp::Addsd,
                        SseOp::Subpd => SseOp::Subsd,
                        SseOp::Mulpd => SseOp::Mulsd,
                        SseOp::Divpd => SseOp::Divsd,
                        other => other,
                    };
                    let Some((blo, bhi)) = self.sse_pair(src) else {
                        return self.other(inst);
                    };
                    self.st.r[lo] = self.terms.op(Tag::Sse(scalar), &[self.st.r[lo], blo]);
                    self.st.r[hi] = self.terms.op(Tag::Sse(scalar), &[self.st.r[hi], bhi]);
                } else {
                    let Some(b) = self.sse_lo(src) else {
                        return self.other(inst);
                    };
                    self.st.r[lo] = self.terms.op(Tag::Sse(op), &[self.st.r[lo], b]);
                }
            }
            Inst::Ucomisd { a, ref b } => {
                let av = self.st.r[XLO + a as usize];
                let Some(bv) = self.sse_lo(b) else {
                    return self.other(inst);
                };
                self.set_flags(FlagSrc::Ucomisd, &[av, bv]);
                for k in [2, 3] {
                    self.lazy[k] = None;
                    self.st.r[FLAGS + k] = self.terms.constant(0);
                }
            }
            Inst::Cvtsi2sd { w, dst, ref src } => {
                let Some(v) = self.int_value(src, w) else {
                    return self.other(inst);
                };
                self.st.r[XLO + dst as usize] = self.terms.op(Tag::Cvtsi2sd(w), &[v]);
                // High lane is preserved by cvtsi2sd.
            }
            Inst::Cvttsd2si { w, dst, ref src } => {
                let Some(v) = self.sse_lo(src) else {
                    return self.other(inst);
                };
                let t = self.terms.op(Tag::Cvttsd2si(w), &[v]);
                self.write_gpr(dst, t);
            }
            Inst::Ud2 => {
                self.events.push(Event::Trap);
                self.halted = true;
            }
        }
    }
}

/// Walk buffers one proof reuses across every block visit.
struct Prover<'a> {
    cx: Ctx<'a>,
    terms: Terms,
    /// Working state of the side being walked; the out state afterwards.
    out: [SideState; 2],
    /// Every event either side recorded, visit after visit; a block's
    /// current streams are the ranges in its [`BlockPlan`].
    events: [Vec<Event>; 2],
    join: JoinScratch,
    /// Counted as the proof goes.
    work: ProofWork,
}

impl Prover<'_> {
    /// Execute side `side` of block `block` from `entry`, leaving the out
    /// state in `self.out[side]`. Returns the range of events recorded and
    /// whether execution halted inside the block (ret or trap).
    fn walk<'i>(
        &mut self,
        side: usize,
        block: u32,
        entry: &SideState,
        insts: impl Iterator<Item = &'i Inst>,
        branch: Option<Cond>,
    ) -> (Range<usize>, bool) {
        self.out[side].assign(entry);
        let start = self.events[side].len();
        let mut w = Walker {
            cx: &self.cx,
            terms: &mut self.terms,
            block,
            calls: 0,
            st: &mut self.out[side],
            lazy: [None; 5],
            events: &mut self.events[side],
            halted: false,
        };
        for inst in insts {
            if w.halted {
                break;
            }
            w.exec(inst);
            self.work.walked[side] += 1;
        }
        if !w.halted {
            if let Some(c) = branch {
                let cc = c.code() & !1;
                let flags = w.cond_terms(c);
                w.events.push(Event::Branch { cc, flags });
            }
            // The out state crosses a block boundary: no flag stays pending.
            for k in 0..5 {
                w.flag(k);
            }
        }
        let halted = w.halted;
        (start..self.events[side].len(), halted)
    }
}

/// How many instructions at the tail of an emitted block slice realize the
/// captured terminator. Returns the body length (slice minus terminator).
fn match_term(
    insts: &[(u64, Inst, usize)],
    slice_end: u64,
    term: &Terminator,
    addrs: &[u64],
) -> Result<usize, String> {
    let len = insts.len();
    match *term {
        Terminator::Ret => Ok(len),
        Terminator::Jmp(t) => {
            let ta = addrs[t.0];
            if let Some(&(_, Inst::JmpRel { target }, _)) = insts.last() {
                if target == ta {
                    return Ok(len - 1);
                }
                return Err(format!(
                    "jmp targets {target:#x}, captured successor is {ta:#x}"
                ));
            }
            if slice_end == ta {
                return Ok(len);
            }
            Err(format!(
                "block falls through to {slice_end:#x}, captured successor is {ta:#x}"
            ))
        }
        Terminator::Jcc { cond, taken, fall } => {
            let ta = addrs[taken.0];
            let fa = addrs[fall.0];
            if len >= 2 {
                if let (
                    &(_, Inst::Jcc { cond: c, target: x }, _),
                    &(_, Inst::JmpRel { target: y }, _),
                ) = (&insts[len - 2], &insts[len - 1])
                {
                    if (c == cond && x == ta && y == fa)
                        || (c == cond.negate() && x == fa && y == ta)
                    {
                        return Ok(len - 2);
                    }
                    return Err(format!(
                        "jcc/jmp pair ({c:?} {x:#x} / {y:#x}) does not realize captured \
                         branch ({cond:?} taken {ta:#x} fall {fa:#x})"
                    ));
                }
            }
            if let Some(&(_, Inst::Jcc { cond: c, target: x }, _)) = insts.last() {
                if (c == cond && x == ta && slice_end == fa)
                    || (c == cond.negate() && x == fa && slice_end == ta)
                {
                    return Ok(len - 1);
                }
                return Err(format!(
                    "jcc ({c:?} {x:#x}, falls to {slice_end:#x}) does not realize captured \
                     branch ({cond:?} taken {ta:#x} fall {fa:#x})"
                ));
            }
            Err("captured block ends in jcc but emitted block has no branch".into())
        }
    }
}

/// One captured block paired with its emitted counterpart.
struct BlockPlan {
    /// The emitted body: a range of the region's instruction list.
    post: Range<usize>,
    branch: Option<Cond>,
    addr: u64,
    /// The event streams (pre, post) of the block's latest walk.
    events: [Range<usize>; 2],
}

/// Buffers [`join`] reuses.
#[derive(Default)]
struct JoinScratch {
    /// Phi class of each differing (accumulated, incoming) value pair.
    class: WordMap<(TermId, TermId), u32>,
    chunks: Vec<(i64, u8)>,
    /// Frame writes `(side, offset, len, bytes' source)` to apply once
    /// every chunk of both sides has been read.
    puts: Vec<(usize, i64, u8, TermId)>,
}

/// Join the incoming state into the accumulated state for a block, using
/// shared phi atoms so that matching differences on the two sides stay
/// term-identical. Returns true if anything changed.
///
/// A joint location is a register-file entry or a frame chunk
/// ([`Frame::chunks`] over the two states' written bytes), numbered pre
/// side first. Locations that disagree between accumulated and incoming
/// state get a phi. The phi class is keyed by the (current, incoming) value
/// pair so that two locations carrying the same moved value — e.g. the pre
/// side's register and the post side's coalesced register — receive the
/// *same* phi atom, keeping them provably equal downstream.
fn join(
    terms: &mut Terms,
    js: &mut JoinScratch,
    cur: &mut [SideState; 2],
    inc: [&SideState; 2],
    block: u32,
) -> bool {
    if cur[0] == *inc[0] && cur[1] == *inc[1] {
        return false;
    }
    js.class.clear();
    js.puts.clear();
    let mut at = 0u32;
    let mut changed = false;
    for (side, cur) in cur.iter_mut().enumerate() {
        let inc = inc[side];
        // The phi `c` becomes when `v` comes in, unless it already is it.
        let mut phi = |terms: &mut Terms, c: TermId, v: TermId| {
            at += 1;
            if c == v {
                return None;
            }
            let class = *js.class.entry((c, v)).or_insert(at - 1);
            let phi = terms.atom(Atom::Phi { block, class });
            (c != phi).then_some(phi)
        };
        let epoch = cur.r[EPOCH];
        for (c, &v) in cur.r.iter_mut().zip(&inc.r) {
            if let Some(p) = phi(terms, *c, v) {
                *c = p;
                changed = true;
            }
        }
        let (a, b) = (cur.frame.slots(), inc.frame.slots());
        Frame::chunks(a, b, i64::MIN, &mut js.chunks);
        for &(off, len) in &js.chunks {
            let c = cur.frame.load(terms, epoch, off, len);
            let v = inc.frame.load(terms, inc.r[EPOCH], off, len);
            match phi(terms, c, v) {
                Some(p) => {
                    changed = true;
                    js.puts.push((side, off, len, p));
                }
                // A chunk that stays is still its packed term split into
                // bytes again once anything changes. For a whole slot that
                // is the slot; loose bytes come back re-derived, and an
                // unwritten one pinned to the epoch it was fresh under.
                None if !cur.frame.has_slot(off, len) => js.puts.push((side, off, len, c)),
                None => {}
            }
        }
    }
    if changed {
        for &(side, off, len, t) in &js.puts {
            cur[side].frame.put(terms, off, len, t);
        }
        // A byte that reads as untouched under the joined epoch is.
        for s in cur {
            s.frame.drop_fresh(terms, s.r[EPOCH]);
        }
    }
    changed
}

fn render_event(terms: &Terms, e: &Event) -> String {
    match e {
        Event::Store { len, addr, val } => format!(
            "store{} [{}] <- {}",
            len,
            terms.render(*addr),
            terms.render(*val)
        ),
        Event::Call {
            target,
            ind,
            rsp,
            args,
            ..
        } => {
            let dest = match ind {
                Some(t) => format!("*{}", terms.render(*t)),
                None => format!("{target:#x}"),
            };
            format!(
                "call {dest} rsp={} rdi={} rsi={}",
                terms.render(*rsp),
                terms.render(args[0]),
                terms.render(args[1])
            )
        }
        Event::Ret { val, rsp, .. } => {
            let v = match val {
                Some(t) => terms.render(*t),
                None => "void".into(),
            };
            format!("ret {} rsp={}", v, terms.render(*rsp))
        }
        Event::Branch { cc, flags } => {
            let f: Vec<String> = flags.iter().flatten().map(|&t| terms.render(t)).collect();
            format!("branch cc={cc} on [{}]", f.join(", "))
        }
        Event::Trap => "trap".into(),
        Event::Other(s) => format!("unmodeled: {s}"),
    }
}

fn reject(report: &mut VerifyReport, addr: u64, detail: String) {
    report.findings.push(Finding {
        rule: Rule::Equivalence,
        severity: Severity::Error,
        addr,
        detail,
    });
}

/// Translation-validate `res` (the emitted, optimized code, decoded into
/// `region` by the structural tier) against `cap` (the pre-pass captured
/// CFG). Pushes `Rule::Equivalence` findings into `report` on any failure
/// to prove equivalence.
pub(crate) fn check(
    img: &Image,
    req: &SpecRequest,
    res: &RewriteResult,
    cap: &EquivCapture,
    region: &Region,
    report: &mut VerifyReport,
) {
    // The partition the emitter laid out: the passes straighten at every
    // level.
    let blocks = cap.straightened();
    let nblocks = blocks.len();
    if cap.entry_block >= nblocks || cap.block_addrs.len() != nblocks {
        reject(report, res.entry, "malformed equivalence capture".into());
        return;
    }

    // Reachable captured blocks, in deterministic discovery order.
    // Findings are reported in this order.
    let mut reach = vec![false; nblocks];
    let mut order = vec![cap.entry_block];
    reach[cap.entry_block] = true;
    let mut next = 0;
    while let Some(&b) = order.get(next) {
        next += 1;
        for s in blocks[b].term.successors() {
            if !std::mem::replace(&mut reach[s.0], true) {
                order.push(s.0);
            }
        }
    }

    if cap.block_addrs[cap.entry_block] != res.entry {
        reject(
            report,
            res.entry,
            format!(
                "entry block laid out at {:#x}, variant entry is {:#x}",
                cap.block_addrs[cap.entry_block], res.entry
            ),
        );
        return;
    }
    for &b in &order {
        if cap.block_addrs[b] == u64::MAX {
            reject(
                report,
                res.entry,
                format!("reachable captured block {b} was never laid out"),
            );
            return;
        }
    }

    // Slice the decoded region into per-block instruction runs: each block
    // extends from its address to the next block address (or region end).
    let mut sorted_addrs: Vec<u64> = order.iter().map(|&b| cap.block_addrs[b]).collect();
    sorted_addrs.sort_unstable();
    sorted_addrs.dedup();

    let mut plans: Vec<Option<BlockPlan>> = (0..nblocks).map(|_| None).collect();
    for &b in &order {
        let blk = &blocks[b];
        let addr = cap.block_addrs[b];
        let next = sorted_addrs.partition_point(|&a| a <= addr);
        let mut end = sorted_addrs.get(next).copied().unwrap_or(region.end);
        // A block whose body was fully optimized away and whose jmp was
        // elided occupies zero bytes: it shares its address with its jump
        // target, and every instruction at that address belongs to the
        // target, not to this block.
        if let Terminator::Jmp(t) = blk.term {
            if cap.block_addrs[t.0] == addr {
                end = addr;
            }
        }
        let start = match region.insts.binary_search_by_key(&addr, |&(a, _, _)| a) {
            Ok(i) => i,
            Err(_) => {
                reject(
                    report,
                    addr,
                    format!(
                        "captured block {b} address {addr:#x} is not on an instruction boundary"
                    ),
                );
                return;
            }
        };
        let stop = start + region.insts[start..].partition_point(|&(a, _, _)| a < end);
        let slice = &region.insts[start..stop];
        let body_len = match match_term(slice, end, &blk.term, &cap.block_addrs) {
            Ok(n) => n,
            Err(e) => {
                reject(report, addr, format!("block {b} terminator mismatch: {e}"));
                return;
            }
        };
        let branch = match blk.term {
            Terminator::Jcc { cond, .. } => Some(cond),
            _ => None,
        };
        plans[b] = Some(BlockPlan {
            post: start..start + body_len,
            branch,
            addr,
            events: [0..0, 0..0],
        });
    }

    let mut terms = Terms::with_capacity(region.insts.len());
    let init = SideState::entry(&mut terms);
    let mut px = Prover {
        cx: Ctx {
            img,
            known: res.snapshot.ranges(),
            rsp0: init.r[Gpr::Rsp as usize],
            escaped: cap.frame_escaped,
            ret_kind: req.config().ret,
        },
        terms,
        out: [init.clone(), init.clone()],
        events: [Vec::new(), Vec::new()],
        join: JoinScratch::default(),
        work: ProofWork {
            blocks: order.len() as u64,
            ..ProofWork::default()
        },
    };

    // Joint fixpoint over (pre, post) states. A block is walked again after
    // every change to its entry state, so the event streams its last walk
    // left behind are the ones its final entry state produces. The pending
    // block earliest in reverse postorder goes next: every predecessor that
    // is not inside a loop with it has delivered by then, so a block outside
    // a loop is walked once and a loop body once per change at its head.
    let rpo = reverse_postorder(&blocks, cap.entry_block);
    let pos = positions(&rpo, nblocks);
    let mut states: Vec<Option<[SideState; 2]>> = (0..nblocks).map(|_| None).collect();
    let mut visits = vec![0u32; nblocks];
    states[cap.entry_block] = Some([init.clone(), init]);
    let mut stuck = None;
    let mut pending = BTreeSet::from([0]);
    while let Some(at) = pending.pop_first() {
        let b = rpo[at];
        visits[b] += 1;
        if visits[b] > 200 {
            stuck = Some(b);
            break;
        }
        px.work.visits += 1;
        let (Some(plan), Some([spre, spost])) = (plans[b].as_mut(), states[b].as_ref()) else {
            continue;
        };
        let pre = blocks[b].insts.iter().map(|ci| &ci.inst);
        let post = region.insts[plan.post.clone()].iter().map(|(_, i, _)| i);
        let (ev_pre, halt_pre) = px.walk(0, b as u32, spre, pre, plan.branch);
        let (ev_post, halt_post) = px.walk(1, b as u32, spost, post, plan.branch);
        plan.events = [ev_pre, ev_post];
        if halt_pre || halt_post {
            continue;
        }
        for s in blocks[b].term.successors().map(|s| s.0) {
            let changed = match states[s].as_mut() {
                None => {
                    states[s] = Some(px.out.clone());
                    true
                }
                Some(cur) => {
                    px.work.joins += 1;
                    let out = [&px.out[0], &px.out[1]];
                    join(&mut px.terms, &mut px.join, cur, out, s as u32)
                }
            };
            if changed {
                pending.insert(pos[s]);
            }
        }
    }
    px.work.terms = px.terms.len() as u64;
    report.proof = px.work;
    if let Some(b) = stuck {
        reject(
            report,
            res.entry,
            format!("equivalence fixpoint did not converge at block {b}"),
        );
        return;
    }

    #[cfg(test)]
    tests::check_retained_streams(&mut px, &blocks, region, &plans, &states);

    // With stable per-block entry states, compare the observable event
    // streams of the two sides block by block.
    for &b in &order {
        let (Some(plan), Some(_)) = (plans[b].as_ref(), states[b].as_ref()) else {
            continue;
        };
        let ev_pre = &px.events[0][plan.events[0].clone()];
        let ev_post = &px.events[1][plan.events[1].clone()];
        if let Some(i) = ev_pre.iter().zip(ev_post).position(|(pe, qe)| pe != qe) {
            reject(
                report,
                plan.addr,
                format!(
                    "block {b} event {i} diverges: baseline {} vs optimized {}",
                    render_event(&px.terms, &ev_pre[i]),
                    render_event(&px.terms, &ev_post[i])
                ),
            );
        } else if ev_pre.len() != ev_post.len() {
            reject(
                report,
                plan.addr,
                format!(
                    "block {b} observable event count diverges: baseline {} vs optimized {}",
                    ev_pre.len(),
                    ev_post.len()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::fresh;
    use crate::frame::tests::{value_pool, ByteFrame};
    use crate::term::Node;
    use crate::{verify, VerifyOptions};
    use brew_core::Rewriter;
    use brew_x86::alu::ShOp;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Phi atoms the joins of the last proof interned.
        static PHIS: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs inside every proof a unit test makes: the streams each block's
    /// last fixpoint walk left behind must be what a fresh walk from its
    /// final entry state records — the second pass this prover no longer
    /// makes.
    pub(super) fn check_retained_streams(
        px: &mut Prover,
        blocks: &[brew_core::capture::CapturedBlock],
        region: &Region,
        plans: &[Option<BlockPlan>],
        states: &[Option<[SideState; 2]>],
    ) {
        let is_phi = |t: &usize| matches!(px.terms.get(*t as TermId), Node::Atom(Atom::Phi { .. }));
        PHIS.with(|p| p.set((0..px.terms.len()).filter(is_phi).count()));
        for (b, (plan, st)) in plans.iter().zip(states).enumerate() {
            let (Some(plan), Some([spre, spost])) = (plan, st) else {
                continue;
            };
            let pre = blocks[b].insts.iter().map(|ci| &ci.inst);
            let post = region.insts[plan.post.clone()].iter().map(|(_, i, _)| i);
            let again = [
                px.walk(0, b as u32, spre, pre, plan.branch).0,
                px.walk(1, b as u32, spost, post, plan.branch).0,
            ];
            for side in 0..2 {
                let ev = &px.events[side];
                assert_eq!(
                    ev[plan.events[side].clone()],
                    ev[again[side].clone()],
                    "block {b} side {side}: retained stream is stale"
                );
            }
        }
    }

    /// The work of proving the rewrite of `func` under `req`.
    fn proves(img: &Image, func: u64, req: &SpecRequest, what: &str) -> ProofWork {
        let res = Rewriter::new(img).rewrite(func, req).expect(what);
        let report = verify(img, func, req, &res, &VerifyOptions::default());
        assert!(report.passed(), "{what}: {:?}", report.findings);
        report.proof
    }

    fn proves_with_revisits(img: &Image, func: u64, req: &SpecRequest, what: &str) {
        let w = proves(img, func, req, what);
        assert!(
            w.visits > w.blocks,
            "{what}: no block was walked twice, the test proves nothing"
        );
    }

    fn unknown_ints(n: usize) -> SpecRequest {
        let req = SpecRequest::new().ret(RetKind::Int);
        (0..n).fold(req, |r, _| r.unknown_int())
    }

    #[test]
    fn retained_streams_equal_a_fresh_walk_where_a_loop_is_walked_again() {
        // The kept `gsum` loop: world migration closes it, its head joins.
        let pg = brew_pgas::PgasArray::new(64, 4, 0);
        let gsum = pg.prog.func("gsum").unwrap();
        proves_with_revisits(&pg.img, gsum, &pg.gsum_request(), "gsum.64");

        // The whole sweep, four body variants before migration.
        let st = brew_stencil::Stencil::new(16, 16);
        let sweep = st.prog.func("sweep_generic").unwrap();
        proves_with_revisits(&st.img, sweep, &st.sweep_request(4), "sweep_generic.u4");

        // A loop with an unknown trip count.
        let img = Image::new();
        let prog = brew_minic::compile_into(
            r#"
            int sum(int* p, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += p[i];
                return s;
            }
            "#,
            &img,
        )
        .unwrap();
        let sum = prog.func("sum").unwrap();
        let looped = unknown_ints(2).func(sum, |o| {
            o.branch_unknown = true;
            o.max_variants = 2;
        });
        proves_with_revisits(&img, sum, &looped, "sum loop");
    }

    #[test]
    fn forks_that_meet_again_are_walked_once_and_still_join() {
        let img = Image::new();
        let prog = brew_minic::compile_into(
            r#"
            int clamp(int x, int lo, int hi) {
                int r = x;
                if (x < lo) r = lo;
                if (x > hi) r = hi;
                return r;
            }
            "#,
            &img,
        )
        .unwrap();
        let clamp = prog.func("clamp").unwrap();
        let forks = unknown_ints(3).func(clamp, |o| o.max_variants = 1);
        let w = proves(&img, clamp, &forks, "clamp forks");
        // Both arms of a fork deliver before the block they meet in is
        // walked; what they disagree on still becomes a phi there.
        assert_eq!(w.visits, w.blocks, "{w:?}");
        assert!(w.joins > 0 && PHIS.with(Cell::get) > 0, "{w:?}");
    }

    #[test]
    fn a_chain_of_meets_is_walked_once_per_block() {
        for k in 1..=6 {
            let ifs: String = (0..k)
                .map(|i| format!("if (x > {}) r = r + {};\n", 10 * i, i + 1))
                .collect();
            let src = format!("int chain(int x) {{ int r = x;\n{ifs}return r; }}");
            let img = Image::new();
            let prog = brew_minic::compile_into(&src, &img).unwrap();
            let chain = prog.func("chain").unwrap();
            let req = unknown_ints(1).func(chain, |o| o.max_variants = 1);
            let w = proves(&img, chain, &req, "chain");
            assert!(w.joins >= k - 1, "k = {k}: the ifs no longer meet: {w:?}");
            assert_eq!(w.visits, w.blocks, "k = {k}: {w:?}");
        }
    }

    // ---- lazy flags ---------------------------------------------------------

    struct Rig {
        cx: Ctx<'static>,
        terms: Terms,
        st: SideState,
        events: Vec<Event>,
    }

    impl Rig {
        fn new() -> Rig {
            let img: &'static Image = Box::leak(Box::new(Image::new()));
            let mut terms = Terms::default();
            let st = SideState::entry(&mut terms);
            let cx = Ctx {
                img,
                known: &[],
                rsp0: st.r[Gpr::Rsp as usize],
                escaped: false,
                ret_kind: RetKind::Int,
            };
            Rig {
                cx,
                terms,
                st,
                events: Vec::new(),
            }
        }

        /// Walk `insts` as one block ending in `branch`; the out state stays
        /// in `self.st`.
        fn walk(&mut self, insts: &[Inst], branch: Option<Cond>) {
            let mut px = Prover {
                cx: Ctx { ..self.cx },
                terms: std::mem::take(&mut self.terms),
                out: [self.st.clone(), self.st.clone()],
                events: [Vec::new(), Vec::new()],
                join: JoinScratch::default(),
                work: ProofWork::default(),
            };
            px.walk(0, 0, &self.st, insts.iter(), branch);
            self.terms = px.terms;
            self.st = px.out[0].clone();
            self.events = std::mem::take(&mut px.events[0]);
        }

        fn flag_term(&mut self, k: u8, src: FlagSrc, args: &[TermId]) -> TermId {
            self.terms.op(Tag::Flag(k, src), args)
        }
    }

    fn alu(op: AluOp, dst: Gpr, src: Gpr) -> Inst {
        Inst::Alu {
            op,
            w: Width::W64,
            dst: Operand::Reg(dst),
            src: Operand::Reg(src),
        }
    }

    #[test]
    fn inc_and_dec_preserve_a_pending_carry() {
        let mut rig = Rig::new();
        let (rax, rbx, rcx) = (rig.st.r[0], rig.st.r[3], rig.st.r[1]);
        let inc = Inst::Unary {
            op: UnOp::Inc,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rcx),
        };
        // CF is still the add's when `jb` reads it after the inc; ZF is the
        // inc's.
        rig.walk(&[alu(AluOp::Add, Gpr::Rax, Gpr::Rbx), inc], Some(Cond::Be));
        let cf = rig.flag_term(0, FlagSrc::Alu(AluOp::Add, Width::W64), &[rax, rbx]);
        let one = rig.terms.constant(1);
        let zf = rig.flag_term(1, FlagSrc::Alu(AluOp::Add, Width::W64), &[rcx, one]);
        let want = Event::Branch {
            cc: Cond::Be.code() & !1,
            flags: [Some(cf), Some(zf), None],
        };
        assert_eq!(rig.events, vec![want]);
        // Every flag is interned at block exit.
        assert_eq!(rig.st.r[FLAGS], cf);
        assert_eq!(rig.st.r[FLAGS + 1], zf);
    }

    #[test]
    fn cl_shift_flags_chain_through_a_pending_producer() {
        let mut rig = Rig::new();
        let (rax, rbx, rcx) = (rig.st.r[0], rig.st.r[3], rig.st.r[1]);
        let shl = Inst::Shift {
            op: ShOp::Shl,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rbx),
            count: ShiftCount::Cl,
        };
        rig.walk(&[alu(AluOp::Cmp, Gpr::Rax, Gpr::Rbx), shl], Some(Cond::E));
        // The shift's ZF keeps the cmp's ZF as its "count was zero" case.
        let cmp_zf = rig.flag_term(1, FlagSrc::Alu(AluOp::Sub, Width::W64), &[rax, rbx]);
        let zf = rig.flag_term(
            1,
            FlagSrc::ShiftCl(ShOp::Shl, Width::W64),
            &[rbx, rcx, cmp_zf],
        );
        assert_eq!(
            rig.events,
            vec![Event::Branch {
                cc: Cond::E.code() & !1,
                flags: [Some(zf), None, None],
            }]
        );
    }

    #[test]
    fn flags_survive_a_block_boundary_and_a_join() {
        // Two predecessors end in different producers nobody read...
        let mut left = Rig::new();
        let (rax, rbx) = (left.st.r[0], left.st.r[3]);
        let entry = left.st.clone();
        left.walk(&[alu(AluOp::Cmp, Gpr::Rax, Gpr::Rbx)], None);
        let cmp_zf = left.flag_term(1, FlagSrc::Alu(AluOp::Sub, Width::W64), &[rax, rbx]);
        assert_eq!(left.st.r[FLAGS + 1], cmp_zf);
        let out_left = left.st.clone();
        left.st = entry;
        left.walk(
            &[Inst::Test {
                w: Width::W64,
                a: Operand::Reg(Gpr::Rax),
                b: Operand::Reg(Gpr::Rbx),
            }],
            None,
        );
        let out_right = left.st.clone();
        assert_ne!(out_left.r[FLAGS + 1], out_right.r[FLAGS + 1]);
        // ...their join phis each flag once, the same on both sides...
        let mut cur = [out_left.clone(), out_left];
        let changed = join(
            &mut left.terms,
            &mut JoinScratch::default(),
            &mut cur,
            [&out_right, &out_right],
            7,
        );
        assert!(changed);
        assert_eq!(cur[0].r[FLAGS + 1], cur[1].r[FLAGS + 1]);
        assert!(matches!(
            left.terms.get(cur[0].r[FLAGS + 1]),
            Node::Atom(Atom::Phi { block: 7, .. })
        ));
        // ...and the successor's branch reads the phi.
        left.st = cur[0].clone();
        left.walk(&[], Some(Cond::Ne));
        assert_eq!(
            left.events,
            vec![Event::Branch {
                cc: Cond::E.code() & !1,
                flags: [Some(cur[0].r[FLAGS + 1]), None, None],
            }]
        );
    }

    // ---- join against the byte-granular oracle ---------------------------------

    /// The join this prover replaced, over byte-granular frames: flatten
    /// both states over the joint key set's chunks, phi what differs,
    /// rebuild everything from the flat vector.
    type ByteSide = ([TermId; NREGS], ByteFrame);

    fn byte_join(
        terms: &mut Terms,
        cur: &mut (ByteSide, ByteSide),
        inc: [&ByteSide; 2],
        block: u32,
    ) -> bool {
        fn chunks(a: &ByteSide, b: &ByteSide) -> Vec<(i64, u8)> {
            let mut keys: Vec<i64> = a.1 .0.keys().chain(b.1 .0.keys()).copied().collect();
            keys.sort_unstable();
            keys.dedup();
            ByteFrame::chunks(&keys)
        }
        fn flatten(terms: &mut Terms, s: &ByteSide, chunks: &[(i64, u8)]) -> Vec<TermId> {
            let mut v = s.0.to_vec();
            for &(off, len) in chunks {
                v.push(s.1.load(terms, s.0[EPOCH], off, len));
            }
            v
        }
        fn unflatten(terms: &mut Terms, s: &mut ByteSide, chunks: &[(i64, u8)], v: &[TermId]) {
            s.0.copy_from_slice(&v[..NREGS]);
            s.1 .0.clear();
            for (&(off, len), &t) in chunks.iter().zip(&v[NREGS..]) {
                for k in 0..len {
                    let at = off + k as i64;
                    let b = terms.byte(t, k);
                    if b != fresh(terms, s.0[EPOCH], at) {
                        s.1 .0.insert(at, b);
                    }
                }
            }
        }
        let pre_chunks = chunks(&cur.0, inc[0]);
        let post_chunks = chunks(&cur.1, inc[1]);
        let mut cur_flat = flatten(terms, &cur.0, &pre_chunks);
        let pre_len = cur_flat.len();
        cur_flat.extend(flatten(terms, &cur.1, &post_chunks));
        let mut inc_flat = flatten(terms, inc[0], &pre_chunks);
        inc_flat.extend(flatten(terms, inc[1], &post_chunks));
        let mut class: WordMap<(TermId, TermId), u32> = WordMap::default();
        let mut changed = false;
        for i in 0..cur_flat.len() {
            let (c, v) = (cur_flat[i], inc_flat[i]);
            if c == v {
                continue;
            }
            let cls = *class.entry((c, v)).or_insert(i as u32);
            let phi = terms.atom(Atom::Phi { block, class: cls });
            if cur_flat[i] != phi {
                cur_flat[i] = phi;
                changed = true;
            }
        }
        if changed {
            unflatten(terms, &mut cur.0, &pre_chunks, &cur_flat[..pre_len]);
            unflatten(terms, &mut cur.1, &post_chunks, &cur_flat[pre_len..]);
        }
        changed
    }

    /// `(offset, len, value)` stores and `(register, value)` writes that
    /// build one state; `epoch` picks one of two frame epochs.
    type Recipe = (Vec<(i64, u8, usize)>, Vec<(usize, usize)>, bool);

    fn recipe() -> impl Strategy<Value = Recipe> {
        let len = proptest::sample::select(&[1u8, 4, 8][..]);
        (
            proptest::collection::vec((-16i64..32, len, 0usize..64), 0..8),
            proptest::collection::vec((0usize..NREGS - 2, 0usize..64), 0..6),
            any::<bool>(),
        )
    }

    fn build(terms: &mut Terms, pool: &[TermId], epochs: [TermId; 2], rx: &Recipe) -> SideState {
        let mut st = SideState::entry(terms);
        st.r[EPOCH] = epochs[rx.2 as usize];
        for &(off, len, v) in &rx.0 {
            let val = pool[v % pool.len()];
            let src = if len == 1 { terms.byte(val, 0) } else { val };
            st.frame.put(terms, off, len, src);
        }
        for &(r, v) in &rx.1 {
            st.r[r] = pool[v % pool.len()];
        }
        st
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Three rounds of joins into one accumulated state leave the same
        /// registers, the same frame bytes and the same verdict as the
        /// byte-granular join, misaligned chunks, moved epochs and
        /// fresh-equal bytes included.
        #[test]
        fn slot_join_matches_the_byte_join(
            start in (recipe(), recipe()),
            rounds in proptest::collection::vec((recipe(), recipe()), 1..4),
        ) {
            let mut terms = Terms::default();
            let mut pool = value_pool(&mut terms);
            let epochs = [terms.atom(Atom::Frame), terms.atom(Atom::CallFrame { block: 1, idx: 0 })];
            // Unwritten bytes read under one epoch, stored back in place
            // (offset 8) under either: explicit fresh-equal bytes.
            pool.push(Frame::default().load(&mut terms, epochs[0], 8, 8));
            let mut cur = [
                build(&mut terms, &pool, epochs, &start.0),
                build(&mut terms, &pool, epochs, &start.1),
            ];
            let bytes = |terms: &mut Terms, s: &SideState| (s.r, s.frame.bytes(terms));
            let mut old = (bytes(&mut terms, &cur[0]), bytes(&mut terms, &cur[1]));
            let mut js = JoinScratch::default();
            for (i, (pre, post)) in rounds.iter().enumerate() {
                let inc = [
                    build(&mut terms, &pool, epochs, pre),
                    build(&mut terms, &pool, epochs, post),
                ];
                let old_inc = [bytes(&mut terms, &inc[0]), bytes(&mut terms, &inc[1])];
                let changed = join(&mut terms, &mut js, &mut cur, [&inc[0], &inc[1]], 3);
                let old_changed = byte_join(&mut terms, &mut old, [&old_inc[0], &old_inc[1]], 3);
                prop_assert_eq!(changed, old_changed, "round {}", i);
                prop_assert_eq!(bytes(&mut terms, &cur[0]), old.0.clone(), "round {} pre", i);
                prop_assert_eq!(bytes(&mut terms, &cur[1]), old.1.clone(), "round {} post", i);
            }
        }
    }
}
