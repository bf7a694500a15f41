//! Forward constant and copy propagation over the captured CFG.
//!
//! The tracer forgets what it knew whenever world migration demotes a
//! state, and `branch_unknown` makes it emit flag writers over materialized
//! constants; both leave code whose operands are compile-time constants
//! the emitted instructions no longer say so. This pass recovers them.
//!
//! **Lattice.** Every GPR, XMM low lane and 8-byte frame slot holds
//! *unreached* (its block has no state yet), a constant, an
//! entry-`rsp`-relative address, or *unknown*; the flags are known or not.
//! The transfer functions are the tracer's own ([`crate::value`], i.e.
//! [`brew_x86::alu`]) plus the identities `x * 0`, `x ^ x` and `x - x`.
//! States meet at block entries: a location keeps a value only when every
//! incoming edge agrees on it, so a slot written with two different
//! constants on two edges is unknown. Both edges of a conditional jump
//! count as executable — the CFG keeps its shape, and the equivalence
//! prover walks both — so this is optimistic constant propagation, not
//! the conditional kind.
//!
//! **Copies.** Inside an extended basic block every unknown value also
//! carries an identity, so a load of an XMM slot or an absolute cell whose
//! value still sits in a register becomes a register move or disappears,
//! and a `pop` of what its register still holds becomes an `rsp` bump —
//! the store-to-load forwarding this pass took over. Identities stop at
//! joins. Integer frame slots are the exception: a load of one is only ever
//! replaced by a constant. Slot allocation gives such a slot a register of
//! its own, which the copy coalescer can work with; a copy out of whatever
//! scratch register last held the value cannot be coalesced, and on the
//! differential corpus made one variant in nine longer.
//!
//! **Frame.** Slots are addressed through the tracked `rsp`, die when
//! `rsp` is raised past them, and below `rsp` at a call. While the frame
//! has not escaped no other store can reach them; once it has, they last
//! only to the next block boundary, call or store through an unknown
//! pointer.
//!
//! **Rewrites.** Known source operands become immediates or absolute
//! displacements; an instruction whose result is a constant becomes
//! `mov r, imm` when the flags it would have written are dead. Nothing
//! that writes `rsp` is touched. Dead producers are left for
//! the dead-code sweep that runs next (`liveness::eliminate_dead_code`).

use super::cx::{bit, Kind, PassCx};
use crate::capture::{positions, CapturedInst};
use crate::exec::imm_for;
use crate::tracer::materialize_gpr_inst;
use crate::value::{alu_value, imul_value, shift_value, test_value, unop_value, FlagsVal, Value};
use brew_x86::prelude::*;

/// Abstract value of one location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AVal {
    Unknown,
    Const(u64),
    /// `entry rsp + offset`.
    StackRel(i64),
    /// An unknown value with an identity: two locations holding the same
    /// `Sym` hold the same runtime value.
    Sym(u32),
}

impl AVal {
    fn value(self) -> Value {
        match self {
            AVal::Const(c) => Value::Const(c),
            AVal::StackRel(o) => Value::StackRel(o),
            AVal::Unknown | AVal::Sym(_) => Value::Unknown,
        }
    }

    fn erased(self) -> AVal {
        match self {
            AVal::Sym(_) => AVal::Unknown,
            v => v,
        }
    }
}

/// Where a memory operand points.
#[derive(Clone, Copy)]
enum Place {
    /// Frame byte at this entry-rsp-relative offset.
    Frame(i64),
    /// Absolute address.
    Abs(u64),
    /// Unknown address; `stack` when it is formed from `rsp`.
    Other { stack: bool },
}

#[derive(Clone, PartialEq)]
struct State {
    gpr: [AVal; 16],
    /// XMM low lanes (bit patterns).
    xmm: [AVal; 16],
    flags: Option<Flags>,
    /// The 8-byte frame slots from entry-rsp offset `lo` up, one each.
    slots: Vec<AVal>,
    lo: i64,
    /// Known absolute 8-byte cells; never survives a join.
    abs: Vec<(u64, AVal)>,
}

impl State {
    /// The state at function entry, tracking the frame bytes `[lo, hi)`.
    fn entry(lo: i64, hi: i64) -> State {
        let mut gpr = [AVal::Unknown; 16];
        gpr[Gpr::Rsp as usize] = AVal::StackRel(0);
        State {
            gpr,
            xmm: [AVal::Unknown; 16],
            flags: None,
            slots: vec![AVal::Unknown; ((hi - lo) / 8) as usize],
            lo,
            abs: Vec::new(),
        }
    }

    fn rsp_off(&self) -> Option<i64> {
        match self.gpr[Gpr::Rsp as usize] {
            AVal::StackRel(o) => Some(o),
            _ => None,
        }
    }

    /// The tracked slot at `off`, if `off` is one.
    fn slot_mut(&mut self, off: i64) -> Option<&mut AVal> {
        let rel = off - self.lo;
        (rel % 8 == 0)
            .then(|| self.slots.get_mut(usize::try_from(rel / 8).ok()?))
            .flatten()
    }

    /// Forget every slot overlapping `[lo, hi)`.
    fn kill_slots(&mut self, lo: i64, hi: i64) {
        let n = self.slots.len() as i64;
        let first = lo.saturating_sub(self.lo).div_euclid(8);
        let end = hi.saturating_sub(self.lo).saturating_add(7).div_euclid(8);
        let (first, end) = (first.clamp(0, n) as usize, end.clamp(0, n) as usize);
        if first < end {
            self.slots[first..end].fill(AVal::Unknown);
        }
    }

    fn set_gpr(&mut self, r: Gpr, v: AVal) {
        if r == Gpr::Rsp {
            // Raising rsp abandons the bytes it passes.
            match (self.rsp_off(), v) {
                (Some(o), AVal::StackRel(n)) => self.kill_slots(o, n),
                _ => self.slots.fill(AVal::Unknown),
            }
        }
        self.gpr[r as usize] = v;
    }

    /// The state as a successor reached over a join sees it.
    fn erase(&mut self, escaped: bool) {
        let regs = self.gpr.iter_mut().chain(&mut self.xmm);
        for v in regs.chain(&mut self.slots) {
            *v = v.erased();
        }
        self.abs.clear();
        if escaped {
            self.slots.fill(AVal::Unknown);
        }
    }

    /// Meet `inc` into `self`; `true` if anything was lost.
    fn meet(&mut self, inc: &State) -> bool {
        let mut changed = false;
        let mine = self
            .gpr
            .iter_mut()
            .chain(&mut self.xmm)
            .chain(&mut self.slots);
        let theirs = inc.gpr.iter().chain(&inc.xmm).chain(&inc.slots);
        for (c, i) in mine.zip(theirs) {
            if *c != *i && *c != AVal::Unknown {
                *c = AVal::Unknown;
                changed = true;
            }
        }
        if self.flags != inc.flags && self.flags.is_some() {
            self.flags = None;
            changed = true;
        }
        changed
    }
}

/// `mov d, c` at the narrowest encoding that produces the full register.
fn mov_const(d: Gpr, c: u64) -> Option<Inst> {
    materialize_gpr_inst(d, Value::Const(c), 0).ok()
}

struct Prop {
    next_sym: u32,
    escaped: bool,
    xmm_forward: bool,
    /// Are the flags the current instruction writes dead? (From the
    /// pre-rewrite code: rewriting only ever removes flag readers.)
    flags_dead: bool,
    /// That, for every instruction of the block being walked, last first.
    dead_after: Vec<bool>,
}

impl Prop {
    fn fresh(&mut self) -> AVal {
        self.next_sym += 1;
        AVal::Sym(self.next_sym)
    }

    fn known_or_fresh(&mut self, v: Value) -> AVal {
        match v {
            Value::Const(c) => AVal::Const(c),
            Value::StackRel(o) => AVal::StackRel(o),
            Value::Unknown => self.fresh(),
        }
    }

    fn place(&self, st: &State, m: &MemRef) -> Place {
        let disp = m.disp as i64;
        let stack = || m.regs().any(|r| r == Gpr::Rsp);
        match (m.base.map(|b| st.gpr[b as usize]), m.index) {
            (Some(AVal::StackRel(o)), None) => Place::Frame(o.wrapping_add(disp)),
            (Some(AVal::Const(c)), None) => Place::Abs(c.wrapping_add(disp as u64)),
            (None, None) => Place::Abs(disp as u64),
            (Some(_), None) => Place::Other { stack: stack() },
            (base, Some((i, s))) => {
                let base = base.map_or(Value::Const(0), AVal::value);
                let scaled = match st.gpr[i as usize].value() {
                    Value::Const(c) => Value::Const(c.wrapping_mul(s as u64)),
                    Value::StackRel(o) if s == 1 => Value::StackRel(o),
                    _ => Value::Unknown,
                };
                let sum = alu_value(AluOp::Add, Width::W64, base, scaled).0;
                match alu_value(AluOp::Add, Width::W64, sum, Value::Const(disp as u64)).0 {
                    Value::StackRel(o) => Place::Frame(o),
                    Value::Const(a) => Place::Abs(a),
                    Value::Unknown => Place::Other { stack: stack() },
                }
            }
        }
    }

    /// The `len` bytes at `place`. An unknown 8-byte cell gets an identity
    /// so that a second load of it can reuse the first.
    fn read(&mut self, st: &mut State, place: Place, len: u8) -> AVal {
        let whole = match place {
            Place::Frame(off) => match st.slot_mut(off) {
                Some(v) => *v,
                None => return AVal::Unknown,
            },
            Place::Abs(a) if a % 8 == 0 => {
                let hit = st.abs.iter().find(|c| c.0 == a);
                hit.map_or(AVal::Unknown, |c| c.1)
            }
            _ => return AVal::Unknown,
        };
        match (whole, len) {
            (AVal::Unknown, 8) => {
                let v = self.fresh();
                self.write(st, place, 8, v);
                v
            }
            (v, 8) => v,
            (AVal::Const(c), 4) => AVal::Const(c & 0xffff_ffff),
            (AVal::Const(c), 1) => AVal::Const(c & 0xff),
            _ => AVal::Unknown,
        }
    }

    fn write(&mut self, st: &mut State, place: Place, len: u8, v: AVal) {
        match place {
            Place::Frame(off) => match (len, st.slot_mut(off)) {
                (8, Some(slot)) => *slot = v,
                _ => st.kill_slots(off, off + len as i64),
            },
            Place::Abs(a) => {
                st.abs
                    .retain(|&(c, _)| c.wrapping_add(8) <= a || c >= a.wrapping_add(len as u64));
                if len == 8 && a % 8 == 0 && v != AVal::Unknown {
                    st.abs.push((a, v));
                }
            }
            Place::Other { stack } => {
                st.abs.clear();
                if stack || self.escaped {
                    st.slots.fill(AVal::Unknown);
                }
            }
        }
    }

    fn write_gpr(&mut self, st: &mut State, d: Gpr, w: Width, v: AVal) {
        let v = match (w, v) {
            (Width::W64, v) => v,
            (Width::W32, AVal::Const(c)) => AVal::Const(c as u32 as u64),
            (Width::W8, AVal::Const(b)) => match st.gpr[d as usize] {
                AVal::Const(old) => AVal::Const((old & !0xff) | (b & 0xff)),
                _ => AVal::Unknown,
            },
            _ => AVal::Unknown,
        };
        let v = if v == AVal::Unknown { self.fresh() } else { v };
        st.set_gpr(d, v);
    }

    /// A GPR (never `rsp`) that holds `v`.
    fn gpr_holding(st: &State, v: AVal) -> Option<Gpr> {
        (v != AVal::Unknown)
            .then(|| (0..16).find(|&i| i != Gpr::Rsp as usize && st.gpr[i] == v))?
            .map(|i| Gpr::from_number(i as u8))
    }

    fn xmm_holding(&self, st: &State, v: AVal) -> Option<Xmm> {
        (self.xmm_forward && v != AVal::Unknown)
            .then(|| (0..16).find(|&i| st.xmm[i] == v))?
            .map(|i| Xmm::from_number(i as u8))
    }

    /// Absolute form of a memory operand whose registers are all constant.
    fn fold_mem(&self, st: &State, m: &MemRef) -> MemRef {
        match self.place(st, m) {
            Place::Abs(a) if m.base.is_some() || m.index.is_some() => {
                MemRef::abs_u64(a).unwrap_or(*m)
            }
            _ => *m,
        }
    }

    /// Value of an integer source operand, and the cheapest operand that
    /// still produces it: an immediate, a register already holding a
    /// loaded cell, or the operand with its address folded.
    fn int_src(&mut self, st: &mut State, op: &Operand, w: Width) -> (AVal, Operand) {
        let imm = |v: AVal| match v {
            AVal::Const(c) => imm_for(w, c).map(Operand::Imm),
            _ => None,
        };
        match op {
            Operand::Reg(r) => {
                let v = st.gpr[*r as usize];
                (v, imm(v).unwrap_or(*op))
            }
            Operand::Imm(i) => (AVal::Const(w.trunc(*i as u64)), *op),
            Operand::Mem(m) => {
                let place = self.place(st, m);
                let v = self.read(st, place, w.bytes() as u8);
                // (Not out of a frame slot: see the module docs.)
                let held = (w == Width::W64 && !matches!(place, Place::Frame(_)))
                    .then(|| Self::gpr_holding(st, v))
                    .flatten();
                let new = imm(v)
                    .or(held.map(Operand::Reg))
                    .unwrap_or_else(|| Operand::Mem(self.fold_mem(st, m)));
                (v, new)
            }
            Operand::Xmm(_) => (AVal::Unknown, *op),
        }
    }

    /// Low lane of an SSE source operand and its cheapest form.
    fn sse_src(&mut self, st: &mut State, op: &Operand) -> (AVal, Operand) {
        match op {
            Operand::Xmm(x) => (st.xmm[*x as usize], *op),
            Operand::Mem(m) => {
                let place = self.place(st, m);
                let v = self.read(st, place, 8);
                let new = match self.xmm_holding(st, v) {
                    Some(x) => Operand::Xmm(x),
                    None => Operand::Mem(self.fold_mem(st, m)),
                };
                (v, new)
            }
            _ => (AVal::Unknown, *op),
        }
    }

    fn set_flags(st: &mut State, f: FlagsVal) {
        st.flags = f.known();
    }

    /// `mov d, c` in place of an instruction that computes the constant
    /// `c` into `d` — unless flags it writes are still read.
    fn folded(&self, d: Gpr, v: AVal, writes_flags: bool) -> Option<Inst> {
        match v {
            AVal::Const(c) if d != Gpr::Rsp && (!writes_flags || self.flags_dead) => {
                mov_const(d, c)
            }
            _ => None,
        }
    }

    /// Execute `inst` on `st`. Returns what to emit in its place: `None`
    /// deletes it, otherwise the same or a cheaper equivalent instruction.
    fn exec(&mut self, st: &mut State, inst: &Inst) -> Option<Inst> {
        let keep = Some(*inst);
        match *inst {
            Inst::Nop | Inst::JmpRel { .. } | Inst::Jcc { .. } => keep,

            Inst::Mov {
                w,
                dst: Operand::Reg(d),
                ref src,
            } => {
                let (v, new_src) = self.int_src(st, src, w);
                // A register source stays a register: the immediate form
                // is longer and no faster.
                let new_src = if src.is_mem() { new_src } else { *src };
                let out = match (src, new_src) {
                    _ if d == Gpr::Rsp => keep,
                    (Operand::Mem(_), Operand::Reg(r)) if r == d => None,
                    (Operand::Mem(_), Operand::Imm(_)) if w != Width::W8 => match v {
                        AVal::Const(c) => mov_const(d, c).or(keep),
                        _ => keep,
                    },
                    (Operand::Mem(_), Operand::Imm(_)) => keep,
                    _ => Some(Inst::Mov {
                        w,
                        dst: Operand::Reg(d),
                        src: new_src,
                    }),
                };
                self.write_gpr(st, d, w, v);
                out
            }
            Inst::Mov {
                w,
                dst: Operand::Mem(ref m),
                ref src,
            } => {
                let (v, _) = self.int_src(st, src, w);
                let v = match (w, v) {
                    (Width::W64, v) => v,
                    (_, AVal::Const(c)) => AVal::Const(w.trunc(c)),
                    _ => AVal::Unknown,
                };
                let place = self.place(st, m);
                self.write(st, place, w.bytes() as u8, v);
                Some(Inst::Mov {
                    w,
                    dst: Operand::Mem(self.fold_mem(st, m)),
                    src: *src,
                })
            }
            Inst::MovAbs { dst, imm } => {
                st.set_gpr(dst, AVal::Const(imm));
                keep
            }
            Inst::Movsxd { dst, ref src } => {
                let (v, _) = self.int_src(st, src, Width::W32);
                let v = match v {
                    AVal::Const(c) => AVal::Const(Width::W32.sext(c)),
                    _ => AVal::Unknown,
                };
                self.write_gpr(st, dst, Width::W64, v);
                self.folded(dst, v, false).or(keep)
            }
            Inst::Movzx8 { w, dst, ref src } => {
                let (v, _) = self.int_src(st, src, Width::W8);
                let v = match v {
                    AVal::Const(c) => AVal::Const(c & 0xff),
                    _ => AVal::Unknown,
                };
                self.write_gpr(st, dst, w, v);
                self.folded(dst, v, false).or(keep)
            }
            Inst::Lea { dst, ref src } => {
                let v = match self.place(st, src) {
                    Place::Frame(o) => AVal::StackRel(o),
                    Place::Abs(a) => AVal::Const(a),
                    Place::Other { .. } => AVal::Unknown,
                };
                self.write_gpr(st, dst, Width::W64, v);
                keep
            }

            Inst::Alu {
                op,
                w,
                ref dst,
                ref src,
            } => {
                let (b, new_src) = self.int_src(st, src, w);
                let (a, _) = self.int_src(st, dst, w);
                let same_reg = matches!((dst, src), (Operand::Reg(x), Operand::Reg(y)) if x == y);
                let (res, fl) = if same_reg && matches!(op, AluOp::Xor | AluOp::Sub) {
                    alu_value(op, w, Value::Const(0), Value::Const(0))
                } else {
                    alu_value(op, w, a.value(), b.value())
                };
                Self::set_flags(st, fl);
                // (A stack-pointer adjustment stays exactly as it is.)
                let new_src = if *dst == Operand::Reg(Gpr::Rsp) {
                    *src
                } else {
                    new_src
                };
                let mut out = Inst::Alu {
                    op,
                    w,
                    dst: *dst,
                    src: new_src,
                };
                if op.writes_dst() {
                    // `x + 0` and friends keep x's identity.
                    let identity = w == Width::W64
                        && match op {
                            AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor => b == AVal::Const(0),
                            AluOp::And => b == AVal::Const(u64::MAX),
                            AluOp::Cmp => false,
                        };
                    let res = if identity {
                        a
                    } else {
                        self.known_or_fresh(res)
                    };
                    match dst {
                        Operand::Reg(d) => {
                            self.write_gpr(st, *d, w, res);
                            if w != Width::W8 {
                                out = self.folded(*d, st.gpr[*d as usize], true).unwrap_or(out);
                            }
                        }
                        Operand::Mem(m) => {
                            let place = self.place(st, m);
                            self.write(st, place, w.bytes() as u8, AVal::Unknown);
                        }
                        _ => {}
                    }
                }
                Some(out)
            }
            Inst::Test { w, ref a, ref b } => {
                // `test r, imm32` is longer than `test r, r`: operands stay.
                let (va, _) = self.int_src(st, a, w);
                let (vb, _) = self.int_src(st, b, w);
                Self::set_flags(st, test_value(w, va.value(), vb.value()));
                keep
            }
            Inst::Imul { w, dst, ref src } => {
                let (b, new_src) = self.int_src(st, src, w);
                let a = st.gpr[dst as usize];
                let res = self.imul(st, w, a, b);
                self.write_gpr(st, dst, w, res);
                let out = match new_src {
                    Operand::Imm(i) => i32::try_from(i).ok().map(|imm| Inst::ImulImm {
                        w,
                        dst,
                        src: Operand::Reg(dst),
                        imm,
                    }),
                    _ => None,
                }
                .unwrap_or(Inst::Imul {
                    w,
                    dst,
                    src: new_src,
                });
                self.folded(dst, st.gpr[dst as usize], true).or(Some(out))
            }
            Inst::ImulImm {
                w,
                dst,
                ref src,
                imm,
            } => {
                let (a, _) = self.int_src(st, src, w);
                let res = self.imul(st, w, a, AVal::Const(imm as i64 as u64));
                self.write_gpr(st, dst, w, res);
                self.folded(dst, st.gpr[dst as usize], true).or(keep)
            }
            Inst::Unary {
                op,
                w,
                dst: Operand::Reg(d),
            } => {
                let prev = st.flags.map_or(FlagsVal::Unknown, FlagsVal::Known);
                let (res, fl) = unop_value(op, w, st.gpr[d as usize].value(), prev);
                Self::set_flags(st, fl);
                let res = self.known_or_fresh(res);
                self.write_gpr(st, d, w, res);
                let writes_flags = op != UnOp::Not;
                let fold = (w != Width::W8)
                    .then(|| self.folded(d, st.gpr[d as usize], writes_flags))
                    .flatten();
                fold.or(keep)
            }
            Inst::Shift {
                op,
                w,
                dst: Operand::Reg(d),
                count,
            } => {
                let cval = match count {
                    ShiftCount::Imm(i) => Value::Const(i as u64),
                    ShiftCount::Cl => st.gpr[Gpr::Rcx as usize].value(),
                };
                let prev = st.flags.map_or(FlagsVal::Unknown, FlagsVal::Known);
                let (res, fl) = shift_value(op, w, st.gpr[d as usize].value(), cval, prev);
                Self::set_flags(st, fl);
                let res = self.known_or_fresh(res);
                self.write_gpr(st, d, w, res);
                let count = match cval {
                    Value::Const(c) => ShiftCount::Imm(c as u8),
                    _ => count,
                };
                let fold = (w != Width::W8)
                    .then(|| self.folded(d, st.gpr[d as usize], true))
                    .flatten();
                fold.or(Some(Inst::Shift {
                    op,
                    w,
                    dst: Operand::Reg(d),
                    count,
                }))
            }
            Inst::Setcc {
                cond,
                dst: Operand::Reg(d),
            } => {
                let bit = st.flags.map(|f| AVal::Const(f.cond(cond) as u64));
                self.write_gpr(st, d, Width::W8, bit.unwrap_or(AVal::Unknown));
                self.folded(d, st.gpr[d as usize], false).or(keep)
            }

            Inst::Push { ref src } => {
                let (v, new_src) = self.int_src(st, src, Width::W64);
                match st.rsp_off() {
                    Some(o) => {
                        st.set_gpr(Gpr::Rsp, AVal::StackRel(o - 8));
                        self.write(st, Place::Frame(o - 8), 8, v);
                    }
                    None => st.slots.fill(AVal::Unknown),
                }
                // `push imm32` sign-extends to the slot.
                let new_src = match new_src {
                    Operand::Imm(i) if i32::try_from(i).is_err() => *src,
                    s => s,
                };
                Some(Inst::Push { src: new_src })
            }
            Inst::Pop {
                dst: Operand::Reg(d),
            } => {
                let Some(o) = st.rsp_off() else {
                    self.write_gpr(st, d, Width::W64, AVal::Unknown);
                    return keep;
                };
                let v = self.read(st, Place::Frame(o), 8);
                if d == Gpr::Rsp {
                    st.set_gpr(Gpr::Rsp, AVal::Unknown);
                    return keep;
                }
                let in_place = v != AVal::Unknown && st.gpr[d as usize] == v;
                st.set_gpr(Gpr::Rsp, AVal::StackRel(o + 8));
                self.write_gpr(st, d, Width::W64, v);
                if in_place {
                    return Some(Inst::Lea {
                        dst: Gpr::Rsp,
                        src: MemRef::base_disp(Gpr::Rsp, 8),
                    });
                }
                keep
            }

            Inst::MovSd {
                dst: Operand::Xmm(d),
                ref src,
            } => {
                let (v, new_src) = self.sse_src(st, src);
                let v = if v == AVal::Unknown { self.fresh() } else { v };
                st.xmm[d as usize] = v;
                match (src, new_src) {
                    (Operand::Mem(_), Operand::Xmm(x)) if x == d => None,
                    _ => Some(Inst::MovSd {
                        dst: Operand::Xmm(d),
                        src: new_src,
                    }),
                }
            }
            Inst::MovSd {
                dst: Operand::Mem(ref m),
                src: Operand::Xmm(s),
            } => {
                let place = self.place(st, m);
                self.write(st, place, 8, st.xmm[s as usize]);
                Some(Inst::MovSd {
                    dst: Operand::Mem(self.fold_mem(st, m)),
                    src: Operand::Xmm(s),
                })
            }
            Inst::Sse { op, dst, ref src } if !op.is_packed() => {
                let (_, new_src) = self.sse_src(st, src);
                st.xmm[dst as usize] = self.fresh();
                Some(Inst::Sse {
                    op,
                    dst,
                    src: new_src,
                })
            }
            Inst::Sse {
                op: SseOp::Xorpd,
                dst,
                src: Operand::Xmm(s),
            } if s == dst => {
                st.xmm[dst as usize] = AVal::Const(0);
                keep
            }

            Inst::CallRel { .. } | Inst::CallInd { .. } => {
                // The callee owns everything below the stack top, every
                // register but rsp, and (through an escaped frame or any
                // global) all memory we do not hold privately.
                let rsp = st.gpr[Gpr::Rsp as usize];
                for i in 0..16 {
                    st.gpr[i] = self.fresh();
                    st.xmm[i] = self.fresh();
                }
                st.gpr[Gpr::Rsp as usize] = rsp;
                st.flags = None;
                st.abs.clear();
                match (st.rsp_off(), self.escaped) {
                    (Some(o), false) => st.kill_slots(i64::MIN, o),
                    _ => st.slots.fill(AVal::Unknown),
                }
                keep
            }
            Inst::Ret | Inst::JmpInd { .. } | Inst::Ud2 => {
                // Nothing runs after it.
                st.set_gpr(Gpr::Rsp, AVal::Unknown);
                keep
            }

            // Everything else: its register writes become unknown, its
            // store (if any) lands wherever its operand points.
            _ => {
                if let Some(m) = inst.mem_store() {
                    let place = self.place(st, &m);
                    self.write(st, place, inst.mem_width(), AVal::Unknown);
                }
                defuse::for_each_write(inst, &mut |l| {
                    let v = self.fresh();
                    match l {
                        Loc::Gpr(Gpr::Rsp) => st.set_gpr(Gpr::Rsp, AVal::Unknown),
                        Loc::Gpr(g) => st.set_gpr(g, v),
                        Loc::Xmm(x) => st.xmm[x as usize] = v,
                    }
                });
                if inst.writes_flags() {
                    st.flags = None;
                }
                keep
            }
        }
    }

    /// Product lattice value of a multiply (`x * 0 = 0` included).
    fn imul(&mut self, st: &mut State, w: Width, a: AVal, b: AVal) -> AVal {
        let (res, fl) = imul_value(w, a.value(), b.value());
        Self::set_flags(st, fl);
        self.known_or_fresh(res)
    }

    /// The offsets this pass derives from the tracked `rsp` are the ones
    /// the tracer recorded (and the liveness sweep goes by).
    fn check_offsets(&self, st: &State, ci: &CapturedInst) {
        if cfg!(debug_assertions) {
            let derived = |m: Option<MemRef>| match m.map(|m| self.place(st, &m)) {
                Some(Place::Frame(o)) => Some(o),
                _ => None,
            };
            let (store, load) = match (&ci.inst, st.rsp_off()) {
                (Inst::Push { src }, Some(o)) => (Some(o - 8), derived(src.mem())),
                (Inst::Pop { .. }, Some(o)) => (None, Some(o)),
                (Inst::Push { .. } | Inst::Pop { .. }, None) => (None, None),
                (i, _) => (derived(i.mem_store()), derived(i.mem_load())),
            };
            for (mine, tracer) in [(store, ci.frame_store), (load, ci.frame_load)] {
                if let (Some(a), Some(b)) = (mine, tracer) {
                    debug_assert_eq!(a, b, "frame offset of {}", ci.inst);
                }
            }
        }
    }

    /// Run block `b` from `st` (left holding the block's out state). When
    /// the walk changes the block — `true` — the rewritten body is in `out`
    /// and, per instruction, the index it had before in `origin` (`None` for
    /// one this walk wrote); while everything stays as it is nothing is
    /// copied.
    fn walk(
        &mut self,
        cx: &PassCx,
        b: usize,
        st: &mut State,
        out: &mut Vec<CapturedInst>,
        origin: &mut Vec<Option<u32>>,
    ) -> bool {
        // Unknown inputs get identities of their own.
        for i in 0..16 {
            if st.gpr[i] == AVal::Unknown {
                st.gpr[i] = self.fresh();
            }
            if st.xmm[i] == AVal::Unknown {
                st.xmm[i] = self.fresh();
            }
        }
        // For each instruction: are the flags dead right after it?
        let mut live = cx.live_out(b).flags;
        self.dead_after.clear();
        self.dead_after.extend(cx.effects(b).iter().rev().map(|e| {
            let dead = !live;
            if e.kind != Kind::Plain || e.is(bit::READS_FLAGS) {
                live = e.kind != Kind::Ret;
            } else if e.is(bit::KILLS_FLAGS) {
                live = false;
            }
            dead
        }));
        let insts = cx.insts(b);
        out.clear();
        origin.clear();
        let mut changed = false;
        for (i, ci) in insts.iter().enumerate() {
            self.flags_dead = self.dead_after[insts.len() - 1 - i];
            self.check_offsets(st, ci);
            let new = self.exec(st, &ci.inst);
            let same = new == Some(ci.inst);
            if same && !changed {
                continue;
            }
            if !changed {
                changed = true;
                out.reserve(insts.len());
                out.extend_from_slice(&insts[..i]);
                origin.extend((0..i as u32).map(Some));
            }
            if let Some(inst) = new {
                out.push(CapturedInst {
                    inst,
                    frame_store: (ci.frame_store).filter(|_| same || inst.mem_store().is_some()),
                    frame_load: (ci.frame_load).filter(|_| same || inst.mem_load().is_some()),
                });
                origin.push(same.then_some(i as u32));
            }
        }
        changed
    }
}

/// The frame bytes `[lo, hi)` the tracer recorded accesses to, widened to
/// whole slots; empty when that is more than any real frame.
fn frame_extent(cx: &PassCx) -> (i64, i64) {
    let offs = (0..cx.len())
        .flat_map(|b| cx.insts(b))
        .flat_map(|ci| [ci.frame_store, ci.frame_load])
        .flatten();
    let (lo, hi) = offs.fold((0, 0), |(lo, hi), o| (lo.min(o), hi.max(o + 16)));
    let (lo, hi) = (lo.div_euclid(8) * 8, hi.div_euclid(8) * 8 + 8);
    if hi - lo > (1 << 16) {
        (0, 0)
    } else {
        (lo, hi)
    }
}

/// Propagate constants and copies from the entry block
/// (`CapturedBlock::is_entry`) through every reachable block and rewrite
/// the instructions in place. Returns the number of instructions removed
/// (loads of a value that is already where it is wanted). Without a marked
/// entry block nothing is known and nothing changes.
pub(crate) fn propagate_constants(cx: &mut PassCx) -> u64 {
    let Some(&entry) = cx.rpo.first() else {
        return 0;
    };
    // Which flag writers may be folded away is read off the liveness of
    // the code as it stands: rewriting only ever removes flag readers.
    cx.solve();
    let n = cx.len();
    let order = std::mem::take(&mut cx.rpo);
    let rpo = positions(&order, n);
    // A block with one incoming edge (from a reachable block) continues its
    // predecessor's extended basic block and inherits its identities; every
    // other reachable block heads one and starts from what all its incoming
    // edges agree on.
    let reachable = |p: &&u32| rpo[**p as usize] != usize::MAX;
    let inherits: Vec<bool> = (0..n)
        .map(|s| s != entry && cx.preds(s).iter().filter(reachable).count() == 1)
        .collect();

    let (lo, hi) = frame_extent(cx);
    let frame_escaped = cx.frame_escaped;
    let mut px = Prop {
        next_sym: 0,
        escaped: frame_escaped,
        xmm_forward: cx.hi_lanes_unobserved(),
        flags_dead: false,
        dead_after: Vec::new(),
    };
    let mut ins: Vec<Option<State>> = vec![None; n];
    ins[entry] = Some(State::entry(lo, hi));
    // The last walk's verdict per block and, when it changed it, result.
    let mut changed = vec![false; n];
    let mut bodies: Vec<Vec<CapturedInst>> = vec![Vec::new(); n];
    let mut origins: Vec<Vec<Option<u32>>> = vec![Vec::new(); n];

    // Heads in reverse postorder; each walk covers the head's whole
    // extended basic block, and rewrites as it goes — a block's last walk
    // is the one from its final entry state.
    let mut pending = std::collections::BTreeSet::from([0]);
    let mut ebb: Vec<(usize, State)> = Vec::new();
    while let Some(head) = pending.pop_first() {
        let head = order[head];
        ebb.push((head, ins[head].clone().expect("pending heads have a state")));
        while let Some((b, mut st)) = ebb.pop() {
            changed[b] = px.walk(cx, b, &mut st, &mut bodies[b], &mut origins[b]);
            // The out state goes to each successor; the last one takes it.
            let mut deliver = |s: usize, mut out: State| {
                if inherits[s] {
                    return ebb.push((s, out));
                }
                out.erase(frame_escaped);
                let lost = match &mut ins[s] {
                    Some(cur) => cur.meet(&out),
                    slot @ None => {
                        *slot = Some(out);
                        true
                    }
                };
                if lost {
                    pending.insert(rpo[s]);
                }
            };
            let succs = cx.block(b).term.successors().map(|s| s.0);
            let mut succs = succs.filter(|&s| s < n).peekable();
            while let Some(s) = succs.next() {
                if succs.peek().is_none() {
                    deliver(s, st);
                    break;
                }
                deliver(s, st.clone());
            }
        }
    }
    let mut dropped = 0;
    for b in order.iter().copied().filter(|&b| changed[b]) {
        dropped += (cx.insts(b).len() - bodies[b].len()) as u64;
        cx.set_body(b, &mut bodies[b], &origins[b]);
    }
    cx.rpo = order;
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{BlockId, CapturedBlock, Terminator};
    use crate::passes::OptLevel;

    fn propagate_constants(blocks: &mut [CapturedBlock], escaped: bool) -> u64 {
        let ret = crate::config::RetKind::Int;
        super::propagate_constants(&mut PassCx::new(blocks, OptLevel::Dataflow, escaped, ret))
    }

    fn block(insts: Vec<CapturedInst>, term: Terminator) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts;
        b.term = term;
        b.traced = true;
        b
    }

    fn entry(insts: Vec<CapturedInst>) -> Vec<CapturedBlock> {
        let mut b = block(insts, Terminator::Ret);
        b.is_entry = true;
        vec![b]
    }

    fn slot(off: i32) -> Operand {
        Operand::Mem(MemRef::base_disp(Gpr::Rsp, off))
    }

    fn store(off: i32, src: impl Into<Operand>) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: slot(off),
                src: src.into(),
            },
            frame_store: Some(off as i64),
            frame_load: None,
        }
    }

    fn load(dst: Gpr, off: i32) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(dst),
                src: slot(off),
            },
            frame_store: None,
            frame_load: Some(off as i64),
        }
    }

    fn mov(dst: Gpr, src: impl Into<Operand>) -> Inst {
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(dst),
            src: src.into(),
        }
    }

    fn run(insts: Vec<CapturedInst>) -> Vec<Inst> {
        let mut blocks = entry(insts);
        propagate_constants(&mut blocks, false);
        blocks[0].insts.iter().map(|ci| ci.inst).collect()
    }

    fn xstore(off: i32, src: Xmm) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: slot(off),
                src: Operand::Xmm(src),
            },
            frame_store: Some(off as i64),
            frame_load: None,
        }
    }

    fn xload(dst: Xmm, off: i32) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Xmm(dst),
                src: slot(off),
            },
            frame_store: None,
            frame_load: Some(off as i64),
        }
    }

    const CELL: MemRef = MemRef {
        base: None,
        index: None,
        disp: 0x60_1000,
    };

    #[test]
    fn integer_frame_slot_is_left_to_slot_allocation() {
        let reload = load(Gpr::Rax, -8);
        let out = run(vec![store(-8, Gpr::Rdi), reload]);
        assert_eq!(out[1], reload.inst);
    }

    #[test]
    fn packed_code_keeps_scalar_loads() {
        // movupd stores both lanes: a load (which zeroes the high one) is
        // no longer a register move (which keeps it).
        let spill = CapturedInst::plain(Inst::MovUpd {
            dst: Operand::Mem(CELL),
            src: Operand::Xmm(Xmm::Xmm0),
        });
        let reload = xload(Xmm::Xmm0, -8);
        let out = run(vec![xstore(-8, Xmm::Xmm3), reload, spill]);
        assert_eq!(out[1], reload.inst);
    }

    #[test]
    fn constant_slot_becomes_an_immediate_and_folds_on() {
        // xs lives in a slot; the address arithmetic over it is all known.
        let out = run(vec![
            store(-8, 0xci64),
            load(Gpr::Rcx, -8),
            CapturedInst::plain(Inst::ImulImm {
                w: Width::W64,
                dst: Gpr::Rcx,
                src: Operand::Reg(Gpr::Rcx),
                imm: 0,
            }),
            CapturedInst::plain(mov(Gpr::Rax, -1i64)),
            CapturedInst::plain(Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rcx),
            }),
            CapturedInst::plain(Inst::ImulImm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rax),
                imm: 8,
            }),
            // An unknown pointer plus the folded offset.
            CapturedInst::plain(Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Reg(Gpr::Rax),
            }),
        ]);
        assert_eq!(out[1], mov(Gpr::Rcx, 0xci64));
        assert_eq!(out[2], mov(Gpr::Rcx, 0i64), "x * 0");
        assert_eq!(out[4], mov(Gpr::Rax, -1i64), "-1 + 0");
        assert_eq!(out[5], mov(Gpr::Rax, -8i64));
        assert_eq!(
            out[6],
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Imm(-8),
            }
        );
    }

    #[test]
    fn x_times_zero_is_zero_for_unknown_x() {
        let out = run(vec![CapturedInst::plain(Inst::ImulImm {
            w: Width::W64,
            dst: Gpr::Rcx,
            src: Operand::Reg(Gpr::Rsi),
            imm: 0,
        })]);
        assert_eq!(out[0], mov(Gpr::Rcx, 0i64));
    }

    #[test]
    fn live_flags_keep_their_writer() {
        // cmp's flags feed setl: cmp stays, setl (whose input is known)
        // becomes a constant, and the sub before it — flags dead at the
        // cmp — folds too.
        let out = run(vec![
            CapturedInst::plain(mov(Gpr::Rax, 1i64)),
            CapturedInst::plain(Inst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(1),
            }),
            CapturedInst::plain(Inst::Alu {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(0xb),
            }),
            CapturedInst::plain(Inst::Setcc {
                cond: Cond::L,
                dst: Operand::Reg(Gpr::Rax),
            }),
            CapturedInst::plain(Inst::Unary {
                op: UnOp::Inc,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
            }),
            CapturedInst::plain(Inst::Setcc {
                cond: Cond::E,
                dst: Operand::Reg(Gpr::Rcx),
            }),
        ]);
        assert_eq!(out[1], mov(Gpr::Rax, 0i64));
        assert!(matches!(out[2], Inst::Alu { op: AluOp::Cmp, .. }));
        assert_eq!(out[3], mov(Gpr::Rax, 1i64));
        assert!(
            matches!(out[4], Inst::Unary { .. }),
            "inc's flags are read by the sete: {out:?}"
        );
    }

    #[test]
    fn raising_rsp_abandons_the_slots_below() {
        let reload = load(Gpr::Rax, -8);
        let bump = |by| {
            CapturedInst::plain(Inst::Lea {
                dst: Gpr::Rsp,
                src: MemRef::base_disp(Gpr::Rsp, by),
            })
        };
        let mut insts = vec![bump(-16), store(0, 7i64), bump(16), bump(-16), reload];
        // Offsets are entry-relative: [rsp] at depth -16.
        insts[1].frame_store = Some(-16);
        insts[4].inst = mov(Gpr::Rax, slot(0));
        insts[4].frame_load = Some(-16);
        let out = run(insts.clone());
        assert_eq!(out[4], insts[4].inst);
    }

    /// entry: jcc -> {1, 2}; each stores to the slot; both jump to 3, which
    /// loads it.
    fn diamond(left: i64, right: i64) -> Inst {
        let mut b0 = block(
            vec![CapturedInst::plain(Inst::Test {
                w: Width::W64,
                a: Operand::Reg(Gpr::Rdi),
                b: Operand::Reg(Gpr::Rdi),
            })],
            Terminator::Jcc {
                cond: Cond::E,
                taken: BlockId(1),
                fall: BlockId(2),
            },
        );
        b0.is_entry = true;
        let b1 = block(vec![store(-8, left)], Terminator::Jmp(BlockId(3)));
        let b2 = block(vec![store(-8, right)], Terminator::Jmp(BlockId(3)));
        let b3 = block(vec![load(Gpr::Rax, -8)], Terminator::Ret);
        let mut blocks = vec![b0, b1, b2, b3];
        propagate_constants(&mut blocks, false);
        blocks[3].insts[0].inst
    }

    #[test]
    fn slot_with_one_constant_on_every_edge_is_forwarded() {
        assert_eq!(diamond(0xc, 0xc), mov(Gpr::Rax, 0xci64));
    }

    #[test]
    fn slot_with_two_constants_on_two_edges_is_not_forwarded() {
        assert_eq!(diamond(1, 2), load(Gpr::Rax, -8).inst);
    }

    #[test]
    fn constants_survive_a_loop_that_does_not_touch_them() {
        // entry stores xs; the loop head reloads it on every iteration.
        let mut b0 = block(vec![store(-8, 0xci64)], Terminator::Jmp(BlockId(1)));
        b0.is_entry = true;
        let b1 = block(
            vec![
                load(Gpr::Rcx, -8),
                CapturedInst::plain(Inst::Alu {
                    op: AluOp::Cmp,
                    w: Width::W64,
                    dst: Operand::Reg(Gpr::Rdi),
                    src: Operand::Reg(Gpr::Rcx),
                }),
            ],
            Terminator::Jcc {
                cond: Cond::L,
                taken: BlockId(1),
                fall: BlockId(2),
            },
        );
        let b2 = block(vec![], Terminator::Ret);
        let mut blocks = vec![b0, b1, b2];
        propagate_constants(&mut blocks, false);
        assert_eq!(blocks[1].insts[0].inst, mov(Gpr::Rcx, 0xci64));
        assert_eq!(
            blocks[1].insts[1].inst,
            Inst::Alu {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Imm(0xc),
            }
        );
    }

    #[test]
    fn escaped_frame_forgets_slots_at_unknown_stores_and_block_ends() {
        let through_pointer = CapturedInst::plain(Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(MemRef::base(Gpr::Rsi)),
            src: Operand::Reg(Gpr::Rdx),
        });
        let reload = load(Gpr::Rax, -8);
        let mut blocks = entry(vec![store(-8, 5i64), through_pointer, reload]);
        propagate_constants(&mut blocks, true);
        assert_eq!(blocks[0].insts[2].inst, reload.inst);

        let mut b0 = block(vec![store(-8, 5i64)], Terminator::Jmp(BlockId(1)));
        b0.is_entry = true;
        let b1 = block(vec![reload, reload], Terminator::Jmp(BlockId(1)));
        let mut blocks = vec![b0, b1];
        propagate_constants(&mut blocks, true);
        assert_eq!(blocks[1].insts[0].inst, reload.inst);
    }

    #[test]
    fn pop_of_a_value_still_in_its_register_is_an_rsp_bump() {
        let push = CapturedInst {
            inst: Inst::Push {
                src: Operand::Reg(Gpr::Rbx),
            },
            frame_store: Some(-8),
            frame_load: None,
        };
        let pop = CapturedInst {
            inst: Inst::Pop {
                dst: Operand::Reg(Gpr::Rbx),
            },
            frame_store: None,
            frame_load: Some(-8),
        };
        let out = run(vec![
            push,
            CapturedInst::plain(mov(Gpr::Rax, Gpr::Rbx)),
            pop,
        ]);
        assert_eq!(
            out[2],
            Inst::Lea {
                dst: Gpr::Rsp,
                src: MemRef::base_disp(Gpr::Rsp, 8),
            }
        );
    }

    #[test]
    fn a_store_forgets_exactly_the_slots_it_overlaps() {
        let mut st = State::entry(-32, 0);
        let fill = |st: &mut State| st.slots.fill(AVal::Const(1));
        let known =
            |st: &State| -> Vec<bool> { st.slots.iter().map(|v| *v != AVal::Unknown).collect() };
        for (lo, hi, want) in [
            (-32, -24, [false, true, true, true]),
            (-25, -24, [false, true, true, true]), // last byte of slot 0
            (-24, -23, [true, false, true, true]),
            (-20, -12, [true, false, false, true]), // straddles two
            (-8, 8, [true, true, true, false]),     // runs past the end
            (-64, -40, [true, true, true, true]),   // below the range
            (i64::MIN, -16, [false, false, true, true]),
        ] {
            fill(&mut st);
            st.kill_slots(lo, hi);
            assert_eq!(known(&st), want, "[{lo}, {hi})");
        }
    }

    #[test]
    fn no_entry_block_no_change() {
        let insts = vec![store(-8, 5i64), load(Gpr::Rax, -8)];
        let mut blocks = vec![block(insts.clone(), Terminator::Ret)];
        assert_eq!(propagate_constants(&mut blocks, false), 0);
        assert_eq!(blocks[0].insts, insts);
    }
}
