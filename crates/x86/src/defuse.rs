//! The operand-role table, and every def/use view of an instruction.
//!
//! Every pass asks each captured instruction the same questions: which
//! registers it reads, writes and wholly defines, what memory it loads and
//! stores, what it does to the flags. [`visit`] answers them once: one match
//! over [`Inst`] that names, per variant, each operand with its [`Role`] and
//! each register the opcode implies, and returns the instruction's
//! [`FlagUse`]. It reaches the operands through `&mut`, so the one match
//! serves inspection (of a copy: `Inst` is `Copy`) and
//! [`Inst::map_operands`]. Everything else here is a fold over it:
//! [`for_each_read`], [`for_each_write`], [`xmm_hi_effect`],
//! [`xmm_read_is_hi_merge_only`] and `Inst::{mem_load, mem_store,
//! reads_flags, writes_flags}`; so is the rewriter's per-instruction
//! `Effect`. `brew-emu`'s `defuse_differential` test holds the table
//! against the emulator.
//!
//! Calls and returns are modelled only as far as `rsp`: their other
//! register effects depend on the ABI and the rewriter's configuration, so
//! passes treat them as barriers.

use crate::alu::UnOp;
use crate::inst::{Inst, ShiftCount};
use crate::operand::{MemRef, Operand};
use crate::reg::{Gpr, Width, Xmm};

/// A register-like location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// A general-purpose register.
    Gpr(Gpr),
    /// An SSE register.
    Xmm(Xmm),
}

/// What an instruction does with one location it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Read only.
    Read,
    /// Written whole, the old value unread (a 32-bit GPR write
    /// zero-extends).
    Write,
    /// A register written in part whose old value is no input but whose
    /// other bits survive, so it is read too: a byte write into a GPR, a
    /// register-to-register `movsd`, `cvtsi2sd`. A narrow memory
    /// destination is a `Write`.
    Merge,
    /// Read, then written: an input to its own result.
    ReadWrite,
    /// The `lea` source: its address registers are read, memory is not.
    Addr,
}

impl Role {
    /// Is a register in this role read, or a memory operand loaded?
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, Role::Read | Role::Merge | Role::ReadWrite)
    }

    /// Is the location written (a memory operand stored to)?
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, Role::Write | Role::Merge | Role::ReadWrite)
    }
}

/// What an instruction does to the arithmetic flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagUse {
    /// Nothing.
    None,
    /// Reads them (`jcc`, `setcc`).
    Read,
    /// Writes them, some left undefined (`imul`, shifts, `neg`/`inc`/`dec`,
    /// `idiv`).
    Write,
    /// Defines every one of them from the operands alone (`alu`, `test`,
    /// `ucomisd`).
    Define,
}

/// A location [`visit`] reports.
#[derive(Debug)]
pub enum Site<'a> {
    /// An operand the instruction names; writing through it rewrites the
    /// instruction (keeping each operand's kind).
    Op(&'a mut Operand),
    /// A register the opcode implies: the `rsp` of `push`/`pop`/`call`/
    /// `ret`, the `rdx:rax` of `cqo`/`idiv`, a shift count's `cl`.
    Implicit(Gpr),
}

impl Site<'_> {
    /// The register this site is, if it is one.
    #[inline]
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Site::Op(Operand::Reg(r)) | Site::Implicit(r) => Some(Loc::Gpr(*r)),
            Site::Op(Operand::Xmm(x)) => Some(Loc::Xmm(*x)),
            _ => None,
        }
    }

    /// The memory operand this site is, if it is one.
    #[inline]
    pub fn mem(&self) -> Option<MemRef> {
        match self {
            Site::Op(Operand::Mem(m)) => Some(*m),
            _ => None,
        }
    }
}

/// What [`visit`] reports each site to. Every `FnMut(Role, Site)` closure
/// is one; a fold on a per-instruction path implements it with
/// `#[inline(always)]`, so that the table's match and the fold compile to
/// one match.
pub trait Sink {
    /// One site and its role.
    fn site(&mut self, role: Role, site: Site<'_>);
}

impl<F: FnMut(Role, Site<'_>)> Sink for F {
    #[inline(always)]
    fn site(&mut self, role: Role, site: Site<'_>) {
        self(role, site)
    }
}

/// Hands [`visit`]'s callback the typed fields of an [`Inst`] as operands.
struct Visitor<'f, F>(&'f mut F);

impl<F: Sink> Visitor<'_, F> {
    #[inline(always)]
    fn op(&mut self, role: Role, op: &mut Operand) {
        self.0.site(role, Site::Op(op))
    }

    #[inline(always)]
    fn field<T: Copy + Into<Operand>>(
        &mut self,
        role: Role,
        t: &mut T,
        back: fn(&Operand) -> Option<T>,
    ) {
        let mut op = (*t).into();
        self.op(role, &mut op);
        *t = back(&op).unwrap_or(*t);
    }

    #[inline(always)]
    fn implicit(&mut self, role: Role, r: Gpr) {
        self.0.site(role, Site::Implicit(r))
    }
}

/// A byte write into a register keeps its other 56 bits.
fn byte(w: Width, dst: &Operand, whole: Role) -> Role {
    match dst {
        Operand::Reg(_) if w == Width::W8 => Role::Merge,
        _ => whole,
    }
}

/// The operand-role table: report to `f` every location `inst` uses, with
/// its role (sources first), and return what it does to the flags.
#[inline(always)]
pub fn visit(inst: &mut Inst, f: &mut impl Sink) -> FlagUse {
    use Role::*;
    let mut v = Visitor(f);
    match inst {
        Inst::Mov { w, dst, src } => {
            v.op(Read, src);
            v.op(byte(*w, dst, Write), dst);
        }
        Inst::MovAbs { dst, .. } => v.field(Write, dst, Operand::gpr),
        Inst::Movsxd { dst, src }
        | Inst::Movzx8 { dst, src, .. }
        | Inst::Cvttsd2si { dst, src, .. } => {
            v.op(Read, src);
            v.field(Write, dst, Operand::gpr);
        }
        Inst::Lea { dst, src } => {
            v.field(Addr, src, Operand::mem);
            v.field(Write, dst, Operand::gpr);
        }
        Inst::Alu { op, w, dst, src } => {
            v.op(Read, src);
            let role = if op.writes_dst() { ReadWrite } else { Read };
            v.op(byte(*w, dst, role), dst);
            return FlagUse::Define;
        }
        Inst::Test { a, b, .. } => {
            v.op(Read, a);
            v.op(Read, b);
            return FlagUse::Define;
        }
        Inst::Imul { dst, src, .. } => {
            v.field(ReadWrite, dst, Operand::gpr);
            v.op(Read, src);
            return FlagUse::Write;
        }
        Inst::ImulImm { dst, src, .. } => {
            v.op(Read, src);
            v.field(Write, dst, Operand::gpr);
            return FlagUse::Write;
        }
        Inst::Unary { op, w, dst } => {
            v.op(byte(*w, dst, ReadWrite), dst);
            if *op != UnOp::Not {
                return FlagUse::Write;
            }
        }
        Inst::Shift { w, dst, count, .. } => {
            v.op(byte(*w, dst, ReadWrite), dst);
            if *count == ShiftCount::Cl {
                v.implicit(Read, Gpr::Rcx);
            }
            return FlagUse::Write;
        }
        Inst::Cqo { .. } => {
            v.implicit(Read, Gpr::Rax);
            v.implicit(Write, Gpr::Rdx);
        }
        Inst::Idiv { src, .. } => {
            v.implicit(ReadWrite, Gpr::Rax);
            v.implicit(ReadWrite, Gpr::Rdx);
            v.op(Read, src);
            return FlagUse::Write;
        }
        Inst::Push { src } | Inst::CallInd { src } => {
            v.implicit(ReadWrite, Gpr::Rsp);
            v.op(Read, src);
        }
        Inst::Pop { dst } => {
            v.implicit(ReadWrite, Gpr::Rsp);
            v.op(Write, dst);
        }
        Inst::CallRel { .. } | Inst::Ret => v.implicit(ReadWrite, Gpr::Rsp),
        Inst::JmpInd { src } => v.op(Read, src),
        Inst::Jcc { .. } => return FlagUse::Read,
        Inst::JmpRel { .. } | Inst::Nop | Inst::Ud2 => {}
        Inst::Setcc { dst, .. } => {
            v.op(byte(Width::W8, dst, Write), dst);
            return FlagUse::Read;
        }
        Inst::MovSd { dst, src } => {
            v.op(Read, src);
            // Register-to-register movsd keeps the destination's high lane
            // (a load zeroes it).
            let lane = matches!((&dst, &src), (Operand::Xmm(_), Operand::Xmm(_)));
            v.op(if lane { Merge } else { Write }, dst);
        }
        Inst::MovUpd { dst, src } => {
            v.op(Read, src);
            v.op(Write, dst);
        }
        Inst::Sse { dst, src, .. } => {
            v.field(ReadWrite, dst, Operand::xmm);
            v.op(Read, src);
        }
        Inst::Ucomisd { a, b } => {
            v.field(Read, a, Operand::xmm);
            v.op(Read, b);
            return FlagUse::Define;
        }
        Inst::Cvtsi2sd { dst, src, .. } => {
            v.op(Read, src);
            v.field(Merge, dst, Operand::xmm);
        }
    }
    FlagUse::None
}

/// Invoke `f` for every register location the instruction reads (including
/// address registers of memory operands and implicit operands).
pub fn for_each_read(inst: &Inst, f: &mut impl FnMut(Loc)) {
    visit(
        &mut { *inst },
        &mut |role: Role, site: Site<'_>| match site.mem() {
            Some(m) => m.regs().for_each(|r| f(Loc::Gpr(r))),
            None if role.reads() => site.loc().into_iter().for_each(&mut *f),
            None => {}
        },
    );
}

/// Invoke `f` for every register location the instruction writes.
pub fn for_each_write(inst: &Inst, f: &mut impl FnMut(Loc)) {
    visit(&mut { *inst }, &mut |role: Role, site: Site<'_>| {
        if role.writes() {
            site.loc().into_iter().for_each(&mut *f);
        }
    });
}

/// How an instruction affects the high lane (bits 127:64) of the XMM
/// register it writes.
///
/// [`Loc::Xmm`] is whole-register granular, but scalar SSE code only
/// observes low lanes; the register allocator's scalar-only mode leans on
/// this classification to drop high-lane merge artifacts from the read
/// set. The emulator cross-checks it in `defuse_differential`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XmmHi {
    /// The destination's high lane passes through unchanged, and nothing
    /// else the instruction does depends on it.
    Preserved,
    /// The high lane is architecturally zeroed (`movsd xmm, m64`).
    Zeroed,
    /// The high lane is recomputed from operand data (packed ops,
    /// 16-byte moves) — never ignorable.
    Written,
}

/// The high-lane effect on the XMM register destination, or `None` when
/// the instruction writes no XMM register.
pub fn xmm_hi_effect(inst: &Inst) -> Option<(Xmm, XmmHi)> {
    let mut dst = None;
    visit(&mut { *inst }, &mut |role: Role, site: Site<'_>| {
        if let (true, Some(Loc::Xmm(x))) = (role.writes(), site.loc()) {
            dst = Some((x, role));
        }
    });
    // The 16-byte forms (packed SSE, `movupd`) compute the high lane; of
    // the 8-byte ones a whole write (`movsd xmm, m64`) zeroes it.
    dst.map(|(x, role)| match role {
        _ if inst.mem_width() == 16 => (x, XmmHi::Written),
        Role::Write => (x, XmmHi::Zeroed),
        _ => (x, XmmHi::Preserved),
    })
}

/// `true` when the instruction's *only* dependence on its XMM destination
/// is the preserved high lane — the merge-artifact read that scalar-only
/// register allocation may ignore: a [`Role::Merge`] destination no other
/// operand reads. Scalar RMW ops (`mulsd` etc.) also preserve the high
/// lane but genuinely read the low one, so they are excluded here.
pub fn xmm_read_is_hi_merge_only(inst: &Inst) -> bool {
    let (mut merged, mut read) = (0u16, 0u16);
    visit(&mut { *inst }, &mut |role: Role, site: Site<'_>| {
        if let Some(Loc::Xmm(x)) = site.loc() {
            match role {
                Role::Merge => merged |= 1 << x.number(),
                _ if role.reads() => read |= 1 << x.number(),
                _ => {}
            }
        }
    });
    merged != 0 && merged & read == 0
}

/// Collected def/use sets (convenience wrapper for tests and simple passes).
pub fn reads(inst: &Inst) -> Vec<Loc> {
    let mut v = Vec::new();
    for_each_read(inst, &mut |l| {
        if !v.contains(&l) {
            v.push(l)
        }
    });
    v
}

/// Collected write set; see [`reads`].
pub fn writes(inst: &Inst) -> Vec<Loc> {
    let mut v = Vec::new();
    for_each_write(inst, &mut |l| {
        if !v.contains(&l) {
            v.push(l)
        }
    });
    v
}

/// The views of the table on the instruction itself.
impl Inst {
    fn flag_use(&self) -> FlagUse {
        visit(&mut { *self }, &mut |_: Role, _: Site<'_>| {})
    }

    /// `true` if executing the instruction writes the arithmetic flags.
    pub fn writes_flags(&self) -> bool {
        matches!(self.flag_use(), FlagUse::Write | FlagUse::Define)
    }

    /// `true` if the instruction's behaviour depends on the flags.
    pub fn reads_flags(&self) -> bool {
        self.flag_use() == FlagUse::Read
    }

    /// The memory reference this instruction loads from, if any.
    pub fn mem_load(&self) -> Option<MemRef> {
        let mut found = None;
        visit(&mut { *self }, &mut |role: Role, site: Site<'_>| {
            if role.reads() {
                found = found.or(site.mem());
            }
        });
        found
    }

    /// The memory reference this instruction stores to, if any.
    pub fn mem_store(&self) -> Option<MemRef> {
        let mut found = None;
        visit(&mut { *self }, &mut |role: Role, site: Site<'_>| {
            if role.writes() {
                found = found.or(site.mem());
            }
        });
        found
    }

    /// The instruction with every general-purpose register it names
    /// (memory operands' included) passed through `g`, every XMM register
    /// through `x` and every memory operand through `m`. Registers it names
    /// implicitly (`rsp` of a `push`, `cqo`'s and `idiv`'s `rdx:rax`, a `cl`
    /// shift count) stay: callers that must not meet one check first.
    pub fn map_operands(
        &self,
        g: impl Fn(Gpr) -> Gpr,
        x: impl Fn(Xmm) -> Xmm,
        m: impl Fn(MemRef) -> MemRef,
    ) -> Inst {
        let mut out = *self;
        visit(&mut out, &mut |_: Role, site: Site<'_>| {
            if let Site::Op(op) = site {
                *op = match *op {
                    Operand::Reg(r) => Operand::Reg(g(r)),
                    Operand::Xmm(v) => Operand::Xmm(x(v)),
                    Operand::Mem(r) => {
                        let r = m(r);
                        Operand::Mem(MemRef {
                            base: r.base.map(&g),
                            index: r.index.map(|(i, scale)| (g(i), scale)),
                            disp: r.disp,
                        })
                    }
                    imm => imm,
                };
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::AluOp;
    use crate::operand::MemRef;
    use crate::reg::Width;

    #[test]
    fn mov_load_reads_address_regs() {
        let i = Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: MemRef::base_index(Gpr::Rdi, Gpr::Rcx, 8, 0).into(),
        };
        assert_eq!(reads(&i), vec![Loc::Gpr(Gpr::Rdi), Loc::Gpr(Gpr::Rcx)]);
        assert_eq!(writes(&i), vec![Loc::Gpr(Gpr::Rax)]);
    }

    #[test]
    fn store_reads_value_and_address() {
        let i = Inst::Mov {
            w: Width::W64,
            dst: MemRef::base(Gpr::Rsp).into(),
            src: Gpr::Rbx.into(),
        };
        assert_eq!(reads(&i), vec![Loc::Gpr(Gpr::Rbx), Loc::Gpr(Gpr::Rsp)]);
        assert!(writes(&i).is_empty(), "memory writes tracked separately");
    }

    #[test]
    fn rmw_alu_reads_dst() {
        let i = Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: Gpr::Rbx.into(),
        };
        assert!(reads(&i).contains(&Loc::Gpr(Gpr::Rax)));
        assert!(reads(&i).contains(&Loc::Gpr(Gpr::Rbx)));
        assert_eq!(writes(&i), vec![Loc::Gpr(Gpr::Rax)]);
    }

    #[test]
    fn implicit_operands() {
        let i = Inst::Idiv {
            w: Width::W64,
            src: Gpr::Rcx.into(),
        };
        let r = reads(&i);
        assert!(r.contains(&Loc::Gpr(Gpr::Rax)) && r.contains(&Loc::Gpr(Gpr::Rdx)));
        let w = writes(&i);
        assert!(w.contains(&Loc::Gpr(Gpr::Rax)) && w.contains(&Loc::Gpr(Gpr::Rdx)));

        let i = Inst::Shift {
            op: crate::alu::ShOp::Shl,
            w: Width::W64,
            dst: Gpr::Rax.into(),
            count: ShiftCount::Cl,
        };
        assert!(reads(&i).contains(&Loc::Gpr(Gpr::Rcx)));
    }

    #[test]
    fn sse_dst_is_also_read() {
        use crate::inst::SseOp;
        use crate::reg::Xmm;
        let i = Inst::Sse {
            op: SseOp::Addsd,
            dst: Xmm::Xmm0,
            src: Xmm::Xmm1.into(),
        };
        assert!(reads(&i).contains(&Loc::Xmm(Xmm::Xmm0)));
        assert_eq!(writes(&i), vec![Loc::Xmm(Xmm::Xmm0)]);
    }

    #[test]
    fn partial_register_writes_read_their_destination() {
        use crate::cond::Cond;
        use crate::reg::Xmm;
        // mov r8b, al merges into rbx's low byte.
        let i = Inst::Mov {
            w: Width::W8,
            dst: Gpr::Rbx.into(),
            src: Gpr::Rax.into(),
        };
        assert!(reads(&i).contains(&Loc::Gpr(Gpr::Rbx)));
        // A full-width register mov does not read its destination.
        let i = Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rbx.into(),
            src: Gpr::Rax.into(),
        };
        assert!(!reads(&i).contains(&Loc::Gpr(Gpr::Rbx)));
        // setcc writes only the low byte.
        let i = Inst::Setcc {
            cond: Cond::E,
            dst: Gpr::Rsi.into(),
        };
        assert!(reads(&i).contains(&Loc::Gpr(Gpr::Rsi)));
        // Register movsd keeps the high lane; a load zeroes it.
        let i = Inst::MovSd {
            dst: Xmm::Xmm2.into(),
            src: Xmm::Xmm3.into(),
        };
        assert!(reads(&i).contains(&Loc::Xmm(Xmm::Xmm2)));
        let i = Inst::MovSd {
            dst: Xmm::Xmm2.into(),
            src: MemRef::abs(0x601000).into(),
        };
        assert!(!reads(&i).contains(&Loc::Xmm(Xmm::Xmm2)));
        // cvtsi2sd writes only the low lane.
        let i = Inst::Cvtsi2sd {
            w: Width::W64,
            dst: Xmm::Xmm4,
            src: Gpr::Rax.into(),
        };
        assert!(reads(&i).contains(&Loc::Xmm(Xmm::Xmm4)));
    }

    #[test]
    fn xmm_hi_lane_classification() {
        use crate::inst::SseOp;
        use crate::reg::Xmm;
        let regreg = Inst::MovSd {
            dst: Xmm::Xmm1.into(),
            src: Xmm::Xmm2.into(),
        };
        assert_eq!(xmm_hi_effect(&regreg), Some((Xmm::Xmm1, XmmHi::Preserved)));
        assert!(xmm_read_is_hi_merge_only(&regreg));
        // A self-move is not merge-only: treating it as a full def would
        // let liveness kill the value it copies from.
        assert!(!xmm_read_is_hi_merge_only(&Inst::MovSd {
            dst: Xmm::Xmm1.into(),
            src: Xmm::Xmm1.into(),
        }));
        let load = Inst::MovSd {
            dst: Xmm::Xmm3.into(),
            src: MemRef::abs(0x601000).into(),
        };
        assert_eq!(xmm_hi_effect(&load), Some((Xmm::Xmm3, XmmHi::Zeroed)));
        assert!(!xmm_read_is_hi_merge_only(&load));
        // Scalar RMW preserves the lane but reads the low half — not
        // merge-only.
        let mul = Inst::Sse {
            op: SseOp::Mulsd,
            dst: Xmm::Xmm0,
            src: Xmm::Xmm1.into(),
        };
        assert_eq!(xmm_hi_effect(&mul), Some((Xmm::Xmm0, XmmHi::Preserved)));
        assert!(!xmm_read_is_hi_merge_only(&mul));
        let packed = Inst::Sse {
            op: SseOp::Addpd,
            dst: Xmm::Xmm0,
            src: Xmm::Xmm1.into(),
        };
        assert_eq!(xmm_hi_effect(&packed), Some((Xmm::Xmm0, XmmHi::Written)));
        assert_eq!(xmm_hi_effect(&Inst::Nop), None);
    }
}
