//! The decoded instruction model for the supported x86-64 subset.
//!
//! Instructions are kept in this decoded form throughout the rewriting
//! pipeline ("captured instructions are kept in decoded form", §III.G of the
//! paper); the encoder lowers them back to machine code at emission time.
//! Branch/call targets are stored as *absolute* addresses — the decoder
//! resolves rel8/rel32 and the encoder re-materializes relative forms.

use crate::alu::{AluOp, ShOp, UnOp};
use crate::cond::Cond;
use crate::operand::{MemRef, Operand};
use crate::reg::{Gpr, Width, Xmm};
use std::fmt;

/// Scalar/packed SSE2 double operations of shape `op xmm, xmm/mem`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SseOp {
    /// Scalar double add.
    Addsd,
    /// Scalar double subtract.
    Subsd,
    /// Scalar double multiply.
    Mulsd,
    /// Scalar double divide.
    Divsd,
    /// Packed (2-lane) double add.
    Addpd,
    /// Packed double subtract.
    Subpd,
    /// Packed double multiply.
    Mulpd,
    /// Packed double divide.
    Divpd,
    /// Bitwise XOR of the full 128-bit register (used for zeroing).
    Xorpd,
    /// Interleave low doubles: `dst = [dst.lo, src.lo]`.
    Unpcklpd,
}

impl SseOp {
    /// Mnemonic, e.g. `"mulsd"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SseOp::Addsd => "addsd",
            SseOp::Subsd => "subsd",
            SseOp::Mulsd => "mulsd",
            SseOp::Divsd => "divsd",
            SseOp::Addpd => "addpd",
            SseOp::Subpd => "subpd",
            SseOp::Mulpd => "mulpd",
            SseOp::Divpd => "divpd",
            SseOp::Xorpd => "xorpd",
            SseOp::Unpcklpd => "unpcklpd",
        }
    }

    /// `true` for the packed (128-bit memory access) forms.
    pub fn is_packed(self) -> bool {
        matches!(
            self,
            SseOp::Addpd
                | SseOp::Subpd
                | SseOp::Mulpd
                | SseOp::Divpd
                | SseOp::Xorpd
                | SseOp::Unpcklpd
        )
    }
}

/// Shift count operand: an immediate or the CL register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftCount {
    /// Immediate count (masked by the ISA to the operand width).
    Imm(u8),
    /// Count taken from CL.
    Cl,
}

/// A decoded instruction of the supported subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant docs describe the fields
pub enum Inst {
    /// `mov dst, src` where exactly one side may be memory and `src` may be
    /// a sign-extended 32-bit immediate.
    Mov {
        w: Width,
        dst: Operand,
        src: Operand,
    },
    /// `mov r64, imm64` (movabs).
    MovAbs { dst: Gpr, imm: u64 },
    /// `movsxd r64, r/m32`.
    Movsxd { dst: Gpr, src: Operand },
    /// `movzx r32/r64, r/m8`.
    Movzx8 { w: Width, dst: Gpr, src: Operand },
    /// `lea r64, [mem]`.
    Lea { dst: Gpr, src: MemRef },
    /// Two-operand ALU: `dst op= src` (`cmp` writes only flags).
    Alu {
        op: AluOp,
        w: Width,
        dst: Operand,
        src: Operand,
    },
    /// `test a, b` — `b` is a register or immediate.
    Test { w: Width, a: Operand, b: Operand },
    /// `imul dst, src` (two-operand signed multiply).
    Imul { w: Width, dst: Gpr, src: Operand },
    /// `imul dst, src, imm` (three-operand form).
    ImulImm {
        w: Width,
        dst: Gpr,
        src: Operand,
        imm: i32,
    },
    /// Single-operand ALU: `neg`/`not`/`inc`/`dec`.
    Unary { op: UnOp, w: Width, dst: Operand },
    /// Shift by immediate or CL.
    Shift {
        op: ShOp,
        w: Width,
        dst: Operand,
        count: ShiftCount,
    },
    /// `cqo` (sign-extend RAX into RDX:RAX) / `cdq` for W32.
    Cqo { w: Width },
    /// `idiv src` at the given width.
    Idiv { w: Width, src: Operand },
    /// `push r64/m64/imm32`.
    Push { src: Operand },
    /// `pop r64/m64`.
    Pop { dst: Operand },
    /// `call rel32` with resolved absolute target.
    CallRel { target: u64 },
    /// `call r/m64`.
    CallInd { src: Operand },
    /// `ret`.
    Ret,
    /// `jmp rel8/rel32` with resolved absolute target.
    JmpRel { target: u64 },
    /// `jmp r/m64`.
    JmpInd { src: Operand },
    /// Conditional jump with resolved absolute target.
    Jcc { cond: Cond, target: u64 },
    /// `setcc r/m8`.
    Setcc { cond: Cond, dst: Operand },
    /// `movsd` xmm<->xmm / xmm<->m64 (load and store forms).
    MovSd { dst: Operand, src: Operand },
    /// `movupd` xmm<->m128 / xmm<->xmm (packed, unaligned).
    MovUpd { dst: Operand, src: Operand },
    /// SSE arithmetic `op xmm, xmm/mem`.
    Sse { op: SseOp, dst: Xmm, src: Operand },
    /// `ucomisd a, b` — unordered compare setting ZF/PF/CF.
    Ucomisd { a: Xmm, b: Operand },
    /// `cvtsi2sd xmm, r/m` (integer to double).
    Cvtsi2sd { w: Width, dst: Xmm, src: Operand },
    /// `cvttsd2si r, xmm/m64` (double to integer, truncating).
    Cvttsd2si { w: Width, dst: Gpr, src: Operand },
    /// One-byte `nop`.
    Nop,
    /// `ud2` — deliberate trap; the emulator faults on it.
    Ud2,
}

impl Inst {
    /// `true` if control never falls through to the next instruction.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Ret | Inst::JmpRel { .. } | Inst::JmpInd { .. } | Inst::Ud2
        )
    }

    /// `true` for any control-transfer instruction (including calls and
    /// conditional jumps).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Ret
                | Inst::JmpRel { .. }
                | Inst::JmpInd { .. }
                | Inst::Jcc { .. }
                | Inst::CallRel { .. }
                | Inst::CallInd { .. }
        )
    }

    /// The statically-known branch/call target, if any.
    pub fn static_target(&self) -> Option<u64> {
        match self {
            Inst::CallRel { target } | Inst::JmpRel { target } | Inst::Jcc { target, .. } => {
                Some(*target)
            }
            _ => None,
        }
    }

    /// Rewrite the statically-known target (used by relocation).
    pub fn set_static_target(&mut self, t: u64) {
        match self {
            Inst::CallRel { target } | Inst::JmpRel { target } | Inst::Jcc { target, .. } => {
                *target = t
            }
            _ => panic!("set_static_target on non-branch {self}"),
        }
    }

    /// Bytes the instruction's memory operand (or, for `push`/`pop`, its
    /// implicit stack slot) covers; meaningless without such an access.
    pub fn mem_width(&self) -> u8 {
        match self {
            Inst::Mov { w, .. }
            | Inst::Alu { w, .. }
            | Inst::Test { w, .. }
            | Inst::Imul { w, .. }
            | Inst::ImulImm { w, .. }
            | Inst::Unary { w, .. }
            | Inst::Shift { w, .. }
            | Inst::Idiv { w, .. }
            | Inst::Cvtsi2sd { w, .. } => w.bytes() as u8,
            Inst::Movsxd { .. } => 4,
            Inst::Movzx8 { .. } | Inst::Setcc { .. } => 1,
            Inst::MovUpd { .. } => 16,
            Inst::Sse { op, .. } if op.is_packed() => 16,
            _ => 8,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn wmn(w: Width) -> &'static str {
            match w {
                Width::W8 => "b",
                Width::W32 => "l",
                Width::W64 => "q",
            }
        }
        // Intel-flavoured syntax with a width suffix where the operands are
        // ambiguous (memory/immediate forms).
        match self {
            Inst::Mov { w, dst, src } => write!(f, "mov{} {dst}, {src}", wmn(*w)),
            Inst::MovAbs { dst, imm } => write!(f, "movabs {dst}, {imm:#x}"),
            Inst::Movsxd { dst, src } => write!(f, "movsxd {dst}, {src}"),
            Inst::Movzx8 { w, dst, src } => write!(f, "movzx{} {dst}, {src}", wmn(*w)),
            Inst::Lea { dst, src } => write!(f, "lea {dst}, {src}"),
            Inst::Alu { op, w, dst, src } => {
                write!(f, "{}{} {dst}, {src}", op.mnemonic(), wmn(*w))
            }
            Inst::Test { w, a, b } => write!(f, "test{} {a}, {b}", wmn(*w)),
            Inst::Imul { w, dst, src } => write!(f, "imul{} {dst}, {src}", wmn(*w)),
            Inst::ImulImm { w, dst, src, imm } => {
                write!(f, "imul{} {dst}, {src}, {imm}", wmn(*w))
            }
            Inst::Unary { op, w, dst } => write!(f, "{}{} {dst}", op.mnemonic(), wmn(*w)),
            Inst::Shift { op, w, dst, count } => match count {
                ShiftCount::Imm(i) => write!(f, "{}{} {dst}, {i}", op.mnemonic(), wmn(*w)),
                ShiftCount::Cl => write!(f, "{}{} {dst}, cl", op.mnemonic(), wmn(*w)),
            },
            Inst::Cqo { w } => match w {
                Width::W64 => write!(f, "cqo"),
                _ => write!(f, "cdq"),
            },
            Inst::Idiv { w, src } => write!(f, "idiv{} {src}", wmn(*w)),
            Inst::Push { src } => write!(f, "push {src}"),
            Inst::Pop { dst } => write!(f, "pop {dst}"),
            Inst::CallRel { target } => write!(f, "call {target:#x}"),
            Inst::CallInd { src } => write!(f, "call {src}"),
            Inst::Ret => write!(f, "ret"),
            Inst::JmpRel { target } => write!(f, "jmp {target:#x}"),
            Inst::JmpInd { src } => write!(f, "jmp {src}"),
            Inst::Jcc { cond, target } => write!(f, "j{cond} {target:#x}"),
            Inst::Setcc { cond, dst } => write!(f, "set{cond} {dst}"),
            Inst::MovSd { dst, src } => write!(f, "movsd {dst}, {src}"),
            Inst::MovUpd { dst, src } => write!(f, "movupd {dst}, {src}"),
            Inst::Sse { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Inst::Ucomisd { a, b } => write!(f, "ucomisd {a}, {b}"),
            Inst::Cvtsi2sd { w, dst, src } => write!(f, "cvtsi2sd{} {dst}, {src}", wmn(*w)),
            Inst::Cvttsd2si { w, dst, src } => write!(f, "cvttsd2si{} {dst}, {src}", wmn(*w)),
            Inst::Nop => write!(f, "nop"),
            Inst::Ud2 => write!(f, "ud2"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminators() {
        assert!(Inst::Ret.is_terminator());
        assert!(Inst::JmpRel { target: 0 }.is_terminator());
        assert!(!Inst::Jcc {
            cond: Cond::E,
            target: 0
        }
        .is_terminator());
        assert!(!Inst::CallRel { target: 0 }.is_terminator());
        assert!(Inst::Jcc {
            cond: Cond::E,
            target: 0
        }
        .is_control());
    }

    #[test]
    fn static_targets() {
        let mut i = Inst::Jcc {
            cond: Cond::Ne,
            target: 0x400100,
        };
        assert_eq!(i.static_target(), Some(0x400100));
        i.set_static_target(0x400200);
        assert_eq!(i.static_target(), Some(0x400200));
        assert_eq!(Inst::Ret.static_target(), None);
    }

    #[test]
    fn mem_load_store_classification() {
        let m = MemRef::base_disp(Gpr::Rdi, 8);
        let load = Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Mem(m),
        };
        assert_eq!(load.mem_load(), Some(m));
        assert_eq!(load.mem_store(), None);

        let store = Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(m),
            src: Operand::Reg(Gpr::Rax),
        };
        assert_eq!(store.mem_store(), Some(m));
        assert_eq!(store.mem_load(), None);

        // add [mem], reg both loads and stores.
        let rmw = Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Operand::Mem(m),
            src: Operand::Reg(Gpr::Rax),
        };
        assert_eq!(rmw.mem_load(), Some(m));
        assert_eq!(rmw.mem_store(), Some(m));

        // cmp [mem], imm loads but does not store.
        let cmp = Inst::Alu {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Operand::Mem(m),
            src: Operand::Imm(0),
        };
        assert_eq!(cmp.mem_load(), Some(m));
        assert_eq!(cmp.mem_store(), None);
    }

    #[test]
    fn flag_classification() {
        assert!(Inst::Test {
            w: Width::W64,
            a: Gpr::Rax.into(),
            b: Gpr::Rax.into()
        }
        .writes_flags());
        assert!(!Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: Gpr::Rbx.into()
        }
        .writes_flags());
        assert!(Inst::Jcc {
            cond: Cond::E,
            target: 0
        }
        .reads_flags());
        assert!(!Inst::Unary {
            op: UnOp::Not,
            w: Width::W64,
            dst: Gpr::Rax.into()
        }
        .writes_flags());
        assert!(Inst::Unary {
            op: UnOp::Inc,
            w: Width::W64,
            dst: Gpr::Rax.into()
        }
        .writes_flags());
    }

    #[test]
    fn display_spot_checks() {
        let i = Inst::Sse {
            op: SseOp::Mulsd,
            dst: Xmm::Xmm0,
            src: Operand::Mem(MemRef::abs(0x615100)),
        };
        assert_eq!(i.to_string(), "mulsd xmm0, [0x615100]");
        let i = Inst::Mov {
            w: Width::W32,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Imm(42),
        };
        assert_eq!(i.to_string(), "movl rax, 0x2a");
    }
}
