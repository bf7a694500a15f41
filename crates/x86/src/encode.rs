//! Machine-code encoder for the supported x86-64 subset.
//!
//! The encoder always emits the rel32 form for branches (never rel8), which
//! makes every instruction's encoded length independent of where it is
//! placed — the rewriter's layout pass depends on that property. It takes
//! the first canonical row of the instruction-form table (`form.rs`) that
//! fits the instruction: the same rows the decoder reads.

use crate::form;
use crate::inst::Inst;
use std::fmt;

/// Errors produced while lowering a decoded instruction to bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate does not fit the instruction's immediate field.
    ImmTooLarge(i64),
    /// A rel32 branch displacement overflowed 32 bits.
    RelOutOfRange {
        /// Address of the branch instruction.
        from: u64,
        /// Branch target.
        to: u64,
    },
    /// The operand combination has no encoding in the subset.
    BadOperands(&'static str),
    /// RSP cannot be used as an index register.
    RspIndex,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmTooLarge(i) => write!(f, "immediate {i:#x} too large for field"),
            EncodeError::RelOutOfRange { from, to } => {
                write!(f, "rel32 out of range: {from:#x} -> {to:#x}")
            }
            EncodeError::BadOperands(m) => write!(f, "unencodable operands: {m}"),
            EncodeError::RspIndex => write!(f, "rsp cannot be an index register"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encode `inst` as if placed at absolute address `addr`, appending the bytes
/// to `out`. Returns the encoded length; on an error `out` is unchanged.
pub fn encode(inst: &Inst, addr: u64, out: &mut Vec<u8>) -> Result<usize, EncodeError> {
    form::encode(inst, addr, out)
}

/// Encoded length of `inst`, which for this subset never depends on the
/// placement address (branches are always rel32). Counts, never allocates.
pub fn encoded_len(inst: &Inst) -> Result<usize, EncodeError> {
    // Place branch targets next to the (fake) address so rel32 always fits.
    form::encoded_len(inst, inst.static_target().unwrap_or(4096))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::AluOp;
    use crate::cond::Cond;
    use crate::inst::SseOp;
    use crate::operand::{MemRef, Operand};
    use crate::reg::{Gpr, Width, Xmm};

    fn enc(i: Inst) -> Vec<u8> {
        let mut v = Vec::new();
        encode(&i, 0x400000, &mut v).unwrap();
        v
    }

    #[test]
    fn simple_movs() {
        // mov rax, rbx -> REX.W 8B C3
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Gpr::Rbx.into()
            }),
            vec![0x48, 0x8B, 0xC3]
        );
        // mov eax, 42 -> C7 C0 2A000000
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W32,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(42)
            }),
            vec![0xC7, 0xC0, 0x2A, 0, 0, 0]
        );
        // movabs r10, 0x1122334455667788
        assert_eq!(
            enc(Inst::MovAbs {
                dst: Gpr::R10,
                imm: 0x1122334455667788
            }),
            vec![0x49, 0xBA, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
    }

    #[test]
    fn mem_forms() {
        // mov rax, [rdi+8] -> 48 8B 47 08
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::base_disp(Gpr::Rdi, 8).into(),
            }),
            vec![0x48, 0x8B, 0x47, 0x08]
        );
        // mov rax, [rsp] needs SIB -> 48 8B 04 24
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::base(Gpr::Rsp).into(),
            }),
            vec![0x48, 0x8B, 0x04, 0x24]
        );
        // mov rax, [rbp] must use disp8=0 -> 48 8B 45 00
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::base(Gpr::Rbp).into(),
            }),
            vec![0x48, 0x8B, 0x45, 0x00]
        );
        // mov rax, [r13] likewise (with REX.B) -> 49 8B 45 00
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::base(Gpr::R13).into(),
            }),
            vec![0x49, 0x8B, 0x45, 0x00]
        );
        // absolute [0x615100]: 48 8B 04 25 00 51 61 00
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::abs(0x615100).into(),
            }),
            vec![0x48, 0x8B, 0x04, 0x25, 0x00, 0x51, 0x61, 0x00]
        );
        // mov rax, [rax+rcx*8+0x10] -> 48 8B 44 C8 10
        assert_eq!(
            enc(Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::base_index(Gpr::Rax, Gpr::Rcx, 8, 0x10).into(),
            }),
            vec![0x48, 0x8B, 0x44, 0xC8, 0x10]
        );
    }

    #[test]
    fn alu_imm8_vs_imm32() {
        // add rax, 8 -> 48 83 C0 08
        assert_eq!(
            enc(Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(8),
            }),
            vec![0x48, 0x83, 0xC0, 0x08]
        );
        // sub rsp, 0x200 -> 48 81 EC 00020000
        assert_eq!(
            enc(Inst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Gpr::Rsp.into(),
                src: Operand::Imm(0x200),
            }),
            vec![0x48, 0x81, 0xEC, 0x00, 0x02, 0x00, 0x00]
        );
    }

    #[test]
    fn branches_are_rel32() {
        // jmp to next instruction: rel = 0 -> E9 00000000
        let mut v = Vec::new();
        encode(&Inst::JmpRel { target: 0x400005 }, 0x400000, &mut v).unwrap();
        assert_eq!(v, vec![0xE9, 0, 0, 0, 0]);
        // je backward by 0x10 from 0x400000: target = 0x3ffff6, end = 0x400006
        let mut v = Vec::new();
        encode(
            &Inst::Jcc {
                cond: Cond::E,
                target: 0x3FFFF6,
            },
            0x400000,
            &mut v,
        )
        .unwrap();
        assert_eq!(v[..2], [0x0F, 0x84]);
        assert_eq!(i32::from_le_bytes(v[2..6].try_into().unwrap()), -0x10);
    }

    #[test]
    fn sse_forms() {
        // mulsd xmm0, [0x615100] -> F2 0F 59 04 25 ...
        let v = enc(Inst::Sse {
            op: SseOp::Mulsd,
            dst: Xmm::Xmm0,
            src: MemRef::abs(0x615100).into(),
        });
        assert_eq!(&v[..3], &[0xF2, 0x0F, 0x59]);
        // movsd [rsp+8], xmm1 -> F2 0F 11 4C 24 08
        assert_eq!(
            enc(Inst::MovSd {
                dst: MemRef::base_disp(Gpr::Rsp, 8).into(),
                src: Xmm::Xmm1.into(),
            }),
            vec![0xF2, 0x0F, 0x11, 0x4C, 0x24, 0x08]
        );
    }

    #[test]
    fn push_pop_extended_regs() {
        assert_eq!(
            enc(Inst::Push {
                src: Gpr::Rbp.into()
            }),
            vec![0x55]
        );
        assert_eq!(
            enc(Inst::Push {
                src: Gpr::R12.into()
            }),
            vec![0x41, 0x54]
        );
        assert_eq!(
            enc(Inst::Pop {
                dst: Gpr::R15.into()
            }),
            vec![0x41, 0x5F]
        );
    }

    #[test]
    fn setcc_byte_reg_rex() {
        // setne al: no REX. setne dil: needs bare REX 40.
        assert_eq!(
            enc(Inst::Setcc {
                cond: Cond::Ne,
                dst: Gpr::Rax.into()
            }),
            vec![0x0F, 0x95, 0xC0]
        );
        assert_eq!(
            enc(Inst::Setcc {
                cond: Cond::Ne,
                dst: Gpr::Rdi.into()
            }),
            vec![0x40, 0x0F, 0x95, 0xC7]
        );
    }

    #[test]
    fn rsp_index_rejected() {
        let mut v = Vec::new();
        let bad = Inst::Lea {
            dst: Gpr::Rax,
            src: MemRef {
                base: Some(Gpr::Rax),
                index: Some((Gpr::Rsp, 2)),
                disp: 0,
            },
        };
        assert_eq!(encode(&bad, 0, &mut v), Err(EncodeError::RspIndex));
    }

    #[test]
    fn rel_out_of_range() {
        let mut v = Vec::new();
        let err = encode(
            &Inst::JmpRel {
                target: 0x1_0000_0000,
            },
            0,
            &mut v,
        );
        assert!(matches!(err, Err(EncodeError::RelOutOfRange { .. })));
        assert!(v.is_empty(), "a failed encode leaves no opcode behind");
    }

    #[test]
    fn operands_of_the_wrong_register_file_or_width_are_rejected() {
        let bad = EncodeError::BadOperands("no form of the subset takes these operands");
        for i in [
            Inst::Movsxd {
                dst: Gpr::Rax,
                src: Xmm::Xmm3.into(),
            },
            Inst::Sse {
                op: SseOp::Addsd,
                dst: Xmm::Xmm0,
                src: Gpr::Rbx.into(),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W8,
                dst: Gpr::Rax.into(),
                src: Gpr::Rcx.into(),
            },
        ] {
            assert_eq!(encode(&i, 0, &mut Vec::new()), Err(bad), "{i}");
        }
    }

    #[test]
    fn encoded_len_matches_encode() {
        let insts = [
            Inst::Ret,
            Inst::Nop,
            Inst::Cqo { w: Width::W64 },
            Inst::Push {
                src: Gpr::Rbx.into(),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Gpr::Rbx.into(),
            },
            Inst::Lea {
                dst: Gpr::Rcx,
                src: MemRef::base_disp(Gpr::Rsp, -64),
            },
        ];
        for i in insts {
            let mut v = Vec::new();
            let n = encode(&i, 0x400000, &mut v).unwrap();
            assert_eq!(n, encoded_len(&i).unwrap(), "{i}");
            assert_eq!(n, v.len());
        }
    }
}
