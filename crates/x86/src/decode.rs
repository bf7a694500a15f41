//! Machine-code decoder for the supported x86-64 subset.
//!
//! Decodes everything [`crate::encode()`](crate::encode::encode) can produce plus a few alternate
//! forms a compiler may emit (rel8 branches, `B8+r` immediate moves, both
//! directions of register-register `mov`/ALU). Anything outside the subset
//! yields an error — per the paper (§III.G), an undecodable instruction is a
//! recoverable failure of the rewriting process, never a panic. The forms
//! are rows of the instruction-form table (`form.rs`), which the encoder
//! reads too.

use crate::form;
use crate::inst::Inst;
use std::fmt;

/// A successfully decoded instruction and its encoded length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The decoded instruction (branch targets resolved to absolute).
    pub inst: Inst,
    /// Number of bytes the instruction occupies.
    pub len: usize,
}

/// Decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes mid-instruction.
    Truncated,
    /// First (or second) opcode byte not in the subset.
    UnknownOpcode {
        /// Address of the instruction.
        at: u64,
        /// The offending opcode byte.
        byte: u8,
    },
    /// Recognized opcode with an unsupported operand form.
    UnsupportedForm {
        /// Address of the instruction.
        at: u64,
        /// Human-readable description of the unsupported form.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated instruction"),
            DecodeError::UnknownOpcode { at, byte } => {
                write!(f, "unknown opcode {byte:#04x} at {at:#x}")
            }
            DecodeError::UnsupportedForm { at, what } => {
                write!(f, "unsupported form at {at:#x}: {what}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode one instruction starting at `bytes[0]`, which lives at absolute
/// address `addr` (used to resolve relative branch targets).
pub fn decode(bytes: &[u8], addr: u64) -> Result<Decoded, DecodeError> {
    form::decode(bytes, addr)
}

/// Decode a whole byte range into `(address, instruction)` pairs, stopping
/// at the first error. Useful for disassembly listings.
pub fn decode_all(bytes: &[u8], addr: u64) -> (Vec<(u64, Inst)>, Option<DecodeError>) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        match decode(&bytes[pos..], addr + pos as u64) {
            Ok(d) => {
                out.push((addr + pos as u64, d.inst));
                pos += d.len;
            }
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::{AluOp, ShOp, UnOp};
    use crate::cond::Cond;
    use crate::encode::encode;
    use crate::inst::{ShiftCount, SseOp};
    use crate::operand::{MemRef, Operand};
    use crate::reg::{Gpr, Width, Xmm};

    fn roundtrip(i: Inst) {
        let mut v = Vec::new();
        let addr = 0x400000u64;
        encode(&i, addr, &mut v).unwrap();
        let d = decode(&v, addr).unwrap();
        assert_eq!(d.inst, i, "bytes: {v:02x?}");
        assert_eq!(d.len, v.len());
    }

    #[test]
    fn roundtrip_core_forms() {
        use Operand::Imm;
        let m = MemRef::base_index(Gpr::R13, Gpr::R12, 8, -0x40);
        for i in [
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Gpr::R15.into(),
            },
            Inst::Mov {
                w: Width::W32,
                dst: Gpr::R9.into(),
                src: Imm(-5),
            },
            Inst::Mov {
                w: Width::W64,
                dst: m.into(),
                src: Gpr::Rdx.into(),
            },
            Inst::MovAbs {
                dst: Gpr::Rsi,
                imm: 0xDEAD_BEEF_CAFE_F00D,
            },
            Inst::Movsxd {
                dst: Gpr::Rcx,
                src: Gpr::Rax.into(),
            },
            Inst::Movzx8 {
                w: Width::W32,
                dst: Gpr::Rax,
                src: Gpr::Rdi.into(),
            },
            Inst::Lea {
                dst: Gpr::Rbp,
                src: MemRef::abs(0x601000),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rsp.into(),
                src: Imm(0x1000),
            },
            Inst::Alu {
                op: AluOp::Cmp,
                w: Width::W32,
                dst: m.into(),
                src: Imm(7),
            },
            Inst::Test {
                w: Width::W64,
                a: Gpr::Rax.into(),
                b: Gpr::Rax.into(),
            },
            Inst::Imul {
                w: Width::W64,
                dst: Gpr::Rbx,
                src: m.into(),
            },
            Inst::ImulImm {
                w: Width::W64,
                dst: Gpr::Rbx,
                src: Gpr::Rbx.into(),
                imm: 500,
            },
            Inst::Unary {
                op: UnOp::Neg,
                w: Width::W64,
                dst: Gpr::Rdi.into(),
            },
            Inst::Shift {
                op: ShOp::Sar,
                w: Width::W64,
                dst: Gpr::Rax.into(),
                count: ShiftCount::Imm(3),
            },
            Inst::Shift {
                op: ShOp::Shl,
                w: Width::W32,
                dst: Gpr::Rdx.into(),
                count: ShiftCount::Cl,
            },
            Inst::Cqo { w: Width::W64 },
            Inst::Idiv {
                w: Width::W64,
                src: Gpr::Rcx.into(),
            },
            Inst::Push {
                src: Gpr::R12.into(),
            },
            Inst::Pop {
                dst: Gpr::Rbp.into(),
            },
            Inst::Push { src: Imm(0x77) },
            Inst::CallRel { target: 0x401000 },
            Inst::CallInd {
                src: Gpr::Rax.into(),
            },
            Inst::Ret,
            Inst::JmpRel { target: 0x3FF000 },
            Inst::JmpInd { src: m.into() },
            Inst::Jcc {
                cond: Cond::G,
                target: 0x400080,
            },
            Inst::Setcc {
                cond: Cond::Ne,
                dst: Gpr::Rsi.into(),
            },
            Inst::MovSd {
                dst: Xmm::Xmm3.into(),
                src: m.into(),
            },
            Inst::MovSd {
                dst: m.into(),
                src: Xmm::Xmm14.into(),
            },
            Inst::MovUpd {
                dst: Xmm::Xmm1.into(),
                src: m.into(),
            },
            Inst::Sse {
                op: SseOp::Mulsd,
                dst: Xmm::Xmm0,
                src: MemRef::abs(0x615100).into(),
            },
            Inst::Sse {
                op: SseOp::Addpd,
                dst: Xmm::Xmm9,
                src: Xmm::Xmm2.into(),
            },
            Inst::Sse {
                op: SseOp::Xorpd,
                dst: Xmm::Xmm5,
                src: Xmm::Xmm5.into(),
            },
            Inst::Sse {
                op: SseOp::Unpcklpd,
                dst: Xmm::Xmm2,
                src: Xmm::Xmm7.into(),
            },
            Inst::Ucomisd {
                a: Xmm::Xmm0,
                b: Xmm::Xmm1.into(),
            },
            Inst::Cvtsi2sd {
                w: Width::W64,
                dst: Xmm::Xmm4,
                src: Gpr::Rax.into(),
            },
            Inst::Cvttsd2si {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Xmm::Xmm4.into(),
            },
            Inst::Nop,
            Inst::Ud2,
        ] {
            roundtrip(i);
        }
    }

    #[test]
    fn rel8_branches_decode() {
        // EB FE: jmp to self.
        let d = decode(&[0xEB, 0xFE], 0x400000).unwrap();
        assert_eq!(d.inst, Inst::JmpRel { target: 0x400000 });
        // 74 00: je to next.
        let d = decode(&[0x74, 0x00], 0x400000).unwrap();
        assert_eq!(
            d.inst,
            Inst::Jcc {
                cond: Cond::E,
                target: 0x400002
            }
        );
    }

    #[test]
    fn b8_imm32_decodes_as_mov() {
        // B8 2A000000: mov eax, 42
        let d = decode(&[0xB8, 0x2A, 0, 0, 0], 0).unwrap();
        assert_eq!(
            d.inst,
            Inst::Mov {
                w: Width::W32,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(42)
            }
        );
    }

    #[test]
    fn store_form_mov_decodes() {
        // 48 89 D8: mov rax, rbx (store form).
        let d = decode(&[0x48, 0x89, 0xD8], 0).unwrap();
        assert_eq!(
            d.inst,
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Gpr::Rbx.into()
            }
        );
    }

    #[test]
    fn errors() {
        assert_eq!(decode(&[], 0), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x48], 0), Err(DecodeError::Truncated));
        assert!(matches!(
            decode(&[0x06], 0x123),
            Err(DecodeError::UnknownOpcode {
                at: 0x123,
                byte: 0x06
            })
        ));
        // RIP-relative is unsupported: 48 8B 05 00000000 (mov rax, [rip]).
        assert!(matches!(
            decode(&[0x48, 0x8B, 0x05, 0, 0, 0, 0], 0),
            Err(DecodeError::UnsupportedForm { .. })
        ));
        // F3-prefixed (movss) unsupported.
        assert!(matches!(
            decode(&[0xF3, 0x0F, 0x10, 0xC1], 0),
            Err(DecodeError::UnsupportedForm { .. })
        ));
    }

    #[test]
    fn unconsumed_prefixes_rejected() {
        // 66 01 C8 is a 16-bit add — the subset has no 16-bit ALU, and
        // decoding it as the 32-bit form would be a silent mis-decode.
        assert!(matches!(
            decode(&[0x66, 0x01, 0xC8], 0),
            Err(DecodeError::UnsupportedForm { .. })
        ));
        // F2 on a non-SSE opcode (inc eax).
        assert!(matches!(
            decode(&[0xF2, 0xFF, 0xC0], 0),
            Err(DecodeError::UnsupportedForm { .. })
        ));
        // 66 0F AF C1 is a 16-bit imul.
        assert!(matches!(
            decode(&[0x66, 0x0F, 0xAF, 0xC1], 0),
            Err(DecodeError::UnsupportedForm { .. })
        ));
        // Conflicting 66 and F2 prefixes.
        assert!(matches!(
            decode(&[0x66, 0xF2, 0x0F, 0x58, 0xC1], 0),
            Err(DecodeError::UnsupportedForm { .. })
        ));
        // 66 on a plain conditional branch.
        assert!(matches!(
            decode(&[0x66, 0x0F, 0x84, 0, 0, 0, 0], 0),
            Err(DecodeError::UnsupportedForm { .. })
        ));
    }

    fn unsupported(bytes: &[u8]) -> bool {
        matches!(decode(bytes, 0), Err(DecodeError::UnsupportedForm { .. }))
    }

    #[test]
    fn high_byte_register_in_modrm_reg_is_rejected() {
        // 88 E0 is `mov al, ah` and 8A E0 `mov ah, al`: without REX, a
        // ModRM.reg of 4..8 names AH/CH/DH/BH, not SPL/BPL/SIL/DIL.
        assert!(unsupported(&[0x88, 0xE0]));
        assert!(unsupported(&[0x8A, 0xE0]));
        // With a bare REX the same bytes address SPL and stay valid.
        assert_eq!(
            decode(&[0x40, 0x88, 0xE0], 0).unwrap().inst,
            Inst::Mov {
                w: Width::W8,
                dst: Gpr::Rax.into(),
                src: Gpr::Rsp.into()
            }
        );
    }

    #[test]
    fn xchg_with_an_extended_register_is_not_a_nop() {
        // 41 90 is `xchg eax, r8d`, 49 90 `xchg rax, r8`.
        assert!(unsupported(&[0x41, 0x90]));
        assert!(unsupported(&[0x49, 0x90]));
        for bytes in [&[0x90][..], &[0x40, 0x90], &[0x48, 0x90]] {
            assert_eq!(decode(bytes, 0).unwrap().inst, Inst::Nop, "{bytes:02x?}");
        }
    }

    #[test]
    fn lea_without_rex_w_is_rejected() {
        // 8D 04 24 is `lea eax, [rsp]`, a 32-bit result.
        assert!(unsupported(&[0x8D, 0x04, 0x24]));
        assert_eq!(
            decode(&[0x48, 0x8D, 0x04, 0x24], 0).unwrap().inst,
            Inst::Lea {
                dst: Gpr::Rax,
                src: MemRef::base(Gpr::Rsp)
            }
        );
    }

    #[test]
    fn decode_all_stops_at_error() {
        let mut v = Vec::new();
        encode(&Inst::Nop, 0, &mut v).unwrap();
        encode(&Inst::Ret, 1, &mut v).unwrap();
        v.push(0x06); // bad
        let (insts, err) = decode_all(&v, 0x500000);
        assert_eq!(insts.len(), 2);
        assert!(err.is_some());
    }
}
