//! Machine-code encoder for the supported x86-64 subset.
//!
//! The encoder always emits the rel32 form for branches (never rel8), which
//! makes every instruction's encoded length independent of where it is
//! placed — the rewriter's layout pass depends on that property.

use crate::alu::{AluOp, ShOp, UnOp};
use crate::inst::{Inst, ShiftCount, SseOp};
use crate::operand::{MemRef, Operand};
use crate::reg::{Gpr, Width};
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

/// Immediate field appended after ModRM/SIB/disp.
#[derive(Clone, Copy)]
enum Imm {
    None,
    I8(i8),
    I32(i32),
}

/// The r/m side of a ModRM byte.
#[derive(Clone, Copy)]
enum Rm {
    Reg(u8),
    Mem(MemRef),
}

/// Emit one full instruction: optional legacy prefix, REX, opcode bytes,
/// ModRM + SIB + displacement, immediate.
///
/// `force_rex` is set for byte-register access to SPL/BPL/SIL/DIL.
#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut Vec<u8>,
    prefix: Option<u8>,
    rex_w: bool,
    opcode: &[u8],
    reg: u8,
    rm: Rm,
    imm: Imm,
    force_rex: bool,
) -> Result<(), EncodeError> {
    if let Some(p) = prefix {
        out.push(p);
    }
    // Compute REX bits.
    let r = (reg >> 3) & 1;
    let (b, x) = match rm {
        Rm::Reg(n) => ((n >> 3) & 1, 0),
        Rm::Mem(m) => {
            if let Some((idx, _)) = m.index {
                if idx == Gpr::Rsp {
                    return Err(EncodeError::RspIndex);
                }
            }
            let b = m.base.map_or(0, |g| (g.number() >> 3) & 1);
            let x = m.index.map_or(0, |(g, _)| (g.number() >> 3) & 1);
            (b, x)
        }
    };
    let rex = 0x40 | ((rex_w as u8) << 3) | (r << 2) | (x << 1) | b;
    if rex != 0x40 || force_rex {
        out.push(rex);
    }
    out.extend_from_slice(opcode);

    // ModRM / SIB / displacement.
    let reg3 = reg & 7;
    match rm {
        Rm::Reg(n) => out.push(0xC0 | (reg3 << 3) | (n & 7)),
        Rm::Mem(m) => encode_mem(out, reg3, &m)?,
    }

    match imm {
        Imm::None => {}
        Imm::I8(v) => out.push(v as u8),
        Imm::I32(v) => out.extend_from_slice(&v.to_le_bytes()),
    }
    Ok(())
}

/// Encode ModRM.mod/rm + SIB + disp for a memory reference.
fn encode_mem(out: &mut Vec<u8>, reg3: u8, m: &MemRef) -> Result<(), EncodeError> {
    match (m.base, m.index) {
        (None, None) => {
            // [disp32] absolute: mod=00 rm=100, SIB base=101 index=100.
            out.push(reg3 << 3 | 0b100);
            out.push(0x25);
            out.extend_from_slice(&m.disp.to_le_bytes());
        }
        (None, Some((idx, scale))) => {
            // [index*scale + disp32]: mod=00 rm=100, SIB base=101.
            out.push(reg3 << 3 | 0b100);
            out.push(scale_bits(scale)? << 6 | (idx.number() & 7) << 3 | 0b101);
            out.extend_from_slice(&m.disp.to_le_bytes());
        }
        (Some(base), index) => {
            let base3 = base.number() & 7;
            let needs_sib = index.is_some() || base3 == 0b100; // rsp/r12
                                                               // rbp/r13 cannot use mod=00 (that means disp32/RIP); force disp8.
            let d32 = m.disp.to_le_bytes();
            let (modbits, disp): (u8, &[u8]) = if m.disp == 0 && base3 != 0b101 {
                (0b00, &[])
            } else if i8::try_from(m.disp).is_ok() {
                (0b01, &d32[..1])
            } else {
                (0b10, &d32)
            };
            if needs_sib {
                out.push(modbits << 6 | reg3 << 3 | 0b100);
                let (idx3, scale) = match index {
                    Some((idx, s)) => (idx.number() & 7, scale_bits(s)?),
                    None => (0b100, 0), // no index
                };
                out.push(scale << 6 | idx3 << 3 | base3);
            } else {
                out.push(modbits << 6 | reg3 << 3 | base3);
            }
            out.extend_from_slice(disp);
        }
    }
    Ok(())
}

fn scale_bits(s: u8) -> Result<u8, EncodeError> {
    match s {
        1 => Ok(0),
        2 => Ok(1),
        4 => Ok(2),
        8 => Ok(3),
        // A synthesized MemRef can carry any scale; reject it as an
        // encoding error rather than aborting the process.
        _ => Err(EncodeError::BadOperands("invalid SIB scale")),
    }
}

fn rm_of(op: &Operand) -> Result<Rm, EncodeError> {
    match op {
        Operand::Reg(r) => Ok(Rm::Reg(r.number())),
        Operand::Xmm(x) => Ok(Rm::Reg(x.number())),
        Operand::Mem(m) => Ok(Rm::Mem(*m)),
        Operand::Imm(_) => Err(EncodeError::BadOperands("immediate in r/m position")),
    }
}

fn imm32(v: i64) -> Result<Imm, EncodeError> {
    i32::try_from(v)
        .map(Imm::I32)
        .map_err(|_| EncodeError::ImmTooLarge(v))
}

fn rex_w(w: Width) -> bool {
    w == Width::W64
}

/// True when an 8-bit register operand needs a REX prefix to address
/// SPL/BPL/SIL/DIL instead of AH/CH/DH/BH.
fn byte_reg_forces_rex(op: &Operand) -> bool {
    matches!(op, Operand::Reg(r) if (4..8).contains(&r.number()))
}

fn rel32(out: &mut Vec<u8>, addr: u64, prefix_len: usize, target: u64) -> Result<(), EncodeError> {
    // rel is computed from the end of the instruction: addr + prefix + 4.
    let end = addr.wrapping_add(prefix_len as u64 + 4);
    let rel = target.wrapping_sub(end) as i64;
    let rel = i32::try_from(rel).map_err(|_| EncodeError::RelOutOfRange {
        from: addr,
        to: target,
    })?;
    out.extend_from_slice(&rel.to_le_bytes());
    Ok(())
}

fn alu_opcodes(op: AluOp) -> (u8, u8, u8) {
    // (store-form `op r/m, r`, load-form `op r, r/m`, /digit for 81/83)
    match op {
        AluOp::Add => (0x01, 0x03, 0),
        AluOp::Or => (0x09, 0x0B, 1),
        AluOp::And => (0x21, 0x23, 4),
        AluOp::Sub => (0x29, 0x2B, 5),
        AluOp::Xor => (0x31, 0x33, 6),
        AluOp::Cmp => (0x39, 0x3B, 7),
    }
}

fn sse_arith(op: SseOp) -> (u8, u8) {
    // (mandatory prefix, opcode after 0F)
    match op {
        SseOp::Addsd => (0xF2, 0x58),
        SseOp::Mulsd => (0xF2, 0x59),
        SseOp::Subsd => (0xF2, 0x5C),
        SseOp::Divsd => (0xF2, 0x5E),
        SseOp::Addpd => (0x66, 0x58),
        SseOp::Mulpd => (0x66, 0x59),
        SseOp::Subpd => (0x66, 0x5C),
        SseOp::Divpd => (0x66, 0x5E),
        SseOp::Xorpd => (0x66, 0x57),
        SseOp::Unpcklpd => (0x66, 0x14),
    }
}

/// Encode `inst` as if placed at absolute address `addr`, appending the bytes
/// to `out`. Returns the encoded length.
pub fn encode(inst: &Inst, addr: u64, out: &mut Vec<u8>) -> Result<usize, EncodeError> {
    let start = out.len();
    match inst {
        Inst::Mov {
            w: Width::W8,
            dst,
            src,
        } => match (dst, src) {
            // Byte moves: C6 /0 imm8, 88/8A /r.
            (d @ (Operand::Reg(_) | Operand::Mem(_)), Operand::Imm(v)) => {
                let v8 = i8::try_from(*v)
                    .or_else(|_| u8::try_from(*v).map(|b| b as i8))
                    .map_err(|_| EncodeError::ImmTooLarge(*v))?;
                let force = byte_reg_forces_rex(d);
                emit(out, None, false, &[0xC6], 0, rm_of(d)?, Imm::I8(v8), force)?
            }
            (Operand::Reg(d), src @ (Operand::Reg(_) | Operand::Mem(_))) => {
                let force = byte_reg_forces_rex(dst) || byte_reg_forces_rex(src);
                emit(
                    out,
                    None,
                    false,
                    &[0x8A],
                    d.number(),
                    rm_of(src)?,
                    Imm::None,
                    force,
                )?
            }
            (Operand::Mem(m), s @ Operand::Reg(_)) => {
                let force = byte_reg_forces_rex(s);
                let Operand::Reg(sr) = s else {
                    return Err(EncodeError::BadOperands(
                        "byte store needs a register source",
                    ));
                };
                emit(
                    out,
                    None,
                    false,
                    &[0x88],
                    sr.number(),
                    Rm::Mem(*m),
                    Imm::None,
                    force,
                )?
            }
            _ => return Err(EncodeError::BadOperands("mov8")),
        },
        Inst::Mov { w, dst, src } => match (dst, src) {
            (Operand::Reg(d), Operand::Imm(v)) => {
                // C7 /0 imm32 (sign-extended for W64).
                emit(
                    out,
                    None,
                    rex_w(*w),
                    &[0xC7],
                    0,
                    Rm::Reg(d.number()),
                    imm32(*v)?,
                    false,
                )?
            }
            (Operand::Mem(m), Operand::Imm(v)) => emit(
                out,
                None,
                rex_w(*w),
                &[0xC7],
                0,
                Rm::Mem(*m),
                imm32(*v)?,
                false,
            )?,
            (Operand::Reg(d), src @ (Operand::Reg(_) | Operand::Mem(_))) => emit(
                out,
                None,
                rex_w(*w),
                &[0x8B],
                d.number(),
                rm_of(src)?,
                Imm::None,
                false,
            )?,
            (Operand::Mem(m), Operand::Reg(s)) => emit(
                out,
                None,
                rex_w(*w),
                &[0x89],
                s.number(),
                Rm::Mem(*m),
                Imm::None,
                false,
            )?,
            _ => return Err(EncodeError::BadOperands("mov")),
        },
        Inst::MovAbs { dst, imm } => {
            // REX.W B8+r imm64.
            let n = dst.number();
            out.push(0x48 | ((n >> 3) & 1));
            out.push(0xB8 + (n & 7));
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::Movsxd { dst, src } => emit(
            out,
            None,
            true,
            &[0x63],
            dst.number(),
            rm_of(src)?,
            Imm::None,
            false,
        )?,
        Inst::Movzx8 { w, dst, src } => {
            let force = byte_reg_forces_rex(src);
            emit(
                out,
                None,
                rex_w(*w),
                &[0x0F, 0xB6],
                dst.number(),
                rm_of(src)?,
                Imm::None,
                force,
            )?
        }
        Inst::Lea { dst, src } => emit(
            out,
            None,
            true,
            &[0x8D],
            dst.number(),
            Rm::Mem(*src),
            Imm::None,
            false,
        )?,
        Inst::Alu { op, w, dst, src } => {
            let (store, load, digit) = alu_opcodes(*op);
            match (dst, src) {
                (d @ (Operand::Reg(_) | Operand::Mem(_)), Operand::Imm(v)) => {
                    if let Ok(v8) = i8::try_from(*v) {
                        emit(
                            out,
                            None,
                            rex_w(*w),
                            &[0x83],
                            digit,
                            rm_of(d)?,
                            Imm::I8(v8),
                            false,
                        )?
                    } else {
                        emit(
                            out,
                            None,
                            rex_w(*w),
                            &[0x81],
                            digit,
                            rm_of(d)?,
                            imm32(*v)?,
                            false,
                        )?
                    }
                }
                (Operand::Reg(d), s @ (Operand::Reg(_) | Operand::Mem(_))) => emit(
                    out,
                    None,
                    rex_w(*w),
                    &[load],
                    d.number(),
                    rm_of(s)?,
                    Imm::None,
                    false,
                )?,
                (Operand::Mem(m), Operand::Reg(s)) => emit(
                    out,
                    None,
                    rex_w(*w),
                    &[store],
                    s.number(),
                    Rm::Mem(*m),
                    Imm::None,
                    false,
                )?,
                _ => return Err(EncodeError::BadOperands("alu")),
            }
        }
        Inst::Test { w, a, b } => match (a, b) {
            (a @ (Operand::Reg(_) | Operand::Mem(_)), Operand::Reg(r)) => emit(
                out,
                None,
                rex_w(*w),
                &[0x85],
                r.number(),
                rm_of(a)?,
                Imm::None,
                false,
            )?,
            (a @ (Operand::Reg(_) | Operand::Mem(_)), Operand::Imm(v)) => emit(
                out,
                None,
                rex_w(*w),
                &[0xF7],
                0,
                rm_of(a)?,
                imm32(*v)?,
                false,
            )?,
            _ => return Err(EncodeError::BadOperands("test")),
        },
        Inst::Imul { w, dst, src } => emit(
            out,
            None,
            rex_w(*w),
            &[0x0F, 0xAF],
            dst.number(),
            rm_of(src)?,
            Imm::None,
            false,
        )?,
        Inst::ImulImm { w, dst, src, imm } => {
            if let Ok(v8) = i8::try_from(*imm) {
                emit(
                    out,
                    None,
                    rex_w(*w),
                    &[0x6B],
                    dst.number(),
                    rm_of(src)?,
                    Imm::I8(v8),
                    false,
                )?
            } else {
                emit(
                    out,
                    None,
                    rex_w(*w),
                    &[0x69],
                    dst.number(),
                    rm_of(src)?,
                    Imm::I32(*imm),
                    false,
                )?
            }
        }
        Inst::Unary { op, w, dst } => {
            let (opc, digit) = match op {
                UnOp::Not => (0xF7, 2),
                UnOp::Neg => (0xF7, 3),
                UnOp::Inc => (0xFF, 0),
                UnOp::Dec => (0xFF, 1),
            };
            emit(
                out,
                None,
                rex_w(*w),
                &[opc],
                digit,
                rm_of(dst)?,
                Imm::None,
                false,
            )?
        }
        Inst::Shift { op, w, dst, count } => {
            let digit = match op {
                ShOp::Shl => 4,
                ShOp::Shr => 5,
                ShOp::Sar => 7,
            };
            match count {
                ShiftCount::Imm(i) => emit(
                    out,
                    None,
                    rex_w(*w),
                    &[0xC1],
                    digit,
                    rm_of(dst)?,
                    Imm::I8(*i as i8),
                    false,
                )?,
                ShiftCount::Cl => emit(
                    out,
                    None,
                    rex_w(*w),
                    &[0xD3],
                    digit,
                    rm_of(dst)?,
                    Imm::None,
                    false,
                )?,
            }
        }
        Inst::Cqo { w } => {
            if rex_w(*w) {
                out.push(0x48);
            }
            out.push(0x99);
        }
        Inst::Idiv { w, src } => emit(
            out,
            None,
            rex_w(*w),
            &[0xF7],
            7,
            rm_of(src)?,
            Imm::None,
            false,
        )?,
        Inst::Push { src } => match src {
            Operand::Reg(r) => {
                let n = r.number();
                if n >= 8 {
                    out.push(0x41);
                }
                out.push(0x50 + (n & 7));
            }
            Operand::Imm(v) => {
                out.push(0x68);
                let v = i32::try_from(*v).map_err(|_| EncodeError::ImmTooLarge(*v))?;
                out.extend_from_slice(&v.to_le_bytes());
            }
            Operand::Mem(m) => emit(out, None, false, &[0xFF], 6, Rm::Mem(*m), Imm::None, false)?,
            _ => return Err(EncodeError::BadOperands("push")),
        },
        Inst::Pop { dst } => match dst {
            Operand::Reg(r) => {
                let n = r.number();
                if n >= 8 {
                    out.push(0x41);
                }
                out.push(0x58 + (n & 7));
            }
            Operand::Mem(m) => emit(out, None, false, &[0x8F], 0, Rm::Mem(*m), Imm::None, false)?,
            _ => return Err(EncodeError::BadOperands("pop")),
        },
        Inst::CallRel { target } => {
            out.push(0xE8);
            rel32(out, addr, 1, *target)?;
        }
        Inst::CallInd { src } => emit(out, None, false, &[0xFF], 2, rm_of(src)?, Imm::None, false)?,
        Inst::Ret => out.push(0xC3),
        Inst::JmpRel { target } => {
            out.push(0xE9);
            rel32(out, addr, 1, *target)?;
        }
        Inst::JmpInd { src } => emit(out, None, false, &[0xFF], 4, rm_of(src)?, Imm::None, false)?,
        Inst::Jcc { cond, target } => {
            out.push(0x0F);
            out.push(0x80 + cond.code());
            rel32(out, addr, 2, *target)?;
        }
        Inst::Setcc { cond, dst } => {
            let force = byte_reg_forces_rex(dst);
            emit(
                out,
                None,
                false,
                &[0x0F, 0x90 + cond.code()],
                0,
                rm_of(dst)?,
                Imm::None,
                force,
            )?
        }
        Inst::MovSd { dst, src } => match (dst, src) {
            (Operand::Xmm(d), s @ (Operand::Xmm(_) | Operand::Mem(_))) => emit(
                out,
                Some(0xF2),
                false,
                &[0x0F, 0x10],
                d.number(),
                rm_of(s)?,
                Imm::None,
                false,
            )?,
            (Operand::Mem(m), Operand::Xmm(s)) => emit(
                out,
                Some(0xF2),
                false,
                &[0x0F, 0x11],
                s.number(),
                Rm::Mem(*m),
                Imm::None,
                false,
            )?,
            _ => return Err(EncodeError::BadOperands("movsd")),
        },
        Inst::MovUpd { dst, src } => match (dst, src) {
            (Operand::Xmm(d), s @ (Operand::Xmm(_) | Operand::Mem(_))) => emit(
                out,
                Some(0x66),
                false,
                &[0x0F, 0x10],
                d.number(),
                rm_of(s)?,
                Imm::None,
                false,
            )?,
            (Operand::Mem(m), Operand::Xmm(s)) => emit(
                out,
                Some(0x66),
                false,
                &[0x0F, 0x11],
                s.number(),
                Rm::Mem(*m),
                Imm::None,
                false,
            )?,
            _ => return Err(EncodeError::BadOperands("movupd")),
        },
        Inst::Sse { op, dst, src } => {
            let (p, opc) = sse_arith(*op);
            emit(
                out,
                Some(p),
                false,
                &[0x0F, opc],
                dst.number(),
                rm_of(src)?,
                Imm::None,
                false,
            )?
        }
        Inst::Ucomisd { a, b } => emit(
            out,
            Some(0x66),
            false,
            &[0x0F, 0x2E],
            a.number(),
            rm_of(b)?,
            Imm::None,
            false,
        )?,
        Inst::Cvtsi2sd { w, dst, src } => emit(
            out,
            Some(0xF2),
            rex_w(*w),
            &[0x0F, 0x2A],
            dst.number(),
            rm_of(src)?,
            Imm::None,
            false,
        )?,
        Inst::Cvttsd2si { w, dst, src } => emit(
            out,
            Some(0xF2),
            rex_w(*w),
            &[0x0F, 0x2C],
            dst.number(),
            rm_of(src)?,
            Imm::None,
            false,
        )?,
        Inst::Nop => out.push(0x90),
        Inst::Ud2 => out.extend_from_slice(&[0x0F, 0x0B]),
    }
    Ok(out.len() - start)
}

/// Encoded length of `inst`, which for this subset never depends on the
/// placement address (branches are always rel32).
pub fn encoded_len(inst: &Inst) -> Result<usize, EncodeError> {
    let mut scratch = Vec::with_capacity(16);
    // Place branch targets next to the (fake) address so rel32 always fits.
    let addr = inst.static_target().unwrap_or(0x1000);
    encode(inst, addr, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::reg::Xmm;

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
