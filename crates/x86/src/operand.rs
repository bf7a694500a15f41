//! Instruction operands: registers, immediates and memory references.

use crate::reg::{Gpr, Xmm};
use std::fmt;

/// A memory reference `[base + index*scale + disp]`.
///
/// With neither base nor index this is an absolute 32-bit-displacement
/// address — the form the specializer emits when a pointer became a known
/// constant (cf. Figure 6 of the paper, where stencil coefficients are
/// referenced at fixed data addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Optional base register.
    pub base: Option<Gpr>,
    /// Optional `(index, scale)`; scale is 1, 2, 4 or 8. RSP cannot index.
    pub index: Option<(Gpr, u8)>,
    /// Signed 32-bit displacement.
    pub disp: i32,
}

impl MemRef {
    /// `[base]`
    pub fn base(base: Gpr) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            disp: 0,
        }
    }

    /// `[base + disp]`
    pub fn base_disp(base: Gpr, disp: i32) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            disp,
        }
    }

    /// `[base + index*scale + disp]`
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i32) -> MemRef {
        debug_assert!(matches!(scale, 1 | 2 | 4 | 8));
        debug_assert!(index != Gpr::Rsp, "rsp cannot be an index register");
        MemRef {
            base: Some(base),
            index: Some((index, scale)),
            disp,
        }
    }

    /// `[index*scale + disp]` (no base).
    pub fn index_disp(index: Gpr, scale: u8, disp: i32) -> MemRef {
        debug_assert!(matches!(scale, 1 | 2 | 4 | 8));
        debug_assert!(index != Gpr::Rsp, "rsp cannot be an index register");
        MemRef {
            base: None,
            index: Some((index, scale)),
            disp,
        }
    }

    /// `[disp32]` — absolute address, as produced by specialization.
    pub fn abs(addr: i32) -> MemRef {
        MemRef {
            base: None,
            index: None,
            disp: addr,
        }
    }

    /// Construct an absolute reference if `addr` fits in a signed 32-bit
    /// displacement as a non-negative address; `None` otherwise.
    pub fn abs_u64(addr: u64) -> Option<MemRef> {
        if addr <= i32::MAX as u64 {
            Some(MemRef::abs(addr as i32))
        } else {
            None
        }
    }

    /// Registers read when computing the effective address.
    #[inline]
    pub fn regs(&self) -> impl Iterator<Item = Gpr> + '_ {
        self.base.into_iter().chain(self.index.map(|(r, _)| r))
    }

    /// Returns a copy with the displacement adjusted by `delta`, if the
    /// result still fits in 32 bits.
    pub fn with_disp_added(&self, delta: i64) -> Option<MemRef> {
        let disp = i32::try_from(self.disp as i64 + delta).ok()?;
        Some(MemRef { disp, ..*self })
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some((i, s)) = self.index {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{i}*{s}")?;
            first = false;
        }
        if self.disp != 0 || first {
            if first {
                write!(f, "{:#x}", self.disp)?;
            } else if self.disp < 0 {
                write!(f, "-{:#x}", -(self.disp as i64))?;
            } else {
                write!(f, "+{:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// General-purpose register.
    Reg(Gpr),
    /// SSE register.
    Xmm(Xmm),
    /// Immediate. The encoder requires it to fit the instruction's
    /// immediate field (usually a sign-extended 32-bit value).
    Imm(i64),
    /// Memory reference.
    Mem(MemRef),
}

impl Operand {
    /// The GPR if this is a register operand.
    #[inline]
    pub fn gpr(&self) -> Option<Gpr> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The XMM register if this is an SSE register operand.
    #[inline]
    pub fn xmm(&self) -> Option<Xmm> {
        match self {
            Operand::Xmm(x) => Some(*x),
            _ => None,
        }
    }

    /// The memory reference if this is a memory operand.
    #[inline]
    pub fn mem(&self) -> Option<MemRef> {
        match self {
            Operand::Mem(m) => Some(*m),
            _ => None,
        }
    }

    /// The immediate value if this is an immediate operand.
    #[inline]
    pub fn imm(&self) -> Option<i64> {
        match self {
            Operand::Imm(i) => Some(*i),
            _ => None,
        }
    }

    /// `true` for memory operands.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self, Operand::Mem(_))
    }
}

impl From<Gpr> for Operand {
    fn from(r: Gpr) -> Operand {
        Operand::Reg(r)
    }
}

impl From<Xmm> for Operand {
    fn from(x: Xmm) -> Operand {
        Operand::Xmm(x)
    }
}

impl From<MemRef> for Operand {
    fn from(m: MemRef) -> Operand {
        Operand::Mem(m)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Operand {
        Operand::Imm(i)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Xmm(x) => write!(f, "{x}"),
            Operand::Imm(i) => {
                if *i < 0 {
                    write!(f, "-{:#x}", -i)
                } else {
                    write!(f, "{:#x}", i)
                }
            }
            Operand::Mem(m) => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(MemRef::base(Gpr::Rdi).to_string(), "[rdi]");
        assert_eq!(MemRef::base_disp(Gpr::Rsp, -8).to_string(), "[rsp-0x8]");
        assert_eq!(
            MemRef::base_index(Gpr::Rax, Gpr::Rbx, 8, 16).to_string(),
            "[rax+rbx*8+0x10]"
        );
        assert_eq!(MemRef::abs(0x615100).to_string(), "[0x615100]");
        assert_eq!(Operand::Imm(-1).to_string(), "-0x1");
    }

    #[test]
    fn abs_u64_bounds() {
        assert_eq!(MemRef::abs_u64(0x7FFF_FFFF), Some(MemRef::abs(0x7FFF_FFFF)));
        assert_eq!(MemRef::abs_u64(0x8000_0000), None);
        assert_eq!(MemRef::abs_u64(u64::MAX), None);
    }

    #[test]
    fn disp_adjustment_saturates_to_none() {
        let m = MemRef::base_disp(Gpr::Rax, i32::MAX);
        assert!(m.with_disp_added(1).is_none());
        assert_eq!(m.with_disp_added(-1).unwrap().disp, i32::MAX - 1);
    }

    #[test]
    fn regs_iterates_base_and_index() {
        let m = MemRef::base_index(Gpr::Rax, Gpr::Rcx, 4, 0);
        let regs: Vec<_> = m.regs().collect();
        assert_eq!(regs, vec![Gpr::Rax, Gpr::Rcx]);
        assert_eq!(MemRef::abs(4).regs().count(), 0);
    }
}
