//! Shared ALU semantics: result and flag computation for the integer subset
//! and the scalar-double operations.
//!
//! Both the concrete emulator (`brew-emu`) and the rewriter's constant
//! folding (`brew-core`) call into this module, so "execute at rewrite time"
//! and "execute at run time" can never disagree — the soundness of partial
//! evaluation depends on that.

use crate::cond::Flags;
use crate::inst::SseOp;
use crate::reg::Width;

/// Two-operand ALU operations (`dst = dst op src`); `Cmp` computes `Sub`
/// flags without a result write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Compare: subtraction that only updates flags.
    Cmp,
}

impl AluOp {
    /// Mnemonic, e.g. `"add"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Cmp => "cmp",
        }
    }

    /// `true` if the operation writes its destination (everything but `cmp`).
    #[inline]
    pub fn writes_dst(self) -> bool {
        !matches!(self, AluOp::Cmp)
    }
}

/// Single-operand operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement (does not affect flags).
    Not,
    /// Increment (leaves CF unchanged; we model CF as recomputed-from-add
    /// with the carry preserved by the caller).
    Inc,
    /// Decrement (leaves CF unchanged, like `Inc`).
    Dec,
}

impl UnOp {
    /// Mnemonic, e.g. `"neg"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::Inc => "inc",
            UnOp::Dec => "dec",
        }
    }
}

/// Shift operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShOp {
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
}

impl ShOp {
    /// Mnemonic, e.g. `"shl"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ShOp::Shl => "shl",
            ShOp::Shr => "shr",
            ShOp::Sar => "sar",
        }
    }
}

/// Parity flag: set if the low byte of `v` has an even number of set bits.
#[inline]
fn parity(v: u64) -> bool {
    (v as u8).count_ones().is_multiple_of(2)
}

/// ZF/SF/PF from a result value at the given width.
#[inline]
fn zsp(w: Width, r: u64) -> (bool, bool, bool) {
    let r = w.trunc(r);
    (r == 0, r & w.sign_bit() != 0, parity(r))
}

/// Execute a two-operand ALU op. Inputs are taken modulo the width; the
/// result is returned zero-extended to 64 bits (callers apply x86's
/// 32-bit-write zero extension themselves).
pub fn alu(op: AluOp, w: Width, a: u64, b: u64) -> (u64, Flags) {
    let a = w.trunc(a);
    let b = w.trunc(b);
    match op {
        AluOp::Add => {
            let r = w.trunc(a.wrapping_add(b));
            let (zf, sf, pf) = zsp(w, r);
            let cf = r < a;
            let of = ((a ^ r) & (b ^ r) & w.sign_bit()) != 0;
            (r, Flags { cf, zf, sf, of, pf })
        }
        AluOp::Sub | AluOp::Cmp => {
            let r = w.trunc(a.wrapping_sub(b));
            let (zf, sf, pf) = zsp(w, r);
            let cf = a < b;
            let of = ((a ^ b) & (a ^ r) & w.sign_bit()) != 0;
            (r, Flags { cf, zf, sf, of, pf })
        }
        AluOp::And | AluOp::Or | AluOp::Xor => {
            let r = match op {
                AluOp::And => a & b,
                AluOp::Or => a | b,
                _ => a ^ b,
            };
            let (zf, sf, pf) = zsp(w, r);
            // Logical ops clear CF and OF.
            (
                r,
                Flags {
                    cf: false,
                    zf,
                    sf,
                    of: false,
                    pf,
                },
            )
        }
    }
}

/// `test a, b`: AND flags without a result.
pub fn test(w: Width, a: u64, b: u64) -> Flags {
    alu(AluOp::And, w, a, b).1
}

/// Two-operand signed multiply (`imul r, r/m`). CF/OF are set when the
/// signed result does not fit the destination width.
pub fn imul(w: Width, a: u64, b: u64) -> (u64, Flags) {
    let (r, overflow) = match w {
        Width::W64 => {
            let full = (w.sext(a) as i64 as i128) * (w.sext(b) as i64 as i128);
            (full as u64, full != full as i64 as i128)
        }
        _ => {
            let full = (w.sext(a) as i64) * (w.sext(b) as i64);
            (w.trunc(full as u64), full != w.sext(full as u64) as i64)
        }
    };
    let (zf, sf, pf) = zsp(w, r);
    (
        r,
        Flags {
            cf: overflow,
            zf,
            sf,
            of: overflow,
            pf,
        },
    )
}

/// Single-operand ops. `Inc`/`Dec` preserve the incoming CF per the ISA;
/// `Not` preserves all flags (the caller should ignore the returned flags
/// for `Not`, which we signal by echoing `prev`).
pub fn unop(op: UnOp, w: Width, v: u64, prev: Flags) -> (u64, Flags) {
    match op {
        UnOp::Neg => {
            let (r, mut f) = alu(AluOp::Sub, w, 0, v);
            f.cf = w.trunc(v) != 0;
            (r, f)
        }
        UnOp::Not => (w.trunc(!v), prev),
        UnOp::Inc => {
            let (r, mut f) = alu(AluOp::Add, w, v, 1);
            f.cf = prev.cf;
            (r, f)
        }
        UnOp::Dec => {
            let (r, mut f) = alu(AluOp::Sub, w, v, 1);
            f.cf = prev.cf;
            (r, f)
        }
    }
}

/// Shift by `count & (bits-1)`. A masked count of zero leaves the flags
/// unchanged (we echo `prev`). The OF definition follows the ISA for
/// single-bit shifts and is left as the last computed value otherwise.
pub fn shift(op: ShOp, w: Width, v: u64, count: u8, prev: Flags) -> (u64, Flags) {
    let mask = (w.bits() - 1) as u8;
    let c = count & mask;
    if c == 0 {
        return (w.trunc(v), prev);
    }
    let v = w.trunc(v);
    let (r, cf) = match op {
        ShOp::Shl => {
            let r = w.trunc(v << c);
            (r, (v >> (w.bits() - c as u32)) & 1 != 0)
        }
        ShOp::Shr => (v >> c, (v >> (c - 1)) & 1 != 0),
        ShOp::Sar => {
            let sv = w.sext(v) as i64;
            (w.trunc((sv >> c) as u64), ((sv >> (c - 1)) & 1) != 0)
        }
    };
    let (zf, sf, pf) = zsp(w, r);
    let of = match op {
        ShOp::Shl => (r & w.sign_bit() != 0) != cf,
        ShOp::Shr => v & w.sign_bit() != 0,
        ShOp::Sar => false,
    };
    (r, Flags { cf, zf, sf, of, pf })
}

/// Signed division of the double-width value `hi:lo` by `div` at width `w`.
/// Returns `(quotient, remainder)` or `None` on divide-by-zero / overflow
/// (which the emulator turns into a fault).
pub fn idiv(w: Width, hi: u64, lo: u64, div: u64) -> Option<(u64, u64)> {
    let d = w.sext(div) as i64 as i128;
    if d == 0 {
        return None;
    }
    let num: i128 = match w {
        Width::W64 => ((hi as i64 as i128) << 64) | lo as i128,
        Width::W32 => ((w.sext(hi) as i64 as i128) << 32) | (w.trunc(lo) as i128),
        Width::W8 => return None, // 8-bit divide unsupported in the subset
    };
    let q = num / d;
    let r = num % d;
    let fits = match w {
        Width::W64 => q >= i64::MIN as i128 && q <= i64::MAX as i128,
        _ => q >= i32::MIN as i128 && q <= i32::MAX as i128,
    };
    if !fits {
        return None;
    }
    Some((w.trunc(q as u64), w.trunc(r as u64)))
}

/// One lane of `addsd`/`subsd`/`mulsd`/`divsd` or of their packed forms;
/// `None` for `xorpd` and `unpcklpd`, which are not lane arithmetic.
#[inline]
pub fn sse_arith(op: SseOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        SseOp::Addsd | SseOp::Addpd => a + b,
        SseOp::Subsd | SseOp::Subpd => a - b,
        SseOp::Mulsd | SseOp::Mulpd => a * b,
        SseOp::Divsd | SseOp::Divpd => a / b,
        SseOp::Xorpd | SseOp::Unpcklpd => return None,
    })
}

/// Flag results of `ucomisd` per the ISA: unordered → ZF=PF=CF=1,
/// less → CF, equal → ZF, greater → none; OF/SF cleared.
#[inline]
pub fn ucomisd_flags(a: f64, b: f64) -> Flags {
    let (zf, pf, cf) = if a.is_nan() || b.is_nan() {
        (true, true, true)
    } else if a == b {
        (true, false, false)
    } else if a < b {
        (false, false, true)
    } else {
        (false, false, false)
    };
    Flags {
        cf,
        zf,
        sf: false,
        of: false,
        pf,
    }
}

/// Truncating double→int conversion with the ISA's out-of-range semantics
/// (returns the "integer indefinite" value, INT_MIN of the width).
#[inline]
pub fn cvttsd2si(f: f64, w: Width) -> u64 {
    match w {
        Width::W64 => {
            if f.is_nan() || !(-9.223372036854776e18..9.223372036854776e18).contains(&f) {
                i64::MIN as u64
            } else {
                (f as i64) as u64
            }
        }
        _ => {
            if f.is_nan() || !(-2147483648.0..2147483648.0).contains(&f) {
                (i32::MIN as u32) as u64
            } else {
                ((f as i32) as u32) as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;

    #[test]
    fn add_carry_and_overflow() {
        let (r, f) = alu(AluOp::Add, Width::W32, 0xFFFF_FFFF, 1);
        assert_eq!(r, 0);
        assert!(f.cf && f.zf && !f.of);

        let (r, f) = alu(AluOp::Add, Width::W32, 0x7FFF_FFFF, 1);
        assert_eq!(r, 0x8000_0000);
        assert!(!f.cf && f.of && f.sf);
    }

    #[test]
    fn sub_borrow_and_signed_compare() {
        let (_, f) = alu(AluOp::Cmp, Width::W64, 3, 5);
        assert!(f.cond(Cond::L) && f.cond(Cond::B) && !f.cond(Cond::E));
        let (_, f) = alu(AluOp::Cmp, Width::W64, 5, 5);
        assert!(f.cond(Cond::E) && f.cond(Cond::Le) && f.cond(Cond::Ge));
        // Signed comparison where unsigned disagrees.
        let (_, f) = alu(AluOp::Cmp, Width::W64, (-1i64) as u64, 1);
        assert!(f.cond(Cond::L) && f.cond(Cond::A));
    }

    #[test]
    fn logic_clears_cf_of() {
        let (r, f) = alu(AluOp::Xor, Width::W64, 0xFF, 0xFF);
        assert_eq!(r, 0);
        assert!(f.zf && !f.cf && !f.of);
    }

    #[test]
    fn imul_overflow_detection() {
        let (r, f) = imul(Width::W64, 1 << 40, 1 << 40);
        assert_eq!(r, 0);
        assert!(f.of && f.cf);
        let (r, f) = imul(Width::W64, 7, 6);
        assert_eq!(r, 42);
        assert!(!f.of);
        let (r, f) = imul(Width::W32, 0x10000, 0x10000);
        assert_eq!(r, 0);
        assert!(f.of);
    }

    #[test]
    fn inc_preserves_carry() {
        let prev = Flags {
            cf: true,
            ..Flags::default()
        };
        let (r, f) = unop(UnOp::Inc, Width::W64, 41, prev);
        assert_eq!(r, 42);
        assert!(f.cf, "inc must leave CF alone");
    }

    #[test]
    fn neg_sets_cf_for_nonzero() {
        let (r, f) = unop(UnOp::Neg, Width::W64, 5, Flags::default());
        assert_eq!(r as i64, -5);
        assert!(f.cf);
        let (_, f) = unop(UnOp::Neg, Width::W64, 0, Flags::default());
        assert!(!f.cf);
    }

    #[test]
    fn shifts() {
        let (r, f) = shift(ShOp::Shl, Width::W64, 1, 3, Flags::default());
        assert_eq!(r, 8);
        assert!(!f.cf);
        let (r, f) = shift(ShOp::Sar, Width::W64, (-16i64) as u64, 2, Flags::default());
        assert_eq!(r as i64, -4);
        assert!(!f.cf);
        let (r, f) = shift(ShOp::Shr, Width::W32, 0x8000_0001, 1, Flags::default());
        assert_eq!(r, 0x4000_0000);
        assert!(f.cf);
        // Masked-to-zero count leaves flags untouched.
        let prev = Flags {
            zf: true,
            ..Flags::default()
        };
        let (r, f) = shift(ShOp::Shl, Width::W64, 7, 64, prev);
        assert_eq!(r, 7);
        assert_eq!(f, prev);
    }

    #[test]
    fn idiv_cases() {
        assert_eq!(idiv(Width::W64, 0, 42, 5), Some((8, 2)));
        // -42 / 5 = -8 rem -2 (C semantics, truncation toward zero).
        let neg42 = (-42i64) as u64;
        assert_eq!(
            idiv(Width::W64, u64::MAX, neg42, 5),
            Some(((-8i64) as u64, (-2i64) as u64))
        );
        assert_eq!(idiv(Width::W64, 0, 1, 0), None);
        // i64::MIN / -1 overflows.
        assert_eq!(
            idiv(Width::W64, u64::MAX, i64::MIN as u64, (-1i64) as u64),
            None
        );
        assert_eq!(idiv(Width::W32, 0, 100, 7), Some((14, 2)));
    }

    #[test]
    fn parity_of_low_byte_only() {
        let (_, f) = alu(AluOp::Add, Width::W64, 0x300, 0x3); // low byte 0x03: two bits
        assert!(f.pf);
        let (_, f) = alu(AluOp::Add, Width::W64, 0, 0x7); // three bits
        assert!(!f.pf);
    }

    #[test]
    fn cvt_roundtrip_and_limits() {
        assert_eq!(cvttsd2si(3.9, Width::W64) as i64, 3);
        assert_eq!(cvttsd2si(-3.9, Width::W64) as i64, -3);
        assert_eq!(cvttsd2si(f64::NAN, Width::W64) as i64, i64::MIN);
        assert_eq!(cvttsd2si(1e30, Width::W32) as u32 as i32, i32::MIN);
    }

    #[test]
    fn ucomisd_flag_matrix() {
        let fl = ucomisd_flags(1.0, 2.0);
        assert!(fl.cf && !fl.zf && !fl.pf);
        let fl = ucomisd_flags(2.0, 2.0);
        assert!(!fl.cf && fl.zf && !fl.pf);
        let fl = ucomisd_flags(3.0, 2.0);
        assert!(!fl.cf && !fl.zf && !fl.pf);
        let fl = ucomisd_flags(f64::NAN, 2.0);
        assert!(fl.cf && fl.zf && fl.pf);
    }
}
