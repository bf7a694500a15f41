//! The tracer's abstract value domain.
//!
//! §III.B: *"For every variable value used during execution, we maintain a
//! flag for whether this value is assumed to be known or unknown."* We add a
//! third shape, [`Value::StackRel`], for addresses relative to the rewritten
//! function's entry RSP — that is what lets the rewriter track frames,
//! delete prologues/epilogues when inlining, and fold `[rbp+k]` operands
//! into `[rsp+k']` ones (frame-pointer omission as a by-product).

use brew_x86::alu::{self, AluOp, ShOp, UnOp};
use brew_x86::cond::Flags;
use brew_x86::reg::Width;

/// An abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Value only known at runtime.
    Unknown,
    /// Compile-time constant (full 64-bit pattern).
    Const(u64),
    /// `entry_RSP + offset` of the function being rewritten.
    StackRel(i64),
}

impl Value {
    /// The constant, if this is a [`Value::Const`].
    #[inline]
    pub fn const_val(self) -> Option<u64> {
        match self {
            Value::Const(v) => Some(v),
            _ => None,
        }
    }

    /// `true` unless the value is [`Value::Unknown`].
    #[inline]
    pub fn is_known(self) -> bool {
        !matches!(self, Value::Unknown)
    }

    /// Truncate/sign-behaviour for a 32-bit write: constants are
    /// zero-extended like the hardware; a 32-bit-truncated stack address is
    /// no longer a usable stack address, so it degrades to `Unknown`.
    pub fn as_w32_result(self) -> Value {
        match self {
            Value::Const(v) => Value::Const(v as u32 as u64),
            Value::StackRel(_) => Value::Unknown,
            Value::Unknown => Value::Unknown,
        }
    }
}

/// Abstract flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlagsVal {
    /// Flags are whatever the machine computes at runtime — the runtime
    /// flags are *meaningful* (produced by an emitted instruction).
    Unknown,
    /// All five tracked flags are known (their producer was elided; the
    /// architectural flags may hold unrelated garbage).
    Known(Flags),
    /// A flag-writing instruction was elided without its flags being
    /// computable: the architectural flags match *neither* the original
    /// program nor any tracked value. Reading them is a rewrite failure;
    /// block-enqueue normalizes this to `Unknown` + an untrusted edge.
    Stale,
}

impl FlagsVal {
    /// The flags, if known.
    #[inline]
    pub fn known(self) -> Option<Flags> {
        match self {
            FlagsVal::Known(f) => Some(f),
            FlagsVal::Unknown | FlagsVal::Stale => None,
        }
    }
}

/// Abstract two-operand ALU. Returns `(result, flags)`.
///
/// Stack-relative values support the closure properties the tracer needs:
/// `SR + C`, `C + SR`, `SR - C` stay stack-relative; `SR - SR` is a
/// constant; anything else involving `SR`, or any `Unknown`, degrades.
/// Flags are only known when both operands are constants (flag bits of
/// stack-relative arithmetic depend on the absolute stack address).
pub fn alu_value(op: AluOp, w: Width, a: Value, b: Value) -> (Value, FlagsVal) {
    use Value::*;
    match (a, b) {
        (Const(x), Const(y)) => {
            let (r, f) = alu::alu(op, w, x, y);
            let res = if op.writes_dst() {
                if w == Width::W32 {
                    Const(r as u32 as u64)
                } else {
                    Const(r)
                }
            } else {
                a // cmp leaves dst untouched
            };
            (res, FlagsVal::Known(f))
        }
        (StackRel(s), Const(c)) if w == Width::W64 => match op {
            AluOp::Add => (StackRel(s.wrapping_add(c as i64)), FlagsVal::Unknown),
            AluOp::Sub => (StackRel(s.wrapping_sub(c as i64)), FlagsVal::Unknown),
            AluOp::Cmp => (a, FlagsVal::Unknown),
            _ => (Unknown, FlagsVal::Unknown),
        },
        (Const(c), StackRel(s)) if w == Width::W64 && op == AluOp::Add => {
            (StackRel(s.wrapping_add(c as i64)), FlagsVal::Unknown)
        }
        (StackRel(x), StackRel(y)) if w == Width::W64 && op == AluOp::Sub => {
            (Const(x.wrapping_sub(y) as u64), FlagsVal::Unknown)
        }
        (StackRel(_), _) | (_, StackRel(_)) => {
            let res = if op.writes_dst() { Unknown } else { a };
            (res, FlagsVal::Unknown)
        }
        _ => {
            let res = if op.writes_dst() { Unknown } else { a };
            (res, FlagsVal::Unknown)
        }
    }
}

/// Abstract `test`.
pub fn test_value(w: Width, a: Value, b: Value) -> FlagsVal {
    match (a, b) {
        (Value::Const(x), Value::Const(y)) => FlagsVal::Known(alu::test(w, x, y)),
        _ => FlagsVal::Unknown,
    }
}

/// Abstract two-operand signed multiply. A known zero factor decides the
/// product and its flags whatever the other one is: `imul`'s flags depend
/// only on the result and on overflow, both those of `0 * 0`.
pub fn imul_value(w: Width, a: Value, b: Value) -> (Value, FlagsVal) {
    let zero = Value::Const(0);
    let (a, b) = if a == zero || b == zero {
        (zero, zero)
    } else {
        (a, b)
    };
    match (a, b) {
        (Value::Const(x), Value::Const(y)) => {
            let (r, f) = alu::imul(w, x, y);
            let r = if w == Width::W32 { r as u32 as u64 } else { r };
            (Value::Const(r), FlagsVal::Known(f))
        }
        _ => (Value::Unknown, FlagsVal::Unknown),
    }
}

/// Abstract unary op. `prev` participates for `inc`/`dec` CF preservation.
pub fn unop_value(op: UnOp, w: Width, v: Value, prev: FlagsVal) -> (Value, FlagsVal) {
    match v {
        Value::Const(x) => match (op, prev) {
            // inc/dec preserve CF: only known if previous flags are known.
            (UnOp::Inc | UnOp::Dec, FlagsVal::Known(pf)) => {
                let (r, f) = alu::unop(op, w, x, pf);
                (const_at(w, r), FlagsVal::Known(f))
            }
            (UnOp::Inc | UnOp::Dec, _) => {
                let (r, _) = alu::unop(op, w, x, Flags::default());
                (const_at(w, r), FlagsVal::Unknown)
            }
            (UnOp::Not, _) => {
                let (r, _) = alu::unop(op, w, x, Flags::default());
                (const_at(w, r), prev) // not leaves flags alone
            }
            (UnOp::Neg, _) => {
                let (r, f) = alu::unop(op, w, x, Flags::default());
                (const_at(w, r), FlagsVal::Known(f))
            }
        },
        // inc/dec of a 64-bit stack address stays an address.
        Value::StackRel(s) if w == Width::W64 && matches!(op, UnOp::Inc) => {
            (Value::StackRel(s + 1), FlagsVal::Unknown)
        }
        Value::StackRel(s) if w == Width::W64 && matches!(op, UnOp::Dec) => {
            (Value::StackRel(s - 1), FlagsVal::Unknown)
        }
        _ => {
            let fl = if matches!(op, UnOp::Not) {
                prev
            } else {
                FlagsVal::Unknown
            };
            (Value::Unknown, fl)
        }
    }
}

/// Abstract shift.
pub fn shift_value(
    op: ShOp,
    w: Width,
    v: Value,
    count: Value,
    prev: FlagsVal,
) -> (Value, FlagsVal) {
    match (v, count) {
        (Value::Const(x), Value::Const(c)) => {
            let pf = prev.known().unwrap_or_default();
            let (r, f) = alu::shift(op, w, x, c as u8, pf);
            let masked = (c as u8) & ((w.bits() - 1) as u8);
            if masked == 0 {
                // Flags unchanged; only known if they were known.
                (const_at(w, r), prev)
            } else {
                (const_at(w, r), FlagsVal::Known(f))
            }
        }
        _ => (Value::Unknown, FlagsVal::Unknown),
    }
}

#[inline]
fn const_at(w: Width, r: u64) -> Value {
    if w == Width::W32 {
        Value::Const(r as u32 as u64)
    } else {
        Value::Const(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brew_x86::cond::Cond;

    #[test]
    fn const_folding_matches_alu() {
        let (v, f) = alu_value(AluOp::Add, Width::W64, Value::Const(40), Value::Const(2));
        assert_eq!(v, Value::Const(42));
        assert!(!f.known().unwrap().zf);

        let (v, f) = alu_value(AluOp::Cmp, Width::W64, Value::Const(5), Value::Const(5));
        assert_eq!(v, Value::Const(5), "cmp must not change dst");
        assert!(f.known().unwrap().cond(Cond::E));
    }

    #[test]
    fn a_known_zero_factor_decides_the_product_and_its_flags() {
        let zero = Value::Const(0);
        let exact = imul_value(Width::W64, zero, zero);
        assert_eq!(exact.0, zero);
        assert!(exact.1.known().is_some());
        for w in [Width::W32, Width::W64] {
            for other in [Value::Unknown, Value::StackRel(-8), Value::Const(7)] {
                assert_eq!(imul_value(w, other, zero), imul_value(w, zero, zero));
                assert_eq!(imul_value(w, zero, other), imul_value(w, zero, zero));
            }
        }
    }

    #[test]
    fn stackrel_closure() {
        let sr = Value::StackRel(-8);
        let (v, f) = alu_value(AluOp::Sub, Width::W64, sr, Value::Const(16));
        assert_eq!(v, Value::StackRel(-24));
        assert_eq!(f, FlagsVal::Unknown, "flags of address math are unknown");

        let (v, _) = alu_value(AluOp::Add, Width::W64, Value::Const(8), sr);
        assert_eq!(v, Value::StackRel(0));

        let (v, _) = alu_value(
            AluOp::Sub,
            Width::W64,
            Value::StackRel(-8),
            Value::StackRel(-24),
        );
        assert_eq!(v, Value::Const(16));

        // Multiplying an address is meaningless.
        let (v, _) = imul_value(Width::W64, sr, Value::Const(2));
        assert_eq!(v, Value::Unknown);
    }

    #[test]
    fn w32_truncation() {
        let (v, _) = alu_value(
            AluOp::Add,
            Width::W32,
            Value::Const(0xFFFF_FFFF),
            Value::Const(1),
        );
        assert_eq!(v, Value::Const(0));
        assert_eq!(Value::StackRel(-8).as_w32_result(), Value::Unknown);
        // 32-bit op on a stack address degrades.
        let (v, _) = alu_value(AluOp::Add, Width::W32, Value::StackRel(-8), Value::Const(1));
        assert_eq!(v, Value::Unknown);
    }

    #[test]
    fn unknown_contaminates() {
        let (v, f) = alu_value(AluOp::Add, Width::W64, Value::Unknown, Value::Const(1));
        assert_eq!(v, Value::Unknown);
        assert_eq!(f, FlagsVal::Unknown);
        assert_eq!(
            test_value(Width::W64, Value::Unknown, Value::Const(0)),
            FlagsVal::Unknown
        );
    }

    #[test]
    fn inc_dec_cf_preservation() {
        // inc with unknown previous flags produces a known value but
        // unknown flags (CF would be inherited).
        let (v, f) = unop_value(UnOp::Inc, Width::W64, Value::Const(41), FlagsVal::Unknown);
        assert_eq!(v, Value::Const(42));
        assert_eq!(f, FlagsVal::Unknown);

        let known = FlagsVal::Known(Flags {
            cf: true,
            ..Flags::default()
        });
        let (_, f) = unop_value(UnOp::Inc, Width::W64, Value::Const(41), known);
        assert!(f.known().unwrap().cf);
    }

    #[test]
    fn shifts_and_not() {
        let (v, _) = shift_value(
            ShOp::Shl,
            Width::W64,
            Value::Const(3),
            Value::Const(4),
            FlagsVal::Unknown,
        );
        assert_eq!(v, Value::Const(48));
        // `not` preserves flags.
        let prev = FlagsVal::Known(Flags {
            zf: true,
            ..Flags::default()
        });
        let (v, f) = unop_value(UnOp::Not, Width::W64, Value::Const(0), prev);
        assert_eq!(v, Value::Const(u64::MAX));
        assert_eq!(f, prev);
    }
}
