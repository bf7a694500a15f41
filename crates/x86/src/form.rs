//! The instruction-form table: every encoding of the subset, one row each,
//! and the one decoder and one encoder that read it.
//!
//! A row names the legacy prefix, the opcode (`0x0F..` for the two-byte
//! map), what ModRM.reg holds (a register class, a `/digit`, or a `+r`/`+cc`
//! in the opcode's low bits), what ModRM.rm holds, the REX.W rule, the
//! immediate, and whether the encoder may choose the row (canonical, `C`) or
//! only the decoder reads it (an alternate, `ALT`). It then states its
//! [`Inst`] shape once, over a fixed vocabulary of operand names:
//!
//! | name | slot | type |
//! |------|------|------|
//! | `w` | REX.W | [`Width`] |
//! | `r` / `rg` / `rx` | ModRM.reg or the `+r` register | [`Operand`] / [`Gpr`] / [`Xmm`] |
//! | `m` / `mm` | ModRM.rm | [`Operand`] / [`MemRef`] |
//! | `i` / `k` / `n` / `q` | immediate | `i64` / `i32` / `u8` / `u64` |
//! | `t` | rel8/rel32 branch target, absolute | `u64` |
//! | `cc` | the `+cc` condition | [`Cond`] |
//!
//! `forms!` expands each shape twice: as the constructor the decoder runs on
//! the operands a row read, and as the pattern the encoder matches an `Inst`
//! against, in row order, taking the first canonical row whose operand
//! classes and immediate range fit. Both expansions read their row as a
//! constant, so each compiles to what a hand-written arm for that opcode
//! would be; the decoder finds its row in one [`DISPATCH`] lookup, built
//! from the rows at compile time.
//!
//! REX rules, for both directions: a byte-register class (`Rg8`, `Mg8`)
//! names SPL/BPL/SIL/DIL only under a REX prefix, so the decoder refuses
//! registers 4–7 there without one and the encoder emits a bare `40` for
//! them; otherwise REX is emitted only when one of its bits is set. `+r`
//! takes REX.B; `90` is `xchg eax, r32`, whose only register in the subset
//! is rax (`nop`), so REX.B there is refused.

use crate::alu::{AluOp, ShOp, UnOp};
use crate::cond::Cond;
use crate::decode::{DecodeError, Decoded};
use crate::encode::EncodeError;
use crate::inst::{Inst, ShiftCount, SseOp};
use crate::operand::{MemRef, Operand};
use crate::reg::{Gpr, Width, Xmm};
use Imm::*;
use Pfx::*;
use Reg::*;
use RexW::*;
use Rm::*;

const ESC: u16 = 0x0F;
const REX: u8 = 0x40;
const P66: u8 = 0x66;
const PF2: u8 = 0xF2;
const PF3: u8 = 0xF3;

/// The legacy prefix a row requires (`66` packed, `F2` scalar double).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pfx {
    Np,
    X66,
    Xf2,
}

/// What ModRM.reg holds, or the register or condition in the opcode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reg {
    /// Nothing.
    Rn,
    /// An opcode extension `/digit`.
    D(u8),
    /// A general register, a byte register, an SSE register.
    Rg,
    Rg8,
    Rx,
    /// `+r`: a general register in the opcode's low bits and REX.B.
    Op,
    /// `+r` restricted to rax.
    Op0,
    /// `+cc`: a condition in the opcode's low bits (ModRM.reg, if any, is
    /// ignored on decode and zero on encode).
    Cc,
}

/// What ModRM.rm holds; `Mn` means the row has no ModRM byte.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Rm {
    Mn,
    /// A general, byte or SSE register, or memory.
    Mg,
    Mg8,
    Mx,
    /// Memory only.
    Mm,
}

/// REX.W: selects the width (`Wv`), is required (`W1`) or must be clear
/// (`W0`), or is ignored on decode and clear on encode (`Wi`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RexW {
    Wv,
    W0,
    W1,
    Wi,
}

/// The bytes after ModRM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Imm {
    In,
    /// A sign-extended imm8.
    Ib,
    /// An imm8 read sign-extended; the encoder takes -128..=255.
    Byte,
    /// A zero-extended imm8.
    Ub,
    /// A sign-extended imm32, a zero-extended one, an imm64.
    Id,
    Ud,
    Iq,
    /// A branch displacement, resolved to an absolute target.
    Rel8,
    Rel32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Use {
    Canon,
    Alt,
    /// Recognized and refused as outside the subset.
    Refused,
}

const C: Use = Use::Canon;
const ALT: Use = Use::Alt;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Row {
    usage: Use,
    pfx: Pfx,
    op: u16,
    reg: Reg,
    rm: Rm,
    w: RexW,
    imm: Imm,
}

impl Row {
    const fn new(usage: Use, pfx: Pfx, op: u16, reg: Reg, rm: Rm, w: RexW, imm: Imm) -> Row {
        Row {
            usage,
            pfx,
            op,
            reg,
            rm,
            w,
            imm,
        }
    }

    /// How many opcodes the row covers from `op` on.
    const fn span(&self) -> usize {
        match self.reg {
            Op => 8,
            Cc => 16,
            _ => 1,
        }
    }
}

/// The operands a row reads or writes, one per vocabulary slot.
#[derive(Clone, Copy)]
struct Ops {
    w: Width,
    r: Operand,
    m: Operand,
    i: i64,
    t: u64,
    cc: Cond,
}

impl Ops {
    fn gpr(&self) -> Gpr {
        self.r.gpr().unwrap_or(Gpr::Rax)
    }
    fn xmm(&self) -> Xmm {
        self.r.xmm().unwrap_or(Xmm::Xmm0)
    }
    fn mem(&self) -> MemRef {
        self.m.mem().unwrap_or(MemRef::abs(0))
    }
}

/// A vocabulary name an encoder pattern did not bind.
#[derive(Clone, Copy)]
struct Unset;

trait Slot<T> {
    fn slot(self) -> Option<T>;
}

impl<T> Slot<T> for Unset {
    fn slot(self) -> Option<T> {
        None
    }
}

macro_rules! slot {
    ($($from:ty => $to:ty: |$v:ident| $e:expr;)*) => {$(
        impl Slot<$to> for $from {
            fn slot(self) -> Option<$to> {
                let $v = self;
                Some($e)
            }
        }
    )*};
}

slot! {
    Width => Width: |v| v;
    Operand => Operand: |v| v;
    Gpr => Operand: |v| Operand::Reg(v);
    Xmm => Operand: |v| Operand::Xmm(v);
    MemRef => Operand: |v| Operand::Mem(v);
    i64 => i64: |v| v;
    i32 => i64: |v| v as i64;
    u8 => i64: |v| v as i64;
    u64 => i64: |v| v as i64;
    u64 => u64: |v| v;
    Cond => Cond: |v| v;
}

fn s<T>(v: impl Slot<T>) -> Option<T> {
    v.slot()
}

/// The slots an encoder pattern bound.
struct Slots {
    w: Option<Width>,
    r: Option<Operand>,
    m: Option<Operand>,
    i: Option<i64>,
    t: Option<u64>,
    cc: Option<Cond>,
}

macro_rules! forms {
    (
        vocabulary($w:ident, $r:ident, $rg:ident, $rx:ident, $m:ident, $mm:ident,
            $i:ident, $k:ident, $n:ident, $q:ident, $t:ident, $cc:ident);
        $([$($row:expr),*] $shape:ident $body:tt;)*
        refused: $([$($refused:expr),*];)*
    ) => {
        /// Every row: the encoder's rows in the order it tries them, then
        /// the refused forms.
        const ROWS: &[Row] = &[
            $(Row::new($($row),*),)*
            $(Row::new(Use::Refused, $($refused),*),)*
        ];

        /// Reads the operands of row `row` and builds its instruction. Each
        /// arm reads through its own constant row, so it compiles to the
        /// code a hand-written arm for that opcode would be.
        #[allow(unused_variables, unused_assignments, clippy::unnecessary_cast)]
        #[inline(always)]
        fn build(row: usize, c: &mut Cursor, rex: u8, byte: u8) -> Result<Decoded, DecodeError> {
            let mut at = 0;
            $(
                if row == at {
                    let o = c.read(const { Row::new($($row),*) }, rex, byte)?;
                    let Ops { w: $w, r: $r, m: $m, i: $i, t: $t, cc: $cc } = o;
                    let ($rg, $rx, $mm) = (o.gpr(), o.xmm(), o.mem());
                    let ($k, $n, $q) = ($i as i32, $i as u8, $i as u64);
                    let inst = Inst::$shape $body;
                    return Ok(Decoded { inst, len: c.pos });
                }
                at += 1;
            )*
            $(
                if row == at {
                    c.read(const { Row::new(Use::Refused, $($refused),*) }, rex, byte)?;
                    return Err(c.unsupported("movups/movss"));
                }
                at += 1;
            )*
            Err(c.unsupported("no row"))
        }

        /// Writes `inst` through the first canonical row that takes it.
        fn choose(inst: &Inst, addr: u64, out: &mut impl Sink) -> Result<Row, EncodeError> {
            let ($w, $r, $rg, $rx, $m, $mm, $i, $k, $n, $q, $t, $cc) = (
                Unset, Unset, Unset, Unset, Unset, Unset, Unset, Unset, Unset, Unset, Unset, Unset,
            );
            let mut pick = Pick::default();
            match *inst {
                $(Inst::$shape $body if pick.fit(
                    const { Row::new($($row),*) },
                    Slots {
                        w: s($w),
                        r: s($r).or(s($rg)).or(s($rx)),
                        m: s($m).or(s($mm)),
                        i: s($i).or(s($k)).or(s($n)).or(s($q)),
                        t: s($t),
                        cc: s($cc),
                    },
                    addr,
                    out,
                ) => {})*
                _ => {}
            }
            pick.done()
        }
    };
}

forms! {
    vocabulary(w, r, rg, rx, m, mm, i, k, n, q, t, cc);

    [C, Np, 0xC6, D(0), Mg8, Wi, Byte] Mov { w: Width::W8, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x8A, Rg8, Mg8, Wi, In] Mov { w: Width::W8, dst: r, src: m };
    [C, Np, 0x88, Rg8, Mg8, Wi, In] Mov { w: Width::W8, dst: m, src: r };
    [C, Np, 0xC7, D(0), Mg, Wv, Id] Mov { w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x8B, Rg, Mg, Wv, In] Mov { w, dst: r, src: m };
    [C, Np, 0x89, Rg, Mg, Wv, In] Mov { w, dst: m, src: r };
    [ALT, Np, 0xB8, Op, Mn, W0, Ud] Mov { w: Width::W32, dst: r, src: Operand::Imm(i) };
    [C, Np, 0xB8, Op, Mn, W1, Iq] MovAbs { dst: rg, imm: q };
    [C, Np, 0x63, Rg, Mg, W1, In] Movsxd { dst: rg, src: m };
    [C, Np, 0x0FB6, Rg, Mg8, Wv, In] Movzx8 { w, dst: rg, src: m };
    [C, Np, 0x8D, Rg, Mm, W1, In] Lea { dst: rg, src: mm };

    [C, Np, 0x83, D(0), Mg, Wv, Ib] Alu { op: AluOp::Add, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x83, D(1), Mg, Wv, Ib] Alu { op: AluOp::Or, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x83, D(4), Mg, Wv, Ib] Alu { op: AluOp::And, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x83, D(5), Mg, Wv, Ib] Alu { op: AluOp::Sub, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x83, D(6), Mg, Wv, Ib] Alu { op: AluOp::Xor, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x83, D(7), Mg, Wv, Ib] Alu { op: AluOp::Cmp, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x81, D(0), Mg, Wv, Id] Alu { op: AluOp::Add, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x81, D(1), Mg, Wv, Id] Alu { op: AluOp::Or, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x81, D(4), Mg, Wv, Id] Alu { op: AluOp::And, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x81, D(5), Mg, Wv, Id] Alu { op: AluOp::Sub, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x81, D(6), Mg, Wv, Id] Alu { op: AluOp::Xor, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x81, D(7), Mg, Wv, Id] Alu { op: AluOp::Cmp, w, dst: m, src: Operand::Imm(i) };
    [C, Np, 0x03, Rg, Mg, Wv, In] Alu { op: AluOp::Add, w, dst: r, src: m };
    [C, Np, 0x0B, Rg, Mg, Wv, In] Alu { op: AluOp::Or, w, dst: r, src: m };
    [C, Np, 0x23, Rg, Mg, Wv, In] Alu { op: AluOp::And, w, dst: r, src: m };
    [C, Np, 0x2B, Rg, Mg, Wv, In] Alu { op: AluOp::Sub, w, dst: r, src: m };
    [C, Np, 0x33, Rg, Mg, Wv, In] Alu { op: AluOp::Xor, w, dst: r, src: m };
    [C, Np, 0x3B, Rg, Mg, Wv, In] Alu { op: AluOp::Cmp, w, dst: r, src: m };
    [C, Np, 0x01, Rg, Mg, Wv, In] Alu { op: AluOp::Add, w, dst: m, src: r };
    [C, Np, 0x09, Rg, Mg, Wv, In] Alu { op: AluOp::Or, w, dst: m, src: r };
    [C, Np, 0x21, Rg, Mg, Wv, In] Alu { op: AluOp::And, w, dst: m, src: r };
    [C, Np, 0x29, Rg, Mg, Wv, In] Alu { op: AluOp::Sub, w, dst: m, src: r };
    [C, Np, 0x31, Rg, Mg, Wv, In] Alu { op: AluOp::Xor, w, dst: m, src: r };
    [C, Np, 0x39, Rg, Mg, Wv, In] Alu { op: AluOp::Cmp, w, dst: m, src: r };

    [C, Np, 0x85, Rg, Mg, Wv, In] Test { w, a: m, b: r };
    [C, Np, 0xF7, D(0), Mg, Wv, Id] Test { w, a: m, b: Operand::Imm(i) };
    [C, Np, 0x0FAF, Rg, Mg, Wv, In] Imul { w, dst: rg, src: m };
    [C, Np, 0x6B, Rg, Mg, Wv, Ib] ImulImm { w, dst: rg, src: m, imm: k };
    [C, Np, 0x69, Rg, Mg, Wv, Id] ImulImm { w, dst: rg, src: m, imm: k };
    [C, Np, 0xF7, D(2), Mg, Wv, In] Unary { op: UnOp::Not, w, dst: m };
    [C, Np, 0xF7, D(3), Mg, Wv, In] Unary { op: UnOp::Neg, w, dst: m };
    [C, Np, 0xFF, D(0), Mg, Wv, In] Unary { op: UnOp::Inc, w, dst: m };
    [C, Np, 0xFF, D(1), Mg, Wv, In] Unary { op: UnOp::Dec, w, dst: m };
    [C, Np, 0xC1, D(4), Mg, Wv, Ub] Shift { op: ShOp::Shl, w, dst: m, count: ShiftCount::Imm(n) };
    [C, Np, 0xC1, D(5), Mg, Wv, Ub] Shift { op: ShOp::Shr, w, dst: m, count: ShiftCount::Imm(n) };
    [C, Np, 0xC1, D(7), Mg, Wv, Ub] Shift { op: ShOp::Sar, w, dst: m, count: ShiftCount::Imm(n) };
    [ALT, Np, 0xD1, D(4), Mg, Wv, In] Shift { op: ShOp::Shl, w, dst: m, count: ShiftCount::Imm(1) };
    [ALT, Np, 0xD1, D(5), Mg, Wv, In] Shift { op: ShOp::Shr, w, dst: m, count: ShiftCount::Imm(1) };
    [ALT, Np, 0xD1, D(7), Mg, Wv, In] Shift { op: ShOp::Sar, w, dst: m, count: ShiftCount::Imm(1) };
    [C, Np, 0xD3, D(4), Mg, Wv, In] Shift { op: ShOp::Shl, w, dst: m, count: ShiftCount::Cl };
    [C, Np, 0xD3, D(5), Mg, Wv, In] Shift { op: ShOp::Shr, w, dst: m, count: ShiftCount::Cl };
    [C, Np, 0xD3, D(7), Mg, Wv, In] Shift { op: ShOp::Sar, w, dst: m, count: ShiftCount::Cl };
    [C, Np, 0x99, Rn, Mn, Wv, In] Cqo { w };
    [C, Np, 0xF7, D(7), Mg, Wv, In] Idiv { w, src: m };

    [C, Np, 0x50, Op, Mn, Wi, In] Push { src: r };
    [C, Np, 0x68, Rn, Mn, Wi, Id] Push { src: Operand::Imm(i) };
    [C, Np, 0xFF, D(6), Mg, Wi, In] Push { src: m };
    [C, Np, 0x58, Op, Mn, Wi, In] Pop { dst: r };
    [C, Np, 0x8F, D(0), Mg, Wi, In] Pop { dst: m };
    [C, Np, 0xE8, Rn, Mn, Wi, Rel32] CallRel { target: t };
    [C, Np, 0xFF, D(2), Mg, Wi, In] CallInd { src: m };
    [C, Np, 0xC3, Rn, Mn, Wi, In] Ret {};
    [C, Np, 0xE9, Rn, Mn, Wi, Rel32] JmpRel { target: t };
    [ALT, Np, 0xEB, Rn, Mn, Wi, Rel8] JmpRel { target: t };
    [C, Np, 0xFF, D(4), Mg, Wi, In] JmpInd { src: m };
    [C, Np, 0x0F80, Cc, Mn, Wi, Rel32] Jcc { cond: cc, target: t };
    [ALT, Np, 0x70, Cc, Mn, Wi, Rel8] Jcc { cond: cc, target: t };
    [C, Np, 0x0F90, Cc, Mg8, Wi, In] Setcc { cond: cc, dst: m };

    [C, Xf2, 0x0F10, Rx, Mx, Wi, In] MovSd { dst: r, src: m };
    [C, Xf2, 0x0F11, Rx, Mx, Wi, In] MovSd { dst: m, src: r };
    [C, X66, 0x0F10, Rx, Mx, Wi, In] MovUpd { dst: r, src: m };
    [C, X66, 0x0F11, Rx, Mx, Wi, In] MovUpd { dst: m, src: r };
    [C, Xf2, 0x0F58, Rx, Mx, Wi, In] Sse { op: SseOp::Addsd, dst: rx, src: m };
    [C, Xf2, 0x0F59, Rx, Mx, Wi, In] Sse { op: SseOp::Mulsd, dst: rx, src: m };
    [C, Xf2, 0x0F5C, Rx, Mx, Wi, In] Sse { op: SseOp::Subsd, dst: rx, src: m };
    [C, Xf2, 0x0F5E, Rx, Mx, Wi, In] Sse { op: SseOp::Divsd, dst: rx, src: m };
    [C, X66, 0x0F58, Rx, Mx, Wi, In] Sse { op: SseOp::Addpd, dst: rx, src: m };
    [C, X66, 0x0F59, Rx, Mx, Wi, In] Sse { op: SseOp::Mulpd, dst: rx, src: m };
    [C, X66, 0x0F5C, Rx, Mx, Wi, In] Sse { op: SseOp::Subpd, dst: rx, src: m };
    [C, X66, 0x0F5E, Rx, Mx, Wi, In] Sse { op: SseOp::Divpd, dst: rx, src: m };
    [C, X66, 0x0F57, Rx, Mx, Wi, In] Sse { op: SseOp::Xorpd, dst: rx, src: m };
    [C, X66, 0x0F14, Rx, Mx, Wi, In] Sse { op: SseOp::Unpcklpd, dst: rx, src: m };
    [C, X66, 0x0F2E, Rx, Mx, Wi, In] Ucomisd { a: rx, b: m };
    [C, Xf2, 0x0F2A, Rx, Mg, Wv, In] Cvtsi2sd { w, dst: rx, src: m };
    [C, Xf2, 0x0F2C, Rg, Mx, Wv, In] Cvttsd2si { w, dst: rg, src: m };
    [C, Np, 0x90, Op0, Mn, Wi, In] Nop {};
    [C, Np, 0x0F0B, Rn, Mn, Wi, In] Ud2 {};

    refused:
    // movups/movss: the unprefixed and F3 forms of the scalar/packed moves.
    [Np, 0x0F10, Rx, Mx, Wi, In];
    [Np, 0x0F11, Rx, Mx, Wi, In];
}

/// [`DISPATCH`] cells that name no row: why the bytes are refused.
const UNKNOWN: u8 = u8::MAX;
const PREFIXED: u8 = u8::MAX - 1;
const REX_W: u8 = u8::MAX - 2;
const DIGIT: u8 = u8::MAX - 3;

/// A row beats a refused ModRM.reg, which beats a refused REX.W.
const fn rank(cell: u8) -> u8 {
    match cell {
        UNKNOWN => 0,
        REX_W => 1,
        DIGIT => 2,
        _ => 3,
    }
}

/// The row of each (prefix, map, opcode, REX.W, ModRM.reg), or why there is
/// none. Rows for an opcode without ModRM fill all eight ModRM.reg cells.
static DISPATCH: [[[[[u8; 8]; 2]; 256]; 2]; 3] = {
    let mut d = [[[[[UNKNOWN; 8]; 2]; 256]; 2]; 3];
    let mut r = ROWS.len();
    // Backwards, so that the first row of a cell wins.
    while r > 0 {
        r -= 1;
        let row = &ROWS[r];
        let (map, mut k) = ((row.op >> 8 != 0) as usize, 0);
        while k < row.span() {
            let op = row.op as u8 as usize + k;
            let mut w = 0;
            while w < 2 {
                let admits = match row.w {
                    W0 => w == 0,
                    W1 => w == 1,
                    Wv | Wi => true,
                };
                let mut g = 0;
                while g < 8 {
                    let digit_ok = match row.reg {
                        D(x) => x as usize == g,
                        _ => true,
                    };
                    // A cell the row does not take still knows the opcode:
                    // the row refuses its REX.W or its ModRM.reg.
                    let cell = &mut d[row.pfx as usize][map][op][w][g];
                    let new = match (admits, digit_ok) {
                        (true, true) => r as u8,
                        (true, false) => DIGIT,
                        _ => REX_W,
                    };
                    if rank(new) >= rank(*cell) {
                        *cell = new;
                    }
                    g += 1;
                }
                w += 1;
            }
            k += 1;
        }
    }
    // An opcode that has an unprefixed row and none under this prefix.
    let mut p = 1;
    while p < 3 {
        let mut map = 0;
        while map < 2 {
            let mut op = 0;
            while op < 256 {
                if d[p][map][op][0][0] == UNKNOWN && d[0][map][op][0][0] != UNKNOWN {
                    d[p][map][op] = [[PREFIXED; 8]; 2];
                }
                op += 1;
            }
            map += 1;
        }
        p += 1;
    }
    d
};

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    addr: u64,
}

impl Cursor<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let s = self
            .bytes
            .get(self.pos..self.pos + N)
            .ok_or(DecodeError::Truncated)?;
        let mut a = [0; N];
        a.copy_from_slice(s);
        self.pos += N;
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>()?[0])
    }

    fn unsupported(&self, what: &'static str) -> DecodeError {
        DecodeError::UnsupportedForm {
            at: self.addr,
            what,
        }
    }

    /// Reads the row's immediate; a branch displacement resolves against
    /// the end of the instruction.
    #[inline(always)]
    fn imm(&mut self, kind: Imm) -> Result<(i64, u64), DecodeError> {
        let v = match kind {
            In => 0,
            Ib | Byte | Rel8 => self.u8()? as i8 as i64,
            Ub => self.u8()? as i64,
            Id | Rel32 => i32::from_le_bytes(self.take()?) as i64,
            Ud => u32::from_le_bytes(self.take()?) as i64,
            Iq => i64::from_le_bytes(self.take()?),
        };
        let end = self.addr.wrapping_add(self.pos as u64);
        Ok((v, end.wrapping_add(v as u64)))
    }

    /// Reads the operands `row` names. `byte` is the last opcode byte.
    #[inline(always)]
    fn read(&mut self, row: Row, rex: u8, byte: u8) -> Result<Ops, DecodeError> {
        if row.reg == Op0 && rex & 1 != 0 {
            return Err(self.unsupported("xchg with r8"));
        }
        // What `+r`/`+cc` added to the opcode.
        let low = byte.wrapping_sub(row.op as u8);
        let (reg, rm) = match row.rm {
            Mn => (low | (rex & 1) << 3, RmVal::None),
            _ => self.modrm(rex)?,
        };
        if row.rm == Mm && !matches!(rm, RmVal::Mem(_)) {
            return Err(self.unsupported("register where the form takes memory"));
        }
        let high_byte = |n: u8| rex == 0 && (4..8).contains(&n);
        if (row.reg == Rg8 && high_byte(reg))
            || (row.rm == Mg8 && matches!(rm, RmVal::Reg(n) if high_byte(n)))
        {
            return Err(self.unsupported("legacy high-byte register"));
        }
        let (i, t) = self.imm(row.imm)?;
        Ok(Ops {
            w: if rex & 8 != 0 { Width::W64 } else { Width::W32 },
            r: match row.reg {
                Rx => Operand::Xmm(Xmm::from_number(reg)),
                Rg | Rg8 | Op | Op0 => Operand::Reg(Gpr::from_number(reg)),
                _ => Operand::Imm(0),
            },
            m: match rm {
                RmVal::Reg(n) if row.rm == Mx => Operand::Xmm(Xmm::from_number(n)),
                RmVal::Reg(n) => Operand::Reg(Gpr::from_number(n)),
                RmVal::Mem(m) => Operand::Mem(m),
                RmVal::None => Operand::Imm(0),
            },
            i,
            t,
            cc: Cond::from_code(low & 15),
        })
    }

    /// ModRM, SIB and displacement: ModRM.reg (with REX.R) and the r/m side.
    fn modrm(&mut self, rex: u8) -> Result<(u8, RmVal), DecodeError> {
        let byte = self.u8()?;
        let (md, rm) = (byte >> 6, byte & 7);
        let reg = (byte >> 3) & 7 | (rex & 4) << 1;
        let rex_b = (rex & 1) << 3;
        if md == 3 {
            return Ok((reg, RmVal::Reg(rm | rex_b)));
        }
        let (mut base, mut index) = (None, None);
        let mut disp32 = md == 2;
        if rm == 4 {
            let sib = self.u8()?;
            let idx = (sib >> 3) & 7 | (rex & 2) << 2;
            // Index 100 without REX.X means none; r12 can index.
            if idx != 4 {
                index = Some((Gpr::from_number(idx), 1 << (sib >> 6)));
            }
            if md == 0 && sib & 7 == 5 {
                disp32 = true;
            } else {
                base = Some(Gpr::from_number(sib & 7 | rex_b));
            }
        } else if md == 0 && rm == 5 {
            return Err(self.unsupported("rip-relative addressing"));
        } else {
            base = Some(Gpr::from_number(rm | rex_b));
        }
        let disp = if disp32 {
            i32::from_le_bytes(self.take()?)
        } else if md == 1 {
            self.u8()? as i8 as i32
        } else {
            0
        };
        Ok((reg, RmVal::Mem(MemRef { base, index, disp })))
    }
}

/// The r/m side of ModRM.
#[derive(Clone, Copy)]
enum RmVal {
    None,
    Reg(u8),
    Mem(MemRef),
}

/// Decodes one instruction.
pub(crate) fn decode(bytes: &[u8], addr: u64) -> Result<Decoded, DecodeError> {
    let mut c = Cursor {
        bytes,
        pos: 0,
        addr,
    };
    let (row, rex, byte) = lookup(&mut c)?;
    // The result is built in place: moving a fresh `Decoded` through one
    // more return costs a store-forwarding stall per instruction.
    build(row, &mut c, rex, byte)
}

/// Reads prefixes, REX and the opcode: the row, REX and last opcode byte.
#[inline(always)]
fn lookup(c: &mut Cursor) -> Result<(usize, u8, u8), DecodeError> {
    let (mut p66, mut pf2) = (false, false);
    loop {
        match c.bytes.get(c.pos) {
            Some(&P66) => p66 = true,
            Some(&PF2) => pf2 = true,
            Some(&PF3) => return Err(c.unsupported("F3-prefixed instruction")),
            _ => break,
        }
        c.pos += 1;
    }
    let pfx = match (p66, pf2) {
        (false, false) => Np,
        (true, false) => X66,
        (false, true) => Xf2,
        (true, true) => return Err(c.unsupported("conflicting 66 and F2 prefixes")),
    };
    let rex = match c.bytes.get(c.pos) {
        Some(&b) if b & 0xF0 == REX => {
            c.pos += 1;
            b
        }
        _ => 0,
    };
    let mut byte = c.u8()?;
    let esc = byte as u16 == ESC;
    // 66/F2 change the operand size or the meaning of anything but the SSE
    // opcodes of the 0F map: decoding the unprefixed form would misread it.
    if pfx != Np && !esc {
        return Err(c.unsupported("legacy prefix outside the SSE subset"));
    }
    if esc {
        byte = c.u8()?;
    }
    let digit = c.bytes.get(c.pos).map_or(0, |m| m >> 3 & 7);
    let row = DISPATCH[pfx as usize][esc as usize][byte as usize][(rex >> 3 & 1) as usize]
        [digit as usize];
    match row {
        UNKNOWN => return Err(DecodeError::UnknownOpcode { at: c.addr, byte }),
        PREFIXED => return Err(c.unsupported("legacy prefix outside the SSE subset")),
        REX_W => return Err(c.unsupported("REX.W outside the subset")),
        DIGIT => {
            c.modrm(rex)?;
            return Err(c.unsupported("opcode extension outside the subset"));
        }
        _ => {}
    }
    Ok((row as usize, rex, byte))
}

/// Where encoded bytes go: the caller's vector, or a count of them.
pub(crate) trait Sink {
    fn put<const N: usize>(&mut self, bytes: [u8; N]);
    fn len(&self) -> usize;
}

impl Sink for Vec<u8> {
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        self.extend_from_slice(&bytes);
    }
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

impl Sink for usize {
    fn put<const N: usize>(&mut self, _: [u8; N]) {
        *self += N;
    }
    fn len(&self) -> usize {
        *self
    }
}

/// The encoder's search: the row it took, or why none fit.
#[derive(Default)]
struct Pick {
    done: Option<Result<Row, EncodeError>>,
    imm: Option<i64>,
}

impl Pick {
    /// Encodes with `row` if it is canonical and takes the operands.
    #[inline(always)]
    fn fit(&mut self, row: Row, s: Slots, addr: u64, out: &mut impl Sink) -> bool {
        if row.usage != C {
            return false;
        }
        let rex_w = match (row.w, s.w) {
            (Wv, Some(Width::W64)) | (W1, _) => true,
            (Wv, Some(Width::W32)) | (W0 | Wi, _) => false,
            (Wv, _) => return false,
        };
        let reg = match (row.reg, s.r) {
            (Rn | Cc | Op0, None) => 0,
            (D(d), None) => d,
            (Rg | Rg8 | Op, Some(Operand::Reg(g))) => g.number(),
            (Rx, Some(Operand::Xmm(x))) => x.number(),
            _ => return false,
        };
        let rm = match (row.rm, s.m) {
            (Mn, None) => RmVal::None,
            (Mg | Mg8, Some(Operand::Reg(g))) => RmVal::Reg(g.number()),
            (Mx, Some(Operand::Xmm(x))) => RmVal::Reg(x.number()),
            (Mg | Mg8 | Mx | Mm, Some(Operand::Mem(m))) => RmVal::Mem(m),
            _ => return false,
        };
        let v = s.i.unwrap_or(0);
        let fits = match row.imm {
            Ib => i8::try_from(v).is_ok(),
            Byte => (-128..=255).contains(&v),
            Ub => u8::try_from(v).is_ok(),
            Id => i32::try_from(v).is_ok(),
            Ud => u32::try_from(v).is_ok(),
            In | Iq | Rel8 | Rel32 => true,
        };
        if !fits {
            self.imm.get_or_insert(v);
            return false;
        }
        self.done = Some(write(row, rex_w, reg, rm, &s, addr, out).map(|()| row));
        true
    }

    fn done(self) -> Result<Row, EncodeError> {
        self.done.unwrap_or(Err(match self.imm {
            Some(v) => EncodeError::ImmTooLarge(v),
            None => EncodeError::BadOperands("no form of the subset takes these operands"),
        }))
    }
}

/// Prefix, REX, opcode, ModRM + SIB + displacement, immediate.
#[inline(always)]
fn write(
    row: Row,
    rex_w: bool,
    reg: u8,
    rm: RmVal,
    s: &Slots,
    addr: u64,
    out: &mut impl Sink,
) -> Result<(), EncodeError> {
    let (x, base) = match rm {
        RmVal::Mem(m) => {
            if m.index.is_some_and(|(g, _)| g == Gpr::Rsp) {
                return Err(EncodeError::RspIndex);
            }
            let hi = |g: Option<Gpr>| g.map_or(0, |g| g.number() >> 3);
            (hi(m.index.map(|(g, _)| g)), hi(m.base))
        }
        RmVal::Reg(n) => (0, n >> 3),
        RmVal::None => (0, 0),
    };
    let start = out.len();
    match row.pfx {
        X66 => out.put([P66]),
        Xf2 => out.put([PF2]),
        Np => {}
    }
    let plus = matches!(row.reg, Op | Op0);
    let (r, base) = if plus {
        (0, reg >> 3)
    } else {
        (reg >> 3, base)
    };
    let byte_reg = |n: u8| (4..8).contains(&n);
    let force = (row.reg == Rg8 && byte_reg(reg))
        || (row.rm == Mg8 && matches!(rm, RmVal::Reg(n) if byte_reg(n)));
    let rex = REX | (rex_w as u8) << 3 | r << 2 | x << 1 | base;
    if rex != REX || force {
        out.put([rex]);
    }
    if row.op >> 8 != 0 {
        out.put([ESC as u8]);
    }
    let low = match row.reg {
        Op | Op0 => reg & 7,
        Cc => s.cc.map_or(0, Cond::code),
        _ => 0,
    };
    out.put([row.op as u8 + low]);
    match rm {
        RmVal::Reg(n) => out.put([0xC0 | (reg & 7) << 3 | n & 7]),
        RmVal::Mem(m) => mem(out, reg & 7, &m)?,
        RmVal::None => {}
    }
    let v = s.i.unwrap_or(0);
    match row.imm {
        In => {}
        Ib | Byte | Ub => out.put([v as u8]),
        Id | Ud => out.put((v as u32).to_le_bytes()),
        Iq => out.put(v.to_le_bytes()),
        Rel8 | Rel32 => {
            let (target, size) = (s.t.unwrap_or(0), if row.imm == Rel8 { 1 } else { 4 });
            let end = addr.wrapping_add((out.len() - start + size) as u64);
            let rel = target.wrapping_sub(end) as i64;
            if rel != rel << (64 - 8 * size) >> (64 - 8 * size) {
                return Err(EncodeError::RelOutOfRange {
                    from: addr,
                    to: target,
                });
            }
            if size == 1 {
                out.put([rel as u8]);
            } else {
                out.put((rel as u32).to_le_bytes());
            }
        }
    }
    Ok(())
}

/// ModRM.mod/rm, SIB and displacement of a memory operand: no displacement
/// unless the base is rbp/r13, disp8 when it fits, a SIB byte for an rsp/r12
/// base and for any index, `[disp32]` through SIB base 101.
fn mem(out: &mut impl Sink, reg3: u8, m: &MemRef) -> Result<(), EncodeError> {
    let scale = |s: u8| match s {
        1 => Ok(0),
        2 => Ok(1),
        4 => Ok(2),
        8 => Ok(3),
        _ => Err(EncodeError::BadOperands("invalid SIB scale")),
    };
    let index = match m.index {
        Some((g, s)) => scale(s)? << 6 | (g.number() & 7) << 3,
        None => 4 << 3,
    };
    let d32 = m.disp.to_le_bytes();
    let Some(base) = m.base else {
        out.put([reg3 << 3 | 4, index | 5]);
        out.put(d32);
        return Ok(());
    };
    let base3 = base.number() & 7;
    let md = if m.disp == 0 && base3 != 5 {
        0
    } else if i8::try_from(m.disp).is_ok() {
        1
    } else {
        2
    };
    if m.index.is_some() || base3 == 4 {
        out.put([md << 6 | reg3 << 3 | 4, index | base3]);
    } else {
        out.put([md << 6 | reg3 << 3 | base3]);
    }
    match md {
        0 => {}
        1 => out.put([d32[0]]),
        _ => out.put(d32),
    }
    Ok(())
}

/// Appends `inst`, placed at `addr`, to `out`; on an error `out` is as it
/// was.
pub(crate) fn encode(inst: &Inst, addr: u64, out: &mut Vec<u8>) -> Result<usize, EncodeError> {
    let start = out.len();
    match choose(inst, addr, out) {
        Ok(_) => Ok(out.len() - start),
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// The length `encode` would append, counted without writing a byte.
pub(crate) fn encoded_len(inst: &Inst, addr: u64) -> Result<usize, EncodeError> {
    let mut n = 0;
    choose(inst, addr, &mut n).map(|_| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smaller copy of `tests/forms.rs`'s sweep (no prefix, 66 or F2 ×
    /// no REX or REX.W × both maps × every opcode and ModRM) decodes through
    /// every row but the refused ones, and re-encoding what it decoded
    /// chooses every canonical row and no other.
    #[test]
    fn the_sweep_reaches_every_row() {
        let (mut decoded, mut chosen) = (vec![false; ROWS.len()], vec![false; ROWS.len()]);
        let mut buf = Vec::with_capacity(24);
        for pfx in [&[][..], &[P66], &[PF2]] {
            for rex in [&[][..], &[REX | 8]] {
                for esc in [&[][..], &[ESC as u8]] {
                    for op in 0..=255u8 {
                        for modrm in 0..=255u8 {
                            buf.clear();
                            for part in [pfx, rex, esc, &[op, modrm, 0x24], &[1; 12]] {
                                buf.extend_from_slice(part);
                            }
                            let Ok(d) = decode(&buf, 0x40_0000) else {
                                continue;
                            };
                            let mut c = Cursor {
                                bytes: &buf,
                                pos: 0,
                                addr: 0,
                            };
                            let Ok((r, _, _)) = lookup(&mut c) else {
                                unreachable!()
                            };
                            decoded[r] = true;
                            if let Ok(row) = choose(&d.inst, 0x40_0000, &mut 0) {
                                chosen[ROWS.iter().position(|x| *x == row).unwrap()] = true;
                            }
                        }
                    }
                }
            }
        }
        for (r, row) in ROWS.iter().enumerate() {
            if row.usage == Use::Refused {
                let bytes = [(row.op >> 8) as u8, row.op as u8, 0xC0];
                let refused = decode(&bytes, 0);
                assert!(matches!(refused, Err(DecodeError::UnsupportedForm { .. })));
                continue;
            }
            assert!(decoded[r], "no input decodes through {row:?}");
            assert_eq!(chosen[r], row.usage == C, "{row:?}");
        }
    }

    /// Every cell of the dispatch table names a row of its own opcode and
    /// prefix, one its REX.W and ModRM.reg admit, or a reason.
    #[test]
    fn dispatch_cells_name_rows_that_admit_them() {
        for (p, maps) in DISPATCH.iter().enumerate() {
            for (esc, ops) in maps.iter().enumerate() {
                for (op, ws) in ops.iter().enumerate() {
                    for (w, digits) in ws.iter().enumerate() {
                        for (g, &cell) in digits.iter().enumerate() {
                            let Some(row) = ROWS.get(cell as usize) else {
                                assert!(matches!(cell, UNKNOWN | PREFIXED | REX_W | DIGIT));
                                continue;
                            };
                            assert_eq!(row.pfx as usize, p);
                            assert_eq!(row.op >> 8 != 0, esc == 1);
                            assert!((row.op as u8 as usize..row.op as u8 as usize + row.span())
                                .contains(&op));
                            assert!(!matches!(row.reg, D(d) if d as usize != g));
                            assert!(!matches!((row.w, w), (W0, 1) | (W1, 0)));
                        }
                    }
                }
            }
        }
    }
}
