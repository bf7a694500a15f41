//! The instruction-form oracle, pinned in `forms_pins.txt`.
//!
//! * The decode sweep feeds every legacy prefix set × REX byte × opcode map
//!   × opcode × ModRM byte, followed by two fixed tails, to `decode`. One
//!   line per (map, opcode): how many inputs decoded and an FNV-1a digest
//!   over each input and its result (the instruction and length, or the
//!   error kind without its message).
//! * The encode corpus enumerates every `Inst` variant over its operand
//!   classes: each register number in each register slot, the memory shapes
//!   the ModRM/SIB encoder distinguishes, boundary immediates and both
//!   widths. One line per variant: how many encoded and a digest of the
//!   bytes or the error.
//!
//! Any change to what a byte string decodes to, or to the bytes an
//! instruction encodes to, moves a line. Regenerate on purpose with
//! `BREW_BLESS=1 cargo test -p brew-x86 --test forms` and read the diff.

use brew_x86::prelude::*;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

const BASE: u64 = 0x40_0000;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

fn decode_sweep(out: &mut String) {
    let prefixes: [&[u8]; 5] = [&[], &[0x66], &[0xF2], &[0xF3], &[0x66, 0xF2]];
    let rexes: [&[u8]; 7] = [&[], &[0x40], &[0x41], &[0x42], &[0x44], &[0x48], &[0x4F]];
    let filler = [
        0x81, 0x7F, 0x00, 0x80, 0xFE, 0x01, 0x10, 0xF0, 0x33, 0xCC, 0x55, 0xAA,
    ];
    let mut buf = Vec::with_capacity(24);
    for (map, esc) in [("1b", &[][..]), ("0f", &[0x0F][..])] {
        for op in 0..=255u8 {
            let (mut ok, mut h) = (0u32, Fnv::new());
            for p in prefixes {
                for rex in rexes {
                    for modrm in 0..=255u8 {
                        for sib in [0x24, 0x8D] {
                            buf.clear();
                            buf.extend_from_slice(p);
                            buf.extend_from_slice(rex);
                            buf.extend_from_slice(esc);
                            buf.extend_from_slice(&[op, modrm, sib]);
                            buf.extend_from_slice(&filler);
                            h.bytes(&buf);
                            match decode(&buf, BASE) {
                                Ok(d) => {
                                    ok += 1;
                                    write!(h, "{:?} {}", d.inst, d.len).unwrap();
                                }
                                Err(DecodeError::Truncated) => h.bytes(b"truncated"),
                                Err(DecodeError::UnknownOpcode { byte, .. }) => {
                                    write!(h, "unknown {byte}").unwrap()
                                }
                                Err(DecodeError::UnsupportedForm { .. }) => h.bytes(b"unsupported"),
                            }
                        }
                    }
                }
            }
            writeln!(out, "decode {map} {op:02x} ok {ok} digest {:016x}", h.0).unwrap();
        }
    }
}

fn mems() -> Vec<MemRef> {
    let mut v = vec![MemRef::abs(0x61_5100), MemRef::abs(-8)];
    for (n, g) in Gpr::ALL.into_iter().enumerate() {
        // Index only, each register (rsp included: it cannot index).
        v.push(MemRef {
            base: None,
            index: Some((g, 1 << (n % 4))),
            disp: 0x40,
        });
        // Base only, with no, an 8-bit and a 32-bit displacement.
        for disp in [0, -8, 0x1234] {
            v.push(MemRef::base_disp(g, disp));
        }
        // Base and index, every register as index under a rotating base.
        v.push(MemRef {
            base: Some(Gpr::from_number((n as u8 * 5 + 3) % 16)),
            index: Some((g, 1 << ((n / 4) % 4))),
            disp: 0x10,
        });
    }
    for scale in [1, 2, 4, 8] {
        v.push(MemRef::base_index(Gpr::R13, Gpr::R12, scale, 0));
    }
    v
}

const IMMS: [i64; 12] = [
    -129,
    -128,
    0,
    1,
    127,
    128,
    255,
    256,
    i32::MIN as i64,
    i32::MAX as i64,
    i32::MAX as i64 + 1,
    i64::MIN,
];

fn encode_corpus(out: &mut String) {
    let gprs: Vec<Operand> = Gpr::ALL.into_iter().map(Operand::Reg).collect();
    let xmms: Vec<Operand> = Xmm::ALL.into_iter().map(Operand::Xmm).collect();
    let mems = mems();
    let mem_ops: Vec<Operand> = mems.iter().copied().map(Operand::Mem).collect();
    let imms: Vec<Operand> = IMMS.into_iter().map(Operand::Imm).collect();
    let cat = |parts: &[&[Operand]]| parts.concat();
    // A slot that takes any operand, a general-register or memory slot and
    // an SSE-register or memory slot (each with two stray immediates).
    let any = cat(&[&gprs, &xmms, &mem_ops, &imms]);
    let rm = cat(&[&gprs, &mem_ops, &imms[..2]]);
    let xrm = cat(&[&xmms, &mem_ops, &imms[..2]]);
    let widths = [Width::W32, Width::W64];
    let targets = [
        BASE,
        BASE + 6,
        BASE - 0x1000,
        BASE + 0x7FFF_0000,
        BASE + 0x1_0000_0000,
        0,
    ];
    let imm32s = [-129, -128, 0, 127, 128, i32::MIN, i32::MAX];
    let counts = [
        ShiftCount::Imm(0),
        ShiftCount::Imm(1),
        ShiftCount::Imm(31),
        ShiftCount::Imm(63),
        ShiftCount::Imm(200),
        ShiftCount::Cl,
    ];
    let alu = [
        AluOp::Add,
        AluOp::Or,
        AluOp::And,
        AluOp::Sub,
        AluOp::Xor,
        AluOp::Cmp,
    ];
    let sse = [
        SseOp::Addsd,
        SseOp::Subsd,
        SseOp::Mulsd,
        SseOp::Divsd,
        SseOp::Addpd,
        SseOp::Subpd,
        SseOp::Mulpd,
        SseOp::Divpd,
        SseOp::Xorpd,
        SseOp::Unpcklpd,
    ];

    let mut is = Vec::new();
    for w in [Width::W8, Width::W32, Width::W64] {
        for &dst in &any {
            for &src in &any {
                is.push(Inst::Mov { w, dst, src });
            }
        }
    }
    for dst in Gpr::ALL {
        for imm in [0, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            is.push(Inst::MovAbs { dst, imm });
        }
    }
    for dst in Gpr::ALL {
        for &src in &rm {
            is.push(Inst::Movsxd { dst, src });
        }
    }
    for w in widths {
        for dst in Gpr::ALL {
            for &src in &rm {
                is.push(Inst::Movzx8 { w, dst, src });
                is.push(Inst::Imul { w, dst, src });
            }
        }
    }
    for dst in Gpr::ALL {
        for &src in &mems {
            is.push(Inst::Lea { dst, src });
        }
    }
    for op in alu {
        for w in widths {
            for &dst in &any {
                for &src in &any {
                    is.push(Inst::Alu { op, w, dst, src });
                }
            }
        }
    }
    for w in widths {
        for &a in &any {
            for &b in &any {
                is.push(Inst::Test { w, a, b });
            }
        }
    }
    for w in widths {
        for dst in Gpr::ALL {
            for &src in &rm {
                for imm in imm32s {
                    is.push(Inst::ImulImm { w, dst, src, imm });
                }
            }
        }
    }
    for w in widths {
        for &dst in &rm {
            for op in [UnOp::Neg, UnOp::Not, UnOp::Inc, UnOp::Dec] {
                is.push(Inst::Unary { op, w, dst });
            }
            for op in [ShOp::Shl, ShOp::Shr, ShOp::Sar] {
                for count in counts {
                    is.push(Inst::Shift { op, w, dst, count });
                }
            }
            is.push(Inst::Idiv { w, src: dst });
        }
        is.push(Inst::Cqo { w });
    }
    for &o in &any {
        is.push(Inst::Push { src: o });
        is.push(Inst::Pop { dst: o });
    }
    is.extend([Inst::Ret, Inst::Nop, Inst::Ud2]);
    for &target in &targets {
        is.push(Inst::CallRel { target });
        is.push(Inst::JmpRel { target });
        for cond in Cond::ALL {
            is.push(Inst::Jcc { cond, target });
        }
    }
    for &o in &rm {
        is.push(Inst::CallInd { src: o });
        is.push(Inst::JmpInd { src: o });
        for cond in Cond::ALL {
            is.push(Inst::Setcc { cond, dst: o });
        }
    }
    for &dst in &any {
        for &src in &any {
            is.push(Inst::MovSd { dst, src });
            is.push(Inst::MovUpd { dst, src });
        }
    }
    for x in Xmm::ALL {
        for &src in &xrm {
            for op in sse {
                is.push(Inst::Sse { op, dst: x, src });
            }
            is.push(Inst::Ucomisd { a: x, b: src });
        }
        for w in widths {
            for &src in &rm {
                is.push(Inst::Cvtsi2sd { w, dst: x, src });
            }
        }
    }
    for w in widths {
        for dst in Gpr::ALL {
            for &src in &xrm {
                is.push(Inst::Cvttsd2si { w, dst, src });
            }
        }
    }

    // One line per variant, by name.
    let mut lines: BTreeMap<String, (u32, u32, Fnv)> = BTreeMap::new();
    let mut bytes = Vec::with_capacity(16);
    let mut again = Vec::with_capacity(16);
    for inst in &is {
        let dbg = format!("{inst:?}");
        let name = dbg.split([' ', '{']).next().unwrap_or_default();
        let (n, ok, h) = lines
            .entry(name.to_string())
            .or_insert_with(|| (0, 0, Fnv::new()));
        *n += 1;
        bytes.clear();
        match encode(inst, BASE, &mut bytes) {
            Ok(len) => {
                *ok += 1;
                h.bytes(&bytes);
                // Length is placement-independent, the bytes decode back to
                // the length, and re-encoding what they decode to reproduces
                // them (an imm8 byte may read back signed).
                assert_eq!(encoded_len(inst), Ok(len), "{inst}");
                let d = decode(&bytes, BASE).unwrap_or_else(|e| panic!("{inst}: {e}"));
                assert_eq!(d.len, len, "{inst}");
                again.clear();
                encode(&d.inst, BASE, &mut again).unwrap();
                assert_eq!(again, bytes, "{inst} -> {}", d.inst);
            }
            Err(EncodeError::BadOperands(_)) => h.bytes(b"bad operands"),
            Err(e) => write!(h, "{e:?}").unwrap(),
        }
    }
    for (name, (n, ok, h)) in lines {
        writeln!(out, "encode {name} n {n} ok {ok} digest {:016x}", h.0).unwrap();
    }
}

#[test]
fn forms_are_pinned() {
    let mut got = String::new();
    decode_sweep(&mut got);
    encode_corpus(&mut got);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/forms_pins.txt");
    if std::env::var_os("BREW_BLESS").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_default();
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "forms_pins.txt line {}", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "forms_pins.txt length"
    );
}
