//! Per-instruction semantic tests: each supported instruction is executed
//! through the full assemble→decode→execute path and checked against
//! hand-computed results, including width, flag and lane edge cases.
//!
//! Every call also holds its [`Stats`] — all ten fields — to
//! `stats_pins.txt`, written by the emulator that copied each decoded
//! instruction out of its cache before dispatch: what an instruction is
//! charged and how it is counted does not depend on how the interpreter
//! gets at it. The file changes only when the cost model or the
//! classification does, on purpose: `BREW_BLESS=1 cargo test -p brew-emu
//! --test semantics` rewrites the lines of the programs that ran.

use brew_emu::{CallArgs, CallOutcome, CpuState, Machine, Stats};
use brew_image::Image;
use brew_x86::encode::encode;
use brew_x86::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

const PINNED: &str = include_str!("stats_pins.txt");

/// Hold `s` to the line pinned under `label` (or, blessing, rewrite it).
fn pin(label: &str, s: &Stats) {
    let now = format!(
        "insts={} cycles={} loads={} stores={} branches={} taken={} calls={} rets={} fp_ops={} imuls={}",
        s.insts, s.cycles, s.loads, s.stores, s.branches, s.taken, s.calls, s.rets, s.fp_ops, s.imuls
    );
    if std::env::var_os("BREW_BLESS").is_some() {
        // Tests of this binary run on parallel threads and share the file.
        static FILE: Mutex<()> = Mutex::new(());
        let _one_writer = FILE.lock().expect("a blessing test panicked");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/stats_pins.txt");
        let old = std::fs::read_to_string(path).unwrap_or_default();
        let mut pins: BTreeMap<&str, &str> =
            old.lines().filter_map(|l| l.split_once(' ')).collect();
        pins.insert(label, &now);
        let text: String = pins.iter().map(|(l, s)| format!("{l} {s}\n")).collect();
        std::fs::write(path, text).expect("write pins");
        return;
    }
    let pinned = PINNED
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find_map(|(l, s)| (l == label).then_some(s));
    assert_eq!(Some(now.as_str()), pinned, "stats of `{label}` drifted");
}

/// Assemble a body at the start of the code segment.
fn asm(insts: &[Inst]) -> (Image, u64) {
    let img = Image::new();
    let base = brew_image::layout::CODE_BASE;
    let mut bytes = Vec::new();
    for i in insts {
        let addr = base + bytes.len() as u64;
        encode(i, addr, &mut bytes).unwrap();
    }
    let entry = img.alloc_code(&bytes);
    assert_eq!(entry, base);
    (img, entry)
}

/// Call `entry` on a fresh machine, pin the call's statistics under `label`
/// and return the outcome with the CPU state at return.
fn call(label: &str, img: &Image, entry: u64, args: &CallArgs) -> (CallOutcome, CpuState) {
    let mut m = Machine::new();
    let out = m.call(img, entry, args).unwrap();
    pin(label, &out.stats);
    (out, m.cpu)
}

/// Run a body that ends with `ret`; returns the outcome.
fn run(label: &str, insts: &[Inst], args: CallArgs) -> (u64, f64, CpuState) {
    let (img, entry) = asm(insts);
    let (out, cpu) = call(label, &img, entry, &args);
    (out.ret_int, out.ret_f64, cpu)
}

fn rax() -> Operand {
    Operand::Reg(Gpr::Rax)
}

#[test]
fn mov_w32_zero_extends() {
    let (r, _, _) = run(
        "mov_w32_zero_extends",
        &[
            Inst::MovAbs {
                dst: Gpr::Rax,
                imm: 0xFFFF_FFFF_FFFF_FFFF,
            },
            Inst::Mov {
                w: Width::W32,
                dst: rax(),
                src: Operand::Imm(-1),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 0xFFFF_FFFF, "32-bit write zero-extends");
}

#[test]
fn movsxd_sign_extends() {
    let (r, _, _) = run(
        "movsxd_sign_extends",
        &[
            Inst::Mov {
                w: Width::W32,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Imm(-5),
            },
            Inst::Movsxd {
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rcx),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r as i64, -5);
}

#[test]
fn movzx8_takes_low_byte() {
    let (r, _, _) = run(
        "movzx8_takes_low_byte",
        &[
            Inst::MovAbs {
                dst: Gpr::Rcx,
                imm: 0x1234_5678_9ABC_DEF0,
            },
            Inst::Movzx8 {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rcx),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 0xF0);
}

#[test]
fn lea_computes_full_address_math() {
    let (r, _, _) = run(
        "lea_computes_full_address_math",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Imm(100),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdx),
                src: Operand::Imm(7),
            },
            Inst::Lea {
                dst: Gpr::Rax,
                src: MemRef::base_index(Gpr::Rcx, Gpr::Rdx, 8, -6),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 100 + 7 * 8 - 6);
}

#[test]
fn alu_mem_rmw() {
    // add [rsp-8], rcx (below-rsp scratch is fine in the emulator).
    let (r, _, _) = run(
        "alu_mem_rmw",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                src: Operand::Imm(40),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Imm(2),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                src: Operand::Reg(Gpr::Rcx),
            },
            Inst::Mov {
                w: Width::W64,
                dst: rax(),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 42);
}

#[test]
fn imul_three_operand() {
    let (r, _, _) = run(
        "imul_three_operand",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Imm(-6),
            },
            Inst::ImulImm {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rcx),
                imm: -7,
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 42);
}

#[test]
fn shifts_and_cl() {
    let (r, _, _) = run(
        "shifts_and_cl",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: rax(),
                src: Operand::Imm(1),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Imm(5),
            },
            Inst::Shift {
                op: ShOp::Shl,
                w: Width::W64,
                dst: rax(),
                count: ShiftCount::Cl,
            },
            Inst::Shift {
                op: ShOp::Shr,
                w: Width::W64,
                dst: rax(),
                count: ShiftCount::Imm(2),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 8);
}

#[test]
fn sar_is_arithmetic() {
    let (r, _, _) = run(
        "sar_is_arithmetic",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: rax(),
                src: Operand::Imm(-64),
            },
            Inst::Shift {
                op: ShOp::Sar,
                w: Width::W64,
                dst: rax(),
                count: ShiftCount::Imm(3),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r as i64, -8);
}

#[test]
fn cqo_idiv_signed() {
    let (r, _, cpu) = run(
        "cqo_idiv_signed",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: rax(),
                src: Operand::Imm(-43),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Imm(5),
            },
            Inst::Cqo { w: Width::W64 },
            Inst::Idiv {
                w: Width::W64,
                src: Operand::Reg(Gpr::Rcx),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r as i64, -8, "C-style truncation toward zero");
    assert_eq!(
        cpu.get(Gpr::Rdx) as i64,
        -3,
        "remainder keeps dividend sign"
    );
}

#[test]
fn setcc_all_conditions_after_cmp() {
    // cmp 3, 5 then setcc for each condition; compare against Flags::cond.
    let (_, flags) = brew_x86::alu::alu(AluOp::Cmp, Width::W64, 3, 5);
    for cond in Cond::ALL {
        let (r, _, _) = run(
            &format!("setcc_after_cmp.{cond}"),
            &[
                Inst::Mov {
                    w: Width::W64,
                    dst: rax(),
                    src: Operand::Imm(3),
                },
                Inst::Alu {
                    op: AluOp::Cmp,
                    w: Width::W64,
                    dst: rax(),
                    src: Operand::Imm(5),
                },
                Inst::Setcc { cond, dst: rax() },
                Inst::Movzx8 {
                    w: Width::W64,
                    dst: Gpr::Rax,
                    src: rax(),
                },
                Inst::Ret,
            ],
            CallArgs::new(),
        );
        assert_eq!(r, flags.cond(cond) as u64, "set{cond}");
    }
}

#[test]
fn jcc_taken_and_not_taken() {
    // if (rdi == 1) return 10; else return 20;
    let base = brew_image::layout::CODE_BASE;
    // cmp rdi,1 (4) + jcc (6) + mov rax,20 (7) + ret (1) => taken target at +18.
    let insts = [
        Inst::Alu {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rdi),
            src: Operand::Imm(1),
        },
        Inst::Jcc {
            cond: Cond::E,
            target: base + 18,
        },
        Inst::Mov {
            w: Width::W64,
            dst: rax(),
            src: Operand::Imm(20),
        },
        Inst::Ret,
        Inst::Mov {
            w: Width::W64,
            dst: rax(),
            src: Operand::Imm(10),
        },
        Inst::Ret,
    ];
    let (r, _, _) = run("jcc_taken_and_not_taken.1", &insts, CallArgs::new().int(1));
    assert_eq!(r, 10);
    let (r, _, _) = run("jcc_taken_and_not_taken.2", &insts, CallArgs::new().int(2));
    assert_eq!(r, 20);
}

#[test]
fn movsd_load_zeroes_high_lane_reg_copy_does_not() {
    let img = Image::new();
    let d = img.alloc_data_bytes(&3.5f64.to_bits().to_le_bytes(), 8);
    let base = brew_image::layout::CODE_BASE;
    let mut bytes = Vec::new();
    for i in [
        // xmm1 = [?, ?] -> set both lanes via movupd from a 16-byte pattern
        Inst::MovSd {
            dst: Operand::Xmm(Xmm::Xmm1),
            src: Operand::Mem(MemRef::abs(d as i32)),
        },
        Inst::Sse {
            op: SseOp::Unpcklpd,
            dst: Xmm::Xmm1,
            src: Operand::Xmm(Xmm::Xmm1),
        }, // [3.5, 3.5]
        // load into xmm1 again: movsd from memory zeroes the high lane
        Inst::MovSd {
            dst: Operand::Xmm(Xmm::Xmm1),
            src: Operand::Mem(MemRef::abs(d as i32)),
        },
        Inst::Ret,
    ] {
        let addr = base + bytes.len() as u64;
        encode(&i, addr, &mut bytes).unwrap();
    }
    img.alloc_code(&bytes);
    let (_, cpu) = call("movsd_load_zeroes_high_lane", &img, base, &CallArgs::new());
    assert_eq!(f64::from_bits(cpu.xmm[1][0]), 3.5);
    assert_eq!(cpu.xmm[1][1], 0, "movsd from memory zeroes lane 1");
}

#[test]
fn packed_ops_touch_both_lanes() {
    let img = Image::new();
    let a = img.alloc_data_bytes(
        &[1.5f64, 2.5f64]
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect::<Vec<u8>>(),
        16,
    );
    let b = img.alloc_data_bytes(
        &[10.0f64, 20.0f64]
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect::<Vec<u8>>(),
        16,
    );
    let base = brew_image::layout::CODE_BASE;
    let mut bytes = Vec::new();
    for i in [
        Inst::MovUpd {
            dst: Operand::Xmm(Xmm::Xmm0),
            src: Operand::Mem(MemRef::abs(a as i32)),
        },
        Inst::Sse {
            op: SseOp::Addpd,
            dst: Xmm::Xmm0,
            src: Operand::Mem(MemRef::abs(b as i32)),
        },
        Inst::Sse {
            op: SseOp::Mulpd,
            dst: Xmm::Xmm0,
            src: Operand::Xmm(Xmm::Xmm0),
        },
        Inst::Ret,
    ] {
        let addr = base + bytes.len() as u64;
        encode(&i, addr, &mut bytes).unwrap();
    }
    img.alloc_code(&bytes);
    let (_, cpu) = call("packed_ops_touch_both_lanes", &img, base, &CallArgs::new());
    assert_eq!(f64::from_bits(cpu.xmm[0][0]), (1.5 + 10.0) * (1.5 + 10.0));
    assert_eq!(f64::from_bits(cpu.xmm[0][1]), (2.5 + 20.0) * (2.5 + 20.0));
}

#[test]
fn ucomisd_branches() {
    // return (xmm0 < xmm1) ? 1 : 0 using the seta idiom (swap operands).
    let base = brew_image::layout::CODE_BASE;
    let insts = [
        Inst::Ucomisd {
            a: Xmm::Xmm1,
            b: Operand::Xmm(Xmm::Xmm0),
        },
        Inst::Setcc {
            cond: Cond::A,
            dst: rax(),
        },
        Inst::Movzx8 {
            w: Width::W64,
            dst: Gpr::Rax,
            src: rax(),
        },
        Inst::Ret,
    ];
    let _ = base;
    let (r, _, _) = run(
        "ucomisd_branches.1",
        &insts,
        CallArgs::new().f64(1.0).f64(2.0),
    );
    assert_eq!(r, 1);
    let (r, _, _) = run(
        "ucomisd_branches.2",
        &insts,
        CallArgs::new().f64(2.0).f64(1.0),
    );
    assert_eq!(r, 0);
    let (r, _, _) = run(
        "ucomisd_branches.3",
        &insts,
        CallArgs::new().f64(f64::NAN).f64(1.0),
    );
    assert_eq!(r, 0, "NaN compares false under the seta idiom");
}

#[test]
fn cvt_round_trip() {
    let (_, f, _) = run(
        "cvt_round_trip.1",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: rax(),
                src: Operand::Imm(-7),
            },
            Inst::Cvtsi2sd {
                w: Width::W64,
                dst: Xmm::Xmm0,
                src: rax(),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(f, -7.0);

    let (r, _, _) = run(
        "cvt_round_trip.2",
        &[
            Inst::Cvttsd2si {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Operand::Xmm(Xmm::Xmm0),
            },
            Inst::Ret,
        ],
        CallArgs::new().f64(-7.9),
    );
    assert_eq!(r as i64, -7, "truncation toward zero");
}

#[test]
fn push_pop_lifo() {
    let (r, _, _) = run(
        "push_pop_lifo",
        &[
            Inst::Push {
                src: Operand::Imm(1),
            },
            Inst::Push {
                src: Operand::Imm(2),
            },
            Inst::Pop { dst: rax() }, // 2
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rcx),
            }, // 1
            Inst::Shift {
                op: ShOp::Shl,
                w: Width::W64,
                dst: rax(),
                count: ShiftCount::Imm(4),
            },
            Inst::Alu {
                op: AluOp::Or,
                w: Width::W64,
                dst: rax(),
                src: Operand::Reg(Gpr::Rcx),
            },
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 0x21);
}

#[test]
fn neg_not_inc_dec() {
    let (r, _, _) = run(
        "neg_not_inc_dec",
        &[
            Inst::Mov {
                w: Width::W64,
                dst: rax(),
                src: Operand::Imm(10),
            },
            Inst::Unary {
                op: UnOp::Neg,
                w: Width::W64,
                dst: rax(),
            }, // -10
            Inst::Unary {
                op: UnOp::Dec,
                w: Width::W64,
                dst: rax(),
            }, // -11
            Inst::Unary {
                op: UnOp::Not,
                w: Width::W64,
                dst: rax(),
            }, // 10
            Inst::Unary {
                op: UnOp::Inc,
                w: Width::W64,
                dst: rax(),
            }, // 11
            Inst::Ret,
        ],
        CallArgs::new(),
    );
    assert_eq!(r, 11);
}

#[test]
fn test_inst_sets_zf() {
    let base = brew_image::layout::CODE_BASE;
    // test rdi, rdi; je +...: return rdi==0 ? 1 : 0
    // test(3) jcc(6) mov(7) ret(1) -> target at +17
    let insts = [
        Inst::Test {
            w: Width::W64,
            a: Operand::Reg(Gpr::Rdi),
            b: Operand::Reg(Gpr::Rdi),
        },
        Inst::Jcc {
            cond: Cond::E,
            target: base + 17,
        },
        Inst::Mov {
            w: Width::W64,
            dst: rax(),
            src: Operand::Imm(0),
        },
        Inst::Ret,
        Inst::Mov {
            w: Width::W64,
            dst: rax(),
            src: Operand::Imm(1),
        },
        Inst::Ret,
    ];
    let (r, _, _) = run("test_inst_sets_zf.1", &insts, CallArgs::new().int(0));
    assert_eq!(r, 1);
    let (r, _, _) = run("test_inst_sets_zf.2", &insts, CallArgs::new().int(9));
    assert_eq!(r, 0);
}

#[test]
fn stats_classify_instructions() {
    let (img, entry) = asm(&[
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            src: Operand::Imm(1),
        },
        Inst::Mov {
            w: Width::W64,
            dst: rax(),
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
        },
        Inst::Sse {
            op: SseOp::Addsd,
            dst: Xmm::Xmm0,
            src: Operand::Xmm(Xmm::Xmm1),
        },
        Inst::Ret,
    ]);
    let (out, _) = call("stats_classify_instructions", &img, entry, &CallArgs::new());
    let s: Stats = out.stats;
    assert_eq!(s.insts, 4);
    assert_eq!(s.stores, 1);
    assert_eq!(s.loads, 1);
    assert_eq!(s.fp_ops, 1);
    assert_eq!(s.rets, 1);
}

#[test]
fn nop_does_nothing_but_count() {
    let (img, entry) = asm(&[Inst::Nop, Inst::Nop, Inst::Ret]);
    let (out, _) = call("nop_does_nothing_but_count", &img, entry, &CallArgs::new());
    assert_eq!(out.stats.insts, 3);
}

#[test]
fn xorpd_zeroes_register() {
    let (_, f, cpu) = run(
        "xorpd_zeroes_register",
        &[
            Inst::Sse {
                op: SseOp::Xorpd,
                dst: Xmm::Xmm0,
                src: Operand::Xmm(Xmm::Xmm0),
            },
            Inst::Ret,
        ],
        CallArgs::new().f64(123.456),
    );
    assert_eq!(f, 0.0);
    assert_eq!(cpu.xmm[0][1], 0);
}
