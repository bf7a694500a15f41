//! The decode cache is invisible: whatever changes the bytes a machine
//! executes — a patch between two calls, the guest's own store, another
//! image under the same version number — the next instruction is decoded
//! from the bytes as they are now, and a warm call is charged exactly what
//! the cold one was.

use brew_emu::{CallArgs, EmuError, Machine, Stats};
use brew_image::{layout, Image, MemFault};
use brew_x86::encode::{encode, encoded_len};
use brew_x86::prelude::*;

const PAGE: u64 = 4096;

fn assemble(insts: &[Inst], at: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in insts {
        encode(i, at + bytes.len() as u64, &mut bytes).unwrap();
    }
    bytes
}

fn mov_rax(imm: i32) -> Inst {
    Inst::Mov {
        w: Width::W64,
        dst: Gpr::Rax.into(),
        src: Operand::Imm(imm as i64),
    }
}

fn add_rax(imm: i32) -> Inst {
    Inst::Alu {
        op: AluOp::Add,
        w: Width::W64,
        dst: Gpr::Rax.into(),
        src: Operand::Imm(imm as i64),
    }
}

/// An image whose first code bytes are `mov rax, imm; ret`.
fn returns(imm: i32) -> (Image, u64) {
    let img = Image::new();
    let f = img.alloc_code(&assemble(&[mov_rax(imm), Inst::Ret], layout::CODE_BASE));
    (img, f)
}

#[test]
fn code_patched_between_two_calls_is_decoded_again() {
    let (img, f) = returns(1);
    let mut m = Machine::new();
    let args = CallArgs::new();
    assert_eq!(m.call(&img, f, &args).unwrap().ret_int, 1);
    assert_eq!(m.call(&img, f, &args).unwrap().ret_int, 1, "warm");
    img.write_bytes(f, &assemble(&[mov_rax(2), Inst::Ret], f))
        .unwrap();
    assert_eq!(m.call(&img, f, &args).unwrap().ret_int, 2);
    // The patch may also grow the function onto bytes decoded differently.
    img.write_bytes(f, &assemble(&[mov_rax(2), add_rax(40), Inst::Ret], f))
        .unwrap();
    assert_eq!(m.call(&img, f, &args).unwrap().ret_int, 42);
}

#[test]
fn a_guest_store_into_its_own_code_is_decoded_at_the_next_step() {
    // top:  mov rax, 5            <- its immediate is the store's target
    //       test rdi, rdi
    //       jne done
    //       mov dword [imm of top], 7
    //       mov rdi, 1
    //       jmp top
    // done: ret
    let top = layout::CODE_BASE;
    let imm_at = top + encoded_len(&mov_rax(5)).unwrap() as u64 - 4;
    let body = |done: u64| {
        [
            mov_rax(5),
            Inst::Test {
                w: Width::W64,
                a: Gpr::Rdi.into(),
                b: Gpr::Rdi.into(),
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: done,
            },
            Inst::Mov {
                w: Width::W32,
                dst: Operand::Mem(MemRef::abs(imm_at as i32)),
                src: Operand::Imm(7),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rdi.into(),
                src: Operand::Imm(1),
            },
            Inst::JmpRel { target: top },
            Inst::Ret,
        ]
    };
    let done = top + assemble(&body(top), top).len() as u64 - 1;
    let img = Image::new();
    assert_eq!(img.alloc_code(&assemble(&body(done), top)), top);

    let mut m = Machine::new();
    let out = m.call(&img, top, &CallArgs::new().int(0)).unwrap();
    assert_eq!(out.ret_int, 7, "the second pass ran the stale `mov rax, 5`");
    assert_eq!((out.stats.insts, out.stats.stores), (10, 1));
    // The image keeps the patch.
    assert_eq!(
        m.call(&img, top, &CallArgs::new().int(1)).unwrap().ret_int,
        7
    );
}

#[test]
fn one_machine_alternates_between_images_with_equal_versions() {
    let (a, fa) = returns(1);
    let (b, fb) = returns(2);
    assert_eq!((fa, a.code_version()), (fb, b.code_version()));
    assert_ne!(a.uid(), b.uid());
    let mut m = Machine::new();
    let args = CallArgs::new();
    for _ in 0..3 {
        assert_eq!(m.call(&a, fa, &args).unwrap().ret_int, 1);
        assert_eq!(m.call(&b, fb, &args).unwrap().ret_int, 2);
    }
}

#[test]
fn standalone_step_decodes_and_follows_patches() {
    let (img, f) = returns(3);
    let mut m = Machine::new();
    let mut stats = Stats::default();
    m.cpu.rip = f;
    m.step(&img, &mut stats).unwrap();
    assert_eq!((m.cpu.get(Gpr::Rax), stats.insts), (3, 1));
    assert_eq!(m.cpu.rip, f + encoded_len(&mov_rax(3)).unwrap() as u64);
    // Back to the start, over a patched instruction, with no call between.
    img.write_bytes(f, &assemble(&[mov_rax(9)], f)).unwrap();
    m.cpu.rip = f;
    m.step(&img, &mut stats).unwrap();
    assert_eq!((m.cpu.get(Gpr::Rax), stats.insts), (9, 2));
    // `ret` pops whatever rsp points at.
    let sp = img.stack_top();
    img.write_u64(sp, 0x1234).unwrap();
    m.cpu.set(Gpr::Rsp, sp);
    m.step(&img, &mut stats).unwrap();
    assert_eq!((m.cpu.rip, m.cpu.rsp(), stats.rets), (0x1234, sp + 8, 1));
}

/// Control moving between four code pages (more than the cache's
/// current-page slots), one callee entered through an instruction that
/// straddles a page boundary.
#[test]
fn calls_across_many_pages_and_an_instruction_straddling_two() {
    let base = layout::CODE_BASE;
    let callee = |k: u64| base + k * PAGE;
    // Page 1's callee starts 3 bytes before page 2, with an imm32 `add`.
    let straddler = callee(2) - 3;
    let main = [
        Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: Gpr::Rdi.into(),
        },
        Inst::CallRel { target: straddler },
        Inst::CallRel { target: callee(3) },
        Inst::CallRel { target: callee(4) },
        Inst::CallRel { target: straddler },
        Inst::CallRel { target: callee(3) },
        Inst::CallRel { target: callee(4) },
        Inst::Ret,
    ];
    let img = Image::new();
    assert_eq!(img.alloc_code(&assemble(&main, base)), base);
    img.alloc_code(&vec![0x90; 5 * PAGE as usize]); // the callees' pages
    let wide = add_rax(0x1000);
    assert!(encoded_len(&wide).unwrap() > 3);
    img.write_bytes(straddler, &assemble(&[wide, Inst::Ret], straddler))
        .unwrap();
    for (k, imm) in [(3, 0x20_000), (4, 0x300_000)] {
        img.write_bytes(callee(k), &assemble(&[add_rax(imm), Inst::Ret], callee(k)))
            .unwrap();
    }

    let mut m = Machine::new();
    let args = CallArgs::new().int(5);
    let cold = m.call(&img, base, &args).unwrap();
    assert_eq!(cold.ret_int, 5 + 2 * 0x321_000);
    assert_eq!(
        (cold.stats.insts, cold.stats.calls, cold.stats.rets),
        (20, 6, 7)
    );
    let warm = m.call(&img, base, &args).unwrap();
    assert_eq!((warm.ret_int, warm.stats), (cold.ret_int, cold.stats));
}

#[test]
fn a_stray_jump_faults_and_the_machine_stays_usable() {
    let (img, f) = returns(1);
    let mut m = Machine::new();
    let args = CallArgs::new();
    assert_eq!(m.call(&img, f, &args).unwrap().ret_int, 1);
    for _ in 0..2 {
        // Data is mapped but not executable; 0x10 is not mapped at all.
        for addr in [layout::DATA_BASE, 0x10] {
            let fault = MemFault {
                addr,
                size: 1,
                write: false,
            };
            assert_eq!(m.call(&img, addr, &args).unwrap_err(), EmuError::Mem(fault));
        }
        // Zero-filled code decodes to nothing in the subset.
        let blank = layout::CODE_BASE + 8 * PAGE;
        assert!(matches!(
            m.call(&img, blank, &args),
            Err(EmuError::Decode { addr, .. }) if addr == blank
        ));
        assert_eq!(m.call(&img, f, &args).unwrap().ret_int, 1);
    }
}
