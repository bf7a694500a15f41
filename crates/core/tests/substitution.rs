//! White-box tests of the tracer's substitution machinery on hand-written
//! machine code — exercising instruction shapes the mini-C compiler never
//! emits (32-bit operations, shifts, cqo/idiv with mixed knowledge,
//! setcc folding) and asserting the *generated code's structure*, not just
//! its behavior.

use brew_core::{disasm_result, RetKind, Rewriter, SpecRequest};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;
use brew_x86::encode::encode;
use brew_x86::prelude::*;

fn asm(img: &mut Image, insts: &[Inst]) -> u64 {
    let mut probe = Vec::new();
    for i in insts {
        encode(i, i.static_target().unwrap_or(0x40_0000), &mut probe).unwrap();
    }
    let addr = img.alloc_code(&vec![0u8; probe.len()]);
    let mut bytes = Vec::new();
    for i in insts {
        let at = addr + bytes.len() as u64;
        encode(i, at, &mut bytes).unwrap();
    }
    img.write_bytes(addr, &bytes).unwrap();
    addr
}

fn rewrite_with_param0_known(
    img: &mut Image,
    f: u64,
    value: i64,
    extra_unknown: usize,
) -> brew_core::RewriteResult {
    let mut req = SpecRequest::new().known_int(value).ret(RetKind::Int);
    for _ in 0..extra_unknown {
        req = req.unknown_int();
    }
    Rewriter::new(img).rewrite(f, &req).unwrap()
}

#[test]
fn w32_arithmetic_folds_with_zero_extension() {
    // f(edi known = -1): eax = edi; eax += 1 (32-bit wrap to 0); rax returned.
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W32,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W32,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(1),
            },
            Inst::Ret,
        ],
    );
    let res = rewrite_with_param0_known(&mut img, f, -1, 0);
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(-1)).unwrap();
    assert_eq!(out.ret_int, 0, "0xFFFFFFFF + 1 wraps at 32 bits");
    // Fully folded: just the materialized return + ret.
    assert!(out.stats.insts <= 2, "{:?}", disasm_result(&img, &res));
}

#[test]
fn w32_unknown_imm_substitution() {
    // eax(unknown) + (known 32-bit constant from rsi).
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W32,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W32,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rsi),
            },
            Inst::Ret,
        ],
    );
    // 0x90000000 doesn't fit a sign-extended imm32 as u32 value... it does
    // as a 32-bit immediate (bit pattern). The substituted form must stay
    // correct.
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(0x9000_0000u32 as i64)
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    for a in [0i64, 1, 0x7000_0000] {
        let want = ((a as u32).wrapping_add(0x9000_0000)) as u64;
        let out = m
            .call(
                &img,
                res.entry,
                &CallArgs::new().int(a).int(0x9000_0000u32 as i64),
            )
            .unwrap();
        assert_eq!(out.ret_int, want, "a={a}");
    }
}

#[test]
fn shl_by_known_cl_becomes_immediate_shift() {
    // rax = rdi << cl where cl = rsi (known 3).
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Reg(Gpr::Rsi),
            },
            Inst::Shift {
                op: ShOp::Shl,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                count: ShiftCount::Cl,
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(3)
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let text = disasm_result(&img, &res).join("\n");
    assert!(
        text.contains("shlq rax, 3"),
        "CL folded to immediate:\n{text}"
    );
    let mut m = Machine::new();
    let out = m
        .call(&img, res.entry, &CallArgs::new().int(5).int(3))
        .unwrap();
    assert_eq!(out.ret_int, 40);
}

#[test]
fn fully_known_shift_elided() {
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Shift {
                op: ShOp::Shl,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                count: ShiftCount::Imm(4),
            },
            Inst::Ret,
        ],
    );
    let res = rewrite_with_param0_known(&mut img, f, 3, 0);
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(3)).unwrap();
    assert_eq!(out.ret_int, 48);
    assert!(out.stats.insts <= 2);
}

#[test]
fn idiv_with_known_divisor_keeps_division() {
    // rax = rdi / rsi, rsi known = 7 (dividend unknown: idiv must stay).
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Reg(Gpr::Rsi),
            },
            Inst::Cqo { w: Width::W64 },
            Inst::Idiv {
                w: Width::W64,
                src: Operand::Reg(Gpr::Rcx),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(7)
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    for a in [0i64, 100, -100, 6, 7] {
        let out = m
            .call(&img, res.entry, &CallArgs::new().int(a).int(7))
            .unwrap();
        assert_eq!(out.ret_int as i64, a / 7, "a={a}");
    }
    // The divisor register must have been materialized before idiv.
    let text = disasm_result(&img, &res).join("\n");
    assert!(text.contains("idiv"), "{text}");
    assert!(text.contains("rcx, 0x7"), "divisor materialized:\n{text}");
}

#[test]
fn setcc_with_known_flags_folds_to_constant() {
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            // cmp rdi, 10; setl al; movzx — rdi known 3 → result constant 1.
            Inst::Alu {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Imm(10),
            },
            Inst::Setcc {
                cond: Cond::L,
                dst: Operand::Reg(Gpr::Rax),
            },
            Inst::Movzx8 {
                w: Width::W64,
                dst: Gpr::Rax,
                src: Operand::Reg(Gpr::Rax),
            },
            Inst::Ret,
        ],
    );
    let res = rewrite_with_param0_known(&mut img, f, 3, 0);
    let text = disasm_result(&img, &res).join("\n");
    assert!(!text.contains("set"), "setcc folded away:\n{text}");
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(3)).unwrap();
    assert_eq!(out.ret_int, 1);
}

#[test]
fn known_mem_operand_becomes_absolute() {
    // rax = *(rdi + 16) with rdi known and the pointee declared known.
    let mut img = Image::new();
    let data = img.alloc_data(32, 8);
    img.write_u64(data + 16, 4242).unwrap();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rdi, 16)),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new().ptr_to_known(data, 32).ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    // The load folds entirely: the value 4242 is baked in.
    let text = disasm_result(&img, &res).join("\n");
    assert!(text.contains("0x1092"), "value 4242 baked in:\n{text}");
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().ptr(data)).unwrap();
    assert_eq!(out.ret_int, 4242);
}

#[test]
fn unknown_base_known_index_folds_displacement() {
    // rax = *(rdi + rsi*8) with rsi known = 5: operand becomes [rdi + 40].
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_index(Gpr::Rdi, Gpr::Rsi, 8, 0)),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(5)
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let text = disasm_result(&img, &res).join("\n");
    assert!(
        text.contains("[rdi+0x28]"),
        "index folded into disp:\n{text}"
    );

    let p = img.alloc_heap(64, 8);
    img.write_u64(p + 40, 77).unwrap();
    let mut m = Machine::new();
    let out = m
        .call(&img, res.entry, &CallArgs::new().ptr(p).int(5))
        .unwrap();
    assert_eq!(out.ret_int, 77);
}

#[test]
fn known_base_unknown_index_keeps_index_only_form() {
    // rax = *(rdi + rsi*8) with rdi known: operand becomes [rsi*8 + base].
    let mut img = Image::new();
    let p = img.alloc_heap(64, 8);
    img.write_u64(p + 24, 99).unwrap();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_index(Gpr::Rdi, Gpr::Rsi, 8, 0)),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new()
        .known_int(p as i64)
        .unknown_int()
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let text = disasm_result(&img, &res).join("\n");
    assert!(
        text.contains("rsi*8"),
        "index preserved, base folded:\n{text}"
    );
    let mut m = Machine::new();
    let out = m
        .call(&img, res.entry, &CallArgs::new().ptr(p).int(3))
        .unwrap();
    assert_eq!(out.ret_int, 99);
}

#[test]
fn known_synced_param_register_is_used_directly() {
    // rax = rdi + rsi where rsi is a KNOWN parameter too large for imm32:
    // the architectural register already holds it (the caller passes it),
    // so no materialization is emitted — the register operand stays.
    let big = 0x1234_5678_9ABCi64;
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rsi),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(big)
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let text = disasm_result(&img, &res).join("\n");
    assert!(!text.contains("movabs"), "synced register reused:\n{text}");
    let mut m = Machine::new();
    let out = m
        .call(&img, res.entry, &CallArgs::new().int(10).int(big))
        .unwrap();
    assert_eq!(out.ret_int as i64, 10 + big);
}

#[test]
fn imm64_requires_movabs_materialization() {
    // rax = rdi + rcx where rcx was *loaded* from known memory (so the
    // load is elided, rcx is known-but-unsynced) and the value does not
    // fit a sign-extended imm32: materialization must emit a movabs.
    let big = 0x1234_5678_9ABCu64;
    let mut img = Image::new();
    let data = img.alloc_data(8, 8);
    img.write_u64(data, big).unwrap();
    let f = asm(
        &mut img,
        &[
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Mem(MemRef::base(Gpr::Rdi)),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rcx),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new().ptr_to_known(data, 8).ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let text = disasm_result(&img, &res).join("\n");
    assert!(
        text.contains("movabs"),
        "large unsynced constant needs movabs:\n{text}"
    );
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().ptr(data)).unwrap();
    assert_eq!(out.ret_int, data.wrapping_add(big));
}

#[test]
fn fp_constant_comes_from_literal_pool() {
    // xmm1 becomes a known-but-unsynced constant by computation (an elided
    // multiply of two known loads); using it then references the literal
    // pool as an absolute operand (the Figure-6 shape).
    let mut img = Image::new();
    let data = img.alloc_data(16, 8);
    img.write_f64(data, 2.0).unwrap();
    img.write_f64(data + 8, 1.25).unwrap();
    let f = asm(
        &mut img,
        &[
            // xmm1 = *rdi * *(rdi+8)  — fully known, fully elided
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm1),
                src: Operand::Mem(MemRef::base(Gpr::Rdi)),
            },
            Inst::Sse {
                op: SseOp::Mulsd,
                dst: Xmm::Xmm1,
                src: Operand::Mem(MemRef::base_disp(Gpr::Rdi, 8)),
            },
            // xmm0 (unknown arg) * xmm1 (known unsynced 2.5) -> pool operand
            Inst::Sse {
                op: SseOp::Mulsd,
                dst: Xmm::Xmm0,
                src: Operand::Xmm(Xmm::Xmm1),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new()
        .ptr_to_known(data, 16)
        .unknown_f64()
        .ret(RetKind::F64);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let text = disasm_result(&img, &res).join("\n");
    assert!(text.contains("mulsd xmm0, [0x6"), "pool operand:\n{text}");
    let mut m = Machine::new();
    let out = m
        .call(&img, res.entry, &CallArgs::new().ptr(data).f64(3.0))
        .unwrap();
    assert_eq!(out.ret_f64, 7.5);
}

#[test]
fn prologue_epilogue_of_inlined_callee_disappears() {
    // Outer calls a callee with full push-rbp prologue; after rewriting
    // with everything known, no push/pop remains.
    let mut img = Image::new();
    // callee: push rbp; mov rbp,rsp; mov rax, rdi; add rax, 5; pop rbp; ret
    let callee = asm(
        &mut img,
        &[
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rbp),
                src: Operand::Reg(Gpr::Rsp),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(5),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
            Inst::Ret,
        ],
    );
    let outer = asm(&mut img, &[Inst::CallRel { target: callee }, Inst::Ret]);
    let res = rewrite_with_param0_known(&mut img, outer, 37, 0);
    let text = disasm_result(&img, &res).join("\n");
    assert!(!text.contains("push"), "inlined prologue removed:\n{text}");
    assert!(!text.contains("call"), "call inlined:\n{text}");
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(37)).unwrap();
    assert_eq!(out.ret_int, 42);
}

#[test]
fn callee_saved_register_restored_after_pop_elision() {
    // The function saves rbx, sets it to a known constant, uses it, and
    // restores it. Pop elision leaves rbx known-unsynced; the ret must
    // materialize the *restored* (original-unknown) value — i.e. the pop
    // must not be elided into a wrong constant.
    let mut img = Image::new();
    let f = asm(
        &mut img,
        &[
            Inst::Push {
                src: Operand::Reg(Gpr::Rbx),
            }, // save (unknown)
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rbx),
                src: Operand::Imm(1000),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rbx),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbx),
            }, // restore
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new().ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    // The emulator's debug harness asserts callee-saved preservation.
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new()).unwrap();
    assert_eq!(out.ret_int, 1000);
}

#[test]
fn recursion_with_known_argument_unrolls_completely() {
    // fib(n) with n known: recursive calls inline through the shadow stack
    // and the whole computation folds to a constant.
    let img = Image::new();
    brew_minic::compile_into(
        "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }",
        &img,
    )
    .unwrap();
    let req = SpecRequest::new().known_int(12).ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite_named("fib", &req).unwrap();
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new().int(12)).unwrap();
    assert_eq!(out.ret_int, 144);
    assert_eq!(out.stats.calls, 0, "all recursive calls inlined");
    assert_eq!(out.stats.branches, 0, "all conditions folded");
    assert!(res.stats.inlined_calls > 100, "fib(12) has many call sites");
    // The value computation folds away entirely; what remains is the
    // inlined frames' stack choreography (the paper's planned register
    // renaming would remove it too). Still far cheaper than the original.
    let fib = img.lookup("fib").unwrap();
    let orig = m.call(&img, fib, &CallArgs::new().int(12)).unwrap();
    assert!(
        out.stats.cycles * 2 < orig.stats.cycles,
        "rewritten {} vs original {}",
        out.stats.cycles,
        orig.stats.cycles
    );
}

#[test]
fn unbounded_recursion_inlining_fails_recoverably() {
    let img = Image::new();
    let prog = brew_minic::compile_into(
        "int down(int n) { if (n == 0) return 0; return down(n - 1); }",
        &img,
    )
    .unwrap();
    let f = prog.func("down").unwrap();
    // n unknown: the recursion depth is unbounded at trace time; the
    // branch forks and the recursive path keeps inlining until the depth
    // guard trips.
    let req = SpecRequest::new().unknown_int().ret(RetKind::Int);
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    assert!(
        matches!(
            err,
            brew_core::RewriteError::TraceFault { .. }
                | brew_core::RewriteError::TraceBudget
                | brew_core::RewriteError::BlockBudget
        ),
        "{err:?}"
    );
}

#[test]
fn rewrite_stats_display_is_informative() {
    let img = Image::new();
    brew_minic::compile_into("int f(int a) { return a + 1; }", &img).unwrap();
    let req = SpecRequest::new().unknown_int().ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite_named("f", &req).unwrap();
    let text = res.stats.to_string();
    assert!(text.contains("traced") && text.contains("bytes"), "{text}");
}
