//! Every rewrite failure mode is a recoverable error (§III.G): *"it is not
//! catastrophic. It simply means that the user of the rewriter API has to
//! use the original version of the function."* These tests exercise each
//! failure path and verify the original function still runs afterwards.

use brew_suite::prelude::*;
use brew_suite::x86::prelude::*;

/// Assemble raw instructions into fresh image code.
fn asm(img: &mut Image, insts: &[Inst]) -> u64 {
    let base = brew_suite::image::layout::CODE_BASE;
    let mut bytes = Vec::new();
    // Find where this code will land: emulate the bump allocator by
    // assembling at 0 first for the length, then re-assembling.
    let mut probe = Vec::new();
    for i in insts {
        brew_suite::x86::encode::encode(i, base, &mut probe).unwrap();
    }
    let addr = img.alloc_code(&vec![0u8; probe.len()]);
    for i in insts {
        let at = addr + bytes.len() as u64;
        brew_suite::x86::encode::encode(i, at, &mut bytes).unwrap();
    }
    img.write_bytes(addr, &bytes).unwrap();
    addr
}

#[test]
fn undecodable_instruction() {
    let img = Image::new();
    let junk = img.alloc_code(&[0x0F, 0xFF, 0x00]);
    let err = Rewriter::new(&img)
        .rewrite(junk, &SpecRequest::new())
        .unwrap_err();
    assert!(matches!(err, RewriteError::Undecodable { addr, .. } if addr == junk));
}

#[test]
fn unsupported_instruction_form() {
    let img = Image::new();
    // RIP-relative mov: valid x86-64, outside the subset.
    let f = img.alloc_code(&[0x48, 0x8B, 0x05, 0x00, 0x00, 0x00, 0x00, 0xC3]);
    let err = Rewriter::new(&img)
        .rewrite(f, &SpecRequest::new())
        .unwrap_err();
    let RewriteError::Undecodable { addr, err } = err else {
        panic!("wrong error kind")
    };
    assert_eq!(addr, f, "points at the unsupported instruction");
    assert!(
        format!("{err:?}").to_lowercase().contains("rip"),
        "decoder diagnosis names the unsupported form: {err:?}"
    );
}

#[test]
fn indirect_unknown_jump() {
    let mut img = Image::new();
    // jmp rax with rax unknown.
    let f = asm(
        &mut img,
        &[Inst::JmpInd {
            src: Operand::Reg(Gpr::Rax),
        }],
    );
    let err = Rewriter::new(&img)
        .rewrite(f, &SpecRequest::new())
        .unwrap_err();
    assert!(matches!(err, RewriteError::IndirectUnknownJump { addr } if addr == f));
}

#[test]
fn indirect_known_jump_is_followed() {
    let mut img = Image::new();
    // mov rax, <target>; jmp rax; target: mov rax, 7; ret — with the
    // address baked, the indirect jump is followed and disappears.
    let base = brew_suite::image::layout::CODE_BASE;
    // Compute layout: movabs (10) + jmp rax (2) => target at base+12.
    let f = asm(
        &mut img,
        &[
            Inst::MovAbs {
                dst: Gpr::Rax,
                imm: base + 12,
            },
            Inst::JmpInd {
                src: Operand::Reg(Gpr::Rax),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(7),
            },
            Inst::Ret,
        ],
    );
    let req = SpecRequest::new().ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    let out = m.call(&img, res.entry, &CallArgs::new()).unwrap();
    assert_eq!(out.ret_int, 7);
}

#[test]
fn trap_instruction() {
    let mut img = Image::new();
    let f = asm(&mut img, &[Inst::Ud2]);
    let err = Rewriter::new(&img)
        .rewrite(f, &SpecRequest::new())
        .unwrap_err();
    assert!(matches!(err, RewriteError::TraceFault { addr, what: "ud2" } if addr == f));
}

#[test]
fn stack_imbalance() {
    let mut img = Image::new();
    // push rax; ret — returns with a displaced stack.
    let f = asm(
        &mut img,
        &[
            Inst::Push {
                src: Operand::Reg(Gpr::Rax),
            },
            Inst::Ret,
        ],
    );
    let err = Rewriter::new(&img)
        .rewrite(f, &SpecRequest::new())
        .unwrap_err();
    // `push rax` is one byte, so the offending `ret` sits at f+1.
    assert!(matches!(err, RewriteError::StackImbalance { addr } if addr == f + 1));
}

#[test]
fn division_fault_during_tracing() {
    let img = Image::new();
    let prog = compile_into("int f(int a) { return 1 / a; }", &img).unwrap();
    let f = prog.func("f").unwrap();
    let req = SpecRequest::new().known_int(0).ret(RetKind::Int);
    // Tracing with the known value 0 divides by zero at rewrite time.
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    let RewriteError::TraceFault { addr, what } = err else {
        panic!("wrong error kind")
    };
    assert!(what.contains("division"), "names the fault: {what}");
    assert!(
        addr >= f && addr < f + 0x80,
        "fault address {addr:#x} falls inside f ({f:#x})"
    );
    // The original function still works for valid inputs.
    let mut m = Machine::new();
    let out = m.call(&img, f, &CallArgs::new().int(2)).unwrap();
    assert_eq!(out.ret_int, 0); // 1/2 == 0
}

#[test]
fn code_space_budget() {
    let img = Image::new();
    let prog = compile_into(
        "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
        &img,
    )
    .unwrap();
    let f = prog.func("f").unwrap();
    let req = SpecRequest::new()
        .known_int(100)
        .ret(RetKind::Int)
        .max_code_bytes(16); // absurd limit
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    assert!(matches!(err, RewriteError::OutOfCodeSpace));
}

#[test]
fn block_budget() {
    let img = Image::new();
    let prog = compile_into(
        "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i; return s; }",
        &img,
    )
    .unwrap();
    let f = prog.func("f").unwrap();
    let req = SpecRequest::new()
        .known_int(10_000)
        .ret(RetKind::Int)
        .max_blocks(8)
        .default_opts(|o| o.max_variants = u32::MAX);
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    assert!(matches!(err, RewriteError::BlockBudget));
}

#[test]
fn bad_config_params_vs_args() {
    // The split (config, args) adoption path rejects arity drift in both
    // directions — the builder makes this unrepresentable.
    let mut cfg = RewriteConfig::new();
    cfg.set_param(3, ParamSpec::Known); // only 1 arg will be provided
    let err = SpecRequest::from_config(&cfg, &[ArgValue::Int(1)], OptLevel::default()).unwrap_err();
    let RewriteError::BadConfig(msg) = err else {
        panic!("wrong error kind")
    };
    assert!(
        msg.contains("parameter 1"),
        "names the offending index: {msg}"
    );
}

#[test]
fn bad_config_extra_args_without_specs() {
    // Arguments with no matching parameter spec are no longer silently
    // treated as unknown: the request must bind every parameter.
    let cfg = RewriteConfig::new();
    let err = SpecRequest::from_config(
        &cfg,
        &[ArgValue::Int(1), ArgValue::Int(2)],
        OptLevel::default(),
    )
    .unwrap_err();
    let RewriteError::BadConfig(msg) = err else {
        panic!("wrong error kind")
    };
    assert!(
        msg.contains("argument 0"),
        "names the offending index: {msg}"
    );
}

#[test]
fn bad_config_func_opts_for_non_code_address() {
    // Options keyed on an address outside any code segment are a config
    // error (usually a typo'd or stale symbol), not silently ignored.
    let img = Image::new();
    let prog = compile_into("int f(int a) { return a; }", &img).unwrap();
    let f = prog.func("f").unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .ret(RetKind::Int)
        .func(0xdead_0000, |o| o.inline = false);
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    let RewriteError::BadConfig(msg) = err else {
        panic!("wrong error kind")
    };
    assert!(
        msg.contains("0xdead0000"),
        "names the offending address: {msg}"
    );
}

#[test]
fn bad_config_hook_with_branch_unknown() {
    let img = Image::new();
    let prog = compile_into("int f(int a) { return a; }", &img).unwrap();
    let f = prog.func("f").unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .mem_access_hook(0x400000)
        .func(f, |o| o.branch_unknown = true);
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    let RewriteError::BadConfig(msg) = err else {
        panic!("wrong error kind")
    };
    assert!(
        msg.contains("branch_unknown") && msg.contains("hook"),
        "names the conflicting options: {msg}"
    );
}

#[test]
fn bad_config_ptr_to_known_on_f64() {
    let img = Image::new();
    let prog = compile_into("double f(double x) { return x; }", &img).unwrap();
    let f = prog.func("f").unwrap();
    // ptr_to_known only binds integer-class values; drive the same error
    // through the adoption path with an F64 value against a pointer spec.
    let mut cfg = RewriteConfig::new();
    cfg.set_param(0, ParamSpec::PtrToKnown { len: 8 })
        .set_ret(RetKind::F64);
    let req = SpecRequest::from_config(&cfg, &[ArgValue::F64(0.0)], OptLevel::default()).unwrap();
    let err = Rewriter::new(&img).rewrite(f, &req).unwrap_err();
    let RewriteError::BadConfig(msg) = err else {
        panic!("wrong error kind")
    };
    assert!(
        msg.contains("parameter 0"),
        "names the offending index: {msg}"
    );
}

#[test]
fn failure_then_fallback_to_original_is_the_contract() {
    // The paper's robustness story end-to-end: try to rewrite, fail, keep
    // using the original.
    let img = Image::new();
    let prog = compile_into(
        "int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += i * i; return s; }",
        &img,
    )
    .unwrap();
    let f = prog.func("f").unwrap();

    let req = SpecRequest::new()
        .known_int(1000)
        .ret(RetKind::Int)
        .max_trace_insts(50); // unrealistically small budget

    let chosen = match Rewriter::new(&img).rewrite(f, &req) {
        Ok(r) => r.entry,
        Err(_) => f, // the documented fallback
    };
    let mut m = Machine::new();
    let out = m.call(&img, chosen, &CallArgs::new().int(10)).unwrap();
    assert_eq!(out.ret_int, 285);
}

#[test]
fn stale_flags_from_elided_address_arithmetic() {
    // `lea rbx, [rsp-8]` (elided, stack-relative) then `add rbx, 8`
    // (elided; its flags are uncomputable because they depend on the
    // absolute stack address) followed by a conditional branch on those
    // flags: the rewriter must refuse rather than branch on garbage.
    let mut img = Image::new();
    let base = brew_suite::image::layout::CODE_BASE;
    let insts = [
        Inst::Lea {
            dst: Gpr::Rbx,
            src: MemRef::base_disp(Gpr::Rsp, -8),
        },
        Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rbx),
            src: Operand::Imm(8),
        },
        Inst::Jcc {
            cond: Cond::E,
            target: base + 30,
        },
        Inst::Ret,
    ];
    let f = asm(&mut img, &insts);
    let err = Rewriter::new(&img)
        .rewrite(f, &SpecRequest::new())
        .unwrap_err();
    let RewriteError::UntrustedFlags { addr } = err else {
        panic!("branching on stale flags must fail: {err:?}")
    };
    assert!(
        addr >= f && addr < f + 16,
        "offending address {addr:#x} falls inside the snippet ({f:#x})"
    );
}

#[test]
fn flags_from_emitted_writer_are_fine_after_elided_ops() {
    // Same shape, but a real (emitted) compare refreshes the flags before
    // the branch: rewrite succeeds and behaves like the original.
    let img = Image::new();
    let prog = compile_into(
        "int f(int a, int b) { int t = a + 1; if (b < t) return 1; return 2; }",
        &img,
    )
    .unwrap();
    let f = prog.func("f").unwrap();
    let req = SpecRequest::new()
        .known_int(10)
        .unknown_int()
        .ret(RetKind::Int);
    let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
    let mut m = Machine::new();
    for b in [-5i64, 10, 11, 12] {
        let orig = m.call(&img, f, &CallArgs::new().int(10).int(b)).unwrap();
        let spec = m
            .call(&img, res.entry, &CallArgs::new().int(10).int(b))
            .unwrap();
        assert_eq!(orig.ret_int, spec.ret_int, "b={b}");
    }
}
