//! Differential check of the def/use model against the emulator.
//!
//! `brew_x86::defuse::visit`, the operand-role table, is load-bearing many
//! times over: the rewriter's optimization passes fold their read, write
//! and definition sets and flag bits from it for liveness and dead-code
//! elimination, the register allocator renames through it, and the static
//! verifier trusts `for_each_write` to spot unmodeled RSP writes. A stale
//! entry there silently corrupts variants, so this test cross-examines the
//! model against ground truth — the emulator:
//!
//! * **write soundness** — every architectural register the emulator
//!   actually changed must appear in `defuse::writes`;
//! * **read soundness** — perturbing every register *outside*
//!   `reads ∪ writes` must not change the instruction's effect (written
//!   register values, flags, or touched memory);
//! * **whole definition** — perturbing a location in `writes \ reads`
//!   must not change the effect either: a write the model does not pair
//!   with a read is a definition liveness may kill;
//! * **flag claims** — the flags stay put unless `writes_flags`; unless
//!   `reads_flags`, flipping every input flag changes no register and no
//!   byte; an instruction that defines every flag (`FlagUse::Define`)
//!   computes them from its operands alone.

use brew_emu::{CpuState, Machine, Stats};
use brew_image::layout;
use brew_image::Image;
use brew_x86::defuse::{self, FlagUse, Loc, Role, Site};
use brew_x86::{
    encode, AluOp, Cond, Flags, Gpr, Inst, MemRef, Operand, ShOp, ShiftCount, SseOp, UnOp, Width,
    Xmm,
};
use proptest::prelude::*;

/// Registers safe to use as explicit operands (RSP stays pinned to the
/// stack; RBX is the designated memory base).
const OPERAND_GPRS: [Gpr; 10] = [
    Gpr::Rax,
    Gpr::Rcx,
    Gpr::Rdx,
    Gpr::Rsi,
    Gpr::Rdi,
    Gpr::R8,
    Gpr::R9,
    Gpr::R10,
    Gpr::R11,
    Gpr::R12,
];

fn gpr() -> impl Strategy<Value = Gpr> {
    proptest::sample::select(&OPERAND_GPRS[..])
}

fn xmm() -> impl Strategy<Value = Xmm> {
    proptest::sample::select(&Xmm::ALL[..8])
}

fn width() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::W32), Just(Width::W64)]
}

/// A memory operand guaranteed to land inside the 128-byte scratch buffer
/// (RBX points at its midpoint; packed 16-byte accesses still fit).
fn mem() -> impl Strategy<Value = MemRef> {
    (-64i32..=48).prop_map(|disp| MemRef {
        base: Some(Gpr::Rbx),
        index: None,
        disp,
    })
}

fn int_rm() -> impl Strategy<Value = Operand> {
    prop_oneof![
        gpr().prop_map(Operand::Reg),
        mem().prop_map(Operand::Mem),
        (-1000i64..1000).prop_map(Operand::Imm),
    ]
}

fn xmm_rm() -> impl Strategy<Value = Operand> {
    prop_oneof![xmm().prop_map(Operand::Xmm), mem().prop_map(Operand::Mem),]
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Cmp),
    ]
}

fn sse_op() -> impl Strategy<Value = SseOp> {
    prop_oneof![
        Just(SseOp::Addsd),
        Just(SseOp::Subsd),
        Just(SseOp::Mulsd),
        Just(SseOp::Divsd),
        Just(SseOp::Addpd),
        Just(SseOp::Mulpd),
        Just(SseOp::Xorpd),
        Just(SseOp::Unpcklpd),
    ]
}

fn un_op() -> impl Strategy<Value = UnOp> {
    prop_oneof![
        Just(UnOp::Neg),
        Just(UnOp::Not),
        Just(UnOp::Inc),
        Just(UnOp::Dec)
    ]
}

fn sh_op() -> impl Strategy<Value = ShOp> {
    prop_oneof![Just(ShOp::Shl), Just(ShOp::Shr), Just(ShOp::Sar)]
}

fn shift_count() -> impl Strategy<Value = ShiftCount> {
    prop_oneof![(0u8..64).prop_map(ShiftCount::Imm), Just(ShiftCount::Cl)]
}

fn cond() -> impl Strategy<Value = Cond> {
    proptest::sample::select(&Cond::ALL[..])
}

/// Every non-control, non-faulting instruction shape the subset supports.
fn inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (width(), gpr(), int_rm()).prop_map(|(w, d, src)| Inst::Mov {
            w,
            dst: Operand::Reg(d),
            src,
        }),
        (width(), mem(), gpr()).prop_map(|(w, m, s)| Inst::Mov {
            w,
            dst: Operand::Mem(m),
            src: Operand::Reg(s),
        }),
        (gpr(), any::<u64>()).prop_map(|(d, imm)| Inst::MovAbs { dst: d, imm }),
        (gpr(), int_rm())
            .prop_filter("movsxd needs r/m", |(_, s)| !matches!(s, Operand::Imm(_)))
            .prop_map(|(d, src)| Inst::Movsxd { dst: d, src }),
        (width(), gpr(), gpr()).prop_map(|(w, d, s)| Inst::Movzx8 {
            w,
            dst: d,
            src: Operand::Reg(s),
        }),
        (gpr(), mem()).prop_map(|(d, m)| Inst::Lea { dst: d, src: m }),
        (gpr(), gpr(), gpr(), 0u8..4, -64i32..=48).prop_map(|(d, b, i, s, disp)| Inst::Lea {
            dst: d,
            src: MemRef {
                base: Some(b),
                index: Some((i, 1 << s)),
                disp,
            },
        }),
        (alu_op(), width(), gpr(), int_rm()).prop_map(|(op, w, d, src)| Inst::Alu {
            op,
            w,
            dst: Operand::Reg(d),
            src,
        }),
        (alu_op(), width(), mem(), gpr()).prop_map(|(op, w, m, s)| Inst::Alu {
            op,
            w,
            dst: Operand::Mem(m),
            src: Operand::Reg(s),
        }),
        (width(), gpr(), gpr()).prop_map(|(w, a, b)| Inst::Test {
            w,
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        }),
        (width(), gpr(), int_rm())
            .prop_filter("imul needs r/m", |(_, _, s)| !matches!(s, Operand::Imm(_)))
            .prop_map(|(w, d, src)| Inst::Imul { w, dst: d, src }),
        (width(), gpr(), gpr(), -1000i32..1000).prop_map(|(w, d, s, imm)| Inst::ImulImm {
            w,
            dst: d,
            src: Operand::Reg(s),
            imm,
        }),
        (un_op(), width(), gpr()).prop_map(|(op, w, d)| Inst::Unary {
            op,
            w,
            dst: Operand::Reg(d),
        }),
        (sh_op(), width(), gpr(), shift_count()).prop_map(|(op, w, d, count)| Inst::Shift {
            op,
            w,
            dst: Operand::Reg(d),
            count,
        }),
        width().prop_map(|w| Inst::Cqo { w }),
        gpr().prop_map(|r| Inst::Push {
            src: Operand::Reg(r)
        }),
        gpr().prop_map(|r| Inst::Pop {
            dst: Operand::Reg(r)
        }),
        (cond(), gpr()).prop_map(|(c, d)| Inst::Setcc {
            cond: c,
            dst: Operand::Reg(d),
        }),
        (xmm(), xmm_rm()).prop_map(|(d, src)| Inst::MovSd {
            dst: Operand::Xmm(d),
            src,
        }),
        (mem(), xmm()).prop_map(|(m, s)| Inst::MovSd {
            dst: Operand::Mem(m),
            src: Operand::Xmm(s),
        }),
        (xmm(), xmm_rm()).prop_map(|(d, src)| Inst::MovUpd {
            dst: Operand::Xmm(d),
            src,
        }),
        (mem(), xmm()).prop_map(|(m, s)| Inst::MovUpd {
            dst: Operand::Mem(m),
            src: Operand::Xmm(s),
        }),
        (sse_op(), xmm(), xmm_rm()).prop_map(|(op, d, src)| Inst::Sse { op, dst: d, src }),
        (xmm(), xmm_rm()).prop_map(|(a, b)| Inst::Ucomisd { a, b }),
        (width(), xmm(), gpr()).prop_map(|(w, d, s)| Inst::Cvtsi2sd {
            w,
            dst: d,
            src: Operand::Reg(s),
        }),
        (width(), gpr(), xmm()).prop_map(|(w, d, s)| Inst::Cvttsd2si {
            w,
            dst: d,
            src: Operand::Xmm(s),
        }),
        Just(Inst::Nop),
        // Byte moves merge into a register and store one byte to memory.
        (gpr(), int_rm()).prop_map(|(d, src)| Inst::Mov {
            w: Width::W8,
            dst: Operand::Reg(d),
            src,
        }),
        (
            mem(),
            prop_oneof![
                gpr().prop_map(Operand::Reg),
                (-128i64..128).prop_map(Operand::Imm)
            ]
        )
            .prop_map(|(m, src)| Inst::Mov {
                w: Width::W8,
                dst: Operand::Mem(m),
                src,
            }),
        // Memory destinations and sources of the register-only shapes above.
        (cond(), mem()).prop_map(|(c, m)| Inst::Setcc {
            cond: c,
            dst: Operand::Mem(m),
        }),
        (un_op(), width(), mem()).prop_map(|(op, w, m)| Inst::Unary {
            op,
            w,
            dst: Operand::Mem(m),
        }),
        (sh_op(), width(), mem(), shift_count()).prop_map(|(op, w, m, count)| Inst::Shift {
            op,
            w,
            dst: Operand::Mem(m),
            count,
        }),
        (alu_op(), width(), mem(), -1000i64..1000).prop_map(|(op, w, m, k)| Inst::Alu {
            op,
            w,
            dst: Operand::Mem(m),
            src: Operand::Imm(k),
        }),
        (
            width(),
            int_rm(),
            prop_oneof![
                gpr().prop_map(Operand::Reg),
                (-1000i64..1000).prop_map(Operand::Imm)
            ]
        )
            .prop_map(|(w, a, b)| Inst::Test { w, a, b }),
        int_rm().prop_map(|src| Inst::Push { src }),
        mem().prop_map(|m| Inst::Pop {
            dst: Operand::Mem(m)
        }),
        (width(), gpr(), mem()).prop_map(|(w, d, m)| Inst::Movzx8 {
            w,
            dst: d,
            src: Operand::Mem(m),
        }),
        (width(), xmm(), mem()).prop_map(|(w, d, m)| Inst::Cvtsi2sd {
            w,
            dst: d,
            src: Operand::Mem(m),
        }),
        (width(), gpr(), mem()).prop_map(|(w, d, m)| Inst::Cvttsd2si {
            w,
            dst: d,
            src: Operand::Mem(m),
        }),
        (width(), gpr(), mem(), -1000i32..1000).prop_map(|(w, d, m, imm)| Inst::ImulImm {
            w,
            dst: d,
            src: Operand::Mem(m),
            imm,
        }),
    ]
}

struct MemSnapshot {
    scratch: [u8; 128],
    stack: [u8; 32],
}

struct Fixture {
    img: Image,
    code: u64,
    scratch: u64,
    rsp: u64,
}

impl Fixture {
    fn new(inst: &Inst) -> Option<Fixture> {
        let img = Image::new();
        let scratch = img.alloc_heap(128, 16);
        let code = layout::JIT_BASE;
        let mut buf = Vec::new();
        encode(inst, code, &mut buf).ok()?;
        img.write_bytes(code, &buf).unwrap();
        Some(Fixture {
            img,
            code,
            scratch,
            rsp: layout::STACK_TOP - 0x200,
        })
    }

    fn snapshot(&self) -> MemSnapshot {
        let mut s = MemSnapshot {
            scratch: [0; 128],
            stack: [0; 32],
        };
        self.img.read_bytes(self.scratch, &mut s.scratch).unwrap();
        self.img.read_bytes(self.rsp - 16, &mut s.stack).unwrap();
        s
    }

    fn restore(&self, s: &MemSnapshot) {
        self.img.write_bytes(self.scratch, &s.scratch).unwrap();
        self.img.write_bytes(self.rsp - 16, &s.stack).unwrap();
    }

    /// Install the base register file: random values with RSP and the
    /// memory base RBX pinned to mapped regions.
    fn init(&self, m: &mut Machine, gprs: &[u64; 16], xmms: &[[u64; 2]; 8], flags: Flags) {
        m.cpu.gpr = *gprs;
        m.cpu.set(Gpr::Rsp, self.rsp);
        m.cpu.set(Gpr::Rbx, self.scratch + 64);
        for (i, v) in xmms.iter().enumerate() {
            m.cpu.xmm[i] = *v;
        }
        m.cpu.flags = flags;
        m.cpu.rip = self.code;
    }
}

/// The XMM shapes whose lane behavior the register allocator's
/// scalar-only mode reasons about: reg-reg and mem-load `movsd`,
/// `cvtsi2sd`, scalar RMW arithmetic (`mulsd` & friends), and the packed
/// ops that disqualify a capture from scalar-only treatment.
fn xmm_inst() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (xmm(), xmm()).prop_map(|(d, s)| Inst::MovSd {
            dst: Operand::Xmm(d),
            src: Operand::Xmm(s),
        }),
        (xmm(), mem()).prop_map(|(d, m)| Inst::MovSd {
            dst: Operand::Xmm(d),
            src: Operand::Mem(m),
        }),
        (width(), xmm(), gpr()).prop_map(|(w, d, s)| Inst::Cvtsi2sd {
            w,
            dst: d,
            src: Operand::Reg(s),
        }),
        (sse_op(), xmm(), xmm_rm()).prop_map(|(op, d, src)| Inst::Sse { op, dst: d, src }),
        (xmm(), xmm_rm()).prop_map(|(d, src)| Inst::MovUpd {
            dst: Operand::Xmm(d),
            src,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Lane-granular differential for the scalar-only contract:
    /// `defuse::xmm_hi_effect` and `defuse::xmm_read_is_hi_merge_only`
    /// are what let the register allocator treat `movsd d, s` /
    /// `cvtsi2sd` as full defs when no packed code exists. `Loc::Xmm` is
    /// whole-register granular, so the main differential below cannot see
    /// a lane-level lie — this one executes each shape twice, flipping
    /// only the destination's high lane, and requires:
    ///
    /// * a `Preserved`/`Zeroed` claim means nothing except the high lane
    ///   itself may depend on the flipped bits;
    /// * `Preserved` passes the lane through untouched, `Zeroed` clears
    ///   it on both runs;
    /// * a `xmm_read_is_hi_merge_only` claim additionally survives
    ///   flipping the destination's *low* lane (the instruction must not
    ///   read it).
    #[test]
    fn xmm_high_lane_contract_matches_emulator(
        inst in xmm_inst(),
        gprs in proptest::array::uniform16(any::<u64>()),
        xmms in proptest::array::uniform8(proptest::array::uniform2(any::<u64>())),
    ) {
        use brew_x86::defuse::XmmHi;
        let Some((dst, claim)) = defuse::xmm_hi_effect(&inst) else {
            return Err(TestCaseError::fail(format!(
                "{inst}: xmm_hi_effect claims no XMM destination"
            )));
        };
        let Some(fx) = Fixture::new(&inst) else { return Ok(()); };
        let flags = Flags::default();
        let di = dst.number() as usize;

        let before_mem = fx.snapshot();
        let mut m = Machine::new();
        fx.init(&mut m, &gprs, &xmms, flags);
        let mut stats = Stats::default();
        if m.step(&fx.img, &mut stats).is_err() {
            return Ok(());
        }
        let run1 = m.cpu.clone();
        let mem1 = fx.snapshot();

        // Run 2: identical state except the destination's high lane.
        const FLIP: u64 = 0xA5A5_A5A5_A5A5_A5A5;
        fx.restore(&before_mem);
        fx.init(&mut m, &gprs, &xmms, flags);
        m.cpu.xmm[di][1] ^= FLIP;
        prop_assert!(m.step(&fx.img, &mut stats).is_ok());
        let run2 = m.cpu.clone();
        let mem2 = fx.snapshot();

        match claim {
            XmmHi::Preserved => {
                prop_assert_eq!(run1.xmm[di][1], xmms[di][1],
                    "{}: claimed Preserved but high lane changed", inst);
                prop_assert_eq!(run2.xmm[di][1], xmms[di][1] ^ FLIP,
                    "{}: claimed Preserved but high lane not passed through", inst);
            }
            XmmHi::Zeroed => {
                prop_assert_eq!(run1.xmm[di][1], 0,
                    "{}: claimed Zeroed but high lane survived", inst);
                prop_assert_eq!(run2.xmm[di][1], 0,
                    "{}: claimed Zeroed but high lane survived", inst);
            }
            XmmHi::Written => {} // recomputed from operands; nothing to pin down
        }
        if claim != XmmHi::Written {
            // Nothing but dst's own high lane may have depended on the flip.
            for g in Gpr::ALL {
                prop_assert_eq!(run1.get(g), run2.get(g),
                    "{}: {:?} depends on an XMM high lane", inst, g);
            }
            prop_assert_eq!(run1.flags, run2.flags,
                "{}: flags depend on an XMM high lane", inst);
            for i in 0..8 {
                prop_assert_eq!(run1.xmm[i][0], run2.xmm[i][0],
                    "{}: a low lane depends on an XMM high lane", inst);
                if i != di {
                    prop_assert_eq!(run1.xmm[i][1], run2.xmm[i][1],
                        "{}: another high lane depends on the flipped one", inst);
                }
            }
            prop_assert_eq!(&mem1.scratch[..], &mem2.scratch[..],
                "{}: memory effect depends on an XMM high lane", inst);
            prop_assert_eq!(&mem1.stack[..], &mem2.stack[..]);
        }

        // The stronger merge-only claim: the instruction must not read
        // the destination's low lane either.
        if defuse::xmm_read_is_hi_merge_only(&inst) {
            fx.restore(&before_mem);
            fx.init(&mut m, &gprs, &xmms, flags);
            m.cpu.xmm[di][0] ^= FLIP;
            prop_assert!(m.step(&fx.img, &mut stats).is_ok());
            prop_assert_eq!(m.cpu.xmm[di][0], run1.xmm[di][0],
                "{}: merge-only claim but the low-lane result depends on the old value", inst);
            let mem3 = fx.snapshot();
            prop_assert_eq!(&mem3.scratch[..], &mem1.scratch[..],
                "{}: merge-only claim but memory depends on the destination", inst);
        }
    }

    #[test]
    fn defuse_matches_emulator_effects(
        inst in inst(),
        gprs in proptest::array::uniform16(any::<u64>()),
        xmms in proptest::array::uniform8(proptest::array::uniform2(any::<u64>())),
        flag_bits in 0u8..32,
    ) {
        let Some(fx) = Fixture::new(&inst) else {
            // The encoder rejects this operand combination — nothing the
            // rewriter could ever emit, so nothing to cross-check.
            return Ok(());
        };
        let flags = Flags {
            cf: flag_bits & 1 != 0,
            zf: flag_bits & 2 != 0,
            sf: flag_bits & 4 != 0,
            of: flag_bits & 8 != 0,
            pf: flag_bits & 16 != 0,
        };
        let reads = defuse::reads(&inst);
        let writes = defuse::writes(&inst);

        let before_mem = fx.snapshot();
        let mut m = Machine::new();
        fx.init(&mut m, &gprs, &xmms, flags);
        let before_cpu = m.cpu.clone();
        let mut stats = Stats::default();
        if m.step(&fx.img, &mut stats).is_err() {
            // Faulting corner (e.g. an unrepresentable conversion): the
            // def/use contract only covers completed instructions.
            return Ok(());
        }

        // Write soundness: any register the emulator changed is declared.
        for g in Gpr::ALL {
            if m.cpu.get(g) != before_cpu.get(g) {
                prop_assert!(
                    writes.contains(&Loc::Gpr(g)),
                    "{inst}: emulator changed {g:?} but defuse::writes omits it"
                );
            }
        }
        for (i, x) in Xmm::ALL.iter().enumerate() {
            if m.cpu.xmm[i] != before_cpu.xmm[i] {
                prop_assert!(
                    writes.contains(&Loc::Xmm(*x)),
                    "{inst}: emulator changed {x:?} but defuse::writes omits it"
                );
            }
        }
        let after_cpu = m.cpu.clone();
        let after_mem = fx.snapshot();

        // Read soundness: scramble every register outside reads ∪ writes
        // (the declared frame) and re-run; the effect must be identical.
        fx.restore(&before_mem);
        fx.init(&mut m, &gprs, &xmms, flags);
        for g in OPERAND_GPRS {
            if !reads.contains(&Loc::Gpr(g)) && !writes.contains(&Loc::Gpr(g)) {
                scramble(&mut m, Loc::Gpr(g));
            }
        }
        for x in &Xmm::ALL[..8] {
            if !reads.contains(&Loc::Xmm(*x)) && !writes.contains(&Loc::Xmm(*x)) {
                scramble(&mut m, Loc::Xmm(*x));
            }
        }
        prop_assert!(m.step(&fx.img, &mut stats).is_ok());
        same_effect(&inst, &m.cpu, &fx, (&after_cpu, &after_mem), &writes, "a register defuse::reads omits")?;

        // Write-only means whole definition: the old value of a location
        // written and not read reaches nothing the instruction produces.
        for loc in writes.iter().filter(|l| !reads.contains(l)) {
            fx.restore(&before_mem);
            fx.init(&mut m, &gprs, &xmms, flags);
            scramble(&mut m, *loc);
            prop_assert!(m.step(&fx.img, &mut stats).is_ok());
            let why = format!("the old value of {loc:?}, a write defuse::reads omits");
            same_effect(&inst, &m.cpu, &fx, (&after_cpu, &after_mem), &writes, &why)?;
        }

        // Flag claims: no flag changes unless `writes_flags`; unless
        // `reads_flags`, flipping every input flag changes no register and
        // no byte, and an instruction that defines all flags computes them
        // from its operands alone.
        if !inst.writes_flags() {
            prop_assert_eq!(after_cpu.flags, flags, "{}: flags changed, writes_flags says no", inst);
        }
        if !inst.reads_flags() {
            let flipped = Flags {
                cf: !flags.cf,
                zf: !flags.zf,
                sf: !flags.sf,
                of: !flags.of,
                pf: !flags.pf,
            };
            fx.restore(&before_mem);
            fx.init(&mut m, &gprs, &xmms, flipped);
            prop_assert!(m.step(&fx.img, &mut stats).is_ok());
            let all: Vec<Loc> = (Gpr::ALL.iter().map(|g| Loc::Gpr(*g)))
                .chain(Xmm::ALL[..8].iter().map(|x| Loc::Xmm(*x)))
                .collect();
            // The flags themselves are judged below.
            let now = CpuState {
                flags: after_cpu.flags,
                ..m.cpu.clone()
            };
            same_effect(&inst, &now, &fx, (&after_cpu, &after_mem), &all, "the flags reads_flags denies")?;
            match defuse::visit(&mut { inst }, &mut |_: Role, _: Site<'_>| {}) {
                FlagUse::None => prop_assert_eq!(m.cpu.flags, flipped, "{}: flags not passed through", inst),
                FlagUse::Define => prop_assert_eq!(m.cpu.flags, after_cpu.flags,
                    "{}: claims to define every flag but output flags depend on input flags", inst),
                FlagUse::Read | FlagUse::Write => {}
            }
        }
    }
}

/// Perturb every bit of one location.
fn scramble(m: &mut Machine, loc: Loc) {
    match loc {
        Loc::Gpr(g) => m.cpu.set(g, m.cpu.get(g) ^ 0x5A5A_5A5A_5A5A_5A5A),
        Loc::Xmm(x) => {
            let lanes = &mut m.cpu.xmm[x.number() as usize];
            lanes[0] ^= 0xA5A5_A5A5_A5A5_A5A5;
            lanes[1] ^= 0xA5A5_A5A5_A5A5_A5A5;
        }
    }
}

/// `now` holds the reference run's `rip`, flags, values in `locs` and
/// memory; `why` names what the difference would depend on.
fn same_effect(
    inst: &Inst,
    now: &CpuState,
    fx: &Fixture,
    (cpu, mem): (&CpuState, &MemSnapshot),
    locs: &[Loc],
    why: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(now.rip, cpu.rip);
    prop_assert_eq!(now.flags, cpu.flags, "{}: flags depend on {}", inst, why);
    for loc in locs {
        match loc {
            Loc::Gpr(g) => prop_assert_eq!(
                now.get(*g),
                cpu.get(*g),
                "{}: result in {:?} depends on {}",
                inst,
                g,
                why
            ),
            Loc::Xmm(x) => prop_assert_eq!(
                now.xmm[x.number() as usize],
                cpu.xmm[x.number() as usize],
                "{}: result in {:?} depends on {}",
                inst,
                x,
                why
            ),
        }
    }
    let bytes = fx.snapshot();
    prop_assert_eq!(
        &bytes.scratch[..],
        &mem.scratch[..],
        "{}: memory effect depends on {}",
        inst,
        why
    );
    prop_assert_eq!(
        &bytes.stack[..],
        &mem.stack[..],
        "{}: stack effect depends on {}",
        inst,
        why
    );
    Ok(())
}
