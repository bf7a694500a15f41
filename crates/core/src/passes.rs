//! Optimization passes over captured blocks (§III.G: "we run optimization
//! passes over the newly generated, captured blocks").
//!
//! The paper's prototype had none and still beat the generic code by >2×;
//! these passes close part of the remaining gap to the manual version; the
//! A2 ablation experiment walks them as one cumulative ladder, [`OptLevel`].

use crate::capture::CapturedBlock;
use crate::dataflow::cx::{bit, PassCx, Work};
use crate::dataflow::liveness;
use crate::dataflow::propagate_constants;
use crate::regalloc;

/// How far up the optimization ladder a rewrite goes. The levels are
/// cumulative: each one runs everything below it plus the stage it is
/// named after (the stages keep their own execution order, see
/// [`run_passes`]), so a request selects its passes with one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum OptLevel {
    /// No passes (paper-prototype fidelity mode).
    None,
    /// Remove no-op moves and lea identities, cancel balanced stack pairs
    /// (`regalloc::cancel_rsp_pairs`, the one rule for them), and sweep out
    /// flag-neutral register moves and plain frame stores that the shared
    /// liveness proves dead.
    Peephole,
    /// Move whole frame slots into provably-free scratch registers
    /// (`regalloc::allocate_slots`).
    SlotAlloc,
    /// Liveness-driven copy coalescing and address folding over the CFG
    /// (paper §IV "register renaming"). The highest level that stands on a
    /// local argument alone — what the manager re-emits at after an
    /// equivalence rejection.
    Regalloc,
    /// Forward dataflow over the captured CFG: propagate constants and
    /// copies through registers and frame slots, then collect what that
    /// kills with the flags- and slot-aware dead-code elimination; and in
    /// the register-allocation cleanup, the frame-reload rule (a reload of
    /// a slot whose value a register still holds becomes a move from it),
    /// which starts here. From here up a variant is publishable only when
    /// the translation-validation proof in `brew-verify` passes.
    #[default]
    Dataflow,
    /// Narrow the conservative `ABI_RET` live-out contract to exactly the
    /// declared return class plus callee-saved registers, unlocking
    /// coalescing of per-point XMM temporaries and address-chain registers.
    Aggressive,
}

impl OptLevel {
    /// Every level, lowest first.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::None,
        OptLevel::Peephole,
        OptLevel::SlotAlloc,
        OptLevel::Regalloc,
        OptLevel::Dataflow,
        OptLevel::Aggressive,
    ];

    /// The level a checkpoint byte names, if any.
    pub fn from_u8(b: u8) -> Option<OptLevel> {
        Self::ALL.get(usize::from(b)).copied()
    }
}

/// Run the passes `level` selects; returns the number of removed
/// instructions.
///
/// `frame_escaped` disables every frame-slot argument (an escaped frame
/// address means unknown loads may legally alias the frame).
pub fn run_passes(
    blocks: &mut [CapturedBlock],
    level: OptLevel,
    frame_escaped: bool,
    ret: crate::config::RetKind,
) -> u64 {
    run_passes_traced(blocks, level, frame_escaped, ret, None)
}

/// The frame-reload rule of the register-allocation cleanup (from
/// [`OptLevel::Dataflow`] up, a reload of a slot whose value a register
/// still holds becomes a move from it) run once more over `blocks`: how
/// many reloads it rewrites. The cleanup runs the rule to its fixpoint, so
/// on what [`run_passes`] left at those levels this reads 0.
pub fn forward_frame_reloads(
    blocks: &mut [CapturedBlock],
    level: OptLevel,
    frame_escaped: bool,
    ret: crate::config::RetKind,
) -> u64 {
    let mut cx = PassCx::new(blocks, level, frame_escaped, ret);
    let mut settled = vec![None; cx.len()];
    regalloc::forward_reloads(&mut cx, &mut settled)
}

/// One rung of the execution order: a stage runs from level `from` up.
struct Stage {
    name: &'static str,
    from: OptLevel,
    run: fn(&mut PassCx) -> u64,
    /// Its count is of instructions converted, not removed (the slot
    /// allocator's): it does not add to the total.
    converts: bool,
}

const fn stage(name: &'static str, from: OptLevel, run: fn(&mut PassCx) -> u64) -> Stage {
    Stage {
        name,
        from,
        run,
        converts: false,
    }
}

fn peephole_round(cx: &mut PassCx, merge_bumps: bool) -> u64 {
    (0..cx.len()).map(|b| peephole(cx, b, merge_bumps)).sum()
}

/// The stages in execution order. Every dead-code sweep removes plain
/// stores into frame slots the shared liveness proves dead; with the
/// forward pass on it also judges flag writers and push/pop
/// (`PassCx::full`), off it keeps to flag-neutral register moves besides.
const LADDER: [Stage; 6] = [
    stage("const-prop", OptLevel::Dataflow, propagate_constants),
    stage("dce", OptLevel::Peephole, liveness::eliminate_dead_code),
    // Converts memory moves to register moves (not removals, but the
    // conversions enable the peephole below to drop self-moves).
    Stage {
        converts: true,
        ..stage("slot-alloc", OptLevel::SlotAlloc, regalloc::allocate_slots)
    },
    // First peephole round: cancel the stack pairs the converted slots
    // and the sweep's dead pushes left. It merges no bumps: merging here
    // measured worse (`corpus-cold` `spec_cycles_pct` 13.5280 -> 13.5289,
    // P1 gsum 20 999 -> 21 177 cycles).
    stage("peephole", OptLevel::Peephole, |cx| {
        peephole_round(cx, false)
    }),
    // Coalesce the copy chains slot allocation leaves behind.
    stage("regalloc", OptLevel::Regalloc, regalloc::allocate),
    // Second round: merge the RSP bumps no pair claimed and drop register
    // writes orphaned by removed consumers.
    stage("peephole-2", OptLevel::Peephole, |cx| {
        let mut n = peephole_round(cx, true);
        // The allocator's own sweep has left nothing dead behind.
        if cx.level < OptLevel::Regalloc {
            n += liveness::eliminate_dead_code(cx);
            n += peephole_round(cx, true);
        }
        n
    }),
];

/// [`run_passes`] with optional span recording: each stage gets a
/// `cat:"pass"` span carrying its removal count (the slot allocator's
/// carries its conversion count) and, after it, the work it took: effects
/// decoded, of which for instructions it rewrote, blocks visited and
/// liveness fixpoints run. The context's own construction is on the first
/// stage's bill.
pub fn run_passes_traced(
    blocks: &mut [CapturedBlock],
    level: OptLevel,
    frame_escaped: bool,
    ret: crate::config::RetKind,
    mut rec: Option<&mut crate::telemetry::SpanRecorder>,
) -> u64 {
    if level == OptLevel::None {
        return 0;
    }
    let mut t0 = rec.as_ref().map(|r| r.now_ns());
    let mut cx = PassCx::new(blocks, level, frame_escaped, ret);
    let mut billed = Work::default();
    let mut removed = 0;
    for st in LADDER.iter().filter(|st| level >= st.from) {
        cx.refresh_scalar_only();
        let n = (st.run)(&mut cx);
        if !st.converts {
            removed += n;
        }
        if cfg!(debug_assertions) {
            cx.assert_coherent();
        }
        if let (Some(r), Some(start)) = (rec.as_deref_mut(), t0) {
            let w = cx.work();
            let args = [
                (if st.converts { "converted" } else { "removed" }, n),
                ("decodes", w.decodes - billed.decodes),
                ("rewritten", w.rewritten - billed.rewritten),
                ("visits", w.visits - billed.visits),
                ("solves", w.solves - billed.solves),
            ];
            let args = args.map(|(k, v)| (k.to_string(), v.to_string()));
            r.complete(st.name, "pass", start, args.to_vec());
            billed = w;
            t0 = Some(r.now_ns());
        }
    }
    removed
}

/// Remove no-op instructions and cancel stack pairs (the one rule,
/// `regalloc::cancel_rsp_pairs`, with the flags taken as live out of the
/// block). Runs to a fixpoint so cancellations cascade. `merge_bumps` also
/// merges adjacent `rsp` adjustments (`regalloc::merge_rsp_adjustments`,
/// the cleanup's rule, under the same flags assumption).
fn peephole(cx: &mut PassCx, b: usize, merge_bumps: bool) -> u64 {
    if cx.shape(b) & bit::PEEPHOLE == 0 {
        return 0;
    }
    cx.visit();
    let before = cx.insts(b).len();
    loop {
        let n = cx.insts(b).len();
        cx.retain(b, |_, e| !e.is(bit::NOOP));
        regalloc::cancel_rsp_pairs(cx, b, true);
        if merge_bumps {
            regalloc::merge_rsp_adjustments(cx, b, true);
        }
        if cx.insts(b).len() == n {
            break;
        }
    }
    (before - cx.insts(b).len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CapturedInst, Terminator};
    use brew_x86::prelude::*;

    fn block(insts: Vec<CapturedInst>) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts;
        b.term = Terminator::Ret;
        b.traced = true;
        b.is_entry = true;
        b
    }

    fn xmm_store(off: i32, src: Xmm) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
                src: Operand::Xmm(src),
            },
            frame_store: Some(off as i64),
            frame_load: None,
        }
    }

    fn xmm_load(dst: Xmm, off: i32) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Xmm(dst),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
            },
            frame_store: None,
            frame_load: Some(off as i64),
        }
    }

    fn xmm_mov(dst: Xmm, src: Xmm) -> Inst {
        Inst::MovSd {
            dst: Operand::Xmm(dst),
            src: Operand::Xmm(src),
        }
    }

    /// Constant/copy propagation and its dead-code sweep, nothing else.
    fn forward(insts: Vec<CapturedInst>) -> Vec<Inst> {
        let mut blocks = vec![block(insts)];
        let ret = crate::config::RetKind::F64;
        let mut cx = PassCx::new(&mut blocks, OptLevel::Dataflow, false, ret);
        propagate_constants(&mut cx);
        liveness::eliminate_dead_code(&mut cx);
        blocks[0].insts.iter().map(|ci| ci.inst).collect()
    }

    fn mov_store(off: i32, src: Gpr) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
                src: Operand::Reg(src),
            },
            frame_store: Some(off as i64),
            frame_load: None,
        }
    }

    fn mov_load(dst: Gpr, off: i32) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(dst),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
            },
            frame_store: None,
            frame_load: Some(off as i64),
        }
    }

    /// The dead-code sweep alone, under the conservative contract (the
    /// lowest rung that runs it) or the full one.
    fn dce(blocks: &mut [CapturedBlock], escaped: bool, full: bool) -> u64 {
        let level = if full {
            OptLevel::Dataflow
        } else {
            OptLevel::Peephole
        };
        let ret = crate::config::RetKind::Int;
        liveness::eliminate_dead_code(&mut PassCx::new(blocks, level, escaped, ret))
    }

    #[test]
    fn dse_removes_unloaded_stores() {
        for full in [false, true] {
            let mut blocks = vec![block(vec![
                mov_store(-8, Gpr::Rdi),  // never loaded -> dead
                mov_store(-16, Gpr::Rsi), // loaded below -> kept
                mov_load(Gpr::Rax, -16),
            ])];
            assert_eq!(dce(&mut blocks, false, full), 1);
            assert_eq!(blocks[0].insts.len(), 2);
        }
    }

    #[test]
    fn dse_keeps_a_store_a_narrow_load_reads_into() {
        // The 4-byte load at -4 reads the upper half of the 8-byte store
        // at -8: the offsets differ, the slot is the same.
        let mut narrow = mov_load(Gpr::Rax, -4);
        narrow.inst = Inst::Mov {
            w: Width::W32,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -4)),
        };
        for full in [false, true] {
            let mut blocks = vec![block(vec![mov_store(-8, Gpr::Rdi), narrow])];
            assert_eq!(dce(&mut blocks, false, full), 0);
            assert_eq!(blocks[0].insts.len(), 2);
        }
    }

    #[test]
    fn dse_respects_escape() {
        for level in [OptLevel::Peephole, OptLevel::default()] {
            let mut blocks = vec![block(vec![mov_store(-8, Gpr::Rdi)])];
            let ret = crate::config::RetKind::Int;
            assert_eq!(run_passes(&mut blocks, level, true, ret), 0);
        }
    }

    /// `mov [rsp-8], rdi` ahead of `barrier`, then whatever `after` is:
    /// how many instructions survive the sweep under each contract.
    fn store_across(barrier: Inst, after: Vec<CapturedInst>, escaped: bool) -> [usize; 2] {
        [false, true].map(|full| {
            let mut insts = vec![mov_store(-8, Gpr::Rdi), CapturedInst::plain(barrier)];
            insts.extend(after.iter().copied());
            let mut blocks = vec![block(insts)];
            dce(&mut blocks, escaped, full);
            blocks[0].insts.len()
        })
    }

    #[test]
    fn a_private_slot_stored_before_a_kept_call_and_never_loaded_again_dies() {
        let call = Inst::CallRel { target: 0x40_0000 };
        assert_eq!(store_across(call, vec![], false), [1, 1]);
        // Loaded before the call only: dead after it all the same.
        let mut blocks = vec![block(vec![
            mov_store(-8, Gpr::Rdi),
            mov_load(Gpr::Rax, -8),
            mov_store(-8, Gpr::Rsi),
            CapturedInst::plain(call),
        ])];
        assert_eq!(dce(&mut blocks, false, true), 1);
        assert_eq!(blocks[0].insts.len(), 3);
    }

    #[test]
    fn a_store_survives_a_load_after_the_call_an_escape_or_an_opaque_barrier() {
        let call = Inst::CallRel { target: 0x40_0000 };
        assert_eq!(
            store_across(call, vec![mov_load(Gpr::Rax, -8)], false),
            [3, 3]
        );
        assert_eq!(store_across(call, vec![], true), [2, 2]);
        let jmp = Inst::JmpInd {
            src: Operand::Reg(Gpr::Rax),
        };
        assert_eq!(store_across(jmp, vec![], false), [2, 2]);
        assert_eq!(store_across(Inst::Ud2, vec![], false), [2, 2]);
    }

    #[test]
    fn a_store_the_kept_call_jumps_through_survives() {
        // `mov [rsp-8], rdi; call [rsp-8]`: the callee pointer is the
        // call's own frame read, tagged by the tracer or not.
        let through = Inst::CallInd {
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
        };
        for tagged in [true, false] {
            let mut call = CapturedInst::plain(through);
            call.frame_load = tagged.then_some(-8);
            for full in [false, true] {
                let mut blocks = vec![block(vec![mov_store(-8, Gpr::Rdi), call])];
                assert_eq!(
                    dce(&mut blocks, false, full),
                    0,
                    "tagged {tagged} full {full}"
                );
                assert_eq!(blocks[0].insts.len(), 2);
            }
        }
    }

    #[test]
    fn store_to_load_forwarding() {
        // The load becomes a register move; the store, its only reader
        // gone, dies with the frame.
        let out = forward(vec![xmm_store(-8, Xmm::Xmm3), xmm_load(Xmm::Xmm0, -8)]);
        assert_eq!(out, vec![xmm_mov(Xmm::Xmm0, Xmm::Xmm3)]);
        // An absolute cell forwards integers too (and its store stays).
        let cell = MemRef::abs(0x60_1000);
        let store = Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(cell),
            src: Operand::Reg(Gpr::Rdi),
        };
        let load = Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Mem(cell),
        };
        let out = forward(vec![CapturedInst::plain(store), CapturedInst::plain(load)]);
        assert_eq!(
            out[1],
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdi),
            }
        );
    }

    #[test]
    fn forwarding_invalidated_by_overlapping_store() {
        let out = forward(vec![
            xmm_store(-8, Xmm::Xmm3),
            xmm_store(-8, Xmm::Xmm4),
            xmm_load(Xmm::Xmm0, -8),
        ]);
        assert_eq!(out, vec![xmm_mov(Xmm::Xmm0, Xmm::Xmm4)]);
    }

    #[test]
    fn forwarding_invalidated_by_register_redefinition() {
        let reload = xmm_load(Xmm::Xmm0, -8);
        let out = forward(vec![
            xmm_store(-8, Xmm::Xmm3),
            CapturedInst::plain(Inst::Sse {
                op: SseOp::Addsd,
                dst: Xmm::Xmm3,
                src: Operand::Xmm(Xmm::Xmm1),
            }),
            reload,
        ]);
        assert!(
            out.contains(&reload.inst),
            "xmm3 no longer holds the stored value: {out:?}"
        );
    }

    #[test]
    fn redundant_second_load_removed() {
        let out = forward(vec![xmm_load(Xmm::Xmm0, -8), xmm_load(Xmm::Xmm0, -8)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn call_kills_facts() {
        // The callee owns the stack below rsp: the reload stays a load
        // (and so does the store it might still read).
        let insts = vec![
            xmm_store(-8, Xmm::Xmm3),
            CapturedInst::plain(Inst::CallRel { target: 0x400000 }),
            xmm_load(Xmm::Xmm0, -8),
        ];
        let out = forward(insts.clone());
        assert_eq!(out, insts.iter().map(|ci| ci.inst).collect::<Vec<_>>());
    }

    #[test]
    fn peephole_noops() {
        let mut blocks = vec![block(vec![
            CapturedInst::plain(Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rax),
            }),
            CapturedInst::plain(Inst::Nop),
            CapturedInst::plain(Inst::Lea {
                dst: Gpr::Rbx,
                src: MemRef::base(Gpr::Rbx),
            }),
            CapturedInst::plain(Inst::Ret),
        ])];
        let removed = run_passes(
            &mut blocks,
            OptLevel::Peephole,
            false,
            crate::config::RetKind::Int,
        );
        assert_eq!(removed, 3);
        assert_eq!(blocks[0].insts.len(), 1);
    }

    #[test]
    fn the_peephole_merges_alu_adjustments_only_over_dead_flags() {
        // sub rsp, 8; sub rsp, 16  →  sub rsp, 24 when a later write kills
        // the flags both wrote; kept apart when the flags leave the block.
        let sub = |imm| Inst::Alu {
            op: AluOp::Sub,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rsp),
            src: Operand::Imm(imm),
        };
        let kill = Inst::Alu {
            op: AluOp::Xor,
            w: Width::W32,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Reg(Gpr::Rax),
        };
        let ret = crate::config::RetKind::Int;
        for (tail, want) in [
            (vec![kill], vec![sub(24), kill]),
            (vec![], vec![sub(8), sub(16)]),
        ] {
            let insts = [sub(8), sub(16)].into_iter().chain(tail);
            let mut blocks = vec![block(insts.map(CapturedInst::plain).collect())];
            let mut cx = PassCx::new(&mut blocks, OptLevel::Peephole, false, ret);
            peephole(&mut cx, 0, true);
            drop(cx);
            let left: Vec<Inst> = blocks[0].insts.iter().map(|ci| ci.inst).collect();
            assert_eq!(left, want);
        }
    }

    #[test]
    fn the_peephole_cancels_stack_pairs() {
        // push rbp; mov rax, [rsp+16]; pop rbp  →  mov rax, [rsp+8]
        let load = |disp| Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, disp)),
        };
        let rbp = Operand::Reg(Gpr::Rbp);
        let insts = [
            Inst::Push { src: rbp },
            load(16),
            Inst::Pop { dst: rbp },
            Inst::Ret,
        ];
        let mut blocks = vec![block(insts.map(CapturedInst::plain).to_vec())];
        let ret = crate::config::RetKind::Int;
        assert_eq!(run_passes(&mut blocks, OptLevel::Peephole, false, ret), 2);
        let left: Vec<Inst> = blocks[0].insts.iter().map(|ci| ci.inst).collect();
        assert_eq!(left, vec![load(8), Inst::Ret]);
    }

    #[test]
    fn w32_mov_self_not_removed() {
        // mov eax, eax zero-extends: not a no-op.
        let mut blocks = vec![block(vec![CapturedInst::plain(Inst::Mov {
            w: Width::W32,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Reg(Gpr::Rax),
        })])];
        let removed = run_passes(
            &mut blocks,
            OptLevel::default(),
            false,
            crate::config::RetKind::Int,
        );
        assert_eq!(removed, 0);
    }
}

#[cfg(test)]
mod dead_write_tests {
    use super::*;
    use crate::capture::{CapturedInst, Terminator};
    use brew_x86::prelude::*;

    /// The dead-code sweep on its own: conservative (`full = false`, what
    /// `dead_reg_writes` used to do block by block) or with flags, frame
    /// slots and the `ret` contract.
    fn sweep(insts: Vec<Inst>, full: bool) -> Vec<Inst> {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts.into_iter().map(CapturedInst::plain).collect();
        b.term = Terminator::Ret;
        b.traced = true;
        let mut blocks = vec![b];
        let level = if full {
            OptLevel::Dataflow
        } else {
            OptLevel::Regalloc
        };
        let ret = crate::config::RetKind::Int;
        liveness::eliminate_dead_code(&mut PassCx::new(&mut blocks, level, false, ret));
        blocks[0].insts.iter().map(|ci| ci.inst).collect()
    }

    fn lea(dst: Gpr, disp: i32) -> Inst {
        Inst::Lea {
            dst,
            src: MemRef::base_disp(Gpr::Rsp, disp),
        }
    }

    #[test]
    fn overwritten_lea_is_removed() {
        for full in [false, true] {
            let out = sweep(vec![lea(Gpr::Rbp, 16), lea(Gpr::Rbp, 32), Inst::Ret], full);
            assert_eq!(out, vec![lea(Gpr::Rbp, 32), Inst::Ret]);
        }
    }

    #[test]
    fn live_out_registers_are_kept() {
        for full in [false, true] {
            assert_eq!(sweep(vec![lea(Gpr::Rbp, 16), Inst::Ret], full).len(), 2);
        }
        // rcx means nothing to a caller, but only the full sweep says so.
        assert_eq!(sweep(vec![lea(Gpr::Rcx, 16), Inst::Ret], false).len(), 2);
        assert_eq!(sweep(vec![lea(Gpr::Rcx, 16), Inst::Ret], true).len(), 1);
    }

    #[test]
    fn partial_write_does_not_kill_producer() {
        // mov rax, 5 ; mov al, 1 ; use rax — the full write is NOT dead.
        let insts = vec![
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(5),
            },
            Inst::Mov {
                w: Width::W8,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(1),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base(Gpr::Rdi)),
                src: Operand::Reg(Gpr::Rax),
            },
            Inst::Ret,
        ];
        assert_eq!(sweep(insts.clone(), true), insts);
    }

    #[test]
    fn scalar_sse_write_does_not_kill_producer() {
        // movupd xmm1 <- [mem]; movsd xmm1 <- xmm0; movupd [mem] <- xmm1:
        // the first load still provides lane 1.
        let m = MemRef::abs(0x601000);
        let insts = vec![
            Inst::MovUpd {
                dst: Operand::Xmm(Xmm::Xmm1),
                src: Operand::Mem(m),
            },
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm1),
                src: Operand::Xmm(Xmm::Xmm0),
            },
            Inst::MovUpd {
                dst: Operand::Mem(m),
                src: Operand::Xmm(Xmm::Xmm1),
            },
            Inst::Ret,
        ];
        assert_eq!(sweep(insts.clone(), true), insts);
    }

    #[test]
    fn calls_make_everything_live() {
        let insts = vec![
            lea(Gpr::Rcx, 16),
            Inst::Alu {
                op: AluOp::Cmp,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Imm(0),
            },
            Inst::CallRel { target: 0x40_0000 },
            lea(Gpr::Rcx, 32),
            Inst::Ret,
        ];
        assert_eq!(sweep(insts, true).len(), 4, "only the second lea goes");
    }
}
