//! Optimization passes over captured blocks (§III.G: "we run optimization
//! passes over the newly generated, captured blocks").
//!
//! The paper's prototype had none and still beat the generic code by >2×;
//! these passes close part of the remaining gap to the manual version; the
//! A2 ablation experiment walks them as one cumulative ladder, [`OptLevel`].

use crate::capture::{CapturedBlock, CapturedInst};
use crate::dataflow::{liveness, propagate_constants};
use brew_x86::prelude::*;
use brew_x86::WordSet;

/// How far up the optimization ladder a rewrite goes. The levels are
/// cumulative: each one runs everything below it plus the stage it is
/// named after (the stages keep their own execution order, see
/// [`run_passes`]), so a request selects its passes with one comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
#[repr(u8)]
pub enum OptLevel {
    /// No passes (paper-prototype fidelity mode).
    None,
    /// Remove no-op moves and lea identities, cancel dead stack-temp pairs.
    Peephole,
    /// Remove stores to frame slots that no emitted instruction reads.
    DeadStores,
    /// Move whole frame slots into provably-free scratch registers
    /// (`regalloc::allocate_slots`).
    SlotAlloc,
    /// Remove dead push/pop pairs from inlined frames (§VIII "improved
    /// inlining of small functions and deep call chains").
    FrameCompression,
    /// Liveness-driven copy coalescing and address folding over the CFG
    /// (paper §IV "register renaming"). The highest level that stands on a
    /// local argument alone — what the manager re-emits at after an
    /// equivalence rejection.
    Regalloc,
    /// Forward dataflow over the captured CFG: propagate constants and
    /// copies through registers and frame slots, then collect what that
    /// kills with the flags- and slot-aware dead-code elimination. From
    /// here up a variant is publishable only when the translation-
    /// validation proof in `brew-verify` passes.
    #[default]
    Dataflow,
    /// Narrow the conservative `ABI_RET` live-out contract to exactly the
    /// declared return class plus callee-saved registers, unlocking
    /// coalescing of per-point XMM temporaries and address-chain registers.
    Aggressive,
}

impl OptLevel {
    /// Every level, lowest first.
    pub const ALL: [OptLevel; 8] = [
        OptLevel::None,
        OptLevel::Peephole,
        OptLevel::DeadStores,
        OptLevel::SlotAlloc,
        OptLevel::FrameCompression,
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

/// [`run_passes`] with optional span recording: each enabled pass gets a
/// `cat:"pass"` span carrying its removal count (the slot allocator's
/// carries its conversion count).
pub fn run_passes_traced(
    blocks: &mut [CapturedBlock],
    level: OptLevel,
    frame_escaped: bool,
    ret: crate::config::RetKind,
    mut rec: Option<&mut crate::telemetry::SpanRecorder>,
) -> u64 {
    let mut removed = 0;
    let staged = |rec: &mut Option<&mut crate::telemetry::SpanRecorder>,
                  name: &'static str,
                  counts: &'static str,
                  f: &mut dyn FnMut() -> u64|
     -> u64 {
        let t0 = rec.as_ref().map(|r| r.now_ns());
        let n = f();
        if let (Some(r), Some(t0)) = (rec.as_deref_mut(), t0) {
            r.complete(name, "pass", t0, vec![(counts.into(), n.to_string())]);
        }
        n
    };
    // With the forward pass on, every dead-code sweep also judges flag
    // writers, frame stores and push/pop; off, the sweeps keep to
    // flag-neutral register moves.
    let full = level >= OptLevel::Dataflow;
    let ret_live = liveness::abi_ret(level >= OptLevel::Aggressive, ret);
    if full {
        removed += staged(&mut rec, "const-prop", "removed", &mut || {
            propagate_constants(blocks, frame_escaped)
        });
        removed += staged(&mut rec, "dce", "removed", &mut || {
            liveness::eliminate_dead_code(blocks, frame_escaped, ret_live, full)
        });
    }
    if level >= OptLevel::DeadStores && !frame_escaped {
        removed += staged(&mut rec, "dead-store-elim", "removed", &mut || {
            dead_frame_stores(blocks)
        });
    }
    if level >= OptLevel::SlotAlloc {
        // Converts memory moves to register moves (not removals, but the
        // conversions enable the peephole below to drop self-moves).
        staged(&mut rec, "slot-alloc", "converted", &mut || {
            crate::regalloc::allocate_slots(blocks, frame_escaped)
        });
    }
    if level >= OptLevel::Peephole {
        // First peephole round: cancel adjacent stack-temp pairs so frame
        // compression sees the minimal push population.
        removed += staged(&mut rec, "peephole", "removed", &mut || {
            blocks.iter_mut().map(|b| peephole(b, false)).sum()
        });
    }
    if level >= OptLevel::FrameCompression {
        removed += staged(&mut rec, "frame-compression", "removed", &mut || {
            crate::frame::compress_frames(blocks)
        });
    }
    if level >= OptLevel::Regalloc {
        // Coalesce the copy chains slot allocation leaves behind.
        removed += staged(&mut rec, "regalloc", "removed", &mut || {
            crate::regalloc::allocate(blocks, frame_escaped, ret, level)
        });
    }
    if level >= OptLevel::Peephole {
        // Second round: merge the RSP bumps frame compression introduced
        // and drop register writes orphaned by removed consumers.
        removed += staged(&mut rec, "peephole-2", "removed", &mut || {
            let mut n: u64 = blocks.iter_mut().map(|b| peephole(b, true)).sum();
            // The allocator's own sweep has left nothing dead behind.
            if level < OptLevel::Regalloc {
                n += liveness::eliminate_dead_code(blocks, frame_escaped, ret_live, full);
                n += blocks.iter_mut().map(|b| peephole(b, true)).sum::<u64>();
            }
            n
        });
    }
    removed
}

/// Global frame dead-store elimination: a plain store (`mov`/`movsd` to a
/// tracked frame slot) is dead when no emitted instruction anywhere loads
/// that slot. Pushes and read-modify-writes are kept (they have additional
/// effects). Sound because the frame is dead after return and, with no
/// escaped frame address, no untracked access can alias it.
fn dead_frame_stores(blocks: &mut [CapturedBlock]) -> u64 {
    let mut loaded: WordSet<i64> = WordSet::default();
    for b in blocks.iter() {
        for ci in &b.insts {
            if let Some(off) = ci.frame_load {
                loaded.extend(liveness::slot_keys(off, ci.inst.mem_width()));
            }
        }
    }
    let mut removed = 0;
    for b in blocks.iter_mut() {
        b.insts.retain(|ci| {
            let Some(off) = ci.frame_store else {
                return true;
            };
            let pure_store = matches!(
                ci.inst,
                Inst::Mov {
                    dst: Operand::Mem(_),
                    ..
                } | Inst::MovSd {
                    dst: Operand::Mem(_),
                    ..
                }
            );
            // Dead only when no load touches any slot the store covers.
            let dead = pure_store
                && !liveness::slot_keys(off, ci.inst.mem_width()).any(|k| loaded.contains(&k));
            if dead {
                removed += 1;
            }
            !dead
        });
    }
    removed
}

/// Remove no-op instructions and cancel dead stack-temp pairs left behind
/// by constant folding (`push X; lea rsp,[rsp+8]`, `push X; pop Y`, ...).
/// Runs to a fixpoint so cancellations cascade. `merge_bumps` also folds
/// adjacent `lea rsp` bumps into one — not before frame compression, which
/// pairs a single-slot bump with its release.
fn peephole(b: &mut CapturedBlock, merge_bumps: bool) -> u64 {
    let before = b.insts.len();
    loop {
        let n = b.insts.len();
        peephole_singletons(b);
        peephole_pairs(b, merge_bumps);
        if b.insts.len() == n {
            break;
        }
    }
    (before - b.insts.len()) as u64
}

fn peephole_singletons(b: &mut CapturedBlock) {
    b.insts.retain(|ci| {
        !matches!(
            ci.inst,
            Inst::Mov { w: Width::W64, dst: Operand::Reg(a), src: Operand::Reg(c) } if a == c
        ) && !matches!(
            ci.inst,
            Inst::MovSd { dst: Operand::Xmm(a), src: Operand::Xmm(c) } if a == c
        ) && !matches!(
            ci.inst,
            Inst::Lea { dst, src: MemRef { base: Some(bb), index: None, disp: 0 } } if dst == bb
        ) && !matches!(ci.inst, Inst::Nop)
    });
}

/// `lea rsp, [rsp+8]` — the elided-pop stack adjustment.
fn is_rsp_bump8(i: &Inst) -> bool {
    matches!(
        i,
        Inst::Lea {
            dst: Gpr::Rsp,
            src: MemRef {
                base: Some(Gpr::Rsp),
                index: None,
                disp: 8
            }
        }
    )
}

fn peephole_pairs(b: &mut CapturedBlock, merge_bumps: bool) {
    let mut out: Vec<CapturedInst> = Vec::with_capacity(b.insts.len());
    let mut i = 0;
    while i < b.insts.len() {
        if i + 1 < b.insts.len() {
            let (a, c) = (&b.insts[i].inst, &b.insts[i + 1].inst);
            // push X ; lea rsp,[rsp+8]  →  nothing (slot is below RSP and
            // dead afterwards; neither instruction touches flags).
            if matches!(
                a,
                Inst::Push {
                    src: Operand::Reg(_) | Operand::Imm(_)
                }
            ) && is_rsp_bump8(c)
            {
                i += 2;
                continue;
            }
            // push X ; pop Y  →  mov Y, X (or nothing when X == Y).
            if let (
                Inst::Push { src },
                Inst::Pop {
                    dst: Operand::Reg(d),
                },
            ) = (a, c)
            {
                match src {
                    Operand::Reg(s) if s == d => {
                        i += 2;
                        continue;
                    }
                    Operand::Reg(s) => {
                        out.push(CapturedInst::plain(Inst::Mov {
                            w: Width::W64,
                            dst: Operand::Reg(*d),
                            src: Operand::Reg(*s),
                        }));
                        i += 2;
                        continue;
                    }
                    Operand::Imm(v) => {
                        out.push(CapturedInst::plain(Inst::Mov {
                            w: Width::W64,
                            dst: Operand::Reg(*d),
                            src: Operand::Imm(*v),
                        }));
                        i += 2;
                        continue;
                    }
                    _ => {}
                }
            }
            // lea rsp,[rsp+a] ; lea rsp,[rsp+b]  →  one combined bump.
            if let (
                Inst::Lea {
                    dst: Gpr::Rsp,
                    src:
                        MemRef {
                            base: Some(Gpr::Rsp),
                            index: None,
                            disp: d1,
                        },
                },
                Inst::Lea {
                    dst: Gpr::Rsp,
                    src:
                        MemRef {
                            base: Some(Gpr::Rsp),
                            index: None,
                            disp: d2,
                        },
                },
            ) = (a, c)
            {
                if let Some(d) = d1.checked_add(*d2).filter(|_| merge_bumps) {
                    if d != 0 {
                        out.push(CapturedInst::plain(Inst::Lea {
                            dst: Gpr::Rsp,
                            src: MemRef::base_disp(Gpr::Rsp, d),
                        }));
                    }
                    i += 2;
                    continue;
                }
            }
        }
        out.push(b.insts[i]);
        i += 1;
    }
    b.insts = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::Terminator;

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
        propagate_constants(&mut blocks, false);
        liveness::eliminate_dead_code(
            &mut blocks,
            false,
            liveness::abi_ret(false, crate::config::RetKind::F64),
            true,
        );
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

    #[test]
    fn dse_removes_unloaded_stores() {
        let mut blocks = vec![block(vec![
            mov_store(-8, Gpr::Rdi),  // never loaded -> dead
            mov_store(-16, Gpr::Rsi), // loaded below -> kept
            mov_load(Gpr::Rax, -16),
        ])];
        let removed = dead_frame_stores(&mut blocks);
        assert_eq!(removed, 1);
        assert_eq!(blocks[0].insts.len(), 2);
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
        let mut blocks = vec![block(vec![mov_store(-8, Gpr::Rdi), narrow])];
        assert_eq!(dead_frame_stores(&mut blocks), 0);
        assert_eq!(blocks[0].insts.len(), 2);
    }

    #[test]
    fn dse_respects_escape() {
        let mut blocks = vec![block(vec![mov_store(-8, Gpr::Rdi)])];
        let removed = run_passes(
            &mut blocks,
            OptLevel::default(),
            true,
            crate::config::RetKind::Int,
        );
        assert_eq!(removed, 0);
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
    use crate::capture::Terminator;
    use crate::dataflow::liveness::LiveSet;

    /// The dead-code sweep on its own: conservative (`full = false`, what
    /// `dead_reg_writes` used to do block by block) or with flags, frame
    /// slots and the `ret` contract.
    fn sweep(insts: Vec<Inst>, full: bool) -> Vec<Inst> {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts.into_iter().map(CapturedInst::plain).collect();
        b.term = Terminator::Ret;
        b.traced = true;
        let mut blocks = vec![b];
        liveness::eliminate_dead_code(&mut blocks, false, LiveSet::ABI_RET, full);
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
