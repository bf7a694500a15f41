//! Frame compression: remove dead push/pop pairs left over from inlining.
//!
//! §VIII of the paper: *"As next step, we will implement register renaming
//! for improved inlining of small functions and deep call chains."* Full
//! renaming needs a register allocator; this pass captures the dominant
//! payoff with a structural argument instead: after inlining and
//! specialization, a callee's `push rbp … pop rbp` often brackets code that
//! never touches `rbp` or the saved slot — the pair is then a no-op except
//! for shifting RSP, so it can be deleted outright once every intervening
//! RSP-relative displacement is re-based by 8.
//!
//! A pair `push rX … close` is removable when, between the two (within one
//! captured block):
//! * no instruction reads or writes `rX` (for `pop rX` closes) — the
//!   register provably holds the pushed value already;
//! * no instruction addresses the saved slot through RSP;
//! * no call or indirect jump occurs (a callee may clobber `rX` and must
//!   see a well-formed stack);
//! * RSP is only moved by tracked amounts (push/pop/`sub`/`add`/`lea`
//!   with constant offsets), and the close happens at the slot's depth.
//!
//! The close is either `pop rX` (restores a value that is still in `rX`)
//! or the `lea rsp, [rsp+8]` left by an elided pop (the pushed value was
//! known; the slot is dead).
//!
//! Two rewrite strengths apply:
//! * if nothing allocates stack *deeper* than the slot in between, the
//!   pair is deleted outright and intervening RSP displacements shrink
//!   by 8;
//! * otherwise deletion would push deeper frame slots below RSP (where
//!   later pushes clobber them), so the pair is instead converted to
//!   flag-neutral `lea rsp, ±8` bumps — the layout stays, the dead store
//!   and reload go away, and the peephole merges the bumps into
//!   neighbouring adjustments.

use crate::capture::{CapturedBlock, CapturedInst};
use crate::dataflow::cx::{bit, rsp_bump, Kind, PassCx, RSP_LOST};
use brew_x86::prelude::*;

/// Run frame compression to a fixpoint; returns removed instruction count.
pub fn compress_frames(blocks: &mut [CapturedBlock]) -> u64 {
    let level = crate::passes::OptLevel::FrameCompression;
    compress(&mut PassCx::new(blocks, level, false, crate::RetKind::Int))
}

/// [`compress_frames`] as a stage of `run_passes`.
pub(crate) fn compress(cx: &mut PassCx) -> u64 {
    let mut removed = 0;
    let mut before = Vec::new();
    for b in 0..cx.len() {
        // A pair opens with a push, or with the bump a dead one became.
        if cx.shape(b) & (bit::PUSH_RI | bit::RSP_ADJUST) == 0 {
            continue;
        }
        cx.visit();
        removed += compress_block(cx, b, &mut before);
    }
    removed
}

/// The RSP-relative byte span an instruction's memory operand touches at the
/// current depth, or `None` if it has no RSP-based operand.
fn rsp_operand_span(inst: &Inst, cur: i64) -> Option<(i64, i64)> {
    let m = rsp_mem(inst)?;
    match inst {
        // Plain stack-pointer arithmetic, handled by the depth tracking.
        Inst::Lea { dst: Gpr::Rsp, .. } => None,
        // Any other lea with an rsp base *captures* a frame address
        // (materialized frame pointer); a dynamic offset could touch
        // anything.
        Inst::Lea { .. } => Some((i64::MIN / 2, i64::MAX / 2)),
        _ if m.index.is_some() => Some((i64::MIN / 2, i64::MAX / 2)),
        _ => {
            let width = if matches!(inst, Inst::MovUpd { .. }) {
                16
            } else {
                8
            };
            Some((cur + m.disp as i64, cur + m.disp as i64 + width))
        }
    }
}

/// Rewrite every qualifying pair of block `b`; returns the number of
/// instructions removed or simplified. `before` is scratch.
///
/// One pass from the end suffices: a rewrite at `i` leaves every
/// instruction below `i` and its depth as they were, and changes nothing a
/// later opener was refused for — a deletion has no opener inside it and
/// keeps the depths after it, a conversion keeps every depth.
fn compress_block(cx: &mut PassCx, b: usize, before: &mut Vec<i64>) -> u64 {
    let rsp = Loc::Gpr(Gpr::Rsp);
    // RSP offset relative to block entry before each instruction, up to
    // the first one that moves RSP untrackably: no pair opens past it.
    before.clear();
    let mut cur = 0;
    for e in cx.effects(b) {
        before.push(cur);
        if e.rsp == RSP_LOST {
            break;
        }
        cur += e.rsp;
    }
    let mut removed = 0;
    // Innermost pairs first: deleting them un-deepens enclosing pairs.
    'outer: for i in (0..before.len()).rev() {
        // Pushes of registers pair with pop/lea closes; a push of an
        // immediate, or what the dead-code sweep left of a push into a
        // dead slot, has no register to restore, so only dead-slot (lea)
        // closes apply.
        let ei = cx.effects(b)[i];
        if !(ei.is(bit::PUSH_RI) || ei.is_bump() && ei.rsp == -8) {
            continue;
        }
        let rx = match cx.insts(b)[i].inst {
            Inst::Push {
                src: Operand::Reg(r),
            } => Some(r),
            _ => None,
        };
        let slot = before[i] - 8; // the pushed slot's offset
        let mut depth = slot;
        let mut went_deeper = false;
        let mut touched_rx = false;

        // Scan forward for the close.
        for j in i + 1..cx.insts(b).len() {
            let (inst, e) = (cx.insts(b)[j].inst, cx.effects(b)[j]);
            // pop rX at the slot depth: full restore close; requires the
            // register untouched (the restore becomes a no-op).
            let restore = matches!(inst, Inst::Pop { dst: Operand::Reg(ry) } if Some(ry) == rx);
            if restore && depth == slot {
                if touched_rx {
                    continue 'outer;
                }
                // (Nothing to gain from this pair is 0.)
                removed += try_rewrite(cx, b, i, j, went_deeper);
                continue 'outer;
            }
            // The `lea rsp, [rsp+K]` left by elided pops / merged
            // epilogues. K == 8 at slot depth: exact dead-slot close. A
            // larger K that releases *through* the slot is a merged
            // multi-frame epilogue: the hole is dropped with it, so the
            // push can shrink to a bump (conversion only).
            if e.is_bump() && e.rsp > 0 {
                if depth == slot && e.rsp == 8 {
                    removed += try_rewrite(cx, b, i, j, went_deeper);
                    continue 'outer;
                }
                if depth <= slot && depth + e.rsp > slot {
                    // Crossing release: convert the push to a bump (a
                    // bump already is one) — the store is dropped, the
                    // 8-byte hole stays.
                    if ei.is(bit::PUSH_RI) {
                        cx.replace(b, i, rsp_bump(-8));
                        removed += 1;
                    }
                    continue 'outer;
                }
            }
            // Disqualifiers: a callee may clobber rX and must see a
            // well-formed stack; rX or the saved slot is touched; RSP moves
            // untrackably or is released past the slot without a close.
            let call = e.kind == Kind::Barrier && inst != Inst::Ud2;
            touched_rx |= rx.is_some_and(|r| e.refs(Loc::Gpr(r)));
            let on_slot = e.reads.has(rsp)
                && rsp_operand_span(&inst, depth)
                    .is_some_and(|(lo, hi)| lo < slot + 8 && hi > slot);
            if call || on_slot || e.rsp == RSP_LOST || depth + e.rsp > slot {
                continue 'outer;
            }
            depth += e.rsp;
            went_deeper |= depth < slot;
        }
    }
    removed
}

/// Rewrite the pair `(i, j)` of block `b`. With nothing allocated deeper
/// than the slot in between, delete both and re-base intervening RSP
/// displacements; otherwise convert both to flag-neutral RSP bumps (the
/// layout must stay: deleting would strand deeper slots below RSP where
/// later pushes clobber them). Returns removed/simplified instruction count.
fn try_rewrite(cx: &mut PassCx, b: usize, i: usize, j: usize, went_deeper: bool) -> u64 {
    if !went_deeper {
        // Verify rebased displacements stay encodable and non-negative
        // (a negative displacement would reach below RSP).
        let between = &cx.insts(b)[i + 1..j];
        if (between.iter()).any(|ci| rsp_mem(&ci.inst).is_some_and(|m| m.disp < 8)) {
            return 0;
        }
        for k in i + 1..j {
            // Frame metadata refers to pre-compression offsets; it is
            // consumed by earlier passes only; clear to avoid stale reuse.
            let ci = CapturedInst::plain(rebase_rsp(&cx.insts(b)[k].inst));
            if ci != cx.insts(b)[k] {
                cx.replace(b, k, ci);
            }
        }
        cx.remove(b, j);
        cx.remove(b, i);
        return 2;
    }
    // Conversion: keep the 8-byte hole, drop the dead store and reload.
    if !cx.effects(b)[i].is(bit::PUSH_RI) {
        return 0; // fixpoint: this pair is fully converted
    }
    cx.replace(b, i, rsp_bump(-8));
    cx.replace(b, j, rsp_bump(8));
    1
}

fn rsp_mem(inst: &Inst) -> Option<MemRef> {
    let pick = |m: MemRef| (m.base == Some(Gpr::Rsp)).then_some(m);
    inst.mem_load()
        .and_then(pick)
        .or_else(|| inst.mem_store().and_then(pick))
        .or_else(|| match inst {
            Inst::Lea { src, .. } => pick(*src),
            _ => None,
        })
}

/// Shift every RSP-based memory operand in `inst` down by 8.
fn rebase_rsp(inst: &Inst) -> Inst {
    // `lea rsp, [rsp+k]` is stack-pointer arithmetic: the relative
    // adjustment is invariant under the base shift. Every other lea forms
    // an address, which does shift.
    if matches!(inst, Inst::Lea { dst: Gpr::Rsp, src } if src.base == Some(Gpr::Rsp)) {
        return *inst;
    }
    let shift = |m: MemRef| MemRef {
        disp: m.disp - 8 * i32::from(m.base == Some(Gpr::Rsp)),
        ..m
    };
    inst.map_operands(|r| r, |x| x, shift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::Terminator;

    fn block(insts: Vec<Inst>) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts.into_iter().map(CapturedInst::plain).collect();
        b.term = Terminator::Ret;
        b.traced = true;
        b
    }

    #[test]
    fn removes_dead_push_pop_pair() {
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(1),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
            Inst::Ret,
        ])];
        assert_eq!(compress_frames(&mut blocks), 2);
        assert_eq!(blocks[0].insts.len(), 2);
    }

    #[test]
    fn bump_left_by_a_dead_push_pairs_with_its_release() {
        // lea rsp,[rsp-8]; mov rax,[rsp+16]; lea rsp,[rsp+8]  →  mov rax,[rsp+8]
        // — and a pair that cannot be rewritten does not hide the next one.
        let bump = |by| Inst::Lea {
            dst: Gpr::Rsp,
            src: MemRef::base_disp(Gpr::Rsp, by),
        };
        let load = |disp| Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, disp)),
        };
        let mut blocks = vec![block(vec![
            bump(-8),
            load(16),
            bump(8),
            // The slot itself is read: this pair must stay.
            bump(-8),
            load(0),
            bump(8),
        ])];
        assert_eq!(compress_frames(&mut blocks), 2);
        let left: Vec<Inst> = blocks[0].insts.iter().map(|ci| ci.inst).collect();
        assert_eq!(left, vec![load(8), bump(-8), load(0), bump(8)]);
    }

    #[test]
    fn rebases_intervening_rsp_operands() {
        // push rbp; mov rax, [rsp+16]; pop rbp  →  mov rax, [rsp+8]
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, 16)),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
        ])];
        assert_eq!(compress_frames(&mut blocks), 2);
        assert_eq!(
            blocks[0].insts[0].inst,
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, 8)),
            }
        );
    }

    #[test]
    fn keeps_pair_when_register_is_used() {
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rbp),
                src: Operand::Imm(0),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
        ])];
        assert_eq!(compress_frames(&mut blocks), 0);
    }

    #[test]
    fn keeps_pair_when_slot_is_read() {
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base(Gpr::Rsp)), // the saved slot
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
        ])];
        assert_eq!(compress_frames(&mut blocks), 0);
    }

    #[test]
    fn keeps_pair_across_calls() {
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::CallRel { target: 0x40_0000 },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
        ])];
        assert_eq!(compress_frames(&mut blocks), 0);
    }

    #[test]
    fn elided_pop_close_requires_dead_slot() {
        // push rbx; lea rsp,[rsp+8]  (elided pop): the pushed value is
        // dead, pair removable even though rbx is 'restored' elsewhere.
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbx),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(3),
            },
            Inst::Lea {
                dst: Gpr::Rsp,
                src: MemRef::base_disp(Gpr::Rsp, 8),
            },
        ])];
        assert_eq!(compress_frames(&mut blocks), 2);
        assert_eq!(blocks[0].insts.len(), 1);
    }

    #[test]
    fn nested_pairs_cascade() {
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Push {
                src: Operand::Reg(Gpr::Rbx),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(1),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbx),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
        ])];
        assert_eq!(compress_frames(&mut blocks), 4);
        assert_eq!(blocks[0].insts.len(), 1);
    }

    #[test]
    fn mismatched_depth_is_left_alone() {
        // push rbp; sub rsp, 8; pop rbp — the pop is NOT at the slot depth.
        let mut blocks = vec![block(vec![
            Inst::Push {
                src: Operand::Reg(Gpr::Rbp),
            },
            Inst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(8),
            },
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbp),
            },
        ])];
        assert_eq!(compress_frames(&mut blocks), 0);
    }
}
