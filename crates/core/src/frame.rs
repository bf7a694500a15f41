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
use brew_x86::prelude::*;

/// Run frame compression to a fixpoint; returns removed instruction count.
pub fn compress_frames(blocks: &mut [CapturedBlock]) -> u64 {
    let mut removed = 0;
    for b in blocks.iter_mut() {
        loop {
            match compress_one(b) {
                0 => break,
                n => removed += n,
            }
        }
    }
    removed
}

/// How an instruction moves RSP, if trackably.
fn rsp_delta(inst: &Inst) -> Option<i64> {
    match inst {
        Inst::Push { .. } => Some(-8),
        Inst::Pop { .. } => Some(8),
        Inst::Alu {
            op: AluOp::Sub,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rsp),
            src: Operand::Imm(k),
        } => Some(-k),
        Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rsp),
            src: Operand::Imm(k),
        } => Some(*k),
        Inst::Lea {
            dst: Gpr::Rsp,
            src:
                MemRef {
                    base: Some(Gpr::Rsp),
                    index: None,
                    disp,
                },
        } => Some(*disp as i64),
        _ => {
            let mut writes_rsp = false;
            defuse::for_each_write(inst, &mut |l| {
                if l == defuse::Loc::Gpr(Gpr::Rsp) {
                    writes_rsp = true;
                }
            });
            if writes_rsp {
                None // untracked RSP modification
            } else {
                Some(0)
            }
        }
    }
}

/// The RSP-relative byte span an instruction's memory operands touch at the
/// current depth, or `None` if it has no RSP-based operand.
fn rsp_operand_span(inst: &Inst, cur: i64) -> Option<(i64, i64)> {
    let span = |m: &MemRef| -> Option<(i64, i64)> {
        if m.base == Some(Gpr::Rsp) {
            let width = if matches!(inst, Inst::MovUpd { .. }) {
                16
            } else {
                8
            };
            if m.index.is_some() {
                // Dynamic offset: could touch anything.
                return Some((i64::MIN / 2, i64::MAX / 2));
            }
            Some((cur + m.disp as i64, cur + m.disp as i64 + width))
        } else {
            None
        }
    };
    let mut acc: Option<(i64, i64)> = None;
    let mut merge = |s: Option<(i64, i64)>| {
        if let Some((a, b)) = s {
            acc = Some(match acc {
                None => (a, b),
                Some((x, y)) => (x.min(a), y.max(b)),
            });
        }
    };
    if let Some(m) = inst.mem_load() {
        merge(span(&m));
    }
    if let Some(m) = inst.mem_store() {
        merge(span(&m));
    }
    // lea with an rsp base *captures* a frame address (materialized frame
    // pointer) — unless it targets RSP itself, which is plain stack-pointer
    // arithmetic handled by the depth tracking.
    if let Inst::Lea { dst, src } = inst {
        if src.base == Some(Gpr::Rsp) && *dst != Gpr::Rsp {
            merge(Some((i64::MIN / 2, i64::MAX / 2)));
        }
    }
    acc
}

/// Try to rewrite one pair in `b`; returns the number of instructions
/// removed or simplified (0 when no pair qualifies).
fn compress_one(b: &mut CapturedBlock) -> u64 {
    // Innermost pairs first: deleting them un-deepens enclosing pairs.
    'outer: for i in (0..b.insts.len()).rev() {
        // Pushes of registers pair with pop/lea closes; pushes of
        // immediates have no register to restore, so only dead-slot (lea)
        // closes apply.
        let rx = match b.insts[i].inst {
            Inst::Push {
                src: Operand::Reg(r),
            } => Some(r),
            // A push of an immediate, or what the dead-code sweep left of
            // a push into a dead slot.
            Inst::Push {
                src: Operand::Imm(_),
            }
            | Inst::Lea {
                dst: Gpr::Rsp,
                src:
                    MemRef {
                        base: Some(Gpr::Rsp),
                        index: None,
                        disp: -8,
                    },
            } => None,
            _ => continue,
        };
        // Depth bookkeeping: cur = RSP offset relative to block entry.
        let mut cur: i64 = 0;
        for ci in &b.insts[..i] {
            match rsp_delta(&ci.inst) {
                Some(d) => cur += d,
                None => continue 'outer,
            }
        }
        let slot = cur - 8; // the pushed slot's offset
        let mut depth = slot;
        let mut went_deeper = false;
        let mut touched_rx = false;

        // Scan forward for the close.
        let mut j = i + 1;
        while j < b.insts.len() {
            let inst = &b.insts[j].inst.clone();
            // Candidate closes.
            match inst {
                // pop rX at the slot depth: full restore close; requires
                // the register untouched (the restore becomes a no-op).
                Inst::Pop {
                    dst: Operand::Reg(ry),
                } if depth == slot && Some(*ry) == rx => {
                    if touched_rx {
                        continue 'outer;
                    }
                    match try_rewrite(b, i, j, slot, went_deeper) {
                        // Nothing to gain from this pair; try the others.
                        0 => continue 'outer,
                        n => return n,
                    }
                }
                // The `lea rsp, [rsp+K]` left by elided pops / merged
                // epilogues. K == 8 at slot depth: exact dead-slot close.
                // A larger K that releases *through* the slot is a merged
                // multi-frame epilogue: the hole is dropped with it, so
                // the push can shrink to a bump (conversion only).
                Inst::Lea {
                    dst: Gpr::Rsp,
                    src:
                        MemRef {
                            base: Some(Gpr::Rsp),
                            index: None,
                            disp,
                        },
                } if *disp > 0 => {
                    let k = *disp as i64;
                    if depth == slot && k == 8 {
                        match try_rewrite(b, i, j, slot, went_deeper) {
                            0 => continue 'outer,
                            n => return n,
                        }
                    }
                    if depth <= slot && depth + k > slot {
                        // Crossing release: convert the push to a bump
                        // (a bump already is one).
                        if matches!(b.insts[i].inst, Inst::Push { .. }) {
                            return convert_push(b, i);
                        }
                        continue 'outer;
                    }
                }
                _ => {}
            }
            // Disqualifiers.
            if matches!(
                inst,
                Inst::CallRel { .. } | Inst::CallInd { .. } | Inst::JmpInd { .. }
            ) {
                continue 'outer;
            }
            if let Some(rx) = rx {
                defuse::for_each_read(inst, &mut |l| {
                    if l == defuse::Loc::Gpr(rx) {
                        touched_rx = true;
                    }
                });
                defuse::for_each_write(inst, &mut |l| {
                    if l == defuse::Loc::Gpr(rx) {
                        touched_rx = true;
                    }
                });
            }
            if let Some((lo, hi)) = rsp_operand_span(inst, depth) {
                if lo < slot + 8 && hi > slot {
                    continue 'outer; // touches the saved slot
                }
            }
            match rsp_delta(inst) {
                Some(d) => depth += d,
                None => continue 'outer,
            }
            if depth < slot {
                went_deeper = true;
            }
            if depth > slot {
                // Stack released past the slot without a recognized close.
                continue 'outer;
            }
            j += 1;
        }
    }
    0
}

/// Convert a push whose slot dies inside a merged (crossing) release:
/// the store is dropped, the 8-byte hole stays.
fn convert_push(b: &mut CapturedBlock, i: usize) -> u64 {
    b.insts[i] = CapturedInst::plain(Inst::Lea {
        dst: Gpr::Rsp,
        src: MemRef::base_disp(Gpr::Rsp, -8),
    });
    1
}

/// Rewrite the pair `(i, j)`. With nothing allocated deeper than the slot
/// in between, delete both and re-base intervening RSP displacements;
/// otherwise convert both to flag-neutral RSP bumps (the layout must stay:
/// deleting would strand deeper slots below RSP where later pushes clobber
/// them). Returns removed/simplified instruction count.
fn try_rewrite(b: &mut CapturedBlock, i: usize, j: usize, slot: i64, went_deeper: bool) -> u64 {
    let _ = slot;
    if !went_deeper {
        // Verify rebased displacements stay encodable and non-negative
        // (a negative displacement would reach below RSP).
        for ci in &b.insts[i + 1..j] {
            if let Some(m) = rsp_mem(&ci.inst) {
                if m.disp < 8 {
                    return 0;
                }
            }
        }
        for ci in b.insts[i + 1..j].iter_mut() {
            ci.inst = rebase_rsp(&ci.inst);
            // Frame metadata refers to pre-compression offsets; it is
            // consumed by earlier passes only; clear to avoid stale reuse.
            ci.frame_store = None;
            ci.frame_load = None;
        }
        b.insts.remove(j);
        b.insts.remove(i);
        return 2;
    }
    // Conversion: keep the 8-byte hole, drop the dead store and reload.
    let already = matches!(
        b.insts[i].inst,
        Inst::Lea {
            dst: Gpr::Rsp,
            src: MemRef {
                base: Some(Gpr::Rsp),
                index: None,
                disp: -8
            }
        }
    );
    if already {
        return 0; // fixpoint: this pair is fully converted
    }
    b.insts[i] = CapturedInst::plain(Inst::Lea {
        dst: Gpr::Rsp,
        src: MemRef::base_disp(Gpr::Rsp, -8),
    });
    b.insts[j] = CapturedInst::plain(Inst::Lea {
        dst: Gpr::Rsp,
        src: MemRef::base_disp(Gpr::Rsp, 8),
    });
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
    fn fix(m: MemRef) -> MemRef {
        if m.base == Some(Gpr::Rsp) {
            MemRef {
                disp: m.disp - 8,
                ..m
            }
        } else {
            m
        }
    }
    let fix_op = |o: Operand| match o {
        Operand::Mem(m) => Operand::Mem(fix(m)),
        o => o,
    };
    let mut out = *inst;
    match &mut out {
        Inst::Mov { dst, src, .. } => {
            *dst = fix_op(*dst);
            *src = fix_op(*src);
        }
        Inst::Movsxd { src, .. }
        | Inst::Movzx8 { src, .. }
        | Inst::Imul { src, .. }
        | Inst::ImulImm { src, .. }
        | Inst::Idiv { src, .. }
        | Inst::Push { src }
        | Inst::Cvtsi2sd { src, .. }
        | Inst::Cvttsd2si { src, .. } => *src = fix_op(*src),
        // `lea rsp, [rsp+k]` is stack-pointer arithmetic: the relative
        // adjustment is invariant under the base shift. Every other lea
        // forms an address, which does shift.
        Inst::Lea { dst, src } if *dst != Gpr::Rsp || src.base != Some(Gpr::Rsp) => {
            *src = fix(*src);
        }
        Inst::Alu { dst, src, .. } => {
            *dst = fix_op(*dst);
            *src = fix_op(*src);
        }
        Inst::Test { a, b, .. } => {
            *a = fix_op(*a);
            *b = fix_op(*b);
        }
        Inst::Unary { dst, .. } | Inst::Shift { dst, .. } | Inst::Pop { dst } => {
            *dst = fix_op(*dst)
        }
        Inst::Setcc { dst, .. } => *dst = fix_op(*dst),
        Inst::MovSd { dst, src } | Inst::MovUpd { dst, src } => {
            *dst = fix_op(*dst);
            *src = fix_op(*src);
        }
        Inst::Sse { src, .. } | Inst::Ucomisd { b: src, .. } => *src = fix_op(*src),
        _ => {}
    }
    out
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
