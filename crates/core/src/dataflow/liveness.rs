//! Backward liveness over the captured CFG — registers, XMM registers,
//! the arithmetic flags and 8-byte frame slots — and the dead-code
//! elimination it drives. The state types live here; the per-instruction
//! [`Effect`]s, the block summaries and the fixpoint are the analysis
//! context's ([`PassCx`]), which the register allocator's cleanup
//! sub-passes read too, so there is one `full_def`, one flag-kill rule and
//! one solution in the crate.
//!
//! XMM high lanes: register-to-register `movsd` and `cvtsi2sd` merge the
//! destination's upper 64 bits, so they are not full definitions — unless
//! the captured code is *scalar only* (no packed SSE, no `movupd`, no kept
//! calls), in which case no instruction can ever observe a high lane and
//! both count as full defs.
//!
//! Frame slots are named by the entry-rsp-relative offsets the tracer left
//! in `CapturedInst::frame_load` / `CapturedInst::frame_store` and are
//! only reasoned about while the frame has not escaped. This solution is
//! the only one in the pass pipeline that says whether a slot is read
//! again: the dead-code sweep removes stores by it at every level, and the
//! slot allocator takes its extents from it. One aliasing rule holds
//! throughout: an rsp-based read without that metadata reads every slot
//! (the tracer tags every access it emits, hook save areas included), an
//! indirect jump or `ud2` reads every slot, and a kept call only the slot
//! it jumps through (`call [rsp+d]`) — a callee cannot name the private
//! frame.

use super::cx::{bit, rsp_bump, slots_dead, Kind, PassCx, NO_SLOT};
use crate::config::RetKind;
use brew_x86::prelude::*;

/// Bitset of live registers: bit = hardware register number, the GPRs in
/// the low half and the XMM registers in the high one. (One word, so a
/// transfer is one load, two operations and one store.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LiveSet(u32);

impl LiveSet {
    pub const EMPTY: LiveSet = LiveSet(0);
    pub const ALL: LiveSet = LiveSet(!0);
    /// What an observer can read after `ret`: the integer and float return
    /// registers, the stack/frame pointers, and the callee-saved set. Our
    /// harnesses only compare `rax`/`xmm0` (plus `rdx:rax` and `xmm1` for
    /// wide returns), but the callee-saved registers are part of the
    /// contract with any real caller.
    pub const ABI_RET: LiveSet = LiveSet::of(
        (1 << 0) | (1 << 2) | (1 << 3) | (1 << 4) | (1 << 5) | 0xf000,
        0b11,
    );

    pub const fn of(gpr: u16, xmm: u16) -> LiveSet {
        LiveSet(gpr as u32 | (xmm as u32) << 16)
    }
    pub fn gpr(self) -> u16 {
        self.0 as u16
    }
    fn bit(l: Loc) -> u32 {
        match l {
            Loc::Gpr(g) => 1 << g.number(),
            Loc::Xmm(x) => 1 << (16 + x.number()),
        }
    }
    pub fn has(self, l: Loc) -> bool {
        self.0 & Self::bit(l) != 0
    }
    pub fn set(&mut self, l: Loc) {
        self.0 |= Self::bit(l);
    }
    pub fn union(self, o: LiveSet) -> LiveSet {
        LiveSet(self.0 | o.0)
    }
    pub fn without(self, o: LiveSet) -> LiveSet {
        LiveSet(self.0 & !o.0)
    }
    pub fn intersect(self, o: LiveSet) -> LiveSet {
        LiveSet(self.0 & o.0)
    }
    /// The lowest-numbered register in the set.
    pub fn first(self) -> Option<Loc> {
        match self.0.trailing_zeros() {
            32 => None,
            n @ 0..16 => Some(Loc::Gpr(Gpr::from_number(n as u8))),
            n => Some(Loc::Xmm(Xmm::from_number(n as u8 - 16))),
        }
    }
}

/// The `ret`-boundary live-out contract. Conservative mode is
/// [`LiveSet::ABI_RET`] regardless of the declared return class.
/// Aggressive mode keeps only what the SysV ABI actually promises a
/// caller: the callee-saved registers, the stack/frame pointers, and the
/// one register carrying the declared return value — `rdx`, `xmm1` and
/// the unreturned class all become dead at `ret`. Unsound against a
/// hand-argued contract, which is why the manager only publishes
/// aggressive variants after the equivalence proof in `brew-verify`.
pub(crate) fn abi_ret(aggressive: bool, ret: RetKind) -> LiveSet {
    if !aggressive {
        return LiveSet::ABI_RET;
    }
    let saved = (1 << 3) | (1 << 4) | (1 << 5) | 0xf000; // rbx, rsp, rbp, r12-r15
    match ret {
        RetKind::Int => LiveSet::of(saved | 1, 0), // rax
        RetKind::F64 => LiveSet::of(saved, 1),     // xmm0
        RetKind::Void => LiveSet::of(saved, 0),
    }
}

/// Set of tracked frame slots (bit = index into the context's slot table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SlotSet([u64; 4]);

impl SlotSet {
    pub const CAP: usize = 256;
    pub const EMPTY: SlotSet = SlotSet([0; 4]);
    pub const ALL: SlotSet = SlotSet([!0; 4]);

    pub fn has(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
    pub fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    pub fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    pub fn union(self, o: SlotSet) -> SlotSet {
        SlotSet(std::array::from_fn(|i| self.0[i] | o.0[i]))
    }
}

/// Everything live at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Live {
    pub regs: LiveSet,
    /// Some path reads the arithmetic flags before fully redefining them.
    pub flags: bool,
    pub slots: SlotSet,
}

impl Live {
    pub const ALL: Live = Live {
        regs: LiveSet::ALL,
        flags: true,
        slots: SlotSet::ALL,
    };

    pub fn union(self, o: Live) -> Live {
        Live {
            regs: self.regs.union(o.regs),
            flags: self.flags | o.flags,
            slots: self.slots.union(o.slots),
        }
    }

    pub fn intersect(self, o: Live) -> Live {
        Live {
            regs: self.regs.intersect(o.regs),
            flags: self.flags & o.flags,
            slots: SlotSet(std::array::from_fn(|i| self.slots.0[i] & o.slots.0[i])),
        }
    }
}

// ---------------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------------

/// `rsp`-relative (frame) or absolute (pool) address: provably mapped, so
/// eliding the load cannot change fault behaviour.
fn trackable(m: &MemRef) -> bool {
    (m.base == Some(Gpr::Rsp) && m.index.is_none()) || (m.base.is_none() && m.index.is_none())
}

/// The flag-neutral register moves the conservative sweep may delete
/// (asked of a candidate that does not write `rsp`).
fn is_plain_move(inst: &Inst) -> bool {
    match inst {
        Inst::Mov {
            w: Width::W32 | Width::W64,
            dst: Operand::Reg(_),
            src,
        }
        | Inst::MovSd {
            dst: Operand::Xmm(_),
            src,
        } => src.mem().is_none_or(|m| trackable(&m)),
        Inst::MovAbs { .. } | Inst::Lea { .. } => true,
        _ => false,
    }
}

/// Deleting the (plain, `rsp`-preserving) instruction loses nothing but its
/// register and flag writes: no store, no control transfer, no trap
/// (`idiv`), and no load whose address could fault.
fn side_effect_free(inst: &Inst) -> bool {
    !inst.is_control()
        && !matches!(
            inst,
            Inst::Idiv { .. } | Inst::Push { .. } | Inst::Pop { .. }
        )
        && inst.mem_store().is_none()
        && inst.mem_load().is_none_or(|m| trackable(&m))
}

/// One backward sweep over block `b` from its live-out state: delete every
/// instruction whose writes are all dead (a plain store into dead frame
/// slots included, at every level), and (when `cx.full`) turn a `pop`
/// into a dead register and a `push` into a dead slot into plain `rsp`
/// adjustments. Returns the number of instructions removed or simplified;
/// the block's live-in state is updated to what remains.
pub(crate) fn sweep(cx: &mut PassCx, b: usize) -> u64 {
    cx.visit();
    let mut live = cx.live_out(b);
    let mut keep = std::mem::take(&mut cx.keep);
    keep.clear();
    keep.resize(cx.effects(b).len(), true);
    let mut changed = 0;
    for idx in (0..keep.len()).rev() {
        let mut e = cx.effects(b)[idx];
        if cx.full && e.is(bit::POP_REG | bit::PUSH_RI) {
            let rsp = LiveSet::of(1 << Gpr::Rsp.number(), 0);
            let dead_pop =
                e.is(bit::POP_REG) && e.writes.without(live.regs).without(rsp) != LiveSet::EMPTY;
            if dead_pop || (e.is(bit::PUSH_RI) && slots_dead(&live, &e.store)) {
                cx.replace(b, idx, rsp_bump(if dead_pop { 8 } else { -8 }));
                e = cx.effects(b)[idx];
                changed += 1;
            }
        }
        // Cheap test first: nothing it writes is wanted.
        let regs_dead = e.writes.intersect(live.regs) == LiveSet::EMPTY
            || (cx.full && e.is(bit::VALUE_IDENTITY));
        // Only a candidate — nothing it writes is wanted — is looked at.
        let inst = &cx.insts(b)[idx].inst;
        let keeps_rsp = !e.writes.has(Loc::Gpr(Gpr::Rsp));
        let removable = || {
            if cx.full {
                keeps_rsp && side_effect_free(inst) && !(e.is(bit::WRITES_FLAGS) && live.flags)
            } else {
                e.writes != LiveSet::EMPTY && keeps_rsp && is_plain_move(inst)
            }
        };
        // Or, at every level, a plain store into a frame slot nothing reads
        // again.
        let dead = regs_dead
            && e.kind == Kind::Plain
            && (removable()
                || e.is(bit::PLAIN_STORE) && e.load[0] == NO_SLOT && slots_dead(&live, &e.store));
        if dead {
            keep[idx] = false;
        } else {
            cx.step_back(&mut live, &e);
        }
    }
    changed += cx.retain(b, |i, _| keep[i]);
    cx.keep = keep;
    cx.set_live_in(b, live);
    changed
}

/// Liveness-driven dead-code elimination over the whole CFG. Every block
/// is swept once from the exact solution; a deletion that shrinks a block's
/// live-in state sends its predecessors round again. (Deleting code only
/// ever shrinks liveness, so the states in hand stay safe throughout.)
/// Returns the number of instructions removed or simplified.
pub(crate) fn eliminate_dead_code(cx: &mut PassCx) -> u64 {
    cx.solve();
    let n = cx.len();
    let mut queued = vec![true; n];
    let mut queue: Vec<usize> = (0..n).collect();
    let mut total = 0;
    while let Some(i) = queue.pop() {
        queued[i] = false;
        let before = cx.live_in(i);
        total += sweep(cx, i);
        if cx.live_in(i) != before {
            for &p in cx.preds(i) {
                if !std::mem::replace(&mut queued[p as usize], true) {
                    queue.push(p as usize);
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{BlockId, CapturedBlock, CapturedInst, Terminator};
    use crate::passes::OptLevel;

    /// The sweep as `run_passes` runs it below (`!full`) and from
    /// `OptLevel::Dataflow` (`full`), under the conservative `ret` contract.
    fn eliminate_dead_code(blocks: &mut [CapturedBlock], escaped: bool, full: bool) -> u64 {
        let level = if full {
            OptLevel::Dataflow
        } else {
            OptLevel::Regalloc
        };
        super::eliminate_dead_code(&mut PassCx::new(blocks, level, escaped, RetKind::Int))
    }

    fn block(insts: Vec<CapturedInst>, term: Terminator) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts;
        b.term = term;
        b.traced = true;
        b
    }

    fn run(insts: Vec<Inst>, full: bool) -> Vec<Inst> {
        let insts = insts.into_iter().map(CapturedInst::plain).collect();
        run_ci(insts, full)
    }

    fn run_ci(insts: Vec<CapturedInst>, full: bool) -> Vec<Inst> {
        let mut blocks = vec![block(insts, Terminator::Ret)];
        eliminate_dead_code(&mut blocks, false, full);
        blocks[0].insts.iter().map(|ci| ci.inst).collect()
    }

    fn lea(dst: Gpr, disp: i32) -> Inst {
        Inst::Lea {
            dst,
            src: MemRef::base_disp(Gpr::Rsp, disp),
        }
    }

    fn alu(op: AluOp, dst: Gpr, k: i64) -> Inst {
        Inst::Alu {
            op,
            w: Width::W64,
            dst: Operand::Reg(dst),
            src: Operand::Imm(k),
        }
    }

    fn mov(dst: Gpr, src: impl Into<Operand>) -> Inst {
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(dst),
            src: src.into(),
        }
    }

    fn frame(inst: Inst, store: Option<i64>, load: Option<i64>) -> CapturedInst {
        CapturedInst {
            inst,
            frame_store: store,
            frame_load: load,
        }
    }

    #[test]
    fn flag_writer_goes_only_when_flags_and_result_are_dead() {
        let setl = Inst::Setcc {
            cond: Cond::L,
            dst: Operand::Reg(Gpr::Rax),
        };
        // sub's result is overwritten and its flags are redefined by cmp.
        let out = run(
            vec![
                alu(AluOp::Sub, Gpr::Rcx, 1),
                mov(Gpr::Rcx, 1i64),
                alu(AluOp::Cmp, Gpr::Rcx, 0xb),
                setl,
                Inst::Ret,
            ],
            true,
        );
        assert_eq!(out.len(), 4, "{out:?}");
        assert_eq!(out[0], mov(Gpr::Rcx, 1i64));
        // Result dead, flags read: stays.
        let insts = vec![alu(AluOp::Sub, Gpr::Rcx, 1), setl, Inst::Ret];
        assert_eq!(run(insts.clone(), true), insts);
        // The conservative sweep never deletes a flag writer.
        let insts = vec![alu(AluOp::Sub, Gpr::Rcx, 1), mov(Gpr::Rcx, 1i64), Inst::Ret];
        assert_eq!(run(insts.clone(), false), insts);
    }

    #[test]
    fn value_identity_is_only_a_flag_writer() {
        let setl = Inst::Setcc {
            cond: Cond::L,
            dst: Operand::Reg(Gpr::Rdx),
        };
        let out = run(
            vec![
                alu(AluOp::Add, Gpr::Rax, 0),
                alu(AluOp::Cmp, Gpr::Rax, 1),
                setl,
                Inst::Ret,
            ],
            true,
        );
        assert_eq!(out.len(), 3, "rax is live, add rax, 0 still goes: {out:?}");
    }

    /// `cqo` writes all of `rdx` (the sign of `rax`) without reading it:
    /// a value left in `rdx` just before it is dead.
    #[test]
    fn a_write_to_rdx_before_cqo_is_dead() {
        let cqo = Inst::Cqo { w: Width::W64 };
        let tail = [cqo, mov(Gpr::Rax, Gpr::Rdx), Inst::Ret];
        let mut insts = vec![mov(Gpr::Rdx, 5i64)];
        insts.extend(tail);
        assert_eq!(run(insts, true), tail);
    }

    #[test]
    fn untracked_load_is_kept_even_when_dead() {
        let insts = vec![mov(Gpr::Rcx, MemRef::base(Gpr::Rdi)), Inst::Ret];
        assert_eq!(run(insts.clone(), true), insts);
    }

    #[test]
    fn frame_store_overwritten_before_any_load_is_dead() {
        let slot = Operand::Mem(MemRef::base_disp(Gpr::Rsp, 8));
        let st = |src: Gpr| {
            frame(
                Inst::Mov {
                    w: Width::W64,
                    dst: slot,
                    src: Operand::Reg(src),
                },
                Some(-8),
                None,
            )
        };
        let ld = frame(mov(Gpr::Rax, slot), None, Some(-8));
        let out = run_ci(vec![st(Gpr::Rdi), st(Gpr::Rsi), ld, st(Gpr::Rdx)], true);
        assert_eq!(out, vec![st(Gpr::Rsi).inst, ld.inst]);
        // The caller's side of the frame is live at ret.
        let arg = frame(st(Gpr::Rdi).inst, Some(16), None);
        assert_eq!(run_ci(vec![arg], true).len(), 1);
        // The conservative sweep goes by the same slot liveness.
        let out = run_ci(vec![st(Gpr::Rdi), st(Gpr::Rsi), ld, st(Gpr::Rdx)], false);
        assert_eq!(out, vec![st(Gpr::Rsi).inst, ld.inst]);
    }

    #[test]
    fn escaped_frame_keeps_every_store() {
        let st = frame(
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, 8)),
                src: Operand::Reg(Gpr::Rdi),
            },
            Some(-8),
            None,
        );
        let mut blocks = vec![block(vec![st], Terminator::Ret)];
        assert_eq!(eliminate_dead_code(&mut blocks, true, true), 0);
    }

    #[test]
    fn dead_push_and_pop_become_rsp_bumps() {
        let push = frame(
            Inst::Push {
                src: Operand::Imm(0xc),
            },
            Some(-8),
            None,
        );
        let pop = frame(
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rcx),
            },
            None,
            Some(-8),
        );
        let out = run_ci(
            vec![push, pop, CapturedInst::plain(mov(Gpr::Rcx, 0i64))],
            true,
        );
        assert_eq!(out, vec![lea(Gpr::Rsp, -8), lea(Gpr::Rsp, 8)]);
        // A pop that restores a callee-saved register is not dead.
        let save = frame(
            Inst::Push {
                src: Operand::Reg(Gpr::Rbx),
            },
            Some(-8),
            None,
        );
        let restore = frame(
            Inst::Pop {
                dst: Operand::Reg(Gpr::Rbx),
            },
            None,
            Some(-8),
        );
        assert_eq!(run_ci(vec![save, restore], true).len(), 2);
    }

    #[test]
    fn liveness_crosses_block_boundaries() {
        // Block 0 defines rcx and the flags; block 1 reads both.
        let b0 = block(
            vec![
                CapturedInst::plain(mov(Gpr::Rcx, 7i64)),
                CapturedInst::plain(alu(AluOp::Cmp, Gpr::Rdi, 3)),
            ],
            Terminator::Jmp(BlockId(1)),
        );
        let b1 = block(
            vec![
                CapturedInst::plain(Inst::Setcc {
                    cond: Cond::E,
                    dst: Operand::Reg(Gpr::Rcx),
                }),
                CapturedInst::plain(mov(Gpr::Rax, Gpr::Rcx)),
            ],
            Terminator::Ret,
        );
        let mut blocks = vec![b0, b1];
        assert_eq!(eliminate_dead_code(&mut blocks, false, true), 0);
    }
}
