//! Backward liveness over the captured CFG — registers, XMM registers,
//! the arithmetic flags and 8-byte frame slots — and the dead-code
//! elimination it drives. The register allocator's cleanup sub-passes use
//! the same analysis, so there is one `full_def`, one `kills_flags` and one
//! fixpoint in the crate.
//!
//! XMM high lanes: register-to-register `movsd` and `cvtsi2sd` merge the
//! destination's upper 64 bits, so they are not full definitions — unless
//! the captured code is *scalar only* (no packed SSE, no `movupd`, no kept
//! calls), in which case no instruction can ever observe a high lane and
//! both count as full defs. [`Cx::new`] computes that predicate once and
//! every query takes it.
//!
//! Frame slots are named by the entry-rsp-relative offsets the tracer left
//! in [`CapturedInst::frame_load`] / [`CapturedInst::frame_store`] and are
//! only reasoned about while the frame has not escaped; an rsp-based access
//! without that metadata reads every slot and kills none.

use crate::capture::{CapturedBlock, CapturedInst, Terminator};
use crate::config::RetKind;
use brew_x86::prelude::*;

/// Bitset of live registers (bit = hardware register number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LiveSet {
    pub gpr: u16,
    pub xmm: u16,
}

impl LiveSet {
    pub const EMPTY: LiveSet = LiveSet { gpr: 0, xmm: 0 };
    pub const ALL: LiveSet = LiveSet { gpr: !0, xmm: !0 };
    /// What an observer can read after `ret`: the integer and float return
    /// registers, the stack/frame pointers, and the callee-saved set. Our
    /// harnesses only compare `rax`/`xmm0` (plus `rdx:rax` and `xmm1` for
    /// wide returns), but the callee-saved registers are part of the
    /// contract with any real caller.
    pub const ABI_RET: LiveSet = LiveSet {
        gpr: (1 << 0) | (1 << 2) | (1 << 3) | (1 << 4) | (1 << 5) | 0xf000,
        xmm: 0b11,
    };

    pub fn has(self, l: Loc) -> bool {
        match l {
            Loc::Gpr(g) => self.gpr & (1 << g.number()) != 0,
            Loc::Xmm(x) => self.xmm & (1 << x.number()) != 0,
        }
    }
    pub fn set(&mut self, l: Loc) {
        match l {
            Loc::Gpr(g) => self.gpr |= 1 << g.number(),
            Loc::Xmm(x) => self.xmm |= 1 << x.number(),
        }
    }
    pub fn clear(&mut self, l: Loc) {
        match l {
            Loc::Gpr(g) => self.gpr &= !(1 << g.number()),
            Loc::Xmm(x) => self.xmm &= !(1 << x.number()),
        }
    }
    pub fn union(self, o: LiveSet) -> LiveSet {
        LiveSet {
            gpr: self.gpr | o.gpr,
            xmm: self.xmm | o.xmm,
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
    let mut l = LiveSet {
        gpr: (1 << 3) | (1 << 4) | (1 << 5) | 0xf000, // rbx, rsp, rbp, r12-r15
        xmm: 0,
    };
    match ret {
        RetKind::Int => l.gpr |= 1, // rax
        RetKind::F64 => l.xmm |= 1, // xmm0
        RetKind::Void => {}
    }
    l
}

/// No packed SSE, no 16-byte moves, no kept calls anywhere: XMM high
/// lanes are unobservable, so scalar moves may be treated as full defs.
fn scalar_only(blocks: &[CapturedBlock]) -> bool {
    !blocks.iter().any(|b| {
        b.insts.iter().any(|ci| {
            matches!(
                ci.inst,
                Inst::MovUpd { .. } | Inst::CallRel { .. } | Inst::CallInd { .. }
            ) || matches!(
                defuse::xmm_hi_effect(&ci.inst),
                Some((_, defuse::XmmHi::Written))
            )
        })
    })
}

/// Does the instruction overwrite its destination register(s) completely?
/// (32-bit GPR writes zero-extend and count; 8-bit writes merge and do
/// not; scalar SSE register writes count only when `so`.)
pub(crate) fn full_def(inst: &Inst, so: bool) -> bool {
    match inst {
        Inst::Mov {
            w: Width::W32 | Width::W64,
            dst: Operand::Reg(_),
            ..
        }
        | Inst::MovAbs { .. }
        | Inst::Movsxd { .. }
        | Inst::Movzx8 { .. }
        | Inst::Lea { .. }
        | Inst::Imul { .. }
        | Inst::ImulImm { .. }
        | Inst::Cvttsd2si { .. }
        | Inst::Pop {
            dst: Operand::Reg(_),
        }
        | Inst::MovUpd {
            dst: Operand::Xmm(_),
            ..
        } => true,
        // movsd xmm <- mem zeroes the high lane: a full definition.
        Inst::MovSd {
            dst: Operand::Xmm(_),
            src: Operand::Mem(_),
        } => true,
        // Register-to-register movsd / cvtsi2sd merge the high lane; with
        // no possible high-lane observer they define the register fully.
        Inst::MovSd {
            dst: Operand::Xmm(_),
            src: Operand::Xmm(_),
        }
        | Inst::Cvtsi2sd { .. } => so,
        Inst::Alu {
            op,
            w: Width::W32 | Width::W64,
            dst: Operand::Reg(_),
            ..
        } => op.writes_dst(),
        _ => false,
    }
}

/// `for_each_read`, minus the high-lane merge artifacts that stop being
/// reads in scalar-only code (`movsd d, s` and `cvtsi2sd d, r` "read" `d`
/// only to preserve its upper 64 bits).
pub(crate) fn for_each_read_so(inst: &Inst, so: bool, f: &mut impl FnMut(Loc)) {
    // `xmm_read_is_hi_merge_only` is the lane contract the emulator
    // cross-validates in `defuse_differential`; we only apply it when the
    // whole capture is scalar-only (no possible high-lane observer).
    let skip = if so && defuse::xmm_read_is_hi_merge_only(inst) {
        match inst {
            Inst::MovSd {
                dst: Operand::Xmm(d),
                ..
            } => Some(Loc::Xmm(*d)),
            Inst::Cvtsi2sd { dst, .. } => Some(Loc::Xmm(*dst)),
            _ => None,
        }
    } else {
        None
    };
    defuse::for_each_read(inst, &mut |l| {
        if Some(l) != skip {
            f(l)
        }
    });
}

pub(crate) fn references(inst: &Inst, l: Loc, so: bool) -> bool {
    let mut hit = false;
    for_each_read_so(inst, so, &mut |r| hit |= r == l);
    defuse::for_each_write(inst, &mut |w| hit |= w == l);
    hit
}

pub(crate) fn writes_loc(inst: &Inst, l: Loc) -> bool {
    let mut hit = false;
    defuse::for_each_write(inst, &mut |w| hit |= w == l);
    hit
}

/// Backward transfer of one instruction over a register live set.
fn step_back(live: &mut LiveSet, inst: &Inst, so: bool) {
    if defuse::is_barrier(inst) {
        *live = LiveSet::ALL;
        return;
    }
    if full_def(inst, so) {
        defuse::for_each_write(inst, &mut |l| live.clear(l));
    }
    for_each_read_so(inst, so, &mut |l| live.set(l));
}

/// Register liveness just after `b.insts[pos]` (i.e. before `pos + 1`).
pub(crate) fn live_after(b: &CapturedBlock, pos: usize, live_out: LiveSet, so: bool) -> LiveSet {
    let mut live = live_out;
    for ci in b.insts[pos + 1..].iter().rev() {
        step_back(&mut live, &ci.inst, so);
    }
    live
}

/// Only these define *every* arithmetic flag; the other flag writers
/// (shifts, imul, unary) leave some flags undefined or unchanged, so they
/// never count as kills.
pub(crate) fn kills_flags(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Alu { .. } | Inst::Test { .. } | Inst::Ucomisd { .. }
    )
}

/// Are the flags as left by `b.insts[pos - 1]` provably never read?
/// (`ret` ends their life: they are not part of the return ABI.)
pub(crate) fn flags_dead_at(b: &CapturedBlock, pos: usize, flags_out: bool) -> bool {
    for ci in &b.insts[pos..] {
        if matches!(ci.inst, Inst::Ret) || kills_flags(&ci.inst) {
            return true;
        }
        if ci.inst.reads_flags() || defuse::is_barrier(&ci.inst) {
            return false;
        }
    }
    !flags_out
}

/// Per block: does some path read the flags it leaves behind? A block's
/// effect on the flags is decided by its first reader or redefinition, so
/// the fixpoint runs over one summary per block.
pub(crate) fn flags_live_out(blocks: &[CapturedBlock]) -> Vec<bool> {
    // Some(live-in) when the block decides it, None when flags pass through.
    let decides: Vec<Option<bool>> = blocks
        .iter()
        .map(|b| {
            b.insts.iter().find_map(|ci| {
                if matches!(ci.inst, Inst::Ret) || kills_flags(&ci.inst) {
                    Some(false)
                } else if ci.inst.reads_flags() || defuse::is_barrier(&ci.inst) {
                    Some(true)
                } else {
                    None
                }
            })
        })
        .collect();
    let n = blocks.len();
    let mut live_out = vec![false; n];
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let live_in = |s: usize| s >= n || decides[s].unwrap_or(live_out[s]);
            let out = match blocks[i].term {
                Terminator::Jcc { .. } => true,
                Terminator::Ret => false,
                Terminator::Jmp(t) => live_in(t.0),
            };
            changed |= out != live_out[i];
            live_out[i] = out;
        }
        if !changed {
            return live_out;
        }
    }
}

/// `rsp`-relative (frame) or absolute (pool) address: provably mapped, so
/// eliding the load cannot change fault behaviour.
fn trackable(m: &MemRef) -> bool {
    (m.base == Some(Gpr::Rsp) && m.index.is_none()) || (m.base.is_none() && m.index.is_none())
}

// ---------------------------------------------------------------------------
// Frame slots
// ---------------------------------------------------------------------------

/// Set of tracked frame slots (bit = index into a slot table such as
/// [`Cx::slots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SlotSet([u64; 4]);

impl SlotSet {
    pub const CAP: usize = 256;
    const ALL: SlotSet = SlotSet([!0; 4]);

    pub fn has(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }
    pub fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }
    pub fn union(self, o: SlotSet) -> SlotSet {
        SlotSet(std::array::from_fn(|i| self.0[i] | o.0[i]))
    }
    pub fn without(self, o: SlotSet) -> SlotSet {
        SlotSet(std::array::from_fn(|i| self.0[i] & !o.0[i]))
    }
}

/// The 8-aligned slot keys the `len` bytes at `off` touch.
pub(crate) fn slot_keys(off: i64, len: u8) -> impl Iterator<Item = i64> {
    let first = off.div_euclid(8);
    let last = (off + len as i64 - 1).div_euclid(8);
    (first..=last).map(|k| k * 8)
}

/// Everything live at one program point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Live {
    pub regs: LiveSet,
    /// Some path reads the arithmetic flags before fully redefining them.
    pub flags: bool,
    slots: SlotSet,
}

/// What one analysis fixes for every query.
pub(crate) struct Cx {
    /// [`scalar_only`] of the blocks.
    pub so: bool,
    /// Registers live after `ret` ([`abi_ret`]).
    pub ret_live: LiveSet,
    /// Flag writers, frame stores and `push`/`pop` are candidates too, and
    /// `ret` reads exactly `ret_live` and the caller's frame. Off, the
    /// sweep removes only flag-neutral register moves and `ret` reads
    /// everything — what the manager's conservative re-emission runs.
    pub full: bool,
    /// Sorted keys of the tracked frame slots; empty when the frame escaped
    /// (or `!full`), which turns slot reasoning off.
    slots: Vec<i64>,
    /// Slots the caller owns (offset >= 0): live at `ret`.
    ret_slots: SlotSet,
}

impl Cx {
    pub fn new(blocks: &[CapturedBlock], frame_escaped: bool, ret_live: LiveSet, full: bool) -> Cx {
        let mut slots: Vec<i64> = Vec::new();
        if full && !frame_escaped {
            // A handful of distinct slots, each named many times over.
            for ci in blocks.iter().flat_map(|b| &b.insts) {
                for off in [ci.frame_store, ci.frame_load].into_iter().flatten() {
                    for key in slot_keys(off, ci.inst.mem_width()) {
                        if let Err(at) = slots.binary_search(&key) {
                            slots.insert(at, key);
                        }
                    }
                }
            }
            // Slots past the capacity stay untracked: never dead.
            slots.truncate(SlotSet::CAP);
        }
        let mut ret_slots = SlotSet::default();
        for (i, _) in slots.iter().enumerate().filter(|(_, &k)| k >= 0) {
            ret_slots.set(i);
        }
        Cx {
            so: scalar_only(blocks),
            ret_live,
            full,
            slots,
            ret_slots,
        }
    }

    fn slot(&self, key: i64) -> Option<usize> {
        self.slots.binary_search(&key).ok()
    }

    /// Is every slot the `len` bytes at `off` touch tracked and dead?
    fn slots_dead(&self, live: &Live, off: i64, len: u8) -> bool {
        slot_keys(off, len).all(|k| self.slot(k).is_some_and(|i| !live.slots.has(i)))
    }

    /// Up to three tracked slots the `len` bytes at `off` touch.
    fn touched(&self, off: i64, len: u8) -> [u16; 3] {
        let mut out = [NO_SLOT; 3];
        let hits = slot_keys(off, len).filter_map(|k| self.slot(k));
        for (o, i) in out.iter_mut().zip(hits) {
            *o = i as u16;
        }
        out
    }

    /// Decode what one instruction does to the live state.
    fn effect(&self, ci: &CapturedInst) -> Effect {
        let inst = &ci.inst;
        let mut e = Effect {
            reads: LiveSet::EMPTY,
            writes: LiveSet::EMPTY,
            defs: LiveSet::EMPTY,
            kind: match inst {
                Inst::Ret => Kind::Ret,
                i if defuse::is_barrier(i) => Kind::Barrier,
                _ => Kind::Plain,
            },
            reads_flags: inst.reads_flags(),
            kills_flags: kills_flags(inst),
            writes_flags: inst.writes_flags(),
            reads_all_slots: false,
            kill: [NO_SLOT; 3],
            gen: [NO_SLOT; 3],
        };
        if e.kind != Kind::Plain {
            return e;
        }
        for_each_read_so(inst, self.so, &mut |l| e.reads.set(l));
        defuse::for_each_write(inst, &mut |l| e.writes.set(l));
        if full_def(inst, self.so) {
            e.defs = e.writes;
        }
        if self.slots.is_empty() {
            return e;
        }
        let len = inst.mem_width();
        match (ci.frame_store, ci.frame_load) {
            (Some(off), None) if len.is_multiple_of(8) && off.rem_euclid(8) == 0 => {
                e.kill = self.touched(off, len);
            }
            (_, Some(off)) => e.gen = self.touched(off, len),
            // A stack read the tracer left no offset for may be any slot.
            (_, None) => {
                e.reads_all_slots = matches!(inst, Inst::Pop { .. })
                    || inst
                        .mem_load()
                        .is_some_and(|m| m.regs().any(|r| r == Gpr::Rsp));
            }
        }
        e
    }

    /// Backward transfer of one instruction over the whole live state.
    fn step_back(&self, live: &mut Live, e: &Effect) {
        match e.kind {
            // Flags are not part of the return ABI; the frame below the
            // return address is gone.
            Kind::Ret if self.full => {
                *live = Live {
                    regs: self.ret_live,
                    flags: false,
                    slots: self.ret_slots,
                };
                live.regs.set(Loc::Gpr(Gpr::Rsp));
            }
            Kind::Ret | Kind::Barrier => {
                *live = Live {
                    flags: e.kind == Kind::Barrier,
                    ..Live::ALL
                }
            }
            Kind::Plain => {
                live.regs.gpr = e.reads.gpr | (live.regs.gpr & !e.defs.gpr);
                live.regs.xmm = e.reads.xmm | (live.regs.xmm & !e.defs.xmm);
                live.flags = e.reads_flags | (live.flags & !e.kills_flags);
                for &i in e.kill.iter().take_while(|&&i| i != NO_SLOT) {
                    live.slots.clear(i as usize);
                }
                for &i in e.gen.iter().take_while(|&&i| i != NO_SLOT) {
                    live.slots.set(i as usize);
                }
                if e.reads_all_slots {
                    live.slots = SlotSet::ALL;
                }
            }
        }
    }
}

const NO_SLOT: u16 = u16::MAX;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Plain,
    Barrier,
    Ret,
}

/// What one instruction reads, writes and fully defines, decoded once.
#[derive(Clone, Copy)]
struct Effect {
    reads: LiveSet,
    /// Every register written, wholly or in part.
    writes: LiveSet,
    /// The wholly written ones.
    defs: LiveSet,
    kind: Kind,
    reads_flags: bool,
    kills_flags: bool,
    writes_flags: bool,
    reads_all_slots: bool,
    /// Tracked slots wholly overwritten / read, `NO_SLOT`-terminated.
    kill: [u16; 3],
    gen: [u16; 3],
}

impl Live {
    const ALL: Live = Live {
        regs: LiveSet::ALL,
        flags: true,
        slots: SlotSet::ALL,
    };

    fn union(self, o: Live) -> Live {
        Live {
            regs: self.regs.union(o.regs),
            flags: self.flags | o.flags,
            slots: self.slots.union(o.slots),
        }
    }

    fn intersect(self, o: Live) -> Live {
        Live {
            regs: LiveSet {
                gpr: self.regs.gpr & o.regs.gpr,
                xmm: self.regs.xmm & o.regs.xmm,
            },
            flags: self.flags & o.flags,
            slots: SlotSet(std::array::from_fn(|i| self.slots.0[i] & o.slots.0[i])),
        }
    }
}

impl Cx {
    /// What is live when block `i` hands over, given every block's live-in
    /// state. Edges that leave the block list stay conservative; the stack
    /// pointer is structural and never dead.
    fn block_out(&self, blocks: &[CapturedBlock], i: usize, live_in: &[Live]) -> Live {
        let mut out = Live::default();
        for s in blocks[i].term.successors() {
            out = out.union(*live_in.get(s.0).unwrap_or(&Live::ALL));
        }
        match blocks[i].term {
            // The `ret` instruction itself sets the contract when
            // `self.full`; a ret block without one keeps it here.
            Terminator::Ret => {
                out.regs = self.ret_live;
                out.slots = self.ret_slots;
            }
            Terminator::Jcc { .. } => out.flags = true,
            Terminator::Jmp(_) => {}
        }
        out.regs.set(Loc::Gpr(Gpr::Rsp));
        if !self.full {
            // The frame pointer stays structural for the conservative
            // sweep, as it was before flags and slots were tracked.
            out.regs.set(Loc::Gpr(Gpr::Rbp));
        }
        out
    }
}

/// The liveness solution over a CFG, kept up to date while passes edit it.
/// Each block's instructions are decoded once into [`Effect`]s; a block an
/// edit touched is decoded again on the next [`Liveness::solve`].
pub(crate) struct Liveness {
    pub cx: Cx,
    /// Per block: its decoded instructions (stale when `None`), and what
    /// the block makes of nothing and of everything live at its end — every
    /// instruction's transfer is `gen ∪ (x − kill)`, so those two fix the
    /// block's, and the fixpoint itself never looks at an instruction.
    effects: Vec<Option<Vec<Effect>>>,
    through: Vec<(Live, Live)>,
    live_in: Vec<Live>,
}

impl Liveness {
    /// Analyze `blocks`; see [`Cx::new`] for the arguments.
    pub fn new(
        blocks: &[CapturedBlock],
        frame_escaped: bool,
        ret_live: LiveSet,
        full: bool,
    ) -> Liveness {
        let mut lv = Liveness {
            cx: Cx::new(blocks, frame_escaped, ret_live, full),
            effects: vec![None; blocks.len()],
            through: vec![(Live::default(), Live::ALL); blocks.len()],
            live_in: Vec::new(),
        };
        lv.solve(blocks);
        lv
    }

    /// Block `i` was edited behind this analysis' back.
    pub fn invalidate(&mut self, i: usize) {
        self.effects[i] = None;
    }

    fn summarize(&mut self, i: usize) {
        let (mut lo, mut hi) = (Live::default(), Live::ALL);
        for e in self.effects[i].iter().flatten().rev() {
            self.cx.step_back(&mut lo, e);
            self.cx.step_back(&mut hi, e);
        }
        self.through[i] = (lo, hi);
    }

    /// The least fixpoint of the backward equations over the blocks as
    /// they are now.
    pub fn solve(&mut self, blocks: &[CapturedBlock]) {
        for (i, b) in blocks.iter().enumerate() {
            if self.effects[i].is_none() {
                self.effects[i] = Some(b.insts.iter().map(|ci| self.cx.effect(ci)).collect());
                self.summarize(i);
            }
        }
        self.live_in.clear();
        self.live_in.resize(blocks.len(), Live::default());
        loop {
            let mut changed = false;
            for i in (0..blocks.len()).rev() {
                let out = self.live_out(blocks, i);
                let inn = self.through[i].0.union(out.intersect(self.through[i].1));
                changed |= inn != self.live_in[i];
                self.live_in[i] = inn;
            }
            if !changed {
                return;
            }
        }
    }

    /// What is live when block `i` hands over.
    pub fn live_out(&self, blocks: &[CapturedBlock], i: usize) -> Live {
        self.cx.block_out(blocks, i, &self.live_in)
    }

    /// What is live on entry to block `i`.
    pub fn live_in(&self, i: usize) -> Live {
        self.live_in[i]
    }
}

// ---------------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------------

/// The flag-neutral register moves the conservative sweep may delete.
fn is_plain_move(inst: &Inst) -> bool {
    match inst {
        Inst::Mov {
            w: Width::W32 | Width::W64,
            dst: Operand::Reg(d),
            src,
        } => *d != Gpr::Rsp && src.mem().is_none_or(|m| trackable(&m)),
        Inst::MovAbs { dst, .. } | Inst::Lea { dst, .. } => *dst != Gpr::Rsp,
        Inst::MovSd {
            dst: Operand::Xmm(_),
            src,
        } => src.mem().is_none_or(|m| trackable(&m)),
        _ => false,
    }
}

/// Deleting the instruction loses nothing but its register and flag
/// writes: no store, no stack-pointer change, no control transfer, no trap
/// (`idiv`), and no load whose address could fault.
fn side_effect_free(inst: &Inst) -> bool {
    !defuse::is_barrier(inst)
        && !inst.is_control()
        && !matches!(
            inst,
            Inst::Idiv { .. } | Inst::Push { .. } | Inst::Pop { .. }
        )
        && inst.mem_store().is_none()
        && inst.mem_load().is_none_or(|m| trackable(&m))
        && !writes_loc(inst, Loc::Gpr(Gpr::Rsp))
}

/// `x + 0`, `x * 1` and friends at full width: the destination keeps its
/// value, only the flags change.
fn is_value_identity(inst: &Inst) -> bool {
    match *inst {
        Inst::Alu {
            op,
            w: Width::W64,
            dst: Operand::Reg(_),
            src: Operand::Imm(k),
        } => match op {
            AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor => k == 0,
            AluOp::And => k == -1,
            AluOp::Cmp => false,
        },
        Inst::ImulImm {
            w: Width::W64,
            dst,
            src: Operand::Reg(s),
            imm: 1,
        } => dst == s,
        _ => false,
    }
}

impl Liveness {
    /// One backward sweep over block `i` from its live-out state: delete
    /// every instruction whose writes are all dead, and (when `cx.full`)
    /// turn a `pop` into a dead register and a `push` into a dead slot into
    /// plain `rsp` adjustments for the rsp-pair cancellation to merge.
    /// Returns the number of instructions removed or simplified; the
    /// block's live-in state is updated to what remains.
    pub fn sweep(&mut self, blocks: &mut [CapturedBlock], i: usize) -> u64 {
        let mut live = self.live_out(blocks, i);
        let cx = &self.cx;
        let b = &mut blocks[i];
        let effects = self.effects[i].as_mut().expect("solved before sweeping");
        let mut keep = vec![true; b.insts.len()];
        let mut changed = 0;
        for (idx, (ci, e)) in b.insts.iter_mut().zip(effects.iter_mut()).enumerate().rev() {
            if cx.full {
                let bump = match ci.inst {
                    Inst::Pop {
                        dst: Operand::Reg(r),
                    } if r != Gpr::Rsp && !live.regs.has(Loc::Gpr(r)) => Some(8),
                    Inst::Push {
                        src: Operand::Reg(_) | Operand::Imm(_),
                    } if ci
                        .frame_store
                        .is_some_and(|off| cx.slots_dead(&live, off, 8)) =>
                    {
                        Some(-8)
                    }
                    _ => None,
                };
                if let Some(by) = bump {
                    *ci = CapturedInst::plain(Inst::Lea {
                        dst: Gpr::Rsp,
                        src: MemRef::base_disp(Gpr::Rsp, by),
                    });
                    *e = cx.effect(ci);
                    changed += 1;
                }
            }
            let inst = &ci.inst;
            // Cheap test first: nothing it writes is wanted.
            let regs_dead = (e.writes.gpr & live.regs.gpr) | (e.writes.xmm & live.regs.xmm) == 0
                || (cx.full && is_value_identity(inst));
            let dead = regs_dead
                && e.kind == Kind::Plain
                && if !cx.full {
                    e.writes != LiveSet::EMPTY && is_plain_move(inst)
                } else if side_effect_free(inst) {
                    !(e.writes_flags && live.flags)
                } else {
                    // A plain store into a frame slot nothing reads again.
                    matches!(
                        inst,
                        Inst::Mov {
                            dst: Operand::Mem(_),
                            src: Operand::Reg(_) | Operand::Imm(_),
                            ..
                        } | Inst::MovSd {
                            dst: Operand::Mem(_),
                            ..
                        }
                    ) && ci.frame_load.is_none()
                        && ci
                            .frame_store
                            .is_some_and(|off| cx.slots_dead(&live, off, inst.mem_width()))
                };
            if dead {
                keep[idx] = false;
            } else {
                cx.step_back(&mut live, e);
            }
        }
        let before = b.insts.len();
        if keep.contains(&false) {
            let mut it = keep.iter();
            b.insts.retain(|_| *it.next().unwrap());
            let mut it = keep.iter();
            effects.retain(|_| *it.next().unwrap());
        }
        changed += (before - b.insts.len()) as u64;
        if changed > 0 {
            self.summarize(i);
        }
        self.live_in[i] = live;
        changed
    }
}

/// Liveness-driven dead-code elimination over the whole CFG. Every block
/// is swept once from the exact solution; a deletion that shrinks a block's
/// live-in state sends its predecessors round again. (Deleting code only
/// ever shrinks liveness, so the states in hand stay safe throughout.)
/// Returns the number of instructions removed or simplified.
pub(crate) fn eliminate_dead_code(
    blocks: &mut [CapturedBlock],
    frame_escaped: bool,
    ret_live: LiveSet,
    full: bool,
) -> u64 {
    let mut lv = Liveness::new(blocks, frame_escaped, ret_live, full);
    let n = blocks.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, b) in blocks.iter().enumerate() {
        for s in b.term.successors().filter(|s| s.0 < n) {
            preds[s.0].push(i);
        }
    }
    let mut queued = vec![true; n];
    let mut queue: Vec<usize> = (0..n).collect();
    let mut total = 0;
    while let Some(i) = queue.pop() {
        queued[i] = false;
        let before = lv.live_in(i);
        total += lv.sweep(blocks, i);
        if lv.live_in(i) != before {
            for &p in &preds[i] {
                if !std::mem::replace(&mut queued[p], true) {
                    queue.push(p);
                }
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::BlockId;

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
        eliminate_dead_code(&mut blocks, false, LiveSet::ABI_RET, full);
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
        // Off: frame stores are none of the sweep's business.
        assert_eq!(run_ci(vec![st(Gpr::Rdi)], false).len(), 1);
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
        assert_eq!(
            eliminate_dead_code(&mut blocks, true, LiveSet::ABI_RET, true),
            0
        );
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
        assert_eq!(
            eliminate_dead_code(&mut blocks, false, LiveSet::ABI_RET, true),
            0
        );
    }
}
