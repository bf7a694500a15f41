//! The analysis context every pass stage runs on.
//!
//! [`PassCx`] is built once per `run_passes` call and owns what the stages
//! used to derive each on their own schedule: one decoded [`Effect`] per
//! captured instruction (kept parallel to the block's `insts`), the frame
//! slot table, the scalar-only predicate, the CFG (predecessors, reverse
//! postorder) and one liveness solution with per-block dirty bits.
//!
//! **Edit contract.** A stage reads instructions and effects through the
//! context and changes them only through [`PassCx::replace`],
//! [`PassCx::set_inst`], [`PassCx::remove`], [`PassCx::retain`] and
//! [`PassCx::set_body`]: each keeps the effects and the census in step (a
//! written instruction is decoded once, a removed one never again), counts
//! an edit of the block and marks it dirty. [`PassCx::remove`] marks the
//! instruction dead and moves no index: its slot holds a `nop` with
//! [`Effect::DEAD`], which every scan steps over, until
//! [`PassCx::compact`] drops it. Whoever removes compacts the block before
//! handing it on (the cleanup's driver after each rule, `retain` itself);
//! no removed instruction survives a stage. [`PassCx::solve`]
//! re-summarizes exactly the dirty blocks before it runs the block-level
//! fixpoint; until then the live-in states are the ones the last solve or
//! sweep left.
//!
//! The context lives for one call and is never stored on a
//! `CapturedBlock`: the captured CFG is what the equivalence prover, the
//! conservative re-emission and the benchmark's replay consume, and a
//! replay of `run_passes` on cloned blocks has to cost what the live path
//! costs.

use super::liveness::{abi_ret, Live, LiveSet, SlotSet};
use crate::capture::{self, reverse_postorder, CapturedBlock, CapturedInst, Terminator};
use crate::config::RetKind;
use crate::passes::OptLevel;
use brew_x86::defuse::{FlagUse, Role, Site};
use brew_x86::prelude::*;

/// End of an [`Effect`] slot list.
pub(crate) const NO_SLOT: u16 = u16::MAX;
/// A frame slot past the table's capacity: never dead, never allocated.
pub(crate) const UNTRACKED: u16 = u16::MAX - 1;
/// [`Effect::rsp`] of an instruction that moves `rsp` by an unknown amount.
pub(crate) const RSP_LOST: i64 = i64::MIN;

/// Flag and shape bits of an [`Effect`].
pub(crate) mod bit {
    pub const READS_FLAGS: u32 = 1 << 0;
    /// Defines *every* arithmetic flag (`alu`, `test`, `ucomisd`); the
    /// other flag writers leave some undefined and never count as kills.
    pub const KILLS_FLAGS: u32 = 1 << 1;
    pub const WRITES_FLAGS: u32 = 1 << 2;
    /// A stack read the tracer left no offset for: may be any slot.
    pub const READS_ALL_SLOTS: u32 = 1 << 3;
    /// The store overwrites its slots whole and loads nothing.
    pub const STORE_KILLS: u32 = 1 << 4;
    /// `mov d, s` between distinct GPRs other than `rsp`/`rbp`.
    pub const GPR_COPY: u32 = 1 << 5;
    /// `movsd d, s` between distinct XMMs (a copy only when scalar-only).
    pub const XMM_COPY: u32 = 1 << 6;
    /// `add/sub rsp, imm` or `lea rsp, [rsp+d]`; the delta is `rsp`.
    pub const RSP_ADJUST: u32 = 1 << 7;
    /// Where an address fold can start: `mov a, b` or `add/sub a, imm`.
    pub const FOLD_HEAD: u32 = 1 << 8;
    /// Frame access by an allocatable plain 8-byte move, per class.
    pub const FRAME_GPR: u32 = 1 << 9;
    pub const FRAME_XMM: u32 = 1 << 10;
    /// Self-move, `lea r, [r]` or `nop`.
    pub const NOOP: u32 = 1 << 11;
    /// `push reg` / `push imm`.
    pub const PUSH_RI: u32 = 1 << 12;
    /// `pop reg`.
    pub const POP_REG: u32 = 1 << 13;
    /// A kept call (a [`super::Kind::Barrier`] the private frame's slots
    /// pass through).
    pub const CALL: u32 = 1 << 14;
    /// An `rsp`-based store the tracer left no offset for: may be any slot.
    pub const STORES_UNTAGGED: u32 = 1 << 15;
    /// `x + 0`, `x * 1`, ... at full width: only the flags change.
    pub const VALUE_IDENTITY: u32 = 1 << 16;
    /// `mov [m], reg/imm` or `movsd [m], xmm`.
    pub const PLAIN_STORE: u32 = 1 << 17;
    /// Packed SSE, a 16-byte move or a kept call: XMM high lanes matter.
    pub const NON_SCALAR: u32 = 1 << 18;
    /// Reads an XMM high lane.
    pub const HI_OBSERVED: u32 = 1 << 19;
    /// `add/sub r, imm` at full width, `r` not `rsp`: an addend the
    /// cleanup may sum with another.
    pub const ADDEND: u32 = 1 << 20;
    /// A removed instruction's slot ([`super::Effect::DEAD`]) until the
    /// block is compacted.
    pub const DEAD: u32 = 1 << 21;

    /// What the copy rules look for, for [`super::PassCx::shape`].
    pub const COPY: u32 = GPR_COPY | XMM_COPY;
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Kind {
    Plain,
    /// Kept call, indirect jump or `ud2`: every register and the flags are
    /// live across it. So is every frame slot, except across a kept call
    /// ([`bit::CALL`]): a callee cannot name the private frame (`minic`
    /// passes no stack arguments), so its slots pass through unchanged,
    /// and the call reads only the slot it may jump through.
    Barrier,
    Ret,
}

/// What one captured instruction reads, writes and fully defines, and the
/// shapes the stages test for, decoded once.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Effect {
    pub reads: LiveSet,
    /// Every register written, wholly or in part.
    pub writes: LiveSet,
    /// The wholly written ones.
    pub defs: LiveSet,
    /// XMM masks of what scalar-only code changes: the high-lane merge
    /// read that stops being a read, the scalar write that becomes a def.
    so_skip: u16,
    so_def: u16,
    pub kind: Kind,
    pub bits: u32,
    /// Tracked `rsp` movement (`push`/`pop` included), or [`RSP_LOST`].
    pub rsp: i64,
    /// Frame slots loaded / stored to, [`NO_SLOT`]-terminated.
    pub load: [u16; 3],
    pub store: [u16; 3],
}

impl Effect {
    const EMPTY: Effect = Effect {
        reads: LiveSet::EMPTY,
        writes: LiveSet::EMPTY,
        defs: LiveSet::EMPTY,
        so_skip: 0,
        so_def: 0,
        kind: Kind::Plain,
        bits: 0,
        rsp: 0,
        load: [NO_SLOT; 3],
        store: [NO_SLOT; 3],
    };

    /// What a removed instruction leaves until its block is compacted: it
    /// reads, writes and moves nothing, so every scan steps over it.
    pub const DEAD: Effect = Effect {
        bits: bit::DEAD,
        ..Effect::EMPTY
    };

    pub fn is(&self, bits: u32) -> bool {
        self.bits & bits != 0
    }

    /// Does the instruction read or write `l`?
    pub fn refs(&self, l: Loc) -> bool {
        self.reads.has(l) || self.writes.has(l)
    }

    fn scalar_only(&mut self) {
        self.reads = self.reads.without(LiveSet::of(0, self.so_skip));
        self.defs = self.defs.union(LiveSet::of(0, self.so_def));
    }
}

/// The tracked slots of an [`Effect::load`] / [`Effect::store`] list.
pub(crate) fn tracked(list: &[u16; 3]) -> impl Iterator<Item = usize> + '_ {
    let named = list.iter().take_while(|&&i| i != NO_SLOT);
    named.filter(|&&i| i != UNTRACKED).map(|&i| i as usize)
}

/// Does the list name a slot, and is every slot it names tracked and dead
/// in `live`?
pub(crate) fn slots_dead(live: &Live, slots: &[u16; 3]) -> bool {
    let mut named = slots.iter().take_while(|&&i| i != NO_SLOT);
    slots[0] != NO_SLOT && named.all(|&i| i != UNTRACKED && !live.slots.has(i as usize))
}

/// `lea rsp, [rsp+by]`.
pub(crate) fn rsp_bump(by: i32) -> CapturedInst {
    CapturedInst::plain(Inst::Lea {
        dst: Gpr::Rsp,
        src: MemRef::base_disp(Gpr::Rsp, by),
    })
}

/// Decodes instructions into [`Effect`]s against the one slot table.
pub(crate) struct Decoder {
    /// `(key, index)` of the tracked frame slots, sorted by key. Stays
    /// empty when the frame escaped, which turns slot reasoning off.
    slots: Vec<(i64, u16)>,
    /// The key of each slot, by index.
    keys: Vec<i64>,
    track_slots: bool,
    /// Slots the caller owns (offset >= 0): live at `ret`.
    pub ret_slots: SlotSet,
    /// No packed SSE, no 16-byte moves, no kept calls anywhere: XMM high
    /// lanes are unobservable, so register-to-register `movsd` and
    /// `cvtsi2sd` are full definitions and their merge reads are none.
    pub so: bool,
    pub work: Work,
}

/// What the stages cost, in units that repeat exactly.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub(crate) struct Work {
    /// Instructions decoded into an [`Effect`].
    pub decodes: u64,
    /// Instructions a stage wrote (each is decoded once).
    pub rewritten: u64,
    /// Block visits by the block-local stages and sweeps.
    pub visits: u64,
    /// Runs of the liveness fixpoint.
    pub solves: u64,
    /// Per row of the cleanup's rule table (`regalloc::RULES`).
    pub rules: [RuleWork; RULE_ROWS],
}

/// The rows of `regalloc::RULES`.
pub(crate) const RULE_ROWS: usize = 10;

/// What one rule of the cleanup cost: runs (over a block, or over the
/// function), its count, the instructions in the blocks its runs covered,
/// and of those the ones in the cleanup's rounds after its first.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub(crate) struct RuleWork {
    pub visits: u64,
    pub edits: u64,
    pub scanned: u64,
    pub rescanned: u64,
}

impl Decoder {
    fn slot(&mut self, key: i64) -> u16 {
        match self.slots.binary_search_by_key(&key, |s| s.0) {
            Ok(at) => self.slots[at].1,
            Err(_) if self.slots.len() == SlotSet::CAP => UNTRACKED,
            Err(at) => {
                let ix = self.keys.len() as u16;
                self.slots.insert(at, (key, ix));
                self.keys.push(key);
                if key >= 0 {
                    self.ret_slots.set(ix as usize);
                }
                ix
            }
        }
    }

    /// The (up to three) 8-aligned slots the `len` bytes at `off` touch.
    fn touched(&mut self, off: Option<i64>, len: u8) -> [u16; 3] {
        let mut out = [NO_SLOT; 3];
        if let Some(off) = off {
            let keys = off.div_euclid(8)..=(off + len as i64 - 1).div_euclid(8);
            for (o, k) in out.iter_mut().zip(keys) {
                *o = self.slot(k * 8);
            }
        }
        out
    }

    /// Decode one instruction. What it reads, writes, wholly defines and
    /// does to the flags is one fold over the operand-role table
    /// ([`defuse::visit`]); the shape bits, the kind and the tracked `rsp`
    /// movement are the passes' own match.
    pub fn decode(&mut self, ci: &CapturedInst) -> Effect {
        use bit::*;
        self.work.decodes += 1;
        let inst = &ci.inst;
        let mut e = Effect::EMPTY;
        let mut fold = Fold {
            e: &mut e,
            xmm_reads: 0,
            rsp_named: false,
        };
        let flags = defuse::visit(&mut { *inst }, &mut fold);
        let (xmm_reads, rsp_named) = (fold.xmm_reads, fold.rsp_named);
        e.so_skip = e.so_def & !xmm_reads;
        e.bits |= match flags {
            FlagUse::None => 0,
            FlagUse::Read => READS_FLAGS,
            FlagUse::Write => WRITES_FLAGS,
            FlagUse::Define => WRITES_FLAGS | KILLS_FLAGS,
        };
        let plain = |r: Gpr| !matches!(r, Gpr::Rsp | Gpr::Rbp);
        match *inst {
            Inst::Mov { w, dst, src } => {
                e.bits |= match (w, dst, src) {
                    (_, Operand::Mem(_), _) if w != Width::W64 => PLAIN_STORE,
                    (Width::W64, Operand::Mem(_), _) => PLAIN_STORE | FRAME_GPR,
                    (Width::W64, Operand::Reg(_), Operand::Mem(_)) => FRAME_GPR,
                    (Width::W64, Operand::Reg(d), Operand::Reg(s)) if d == s => NOOP,
                    (Width::W64, Operand::Reg(d), Operand::Reg(s)) => {
                        let fold = if s != Gpr::Rsp { FOLD_HEAD } else { 0 };
                        fold | if plain(d) && plain(s) { GPR_COPY } else { 0 }
                    }
                    _ => 0,
                };
            }
            Inst::Lea { dst, src } if src.base == Some(dst) && src.index.is_none() => {
                if src.disp == 0 {
                    e.bits |= NOOP;
                }
                if dst == Gpr::Rsp {
                    e.bits |= RSP_ADJUST;
                    e.rsp = src.disp as i64;
                }
            }
            Inst::Alu { op, w, dst, src } => {
                if let (Width::W64, Operand::Reg(r), Operand::Imm(k)) = (w, dst, src) {
                    // `x + 0` and friends: only the flags change.
                    let identity = match op {
                        AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor => k == 0,
                        AluOp::And => k == -1,
                        AluOp::Cmp => false,
                    };
                    if identity {
                        e.bits |= VALUE_IDENTITY;
                    }
                    if matches!(op, AluOp::Add | AluOp::Sub) {
                        e.bits |= FOLD_HEAD;
                        if r == Gpr::Rsp {
                            e.bits |= RSP_ADJUST;
                            e.rsp = if op == AluOp::Add { k } else { -k };
                        } else {
                            e.bits |= ADDEND;
                        }
                    }
                }
            }
            Inst::ImulImm { w, dst, src, imm }
                if w == Width::W64 && imm == 1 && src == Operand::Reg(dst) =>
            {
                e.bits |= VALUE_IDENTITY;
            }
            Inst::Push { src } => {
                e.rsp = -8;
                if !src.is_mem() {
                    e.bits |= PUSH_RI;
                }
            }
            Inst::Pop { dst } => {
                e.rsp = 8;
                if matches!(dst, Operand::Reg(_)) {
                    e.bits |= POP_REG;
                }
            }
            Inst::Ret => e.kind = Kind::Ret,
            Inst::CallRel { .. } | Inst::CallInd { .. } => {
                e.kind = Kind::Barrier;
                e.bits |= NON_SCALAR | CALL;
            }
            Inst::JmpInd { .. } | Inst::Ud2 => e.kind = Kind::Barrier,
            Inst::Nop => e.bits |= NOOP,
            Inst::MovSd { dst, src } => {
                e.bits |= match (dst, src) {
                    (Operand::Xmm(d), Operand::Xmm(s)) if d != s => XMM_COPY,
                    (Operand::Xmm(_), Operand::Xmm(_)) => NOOP,
                    (Operand::Xmm(_), _) => FRAME_XMM,
                    _ => PLAIN_STORE | FRAME_XMM,
                };
            }
            Inst::MovUpd { src, .. } => {
                e.bits |= NON_SCALAR;
                if matches!(src, Operand::Xmm(_)) {
                    e.bits |= HI_OBSERVED;
                }
            }
            Inst::Sse { op, dst, src } if op.is_packed() => {
                e.bits |= NON_SCALAR;
                let zeroing = op == SseOp::Xorpd && src == Operand::Xmm(dst);
                if op != SseOp::Unpcklpd && !zeroing {
                    e.bits |= HI_OBSERVED;
                }
            }
            _ => {}
        }
        // `rsp` moves by a tracked amount only by `push`/`pop` and an
        // adjustment; an explicit `rsp` destination (`pop rsp` included)
        // takes a value.
        if e.writes.has(Loc::Gpr(Gpr::Rsp)) && !e.is(RSP_ADJUST) && (e.rsp == 0 || rsp_named) {
            e.rsp = RSP_LOST;
        }

        let framed = ci.frame_store.is_some() || ci.frame_load.is_some();
        if framed && self.track_slots {
            let len = inst.mem_width();
            e.load = self.touched(ci.frame_load, len);
            e.store = self.touched(ci.frame_store, len);
            if let (Some(off), None) = (ci.frame_store, ci.frame_load) {
                if len.is_multiple_of(8) && off.rem_euclid(8) == 0 {
                    e.bits |= STORE_KILLS;
                }
            }
        } else if !framed {
            e.bits &= !(FRAME_GPR | FRAME_XMM);
        }
        // An rsp-based read or store the tracer left no offset for (a
        // tagged instruction's one memory operand is the tagged one).
        let on_rsp = |m: Option<MemRef>| m.is_some_and(|m| m.regs().any(|r| r == Gpr::Rsp));
        if ci.frame_load.is_none()
            && !e.is(STORE_KILLS)
            && e.reads.has(Loc::Gpr(Gpr::Rsp))
            && (matches!(inst, Inst::Pop { .. }) || on_rsp(inst.mem_load()))
        {
            e.bits |= READS_ALL_SLOTS;
        }
        if ci.frame_store.is_none()
            && (matches!(inst, Inst::Push { .. })
                || (!framed
                    && e.kind == Kind::Plain
                    && !e.is(RSP_ADJUST)
                    && e.reads.has(Loc::Gpr(Gpr::Rsp))
                    && on_rsp(inst.mem_store())))
        {
            e.bits |= STORES_UNTAGGED;
        }
        if self.so {
            e.scalar_only();
        }
        e
    }
}

/// The def/use half of [`Decoder::decode`], folded over the operand-role
/// table. `defs` is every location in a `Write` role, implicit ones too
/// (`cqo`'s `rdx`, the only implicit write not also read), plus the
/// read-modify-written GPR operands (whole: a byte-wide one is a `Merge`).
/// An XMM merge becomes a def, and stops being a read unless another
/// operand reads it, only in scalar-only code.
struct Fold<'e> {
    e: &'e mut Effect,
    /// XMM registers read other than through a merge.
    xmm_reads: u16,
    /// An explicit operand writes `rsp`.
    rsp_named: bool,
}

impl defuse::Sink for Fold<'_> {
    #[inline(always)]
    fn site(&mut self, role: Role, site: Site<'_>) {
        let e = &mut *self.e;
        if let Some(m) = site.mem() {
            m.regs().for_each(|r| e.reads.set(Loc::Gpr(r)));
        }
        let Some(l) = site.loc() else { return };
        let named = matches!(site, Site::Op(_));
        if role.reads() {
            e.reads.set(l);
        }
        if role.writes() {
            e.writes.set(l);
            self.rsp_named |= named && l == Loc::Gpr(Gpr::Rsp);
        }
        match (role, l) {
            (Role::Write, _) => e.defs.set(l),
            (Role::ReadWrite, Loc::Gpr(_)) if named => e.defs.set(l),
            (Role::Merge, Loc::Xmm(x)) => e.so_def |= 1 << x.number(),
            (Role::Read | Role::ReadWrite, Loc::Xmm(x)) => self.xmm_reads |= 1 << x.number(),
            _ => {}
        }
    }
}

/// What the one liveness solution holds per block.
#[derive(Clone, PartialEq, Debug)]
struct BlockLive {
    /// What the block makes of nothing and of everything live at its end —
    /// every instruction's transfer is `gen ∪ (x − kill)`, so those two fix
    /// the block's, and the fixpoint never looks at an instruction.
    through: (Live, Live),
    live_in: Live,
    /// Edited since it was last summarized.
    dirty: bool,
    /// Union of the shape bits in the block (a removal may leave a stale
    /// bit set until the block is next summarized: a wasted visit, never a
    /// missed one).
    shape: u32,
}

/// The one liveness solution over the CFG.
struct Liveness {
    blocks: Vec<BlockLive>,
    solved: bool,
}

impl Liveness {
    fn new(n: usize) -> Liveness {
        let fresh = BlockLive {
            through: (Live::default(), Live::ALL),
            // Before the first solve every edge is taken as live.
            live_in: Live::ALL,
            dirty: true,
            shape: 0,
        };
        Liveness {
            blocks: vec![fresh; n],
            solved: false,
        }
    }

    fn any_dirty(&self) -> bool {
        self.blocks.iter().any(|b| b.dirty)
    }
}

/// Which columns a block reloads, whether a frame move comes before a
/// reload of its column (a reload may find its slot held by what the block
/// itself did), and which registers its frame moves name.
#[derive(Clone, Copy, PartialEq, Debug)]
struct AvailBlock {
    reloads: SlotSet,
    local: bool,
    /// The registers its frame moves name.
    regs: LiveSet,
}

impl AvailBlock {
    const NONE: AvailBlock = AvailBlock {
        reloads: SlotSet::EMPTY,
        local: false,
        regs: LiveSet::EMPTY,
    };
}

/// The forward must-availability of frame-slot values in registers: entry
/// `c` of a state is the set of registers that still hold the value of the
/// slot in column `c`. Only a slot some frame move reloads has a column;
/// the columns are fixed by the first solve (the cleanup only ever removes
/// reloads), and per-block rows are stored flat.
struct Avail {
    /// The column of each slot index, [`NO_SLOT`] for none.
    col: Vec<u16>,
    width: usize,
    /// The state each block is entered with.
    ins: Vec<LiveSet>,
    /// What each block holds at its end when entered with nothing, and
    /// which registers of what it is entered with still hold their slots
    /// there.
    gens: Vec<LiveSet>,
    keeps: Vec<LiveSet>,
    blocks: Vec<AvailBlock>,
    /// Edited since its summary was taken.
    dirty: Vec<bool>,
    /// The fixpoint's worklist and meet, kept for reuse.
    pending: Vec<bool>,
    meet: Vec<LiveSet>,
    /// The registers frame moves named at the last solve.
    regs: LiveSet,
}

/// See the module docs.
pub(crate) struct PassCx<'a> {
    blocks: &'a mut [CapturedBlock],
    effects: Vec<Vec<Effect>>,
    pub level: OptLevel,
    pub frame_escaped: bool,
    /// Registers live after `ret` ([`abi_ret`]).
    pub ret_live: LiveSet,
    /// Flag writers and `push`/`pop` are dead-code candidates too, and
    /// `ret` reads exactly `ret_live`. Off, the sweep removes only
    /// flag-neutral register moves and plain stores into dead frame slots,
    /// and `ret` reads every register — what the manager's conservative
    /// re-emission runs. Frame slots are tracked either way.
    pub full: bool,
    pub dec: Decoder,
    census: Census,
    /// Predecessors of every block (one entry per edge; block `b`'s are
    /// `pred_list[pred_start[b]..pred_start[b + 1]]`), and the blocks
    /// reachable from the entry block in reverse postorder (empty without
    /// a marked entry).
    pred_start: Vec<u32>,
    pred_list: Vec<u32>,
    pub rpo: Vec<usize>,
    /// Every block, successors first where the CFG allows: the order the
    /// backward fixpoint converges fastest in.
    backward: Vec<usize>,
    lv: Liveness,
    av: Avail,
    /// Per block, the instructions [`PassCx::remove`] marked dead and no
    /// compaction has dropped yet.
    tombs: Vec<u32>,
    /// Per block, how many edits it has had.
    edits: Vec<u64>,
    /// What a whole-function rule of the cleanup walked, for its ledger.
    pub scanned: u64,
    /// Reusable per-visit buffers.
    pub keep: Vec<bool>,
    pub after: Vec<LiveSet>,
    pub renamed: Vec<(usize, Inst)>,
    pub held: Vec<LiveSet>,
    spare: Vec<Effect>,
}

impl<'a> PassCx<'a> {
    /// Decode `blocks` and derive everything the stages of `level` share.
    pub fn new(
        blocks: &'a mut [CapturedBlock],
        level: OptLevel,
        frame_escaped: bool,
        ret: RetKind,
    ) -> PassCx<'a> {
        let n = blocks.len();
        let mut dec = Decoder {
            slots: Vec::with_capacity(32),
            keys: Vec::with_capacity(32),
            track_slots: !frame_escaped,
            ret_slots: SlotSet::default(),
            so: false,
            work: Work::default(),
        };
        let effects: Vec<Vec<Effect>> = blocks
            .iter()
            .map(|b| b.insts.iter().map(|ci| dec.decode(ci)).collect())
            .collect();
        let mut cx = PassCx {
            backward: Vec::new(),
            rpo: Vec::new(),
            blocks,
            level,
            frame_escaped,
            ret_live: abi_ret(level >= OptLevel::Aggressive, ret),
            full: level >= OptLevel::Dataflow,
            dec,
            census: Census::default(),
            pred_start: Vec::new(),
            pred_list: Vec::new(),
            lv: Liveness::new(n),
            av: Avail {
                col: Vec::new(),
                width: 0,
                ins: Vec::new(),
                gens: Vec::new(),
                keeps: Vec::new(),
                blocks: vec![AvailBlock::NONE; n],
                dirty: vec![true; n],
                pending: Vec::new(),
                meet: Vec::new(),
                regs: LiveSet::EMPTY,
            },
            tombs: vec![0; n],
            edits: vec![0; n],
            scanned: 0,
            keep: Vec::new(),
            after: Vec::new(),
            renamed: Vec::new(),
            held: Vec::new(),
            spare: Vec::new(),
            effects,
        };
        cx.link();
        for b in 0..n {
            for e in &cx.effects[b] {
                cx.lv.blocks[b].shape |= e.bits;
                cx.census.count(e, 1);
            }
        }
        cx.refresh_scalar_only();
        cx
    }

    /// Derive the predecessor lists and both block orders from the
    /// terminators as they are now.
    fn link(&mut self) {
        let (blocks, n) = (&*self.blocks, self.blocks.len());
        let edges = || {
            let from = |(i, b): (usize, &CapturedBlock)| b.term.successors().map(move |s| (i, s.0));
            blocks.iter().enumerate().flat_map(from).filter(|e| e.1 < n)
        };
        let mut pred_start = vec![0u32; n + 1];
        edges().for_each(|(_, s)| pred_start[s + 1] += 1);
        for s in 0..n {
            pred_start[s + 1] += pred_start[s];
        }
        let mut pred_list = vec![0u32; pred_start[n] as usize];
        let mut fill = pred_start.clone();
        for (i, s) in edges() {
            pred_list[fill[s] as usize] = i as u32;
            fill[s] += 1;
        }
        let entry = blocks.iter().position(|b| b.is_entry);
        let rpo = entry.map_or_else(Vec::new, |e| reverse_postorder(blocks, e));
        let mut reached = vec![false; n];
        rpo.iter().for_each(|&b| reached[b] = true);
        let unreached = (0..n).rev().filter(|&b| !reached[b]);
        self.backward = rpo.iter().rev().copied().chain(unreached).collect();
        (self.rpo, self.pred_start, self.pred_list) = (rpo, pred_start, pred_list);
    }

    /// [`capture::straighten`] over the blocks the context holds: each
    /// instruction's effect moves with it (nothing is decoded again), the
    /// joined blocks are dirty, and the CFG is derived again. Returns how
    /// many blocks were absorbed.
    pub fn straighten(&mut self) -> usize {
        let (effects, lv, av) = (&mut self.effects, &mut self.lv, &mut self.av);
        let absorbed = capture::straighten_with(self.blocks, |head, run| {
            let len = run.iter().map(|&m| effects[m].len()).sum();
            effects[head].reserve_exact(len);
            for &m in run {
                let moved = std::mem::take(&mut effects[m]);
                effects[head].extend(moved);
                lv.blocks[head].shape |= std::mem::take(&mut lv.blocks[m].shape);
                (lv.blocks[m].dirty, av.dirty[m]) = (true, true);
            }
            (lv.blocks[head].dirty, av.dirty[head]) = (true, true);
        });
        if absorbed > 0 {
            self.link();
            // The availability meet runs over the new edges.
            self.census.moved = true;
        }
        absorbed
    }

    /// Called between stages: once the last high-lane writer is gone the
    /// scalar moves become full definitions, everywhere at once.
    pub fn refresh_scalar_only(&mut self) {
        if !self.dec.so && self.census.lanes[0] == 0 {
            self.dec.so = true;
            for e in self.effects.iter_mut().flatten() {
                e.scalar_only();
            }
            self.lv.blocks.iter_mut().for_each(|b| b.dirty = true);
            self.av.dirty.fill(true);
            self.census.moved = true;
        }
    }

    /// No instruction reads an XMM high lane, so a scalar load (which
    /// zeroes it) and a register move (which keeps it) are interchangeable.
    pub fn hi_lanes_unobserved(&self) -> bool {
        self.census.lanes[1] == 0
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// The predecessors of block `b`, one entry per incoming edge.
    pub fn preds(&self, b: usize) -> &[u32] {
        &self.pred_list[self.pred_start[b] as usize..self.pred_start[b + 1] as usize]
    }

    pub fn insts(&self, b: usize) -> &[CapturedInst] {
        &self.blocks[b].insts
    }

    pub fn effects(&self, b: usize) -> &[Effect] {
        &self.effects[b]
    }

    pub fn block(&self, b: usize) -> &CapturedBlock {
        &self.blocks[b]
    }

    /// Union of the shape bits block `b` may contain.
    pub fn shape(&self, b: usize) -> u32 {
        self.lv.blocks[b].shape
    }

    /// Every tracked slot index in use is below this.
    pub fn slot_count(&self) -> usize {
        self.dec.keys.len()
    }

    /// The entry-rsp-relative offset of slot `ix`.
    pub fn slot_key(&self, ix: usize) -> i64 {
        self.dec.keys[ix]
    }

    fn touch(&mut self, b: usize) {
        self.lv.blocks[b].dirty = true;
        self.av.dirty[b] = true;
        self.edits[b] += 1;
    }

    /// How many edits block `b` has had: equal counts, the same block.
    pub fn edits(&self, b: usize) -> u64 {
        self.edits[b]
    }

    /// Put `ci` in place of instruction `i` of block `b`.
    pub fn replace(&mut self, b: usize, i: usize, ci: CapturedInst) {
        let e = self.dec.decode(&ci);
        self.dec.work.rewritten += 1;
        let old = &self.effects[b][i];
        self.census.count(old, -1);
        self.census.count(&e, 1);
        // A write the new instruction makes too is no kill gone.
        self.census.went(old.writes.without(e.writes));
        self.blocks[b].insts[i] = ci;
        self.effects[b][i] = e;
        self.lv.blocks[b].shape |= e.bits;
        self.touch(b);
    }

    /// [`PassCx::replace`] that keeps the frame metadata (a rename).
    pub fn set_inst(&mut self, b: usize, i: usize, inst: Inst) {
        let ci = CapturedInst {
            inst,
            ..self.blocks[b].insts[i]
        };
        self.replace(b, i, ci);
    }

    /// Mark instruction `i` of block `b` removed: its slot holds a `nop`
    /// with [`Effect::DEAD`] until [`PassCx::compact`] drops it, so no
    /// other index moves.
    pub fn remove(&mut self, b: usize, i: usize) {
        let e = std::mem::replace(&mut self.effects[b][i], Effect::DEAD);
        debug_assert!(!e.is(bit::DEAD), "removed twice");
        self.census.count(&e, -1);
        self.census.went(e.writes);
        self.blocks[b].insts[i] = CapturedInst::plain(Inst::Nop);
        self.tombs[b] += 1;
        self.touch(b);
    }

    /// Drop what [`PassCx::remove`] left in block `b`: one pass over the
    /// block, none when nothing there was removed.
    pub fn compact(&mut self, b: usize) {
        if self.tombs[b] > 0 {
            self.retain(b, |_, _| true);
        }
    }

    /// Keep the instructions of block `b` that `keep` (called with index
    /// and effect of each one not already removed) says to, and compact
    /// the block; returns how many `keep` refused.
    pub fn retain(&mut self, b: usize, mut keep: impl FnMut(usize, &Effect) -> bool) -> u64 {
        let (insts, effects) = (&mut self.blocks[b].insts, &mut self.effects[b]);
        let (mut kept, mut gone) = (0, 0);
        for i in 0..effects.len() {
            let dead = effects[i].is(bit::DEAD);
            if !dead && keep(i, &effects[i]) {
                if kept < i {
                    insts[kept] = insts[i];
                    effects[kept] = effects[i];
                }
                kept += 1;
            } else if !dead {
                self.census.count(&effects[i], -1);
                self.census.went(effects[i].writes);
                gone += 1;
            }
        }
        insts.truncate(kept);
        effects.truncate(kept);
        self.tombs[b] = 0;
        if gone > 0 {
            self.touch(b);
        }
        gone
    }

    /// Swap in a rewritten body for block `b`: `origin[k]` is the index
    /// `body[k]` had in the old body, or `None` for an instruction the
    /// stage wrote. `body` is left holding the old instructions.
    pub fn set_body(&mut self, b: usize, body: &mut Vec<CapturedInst>, origin: &[Option<u32>]) {
        let (old, dec) = (&self.effects[b], &mut self.dec);
        for e in old {
            self.census.count(e, -1);
            self.census.went(e.writes);
        }
        self.spare.clear();
        self.spare
            .extend(body.iter().zip(origin).map(|(ci, o)| match o {
                Some(i) => old[*i as usize],
                None => {
                    dec.work.rewritten += 1;
                    dec.decode(ci)
                }
            }));
        std::mem::swap(&mut self.effects[b], &mut self.spare);
        std::mem::swap(&mut self.blocks[b].insts, body);
        for e in &self.effects[b] {
            self.lv.blocks[b].shape |= e.bits;
            self.census.count(e, 1);
        }
        self.touch(b);
    }

    // -----------------------------------------------------------------
    // Liveness
    // -----------------------------------------------------------------

    /// The kill half of [`PassCx::step_back`]: drop from `live` what the
    /// instruction overwrites (a barrier or `ret` decides everything but
    /// the slots a kept call lets through).
    #[inline]
    fn kill(&self, live: &mut Live, e: &Effect) {
        if e.kind != Kind::Plain {
            let slots = live.slots;
            *live = Live::default();
            if e.is(bit::CALL) {
                live.slots = slots;
            }
            return;
        }
        live.regs = live.regs.without(e.defs);
        live.flags &= !e.is(bit::KILLS_FLAGS);
        if e.is(bit::STORE_KILLS) {
            tracked(&e.store).for_each(|i| live.slots.clear(i));
        }
    }

    /// Backward transfer of one instruction over the whole live state.
    /// Registers follow [`PassCx::step_regs`]. Frame slots follow one rule
    /// at every level: a load reads its slots (a kept `call [rsp+d]`
    /// included), a whole store kills them, an `rsp`-based read the tracer
    /// left no offset for reads them all, and `ret` reads the caller's.
    #[inline]
    pub fn step_back(&self, live: &mut Live, e: &Effect) {
        let mut regs = live.regs;
        self.step_regs(&mut regs, e);
        self.kill(live, e);
        live.regs = regs;
        match e.kind {
            // Flags are not part of the return ABI; the frame below the
            // return address is gone.
            Kind::Ret => {
                live.slots = self.dec.ret_slots;
                return;
            }
            Kind::Barrier => {
                live.flags = true;
                if !e.is(bit::CALL) {
                    live.slots = SlotSet::ALL;
                }
            }
            Kind::Plain => live.flags |= e.is(bit::READS_FLAGS),
        }
        tracked(&e.load).for_each(|i| live.slots.set(i));
        if e.is(bit::READS_ALL_SLOTS) && self.dec.track_slots {
            live.slots = SlotSet::ALL;
        }
    }

    /// Backward transfer of one instruction over registers alone, the one
    /// register rule of the liveness and of the block-local rules: a
    /// barrier reads every register, and `ret` reads the return contract
    /// ([`PassCx::ret_live`]) and `rsp` when `full`, every register
    /// otherwise.
    #[inline]
    pub fn step_regs(&self, live: &mut LiveSet, e: &Effect) {
        *live = match e.kind {
            Kind::Plain => live.without(e.defs).union(e.reads),
            Kind::Ret if self.full => {
                let mut regs = self.ret_live;
                regs.set(Loc::Gpr(Gpr::Rsp));
                regs
            }
            _ => LiveSet::ALL,
        };
    }

    /// Every transfer is `gen ∪ (x − kill)`, so one backward pass gives
    /// both ends: what the block generates, and what it lets through.
    fn summarize(&mut self, b: usize) {
        let (mut lo, mut passes) = (Live::default(), Live::ALL);
        let mut shape = 0;
        for e in self.effects[b].iter().rev() {
            self.step_back(&mut lo, e);
            self.kill(&mut passes, e);
            shape |= e.bits;
        }
        let block = &mut self.lv.blocks[b];
        (block.shape, block.through, block.dirty) = (shape, (lo, lo.union(passes)), false);
    }

    /// The least fixpoint of the backward equations over the blocks as
    /// they are now. Free when nothing changed since the last one.
    pub fn solve(&mut self) {
        let n = self.len();
        if self.lv.solved && !self.lv.any_dirty() {
            return;
        }
        for b in 0..n {
            if self.lv.blocks[b].dirty {
                self.summarize(b);
            }
        }
        self.dec.work.solves += 1;
        self.lv.solved = true;
        self.lv
            .blocks
            .iter_mut()
            .for_each(|b| b.live_in = Live::default());
        loop {
            let mut changed = false;
            for &b in &self.backward {
                let (lo, hi) = self.lv.blocks[b].through;
                let inn = lo.union(self.live_out(b).intersect(hi));
                changed |= inn != self.lv.blocks[b].live_in;
                self.lv.blocks[b].live_in = inn;
            }
            if !changed {
                return;
            }
        }
    }

    /// What is live when block `b` hands over. Edges that leave the block
    /// list stay conservative, and so does every edge before the first
    /// [`PassCx::solve`]; the stack pointer is structural and never dead.
    pub fn live_out(&self, b: usize) -> Live {
        let term = self.blocks[b].term;
        let mut out = Live::default();
        for s in term.successors() {
            out = out.union(self.lv.blocks.get(s.0).map_or(Live::ALL, |b| b.live_in));
        }
        match term {
            // The `ret` instruction itself sets the contract (its register
            // half only when `self.full`); a ret block without one keeps it
            // here.
            Terminator::Ret => {
                out.regs = self.ret_live;
                out.slots = self.dec.ret_slots;
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

    pub fn live_in(&self, b: usize) -> Live {
        self.lv.blocks[b].live_in
    }

    /// A sweep leaves block `b` with this state live in.
    pub(super) fn set_live_in(&mut self, b: usize, live: Live) {
        self.lv.blocks[b].live_in = live;
    }

    /// Are the flags as left by instruction `pos - 1` of block `b` provably
    /// never read? (`ret` ends their life: they are not part of the return
    /// ABI.) Past the block, [`PassCx::live_out`] says.
    pub fn flags_dead_at(&self, b: usize, pos: usize) -> bool {
        for e in &self.effects[b][pos..] {
            if e.kind == Kind::Ret || e.is(bit::KILLS_FLAGS) {
                return true;
            }
            if e.is(bit::READS_FLAGS) || e.kind == Kind::Barrier {
                return false;
            }
        }
        !self.live_out(b).flags
    }

    /// Fill [`PassCx::after`] with the registers live just after each
    /// instruction of block `b` as it is now, for the block-local
    /// cleanups ([`PassCx::step_regs`]).
    pub fn fill_after(&mut self, b: usize, live_out: LiveSet) {
        let mut live = live_out;
        let mut after = std::mem::take(&mut self.after);
        after.clear();
        after.resize(self.effects[b].len(), LiveSet::EMPTY);
        for (slot, e) in after.iter_mut().zip(&self.effects[b]).rev() {
            *slot = live;
            self.step_regs(&mut live, e);
        }
        self.after = after;
    }

    // -----------------------------------------------------------------
    // Availability
    // -----------------------------------------------------------------

    /// The registers a pair may name: every GPR but `rsp` and `rbp`, and
    /// the XMM registers only in scalar-only code (a scalar reload zeroes
    /// the high lane a register move keeps).
    pub fn avail_regs(&self) -> LiveSet {
        let gprs = !(1 << Gpr::Rsp.number() | 1 << Gpr::Rbp.number());
        LiveSet::of(gprs, if self.dec.so { !0 } else { 0 })
    }

    /// The column of a tracked slot, if it has one.
    fn col(&self, slot: usize) -> Option<usize> {
        let c = *self.av.col.get(slot)?;
        (c != NO_SLOT).then_some(c as usize)
    }

    /// `(column, register, is_load)` of a plain 8-byte move between one
    /// tracked frame slot with a column and a register a pair may name:
    /// what pairs the two.
    pub fn frame_move(&self, e: &Effect, inst: &Inst) -> Option<(usize, Loc, bool)> {
        if !e.is(bit::FRAME_GPR | bit::FRAME_XMM) {
            return None;
        }
        let (reg, load) = match *inst {
            Inst::Mov {
                dst: Operand::Reg(r),
                src: Operand::Mem(_),
                ..
            } => (Loc::Gpr(r), true),
            Inst::Mov {
                dst: Operand::Mem(_),
                src: Operand::Reg(r),
                ..
            } => (Loc::Gpr(r), false),
            Inst::MovSd {
                dst: Operand::Xmm(x),
                src: Operand::Mem(_),
            } => (Loc::Xmm(x), true),
            Inst::MovSd {
                dst: Operand::Mem(_),
                src: Operand::Xmm(x),
            } => (Loc::Xmm(x), false),
            _ => return None,
        };
        let (one, none) = if load {
            (&e.load, &e.store)
        } else {
            (&e.store, &e.load)
        };
        if one[0] >= UNTRACKED || one[1] != NO_SLOT || none[0] != NO_SLOT {
            return None;
        }
        let c = self.col(one[0] as usize)?;
        self.avail_regs().has(reg).then_some((c, reg, load))
    }

    /// Forward transfer of one instruction, whose [`PassCx::frame_move`]
    /// is `mv`, over an availability state; `held` is a superset of the
    /// registers the state names. A write to a register kills the pairs
    /// that name it, a store to a slot (`push`, narrow and unaligned ones
    /// included) the pairs of the slot, and a barrier, `ret` or `rsp`-based
    /// store with no slot tag every pair; a frame move then pairs its slot
    /// and register.
    pub fn step_avail(
        &self,
        st: &mut [LiveSet],
        held: &mut LiveSet,
        e: &Effect,
        mv: Option<(usize, Loc, bool)>,
    ) {
        if e.kind != Kind::Plain || e.is(bit::STORES_UNTAGGED) {
            if *held != LiveSet::EMPTY {
                st.fill(LiveSet::EMPTY);
                *held = LiveSet::EMPTY;
            }
            return;
        }
        let gone = e.writes.intersect(*held);
        if gone != LiveSet::EMPTY {
            st.iter_mut().for_each(|a| *a = a.without(gone));
            *held = held.without(gone);
        }
        if e.store[0] != NO_SLOT {
            tracked(&e.store)
                .filter_map(|s| self.col(s))
                .for_each(|c| st[c] = LiveSet::EMPTY);
        }
        if let Some((c, r, _)) = mv {
            st[c].set(r);
            held.set(r);
        }
    }

    /// What block `b` holds at its end when entered with nothing, what it
    /// keeps of what it is entered with (nothing of a slot it stores to, or
    /// past a barrier, `ret` or untagged `rsp` store), which columns it
    /// reloads, and whether a frame move comes before a reload of its
    /// column. One walk back: a pair is held at the end unless an
    /// instruction after the move that makes it kills it.
    fn summarize_avail(&mut self, b: usize) {
        let row = b * self.av.width..(b + 1) * self.av.width;
        let (mut gens, mut keeps) = (
            std::mem::take(&mut self.av.gens),
            std::mem::take(&mut self.av.keeps),
        );
        let (st, keep) = (&mut gens[row.clone()], &mut keeps[row]);
        st.fill(LiveSet::EMPTY);
        // What the instructions after the current one write and store to,
        // and whether one of them lets nothing through.
        let (mut written, mut stored, mut all) = (LiveSet::EMPTY, SlotSet::EMPTY, false);
        let (mut reloaded, mut sum) = (SlotSet::EMPTY, AvailBlock::NONE);
        let moves = self.shape(b) & (bit::FRAME_GPR | bit::FRAME_XMM) != 0;
        for (e, ci) in self.effects[b].iter().zip(&self.blocks[b].insts).rev() {
            if let Some((c, r, load)) = moves.then(|| self.frame_move(e, &ci.inst)).flatten() {
                if !all && !stored.has(c) && !written.has(r) {
                    st[c].set(r);
                }
                sum.local |= reloaded.has(c);
                if load {
                    reloaded.set(c);
                }
                sum.regs.set(r);
            }
            all |= e.kind != Kind::Plain || e.is(bit::STORES_UNTAGGED);
            written = written.union(e.writes);
            if e.store[0] != NO_SLOT {
                tracked(&e.store)
                    .filter_map(|s| self.col(s))
                    .for_each(|c| stored.set(c));
            }
        }
        let through = if all {
            LiveSet::EMPTY
        } else {
            LiveSet::ALL.without(written)
        };
        for (c, k) in keep.iter_mut().enumerate() {
            *k = if stored.has(c) {
                LiveSet::EMPTY
            } else {
                through
            };
        }
        (self.av.gens, self.av.keeps) = (gens, keeps);
        sum.reloads = reloaded;
        self.av.blocks[b] = sum;
        self.av.dirty[b] = false;
    }

    /// The greatest fixpoint of the forward availability equations over
    /// the blocks as they are now: the entry block and a block the entry
    /// does not reach start with nothing held, every other block with what
    /// all its predecessors hand over. Re-summarizes only the blocks edited
    /// since the last solve. Returns whether a reload may find more than
    /// the last solve let it: `false` without a slot to solve for, or when
    /// no edit since could bring a pair back.
    pub fn solve_avail(&mut self) -> bool {
        let n = self.len();
        if self.av.col.is_empty() {
            // A frame move that reloads one tracked slot.
            let reload = |e: &Effect| {
                e.is(bit::FRAME_GPR | bit::FRAME_XMM)
                    && e.store[0] == NO_SLOT
                    && e.load[0] < UNTRACKED
                    && e.load[1] == NO_SLOT
            };
            let mut col = vec![NO_SLOT; self.slot_count().max(1)];
            let mut w = 0;
            for e in self.effects.iter().flatten().filter(|e| reload(e)) {
                if col[e.load[0] as usize] == NO_SLOT {
                    col[e.load[0] as usize] = w;
                    w += 1;
                }
            }
            self.av.col = col;
            self.av.width = w as usize;
            self.av.ins = vec![LiveSet::EMPTY; n * w as usize];
            self.av.gens = vec![LiveSet::EMPTY; n * w as usize];
            self.av.keeps = vec![LiveSet::EMPTY; n * w as usize];
        }
        let w = self.av.width;
        // Only a new frame move or a kill that went can hold a pair the last
        // solve did not; a write that went kills a pair only if a frame
        // move names its register.
        let gone = self.census.gone.intersect(self.av.regs) != LiveSet::EMPTY;
        if w == 0 || (self.census.avail && !self.census.moved && !gone) {
            return false;
        }
        (self.census.moved, self.census.gone) = (false, LiveSet::EMPTY);
        self.census.avail = true;
        self.av.regs = LiveSet::EMPTY;
        for b in 0..n {
            if self.av.dirty[b] {
                self.summarize_avail(b);
            }
            self.av.regs = self.av.regs.union(self.av.blocks[b].regs);
        }
        let top = self.avail_regs();
        let Avail {
            ins,
            gens,
            keeps,
            pending,
            meet,
            ..
        } = &mut self.av;
        let (starts, list, blocks) = (&self.pred_start, &self.pred_list, &*self.blocks);
        // The entry block's row and an unreached block's stay empty.
        let inner = self.rpo.get(1..).unwrap_or_default();
        for &b in inner {
            ins[b * w..(b + 1) * w].fill(top);
        }
        // Each block once in reverse postorder, then again only where a
        // predecessor's state changed after it was visited (a back edge).
        pending.clear();
        pending.resize(n, true);
        meet.resize(w, top);
        loop {
            let mut changed = false;
            for &b in inner {
                if !std::mem::replace(&mut pending[b], false) {
                    continue;
                }
                meet.fill(top);
                for &p in &list[starts[b] as usize..starts[b + 1] as usize] {
                    let at = p as usize * w..(p as usize + 1) * w;
                    let out = gens[at.clone()]
                        .iter()
                        .zip(&ins[at.clone()])
                        .zip(&keeps[at]);
                    for (m, ((&g, &i), &k)) in meet.iter_mut().zip(out) {
                        *m = m.intersect(g.union(i.intersect(k)));
                    }
                }
                let row = &mut ins[b * w..(b + 1) * w];
                if row != &meet[..] {
                    row.copy_from_slice(meet);
                    changed = true;
                    let succs = blocks[b].term.successors().filter(|t| t.0 < n);
                    succs.for_each(|t| pending[t.0] = true);
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// Can a reload in block `b` find its slot held: does the block itself
    /// hold one for it, or enter holding a slot it reloads (as of the last
    /// [`PassCx::solve_avail`])?
    pub fn may_forward(&self, b: usize) -> bool {
        let sum = &self.av.blocks[b];
        let row = self.avail_in(b);
        sum.local || (0..row.len()).any(|c| sum.reloads.has(c) && row[c] != LiveSet::EMPTY)
    }

    /// Which registers hold each column's slot when block `b` is entered,
    /// as of the last [`PassCx::solve_avail`].
    pub fn avail_in(&self, b: usize) -> &[LiveSet] {
        let w = self.av.width;
        &self.av.ins[b * w..(b + 1) * w]
    }

    /// The work counters so far.
    pub fn work(&self) -> Work {
        self.dec.work
    }

    pub fn visit(&mut self) {
        self.dec.work.visits += 1;
    }

    /// No removed instruction is left uncompacted, every cached effect
    /// equals a fresh decode of its instruction, every summarized block's
    /// live-in state equals a from-scratch solution's, and so does every
    /// clean block's availability summary.
    pub fn assert_coherent(&mut self) {
        let work = self.dec.work;
        for (b, block) in self.blocks.iter().enumerate() {
            let dead = self.effects[b].iter().any(|e| e.is(bit::DEAD));
            assert!(!dead, "block {b} holds a removed instruction");
            let fresh: Vec<Effect> = block.insts.iter().map(|ci| self.dec.decode(ci)).collect();
            assert_eq!(fresh, self.effects[b], "stale effects in block {b}");
        }
        if self.lv.solved && !self.lv.any_dirty() {
            let kept = self.lv.blocks.clone();
            self.lv.blocks.iter_mut().for_each(|b| b.dirty = true);
            self.solve();
            for (b, (kept, fresh)) in kept.iter().zip(&self.lv.blocks).enumerate() {
                assert_eq!(kept.through, fresh.through, "stale summary of block {b}");
                // A sweep may leave a state above the least fixpoint of what
                // remains (deleting code only ever shrinks liveness), never
                // one below it.
                assert_eq!(kept.live_in.union(fresh.live_in), kept.live_in, "block {b}");
            }
            self.lv.blocks = kept;
        }
        if !self.av.col.is_empty() {
            let kept = (self.av.gens.clone(), self.av.keeps.clone());
            let sums = self.av.blocks.clone();
            let clean: Vec<usize> = (0..self.len()).filter(|&b| !self.av.dirty[b]).collect();
            clean.into_iter().for_each(|b| self.summarize_avail(b));
            assert_eq!(kept.0, self.av.gens, "stale availability gens");
            assert_eq!(kept.1, self.av.keeps, "stale availability keeps");
            assert_eq!(sums, self.av.blocks, "stale availability summaries");
        }
        self.dec.work = work;
    }
}

/// What the edits added and removed: the instructions left that set
/// `bit::NON_SCALAR` / `bit::HI_OBSERVED`, and, since the last availability
/// solve (`avail`: there has been one), the registers whose writes went and
/// whether a frame move came or a barrier or untagged `rsp` store went.
#[derive(Default)]
struct Census {
    lanes: [usize; 2],
    avail: bool,
    gone: LiveSet,
    moved: bool,
}

impl Census {
    /// Keep the census in step with an edit that adds (`by` 1) or removes
    /// (`by` -1) `e`.
    fn count(&mut self, e: &Effect, by: isize) {
        for (n, bit) in self
            .lanes
            .iter_mut()
            .zip([bit::NON_SCALAR, bit::HI_OBSERVED])
        {
            if e.is(bit) {
                *n = n.wrapping_add_signed(by);
            }
        }
        // What a pair can come back by: a frame move that names another
        // register, or a kill that went (the editors note the writes that
        // went, `went`). A store the sweep deletes is dead: no reload
        // reads the slot before the next store.
        if self.avail {
            self.moved |= match by > 0 {
                true => e.is(bit::FRAME_GPR | bit::FRAME_XMM),
                false => e.kind != Kind::Plain || e.is(bit::STORES_UNTAGGED),
            };
        }
    }

    /// Writes to `regs` went.
    fn went(&mut self, regs: LiveSet) {
        if self.avail {
            self.gone = self.gone.union(regs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effect(inst: Inst) -> Effect {
        let mut dec = Decoder {
            slots: Vec::new(),
            keys: Vec::new(),
            track_slots: true,
            ret_slots: SlotSet::default(),
            so: false,
            work: Work::default(),
        };
        dec.decode(&CapturedInst::plain(inst))
    }

    #[test]
    fn only_push_pop_and_adjustments_move_rsp_by_a_tracked_amount() {
        let (rax, rsp) = (Operand::Reg(Gpr::Rax), Operand::Reg(Gpr::Rsp));
        let add = |w, by| Inst::Alu {
            op: AluOp::Add,
            w,
            dst: rsp,
            src: Operand::Imm(by),
        };
        assert_eq!(effect(Inst::Push { src: rax }).rsp, -8);
        assert_eq!(effect(Inst::Pop { dst: rax }).rsp, 8);
        assert_eq!(effect(add(Width::W64, 16)).rsp, 16);
        assert_eq!(effect(rsp_bump(-24).inst).rsp, -24);
        // `pop rsp` loads rsp from the slot; it does not move it by 8.
        assert_eq!(effect(Inst::Pop { dst: rsp }).rsp, RSP_LOST);
        // A 32-bit write zero-extends rsp.
        assert_eq!(effect(add(Width::W32, 16)).rsp, RSP_LOST);
        let mov = Inst::Mov {
            w: Width::W64,
            dst: rsp,
            src: Operand::Reg(Gpr::Rbp),
        };
        assert_eq!(effect(mov).rsp, RSP_LOST);
        assert_eq!(effect(Inst::Ret).rsp, RSP_LOST);
        assert_eq!(effect(Inst::Nop).rsp, 0);
    }
}
