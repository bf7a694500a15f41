//! Post-rewrite register allocation (paper §IV: "register renaming" is the
//! prototype's named next step; ROADMAP item 1).
//!
//! Two phases, both driven by the `x86::defuse` sets validated
//! differentially against the emulator; `run_passes` calls each once, slot
//! allocation from `OptLevel::SlotAlloc` up, then the cleanup, the last
//! stage from `OptLevel::Peephole` up (stack pairs only line up once the
//! spill traffic between them is gone):
//!
//! 1. **Slot allocation** (`allocate_slots`). The rewriter's input code
//!    (like any compiler's spill code) round-trips values through frame
//!    slots; after specialization deletes the surrounding computation those
//!    round-trips often dominate. §IV of the paper argues such cleanups
//!    "can be much simpler than corresponding compiler passes, as being
//!    tailored to specific cases": for every frame slot that is only ever
//!    accessed by aligned plain 8-byte moves, a slot *extent* (the blocks
//!    that access it or have it live in or out in the shared liveness —
//!    the one solution every pass reads — loop back-edge paths included),
//!    and a linear scan over the caller-saved scratch pools (`r8`–`r11`,
//!    `xmm8`–`xmm15`) that assigns a register no instruction names in any
//!    extent block or in any block reachable from one. Spill fallback is the identity: a slot with no
//!    free register simply stays in memory, so the pass can never make
//!    code worse. A kept call, indirect jump or `ud2` in or ahead of an
//!    extent block keeps the slot in memory (the callee may read or
//!    clobber the pool); `ret` does not — no caller may expect a
//!    caller-saved register to survive the call it made, so the pools are
//!    dead there whatever the conservative sweeps assume.
//!
//! 2. **Cleanup** (`cleanup`) — the rename work that makes phase 1 pay
//!    off, and the one engine of every local rule. Allocation leaves
//!    chains of register-to-register moves, paired `rsp` adjustments
//!    around now-registerized temporaries, and address-computation
//!    triples. The cleanup first straightens the CFG (one block per
//!    straight-line run, `capture::straighten`), so no rule stops where an
//!    unrolled iteration ended. One driver runs the rows of `RULES`:
//!    rounds to a fixpoint, each rule over every block whose code or
//!    live-out state changed since its own last run there, then the
//!    settling rows. A rule removes by tombstone (`PassCx::remove`) and the
//!    driver compacts the block after it. In table order, each from the
//!    level named and justified by the solved CFG liveness:
//!    * the frame-reload rule (`Dataflow`), justified by the forward
//!      availability solve instead: a reload of a slot a register still
//!      holds on every path becomes a move;
//!    * no-op removal (`Peephole`): self-moves, `lea r, [r]`, `nop`;
//!    * the shared dead-code sweep ([`crate::dataflow`], `Peephole`): any
//!      side-effect-free instruction (including a load from an
//!      `rsp`-relative or absolute address, which cannot fault) whose
//!      writes are dead across the block boundary;
//!    * the stack-pair rule (`cancel_rsp_pairs`, `Peephole`): an
//!      allocation of `k` bytes or a `push` closes at its balancing
//!      release (or, for a push, at a `pop` that becomes a register move)
//!      when the only `rsp` references between are plain accesses above
//!      the `k` bytes, which it rebases; a removed ALU adjustment's flags
//!      must be dead;
//!    * the addend rule (`fold_addends`, `Peephole`): `add/sub r, k` joins
//!      a `mov r, c` before it or the next `add/sub r, k'`, across
//!      instructions that leave the sum `r` holds the same, when the flags
//!      the window leaves are dead;
//!    * address folding (`Regalloc`): `mov a, b; add a, k; ... [a+d] ...`
//!      becomes `[b+d+k]` when `a` dies at the use;
//!    * backward copy coalescing (`Regalloc`): `mov d, s` where `s` dies is
//!      removed by renaming `s` to `d` across the window back to `s`'s full
//!      definition — deliberately walking *through* read-modify-write
//!      instructions of `s` (the accumulator pattern) to the real def;
//!    * forward copy propagation (`Regalloc`): `mov d, s` is removed by
//!      rewriting the downstream reads of `d` to `s` while `s` is
//!      unclobbered;
//!    * settling: what no pair claims merges with its neighbour
//!      (`Peephole`), and the frame and dead saves go across blocks
//!      (`Aggressive`).
//!
//! `frame_escaped` blocks phase 1 exactly as it blocks the removal of dead
//! frame stores: an escaped frame address means untracked loads may alias
//! any slot, so the shared liveness tracks no slot at all. Phase 2 still
//! runs — it touches only registers and balanced `rsp` pairs. The output
//! must (and does: see `tests/differential.rs` and
//! the verifier suites) stay bit-identical under the emulator and pass the
//! static verifier unchanged — rsp-pair removal is balanced so stack
//! discipline holds, and no transform introduces a memory write.

use crate::capture::CapturedInst;
use crate::dataflow::cx::{bit, rsp_bump, tracked, Kind, PassCx, NO_SLOT, RULE_ROWS, UNTRACKED};
use crate::dataflow::liveness::{self, Live, LiveSet, SlotSet};
use crate::passes::OptLevel;
use brew_x86::defuse::{Role, Site};
use brew_x86::prelude::*;

/// When, and over what, a row of [`RULES`] runs: at the start of every
/// round (before its solve); in every round over a block, given the
/// registers live out of it; once the rounds change nothing over every
/// block, and last over the function after a solve (an edit there starts
/// the rounds again).
#[derive(Clone, Copy)]
enum Run {
    Round(fn(&mut PassCx) -> u64),
    Block(fn(&mut PassCx, usize, LiveSet) -> u64),
    Settle(fn(&mut PassCx, usize, LiveSet) -> u64),
    Last(fn(&mut PassCx) -> u64),
}

/// A rule: from level `from` up, over a block whose shape holds one of the
/// `shape` bits (any block for 0). It counts what it removes, a reload made
/// a move counting one.
pub(crate) struct Rule {
    pub name: &'static str,
    from: OptLevel,
    shape: u32,
    run: Run,
}

macro_rules! rules {
    ($($name:literal $from:ident $shape:expr => $run:expr;)*) => {
        [$(Rule { name: $name, from: OptLevel::$from, shape: $shape, run: $run },)*]
    };
}

/// The cleanup's rules in the order a round runs them; the module doc says
/// what each does and why its level justifies it.
pub(crate) const RULES: [Rule; RULE_ROWS] = rules! {
    "frame-reloads" Dataflow 0 => Run::Round(forward_reloads);
    "noops" Peephole bit::NOOP => Run::Block(|cx, b, _| cx.retain(b, |_, e| !e.is(bit::NOOP)));
    "sweep" Peephole 0 => Run::Block(|cx, b, _| liveness::sweep(cx, b));
    "stack-pairs" Peephole bit::RSP_ADJUST | bit::PUSH_RI => Run::Block(cancel_rsp_pairs);
    "addends" Peephole bit::ADDEND => Run::Block(fold_addends);
    "addresses" Regalloc bit::FOLD_HEAD => Run::Block(fold_addresses);
    "coalesce" Regalloc bit::COPY => Run::Block(coalesce_backward);
    "propagate" Regalloc bit::COPY => Run::Block(propagate_copies);
    "merge-adjustments" Peephole bit::RSP_ADJUST => Run::Settle(merge_rsp_adjustments);
    "frame-and-saves" Aggressive 0 => Run::Last(elide_frame_and_saves);
};

/// Run the cleanup: the rounds of every row [`RULES`] selects at the level
/// to a fixpoint, then the settling rows, again until nothing changes.
/// Returns the number of instructions removed. From
/// [`OptLevel::Aggressive`] the `ret`-boundary live-out contract
/// (`liveness::abi_ret`) narrows from everything an observer might read to
/// — translation-validated by `brew-verify` before publication — exactly
/// the declared return class plus the callee-saved set.
pub(crate) fn cleanup(cx: &mut PassCx) -> u64 {
    // One block per straight-line run: the local rules see across what
    // were unrolled iterations. Not before slot allocation, which decides
    // register availability per block.
    cx.straighten();
    // Per block, its edit count (`PassCx::edits`) and live-out state when
    // a round last visited it, and per row the edit count when the row last
    // ran over it. A rule reads nothing but the block and its live-out
    // state: run again where neither moved, it would find nothing.
    let mut visited: Vec<Option<(u64, Live)>> = vec![None; cx.len()];
    let mut ran = vec![[u64::MAX; RULE_ROWS]; cx.len()];
    let (mut first, mut removed) = (true, 0);
    loop {
        loop {
            let mut round = run_whole(cx, false, first);
            cx.solve();
            for (b, ran) in ran.iter_mut().enumerate() {
                let now = Some((cx.edits(b), cx.live_out(b)));
                let moved = visited[b].map(|v| v.1) != now.map(|v| v.1);
                if std::mem::replace(&mut visited[b], now) != now {
                    round += run_block(cx, b, ran, false, moved, first);
                }
            }
            (first, removed) = (false, removed + round);
            if round == 0 {
                break;
            }
        }
        let mut extra = 0;
        for (b, ran) in ran.iter_mut().enumerate() {
            extra += run_block(cx, b, ran, true, true, false);
        }
        extra += run_whole(cx, true, false);
        removed += extra;
        if extra == 0 {
            return removed;
        }
        cx.solve();
    }
}

/// The rows the level selects, with their index.
fn rows(level: OptLevel) -> impl Iterator<Item = (usize, &'static Rule)> {
    RULES
        .iter()
        .enumerate()
        .filter(move |(_, r)| level >= r.from)
}

/// Enter a run of row `ix` in its ledger: `edits` over `scanned`
/// instructions, in the cleanup's `first` round or a later one.
fn bill(cx: &mut PassCx, ix: usize, first: bool, edits: u64, scanned: u64) {
    let w = &mut cx.dec.work.rules[ix];
    (w.visits, w.edits, w.scanned) = (w.visits + 1, w.edits + edits, w.scanned + scanned);
    w.rescanned += if first { 0 } else { scanned };
}

/// The whole-function rows of a round (or, `last`, the last ones, each
/// after a solve), every block compacted after each.
fn run_whole(cx: &mut PassCx, last: bool, first: bool) -> u64 {
    let mut edits = 0;
    for (ix, r) in rows(cx.level) {
        let run = match r.run {
            Run::Round(run) if !last => run,
            Run::Last(run) if last => run,
            _ => continue,
        };
        if last {
            cx.solve();
        }
        cx.scanned = 0;
        let e = run(cx);
        (0..cx.len()).for_each(|b| cx.compact(b));
        bill(cx, ix, first, e, cx.scanned);
        edits += e;
    }
    edits
}

/// The block rows of a round (or, `settle`, the settling ones) over block
/// `b`, each where the block holds its shape and its live-out state
/// `moved` or it was edited since the row last ran over it (`ran`), the
/// block compacted after each.
fn run_block(
    cx: &mut PassCx,
    b: usize,
    ran: &mut [u64],
    settle: bool,
    moved: bool,
    first: bool,
) -> u64 {
    let (mut edits, out) = (0, cx.live_out(b).regs);
    for (ix, r) in rows(cx.level) {
        let run = match r.run {
            Run::Block(run) if !settle => run,
            Run::Settle(run) if settle => run,
            _ => continue,
        };
        let shaped = r.shape == 0 || cx.shape(b) & r.shape != 0;
        if !shaped || (!moved && ran[ix] == cx.edits(b)) {
            continue;
        }
        ran[ix] = cx.edits(b);
        let scanned = cx.insts(b).len() as u64;
        let e = run(cx, b, out);
        cx.compact(b);
        bill(cx, ix, first, e, scanned);
        edits += e;
    }
    edits
}

// ---------------------------------------------------------------------------
// Phase 1: CFG-aware slot allocation
// ---------------------------------------------------------------------------

/// Caller-saved scratch pools, least likely to collide first.
const GPR_POOL: [Loc; 4] = [
    Loc::Gpr(Gpr::R11),
    Loc::Gpr(Gpr::R10),
    Loc::Gpr(Gpr::R9),
    Loc::Gpr(Gpr::R8),
];
const XMM_POOL: [Loc; 8] = [
    Loc::Xmm(Xmm::Xmm15),
    Loc::Xmm(Xmm::Xmm14),
    Loc::Xmm(Xmm::Xmm13),
    Loc::Xmm(Xmm::Xmm12),
    Loc::Xmm(Xmm::Xmm11),
    Loc::Xmm(Xmm::Xmm10),
    Loc::Xmm(Xmm::Xmm9),
    Loc::Xmm(Xmm::Xmm8),
];

/// Move frame slots into scratch registers whose live ranges provably avoid
/// the slot's extent. Returns conversions (not removals).
pub(crate) fn allocate_slots(cx: &mut PassCx) -> u64 {
    let (n, slots) = (cx.len(), cx.slot_count());
    if slots == 0 {
        return 0;
    }

    // Candidate slots: every access that touches the slot is an aligned
    // plain move of one class (which names exactly that slot). A packed,
    // narrow or unaligned access keeps every slot it touches in memory.
    let mut class = vec![0u32; slots];
    let mut uses = vec![0u64; slots];
    const KEPT: u32 = u32::MAX;

    // Per block: the slots it accesses, then (from the shared liveness) the
    // ones live into or out of it — together the blocks each slot's value
    // must survive, its extent, which is what a linearized interval would
    // get wrong across loop back-edges.
    //
    // Register availability per block: every register referenced in the
    // block or in any block reachable from it — a superset of what is live
    // anywhere in the block, since a live register is one some path ahead
    // reads. A kept call, indirect jump or `ud2` (and an edge that leaves
    // the capture) may read or clobber anything; `ret` reads the return and
    // callee-saved registers, never a pool register, so it is no barrier.
    let mut extent = vec![SlotSet::default(); n];
    let mut busy = vec![LiveSet::EMPTY; n];
    for b in 0..n {
        for e in cx.effects(b) {
            busy[b] = match e.kind {
                Kind::Barrier => LiveSet::ALL,
                _ => busy[b].union(e.reads).union(e.writes),
            };
            let c = e.bits & (bit::FRAME_GPR | bit::FRAME_XMM);
            for list in [&e.load, &e.store] {
                if list[0] == NO_SLOT {
                    continue;
                }
                if c != 0 && list[1] == NO_SLOT && list[0] != UNTRACKED {
                    class[list[0] as usize] |= c;
                    uses[list[0] as usize] += 1;
                } else {
                    tracked(list).for_each(|i| class[i] = KEPT);
                }
                tracked(list).for_each(|i| extent[b].set(i));
            }
        }
        if cx.block(b).term.successors().any(|t| t.0 >= n) {
            busy[b] = LiveSet::ALL;
        }
    }
    // Hottest first.
    let mut cands: Vec<usize> = (0..slots)
        .filter(|&s| uses[s] >= 2 && class[s].count_ones() == 1)
        .collect();
    if cands.is_empty() {
        return 0;
    }
    cands.sort_by_key(|&s| (std::cmp::Reverse(uses[s]), cx.slot_key(s)));
    cx.solve();
    for (b, ext) in extent.iter_mut().enumerate() {
        *ext = ext.union(cx.live_in(b).slots).union(cx.live_out(b).slots);
    }
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let mut ahead = busy[i];
            for t in cx.block(i).term.successors().filter(|t| t.0 < n) {
                ahead = ahead.union(busy[t.0]);
            }
            changed |= ahead != busy[i];
            busy[i] = ahead;
        }
        if !changed {
            break;
        }
    }

    // Linear scan over the scratch pools, hottest slot first. A register
    // is free for a slot iff it is busy in none of the extent's blocks;
    // with none free the slot stays in memory.
    let mut assigned: Vec<Option<Loc>> = vec![None; slots];
    let mut blocks: Vec<usize> = Vec::with_capacity(n);
    for &s in &cands {
        blocks.clear();
        blocks.extend((0..n).filter(|&i| extent[i].has(s)));
        let pool: &[Loc] = match class[s] {
            bit::FRAME_GPR => &GPR_POOL,
            _ => &XMM_POOL,
        };
        let free = |r: &&Loc| blocks.iter().all(|&i| !busy[i].has(**r));
        if let Some(&r) = pool.iter().find(free) {
            assigned[s] = Some(r);
            for &i in &blocks {
                busy[i].set(r);
            }
        }
    }

    let mut converted = 0;
    for b in 0..n {
        for i in 0..cx.insts(b).len() {
            let e = &cx.effects(b)[i];
            let slot = match (e.store[0], e.load[0]) {
                (s, NO_SLOT) | (NO_SLOT, s) if s < UNTRACKED => s as usize,
                _ => continue,
            };
            let reg = |op: Operand, r: Operand| if op.is_mem() { r } else { op };
            let new = match (assigned[slot], cx.insts(b)[i].inst) {
                (Some(Loc::Gpr(r)), Inst::Mov { w, dst, src }) => Inst::Mov {
                    w,
                    dst: reg(dst, Operand::Reg(r)),
                    src: reg(src, Operand::Reg(r)),
                },
                (Some(Loc::Xmm(x)), Inst::MovSd { dst, src }) => Inst::MovSd {
                    dst: reg(dst, Operand::Xmm(x)),
                    src: reg(src, Operand::Xmm(x)),
                },
                _ => continue,
            };
            cx.replace(b, i, CapturedInst::plain(new));
            converted += 1;
        }
    }
    converted
}

// ---------------------------------------------------------------------------
// Phase 2a: the stack-pair rule
// ---------------------------------------------------------------------------

/// Cancel the balanced stack-pointer pairs of block `b`, the one rule for
/// them, which every cleanup round runs; returns the instructions removed.
///
/// * An *opener* allocates `k` bytes: `sub rsp, k`, `lea rsp, [rsp-k]`, or
///   a `push x` of a register or an immediate (`k` = 8).
/// * It closes at the next live instruction that moves `rsp`, when no
///   barrier comes first and that instruction is the balancing release or,
///   for a push, a `pop y` with `x` unwritten since: the pop becomes
///   `mov y, x`, or nothing when `x` is `y`.
/// * In between, `rsp` may only be the base of unindexed memory operands
///   (no `lea`) at displacement `k` or more: nothing reads the `k` bytes,
///   and each such access is rebased by `-k`. Its frame tags stay, since
///   they are entry-relative and still name the same bytes.
///
/// Removing an ALU adjustment drops a flags write: those must be dead,
/// by the solved liveness past the block. Openers are taken innermost
/// first, so nested pairs cancel in one call.
pub(crate) fn cancel_rsp_pairs(cx: &mut PassCx, b: usize, _: LiveSet) -> u64 {
    let rsp = Loc::Gpr(Gpr::Rsp);
    let mut removed = 0;
    // A cancellation edits the block at and after its opener only.
    for i in (0..cx.insts(b).len()).rev() {
        let ei = cx.effects(b)[i];
        let pushed = match cx.insts(b)[i].inst {
            Inst::Push { src } if ei.is(bit::PUSH_RI) => Some(src),
            _ if ei.is(bit::RSP_ADJUST) && ei.rsp < 0 => None,
            _ => continue,
        };
        let k = -ei.rsp;
        // The first instruction past the opener that moves `rsp` or is no
        // plain one; every `rsp` reference before it is an access.
        let mut x_written = false;
        let Some(j) = (i + 1..cx.insts(b).len()).find(|&j| {
            let e = cx.effects(b)[j];
            let close = e.kind != Kind::Plain || e.writes.has(rsp);
            x_written |=
                !close && matches!(pushed, Some(Operand::Reg(x)) if e.writes.has(Loc::Gpr(x)));
            close
        }) else {
            continue;
        };
        let ej = cx.effects(b)[j];
        let into = match (pushed, cx.insts(b)[j].inst) {
            _ if ej.is(bit::RSP_ADJUST) && ej.rsp == k => None,
            (Some(src), Inst::Pop { dst }) if ej.is(bit::POP_REG) && !x_written => (src != dst)
                .then_some(Inst::Mov {
                    w: Width::W64,
                    dst,
                    src,
                }),
            _ => continue,
        };
        let flags_dead =
            |at: usize| !cx.effects(b)[at].is(bit::WRITES_FLAGS) || cx.flags_dead_at(b, at + 1);
        let rebasable = (i + 1..j)
            .filter(|&m| cx.effects(b)[m].refs(rsp))
            .all(|m| rebased(&cx.insts(b)[m].inst, k).is_some());
        if !(flags_dead(i) && flags_dead(j) && rebasable) {
            continue;
        }
        for m in i + 1..j {
            if cx.effects(b)[m].refs(rsp) {
                let ci = cx.insts(b)[m];
                let inst = rebased(&ci.inst, k).expect("checked above");
                cx.replace(b, m, CapturedInst { inst, ..ci });
            }
        }
        match into {
            Some(inst) => cx.replace(b, j, CapturedInst::plain(inst)),
            None => {
                cx.remove(b, j);
                removed += 1;
            }
        }
        cx.remove(b, i);
        removed += 1;
    }
    removed
}

/// `inst`, which names `rsp`, with its memory operand `[rsp+d]` moved down
/// to `[rsp+d-k]`: when the operand has no index, `d >= k`, the instruction
/// is no `lea`, and it names `rsp` nowhere else.
fn rebased(inst: &Inst, k: i64) -> Option<Inst> {
    if matches!(inst, Inst::Lea { .. }) {
        return None;
    }
    let on_rsp = |m: &MemRef| m.regs().any(|r| r == Gpr::Rsp);
    let (mut out, mut other) = (*inst, false);
    defuse::visit(&mut out, &mut |_: Role, site: Site<'_>| match site {
        Site::Op(Operand::Mem(m)) if m.index.is_none() && i64::from(m.disp) >= k && on_rsp(m) => {
            m.disp -= k as i32;
        }
        s => other |= s.loc() == Some(Loc::Gpr(Gpr::Rsp)) || s.mem().is_some_and(|m| on_rsp(&m)),
    });
    (!other).then_some(out)
}

/// Merge adjacent rsp adjustments into one — what a dead `push` next to a
/// frame allocation leaves behind. The cleanup runs it once nothing cancels
/// any more (a merged adjustment has lost its partner). A removed ALU
/// adjustment must not leave flags anyone reads; the merged one is
/// flag-neutral unless the second of the pair already wrote (dead) flags.
fn merge_rsp_adjustments(cx: &mut PassCx, b: usize, _: LiveSet) -> u64 {
    let mut removed = 0;
    for i in 0..cx.insts(b).len().saturating_sub(1) {
        let (e1, e2) = (cx.effects(b)[i], cx.effects(b)[i + 1]);
        let (f1, f2) = (e1.is(bit::WRITES_FLAGS), e2.is(bit::WRITES_FLAGS));
        let net = (e1.is(bit::RSP_ADJUST) && e2.is(bit::RSP_ADJUST))
            .then(|| i32::try_from(e1.rsp + e2.rsp).ok())
            .flatten()
            .filter(|_| (!f1 && !f2) || cx.flags_dead_at(b, i + 2));
        let Some(d) = net else {
            continue;
        };
        let merged = match f2 {
            true => CapturedInst::plain(Inst::Alu {
                op: if d < 0 { AluOp::Sub } else { AluOp::Add },
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(i64::from(d).abs()),
            }),
            false => rsp_bump(d),
        };
        cx.replace(b, i + 1, merged);
        cx.remove(b, i);
        removed += 1;
    }
    removed
}

/// `add/sub r, k` at full width with `r` not `rsp`: `(r, ±k)`.
fn addend(inst: &Inst) -> Option<(Gpr, i64)> {
    match *inst {
        Inst::Alu {
            op: op @ (AluOp::Add | AluOp::Sub),
            w: Width::W64,
            dst: Operand::Reg(r),
            src: Operand::Imm(k),
        } if r != Gpr::Rsp => Some((r, if op == AluOp::Add { k } else { -k })),
        _ => None,
    }
}

/// The magnitude every immediate the addend rule makes stays below. The
/// structural tier's provenance rule (R5) questions no immediate under it,
/// and a larger sum of many folded constants has no one known value it
/// traces back to: under `strict_provenance` it would be rejected.
const SMALL_SUM: u64 = 1 << 16;

/// `k` when it is under [`SMALL_SUM`] in magnitude.
fn small(k: Option<i64>) -> Option<i64> {
    k.filter(|k| k.unsigned_abs() < SMALL_SUM)
}

/// May an addend of `r` move across instruction `i` of block `b`? When it
/// reads no flags and either does not name `r` or is a full-width
/// `add/sub r, x` whose `x` does not name `r`: `r` then ends up holding
/// the same sum in either order.
fn crossable(cx: &PassCx, b: usize, i: usize, r: Gpr) -> bool {
    let e = &cx.effects(b)[i];
    if e.kind != Kind::Plain || e.is(bit::READS_FLAGS) {
        return false;
    }
    if !e.refs(Loc::Gpr(r)) {
        return true;
    }
    match cx.insts(b)[i].inst {
        Inst::Alu {
            op: AluOp::Add | AluOp::Sub,
            w: Width::W64,
            dst: Operand::Reg(d),
            src,
        } if d == r => match src {
            Operand::Reg(x) => x != r,
            Operand::Mem(m) => m.regs().all(|x| x != r),
            _ => false,
        },
        _ => false,
    }
}

/// The addend rule. A full-width `add/sub r, k` (`r` not `rsp`) joins a
/// `mov r, c` before it, or else moves forward into the next `add/sub r,
/// k'`, across [`crossable`] instructions only. Nothing in between reads
/// the flags, the flags the window's last instruction leaves must be dead
/// (the sums in between and the one left differ in carry and overflow),
/// and the sum must stay under [`SMALL_SUM`], so neither bytes nor
/// instructions grow and no immediate loses its provenance. Returns the
/// addends removed.
fn fold_addends(cx: &mut PassCx, b: usize, _: LiveSet) -> u64 {
    // The addends that went, in order: removed at the end in one pass, as
    // a joined run can be hundreds of instructions long.
    let mut gone = Vec::new();
    // Per register, the last instruction before `i` that an addend of it
    // may not cross: the one a backward search would stop at.
    let mut wall: [Option<usize>; 16] = [None; 16];
    for i in 0..cx.insts(b).len() {
        let e = cx.effects(b)[i];
        if let Some((r, k)) = e
            .is(bit::ADDEND)
            .then(|| addend(&cx.insts(b)[i].inst))
            .flatten()
        {
            let into_mov = wall[r.number() as usize].and_then(|h| match cx.insts(b)[h].inst {
                Inst::Mov {
                    w: Width::W64,
                    dst: Operand::Reg(d),
                    src: Operand::Imm(c),
                } if d == r && cx.flags_dead_at(b, i + 1) => {
                    let inst = Inst::Mov {
                        w: Width::W64,
                        dst: Operand::Reg(r),
                        src: Operand::Imm(small(c.checked_add(k))?),
                    };
                    Some((h, inst))
                }
                _ => None,
            });
            // Else forward into the next addend of `r` (one of another
            // register is crossable).
            let into = into_mov.or_else(|| {
                let j = (i + 1..cx.insts(b).len()).find(|&j| !crossable(cx, b, j, r))?;
                let (_, k2) = addend(&cx.insts(b)[j].inst)?;
                let inst = Inst::Alu {
                    op: AluOp::Add,
                    w: Width::W64,
                    dst: Operand::Reg(r),
                    src: Operand::Imm(small(k.checked_add(k2))?),
                };
                cx.flags_dead_at(b, j + 1).then_some((j, inst))
            });
            if let Some((at, inst)) = into {
                cx.replace(b, at, CapturedInst::plain(inst));
                gone.push(i);
                continue;
            }
        }
        let mut named = match e.kind != Kind::Plain || e.is(bit::READS_FLAGS) {
            true => u16::MAX,
            false => e.reads.union(e.writes).gpr(),
        };
        while named != 0 {
            let r = named.trailing_zeros() as usize;
            named &= named - 1;
            if !crossable(cx, b, i, Gpr::from_number(r as u8)) {
                wall[r] = Some(i);
            }
        }
    }
    let mut gone = gone.into_iter().peekable();
    cx.retain(b, |i, _| gone.next_if_eq(&i).is_none())
}

// ---------------------------------------------------------------------------
// Phase 2a': cross-block frame & dead-save elision (aggressive only)
// ---------------------------------------------------------------------------

/// Remove the compiler frame and dead callee-saved spills when nothing can
/// observe them. `cancel_rsp_pairs` is block-local and so can never see
/// the common shape after full slot promotion: the `sub rsp, k` lives in
/// the entry block while the rebalancing `lea rsp, [rsp+k]` sits in the
/// ret block. Here we reason over the whole capture:
///
/// * if the *only* `rsp` uses anywhere are one balanced cross-block
///   adjustment pair plus `push`/`pop` saves, every frame slot was
///   promoted away and the pair can go (stack discipline still holds:
///   `rsp` simply keeps its entry value along the whole path);
/// * once only saves touch the stack, a `push r` / `pop r` pair of a
///   callee-saved `r` the body never reads or writes is itself dead —
///   `r` carries the caller's value through the function untouched, and
///   the 8-byte `rsp` shift between the pair cannot displace any other
///   slot because push/pop addressing is purely `rsp`-relative.
///
/// Only called under `regalloc_aggressive`: the transform is justified by
/// the publish-time equivalence proof (callee-saved registers and the
/// return value are part of the proven observable state), with the
/// conservative re-emission as the fallback when the proof fails.
fn elide_frame_and_saves(cx: &mut PassCx) -> u64 {
    let rsp = Loc::Gpr(Gpr::Rsp);
    // Partition every rsp-referencing instruction; anything outside the
    // three known shapes keeps the whole frame. Per register: how many
    // pushes and pops save it (and the last of each), and how many
    // instructions name it at all.
    let mut adjusts: Vec<(usize, usize)> = Vec::new();
    let mut saves = [[(0u32, (0usize, 0usize)); 2]; 16];
    let mut named = [0u32; 16];
    for b in 0..cx.len() {
        cx.scanned += cx.insts(b).len() as u64;
        for (i, (ci, e)) in cx.insts(b).iter().zip(cx.effects(b)).enumerate() {
            // Nothing here is safe around a kept call: the callee observes
            // both the frame and the stack alignment the saves establish.
            // `ret` is a barrier too, but it is the boundary the whole
            // argument is about — it only reads the return address at
            // `[rsp]`, which every removal below leaves in place (all
            // removals are rsp-balanced).
            if e.kind == Kind::Barrier {
                return 0;
            }
            let mut regs = e.reads.union(e.writes).gpr();
            while regs != 0 {
                named[regs.trailing_zeros() as usize] += 1;
                regs &= regs - 1;
            }
            if !e.refs(rsp) || e.kind == Kind::Ret {
                continue;
            }
            if e.is(bit::RSP_ADJUST) {
                adjusts.push((b, i));
                continue;
            }
            let (role, r) = match ci.inst {
                Inst::Push {
                    src: Operand::Reg(r),
                } => (0, r),
                Inst::Pop {
                    dst: Operand::Reg(r),
                } => (1, r),
                // A surviving frame slot or an escaped frame address.
                _ => return 0,
            };
            if !r.is_callee_saved() || r == Gpr::Rsp {
                return 0;
            }
            let site = &mut saves[r.number() as usize][role];
            *site = (site.0 + 1, (b, i));
        }
    }
    let mut drop: Vec<(usize, usize)> = Vec::new();
    let flags_ok = |(b, i): (usize, usize)| {
        !cx.effects(b)[i].is(bit::WRITES_FLAGS) || cx.flags_dead_at(b, i + 1)
    };
    // The frame pair. Exactly two adjustments that balance: correct input
    // code executes the allocation before the release on every path, so
    // removing both leaves rsp at its entry value throughout.
    if let [p, q] = adjusts[..] {
        let net = cx.effects(p.0)[p.1].rsp + cx.effects(q.0)[q.1].rsp;
        if net == 0 && flags_ok(p) && flags_ok(q) {
            drop.extend([p, q]);
        }
    }
    // Dead saves, once no adjustment survives: one push, one pop, and no
    // other instruction names the register. (A surviving adjustment may
    // release the save slot along with its own bytes.)
    let frameless = drop.len() == adjusts.len();
    for (r, [push, pop]) in saves.iter().enumerate() {
        if frameless && push.0 == 1 && pop.0 == 1 && named[r] == 2 {
            drop.extend([push.1, pop.1]);
        }
    }
    drop.iter().for_each(|&(b, i)| cx.remove(b, i));
    drop.len() as u64
}

// ---------------------------------------------------------------------------
// Phase 2b': frame reloads of a value a register still holds
// ---------------------------------------------------------------------------

/// A frame reload `mov d, [s]` (`movsd` in scalar-only code) of a slot
/// whose value register `r` still holds on every path, by the availability
/// solve, becomes `mov d, r`, or nothing when `d` is `r`. The store it read
/// is then the sweep's to delete once nothing reads the slot, and the move
/// the copy passes'. Returns the reloads rewritten; a reload it removes is
/// a tombstone until the block is compacted.
pub(crate) fn forward_reloads(cx: &mut PassCx) -> u64 {
    if !cx.solve_avail() {
        return 0;
    }
    let mut st = std::mem::take(&mut cx.held);
    let mut forwarded = 0;
    for b in 0..cx.len() {
        if !cx.may_forward(b) {
            continue;
        }
        cx.scanned += cx.insts(b).len() as u64;
        st.clear();
        st.extend_from_slice(cx.avail_in(b));
        let mut held = st.iter().fold(LiveSet::EMPTY, |a, &s| a.union(s));
        for i in 0..cx.insts(b).len() {
            let e = cx.effects(b)[i];
            let mv = cx.frame_move(&e, &cx.insts(b)[i].inst);
            if let Some((c, d, true)) = mv {
                let class = match d {
                    Loc::Gpr(_) => LiveSet::of(!0, 0),
                    Loc::Xmm(_) => LiveSet::of(0, !0),
                };
                let from = st[c].intersect(class);
                if from.has(d) {
                    // `d` already holds the slot: nothing changes.
                    cx.remove(b, i);
                    forwarded += 1;
                    continue;
                }
                if let Some(r) = from.first() {
                    let copy = match (d, r) {
                        (Loc::Gpr(d), Loc::Gpr(r)) => gmov(d, r),
                        (Loc::Xmm(d), Loc::Xmm(r)) => Inst::MovSd {
                            dst: Operand::Xmm(d),
                            src: Operand::Xmm(r),
                        },
                        _ => unreachable!("a reload reads its own class"),
                    };
                    cx.replace(b, i, CapturedInst::plain(copy));
                    forwarded += 1;
                }
            }
            // The reload's own transfer: `d` holds the slot either way.
            cx.step_avail(&mut st, &mut held, &e, mv);
        }
    }
    cx.held = st;
    forwarded
}

fn gmov(dst: Gpr, src: Gpr) -> Inst {
    Inst::Mov {
        w: Width::W64,
        dst: Operand::Reg(dst),
        src: Operand::Reg(src),
    }
}

// ---------------------------------------------------------------------------
// Phase 2c: address folding
// ---------------------------------------------------------------------------

/// If `inst`'s only reference to `a` is as the (index-free) base of its
/// single memory operand (it does not write `a`), return that operand.
fn sole_base_use(inst: &Inst, a: Gpr) -> Option<MemRef> {
    let mut reads = 0u32;
    defuse::for_each_read(inst, &mut |l| {
        if l == Loc::Gpr(a) {
            reads += 1;
        }
    });
    if reads != 1 {
        return None;
    }
    let m = inst.mem_load().or_else(|| inst.mem_store())?;
    (m.base == Some(a) && m.index.is_none()).then_some(m)
}

/// Replace the single memory operand of `inst` with `m`.
fn replace_mem(inst: &Inst, m: MemRef) -> Option<Inst> {
    let accesses = matches!(
        inst,
        Inst::Mov { .. }
            | Inst::Movsxd { .. }
            | Inst::Movzx8 { .. }
            | Inst::Alu { .. }
            | Inst::Test { .. }
            | Inst::Imul { .. }
            | Inst::ImulImm { .. }
            | Inst::MovSd { .. }
            | Inst::Sse { .. }
            | Inst::Ucomisd { .. }
            | Inst::Cvtsi2sd { .. }
            | Inst::Cvttsd2si { .. }
    );
    accesses.then(|| inst.map_operands(|r| r, |x| x, |_| m))
}

/// `[mov a, b ;] [add/sub a, k ;] use [a+d]` → `use [b+d±k]` (with `b = a`
/// when there is no copy) when `a` dies at the use and the (removed) ALU's
/// flags are dead.
fn fold_addresses(cx: &mut PassCx, b: usize, live_out: LiveSet) -> u64 {
    // Registers live after each instruction as the visit found it: a fold
    // only ever edits at and below the position it asks about, and a
    // removal moves no index.
    cx.fill_after(b, live_out);
    let mut removed = 0;
    let mut i = 0;
    while i < cx.insts(b).len() {
        if !cx.effects(b)[i].is(bit::FOLD_HEAD) {
            i += 1;
            continue;
        }
        let insts = cx.insts(b);
        let copy = match insts[i].inst {
            Inst::Mov {
                dst: Operand::Reg(a),
                src: Operand::Reg(base),
                ..
            } => Some((a, base)),
            _ => None,
        };
        // Optional immediate adjustment of `a` (right after the copy).
        let at = i + copy.is_some() as usize;
        let adjust = match insts.get(at).map(|ci| ci.inst) {
            Some(Inst::Alu {
                op: op @ (AluOp::Add | AluOp::Sub),
                w: Width::W64,
                dst: Operand::Reg(r),
                src: Operand::Imm(k),
            }) if copy.is_none_or(|(a, _)| a == r) => {
                Some((r, if op == AluOp::Add { k } else { -k }))
            }
            _ => None,
        };
        let (a, base) = match (copy, adjust) {
            (Some(c), _) => c,
            (None, Some((r, _))) => (r, r),
            (None, None) => {
                i += 1;
                continue;
            }
        };
        let j = at + adjust.is_some() as usize;
        let fold = insts.get(j).zip(cx.effects(b).get(j)).and_then(|(cj, ej)| {
            let named_once = ej.reads.has(Loc::Gpr(a)) && !ej.writes.has(Loc::Gpr(a));
            if a == Gpr::Rsp || a == Gpr::Rbp || !named_once {
                return None;
            }
            let m = sole_base_use(&cj.inst, a)?;
            let disp = i64::from(m.disp).checked_add(adjust.map_or(0, |(_, k)| k))?;
            let disp = i32::try_from(disp).ok()?;
            if cx.after[j].has(Loc::Gpr(a)) {
                return None;
            }
            if adjust.is_some() && !cx.flags_dead_at(b, j) {
                return None;
            }
            replace_mem(
                &cj.inst,
                MemRef {
                    base: Some(base),
                    index: None,
                    disp,
                },
            )
        });
        if let Some(new) = fold {
            cx.set_inst(b, j, new);
            (i..j).for_each(|k| cx.remove(b, k));
            removed += j - i;
            i = j;
        } else {
            i += 1;
        }
    }
    removed as u64
}

// ---------------------------------------------------------------------------
// Renaming machinery for the copy passes
// ---------------------------------------------------------------------------

/// Structurally rename every occurrence of `from` to `to` in an instruction
/// that names it. `None` means the instruction's shape (or an implicit
/// register) cannot be renamed safely — callers must abort their transform.
fn rename(inst: &Inst, from: Loc, to: Loc) -> Option<Inst> {
    match (from, to) {
        (Loc::Gpr(f), Loc::Gpr(t)) => {
            let explicit = match inst {
                // The implicit CL count register cannot be renamed.
                Inst::Shift { count, .. } => {
                    *count != ShiftCount::Cl || (f != Gpr::Rcx && t != Gpr::Rcx)
                }
                // Cqo/Idiv reference RAX/RDX implicitly; 16-byte moves and
                // control transfers: refuse.
                Inst::Cqo { .. } | Inst::Idiv { .. } | Inst::MovUpd { .. } => false,
                _ => !inst.is_control() && !matches!(inst, Inst::Nop | Inst::Ud2),
            };
            let g = |r| if r == f { t } else { r };
            explicit.then(|| inst.map_operands(g, |x| x, |m| m))
        }
        (Loc::Xmm(f), Loc::Xmm(t)) => {
            let sse = matches!(
                inst,
                Inst::MovSd { .. }
                    | Inst::MovUpd { .. }
                    | Inst::Sse { .. }
                    | Inst::Ucomisd { .. }
                    | Inst::Cvtsi2sd { .. }
                    | Inst::Cvttsd2si { .. }
            );
            let x = |r| if r == f { t } else { r };
            sse.then(|| inst.map_operands(|r| r, x, |m| m))
        }
        _ => None,
    }
}

/// The copy instruction `i` of block `b` is, as both copy passes see it:
/// `(dst, src)`.
fn as_copy(cx: &PassCx, b: usize, i: usize) -> Option<(Loc, Loc)> {
    let e = &cx.effects(b)[i];
    match cx.insts(b)[i].inst {
        Inst::Mov {
            dst: Operand::Reg(d),
            src: Operand::Reg(s),
            ..
        } if e.is(bit::GPR_COPY) => Some((Loc::Gpr(d), Loc::Gpr(s))),
        // Register movsd merges the high lane: only a real copy when no
        // high lane can be observed.
        Inst::MovSd {
            dst: Operand::Xmm(d),
            src: Operand::Xmm(s),
        } if e.is(bit::XMM_COPY) && cx.dec.so => Some((Loc::Xmm(d), Loc::Xmm(s))),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Phase 2d: backward copy coalescing
// ---------------------------------------------------------------------------

/// For a trailing copy `d ← s` where `s` dies, rename `s` to `d` across
/// the window back to `s`'s full definition and drop the copy. The walk
/// deliberately steps over read-modify-write instructions of `s` (e.g.
/// `addsd s, x`) to reach the real definition — that is what collapses
/// the accumulator pattern `mov s, d; op s, x; mov d, s` into `op d, x`.
fn coalesce_backward(cx: &mut PassCx, b: usize, live_out: LiveSet) -> u64 {
    let mut removed = 0;
    // What is live just after instruction `j`, carried down the block.
    let mut live = live_out;
    let mut renamed = std::mem::take(&mut cx.renamed);
    let mut j = cx.insts(b).len();
    while j > 0 {
        j -= 1;
        let dying = as_copy(cx, b, j).filter(|&(_, s)| !live.has(s));
        let Some(drop_def) = dying.and_then(|(d, s)| rename_window(cx, b, j, d, s, &mut renamed))
        else {
            cx.step_regs(&mut live, &cx.effects(b)[j]);
            continue;
        };
        for &(k, inst) in &renamed {
            cx.set_inst(b, k, inst);
        }
        // What followed the copy now follows its predecessor: `live` holds.
        cx.remove(b, j);
        removed += 1;
        if let Some(w) = drop_def {
            cx.remove(b, w);
            removed += 1;
        }
    }
    cx.renamed = renamed;
    removed
}

/// Walk back from the copy `d ← s` at `j` to `s`'s full definition and
/// collect in `renamed` every instruction on the way that names `s`, with
/// `s` renamed to `d`. `None` when the window does not close or one of them
/// cannot be renamed; `Some(Some(w))` when the definition at `w` is the
/// inverse copy `s ← d`, which the rename turns into a self-move to drop.
fn rename_window(
    cx: &PassCx,
    b: usize,
    j: usize,
    d: Loc,
    s: Loc,
    renamed: &mut Vec<(usize, Inst)>,
) -> Option<Option<usize>> {
    renamed.clear();
    let mut rename_at = |k: usize| {
        renamed.push((k, rename(&cx.insts(b)[k].inst, s, d)?));
        Some(())
    };
    for k in (0..j).rev() {
        let e = &cx.effects(b)[k];
        if e.kind != Kind::Plain {
            break;
        }
        // Only a definition that does not also *read* s ends the walk — a
        // read-modify-write like `imul s, x` or `addsd s, x` merely
        // extends the chain and must be renamed along with it.
        if e.defs.has(s) && !e.reads.has(s) {
            // `mov s, d` at the window start renames to a self-move.
            if as_copy(cx, b, k) == Some((s, d)) {
                return Some(Some(k));
            }
            return (!e.refs(d)).then(|| rename_at(k)).flatten().map(|_| None);
        }
        if e.refs(d) {
            break;
        }
        if e.refs(s) {
            rename_at(k)?;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Phase 2e: forward copy propagation
// ---------------------------------------------------------------------------

/// For a copy `d ← s`, rewrite downstream pure reads of `d` to `s` (while
/// `s` is unclobbered) and drop the copy once `d` is fully redefined — or
/// dead at the block boundary.
fn propagate_copies(cx: &mut PassCx, b: usize, live_out: LiveSet) -> u64 {
    let mut removed = 0;
    let mut renamed = std::mem::take(&mut cx.renamed);
    let mut i = 0;
    'copies: while i < cx.insts(b).len() {
        let Some((d, s)) = as_copy(cx, b, i) else {
            i += 1;
            continue;
        };
        i += 1;
        renamed.clear();
        let mut s_written = false;
        let mut closed = false; // d fully redefined downstream
        for k in i..cx.insts(b).len() {
            let e = &cx.effects(b)[k];
            if e.kind != Kind::Plain {
                continue 'copies;
            }
            let reads_d = e.reads.has(d);
            if reads_d {
                if s_written {
                    continue 'copies;
                }
                let Some(inst) = rename(&cx.insts(b)[k].inst, d, s) else {
                    continue 'copies;
                };
                renamed.push((k, inst));
            }
            if e.writes.has(d) {
                if e.defs.has(d) && !reads_d {
                    closed = true;
                    break;
                }
                // Partial redefinition (or a full one that also reads d —
                // renaming would corrupt the def): give up on this copy.
                continue 'copies;
            }
            if e.writes.has(s) {
                s_written = true;
            }
        }
        if !closed && live_out.has(d) {
            continue;
        }
        for &(k, inst) in &renamed {
            cx.set_inst(b, k, inst);
        }
        cx.remove(b, i - 1);
        removed += 1;
    }
    cx.renamed = renamed;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{BlockId, CapturedBlock, Terminator};
    use crate::config::RetKind;

    fn cleanup(blocks: &mut [CapturedBlock], escaped: bool, ret: RetKind, level: OptLevel) -> u64 {
        super::cleanup(&mut PassCx::new(blocks, level, escaped, ret))
    }

    fn allocate_slots(blocks: &mut [CapturedBlock], escaped: bool) -> u64 {
        super::allocate_slots(&mut PassCx::new(
            blocks,
            OptLevel::SlotAlloc,
            escaped,
            RetKind::Int,
        ))
    }

    fn block(insts: Vec<Inst>) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts.into_iter().map(CapturedInst::plain).collect();
        b.term = Terminator::Ret;
        b.traced = true;
        b
    }

    fn run(insts: Vec<Inst>) -> Vec<Inst> {
        let mut blocks = vec![block(insts)];
        cleanup(&mut blocks, false, RetKind::Int, OptLevel::default());
        blocks[0].insts.iter().map(|ci| ci.inst).collect()
    }

    /// `lea rsp, [rsp+by]`.
    fn bump(by: i32) -> Inst {
        rsp_bump(by).inst
    }

    fn movsd_load(dst: Xmm, addr: i32) -> Inst {
        Inst::MovSd {
            dst: Operand::Xmm(dst),
            src: Operand::Mem(MemRef::abs(addr)),
        }
    }

    fn addsd(dst: Xmm, src: Xmm) -> Inst {
        Inst::Sse {
            op: SseOp::Addsd,
            dst,
            src: Operand::Xmm(src),
        }
    }

    #[test]
    fn rsp_pair_cancelled_when_flags_dead() {
        let out = run(vec![
            Inst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(8),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(1),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(8),
            },
        ]);
        assert_eq!(out.len(), 1, "pair removed, payload kept: {out:?}");
    }

    #[test]
    fn rsp_pair_kept_when_flags_read() {
        let insts = vec![
            Inst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(8),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(8),
            },
            Inst::Setcc {
                cond: Cond::E,
                dst: Operand::Reg(Gpr::Rax),
            },
        ];
        let out = run(insts);
        assert_eq!(out.len(), 3, "setcc reads the add's flags: {out:?}");
        // Nor may the allocation go while its own flags are read.
        let setcc = Inst::Setcc {
            cond: Cond::E,
            dst: Operand::Reg(Gpr::Rax),
        };
        let insts = vec![rsp_alu(AluOp::Sub, 8), setcc, rsp_alu(AluOp::Add, 8)];
        let out = run(insts);
        assert_eq!(out.len(), 3, "setcc reads the sub's flags: {out:?}");
    }

    #[test]
    fn rsp_pair_kept_when_interior_references_rsp() {
        let out = run(vec![
            Inst::Alu {
                op: AluOp::Sub,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(8),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base(Gpr::Rsp)),
                src: Operand::Reg(Gpr::Rax),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(8),
            },
        ]);
        assert_eq!(out.len(), 3, "interior store uses the slot: {out:?}");
    }

    // --- the stack-pair rule ---

    /// The rule once over `insts` in a `ret` block: how many
    /// instructions it removed, and what is left.
    fn pairs(insts: Vec<CapturedInst>) -> (u64, Vec<CapturedInst>) {
        let mut blocks = vec![block(vec![])];
        blocks[0].insts = insts;
        let mut cx = PassCx::new(&mut blocks, OptLevel::Peephole, false, RetKind::Int);
        let n = cancel_rsp_pairs(&mut cx, 0, LiveSet::EMPTY);
        cx.compact(0);
        (n, blocks[0].insts.clone())
    }

    /// [`pairs`] over untagged instructions.
    fn pairs_of(insts: Vec<Inst>) -> (u64, Vec<Inst>) {
        let (n, left) = pairs(insts.into_iter().map(CapturedInst::plain).collect());
        (n, left.iter().map(|ci| ci.inst).collect())
    }

    fn push(r: Gpr) -> Inst {
        Inst::Push {
            src: Operand::Reg(r),
        }
    }

    fn pop(r: Gpr) -> Inst {
        Inst::Pop {
            dst: Operand::Reg(r),
        }
    }

    fn mov(dst: Operand, src: Operand) -> Inst {
        Inst::Mov {
            w: Width::W64,
            dst,
            src,
        }
    }

    /// `mov rax, [rsp+disp]`.
    fn load(disp: i32) -> Inst {
        mov(
            Operand::Reg(Gpr::Rax),
            Operand::Mem(MemRef::base_disp(Gpr::Rsp, disp)),
        )
    }

    fn rsp_alu(op: AluOp, k: i64) -> Inst {
        Inst::Alu {
            op,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rsp),
            src: Operand::Imm(k),
        }
    }

    #[test]
    fn removes_dead_push_pop_pair() {
        let one = mov(Operand::Reg(Gpr::Rax), Operand::Imm(1));
        let (n, left) = pairs_of(vec![push(Gpr::Rbp), one, pop(Gpr::Rbp), Inst::Ret]);
        assert_eq!((n, left), (2, vec![one, Inst::Ret]));
    }

    #[test]
    fn bump_left_by_a_dead_push_pairs_with_its_release() {
        // lea rsp,[rsp-8]; mov rax,[rsp+16]; lea rsp,[rsp+8]  →  mov rax,[rsp+8]
        // — and a pair that cannot be rewritten does not hide the next one.
        let (n, left) = pairs_of(vec![
            bump(-8),
            load(16),
            bump(8),
            // The slot itself is read: this pair must stay.
            bump(-8),
            load(0),
            bump(8),
        ]);
        assert_eq!(n, 2);
        assert_eq!(left, vec![load(8), bump(-8), load(0), bump(8)]);
    }

    #[test]
    fn rebases_intervening_rsp_operands() {
        // push rbp; mov rax, [rsp+16]; pop rbp  →  mov rax, [rsp+8]
        let (n, left) = pairs_of(vec![push(Gpr::Rbp), load(16), pop(Gpr::Rbp)]);
        assert_eq!((n, left), (2, vec![load(8)]));
    }

    #[test]
    fn keeps_pair_when_register_is_used() {
        let insts = vec![
            push(Gpr::Rbp),
            mov(Operand::Reg(Gpr::Rbp), Operand::Imm(0)),
            pop(Gpr::Rbp),
        ];
        assert_eq!(pairs_of(insts.clone()), (0, insts));
    }

    #[test]
    fn keeps_pair_when_slot_is_read() {
        let insts = vec![push(Gpr::Rbp), load(0), pop(Gpr::Rbp)];
        assert_eq!(pairs_of(insts.clone()), (0, insts));
    }

    #[test]
    fn keeps_pair_across_calls() {
        // A callee must see a well-formed stack; so must whatever a trap
        // hands the state to.
        for barrier in [Inst::CallRel { target: 0x40_0000 }, Inst::Ud2] {
            let insts = vec![push(Gpr::Rbp), barrier, pop(Gpr::Rbp)];
            assert_eq!(pairs_of(insts.clone()), (0, insts));
            let insts = vec![bump(-8), load(16), barrier, bump(8)];
            assert_eq!(pairs_of(insts.clone()), (0, insts));
        }
    }

    #[test]
    fn elided_pop_close_requires_dead_slot() {
        // push rbx; lea rsp,[rsp+8] (an elided pop): the pushed value is
        // dead, so the pair goes whatever rbx holds.
        let three = mov(Operand::Reg(Gpr::Rax), Operand::Imm(3));
        let (n, left) = pairs_of(vec![push(Gpr::Rbx), three, bump(8)]);
        assert_eq!((n, left), (2, vec![three]));
    }

    #[test]
    fn nested_pairs_cascade() {
        // Innermost first: the outer pair closes once the inner one is gone.
        let one = mov(Operand::Reg(Gpr::Rax), Operand::Imm(1));
        let (n, left) = pairs_of(vec![
            push(Gpr::Rbp),
            push(Gpr::Rbx),
            one,
            pop(Gpr::Rbx),
            pop(Gpr::Rbp),
        ]);
        assert_eq!((n, left), (4, vec![one]));
    }

    #[test]
    fn mismatched_depth_is_left_alone() {
        // push rbp; sub rsp, 8; pop rbp — the pop is NOT at the slot depth;
        // nor does a release of 8 balance an allocation of 16.
        let insts = vec![push(Gpr::Rbp), rsp_alu(AluOp::Sub, 8), pop(Gpr::Rbp)];
        assert_eq!(pairs_of(insts.clone()), (0, insts));
        let insts = vec![bump(-16), load(16), bump(8)];
        assert_eq!(pairs_of(insts.clone()), (0, insts));
    }

    #[test]
    fn fib_like_nested_frames_cancel() {
        // Two nested inlined frames, each a save and a 16-byte allocation.
        let frame = |body: Vec<Inst>| {
            let mut v = vec![push(Gpr::Rbp), rsp_alu(AluOp::Sub, 0x10)];
            v.extend(body);
            v.extend([bump(0x10), pop(Gpr::Rbp)]);
            v
        };
        let (n, left) = pairs_of(frame(frame(vec![])));
        assert_eq!((n, left), (8, vec![]));
    }

    #[test]
    fn a_pop_into_another_register_becomes_a_move() {
        let (n, left) = pairs_of(vec![push(Gpr::Rbx), load(16), pop(Gpr::Rcx)]);
        let copy = mov(Operand::Reg(Gpr::Rcx), Operand::Reg(Gpr::Rbx));
        assert_eq!((n, left), (1, vec![load(8), copy]));
        let seven = Inst::Push {
            src: Operand::Imm(7),
        };
        let (n, left) = pairs_of(vec![seven, pop(Gpr::Rcx)]);
        let set = mov(Operand::Reg(Gpr::Rcx), Operand::Imm(7));
        assert_eq!((n, left), (1, vec![set]));
    }

    #[test]
    fn a_pop_stays_when_the_pushed_register_is_written_between() {
        let insts = vec![push(Gpr::Rbx), load(16), pop(Gpr::Rcx)];
        let mut clobbered = insts.clone();
        clobbered.insert(1, mov(Operand::Reg(Gpr::Rbx), Operand::Imm(0)));
        assert_eq!(pairs_of(clobbered.clone()), (0, clobbered));
        // A pushed memory operand is no value a register still holds.
        let cell = Operand::Mem(MemRef::base(Gpr::Rdi));
        let insts = vec![
            Inst::Push { src: cell },
            mov(cell, Operand::Imm(0)),
            pop(Gpr::Rcx),
        ];
        assert_eq!(pairs_of(insts.clone()), (0, insts));
        // And a pop into memory is no register move.
        let insts = vec![push(Gpr::Rbx), Inst::Pop { dst: cell }];
        assert_eq!(pairs_of(insts.clone()), (0, insts));
    }

    #[test]
    fn a_pair_stays_around_an_access_it_cannot_rebase() {
        let rsp_mem = |disp, index| {
            Operand::Mem(MemRef {
                base: Some(Gpr::Rsp),
                index,
                disp,
            })
        };
        let rax = Operand::Reg(Gpr::Rax);
        let between = [
            // Into the allocated bytes.
            mov(rsp_mem(8, None), rax),
            // Anywhere.
            mov(rax, rsp_mem(16, Some((Gpr::Rcx, 8)))),
            // A frame address taken.
            Inst::Lea {
                dst: Gpr::Rax,
                src: MemRef::base_disp(Gpr::Rsp, 16),
            },
            // `rsp` as a value too.
            mov(rsp_mem(16, None), Operand::Reg(Gpr::Rsp)),
        ];
        for inst in between {
            let insts = vec![bump(-16), inst, bump(16)];
            assert_eq!(pairs_of(insts.clone()), (0, insts), "{inst}");
        }
    }

    #[test]
    fn a_rebased_access_keeps_its_frame_tag() {
        let (n, left) = pairs(vec![
            CapturedInst::plain(bump(-16)),
            gload(Gpr::Rax, 24),
            CapturedInst::plain(bump(16)),
        ]);
        assert_eq!(n, 2);
        assert_eq!(left[0].inst, load(8));
        assert_eq!(left[0].frame_load, Some(24));
    }

    #[test]
    fn the_cleanup_cancels_a_push_pair_in_a_block_without_adjustments() {
        let mut blocks = vec![ret_block(vec![
            CapturedInst::plain(push(Gpr::Rbx)),
            CapturedInst::plain(load(16)),
            CapturedInst::plain(pop(Gpr::Rbx)),
        ])];
        cleanup(&mut blocks, false, RetKind::Int, OptLevel::Regalloc);
        assert_eq!(insts_of(&blocks[0]), vec![load(8), Inst::Ret]);
    }

    #[test]
    fn a_dead_save_stays_while_an_adjustment_survives() {
        // Exit B releases the save slot with the frame in one merged bump:
        // dropping `push rbp`/`pop rbp` would leave it 8 bytes short.
        let cmp = Inst::Alu {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rdi),
            src: Operand::Imm(0),
        };
        let rbp = Operand::Reg(Gpr::Rbp);
        let entry = [Inst::Push { src: rbp }, rsp_alu(AluOp::Sub, 0x20), cmp];
        let exit_a = [bump(0x20), Inst::Pop { dst: rbp }];
        let mut blocks = vec![
            jcc_block(entry.map(CapturedInst::plain).to_vec(), 1, 2),
            ret_block(exit_a.map(CapturedInst::plain).to_vec()),
            ret_block(vec![CapturedInst::plain(bump(0x28))]),
        ];
        blocks[0].is_entry = true;
        cleanup(&mut blocks, false, RetKind::Int, OptLevel::Aggressive);
        assert_eq!(insts_of(&blocks[0])[0], Inst::Push { src: rbp });
        assert_eq!(insts_of(&blocks[1])[1], Inst::Pop { dst: rbp });
        assert_eq!(insts_of(&blocks[2])[0], bump(0x28));
    }

    #[test]
    fn accumulator_triple_coalesces_to_one_op() {
        // load xmm2 ; movsd xmm0, xmm15 ; addsd xmm0, xmm2 ;
        // movsd xmm15, xmm0 ; movsd xmm0, xmm15 (epilogue) — the copy
        // round-trips through xmm0 must collapse to a single addsd; the
        // exact accumulator register is the allocator's choice.
        let out = run(vec![
            movsd_load(Xmm::Xmm2, 0x601000),
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm0),
                src: Operand::Xmm(Xmm::Xmm15),
            },
            addsd(Xmm::Xmm0, Xmm::Xmm2),
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm15),
                src: Operand::Xmm(Xmm::Xmm0),
            },
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm0),
                src: Operand::Xmm(Xmm::Xmm15),
            },
        ]);
        let adds: Vec<&Inst> = out
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::Sse {
                        op: SseOp::Addsd,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(adds.len(), 1, "one addsd survives: {out:?}");
        assert!(
            matches!(
                adds[0],
                Inst::Sse {
                    src: Operand::Xmm(Xmm::Xmm2),
                    ..
                }
            ),
            "{out:?}"
        );
        assert!(out.len() <= 3, "copy chain collapsed: {out:?}");
    }

    #[test]
    fn load_copy_pair_folds_into_direct_load() {
        // movsd xmm0, [abs] ; movsd xmm1, xmm0 ; (xmm0 redefined)
        let out = run(vec![
            movsd_load(Xmm::Xmm0, 0x601000),
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm1),
                src: Operand::Xmm(Xmm::Xmm0),
            },
            movsd_load(Xmm::Xmm0, 0x601008),
            addsd(Xmm::Xmm0, Xmm::Xmm1),
        ]);
        assert!(
            out.contains(&movsd_load(Xmm::Xmm1, 0x601000)),
            "load renamed into xmm1: {out:?}"
        );
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn address_triple_folds_into_base_disp() {
        // mov rax, r11 ; add rax, 0x10 ; movsd xmm0, [rax]  (rax then dead)
        let out = run(vec![
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::R11),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(0x10),
            },
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm0),
                src: Operand::Mem(MemRef::base(Gpr::Rax)),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(0),
            },
        ]);
        assert!(
            out.contains(&Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm0),
                src: Operand::Mem(MemRef::base_disp(Gpr::R11, 0x10)),
            }),
            "{out:?}"
        );
    }

    #[test]
    fn address_fold_blocked_when_base_live() {
        // Same triple but rax is the (int) return value: live-out.
        let out = run(vec![
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::R11),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(0x10),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Mem(MemRef::base(Gpr::Rax)),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::abs(0x601000)),
                src: Operand::Reg(Gpr::Rcx),
            },
        ]);
        assert!(
            out.contains(&Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::R11),
            }),
            "rax is live-out; the copy must survive: {out:?}"
        );
    }

    #[test]
    fn dead_absolute_load_removed_with_cfg_liveness() {
        // A pool load whose destination dies before the block ends.
        let out = run(vec![
            movsd_load(Xmm::Xmm3, 0x601000),
            movsd_load(Xmm::Xmm0, 0x601008),
        ]);
        assert_eq!(out, vec![movsd_load(Xmm::Xmm0, 0x601008)]);
    }

    #[test]
    fn untracked_base_load_survives_even_when_dead() {
        // [r11] could fault differently if elided: must stay.
        let load = Inst::MovSd {
            dst: Operand::Xmm(Xmm::Xmm3),
            src: Operand::Mem(MemRef::base(Gpr::R11)),
        };
        let out = run(vec![load, movsd_load(Xmm::Xmm0, 0x601008)]);
        assert!(out.contains(&load), "{out:?}");
    }

    #[test]
    fn live_out_register_not_removed() {
        // xmm0 is the float return register: its producer must survive.
        let out = run(vec![movsd_load(Xmm::Xmm0, 0x601000)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn cross_block_liveness_blocks_removal() {
        // Block 0 defines rcx, block 1 (loop target) reads it: the def in
        // block 0 is live across the edge even though block 0 never reads
        // it again.
        let mut b0 = block(vec![Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rcx),
            src: Operand::Imm(7),
        }]);
        b0.term = Terminator::Jmp(BlockId(1));
        let b1 = block(vec![Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Reg(Gpr::Rcx),
        }]);
        let mut blocks = vec![b0, b1];
        cleanup(&mut blocks, false, RetKind::Int, OptLevel::default());
        assert_eq!(blocks[0].insts.len(), 1, "def feeds the successor");
    }

    // --- slot allocation: blocks built the tracer's way, every returning
    // block ending in the `ret` instruction itself ---

    fn gstore(off: i32, src: Gpr) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
                src: Operand::Reg(src),
            },
            frame_store: Some(off.into()),
            frame_load: None,
        }
    }

    fn gload(dst: Gpr, off: i32) -> CapturedInst {
        CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(dst),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
            },
            frame_store: None,
            frame_load: Some(off.into()),
        }
    }

    fn fstore(off: i32, src: Xmm) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
                src: Operand::Xmm(src),
            },
            frame_store: Some(off.into()),
            frame_load: None,
        }
    }

    fn fload(dst: Xmm, off: i32) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Xmm(dst),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
            },
            frame_store: None,
            frame_load: Some(off.into()),
        }
    }

    fn call() -> CapturedInst {
        CapturedInst::plain(Inst::CallRel { target: 0x40_0000 })
    }

    /// A block that hands over to `next`.
    fn jmp_block(insts: Vec<CapturedInst>, next: usize) -> CapturedBlock {
        let mut b = block(vec![]);
        b.insts = insts;
        b.term = Terminator::Jmp(BlockId(next));
        b
    }

    /// A returning block as the tracer captures it: `ret` is its last
    /// instruction.
    fn ret_block(mut insts: Vec<CapturedInst>) -> CapturedBlock {
        insts.push(CapturedInst::plain(Inst::Ret));
        let mut b = block(vec![]);
        b.insts = insts;
        b
    }

    fn insts_of(b: &CapturedBlock) -> Vec<Inst> {
        b.insts.iter().map(|ci| ci.inst).collect()
    }

    #[test]
    fn gpr_slot_promotion() {
        // The call-free single-block function: first pool register.
        let mut blocks = vec![ret_block(vec![gstore(-8, Gpr::Rax), gload(Gpr::Rcx, -8)])];
        assert_eq!(allocate_slots(&mut blocks, false), 2);
        assert_eq!(
            insts_of(&blocks[0]),
            vec![
                gmov(Gpr::R11, Gpr::Rax),
                gmov(Gpr::Rcx, Gpr::R11),
                Inst::Ret
            ]
        );
    }

    #[test]
    fn promotes_xmm_accumulator_round_trips() {
        let mut blocks = vec![ret_block(vec![
            fstore(-16, Xmm::Xmm0),
            fload(Xmm::Xmm0, -16),
            fstore(-16, Xmm::Xmm0),
            fload(Xmm::Xmm0, -16),
        ])];
        assert_eq!(allocate_slots(&mut blocks, false), 4);
        let (to, from) = (
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm15),
                src: Operand::Xmm(Xmm::Xmm0),
            },
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm0),
                src: Operand::Xmm(Xmm::Xmm15),
            },
        );
        assert_eq!(insts_of(&blocks[0]), vec![to, from, to, from, Inst::Ret]);
    }

    #[test]
    fn respects_escape_and_calls() {
        let mut blocks = vec![ret_block(vec![
            fstore(-16, Xmm::Xmm0),
            fload(Xmm::Xmm0, -16),
        ])];
        assert_eq!(allocate_slots(&mut blocks, true), 0);

        let mut blocks = vec![ret_block(vec![
            fstore(-16, Xmm::Xmm0),
            call(),
            fload(Xmm::Xmm0, -16),
        ])];
        assert_eq!(allocate_slots(&mut blocks, false), 0);
    }

    #[test]
    fn mixed_class_slot_not_promoted() {
        // Same slot accessed as both integer and double: leave it alone.
        let mut blocks = vec![ret_block(vec![
            fstore(-16, Xmm::Xmm0),
            gload(Gpr::Rax, -16),
        ])];
        assert_eq!(allocate_slots(&mut blocks, false), 0);
    }

    #[test]
    fn push_disqualifies_slot() {
        let push = CapturedInst {
            inst: Inst::Push {
                src: Operand::Reg(Gpr::Rax),
            },
            frame_store: Some(-16),
            frame_load: None,
        };
        let mut blocks = vec![ret_block(vec![
            push,
            fload(Xmm::Xmm0, -16),
            fstore(-16, Xmm::Xmm0),
        ])];
        assert_eq!(allocate_slots(&mut blocks, false), 0);
    }

    #[test]
    fn packed_access_disqualifies_every_slot_it_touches() {
        // The 16-byte load names slot -16 and also reads slot -8: moving
        // -8 into a register would leave it reading a slot nobody stored.
        let packed = CapturedInst {
            inst: Inst::MovUpd {
                dst: Operand::Xmm(Xmm::Xmm1),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -16)),
            },
            frame_store: None,
            frame_load: Some(-16),
        };
        let insts = vec![fstore(-8, Xmm::Xmm0), packed, fload(Xmm::Xmm2, -8)];
        let mut blocks = vec![ret_block(insts.clone())];
        assert_eq!(allocate_slots(&mut blocks, false), 0);
        assert_eq!(blocks[0].insts[..3], insts[..]);
    }

    #[test]
    fn used_registers_are_not_recruited() {
        // Block already uses xmm8..xmm15: nothing free.
        let mut insts = vec![fstore(-16, Xmm::Xmm0), fload(Xmm::Xmm0, -16)];
        for x in XMM_POOL {
            let Loc::Xmm(x) = x else { unreachable!() };
            insts.push(CapturedInst::plain(addsd(x, x)));
        }
        let mut blocks = vec![ret_block(insts)];
        assert_eq!(allocate_slots(&mut blocks, false), 0);
    }

    #[test]
    fn slot_allocated_across_blocks() {
        // A slot written in block 0 and read in block 1, whose extent is
        // both: r11 is busy in block 1 only, so the slot lives in r10.
        let spill_r11 = CapturedInst::plain(Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(MemRef::abs(0x601000)),
            src: Operand::Reg(Gpr::R11),
        });
        let mut blocks = vec![
            jmp_block(vec![gstore(-8, Gpr::Rcx)], 1),
            ret_block(vec![gload(Gpr::Rax, -8), spill_r11]),
        ];
        assert_eq!(allocate_slots(&mut blocks, false), 2);
        assert_eq!(insts_of(&blocks[0]), vec![gmov(Gpr::R10, Gpr::Rcx)]);
        assert_eq!(blocks[1].insts[0].inst, gmov(Gpr::Rax, Gpr::R10));
    }

    #[test]
    fn escaped_frame_blocks_slot_allocation() {
        let insts = vec![gstore(-8, Gpr::Rcx), gload(Gpr::Rax, -8)];
        let mut blocks = vec![ret_block(insts.clone())];
        assert_eq!(allocate_slots(&mut blocks, true), 0);
        assert_eq!(blocks[0].insts[..2], insts[..]);
    }

    #[test]
    fn barrier_block_in_extent_spills() {
        // The slot's only block contains a call: spill fallback (identity).
        let mut blocks = vec![ret_block(vec![
            gstore(-8, Gpr::Rcx),
            call(),
            gload(Gpr::Rax, -8),
        ])];
        assert_eq!(allocate_slots(&mut blocks, false), 0);
    }

    #[test]
    fn slot_clear_of_a_kept_call_allocates_and_one_crossing_it_stays() {
        // Slot -16 is stored before the call block and read after it; slot
        // -8 lives entirely in the block after the call.
        let mut blocks = vec![
            jmp_block(vec![gstore(-16, Gpr::Rdi)], 1),
            jmp_block(vec![call()], 2),
            ret_block(vec![
                gload(Gpr::Rcx, -16),
                gstore(-8, Gpr::Rcx),
                gload(Gpr::Rax, -8),
            ]),
        ];
        assert_eq!(allocate_slots(&mut blocks, false), 2);
        assert_eq!(blocks[0].insts[0], gstore(-16, Gpr::Rdi));
        assert_eq!(
            insts_of(&blocks[2]),
            vec![
                gload(Gpr::Rcx, -16).inst,
                gmov(Gpr::R11, Gpr::Rcx),
                gmov(Gpr::Rax, Gpr::R11),
                Inst::Ret,
            ]
        );
    }

    // --- frame reloads of a value a register still holds ---

    /// The reload rule once over `blocks` (block 0 the entry) at
    /// `Dataflow`: how many reloads it rewrote.
    fn forward(blocks: &mut [CapturedBlock], escaped: bool) -> u64 {
        blocks[0].is_entry = true;
        crate::passes::forward_frame_reloads(blocks, OptLevel::Dataflow, escaped, RetKind::Int)
    }

    fn jcc_block(insts: Vec<CapturedInst>, taken: usize, fall: usize) -> CapturedBlock {
        let mut b = jmp_block(insts, taken);
        b.term = Terminator::Jcc {
            cond: Cond::L,
            taken: BlockId(taken),
            fall: BlockId(fall),
        };
        b
    }

    fn set(dst: Gpr, k: i64) -> CapturedInst {
        CapturedInst::plain(Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(dst),
            src: Operand::Imm(k),
        })
    }

    #[test]
    fn a_reload_within_its_block_reads_the_register() {
        let mut blocks = vec![ret_block(vec![
            gstore(-8, Gpr::Rdi),
            gload(Gpr::Rax, -8),
            gload(Gpr::Rdi, -8),
        ])];
        assert_eq!(forward(&mut blocks, false), 2);
        // The second reload is into the register itself: it goes, and no
        // `nop` is left where it was.
        assert_eq!(
            insts_of(&blocks[0]),
            vec![
                gstore(-8, Gpr::Rdi).inst,
                gmov(Gpr::Rax, Gpr::Rdi),
                Inst::Ret
            ]
        );
        // An XMM slot's too, in scalar-only code.
        let mut blocks = vec![ret_block(vec![fstore(-8, Xmm::Xmm1), fload(Xmm::Xmm0, -8)])];
        assert_eq!(forward(&mut blocks, false), 1);
        let copy = Inst::MovSd {
            dst: Operand::Xmm(Xmm::Xmm0),
            src: Operand::Xmm(Xmm::Xmm1),
        };
        assert_eq!(blocks[0].insts[1].inst, copy);
    }

    #[test]
    fn a_reload_after_a_diamond_whose_arms_store_the_same_register_reads_it() {
        let diamond = |left: Gpr, right: Gpr| {
            vec![
                jcc_block(vec![], 1, 2),
                jmp_block(vec![gstore(-8, left)], 3),
                jmp_block(vec![gstore(-8, right)], 3),
                ret_block(vec![gload(Gpr::Rax, -8)]),
            ]
        };
        let mut blocks = diamond(Gpr::Rdi, Gpr::Rdi);
        assert_eq!(forward(&mut blocks, false), 1);
        assert_eq!(blocks[3].insts[0].inst, gmov(Gpr::Rax, Gpr::Rdi));
        // Arms that store different registers agree on none.
        let mut blocks = diamond(Gpr::Rdi, Gpr::Rsi);
        assert_eq!(forward(&mut blocks, false), 0);
    }

    #[test]
    fn a_reload_in_a_loop_whose_back_edge_keeps_the_pair_reads_the_register() {
        let bump = CapturedInst::plain(Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rax),
            src: Operand::Imm(1),
        });
        let mut blocks = vec![
            jmp_block(vec![gstore(-8, Gpr::Rdi)], 1),
            jcc_block(vec![gload(Gpr::Rax, -8), bump], 1, 2),
            ret_block(vec![]),
        ];
        assert_eq!(forward(&mut blocks, false), 1);
        assert_eq!(blocks[1].insts[0].inst, gmov(Gpr::Rax, Gpr::Rdi));
    }

    #[test]
    fn a_reload_after_the_register_is_redefined_stays() {
        let mut blocks = vec![ret_block(vec![
            gstore(-8, Gpr::Rdi),
            set(Gpr::Rdi, 5),
            gload(Gpr::Rax, -8),
        ])];
        assert_eq!(forward(&mut blocks, false), 0);
        // Redefined on the back edge: the loop header holds nothing.
        let mut blocks = vec![
            jmp_block(vec![gstore(-8, Gpr::Rdi)], 1),
            jcc_block(vec![gload(Gpr::Rax, -8), set(Gpr::Rdi, 5)], 1, 2),
            ret_block(vec![]),
        ];
        assert_eq!(forward(&mut blocks, false), 0);
    }

    #[test]
    fn a_reload_of_an_overwritten_slot_stays() {
        let tagged = |inst, off| CapturedInst {
            inst,
            frame_store: Some(off),
            frame_load: None,
        };
        let push = Inst::Push {
            src: Operand::Reg(Gpr::Rax),
        };
        let store = |w, off| Inst::Mov {
            w,
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off)),
            src: Operand::Reg(Gpr::Rsi),
        };
        let over = [
            tagged(push, -8),
            tagged(store(Width::W32, -8), -8),
            tagged(store(Width::W64, -4), -4),
            // An `rsp`-based store with no slot tag may be any slot.
            CapturedInst::plain(store(Width::W64, -8)),
        ];
        for over in over {
            let mut blocks = vec![ret_block(vec![
                gstore(-8, Gpr::Rdi),
                over,
                gload(Gpr::Rax, -8),
            ])];
            assert_eq!(forward(&mut blocks, false), 0, "{:?}", over.inst);
            // Overwritten in a block of its own.
            let mut blocks = vec![
                jmp_block(vec![gstore(-8, Gpr::Rdi)], 1),
                jmp_block(vec![over], 2),
                ret_block(vec![gload(Gpr::Rax, -8)]),
            ];
            assert_eq!(forward(&mut blocks, false), 0, "{:?}", over.inst);
        }
        // A store of another register: the reload reads that one.
        let mut blocks = vec![ret_block(vec![
            gstore(-8, Gpr::Rcx),
            gstore(-8, Gpr::Rsi),
            gload(Gpr::Rax, -8),
        ])];
        assert_eq!(forward(&mut blocks, false), 1);
        assert_eq!(blocks[0].insts[2].inst, gmov(Gpr::Rax, Gpr::Rsi));
    }

    #[test]
    fn a_loop_header_entered_without_the_store_keeps_its_reload() {
        let body = || vec![gload(Gpr::Rax, -8), gstore(-8, Gpr::Rdi)];
        let mut blocks = vec![
            jmp_block(vec![], 1),
            jcc_block(body(), 1, 2),
            ret_block(vec![]),
        ];
        assert_eq!(forward(&mut blocks, false), 0);
        // The entry block itself: the function's own entry edge holds
        // nothing.
        let mut blocks = vec![jcc_block(body(), 0, 1), ret_block(vec![])];
        assert_eq!(forward(&mut blocks, false), 0);
    }

    #[test]
    fn a_reload_across_a_kept_call_stays() {
        let through = CapturedInst {
            inst: Inst::CallInd {
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -16)),
            },
            frame_store: None,
            frame_load: Some(-16),
        };
        for call in [call(), through] {
            let mut blocks = vec![ret_block(vec![
                gstore(-16, Gpr::Rsi),
                gstore(-8, Gpr::Rbx),
                call,
                gload(Gpr::Rax, -8),
            ])];
            assert_eq!(forward(&mut blocks, false), 0, "{:?}", call.inst);
            // The far side of a block that ends in the call.
            let mut blocks = vec![
                jmp_block(vec![gstore(-16, Gpr::Rsi), gstore(-8, Gpr::Rbx), call], 1),
                ret_block(vec![gload(Gpr::Rax, -8)]),
            ];
            assert_eq!(forward(&mut blocks, false), 0, "{:?}", call.inst);
        }
    }

    #[test]
    fn an_escaped_frame_forwards_nothing() {
        let mut blocks = vec![ret_block(vec![gstore(-8, Gpr::Rdi), gload(Gpr::Rax, -8)])];
        assert_eq!(forward(&mut blocks, true), 0);
    }

    #[test]
    fn an_xmm_reload_stays_while_high_lanes_are_observable() {
        let packed = CapturedInst::plain(Inst::MovUpd {
            dst: Operand::Xmm(Xmm::Xmm7),
            src: Operand::Mem(MemRef::abs(0x601000)),
        });
        let mut blocks = vec![ret_block(vec![
            packed,
            fstore(-8, Xmm::Xmm1),
            fload(Xmm::Xmm0, -8),
        ])];
        assert_eq!(forward(&mut blocks, false), 0);
    }

    #[test]
    fn the_cleanup_forwards_reloads_and_drops_their_stores_from_dataflow_up_only() {
        let insts = vec![gstore(-8, Gpr::Rdi), gload(Gpr::Rax, -8)];
        let mut blocks = vec![ret_block(insts.clone())];
        cleanup(&mut blocks, false, RetKind::Int, OptLevel::Dataflow);
        assert_eq!(
            insts_of(&blocks[0]),
            vec![gmov(Gpr::Rax, Gpr::Rdi), Inst::Ret]
        );
        let mut blocks = vec![ret_block(insts.clone())];
        cleanup(&mut blocks, false, RetKind::Int, OptLevel::Regalloc);
        assert_eq!(blocks[0].insts[..2], insts[..]);
    }

    // --- removal by tombstone: a rule's indices stay put until the block
    // is compacted ---

    /// The registers `regs` as a set.
    fn regs(regs: &[Gpr]) -> LiveSet {
        LiveSet::of(regs.iter().fold(0, |m, r| m | 1 << r.number()), 0)
    }

    /// `rule` once over `insts` at `Regalloc`, the block compacted after.
    fn once(
        rule: fn(&mut PassCx, usize, LiveSet) -> u64,
        insts: Vec<Inst>,
        out: LiveSet,
    ) -> Vec<Inst> {
        let mut blocks = vec![block(insts)];
        let mut cx = PassCx::new(&mut blocks, OptLevel::Regalloc, false, RetKind::Int);
        rule(&mut cx, 0, out);
        cx.compact(0);
        insts_of(&blocks[0])
    }

    #[test]
    fn an_address_fold_after_a_fold_reads_the_liveness_at_its_own_use() {
        let gr = |r| Operand::Reg(r);
        let xload = |x, base| Inst::MovSd {
            dst: Operand::Xmm(x),
            src: Operand::Mem(MemRef::base(base)),
        };
        let rest = vec![
            mov(gr(Gpr::Rax), Operand::Imm(0)),
            mov(gr(Gpr::Rcx), gr(Gpr::R10)),
            xload(Xmm::Xmm1, Gpr::Rcx),
            // `rcx` is read after the second use: that fold must not go,
            // though two instructions further on `rcx` is dead.
            mov(gr(Gpr::Rdx), gr(Gpr::Rcx)),
            mov(gr(Gpr::Rcx), Operand::Imm(0)),
            mov(gr(Gpr::Rcx), Operand::Imm(1)),
        ];
        let mut insts = vec![
            mov(gr(Gpr::Rax), gr(Gpr::R11)),
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: gr(Gpr::Rax),
                src: Operand::Imm(16),
            },
            xload(Xmm::Xmm0, Gpr::Rax),
        ];
        insts.extend(rest.iter().copied());
        let folded = Inst::MovSd {
            dst: Operand::Xmm(Xmm::Xmm0),
            src: Operand::Mem(MemRef::base_disp(Gpr::R11, 16)),
        };
        let mut want = vec![folded];
        want.extend(rest);
        assert_eq!(once(fold_addresses, insts, LiveSet::ALL), want);
    }

    #[test]
    fn a_coalesce_that_drops_its_inverse_copy_walks_on_from_the_copy() {
        let (rax, rcx, rdx, rsi) = (Gpr::Rax, Gpr::Rcx, Gpr::Rdx, Gpr::Rsi);
        let add = |d, s| Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Operand::Reg(d),
            src: Operand::Reg(s),
        };
        let insts = vec![
            mov(Operand::Reg(rdx), Operand::Imm(7)),
            // `rdx` is read below: this copy stays.
            gmov(rsi, rdx),
            gmov(rcx, rax),
            add(rcx, rdx),
            gmov(rax, rcx),
        ];
        let want = vec![insts[0], insts[1], add(rax, rdx)];
        assert_eq!(once(coalesce_backward, insts, regs(&[rax, rsi])), want);
    }

    #[test]
    fn propagation_goes_on_after_the_copy_it_drops() {
        // Two copies in a row, each propagated: the second is found after
        // the first is gone.
        let (rax, rcx, rdx, r10, r11) = (Gpr::Rax, Gpr::Rcx, Gpr::Rdx, Gpr::R10, Gpr::R11);
        let read = |d, base| mov(Operand::Reg(d), Operand::Mem(MemRef::base(base)));
        let insts = vec![
            gmov(rcx, r11),
            gmov(rdx, r10),
            read(rax, rcx),
            read(rax, rdx),
        ];
        let want = vec![read(rax, r11), read(rax, r10)];
        assert_eq!(once(propagate_copies, insts, regs(&[rax])), want);
    }

    #[test]
    fn forward_copy_propagation_rewrites_reads() {
        // mov rcx, r11 ; mov rdx, [rcx+8] ; mov rcx, 0 → read goes to r11.
        let out = run(vec![
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Reg(Gpr::R11),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdx),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rcx, 8)),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rdx),
            },
        ]);
        assert!(
            out.contains(&Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rdx),
                src: Operand::Mem(MemRef::base_disp(Gpr::R11, 8)),
            }),
            "{out:?}"
        );
        assert!(
            !out.iter().any(|i| matches!(
                i,
                Inst::Mov {
                    dst: Operand::Reg(Gpr::Rcx),
                    ..
                }
            )),
            "copy removed: {out:?}"
        );
    }

    #[test]
    fn copy_not_propagated_past_source_clobber() {
        // mov rcx, rbx ; mov rbx, 0 ; mov rax, rcx — rax must end up with
        // rbx's PRE-clobber value. Coalescing may legally rewrite the
        // chain (e.g. to `mov rax, rbx ; mov rbx, 0`), but the rax def
        // must always precede the clobber and never source the constant.
        let out = run(vec![
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Reg(Gpr::Rbx),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rbx),
                src: Operand::Imm(0),
            },
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::Rcx),
            },
        ]);
        let rax_def = out
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Inst::Mov {
                        dst: Operand::Reg(Gpr::Rax),
                        ..
                    }
                )
            })
            .expect("rax still defined");
        let clobber = out
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Inst::Mov {
                        dst: Operand::Reg(Gpr::Rbx),
                        src: Operand::Imm(0),
                        ..
                    }
                )
            })
            .expect("rbx clobber is live-out and must stay");
        assert!(
            rax_def < clobber,
            "rax reads the pre-clobber value: {out:?}"
        );
        assert!(
            matches!(
                out[rax_def],
                Inst::Mov {
                    src: Operand::Reg(Gpr::Rbx) | Operand::Reg(Gpr::Rcx),
                    ..
                }
            ),
            "{out:?}"
        );
    }

    #[test]
    fn movsd_copies_untouched_with_packed_code_present() {
        // A movupd anywhere disables the scalar-only reasoning.
        let out = run(vec![
            Inst::MovUpd {
                dst: Operand::Xmm(Xmm::Xmm7),
                src: Operand::Mem(MemRef::abs(0x601000)),
            },
            movsd_load(Xmm::Xmm2, 0x601010),
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm0),
                src: Operand::Xmm(Xmm::Xmm15),
            },
            addsd(Xmm::Xmm0, Xmm::Xmm2),
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm15),
                src: Operand::Xmm(Xmm::Xmm0),
            },
            Inst::MovSd {
                dst: Operand::Xmm(Xmm::Xmm0),
                src: Operand::Xmm(Xmm::Xmm15),
            },
        ]);
        assert!(
            out.contains(&addsd(Xmm::Xmm0, Xmm::Xmm2)),
            "no high-lane-unsafe rename: {out:?}"
        );
    }
}
