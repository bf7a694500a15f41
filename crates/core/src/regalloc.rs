//! Post-rewrite register allocation (paper §IV: "register renaming" is the
//! prototype's named next step; ROADMAP item 1).
//!
//! Two phases, both driven by the `x86::defuse` sets validated
//! differentially against the emulator in PR 5; `run_passes` calls each
//! once, the first before the peephole and frame compression (whose pairs
//! only line up once the spill traffic between them is gone), the second
//! after:
//!
//! 1. **Slot allocation** (`allocate_slots`). The rewriter's input code
//!    (like any compiler's spill code) round-trips values through frame
//!    slots; after specialization deletes the surrounding computation those
//!    round-trips often dominate. §IV of the paper argues such cleanups
//!    "can be much simpler than corresponding compiler passes, as being
//!    tailored to specific cases": per-block live-in/live-out for every
//!    frame slot that is only ever accessed by aligned plain 8-byte moves,
//!    a slot *extent* (the set of blocks the slot's value must survive
//!    across, including loop back-edge paths), and a linear scan over the
//!    caller-saved scratch pools (`r8`–`r11`, `xmm8`–`xmm15`) that assigns
//!    a register no instruction names in any extent block or in any block
//!    reachable from one. Spill fallback is the identity: a slot with no
//!    free register simply stays in memory, so the pass can never make
//!    code worse. A kept call, indirect jump or `ud2` in or ahead of an
//!    extent block keeps the slot in memory (the callee may read or
//!    clobber the pool); `ret` does not — no caller may expect a
//!    caller-saved register to survive the call it made, so the pools are
//!    dead there whatever the conservative sweeps assume.
//!
//! 2. **Cleanup** ([`allocate`]) — the rename work that makes phase 1 pay
//!    off. Allocation leaves chains of register-to-register moves, paired
//!    `rsp` adjustments around now-registerized temporaries, and
//!    address-computation triples. Five sub-passes run to a fixpoint, each
//!    justified by CFG register liveness (not the "everything is live-out"
//!    assumption the intra-block peephole must make):
//!    * cancellation of balanced `sub rsp, k` / `add rsp, k` pairs with no
//!      intervening `rsp` reference, gated on the removed ALU's flags
//!      being dead;
//!    * the shared dead-code sweep ([`crate::dataflow`]): any
//!      side-effect-free instruction (including a load from an
//!      `rsp`-relative or absolute address, which cannot fault) whose
//!      writes are dead across the block boundary;
//!    * address folding: `mov a, b; add a, k; ... [a+d] ...` becomes
//!      `[b+d+k]` when `a` dies at the use;
//!    * backward copy coalescing: `mov d, s` where `s` dies is removed by
//!      renaming `s` to `d` across the window back to `s`'s full
//!      definition — deliberately walking *through* read-modify-write
//!      instructions of `s` (the accumulator pattern) to the real def;
//!    * forward copy propagation: `mov d, s` is removed by rewriting the
//!      downstream reads of `d` to `s` while `s` is unclobbered.
//!
//! `frame_escaped` blocks phase 1 exactly as it blocks dead-store
//! elimination: an escaped frame address means untracked loads may alias
//! any slot. Phase 2 still runs — it touches only registers and balanced
//! `rsp` pairs. The output must (and does: see `tests/differential.rs` and
//! the verifier suites) stay bit-identical under the emulator and pass the
//! static verifier unchanged — rsp-pair removal is balanced so stack
//! discipline holds, and no transform introduces a memory write.

use crate::capture::{CapturedBlock, CapturedInst};
use crate::config::RetKind;
use crate::dataflow::liveness::{
    abi_ret, flags_dead_at, flags_live_out, for_each_read_so, full_def, live_after, references,
    slot_keys, writes_loc, Live, LiveSet, Liveness, SlotSet,
};
use crate::passes::OptLevel;
use brew_x86::prelude::*;
use brew_x86::{WordMap, WordSet};
use std::collections::{HashMap, HashSet};

/// Run the cleanup phase; returns the number of instructions removed.
///
/// From [`OptLevel::Aggressive`] the `ret`-boundary live-out contract
/// (`liveness::abi_ret`) narrows from everything an observer might read to
/// — translation-validated by `brew-verify` before publication — exactly
/// the declared return class plus the callee-saved set. From
/// [`OptLevel::Dataflow`] the dead-code sweep is the full one.
pub fn allocate(
    blocks: &mut [CapturedBlock],
    frame_escaped: bool,
    ret: RetKind,
    level: OptLevel,
) -> u64 {
    let aggressive = level >= OptLevel::Aggressive;
    let ret_live = abi_ret(aggressive, ret);
    let n = blocks.len();
    let mut lv = Liveness::new(blocks, frame_escaped, ret_live, level >= OptLevel::Dataflow);
    // The live-out state a block was last processed under, while nothing
    // has touched the block since: processing it again would find nothing.
    let mut settled: Vec<Option<Live>> = vec![None; n];
    let mut removed = 0;
    loop {
        loop {
            let mut round = 0;
            for i in 0..n {
                let out = lv.live_out(blocks, i);
                if settled[i] == Some(out) {
                    continue;
                }
                let swept = lv.sweep(blocks, i);
                let so = lv.cx.so;
                let b = &mut blocks[i];
                let edits = cancel_rsp_pairs(b, out.flags)
                    + fold_addresses(b, out.regs, out.flags, so)
                    + coalesce_backward(b, out.regs, so)
                    + propagate_copies(b, out.regs, so);
                if edits > 0 {
                    lv.invalidate(i);
                }
                settled[i] = (swept + edits == 0).then_some(out);
                round += swept + edits;
            }
            removed += round;
            if round == 0 {
                break;
            }
            lv.solve(blocks);
        }
        // Nothing cancels any more: what is left of adjacent adjustments
        // can become one.
        let mut extra = 0;
        for i in 0..n {
            let flags_out = lv.live_out(blocks, i).flags;
            let merged = merge_rsp_adjustments(&mut blocks[i], flags_out);
            if merged > 0 {
                lv.invalidate(i);
                settled[i] = None;
            }
            extra += merged;
        }
        // The cross-block eliminations only run in aggressive mode: their
        // justification is the translation-validation proof that gates the
        // variant before publication, not a local syntactic argument.
        if aggressive {
            let elided = elide_frame_and_saves(blocks);
            if elided > 0 {
                (0..n).for_each(|i| lv.invalidate(i));
                settled.fill(None);
            }
            extra += elided;
        }
        removed += extra;
        if extra == 0 {
            return removed;
        }
        lv.solve(blocks);
    }
}

// ---------------------------------------------------------------------------
// Phase 1: CFG-aware slot allocation
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Gpr,
    Xmm,
}

/// Is this frame access an allocatable plain 8-byte move? `None`
/// disqualifies the slot (pushes, pops, RMW ALU on memory; immediate
/// stores are fine for GPR and keep their imm operand).
fn classify(inst: &Inst) -> Option<Class> {
    match inst {
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(_),
            src: Operand::Reg(_) | Operand::Imm(_),
        }
        | Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(_),
            src: Operand::Mem(_),
        } => Some(Class::Gpr),
        Inst::MovSd {
            dst: Operand::Mem(_),
            src: Operand::Xmm(_),
        }
        | Inst::MovSd {
            dst: Operand::Xmm(_),
            src: Operand::Mem(_),
        } => Some(Class::Xmm),
        _ => None,
    }
}

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
pub(crate) fn allocate_slots(blocks: &mut [CapturedBlock], frame_escaped: bool) -> u64 {
    if frame_escaped {
        return 0;
    }
    let n = blocks.len();

    // Candidate slots: every access that touches the slot is an aligned
    // plain move of one class.
    let mut class: WordMap<i64, (Class, u64)> = WordMap::default();
    let mut disqualified: WordSet<i64> = WordSet::default();
    for ci in blocks.iter().flat_map(|b| &b.insts) {
        for off in [ci.frame_store, ci.frame_load].into_iter().flatten() {
            match classify(&ci.inst).filter(|_| off % 8 == 0) {
                Some(c) => {
                    let e = class.entry(off).or_insert((c, 0));
                    if e.0 != c {
                        disqualified.insert(off);
                    }
                    e.1 += 1;
                }
                // A packed, narrow or unaligned access keeps every slot it
                // touches in memory, not only the one it names.
                None => disqualified.extend(slot_keys(off, ci.inst.mem_width())),
            }
        }
    }
    let mut cands: Vec<(i64, Class, u64)> = class
        .iter()
        .filter(|(off, (_, cnt))| *cnt >= 2 && !disqualified.contains(off))
        .map(|(off, (c, cnt))| (*off, *c, *cnt))
        .collect();
    if cands.is_empty() {
        return 0;
    }
    // Hottest first; what does not fit the bitsets below stays in memory.
    cands.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    cands.truncate(SlotSet::CAP);

    // Per-block slot gen (read before write) / kill (written) sets, then a
    // backward fixpoint for slot live-in/out. The extent — every block the
    // slot's value must survive — is access ∪ live-through, which is what
    // a linearized interval would get wrong across loop back-edges.
    #[derive(Clone, Copy, Default)]
    struct SlotFlow {
        gen: SlotSet,
        kill: SlotSet,
        /// Accessed, live-in or live-out: the block is in the extent.
        extent: SlotSet,
        live_in: SlotSet,
    }
    let slot_ix: WordMap<i64, usize> = cands.iter().enumerate().map(|(i, c)| (c.0, i)).collect();
    let mut flow = vec![SlotFlow::default(); n];
    for (f, b) in flow.iter_mut().zip(blocks.iter()) {
        for ci in &b.insts {
            if let Some(&s) = ci.frame_load.and_then(|o| slot_ix.get(&o)) {
                f.extent.set(s);
                if !f.kill.has(s) {
                    f.gen.set(s);
                }
            }
            if let Some(&s) = ci.frame_store.and_then(|o| slot_ix.get(&o)) {
                f.extent.set(s);
                f.kill.set(s);
            }
        }
    }
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let out = (blocks[i].term.successors())
                .filter(|t| t.0 < n)
                .fold(SlotSet::default(), |u, t| u.union(flow[t.0].live_in));
            let f = &mut flow[i];
            let live_in = f.gen.union(out.without(f.kill));
            changed |= live_in != f.live_in;
            f.live_in = live_in;
            f.extent = f.extent.union(out).union(live_in);
        }
        if !changed {
            break;
        }
    }

    // Register availability per block: every register referenced in the
    // block or in any block reachable from it — a superset of what is live
    // anywhere in the block, since a live register is one some path ahead
    // reads. A kept call, indirect jump or `ud2` (and an edge that leaves
    // the capture) may read or clobber anything; `ret` reads the return and
    // callee-saved registers, never a pool register, so it is no barrier.
    let mut busy = vec![LiveSet::EMPTY; n];
    for (bi, b) in blocks.iter().enumerate() {
        let barrier = |ci: &CapturedInst| defuse::is_barrier(&ci.inst) && ci.inst != Inst::Ret;
        if b.insts.iter().any(barrier) || b.term.successors().any(|t| t.0 >= n) {
            busy[bi] = LiveSet::ALL;
            continue;
        }
        for ci in &b.insts {
            defuse::for_each_read(&ci.inst, &mut |l| busy[bi].set(l));
            defuse::for_each_write(&ci.inst, &mut |l| busy[bi].set(l));
        }
    }
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            let ahead = (blocks[i].term.successors())
                .filter(|t| t.0 < n)
                .fold(busy[i], |u, t| u.union(busy[t.0]));
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
    let mut assigned: WordMap<i64, Loc> = WordMap::default();
    for (s, &(off, c, _)) in cands.iter().enumerate() {
        let extent: Vec<usize> = (0..n).filter(|&i| flow[i].extent.has(s)).collect();
        let pool: &[Loc] = match c {
            Class::Gpr => &GPR_POOL,
            Class::Xmm => &XMM_POOL,
        };
        if let Some(&r) = pool
            .iter()
            .find(|&&r| extent.iter().all(|&i| !busy[i].has(r)))
        {
            assigned.insert(off, r);
            for &i in &extent {
                busy[i].set(r);
            }
        }
    }

    let mut converted = 0;
    for ci in blocks.iter_mut().flat_map(|b| &mut b.insts) {
        let reg = match (ci.frame_store, ci.frame_load) {
            (Some(o), None) | (None, Some(o)) => assigned.get(&o),
            _ => None,
        };
        let new = match (reg, ci.inst) {
            (Some(&Loc::Gpr(r)), Inst::Mov { w, dst, src }) => Inst::Mov {
                w,
                dst: if dst.mem().is_some() {
                    Operand::Reg(r)
                } else {
                    dst
                },
                src: if src.mem().is_some() {
                    Operand::Reg(r)
                } else {
                    src
                },
            },
            (Some(&Loc::Xmm(x)), Inst::MovSd { dst, src }) => Inst::MovSd {
                dst: if dst.mem().is_some() {
                    Operand::Xmm(x)
                } else {
                    dst
                },
                src: if src.mem().is_some() {
                    Operand::Xmm(x)
                } else {
                    src
                },
            },
            _ => continue,
        };
        *ci = CapturedInst::plain(new);
        converted += 1;
    }
    converted
}

// ---------------------------------------------------------------------------
// Phase 2a: balanced rsp-pair cancellation
// ---------------------------------------------------------------------------

/// Net rsp delta of a pure adjustment, plus whether removing it drops a
/// flags write.
fn rsp_adjust(inst: &Inst) -> Option<(i64, bool)> {
    match inst {
        Inst::Alu {
            op: op @ (AluOp::Add | AluOp::Sub),
            w: Width::W64,
            dst: Operand::Reg(Gpr::Rsp),
            src: Operand::Imm(k),
        } => Some((if *op == AluOp::Add { *k } else { -*k }, true)),
        Inst::Lea {
            dst: Gpr::Rsp,
            src:
                MemRef {
                    base: Some(Gpr::Rsp),
                    index: None,
                    disp,
                },
        } => Some((*disp as i64, false)),
        _ => None,
    }
}

fn cancel_rsp_pairs(b: &mut CapturedBlock, flags_out: bool) -> u64 {
    let nn = b.insts.len();
    let mut keep = vec![true; nn];
    let mut removed = 0;
    let mut i = 0;
    'outer: while i < nn {
        let Some((d1, f1)) = keep[i].then(|| rsp_adjust(&b.insts[i].inst)).flatten() else {
            i += 1;
            continue;
        };
        for j in i + 1..nn {
            if !keep[j] {
                continue;
            }
            let inst = &b.insts[j].inst;
            if let Some((d2, f2)) = rsp_adjust(inst) {
                if d1 + d2 == 0
                    && (!f1 || flags_dead_at(b, i + 1, flags_out))
                    && (!f2 || flags_dead_at(b, j + 1, flags_out))
                {
                    keep[i] = false;
                    keep[j] = false;
                    removed += 2;
                    i += 1;
                    continue 'outer;
                }
                // A different adjustment references rsp: the pair is open.
                i += 1;
                continue 'outer;
            }
            if defuse::is_barrier(inst) || references(inst, Loc::Gpr(Gpr::Rsp), false) {
                i += 1;
                continue 'outer;
            }
        }
        i += 1;
    }
    if removed > 0 {
        let mut it = keep.iter();
        b.insts.retain(|_| *it.next().unwrap());
    }
    removed
}

/// Merge adjacent rsp adjustments into one — what a dead `push` next to a
/// frame allocation leaves behind. Runs once nothing cancels any more: a
/// merged adjustment has lost its partner. A removed ALU adjustment must
/// not leave flags anyone reads; the merged one is flag-neutral unless the
/// second of the pair already wrote (dead) flags.
fn merge_rsp_adjustments(b: &mut CapturedBlock, flags_out: bool) -> u64 {
    let mut removed = 0;
    let mut i = 0;
    while i + 1 < b.insts.len() {
        let pair = rsp_adjust(&b.insts[i].inst).zip(rsp_adjust(&b.insts[i + 1].inst));
        let merged = pair.and_then(|((d1, f1), (d2, f2))| {
            let d = i32::try_from(d1 + d2).ok()?;
            ((!f1 && !f2) || flags_dead_at(b, i + 2, flags_out)).then_some(if f2 {
                Inst::Alu {
                    op: if d < 0 { AluOp::Sub } else { AluOp::Add },
                    w: Width::W64,
                    dst: Operand::Reg(Gpr::Rsp),
                    src: Operand::Imm(i64::from(d).abs()),
                }
            } else {
                Inst::Lea {
                    dst: Gpr::Rsp,
                    src: MemRef::base_disp(Gpr::Rsp, d),
                }
            })
        });
        match merged {
            Some(inst) => {
                b.insts[i + 1] = CapturedInst::plain(inst);
                b.insts.remove(i);
                removed += 1;
            }
            None => i += 1,
        }
    }
    removed
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
fn elide_frame_and_saves(blocks: &mut [CapturedBlock]) -> u64 {
    // Nothing here is safe around a kept call: the callee observes both
    // the frame and the stack alignment the saves establish. `ret` is a
    // barrier too, but it is the boundary the whole argument is about —
    // it only reads the return address at `[rsp]`, which every removal
    // below leaves in place (all removals are rsp-balanced).
    if blocks.iter().any(|b| {
        b.insts
            .iter()
            .any(|ci| defuse::is_barrier(&ci.inst) && !matches!(ci.inst, Inst::Ret))
    }) {
        return 0;
    }
    let flags_out = flags_live_out(blocks);
    // Partition every rsp-referencing instruction; anything outside the
    // three known shapes keeps the whole frame.
    let mut adjusts: Vec<(usize, usize, i64, bool)> = Vec::new();
    let mut saves: HashMap<Gpr, Vec<(usize, usize, bool)>> = HashMap::new();
    for (bi, b) in blocks.iter().enumerate() {
        for (ii, ci) in b.insts.iter().enumerate() {
            let inst = &ci.inst;
            if !references(inst, Loc::Gpr(Gpr::Rsp), false) {
                continue;
            }
            if let Some((d, f)) = rsp_adjust(inst) {
                adjusts.push((bi, ii, d, f));
                continue;
            }
            match inst {
                Inst::Push {
                    src: Operand::Reg(r),
                } if r.is_callee_saved() && *r != Gpr::Rsp => {
                    saves.entry(*r).or_default().push((bi, ii, true));
                }
                Inst::Pop {
                    dst: Operand::Reg(r),
                } if r.is_callee_saved() && *r != Gpr::Rsp => {
                    saves.entry(*r).or_default().push((bi, ii, false));
                }
                Inst::Ret => {}
                // A surviving frame slot or an escaped frame address.
                _ => return 0,
            }
        }
    }
    let mut drop: Vec<(usize, usize)> = Vec::new();
    let flags_ok =
        |bi: usize, ii: usize, f: bool| !f || flags_dead_at(&blocks[bi], ii + 1, flags_out[bi]);
    // The frame pair. Exactly two adjustments that balance: correct input
    // code executes the allocation before the release on every path, so
    // removing both leaves rsp at its entry value throughout.
    if let [(b1, i1, d1, f1), (b2, i2, d2, f2)] = adjusts[..] {
        if d1 + d2 == 0 && flags_ok(b1, i1, f1) && flags_ok(b2, i2, f2) {
            drop.push((b1, i1));
            drop.push((b2, i2));
        }
    }
    // Dead saves. Block scan order is layout order, not execution order
    // (the entry block is appended last), so pair by push/pop role.
    for (r, sites) in &saves {
        let ([push], [pop]) = (
            &sites.iter().filter(|s| s.2).collect::<Vec<_>>()[..],
            &sites.iter().filter(|s| !s.2).collect::<Vec<_>>()[..],
        ) else {
            continue;
        };
        let touched = blocks.iter().enumerate().any(|(bi, b)| {
            b.insts.iter().enumerate().any(|(ii, ci)| {
                (bi, ii) != (push.0, push.1)
                    && (bi, ii) != (pop.0, pop.1)
                    && references(&ci.inst, Loc::Gpr(*r), false)
            })
        });
        if !touched {
            drop.push((push.0, push.1));
            drop.push((pop.0, pop.1));
        }
    }
    let removed = drop.len() as u64;
    let mut by_block: HashMap<usize, HashSet<usize>> = HashMap::new();
    for (bi, ii) in drop {
        by_block.entry(bi).or_default().insert(ii);
    }
    for (bi, idxs) in by_block {
        let mut ii = 0usize;
        blocks[bi].insts.retain(|_| {
            let keep = !idxs.contains(&ii);
            ii += 1;
            keep
        });
    }
    removed
}

// ---------------------------------------------------------------------------
// Phase 2c: address folding
// ---------------------------------------------------------------------------

/// If `inst`'s only reference to `a` is as the (index-free) base of its
/// single memory operand and it does not write `a`, return that operand.
fn sole_base_use(inst: &Inst, a: Gpr) -> Option<MemRef> {
    if writes_loc(inst, Loc::Gpr(a)) {
        return None;
    }
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
    let sub = |op: &Operand| -> Operand {
        match op {
            Operand::Mem(_) => Operand::Mem(m),
            other => *other,
        }
    };
    Some(match inst {
        Inst::Mov { w, dst, src } => Inst::Mov {
            w: *w,
            dst: sub(dst),
            src: sub(src),
        },
        Inst::Movsxd { dst, src } => Inst::Movsxd {
            dst: *dst,
            src: sub(src),
        },
        Inst::Movzx8 { w, dst, src } => Inst::Movzx8 {
            w: *w,
            dst: *dst,
            src: sub(src),
        },
        Inst::Alu { op, w, dst, src } => Inst::Alu {
            op: *op,
            w: *w,
            dst: sub(dst),
            src: sub(src),
        },
        Inst::Test { w, a, b } => Inst::Test {
            w: *w,
            a: sub(a),
            b: sub(b),
        },
        Inst::Imul { w, dst, src } => Inst::Imul {
            w: *w,
            dst: *dst,
            src: sub(src),
        },
        Inst::ImulImm { w, dst, src, imm } => Inst::ImulImm {
            w: *w,
            dst: *dst,
            src: sub(src),
            imm: *imm,
        },
        Inst::MovSd { dst, src } => Inst::MovSd {
            dst: sub(dst),
            src: sub(src),
        },
        Inst::Sse { op, dst, src } => Inst::Sse {
            op: *op,
            dst: *dst,
            src: sub(src),
        },
        Inst::Ucomisd { a, b } => Inst::Ucomisd { a: *a, b: sub(b) },
        Inst::Cvtsi2sd { w, dst, src } => Inst::Cvtsi2sd {
            w: *w,
            dst: *dst,
            src: sub(src),
        },
        Inst::Cvttsd2si { w, dst, src } => Inst::Cvttsd2si {
            w: *w,
            dst: *dst,
            src: sub(src),
        },
        _ => return None,
    })
}

/// `[mov a, b ;] [add/sub a, k ;] use [a+d]` → `use [b+d±k]` (with `b = a`
/// when there is no copy) when `a` dies at the use and the (removed) ALU's
/// flags are dead.
fn fold_addresses(b: &mut CapturedBlock, live_out: LiveSet, flags_out: bool, so: bool) -> u64 {
    let mut removed = 0;
    let mut i = 0;
    while i < b.insts.len() {
        let copy = match b.insts[i].inst {
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(a),
                src: Operand::Reg(base),
            } if a != base && base != Gpr::Rsp => Some((a, base)),
            _ => None,
        };
        // Optional immediate adjustment of `a` (right after the copy).
        let at = i + copy.is_some() as usize;
        let adjust = match b.insts.get(at).map(|ci| ci.inst) {
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
        let fold = b.insts.get(j).and_then(|cj| {
            if a == Gpr::Rsp || a == Gpr::Rbp {
                return None;
            }
            let m = sole_base_use(&cj.inst, a)?;
            let disp = i64::from(m.disp).checked_add(adjust.map_or(0, |(_, k)| k))?;
            let disp = i32::try_from(disp).ok()?;
            if live_after(b, j, live_out, so).has(Loc::Gpr(a)) {
                return None;
            }
            if adjust.is_some() && !flags_dead_at(b, j, flags_out) {
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
            let meta = b.insts[j];
            b.insts[j] = CapturedInst {
                inst: new,
                frame_store: meta.frame_store,
                frame_load: meta.frame_load,
            };
            b.insts.drain(i..j);
            removed += (j - i) as u64;
        } else {
            i += 1;
        }
    }
    removed
}

// ---------------------------------------------------------------------------
// Renaming machinery for the copy passes
// ---------------------------------------------------------------------------

fn map_mem_gpr(m: &MemRef, from: Gpr, to: Gpr) -> MemRef {
    MemRef {
        base: m.base.map(|b| if b == from { to } else { b }),
        index: m.index.map(|(r, s)| (if r == from { to } else { r }, s)),
        disp: m.disp,
    }
}

fn map_op_gpr(op: &Operand, from: Gpr, to: Gpr) -> Operand {
    match op {
        Operand::Reg(r) if *r == from => Operand::Reg(to),
        Operand::Mem(m) => Operand::Mem(map_mem_gpr(m, from, to)),
        other => *other,
    }
}

/// Structurally rename every occurrence of GPR `from` to `to`. `None`
/// means the instruction's shape (or an implicit register) cannot be
/// renamed safely — callers must abort their transform.
fn rename_gpr(inst: &Inst, from: Gpr, to: Gpr) -> Option<Inst> {
    if !references(inst, Loc::Gpr(from), false) {
        return Some(*inst);
    }
    let g = |r: &Gpr| if *r == from { to } else { *r };
    let o = |op: &Operand| map_op_gpr(op, from, to);
    Some(match inst {
        Inst::Mov { w, dst, src } => Inst::Mov {
            w: *w,
            dst: o(dst),
            src: o(src),
        },
        Inst::MovAbs { dst, imm } => Inst::MovAbs {
            dst: g(dst),
            imm: *imm,
        },
        Inst::Movsxd { dst, src } => Inst::Movsxd {
            dst: g(dst),
            src: o(src),
        },
        Inst::Movzx8 { w, dst, src } => Inst::Movzx8 {
            w: *w,
            dst: g(dst),
            src: o(src),
        },
        Inst::Lea { dst, src } => Inst::Lea {
            dst: g(dst),
            src: map_mem_gpr(src, from, to),
        },
        Inst::Alu { op, w, dst, src } => Inst::Alu {
            op: *op,
            w: *w,
            dst: o(dst),
            src: o(src),
        },
        Inst::Test { w, a, b } => Inst::Test {
            w: *w,
            a: o(a),
            b: o(b),
        },
        Inst::Imul { w, dst, src } => Inst::Imul {
            w: *w,
            dst: g(dst),
            src: o(src),
        },
        Inst::ImulImm { w, dst, src, imm } => Inst::ImulImm {
            w: *w,
            dst: g(dst),
            src: o(src),
            imm: *imm,
        },
        Inst::Unary { op, w, dst } => Inst::Unary {
            op: *op,
            w: *w,
            dst: o(dst),
        },
        Inst::Shift { op, w, dst, count } => {
            // The implicit CL count register cannot be renamed.
            if matches!(count, ShiftCount::Cl) && (from == Gpr::Rcx || to == Gpr::Rcx) {
                return None;
            }
            Inst::Shift {
                op: *op,
                w: *w,
                dst: o(dst),
                count: *count,
            }
        }
        Inst::Push { src } => Inst::Push { src: o(src) },
        Inst::Pop { dst } => Inst::Pop { dst: o(dst) },
        Inst::Setcc { cond, dst } => Inst::Setcc {
            cond: *cond,
            dst: o(dst),
        },
        Inst::MovSd { dst, src } => Inst::MovSd {
            dst: o(dst),
            src: o(src),
        },
        Inst::Sse { op, dst, src } => Inst::Sse {
            op: *op,
            dst: *dst,
            src: o(src),
        },
        Inst::Ucomisd { a, b } => Inst::Ucomisd { a: *a, b: o(b) },
        Inst::Cvtsi2sd { w, dst, src } => Inst::Cvtsi2sd {
            w: *w,
            dst: *dst,
            src: o(src),
        },
        Inst::Cvttsd2si { w, dst, src } => Inst::Cvttsd2si {
            w: *w,
            dst: g(dst),
            src: o(src),
        },
        // Cqo/Idiv reference RAX/RDX implicitly; barriers and everything
        // else unhandled: refuse.
        _ => return None,
    })
}

fn map_op_xmm(op: &Operand, from: Xmm, to: Xmm) -> Operand {
    match op {
        Operand::Xmm(x) if *x == from => Operand::Xmm(to),
        other => *other,
    }
}

/// XMM counterpart of [`rename_gpr`].
fn rename_xmm(inst: &Inst, from: Xmm, to: Xmm) -> Option<Inst> {
    if !references(inst, Loc::Xmm(from), false) {
        return Some(*inst);
    }
    let x = |r: &Xmm| if *r == from { to } else { *r };
    let o = |op: &Operand| map_op_xmm(op, from, to);
    Some(match inst {
        Inst::MovSd { dst, src } => Inst::MovSd {
            dst: o(dst),
            src: o(src),
        },
        Inst::MovUpd { dst, src } => Inst::MovUpd {
            dst: o(dst),
            src: o(src),
        },
        Inst::Sse { op, dst, src } => Inst::Sse {
            op: *op,
            dst: x(dst),
            src: o(src),
        },
        Inst::Ucomisd { a, b } => Inst::Ucomisd { a: x(a), b: o(b) },
        Inst::Cvtsi2sd { w, dst, src } => Inst::Cvtsi2sd {
            w: *w,
            dst: x(dst),
            src: *src,
        },
        Inst::Cvttsd2si { w, dst, src } => Inst::Cvttsd2si {
            w: *w,
            dst: *dst,
            src: o(src),
        },
        _ => return None,
    })
}

fn rename(inst: &Inst, from: Loc, to: Loc) -> Option<Inst> {
    match (from, to) {
        (Loc::Gpr(f), Loc::Gpr(t)) => rename_gpr(inst, f, t),
        (Loc::Xmm(f), Loc::Xmm(t)) => rename_xmm(inst, f, t),
        _ => None,
    }
}

/// The copy shapes both copy passes recognize: `(dst, src, width class)`.
fn as_copy(inst: &Inst, so: bool) -> Option<(Loc, Loc)> {
    match inst {
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(d),
            src: Operand::Reg(s),
        } if d != s && *d != Gpr::Rsp && *s != Gpr::Rsp && *d != Gpr::Rbp && *s != Gpr::Rbp => {
            Some((Loc::Gpr(*d), Loc::Gpr(*s)))
        }
        // Register movsd merges the high lane: only a real copy when no
        // high lane can be observed.
        Inst::MovSd {
            dst: Operand::Xmm(d),
            src: Operand::Xmm(s),
        } if so && d != s => Some((Loc::Xmm(*d), Loc::Xmm(*s))),
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
fn coalesce_backward(b: &mut CapturedBlock, live_out: LiveSet, so: bool) -> u64 {
    let mut removed = 0;
    let mut j = b.insts.len();
    while j > 0 {
        j -= 1;
        let Some((d, s)) = as_copy(&b.insts[j].inst, so) else {
            continue;
        };
        if live_after(b, j, live_out, so).has(s) {
            continue;
        }
        // Walk back to s's full definition, collecting the rename window.
        let mut window: Vec<usize> = Vec::new();
        let mut def: Option<(usize, bool)> = None; // (index, drop as self-copy)
        for k in (0..j).rev() {
            let inst = &b.insts[k].inst;
            if defuse::is_barrier(inst) {
                break;
            }
            if full_def(inst, so) && writes_loc(inst, s) {
                // Only a definition that does not also *read* s ends the
                // walk — a read-modify-write like `imul s, x` or `addsd s,
                // x` merely extends the chain and must be renamed along
                // with it (fall through to the window logic below).
                let mut reads_s = false;
                for_each_read_so(inst, so, &mut |l| reads_s |= l == s);
                if !reads_s {
                    // `mov s, d` at the window start renames to a self-move.
                    let self_copy =
                        matches!(as_copy(inst, so), Some((cd, cs)) if cd == s && cs == d);
                    if !self_copy && references(inst, d, so) {
                        break;
                    }
                    def = Some((k, self_copy));
                    break;
                }
            }
            if references(inst, d, so) {
                break;
            }
            if references(inst, s, so) {
                window.push(k);
            }
        }
        let Some((w, drop_def)) = def else {
            continue;
        };
        // Every touched instruction must rename structurally.
        let ok = window
            .iter()
            .chain((!drop_def).then_some(&w))
            .all(|&k| rename(&b.insts[k].inst, s, d).is_some());
        if !ok {
            continue;
        }
        for &k in window.iter().chain((!drop_def).then_some(&w)) {
            b.insts[k].inst = rename(&b.insts[k].inst, s, d).unwrap();
        }
        b.insts.remove(j);
        removed += 1;
        if drop_def {
            b.insts.remove(w);
            removed += 1;
            j = j.saturating_sub(1);
        }
    }
    removed
}

// ---------------------------------------------------------------------------
// Phase 2e: forward copy propagation
// ---------------------------------------------------------------------------

/// For a copy `d ← s`, rewrite downstream pure reads of `d` to `s` (while
/// `s` is unclobbered) and drop the copy once `d` is fully redefined — or
/// dead at the block boundary.
fn propagate_copies(b: &mut CapturedBlock, live_out: LiveSet, so: bool) -> u64 {
    let mut removed = 0;
    let mut i = 0;
    'copies: while i < b.insts.len() {
        let Some((d, s)) = as_copy(&b.insts[i].inst, so) else {
            i += 1;
            continue;
        };
        let mut renames: Vec<usize> = Vec::new();
        let mut s_written = false;
        let mut closed = false; // d fully redefined downstream
        for k in i + 1..b.insts.len() {
            let inst = &b.insts[k].inst;
            if defuse::is_barrier(inst) {
                i += 1;
                continue 'copies;
            }
            let mut reads_d = false;
            for_each_read_so(inst, so, &mut |l| reads_d |= l == d);
            if reads_d {
                if s_written || rename(inst, d, s).is_none() {
                    i += 1;
                    continue 'copies;
                }
                renames.push(k);
            }
            if writes_loc(inst, d) {
                if full_def(inst, so) && !reads_d {
                    closed = true;
                    break;
                }
                // Partial redefinition (or a full one that also reads d —
                // renaming would corrupt the def): give up on this copy.
                i += 1;
                continue 'copies;
            }
            if writes_loc(inst, s) {
                s_written = true;
            }
        }
        if !closed && live_out.has(d) {
            i += 1;
            continue;
        }
        for &k in &renames {
            b.insts[k].inst = rename(&b.insts[k].inst, d, s).unwrap();
        }
        b.insts.remove(i);
        removed += 1;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{BlockId, Terminator};

    fn block(insts: Vec<Inst>) -> CapturedBlock {
        let mut b = CapturedBlock::pending(0x1000);
        b.insts = insts.into_iter().map(CapturedInst::plain).collect();
        b.term = Terminator::Ret;
        b.traced = true;
        b
    }

    fn run(insts: Vec<Inst>) -> Vec<Inst> {
        let mut blocks = vec![block(insts)];
        allocate(&mut blocks, false, RetKind::Int, OptLevel::default());
        blocks[0].insts.iter().map(|ci| ci.inst).collect()
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
        allocate(&mut blocks, false, RetKind::Int, OptLevel::default());
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

    fn gmov(dst: Gpr, src: Gpr) -> Inst {
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(dst),
            src: Operand::Reg(src),
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
