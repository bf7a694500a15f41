//! Post-rewrite register allocation (paper §IV: "register renaming" is the
//! prototype's named next step; ROADMAP item 1).
//!
//! Two phases, both driven by the `x86::defuse` sets validated
//! differentially against the emulator in PR 5:
//!
//! 1. **Slot allocation** — the CFG-aware generalization of
//!    [`crate::promote::promote_slots`]: per-block live-in/live-out for
//!    every remaining frame slot, a slot *extent* (the set of blocks the
//!    slot's value must survive across, including loop back-edge paths),
//!    and a linear scan over the caller-saved scratch pools that assigns a
//!    register whose own live range and uses are provably disjoint from
//!    the extent. Spill fallback is the identity: a slot with no free
//!    register simply stays in memory, so the pass can never make code
//!    worse. Unlike `promote_slots` it tolerates kept calls — a slot whose
//!    extent avoids every barrier block still allocates.
//!
//! 2. **Cleanup** — the rename work that makes phase 1 pay off. Promotion
//!    leaves chains of register-to-register moves, paired `rsp`
//!    adjustments around now-registerized temporaries, and
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
    writes_loc, Live, LiveSet, Liveness,
};
use crate::passes::PassConfig;
use brew_x86::prelude::*;
use brew_x86::{WordMap, WordSet};
use std::collections::{HashMap, HashSet};

/// Run the allocator; returns the number of instructions removed.
///
/// `pc.regalloc_aggressive` picks the `ret`-boundary live-out contract
/// (`liveness::abi_ret`): conservatively everything an observer might read, or
/// — translation-validated by `brew-verify` before publication — exactly
/// the declared return class plus the callee-saved set.
/// `pc.redundant_load_elim` picks the strength of the dead-code sweep.
pub fn allocate(
    blocks: &mut [CapturedBlock],
    frame_escaped: bool,
    ret: RetKind,
    pc: &PassConfig,
) -> u64 {
    let aggressive = pc.regalloc_aggressive;
    let ret_live = abi_ret(aggressive, ret);
    allocate_slots(blocks, frame_escaped, ret_live);
    let n = blocks.len();
    let mut lv = Liveness::new(blocks, frame_escaped, ret_live, pc.redundant_load_elim);
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

/// Is this frame access an allocatable plain 8-byte move (same contract as
/// `promote::classify`)? `None` disqualifies the slot.
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

/// Promote remaining frame slots into scratch registers whose live ranges
/// provably avoid the slot's extent. Returns conversions (not removals).
fn allocate_slots(blocks: &mut [CapturedBlock], frame_escaped: bool, ret_live: LiveSet) -> u64 {
    if frame_escaped || blocks.is_empty() {
        return 0;
    }
    let n = blocks.len();

    // Candidate slots: every access is a plain classified move of one class.
    let mut class: WordMap<i64, (Option<Class>, u64)> = WordMap::default();
    let mut disqualified: WordSet<i64> = WordSet::default();
    for b in blocks.iter() {
        for ci in &b.insts {
            for off in [ci.frame_store, ci.frame_load].into_iter().flatten() {
                match classify(&ci.inst) {
                    Some(c) => {
                        let e = class.entry(off).or_insert((Some(c), 0));
                        if e.0 != Some(c) {
                            disqualified.insert(off);
                        }
                        e.1 += 1;
                    }
                    None => {
                        disqualified.insert(off);
                    }
                }
            }
        }
    }
    let mut cands: Vec<(i64, Class, u64)> = class
        .iter()
        .filter(|(off, _)| !disqualified.contains(off))
        .filter_map(|(off, (c, cnt))| (*c).map(|c| (*off, c, *cnt)))
        .filter(|&(_, _, cnt)| cnt >= 2)
        .collect();
    if cands.is_empty() {
        return 0;
    }
    cands.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));

    // Per-block slot gen (read before write) / kill (written) sets, then a
    // backward fixpoint for slot live-in/out. The extent — every block the
    // slot's value must survive — is access ∪ live-through, which is what
    // a linearized interval would get wrong across loop back-edges.
    let offsets: Vec<i64> = cands.iter().map(|c| c.0).collect();
    let slot_ix: WordMap<i64, usize> = offsets.iter().enumerate().map(|(i, o)| (*o, i)).collect();
    let ns = offsets.len();
    let mut gen = vec![vec![false; ns]; n];
    let mut kill = vec![vec![false; ns]; n];
    let mut accessed = vec![vec![false; ns]; n];
    for (bi, b) in blocks.iter().enumerate() {
        for ci in &b.insts {
            if let Some(s) = ci.frame_load.and_then(|o| slot_ix.get(&o)) {
                accessed[bi][*s] = true;
                if !kill[bi][*s] {
                    gen[bi][*s] = true;
                }
            }
            if let Some(s) = ci.frame_store.and_then(|o| slot_ix.get(&o)) {
                accessed[bi][*s] = true;
                kill[bi][*s] = true;
            }
        }
    }
    let mut s_in = vec![vec![false; ns]; n];
    let mut s_out = vec![vec![false; ns]; n];
    loop {
        let mut changed = false;
        for i in (0..n).rev() {
            for s in 0..ns {
                let out = blocks[i].term.successors().any(|t| t.0 < n && s_in[t.0][s]);
                let inn = gen[i][s] || (out && !kill[i][s]);
                changed |= out != s_out[i][s] || inn != s_in[i][s];
                s_out[i][s] = out;
                s_in[i][s] = inn;
            }
        }
        if !changed {
            break;
        }
    }

    // Register availability per block: the registers referenced by any
    // instruction, plus block-boundary liveness, plus an "any barrier"
    // flag (a barrier makes every register live mid-block).
    let lv = Liveness::new(blocks, frame_escaped, ret_live, false);
    let mut busy = vec![LiveSet::EMPTY; n];
    let mut has_barrier = vec![false; n];
    for (bi, b) in blocks.iter().enumerate() {
        let mut u = lv.live_out(blocks, bi).regs.union(lv.live_in(bi).regs);
        for ci in &b.insts {
            defuse::for_each_read(&ci.inst, &mut |l| u.set(l));
            defuse::for_each_write(&ci.inst, &mut |l| u.set(l));
            has_barrier[bi] |= defuse::is_barrier(&ci.inst);
        }
        busy[bi] = u;
    }

    // Linear scan over the scratch pools, hottest slot first. A register
    // is free for a slot iff every extent block is barrier-free and the
    // register is neither referenced nor live across any of them.
    let gpr_pool = [Gpr::R11, Gpr::R10, Gpr::R9, Gpr::R8];
    let xmm_pool = [
        Xmm::Xmm15,
        Xmm::Xmm14,
        Xmm::Xmm13,
        Xmm::Xmm12,
        Xmm::Xmm11,
        Xmm::Xmm10,
        Xmm::Xmm9,
        Xmm::Xmm8,
    ];
    let mut gpr_map: WordMap<i64, Gpr> = WordMap::default();
    let mut xmm_map: WordMap<i64, Xmm> = WordMap::default();
    for (off, c, _) in &cands {
        let s = slot_ix[off];
        let extent: Vec<usize> = (0..n)
            .filter(|&i| accessed[i][s] || s_in[i][s] || s_out[i][s])
            .collect();
        if extent.iter().any(|&i| has_barrier[i]) {
            continue; // spill fallback: leave the slot in memory
        }
        let free = |l: Loc| extent.iter().all(|&i| !busy[i].has(l));
        match c {
            Class::Gpr => {
                if let Some(&r) = gpr_pool.iter().find(|&&r| free(Loc::Gpr(r))) {
                    gpr_map.insert(*off, r);
                    for &i in &extent {
                        busy[i].set(Loc::Gpr(r));
                    }
                }
            }
            Class::Xmm => {
                if let Some(&x) = xmm_pool.iter().find(|&&x| free(Loc::Xmm(x))) {
                    xmm_map.insert(*off, x);
                    for &i in &extent {
                        busy[i].set(Loc::Xmm(x));
                    }
                }
            }
        }
    }
    if gpr_map.is_empty() && xmm_map.is_empty() {
        return 0;
    }

    // Rewrite the accesses (same shapes promote_slots rewrites).
    let mut converted = 0;
    for b in blocks.iter_mut() {
        for ci in b.insts.iter_mut() {
            let off = match (ci.frame_store, ci.frame_load) {
                (Some(o), None) | (None, Some(o)) => o,
                _ => continue,
            };
            if let Some(&r) = gpr_map.get(&off) {
                let new = match ci.inst {
                    Inst::Mov {
                        w: Width::W64,
                        dst: Operand::Mem(_),
                        src,
                    } => Inst::Mov {
                        w: Width::W64,
                        dst: Operand::Reg(r),
                        src,
                    },
                    Inst::Mov {
                        w: Width::W64,
                        dst,
                        src: Operand::Mem(_),
                    } => Inst::Mov {
                        w: Width::W64,
                        dst,
                        src: Operand::Reg(r),
                    },
                    _ => continue,
                };
                *ci = CapturedInst::plain(new);
                converted += 1;
            } else if let Some(&x) = xmm_map.get(&off) {
                let new = match ci.inst {
                    Inst::MovSd {
                        dst: Operand::Mem(_),
                        src,
                    } => Inst::MovSd {
                        dst: Operand::Xmm(x),
                        src,
                    },
                    Inst::MovSd {
                        dst,
                        src: Operand::Mem(_),
                    } => Inst::MovSd {
                        dst,
                        src: Operand::Xmm(x),
                    },
                    _ => continue,
                };
                *ci = CapturedInst::plain(new);
                converted += 1;
            }
        }
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
        allocate(&mut blocks, false, RetKind::Int, &PassConfig::default());
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
        allocate(&mut blocks, false, RetKind::Int, &PassConfig::default());
        assert_eq!(blocks[0].insts.len(), 1, "def feeds the successor");
    }

    #[test]
    fn slot_allocated_across_blocks() {
        // A slot written in block 0 and read in block 1 — promote_slots
        // (single-pool, whole-function free registers) already handles
        // this, but here rcx is busy in block 2, which is outside the
        // slot's extent: the CFG-aware allocator must still promote.
        let store = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                src: Operand::Reg(Gpr::Rcx),
            },
            frame_store: Some(-8),
            frame_load: None,
        };
        let load = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            },
            frame_store: None,
            frame_load: Some(-8),
        };
        let mut b0 = block(vec![]);
        b0.insts.push(store);
        b0.term = Terminator::Jmp(BlockId(1));
        let mut b1 = block(vec![]);
        b1.insts.push(load);
        b1.term = Terminator::Ret;
        // Uses every pool register except r8 somewhere outside the extent?
        // No — extent is blocks 0 and 1; make r11 busy only in block 1 so
        // the allocator must skip it and pick r10.
        b1.insts.push(CapturedInst::plain(Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(MemRef::abs(0x601000)),
            src: Operand::Reg(Gpr::R11),
        }));
        let mut blocks = vec![b0, b1];
        allocate_slots(&mut blocks, false, LiveSet::ABI_RET);
        assert_eq!(
            blocks[0].insts[0].inst,
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::R10),
                src: Operand::Reg(Gpr::Rcx),
            },
            "slot lives in r10: {:?}",
            blocks[0].insts
        );
        assert_eq!(
            blocks[1].insts[0].inst,
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Reg(Gpr::R10),
            }
        );
    }

    #[test]
    fn escaped_frame_blocks_slot_allocation() {
        let store = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                src: Operand::Reg(Gpr::Rcx),
            },
            frame_store: Some(-8),
            frame_load: None,
        };
        let load = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            },
            frame_store: None,
            frame_load: Some(-8),
        };
        let mut b = block(vec![]);
        b.insts = vec![store, load];
        let mut blocks = vec![b];
        assert_eq!(allocate_slots(&mut blocks, true, LiveSet::ABI_RET), 0);
        assert!(matches!(
            blocks[0].insts[0].inst,
            Inst::Mov {
                dst: Operand::Mem(_),
                ..
            }
        ));
    }

    #[test]
    fn barrier_block_in_extent_spills() {
        // The slot's only blocks contain a call: spill fallback (identity).
        let store = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                src: Operand::Reg(Gpr::Rcx),
            },
            frame_store: Some(-8),
            frame_load: None,
        };
        let load = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            },
            frame_store: None,
            frame_load: Some(-8),
        };
        let mut b = block(vec![]);
        b.insts = vec![
            store,
            CapturedInst::plain(Inst::CallRel { target: 0x400000 }),
            load,
        ];
        let mut blocks = vec![b];
        assert_eq!(allocate_slots(&mut blocks, false, LiveSet::ABI_RET), 0);
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
