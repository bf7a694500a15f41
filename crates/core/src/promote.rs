//! Frame-slot promotion: replace a stack slot's loads and stores with a
//! free scratch register.
//!
//! The rewriter's input code (like any compiler's spill code) round-trips
//! values through frame slots; after specialization deletes the surrounding
//! computation, those round-trips often dominate. §IV of the paper argues
//! such cleanups "can be much simpler than corresponding compiler passes,
//! as being tailored to specific cases" — this pass is the register-pressure
//! half of that: no global allocation, just promotion of whole slots into
//! registers that are *provably unused* across the entire rewritten
//! function.
//!
//! Soundness conditions for promoting slot `k` into register `r`:
//! * the frame never escapes (no untracked access can alias the slot),
//! * every access to `k` is a plain 8-byte `mov`/`movsd` with frame
//!   metadata (no pushes, no RMW),
//! * no kept call exists anywhere (a callee could observe caller-saved
//!   registers... it may not legally, but it may *clobber* `r`),
//! * `r` is read/written by no instruction in any block, and is
//!   caller-saved (so the function's own ABI obligations are unaffected).

use crate::capture::{CapturedBlock, CapturedInst};
use brew_x86::prelude::*;
use brew_x86::{WordMap, WordSet};

/// Run slot promotion; returns the number of instructions converted from
/// memory form to register form.
pub fn promote_slots(blocks: &mut [CapturedBlock], frame_escaped: bool) -> u64 {
    if frame_escaped {
        return 0;
    }

    // 1. Global scan: which registers are used at all, are there calls,
    //    and which slots are accessed exclusively by plain moves?
    let mut used_gpr = [false; 16];
    let mut used_xmm = [false; 16];
    let mut any_call = false;
    // slot -> (gpr_ok, xmm_ok, access count)
    let mut slots: WordMap<i64, (bool, bool, u64)> = WordMap::default();
    let mut disqualified: WordSet<i64> = WordSet::default();

    for b in blocks.iter() {
        for ci in &b.insts {
            defuse::for_each_read(&ci.inst, &mut |l| match l {
                defuse::Loc::Gpr(g) => used_gpr[g.number() as usize] = true,
                defuse::Loc::Xmm(x) => used_xmm[x.number() as usize] = true,
            });
            defuse::for_each_write(&ci.inst, &mut |l| match l {
                defuse::Loc::Gpr(g) => used_gpr[g.number() as usize] = true,
                defuse::Loc::Xmm(x) => used_xmm[x.number() as usize] = true,
            });
            if matches!(ci.inst, Inst::CallRel { .. } | Inst::CallInd { .. }) {
                any_call = true;
            }
            for off in [ci.frame_store, ci.frame_load].into_iter().flatten() {
                match classify(&ci.inst) {
                    Some(Class::Gpr) => {
                        let e = slots.entry(off).or_insert((true, true, 0));
                        e.1 = false; // not xmm
                        e.2 += 1;
                    }
                    Some(Class::Xmm) => {
                        let e = slots.entry(off).or_insert((true, true, 0));
                        e.0 = false; // not gpr
                        e.2 += 1;
                    }
                    None => {
                        disqualified.insert(off);
                    }
                }
            }
        }
    }
    if any_call {
        // A kept call clobbers caller-saved registers, and callee-saved
        // ones would need save/restore: skip promotion entirely.
        return 0;
    }

    // 2. Pick candidates: most-accessed slots first, one free register each.
    let mut cands: Vec<(i64, bool /*xmm*/, u64)> = slots
        .iter()
        .filter(|(off, (gpr_ok, xmm_ok, _))| !disqualified.contains(off) && (*gpr_ok ^ *xmm_ok))
        .map(|(off, (gpr_ok, _, n))| (*off, !*gpr_ok, *n))
        .filter(|&(_, _, n)| n >= 2)
        .collect();
    cands.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));

    // Caller-saved scratch pools, least likely to collide first.
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
    let mut gi = 0;
    let mut xi = 0;
    for (off, is_xmm, _) in cands {
        if is_xmm {
            while xi < xmm_pool.len() && used_xmm[xmm_pool[xi].number() as usize] {
                xi += 1;
            }
            if xi < xmm_pool.len() {
                xmm_map.insert(off, xmm_pool[xi]);
                xi += 1;
            }
        } else {
            while gi < gpr_pool.len() && used_gpr[gpr_pool[gi].number() as usize] {
                gi += 1;
            }
            if gi < gpr_pool.len() {
                gpr_map.insert(off, gpr_pool[gi]);
                gi += 1;
            }
        }
    }
    if gpr_map.is_empty() && xmm_map.is_empty() {
        return 0;
    }

    // 3. Rewrite accesses.
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

enum Class {
    Gpr,
    Xmm,
}

/// Is this frame access a promotable plain 8-byte move? `None` disqualifies
/// the slot (pushes, pops, RMW ALU on memory, stores of immediates are fine
/// for GPR; immediate stores keep their imm operand).
fn classify(inst: &Inst) -> Option<Class> {
    match inst {
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Mem(_),
            src: Operand::Reg(_) | Operand::Imm(_),
        } => Some(Class::Gpr),
        Inst::Mov {
            w: Width::W64,
            dst: Operand::Reg(_),
            src: Operand::Mem(_),
        } => Some(Class::Gpr),
        Inst::MovSd {
            dst: Operand::Mem(_),
            src: Operand::Xmm(_),
        } => Some(Class::Xmm),
        Inst::MovSd {
            dst: Operand::Xmm(_),
            src: Operand::Mem(_),
        } => Some(Class::Xmm),
        _ => None,
    }
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
        b
    }

    fn fstore(off: i64, src: Xmm) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off as i32)),
                src: Operand::Xmm(src),
            },
            frame_store: Some(off),
            frame_load: None,
        }
    }

    fn fload(dst: Xmm, off: i64) -> CapturedInst {
        CapturedInst {
            inst: Inst::MovSd {
                dst: Operand::Xmm(dst),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, off as i32)),
            },
            frame_store: None,
            frame_load: Some(off),
        }
    }

    #[test]
    fn promotes_xmm_accumulator_round_trips() {
        let mut blocks = vec![block(vec![
            fstore(-16, Xmm::Xmm0),
            fload(Xmm::Xmm0, -16),
            fstore(-16, Xmm::Xmm0),
            fload(Xmm::Xmm0, -16),
        ])];
        let n = promote_slots(&mut blocks, false);
        assert_eq!(n, 4);
        // Every access became a register-register move (into xmm15).
        for ci in &blocks[0].insts {
            assert!(matches!(
                ci.inst,
                Inst::MovSd {
                    dst: Operand::Xmm(_),
                    src: Operand::Xmm(_)
                }
            ));
        }
    }

    #[test]
    fn respects_escape_and_calls() {
        let mut blocks = vec![block(vec![fstore(-16, Xmm::Xmm0), fload(Xmm::Xmm0, -16)])];
        assert_eq!(promote_slots(&mut blocks, true), 0);

        let mut blocks = vec![block(vec![
            fstore(-16, Xmm::Xmm0),
            CapturedInst::plain(Inst::CallRel { target: 0x400000 }),
            fload(Xmm::Xmm0, -16),
        ])];
        assert_eq!(promote_slots(&mut blocks, false), 0);
    }

    #[test]
    fn mixed_class_slot_not_promoted() {
        // Same slot accessed as both integer and double: leave it alone.
        let gpr_load = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -16)),
            },
            frame_store: None,
            frame_load: Some(-16),
        };
        let mut blocks = vec![block(vec![fstore(-16, Xmm::Xmm0), gpr_load])];
        assert_eq!(promote_slots(&mut blocks, false), 0);
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
        let mut blocks = vec![block(vec![
            push,
            fload(Xmm::Xmm0, -16),
            fstore(-16, Xmm::Xmm0),
        ])];
        assert_eq!(promote_slots(&mut blocks, false), 0);
    }

    #[test]
    fn used_registers_are_not_recruited() {
        // Block already uses xmm8..xmm15: nothing free.
        let mut insts = vec![fstore(-16, Xmm::Xmm0), fload(Xmm::Xmm0, -16)];
        for x in [
            Xmm::Xmm8,
            Xmm::Xmm9,
            Xmm::Xmm10,
            Xmm::Xmm11,
            Xmm::Xmm12,
            Xmm::Xmm13,
            Xmm::Xmm14,
            Xmm::Xmm15,
        ] {
            insts.push(CapturedInst::plain(Inst::Sse {
                op: SseOp::Addsd,
                dst: x,
                src: Operand::Xmm(x),
            }));
        }
        let mut blocks = vec![block(insts)];
        assert_eq!(promote_slots(&mut blocks, false), 0);
    }

    #[test]
    fn gpr_slot_promotion() {
        let store = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
                src: Operand::Reg(Gpr::Rax),
            },
            frame_store: Some(-8),
            frame_load: None,
        };
        let load = CapturedInst {
            inst: Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            },
            frame_store: None,
            frame_load: Some(-8),
        };
        let mut blocks = vec![block(vec![store, load])];
        let n = promote_slots(&mut blocks, false);
        assert_eq!(n, 2);
        assert_eq!(
            blocks[0].insts[0].inst,
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::R11),
                src: Operand::Reg(Gpr::Rax)
            }
        );
        assert_eq!(
            blocks[0].insts[1].inst,
            Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rcx),
                src: Operand::Reg(Gpr::R11)
            }
        );
    }
}
