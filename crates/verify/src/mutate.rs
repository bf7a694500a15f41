//! Seeded-corruption harness: length-preserving, in-place byte mutations
//! of a published variant, one per failure class the verifier claims to
//! catch. The V1 experiment applies every applicable mutation to every
//! corpus variant and requires 100% detection (EXPERIMENTS.md).
//!
//! Every mutation is applied by re-encoding a modified instruction with
//! the canonical encoder at the same address and requiring the same
//! length, so a mutant differs from the clean variant in *semantics*, not
//! in layout — exactly the corruption class a miscompiling pass or a
//! clobbered code buffer produces. Mutations that find no applicable site
//! in a given variant return `None` and are skipped by the harness.

use brew_core::RewriteResult;
use brew_image::{layout, Image};
use brew_x86::{decode, encode, AluOp, Gpr, Inst, Loc, MemRef, Operand, SseOp, Width};

use crate::Rule;

/// One corruption kind. `ALL` spans all six rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// First opcode byte replaced with an undefined one (0x06).
    UnknownOpcode,
    /// Final `ret` replaced with a bare REX prefix: the region now ends
    /// mid-instruction.
    TruncatedTail,
    /// An internal branch target nudged onto a mid-instruction address.
    BranchOffByTwo,
    /// A branch retargeted outside every mapped segment (or outside the
    /// variant when only a short encoding fits).
    WildJump,
    /// A call retargeted into the Data segment.
    CallIntoData,
    /// A `push` replaced by NOPs, leaving its `pop` unmatched.
    DroppedPush,
    /// A `pop` replaced by NOPs, leaving its `push` unmatched.
    DroppedPop,
    /// A frame `sub/add rsp, imm` skewed by 8 bytes.
    FrameSkew,
    /// An absolute store redirected into the folded-known read-set.
    StoreIntoKnown,
    /// An absolute store redirected onto the variant's own code.
    StoreIntoJit,
    /// A large (folded) immediate perturbed by one.
    FoldedImmTweak,
    /// An absolute load redirected to unmapped memory.
    DanglingDataRef,
    /// An absolute load redirected into the Code segment.
    LoadFromCode,
    /// A register-register `mov`/ALU source swapped for a different
    /// register — a rename applied to the wrong live interval.
    WrongRegSub,
    /// A caller-saved write destination retargeted onto a callee-saved
    /// register the variant never restores.
    ClobberCalleeSaved,
    /// A frame spill store (`mov [rsp+d], reg`) replaced by NOPs while
    /// its reload survives, so the reload reads a stale slot.
    DroppedSpillStore,
    /// The operands of a non-commutative reg-reg op (`sub`, `cmp`,
    /// `subsd`, `divsd`) swapped.
    CommutedNonCommutative,
    /// A constant moved or stored where the captured code stores it to a
    /// frame slot, replaced by a constant another store gives the same slot
    /// — constant propagation forwarding a slot across an intervening
    /// store. (This and the two kinds below model the dataflow passes:
    /// seed them into code those passes emitted. Pass-less code is full of
    /// dead instructions, and changing one of those is not a miscompile.)
    StaleSlotConst,
    /// A small immediate of an ALU or multiply instruction off by one — a
    /// constant fold that computed the wrong value (too small for
    /// provenance to question).
    FoldedImmOffByOne,
    /// A `cmp`/`test`/`ucomisd` whose flags a `jcc` or `setcc` still reads,
    /// replaced by NOPs — dead-code elimination with the flags left out of
    /// liveness.
    DroppedFlagWriter,
    /// A frame reload (`mov d, [rsp+x]` / `movsd d, [rsp+x]`) that follows,
    /// in straight-line code, a store of register `r` to the same slot and
    /// a write to `r`, turned into `mov d, r` (NOPs when `d` is `r`) — the
    /// register allocator's reload rule with its kill check left out.
    StaleSlotReg,
    /// An `add r, k` or `mov r, k` whose `k` no instruction of the captured
    /// code carries (a sum the cleanup folded) short by one addend the
    /// captured code adds to a register — the addend rule losing a term.
    DroppedAddend,
}

impl Mutation {
    /// Every mutation kind, grouped by the rule family expected to
    /// catch it.
    pub const ALL: [Mutation; 22] = [
        Mutation::UnknownOpcode,
        Mutation::TruncatedTail,
        Mutation::BranchOffByTwo,
        Mutation::WildJump,
        Mutation::CallIntoData,
        Mutation::DroppedPush,
        Mutation::DroppedPop,
        Mutation::FrameSkew,
        Mutation::StoreIntoKnown,
        Mutation::StoreIntoJit,
        Mutation::FoldedImmTweak,
        Mutation::DanglingDataRef,
        Mutation::LoadFromCode,
        Mutation::WrongRegSub,
        Mutation::ClobberCalleeSaved,
        Mutation::DroppedSpillStore,
        Mutation::CommutedNonCommutative,
        Mutation::StaleSlotConst,
        Mutation::FoldedImmOffByOne,
        Mutation::DroppedFlagWriter,
        Mutation::StaleSlotReg,
        Mutation::DroppedAddend,
    ];

    /// Short stable name (used in the V1 table).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::UnknownOpcode => "unknown-opcode",
            Mutation::TruncatedTail => "truncated-tail",
            Mutation::BranchOffByTwo => "branch-off-by-two",
            Mutation::WildJump => "wild-jump",
            Mutation::CallIntoData => "call-into-data",
            Mutation::DroppedPush => "dropped-push",
            Mutation::DroppedPop => "dropped-pop",
            Mutation::FrameSkew => "frame-skew",
            Mutation::StoreIntoKnown => "store-into-known",
            Mutation::StoreIntoJit => "store-into-jit",
            Mutation::FoldedImmTweak => "folded-imm-tweak",
            Mutation::DanglingDataRef => "dangling-data-ref",
            Mutation::LoadFromCode => "load-from-code",
            Mutation::WrongRegSub => "wrong-reg-sub",
            Mutation::ClobberCalleeSaved => "clobber-callee-saved",
            Mutation::DroppedSpillStore => "dropped-spill-store",
            Mutation::CommutedNonCommutative => "commuted-noncommutative",
            Mutation::StaleSlotConst => "stale-slot-const",
            Mutation::FoldedImmOffByOne => "folded-imm-off-by-one",
            Mutation::DroppedFlagWriter => "dropped-flag-writer",
            Mutation::StaleSlotReg => "stale-slot-reg",
            Mutation::DroppedAddend => "dropped-addend",
        }
    }

    /// The rule family this corruption is designed to exercise. (A
    /// mutant may legitimately be caught by a different rule first; the
    /// harness only requires that *some* rule catches it.)
    pub fn rule(self) -> Rule {
        match self {
            Mutation::UnknownOpcode | Mutation::TruncatedTail => Rule::Roundtrip,
            Mutation::BranchOffByTwo | Mutation::WildJump | Mutation::CallIntoData => {
                Rule::CfgClosure
            }
            Mutation::DroppedPush | Mutation::DroppedPop | Mutation::FrameSkew => {
                Rule::StackDiscipline
            }
            Mutation::StoreIntoKnown | Mutation::StoreIntoJit => Rule::WriteContainment,
            Mutation::FoldedImmTweak | Mutation::DanglingDataRef | Mutation::LoadFromCode => {
                Rule::Provenance
            }
            // Register-allocation- and dataflow-pass-shaped miscompiles
            // are structurally well-formed: only translation validation
            // can see them.
            Mutation::WrongRegSub
            | Mutation::ClobberCalleeSaved
            | Mutation::DroppedSpillStore
            | Mutation::CommutedNonCommutative
            | Mutation::StaleSlotConst
            | Mutation::FoldedImmOffByOne
            | Mutation::DroppedFlagWriter
            | Mutation::StaleSlotReg
            | Mutation::DroppedAddend => Rule::Equivalence,
        }
    }
}

/// A mutation applied to the image; holds the original bytes for
/// [`Applied::revert`].
pub struct Applied {
    /// Which corruption was applied.
    pub kind: Mutation,
    /// Address of the patched bytes.
    pub addr: u64,
    old: Vec<u8>,
}

impl Applied {
    /// Restore the clean variant bytes.
    pub fn revert(&self, img: &Image) {
        img.write_bytes(self.addr, &self.old)
            .expect("reverting a mutation cannot fault");
    }
}

/// An address in the unmapped gap below the JIT segment.
fn unmapped_gap() -> u64 {
    layout::JIT_BASE - 0x1_0000
}

/// Apply `kind` to the emitted region of `res` inside `img`, if a
/// suitable site exists. The patch preserves instruction layout
/// (identical length at the same address).
pub fn apply(img: &Image, res: &RewriteResult, kind: Mutation) -> Option<Applied> {
    let insts = decode_list(img, res.entry, res.code_len)?;
    let region = res.entry..res.entry + res.code_len as u64;
    match kind {
        Mutation::UnknownOpcode => {
            let (addr, _, len) = insts.first()?;
            let mut bytes = read(img, *addr, *len)?;
            bytes[0] = 0x06;
            patch(img, *addr, &bytes, kind)
        }
        Mutation::TruncatedTail => {
            let (addr, inst, _) = insts.last()?;
            matches!(inst, Inst::Ret).then_some(())?;
            patch(img, *addr, &[0x48], kind)
        }
        Mutation::BranchOffByTwo => insts.iter().find_map(|(addr, inst, len)| {
            let target = inst.static_target()?;
            (!matches!(inst, Inst::CallRel { .. }) && region.contains(&target)).then_some(())?;
            for delta in [2u64, 1, 3] {
                let t = target.wrapping_add(delta);
                if !region.contains(&t) || is_boundary(&insts, t) {
                    continue;
                }
                let mut m = *inst;
                m.set_static_target(t);
                if let Some(bytes) = encode_same_len(&m, *addr, *len) {
                    return patch(img, *addr, &bytes, kind);
                }
            }
            None
        }),
        Mutation::WildJump => insts.iter().find_map(|(addr, inst, len)| {
            matches!(inst, Inst::JmpRel { .. } | Inst::Jcc { .. }).then_some(())?;
            // Prefer a target in the unmapped gap; short encodings that
            // cannot reach it get one just past the region instead (still
            // an illegal escape).
            for t in [unmapped_gap(), region.end + 0x20] {
                if region.contains(&t) {
                    continue;
                }
                let mut m = *inst;
                m.set_static_target(t);
                if let Some(bytes) = encode_same_len(&m, *addr, *len) {
                    return patch(img, *addr, &bytes, kind);
                }
            }
            None
        }),
        Mutation::CallIntoData => insts.iter().find_map(|(addr, inst, len)| {
            matches!(inst, Inst::CallRel { .. }).then_some(())?;
            let mut m = *inst;
            m.set_static_target(layout::DATA_BASE + 0x10);
            let bytes = encode_same_len(&m, *addr, *len)?;
            patch(img, *addr, &bytes, kind)
        }),
        Mutation::DroppedPush => insts.iter().find_map(|(addr, inst, len)| {
            matches!(
                inst,
                Inst::Push {
                    src: Operand::Reg(_)
                }
            )
            .then_some(())?;
            patch(img, *addr, &vec![0x90; *len], kind)
        }),
        Mutation::DroppedPop => insts.iter().find_map(|(addr, inst, len)| {
            matches!(
                inst,
                Inst::Pop {
                    dst: Operand::Reg(_)
                }
            )
            .then_some(())?;
            patch(img, *addr, &vec![0x90; *len], kind)
        }),
        Mutation::FrameSkew => insts.iter().find_map(|(addr, inst, len)| {
            for skew in [8i64, -8] {
                let m = match inst {
                    Inst::Alu {
                        op: op @ (AluOp::Sub | AluOp::Add),
                        w,
                        dst: dst @ Operand::Reg(Gpr::Rsp),
                        src: Operand::Imm(imm),
                    } => Inst::Alu {
                        op: *op,
                        w: *w,
                        dst: *dst,
                        src: Operand::Imm(imm + skew),
                    },
                    Inst::Lea {
                        dst: Gpr::Rsp,
                        src:
                            MemRef {
                                base: Some(Gpr::Rsp),
                                index: None,
                                disp,
                            },
                    } => Inst::Lea {
                        dst: Gpr::Rsp,
                        src: MemRef {
                            base: Some(Gpr::Rsp),
                            index: None,
                            disp: disp + skew as i32,
                        },
                    },
                    _ => return None,
                };
                if let Some(bytes) = encode_same_len(&m, *addr, *len) {
                    return patch(img, *addr, &bytes, kind);
                }
            }
            None
        }),
        Mutation::StoreIntoKnown => {
            let known = res.snapshot.ranges().first()?.start;
            retarget_abs(img, &insts, kind, AbsSite::Store, known)
        }
        Mutation::StoreIntoJit => retarget_abs(img, &insts, kind, AbsSite::Store, res.entry),
        Mutation::FoldedImmTweak => insts.iter().find_map(|(addr, inst, len)| {
            let m = tweak_large_imm(inst)?;
            let bytes = encode_same_len(&m, *addr, *len)?;
            patch(img, *addr, &bytes, kind)
        }),
        Mutation::DanglingDataRef => retarget_abs(img, &insts, kind, AbsSite::Load, unmapped_gap()),
        Mutation::LoadFromCode => {
            retarget_abs(img, &insts, kind, AbsSite::Load, layout::CODE_BASE + 8)
        }
        Mutation::WrongRegSub => insts.iter().find_map(|(addr, inst, len)| {
            // Swap the source of a reg-reg mov/ALU for a different
            // register — a rename read from the wrong live interval.
            let (d, s) = match inst {
                Inst::Mov {
                    dst: Operand::Reg(d),
                    src: Operand::Reg(s),
                    ..
                }
                | Inst::Alu {
                    dst: Operand::Reg(d),
                    src: Operand::Reg(s),
                    ..
                } => (*d, *s),
                _ => return None,
            };
            for sub in [Gpr::Rax, Gpr::Rcx, Gpr::Rdx, Gpr::Rsi, Gpr::Rdi] {
                if sub == s || sub == d {
                    continue;
                }
                let mut m = *inst;
                match &mut m {
                    Inst::Mov { src, .. } | Inst::Alu { src, .. } => *src = Operand::Reg(sub),
                    _ => unreachable!(),
                }
                if let Some(bytes) = encode_same_len(&m, *addr, *len) {
                    return patch(img, *addr, &bytes, kind);
                }
            }
            None
        }),
        Mutation::ClobberCalleeSaved => {
            // A clobber of a register the variant later pops would be
            // masked at `ret`; target one it never restores.
            let restored: Vec<Gpr> = insts
                .iter()
                .filter_map(|(_, i, _)| match i {
                    Inst::Pop {
                        dst: Operand::Reg(r),
                    } => Some(*r),
                    _ => None,
                })
                .collect();
            let target = [Gpr::Rbx, Gpr::R12, Gpr::R13, Gpr::R14, Gpr::R15]
                .into_iter()
                .find(|r| !restored.contains(r))?;
            insts.iter().find_map(|(addr, inst, len)| {
                let mut m = *inst;
                match &mut m {
                    Inst::Mov {
                        dst: Operand::Reg(d),
                        src,
                        ..
                    }
                    // A self-move (`mov rbx, rbx`) would be a masked
                    // no-op — require the source to be something else.
                    | Inst::Alu {
                        dst: Operand::Reg(d),
                        src,
                        ..
                    } if !d.is_callee_saved() && *src != Operand::Reg(target) => *d = target,
                    _ => return None,
                }
                let bytes = encode_same_len(&m, *addr, *len)?;
                patch(img, *addr, &bytes, kind)
            })
        }
        Mutation::DroppedSpillStore => insts.iter().find_map(|(addr, inst, len)| {
            // Only a spill whose slot is reloaded later can mislead a
            // consumer; pair the store with a subsequent load of the
            // same rsp-relative slot.
            let slot = match inst {
                Inst::Mov {
                    dst:
                        Operand::Mem(
                            m @ MemRef {
                                base: Some(Gpr::Rsp),
                                index: None,
                                ..
                            },
                        ),
                    src: Operand::Reg(_),
                    ..
                } => *m,
                _ => return None,
            };
            let reloaded = insts.iter().any(|(a2, i2, _)| {
                *a2 > *addr
                    && matches!(i2, Inst::Mov {
                        dst: Operand::Reg(_),
                        src: Operand::Mem(m2),
                        ..
                    } if *m2 == slot)
            });
            reloaded.then_some(())?;
            patch(img, *addr, &vec![0x90; *len], kind)
        }),
        Mutation::CommutedNonCommutative => insts.iter().find_map(|(addr, inst, len)| {
            let m = match *inst {
                Inst::Alu {
                    op: op @ (AluOp::Sub | AluOp::Cmp),
                    w,
                    dst: Operand::Reg(a),
                    src: Operand::Reg(b),
                } if a != b && a != Gpr::Rsp && b != Gpr::Rsp => Inst::Alu {
                    op,
                    w,
                    dst: Operand::Reg(b),
                    src: Operand::Reg(a),
                },
                Inst::Sse {
                    op: op @ (SseOp::Subsd | SseOp::Divsd),
                    dst,
                    src: Operand::Xmm(s),
                } if s != dst => Inst::Sse {
                    op,
                    dst: s,
                    src: Operand::Xmm(dst),
                },
                _ => return None,
            };
            let bytes = encode_same_len(&m, *addr, *len)?;
            patch(img, *addr, &bytes, kind)
        }),
        Mutation::StaleSlotConst => {
            // (slot, constant, block) of every constant store in the
            // captured code; the emitted block of one of them is where its
            // constant should have ended up.
            let cap = res.equiv.as_ref()?;
            let mut stores: Vec<(i64, i64, usize)> = Vec::new();
            for (b, blk) in cap.straightened().iter().enumerate() {
                for ci in &blk.insts {
                    let (Some(off), Some(c)) = (ci.frame_store, stored_const(&ci.inst)) else {
                        continue;
                    };
                    stores.push((off, c, b));
                }
            }
            stores.iter().find_map(|&(off, fresh, b)| {
                let stale = stores.iter().find(|s| s.0 == off && s.1 != fresh)?.1;
                let start = *cap.block_addrs.get(b)?;
                let end = cap
                    .block_addrs
                    .iter()
                    .filter(|&&a| a > start && a != u64::MAX)
                    .min()
                    .map_or(region.end, |&a| a);
                insts.iter().find_map(|(addr, inst, len)| {
                    ((start..end).contains(addr) && stored_const(inst) == Some(fresh))
                        .then_some(())?;
                    let mut m = *inst;
                    if let Inst::Mov { src, .. } | Inst::Push { src } = &mut m {
                        *src = Operand::Imm(stale);
                    }
                    let bytes = encode_same_len(&m, *addr, *len)?;
                    patch(img, *addr, &bytes, kind)
                })
            })
        }
        Mutation::FoldedImmOffByOne => insts.iter().find_map(|(addr, inst, len)| {
            const SMALL: i64 = 32_768;
            [1i64, -1].into_iter().find_map(|delta| {
                let m = match *inst {
                    Inst::Alu {
                        op,
                        w,
                        dst,
                        src: Operand::Imm(v),
                    } if dst != Operand::Reg(Gpr::Rsp) && (v + delta).abs() < SMALL => Inst::Alu {
                        op,
                        w,
                        dst,
                        src: Operand::Imm(v + delta),
                    },
                    Inst::ImulImm { w, dst, src, imm }
                        if (i64::from(imm) + delta).abs() < SMALL =>
                    {
                        Inst::ImulImm {
                            w,
                            dst,
                            src,
                            imm: imm + delta as i32,
                        }
                    }
                    _ => return None,
                };
                let bytes = encode_same_len(&m, *addr, *len)?;
                patch(img, *addr, &bytes, kind)
            })
        }),
        Mutation::DroppedFlagWriter => {
            insts.iter().enumerate().find_map(|(k, (addr, inst, len))| {
                let only_flags = matches!(
                    inst,
                    Inst::Alu { op: AluOp::Cmp, .. } | Inst::Test { .. } | Inst::Ucomisd { .. }
                );
                // The next instruction that touches the flags reads them.
                let read = insts[k + 1..].iter().find_map(|(_, i, _)| {
                    if i.reads_flags() {
                        Some(true)
                    } else if i.writes_flags() || i.is_control() {
                        Some(false)
                    } else {
                        None
                    }
                });
                (only_flags && read == Some(true)).then_some(())?;
                patch(img, *addr, &vec![0x90; *len], kind)
            })
        }
        Mutation::StaleSlotReg => insts.iter().enumerate().find_map(|(k, (_, inst, _))| {
            let (r, slot) = frame_move(inst, false)?;
            let (addr, d, len) = stale_reload(&insts[k + 1..], r, slot)?;
            let mut bytes = match d == r {
                true => Vec::new(),
                false => {
                    let copy = match (d, r) {
                        (Operand::Reg(d), Operand::Reg(r)) => Inst::Mov {
                            w: Width::W64,
                            dst: Operand::Reg(d),
                            src: Operand::Reg(r),
                        },
                        (dst, src) => Inst::MovSd { dst, src },
                    };
                    let mut v = Vec::new();
                    encode(&copy, addr, &mut v).ok()?;
                    v
                }
            };
            (bytes.len() <= len).then_some(())?;
            bytes.resize(len, 0x90);
            patch(img, addr, &bytes, kind)
        }),
        Mutation::DroppedAddend => {
            // Every immediate the captured code carries, and the addends
            // among them: what the addend rule sums.
            let cap = res.equiv.as_ref()?;
            let captured = cap.blocks.iter().flat_map(|b| &b.insts);
            let mut imms: Vec<i64> = Vec::new();
            let mut addends: Vec<i64> = Vec::new();
            for ci in captured {
                match ci.inst {
                    Inst::Alu {
                        op: op @ (AluOp::Add | AluOp::Sub),
                        w: Width::W64,
                        dst: Operand::Reg(r),
                        src: Operand::Imm(k),
                    } if r != Gpr::Rsp && k != 0 => {
                        addends.push(if op == AluOp::Add { k } else { -k });
                        imms.push(k);
                    }
                    Inst::Alu {
                        src: Operand::Imm(k),
                        ..
                    }
                    | Inst::Mov {
                        src: Operand::Imm(k),
                        ..
                    } => imms.push(k),
                    _ => {}
                }
            }
            insts.iter().find_map(|(addr, inst, len)| {
                let folded = match *inst {
                    Inst::Alu {
                        op: AluOp::Add,
                        w: Width::W64,
                        dst: Operand::Reg(r),
                        src: Operand::Imm(k),
                    }
                    | Inst::Mov {
                        w: Width::W64,
                        dst: Operand::Reg(r),
                        src: Operand::Imm(k),
                    } if r != Gpr::Rsp && !imms.contains(&k) => k,
                    _ => return None,
                };
                addends.iter().find_map(|&a| {
                    let mut m = *inst;
                    if let Inst::Alu { src, .. } | Inst::Mov { src, .. } = &mut m {
                        *src = Operand::Imm(folded.checked_sub(a)?);
                    }
                    let bytes = encode_same_len(&m, *addr, *len)?;
                    patch(img, *addr, &bytes, kind)
                })
            })
        }
    }
}

/// `(register, rsp displacement)` of a plain 8-byte move between a
/// register and `[rsp+x]`: a reload when `load`, else a store.
fn frame_move(inst: &Inst, load: bool) -> Option<(Operand, i32)> {
    let (reg, mem) = match *inst {
        Inst::Mov {
            w: Width::W64,
            dst,
            src,
        }
        | Inst::MovSd { dst, src } => match load {
            true => (dst, src),
            false => (src, dst),
        },
        _ => return None,
    };
    let Operand::Mem(MemRef {
        base: Some(Gpr::Rsp),
        index: None,
        disp,
    }) = mem
    else {
        return None;
    };
    let plain = matches!(reg, Operand::Reg(r) if r != Gpr::Rsp) || matches!(reg, Operand::Xmm(_));
    (plain && matches!(inst, Inst::Mov { .. }) == matches!(reg, Operand::Reg(_)))
        .then_some((reg, disp))
}

/// After a store of `r` to `[rsp+slot]`, the first reload of the slot (of
/// `r`'s class) that comes, in straight-line code with the slot untouched,
/// after a write to `r`, and whose value the code after it reads: its
/// address, destination and length. `rsp` is followed through pushes, pops
/// and adjustments; a call writes every caller-saved register (and must
/// leave the slot alone: at or above `rsp`).
fn stale_reload(
    after: &[(u64, Inst, usize)],
    r: Operand,
    slot: i32,
) -> Option<(u64, Operand, usize)> {
    // `rsp` below its value at the store, and whether `r` was written.
    let (mut down, mut written) = (0i64, false);
    let reg = |op: Operand| match op {
        Operand::Reg(g) => Some(Loc::Gpr(g)),
        Operand::Xmm(x) => Some(Loc::Xmm(x)),
        _ => None,
    };
    let r_loc = reg(r)?;
    // Does `[rsp+disp, +len)` now overlap the slot?
    let hits = |down: i64, disp: i64, len: i64| {
        let at = disp - down;
        at < i64::from(slot) + 8 && i64::from(slot) < at + len
    };
    for (k, &(addr, inst, len)) in after.iter().enumerate() {
        if let Some((d, disp)) = frame_move(&inst, true) {
            let same_class = std::mem::discriminant(&d) == std::mem::discriminant(&r);
            if same_class && i64::from(disp) - down == i64::from(slot) {
                if written && read_before_written(&after[k + 1..], reg(d)?) {
                    return Some((addr, d, len));
                }
                // `d` now holds the slot; so does `r` if it is `d`.
                written &= d != r;
                continue;
            }
        }
        match inst {
            Inst::CallRel { .. } | Inst::CallInd { .. } if i64::from(slot) + down >= 0 => {
                written |= !matches!(r, Operand::Reg(g) if g.is_callee_saved());
                continue;
            }
            _ if inst.is_control() || matches!(inst, Inst::Ud2) => return None,
            Inst::Push { .. } => {
                down += 8;
                if hits(down, 0, 8) {
                    return None;
                }
                continue;
            }
            Inst::Pop { dst } => {
                down -= 8;
                written |= reg(dst) == Some(r_loc);
                continue;
            }
            Inst::Alu {
                op: op @ (AluOp::Add | AluOp::Sub),
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(k),
            } => {
                down += if op == AluOp::Sub { k } else { -k };
                continue;
            }
            Inst::Lea {
                dst: Gpr::Rsp,
                src:
                    MemRef {
                        base: Some(Gpr::Rsp),
                        index: None,
                        disp,
                    },
            } => {
                down -= i64::from(disp);
                continue;
            }
            _ => {}
        }
        if let Some(m) = inst.mem_store() {
            let on_rsp = m.regs().any(|g| g == Gpr::Rsp);
            if on_rsp && (m.index.is_some() || hits(down, i64::from(m.disp), 16)) {
                return None;
            }
        }
        let mut clobbers = false;
        brew_x86::defuse::for_each_write(&inst, &mut |l| {
            clobbers |= l == Loc::Gpr(Gpr::Rsp);
            written |= l == r_loc;
        });
        if clobbers {
            return None;
        }
    }
    None
}

/// Does straight-line code read `l` before it writes it?
fn read_before_written(code: &[(u64, Inst, usize)], l: Loc) -> bool {
    for (_, inst, _) in code {
        let (mut read, mut written) = (false, false);
        brew_x86::defuse::for_each_read(inst, &mut |x| read |= x == l);
        brew_x86::defuse::for_each_write(inst, &mut |x| written |= x == l);
        if read || written || inst.is_control() {
            return read;
        }
    }
    false
}

/// The constant a `mov`/`push` moves (into a register or a slot).
fn stored_const(inst: &Inst) -> Option<i64> {
    match inst {
        Inst::Mov {
            w: brew_x86::Width::W64,
            src: Operand::Imm(c),
            ..
        }
        | Inst::Push {
            src: Operand::Imm(c),
        } => Some(*c),
        _ => None,
    }
}

fn decode_list(img: &Image, entry: u64, code_len: usize) -> Option<Vec<(u64, Inst, usize)>> {
    let bytes = img.code_window(entry, code_len).ok()?;
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let addr = entry + off as u64;
        let d = decode(&bytes[off..], addr).ok()?;
        out.push((addr, d.inst, d.len));
        off += d.len;
    }
    Some(out)
}

fn is_boundary(insts: &[(u64, Inst, usize)], addr: u64) -> bool {
    insts.binary_search_by_key(&addr, |(a, _, _)| *a).is_ok()
}

fn read(img: &Image, addr: u64, len: usize) -> Option<Vec<u8>> {
    let mut v = vec![0u8; len];
    img.read_bytes(addr, &mut v).ok()?;
    Some(v)
}

fn patch(img: &Image, addr: u64, new: &[u8], kind: Mutation) -> Option<Applied> {
    let old = read(img, addr, new.len())?;
    if old == new {
        return None;
    }
    img.write_bytes(addr, new).ok()?;
    Some(Applied { kind, addr, old })
}

fn encode_same_len(inst: &Inst, addr: u64, len: usize) -> Option<Vec<u8>> {
    let mut v = Vec::new();
    let n = encode(inst, addr, &mut v).ok()?;
    (n == len).then_some(v)
}

#[derive(Clone, Copy, PartialEq)]
enum AbsSite {
    Load,
    Store,
}

/// Redirect the first absolute-addressed load/store to `target`.
fn retarget_abs(
    img: &Image,
    insts: &[(u64, Inst, usize)],
    kind: Mutation,
    site: AbsSite,
    target: u64,
) -> Option<Applied> {
    let disp = i32::try_from(target as i64).ok()?;
    insts.iter().find_map(|(addr, inst, len)| {
        let m = match site {
            AbsSite::Load => inst.mem_load(),
            AbsSite::Store => inst.mem_store(),
        }?;
        (m.base.is_none() && m.index.is_none()).then_some(())?;
        let replaced = replace_abs_mem(inst, site, MemRef { disp, ..m })?;
        let bytes = encode_same_len(&replaced, *addr, *len)?;
        patch(img, *addr, &bytes, kind)
    })
}

/// Rebuild `inst` with its absolute memory operand swapped for `m`.
/// Covers the operand shapes the emitter produces; other shapes are
/// simply unusable as mutation sites.
fn replace_abs_mem(inst: &Inst, site: AbsSite, m: MemRef) -> Option<Inst> {
    let mem = Operand::Mem(m);
    Some(match (site, *inst) {
        (
            AbsSite::Store,
            Inst::Mov {
                w,
                dst: Operand::Mem(_),
                src,
            },
        ) => Inst::Mov { w, dst: mem, src },
        (
            AbsSite::Store,
            Inst::Unary {
                op,
                w,
                dst: Operand::Mem(_),
            },
        ) => Inst::Unary { op, w, dst: mem },
        (
            AbsSite::Store,
            Inst::MovSd {
                dst: Operand::Mem(_),
                src,
            },
        ) => Inst::MovSd { dst: mem, src },
        (
            AbsSite::Store,
            Inst::Alu {
                op,
                w,
                dst: Operand::Mem(_),
                src,
            },
        ) if op.writes_dst() => Inst::Alu {
            op,
            w,
            dst: mem,
            src,
        },
        (
            AbsSite::Load,
            Inst::Mov {
                w,
                dst,
                src: Operand::Mem(_),
            },
        ) if !dst.is_mem() => Inst::Mov { w, dst, src: mem },
        (
            AbsSite::Load,
            Inst::MovSd {
                dst,
                src: Operand::Mem(_),
            },
        ) if !dst.is_mem() => Inst::MovSd { dst, src: mem },
        (
            AbsSite::Load,
            Inst::Sse {
                op,
                dst,
                src: Operand::Mem(_),
            },
        ) => Inst::Sse { op, dst, src: mem },
        (
            AbsSite::Load,
            Inst::Movsxd {
                dst,
                src: Operand::Mem(_),
            },
        ) => Inst::Movsxd { dst, src: mem },
        (
            AbsSite::Load,
            Inst::Movzx8 {
                w,
                dst,
                src: Operand::Mem(_),
            },
        ) => Inst::Movzx8 { w, dst, src: mem },
        _ => return None,
    })
}

/// A copy of `inst` with one large immediate corrupted by a multi-bit
/// flip (XOR with a 24-bit pattern, which keeps any i32 immediate in
/// range). A multi-bit flip rather than ±1 so the corrupted value cannot
/// masquerade as a nearby legitimate fold.
fn tweak_large_imm(inst: &Inst) -> Option<Inst> {
    const BIG: u64 = 65_536;
    const FLIP: i64 = 0x00A5_5A5A;
    let flip = |v: i64| -> Option<i64> { (v.unsigned_abs() >= BIG).then_some(v ^ FLIP) };
    Some(match *inst {
        Inst::MovAbs { dst, imm } => Inst::MovAbs {
            dst,
            imm: flip(imm as i64)? as u64,
        },
        Inst::Mov {
            w,
            dst,
            src: Operand::Imm(v),
        } => Inst::Mov {
            w,
            dst,
            src: Operand::Imm(flip(v)?),
        },
        Inst::Alu {
            op,
            w,
            dst,
            src: Operand::Imm(v),
        } => Inst::Alu {
            op,
            w,
            dst,
            src: Operand::Imm(flip(v)?),
        },
        Inst::ImulImm { w, dst, src, imm } => Inst::ImulImm {
            w,
            dst,
            src,
            imm: i32::try_from(flip(i64::from(imm))?).ok()?,
        },
        _ => return None,
    })
}
