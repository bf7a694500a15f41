//! Guarded specialization dispatch stubs (§III.D):
//!
//! *"it may be observed that a parameter to a function often is 42. In this
//! case, a specific variant can be generated which is called after a check
//! for the parameter actually being 42. Otherwise, the original function
//! should be executed."*
//!
//! A guard is a tiny stub with the same signature as the original: it
//! compares argument registers against profiled constants and tail-jumps
//! to a specialized variant or to the original function, so the caller can
//! use it as a drop-in replacement.
//!
//! Two shapes are emitted:
//!
//! - [`make_guard`]: the paper's two-way form — one parameter, one
//!   constant, one specialized variant (`cmp; je spec; jmp orig`).
//! - [`make_guard_chain`]: the generalized N-way form used by
//!   [`crate::manager::SpecializationManager::build_dispatcher`] — a chain
//!   of cases, each a *conjunction* of `(parameter, constant)` compares
//!   guarding one variant. A case whose compares all match tail-jumps to
//!   its variant; any mismatch falls to the next case; the last case falls
//!   through to the original function.
//!
//! Both shapes also come in *self-counting* variants
//! ([`make_guard_counting`], [`make_guard_chain_counting`]): the stub
//! additionally increments a per-case slot of a [`CounterPage`] in the
//! data segment (`inc qword [slot]`) on the path it takes, so runtime
//! hit / fall-through rates are observable and a
//! `brew_emu::ValueProfile`-style prediction can be validated against
//! reality. The increment sits *after* every compare of its case (or on
//! the fall-through path), immediately before the tail jump — the flags
//! it clobbers are dead at a SysV function boundary, so a counting stub
//! is behaviorally identical to its plain twin.

use crate::error::RewriteError;
use brew_image::{Image, MemFault};
use brew_x86::prelude::*;

/// The counter page of a self-counting dispatch stub: one 8-byte slot
/// per case plus a final fall-through slot, allocated in the image's
/// data segment (addresses below 2³¹, so the stub can address them with
/// an absolute disp32 — the same trick the specializer plays for known
/// data).
///
/// # Read-back tolerance (the memory-ordering contract)
///
/// The stub's `inc qword [slot]` carries no `lock` prefix — adding one
/// would put an atomic RMW on the hottest dispatch path to buy precision
/// nobody needs. Readers must therefore treat every slot as a *relaxed,
/// advisory* counter:
///
/// - Under concurrent callers an increment can be lost (plain
///   load-add-store races) and a multi-slot [`snapshot`](Self::snapshot)
///   is only per-slot consistent: slots are read one at a time while the
///   stub keeps running, so the cross-slot sum can disagree with the true
///   call count by the number of in-flight calls.
/// - A reader may also observe a slot mid-update ("torn" relative to its
///   neighbours) or just after a [`reset`](Self::reset) it did not issue.
///
/// Every consumer in this crate is delta-based and clamps:
/// [`delta_since`](Self::delta_since) saturates per slot at zero, so a
/// wrapped, reset or torn-low value yields a `0` delta — never a negative
/// (or absurdly large) heat contribution. The tiering layer additionally
/// decays scores every tick, so a lost or phantom increment washes out
/// instead of compounding. Tests `delta_since_saturates_instead_of_going_negative`
/// and the heat-wrap test in `tests/tiering.rs` pin this down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterPage {
    /// Address of slot 0.
    pub base: u64,
    /// Number of dispatch cases (slots `0..cases`); slot `cases` counts
    /// fall-throughs to the original.
    pub cases: usize,
}

impl CounterPage {
    /// Allocate a zeroed page for `cases` dispatch cases.
    ///
    /// The page carries two parallel banks of `cases + 1` slots each:
    /// the *count* bank at `base` (incremented by the stub itself) and a
    /// *cycle* bank right behind it (written host-side by
    /// [`telemetry::profile::DispatchProfiler`](crate::telemetry::DispatchProfiler),
    /// which attributes each call's measured model cycles to the case
    /// that took it — rdtsc-style entry/exit accounting folded into the
    /// same page so `tick()` can weigh *time* per variant, not just
    /// calls). The stub's emitted code never touches the cycle bank, so
    /// per-call guest overhead is unchanged (~5 model cycles).
    pub fn alloc(img: &Image, cases: usize) -> Self {
        CounterPage {
            base: img.alloc_data(16 * (cases as u64 + 1), 8),
            cases,
        }
    }

    /// Address of slot `i` (`i == cases` is the fall-through slot).
    pub fn slot_addr(&self, i: usize) -> u64 {
        self.base + 8 * i as u64
    }

    /// Times case `i` dispatched to its variant.
    pub fn case_hits(&self, img: &Image, i: usize) -> Result<u64, MemFault> {
        img.read_u64(self.slot_addr(i))
    }

    /// Times the chain fell through to the original function.
    pub fn fallthrough_hits(&self, img: &Image) -> Result<u64, MemFault> {
        img.read_u64(self.slot_addr(self.cases))
    }

    /// All slots in order: case hits, fall-through last.
    pub fn snapshot(&self, img: &Image) -> Result<Vec<u64>, MemFault> {
        (0..=self.cases).map(|i| self.case_hits(img, i)).collect()
    }

    /// Sum over every slot — equals the number of calls through the stub.
    pub fn total(&self, img: &Image) -> Result<u64, MemFault> {
        Ok(self.snapshot(img)?.iter().sum())
    }

    /// Zero every slot in both banks (counts and cycles).
    pub fn reset(&self, img: &Image) -> Result<(), MemFault> {
        for i in 0..=self.cases {
            img.write_u64(self.slot_addr(i), 0)?;
            img.write_u64(self.cycle_slot_addr(i), 0)?;
        }
        Ok(())
    }

    /// Snapshot the page and diff it against `prev` (a previous
    /// [`snapshot`](Self::snapshot), or zeros/empty for "since the
    /// beginning"): returns `(new snapshot, per-slot deltas)`.
    ///
    /// Deltas saturate at zero: a slot that wrapped, was reset, or was
    /// read torn below its previous value contributes `0`, never a
    /// negative — the guarantee the tiering heat scores build on (see the
    /// type-level docs on read-back tolerance). Slots missing from `prev`
    /// are treated as previously zero.
    pub fn delta_since(&self, img: &Image, prev: &[u64]) -> Result<(Vec<u64>, Vec<u64>), MemFault> {
        let snap = self.snapshot(img)?;
        let deltas = snap
            .iter()
            .enumerate()
            .map(|(i, &v)| v.saturating_sub(prev.get(i).copied().unwrap_or(0)))
            .collect();
        Ok((snap, deltas))
    }

    /// Address of cycle slot `i` (`i == cases` is the fall-through /
    /// original-time slot). The cycle bank sits directly behind the
    /// count bank.
    pub fn cycle_slot_addr(&self, i: usize) -> u64 {
        self.base + 8 * (self.cases as u64 + 1) + 8 * i as u64
    }

    /// Accumulated model cycles attributed to case `i`.
    pub fn case_cycles(&self, img: &Image, i: usize) -> Result<u64, MemFault> {
        img.read_u64(self.cycle_slot_addr(i))
    }

    /// Fold `cycles` into case `i`'s cycle slot (host-side
    /// read-modify-write; same relaxed/advisory contract as the count
    /// bank).
    pub fn add_cycles(&self, img: &Image, i: usize, cycles: u64) -> Result<(), MemFault> {
        let cur = img.read_u64(self.cycle_slot_addr(i))?;
        img.write_u64(self.cycle_slot_addr(i), cur.wrapping_add(cycles))
    }

    /// All cycle slots in order: per-case first, fall-through last.
    pub fn cycle_snapshot(&self, img: &Image) -> Result<Vec<u64>, MemFault> {
        (0..=self.cases).map(|i| self.case_cycles(img, i)).collect()
    }

    /// Snapshot the cycle bank and diff against `prev`, saturating per
    /// slot at zero exactly like [`delta_since`](Self::delta_since).
    pub fn cycle_delta_since(
        &self,
        img: &Image,
        prev: &[u64],
    ) -> Result<(Vec<u64>, Vec<u64>), MemFault> {
        let snap = self.cycle_snapshot(img)?;
        let deltas = snap
            .iter()
            .enumerate()
            .map(|(i, &v)| v.saturating_sub(prev.get(i).copied().unwrap_or(0)))
            .collect();
        Ok((snap, deltas))
    }
}

/// `inc qword [slot]` — the self-counting instrumentation instruction.
fn count_inst(slot: u64) -> Result<Inst, RewriteError> {
    let mem = MemRef::abs_u64(slot).ok_or_else(|| {
        RewriteError::BadConfig(format!("counter slot {slot:#x} beyond disp32 range"))
    })?;
    Ok(Inst::Unary {
        op: UnOp::Inc,
        w: Width::W64,
        dst: Operand::Mem(mem),
    })
}

/// One case of a dispatch chain: jump to `target` when every listed
/// integer argument register equals its expected value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardCase {
    /// Conjunction of `(0-based integer parameter index, expected value)`.
    pub conds: Vec<(usize, i64)>,
    /// Entry of the specialized variant guarded by the conditions.
    pub target: u64,
}

/// Emit a dispatch stub into the JIT segment. `param` is the 0-based
/// *integer* parameter index (SysV: rdi, rsi, rdx, rcx, r8, r9).
///
/// Returns the stub's entry address.
pub fn make_guard(
    img: &Image,
    param: usize,
    expected: i64,
    specialized: u64,
    original: u64,
) -> Result<u64, RewriteError> {
    // je specialized; jmp original — both tail jumps keep all argument
    // registers and the return address intact.
    let mut insts = compare_and_jump(param, expected, Cond::E, specialized)?;
    insts.push(Inst::JmpRel { target: original });

    let total: usize = insts.iter().map(|i| encoded_len(i).unwrap_or(16)).sum();
    let base = img
        .try_alloc_jit(total as u64)
        .ok_or(RewriteError::OutOfCodeSpace)?;
    let mut bytes = Vec::with_capacity(total);
    for i in &insts {
        let addr = base + bytes.len() as u64;
        encode(i, addr, &mut bytes)?;
    }
    img.write_bytes(base, &bytes)
        .map_err(|_| RewriteError::OutOfCodeSpace)?;
    Ok(base)
}

/// `cmp` integer parameter `param` with `expected`, then `j<cond> target`.
fn compare_and_jump(
    param: usize,
    expected: i64,
    cond: Cond,
    target: u64,
) -> Result<Vec<Inst>, RewriteError> {
    if param >= Gpr::SYSV_ARGS.len() {
        return Err(RewriteError::BadConfig(format!(
            "guard parameter index {param} out of ABI range"
        )));
    }
    let reg = Gpr::SYSV_ARGS[param];
    let mut insts = Vec::new();
    if expected == (expected as i32) as i64 {
        insts.push(Inst::Alu {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Operand::Reg(reg),
            src: Operand::Imm(expected),
        });
    } else {
        // r11 is caller-saved and never an argument register: safe scratch.
        insts.push(Inst::MovAbs {
            dst: Gpr::R11,
            imm: expected as u64,
        });
        insts.push(Inst::Alu {
            op: AluOp::Cmp,
            w: Width::W64,
            dst: Operand::Reg(reg),
            src: Operand::Reg(Gpr::R11),
        });
    }
    insts.push(Inst::Jcc { cond, target });
    Ok(insts)
}

/// Emit an N-way dispatch chain into the JIT segment. Cases are tested in
/// order; the fall-through is a tail jump to `original`. An empty case
/// list degenerates to a plain trampoline onto the original.
///
/// Returns the chain's entry address.
pub fn make_guard_chain(
    img: &Image,
    cases: &[GuardCase],
    original: u64,
) -> Result<u64, RewriteError> {
    chain_impl(img, cases, original, None)
}

/// [`make_guard_chain`] with self-counting instrumentation: allocates a
/// [`CounterPage`] and emits an `inc qword [slot]` on every dispatch
/// path (after the case's compares, before its tail jump), so each
/// call through the stub bumps exactly one slot. Dispatch behavior is
/// bit-identical to the plain chain.
///
/// Returns `(entry address, counter page)`.
pub fn make_guard_chain_counting(
    img: &Image,
    cases: &[GuardCase],
    original: u64,
) -> Result<(u64, CounterPage), RewriteError> {
    let page = CounterPage::alloc(img, cases.len());
    let entry = chain_impl(img, cases, original, Some(&page))?;
    Ok((entry, page))
}

/// [`make_guard`] with self-counting instrumentation: slot 0 counts
/// dispatches to the specialized variant, slot 1 (the fall-through
/// slot) counts calls routed to the original.
pub fn make_guard_counting(
    img: &Image,
    param: usize,
    expected: i64,
    specialized: u64,
    original: u64,
) -> Result<(u64, CounterPage), RewriteError> {
    make_guard_chain_counting(
        img,
        &[GuardCase {
            conds: vec![(param, expected)],
            target: specialized,
        }],
        original,
    )
}

fn chain_impl(
    img: &Image,
    cases: &[GuardCase],
    original: u64,
    counters: Option<&CounterPage>,
) -> Result<u64, RewriteError> {
    // Pass one: build every case's instructions with placeholder targets
    // and compute case start offsets from the (target-independent) lengths.
    let mut case_insts: Vec<Vec<Inst>> = Vec::with_capacity(cases.len());
    let mut case_off: Vec<usize> = Vec::with_capacity(cases.len() + 1);
    let mut off = 0usize;
    for (ci, case) in cases.iter().enumerate() {
        if case.conds.is_empty() {
            return Err(RewriteError::BadConfig(
                "dispatch case with no conditions would shadow every later \
                 case and the original"
                    .into(),
            ));
        }
        let mut insts = Vec::new();
        for &(param, expected) in &case.conds {
            // Placeholder target: `jne` to the next case, patched in pass
            // two. Jcc/JmpRel always encode a rel32, so lengths don't
            // depend on it.
            insts.extend(compare_and_jump(param, expected, Cond::Ne, 0)?);
        }
        if let Some(page) = counters {
            // Every compare of the case has passed; flags are dead at the
            // tail jump to a function entry, so the `inc` is invisible.
            insts.push(count_inst(page.slot_addr(ci))?);
        }
        insts.push(Inst::JmpRel {
            target: case.target,
        });
        case_off.push(off);
        off += insts
            .iter()
            .map(|i| encoded_len(i).unwrap_or(16))
            .sum::<usize>();
        case_insts.push(insts);
    }
    case_off.push(off); // fall-through label
    let mut tail = Vec::new();
    if let Some(page) = counters {
        tail.push(count_inst(page.slot_addr(cases.len()))?);
    }
    tail.push(Inst::JmpRel { target: original });
    let total = off
        + tail
            .iter()
            .map(|i| encoded_len(i).unwrap_or(16))
            .sum::<usize>();
    let base = img
        .try_alloc_jit(total as u64)
        .ok_or(RewriteError::OutOfCodeSpace)?;

    // Pass two: patch every `jne` to its case's next-case address and
    // encode at final addresses.
    let mut bytes = Vec::with_capacity(total);
    for (ci, mut insts) in case_insts.into_iter().enumerate() {
        let next_case = base + case_off[ci + 1] as u64;
        for inst in &mut insts {
            if let Inst::Jcc {
                cond: Cond::Ne,
                target,
            } = inst
            {
                *target = next_case;
            }
        }
        for inst in &insts {
            let addr = base + bytes.len() as u64;
            encode(inst, addr, &mut bytes)?;
        }
    }
    for inst in &tail {
        let addr = base + bytes.len() as u64;
        encode(inst, addr, &mut bytes)?;
    }
    debug_assert_eq!(bytes.len(), total);

    img.write_bytes(base, &bytes)
        .map_err(|_| RewriteError::OutOfCodeSpace)?;
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_shape_small_imm() {
        let img = Image::new();
        let g = make_guard(&img, 0, 42, 0x90_0100, 0x40_0000).unwrap();
        let win = img.code_window(g, 64).unwrap();
        let (insts, _) = decode_all(&win, g);
        assert!(matches!(
            insts[0].1,
            Inst::Alu {
                op: AluOp::Cmp,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Imm(42),
                ..
            }
        ));
        assert_eq!(
            insts[1].1,
            Inst::Jcc {
                cond: Cond::E,
                target: 0x90_0100
            }
        );
        assert_eq!(insts[2].1, Inst::JmpRel { target: 0x40_0000 });
    }

    #[test]
    fn guard_large_constant_uses_r11() {
        let img = Image::new();
        let v = 0x1234_5678_9ABCi64;
        let g = make_guard(&img, 2, v, 0x90_0100, 0x40_0000).unwrap();
        let win = img.code_window(g, 64).unwrap();
        let (insts, _) = decode_all(&win, g);
        assert_eq!(
            insts[0].1,
            Inst::MovAbs {
                dst: Gpr::R11,
                imm: v as u64
            }
        );
        assert!(matches!(
            insts[1].1,
            Inst::Alu {
                op: AluOp::Cmp,
                dst: Operand::Reg(Gpr::Rdx),
                src: Operand::Reg(Gpr::R11),
                ..
            }
        ));
    }

    #[test]
    fn bad_param_index() {
        let img = Image::new();
        assert!(matches!(
            make_guard(&img, 6, 1, 0, 0),
            Err(RewriteError::BadConfig(_))
        ));
        assert!(matches!(
            make_guard_chain(
                &img,
                &[GuardCase {
                    conds: vec![(6, 1)],
                    target: 0x90_0100
                }],
                0x40_0000
            ),
            Err(RewriteError::BadConfig(_))
        ));
    }

    #[test]
    fn chain_shape_three_cases() {
        let img = Image::new();
        let cases = [
            GuardCase {
                conds: vec![(0, 4)],
                target: 0x90_1000,
            },
            GuardCase {
                conds: vec![(0, 9)],
                target: 0x90_2000,
            },
            GuardCase {
                conds: vec![(0, 16), (1, 7)],
                target: 0x90_3000,
            },
        ];
        let g = make_guard_chain(&img, &cases, 0x40_0000).unwrap();
        let win = img.code_window(g, 256).unwrap();
        let (insts, _) = decode_all(&win, g);

        // cmp rdi,4; jne C1; jmp v0; C1: cmp rdi,9; jne C2; jmp v1;
        // C2: cmp rdi,16; jne F; cmp rsi,7; jne F; jmp v2; F: jmp orig
        assert!(matches!(
            insts[0].1,
            Inst::Alu {
                op: AluOp::Cmp,
                dst: Operand::Reg(Gpr::Rdi),
                src: Operand::Imm(4),
                ..
            }
        ));
        let c1 = insts[3].0;
        assert_eq!(
            insts[1].1,
            Inst::Jcc {
                cond: Cond::Ne,
                target: c1
            }
        );
        assert_eq!(insts[2].1, Inst::JmpRel { target: 0x90_1000 });
        let c2 = insts[6].0;
        assert_eq!(
            insts[4].1,
            Inst::Jcc {
                cond: Cond::Ne,
                target: c2
            }
        );
        assert_eq!(insts[5].1, Inst::JmpRel { target: 0x90_2000 });
        // Both conjunction compares bail to the same fall-through label.
        let fall = insts[11].0;
        assert_eq!(
            insts[7].1,
            Inst::Jcc {
                cond: Cond::Ne,
                target: fall
            }
        );
        assert!(matches!(
            insts[8].1,
            Inst::Alu {
                op: AluOp::Cmp,
                dst: Operand::Reg(Gpr::Rsi),
                src: Operand::Imm(7),
                ..
            }
        ));
        assert_eq!(
            insts[9].1,
            Inst::Jcc {
                cond: Cond::Ne,
                target: fall
            }
        );
        assert_eq!(insts[10].1, Inst::JmpRel { target: 0x90_3000 });
        assert_eq!(insts[11].1, Inst::JmpRel { target: 0x40_0000 });
    }

    #[test]
    fn counting_chain_increments_before_every_tail_jump() {
        let img = Image::new();
        let cases = [
            GuardCase {
                conds: vec![(0, 4)],
                target: 0x90_1000,
            },
            GuardCase {
                conds: vec![(0, 9)],
                target: 0x90_2000,
            },
        ];
        let (g, page) = make_guard_chain_counting(&img, &cases, 0x40_0000).unwrap();
        assert_eq!(page.cases, 2);
        let win = img.code_window(g, 256).unwrap();
        let (insts, _) = decode_all(&win, g);

        // cmp; jne; inc [slot0]; jmp v0; cmp; jne; inc [slot1]; jmp v1;
        // inc [slot2]; jmp orig
        assert!(insts.len() >= 10);
        let inc_at = |i: usize, slot: usize| {
            let Inst::Unary {
                op: UnOp::Inc,
                w: Width::W64,
                dst: Operand::Mem(m),
            } = insts[i].1
            else {
                panic!("expected inc at {i}, got {:?}", insts[i].1)
            };
            assert_eq!(m, MemRef::abs_u64(page.slot_addr(slot)).unwrap());
        };
        inc_at(2, 0);
        assert_eq!(insts[3].1, Inst::JmpRel { target: 0x90_1000 });
        inc_at(6, 1);
        assert_eq!(insts[7].1, Inst::JmpRel { target: 0x90_2000 });
        inc_at(8, 2);
        assert_eq!(insts[9].1, Inst::JmpRel { target: 0x40_0000 });

        // `jne` targets land on the next case's first compare, past the inc.
        assert_eq!(
            insts[1].1,
            Inst::Jcc {
                cond: Cond::Ne,
                target: insts[4].0
            }
        );
        assert_eq!(
            insts[5].1,
            Inst::Jcc {
                cond: Cond::Ne,
                target: insts[8].0
            }
        );
    }

    #[test]
    fn counter_page_starts_zeroed_and_resets() {
        let img = Image::new();
        let (_, page) = make_guard_counting(&img, 0, 7, 0x90_0100, 0x40_0000).unwrap();
        assert_eq!(page.snapshot(&img).unwrap(), vec![0, 0]);
        img.write_u64(page.slot_addr(0), 5).unwrap();
        img.write_u64(page.slot_addr(1), 2).unwrap();
        assert_eq!(page.case_hits(&img, 0).unwrap(), 5);
        assert_eq!(page.fallthrough_hits(&img).unwrap(), 2);
        assert_eq!(page.total(&img).unwrap(), 7);
        page.reset(&img).unwrap();
        assert_eq!(page.total(&img).unwrap(), 0);
    }

    #[test]
    fn delta_since_tracks_increments() {
        let img = Image::new();
        let (_, page) = make_guard_counting(&img, 0, 7, 0x90_0100, 0x40_0000).unwrap();
        let (snap, deltas) = page.delta_since(&img, &[]).unwrap();
        assert_eq!(snap, vec![0, 0]);
        assert_eq!(deltas, vec![0, 0]);
        img.write_u64(page.slot_addr(0), 5).unwrap();
        img.write_u64(page.slot_addr(1), 3).unwrap();
        let (snap2, deltas2) = page.delta_since(&img, &snap).unwrap();
        assert_eq!(deltas2, vec![5, 3]);
        img.write_u64(page.slot_addr(0), 9).unwrap();
        let (_, deltas3) = page.delta_since(&img, &snap2).unwrap();
        assert_eq!(deltas3, vec![4, 0]);
    }

    #[test]
    fn delta_since_saturates_instead_of_going_negative() {
        let img = Image::new();
        let (_, page) = make_guard_counting(&img, 0, 7, 0x90_0100, 0x40_0000).unwrap();
        // A slot observed near wrap-around...
        img.write_u64(page.slot_addr(0), u64::MAX).unwrap();
        let (snap, deltas) = page.delta_since(&img, &[0, 0]).unwrap();
        assert_eq!(deltas[0], u64::MAX);
        // ...then wrapped (or reset by someone else): the delta clamps to
        // zero instead of underflowing into a giant bogus count.
        img.write_u64(page.slot_addr(0), 2).unwrap();
        let (_, deltas2) = page.delta_since(&img, &snap).unwrap();
        assert_eq!(deltas2, vec![0, 0]);
        // A `prev` shorter than the page reads as zeros, never a panic.
        let (_, deltas3) = page.delta_since(&img, &[1]).unwrap();
        assert_eq!(deltas3, vec![1, 0]);
    }

    #[test]
    fn cycle_bank_sits_behind_count_bank() {
        let img = Image::new();
        let page = CounterPage::alloc(&img, 2);
        // Count slots 0..=2, then cycle slots 0..=2 directly behind.
        assert_eq!(page.cycle_slot_addr(0), page.slot_addr(2) + 8);
        assert_eq!(page.cycle_slot_addr(2), page.base + 8 * 3 + 8 * 2);
        page.add_cycles(&img, 0, 120).unwrap();
        page.add_cycles(&img, 0, 30).unwrap();
        page.add_cycles(&img, 2, 7).unwrap();
        assert_eq!(page.case_cycles(&img, 0).unwrap(), 150);
        assert_eq!(page.cycle_snapshot(&img).unwrap(), vec![150, 0, 7]);
        // Cycle writes never alias the count bank.
        assert_eq!(page.snapshot(&img).unwrap(), vec![0, 0, 0]);
        page.reset(&img).unwrap();
        assert_eq!(page.cycle_snapshot(&img).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn cycle_delta_saturates_like_counts() {
        let img = Image::new();
        let page = CounterPage::alloc(&img, 1);
        page.add_cycles(&img, 0, 40).unwrap();
        let (snap, deltas) = page.cycle_delta_since(&img, &[]).unwrap();
        assert_eq!(deltas, vec![40, 0]);
        page.add_cycles(&img, 1, 9).unwrap();
        let (snap2, deltas2) = page.cycle_delta_since(&img, &snap).unwrap();
        assert_eq!(deltas2, vec![0, 9]);
        // Reset under the reader's feet clamps to zero, never underflows.
        page.reset(&img).unwrap();
        let (_, deltas3) = page.cycle_delta_since(&img, &snap2).unwrap();
        assert_eq!(deltas3, vec![0, 0]);
    }

    #[test]
    fn empty_chain_is_a_trampoline() {
        let img = Image::new();
        let g = make_guard_chain(&img, &[], 0x40_0000).unwrap();
        let win = img.code_window(g, 16).unwrap();
        let (insts, _) = decode_all(&win, g);
        assert_eq!(insts[0].1, Inst::JmpRel { target: 0x40_0000 });
    }

    #[test]
    fn unconditional_case_is_rejected() {
        let img = Image::new();
        assert!(matches!(
            make_guard_chain(
                &img,
                &[GuardCase {
                    conds: vec![],
                    target: 0x90_1000
                }],
                0x40_0000
            ),
            Err(RewriteError::BadConfig(_))
        ));
    }
}
