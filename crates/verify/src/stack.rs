//! R3: abstract RSP-offset analysis. Every path from the variant entry
//! must reach `ret` (or a tail escape) with the stack pointer exactly
//! where it started, and RSP may only move by `push`/`pop`/`sub`/`add`
//! with immediate operands — anything else is unanalyzable and rejected.

use crate::{Finding, Region, Rule, Severity, VerifyReport};
use brew_x86::{defuse, AluOp, Gpr, Inst, MemRef, Operand, Width};

/// The RSP displacement of a frame-adjusting `lea rsp, [rsp+disp]`, the
/// emitter's preferred frame idiom (it leaves flags untouched).
fn lea_rsp_disp(inst: &Inst) -> Option<i64> {
    match inst {
        Inst::Lea {
            dst: Gpr::Rsp,
            src:
                MemRef {
                    base: Some(Gpr::Rsp),
                    index: None,
                    disp,
                },
        } => Some(i64::from(*disp)),
        _ => None,
    }
}

pub(crate) fn check_stack(region: &Region, report: &mut VerifyReport) {
    let mut err = |addr, detail: String| {
        report.findings.push(Finding {
            rule: Rule::StackDiscipline,
            severity: Severity::Error,
            addr,
            detail,
        })
    };
    // Depth (bytes RSP sits *below* its entry value) at each instruction
    // boundary reached so far, by position in `region.insts` (one slot past
    // the end for the fall-through address of the last instruction). A
    // worklist walk: conflicting depths at a join mean some path
    // mis-balances. Fall-through is the next position; only a branch
    // target costs a search.
    const UNSEEN: i64 = i64::MIN;
    let mut depth = vec![UNSEEN; region.insts.len() + 1];
    // Mid-instruction targets are already R2 errors and are not walked;
    // their depths are kept only so a second, conflicting arrival reads as
    // it always has.
    let mut stray: Vec<(u64, i64)> = Vec::new();
    let locate = |target: u64| region.position(target).ok_or(target);
    let mut work: Vec<(Result<usize, u64>, i64)> = Vec::with_capacity(16);
    work.push((locate(region.entry), 0));
    while let Some((at, d)) = work.pop() {
        let (addr, slot) = match at {
            Ok(i) => (
                region.insts.get(i).map_or(region.end, |(a, _, _)| *a),
                &mut depth[i],
            ),
            Err(addr) => {
                let known = stray.iter().position(|(a, _)| *a == addr);
                let k = known.unwrap_or_else(|| {
                    stray.push((addr, UNSEEN));
                    stray.len() - 1
                });
                (addr, &mut stray[k].1)
            }
        };
        let seen = *slot;
        if seen != UNSEEN {
            if seen != d {
                err(
                    addr,
                    format!("conflicting stack depths at join ({seen} vs {d} bytes)"),
                );
            }
            continue;
        }
        *slot = d;
        let Some((_, inst, _)) = at.ok().and_then(|i| region.insts.get(i)) else {
            continue;
        };
        let next = at.map(|i| i + 1);
        match inst {
            Inst::Push { .. } => work.push((next, d + 8)),
            // `pop rsp` loads the stack pointer: the other arm.
            Inst::Pop { dst } if *dst != Operand::Reg(Gpr::Rsp) => {
                if d < 8 {
                    err(addr, "pop below the caller's stack frame".into());
                }
                work.push((next, d - 8));
            }
            // A 32-bit write zero-extends rsp: the other arm.
            Inst::Alu {
                op: op @ (AluOp::Add | AluOp::Sub),
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rsp),
                src: Operand::Imm(imm),
                ..
            } => {
                let d2 = if *op == AluOp::Sub { d + imm } else { d - imm };
                if d2 < 0 {
                    err(
                        addr,
                        "stack pointer adjusted above the caller's frame".into(),
                    );
                }
                work.push((next, d2));
            }
            _ if lea_rsp_disp(inst).is_some() => {
                // `lea rsp, [rsp+disp]`: rsp += disp, so depth -= disp.
                let d2 = d - lea_rsp_disp(inst).unwrap_or(0);
                if d2 < 0 {
                    err(
                        addr,
                        "stack pointer adjusted above the caller's frame".into(),
                    );
                }
                work.push((next, d2));
            }
            Inst::Ret => {
                if d != 0 {
                    err(addr, format!("ret with {d} bytes still on the stack"));
                }
            }
            Inst::JmpRel { target } => {
                if region.contains(*target) {
                    work.push((locate(*target), d));
                } else if d != 0 {
                    err(
                        addr,
                        format!("tail escape to {target:#x} with {d} bytes still on the stack"),
                    );
                }
            }
            Inst::Jcc { target, .. } => {
                if region.contains(*target) {
                    work.push((locate(*target), d));
                } else if d != 0 {
                    err(
                        addr,
                        format!(
                            "conditional escape to {target:#x} with {d} bytes still on the stack"
                        ),
                    );
                }
                work.push((next, d));
            }
            // Calls are depth-neutral: the pushed return address is
            // consumed by the callee's `ret`.
            Inst::CallRel { .. } => work.push((next, d)),
            // Indirect transfers are R2 errors; nothing sound to follow.
            Inst::CallInd { .. } | Inst::JmpInd { .. } | Inst::Ud2 => {}
            _ => {
                let mut touches_rsp = false;
                defuse::for_each_write(inst, &mut |loc| {
                    if loc == defuse::Loc::Gpr(Gpr::Rsp) {
                        touches_rsp = true;
                    }
                });
                if touches_rsp {
                    err(
                        addr,
                        format!("`{inst}` modifies RSP in a way the verifier cannot model"),
                    );
                }
                work.push((next, d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The findings of `check_stack` over straight-line `insts`.
    fn findings(insts: &[Inst]) -> Vec<Finding> {
        let at = |k: usize| 0x1000 + 4 * k as u64;
        let region = Region {
            entry: at(0),
            end: at(insts.len()),
            insts: (insts.iter().enumerate())
                .map(|(k, i)| (at(k), *i, 4))
                .collect(),
        };
        let mut report = VerifyReport::default();
        check_stack(&region, &mut report);
        report.findings
    }

    fn unmodeled(insts: &[Inst]) -> bool {
        findings(insts).iter().any(|f| {
            f.rule == Rule::StackDiscipline
                && f.detail
                    .contains("modifies RSP in a way the verifier cannot model")
        })
    }

    fn rsp_imm(op: AluOp, w: Width) -> Inst {
        Inst::Alu {
            op,
            w,
            dst: Operand::Reg(Gpr::Rsp),
            src: Operand::Imm(8),
        }
    }

    #[test]
    fn a_32_bit_rsp_adjustment_is_not_modeled() {
        let balanced = [
            rsp_imm(AluOp::Sub, Width::W64),
            rsp_imm(AluOp::Add, Width::W64),
        ];
        assert!(findings(&[balanced[0], balanced[1], Inst::Ret]).is_empty());
        // `sub esp, 8` zero-extends: rsp loses its upper half.
        let narrow = [rsp_imm(AluOp::Sub, Width::W32), balanced[1], Inst::Ret];
        assert!(unmodeled(&narrow), "{:?}", findings(&narrow));
    }

    #[test]
    fn pop_rsp_is_not_modeled() {
        let rax = Operand::Reg(Gpr::Rax);
        let paired = [Inst::Push { src: rax }, Inst::Pop { dst: rax }, Inst::Ret];
        assert!(findings(&paired).is_empty());
        // `pop rsp` loads rsp from the slot instead of moving it by 8.
        let pop_rsp = Operand::Reg(Gpr::Rsp);
        let loaded = [
            Inst::Push { src: rax },
            Inst::Pop { dst: pop_rsp },
            Inst::Ret,
        ];
        assert!(unmodeled(&loaded), "{:?}", findings(&loaded));
    }
}
