//! The emulator's cycle cost model.
//!
//! The paper evaluates on an Intel i7-3740QM and reports wall-clock seconds;
//! our substrate is an interpreter, so we substitute a documented in-order
//! additive cost model (see DESIGN.md §5). Absolute cycle counts are not
//! comparable to the paper's seconds — only *ratios* between variants are,
//! and those are what EXPERIMENTS.md reports.

use brew_x86::prelude::*;

/// Per-class cycle costs. All fields are public so ablation benches can
/// perturb the model and check that the paper's qualitative conclusions are
/// not artifacts of one parameter choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Simple integer ALU op / register move / lea / setcc.
    pub alu: u64,
    /// Extra cycles for an instruction that loads from memory.
    pub load_extra: u64,
    /// Extra cycles for an instruction that stores to memory.
    pub store_extra: u64,
    /// Integer multiply.
    pub imul: u64,
    /// Integer divide.
    pub idiv: u64,
    /// Scalar or packed SSE add/sub/mul (packed does two lanes for the same
    /// cost — the vectorization win).
    pub sse: u64,
    /// SSE divide.
    pub sse_div: u64,
    /// int<->double conversion.
    pub cvt: u64,
    /// Taken branch (direct jump, taken jcc).
    pub branch_taken: u64,
    /// Not-taken conditional branch.
    pub branch_not_taken: u64,
    /// Call instruction (the ABI overhead the rewriter's inlining removes).
    pub call: u64,
    /// Return instruction.
    pub ret: u64,
    /// Push or pop.
    pub push_pop: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            load_extra: 3,
            store_extra: 1,
            imul: 3,
            idiv: 20,
            sse: 4,
            sse_div: 20,
            cvt: 4,
            branch_taken: 2,
            branch_not_taken: 1,
            call: 6,
            ret: 4,
            push_pop: 2,
        }
    }
}

impl CostModel {
    /// Cycles charged for one executed instruction. `taken` matters only
    /// for conditional branches.
    pub fn cost(&self, inst: &Inst, taken: bool) -> u64 {
        let (loads, stores) = (inst.mem_load().is_some(), inst.mem_store().is_some());
        self.cost_of(inst, taken, loads, stores)
    }

    /// [`CostModel::cost`] for a caller that already knows whether `inst`
    /// loads and stores (the emulator's decode cache does).
    pub(crate) fn cost_of(&self, inst: &Inst, taken: bool, loads: bool, stores: bool) -> u64 {
        let base = match inst {
            Inst::Mov { .. }
            | Inst::MovAbs { .. }
            | Inst::Movsxd { .. }
            | Inst::Movzx8 { .. }
            | Inst::Lea { .. }
            | Inst::Alu { .. }
            | Inst::Test { .. }
            | Inst::Unary { .. }
            | Inst::Shift { .. }
            | Inst::Setcc { .. }
            | Inst::Cqo { .. }
            | Inst::Nop => self.alu,
            Inst::Imul { .. } | Inst::ImulImm { .. } => self.imul,
            Inst::Idiv { .. } => self.idiv,
            Inst::Push { .. } | Inst::Pop { .. } => self.push_pop,
            Inst::CallRel { .. } | Inst::CallInd { .. } => self.call,
            Inst::Ret => self.ret,
            Inst::JmpRel { .. } | Inst::JmpInd { .. } => self.branch_taken,
            Inst::Jcc { .. } => {
                if taken {
                    self.branch_taken
                } else {
                    self.branch_not_taken
                }
            }
            Inst::MovSd { .. } | Inst::MovUpd { .. } => self.alu,
            Inst::Sse { op, .. } => match op {
                SseOp::Divsd | SseOp::Divpd => self.sse_div,
                SseOp::Xorpd | SseOp::Unpcklpd => self.alu,
                _ => self.sse,
            },
            Inst::Ucomisd { .. } => self.sse,
            Inst::Cvtsi2sd { .. } | Inst::Cvttsd2si { .. } => self.cvt,
            Inst::Ud2 => 0,
        };
        base + if loads { self.load_extra } else { 0 } + if stores { self.store_extra } else { 0 }
    }
}

/// Execution statistics accumulated by the emulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Instructions retired.
    pub insts: u64,
    /// Model cycles.
    pub cycles: u64,
    /// Instructions that loaded from memory.
    pub loads: u64,
    /// Instructions that stored to memory.
    pub stores: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches taken.
    pub taken: u64,
    /// Calls executed (direct + indirect).
    pub calls: u64,
    /// Returns executed.
    pub rets: u64,
    /// Floating-point arithmetic instructions.
    pub fp_ops: u64,
    /// Integer multiplies.
    pub imuls: u64,
}

impl Stats {
    /// Record one executed instruction.
    pub fn record(&mut self, inst: &Inst, taken: bool, cycles: u64) {
        let (loads, stores) = (inst.mem_load().is_some(), inst.mem_store().is_some());
        self.record_of(inst, taken, cycles, loads, stores);
    }

    /// [`Stats::record`] for a caller that already knows whether `inst`
    /// loads and stores.
    pub(crate) fn record_of(
        &mut self,
        inst: &Inst,
        taken: bool,
        cycles: u64,
        loads: bool,
        stores: bool,
    ) {
        self.insts += 1;
        self.cycles += cycles;
        self.loads += loads as u64;
        self.stores += stores as u64;
        match inst {
            Inst::Jcc { .. } => {
                self.branches += 1;
                if taken {
                    self.taken += 1;
                }
            }
            Inst::CallRel { .. } | Inst::CallInd { .. } => self.calls += 1,
            Inst::Ret => self.rets += 1,
            Inst::Sse { op, .. } if !matches!(op, SseOp::Xorpd | SseOp::Unpcklpd) => {
                self.fp_ops += 1
            }
            Inst::Imul { .. } | Inst::ImulImm { .. } => self.imuls += 1,
            _ => {}
        }
    }

    /// Merge another statistics block into this one.
    pub fn merge(&mut self, o: &Stats) {
        self.insts += o.insts;
        self.cycles += o.cycles;
        self.loads += o.loads;
        self.stores += o.stores;
        self.branches += o.branches;
        self.taken += o.taken;
        self.calls += o.calls;
        self.rets += o.rets;
        self.fp_ops += o.fp_ops;
        self.imuls += o.imuls;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brew_x86::operand::MemRef;

    #[test]
    fn load_costs_more_than_reg_op() {
        let m = CostModel::default();
        let reg = Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: Gpr::Rbx.into(),
        };
        let mem = Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: MemRef::base(Gpr::Rdi).into(),
        };
        assert!(m.cost(&mem, false) > m.cost(&reg, false));
    }

    #[test]
    fn call_is_expensive() {
        let m = CostModel::default();
        assert!(m.cost(&Inst::CallRel { target: 0 }, false) >= 6);
    }

    #[test]
    fn packed_same_cost_as_scalar() {
        let m = CostModel::default();
        let s = Inst::Sse {
            op: SseOp::Mulsd,
            dst: Xmm::Xmm0,
            src: Xmm::Xmm1.into(),
        };
        let p = Inst::Sse {
            op: SseOp::Mulpd,
            dst: Xmm::Xmm0,
            src: Xmm::Xmm1.into(),
        };
        assert_eq!(m.cost(&s, false), m.cost(&p, false));
    }

    #[test]
    fn taken_branch_costs_more() {
        let m = CostModel::default();
        let j = Inst::Jcc {
            cond: Cond::E,
            target: 0,
        };
        assert!(m.cost(&j, true) > m.cost(&j, false));
    }

    #[test]
    fn stats_record_and_merge() {
        let m = CostModel::default();
        let mut s = Stats::default();
        let j = Inst::Jcc {
            cond: Cond::E,
            target: 0,
        };
        s.record(&j, true, m.cost(&j, true));
        s.record(&j, false, m.cost(&j, false));
        assert_eq!(s.branches, 2);
        assert_eq!(s.taken, 1);
        assert_eq!(s.insts, 2);

        let mut t = Stats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.branches, 4);
        assert_eq!(t.cycles, 2 * s.cycles);
    }
}
