//! Captured (rewritten) code: decoded instructions grouped in blocks with
//! explicit terminators, kept in this form through the optimization passes
//! until final layout and emission (§III.G: "Captured instructions are kept
//! in decoded form").

use brew_x86::cond::Cond;
use brew_x86::inst::Inst;

/// Index of a captured block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub usize);

/// How a captured block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional transfer to another captured block.
    Jmp(BlockId),
    /// Conditional transfer.
    Jcc {
        /// Branch condition.
        cond: Cond,
        /// Block on condition true.
        taken: BlockId,
        /// Block on condition false.
        fall: BlockId,
    },
    /// Return from the rewritten function.
    Ret,
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (a, b) = match self {
            Terminator::Jmp(t) => (Some(*t), None),
            Terminator::Jcc { taken, fall, .. } => (Some(*taken), Some(*fall)),
            Terminator::Ret => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// One captured instruction with the frame-offset metadata the passes'
/// frame-slot liveness needs (rsp-relative operands in different blocks
/// have different RSP bases, so offsets are recorded in entry-RSP terms
/// here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapturedInst {
    /// The rewritten instruction.
    pub inst: Inst,
    /// Entry-RSP-relative offset this instruction stores to, if it stores
    /// to a tracked frame slot.
    pub frame_store: Option<i64>,
    /// Entry-RSP-relative offset this instruction loads from, if it loads
    /// from a tracked frame slot.
    pub frame_load: Option<i64>,
}

impl CapturedInst {
    /// Plain instruction without frame metadata.
    pub fn plain(inst: Inst) -> Self {
        CapturedInst {
            inst,
            frame_store: None,
            frame_load: None,
        }
    }
}

/// A captured basic block.
#[derive(Debug, Clone)]
pub struct CapturedBlock {
    /// Guest address this block was traced from (0 for synthetic
    /// compensation blocks).
    pub guest_addr: u64,
    /// Body (terminator excluded).
    pub insts: Vec<CapturedInst>,
    /// Terminator.
    pub term: Terminator,
    /// Did the block's trace consume branch flags before writing any?
    /// Migration edges may only enter blocks where this is `false`.
    pub reads_flags_on_entry: bool,
    /// `true` once the block has been traced (blocks are created when
    /// enqueued).
    pub traced: bool,
    /// Some path enters this block via migration compensation with
    /// architecturally untrusted flags.
    pub entered_untrusted: bool,
    /// The rewritten function starts here: the one block whose entry state
    /// (`rsp` at the return address, nothing else known) is given rather
    /// than joined from predecessors.
    pub is_entry: bool,
}

impl CapturedBlock {
    /// Fresh (pending) block for `guest_addr`.
    pub fn pending(guest_addr: u64) -> Self {
        CapturedBlock {
            guest_addr,
            insts: Vec::new(),
            term: Terminator::Ret,
            reads_flags_on_entry: false,
            traced: false,
            entered_untrusted: false,
            is_entry: false,
        }
    }
}

/// The blocks reachable from `entry`, in reverse postorder: every block
/// after all its predecessors, but for the edges that close a loop.
pub fn reverse_postorder(blocks: &[CapturedBlock], entry: usize) -> Vec<usize> {
    let n = blocks.len();
    let succs = |b: usize| {
        let it = blocks[b].term.successors();
        it.map(|s| s.0).filter(move |&s| s < n)
    };
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut stack = vec![(entry, succs(entry))];
    seen[entry] = true;
    while let Some((b, it)) = stack.last_mut() {
        match it.next() {
            Some(s) => {
                if !std::mem::replace(&mut seen[s], true) {
                    stack.push((s, succs(s)));
                }
            }
            None => {
                order.push(*b);
                stack.pop();
            }
        }
    }
    order.reverse();
    order
}

/// The straight-line runs of `blocks`: every block that only its
/// predecessor's unconditional `Jmp` reaches continues that predecessor's
/// run, but for the entry block and a target outside `blocks`. Each run is
/// `(head, range)` over one list of the blocks the head absorbs, in order.
fn runs(blocks: &[CapturedBlock]) -> (Vec<(usize, std::ops::Range<usize>)>, Vec<usize>) {
    let n = blocks.len();
    let mut preds = vec![0u32; n];
    for b in blocks {
        b.term
            .successors()
            .filter(|s| s.0 < n)
            .for_each(|s| preds[s.0] += 1);
    }
    let next = |b: usize| match blocks[b].term {
        Terminator::Jmp(BlockId(s)) if s < n && preds[s] == 1 && !blocks[s].is_entry => Some(s),
        _ => None,
    };
    let mut continues = vec![false; n];
    (0..n).filter_map(next).for_each(|s| continues[s] = true);
    // A run starts at a block that continues nothing, so a cycle of one-
    // predecessor jumps (a self-loop included) joins nothing, and the walk
    // from a head cannot close one.
    let (mut heads, mut members) = (Vec::new(), Vec::new());
    for h in (0..n).filter(|&h| !continues[h]) {
        let start = members.len();
        let mut at = h;
        while let Some(s) = next(at) {
            members.push(s);
            at = s;
        }
        if members.len() > start {
            heads.push((h, start..members.len()));
        }
    }
    (heads, members)
}

/// Join every straight-line run into its first block, so a run is one
/// block; returns how many blocks were absorbed. In place: an absorbed
/// block is left empty with a `Ret` terminator and no predecessor, so block
/// ids (and the emitter's per-block addresses) keep their meaning.
/// `joined(head, run)` is called once the bodies of `run` moved, in order,
/// to the end of `head`'s.
pub fn straighten_with(
    blocks: &mut [CapturedBlock],
    mut joined: impl FnMut(usize, &[usize]),
) -> usize {
    let (heads, members) = runs(blocks);
    for (h, range) in heads {
        let run = &members[range];
        let len = run.iter().map(|&m| blocks[m].insts.len()).sum();
        blocks[h].insts.reserve_exact(len);
        for &m in run {
            let body = std::mem::take(&mut blocks[m].insts);
            blocks[h].insts.extend(body);
            blocks[h].term = std::mem::replace(&mut blocks[m].term, Terminator::Ret);
        }
        joined(h, run);
    }
    members.len()
}

/// [`straighten_with`] with nothing to move along.
pub fn straighten(blocks: &mut [CapturedBlock]) -> usize {
    straighten_with(blocks, |_, _| {})
}

/// Where each of `n` blocks sits in `order`; `usize::MAX` for a block that
/// is not in it.
pub fn positions(order: &[usize], n: usize) -> Vec<usize> {
    let mut pos = vec![usize::MAX; n];
    for (i, &b) in order.iter().enumerate() {
        pos[b] = i;
    }
    pos
}

/// Statistics of one rewrite, reported in [`crate::RewriteResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Guest instructions visited while tracing (incl. re-traces).
    pub traced: u64,
    /// Instructions emitted into captured blocks (before passes).
    pub emitted: u64,
    /// Instructions whose effect was fully evaluated at rewrite time.
    pub elided: u64,
    /// Captured blocks (incl. compensation blocks).
    pub blocks: u64,
    /// World migrations performed.
    pub migrations: u64,
    /// Calls inlined.
    pub inlined_calls: u64,
    /// Calls kept (emitted) in the rewritten code.
    pub kept_calls: u64,
    /// Instructions removed by optimization passes.
    pub pass_removed: u64,
    /// Literal-pool bytes allocated.
    pub pool_bytes: u64,
    /// Final emitted code size in bytes.
    pub code_bytes: u64,
    /// Memory-access hook call sites injected.
    pub hooks_injected: u64,
    /// Wall-clock nanoseconds spent decoding and tracing the emulated call.
    pub trace_ns: u64,
    /// Wall-clock nanoseconds spent in the optimization passes.
    pub pass_ns: u64,
    /// Wall-clock nanoseconds spent on layout, encoding and relocation.
    pub emit_ns: u64,
}

impl RewriteStats {
    /// Total wall-clock nanoseconds across the instrumented phases.
    pub fn total_ns(&self) -> u64 {
        self.trace_ns + self.pass_ns + self.emit_ns
    }

    /// Dependency-free JSON object with every field plus the derived
    /// `total_ns` — all values are unsigned integers, so no escaping is
    /// needed. The output passes [`crate::telemetry::validate_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"traced\":{},\"emitted\":{},\"elided\":{},\"blocks\":{},\
             \"migrations\":{},\"inlined_calls\":{},\"kept_calls\":{},\
             \"pass_removed\":{},\"pool_bytes\":{},\"code_bytes\":{},\
             \"hooks_injected\":{},\"trace_ns\":{},\"pass_ns\":{},\
             \"emit_ns\":{},\"total_ns\":{}}}",
            self.traced,
            self.emitted,
            self.elided,
            self.blocks,
            self.migrations,
            self.inlined_calls,
            self.kept_calls,
            self.pass_removed,
            self.pool_bytes,
            self.code_bytes,
            self.hooks_injected,
            self.trace_ns,
            self.pass_ns,
            self.emit_ns,
            self.total_ns(),
        )
    }
}

impl std::fmt::Display for RewriteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "traced {} guest insts -> emitted {} ({} evaluated away, {} removed by passes) \
             in {} blocks ({} migrations, {} inlined / {} kept calls), {} bytes \
             (+{} pool, {} hooks); {}us trace + {}us passes + {}us emit",
            self.traced,
            self.emitted,
            self.elided,
            self.pass_removed,
            self.blocks,
            self.migrations,
            self.inlined_calls,
            self.kept_calls,
            self.code_bytes,
            self.pool_bytes,
            self.hooks_injected,
            self.trace_ns / 1_000,
            self.pass_ns / 1_000,
            self.emit_ns / 1_000,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_valid_and_complete() {
        let s = RewriteStats {
            traced: 10,
            trace_ns: 3,
            pass_ns: 4,
            emit_ns: 5,
            ..Default::default()
        };
        let j = s.to_json();
        crate::telemetry::validate_json(&j).unwrap();
        assert!(j.contains("\"traced\":10"));
        assert!(j.contains("\"total_ns\":12"));
        assert!(j.contains("\"pool_bytes\":0"));
        assert!(j.contains("\"hooks_injected\":0"));
    }

    #[test]
    fn successors() {
        let t = Terminator::Jcc {
            cond: Cond::E,
            taken: BlockId(1),
            fall: BlockId(2),
        };
        let s: Vec<BlockId> = t.successors().collect();
        assert_eq!(s, vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret.successors().count(), 0);
        assert_eq!(Terminator::Jmp(BlockId(7)).successors().count(), 1);
    }

    /// Blocks `0..terms.len()` with the given terminators, block `b`'s
    /// body the one marker `mov rax, b`; block 0 is the entry.
    fn cfg(terms: &[Terminator]) -> Vec<CapturedBlock> {
        use brew_x86::prelude::{Gpr, Operand, Width};
        let mark = |b: usize| {
            CapturedInst::plain(Inst::Mov {
                w: Width::W64,
                dst: Operand::Reg(Gpr::Rax),
                src: Operand::Imm(b as i64),
            })
        };
        let mut blocks: Vec<CapturedBlock> = terms
            .iter()
            .enumerate()
            .map(|(b, &term)| {
                let mut blk = CapturedBlock::pending(0x1000 + b as u64);
                blk.insts = vec![mark(b)];
                blk.term = term;
                blk
            })
            .collect();
        blocks[0].is_entry = true;
        blocks
    }

    /// `(body length, terminator)` per block.
    fn shape(blocks: &[CapturedBlock]) -> Vec<(usize, Terminator)> {
        blocks.iter().map(|b| (b.insts.len(), b.term)).collect()
    }

    const fn jmp(b: usize) -> Terminator {
        Terminator::Jmp(BlockId(b))
    }

    #[test]
    fn a_chain_of_one_predecessor_jumps_becomes_one_block() {
        let mut blocks = cfg(&[jmp(1), jmp(2), Terminator::Ret]);
        let mut joins = Vec::new();
        assert_eq!(
            straighten_with(&mut blocks, |h, run| joins.push((h, run.to_vec()))),
            2
        );
        assert_eq!(joins, [(0, vec![1, 2])]);
        let ret = Terminator::Ret;
        assert_eq!(shape(&blocks), [(3, ret), (0, ret), (0, ret)]);
        let marks: Vec<String> = blocks[0].insts.iter().map(|c| c.inst.to_string()).collect();
        assert_eq!(marks, ["movq rax, 0x0", "movq rax, 0x1", "movq rax, 0x2"]);
    }

    #[test]
    fn a_successor_with_a_second_predecessor_is_kept() {
        // 0 -> 2 and 1 -> 2: block 2 is a join point.
        let mut blocks = cfg(&[jmp(2), jmp(2), Terminator::Ret]);
        blocks[0].term = Terminator::Jcc {
            cond: Cond::E,
            taken: BlockId(1),
            fall: BlockId(2),
        };
        let before = shape(&blocks);
        assert_eq!(straighten(&mut blocks), 0);
        assert_eq!(shape(&blocks), before);
    }

    #[test]
    fn the_entry_block_is_never_absorbed() {
        // 1 -> 0 is the only edge into the entry block 0.
        let mut blocks = cfg(&[Terminator::Ret, jmp(0)]);
        assert_eq!(straighten(&mut blocks), 0);
        assert_eq!(shape(&blocks), [(1, Terminator::Ret), (1, jmp(0))]);
    }

    #[test]
    fn a_self_loop_is_kept() {
        let mut blocks = cfg(&[jmp(1), jmp(1)]);
        // Block 1 has two predecessors (0 and itself): nothing joins.
        assert_eq!(straighten(&mut blocks), 0);
        // Nor when it is its own only one.
        let mut blocks = cfg(&[Terminator::Ret, jmp(1)]);
        assert_eq!(straighten(&mut blocks), 0);
        // A two-block loop entered only through its head collapses into a
        // self-loop of the head, and stops there.
        let mut blocks = cfg(&[jmp(1), jmp(2), jmp(1)]);
        assert_eq!(straighten(&mut blocks), 1);
        assert_eq!(
            shape(&blocks),
            [(1, jmp(1)), (2, jmp(1)), (0, Terminator::Ret)]
        );
    }

    #[test]
    fn a_jcc_edge_is_kept() {
        let mut blocks = cfg(&[Terminator::Ret, Terminator::Ret, Terminator::Ret]);
        blocks[0].term = Terminator::Jcc {
            cond: Cond::L,
            taken: BlockId(1),
            fall: BlockId(2),
        };
        let before = shape(&blocks);
        assert_eq!(straighten(&mut blocks), 0);
        assert_eq!(shape(&blocks), before);
    }

    #[test]
    fn an_edge_that_leaves_the_block_list_is_kept() {
        let mut blocks = cfg(&[jmp(5), Terminator::Ret]);
        assert_eq!(straighten(&mut blocks), 0);
        assert_eq!(shape(&blocks), [(1, jmp(5)), (1, Terminator::Ret)]);
    }

    #[test]
    fn straightening_twice_changes_nothing() {
        // 0 -> 1 -> {2, 3}; 2 -> 4; 3 -> 4; 4 -> 5 -> ret.
        let branch = Terminator::Jcc {
            cond: Cond::E,
            taken: BlockId(2),
            fall: BlockId(3),
        };
        let mut blocks = cfg(&[jmp(1), branch, jmp(4), jmp(4), jmp(5), Terminator::Ret]);
        assert_eq!(straighten(&mut blocks), 2);
        let once = shape(&blocks);
        assert_eq!(straighten(&mut blocks), 0);
        assert_eq!(shape(&blocks), once);
        assert_eq!(once[0], (2, branch));
        assert_eq!(once[4], (2, Terminator::Ret));
    }
}
