//! The tracing engine: block queue, world-keyed block identity, variant
//! thresholds and world migration with compensation code (§III.F/G).

use crate::capture::{BlockId, CapturedBlock, CapturedInst, RewriteStats, Terminator};
use crate::config::RewriteConfig;
use crate::error::RewriteError;
use crate::value::Value;
use crate::world::{MaterializeSet, World};
use brew_image::Image;
use brew_x86::prelude::*;
use brew_x86::WordMap;
use std::collections::VecDeque;
use std::ops::Range;

/// A block waiting to be traced.
pub(crate) struct Pending {
    pub addr: u64,
    pub world_idx: usize,
    pub block: BlockId,
}

/// Per-block trace context.
pub(crate) struct TraceCtx {
    /// Current world (cloned from the block's entry world).
    pub w: World,
    /// Captured output.
    pub out: Vec<CapturedInst>,
    /// Has an emitted instruction written flags in this block yet?
    pub wrote_flags: bool,
    /// Block property: an emitted flag reader ran before any flag writer.
    pub reads_flags_on_entry: bool,
}

/// The tracer: owns the image (for code + known-memory reads and literal
/// pool allocation) for the duration of one rewrite.
pub struct Tracer<'a> {
    pub(crate) img: &'a Image,
    pub(crate) cfg: &'a RewriteConfig,
    /// Known-memory ranges: config ranges + `PTR_TO_KNOWN` ranges.
    pub(crate) known_mem: Vec<Range<u64>>,
    pub(crate) blocks: Vec<CapturedBlock>,
    pub(crate) worlds: Vec<World>,
    variants: WordMap<u64, Vec<(usize, BlockId)>>,
    queue: VecDeque<Pending>,
    pool8: WordMap<u64, u64>,
    pool16: WordMap<(u64, u64), u64>,
    /// Every guest instruction decoded so far: an unrolled loop visits the
    /// same few hundred addresses tens of thousands of times.
    decoded: WordMap<u64, Decoded>,
    pub(crate) stats: RewriteStats,
    /// Every known-memory load folded into a constant, recorded for the
    /// variant's staleness snapshot. `RefCell` because the fold sites sit
    /// on `&self` value-reading paths; the tracer is single-threaded per
    /// rewrite.
    pub(crate) read_set: std::cell::RefCell<crate::snapshot::ReadSet>,
    /// Any traced path leaked a frame address (disables frame dead-store
    /// elimination).
    pub(crate) escaped: bool,
    /// The function being rewritten (passed to entry/exit hooks).
    pub(crate) entry_fn: u64,
    budget: u64,
    /// Optional span recorder for structured rewrite traces (per-block
    /// spans plus migration / inlining / compensation decision events).
    pub(crate) recorder: Option<&'a mut crate::telemetry::SpanRecorder>,
}

impl<'a> Tracer<'a> {
    pub(crate) fn new(img: &'a Image, cfg: &'a RewriteConfig, known_mem: Vec<Range<u64>>) -> Self {
        Tracer {
            img,
            cfg,
            known_mem,
            blocks: Vec::new(),
            worlds: Vec::new(),
            variants: WordMap::default(),
            queue: VecDeque::new(),
            pool8: WordMap::default(),
            pool16: WordMap::default(),
            decoded: WordMap::default(),
            stats: RewriteStats::default(),
            read_set: std::cell::RefCell::new(crate::snapshot::ReadSet::default()),
            escaped: false,
            entry_fn: 0,
            budget: cfg.max_trace_insts,
            recorder: None,
        }
    }

    /// Record an instant decision event, if a recorder is attached.
    pub(crate) fn rec_decision(&mut self, name: &'static str, args: Vec<(String, String)>) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.instant(name, "decision", args);
        }
    }

    /// Is `[addr, addr+size)` declared known-and-immutable?
    pub(crate) fn addr_known(&self, addr: u64, size: u64) -> bool {
        self.known_mem
            .iter()
            .any(|r| addr >= r.start && addr.saturating_add(size) <= r.end)
    }

    /// Intern an 8-byte constant into the literal pool; returns its address
    /// (always encodable as an absolute disp32 in the default layout).
    pub(crate) fn pool_const8(&mut self, bits: u64) -> u64 {
        if let Some(&a) = self.pool8.get(&bits) {
            return a;
        }
        let a = self.img.alloc_data_bytes(&bits.to_le_bytes(), 8);
        self.stats.pool_bytes += 8;
        self.pool8.insert(bits, a);
        a
    }

    /// Intern a 16-byte constant (packed-double literal).
    pub(crate) fn pool_const16(&mut self, lo: u64, hi: u64) -> u64 {
        if let Some(&a) = self.pool16.get(&(lo, hi)) {
            return a;
        }
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&lo.to_le_bytes());
        b[8..].copy_from_slice(&hi.to_le_bytes());
        let a = self.img.alloc_data_bytes(&b, 16);
        self.stats.pool_bytes += 16;
        self.pool16.insert((lo, hi), a);
        a
    }

    /// Run the work queue to completion, starting from `entry` in `world`.
    pub(crate) fn run(&mut self, entry: u64, world: World) -> Result<BlockId, RewriteError> {
        self.entry_fn = entry;
        let entry_block = self.enqueue(entry, world, false)?;
        while let Some(p) = self.queue.pop_front() {
            self.trace_block(p)?;
        }
        Ok(entry_block)
    }

    /// Enqueue (or find) the block for `(addr, world)`; applies the variant
    /// threshold and world migration. `untrusted` marks edges whose runtime
    /// flags may not match the abstract flags.
    pub(crate) fn enqueue(
        &mut self,
        addr: u64,
        mut world: World,
        mut untrusted: bool,
    ) -> Result<BlockId, RewriteError> {
        // Stale flags normalize to unknown-with-untrusted-edge: the block
        // may be shared, but only if it never reads flags on entry.
        if matches!(world.flags, crate::value::FlagsVal::Stale) {
            world.flags = crate::value::FlagsVal::Unknown;
            untrusted = true;
        }
        // Exact world match → existing block.
        if let Some(vs) = self.variants.get(&addr) {
            for &(widx, bid) in vs {
                if self.worlds[widx] == world {
                    if untrusted {
                        self.mark_untrusted(addr, bid)?;
                    }
                    return Ok(bid);
                }
            }
        }

        let opts = self.cfg.opts_for(world.cur_fn);
        let count = self.variants.get(&addr).map_or(0, |v| v.len());
        if count < opts.max_variants as usize {
            return self.create_block(addr, world, untrusted);
        }

        // --- world migration (§III.F) ---
        self.stats.migrations += 1;
        self.rec_decision(
            "migration",
            vec![
                ("addr".into(), format!("{addr:#x}")),
                ("variants".into(), count.to_string()),
            ],
        );

        // 1. Try an existing compatible variant, preferring the one needing
        //    the least compensation.
        let mut best: Option<(usize, BlockId, usize)> = None;
        let candidates: Vec<(usize, BlockId)> = self.variants[&addr].clone();
        for (widx, bid) in &candidates {
            let target = &self.worlds[*widx];
            if world.can_migrate_to(target) {
                let plan = world.migration_plan(target);
                let cost = plan.gprs.len() + plan.xmms.len();
                if best.is_none_or(|(_, _, c)| cost < c) {
                    best = Some((*widx, *bid, cost));
                }
            }
        }
        if let Some((widx, bid, _)) = best {
            let target = self.worlds[widx].clone();
            let edge_untrusted =
                untrusted || (world.flags.known().is_some() && target.flags.known().is_none());
            if edge_untrusted {
                self.mark_untrusted(addr, bid)?;
            }
            let plan = world.migration_plan(&target);
            if plan.is_empty() {
                return Ok(bid);
            }
            return self.compensation_block(&plan, world.rsp_off(), bid);
        }

        // 2. No compatible variant: demote toward the closest one and
        //    create the demoted variant (terminates at the fully demoted
        //    world, which every state can migrate to).
        let closest_idx = candidates
            .iter()
            .map(|(widx, _)| *widx)
            .min_by_key(|&widx| world_distance(&world, &self.worlds[widx]))
            .expect("threshold exceeded implies candidates exist");
        let closest = self.worlds[closest_idx].clone();
        let mut demoted = world.demote_toward(&closest);
        if demoted == world || !world.can_migrate_to(&demoted) {
            demoted = world.fully_demoted();
        }
        if demoted == world {
            // Already fully demoted and still no target: allow one variant
            // past the threshold (bounded by the hard cap in create_block).
            return self.create_block(addr, world, untrusted);
        }
        debug_assert!(world.can_migrate_to(&demoted));
        let edge_untrusted =
            untrusted || (world.flags.known().is_some() && demoted.flags.known().is_none());
        let plan = world.migration_plan(&demoted);
        let rsp_off = world.rsp_off();
        // The demoted variant is the loop-closure anchor: reuse it if it
        // already exists, otherwise create it directly (it is exempt from
        // the soft threshold; the hard cap in create_block still applies).
        let existing = self.variants.get(&addr).and_then(|vs| {
            vs.iter()
                .find(|(widx, _)| self.worlds[*widx] == demoted)
                .map(|&(_, b)| b)
        });
        let bid = match existing {
            Some(b) => {
                if edge_untrusted {
                    self.mark_untrusted(addr, b)?;
                }
                b
            }
            None => self.create_block(addr, demoted, edge_untrusted)?,
        };
        if plan.is_empty() {
            return Ok(bid);
        }
        self.compensation_block(&plan, rsp_off, bid)
    }

    fn mark_untrusted(&mut self, addr: u64, bid: BlockId) -> Result<(), RewriteError> {
        let b = &mut self.blocks[bid.0];
        if b.traced && b.reads_flags_on_entry {
            return Err(RewriteError::UntrustedFlags { addr });
        }
        b.entered_untrusted = true;
        Ok(())
    }

    fn create_block(
        &mut self,
        addr: u64,
        world: World,
        untrusted: bool,
    ) -> Result<BlockId, RewriteError> {
        if self.blocks.len() >= self.cfg.max_blocks {
            return Err(RewriteError::BlockBudget);
        }
        let opts = self.cfg.opts_for(world.cur_fn);
        let hard_cap = opts.max_variants as usize * 4 + 16;
        let count = self.variants.get(&addr).map_or(0, |v| v.len());
        if count >= hard_cap {
            return Err(RewriteError::BlockBudget);
        }
        let bid = BlockId(self.blocks.len());
        let mut b = CapturedBlock::pending(addr);
        b.entered_untrusted = untrusted;
        self.blocks.push(b);
        self.worlds.push(world);
        let widx = self.worlds.len() - 1;
        self.variants.entry(addr).or_default().push((widx, bid));
        self.queue.push_back(Pending {
            addr,
            world_idx: widx,
            block: bid,
        });
        self.stats.blocks += 1;
        Ok(bid)
    }

    /// Build a synthetic block holding materialization (compensation) code
    /// followed by a jump to `target` — the paper's "compensation code for
    /// migration of the known-world state".
    fn compensation_block(
        &mut self,
        plan: &MaterializeSet,
        rsp_off: i64,
        target: BlockId,
    ) -> Result<BlockId, RewriteError> {
        if self.blocks.len() >= self.cfg.max_blocks {
            return Err(RewriteError::BlockBudget);
        }
        let mut insts = Vec::new();
        for (r, v) in &plan.gprs {
            insts.push(CapturedInst::plain(materialize_gpr_inst(*r, *v, rsp_off)?));
        }
        for (x, v) in &plan.xmms {
            let Value::Const(bits) = v else {
                return Err(RewriteError::TraceFault {
                    addr: 0,
                    what: "cannot materialize non-constant xmm",
                });
            };
            let pool = self.pool_const8(*bits);
            insts.push(CapturedInst::plain(Inst::MovSd {
                dst: Operand::Xmm(*x),
                src: Operand::Mem(MemRef::abs(pool as i32)),
            }));
        }
        let bid = BlockId(self.blocks.len());
        let n_moves = insts.len();
        let mut b = CapturedBlock::pending(0);
        b.insts = insts;
        b.term = Terminator::Jmp(target);
        b.traced = true;
        self.blocks.push(b);
        self.stats.blocks += 1;
        self.rec_decision(
            "compensation",
            vec![
                ("target_block".into(), target.0.to_string()),
                ("moves".into(), n_moves.to_string()),
            ],
        );
        Ok(bid)
    }

    fn trace_block(&mut self, p: Pending) -> Result<(), RewriteError> {
        let mut cx = TraceCtx {
            w: self.worlds[p.world_idx].clone(),
            out: Vec::new(),
            wrote_flags: false,
            reads_flags_on_entry: false,
        };
        let span_start = self.recorder.as_ref().map(|r| r.now_ns());
        let traced_before = self.stats.traced;
        let mut rip = p.addr;
        let term = loop {
            if self.budget == 0 {
                return Err(RewriteError::TraceBudget);
            }
            self.budget -= 1;
            self.stats.traced += 1;

            let d = match self.decoded.get(&rip) {
                Some(d) => *d,
                None => {
                    let mut window = [0u8; 16];
                    let n = self
                        .img
                        .code_window_into(rip, &mut window)
                        .map_err(|_| RewriteError::BadAddress { addr: rip })?;
                    let d = decode(&window[..n], rip)
                        .map_err(|err| RewriteError::Undecodable { addr: rip, err })?;
                    self.decoded.insert(rip, d);
                    d
                }
            };
            match self.exec_inst(&mut cx, &d.inst, rip, rip + d.len as u64)? {
                Step::Continue(next) => rip = next,
                Step::End(t) => break t,
            }
        };
        let b = &mut self.blocks[p.block.0];
        b.insts = std::mem::take(&mut cx.out);
        b.term = term;
        b.reads_flags_on_entry = cx.reads_flags_on_entry;
        b.traced = true;
        let emitted = b.insts.len();
        if b.entered_untrusted && b.reads_flags_on_entry {
            return Err(RewriteError::UntrustedFlags { addr: p.addr });
        }
        if let (Some(r), Some(t0)) = (self.recorder.as_deref_mut(), span_start) {
            r.complete(
                format!("block@{:#x}", p.addr),
                "block",
                t0,
                vec![
                    ("insts".into(), emitted.to_string()),
                    (
                        "traced".into(),
                        (self.stats.traced - traced_before).to_string(),
                    ),
                ],
            );
        }
        Ok(())
    }
}

/// Step outcome of executing one traced instruction.
pub(crate) enum Step {
    /// Continue tracing at this guest address.
    Continue(u64),
    /// Block ends with this terminator.
    End(Terminator),
}

/// Instruction materializing `v` into GPR `r` at stack depth `rsp_off`.
pub(crate) fn materialize_gpr_inst(r: Gpr, v: Value, rsp_off: i64) -> Result<Inst, RewriteError> {
    match v {
        Value::Const(c) => {
            if (c as i64) == (c as i64 as i32) as i64 {
                Ok(Inst::Mov {
                    w: Width::W64,
                    dst: Operand::Reg(r),
                    src: Operand::Imm(c as i64),
                })
            } else {
                Ok(Inst::MovAbs { dst: r, imm: c })
            }
        }
        Value::StackRel(o) => {
            let disp = i32::try_from(o - rsp_off).map_err(|_| {
                RewriteError::Unencodable(brew_x86::encode::EncodeError::ImmTooLarge(o))
            })?;
            Ok(Inst::Lea {
                dst: r,
                src: MemRef::base_disp(Gpr::Rsp, disp),
            })
        }
        // Callers guard on `is_known()`, but keep the failure typed: a
        // violated invariant must fail the rewrite, not the process.
        Value::Unknown => Err(RewriteError::TraceFault {
            addr: 0,
            what: "cannot materialize an unknown value",
        }),
    }
}

/// Rough distance between worlds for choosing a demotion anchor.
fn world_distance(a: &World, b: &World) -> usize {
    let mut d = 0;
    for i in 0..16 {
        if a.regs[i] != b.regs[i] {
            d += 1;
        }
        if a.xmm[i] != b.xmm[i] {
            d += 1;
        }
    }
    if a.flags != b.flags {
        d += 1;
    }
    for (k, v) in &a.frame {
        if b.frame.get(k) != Some(v) {
            d += 1;
        }
    }
    for (k, v) in &b.frame {
        if !a.frame.contains_key(k) {
            let _ = v;
            d += 1;
        }
    }
    for (k, v) in &a.gshadow {
        if b.gshadow.get(k) != Some(v) {
            d += 1;
        }
    }
    d
}
