//! The tracing engine: block queue, world-keyed block identity, variant
//! thresholds and world migration with compensation code (§III.F/G).

use crate::capture::{BlockId, CapturedBlock, CapturedInst, RewriteStats, Terminator};
use crate::config::{FuncOpts, RewriteConfig};
use crate::error::RewriteError;
use crate::value::{FlagsVal, Value};
use crate::world::{MaterializeSet, World};
use brew_image::Image;
use brew_x86::prelude::*;
use brew_x86::{CodeTable, WordMap};
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
    /// The options of `w.cur_fn`: looked up per block and where an inlined
    /// call or return changes the function, never per instruction.
    pub opts: FuncOpts,
    /// Captured output (the tracer's one buffer, lent for the block).
    pub out: Vec<CapturedInst>,
    /// Has an emitted instruction written flags in this block yet?
    pub wrote_flags: bool,
    /// Block property: an emitted flag reader ran before any flag writer.
    pub reads_flags_on_entry: bool,
}

impl TraceCtx {
    /// Continue in function `f` (an inlined call or return) under its options.
    pub fn enter_fn(&mut self, f: u64, opts: FuncOpts) {
        self.w.cur_fn = f;
        self.opts = opts;
    }
}

/// One traced variant of a guest address. Identity is `(address, world)`;
/// the digest is compared first and the world only when it matches.
struct Variant {
    digest: u64,
    world_idx: usize,
    block: BlockId,
}

/// The tracer: owns the image (for code + known-memory reads and literal
/// pool allocation) for the duration of one rewrite.
pub struct Tracer<'a> {
    pub(crate) img: &'a Image,
    pub(crate) cfg: &'a RewriteConfig,
    /// `cfg.func_opts` under the word hasher: read per block, call and return.
    func_opts: WordMap<u64, FuncOpts>,
    /// Known-memory ranges: config ranges + `PTR_TO_KNOWN` ranges.
    pub(crate) known_mem: Vec<Range<u64>>,
    pub(crate) blocks: Vec<CapturedBlock>,
    pub(crate) worlds: Vec<World>,
    variants: WordMap<u64, Vec<Variant>>,
    queue: VecDeque<Pending>,
    pool8: WordMap<u64, u64>,
    pool16: WordMap<(u64, u64), u64>,
    /// Block output buffer, reused: a finished block takes an exact-size copy.
    out_buf: Vec<CapturedInst>,
    pub(crate) stats: RewriteStats,
    /// Deterministic work, reported on the `trace` span: guest instructions
    /// decoded (one per distinct address fetched) and full world comparisons
    /// made by the variant search.
    pub(crate) decodes: u64,
    pub(crate) compares: u64,
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
            func_opts: cfg.func_opts.iter().map(|(&f, &o)| (f, o)).collect(),
            known_mem,
            blocks: Vec::new(),
            worlds: Vec::new(),
            variants: WordMap::default(),
            queue: VecDeque::new(),
            pool8: WordMap::default(),
            pool16: WordMap::default(),
            out_buf: Vec::new(),
            stats: RewriteStats::default(),
            decodes: 0,
            compares: 0,
            read_set: std::cell::RefCell::new(crate::snapshot::ReadSet::default()),
            escaped: false,
            entry_fn: 0,
            budget: cfg.max_trace_insts,
            recorder: None,
        }
    }

    /// The options in effect for the function at `f`.
    pub(crate) fn opts_for(&self, f: u64) -> FuncOpts {
        let opts = self.func_opts.get(&f);
        opts.copied().unwrap_or(self.cfg.default_opts)
    }

    /// Record an instant decision event, if a recorder is attached; `args`
    /// runs only then (it formats, and may read the symbol table).
    pub(crate) fn rec_decision(
        &mut self,
        name: &'static str,
        args: impl FnOnce() -> Vec<(String, String)>,
    ) {
        if let Some(r) = self.recorder.as_deref_mut() {
            r.instant(name, "decision", args());
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
        let entry_block = self.enqueue(entry, &world, false)?;
        // Decoded guest code of this rewrite: an unrolled loop visits the
        // same few hundred addresses tens of thousands of times. Held here,
        // outside `self`, so a block executes from entries it borrows. Per
        // rewrite: every publish bumps `Image::code_version`, so a table
        // kept longer would be dropped by the request before it.
        let mut code = CodeTable::default();
        while let Some(p) = self.queue.pop_front() {
            self.trace_block(p, &mut code)?;
        }
        self.decodes = code.len() as u64;
        Ok(entry_block)
    }

    /// The block of `(addr, world)` if it exists, and how many variants
    /// `addr` has.
    fn find_variant(&mut self, addr: u64, digest: u64, world: &World) -> (Option<BlockId>, usize) {
        let Some(vs) = self.variants.get(&addr) else {
            return (None, 0);
        };
        for v in vs.iter().filter(|v| v.digest == digest) {
            self.compares += 1;
            if self.worlds[v.world_idx] == *world {
                return (Some(v.block), vs.len());
            }
        }
        (None, vs.len())
    }

    /// Enqueue (or find) the block for `(addr, world)`; applies the variant
    /// threshold and world migration. `untrusted` marks edges whose runtime
    /// flags may not match the abstract flags. The world is cloned only
    /// when a block is created for it.
    pub(crate) fn enqueue(
        &mut self,
        addr: u64,
        world: &World,
        mut untrusted: bool,
    ) -> Result<BlockId, RewriteError> {
        // Stale flags normalize to unknown-with-untrusted-edge: the block
        // may be shared, but only if it never reads flags on entry.
        let normalized;
        let world = if matches!(world.flags, FlagsVal::Stale) {
            untrusted = true;
            normalized = World {
                flags: FlagsVal::Unknown,
                ..world.clone()
            };
            &normalized
        } else {
            world
        };
        // Exact world match → existing block.
        let digest = world.digest();
        let (found, count) = self.find_variant(addr, digest, world);
        if let Some(bid) = found {
            if untrusted {
                self.mark_untrusted(addr, bid)?;
            }
            return Ok(bid);
        }

        let opts = self.opts_for(world.cur_fn);
        if count < opts.max_variants as usize {
            return self.create_block(addr, world.clone(), digest, untrusted);
        }

        // --- world migration (§III.F) ---
        self.stats.migrations += 1;
        self.rec_decision("migration", || {
            vec![
                ("addr".into(), format!("{addr:#x}")),
                ("variants".into(), count.to_string()),
            ]
        });

        // 1. Try an existing compatible variant, preferring the one needing
        //    the least compensation.
        let cost = |p: &MaterializeSet| p.gprs.len() + p.xmms.len();
        let mut best: Option<(&Variant, MaterializeSet)> = None;
        for v in &self.variants[&addr] {
            let target = &self.worlds[v.world_idx];
            if world.can_migrate_to(target) {
                let plan = world.migration_plan(target);
                if best.as_ref().is_none_or(|(_, b)| cost(&plan) < cost(b)) {
                    best = Some((v, plan));
                }
            }
        }
        if let Some((v, plan)) = best {
            let (bid, target) = (v.block, &self.worlds[v.world_idx]);
            let edge_untrusted =
                untrusted || (world.flags.known().is_some() && target.flags.known().is_none());
            if edge_untrusted {
                self.mark_untrusted(addr, bid)?;
            }
            if plan.is_empty() {
                return Ok(bid);
            }
            return self.compensation_block(&plan, world.rsp_off(), bid);
        }

        // 2. No compatible variant: migrate into an anchor that knows less.
        //    The first time, demote toward the closest variant; when that
        //    changes nothing, or an anchor exists, keep what the world shares
        //    with every variant. One variant short of the hard cap, forget
        //    everything: every state of this stack shape can migrate there.
        let worlds = self.variants[&addr]
            .iter()
            .map(|v| &self.worlds[v.world_idx]);
        let first = count == opts.max_variants as usize;
        let anchor = if count + 1 >= hard_cap(&opts) {
            world.fully_demoted()
        } else if let Some(demoted) = (worlds.clone().filter(|_| first))
            .min_by_key(|w| world_distance(world, w))
            .map(|closest| world.demote_toward(closest))
            .filter(|d| d != world && world.can_migrate_to(d))
        {
            demoted
        } else {
            worlds.fold(world.clone(), |met, w| met.meet(w))
        };
        if anchor == *world {
            // The world knows nothing the variants do not all agree on (or
            // nothing at all, at the cap) and could migrate into none of
            // them, so it knows less than each: it becomes the anchor
            // itself (bounded by the hard cap in create_block).
            return self.create_block(addr, anchor, digest, untrusted);
        }
        debug_assert!(world.can_migrate_to(&anchor));
        let edge_untrusted =
            untrusted || (world.flags.known().is_some() && anchor.flags.known().is_none());
        let plan = world.migration_plan(&anchor);
        // Reuse the anchor if it already exists, otherwise create it
        // directly (it is exempt from the soft threshold; the hard cap in
        // create_block still applies).
        let anchor_digest = anchor.digest();
        let bid = match self.find_variant(addr, anchor_digest, &anchor).0 {
            Some(b) => {
                if edge_untrusted {
                    self.mark_untrusted(addr, b)?;
                }
                b
            }
            None => self.create_block(addr, anchor, anchor_digest, edge_untrusted)?,
        };
        if plan.is_empty() {
            return Ok(bid);
        }
        self.compensation_block(&plan, world.rsp_off(), bid)
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
        digest: u64,
        untrusted: bool,
    ) -> Result<BlockId, RewriteError> {
        if self.blocks.len() >= self.cfg.max_blocks {
            return Err(RewriteError::BlockBudget);
        }
        let cap = hard_cap(&self.opts_for(world.cur_fn));
        let variants = self.variants.entry(addr).or_default();
        if variants.len() >= cap {
            return Err(RewriteError::BlockBudget);
        }
        let block = BlockId(self.blocks.len());
        let mut b = CapturedBlock::pending(addr);
        b.entered_untrusted = untrusted;
        self.blocks.push(b);
        let world_idx = self.worlds.len();
        self.worlds.push(world);
        variants.push(Variant {
            digest,
            world_idx,
            block,
        });
        self.queue.push_back(Pending {
            addr,
            world_idx,
            block,
        });
        self.stats.blocks += 1;
        Ok(block)
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
        self.rec_decision("compensation", || {
            vec![
                ("target_block".into(), target.0.to_string()),
                ("moves".into(), n_moves.to_string()),
            ]
        });
        Ok(bid)
    }

    fn trace_block(
        &mut self,
        p: Pending,
        code: &mut CodeTable<Decoded>,
    ) -> Result<(), RewriteError> {
        let w = self.worlds[p.world_idx].clone();
        let mut cx = TraceCtx {
            opts: self.opts_for(w.cur_fn),
            w,
            out: std::mem::take(&mut self.out_buf),
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

            let img = self.img;
            let d = code.get_or_decode(rip, || fetch(img, rip))?;
            match self.exec_inst(&mut cx, &d.inst, rip, rip + d.len as u64)? {
                Step::Continue(next) => rip = next,
                Step::End(t) => break t,
            }
        };
        let b = &mut self.blocks[p.block.0];
        b.insts = cx.out.as_slice().into();
        cx.out.clear();
        self.out_buf = cx.out;
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

/// Fetch and decode the guest instruction at `addr`.
#[cold]
fn fetch(img: &Image, addr: u64) -> Result<Decoded, RewriteError> {
    let mut window = [0u8; 16];
    let n = img
        .code_window_into(addr, &mut window)
        .map_err(|_| RewriteError::BadAddress { addr })?;
    decode(&window[..n], addr).map_err(|err| RewriteError::Undecodable { addr, err })
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

/// How many variants one address may hold, anchors included.
fn hard_cap(opts: &FuncOpts) -> usize {
    opts.max_variants as usize * 4 + 16
}

/// Rough distance between worlds for choosing a demotion anchor: the
/// registers, flags and frame slots that differ, and the global slots of `a`
/// that `b` does not hold equal.
fn world_distance(a: &World, b: &World) -> usize {
    (0..16).filter(|&i| a.regs[i] != b.regs[i]).count()
        + (0..16).filter(|&i| a.xmm[i] != b.xmm[i]).count()
        + (a.flags != b.flags) as usize
        + a.frame.merge(&b.frame).filter(|(_, x, y)| x != y).count()
        + (a.gshadow.merge(&b.gshadow))
            .filter(|(_, x, y)| x.is_some() && x != y)
            .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{InlineFrame, RegState, XmmState};
    use brew_x86::cond::Flags;

    const ADDR: u64 = 0x40_1000;

    fn base_world() -> World {
        let mut w = World::entry(ADDR);
        w.set_reg(
            Gpr::Rcx,
            RegState {
                val: Value::Const(7),
                synced: true,
            },
        );
        w
    }

    /// Block identity is the world, not its digest: worlds that differ only
    /// where the digest does not look — an xmm lane, a `synced` bit, the
    /// flags, the inline stack — collide on it and still get a block each.
    #[test]
    fn worlds_the_digest_cannot_tell_apart_get_distinct_blocks() {
        let base = base_world();
        let mut lane = base.clone();
        lane.set_xmm(
            Xmm::Xmm3,
            XmmState {
                lanes: [Value::Const(1), Value::Unknown],
                synced: false,
            },
        );
        let mut synced = base.clone();
        synced.regs[Gpr::Rcx.number() as usize].synced = false;
        let mut flags = base.clone();
        flags.flags = FlagsVal::Known(Flags::default());
        let mut inlined = base.clone();
        inlined.inline_stack.push(InlineFrame {
            ret_addr: ADDR + 5,
            rsp_at_call: 0,
            caller_fn: ADDR,
        });
        let worlds = [base, lane, synced, flags, inlined];
        assert!(worlds.iter().all(|w| w.digest() == worlds[0].digest()));

        let (img, cfg) = (Image::new(), RewriteConfig::new());
        let mut t = Tracer::new(&img, &cfg, Vec::new());
        let enqueue_all = |t: &mut Tracer| -> Vec<BlockId> {
            let ids = worlds.iter().map(|w| t.enqueue(ADDR, w, false).unwrap());
            ids.collect()
        };
        let first = enqueue_all(&mut t);
        for (i, a) in first.iter().enumerate() {
            assert!(
                !first[..i].contains(a),
                "one block for two worlds: {first:?}"
            );
        }
        // Every digest matched, so every earlier variant was compared in full.
        assert_eq!(t.compares, (0..5).sum::<u64>());
        assert_eq!((t.blocks.len(), t.worlds.len()), (5, 5));
        // The same worlds again find their own blocks and add nothing.
        assert_eq!(enqueue_all(&mut t), first);
        assert_eq!((t.blocks.len(), t.worlds.len(), t.queue.len()), (5, 5, 5));
        // A world the digest does tell apart is found without a comparison.
        let mut other = worlds[0].clone();
        other.set_frame_slot(-8, Value::Const(1));
        let before = t.compares;
        assert!(!first.contains(&t.enqueue(ADDR, &other, false).unwrap()));
        assert_eq!(t.compares, before);
    }

    /// A fork hands both arms the current world by reference: when both
    /// blocks exist, nothing is cloned, stored or queued.
    #[test]
    fn a_fork_whose_arms_exist_allocates_no_world() {
        let (img, cfg) = (Image::new(), RewriteConfig::new());
        let mut t = Tracer::new(&img, &cfg, Vec::new());
        let mut cx = TraceCtx {
            w: base_world(),
            opts: FuncOpts::default(),
            out: Vec::new(),
            wrote_flags: true,
            reads_flags_on_entry: false,
        };
        let jcc = Inst::Jcc {
            cond: Cond::E,
            target: ADDR + 0x40,
        };
        let mut fork = |t: &mut Tracer| match t.exec_inst(&mut cx, &jcc, ADDR, ADDR + 2) {
            Ok(Step::End(Terminator::Jcc { taken, fall, .. })) => (taken, fall),
            _ => panic!("an unknown-flags jcc forks"),
        };
        let stored = |t: &Tracer| (t.worlds.len(), t.blocks.len(), t.queue.len());
        let arms = fork(&mut t);
        assert_ne!(arms.0, arms.1);
        assert_eq!(stored(&t), (2, 2, 2));
        let capacity = t.worlds.capacity();
        assert_eq!(fork(&mut t), arms);
        assert_eq!((stored(&t), t.worlds.capacity()), ((2, 2, 2), capacity));
        assert_eq!(t.compares, 2, "one full comparison per arm found");
    }

    /// A tracer whose functions take `max_variants` variants per address
    /// before migrating.
    fn with_variants<R>(max_variants: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let img = Image::new();
        let mut cfg = RewriteConfig::new();
        cfg.default_opts.max_variants = max_variants;
        let mut t = Tracer::new(&img, &cfg, Vec::new());
        f(&mut t)
    }

    /// The entry world with `rcx`, `r8` and the frame slot at -8 set.
    fn world(rcx: Value, r8: u64, slot: u64) -> World {
        let mut w = World::entry(ADDR);
        let known = |v| RegState {
            val: v,
            synced: true,
        };
        w.set_reg(Gpr::Rcx, known(rcx));
        w.set_reg(Gpr::R8, known(Value::Const(r8)));
        w.set_frame_slot(-8, Value::Const(slot));
        w
    }

    /// The world of the variant created last.
    fn last<'t>(t: &'t Tracer) -> &'t World {
        t.worlds.last().unwrap()
    }

    /// A world that knows less than every variant and migrates into none
    /// becomes the loop's anchor as it is: it keeps the frame slot and the
    /// register all variants agree on.
    #[test]
    fn a_world_below_every_variant_is_its_own_anchor() {
        with_variants(2, |t| {
            for rcx in [1, 2] {
                t.enqueue(ADDR, &world(Value::Const(rcx), 4, 5), false)
                    .unwrap();
            }
            let below = world(Value::Unknown, 4, 5);
            let bid = t.enqueue(ADDR, &below, false).unwrap();
            assert_eq!(t.stats.migrations, 1);
            assert_eq!((bid, last(t)), (BlockId(2), &below));
            assert_eq!(last(t).frame_slot(-8), Value::Const(5));
        });
    }

    /// Once an address holds an anchor, a world that fits no variant
    /// migrates into its meet with all of them: what every variant and the
    /// world agree on survives, the rest is unknown.
    #[test]
    fn a_second_overflow_meets_the_world_against_every_variant() {
        with_variants(2, |t| {
            for rcx in [1, 2] {
                t.enqueue(ADDR, &world(Value::Const(rcx), 4, 5), false)
                    .unwrap();
            }
            t.enqueue(ADDR, &world(Value::Unknown, 4, 5), false)
                .unwrap();
            let arriving = world(Value::Const(1), 4, 6);
            let met = t.worlds.iter().fold(arriving.clone(), |m, w| m.meet(w));
            t.enqueue(ADDR, &arriving, false).unwrap();
            assert_eq!((t.stats.migrations, t.worlds.len()), (2, 4));
            assert_eq!(last(t), &met);
            assert_eq!(met.reg(Gpr::Rcx).val, Value::Unknown);
            assert_eq!(met.reg(Gpr::R8).val, Value::Const(4));
            assert_eq!(met.frame_slot(-8), Value::Unknown);
        });
    }

    /// One variant short of the hard cap the anchor forgets everything, so
    /// every later world of the same stack shape still finds a target and
    /// the rewrite does not run out of variants.
    #[test]
    fn one_variant_short_of_the_cap_the_anchor_is_fully_demoted() {
        with_variants(1, |t| {
            let cap = hard_cap(&t.opts_for(ADDR));
            for rcx in 0..cap as u64 - 1 {
                let w = world(Value::Const(rcx), 1, 5);
                t.create_block(ADDR, w.clone(), w.digest(), false).unwrap();
            }
            let arriving = world(Value::Const(100), 1, 5);
            t.enqueue(ADDR, &arriving, false).unwrap();
            assert_eq!(t.worlds.len(), cap);
            assert_eq!(last(t), &arriving.fully_demoted());
            // At the cap, a world no other variant accepts still migrates.
            t.enqueue(ADDR, &world(Value::Const(101), 2, 6), false)
                .unwrap();
            assert_eq!(t.worlds.len(), cap);
        });
    }
}
