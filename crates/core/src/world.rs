//! The known-world state (§III.F).
//!
//! *"The correctness of our tracing strategy crucially depends on the
//! known-state of values. [...] we need to add the facility to save and
//! restore the state of all known-ness as well as the values themselves if
//! known. We call this the known-world state."*
//!
//! A [`World`] captures everything the tracer knows at a program point:
//! abstract register values (plus whether the *architectural* register
//! currently holds that value — the `synced` bit that drives materialization
//!/ compensation code), abstract flags, the shadow stack frame, the shadow
//! of emitted global stores, and the inline call stack. Block identity is
//! `(guest address, World)`, searched by [`World::digest`]; migration
//! compares and demotes worlds.

use crate::value::{FlagsVal, Value};
use brew_x86::reg::{Gpr, Xmm};
use brew_x86::WordHasher;
use std::hash::Hasher;

/// Abstract state of one general-purpose register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegState {
    /// Abstract value.
    pub val: Value,
    /// Does the architectural register hold `val` at runtime? Elided
    /// instructions leave this `false`; materialization sets it. `Unknown`
    /// values are always synced (the register *is* the unknown value).
    pub synced: bool,
}

impl RegState {
    /// An unknown (and therefore trivially synced) register.
    pub const UNKNOWN: RegState = RegState {
        val: Value::Unknown,
        synced: true,
    };
}

/// Abstract state of one SSE register (two 64-bit lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XmmState {
    /// Lane values (`[low, high]`); constants are raw f64 bit patterns.
    pub lanes: [Value; 2],
    /// Architectural-sync bit for the whole register.
    pub synced: bool,
}

impl XmmState {
    /// An unknown (synced) SSE register.
    pub const UNKNOWN: XmmState = XmmState {
        lanes: [Value::Unknown; 2],
        synced: true,
    };
}

/// One inlined activation (§III.E: "we maintain a shadow stack remembering
/// traced call instructions and corresponding return addresses").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InlineFrame {
    /// Guest address to continue at after the callee's `ret`.
    pub ret_addr: u64,
    /// RSP offset at the call site (sanity-checked at `ret`).
    pub rsp_at_call: i64,
    /// Function the caller was in (its options are restored on return).
    pub caller_fn: u64,
}

/// Shadow slots by key (frame offset or global address): a vector sorted by
/// key, one entry per key. A world holds a few dozen at most and is cloned,
/// compared and walked against another world far more often than it is
/// written, so a clone is one copy, `==` one slice compare, and the
/// migration rules walk two of these in step ([`Slots::merge`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slots<K>(Vec<(K, Value)>);

impl<K> Default for Slots<K> {
    fn default() -> Self {
        Slots(Vec::new())
    }
}

impl<K: Ord + Copy> Slots<K> {
    #[inline]
    fn find(&self, k: K) -> Result<usize, usize> {
        self.0.binary_search_by_key(&k, |e| e.0)
    }

    /// The value at `k`, if the slot is tracked.
    #[inline]
    pub fn get(&self, k: K) -> Option<Value> {
        self.find(k).ok().map(|i| self.0[i].1)
    }

    /// Is the slot at `k` tracked?
    pub fn contains_key(&self, k: K) -> bool {
        self.find(k).is_ok()
    }

    /// Track `v` at `k`, replacing what was there.
    pub fn insert(&mut self, k: K, v: Value) {
        match self.find(k) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (k, v)),
        }
    }

    /// Keep the slots `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(K, Value) -> bool) {
        self.0.retain(|&(k, v)| keep(k, v));
    }

    /// Every tracked value, in key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.0.iter_mut().map(|e| &mut e.1)
    }

    /// The `(key, value)` pairs, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, Value)> + '_ {
        self.0.iter().copied()
    }

    /// Both vectors walked in step: every key either tracks, in key order,
    /// with the value each side holds there.
    pub fn merge<'a>(&'a self, other: &'a Self) -> Merge<'a, K> {
        Merge(&self.0, &other.0)
    }
}

impl<K: Ord + Copy> FromIterator<(K, Value)> for Slots<K> {
    /// The last value given for a key wins.
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let mut v: Vec<(K, Value)> = iter.into_iter().collect();
        v.sort_by_key(|e| e.0); // stable: equal keys stay in the order given
        v.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Slots(v)
    }
}

/// Iterator of [`Slots::merge`]: `(key, value in self, value in other)`.
pub struct Merge<'a, K>(&'a [(K, Value)], &'a [(K, Value)]);

impl<K: Ord + Copy> Iterator for Merge<'_, K> {
    type Item = (K, Option<Value>, Option<Value>);

    fn next(&mut self) -> Option<Self::Item> {
        let key = match (self.0.first(), self.1.first()) {
            (None, None) => return None,
            (Some(a), None) => a.0,
            (None, Some(b)) => b.0,
            (Some(a), Some(b)) => a.0.min(b.0),
        };
        let take = |side: &mut &[(K, Value)]| match side.first() {
            Some(&(k, v)) if k == key => {
                *side = &side[1..];
                Some(v)
            }
            _ => None,
        };
        Some((key, take(&mut self.0), take(&mut self.1)))
    }
}

/// The complete known-world state at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct World {
    /// GPR states, indexed by register number.
    pub regs: [RegState; 16],
    /// XMM states, indexed by register number.
    pub xmm: [XmmState; 16],
    /// Abstract flags.
    pub flags: FlagsVal,
    /// Shadow stack frame: 8-byte slots keyed by entry-RSP-relative offset.
    /// Absent means unknown (the stack is never declared known memory).
    pub frame: Slots<i64>,
    /// Shadow of emitted stores to constant (global) addresses, 8-byte
    /// slots keyed by address. Absent means "original image bytes";
    /// `Unknown` means poisoned by a store we couldn't track.
    pub gshadow: Slots<u64>,
    /// A frame address escaped into an emitted non-address computation or
    /// memory; unknown stores may now alias the frame.
    pub frame_escaped: bool,
    /// Inline call stack (innermost last).
    pub inline_stack: Vec<InlineFrame>,
    /// The function currently being traced (its [`FuncOpts`](crate::FuncOpts) apply).
    pub cur_fn: u64,
}

impl World {
    /// Entry world for rewriting the function at `entry`: everything
    /// unknown, RSP = `StackRel(0)`.
    pub fn entry(entry: u64) -> World {
        let mut w = World {
            regs: [RegState::UNKNOWN; 16],
            xmm: [XmmState::UNKNOWN; 16],
            flags: FlagsVal::Unknown,
            frame: Slots::default(),
            gshadow: Slots::default(),
            frame_escaped: false,
            inline_stack: Vec::new(),
            cur_fn: entry,
        };
        w.regs[Gpr::Rsp.number() as usize] = RegState {
            val: Value::StackRel(0),
            synced: true,
        };
        w
    }

    /// Read a GPR's abstract state.
    #[inline]
    pub fn reg(&self, r: Gpr) -> RegState {
        self.regs[r.number() as usize]
    }

    /// Write a GPR's abstract state.
    #[inline]
    pub fn set_reg(&mut self, r: Gpr, s: RegState) {
        self.regs[r.number() as usize] = s;
    }

    /// Read an XMM register's abstract state.
    #[inline]
    pub fn xmm(&self, x: Xmm) -> XmmState {
        self.xmm[x.number() as usize]
    }

    /// Write an XMM register's abstract state.
    #[inline]
    pub fn set_xmm(&mut self, x: Xmm, s: XmmState) {
        self.xmm[x.number() as usize] = s;
    }

    /// Current RSP offset (always tracked; RSP writes are always emitted).
    pub fn rsp_off(&self) -> i64 {
        match self.reg(Gpr::Rsp).val {
            Value::StackRel(o) => o,
            other => unreachable!("rsp degraded to {other:?}"),
        }
    }

    /// Read an 8-byte frame slot.
    pub fn frame_slot(&self, off: i64) -> Value {
        self.frame.get(off).unwrap_or(Value::Unknown)
    }

    /// Write an 8-byte frame slot.
    pub fn set_frame_slot(&mut self, off: i64, v: Value) {
        self.frame.insert(off, v);
    }

    /// Forget every frame slot strictly below `off` (dead temp space after
    /// a non-inlined call returns).
    pub fn invalidate_frame_below(&mut self, off: i64) {
        self.frame.retain(|k, _| k >= off);
    }

    /// Poison all tracked state an untracked store could alias: global
    /// shadow entries and, when the frame escaped, frame slots.
    pub fn clobber_for_unknown_store(&mut self) {
        for v in self.gshadow.values_mut() {
            *v = Value::Unknown;
        }
        if self.frame_escaped {
            for v in self.frame.values_mut() {
                *v = Value::Unknown;
            }
        }
    }

    /// What the tracer's variant search compares before it compares worlds:
    /// a fold over the register values and the frame and global-shadow
    /// slots — what tells the variants of one address apart in practice
    /// (loop counters, induction addresses, spilled copies of both). Equal
    /// worlds have equal digests; worlds that differ only elsewhere (an xmm
    /// lane, a `synced` bit, the flags, the inline stack) collide, which
    /// costs the search one full comparison and nothing else.
    pub fn digest(&self) -> u64 {
        fn word(v: Value) -> u64 {
            match v {
                Value::Unknown => 0,
                Value::Const(c) => c ^ 0x9e37_79b9_7f4a_7c15,
                Value::StackRel(o) => o as u64 ^ 0xc2b2_ae3d_27d4_eb4f,
            }
        }
        let mut h = WordHasher::default();
        for r in &self.regs {
            h.write_u64(word(r.val));
        }
        // Keys are small multiples of 8: moved to the high half they meet
        // the low bits of a value, one word per slot.
        for (k, v) in self.frame.iter() {
            h.write_u64((k as u64).rotate_left(32) ^ word(v));
        }
        for (k, v) in self.gshadow.iter() {
            h.write_u64(k.rotate_left(32) ^ word(v));
        }
        h.finish()
    }

    /// Can a path in state `self` branch into a block traced under `target`
    /// with only *materializing* compensation (no knowledge invention)?
    ///
    /// Rules (§III.F): a location the target treats as unknown accepts
    /// anything (memory is always architecturally correct; registers get
    /// materialized by [`World::migration_plan`]); a location the target
    /// knows must be known here with the same value. Stack depth, inline
    /// context and escape state must match exactly.
    pub fn can_migrate_to(&self, target: &World) -> bool {
        if self.cur_fn != target.cur_fn
            || self.rsp_off() != target.rsp_off()
            || self.frame_escaped != target.frame_escaped
        {
            return false;
        }
        // Flags: target must not know more than we do.
        match (target.flags, self.flags) {
            (FlagsVal::Unknown, _) => {}
            (FlagsVal::Known(t), FlagsVal::Known(s)) if t == s => {}
            _ => return false,
        }
        // A value the target knows and we do not hold. Registers and frame
        // slots first: they are what tells the iterations of a loop apart,
        // so most candidates of a migration are turned down here.
        let conflict = |t: Value, s: Value| t.is_known() && s != t;
        if (0..16).any(|i| conflict(target.regs[i].val, self.regs[i].val)) {
            return false;
        }
        // Frame: absent == Unknown, so only what the target knows binds.
        for (_, sv, tv) in self.frame.merge(&target.frame) {
            if tv.is_some_and(|tv| conflict(tv, sv.unwrap_or(Value::Unknown))) {
                return false;
            }
        }
        // Global shadow: absent means "image bytes", which is NOT unknown —
        // strict matching except target-poisoned entries. A slot only we
        // track is a mismatch even when poisoned: the target would fold
        // reads from image bytes that may have been overwritten.
        for (_, sv, tv) in self.gshadow.merge(&target.gshadow) {
            match tv {
                Some(Value::Unknown) => {}
                Some(tv) if sv == Some(tv) => {}
                _ => return false,
            }
        }
        let lanes = |w: &World, i: usize| w.xmm[i / 2].lanes[i % 2];
        !(0..32).any(|i| conflict(lanes(target, i), lanes(self, i)))
            && self.inline_stack == target.inline_stack
    }

    /// Registers that must be materialized when branching from `self` into
    /// a block traced under `target` (assuming [`World::can_migrate_to`]).
    ///
    /// A register needs materialization when it is known-but-unsynced here
    /// and the target either treats it as unknown (it will use the
    /// architectural value) or requires it synced.
    pub fn migration_plan(&self, target: &World) -> MaterializeSet {
        let mut out = MaterializeSet::default();
        for i in 0..16 {
            let (s, t) = (self.regs[i], target.regs[i]);
            if s.val.is_known() && !s.synced {
                let needed = match t.val {
                    Value::Unknown => true,
                    _ => t.synced,
                };
                if needed {
                    out.gprs.push((Gpr::from_number(i as u8), s.val));
                }
            }
        }
        for i in 0..16 {
            let (s, t) = (&self.xmm[i], &target.xmm[i]);
            if !s.synced && s.lanes.iter().any(|l| l.is_known()) {
                let needed = t.lanes.iter().all(|l| matches!(l, Value::Unknown)) || t.synced;
                if needed {
                    out.xmms.push((Xmm::from_number(i as u8), s.lanes[0]));
                }
            }
        }
        out
    }

    /// Build the demoted world `W''` used when no existing variant is a
    /// migration target: keep locations that agree with `closest`, demote
    /// the rest to unknown (the paper's "migrate to a state where
    /// corresponding values become unknown").
    pub fn demote_toward(&self, closest: &World) -> World {
        // A slot keeps its value where both agree; the rest of ours, and
        // every frame slot only `closest` tracks, is unknown.
        fn agreed<K>((k, s, c): (K, Option<Value>, Option<Value>)) -> (K, Value) {
            match s {
                Some(v) if s == c => (k, v),
                _ => (k, Value::Unknown),
            }
        }
        let ours = self.gshadow.merge(&closest.gshadow);
        let mut w = World {
            frame: Slots(self.frame.merge(&closest.frame).map(agreed).collect()),
            gshadow: Slots(ours.filter(|m| m.1.is_some()).map(agreed).collect()),
            inline_stack: self.inline_stack.clone(),
            ..*self
        };
        for i in 0..16 {
            if i == Gpr::Rsp.number() as usize {
                continue; // rsp stays tracked
            }
            if w.regs[i] != closest.regs[i] {
                w.regs[i] = RegState::UNKNOWN;
            }
        }
        for i in 0..16 {
            if w.xmm[i] != closest.xmm[i] {
                w.xmm[i] = XmmState::UNKNOWN;
            }
        }
        if w.flags != closest.flags {
            w.flags = FlagsVal::Unknown;
        }
        w
    }

    /// Fully demoted world: everything unknown except stack *structure* —
    /// RSP and every stack-relative value (frame pointers of the traced
    /// activations) stay tracked, since epilogues need them and they are
    /// invariant across loop iterations anyway. Termination anchor of the
    /// migration algorithm.
    pub fn fully_demoted(&self) -> World {
        let mut w = World::entry(self.cur_fn);
        w.cur_fn = self.cur_fn;
        w.inline_stack = self.inline_stack.clone();
        w.frame_escaped = self.frame_escaped;
        for i in 0..16 {
            if matches!(self.regs[i].val, Value::StackRel(_)) {
                w.regs[i] = self.regs[i];
            }
        }
        // Poison every global slot we ever stored to (absent would claim
        // "original bytes"); keep stack-relative slot values (saved frame
        // pointers of inlined activations).
        w.gshadow = self.gshadow.clone();
        w.gshadow.values_mut().for_each(|v| *v = Value::Unknown);
        w.frame = self.frame.clone();
        for v in w.frame.values_mut() {
            if !matches!(v, Value::StackRel(_)) {
                *v = Value::Unknown;
            }
        }
        w
    }
}

/// Registers to materialize as compensation code.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MaterializeSet {
    /// GPRs with the value to load.
    pub gprs: Vec<(Gpr, Value)>,
    /// XMM registers with the low-lane bit pattern to load.
    pub xmms: Vec<(Xmm, Value)>,
}

impl MaterializeSet {
    /// No registers to materialize.
    pub fn is_empty(&self) -> bool {
        self.gprs.is_empty() && self.xmms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_world_shape() {
        let w = World::entry(0x400000);
        assert_eq!(w.rsp_off(), 0);
        assert_eq!(w.reg(Gpr::Rax).val, Value::Unknown);
        assert!(w.reg(Gpr::Rax).synced);
        assert_eq!(w.frame_slot(-8), Value::Unknown);
    }

    #[test]
    fn digest_distinguishes_values() {
        let w1 = World::entry(0x400000);
        let mut w2 = w1.clone();
        w2.set_reg(
            Gpr::Rdi,
            RegState {
                val: Value::Const(42),
                synced: true,
            },
        );
        assert_ne!(w1.digest(), w2.digest());
        assert_eq!(w1.digest(), w1.clone().digest());
    }

    #[test]
    fn migration_compatibility() {
        let base = World::entry(0x400000);
        let mut known = base.clone();
        known.set_reg(
            Gpr::Rcx,
            RegState {
                val: Value::Const(7),
                synced: false,
            },
        );

        // Known state can migrate to the all-unknown state...
        assert!(known.can_migrate_to(&base));
        // ...but not the reverse (can't invent knowledge).
        assert!(!base.can_migrate_to(&known));
        // Equal knowledge migrates trivially.
        assert!(known.can_migrate_to(&known));

        // Conflicting constants can't migrate.
        let mut other = base.clone();
        other.set_reg(
            Gpr::Rcx,
            RegState {
                val: Value::Const(9),
                synced: false,
            },
        );
        assert!(!known.can_migrate_to(&other));
    }

    #[test]
    fn migration_plan_materializes_unsynced() {
        let base = World::entry(0x400000);
        let mut known = base.clone();
        known.set_reg(
            Gpr::Rcx,
            RegState {
                val: Value::Const(7),
                synced: false,
            },
        );
        known.set_reg(
            Gpr::Rdx,
            RegState {
                val: Value::Const(9),
                synced: true,
            },
        );

        let plan = known.migration_plan(&base);
        // rcx is known-unsynced and demoted -> materialize; rdx is synced
        // already -> architectural value is correct, nothing to emit.
        assert_eq!(plan.gprs, vec![(Gpr::Rcx, Value::Const(7))]);
        assert!(plan.xmms.is_empty());
    }

    #[test]
    fn stack_depth_must_match() {
        let base = World::entry(0x400000);
        let mut deeper = base.clone();
        deeper.set_reg(
            Gpr::Rsp,
            RegState {
                val: Value::StackRel(-16),
                synced: true,
            },
        );
        assert!(!deeper.can_migrate_to(&base));
    }

    #[test]
    fn gshadow_absent_is_not_unknown() {
        let base = World::entry(0x400000);
        let mut stored = base.clone();
        stored.gshadow.insert(0x600000, Value::Const(1));
        // Target assumed original image bytes at 0x600000; we overwrote.
        assert!(!stored.can_migrate_to(&base));
        // A target that poisoned the slot accepts us.
        let mut poisoned = base.clone();
        poisoned.gshadow.insert(0x600000, Value::Unknown);
        assert!(stored.can_migrate_to(&poisoned));
    }

    #[test]
    fn demotion_converges() {
        let base = World::entry(0x400000);
        let mut a = base.clone();
        a.set_reg(
            Gpr::Rcx,
            RegState {
                val: Value::Const(1),
                synced: false,
            },
        );
        let mut b = base.clone();
        b.set_reg(
            Gpr::Rcx,
            RegState {
                val: Value::Const(2),
                synced: false,
            },
        );

        let d = a.demote_toward(&b);
        assert_eq!(d.reg(Gpr::Rcx).val, Value::Unknown);
        // Demoted world accepts both sides.
        assert!(a.can_migrate_to(&d));
        assert!(b.can_migrate_to(&d));

        let full = a.fully_demoted();
        assert!(a.can_migrate_to(&full));
        assert!(b.can_migrate_to(&full));
    }

    #[test]
    fn clobber_unknown_store() {
        let mut w = World::entry(0x400000);
        w.gshadow.insert(0x600000, Value::Const(5));
        w.frame.insert(-8, Value::Const(6));
        w.clobber_for_unknown_store();
        assert_eq!(w.gshadow.get(0x600000), Some(Value::Unknown));
        // Frame survives while not escaped.
        assert_eq!(w.frame_slot(-8), Value::Const(6));
        w.frame_escaped = true;
        w.clobber_for_unknown_store();
        assert_eq!(w.frame_slot(-8), Value::Unknown);
    }
}
