//! Property tests over the known-world state algebra (§III.F): the
//! migration compatibility relation, demotion and the digest must obey the
//! laws the tracer's block-identity and loop-closure logic relies on, and
//! the slot vector under a world's shadows must behave as the map it is.

use brew_core::value::{FlagsVal, Value};
use brew_core::world::{RegState, Slots, World, XmmState};
use brew_x86::cond::Flags;
use brew_x86::reg::{Gpr, Xmm};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => Just(Value::Unknown),
        3 => any::<u64>().prop_map(Value::Const),
        1 => (-64i64..0).prop_map(|o| Value::StackRel(o * 8)),
    ]
}

fn arb_regstate() -> impl Strategy<Value = RegState> {
    (arb_value(), any::<bool>()).prop_map(|(val, s)| RegState {
        val,
        // Unknown values are always synced by invariant.
        synced: s || matches!(val, Value::Unknown),
    })
}

fn arb_flags() -> impl Strategy<Value = FlagsVal> {
    prop_oneof![
        Just(FlagsVal::Unknown),
        (any::<bool>(), any::<bool>(), any::<bool>()).prop_map(|(cf, zf, sf)| {
            FlagsVal::Known(Flags {
                cf,
                zf,
                sf,
                of: false,
                pf: false,
            })
        }),
    ]
}

prop_compose! {
    fn arb_world()(
        regs in proptest::collection::vec(arb_regstate(), 15),
        xmm0 in arb_value(),
        flags in arb_flags(),
        frame in proptest::collection::btree_map(-8i64..0, arb_value(), 0..4),
        gshadow in proptest::collection::btree_map(0u64..4, arb_value(), 0..3),
    ) -> World {
        let mut w = World::entry(0x40_0000);
        for (i, r) in regs.into_iter().enumerate() {
            let n = if i >= Gpr::Rsp.number() as usize { i + 1 } else { i };
            w.regs[n] = r;
        }
        w.set_xmm(Xmm::Xmm0, XmmState {
            lanes: [xmm0, Value::Unknown],
            synced: true,
        });
        w.flags = flags;
        w.frame = frame.into_iter().map(|(k, v)| (k * 8, v)).collect();
        w.gshadow = gshadow.into_iter().map(|(k, v)| (0x60_0000 + k * 8, v)).collect();
        w
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn migration_is_reflexive(w in arb_world()) {
        prop_assert!(w.can_migrate_to(&w));
        prop_assert!(w.migration_plan(&w).is_empty());
    }

    /// Equal worlds ⇒ equal digests, however the equal world was built:
    /// the tracer compares worlds only where digests match, so a digest
    /// that moved with insertion order would fork blocks that are one.
    #[test]
    fn equal_worlds_have_equal_digests(w in arb_world()) {
        let mut rebuilt = World::entry(w.cur_fn);
        rebuilt.regs = w.regs;
        rebuilt.xmm = w.xmm;
        rebuilt.flags = w.flags;
        for (k, v) in w.frame.iter().collect::<Vec<_>>().into_iter().rev() {
            rebuilt.set_frame_slot(k, Value::Unknown);
            rebuilt.set_frame_slot(k, v);
        }
        for (k, v) in w.gshadow.iter().collect::<Vec<_>>().into_iter().rev() {
            rebuilt.gshadow.insert(k, v);
        }
        prop_assert_eq!(&rebuilt, &w);
        prop_assert_eq!(rebuilt.digest(), w.digest());
    }

    /// The digest covers register values and shadow slots: changing one
    /// changes it (up to a collision these small worlds do not produce).
    #[test]
    fn digest_sees_registers_and_slots(w in arb_world(), v in any::<u64>()) {
        let fresh = Value::Const(v);
        let mut r = w.clone();
        r.set_reg(Gpr::Rcx, RegState { val: fresh, synced: false });
        prop_assert_eq!(r.digest() == w.digest(), r.regs == w.regs);
        let mut f = w.clone();
        f.set_frame_slot(-8, fresh);
        prop_assert_eq!(f.digest() == w.digest(), f.frame == w.frame);
        let mut g = w.clone();
        g.gshadow.insert(0x60_0000, fresh);
        prop_assert_eq!(g.digest() == w.digest(), g.gshadow == w.gshadow);
    }

    #[test]
    fn demotion_accepts_both_sides(a in arb_world(), b in arb_world()) {
        let d = a.demote_toward(&b);
        prop_assert!(
            a.can_migrate_to(&d),
            "source must migrate into its own demotion\n{a:#?}\n{d:#?}"
        );
    }

    #[test]
    fn fully_demoted_is_universal_target(w in arb_world()) {
        let f = w.fully_demoted();
        prop_assert!(w.can_migrate_to(&f));
        // And it is a fixpoint.
        prop_assert_eq!(f.fully_demoted(), f.clone());
        prop_assert!(f.can_migrate_to(&f));
    }

    #[test]
    fn migration_is_transitive_enough(a in arb_world()) {
        // a -> demote(a, entry) -> fully_demoted chains must hold.
        let entry = World::entry(0x40_0000);
        let d = a.demote_toward(&entry);
        let f = a.fully_demoted();
        if a.can_migrate_to(&d) && d.can_migrate_to(&f) {
            prop_assert!(a.can_migrate_to(&f));
        }
    }

    #[test]
    fn plan_only_materializes_known_unsynced(a in arb_world(), b in arb_world()) {
        if a.can_migrate_to(&b) {
            let plan = a.migration_plan(&b);
            for (r, v) in &plan.gprs {
                let st = a.reg(*r);
                prop_assert!(st.val.is_known() && !st.synced);
                prop_assert_eq!(*v, st.val);
            }
        }
    }

    #[test]
    fn knowing_more_never_helps_the_target(a in arb_world()) {
        // If the target knows a register the source doesn't, migration must
        // be rejected.
        let mut target = a.clone();
        let mut source = a.clone();
        source.set_reg(Gpr::Rcx, RegState { val: Value::Unknown, synced: true });
        target.set_reg(Gpr::Rcx, RegState { val: Value::Const(1), synced: false });
        prop_assert!(!source.can_migrate_to(&target));
    }
}

/// One step of the slot-vector model test.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, Value),
    RetainAtLeast(i64),
    PoisonAll,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (-8i64..8, arb_value()).prop_map(|(k, v)| Op::Insert(k * 8, v)),
        1 => (-8i64..8).prop_map(|k| Op::RetainAtLeast(k * 8)),
        1 => Just(Op::PoisonAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Slots` against `BTreeMap` under the operations the tracer uses:
    /// insert/overwrite, get, `retain`, `values_mut`, iteration order, `==`
    /// and `collect` (last value of a key wins).
    #[test]
    fn slots_behave_as_a_sorted_map(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut slots: Slots<i64> = Slots::default();
        let mut model: BTreeMap<i64, Value> = BTreeMap::new();
        let mut inserted = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    slots.insert(k, v);
                    model.insert(k, v);
                    inserted.push((k, v));
                }
                Op::RetainAtLeast(lo) => {
                    slots.retain(|k, _| k >= lo);
                    model.retain(|&k, _| k >= lo);
                    inserted.retain(|&(k, _)| k >= lo);
                }
                Op::PoisonAll => {
                    slots.values_mut().for_each(|v| *v = Value::Unknown);
                    model.values_mut().for_each(|v| *v = Value::Unknown);
                    inserted.iter_mut().for_each(|e| e.1 = Value::Unknown);
                }
            }
            let pairs: Vec<(i64, Value)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(slots.iter().collect::<Vec<_>>(), pairs);
            for k in (-9..9).map(|k| k * 8) {
                prop_assert_eq!(slots.get(k), model.get(&k).copied());
                prop_assert_eq!(slots.contains_key(k), model.contains_key(&k));
            }
        }
        // Built in one go from the same history (duplicates and all), and
        // from the sorted pairs, it is the same vector.
        prop_assert_eq!(&inserted.iter().copied().collect::<Slots<i64>>(), &slots);
        prop_assert_eq!(&model.into_iter().collect::<Slots<i64>>(), &slots);
    }

    /// `merge` visits the union of both key sets once, in order, with each
    /// side's value — what `can_migrate_to`, `demote_toward` and the
    /// tracer's distance walk instead of one lookup per key.
    #[test]
    fn merge_walks_the_union_in_key_order(
        a in proptest::collection::btree_map(-8i64..8, arb_value(), 0..8),
        b in proptest::collection::btree_map(-8i64..8, arb_value(), 0..8),
    ) {
        let (sa, sb): (Slots<i64>, Slots<i64>) =
            (a.clone().into_iter().collect(), b.clone().into_iter().collect());
        let keys: std::collections::BTreeSet<i64> = a.keys().chain(b.keys()).copied().collect();
        let want: Vec<_> = keys
            .into_iter()
            .map(|k| (k, a.get(&k).copied(), b.get(&k).copied()))
            .collect();
        prop_assert_eq!(sa.merge(&sb).collect::<Vec<_>>(), want);
    }
}
