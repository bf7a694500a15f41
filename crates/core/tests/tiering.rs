//! Adaptive tiering: the counter → specialization loop under adversarial
//! schedules. Promotion from observed misses, demotion of cold residents,
//! hysteresis against flapping, negative-cache backoff on the promotion
//! path, safety of demotion racing an in-flight caller, counter wrap
//! tolerance, and heat-gated re-specialization after invalidation.

use brew_core::telemetry::metrics::Ctr;
use brew_core::{
    Invalidation, NegativePolicy, RetKind, SpecRequest, SpecializationManager, TieringConfig,
};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;
use proptest::prelude::*;
use std::sync::Arc;

const PROG: &str = r#"
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
    int dot(int* c, int x) {
        return c[0] * x + c[1];
    }
"#;

fn setup() -> (Image, brew_minic::Compiled) {
    let img = Image::new();
    let prog = brew_minic::compile_into(PROG, &img).unwrap();
    (img, prog)
}

fn poly_req(n: i64) -> SpecRequest {
    SpecRequest::new()
        .unknown_int()
        .known_int(n)
        .ret(RetKind::Int)
}

/// A tight band the tests can cross in a handful of ticks.
fn cfg() -> TieringConfig {
    TieringConfig {
        promote_heat: 3.0,
        demote_heat: 1.0,
        decay: 0.5,
        cooldown_ticks: 1,
        cycle_weight: 0.0,
    }
}

/// Promotions, demotions and re-specializations so far, read off the
/// registry counters the tiering decisions bump.
fn tier_counts(mgr: &SpecializationManager) -> (u64, u64, u64) {
    let m = mgr.metrics();
    let c = |c: Ctr| m.counter(c).get();
    (
        c(Ctr::TierPromoted),
        c(Ctr::TierDemoted),
        c(Ctr::TierRespecialized),
    )
}

/// The end-to-end loop: misses heat a key until the policy promotes it
/// (specializing without any caller asking synchronously); starving it
/// cools it until the policy demotes it; and the hysteresis band plus
/// cooldown keep that from ever flapping — one promotion, at most one
/// demotion, over the whole schedule.
#[test]
fn misses_promote_starvation_demotes_and_nothing_flaps() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::builder().tiering(cfg()).build();
    let req = poly_req(6);
    let fp = req.fingerprint();

    // Hot phase: four misses per tick. Heat converges toward 8, crossing
    // the promote bar (3) on the second tick.
    let mut promoted_at = None;
    for round in 0..4 {
        for _ in 0..4 {
            let d = mgr.request(&img, poly, &req).unwrap();
            assert!(
                !d.is_specialized() || promoted_at.is_some(),
                "no variant may exist before the policy promotes"
            );
        }
        let s = mgr.tick(&img);
        assert_eq!(s.tick, round + 1);
        if s.promoted > 0 && promoted_at.is_none() {
            promoted_at = Some(s.tick);
        }
    }
    assert!(promoted_at.is_some(), "sustained misses must promote");
    assert!(mgr.is_resident(poly, fp), "promotion produced the variant");
    assert!(mgr.heat_of(poly, fp).unwrap() > 1.0);

    // The promoted variant actually dispatches (and correctly).
    let v = mgr.request(&img, poly, &req).unwrap();
    assert!(v.is_specialized());
    let out = Machine::new()
        .call(&img, v.entry(), &CallArgs::new().int(2).int(0))
        .unwrap();
    assert_eq!(out.ret_int, 64, "2^6 via the promoted variant");

    // Cold phase: no traffic at all. Heat halves every tick; once it
    // falls through the demote bar the variant is removed — exactly once.
    for _ in 0..12 {
        mgr.tick(&img);
    }
    assert!(!mgr.is_resident(poly, fp), "starved variant was demoted");

    let (p, d, _) = tier_counts(&mgr);
    assert_eq!(p, 1, "one promotion, no flapping");
    assert_eq!(d, 1, "one demotion, no flapping");

    // The exports carry the same counts.
    let json = mgr.metrics().snapshot_json();
    assert!(json.contains("\"brew_tier_promoted_total\":1"), "{json}");
    assert!(json.contains("\"brew_tier_demoted_total\":1"), "{json}");
}

/// Traffic oscillating strictly inside the hysteresis band moves nothing:
/// the band exists precisely so borderline keys do not thrash the cache.
#[test]
fn oscillation_inside_the_band_takes_no_action() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::builder().tiering(cfg()).build();
    let req = poly_req(5);

    // Alternating 1/0 misses per tick keeps heat in (0.5, 2.0) after the
    // first tick — always above nothing-to-demote, below promote (3).
    for round in 0..20 {
        if round % 2 == 0 {
            mgr.request(&img, poly, &req).unwrap();
        }
        let s = mgr.tick(&img);
        assert_eq!((s.promoted, s.demoted), (0, 0), "tick {}: {s:?}", s.tick);
    }
    let (p, d, _) = tier_counts(&mgr);
    assert_eq!((p, d), (0, 0));
    assert!(!mgr.is_resident(poly, req.fingerprint()));
}

/// A fingerprint inside its negative backoff window is not promoted no
/// matter how hot it runs — and the tiering probe must not spend the
/// denial window real requests decay on.
#[test]
fn promotion_respects_negative_backoff() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::builder()
        .tiering(cfg())
        .negative_policy(NegativePolicy {
            base_backoff: 50,
            attempt_cap: 10,
        })
        .build();
    // Doomed: the loop blows a four-instruction trace budget every time.
    let req = poly_req(64).max_trace_insts(4);

    // Pay the failure once; the key is now negatively cached with a
    // 50-denial backoff window.
    mgr.get_or_rewrite(&img, poly, &req).unwrap_err();
    assert_eq!(mgr.stats().misses, 1);

    // Run the key scorching hot: 48 denied requests across 8 ticks. Every
    // tick's promotion attempt must be suppressed by the backoff, and the
    // suppression probe must not consume denials — if the 8 ticks each
    // spent one, the window (50) would expire mid-loop and a promotion
    // would re-trace, bumping `misses`.
    for _ in 0..8 {
        for _ in 0..6 {
            let d = mgr.request(&img, poly, &req).unwrap();
            assert!(!d.is_specialized(), "denied keys dispatch the original");
        }
        let s = mgr.tick(&img);
        assert_eq!(s.promoted, 0, "backoff must veto promotion: {s:?}");
    }
    assert!(mgr.heat_of(poly, req.fingerprint()).unwrap() > cfg().promote_heat);
    assert_eq!(mgr.stats().misses, 1, "nothing re-traced");
    assert!(mgr.is_empty());

    // Exact accounting: the 48 requests spent 48 of the 50 denials and the
    // ticks spent none. Two more requests drain the window...
    mgr.request(&img, poly, &req).unwrap();
    mgr.request(&img, poly, &req).unwrap();
    assert_eq!(mgr.stats().misses, 1, "denials 49 and 50 still denied");
    // ...and exactly now the retry slot opens: the next synchronous call
    // re-traces (and fails afresh) instead of returning the memoized error.
    let err = mgr.get_or_rewrite(&img, poly, &req).unwrap_err();
    assert!(
        matches!(err, brew_core::RewriteError::TraceBudget),
        "{err:?}"
    );
    assert_eq!(mgr.stats().misses, 2, "the 51st consult was the retry");
}

/// Demotion only unpublishes: a caller holding the variant's entry from
/// before the demotion keeps executing valid code (the JIT segment is a
/// bump allocator — demoted bytes are never reused), and the retained
/// request lets the key come straight back when it reheats.
#[test]
fn demotion_races_in_flight_callers_safely_and_repromotes() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::builder().tiering(cfg()).build();
    let req = poly_req(4);
    let fp = req.fingerprint();

    // Synchronous insert (tiering never blocks the synchronous path).
    let v = mgr.get_or_rewrite(&img, poly, &req).unwrap();
    assert!(mgr.is_resident(poly, fp));

    // Cold from birth: the first tick that clears the cooldown demotes.
    while mgr.is_resident(poly, fp) {
        assert!(mgr.tick(&img).tick < 10, "demotion never happened");
    }

    // The in-flight caller still dispatches through its stale pointer.
    let out = Machine::new()
        .call(&img, v.entry, &CallArgs::new().int(3).int(0))
        .unwrap();
    assert_eq!(out.ret_int, 81, "demoted code stays executable");

    // Reheat the key: promotion replays the request retained at demotion
    // — no caller ever rebuilt the SpecRequest.
    let mut promoted = false;
    for _ in 0..6 {
        for _ in 0..4 {
            mgr.request(&img, poly, &req).unwrap();
        }
        if mgr.tick(&img).promoted > 0 {
            promoted = true;
            break;
        }
    }
    assert!(promoted, "retained request re-promotes");
    assert!(mgr.is_resident(poly, fp));
    let v2 = mgr.get_or_rewrite(&img, poly, &req).unwrap();
    assert!(!Arc::ptr_eq(&v, &v2), "fresh code at a fresh address");
}

/// Counter slots are read without synchronization and may wrap, reset, or
/// tear. Deltas clamp at zero, so even a slot that travels backwards by
/// nearly `u64::MAX` can never drive a heat score negative.
#[test]
fn counter_wrap_saturates_instead_of_corrupting_heat() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::builder().tiering(cfg()).build();
    let req = poly_req(3);
    let fp = req.fingerprint();
    mgr.get_or_rewrite(&img, poly, &req).unwrap();
    let (_, page) = mgr.build_dispatcher_counting(&img, poly, poly).unwrap();

    // Forge a slot just under wrap-around, sample it, then let it "wrap"
    // to a small value.
    img.write_u64(page.slot_addr(0), u64::MAX - 1).unwrap();
    mgr.tick(&img);
    let hot = mgr.heat_of(poly, fp).unwrap();
    assert!(hot > 0.0 && hot.is_finite());

    img.write_u64(page.slot_addr(0), 2).unwrap();
    for _ in 0..5 {
        mgr.tick(&img);
        let h = mgr.heat_of(poly, fp).unwrap();
        assert!(h >= 0.0 && h.is_finite(), "wrapped counter must clamp: {h}");
    }
    // And the backwards slot contributed zero, so heat strictly decayed.
    assert!(mgr.heat_of(poly, fp).unwrap() < hot);
}

/// Stub traffic (counter-page deltas) counts as heat even though it never
/// calls into the manager: a variant dispatched only through its stub
/// stays resident while an idle sibling decays out.
#[test]
fn stub_traffic_keeps_a_variant_resident() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::builder().tiering(cfg()).build();
    let hot = poly_req(3);
    let idle = poly_req(9);
    mgr.get_or_rewrite(&img, poly, &hot).unwrap();
    mgr.get_or_rewrite(&img, poly, &idle).unwrap();
    let (stub, _page) = mgr.build_dispatcher_counting(&img, poly, poly).unwrap();

    // Only the stub is called, and only with the hot fingerprint's value.
    let mut m = Machine::new();
    for round in 0..10 {
        for _ in 0..4 {
            let out = m.call(&img, stub, &CallArgs::new().int(2).int(3)).unwrap();
            assert_eq!(out.ret_int, 8);
        }
        mgr.tick(&img);
        if round >= 2 {
            assert!(
                mgr.is_resident(poly, hot.fingerprint()),
                "stub-only traffic must keep the hot variant resident"
            );
        }
    }
    assert!(
        !mgr.is_resident(poly, idle.fingerprint()),
        "the idle sibling decayed out"
    );
    assert!(mgr.heat_of(poly, hot.fingerprint()).unwrap() > cfg().promote_heat);
}

/// After invalidation, re-specialization is heat-gated: the hot stale
/// variant is rebuilt inside the sweep, without any caller's help; the
/// cold one just dies.
#[test]
fn respecialization_is_heat_gated() {
    let (img, prog) = setup();
    let dot = prog.func("dot").unwrap();
    let mgr = SpecializationManager::builder()
        // A cooldown far past the test horizon: ticks here only *sample*
        // heat — the cold resident must still be resident (not demoted)
        // when the invalidation sweep judges it.
        .tiering(TieringConfig {
            cooldown_ticks: 1000,
            ..cfg()
        })
        .build();
    let block = |v0: u64, v1: u64| {
        let p = img.alloc_heap(16, 8);
        img.write_u64(p, v0).unwrap();
        img.write_u64(p + 8, v1).unwrap();
        p
    };
    let (a, b) = (block(3, 7), block(4, 9));
    let req_of = |p: u64| {
        SpecRequest::new()
            .ptr_to_known(p, 16)
            .unknown_int()
            .ret(RetKind::Int)
    };
    let (hot, cold) = (req_of(a), req_of(b));
    mgr.get_or_rewrite(&img, dot, &hot).unwrap();
    mgr.get_or_rewrite(&img, dot, &cold).unwrap();

    // Heat only the first key (cache hits feed heat for resident keys).
    for _ in 0..3 {
        for _ in 0..6 {
            mgr.get_or_rewrite(&img, dot, &hot).unwrap();
        }
        mgr.tick(&img);
    }
    assert!(mgr.heat_of(dot, hot.fingerprint()).unwrap() > 1.0);
    assert!(mgr.heat_of(dot, cold.fingerprint()).unwrap() <= 1.0);

    // Invalidate both folds; the sweep itself rebuilds only the hot one.
    img.write_u64(a, 30).unwrap();
    img.write_u64(b, 40).unwrap();
    assert_eq!(mgr.apply_invalidation(Invalidation::Revalidate(&img)), 2);
    assert!(
        mgr.is_resident(dot, hot.fingerprint()),
        "hot stale variant was re-specialized by the sweep"
    );
    assert!(
        !mgr.is_resident(dot, cold.fingerprint()),
        "cold stale variant must die unrebuilt"
    );
    let (_, _, r) = tier_counts(&mgr);
    assert_eq!(r, 1, "exactly one re-specialization");

    // The rebuilt variant folded the *new* data.
    let v = mgr.get_or_rewrite(&img, dot, &hot).unwrap();
    let out = Machine::new()
        .call(&img, v.entry, &CallArgs::new().ptr(a).int(10))
        .unwrap();
    assert_eq!(out.ret_int, 307);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Between samples heat only decays: with no input it is strictly
    /// non-increasing, never negative, and never spontaneously crosses
    /// the promote threshold — one burst cannot hold a key hot forever.
    #[test]
    fn heat_decays_monotonically_between_samples(
        burst in 1u64..60, quiet_ticks in 1usize..20,
    ) {
        let (img, prog) = setup();
        let poly = prog.func("poly").unwrap();
        let mgr = SpecializationManager::builder()
            .tiering(TieringConfig {
                // Unreachable bar: this property is about decay, not
                // promotion side effects.
                promote_heat: f64::MAX,
                demote_heat: 1.0,
                decay: 0.5,
                cooldown_ticks: 1,
                cycle_weight: 0.0,
            })
            .build();
        let req = poly_req(5);
        for _ in 0..burst {
            mgr.request(&img, poly, &req).unwrap();
        }
        mgr.tick(&img);
        let mut prev = mgr.heat_of(poly, req.fingerprint()).unwrap();
        prop_assert!((prev - burst as f64).abs() < 1e-9);
        for _ in 0..quiet_ticks {
            mgr.tick(&img);
            let h = mgr.heat_of(poly, req.fingerprint()).unwrap();
            prop_assert!(h >= 0.0);
            prop_assert!(h <= prev, "heat rose without input: {prev} -> {h}");
            prev = h;
        }
    }
}
