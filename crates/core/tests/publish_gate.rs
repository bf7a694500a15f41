//! The `verify_on_publish` policy: a publish gate inspects every finished
//! rewrite before it becomes visible. A rejected variant is never
//! published — it is denied, negatively cached, counted, and dispatch
//! falls back to the original.

use brew_core::telemetry::flight::FlightKind;
use brew_core::telemetry::metrics::{Ctr, Hst};
use brew_core::{
    Dispatch, NegativePolicy, PublishRejection, RetKind, RewriteError, SpecRequest,
    SpecializationManager, TieringConfig,
};
use brew_image::Image;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const PROG: &str = r#"
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
"#;

fn setup() -> (Image, u64) {
    let img = Image::new();
    let prog = brew_minic::compile_into(PROG, &img).unwrap();
    let poly = prog.func("poly").unwrap();
    (img, poly)
}

fn poly_req(n: i64) -> SpecRequest {
    SpecRequest::new()
        .unknown_int()
        .known_int(n)
        .ret(RetKind::Int)
}

#[test]
fn accepting_gate_publishes_and_counts() {
    let (img, poly) = setup();
    let seen = Arc::new(AtomicUsize::new(0));
    let seen2 = Arc::clone(&seen);
    let mgr = SpecializationManager::builder()
        .publish_gate(Box::new(
            move |_img: &Image, func: u64, _req: &SpecRequest, res: &brew_core::RewriteResult| {
                assert!(res.code_len > 0);
                assert!(func > 0);
                seen2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        ))
        .build();
    let v = mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    assert!(v.code_len > 0);
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    // A cache hit must not re-run the gate.
    mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    assert_eq!(seen.load(Ordering::SeqCst), 1);
    let m = mgr.metrics();
    assert_eq!(m.counter(Ctr::VerifyPassed).get(), 1);
    assert_eq!(m.counter(Ctr::VerifyRejected).get(), 0);
    assert_eq!(m.histogram(Hst::VerifyNs).count(), 1);
}

/// One gate run is timed once: `brew_verify_ns_sum` and the `ns` word of
/// the `VERIFY_OK` record are the same clock reading, not two.
#[test]
fn histogram_and_journal_agree_on_the_gate_time() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::builder()
        .publish_gate(Box::new(
            |_: &Image, _: u64, _: &SpecRequest, _: &brew_core::RewriteResult| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                Ok(())
            },
        ))
        .build();
    mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    let dump = mgr.flight().dump();
    let ok: Vec<_> = dump
        .entries
        .iter()
        .filter(|e| e.kind == FlightKind::VerifyPass)
        .collect();
    assert_eq!(ok.len(), 1);
    assert_eq!(ok[0].args[0], poly);
    assert!(ok[0].args[1] >= 200_000, "the gate slept 200 µs");
    assert_eq!(ok[0].args[1], mgr.metrics().histogram(Hst::VerifyNs).sum());
}

#[test]
fn rejected_variant_is_never_published_and_denied_after() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::builder()
        .negative_policy(NegativePolicy {
            base_backoff: 1_000_000,
            attempt_cap: 10,
        })
        .publish_gate(Box::new(
            |_: &Image, _: u64, _: &SpecRequest, _: &brew_core::RewriteResult| {
                Err(PublishRejection {
                    findings: 3,
                    summary: "wild jump at 0x900000".into(),
                    equivalence: false,
                })
            },
        ))
        .build();
    let err = mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap_err();
    match &err {
        RewriteError::VerifyRejected { findings, first } => {
            assert_eq!(*findings, 3);
            assert!(first.contains("wild jump"));
        }
        other => panic!("expected VerifyRejected, got {other:?}"),
    }
    assert!(mgr.is_empty(), "rejected variant must not be cached");
    assert_eq!(mgr.metrics().counter(Ctr::VerifyRejected).get(), 1);

    // The rejection is negatively cached: dispatch falls back to the
    // original without re-tracing (and without re-running the gate).
    let d = mgr.request(&img, poly, &poly_req(5)).unwrap();
    match d {
        Dispatch::Original { func, .. } => assert_eq!(func, poly),
        Dispatch::Specialized(_) => panic!("denied key must dispatch to the original"),
    }
    assert_eq!(mgr.stats().denied, 1);
    assert_eq!(mgr.stats().misses, 1, "no second trace for the denied key");
}

#[test]
fn equivalence_rejection_of_aggressive_regalloc_falls_back_conservatively() {
    let (img, poly) = setup();
    // Reject the first (aggressive) emission with an equivalence-class
    // finding; accept the conservative re-emission.
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    let mgr = SpecializationManager::builder()
        .publish_gate(Box::new(
            move |_: &Image, _: u64, _: &SpecRequest, _: &brew_core::RewriteResult| {
                if calls2.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(PublishRejection {
                        findings: 1,
                        summary: "events diverge at block 0".into(),
                        equivalence: true,
                    })
                } else {
                    Ok(())
                }
            },
        ))
        .build();
    let req = poly_req(5).passes(brew_core::OptLevel::Aggressive);
    let v = mgr
        .get_or_rewrite(&img, poly, &req)
        .expect("fallback must publish the conservative emission");
    assert!(v.code_len > 0);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "gate runs on both emissions"
    );
    let m = mgr.metrics();
    assert_eq!(m.counter(Ctr::RegallocFallback).get(), 1);
    assert_eq!(m.counter(Ctr::VerifyRejected).get(), 1);
    assert_eq!(m.counter(Ctr::VerifyPassed).get(), 1);
    // The conservative re-emission reuses the captured CFG: one miss, one
    // trace, nothing negatively cached.
    assert_eq!(mgr.stats().misses, 1, "fallback must not re-trace");
    assert_eq!(mgr.stats().negative_entries, 0);
    assert_eq!(mgr.len(), 1);
}

#[test]
fn non_aggressive_equivalence_rejection_is_denied_without_a_second_trace() {
    let (img, poly) = setup();
    // Without a proof-carrying pass there is no optimization to retreat
    // from: an equivalence rejection is a plain verification failure —
    // denied, negatively cached, and never re-traced.
    let poly_req = |n| poly_req(n).passes(brew_core::OptLevel::Regalloc);
    let mgr = SpecializationManager::builder()
        .negative_policy(NegativePolicy {
            base_backoff: 1_000_000,
            attempt_cap: 10,
        })
        .publish_gate(Box::new(
            |_: &Image, _: u64, _: &SpecRequest, _: &brew_core::RewriteResult| {
                Err(PublishRejection {
                    findings: 2,
                    summary: "ret value diverges".into(),
                    equivalence: true,
                })
            },
        ))
        .build();
    let err = mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap_err();
    assert!(matches!(err, RewriteError::VerifyRejected { .. }));
    let m = mgr.metrics();
    assert_eq!(m.counter(Ctr::RegallocFallback).get(), 0);
    assert_eq!(m.counter(Ctr::VerifyRejected).get(), 1);
    assert!(mgr.is_empty());
    // Negatively cached: the retry is denied at the door.
    let d = mgr.request(&img, poly, &poly_req(5)).unwrap();
    assert!(!d.is_specialized());
    assert_eq!(mgr.stats().denied, 1);
    assert_eq!(mgr.stats().misses, 1, "no second trace for the denied key");
}

#[test]
fn equivalence_rejection_of_the_default_passes_drops_constant_propagation() {
    let (img, poly) = setup();
    // The default selection carries a proof obligation (constant
    // propagation and the dead-code sweep behind it): a prover gap costs a
    // second emission from the same captured CFG, never the request.
    let lens = Arc::new(std::sync::Mutex::new(Vec::new()));
    let lens2 = Arc::clone(&lens);
    let mgr = SpecializationManager::builder()
        .publish_gate(Box::new(
            move |_: &Image, _: u64, _: &SpecRequest, res: &brew_core::RewriteResult| {
                let mut lens = lens2.lock().unwrap();
                lens.push(res.code_len);
                if lens.len() == 1 {
                    Err(PublishRejection {
                        findings: 1,
                        summary: "events diverge at block 0".into(),
                        equivalence: true,
                    })
                } else {
                    Ok(())
                }
            },
        ))
        .build();
    assert!(poly_req(5).pass_config() > brew_core::OptLevel::Regalloc);
    let v = mgr
        .get_or_rewrite(&img, poly, &poly_req(5))
        .expect("the conservative re-emission publishes");
    let lens = lens.lock().unwrap();
    assert_eq!(lens.len(), 2, "gate runs on both emissions");
    assert_eq!(v.code_len, lens[1]);
    assert_eq!(mgr.metrics().counter(Ctr::RegallocFallback).get(), 1);
    assert_eq!(mgr.stats().misses, 1, "fallback must not re-trace");
    assert_eq!(mgr.stats().negative_entries, 0);

    // What it re-emits is what the conservative selection emits.
    let plain = brew_core::Rewriter::new(&img)
        .rewrite(poly, &poly_req(5).passes(brew_core::OptLevel::Regalloc))
        .unwrap();
    assert_eq!(plain.code_len, lens[1]);
}

#[test]
fn gate_panic_is_contained() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::builder()
        .publish_gate(Box::new(
            |_: &Image,
             _: u64,
             _: &SpecRequest,
             _: &brew_core::RewriteResult|
             -> Result<(), PublishRejection> { panic!("verifier bug") },
        ))
        .build();
    let err = mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap_err();
    assert!(matches!(err, RewriteError::Internal(ref s) if s.contains("verifier bug")));
    assert_eq!(mgr.stats().panics_contained, 1);
    assert!(mgr.is_empty());
}

/// A tiering promotion publishes through the same gate as a request: a
/// rejected promotion never becomes resident and its key is negatively
/// cached; without a gate the same promotion publishes.
#[test]
fn tiering_promotion_runs_the_gate() {
    let (img, poly) = setup();
    let tiering = TieringConfig {
        promote_heat: 3.0,
        cooldown_ticks: 0,
        ..TieringConfig::default()
    };
    let req = poly_req(7);
    let promote = |mgr: &SpecializationManager| {
        for _ in 0..4 {
            assert!(!mgr.request(&img, poly, &req).unwrap().is_specialized());
        }
        assert_eq!(mgr.tick(&img).promoted, 1);
    };

    let mgr = SpecializationManager::builder()
        .tiering(tiering)
        .publish_gate(Box::new(
            |_: &Image, _: u64, _: &SpecRequest, _: &brew_core::RewriteResult| {
                Err(PublishRejection {
                    findings: 1,
                    summary: "stack imbalance".into(),
                    equivalence: false,
                })
            },
        ))
        .build();
    promote(&mgr);
    assert!(mgr.is_empty(), "a rejected promotion must not publish");
    assert_eq!(mgr.metrics().counter(Ctr::VerifyRejected).get(), 1);
    assert!(mgr.failure_of(poly, &req).is_some());

    let mgr = SpecializationManager::builder().tiering(tiering).build();
    promote(&mgr);
    assert!(mgr.is_resident(poly, req.fingerprint()));
}
