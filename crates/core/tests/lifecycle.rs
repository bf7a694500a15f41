//! Variant lifecycle: negative caching of failed rewrites, staleness
//! detection over folded known memory, invalidation, and panic/poison
//! containment in the manager.

use brew_core::{
    ArgValue, Dispatch, FlightKind, Invalidation, NegativePolicy, PublishRejection, RetKind,
    RewriteError, RewriteResult, SpecRequest, SpecializationManager,
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
    int divit(int* p) {
        return 1000 / p[0];
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

/// A request doomed to fail: the loop blows a four-instruction trace
/// budget every time.
fn doomed_req() -> SpecRequest {
    poly_req(64).max_trace_insts(4)
}

#[test]
fn negative_cache_denies_repeats_without_retracing() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    // A backoff too large to elapse in this test: every repeat is denied.
    let mgr = SpecializationManager::builder()
        .negative_policy(NegativePolicy {
            base_backoff: 1_000_000,
            attempt_cap: 10,
        })
        .build();

    let req = doomed_req();
    let first = mgr.get_or_rewrite(&img, poly, &req);
    assert!(matches!(first, Err(RewriteError::TraceBudget)), "{first:?}");
    let st = mgr.stats();
    assert_eq!((st.misses, st.negative_entries), (1, 1));
    assert!(
        matches!(mgr.failure_of(poly, &req), Some(RewriteError::TraceBudget)),
        "the failure is memoized"
    );

    // Every repeat is answered from the negative cache: the error comes
    // back, but nothing is traced and no new miss is led.
    for _ in 0..100 {
        assert!(matches!(
            mgr.get_or_rewrite(&img, poly, &req),
            Err(RewriteError::TraceBudget)
        ));
    }
    let st = mgr.stats();
    assert_eq!(st.misses, 1, "one trace total, 100 denials: {st:?}");
    assert_eq!(st.denied, 100);

    // The non-blocking path degrades to the original entry instead of an
    // error — callers asked where to dispatch, and the answer is "the
    // original, same as when the rewrite first failed".
    match mgr.request(&img, poly, &req).unwrap() {
        Dispatch::Original { func } => assert_eq!(func, poly),
        d => panic!("expected Original, got {d:?}"),
    }
    assert_eq!(mgr.stats().misses, 1);

    // A different (healthy) request for the same function is unaffected.
    let v = mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap();
    let out = Machine::new()
        .call(&img, v.entry, &CallArgs::new().int(2).int(0))
        .unwrap();
    assert_eq!(out.ret_int, 8);

    // Denials are visible in the always-on metrics registry (100 from
    // the synchronous repeats, one more from `request`).
    let json = mgr.metrics().snapshot_json();
    assert!(json.contains("\"brew_negative_hits_total\":101"), "{json}");
    assert!(json.contains("\"brew_negative_entries\":1"), "{json}");
}

#[test]
fn backoff_retries_and_succeeds_once_the_failure_cause_is_removed() {
    let (img, prog) = setup();
    let divit = prog.func("divit").unwrap();
    let p = img.alloc_heap(8, 8);
    img.write_u64(p, 0).unwrap(); // division by known zero: trace faults
    let mgr = SpecializationManager::builder()
        .negative_policy(NegativePolicy {
            base_backoff: 2,
            attempt_cap: 10,
        })
        .build();
    // PTR_TO_KNOWN fingerprints the pointer, not the pointee — fixing the
    // data keeps the same cache key, which is exactly what lets a decayed
    // retry succeed where the original attempt failed.
    let req = SpecRequest::new().ptr_to_known(p, 8).ret(RetKind::Int);

    let first = mgr.get_or_rewrite(&img, divit, &req);
    assert!(
        matches!(first, Err(RewriteError::TraceFault { .. })),
        "{first:?}"
    );
    assert_eq!(mgr.stats().misses, 1);

    // Two denials (base backoff), then the window elapses and the retry
    // re-traces — and fails again, because the data is still bad.
    for _ in 0..2 {
        assert!(mgr.get_or_rewrite(&img, divit, &req).is_err());
    }
    assert_eq!(mgr.stats().misses, 1, "denials do not trace");
    assert!(mgr.get_or_rewrite(&img, divit, &req).is_err());
    assert_eq!(mgr.stats().misses, 2, "the elapsed backoff retried");

    // Remove the failure cause. The second failure doubled the window to
    // four denials; the retry after them succeeds and clears the entry.
    img.write_u64(p, 5).unwrap();
    for _ in 0..4 {
        assert!(mgr.get_or_rewrite(&img, divit, &req).is_err());
    }
    let v = mgr.get_or_rewrite(&img, divit, &req).unwrap();
    assert_eq!(mgr.stats().misses, 3);
    assert_eq!(mgr.stats().negative_entries, 0, "success forgets the key");
    assert!(mgr.failure_of(divit, &req).is_none());
    let out = Machine::new()
        .call(&img, v.entry, &CallArgs::new().ptr(p))
        .unwrap();
    assert_eq!(out.ret_int, 200);

    // And the now-healthy key is served from the positive cache.
    let again = mgr.get_or_rewrite(&img, divit, &req).unwrap();
    assert!(Arc::ptr_eq(&v, &again));
}

#[test]
fn revalidate_drops_exactly_the_stale_variant() {
    let (img, prog) = setup();
    let dot = prog.func("dot").unwrap();
    let poly = prog.func("poly").unwrap();
    let c = img.alloc_heap(16, 8);
    img.write_u64(c, 3).unwrap();
    img.write_u64(c + 8, 7).unwrap();
    let mgr = SpecializationManager::new();
    let dot_req = SpecRequest::new()
        .ptr_to_known(c, 16)
        .unknown_int()
        .ret(RetKind::Int);

    let v1 = mgr.get_or_rewrite(&img, dot, &dot_req).unwrap();
    assert_eq!(
        v1.snapshot.byte_len(),
        16,
        "the rewrite recorded both folded loads: {:?}",
        v1.snapshot.ranges()
    );
    // A variant that folded no known memory rides along as a control.
    let vp = mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap();
    assert!(vp.snapshot.is_empty());

    let mut m = Machine::new();
    let run = |m: &mut Machine, entry: u64| {
        m.call(&img, entry, &CallArgs::new().ptr(c).int(10))
            .unwrap()
            .ret_int
    };
    assert_eq!(run(&mut m, v1.entry), 37);

    // Mutate a folded byte. The fingerprint doesn't change (PTR_TO_KNOWN
    // hashes the pointer), so — by the paper's contract — the cache keeps
    // serving the now-stale constants baked into v1.
    img.write_u64(c, 5).unwrap();
    let stale = mgr.get_or_rewrite(&img, dot, &dot_req).unwrap();
    assert!(Arc::ptr_eq(&v1, &stale), "same key -> same cached variant");
    assert_eq!(run(&mut m, stale.entry), 37, "stale: still the old fold");

    // The Revalidate sweep re-hashes every snapshot and drops only the
    // mismatch. Mark the journal first so the assertions below see exactly
    // the sweep's decisions: STALE, then INVALIDATED, for that variant.
    let mark = mgr.flight().recorded() as usize;
    assert_eq!(mgr.apply_invalidation(Invalidation::Revalidate(&img)), 1);
    let st = mgr.stats();
    assert_eq!((st.stale, st.invalidated), (1, 1), "{st:?}");
    assert_eq!(mgr.len(), 1, "the empty-snapshot variant survived");
    let dump = mgr.flight().dump();
    let sweep: Vec<(FlightKind, [u64; 2])> = dump.entries[mark..]
        .iter()
        .filter(|e| matches!(e.kind, FlightKind::Stale | FlightKind::Invalidated))
        .map(|e| (e.kind, [e.args[0], e.args[1]]))
        .collect();
    assert_eq!(
        sweep,
        [
            (FlightKind::Stale, [dot, v1.entry]),
            (FlightKind::Invalidated, [dot, v1.entry]),
        ],
        "{}",
        dump.render_text()
    );

    // The next request re-specializes against current data and agrees
    // with the original function (differential check).
    let v2 = mgr.get_or_rewrite(&img, dot, &dot_req).unwrap();
    assert!(!Arc::ptr_eq(&v1, &v2));
    assert_eq!(run(&mut m, v2.entry), 57);
    assert_eq!(run(&mut m, dot), 57, "specialized == original");

    // A second revalidate finds nothing stale.
    assert_eq!(mgr.apply_invalidation(Invalidation::Revalidate(&img)), 0);
}

#[test]
fn invalidate_data_intersects_folded_ranges_precisely() {
    let (img, prog) = setup();
    let dot = prog.func("dot").unwrap();
    let a = img.alloc_heap(16, 8);
    let b = img.alloc_heap(16, 8);
    for (p, v0, v1) in [(a, 2u64, 5u64), (b, 4, 9)] {
        img.write_u64(p, v0).unwrap();
        img.write_u64(p + 8, v1).unwrap();
    }
    let mgr = SpecializationManager::new();
    let req_of = |p: u64| {
        SpecRequest::new()
            .ptr_to_known(p, 16)
            .unknown_int()
            .ret(RetKind::Int)
    };
    let va = mgr.get_or_rewrite(&img, dot, &req_of(a)).unwrap();
    let vb = mgr.get_or_rewrite(&img, dot, &req_of(b)).unwrap();
    assert_eq!(mgr.len(), 2);

    // A range that touches only block `a` drops only `a`'s variant —
    // no image access, no hashing, pure range intersection.
    assert_eq!(mgr.apply_invalidation(Invalidation::Data(a + 8..a + 9)), 1);
    assert_eq!(mgr.len(), 1);
    let still = mgr.get_or_rewrite(&img, dot, &req_of(b)).unwrap();
    assert!(Arc::ptr_eq(&vb, &still), "b's variant was untouched");

    // A range adjacent to (but not overlapping) `b`'s fold is a no-op.
    assert_eq!(
        mgr.apply_invalidation(Invalidation::Data(b + 16..b + 32)),
        0
    );

    // Re-specializing `a` after its data changed picks up fresh values.
    img.write_u64(a, 10).unwrap();
    let va2 = mgr.get_or_rewrite(&img, dot, &req_of(a)).unwrap();
    assert!(!Arc::ptr_eq(&va, &va2));
    let out = Machine::new()
        .call(&img, va2.entry, &CallArgs::new().ptr(a).int(3))
        .unwrap();
    assert_eq!(out.ret_int, 35);

    // invalidate(func) sweeps every variant of the function and any
    // negative entries it accumulated.
    mgr.get_or_rewrite(&img, prog.func("poly").unwrap(), &doomed_req())
        .unwrap_err();
    assert_eq!(mgr.apply_invalidation(Invalidation::Func(dot)), 2);
    assert_eq!(
        mgr.apply_invalidation(Invalidation::Func(prog.func("poly").unwrap())),
        0
    );
    assert_eq!(mgr.negative_len(), 0, "poly's negative entry was dropped");
    assert!(mgr.is_empty());
}

/// A panic payload that panics again when dropped: `gate_check` catches
/// the gate's panic, and dropping that payload must not unwind out of the
/// request either.
struct Bomb;

impl Drop for Bomb {
    fn drop(&mut self) {
        panic!("panic payload exploded on drop");
    }
}

/// A publish gate that blows up: for `n == 2` with a payload that panics
/// again when dropped (see [`Bomb`]), for `n == 3` with a plain panic;
/// every other variant passes.
fn panicking_gate(
    _: &Image,
    _: u64,
    req: &SpecRequest,
    _: &RewriteResult,
) -> Result<(), PublishRejection> {
    match req.args()[1] {
        ArgValue::Int(2) => std::panic::panic_any(Bomb),
        ArgValue::Int(3) => panic!("gate exploded"),
        _ => Ok(()),
    }
}

#[test]
fn panicking_gate_fails_its_request_not_the_caller() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::builder()
        .negative_policy(NegativePolicy {
            base_backoff: 1_000_000,
            attempt_cap: 10,
        })
        .publish_gate(Box::new(panicking_gate))
        .build();

    // Each gate panic fails its own request with a typed error. Were the
    // payload dropped outside containment, n == 2 would unwind into this
    // test instead.
    for (n, msg) in [(2, "non-string panic payload"), (3, "gate exploded")] {
        let err = mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap_err();
        let want = format!("publish gate panicked: {msg}");
        assert_eq!(err, RewriteError::Internal(want), "n={n}");
        // Negatively cached: the next request is denied, not re-traced.
        let d = mgr.request(&img, poly, &poly_req(n)).unwrap();
        assert!(
            matches!(d, Dispatch::Original { func } if func == poly),
            "n={n}: {d:?}"
        );
    }
    let st = mgr.stats();
    assert_eq!(
        (st.misses, st.denied, st.negative_entries),
        (2, 2, 2),
        "{st:?}"
    );
    // One containment per gate panic: the payload's second panic goes with
    // the first.
    assert_eq!(st.panics_contained, 2, "{st:?}");
    assert!(mgr.is_empty());

    // The manager remains fully usable: new rewrites, then hits.
    for (n, want) in [(4, 16), (7, 128)] {
        let v = mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
        let out = Machine::new()
            .call(&img, v.entry, &CallArgs::new().int(2).int(0))
            .unwrap();
        assert_eq!(out.ret_int, want);
        assert!(mgr
            .request(&img, poly, &poly_req(n))
            .unwrap()
            .is_specialized());
    }
    assert_eq!(mgr.stats().hits, 2, "served from cache after the storm");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// After any mutation of the known block and a revalidate, the served
    /// variant always agrees with the original function on current data.
    #[test]
    fn revalidate_never_leaves_a_stale_answer(
        c0 in 0u64..50, c1 in 0u64..50, x in 0i64..50,
        m0 in 0u64..50, m1 in 0u64..50,
    ) {
        let (img, prog) = setup();
        let dot = prog.func("dot").unwrap();
        let c = img.alloc_heap(16, 8);
        img.write_u64(c, c0).unwrap();
        img.write_u64(c + 8, c1).unwrap();
        let mgr = SpecializationManager::new();
        let req = SpecRequest::new()
            .ptr_to_known(c, 16)
            .unknown_int()
            .ret(RetKind::Int);
        mgr.get_or_rewrite(&img, dot, &req).unwrap();

        // Mutate (possibly to the same values: revalidate must then keep
        // the variant), sweep, and re-request.
        img.write_u64(c, m0).unwrap();
        img.write_u64(c + 8, m1).unwrap();
        let dropped = mgr.apply_invalidation(Invalidation::Revalidate(&img));
        let unchanged = (m0, m1) == (c0, c1);
        prop_assert_eq!(dropped, if unchanged { 0 } else { 1 });

        let v = mgr.get_or_rewrite(&img, dot, &req).unwrap();
        let mut m = Machine::new();
        let spec = m.call(&img, v.entry, &CallArgs::new().ptr(c).int(x)).unwrap().ret_int;
        let orig = m.call(&img, dot, &CallArgs::new().ptr(c).int(x)).unwrap().ret_int;
        prop_assert_eq!(spec, orig);
        prop_assert_eq!(spec, m0 * x as u64 + m1);
    }
}
