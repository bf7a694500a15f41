//! The memoizing specialization layer: variant cache, cost-aware
//! eviction, N-way guarded dispatch, and the decision journal.

use brew_core::{FlightKind, RetKind, SpecRequest, SpecializationManager};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;
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
    (img, prog.func("poly").unwrap())
}

fn poly_req(n: i64) -> SpecRequest {
    SpecRequest::new()
        .unknown_int()
        .known_int(n)
        .ret(RetKind::Int)
}

#[test]
fn repeated_requests_return_pointer_equal_cached_variant() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    let req = poly_req(9);

    let first = mgr.get_or_rewrite(&img, poly, &req).unwrap();
    let traced_after_miss = mgr.stats().traced_total;
    assert!(traced_after_miss > 0, "the miss actually traced");

    for _ in 0..10 {
        let again = mgr.get_or_rewrite(&img, poly, &req).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "hits return the same variant");
    }
    // An equal request built independently is the same cache line too.
    let rebuilt = mgr.get_or_rewrite(&img, poly, &poly_req(9)).unwrap();
    assert!(Arc::ptr_eq(&first, &rebuilt));

    let st = mgr.stats();
    assert_eq!((st.hits, st.misses), (11, 1));
    assert_eq!(st.traced_total, traced_after_miss, "no re-trace on hits");
    assert_eq!(st.resident_bytes, first.code_len);
}

#[test]
fn distinct_requests_are_distinct_variants() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    let a = mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap();
    let b = mgr.get_or_rewrite(&img, poly, &poly_req(4)).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    assert_ne!(a.entry, b.entry);
    assert_eq!(mgr.stats().misses, 2);
    assert_eq!(mgr.len(), 2);

    // Both stay correct.
    let mut m = Machine::new();
    for (v, want) in [(&a, 8), (&b, 16)] {
        let out = m
            .call(&img, v.entry, &CallArgs::new().int(2).int(0))
            .unwrap();
        assert_eq!(out.ret_int, want);
    }
}

#[test]
fn eviction_under_tight_byte_budget_keeps_recent_variant() {
    let (img, poly) = setup();
    // Learn one variant's size, then budget for roughly two of them.
    let probe = SpecializationManager::new()
        .get_or_rewrite(&img, poly, &poly_req(2))
        .unwrap()
        .code_len;
    let mgr = SpecializationManager::builder()
        .budget(probe * 2 + probe / 2)
        .build();

    for n in 2..8 {
        mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
    }
    let st = mgr.stats();
    assert!(st.evictions >= 3, "budget pressure evicted: {st:?}");
    assert!(mgr.len() < 6, "cache shrank below the insert count");
    assert!(
        st.resident_bytes <= probe * 2 + probe / 2,
        "resident {} exceeds budget",
        st.resident_bytes
    );

    // The most recent request survived: re-asking is a hit, not a rewrite.
    let misses_before = mgr.stats().misses;
    mgr.get_or_rewrite(&img, poly, &poly_req(7)).unwrap();
    assert_eq!(mgr.stats().misses, misses_before);
    // An evicted one rewrites again.
    mgr.get_or_rewrite(&img, poly, &poly_req(2)).unwrap();
    assert_eq!(mgr.stats().misses, misses_before + 1);
}

#[test]
fn dispatcher_over_three_variants_matches_original_incl_fallthrough() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    for n in [3i64, 5, 8] {
        mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
    }
    assert_eq!(mgr.variants_of(poly).len(), 3);
    let dispatch = mgr.build_dispatcher(&img, poly, poly).unwrap();
    assert_eq!(mgr.stats().dispatchers_built, 1);

    // Differential: the stub is bit-identical to the original over guarded
    // values (each of the three variants) and fall-through values alike.
    let mut m = Machine::new();
    for x in [-3i64, -1, 0, 1, 2, 7, 1000] {
        for n in [0i64, 1, 2, 3, 4, 5, 6, 8, 9] {
            let via = m
                .call(&img, dispatch, &CallArgs::new().int(x).int(n))
                .unwrap()
                .ret_int;
            let orig = m
                .call(&img, poly, &CallArgs::new().int(x).int(n))
                .unwrap()
                .ret_int;
            assert_eq!(via, orig, "poly({x}, {n}) diverged through the dispatcher");
        }
    }

    // The hot path really runs specialized code: fewer cycles than the
    // original for a guarded n.
    let via = m
        .call(&img, dispatch, &CallArgs::new().int(2).int(8))
        .unwrap();
    let orig = m.call(&img, poly, &CallArgs::new().int(2).int(8)).unwrap();
    assert!(via.stats.cycles < orig.stats.cycles);
}

/// Miss, hit and dispatcher, read back from the flight journal: the kind
/// sequence is pinned exactly (symbol records included), and each decision
/// names the function and the entry it concerned.
#[test]
fn journal_records_miss_rewrite_hit_and_dispatch() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();

    let v = mgr.get_or_rewrite(&img, poly, &poly_req(6)).unwrap();
    mgr.get_or_rewrite(&img, poly, &poly_req(6)).unwrap();
    let dispatch = mgr.build_dispatcher(&img, poly, poly).unwrap();

    let dump = mgr.flight().dump();
    let kinds: Vec<FlightKind> = dump.entries.iter().map(|e| e.kind).collect();
    use FlightKind::*;
    assert_eq!(
        kinds,
        [
            Miss,
            Rewritten,
            SymbolPublish,
            EpochPublish,
            Hit,
            DispatcherBuilt,
            SymbolPublish
        ],
        "{}",
        dump.render_text()
    );
    let args = |i: usize| dump.entries[i].args;
    assert_eq!(args(0)[0], poly);
    assert_eq!(args(1)[..3], [poly, v.entry, v.code_len as u64]);
    assert_eq!(args(4)[..2], [poly, v.entry]);
    assert_eq!(args(5)[..3], [poly, dispatch, 1]);
}
