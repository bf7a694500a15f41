//! Stress tests for the shared `SpecializationManager`: single-flight
//! exactly-once tracing, budget enforcement under concurrent eviction,
//! correct dispatch of concurrently produced variants, and `request`'s
//! synchronous miss. Every assertion is an invariant or a quiescent-state
//! check — nothing here depends on thread timing.

use brew_core::telemetry::metrics::Ctr;
use brew_core::{RetKind, SpecRequest, SpecializationManager};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;

const PROG: &str = r#"
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
"#;

const THREADS: usize = 8;
/// Skewed mix: n=2 dominates, the tail is cold — eight distinct
/// fingerprints with very different temperatures.
const MIX: [i64; 16] = [2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5, 6];
const DISTINCT: usize = 5; // |{2,3,4,5,6}|
const ROUNDS: usize = 100;

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

/// Deterministic per-thread request sequence over the skewed mix.
fn nth_request(tid: usize, i: usize) -> i64 {
    MIX[(tid * 7 + i * 13) % MIX.len()]
}

/// A per-thread emulator whose stack occupies a private 256 KiB slice of
/// the shared image's stack segment, so threads never clobber each other.
fn thread_machine(img: &Image, tid: usize) -> Machine<'_> {
    let mut m = Machine::new();
    m.set_stack_top(img.stack_top() - (tid as u64) * 0x4_0000);
    m
}

/// The headline single-flight property: 8 threads hammer a skewed mix,
/// yet each distinct fingerprint is traced exactly once, every returned
/// pointer dispatches to a correct specialized body, and the resident
/// set never exceeds the (ample) budget.
#[test]
fn skewed_mix_traces_each_fingerprint_exactly_once() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    let budget = mgr.budget_bytes();

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (mgr, img) = (&mgr, &img);
            s.spawn(move || {
                let mut m = thread_machine(img, tid);
                for i in 0..ROUNDS {
                    let n = nth_request(tid, i);
                    let v = mgr.get_or_rewrite(img, poly, &poly_req(n)).unwrap();
                    assert!(
                        mgr.stats().resident_bytes <= budget,
                        "resident set exceeded the budget mid-run"
                    );
                    // The returned pointer dispatches correctly right now,
                    // on this thread, whether we traced it or raced it.
                    let out = m
                        .call(img, v.entry, &CallArgs::new().int(3).int(n))
                        .unwrap();
                    assert_eq!(out.ret_int, 3u64.pow(n as u32), "3^{n} via variant");
                }
            });
        }
    });

    let st = mgr.stats();
    assert_eq!(st.misses, DISTINCT as u64, "one trace per fingerprint");
    assert_eq!(
        st.hits + st.coalesced + st.misses,
        (THREADS * ROUNDS) as u64,
        "every request accounted for"
    );
    let rewrites = mgr.metrics().counter(Ctr::Rewrites).get();
    assert_eq!(
        rewrites, DISTINCT as u64,
        "no duplicate trace slipped through"
    );
    assert_eq!(mgr.len(), DISTINCT);
    assert!(st.resident_bytes <= budget);
}

/// The cold-start shape: every thread requests the same cold fingerprint at
/// once. One traces; the rest join its flight or hit what it published.
#[test]
fn cold_race_on_one_fingerprint_traces_once() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let (mgr, img, start) = (&mgr, &img, &start);
            s.spawn(move || {
                start.wait();
                mgr.get_or_rewrite(img, poly, &poly_req(6)).unwrap();
            });
        }
    });
    let st = mgr.stats();
    assert_eq!(st.misses, 1, "one tracer elected");
    assert_eq!(st.hits + st.coalesced, THREADS as u64 - 1);
}

/// Budget enforcement holds when threads race to insert and evict: after
/// quiescence the resident set fits the budget, evictions actually
/// happened, and the cache still answers correctly.
#[test]
fn concurrent_eviction_respects_global_budget() {
    let (img, poly) = setup();
    let probe = SpecializationManager::new()
        .get_or_rewrite(&img, poly, &poly_req(2))
        .unwrap()
        .code_len;
    // Two probes' worth: most of the mix fits (evictions under pressure),
    // but the most-unrolled bodies (high n) exceed the budget on their
    // own and exercise the publish-time refusal below.
    let budget = probe * 2;
    let mgr = SpecializationManager::builder().budget(budget).build();

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let (mgr, img) = (&mgr, &img);
            s.spawn(move || {
                for i in 0..40 {
                    // 16 distinct fingerprints against a two-probe
                    // budget: constant pressure from every thread. The
                    // largest bodies (high n, heavy unrolling) exceed the
                    // budget on their own and must be *refused*, never
                    // published — any other error is still a bug.
                    let n = 2 + ((tid + i * 5) % 16) as i64;
                    match mgr.get_or_rewrite(img, poly, &poly_req(n)) {
                        Ok(_) => {}
                        Err(brew_core::RewriteError::OverBudget { code_len, budget }) => {
                            assert!(code_len > budget, "refusal must be justified");
                        }
                        Err(e) => panic!("unexpected rewrite error: {e}"),
                    }
                }
            });
        }
    });

    let st = mgr.stats();
    assert!(st.evictions > 0, "pressure must evict: {st:?}");
    // The budget invariant as documented on `evict_to_budget`: publish
    // refuses any variant whose code alone exceeds the budget, so the
    // resident set fits — unconditionally, with no oversized-survivor
    // exception.
    assert!(
        st.resident_bytes <= budget,
        "quiescent resident {} exceeds budget {budget} ({} variants resident, {} evictions)",
        st.resident_bytes,
        mgr.len(),
        st.evictions
    );
    // The mix's largest bodies do beat the two-probe budget on their
    // own, so the refusal path must actually have fired and been counted.
    let refused = mgr
        .metrics()
        .counter(brew_core::telemetry::metrics::Ctr::OverBudget)
        .get();
    assert!(
        refused > 0,
        "oversized bodies must be refused, not published"
    );
    // The cache still works: a fresh request round-trips correctly.
    let v = mgr.get_or_rewrite(&img, poly, &poly_req(4)).unwrap();
    let out = Machine::new()
        .call(&img, v.entry, &CallArgs::new().int(5).int(4))
        .unwrap();
    assert_eq!(out.ret_int, 625);
}

/// Without tiering a `request` miss takes the synchronous single-flight
/// path and reports a specialized dispatch immediately: the rewrite ran on
/// the calling thread, before `request` returned.
#[test]
fn request_miss_rewrites_on_the_calling_thread() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    let d = mgr.request(&img, poly, &poly_req(3)).unwrap();
    assert!(d.is_specialized());
    assert_eq!(mgr.stats().misses, 1);
    assert_eq!(mgr.metrics().counter(Ctr::Rewrites).get(), 1);
    assert!(mgr.is_resident(poly, poly_req(3).fingerprint()));
}
