//! Serving-path torture: reader threads hammer the lock-free dispatch
//! lookup while writers publish, revalidate, invalidate, evict and clear
//! the very same keys. The assertions are the snapshot contract made
//! executable:
//!
//! - **No stale-invalidated serving.** Once a writer has invalidated a
//!   variant and published its replacement (and the reader has observed
//!   that via a `SeqCst` generation counter), no subsequent lookup may
//!   return the old variant. The cache stores its snapshot's generation
//!   (`Release`) after the swap and before the counter store, and a read
//!   loads it (`Acquire`) before probing, so a reader that sees generation
//!   `g` must be handed a variant that folded `>= g`.
//! - **No torn reads.** Every dispatched entry computes the exact
//!   function value — a torn snapshot pointer or a half-published entry
//!   would produce garbage, not an off-by-one.
//! - **No use-after-reclaim.** Readers hold `Arc<Variant>`s across
//!   evictions and `clear()`; a retired snapshot lives as long as a thread
//!   still holds its `Arc`, and the JIT bump allocator never reuses code
//!   addresses, so a variant fetched just before its eviction still
//!   dispatches correctly. Once the threads that read them have exited,
//!   the retired snapshots are freed.
//!
//! The suite runs in tier-1 `cargo test`; CI additionally runs it in
//! release mode under the `serve` stage, where the tighter timings make
//! the races much more likely to land.

use brew_core::telemetry::metrics::Ctr;
use brew_core::{
    Dispatch, Invalidation, PublishRejection, RetKind, SpecRequest, SpecializationManager,
};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const PROG: &str = r#"
    int gen(int* g, int x) {
        return g[0] * 1000 + x;
    }
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
"#;

const READERS: usize = 4;

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

/// A per-thread emulator on a private 256 KiB slice of the shared stack
/// segment (same idiom as concurrent.rs) so threads never clobber each
/// other.
fn thread_machine(img: &Image, tid: usize) -> Machine<'_> {
    let mut m = Machine::new();
    m.set_stack_top(img.stack_top() - (tid as u64) * 0x4_0000);
    m
}

/// The headline linearizability check. A writer advances a generation
/// counter folded into the specialized code: write `g[0] = gen`, drop the
/// stale variant via `Revalidate`, republish, then store `published_g =
/// gen` with `SeqCst`. Readers load `published_g` *before* each request;
/// any specialized dispatch they then receive must bake a generation at
/// least that fresh — the old variant was removed from the read index
/// before the counter advanced, so serving it would mean the lookup read
/// a retired snapshot.
#[test]
fn readers_never_observe_a_stale_invalidated_variant() {
    let (img, prog) = setup();
    let genf = prog.func("gen").unwrap();
    let g = img.alloc_heap(8, 8);
    img.write_u64(g, 1).unwrap();
    let mgr = SpecializationManager::new();
    let req = SpecRequest::new()
        .ptr_to_known(g, 8)
        .unknown_int()
        .ret(RetKind::Int);

    const GENERATIONS: u64 = 40;
    let published_g = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let specialized_seen = AtomicUsize::new(0);

    // Publish generation 1 before any reader starts.
    mgr.get_or_rewrite(&img, genf, &req).unwrap();
    published_g.store(1, Ordering::SeqCst);

    std::thread::scope(|s| {
        for tid in 0..READERS {
            let (mgr, img, req) = (&mgr, &img, &req);
            let (published_g, done, specialized_seen) = (&published_g, &done, &specialized_seen);
            s.spawn(move || {
                let mut m = thread_machine(img, tid + 1);
                let x = 7 + tid as u64;
                while !done.load(Ordering::Acquire) {
                    let pg = published_g.load(Ordering::SeqCst);
                    let d = mgr.request(img, genf, req).unwrap();
                    if let Dispatch::Specialized(v) = d {
                        let out = m
                            .call(img, v.entry, &CallArgs::new().ptr(g).int(x as i64))
                            .unwrap();
                        // A torn pointer or half-published entry would not
                        // produce `baked * 1000 + x` for any integer baked.
                        assert_eq!(out.ret_int % 1000, x, "torn read: {}", out.ret_int);
                        let baked = (out.ret_int - x) / 1000;
                        assert!(
                            baked >= pg && baked <= GENERATIONS,
                            "stale variant served: baked generation {baked} after \
                             observing published_g={pg}"
                        );
                        specialized_seen.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Don't start churning until the readers are actually serving —
        // in release the whole generation loop can otherwise finish
        // before the spawned threads are first scheduled.
        while specialized_seen.load(Ordering::Relaxed) < READERS {
            std::thread::yield_now();
        }

        // The writer: advance the folded data, drop the stale variant,
        // republish, then announce. `get_or_rewrite` may coalesce with a
        // reader-side synchronous re-trace — either way a variant folding
        // the current generation is resident when the store lands.
        let mut dropped = 0usize;
        for generation in 2..=GENERATIONS {
            img.write_u64(g, generation).unwrap();
            dropped += mgr.apply_invalidation(Invalidation::Revalidate(&img));
            mgr.get_or_rewrite(&img, genf, &req).unwrap();
            published_g.store(generation, Ordering::SeqCst);
        }
        done.store(true, Ordering::Release);
        assert!(dropped > 0, "revalidation never dropped anything");
    });

    assert!(
        specialized_seen.load(Ordering::Relaxed) > 0,
        "the torture never exercised the specialized hit path"
    );
    // The final published variant folds the final generation.
    let v = mgr.get_or_rewrite(&img, genf, &req).unwrap();
    let out = Machine::new()
        .call(&img, v.entry, &CallArgs::new().ptr(g).int(0))
        .unwrap();
    assert_eq!(out.ret_int, GENERATIONS * 1000);
}

/// Mixed churn: readers dispatch-and-call a skewed key mix while one
/// thread invalidates the whole function, another clears the cache, and
/// eviction pressure from a tiny budget rotates victims constantly. Every
/// single call must still compute the right value, and once the threads
/// that read the cache have exited no retired snapshot may survive.
#[test]
fn churn_torture_every_dispatch_computes_the_right_value() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let probe = SpecializationManager::new()
        .get_or_rewrite(&img, poly, &poly_req(2))
        .unwrap()
        .code_len;
    // ~3.5 variants of budget against 8 distinct keys: constant eviction.
    let mgr = SpecializationManager::builder()
        .budget(probe * 3 + probe / 2)
        .build();

    const ROUNDS: usize = 300;
    let done = AtomicBool::new(false);

    let held = std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|tid| {
                let (mgr, img) = (&mgr, &img);
                s.spawn(move || {
                    let mut m = thread_machine(img, tid + 1);
                    for i in 0..ROUNDS {
                        let n = 2 + ((tid * 7 + i * 13) % 8) as i64;
                        // `request` is the serving path: lock-free hit,
                        // synchronous single-flight miss.
                        let d = mgr.request(img, poly, &poly_req(n)).unwrap();
                        let out = m
                            .call(img, d.entry(), &CallArgs::new().int(2).int(n))
                            .unwrap();
                        assert_eq!(out.ret_int, 1u64 << n, "2^{n} via {d:?}");
                    }
                })
            })
            .collect();
        let (mgr, img, done) = (&mgr, &img, &done);
        s.spawn(move || {
            // Function-wide invalidation races the readers' republishing.
            while !done.load(Ordering::Acquire) {
                mgr.apply_invalidation(Invalidation::Func(poly));
                std::thread::yield_now();
            }
        });
        let clearer = s.spawn(move || {
            let mut machine = thread_machine(img, READERS + 1);
            let mut held = Vec::new();
            while !done.load(Ordering::Acquire) {
                mgr.clear();
                // Hold a variant across its own clear()/eviction: the Arc
                // and the never-reused JIT bytes must stay valid.
                if let Ok(v) = mgr.get_or_rewrite(img, poly, &poly_req(9)) {
                    mgr.clear();
                    let out = machine
                        .call(img, v.entry, &CallArgs::new().int(2).int(9))
                        .unwrap();
                    assert_eq!(out.ret_int, 512, "use-after-reclaim");
                    held.push(Arc::downgrade(&v));
                }
                std::thread::yield_now();
            }
            held
        });
        // Churners poll `done`, which flips once every reader has
        // finished its fixed workload — then the scope joins them. A
        // thread joined by its handle has dropped its snapshot slots.
        for h in readers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Release);
        clearer.join().unwrap()
    });

    // Quiescent correctness, and every retired snapshot freed.
    let v = mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    let out = Machine::new()
        .call(&img, v.entry, &CallArgs::new().int(3).int(5))
        .unwrap();
    assert_eq!(out.ret_int, 243);
    let m = mgr.metrics();
    assert!(m.counter(Ctr::SnapPublished).get() > 0, "swaps happened");
    // Every variant the clearer held across its own clear() was in
    // snapshots since retired; with every thread that read them exited,
    // nothing may still hold one.
    assert!(!held.is_empty(), "the clearer never held a variant");
    assert!(
        held.iter().all(|w| w.strong_count() == 0),
        "a retired snapshot outlived its readers"
    );
    assert!(
        mgr.stats().resident_bytes <= mgr.budget_bytes(),
        "budget holds at quiescence"
    );
}

/// Warm restart under load: checkpoint the serving cache while readers
/// hammer it, then re-materialize the bytes into a fresh image + manager
/// whose publish gate must re-inspect every variant before it becomes
/// visible. Loaded variants serve as plain hits — zero re-traces.
#[test]
fn warm_restart_republishes_saved_variants_through_the_gate() {
    let (img, prog) = setup();
    let poly = prog.func("poly").unwrap();
    let mgr = SpecializationManager::new();
    const KEYS: i64 = 6;
    for n in 2..2 + KEYS {
        mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
    }

    // Checkpoint repeatedly while readers serve: snapshot_all must see a
    // consistent published set, never a torn entry.
    let mut bytes = Vec::new();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let done = &done;
        for tid in 0..READERS {
            let (mgr, img) = (&mgr, &img);
            s.spawn(move || {
                let mut m = thread_machine(img, tid + 1);
                while !done.load(Ordering::Acquire) {
                    let n = 2 + (tid as i64 % KEYS);
                    let d = mgr.request(img, poly, &poly_req(n)).unwrap();
                    assert!(d.is_specialized());
                    let out = m
                        .call(img, d.entry(), &CallArgs::new().int(2).int(n))
                        .unwrap();
                    assert_eq!(out.ret_int, 1u64 << n);
                }
            });
        }
        for _ in 0..20 {
            bytes = mgr.save_variant_bytes(&img);
        }
        done.store(true, Ordering::Release);
    });

    // "Restart": identical program compiled into a fresh image gives the
    // same layout, so the persisted placements re-reserve cleanly.
    let (img2, prog2) = setup();
    let poly2 = prog2.func("poly").unwrap();
    assert_eq!(poly, poly2, "deterministic layout across restarts");
    let inspected = Arc::new(AtomicUsize::new(0));
    let gate_count = Arc::clone(&inspected);
    let mgr2 = SpecializationManager::builder()
        .publish_gate(Box::new(
            move |_img: &Image, _f: u64, _req: &SpecRequest, res: &brew_core::RewriteResult| {
                gate_count.fetch_add(1, Ordering::Relaxed);
                if res.code_len == 0 {
                    return Err(PublishRejection {
                        findings: 1,
                        summary: "empty variant".into(),
                        equivalence: false,
                    });
                }
                Ok(())
            },
        ))
        .build();

    let report = mgr2.load_variant_bytes(&img2, &bytes).unwrap();
    assert_eq!(report.published, KEYS as usize, "{:?}", report.rejected);
    assert!(report.rejected.is_empty());
    assert_eq!(
        inspected.load(Ordering::Relaxed),
        KEYS as usize,
        "the gate inspected every re-materialized variant"
    );
    assert_eq!(
        mgr2.metrics().counter(Ctr::PersistLoaded).get(),
        KEYS as u64
    );

    // Warm cache: every key is a hit, dispatches correctly, zero traces.
    let mut m = Machine::new();
    for n in 2..2 + KEYS {
        let d = mgr2.request(&img2, poly2, &poly_req(n)).unwrap();
        assert!(d.is_specialized(), "warm start must serve n={n} as a hit");
        let out = m
            .call(&img2, d.entry(), &CallArgs::new().int(2).int(n))
            .unwrap();
        assert_eq!(out.ret_int, 1u64 << n);
    }
    assert_eq!(mgr2.stats().misses, 0, "no re-trace after warm start");
}
