//! C5 — wait-free serving read path + verified variant persistence under
//! a zipfian dispatch torture.
//!
//! Four phases over one kernel family (`madd`, specialized per known trip
//! count, so every key is a distinct straight-line variant):
//!
//! 1. **Cold start**: a gated manager rewrites every key from scratch —
//!    trace, passes, emit, publish-gate verification.
//! 2. **Checkpoint + warm start**: the resident set is serialized with
//!    [`brew_core::persist`] and re-materialized into a *fresh* process
//!    image through a manager carrying the same publish gate — every
//!    entry re-verified before publication, then called through the
//!    emulator against host ground truth.
//! 3. **Serving**: reader threads hammer `request` with a zipfian draw
//!    over the warm keys. Every dispatch must come back `Specialized` — a
//!    hit through the lock-free snapshot read path. One extra
//!    row runs the same draws while a writer thread churns the index
//!    (publish + invalidate on a sibling function).
//! 4. **Corruption sweep**: every entry of the checkpoint is bit-flipped
//!    in turn (plus a truncation and a version skew) and offered to a
//!    fresh gated manager; each corruption must be rejected with zero
//!    false accepts.
//!
//! What the phases cost is the benchmark's: `cold_request_us` against
//! `warm_entry_us` on `serve-hit` (the same `madd` keys), `hit_ns` and
//! `manager.hit_p50_ns`/`hit_p99_ns` for a dispatch.

use brew_core::persist;
use brew_core::{Invalidation, RetKind, SpecRequest, SpecializationManager};
use brew_image::Image;
use brew_minic::compile_into;
use std::sync::atomic::{AtomicBool, Ordering};

/// The serving kernels: `madd` is the served family (one variant per
/// known `b`); `churn` is the sibling the writer thread republishes and
/// invalidates to keep the cache's snapshot swapping during measurement.
const PROG: &str = r#"
    int madd(int x, int b) {
        int acc = 0;
        for (int i = 0; i < b; i++) {
            int k = (i * 3 + b) * (i * 5 + 7);
            acc = acc + x + k + i;
        }
        return acc;
    }
    int churn(int x, int b) {
        int acc = 0;
        for (int i = 0; i < b; i++) acc = acc + x * 2 + i;
        return acc;
    }
"#;

/// Distinct served fingerprints (`b = B_OFF+1..=B_OFF+KEYS`).
pub const KEYS: u64 = 24;
/// Trip-count offset: larger known `b` means more traced guest
/// instructions and more optimization-pass work per cold rewrite, the
/// cost the warm start amortizes away.
const B_OFF: i64 = 40;
/// Zipf head size carrying [`SERVE_HEAD_MASS_PCT`] of the draws.
const HOT: usize = 8;
/// Percentage of draws landing in the hot head.
pub const SERVE_HEAD_MASS_PCT: u64 = 90;
/// Churn-function fingerprints the writer cycles through.
const CHURN_KEYS: i64 = 6;

/// One serving measurement row.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Reader threads dispatching concurrently.
    pub threads: u32,
    /// Whether a writer thread churned the cache's snapshot during the row.
    pub churn: bool,
    /// Total dispatches across all readers.
    pub dispatches: u64,
    /// Whether every dispatch returned a specialized variant (pure hit
    /// path — no miss, no fallback to the original).
    pub all_specialized: bool,
}

/// The C5 report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Variants in the served set.
    pub keys: u64,
    /// Checkpoint size in bytes.
    pub checkpoint_bytes: usize,
    /// Entries the gated warm start published (must equal `keys`).
    pub warm_published: usize,
    /// One row per serving configuration.
    pub serving: Vec<ServeRow>,
    /// Corruption cases offered to the load path.
    pub corrupted_total: usize,
    /// Corruption cases rejected (typed error, variant not published).
    pub corrupted_rejected: usize,
    /// Corrupted entries that loaded anyway — must be zero.
    pub false_accepts: usize,
}

/// Deterministic 64-bit mixer (splitmix64) — the study's only RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw one served `b`: [`SERVE_HEAD_MASS_PCT`]% of draws hit the
/// [`HOT`]-value zipf head (rank r weighted 1/(r+1)), the rest spread
/// uniformly over the tail.
fn draw(rng: &mut u64) -> i64 {
    if splitmix64(rng) % 100 < SERVE_HEAD_MASS_PCT {
        let total: u64 = (1..=HOT as u64).map(|r| 1_000_000 / r).sum();
        let mut pick = splitmix64(rng) % total;
        for r in 0..HOT {
            let w = 1_000_000 / (r as u64 + 1);
            if pick < w {
                return B_OFF + r as i64 + 1;
            }
            pick -= w;
        }
        B_OFF + HOT as i64
    } else {
        B_OFF + HOT as i64 + 1 + (splitmix64(rng) % (KEYS - HOT as u64)) as i64
    }
}

fn req_of(b: i64) -> SpecRequest {
    SpecRequest::new()
        .unknown_int()
        .known_int(b)
        .ret(RetKind::Int)
}

/// Fresh image + compiled kernels. The compile is deterministic, so every
/// "process restart" lands functions and JIT regions at identical
/// addresses — the property the placement re-reservation relies on.
fn boot() -> (Image, u64, u64) {
    let img = Image::new();
    let prog = compile_into(PROG, &img).expect("compile serving kernels");
    let madd = prog.func("madd").expect("madd symbol");
    let churn = prog.func("churn").expect("churn symbol");
    (img, madd, churn)
}

/// The served `madd` kernel in a fresh image and the request for a known
/// `b`: one straight-line variant.
pub(crate) fn madd_kernel(b: i64) -> (Image, u64, SpecRequest) {
    let (img, madd, _) = boot();
    (img, madd, req_of(b))
}

fn gated_manager() -> SpecializationManager {
    SpecializationManager::builder()
        .publish_gate(brew_verify::publish_gate())
        .build()
}

/// One serving row: `threads` readers each send `draws` dispatches
/// through the hit path; with `churn`, a writer concurrently
/// publishes and invalidates `churn`-function variants so every reader
/// lookup races snapshot swaps and their reclamation.
fn serving_row(
    img: &Image,
    mgr: &SpecializationManager,
    madd: u64,
    churn_fn: Option<u64>,
    threads: u32,
    draws: u32,
    seed: u64,
) -> ServeRow {
    let stop = AtomicBool::new(false);
    let mut all_specialized = true;
    std::thread::scope(|scope| {
        if let Some(cf) = churn_fn {
            let (stop, mgr) = (&stop, &mgr);
            scope.spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let b = B_OFF + KEYS as i64 + 1 + i % CHURN_KEYS;
                    let _ = mgr.get_or_rewrite(img, cf, &req_of(b));
                    mgr.apply_invalidation(Invalidation::Func(cf));
                    i += 1;
                }
            });
        }
        let readers: Vec<_> = (0..threads)
            .map(|tid| {
                let mgr = &mgr;
                scope.spawn(move || {
                    let mut rng = seed ^ (0xC5 + u64::from(tid)).wrapping_mul(0x9E37);
                    (0..draws).fold(true, |pure, _| {
                        let req = req_of(draw(&mut rng));
                        let d = mgr.request(img, madd, &req).expect("dispatch");
                        pure & d.is_specialized()
                    })
                })
            })
            .collect();
        for r in readers {
            all_specialized &= r.join().expect("reader");
        }
        stop.store(true, Ordering::Relaxed);
    });
    ServeRow {
        threads,
        churn: churn_fn.is_some(),
        dispatches: u64::from(threads) * u64::from(draws),
        all_specialized,
    }
}

/// C5: cold start, checkpoint, gated warm start, zipfian serving torture,
/// and the corruption sweep. `draws_per_thread` scales the serving rows;
/// `thread_counts` picks the reader parallelism (the last count is
/// repeated with writer churn).
pub fn serve_study(draws_per_thread: u32, thread_counts: &[u32]) -> ServeReport {
    // Phase 1 — cold: every key pays trace + passes + emit + gate.
    let (img, madd, _) = boot();
    let mgr = gated_manager();
    for b in B_OFF + 1..=B_OFF + KEYS as i64 {
        mgr.get_or_rewrite(&img, madd, &req_of(b))
            .expect("cold rewrite");
    }
    let bytes = mgr.save_variant_bytes(&img);

    // Phase 2 — warm start the checkpoint into a fresh "process".
    let (img2, madd2, churn2) = boot();
    assert_eq!(madd, madd2, "deterministic layout across restarts");
    let mgr2 = gated_manager();
    let warm_published = mgr2
        .load_variant_bytes(&img2, &bytes)
        .expect("warm start decodes")
        .published;
    assert_eq!(warm_published, KEYS as usize, "all keys republished");

    // Every republished variant must compute the original semantics —
    // call each one through the emulator against the host ground truth.
    let mut m = brew_emu::Machine::new();
    for b in B_OFF + 1..=B_OFF + KEYS as i64 {
        let d = mgr2
            .request(&img2, madd2, &req_of(b))
            .expect("warm dispatch");
        assert!(d.is_specialized(), "warm key must be resident");
        for x in [0i64, 3, -7] {
            let out = m
                .call(&img2, d.entry(), &brew_emu::CallArgs::new().int(x).int(b))
                .expect("warm variant call");
            let host: i64 = (0..b).map(|i| x + (i * 3 + b) * (i * 5 + 7) + i).sum();
            assert_eq!(
                out.ret_int as i64, host,
                "madd({x},{b}) diverged after warm start"
            );
        }
    }

    // Phase 3 — serving rows; last thread count repeats with churn.
    let mut serving = Vec::new();
    let mut seed = 0xC5_5EED_u64;
    for &threads in thread_counts {
        let s = splitmix64(&mut seed);
        serving.push(serving_row(
            &img2,
            &mgr2,
            madd2,
            None,
            threads,
            draws_per_thread,
            s,
        ));
    }
    if let Some(&max_threads) = thread_counts.last() {
        let s = splitmix64(&mut seed);
        serving.push(serving_row(
            &img2,
            &mgr2,
            madd2,
            Some(churn2),
            max_threads,
            draws_per_thread,
            s,
        ));
    }

    // Phase 4 — corruption sweep: flip one code byte per entry, plus a
    // truncation and a version skew; every case must be rejected.
    let spans = persist::entry_code_spans(&bytes).expect("spans of a clean checkpoint");
    let mut corrupted_total = 0usize;
    let mut corrupted_rejected = 0usize;
    let mut false_accepts = 0usize;
    for span in &spans {
        let mut evil = bytes.clone();
        evil[span.start] ^= 0x40;
        corrupted_total += 1;
        let (img3, _, _) = boot();
        let mgr3 = gated_manager();
        match mgr3.load_variant_bytes(&img3, &evil) {
            Ok(r) => {
                if r.published == KEYS as usize - 1 && r.rejected.len() == 1 {
                    corrupted_rejected += 1;
                } else if r.published > KEYS as usize - 1 {
                    false_accepts += 1;
                }
            }
            // A whole-file rejection also never publishes the bad entry.
            Err(_) => corrupted_rejected += 1,
        }
    }
    for evil in [bytes[..bytes.len() / 2].to_vec(), {
        let mut b = bytes.clone();
        b[8] = b[8].wrapping_add(1); // format-version byte
        b
    }] {
        corrupted_total += 1;
        let (img3, _, _) = boot();
        let mgr3 = gated_manager();
        match mgr3.load_variant_bytes(&img3, &evil) {
            Err(_) => corrupted_rejected += 1,
            Ok(r) if r.published == 0 => corrupted_rejected += 1,
            Ok(_) => false_accepts += 1,
        }
    }

    ServeReport {
        keys: KEYS,
        checkpoint_bytes: bytes.len(),
        warm_published,
        serving,
        corrupted_total,
        corrupted_rejected,
        false_accepts,
    }
}

/// Render the C5 serving report.
pub fn render_serve(title: &str, r: &ServeReport) -> String {
    let mut s = format!("## {title}\n\n");
    s.push_str(&format!(
        "cold start (gated)      : {:>10} variants rewritten + verified\n",
        r.keys,
    ));
    s.push_str(&format!(
        "checkpoint              : {:>10} bytes ({} variants, code + request + snapshot + checksum)\n",
        r.checkpoint_bytes, r.keys,
    ));
    s.push_str(&format!(
        "warm start (gated)      : {:>10} republished through the same gate, each run against host ground truth\n\n",
        r.warm_published,
    ));
    s.push_str(&format!(
        "serving: zipf draws over {} keys ({}-value head, {}% of draws)\n",
        r.keys, HOT, SERVE_HEAD_MASS_PCT,
    ));
    s.push_str("threads  writer-churn  dispatches   pure-hit-path\n");
    for row in &r.serving {
        s.push_str(&format!(
            "{:>7}  {:>12}  {:>10}   {}\n",
            row.threads,
            if row.churn { "yes" } else { "no" },
            row.dispatches,
            if row.all_specialized { "yes" } else { "NO" },
        ));
    }
    s.push_str(&format!(
        "\ncorruption sweep        : {}/{} rejected, {} false accepts\n",
        r.corrupted_rejected, r.corrupted_total, r.false_accepts,
    ));
    s
}
