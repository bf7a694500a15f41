//! Flight-recorder torture: dumping concurrently with writers must never
//! block, tear, or mis-account — at the raw-ring level, under real
//! manager publish churn, and on the panic-containment path.

use brew_core::telemetry::flight::FlightKind;
use brew_core::{
    FlightRecorder, Invalidation, PublishRejection, RetKind, SpecRequest, SpecializationManager,
    SymbolKind,
};
use brew_image::Image;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// Per-event payload checksum: would let the dumper detect a payload
/// mixing words from two different writes. With the claim-CAS write
/// protocol such mixing is structurally impossible, so every decoded
/// entry must check out — the assertion is exact, not a bound.
fn chk(w: u64, seq: u64) -> u64 {
    w ^ seq.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15
}

/// 8 writers hammer a small ring while a dumper snapshots it in a loop.
/// Every snapshot must be internally consistent: per-writer sequence
/// numbers monotone (no reordering, no duplication within a dump), the
/// slot accounting exact (`entries + torn + lapped` covers the window),
/// and — the PR 9 fix — *zero* mixed payloads: the claim CAS makes
/// payload stores exclusive, so a clean stamp proves a whole record.
/// Full-lap races surface as `lapped` slots, never as corruption.
#[test]
fn torture_concurrent_writers_and_dumper() {
    const WRITERS: u64 = 8;
    const EVENTS: u64 = 10_000;
    let rec = Arc::new(FlightRecorder::new(1024));
    let cap = rec.capacity() as u64;
    let stop = Arc::new(AtomicBool::new(false));

    let dumper = {
        let rec = Arc::clone(&rec);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut dumps = 0u64;
            while !stop.load(Ordering::Acquire) {
                let d = rec.dump();
                // Each ticket in the window is decoded, torn, or lapped.
                assert_eq!(
                    d.entries.len() as u64 + d.torn + d.lapped,
                    d.recorded.min(cap),
                    "slot accounting must be exact"
                );
                // Per-writer sequence args must be strictly increasing:
                // a writer's tickets are program-ordered and the dump's
                // stable time sort preserves ring order on ties.
                let mut last = vec![None::<u64>; WRITERS as usize];
                for e in &d.entries {
                    assert_eq!(e.kind, FlightKind::Hit);
                    let (w, seq) = (e.args[0], e.args[1]);
                    assert_eq!(
                        e.args[2],
                        chk(w, seq),
                        "mixed payload for writer {w} seq {seq}: exclusive \
                         claim-CAS writes must make this impossible"
                    );
                    if let Some(prev) = last[w as usize] {
                        assert!(seq > prev, "writer {w}: seq {seq} after {prev}");
                    }
                    last[w as usize] = Some(seq);
                }
                dumps += 1;
            }
            dumps
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for seq in 0..EVENTS {
                    rec.record(FlightKind::Hit, [w, seq, chk(w, seq), 0]);
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let dumps = dumper.join().unwrap();
    assert!(dumps > 0, "dumper never ran");

    // At rest nothing is mid-write, so torn must be exactly zero and no
    // payload may be mixed. The only residue a full-lap race can leave
    // is a slot consistently stamped for an older ticket (a newer write
    // abandoned against a slower lapped writer) — `lapped`, bounded by
    // one slot per writer.
    let d = rec.dump();
    assert_eq!(d.torn, 0, "a quiesced ring can have no mid-write slots");
    for e in &d.entries {
        assert_eq!(
            e.args[2],
            chk(e.args[0], e.args[1]),
            "mixed payload at rest"
        );
    }
    assert!(
        d.lapped <= WRITERS,
        "lapped residue {} exceeds one slot per writer",
        d.lapped
    );
    assert_eq!(d.recorded, WRITERS * EVENTS);
    assert_eq!(d.entries.len() as u64 + d.lapped, cap);
    assert_eq!(d.dropped, WRITERS * EVENTS - cap);
    let text = d.render_text();
    assert!(text.starts_with("# brew flight dump v1"));
    assert_eq!(text.lines().count(), d.entries.len() + 1);
}

/// Forced-lap regression for the PR 9 classification fix: a tiny ring
/// against a flat-out writer guarantees slots are overwritten *during*
/// the dump. Those must surface as `lapped` (a consistent record from
/// the wrong lap), never as `torn` corruption — and a single-writer ring
/// at rest must dump perfectly clean (no abandonment is possible without
/// a second writer).
#[test]
fn forced_lap_is_classified_lapped_not_torn() {
    let rec = Arc::new(FlightRecorder::new(64));
    let cap = rec.capacity() as u64;
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let rec = Arc::clone(&rec);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !stop.load(Ordering::Acquire) {
                rec.record(FlightKind::Hit, [0, seq, chk(0, seq), 0]);
                seq += 1;
            }
        })
    };
    // Don't start sampling until the writer is demonstrably spinning and
    // has lapped the ring at least once — otherwise the dump loop can
    // finish against an idle ring before the writer thread is scheduled.
    while rec.recorded() < cap * 2 {
        std::hint::spin_loop();
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut saw_lapped = false;
    while std::time::Instant::now() < deadline {
        let d = rec.dump();
        assert_eq!(
            d.entries.len() as u64 + d.torn + d.lapped,
            d.recorded.min(cap),
            "slot accounting must be exact under forced laps"
        );
        // Whatever survives must be whole records — a lap can hide a
        // slot, never corrupt one.
        for e in &d.entries {
            assert_eq!(e.args[2], chk(e.args[0], e.args[1]), "mixed payload");
        }
        if d.lapped > 0 {
            saw_lapped = true;
            break;
        }
    }
    stop.store(true, Ordering::Release);
    writer.join().unwrap();
    assert!(
        saw_lapped,
        "a 64-slot ring against a flat-out writer must lap the dumper"
    );
    // Quiesced single-writer ring: nothing mid-write, nothing abandoned.
    let d = rec.dump();
    assert_eq!(d.torn, 0);
    assert_eq!(d.lapped, 0);
    assert_eq!(d.entries.len() as u64, d.recorded.min(cap));
}

/// Real manager churn: rewriters, an invalidator, and a flight dumper all
/// run concurrently. Dumps must stay consistent while publishes retire
/// cache snapshots, and at quiescence the symbol table must agree with
/// the resident set.
#[test]
fn manager_rcu_churn_with_concurrent_dumps() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    let stop = AtomicBool::new(false);
    let rewriters_done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let dumper = s.spawn(|| {
            let flight = mgr.flight();
            let mut dumps = 0u64;
            while !stop.load(Ordering::Acquire) {
                let d = flight.dump();
                let cap = flight.capacity() as u64;
                assert_eq!(
                    d.entries.len() as u64 + d.torn + d.lapped,
                    d.recorded.min(cap)
                );
                // Rendering while writers run must stay line-clean.
                for line in d.render_text().lines().skip(1) {
                    assert!(line.starts_with("ts="), "garbled dump line: {line}");
                }
                dumps += 1;
            }
            dumps
        });
        let rewriters: Vec<_> = (0..3i64)
            .map(|t| {
                let (mgr, img) = (&mgr, &img);
                s.spawn(move || {
                    for round in 0..40i64 {
                        let n = 2 + ((t + round) % 6);
                        mgr.get_or_rewrite(img, poly, &poly_req(n)).unwrap();
                        let _ = mgr.request(img, poly, &poly_req(n)).unwrap();
                    }
                })
            })
            .collect();
        let invalidator = {
            let (mgr, img, rewriters_done) = (&mgr, &img, &rewriters_done);
            s.spawn(move || {
                for round in 0..20 {
                    if round % 5 == 4 {
                        // A clear retires what is resident: wait for a
                        // publish, or the journal may never see a retire
                        // (this thread can finish before any rewriter has
                        // published). Nothing else empties the manager, so
                        // only a finished rewriter set ends the wait early.
                        while mgr.is_empty() && !rewriters_done.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        mgr.clear();
                    } else {
                        mgr.apply_invalidation(Invalidation::Revalidate(img));
                    }
                    std::thread::yield_now();
                }
            })
        };
        for t in rewriters {
            t.join().unwrap();
        }
        rewriters_done.store(true, Ordering::Release);
        invalidator.join().unwrap();
        stop.store(true, Ordering::Release);
        assert!(dumper.join().unwrap() > 0);
    });

    // Quiescent consistency: one live symbol per resident variant, and
    // the journal actually saw the churn.
    let d = mgr.flight().dump();
    assert_eq!(d.torn, 0);
    assert_eq!(mgr.symbols().live_count(SymbolKind::Variant), mgr.len());
    let kinds: Vec<FlightKind> = d.entries.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&FlightKind::Rewritten));
    assert!(kinds.contains(&FlightKind::SymbolPublish));
    assert!(kinds.contains(&FlightKind::SymbolRetire));
    assert!(kinds.contains(&FlightKind::SnapPublish));
}

/// A contained panic freezes a flight dump: the events leading up to the
/// blast (including the successful publish before it) are retrievable
/// from `last_panic_dump()` after the fact.
#[test]
fn contained_panic_captures_preceding_events() {
    let (img, poly) = setup();
    let calls = Arc::new(AtomicUsize::new(0));
    let calls2 = Arc::clone(&calls);
    let mgr = SpecializationManager::builder()
        .publish_gate(Box::new(
            move |_: &Image,
                  _: u64,
                  _: &SpecRequest,
                  _: &brew_core::RewriteResult|
                  -> Result<(), PublishRejection> {
                if calls2.fetch_add(1, Ordering::SeqCst) == 0 {
                    Ok(())
                } else {
                    panic!("gate blew up");
                }
            },
        ))
        .build();
    assert!(mgr.last_panic_dump().is_none());
    mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    let err = mgr.get_or_rewrite(&img, poly, &poly_req(9)).unwrap_err();
    assert!(err.to_string().contains("gate blew up"));

    let dump = mgr.last_panic_dump().expect("panic must freeze a dump");
    assert!(dump.starts_with("# brew flight dump v1"));
    assert!(dump.contains("kind=PANIC"), "{dump}");
    // The history before the blast is in the frozen dump: the first
    // publish and the second miss that led to the panicking gate.
    assert!(dump.contains("kind=REWRITTEN"), "{dump}");
    assert!(dump.contains("kind=SYM_PUB"), "{dump}");
    let panic_at = dump.find("kind=PANIC").unwrap();
    let first_pub = dump.find("kind=SYM_PUB").unwrap();
    assert!(first_pub < panic_at, "events must precede the containment");
}
