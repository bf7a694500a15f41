//! End-to-end telemetry: the always-on metrics registry, a self-counting
//! dispatch stub, the structured rewrite trace with its explain report,
//! the flight-recorder timeline, and the perf map external profilers
//! consume.
//!
//! Nothing is attached to the manager in this example — the point is
//! that its lock-free registry observes every decision on its own, and
//! that a counting stub measures its *own* dispatch rates in guest code.
//!
//! ```sh
//! cargo run --example telemetry
//! ```

use brew_suite::core::telemetry::metrics::{Ctr, Hst};
use brew_suite::prelude::*;

fn main() {
    let img = Image::new();
    let prog = compile_into(
        r#"
        int poly(int x, int n) {
            int r = 1;
            for (int i = 0; i < n; i++) r *= x;
            return r;
        }
        "#,
        &img,
    )
    .unwrap();
    let poly = prog.func("poly").unwrap();

    // Cache three variants through the manager.
    let mgr = SpecializationManager::new();
    for n in [12i64, 7, 3] {
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(n)
            .ret(RetKind::Int);
        mgr.get_or_rewrite(&img, poly, &req).unwrap();
        mgr.get_or_rewrite(&img, poly, &req).unwrap(); // cache hit
    }

    // A *self-counting* dispatch stub: each case bumps a counter slot in
    // guest memory on its way to the variant, the fall-through bumps the
    // last slot.
    let (dispatch, page) = mgr.build_dispatcher_counting(&img, poly, poly).unwrap();
    let mut m = Machine::new();
    for i in 0..300u32 {
        let n = match i % 20 {
            0..=13 => 12,
            14..=17 => 7,
            18 => 3,
            _ => 1 + (i / 20) as i64 % 9, // long tail -> fall-through
        };
        let out = m
            .call(&img, dispatch, &CallArgs::new().int(2).int(n))
            .unwrap();
        let orig = m.call(&img, poly, &CallArgs::new().int(2).int(n)).unwrap();
        assert_eq!(out.ret_int, orig.ret_int);
    }
    let slots = page.snapshot(&img).unwrap();
    println!("counter page after 300 calls (fall-through last): {slots:?}");
    assert_eq!(slots.iter().sum::<u64>(), 300, "every call counted once");

    // Feed the measured dispatch rates into the registry and export.
    let reg = mgr.metrics();
    reg.count(Ctr::GuardHits, 300 - page.fallthrough_hits(&img).unwrap());
    reg.count(Ctr::GuardFallthrough, page.fallthrough_hits(&img).unwrap());

    println!(
        "\nregistry (always on): {} misses, {} hits, \
         {} guest insts traced, {} rewrites timed",
        reg.counter(Ctr::CacheMisses).get(),
        reg.counter(Ctr::CacheHits).get(),
        reg.counter(Ctr::TracedInsts).get(),
        reg.histogram(Hst::TotalNs).count(),
    );
    assert_eq!(reg.counter(Ctr::CacheMisses).get(), 3);
    assert_eq!(reg.counter(Ctr::CacheHits).get(), 3);

    let json = reg.snapshot_json();
    validate_json(&json).expect("snapshot JSON must be valid");
    println!("\nJSON snapshot ({} bytes, validated)", json.len());
    let prom = reg.render_prometheus();
    println!("Prometheus exposition, guard section:");
    for line in prom.lines().filter(|l| l.contains("guard")) {
        println!("  {line}");
    }

    // A traced rewrite: the span tree renders as chrome://tracing JSON
    // and as the human-readable explain report (paper Figure 6).
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(12)
        .ret(RetKind::Int);
    let (res, rec) = Rewriter::new(&img).rewrite_with_trace(poly, &req).unwrap();
    let chrome = rec.to_chrome_json();
    validate_json(&chrome).expect("chrome trace must be valid JSON");
    println!(
        "\ntraced rewrite: {} span events, chrome trace {} bytes (validated)\n",
        rec.events().len(),
        chrome.len()
    );
    println!("{}", explain_report(&img, poly, &res, &rec));

    // The flight recorder journaled every decision above — dump the tail
    // of the timeline (the format `brew-inspect` renders and
    // cross-references).
    let dump = mgr.flight().dump();
    assert_eq!(dump.torn, 0, "at-rest dump must be tear-free");
    println!(
        "flight recorder: {} events journaled ({} dropped); last 8:",
        dump.recorded, dump.dropped
    );
    let text = dump.render_text();
    let lines: Vec<&str> = text.lines().skip(1).collect();
    for line in &lines[lines.len().saturating_sub(8)..] {
        println!("  {line}");
    }

    // Every resident variant has a live symbol an external profiler can
    // resolve: the perf-map render (plus the dispatch stub).
    let symbols = mgr.symbols();
    let map = symbols.render_perf_map();
    println!(
        "\nperf map (write to {} for `perf report`):",
        SymbolTable::perf_map_path().display()
    );
    for line in map.lines() {
        println!("  {line}");
    }
    assert_eq!(
        symbols.live_count(SymbolKind::Variant),
        mgr.len(),
        "one live symbol per resident variant"
    );

    // One timeline: the rewrite's span tree merged with the flight
    // events around it, strict-validated like every export.
    let merged = merged_chrome_json(&rec, &dump);
    validate_json(&merged).expect("merged export must be valid JSON");
    println!(
        "\nmerged span+flight chrome trace: {} bytes (open in Perfetto)",
        merged.len()
    );
}
