//! End-to-end telemetry: the always-on metrics registry, self-counting
//! dispatch stubs, the rewrite span tree and the export formats.

use brew_core::telemetry::flight::{FlightEntry, FlightKind};
use brew_core::telemetry::metrics::{Ctr, Gge, Hst, ORIGINAL_FP};
use brew_core::{
    explain_report, validate_json, CacheStats, Invalidation, MetricsRegistry, NegativePolicy,
    RetKind, RewriteResult, Rewriter, SpecRequest, SpecializationManager,
};
use brew_emu::{CallArgs, Machine};
use brew_image::Image;

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
fn registry_is_fed_without_any_sink() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();

    let v = mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap();
    mgr.build_dispatcher(&img, poly, poly).unwrap();

    // Every decision lands in the metrics registry: nothing has to be
    // attached for the counters to be fed.
    let m = mgr.metrics();
    assert_eq!(m.counter(Ctr::CacheMisses).get(), 1);
    assert_eq!(m.counter(Ctr::CacheHits).get(), 2);
    assert_eq!(m.counter(Ctr::Rewrites).get(), 1);
    assert_eq!(m.counter(Ctr::RewriteFailures).get(), 0);
    assert_eq!(m.counter(Ctr::DispatchersBuilt).get(), 1);
    assert_eq!(m.counter(Ctr::TracedInsts).get(), v.stats.traced);
    assert_eq!(m.counter(Ctr::JitCodeBytes).get(), v.code_len as u64);
    assert_eq!(m.gauge(Gge::ResidentBytes).get(), v.code_len as i64);
    assert_eq!(m.gauge(Gge::ResidentVariants).get(), 1);
    assert_eq!(m.gauge(Gge::InflightRewrites).get(), 0, "balanced inc/dec");
    // The rewrite's phase timings landed in every histogram.
    for h in [Hst::TraceNs, Hst::PassNs, Hst::EmitNs, Hst::TotalNs] {
        assert_eq!(m.histogram(h).count(), 1, "{}", h.name());
    }
    assert_eq!(
        m.histogram(Hst::TotalNs).sum(),
        v.stats.total_ns(),
        "total histogram sums the rewrite's phase total"
    );
}

#[test]
fn registry_counts_failures() {
    let (img, _) = setup();
    let mgr = SpecializationManager::new();
    // A non-code address fails to rewrite.
    assert!(mgr.get_or_rewrite(&img, 0x10, &poly_req(1)).is_err());
    let m = mgr.metrics();
    assert_eq!(m.counter(Ctr::RewriteFailures).get(), 1);
    assert_eq!(m.counter(Ctr::Rewrites).get(), 0);
    assert_eq!(m.gauge(Gge::InflightRewrites).get(), 0);
}

#[test]
fn counting_dispatcher_counters_match_call_totals() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    for n in [3i64, 5, 8] {
        mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
    }
    let (dispatch, page) = mgr.build_dispatcher_counting(&img, poly, poly).unwrap();
    assert_eq!(page.cases, 3);
    assert_eq!(page.total(&img).unwrap(), 0, "page starts zeroed");

    // Drive a known call mix through the stub: variants are chained
    // hottest-first, but every case guards a distinct n so the per-value
    // totals are exact regardless of chain order.
    let mut m = Machine::new();
    let mix = [(3i64, 7u64), (5, 4), (8, 2)];
    let mut fallthrough = 0u64;
    for &(n, times) in &mix {
        for _ in 0..times {
            m.call(&img, dispatch, &CallArgs::new().int(2).int(n))
                .unwrap();
        }
    }
    for n in [0i64, 1, 4] {
        m.call(&img, dispatch, &CallArgs::new().int(2).int(n))
            .unwrap();
        fallthrough += 1;
    }

    let total_calls = mix.iter().map(|&(_, t)| t).sum::<u64>() + fallthrough;
    assert_eq!(page.total(&img).unwrap(), total_calls);
    assert_eq!(page.fallthrough_hits(&img).unwrap(), fallthrough);

    // Map each case's slot back to the variant it guards and check the
    // per-value counts.
    let variants = mgr.variants_of(poly);
    for (ci, v) in variants.iter().enumerate() {
        let guards = v.guards.as_ref().unwrap();
        let n = guards[0].1;
        let want = mix.iter().find(|&&(mn, _)| mn == n).unwrap().1;
        assert_eq!(
            page.case_hits(&img, ci).unwrap(),
            want,
            "case {ci} guards n={n}"
        );
    }

    // Reset zeroes the page; further calls count again.
    page.reset(&img).unwrap();
    m.call(&img, dispatch, &CallArgs::new().int(2).int(3))
        .unwrap();
    assert_eq!(page.total(&img).unwrap(), 1);
}

/// The profiler books cycles under the fingerprints of the stub it was
/// built for. Hits between building the counting stub and building the
/// profiler reorder the cache's hottest-first listing, and a publish in
/// between lengthens it; neither may move attribution off the stub's own
/// case order.
#[test]
fn profiler_attributes_by_the_stubs_case_order() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    for n in [3i64, 5] {
        mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
    }
    let (stub, page) = mgr.build_dispatcher_counting(&img, poly, poly).unwrap();
    let guarded = |v: &brew_core::Variant| v.guards.as_ref().unwrap()[0].1;
    let order: Vec<i64> = mgr.variants_of(poly).iter().map(|v| guarded(v)).collect();
    assert_eq!(order, [5, 3], "the stub tests n=5 first");

    for _ in 0..3 {
        mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap();
    }
    mgr.get_or_rewrite(&img, poly, &poly_req(8)).unwrap();
    let mut prof = mgr.profile_dispatcher(poly, page);
    prof.prime(&img).unwrap();

    // n=5 takes case 0; n=7 falls through (slot `page.cases`).
    let mut m = Machine::new();
    for (n, case, cycles) in [(5i64, 0usize, 777u64), (7, page.cases, 900)] {
        m.call(&img, stub, &CallArgs::new().int(2).int(n)).unwrap();
        assert_eq!(prof.observe(&img, cycles).unwrap(), Some(case), "n={n}");
    }
    let booked: Vec<(u64, u64)> = mgr
        .metrics()
        .self_times()
        .iter()
        .map(|s| (s.fingerprint, s.sum_cycles))
        .collect();
    let mut want = vec![(poly_req(5).fingerprint(), 777), (ORIGINAL_FP, 900)];
    want.sort_unstable();
    assert_eq!(booked, want);
}

#[test]
fn counting_stub_is_behaviorally_identical_to_plain() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    for n in [2i64, 6] {
        mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
    }
    let plain = mgr.build_dispatcher(&img, poly, poly).unwrap();
    let (counting, page) = mgr.build_dispatcher_counting(&img, poly, poly).unwrap();

    let mut m = Machine::new();
    let mut calls = 0u64;
    for x in [-5i64, -1, 0, 1, 2, 3, 100] {
        for n in [0i64, 1, 2, 3, 6, 7] {
            let args = CallArgs::new().int(x).int(n);
            let a = m.call(&img, plain, &args).unwrap().ret_int;
            let b = m.call(&img, counting, &args).unwrap().ret_int;
            let orig = m.call(&img, poly, &args).unwrap().ret_int;
            assert_eq!(a, b, "poly({x},{n}) diverged between stub flavors");
            assert_eq!(b, orig, "poly({x},{n}) diverged from the original");
            calls += 1;
        }
    }
    assert_eq!(
        page.total(&img).unwrap(),
        calls,
        "every call through the counting stub bumped exactly one slot"
    );
}

#[test]
fn exports_are_well_formed_and_cover_the_run() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    mgr.get_or_rewrite(&img, poly, &poly_req(4)).unwrap();
    mgr.get_or_rewrite(&img, poly, &poly_req(4)).unwrap();

    let m = mgr.metrics();
    let prom = m.render_prometheus();
    for needle in [
        "# HELP brew_cache_hits_total",
        "# TYPE brew_cache_hits_total counter",
        "brew_cache_hits_total 1",
        "brew_cache_misses_total 1",
        "brew_rewrite_trace_ns_bucket{le=\"+Inf\"} 1",
        "brew_rewrite_trace_ns_count 1",
        "brew_cache_resident_variants 1",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }
    validate_json(&m.snapshot_json()).expect("snapshot JSON is valid");
}

#[test]
fn trace_spans_chrome_json_and_explain_report() {
    let (img, poly) = setup();
    let (res, rec) = Rewriter::new(&img)
        .rewrite_with_trace(poly, &poly_req(6))
        .unwrap();

    // The three pipeline phases are present and plausibly ordered.
    for phase in ["trace", "passes", "emit"] {
        assert!(rec.span_ns(phase) > 0, "phase {phase} missing or empty");
    }
    assert!(!rec.events_in("block").is_empty(), "per-block spans");
    assert!(!rec.events_in("pass").is_empty(), "per-pass spans");
    assert!(!rec.events_in("emit-step").is_empty(), "emit-step spans");

    let chrome = rec.to_chrome_json();
    validate_json(&chrome).expect("chrome trace JSON is valid");
    assert!(chrome.contains("\"ph\":\"X\""), "complete events present");

    let report = explain_report(&img, poly, &res, &rec);
    for needle in [
        "poly",
        "### phases",
        "### blocks",
        "### generated code",
        &format!("{:#x}", res.entry),
    ] {
        assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
    }

    // The trace result itself still behaves.
    let out = Machine::new()
        .call(&img, res.entry, &CallArgs::new().int(3).int(6))
        .unwrap();
    assert_eq!(out.ret_int, 729);
}

/// Everything an export consumer can see of the telemetry tables, as text:
/// the whole exposition of a fresh registry (every `# HELP`/`# TYPE` line
/// and sample, in order), its JSON snapshot, and one dump line per
/// [`FlightKind`] (label, argument names, `Hex`/`Dec`/`Milli` formats).
fn current_pins() -> String {
    let mut out = String::from("== exposition of a fresh registry\n");
    out.push_str(&MetricsRegistry::new().render_prometheus());
    out.push_str("== JSON snapshot of a fresh registry\n");
    out.push_str(&MetricsRegistry::new().snapshot_json());
    out.push_str("\n== one dump line per flight kind\n");
    for &kind in FlightKind::ALL {
        let e = FlightEntry {
            ts_ns: 1_000 + kind as u64,
            tid: 1,
            kind,
            args: [0x40_1000, 0x90_0040, 1_234, 56_789],
        };
        out.push_str(&e.render_line());
        out.push('\n');
    }
    out
}

/// `telemetry_pins.txt` was generated at the commit before the metric and
/// flight-kind lists became tables; it changes only when a metric or a
/// decision kind is added or renamed on purpose. Regenerate it with
/// `BREW_BLESS=1 cargo test -p brew-core --test telemetry` and read the diff.
#[test]
fn exposition_and_flight_lines_are_pinned() {
    let now = current_pins();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/telemetry_pins.txt");
    if std::env::var_os("BREW_BLESS").is_some() {
        std::fs::write(path, &now).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(path).unwrap();
    for (i, (a, b)) in now.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(a, b, "telemetry_pins.txt line {}", i + 1);
    }
    assert_eq!(now.lines().count(), pinned.lines().count());
    assert_eq!(FlightKind::ALL.len(), 26);
}

const LIFE: &str = r#"
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
    int dot(int* c, int x) {
        return c[0] * x + c[1];
    }
"#;

/// `stats()` against the registry it is a view over, field by field.
fn assert_stats_match_registry(mgr: &SpecializationManager) -> CacheStats {
    let st = mgr.stats();
    let m = mgr.metrics();
    let c = |c: Ctr| m.counter(c).get();
    assert_eq!(st.hits, c(Ctr::CacheHits));
    assert_eq!(st.misses, c(Ctr::CacheMisses));
    assert_eq!(st.coalesced, c(Ctr::CacheCoalesced));
    assert_eq!(st.evictions, c(Ctr::CacheEvictions));
    assert_eq!(st.traced_total, c(Ctr::TracedInsts));
    assert_eq!(st.rewrite_ns_total, m.histogram(Hst::TotalNs).sum());
    assert_eq!(st.dispatchers_built, c(Ctr::DispatchersBuilt));
    assert_eq!(st.denied, c(Ctr::NegativeHits));
    assert_eq!(st.invalidated, c(Ctr::CacheInvalidated));
    assert_eq!(st.stale, c(Ctr::CacheStale));
    assert_eq!(st.panics_contained, c(Ctr::PanicsContained));
    assert_eq!(st.resident_bytes as i64, m.gauge(Gge::ResidentBytes).get());
    assert_eq!(
        st.negative_entries as i64,
        m.gauge(Gge::NegativeEntries).get()
    );
    st
}

/// One scripted, single-threaded life of a manager that takes every
/// counted decision at least once — hit, miss, a `request` miss,
/// eviction, denial, invalidation, stale revalidation, contained panic,
/// warm start — with every `CacheStats` field checked against the
/// registry counter it reads, and the counts themselves pinned.
#[test]
fn cache_stats_are_a_view_over_the_registry() {
    let img = Image::new();
    let prog = brew_minic::compile_into(LIFE, &img).unwrap();
    let (poly, dot) = (prog.func("poly").unwrap(), prog.func("dot").unwrap());
    // Three variants, a budget one byte short of all three.
    let len = |n| {
        Rewriter::new(&img)
            .rewrite(poly, &poly_req(n))
            .unwrap()
            .code_len
    };
    let budget = len(3) + len(4) + len(5) - 1;
    let mgr = SpecializationManager::builder()
        .budget(budget)
        .negative_policy(NegativePolicy {
            base_backoff: 1_000_000,
            attempt_cap: 10,
        })
        .publish_gate(Box::new(
            |_: &Image, _: u64, req: &SpecRequest, _: &RewriteResult| {
                assert!(req != &poly_req(13), "gate blew up on purpose");
                Ok(())
            },
        ))
        .build();

    mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap(); // miss
    mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap(); // hit
    assert!(mgr
        .request(&img, poly, &poly_req(4))
        .unwrap()
        .is_specialized()); // miss
    mgr.get_or_rewrite(&img, poly, &poly_req(5)).unwrap(); // miss + eviction
    mgr.build_dispatcher(&img, poly, poly).unwrap();
    let st = assert_stats_match_registry(&mgr);
    assert_eq!((st.hits, st.misses), (1, 3));
    assert_eq!((st.evictions, st.dispatchers_built), (1, 1));
    assert!(st.resident_bytes <= budget && st.traced_total > 0 && st.rewrite_ns_total > 0);

    // A checkpoint reloaded into a second manager: each warm-started entry
    // is journaled as PUBLISHED and counted once, by the load.
    let warm = SpecializationManager::new();
    let img2 = Image::new();
    brew_minic::compile_into(LIFE, &img2).unwrap();
    let report = warm
        .load_variant_bytes(&img2, &mgr.save_variant_bytes(&img))
        .unwrap();
    assert_eq!((report.published, report.rejected.len()), (2, 0));
    let wst = assert_stats_match_registry(&warm);
    assert_eq!((wst.hits, wst.misses), (0, 0));
    assert_eq!(warm.metrics().counter(Ctr::PersistLoaded).get(), 2);
    let dump = warm.flight().dump().render_text();
    assert_eq!(dump.matches("kind=PUBLISHED").count(), 2, "{dump}");

    // Invalidation by function, then a stale revalidation.
    assert_eq!(mgr.apply_invalidation(Invalidation::Func(poly)), 2);
    let c = img.alloc_heap(16, 8);
    img.write_u64(c, 3).unwrap();
    img.write_u64(c + 8, 7).unwrap();
    let dot_req = SpecRequest::new()
        .ptr_to_known(c, 16)
        .unknown_int()
        .ret(RetKind::Int);
    mgr.get_or_rewrite(&img, dot, &dot_req).unwrap(); // miss
    img.write_u64(c, 5).unwrap();
    assert_eq!(mgr.apply_invalidation(Invalidation::Revalidate(&img)), 1);

    // A doomed request fails once and is denied afterwards, on both entry
    // points; a panicking gate is contained and negatively cached too.
    let doomed = poly_req(64).max_trace_insts(4);
    assert!(mgr.get_or_rewrite(&img, poly, &doomed).is_err()); // miss
    assert!(mgr.get_or_rewrite(&img, poly, &doomed).is_err()); // denied
    assert!(!mgr.request(&img, poly, &doomed).unwrap().is_specialized()); // denied
    let dump = mgr.flight().dump().render_text();
    let denied = format!("kind=DENIED func={poly:#x} attempts=1\n");
    assert_eq!(dump.matches(&denied).count(), 2, "{dump}");
    assert!(mgr.get_or_rewrite(&img, poly, &poly_req(13)).is_err()); // miss + panic

    let st = assert_stats_match_registry(&mgr);
    assert_eq!((st.hits, st.misses, st.coalesced), (1, 6, 0));
    assert_eq!(st.evictions, 1);
    assert_eq!((st.invalidated, st.stale, st.denied), (3, 1, 2));
    assert_eq!((st.panics_contained, st.negative_entries), (1, 2));
    assert_eq!((st.resident_bytes, mgr.len()), (0, 0));
    let m = mgr.metrics();
    assert_eq!(m.counter(Ctr::Rewrites).get(), 4);
    assert_eq!(m.counter(Ctr::RewriteFailures).get(), 2);
}

/// The documented freeze: with the registry switched off no decision is
/// counted anywhere, so the cumulative `CacheStats` fields stand still
/// while the caches' own accounting keeps moving; switching it back on
/// resumes from the frozen values.
#[test]
fn stats_freeze_while_the_registry_is_disabled() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap();
    let before = mgr.stats();
    assert_eq!((before.hits, before.misses), (0, 1));

    mgr.metrics().set_enabled(false);
    mgr.get_or_rewrite(&img, poly, &poly_req(3)).unwrap(); // a hit
    mgr.get_or_rewrite(&img, poly, &poly_req(4)).unwrap(); // a miss and a rewrite
    assert!(mgr.get_or_rewrite(&img, 0x10, &poly_req(1)).is_err()); // a failure
    let frozen = mgr.stats();
    assert_eq!(mgr.len(), 2, "the manager itself kept working");
    assert!(frozen.resident_bytes > before.resident_bytes);
    assert_eq!(frozen.negative_entries, 1);
    let cumulative = CacheStats {
        resident_bytes: before.resident_bytes,
        negative_entries: before.negative_entries,
        ..frozen
    };
    assert_eq!(cumulative, before);

    mgr.metrics().set_enabled(true);
    mgr.get_or_rewrite(&img, poly, &poly_req(4)).unwrap();
    let after = mgr.stats();
    assert_eq!((after.hits, after.misses), (1, 1));
    assert_eq!(after.traced_total, before.traced_total);
}
