//! PROF: variant-attributed time profiling, the flight recorder and the
//! external-profiler symbolization surface, exercised end to end.
//!
//! Three questions, each a field `tests/gates.rs` asserts on (what one
//! `record()` costs is the benchmark's `telemetry.flight_record_ns`):
//!
//! 1. **Attribution** — replaying the stencil (specialized vs original
//!    apply) and a C4-style zipf poly workload must produce per-variant
//!    self-time that sums to the measured cycles.
//! 2. **Dump integrity** — a flight dump taken after the run has zero
//!    torn entries and renders/exports as valid chrome://tracing JSON
//!    merged with the rewrite span tree.
//! 3. **Symbolization** — every resident variant has a perf-map line;
//!    the jitdump render round-trips the code bytes.

use brew_core::telemetry::merged_chrome_json;
use brew_core::{
    validate_json, DispatchProfiler, RetKind, Rewriter, SpecRequest, SpecializationManager,
    SymbolKind, TieringConfig,
};
use brew_emu::{CallArgs, Machine};
use brew_stencil::Stencil;

/// One attributed self-time row.
#[derive(Debug, Clone)]
pub struct SelfRow {
    /// `original` or the variant fingerprint, plus context.
    pub label: String,
    /// Calls attributed.
    pub calls: u64,
    /// Total attributed model cycles.
    pub cycles: u64,
    /// Costliest single call.
    pub exemplar: u64,
}

/// Everything `prof_study` measured.
#[derive(Debug, Clone)]
pub struct ProfReport {
    /// Stencil attribution: specialized apply first, original second.
    pub stencil: Vec<SelfRow>,
    /// Zipf poly attribution, hottest variant first, original last.
    pub zipf: Vec<SelfRow>,
    /// Calls replayed through the counting poly dispatcher.
    pub zipf_calls: u64,
    /// Model cycles the zipf replay measured (sum over all calls).
    pub zipf_cycles: u64,
    /// `TickSummary::cycles_sampled` accumulated over the run's ticks.
    pub cycles_sampled: u64,
    /// Entries in the final flight dump.
    pub dump_entries: usize,
    /// Drop-oldest losses in that dump.
    pub dump_dropped: u64,
    /// Torn (skipped mid-write) slots in that dump — must be 0 at rest.
    pub dump_torn: u64,
    /// Slots holding another lap's record in that dump — 0 at rest.
    pub dump_lapped: u64,
    /// First entries of the dump, one per line, without the timestamp,
    /// thread id and duration words.
    pub flight_head: String,
    /// The perf-map render of the poly manager's symbol table.
    pub perf_map: String,
    /// Live variant symbols in that table.
    pub map_variants: usize,
    /// Variants resident in the cache — must equal `map_variants`.
    pub resident: usize,
    /// Bytes of the jitdump render.
    pub jitdump_bytes: usize,
}

/// The PROF experiment; see the module docs.
pub fn prof_study(xs: i64, ys: i64) -> ProfReport {
    // --- stencil: specialized vs original apply, attributed ---
    let s = Stencil::new(xs, ys);
    let apply = s.prog.func("apply").expect("apply");
    let smgr = SpecializationManager::new();
    let req = s.apply_request();
    let v = smgr
        .get_or_rewrite(&s.img, apply, &req)
        .expect("apply rewrite");
    // No dispatch stub here — the study calls both bodies directly, so
    // attribution is explicit: case 0 is the specialized variant, the
    // fall-through pseudo-case is the original.
    let page = brew_core::CounterPage::alloc(&s.img, 1);
    let prof = DispatchProfiler::new(apply, page, vec![req.fingerprint()], Some(smgr.metrics()));
    let mut m = Machine::new();
    let iters = 2u32;
    let host = Stencil::new(xs, ys).host_checksum(iters);
    let mut s1 = Stencil::new(xs, ys);
    let spec = s1.specialize_apply().expect("specialized apply");
    let _ = v; // the managed variant pins apply in the cache/symbol table
    let st_spec = s1
        .run_with_apply(&mut m, spec.entry, false, iters)
        .expect("specialized run");
    assert_eq!(s1.checksum(iters), host);
    prof.attribute(&s.img, 0, st_spec.cycles)
        .expect("attribute specialized");
    let mut s2 = Stencil::new(xs, ys);
    let st_orig = s2
        .run(&mut m, brew_stencil::Variant::Generic, iters)
        .expect("generic run");
    assert_eq!(s2.checksum(iters), host);
    prof.attribute(&s.img, 1, st_orig.cycles)
        .expect("attribute original");
    let stencil: Vec<SelfRow> = smgr
        .metrics()
        .self_times()
        .iter()
        .map(|t| SelfRow {
            label: if t.fingerprint == brew_core::telemetry::ORIGINAL_FP {
                "original apply (generic sweep)".into()
            } else {
                format!("specialized apply (fp 0x{:x})", t.fingerprint)
            },
            calls: t.count,
            cycles: t.sum_cycles,
            exemplar: t.exemplar_cycles,
        })
        .collect();
    assert_eq!(
        stencil.iter().map(|r| r.cycles).sum::<u64>(),
        st_spec.cycles + st_orig.cycles,
        "stencil attribution conserves cycles"
    );

    // --- C4-style zipf workload over poly variants ---
    let src = "int poly(int x, int n) { int r = 1; for (int i = 0; i < n; i++) r *= x; return r; }";
    let img = brew_image::Image::new();
    let prog = brew_minic::compile_into(src, &img).expect("poly compile");
    let poly = prog.func("poly").expect("poly");
    let mgr = SpecializationManager::builder()
        .tiering(TieringConfig {
            // Promotion out of reach: the tick only samples/decays here,
            // so the dispatcher (and attribution order) stays stable.
            promote_heat: f64::MAX,
            demote_heat: 0.0,
            decay: 0.5,
            cooldown_ticks: 0,
            cycle_weight: 1e-4,
        })
        .build();
    let exponents = [16i64, 8, 4];
    for n in exponents {
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(n)
            .ret(RetKind::Int);
        mgr.get_or_rewrite(&img, poly, &req).expect("poly rewrite");
    }
    let (entry, page) = mgr
        .build_dispatcher_counting(&img, poly, poly)
        .expect("counting dispatcher");
    let mut prof = mgr.profile_dispatcher(poly, page);
    prof.prime(&img).expect("prime profiler");

    // Zipf-ish skew: the hottest exponent takes ~70%, a long tail of
    // fall-through `n`s models the un-specialized mass.
    let mut zipf_calls = 0u64;
    let mut zipf_cycles = 0u64;
    let mut cycles_sampled = 0u64;
    let mut msum = 0u64;
    for i in 0..240u32 {
        let n: i64 = match i % 10 {
            0..=6 => 16,
            7 => 8,
            8 => 4,
            _ => 3 + (i as i64 % 5), // miss: falls through to the original
        };
        let out = m
            .call(&img, entry, &CallArgs::new().int(3).int(n))
            .expect("dispatched poly call");
        msum = msum.wrapping_add(out.ret_int);
        prof.observe(&img, out.stats.cycles).expect("observe call");
        zipf_calls += 1;
        zipf_cycles += out.stats.cycles;
        if i % 60 == 59 {
            cycles_sampled += mgr.tick(&img).cycles_sampled;
        }
    }
    std::hint::black_box(msum);
    cycles_sampled += mgr.tick(&img).cycles_sampled;
    assert_eq!(
        cycles_sampled, zipf_cycles,
        "ticks must drain exactly the attributed cycles"
    );
    let mut zipf: Vec<SelfRow> = mgr
        .metrics()
        .self_times()
        .iter()
        .map(|t| SelfRow {
            label: if t.fingerprint == brew_core::telemetry::ORIGINAL_FP {
                "original poly (fall-through)".into()
            } else {
                format!("poly variant fp 0x{:x}", t.fingerprint)
            },
            calls: t.count,
            cycles: t.sum_cycles,
            exemplar: t.exemplar_cycles,
        })
        .collect();
    zipf.sort_by_key(|r| std::cmp::Reverse(r.calls));
    assert_eq!(
        zipf.iter().map(|r| r.cycles).sum::<u64>(),
        zipf_cycles,
        "zipf attribution conserves cycles"
    );

    // --- symbolization: perf map / jitdump vs the resident set ---
    let symbols = mgr.symbols();
    let perf_map = symbols.render_perf_map();
    let map_variants = symbols.live_count(SymbolKind::Variant);
    let resident = mgr.len();
    let jitdump_bytes = symbols.render_jitdump(&img).len();

    // --- flight dump + merged chrome export ---
    // A traced rewrite supplies the span tree the flight events merge
    // with; its SpanRecorder anchors the shared timeline.
    let (_, rec) = Rewriter::new(&s.img)
        .rewrite_with_trace(apply, &s.apply_request())
        .expect("traced apply rewrite");
    let dump = mgr.flight().dump();
    validate_json(&merged_chrome_json(&rec, &dump)).expect("merged chrome export malformed");
    let wall_clock = |tok: &&str| ["ts=", "tid=", "ns="].iter().any(|p| tok.starts_with(p));
    let flight_head = dump
        .entries
        .iter()
        .take(13)
        .map(|e| {
            let line = e.render_line();
            let kept: Vec<&str> = line.split(' ').filter(|t| !wall_clock(t)).collect();
            kept.join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n");

    ProfReport {
        stencil,
        zipf,
        zipf_calls,
        zipf_cycles,
        cycles_sampled,
        dump_entries: dump.entries.len(),
        dump_dropped: dump.dropped,
        dump_torn: dump.torn,
        dump_lapped: dump.lapped,
        flight_head,
        perf_map,
        map_variants,
        resident,
        jitdump_bytes,
    }
}

/// Render the PROF report.
pub fn render_prof(title: &str, r: &ProfReport) -> String {
    let mut s = format!("## {title}\n\n");
    s.push_str(&format!(
        "torn entries in dump    : {:>10} ({} lapped, {} entries, {} dropped, over {} recorded)\n",
        r.dump_torn,
        r.dump_lapped,
        r.dump_entries,
        r.dump_dropped,
        r.dump_entries as u64 + r.dump_dropped,
    ));
    s.push_str(&format!(
        "perf map / resident     : {} symbols / {} variants (match: {})\n",
        r.map_variants,
        r.resident,
        if r.map_variants == r.resident {
            "yes"
        } else {
            "NO"
        },
    ));
    s.push_str("merged chrome export    :      valid (spans + flight events, strict JSON check)\n");
    s.push_str(&format!(
        "jitdump render          : {:>10} bytes\n",
        r.jitdump_bytes,
    ));
    s.push_str(&format!(
        "tick cycle sampling     : {:>10} model cycles drained over the zipf replay \
         ({} calls, {} cycles measured)\n\n",
        r.cycles_sampled, r.zipf_calls, r.zipf_cycles,
    ));

    s.push_str("### Stencil: where the time went (model cycles)\n\n");
    s.push_str(&format!(
        "{:<44} {:>7} {:>14} {:>14}\n",
        "body", "calls", "self cycles", "worst call"
    ));
    for row in &r.stencil {
        s.push_str(&format!(
            "{:<44} {:>7} {:>14} {:>14}\n",
            row.label, row.calls, row.cycles, row.exemplar
        ));
    }

    s.push_str("\n### Zipf poly: per-variant self time\n\n");
    s.push_str(&format!(
        "{:<44} {:>7} {:>14} {:>10} {:>14}\n",
        "variant", "calls", "self cycles", "cyc/call", "worst call"
    ));
    for row in &r.zipf {
        s.push_str(&format!(
            "{:<44} {:>7} {:>14} {:>10.1} {:>14}\n",
            row.label,
            row.calls,
            row.cycles,
            row.cycles as f64 / row.calls.max(1) as f64,
            row.exemplar
        ));
    }

    s.push_str("\n### Perf map (`/tmp/perf-<pid>.map` format)\n\n");
    for line in r.perf_map.lines() {
        s.push_str("    ");
        s.push_str(line);
        s.push('\n');
    }
    s.push_str("\n### Flight dump (head)\n\n");
    for line in r.flight_head.lines() {
        s.push_str("    ");
        s.push_str(line);
        s.push('\n');
    }
    s
}
