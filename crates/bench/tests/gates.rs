//! The CI gates of the reproduction, as assertions on the typed reports the
//! studies return, plus the pinned text of a full `tables` run. Each test
//! name starts with the `scripts/check.sh` stage that selects it (`e2_` is
//! shared by `equiv` and `regalloc`, `tables_` rides with `obs`, `trace_`
//! with `hotpath`).
//!
//! `tables_pins.txt` moves whenever an experiment's number moves: regenerate
//! with `BREW_BLESS=1 cargo test -p brew-bench --test gates tables_` and
//! read the diff. The three wall-clock bars (denial ≥ 100× cheaper than the
//! doomed rewrite, warm start ≥ 5× cheaper than cold, a flight record
//! ≤ 100 ns) are read off the benchmark by `scripts/check.sh bench`.

use brew_bench::*;
use brew_core::OptLevel;
use std::process::Command;
use std::sync::OnceLock;

const PINNED: &str = include_str!("tables_pins.txt");

/// One full `tables` run, shared by the two `tables_` tests.
fn first_render() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| render_all(&EXPERIMENTS))
}

/// The V2 report, shared by the `equiv_` and `e2_` tests.
fn v2() -> &'static EquivV2Report {
    static REPORT: OnceLock<EquivV2Report> = OnceLock::new();
    REPORT.get_or_init(equiv_study)
}

#[test]
fn tables_output_is_pinned() {
    if std::env::var_os("BREW_BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/tables_pins.txt");
        std::fs::write(path, first_render()).expect("write pins");
        return;
    }
    let (mut a, mut b) = (first_render().lines(), PINNED.lines());
    for line in 1.. {
        match (a.next(), b.next()) {
            (None, None) => break,
            (got, want) if got == want => {}
            (got, want) => panic!(
                "tables output drifted at tables_pins.txt:{line}\n   now: {got:?}\npinned: {want:?}"
            ),
        }
    }
}

#[test]
fn tables_render_twice_is_byte_identical() {
    assert!(render_all(&EXPERIMENTS) == first_render());
}

#[test]
fn tables_unknown_id_exits_2_with_the_id_list() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["e1", "e9"])
        .output()
        .expect("run tables");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs when an id is unknown");
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains("`e9`"), "{err}");
    for id in EXPERIMENTS {
        assert!(err.split_whitespace().any(|w| w == id), "{id} in {err}");
    }
}

#[test]
fn obs_exports_validate_and_the_explain_report_renders() {
    // `obs_study` strict-validates the JSON snapshot and the chrome dump and
    // checks the counter page against the call count before it returns.
    let r = obs_study(XS, YS);
    assert!(r.explain.contains("### generated code"), "{}", r.explain);
    assert!(r.prometheus.contains("\nbrew_rewrite_total_ns_count 1\n"));
    assert!(r.counting.insts > r.plain.insts);
}

#[test]
fn lifecycle_sweep_drops_exactly_the_mutated_variants() {
    let r = lifecycle_study(XS, YS, 1_000);
    assert_eq!((r.resident, r.dropped_after_mutation), (2, 2));
    assert_eq!((r.stats.denied, r.stats.stale), (1_000, 2));
}

#[test]
fn verify_publish_gate_publishes_the_clean_corpus() {
    let r = verify_study();
    assert_eq!(r.gate_rejected, 0);
    assert!(r.gate_passed > 0);
}

#[test]
fn tier_every_drift_phase_reconverges() {
    let r = tier_study(4, 12, 256);
    assert!(r.all_converged, "{:?}", r.phases);
    assert!(r.phases.iter().all(|p| p.final_overlap >= 0.9));
}

#[test]
fn serve_dispatches_stay_on_the_hit_path_and_no_corruption_loads() {
    let r = serve_study(4_000, &[1, 2, 4]);
    assert_eq!(r.warm_published as u64, r.keys);
    assert!(r.serving.iter().all(|row| row.all_specialized));
    assert_eq!(r.corrupted_rejected, r.corrupted_total);
    assert_eq!(r.false_accepts, 0);
}

#[test]
fn prof_dump_is_tear_free_and_symbols_match_the_resident_set() {
    // `prof_study` strict-validates the merged chrome export before it returns.
    let r = prof_study(XS, YS);
    assert_eq!((r.dump_torn, r.dump_lapped), (0, 0));
    assert_eq!(r.map_variants, r.resident);
    assert_eq!(r.cycles_sampled, r.zipf_cycles);
}

#[test]
fn prof_inspect_demo_cross_references_every_live_publish() {
    let out = Command::new(env!("CARGO_BIN_EXE_brew-inspect"))
        .arg("--demo")
        .env("TMPDIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run brew-inspect");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(text.contains("# flight timeline"), "{text}");
    let (hit, of) = text
        .lines()
        .find_map(|l| l.strip_suffix(" live publishes match a map line"))
        .and_then(|l| l.rsplit(' ').next()?.split_once('/'))
        .expect("`<n>/<n> live publishes match a map line`");
    assert_eq!(hit, of, "{text}");
    assert_ne!(hit, "0", "{text}");
}

#[test]
fn equiv_clean_corpus_proves_without_reemission_and_every_miscompile_is_rejected() {
    let r = v2();
    for c in &r.clean {
        assert_eq!((c.equiv_errors, c.errors), (0, 0), "{}", c.label);
    }
    assert_eq!(r.fallbacks, 0, "conservative re-emissions");
    assert_eq!(r.kinds.len(), 8);
    for k in &r.kinds {
        assert!(k.applied > 0 && k.detected == k.applied, "{k:?}");
    }
}

#[test]
fn e2_ladder_is_monotone_and_within_its_instruction_budget() {
    let r = v2();
    assert!(r.ladder_monotone(), "{:?}", r.ladder);
    assert_eq!(r.ladder.len(), OptLevel::ALL.len());
    let default = OptLevel::ALL
        .iter()
        .position(|l| *l == OptLevel::default())
        .expect("the default level is a rung");
    assert!(r.ladder[default].1 <= E2_DEFAULT_GATE, "{:?}", r.ladder);
    assert!(r.aggressive_insts <= E2_AGGRESSIVE_GATE, "{:?}", r.ladder);
}

#[test]
fn regalloc_a2_ladder_is_monotone_and_the_slot_allocator_converts() {
    let rows = passes_study(XS, YS, ITERS);
    assert_eq!(rows.len(), OptLevel::ALL.len(), "one row per OptLevel");
    assert!(
        rows.windows(2).all(|w| w[1].cycles <= w[0].cycles),
        "{rows:?}"
    );
    let counts = pass_counts(XS, YS);
    let slot = counts
        .iter()
        .find(|c| c.pass == "slot-alloc")
        .expect("a slot-alloc stage");
    assert!(
        slot.apply > 0,
        "a slot allocator that converts nothing is dead"
    );
}

#[test]
fn regalloc_passes_decode_each_instruction_once() {
    for (label, captured, stages) in pass_work(XS, YS) {
        let total = |f: fn(&PassWork) -> u64| stages.iter().map(f).sum::<u64>();
        let (decodes, rewritten) = (total(|w| w.decodes), total(|w| w.rewritten));
        assert!(captured > 0 && decodes > 0, "{label}: {stages:?}");
        assert!(
            decodes <= captured + rewritten,
            "{label}: {decodes} effect decodes for {captured} captured + {rewritten} rewritten"
        );
        // One analysis under every stage: past the context's construction
        // (on the first stage's bill) a stage decodes what it wrote and
        // nothing else, every local rule runs in the one cleanup, and the
        // slot allocator reads its extents off at most one solve of the
        // shared liveness (it keeps no fixpoint of its own).
        for w in &stages[1..] {
            assert_eq!(w.decodes, w.rewritten, "{label}: {w:?}");
        }
        let names: Vec<&str> = stages.iter().map(|w| w.pass.as_str()).collect();
        assert_eq!(
            names,
            ["const-prop", "dce", "slot-alloc", "cleanup"],
            "{label}"
        );
        let slot_alloc = stages.iter().find(|w| w.pass == "slot-alloc");
        assert!(
            slot_alloc.is_some_and(|w| w.solves <= 1),
            "{label}: {stages:?}"
        );
    }
}

/// The cleanup's ledger, `label rule visits edits scanned rescanned`: runs,
/// instructions removed, instructions in the blocks the runs covered, and
/// of those in the rounds after the first.
const CLEANUP_LEDGER: &str = "\
apply frame-reloads 2 0 0 0
apply sweep 7 0 142 26
apply stack-pairs 1 66 116 0
apply addends 2 0 76 26
apply addresses 2 7 76 26
apply coalesce 2 13 69 26
apply propagate 2 4 56 26
sweep_generic.u4 frame-reloads 5 6 619 76
sweep_generic.u4 sweep 117 1 1425 500
sweep_generic.u4 stack-pairs 38 487 1214 298
sweep_generic.u4 addends 20 0 767 391
sweep_generic.u4 addresses 27 59 802 407
sweep_generic.u4 coalesce 21 90 590 249
sweep_generic.u4 propagate 21 29 500 248
sweep_generic.u4 merge-adjustments 14 4 46 46
madd.64 frame-reloads 3 0 0 0
madd.64 sweep 67 0 767 249
madd.64 stack-pairs 1 132 518 0
madd.64 addends 3 84 635 249
madd.64 addresses 3 0 551 221
madd.64 coalesce 3 129 551 221
madd.64 propagate 2 63 312 110
";

#[test]
fn regalloc_cleanup_rescans_only_dirty_windows() {
    // A rule runs again over a block only where the block, or the part of
    // its live-out state the rule reads, changed since the rule's last run
    // there: its dirty window is that block. Every rule running over every
    // block a round left unsettled, the rounds after the first scanned
    // 0.72 (`sweep_generic.u4`) and 0.51 (`madd.64`) of what the first did.
    let mut ledger = String::new();
    for (label, _, stages) in pass_work(XS, YS) {
        let cleanup = stages.iter().find(|w| w.pass == "cleanup");
        let rules = &cleanup.expect("a cleanup span").rules;
        for r in rules {
            let row = (r.visits, r.edits, r.scanned, r.rescanned);
            ledger.push_str(&format!(
                "{label} {} {} {} {} {}\n",
                r.rule, row.0, row.1, row.2, row.3
            ));
            assert!(r.rescanned <= r.scanned, "{label}: {r:?}");
        }
        // The rounds after the first scan less than the first did.
        let (scanned, rescanned) = rules
            .iter()
            .fold((0, 0), |(s, r), w| (s + w.scanned, r + w.rescanned));
        assert!(
            2 * rescanned < scanned,
            "{label}: {rescanned} of {scanned} rescanned"
        );
    }
    assert_eq!(ledger, CLEANUP_LEDGER);
}

#[test]
fn regalloc_sweep_rewrite_beats_the_specialized_apply() {
    let apply = &stencil_study(XS, YS, ITERS)[2];
    let sweep = &sweep_study(XS, YS, ITERS, &[4])[0];
    assert!(apply.label.contains("specialized apply"), "{apply:?}");
    assert!(sweep.cycles < apply.cycles, "{sweep:?} vs {apply:?}");
}

#[test]
fn trace_decodes_each_address_once_and_compares_worlds_on_a_digest_match() {
    for w in trace_work(XS, YS) {
        // One decode per distinct address fetched: both traces take every
        // arm of their loops, so that is every reachable instruction —
        // against tens of fetches per address.
        assert_eq!(w.decodes, w.reachable, "{w:?}");
        assert!(w.traced >= 8 * w.decodes, "{w:?}");
        // The variant search compares worlds in full only where a digest
        // matches: at most once per block found or made and per migration
        // anchor, not once per variant of the address per enqueue.
        assert!(w.migrations > 0, "{w:?}");
        assert!(w.compares <= w.blocks + w.migrations, "{w:?}");
    }
}

#[test]
fn equiv_walks_a_block_again_only_inside_a_loop() {
    let rows = proof_work();
    let of = |label: &str| {
        let row = rows.iter().find(|r| r.label == label);
        row.unwrap_or_else(|| panic!("no proof of {label}"))
    };
    // A captured CFG without a retreating edge is walked in one pass: every
    // block after all of its predecessors, once.
    for label in [
        "apply",
        "apply_grouped",
        "poly.16",
        "madd.48",
        "dotk",
        "clamp",
        "scale",
        "sum.4",
    ] {
        let r = of(label);
        assert_eq!(r.retreating, 0, "{r:?}");
        assert_eq!(r.work.visits, r.work.blocks, "{r:?}");
    }
    // With one, only the loop's blocks are walked again, and only while the
    // entry state of its head still changes: (blocks, visits) as measured,
    // and never more re-walks than blocks on a cycle of the captured CFG.
    // The sweeps also stay within 10 % of one walk; `gsum.64` is too small
    // for a percentage (its four re-walks are its whole four-block loop).
    for (label, blocks, visits, pct) in [
        ("gsum.64", 12, 16, None),
        ("sweep_generic.u4", 35, 38, Some(110)),
        ("sweep_unrolled.12x12.v16", 92, 98, Some(110)),
    ] {
        let r = of(label);
        assert!(r.retreating > 0, "{r:?}");
        assert_eq!((r.work.blocks, r.work.visits), (blocks, visits), "{r:?}");
        assert!(r.work.visits - r.work.blocks <= r.on_cycle, "{r:?}");
        if let Some(pct) = pct {
            assert!(100 * r.work.visits <= pct * r.work.blocks, "{r:?}");
        }
    }
    // Both sides are walked, the captured one being the longer.
    for r in &rows {
        let [pre, post] = r.work.walked;
        assert!(pre > post && post > 0 && r.work.terms > 0, "{r:?}");
    }
}
