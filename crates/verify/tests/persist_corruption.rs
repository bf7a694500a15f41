//! Persistence corruption suite: every way a checkpoint file can lie must
//! be caught on load, with a typed [`PersistError`], a
//! `brew_persist_rejected_total` increment, and **never** a publication.
//!
//! File-level corruption (truncation, wrong magic, wrong format version)
//! rejects the whole checkpoint. Entry-level corruption is rejected
//! entry-by-entry: bit-flipped payload bytes die at the checksum, a
//! snapshot whose folded bytes no longer match the live image dies at the
//! staleness check, and — the deep end — semantically corrupted code that
//! *checksums correctly* (because the corruption happened before save)
//! dies at the publish gate, which re-runs full translation validation on
//! every loaded variant. The gate sweep reuses the 13-kind
//! [`brew_verify::mutate`] harness, so "corrupted" here means the same
//! adversarial corpus the verifier is proven against.

use brew_core::telemetry::metrics::Ctr;
use brew_core::{
    persist, PersistError, RetKind, RewriteResult, SpecRequest, SpecializationManager,
};
use brew_image::Image;
use brew_verify::mutate;
use std::collections::HashSet;

const PROG: &str = r#"
    int hits;
    void tick(int f) { hits += 1; }

    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
    int scale(int x, int k) { return x * k + k / 3; }
    int clamp(int x, int lo, int hi) {
        if (x < lo) return lo;
        if (x > hi) return hi;
        return x;
    }
    int sum(int* p, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += p[i];
        return s;
    }
    int dotk(int* xs, int* ys, int n) {
        tick(0);
        int d = 0;
        for (int i = 0; i < n; i++) d += xs[i] * ys[i];
        return d;
    }
"#;

/// One process: compile the corpus program and fill the shared
/// known-data block deterministically.
fn boot() -> (Image, brew_minic::Compiled, u64) {
    let img = Image::new();
    let prog = brew_minic::compile_into(PROG, &img).unwrap();
    let known = img.alloc_heap(6 * 8, 8);
    for i in 0..6 {
        img.write_u64(known + i * 8, 100 + i * 7).unwrap();
    }
    (img, prog, known)
}

/// The corpus of (name, request) pairs — the same shapes the mutation
/// harness uses, so between them every mutation kind has a site.
fn corpus(prog: &brew_minic::Compiled, known: u64) -> Vec<(&'static str, u64, SpecRequest)> {
    vec![
        (
            "poly n=6",
            prog.func("poly").unwrap(),
            SpecRequest::new()
                .unknown_int()
                .known_int(6)
                .ret(RetKind::Int),
        ),
        (
            "scale k=123456789",
            prog.func("scale").unwrap(),
            SpecRequest::new()
                .unknown_int()
                .known_int(123_456_789)
                .ret(RetKind::Int),
        ),
        (
            "clamp unknown bounds",
            prog.func("clamp").unwrap(),
            SpecRequest::new()
                .unknown_int()
                .unknown_int()
                .unknown_int()
                .ret(RetKind::Int),
        ),
        (
            "hooked sum",
            prog.func("sum").unwrap(),
            SpecRequest::new()
                .unknown_int()
                .known_int(4)
                .ret(RetKind::Int)
                .entry_hook(prog.func("tick").unwrap())
                .func(prog.func("tick").unwrap(), |o| o.inline = false),
        ),
        (
            "dotk known xs",
            prog.func("dotk").unwrap(),
            SpecRequest::new()
                .ptr_to_known(known, 6 * 8)
                .unknown_int()
                .known_int(6)
                .ret(RetKind::Int),
        ),
    ]
}

/// Publish the corpus through an ungated manager and checkpoint it.
fn checkpoint(
    img: &Image,
    prog: &brew_minic::Compiled,
    known: u64,
) -> (SpecializationManager, Vec<u8>) {
    let mgr = SpecializationManager::new();
    for (what, func, req) in corpus(prog, known) {
        mgr.get_or_rewrite(img, func, &req).expect(what);
    }
    let bytes = mgr.save_variant_bytes(img);
    (mgr, bytes)
}

/// A "restarted process": fresh image with identical layout, manager
/// gated by the full static verifier. Strict provenance matters here:
/// folded immediates in a persisted variant must be re-derivable from
/// the live image's known bytes, exactly like the mutation harness
/// demands of fresh rewrites.
fn restarted() -> (Image, brew_minic::Compiled, u64, SpecializationManager) {
    let (img, prog, known) = boot();
    let mgr = SpecializationManager::builder()
        .publish_gate(brew_verify::publish_gate_with(brew_verify::VerifyOptions {
            strict_provenance: true,
            ..brew_verify::VerifyOptions::default()
        }))
        .build();
    (img, prog, known, mgr)
}

fn rejected_total(mgr: &SpecializationManager) -> u64 {
    mgr.metrics().counter(Ctr::PersistRejected).get()
}

#[test]
fn truncated_checkpoint_is_rejected_wholesale() {
    let (img, prog, known) = boot();
    let (_, bytes) = checkpoint(&img, &prog, known);
    let (img2, _, _, mgr2) = restarted();

    // Cut the file at a sweep of prefixes: inside the header, inside the
    // first entry's frame, and one byte short of complete.
    for cut in [0, 7, 11, 15, 17, bytes.len() / 2, bytes.len() - 1] {
        let err = mgr2.load_variant_bytes(&img2, &bytes[..cut]).unwrap_err();
        assert!(
            matches!(err, PersistError::Truncated | PersistError::BadMagic),
            "cut at {cut}: expected Truncated/BadMagic, got {err:?}"
        );
    }
    assert_eq!(mgr2.len(), 0, "nothing may publish from a truncated file");
    assert_eq!(rejected_total(&mgr2), 7, "each truncated load counted");
}

#[test]
fn wrong_format_version_is_rejected_wholesale() {
    let (img, prog, known) = boot();
    let (_, bytes) = checkpoint(&img, &prog, known);
    let (img2, _, _, mgr2) = restarted();

    // A newer file, and the one before: its level byte numbers the rungs
    // differently, so it must not decode.
    for found in [persist::FORMAT_VERSION + 1, persist::FORMAT_VERSION - 1] {
        let mut patched = bytes.clone();
        patched[8] = found as u8; // version is LE at [8..12]
        let err = mgr2.load_variant_bytes(&img2, &patched).unwrap_err();
        assert!(
            matches!(err, PersistError::BadVersion { found: f } if f == found),
            "{err:?}"
        );
    }

    let mut garbled = bytes.clone();
    garbled[0] ^= 0xFF;
    let err = mgr2.load_variant_bytes(&img2, &garbled).unwrap_err();
    assert!(matches!(err, PersistError::BadMagic), "{err:?}");

    assert_eq!(mgr2.len(), 0);
    assert_eq!(rejected_total(&mgr2), 3);
}

#[test]
fn bit_flipped_variant_bytes_fail_the_checksum_entry_locally() {
    let (img, prog, known) = boot();
    let (mgr1, bytes) = checkpoint(&img, &prog, known);
    let total = mgr1.len();
    assert!(total >= 5);

    let spans = persist::entry_code_spans(&bytes).unwrap();
    assert_eq!(spans.len(), total);

    // Flip a single bit in one entry's code bytes: that entry (and only
    // that entry) must die at the checksum; the rest load and verify.
    for (i, span) in spans.iter().enumerate() {
        let mut corrupt = bytes.clone();
        corrupt[span.start + span.len() / 2] ^= 0x04;
        let (img2, _, _, mgr2) = restarted();
        let report = mgr2.load_variant_bytes(&img2, &corrupt).unwrap();
        assert_eq!(
            report.published,
            total - 1,
            "flip in entry {i}: all other entries load"
        );
        assert_eq!(report.rejected.len(), 1);
        assert!(
            matches!(report.rejected[0].2, PersistError::Checksum { index } if index == i),
            "flip in entry {i}: {:?}",
            report.rejected[0]
        );
        assert_eq!(mgr2.len(), total - 1);
        assert_eq!(rejected_total(&mgr2), 1);
    }
}

#[test]
fn stale_known_snapshot_is_rejected_and_negatively_cached() {
    let (img, prog, known) = boot();
    let (_, bytes) = checkpoint(&img, &prog, known);

    // The restarted process boots with *different* known data: the dotk
    // variant's folded constants are stale and must not serve.
    let (img2, prog2, known2, mgr2) = restarted();
    img2.write_u64(known2, 9999).unwrap();
    let report = mgr2.load_variant_bytes(&img2, &bytes).unwrap();
    assert_eq!(report.rejected.len(), 1, "{:?}", report.rejected);
    let (func, _, ref err) = report.rejected[0];
    assert_eq!(func, prog2.func("dotk").unwrap());
    assert!(matches!(err, PersistError::StaleSnapshot), "{err:?}");
    assert_eq!(report.published, 4, "the clean entries still load");
    assert_eq!(rejected_total(&mgr2), 1);

    // The stale key is negatively cached: the failure is memoized so the
    // key cold-starts through the ordinary backoff instead of looping.
    let dotk_req = corpus(&prog2, known2).pop().unwrap().2;
    assert!(
        mgr2.failure_of(prog2.func("dotk").unwrap(), &dotk_req)
            .is_some(),
        "stale load must be negatively cached"
    );
    assert!(!mgr2.is_resident(prog2.func("dotk").unwrap(), dotk_req.fingerprint()));
}

/// The deep end: corruption that happened *before* the checkpoint was
/// written checksums perfectly — framing and hashes cannot catch it. The
/// publish gate must. Every applicable *structural* `mutate` kind is
/// applied to a published variant, checkpointed, and loaded into a gated
/// restart: 100% rejection, zero false accepts.
///
/// The `Rule::Equivalence` kinds are out of scope here: translation
/// validation compares the emission against the captured baseline CFG,
/// which a checkpoint does not carry (`equiv: None` after a load), so
/// those kinds are publish-time-only by construction — the V2 gate
/// covers them (DESIGN.md §13 records the limitation).
#[test]
fn semantically_corrupted_code_never_republishes_through_the_gate() {
    let mut applied_kinds: HashSet<&'static str> = HashSet::new();
    let mut rejected = 0usize;
    let mut false_accepts = Vec::new();

    for kind in mutate::Mutation::ALL {
        if kind.rule() == brew_verify::Rule::Equivalence {
            continue;
        }
        for (what, case_idx) in [
            ("poly n=6", 0usize),
            ("scale k=123456789", 1),
            ("clamp unknown bounds", 2),
            ("hooked sum", 3),
            ("dotk known xs", 4),
        ] {
            // Fresh everything per (kind, case): mutations must not leak
            // between iterations.
            let (img, prog, known) = boot();
            let mgr1 = SpecializationManager::new();
            let (_, func, req) = corpus(&prog, known).swap_remove(case_idx);
            let v = mgr1.get_or_rewrite(&img, func, &req).expect(what);
            let res = RewriteResult {
                entry: v.entry,
                code_len: v.code_len,
                stats: v.stats,
                snapshot: v.snapshot.clone(),
                equiv: None,
            };
            let Some(_m) = mutate::apply(&img, &res, kind) else {
                continue;
            };
            applied_kinds.insert(kind.name());
            // The checkpoint reads back the *mutated* bytes, so the frame
            // checksum is consistent with the corruption.
            let bytes = mgr1.save_variant_bytes(&img);

            let (img2, _, _, mgr2) = restarted();
            let report = mgr2.load_variant_bytes(&img2, &bytes).unwrap();
            if report.published != 0 {
                false_accepts.push((kind.name(), what));
                continue;
            }
            assert_eq!(report.rejected.len(), 1);
            assert!(
                matches!(
                    report.rejected[0].2,
                    PersistError::Gate { .. } | PersistError::StaleSnapshot
                ),
                "{} / {}: {:?}",
                kind.name(),
                what,
                report.rejected[0]
            );
            assert_eq!(rejected_total(&mgr2), 1);
            assert_eq!(mgr2.len(), 0);
            rejected += 1;
            break; // one corpus hit per kind is enough
        }
    }

    assert!(
        false_accepts.is_empty(),
        "corrupted variants republished: {false_accepts:?}"
    );
    assert!(
        applied_kinds.len() >= 12,
        "sweep must exercise at least 12 corruption kinds, got {}: {:?}",
        applied_kinds.len(),
        applied_kinds
    );
    assert_eq!(rejected, applied_kinds.len(), "100% rejection");
}

/// Control: an *uncorrupted* checkpoint loads through the very same gate
/// with zero rejections — the suite above is not passing because the
/// gate rejects everything.
#[test]
fn clean_checkpoint_loads_fully_through_the_gate() {
    let (img, prog, known) = boot();
    let (mgr1, bytes) = checkpoint(&img, &prog, known);
    let (img2, _, _, mgr2) = restarted();
    let report = mgr2.load_variant_bytes(&img2, &bytes).unwrap();
    assert_eq!(report.published, mgr1.len(), "{:?}", report.rejected);
    assert!(report.rejected.is_empty());
    assert_eq!(rejected_total(&mgr2), 0);
    assert_eq!(
        mgr2.metrics().counter(Ctr::PersistLoaded).get(),
        mgr1.len() as u64
    );
}
