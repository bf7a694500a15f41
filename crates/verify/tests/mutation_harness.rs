//! Seeded-mutant detection: apply every applicable corruption from
//! `brew_verify::mutate` to a corpus of real variants and require that
//! the verifier rejects every single mutant — and accepts the variant
//! again once the corruption is reverted.

mod corpus;

use brew_core::{RewriteResult, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{mutate, verify, Rule, Severity, VerifyOptions};
use std::collections::HashSet;

struct Case {
    what: String,
    func: u64,
    req: SpecRequest,
    res: RewriteResult,
}

/// The shared V1 corpus, each request rewritten.
fn corpus(img: &Image) -> Vec<Case> {
    corpus::v1(img)
        .into_iter()
        .map(|c| Case {
            res: Rewriter::new(img).rewrite(c.func, &c.req).expect(&c.label),
            what: c.label,
            func: c.func,
            req: c.req,
        })
        .collect()
}

#[test]
fn every_seeded_mutant_is_detected() {
    let img = Image::new();
    let cases = corpus(&img);
    let opts = VerifyOptions {
        strict_provenance: true,
        ..VerifyOptions::default()
    };
    let mut applied_kinds: HashSet<&'static str> = HashSet::new();
    let mut applied = 0usize;
    let mut detected = 0usize;
    for case in &cases {
        let clean = verify(&img, case.func, &case.req, &case.res, &opts);
        assert!(
            clean.passed(),
            "{}: clean variant must verify before mutation",
            case.what
        );
        for kind in mutate::Mutation::ALL {
            let Some(m) = mutate::apply(&img, &case.res, kind) else {
                continue;
            };
            applied += 1;
            applied_kinds.insert(kind.name());
            let report = verify(&img, case.func, &case.req, &case.res, &opts);
            if report.passed() {
                for line in brew_verify::render_report(&img, &case.res, &report) {
                    eprintln!("{line}");
                }
                panic!(
                    "{}: mutant `{}` escaped the verifier",
                    case.what,
                    kind.name()
                );
            }
            detected += 1;
            m.revert(&img);
            let again = verify(&img, case.func, &case.req, &case.res, &opts);
            assert!(
                again.passed(),
                "{}: reverting `{}` must restore a clean verdict",
                case.what,
                kind.name()
            );
        }
    }
    assert_eq!(applied, detected, "every applied mutant must be detected");
    assert!(
        applied_kinds.len() >= 12,
        "corpus must exercise at least 12 corruption kinds, got {}: {:?}",
        applied_kinds.len(),
        applied_kinds
    );
}

#[test]
fn corpus_exercises_every_mutation_kind() {
    let img = Image::new();
    let cases = corpus(&img);
    let mut kinds: HashSet<&'static str> = HashSet::new();
    for case in &cases {
        for kind in mutate::Mutation::ALL {
            if let Some(m) = mutate::apply(&img, &case.res, kind) {
                kinds.insert(kind.name());
                m.revert(&img);
            }
        }
    }
    let missing: Vec<_> = mutate::Mutation::ALL
        .iter()
        .filter(|k| !kinds.contains(k.name()))
        .collect();
    assert!(
        missing.is_empty(),
        "mutation kinds with no site in the corpus: {missing:?}"
    );
}

/// `(case, mutation, address of the first equivalence finding)` for every
/// corpus mutant the equivalence rule rejects. The address is the emitted
/// block the event streams diverge in (or the variant entry for a malformed
/// capture), so a prover that compared less, or joined differently, moves
/// it — and so does any change to the emitted code: regenerate the table
/// (the assertion prints the current one) when the passes change, and only
/// then.
const EQUIVALENCE_REJECTIONS: &[(&str, &str, u64)] = &[
    ("poly n=6", "wrong-reg-sub", 0x900000),
    ("poly n=6", "clobber-callee-saved", 0x900000),
    ("poly n=6", "stale-slot-const", 0x900000),
    ("scale k=123456789", "folded-imm-tweak", 0x900030),
    ("scale k=123456789", "wrong-reg-sub", 0x900030),
    ("scale k=123456789", "clobber-callee-saved", 0x900030),
    ("clamp unknown bounds", "branch-off-by-two", 0x900050),
    ("clamp unknown bounds", "wild-jump", 0x900050),
    ("clamp unknown bounds", "frame-skew", 0x900072),
    ("clamp unknown bounds", "wrong-reg-sub", 0x900050),
    ("clamp unknown bounds", "clobber-callee-saved", 0x900050),
    ("clamp unknown bounds", "commuted-noncommutative", 0x900050),
    ("clamp unknown bounds", "dropped-flag-writer", 0x900050),
    ("hooked sum", "call-into-data", 0x9000b0),
    ("hooked sum", "dropped-push", 0x9000b0),
    ("hooked sum", "dropped-pop", 0x9000b0),
    ("hooked sum", "frame-skew", 0x9000b0),
    ("hooked sum", "folded-imm-tweak", 0x9000b0),
    ("hooked sum", "wrong-reg-sub", 0x9000b0),
    ("hooked sum", "clobber-callee-saved", 0x9000b0),
    ("hooked sum", "stale-slot-const", 0x9000b0),
    ("hooked sum", "folded-imm-off-by-one", 0x9000b0),
    ("dotk known xs", "store-into-known", 0x900140),
    ("dotk known xs", "store-into-jit", 0x900140),
    ("dotk known xs", "dangling-data-ref", 0x900140),
    ("dotk known xs", "load-from-code", 0x900140),
    ("dotk known xs", "wrong-reg-sub", 0x900140),
    ("dotk known xs", "clobber-callee-saved", 0x900140),
    ("dotk known xs", "stale-slot-const", 0x900140),
    ("dotk known xs", "folded-imm-off-by-one", 0x900140),
    ("sum n=6 kept loop", "branch-off-by-two", 0x900200),
    ("sum n=6 kept loop", "wild-jump", 0x900200),
    ("sum n=6 kept loop", "dropped-push", 0x90029c),
    ("sum n=6 kept loop", "dropped-pop", 0x900289),
    ("sum n=6 kept loop", "frame-skew", 0x90029c),
    ("sum n=6 kept loop", "wrong-reg-sub", 0x900293),
    ("sum n=6 kept loop", "clobber-callee-saved", 0x90029c),
    ("sum n=6 kept loop", "stale-slot-const", 0x900218),
    ("sum n=6 kept loop", "folded-imm-off-by-one", 0x900289),
    ("sum n=6 kept loop", "dropped-flag-writer", 0x900200),
    ("held across a kept call", "call-into-data", 0x9002b0),
    ("held across a kept call", "dropped-push", 0x9002b0),
    ("held across a kept call", "dropped-pop", 0x9002b0),
    ("held across a kept call", "frame-skew", 0x9002b0),
    ("held across a kept call", "wrong-reg-sub", 0x9002b0),
    ("held across a kept call", "clobber-callee-saved", 0x9002b0),
    ("held across a kept call", "dropped-spill-store", 0x9002b0),
    ("held across a kept call", "folded-imm-off-by-one", 0x9002b0),
    ("held across a kept call", "stale-slot-reg", 0x9002b0),
    ("madd b=48", "wrong-reg-sub", 0x9002f0),
    ("madd b=48", "clobber-callee-saved", 0x9002f0),
    ("madd b=48", "dropped-addend", 0x9002f0),
];

/// The dataflow-pass-shaped kinds are invisible to the five structural
/// rules: every such mutant is rejected, and by the equivalence rule alone.
#[test]
fn pass_shaped_mutants_are_caught_by_equivalence_alone() {
    let img = Image::new();
    let opts = VerifyOptions::default();
    let kinds = [
        mutate::Mutation::StaleSlotConst,
        mutate::Mutation::FoldedImmOffByOne,
        mutate::Mutation::DroppedFlagWriter,
        mutate::Mutation::StaleSlotReg,
        mutate::Mutation::DroppedAddend,
    ];
    let mut applied = [0usize; 5];
    for case in &corpus(&img) {
        for (k, kind) in kinds.into_iter().enumerate() {
            let Some(m) = mutate::apply(&img, &case.res, kind) else {
                continue;
            };
            applied[k] += 1;
            let report = verify(&img, case.func, &case.req, &case.res, &opts);
            m.revert(&img);
            let errors: Vec<_> = report
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .collect();
            assert!(
                !errors.is_empty(),
                "{}: mutant `{}` escaped the verifier",
                case.what,
                kind.name()
            );
            assert!(
                errors.iter().all(|f| f.rule == Rule::Equivalence),
                "{}: `{}` was visible to a structural rule: {errors:?}",
                case.what,
                kind.name()
            );
        }
    }
    assert!(
        applied.iter().all(|&n| n > 0),
        "every kind needs a site in the corpus: {applied:?}"
    );
}

#[test]
fn equivalence_rejections_stay_at_the_same_block() {
    let img = Image::new();
    let opts = VerifyOptions {
        strict_provenance: true,
        ..VerifyOptions::default()
    };
    let cases = corpus(&img);
    let mut seen: Vec<(&str, &str, u64)> = Vec::new();
    for case in &cases {
        for kind in mutate::Mutation::ALL {
            let Some(m) = mutate::apply(&img, &case.res, kind) else {
                continue;
            };
            let report = verify(&img, case.func, &case.req, &case.res, &opts);
            m.revert(&img);
            let first = report
                .findings
                .iter()
                .find(|f| f.rule == Rule::Equivalence && f.severity == Severity::Error);
            if let Some(f) = first {
                seen.push((&case.what, kind.name(), f.addr));
            }
        }
    }
    assert_eq!(seen, EQUIVALENCE_REJECTIONS);
}
