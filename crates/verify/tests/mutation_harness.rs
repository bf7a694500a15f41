//! Seeded-mutant detection: apply every applicable corruption from
//! `brew_verify::mutate` to a corpus of real variants and require that
//! the verifier rejects every single mutant — and accepts the variant
//! again once the corruption is reverted.

use brew_core::{RetKind, RewriteResult, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{mutate, verify, Rule, Severity, VerifyOptions};
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

struct Case {
    what: &'static str,
    func: u64,
    req: SpecRequest,
    res: RewriteResult,
}

fn corpus(img: &Image) -> Vec<Case> {
    let prog = brew_minic::compile_into(PROG, img).unwrap();
    let known = img.alloc_heap(6 * 8, 8);
    for i in 0..6 {
        img.write_u64(known + i * 8, 100 + i * 7).unwrap();
    }
    let mut cases = Vec::new();
    let mut add = |what: &'static str, name: &str, req: SpecRequest| {
        let func = prog.func(name).unwrap();
        let res = Rewriter::new(img).rewrite(func, &req).expect(what);
        cases.push(Case {
            what,
            func,
            req,
            res,
        });
    };
    add(
        "poly n=6",
        "poly",
        SpecRequest::new()
            .unknown_int()
            .known_int(6)
            .ret(RetKind::Int),
    );
    add(
        "scale k=123456789",
        "scale",
        SpecRequest::new()
            .unknown_int()
            .known_int(123_456_789)
            .ret(RetKind::Int),
    );
    // Unknown bounds keep the conditional branches in the variant.
    add(
        "clamp unknown bounds",
        "clamp",
        SpecRequest::new()
            .unknown_int()
            .unknown_int()
            .unknown_int()
            .ret(RetKind::Int),
    );
    // Kept hook calls: call/push/pop sites.
    add(
        "hooked sum",
        "sum",
        SpecRequest::new()
            .unknown_int()
            .known_int(4)
            .ret(RetKind::Int)
            .entry_hook(prog.func("tick").unwrap())
            .func(prog.func("tick").unwrap(), |o| o.inline = false),
    );
    // Inlined `tick` gives absolute global load/store sites; the
    // PTR_TO_KNOWN operand gives a non-empty folded read-set.
    add(
        "dotk known xs",
        "dotk",
        SpecRequest::new()
            .ptr_to_known(known, 6 * 8)
            .unknown_int()
            .known_int(6)
            .ret(RetKind::Int),
    );
    // A loop world migration keeps: its counter is a constant in every
    // unrolled body and the exit tests survive as flag writer + jcc — the
    // sites of the dataflow-pass-shaped mutants.
    add(
        "sum n=6 kept loop",
        "sum",
        SpecRequest::new()
            .unknown_int()
            .known_int(6)
            .ret(RetKind::Int)
            .func(prog.func("sum").unwrap(), |o| {
                o.branch_unknown = true;
                o.max_variants = 2;
            }),
    );
    cases
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
    ("poly n=6", "frame-skew", 0x900026),
    ("poly n=6", "wrong-reg-sub", 0x900026),
    ("poly n=6", "clobber-callee-saved", 0x900026),
    ("poly n=6", "stale-slot-const", 0x900026),
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
    ("hooked sum", "dropped-pop", 0x9001c1),
    ("hooked sum", "frame-skew", 0x9000b0),
    ("hooked sum", "folded-imm-tweak", 0x9000b0),
    ("hooked sum", "wrong-reg-sub", 0x9001c1),
    ("hooked sum", "clobber-callee-saved", 0x9000b0),
    ("hooked sum", "dropped-spill-store", 0x9001c1),
    ("hooked sum", "stale-slot-const", 0x9001c1),
    ("hooked sum", "folded-imm-off-by-one", 0x9001c1),
    ("dotk known xs", "dropped-push", 0x90027f),
    ("dotk known xs", "dropped-pop", 0x90027f),
    ("dotk known xs", "frame-skew", 0x90027f),
    ("dotk known xs", "store-into-known", 0x9001d0),
    ("dotk known xs", "store-into-jit", 0x9001d0),
    ("dotk known xs", "dangling-data-ref", 0x9001d0),
    ("dotk known xs", "load-from-code", 0x9001d0),
    ("dotk known xs", "wrong-reg-sub", 0x90027f),
    ("dotk known xs", "clobber-callee-saved", 0x90027f),
    ("dotk known xs", "stale-slot-const", 0x90027f),
    ("dotk known xs", "folded-imm-off-by-one", 0x9001d0),
    ("sum n=6 kept loop", "branch-off-by-two", 0x900290),
    ("sum n=6 kept loop", "wild-jump", 0x900290),
    ("sum n=6 kept loop", "dropped-push", 0x900347),
    ("sum n=6 kept loop", "dropped-pop", 0x90032b),
    ("sum n=6 kept loop", "frame-skew", 0x900347),
    ("sum n=6 kept loop", "wrong-reg-sub", 0x90033e),
    ("sum n=6 kept loop", "clobber-callee-saved", 0x900347),
    ("sum n=6 kept loop", "folded-imm-off-by-one", 0x900335),
    ("sum n=6 kept loop", "dropped-flag-writer", 0x900290),
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
    ];
    let mut applied = [0usize; 3];
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
    let mut seen: Vec<(&str, &str, u64)> = Vec::new();
    for case in &corpus(&img) {
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
                seen.push((case.what, kind.name(), f.addr));
            }
        }
    }
    assert_eq!(seen, EQUIVALENCE_REJECTIONS);
}
