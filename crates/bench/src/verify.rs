//! V1: the static variant verifier as an experiment — zero false
//! positives on real variants and 100% detection of seeded mutants, as a
//! detection matrix. (What a verification costs is the benchmark's
//! `verify.structural_us` + `verify.equiv_us`.)
//!
//! Three sections:
//!
//! 1. **clean** — every variant of the V1 corpus
//!    (`crates/verify/tests/corpus`) plus the §V stencil apply is verified
//!    under `strict_provenance`; any rejection is a false positive;
//! 2. **mutants** — every applicable corruption from
//!    `brew_verify::mutate` is seeded into every corpus variant;
//! 3. **gate** — the same requests replayed through a
//!    `SpecializationManager` running `verify_on_publish`.
//!
//! `crates/verify/tests/{mutation_harness,clean_variants}.rs` gate the
//! escapes, the false positives and the kind coverage on the same corpus.

use crate::corpus::{self, Case};
use brew_core::telemetry::metrics::Ctr;
use brew_core::{RewriteResult, Rewriter, SpecializationManager};
use brew_image::Image;
use brew_verify::{mutate, publish_gate, verify, Rule, VerifyOptions};

/// One verified variant.
#[derive(Debug, Clone)]
pub struct CleanRow {
    /// Corpus label.
    pub label: String,
    /// Instructions the verifier re-decoded.
    pub insts: usize,
    /// Error findings — any non-zero entry is a false positive.
    pub errors: usize,
}

/// Per-mutation-kind detection tally.
#[derive(Debug, Clone)]
pub struct KindRow {
    /// Mutation kind (kebab-case name).
    pub kind: &'static str,
    /// Rule family the kind targets.
    pub rule: Rule,
    /// Sites found across the corpus.
    pub applied: usize,
    /// Mutants the verifier rejected.
    pub detected: usize,
}

/// Everything `verify_study` measured.
#[derive(Debug, Clone)]
pub struct VerifyV1Report {
    /// Clean-variant section (false positives show up here).
    pub clean: Vec<CleanRow>,
    /// Per-kind seeded-mutant tallies.
    pub kinds: Vec<KindRow>,
    /// Mutants whose rejection carried an Error finding of each rule.
    pub per_rule: [(Rule, usize); 6],
    /// Variants published through the gated manager.
    pub gate_passed: u64,
    /// Variants the gate rejected (must be 0 — the corpus is clean).
    pub gate_rejected: u64,
}

/// The V1 experiment.
pub fn verify_study() -> VerifyV1Report {
    let img = Image::new();
    let cases = corpus::v1(&img);
    let opts = VerifyOptions {
        strict_provenance: true,
        ..VerifyOptions::default()
    };

    // --- section 1: clean variants ---
    let mut clean = Vec::new();
    let mut variants: Vec<(Case, RewriteResult)> = Vec::new();
    for case in cases {
        let res = Rewriter::new(&img)
            .rewrite(case.func, &case.req)
            .expect("corpus rewrite");
        let report = verify(&img, case.func, &case.req, &res, &opts);
        clean.push(CleanRow {
            label: case.label.clone(),
            insts: report.insts,
            errors: report.error_count(),
        });
        variants.push((case, res));
    }
    // The §V workload rides along: the specialized stencil apply must be
    // just as clean as the synthetic corpus.
    {
        let mut st = brew_stencil::Stencil::new(crate::XS, crate::YS);
        let apply = st.prog.func("apply").unwrap();
        let req = st.apply_request();
        let res = st.specialize_apply().expect("stencil apply");
        let report = verify(&st.img, apply, &req, &res, &opts);
        clean.push(CleanRow {
            label: "stencil apply".into(),
            insts: report.insts,
            errors: report.error_count(),
        });
    }

    // --- section 2: seeded mutants ---
    let mut kinds: Vec<KindRow> = mutate::Mutation::ALL
        .iter()
        .map(|k| KindRow {
            kind: k.name(),
            rule: k.rule(),
            applied: 0,
            detected: 0,
        })
        .collect();
    let mut per_rule = [
        (Rule::Roundtrip, 0usize),
        (Rule::CfgClosure, 0),
        (Rule::StackDiscipline, 0),
        (Rule::WriteContainment, 0),
        (Rule::Provenance, 0),
        (Rule::Equivalence, 0),
    ];
    for (case, res) in &variants {
        for (ki, kind) in mutate::Mutation::ALL.into_iter().enumerate() {
            let Some(m) = mutate::apply(&img, res, kind) else {
                continue;
            };
            kinds[ki].applied += 1;
            let report = verify(&img, case.func, &case.req, res, &opts);
            if !report.passed() {
                kinds[ki].detected += 1;
                for (rule, n) in report.errors_by_rule() {
                    if n > 0 {
                        per_rule.iter_mut().find(|(r, _)| *r == rule).unwrap().1 += 1;
                    }
                }
            }
            m.revert(&img);
        }
    }

    // --- section 3: the manager gate (verify_on_publish) ---
    let mgr = SpecializationManager::builder()
        .publish_gate(publish_gate())
        .build();
    for (case, _) in &variants {
        mgr.get_or_rewrite(&img, case.func, &case.req)
            .expect("gated publish");
    }
    let metrics = mgr.metrics();

    VerifyV1Report {
        clean,
        kinds,
        per_rule,
        gate_passed: metrics.counter(Ctr::VerifyPassed).get(),
        gate_rejected: metrics.counter(Ctr::VerifyRejected).get(),
    }
}

/// Render the V1 report.
pub fn render_verify(title: &str, r: &VerifyV1Report) -> String {
    let mut s = format!("## {title}\n\n");
    let fps: usize = r.clean.iter().map(|c| c.errors).sum();
    s.push_str(&format!(
        "clean variants            : {} verified, {} false positives\n",
        r.clean.len(),
        fps
    ));
    for c in &r.clean {
        s.push_str(&format!("  {:<23} : {:>4} insts\n", c.label, c.insts));
    }
    let applied: usize = r.kinds.iter().map(|k| k.applied).sum();
    let detected: usize = r.kinds.iter().map(|k| k.detected).sum();
    let kinds_hit = r.kinds.iter().filter(|k| k.applied > 0).count();
    s.push_str(&format!(
        "seeded mutants            : {detected}/{applied} detected across {kinds_hit}/{} kinds\n",
        r.kinds.len()
    ));
    s.push_str(&format!(
        "mutant escape count       : {}\n",
        applied - detected
    ));
    for k in &r.kinds {
        s.push_str(&format!(
            "  {:<23} : {}/{} ({})\n",
            k.kind,
            k.detected,
            k.applied,
            k.rule.name()
        ));
    }
    s.push_str("rule catch counts         :");
    for (rule, n) in &r.per_rule {
        s.push_str(&format!(" {}={n}", rule.name()));
    }
    s.push('\n');
    s.push_str(&format!(
        "publish gate              : {} passed, {} rejected\n",
        r.gate_passed, r.gate_rejected
    ));
    s
}
