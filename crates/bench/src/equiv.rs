//! V2: the symbolic equivalence checker as an experiment — zero
//! equivalence rejections on a clean differential corpus (and so zero
//! conservative re-emissions through a gated manager), 100% detection of
//! the regalloc- and dataflow-pass-shaped miscompile kinds, and the E2
//! instruction-count ladder that `OptLevel::Aggressive` buys once the proof
//! gates it.
//!
//! Three sections (`tests/gates.rs` asserts on the report's fields):
//!
//! 1. **clean** — every variant of the V2 corpus
//!    (`crates/verify/tests/corpus`: ints, doubles, division, a loop
//!    world migration keeps, each at every pass point down to the
//!    pass-less spill-everything shape) and the §V workloads (stencil
//!    apply, whole-sweep rewrite, PGAS sum) is checked; any
//!    `Rule::Equivalence` error is a soundness false positive, and a
//!    gated manager must publish every one of them at the first attempt;
//! 2. **miscompiles** — the eight pass-shaped corruption kinds from
//!    `brew_verify::mutate` seeded into every corpus variant must be
//!    rejected *by the equivalence rule* (the structural rules are blind
//!    to them by construction);
//! 3. **ladder** — static instruction counts of the specialized stencil
//!    apply along the A2 pass ladder, which must be monotone
//!    non-increasing and land at or under the aggressive-coalescing gate.

use crate::corpus;
use brew_core::telemetry::metrics::Ctr;
use brew_core::{OptLevel, RewriteResult, Rewriter, SpecRequest, SpecializationManager};
use brew_image::Image;
use brew_pgas::PgasArray;
use brew_stencil::Stencil;
use brew_verify::{mutate, verify, Rule, Severity, VerifyOptions};

/// Static instruction-count gate for the default E2 emission (paper ~20;
/// before register allocation it was 74).
pub const E2_DEFAULT_GATE: usize = 31;
/// The same for the aggressive emission (EXPERIMENTS.md V2).
pub const E2_AGGRESSIVE_GATE: usize = 27;

/// One equivalence-checked corpus variant.
#[derive(Debug, Clone)]
pub struct EquivRow {
    /// Corpus label (function + pass configuration).
    pub label: String,
    /// `Rule::Equivalence` error findings — any non-zero entry is a
    /// false positive of the prover.
    pub equiv_errors: usize,
    /// Total error findings of all rules (the corpus must be clean).
    pub errors: usize,
}

/// Per-miscompile-kind detection tally (equivalence rule only).
#[derive(Debug, Clone)]
pub struct MiscompileRow {
    /// Mutation kind (kebab-case name).
    pub kind: &'static str,
    /// Sites found across the corpus.
    pub applied: usize,
    /// Mutants rejected with a `Rule::Equivalence` error.
    pub detected: usize,
}

/// Everything `equiv_study` measured.
#[derive(Debug, Clone)]
pub struct EquivV2Report {
    /// Clean-corpus section (prover false positives show up here).
    pub clean: Vec<EquivRow>,
    /// Conservative re-emissions a gated manager needed to publish the
    /// clean corpus (a prover gap costs one; there must be none).
    pub fallbacks: u64,
    /// Seeded regalloc-shaped miscompiles.
    pub kinds: Vec<MiscompileRow>,
    /// Static instruction counts of the stencil apply along the pass
    /// ladder: (label, instructions, bytes).
    pub ladder: Vec<(String, usize, usize)>,
    /// Instructions of the aggressive emission (the gated number).
    pub aggressive_insts: usize,
}

impl EquivV2Report {
    /// `true` when the ladder never increases from row to row.
    pub fn ladder_monotone(&self) -> bool {
        self.ladder.windows(2).all(|w| w[1].1 <= w[0].1)
    }
}

fn equiv_errors(report: &brew_verify::VerifyReport) -> usize {
    report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::Equivalence && f.severity == Severity::Error)
        .count()
}

/// The V2 experiment.
pub fn equiv_study() -> EquivV2Report {
    let img = Image::new();
    let opts = VerifyOptions::default();

    // --- section 1: the clean corpus ---
    let mut clean = Vec::new();
    let mut fallbacks = 0;
    let mut published = |img: &Image, func: u64, req: &SpecRequest| {
        let mgr = SpecializationManager::builder()
            .publish_gate(brew_verify::publish_gate())
            .build();
        mgr.get_or_rewrite(img, func, req)
            .expect("the gated manager publishes the clean corpus");
        fallbacks += mgr.metrics().counter(Ctr::RegallocFallback).get();
    };
    let mut variants: Vec<(u64, SpecRequest, RewriteResult)> = Vec::new();
    for corpus::Case { label, func, req } in corpus::v2(&img) {
        let res = Rewriter::new(&img)
            .rewrite(func, &req)
            .expect("corpus rewrite");
        published(&img, func, &req);
        let report = verify(&img, func, &req, &res, &opts);
        clean.push(EquivRow {
            label,
            equiv_errors: equiv_errors(&report),
            errors: report.error_count(),
        });
        variants.push((func, req, res));
    }
    // The §V workloads ride along, aggressive included: the stencil
    // apply, the whole-sweep rewrite and the PGAS sum.
    let st = Stencil::new(16, 16);
    let pg = PgasArray::new(64, 4, 0);
    let workloads = [
        (
            "stencil apply",
            &st.img,
            st.prog.func("apply").unwrap(),
            st.apply_request(),
        ),
        (
            "sweep_generic.u4",
            &st.img,
            st.prog.func("sweep_generic").unwrap(),
            st.sweep_request(4),
        ),
        (
            "gsum.64",
            &pg.img,
            pg.prog.func("gsum").unwrap(),
            pg.gsum_request(),
        ),
    ];
    for (label, wimg, func, req) in workloads {
        for (pname, pc) in corpus::pass_points().into_iter().take(2) {
            let req = req.clone().passes(pc);
            let res = Rewriter::new(wimg)
                .rewrite(func, &req)
                .expect("workload rewrite");
            published(wimg, func, &req);
            let report = verify(wimg, func, &req, &res, &opts);
            clean.push(EquivRow {
                label: format!("{label} [{pname}]"),
                equiv_errors: equiv_errors(&report),
                errors: report.error_count(),
            });
        }
    }

    // --- section 2: the pass-shaped miscompiles ---
    let new_kinds = [
        mutate::Mutation::WrongRegSub,
        mutate::Mutation::ClobberCalleeSaved,
        mutate::Mutation::DroppedSpillStore,
        mutate::Mutation::CommutedNonCommutative,
        mutate::Mutation::StaleSlotConst,
        mutate::Mutation::FoldedImmOffByOne,
        mutate::Mutation::DroppedFlagWriter,
        mutate::Mutation::StaleSlotReg,
    ];
    let mut kinds: Vec<MiscompileRow> = new_kinds
        .iter()
        .map(|k| MiscompileRow {
            kind: k.name(),
            applied: 0,
            detected: 0,
        })
        .collect();
    for (func, req, res) in &variants {
        for (ki, kind) in new_kinds.into_iter().enumerate() {
            // A dataflow-pass miscompile belongs in code those passes
            // emitted: pass-less code is full of dead instructions, and a
            // changed dead instruction is not a miscompile.
            let dataflow_shaped = matches!(
                kind,
                mutate::Mutation::StaleSlotConst
                    | mutate::Mutation::FoldedImmOffByOne
                    | mutate::Mutation::DroppedFlagWriter
                    | mutate::Mutation::StaleSlotReg
            );
            if dataflow_shaped && req.pass_config() < OptLevel::Dataflow {
                continue;
            }
            let Some(m) = mutate::apply(&img, res, kind) else {
                continue;
            };
            kinds[ki].applied += 1;
            let report = verify(&img, *func, req, res, &opts);
            if equiv_errors(&report) > 0 {
                kinds[ki].detected += 1;
            }
            m.revert(&img);
        }
    }

    // --- section 3: the E2 static instruction ladder ---
    let mut ladder = Vec::new();
    let mut aggressive_insts = 0;
    for level in OptLevel::ALL {
        let mut s = Stencil::new(crate::XS, crate::YS);
        let res = s
            .specialize_apply_with_passes(level)
            .expect("ladder rewrite");
        let insts = brew_core::disasm_result(&s.img, &res).len();
        if level == OptLevel::Aggressive {
            aggressive_insts = insts;
        }
        ladder.push((crate::level_label(level).to_string(), insts, res.code_len));
    }

    EquivV2Report {
        clean,
        fallbacks,
        kinds,
        ladder,
        aggressive_insts,
    }
}

/// Render the V2 report.
pub fn render_equiv(title: &str, r: &EquivV2Report) -> String {
    let mut s = format!("## {title}\n\n");
    let fps: usize = r.clean.iter().map(|c| c.equiv_errors).sum();
    let errs: usize = r.clean.iter().map(|c| c.errors).sum();
    s.push_str(&format!(
        "clean corpus              : {} variants, {} equivalence rejections, {} total errors\n",
        r.clean.len(),
        fps,
        errs
    ));
    for c in &r.clean {
        s.push_str(&format!(
            "  {:<23} : {}\n",
            c.label,
            if c.errors == 0 { "proved" } else { "REJECTED" }
        ));
    }
    s.push_str(&format!(
        "conservative re-emissions : {} (gated manager over the clean corpus)\n",
        r.fallbacks
    ));
    let applied: usize = r.kinds.iter().map(|k| k.applied).sum();
    let detected: usize = r.kinds.iter().map(|k| k.detected).sum();
    let kinds_full = r
        .kinds
        .iter()
        .filter(|k| k.applied > 0 && k.detected == k.applied)
        .count();
    s.push_str(&format!(
        "miscompile kinds          : {kinds_full}/{} fully detected ({detected}/{applied} mutants, equivalence rule)\n",
        r.kinds.len()
    ));
    for k in &r.kinds {
        s.push_str(&format!(
            "  {:<23} : {}/{}\n",
            k.kind, k.detected, k.applied
        ));
    }
    s.push_str("E2 instruction ladder     :\n");
    for (label, insts, bytes) in &r.ladder {
        s.push_str(&format!(
            "  {label:<38}: {insts:>3} insts, {bytes:>4} bytes\n"
        ));
    }
    s.push_str(&format!(
        "ladder monotone           : {}\n",
        if r.ladder_monotone() { "yes" } else { "NO" }
    ));
    s.push_str(&format!(
        "aggressive E2             : {} instructions (gate <= {})\n",
        r.aggressive_insts, E2_AGGRESSIVE_GATE
    ));
    s
}
