//! V1: the static variant verifier as an experiment — zero false
//! positives on real variants, 100% detection of seeded mutants, and the
//! latency of translation-validating a variant at publish time.
//!
//! Three sections, each rendered as greppable lines so `tables --exp
//! verify` doubles as the verification gate in `scripts/check.sh`:
//!
//! 1. **clean** — every corpus variant (plus the §V stencil apply) is
//!    verified under `strict_provenance`; any rejection is a false
//!    positive and fails the gate;
//! 2. **mutants** — every applicable corruption from
//!    `brew_verify::mutate` is seeded into every corpus variant; any
//!    escape fails the gate;
//! 3. **gate** — the same requests replayed through a
//!    `SpecializationManager` running `verify_on_publish`, reporting the
//!    manager-observed verification latency.

use brew_core::telemetry::metrics::{Ctr, Hst};
use brew_core::{RetKind, RewriteResult, Rewriter, SpecRequest, SpecializationManager};
use brew_image::Image;
use brew_verify::{mutate, publish_gate, verify, Rule, VerifyOptions};
use std::time::Instant;

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
    int held(int x, int k) {
        int y = x * k;
        tick(0);
        return y + x;
    }
"#;

/// One verified variant.
#[derive(Debug, Clone)]
pub struct CleanRow {
    /// Corpus label.
    pub label: String,
    /// Instructions the verifier re-decoded.
    pub insts: usize,
    /// Wall-clock ns of one standalone `verify` call.
    pub latency_ns: u64,
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
    /// Average manager-observed gate latency (ns/variant).
    pub gate_avg_ns: u64,
}

fn corpus(img: &Image) -> Vec<(String, u64, SpecRequest)> {
    let prog = brew_minic::compile_into(PROG, img).unwrap();
    let known = img.alloc_heap(6 * 8, 8);
    for i in 0..6 {
        img.write_u64(known + i * 8, 100 + i * 7).unwrap();
    }
    let f = |n: &str| prog.func(n).unwrap();
    vec![
        (
            "poly n=6".into(),
            f("poly"),
            SpecRequest::new()
                .unknown_int()
                .known_int(6)
                .ret(RetKind::Int),
        ),
        (
            "scale k=123456789".into(),
            f("scale"),
            SpecRequest::new()
                .unknown_int()
                .known_int(123_456_789)
                .ret(RetKind::Int),
        ),
        (
            "clamp unknown bounds".into(),
            f("clamp"),
            SpecRequest::new()
                .unknown_int()
                .unknown_int()
                .unknown_int()
                .ret(RetKind::Int),
        ),
        (
            "hooked sum".into(),
            f("sum"),
            SpecRequest::new()
                .unknown_int()
                .known_int(4)
                .ret(RetKind::Int)
                .entry_hook(f("tick"))
                .func(f("tick"), |o| o.inline = false),
        ),
        (
            "dotk known xs".into(),
            f("dotk"),
            SpecRequest::new()
                .ptr_to_known(known, 6 * 8)
                .unknown_int()
                .known_int(6)
                .ret(RetKind::Int),
        ),
        // A loop world migration keeps: the sites of the dataflow-pass-
        // shaped mutants (constant counters, flag writer + jcc).
        (
            "sum n=6 kept loop".into(),
            f("sum"),
            SpecRequest::new()
                .unknown_int()
                .known_int(6)
                .ret(RetKind::Int)
                .func(f("sum"), |o| {
                    o.branch_unknown = true;
                    o.max_variants = 2;
                }),
        ),
        // `x` and `y` are live across the kept call: their spills must stay
        // in memory — the site of the dropped-spill-store mutant.
        (
            "held across a kept call".into(),
            f("held"),
            SpecRequest::new()
                .unknown_int()
                .known_int(3)
                .ret(RetKind::Int)
                .func(f("tick"), |o| o.inline = false),
        ),
    ]
}

/// The V1 experiment.
pub fn verify_study() -> VerifyV1Report {
    let img = Image::new();
    let cases = corpus(&img);
    let opts = VerifyOptions {
        strict_provenance: true,
        ..VerifyOptions::default()
    };

    // --- section 1: clean variants, standalone verify latency ---
    let mut clean = Vec::new();
    let mut variants: Vec<(String, u64, SpecRequest, RewriteResult)> = Vec::new();
    for (label, func, req) in cases {
        let res = Rewriter::new(&img)
            .rewrite(func, &req)
            .expect("corpus rewrite");
        let t0 = Instant::now();
        let report = verify(&img, func, &req, &res, &opts);
        clean.push(CleanRow {
            label: label.clone(),
            insts: report.insts,
            latency_ns: t0.elapsed().as_nanos() as u64,
            errors: report.error_count(),
        });
        variants.push((label, func, req, res));
    }
    // The §V workload rides along: the specialized stencil apply must be
    // just as clean as the synthetic corpus.
    {
        let mut st = brew_stencil::Stencil::new(crate::XS, crate::YS);
        let apply = st.prog.func("apply").unwrap();
        let req = st.apply_request();
        let res = st.specialize_apply().expect("stencil apply");
        let t0 = Instant::now();
        let report = verify(&st.img, apply, &req, &res, &opts);
        clean.push(CleanRow {
            label: "stencil apply".into(),
            insts: report.insts,
            latency_ns: t0.elapsed().as_nanos() as u64,
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
    for (_, func, req, res) in &variants {
        for (ki, kind) in mutate::Mutation::ALL.into_iter().enumerate() {
            let Some(m) = mutate::apply(&img, res, kind) else {
                continue;
            };
            kinds[ki].applied += 1;
            let report = verify(&img, *func, req, res, &opts);
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
    for (_, func, req, _) in &variants {
        mgr.get_or_rewrite(&img, *func, req).expect("gated publish");
    }
    let metrics = mgr.metrics();
    let h = metrics.histogram(Hst::VerifyNs);
    let gate_avg_ns = h.sum() / h.count().max(1);

    VerifyV1Report {
        clean,
        kinds,
        per_rule,
        gate_passed: metrics.counter(Ctr::VerifyPassed).get(),
        gate_rejected: metrics.counter(Ctr::VerifyRejected).get(),
        gate_avg_ns,
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
        s.push_str(&format!(
            "  {:<23} : {:>4} insts, {:>9} ns\n",
            c.label, c.insts, c.latency_ns
        ));
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
        "publish gate              : {} passed, {} rejected, avg {} ns/variant\n",
        r.gate_passed, r.gate_rejected, r.gate_avg_ns
    ));
    s
}
