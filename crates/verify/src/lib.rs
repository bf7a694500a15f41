//! # brew-verify — static translation validation of rewrite variants
//!
//! The paper's safety story is dynamic: "fall back to the original on
//! failure" (§III.G). That covers failures *of* the rewriting process, but
//! not miscompiles — a variant that traces, encodes and publishes cleanly
//! can still compute the wrong thing, and the x86-64 rewriter evaluations
//! (Schulte et al.) show silent miscompiles are the dominant failure mode
//! across binary rewriters. This crate closes the gap on the success side:
//! it re-decodes the emitted bytes of a finished variant and proves a set
//! of structural properties *before* the [`SpecializationManager`](brew_core::SpecializationManager)
//! publishes it.
//!
//! The pipeline ([`verify`]) runs five rule families over the re-decoded
//! variant:
//!
//! | rule | property |
//! |------|----------|
//! | [`Rule::Roundtrip`]        | every byte decodes; each instruction re-encodes to the same bytes |
//! | [`Rule::CfgClosure`]       | every branch/call target resolves inside the variant (on an instruction boundary), to a legal escape into the original image, or to an allow-listed guard target — no wild jumps |
//! | [`Rule::StackDiscipline`]  | abstract RSP-offset analysis proves balance on every path to `ret` (and every tail escape) |
//! | [`Rule::WriteContainment`] | statically-derivable stores stay out of code, unmapped memory, folded-known bytes and counter pages the variant does not own |
//! | [`Rule::Provenance`]       | large immediates and folded displacements trace back to the request's `BREW_KNOWN` / `BREW_PTR_TO_KNOWN` values via the tracer's [`KnownSnapshot`] read-set |
//!
//! Findings are typed diagnostics ([`Finding`]); [`render_report`] merges
//! them into the Figure-6-style annotated disassembly of
//! `brew_core::telemetry::explain`. [`publish_gate`] packages the pipeline
//! as a [`PublishGate`] for the manager's opt-in `verify_on_publish`
//! policy, and [`mutate`] provides the seeded-corruption harness that
//! proves the rules actually catch what they claim to (V1 in
//! EXPERIMENTS.md).
//!
//! ## Soundness caveats
//!
//! The verifier is *static*: register-addressed stores and data-dependent
//! control flow are out of reach, and [`Rule::Provenance`] is a heuristic
//! allow-list (exact request values, byte windows of the folded read-set,
//! immediates of the original code, image addresses). Under
//! [`VerifyOptions::strict_provenance`] an unexplained immediate is an
//! error; by default it is informational, because a pass pipeline may
//! legitimately synthesize constants (folded arithmetic over known
//! values). The dynamic checker (`suite::verify`) cross-validates on the
//! same variants — see DESIGN.md § Static verification.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use brew_core::{KnownSnapshot, PublishGate, PublishRejection, RewriteResult, SpecRequest};
use brew_image::Image;
use std::fmt;
use std::ops::Range;

mod cfg;
mod equiv;
mod frame;
mod mem;
pub mod mutate;
mod render;
mod stack;
mod term;

// For the unit tests of the structural tier: the request corpora its
// integration tests share, and the differential suite's program generator.
#[cfg(test)]
#[path = "../tests/corpus/mod.rs"]
mod corpus;
#[cfg(test)]
#[path = "../../../tests/progs.rs"]
mod progs;

pub use render::render_report;

/// The five rule families of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Decode/encode roundtrip integrity of every emitted instruction.
    Roundtrip,
    /// Control-flow closure: no wild jumps, no mid-instruction targets.
    CfgClosure,
    /// RSP balance on every path to `ret` or a tail escape.
    StackDiscipline,
    /// Statically-derivable stores stay inside legal write regions.
    WriteContainment,
    /// Immediates/displacements trace back to declared known values.
    Provenance,
    /// Symbolic translation validation: the optimized code is provably
    /// observationally equivalent to its captured pre-pass baseline.
    Equivalence,
}

impl Rule {
    /// Every rule, in pipeline order.
    pub const ALL: [Rule; 6] = [
        Rule::Roundtrip,
        Rule::CfgClosure,
        Rule::StackDiscipline,
        Rule::WriteContainment,
        Rule::Provenance,
        Rule::Equivalence,
    ];

    /// Short stable name (used in reports and the V1 table).
    pub fn name(self) -> &'static str {
        match self {
            Rule::Roundtrip => "roundtrip",
            Rule::CfgClosure => "cfg-closure",
            Rule::StackDiscipline => "stack",
            Rule::WriteContainment => "write-set",
            Rule::Provenance => "provenance",
            Rule::Equivalence => "equivalence",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Structural note; never blocks publication.
    Info,
    /// Suspicious but not provably wrong.
    Warn,
    /// Provably outside the variant contract; blocks publication.
    Error,
}

impl Severity {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed diagnostic of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Which rule family produced it.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Address of the offending instruction (or region start for
    /// region-level findings).
    pub addr: u64,
    /// Human-readable diagnosis.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}/{}] {:#x}: {}",
            self.rule, self.severity, self.addr, self.detail
        )
    }
}

/// Verification policy knobs.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Telemetry counter pages the variant (or its dispatch stub) may
    /// legitimately increment — `base..base + 8*(cases+1)` per
    /// `brew_core::CounterPage`.
    pub counter_pages: Vec<Range<u64>>,
    /// Extra legal external control-flow targets (e.g. sibling variant
    /// entries a guard chain tail-jumps to).
    pub allowed_targets: Vec<u64>,
    /// Escalate unexplained large immediates from [`Severity::Info`] to
    /// [`Severity::Error`]. Off by default: a pass pipeline may
    /// legitimately synthesize constants by folding arithmetic over known
    /// values, which no allow-list can enumerate.
    pub strict_provenance: bool,
}

/// The outcome of one verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every finding, in pipeline order.
    pub findings: Vec<Finding>,
    /// Instructions successfully re-decoded.
    pub insts: usize,
    /// What the equivalence proof took; zero where it did not run.
    pub proof: ProofWork,
}

/// The deterministic work of one equivalence proof, counted as it goes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProofWork {
    /// Captured blocks reachable from the entry.
    pub blocks: u64,
    /// Block walks of the joint fixpoint: `blocks`, plus one per change to
    /// the entry state of a block already walked.
    pub visits: u64,
    /// Instructions executed symbolically: captured side, emitted side.
    pub walked: [u64; 2],
    /// Out states joined into an entry state that already existed.
    pub joins: u64,
    /// Terms interned.
    pub terms: u64,
}

impl VerifyReport {
    /// `true` when no error-severity finding was produced — the variant
    /// may be published.
    pub fn passed(&self) -> bool {
        self.error_count() == 0
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// The first error-severity finding, if any.
    pub fn first_error(&self) -> Option<&Finding> {
        self.findings.iter().find(|f| f.severity == Severity::Error)
    }

    /// Error-severity findings per rule, in [`Rule::ALL`] order.
    pub fn errors_by_rule(&self) -> [(Rule, usize); 6] {
        Rule::ALL.map(|r| {
            let n = self
                .findings
                .iter()
                .filter(|f| f.rule == r && f.severity == Severity::Error)
                .count();
            (r, n)
        })
    }
}

/// The decoded shape of the variant the rule passes share: instruction
/// list with lengths, the boundary set, and the raw bytes.
pub(crate) struct Region {
    pub entry: u64,
    pub end: u64,
    pub insts: Vec<(u64, brew_x86::Inst, usize)>,
}

impl Region {
    /// The position in `insts` of the instruction at `addr`, if `addr` is
    /// an instruction boundary of the region.
    pub fn position(&self, addr: u64) -> Option<usize> {
        self.insts.binary_search_by_key(&addr, |(a, _, _)| *a).ok()
    }

    /// Whether `addr` is an instruction boundary of the region.
    pub fn is_boundary(&self, addr: u64) -> bool {
        self.position(addr).is_some()
    }

    /// Whether `addr` lies inside the region (boundary or not).
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.entry && addr < self.end
    }
}

/// Run the full pipeline over the finished rewrite `res` of `func` under
/// `req`, as emitted into `img`'s JIT segment.
pub fn verify(
    img: &Image,
    func: u64,
    req: &SpecRequest,
    res: &RewriteResult,
    opts: &VerifyOptions,
) -> VerifyReport {
    let (mut report, region) =
        structural(img, func, req, res.entry, res.code_len, &res.snapshot, opts);
    // Third tier: symbolic translation validation against the captured
    // pre-pass CFG, over the structural tier's decoding. Only meaningful
    // when the emitted bytes decode cleanly and the rewrite carried its
    // capture along.
    if let (Some(cap), Some(region)) = (res.equiv.as_ref(), region) {
        let decodes = !report
            .findings
            .iter()
            .any(|f| f.rule == Rule::Roundtrip && f.severity == Severity::Error);
        if decodes {
            equiv::check(img, req, res, cap, &region, &mut report);
        }
    }
    report
}

/// [`verify`] addressed by raw region coordinates — for callers that hold
/// a [`brew_core::Variant`] rather than a [`RewriteResult`].
pub fn verify_region(
    img: &Image,
    func: u64,
    req: &SpecRequest,
    entry: u64,
    code_len: usize,
    snapshot: &KnownSnapshot,
    opts: &VerifyOptions,
) -> VerifyReport {
    structural(img, func, req, entry, code_len, snapshot, opts).0
}

/// The structural tiers, and the decoded region they ran over (`None` when
/// it does not decode end to end).
fn structural(
    img: &Image,
    func: u64,
    req: &SpecRequest,
    entry: u64,
    code_len: usize,
    snapshot: &KnownSnapshot,
    opts: &VerifyOptions,
) -> (VerifyReport, Option<Region>) {
    let facts = mem::Facts::new(img, func, req, snapshot, opts);
    structural_over(&facts, entry, code_len)
}

/// [`structural`] over facts the caller holds on to (the tests read their
/// demand counters afterwards).
fn structural_over(
    facts: &mem::Facts,
    entry: u64,
    code_len: usize,
) -> (VerifyReport, Option<Region>) {
    let (img, opts) = (facts.img, facts.opts);
    let mut report = VerifyReport::default();
    let Some(region) = cfg::decode_region(img, entry, code_len, &mut report) else {
        // Undecodable regions cannot be analyzed further; the roundtrip
        // findings already block publication.
        return (report, None);
    };
    report.insts = region.insts.len();
    cfg::check_closure(img, &region, opts, &mut report);
    stack::check_stack(&region, &mut report);
    mem::check_writes(facts, &region, &mut report);
    mem::check_provenance(facts, &region, &mut report);
    (report, Some(region))
}

/// The pipeline packaged as a manager publish gate (`verify_on_publish`).
#[derive(Debug, Clone, Default)]
pub struct VerifyGate {
    /// Policy the gate verifies under.
    pub opts: VerifyOptions,
}

impl PublishGate for VerifyGate {
    fn inspect(
        &self,
        img: &Image,
        func: u64,
        req: &SpecRequest,
        res: &RewriteResult,
    ) -> Result<(), PublishRejection> {
        let report = verify(img, func, req, res, &self.opts);
        if report.passed() {
            Ok(())
        } else {
            Err(PublishRejection {
                findings: report.error_count(),
                summary: report
                    .first_error()
                    .map(|f| f.to_string())
                    .unwrap_or_else(|| "unspecified verification failure".into()),
                equivalence: report
                    .findings
                    .iter()
                    .any(|f| f.rule == Rule::Equivalence && f.severity == Severity::Error),
            })
        }
    }
}

/// A boxed [`VerifyGate`] with default options, ready for
/// [`brew_core::ManagerBuilder::publish_gate`].
pub fn publish_gate() -> Box<dyn PublishGate> {
    Box::new(VerifyGate::default())
}

/// A boxed [`VerifyGate`] with explicit options.
pub fn publish_gate_with(opts: VerifyOptions) -> Box<dyn PublishGate> {
    Box::new(VerifyGate { opts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use brew_core::Rewriter;

    /// `[window-table builds, original-function walks]` of one
    /// `structural()` call per `corpus-cold` request.
    fn demand_of_the_cold_corpus(opts: &VerifyOptions) -> Vec<(String, [u32; 2])> {
        let img = Image::new();
        corpus::cold(&img)
            .iter()
            .map(|c| {
                let res = Rewriter::new(&img)
                    .rewrite(c.func, &c.req)
                    .expect("rewrite");
                let facts = mem::Facts::new(&img, c.func, &c.req, &res.snapshot, opts);
                let (report, region) = structural_over(&facts, res.entry, res.code_len);
                assert!(report.passed() && region.is_some(), "{}", c.label);
                (c.label.clone(), facts.demand())
            })
            .collect()
    }

    /// The structural tier builds its expensive facts only where a finding's
    /// truth depends on them: nowhere on nine of the ten `corpus-cold`
    /// kernels. `dotk` keeps an absolute store, and R4's "absent from the
    /// original" arm is the one that reads `abs_stores`, so the original
    /// function is walked once. `scale`'s folded `k / 3` is one step from
    /// the argument `k`, which the O(1) rules settle; no clean kernel needs
    /// the window table. A constant nothing cheap explains demands both,
    /// once each.
    #[test]
    fn facts_are_built_on_demand_only() {
        for strict_provenance in [false, true] {
            let opts = VerifyOptions {
                strict_provenance,
                ..VerifyOptions::default()
            };
            let demand = demand_of_the_cold_corpus(&opts);
            let want: [(&str, [u32; 2]); 10] = [
                ("apply", [0, 0]),
                ("apply_grouped", [0, 0]),
                ("poly.16", [0, 0]),
                ("madd.48", [0, 0]),
                ("dotk", [0, 1]),
                ("clamp", [0, 0]),
                ("scale", [0, 0]),
                ("sum.4", [0, 0]),
                ("gsum.64", [0, 0]),
                ("sweep_generic.u4", [0, 0]),
            ];
            let got: Vec<(&str, [u32; 2])> = demand.iter().map(|(l, d)| (l.as_str(), *d)).collect();
            assert_eq!(got, want);
        }

        // `scale` specialized for one `k`, judged under a request that
        // declares another: `k` and `k / 3` are open to the last rule.
        let img = Image::new();
        let cold = corpus::cold(&img);
        let scale = cold.iter().find(|c| c.label == "scale").expect("scale");
        let res = Rewriter::new(&img)
            .rewrite(scale.func, &scale.req)
            .expect("rewrite");
        let other = SpecRequest::new().unknown_int().known_int(-77_000_000_001);
        let opts = VerifyOptions::default();
        let facts = mem::Facts::new(&img, scale.func, &other, &res.snapshot, &opts);
        let (report, _) = structural_over(&facts, res.entry, res.code_len);
        let unexplained = report
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Provenance && f.severity == Severity::Info)
            .count();
        assert_eq!((unexplained, facts.demand()), (2, [1, 1]));
    }
}
