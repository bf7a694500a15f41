//! The structural tier's verdicts, pinned: every finding (rule, severity,
//! address, detail — informational ones included) the five structural rules
//! produce on the clean V1/V2 corpora, on the benchmark's ten `corpus-cold`
//! requests, and on every seeded mutant of the V1 corpus, under the default
//! options and under `strict_provenance`. The tier computes its facts on
//! demand; this is what says the demand changed no verdict.
//!
//! `structural_pins.txt` changes only when the emitted code does (a pass, a
//! tracer decision, the emitter) or a rule is changed on purpose: regenerate
//! it with `BREW_BLESS=1 cargo test -p brew-verify --test structural_pins`
//! and review the diff.

mod corpus;

use brew_core::{RewriteResult, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{mutate, verify_region, VerifyOptions};
use std::fmt::Write;

const PINNED: &str = include_str!("structural_pins.txt");

/// Both structural reports of one region, as text.
fn pin(
    out: &mut String,
    img: &Image,
    label: &str,
    func: u64,
    req: &SpecRequest,
    res: &RewriteResult,
) {
    for strict in [false, true] {
        let opts = VerifyOptions {
            strict_provenance: strict,
            ..VerifyOptions::default()
        };
        let report = verify_region(
            img,
            func,
            req,
            res.entry,
            res.code_len,
            &res.snapshot,
            &opts,
        );
        let mode = if strict { "strict" } else { "default" };
        writeln!(out, "== {label} [{mode}] insts={}", report.insts).unwrap();
        for f in &report.findings {
            writeln!(out, "{f}").unwrap();
        }
    }
}

fn rewrite(img: &Image, c: &corpus::Case) -> RewriteResult {
    Rewriter::new(img)
        .rewrite(c.func, &c.req)
        .unwrap_or_else(|e| panic!("{}: {e}", c.label))
}

fn current() -> String {
    let mut out = String::new();

    // The clean corpora.
    let img = Image::new();
    let v1 = corpus::v1(&img);
    let v1_variants: Vec<RewriteResult> = v1.iter().map(|c| rewrite(&img, c)).collect();
    for (c, res) in v1.iter().zip(&v1_variants) {
        pin(
            &mut out,
            &img,
            &format!("v1/{}", c.label),
            c.func,
            &c.req,
            res,
        );
    }
    let img2 = Image::new();
    for c in corpus::v2(&img2) {
        let res = rewrite(&img2, &c);
        pin(
            &mut out,
            &img2,
            &format!("v2/{}", c.label),
            c.func,
            &c.req,
            &res,
        );
    }
    // The §V workloads V1 and V2 carry along, on their own images.
    let st = brew_stencil::Stencil::new(16, 16);
    let pg = brew_pgas::PgasArray::new(64, 4, 0);
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
        for (p, pc) in corpus::pass_points().into_iter().take(2) {
            let req = req.clone().passes(pc);
            let res = Rewriter::new(wimg).rewrite(func, &req).expect(label);
            pin(
                &mut out,
                wimg,
                &format!("v2/{label} [{p}]"),
                func,
                &req,
                &res,
            );
        }
    }
    let img3 = Image::new();
    for c in corpus::cold(&img3) {
        let res = rewrite(&img3, &c);
        pin(
            &mut out,
            &img3,
            &format!("cold/{}", c.label),
            c.func,
            &c.req,
            &res,
        );
    }

    // Every seeded mutant of the V1 corpus. The pass-shaped kinds are there
    // too: the structural tier must stay blind to them exactly as it was.
    for (c, res) in v1.iter().zip(&v1_variants) {
        for kind in mutate::Mutation::ALL {
            let Some(m) = mutate::apply(&img, res, kind) else {
                continue;
            };
            let label = format!("mutant/{}/{}", c.label, kind.name());
            pin(&mut out, &img, &label, c.func, &c.req, res);
            m.revert(&img);
        }
    }
    out
}

#[test]
fn structural_reports_are_pinned() {
    let now = current();
    if std::env::var_os("BREW_BLESS").is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/structural_pins.txt");
        std::fs::write(path, &now).expect("write pins");
        return;
    }
    let (mut a, mut b) = (now.lines(), PINNED.lines());
    for line in 1.. {
        match (a.next(), b.next()) {
            (None, None) => break,
            (got, want) if got == want => {}
            (got, want) => panic!(
                "structural report drifted at structural_pins.txt:{line}\n   now: {got:?}\npinned: {want:?}"
            ),
        }
    }
}
