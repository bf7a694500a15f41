//! Zero false positives: every variant the rewriter actually emits must
//! verify clean — including under `strict_provenance`, which is how the
//! V1 experiment runs the pipeline.

use brew_core::{RetKind, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{verify, VerifyOptions};

fn assert_clean(img: &Image, func: u64, req: &SpecRequest, what: &str) {
    let res = Rewriter::new(img).rewrite(func, req).expect(what);
    let opts = VerifyOptions {
        strict_provenance: true,
        ..VerifyOptions::default()
    };
    let report = verify(img, func, req, &res, &opts);
    if !report.passed() {
        for line in brew_verify::render_report(img, &res, &report) {
            eprintln!("{line}");
        }
        panic!(
            "{what}: clean variant rejected ({} errors)",
            report.error_count()
        );
    }
    assert!(report.insts > 0, "{what}: verifier saw no instructions");
}

#[test]
fn minic_integer_variants_verify_clean() {
    let src = r#"
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
        int madd(int x, int b) {
            int acc = 0;
            for (int i = 0; i < b; i++) {
                int k = (i * 3 + b) * (i * 5 + 7);
                acc = acc + x + k + i;
            }
            return acc;
        }
    "#;
    let img = Image::new();
    let prog = brew_minic::compile_into(src, &img).unwrap();
    assert_clean(
        &img,
        prog.func("poly").unwrap(),
        &SpecRequest::new()
            .unknown_int()
            .known_int(6)
            .ret(RetKind::Int),
        "poly n=6",
    );
    // A known value big enough to trip the provenance size threshold: it
    // must be explained by the request's argument list.
    assert_clean(
        &img,
        prog.func("scale").unwrap(),
        &SpecRequest::new()
            .unknown_int()
            .known_int(123_456_789)
            .ret(RetKind::Int),
        "scale k=123456789",
    );
    assert_clean(
        &img,
        prog.func("clamp").unwrap(),
        &SpecRequest::new()
            .unknown_int()
            .known_int(-1_000_000)
            .known_int(9_999_999)
            .ret(RetKind::Int),
        "clamp big bounds",
    );
    // Fully unrolled, 96 small constants whose total (0xcee68) no known
    // value explains: the passes fold them only into sums that stay small.
    assert_clean(
        &img,
        prog.func("madd").unwrap(),
        &SpecRequest::new()
            .unknown_int()
            .known_int(48)
            .ret(RetKind::Int),
        "madd b=48",
    );
}

#[test]
fn hooked_variants_with_kept_calls_verify_clean() {
    let src = r#"
        int entry_count;
        int exit_count;
        void on_entry(int f) { entry_count += 1; }
        void on_exit(int f)  { exit_count += 1; }
        int sum(int* p, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += p[i];
            return s;
        }
    "#;
    let img = Image::new();
    let prog = brew_minic::compile_into(src, &img).unwrap();
    let req = SpecRequest::new()
        .unknown_int()
        .known_int(4)
        .ret(RetKind::Int)
        .entry_hook(prog.func("on_entry").unwrap())
        .exit_hook(prog.func("on_exit").unwrap())
        .func(prog.func("on_entry").unwrap(), |o| o.inline = false)
        .func(prog.func("on_exit").unwrap(), |o| o.inline = false);
    assert_clean(&img, prog.func("sum").unwrap(), &req, "hooked sum");
}

#[test]
fn stencil_apply_variant_verifies_clean() {
    let mut st = brew_stencil::Stencil::new(16, 16);
    let apply = st.prog.func("apply").unwrap();
    let req = st.apply_request();
    let res = st.specialize_apply().expect("stencil apply specializes");
    let opts = VerifyOptions {
        strict_provenance: true,
        ..VerifyOptions::default()
    };
    let report = verify(&st.img, apply, &req, &res, &opts);
    if !report.passed() {
        for line in brew_verify::render_report(&st.img, &res, &report) {
            eprintln!("{line}");
        }
        panic!("stencil apply: clean variant rejected");
    }
}
