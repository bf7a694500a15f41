//! Save-path accounting: `save_variant_bytes_report` must report what it
//! wrote *and* what it could not write. PR 8 and earlier silently
//! `continue`d over per-entry read-back errors — a checkpoint could claim
//! success while dropping variants on the floor. Now every non-written
//! entry lands in the `SaveReport` as `skipped`, `failed` or
//! `unportable`, failures are counted in `brew_persist_save_failed_total`,
//! and each one records a `SAVE_FAIL` flight event.

use brew_core::telemetry::flight::FlightKind;
use brew_core::telemetry::metrics::Ctr;
use brew_core::{RetKind, SpecRequest, SpecializationManager};
use brew_image::Image;

const PROG: &str = r#"
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
"#;

fn setup() -> (Image, u64) {
    let img = Image::new();
    let prog = brew_minic::compile_into(PROG, &img).unwrap();
    (img, prog.func("poly").unwrap())
}

fn poly_req(n: i64) -> SpecRequest {
    SpecRequest::new()
        .unknown_int()
        .known_int(n)
        .ret(RetKind::Int)
}

/// A clean save accounts for every resident variant as written, nothing
/// skipped or failed, and reports the exact size of the bytes it returns.
/// The per-entry `failed`/`skipped` paths need a cache entry no publish
/// produces; their tests live beside the cache in `manager::tests`.
#[test]
fn clean_save_reports_all_written() {
    let (img, poly) = setup();
    let mgr = SpecializationManager::new();
    for n in 2..6 {
        mgr.get_or_rewrite(&img, poly, &poly_req(n)).unwrap();
    }

    let (bytes, report) = mgr.save_variant_bytes_report(&img);
    assert_eq!(report.written, mgr.len());
    assert_eq!(report.skipped, 0);
    assert_eq!(report.failed, 0);
    assert_eq!(
        report.bytes,
        bytes.len(),
        "report must match the bytes actually returned"
    );
    assert_eq!(mgr.metrics().counter(Ctr::PersistSaveFailed).get(), 0);
}

/// The §V stencil `apply` (Figure 4) beside the served integer `madd`.
const MIXED: &str = r#"
    struct P { double f; int dx; int dy; };
    struct S { int ps; struct P p[5]; };
    struct S s5 = {5, {{-1.0, 0, 0}, {0.25, -1, 0}, {0.25, 1, 0},
                       {0.25, 0, -1}, {0.25, 0, 1}}};
    double apply(double* m, int xs, struct S* s) {
        double v = 0.0;
        for (int i = 0; i < s->ps; i++) {
            struct P* p = &s->p[i];
            v += p->f * m[p->dx + xs * p->dy];
        }
        return v;
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

/// A variant whose doubles sit in a literal pool (`stats.pool_bytes > 0`)
/// is refused at save time: the pool is in the data segment, the format
/// carries code bytes only, and every load check would pass on a variant
/// that then multiplies by zeros. It is counted, never written; what the
/// format can carry still round-trips and still computes the right answer.
#[test]
fn literal_pool_variant_is_unportable_not_silently_zeroed() {
    const XS: i64 = 8;
    let world = || {
        let img = Image::new();
        let prog = brew_minic::compile_into(MIXED, &img).unwrap();
        let m = img.alloc_heap((XS * XS * 8) as u64, 16);
        for i in 0..XS * XS {
            img.write_f64(m + (i * 8) as u64, (i * i % 11) as f64 + 0.5)
                .unwrap();
        }
        (img, prog, m)
    };
    let (img, prog, m) = world();
    let (apply, madd, s5) = (
        prog.func("apply").unwrap(),
        prog.func("madd").unwrap(),
        prog.global("s5").unwrap(),
    );
    let apply_req = SpecRequest::new()
        .unknown_int()
        .known_int(XS)
        .ptr_to_known(s5, 8 + 5 * 24)
        .ret(RetKind::F64);
    let madd_req = SpecRequest::new()
        .unknown_int()
        .known_int(12)
        .ret(RetKind::Int);

    let mgr = SpecializationManager::new();
    let pooled = mgr.get_or_rewrite(&img, apply, &apply_req).unwrap();
    assert!(
        pooled.stats.pool_bytes > 0,
        "apply folds doubles into a pool"
    );
    let plain = mgr.get_or_rewrite(&img, madd, &madd_req).unwrap();
    assert_eq!(plain.stats.pool_bytes, 0);

    let (bytes, report) = mgr.save_variant_bytes_report(&img);
    assert_eq!((report.written, report.unportable), (1, 1));
    assert_eq!((report.skipped, report.failed), (0, 0));
    assert_eq!(mgr.metrics().counter(Ctr::PersistSaveUnportable).get(), 1);
    assert_eq!(mgr.metrics().counter(Ctr::PersistSaveFailed).get(), 0);
    let dump = mgr.flight().dump();
    let save = dump
        .entries
        .iter()
        .find(|e| e.kind == FlightKind::PersistSave)
        .expect("a SAVE event must be recorded");
    assert_eq!(save.args[..3], [1, bytes.len() as u64, 1]);
    assert!(dump.render_text().contains("unportable=1"));

    // A fresh process: exactly the integer variant warm-starts...
    let (fresh_img, fresh_prog, fresh_m) = world();
    assert_eq!((fresh_prog.func("madd").unwrap(), fresh_m), (madd, m));
    let fresh = SpecializationManager::new();
    let loaded = fresh.load_variant_bytes(&fresh_img, &bytes).unwrap();
    assert_eq!(loaded.published, 1);
    assert!(loaded.rejected.is_empty());
    assert_eq!(fresh.len(), 1);
    let warm = fresh.get_or_rewrite(&fresh_img, madd, &madd_req).unwrap();
    assert_eq!(
        warm.entry, plain.entry,
        "resident hit on the loaded variant"
    );
    assert_eq!(fresh.stats().misses, 0);
    // ...and computes what the original computes.
    let mut machine = brew_emu::Machine::new();
    for x in [-7i64, 0, 3, 1 << 40] {
        let args = brew_emu::CallArgs::new().int(x).int(12);
        let want = machine.call(&fresh_img, madd, &args).unwrap().ret_int;
        let got = machine.call(&fresh_img, warm.entry, &args).unwrap().ret_int;
        assert_eq!(got, want, "madd({x}, 12)");
    }
    // The stencil key cold-starts: a miss that rewrites (pool and all) and
    // agrees with the original.
    let cold = fresh.get_or_rewrite(&fresh_img, apply, &apply_req).unwrap();
    assert_eq!(fresh.stats().misses, 1);
    let args = brew_emu::CallArgs::new()
        .ptr(fresh_m + ((XS + 1) * 8) as u64)
        .int(XS)
        .ptr(s5);
    let want = machine.call(&fresh_img, apply, &args).unwrap().ret_f64;
    let got = machine.call(&fresh_img, cold.entry, &args).unwrap().ret_f64;
    assert_eq!(got.to_bits(), want.to_bits());
    assert_ne!(want, 0.0);
}
