//! The verifier — including the symbolic equivalence tier — must be a
//! pure function of the variant: checking the same finished rewrite twice
//! yields byte-identical reports. Hash-consing, worklist order, and phi
//! classing all have internal state; none of it may leak into the
//! verdict, or a variant could pass the gate on one run and fail a
//! persisted-load re-check on the next.

use brew_core::{OptLevel, RetKind, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{mutate, verify, VerifyOptions};
use proptest::prelude::*;

const PROG: &str = r#"
    int poly(int x, int n) {
        int r = 1;
        for (int i = 0; i < n; i++) r *= x;
        return r;
    }
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
    double mix(double a, double b) { return (a - b) / (a * b + 2.0); }
"#;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verifying_the_same_variant_twice_is_deterministic(
        which in 0usize..4,
        n in 1i64..8,
        strict in any::<bool>(),
    ) {
        let img = Image::new();
        let prog = brew_minic::compile_into(PROG, &img).unwrap();
        let known = img.alloc_heap(8 * 8, 8);
        for i in 0..8 {
            img.write_u64(known + i * 8, 3 + i).unwrap();
        }
        let (name, req) = match which {
            0 => ("poly", SpecRequest::new().unknown_int().known_int(n).ret(RetKind::Int)),
            1 => (
                "clamp",
                SpecRequest::new()
                    .unknown_int()
                    .known_int(0)
                    .known_int(n)
                    .ret(RetKind::Int),
            ),
            2 => (
                "sum",
                SpecRequest::new()
                    .ptr_to_known(known, 8 * 8)
                    .known_int(n)
                    .ret(RetKind::Int),
            ),
            _ => (
                "mix",
                SpecRequest::new()
                    .unknown_f64()
                    .known_f64(n as f64)
                    .ret(RetKind::F64),
            ),
        };
        for level in OptLevel::ALL {
            let req = req.clone().passes(level);
            let f = prog.func(name).unwrap();
            let res = Rewriter::new(&img).rewrite(f, &req).unwrap();
            let opts = VerifyOptions {
                strict_provenance: strict,
                ..VerifyOptions::default()
            };
            let a = verify(&img, f, &req, &res, &opts);
            let b = verify(&img, f, &req, &res, &opts);
            prop_assert_eq!(a.insts, b.insts);
            prop_assert_eq!(a.findings, b.findings,
                "two checks of the same variant disagreed");
            // A clean variant has next to no findings to disagree about. A
            // miscompiled one carries the prover's divergence trace — rendered
            // terms, arena ids past the depth limit — and each check builds its
            // arena from scratch: the whole report must still repeat.
            for kind in [mutate::Mutation::WrongRegSub, mutate::Mutation::CommutedNonCommutative] {
                let Some(m) = mutate::apply(&img, &res, kind) else { continue };
                let a = verify(&img, f, &req, &res, &opts);
                let b = verify(&img, f, &req, &res, &opts);
                m.revert(&img);
                prop_assert!(!a.passed(), "mutant `{}` escaped", kind.name());
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"),
                    "two checks of the same mutant disagreed");
            }
        }
    }
}
