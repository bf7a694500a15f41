//! A2: optimization-pass ablation — emulated execution speed of the
//! specialized stencil with passes on/off.

use brew_core::OptLevel;
use brew_emu::Machine;
use brew_stencil::Stencil;
use criterion::{criterion_group, criterion_main, Criterion};

const XS: i64 = 32;
const YS: i64 = 32;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("a2_passes");
    g.sample_size(10);
    g.bench_function("no_passes", |b| {
        let mut s = Stencil::new(XS, YS);
        let res = s.specialize_apply_with_passes(OptLevel::None).unwrap();
        let mut m = Machine::new();
        b.iter(|| s.run_with_apply(&mut m, res.entry, false, 1).unwrap());
    });
    g.bench_function("all_passes", |b| {
        let mut s = Stencil::new(XS, YS);
        let res = s.specialize_apply_with_passes(OptLevel::default()).unwrap();
        let mut m = Machine::new();
        b.iter(|| s.run_with_apply(&mut m, res.entry, false, 1).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
