//! The five workloads: which kernels each compiles, which keys it requests
//! cold, serves hot and runs, and the set-up that builds its worlds.
//!
//! The driver's contract wants every end-to-end metric from every workload,
//! so each workload runs the whole life cycle of a specialization on its own
//! keys (see `phases.rs`) and differs in which phase gets the wall budget.
//! Everything here goes through the frozen facade (see README.md).

use crate::kernels::{self, Key, Matrices, World};
use crate::rng::{zipf_stream, Rng};
use brew_core::{Dispatch, SpecRequest, SpecializationManager};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CorpusCold,
    UnrollCold,
    ServeHit,
    ServeChurn,
    RunKernels,
}

/// Name and reason of every workload, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [(Kind, &str, &str); 5] = [
    (
        Kind::CorpusCold,
        "corpus-cold",
        "every request a gated miss over 10 small kernels: per-request fixed cost, decode, passes and both gate tiers dominate",
    ),
    (
        Kind::UnrollCold,
        "unroll-cold",
        "gated misses on the fully unrolled sweep: one long trace and one large CFG, so anything super-linear in the rewriter or prover shows here",
    ),
    (
        Kind::ServeHit,
        "serve-hit",
        "zipf draws over 64 resident variants, every request a pure hit: the per-call tax paid forever after the rewrite",
    ),
    (
        Kind::ServeChurn,
        "serve-churn",
        "one reader serves hits while one writer publishes, evicts and invalidates: a gain on one side paid for by the other must show",
    ),
    (
        Kind::RunKernels,
        "run-kernels",
        "a fixed round of emulator calls over generic, hand-written and specialized code: generated-code quality and the emulator's own speed",
    ),
];

impl Kind {
    pub fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|w| w.0 == self)
            .expect("listed workload")
            .1
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        WORKLOADS.iter().find(|w| w.1 == name).map(|w| w.0)
    }
}

/// Draws per reader stream (cycled).
const STREAM_LEN: usize = 1 << 16;
/// A world is retired once less than this much JIT space is left: the
/// segment is bump-only, so cold loops rotate through fresh images.
pub const JIT_RESERVE: u64 = 1 << 20;
/// Worlds (with manager, prewarmed) that set-up builds ahead of the run.
pub const POOL: usize = 4;
/// Hits each hot key gets while a churn world is prewarmed, so eviction
/// scoring keeps the hot set and drops churn variants.
const PREWARM_HITS: usize = 32;
/// Churn variants the `serve-churn` budget leaves room for beside the hot set.
const CHURN_ROOM: usize = 16;

/// Reader threads: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// What a workload runs on: keys, who requests which, and the seeded draws.
pub struct Env {
    pub kind: Kind,
    pub seed: u64,
    pub keys: Vec<Key>,
    /// Keys the cold loop (or the churn writer) requests, in seeded order.
    pub cold: Vec<usize>,
    /// Keys readers are served.
    pub hot: Vec<usize>,
    /// Keys whose misses make up `cold_request_us`.
    pub latency: Vec<usize>,
    /// Keys `breakeven_calls` is computed for.
    pub breakeven: Vec<usize>,
    /// Resident-code budget of every manager (`None`: the default).
    pub budget: Option<usize>,
    /// `serve-churn`: a request that can never fit its code budget.
    pub doomed: Option<(u64, SpecRequest)>,
    /// One zipf draw stream per reader thread, indexing `hot`.
    pub streams: Vec<Vec<u16>>,
    pub threads: usize,
}

/// A world with its manager, ready for requests.
pub struct Slot {
    pub world: World,
    pub mgr: SpecializationManager,
    /// `run-kernels`: the matrices its programs sweep.
    pub mx: Option<Matrices>,
}

/// The kernel files a workload compiles into each of its worlds.
pub fn sources(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::CorpusCold => &[
            kernels::STENCIL,
            kernels::PGAS,
            kernels::SERVE,
            kernels::SMALL,
        ],
        Kind::UnrollCold => &[kernels::UNROLL, kernels::SERVE],
        Kind::ServeHit | Kind::ServeChurn => &[kernels::SERVE],
        Kind::RunKernels => &[kernels::STENCIL, kernels::PGAS, kernels::SMALL],
    }
}

/// Build one world of `kind` and its keys. Deterministic in `(kind, seed)`:
/// every world of a run has the same layout and the same heap contents.
fn build_world(kind: Kind, seed: u64) -> (World, Vec<Key>, Option<Matrices>) {
    let w = World::new(sources(kind));
    let mut rng = Rng::new(seed);
    let rng = &mut rng;
    let mut mx = None;
    let keys = match kind {
        Kind::CorpusCold => {
            let m = Matrices::new(&w, 16, 16, rng);
            vec![
                kernels::apply(&w, &m, rng),
                kernels::apply_grouped(&w, &m, rng),
                kernels::poly(&w, rng, 16),
                kernels::madd(&w, rng, 48),
                kernels::dotk(&w, rng),
                kernels::clamp(&w, rng),
                kernels::scale(&w, rng),
                kernels::sum4(&w, rng),
                kernels::gsum(&w, rng, 64),
                kernels::sweep_generic(&w, &m, 4),
            ]
        }
        Kind::UnrollCold => {
            let big = Matrices::new(&w, 24, 24, rng);
            let small = Matrices::new(&w, 12, 12, rng);
            vec![
                kernels::sweep_unrolled(&w, &big, 64),
                kernels::sweep_unrolled(&w, &small, 16),
                // The integer loop, fully unrolled: the one variant here the
                // checkpoint format can carry (see `warm_phase`).
                kernels::madd(&w, rng, 64),
            ]
        }
        Kind::ServeHit => (1..=64).map(|b| kernels::madd(&w, rng, b)).collect(),
        Kind::ServeChurn => {
            let mut keys: Vec<Key> = (1..=64).map(|b| kernels::madd(&w, rng, b)).collect();
            keys.extend((1..=256).map(|b| kernels::churn(&w, rng, b)));
            keys
        }
        Kind::RunKernels => {
            // 64×64: a round of all programs is ~4 M guest instructions, so
            // several fit a slice (at 128×128 one round takes a second).
            let m = Matrices::new(&w, 64, 64, rng);
            let mut keys = vec![
                kernels::apply(&w, &m, rng),
                kernels::sweep_generic(&w, &m, 4),
                kernels::gsum(&w, rng, 4096),
            ];
            keys.extend((1..=8).map(|n| kernels::poly(&w, rng, n)));
            mx = Some(m);
            keys
        }
    };
    (w, keys, mx)
}

impl Env {
    /// Derive the workload description from its first world.
    fn new(kind: Kind, seed: u64, threads: usize, keys: Vec<Key>, world: &World) -> Env {
        let all: Vec<usize> = (0..keys.len()).collect();
        let mut rng = Rng::fork(seed, 0xC01D);
        let (mut cold, hot, latency, breakeven) = match kind {
            Kind::CorpusCold => (all.clone(), all.clone(), all.clone(), vec![0]),
            // `apply` alone: eight of the eleven keys are near-identical `poly`
            // variants, and a p50 over that mix flips between them.
            Kind::RunKernels => (all.clone(), all.clone(), vec![0], vec![0]),
            Kind::UnrollCold => (all.clone(), all.clone(), vec![0], vec![0]),
            Kind::ServeHit => (all.clone(), all.clone(), all.clone(), all.clone()),
            Kind::ServeChurn => {
                let churn: Vec<usize> = (64..keys.len()).collect();
                (churn.clone(), (0..64).collect(), churn.clone(), churn)
            }
        };
        // `unroll-cold` alternates its keys in a fixed order; everything else
        // visits its keys in a seeded order.
        if kind != Kind::UnrollCold {
            rng.shuffle(&mut cold);
        }
        let (budget, doomed) = if kind == Kind::ServeChurn {
            let churn = world.sym("churn");
            let doomed = SpecRequest::new()
                .unknown_int()
                .known_int(300)
                .max_code_bytes(16);
            (
                Some(churn_budget(world, &keys, &hot)),
                Some((churn, doomed)),
            )
        } else {
            (None, None)
        };
        let streams = (0..threads)
            .map(|t| {
                zipf_stream(
                    &mut Rng::fork(seed, 0x5EED + t as u64),
                    hot.len(),
                    STREAM_LEN,
                )
            })
            .collect();
        Env {
            kind,
            seed,
            keys,
            cold,
            hot,
            latency,
            breakeven,
            budget,
            doomed,
            streams,
            threads,
        }
    }

    /// A gated manager under this workload's budget.
    pub fn manager(&self) -> SpecializationManager {
        let b = SpecializationManager::builder().publish_gate(brew_verify::publish_gate());
        match self.budget {
            Some(bytes) => b.budget(bytes),
            None => b,
        }
        .build()
    }

    /// A fresh world with nothing in its JIT segment (a warm-start target).
    pub fn pristine(&self) -> World {
        build_world(self.kind, self.seed).0
    }
}

/// The `serve-churn` budget: the hot set plus room for ~16 of the largest
/// churn variants, so every publish evicts. Sized by rewriting on a scratch
/// world — emitted sizes are a property of the code, not of the run.
fn churn_budget(world: &World, keys: &[Key], hot: &[usize]) -> usize {
    let scratch = build_world(Kind::ServeChurn, 0).0;
    debug_assert_eq!(scratch.sym("churn"), world.sym("churn"));
    let mgr = SpecializationManager::builder().build();
    let size = |k: &Key| match mgr.request(&scratch.img, k.func, &k.req) {
        Ok(Dispatch::Specialized(v)) => v.code_len,
        other => panic!("sizing rewrite of {} failed: {other:?}", k.label),
    };
    let hot_bytes: usize = hot.iter().map(|&i| size(&keys[i])).sum();
    hot_bytes + CHURN_ROOM * size(keys.last().expect("churn keys"))
}

/// Pre-built slots, refilled on demand (untimed) when a long cold loop uses
/// more images than set-up built.
pub struct Pool {
    ready: VecDeque<Slot>,
}

fn build_slot(env: &Env, built: Option<(World, Option<Matrices>)>) -> Slot {
    let (world, mx) = built.unwrap_or_else(|| {
        let (w, keys, mx) = build_world(env.kind, env.seed);
        // Same layout as the first world, or checkpoints and cached entry
        // addresses would not carry over.
        assert!(
            keys.iter()
                .zip(&env.keys)
                .all(|(a, b)| a.func == b.func && a.req == b.req),
            "world layout differs between builds"
        );
        (w, mx)
    });
    let mgr = env.manager();
    if env.kind == Kind::ServeChurn {
        // Prewarm the hot set: publish, then hit it enough that the
        // eviction score prefers churn variants.
        for &i in &env.hot {
            let k = &env.keys[i];
            for _ in 0..=PREWARM_HITS {
                let d = mgr.request(&world.img, k.func, &k.req);
                assert!(
                    matches!(d, Ok(Dispatch::Specialized(_))),
                    "prewarm of {} failed",
                    k.label
                );
            }
        }
    }
    Slot { world, mgr, mx }
}

/// Set-up: compile the kernels, generate inputs and host references, build
/// the slot pool, prewarm residents. What `setup_s` times.
pub fn setup(kind: Kind, seed: u64, threads: usize) -> (Env, Pool) {
    let (world, keys, mx) = build_world(kind, seed);
    let env = Env::new(kind, seed, threads, keys, &world);
    let mut ready = VecDeque::with_capacity(POOL);
    ready.push_back(build_slot(&env, Some((world, mx))));
    while ready.len() < POOL {
        ready.push_back(build_slot(&env, None));
    }
    (env, Pool { ready })
}

impl Pool {
    pub fn take(&mut self, env: &Env) -> Slot {
        self.ready
            .pop_front()
            .unwrap_or_else(|| build_slot(env, None))
    }
}
