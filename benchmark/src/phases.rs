//! The phases of a specialization's life cycle — cold requests, checkpoint
//! and warm start, hit serving, running the generated code — each as an
//! accumulator that is advanced one *slice* at a time.
//!
//! A run is a number of laps; every lap gives each phase one slice, so each
//! metric samples the whole length of the run and a spell of interference
//! touches all of them alike (see `stats::quiet_low`). The workload's own
//! phase gets the wall budget (`--seconds`), the others a short fixed one.
//! Everything here goes through the frozen facade; deeper calls live in
//! `layers.rs`.

use crate::kernels::{observe, Call, Key, World};
use crate::layers::{self, Decomp};
use crate::span::Recorder;
use crate::stats::latency;
use crate::workloads::{Env, Kind, Pool, Slot, JIT_RESERVE};
use brew_core::{CacheStats, Dispatch, Invalidation, RewriteStats, SpecRequest};
use brew_emu::Machine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests per timed batch on the hit path.
pub const BATCH: usize = 256;
/// `serve-churn`: invalidate the churn function every this many publishes.
const INVALIDATE_EVERY: u64 = 32;
/// `serve-churn`: one doomed request every this many publishes.
const DOOMED_EVERY: u64 = 64;
/// Per-call latency samples a traced reader keeps per slice.
const CALL_SAMPLES: usize = 250_000;
/// A timed emulator sample retires at least this many guest instructions.
const SAMPLE_INSTS: u64 = 500_000;

/// Operations attempted and failed, for `failed_share`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were output mismatches (they make the run incorrect).
    pub mismatched: u64,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatched += o.mismatched;
    }

    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

/// Manager counters accumulated over the slices of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub coalesced: u64,
}

impl Counters {
    pub fn add(&mut self, now: &CacheStats, base: &CacheStats) {
        self.hits += now.hits - base.hits;
        self.misses += now.misses - base.misses;
        self.evictions += now.evictions - base.evictions;
        self.coalesced += now.coalesced - base.coalesced;
    }

    pub fn merge(&mut self, o: &Counters) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.evictions += o.evictions;
        self.coalesced += o.coalesced;
    }
}

/// Check one variant on the key's seeded probes: against the original
/// function on the emulator and against the host reference.
pub fn check_variant(world: &World, m: &mut Machine, key: &Key, entry: u64) -> Tally {
    let mut t = Tally::default();
    for probe in &key.probes {
        let orig = observe(&world.img, m, probe.entry, probe).map(|o| o.0);
        let var = observe(&world.img, m, entry, probe).map(|o| o.0);
        let ok = matches!((&orig, &var), (Ok(o), Ok(v)) if o == v && *v == probe.expect);
        t.op(ok);
        t.mismatched += !ok as u64;
    }
    t
}

/// What the benchmark learned about a key's variant.
#[derive(Debug, Clone, Copy)]
pub struct VariantInfo {
    pub entry: u64,
    pub code_len: usize,
    pub stats: RewriteStats,
}

/// The traced run's recorder plus its request counter.
pub struct Trace {
    pub rec: Recorder,
    next_request: u32,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            rec: Recorder::new(400_000),
            next_request: 0,
        }
    }

    fn request_id(&mut self) -> u32 {
        self.next_request += 1;
        self.next_request
    }
}

/// Make every key of `idxs` resident (a hit, or a fresh rewrite for one that
/// was evicted or invalidated) and report its variant. Untimed.
pub fn variants_of(env: &Env, slot: &Slot, idxs: &[usize]) -> (Vec<Option<VariantInfo>>, Tally) {
    let mut tally = Tally::default();
    let infos = idxs
        .iter()
        .map(|&k| {
            let key = &env.keys[k];
            let v = match slot.mgr.request(&slot.world.img, key.func, &key.req) {
                Ok(Dispatch::Specialized(v)) => Some(VariantInfo {
                    entry: v.entry,
                    code_len: v.code_len,
                    stats: v.stats,
                }),
                _ => None,
            };
            tally.op(v.is_some());
            v
        })
        .collect();
    (infos, tally)
}

// ---- cold requests ---------------------------------------------------------------

/// A cold loop: one `request()` miss at a time on a gated manager, the miss
/// asserted, the variant noted for checking, and (traced) the request taken
/// apart. Also the writer of `serve-churn`.
pub struct ColdAcc<'e> {
    env: &'e Env,
    /// Miss latencies in µs per key (indexed like `Env::keys`).
    pub samples: Vec<Vec<f64>>,
    /// Keys whose variant failed an output check.
    pub mismatch: Vec<bool>,
    pub tally: Tally,
    pub counters: Counters,
    /// Traced runs: the decomposed replay of each request, per key.
    pub decomp: Vec<Vec<Decomp>>,
    /// Traced runs: `apply_invalidation` times in µs per function.
    pub invalidate_us: Vec<f64>,
    /// Worlds used.
    pub slots: usize,
    /// Per slice: p50 µs over `Env::latency` keys.
    pub latency_us: Vec<f64>,
    /// Per slice: p50 µs over `Env::breakeven` keys.
    pub breakeven_us: Vec<f64>,
    /// Per slice: completed cold requests per second of request time.
    pub rates: Vec<f64>,
    /// Per slice: the same per second of all timed writer work (requests,
    /// plus the invalidations and doomed requests `serve-churn` interleaves).
    pub work_rates: Vec<f64>,
    funcs: Vec<u64>,
    // The open slice.
    mark: Vec<usize>,
    ok: u64,
    request_time: Duration,
    work_time: Duration,
    base: CacheStats,
    // Variants published but not yet output-checked: `(key, entry)`.
    pending: Vec<(usize, u64)>,
    checked: Vec<bool>,
    machine: Machine<'static>,
    // The churn writer's place in its cycle.
    next: usize,
    publishes: u64,
    /// Complete passes over `Env::cold`.
    pub rounds: u64,
}

impl<'e> ColdAcc<'e> {
    pub fn new(env: &'e Env) -> Self {
        let n = env.keys.len();
        let mut funcs: Vec<u64> = env.cold.iter().map(|&k| env.keys[k].func).collect();
        funcs.sort_unstable();
        funcs.dedup();
        ColdAcc {
            env,
            samples: vec![Vec::new(); n],
            mismatch: vec![false; n],
            tally: Tally::default(),
            counters: Counters::default(),
            decomp: vec![Vec::new(); n],
            invalidate_us: Vec::new(),
            slots: 0,
            latency_us: Vec::new(),
            breakeven_us: Vec::new(),
            rates: Vec::new(),
            work_rates: Vec::new(),
            funcs,
            mark: vec![0; n],
            ok: 0,
            request_time: Duration::ZERO,
            work_time: Duration::ZERO,
            base: CacheStats::default(),
            pending: Vec::new(),
            checked: vec![false; n],
            machine: Machine::new(),
            next: 0,
            publishes: 0,
            rounds: 0,
        }
    }

    fn begin(&mut self, slot: &Slot) {
        for (m, s) in self.mark.iter_mut().zip(&self.samples) {
            *m = s.len();
        }
        self.ok = 0;
        self.request_time = Duration::ZERO;
        self.work_time = Duration::ZERO;
        self.base = slot.mgr.stats();
        self.slots = self.slots.max(1);
    }

    /// Close the slice: output checks (untimed), counters, per-slice values.
    fn end(&mut self, slot: &Slot) {
        self.run_checks(slot);
        self.counters.add(&slot.mgr.stats(), &self.base);
        let p50 = |keys: &[usize]| {
            let fresh: Vec<f64> = keys
                .iter()
                .flat_map(|&k| self.samples[k][self.mark[k]..].iter().copied())
                .collect();
            (!fresh.is_empty()).then(|| latency(&fresh).p50)
        };
        let (lat, be) = (p50(&self.env.latency), p50(&self.env.breakeven));
        self.latency_us.extend(lat);
        self.breakeven_us.extend(be);
        if self.ok > 0 {
            self.rates
                .push(self.ok as f64 / self.request_time.as_secs_f64());
            self.work_rates
                .push(self.ok as f64 / self.work_time.as_secs_f64());
        }
    }

    /// Move to a fresh world (untimed): the JIT segment is bump-only.
    fn swap(&mut self, slot: &mut Slot, pool: &mut Pool) {
        self.run_checks(slot);
        self.counters.add(&slot.mgr.stats(), &self.base);
        *slot = pool.take(self.env);
        self.base = slot.mgr.stats();
        self.slots += 1;
    }

    /// One timed cold request for key `k`. It must be a true miss that comes
    /// back specialized; anything else is a failure and yields no latency.
    fn request(&mut self, slot: &Slot, k: usize, trace: Option<&mut Trace>) {
        let key = &self.env.keys[k];
        let img = &slot.world.img;
        let misses = slot.mgr.stats().misses;
        let t0 = Instant::now();
        let d = slot.mgr.request(img, key.func, &key.req);
        let t1 = Instant::now();
        let dt = t1 - t0;
        self.request_time += dt;
        self.work_time += dt;
        let missed = slot.mgr.stats().misses == misses + 1;
        match d {
            Ok(Dispatch::Specialized(v)) if missed => {
                self.tally.op(true);
                self.ok += 1;
                self.samples[k].push(dt.as_secs_f64() * 1e6);
                if !self.checked[k] {
                    self.checked[k] = true;
                    self.pending.push((k, v.entry));
                }
            }
            _ => self.tally.op(false),
        }
        if let Some(tr) = trace {
            let rid = tr.request_id();
            tr.rec.add("request", t0, t1, None, rid);
            match layers::decompose(img, key.func, &key.req, &mut tr.rec, rid) {
                Ok(d) => self.decomp[k].push(d),
                Err(_) => self.tally.op(false),
            }
        }
    }

    /// Drop every variant of `funcs`; `timed` when it is part of the
    /// workload (the churn writer's periodic invalidation).
    fn invalidate(&mut self, slot: &Slot, funcs: &[u64], trace: Option<&mut Trace>, timed: bool) {
        let t0 = Instant::now();
        for f in funcs {
            slot.mgr.apply_invalidation(Invalidation::Func(*f));
        }
        let t1 = Instant::now();
        if timed {
            self.work_time += t1 - t0;
        }
        if let Some(tr) = trace {
            tr.rec.add("invalidate", t0, t1, None, 0);
            self.invalidate_us
                .push((t1 - t0).as_secs_f64() * 1e6 / funcs.len().max(1) as f64);
        }
    }

    /// Output-check every variant first seen since the last call. Untimed;
    /// the code stays callable in the bump-only JIT segment even after its
    /// cache entry was evicted or invalidated.
    fn run_checks(&mut self, slot: &Slot) {
        for (k, entry) in std::mem::take(&mut self.pending) {
            let t = check_variant(&slot.world, &mut self.machine, &self.env.keys[k], entry);
            self.mismatch[k] = t.mismatched > 0;
            self.tally.merge(t);
        }
    }
}

/// One slice of the cold loop: whole rounds over `env.cold`, every request a
/// true miss (whatever is resident — the round before, or what another phase
/// looked up — is invalidated, untimed, before each round), until `budget` of
/// request time is spent. The last round stays resident.
pub fn cold_slice(
    acc: &mut ColdAcc<'_>,
    slot: &mut Slot,
    pool: &mut Pool,
    budget: Duration,
    mut trace: Option<&mut Trace>,
) {
    let env = acc.env;
    let funcs = acc.funcs.clone();
    acc.begin(slot);
    let started = Instant::now();
    loop {
        acc.invalidate(slot, &funcs, trace.as_deref_mut(), false);
        if slot.world.img.jit_remaining() < JIT_RESERVE {
            acc.swap(slot, pool);
        }
        for &k in &env.cold {
            acc.request(slot, k, trace.as_deref_mut());
        }
        acc.rounds += 1;
        // The wall-clock cap keeps a traced slice (three emissions a
        // request) from running away.
        if acc.request_time >= budget || started.elapsed() >= budget * 4 + Duration::from_secs(1) {
            break;
        }
    }
    acc.end(slot);
}

// ---- the hit path ------------------------------------------------------------------

/// What readers measured.
#[derive(Default)]
pub struct HitAcc {
    /// Per-request ns of every batch (batch time ÷ 256), all readers.
    pub batch_ns: Vec<f64>,
    /// Per slice: p50 of the slice's batches, ns per request.
    pub ns: Vec<f64>,
    /// Per slice: million requests per second, all readers together.
    pub mrps: Vec<f64>,
    pub requests: u64,
    /// Requests not answered with the resident variant of their key.
    pub bad: u64,
    /// Traced runs: per-call ns.
    pub calls_ns: Vec<u32>,
    pub counters: Counters,
}

impl HitAcc {
    pub fn tally(&self) -> Tally {
        Tally {
            attempted: self.requests,
            failed: self.bad,
            mismatched: 0,
        }
    }

    /// Fold one slice in: what each reader did and how long the slice took.
    fn absorb(&mut self, readers: Vec<Reader<'_>>, wall: Duration) {
        let mut fresh = Vec::new();
        let mut requests = 0;
        for r in readers {
            requests += r.requests;
            self.bad += r.bad;
            self.calls_ns.extend(r.calls_ns);
            fresh.extend(r.batch_ns);
        }
        self.requests += requests;
        if !fresh.is_empty() {
            self.ns.push(latency(&fresh).p50);
            self.mrps.push(requests as f64 / wall.as_secs_f64() / 1e6);
        }
        self.batch_ns.extend(fresh);
    }
}

/// One closed-loop reader: zipf draws over the hot set, every answer checked
/// against the resident variant's entry.
struct Reader<'a> {
    slot: &'a Slot,
    hot: Vec<(u64, &'a SpecRequest, u64)>,
    stream: &'a [u16],
    pos: usize,
    per_call: bool,
    batch_ns: Vec<f64>,
    calls_ns: Vec<u32>,
    requests: u64,
    bad: u64,
}

impl<'a> Reader<'a> {
    /// `pos` continues the reader's draw stream across slices.
    fn new(
        env: &'a Env,
        slot: &'a Slot,
        entries: &[u64],
        lane: usize,
        pos: u64,
        per_call: bool,
    ) -> Self {
        let stream = &env.streams[lane % env.streams.len()];
        Reader {
            slot,
            hot: env
                .hot
                .iter()
                .zip(entries)
                .map(|(&k, &e)| (env.keys[k].func, &env.keys[k].req, e))
                .collect(),
            stream,
            pos: (pos as usize / BATCH * BATCH) % stream.len(),
            per_call,
            batch_ns: Vec::new(),
            calls_ns: Vec::new(),
            requests: 0,
            bad: 0,
        }
    }

    #[inline]
    fn one(&mut self, i: usize) {
        let (func, req, entry) = self.hot[self.stream[self.pos + i] as usize];
        match self.slot.mgr.request(&self.slot.world.img, func, req) {
            Ok(Dispatch::Specialized(v)) if v.entry == entry => {}
            _ => self.bad += 1,
        }
    }

    /// One batch of 256 requests; returns when it ended.
    fn batch(&mut self) -> Instant {
        let t0 = Instant::now();
        if self.per_call && self.calls_ns.len() < CALL_SAMPLES {
            let mut prev = t0;
            for i in 0..BATCH {
                self.one(i);
                let now = Instant::now();
                self.calls_ns.push((now - prev).as_nanos() as u32);
                prev = now;
            }
        } else {
            for i in 0..BATCH {
                self.one(i);
            }
        }
        let t1 = Instant::now();
        self.batch_ns
            .push((t1 - t0).as_nanos() as f64 / BATCH as f64);
        self.requests += BATCH as u64;
        self.pos = (self.pos + BATCH) % self.stream.len();
        t1
    }

    /// Serve until `stop` is raised or `limit` has passed; returns the wall
    /// time served.
    fn serve(&mut self, limit: Duration, stop: &AtomicBool) -> Duration {
        let start = Instant::now();
        loop {
            let elapsed = self.batch() - start;
            if elapsed >= limit || stop.load(Ordering::Relaxed) {
                return elapsed;
            }
        }
    }
}

/// The resident entry of every hot key (a hit; a rewrite when it was not
/// resident). Untimed.
fn hot_entries(env: &Env, slot: &Slot) -> (Vec<u64>, Tally) {
    let (infos, tally) = variants_of(env, slot, &env.hot);
    (
        infos.iter().map(|v| v.map_or(0, |v| v.entry)).collect(),
        tally,
    )
}

/// One slice of the hit path: `readers` closed-loop readers over the
/// resident hot set for `dur` of wall clock.
pub fn hit_slice(
    acc: &mut HitAcc,
    env: &Env,
    slot: &Slot,
    readers: usize,
    dur: Duration,
    per_call: bool,
) -> Tally {
    let (entries, tally) = hot_entries(env, slot);
    let base = slot.mgr.stats();
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(readers);
    let pos = acc.requests / readers as u64;
    let (done, wall) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|lane| {
                let (entries, stop, barrier) = (&entries, &stop, &barrier);
                s.spawn(move || {
                    let mut r = Reader::new(env, slot, entries, lane, pos, per_call);
                    barrier.wait();
                    let wall = r.serve(dur, stop);
                    (r, wall)
                })
            })
            .collect();
        let mut done = Vec::new();
        let mut wall = Duration::ZERO;
        for h in handles {
            let (r, w) = h.join().expect("reader thread");
            wall = wall.max(w);
            done.push(r);
        }
        (done, wall)
    });
    acc.absorb(done, wall);
    acc.counters.add(&slot.mgr.stats(), &base);
    tally
}

/// One slice of `serve-churn`: one reader serves the hot set while one writer
/// issues gated cold requests over the churn keys under a budget that makes
/// every publish evict, invalidates the churn function every 32 publishes
/// and sends one doomed request every 64. The slice ends after `dur`, or
/// early when the writer runs low on JIT space (the next slice starts on a
/// fresh prewarmed world; both threads stop for the swap). With one core the
/// two interleave on one thread, one write per 1024 reads.
pub fn churn_slice(
    cold: &mut ColdAcc<'_>,
    hits: &mut HitAcc,
    slot: &mut Slot,
    pool: &mut Pool,
    dur: Duration,
    mut trace: Option<&mut Trace>,
) -> Tally {
    let env = cold.env;
    let (churn_fn, doomed) = env.doomed.as_ref().expect("serve-churn env");
    let mut extra = Tally::default();
    cold.begin(slot);
    if slot.world.img.jit_remaining() < JIT_RESERVE {
        cold.swap(slot, pool);
    }
    let slot = &*slot;
    // Whatever made churn keys resident since the last slice (the run phase
    // looks every variant up) must not turn a writer request into a hit.
    cold.invalidate(slot, &[*churn_fn], None, false);
    let (entries, t) = hot_entries(env, slot);
    extra.merge(t);
    let stop = AtomicBool::new(false);
    let mut reader = Reader::new(env, slot, &entries, 0, hits.requests, trace.is_some());
    let started = Instant::now();
    // One writer step: a cold request, plus its periodic chores. Returns
    // whether the slice is over.
    let mut write = |trace: Option<&mut Trace>| {
        let mut trace = trace;
        cold.request(slot, env.cold[cold.next], trace.as_deref_mut());
        cold.next += 1;
        if cold.next == env.cold.len() {
            cold.next = 0;
            cold.rounds += 1;
        }
        cold.publishes += 1;
        if cold.publishes.is_multiple_of(DOOMED_EVERY) {
            let t0 = Instant::now();
            let d = slot.mgr.request(&slot.world.img, *churn_fn, doomed);
            cold.work_time += t0.elapsed();
            extra.op(!matches!(d, Ok(Dispatch::Specialized(_))));
        }
        if cold.publishes.is_multiple_of(INVALIDATE_EVERY) {
            cold.invalidate(slot, &[*churn_fn], trace, true);
        }
        started.elapsed() >= dur || slot.world.img.jit_remaining() < JIT_RESERVE
    };
    let wall = if env.threads > 1 {
        std::thread::scope(|s| {
            let (reader, stop) = (&mut reader, &stop);
            let h = s.spawn(move || reader.serve(Duration::MAX, stop));
            while !write(trace.as_deref_mut()) {}
            stop.store(true, Ordering::Relaxed);
            h.join().expect("reader thread")
        })
    } else {
        loop {
            for _ in 0..4 {
                reader.batch();
            }
            if write(trace.as_deref_mut()) {
                break started.elapsed();
            }
        }
    };
    hits.absorb(vec![reader], wall);
    cold.end(slot);
    extra
}

// ---- checkpoint and warm start -------------------------------------------------------

/// A checkpoint of a slot's resident set, warm-started again and again.
pub struct WarmAcc {
    bytes: Vec<u8>,
    /// Keys in the checkpoint.
    resident: Vec<usize>,
    /// Gated `load_variant_bytes` time per entry in µs, one per load.
    pub samples: Vec<f64>,
    /// Per lap: the median of the lap's loads.
    pub per_entry_us: Vec<f64>,
    pub entries: usize,
    /// Resident variants left out of the checkpoint (see [`WarmAcc::checkpoint`]).
    pub unportable: usize,
    pub tally: Tally,
    /// Traced runs: `save_variant_bytes` time per entry in µs.
    pub save_us: Vec<f64>,
    /// Traced runs: ungated load time per entry in µs.
    pub ungated_us: Vec<f64>,
    checked: bool,
    machine: Machine<'static>,
}

impl WarmAcc {
    /// Checkpoint the slot's resident set; `resident` names the keys resident
    /// in it.
    ///
    /// A variant that reads literal-pool constants is dropped from the
    /// resident set first: the pool lives in the image's data segment and
    /// the checkpoint carries code bytes only, so such a variant (every
    /// floating-point kernel here) warm-starts through both load checks and
    /// then computes with zeros. That is a defect of the checkpoint format,
    /// recorded in README.md; until it is fixed the benchmark warm-starts
    /// what the format can carry.
    pub fn checkpoint(
        env: &Env,
        slot: &Slot,
        resident: &[usize],
        trace: Option<&mut Trace>,
    ) -> Self {
        let (infos, tally) = variants_of(env, slot, resident);
        let pooled = |v: &Option<VariantInfo>| v.is_some_and(|v| v.stats.pool_bytes > 0);
        let mut dropped: Vec<u64> = resident
            .iter()
            .zip(&infos)
            .filter(|(_, v)| pooled(v))
            .map(|(&k, _)| env.keys[k].func)
            .collect();
        let unportable = dropped.len();
        dropped.sort_unstable();
        dropped.dedup();
        for f in dropped {
            slot.mgr.apply_invalidation(Invalidation::Func(f));
        }
        let resident: Vec<usize> = resident
            .iter()
            .zip(&infos)
            .filter(|(_, v)| !pooled(v))
            .map(|(&k, _)| k)
            .collect();
        let t0 = Instant::now();
        let bytes = slot.mgr.save_variant_bytes(&slot.world.img);
        let t1 = Instant::now();
        let mut save_us = Vec::new();
        if let Some(tr) = trace {
            tr.rec.add("persist.save", t0, t1, None, 0);
            let n = resident.len().max(1) as f64;
            save_us.push((t1 - t0).as_secs_f64() * 1e6 / n);
            for _ in 0..4 {
                let s0 = Instant::now();
                let again = slot.mgr.save_variant_bytes(&slot.world.img);
                save_us.push(s0.elapsed().as_secs_f64() * 1e6 / n);
                assert_eq!(again.len(), bytes.len(), "checkpoint size changed");
            }
        }
        WarmAcc {
            bytes,
            resident,
            samples: Vec::new(),
            per_entry_us: Vec::new(),
            entries: 0,
            unportable,
            tally,
            save_us,
            ungated_us: Vec::new(),
            checked: false,
            machine: Machine::new(),
        }
    }

    pub fn bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Warm-start the checkpoint `reps` times, each into a fresh world
    /// through the same gate. The first load's variants are output-checked.
    pub fn load(&mut self, env: &Env, reps: usize, mut trace: Option<&mut Trace>) {
        let mark = self.samples.len();
        for _ in 0..reps {
            let world = env.pristine();
            let mgr = env.manager();
            let l0 = Instant::now();
            let report = mgr.load_variant_bytes(&world.img, &self.bytes);
            let l1 = Instant::now();
            let loaded = match &report {
                Ok(r) if r.rejected.is_empty() && r.published >= self.resident.len() => r.published,
                _ => 0,
            };
            self.tally.op(loaded > 0);
            if loaded == 0 {
                continue;
            }
            self.entries = loaded;
            self.samples
                .push((l1 - l0).as_secs_f64() * 1e6 / loaded as f64);
            if let Some(tr) = trace.as_deref_mut() {
                tr.rec.add("persist.load", l0, l1, None, 0);
                let fresh = env.pristine();
                let us = layers::ungated_load_us(&fresh.img, &self.bytes, &mut tr.rec);
                self.tally.op(us.is_some());
                self.ungated_us.extend(us.map(|us| us / loaded as f64));
            }
            if !self.checked {
                self.checked = true;
                // A warm-started variant must be a hit and must still
                // compute the original's results.
                let warm = Slot {
                    world,
                    mgr,
                    mx: None,
                };
                let misses = warm.mgr.stats().misses;
                let (infos, t) = variants_of(env, &warm, &self.resident);
                self.tally.merge(t);
                self.tally.op(warm.mgr.stats().misses == misses);
                for (&k, info) in self.resident.iter().zip(infos) {
                    if let Some(v) = info {
                        let t =
                            check_variant(&warm.world, &mut self.machine, &env.keys[k], v.entry);
                        self.tally.merge(t);
                    }
                }
            }
        }
        if self.samples.len() > mark {
            self.per_entry_us
                .push(crate::stats::median(&self.samples[mark..]));
        }
    }
}

// ---- running the generated code ------------------------------------------------------------

/// One row of the run phase: a program as generic code and as specialized
/// (or hand-written) code, in deterministic model cycles.
#[derive(Debug, Clone)]
pub struct Program {
    pub label: String,
    pub generic: Vec<Call>,
    pub other: Vec<Call>,
    /// BREW-specialized rows enter `spec_cycles_pct`; hand-written baselines
    /// are printed beside them.
    pub specialized: bool,
}

/// The programs a workload's run phase executes: every key on its fixed
/// cycle call, generic against variant. `run-kernels` runs the paper's
/// comparisons instead.
pub fn programs(env: &Env, slot: &Slot, variants: &[Option<VariantInfo>]) -> Vec<Program> {
    let entry = |k: usize| variants[k].map(|v| v.entry);
    let at = |c: &Call, entry: u64| Call { entry, ..c.clone() };
    if env.kind != Kind::RunKernels {
        return (0..env.keys.len())
            .filter_map(|k| {
                let c = &env.keys[k].cycle_call;
                Some(Program {
                    label: env.keys[k].label.clone(),
                    generic: vec![c.clone()],
                    other: vec![at(c, entry(k)?)],
                    specialized: true,
                })
            })
            .collect();
    }
    let (w, mx) = (&slot.world, slot.mx.as_ref().expect("run-kernels matrices"));
    let generic = mx.sweep_call(w.sym("sweep_generic"), &[]);
    let mut out = Vec::new();
    let mut row = |label: &str, generic: Vec<Call>, other: Vec<Call>, specialized| {
        out.push(Program {
            label: label.into(),
            generic,
            other,
            specialized,
        })
    };
    if let Some(e) = entry(0) {
        let c = mx.sweep_call(w.sym("sweep_ptr3"), &[e]);
        row(
            "sweep.apply-specialized",
            vec![generic.clone()],
            vec![c],
            true,
        );
    }
    if let Some(e) = entry(1) {
        let c = at(&generic, e);
        row("sweep.rewritten-u4", vec![generic.clone()], vec![c], true);
    }
    let manual = mx.sweep_call(w.sym("sweep_ptr2"), &[w.sym("apply_manual")]);
    row(
        "sweep.fnptr-manual",
        vec![generic.clone()],
        vec![manual],
        false,
    );
    let inline = mx.sweep_call(w.sym("sweep_manual_inline"), &[]);
    row(
        "sweep.manual-inline",
        vec![generic.clone()],
        vec![inline],
        false,
    );
    if let Some(e) = entry(2) {
        let c = &env.keys[2].cycle_call;
        row("gsum.4096", vec![c.clone()], vec![at(c, e)], true);
    }
    // The 8-way guarded dispatch stub over poly's variants, each case once.
    let polys: Vec<Call> = (3..env.keys.len())
        .map(|k| env.keys[k].cycle_call.clone())
        .collect();
    if let Ok(stub) = layers::build_dispatcher(&slot.mgr, &w.img, w.sym("poly")) {
        let via = polys.iter().map(|c| at(c, stub)).collect();
        row("poly.dispatch8", polys, via, true);
    }
    out
}

/// Model cycles and instructions of one side of a program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub cycles: u64,
    pub insts: u64,
}

/// The run phase: every program once checked (outputs against the host
/// reference, model cycles recorded), then timed rounds for the emulator's
/// own speed.
#[derive(Default)]
pub struct RunAcc {
    /// The world the rows' entry addresses live in.
    world: u64,
    /// Every key's variant in that world.
    pub variants: Vec<Option<VariantInfo>>,
    /// `(program, generic, other)` in program order.
    pub rows: Vec<(Program, Cost, Cost)>,
    /// Every distinct call of the rows, once (the generic sweep is the
    /// baseline of several rows but runs once a round).
    round: Vec<Call>,
    round_insts: u64,
    /// Per slice: million guest instructions per second.
    pub minst_per_s: Vec<f64>,
    pub tally: Tally,
    pub counters: Counters,
}

impl RunAcc {
    /// (Re)build the rows for `slot`'s world: make every key resident, run
    /// every program once with its outputs checked. Untimed.
    fn rebuild(&mut self, env: &Env, slot: &Slot) {
        let img = &slot.world.img;
        let all: Vec<usize> = (0..env.keys.len()).collect();
        let (variants, t) = variants_of(env, slot, &all);
        self.tally.merge(t);
        // Observe every distinct call once, outputs checked (the generic
        // sweep is the baseline of several rows); rows add up their calls.
        let mut m = Machine::new();
        let mut round: Vec<(Call, Cost)> = Vec::new();
        let mut rows = Vec::new();
        for p in programs(env, slot, &variants) {
            let mut side = |calls: &[Call]| {
                let mut total = Cost::default();
                for c in calls {
                    let same = |o: &(Call, Cost)| {
                        o.0.entry == c.entry
                            && o.0.args.ints() == c.args.ints()
                            && o.0.args.fps() == c.args.fps()
                    };
                    let cost = match round.iter().find(|o| same(o)) {
                        Some((_, cost)) => *cost,
                        None => {
                            let seen = observe(img, &mut m, c.entry, c);
                            let ok = matches!(&seen, Ok((out, _)) if *out == c.expect);
                            self.tally.op(ok);
                            self.tally.mismatched += (seen.is_ok() && !ok) as u64;
                            let cost = seen.map_or(Cost::default(), |(_, st)| Cost {
                                cycles: st.cycles,
                                insts: st.insts,
                            });
                            round.push((c.clone(), cost));
                            cost
                        }
                    };
                    total.cycles += cost.cycles;
                    total.insts += cost.insts;
                }
                total
            };
            let (g, o) = (side(&p.generic), side(&p.other));
            rows.push((p, g, o));
        }
        self.round_insts = round.iter().map(|(_, c)| c.insts).sum();
        let round = round.into_iter().map(|(c, _)| c).collect();
        self.round = round;
        self.rows = rows;
        self.variants = variants;
        self.world = img.uid();
    }
}

/// One slice of the run phase: timed rounds over every distinct call for
/// `dur`. No request is made while the clock runs.
pub fn run_slice(
    acc: &mut RunAcc,
    env: &Env,
    slot: &Slot,
    dur: Duration,
    mut trace: Option<&mut Trace>,
) {
    if acc.world != slot.world.img.uid() {
        acc.rebuild(env, slot);
    }
    if acc.round_insts == 0 {
        return;
    }
    let img = &slot.world.img;
    let base = slot.mgr.stats();
    let per_sample = SAMPLE_INSTS.div_ceil(acc.round_insts);
    let mut m = Machine::new();
    let (mut insts, mut timed) = (0u64, Duration::ZERO);
    while timed < dur {
        let mut got = 0;
        let t0 = Instant::now();
        for _ in 0..per_sample {
            for c in &acc.round {
                got += m.call(img, c.entry, &c.args).map_or(0, |o| o.stats.insts);
            }
        }
        let t1 = Instant::now();
        timed += t1 - t0;
        insts += got;
        // The emulator is deterministic: a round that retires another count
        // than the first one did something else.
        acc.tally.op(got == acc.round_insts * per_sample);
        if let Some(tr) = trace.as_deref_mut() {
            tr.rec.add("emu.rounds", t0, t1, None, 0);
        }
    }
    acc.minst_per_s
        .push(insts as f64 / timed.as_secs_f64() / 1e6);
    acc.counters.add(&slot.mgr.stats(), &base);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{setup, threads, POOL};

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn every_timed_cold_request_is_a_true_miss() {
        let (env, mut pool) = setup(Kind::ServeHit, 1, 1);
        let mut slot = pool.take(&env);
        let mut acc = ColdAcc::new(&env);
        cold_slice(&mut acc, &mut slot, &mut pool, 20 * MS, None);
        cold_slice(&mut acc, &mut slot, &mut pool, 20 * MS, None);
        let requests: usize = acc.samples.iter().map(Vec::len).sum();
        assert!(requests >= 2 * env.cold.len(), "whole rounds, every slice");
        assert_eq!(acc.tally.failed, 0);
        // One miss per request and not a single hit: the loop bypasses the
        // cache, also across slices (the leftovers are invalidated first).
        assert_eq!(acc.counters.misses as usize, requests);
        assert_eq!(acc.counters.hits, 0);
        assert_eq!((acc.rates.len(), acc.latency_us.len()), (2, 2));
        // The last round stays resident for the phases that follow.
        let misses = slot.mgr.stats().misses;
        let (infos, t) = variants_of(&env, &slot, &env.hot);
        assert!(t.failed == 0 && infos.iter().all(Option::is_some));
        assert_eq!(
            slot.mgr.stats().misses,
            misses,
            "residents answered as hits"
        );
    }

    #[test]
    fn a_repeated_key_is_not_a_miss_and_counts_as_failed() {
        let (env, mut pool) = setup(Kind::ServeHit, 1, 1);
        let slot = pool.take(&env);
        let mut acc = ColdAcc::new(&env);
        acc.begin(&slot);
        acc.request(&slot, 0, None);
        acc.request(&slot, 0, None); // second time: a hit
        assert_eq!((acc.tally.attempted, acc.tally.failed), (2, 1));
        assert_eq!(acc.samples[0].len(), 1);
    }

    #[test]
    fn pool_rotates_and_refills_on_demand() {
        let (env, mut pool) = setup(Kind::ServeHit, 2, 1);
        let mut uids: Vec<u64> = (0..POOL + 2)
            .map(|_| pool.take(&env).world.img.uid())
            .collect();
        uids.sort_unstable();
        uids.dedup();
        assert_eq!(uids.len(), POOL + 2, "every take is a distinct image");
    }

    #[test]
    fn cold_loop_swaps_worlds_when_jit_runs_low() {
        let (env, mut pool) = setup(Kind::UnrollCold, 3, 1);
        let mut slot = pool.take(&env);
        let first = slot.world.img.uid();
        let mut acc = ColdAcc::new(&env);
        cold_slice(&mut acc, &mut slot, &mut pool, MS, None);
        assert_eq!((acc.slots, slot.world.img.uid()), (1, first));
        // Pretend the segment is nearly full: the next round moves on.
        let img = &slot.world.img;
        img.try_alloc_jit(img.jit_remaining() - JIT_RESERVE + 1)
            .unwrap();
        cold_slice(&mut acc, &mut slot, &mut pool, MS, None);
        assert_eq!(acc.slots, 2);
        assert_ne!(slot.world.img.uid(), first);
        assert_eq!(acc.tally.failed, 0);
        assert_eq!(acc.counters.misses as usize, 2 * env.cold.len());
    }

    #[test]
    fn readers_only_hit_and_notice_a_wrong_answer() {
        let (env, mut pool) = setup(Kind::ServeHit, 4, 2);
        let mut slot = pool.take(&env);
        cold_slice(&mut ColdAcc::new(&env), &mut slot, &mut pool, MS, None);
        let mut acc = HitAcc::default();
        for _ in 0..2 {
            let t = hit_slice(&mut acc, &env, &slot, 2, 30 * MS, false);
            assert_eq!(t.failed, 0);
        }
        assert_eq!(acc.bad, 0);
        assert_eq!((acc.counters.misses, acc.counters.evictions), (0, 0));
        assert_eq!(acc.counters.hits, acc.requests);
        assert_eq!((acc.ns.len(), acc.mrps.len()), (2, 2));
        assert!(acc.mrps.iter().all(|r| *r > 0.0));
        // A reader holding stale entries must count every request as bad.
        let wrong = vec![1u64; env.hot.len()];
        let mut r = Reader::new(&env, &slot, &wrong, 0, 0, false);
        r.batch();
        assert_eq!(r.bad, BATCH as u64);
    }

    #[test]
    fn churn_keeps_the_hot_set_and_evicts_on_publish() {
        let (env, mut pool) = setup(Kind::ServeChurn, 5, threads().min(2));
        let mut slot = pool.take(&env);
        let (mut cold, mut hits) = (ColdAcc::new(&env), HitAcc::default());
        let mut extra = Tally::default();
        // A slice long enough to overflow the room the budget leaves (each
        // slice starts with the churn function invalidated).
        for _ in 0..10 {
            extra.merge(churn_slice(
                &mut cold,
                &mut hits,
                &mut slot,
                &mut pool,
                700 * MS,
                None,
            ));
            if cold.counters.evictions > 0 {
                break;
            }
        }
        assert_eq!(hits.bad, 0, "reader always got the resident hot variant");
        assert!(hits.requests > 0);
        assert_eq!(cold.tally.failed, 0);
        assert_eq!(extra.failed, 0);
        assert!(cold.counters.evictions > 0 && cold.counters.misses > 0);
        assert!(cold.counters.hits >= hits.requests);
    }

    #[test]
    fn warm_start_republishes_and_checks_outputs() {
        let (env, mut pool) = setup(Kind::CorpusCold, 6, 1);
        let mut slot = pool.take(&env);
        cold_slice(&mut ColdAcc::new(&env), &mut slot, &mut pool, MS, None);
        let mut warm = WarmAcc::checkpoint(&env, &slot, &env.cold, None);
        warm.load(&env, 2, None);
        assert_eq!(warm.tally.failed, 0);
        // The four floating-point kernels read a literal pool the
        // checkpoint does not carry; the six integer ones are warm-started.
        assert_eq!((warm.entries, warm.unportable), (6, 4));
        assert_eq!((warm.samples.len(), warm.per_entry_us.len()), (2, 1));
        assert!(warm.bytes() > 0);
    }

    #[test]
    fn run_phase_checks_outputs_and_makes_no_request() {
        let (env, mut pool) = setup(Kind::RunKernels, 7, 1);
        let mut slot = pool.take(&env);
        cold_slice(&mut ColdAcc::new(&env), &mut slot, &mut pool, MS, None);
        let mut acc = RunAcc::default();
        run_slice(&mut acc, &env, &slot, MS, None);
        run_slice(&mut acc, &env, &slot, MS, None);
        assert_eq!(acc.rows.len(), 6);
        assert_eq!(acc.tally.failed, 0);
        assert_eq!(acc.minst_per_s.len(), 2);
        assert_eq!(
            (acc.counters.hits, acc.counters.misses),
            (0, 0),
            "no request while running"
        );
        for (p, g, o) in &acc.rows {
            assert!(g.cycles > 0 && o.cycles > 0, "{}", p.label);
            if p.specialized && p.label != "poly.dispatch8" {
                assert!(
                    o.cycles < g.cycles,
                    "{}: {} vs {}",
                    p.label,
                    o.cycles,
                    g.cycles
                );
            }
        }
    }
}
