//! R4 (write-set containment) and R5 (known-fold provenance), and the
//! [`Facts`] both judge a variant against.
//!
//! Cost model: both rules are one pass over the emitted instructions, and
//! what they need per instruction is O(1) — the request's arguments, its
//! immutable ranges, the segment map. The two facts that cost a walk of
//! their own (the byte windows of the known ranges, the summary of the
//! original function) are built on first demand, at most once per
//! `structural()` call, and only a value the O(1) rules leave open demands
//! them. `explained` is a disjunction of pure predicates, so the order they
//! are tried in is free and no verdict depends on it.

use crate::{Finding, Region, Rule, Severity, VerifyOptions, VerifyReport};
use brew_core::{ArgValue, KnownSnapshot, ParamSpec, SpecRequest};
use brew_image::{Image, SegKind};
use brew_x86::{decode, Inst, MemRef, Operand, WordSet};
use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::ops::Range;

/// Instruction budget for the original-code walk. Original functions in
/// the supported subset are tiny; the budget only bounds pathological
/// inputs.
const WALK_BUDGET: usize = 50_000;

/// Immediate magnitude below which provenance is not questioned: loop
/// bounds, offsets and small constants are ubiquitous and meaningless to
/// track. The cleanup's addend rule keeps every sum it makes under it.
const SMALL_IMM: u64 = 65_536;

/// What the original function (plus configured hooks) statically
/// exhibits: the immediates it encodes, the absolute addresses it
/// references, and the absolute ranges it stores to.
#[derive(Default)]
pub(crate) struct OriginalSummary {
    pub imms: WordSet<u64>,
    pub abs_refs: WordSet<u64>,
    pub abs_stores: Vec<Range<u64>>,
    /// Instruction addresses of the walked original code. Rewritten code
    /// materializes these as immediates (hook arguments, return
    /// targets), so they carry provenance.
    pub code_addrs: WordSet<u64>,
}

/// The absolute address of a memory operand with no register parts.
fn abs_addr(m: &MemRef) -> Option<u64> {
    (m.base.is_none() && m.index.is_none()).then_some(m.disp as i64 as u64)
}

/// Visit every encoded immediate of `inst` (as a sign-extended u64).
fn for_each_imm(inst: &Inst, f: &mut impl FnMut(u64)) {
    let mut op = |o: &Operand| {
        if let Operand::Imm(v) = o {
            f(*v as u64);
        }
    };
    match inst {
        Inst::MovAbs { imm, .. } => f(*imm),
        Inst::ImulImm { src, imm, .. } => {
            op(src);
            f(*imm as i64 as u64);
        }
        Inst::Mov { src, .. }
        | Inst::Movsxd { src, .. }
        | Inst::Movzx8 { src, .. }
        | Inst::Imul { src, .. }
        | Inst::Idiv { src, .. }
        | Inst::Push { src }
        | Inst::Cvtsi2sd { src, .. }
        | Inst::Cvttsd2si { src, .. }
        | Inst::Sse { src, .. }
        | Inst::MovSd { src, .. }
        | Inst::MovUpd { src, .. } => op(src),
        Inst::Alu { src, .. } => op(src),
        Inst::Test { a, b, .. } => {
            op(a);
            op(b);
        }
        Inst::Ucomisd { b, .. } => op(b),
        _ => {}
    }
}

fn overlaps(a: &Range<u64>, b: &Range<u64>) -> bool {
    a.start < b.end && b.start < a.end
}

/// Whether `v` is one arithmetic step away from the seed value `a`:
/// `a ± c`, `a * c`, `a / c` or a shift of `a`, for a small constant `c`.
/// Constant folding over a known argument produces exactly such values
/// (e.g. `k / 3` baked into an `add`), so they carry provenance even
/// though no allow-list can enumerate them. Single-step with a small
/// partner is deliberate: it keeps the tweak surface narrow while covering
/// what a fold of one known input can emit.
fn one_step(v: u64, a: u64) -> bool {
    let (vi, ai) = (v as i64, a as i64);
    if vi.wrapping_sub(ai).unsigned_abs() < SMALL_IMM
        || vi.wrapping_add(ai).unsigned_abs() < SMALL_IMM
    {
        return true; // a ± c  (or c - a)
    }
    if ai != 0 {
        if let Some(q) = vi.checked_div(ai) {
            if q.unsigned_abs() < SMALL_IMM && q.checked_mul(ai) == Some(vi) {
                return true; // a * c
            }
        }
    }
    if vi != 0 {
        if let Some(c) = ai.checked_div(vi) {
            if c != 0 && c.unsigned_abs() < SMALL_IMM && ai.checked_div(c) == Some(vi) {
                return true; // a / c (truncating)
            }
        }
    }
    (1..64).any(|k| ai >> k == vi || a.wrapping_shl(k) == v)
}

/// Walk the original function's code (and any configured hook routines)
/// collecting the facts R4/R5 compare against. Best-effort and bounded:
/// undecodable or unreachable original code simply contributes nothing.
fn summarize_original(img: &Image, func: u64, req: &SpecRequest) -> OriginalSummary {
    let mut sum = OriginalSummary::default();
    let cfg = req.config();
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut seen: WordSet<u64> = WordSet::default();
    for start in [
        Some(func),
        cfg.entry_hook,
        cfg.exit_hook,
        cfg.mem_access_hook,
    ]
    .into_iter()
    .flatten()
    {
        queue.push_back(start);
    }
    let mut budget = WALK_BUDGET;
    let mut window = [0u8; 16];
    while let Some(addr) = queue.pop_front() {
        if !seen.insert(addr) || budget == 0 {
            continue;
        }
        budget -= 1;
        if img.segment_of(addr) != Some(SegKind::Code) {
            continue;
        }
        let Ok(n) = img.code_window_into(addr, &mut window) else {
            continue;
        };
        let Ok(d) = decode(&window[..n], addr) else {
            continue;
        };
        sum.code_addrs.insert(addr);
        for_each_imm(&d.inst, &mut |v| {
            sum.imms.insert(v);
        });
        let store = d.inst.mem_store().as_ref().and_then(abs_addr);
        for a in [d.inst.mem_load().as_ref().and_then(abs_addr), store]
            .into_iter()
            .flatten()
        {
            sum.abs_refs.insert(a);
        }
        if let Some(a) = store {
            sum.abs_stores.push(a..a + d.inst.mem_width() as u64);
        }
        if let Some(t) = d.inst.static_target() {
            queue.push_back(t);
        }
        if !d.inst.is_terminator() {
            queue.push_back(addr + d.len as u64);
        }
    }
    sum
}

/// Every 1/2/4/8-byte little-endian window over the current bytes of
/// `ranges`, in both zero- and sign-extended form — the values a fold of
/// known data can surface as an immediate.
///
/// A range's length is whatever the request (or a checkpoint) declared, so
/// each range is clipped to the extent of the segment that maps its start
/// and read through a fixed buffer: memory and time follow the bytes that
/// exist, never the declared length.
fn known_byte_windows(img: &Image, ranges: impl Iterator<Item = Range<u64>>) -> WordSet<u64> {
    const CHUNK: usize = 4096;
    let mut set = WordSet::default();
    // Seven bytes of overlap: the widest window at a chunk's last byte.
    let mut buf = [0u8; CHUNK + 7];
    for r in ranges {
        let end = r.start + img.mapped_prefix(r.start, r.end.saturating_sub(r.start));
        let mut at = r.start;
        while at < end {
            let n = buf.len().min((end - at) as usize);
            if img.read_bytes(at, &mut buf[..n]).is_err() {
                break;
            }
            for i in 0..n.min(CHUNK) {
                for k in [1usize, 2, 4, 8] {
                    if i + k > n {
                        break;
                    }
                    let mut raw = [0u8; 8];
                    raw[..k].copy_from_slice(&buf[i..i + k]);
                    let z = u64::from_le_bytes(raw);
                    set.insert(z);
                    let shift = 64 - 8 * k as u32;
                    set.insert(((z << shift) as i64 >> shift) as u64);
                }
            }
            at += CHUNK as u64;
        }
    }
    set
}

/// What R4 and R5 judge one variant against; see the module docs for what
/// is gathered when.
pub(crate) struct Facts<'a> {
    pub(crate) img: &'a Image,
    func: u64,
    req: &'a SpecRequest,
    snapshot: &'a KnownSnapshot,
    pub(crate) opts: &'a VerifyOptions,
    windows: OnceCell<WordSet<u64>>,
    original: OnceCell<OriginalSummary>,
    /// How often the window table was built and the original function
    /// walked — `[windows, walks]`, each 0 or 1 by construction; the tests
    /// pin which requests demand which.
    demand: Cell<[u32; 2]>,
}

impl<'a> Facts<'a> {
    pub(crate) fn new(
        img: &'a Image,
        func: u64,
        req: &'a SpecRequest,
        snapshot: &'a KnownSnapshot,
        opts: &'a VerifyOptions,
    ) -> Self {
        Facts {
            img,
            func,
            req,
            snapshot,
            opts,
            windows: OnceCell::new(),
            original: OnceCell::new(),
            demand: Cell::new([0; 2]),
        }
    }

    /// `[window-table builds, original-function walks]` so far.
    #[cfg(test)]
    pub(crate) fn demand(&self) -> [u32; 2] {
        self.demand.get()
    }

    /// Ranges the variant must never store to: the tracer's folded
    /// read-set plus every declared known range (config `known_mem` and
    /// `PTR_TO_KNOWN` extents). A store there invalidates the fold the
    /// variant itself was specialized on.
    fn immutable(&self) -> impl Iterator<Item = Range<u64>> + '_ {
        let cfg = self.req.config();
        let ptr_to_known = cfg
            .params
            .iter()
            .zip(self.req.args())
            .filter_map(|pair| match pair {
                (ParamSpec::PtrToKnown { len }, ArgValue::Int(p)) => {
                    let p = *p as u64;
                    Some(p..p.saturating_add(*len))
                }
                _ => None,
            });
        let declared = self.snapshot.ranges().iter().chain(&cfg.known_mem);
        declared.cloned().chain(ptr_to_known)
    }

    /// The request's argument values, as the bits an immediate would carry.
    fn args(&self) -> impl Iterator<Item = u64> + '_ {
        self.req.args().iter().map(|arg| match arg {
            ArgValue::Int(v) => *v as u64,
            ArgValue::F64(f) => f.to_bits(),
        })
    }

    fn windows(&self) -> &WordSet<u64> {
        self.windows.get_or_init(|| {
            let [w, o] = self.demand.get();
            self.demand.set([w + 1, o]);
            known_byte_windows(self.img, self.immutable())
        })
    }

    fn original(&self) -> &OriginalSummary {
        self.original.get_or_init(|| {
            let [w, o] = self.demand.get();
            self.demand.set([w, o + 1]);
            summarize_original(self.img, self.func, self.req)
        })
    }

    /// Whether `v` traces back to something the request declared known:
    /// an exact argument value, an address inside an immutable range or a
    /// counter page or a mapped non-transient segment, one step from an
    /// argument — and, only for a value all of those leave open, a fact of
    /// the original code, a window over the known bytes, or one step from
    /// such a window.
    fn explained(&self, v: u64) -> bool {
        if (v as i64).unsigned_abs() < SMALL_IMM
            || self.args().any(|a| a == v)
            || self.immutable().any(|r| r.contains(&v))
            || self.opts.counter_pages.iter().any(|p| p.contains(&v))
            || matches!(self.img.segment_of(v), Some(SegKind::Data | SegKind::Jit))
            || self.args().any(|a| one_step(v, a))
        {
            return true;
        }
        let orig = self.original();
        if orig.imms.contains(&v) || orig.abs_refs.contains(&v) || orig.code_addrs.contains(&v) {
            return true;
        }
        let windows = self.windows();
        windows.contains(&v) || windows.iter().any(|&a| one_step(v, a))
    }
}

/// R4: statically-derivable (absolute-addressed) stores must stay inside
/// legal write regions. Register-addressed stores are the dynamic
/// checker's job (`suite::verify`).
pub(crate) fn check_writes(facts: &Facts, region: &Region, report: &mut VerifyReport) {
    let (img, opts) = (facts.img, facts.opts);
    for (addr, inst, _) in &region.insts {
        let Some(target) = inst.mem_store().as_ref().and_then(abs_addr) else {
            continue;
        };
        let store = target..target + inst.mem_width() as u64;
        if opts.counter_pages.iter().any(|p| overlaps(p, &store)) {
            continue;
        }
        let mut push = |severity, detail| {
            report.findings.push(Finding {
                rule: Rule::WriteContainment,
                severity,
                addr: *addr,
                detail,
            })
        };
        if facts.immutable().any(|r| overlaps(&r, &store)) {
            push(
                Severity::Error,
                format!("store into folded-known memory at {target:#x}"),
            );
            continue;
        }
        match img.segment_of(target) {
            None => push(
                Severity::Error,
                format!("store into unmapped memory at {target:#x}"),
            ),
            Some(SegKind::Code) => push(
                Severity::Error,
                format!("store into the Code segment at {target:#x}"),
            ),
            Some(SegKind::Jit) => push(
                Severity::Error,
                format!("self-modifying store into the Jit segment at {target:#x}"),
            ),
            // The one arm that needs the original function walked.
            Some(_) => {
                let kept = &facts.original().abs_stores;
                if !kept.iter().any(|r| overlaps(r, &store)) {
                    push(
                        Severity::Info,
                        format!("absolute store at {target:#x} absent from the original"),
                    );
                }
            }
        }
    }
}

/// R5: large immediates and folded absolute references must trace back to
/// something the request declared known — exact argument values, bytes of
/// the folded read-set, facts of the original code, counter pages, or
/// addresses of mapped non-transient segments. Unexplained values are
/// informational by default and errors under `strict_provenance`.
pub(crate) fn check_provenance(facts: &Facts, region: &Region, report: &mut VerifyReport) {
    let img = facts.img;
    let unexplained_severity = if facts.opts.strict_provenance {
        Severity::Error
    } else {
        Severity::Info
    };
    for (addr, inst, _) in &region.insts {
        // Folded absolute data references: must land in mapped memory and
        // never treat code as data.
        for m in [inst.mem_load(), inst.mem_store()].into_iter().flatten() {
            let Some(a) = abs_addr(&m) else { continue };
            let mut push = |severity, detail| {
                report.findings.push(Finding {
                    rule: Rule::Provenance,
                    severity,
                    addr: *addr,
                    detail,
                })
            };
            match img.segment_of(a) {
                None => push(
                    Severity::Error,
                    format!("dangling folded reference to unmapped {a:#x}"),
                ),
                Some(SegKind::Code) => push(
                    Severity::Error,
                    format!("folded data access into the Code segment at {a:#x}"),
                ),
                _ => {
                    if !facts.explained(a) {
                        push(
                            unexplained_severity,
                            format!("folded reference {a:#x} has no known-value provenance"),
                        );
                    }
                }
            }
        }
        // Large immediates: must trace to a declared known value.
        for_each_imm(inst, &mut |v| {
            if !facts.explained(v) {
                report.findings.push(Finding {
                    rule: Rule::Provenance,
                    severity: unexplained_severity,
                    addr: *addr,
                    detail: format!("immediate {v:#x} has no known-value provenance"),
                });
            }
        });
    }
}

/// `explained` as it was before it became demand-driven, kept as the
/// reference the tests compare [`Facts::explained`] against (as `ByteFrame`
/// is for the prover's frame): every fact built up front on `std`'s hasher,
/// the disjunction in its original order. It shares only the pure pieces —
/// `one_step`, `for_each_imm` and the original-function walk.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use std::collections::HashSet;

    fn immutable_ranges(req: &SpecRequest, snapshot: &KnownSnapshot) -> Vec<Range<u64>> {
        let mut v: Vec<Range<u64>> = snapshot.ranges().to_vec();
        v.extend(req.config().known_mem.iter().cloned());
        for (spec, arg) in req.config().params.iter().zip(req.args()) {
            if let (ParamSpec::PtrToKnown { len }, ArgValue::Int(p)) = (spec, arg) {
                let p = *p as u64;
                v.push(p..p.saturating_add(*len));
            }
        }
        v
    }

    /// Unclipped, and a range with one unmapped byte contributes nothing:
    /// the oracle is only ever asked about ranges that are mapped.
    fn known_byte_windows(img: &Image, ranges: &[Range<u64>]) -> HashSet<u64> {
        let mut set = HashSet::new();
        for r in ranges {
            let len = (r.end - r.start) as usize;
            let mut bytes = vec![0u8; len];
            if img.read_bytes(r.start, &mut bytes).is_err() {
                continue;
            }
            for i in 0..len {
                for k in [1usize, 2, 4, 8] {
                    if i + k > len {
                        continue;
                    }
                    let mut raw = [0u8; 8];
                    raw[..k].copy_from_slice(&bytes[i..i + k]);
                    let z = u64::from_le_bytes(raw);
                    set.insert(z);
                    let shift = 64 - 8 * k as u32;
                    set.insert(((z << shift) as i64 >> shift) as u64);
                }
            }
        }
        set
    }

    pub(crate) struct Eager<'a> {
        img: &'a Image,
        opts: &'a VerifyOptions,
        arg_values: HashSet<u64>,
        immutable: Vec<Range<u64>>,
        pub(crate) windows: HashSet<u64>,
        seeds: HashSet<u64>,
        orig: OriginalSummary,
    }

    impl<'a> Eager<'a> {
        pub(crate) fn new(
            img: &'a Image,
            func: u64,
            req: &SpecRequest,
            snapshot: &KnownSnapshot,
            opts: &'a VerifyOptions,
        ) -> Self {
            let immutable = immutable_ranges(req, snapshot);
            let windows = known_byte_windows(img, &immutable);
            let arg_values: HashSet<u64> = req
                .args()
                .iter()
                .map(|arg| match arg {
                    ArgValue::Int(v) => *v as u64,
                    ArgValue::F64(f) => f.to_bits(),
                })
                .collect();
            let mut seeds = arg_values.clone();
            seeds.extend(windows.iter().copied());
            Eager {
                img,
                opts,
                arg_values,
                immutable,
                windows,
                seeds,
                orig: summarize_original(img, func, req),
            }
        }

        pub(crate) fn explained(&self, v: u64) -> bool {
            let small = (v as i64).unsigned_abs() < SMALL_IMM;
            small
                || self.arg_values.contains(&v)
                || self.immutable.iter().any(|r| r.contains(&v))
                || self.windows.contains(&v)
                || self.orig.imms.contains(&v)
                || self.orig.abs_refs.contains(&v)
                || self.orig.code_addrs.contains(&v)
                || self.opts.counter_pages.iter().any(|p| p.contains(&v))
                || matches!(self.img.segment_of(v), Some(SegKind::Data | SegKind::Jit))
                || self.seeds.iter().any(|&a| one_step(v, a))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Eager;
    use super::*;
    use crate::progs::arb_prog;
    use brew_core::{RetKind, Rewriter};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over the differential suite's program corpus, with large pinned
        /// arguments and a seeded known blob so that every rule has values
        /// to explain: the demand-driven predicate and the eager one agree
        /// on every immediate the variant encodes and on seeded values
        /// placed around each rule's boundary.
        #[test]
        fn explained_lazily_equals_eagerly(
            prog in arb_prog(),
            spec_mask in 0u8..8,
            pins in proptest::array::uniform3(-3_000_000_000i64..3_000_000_000),
            blob in proptest::collection::vec(any::<u64>(), 1..6),
            extra in proptest::collection::vec((0u8..7, any::<u64>()), 24),
            counter_page in any::<bool>(),
        ) {
            let img = Image::new();
            let f = brew_minic::compile_into(&prog.render(), &img)
                .expect("generated program compiles")
                .func("f")
                .unwrap();
            let known = img.alloc_heap(blob.len() as u64 * 8, 8);
            for (i, w) in blob.iter().enumerate() {
                img.write_u64(known + i as u64 * 8, *w).unwrap();
            }
            let mut req = SpecRequest::new()
                .ret(RetKind::Int)
                .known_mem(known..known + blob.len() as u64 * 8);
            for (i, &pin) in pins.iter().enumerate() {
                req = if spec_mask & (1 << i) != 0 {
                    req.known_int(pin)
                } else {
                    req.unknown_int()
                };
            }
            // A trace fault (a folded division) is a legitimate outcome.
            let Ok(res) = Rewriter::new(&img).rewrite(f, &req) else {
                return Ok(());
            };
            let page = img.alloc_heap(64, 8);
            let opts = VerifyOptions {
                counter_pages: Vec::from_iter(counter_page.then_some(page..page + 64)),
                ..VerifyOptions::default()
            };
            let eager = Eager::new(&img, f, &req, &res.snapshot, &opts);
            let facts = Facts::new(&img, f, &req, &res.snapshot, &opts);

            let mut values: Vec<u64> = Vec::new();
            let mut report = VerifyReport::default();
            let region = crate::cfg::decode_region(&img, res.entry, res.code_len, &mut report)
                .expect("the emitted region decodes");
            for (_, inst, _) in &region.insts {
                for_each_imm(inst, &mut |v| values.push(v));
                values.extend(
                    [inst.mem_load(), inst.mem_store()]
                        .into_iter()
                        .flatten()
                        .filter_map(|m| abs_addr(&m)),
                );
            }
            let windows: Vec<u64> = eager.windows.iter().copied().collect();
            for &(kind, r) in &extra {
                let w = windows[r as usize % windows.len()];
                let pin = pins[r as usize % 3] as u64;
                let c = r % 70_000;
                values.push(match kind {
                    0 => r,
                    1 => w,
                    2 => w.wrapping_add(c).wrapping_sub(35_000),
                    3 => pin.wrapping_mul(c),
                    4 => ((pin as i64) / (c as i64 + 1)) as u64,
                    5 => f + r % 256,
                    _ => (if r & 1 == 0 { known } else { page }) + r % 96,
                });
                values.push(w.wrapping_shl((r % 64) as u32));
                values.push(((pin as i64) >> (r % 64)) as u64);
            }
            for v in values {
                prop_assert_eq!(
                    facts.explained(v),
                    eager.explained(v),
                    "{:#x} under pins {:?} mask {:#b}",
                    v,
                    pins,
                    spec_mask
                );
            }
            let [w, o] = facts.demand();
            prop_assert!(w <= 1 && o <= 1, "facts built more than once: {:?}", [w, o]);
        }
    }

    /// A declared length past the end of the mapping is read up to the end
    /// of the segment that maps the range's start — the one verdict the
    /// eager tier got differently (it dropped such a range whole).
    #[test]
    fn windows_clip_to_the_mapped_extent() {
        use brew_image::layout::{HEAP_BASE, HEAP_SIZE};
        let img = Image::new();
        let end = HEAP_BASE + HEAP_SIZE;
        let tail = img.alloc_heap(end - HEAP_BASE - 64, 8) + (end - HEAP_BASE - 64) - 5000;
        img.write_u64(tail, 0x1122_3344_5566_7788).unwrap();
        img.write_u64(end - 8, 0x99aa_bbcc_ddee_ff00).unwrap();
        // Straddles the 4096-byte read chunk.
        img.write_u64(tail + 4093, 0x0102_0304_0506_0708).unwrap();
        let clipped = known_byte_windows(&img, std::iter::once(tail..tail + (1 << 40)));
        let exact = known_byte_windows(&img, std::iter::once(tail..end));
        assert_eq!(clipped, exact);
        for v in [
            0x1122_3344_5566_7788u64,
            0x99aa_bbcc_ddee_ff00,
            0x0102_0304_0506_0708,
            0xffff_ffff_ddee_ff00, // the last dword, sign-extended
        ] {
            assert!(clipped.contains(&v), "{v:#x}");
        }
        let unmapped = known_byte_windows(&img, std::iter::once(end..end + 64));
        assert!(unmapped.is_empty());
    }
}
