//! R4 (write-set containment) and R5 (known-fold provenance), plus the
//! bounded walk over the *original* function that both rules compare
//! against.

use crate::{Finding, Region, Rule, Severity, VerifyOptions, VerifyReport};
use brew_core::{ArgValue, KnownSnapshot, ParamSpec, SpecRequest};
use brew_image::{Image, SegKind};
use brew_x86::{decode, Inst, MemRef, Operand};
use std::collections::{HashSet, VecDeque};
use std::ops::Range;

/// Instruction budget for the original-code walk. Original functions in
/// the supported subset are tiny; the budget only bounds pathological
/// inputs.
const WALK_BUDGET: usize = 50_000;

/// Immediate magnitude below which provenance is not questioned: loop
/// bounds, offsets and small constants are ubiquitous and meaningless to
/// track.
const SMALL_IMM: u64 = 65_536;

/// What the original function (plus configured hooks) statically
/// exhibits: the immediates it encodes, the absolute addresses it
/// references, and the absolute ranges it stores to.
pub(crate) struct OriginalSummary {
    pub imms: HashSet<u64>,
    pub abs_refs: HashSet<u64>,
    pub abs_stores: Vec<Range<u64>>,
    /// Instruction addresses of the walked original code. Rewritten code
    /// materializes these as immediates (hook arguments, return
    /// targets), so they carry provenance.
    pub code_addrs: HashSet<u64>,
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

/// Whether `v` is one arithmetic step away from a seed value: `a ± c`,
/// `a * c`, `a / c` or a shift of `a`, for a small constant `c`. Constant
/// folding over a known argument produces exactly such values (e.g.
/// `k / 3` baked into an `add`), so they carry provenance even though no
/// allow-list can enumerate them. Single-step with a small partner is
/// deliberate: it keeps the tweak surface narrow while covering what a
/// fold of one known input can emit.
fn derivable_in_one_step(v: u64, seeds: &HashSet<u64>) -> bool {
    let vi = v as i64;
    seeds.iter().any(|&a| {
        let ai = a as i64;
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
    })
}

/// Walk the original function's code (and any configured hook routines)
/// collecting the facts R4/R5 compare against. Best-effort and bounded:
/// undecodable or unreachable original code simply contributes nothing.
pub(crate) fn summarize_original(img: &Image, func: u64, req: &SpecRequest) -> OriginalSummary {
    let mut sum = OriginalSummary {
        imms: HashSet::new(),
        abs_refs: HashSet::new(),
        abs_stores: Vec::new(),
        code_addrs: HashSet::new(),
    };
    let cfg = req.config();
    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut seen: HashSet<u64> = HashSet::new();
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
    while let Some(addr) = queue.pop_front() {
        if !seen.insert(addr) || budget == 0 {
            continue;
        }
        budget -= 1;
        if img.segment_of(addr) != Some(SegKind::Code) {
            continue;
        }
        let Ok(window) = img.code_window(addr, 16) else {
            continue;
        };
        let Ok(d) = decode(&window, addr) else {
            continue;
        };
        sum.code_addrs.insert(addr);
        for_each_imm(&d.inst, &mut |v| {
            sum.imms.insert(v);
        });
        for m in [d.inst.mem_load(), d.inst.mem_store()]
            .into_iter()
            .flatten()
        {
            if let Some(a) = abs_addr(&m) {
                sum.abs_refs.insert(a);
            }
        }
        if let Some(a) = d.inst.mem_store().as_ref().and_then(abs_addr) {
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

/// Ranges the variant must never store to: the tracer's folded read-set
/// plus every declared known range (config `known_mem` and
/// `PTR_TO_KNOWN` extents). A store there invalidates the fold the
/// variant itself was specialized on.
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

/// R4: statically-derivable (absolute-addressed) stores must stay inside
/// legal write regions. Register-addressed stores are the dynamic
/// checker's job (`suite::verify`).
pub(crate) fn check_writes(
    img: &Image,
    region: &Region,
    req: &SpecRequest,
    snapshot: &KnownSnapshot,
    orig: &OriginalSummary,
    opts: &VerifyOptions,
    report: &mut VerifyReport,
) {
    let immutable = immutable_ranges(req, snapshot);
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
        if immutable.iter().any(|r| overlaps(r, &store)) {
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
            Some(_) => {
                if !orig.abs_stores.iter().any(|r| overlaps(r, &store)) {
                    push(
                        Severity::Info,
                        format!("absolute store at {target:#x} absent from the original"),
                    );
                }
            }
        }
    }
}

/// Every 1/2/4/8-byte little-endian window over the current bytes of the
/// immutable known ranges, in both zero- and sign-extended form — the
/// values a fold of known data can surface as an immediate.
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

/// R5: large immediates and folded absolute references must trace back to
/// something the request declared known — exact argument values, bytes of
/// the folded read-set, facts of the original code, counter pages, or
/// addresses of mapped non-transient segments. Unexplained values are
/// informational by default and errors under `strict_provenance`.
pub(crate) fn check_provenance(
    img: &Image,
    region: &Region,
    req: &SpecRequest,
    snapshot: &KnownSnapshot,
    orig: &OriginalSummary,
    opts: &VerifyOptions,
    report: &mut VerifyReport,
) {
    let immutable = immutable_ranges(req, snapshot);
    let windows = known_byte_windows(img, &immutable);
    let mut arg_values: HashSet<u64> = HashSet::new();
    for arg in req.args() {
        match arg {
            ArgValue::Int(v) => {
                arg_values.insert(*v as u64);
            }
            ArgValue::F64(f) => {
                arg_values.insert(f.to_bits());
            }
        }
    }
    let unexplained_severity = if opts.strict_provenance {
        Severity::Error
    } else {
        Severity::Info
    };
    // Seeds for one-step derivation: request arguments plus every window
    // over the folded read-set's bytes.
    let mut seeds: HashSet<u64> = arg_values.clone();
    seeds.extend(windows.iter().copied());
    let explained = |v: u64| -> bool {
        let small = (v as i64).unsigned_abs() < SMALL_IMM;
        small
            || arg_values.contains(&v)
            || immutable.iter().any(|r| r.contains(&v))
            || windows.contains(&v)
            || orig.imms.contains(&v)
            || orig.abs_refs.contains(&v)
            || orig.code_addrs.contains(&v)
            || opts.counter_pages.iter().any(|p| p.contains(&v))
            || matches!(img.segment_of(v), Some(SegKind::Data | SegKind::Jit))
            || derivable_in_one_step(v, &seeds)
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
                    if !explained(a) {
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
            if !explained(v) {
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
