//! Region re-decoding with roundtrip checking (R1) and control-flow
//! closure (R2).

use crate::{Finding, Region, Rule, Severity, VerifyOptions, VerifyReport};
use brew_image::{Image, SegKind};
use brew_x86::{decode, encode, Inst};

/// Re-decode the variant's byte region. Emits [`Rule::Roundtrip`]
/// findings; returns `None` when the region cannot be decoded end to end
/// (analysis past an undecodable byte would be guesswork).
pub(crate) fn decode_region(
    img: &Image,
    entry: u64,
    code_len: usize,
    report: &mut VerifyReport,
) -> Option<Region> {
    let err = |addr, detail: String| Finding {
        rule: Rule::Roundtrip,
        severity: Severity::Error,
        addr,
        detail,
    };
    let bytes = match img.code_window(entry, code_len) {
        Ok(b) => b,
        Err(e) => {
            report
                .findings
                .push(err(entry, format!("variant region unreadable: {e}")));
            return None;
        }
    };
    if bytes.len() < code_len {
        report.findings.push(err(
            entry,
            format!(
                "variant region escapes its segment ({} of {} bytes mapped)",
                bytes.len(),
                code_len
            ),
        ));
        return None;
    }
    // Emitted instructions average a little over four bytes.
    let mut insts = Vec::with_capacity(bytes.len() / 4 + 1);
    let mut enc = Vec::with_capacity(16);
    let mut off = 0usize;
    while off < bytes.len() {
        let addr = entry + off as u64;
        let d = match decode(&bytes[off..], addr) {
            Ok(d) => d,
            Err(e) => {
                report
                    .findings
                    .push(err(addr, format!("undecodable bytes: {e}")));
                return None;
            }
        };
        // The emitter uses the canonical encoder, so re-encoding the
        // decoded form must reproduce the bytes exactly; any deviation
        // means the region was not produced (or was corrupted after
        // production) by our pipeline.
        enc.clear();
        match encode(&d.inst, addr, &mut enc) {
            Ok(n) => {
                if n != d.len || enc[..n] != bytes[off..off + d.len] {
                    report
                        .findings
                        .push(err(addr, format!("non-canonical encoding of `{}`", d.inst)));
                }
            }
            Err(e) => {
                report.findings.push(err(
                    addr,
                    format!("decoded instruction `{}` does not re-encode: {e}", d.inst),
                ));
            }
        }
        insts.push((addr, d.inst, d.len));
        off += d.len;
    }
    Some(Region {
        entry,
        end: entry + bytes.len() as u64,
        insts,
    })
}

/// R2: every control transfer resolves to an instruction boundary inside
/// the variant, a legal escape into the original Code segment, or an
/// allow-listed target — and control cannot fall off the end.
pub(crate) fn check_closure(
    img: &Image,
    region: &Region,
    opts: &VerifyOptions,
    report: &mut VerifyReport,
) {
    let mut err = |addr, detail: String| {
        report.findings.push(Finding {
            rule: Rule::CfgClosure,
            severity: Severity::Error,
            addr,
            detail,
        })
    };
    for (addr, inst, _) in &region.insts {
        match inst {
            Inst::JmpRel { target } | Inst::Jcc { target, .. } => {
                if region.contains(*target) {
                    if !region.is_boundary(*target) {
                        err(
                            *addr,
                            format!("branch to mid-instruction address {target:#x}"),
                        );
                    }
                } else if let Some(f) = external_target_problem(img, opts, *target) {
                    err(*addr, f);
                }
            }
            Inst::CallRel { target } => {
                if region.contains(*target) {
                    // The emitter never lays out callees inside a variant;
                    // an internal call smashes the variant's own code path
                    // onto the stack as a return address.
                    err(*addr, format!("call into the variant body at {target:#x}"));
                } else if let Some(f) = external_target_problem(img, opts, *target) {
                    err(*addr, f);
                }
            }
            Inst::JmpInd { .. } | Inst::CallInd { .. } => {
                err(
                    *addr,
                    format!("indirect control transfer `{inst}` cannot be validated"),
                );
            }
            _ => {}
        }
    }
    match region.insts.last() {
        Some((addr, inst, _)) if !inst.is_terminator() => {
            err(
                *addr,
                format!("control falls off the end of the variant after `{inst}`"),
            );
        }
        None => err(region.entry, "empty variant region".into()),
        _ => {}
    }
}

/// Why an external control-flow target is illegal, if it is.
fn external_target_problem(img: &Image, opts: &VerifyOptions, target: u64) -> Option<String> {
    if opts.allowed_targets.contains(&target) {
        return None;
    }
    match img.segment_of(target) {
        // Escapes into the original image (helper calls, guard bails,
        // deopt tail-jumps) are the one legal way out of a variant.
        Some(SegKind::Code) => None,
        Some(kind) => Some(format!(
            "control escapes into the {kind:?} segment at {target:#x}"
        )),
        None => Some(format!("wild target {target:#x} (unmapped memory)")),
    }
}
