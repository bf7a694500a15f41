//! Variant persistence — the compact versioned byte format behind
//! [`SpecializationManager::save_variant_bytes_report`] /
//! [`SpecializationManager::load_variant_bytes`]. The manager reads and
//! writes bytes only; a caller that wants a file owns the file.
//!
//! Restarting the process normally throws the whole variant cache away
//! and re-traces the working set from scratch. This module serializes
//! verified variants — emitted code bytes, the producing
//! [`SpecRequest`], the [`KnownSnapshot`] of folded memory, and the
//! rewrite statistics — so the next process can warm-start. The format
//! is deliberately dumb: little-endian fixed-width fields, length-framed
//! entries, an FNV-1a checksum per entry, no compression, no pointers.
//!
//! ## Layout (version 2)
//!
//! ```text
//! file   := magic[8]="BREWVARS" version:u32 count:u32 entry*
//! entry  := payload_len:u32 payload checksum:u64        (FNV-1a of payload)
//! payload:= func:u64 fingerprint:u64 entry:u64
//!           code_len:u32 code[code_len]
//!           snap_n:u32 (start:u64 end:u64)* snap_hash:u64
//!           stats:u64[14]
//!           spec_n:u32 spec*         (tag:u8, tag 2 + len:u64)
//!           arg_n:u32 arg*           (tag:u8 + 8 value bytes)
//!           ret:u8
//!           mem_n:u32 (start:u64 end:u64)*
//!           fopt_n:u32 (addr:u64 opts)*                 (sorted by addr)
//!           default_opts
//!           max_trace_insts:u64 max_blocks:u64 max_code_bytes:u64
//!           (flag:u8 addr:u64){3}    (mem_access, entry, exit hooks)
//!           level:u8                 (`OptLevel` discriminant; version 1
//!                                    carried a 7-bit pass mask here,
//!                                    versions 2 and 3 more rungs)
//! opts   := inline:u8 fresh:u8 branch:u8 max_variants:u32
//! ```
//!
//! Dispatch guards are *not* persisted: they are recomputed from the
//! decoded request via [`SpecRequest::guard_conditions`], which is
//! deterministic — persisting them would only add a second copy that
//! could drift from the request.
//!
//! ## Trust boundary
//!
//! Nothing in this file is trusted at load time. Decoding validates
//! magic, version, framing and the per-entry checksum;
//! [`SpecializationManager::load_variant_bytes`] then re-validates each entry
//! against the *live* process — fingerprint recomputed from the decoded
//! request, JIT placement re-derived, snapshot re-hashed against the
//! image — and finally re-runs the configured publish gate over the
//! re-materialized code, exactly as if the variant had just been
//! rewritten. A variant that fails any step is rejected (counted in
//! `brew_persist_rejected_total`), negatively cached, and the entry
//! cold-starts; it is never published. See DESIGN.md §11.
//!
//! File-level corruption (bad magic, wrong version, truncation) aborts
//! the whole load; entry-level corruption (a failed checksum inside
//! intact framing) rejects only that entry, so one flipped bit does not
//! cost the rest of the warm start.

use crate::capture::RewriteStats;
use crate::config::{ArgValue, FuncOpts, ParamSpec, RetKind, RewriteConfig};
use crate::error::RewriteError;
use crate::passes::OptLevel;
use crate::request::SpecRequest;
use crate::snapshot::KnownSnapshot;
use std::fmt;
use std::ops::Range;

#[cfg(doc)]
use crate::manager::SpecializationManager;

/// File magic: the first eight bytes of every variant file.
pub const MAGIC: [u8; 8] = *b"BREWVARS";

/// Current format version; bumped on any layout change. Loads of other
/// versions fail with [`PersistError::BadVersion`] — there is no
/// cross-version migration, a cold start is always correct.
pub const FORMAT_VERSION: u32 = 4;

/// Why a persisted-variant file (or one entry of it) was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    BadVersion {
        /// The version the file claims.
        found: u32,
    },
    /// The file ended mid-field (or an entry's framing overran the file).
    Truncated,
    /// An entry's payload does not hash to its recorded checksum.
    Checksum {
        /// Zero-based index of the corrupt entry.
        index: usize,
    },
    /// A checksum-valid payload contained an impossible encoding (bad
    /// tag, arity drift) — this version's writers never produce it.
    BadEncoding {
        /// What the decoder tripped over.
        what: String,
    },
    /// The stored fingerprint does not match the one recomputed from the
    /// decoded request — the key and the request drifted apart.
    Fingerprint {
        /// The fingerprint stored in the file.
        stored: u64,
        /// The fingerprint the decoded request actually hashes to.
        computed: u64,
    },
    /// The entry's recorded JIT region cannot be re-reserved in this
    /// process (the cursor is already past it, or allocation failed).
    Placement {
        /// The entry address the variant was emitted at.
        entry: u64,
    },
    /// The variant's [`KnownSnapshot`] no longer matches the live image:
    /// the known memory it folded has changed since it was saved.
    StaleSnapshot,
    /// The configured publish gate rejected the re-materialized variant.
    Gate {
        /// The gate's rendered rejection.
        summary: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a variant file (bad magic)"),
            PersistError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported variant-file version {found} (expected {FORMAT_VERSION})"
                )
            }
            PersistError::Truncated => write!(f, "variant file truncated"),
            PersistError::Checksum { index } => {
                write!(f, "entry {index} failed its checksum")
            }
            PersistError::BadEncoding { what } => {
                write!(f, "entry payload undecodable: {what}")
            }
            PersistError::Fingerprint { stored, computed } => {
                write!(
                    f,
                    "stored fingerprint {stored:#x} != recomputed {computed:#x}"
                )
            }
            PersistError::Placement { entry } => {
                write!(f, "cannot re-reserve JIT region at {entry:#x}")
            }
            PersistError::StaleSnapshot => {
                write!(f, "folded known memory changed since the variant was saved")
            }
            PersistError::Gate { summary } => {
                write!(f, "publish gate rejected loaded variant: {summary}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// The [`RewriteError`] this rejection is negatively cached as:
    /// gate rejections keep their verification identity, everything else
    /// becomes [`RewriteError::PersistRejected`].
    pub fn as_rewrite_error(&self) -> RewriteError {
        match self {
            PersistError::Gate { summary } => RewriteError::VerifyRejected {
                findings: 1,
                first: summary.clone(),
            },
            other => RewriteError::PersistRejected {
                what: other.to_string(),
            },
        }
    }
}

/// One decoded entry of a variant file — everything needed to
/// re-materialize and re-validate the variant in a fresh process.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedVariant {
    /// Entry address of the original function.
    pub func: u64,
    /// The request fingerprint recorded at save time (re-checked against
    /// the decoded request on load).
    pub fingerprint: u64,
    /// JIT entry address the code was emitted at (addresses are absolute,
    /// so the code must land at exactly this address again).
    pub entry: u64,
    /// The emitted code bytes.
    pub code: Vec<u8>,
    /// Folded known-memory read-set recorded at save time.
    pub snapshot: KnownSnapshot,
    /// Statistics of the producing rewrite.
    pub stats: RewriteStats,
    /// The producing request, fully decoded.
    pub req: SpecRequest,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn opts(&mut self, o: &FuncOpts) {
        self.u8(o.inline as u8);
        self.u8(o.fresh_unknown as u8);
        self.u8(o.branch_unknown as u8);
        self.u32(o.max_variants);
    }
    fn ranges(&mut self, rs: &[Range<u64>]) {
        self.u32(rs.len() as u32);
        for r in rs {
            self.u64(r.start);
            self.u64(r.end);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(PersistError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn opts(&mut self) -> Result<FuncOpts, PersistError> {
        Ok(FuncOpts {
            inline: self.u8()? != 0,
            fresh_unknown: self.u8()? != 0,
            branch_unknown: self.u8()? != 0,
            max_variants: self.u32()?,
        })
    }
    fn ranges(&mut self) -> Result<Vec<Range<u64>>, PersistError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let start = self.u64()?;
            let end = self.u64()?;
            out.push(start..end);
        }
        Ok(out)
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_req(w: &mut Writer, req: &SpecRequest) {
    let cfg = req.config();
    w.u32(cfg.params.len() as u32);
    for spec in &cfg.params {
        match spec {
            ParamSpec::Unknown => w.u8(0),
            ParamSpec::Known => w.u8(1),
            ParamSpec::PtrToKnown { len } => {
                w.u8(2);
                w.u64(*len);
            }
        }
    }
    w.u32(req.args().len() as u32);
    for arg in req.args() {
        match arg {
            ArgValue::Int(v) => {
                w.u8(0);
                w.u64(*v as u64);
            }
            ArgValue::F64(v) => {
                w.u8(1);
                w.u64(v.to_bits());
            }
        }
    }
    w.u8(match cfg.ret {
        RetKind::Int => 0,
        RetKind::F64 => 1,
        RetKind::Void => 2,
    });
    w.ranges(&cfg.known_mem);
    let mut fopts: Vec<(&u64, &FuncOpts)> = cfg.func_opts.iter().collect();
    fopts.sort_by_key(|(a, _)| **a);
    w.u32(fopts.len() as u32);
    for (addr, o) in fopts {
        w.u64(*addr);
        w.opts(o);
    }
    w.opts(&cfg.default_opts);
    w.u64(cfg.max_trace_insts);
    w.u64(cfg.max_blocks as u64);
    w.u64(cfg.max_code_bytes as u64);
    for hook in [cfg.mem_access_hook, cfg.entry_hook, cfg.exit_hook] {
        w.u8(hook.is_some() as u8);
        w.u64(hook.unwrap_or(0));
    }
    w.u8(req.pass_config() as u8);
}

fn decode_req(r: &mut Reader<'_>) -> Result<SpecRequest, PersistError> {
    let mut cfg = RewriteConfig::new();
    let nspecs = r.u32()? as usize;
    for i in 0..nspecs {
        let spec = match r.u8()? {
            0 => ParamSpec::Unknown,
            1 => ParamSpec::Known,
            2 => ParamSpec::PtrToKnown { len: r.u64()? },
            t => {
                return Err(PersistError::BadEncoding {
                    what: format!("parameter spec tag {t}"),
                })
            }
        };
        cfg.set_param(i, spec);
    }
    let nargs = r.u32()? as usize;
    let mut args = Vec::with_capacity(nargs.min(1 << 16));
    for _ in 0..nargs {
        args.push(match r.u8()? {
            0 => ArgValue::Int(r.u64()? as i64),
            1 => ArgValue::F64(f64::from_bits(r.u64()?)),
            t => {
                return Err(PersistError::BadEncoding {
                    what: format!("argument tag {t}"),
                })
            }
        });
    }
    cfg.ret = match r.u8()? {
        0 => RetKind::Int,
        1 => RetKind::F64,
        2 => RetKind::Void,
        t => {
            return Err(PersistError::BadEncoding {
                what: format!("return-kind tag {t}"),
            })
        }
    };
    cfg.known_mem = r.ranges()?;
    let nf = r.u32()? as usize;
    for _ in 0..nf {
        let addr = r.u64()?;
        let o = r.opts()?;
        cfg.func_opts.insert(addr, o);
    }
    cfg.default_opts = r.opts()?;
    cfg.max_trace_insts = r.u64()?;
    cfg.max_blocks = r.u64()? as usize;
    cfg.max_code_bytes = r.u64()? as usize;
    let mut hooks = [None; 3];
    for h in &mut hooks {
        let flag = r.u8()?;
        let addr = r.u64()?;
        *h = (flag != 0).then_some(addr);
    }
    cfg.mem_access_hook = hooks[0];
    cfg.entry_hook = hooks[1];
    cfg.exit_hook = hooks[2];
    let byte = r.u8()?;
    let level = OptLevel::from_u8(byte).ok_or_else(|| PersistError::BadEncoding {
        what: format!("optimization level {byte}"),
    })?;
    SpecRequest::from_config(&cfg, &args, level).map_err(|e| PersistError::BadEncoding {
        what: e.to_string(),
    })
}

fn encode_entry(v: &PersistedVariant) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(v.code.len() + 256));
    w.u64(v.func);
    w.u64(v.fingerprint);
    w.u64(v.entry);
    w.u32(v.code.len() as u32);
    w.0.extend_from_slice(&v.code);
    w.ranges(v.snapshot.ranges());
    w.u64(v.snapshot.hash());
    let s = &v.stats;
    for field in [
        s.traced,
        s.emitted,
        s.elided,
        s.blocks,
        s.migrations,
        s.inlined_calls,
        s.kept_calls,
        s.pass_removed,
        s.pool_bytes,
        s.code_bytes,
        s.hooks_injected,
        s.trace_ns,
        s.pass_ns,
        s.emit_ns,
    ] {
        w.u64(field);
    }
    encode_req(&mut w, &v.req);
    w.0
}

fn decode_entry(payload: &[u8]) -> Result<PersistedVariant, PersistError> {
    let mut r = Reader::new(payload);
    let func = r.u64()?;
    let fingerprint = r.u64()?;
    let entry = r.u64()?;
    let code_len = r.u32()? as usize;
    let code = r.take(code_len)?.to_vec();
    let ranges = r.ranges()?;
    let hash = r.u64()?;
    let snapshot = KnownSnapshot::from_parts(ranges, hash);
    let mut f = || r.u64();
    let stats = RewriteStats {
        traced: f()?,
        emitted: f()?,
        elided: f()?,
        blocks: f()?,
        migrations: f()?,
        inlined_calls: f()?,
        kept_calls: f()?,
        pass_removed: f()?,
        pool_bytes: f()?,
        code_bytes: f()?,
        hooks_injected: f()?,
        trace_ns: f()?,
        pass_ns: f()?,
        emit_ns: f()?,
    };
    let req = decode_req(&mut r)?;
    if !r.done() {
        return Err(PersistError::BadEncoding {
            what: format!("{} trailing payload bytes", payload.len() - r.pos),
        });
    }
    Ok(PersistedVariant {
        func,
        fingerprint,
        entry,
        code,
        snapshot,
        stats,
        req,
    })
}

/// Serialize variants into a version-[`FORMAT_VERSION`] file image.
/// Entries are written in the order given; callers that care about
/// placement (the manager does) sort by ascending `entry` first.
pub fn encode_variants(vars: &[PersistedVariant]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(vars.len() as u32).to_le_bytes());
    for v in vars {
        let payload = encode_entry(v);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let sum = fnv1a(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&sum.to_le_bytes());
    }
    out
}

/// Decode a variant-file image. The outer `Result` is file-level: bad
/// magic, unsupported version or broken framing reject the whole file.
/// Each inner `Result` is entry-level: an entry whose checksum fails is
/// rejected alone ([`PersistError::Checksum`]) while its intact framing
/// lets decoding continue with the next entry.
#[allow(clippy::type_complexity)]
pub fn decode_variants(
    bytes: &[u8],
) -> Result<Vec<Result<PersistedVariant, PersistError>>, PersistError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::BadVersion { found: version });
    }
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for index in 0..count {
        let plen = r.u32()? as usize;
        let payload = r.take(plen)?;
        let sum = r.u64()?;
        if fnv1a(payload) != sum {
            out.push(Err(PersistError::Checksum { index }));
            continue;
        }
        out.push(decode_entry(payload));
    }
    if !r.done() {
        return Err(PersistError::Truncated);
    }
    Ok(out)
}

/// Byte ranges (within the file image) of each entry's *code* field, in
/// file order — the corruption harness uses this to flip bits inside
/// variant code without tearing the surrounding framing.
pub fn entry_code_spans(bytes: &[u8]) -> Result<Vec<Range<usize>>, PersistError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::BadVersion { found: version });
    }
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let plen = r.u32()? as usize;
        let payload_start = r.pos;
        // func, fingerprint, entry, then the code length field.
        let mut p = Reader::new(r.take(plen)?);
        p.take(24)?;
        let code_len = p.u32()? as usize;
        let code_start = payload_start + p.pos;
        p.take(code_len)?;
        out.push(code_start..code_start + code_len);
        r.u64()?; // checksum
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(func: u64, entry: u64) -> PersistedVariant {
        let req = SpecRequest::new()
            .unknown_int()
            .known_int(7)
            .ptr_to_known(0x60_0000, 16)
            .ret(RetKind::Int)
            .known_mem(0x61_0000..0x61_0040)
            .func(0x40_1000, |o| o.inline = false)
            .max_trace_insts(12_345)
            .entry_hook(0x42_0000)
            .passes(OptLevel::None);
        PersistedVariant {
            func,
            fingerprint: req.fingerprint(),
            entry,
            code: (0..37u8).collect(),
            snapshot: KnownSnapshot::from_parts(
                std::iter::once(0x61_0000..0x61_0010).collect(),
                0xDEAD_BEEF,
            ),
            stats: RewriteStats {
                traced: 1,
                emitted: 2,
                elided: 3,
                blocks: 4,
                migrations: 5,
                inlined_calls: 6,
                kept_calls: 7,
                pass_removed: 8,
                pool_bytes: 9,
                code_bytes: 37,
                hooks_injected: 10,
                trace_ns: 11,
                pass_ns: 12,
                emit_ns: 13,
            },
            req,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let vars = vec![sample(0x40_0000, 0x90_0000), sample(0x40_0100, 0x90_0100)];
        let bytes = encode_variants(&vars);
        let back: Vec<_> = decode_variants(&bytes)
            .unwrap()
            .into_iter()
            .map(|e| e.unwrap())
            .collect();
        assert_eq!(back.len(), 2);
        for (a, b) in vars.iter().zip(&back) {
            assert_eq!(a.func, b.func);
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.entry, b.entry);
            assert_eq!(a.code, b.code);
            assert_eq!(a.snapshot, b.snapshot);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.req.fingerprint(), b.req.fingerprint());
            assert_eq!(a.req.guard_conditions(), b.req.guard_conditions());
        }
    }

    #[test]
    fn bad_magic_and_version_are_file_level() {
        let bytes = encode_variants(&[sample(1, 0x90_0000)]);
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode_variants(&bad), Err(PersistError::BadMagic));

        // Version 1 carried a pass mask where the level byte is now, and
        // versions 2 and 3 numbered the levels with rungs since deleted:
        // each is refused whole, like any other foreign version.
        for found in [1, 2, 3, 99] {
            let mut bad = bytes.clone();
            bad[8] = found;
            assert_eq!(
                decode_variants(&bad),
                Err(PersistError::BadVersion {
                    found: found.into()
                })
            );
        }

        assert_eq!(
            decode_variants(&bytes[..bytes.len() - 3]),
            Err(PersistError::Truncated)
        );
    }

    #[test]
    fn code_flip_rejects_only_that_entry() {
        let vars = vec![sample(1, 0x90_0000), sample(2, 0x90_0100)];
        let mut bytes = encode_variants(&vars);
        let spans = entry_code_spans(&bytes).unwrap();
        assert_eq!(spans.len(), 2);
        bytes[spans[0].start + 5] ^= 0x40;
        let decoded = decode_variants(&bytes).unwrap();
        assert_eq!(decoded[0], Err(PersistError::Checksum { index: 0 }));
        assert_eq!(decoded[1].as_ref().unwrap().func, 2);
    }
}
