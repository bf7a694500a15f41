//! Property-based round-trip of the variant persistence codec
//! (`brew_core::persist`): arbitrary persisted variants — arbitrary
//! request shapes, per-function options, hooks, snapshots
//! over real image bytes, code payloads, each at every `OptLevel` — must
//! encode and decode back
//! **byte-identical**: same requests (hence same fingerprints), same
//! snapshots (ranges and hash), same code, same stats. A second family
//! of properties checks the framing: every single-byte corruption of an
//! entry's payload is caught by that entry's checksum without damaging
//! its neighbors, and `entry_code_spans` locates exactly the code bytes.

use brew_core::persist::{self, PersistedVariant};
use brew_core::snapshot::ReadSet;
use brew_core::{OptLevel, RetKind, RewriteStats, SpecRequest};
use brew_image::Image;
use proptest::prelude::*;

/// One generated parameter of a request.
#[derive(Debug, Clone)]
enum P {
    UnknownInt,
    KnownInt(i64),
    UnknownF64,
    /// Finite value (from an i32) so decoded equality is exact.
    KnownF64(i32),
    /// Offset and length inside the image's known block.
    PtrToKnown(u16, u8),
}

fn arb_param() -> impl Strategy<Value = P> {
    prop_oneof![
        Just(P::UnknownInt),
        any::<i64>().prop_map(P::KnownInt),
        Just(P::UnknownF64),
        any::<i32>().prop_map(P::KnownF64),
        (0u16..512, 1u8..64).prop_map(|(o, l)| P::PtrToKnown(o, l)),
    ]
}

/// Everything the request builder can express, in generatable form.
#[derive(Debug, Clone)]
struct ReqGen {
    params: Vec<P>,
    ret: u8,
    known_mem: Vec<(u16, u8)>,
    func_opts: Vec<(u32, bool, bool, bool, u8)>,
    default_inline: bool,
    max_trace_insts: u32,
    max_blocks: u16,
    max_code_bytes: u32,
    hooks: (bool, bool, bool),
}

fn arb_req() -> impl Strategy<Value = ReqGen> {
    (
        proptest::collection::vec(arb_param(), 0..5),
        0u8..3,
        proptest::collection::vec((0u16..900, 1u8..50), 0..3),
        proptest::collection::vec(
            (
                any::<u32>(),
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                1u8..200,
            ),
            0..3,
        ),
        any::<bool>(),
        (1u32..u32::MAX, 1u16..u16::MAX, 1u32..u32::MAX),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(params, ret, known_mem, func_opts, default_inline, caps, hooks)| ReqGen {
                params,
                ret,
                known_mem,
                func_opts,
                default_inline,
                max_trace_insts: caps.0,
                max_blocks: caps.1,
                max_code_bytes: caps.2,
                hooks,
            },
        )
}

/// Materialize a generated request against a concrete image, with every
/// pointer parameter and known range inside `block`.
fn build_req(g: &ReqGen, level: OptLevel, block: u64) -> SpecRequest {
    let mut req = SpecRequest::new();
    for p in &g.params {
        req = match *p {
            P::UnknownInt => req.unknown_int(),
            P::KnownInt(v) => req.known_int(v),
            P::UnknownF64 => req.unknown_f64(),
            P::KnownF64(v) => req.known_f64(v as f64),
            P::PtrToKnown(off, len) => req.ptr_to_known(block + off as u64, len as u64),
        };
    }
    req = req.ret(match g.ret {
        0 => RetKind::Int,
        1 => RetKind::F64,
        _ => RetKind::Void,
    });
    for &(off, len) in &g.known_mem {
        req = req.known_mem(block + off as u64..block + off as u64 + len as u64);
    }
    for &(addr, inline, fresh, branch, maxv) in &g.func_opts {
        req = req.func(addr as u64, |o| {
            o.inline = inline;
            o.fresh_unknown = fresh;
            o.branch_unknown = branch;
            o.max_variants = maxv as u32;
        });
    }
    let di = g.default_inline;
    req = req.default_opts(|o| o.inline = di);
    req = req
        .max_trace_insts(g.max_trace_insts as u64)
        .max_blocks(g.max_blocks as usize)
        .max_code_bytes(g.max_code_bytes as usize);
    if g.hooks.0 {
        req = req.entry_hook(0x40_1000);
    }
    if g.hooks.1 {
        req = req.exit_hook(0x40_2000);
    }
    if g.hooks.2 {
        req = req.mem_access_hook(0x40_3000);
    }
    req.passes(level)
}

fn stats_from(seed: u64) -> RewriteStats {
    // Fourteen distinct deterministic values: any dropped or transposed
    // field in the codec shows up as a mismatch.
    let f = |i: u64| {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(i as u32)
            ^ i
    };
    RewriteStats {
        traced: f(1),
        emitted: f(2),
        elided: f(3),
        blocks: f(4),
        migrations: f(5),
        inlined_calls: f(6),
        kept_calls: f(7),
        pass_removed: f(8),
        pool_bytes: f(9),
        code_bytes: f(10),
        hooks_injected: f(11),
        trace_ns: f(12),
        pass_ns: f(13),
        emit_ns: f(14),
    }
}

/// A generated variant: request shape + snapshot ranges + code payload.
#[derive(Debug, Clone)]
struct VarGen {
    req: ReqGen,
    snap_ranges: Vec<(u16, u8)>,
    code: Vec<u8>,
    func: u32,
    entry: u32,
    stats_seed: u64,
}

fn arb_variant() -> impl Strategy<Value = VarGen> {
    (
        arb_req(),
        proptest::collection::vec((0u16..960, 1u8..48), 0..4),
        proptest::collection::vec(any::<u8>(), 0..80),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(req, snap_ranges, code, func, entry, stats_seed)| VarGen {
            req,
            snap_ranges,
            code,
            func,
            entry,
            stats_seed,
        })
}

/// Shared fixture: an image with a 1 KiB known block whose bytes are a
/// deterministic pattern, so snapshot hashes are real hashes over real
/// memory.
fn fixture() -> (Image, u64) {
    let img = Image::new();
    let block = img.alloc_heap(1024, 8);
    for i in 0..128u64 {
        img.write_u64(block + i * 8, i.wrapping_mul(0x0101_0101_0101_0101))
            .unwrap();
    }
    (img, block)
}

fn materialize(g: &VarGen, level: OptLevel, img: &Image, block: u64) -> PersistedVariant {
    let req = build_req(&g.req, level, block);
    let mut rs = ReadSet::default();
    for &(off, len) in &g.snap_ranges {
        rs.record(block + off as u64, len as u64);
    }
    PersistedVariant {
        func: g.func as u64,
        fingerprint: req.fingerprint(),
        entry: g.entry as u64,
        code: g.code.clone(),
        snapshot: rs.snapshot(img),
        stats: stats_from(g.stats_seed),
        req,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity on every field of every variant at
    /// every optimization level, in order — requests (hence fingerprints), snapshots (ranges and
    /// hash), code bytes, stats.
    #[test]
    fn codec_roundtrip_is_byte_identical(
        gens in proptest::collection::vec(arb_variant(), 0..6),
    ) {
        let (img, block) = fixture();
        let vars: Vec<PersistedVariant> = gens
            .iter()
            .flat_map(|g| OptLevel::ALL.map(|level| materialize(g, level, &img, block)))
            .collect();
        let bytes = persist::encode_variants(&vars);
        let decoded = persist::decode_variants(&bytes).unwrap();
        prop_assert_eq!(decoded.len(), vars.len());
        for (i, (dec, orig)) in decoded.into_iter().zip(&vars).enumerate() {
            let dec = dec.unwrap();
            prop_assert_eq!(&dec, orig, "entry {} round-trip", i);
            prop_assert_eq!(dec.req.fingerprint(), orig.fingerprint);
            prop_assert_eq!(dec.snapshot.hash(), orig.snapshot.hash());
            prop_assert_eq!(dec.snapshot.ranges(), orig.snapshot.ranges());
        }
        // Encoding the decoded set again is bit-identical: the format has
        // one canonical serialization.
        let redecoded: Vec<PersistedVariant> = persist::decode_variants(&bytes)
            .unwrap()
            .into_iter()
            .map(Result::unwrap)
            .collect();
        prop_assert_eq!(persist::encode_variants(&redecoded), bytes);
    }

    /// `entry_code_spans` locates exactly each entry's code bytes in the
    /// encoded image, in entry order.
    #[test]
    fn code_spans_locate_the_code_bytes(
        gens in proptest::collection::vec(arb_variant(), 1..5),
    ) {
        let (img, block) = fixture();
        let vars: Vec<PersistedVariant> =
            gens.iter().map(|g| materialize(g, OptLevel::default(), &img, block)).collect();
        let bytes = persist::encode_variants(&vars);
        let spans = persist::entry_code_spans(&bytes).unwrap();
        prop_assert_eq!(spans.len(), vars.len());
        for (span, v) in spans.iter().zip(&vars) {
            prop_assert_eq!(&bytes[span.clone()], v.code.as_slice());
        }
    }

    /// Any single-byte corruption inside an entry's frame is caught by
    /// that entry's checksum; every other entry still decodes intact.
    #[test]
    fn single_byte_corruption_is_entry_local(
        gens in proptest::collection::vec(arb_variant(), 1..4),
        which in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let (img, block) = fixture();
        let vars: Vec<PersistedVariant> =
            gens.iter().map(|g| materialize(g, OptLevel::default(), &img, block)).collect();
        let bytes = persist::encode_variants(&vars);
        // Pick a byte inside some entry's payload. Payload starts after
        // the 16-byte header + 4-byte length prefix of the first entry;
        // use the code spans to find a guaranteed-payload offset. Code
        // can be empty, so fall back to the first byte after a length
        // prefix (the request arity field) which always exists.
        let spans = persist::entry_code_spans(&bytes).unwrap();
        let idx = (which as usize) % vars.len();
        let span = &spans[idx];
        let target = if span.is_empty() { span.start - 5 } else { span.start };
        let mut corrupt = bytes.clone();
        corrupt[target] ^= flip;
        let decoded = persist::decode_variants(&corrupt);
        match decoded {
            Ok(entries) => {
                prop_assert_eq!(entries.len(), vars.len());
                for (i, e) in entries.into_iter().enumerate() {
                    if i == idx {
                        prop_assert!(
                            matches!(
                                e,
                                Err(persist::PersistError::Checksum { index }) if index == idx
                            ),
                            "corrupted entry must fail its checksum"
                        );
                    } else {
                        prop_assert_eq!(&e.unwrap(), &vars[i], "neighbor {} intact", i);
                    }
                }
            }
            // Corrupting a length prefix region may shear the framing of
            // everything after it — acceptable, as long as it is an error
            // and not a silent wrong decode.
            Err(persist::PersistError::Truncated) => {}
            Err(e) => prop_assert!(false, "unexpected file-level error: {:?}", e),
        }
    }
}
