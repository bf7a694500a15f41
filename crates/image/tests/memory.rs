//! Property tests of the sparse paged memory and segment policy.

use brew_image::{layout, Image, MemFault};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_read_roundtrip_anywhere_in_heap(
        writes in proptest::collection::vec((0u64..layout::HEAP_SIZE - 8, any::<u64>()), 1..32)
    ) {
        let mut img = Image::new();
        // Apply in order; later writes to overlapping addresses win.
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for (off, v) in &writes {
            let addr = layout::HEAP_BASE + off;
            img.write_u64(addr, *v).unwrap();
            expected.retain(|(a, _)| a.abs_diff(addr) >= 8);
            expected.push((addr, *v));
        }
        for (addr, v) in expected {
            prop_assert_eq!(img.read_u64(addr).unwrap(), v);
        }
    }

    #[test]
    fn byte_level_roundtrip_across_page_boundaries(
        off in 0u64..(3 * 4096),
        data in proptest::collection::vec(any::<u8>(), 1..64)
    ) {
        let mut img = Image::new();
        let addr = layout::HEAP_BASE + 4096 - 32 + off; // straddles pages often
        img.write_bytes(addr, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        img.read_bytes(addr, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn out_of_segment_never_panics(addr in any::<u64>(), size in 1u64..9) {
        let img = Image::new();
        let _ = img.read_uint(addr, size.min(8));
    }

    #[test]
    fn allocations_are_disjoint(sizes in proptest::collection::vec(1u64..200, 1..20)) {
        let mut img = Image::new();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for s in sizes {
            let a = img.alloc_data(s, 8);
            for (b, t) in &spans {
                prop_assert!(a + s <= *b || *b + *t <= a, "overlap");
            }
            spans.push((a, s));
        }
    }

    #[test]
    fn code_version_changes_on_code_writes_only(n in 1usize..8) {
        let mut img = Image::new();
        let c = img.alloc_code(&[0x90; 16]);
        let d = img.alloc_data(64, 8);
        let v0 = img.code_version();
        for i in 0..n {
            img.write_u64(d, i as u64).unwrap();
        }
        prop_assert_eq!(img.code_version(), v0, "data writes don't bump");
        img.write_bytes(c, &[0xC3]).unwrap();
        prop_assert!(img.code_version() > v0, "code writes bump");
    }

    #[test]
    fn image_uids_are_unique(_x in 0..4u8) {
        let a = Image::new();
        let b = Image::new();
        prop_assert_ne!(a.uid(), b.uid());
    }

    /// The store against a byte-per-address oracle: every access shape
    /// (1/2/4/8 through `*_uint`, 16 and bulk through `*_bytes`) at offsets
    /// that straddle word, page, 2 MiB leaf and segment boundaries. Bytes
    /// never written read zero, later writes win byte by byte, and an access
    /// faults — with the same address, size and direction — exactly when it
    /// does not lie inside one segment.
    #[test]
    fn accesses_agree_with_a_byte_oracle(
        ops in proptest::collection::vec(
            (0usize..ANCHORS.len(), 0u64..64, 0usize..7, any::<bool>(), any::<u64>()),
            1..48,
        )
    ) {
        let img = Image::new();
        let mut oracle: BTreeMap<u64, u8> = BTreeMap::new();
        for (anchor, delta, shape, write, seed) in ops {
            let addr = ANCHORS[anchor] - 32 + delta;
            let len = match shape {
                0..=3 => 1usize << shape,
                4 => 16,
                5 => 17 + (seed % 200) as usize,
                _ => 4090 + (seed % 4200) as usize, // two or three pages
            };
            let fault = (!in_one_segment(addr, len as u64)).then_some(MemFault {
                addr,
                size: len as u64,
                write,
            });
            let data: Vec<u8> = (0..len).map(|i| (seed >> (i % 8 * 8)) as u8 ^ i as u8).collect();
            if write {
                let got = if shape <= 3 {
                    let mut v = [0u8; 8];
                    v[..len].copy_from_slice(&data);
                    // Bits of the value above `len` bytes must not land.
                    let junk = if len < 8 { !0u64 << (len * 8) } else { 0 };
                    img.write_uint(addr, len as u64, u64::from_le_bytes(v) | junk)
                } else {
                    img.write_bytes(addr, &data)
                };
                prop_assert_eq!(got.err(), fault);
                if fault.is_none() {
                    oracle.extend((addr..).zip(data));
                }
            } else {
                let want: Vec<u8> = (addr..addr + len as u64)
                    .map(|a| oracle.get(&a).copied().unwrap_or(0))
                    .collect();
                let mut back = vec![0xAAu8; len];
                let got = if shape <= 3 {
                    img.read_uint(addr, len as u64)
                        .map(|v| back.copy_from_slice(&v.to_le_bytes()[..len]))
                } else {
                    img.read_bytes(addr, &mut back)
                };
                prop_assert_eq!(got.err(), fault);
                if fault.is_none() {
                    prop_assert_eq!(back, want, "{} bytes at {:#x}", len, addr);
                }
            }
        }
        // Everything ever written, read back one byte at a time.
        for (&a, &b) in &oracle {
            prop_assert_eq!(img.read_uint(a, 1).unwrap(), b as u64, "byte at {:#x}", a);
        }
    }
}

/// Where the oracle test aims: 32 bytes either side of each of these.
const ANCHORS: [u64; 12] = [
    layout::HEAP_BASE + 32,                // segment start, word boundaries
    layout::HEAP_BASE + 4096,              // page boundary
    layout::HEAP_BASE + 3 * 4096,          // ... and one bulk writes reach
    layout::HEAP_BASE + (2 << 20),         // leaf boundary
    layout::HEAP_BASE + layout::HEAP_SIZE, // segment end, nothing mapped above
    layout::DATA_BASE,                     // nothing mapped below
    layout::DATA_BASE + layout::DATA_SIZE,
    layout::JIT_BASE + (2 << 20), // leaf boundary of an unaligned base
    layout::JIT_BASE + layout::JIT_SIZE,
    layout::CODE_BASE + 4096,
    layout::STACK_TOP, // top of the last segment
    layout::STACK_TOP - layout::STACK_SIZE + 4096,
];

/// The segment policy, restated: an access must lie inside one segment.
fn in_one_segment(addr: u64, len: u64) -> bool {
    use layout::*;
    [
        (CODE_BASE, CODE_SIZE),
        (DATA_BASE, DATA_SIZE),
        (JIT_BASE, JIT_SIZE),
        (HEAP_BASE, HEAP_SIZE),
        (STACK_TOP - STACK_SIZE, STACK_SIZE),
    ]
    .iter()
    .any(|&(base, size)| addr >= base && addr + len <= base + size)
}

/// A code patch is visible before its version bump is: whoever reads
/// `code_version()` and then the bytes can never pair a new version with
/// old bytes (an execution engine would cache the stale decode under the
/// new version forever). The patch spans many pages so that "bumped but not
/// yet written" would be a window wide enough to hit.
#[test]
fn code_version_is_bumped_after_the_bytes_land() {
    const WRITES: u64 = 1500;
    const WORDS: usize = 32 * 4096 / 8;
    let img = Image::new();
    let addr = img.alloc_jit(&vec![0u8; WORDS * 8]);
    let last = addr + (WORDS as u64 - 1) * 8;
    let v0 = img.code_version();
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 1..=WRITES {
                img.write_bytes(addr, &k.to_le_bytes().repeat(WORDS))
                    .unwrap();
            }
        });
        loop {
            let completed = img.code_version() - v0;
            let seen = img.read_u64(last).unwrap();
            assert!(
                seen >= completed,
                "version says {completed} patches landed, the bytes still hold patch {seen}"
            );
            if completed == WRITES {
                break;
            }
        }
    });
}

/// The same ordering for a store narrower than a word, which lands by an
/// atomic merge and not a plain store.
#[test]
fn a_sub_word_patch_is_visible_before_its_version_bump() {
    const WRITES: u64 = 20_000;
    let img = Image::new();
    let addr = img.alloc_jit(&[0u8; 16]) + 4;
    let v0 = img.code_version();
    std::thread::scope(|s| {
        s.spawn(|| {
            for k in 1..=WRITES {
                img.write_uint(addr, 4, k).unwrap();
            }
        });
        loop {
            let completed = img.code_version() - v0;
            let seen = img.read_uint(addr, 4).unwrap();
            assert!(seen >= completed, "version {completed}, bytes {seen}");
            if completed == WRITES {
                break;
            }
        }
    });
}

/// Word-granular atomicity: an aligned 8-byte cell is read whole or not at
/// all, however the reader and the writer interleave.
#[test]
fn an_aligned_u64_is_never_seen_half_written() {
    const WRITES: u64 = 200_000;
    let img = Image::new();
    let cell = img.alloc_heap(8, 8);
    let (start, done) = (Barrier::new(2), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for k in 0..WRITES {
                // Eight equal bytes: a torn read shows two different ones.
                img.write_u64(cell, (k % 251) * 0x0101_0101_0101_0101)
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        });
        start.wait();
        while !done.load(Ordering::Acquire) {
            let v = img.read_u64(cell).unwrap();
            assert_eq!(v, (v & 0xFF) * 0x0101_0101_0101_0101, "torn read {v:#018x}");
        }
    });
}

/// Two threads storing to neighbouring bytes (and halves) of one word each
/// find their own last store intact: a narrow store merges into the word
/// atomically instead of writing back the neighbour's stale bytes.
#[test]
fn writers_to_adjacent_bytes_of_one_word_lose_no_update() {
    const WRITES: u64 = 100_000;
    let img = Image::new();
    let word = img.alloc_heap(8, 8);
    let start = Barrier::new(3);
    let writer = |addr: u64, size: u64| {
        let (img, start) = (&img, &start);
        move || {
            start.wait();
            let mask = (1u64 << (size * 8)) - 1;
            for k in 1..=WRITES {
                img.write_uint(addr, size, k & mask).unwrap();
                assert_eq!(img.read_uint(addr, size).unwrap(), k & mask, "at {addr:#x}");
            }
        }
    };
    std::thread::scope(|s| {
        s.spawn(writer(word, 1));
        s.spawn(writer(word + 1, 1));
        s.spawn(writer(word + 4, 4));
    });
    let expect = (WRITES & 0xFF) | (WRITES & 0xFF) << 8 | WRITES << 32;
    assert_eq!(img.read_u64(word).unwrap(), expect);
}

#[test]
fn mapped_prefix_clips_to_the_segment_of_the_start() {
    let img = Image::new();
    let data_end = layout::DATA_BASE + layout::DATA_SIZE;
    assert_eq!(img.mapped_prefix(layout::DATA_BASE, 136), 136);
    assert_eq!(img.mapped_prefix(data_end - 10, 136), 10);
    assert_eq!(img.mapped_prefix(data_end - 10, 1 << 40), 10);
    assert_eq!(
        img.mapped_prefix(layout::DATA_BASE, u64::MAX),
        layout::DATA_SIZE
    );
    assert_eq!(img.mapped_prefix(layout::DATA_BASE, 0), 0);
    // Between segments, and past the last one.
    assert_eq!(img.mapped_prefix(layout::CODE_BASE - 1, 8), 0);
    assert_eq!(img.mapped_prefix(layout::STACK_TOP, 8), 0);
}
