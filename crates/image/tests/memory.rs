//! Property tests of the sparse paged memory and segment policy.

use brew_image::{layout, Image};
use proptest::prelude::*;

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
