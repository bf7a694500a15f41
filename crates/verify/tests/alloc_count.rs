//! Allocation behaviour of the publish gate, counted from outside, in a
//! test binary of its own, so the library keeps `forbid(unsafe_code)`.
//!
//! The equivalence prover allocates per proof, not per operand: terms and
//! their operands live inline in one arena, walk buffers are reused across
//! block visits, and only what a proof keeps (the arena, one entry state per
//! block, the event streams) reaches the heap. The structural tier allocates
//! per region, not per instruction and not per known byte, and never by a
//! length the request merely declared.

mod corpus;

use brew_core::{RetKind, Rewriter, SpecRequest};
use brew_image::Image;
use brew_verify::{verify, verify_region, VerifyOptions, VerifyReport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations (and reallocations) this thread made; the test harness
    /// runs other tests on other threads.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds, and their high-water mark.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(by: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(by: usize) {
    // Saturating: a block may be freed by a thread that did not allocate it.
    LIVE.with(|l| l.set(l.get().saturating_sub(by)));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// thread-local `Cell`s with const initializers and no destructors, so
// touching them never allocates and never runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `f`'s result and the most bytes it held at once beyond what the thread
/// held on entry.
fn high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// Heap allocations of the equivalence tier alone: a full `verify` minus
/// the structural tiers it runs first.
fn proof_allocations(img: &brew_image::Image, func: u64, req: &SpecRequest, what: &str) -> u64 {
    let res = Rewriter::new(img).rewrite(func, req).expect(what);
    assert!(res.equiv.is_some(), "{what}: no capture, nothing to prove");
    let opts = VerifyOptions::default();
    let (structural, s) = allocations(|| {
        verify_region(
            img,
            func,
            req,
            res.entry,
            res.code_len,
            &res.snapshot,
            &opts,
        )
    });
    let (full, v) = allocations(|| verify(img, func, req, &res, &opts));
    assert!(full.passed(), "{what}: {:?}", full.findings);
    assert_eq!(structural.insts, full.insts);
    v - s
}

#[test]
fn a_proof_allocates_per_proof_not_per_operand() {
    let st = brew_stencil::Stencil::new(16, 16);
    let apply = st.prog.func("apply").expect("apply");
    let n = proof_allocations(&st.img, apply, &st.apply_request(), "apply");
    // 144 captured + 31 emitted instructions over 6 blocks: 29 measured, the
    // bound is twice that. The first prover made 2 647 allocations here,
    // about 9 per walked instruction.
    assert!(n <= 58, "apply: {n} allocations in one proof");

    let sweep = st.prog.func("sweep_generic").expect("sweep_generic");
    let req = st.sweep_request(4);
    let n = proof_allocations(&st.img, sweep, &req, "sweep_generic.u4");
    // 1 489 + 734 instructions over 82 blocks, three of them walked twice:
    // 208 measured, 49 127 in the first prover. Two entry states per block
    // are most of what is left.
    assert!(n <= 416, "sweep_generic.u4: {n} allocations in one proof");
}

fn structural(
    img: &Image,
    func: u64,
    req: &SpecRequest,
    res: &brew_core::RewriteResult,
) -> VerifyReport {
    let opts = VerifyOptions::default();
    verify_region(
        img,
        func,
        req,
        res.entry,
        res.code_len,
        &res.snapshot,
        &opts,
    )
}

/// The structural tier makes five allocations on a clean region, whatever
/// its length (`madd.48` emits several times what `apply` does) and however
/// many bytes the request declares known (136 for `apply`): the region's
/// byte window, its instruction list, the re-encode buffer, and the stack
/// walk's depth and work lists.
#[test]
fn the_structural_tier_allocates_per_region() {
    let img = Image::new();
    let cold = corpus::cold(&img);
    for (label, pinned) in [("apply", 5u64), ("madd.48", 5)] {
        let c = cold.iter().find(|c| c.label == label).expect(label);
        let res = Rewriter::new(&img).rewrite(c.func, &c.req).expect(label);
        let (report, n) = allocations(|| structural(&img, c.func, &c.req, &res));
        assert!(report.passed() && report.findings.is_empty(), "{label}");
        assert_eq!(n, pinned, "{label}: {} instructions", report.insts);
    }
}

/// A `PTR_TO_KNOWN` length is whatever the request (or a checkpoint on the
/// warm-start path) declares: the gate must neither allocate by it nor let
/// it change a verdict.
#[test]
fn a_declared_length_is_never_allocated() {
    const DECLARED: u64 = 1 << 40;
    const BOUND: usize = 256 << 10;

    // `apply` over its 136-byte descriptor, declared a terabyte long.
    let st = brew_stencil::Stencil::new(16, 16);
    let apply = st.prog.func("apply").expect("apply");
    let honest = st.apply_request();
    let res = Rewriter::new(&st.img)
        .rewrite(apply, &honest)
        .expect("apply");
    let inflated = SpecRequest::new()
        .unknown_int()
        .known_int(16)
        .ptr_to_known(st.s5(), DECLARED)
        .ret(RetKind::F64);
    let want = structural(&st.img, apply, &honest, &res);
    let (got, peak) = high_water(|| structural(&st.img, apply, &inflated, &res));
    assert_eq!(got.findings, want.findings);
    assert!(got.passed());
    assert!(peak <= BOUND, "apply: {peak} bytes held at once");

    // The same with the window table actually demanded: `scale` specialized
    // for one `k` and judged under another, so its constants are open to the
    // last rule, beside a known range that starts 5 000 bytes before the end
    // of the heap. Clipped, it reads as the range declared to the segment's
    // end does. (`k` is negative so that neither constant is an address
    // inside the inflated range.)
    let img = Image::new();
    let prog = brew_minic::compile_into("int scale(int x, int k) { return x * k + k / 3; }", &img)
        .expect("compiles");
    let scale = prog.func("scale").expect("scale");
    let req = SpecRequest::new().unknown_int().known_int(-123_456_789);
    let res = Rewriter::new(&img).rewrite(scale, &req).expect("scale");
    let heap_end = brew_image::layout::HEAP_BASE + brew_image::layout::HEAP_SIZE;
    let table = heap_end - 5_000;
    img.write_u64(table + 4_093, 0x0102_0304_0506_0708)
        .expect("mapped");
    let judged = |len: u64| {
        SpecRequest::new()
            .ptr_to_known(table, len)
            .known_int(-77_000_000_001)
    };
    let want = structural(&img, scale, &judged(heap_end - table), &res);
    let (got, peak) = high_water(|| structural(&img, scale, &judged(DECLARED), &res));
    assert_eq!(got.findings, want.findings);
    assert_eq!(got.findings.len(), 2, "{:?}", got.findings);
    assert!(peak <= BOUND, "scale: {peak} bytes held at once");
}
