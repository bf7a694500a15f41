//! The equivalence prover allocates per proof, not per operand: terms and
//! their operands live inline in one arena, walk buffers are reused across
//! block visits, and only what a proof keeps (the arena, one entry state per
//! block, the event streams) reaches the heap. Counted from outside, in a
//! test binary of its own, so the library keeps `forbid(unsafe_code)`.

use brew_core::{Rewriter, SpecRequest};
use brew_verify::{verify, verify_region, VerifyOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations (and reallocations) this thread made; the test harness
    /// runs other tests on other threads.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` with a const initializer and no destructor, so bumping
// it never allocates and never runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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
    // 144 captured + 31 emitted instructions over 6 blocks; the prover this
    // replaced made 2 647 allocations here, about 9 per walked instruction.
    assert!(n <= 60, "apply: {n} allocations in one proof");

    let sweep = st.prog.func("sweep_generic").expect("sweep_generic");
    let req = st.sweep_request(4);
    let n = proof_allocations(&st.img, sweep, &req, "sweep_generic.u4");
    // 1 489 + 734 instructions over 82 blocks, loop heads joined again and
    // again: 49 127 before. Two entry states per block are most of what is
    // left.
    assert!(n <= 600, "sweep_generic.u4: {n} allocations in one proof");
}
