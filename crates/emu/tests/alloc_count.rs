//! Allocation behaviour of the call harness, counted from outside, in a test
//! binary of its own, so the library keeps `forbid(unsafe_code)`.
//!
//! A harness call is the unit every experiment, differential test and
//! benchmark round repeats: once the decode cache holds the function, a call
//! touches the heap not at all — no canary vector, no cache growth, no page
//! of guest memory (the stack page exists from the first call on).

use brew_emu::{CallArgs, Machine};
use brew_image::{layout, Image};
use brew_x86::encode::{encode, encoded_len};
use brew_x86::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations (and reallocations) this thread made; the test harness
    /// runs other tests on other threads.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` with a const initializer and no destructor, so
// touching it never allocates and never runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

#[test]
fn a_warm_call_does_not_allocate() {
    // long sum(long *p, long n) with a push/pop pair and a store per
    // element, after an empty function: loads, stores, stack traffic and
    // branches all go through the image.
    let base = layout::CODE_BASE;
    let mut bytes = Vec::new();
    let mut emit = |insts: &[Inst]| {
        let at = base + bytes.len() as u64;
        for i in insts {
            encode(i, base + bytes.len() as u64, &mut bytes).unwrap();
        }
        at
    };
    emit(&[Inst::Ret]);
    let head = [
        Inst::Push {
            src: Gpr::Rbx.into(),
        },
        Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: Operand::Imm(0),
        },
    ];
    let sum = emit(&head);
    let top = sum
        + head
            .iter()
            .map(|i| encoded_len(i).unwrap() as u64)
            .sum::<u64>();
    let body = emit(&[
        Inst::Mov {
            w: Width::W64,
            dst: Gpr::Rbx.into(),
            src: MemRef::base(Gpr::Rdi).into(),
        },
        Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rax.into(),
            src: Gpr::Rbx.into(),
        },
        Inst::Mov {
            w: Width::W32,
            dst: MemRef::base(Gpr::Rdi).into(),
            src: Gpr::Rax.into(),
        },
        Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            dst: Gpr::Rdi.into(),
            src: Operand::Imm(8),
        },
        Inst::Unary {
            op: UnOp::Dec,
            w: Width::W64,
            dst: Gpr::Rsi.into(),
        },
        Inst::Jcc {
            cond: Cond::Ne,
            target: top,
        },
        Inst::Pop {
            dst: Gpr::Rbx.into(),
        },
        Inst::Ret,
    ]);
    assert_eq!(body, top, "the loop head is where the back edge jumps");
    let img = Image::new();
    assert_eq!(img.alloc_code(&bytes), base);
    let p = img.alloc_heap(64 * 8, 8);
    for k in 0..64 {
        img.write_u64(p + 8 * k, k << 32).unwrap();
    }

    let mut m = Machine::new();
    let (nothing, work) = (CallArgs::new(), CallArgs::new().ptr(p).int(64));
    m.call(&img, base, &nothing).unwrap();
    m.call(&img, sum, &work).unwrap();

    let (out, n) = allocations(|| m.call(&img, base, &nothing).unwrap());
    assert_eq!((out.stats.insts, n), (1, 0), "empty function");
    let (out, n) = allocations(|| m.call(&img, sum, &work).unwrap());
    assert_eq!(out.stats.insts, 2 + 64 * 6 + 2);
    assert_eq!(n, 0, "{} instructions, {n} allocations", out.stats.insts);
}
