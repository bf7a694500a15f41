//! # brew-image — the simulated process image
//!
//! The paper's rewriter operates inside a live Linux process: it reads the
//! machine code of compiled functions, reads "known" data through pointers
//! the programmer vouched for, and writes freshly generated code into
//! executable memory. This crate reproduces that environment as a value: an
//! [`Image`] holds code/data/heap/stack segments backed by sparse pages,
//! plus a symbol table.
//!
//! The mini-C compiler (`brew-minic`) emits code and globals into an image,
//! the emulator (`brew-emu`) executes from it, and the rewriter
//! (`brew-core`) reads original code bytes from it and allocates rewritten
//! functions in its JIT segment.
//!
//! ## Concurrency
//!
//! A real process image is shared by every thread of the process, and the
//! paper's "delayed step" amortization argument only pays off when many
//! call sites can drive specialization concurrently. The image is therefore
//! internally synchronized (`Send + Sync`), every operation takes `&self`,
//! and no guest load, store or fetch takes a lock:
//!
//! - memory is a two-level table of pages of [`AtomicU64`] words. A page
//!   (and the 2 MiB leaf of page slots above it) is published once, on the
//!   first write that touches it, and is never unmapped, moved or reclaimed
//!   while the image lives — the image has no `free`, and a reader that
//!   found a page may keep reading it. Unwritten memory reads as zero
//!   without materializing anything,
//! - atomicity is word-granular: an access that lies inside one aligned
//!   8-byte word is one atomic load, store or read-modify-write, so an
//!   aligned `u64`/`f64` cell is never seen half-written and two writers to
//!   different bytes of one word lose no update. An access that spans words
//!   ([`Image::write_bytes`] of a function body, an unaligned `u64`) is a
//!   sequence of such word accesses and is *not* atomic against a reader of
//!   the same bytes, exactly like a `memcpy` into shared memory,
//! - segment bump allocators are atomic, so two rewrites can reserve JIT or
//!   literal-pool space without a global lock ([`Image::try_alloc_jit`]
//!   reserves-or-fails instead of panicking, for racing emitters),
//! - the symbol table sits behind its own `RwLock`.
//!
//! ## Publication ordering
//!
//! Word accesses are `Relaxed`: bytes alone order nothing. A writer
//! publishes what it wrote through something that synchronizes — inserting
//! the entry address into a locked or release/acquire structure (the
//! manager's variant table), joining the thread, or
//! [`Image::code_version`]: every write into the code or JIT segment bumps
//! the version with `Release` *after* its last byte landed, and
//! `code_version()` loads it with `Acquire`, so whoever observes the new
//! version then reads the new bytes (and an execution engine that drops its
//! decode cache on a version change cannot refill it from the old ones).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Page size of the sparse backing store.
const PAGE: u64 = 4096;

/// 8-byte words per page.
const PAGE_WORDS: usize = (PAGE / 8) as usize;

/// Page slots per leaf of the page table (a leaf spans 2 MiB).
const LEAF_PAGES: usize = 512;

/// Bytes of address space one leaf spans.
const LEAF_SPAN: u64 = PAGE * LEAF_PAGES as u64;

/// Default segment layout (all well below 2^31, so every address can be used
/// as an absolute disp32 by specialized code — the same property the paper's
/// Figure 6 relies on when it references data at `0x615100`).
pub mod layout {
    /// Base of the static code segment.
    pub const CODE_BASE: u64 = 0x40_0000;
    /// Size of the static code segment.
    pub const CODE_SIZE: u64 = 0x10_0000;
    /// Base of the data segment (globals).
    pub const DATA_BASE: u64 = 0x60_0000;
    /// Size of the data segment.
    pub const DATA_SIZE: u64 = 0x20_0000;
    /// Base of the JIT segment (rewritten functions + literal pools).
    pub const JIT_BASE: u64 = 0x90_0000;
    /// Size of the JIT segment.
    pub const JIT_SIZE: u64 = 0x40_0000;
    /// Base of the heap segment.
    pub const HEAP_BASE: u64 = 0x100_0000;
    /// Size of the heap segment.
    pub const HEAP_SIZE: u64 = 0x400_0000;
    /// Highest stack address + 1 (stack grows down from here).
    pub const STACK_TOP: u64 = 0x7FF0_0000;
    /// Size of the stack segment.
    pub const STACK_SIZE: u64 = 0x80_0000;
}

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: u64,
    /// Number of bytes of the attempted access.
    pub size: u64,
    /// `true` for writes.
    pub write: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault: {}-byte {} at {:#x}",
            self.size,
            if self.write { "write" } else { "read" },
            self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// Segment kind, for diagnostics and access policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegKind {
    /// Statically compiled code.
    Code,
    /// Global data.
    Data,
    /// Runtime-generated code (rewriter output).
    Jit,
    /// Heap allocations.
    Heap,
    /// The call stack.
    Stack,
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    kind: SegKind,
    base: u64,
    size: u64,
    /// Index of this segment's first leaf slot in [`PagedMem::leaves`].
    first_leaf: usize,
}

impl Segment {
    fn contains(&self, addr: u64, size: u64) -> bool {
        addr >= self.base && addr.saturating_add(size) <= self.base + self.size
    }

    fn end(&self) -> u64 {
        self.base + self.size
    }

    fn is_code(&self) -> bool {
        matches!(self.kind, SegKind::Code | SegKind::Jit)
    }
}

/// One page of guest memory: 512 words, each accessed atomically.
type Page = [AtomicU64; PAGE_WORDS];

/// One leaf of the page table: a once-published slot per page.
type Leaf = [OnceLock<Box<Page>>; LEAF_PAGES];

/// Mask selecting the low `bytes` bytes of a word (`bytes <= 8`).
#[inline]
fn low_mask(bytes: usize) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (bytes * 8)) - 1
    }
}

/// Copy `out.len()` bytes starting `off` bytes into `page`, word by word.
fn read_page(page: &Page, off: usize, out: &mut [u8]) {
    let (mut w, b) = (off / 8, off % 8);
    // Up to the first word boundary, whole words, what is left.
    let (head, rest) = out.split_at_mut(((8 - b) % 8).min(out.len()));
    if !head.is_empty() {
        let word = page[w].load(Ordering::Relaxed).to_le_bytes();
        head.copy_from_slice(&word[b..b + head.len()]);
        w += 1;
    }
    let mut whole = rest.chunks_exact_mut(8);
    for (chunk, word) in (&mut whole).zip(&page[w..]) {
        chunk.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        w += 1;
    }
    let tail = whole.into_remainder();
    if !tail.is_empty() {
        let word = page[w].load(Ordering::Relaxed).to_le_bytes();
        tail.copy_from_slice(&word[..tail.len()]);
    }
}

/// Replace the `n` bytes at byte `b` of `word` with the low bytes of `v`:
/// a plain store for a whole word, one atomic merge otherwise (so writers
/// of neighbouring bytes never lose each other's update).
#[inline]
fn write_word(word: &AtomicU64, b: usize, n: usize, v: u64) {
    if n == 8 {
        word.store(v, Ordering::Relaxed);
    } else {
        let mask = low_mask(n) << (b * 8);
        let bits = (v << (b * 8)) & mask;
        // Infallible: the closure never declines.
        let _ = word.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |w| {
            Some((w & !mask) | bits)
        });
    }
}

/// Copy `data` to `off` bytes into `page`, word by word.
fn write_page(page: &Page, off: usize, data: &[u8]) {
    let partial = |word: &AtomicU64, b: usize, bytes: &[u8]| {
        let mut v = [0u8; 8];
        v[..bytes.len()].copy_from_slice(bytes);
        write_word(word, b, bytes.len(), u64::from_le_bytes(v));
    };
    let (mut w, b) = (off / 8, off % 8);
    // Up to the first word boundary, whole words, what is left.
    let (head, rest) = data.split_at(((8 - b) % 8).min(data.len()));
    if !head.is_empty() {
        partial(&page[w], b, head);
        w += 1;
    }
    let whole = rest.chunks_exact(8);
    let tail = whole.remainder();
    for (chunk, word) in whole.zip(&page[w..]) {
        let v: [u8; 8] = chunk.try_into().expect("chunks_exact(8)");
        word.store(u64::from_le_bytes(v), Ordering::Relaxed);
        w += 1;
    }
    if !tail.is_empty() {
        partial(&page[w], 0, tail);
    }
}

/// Sparse paged memory: a two-level table, leaf slots above page slots,
/// each published once through a `OnceLock` and never taken back. Pages
/// materialize zero-filled on first write; reads of unmaterialized pages
/// inside a segment return zeros (so freshly allocated globals read as
/// zero) and allocate nothing. A reader does two dependent loads and takes
/// no lock. Every segment owns a run of leaf slots sized to it, so the table
/// of an empty image is a few hundred bytes.
struct PagedMem {
    leaves: Box<[OnceLock<Box<Leaf>>]>,
}

impl PagedMem {
    /// The page holding `addr` (which lies in `seg`), if it was ever written.
    #[inline]
    fn page(&self, seg: &Segment, addr: u64) -> Option<&Page> {
        let off = addr - seg.base;
        let leaf = self.leaves[seg.first_leaf + (off / LEAF_SPAN) as usize].get()?;
        leaf[(off / PAGE) as usize % LEAF_PAGES].get().map(|p| &**p)
    }

    /// The page holding `addr`, materialized (with its leaf) if need be.
    #[inline]
    fn page_for_write(&self, seg: &Segment, addr: u64) -> &Page {
        let off = addr - seg.base;
        let leaf = self.leaves[seg.first_leaf + (off / LEAF_SPAN) as usize]
            .get_or_init(|| Box::new([const { OnceLock::new() }; LEAF_PAGES]));
        leaf[(off / PAGE) as usize % LEAF_PAGES]
            .get_or_init(|| Box::new([const { AtomicU64::new(0) }; PAGE_WORDS]))
    }

    /// The aligned word holding `addr`; zero if its page was never written.
    #[inline]
    fn word(&self, seg: &Segment, addr: u64) -> u64 {
        self.page(seg, addr)
            .map_or(0, |p| p[(addr % PAGE) as usize / 8].load(Ordering::Relaxed))
    }

    /// Read `out.len()` bytes at `addr`; the range lies in `seg`.
    fn read(&self, seg: &Segment, mut addr: u64, mut out: &mut [u8]) {
        while !out.is_empty() {
            let off = (addr % PAGE) as usize;
            let (chunk, rest) = out.split_at_mut((PAGE as usize - off).min(out.len()));
            match self.page(seg, addr) {
                Some(p) => read_page(p, off, chunk),
                None => chunk.fill(0),
            }
            addr += chunk.len() as u64;
            out = rest;
        }
    }

    /// Write `data` at `addr`; the range lies in `seg`.
    fn write(&self, seg: &Segment, mut addr: u64, mut data: &[u8]) {
        while !data.is_empty() {
            let off = (addr % PAGE) as usize;
            let (chunk, rest) = data.split_at((PAGE as usize - off).min(data.len()));
            write_page(self.page_for_write(seg, addr), off, chunk);
            addr += chunk.len() as u64;
            data = rest;
        }
    }
}

/// Indices of the allocating segments in [`Image::segments`].
const SEG_CODE: usize = 0;
const SEG_DATA: usize = 1;
const SEG_JIT: usize = 2;

/// A simulated process image: segments, sparse memory and symbols.
///
/// Internally synchronized — see the crate docs. Every method takes
/// `&self`; wrap in an `Arc` (or borrow across `std::thread::scope`) to
/// share between threads.
pub struct Image {
    mem: PagedMem,
    segments: [Segment; 5],
    symbols: RwLock<HashMap<String, u64>>,
    code_next: AtomicU64,
    data_next: AtomicU64,
    jit_next: AtomicU64,
    heap_next: AtomicU64,
    code_version: AtomicU64,
    uid: u64,
}

impl Default for Image {
    fn default() -> Self {
        Self::new()
    }
}

impl Image {
    /// Create an empty image with the default segment [`layout`].
    pub fn new() -> Image {
        use layout::*;
        // Ascending and disjoint; `SEG_*` index the first three.
        let mut leaves = 0;
        let segments = [
            (SegKind::Code, CODE_BASE, CODE_SIZE),
            (SegKind::Data, DATA_BASE, DATA_SIZE),
            (SegKind::Jit, JIT_BASE, JIT_SIZE),
            (SegKind::Heap, HEAP_BASE, HEAP_SIZE),
            (SegKind::Stack, STACK_TOP - STACK_SIZE, STACK_SIZE),
        ]
        .map(|(kind, base, size)| {
            // A page never spans two segments, and a word never two pages.
            debug_assert!(base % PAGE == 0 && size % PAGE == 0);
            let first_leaf = leaves;
            leaves += size.div_ceil(LEAF_SPAN) as usize;
            Segment {
                kind,
                base,
                size,
                first_leaf,
            }
        });
        Image {
            mem: PagedMem {
                leaves: (0..leaves).map(|_| OnceLock::new()).collect(),
            },
            segments,
            symbols: RwLock::new(HashMap::new()),
            code_next: AtomicU64::new(CODE_BASE),
            data_next: AtomicU64::new(DATA_BASE),
            jit_next: AtomicU64::new(JIT_BASE),
            heap_next: AtomicU64::new(HEAP_BASE),
            code_version: AtomicU64::new(0),
            uid: {
                static NEXT_UID: AtomicU64 = AtomicU64::new(1);
                NEXT_UID.fetch_add(1, Ordering::Relaxed)
            },
        }
    }

    /// Monotone counter bumped whenever code or JIT bytes change; execution
    /// engines use it to invalidate decoded-instruction caches. Combine
    /// with [`Image::uid`] — versions are only comparable within one image.
    pub fn code_version(&self) -> u64 {
        self.code_version.load(Ordering::Acquire)
    }

    fn bump_code_version(&self) {
        self.code_version.fetch_add(1, Ordering::AcqRel);
    }

    /// Process-unique identity of this image (distinguishes the decode
    /// caches of two images that happen to share a version counter).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The segment that holds all `size` bytes at `addr` — the one segment
    /// resolution every access, window and query goes through.
    #[inline]
    fn segment(&self, addr: u64, size: u64) -> Option<&Segment> {
        self.segments.iter().find(|s| s.contains(addr, size))
    }

    /// [`Image::segment`], or the fault an access outside every segment is.
    #[inline]
    fn access(&self, addr: u64, size: u64, write: bool) -> Result<&Segment, MemFault> {
        self.segment(addr, size)
            .ok_or(MemFault { addr, size, write })
    }

    /// The segment kind containing `addr`, if any.
    pub fn segment_of(&self, addr: u64) -> Option<SegKind> {
        self.segment(addr, 1).map(|s| s.kind)
    }

    /// How many of the `len` bytes at `addr` lie inside the segment that
    /// maps `addr` — 0 when `addr` is unmapped. A reader handed a length it
    /// cannot trust (a declared known range, a checkpoint) clips to this
    /// before it reads or allocates.
    pub fn mapped_prefix(&self, addr: u64, len: u64) -> u64 {
        self.segment(addr, 1).map_or(0, |s| len.min(s.end() - addr))
    }

    /// Initial stack pointer for a new activation.
    pub fn stack_top(&self) -> u64 {
        layout::STACK_TOP - 0x100 // small scratch gap keeps rsp well inside
    }

    // ---- allocation -----------------------------------------------------

    /// Atomically reserve `size` bytes at `align` from the bump pointer, or
    /// `None` when the segment is exhausted. Returns the aligned address.
    fn bump(next: &AtomicU64, size: u64, align: u64, seg_end: u64) -> Option<u64> {
        debug_assert!(align.is_power_of_two());
        next.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
            let addr = (cur + align - 1) & !(align - 1);
            (addr.checked_add(size)? <= seg_end).then_some(addr + size)
        })
        .ok()
        .map(|prev| (prev + align - 1) & !(align - 1))
    }

    fn bump_or_panic(next: &AtomicU64, size: u64, align: u64, seg_end: u64) -> u64 {
        Self::bump(next, size, align, seg_end)
            .unwrap_or_else(|| panic!("segment exhausted: need {size} bytes, end {seg_end:#x}"))
    }

    /// Copy `bytes` into the static code segment; returns their address.
    pub fn alloc_code(&self, bytes: &[u8]) -> u64 {
        let addr = Self::bump_or_panic(
            &self.code_next,
            bytes.len() as u64,
            16,
            layout::CODE_BASE + layout::CODE_SIZE,
        );
        self.mem.write(&self.segments[SEG_CODE], addr, bytes);
        self.bump_code_version();
        addr
    }

    /// Reserve zeroed space in the data segment.
    pub fn alloc_data(&self, size: u64, align: u64) -> u64 {
        Self::bump_or_panic(
            &self.data_next,
            size,
            align,
            layout::DATA_BASE + layout::DATA_SIZE,
        )
    }

    /// Copy `bytes` into the data segment; returns their address.
    pub fn alloc_data_bytes(&self, bytes: &[u8], align: u64) -> u64 {
        let addr = self.alloc_data(bytes.len() as u64, align);
        self.mem.write(&self.segments[SEG_DATA], addr, bytes);
        addr
    }

    /// Copy rewritten code into the JIT segment; returns its entry address.
    pub fn alloc_jit(&self, bytes: &[u8]) -> u64 {
        let addr = self
            .try_alloc_jit(bytes.len() as u64)
            .expect("JIT segment exhausted");
        self.mem.write(&self.segments[SEG_JIT], addr, bytes);
        self.bump_code_version();
        addr
    }

    /// Atomically reserve `size` zeroed bytes of JIT space, or `None` when
    /// the segment can't fit them. This is the race-free claim for
    /// concurrent emitters: reserve first, then [`Image::write_bytes`] the
    /// encoded code into the owned range.
    pub fn try_alloc_jit(&self, size: u64) -> Option<u64> {
        Self::bump(
            &self.jit_next,
            size,
            16,
            layout::JIT_BASE + layout::JIT_SIZE,
        )
    }

    /// Remaining capacity of the JIT segment in bytes. Advisory under
    /// concurrency — racing reservations may shrink it; use
    /// [`Image::try_alloc_jit`] to claim space atomically.
    pub fn jit_remaining(&self) -> u64 {
        layout::JIT_BASE + layout::JIT_SIZE - self.jit_next.load(Ordering::Acquire)
    }

    /// Reserve zeroed heap space (simple bump allocator, no free).
    pub fn alloc_heap(&self, size: u64, align: u64) -> u64 {
        Self::bump_or_panic(
            &self.heap_next,
            size,
            align,
            layout::HEAP_BASE + layout::HEAP_SIZE,
        )
    }

    // ---- symbols ---------------------------------------------------------

    /// Define (or redefine) a symbol.
    pub fn define(&self, name: impl Into<String>, addr: u64) {
        self.symbols
            .write()
            .expect("symbol table")
            .insert(name.into(), addr);
    }

    /// Look up a symbol's address.
    pub fn lookup(&self, name: &str) -> Option<u64> {
        self.symbols
            .read()
            .expect("symbol table")
            .get(name)
            .copied()
    }

    /// Reverse lookup: the symbol defined exactly at `addr`, if any.
    pub fn symbol_at(&self, addr: u64) -> Option<String> {
        self.symbols
            .read()
            .expect("symbol table")
            .iter()
            .find(|&(_, &a)| a == addr)
            .map(|(n, _)| n.clone())
    }

    /// All symbols, for diagnostics.
    pub fn symbols(&self) -> Vec<(String, u64)> {
        self.symbols
            .read()
            .expect("symbol table")
            .iter()
            .map(|(n, a)| (n.clone(), *a))
            .collect()
    }

    // ---- typed access ----------------------------------------------------

    /// Read `out.len()` bytes at `addr`.
    pub fn read_bytes(&self, addr: u64, out: &mut [u8]) -> Result<(), MemFault> {
        let seg = self.access(addr, out.len() as u64, false)?;
        self.mem.read(seg, addr, out);
        Ok(())
    }

    /// Write `data` at `addr`.
    pub fn write_bytes(&self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        let seg = self.access(addr, data.len() as u64, true)?;
        self.mem.write(seg, addr, data);
        self.wrote(seg);
        Ok(())
    }

    /// Bump only once the bytes have landed (as `alloc_code`/`alloc_jit`
    /// do): an engine that sees the new version and drops its decode cache
    /// must not be able to refill it from the old bytes.
    #[inline]
    fn wrote(&self, seg: &Segment) {
        if seg.is_code() {
            self.bump_code_version();
        }
    }

    /// Read a little-endian unsigned value of `size` bytes (1, 2, 4 or 8).
    #[inline]
    pub fn read_uint(&self, addr: u64, size: u64) -> Result<u64, MemFault> {
        let seg = self.access(addr, size, false)?;
        let (b, n) = ((addr % 8) as usize, size as usize);
        if (1..=8 - b).contains(&n) {
            // Inside one word: one atomic load.
            return Ok((self.mem.word(seg, addr) >> (b * 8)) & low_mask(n));
        }
        let mut buf = [0u8; 8];
        self.mem.read(seg, addr, &mut buf[..n]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Write the low `size` bytes of `v` little-endian.
    #[inline]
    pub fn write_uint(&self, addr: u64, size: u64, v: u64) -> Result<(), MemFault> {
        let seg = self.access(addr, size, true)?;
        let (b, n) = ((addr % 8) as usize, size as usize);
        if (1..=8 - b).contains(&n) {
            // Inside one word: one atomic store or merge.
            let page = self.mem.page_for_write(seg, addr);
            write_word(&page[(addr % PAGE) as usize / 8], b, n, v);
        } else {
            self.mem.write(seg, addr, &v.to_le_bytes()[..n]);
        }
        self.wrote(seg);
        Ok(())
    }

    /// Read a u64.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        self.read_uint(addr, 8)
    }

    /// Write a u64.
    pub fn write_u64(&self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.write_uint(addr, 8, v)
    }

    /// Read an f64.
    pub fn read_f64(&self, addr: u64) -> Result<f64, MemFault> {
        Ok(f64::from_bits(self.read_u64(addr)?))
    }

    /// Write an f64.
    pub fn write_f64(&self, addr: u64, v: f64) -> Result<(), MemFault> {
        self.write_u64(addr, v.to_bits())
    }

    /// Read up to `max` code bytes starting at `addr` (clamped to the
    /// containing segment) — the rewriter's window for decoding.
    pub fn code_window(&self, addr: u64, max: usize) -> Result<Vec<u8>, MemFault> {
        let mut buf = vec![0u8; max];
        let n = self.code_window_into(addr, &mut buf)?;
        buf.truncate(n);
        Ok(buf)
    }

    /// [`Image::code_window`] into a caller-provided buffer; returns how
    /// many bytes of it were filled.
    pub fn code_window_into(&self, addr: u64, buf: &mut [u8]) -> Result<usize, MemFault> {
        let seg = self
            .segment(addr, 1)
            .filter(|s| s.is_code())
            .ok_or(MemFault {
                addr,
                size: 1,
                write: false,
            })?;
        let n = (seg.end() - addr).min(buf.len() as u64) as usize;
        self.mem.read(seg, addr, &mut buf[..n]);
        Ok(n)
    }
}

impl fmt::Debug for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Image")
            .field(
                "code_used",
                &(self.code_next.load(Ordering::Relaxed) - layout::CODE_BASE),
            )
            .field(
                "data_used",
                &(self.data_next.load(Ordering::Relaxed) - layout::DATA_BASE),
            )
            .field(
                "jit_used",
                &(self.jit_next.load(Ordering::Relaxed) - layout::JIT_BASE),
            )
            .field(
                "heap_used",
                &(self.heap_next.load(Ordering::Relaxed) - layout::HEAP_BASE),
            )
            .field("symbols", &self.symbols.read().expect("symbol table").len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rw_roundtrip() {
        let img = Image::new();
        let a = img.alloc_data(64, 8);
        img.write_u64(a, 0xDEAD_BEEF).unwrap();
        assert_eq!(img.read_u64(a).unwrap(), 0xDEAD_BEEF);
        img.write_f64(a + 8, 3.25).unwrap();
        assert_eq!(img.read_f64(a + 8).unwrap(), 3.25);
    }

    #[test]
    fn fresh_data_reads_zero() {
        let img = Image::new();
        let a = img.alloc_data(16, 8);
        assert_eq!(img.read_u64(a).unwrap(), 0);
    }

    #[test]
    fn out_of_segment_faults() {
        let img = Image::new();
        let err = img.read_u64(0x10).unwrap_err();
        assert_eq!(err.addr, 0x10);
        assert!(!err.write);
        let img = Image::new();
        let err = img.write_u64(0x10, 1).unwrap_err();
        assert!(err.write);
    }

    #[test]
    fn access_straddling_segment_end_faults() {
        let img = Image::new();
        let last = layout::DATA_BASE + layout::DATA_SIZE - 4;
        assert!(img.read_uint(last, 4).is_ok());
        assert!(img.read_uint(last, 8).is_err());
    }

    #[test]
    fn alignment_respected() {
        let img = Image::new();
        let _ = img.alloc_data(3, 1);
        let a = img.alloc_data(8, 16);
        assert_eq!(a % 16, 0);
        let h = img.alloc_heap(100, 64);
        assert_eq!(h % 64, 0);
    }

    #[test]
    fn symbols() {
        let img = Image::new();
        let f = img.alloc_code(&[0xC3]);
        img.define("func", f);
        assert_eq!(img.lookup("func"), Some(f));
        assert_eq!(img.symbol_at(f).as_deref(), Some("func"));
        assert_eq!(img.lookup("nope"), None);
        assert_eq!(img.symbol_at(f + 1), None);
    }

    #[test]
    fn code_window_clamps() {
        let img = Image::new();
        let code = vec![0x90u8; 32];
        let a = img.alloc_code(&code);
        let w = img.code_window(a, 16).unwrap();
        assert_eq!(w, vec![0x90u8; 16]);
        // Window near the end of the segment is clamped, not an error.
        let near_end = layout::CODE_BASE + layout::CODE_SIZE - 8;
        let w = img.code_window(near_end, 64).unwrap();
        assert_eq!(w.len(), 8);
        // Data addresses are not valid code windows.
        assert!(img.code_window(layout::DATA_BASE, 4).is_err());
    }

    #[test]
    fn jit_segment_accounting() {
        let img = Image::new();
        let before = img.jit_remaining();
        let a = img.alloc_jit(&[0xC3; 100]);
        assert_eq!(img.segment_of(a), Some(SegKind::Jit));
        assert!(img.jit_remaining() < before);
    }

    #[test]
    fn try_alloc_jit_reserves_disjoint_and_fails_when_full() {
        let img = Image::new();
        let a = img.try_alloc_jit(100).unwrap();
        let b = img.try_alloc_jit(100).unwrap();
        assert!(b >= a + 100);
        // Reserved space reads as zero and is writable.
        assert_eq!(img.read_u64(a).unwrap(), 0);
        img.write_bytes(a, &[0xC3]).unwrap();
        // An over-large reservation fails cleanly rather than panicking.
        assert!(img.try_alloc_jit(layout::JIT_SIZE).is_none());
        // ... and leaves the bump pointer usable.
        assert!(img.try_alloc_jit(16).is_some());
    }

    #[test]
    fn stack_is_accessible() {
        let img = Image::new();
        let sp = img.stack_top();
        img.write_u64(sp - 8, 42).unwrap();
        assert_eq!(img.read_u64(sp - 8).unwrap(), 42);
        assert_eq!(img.segment_of(sp - 8), Some(SegKind::Stack));
    }

    #[test]
    fn page_boundary_straddle() {
        let img = Image::new();
        img.alloc_heap(2 * PAGE, 8);
        let a = layout::HEAP_BASE + PAGE - 4; // straddles two pages
        img.write_u64(a, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(img.read_u64(a).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let img = Image::new();
        let a = img.alloc_data_bytes(&[1u8; 8], 8);
        let b = img.alloc_data_bytes(&[2u8; 8], 8);
        assert!(b >= a + 8);
        assert_eq!(img.read_uint(a, 1).unwrap(), 1);
        assert_eq!(img.read_uint(b, 1).unwrap(), 2);
    }

    #[test]
    fn image_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Image>();
    }

    #[test]
    fn concurrent_allocations_are_disjoint() {
        let img = Image::new();
        let addrs: Vec<Vec<u64>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    s.spawn(|| {
                        (0..64)
                            .map(|i| {
                                let a = img.try_alloc_jit(32 + (i % 7)).unwrap();
                                img.write_bytes(a, &[0xC3; 8]).unwrap();
                                a
                            })
                            .collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut all: Vec<u64> = addrs.into_iter().flatten().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * 64, "every reservation is unique");
    }
}
