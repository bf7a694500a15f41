//! Slot-granular model of the tracked stack frame.
//!
//! The frame is a sorted list of disjoint extents keyed by offset from the
//! entry rsp. An extent of 4 or 8 bytes holds the *whole* stored value
//! ([`Terms::whole`]): its byte `k` is `byte(val, k)`, never interned unless
//! something reads across the extent. An extent of 1 byte holds the byte
//! term itself. Every unwritten byte reads as `FrameFresh(epoch, offset)`.
//!
//! The contract is byte-level: a load returns the term the packed bytes of
//! the range normalize to, whatever the extents under it look like, so an
//! exact-extent load is the stored term and anything else splits into byte
//! terms on the spot. `tests::ByteFrame` keeps the byte-granular map this
//! replaced as the oracle.

use crate::term::{Tag, TermId, Terms};

/// One extent of written frame bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Slot {
    pub off: i64,
    /// 1, 4 or 8.
    pub len: u8,
    pub val: TermId,
}

impl Slot {
    fn end(&self) -> i64 {
        self.off + self.len as i64
    }

    fn byte(&self, terms: &mut Terms, off: i64) -> TermId {
        match self.len {
            1 => self.val,
            _ => terms.byte(self.val, (off - self.off) as u8),
        }
    }
}

/// Frame contents live at or above `lo`, as `(offset, len, packed term)`
/// over the canonical 8/4/1-byte chunking of the written byte runs — a
/// function of the bytes alone, so two frames digest equal exactly when
/// they hold the same bytes.
pub(crate) type Digest = Vec<(i64, u8, TermId)>;

/// The unwritten frame byte at `off` under `epoch`.
pub(crate) fn fresh(terms: &mut Terms, epoch: TermId, off: i64) -> TermId {
    let offc = terms.constant(off as u64);
    terms.op(Tag::FrameFresh, &[epoch, offc])
}

#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Frame {
    /// Sorted by offset, pairwise disjoint.
    slots: Vec<Slot>,
}

impl Frame {
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// `*self = other.clone()` into the existing allocation.
    pub fn assign(&mut self, other: &Frame) {
        self.slots.clear();
        self.slots.extend_from_slice(&other.slots);
    }

    /// Index of the first slot that ends above `off`.
    fn first_above(&self, off: i64) -> usize {
        self.slots.partition_point(|s| s.end() <= off)
    }

    /// The slot that holds the byte at `off`, if it was written.
    fn slot_at(&self, off: i64) -> Option<Slot> {
        let s = *self.slots.get(self.first_above(off))?;
        (s.off <= off).then_some(s)
    }

    /// The slot that is exactly `off..off + len`, for `len` 4 or 8.
    fn whole_slot(&self, off: i64, len: u8) -> Option<Slot> {
        (self.slot_at(off)).filter(|s| len > 1 && s.off == off && s.len == len)
    }

    /// Is `off..off + len` one whole slot?
    pub fn has_slot(&self, off: i64, len: u8) -> bool {
        self.whole_slot(off, len).is_some()
    }

    /// The `len` bytes at `off`, packed.
    pub fn load(&self, terms: &mut Terms, epoch: TermId, off: i64, len: u8) -> TermId {
        if let Some(s) = self.whole_slot(off, len) {
            return s.val;
        }
        let mut bytes = [TermId::default(); 8];
        for (k, b) in bytes[..len as usize].iter_mut().enumerate() {
            let at = off + k as i64;
            *b = match self.slot_at(at) {
                Some(s) => s.byte(terms, at),
                None => fresh(terms, epoch, at),
            };
        }
        terms.pack(&bytes[..len as usize])
    }

    /// Forget the bytes in `lo..hi`. A slot the range cuts through keeps
    /// its bytes outside the range, one by one.
    pub fn kill(&mut self, terms: &mut Terms, lo: i64, hi: i64) {
        let a = self.first_above(lo);
        let b = self.slots.partition_point(|s| s.off < hi);
        if a >= b {
            return;
        }
        let mut keep = [self.slots[a]; 14];
        let mut n = 0;
        for i in [a, b - 1].into_iter().skip((a == b - 1) as usize) {
            let s = self.slots[i];
            for at in (s.off..s.end()).filter(|at| !(lo..hi).contains(at)) {
                keep[n] = Slot {
                    off: at,
                    len: 1,
                    val: s.byte(terms, at),
                };
                n += 1;
            }
        }
        self.slots.splice(a..b, keep.into_iter().take(n));
    }

    /// Write `len` bytes at `off`: byte `k` becomes `byte(src, k)`.
    pub fn put(&mut self, terms: &mut Terms, off: i64, len: u8, src: TermId) {
        let whole = if len > 1 { terms.whole(src, len) } else { None };
        let Some(val) = whole else {
            for k in 0..len {
                let b = terms.byte(src, k);
                self.set_byte(terms, off + k as i64, b);
            }
            return;
        };
        let i = self.first_above(off);
        match self.slots.get_mut(i) {
            Some(s) if s.off == off && s.len == len => s.val = val,
            _ => {
                self.kill(terms, off, off + len as i64);
                let i = self.first_above(off);
                self.slots.insert(i, Slot { off, len, val });
            }
        }
    }

    /// Write the byte term `val` at `off`.
    fn set_byte(&mut self, terms: &mut Terms, off: i64, val: TermId) {
        self.kill(terms, off, off + 1);
        let i = self.first_above(off);
        self.slots.insert(i, Slot { off, len: 1, val });
    }

    /// Is `s` a byte that still holds its untouched value under `epoch`?
    fn is_fresh(terms: &Terms, epoch: TermId, s: &Slot) -> bool {
        s.len == 1
            && matches!(terms.as_op(s.val), Some((Tag::FrameFresh, &[e, o]))
                if e == epoch && terms.as_const(o) == Some(s.off as u64))
    }

    /// Drop the bytes that hold their untouched value under `epoch` (a
    /// whole slot never does: its bytes are `Byte` terms or constants).
    pub fn drop_fresh(&mut self, terms: &Terms, epoch: TermId) {
        self.slots.retain(|s| !Self::is_fresh(terms, epoch, s));
    }

    /// The maximal runs of bytes written in `a` or `b`, cut below `lo` and
    /// chopped from each run's start into 8-, 4- and 1-byte chunks. Joining
    /// and digesting at chunk granularity (packed back into wholes) is what
    /// lets a value one side keeps spilled and the other keeps in a
    /// register share a phi class: the chunk's pack collapses to the same
    /// whole term the register holds.
    pub fn chunks(a: &[Slot], b: &[Slot], lo: i64, out: &mut Vec<(i64, u8)>) {
        out.clear();
        let mut chop = |mut off: i64, end: i64| {
            while off < end {
                let c: u8 = match end - off {
                    8.. => 8,
                    4.. => 4,
                    _ => 1,
                };
                out.push((off, c));
                off += c as i64;
            }
        };
        let (mut i, mut j) = (0, 0);
        let mut run: Option<(i64, i64)> = None;
        loop {
            let s = match (a.get(i), b.get(j)) {
                (Some(x), y) if y.is_none_or(|y| x.off <= y.off) => {
                    i += 1;
                    x
                }
                (_, Some(y)) => {
                    j += 1;
                    y
                }
                _ => break,
            };
            let (start, end) = (s.off.max(lo), s.end());
            match run {
                _ if end <= start => {}
                Some((r0, r1)) if start <= r1 => run = Some((r0, r1.max(end))),
                _ => {
                    if let Some((r0, r1)) = run.replace((start, end)) {
                        chop(r0, r1);
                    }
                }
            }
        }
        if let Some((r0, r1)) = run {
            chop(r0, r1);
        }
    }

    /// What an observer of the frame at or above `lo` sees.
    pub fn digest(&self, terms: &mut Terms, epoch: TermId, lo: i64) -> Digest {
        let live: Vec<Slot> = (self.slots.iter())
            .filter(|s| s.end() > lo && !Self::is_fresh(terms, epoch, s))
            .copied()
            .collect();
        let mut chunks = Vec::new();
        Self::chunks(&live, &[], lo, &mut chunks);
        (chunks.into_iter())
            .map(|(off, len)| (off, len, self.load(terms, epoch, off, len)))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::term::Atom;
    use brew_x86::alu::AluOp;
    use brew_x86::reg::Width;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The byte-granular frame the slot map replaced, kept as the oracle:
    /// one interned byte term per written byte, every operation spelled in
    /// bytes.
    #[derive(Clone, Default, PartialEq, Debug)]
    pub(crate) struct ByteFrame(pub BTreeMap<i64, TermId>);

    impl ByteFrame {
        pub fn byte(&self, terms: &mut Terms, epoch: TermId, off: i64) -> TermId {
            match self.0.get(&off) {
                Some(&t) => t,
                None => fresh(terms, epoch, off),
            }
        }

        pub fn load(&self, terms: &mut Terms, epoch: TermId, off: i64, len: u8) -> TermId {
            let bytes: Vec<TermId> = (0..len as i64)
                .map(|k| self.byte(terms, epoch, off + k))
                .collect();
            terms.pack(&bytes)
        }

        pub fn put(&mut self, terms: &mut Terms, off: i64, len: u8, src: TermId) {
            for k in 0..len {
                let b = terms.byte(src, k);
                self.0.insert(off + k as i64, b);
            }
        }

        pub fn kill(&mut self, lo: i64, hi: i64) {
            self.0.retain(|k, _| !(lo..hi).contains(k));
        }

        /// Consecutive byte runs of `keys` (sorted), chopped into 8/4/1.
        pub fn chunks(keys: &[i64]) -> Vec<(i64, u8)> {
            let mut out = Vec::new();
            let mut i = 0;
            while i < keys.len() {
                let mut j = i + 1;
                while j < keys.len() && keys[j] == keys[j - 1] + 1 {
                    j += 1;
                }
                let (mut off, mut len) = (keys[i], (j - i) as i64);
                while len > 0 {
                    let c = [8, 4, 1].into_iter().find(|&c| len >= c).unwrap();
                    out.push((off, c as u8));
                    off += c;
                    len -= c;
                }
                i = j;
            }
            out
        }

        /// The written bytes at or above `lo` that differ from fresh, and
        /// the chunked, packed form of exactly those bytes.
        pub fn digest(&self, terms: &mut Terms, epoch: TermId, lo: i64) -> Digest {
            let live: Vec<(i64, TermId)> = (self.0.range(lo..))
                .map(|(&k, &v)| (k, v))
                .filter(|&(off, v)| v != fresh(terms, epoch, off))
                .collect();
            let keys: Vec<i64> = live.iter().map(|e| e.0).collect();
            Self::chunks(&keys)
                .into_iter()
                .map(|(off, len)| (off, len, self.load(terms, epoch, off, len)))
                .collect()
        }
    }

    impl Frame {
        /// Every written byte, interned.
        pub(crate) fn bytes(&self, terms: &mut Terms) -> ByteFrame {
            let each = |s: &Slot| (s.off..s.end()).map(|at| (at, *s)).collect::<Vec<_>>();
            let all: Vec<(i64, Slot)> = self.slots.iter().flat_map(each).collect();
            ByteFrame(
                all.into_iter()
                    .map(|(at, s)| (at, s.byte(terms, at)))
                    .collect(),
            )
        }

        fn assert_well_formed(&self) {
            for w in self.slots.windows(2) {
                assert!(
                    w[0].end() <= w[1].off,
                    "slots overlap or are unsorted: {w:?}"
                );
            }
            assert!(self.slots.iter().all(|s| matches!(s.len, 1 | 4 | 8)));
        }
    }

    /// Values a walker can hold: atoms, constants, narrow and composite
    /// terms, and whatever earlier loads returned.
    pub(crate) fn value_pool(terms: &mut Terms) -> Vec<TermId> {
        let a = terms.atom(Atom::Gpr(0));
        let b = terms.atom(Atom::Gpr(3));
        let lo = terms.low32(a);
        let ins = terms.op(Tag::InsertByte0, &[a, b]);
        let lo_ins = terms.low32(ins);
        let w32 = terms.op(Tag::Alu(AluOp::And, Width::W32), &[a, b]);
        let z8 = terms.op(Tag::Movzx8, &[b]);
        let b0 = terms.byte(a, 0);
        let bytes: Vec<TermId> = (0..8)
            .map(|k| terms.byte(if k < 3 { a } else { b }, k))
            .collect();
        let pack8 = terms.pack(&bytes);
        let pack4 = terms.pack(&bytes[2..6]);
        let small = terms.constant(0x7f);
        let wide = terms.constant(0x1122_3344_5566_7788);
        vec![
            a, b, lo, ins, lo_ins, w32, z8, b0, pack8, pack4, small, wide,
        ]
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// `len` bytes (16: two 8-byte halves) of value `v` at `rsp + d`.
        Store {
            d: i64,
            len: u8,
            v: usize,
        },
        Load {
            d: i64,
            len: u8,
        },
        /// `add rsp, n` / `sub rsp, n`.
        MoveRsp(i64),
        /// A call: the callee owns what is below rsp, or (escaped frame)
        /// may rewrite all of it.
        Call {
            escaped: bool,
        },
        Digest {
            d: i64,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        let len = || proptest::sample::select(&[1u8, 4, 8, 16][..]);
        let d = -24i64..40;
        prop_oneof![
            4 => (d.clone(), len(), 0usize..64).prop_map(|(d, len, v)| Op::Store { d, len, v }),
            4 => (d.clone(), len()).prop_map(|(d, len)| Op::Load { d, len }),
            1 => (-24i64..24).prop_map(Op::MoveRsp),
            1 => any::<bool>().prop_map(|escaped| Op::Call { escaped }),
            1 => d.prop_map(|d| Op::Digest { d }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Every load and every digest of the slot map interns to the term
        /// the byte-granular oracle produces, through overlapping and
        /// misaligned stores, rsp moves and call havocs.
        #[test]
        fn slot_frame_matches_the_byte_oracle(ops in proptest::collection::vec(op(), 1..60)) {
            let mut terms = Terms::default();
            let mut pool = value_pool(&mut terms);
            let mut epoch = terms.atom(Atom::Frame);
            let (mut new, mut old) = (Frame::default(), ByteFrame::default());
            let mut rsp = 0i64;
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    Op::Store { d, len, v } => {
                        let halves = [pool[v % pool.len()], pool[(v / 7) % pool.len()]];
                        for (h, &val) in halves.iter().enumerate().take(len.div_ceil(8) as usize) {
                            let (off, len) = (rsp + d + 8 * h as i64, len.min(8));
                            // What `store_t` hands the frame.
                            let src = if len == 1 { terms.byte(val, 0) } else { val };
                            new.put(&mut terms, off, len, src);
                            old.put(&mut terms, off, len, src);
                        }
                    }
                    Op::Load { d, len } => {
                        for h in 0..len.div_ceil(8) as i64 {
                            let (off, len) = (rsp + d + 8 * h, len.min(8));
                            let got = new.load(&mut terms, epoch, off, len);
                            prop_assert_eq!(got, old.load(&mut terms, epoch, off, len),
                                "op {}: load{} at {}", i, len, off);
                            pool.push(got);
                        }
                    }
                    Op::MoveRsp(n) => {
                        if n > 0 {
                            new.kill(&mut terms, rsp, rsp + n);
                            old.kill(rsp, rsp + n);
                        }
                        rsp += n;
                    }
                    Op::Call { escaped: true } => {
                        new.clear();
                        old.0.clear();
                        epoch = terms.atom(Atom::CallFrame { block: 0, idx: i as u16 });
                    }
                    Op::Call { escaped: false } => {
                        new.kill(&mut terms, i64::MIN, rsp);
                        old.kill(i64::MIN, rsp);
                    }
                    Op::Digest { d } => {
                        let got = new.digest(&mut terms, epoch, rsp + d);
                        prop_assert_eq!(got, old.digest(&mut terms, epoch, rsp + d), "op {}", i);
                    }
                }
                new.assert_well_formed();
                prop_assert_eq!(new.bytes(&mut terms), old.clone(), "op {}", i);
            }
        }
    }

    #[test]
    fn an_exact_slot_load_interns_nothing() {
        let mut terms = Terms::default();
        let epoch = terms.atom(Atom::Frame);
        let a = terms.atom(Atom::Gpr(0));
        let mut f = Frame::default();
        f.put(&mut terms, -8, 8, a);
        f.put(&mut terms, -16, 4, a);
        let before = terms.len();
        assert_eq!(f.load(&mut terms, epoch, -8, 8), a);
        let low = f.load(&mut terms, epoch, -16, 4);
        assert_eq!(terms.len(), before);
        assert_eq!(low, terms.low32(a));
    }
}
