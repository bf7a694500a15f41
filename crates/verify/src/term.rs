//! Hash-consed symbolic terms for translation validation.
//!
//! The equivalence checker (`equiv`) symbolically executes the pre-pass
//! captured CFG and the post-pass emitted code over the same term arena;
//! two values are provably equal exactly when they intern to the same
//! [`TermId`]. Normalization therefore carries the proof burden: linear
//! 64-bit address arithmetic is canonicalized into [`Node::Lin`] sums,
//! commutative operators sort their operands, constants fold through the
//! *shared* ALU semantics in [`brew_x86::alu`] (the same code the rewriter
//! folds with, so the validator can never disagree with the optimizer
//! about arithmetic), and frame traffic that cuts across a stored value
//! splits it into `Byte` terms that `Pack` collapses back into wholes.
//!
//! Everything here is *syntactic modulo these rules*: a term inequality is
//! never a proof of difference, only an unproven equality — the checker
//! turns it into a rejection because the publish gate demands a proof, not
//! a counterexample.

use brew_x86::alu::{self, AluOp, ShOp};
use brew_x86::cond::Cond;
use brew_x86::inst::SseOp;
use brew_x86::reg::Width;
use brew_x86::WordHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// Interned term handle. Equal ids ⇔ provably equal values.
pub(crate) type TermId = u32;

/// Flag index into the five-flag state vector: cf, zf, sf, of, pf.
pub(crate) const FLAG_NAMES: [&str; 5] = ["cf", "zf", "sf", "of", "pf"];

/// Symbolic atoms — the unknowns of the abstract machine. Both sides of
/// the comparison start from (and havoc to) the *same* atoms, so "equal
/// inputs" is literal term identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Atom {
    /// Value of a GPR at function entry (hardware number).
    Gpr(u8),
    /// Low 64-bit lane of an XMM register at entry.
    XmmLo(u8),
    /// High 64-bit lane of an XMM register at entry.
    XmmHi(u8),
    /// One of the five flags at entry (index into [`FLAG_NAMES`]).
    Flag(u8),
    /// The non-frame memory heap at entry.
    Mem,
    /// The frame epoch at entry (parameterizes unwritten frame bytes).
    Frame,
    /// A location havocked by the `idx`-th kept call of block `block`
    /// (`slot` distinguishes rax, rdx, each xmm lane, each flag, ...).
    CallOut { block: u32, idx: u16, slot: u8 },
    /// Non-frame memory after the `idx`-th kept call of block `block`.
    CallMem { block: u32, idx: u16 },
    /// Frame epoch after the `idx`-th kept call of block `block` (the
    /// callee may rewrite an escaped frame).
    CallFrame { block: u32, idx: u16 },
    /// Join value at entry to `block` for partition class `class` (the
    /// class id is the smallest joint-location index of the class, so it
    /// is stable across fixpoint iterations).
    Phi { block: u32, class: u32 },
}

/// The flag-producing instruction shape a [`Tag::Flag`] term records.
/// `cmp` is canonicalized to `sub` (identical flag semantics), and
/// `inc`/`dec`/`neg` are canonicalized to their `add`/`sub` equivalents
/// by the evaluator, so renamed-but-equivalent producers intern equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FlagSrc {
    /// Two-operand ALU flags; args `[a, b]`.
    Alu(AluOp, Width),
    /// `test` flags; args `[a, b]`.
    Test(Width),
    /// Signed multiply flags; args `[a, b]`.
    Imul(Width),
    /// Shift by a known nonzero count; args `[v, count]`.
    Shift(ShOp, Width),
    /// Shift by CL (count unknown — may leave flags untouched); args
    /// `[v, count, prev]` where `prev` is this flag's prior term.
    ShiftCl(ShOp, Width),
    /// `ucomisd` result flags; args `[a, b]` (lane bit patterns).
    Ucomisd,
    /// Architecturally-undefined `idiv` flags; args `[hi, lo, divisor]`.
    Idiv(Width),
}

/// Operator tags for structural [`Node::Op`] terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Tag {
    /// ALU result (W32 results are zero-extended by definition); `[a, b]`.
    Alu(AluOp, Width),
    /// Two-operand signed multiply; `[a, b]`.
    Imul(Width),
    /// `not` (the only non-linear unary left after canonicalization); `[v]`.
    Not(Width),
    /// Shift result; `[v, count]`.
    ShiftVal(ShOp, Width),
    /// `idiv` quotient; `[hi, lo, divisor]`.
    Quot(Width),
    /// `idiv` remainder; `[hi, lo, divisor]`.
    Rem(Width),
    /// `cqo`/`cdq` high half; `[lo]`.
    Cqo(Width),
    /// `movsxd` sign extension of the low 32 bits; `[v]`.
    Movsxd,
    /// `movzx` zero extension of the low byte; `[v]`.
    Movzx8,
    /// Zero-extended low 32 bits; `[v]`.
    Low32,
    /// Byte `k` of a value; `[v]`.
    Byte(u8),
    /// `old` with byte 0 replaced by byte 0 of `v`; `[old, v]`.
    InsertByte0,
    /// Little-endian byte concatenation (4 or 8 bytes, zero-extended).
    Pack,
    /// Scalar SSE lane arithmetic (packed ops use the scalar tag per
    /// lane); `[a, b]`.
    Sse(SseOp),
    /// Integer→double conversion; `[v]`.
    Cvtsi2sd(Width),
    /// Truncating double→integer conversion; `[lane]`.
    Cvttsd2si(Width),
    /// `setcc` result (0 or 1); args are the flag terms the condition
    /// reads, in [`cond_flags`] order.
    Setcc(Cond),
    /// One flag produced by a flag-writing instruction.
    Flag(u8, FlagSrc),
    /// Non-frame memory read of `len` bytes; `[mem, addr]`.
    Select(u8),
    /// Non-frame memory after a `len`-byte write; `[mem, addr, val]`.
    Store(u8),
    /// An unwritten frame byte; `[epoch, Const(offset as u64)]`.
    FrameFresh,
}

/// One interned node. `Copy`: operands live inline (or, for linear sums,
/// in the arena's side pool), so building and matching a node never touches
/// the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Node {
    /// A known 64-bit constant.
    Const(u64),
    /// An abstract input.
    Atom(Atom),
    /// Canonical wrapping 64-bit linear sum `k + Σ coeffᵢ·partᵢ`; the `n`
    /// parts sit at `at..at + n` of the arena's part pool, sorted by id,
    /// coefficients nonzero, and no part is itself a `Lin` or `Const`.
    Lin { k: u64, at: u32, n: u32 },
    /// Structural operator application over `args[..n]` (the rest is zero,
    /// so derived equality is operand equality).
    Op {
        tag: Tag,
        n: u8,
        args: [TermId; MAX_ARGS],
    },
}

/// Most operands any operator takes (`Pack` of an 8-byte load).
const MAX_ARGS: usize = 8;

/// The flag indices a condition code reads, in fixed (cf, zf, sf, of, pf)
/// order — the set is identical for a condition and its negation, which
/// is what lets the checker accept the emitter's branch-inversion layout.
pub(crate) fn cond_flags(c: Cond) -> &'static [usize] {
    match c {
        Cond::O | Cond::No => &[3],
        Cond::B | Cond::Ae => &[0],
        Cond::E | Cond::Ne => &[1],
        Cond::Be | Cond::A => &[0, 1],
        Cond::S | Cond::Ns => &[2],
        Cond::P | Cond::Np => &[4],
        Cond::L | Cond::Ge => &[2, 3],
        Cond::Le | Cond::G => &[1, 2, 3],
    }
}

/// Hash-consing arena. Deterministic: interning the same build sequence
/// yields the same ids, so repeated checks of one variant produce
/// byte-identical reports.
#[derive(Default)]
pub(crate) struct Terms {
    nodes: Vec<Node>,
    /// Linear-sum parts of every `Node::Lin`, back to back.
    parts: Vec<(TermId, i64)>,
    /// Open-addressing index over `nodes`: `(hash, id + 1)`, 0 = empty,
    /// power-of-two length, at most half full.
    table: Vec<(u32, u32)>,
    /// Scratch for assembling a linear sum before it is interned.
    sum: Vec<(TermId, i64)>,
}

impl Terms {
    /// An arena sized for a proof over `insts` emitted instructions. Past
    /// the entry state's 55 atoms the corpus interns 1.0 to 1.4 terms per
    /// emitted instruction on the two kept loops (`sweep_generic.u4`,
    /// `gsum.64`), 0.6 and 0.3 on the unrolled sweeps (12×12, 24×24), whose
    /// bodies repeat, and 2 to 6 on kernels of at most 150 instructions,
    /// which stay under 700 terms; a quarter as many linear-sum parts as
    /// terms. Half a term per instruction over a floor holds both unrolled
    /// sweeps and the seven kernels of at most 50 instructions as sized;
    /// `madd.48` and the kept loops double once or twice, index included.
    pub fn with_capacity(insts: usize) -> Terms {
        let n = 192 + insts / 2;
        Terms {
            nodes: Vec::with_capacity(n),
            parts: Vec::with_capacity(n / 4),
            table: vec![(0, 0); (2 * n).next_power_of_two()],
            sum: Vec::with_capacity(16),
        }
    }

    pub fn get(&self, t: TermId) -> &Node {
        &self.nodes[t as usize]
    }

    /// Interned terms so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `t` as an operator application.
    pub fn as_op(&self, t: TermId) -> Option<(Tag, &[TermId])> {
        match self.get(t) {
            Node::Op { tag, n, args } => Some((*tag, &args[..*n as usize])),
            _ => None,
        }
    }

    /// The operand of `t` if it is a one-operand `tag` application.
    fn arg_of(&self, t: TermId, tag: Tag) -> Option<TermId> {
        self.as_op(t).filter(|o| o.0 == tag).map(|o| o.1[0])
    }

    fn lin_parts(&self, at: u32, n: u32) -> &[(TermId, i64)] {
        &self.parts[at as usize..(at + n) as usize]
    }

    /// Find the node with hash `h` that `same` accepts, or intern the one
    /// `make` builds.
    fn intern(
        &mut self,
        h: u64,
        same: impl Fn(&Terms, &Node) -> bool,
        make: impl FnOnce(&mut Terms) -> Node,
    ) -> TermId {
        if 2 * (self.nodes.len() + 1) > self.table.len() {
            let old = std::mem::take(&mut self.table);
            self.table = vec![(0, 0); (2 * old.len()).max(512)];
            for e in old.into_iter().filter(|e| e.1 != 0) {
                let i = self.probe(e.0, |_| false).unwrap_or_else(|i| i);
                self.table[i] = e;
            }
        }
        let h = (h >> 32) as u32;
        match self.probe(h, |id| same(self, &self.nodes[id as usize])) {
            Ok(i) => self.table[i].1 - 1,
            Err(i) => {
                let node = make(self);
                self.nodes.push(node);
                self.table[i] = (h, self.nodes.len() as u32);
                self.nodes.len() as TermId - 1
            }
        }
    }

    /// Linear probe for hash `h`: the slot of the entry `same` accepts, or
    /// the empty slot where it belongs.
    fn probe(&self, h: u32, same: impl Fn(TermId) -> bool) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut i = h as usize & mask;
        loop {
            match self.table[i] {
                (_, 0) => return Err(i),
                (eh, id) if eh == h && same(id - 1) => return Ok(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn intern_node(&mut self, n: Node) -> TermId {
        let mut h = WordHasher::default();
        match &n {
            Node::Const(v) => (0u8, v).hash(&mut h),
            Node::Atom(a) => (1u8, a).hash(&mut h),
            Node::Op { tag, n, args } => (2u8, tag, &args[..*n as usize]).hash(&mut h),
            Node::Lin { .. } => unreachable!("linear sums intern through `lin`"),
        }
        self.intern(h.finish(), |_, m| *m == n, |_| n)
    }

    pub fn constant(&mut self, v: u64) -> TermId {
        self.intern_node(Node::Const(v))
    }

    pub fn atom(&mut self, a: Atom) -> TermId {
        self.intern_node(Node::Atom(a))
    }

    pub fn as_const(&self, t: TermId) -> Option<u64> {
        match self.get(t) {
            Node::Const(v) => Some(*v),
            _ => None,
        }
    }

    // ---- linear arithmetic -------------------------------------------

    /// Canonical wrapping 64-bit `k + Σ cᵢ·tᵢ` over arbitrary terms: each
    /// term is viewed as a linear sum (constant + weighted parts), the
    /// parts are merged by id and zero coefficients dropped.
    fn lin(&mut self, mut k: u64, items: &[(TermId, i64)]) -> TermId {
        let mut sum = std::mem::take(&mut self.sum);
        sum.clear();
        for &(t, c) in items {
            match *self.get(t) {
                Node::Const(v) => k = k.wrapping_add(v.wrapping_mul(c as u64)),
                Node::Lin { k: tk, at, n } => {
                    k = k.wrapping_add(tk.wrapping_mul(c as u64));
                    let parts = self.lin_parts(at, n).iter();
                    sum.extend(parts.map(|&(p, pc)| (p, pc.wrapping_mul(c))));
                }
                _ => sum.push((t, c)),
            }
        }
        sum.sort_unstable_by_key(|&(t, _)| t);
        // Merge duplicate parts, drop zero coefficients.
        sum.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.wrapping_add(next.1);
            }
            same
        });
        sum.retain(|&(_, c)| c != 0);
        let id = match sum[..] {
            [] => self.constant(k),
            [(t, 1)] if k == 0 => t,
            _ => {
                let mut h = WordHasher::default();
                (3u8, k, &sum[..]).hash(&mut h);
                self.intern(
                    h.finish(),
                    |ts, m| matches!(*m, Node::Lin { k: mk, at, n } if mk == k && ts.lin_parts(at, n) == &sum[..]),
                    |ts| {
                        let at = ts.parts.len() as u32;
                        ts.parts.extend_from_slice(&sum);
                        Node::Lin { k, at, n: sum.len() as u32 }
                    },
                )
            }
        };
        self.sum = sum;
        id
    }

    /// Wrapping 64-bit `a + b`.
    pub fn add64(&mut self, a: TermId, b: TermId) -> TermId {
        self.lin(0, &[(a, 1), (b, 1)])
    }

    /// Wrapping 64-bit `a - b`.
    pub fn sub64(&mut self, a: TermId, b: TermId) -> TermId {
        self.lin(0, &[(a, 1), (b, -1)])
    }

    /// Wrapping 64-bit `a + k`.
    pub fn add_const(&mut self, a: TermId, k: i64) -> TermId {
        self.lin(k as u64, &[(a, 1)])
    }

    /// Wrapping 64-bit `a * c` for a small constant scale.
    pub fn mul_const(&mut self, a: TermId, c: i64) -> TermId {
        self.lin(0, &[(a, c)])
    }

    /// If `t` is exactly `base + k` for the single unit-weight part
    /// `base`, return `k` — the frame-offset extractor.
    pub fn offset_of(&self, t: TermId, base: TermId) -> Option<i64> {
        match *self.get(t) {
            _ if t == base => Some(0),
            Node::Lin { k, at, n: 1 } if self.parts[at as usize] == (base, 1) => Some(k as i64),
            _ => None,
        }
    }

    /// Does the linear view of `t` mention `base` at all?
    #[cfg(test)]
    pub fn mentions(&self, t: TermId, base: TermId) -> bool {
        match *self.get(t) {
            Node::Lin { at, n, .. } => self.lin_parts(at, n).iter().any(|&(p, _)| p == base),
            _ => t == base,
        }
    }

    // ---- width predicates --------------------------------------------

    /// Is `t` provably a zero-extended 32-bit value?
    pub fn is_zext32(&self, t: TermId) -> bool {
        match self.get(t) {
            Node::Const(v) => *v <= u32::MAX as u64,
            Node::Op { tag, n, .. } => match tag {
                Tag::Low32 | Tag::Movzx8 | Tag::Setcc(_) | Tag::Flag(..) => true,
                Tag::Alu(op, Width::W32) => op.writes_dst(),
                Tag::Imul(Width::W32)
                | Tag::Not(Width::W32)
                | Tag::ShiftVal(_, Width::W32)
                | Tag::Quot(Width::W32)
                | Tag::Rem(Width::W32)
                | Tag::Cqo(Width::W32)
                | Tag::Cvttsd2si(Width::W32) => true,
                Tag::Pack => *n <= 4,
                _ => false,
            },
            _ => false,
        }
    }

    /// Is `t` provably a zero-extended 8-bit value?
    fn is_zext8(&self, t: TermId) -> bool {
        match self.get(t) {
            Node::Const(v) => *v <= u8::MAX as u64,
            Node::Op { tag, n, .. } => {
                matches!(tag, Tag::Movzx8 | Tag::Setcc(_) | Tag::Flag(..))
                    || (*tag == Tag::Pack && *n == 1)
            }
            _ => false,
        }
    }

    /// Zero-extended low 32 bits of `t`.
    pub fn low32(&mut self, t: TermId) -> TermId {
        self.op(Tag::Low32, &[t])
    }

    /// Byte `k` of `t`.
    pub fn byte(&mut self, t: TermId, k: u8) -> TermId {
        self.op(Tag::Byte(k), &[t])
    }

    /// Little-endian packing of 1, 4 or 8 byte terms.
    pub fn pack(&mut self, bytes: &[TermId]) -> TermId {
        self.op(Tag::Pack, bytes)
    }

    /// The term `pack(byte(t, 0), .., byte(t, len - 1))` normalizes to, for
    /// `len` 4 or 8, without interning the bytes: `t` (or its low half)
    /// whenever no byte of `t` resolves into a different term's byte.
    /// `None` when one may (`t` is an `InsertByte0` or a `Pack`, possibly
    /// under a `Low32`) — the frame then keeps `t` byte by byte.
    pub fn whole(&mut self, t: TermId, len: u8) -> Option<TermId> {
        let inner = self.arg_of(t, Tag::Low32).unwrap_or(t);
        match self.as_op(inner) {
            Some((Tag::InsertByte0 | Tag::Pack, _)) => None,
            _ if len == 8 => Some(t),
            _ => Some(self.low32(t)),
        }
    }

    // ---- the normalizing constructor ---------------------------------

    /// Build `tag(args)`, applying the full rewrite system: operand
    /// canonicalization (`Low32` stripping where the operator reads at
    /// most 32 bits), commutative sorting, constant folding through
    /// [`brew_x86::alu`], and the structural collapse rules.
    pub fn op(&mut self, tag: Tag, operands: &[TermId]) -> TermId {
        let n = operands.len();
        let mut args = [TermId::default(); MAX_ARGS];
        args[..n].copy_from_slice(operands);
        self.canon_args(tag, &mut args[..n]);
        if let Some(t) = self.collapse(tag, &args[..n]) {
            return t;
        }
        if let Some(v) = self.fold(tag, &args[..n]) {
            return self.constant(v);
        }
        if commutative(tag) && n == 2 && args[0] > args[1] {
            args.swap(0, 1);
        }
        self.intern_node(Node::Op {
            tag,
            n: n as u8,
            args,
        })
    }

    /// Strip `Low32` wrappers from operands the operator only reads the
    /// low 32 (or 8) bits of — renamed chains then compare equal whether
    /// or not a 32-bit copy sat in between.
    fn canon_args(&self, tag: Tag, args: &mut [TermId]) {
        let mut strip_at = |idxs: &[usize]| {
            for &i in idxs {
                if let Some(a) = args.get_mut(i) {
                    *a = self.arg_of(*a, Tag::Low32).unwrap_or(*a);
                }
            }
        };
        match tag {
            Tag::Alu(_, Width::W32 | Width::W8) | Tag::Imul(Width::W32) => strip_at(&[0, 1]),
            Tag::Not(Width::W32) | Tag::Movsxd | Tag::Movzx8 | Tag::Cvtsi2sd(Width::W32) => {
                strip_at(&[0])
            }
            // Shift counts are masked to at most 6 bits at any width.
            Tag::ShiftVal(_, w) => {
                if w == Width::W32 {
                    strip_at(&[0]);
                }
                strip_at(&[1]);
            }
            Tag::Cqo(Width::W32) => strip_at(&[0]),
            Tag::Byte(k) if k < 4 => strip_at(&[0]),
            Tag::InsertByte0 => strip_at(&[1]),
            Tag::Flag(_, FlagSrc::Alu(_, Width::W32 | Width::W8))
            | Tag::Flag(_, FlagSrc::Test(Width::W32 | Width::W8))
            | Tag::Flag(_, FlagSrc::Imul(Width::W32)) => strip_at(&[0, 1]),
            Tag::Flag(_, FlagSrc::Shift(_, w) | FlagSrc::ShiftCl(_, w)) => {
                if w == Width::W32 {
                    strip_at(&[0]);
                }
                strip_at(&[1]);
            }
            _ => {}
        }
    }

    /// Structural collapse rules that return an existing term.
    fn collapse(&mut self, tag: Tag, args: &[TermId]) -> Option<TermId> {
        match tag {
            Tag::Low32 => {
                let narrow = self.is_zext32(args[0]) || self.arg_of(args[0], Tag::Low32).is_some();
                narrow.then_some(args[0])
            }
            Tag::Byte(k) => match self.as_op(args[0]) {
                Some((Tag::InsertByte0, ia)) => {
                    let (old, v) = (ia[0], ia[1]);
                    Some(if k == 0 {
                        self.byte(v, 0)
                    } else {
                        self.byte(old, k)
                    })
                }
                Some((Tag::Pack, pa)) => match pa.get(k as usize) {
                    Some(&b) => Some(b),
                    None => Some(self.constant(0)),
                },
                Some((Tag::Low32, la)) => {
                    let v = la[0];
                    Some(if k < 4 {
                        self.byte(v, k)
                    } else {
                        self.constant(0)
                    })
                }
                _ => {
                    if k == 0 && self.is_zext8(args[0]) {
                        Some(args[0])
                    } else if (k >= 1 && self.is_zext8(args[0]))
                        || (k >= 4 && self.is_zext32(args[0]))
                    {
                        Some(self.constant(0))
                    } else {
                        None
                    }
                }
            },
            Tag::Pack => {
                // Pack(Byte(t,0), .., Byte(t,n-1)) → t (or Low32(t)), with
                // a zext escape hatch: a byte-run prefix whose source is
                // provably narrow may be followed by literal zero bytes —
                // byte 0 of a zero-extended value collapses to the value
                // itself, so scattered narrow stores still reassemble.
                let mut src: Option<TermId> = None;
                let mut run = 0usize;
                for (i, &b) in args.iter().enumerate() {
                    match self.as_op(b) {
                        Some((Tag::Byte(k), ba))
                            if k as usize == i && (src.is_none() || src == Some(ba[0])) =>
                        {
                            src = Some(ba[0]);
                            run = i + 1;
                        }
                        _ if i == 0 && self.is_zext8(b) => {
                            src = Some(b);
                            run = 1;
                        }
                        _ => break,
                    }
                }
                let src = src?;
                if args[run..].iter().any(|&b| self.as_const(b) != Some(0)) {
                    return None;
                }
                // The packed whole is the zero-extension of the prefix.
                match run {
                    8 => Some(src),
                    4 => Some(self.low32(src)),
                    1 => Some(args[0]),
                    _ => None,
                }
            }
            Tag::InsertByte0 => {
                // Reinserting a value's own low byte is the identity.
                let b0 = self.byte(args[0], 0);
                let v0 = self.byte(args[1], 0);
                (b0 == v0).then_some(args[0])
            }
            Tag::Alu(AluOp::Xor | AluOp::Sub, _) if args[0] == args[1] => Some(self.constant(0)),
            // The identities the constant-propagation pass folds and its
            // dead-code sweep deletes: `x | 0`, `x ^ 0`, `x & -1` (add and
            // sub are linear sums already), `x * 0` and `x * 1`.
            Tag::Alu(op @ (AluOp::Or | AluOp::Xor | AluOp::And), Width::W64) => {
                let unit = if op == AluOp::And { u64::MAX } else { 0 };
                let at = |i: usize| self.as_const(args[i]) == Some(unit);
                (at(1).then_some(args[0])).or(at(0).then_some(args[1]))
            }
            Tag::Imul(w) => {
                let is = |i: usize, k: u64| self.as_const(args[i]).map(|c| w.trunc(c)) == Some(k);
                if is(0, 0) || is(1, 0) {
                    return Some(self.constant(0));
                }
                let other = (is(1, 1).then_some(args[0])).or(is(0, 1).then_some(args[1]))?;
                Some(match w {
                    Width::W64 => other,
                    _ => self.low32(other),
                })
            }
            Tag::Sse(SseOp::Xorpd) if args[0] == args[1] => Some(self.constant(0)),
            // A CL shift whose count became known folds into the immediate
            // form: a count of zero is the identity (and keeps old flags),
            // any other count is masked exactly like the hardware does.
            Tag::ShiftVal(op, w) => {
                let c = self.as_const(args[1])?;
                let masked = (c as u8) & (w.bits() - 1) as u8;
                if masked == 0 {
                    Some(match w {
                        Width::W32 => self.low32(args[0]),
                        _ => args[0],
                    })
                } else if c != masked as u64 {
                    let cnt = self.constant(masked as u64);
                    Some(self.op(Tag::ShiftVal(op, w), &[args[0], cnt]))
                } else {
                    None
                }
            }
            Tag::Flag(k, FlagSrc::ShiftCl(op, w)) => {
                let c = self.as_const(args[1])?;
                let masked = (c as u8) & (w.bits() - 1) as u8;
                if masked == 0 {
                    // Masked count of zero leaves every flag untouched.
                    Some(args[2])
                } else {
                    let cnt = self.constant(masked as u64);
                    Some(self.op(Tag::Flag(k, FlagSrc::Shift(op, w)), &[args[0], cnt]))
                }
            }
            Tag::Select(len) => self.select_through_stores(len, args[0], args[1]),
            _ => None,
        }
    }

    /// McCarthy select-over-store: skip provably-disjoint constant-address
    /// stores, return the stored value on an exact hit.
    fn select_through_stores(&mut self, len: u8, mut mem: TermId, addr: TermId) -> Option<TermId> {
        let mut moved = false;
        loop {
            let (slen, sprev, saddr, sval) = match self.as_op(mem) {
                Some((Tag::Store(slen), a)) => (slen, a[0], a[1], a[2]),
                // Reading through untouched memory: nothing to collapse
                // unless we skipped at least one store.
                _ => return moved.then(|| self.op(Tag::Select(len), &[mem, addr])),
            };
            if saddr == addr && slen == len {
                return Some(sval);
            }
            match (self.as_const(addr), self.as_const(saddr)) {
                (Some(a), Some(s))
                    if a.wrapping_add(len as u64) <= s || s.wrapping_add(slen as u64) <= a =>
                {
                    // Disjoint constant ranges: the store is invisible.
                    mem = sprev;
                    moved = true;
                }
                _ => return moved.then(|| self.op(Tag::Select(len), &[mem, addr])),
            }
        }
    }

    /// Constant folding through the shared ALU semantics.
    fn fold(&self, tag: Tag, args: &[TermId]) -> Option<u64> {
        let c = |i: usize| self.as_const(args[i]);
        Some(match tag {
            Tag::Alu(op, w) if op.writes_dst() => alu::alu(op, w, c(0)?, c(1)?).0,
            Tag::Imul(w) => alu::imul(w, c(0)?, c(1)?).0,
            Tag::Not(w) => w.trunc(!c(0)?),
            Tag::ShiftVal(op, w) => alu::shift(op, w, c(0)?, c(1)? as u8, Default::default()).0,
            Tag::Cqo(w) => match w {
                Width::W64 => ((c(0)? as i64) >> 63) as u64,
                _ => Width::W32.trunc(((w.sext(c(0)?) as i64) >> 31) as u64),
            },
            Tag::Movsxd => Width::W32.sext(c(0)?),
            Tag::Movzx8 => c(0)? & 0xFF,
            Tag::Low32 => c(0)? & 0xFFFF_FFFF,
            Tag::Byte(k) => (c(0)? >> (8 * k as u32)) & 0xFF,
            Tag::InsertByte0 => (c(0)? & !0xFF) | (c(1)? & 0xFF),
            Tag::Pack => {
                let mut v: u64 = 0;
                for (i, &b) in args.iter().enumerate() {
                    v |= (self.as_const(b)? & 0xFF) << (8 * i as u32);
                }
                v
            }
            Tag::Flag(which, src) => {
                let f = match src {
                    FlagSrc::Alu(op, w) => alu::alu(op, w, c(0)?, c(1)?).1,
                    FlagSrc::Test(w) => alu::test(w, c(0)?, c(1)?),
                    FlagSrc::Imul(w) => alu::imul(w, c(0)?, c(1)?).1,
                    FlagSrc::Shift(op, w) => {
                        alu::shift(op, w, c(0)?, c(1)? as u8, Default::default()).1
                    }
                    // CL shifts, idiv and FP compares stay structural.
                    _ => return None,
                };
                u64::from([f.cf, f.zf, f.sf, f.of, f.pf][which as usize])
            }
            Tag::Setcc(cond) => {
                let mut bits = [false; 5];
                for (i, &k) in cond_flags(cond).iter().enumerate() {
                    bits[k] = c(i)? != 0;
                }
                let [cf, zf, sf, of, pf] = bits;
                u64::from(brew_x86::cond::Flags { cf, zf, sf, of, pf }.cond(cond))
            }
            // Quotients can trap; FP arithmetic is kept structural so the
            // checker never has to reason about rounding or NaNs.
            _ => return None,
        })
    }

    // ---- rendering ----------------------------------------------------

    /// Compact, depth-limited rendering for divergence traces.
    pub fn render(&self, t: TermId) -> String {
        let mut s = String::new();
        self.render_into(t, 4, &mut s);
        s
    }

    fn render_into(&self, t: TermId, depth: u8, out: &mut String) {
        if depth == 0 {
            let _ = write!(out, "#{t}");
            return;
        }
        match self.get(t) {
            Node::Const(v) => {
                let _ = write!(out, "{v:#x}");
            }
            Node::Atom(a) => {
                let _ = match a {
                    Atom::Gpr(r) => write!(out, "{}₀", brew_x86::reg::Gpr::from_number(*r)),
                    Atom::XmmLo(x) => write!(out, "xmm{x}.lo₀"),
                    Atom::XmmHi(x) => write!(out, "xmm{x}.hi₀"),
                    Atom::Flag(f) => write!(out, "{}₀", FLAG_NAMES[*f as usize]),
                    Atom::Mem => write!(out, "mem₀"),
                    Atom::Frame => write!(out, "frame₀"),
                    Atom::CallOut { block, idx, slot } => {
                        write!(out, "call{block}.{idx}.out{slot}")
                    }
                    Atom::CallMem { block, idx } => write!(out, "call{block}.{idx}.mem"),
                    Atom::CallFrame { block, idx } => write!(out, "call{block}.{idx}.frame"),
                    Atom::Phi { block, class } => write!(out, "φ{block}.{class}"),
                };
            }
            Node::Lin { k, at, n } => {
                let _ = write!(out, "(");
                let mut first = *k == 0;
                if !first {
                    let _ = write!(out, "{:#x}", *k as i64);
                }
                for (p, c) in self.lin_parts(*at, *n) {
                    if !first {
                        let _ = write!(out, " + ");
                    }
                    first = false;
                    if *c != 1 {
                        let _ = write!(out, "{c}*");
                    }
                    self.render_into(*p, depth - 1, out);
                }
                let _ = write!(out, ")");
            }
            Node::Op { tag, n, args } => {
                let _ = write!(out, "{tag:?}(");
                for (i, a) in args[..*n as usize].iter().enumerate() {
                    if i > 0 {
                        let _ = write!(out, ", ");
                    }
                    self.render_into(*a, depth - 1, out);
                }
                let _ = write!(out, ")");
            }
        }
    }
}

/// Operators whose two operands may be sorted by term id.
fn commutative(tag: Tag) -> bool {
    match tag {
        Tag::Alu(AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor, _) | Tag::Imul(_) => true,
        Tag::Flag(_, FlagSrc::Alu(AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor, _)) => true,
        Tag::Flag(_, FlagSrc::Test(_) | FlagSrc::Imul(_)) => true,
        // NB: addsd/mulsd commute only up to NaN payload propagation; the
        // rewriter never reorders FP operands itself, and treating them as
        // commutative here lets renamed-but-reassociated copies compare
        // equal. Documented in DESIGN.md §13.
        Tag::Sse(SseOp::Addsd | SseOp::Mulsd | SseOp::Addpd | SseOp::Mulpd | SseOp::Xorpd) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brew_x86::reg::Gpr;

    fn arena() -> (Terms, TermId, TermId) {
        let mut t = Terms::default();
        let a = t.atom(Atom::Gpr(Gpr::Rdi.number()));
        let b = t.atom(Atom::Gpr(Gpr::Rsi.number()));
        (t, a, b)
    }

    #[test]
    fn linear_sums_canonicalize() {
        let (mut t, a, b) = arena();
        // (a + 8) + (b - 8)  ==  b + a
        let a8 = t.add_const(a, 8);
        let bm8 = t.add_const(b, -8);
        let lhs = t.add64(a8, bm8);
        let rhs = t.add64(b, a);
        assert_eq!(lhs, rhs);
        // a - a == 0
        let z = t.sub64(a, a);
        assert_eq!(t.as_const(z), Some(0));
        // scale and re-extract the offset
        let rsp = t.atom(Atom::Gpr(Gpr::Rsp.number()));
        let addr = t.add_const(rsp, -24);
        assert_eq!(t.offset_of(addr, rsp), Some(-24));
        assert_eq!(t.offset_of(a, rsp), None);
        let mixed = t.add64(addr, a);
        assert!(t.mentions(mixed, rsp));
        assert_eq!(t.offset_of(mixed, rsp), None);
    }

    #[test]
    fn commuted_operands_intern_equal() {
        let (mut t, a, b) = arena();
        let x = t.op(Tag::Imul(Width::W64), &[a, b]);
        let y = t.op(Tag::Imul(Width::W64), &[b, a]);
        assert_eq!(x, y);
        // subtraction must NOT commute
        let s1 = t.op(Tag::Alu(AluOp::Sub, Width::W32), &[a, b]);
        let s2 = t.op(Tag::Alu(AluOp::Sub, Width::W32), &[b, a]);
        assert_ne!(s1, s2);
        let f1 = t.op(Tag::Sse(SseOp::Divsd), &[a, b]);
        let f2 = t.op(Tag::Sse(SseOp::Divsd), &[b, a]);
        assert_ne!(f1, f2);
    }

    #[test]
    fn constant_folding_matches_shared_alu() {
        let (mut t, _, _) = arena();
        let c7 = t.constant(7);
        let c5 = t.constant(5);
        let p = t.op(Tag::Imul(Width::W64), &[c7, c5]);
        assert_eq!(t.as_const(p), Some(35));
        let shifted = t.op(Tag::ShiftVal(ShOp::Shl, Width::W64), &[c7, c5]);
        assert_eq!(t.as_const(shifted), Some(7 << 5));
        let zf = t.op(
            Tag::Flag(1, FlagSrc::Alu(AluOp::Sub, Width::W64)),
            &[c7, c7],
        );
        assert_eq!(t.as_const(zf), Some(1));
    }

    #[test]
    fn byte_pack_roundtrip_collapses() {
        let (mut t, a, _) = arena();
        let bytes: Vec<TermId> = (0..8).map(|k| t.byte(a, k)).collect();
        assert_eq!(t.pack(&bytes), a);
        let low: Vec<TermId> = (0..4).map(|k| t.byte(a, k)).collect();
        let packed = t.pack(&low);
        let l32 = t.low32(a);
        assert_eq!(packed, l32);
        // low32 of an already-32-bit value is the identity
        assert_eq!(t.low32(l32), l32);
        let mz = t.op(Tag::Movzx8, &[a]);
        assert_eq!(t.low32(mz), mz);
        // high bytes of a zero-extended value are zero
        let hi = t.byte(l32, 5);
        assert_eq!(t.as_const(hi), Some(0));
    }

    #[test]
    fn select_over_store_resolves_constant_addresses() {
        let (mut t, a, b) = arena();
        let mem0 = t.atom(Atom::Mem);
        let a1 = t.constant(0x1000);
        let a2 = t.constant(0x2000);
        let m1 = t.op(Tag::Store(8), &[mem0, a1, a]);
        let m2 = t.op(Tag::Store(8), &[m1, a2, b]);
        // read back through the unrelated store
        let r = t.op(Tag::Select(8), &[m2, a1]);
        assert_eq!(r, a);
        // overlapping read stays structural
        let a1p4 = t.constant(0x1004);
        let r2 = t.op(Tag::Select(8), &[m2, a1p4]);
        assert!(matches!(
            t.get(r2),
            Node::Op {
                tag: Tag::Select(8),
                ..
            }
        ));
    }

    #[test]
    fn xor_and_sub_self_are_zero() {
        let (mut t, a, _) = arena();
        let z = t.op(Tag::Alu(AluOp::Xor, Width::W32), &[a, a]);
        assert_eq!(t.as_const(z), Some(0));
        let z2 = t.op(Tag::Sse(SseOp::Xorpd), &[a, a]);
        assert_eq!(t.as_const(z2), Some(0));
    }
}
