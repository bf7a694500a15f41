//! # brew-x86 — the x86-64 subset ISA model
//!
//! The common substrate of the BREW toolchain: a decoded instruction model
//! for the 64-bit x86 subset the paper's prototype handles, with a decoder,
//! an encoder, shared ALU/flag semantics, and def/use metadata.
//!
//! The subset's encodings are written down once, in a private table with
//! one row per instruction form (`form.rs`): prefix, opcode, ModRM operand
//! classes, REX.W rule, immediate, and whether the encoder may choose the
//! row or only the decoder reads it. [`decode()`](decode::decode),
//! [`encode()`](encode::encode) and [`encoded_len`] are thin entry points
//! over it, so the two directions cannot drift apart.
//!
//! What each instruction does with its operands is written down once too:
//! [`defuse::visit`] is one match over [`Inst`] that names every operand's
//! role (read, written whole, merged, read-modify-written, address only),
//! every register the opcode implies, and what the instruction does to the
//! flags. Def/use, [`Inst::mem_load`]/[`Inst::mem_store`], the flag queries
//! and [`Inst::map_operands`] are folds over it.
//!
//! Everything downstream — the mini-C compiler (`brew-minic`), the CPU
//! emulator (`brew-emu`) and the runtime rewriter itself (`brew-core`) —
//! speaks this representation, which is what lets "emulate at rewrite time"
//! and "execute at run time" share one set of semantics.
//!
//! ```
//! use brew_x86::prelude::*;
//!
//! // Encode `mulsd xmm0, [0x615100]` (the Figure-6 form: a stencil
//! // coefficient referenced at a fixed data address) and decode it back.
//! let inst = Inst::Sse { op: SseOp::Mulsd, dst: Xmm::Xmm0, src: MemRef::abs(0x615100).into() };
//! let mut bytes = Vec::new();
//! encode(&inst, 0x40_0000, &mut bytes).unwrap();
//! let back = decode(&bytes, 0x40_0000).unwrap();
//! assert_eq!(back.inst, inst);
//! assert_eq!(inst.to_string(), "mulsd xmm0, [0x615100]");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
pub mod codetab;
pub mod cond;
pub mod decode;
pub mod defuse;
pub mod encode;
mod form;
pub mod hash;
pub mod inst;
pub mod operand;
pub mod reg;

/// Convenience re-exports of the whole model.
pub mod prelude {
    pub use crate::alu::{AluOp, ShOp, UnOp};
    pub use crate::cond::{Cond, Flags};
    pub use crate::decode::{decode, decode_all, DecodeError, Decoded};
    pub use crate::defuse::{self, Loc};
    pub use crate::encode::{encode, encoded_len, EncodeError};
    pub use crate::inst::{Inst, ShiftCount, SseOp};
    pub use crate::operand::{MemRef, Operand};
    pub use crate::reg::{Gpr, Width, Xmm};
}

pub use codetab::CodeTable;
pub use hash::{WordBuild, WordHasher, WordMap, WordSet};
pub use prelude::*;
