//! # brew-minic — the static-compiler substrate
//!
//! The paper's evaluation rewrites functions produced by `gcc -O2`; this
//! crate is the substituted static compiler (DESIGN.md §2 item 4): a small C
//! subset ("mini-C") compiled to the x86-64 subset directly into a
//! [`brew_image::Image`], so the rewriter has honest compiled binaries —
//! with real prologues, ABI calls, frames and loops — to specialize.
//!
//! Mini-C covers what the paper's listings need: `int` (64-bit) and
//! `double`, pointers, fixed-size arrays, structs, function pointers and
//! typedefs thereof, `for`/`while`/`if`, compound assignment, and global
//! initializer lists (the stencil descriptor of Figure 4).
//!
//! ```
//! use brew_image::Image;
//! use brew_emu::{CallArgs, Machine};
//!
//! let mut img = Image::new();
//! let prog = brew_minic::compile_into(
//!     "int mul_add(int a, int b, int c) { return a * b + c; }",
//!     &mut img,
//! ).unwrap();
//! let mut m = Machine::new();
//! let f = prog.func("mul_add").unwrap();
//! let out = m.call(&mut img, f, &CallArgs::new().int(6).int(7).int(-2)).unwrap();
//! assert_eq!(out.ret_int as i64, 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod ast;
pub mod codegen;
pub mod lex;
pub mod parse;
pub mod sema;
pub mod types;

use brew_image::Image;
use sema::InitVal;
use std::collections::HashMap;
use std::fmt;

/// Compilation error: any stage's failure.
#[derive(Debug)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(parse::ParseError),
    /// Type checking failed.
    Sema(sema::SemaError),
    /// Code generation / linking failed.
    Asm(asm::AsmError),
    /// The image rejected a write.
    Image(brew_image::MemFault),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Sema(e) => write!(f, "{e}"),
            CompileError::Asm(e) => write!(f, "codegen error: {e}"),
            CompileError::Image(e) => write!(f, "image error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<parse::ParseError> for CompileError {
    fn from(e: parse::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<sema::SemaError> for CompileError {
    fn from(e: sema::SemaError) -> Self {
        CompileError::Sema(e)
    }
}

impl From<asm::AsmError> for CompileError {
    fn from(e: asm::AsmError) -> Self {
        CompileError::Asm(e)
    }
}

impl From<brew_image::MemFault> for CompileError {
    fn from(e: brew_image::MemFault) -> Self {
        CompileError::Image(e)
    }
}

/// Addresses of everything a compilation produced.
#[derive(Debug, Clone, Default)]
pub struct Compiled {
    /// Function name → entry address.
    pub funcs: HashMap<String, u64>,
    /// Function name → encoded length in bytes.
    pub func_len: HashMap<String, usize>,
    /// Global name → data address.
    pub globals: HashMap<String, u64>,
    /// Function name → signature.
    pub sigs: HashMap<String, std::sync::Arc<types::Sig>>,
}

impl Compiled {
    /// Entry address of a function.
    pub fn func(&self, name: &str) -> Option<u64> {
        self.funcs.get(name).copied()
    }

    /// Address of a global.
    pub fn global(&self, name: &str) -> Option<u64> {
        self.globals.get(name).copied()
    }
}

/// Compile mini-C source into `img`: globals into the data segment,
/// functions into the code segment, all symbols defined in the image.
pub fn compile_into(src: &str, img: &Image) -> Result<Compiled, CompileError> {
    let items = parse::parse(src)?;
    let prog = sema::check(&items)?;

    // 1. Allocate globals so code generation can embed their addresses.
    let mut out = Compiled::default();
    for g in &prog.globals {
        let addr = img.alloc_data(g.size, 8);
        out.globals.insert(g.name.clone(), addr);
        img.define(g.name.clone(), addr);
    }

    // 2. Generate code for every function, then lay them out.
    let mut asms = Vec::new();
    for f in &prog.funcs {
        let a = codegen::gen_func(f, &out.globals)?;
        let len = a.byte_len()?;
        let addr = img.alloc_code(&vec![0u8; len]);
        out.funcs.insert(f.name.clone(), addr);
        out.func_len.insert(f.name.clone(), len);
        out.sigs.insert(f.name.clone(), f.sig.clone());
        img.define(f.name.clone(), addr);
        asms.push((f.name.clone(), addr, a));
    }

    // 3. Assemble with full symbol knowledge and install the bytes.
    for (name, addr, a) in asms {
        let funcs = &out.funcs;
        let globals = &out.globals;
        let bytes = a.assemble(addr, &|sym| {
            funcs
                .get(sym)
                .copied()
                .or_else(|| globals.get(sym).copied())
        })?;
        debug_assert_eq!(bytes.len(), out.func_len[&name]);
        img.write_bytes(addr, &bytes)?;
    }

    // 4. Global initializers (function addresses now known).
    for g in &prog.globals {
        let base = out.globals[&g.name];
        for (off, val) in &g.inits {
            match val {
                InitVal::I64(v) => img.write_u64(base + off, *v as u64)?,
                InitVal::F64(v) => img.write_f64(base + off, *v)?,
                InitVal::Fn(name) => {
                    let addr = out
                        .funcs
                        .get(name)
                        .copied()
                        .ok_or_else(|| asm::AsmError::UnknownSymbol(name.clone()))?;
                    img.write_u64(base + off, addr)?;
                }
            }
        }
    }

    Ok(out)
}

/// Disassemble `len` code bytes at `addr` into `"address: mnemonic"` lines —
/// used for the Figure-6 style listings and golden tests.
pub fn disasm(img: &Image, addr: u64, len: usize) -> Vec<String> {
    let window = img.code_window(addr, len).unwrap_or_default();
    let n = len.min(window.len());
    let (insts, _) = brew_x86::decode::decode_all(&window[..n], addr);
    insts
        .iter()
        .map(|(a, i)| format!("{a:#08x}: {i}"))
        .collect()
}
