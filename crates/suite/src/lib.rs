//! # brew-suite — the full BREW stack under one roof
//!
//! Re-exports every crate of the reproduction so examples, integration
//! tests and downstream users need a single dependency:
//!
//! * [`x86`] — the x86-64 subset ISA model (decoder/encoder/semantics),
//! * [`image`] — the simulated process image,
//! * [`emu`] — the CPU execution substrate with cost model,
//! * [`minic`] — the mini-C compiler producing rewriter input,
//! * [`core`] — the BREW rewriter itself (the paper's contribution),
//! * [`stencil`] — the §V stencil evaluation workload,
//! * [`pgas`] — the PGAS use case (§V intro, §VI, §VIII),
//! * [`static_verify`] — static translation validation of emitted
//!   variants (the `verify_on_publish` gate).
//!
//! See `examples/quickstart.rs` for the Figure-2 experience in thirty
//! lines.

#![warn(missing_docs)]

pub use brew_core as core;
pub use brew_emu as emu;
pub use brew_image as image;
pub use brew_minic as minic;
pub use brew_pgas as pgas;
pub use brew_stencil as stencil;
pub use brew_verify as static_verify;
pub use brew_x86 as x86;

pub mod verify;

/// Everything a typical example needs.
pub mod prelude {
    pub use crate::verify::{probes_for, verify_rewrite, Divergence};
    pub use brew_core::telemetry::merged_chrome_json;
    pub use brew_core::Variant as SpecVariant;
    pub use brew_core::{
        disasm_result, explain_report, make_guard, make_guard_chain, make_guard_chain_counting,
        make_guard_counting, validate_json, ArgValue, CacheStats, CounterPage, DispatchProfiler,
        FlightRecorder, FuncOpts, GuardCase, MetricsRegistry, OptLevel, ParamSpec, RetKind,
        RewriteConfig, RewriteError, RewriteResult, Rewriter, SpanRecorder, SpecRequest,
        SpecializationManager, SymbolKind, SymbolTable,
    };
    pub use brew_emu::{CallArgs, CallOutcome, CostModel, EmuError, Machine, Stats, ValueProfile};
    pub use brew_image::Image;
    pub use brew_minic::{compile_into, disasm, Compiled};
    pub use brew_pgas::PgasArray;
    pub use brew_stencil::{Stencil, Variant};
    pub use brew_verify::{
        publish_gate, publish_gate_with, Finding, Rule, Severity, VerifyGate, VerifyOptions,
        VerifyReport,
    };
}
