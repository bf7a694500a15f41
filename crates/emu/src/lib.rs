//! # brew-emu — the CPU execution substrate
//!
//! The paper measures its rewriter on a real Intel CPU; this crate is the
//! substituted execution substrate (DESIGN.md §2 item 3): a concrete
//! interpreter for the x86-64 subset over a [`brew_image::Image`], with a
//! SysV AMD64 call harness, a documented cycle cost model, execution
//! statistics and a value profiler.
//!
//! Both the original (mini-C-compiled) functions and the rewriter's output
//! run here, so every experiment compares variants under identical
//! semantics and cost accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod machine;
pub mod profile;
pub mod state;

pub use cost::{CostModel, Stats};
pub use machine::{CallArgs, CallOutcome, EmuError, Machine, STOP_ADDR};
pub use profile::ValueProfile;
pub use state::CpuState;
