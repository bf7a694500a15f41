//! Rewrite failure modes.
//!
//! §III.G of the paper: *"At all times, it is possible that we reach a
//! situation that cannot be handled. [...] This will result in a failure of
//! the rewriting process, but it is not catastrophic. It simply means that
//! the user of the rewriter API has to use the original version of the
//! function."* Every variant here is a recoverable `Err`, never a panic.

use brew_x86::decode::DecodeError;
use brew_x86::encode::EncodeError;
use std::fmt;

/// Why a rewrite failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteError {
    /// An instruction could not be decoded during tracing.
    Undecodable {
        /// Guest address of the instruction.
        addr: u64,
        /// Decoder diagnosis.
        err: DecodeError,
    },
    /// An indirect jump whose target is not known at rewrite time
    /// (explicitly future work in the paper, §III.F).
    IndirectUnknownJump {
        /// Guest address of the jump.
        addr: u64,
    },
    /// Tracing executed a `ud2` or divided by a known zero.
    TraceFault {
        /// Guest address of the faulting instruction.
        addr: u64,
        /// Description.
        what: &'static str,
    },
    /// Reading guest code or known memory faulted.
    BadAddress {
        /// The address that could not be read.
        addr: u64,
    },
    /// The traced instruction budget was exhausted (runaway unrolling).
    TraceBudget,
    /// Too many basic blocks were generated.
    BlockBudget,
    /// Variant migration could not close a loop soundly: a migrated-to
    /// block reads branch flags before setting them.
    UntrustedFlags {
        /// Guest address of the offending block.
        addr: u64,
    },
    /// Stack imbalance: `ret` with a stack depth that does not match the
    /// activation (corrupt or unsupported code shape).
    StackImbalance {
        /// Guest address of the `ret`.
        addr: u64,
    },
    /// The rewritten code did not fit the configured/available JIT space.
    OutOfCodeSpace,
    /// An emitted instruction could not be encoded.
    Unencodable(EncodeError),
    /// A configuration error (e.g. a known parameter index out of range).
    BadConfig(String),
    /// The rewrite pipeline panicked; the panic was contained at the
    /// manager boundary and converted into this error so one pathological
    /// function cannot unwind into its caller or wedge followers on the
    /// in-flight table. The payload is the panic message.
    Internal(String),
    /// A publish gate (static verification) rejected the finished variant.
    /// The variant is never published: the manager treats this like any
    /// other failed rewrite, so dispatch falls back to the original code
    /// and the failure is negatively cached.
    VerifyRejected {
        /// Number of error-severity findings the verifier reported.
        findings: usize,
        /// The first finding, rendered for operators.
        first: String,
    },
    /// A persisted variant failed a structural load check (placement
    /// conflict, fingerprint mismatch, stale snapshot) before it ever
    /// reached the publish gate. Never published; negatively cached like
    /// any other failed rewrite.
    PersistRejected {
        /// What the load check found.
        what: String,
    },
    /// The finished variant's code alone exceeds the manager's global byte
    /// budget: no amount of eviction could make it resident. Refused at
    /// publish (dispatch falls back to the original code) and negatively
    /// cached so retries are answered without re-tracing.
    OverBudget {
        /// Emitted code size of the refused variant.
        code_len: usize,
        /// The manager's global byte budget.
        budget: usize,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Undecodable { addr, err } => {
                write!(f, "undecodable instruction at {addr:#x}: {err}")
            }
            RewriteError::IndirectUnknownJump { addr } => {
                write!(f, "indirect jump with unknown target at {addr:#x}")
            }
            RewriteError::TraceFault { addr, what } => {
                write!(f, "trace fault at {addr:#x}: {what}")
            }
            RewriteError::BadAddress { addr } => write!(f, "unreadable address {addr:#x}"),
            RewriteError::TraceBudget => write!(f, "trace instruction budget exhausted"),
            RewriteError::BlockBudget => write!(f, "basic-block budget exhausted"),
            RewriteError::UntrustedFlags { addr } => {
                write!(f, "block at {addr:#x} reads flags across a world migration")
            }
            RewriteError::StackImbalance { addr } => {
                write!(f, "stack imbalance at ret {addr:#x}")
            }
            RewriteError::OutOfCodeSpace => write!(f, "out of JIT code space"),
            RewriteError::Unencodable(e) => write!(f, "cannot encode rewritten instruction: {e}"),
            RewriteError::BadConfig(s) => write!(f, "bad rewriter configuration: {s}"),
            RewriteError::Internal(s) => write!(f, "internal rewriter panic: {s}"),
            RewriteError::VerifyRejected { findings, first } => {
                write!(
                    f,
                    "static verification rejected variant ({findings} findings; first: {first})"
                )
            }
            RewriteError::PersistRejected { what } => {
                write!(f, "persisted variant rejected on load: {what}")
            }
            RewriteError::OverBudget { code_len, budget } => {
                write!(
                    f,
                    "variant code ({code_len} bytes) exceeds the global budget ({budget} bytes)"
                )
            }
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<EncodeError> for RewriteError {
    fn from(e: EncodeError) -> Self {
        RewriteError::Unencodable(e)
    }
}
