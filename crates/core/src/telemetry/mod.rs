//! Observability for the rewriting pipeline.
//!
//! The paper's evaluation (§V) is an exercise in measurement: where does
//! rewrite time go, how much code is generated, do guarded variants
//! actually get hit? This module is that measurement layer, built from
//! three dependency-free pieces:
//!
//! - [`metrics`] — a lock-free [`MetricsRegistry`]
//!   of atomic counters, gauges and fixed-bucket histograms. The
//!   [`SpecializationManager`](crate::manager::SpecializationManager)
//!   feeds it on *every* decision, so cache and rewrite-phase metrics are
//!   never silently lost. Exported as Prometheus text exposition and as a
//!   JSON snapshot.
//! - [`span`] — a [`SpanRecorder`] capturing the
//!   rewrite as a span tree (trace → per-block → migration / inlining
//!   decisions → passes → layout / encode / commit), renderable as
//!   chrome://tracing JSON.
//! - [`explain`] — a human-readable report over a recorded rewrite:
//!   phase timings, the decision log, and an annotated disassembly of
//!   the generated code (the paper's Figure 6, reproduced automatically).
//!
//! PR 8 adds the time dimension on top:
//!
//! - [`flight`] — a lock-free, allocation-free [`FlightRecorder`] ring
//!   journal of every manager decision (tiering verdicts with the heat
//!   and threshold that justified them, cache snapshot publishes, persist
//!   save/load, panics), dumpable on demand or on panic and exportable
//!   merged with the span tree on one chrome://tracing timeline.
//! - [`profile`] — [`DispatchProfiler`] attributes measured model
//!   cycles to the dispatch case that took each call (via the counter
//!   page's new cycle bank), feeding per-variant self-time histograms.
//! - [`symbolize`] — a [`SymbolTable`] of live JIT placements rendered
//!   as `/tmp/perf-<pid>.map` and jitdump records so external profilers
//!   can symbolize variant PCs.
//!
//! [`table`] lists every metric and every journaled decision once; the
//! enums, names, dump lines and the counter fold are generated from it,
//! and [`note`] is the one call that writes a decision to both the
//! registry and the recorder — the manager's only two outputs.
//!
//! [`json`] is a tiny strict JSON syntax checker; every export above is
//! routed through it and fails loudly on malformed output.

pub mod explain;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod symbolize;
pub mod table;

pub use explain::explain_report;
pub use flight::{merged_chrome_json, ArgFmt, FlightDump, FlightEntry, FlightKind, FlightRecorder};
pub use json::validate_json;
pub use metrics::{
    Counter, Gauge, Histogram, MetricsRegistry, SelfTimeSnapshot, CYCLE_BUCKET_BOUNDS, ORIGINAL_FP,
};
pub use profile::DispatchProfiler;
pub use span::{SpanEvent, SpanKind, SpanRecorder};
pub use symbolize::{JitSymbol, SymbolKind, SymbolTable};

/// Record one manager decision: bump the counters its [`FlightKind`] row
/// lists (see [`MetricsRegistry::fold`]) and journal it. Unused argument
/// positions should be 0.
pub fn note(metrics: &MetricsRegistry, flight: &FlightRecorder, kind: FlightKind, args: [u64; 4]) {
    metrics.fold(kind, &args);
    flight.record(kind, args);
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
