//! Structured rewrite traces: a span tree over the pipeline.
//!
//! A [`SpanRecorder`] is threaded through one rewrite and collects
//! [`SpanEvent`]s — durationful spans for the phases (trace, each
//! optimization pass, layout, encode, commit) and per-block traces, and
//! instant events for the decisions the paper discusses: world forks at
//! unknown branches, migrations (§III.F), inlining vs kept calls
//! (§III.G), compensation blocks. [`SpanRecorder::to_chrome_json`]
//! renders the whole thing in the chrome://tracing / Perfetto event
//! format; [`super::explain_report`] renders it for humans.

use super::json_escape;
use std::time::Instant;

/// Kind of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A span with a duration (chrome `ph:"X"`).
    Complete,
    /// A point-in-time decision or observation (chrome `ph:"i"`).
    Instant,
}

/// One recorded event of a rewrite trace.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Event name (e.g. `trace`, `block@0x400000`, `migration`).
    pub name: String,
    /// Category: `phase`, `pass`, `block`, `decision`, `emit`.
    pub cat: &'static str,
    /// Kind (complete span or instant event).
    pub kind: SpanKind,
    /// Start time in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

impl SpanEvent {
    /// Append this event as one chrome://tracing object on the span track
    /// (pid 1, tid 1), its timestamp shifted by `base_ns`.
    pub(super) fn push_chrome(&self, out: &mut String, base_ns: u64) {
        let ts = (base_ns + self.start_ns) as f64 / 1_000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":1,\"ts\":{ts:.3}",
            json_escape(&self.name),
            self.cat
        ));
        match self.kind {
            SpanKind::Complete => {
                out.push_str(&format!(
                    ",\"ph\":\"X\",\"dur\":{:.3}",
                    self.dur_ns as f64 / 1_000.0
                ));
            }
            SpanKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
        }
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in self.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// Collects the events of one rewrite. Create it, pass it to
/// [`crate::Rewriter::rewrite_with_trace`], then export or render.
#[derive(Debug)]
pub struct SpanRecorder {
    t0: Instant,
    /// Flight-recorder clock reading at creation, so span-relative
    /// timestamps can be shifted onto the shared flight timeline.
    t0_flight_ns: u64,
    events: Vec<SpanEvent>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    /// A fresh recorder; its clock starts now.
    pub fn new() -> Self {
        SpanRecorder {
            t0: Instant::now(),
            t0_flight_ns: super::flight::now_ns(),
            events: Vec::new(),
        }
    }

    /// The flight-recorder clock reading ([`super::flight::now_ns`]) at
    /// the moment this recorder was created. Adding it to any event's
    /// `start_ns` maps the span onto the flight timeline — how
    /// [`super::flight::merged_chrome_json`] lands both on one track.
    pub fn flight_epoch_ns(&self) -> u64 {
        self.t0_flight_ns
    }

    /// Nanoseconds since the recorder was created — capture this before
    /// starting work, then pass it to [`SpanRecorder::complete`].
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn complete(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        start_ns: u64,
        args: Vec<(String, String)>,
    ) {
        let end = self.now_ns();
        self.events.push(SpanEvent {
            name: name.into(),
            cat,
            kind: SpanKind::Complete,
            start_ns,
            dur_ns: end.saturating_sub(start_ns),
            args,
        });
    }

    /// Record an instant (zero-duration) event at the current time.
    pub fn instant(
        &mut self,
        name: impl Into<String>,
        cat: &'static str,
        args: Vec<(String, String)>,
    ) {
        let now = self.now_ns();
        self.events.push(SpanEvent {
            name: name.into(),
            cat,
            kind: SpanKind::Instant,
            start_ns: now,
            dur_ns: 0,
            args,
        });
    }

    /// Every recorded event, in recording order (spans are recorded at
    /// their *end*, so parents follow their children — sort by `start_ns`
    /// to walk the tree top-down).
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events of one category, in start order.
    pub fn events_in(&self, cat: &str) -> Vec<&SpanEvent> {
        let mut v: Vec<&SpanEvent> = self.events.iter().filter(|e| e.cat == cat).collect();
        v.sort_by_key(|e| e.start_ns);
        v
    }

    /// Total duration of the named complete span (0 if absent).
    pub fn span_ns(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Complete && e.name == name)
            .map(|e| e.dur_ns)
            .sum()
    }

    /// Render as chrome://tracing JSON (`{"traceEvents":[...]}`): load
    /// the output in `chrome://tracing` or Perfetto to see the span tree.
    /// Timestamps are microseconds with nanosecond fractions. The output
    /// is gated through the same strict RFC-8259 validation as every
    /// other telemetry export and panics (construction bug) if invalid.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut sorted: Vec<&SpanEvent> = self.events.iter().collect();
        sorted.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        for (i, e) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            e.push_chrome(&mut out, 0);
        }
        out.push_str("]}");
        super::json::checked_export("span chrome export", out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let mut r = SpanRecorder::new();
        let t = r.now_ns();
        r.instant(
            "migration",
            "decision",
            vec![("addr".into(), "0x40".into())],
        );
        r.complete("trace", "phase", t, vec![("blocks".into(), "3".into())]);
        assert_eq!(r.events().len(), 2);
        assert!(r.span_ns("trace") <= r.now_ns());
        assert_eq!(r.events_in("decision").len(), 1);
        let j = r.to_chrome_json();
        crate::telemetry::validate_json(&j).unwrap();
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"name\":\"migration\""));
    }

    #[test]
    fn empty_recorder_is_valid_json() {
        let r = SpanRecorder::new();
        crate::telemetry::validate_json(&r.to_chrome_json()).unwrap();
    }
}
