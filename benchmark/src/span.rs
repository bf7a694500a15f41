//! The traced run's span recorder. It lives in the benchmark, wraps the calls
//! the benchmark makes into each layer, keeps everything in memory and writes
//! chrome-trace JSON when the run ends. Spans inside the program are a later
//! change.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share this identifier (0 = outside any request).
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Recorder {
    /// A recorder keeping at most `cap` spans; later ones are counted as
    /// dropped, so a long run cannot grow without bound.
    pub fn new(cap: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Record a finished span from the two instants its caller took around
    /// the layer call. `None` once the recorder is full.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u32,
    ) -> Option<SpanId> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end).max(ns(start)));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per span: its duration minus the durations of its direct
    /// children. A decomposed stage is replayed after its parent call
    /// returns (the manager's stages cannot be intercepted from outside), so
    /// children are charged by duration, not by interval overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let own = self.self_ns();
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += own;
        }
        out
    }

    /// chrome://tracing "complete" events, one per span.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1000.0)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1000.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("request", Json::Num(s.request as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("droppedSpans", Json::Num(self.dropped as f64)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, us: u64) -> Instant {
        origin + Duration::from_micros(us)
    }

    #[test]
    fn self_time_with_nested_and_sibling_children() {
        let mut r = Recorder::new(16);
        let o = r.origin;
        // request 100us ⊃ rewrite 60us ⊃ {passes 10us, emit 5us}; verify 30us
        // is a sibling of rewrite under request.
        let req = r.add("request", at(o, 0), at(o, 100), None, 1).unwrap();
        let rw = r.add("rewrite", at(o, 5), at(o, 65), Some(req), 1).unwrap();
        r.add("passes", at(o, 30), at(o, 40), Some(rw), 1).unwrap();
        r.add("emit", at(o, 40), at(o, 45), Some(rw), 1).unwrap();
        r.add("verify", at(o, 65), at(o, 95), Some(req), 1).unwrap();
        let own = r.self_ns();
        assert_eq!(own, vec![10_000, 45_000, 10_000, 5_000, 30_000]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100_000);
    }

    #[test]
    fn replayed_children_are_charged_by_duration() {
        let mut r = Recorder::new(16);
        let o = r.origin;
        let rw = r.add("rewrite", at(o, 0), at(o, 50), None, 7).unwrap();
        // The replay runs after its parent returned.
        r.add("passes", at(o, 60), at(o, 80), Some(rw), 7).unwrap();
        assert_eq!(r.self_ns(), vec![30_000, 20_000]);
        // A child longer than its parent cannot push self time below zero.
        r.add("emit", at(o, 90), at(o, 190), Some(rw), 7).unwrap();
        assert_eq!(r.self_ns()[0], 0);
    }

    #[test]
    fn totals_group_by_name() {
        let mut r = Recorder::new(16);
        let o = r.origin;
        for i in 0..3u64 {
            let p = r
                .add(
                    "request",
                    at(o, i * 100),
                    at(o, i * 100 + 50),
                    None,
                    i as u32,
                )
                .unwrap();
            r.add(
                "rewrite",
                at(o, i * 100),
                at(o, i * 100 + 20),
                Some(p),
                i as u32,
            );
        }
        let t = r.totals();
        assert_eq!(
            t["request"],
            NameTotal {
                count: 3,
                total_ns: 150_000,
                self_ns: 90_000
            }
        );
        assert_eq!(t["rewrite"].self_ns, 60_000);
    }

    #[test]
    fn full_recorder_drops_and_counts() {
        let mut r = Recorder::new(2);
        let o = r.origin;
        assert!(r.add("a", o, o, None, 0).is_some());
        assert!(r.add("b", o, o, None, 0).is_some());
        assert!(r.add("c", o, o, None, 0).is_none());
        assert_eq!((r.spans().len(), r.dropped()), (2, 1));
    }

    #[test]
    fn chrome_json_parses_and_keeps_links() {
        let mut r = Recorder::new(4);
        let o = r.origin;
        let p = r.add("request", at(o, 1), at(o, 9), None, 3).unwrap();
        r.add("rewrite", at(o, 2), at(o, 5), Some(p), 3);
        let v = Json::parse(&r.chrome_json()).unwrap();
        let ev = v.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[1].get("name").and_then(Json::as_str), Some("rewrite"));
        let args = ev[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("request").and_then(Json::as_f64), Some(3.0));
        assert_eq!(ev[1].get("dur").and_then(Json::as_f64), Some(3.0));
    }
}
