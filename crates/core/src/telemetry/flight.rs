//! Flight recorder: a lock-free, allocation-free MPSC ring journal of
//! manager activity.
//!
//! The metrics registry answers "how many"; the flight recorder answers
//! "what happened, in what order, and why" — a fixed-capacity ring of
//! seqlock-stamped event records that every manager path (dispatch
//! outcomes, tiering decisions with their heat score and threshold,
//! epoch publish/reclaim, persistence, panic containment) writes into
//! with monotonic nanosecond timestamps. Think of an aircraft flight
//! recorder: it is always on, it never blocks or allocates on the hot
//! path, and when something goes wrong the last `capacity` events are
//! right there to dump.
//!
//! # Record-path contract
//!
//! [`FlightRecorder::record`] is **lock-free and allocation-free**: one
//! `fetch_add` claims a ring ticket (slot = ticket mod capacity), one CAS
//! claims the slot's sequence word odd, the payload words are stored
//! *exclusively*, and the sequence word is stamped even — a per-slot
//! seqlock whose write side is owned, never shared. Two writers racing
//! for the same slot (a full lap apart) resolve at the claim CAS: the
//! later ticket wins the slot (drop-oldest); if the earlier writer is
//! already mid-payload, the later one abandons instead of interleaving
//! stores — so a slot's payload words always belong to exactly one
//! record. Overwritten events are *counted*, never blocked on:
//! `head - capacity` is exactly the number of records lost to
//! wraparound.
//!
//! Every payload word is an `AtomicU64`, so a torn read is impossible at
//! the language level; the seqlock stamps only decide whether a slot's
//! words belong to one consistent record — and, because writes are
//! exclusive, a consistent even stamp now *proves* it.
//! [`FlightRecorder::dump`] validates each slot's stamp before and after
//! reading the payload and classifies the failures: a slot caught
//! genuinely mid-write counts as `torn`; a slot that consistently holds
//! a different lap's record (overwritten during the dump, or its write
//! abandoned) counts as `lapped`. Dumping concurrently with writers is
//! safe and wait-free for both sides, and a quiesced ring always dumps
//! `torn == 0` — both properties are exercised by the `flight.rs`
//! eight-writer torture and forced-lap regression tests.
//!
//! # Timestamps
//!
//! All timestamps come from one process-global monotonic epoch
//! ([`now_ns`]), so events recorded by different threads sort onto a
//! single timeline and per-thread order is monotone by construction.
//! Thread ids are compact (first flight-recorder use on a thread assigns
//! the next integer), so dumps stay readable.
//!
//! # Exports
//!
//! - [`FlightDump::render_text`] — the line-oriented dump format
//!   (`ts=<ns> tid=<n> kind=<NAME> k=v ...`) that `brew-inspect` parses
//!   and panic dumps use;
//! - [`FlightDump::to_chrome_json`] — instant events in the
//!   chrome://tracing format;
//! - [`merged_chrome_json`] — one timeline merging a rewrite's
//!   [`SpanRecorder`] span tree with the flight
//!   events around it. Both exports pass the strict
//!   [`validate_json`](super::validate_json) gate.

pub use super::table::{ArgFmt, FlightKind};
use super::{json_escape, SpanRecorder};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-global monotonic epoch every flight timestamp is relative
/// to — first use pins it.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-global flight epoch. Monotonic across
/// threads (one shared clock), so per-thread event order is monotone and
/// cross-thread timestamps are directly comparable.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Compact id of the calling thread: the first flight-recorder use on a
/// thread assigns the next integer (starting at 1).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Convert a heat score to the milli fixed-point payload word.
pub fn milli(v: f64) -> u64 {
    (v.max(0.0) * 1000.0) as u64
}

/// One decoded flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Nanoseconds since the process flight epoch ([`now_ns`]).
    pub ts_ns: u64,
    /// Compact recorder thread id ([`thread_id`]).
    pub tid: u64,
    /// What happened.
    pub kind: FlightKind,
    /// Raw payload words; `kind.args()` names the meaningful prefix.
    pub args: [u64; 4],
}

impl FlightEntry {
    /// Render as one dump line: `ts=<ns> tid=<n> kind=<NAME> k=v ...`.
    pub fn render_line(&self) -> String {
        let mut out = format!(
            "ts={} tid={} kind={}",
            self.ts_ns,
            self.tid,
            self.kind.label()
        );
        for (i, (name, fmt)) in self.kind.args().iter().enumerate() {
            out.push_str(&format!(" {name}={}", render_arg(*fmt, self.args[i])));
        }
        out
    }
}

/// One payload word in the format its table row names.
fn render_arg(fmt: ArgFmt, v: u64) -> String {
    match fmt {
        ArgFmt::Hex => format!("{v:#x}"),
        ArgFmt::Dec => format!("{v}"),
        ArgFmt::Milli => format!("{}.{:03}", v / 1000, v % 1000),
    }
}

/// Payload words per slot: packed kind+tid, timestamp, four arguments.
const SLOT_WORDS: usize = 6;

struct Slot {
    /// Seqlock stamp: `0` = never written, `2t+1` = ticket `t` writing,
    /// `2t+2` = ticket `t` complete.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

/// The ring journal. Construction allocates the slots once; recording
/// never allocates or locks again. Share it in an `Arc`.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    mask: u64,
    /// Ticket counter; slot = ticket & mask. `head - capacity` (when
    /// positive) is the number of overwritten (dropped-oldest) records.
    head: AtomicU64,
    enabled: AtomicBool,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish()
    }
}

/// Default ring capacity (slots) used by the manager builder.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder with `capacity` slots (rounded up to a power of two,
    /// minimum 64). This is the only allocation the recorder ever makes.
    pub fn new(capacity: usize) -> Self {
        let n = capacity.max(64).next_power_of_two();
        let slots = (0..n)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FlightRecorder {
            slots,
            mask: (n - 1) as u64,
            head: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Turn recording on or off; off reduces [`record`](Self::record) to
    /// one relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the recorder accepts events.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Total records accepted so far (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records lost to drop-oldest wraparound so far.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Record one event. Lock-free, allocation-free, never blocks: one
    /// ticket `fetch_add`, one clock read, one claim CAS, seven atomic
    /// stores. Unused argument positions should be 0.
    pub fn record(&self, kind: FlightKind, args: [u64; 4]) {
        if !self.enabled() {
            return;
        }
        let ts = now_ns();
        let tid = thread_id();
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        // Claim the slot by CAS-ing its stamp to our odd value. The claim
        // makes the payload stores *exclusive*: once `seq == 2t+1`, every
        // other writer for this slot abandons (below), so two racing
        // writers can never interleave payload words under a stamp that
        // later reads as consistent — the full-lap torn-write race of the
        // blind-store protocol is structurally closed.
        let mut seen = slot.seq.load(Ordering::Relaxed);
        loop {
            // A stamp at or above ours means a writer a full lap *ahead*
            // already owns (or finished) the slot; drop-oldest says our
            // older record loses.
            if seen > ticket * 2 {
                return;
            }
            // An odd lower stamp is a writer a full lap *behind* us still
            // mid-payload. Stealing the slot would mix payloads, and
            // waiting would block the hot path — abandon our record
            // instead (one ring lap raced an eight-store window; the slot
            // then reads as a consistent older record, counted `lapped`).
            if seen % 2 == 1 {
                return;
            }
            match slot.seq.compare_exchange_weak(
                seen,
                ticket * 2 + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(s) => seen = s,
            }
        }
        slot.words[0].store((kind as u64) | (tid << 8), Ordering::Relaxed);
        slot.words[1].store(ts, Ordering::Relaxed);
        for (i, a) in args.iter().enumerate() {
            slot.words[2 + i].store(*a, Ordering::Relaxed);
        }
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Snapshot the ring into a [`FlightDump`]: up to `capacity` most
    /// recent records, oldest first. Wait-free for both sides — writers
    /// keep recording. A slot caught mid-write counts in
    /// [`FlightDump::torn`]; a slot that consistently holds a *different
    /// lap's* record (overwritten under us, or the expected write was
    /// abandoned) counts in [`FlightDump::lapped`]. Every ticket in the
    /// window lands in exactly one bucket, so `entries + torn + lapped ==
    /// min(recorded, capacity)` — and a quiesced ring always dumps with
    /// `torn == 0`.
    pub fn dump(&self) -> FlightDump {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut entries = Vec::with_capacity((head - start) as usize);
        let mut torn = 0u64;
        let mut lapped = 0u64;
        for ticket in start..head {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            let words: [u64; SLOT_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            std::sync::atomic::fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            // Mid-write: the stamps moved under us, the write is odd
            // (claimed, payload in flight), or the slot was claimed but
            // never stamped (0). These are the only genuine collisions.
            if s1 != s2 || s1 == 0 || !s1.is_multiple_of(2) {
                torn += 1;
                continue;
            }
            // Consistent but the wrong lap: the record we wanted was
            // overwritten while we read (newer stamp) or its writer
            // abandoned against a slower full-lap-behind writer (older
            // stamp). Either way the slot holds one *whole* record — just
            // not ticket's — so it is lapped, not torn.
            if (s1 - 2) / 2 != ticket {
                lapped += 1;
                continue;
            }
            let Some(kind) = FlightKind::from_u8((words[0] & 0xff) as u8) else {
                torn += 1;
                continue;
            };
            entries.push(FlightEntry {
                ts_ns: words[1],
                tid: words[0] >> 8,
                kind,
                args: [words[2], words[3], words[4], words[5]],
            });
        }
        // Tickets are claimed before timestamps are read, so ring order
        // can locally disagree with clock order; the timeline sorts by
        // time (stable, so equal stamps keep ring order).
        entries.sort_by_key(|e| e.ts_ns);
        FlightDump {
            entries,
            dropped: start,
            torn,
            lapped,
            recorded: head,
        }
    }
}

/// A decoded snapshot of the flight ring: the surviving entries plus the
/// loss accounting that makes the snapshot honest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Consistent records, oldest first (sorted by timestamp).
    pub entries: Vec<FlightEntry>,
    /// Records overwritten by drop-oldest before this dump.
    pub dropped: u64,
    /// Slots skipped because a writer was genuinely mid-update while we
    /// read them. A quiesced ring always dumps `torn == 0`.
    pub torn: u64,
    /// Slots that consistently held a different lap's record than the
    /// one this dump expected (overwritten during the dump, or the
    /// expected write was abandoned against a slower lapped writer).
    pub lapped: u64,
    /// Total records accepted by the recorder up to the dump.
    pub recorded: u64,
}

impl FlightDump {
    /// Render the dump in the line-oriented text format `brew-inspect`
    /// consumes: a header line, then one line per entry.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "# brew flight dump v1 entries={} recorded={} dropped={} torn={} lapped={}\n",
            self.entries.len(),
            self.recorded,
            self.dropped,
            self.torn,
            self.lapped
        );
        for e in &self.entries {
            out.push_str(&e.render_line());
            out.push('\n');
        }
        out
    }

    /// Render as chrome://tracing JSON: every entry an instant event on
    /// its recorder thread. Validated by the strict JSON gate like every
    /// telemetry export.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_flight_event(&mut out, e);
        }
        out.push_str("]}");
        super::json::checked_export("flight chrome export", out)
    }
}

/// Append one flight entry as a chrome instant event (pid 1, tid = 100 +
/// recorder tid so flight threads sort after the span track).
fn push_flight_event(out: &mut String, e: &FlightEntry) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"flight\",\"pid\":1,\"tid\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{:.3}",
        json_escape(e.kind.label()),
        100 + e.tid,
        e.ts_ns as f64 / 1_000.0
    ));
    let specs = e.kind.args();
    if !specs.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (name, fmt)) in specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rendered = render_arg(*fmt, e.args[i]);
            out.push_str(&format!("\"{}\":\"{}\"", json_escape(name), rendered));
        }
        out.push('}');
    }
    out.push('}');
}

/// Merge a rewrite's span tree and a flight dump onto **one**
/// chrome://tracing timeline: spans keep their tid 1 track, flight events
/// land on per-thread tracks (tid 100+), and span timestamps are shifted
/// by the recorder's flight-epoch offset so both clocks agree. Open the
/// output in Perfetto to see manager decisions interleaved with the
/// rewrite phases they triggered.
pub fn merged_chrome_json(spans: &SpanRecorder, dump: &FlightDump) -> String {
    let base = spans.flight_epoch_ns();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for e in spans.events() {
        if !first {
            out.push(',');
        }
        first = false;
        e.push_chrome(&mut out, base);
    }
    for e in &dump.entries {
        if !first {
            out.push(',');
        }
        first = false;
        push_flight_event(&mut out, e);
    }
    out.push_str("]}");
    super::json::checked_export("merged chrome export", out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_dump_roundtrip() {
        let r = FlightRecorder::new(64);
        r.record(FlightKind::Miss, [0x40_0000, 0, 0, 0]);
        r.record(FlightKind::Rewritten, [0x40_0000, 0x90_0040, 128, 55_000]);
        let d = r.dump();
        assert_eq!(d.entries.len(), 2);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.torn, 0);
        assert_eq!(d.entries[0].kind, FlightKind::Miss);
        assert_eq!(d.entries[1].args[2], 128);
        assert!(d.entries[0].ts_ns <= d.entries[1].ts_ns);
        let text = d.render_text();
        assert!(text.starts_with("# brew flight dump v1"));
        assert!(text.contains("kind=REWRITTEN func=0x400000 entry=0x900040 len=128 ns=55000"));
    }

    #[test]
    fn drop_oldest_counts_without_blocking() {
        let r = FlightRecorder::new(64); // rounds to 64 slots
        for i in 0..100u64 {
            r.record(FlightKind::Hit, [i, i, 0, 0]);
        }
        let d = r.dump();
        assert_eq!(d.recorded, 100);
        assert_eq!(d.dropped, 36);
        assert_eq!(d.entries.len(), 64);
        // The survivors are exactly the newest 64, in order.
        let firsts: Vec<u64> = d.entries.iter().map(|e| e.args[0]).collect();
        assert_eq!(firsts, (36..100).collect::<Vec<_>>());
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let r = FlightRecorder::new(64);
        r.set_enabled(false);
        r.record(FlightKind::Hit, [1, 2, 0, 0]);
        assert_eq!(r.recorded(), 0);
        r.set_enabled(true);
        r.record(FlightKind::Hit, [1, 2, 0, 0]);
        assert_eq!(r.dump().entries.len(), 1);
    }

    #[test]
    fn milli_renders_fixed_point() {
        let e = FlightEntry {
            ts_ns: 5,
            tid: 1,
            kind: FlightKind::Promoted,
            args: [0x40, 0x7, milli(9.5), milli(8.0)],
        };
        let line = e.render_line();
        assert!(line.contains("heat=9.500"), "{line}");
        assert!(line.contains("bar=8.000"), "{line}");
    }

    #[test]
    fn chrome_export_is_valid_and_merges_with_spans() {
        let mut spans = SpanRecorder::new();
        let t = spans.now_ns();
        spans.complete("trace", "phase", t, vec![]);
        let r = FlightRecorder::new(64);
        r.record(FlightKind::Published, [0x40_0000, 0x90_0040, 0, 0]);
        let d = r.dump();
        let solo = d.to_chrome_json();
        crate::telemetry::validate_json(&solo).unwrap();
        let merged = merged_chrome_json(&spans, &d);
        crate::telemetry::validate_json(&merged).unwrap();
        assert!(merged.contains("\"name\":\"trace\""));
        assert!(merged.contains("\"name\":\"PUBLISHED\""));
        assert!(merged.contains("\"cat\":\"flight\""));
    }

    #[test]
    fn timestamps_are_globally_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        let t1 = std::thread::spawn(now_ns).join().unwrap();
        let t2 = now_ns();
        assert!(t2 >= t1 || t2 + 1_000_000 > t1); // shared epoch, no per-thread reset
    }

    #[test]
    fn kind_discriminants_roundtrip() {
        for k in FlightKind::ALL {
            assert_eq!(FlightKind::from_u8(*k as u8), Some(*k));
            assert!(k.args().len() <= 4);
        }
        assert_eq!(FlightKind::from_u8(0), None);
        assert_eq!(FlightKind::from_u8(200), None);
    }
}
