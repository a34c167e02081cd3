//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer: name, start, end, the span that caused it and — for
//! the spans of one request — the request's record index.  They stay in
//! memory until the run ends and are then written as `spans.json`.
//! A span's *self time* is its duration minus its children's.

use mra_sim::ReqRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// How many requests of a slice get their own spans.
const REQUEST_SPAN_CAP: usize = 2_000;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One recorded interval.  `clock` says which clock `start`/`end` read:
/// `"wall"` (ns since the recorder was created) or `"sim"` (the slice's
/// simulated ns) — a request inside the simulator only has the latter.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
    pub clock: &'static str,
}

/// Collects spans; cheap enough to sit around whole slices and probes.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Wall nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a wall-clock span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.add(name, parent, now, now, None, "wall")
    }

    /// End a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a finished span with explicit bounds.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
        request: Option<u64>,
        clock: &'static str,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
            request,
            clock,
        });
        self.spans.len() - 1
    }

    /// Run `f` inside a wall-clock span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Recorder, SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent);
        let out = f(self, id);
        self.close(id);
        out
    }

    /// `(total, self)` nanoseconds per span name and clock; self time is a
    /// span's duration minus the durations of its direct children on the
    /// same clock (children of one parent do not overlap here).
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                if self.spans[p].clock == s.clock {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry((s.name, s.clock)).or_insert((0, 0));
            e.0 += dur;
            e.1 += dur.saturating_sub(kids);
        }
        out
    }

    /// The spans as one JSON array (names are identifiers, no escaping
    /// needed).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"request\": {}, \"clock\": \"{}\"}}",
                s.name,
                opt(s.parent.map(|p| p as u64)),
                s.start_ns,
                s.end_ns,
                opt(s.request),
                s.clock
            );
            out.push_str(if id + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// The four timestamps of one request's life, on one clock.
#[derive(Clone, Copy, Debug)]
pub struct RequestLife {
    pub arrival_ns: u64,
    pub issued_ns: u64,
    pub granted_ns: u64,
    pub released_ns: u64,
}

/// Record one request as a `request` span (arrival → release) with its
/// three budget children: admission-queue wait, issue → grant, hold.
fn record_request(
    rec: &mut Recorder,
    parent: SpanId,
    index: u64,
    life: RequestLife,
    clock: &'static str,
) {
    let id = Some(index);
    let req = rec.add(
        "request",
        Some(parent),
        life.arrival_ns,
        life.released_ns,
        id,
        clock,
    );
    rec.add(
        "serve.queue_wait",
        Some(req),
        life.arrival_ns,
        life.issued_ns,
        id,
        clock,
    );
    rec.add(
        "core.issue_to_grant",
        Some(req),
        life.issued_ns,
        life.granted_ns,
        id,
        clock,
    );
    rec.add(
        "serve.hold",
        Some(req),
        life.granted_ns,
        life.released_ns,
        id,
        clock,
    );
}

/// Record the first completed requests of a slice (at most
/// [`REQUEST_SPAN_CAP`]) under `parent`, request id = record index.
/// Record times count from the engine's own zero; `base_ns` places that
/// zero on the span clock.
pub fn record_requests(
    rec: &mut Recorder,
    parent: SpanId,
    records: &[ReqRecord],
    base_ns: u64,
    clock: &'static str,
) {
    for (i, r) in records.iter().take(REQUEST_SPAN_CAP).enumerate() {
        if let (Some(granted), Some(released)) = (r.granted, r.released) {
            let life = RequestLife {
                arrival_ns: base_ns + r.arrival.as_nanos(),
                issued_ns: base_ns + r.issued.as_nanos(),
                granted_ns: base_ns + granted.as_nanos(),
                released_ns: base_ns + released.as_nanos(),
            };
            record_request(rec, parent, i as u64, life, clock);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_spans_sum_to_arrival_to_release() {
        let mut rec = Recorder::new();
        let slice = rec.add("slice", None, 0, 10_000, None, "sim");
        let lives = [
            RequestLife {
                arrival_ns: 100,
                issued_ns: 400,
                granted_ns: 900,
                released_ns: 2_000,
            },
            // No queueing: arrival == issue.
            RequestLife {
                arrival_ns: 2_500,
                issued_ns: 2_500,
                granted_ns: 2_600,
                released_ns: 4_000,
            },
        ];
        for (i, life) in lives.iter().enumerate() {
            record_request(&mut rec, slice, i as u64, *life, "sim");
        }
        let times = rec.self_times();
        let (total, own) = times[&("request", "sim")];
        assert_eq!(total, 1_900 + 1_500);
        assert_eq!(own, 0, "queue + issue→grant + hold must cover the request");
        let parts: u64 = ["serve.queue_wait", "core.issue_to_grant", "serve.hold"]
            .iter()
            .map(|n| times[&(*n, "sim")].0)
            .sum();
        assert_eq!(parts, total);
        // The slice keeps what its requests do not cover.
        assert_eq!(times[&("slice", "sim")], (10_000, 10_000 - total));
    }

    #[test]
    fn wall_spans_nest_and_serialize() {
        let mut rec = Recorder::new();
        let inner = rec.within("run", None, |rec, run| rec.open("slice", Some(run)));
        rec.close(inner);
        assert_eq!(rec.spans[inner].parent, Some(0));
        assert!(rec.spans[0].end_ns >= rec.spans[0].start_ns);
        let json = rec.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"name\"").count(), 2);
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
    }
}
