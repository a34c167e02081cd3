//! JSONL trace export/import — hand-rolled (no serde offline).
//!
//! ## Schema
//!
//! Line 1 is a run header:
//!
//! ```json
//! {"k":"run","algo":"lass","n":8,"m":16,"events":1234,"dropped":0}
//! ```
//!
//! Every following line is one event in canonical `(at, ord, seq)` order:
//!
//! ```json
//! {"k":"recv","at":1200000,"ord":4294967297,"seq":0,"node":2,"peer":1,"tag":"Req","lam":7,"cause":6,"w":24}
//! ```
//!
//! * `k` — event kind label (`EventKind::label`); `at` — engine time in
//!   nanoseconds; `ord`/`seq` — the engine dispatch key (see
//!   `tracer::TraceRec`); `lam` — the node's Lamport clock after the
//!   event; `cause` — the stamp the message carried (message events);
//!   `w` — weight (bytes, or set size for cs events).
//! * `peer` and `tag` are omitted for non-message events.
//!
//! Integers are plain decimal `u64`; the only escapes the writer emits
//! are `\"`, `\\` and `\u00XX` for control characters, and the parser
//! accepts exactly JSON's escape repertoire.  The determinism test
//! pins a digest of these bytes across commits, so the rendering must
//! stay canonical: fixed key order, no whitespace.

use crate::event::{EventKind, OwnedEvent, NO_PEER};
use crate::tracer::TraceLog;
use std::fmt::Write as _;

/// A parsed trace file: the header plus every event, in file order.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    pub algo: String,
    pub n: usize,
    pub m: usize,
    /// Event count the header declared (checked against `events.len()`).
    pub declared_events: u64,
    /// Ring-overwritten events the header declared.
    pub dropped: u64,
    pub events: Vec<OwnedEvent>,
}

fn esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render a merged log as JSONL (header + one line per event).
pub fn render_jsonl(log: &TraceLog, algo: &str, n: usize, m: usize) -> String {
    // ~96 bytes/line is a comfortable overestimate; avoids regrowth.
    let mut out = String::with_capacity(64 + log.recs.len() * 96);
    out.push_str("{\"k\":\"run\",\"algo\":\"");
    esc(&mut out, algo);
    let _ = writeln!(
        out,
        "\",\"n\":{},\"m\":{},\"events\":{},\"dropped\":{}}}",
        n,
        m,
        log.recs.len(),
        log.dropped
    );
    for r in &log.recs {
        let e = &r.ev;
        let _ = write!(
            out,
            "{{\"k\":\"{}\",\"at\":{},\"ord\":{},\"seq\":{}",
            e.kind.label(),
            r.at.as_nanos(),
            r.ord,
            r.seq
        );
        let _ = write!(out, ",\"node\":{}", e.node);
        if e.peer != NO_PEER {
            let _ = write!(out, ",\"peer\":{}", e.peer);
        }
        if !e.tag.is_empty() {
            out.push_str(",\"tag\":\"");
            esc(&mut out, e.tag);
            out.push('"');
        }
        let _ = writeln!(out, ",\"lam\":{},\"cause\":{},\"w\":{}}}", e.lamport, e.cause, e.weight);
    }
    out
}

/// Render and write a log to `path` in one call.
pub fn write_jsonl_file(
    path: &str,
    log: &TraceLog,
    algo: &str,
    n: usize,
    m: usize,
) -> std::io::Result<()> {
    std::fs::write(path, render_jsonl(log, algo, n, m))
}

#[derive(Clone, Debug, PartialEq)]
enum JVal {
    S(String),
    N(u64),
}

impl JVal {
    fn as_u64(&self) -> Option<u64> {
        match self {
            JVal::N(v) => Some(*v),
            JVal::S(_) => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            JVal::S(s) => Some(s),
            JVal::N(_) => None,
        }
    }
}

/// Parse one flat JSON object of string/u64 values.  Strict: anything the
/// writer would not emit (nesting, floats, negatives, trailing garbage)
/// is an error — a trace file is machine-written, so leniency only hides
/// corruption.
fn parse_line(line: &str) -> Result<Vec<(String, JVal)>, String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let mut pairs = Vec::new();
    let take_string = |i: &mut usize| -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {}", *i));
        }
        *i += 1;
        let mut s = String::new();
        loop {
            match b.get(*i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'u') => {
                            let hex = line
                                .get(*i + 1..*i + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            s.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("invalid codepoint {cp:#x}"))?,
                            );
                            *i += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *i += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 char.
                    let rest = &line[*i..];
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    *i += c.len_utf8();
                }
            }
        }
    };
    if b.first() != Some(&b'{') {
        return Err("expected '{'".into());
    }
    i += 1;
    loop {
        let key = take_string(&mut i)?;
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        let val = if b.get(i) == Some(&b'"') {
            JVal::S(take_string(&mut i)?)
        } else {
            let start = i;
            while b.get(i).is_some_and(|c| c.is_ascii_digit()) {
                i += 1;
            }
            if i == start {
                return Err(format!("expected value for key {key:?}"));
            }
            JVal::N(
                line[start..i]
                    .parse::<u64>()
                    .map_err(|e| format!("bad number for {key:?}: {e}"))?,
            )
        };
        pairs.push((key, val));
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(pairs)
}

fn get<'a>(pairs: &'a [(String, JVal)], key: &str) -> Option<&'a JVal> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req_u64(pairs: &[(String, JVal)], key: &str) -> Result<u64, String> {
    get(pairs, key)
        .and_then(JVal::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

/// Parse a trace file produced by [`render_jsonl`].
///
/// Checks the header's declared event count against the number of event
/// lines, so a truncated file fails loudly rather than passing a causal
/// check on half a trace.
pub fn parse_jsonl(text: &str) -> Result<RunTrace, String> {
    let mut run = RunTrace::default();
    let mut saw_header = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let pairs = parse_line(line).map_err(|e| format!("line {}: {}", lineno + 1, e))?;
        let kind = get(&pairs, "k")
            .and_then(JVal::as_str)
            .ok_or_else(|| format!("line {}: missing \"k\"", lineno + 1))?;
        if kind == "run" {
            if saw_header {
                return Err(format!("line {}: duplicate run header", lineno + 1));
            }
            saw_header = true;
            run.algo = get(&pairs, "algo")
                .and_then(JVal::as_str)
                .ok_or_else(|| format!("line {}: header missing \"algo\"", lineno + 1))?
                .to_string();
            run.n = req_u64(&pairs, "n").map_err(|e| format!("line {}: {e}", lineno + 1))? as usize;
            run.m = req_u64(&pairs, "m").map_err(|e| format!("line {}: {e}", lineno + 1))? as usize;
            run.declared_events =
                req_u64(&pairs, "events").map_err(|e| format!("line {}: {e}", lineno + 1))?;
            run.dropped =
                req_u64(&pairs, "dropped").map_err(|e| format!("line {}: {e}", lineno + 1))?;
            continue;
        }
        if !saw_header {
            return Err(format!("line {}: event before run header", lineno + 1));
        }
        let ek = EventKind::parse(kind)
            .ok_or_else(|| format!("line {}: unknown event kind {kind:?}", lineno + 1))?;
        let u = |key: &str| req_u64(&pairs, key).map_err(|e| format!("line {}: {e}", lineno + 1));
        run.events.push(OwnedEvent {
            kind: ek,
            at_nanos: u("at")?,
            ord: u("ord")?,
            seq: u("seq")? as u32,
            node: u("node")? as u32,
            peer: get(&pairs, "peer").and_then(JVal::as_u64).map_or(NO_PEER, |v| v as u32),
            tag: get(&pairs, "tag").and_then(JVal::as_str).unwrap_or("").to_string(),
            lamport: u("lam")?,
            cause: u("cause")?,
            weight: u("w")? as u32,
        });
    }
    if !saw_header {
        return Err("empty trace: no run header".into());
    }
    if run.declared_events != run.events.len() as u64 {
        return Err(format!(
            "truncated trace: header declares {} events, file has {}",
            run.declared_events,
            run.events.len()
        ));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::tracer::TraceRec;
    use mra_types::Time;

    fn sample_log() -> TraceLog {
        let mk = |kind, at: u64, ord, seq, node, peer, tag, lam, cause, w| TraceRec {
            at: Time::from_nanos(at),
            ord,
            seq,
            ev: TraceEvent { kind, node, peer, tag, lamport: lam, cause, weight: w },
        };
        TraceLog {
            recs: vec![
                mk(EventKind::CsRequest, 0, 3, 0, 1, NO_PEER, "", 1, 0, 2),
                mk(EventKind::Send, 0, 3, 1, 1, 0, "Req", 2, 2, 24),
                mk(EventKind::Recv, 1_000_000, 1 << 32, 0, 0, 1, "Req", 3, 2, 24),
                mk(EventKind::FaultVerdict, 2_000_000, 7, 0, 0, 1, "Req", 3, 2, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn round_trip() {
        let log = sample_log();
        let text = render_jsonl(&log, "lass", 2, 4);
        let run = parse_jsonl(&text).expect("parse");
        assert_eq!(run.algo, "lass");
        assert_eq!(run.n, 2);
        assert_eq!(run.m, 4);
        assert_eq!(run.events.len(), log.recs.len());
        assert_eq!(run.events, log.to_owned_events());
    }

    #[test]
    fn truncation_detected() {
        let log = sample_log();
        let text = render_jsonl(&log, "lass", 2, 4);
        let cut: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        let err = parse_jsonl(&cut).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"k\":\"run\",\"algo\":\"x\"}\n").is_err()); // missing fields
        let log = sample_log();
        let mut text = render_jsonl(&log, "a", 2, 4);
        text.push_str("not json\n");
        assert!(parse_jsonl(&text).is_err());
    }

    #[test]
    fn tag_escaping_round_trips() {
        let log = TraceLog {
            recs: vec![TraceRec {
                at: Time::ZERO,
                ord: 1,
                seq: 0,
                ev: TraceEvent {
                    kind: EventKind::Send,
                    node: 0,
                    peer: 1,
                    tag: "we\"ird\\tag",
                    lamport: 1,
                    cause: 1,
                    weight: 0,
                },
            }],
            dropped: 0,
        };
        let run = parse_jsonl(&render_jsonl(&log, "x\"y", 2, 1)).expect("parse");
        assert_eq!(run.algo, "x\"y");
        assert_eq!(run.events[0].tag, "we\"ird\\tag");
    }
}
