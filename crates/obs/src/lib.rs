//! # mra-obs — unified causal tracing and transport counters
//!
//! The paper's whole argument is an observability claim: synchronization
//! *cost*, measured as messages and waiting time per critical section.
//! This crate turns that cost from a post-hoc aggregate into a measured,
//! per-message-type, per-link, causally ordered quantity — on every
//! substrate (simulator, virtual test network, TCP).
//!
//! A run's *numbers* (messages and waiting time per critical section)
//! come from one place, `mra-sim`'s `Collector → RunResult`; this crate
//! adds the causal event stream beside them and carries the transport's
//! counters out.  What is here:
//!
//! * **Structured event tracing** ([`tracer`]) — a compact, fixed-size
//!   [`TraceEvent`] (send / recv / cs-request / cs-enter / cs-exit /
//!   retransmit / fault-verdict) with node, peer, message-type tag,
//!   Lamport stamp and event time, emitted through an [`EngineTracer`]
//!   that is a no-op unless armed: every hook is one inline flag check,
//!   so the simulator's zero-alloc guard passes with tracing compiled in
//!   and disarmed.
//! * **Counters** ([`registry`]) — [`KindCounts`], the per-message-type
//!   table behind `RunResult::msg_by_kind` and [`NetCounters::by_kind`],
//!   and [`NetCounters`], what the TCP reactor tallies and
//!   `RunResult::obs.net` reports.
//! * **A mergeable histogram** ([`hist`]) — log2-bucketed [`LogHist`]:
//!   the serving layer's (`mra-serve::ServeStats`) fleet-mergeable
//!   latency histogram, fixed-size state that scales to millions of
//!   requests where a full sample vector cannot.  Everything else in the
//!   workspace reports exact percentiles over `RunResult::records`.
//! * **Sinks + analysis** ([`jsonl`], [`analyze`]) — an in-memory ring or
//!   unbounded sink, a hand-rolled JSONL export/import (this workspace has
//!   no serde), and the causal-consistency checks behind the `mra-trace`
//!   binary: no recv without a matching send, per-node Lamport
//!   monotonicity, and per-link frame conservation.
//!
//! The environment knobs (`MRA_TRACE`, `MRA_TRACE_FILE`) are parsed here
//! ([`trace_mode_from_env`], [`trace_file_from_env`]) so every substrate
//! agrees on their meaning.

pub mod analyze;
pub mod event;
pub mod hist;
pub mod jsonl;
pub mod registry;
pub mod tracer;

pub use analyze::{check_events, message_breakdown, Breakdown, CheckReport, RunTrace};
pub use event::{EventKind, OwnedEvent, TraceEvent, NO_PEER};
pub use hist::LogHist;
pub use jsonl::{parse_jsonl, render_jsonl, write_jsonl_file};
pub use registry::{KindCounts, NetCounters};
pub use tracer::{EngineTracer, ObsReport, TraceLog, TraceMode, TraceRec};

/// Tracing mode from the `MRA_TRACE` environment variable.
///
/// * `"0"` — [`TraceMode::Off`], unconditionally;
/// * unset or empty — [`TraceMode::Off`], unless `MRA_TRACE_FILE` is set
///   (a file path implies the unbounded sink, so
///   `MRA_TRACE_FILE=t.jsonl` alone records and exports a run);
/// * `"ring"` or `"ring:<cap>"` — a pre-sized in-memory ring holding the
///   last `cap` events (default 65 536): fixed memory, oldest events
///   overwritten, the mode benchmarks and always-on capture use;
/// * anything else (conventionally `"1"`) — an unbounded in-memory sink,
///   the mode JSONL export and the determinism tests use.
pub fn trace_mode_from_env() -> TraceMode {
    match std::env::var("MRA_TRACE") {
        Ok(v) if v == "0" => TraceMode::Off,
        Ok(v) if v == "ring" => TraceMode::Ring(tracer::DEFAULT_RING_CAP),
        Ok(v) if !v.is_empty() => {
            match v.strip_prefix("ring:").and_then(|c| c.parse::<usize>().ok()) {
                Some(cap) => TraceMode::Ring(cap.max(1)),
                None => TraceMode::Unbounded,
            }
        }
        _ => {
            if trace_file_from_env().is_some() {
                TraceMode::Unbounded
            } else {
                TraceMode::Off
            }
        }
    }
}

/// Trace export path from `MRA_TRACE_FILE` (unset or empty = no export).
/// Each traced run overwrites the file — the knob is meant for single
/// runs (`mra-trace --record` passes an explicit path instead); under a
/// parallel sweep the last finishing run wins.
pub fn trace_file_from_env() -> Option<String> {
    std::env::var("MRA_TRACE_FILE").ok().filter(|v| !v.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Env-knob parsing matrix.  One test body: env mutation must not race
    /// another test in this binary.
    #[test]
    fn trace_mode_env_matrix() {
        std::env::remove_var("MRA_TRACE");
        std::env::remove_var("MRA_TRACE_FILE");
        assert_eq!(trace_mode_from_env(), TraceMode::Off);

        std::env::set_var("MRA_TRACE", "0");
        assert_eq!(trace_mode_from_env(), TraceMode::Off);

        std::env::set_var("MRA_TRACE", "1");
        assert_eq!(trace_mode_from_env(), TraceMode::Unbounded);

        std::env::set_var("MRA_TRACE", "ring");
        assert_eq!(trace_mode_from_env(), TraceMode::Ring(tracer::DEFAULT_RING_CAP));

        std::env::set_var("MRA_TRACE", "ring:128");
        assert_eq!(trace_mode_from_env(), TraceMode::Ring(128));

        // A file path alone implies the unbounded sink.
        std::env::remove_var("MRA_TRACE");
        std::env::set_var("MRA_TRACE_FILE", "t.jsonl");
        assert_eq!(trace_mode_from_env(), TraceMode::Unbounded);
        assert_eq!(trace_file_from_env().as_deref(), Some("t.jsonl"));

        // But an explicit "0" wins over the file path.
        std::env::set_var("MRA_TRACE", "0");
        assert_eq!(trace_mode_from_env(), TraceMode::Off);

        std::env::remove_var("MRA_TRACE");
        std::env::remove_var("MRA_TRACE_FILE");
    }
}
