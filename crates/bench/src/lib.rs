//! Shared helpers for the benchmark harnesses.
//!
//! Every figure of the paper has two entry points:
//!
//! * a **binary** (`cargo run -p mra-bench --release --bin figN`) that runs
//!   the full sweep, prints the paper-style table and writes CSV to
//!   `target/experiments/`;
//! * a **bench target** (`cargo bench -p mra-bench --bench ...`) that
//!   prints the same table once and then lets Criterion measure a
//!   representative configuration (so `cargo bench` regenerates every
//!   figure and reports stable timings).
//!
//! Set `MRA_FAST=1` or `MRA_MEASURE_SECS=<s>` to shrink simulation windows.

use std::path::PathBuf;

/// Directory where experiment CSVs are written.
pub fn experiments_dir() -> PathBuf {
    // target/ relative to the workspace root regardless of cwd.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("experiments")
}

/// Write a table as CSV under [`experiments_dir`], reporting the path.
pub fn save_csv(table: &mra_workloads::Table, name: &str) {
    let path = experiments_dir().join(name);
    match table.write_csv(&path) {
        Ok(()) => println!("[csv] wrote {}", path.display()),
        Err(e) => eprintln!("[csv] FAILED to write {}: {e}", path.display()),
    }
}

/// The workspace root (two levels above this crate's manifest) — where the
/// tracked `BENCH_*.json` perf-trajectory files live.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// One engine-throughput measurement of the `bench_engine` target.
#[derive(Clone, Debug)]
pub struct EngineBenchEntry {
    /// Scenario label (shape + φ + load), e.g. `lass_loan_32n80m_phi16_high`.
    pub scenario: String,
    /// Algorithm name as reported by the run.
    pub algo: String,
    /// Simulator events processed.
    pub events: u64,
    /// Wall-clock nanoseconds of the run — the exact number the rate is
    /// derived from (`events_per_sec = events / wall_ns × 1e9`), so the
    /// tracked file is self-consistent to the nanosecond.
    pub wall_ns: u64,
    /// Wall-clock seconds of the run (redundant with `wall_ns`; kept for
    /// human eyes).
    pub wall_secs: f64,
    /// The tracked metric: events per wall-clock second.
    pub events_per_sec: f64,
    /// Critical sections completed (sanity that the run did real work).
    pub cs_completed: u64,
    /// Engine shards the run executed on (1 = sequential path).
    pub shards: usize,
    /// Events processed per shard; sums to `events`.
    pub shard_events: Vec<u64>,
    /// Wall-clock cost of armed ring tracing (`MRA_TRACE=ring`) relative
    /// to the disarmed run, in percent: `100 × (armed − disarmed) /
    /// disarmed`.  Negative values are measurement noise.  `NaN` (written
    /// as `0.0`, like every non-finite value in this file) on entries
    /// where the overhead pass was skipped — the scale-out grid runs are
    /// minutes each and are not re-run armed.
    pub trace_overhead_pct: f64,
}

/// One transport-throughput measurement of the `bench_net` target: a
/// whole loopback cluster run, with the counters of every node's
/// transport folded into the run report.
#[derive(Clone, Debug)]
pub struct NetBenchEntry {
    /// Measurement label, e.g. `lass_loan_8n_reactor`.
    pub scenario: String,
    /// Algorithm name as reported by the run.
    pub algo: String,
    /// Cluster size (nodes).
    pub nodes: usize,
    /// First-transmission frames sent across the cluster.
    pub frames_out: u64,
    /// Everything that hit the wire: first transmissions + retransmits +
    /// standalone acks.
    pub wire_frames: u64,
    /// `write(2)` calls across the cluster.
    pub write_calls: u64,
    /// `read(2)` calls across the cluster.
    pub read_calls: u64,
    /// Wall-clock nanoseconds of the cluster run.
    pub wall_ns: u64,
    /// Process CPU nanoseconds (user + system) consumed by the run — the
    /// denominator of the headline rate, so "per core" means per core
    /// actually burned, not per core present.
    pub cpu_ns: u64,
    /// The headline metric: wire frames moved per CPU-second.
    pub frames_per_sec_per_core: f64,
    /// The coalescing metric: read+write syscalls per wire frame.  Below
    /// 1.0 means batching beats one-syscall-per-frame.
    pub syscalls_per_frame: f64,
    /// Wire frames per `write(2)` call (write-side coalescing factor).
    pub frames_per_write: f64,
    /// Critical sections completed (sanity that the run did real work).
    pub cs_completed: u64,
}

/// One serving-layer measurement of the `bench_serve` target: one offered
/// load level on one algorithm, with goodput and arrival-keyed tail
/// latency.
#[derive(Clone, Debug)]
pub struct ServeBenchEntry {
    /// Measurement label, e.g. `lass_loan_400hz`.
    pub scenario: String,
    /// Algorithm name as reported by the run.
    pub algo: String,
    /// Nodes issuing open-loop arrivals.
    pub nodes: usize,
    /// Fleet-wide offered load, requests/second.
    pub offered_hz: f64,
    /// Fleet-wide goodput (fully served requests / measurement window).
    pub goodput_hz: f64,
    /// Arrivals generated / admitted / shed (conservation check inputs).
    pub offered: u64,
    pub admitted: u64,
    pub shed: u64,
    /// Engine CS batches issued and requests folded into them — their
    /// ratio is the batching factor.
    pub batches: u64,
    pub batched_reqs: u64,
    /// Arrival→grant latency percentiles, milliseconds (the
    /// coordinated-omission-free serving metric).
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub p999_ms: f64,
    /// Issue-keyed p99 for the same run: the gap to `p99_ms` is the
    /// coordinated-omission bias the serving metrics remove.
    pub wait_p99_ms: f64,
    /// Wall-clock nanoseconds of the run.
    pub wall_ns: u64,
}

/// Serialize `entries` as `BENCH_serve.json` at the repo root (the
/// tracked serving-layer perf-trajectory data point) and return the path
/// written.  Same hand-rolled flat JSON as [`write_bench_engine_json`].
pub fn write_bench_serve_json(
    entries: &[ServeBenchEntry],
    mode: &str,
) -> std::io::Result<PathBuf> {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn num(v: f64, decimals: usize) -> String {
        if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "0.0".into()
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bench_serve\",\n");
    out.push_str("  \"unit\": \"goodput_hz\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", esc(mode)));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"algo\": \"{}\", \"nodes\": {}, \
             \"offered_hz\": {}, \"goodput_hz\": {}, \"offered\": {}, \
             \"admitted\": {}, \"shed\": {}, \"batches\": {}, \
             \"batched_reqs\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \
             \"p99_ms\": {}, \"p999_ms\": {}, \"wait_p99_ms\": {}, \
             \"wall_ns\": {}}}{}\n",
            esc(&e.scenario),
            esc(&e.algo),
            e.nodes,
            num(e.offered_hz, 1),
            num(e.goodput_hz, 1),
            e.offered,
            e.admitted,
            e.shed,
            e.batches,
            e.batched_reqs,
            num(e.p50_ms, 3),
            num(e.p95_ms, 3),
            num(e.p99_ms, 3),
            num(e.p999_ms, 3),
            num(e.wait_p99_ms, 3),
            e.wall_ns,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = repo_root().join("BENCH_serve.json");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Serialize `entries` as `BENCH_net.json` at the repo root (the tracked
/// transport perf-trajectory data point) and return the path written.
/// Same hand-rolled flat JSON as [`write_bench_engine_json`].
pub fn write_bench_net_json(entries: &[NetBenchEntry], mode: &str) -> std::io::Result<PathBuf> {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn num(v: f64, decimals: usize) -> String {
        if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "0.0".into()
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bench_net\",\n");
    out.push_str("  \"unit\": \"frames_per_sec_per_core\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", esc(mode)));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"algo\": \"{}\", \
             \"nodes\": {}, \"frames_out\": {}, \"wire_frames\": {}, \
             \"write_calls\": {}, \"read_calls\": {}, \"wall_ns\": {}, \
             \"cpu_ns\": {}, \"frames_per_sec_per_core\": {}, \
             \"syscalls_per_frame\": {}, \"frames_per_write\": {}, \
             \"cs_completed\": {}}}{}\n",
            esc(&e.scenario),
            esc(&e.algo),
            e.nodes,
            e.frames_out,
            e.wire_frames,
            e.write_calls,
            e.read_calls,
            e.wall_ns,
            e.cpu_ns,
            num(e.frames_per_sec_per_core, 1),
            num(e.syscalls_per_frame, 4),
            num(e.frames_per_write, 4),
            e.cs_completed,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = repo_root().join("BENCH_net.json");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Serialize `entries` as `BENCH_engine.json` at the repo root (the
/// tracked perf-trajectory data point) and return the path written.
///
/// Hand-rolled JSON: the offline build environment has no serde, and the
/// schema is flat.  Labels are ASCII identifiers, so escaping only needs
/// quotes and backslashes.
pub fn write_bench_engine_json(
    entries: &[EngineBenchEntry],
    mode: &str,
) -> std::io::Result<PathBuf> {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    fn num(v: f64, decimals: usize) -> String {
        // JSON has no NaN/Infinity; clamp degenerate measurements to 0.
        if v.is_finite() {
            format!("{v:.decimals$}")
        } else {
            "0.0".into()
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bench_engine\",\n");
    out.push_str("  \"unit\": \"events_per_sec\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", esc(mode)));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let shard_events = e
            .shard_events
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"algo\": \"{}\", \"events\": {}, \
             \"wall_ns\": {}, \"wall_secs\": {}, \"events_per_sec\": {}, \
             \"cs_completed\": {}, \"shards\": {}, \"shard_events\": [{}], \
             \"trace_overhead_pct\": {}}}{}\n",
            esc(&e.scenario),
            esc(&e.algo),
            e.events,
            e.wall_ns,
            num(e.wall_secs, 4),
            num(e.events_per_sec, 1),
            e.cs_completed,
            e.shards,
            shard_events,
            num(e.trace_overhead_pct, 2),
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = repo_root().join("BENCH_engine.json");
    std::fs::write(&path, out)?;
    Ok(path)
}
