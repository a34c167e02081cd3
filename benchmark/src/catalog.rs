//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step).  An untraced run prints every end-to-end metric and a traced run
//! every per-layer metric, on every workload; a per-layer metric whose
//! layer a workload does not execute reads 0 there (`Scope`).

use std::collections::BTreeMap;

/// Which workloads execute the layer a per-layer metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Measured on every workload (workload-derived, or a fixed probe).
    All,
    /// Only the simulator workloads run it; 0 on `serve-*`.
    Sim,
    /// Only the TCP serving workloads run it; 0 on `sim-*`.
    Serve,
}

/// The four workloads and the engine each one drives.
pub const WORKLOADS: [(&str, Scope); 4] = [
    ("sim-paper", Scope::Sim),
    ("sim-scale", Scope::Sim),
    ("serve-mid", Scope::Serve),
    ("serve-over", Scope::Serve),
];

/// End-to-end metrics `(name, unit)`, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_rps", "1/s"),
    ("cpu_us_per_req", "us"),
    ("grant_mean_ms", "ms"),
    ("grant_p99_ms", "ms"),
    ("msgs_per_cs", "count"),
    ("use_rate", "ratio"),
    ("served_ratio", "ratio"),
];

/// The LASS message kinds `core.msgs_per_cs.<kind>` is broken down by.
pub const LASS_KINDS: [&str; 6] = ["ReqCnt", "ReqCnt1", "ReqRes", "ReqLoan", "Counter", "Token"];

/// The engine-bound reference families beside LASS+loan.
pub const BASELINES: [&str; 5] = ["incremental", "bl", "maddi", "central", "lass_noloan"];

/// Per-layer metrics `(name, unit, scope)`, printed by `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str, Scope)> {
    use Scope::*;
    let mut v: Vec<(String, &'static str, Scope)> = Vec::new();
    let mut add = |name: &str, unit, scope| v.push((name.to_string(), unit, scope));
    // types
    add("types.dynset_union_ns", "ns", All);
    add("types.restable_get_ns", "ns", All);
    // core
    add("core.step_ns", "ns", All);
    add("core.step_share", "ratio", All);
    for kind in LASS_KINDS {
        add(&format!("core.msgs_per_cs.{kind}"), "count", All);
    }
    // baselines (mutex is measured through these)
    for family in BASELINES {
        add(&format!("baselines.{family}_events_per_s"), "1/s", All);
    }
    // simnet
    add("simnet.events_per_s", "1/s", Sim);
    add("simnet.engine_share", "ratio", Sim);
    add("simnet.floor_events_per_s", "1/s", All);
    add("simnet.build_s", "s", All);
    add("simnet.shard_speedup", "ratio", All);
    add("simnet.shard_cpu_ratio", "ratio", All);
    add("simnet.shard_balance", "ratio", All);
    // protocol
    add("protocol.codec_ns_per_msg", "ns", All);
    // net
    add("net.frames_per_req", "count", Serve);
    add("net.bytes_per_req", "B", Serve);
    add("net.syscalls_per_frame", "count", Serve);
    add("net.frames_per_write", "count", Serve);
    add("net.mesh_connect_ms", "ms", Serve);
    add("net.runtime_share", "ratio", Serve);
    add("net.frame_codec_ns", "ns", All);
    add("net.closed_cpu_us_per_frame", "us", All);
    add("net.closed_cs_per_s", "1/s", All);
    // serve
    add("serve.queue_wait_p50_ms", "ms", Serve);
    add("serve.queue_wait_p99_ms", "ms", Serve);
    add("serve.issue_to_grant_p50_ms", "ms", Serve);
    add("serve.issue_to_grant_p99_ms", "ms", Serve);
    add("serve.hold_mean_ms", "ms", Serve);
    add("serve.budget_residual_pct", "%", Serve);
    add("serve.grant_p50_ms", "ms", Serve);
    add("serve.shed_ratio", "ratio", Serve);
    add("serve.batch_mean", "count", Serve);
    add("serve.workload_share", "ratio", Serve);
    add("serve.offered_rps", "1/s", Serve);
    add("serve.offered_error_pct", "%", Serve);
    add("serve.capacity_bound_rps", "1/s", Serve);
    add("serve.capacity_share", "ratio", Serve);
    add("serve.offer_ns", "ns", All);
    add("serve.pop_batch_ns_d8", "ns", All);
    add("serve.pop_batch_ns_d64", "ns", All);
    // obs
    add("obs.trace_overhead_pct", "%", All);
    add("obs.loghist_record_ns", "ns", All);
    // workloads
    add("workloads.share", "ratio", Sim);
    add("workloads.gen_ns_per_req", "ns", All);
    // the instrument itself
    add("bench.span_overhead_pct", "%", All);
    add("bench.slice_spread_pct", "%", All);
    add("bench.first_slice_s", "s", All);
    add("bench.slices", "count", All);
    v
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Insert `core.msgs_per_cs.<kind>` for every LASS kind (0 when a run sent
/// none of a kind).
pub fn insert_msgs_per_cs(values: &mut Values, msg_by_kind: &[(&'static str, u64)], cs: f64) {
    for kind in LASS_KINDS {
        let count = msg_by_kind
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, c)| *c);
        values.insert(format!("core.msgs_per_cs.{kind}"), count as f64 / cs);
    }
}

/// Pick the catalogue's metrics out of `values`, in catalogue order:
/// every name must be present and finite, except that a per-layer metric
/// out of the workload's scope reads 0.
pub fn select(
    values: &Values,
    traced: bool,
    workload_scope: Scope,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let wanted: Vec<(String, &'static str, Scope)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u, Scope::All))
            .collect()
    };
    let mut out = Vec::with_capacity(wanted.len());
    for (name, unit, scope) in wanted {
        let value = match values.get(&name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not a number: {v}")),
            None if scope != Scope::All && scope != workload_scope => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        out.push((name, value, unit));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this catalogue must list the same names with
    /// the same units, nothing more and nothing less.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let entry = |name: &str, unit: &str| format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&entry(name, unit)),
                "end_to_end lacks {name} [{unit}]"
            );
        }
        let layers = per_layer();
        for (name, unit, _) in &layers {
            assert!(
                json.contains(&entry(name, unit)),
                "per_layer lacks {name} [{unit}]"
            );
        }
        for (name, _) in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\":")),
                "no workload {name}"
            );
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + layers.len(),
            "BENCHMARK.json lists extra metrics"
        );
    }

    #[test]
    fn select_zero_fills_out_of_scope_and_rejects_gaps() {
        let mut values = Values::new();
        for (name, _, scope) in per_layer() {
            if scope != Scope::Serve {
                values.insert(name, 1.0);
            }
        }
        let picked = select(&values, true, Scope::Sim).expect("sim run is complete");
        assert_eq!(picked.len(), per_layer().len());
        let by_name: BTreeMap<_, _> = picked.iter().map(|(n, v, _)| (n.as_str(), *v)).collect();
        assert_eq!(by_name["net.frames_per_req"], 0.0);
        assert_eq!(by_name["core.step_ns"], 1.0);
        // The same values are incomplete for a serving workload…
        assert!(select(&values, true, Scope::Serve).is_err());
        // …and a non-finite value is never printed.
        values.insert("core.step_ns".into(), f64::NAN);
        assert!(select(&values, true, Scope::Sim).is_err());
    }
}
