//! A/A calibration: the same code measured twice.
//!
//! `--aa N` runs, for every workload (or the one named), two interleaved sets (A B A B …) of
//! N untraced runs, each run a child process of this binary so that set-up
//! time and peak memory are per-run facts.  Both sets use the same N
//! seeds.  Per end-to-end metric it prints each set's median and
//! quartiles, each set's spread (IQR ÷ median, the acceptance rule's
//! measure) and the gap between the two medians: a bound is only worth
//! committing if it exceeds both.

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::estimate::{median, quartiles, spread_pct};
use std::collections::BTreeMap;
use std::process::Command;

/// First seed of a calibration set; run `i` of either set uses `BASE + i`.
const SEED_BASE: u64 = 101;

/// Pull `name → value` out of the result line a run prints last.
pub fn parse_result_line(line: &str) -> Result<BTreeMap<String, f64>, String> {
    let body = line
        .split_once("\"metrics\": {")
        .map(|(_, rest)| rest)
        .ok_or("no metrics object in the result line")?;
    let mut out = BTreeMap::new();
    for entry in body.split("\"}").filter(|e| e.contains("\"value\"")) {
        let (name, rest) = entry
            .split_once("\": {\"value\": ")
            .ok_or_else(|| format!("malformed metric entry {entry:?}"))?;
        let name = name.rsplit('"').next().unwrap_or_default();
        let number = rest.split(',').next().unwrap_or_default();
        let value = number
            .trim()
            .parse()
            .map_err(|e| format!("{name}: {number:?}: {e}"))?;
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

fn child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_result_line(stdout.lines().last().unwrap_or_default())
}

/// Run the calibration, printing the table workload by workload (a full
/// calibration takes most of an hour).  A run that fails is reported and
/// left out; the calibration then ends in an error.
pub fn run(runs: usize, seconds: f64, only: Option<&str>) -> Result<String, String> {
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| only.map_or(true, |o| o == *name))
        .collect();
    if workloads.is_empty() {
        return Err(format!("unknown workload {}", only.unwrap_or_default()));
    }
    println!(
        "A/A calibration: 2 interleaved sets x {runs} runs per workload, seeds {SEED_BASE}..{}, {seconds} s per run\n\n\
         | workload | metric | median A | Q1-Q3 A | median B | Q1-Q3 B | spread A % | spread B % | gap % |\n\
         |---|---|---|---|---|---|---|---|---|",
        SEED_BASE + runs as u64 - 1
    );
    let mut failures = Vec::new();
    for workload in &workloads {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        for i in 0..runs {
            for (label, set) in ["A", "B"].iter().zip(sets.iter_mut()) {
                eprintln!("aa: {workload} run {} of {runs}, set {label}", i + 1);
                match child(workload, SEED_BASE + i as u64, seconds) {
                    Ok(values) => values.into_iter().for_each(|(name, value)| {
                        set.entry(name).or_default().push(value);
                    }),
                    Err(e) => failures.push(e),
                }
            }
        }
        for (name, _) in END_TO_END {
            let (Some(a), Some(b)) = (sets[0].get(name), sets[1].get(name)) else {
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (med_a, med_b) = (median(a), median(b));
            let ((a1, a3), (b1, b3)) = (quartiles(a), quartiles(b));
            println!(
                "| {workload} | {name} | {med_a:.6} | {a1:.6}-{a3:.6} | {med_b:.6} | {b1:.6}-{b3:.6} | \
                 {:.2} | {:.2} | {:.2} |",
                spread_pct(a),
                spread_pct(b),
                100.0 * (med_b - med_a).abs() / med_a.abs()
            );
        }
    }
    if failures.is_empty() {
        Ok(format!(
            "\nall {} runs passed their output checks",
            2 * runs * workloads.len()
        ))
    } else {
        Err(format!(
            "{} runs failed:\n{}",
            failures.len(),
            failures.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_line_a_run_prints() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.0071, \"unit\": \"s\"}, \
                    \"goodput_rps\": {\"value\": 36412.5, \"unit\": \"1/s\"}, \
                    \"core.msgs_per_cs.Token\": {\"value\": 2e-3, \"unit\": \"count\"}}}";
        let got = parse_result_line(line).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got["setup_s"], 0.0071);
        assert_eq!(got["goodput_rps"], 36412.5);
        assert_eq!(got["core.msgs_per_cs.Token"], 0.002);
        assert!(parse_result_line("no json here").is_err());
    }
}
