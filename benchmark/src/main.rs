//! The repo's benchmark: one command runs one workload, checks its
//! outputs and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload sim-paper --seed 7 [--seconds 24] [--trace 1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --aa 10 [--workload <name>]
//! ```
//!
//! The last line of standard output is one JSON object (`correct`,
//! `attempted`, `failed`, `metrics`).  A failed output check prints the
//! reason to standard error, prints no metrics and exits non-zero.
//! See `README.md` beside this package for the design.

mod aa;
mod catalog;
mod estimate;
mod probes;
mod serve;
mod sim;
mod slices;
mod spans;
mod timed;

use catalog::WORKLOADS;
use slices::Outcome;
use spans::Recorder;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Seconds one run measures for when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 24.0;

/// Share of a traced run's budget that goes to the workload's own slices;
/// the fixed probes take a roughly constant time on top.
const TRACED_SLICE_SHARE: f64 = 0.5;

#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        traced: bool,
    },
    Aa {
        runs: usize,
        seconds: f64,
        only: Option<String>,
    },
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: mra-benchmark --workload <{}> [--seed <u64>] [--seconds <n>] [--trace [0|1]]\n\
         \x20      mra-benchmark --aa <runs per set, at least 5> [--workload <name>] [--seconds <n>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut aa) =
        (None, 1u64, DEFAULT_SECONDS, false, None);
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--aa" => {
                aa = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    traced = false;
                    it.next();
                }
                Some("1") => {
                    traced = true;
                    it.next();
                }
                Some(next) if !next.starts_with("--") => {
                    return Err(format!("--trace takes 0 or 1, not {next}"))
                }
                _ => traced = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds {seconds} is not a duration"));
    }
    match (aa, workload) {
        (Some(runs), only) if runs >= 5 => Ok(Command::Aa {
            runs,
            seconds,
            only,
        }),
        (Some(_), _) => Err("--aa needs at least 5 runs per set".into()),
        (None, Some(workload)) => Ok(Command::Run {
            workload,
            seed,
            seconds,
            traced,
        }),
        (None, None) => Err("no --workload given".into()),
    }
}

/// Run one workload and return what to print.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let scope = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, scope)| *scope)
        .ok_or_else(|| format!("unknown workload {workload}\n{}", usage()))?;
    let mut rec = Recorder::new();
    let root = rec.open("run", None);
    let slice_seconds = if traced {
        seconds * TRACED_SLICE_SHARE
    } else {
        seconds
    };
    let mut outcome: Outcome = match workload {
        "sim-paper" => sim::run(
            &sim::paper_scenario(seed),
            slice_seconds,
            traced,
            &mut rec,
            root,
        ),
        "sim-scale" => sim::run(
            &sim::scale_scenario(seed),
            slice_seconds,
            traced,
            &mut rec,
            root,
        ),
        "serve-mid" => serve::run(&serve::mid(seed), slice_seconds, traced, &mut rec, root),
        _ => serve::run(&serve::over(seed), slice_seconds, traced, &mut rec, root),
    }?;
    // Memory is an end-to-end metric of the workload alone: read it before
    // the probes allocate anything.
    outcome
        .values
        .insert("peak_rss_mb".into(), slices::peak_rss_mb()?);
    if traced {
        outcome
            .values
            .extend(probes::run_all(&mut rec, root, seed)?);
    }
    rec.close(root);
    let metrics = catalog::select(&outcome.values, traced, scope)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {workload}  seed {seed}  seconds {seconds}  trace {}",
        u8::from(traced)
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "  {note}");
    }
    if traced {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(path).map_err(|e| format!("creating {path}: {e}"))?;
        let file = format!("{path}/spans-{workload}.json");
        std::fs::write(&file, rec.to_json()).map_err(|e| format!("writing {file}: {e}"))?;
        let _ = writeln!(
            out,
            "  {} spans written to {file}; self time = span - children:",
            rec.spans.len()
        );
        for ((name, clock), (total, own)) in rec.self_times() {
            let _ = writeln!(
                out,
                "    {name:<24} [{clock}] total {:>12.3} ms  self {:>12.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    } else {
        let spread = outcome.values["bench.slice_spread_pct"];
        let _ = writeln!(out, "  {:<34} {spread:>16.6} %", "bench.slice_spread_pct");
    }
    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = write!(
        out,
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        body.join(", ")
    );
    Ok(out)
}

fn main() -> ExitCode {
    // The program reads `MRA_*` knobs (tracing, transport backend, shard
    // count); a benchmark run must not inherit any.  Nothing else runs yet,
    // so the environment is not being read concurrently.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MRA_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse(&args) {
        Ok(Command::Run {
            workload,
            seed,
            seconds,
            traced,
        }) => run(&workload, seed, seconds, traced),
        Ok(Command::Aa {
            runs,
            seconds,
            only,
        }) => aa::run(runs, seconds, only.as_deref()),
        Err(e) => Err(format!("{e}\n{}", usage())),
    };
    match result {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mra-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let cmd = parse(&args(
            "--workload serve-mid --seed 42 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                workload: "serve-mid".into(),
                seed: 42,
                seconds: 10.0,
                traced: false
            }
        );
        let cmd = parse(&args("--workload sim-paper --trace 1 --seed 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                workload: "sim-paper".into(),
                seed: 3,
                seconds: DEFAULT_SECONDS,
                traced: true
            }
        );
        // A bare `--trace` switches tracing on.
        let cmd = parse(&args("--trace --workload sim-scale")).unwrap();
        assert!(matches!(cmd, Command::Run { traced: true, .. }));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload",
            "--workload sim-paper --seed x",
            "--workload sim-paper --trace 2",
            "--workload sim-paper --seconds -1",
            "--workload sim-paper --frobnicate",
            "--aa 4",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} parsed");
        }
        assert_eq!(
            parse(&args("--aa 5")).unwrap(),
            Command::Aa {
                runs: 5,
                seconds: DEFAULT_SECONDS,
                only: None
            }
        );
        assert!(matches!(
            parse(&args("--aa 6 --workload sim-scale")).unwrap(),
            Command::Aa { runs: 6, only: Some(w), .. } if w == "sim-scale"
        ));
        assert!(run("no-such-workload", 1, 1.0, false).is_err());
    }
}
