//! The instrument: one untimed warm-up slice, then timed slices until the
//! run's time budget is used.  A slice is one complete call into the
//! program (`Sim::run` or `run_tcp_cluster`) on inputs made from the run's
//! seed, so every slice of a run does the same work.

use crate::catalog::Values;
use crate::spans::{Recorder, SpanId};
use std::time::Instant;

/// Fewest timed slices a run makes, however short its budget.
pub const MIN_SLICES: usize = 3;

/// What one run hands back: measured values by metric name, the
/// operations it attempted, and free-form lines for the human-readable
/// part of the output.  There is no count of failed operations: a request
/// that is issued (or admitted) and not completed fails the output check,
/// and a run that fails its check prints nothing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub notes: Vec<String>,
}

/// Run the warm-up slice and then timed slices while another one still
/// fits in `seconds` (judged by the mean slice so far), at least
/// [`MIN_SLICES`].  `one` gets the recorder, the slice's own span (a child
/// of `run`) and the timed slice's index (`None` for the warm-up).  Returns
/// the timed slices and how long the warm-up took.
pub fn run_slices<S>(
    rec: &mut Recorder,
    run: SpanId,
    seconds: f64,
    mut one: impl FnMut(&mut Recorder, SpanId, Option<usize>) -> Result<S, String>,
) -> Result<(Vec<S>, f64), String> {
    let t0 = Instant::now();
    rec.within("warmup_slice", Some(run), |rec, id| one(rec, id, None))?;
    let first_slice_s = t0.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut done = Vec::new();
    loop {
        let slice = rec.within("slice", Some(run), |rec, id| one(rec, id, Some(done.len())))?;
        done.push(slice);
        let used = started.elapsed().as_secs_f64();
        let mean = used / done.len() as f64;
        if done.len() >= MIN_SLICES && used + mean > seconds {
            return Ok((done, first_slice_s));
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Unit;

    #[test]
    fn a_spent_budget_still_yields_the_minimum_slices() {
        let mut rec = Recorder::new();
        let run = rec.open("run", None);
        let mut calls = Vec::new();
        let (slices, _) = run_slices(&mut rec, run, 0.0, |_, _, idx| {
            calls.push(idx);
            Ok(Unit)
        })
        .unwrap();
        assert_eq!(slices.len(), MIN_SLICES);
        assert_eq!(calls, [None, Some(0), Some(1), Some(2)]);
        // One warm-up span and one span per timed slice, all under the run.
        let under_run = rec.spans.iter().filter(|s| s.parent == Some(run)).count();
        assert_eq!(under_run, 1 + MIN_SLICES);
    }

    #[test]
    fn a_failing_slice_aborts_the_run() {
        let mut rec = Recorder::new();
        let run = rec.open("run", None);
        let out = run_slices::<Unit>(&mut rec, run, 1.0, |_, _, idx| match idx {
            Some(1) => Err("digest mismatch".to_string()),
            _ => Ok(Unit),
        });
        assert_eq!(out.err().as_deref(), Some("digest mismatch"));
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
