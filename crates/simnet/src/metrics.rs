//! Run metrics: per-request records, resource-use-rate accounting and
//! summary statistics (the paper's §5.2 and §5.3 metrics).

use crate::stats;
use mra_obs::{KindCounts, ObsReport};
use mra_protocol::faults::FaultStats;
use mra_protocol::reliable::ReliabilityStats;
use mra_types::{NodeId, ResourceSet, Time};

/// Full life of one critical-section request.
#[derive(Clone, Debug)]
pub struct ReqRecord {
    /// Requesting node.
    pub node: NodeId,
    /// Requested resources.
    pub set: ResourceSet,
    /// Request size (`|set|` — the paper's `x`).
    pub size: usize,
    /// Intended arrival instant: when the request *entered the system*
    /// (an open-loop generator's scheduled arrival).  Equals `issued` for
    /// closed-loop workloads, and is never later than `issued`.
    pub arrival: Time,
    /// Issue instant (the CS request hit the protocol).
    pub issued: Time,
    /// Grant instant (CS entry), if reached before the run ended.
    pub granted: Option<Time>,
    /// Release instant, if reached before the run ended.
    pub released: Option<Time>,
}

impl ReqRecord {
    /// Waiting time (grant − issue), if granted — the paper's §5.3
    /// metric, measured from the protocol's point of view.
    pub fn wait(&self) -> Option<Time> {
        self.granted.map(|g| g - self.issued)
    }

    /// Serving latency (grant − intended arrival), if granted: what an
    /// open-loop client experiences, queueing delay before issue
    /// included.  Identical to [`ReqRecord::wait`] for closed-loop
    /// workloads, where arrival and issue coincide.
    pub fn serve_wait(&self) -> Option<Time> {
        self.granted.map(|g| g - self.arrival)
    }
}

/// Waiting-time statistics in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct WaitStats {
    /// Number of samples.
    pub count: usize,
    /// Mean waiting time (ms).
    pub mean_ms: f64,
    /// Sample standard deviation (ms).
    pub std_ms: f64,
    /// Median (ms).
    pub median_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// 99.9th percentile (ms) — the tail-SLO figure.  Exact, like every
    /// field here: computed over the full sample vector.
    pub p999_ms: f64,
}

impl WaitStats {
    /// Compute from raw waits in milliseconds.  Takes the samples by value
    /// and sorts them **once**: median, p95, p99 and p999 then use the
    /// [`stats::percentile_sorted`] fast path instead of re-sorting a clone
    /// per percentile (this sits on the per-report hot path of every
    /// figure sweep and bench run).
    ///
    /// With zero samples the percentile fields are `NaN` (a percentile of
    /// nothing does not exist — see [`stats::percentile`]); render them
    /// with [`WaitStats::cell`], which writes `"n/a"` instead of leaking
    /// `NaN` into tables and CSVs.
    pub fn from_ms(mut ms: Vec<f64>) -> Self {
        ms.sort_by(|a, b| a.total_cmp(b));
        WaitStats {
            count: ms.len(),
            mean_ms: stats::mean(&ms),
            std_ms: stats::std_dev(&ms),
            median_ms: stats::percentile_sorted(&ms, 50.0),
            p95_ms: stats::percentile_sorted(&ms, 95.0),
            p99_ms: stats::percentile_sorted(&ms, 99.0),
            p999_ms: stats::percentile_sorted(&ms, 99.9),
        }
    }

    /// Format one statistic for a table or CSV cell with `prec` decimal
    /// places; non-finite values (the empty-sample `NaN` percentiles)
    /// render as `"n/a"`.
    pub fn cell(value: f64, prec: usize) -> String {
        if value.is_finite() {
            format!("{value:.prec$}")
        } else {
            "n/a".to_string()
        }
    }
}

/// Everything measured in one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Algorithm name (from `Allocator::name`).
    pub algo: String,
    /// Number of nodes (including a passive coordinator, if any).
    pub n: usize,
    /// Number of resources.
    pub m: usize,
    /// Measurement window.
    pub window: (Time, Time),
    /// All requests *issued inside the window*, sorted by
    /// `(issued, node)` — a canonical order independent of release order.
    /// Ties (a node issuing twice at one instant, with zero think and hold
    /// time) keep release order.  [`Collector::finish`] orders them in
    /// place: no copy of the records is made.
    pub records: Vec<ReqRecord>,
    /// Per-resource busy time inside the window.
    pub busy: Vec<Time>,
    /// Total messages delivered (whole run).
    pub msgs_total: u64,
    /// Total message weight (approximate ints on the wire).
    pub msg_weight: u64,
    /// Message count by kind, in canonical (sorted-by-kind) order so the
    /// aggregation is independent of message arrival order.
    pub msg_by_kind: Vec<(&'static str, u64)>,
    /// Critical sections completed inside the window.
    pub cs_completed: u64,
    /// Requests issued in the window but never granted before the run end
    /// (censored: excluded from waiting-time stats, reported for honesty).
    pub censored: u64,
    /// Engine events processed over the whole run (simulator runs only;
    /// zero under the TCP runtime, which has no event loop).
    pub events_processed: u64,
    /// Wall-clock nanoseconds the engine spent executing the run (again
    /// simulator-only).  Purely observational: it never feeds back into
    /// the simulation, so determinism is unaffected.
    pub wall_ns: u64,
    /// What the fault layer did during the run (all-zero when no
    /// [`FaultPlan`](mra_protocol::faults::FaultPlan) was installed, and
    /// under the TCP runtime, whose per-link filters are not aggregated
    /// here).
    pub faults: FaultStats,
    /// What the reliable session layer did during the run (all-zero when
    /// reliability is off, and under the TCP runtime, whose per-port
    /// sessions are not aggregated here).
    pub reliability: ReliabilityStats,
    /// Ignored; named only by `benchmark/`; ROADMAP 1(b) deletes it.
    pub shard_events: Vec<u64>,
    /// Observability capture: the causal event trace (when armed via
    /// `Sim::set_tracing` / `MRA_TRACE`; disarmed by default) and the
    /// transport counters of a TCP run.
    pub obs: ObsReport,
}

impl RunResult {
    /// The paper's **resource use rate**: fraction of resource-time in use
    /// during the window (Fig. 4's colored area), in `[0, 1]`.
    pub fn use_rate(&self) -> f64 {
        let (a, b) = self.window;
        let span = (b - a).as_secs_f64();
        if span <= 0.0 || self.m == 0 {
            return 0.0;
        }
        let total: f64 = self.busy.iter().map(|t| t.as_secs_f64()).sum();
        total / (span * self.m as f64)
    }

    /// Exact statistics over whichever latency `pick` reads off each
    /// record (`None` = the record has none, e.g. never granted).
    fn stats_over(&self, pick: impl Fn(&ReqRecord) -> Option<Time>) -> WaitStats {
        let ms = self.records.iter().filter_map(pick).map(|t| t.as_millis_f64());
        WaitStats::from_ms(ms.collect())
    }

    /// Waiting-time statistics over all granted requests in the window.
    pub fn wait_stats(&self) -> WaitStats {
        self.stats_over(ReqRecord::wait)
    }

    /// Serving-latency statistics (intended arrival → grant) over all
    /// granted requests in the window: the open-loop client's view,
    /// queueing delay before issue included.  For closed-loop workloads
    /// this equals [`RunResult::wait_stats`]; under an open-loop
    /// generator the gap between the two *is* the coordinated-omission
    /// bias the issue-keyed metric hides.
    pub fn serve_stats(&self) -> WaitStats {
        self.stats_over(ReqRecord::serve_wait)
    }

    /// Waiting-time statistics restricted to request sizes in `lo..=hi`
    /// (the paper's Fig. 7 buckets).
    pub fn wait_stats_sized(&self, lo: usize, hi: usize) -> WaitStats {
        self.stats_over(|r| r.wait().filter(|_| (lo..=hi).contains(&r.size)))
    }

    /// Split `1..=phi` into `buckets` contiguous ranges and return
    /// `(lo, hi, stats)` per bucket — exactly how Fig. 7 groups request
    /// sizes (labels 1res, 17res, …, 80res for φ = 80 and 6 buckets).
    pub fn wait_buckets(&self, phi: usize, buckets: usize) -> Vec<(usize, usize, WaitStats)> {
        assert!(buckets >= 1 && phi >= 1);
        let width = (phi as f64 / buckets as f64).ceil() as usize;
        let mut out = Vec::new();
        let mut lo = 1usize;
        while lo <= phi {
            let hi = (lo + width - 1).min(phi);
            out.push((lo, hi, self.wait_stats_sized(lo, hi)));
            lo = hi + 1;
        }
        out
    }

    /// Simulator throughput in events per wall-clock second — what the
    /// benchmark reports as `simnet.events_per_s`.  Zero when the run
    /// recorded no wall time (non-simulator engines).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events_processed as f64 * 1e9 / self.wall_ns as f64
    }

    /// Messages per completed critical section (message complexity proxy).
    pub fn msgs_per_cs(&self) -> f64 {
        if self.cs_completed == 0 {
            return 0.0;
        }
        self.msgs_total as f64 / self.cs_completed as f64
    }
}

/// Accumulates metrics while a run executes.
#[derive(Debug)]
pub struct Collector {
    window: (Time, Time),
    m: usize,
    outstanding: Vec<Option<ReqRecord>>,
    records: Vec<ReqRecord>,
    busy: Vec<Time>,
    msgs_total: u64,
    msg_weight: u64,
    msg_by_kind: KindCounts,
    cs_completed: u64,
}

impl Collector {
    /// New collector for `n` nodes, `m` resources and the given window.
    pub fn new(n: usize, m: usize, window: (Time, Time)) -> Self {
        Collector {
            window,
            m,
            outstanding: (0..n).map(|_| None).collect(),
            records: Vec::new(),
            busy: vec![Time::ZERO; m],
            msgs_total: 0,
            msg_weight: 0,
            msg_by_kind: KindCounts::default(),
            cs_completed: 0,
        }
    }

    /// A request was issued.  `arrival` is its intended arrival instant —
    /// pass `now` for closed-loop workloads (arrival = issue); an
    /// open-loop serving path passes the generator's scheduled arrival,
    /// which is never later than `now`.
    pub fn on_issue(&mut self, node: NodeId, set: ResourceSet, now: Time, arrival: Time) {
        debug_assert!(self.outstanding[node].is_none());
        debug_assert!(arrival <= now, "arrival after issue");
        self.outstanding[node] = Some(ReqRecord {
            node,
            size: set.len(),
            set,
            arrival,
            issued: now,
            granted: None,
            released: None,
        });
    }

    /// The node entered its CS.
    pub fn on_grant(&mut self, node: NodeId, now: Time) {
        if let Some(rec) = self.outstanding[node].as_mut() {
            debug_assert!(rec.granted.is_none());
            rec.granted = Some(now);
        }
    }

    /// The node released; fold the record in.
    pub fn on_release(&mut self, node: NodeId, now: Time) {
        if let Some(mut rec) = self.outstanding[node].take() {
            rec.released = Some(now);
            self.fold(rec);
        }
    }

    /// A message was delivered (runs once per simulated message).
    pub fn on_message(&mut self, kind: &'static str, weight: usize) {
        self.msgs_total += 1;
        self.msg_weight += weight as u64;
        self.msg_by_kind.bump(kind, 1);
    }

    fn fold(&mut self, rec: ReqRecord) {
        let (a, b) = self.window;
        if let (Some(g), Some(e)) = (rec.granted, rec.released) {
            // Busy-time contribution clipped to the window.
            let s = g.max(a).min(b);
            let t = e.max(a).min(b);
            if t > s {
                for r in rec.set.iter() {
                    self.busy[r] += t - s;
                }
            }
            if rec.issued >= a && rec.issued < b {
                self.cs_completed += 1;
            }
        }
        if rec.issued >= a && rec.issued < b {
            self.records.push(rec);
        }
    }

    /// Close the run at `end`: outstanding requests are folded (granted
    /// ones contribute busy time up to the window end; ungranted ones are
    /// counted as censored).  The window is clamped to the actual end so
    /// open-ended runs (the TCP runtime) get a correct use-rate
    /// denominator.
    pub fn finish(mut self, algo: &str, n: usize, end: Time) -> RunResult {
        if end < self.window.1 {
            self.window.1 = end.max(self.window.0);
        }
        let mut censored = 0u64;
        let outstanding = std::mem::take(&mut self.outstanding);
        for rec in outstanding.into_iter().flatten() {
            let (a, b) = self.window;
            if rec.granted.is_some() {
                let mut rec = rec;
                rec.released = Some(end.min(b).max(rec.granted.unwrap()));
                self.fold(rec);
            } else if rec.issued >= a && rec.issued < b {
                censored += 1;
            }
        }
        debug_assert_eq!(self.busy.len(), self.m);
        order_by_issue(&mut self.records);
        RunResult {
            algo: algo.to_string(),
            n,
            m: self.m,
            window: self.window,
            records: self.records,
            busy: self.busy,
            msgs_total: self.msgs_total,
            msg_weight: self.msg_weight,
            // Sorted by kind: independent of message arrival order.
            msg_by_kind: self.msg_by_kind.sorted(),
            cs_completed: self.cs_completed,
            censored,
            events_processed: 0,
            wall_ns: 0,
            faults: FaultStats::default(),
            reliability: ReliabilityStats::default(),
            shard_events: Vec::new(),
            obs: ObsReport::default(),
        }
    }
}

/// Put `records`, which accumulate in *release* order, in the canonical
/// `(issued, node)` order, ties kept in release order: a node that thinks
/// and holds for zero time issues twice at one instant.  A stable sort of
/// the records would allocate a scratch copy of them all, the largest
/// transient of a run; instead 4-byte indices are sorted (unstably, which
/// allocates nothing, with the index as the last key, which makes it the
/// stable order) and the permutation is applied in place, one cycle at a
/// time.
fn order_by_issue(records: &mut [ReqRecord]) {
    let len = u32::try_from(records.len()).expect("fewer than 2^32 records");
    let mut order: Vec<u32> = (0..len).collect();
    order.sort_unstable_by_key(|&i| {
        let rec = &records[i as usize];
        (rec.issued, rec.node, i)
    });
    // `order[k]` is the index the record that belongs at `k` had; a
    // placed slot points at itself.
    for start in 0..order.len() {
        let mut k = start;
        loop {
            let from = order[k] as usize;
            order[k] = k as u32;
            if from == start {
                break;
            }
            records.swap(k, from);
            k = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn use_rate_counts_window_overlap_only() {
        let mut c = Collector::new(2, 2, (t(10), t(20)));
        // Node 0 uses resource 0 from 5 to 15: 5 ms inside the window.
        c.on_issue(0, ResourceSet::singleton(0), t(4), t(4));
        c.on_grant(0, t(5));
        c.on_release(0, t(15));
        // Node 1 uses resource 1 for the whole window and beyond.
        c.on_issue(1, ResourceSet::singleton(1), t(1), t(1));
        c.on_grant(1, t(2));
        c.on_release(1, t(30));
        let res = c.finish("x", 2, t(30));
        // busy = (5 + 10) ms over a 10 ms × 2 resources window = 75 %.
        assert!((res.use_rate() - 0.75).abs() < 1e-9);
        // Neither request was issued inside the window.
        assert_eq!(res.records.len(), 0);
        assert_eq!(res.cs_completed, 0);
    }

    #[test]
    fn waiting_time_stats() {
        let mut c = Collector::new(2, 1, (t(0), t(100)));
        c.on_issue(0, ResourceSet::singleton(0), t(10), t(10));
        c.on_grant(0, t(14));
        c.on_release(0, t(20));
        c.on_issue(1, ResourceSet::singleton(0), t(20), t(20));
        c.on_grant(1, t(28));
        c.on_release(1, t(30));
        let res = c.finish("x", 2, t(100));
        let w = res.wait_stats();
        assert_eq!(w.count, 2);
        assert!((w.mean_ms - 6.0).abs() < 1e-9); // (4 + 8) / 2
        // Tail percentiles are monotone and bounded by the max sample.
        assert!(w.p95_ms <= w.p99_ms && w.p99_ms <= w.p999_ms);
        assert!(w.p999_ms <= 8.0 + 1e-9);
        assert_eq!(res.cs_completed, 2);
        assert_eq!(res.censored, 0);
    }

    #[test]
    fn serve_stats_key_by_arrival_not_issue() {
        // A request that queued 6 ms before its CS could even be issued:
        // the issue-keyed wait sees 4 ms, the arrival-keyed serving
        // latency sees the full 10 ms — the coordinated-omission gap.
        let mut c = Collector::new(1, 1, (t(0), t(100)));
        c.on_issue(0, ResourceSet::singleton(0), t(16), t(10));
        c.on_grant(0, t(20));
        c.on_release(0, t(25));
        let res = c.finish("x", 1, t(100));
        assert_eq!(res.records[0].wait(), Some(t(4)));
        assert_eq!(res.records[0].serve_wait(), Some(t(10)));
        assert!((res.wait_stats().mean_ms - 4.0).abs() < 1e-9);
        assert!((res.serve_stats().mean_ms - 10.0).abs() < 1e-9);
    }

    /// `finish` gives exactly the order a stable sort by `(issued, node)`
    /// gives: ties between nodes go by node, a node's two requests at one
    /// instant stay in release order.
    #[test]
    fn records_are_ordered_by_issue_with_ties_in_release_order() {
        let mut c = Collector::new(3, 4, (t(0), t(1_000)));
        let cycle = |c: &mut Collector, node, r, issued, released| {
            c.on_issue(node, ResourceSet::singleton(r), t(issued), t(issued));
            c.on_grant(node, t(issued));
            c.on_release(node, t(released));
        };
        // Released 10, 11, 12, 20; issued 10, 10, 10, 5.
        cycle(&mut c, 0, 0, 10, 10); // zero think, zero hold: ...
        cycle(&mut c, 1, 2, 10, 11);
        cycle(&mut c, 0, 1, 10, 12); // ... node 0 issues again at 10
        cycle(&mut c, 2, 3, 5, 20);
        // Enough ties for the sort past its small-slice path: node 2 - i % 3
        // issues at 100 + i / 9 with zero hold time, so each instant has
        // three requests from each node, released in turn.
        for i in 0..90 {
            let at = 100 + i / 9;
            cycle(&mut c, 2 - (i % 3) as usize, i as usize % 4, at, at);
        }
        let keys = |rs: &[ReqRecord]| -> Vec<_> {
            let key = |r: &ReqRecord| (r.node, r.issued, r.set.iter().next(), r.released);
            rs.iter().map(key).collect()
        };
        let mut stable = c.records.clone();
        stable.sort_by_key(|r| (r.issued, r.node));
        let res = c.finish("x", 3, t(1_000));
        assert_eq!(keys(&res.records), keys(&stable));
        let head = res.records[..4]
            .iter()
            .map(|r| (r.node, r.set.iter().next()));
        assert!(head.eq([(2, Some(3)), (0, Some(0)), (0, Some(1)), (1, Some(2))]));
    }

    #[test]
    fn censored_requests_counted() {
        let mut c = Collector::new(1, 1, (t(0), t(100)));
        c.on_issue(0, ResourceSet::singleton(0), t(50), t(50));
        let res = c.finish("x", 1, t(100));
        assert_eq!(res.censored, 1);
        let w = res.wait_stats();
        assert_eq!(w.count, 0);
        // Empty-sample percentiles are NaN (rendered "n/a" by `cell`).
        assert!(w.p99_ms.is_nan() && w.p999_ms.is_nan());
        assert_eq!(WaitStats::cell(w.p999_ms, 2), "n/a");
    }

    #[test]
    fn in_cs_at_end_contributes_busy_time() {
        let mut c = Collector::new(1, 1, (t(0), t(100)));
        c.on_issue(0, ResourceSet::singleton(0), t(10), t(10));
        c.on_grant(0, t(10));
        // never released: run ends at 100
        let res = c.finish("x", 1, t(100));
        assert!((res.use_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn buckets_cover_range() {
        let c = Collector::new(1, 1, (t(0), t(10)));
        let res = c.finish("x", 1, t(10));
        let buckets = res.wait_buckets(80, 5);
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[0].0, 1);
        assert_eq!(buckets.last().unwrap().1, 80);
        // contiguous
        for w in buckets.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0);
        }
    }

    #[test]
    fn message_accounting() {
        let mut c = Collector::new(1, 1, (t(0), t(10)));
        c.on_message("A", 2);
        c.on_message("A", 3);
        c.on_message("B", 1);
        let res = c.finish("x", 1, t(10));
        assert_eq!(res.msgs_total, 3);
        assert_eq!(res.msg_weight, 6);
        assert_eq!(res.msg_by_kind, vec![("A", 2), ("B", 1)]);
    }

    #[test]
    fn kind_aggregation_is_order_independent() {
        // Same multiset of messages in three different arrival orders (the
        // third alternates, defeating any move-to-front locality) must
        // produce the identical reported table.
        let orders: [&[&'static str]; 3] = [
            &["Req", "Req", "Tok", "Cnt", "Tok", "Req"],
            &["Cnt", "Tok", "Tok", "Req", "Req", "Req"],
            &["Tok", "Req", "Cnt", "Req", "Tok", "Req"],
        ];
        let mut results = orders.iter().map(|order| {
            let mut c = Collector::new(1, 1, (t(0), t(10)));
            for kind in *order {
                c.on_message(kind, 1);
            }
            c.finish("x", 1, t(10)).msg_by_kind
        });
        let first = results.next().unwrap();
        assert_eq!(first, vec![("Cnt", 1), ("Req", 3), ("Tok", 2)]);
        for other in results {
            assert_eq!(first, other);
        }
    }

    #[test]
    fn kind_table_survives_duplicate_literals_at_distinct_addresses() {
        // Simulate two &'static strs with equal bytes but (potentially)
        // different addresses: a leaked String cannot alias the literal.
        let leaked: &'static str = Box::leak(String::from("A").into_boxed_str());
        let mut c = Collector::new(1, 1, (t(0), t(10)));
        c.on_message("A", 1);
        c.on_message(leaked, 1);
        c.on_message("B", 1);
        c.on_message("A", 1);
        let res = c.finish("x", 1, t(10));
        assert_eq!(res.msg_by_kind, vec![("A", 3), ("B", 1)]);
    }

    #[test]
    fn events_per_sec_requires_wall_time() {
        let c = Collector::new(1, 1, (t(0), t(10)));
        let mut res = c.finish("x", 1, t(10));
        assert_eq!(res.events_per_sec(), 0.0);
        res.events_processed = 2_000;
        res.wall_ns = 1_000_000; // 1 ms
        assert!((res.events_per_sec() - 2_000_000.0).abs() < 1e-6);
    }
}
