//! `mra-node` — run allocation protocols over real TCP.
//!
//! Two modes:
//!
//! * **loopback cluster** (default): spawn an N-node cluster inside this
//!   process, connected through real loopback sockets, run a quota-based
//!   workload under the safety monitor and print the run metrics;
//! * **solo** (`--solo --id I --peers a:p,b:p,…`): run node `I` of a
//!   multi-process cluster (every process must be started with the same
//!   `--algo/--nodes/--resources/--rounds/--seed`).
//!
//! ```text
//! mra-node --algo lass --nodes 8 --resources 16 --rounds 25
//! mra-node --solo --id 0 --peers 127.0.0.1:7100,127.0.0.1:7101 --rounds 10 &
//! mra-node --solo --id 1 --peers 127.0.0.1:7100,127.0.0.1:7101 --rounds 10
//! ```

use mra_baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra_core::LassConfig;
use mra_net::{run_solo_node, run_tcp_cluster, PeerDirectory, TcpClusterConfig};
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_protocol::{Allocator, WireCodec};
use mra_sim::{FixedWorkload, RunResult, WaitStats};
use mra_types::Time;
use std::process::exit;

const USAGE: &str = "\
mra-node: distributed multi-resource allocation over real TCP

USAGE:
  mra-node [OPTIONS]                        loopback cluster (default)
  mra-node --solo --id I --peers LIST ...   one node of a multi-process cluster

OPTIONS:
  --algo NAME        lass | lass-noloan | bl | incremental | maddi | central
                     (default lass; central adds one passive coordinator node)
  --nodes N          active nodes (default 8)
  --resources M      shared resources (default 16)
  --rounds R         request/CS cycles per node (default 25)
  --size K           resources per request (default 3)
  --think-us U       think time between cycles, microseconds (default 500)
  --cs-us U          critical-section hold time, microseconds (default 800)
  --latency-us U     artificial extra latency per message (default 0)
  --seed S           workload seed (default 1)
  --solo             run a single node instead of a loopback cluster
  --id I             this node's id (solo mode)
  --peers LIST       comma-separated host:port per node id (solo mode)
  --metrics          after the run, print the transport counters to stderr
                     (frames/bytes and syscalls per direction, coalescing
                     ratios, frame kinds, retransmissions, RTO fires):
                     this node's in solo mode, the cluster-wide sum
                     otherwise
  --help             print this help

ENVIRONMENT:
  MRA_LOSS=P         install the frame-level fault shim: drop each inbound
                     protocol frame with probability P (deterministic per
                     link).  Without MRA_RELIABLE lost tokens are never
                     retransmitted and a lossy quota run can stall.
  MRA_RELIABLE=1     enable the reliable session layer: sequence numbers,
                     cumulative acks and timer-driven retransmission turn
                     MRA_LOSS drops into latency instead of lost liveness
  MRA_RTO_MS=T       initial retransmission timeout in ms (default 10)
  MRA_TRACE=MODE     arm causal tracing in the node loops (per-node event
                     ordering and counters; the TCP wire does not carry
                     Lamport stamps) -- '0' off, 'ring'/'ring:N' bounded,
                     anything else unbounded
  MRA_TRACE_FILE=F   write the merged trace as JSONL to F (implies
                     MRA_TRACE) -- analyze with mra-trace
";

#[derive(Clone, Debug)]
struct Opts {
    algo: String,
    nodes: usize,
    resources: usize,
    rounds: usize,
    size: usize,
    think_us: u64,
    cs_us: u64,
    latency_us: u64,
    seed: u64,
    solo: bool,
    id: usize,
    peers: Option<String>,
    metrics: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            algo: "lass".into(),
            nodes: 8,
            resources: 16,
            rounds: 25,
            size: 3,
            think_us: 500,
            cs_us: 800,
            latency_us: 0,
            seed: 1,
            solo: false,
            id: 0,
            peers: None,
            metrics: false,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("mra-node: {msg}\n\n{USAGE}");
    exit(2);
}

fn parse_opts() -> Opts {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--algo" => opts.algo = val("--algo"),
            "--nodes" => opts.nodes = parse_num(&val("--nodes"), "--nodes"),
            "--resources" => opts.resources = parse_num(&val("--resources"), "--resources"),
            "--rounds" => opts.rounds = parse_num(&val("--rounds"), "--rounds"),
            "--size" => opts.size = parse_num(&val("--size"), "--size"),
            "--think-us" => opts.think_us = parse_num(&val("--think-us"), "--think-us"),
            "--cs-us" => opts.cs_us = parse_num(&val("--cs-us"), "--cs-us"),
            "--latency-us" => opts.latency_us = parse_num(&val("--latency-us"), "--latency-us"),
            "--seed" => opts.seed = parse_num(&val("--seed"), "--seed"),
            "--solo" => opts.solo = true,
            "--id" => opts.id = parse_num(&val("--id"), "--id"),
            "--peers" => opts.peers = Some(val("--peers")),
            "--metrics" => opts.metrics = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    if opts.nodes == 0 || opts.resources == 0 || opts.rounds == 0 {
        die("--nodes, --resources and --rounds must be positive");
    }
    if opts.size == 0 || opts.size > opts.resources {
        die("--size must be in 1..=resources");
    }
    opts
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: invalid number {s:?}")))
}

fn workload(opts: &Opts) -> FixedWorkload {
    FixedWorkload {
        think: Time::from_micros(opts.think_us),
        cs: Time::from_micros(opts.cs_us),
        m: opts.resources,
        size: opts.size,
    }
}

/// Run either harness for one concrete protocol type.
fn run_with<A>(protos: Vec<A>, active: usize, opts: &Opts) -> RunResult
where
    A: Allocator + Send,
    A::Msg: WireCodec,
{
    let n = protos.len();
    let cfg = TcpClusterConfig {
        extra_latency: Time::from_micros(opts.latency_us),
        active_nodes: Some(active),
        faults: FaultPlan::from_env(),
        reliability: Reliability::from_env(),
        ..TcpClusterConfig::new(opts.rounds, opts.seed)
    };
    if let Some(plan) = &cfg.faults {
        eprintln!(
            "mra-node: fault shim active: drop={} seed={}{}",
            plan.link.drop,
            plan.seed,
            if cfg.reliability.is_some() {
                " (recovered by the reliable session layer)"
            } else {
                " (lossy runs may stall; set MRA_RELIABLE=1 to recover drops)"
            }
        );
    }
    if let Some(rel) = &cfg.reliability {
        eprintln!(
            "mra-node: reliable session layer on: rto={:.1}ms cap={:.1}ms (MRA_RTO_MS)",
            rel.rto.as_millis_f64(),
            rel.rto_cap.as_millis_f64()
        );
    }
    if opts.solo {
        let spec = opts
            .peers
            .as_deref()
            .unwrap_or_else(|| die("--solo needs --peers"));
        let dir = PeerDirectory::parse(spec).unwrap_or_else(|e| die(&e));
        if dir.len() != n {
            die(&format!(
                "--peers lists {} addresses but the {} cluster has {n} nodes",
                dir.len(),
                opts.algo
            ));
        }
        if opts.id >= n {
            die(&format!("--id {} out of range 0..{n}", opts.id));
        }
        let mut protos = protos;
        let proto = protos.swap_remove(opts.id);
        run_solo_node(opts.id, proto, workload(opts), opts.resources, &dir, cfg)
            .unwrap_or_else(|e| die(&format!("transport setup failed: {e}")))
    } else {
        let workloads: Vec<FixedWorkload> = (0..n).map(|_| workload(opts)).collect();
        run_tcp_cluster(protos, workloads, opts.resources, cfg)
    }
}

fn print_result(res: &RunResult, opts: &Opts) {
    let w = res.wait_stats();
    println!(
        "algo={} nodes={} resources={} rounds={}",
        res.algo, res.n, res.m, opts.rounds
    );
    println!(
        "cs_completed={} censored={} msgs_total={} msgs_per_cs={:.1} msg_weight={}",
        res.cs_completed,
        res.censored,
        res.msgs_total,
        res.msgs_per_cs(),
        res.msg_weight
    );
    println!(
        "wait_ms: mean={} std={} median={} p95={} p99={} p999={} (n={})",
        WaitStats::cell(w.mean_ms, 3),
        WaitStats::cell(w.std_ms, 3),
        WaitStats::cell(w.median_ms, 3),
        WaitStats::cell(w.p95_ms, 3),
        WaitStats::cell(w.p99_ms, 3),
        WaitStats::cell(w.p999_ms, 3),
        w.count
    );
    println!("use_rate={:.1}%", 100.0 * res.use_rate());
    let mut kinds: Vec<_> = res.msg_by_kind.clone();
    kinds.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let kinds: Vec<String> = kinds.iter().map(|(k, c)| format!("{k}={c}")).collect();
    println!("by_kind: {}", kinds.join(" "));
}

fn main() {
    let opts = parse_opts();
    let (n, m) = (opts.nodes, opts.resources);
    let res = match opts.algo.as_str() {
        "lass" => run_with(LassConfig::with_loan(n, m).build_nodes(), n, &opts),
        "lass-noloan" => run_with(LassConfig::without_loan(n, m).build_nodes(), n, &opts),
        "bl" => run_with(BouabdallahLaforest::build_nodes(n, m), n, &opts),
        "incremental" => run_with(Incremental::build_nodes(n, m), n, &opts),
        "maddi" => run_with(Maddi::build_nodes(n, m), n, &opts),
        // `central` appends a passive coordinator as node n.
        "central" => run_with(Central::build_nodes(n, GrantPolicy::Conservative), n, &opts),
        other => die(&format!("unknown algorithm {other:?}")),
    };
    print_result(&res, &opts);
    if opts.metrics {
        // Solo: this node's counters; loopback cluster: the sum over nodes.
        let whose = if opts.solo { opts.id.to_string() } else { "cluster".into() };
        eprint!("{}", res.obs.net.render(whose));
    }
    // MRA_TRACE_FILE: persist the merged trace (armed automatically by
    // the harness when the knob is set).  TCP frames carry no Lamport
    // stamps, so the trace has per-node ordering and counters only.
    if let (Some(path), Some(trace)) =
        (mra_obs::trace_file_from_env(), res.obs.trace.as_ref())
    {
        match mra_obs::write_jsonl_file(&path, trace, &res.algo, res.n, res.m) {
            Ok(()) => eprintln!("mra-node: trace written to {path}"),
            Err(e) => eprintln!("mra-node: writing trace to {path} failed: {e}"),
        }
    }
    // The run is quota-based: anything short of the quota is a liveness
    // failure worth a non-zero exit.
    let expected = if opts.solo {
        if opts.id < opts.nodes { opts.rounds as u64 } else { 0 }
    } else {
        (opts.nodes * opts.rounds) as u64
    };
    if res.cs_completed != expected {
        eprintln!(
            "mra-node: completed {} critical sections, expected {expected}",
            res.cs_completed
        );
        exit(1);
    }
}
