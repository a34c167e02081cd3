//! Vocabulary the TCP transport ([`crate::reactor`]) and the cluster
//! harnesses share: the peer directory, mesh construction parameters and
//! the transport-level shutdown protocol.
//!
//! Shutdown is coordinated at the transport level, so the node loop asks
//! its port one question (`quota_done`) whatever the deployment shape:
//!
//! * **in-process clusters** ([`PortCtrl::Cluster`]) count finishers in a
//!   shared atomic — the last one broadcasts
//!   [`TAG_SHUTDOWN`](crate::frame::TAG_SHUTDOWN) frames;
//! * **multi-process deployments** ([`PortCtrl::Solo`]) send
//!   [`TAG_DONE`](crate::frame::TAG_DONE) frames to node 0, which
//!   broadcasts the shutdown once every active node (itself included) has
//!   finished.

use mra_obs::NetCounters;
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_types::{NodeId, Time};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The cluster map: `NodeId → SocketAddr` for every node.
#[derive(Clone, Debug)]
pub struct PeerDirectory {
    addrs: Vec<SocketAddr>,
}

impl PeerDirectory {
    /// Directory over explicit addresses (index = node id).
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        assert!(!addrs.is_empty(), "empty peer directory");
        PeerDirectory { addrs }
    }

    /// Parse a comma-separated `host:port,host:port,…` list (the
    /// `mra-node --peers` format).  Blank entries — trailing commas,
    /// doubled commas, stray whitespace — are tolerated and skipped;
    /// a malformed entry is reported with its position in the list.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut addrs = Vec::new();
        for (idx, entry) in spec.split(',').enumerate() {
            let entry = entry.trim();
            if entry.is_empty() {
                continue; // tolerate `a,b,` and `a,,b`
            }
            let addr = entry.parse::<SocketAddr>().map_err(|e| {
                format!("peer entry #{idx} ({entry:?}): {e}")
            })?;
            addrs.push(addr);
        }
        if addrs.is_empty() {
            return Err("empty peer list".into());
        }
        Ok(PeerDirectory::new(addrs))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if the directory is empty (never: construction forbids it;
    /// present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Address of node `id`.
    pub fn addr(&self, id: NodeId) -> SocketAddr {
        self.addrs[id]
    }
}

/// Vestige kept only because `benchmark/src/{serve,probes}.rs` (frozen
/// outside `benchmark` PRs) name it; the next such PR removes it and
/// `TcpClusterConfig::backend`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetBackend {
    /// [`crate::reactor`], the only TCP transport.
    Reactor,
}

/// How a TCP port coordinates cluster-wide shutdown.
pub enum PortCtrl {
    /// In-process loopback cluster: finishers decrement the shared count;
    /// the last one broadcasts shutdown frames.
    Cluster(Arc<AtomicUsize>),
    /// One process per node: finishers report `TAG_DONE` to node 0,
    /// which broadcasts shutdown once all `active` nodes are done.
    Solo {
        /// Number of request-issuing nodes (`0..active`; node 0 included).
        active: usize,
        /// Done reports seen so far (node 0 only; includes itself).
        done_seen: usize,
        /// Has this node finished its own quota?
        self_done: bool,
    },
}

/// What a node that just finished its quota must do next, as decided by
/// [`PortCtrl::self_done`].
pub(crate) enum DoneAct {
    /// Every active node is done: broadcast `TAG_SHUTDOWN` and stop.
    LastFinisher,
    /// Report `TAG_DONE` to node 0 and keep serving the protocol.
    ReportDone,
    /// Keep serving until shutdown arrives.
    Wait,
}

impl PortCtrl {
    /// Node `me` finished its own round quota.
    pub(crate) fn self_done(&mut self, me: NodeId) -> DoneAct {
        match self {
            PortCtrl::Cluster(remaining) => {
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    DoneAct::LastFinisher
                } else {
                    DoneAct::Wait
                }
            }
            PortCtrl::Solo { active, done_seen, self_done } => {
                *self_done = true;
                if me == 0 {
                    *done_seen += 1;
                    if *done_seen >= *active {
                        DoneAct::LastFinisher
                    } else {
                        DoneAct::Wait
                    }
                } else {
                    DoneAct::ReportDone
                }
            }
        }
    }

    /// A `TAG_DONE` frame arrived (meaningful on solo node 0 only).
    /// True when every active node — this one included — has finished:
    /// time to broadcast shutdown and stop.
    pub(crate) fn peer_done(&mut self) -> bool {
        match self {
            PortCtrl::Solo { active, done_seen, self_done } => {
                *done_seen += 1;
                *self_done && *done_seen >= *active
            }
            // Done frames only flow in solo deployments.
            PortCtrl::Cluster(_) => false,
        }
    }
}

/// Mesh construction parameters.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Artificial latency added on top of the real wire: the receiving
    /// port holds each decoded message this long before handing it to the
    /// node loop, and keeps acking, retransmitting and flushing while it
    /// holds.  `Time::ZERO` measures the raw transport.  Together with
    /// `faults` this forms the frame-level drop/delay shim.
    pub extra_latency: Time,
    /// How long to keep retrying outbound connections (peers of a
    /// multi-process cluster may start later than this node).
    pub connect_timeout: Duration,
    /// Frame-level fault shim: each inbound link runs the plan's
    /// deterministic per-link drop filter (`k`-th frame on a link sees the
    /// same verdict as on the simulated substrates).  What TCP cannot
    /// reproduce: duplicate frames (the kernel's sequence numbers already
    /// absorb them, so dup verdicts are ignored here — unlike the
    /// simulated substrates nothing aggregates per-link counters into
    /// `RunResult::faults`) and time-based faults (partitions/outages name
    /// *simulated* instants; a real wire has no such clock).  See
    /// DESIGN.md §8.
    ///
    /// **Beware with quota-based runs and reliability off:** protocol
    /// messages lost to a drop filter are gone for good — token-based
    /// algorithms may then never finish their quota.  Enable
    /// [`MeshConfig::reliability`] to recover the drops, or keep lossy
    /// plans for explicitly bounded transport experiments.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery session layer (`mra_protocol::reliable`): when
    /// set, every protocol message travels as a sequenced
    /// `TAG_RDATA` frame with a piggybacked cumulative ack, receivers ack
    /// (standalone `TAG_RACK` frames) and dedup, and the port
    /// retransmits unacked frames on a capped-backoff timer — so
    /// [`MeshConfig::faults`] drops are *recovered* instead of absorbed
    /// into lost liveness.  `MRA_RELIABLE` / `MRA_RTO_MS` feed this in the
    /// `mra-node` binary.
    pub reliability: Option<Reliability>,
    /// Where the transport leaves its [`NetCounters`]: the harnesses hand
    /// each node a slot and merge them into the run's observability
    /// report.  Written once, when the port drops (after its drain) — a
    /// live port answers `ReactorPort::counters` itself.  `None` keeps
    /// the counters port-local.
    pub counters_slot: Option<Arc<Mutex<NetCounters>>>,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            extra_latency: Time::ZERO,
            connect_timeout: Duration::from_secs(10),
            faults: None,
            reliability: None,
            counters_slot: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_parse() {
        let d = PeerDirectory::parse("127.0.0.1:9000, 127.0.0.1:9001").unwrap();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.addr(1).port(), 9001);
        assert!(PeerDirectory::parse("not-an-addr").is_err());
        assert!(PeerDirectory::parse("").is_err());
    }

    #[test]
    fn directory_parse_tolerates_trailing_commas_and_blank_entries() {
        // Trailing comma (the classic shell-generated list), doubled
        // commas and stray whitespace all parse to the same directory.
        for spec in [
            "127.0.0.1:9000,127.0.0.1:9001,",
            "127.0.0.1:9000,,127.0.0.1:9001",
            " 127.0.0.1:9000 , 127.0.0.1:9001 , ",
        ] {
            let d = PeerDirectory::parse(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(d.len(), 2, "{spec:?}");
            assert_eq!(d.addr(0).port(), 9000);
            assert_eq!(d.addr(1).port(), 9001);
        }
        // A list of only separators is still empty.
        assert_eq!(
            PeerDirectory::parse(", ,").unwrap_err(),
            "empty peer list"
        );
    }

    #[test]
    fn directory_parse_reports_the_offending_entry_with_its_index() {
        let err = PeerDirectory::parse("127.0.0.1:9000,bogus:addr,127.0.0.1:9001")
            .expect_err("malformed entry must fail");
        assert!(err.contains("#1"), "missing index: {err}");
        assert!(err.contains("bogus:addr"), "missing entry text: {err}");
        let err = PeerDirectory::parse("nope").expect_err("must fail");
        assert!(err.contains("#0"), "{err}");
    }

}
