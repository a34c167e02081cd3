//! Behaviour pinned **across commits** on the clockless net, under
//! adversarial schedules.
//!
//! `golden_digest` pins the timed simulator on perfect links; the paths a
//! storage or layout change rewrites most — loans under drops, token
//! handoff through sessions, sparse tables past 4 096 resources — run here
//! instead.  Each cell runs every protocol family under
//! [`run_random_workload`] with `Schedule::seeded(s)` for the contiguous
//! seeds `0..SEEDS`, and folds into one FNV-1a digest:
//!
//! * every delivered frame: its link and its `WireCodec` bytes;
//! * every grant: the node, its resource set and the delivery count at
//!   that moment;
//! * the schedule's picks, which cover every choice the run made.
//!
//! The cells are {perfect links; 10 % drop + 5 % dup with the session layer
//! on} × {8 × 16; 8 × 100 000}.  Maddi sits out the 100 000-resource cells:
//! its token carries a row per resource, so each of its frames is about a
//! megabyte to encode and fold, and its two cells alone took 19 s of a
//! debug build at 12 seeds.  `SEEDS` = 32 makes the file about 10 s of CPU
//! in a debug build on a 2-core x86-64 host (about 6 s of wall clock, its
//! four tests on two threads).  Over 100 000 resources the random sets of
//! eight sites hardly ever meet, so LASS's two variants digest alike there:
//! those cells pin sparse tables and token handoff, the 16-resource cells
//! pin loans.  A PR that changes protocol
//! behaviour on purpose re-records the literals (run with `--nocapture`: a
//! mismatch prints the whole table in source form) and says so; a PR that
//! claims to be behaviour-preserving must not.

use mra::baselines::{BouabdallahLaforest, Central, GrantPolicy, Incremental, Maddi};
use mra::core::LassConfig;
use mra::protocol::faults::FaultPlan;
use mra::protocol::reliable::Reliability;
use mra::protocol::{Allocator, Ctx, ProcState, WireCodec};
use mra::types::{NodeId, ResourceSet};
use mra::workloads::Algorithm;
use mra_testkit::{run_random_workload, ExerciseCfg, Schedule, VirtualNet};
use std::cell::RefCell;

/// Contiguous seeds `0..SEEDS` per family and cell.
const SEEDS: u64 = 32;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// What one run has folded so far: the digest, the deliveries counted and
/// a buffer to encode frames into.
struct Tape {
    h: u64,
    delivered: u64,
    frame: Vec<u8>,
}

impl Tape {
    fn fold(&mut self, v: u64) {
        self.h ^= v;
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }
}

thread_local! {
    static TAPE: RefCell<Tape> =
        const { RefCell::new(Tape { h: FNV_OFFSET, delivered: 0, frame: Vec::new() }) };
}

/// An allocator that records what reaches it onto the thread's [`Tape`]
/// and otherwise is `A`.
struct Taped<A> {
    inner: A,
    /// The set of the outstanding request, folded when it is granted.
    asked: ResourceSet,
}

impl<A: Allocator> Taped<A>
where
    A::Msg: WireCodec,
{
    fn fleet(nodes: Vec<A>) -> Vec<Taped<A>> {
        nodes.into_iter().map(|inner| Taped { inner, asked: ResourceSet::new() }).collect()
    }

    /// Fold the grant `ctx` carries, if any, and leave it for the net.
    fn note_grant(&self, ctx: &mut Ctx<A::Msg>) {
        if ctx.take_granted() {
            TAPE.with(|tape| {
                let mut tape = tape.borrow_mut();
                tape.fold(0x0067_7261_6e74); // "grant"
                tape.fold(ctx.me() as u64);
                let delivered = tape.delivered;
                tape.fold(delivered);
                for r in self.asked.iter() {
                    tape.fold(r as u64);
                }
            });
            ctx.grant();
        }
    }
}

impl<A: Allocator> Allocator for Taped<A>
where
    A::Msg: WireCodec,
{
    type Msg = A::Msg;

    fn on_init(&mut self, ctx: &mut Ctx<A::Msg>) {
        self.inner.on_init(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<A::Msg>, from: NodeId, msg: A::Msg) {
        TAPE.with(|tape| {
            let tape = &mut *tape.borrow_mut();
            tape.delivered += 1;
            tape.fold(from as u64);
            tape.fold(ctx.me() as u64);
            tape.frame.clear();
            msg.encode(&mut tape.frame);
            tape.fold(tape.frame.len() as u64);
            for i in 0..tape.frame.len() {
                let b = tape.frame[i];
                tape.fold(u64::from(b));
            }
        });
        self.inner.on_message(ctx, from, msg);
        self.note_grant(ctx);
    }

    fn request(&mut self, ctx: &mut Ctx<A::Msg>, resources: ResourceSet) {
        self.asked = resources.clone();
        self.inner.request(ctx, resources);
        self.note_grant(ctx);
    }

    fn release(&mut self, ctx: &mut Ctx<A::Msg>) {
        self.inner.release(ctx);
    }

    fn state(&self) -> ProcState {
        self.inner.state()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One cell's link model.
#[derive(Clone, Copy, Debug)]
enum Links {
    Perfect,
    /// 10 % drop, 5 % duplication, the session layer on.
    Lossy,
}

/// Run `nodes` under seed `seed` and fold the run into one digest.
fn digest_run<A: Allocator>(nodes: Vec<A>, m: usize, active: Option<usize>, links: Links, seed: u64) -> u64
where
    A::Msg: WireCodec,
{
    TAPE.with(|tape| {
        let mut tape = tape.borrow_mut();
        (tape.h, tape.delivered) = (FNV_OFFSET, 0);
    });
    let mut net = VirtualNet::new(Taped::fleet(nodes), m);
    if let Links::Lossy = links {
        net.install_faults(&FaultPlan::new(seed).drop_rate(0.10).dup_rate(0.05));
        net.enable_reliability(Reliability::default());
    }
    let cfg = ExerciseCfg {
        rounds_per_node: 3,
        max_req_size: 4,
        m,
        hold_steps: 2,
        active_nodes: active,
        step_cap: 2_000_000,
    };
    let mut schedule = Schedule::seeded(seed);
    let report = run_random_workload(&mut net, &cfg, &mut schedule);
    assert!(report.cs_completed > 0, "seed {seed}: no critical section ran");
    TAPE.with(|tape| {
        let mut tape = tape.borrow_mut();
        for &pick in schedule.picks() {
            tape.fold(pick);
        }
        tape.h
    })
}

/// The digest of family `algo` over `n` × `m` for the seeds `0..SEEDS`.
fn digest(algo: Algorithm, n: usize, m: usize, links: Links) -> u64 {
    let mut h = FNV_OFFSET;
    for seed in 0..SEEDS {
        let run = match algo {
            Algorithm::Incremental => digest_run(Incremental::build_nodes(n, m), m, None, links, seed),
            Algorithm::BouabdallahLaforest => {
                digest_run(BouabdallahLaforest::build_nodes(n, m), m, None, links, seed)
            }
            Algorithm::LassNoLoan => {
                digest_run(LassConfig::without_loan(n, m).build_nodes(), m, None, links, seed)
            }
            Algorithm::LassLoan => digest_run(LassConfig::with_loan(n, m).build_nodes(), m, None, links, seed),
            // `build_nodes(n)` appends one passive coordinator node.
            Algorithm::Central => {
                digest_run(Central::build_nodes(n, GrantPolicy::Conservative), m, Some(n), links, seed)
            }
            Algorithm::Maddi => digest_run(Maddi::build_nodes(n, m), m, None, links, seed),
        };
        h = (h ^ run).wrapping_mul(FNV_PRIME);
    }
    h
}

type Row<const K: usize> = [(Algorithm, u64); K];

/// Digest every family of `want` in one cell; print the row in source form
/// and fail if it differs.
fn check_cell<const K: usize>(label: &str, n: usize, m: usize, links: Links, want: &Row<K>) {
    let got = want.map(|(algo, _)| (algo, digest(algo, n, m, links)));
    if &got != want {
        println!("    // {label}");
        for (algo, d) in &got {
            println!("    (Algorithm::{algo:?}, {d:#018x}),");
        }
        panic!("{label}: schedule digests differ from the pinned literals (see stdout)");
    }
}

const PERFECT_16: Row<6> = [
    (Algorithm::Incremental, 0x3aec9ad92ab1eb15),
    (Algorithm::BouabdallahLaforest, 0x36245bcfab24ad5f),
    (Algorithm::LassNoLoan, 0x29694e44b0e18c98),
    (Algorithm::LassLoan, 0x7bab641e2f859b3b),
    (Algorithm::Central, 0x3291497bf907505a),
    (Algorithm::Maddi, 0xb722fee48c649cb7),
];

const LOSSY_16: Row<6> = [
    (Algorithm::Incremental, 0xb93b1bb8ef6008e4),
    (Algorithm::BouabdallahLaforest, 0x34d09feb28ecba20),
    (Algorithm::LassNoLoan, 0x5d3fa4e32f588b78),
    (Algorithm::LassLoan, 0xa6d9953ece020f6a),
    (Algorithm::Central, 0xc80a7c26c2b2c85a),
    (Algorithm::Maddi, 0x798c2bc662716299),
];

const PERFECT_100K: Row<5> = [
    (Algorithm::Incremental, 0xbd68ef9ac3d51ab8),
    (Algorithm::BouabdallahLaforest, 0x4592d21f1d93073a),
    (Algorithm::LassNoLoan, 0xea3b45386bb66879),
    (Algorithm::LassLoan, 0xea3b45386bb66879),
    (Algorithm::Central, 0x6b68243b5bc0a237),
];

const LOSSY_100K: Row<5> = [
    (Algorithm::Incremental, 0x363b75e599e78159),
    (Algorithm::BouabdallahLaforest, 0x9c567c5ff9e1dc3d),
    (Algorithm::LassNoLoan, 0xfd6be6d5ae0215e2),
    (Algorithm::LassLoan, 0xfd6be6d5ae0215e2),
    (Algorithm::Central, 0x62f2122f14813bf3),
];

#[test]
fn every_family_on_8_x_16_over_perfect_links_matches_its_pinned_digest() {
    check_cell("8 x 16, perfect links", 8, 16, Links::Perfect, &PERFECT_16);
}

#[test]
fn every_family_on_8_x_16_over_lossy_sessions_matches_its_pinned_digest() {
    check_cell("8 x 16, 10 % drop + 5 % dup, sessions on", 8, 16, Links::Lossy, &LOSSY_16);
}

#[test]
fn every_family_on_8_x_100_000_over_perfect_links_matches_its_pinned_digest() {
    check_cell("8 x 100 000, perfect links", 8, 100_000, Links::Perfect, &PERFECT_100K);
}

#[test]
fn every_family_on_8_x_100_000_over_lossy_sessions_matches_its_pinned_digest() {
    check_cell("8 x 100 000, 10 % drop + 5 % dup, sessions on", 8, 100_000, Links::Lossy, &LOSSY_100K);
}
