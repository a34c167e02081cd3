//! Microbenchmark guard: the steady-state `Deliver` dispatch path of the
//! simulator must perform **zero heap allocations** after warmup, and a
//! real LASS fleet on top of it must stay inside a small **allocation
//! budget per event**.
//!
//! The engine probe wires [`EchoProbe`] (Copy messages, no internal state
//! growth) into the real [`Sim`] engine with zero active nodes, so every
//! event after `init()` is a `Deliver`.  A counting global allocator then
//! asserts that thousands of steady-state steps allocate nothing: the
//! event queue reuses its free-list slab, the outbox drains in place, and
//! the collector's per-kind counters (`obs::KindCounts`) find their slot
//! by address.
//!
//! The LASS cases run the paper's closed-loop workload over `mra-core`'s
//! protocol step: its handlers recycle the payload vectors they receive
//! and move each token in the one box it keeps, so what is left to
//! allocate is what legitimately grows (token queues, pending histories,
//! the collector's records) — a budget, not zero.  The same counter (by bytes)
//! checks that a corrupt frame cannot make the decoder reserve more than
//! the frame itself.  It also subtracts what is freed, so it follows the
//! live heap and its peak: a whole run's peak is checked against the state
//! the run holds.
//!
//! The counter is thread-local so the other tests of this binary (and the
//! libtest harness itself) cannot pollute the measurement.
//!
//! The observability hooks (`mra_obs::EngineTracer`) are **compiled into**
//! every path measured here: the disarmed tests certify that a disarmed
//! tracer is a single-branch no-op that touches no memory, and the
//! armed-ring test certifies the `MRA_TRACE=ring` production mode records
//! into its pre-sized ring with zero allocations after arming — the fixed
//! allocation bound that makes always-on tracing deployable.

use mra_core::{Lass, LassConfig, LassMsg, Request, Token};
use mra_protocol::faults::FaultPlan;
use mra_protocol::reliable::Reliability;
use mra_protocol::testkit::EchoProbe;
use mra_protocol::wire::{put_u32, put_u64};
use mra_protocol::WireCodec;
use mra_sim::obs::TraceMode;
use mra_sim::{FixedWorkload, LatencyModel, Sim, SimConfig, Workload};
use mra_types::{ResourceSet, Time};
use rand::rngs::StdRng;
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread, and the highest
    /// value it has reached since [`reset_heap_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    /// Blocks allocated minus blocks freed on this thread.
    static BLOCKS: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// One allocating call asking for `size` bytes; `try_with` keeps the
/// allocator infallible during TLS construction/teardown.
fn count(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

/// The live heap moves by `delta` bytes, and its block count by `blocks`.
/// A `realloc` moves it by the difference of its sizes: the heap holding
/// both blocks while one is copied into the other is the allocator's
/// business, not the program's.
fn live(delta: i64, blocks: i64) {
    let _ = BLOCKS.try_with(|c| c.set(c.get() + blocks));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Count every allocating entry point on the current thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64, 1);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        live(layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        live(new_size as i64 - layout.size() as i64, 0);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_on_this_thread() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn bytes_on_this_thread() -> u64 {
    BYTES.with(|c| c.get())
}

fn live_heap() -> i64 {
    LIVE.with(|c| c.get())
}

fn live_blocks() -> i64 {
    BLOCKS.with(|c| c.get())
}

/// Start a new peak at the present live heap.
fn reset_heap_peak() {
    PEAK.with(|c| c.set(live_heap()));
}

fn heap_peak() -> i64 {
    PEAK.with(|c| c.get())
}

#[test]
fn steady_state_deliver_dispatch_is_allocation_free() {
    assert_zero_alloc_dispatch(None, None, 3, TraceMode::Off);
}

/// The armed `MRA_TRACE=ring` hot path must be allocation-free too: the
/// ring buffer and the per-node Lamport clocks are pre-sized when
/// tracing is armed, so recording — including ring
/// overwrite once the buffer is full — performs zero allocations over 20k
/// steady-state events.  The ring is sized well below the warmup event
/// count so the measured window runs entirely in overwrite mode, the
/// worst (and steady-state) case.
#[test]
fn steady_state_dispatch_with_armed_ring_tracing_is_allocation_free() {
    assert_zero_alloc_dispatch(None, None, 3, TraceMode::Ring(2_048));
}

/// Same guard with a [`FaultPlan`] installed: the fault admission path
/// (outage scan, partition scan, two counter-hash verdicts per frame,
/// stats counters) must not allocate either.  The plan exercises every
/// branch shape: probabilistic drop + dup on all links, a partition window
/// and a pause window scheduled far beyond the measured horizon so their
/// checks run on every event without ever killing the echo traffic.
#[test]
fn steady_state_dispatch_with_fault_plan_is_allocation_free() {
    let far = Time::from_secs(3000);
    let later = Time::from_secs(3100);
    let plan = FaultPlan::new(0xFA17)
        // Small enough that of ~120 in-flight echo balls only a handful
        // die over the measured 20k events; dup verdicts are pure counting.
        .drop_rate(0.0005)
        .dup_rate(0.2)
        .partition(vec![0, 1], far, later)
        .pause(2, far, later);
    // Fan 40: node 0 seeds 40 balls per peer = 120 concurrent ping-pongs.
    assert_zero_alloc_dispatch(Some(plan), None, 40, TraceMode::Off);
}

/// Same guard with the reliable session layer enabled over a *lossy* plan:
/// the full recovery machinery is live in steady state — per-frame
/// sequencing into pre-sized per-link ring buffers, piggybacked and
/// standalone acks, duplicate absorption by the receive window, and
/// retransmit timers cycling through the event heap — and none of it may
/// allocate.  The window and event-slab headroom are pre-sized up front
/// (`Reliability::window`, `Sim::reserve_events`), exactly how a
/// production deployment would bound its memory.
#[test]
fn steady_state_dispatch_with_reliability_over_loss_is_allocation_free() {
    let plan = FaultPlan::new(0xFA17).drop_rate(0.0005).dup_rate(0.05);
    let mut rel = Reliability::with_rto(Time::from_millis(5));
    // Cover the worst-case unacked backlog of 120 in-flight balls per
    // direction plus retransmission races.
    rel.window = 512;
    // Ring tracing rides along here as well: retransmit and fault-verdict
    // records must be as allocation-free as plain sends and recvs.
    assert_zero_alloc_dispatch(Some(plan), Some(rel), 40, TraceMode::Ring(2_048));
}

fn assert_zero_alloc_dispatch(
    plan: Option<FaultPlan>,
    reliability: Option<Reliability>,
    fan: u64,
    trace: TraceMode,
) {
    let n = 4;
    // Several balls in flight exercise the slab free list beyond the
    // single-slot case.
    let protos: Vec<EchoProbe> = (0..n).map(|me| EchoProbe::new(me, fan)).collect();
    let workloads: Vec<FixedWorkload> = (0..n)
        .map(|_| FixedWorkload {
            think: Time::from_millis(1),
            cs: Time::from_millis(1),
            m: 4,
            size: 1,
        })
        .collect();
    let mut cfg = SimConfig::quick(3);
    cfg.latency = LatencyModel::paper_lan();
    // Horizon far enough out that the ping-pong never hits it.
    cfg.measure = Time::from_secs(3600);
    cfg.drain = Time::from_secs(3600);
    // No active nodes: no Think/CsEnd events, only message deliveries.
    cfg.active_nodes = Some(0);

    let mut sim = Sim::new(protos, workloads, 4, cfg);
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
    if let Some(r) = reliability {
        sim.set_reliability(r);
        // Headroom for ack events and retransmission bursts: the event
        // population peak must land inside pre-sized buffers.
        sim.reserve_events(8_192);
    }
    sim.set_tracing(trace);
    sim.init();

    // Warmup: grow every buffer (outbox, heap, slab, kind table) to its
    // steady-state footprint.
    for _ in 0..4_000 {
        assert!(sim.step(), "probe ran out of events during warmup");
    }

    let before = allocs_on_this_thread();
    for _ in 0..20_000 {
        assert!(sim.step(), "probe ran out of events during measurement");
    }
    let delta = allocs_on_this_thread() - before;
    assert_eq!(
        delta, 0,
        "steady-state Deliver dispatch allocated {delta} times over 20k events"
    );
}

/// The paper's closed-loop request generator (§5.1; `mra-workloads`, which
/// owns the real one, sits above this crate): exponential think time of
/// mean β, request size uniform on `1..=φ`, that many distinct resources
/// uniform over `m`, CS time linear in the size from 5 to 35 ms.
struct PaperShaped {
    m: usize,
    phi: usize,
    beta: Time,
}

impl Workload for PaperShaped {
    fn think_time(&mut self, rng: &mut StdRng) -> Time {
        let u: f64 = rng.gen_range(0.0..1.0f64);
        Time::from_secs_f64(-self.beta.as_secs_f64() * (1.0 - u).max(1e-12).ln())
    }

    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time) {
        let x = rng.gen_range(1..=self.phi);
        let mut set = ResourceSet::new();
        while set.len() < x {
            set.insert(rng.gen_range(0..self.m));
        }
        let f = (x - 1) as f64 / (self.phi - 1).max(1) as f64;
        (set, Time::from_millis_f64(5.0 + 30.0 * f))
    }
}

/// A LASS+loan fleet of `n` sites over `m` resources on the paper's
/// workload (requests of up to `phi` resources, think time `rho` times a
/// critical section plus a message), measuring for `measure`.
fn lass_sim(n: usize, m: usize, phi: usize, rho: f64, measure: Time) -> Sim<Lass, PaperShaped> {
    let gamma = Time::from_micros(600);
    let beta = Time::from_millis_f64(rho * (20.0 + gamma.as_millis_f64()));
    let workloads: Vec<PaperShaped> = (0..n).map(|_| PaperShaped { m, phi, beta }).collect();
    let mut cfg = SimConfig::quick(7);
    cfg.latency = LatencyModel::Constant(gamma);
    cfg.measure = measure;
    cfg.drain = measure;
    Sim::new(LassConfig::with_loan(n, m).build_nodes(), workloads, m, cfg)
}

/// Heap allocations and allocated bytes per engine event of a LASS+loan
/// fleet on the sequential engine, over `events` events after as many of
/// warm-up.
fn lass_alloc_per_event(n: usize, m: usize, phi: usize, rho: f64, events: u64) -> (f64, f64) {
    let mut sim = lass_sim(n, m, phi, rho, Time::from_secs(3600));
    sim.init();
    for _ in 0..events {
        assert!(sim.step(), "fleet ran out of events during warmup");
    }
    let before = (allocs_on_this_thread(), bytes_on_this_thread());
    for _ in 0..events {
        assert!(sim.step(), "fleet ran out of events during measurement");
    }
    let calls = (allocs_on_this_thread() - before.0) as f64 / events as f64;
    let bytes = (bytes_on_this_thread() - before.1) as f64 / events as f64;
    println!("LASS+loan {n} x {m}, phi {phi}: {calls:.3} allocations, {bytes:.0} bytes per event");
    (calls, bytes)
}

/// The paper's shape (32 × 80, φ = 16, high load): every set is a bitmap,
/// so what the LASS step allocates is its own doing.  Measured 0.223, and
/// 51 bytes per event.  A pending history holds one request inline and
/// goes back inline when a replay leaves one or none, so a resource
/// forwarded for again allocates its buffer again: 0.182 and 45 bytes
/// while a history kept its buffer for good.  The staging is one block per
/// thread lent to each handler: a payload one node receives becomes a
/// batch another node sends (0.341 and 66 bytes while each node recycled
/// only into its own block, and a node sending more batches of a kind than
/// it received allocated the rest); 0.455 and 112 bytes while each send
/// copied the token into a recycled snapshot; before loan requests were
/// boxed it read 0.436 and 151 bytes, before the handlers recycled payload
/// vectors and snapshots 4.6.
#[test]
fn lass_step_on_the_paper_shape_stays_within_its_allocation_budget() {
    let (per_event, _) = lass_alloc_per_event(32, 80, 16, 0.1, 200_000);
    assert!(
        per_event <= 0.25,
        "LASS on the paper shape allocated {per_event:.3} times per event (budget 0.25)"
    );
}

/// A shape whose ids leave the bitmap's range (`visited` past node 255,
/// request and loan sets past resource 255; φ = 4, medium load).  Sets of
/// up to eight elements stay inline in the sparse form, so a request, a
/// loan's `missing` set and a few-hop `visited` path cost nothing; what is
/// left is what grows (token queues, pending histories, owned-token sets
/// past eight) — the budget keeps the rest from growing unnoticed.
#[test]
fn lass_step_on_a_heap_set_shape_stays_within_its_allocation_budget() {
    let (per_event, _) = lass_alloc_per_event(300, 3_000, 4, 1.0, 200_000);
    assert!(
        per_event <= HEAP_SET_BUDGET,
        "LASS on the heap-set shape allocated {per_event:.3} times per event \
         (budget {HEAP_SET_BUDGET})"
    );
}

/// Measured 0.632 (0.838 while the handlers' "every owned token" scans
/// copied the owned set, a heap block once it spans more than four
/// 64-bit words, instead of walking the work list; 0.839 while every
/// pending history was a heap vector, 0.875 while each node kept its own
/// staging, 0.94 while a sent token was copied, 1.34 when every set past
/// id 255 was a heap block, 1.70 with universe-sized bitmaps, 4.81 before
/// the handlers recycled their buffers).  The margin, about 9 %, absorbs workload
/// drift, not a regression of the mechanism (0.96 until the scans walked
/// the work list, 1.0 until histories went inline).
const HEAP_SET_BUDGET: f64 = 0.69;

/// What a set costs must follow what it holds, not the universe it is
/// drawn from: the same fleet over 100 000 resources (the `sim-scale`
/// universe).  Measured 0.546 allocations and 288 bytes per event (1.261
/// and 1 521 while every "every owned token" scan copied the owned set:
/// the elected site's ~1 563 chunks, 25 KB, a scan; 1.377
/// and 1 531 while every pending history was a heap vector, 14 353 of
/// 18 165 of them on the 10 000-site shape holding one request; 1.651
/// and 1 653 while every token kept its stamp rows on the heap and every
/// entry a pending-history vector; 1.85
/// and 1 663 while each node kept its own staging; 1.69 and 1 940 while a
/// sent token was copied: each token now gets one box for its life, the
/// first time it leaves the elected site, and over 100 000 resources first
/// departures still happen in the measured window; 2.36 and 2 004 when
/// every set past id 255 was a heap block); with sets sized by their
/// largest element (12.5 KB here) it read 26 728 bytes.
#[test]
fn lass_step_over_a_large_universe_allocates_bytes_by_set_size_not_universe_size() {
    let (calls, bytes) = lass_alloc_per_event(300, 100_000, 4, 1.0, 50_000);
    assert!(
        calls <= LARGE_UNIVERSE_BUDGET,
        "LASS over 100 000 resources allocated {calls:.3} times per event \
         (budget {LARGE_UNIVERSE_BUDGET})"
    );
    assert!(
        bytes <= LARGE_UNIVERSE_BYTES,
        "LASS over 100 000 resources allocated {bytes:.0} bytes per event \
         (budget {LARGE_UNIVERSE_BYTES})"
    );
}

/// About 10 % over the 0.546 measured above, so that a scan copying the
/// owned set again fails it (1.37 until the scans walked the work list,
/// 1.6 until histories went inline, 1.9 until token stamp rows went
/// inline).
const LARGE_UNIVERSE_BUDGET: f64 = 0.60;

/// About 9 % over the 288 bytes measured above (4 000 until the scans
/// walked the work list).
const LARGE_UNIVERSE_BYTES: f64 = 315.0;

/// What the 300 × 100 000 fleet holds after `LARGE_UNIVERSE_EVENTS`
/// events: the live heap and the live blocks it added, from building the
/// fleet on.  The allocation budgets above count what a step allocates,
/// not what stays; this counts what stays, deterministically, where
/// `sim-scale`'s peak RSS cannot resolve a few percent.  Measured
/// 20 464 452 bytes in 53 759 blocks, in debug and release alike.
#[test]
fn a_large_universe_fleet_holds_no_more_than_its_state() {
    let (heap, blocks) = (live_heap(), live_blocks());
    let mut sim = lass_sim(300, 100_000, 4, 1.0, Time::from_secs(3600));
    sim.init();
    for _ in 0..LARGE_UNIVERSE_EVENTS {
        assert!(sim.step(), "fleet ran out of events");
    }
    let (heap, blocks) = (live_heap() - heap, live_blocks() - blocks);
    println!("LASS+loan 300 x 100000 after {LARGE_UNIVERSE_EVENTS} events: {heap} live bytes in {blocks} blocks");
    assert!(
        heap <= LARGE_UNIVERSE_LIVE_BYTES && blocks <= LARGE_UNIVERSE_LIVE_BLOCKS,
        "{heap} live bytes in {blocks} blocks (budgets {LARGE_UNIVERSE_LIVE_BYTES}, \
         {LARGE_UNIVERSE_LIVE_BLOCKS})"
    );
}

const LARGE_UNIVERSE_EVENTS: u64 = 100_000;

/// 2 % over the bytes measured above.
const LARGE_UNIVERSE_LIVE_BYTES: i64 = 20_873_741;

/// 2 % over the blocks measured above.
const LARGE_UNIVERSE_LIVE_BLOCKS: i64 = 54_834;

/// A run's heap peaks at the state it holds: over a whole 32 × 80 run,
/// from building the fleet to the assembled result, the heap may rise
/// above what is live when the event loop ends by at most 8 bytes per
/// request record, which is what ordering the records takes (4-byte
/// indices).  The run is `sim-paper`'s 500 s window.  Measured 3.9 bytes
/// per record over 33 852 records (103.9, a copy of every 104-byte record,
/// while a stable sort ordered them).
#[test]
fn a_runs_heap_peaks_at_the_state_it_holds() {
    reset_heap_peak();
    let mut sim = lass_sim(32, 80, 16, 0.1, Time::from_secs(500));
    sim.init();
    while sim.step() {}
    let at_loop_end = live_heap();
    let res = sim.run();
    let records = res.records.len();
    let per_record = (heap_peak() - at_loop_end) as f64 / records as f64;
    println!("32 x 80: heap peak {per_record:.1} bytes per record above the loop's end");
    assert!(
        records > 0 && per_record <= 8.0,
        "{per_record:.1} bytes per record over {records} records (budget 8)"
    );
}

/// A three-element set at the far end of that universe, and its clone,
/// live inline: no allocation at all.
#[test]
fn a_sparse_set_over_a_large_universe_is_a_few_dozen_bytes() {
    let before = bytes_on_this_thread();
    let set: ResourceSet = [5, 70_000, 99_999].into_iter().collect();
    let copy = set.clone();
    let bytes = bytes_on_this_thread() - before;
    assert!(
        bytes == 0 && copy == set,
        "{bytes} bytes for {set:?} and its clone"
    );
}

/// A token stamped by two sites keeps both rows in itself; a third site
/// moves the rows to one heap block, and every stamp still reads back.
#[test]
fn a_token_stamped_by_two_sites_allocates_nothing() {
    let before = (allocs_on_this_thread(), bytes_on_this_thread());
    let mut t = Token::new(99_999);
    t.set_last_req_c(9_000, 3);
    t.set_last_cs(17, 2);
    t.set_last_req_c(17, 4);
    let bytes = bytes_on_this_thread() - before.1;
    assert_eq!(bytes, 0, "{bytes} bytes for a token stamped by two sites");
    t.set_last_cs(4_242, 5);
    assert_eq!(allocs_on_this_thread() - before.0, 1, "a third site is one heap block");
    let stamps = [17, 4_242, 9_000].map(|s| (t.last_req_c(s), t.last_cs(s)));
    assert_eq!(stamps, [(4, 2), (0, 5), (3, 0)]);
}

/// A set is as large as its bitmap form, and a request item as its
/// largest inline variant: a loan, whose set would make every `ReqCnt` and
/// `ReqRes` item in request batches and pending histories 72 bytes, is
/// boxed.
#[test]
fn a_set_and_a_request_item_stay_small() {
    assert_eq!(std::mem::size_of::<ResourceSet>(), 40);
    assert!(std::mem::size_of::<Request>() <= 40);
}

/// A 64 KB frame whose one token claims 5 459 `lastReqC` stamps, all of
/// one site: the claim passes the 12-bytes-a-stamp length check, but the
/// second stamp breaks the strictly increasing order, and the decoder must
/// not have grown the token's rows (24 bytes each, 131 016 bytes for the
/// claim) before finding that out.
#[test]
fn corrupt_stamp_count_cannot_make_the_decoder_reserve_more_than_the_frame() {
    let mut frame = vec![2u8]; // LassMsg::Tokens
    put_u32(&mut frame, 1); // one token
    put_u32(&mut frame, 3); // r
    put_u64(&mut frame, 17); // counter
    put_u32(&mut frame, 5_459); // lastReqC count
    while frame.len() + 12 <= 64 * 1024 {
        put_u32(&mut frame, 7);
        put_u64(&mut frame, 1);
    }
    frame.resize(64 * 1024, 0);
    let before = bytes_on_this_thread();
    let decoded = LassMsg::from_bytes(&frame);
    let reserved = bytes_on_this_thread() - before;
    assert!(decoded.is_err(), "garbage decoded as {decoded:?}");
    assert!(
        reserved < frame.len() as u64,
        "decoder allocated {reserved} bytes for a {}-byte corrupt frame",
        frame.len()
    );
}

/// A hostile 64 KB frame (`mra_net::frame::MAX_FRAME`) claiming 60 000
/// tokens passes the one-byte-per-element length check; the decoder must
/// not turn that count into a 7.7 MB reservation before the first element
/// fails to decode.
#[test]
fn corrupt_token_count_cannot_make_the_decoder_reserve_more_than_the_frame() {
    let mut frame = vec![2u8]; // LassMsg::Tokens
    put_u32(&mut frame, 60_000);
    frame.resize(64 * 1024, 0xFF);
    let before = bytes_on_this_thread();
    let decoded = LassMsg::from_bytes(&frame);
    let reserved = bytes_on_this_thread() - before;
    assert!(decoded.is_err(), "garbage decoded as {decoded:?}");
    assert!(
        reserved < frame.len() as u64,
        "decoder allocated {reserved} bytes for a {}-byte corrupt frame",
        frame.len()
    );
}
