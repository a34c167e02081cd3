//! The drinking philosophers (Chandy–Misra 1984), solved with the paper's
//! algorithm — *without* knowing the conflict graph.
//!
//! Each of the N philosophers shares one bottle with each table neighbor
//! (bottle `i` sits between philosophers `i` and `(i+1) % N`).  A drinking
//! session needs a random non-empty subset of the philosopher's adjacent
//! bottles — exactly the dynamic conflict structure that makes the problem
//! harder than dining philosophers.
//!
//! The example verifies safety live (via the protocol testkit) and shows
//! the concurrency property: philosophers with disjoint bottle sets drink
//! simultaneously.
//!
//! ```text
//! cargo run --release --example drinking_philosophers
//! ```

use mra::core::LassConfig;
use mra::protocol::testkit::{Schedule, VirtualNet};
use mra::types::ResourceSet;

const N: usize = 5; // philosophers == bottles around the table

fn adjacent_bottles(philosopher: usize) -> [usize; 2] {
    [philosopher, (philosopher + N - 1) % N]
}

fn main() {
    let cfg = LassConfig::with_loan(N, N);
    let mut net = VirtualNet::new(cfg.build_nodes(), N);
    let mut schedule = Schedule::seeded(2024);

    let mut sessions = vec![0usize; N];
    let mut max_drinking_at_once = 0;
    let rounds = 40;

    println!("{N} drinking philosophers, {rounds} sessions each\n");
    while sessions.iter().any(|&s| s < rounds) {
        // Random scheduler step: deliver protocol traffic (3 in 5) or act.
        if schedule.pick(5) < 3 && net.deliver_one(&mut schedule) {
            // a message moved
        } else {
            let p = schedule.pick(N);
            if net.in_cs(p) {
                sessions[p] += 1;
                net.release(p);
            } else if net.state(p) == mra::protocol::ProcState::Idle && sessions[p] < rounds {
                // Thirsty: grab both adjacent bottles (1 in 2) or one.
                let [a, b] = adjacent_bottles(p);
                let set: ResourceSet = match schedule.pick(4) {
                    0 | 1 => [a, b].into_iter().collect(),
                    2 => ResourceSet::singleton(a),
                    _ => ResourceSet::singleton(b),
                };
                net.request(p, set);
            }
        }
        max_drinking_at_once = max_drinking_at_once.max(net.monitor.concurrency());
    }

    println!("sessions completed per philosopher: {sessions:?}");
    println!("max philosophers drinking at once:  {max_drinking_at_once}");
    println!("messages delivered:                 {}", net.delivered());
    println!(
        "\nNo deadlock, no double-held bottle (checked live), and at least \
         two philosophers drank concurrently: {}",
        if max_drinking_at_once >= 2 { "yes" } else { "no" }
    );
    assert!(max_drinking_at_once >= 2);
}
