//! Core value types shared by every crate in the `mra` workspace.
//!
//! This crate is dependency-free on purpose: protocol crates, the simulator
//! and the workload harness all build on these primitives, so keeping them
//! small and `Copy` keeps the hot paths allocation-free.
//!
//! * [`Time`] — a nanosecond-resolution instant/duration used as virtual time
//!   by the discrete-event simulator and as real time by the TCP
//!   runtime.
//! * [`DynSet`] — a set of indices: a 256-bit inline bitmap while every
//!   element is below 256, up to eight sorted elements of any value in the
//!   same inline bytes, its sorted nonzero 64-bit words past both, so a
//!   set costs what it holds whatever the universe.  [`ResourceSet`] and
//!   [`NodeSet`] are typed aliases.
//! * [`ResTable`] — per-resource state storage, dense for small universes
//!   and lazily materialized at 100k-resource scale.
//! * [`IdMap`] / [`IdHasher`] — the hash map for program-minted ids, one
//!   multiply per key (`ResTable`'s sparse side, the simulator's lanes).
//! * [`NodeId`] / [`ResourceId`] / [`RequestId`] — plain index aliases.
//! * [`env_flag`] — the one parser of the workspace's boolean `MRA_*`
//!   environment knobs.

pub mod dynset;
pub mod restable;
pub mod time;

pub use dynset::{DynSet, SetIter};
pub use restable::{IdHasher, IdMap, ResTable, DENSE_TABLE_MAX};
pub use time::Time;

/// A set of resources (`ResourceId`s).  The paper's `D`, `TOwned`,
/// `TRequired`, `CntNeeded`, `TLent` and `missingRes` are all `ResourceSet`s.
pub type ResourceSet = DynSet;

/// A set of nodes (`NodeId`s).  Used for the visited-node sets carried by
/// forwarded request messages (paper §4.2.1).
pub type NodeSet = DynSet;

/// Identifier of a node (process/site).  Nodes are numbered `0..N`.
///
/// The paper orders sites totally by their identifier (`s_i ≺ s_j ⇔ i < j`);
/// the natural `usize` order is that order.
pub type NodeId = usize;

/// Identifier of a resource.  Resources are numbered `0..M`.
pub type ResourceId = usize;

/// Per-site critical-section request identifier (the paper's `id`).
///
/// Each site increments its own counter at every new request, so the pair
/// `(NodeId, RequestId)` uniquely identifies a critical-section request.
pub type RequestId = u64;

/// Is the boolean environment knob `name` switched on?  On means `1`,
/// `true`, `yes` or `on` (ASCII case-insensitive, surrounding whitespace
/// ignored); unset, empty or anything else is off.  Every boolean `MRA_*`
/// knob (`MRA_FAST`, `MRA_RELIABLE`) is read through here,
/// so a value means the same thing to each of them.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| is_truthy(&v))
}

fn is_truthy(value: &str) -> bool {
    let value = value.trim();
    ["1", "true", "yes", "on"].iter().any(|on| value.eq_ignore_ascii_case(on))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_truth_table() {
        for on in ["1", "true", "TRUE", "True", "yes", "Yes", "on", "ON", " 1 ", "on\n"] {
            assert!(is_truthy(on), "{on:?} must read as on");
        }
        for off in ["", " ", "0", "false", "no", "off", "2", "11", "y", "t", "enabled"] {
            assert!(!is_truthy(off), "{off:?} must read as off");
        }
        // Own variable name: no other test reads or writes it.
        const KNOB: &str = "MRA_TYPES_ENV_FLAG_TEST";
        std::env::remove_var(KNOB);
        assert!(!env_flag(KNOB), "unset is off");
        std::env::set_var(KNOB, "true");
        assert!(env_flag(KNOB));
        std::env::set_var(KNOB, "0");
        assert!(!env_flag(KNOB));
        std::env::remove_var(KNOB);
    }
}
