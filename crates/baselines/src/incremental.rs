//! The incremental baseline (paper §2.1 and §5).
//!
//! One Naimi-Trehel mutual-exclusion instance per resource; a process locks
//! the resources of its request one at a time **in ascending resource
//! order**.  The global order makes cycles — hence deadlocks — impossible
//! (this is Lynch's classical observation, citation \[13\]), but while a
//! process waits for resource `r_k` it already holds `r_1..r_{k-1}`,
//! blocking everyone queued behind it: the *domino effect* that devastates
//! the resource use rate in the paper's Figure 5.

use mra_mutex::{NaimiTrehel, NtMsg};
use mra_protocol::{Allocator, Ctx, ProcState, WireMsg};
use mra_types::{NodeId, ResTable, ResourceId, ResourceSet};
use std::fmt;

/// Wire message: a Naimi-Trehel message tagged with its resource instance.
#[derive(Clone)]
pub struct IncMsg {
    /// Which per-resource Naimi-Trehel instance this belongs to.
    pub r: ResourceId,
    /// The embedded Naimi-Trehel message.
    pub inner: NtMsg<()>,
}

impl fmt::Debug for IncMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Inc[r{}]{:?}", self.r, self.inner)
    }
}

impl WireMsg for IncMsg {
    fn kind(&self) -> &'static str {
        match self.inner {
            NtMsg::Request { .. } => "Inc::Request",
            NtMsg::Token(_) => "Inc::Token",
        }
    }

    fn weight(&self) -> usize {
        2
    }
}

/// One node of the incremental algorithm.
///
/// The per-resource Naimi-Trehel instances live in a [`ResTable`]: dense at
/// paper scale, lazily materialized above [`mra_types::DENSE_TABLE_MAX`]
/// resources so a node only pays for instances it actually locks.
#[derive(Clone)]
pub struct Incremental {
    me: NodeId,
    elected: NodeId,
    state: ProcState,
    insts: ResTable<NaimiTrehel<()>>,
    required: ResourceSet,
    acquired: ResourceSet,
    /// The resource currently being waited for (always the smallest
    /// not-yet-acquired required resource).
    awaiting: Option<ResourceId>,
}

impl Incremental {
    /// Create node `me` of an `n`-node, `m`-resource system; `elected`
    /// initially holds every token.
    pub fn new(me: NodeId, _n: usize, m: usize, elected: NodeId) -> Self {
        Incremental {
            me,
            elected,
            state: ProcState::Idle,
            insts: ResTable::new_with(m, |_| Self::mk_inst(me, elected)),
            required: ResourceSet::new(),
            acquired: ResourceSet::new(),
            awaiting: None,
        }
    }

    fn mk_inst(me: NodeId, elected: NodeId) -> NaimiTrehel<()> {
        let mut inst = NaimiTrehel::new(me, elected);
        if me == elected {
            inst.give_initial_token(());
        }
        inst
    }

    /// The instance for `r`, materialized in its initial state on first
    /// touch.
    fn inst_mut(&mut self, r: ResourceId) -> &mut NaimiTrehel<()> {
        let (me, elected) = (self.me, self.elected);
        self.insts.get_or(r, |_| Self::mk_inst(me, elected))
    }

    /// Build all nodes of a system.
    pub fn build_nodes(n: usize, m: usize) -> Vec<Incremental> {
        (0..n).map(|i| Incremental::new(i, n, m, 0)).collect()
    }

    /// Resources currently locked by this node (diagnostics).
    pub fn acquired(&self) -> ResourceSet {
        self.acquired.clone()
    }

    /// Keep acquiring in ascending order until blocked or done.
    fn acquire_forward(&mut self, ctx: &mut Ctx<IncMsg>) {
        while let Some(r) = self.required.difference(&self.acquired).first() {
            self.awaiting = Some(r);
            let mut out: Vec<(NodeId, IncMsg)> = Vec::new();
            let got = self.inst_mut(r).request(&mut |to, inner| {
                out.push((to, IncMsg { r, inner }));
            });
            for (to, m) in out {
                ctx.send(to, m);
            }
            if got {
                self.acquired.insert(r);
                self.awaiting = None;
            } else {
                return; // blocked: wait for the token message
            }
        }
        // All resources acquired.
        self.state = ProcState::InCS;
        ctx.grant();
    }
}

impl Allocator for Incremental {
    type Msg = IncMsg;

    fn on_init(&mut self, _ctx: &mut Ctx<IncMsg>) {}

    fn on_message(&mut self, ctx: &mut Ctx<IncMsg>, _from: NodeId, msg: IncMsg) {
        let r = msg.r;
        let mut out: Vec<(NodeId, IncMsg)> = Vec::new();
        let got = self.inst_mut(r).on_message(msg.inner, &mut |to, inner| {
            out.push((to, IncMsg { r, inner }));
        });
        for (to, m) in out {
            ctx.send(to, m);
        }
        if got {
            debug_assert_eq!(self.awaiting, Some(r), "token for unexpected resource");
            self.acquired.insert(r);
            self.awaiting = None;
            self.acquire_forward(ctx);
        }
    }

    fn request(&mut self, ctx: &mut Ctx<IncMsg>, resources: ResourceSet) {
        assert_eq!(self.state, ProcState::Idle, "request while busy");
        assert!(!resources.is_empty());
        self.required = resources;
        self.acquired.clear();
        self.state = ProcState::WaitCS;
        self.acquire_forward(ctx);
    }

    fn release(&mut self, ctx: &mut Ctx<IncMsg>) {
        assert_eq!(self.state, ProcState::InCS, "release outside CS");
        for r in self.required.iter() {
            let mut out: Vec<(NodeId, IncMsg)> = Vec::new();
            self.inst_mut(r).release(&mut |to, inner| {
                out.push((to, IncMsg { r, inner }));
            });
            for (to, m) in out {
                ctx.send(to, m);
            }
        }
        self.required.clear();
        self.acquired.clear();
        self.state = ProcState::Idle;
    }

    fn state(&self) -> ProcState {
        self.state
    }

    fn name(&self) -> &'static str {
        "incremental"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_protocol::testkit::{check_schedules, ExerciseCfg, VirtualNet};

    #[test]
    fn elected_acquires_locally() {
        let mut nodes = Incremental::build_nodes(2, 4);
        let mut ctx = Ctx::new(0, 2);
        nodes[0].request(&mut ctx, [1, 3].into_iter().collect());
        assert!(ctx.take_granted());
        assert_eq!(nodes[0].state(), ProcState::InCS);
        nodes[0].release(&mut ctx);
        assert!(!ctx.has_output());
    }

    #[test]
    fn acquisition_is_in_ascending_order() {
        let mut nodes = Incremental::build_nodes(2, 4);
        let mut ctx1 = Ctx::new(1, 2);
        nodes[1].request(&mut ctx1, [2, 0].into_iter().collect());
        // Only resource 0 requested so far (ascending order).
        let out = ctx1.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.r, 0);
        assert_eq!(nodes[1].acquired(), ResourceSet::new());
    }

    #[test]
    fn random_runs_safe_and_live() {
        let net = VirtualNet::new(Incremental::build_nodes(5, 8), 8);
        let cfg = ExerciseCfg {
            rounds_per_node: 6,
            max_req_size: 4,
            m: 8,
            hold_steps: 3,
            active_nodes: None,
            step_cap: 3_000_000,
        };
        check_schedules(&net, &cfg, 0..10, |_, _| {});
    }
}
