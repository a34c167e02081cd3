//! Lift a [`NaimiTrehel`] instance into the workspace-wide [`Allocator`]
//! interface.
//!
//! This serves two purposes: it lets the mutual-exclusion substrate be
//! tested under the same randomized `VirtualNet` harness (and the timed
//! simulator) as the multi-resource protocols, and it documents the precise
//! correspondence: a single-resource system is the degenerate multi-resource
//! problem with `M = 1`.

use crate::{NaimiTrehel, NtMsg};
use mra_protocol::{Allocator, Ctx, ProcState};
use mra_types::{NodeId, ResourceSet};

/// [`Allocator`] adapter over [`NaimiTrehel`].
///
/// Every request must be for the same singleton resource set (conventionally
/// `{0}`); the adapter asserts this.
#[derive(Clone)]
pub struct MutexAllocator<T> {
    inner: NaimiTrehel<T>,
    state: ProcState,
    name: &'static str,
}

impl<T> MutexAllocator<T> {
    /// Wrap `inner`, reporting `name` in summaries.
    pub fn new(inner: NaimiTrehel<T>, name: &'static str) -> Self {
        MutexAllocator {
            inner,
            state: ProcState::Idle,
            name,
        }
    }

    /// Access the wrapped protocol (tests inspect token position).
    pub fn inner(&self) -> &NaimiTrehel<T> {
        &self.inner
    }
}

/// Bridge a `Ctx` send queue into the `FnMut(NodeId, Msg)` sink
/// [`NaimiTrehel`] expects.
fn with_sink<M, R>(ctx: &mut Ctx<M>, f: impl FnOnce(&mut dyn FnMut(NodeId, M)) -> R) -> R {
    let mut buf: Vec<(NodeId, M)> = Vec::new();
    let r = f(&mut |to, m| buf.push((to, m)));
    for (to, m) in buf {
        ctx.send(to, m);
    }
    r
}

impl<T: Clone + Send + 'static> Allocator for MutexAllocator<T> {
    type Msg = NtMsg<T>;

    fn on_init(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, _from: NodeId, msg: Self::Msg) {
        let acquired = with_sink(ctx, |sink| self.inner.on_message(msg, sink));
        if acquired {
            debug_assert_eq!(self.state, ProcState::WaitCS);
            self.state = ProcState::InCS;
            ctx.grant();
        }
    }

    fn request(&mut self, ctx: &mut Ctx<Self::Msg>, resources: ResourceSet) {
        assert_eq!(self.state, ProcState::Idle, "request while busy");
        assert_eq!(
            resources.len(),
            1,
            "MutexAllocator manages exactly one resource"
        );
        let acquired = with_sink(ctx, |sink| self.inner.request(sink));
        if acquired {
            self.state = ProcState::InCS;
            ctx.grant();
        } else {
            self.state = ProcState::WaitCS;
        }
    }

    fn release(&mut self, ctx: &mut Ctx<Self::Msg>) {
        assert_eq!(self.state, ProcState::InCS, "release outside CS");
        with_sink(ctx, |sink| self.inner.release(sink));
        self.state = ProcState::Idle;
    }

    fn state(&self) -> ProcState {
        self.state
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mra_testkit::{check_schedules, ExerciseCfg, VirtualNet};

    fn nt_net(n: usize) -> VirtualNet<MutexAllocator<()>> {
        let nodes = (0..n)
            .map(|i| {
                let mut nt = NaimiTrehel::new(i, 0);
                if i == 0 {
                    nt.give_initial_token(());
                }
                MutexAllocator::new(nt, "naimi-trehel")
            })
            .collect();
        VirtualNet::new(nodes, 1)
    }

    fn single_resource_cfg(rounds: usize) -> ExerciseCfg {
        ExerciseCfg {
            rounds_per_node: rounds,
            max_req_size: 1,
            m: 1,
            hold_steps: 2,
            active_nodes: None,
            step_cap: 500_000,
        }
    }

    #[test]
    fn naimi_trehel_random_safety_liveness() {
        check_schedules(&nt_net(6), &single_resource_cfg(6), 0..10, |net, rep| {
            // Single resource: concurrency can never exceed 1.
            assert_eq!(rep.max_concurrency, 1);
            // Quiet: exactly one token exists.
            let holders = (0..6).filter(|&i| net.node(i).inner().holds_token()).count();
            assert_eq!(holders, 1, "token count");
        });
    }
}
