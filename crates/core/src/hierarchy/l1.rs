//! The private levels: L0/L1 fills, private invalidations, and
//! cache-to-cache service from a remote L1.

use super::HierarchyCtx;
use crate::metrics::MissSource;
use consim_cache::LineState;
use consim_noc::Packet;
use consim_types::{BlockAddr, CoreId, Cycle, NodeId};

impl HierarchyCtx<'_> {
    /// Serves a miss from another core's L1 (cache-to-cache transfer).
    #[allow(clippy::too_many_arguments)] // one argument per protocol actor
    pub(super) fn serve_from_remote_l1(
        &mut self,
        supplier: CoreId,
        requester_node: NodeId,
        block: BlockAddr,
        t: Cycle,
        dirty: bool,
        is_write: bool,
        sharing_writeback: bool,
    ) -> (Cycle, MissSource) {
        let snode = self.layout.core_node(supplier);
        let home = self.directory.home_of(block);
        let fwd = self.send(&Packet::control(home, snode), t);
        let access_done = fwd + self.machine.l1.latency;
        let data = self.send(&Packet::data(snode, requester_node), access_done);

        if is_write {
            // Ownership moves wholesale; the supplier loses its copy. (For
            // dirty suppliers the directory already invalidated via
            // `outcome.invalidate`; clean suppliers may keep S only on
            // reads.)
            self.invalidate_private(supplier, block);
        } else if dirty {
            // Owner downgrades M -> S; dirty data also written back to the
            // memory controller (SGI-Origin sharing writeback), off the
            // critical path.
            self.l1[supplier.index()].set_state(block, LineState::Shared);
            self.l0[supplier.index()].set_state(block, LineState::Shared);
        }
        if sharing_writeback {
            let (mc, mcnode) = self.layout.memory_controller_of(block);
            let arrive = self.send(&Packet::data(snode, mcnode), access_done);
            self.reserve_memory(mc, arrive);
        }
        let source = if dirty {
            MissSource::RemoteL1Dirty
        } else {
            MissSource::RemoteL1Clean
        };
        (data, source)
    }

    /// Installs a block into a core's L1 (and L0), handling the eviction.
    pub(super) fn fill_l1(&mut self, core: CoreId, block: BlockAddr, state: LineState, now: Cycle) {
        if let Some(victim) = self.l1[core.index()].insert(block, state) {
            // Keep L0 inclusive.
            self.l0[core.index()].invalidate(victim.block);
            self.directory.evict(core, victim.block);
            if victim.state.is_dirty() {
                // Dirty victims write back into the local LLC bank, which is
                // distributed across the core's group (local delivery).
                let bank = self.machine.bank_of_core(core);
                let cnode = self.layout.core_node(core);
                self.send(&Packet::data(cnode, cnode), now);
                self.fill_llc(bank, victim.block, LineState::Modified, now);
            }
        }
        self.fill_l0(core, block, state);
    }

    /// Mirrors a block into L0 (strictly inclusive in L1; evictions are
    /// silent because L0 state mirrors L1).
    pub(super) fn fill_l0(&mut self, core: CoreId, block: BlockAddr, state: LineState) {
        self.l0[core.index()].insert(block, state);
    }

    /// Removes a block from a core's private hierarchy (coherence
    /// invalidation or ownership transfer).
    pub(super) fn invalidate_private(&mut self, core: CoreId, block: BlockAddr) {
        self.l1[core.index()].invalidate(block);
        self.l0[core.index()].invalidate(block);
    }
}
