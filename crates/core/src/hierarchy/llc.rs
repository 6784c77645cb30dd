//! The shared banks: local/remote bank service, bank fills (with per-VM
//! way partitioning), and LLC-wide invalidation.

use super::HierarchyCtx;
use crate::metrics::MissSource;
use consim_cache::LineState;
use consim_noc::Packet;
use consim_types::{BankId, BlockAddr, CoreId, Cycle, NodeId};

impl HierarchyCtx<'_> {
    /// Serves a miss from the LLC (local bank, then nearest remote bank)
    /// or, failing both, from memory.
    pub(super) fn serve_from_llc_or_memory(
        &mut self,
        core: CoreId,
        cnode: NodeId,
        block: BlockAddr,
        t: Cycle,
        is_write: bool,
    ) -> (Cycle, MissSource) {
        let llc_latency = self.machine.llc.latency;
        let memory_latency = self.machine.memory_latency;
        let home = self.directory.home_of(block);
        let my_bank = self.machine.bank_of_core(core);
        // A core's own LLC bank is physically distributed across its group
        // (the paper's uniform 6-cycle L2), so the access point is the
        // requester's node; only *remote* banks cost a mesh traversal.
        let bnode = cnode;
        let at_bank = self.send(&Packet::control(home, bnode), t);
        let probed = at_bank + llc_latency;

        if self.llc[my_bank.index()].access(block).is_some() {
            let data = self.send(&Packet::data(bnode, cnode), probed);
            if is_write {
                // The writer's L1 copy becomes the only valid one.
                self.invalidate_llc_copies(block);
            }
            return (data, MissSource::LocalLlc);
        }

        // Nearest other bank holding the block.
        let remote = (0..self.llc.len())
            .filter(|&b| b != my_bank.index() && self.llc[b].contains(block))
            .min_by_key(|&b| {
                self.layout
                    .mesh()
                    .hops(self.layout.bank_node(BankId::new(b)), cnode)
            });
        if let Some(rb) = remote {
            let rnode = self.layout.bank_node(BankId::new(rb));
            let fwd = self.send(&Packet::control(bnode, rnode), probed);
            let served = fwd + llc_latency;
            let data = self.send(&Packet::data(rnode, cnode), served);
            let was_dirty = self.llc[rb]
                .probe(block)
                .map(LineState::is_dirty)
                .unwrap_or(false);
            if is_write {
                self.invalidate_llc_copies(block);
            } else {
                if was_dirty {
                    // Downgrade: push the dirty data to memory so clean
                    // copies can proliferate.
                    self.llc[rb].set_state(block, LineState::Shared);
                    let (mc, mcnode) = self.layout.memory_controller_of(block);
                    let arrive = self.send(&Packet::data(rnode, mcnode), served);
                    self.reserve_memory(mc, arrive);
                }
                // Replicate into the requester's bank.
                self.fill_llc(my_bank, block, LineState::Shared, served);
            }
            let source = if was_dirty {
                MissSource::RemoteLlcDirty
            } else {
                MissSource::RemoteLlcClean
            };
            return (data, source);
        }

        // Memory: queue at the controller, then pay the DRAM latency.
        let (mc, mcnode) = self.layout.memory_controller_of(block);
        let to_mc = self.send(&Packet::control(bnode, mcnode), probed);
        let service = self.reserve_memory(mc, to_mc);
        let fetched = service + memory_latency;
        let data = self.send(&Packet::data(mcnode, cnode), fetched);
        if !is_write {
            self.fill_llc(my_bank, block, LineState::Shared, fetched);
        }
        (data, MissSource::Memory)
    }

    /// Installs a block into an LLC bank, pushing dirty victims to memory.
    /// Under way partitioning the allocation is confined to the block's
    /// VM's allowed ways; without it this is the plain unrestricted fill.
    pub(super) fn fill_llc(
        &mut self,
        bank: BankId,
        block: BlockAddr,
        state: LineState,
        now: Cycle,
    ) {
        let victim = match self.llc_masks {
            Some(masks) => {
                self.llc[bank.index()].insert_in_ways(block, state, masks[block.vm().index()])
            }
            None => self.llc[bank.index()].insert(block, state),
        };
        if let Some(victim) = victim {
            if victim.state.is_dirty() {
                let bnode = self.layout.bank_node(bank);
                let (mc, mcnode) = self.layout.memory_controller_of(victim.block);
                let arrive = self.send(&Packet::data(bnode, mcnode), now);
                self.reserve_memory(mc, arrive);
            }
        }
    }

    /// Drops every LLC copy of a block (a writer took exclusive ownership).
    pub(super) fn invalidate_llc_copies(&mut self, block: BlockAddr) {
        for bank in self.llc.iter_mut() {
            bank.invalidate(block);
        }
    }
}
