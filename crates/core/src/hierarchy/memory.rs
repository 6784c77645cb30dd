//! The memory controllers: reservation-calendar occupancy (bandwidth
//! model) for cache-line transfers and directory-entry refills.

use super::HierarchyCtx;
use consim_types::{Cycle, MemCtrlId};

impl HierarchyCtx<'_> {
    /// Occupies a memory-controller service slot for one cache-line access
    /// starting no earlier than `ready`; returns when service begins.
    pub(super) fn reserve_memory(&mut self, mc: MemCtrlId, ready: Cycle) -> Cycle {
        let occupancy = self.machine.memory_occupancy.max(1);
        self.reserve_memory_slot(mc, ready, occupancy)
    }

    /// Occupies a *directory-entry* service slot: an 8-byte entry read costs
    /// a quarter of a cache-line transfer's bandwidth.
    pub(super) fn reserve_directory_refill(&mut self, mc: MemCtrlId, ready: Cycle) -> Cycle {
        let occupancy = (self.machine.memory_occupancy / 4).max(1);
        self.reserve_memory_slot(mc, ready, occupancy)
    }

    fn reserve_memory_slot(&mut self, mc: MemCtrlId, ready: Cycle, occupancy: u64) -> Cycle {
        let start =
            self.memory_controllers[mc.index()].reserve(ready.raw(), occupancy, self.floor.raw());
        Cycle::new(start)
    }
}
