//! The memory-access pipeline: the slow half of one reference's walk.
//!
//! [`crate::engine`] owns the event loop, scheduling, and epochs — and,
//! since the raw-speed overhaul, the private L0/L1 hit fast path (see
//! `Simulation::private_access`): a hit needing no coherence action
//! completes inline without borrowing any of the structures below. This
//! module owns everything else — what happens once a reference misses the
//! private levels (or needs an upgrade): the directory transaction, and
//! the fills, downgrades, and invalidations each level performs. Each
//! level's logic lives in its own submodule behind a small internal API:
//!
//! * [`l1`] — the private levels: L0/L1 fills, private invalidations, and
//!   cache-to-cache service from a remote L1;
//! * [`llc`] — the shared banks: local/remote bank service, bank fills
//!   (with per-VM way partitioning), and LLC-wide invalidation;
//! * [`memory`] — the memory controllers' reservation calendars.
//!
//! [`HierarchyCtx`] is the seam between the two halves: a per-access view
//! borrowing the simulation's caches, directory, NoC, and metrics. It is
//! constructed afresh for every reference (it compiles down to a bundle of
//! pointers) so the engine retains ownership of all state between events.
//! It also carries the reservation floor, the cycle of the event being
//! simulated: every NoC and memory-controller booking this reference makes
//! is ready at or after it, and so is every later reference's, so the
//! calendars drop what ended at or before it (`consim_noc::contention`).
//!
//! ## Way partitioning
//!
//! When [`consim_types::config::LlcPartitioning`] is active, `llc_masks`
//! holds one allowed-way bitmask per VM, derived once at simulation
//! construction. Every LLC *allocation* (demand fill, replication fill,
//! dirty-victim writeback, prewarm) is confined to the inserting block's
//! VM mask; lookups and invalidations still see the whole set, so the
//! coherence protocol is unchanged — only capacity allocation is
//! constrained. With partitioning off the masks are absent and the fill
//! path is byte-for-byte the unpartitioned one.

mod l1;
mod llc;
mod memory;

use crate::machine::Layout;
use crate::metrics::{MissSource, VmMetrics};
use consim_cache::{LineState, SetAssocCache};
use consim_coherence::{AccessKind, DataSource, Directory, DirectoryCache};
use consim_noc::{ContentionModel, Packet, ReservationCalendar};
use consim_types::config::MachineConfig;
use consim_types::{BlockAddr, CoreId, Cycle, VmId};

/// A per-access view of the machine: borrows every structure one reference
/// can touch on its walk through the hierarchy. Constructed by the engine
/// for each simulated reference.
pub struct HierarchyCtx<'a> {
    pub(crate) machine: &'a MachineConfig,
    pub(crate) layout: &'a Layout,
    pub(crate) l0: &'a mut [SetAssocCache],
    pub(crate) l1: &'a mut [SetAssocCache],
    pub(crate) llc: &'a mut [SetAssocCache],
    pub(crate) directory: &'a mut Directory,
    pub(crate) dircaches: &'a mut [DirectoryCache],
    pub(crate) noc: &'a mut ContentionModel,
    pub(crate) memory_controllers: &'a mut [ReservationCalendar],
    pub(crate) metrics: &'a mut [VmMetrics],
    /// Per-VM allowed-way bitmasks for LLC allocation, when partitioning is
    /// active (see the [module docs](self)).
    pub(crate) llc_masks: Option<&'a [u64]>,
    /// The reservation floor handed to every calendar booking (see the
    /// [module docs](self)).
    pub(crate) floor: Cycle,
}

impl HierarchyCtx<'_> {
    /// Sends `packet` at `depart`, booking its links at or above this
    /// reference's floor; returns its arrival cycle.
    fn send(&mut self, packet: &Packet, depart: Cycle) -> Cycle {
        self.noc.send(packet, depart, self.floor)
    }

    /// Resolves an L1 miss (or upgrade) through the directory; returns the
    /// completion time and the engine's classification of the miss. The
    /// private-hit prefix of the walk lives in the engine's fast path
    /// (`Simulation::private_access`), which falls through to here with the
    /// [`AccessKind`] it already classified.
    pub(crate) fn coherence_transaction(
        &mut self,
        core: CoreId,
        vm: VmId,
        block: BlockAddr,
        kind: AccessKind,
        issue: Cycle,
        measuring: bool,
    ) -> (Cycle, MissSource) {
        // Scalar reads instead of cloning the whole machine description:
        // this runs once per L1 miss.
        let l0_latency = self.machine.l0.latency;
        let l1_latency = self.machine.l1.latency;
        let memory_latency = self.machine.memory_latency;
        let cnode = self.layout.core_node(core);
        let home = self.directory.home_of(block);
        // Miss detected after the private lookups.
        let t0 = issue + l0_latency + l1_latency;
        // Request to the home directory.
        let mut t = self.send(&Packet::control(cnode, home), t0);
        t += 1; // directory pipeline
        if !self.dircaches[home.index()].lookup(block) {
            // Fetch the entry off-chip through the block's controller.
            let (mc, _) = self.layout.memory_controller_of(block);
            let service = self.reserve_directory_refill(mc, t);
            t = service + memory_latency;
        }

        let prior_sharers = self.directory.sharers_of(block);
        let outcome = self.directory.handle(core, block, kind);

        // Invalidations fan out from the home; the requester waits for the
        // slowest acknowledgement.
        let mut ack_time = Cycle::ZERO;
        for victim in outcome.invalidate.iter() {
            let vnode = self.layout.core_node(victim);
            let arrive = self.send(&Packet::control(home, vnode), t);
            self.invalidate_private(victim, block);
            if measuring {
                self.metrics[vm.index()].invalidations_received += 1;
            }
            let ack = self.send(&Packet::control(vnode, cnode), arrive);
            ack_time = ack_time.max(ack);
        }

        let is_write = matches!(kind, AccessKind::Write | AccessKind::Upgrade);
        let (data_time, source) = match outcome.source {
            DataSource::DirtyCache(owner) => {
                let (t_data, src) = self.serve_from_remote_l1(
                    owner,
                    cnode,
                    block,
                    t,
                    true,
                    is_write,
                    outcome.writeback,
                );
                (t_data, src)
            }
            DataSource::CleanCache(_) => {
                // Pick the *nearest* prior sharer as the supplier.
                let supplier = prior_sharers
                    .iter()
                    .filter(|&c| c != core)
                    .min_by_key(|&c| self.layout.mesh().hops(self.layout.core_node(c), cnode))
                    .expect("clean transfer implies a sharer");
                self.serve_from_remote_l1(supplier, cnode, block, t, false, is_write, false)
            }
            DataSource::Below => self.serve_from_llc_or_memory(core, cnode, block, t, is_write),
            DataSource::None => {
                // Upgrade: permission only, no data.
                (t, MissSource::Upgrade)
            }
        };

        // Keep the LLC consistent with the new ownership: writers leave no
        // stale bank copies; read fills also allocate in the local bank
        // (mostly-inclusive L2), which is what lets read-shared lines
        // replicate across banks (paper Fig. 12).
        if is_write {
            self.invalidate_llc_copies(block);
        } else if matches!(
            source,
            MissSource::RemoteL1Dirty | MissSource::RemoteL1Clean
        ) {
            let my_bank = self.machine.bank_of_core(core);
            self.fill_llc(my_bank, block, LineState::Shared, data_time);
        }

        let completion = data_time.max(ack_time);
        if measuring {
            self.metrics[vm.index()].record_miss(source, completion - issue);
        }

        // Install the line in the private hierarchy.
        if source != MissSource::Upgrade {
            let new_state = if is_write {
                LineState::Modified
            } else if outcome.exclusive {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            self.fill_l1(core, block, new_state, completion);
        } else {
            self.l1[core.index()].set_state(block, LineState::Modified);
            self.l0[core.index()].set_state(block, LineState::Modified);
        }
        (completion, source)
    }
}
