//! The VM lifecycle under a [`consim_types::ChurnPolicy`]: the churn
//! boundary and the spawn, retire and migrate actions it applies, with
//! the private-cache scrub they share. The event loop reaches
//! [`Simulation::churn_boundary`] through its one boundary handler.

use super::{remap_core_events, PhaseKind, RunState, Simulation};
use crate::churn::{epoch_draws, ChurnAction, ChurnDecision, ChurnState};
use crate::observe::StepObserver;
use consim_cache::LineState;
use consim_trace::{EventClass, TraceEvent};
use consim_types::{BankId, BlockAddr, CoreId, Cycle, GlobalThreadId, SimRng, ThreadId, VmId};
use std::cmp::Reverse;

impl Simulation {
    /// Handles one VM-churn boundary: advances `next_churn` past `now` (one
    /// decision per crossing, even if the event gap spanned several
    /// intervals), transcribes the epoch's unconditional draws, then decides
    /// and applies at most one lifecycle action per VM in id order.
    ///
    /// The caller has pushed its popped event back into the heap, so every
    /// pending issue event is visible here for retirement filtering and
    /// migration remapping.
    pub(super) fn churn_boundary(
        &mut self,
        now: u64,
        st: &mut RunState,
        observer: &mut Option<&mut dyn StepObserver>,
    ) {
        let mut churn = self
            .churn
            .take()
            .expect("churn boundary without churn state");
        let interval = churn.interval();
        while now >= st.next_churn {
            st.next_churn = st.next_churn.saturating_add(interval);
        }
        let num_vms = self.config.workloads.len();
        let epoch = churn.next_epoch();
        let draws = epoch_draws(self.config.seed, epoch, num_vms);
        let mut actions = Vec::new();
        for (vm, &(d1, d2)) in draws.iter().enumerate() {
            let threads = self.config.workloads[vm].threads;
            if !churn.is_active(vm) {
                // Birth: arrive iff the draw clears the rate and the machine
                // has room right now; otherwise the VM waits for the next
                // boundary's draw.
                if d1 < churn.policy().arrival_permille[vm] {
                    let free = self.free_cores(None);
                    if free.len() >= threads {
                        let cores = free[..threads].to_vec();
                        self.spawn_vm(vm, &cores, &mut churn, now, st);
                        actions.push(ChurnAction::Spawn { vm, cores });
                    }
                }
                continue;
            }
            // Death: departures below the population floor are skipped, not
            // deferred — the draw is consumed either way.
            if d1 < churn.policy().departure_permille[vm]
                && churn.active_count() > churn.policy().min_active
            {
                let (cores, l0, l1, writebacks) = self.retire_vm(vm, now, st);
                churn.set_active(vm, false);
                let stats = churn.stats_mut();
                stats.retires += 1;
                stats.l0_lines_invalidated += l0;
                stats.l1_lines_invalidated += l1;
                stats.writebacks += writebacks.len() as u64;
                actions.push(ChurnAction::Retire {
                    vm,
                    cores,
                    invalidated_l0: l0,
                    invalidated_l1: l1,
                    writebacks,
                });
                continue;
            }
            // Live migration: needs a disjoint set of free (target) cores.
            if d2 < churn.policy().migration_permille {
                let free = self.free_cores(churn.policy().migration_targets.as_deref());
                if free.len() >= threads {
                    let to = free[..threads].to_vec();
                    let (from, l0, l1, writebacks) = self.migrate_vm(vm, &to, st);
                    let stats = churn.stats_mut();
                    stats.migrations += 1;
                    stats.l0_lines_invalidated += l0;
                    stats.l1_lines_invalidated += l1;
                    stats.writebacks += writebacks.len() as u64;
                    actions.push(ChurnAction::Migrate {
                        vm,
                        from,
                        to,
                        invalidated_l0: l0,
                        invalidated_l1: l1,
                        writebacks,
                    });
                }
            }
        }
        let decision = ChurnDecision {
            epoch,
            at: now,
            draws,
            actions,
            active_after: churn.active().to_vec(),
        };
        if let Some(trace) = &self.config.trace {
            if trace.sink.wants(EventClass::Lifecycle) {
                for action in &decision.actions {
                    trace.sink.record(&churn_trace_event(now, action));
                }
            }
        }
        // Every boundary — actions or not — reaches the observer so an
        // external lifecycle mirror advances its draw stream in lockstep.
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_churn(&decision);
        }
        self.churn = Some(churn);
    }

    /// Free cores in ascending order, optionally intersected with a
    /// migration-target allowlist.
    fn free_cores(&self, targets: Option<&[usize]>) -> Vec<usize> {
        (0..self.config.machine.num_cores)
            .filter(|&core| self.core_thread[core].is_none())
            .filter(|&core| targets.is_none_or(|t| t.contains(&core)))
            .collect()
    }

    /// Binds an arriving VM to `cores` (thread `t` on `cores[t]`), restarts
    /// its generator on the arrival's derived stream, and seeds its issue
    /// events at `now`. The VM generates load from here on but never joins
    /// the quota race (its `vm_done` flag stays wherever it is).
    fn spawn_vm(
        &mut self,
        vm: usize,
        cores: &[usize],
        churn: &mut ChurnState,
        now: u64,
        st: &mut RunState,
    ) {
        churn.set_active(vm, true);
        churn.stats_mut().spawns += 1;
        let arrival = churn.next_arrival(vm);
        let root = SimRng::from_seed(self.config.seed);
        self.generators[vm].respawn(&root, arrival);
        let base = self.thread_base[vm];
        for t in 0..cores.len() {
            let batch = &mut self.batches[base + t];
            batch.refs.clear();
            batch.cursor = 0;
        }
        for (t, &core) in cores.iter().enumerate() {
            let thread = GlobalThreadId::new(VmId::new(vm), ThreadId::new(t));
            self.core_thread[core] = Some(thread);
            self.placement.rebind(thread, CoreId::new(core));
            st.heap.push(Reverse((now, core)));
        }
    }

    /// Retires an active VM: scrubs its private caches, releases its cores,
    /// drops its pending issue events, and — if it had not met its quota —
    /// completes it at the boundary (a departed VM has issued all the
    /// references it ever will).
    ///
    /// Returns (released cores ascending, L0 invalidations, L1
    /// invalidations, content-only writebacks in scrub order).
    fn retire_vm(
        &mut self,
        vm: usize,
        now: u64,
        st: &mut RunState,
    ) -> (Vec<usize>, u64, u64, Vec<(BankId, BlockAddr)>) {
        let cores = self.cores_of_vm(vm);
        let (l0, l1, writebacks) = self.scrub_private_caches(vm, &cores);
        let occupied_before = self.occupied_cores();
        for &core in &cores {
            self.core_thread[core] = None;
        }
        // No core gained a thread, so the vacated cores' events drop.
        remap_core_events(&mut st.heap, &occupied_before, &self.core_thread);
        if !st.vm_done[vm] {
            st.vm_done[vm] = true;
            st.remaining -= 1;
            let at = Cycle::new(now);
            st.last_completion = st.last_completion.max(at);
            if st.phase == PhaseKind::Measure {
                self.metrics[vm].completion = Some(at);
            }
        }
        (cores, l0, l1, writebacks)
    }

    /// Live-migrates an active VM onto `to`: scrubs and releases the old
    /// cores, rebinds thread `t` to `to[t]`, and remaps the VM's pending
    /// issue events (earliest ready-times onto the lowest new cores, so
    /// deterministic regardless of heap iteration order). `to` comes from
    /// [`Simulation::free_cores`]: ascending and disjoint from the VM's
    /// cores, so the cores that gain a thread are exactly `to`, in order.
    ///
    /// Returns (vacated cores ascending, L0 invalidations, L1
    /// invalidations, content-only writebacks in scrub order).
    fn migrate_vm(
        &mut self,
        vm: usize,
        to: &[usize],
        st: &mut RunState,
    ) -> (Vec<usize>, u64, u64, Vec<(BankId, BlockAddr)>) {
        let from = self.cores_of_vm(vm);
        let (l0, l1, writebacks) = self.scrub_private_caches(vm, &from);
        let occupied_before = self.occupied_cores();
        for &core in &from {
            self.core_thread[core] = None;
        }
        for (t, &core) in to.iter().enumerate() {
            let thread = GlobalThreadId::new(VmId::new(vm), ThreadId::new(t));
            self.core_thread[core] = Some(thread);
            self.placement.rebind(thread, CoreId::new(core));
        }
        remap_core_events(&mut st.heap, &occupied_before, &self.core_thread);
        (from, l0, l1, writebacks)
    }

    /// Cores currently bound to `vm`'s threads, ascending.
    fn cores_of_vm(&self, vm: usize) -> Vec<usize> {
        (0..self.config.machine.num_cores)
            .filter(|&core| self.core_thread[core].is_some_and(|thread| thread.vm.index() == vm))
            .collect()
    }

    /// The churn scrub (PR-7 no-flush rule applied to private caches): for
    /// each core ascending, every L1 line — blocks ascending, the canonical
    /// order the differential oracle reproduces — is invalidated with a
    /// directory eviction hint; dirty lines are first written back
    /// *content-only* into the core's local LLC bank (untimed and uncounted:
    /// churn is a reconfiguration event, not a memory access; a displaced
    /// LLC victim drops silently, its data conceptually reaching memory).
    /// L0 follows, also blocks ascending. The VM's LLC lines stay and age
    /// out through natural replacement.
    ///
    /// Returns (L0 invalidations, L1 invalidations, writebacks in order).
    fn scrub_private_caches(
        &mut self,
        vm: usize,
        cores: &[usize],
    ) -> (u64, u64, Vec<(BankId, BlockAddr)>) {
        let mut l0_count = 0u64;
        let mut l1_count = 0u64;
        let mut writebacks = Vec::new();
        for &core in cores {
            let mut l1_lines: Vec<(BlockAddr, LineState)> = self.l1[core]
                .lines()
                .map(|line| (line.block, line.state))
                .collect();
            l1_lines.sort_unstable_by_key(|&(block, _)| block.raw());
            let bank = self.config.machine.bank_of_core(CoreId::new(core));
            for (block, state) in l1_lines {
                if state.is_dirty() {
                    match self.llc_way_masks.as_ref().map(|masks| masks[vm]) {
                        Some(mask) => {
                            self.llc[bank.index()].insert_in_ways(block, LineState::Modified, mask);
                        }
                        None => {
                            self.llc[bank.index()].insert(block, LineState::Modified);
                        }
                    }
                    writebacks.push((bank, block));
                }
                self.directory.evict(CoreId::new(core), block);
                self.l1[core].invalidate(block);
                l1_count += 1;
            }
            let mut l0_blocks: Vec<BlockAddr> =
                self.l0[core].lines().map(|line| line.block).collect();
            l0_blocks.sort_unstable_by_key(|block| block.raw());
            for block in l0_blocks {
                self.l0[core].invalidate(block);
                l0_count += 1;
            }
        }
        (l0_count, l1_count, writebacks)
    }
}

/// Maps one applied churn action to its lifecycle trace event.
fn churn_trace_event(cycle: u64, action: &ChurnAction) -> TraceEvent {
    let as_u64 = |cores: &[usize]| cores.iter().map(|&c| c as u64).collect::<Vec<u64>>();
    match action {
        ChurnAction::Spawn { vm, cores } => TraceEvent::VmSpawned {
            cycle,
            vm: *vm as u32,
            cores: as_u64(cores),
        },
        ChurnAction::Retire {
            vm,
            cores,
            invalidated_l0,
            invalidated_l1,
            writebacks,
        } => TraceEvent::VmRetired {
            cycle,
            vm: *vm as u32,
            cores: as_u64(cores),
            invalidated_l0: *invalidated_l0,
            invalidated_l1: *invalidated_l1,
            writebacks: writebacks.len() as u64,
        },
        ChurnAction::Migrate {
            vm,
            from,
            to,
            invalidated_l0,
            invalidated_l1,
            writebacks,
        } => TraceEvent::VmMigrated {
            cycle,
            vm: *vm as u32,
            from: as_u64(from),
            to: as_u64(to),
            invalidated_l0: *invalidated_l0,
            invalidated_l1: *invalidated_l1,
            writebacks: writebacks.len() as u64,
        },
    }
}
