//! The engine test suite: end-to-end behavior, LLC prewarming, dynamic
//! rescheduling, issue-event remapping, checkpoints, churn, way
//! partitioning and the boundary path. Lives beside [`super`]
//! (`engine.rs`) so tests keep access to crate-private state
//! (`core_thread`, the LLC banks, `remap_core_events`).

use super::*;

/// Records every QoS repartition decision plus how many accesses had
/// completed when it fired — the engine checks the boundary when an event
/// pops, *before* simulating that event's access, so `steps_at[i]` is the
/// exact `advance` budget that checkpoints just ahead of decision `i`.
#[derive(Default)]
struct RepartProbe {
    steps: u64,
    decisions: Vec<crate::qos::RepartitionDecision>,
    steps_at: Vec<u64>,
}

impl StepObserver for RepartProbe {
    fn on_step(&mut self, _: &AccessStep) {
        self.steps += 1;
    }

    fn on_repartition(&mut self, decision: &crate::qos::RepartitionDecision) {
        self.decisions.push(decision.clone());
        self.steps_at.push(self.steps);
    }
}

mod behavior {
    use super::*;
    use consim_types::config::SharingDegree;
    use consim_workload::{WorkloadKind, WorkloadProfileBuilder};

    fn tiny_profile() -> WorkloadProfile {
        WorkloadProfileBuilder::new("tiny")
            .footprint_blocks(4_000)
            .shared_fraction(0.5)
            .shared_access_prob(0.5)
            .shared_write_prob(0.1)
            .build()
            .unwrap()
    }

    fn quick_config(
        sharing: SharingDegree,
        policy: SchedulingPolicy,
        vms: usize,
    ) -> SimulationConfig {
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(sharing))
            .policy(policy)
            .refs_per_vm(3_000)
            .warmup_refs_per_vm(1_000)
            .seed(7);
        for _ in 0..vms {
            b.workload(tiny_profile());
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_rejects_empty_and_oversubscribed() {
        assert!(SimulationConfig::builder().build().is_err());
        let mut b = SimulationConfig::builder();
        for _ in 0..5 {
            b.workload(tiny_profile());
        }
        assert!(b.build().is_err(), "20 threads on 16 cores");
    }

    #[test]
    fn single_vm_runs_to_completion() {
        let cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::Affinity, 1);
        let out = Simulation::new(cfg).unwrap().run().unwrap();
        let m = &out.vm_metrics[0];
        assert_eq!(m.refs, 3_000);
        assert!(m.completion.is_some());
        assert!(m.runtime_cycles() > 0);
        assert!(m.l0_hits + m.l1_hits + m.l1_misses == m.refs);
    }

    #[test]
    fn full_mix_all_vms_complete() {
        let cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::RoundRobin, 4);
        let out = Simulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(out.vm_metrics.len(), 4);
        for m in &out.vm_metrics {
            assert!(m.refs >= 3_000);
            assert!(m.completion.is_some());
        }
        assert!(out.measured_cycles > 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::Random, 4);
            let out = Simulation::new(cfg).unwrap().run().unwrap();
            (
                out.measured_cycles,
                out.vm_metrics
                    .iter()
                    .map(|m| m.l1_misses)
                    .collect::<Vec<_>>(),
                out.vm_metrics
                    .iter()
                    .map(|m| m.runtime_cycles())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::Affinity, 2);
            cfg.seed = seed;
            Simulation::new(cfg).unwrap().run().unwrap().measured_cycles
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn miss_accounting_balances() {
        let cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::Affinity, 2);
        let out = Simulation::new(cfg).unwrap().run().unwrap();
        for m in &out.vm_metrics {
            let classified = m.c2c_l1_clean
                + m.c2c_l1_dirty
                + m.llc_local_hits
                + m.llc_remote_clean
                + m.llc_remote_dirty
                + m.memory_fetches
                + m.upgrades;
            assert_eq!(classified, m.l1_misses, "{m}");
            assert!(m.llc_miss_rate() <= 1.0);
            // Any real miss takes at least the LLC latency.
            if m.l1_misses > m.upgrades {
                assert!(m.mean_miss_latency() > 6.0);
            }
        }
    }

    #[test]
    fn isolation_idles_unused_cores() {
        let cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::Affinity, 1);
        let sim = Simulation::new(cfg).unwrap();
        let bound: usize = sim.core_thread.iter().flatten().count();
        assert_eq!(bound, 4);
        let out = sim.run().unwrap();
        // Only one VM's metrics exist and they account for every reference.
        assert_eq!(out.vm_metrics.len(), 1);
    }

    #[test]
    fn sharing_produces_c2c_transfers() {
        let profile = WorkloadProfileBuilder::new("sharey")
            .footprint_blocks(2_000)
            .shared_fraction(0.8)
            .shared_access_prob(0.9)
            .shared_write_prob(0.2)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(SharingDegree::Private))
            .policy(SchedulingPolicy::RoundRobin)
            .workload(profile)
            .refs_per_vm(5_000)
            .warmup_refs_per_vm(2_000)
            .seed(3);
        let out = Simulation::new(b.build().unwrap()).unwrap().run().unwrap();
        let m = &out.vm_metrics[0];
        assert!(
            m.cache_to_cache() > 0,
            "sharing workload must transfer: {m}"
        );
        assert!(
            m.c2c_l1_dirty > 0,
            "shared writes must produce dirty transfers"
        );
    }

    #[test]
    fn private_config_replicates_more_than_shared() {
        let run = |sharing| {
            let cfg = quick_config(sharing, SchedulingPolicy::RoundRobin, 4);
            let out = Simulation::new(cfg).unwrap().run().unwrap();
            out.replication.replicated_fraction()
        };
        let private = run(SharingDegree::Private);
        let shared = run(SharingDegree::FullyShared);
        assert_eq!(shared, 0.0, "a single bank cannot replicate");
        assert!(private > 0.0, "private banks must replicate shared data");
    }

    #[test]
    fn occupancy_shares_are_sane() {
        let cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::RoundRobin, 4);
        let out = Simulation::new(cfg).unwrap().run().unwrap();
        for bank in &out.occupancy.share {
            let total: f64 = bank.iter().sum();
            assert!(total <= 1.0 + 1e-9, "bank over-occupied: {total}");
        }
    }

    #[test]
    fn upgrades_happen_for_read_then_write() {
        let profile = WorkloadProfileBuilder::new("rw")
            .footprint_blocks(1_000)
            .shared_fraction(0.9)
            .shared_access_prob(0.95)
            .shared_write_prob(0.3)
            .shared_zipf(0.9)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.workload(profile)
            .refs_per_vm(5_000)
            .warmup_refs_per_vm(0)
            .seed(1);
        let out = Simulation::new(b.build().unwrap()).unwrap().run().unwrap();
        assert!(out.vm_metrics[0].upgrades > 0);
    }

    #[test]
    fn protocol_stats_exposed() {
        let cfg = quick_config(SharingDegree::SharedBy(4), SchedulingPolicy::Affinity, 2);
        let out = Simulation::new(cfg).unwrap().run().unwrap();
        assert!(out.protocol.requests > 0);
        assert!(out.noc.packets > 0);
        assert!(out.dircache_hit_rate > 0.0 && out.dircache_hit_rate <= 1.0);
    }

    #[test]
    fn footprint_tracking_approaches_profile() {
        let profile = WorkloadProfileBuilder::new("fp")
            .footprint_blocks(1_000)
            .shared_zipf(0.05)
            .private_zipf(0.05)
            .recent_reuse_prob(0.0)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.workload(profile)
            .refs_per_vm(30_000)
            .warmup_refs_per_vm(0)
            .track_footprint(true)
            .seed(5);
        let out = Simulation::new(b.build().unwrap()).unwrap().run().unwrap();
        let fp = out.vm_metrics[0].footprint_blocks();
        assert!(fp > 900, "footprint {fp} of 1000");
    }

    #[test]
    fn kinds_run_end_to_end_smoke() {
        // Short smoke run of every real profile to catch integration panics.
        for kind in WorkloadKind::PAPER_SET {
            let mut b = SimulationConfig::builder();
            b.workload(kind.profile())
                .refs_per_vm(1_000)
                .warmup_refs_per_vm(200)
                .seed(2);
            let out = Simulation::new(b.build().unwrap()).unwrap().run().unwrap();
            assert!(out.vm_metrics[0].refs >= 1_000, "{kind}");
        }
    }
}

mod prewarm {
    use super::*;
    use consim_types::config::SharingDegree;
    use consim_workload::WorkloadProfileBuilder;

    fn config(prewarm: bool) -> SimulationConfig {
        let profile = WorkloadProfileBuilder::new("pw")
            .footprint_blocks(60_000)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4)))
            .policy(SchedulingPolicy::Affinity)
            .workload(profile)
            .refs_per_vm(5_000)
            .warmup_refs_per_vm(0)
            .prewarm_llc(prewarm)
            .seed(4);
        b.build().unwrap()
    }

    #[test]
    fn prewarming_cuts_cold_memory_fetches() {
        let cold = Simulation::new(config(false)).unwrap().run().unwrap();
        let warm = Simulation::new(config(true)).unwrap().run().unwrap();
        assert!(
            warm.vm_metrics[0].memory_fetches < cold.vm_metrics[0].memory_fetches / 2,
            "prewarm {} vs cold {}",
            warm.vm_metrics[0].memory_fetches,
            cold.vm_metrics[0].memory_fetches
        );
    }

    #[test]
    fn prewarm_respects_bank_ownership() {
        // With affinity, the single VM owns exactly one bank; prewarmed
        // lines must all land there.
        let sim = {
            let mut s = Simulation::new(config(true)).unwrap();
            s.prewarm_llc_banks(&mut None);
            s
        };
        let occupied: Vec<usize> = sim.llc.iter().map(|b| b.occupancy()).collect();
        let nonempty = occupied.iter().filter(|&&o| o > 0).count();
        assert_eq!(nonempty, 1, "occupancies: {occupied:?}");
    }

    #[test]
    fn prewarm_is_deterministic() {
        let a = Simulation::new(config(true)).unwrap().run().unwrap();
        let b = Simulation::new(config(true)).unwrap().run().unwrap();
        assert_eq!(a.measured_cycles, b.measured_cycles);
    }
}

mod resched {
    use super::*;
    use consim_types::config::SharingDegree;
    use consim_workload::WorkloadKind;

    fn config(policy: SchedulingPolicy, resched: Option<u64>) -> SimulationConfig {
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4)))
            .policy(policy)
            .refs_per_vm(6_000)
            .warmup_refs_per_vm(1_000)
            .seed(11);
        if let Some(interval) = resched {
            b.reschedule_every(interval);
        }
        for _ in 0..4 {
            b.workload(WorkloadKind::TpcH.profile());
        }
        b.build().unwrap()
    }

    #[test]
    fn zero_interval_is_rejected() {
        let mut b = SimulationConfig::builder();
        b.workload(WorkloadKind::TpcH.profile()).reschedule_every(0);
        assert!(b.build().is_err());
    }

    #[test]
    fn deterministic_policies_are_unaffected_by_rescheduling() {
        // Affinity recomputes to the identical placement each epoch, so
        // dynamic rescheduling must be a behavioral no-op.
        let stat = Simulation::new(config(SchedulingPolicy::Affinity, None))
            .unwrap()
            .run()
            .unwrap();
        let dynamic = Simulation::new(config(SchedulingPolicy::Affinity, Some(50_000)))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(stat.measured_cycles, dynamic.measured_cycles);
    }

    #[test]
    fn random_rescheduling_survives_partial_occupancy() {
        // Regression (found by consim-check differential fuzzing): with
        // Random placement and fewer threads than cores, a reschedule can
        // change *which* cores are occupied. Pending issue events must be
        // remapped onto the newly occupied cores — previously this panicked
        // ("scheduled cores have threads") when a vacated core's event was
        // popped.
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4)))
            .policy(SchedulingPolicy::Random)
            .refs_per_vm(3_000)
            .warmup_refs_per_vm(500)
            .reschedule_every(1_000)
            .seed(3);
        for _ in 0..2 {
            b.workload(WorkloadKind::TpcH.profile());
        }
        let out = Simulation::new(b.build().unwrap()).unwrap().run().unwrap();
        for m in &out.vm_metrics {
            assert_eq!(m.l0_hits + m.l1_hits + m.l1_misses, m.refs);
        }
    }

    #[test]
    fn random_rescheduling_costs_performance() {
        // Frequent random migration abandons warm caches; the machine must
        // get slower, not faster, and metrics stay balanced.
        let stat = Simulation::new(config(SchedulingPolicy::Random, None))
            .unwrap()
            .run()
            .unwrap();
        let churn = Simulation::new(config(SchedulingPolicy::Random, Some(20_000)))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            churn.measured_cycles > stat.measured_cycles,
            "churn {} vs static {}",
            churn.measured_cycles,
            stat.measured_cycles
        );
        for m in &churn.vm_metrics {
            assert_eq!(m.l0_hits + m.l1_hits + m.l1_misses, m.refs);
        }
    }
}

mod remap {
    //! Direct unit tests for [`remap_core_events`], the one helper that
    //! re-homes pending issue events after a reschedule, a retirement or a
    //! migration. End to end it runs in
    //! [`resched::random_rescheduling_survives_partial_occupancy`] and the
    //! churn seam tests.

    use super::*;
    use consim_types::{ThreadId, VmId};

    fn thread(vm: usize, t: usize) -> Option<GlobalThreadId> {
        Some(GlobalThreadId::new(VmId::new(vm), ThreadId::new(t)))
    }

    fn heap_of(events: &[(u64, usize)]) -> BinaryHeap<Reverse<(u64, usize)>> {
        events.iter().copied().map(Reverse).collect()
    }

    fn sorted(heap: BinaryHeap<Reverse<(u64, usize)>>) -> Vec<(u64, usize)> {
        let mut v: Vec<_> = heap.into_iter().map(|Reverse(p)| p).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn unchanged_occupied_set_keeps_events_in_place() {
        let mut heap = heap_of(&[(10, 0), (30, 1)]);
        let occupied_before = [true, true, false, false];
        // Same cores occupied (the threads on them may have swapped).
        let core_thread = [thread(0, 0), thread(0, 1), None, None];
        remap_core_events(&mut heap, &occupied_before, &core_thread);
        assert_eq!(sorted(heap), vec![(10, 0), (30, 1)]);
    }

    #[test]
    fn orphaned_event_moves_to_the_fresh_core() {
        // The thread on core 1 migrated to core 3; its pending event must
        // follow, while core 0's event stays put.
        let mut heap = heap_of(&[(10, 0), (30, 1)]);
        let occupied_before = [true, true, false, false];
        let core_thread = [thread(0, 0), None, None, thread(0, 1)];
        remap_core_events(&mut heap, &occupied_before, &core_thread);
        assert_eq!(sorted(heap), vec![(10, 0), (30, 3)]);
    }

    #[test]
    fn orphans_remap_earliest_first_onto_ascending_fresh_cores() {
        // Both occupied cores vacated; their events land on the newly
        // occupied cores with the earliest event on the lowest core, so the
        // pairing is deterministic regardless of heap drain order.
        let mut heap = heap_of(&[(40, 0), (15, 1)]);
        let occupied_before = [true, true, false, false];
        let core_thread = [None, None, thread(0, 0), thread(0, 1)];
        remap_core_events(&mut heap, &occupied_before, &core_thread);
        assert_eq!(sorted(heap), vec![(15, 2), (40, 3)]);
    }

    #[test]
    fn retirement_drops_the_vacated_cores_events() {
        // VM 1 leaves cores 1 and 2 and no core gains a thread, so their
        // events drop while the other VMs' stay put.
        let mut heap = heap_of(&[(10, 0), (20, 1), (30, 2), (40, 3)]);
        let occupied_before = [true, true, true, true];
        let core_thread = [thread(0, 0), None, None, thread(2, 0)];
        remap_core_events(&mut heap, &occupied_before, &core_thread);
        assert_eq!(sorted(heap), vec![(10, 0), (40, 3)]);
    }

    #[test]
    fn migration_moves_events_earliest_first_onto_the_target_cores() {
        // VM 1 migrates from cores 1 and 2 onto the free cores 4 and 6
        // (thread t onto the t-th target, ascending): its earliest event
        // lands on core 4, the later one on core 6.
        let mut heap = heap_of(&[(10, 0), (40, 1), (15, 2), (25, 3)]);
        let occupied_before = [true, true, true, true, false, false, false, false];
        let core_thread = [
            thread(0, 0),
            None,
            None,
            thread(2, 0),
            thread(1, 0),
            None,
            thread(1, 1),
            None,
        ];
        remap_core_events(&mut heap, &occupied_before, &core_thread);
        assert_eq!(sorted(heap), vec![(10, 0), (15, 4), (25, 3), (40, 6)]);
    }
}

mod snap {
    //! Checkpoint/restore coverage: bit-identical resume equivalence at
    //! several cut points, byte-stable checkpoint output, and typed-error
    //! (never panic) handling of corrupted streams.

    use super::*;
    use consim_types::config::{CacheGeometry, MachineConfigBuilder, SharingDegree};
    use consim_types::SnapshotErrorKind;
    use consim_workload::WorkloadProfileBuilder;

    /// A small machine (256 KB LLC) so checkpoints stay compact and runs
    /// stay fast while still exercising banking, coherence, and contention.
    pub(super) fn config(
        seed: u64,
        policy: SchedulingPolicy,
        resched: Option<u64>,
    ) -> SimulationConfig {
        let machine = MachineConfigBuilder::new()
            .llc(CacheGeometry::new(256 * 1024, 16, 6).unwrap())
            .sharing(SharingDegree::SharedBy(4))
            .build()
            .unwrap();
        let profile = WorkloadProfileBuilder::new("snappy")
            .footprint_blocks(8_000)
            .shared_fraction(0.5)
            .shared_access_prob(0.5)
            .shared_write_prob(0.1)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .policy(policy)
            .refs_per_vm(3_000)
            .warmup_refs_per_vm(1_000)
            .track_footprint(true)
            .seed(seed);
        if let Some(interval) = resched {
            b.reschedule_every(interval);
        }
        for _ in 0..3 {
            b.workload(profile.clone());
        }
        b.build().unwrap()
    }

    /// Every observable quantity of an outcome, bit-exact (floats compared
    /// by representation).
    pub(super) fn fingerprint(out: &SimulationOutcome) -> Vec<u64> {
        let mut v = Vec::new();
        for m in &out.vm_metrics {
            v.extend([
                m.refs,
                m.writes,
                m.instructions,
                m.l0_hits,
                m.l1_hits,
                m.l1_misses,
                m.c2c_l1_clean,
                m.c2c_l1_dirty,
                m.llc_local_hits,
                m.llc_remote_clean,
                m.llc_remote_dirty,
                m.memory_fetches,
                m.upgrades,
                m.invalidations_received,
            ]);
            let (count, total, max, min) = m.miss_latency.raw_parts();
            v.extend([count, total, max, min]);
            v.push(m.completion.map(|c| c.raw()).unwrap_or(u64::MAX));
            v.push(m.footprint_blocks());
        }
        v.push(out.measured_cycles);
        v.extend([
            out.replication.total_lines,
            out.replication.replicated_lines,
        ]);
        for bank in &out.occupancy.share {
            v.extend(bank.iter().map(|s| s.to_bits()));
        }
        v.extend([
            out.noc.injected,
            out.noc.packets,
            out.noc.flits,
            out.noc.total_hops,
        ]);
        v.extend([
            out.protocol.requests,
            out.protocol.clean_transfers,
            out.protocol.dirty_transfers,
            out.protocol.upgrades,
            out.protocol.invalidations,
            out.protocol.writebacks,
        ]);
        v.push(out.dircache_hit_rate.to_bits());
        v.push(out.noc_mean_utilization.to_bits());
        v.push(out.noc_peak_utilization.to_bits());
        v
    }

    pub(super) fn checkpoint_at(cfg: SimulationConfig, accesses: u64) -> Vec<u8> {
        let mut sim = Simulation::new(cfg).unwrap();
        let status = sim.advance(accesses, None).unwrap();
        assert_eq!(status, RunStatus::Running, "cut point must be mid-run");
        let mut bytes = Vec::new();
        sim.checkpoint(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn resume_is_bit_identical_at_every_cut_point() {
        let straight = Simulation::new(config(42, SchedulingPolicy::Affinity, None))
            .unwrap()
            .run()
            .unwrap();
        let expected = fingerprint(&straight);
        // Mid-warmup, at the phase boundary's neighborhood, and mid-measure.
        for cut in [500, 3_000, 7_500] {
            let bytes = checkpoint_at(config(42, SchedulingPolicy::Affinity, None), cut);
            let resumed = Simulation::resume(&mut bytes.as_slice())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(fingerprint(&resumed), expected, "cut at {cut} accesses");
        }
    }

    #[test]
    fn resume_before_first_advance_is_a_full_run() {
        let cfg = config(7, SchedulingPolicy::RoundRobin, None);
        let straight = Simulation::new(cfg.clone()).unwrap().run().unwrap();
        let mut bytes = Vec::new();
        Simulation::new(cfg)
            .unwrap()
            .checkpoint(&mut bytes)
            .unwrap();
        let resumed = Simulation::resume(&mut bytes.as_slice())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&straight));
    }

    #[test]
    fn resume_reads_back_rescheduled_bindings() {
        // Random placement with frequent rescheduling is the hardest case:
        // the placement at the cut point is no function of the
        // configuration, so the checkpoint's bindings must carry it.
        let cfg = || config(9, SchedulingPolicy::Random, Some(5_000));
        let straight = Simulation::new(cfg()).unwrap().run().unwrap();
        let bytes = checkpoint_at(cfg(), 6_000);
        let resumed_sim = Simulation::resume(&mut bytes.as_slice()).unwrap();
        assert!(
            resumed_sim.resched_epoch > 0,
            "cut must land past a reschedule"
        );
        let resumed = resumed_sim.run().unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&straight));
    }

    /// Engine state the loop cannot run, in a checkpoint whose checksums
    /// hold, is refused as `Corrupt` rather than resumed into a panic.
    #[test]
    fn resume_refuses_engine_state_that_disagrees_with_itself() {
        type Edit = fn(&mut Simulation);
        let edits: [(&str, Edit, &str); 3] = [
            // A run without churn: swap two bound cores' threads behind
            // the placement table's back.
            (
                "swapped bindings",
                |sim| {
                    let bound: Vec<usize> = (0..sim.core_thread.len())
                        .filter(|&core| sim.core_thread[core].is_some())
                        .collect();
                    sim.core_thread.swap(bound[0], bound[1]);
                },
                "placement table",
            ),
            // A churn stamp on a machine without a churn policy.
            (
                "stray churn stamp",
                |sim| sim.run_state.as_mut().unwrap().next_churn = 1,
                "boundary stamp",
            ),
            // A pending issue event on a core with no thread.
            (
                "unbound core with an event",
                |sim| {
                    let st = sim.run_state.as_ref().unwrap();
                    let Reverse((_, core)) = *st.heap.peek().unwrap();
                    sim.core_thread[core] = None;
                },
                "no thread is bound",
            ),
        ];
        for (what, edit, message) in edits {
            let mut sim = Simulation::new(config(8, SchedulingPolicy::Affinity, None)).unwrap();
            assert_eq!(sim.advance(1_500, None).unwrap(), RunStatus::Running);
            edit(&mut sim);
            let mut bytes = Vec::new();
            sim.checkpoint(&mut bytes).unwrap();
            let err = Simulation::resume(bytes.as_slice()).unwrap_err();
            assert_eq!(
                err.snapshot_kind(),
                Some(SnapshotErrorKind::Corrupt),
                "{what}: {err}"
            );
            assert!(err.to_string().contains(message), "{what}: {err}");
        }
    }

    #[test]
    fn resume_preserves_prewarmed_llc_state() {
        let mut cfg = config(3, SchedulingPolicy::Affinity, None);
        cfg.prewarm_llc = true;
        cfg.warmup_refs_per_vm = 0;
        let straight = Simulation::new(cfg.clone()).unwrap().run().unwrap();
        let bytes = checkpoint_at(cfg, 2_000);
        let resumed_sim = Simulation::resume(&mut bytes.as_slice()).unwrap();
        assert!(resumed_sim.prewarmed, "prewarm flag must survive");
        let resumed = resumed_sim.run().unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&straight));
    }

    #[test]
    fn interleaved_advance_checkpoint_chain_matches_straight_run() {
        // Checkpoint → resume → checkpoint → resume ... every 900 accesses:
        // repeated serialization must not perturb the stream either.
        let straight = Simulation::new(config(5, SchedulingPolicy::RrAffinity, None))
            .unwrap()
            .run()
            .unwrap();
        let mut sim = Simulation::new(config(5, SchedulingPolicy::RrAffinity, None)).unwrap();
        loop {
            let status = sim.advance(900, None).unwrap();
            let mut bytes = Vec::new();
            sim.checkpoint(&mut bytes).unwrap();
            sim = Simulation::resume(&mut bytes.as_slice()).unwrap();
            if status == RunStatus::Complete {
                break;
            }
        }
        let resumed = sim.finish().unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&straight));
    }

    #[test]
    fn checkpoint_bytes_are_deterministic() {
        let a = checkpoint_at(config(1, SchedulingPolicy::Affinity, None), 4_000);
        let b = checkpoint_at(config(1, SchedulingPolicy::Affinity, None), 4_000);
        assert_eq!(a, b, "identical states must serialize identically");
    }

    #[test]
    fn advance_past_completion_stays_complete() {
        let mut sim = Simulation::new(config(2, SchedulingPolicy::Affinity, None)).unwrap();
        assert_eq!(sim.advance(u64::MAX, None).unwrap(), RunStatus::Complete);
        assert_eq!(sim.advance(u64::MAX, None).unwrap(), RunStatus::Complete);
        assert!(sim.finish().is_ok());
    }

    #[test]
    fn finish_before_completion_is_an_error() {
        let mut sim = Simulation::new(config(2, SchedulingPolicy::Affinity, None)).unwrap();
        sim.advance(100, None).unwrap();
        let err = sim.finish().unwrap_err();
        assert!(
            err.to_string().contains("before the run completed"),
            "{err}"
        );
    }

    #[test]
    fn every_single_byte_flip_is_rejected_never_a_panic() {
        let bytes = checkpoint_at(config(6, SchedulingPolicy::Affinity, None), 2_500);
        // Scan with a stride that is coprime to all the record sizes, plus
        // the header and the tail, so every region gets hit.
        let offsets = (0..bytes.len()).step_by(997).chain([1, 5, bytes.len() - 1]);
        for offset in offsets {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x40;
            let err = Simulation::resume(&mut bad.as_slice())
                .err()
                .unwrap_or_else(|| panic!("flip at {offset} must be rejected"));
            assert!(
                err.snapshot_kind().is_some(),
                "flip at {offset} gave a non-snapshot error: {err}"
            );
        }
    }

    #[test]
    fn truncation_at_any_prefix_is_typed() {
        let bytes = checkpoint_at(config(6, SchedulingPolicy::Affinity, None), 1_200);
        for len in (0..bytes.len()).step_by(509) {
            let err = Simulation::resume(&mut bytes[..len].as_ref())
                .expect_err("a truncated checkpoint must be rejected");
            assert!(
                err.snapshot_kind().is_some(),
                "prefix of {len} gave a non-snapshot error: {err}"
            );
        }
    }

    #[test]
    fn resume_rejects_wrong_magic_and_version() {
        let bytes = checkpoint_at(config(6, SchedulingPolicy::Affinity, None), 1_200);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            Simulation::resume(&mut bad.as_slice())
                .unwrap_err()
                .snapshot_kind(),
            Some(SnapshotErrorKind::BadMagic)
        );
        let mut bad = bytes;
        bad[4] = 0xff;
        assert_eq!(
            Simulation::resume(&mut bad.as_slice())
                .unwrap_err()
                .snapshot_kind(),
            Some(SnapshotErrorKind::BadVersion)
        );
    }

    /// A daemon-sized job on the paper machine (16 cores, 16 MB LLC):
    /// four Table II VMs, shared-4, no prewarm, 2,500 quota accesses.
    fn daemon_config(replacement: ReplacementPolicy) -> SimulationConfig {
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4)))
            .llc_replacement(replacement)
            .refs_per_vm(500)
            .warmup_refs_per_vm(125)
            .seed(31);
        for kind in consim_workload::WorkloadKind::PAPER_SET {
            b.workload(kind.profile());
        }
        b.build().unwrap()
    }

    fn checkpoint_bytes(sim: &Simulation) -> Vec<u8> {
        let mut bytes = Vec::new();
        sim.checkpoint(&mut bytes).unwrap();
        bytes
    }

    /// The seam under every LLC replacement policy: a checkpoint taken at
    /// A and resumed writes A's bytes again at once, and advanced to B it
    /// writes the straight run's checkpoint at B byte for byte and ends
    /// in a bit-identical outcome.
    #[test]
    fn resume_seam_is_byte_identical_for_every_llc_replacement_policy() {
        const CUT_A: u64 = 700;
        const CUT_B: u64 = 1_600;
        for replacement in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Random,
        ] {
            let mut straight = Simulation::new(daemon_config(replacement)).unwrap();
            assert_eq!(straight.advance(CUT_B, None).unwrap(), RunStatus::Running);
            let at_b = checkpoint_bytes(&straight);
            assert_eq!(
                straight.advance(u64::MAX, None).unwrap(),
                RunStatus::Complete
            );
            let straight = straight.finish().unwrap();

            let at_a = checkpoint_at(daemon_config(replacement), CUT_A);
            let mut resumed = Simulation::resume(at_a.as_slice()).unwrap();
            assert!(
                checkpoint_bytes(&resumed) == at_a,
                "{replacement:?}: checkpoint → resume → checkpoint moved bytes"
            );
            assert_eq!(
                resumed.advance(CUT_B - CUT_A, None).unwrap(),
                RunStatus::Running
            );
            assert!(
                checkpoint_bytes(&resumed) == at_b,
                "{replacement:?}: the resumed checkpoint at B differs from the straight run's"
            );
            assert_eq!(
                resumed.advance(u64::MAX, None).unwrap(),
                RunStatus::Complete
            );
            let resumed = resumed.finish().unwrap();
            assert_eq!(
                fingerprint(&resumed),
                fingerprint(&straight),
                "{replacement:?}"
            );
            assert!(
                crate::persist::outcome_to_bytes(&resumed).unwrap()
                    == crate::persist::outcome_to_bytes(&straight).unwrap(),
                "{replacement:?}: outcome records differ"
            );
        }
    }

    /// A dynamic-QoS variant of [`config`]: a short repartition epoch, no
    /// dead-band, and an asymmetric VM mix so controller decisions land —
    /// and actually move ways — inside the measured window.
    pub(super) fn dynamic_config(seed: u64) -> SimulationConfig {
        let policy = consim_types::config::DynamicPolicy {
            epoch_interval: 2_000,
            deadband_milli: 0,
            ..Default::default()
        };
        let machine = MachineConfigBuilder::new()
            .llc(CacheGeometry::new(256 * 1024, 16, 6).unwrap())
            .sharing(SharingDegree::SharedBy(4))
            .llc_partitioning(consim_types::LlcPartitioning::Dynamic(policy))
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .policy(SchedulingPolicy::RoundRobin)
            .refs_per_vm(3_000)
            .warmup_refs_per_vm(1_000)
            .seed(seed);
        for (name, footprint) in [("resident", 3_000), ("streamy", 60_000), ("tiny", 256)] {
            b.workload(
                WorkloadProfileBuilder::new(name)
                    .footprint_blocks(footprint)
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn resume_seam_on_a_repartition_boundary_is_bit_identical() {
        // The hard QoS seam: cut the run exactly where the controller acts.
        // Replaying `steps_at[i]` accesses stops just before the event that
        // triggers decision `i`, so the resumed run must re-take that
        // decision from restored controller state; one access later the
        // decision is already in the checkpoint (masks swapped) and must
        // not be taken again.
        let mut probe = RepartProbe::default();
        let mut sim = Simulation::new(dynamic_config(11)).unwrap();
        sim.advance(u64::MAX, Some(&mut probe)).unwrap();
        let straight = sim.finish().unwrap();
        let expected = fingerprint(&straight);
        let changed = probe
            .decisions
            .iter()
            .position(|d| d.changed())
            .expect("the asymmetric mix must trigger at least one mask change");
        let at = probe.steps_at[changed];
        for cut in [at, at + 1] {
            let bytes = checkpoint_at(dynamic_config(11), cut);
            let resumed = Simulation::resume(&mut bytes.as_slice())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(fingerprint(&resumed), expected, "cut at {cut} accesses");
        }
    }
}

mod churn {
    //! VM lifecycle churn coverage: builder validation, end-to-end behavior
    //! of the birth–death process, and the hard checkpoint seams (cut
    //! exactly on a spawn, mid-migration, and retire-then-resume).

    use super::snap::{checkpoint_at, fingerprint};
    use super::*;
    use crate::churn::ChurnAction;
    use consim_types::config::{CacheGeometry, ChurnPolicy, MachineConfigBuilder, SharingDegree};
    use consim_workload::WorkloadProfileBuilder;

    /// Records every churn decision plus how many accesses had completed
    /// when it fired (same cut-point convention as `RepartProbe`).
    #[derive(Default)]
    struct ChurnProbe {
        steps: u64,
        decisions: Vec<crate::churn::ChurnDecision>,
        steps_at: Vec<u64>,
    }

    impl StepObserver for ChurnProbe {
        fn on_step(&mut self, _: &AccessStep) {
            self.steps += 1;
        }

        fn on_churn(&mut self, decision: &crate::churn::ChurnDecision) {
            self.decisions.push(decision.clone());
            self.steps_at.push(self.steps);
        }
    }

    pub(super) fn policy() -> ChurnPolicy {
        ChurnPolicy {
            interval: 1_000,
            arrival_permille: vec![700; 4],
            departure_permille: vec![120; 4],
            migration_permille: 350,
            initial_active: 2,
            min_active: 1,
            migration_targets: None,
        }
    }

    /// Four 2-thread VMs on the 16-core machine: half the cores start
    /// free, so arrivals and migrations always have somewhere to land.
    pub(super) fn config(seed: u64, churn: Option<ChurnPolicy>) -> SimulationConfig {
        let mut machine = MachineConfigBuilder::new();
        machine
            .llc(CacheGeometry::new(256 * 1024, 16, 6).unwrap())
            .sharing(SharingDegree::SharedBy(4));
        machine.churn(churn);
        let machine = machine.build().unwrap();
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .policy(SchedulingPolicy::RoundRobin)
            .refs_per_vm(4_000)
            .warmup_refs_per_vm(800)
            .seed(seed);
        for i in 0..4 {
            b.workload(
                WorkloadProfileBuilder::new(format!("churny-{i}"))
                    .threads(2)
                    .footprint_blocks(6_000)
                    .shared_fraction(0.4)
                    .shared_access_prob(0.4)
                    .shared_write_prob(0.1)
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_rejects_degenerate_churn_configs() {
        // Rate vectors must cover the whole mix.
        let mut bad = policy();
        bad.arrival_permille.pop();
        let err = match config_result(bad) {
            Err(e) => e,
            Ok(_) => panic!("short rate vector must be rejected"),
        };
        assert!(err.to_string().contains("rate vectors"), "{err}");

        // Departure of the last VM of a single-VM mix.
        let single = ChurnPolicy {
            arrival_permille: vec![0],
            departure_permille: vec![500],
            initial_active: 1,
            ..policy()
        };
        let machine = MachineConfigBuilder::new()
            .churn(Some(single))
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.machine(machine).workload(
            WorkloadProfileBuilder::new("solo")
                .footprint_blocks(2_000)
                .build()
                .unwrap(),
        );
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("last VM"), "{err}");

        // Migration target outside the machine.
        let mut bad = policy();
        bad.migration_targets = Some(vec![0, 99]);
        let err = config_result(bad).unwrap_err();
        assert!(err.to_string().contains("outside the"), "{err}");

        // More initially-active VMs than the mix has.
        let mut bad = policy();
        bad.initial_active = 9;
        assert!(config_result(bad).is_err());

        // Churn and periodic rescheduling cannot be combined.
        let mut b = SimulationConfig::builder();
        let machine = MachineConfigBuilder::new()
            .churn(Some(policy()))
            .build()
            .unwrap();
        b.machine(machine).reschedule_every(10_000);
        for i in 0..4 {
            b.workload(
                WorkloadProfileBuilder::new(format!("w{i}"))
                    .threads(2)
                    .footprint_blocks(2_000)
                    .build()
                    .unwrap(),
            );
        }
        let err = b.build().unwrap_err();
        assert!(err.to_string().contains("rescheduling"), "{err}");
    }

    fn config_result(churn: ChurnPolicy) -> Result<SimulationConfig, SimError> {
        let machine = MachineConfigBuilder::new().churn(Some(churn)).build()?;
        let mut b = SimulationConfig::builder();
        b.machine(machine);
        for i in 0..4 {
            b.workload(
                WorkloadProfileBuilder::new(format!("w{i}"))
                    .threads(2)
                    .footprint_blocks(2_000)
                    .build()
                    .unwrap(),
            );
        }
        b.build()
    }

    /// Runs with a probe and returns (outcome, probe).
    fn run_probed(seed: u64) -> (SimulationOutcome, ChurnProbe) {
        let mut probe = ChurnProbe::default();
        let mut sim = Simulation::new(config(seed, Some(policy()))).unwrap();
        sim.advance(u64::MAX, Some(&mut probe)).unwrap();
        (sim.finish().unwrap(), probe)
    }

    #[test]
    fn churned_run_completes_and_counts_every_action_kind() {
        let (out, probe) = run_probed(42);
        let stats = out.churn.expect("churned run must report churn stats");
        assert!(!probe.decisions.is_empty(), "no churn boundary fired");
        let mut spawns = 0u64;
        let mut retires = 0u64;
        let mut migrations = 0u64;
        for d in &probe.decisions {
            assert_eq!(d.draws.len(), 4, "two draws per VM per boundary");
            assert!(d.active_after.iter().filter(|&&a| a).count() >= 1);
            for a in &d.actions {
                match a {
                    ChurnAction::Spawn { .. } => spawns += 1,
                    ChurnAction::Retire { .. } => retires += 1,
                    ChurnAction::Migrate { .. } => migrations += 1,
                }
            }
        }
        assert_eq!(stats.spawns, spawns);
        assert_eq!(stats.retires, retires);
        assert_eq!(stats.migrations, migrations);
        assert!(
            spawns > 0 && retires > 0 && migrations > 0,
            "seed 42 must exercise all three lifecycle actions \
             (got {spawns} spawns, {retires} retires, {migrations} migrations)"
        );
        // Migrations and retires scrub private caches.
        assert!(stats.l1_lines_invalidated > 0);
    }

    #[test]
    fn churned_runs_are_deterministic() {
        let a = Simulation::new(config(7, Some(policy())))
            .unwrap()
            .run()
            .unwrap();
        let b = Simulation::new(config(7, Some(policy())))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn churn_disabled_reports_no_stats() {
        let out = Simulation::new(config(3, None)).unwrap().run().unwrap();
        assert!(out.churn.is_none());
    }

    /// The access-count cut points bracketing the first decision whose
    /// actions satisfy `pick`: cutting at `steps_at` checkpoints just
    /// before the decision fires; one access later it is inside the
    /// checkpoint.
    fn cuts_around(
        probe: &ChurnProbe,
        pick: impl Fn(&ChurnAction) -> bool,
        what: &str,
    ) -> [u64; 2] {
        let i = probe
            .decisions
            .iter()
            .position(|d| d.actions.iter().any(&pick))
            .unwrap_or_else(|| panic!("seed must produce a {what} decision"));
        let at = probe.steps_at[i];
        [at, at + 1]
    }

    #[test]
    fn resume_seam_on_a_spawn_boundary_is_bit_identical() {
        let (straight, probe) = run_probed(42);
        let expected = fingerprint(&straight);
        for cut in cuts_around(&probe, |a| matches!(a, ChurnAction::Spawn { .. }), "spawn") {
            let bytes = checkpoint_at(config(42, Some(policy())), cut);
            let resumed = Simulation::resume(&mut bytes.as_slice())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(fingerprint(&resumed), expected, "cut at {cut} accesses");
        }
    }

    #[test]
    fn resume_seam_mid_migration_is_bit_identical() {
        // "Mid-migration": the checkpoint lands between the migration
        // decision and the migrated threads' first post-move access, so the
        // remapped heap events and scrubbed caches travel in the snapshot.
        let (straight, probe) = run_probed(42);
        let expected = fingerprint(&straight);
        for cut in cuts_around(
            &probe,
            |a| matches!(a, ChurnAction::Migrate { .. }),
            "migration",
        ) {
            let bytes = checkpoint_at(config(42, Some(policy())), cut);
            let resumed = Simulation::resume(&mut bytes.as_slice())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(fingerprint(&resumed), expected, "cut at {cut} accesses");
        }
    }

    #[test]
    fn retire_then_resume_is_bit_identical() {
        let (straight, probe) = run_probed(42);
        let expected = fingerprint(&straight);
        for cut in cuts_around(
            &probe,
            |a| matches!(a, ChurnAction::Retire { .. }),
            "retire",
        ) {
            let bytes = checkpoint_at(config(42, Some(policy())), cut);
            let resumed = Simulation::resume(&mut bytes.as_slice())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(fingerprint(&resumed), expected, "cut at {cut} accesses");
        }
    }

    #[test]
    fn churn_state_survives_interleaved_checkpoint_chain() {
        let straight = Simulation::new(config(9, Some(policy())))
            .unwrap()
            .run()
            .unwrap();
        let mut sim = Simulation::new(config(9, Some(policy()))).unwrap();
        loop {
            let status = sim.advance(700, None).unwrap();
            let mut bytes = Vec::new();
            sim.checkpoint(&mut bytes).unwrap();
            sim = Simulation::resume(&mut bytes.as_slice()).unwrap();
            if status == RunStatus::Complete {
                break;
            }
        }
        let resumed = sim.finish().unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&straight));
    }
}

mod partitioning {
    //! Engine-level way-partitioning (QoS) coverage: builder validation,
    //! the unpartitioned-equivalence guarantee, and the per-VM occupancy
    //! cap (see `crate::hierarchy` module docs).

    use super::*;
    use consim_types::config::{CacheGeometry, DynamicPolicy, MachineConfigBuilder, SharingDegree};
    use consim_types::LlcPartitioning;
    use consim_workload::WorkloadProfileBuilder;

    fn hungry_profile() -> WorkloadProfile {
        // Footprint far above any per-VM quota so partitions fill up.
        WorkloadProfileBuilder::new("hungry")
            .footprint_blocks(60_000)
            .build()
            .unwrap()
    }

    fn config(partitioning: LlcPartitioning, vms: usize) -> Result<SimulationConfig, SimError> {
        // A deliberately small LLC (4 × 64 KB banks) so the 60k-block
        // footprints overflow every set and the way quotas actually bind.
        // Built with `with_llc_partitioning` (no machine-level validation)
        // so these tests exercise the simulation builder's checks.
        let machine = MachineConfigBuilder::new()
            .llc(CacheGeometry::new(256 * 1024, 16, 6).unwrap())
            .sharing(SharingDegree::SharedBy(4))
            .build()
            .unwrap()
            .with_llc_partitioning(partitioning);
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .policy(SchedulingPolicy::RoundRobin)
            .refs_per_vm(3_000)
            .warmup_refs_per_vm(1_000)
            .seed(9);
        for _ in 0..vms {
            b.workload(hungry_profile());
        }
        b.build()
    }

    #[test]
    fn builder_rejects_bad_explicit_ways() {
        // Wrong entry count for the VM mix (the paper LLC is 16-way).
        assert!(config(LlcPartitioning::ExplicitWays(vec![8, 8]), 4).is_err());
        // Right count, wrong sum.
        assert!(config(LlcPartitioning::ExplicitWays(vec![4, 4, 4, 5]), 4).is_err());
        // Zero-way VMs could never fill a line.
        assert!(config(LlcPartitioning::ExplicitWays(vec![0, 8, 4, 4]), 4).is_err());
        // The exact split is accepted.
        assert!(config(LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2]), 4).is_ok());
    }

    #[test]
    fn builder_rejects_more_vms_than_ways() {
        // A 2-way LLC cannot give 4 VMs a way each.
        let machine = MachineConfigBuilder::new()
            .llc(CacheGeometry::new(16 * 1024 * 1024, 2, 6).unwrap())
            .sharing(SharingDegree::SharedBy(4))
            .llc_partitioning(LlcPartitioning::EqualWays)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.machine(machine);
        for _ in 0..4 {
            b.workload(hungry_profile());
        }
        assert!(b.build().is_err());
    }

    #[test]
    fn full_mask_run_matches_unpartitioned_exactly() {
        // A single VM under EqualWays owns every way, and the masked
        // replacement walk must then be indistinguishable from the plain
        // one — cycle-for-cycle, not just statistically.
        let none = Simulation::new(config(LlcPartitioning::None, 1).unwrap())
            .unwrap()
            .run()
            .unwrap();
        let equal = Simulation::new(config(LlcPartitioning::EqualWays, 1).unwrap())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(none.measured_cycles, equal.measured_cycles);
        assert_eq!(none.vm_metrics[0].l1_misses, equal.vm_metrics[0].l1_misses);
        assert_eq!(
            none.vm_metrics[0].memory_fetches,
            equal.vm_metrics[0].memory_fetches
        );
    }

    #[test]
    fn explicit_ways_cap_per_vm_occupancy() {
        let quotas = [8.0, 4.0, 2.0, 2.0];
        let cfg = config(LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2]), 4).unwrap();
        let out = Simulation::new(cfg).unwrap().run().unwrap();
        for m in &out.vm_metrics {
            assert!(m.completion.is_some());
        }
        for bank in &out.occupancy.share {
            for (vm, &share) in bank.iter().enumerate() {
                assert!(
                    share <= quotas[vm] / 16.0 + 1e-9,
                    "VM {vm} holds {share} of a bank, quota {}",
                    quotas[vm] / 16.0
                );
            }
        }
    }

    #[test]
    fn partitioning_changes_contended_behavior() {
        // With footprints far above the quotas, confining each VM to a
        // slice of the ways must actually change the timing.
        let none = Simulation::new(config(LlcPartitioning::None, 4).unwrap())
            .unwrap()
            .run()
            .unwrap();
        let split =
            Simulation::new(config(LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2]), 4).unwrap())
                .unwrap()
                .run()
                .unwrap();
        assert_ne!(none.measured_cycles, split.measured_cycles);
    }

    #[test]
    fn partitioned_runs_are_deterministic() {
        let run = || {
            let cfg = config(LlcPartitioning::EqualWays, 4).unwrap();
            let out = Simulation::new(cfg).unwrap().run().unwrap();
            (out.measured_cycles, out.occupancy.share.clone())
        };
        assert_eq!(run(), run());
    }

    /// One LLC-resident VM, one memory streamer, one light VM — the
    /// asymmetric consolidation mix the dynamic controller exists to
    /// arbitrate.
    fn mixed_config(partitioning: LlcPartitioning) -> SimulationConfig {
        let machine = MachineConfigBuilder::new()
            .llc(CacheGeometry::new(256 * 1024, 16, 6).unwrap())
            .sharing(SharingDegree::SharedBy(4))
            .build()
            .unwrap()
            .with_llc_partitioning(partitioning);
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .policy(SchedulingPolicy::RoundRobin)
            .refs_per_vm(3_000)
            .warmup_refs_per_vm(1_000)
            .seed(9);
        for (name, footprint) in [("resident", 3_000), ("streamy", 60_000), ("tiny", 256)] {
            b.workload(
                WorkloadProfileBuilder::new(name)
                    .footprint_blocks(footprint)
                    .build()
                    .unwrap(),
            );
        }
        b.build().unwrap()
    }

    /// A short repartition epoch and no dead-band, so the controller gets
    /// plenty of chances to act inside a 3 000-ref measured window.
    fn quick_policy() -> DynamicPolicy {
        DynamicPolicy {
            epoch_interval: 2_000,
            deadband_milli: 0,
            ..Default::default()
        }
    }

    #[test]
    fn dynamic_decisions_fire_and_masks_stay_well_formed() {
        let mut probe = RepartProbe::default();
        let mut sim =
            Simulation::new(mixed_config(LlcPartitioning::Dynamic(quick_policy()))).unwrap();
        sim.advance(u64::MAX, Some(&mut probe)).unwrap();
        let out = sim.finish().unwrap();
        for m in &out.vm_metrics {
            assert!(m.completion.is_some());
        }
        assert!(
            probe.decisions.len() >= 3,
            "only {} decisions fired",
            probe.decisions.len()
        );
        assert!(
            probe.decisions.iter().any(|d| d.changed()),
            "the asymmetric mix must move at least one way"
        );
        for (i, d) in probe.decisions.iter().enumerate() {
            assert_eq!(d.epoch, i as u64 + 1, "epochs must be consecutive");
            let mut covered = 0u64;
            for (vm, &mask) in d.new_masks.iter().enumerate() {
                assert_eq!(covered & mask, 0, "epoch {}: VM {vm} overlaps", d.epoch);
                covered |= mask;
                assert!(
                    mask.count_ones() >= 1,
                    "epoch {}: VM {vm} dropped below min_ways",
                    d.epoch
                );
                // A contiguous run of ones leaves 2^k - 1 once shifted down.
                let norm = mask >> mask.trailing_zeros();
                assert_eq!(
                    norm & (norm + 1),
                    0,
                    "epoch {}: VM {vm} mask {mask:#06x} is not contiguous",
                    d.epoch
                );
            }
            assert_eq!(
                covered,
                (1u64 << 16) - 1,
                "epoch {}: masks must cover all 16 ways",
                d.epoch
            );
        }
    }

    #[test]
    fn dynamic_never_firing_matches_equal_ways_exactly() {
        // With the first boundary beyond the run's horizon the controller
        // never acts, and the initial equal split must make the run
        // indistinguishable from static EqualWays — cycle-for-cycle.
        let lazy = DynamicPolicy {
            epoch_interval: u64::MAX / 2,
            ..Default::default()
        };
        let dynamic = Simulation::new(mixed_config(LlcPartitioning::Dynamic(lazy)))
            .unwrap()
            .run()
            .unwrap();
        let equal = Simulation::new(mixed_config(LlcPartitioning::EqualWays))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(dynamic.measured_cycles, equal.measured_cycles);
        for (d, e) in dynamic.vm_metrics.iter().zip(&equal.vm_metrics) {
            assert_eq!(d.l1_misses, e.l1_misses);
            assert_eq!(d.memory_fetches, e.memory_fetches);
            assert_eq!(d.completion, e.completion);
        }
    }

    #[test]
    fn dynamic_runs_are_deterministic() {
        let run = || {
            let cfg = mixed_config(LlcPartitioning::Dynamic(quick_policy()));
            let out = Simulation::new(cfg).unwrap().run().unwrap();
            (out.measured_cycles, out.occupancy.share.clone())
        };
        assert_eq!(run(), run());
    }
}

mod boundary {
    //! The one boundary path: the epoch stamp runs whenever a trace sink is
    //! attached, and the sink's interest in [`EventClass::Epoch`] is read
    //! at each boundary, not once per phase.

    use super::*;
    use crate::persist::outcome_to_bytes;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// Wants `Epoch` events only while `epochs_on` is set, and counts the
    /// `Epoch` events it records.
    #[derive(Debug, Default)]
    struct SwitchSink {
        epochs_on: AtomicBool,
        epochs: AtomicU64,
    }

    impl TraceSink for SwitchSink {
        fn record(&self, event: &TraceEvent) {
            if matches!(event, TraceEvent::Epoch { .. }) {
                self.epochs.fetch_add(1, Ordering::Relaxed);
            }
        }

        fn wants(&self, class: EventClass) -> bool {
            class != EventClass::Epoch || self.epochs_on.load(Ordering::Relaxed)
        }
    }

    /// Runs `config` without warmup, traced into `sink` with 2,000-cycle
    /// epochs, in 2,000-access slices; before slice `i` the sink wants
    /// `Epoch` iff `on(i)`. Returns the outcome record.
    fn run_switched(
        mut config: SimulationConfig,
        sink: &Arc<SwitchSink>,
        on: impl Fn(usize) -> bool,
    ) -> Vec<u8> {
        let mut trace = TraceConfig::new(Arc::clone(sink) as Arc<dyn TraceSink>);
        trace.epoch_cycles = 2_000;
        config.trace = Some(trace);
        let mut sim = Simulation::new(config).unwrap();
        for slice in 0.. {
            sink.epochs_on.store(on(slice), Ordering::Relaxed);
            if sim.advance(2_000, None).unwrap() == RunStatus::Complete {
                break;
            }
        }
        outcome_to_bytes(&sim.finish().unwrap()).unwrap()
    }

    /// Measurement starts inside the first slice.
    fn without_warmup(mut config: SimulationConfig) -> SimulationConfig {
        config.warmup_refs_per_vm = 0;
        config
    }

    #[test]
    fn a_sink_that_stops_wanting_epochs_mid_run_moves_no_byte() {
        let qos = without_warmup(super::snap::dynamic_config(11));
        let churn = without_warmup(super::churn::config(42, Some(super::churn::policy())));
        for (name, config) in [("dynamic QoS", qos), ("churn", churn)] {
            let untraced = Simulation::new(config.clone()).unwrap().run().unwrap();
            let sink = Arc::new(SwitchSink::default());
            let traced = run_switched(config, &sink, |slice| slice == 0);
            assert!(
                sink.epochs.load(Ordering::Relaxed) > 0,
                "{name}: the first slice records snapshots"
            );
            assert!(
                traced == outcome_to_bytes(&untraced).unwrap(),
                "{name}: the traced run's outcome differs"
            );
        }
    }

    #[test]
    fn a_sink_that_starts_wanting_epochs_mid_run_gets_snapshots() {
        let config = without_warmup(super::snap::config(4, SchedulingPolicy::Affinity, None));
        let sink = Arc::new(SwitchSink::default());
        run_switched(config, &sink, |slice| slice > 0);
        assert!(
            sink.epochs.load(Ordering::Relaxed) >= 1,
            "a subscriber arriving after measurement starts must see snapshots"
        );
    }
}
