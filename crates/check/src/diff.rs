//! Running one differential case: engine vs reference model.
//!
//! The engine drives the comparison through its [`StepObserver`] hook: the
//! observer receives every access (warmup and measurement) plus every LLC
//! prewarm insertion, replays it into the [`RefModel`], and records the
//! first disagreement. After the run, the model's accumulated per-VM
//! counters, LLC replication, and LLC occupancy are checked against the
//! engine's [`SimulationOutcome`] — exactly (both sides compute the same
//! integer counts; occupancy shares divide by the same capacities).

use crate::cases::FuzzCase;
use crate::model::{Mutation, RefModel};
use consim::engine::{Simulation, SimulationOutcome};
use consim::observe::{AccessStep, StepObserver};
use consim_types::rng::SimRng;
use consim_types::{BankId, BlockAddr};

/// The result of one differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Engine and model agreed on every step and all final state.
    Pass {
        /// Accesses compared (warmup + measurement).
        steps: u64,
    },
    /// Engine and model disagreed; the string names the first mismatch.
    Divergence(String),
    /// The engine itself failed (config rejected, internal audit, panic
    /// guards): also a finding, but a different kind.
    EngineError(String),
}

impl CaseOutcome {
    /// True for anything other than a clean pass.
    pub fn is_failure(&self) -> bool {
        !matches!(self, CaseOutcome::Pass { .. })
    }
}

/// Step observer that mirrors every access into the reference model and
/// latches the first divergence.
struct DiffObserver {
    model: RefModel,
    steps: u64,
    failure: Option<String>,
}

impl StepObserver for DiffObserver {
    fn on_step(&mut self, step: &AccessStep) {
        if self.failure.is_some() {
            return;
        }
        self.steps += 1;
        if let Err(msg) = self.model.step(step) {
            self.failure = Some(format!("step {}: {msg}", self.steps));
        }
    }

    fn on_llc_prewarm(&mut self, bank: BankId, block: BlockAddr) {
        self.model.prewarm(bank, block);
    }

    fn on_repartition(&mut self, decision: &consim::qos::RepartitionDecision) {
        if self.failure.is_some() {
            return;
        }
        if let Err(msg) = self.model.repartition(decision) {
            self.failure = Some(format!("step {}: {msg}", self.steps));
        }
    }

    fn on_churn(&mut self, decision: &consim::churn::ChurnDecision) {
        if self.failure.is_some() {
            return;
        }
        if let Err(msg) = self.model.churn(decision) {
            self.failure = Some(format!("step {}: {msg}", self.steps));
        }
    }
}

/// Runs one case differentially. `mutation`, when set, installs a
/// deliberate bug in the *model* (mutation testing — the check must fail).
pub fn run_case(case: &FuzzCase, mutation: Option<Mutation>) -> CaseOutcome {
    let config = match case.build() {
        Ok(c) => c,
        Err(e) => return CaseOutcome::EngineError(format!("config rejected: {e}")),
    };
    let mut observer = DiffObserver {
        model: RefModel::new(&config).with_mutation(mutation),
        steps: 0,
        failure: None,
    };
    let sim = match Simulation::new(config) {
        Ok(s) => s,
        Err(e) => return CaseOutcome::EngineError(format!("construction failed: {e}")),
    };
    let outcome = match sim.run_with(Some(&mut observer)) {
        Ok(o) => o,
        Err(e) => return CaseOutcome::EngineError(format!("run failed: {e}")),
    };
    if let Some(msg) = observer.failure {
        return CaseOutcome::Divergence(msg);
    }
    match check_final_state(&observer.model, &outcome, case.vms.len()) {
        Ok(()) => CaseOutcome::Pass {
            steps: observer.steps,
        },
        Err(msg) => CaseOutcome::Divergence(msg),
    }
}

/// Runs one case *split in two*: the engine is advanced to a cut point
/// derived from the case seed, checkpointed to bytes, dropped, resumed
/// into a fresh [`Simulation`], and driven to completion — with one
/// [`RefModel`] observing the whole stream across the seam. The resumed
/// run must agree with the naive model (step-by-step and on final state)
/// *and* be bit-identical to an uninterrupted engine run of the same case.
///
/// The cut point is uniform in `[1, total accesses]`, so some cases cut
/// during warmup, some mid-measurement, and a few checkpoint an already
/// complete (but not yet finalized) run — all of which must round-trip.
pub fn run_case_resumed(case: &FuzzCase, mutation: Option<Mutation>) -> CaseOutcome {
    let config = match case.build() {
        Ok(c) => c,
        Err(e) => return CaseOutcome::EngineError(format!("config rejected: {e}")),
    };

    // Uninterrupted reference run (unobserved; the split run carries the
    // model, and both runs must land on the identical outcome anyway).
    let straight = match Simulation::new(config.clone()).and_then(Simulation::run) {
        Ok(o) => o,
        Err(e) => return CaseOutcome::EngineError(format!("straight run failed: {e}")),
    };

    let total = (case.refs_per_vm + case.warmup_refs_per_vm).max(1) * case.vms.len().max(1) as u64;
    let cut = 1 + SimRng::from_seed(case.case_seed)
        .derive("check/resume")
        .below(total);

    let mut observer = DiffObserver {
        model: RefModel::new(&config).with_mutation(mutation),
        steps: 0,
        failure: None,
    };

    let mut sim = match Simulation::new(config) {
        Ok(s) => s,
        Err(e) => return CaseOutcome::EngineError(format!("construction failed: {e}")),
    };
    // Drive the pre-cut portion in several unequal slices rather than one
    // `advance(cut)` call: the worker pool executes jobs time-sliced, so
    // the oracle must witness that chopping a run into arbitrary slice
    // boundaries is invisible to the model and the final state alike.
    let mut slicer = SimRng::from_seed(case.case_seed).derive("check/resume-slices");
    let mut advanced = 0;
    while advanced < cut {
        let slice = (1 + slicer.below((cut - advanced).max(1))).min(cut - advanced);
        if let Err(e) = sim.advance(slice, Some(&mut observer)) {
            return CaseOutcome::EngineError(format!(
                "first half failed at access {advanced}: {e}"
            ));
        }
        advanced += slice;
    }
    let mut bytes = Vec::new();
    if let Err(e) = sim.checkpoint(&mut bytes) {
        return CaseOutcome::EngineError(format!("checkpoint at access {cut} failed: {e}"));
    }
    drop(sim);

    let mut sim = match Simulation::resume(bytes.as_slice()) {
        Ok(s) => s,
        Err(e) => return CaseOutcome::EngineError(format!("resume at access {cut} failed: {e}")),
    };
    if let Err(e) = sim.advance(u64::MAX, Some(&mut observer)) {
        return CaseOutcome::EngineError(format!("second half failed: {e}"));
    }
    let outcome = match sim.finish() {
        Ok(o) => o,
        Err(e) => return CaseOutcome::EngineError(format!("finish failed: {e}")),
    };

    if let Some(msg) = observer.failure {
        return CaseOutcome::Divergence(format!("resumed at access {cut}: {msg}"));
    }
    if let Err(msg) = check_final_state(&observer.model, &outcome, case.vms.len()) {
        return CaseOutcome::Divergence(format!("resumed at access {cut}: {msg}"));
    }
    // Exact agreement with the uninterrupted engine run. Debug formatting
    // round-trips every integer and float, so string equality here is
    // bit-for-bit equality of the outcomes.
    let want = format!("{straight:?}");
    let got = format!("{outcome:?}");
    if want != got {
        return CaseOutcome::Divergence(format!(
            "resumed at access {cut}: outcome differs from uninterrupted run: {}",
            first_difference(&want, &got)
        ));
    }
    CaseOutcome::Pass {
        steps: observer.steps,
    }
}

/// Points at the first byte where two renderings diverge, with context.
fn first_difference(want: &str, got: &str) -> String {
    let at = want
        .bytes()
        .zip(got.bytes())
        .position(|(w, g)| w != g)
        .unwrap_or_else(|| want.len().min(got.len()));
    let lo = at.saturating_sub(40);
    let snip = |s: &str| {
        let hi = (at + 40).min(s.len());
        String::from_utf8_lossy(&s.as_bytes()[lo..hi]).into_owned()
    };
    format!(
        "first difference at byte {at}: straight `..{}..` vs resumed `..{}..`",
        snip(want),
        snip(got)
    )
}

/// Compares the model's end-of-run aggregates with the engine's.
fn check_final_state(
    model: &RefModel,
    outcome: &SimulationOutcome,
    num_vms: usize,
) -> Result<(), String> {
    if outcome.vm_metrics.len() != num_vms {
        return Err(format!(
            "vm count mismatch: engine {}, model {num_vms}",
            outcome.vm_metrics.len()
        ));
    }
    for (vm, (engine, model)) in outcome
        .vm_metrics
        .iter()
        .zip(model.counters().iter())
        .enumerate()
    {
        let pairs: &[(&str, u64, u64)] = &[
            ("refs", engine.refs, model.refs),
            ("writes", engine.writes, model.writes),
            ("l0_hits", engine.l0_hits, model.l0_hits),
            ("l1_hits", engine.l1_hits, model.l1_hits),
            ("l1_misses", engine.l1_misses, model.l1_misses),
            ("c2c_l1_clean", engine.c2c_l1_clean, model.c2c_l1_clean),
            ("c2c_l1_dirty", engine.c2c_l1_dirty, model.c2c_l1_dirty),
            (
                "llc_local_hits",
                engine.llc_local_hits,
                model.llc_local_hits,
            ),
            (
                "llc_remote_clean",
                engine.llc_remote_clean,
                model.llc_remote_clean,
            ),
            (
                "llc_remote_dirty",
                engine.llc_remote_dirty,
                model.llc_remote_dirty,
            ),
            (
                "memory_fetches",
                engine.memory_fetches,
                model.memory_fetches,
            ),
            ("upgrades", engine.upgrades, model.upgrades),
            (
                "invalidations_received",
                engine.invalidations_received,
                model.invalidations_received,
            ),
        ];
        for &(name, e, m) in pairs {
            if e != m {
                return Err(format!(
                    "final counter mismatch for vm {vm}: {name} engine {e}, model {m}"
                ));
            }
        }
    }
    let (total, replicated) = model.replication();
    if outcome.replication.total_lines != total {
        return Err(format!(
            "replication total_lines mismatch: engine {}, model {total}",
            outcome.replication.total_lines
        ));
    }
    if outcome.replication.replicated_lines != replicated {
        return Err(format!(
            "replication replicated_lines mismatch: engine {}, model {replicated}",
            outcome.replication.replicated_lines
        ));
    }
    let model_share = model.occupancy(num_vms);
    if outcome.occupancy.share != model_share {
        return Err(format!(
            "occupancy mismatch: engine {:?}, model {model_share:?}",
            outcome.occupancy.share
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use consim_cache::ReplacementPolicy;
    use consim_sched::SchedulingPolicy;
    use consim_types::config::LlcPartitioning;

    const LLC_POLICIES: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ];

    #[test]
    fn smoke_cases_pass() {
        for seed in 0..25 {
            let case = FuzzCase::generate(seed);
            let outcome = run_case(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "seed {seed}: {outcome:?}\ncase: {case:?}"
            );
        }
    }

    #[test]
    fn paper_shaped_case_passes() {
        // A 16-core case with multiple VMs on shared-4-way LLC banks, the
        // shape of the replacement-policy ablation, under each LLC policy,
        // straight and across a checkpoint seam.
        for policy in LLC_POLICIES {
            let mut case = FuzzCase::generate(1);
            case.num_cores = 16;
            case.mesh_width = 4;
            case.cores_per_bank = 4;
            case.l1_sets = 8;
            case.l1_ways = 4;
            case.llc_bank_sets = 8;
            case.llc_ways = 4;
            case.llc_replacement = policy;
            case.refs_per_vm = 400;
            case.warmup_refs_per_vm = 100;
            case.canonicalize();
            assert_eq!(case.llc_replacement, policy);
            for (seam, outcome) in [
                ("straight", run_case(&case, None)),
                ("resumed", run_case_resumed(&case, None)),
            ] {
                assert!(
                    matches!(outcome, CaseOutcome::Pass { .. }),
                    "{policy:?} {seam}: {outcome:?}\ncase: {case:?}"
                );
            }
        }
    }

    /// Degenerate shapes pinned from fuzzing sessions: each of these hit a
    /// real bug (or guards a boundary close to one) and must stay green.
    #[test]
    fn pinned_degenerate_cases_pass() {
        // One core, one VM, direct-mapped single-set caches everywhere,
        // zero warmup, prewarm into a tiny LLC.
        let mut tiny = FuzzCase::generate(0);
        tiny.num_cores = 1;
        tiny.vms.truncate(1);
        tiny.vms[0].threads = 1;
        tiny.l0_sets = 1;
        tiny.l0_ways = 1;
        tiny.l1_sets = 1;
        tiny.l1_ways = 1;
        tiny.llc_bank_sets = 1;
        tiny.llc_ways = 1;
        tiny.warmup_refs_per_vm = 0;
        tiny.prewarm_llc = true;
        tiny.canonicalize();

        // Random placement with fewer threads than cores plus frequent
        // rescheduling: the engine used to panic popping a vacated core's
        // issue event ("scheduled cores have threads").
        let mut churn = FuzzCase::generate(1);
        churn.num_cores = 16;
        churn.policy = SchedulingPolicy::Random;
        churn.reschedule_every = Some(200);
        churn.refs_per_vm = 500;
        churn.canonicalize();
        assert!(
            churn.vms.iter().map(|v| v.threads).sum::<usize>() < churn.num_cores,
            "repro needs idle cores for the occupied set to change"
        );

        // Single-set LLC shared by every core: maximum bank contention on
        // one replacement list.
        let mut oneset = FuzzCase::generate(2);
        oneset.num_cores = 4;
        oneset.cores_per_bank = 4;
        oneset.llc_bank_sets = 1;
        oneset.llc_ways = 2;
        oneset.canonicalize();

        for (name, case) in [("tiny", tiny), ("churn", churn), ("oneset", oneset)] {
            let outcome = run_case(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "{name}: {outcome:?}\ncase: {case:?}"
            );
        }
    }

    #[test]
    fn partitioned_cases_pass() {
        // A paper-shaped machine with an uneven explicit split under bank
        // contention, prewarmed so the masked prewarm path is covered too.
        let mut split = FuzzCase::generate(5);
        split.num_cores = 8;
        split.cores_per_bank = 4;
        split.llc_bank_sets = 2;
        split.llc_ways = 4;
        split.vms.truncate(2);
        while split.vms.len() < 2 {
            split.vms.push(split.vms[0].clone());
        }
        split.llc_partitioning = LlcPartitioning::ExplicitWays(vec![3, 1]);
        split.prewarm_llc = true;
        split.refs_per_vm = 400;
        split.canonicalize();
        assert!(
            matches!(split.llc_partitioning, LlcPartitioning::ExplicitWays(_)),
            "canonicalize must keep a valid split: {split:?}"
        );

        // The same split under the other two LLC policies: victims chosen
        // inside each VM's ways by the tree and by the per-set streams.
        let mut plru = split.clone();
        plru.llc_replacement = ReplacementPolicy::TreePlru;
        let mut random = split.clone();
        random.llc_replacement = ReplacementPolicy::Random;

        // Equal-ways across every generated partitionable shape.
        let mut equal = FuzzCase::generate(6);
        equal.llc_ways = 4;
        equal.llc_partitioning = LlcPartitioning::EqualWays;
        equal.canonicalize();

        for (name, case) in [
            ("split", split),
            ("split tree-PLRU", plru),
            ("split Random", random),
            ("equal", equal),
        ] {
            let outcome = run_case(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "{name}: {outcome:?}\ncase: {case:?}"
            );
        }

        // And the generator's own partitioned cases agree end-to-end.
        let partitioned: Vec<FuzzCase> = (0..200)
            .map(FuzzCase::generate)
            .filter(|c| c.llc_partitioning != LlcPartitioning::None)
            .take(10)
            .collect();
        assert!(
            !partitioned.is_empty(),
            "generator produced no partitioned cases"
        );
        for case in partitioned {
            let outcome = run_case(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "seed {}: {outcome:?}\ncase: {case:?}",
                case.case_seed
            );
        }
    }

    #[test]
    fn dynamic_cases_pass() {
        use consim_types::config::DynamicPolicy;

        // A pinned dynamic case tuned so decisions fire and ways move: a
        // short epoch, no dead-band, two VMs with very different appetites
        // on a small LLC.
        let mut pinned = FuzzCase::generate(5);
        pinned.num_cores = 8;
        pinned.cores_per_bank = 4;
        pinned.llc_bank_sets = 2;
        pinned.llc_ways = 4;
        pinned.vms.truncate(2);
        while pinned.vms.len() < 2 {
            pinned.vms.push(pinned.vms[0].clone());
        }
        pinned.vms[0].footprint_blocks = 8;
        pinned.vms[1].footprint_blocks = 96;
        pinned.llc_partitioning = LlcPartitioning::Dynamic(DynamicPolicy {
            epoch_interval: 500,
            deadband_milli: 0,
            ..Default::default()
        });
        pinned.refs_per_vm = 600;
        pinned.warmup_refs_per_vm = 100;
        pinned.canonicalize();
        assert!(
            matches!(pinned.llc_partitioning, LlcPartitioning::Dynamic(_)),
            "canonicalize must keep a feasible dynamic policy: {pinned:?}"
        );
        let outcome = run_case(&pinned, None);
        assert!(
            matches!(outcome, CaseOutcome::Pass { .. }),
            "pinned: {outcome:?}\ncase: {pinned:?}"
        );

        // And the generator's own dynamic cases agree end-to-end.
        let dynamic: Vec<FuzzCase> = (0..200)
            .map(FuzzCase::generate)
            .filter(|c| matches!(c.llc_partitioning, LlcPartitioning::Dynamic(_)))
            .take(10)
            .collect();
        assert!(!dynamic.is_empty(), "generator produced no dynamic cases");
        for case in dynamic {
            let outcome = run_case(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "seed {}: {outcome:?}\ncase: {case:?}",
                case.case_seed
            );
        }
    }

    #[test]
    fn resumed_dynamic_cases_pass() {
        // The seam must round-trip the controller mirror too: checkpoint a
        // dynamic case mid-run (sometimes mid-epoch, sometimes right on a
        // boundary, wherever the seeded cut lands) and keep agreeing.
        let dynamic: Vec<FuzzCase> = (0..200)
            .map(FuzzCase::generate)
            .filter(|c| matches!(c.llc_partitioning, LlcPartitioning::Dynamic(_)))
            .take(8)
            .collect();
        assert!(!dynamic.is_empty(), "generator produced no dynamic cases");
        for case in dynamic {
            let outcome = run_case_resumed(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "seed {}: {outcome:?}\ncase: {case:?}",
                case.case_seed
            );
        }
    }

    /// A pinned case where all three lifecycle action kinds fire within the
    /// run: a 16-core machine, three 2-thread VMs of which two start, short
    /// boundaries, and aggressive rates.
    fn churny() -> FuzzCase {
        use consim_types::config::ChurnPolicy;
        let mut case = FuzzCase::generate(7);
        case.num_cores = 16;
        case.mesh_width = 4;
        case.cores_per_bank = 4;
        case.l1_sets = 8;
        case.l1_ways = 4;
        case.llc_bank_sets = 8;
        case.llc_ways = 4;
        while case.vms.len() < 3 {
            case.vms.push(case.vms[0].clone());
        }
        case.vms.truncate(3);
        for vm in &mut case.vms {
            vm.threads = 2;
            vm.footprint_blocks = vm.footprint_blocks.max(48);
        }
        case.refs_per_vm = 600;
        case.warmup_refs_per_vm = 150;
        case.reschedule_every = None;
        case.llc_partitioning = consim_types::config::LlcPartitioning::None;
        case.churn = Some(ChurnPolicy {
            interval: 300,
            arrival_permille: vec![850; 3],
            departure_permille: vec![350; 3],
            migration_permille: 500,
            initial_active: 2,
            min_active: 1,
            migration_targets: None,
        });
        case.canonicalize();
        assert!(case.churn.is_some(), "canonicalize must keep the policy");
        case
    }

    #[test]
    fn churned_cases_pass() {
        // The pinned all-action-kinds case, then the generator's own
        // churned stream, all end-to-end against the lifecycle mirror.
        let pinned = churny();
        let outcome = run_case(&pinned, None);
        assert!(
            matches!(outcome, CaseOutcome::Pass { .. }),
            "pinned: {outcome:?}\ncase: {pinned:?}"
        );
        let churned: Vec<FuzzCase> = (0..200)
            .map(FuzzCase::generate)
            .filter(|c| c.churn.is_some())
            .take(10)
            .collect();
        assert!(!churned.is_empty(), "generator produced no churned cases");
        for case in churned {
            let outcome = run_case(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "seed {}: {outcome:?}\ncase: {case:?}",
                case.case_seed
            );
        }
    }

    #[test]
    fn resumed_churned_cases_pass() {
        // The seam must round-trip the lifecycle state too: checkpoint a
        // churned case wherever the seeded cut lands (sometimes right on a
        // boundary, sometimes mid-interval) and keep agreeing with both the
        // mirror and the uninterrupted run.
        let pinned = churny();
        let outcome = run_case_resumed(&pinned, None);
        assert!(
            matches!(outcome, CaseOutcome::Pass { .. }),
            "pinned: {outcome:?}\ncase: {pinned:?}"
        );
        let churned: Vec<FuzzCase> = (0..200)
            .map(FuzzCase::generate)
            .filter(|c| c.churn.is_some())
            .take(6)
            .collect();
        assert!(!churned.is_empty(), "generator produced no churned cases");
        for case in churned {
            let outcome = run_case_resumed(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "seed {}: {outcome:?}\ncase: {case:?}",
                case.case_seed
            );
        }
    }

    #[test]
    fn ignore_retire_mutation_is_detected() {
        // A model whose mirror never processes departures must diverge the
        // moment the engine retires a VM — symmetrically, an engine that
        // silently dropped retirements would be caught the same way.
        let caught = std::iter::once(churny())
            .chain(
                (0..400)
                    .map(FuzzCase::generate)
                    .filter(|c| {
                        c.churn.as_ref().is_some_and(|ch| {
                            c.vms.len() >= 2 && ch.departure_permille.iter().any(|&r| r >= 200)
                        })
                    })
                    .take(20),
            )
            .any(|case| run_case(&case, Some(Mutation::IgnoreRetire)).is_failure());
        assert!(caught, "IgnoreRetire was never detected");
    }

    #[test]
    fn skip_migration_invalidation_mutation_is_detected() {
        // A model that rebinds a migrating VM without scrubbing must
        // diverge on the boundary's invalidation counts (or the stale
        // directory entries its skipped evictions leave behind).
        let caught = std::iter::once(churny())
            .chain(
                (0..400)
                    .map(FuzzCase::generate)
                    .filter(|c| {
                        c.churn
                            .as_ref()
                            .is_some_and(|ch| ch.migration_permille >= 200)
                    })
                    .take(20),
            )
            .any(|case| run_case(&case, Some(Mutation::SkipMigrationInvalidation)).is_failure());
        assert!(caught, "SkipMigrationInvalidation was never detected");
    }

    #[test]
    fn ignore_repartition_mutation_is_detected() {
        // A model that freezes the initial split while the engine's
        // controller moves ways must diverge — symmetrically, an engine
        // that silently dropped the QoS feedback loop would be caught the
        // same way. Only dynamic multi-VM cases can move ways at all.
        let caught = (0..400)
            .map(FuzzCase::generate)
            .filter(|c| {
                matches!(c.llc_partitioning, LlcPartitioning::Dynamic(_)) && c.vms.len() >= 2
            })
            .take(20)
            .any(|case| run_case(&case, Some(Mutation::IgnoreRepartition)).is_failure());
        assert!(caught, "IgnoreRepartition was never detected");
    }

    #[test]
    fn resumed_smoke_cases_pass() {
        for seed in 0..25 {
            let case = FuzzCase::generate(seed);
            let outcome = run_case_resumed(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "seed {seed}: {outcome:?}\ncase: {case:?}"
            );
        }
    }

    #[test]
    fn resumed_run_observes_the_same_stream_as_a_straight_run() {
        // The resumed harness compares final outcomes bit-for-bit itself;
        // here we also pin that the *observer* saw exactly as many steps as
        // a straight observed run — the seam neither drops nor replays
        // accesses.
        for seed in [3, 11, 19] {
            let case = FuzzCase::generate(seed);
            let straight = run_case(&case, None);
            let resumed = run_case_resumed(&case, None);
            match (&straight, &resumed) {
                (CaseOutcome::Pass { steps: a }, CaseOutcome::Pass { steps: b }) => {
                    assert_eq!(a, b, "seed {seed}: step counts differ across the seam");
                }
                _ => panic!("seed {seed}: straight {straight:?}, resumed {resumed:?}"),
            }
        }
    }

    #[test]
    fn resumed_cases_cover_rescheduling_and_prewarm() {
        // The two stateful edges a checkpoint is most likely to lose:
        // dynamic rescheduling epochs and a prewarmed LLC.
        let mut churn = FuzzCase::generate(1);
        churn.num_cores = 16;
        churn.policy = SchedulingPolicy::Random;
        churn.reschedule_every = Some(200);
        churn.refs_per_vm = 500;
        churn.canonicalize();

        let mut warm = FuzzCase::generate(4);
        warm.prewarm_llc = true;
        warm.warmup_refs_per_vm = 0;
        warm.canonicalize();

        for (name, case) in [("churn", churn), ("warm", warm)] {
            let outcome = run_case_resumed(&case, None);
            assert!(
                matches!(outcome, CaseOutcome::Pass { .. }),
                "{name}: {outcome:?}\ncase: {case:?}"
            );
        }
    }

    #[test]
    fn resumed_mode_still_detects_mutations() {
        // The seam must not blind the oracle: a deliberately broken model
        // diverges under the resumed harness too.
        let caught = (0..40).any(|seed| {
            run_case_resumed(&FuzzCase::generate(seed), Some(Mutation::SkipInvalidations))
                .is_failure()
        });
        assert!(caught, "SkipInvalidations was never detected across a seam");
    }

    #[test]
    fn mutations_are_detected() {
        // Each deliberate model bug must surface as a divergence on at
        // least one of a handful of cases (the differential check is
        // symmetric: if a broken model passes, a broken engine would too).
        for mutation in [
            Mutation::SkipInvalidations,
            Mutation::IgnoreOwners,
            Mutation::SkipOwnerDowngrade,
        ] {
            let caught = (0..40)
                .any(|seed| run_case(&FuzzCase::generate(seed), Some(mutation)).is_failure());
            assert!(caught, "{mutation:?} was never detected");
        }
    }

    /// Asserts that `mutation` fails one of the first 20 generated cases
    /// `applies` selects, and that its first failure is a divergence: a
    /// mutated model that panics or fails the engine shows nothing about
    /// the check.
    fn assert_diverges(mutation: Mutation, applies: impl Fn(&FuzzCase) -> bool) {
        let failure = (0..1_000)
            .map(FuzzCase::generate)
            .filter(applies)
            .take(20)
            .map(|case| run_case(&case, Some(mutation)))
            .find(CaseOutcome::is_failure);
        assert!(
            matches!(failure, Some(CaseOutcome::Divergence(_))),
            "{mutation:?}: {failure:?}"
        );
    }

    #[test]
    fn ignore_way_quotas_mutation_is_detected() {
        // Fills through the full mask instead of the VM's ways: static and
        // dynamic partitions under any LLC policy.
        assert_diverges(Mutation::IgnoreWayQuotas, |c| {
            c.llc_partitioning != LlcPartitioning::None
        });
    }

    #[test]
    fn stale_plru_fill_mutation_is_detected() {
        // A fill that leaves the tree pointing at the way it just took
        // can make the next victim the line just filled.
        assert_diverges(Mutation::StalePlruFill, |c| {
            c.llc_replacement == ReplacementPolicy::TreePlru
        });
    }

    #[test]
    fn unmasked_random_victim_mutation_is_detected() {
        // A Random victim drawn over every occupied way can be another
        // VM's line outside the filling VM's mask.
        assert_diverges(Mutation::UnmaskedRandomVictim, |c| {
            c.llc_replacement == ReplacementPolicy::Random
                && c.llc_partitioning != LlcPartitioning::None
        });
    }

    #[test]
    fn fast_path_demotion_mutation_is_detected_on_hit_heavy_streams() {
        // The engine's private-hit fast path must bail out to the upgrade
        // transaction on every write that hits a Shared line; the mutation
        // plants the exact opposite bug in the model. It must surface on
        // the high-locality biased stream — the nearly-all-hits regime
        // where a fast-path misclassification would otherwise hide.
        let caught = (0..40).any(|seed| {
            let mut case = FuzzCase::generate(seed);
            case.bias_high_locality();
            run_case(&case, Some(Mutation::SkipFastPathDemotion)).is_failure()
        });
        assert!(caught, "SkipFastPathDemotion was never detected");
    }
}
