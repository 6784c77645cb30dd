//! Self-test of the benchmark: the traced view's exact counts repeat bit
//! for bit for one seed and change with another, no span outlasts its
//! parent, and the daemon's job plan holds what `serve_open` assumes.

use consim::{RunStatus, Simulation};
use perfbench::engine_shapes::{self, Quotas};
use perfbench::report::{fnv1a, Report};
use perfbench::{campaign, serve_open};
use std::collections::BTreeSet;

/// Small enough that a debug build runs a round in seconds.
const SMALL: Quotas = Quotas {
    warmup: 1_500,
    measured: 1_500,
};

/// The engine metrics that are exact counts (or ratios of them).
fn exact_counts(report: &Report) -> Vec<(String, f64)> {
    report
        .metrics
        .iter()
        .filter(|m| {
            m.name.ends_with(".sim_cycles")
                || ["hierarchy.", "coherence.", "noc.", "qos.", "churn."]
                    .iter()
                    .any(|p| m.name.starts_with(p))
        })
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn engine_counts_repeat_for_a_seed_and_change_with_another() {
    let (a, spans) = engine_shapes::layers(1, SMALL).unwrap();
    let (b, _) = engine_shapes::layers(1, SMALL).unwrap();
    let (c, _) = engine_shapes::layers(2, SMALL).unwrap();
    assert_eq!(a.failed, 0, "audits and digests hold");
    let (a, b, c) = (exact_counts(&a), exact_counts(&b), exact_counts(&c));
    // 5 shapes x 8 counts, plus the QoS and churn totals.
    assert_eq!(a.len(), 5 * 8 + 2);
    assert_eq!(a, b, "exact counts repeat for one seed");
    for name in [
        "engine.shared4.sim_cycles",
        "hierarchy.shared4.l1_misses",
        "noc.shared4.packets",
    ] {
        let value = |v: &[(String, f64)]| v.iter().find(|(n, _)| n == name).unwrap().1;
        assert_ne!(value(&a), value(&c), "{name} moves with the seed");
    }
    spans.check_nesting().unwrap();
    assert!(spans.spans().iter().any(|s| s.name == "engine.qos.advance"));
}

#[test]
fn prewarm_keys_repeat_for_a_seed_and_change_with_another() {
    let keys = |seed| -> BTreeSet<u64> {
        campaign::job_configs(seed)
            .unwrap()
            .iter()
            .map(consim::persist::prewarm_key)
            .collect()
    };
    let (a, b, c) = (keys(1), keys(1), keys(2));
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!(a.len(), c.len(), "the same cells, whatever the seed");
    assert!(
        a.len() < campaign::job_configs(1).unwrap().len(),
        "some jobs share a key"
    );
}

#[test]
fn checkpoint_bytes_repeat_for_a_seed_and_change_with_another() {
    let checkpoint = |seed| {
        let mut sim =
            Simulation::new(engine_shapes::config("shared4", seed, SMALL).unwrap()).unwrap();
        sim.prewarm();
        let mut bytes = Vec::new();
        sim.checkpoint(&mut bytes).unwrap();
        bytes
    };
    let (a, b, c) = (checkpoint(1), checkpoint(1), checkpoint(2));
    assert_eq!(a.len(), b.len());
    assert_eq!(fnv1a(&a), fnv1a(&b));
    assert_ne!(fnv1a(&a), fnv1a(&c));
}

#[test]
fn serve_plan_is_seeded_and_never_repeats_a_job() {
    let digests = |seed| -> Vec<u64> {
        serve_open::plan(seed, 30.0)
            .unwrap()
            .into_iter()
            .map(|j| consim_job::JobSpec::new(0, 0, j.config).digest())
            .collect()
    };
    let (a, b, c) = (digests(1), digests(1), digests(2));
    assert_eq!(a, b);
    assert_ne!(a, c);
    let unique: BTreeSet<u64> = a.iter().copied().collect();
    assert_eq!(
        unique.len(),
        a.len(),
        "the daemon would answer a repeat from its registry"
    );
}

#[test]
fn every_daemon_job_writes_exactly_one_checkpoint() {
    // The daemon runs 2,000-access slices and checkpoints after every
    // slice that leaves the job running.
    const SLICE: u64 = 2_000;
    for seed in 1..=3 {
        for (j, job) in serve_open::plan(seed, 30.0)
            .unwrap()
            .into_iter()
            .enumerate()
        {
            let mut sim = Simulation::new(job.config).unwrap();
            let first = sim.advance(SLICE, None).unwrap();
            let second = sim.advance(SLICE, None).unwrap();
            assert_eq!(
                (first, second),
                (RunStatus::Running, RunStatus::Complete),
                "seed {seed}, job {j}"
            );
        }
    }
}
