//! Automatic shrinking of failing fuzz cases.
//!
//! Given a case whose differential run fails, [`shrink`] repeatedly tries
//! an ordered list of parameter-level reductions — keep a single VM, jump
//! the core count down, cut threads, quotas, footprints, and cache sizes,
//! fall back to an LRU LLC — and accepts the *first* candidate that is
//! strictly smaller (by [`FuzzCase::size`]) and still fails, then restarts
//! from the top of the list. Restarting gives the structurally dominant reductions (VMs,
//! cores) another chance after every acceptance, which avoids the local
//! minimum where a tiny reference quota pins an otherwise shrinkable
//! machine. Strict size decrease bounds the loop.

use crate::cases::FuzzCase;
use crate::diff::run_case;
use crate::model::Mutation;
use consim_cache::ReplacementPolicy;
use consim_types::config::LlcPartitioning;

/// Generates shrink candidates for `case`, most aggressive first. Each is
/// canonicalized and size-checked by the caller.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // Lifecycle churn goes first: a case that still fails with a static
    // population rules the whole birth–death-and-migration machinery out
    // of the repro before anything structural is touched.
    if case.churn.is_some() {
        let mut c = case.clone();
        c.churn = None;
        out.push(c);
    }
    // Keep exactly one VM (each in turn): finds the VM whose sharing
    // pattern actually triggers the failure.
    if case.vms.len() > 1 {
        for i in 0..case.vms.len() {
            let mut c = case.clone();
            c.vms = vec![case.vms[i].clone()];
            out.push(c);
        }
        let mut c = case.clone();
        c.vms.pop();
        out.push(c);
    }
    // Jump the machine straight down, smallest first.
    for target in [1usize, 2, 4, 8, 16, 32] {
        if target < case.num_cores {
            let mut c = case.clone();
            c.num_cores = target;
            out.push(c);
        }
    }
    // Thin threads: all the way to one, or cap at two (keeps sharing).
    if case.vms.iter().any(|v| v.threads > 1) {
        let mut c = case.clone();
        for vm in &mut c.vms {
            vm.threads = 1;
        }
        out.push(c);
    }
    if case.vms.iter().any(|v| v.threads > 2) {
        let mut c = case.clone();
        for vm in &mut c.vms {
            vm.threads = vm.threads.min(2);
        }
        out.push(c);
    }
    // Cut the reference quota, aggressively first.
    for target in [4u64, 16, 64] {
        if target < case.refs_per_vm {
            let mut c = case.clone();
            c.refs_per_vm = target;
            out.push(c);
        }
    }
    if case.refs_per_vm > 1 {
        let mut c = case.clone();
        c.refs_per_vm /= 2;
        out.push(c);
    }
    if case.warmup_refs_per_vm > 0 {
        let mut c = case.clone();
        c.warmup_refs_per_vm = 0;
        out.push(c);
    }
    if case.prewarm_llc {
        let mut c = case.clone();
        c.prewarm_llc = false;
        out.push(c);
    }
    if case.reschedule_every.is_some() {
        let mut c = case.clone();
        c.reschedule_every = None;
        out.push(c);
    }
    // A case that still fails under LRU rules the LLC policy out.
    if case.llc_replacement != ReplacementPolicy::Lru {
        let mut c = case.clone();
        c.llc_replacement = ReplacementPolicy::Lru;
        out.push(c);
    }
    if case.llc_partitioning != LlcPartitioning::None {
        let mut c = case.clone();
        c.llc_partitioning = LlcPartitioning::None;
        out.push(c);
    }
    // A dynamic controller that still fails as the static equal split
    // rules the whole feedback loop out of the repro.
    if matches!(case.llc_partitioning, LlcPartitioning::Dynamic(_)) {
        let mut c = case.clone();
        c.llc_partitioning = LlcPartitioning::EqualWays;
        out.push(c);
    }
    // Halve every footprint (down to the threads+1 floor).
    {
        let mut c = case.clone();
        let mut changed = false;
        for vm in &mut c.vms {
            let floor = vm.threads as u64 + 1;
            let halved = (vm.footprint_blocks / 2).max(floor);
            if halved < vm.footprint_blocks {
                vm.footprint_blocks = halved;
                changed = true;
            }
        }
        if changed {
            out.push(c);
        }
    }
    // Halve every cache dimension toward direct-mapped single-set.
    {
        let mut c = case.clone();
        let mut changed = false;
        for field in [
            &mut c.l0_sets,
            &mut c.l0_ways,
            &mut c.l1_sets,
            &mut c.l1_ways,
            &mut c.llc_bank_sets,
            &mut c.llc_ways,
        ] {
            if *field > 1 {
                *field /= 2;
                changed = true;
            }
        }
        if changed {
            out.push(c);
        }
    }
    out
}

/// Shrinks `case` to a (locally) minimal configuration that still fails
/// under the same `mutation` setting. Returns the input unchanged when no
/// reduction reproduces the failure.
pub fn shrink(case: &FuzzCase, mutation: Option<Mutation>) -> FuzzCase {
    let mut best = case.clone();
    'outer: loop {
        for mut candidate in candidates(&best) {
            candidate.canonicalize();
            if candidate.size() >= best.size() {
                continue;
            }
            if run_case(&candidate, mutation).is_failure() {
                best = candidate;
                continue 'outer;
            }
        }
        return best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::CaseOutcome;
    use crate::model::Mutation;

    /// The mutation check from ISSUE.md: inject a coherence bug (skipped
    /// invalidations) into the model, confirm the differential harness
    /// catches it, and confirm shrinking drives the repro down to a tiny
    /// machine (≤ 4 cores, ≤ 2 VMs).
    #[test]
    fn injected_coherence_bug_is_caught_and_shrinks_small() {
        let mutation = Some(Mutation::SkipInvalidations);
        let failing = (0..60)
            .map(FuzzCase::generate)
            .find(|case| run_case(case, mutation).is_failure())
            .expect("an injected coherence bug must be caught within 60 cases");
        let small = shrink(&failing, mutation);
        assert!(run_case(&small, mutation).is_failure());
        assert!(
            small.num_cores <= 4,
            "shrunk case still has {} cores: {small:?}",
            small.num_cores
        );
        assert!(
            small.vms.len() <= 2,
            "shrunk case still has {} VMs: {small:?}",
            small.vms.len()
        );
        assert!(small.size() <= failing.size());
    }

    /// `mutation`'s first failing generated case among those `applies`
    /// selects shrinks to a strictly smaller case that still diverges and
    /// still has what the mutation needs.
    fn assert_shrinks(mutation: Mutation, applies: impl Fn(&FuzzCase) -> bool) {
        let failing = (0..1_000)
            .map(FuzzCase::generate)
            .filter(|c| applies(c))
            .find(|c| run_case(c, Some(mutation)).is_failure())
            .unwrap_or_else(|| panic!("{mutation:?} was never caught"));
        let small = shrink(&failing, Some(mutation));
        assert!(
            matches!(run_case(&small, Some(mutation)), CaseOutcome::Divergence(_)),
            "{mutation:?}: shrunk case no longer diverges: {small:?}"
        );
        assert!(
            small.size() < failing.size(),
            "{mutation:?}: seed {} did not shrink",
            failing.case_seed
        );
        assert!(applies(&small), "{mutation:?}: {small:?}");
    }

    #[test]
    fn llc_mutations_are_caught_and_shrink() {
        let partitioned = |c: &FuzzCase| c.llc_partitioning != LlcPartitioning::None;
        assert_shrinks(Mutation::IgnoreWayQuotas, partitioned);
        assert_shrinks(Mutation::StalePlruFill, |c| {
            c.llc_replacement == ReplacementPolicy::TreePlru
        });
        assert_shrinks(Mutation::UnmaskedRandomVictim, |c| {
            c.llc_replacement == ReplacementPolicy::Random && partitioned(c)
        });
    }

    #[test]
    fn shrink_returns_passing_case_unchanged() {
        let case = FuzzCase::generate(3);
        assert_eq!(run_case(&case, None), run_case(&case, None));
        if let CaseOutcome::Pass { .. } = run_case(&case, None) {
            let shrunk = shrink(&case, None);
            assert_eq!(shrunk, case);
        }
    }
}
