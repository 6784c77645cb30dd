//! Shared, memoizing experiment context for figure regeneration.
//!
//! [`FigureContext`] keeps one memo of simulated cells keyed by
//! (instances, policy, sharing), so `run_all` never re-simulates anything:
//! every figure normalizes against one of a handful of isolation baselines
//! (single-workload cells), and overlapping figures (5/6/7, 8/9/10) read
//! the same mix cells. [`FigureContext::prefetch`] fans every
//! not-yet-cached cell out across the runner's worker pool in one
//! [`ExperimentRunner::run_cells`] batch.
//!
//! The context is `Sync`: the memo is `Mutex`-based and results are handed
//! out as `Arc`s, so regenerators may run from multiple threads.

use consim_job::runner::{ExperimentCell, ExperimentRunner, MixRun, RunOptions};
use consim_sched::SchedulingPolicy;
use consim_types::config::SharingDegree;
use consim_types::SimError;
use consim_workload::WorkloadKind;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// A cache key for one cell.
type Key = (Vec<WorkloadKind>, SchedulingPolicy, String);

fn key_of(instances: &[WorkloadKind], policy: SchedulingPolicy, sharing: SharingDegree) -> Key {
    (instances.to_vec(), policy, sharing.label())
}

/// An [`ExperimentRunner`] plus a memo table, so figures that share cells
/// (e.g. every figure needs the isolation baselines) don't re-simulate
/// them.
///
/// # Examples
///
/// ```
/// use consim_bench::FigureContext;
/// use consim_job::runner::RunOptions;
/// use consim_sched::SchedulingPolicy;
/// use consim_types::config::SharingDegree;
/// use consim_workload::WorkloadKind;
///
/// let ctx = FigureContext::new(RunOptions::quick());
/// let a = ctx.run(&[WorkloadKind::TpcH], SchedulingPolicy::Affinity,
///                 SharingDegree::SharedBy(4)).unwrap();
/// let b = ctx.run(&[WorkloadKind::TpcH], SchedulingPolicy::Affinity,
///                 SharingDegree::SharedBy(4)).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // memoized
/// ```
#[derive(Debug)]
pub struct FigureContext {
    runner: ExperimentRunner,
    memo: Mutex<HashMap<Key, Arc<MixRun>>>,
}

impl FigureContext {
    /// Creates a context with explicit options.
    pub fn new(options: RunOptions) -> Self {
        Self::with_runner(ExperimentRunner::new(options))
    }

    /// Creates a context around an already-configured runner (e.g. one
    /// carrying a trace sink or an explicit audit setting).
    pub fn with_runner(runner: ExperimentRunner) -> Self {
        Self {
            runner,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The options used for figure regeneration: paper-scale runs with warm
    /// caches, overridable via `CONSIM_REFS` / `CONSIM_WARMUP` /
    /// `CONSIM_SEEDS`.
    pub fn figure_options() -> RunOptions {
        RunOptions {
            refs_per_vm: 60_000,
            warmup_refs_per_vm: 150_000,
            seeds: vec![1],
            track_footprint: false,
            prewarm_llc: true,
        }
        .from_env()
    }

    /// The underlying runner.
    pub fn runner(&self) -> &ExperimentRunner {
        &self.runner
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<Key, Arc<MixRun>>> {
        self.memo.lock().expect("figure memo poisoned")
    }

    /// Runs (or recalls) one experiment cell.
    ///
    /// # Errors
    ///
    /// Propagates engine configuration/placement errors.
    pub fn run(
        &self,
        instances: &[WorkloadKind],
        policy: SchedulingPolicy,
        sharing: SharingDegree,
    ) -> Result<Arc<MixRun>, SimError> {
        let key = key_of(instances, policy, sharing);
        if let Some(hit) = self.memo().get(&key) {
            return Ok(Arc::clone(hit));
        }
        let run = Arc::new(self.runner.run(instances, policy, sharing)?);
        self.memo().insert(key, Arc::clone(&run));
        Ok(run)
    }

    /// Simulates every not-yet-cached cell of `cells` in one parallel
    /// [`ExperimentRunner::run_cells`] batch, filling the memo.
    /// Subsequent [`FigureContext::run`] calls on these cells are cache
    /// hits, so figure regeneration after a prefetch does no simulation.
    ///
    /// Duplicate cells in `cells` are collapsed before submission.
    ///
    /// # Errors
    ///
    /// Propagates the first engine configuration/placement error.
    pub fn prefetch(
        &self,
        cells: &[(Vec<WorkloadKind>, SchedulingPolicy, SharingDegree)],
    ) -> Result<(), SimError> {
        let mut pending: Vec<(Key, ExperimentCell)> = Vec::new();
        {
            let memo = self.memo();
            let mut submitted: HashSet<Key> = HashSet::new();
            for (instances, policy, sharing) in cells {
                let key = key_of(instances, *policy, *sharing);
                if !memo.contains_key(&key) && submitted.insert(key.clone()) {
                    let cell = ExperimentCell::of_kinds(instances, *policy, *sharing);
                    pending.push((key, cell));
                }
            }
        }
        if pending.is_empty() {
            return Ok(());
        }
        let (keys, batch): (Vec<Key>, Vec<ExperimentCell>) = pending.into_iter().unzip();
        let runs = self.runner.run_cells(&batch)?;
        self.memo()
            .extend(keys.into_iter().zip(runs.into_iter().map(Arc::new)));
        Ok(())
    }

    /// The paper's normalization baseline: the workload alone on the fully
    /// shared 16 MB LLC.
    ///
    /// # Errors
    ///
    /// Propagates engine configuration/placement errors.
    pub fn baseline(&self, kind: WorkloadKind) -> Result<Arc<MixRun>, SimError> {
        self.run(
            &[kind],
            SchedulingPolicy::Affinity,
            SharingDegree::FullyShared,
        )
    }

    /// Number of memoized cells, baselines included (for tests).
    pub fn cached_cells(&self) -> usize {
        self.memo().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> RunOptions {
        RunOptions {
            refs_per_vm: 500,
            warmup_refs_per_vm: 100,
            seeds: vec![1],
            track_footprint: false,
            prewarm_llc: false,
        }
    }

    #[test]
    fn memoizes_identical_cells() {
        let ctx = FigureContext::new(tiny_options());
        let a = ctx
            .run(
                &[WorkloadKind::TpcH],
                SchedulingPolicy::Affinity,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        assert_eq!(ctx.cached_cells(), 1);
        let b = ctx
            .run(
                &[WorkloadKind::TpcH],
                SchedulingPolicy::Affinity,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.cached_cells(), 1);
        // A different cell is a different run.
        ctx.run(
            &[WorkloadKind::TpcH],
            SchedulingPolicy::RoundRobin,
            SharingDegree::SharedBy(4),
        )
        .unwrap();
        assert_eq!(ctx.cached_cells(), 2);
    }

    #[test]
    fn prefetch_fills_memo_and_matches_serial() {
        let cells = vec![
            (
                vec![WorkloadKind::TpcH],
                SchedulingPolicy::Affinity,
                SharingDegree::FullyShared,
            ),
            (
                vec![WorkloadKind::TpcH; 4],
                SchedulingPolicy::RoundRobin,
                SharingDegree::SharedBy(4),
            ),
            // Duplicate collapses.
            (
                vec![WorkloadKind::TpcH; 4],
                SchedulingPolicy::RoundRobin,
                SharingDegree::SharedBy(4),
            ),
        ];
        let ctx = FigureContext::new(tiny_options());
        ctx.prefetch(&cells).unwrap();
        assert_eq!(ctx.cached_cells(), 2);

        // Prefetched results are identical to serially computed ones.
        let serial_ctx = FigureContext::new(tiny_options());
        let warm = ctx
            .run(
                &cells[1].0,
                SchedulingPolicy::RoundRobin,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        let cold = serial_ctx
            .run(
                &cells[1].0,
                SchedulingPolicy::RoundRobin,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        for (w, c) in warm.vms.iter().zip(cold.vms.iter()) {
            assert_eq!(
                w.runtime_cycles.mean.to_bits(),
                c.runtime_cycles.mean.to_bits()
            );
            assert_eq!(w.miss_latency.mean.to_bits(), c.miss_latency.mean.to_bits());
        }

        // A second prefetch of the same list is a no-op.
        ctx.prefetch(&cells).unwrap();
        assert_eq!(ctx.cached_cells(), 2);
    }

    #[test]
    fn context_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<FigureContext>();
    }
}
