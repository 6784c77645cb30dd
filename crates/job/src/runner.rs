//! Experiment orchestration: multi-seed runs, isolation baselines, sweeps.
//!
//! The figure regenerators in `consim-bench` are thin loops over this
//! module: [`ExperimentRunner::run`] executes one (mix, policy, sharing)
//! cell across the configured seeds and aggregates per-workload metrics;
//! [`ExperimentRunner::isolated`] produces the isolation baselines every
//! paper figure normalizes against; [`ExperimentRunner::run_cells`]
//! executes a whole batch of cells across the worker pool.
//!
//! The runner is a thin facade over the crate's layers: it expands cells
//! into [`JobSpec`]s, serves them through a [`StaticQueue`] to a
//! [`WorkerPool`], collects completions in a [`CollectingSink`], and
//! aggregates per cell — everything open-ended consumers (a queue fed
//! from a socket, a search loop cancelling dominated candidates) compose
//! differently from the same parts.
//!
//! # Parallelism and determinism
//!
//! Parallelism lives *between* simulations, never inside one. Each
//! `(cell, seed)` pair builds its own [`Simulation`], which derives every
//! random stream from its own root seed — so a simulation's outcome is a
//! pure function of its configuration, independent of which worker runs
//! it or what else runs concurrently. [`ExperimentRunner::run_cells`]
//! therefore returns results bit-identical to serial execution, in
//! submission order. The worker count defaults to
//! [`std::thread::available_parallelism`], clamped by the
//! `CONSIM_THREADS` environment variable or
//! [`ExperimentRunner::with_threads`].

use crate::journal::JobJournal;
use crate::pool::{PoolConfig, WorkerPool};
use crate::queue::StaticQueue;
use crate::sink::{CollectingSink, JobOutput, ResultSink};
use crate::spec::JobSpec;
use consim::engine::{SimulationConfig, SimulationOutcome, TraceConfig};
use consim::stats::Summary;
use consim_sched::SchedulingPolicy;
use consim_trace::{EventClass, TraceEvent, TraceSink};
use consim_types::config::{MachineConfig, SharingDegree};
use consim_types::{SimError, VmId};
use consim_workload::{WorkloadKind, WorkloadProfile};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Run-length and replication options shared by every experiment.
///
/// `Hash` feeds the run manifest's configuration digest
/// (`consim_trace::digest_of`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunOptions {
    /// Measured references per VM.
    pub refs_per_vm: u64,
    /// Warmup references per VM.
    pub warmup_refs_per_vm: u64,
    /// Seeds to run (one simulation per seed; results aggregated).
    pub seeds: Vec<u64>,
    /// Track per-VM footprints (needed only for Table II).
    pub track_footprint: bool,
    /// Pre-fill LLC banks with each workload's hot set before warmup
    /// (checkpoint-style warm start; see
    /// [`consim::engine::SimulationConfig::prewarm_llc`]).
    pub prewarm_llc: bool,
}

impl RunOptions {
    /// Quick settings for tests and smoke benches.
    pub fn quick() -> Self {
        Self {
            refs_per_vm: 8_000,
            warmup_refs_per_vm: 4_000,
            seeds: vec![1],
            track_footprint: false,
            prewarm_llc: false,
        }
    }

    /// Settings for regenerating the paper's figures (minutes per figure).
    pub fn thorough() -> Self {
        Self {
            refs_per_vm: 120_000,
            warmup_refs_per_vm: 60_000,
            seeds: vec![1, 2, 3],
            track_footprint: false,
            prewarm_llc: true,
        }
    }

    /// Reads overrides from the environment:
    /// `CONSIM_REFS`, `CONSIM_WARMUP`, `CONSIM_SEEDS` (count).
    ///
    /// Unset or unparsable variables keep the base values.
    pub fn from_env(self) -> Self {
        self.from_env_with(|key| std::env::var(key).ok())
    }

    /// Like [`RunOptions::from_env`] but with an injectable variable lookup,
    /// so tests can exercise the parsing without mutating process-global
    /// environment state (which races against concurrently running tests).
    pub fn from_env_with(mut self, lookup: impl Fn(&str) -> Option<String>) -> Self {
        let parse = |key: &str| -> Option<u64> { parse_u64_or_warn(key, &lookup(key)?) };
        if let Some(v) = parse("CONSIM_REFS") {
            self.refs_per_vm = v;
        }
        if let Some(v) = parse("CONSIM_WARMUP") {
            self.warmup_refs_per_vm = v;
        }
        if let Some(v) = parse("CONSIM_SEEDS") {
            self.seeds = (1..=v.max(1)).collect();
        }
        self
    }
}

fn env_u64(key: &str) -> Option<u64> {
    parse_u64_or_warn(key, &std::env::var(key).ok()?)
}

/// Parses an environment override, warning on stderr instead of silently
/// falling back when the value is set but malformed (a silently ignored
/// `CONSIM_THREADS=abc` would run the wrong experiment without any
/// diagnostic).
fn parse_u64_or_warn(key: &str, raw: &str) -> Option<u64> {
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!(
                "consim: warning: ignoring {key}={raw:?}: not an unsigned integer; \
                 using the default"
            );
            None
        }
    }
}

/// Clamps a worker-count request of zero to one worker, warning on
/// stderr in the `parse_u64_or_warn` spirit: a silently honored request
/// for zero workers would strand every job in the queue, and silently
/// running serial instead would at least deserve a diagnostic.
fn clamp_worker_request(origin: &str, requested: usize) -> usize {
    if requested == 0 {
        eprintln!(
            "consim: warning: {origin} requested 0 workers; \
             clamping to 1 (a batch cannot run with no workers)"
        );
        1
    } else {
        requested
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            refs_per_vm: 40_000,
            warmup_refs_per_vm: 20_000,
            seeds: vec![1, 2],
            track_footprint: false,
            prewarm_llc: false,
        }
    }
}

/// Aggregated metrics for one VM across seeds.
#[derive(Debug, Clone)]
pub struct VmAggregate {
    /// The workload running in this VM.
    pub kind: WorkloadKind,
    /// Cycles to complete the reference quota.
    pub runtime_cycles: Summary,
    /// Off-chip fraction of LLC-level requests.
    pub llc_miss_rate: Summary,
    /// Mean L1-miss latency (cycles).
    pub miss_latency: Summary,
    /// Worst single L1-miss latency (cycles) — the latency tail, which
    /// lifecycle churn stresses through post-migration re-warming.
    pub miss_latency_max: Summary,
    /// Fraction of L1 misses served cache-to-cache.
    pub c2c_fraction: Summary,
    /// Table II's c2c share: transfers over transfers-plus-memory-fetches.
    pub c2c_of_hierarchy_misses: Summary,
    /// Dirty share of cache-to-cache transfers.
    pub c2c_dirty_fraction: Summary,
    /// Unique blocks touched (zero unless footprint tracking was on).
    pub footprint_blocks: Summary,
    /// Memory fetches per thousand references.
    pub mpkr: Summary,
}

/// Aggregated lifecycle-churn activity of one cell (all-zero summaries
/// when the machine carries no churn policy).
#[derive(Debug, Clone)]
pub struct ChurnAggregate {
    /// VMs spawned through the birth process (initial population excluded).
    pub spawns: Summary,
    /// VMs retired through the death process.
    pub retires: Summary,
    /// Live migrations performed.
    pub migrations: Summary,
    /// Dirty private-cache lines written back by retirement/migration scrubs.
    pub scrub_writebacks: Summary,
}

/// Aggregated results of one (mix, policy, sharing) experiment cell.
#[derive(Debug, Clone)]
pub struct MixRun {
    /// Per-VM aggregates, in VM order.
    pub vms: Vec<VmAggregate>,
    /// Lifecycle-churn activity across the measurement phase.
    pub churn: ChurnAggregate,
    /// LLC replication fraction.
    pub replication: Summary,
    /// Mean per-bank, per-VM occupancy share (seed-averaged).
    pub occupancy: Vec<Vec<f64>>,
    /// Mean interconnect packet latency.
    pub noc_latency: Summary,
    /// Measurement interval length.
    pub measured_cycles: Summary,
}

impl MixRun {
    /// Mean runtime of the VM at `vm`.
    pub fn runtime(&self, vm: VmId) -> f64 {
        self.vms[vm.index()].runtime_cycles.mean
    }

    /// Average of a per-VM statistic over every VM running `kind`.
    pub fn mean_over_kind(&self, kind: WorkloadKind, f: impl Fn(&VmAggregate) -> f64) -> f64 {
        let values: Vec<f64> = self.vms.iter().filter(|v| v.kind == kind).map(f).collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }
}

/// One (profiles, policy, sharing) experiment cell for batch execution.
///
/// A cell is everything that varies between grid points; run length, seeds,
/// and the base machine come from the [`ExperimentRunner`] executing it.
#[derive(Debug, Clone)]
pub struct ExperimentCell {
    /// One workload profile per VM.
    pub profiles: Vec<WorkloadProfile>,
    /// Thread-to-core scheduling policy.
    pub policy: SchedulingPolicy,
    /// LLC sharing degree.
    pub sharing: SharingDegree,
}

impl ExperimentCell {
    /// A cell over explicit profiles.
    pub fn new(
        profiles: Vec<WorkloadProfile>,
        policy: SchedulingPolicy,
        sharing: SharingDegree,
    ) -> Self {
        Self {
            profiles,
            policy,
            sharing,
        }
    }

    /// A cell over built-in workload kinds (one VM per instance).
    pub fn of_kinds(
        instances: &[WorkloadKind],
        policy: SchedulingPolicy,
        sharing: SharingDegree,
    ) -> Self {
        Self::new(
            instances.iter().map(|k| k.profile()).collect(),
            policy,
            sharing,
        )
    }
}

/// Runs experiment cells against a base machine.
///
/// # Examples
///
/// ```
/// use consim_job::runner::{ExperimentRunner, RunOptions};
/// use consim_sched::SchedulingPolicy;
/// use consim_types::config::SharingDegree;
/// use consim_workload::WorkloadKind;
///
/// let runner = ExperimentRunner::new(RunOptions::quick());
/// let run = runner.isolated(
///     WorkloadKind::TpcH,
///     SchedulingPolicy::Affinity,
///     SharingDegree::SharedBy(4),
/// )?;
/// assert!(run.runtime(consim_types::VmId::new(0)) > 0.0);
/// # Ok::<(), consim_types::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    machine: MachineConfig,
    pub(crate) options: RunOptions,
    threads: Option<usize>,
    audit: bool,
    sink: Option<Arc<dyn TraceSink>>,
    journal: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    fault_after: Option<u64>,
}

impl ExperimentRunner {
    /// A runner over the paper's Table III machine.
    pub fn new(options: RunOptions) -> Self {
        Self {
            machine: MachineConfig::paper_default(),
            options,
            threads: None,
            audit: false,
            sink: None,
            journal: None,
            checkpoint_every: None,
            fault_after: None,
        }
    }

    /// A runner over a custom machine.
    pub fn with_machine(machine: MachineConfig, options: RunOptions) -> Self {
        Self {
            machine,
            ..Self::new(options)
        }
    }

    /// Retargets this runner at a different machine, keeping the options,
    /// thread pinning, audit setting, and trace sink. Used for sweeps that
    /// vary the machine itself (e.g. LLC way partitioning) while sharing
    /// one configured runner.
    pub fn on_machine(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Pins the worker-thread count, overriding `CONSIM_THREADS` and the
    /// hardware default. `with_threads(1)` forces serial execution;
    /// `with_threads(0)` is clamped to one worker with a stderr warning.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(clamp_worker_request("with_threads", threads));
        self
    }

    /// Enables the end-of-run counter audit on every simulation this runner
    /// launches. Auditing never changes results — a drift fails the run
    /// with [`SimError::AuditFailed`] instead of publishing skewed figures.
    pub fn with_audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Attaches a trace sink. Every simulation emits its lifecycle, epoch,
    /// and (if the sink's filter accepts them) coherence/stall events into
    /// it, and the runner adds per-cell wall-time and batch worker
    /// utilization events. The sink is shared: worker threads record
    /// concurrently.
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a results journal rooted at `dir`: every completed
    /// `(cell, seed)` job is recorded on disk (atomically), and a later
    /// invocation covering the same jobs loads the records instead of
    /// re-simulating. Records are named by each job's configuration
    /// content digest (see [`JobJournal`]), so a journal can never serve
    /// results for a different experiment, and a *grown* batch keeps
    /// every record the jobs it shares already earned.
    pub fn with_journal(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal = Some(dir.into());
        self
    }

    /// Writes a mid-run checkpoint every `accesses` generator accesses, so
    /// a crash loses at most that much work per in-flight cell. Takes
    /// effect only together with [`ExperimentRunner::with_journal`] (the
    /// checkpoint lives next to the journal records). Checkpointing never
    /// changes results: a resumed run is bit-identical to an uninterrupted
    /// one.
    pub fn with_checkpoint_every(mut self, accesses: u64) -> Self {
        self.checkpoint_every = Some(accesses.max(1));
        self
    }

    /// Fault injection for crash-recovery tests: the batch aborts with an
    /// error once `jobs` jobs have completed (in-flight workers finish and
    /// journal their cells first). Exposed to the CLI as
    /// `CONSIM_FAULT=cell:K`.
    pub fn with_fault_after(mut self, jobs: u64) -> Self {
        self.fault_after = Some(jobs);
        self
    }

    /// Replaces the run options, keeping machine, threads, audit, and sink.
    pub fn with_options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// The options in use.
    pub fn options(&self) -> &RunOptions {
        &self.options
    }

    /// The worker-pool width this runner resolves to: the explicit
    /// [`ExperimentRunner::with_threads`] setting, else `CONSIM_THREADS`
    /// (zero clamped to one), else [`std::thread::available_parallelism`].
    /// Never zero. A batch with fewer jobs starts fewer workers.
    pub fn workers(&self) -> usize {
        self.threads
            .or_else(|| {
                env_u64("CONSIM_THREADS")
                    .map(|v| clamp_worker_request("CONSIM_THREADS", v as usize))
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
    }

    /// Worker threads for a batch of `jobs` simulations:
    /// [`ExperimentRunner::workers`], never more than jobs, never zero.
    fn worker_count(&self, jobs: usize) -> usize {
        self.workers().clamp(1, jobs.max(1))
    }

    /// Runs a mix of built-in workloads.
    ///
    /// # Errors
    ///
    /// Propagates configuration/placement errors from the engine.
    pub fn run(
        &self,
        instances: &[WorkloadKind],
        policy: SchedulingPolicy,
        sharing: SharingDegree,
    ) -> Result<MixRun, SimError> {
        let profiles: Vec<WorkloadProfile> = instances.iter().map(|k| k.profile()).collect();
        self.run_profiles(&profiles, policy, sharing)
    }

    /// Runs a mix of explicit profiles (one per VM), fanning seeds out
    /// across the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates configuration/placement errors from the engine.
    pub fn run_profiles(
        &self,
        profiles: &[WorkloadProfile],
        policy: SchedulingPolicy,
        sharing: SharingDegree,
    ) -> Result<MixRun, SimError> {
        let cell = ExperimentCell::new(profiles.to_vec(), policy, sharing);
        let mut runs = self.run_cells(std::slice::from_ref(&cell))?;
        Ok(runs.pop().expect("one cell in, one aggregate out"))
    }

    /// Runs a batch of experiment cells, each across every configured
    /// seed, on the worker pool. Results come back in submission order
    /// and are bit-identical to serial execution (see the module docs on
    /// determinism).
    ///
    /// # Errors
    ///
    /// Propagates the first configuration/placement error from the engine
    /// (in job order).
    pub fn run_cells(&self, cells: &[ExperimentCell]) -> Result<Vec<MixRun>, SimError> {
        // One job per (cell, seed). Configs are built up front so invalid
        // cells fail deterministically regardless of the worker count.
        let mut specs: Vec<JobSpec> = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            for &seed in &self.options.seeds {
                specs.push(JobSpec::new(specs.len(), ci, self.cell_config(cell, seed)?));
            }
        }
        let cell_of: Vec<usize> = specs.iter().map(JobSpec::cell).collect();
        let jobs = specs.len();
        let workers = self.worker_count(jobs);
        let journal = match &self.journal {
            Some(root) => Some(JobJournal::open(root)?),
            None => None,
        };
        // Runner-class telemetry: per-job wall time plus batch utilization.
        let timing = self
            .sink
            .as_ref()
            .filter(|s| s.wants(EventClass::Runner))
            .map(Arc::clone);
        let sink = Arc::new(CollectingSink::new());
        let batch_start = Instant::now();
        let pool = WorkerPool::start(
            PoolConfig {
                workers,
                time_slice: None,
                max_live: 1,
                checkpoint_every: journal.as_ref().and(self.checkpoint_every),
                fault_after: self.fault_after,
            },
            Arc::new(StaticQueue::new(specs)),
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            journal,
            timing.clone(),
        );
        let report = pool.join();
        if report.faulted {
            return Err(SimError::invariant(format!(
                "fault injected after {} completed jobs; finished cells are journaled",
                report.simulated
            )));
        }
        if let Some(sink) = &timing {
            let wall_seconds = batch_start.elapsed().as_secs_f64();
            let capacity = workers as f64 * wall_seconds;
            sink.record(&TraceEvent::BatchCompleted {
                jobs: jobs as u32,
                workers: workers as u32,
                wall_seconds,
                busy_seconds: report.busy_seconds,
                worker_utilization: if capacity > 0.0 {
                    (report.busy_seconds / capacity).min(1.0)
                } else {
                    0.0
                },
            });
        }

        // Rebuild submission order from the (potentially out-of-order)
        // completions, grouping per cell.
        let mut results = sink.take();
        let mut per_cell: Vec<Vec<SimulationOutcome>> = cells.iter().map(|_| Vec::new()).collect();
        for (ji, &ci) in cell_of.iter().enumerate() {
            match results.remove(&ji).expect("worker pool drained every job") {
                Ok(JobOutput::Completed { outcome, .. }) => per_cell[ci].push(outcome),
                Ok(JobOutput::Cancelled) => {
                    return Err(SimError::invariant(
                        "a batch job was cancelled mid-run; aggregates would be incomplete",
                    ))
                }
                Ok(JobOutput::Abandoned) => {
                    return Err(SimError::invariant(
                        "a batch job was stranded by an early wind-down; aggregates would be incomplete",
                    ))
                }
                Err(e) => return Err(e),
            }
        }
        Ok(cells
            .iter()
            .zip(&per_cell)
            .map(|(cell, outcomes)| self.aggregate(&cell.profiles, outcomes))
            .collect())
    }

    /// Builds the simulation configuration for one (cell, seed) job.
    pub(crate) fn cell_config(
        &self,
        cell: &ExperimentCell,
        seed: u64,
    ) -> Result<SimulationConfig, SimError> {
        let mut b = SimulationConfig::builder();
        b.machine(self.machine.with_sharing(cell.sharing))
            .policy(cell.policy)
            .seed(seed)
            .refs_per_vm(self.options.refs_per_vm)
            .warmup_refs_per_vm(self.options.warmup_refs_per_vm)
            .track_footprint(self.options.track_footprint)
            .prewarm_llc(self.options.prewarm_llc)
            .audit(self.audit);
        if let Some(sink) = &self.sink {
            b.trace(TraceConfig::new(sink.clone()));
        }
        for p in &cell.profiles {
            b.workload(p.clone());
        }
        b.build()
    }

    /// Runs one workload in isolation: four active cores, the rest idle,
    /// the full LLC available (the paper's §V-A setup).
    ///
    /// # Errors
    ///
    /// Propagates configuration/placement errors from the engine.
    pub fn isolated(
        &self,
        kind: WorkloadKind,
        policy: SchedulingPolicy,
        sharing: SharingDegree,
    ) -> Result<MixRun, SimError> {
        self.run(&[kind], policy, sharing)
    }

    /// The paper's normalization baseline: the workload alone with the
    /// fully shared 16 MB LLC.
    ///
    /// # Errors
    ///
    /// Propagates configuration/placement errors from the engine.
    pub fn isolation_baseline(&self, kind: WorkloadKind) -> Result<MixRun, SimError> {
        self.isolated(kind, SchedulingPolicy::Affinity, SharingDegree::FullyShared)
    }

    pub(crate) fn aggregate(
        &self,
        profiles: &[WorkloadProfile],
        outcomes: &[SimulationOutcome],
    ) -> MixRun {
        let num_vms = profiles.len();
        let vms = (0..num_vms)
            .map(|vm| {
                let collect = |f: &dyn Fn(&SimulationOutcome) -> f64| {
                    Summary::of(&outcomes.iter().map(f).collect::<Vec<_>>())
                };
                VmAggregate {
                    kind: profiles[vm].kind,
                    runtime_cycles: collect(&|o| o.vm_metrics[vm].runtime_cycles() as f64),
                    llc_miss_rate: collect(&|o| o.vm_metrics[vm].llc_miss_rate()),
                    miss_latency: collect(&|o| o.vm_metrics[vm].mean_miss_latency()),
                    miss_latency_max: collect(&|o| o.vm_metrics[vm].max_miss_latency()),
                    c2c_fraction: collect(&|o| o.vm_metrics[vm].c2c_fraction()),
                    c2c_of_hierarchy_misses: collect(&|o| {
                        o.vm_metrics[vm].c2c_fraction_of_hierarchy_misses()
                    }),
                    c2c_dirty_fraction: collect(&|o| o.vm_metrics[vm].c2c_dirty_fraction()),
                    footprint_blocks: collect(&|o| o.vm_metrics[vm].footprint_blocks() as f64),
                    mpkr: collect(&|o| o.vm_metrics[vm].mpkr()),
                }
            })
            .collect();
        let replication = Summary::of(
            &outcomes
                .iter()
                .map(|o| o.replication.replicated_fraction())
                .collect::<Vec<_>>(),
        );
        let noc_latency = Summary::of(
            &outcomes
                .iter()
                .map(|o| o.noc.mean_latency())
                .collect::<Vec<_>>(),
        );
        let measured_cycles = Summary::of(
            &outcomes
                .iter()
                .map(|o| o.measured_cycles as f64)
                .collect::<Vec<_>>(),
        );
        let churn_stat = |f: &dyn Fn(&consim::churn::ChurnStats) -> u64| {
            Summary::of(
                &outcomes
                    .iter()
                    .map(|o| o.churn.as_ref().map_or(0.0, |c| f(c) as f64))
                    .collect::<Vec<_>>(),
            )
        };
        let churn = ChurnAggregate {
            spawns: churn_stat(&|c| c.spawns),
            retires: churn_stat(&|c| c.retires),
            migrations: churn_stat(&|c| c.migrations),
            scrub_writebacks: churn_stat(&|c| c.writebacks),
        };
        // Seed-averaged occupancy grid.
        let banks = outcomes
            .first()
            .map(|o| o.occupancy.share.len())
            .unwrap_or(0);
        let occupancy = (0..banks)
            .map(|b| {
                (0..num_vms)
                    .map(|v| {
                        outcomes
                            .iter()
                            .map(|o| o.occupancy.share[b][v])
                            .sum::<f64>()
                            / outcomes.len() as f64
                    })
                    .collect()
            })
            .collect();
        MixRun {
            vms,
            churn,
            replication,
            occupancy,
            noc_latency,
            measured_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consim::engine::{RunStatus, Simulation};
    use consim_workload::WorkloadProfileBuilder;

    fn tiny_runner() -> ExperimentRunner {
        ExperimentRunner::new(RunOptions {
            refs_per_vm: 2_000,
            warmup_refs_per_vm: 500,
            seeds: vec![1, 2],
            track_footprint: false,
            prewarm_llc: false,
        })
    }

    fn tiny_profile(name: &str) -> WorkloadProfile {
        WorkloadProfileBuilder::new(name)
            .footprint_blocks(3_000)
            .build()
            .unwrap()
    }

    #[test]
    fn isolated_run_produces_aggregates() {
        let r = tiny_runner();
        let run = r
            .run_profiles(
                &[tiny_profile("a")],
                SchedulingPolicy::Affinity,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        assert_eq!(run.vms.len(), 1);
        assert_eq!(run.vms[0].runtime_cycles.n, 2);
        assert!(run.vms[0].runtime_cycles.mean > 0.0);
        assert!(run.vms[0].miss_latency.mean > 0.0);
        assert!(run.measured_cycles.mean > 0.0);
    }

    #[test]
    fn mix_run_aggregates_all_vms() {
        let r = tiny_runner();
        let profiles = vec![
            tiny_profile("a"),
            tiny_profile("b"),
            tiny_profile("c"),
            tiny_profile("d"),
        ];
        let run = r
            .run_profiles(
                &profiles,
                SchedulingPolicy::RoundRobin,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        assert_eq!(run.vms.len(), 4);
        assert_eq!(run.occupancy.len(), 4);
        assert_eq!(run.occupancy[0].len(), 4);
        for v in &run.vms {
            assert!(v.llc_miss_rate.mean >= 0.0 && v.llc_miss_rate.mean <= 1.0);
        }
    }

    #[test]
    fn mean_over_kind_averages_instances() {
        let mut run = tiny_runner()
            .run_profiles(
                &[tiny_profile("a"), tiny_profile("b")],
                SchedulingPolicy::Affinity,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        run.vms[0].kind = WorkloadKind::TpcH;
        run.vms[1].kind = WorkloadKind::TpcH;
        let m = run.mean_over_kind(WorkloadKind::TpcH, |v| v.runtime_cycles.mean);
        let expected = (run.vms[0].runtime_cycles.mean + run.vms[1].runtime_cycles.mean) / 2.0;
        assert!((m - expected).abs() < 1e-9);
        assert_eq!(
            run.mean_over_kind(WorkloadKind::TpcW, |v| v.runtime_cycles.mean),
            0.0
        );
    }

    #[test]
    fn options_from_env_parse() {
        // Injected lookup: no process-global env mutation, so this cannot
        // race against other tests running in parallel.
        let vars = |key: &str| match key {
            "CONSIM_REFS" => Some("1234".to_string()),
            "CONSIM_SEEDS" => Some("3".to_string()),
            _ => None,
        };
        let o = RunOptions::quick().from_env_with(vars);
        assert_eq!(o.refs_per_vm, 1234);
        assert_eq!(o.seeds, vec![1, 2, 3]);
    }

    #[test]
    fn options_from_env_ignores_garbage() {
        let vars = |key: &str| match key {
            "CONSIM_REFS" => Some("not-a-number".to_string()),
            "CONSIM_WARMUP" => Some(" 77 ".to_string()),
            _ => None,
        };
        let o = RunOptions::quick().from_env_with(vars);
        assert_eq!(o.refs_per_vm, RunOptions::quick().refs_per_vm);
        assert_eq!(o.warmup_refs_per_vm, 77);
    }

    #[test]
    fn quick_and_thorough_presets() {
        assert!(RunOptions::quick().refs_per_vm < RunOptions::thorough().refs_per_vm);
        assert!(RunOptions::thorough().seeds.len() >= 3);
    }

    #[test]
    fn malformed_env_values_are_rejected_not_misparsed() {
        // `CONSIM_THREADS=abc` must fall back (with a stderr warning, which
        // we can't capture here) rather than being misread as a number.
        assert_eq!(parse_u64_or_warn("CONSIM_THREADS", "abc"), None);
        assert_eq!(parse_u64_or_warn("CONSIM_THREADS", "-4"), None);
        assert_eq!(parse_u64_or_warn("CONSIM_THREADS", "4.5"), None);
        assert_eq!(parse_u64_or_warn("CONSIM_THREADS", ""), None);
        // Valid values (with surrounding whitespace) still parse.
        assert_eq!(parse_u64_or_warn("CONSIM_THREADS", " 8 "), Some(8));
        assert_eq!(parse_u64_or_warn("CONSIM_THREADS", "1"), Some(1));
    }

    #[test]
    fn zero_workers_clamp_to_one_with_a_warning() {
        // The clamp helper itself (the stderr warning can't be captured
        // here, but the clamped value can).
        assert_eq!(clamp_worker_request("with_threads", 0), 1);
        assert_eq!(clamp_worker_request("with_threads", 3), 3);
        // `with_threads(0)` must behave exactly like `with_threads(1)` —
        // serial execution — rather than deadlocking an empty pool.
        let cells = vec![cell("z", SchedulingPolicy::Affinity)];
        let zero = tiny_runner().with_threads(0).run_cells(&cells).unwrap();
        let one = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        assert_eq!(fingerprint(&zero[0]), fingerprint(&one[0]));
        // And the environment route hits the same clamp.
        let r = tiny_runner().with_threads(0);
        assert_eq!(r.workers(), 1);
        assert_eq!(r.worker_count(8), 1);
    }

    #[test]
    fn runner_sink_receives_lifecycle_and_timing_events() {
        use consim_trace::{RingBufferSink, TraceEvent};

        let sink = std::sync::Arc::new(RingBufferSink::new(4_096));
        let runs = tiny_runner()
            .with_threads(2)
            .with_audit(true)
            .with_sink(sink.clone())
            .run_cells(&[
                cell("a", SchedulingPolicy::Affinity),
                cell("b", SchedulingPolicy::RoundRobin),
            ])
            .unwrap();
        assert_eq!(runs.len(), 2);
        let events = sink.snapshot();
        let count = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
        // 2 cells x 2 seeds = 4 simulations.
        assert_eq!(count(&|e| matches!(e, TraceEvent::RunStarted { .. })), 4);
        assert_eq!(count(&|e| matches!(e, TraceEvent::RunCompleted { .. })), 4);
        assert_eq!(count(&|e| matches!(e, TraceEvent::AuditPassed { .. })), 4);
        assert_eq!(count(&|e| matches!(e, TraceEvent::CellCompleted { .. })), 4);
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::BatchCompleted { .. })),
            1
        );
        let batch = events
            .iter()
            .find(|e| matches!(e, TraceEvent::BatchCompleted { .. }))
            .unwrap();
        if let TraceEvent::BatchCompleted {
            jobs,
            workers,
            worker_utilization,
            ..
        } = batch
        {
            assert_eq!(*jobs, 4);
            assert_eq!(*workers, 2);
            assert!((0.0..=1.0).contains(worker_utilization));
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        use consim_trace::RingBufferSink;

        let cells = vec![cell("t", SchedulingPolicy::Affinity)];
        let plain = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        let traced = tiny_runner()
            .with_threads(1)
            .with_audit(true)
            .with_sink(std::sync::Arc::new(RingBufferSink::new(1_024)))
            .run_cells(&cells)
            .unwrap();
        assert_eq!(fingerprint(&plain[0]), fingerprint(&traced[0]));
    }

    fn cell(name: &str, policy: SchedulingPolicy) -> ExperimentCell {
        ExperimentCell::new(vec![tiny_profile(name)], policy, SharingDegree::SharedBy(4))
    }

    /// Per-VM metric fingerprint with exact (bit-level) float comparison.
    fn fingerprint(run: &MixRun) -> Vec<(u64, u64, u64)> {
        run.vms
            .iter()
            .map(|v| {
                (
                    v.runtime_cycles.mean.to_bits(),
                    v.miss_latency.mean.to_bits(),
                    v.llc_miss_rate.mean.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn run_cells_matches_serial_bit_for_bit() {
        let cells = vec![
            cell("a", SchedulingPolicy::Affinity),
            cell("b", SchedulingPolicy::RoundRobin),
            cell("c", SchedulingPolicy::RrAffinity),
        ];
        let serial = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        let parallel = tiny_runner().with_threads(4).run_cells(&cells).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(fingerprint(s), fingerprint(p));
        }
    }

    #[test]
    fn run_cells_preserves_submission_order() {
        // Distinguish cells by VM count: 1, 2, 3 VMs.
        let cells: Vec<ExperimentCell> = (1..=3)
            .map(|n| {
                ExperimentCell::new(
                    (0..n).map(|i| tiny_profile(&format!("vm{i}"))).collect(),
                    SchedulingPolicy::Affinity,
                    SharingDegree::SharedBy(4),
                )
            })
            .collect();
        let runs = tiny_runner().with_threads(3).run_cells(&cells).unwrap();
        let vm_counts: Vec<usize> = runs.iter().map(|r| r.vms.len()).collect();
        assert_eq!(vm_counts, vec![1, 2, 3]);
    }

    #[test]
    fn time_sliced_execution_is_bit_identical() {
        // Drive the same jobs through the pool directly with an
        // aggressively small time slice and interleaving width: slicing
        // is schedule, not semantics.
        use crate::pool::{PoolConfig, WorkerPool};
        use crate::queue::StaticQueue;
        use crate::sink::CollectingSink;

        let runner = tiny_runner();
        let cells = vec![
            cell("a", SchedulingPolicy::Affinity),
            cell("b", SchedulingPolicy::RoundRobin),
        ];
        let reference = runner.clone().with_threads(1).run_cells(&cells).unwrap();
        let mut specs = Vec::new();
        for (ci, c) in cells.iter().enumerate() {
            for &seed in &runner.options.seeds {
                specs.push(JobSpec::new(
                    specs.len(),
                    ci,
                    runner.cell_config(c, seed).unwrap(),
                ));
            }
        }
        let cell_of: Vec<usize> = specs.iter().map(JobSpec::cell).collect();
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 2,
                time_slice: Some(700),
                max_live: 2,
                ..PoolConfig::default()
            },
            Arc::new(StaticQueue::new(specs)),
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            None,
            None,
        );
        let report = pool.join();
        assert!(!report.faulted);
        assert_eq!(report.simulated, 4);
        let mut results = sink.take();
        let mut per_cell: Vec<Vec<SimulationOutcome>> = vec![Vec::new(), Vec::new()];
        for (ji, &ci) in cell_of.iter().enumerate() {
            match results.remove(&ji).unwrap().unwrap() {
                JobOutput::Completed { outcome, .. } => per_cell[ci].push(outcome),
                other => panic!("nothing was cancelled or stranded: {other:?}"),
            }
        }
        for (ci, c) in cells.iter().enumerate() {
            let sliced = runner.aggregate(&c.profiles, &per_cell[ci]);
            assert_eq!(
                fingerprint(&reference[ci]),
                fingerprint(&sliced),
                "time-sliced interleaved execution must be bit-identical"
            );
        }
    }

    #[test]
    fn cancelled_jobs_report_cancelled_without_disturbing_the_rest() {
        use crate::pool::{PoolConfig, WorkerPool};
        use crate::queue::{JobQueue, LiveQueue};
        use crate::sink::CollectingSink;

        let runner = tiny_runner();
        let reference = runner
            .clone()
            .with_threads(1)
            .run_cells(&[cell("a", SchedulingPolicy::Affinity)])
            .unwrap();
        let queue = Arc::new(LiveQueue::new());
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                time_slice: Some(500),
                max_live: 2,
                ..PoolConfig::default()
            },
            Arc::clone(&queue) as Arc<dyn crate::queue::JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            None,
            None,
        );
        // Victim first (cancelled before it can complete — its quota is
        // far beyond what survivors need), then the two real jobs.
        let mut big = runner.options.clone();
        big.refs_per_vm = 1_000_000;
        big.warmup_refs_per_vm = 1_000_000;
        let victim_cfg = ExperimentRunner::new(big)
            .cell_config(&cell("victim", SchedulingPolicy::Affinity), 1)
            .unwrap();
        let victim = queue.push(9, victim_cfg).unwrap();
        for &seed in &runner.options.seeds {
            queue.push(
                0,
                runner
                    .cell_config(&cell("a", SchedulingPolicy::Affinity), seed)
                    .unwrap(),
            );
        }
        pool.cancel(victim);
        queue.close();
        let report = pool.join();
        assert_eq!(report.simulated, 2, "only the surviving jobs simulate");
        let mut results = sink.take();
        assert!(matches!(
            results.remove(&victim),
            Some(Ok(JobOutput::Cancelled))
        ));
        let outcomes: Vec<SimulationOutcome> = (1..=2)
            .map(|ji| match results.remove(&ji).unwrap().unwrap() {
                JobOutput::Completed { outcome, .. } => outcome,
                other => panic!("survivor did not complete: {other:?}"),
            })
            .collect();
        let survivors =
            runner.aggregate(&cell("a", SchedulingPolicy::Affinity).profiles, &outcomes);
        assert_eq!(
            fingerprint(&reference[0]),
            fingerprint(&survivors),
            "a cancelled job must not corrupt the survivors' aggregation"
        );
    }

    #[test]
    fn run_profiles_delegates_to_batch_path() {
        // The single-cell path must produce the same aggregate as run_cells.
        let r = tiny_runner().with_threads(2);
        let via_single = r
            .run_profiles(
                &[tiny_profile("x")],
                SchedulingPolicy::Affinity,
                SharingDegree::SharedBy(4),
            )
            .unwrap();
        let via_batch = &r
            .run_cells(&[cell("x", SchedulingPolicy::Affinity)])
            .unwrap()[0];
        assert_eq!(fingerprint(&via_single), fingerprint(via_batch));
    }

    /// A scratch journal root, removed on drop so test reruns start clean.
    struct ScratchDir(std::path::PathBuf);
    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("consim-job-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }
    impl Drop for ScratchDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn batch_cells() -> Vec<ExperimentCell> {
        vec![
            cell("a", SchedulingPolicy::Affinity),
            cell("b", SchedulingPolicy::RoundRobin),
            cell("c", SchedulingPolicy::RrAffinity),
        ]
    }

    #[test]
    fn journaled_batch_matches_unjournaled_and_resumes_from_records() {
        let scratch = ScratchDir::new("journal");
        let cells = batch_cells();
        let plain = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        let journaled = tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .run_cells(&cells)
            .unwrap();
        for (p, j) in plain.iter().zip(&journaled) {
            assert_eq!(
                fingerprint(p),
                fingerprint(j),
                "journaling must not change results"
            );
        }
        // Second invocation: every job loads from the journal. Prove it by
        // arming the fault injector so that any job that actually simulates
        // (journal loads don't count) aborts the batch.
        let resumed = tiny_runner()
            .with_threads(2)
            .with_journal(scratch.path())
            .with_fault_after(0)
            .run_cells(&cells)
            .unwrap();
        for (p, r) in plain.iter().zip(&resumed) {
            assert_eq!(
                fingerprint(p),
                fingerprint(r),
                "resume must reuse journaled outcomes"
            );
        }
    }

    #[test]
    fn fault_injection_aborts_but_journals_completed_cells() {
        let scratch = ScratchDir::new("fault");
        let cells = batch_cells();
        let err = tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .with_fault_after(2)
            .run_cells(&cells)
            .unwrap_err();
        assert!(err.to_string().contains("fault injected"), "{err}");
        let records = std::fs::read_dir(scratch.path())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "bin")
            })
            .count();
        assert_eq!(records, 2, "exactly the completed jobs are journaled");
        // Recovery: the same batch without the fault finishes the rest and
        // matches an uninterrupted run bit for bit.
        let plain = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        let recovered = tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .run_cells(&cells)
            .unwrap();
        for (p, r) in plain.iter().zip(&recovered) {
            assert_eq!(fingerprint(p), fingerprint(r));
        }
    }

    #[test]
    fn grown_batch_reuses_per_job_records() {
        // The per-job content digest replaces the old whole-batch digest:
        // growing the batch must keep every record the shared jobs earned
        // (the old scheme started a fresh directory and re-ran everything).
        use consim_trace::{RingBufferSink, TraceEvent};

        let scratch = ScratchDir::new("grow");
        let cells = batch_cells();
        tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .run_cells(&cells[..1])
            .unwrap();
        let sink = std::sync::Arc::new(RingBufferSink::new(4_096));
        let grown = tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .with_sink(sink.clone())
            .run_cells(&cells)
            .unwrap();
        // Only the 2 cells x 2 seeds that were never journaled simulate
        // (journal loads emit no CellCompleted event).
        let simulated = sink
            .snapshot()
            .iter()
            .filter(|e| matches!(e, TraceEvent::CellCompleted { .. }))
            .count();
        assert_eq!(simulated, 4, "the grown batch re-runs only the new jobs");
        let plain = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        for (p, g) in plain.iter().zip(&grown) {
            assert_eq!(fingerprint(p), fingerprint(g));
        }
    }

    #[test]
    fn resumed_queue_reruns_exactly_the_missing_jobs() {
        use consim_trace::{RingBufferSink, TraceEvent};

        let scratch = ScratchDir::new("missing");
        let cells = batch_cells();
        tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .run_cells(&cells)
            .unwrap();
        // Lose one record (pick deterministically: the lexicographically
        // first), then resume: exactly that job re-simulates.
        let mut records: Vec<std::path::PathBuf> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "bin"))
            .collect();
        records.sort();
        assert_eq!(records.len(), 6, "3 cells x 2 seeds");
        std::fs::remove_file(&records[0]).unwrap();
        let sink = std::sync::Arc::new(RingBufferSink::new(4_096));
        let plain = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        let resumed = tiny_runner()
            .with_threads(2)
            .with_journal(scratch.path())
            .with_sink(sink.clone())
            .run_cells(&cells)
            .unwrap();
        let simulated = sink
            .snapshot()
            .iter()
            .filter(|e| matches!(e, TraceEvent::CellCompleted { .. }))
            .count();
        assert_eq!(simulated, 1, "exactly the missing job re-simulates");
        for (p, r) in plain.iter().zip(&resumed) {
            assert_eq!(fingerprint(p), fingerprint(r));
        }
    }

    #[test]
    fn torn_temporaries_are_swept_on_resume() {
        let scratch = ScratchDir::new("torn");
        let cells = batch_cells();
        let plain = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        // A crashed writer leaves half-written temporaries behind; they
        // must be ignored (never parsed) and cleaned up on the next open.
        let torn = [
            scratch.path().join("job-00000000000000ab.bin.tmp3"),
            scratch.path().join("job-00000000000000ab.ckpt.tmp4"),
        ];
        for t in &torn {
            std::fs::write(t, b"\xde\xad half-written garbage").unwrap();
        }
        let resumed = tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .run_cells(&cells)
            .unwrap();
        for t in &torn {
            assert!(!t.exists(), "torn temporary {t:?} must be swept");
        }
        for (p, r) in plain.iter().zip(&resumed) {
            assert_eq!(fingerprint(p), fingerprint(r));
        }
    }

    #[test]
    fn truncated_record_is_a_typed_error_naming_the_path() {
        let scratch = ScratchDir::new("trunc");
        let cells = batch_cells();
        tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .run_cells(&cells)
            .unwrap();
        let mut records: Vec<std::path::PathBuf> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "bin"))
            .collect();
        records.sort();
        let victim = &records[2];
        let bytes = std::fs::read(victim).unwrap();
        std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();
        let err = tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .run_cells(&cells)
            .unwrap_err();
        assert!(
            matches!(err, SimError::Snapshot(..)),
            "truncation must surface as a typed snapshot error, got {err:?}"
        );
        assert!(
            err.to_string().contains(&victim.display().to_string()),
            "the error must name the record to delete: {err}"
        );
    }

    #[test]
    fn mid_cell_checkpoints_resume_bit_identically() {
        let scratch = ScratchDir::new("ckpt");
        let cells = vec![cell("k", SchedulingPolicy::Affinity)];
        let plain = tiny_runner().with_threads(1).run_cells(&cells).unwrap();
        let checkpointed = tiny_runner()
            .with_threads(1)
            .with_journal(scratch.path())
            .with_checkpoint_every(700)
            .run_cells(&cells)
            .unwrap();
        assert_eq!(fingerprint(&plain[0]), fingerprint(&checkpointed[0]));
        // Now simulate a crash mid-cell: manufacture the exact on-disk
        // state the crashed invocation leaves behind (a .ckpt, no .bin)
        // and let the runner resume it to completion.
        let runner = tiny_runner().with_threads(1);
        let journal = JobJournal::open(scratch.path()).unwrap();
        for &seed in &runner.options.seeds {
            let spec = JobSpec::new(0, 0, runner.cell_config(&cells[0], seed).unwrap());
            std::fs::remove_file(journal.outcome_path(&spec)).ok();
            let mut sim = Simulation::new(spec.config().clone()).unwrap();
            assert_eq!(sim.advance(1_500, None).unwrap(), RunStatus::Running);
            journal.store_checkpoint(&spec, &sim).unwrap();
        }
        let resumed = runner
            .with_journal(scratch.path())
            .run_cells(&cells)
            .unwrap();
        assert_eq!(
            fingerprint(&plain[0]),
            fingerprint(&resumed[0]),
            "a run resumed from a mid-cell checkpoint must be bit-identical"
        );
    }

    #[test]
    fn prewarmed_cells_are_bit_identical_to_direct_runs() {
        let options = RunOptions {
            refs_per_vm: 1_500,
            warmup_refs_per_vm: 300,
            seeds: vec![1, 2],
            track_footprint: false,
            prewarm_llc: true,
        };
        let cells = vec![
            cell("p", SchedulingPolicy::Affinity),
            cell("q", SchedulingPolicy::Affinity),
        ];
        let runner = ExperimentRunner::new(options).with_threads(1);
        let pooled = runner.run_cells(&cells).unwrap();
        for (c, run) in cells.iter().zip(&pooled) {
            let outcomes: Vec<_> = runner
                .options
                .seeds
                .iter()
                .map(|&s| {
                    let cfg = runner.cell_config(c, s).unwrap();
                    Simulation::new(cfg).unwrap().run().unwrap()
                })
                .collect();
            assert_eq!(
                fingerprint(run),
                fingerprint(&runner.aggregate(&c.profiles, &outcomes)),
                "prewarming through the pool must not change results"
            );
        }
    }

    #[test]
    fn invalid_cell_reports_error_not_panic() {
        // 17 VMs on a 16-core machine cannot be placed.
        let too_many = ExperimentCell::new(
            (0..17).map(|i| tiny_profile(&format!("vm{i}"))).collect(),
            SchedulingPolicy::Affinity,
            SharingDegree::SharedBy(4),
        );
        assert!(tiny_runner().run_cells(&[too_many]).is_err());
    }
}
