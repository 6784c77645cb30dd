//! The discrete-event consolidation simulator.
//!
//! One [`Simulation`] models one experimental run: a machine configuration,
//! a scheduling policy, and a list of workload instances (VMs). In-order
//! cores alternate compute gaps and memory references; every reference
//! walks the hierarchy L0 → L1 → directory → {remote L1 (cache-to-cache),
//! LLC bank, remote LLC bank, memory}, with each protocol message routed —
//! and contended — on the mesh.
//!
//! ## Timing model
//!
//! Events are (ready-cycle, core) pairs in a binary heap; cores have one
//! outstanding miss each (matching the paper's in-order Niagara-like cores),
//! so a core's next event is scheduled at its previous access's completion.
//! Protocol state (caches, directory) is updated when the transaction is
//! processed; concurrent transactions to the same block are serialized in
//! event order. This transaction-level approximation preserves the paper's
//! measured quantities (miss classification, latency composition,
//! contention) without flit-level cost — see DESIGN.md §1.
//!
//! ## Protocol walk of one L1 miss
//!
//! 1. Control packet to the block's home directory node (striped by block
//!    address); directory-cache miss adds one off-chip latency.
//! 2. Directory classifies the request ([`consim_coherence::Directory`]):
//!    * dirty in a remote L1 → 3-hop forward, dirty cache-to-cache transfer
//!      (plus a sharing writeback to the memory controller, off the
//!      critical path);
//!    * clean in remote L1s → clean transfer from the *nearest* sharer;
//!    * otherwise → the requester's own LLC bank; on a bank miss, the
//!      nearest *other* bank holding the block serves it (and the local
//!      bank is filled — replication); on a global LLC miss, memory.
//! 3. Writes additionally invalidate every other sharer and wait for the
//!    slowest acknowledgement.
//! 4. Fills may evict: dirty L1 victims write back into the local LLC bank;
//!    dirty LLC victims write back to memory.
//!
//! ## Module layout
//!
//! This file holds the configuration, the event loop with its one boundary
//! handler, and the access path. `engine/checkpoint.rs` holds checkpoint
//! and resume; `engine/lifecycle.rs` holds the churn boundary and the VM
//! spawn, retire and migrate actions.

mod checkpoint;
mod lifecycle;

use crate::churn::{ChurnState, ChurnStats};
use crate::hierarchy::HierarchyCtx;
use crate::machine::Layout;
use crate::metrics::{OccupancySnapshot, ReplicationSnapshot, VmMetrics};
use crate::observe::{AccessStep, StepObserver, StepOutcome};
use crate::qos::QosController;
use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
use consim_coherence::{AccessKind, Directory, DirectoryCache, ProtocolStats};
use consim_noc::{ContentionModel, NocStats, ReservationCalendar};
use consim_sched::{place, Placement, SchedulingPolicy};
use consim_trace::{EventClass, TraceEvent, TraceSink};
use consim_types::config::{LlcPartitioning, MachineConfig, MAX_CORES};
use consim_types::{BankId, BlockAddr, CoreId, Cycle, GlobalThreadId, SimError, SimRng, VmId};
use consim_workload::{MemRef, WorkloadGenerator, WorkloadProfile};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// How a simulation reports trace events.
///
/// Construct with [`TraceConfig::new`] and adjust the knobs; attach via
/// [`SimulationConfigBuilder::trace`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Destination for every event the simulation emits.
    pub sink: Arc<dyn TraceSink>,
    /// Cycle interval between time-series snapshots ([`TraceEvent::Epoch`],
    /// [`TraceEvent::EpochMachine`]) during measurement.
    pub epoch_cycles: u64,
    /// Record every Nth directory protocol action as a
    /// [`TraceEvent::Coherence`] event (volume control for the per-miss hot
    /// path).
    pub coherence_sample: u64,
}

impl TraceConfig {
    /// A configuration with the default epoch interval (100k cycles) and
    /// coherence sampling rate (1 in 64).
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self {
            sink,
            epoch_cycles: 100_000,
            coherence_sample: 64,
        }
    }
}

/// Everything needed to run one simulation.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// The hardware.
    pub machine: MachineConfig,
    /// Thread-to-core policy.
    pub policy: SchedulingPolicy,
    /// One profile per VM, in VM order.
    pub workloads: Vec<WorkloadProfile>,
    /// Root seed; all randomness derives from it.
    pub seed: u64,
    /// Measured references per VM (the transaction quota).
    pub refs_per_vm: u64,
    /// Warmup references per VM before measurement starts.
    pub warmup_refs_per_vm: u64,
    /// Whether to track unique blocks per VM (Table II footprints).
    pub track_footprint: bool,
    /// Replacement policy of the LLC banks (the paper's machine uses
    /// vanilla LRU; the others support the DESIGN.md ablation study).
    pub llc_replacement: ReplacementPolicy,
    /// Pre-fill the LLC banks with each workload's hottest blocks before
    /// warmup, mimicking the paper's warmed checkpoints. Shortens the
    /// warmup needed to reach steady state.
    pub prewarm_llc: bool,
    /// Re-place threads onto cores every this many cycles (the paper's
    /// future-work "dynamically adjusting assignments in response to
    /// context switches"). `None` (the default) matches the paper's static
    /// binding. Each epoch re-runs the scheduling policy with a fresh
    /// random stream, so migrating threads abandon their warm caches.
    pub reschedule_every: Option<u64>,
    /// Cross-check the redundant counter paths at end of run and fail with
    /// [`SimError::AuditFailed`] on drift (see [`crate::audit`]). The audit
    /// also always runs in debug builds; it never changes results.
    pub audit: bool,
    /// Optional observability sink and its volume knobs. `None` (the
    /// default) emits nothing and costs one branch per check site.
    pub trace: Option<TraceConfig>,
}

impl SimulationConfig {
    /// Starts building a configuration.
    pub fn builder() -> SimulationConfigBuilder {
        SimulationConfigBuilder::new()
    }
}

/// Builder for [`SimulationConfig`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct SimulationConfigBuilder {
    machine: MachineConfig,
    policy: SchedulingPolicy,
    workloads: Vec<WorkloadProfile>,
    seed: u64,
    refs_per_vm: u64,
    warmup_refs_per_vm: u64,
    track_footprint: bool,
    llc_replacement: ReplacementPolicy,
    prewarm_llc: bool,
    reschedule_every: Option<u64>,
    audit: bool,
    trace: Option<TraceConfig>,
}

impl SimulationConfigBuilder {
    /// Starts from the paper's machine, affinity policy, no workloads.
    pub fn new() -> Self {
        Self {
            machine: MachineConfig::paper_default(),
            policy: SchedulingPolicy::Affinity,
            workloads: Vec::new(),
            seed: 0,
            refs_per_vm: 100_000,
            warmup_refs_per_vm: 50_000,
            track_footprint: false,
            llc_replacement: ReplacementPolicy::Lru,
            prewarm_llc: false,
            reschedule_every: None,
            audit: false,
            trace: None,
        }
    }

    /// Sets the machine.
    pub fn machine(&mut self, machine: MachineConfig) -> &mut Self {
        self.machine = machine;
        self
    }

    /// Sets the scheduling policy.
    pub fn policy(&mut self, policy: SchedulingPolicy) -> &mut Self {
        self.policy = policy;
        self
    }

    /// Adds one workload instance (VM).
    pub fn workload(&mut self, profile: WorkloadProfile) -> &mut Self {
        self.workloads.push(profile);
        self
    }

    /// Adds `count` instances of the same profile.
    pub fn workload_instances(&mut self, profile: &WorkloadProfile, count: usize) -> &mut Self {
        for _ in 0..count {
            self.workloads.push(profile.clone());
        }
        self
    }

    /// Sets the root seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the measured reference quota per VM.
    pub fn refs_per_vm(&mut self, refs: u64) -> &mut Self {
        self.refs_per_vm = refs;
        self
    }

    /// Sets the warmup reference quota per VM.
    pub fn warmup_refs_per_vm(&mut self, refs: u64) -> &mut Self {
        self.warmup_refs_per_vm = refs;
        self
    }

    /// Enables or disables footprint tracking.
    pub fn track_footprint(&mut self, on: bool) -> &mut Self {
        self.track_footprint = on;
        self
    }

    /// Sets the LLC banks' replacement policy (ablation knob; the paper's
    /// machine uses LRU).
    pub fn llc_replacement(&mut self, policy: ReplacementPolicy) -> &mut Self {
        self.llc_replacement = policy;
        self
    }

    /// Enables checkpoint-style LLC prewarming (see
    /// [`SimulationConfig::prewarm_llc`]).
    pub fn prewarm_llc(&mut self, on: bool) -> &mut Self {
        self.prewarm_llc = on;
        self
    }

    /// Enables periodic dynamic rescheduling (see
    /// [`SimulationConfig::reschedule_every`]).
    pub fn reschedule_every(&mut self, cycles: u64) -> &mut Self {
        self.reschedule_every = Some(cycles);
        self
    }

    /// Enables the end-of-run counter audit (see
    /// [`SimulationConfig::audit`]).
    pub fn audit(&mut self, on: bool) -> &mut Self {
        self.audit = on;
        self
    }

    /// Attaches a trace configuration (see [`SimulationConfig::trace`]).
    pub fn trace(&mut self, trace: TraceConfig) -> &mut Self {
        self.trace = Some(trace);
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if no workloads were added, a
    /// profile is invalid, the quota is zero, the mix oversubscribes the
    /// machine, the machine has more than [`MAX_CORES`] cores (a machine
    /// built by struct literal skips its own builder's check), or the LLC
    /// is tree-PLRU with a way count that is not a power of two.
    pub fn build(&self) -> Result<SimulationConfig, SimError> {
        if self.machine.num_cores > MAX_CORES {
            return Err(SimError::invalid_config(format!(
                "{} cores exceed the {MAX_CORES}-core limit",
                self.machine.num_cores
            )));
        }
        let llc_ways = self.machine.llc.associativity;
        if self.llc_replacement == ReplacementPolicy::TreePlru && !llc_ways.is_power_of_two() {
            return Err(SimError::invalid_config(format!(
                "tree-PLRU needs a power-of-two LLC associativity, got {llc_ways} ways"
            )));
        }
        if self.workloads.is_empty() {
            return Err(SimError::invalid_config(
                "at least one workload is required",
            ));
        }
        if self.refs_per_vm == 0 {
            return Err(SimError::invalid_config("refs_per_vm must be nonzero"));
        }
        for w in &self.workloads {
            w.validate()?;
        }
        if self.reschedule_every == Some(0) {
            return Err(SimError::invalid_config(
                "reschedule interval must be nonzero",
            ));
        }
        if let Some(churn) = &self.machine.churn {
            // `MachineConfig::with_churn` bypasses the machine builder, so
            // the policy's machine-independent invariants are re-checked
            // here along with everything that needs the VM count.
            churn.validate()?;
            let n = self.workloads.len();
            if churn.arrival_permille.len() != n || churn.departure_permille.len() != n {
                return Err(SimError::invalid_config(format!(
                    "churn rate vectors cover {} arrival / {} departure VMs, the mix has {n}",
                    churn.arrival_permille.len(),
                    churn.departure_permille.len(),
                )));
            }
            if churn.initial_active > n {
                return Err(SimError::invalid_config(format!(
                    "churn initial_active {} exceeds the {n}-VM mix",
                    churn.initial_active
                )));
            }
            if churn.min_active > n {
                return Err(SimError::invalid_config(format!(
                    "churn min_active {} exceeds the {n}-VM mix",
                    churn.min_active
                )));
            }
            if n == 1 && churn.departure_permille[0] > 0 {
                return Err(SimError::invalid_config(
                    "churn cannot schedule the departure of the last VM of a single-VM mix",
                ));
            }
            if let Some(targets) = &churn.migration_targets {
                if let Some(&bad) = targets.iter().find(|&&t| t >= self.machine.num_cores) {
                    return Err(SimError::invalid_config(format!(
                        "churn migration target core {bad} is outside the {}-core machine",
                        self.machine.num_cores
                    )));
                }
            }
            if self.reschedule_every.is_some() {
                return Err(SimError::invalid_config(
                    "churn and periodic rescheduling cannot be combined: both \
                     rebind threads to cores and their placements would race",
                ));
            }
        }
        let threads: usize = self.workloads.iter().map(|w| w.threads).sum();
        if threads > self.machine.num_cores {
            return Err(SimError::invalid_config(format!(
                "{threads} threads oversubscribe {} cores",
                self.machine.num_cores
            )));
        }
        // Way partitioning is only fully checkable once the VM count is
        // known: quota entries must match the VM list one-to-one and every
        // VM needs at least one way. (Bank associativity equals the
        // aggregate LLC associativity — banking splits sets, not ways.)
        self.machine
            .llc_partitioning
            .way_masks(self.machine.llc.associativity, self.workloads.len())?;
        Ok(SimulationConfig {
            machine: self.machine.clone(),
            policy: self.policy,
            workloads: self.workloads.clone(),
            seed: self.seed,
            refs_per_vm: self.refs_per_vm,
            warmup_refs_per_vm: self.warmup_refs_per_vm,
            track_footprint: self.track_footprint,
            llc_replacement: self.llc_replacement,
            prewarm_llc: self.prewarm_llc,
            reschedule_every: self.reschedule_every,
            audit: self.audit,
            trace: self.trace.clone(),
        })
    }
}

impl Default for SimulationConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Per-VM metrics over the measurement interval.
    pub vm_metrics: Vec<VmMetrics>,
    /// LLC replication snapshot at measurement end (Fig. 12).
    pub replication: ReplicationSnapshot,
    /// LLC occupancy snapshot at measurement end (Fig. 13).
    pub occupancy: OccupancySnapshot,
    /// Interconnect statistics over the measurement interval.
    pub noc: NocStats,
    /// Directory protocol statistics over the measurement interval.
    pub protocol: ProtocolStats,
    /// The placement used.
    pub placement: Placement,
    /// Cycles from measurement start until the last VM completed.
    pub measured_cycles: u64,
    /// Mean directory-cache hit rate across home nodes.
    pub dircache_hit_rate: f64,
    /// Mean utilization across mesh links over the measurement interval.
    pub noc_mean_utilization: f64,
    /// Utilization of the busiest mesh link.
    pub noc_peak_utilization: f64,
    /// Lifecycle counters over the measurement interval, present iff the
    /// machine carries a [`consim_types::ChurnPolicy`].
    pub churn: Option<ChurnStats>,
}

/// Whether [`Simulation::advance`] left the run mid-flight or finished it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The access budget ran out before measurement completed; call
    /// [`Simulation::advance`] again (optionally after a
    /// [`Simulation::checkpoint`]).
    Running,
    /// Every VM met its measured quota; call [`Simulation::finish`].
    Complete,
}

/// Which phase of the run the engine is executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseKind {
    /// Cache-warming references; statistics are discarded at the end.
    Warmup,
    /// The measured interval.
    Measure,
}

/// References prefetched per thread in one generator call. Large enough to
/// amortize the per-call dispatch, small enough that the engine never holds
/// more than a scheduling quantum of lookahead per thread.
const REF_BATCH: usize = 64;

/// One thread's prefetched references (see
/// [`WorkloadGenerator::fill_batch`]): a refill buffer plus the cursor of
/// the next reference to issue. The generator's RNG stream has advanced
/// past everything in here, so checkpoints serialize the unissued tail.
#[derive(Debug, Default)]
struct RefBatch {
    refs: Vec<MemRef>,
    cursor: usize,
}

/// The event loop's mutable position within a run. Everything here is
/// serialized verbatim into checkpoints, so a resumed run re-enters the loop
/// with bit-identical state.
///
/// Every mid-run boundary is a cycle stamp here, set when the phase starts
/// and `u64::MAX` while its mechanism is off; the loop compares each event
/// against the earliest of them ([`RunState::next_boundary`]).
#[derive(Debug)]
struct RunState {
    phase: PhaseKind,
    /// Cycle at which this phase started.
    start: Cycle,
    /// References issued per VM this phase (quota progress).
    vm_refs: Vec<u64>,
    /// Whether each VM has met its quota.
    vm_done: Vec<bool>,
    /// VMs still short of quota.
    remaining: usize,
    /// Pending (ready-cycle, core) issue events. Keys are unique per core,
    /// so serializing the heap sorted and rebuilding it on restore
    /// reproduces the exact pop order.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Completion cycle of the latest quota-meeting reference.
    last_completion: Cycle,
    /// Next dynamic-rescheduling boundary (`u64::MAX` when
    /// `reschedule_every` is off; both phases reschedule).
    next_resched: u64,
    /// Next epoch-snapshot boundary (`u64::MAX` outside the measurement
    /// phase or when no trace sink is attached).
    next_epoch: u64,
    /// Next dynamic-QoS repartition boundary (`u64::MAX` outside the
    /// measurement phase or when the machine is not
    /// `LlcPartitioning::Dynamic`).
    next_repart: u64,
    /// Next VM-churn boundary (`u64::MAX` outside the measurement phase or
    /// when the machine carries no churn policy).
    next_churn: u64,
    /// Measurement finished; only [`Simulation::finish`] remains.
    done: bool,
}

impl RunState {
    /// The earliest boundary stamp. Not checkpointed: the loop keeps it in
    /// a local and recomputes it after every boundary.
    fn next_boundary(&self) -> u64 {
        self.next_epoch
            .min(self.next_repart)
            .min(self.next_churn)
            .min(self.next_resched)
    }
}

/// One experimental run of the consolidation machine.
///
/// See the [module docs](self) for the timing model; see
/// [`SimulationConfig`] for the knobs.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
    layout: Layout,
    placement: Placement,
    /// `core_thread[core]` = the thread bound there, if any.
    core_thread: Vec<Option<GlobalThreadId>>,
    l0: Vec<SetAssocCache>,
    l1: Vec<SetAssocCache>,
    llc: Vec<SetAssocCache>,
    directory: Directory,
    dircaches: Vec<DirectoryCache>,
    noc: ContentionModel,
    /// One service calendar per memory controller (bandwidth model).
    memory_controllers: Vec<ReservationCalendar>,
    generators: Vec<WorkloadGenerator>,
    /// First batch slot of each VM's threads (prefix sums of thread
    /// counts); slot = `thread_base[vm] + thread_index`.
    thread_base: Vec<usize>,
    /// Per-global-thread prefetched reference batches. Keyed by thread —
    /// not core — so dynamic rescheduling migrates a thread's lookahead
    /// with it.
    batches: Vec<RefBatch>,
    gap_rngs: Vec<SimRng>,
    metrics: Vec<VmMetrics>,
    /// Per-VM allowed-way bitmasks for LLC allocation, when
    /// [`consim_types::config::LlcPartitioning`] is active. Under
    /// `LlcPartitioning::Dynamic` these are live state: the QoS controller
    /// rewrites them at repartition boundaries and every subsequent fill
    /// reads the new masks.
    llc_way_masks: Option<Vec<u64>>,
    /// The dynamic repartitioning controller, present iff the machine is
    /// configured with `LlcPartitioning::Dynamic`.
    qos: Option<QosController>,
    /// The VM lifecycle state machine, present iff the machine carries a
    /// [`consim_types::ChurnPolicy`]. Under churn, `core_thread` and
    /// `placement` are live state rewritten at churn boundaries.
    churn: Option<ChurnState>,
    /// Epoch counter for dynamic rescheduling.
    resched_epoch: u64,
    /// In-flight event-loop state; `None` before the first
    /// [`Simulation::advance`] call.
    run_state: Option<RunState>,
    /// The LLC prewarm pass has run (or was skipped); guards against
    /// double-prewarming on resume.
    prewarmed: bool,
}

impl Simulation {
    /// Builds the machine and places the mix.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the layout or placement fails.
    pub fn new(config: SimulationConfig) -> Result<Self, SimError> {
        let machine = &config.machine;
        let layout = Layout::new(machine)?;
        let root = SimRng::from_seed(config.seed);
        let vm_threads: Vec<usize> = config.workloads.iter().map(|w| w.threads).collect();
        let placement = place(config.policy, machine, &vm_threads, &root)?;

        // Under a churn policy the initial placement still covers every VM
        // (spawn feasibility: Σ threads ≤ cores), but only the initial
        // population is actually bound; the rest arrive through the birth
        // process onto whatever cores are free then.
        let churn = machine
            .churn
            .as_ref()
            .map(|policy| ChurnState::new(policy.clone(), config.workloads.len()));
        let mut core_thread = vec![None; machine.num_cores];
        for (thread, core) in placement.iter() {
            if churn
                .as_ref()
                .is_none_or(|ch| ch.is_active(thread.vm.index()))
            {
                core_thread[core.index()] = Some(thread);
            }
        }

        let l0 = (0..machine.num_cores)
            .map(|_| SetAssocCache::new(machine.l0, ReplacementPolicy::Lru))
            .collect();
        let l1 = (0..machine.num_cores)
            .map(|_| SetAssocCache::new(machine.l1, ReplacementPolicy::Lru))
            .collect();
        let bank_geom = machine.llc_bank_geometry();
        let llc = (0..machine.llc_banks())
            .map(|_| SetAssocCache::new(bank_geom, config.llc_replacement))
            .collect();
        let llc_way_masks = machine
            .llc_partitioning
            .way_masks(bank_geom.associativity, config.workloads.len())?;
        let qos = match &machine.llc_partitioning {
            LlcPartitioning::Dynamic(policy) => Some(QosController::new(
                policy.clone(),
                bank_geom.associativity,
                config.workloads.len(),
                (machine.llc_banks() * bank_geom.num_lines()) as u64,
            )),
            _ => None,
        };
        let mut directory = Directory::new(machine.num_cores);
        let dircaches = (0..machine.num_cores)
            .map(|_| DirectoryCache::new(machine.directory_cache_entries))
            .collect::<Result<Vec<_>, _>>()?;
        let mut noc = ContentionModel::new(
            *layout.mesh(),
            machine.link_latency,
            machine.router_pipeline,
        );
        if let Some(trace) = &config.trace {
            directory.set_trace_sink(Some(trace.sink.clone()), trace.coherence_sample);
            if trace.sink.wants(EventClass::NocStall) {
                noc.set_trace_sink(Some(trace.sink.clone()));
            }
        }
        let memory_controllers =
            vec![ReservationCalendar::default(); machine.num_memory_controllers];
        let generators = config
            .workloads
            .iter()
            .enumerate()
            .map(|(vm, profile)| WorkloadGenerator::new(VmId::new(vm), profile, &root))
            .collect();
        let gap_rngs = (0..machine.num_cores)
            .map(|c| root.derive_parts("core/gaps", &[c as u64]))
            .collect();
        let mut thread_base = Vec::with_capacity(config.workloads.len());
        let mut total_threads = 0usize;
        for w in &config.workloads {
            thread_base.push(total_threads);
            total_threads += w.threads;
        }
        let batches = (0..total_threads).map(|_| RefBatch::default()).collect();
        let metrics = config
            .workloads
            .iter()
            .map(|_| VmMetrics::default())
            .collect();

        Ok(Self {
            config,
            layout,
            placement,
            core_thread,
            l0,
            l1,
            llc,
            directory,
            dircaches,
            noc,
            memory_controllers,
            generators,
            thread_base,
            batches,
            gap_rngs,
            metrics,
            llc_way_masks,
            qos,
            churn,
            resched_epoch: 0,
            run_state: None,
            prewarmed: false,
        })
    }

    /// The placement in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Runs warmup then measurement; consumes the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] if internal protocol invariants break
    /// (a simulator bug).
    pub fn run(self) -> Result<SimulationOutcome, SimError> {
        self.run_with(None)
    }

    /// Like [`Simulation::run`], but notifies `observer` of every simulated
    /// memory reference (see [`crate::observe`]). Passing `None` is exactly
    /// `run`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] if internal protocol invariants break
    /// (a simulator bug).
    pub fn run_with(
        mut self,
        mut observer: Option<&mut dyn StepObserver>,
    ) -> Result<SimulationOutcome, SimError> {
        loop {
            let status = match &mut observer {
                Some(obs) => self.advance(u64::MAX, Some(&mut **obs))?,
                None => self.advance(u64::MAX, None)?,
            };
            if status == RunStatus::Complete {
                break;
            }
        }
        self.finish()
    }

    /// Advances the run by at most `max_accesses` memory references
    /// (counting warmup), starting it if necessary. Returns
    /// [`RunStatus::Running`] when the budget ran out first — the simulation
    /// is then at a well-defined boundary and can be checkpointed with
    /// [`Simulation::checkpoint`] — and [`RunStatus::Complete`] once every
    /// VM has met its measured quota.
    ///
    /// `run()` is exactly `advance(u64::MAX, None)` followed by
    /// [`Simulation::finish`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] if internal protocol invariants break
    /// (a simulator bug).
    pub fn advance(
        &mut self,
        max_accesses: u64,
        mut observer: Option<&mut dyn StepObserver>,
    ) -> Result<RunStatus, SimError> {
        self.ensure_started(&mut observer);
        let mut budget = max_accesses;
        loop {
            let state = self.run_state.as_ref().expect("run started above");
            if state.done {
                return Ok(RunStatus::Complete);
            }
            let phase = state.phase;
            let (quota, measuring) = match phase {
                PhaseKind::Warmup => (self.config.warmup_refs_per_vm, false),
                PhaseKind::Measure => (self.config.refs_per_vm, true),
            };
            let mut st = self.run_state.take().expect("run started above");
            let result = self.phase_loop(&mut st, quota, measuring, &mut budget, &mut observer);
            self.run_state = Some(st);
            result?;
            let st = self.run_state.as_mut().expect("restored above");
            if st.remaining > 0 {
                return Ok(RunStatus::Running);
            }
            if measuring {
                st.done = true;
                return Ok(RunStatus::Complete);
            }
            // Warmup finished: clear statistics (cache and directory
            // *contents* persist) and enter measurement where warmup left
            // the clock.
            let clock = st.last_completion;
            self.reset_measurement_state();
            self.begin_measurement(clock);
            if budget == 0 {
                return Ok(RunStatus::Running);
            }
        }
    }

    /// Computes the paper's end-of-run outcome. The run must be complete
    /// ([`Simulation::advance`] returned [`RunStatus::Complete`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Invariant`] if called before the run completed,
    /// or [`SimError::AuditFailed`] if the end-of-run counter audit detects
    /// drift.
    pub fn finish(mut self) -> Result<SimulationOutcome, SimError> {
        let (measure_start, end) = match &self.run_state {
            Some(st) if st.done => (st.start, st.last_completion),
            _ => {
                return Err(SimError::invariant(
                    "finish() called before the run completed",
                ))
            }
        };
        let num_vms = self.config.workloads.len();

        debug_assert!(self.directory.check_invariants().is_ok());

        let replication = ReplicationSnapshot::capture(&self.llc);
        let occupancy = OccupancySnapshot::capture(&self.llc, num_vms);
        let dircache_hit_rate = self
            .dircaches
            .iter()
            .map(DirectoryCache::hit_rate)
            .sum::<f64>()
            / self.dircaches.len() as f64;
        // Completion cycles were recorded as absolute times; rebase onto the
        // measurement interval.
        for m in &mut self.metrics {
            if let Some(c) = m.completion {
                m.completion = Some(Cycle::new(c.saturating_since(measure_start)));
            }
        }
        let elapsed = end.raw().max(1);
        let seed = self.config.seed;
        let audit = self.config.audit;
        let trace = self.config.trace.clone();
        let outcome = SimulationOutcome {
            noc_mean_utilization: self.noc.mean_link_utilization(elapsed),
            noc_peak_utilization: self.noc.peak_link_utilization(elapsed),
            vm_metrics: self.metrics,
            replication,
            occupancy,
            noc: self.noc.stats().clone(),
            protocol: *self.directory.stats(),
            placement: self.placement,
            measured_cycles: end.saturating_since(measure_start),
            dircache_hit_rate,
            churn: self.churn.as_ref().map(|c| *c.stats()),
        };
        if let Some(trace) = &trace {
            trace.sink.record(&TraceEvent::RunCompleted {
                seed,
                measured_cycles: outcome.measured_cycles,
                l1_misses: outcome.vm_metrics.iter().map(|m| m.l1_misses).sum(),
                memory_fetches: outcome.vm_metrics.iter().map(|m| m.memory_fetches).sum(),
            });
        }
        // Debug builds always audit; release builds opt in via the config.
        if audit || cfg!(debug_assertions) {
            let checks = crate::audit::audit_outcome(&outcome)?;
            if let Some(trace) = &trace {
                trace.sink.record(&TraceEvent::AuditPassed { seed, checks });
            }
        }
        Ok(outcome)
    }

    /// Performs the one-time run setup on the first [`Simulation::advance`]
    /// call: LLC prewarming (if configured and not already done, e.g. via
    /// [`Simulation::prewarm`] or a resumed checkpoint) and entering the
    /// first phase.
    fn ensure_started(&mut self, observer: &mut Option<&mut dyn StepObserver>) {
        if self.run_state.is_some() {
            return;
        }
        if self.config.prewarm_llc && !self.prewarmed {
            self.prewarm_llc_banks(observer);
        }
        self.prewarmed = true;
        if self.config.warmup_refs_per_vm > 0 {
            self.run_state = Some(self.start_phase(PhaseKind::Warmup, Cycle::ZERO));
        } else {
            self.begin_measurement(Cycle::ZERO);
        }
    }

    /// Enters the measurement phase at `clock` and announces it on the
    /// trace. The QoS controller (if any) restarts here too: measurement
    /// counters reset at this boundary, and its epoch clock is anchored at
    /// the phase start.
    fn begin_measurement(&mut self, clock: Cycle) {
        if let Some(qos) = &mut self.qos {
            qos.begin(clock.raw());
            self.llc_way_masks = Some(qos.masks());
        }
        // Initially-absent VMs carry no measured quota; stamp their
        // completion at the phase start (rebased to zero in `finish`).
        if let Some(churn) = &self.churn {
            for vm in 0..self.config.workloads.len() {
                if !churn.is_active(vm) {
                    self.metrics[vm].completion = Some(clock);
                }
            }
        }
        if let Some(trace) = &self.config.trace {
            trace.sink.record(&TraceEvent::RunStarted {
                seed: self.config.seed,
                vms: self.config.workloads.len() as u32,
                refs_per_vm: self.config.refs_per_vm,
                warmup_refs_per_vm: self.config.warmup_refs_per_vm,
            });
        }
        self.run_state = Some(self.start_phase(PhaseKind::Measure, clock));
    }

    /// Fresh event-loop state for one phase: every VM at zero progress,
    /// every occupied core with an issue event at `start`.
    fn start_phase(&self, phase: PhaseKind, start: Cycle) -> RunState {
        let num_vms = self.config.workloads.len();
        let mut heap = BinaryHeap::new();
        for core in 0..self.config.machine.num_cores {
            if self.core_thread[core].is_some() {
                heap.push(Reverse((start.raw(), core)));
            }
        }
        let epoch_interval = match (&self.config.trace, phase) {
            (Some(trace), PhaseKind::Measure) => trace.epoch_cycles.max(1),
            _ => u64::MAX,
        };
        let repart_interval = match (&self.qos, phase) {
            (Some(qos), PhaseKind::Measure) => qos.interval(),
            _ => u64::MAX,
        };
        let churn_interval = match (&self.churn, phase) {
            (Some(churn), PhaseKind::Measure) => churn.interval(),
            _ => u64::MAX,
        };
        // Initially-absent VMs (under churn) issue nothing until they
        // arrive, so they carry no quota: they start the phase done. VMs
        // that arrive later generate load but never join the quota race.
        let mut vm_done = vec![false; num_vms];
        if let Some(churn) = &self.churn {
            for (vm, done) in vm_done.iter_mut().enumerate() {
                *done = !churn.is_active(vm);
            }
        }
        let remaining = vm_done.iter().filter(|&&d| !d).count();
        RunState {
            phase,
            start,
            vm_refs: vec![0; num_vms],
            vm_done,
            remaining,
            heap,
            last_completion: start,
            next_resched: start
                .raw()
                .saturating_add(self.config.reschedule_every.unwrap_or(u64::MAX)),
            next_epoch: start.raw().saturating_add(epoch_interval),
            next_repart: start.raw().saturating_add(repart_interval),
            next_churn: start.raw().saturating_add(churn_interval),
            done: false,
        }
    }

    /// The event loop of one phase: every VM issues `quota` references;
    /// cores of finished VMs keep running so the machine stays at capacity
    /// (the paper restarts finished workloads). Consumes up to `budget`
    /// references, leaving the phase resumable in `st` when the budget runs
    /// out first. Each event costs one boundary comparison, against the
    /// earliest stamp; everything past it runs in [`Simulation::boundary`].
    fn phase_loop(
        &mut self,
        st: &mut RunState,
        quota: u64,
        measuring: bool,
        budget: &mut u64,
        observer: &mut Option<&mut dyn StepObserver>,
    ) -> Result<(), SimError> {
        let mean_gap = self.config.machine.instructions_per_memory_op;
        let track_footprint = self.config.track_footprint;
        let mut budget_left = *budget;
        let mut next_boundary = st.next_boundary();
        // Every push is at or after the event just popped, so pops never go
        // backwards within a phase: each popped cycle is a floor for every
        // reservation made from then on (`HierarchyCtx::floor`).
        let mut last_pop = st.start.raw();
        // The carry slot: when the reference just issued completes before
        // every pending event, its (ready-cycle, core) pair never enters the
        // heap — the next iteration consumes it directly. Pop order is
        // unchanged (tuples are unique: one event per core), so this skips
        // the push/pop pair on the common L0/L1-hit streak without touching
        // serialization. Any live carry is pushed back before the loop
        // exits, so `RunState` — and every checkpoint — is bit-identical to
        // the carry-free formulation.
        let mut carry: Option<(u64, usize)> = None;
        let result = loop {
            if budget_left == 0 {
                break Ok(());
            }
            let (now, core) = match carry.take() {
                Some(event) => event,
                None => match st.heap.pop() {
                    Some(Reverse(event)) => event,
                    None => {
                        break Err(SimError::invariant(
                            "event heap drained with unfinished VMs",
                        ))
                    }
                },
            };
            debug_assert!(now >= last_pop, "event at {now} popped after {last_pop}");
            last_pop = now;
            if now >= next_boundary {
                let pushed_back = self.boundary(now, core, st, observer);
                next_boundary = st.next_boundary();
                if pushed_back {
                    // Re-pop without consuming budget: no reference was
                    // issued.
                    if st.remaining == 0 {
                        break Ok(());
                    }
                    continue;
                }
            }
            let thread = self.core_thread[core].expect("scheduled cores have threads");
            let vm = thread.vm;
            let gap = self.gap_rngs[core].positive_with_mean(mean_gap);
            let issue = Cycle::new(now) + gap;
            let mem_ref = self.next_batched_ref(thread);
            if measuring {
                let m = &mut self.metrics[vm.index()];
                m.instructions += gap + 1;
                m.refs += 1;
                if mem_ref.is_write {
                    m.writes += 1;
                }
                if track_footprint {
                    m.footprint.insert(mem_ref.address.block().raw());
                }
            }
            let done = self.access(
                CoreId::new(core),
                vm,
                &mem_ref,
                Cycle::new(now),
                issue,
                measuring,
                observer,
            );
            budget_left -= 1;

            if !st.vm_done[vm.index()] {
                st.vm_refs[vm.index()] += 1;
                if st.vm_refs[vm.index()] >= quota {
                    st.vm_done[vm.index()] = true;
                    st.remaining -= 1;
                    st.last_completion = st.last_completion.max(done);
                    if measuring {
                        self.metrics[vm.index()].completion = Some(done);
                    }
                    if st.remaining == 0 {
                        break Ok(());
                    }
                }
            }
            let event = (done.raw(), core);
            match st.heap.peek() {
                Some(&Reverse(top)) if event > top => st.heap.push(Reverse(event)),
                _ => carry = Some(event),
            }
        };
        if let Some(event) = carry {
            st.heap.push(Reverse(event));
        }
        *budget = budget_left;
        result
    }

    /// Handles every boundary due at `now`, in a fixed order: epoch
    /// snapshot, QoS repartition, churn, rescheduling. Returns whether the
    /// popped event `(now, core)` went back into the heap, so the loop must
    /// re-pop: churn always pushes it back, and a reschedule does when it
    /// changed the set of occupied cores. Kept out of line and cold so the
    /// event loop pays one comparison per event and its code generation
    /// stays that of a loop with no boundary code.
    #[cold]
    #[inline(never)]
    fn boundary(
        &mut self,
        now: u64,
        core: usize,
        st: &mut RunState,
        observer: &mut Option<&mut dyn StepObserver>,
    ) -> bool {
        if now >= st.next_epoch {
            self.epoch_boundary(now, st);
        }
        if now >= st.next_repart {
            st.next_repart = self.repartition_boundary(now, st.next_repart, observer);
        }
        if now >= st.next_churn {
            // The boundary may retire this very core: push the popped event
            // back so the churn handler sees (and can remap or drop) every
            // pending event.
            st.heap.push(Reverse((now, core)));
            self.churn_boundary(now, st, observer);
            return true;
        }
        now >= st.next_resched && self.resched_boundary(now, core, st)
    }

    /// Handles one epoch boundary: advances `next_epoch` past `now` (one
    /// snapshot per crossing) and emits the snapshot events if the sink
    /// wants [`EventClass::Epoch`] now, so a subscriber that arrives or
    /// leaves mid-run takes effect at the next boundary. With no sink (a
    /// resumed run before [`Simulation::set_trace`]) the stamp moves to
    /// `u64::MAX`.
    fn epoch_boundary(&self, now: u64, st: &mut RunState) {
        let trace = self.config.trace.as_ref();
        let interval = trace.map_or(u64::MAX, |t| t.epoch_cycles.max(1));
        while now >= st.next_epoch {
            st.next_epoch = st.next_epoch.saturating_add(interval);
        }
        if let Some(trace) = trace.filter(|t| t.sink.wants(EventClass::Epoch)) {
            self.emit_epoch_snapshot(trace.sink.as_ref(), now, st.start.raw());
        }
    }

    /// Handles one dynamic-QoS repartition boundary: advances `next_repart`
    /// past `now` (one decision per crossing, even if the event gap spanned
    /// several intervals), gathers the controller inputs, runs the decision,
    /// and swaps the live way masks when it moved ways.
    fn repartition_boundary(
        &mut self,
        now: u64,
        mut next_repart: u64,
        observer: &mut Option<&mut dyn StepObserver>,
    ) -> u64 {
        let interval = self
            .qos
            .as_ref()
            .expect("repartition boundary without a QoS controller")
            .interval();
        while now >= next_repart {
            next_repart = next_repart.saturating_add(interval);
        }
        // Controller inputs: cumulative measurement counters plus the LLC's
        // actual per-VM line counts (which may transiently exceed quotas
        // while out-of-mask lines age out).
        let num_vms = self.config.workloads.len();
        let mut refs = Vec::with_capacity(num_vms);
        let mut l1_misses = Vec::with_capacity(num_vms);
        let mut memory_fetches = Vec::with_capacity(num_vms);
        for m in &self.metrics {
            refs.push(m.refs);
            l1_misses.push(m.l1_misses);
            memory_fetches.push(m.memory_fetches);
        }
        let mut occupancy = vec![0u64; num_vms];
        for bank in &self.llc {
            for line in bank.lines() {
                occupancy[line.block.vm().index()] += 1;
            }
        }
        let qos = self.qos.as_mut().expect("checked above");
        let decision = qos.decide(now, &refs, &l1_misses, &memory_fetches, &occupancy);
        if decision.changed() {
            self.llc_way_masks = Some(decision.new_masks.clone());
            if let Some(trace) = &self.config.trace {
                if trace.sink.wants(EventClass::Epoch) {
                    trace.sink.record(&TraceEvent::Repartition {
                        cycle: decision.at,
                        epoch: decision.epoch,
                        old_masks: decision.old_masks.clone(),
                        new_masks: decision.new_masks.clone(),
                        classes: decision.classes.iter().map(|c| c.label()).collect(),
                        ewma_milli: decision.ewma_milli.clone(),
                    });
                }
            }
        }
        // Every decision — changed or not — reaches the observer so an
        // external controller mirror advances its EWMA state in lockstep.
        if let Some(obs) = observer.as_deref_mut() {
            obs.on_repartition(&decision);
        }
        next_repart
    }

    /// Handles one rescheduling boundary: re-places the threads and moves
    /// `next_resched` on by exactly one interval, so an event gap that
    /// spans several intervals fires it on successive events. When the set
    /// of occupied cores changed (possible under Random placement), pushes
    /// the popped event back, re-homes pending events onto the newly
    /// occupied cores, and returns `true`.
    fn resched_boundary(&mut self, now: u64, core: usize, st: &mut RunState) -> bool {
        let interval = self
            .config
            .reschedule_every
            .expect("rescheduling boundary without an interval");
        let occupied_before = self.occupied_cores();
        self.reschedule();
        st.next_resched = st.next_resched.saturating_add(interval);
        if self.occupied_cores() == occupied_before {
            return false;
        }
        st.heap.push(Reverse((now, core)));
        remap_core_events(&mut st.heap, &occupied_before, &self.core_thread);
        true
    }

    /// Whether each core has a thread bound to it.
    fn occupied_cores(&self) -> Vec<bool> {
        self.core_thread.iter().map(Option::is_some).collect()
    }

    /// Emits the per-VM and machine-wide time-series snapshot for one epoch
    /// boundary.
    fn emit_epoch_snapshot(&self, sink: &dyn TraceSink, cycle: u64, measure_start: u64) {
        for (vm, m) in self.metrics.iter().enumerate() {
            sink.record(&TraceEvent::Epoch {
                cycle,
                vm: vm as u32,
                refs: m.refs,
                l1_misses: m.l1_misses,
                llc_miss_rate: m.llc_miss_rate(),
                mean_miss_latency: m.mean_miss_latency(),
            });
        }
        let elapsed = cycle.saturating_sub(measure_start).max(1);
        let occupied: usize = self.llc.iter().map(SetAssocCache::occupancy).sum();
        let capacity: usize = self.llc.iter().map(SetAssocCache::capacity).sum();
        sink.record(&TraceEvent::EpochMachine {
            cycle,
            noc_mean_utilization: self.noc.mean_link_utilization(elapsed),
            noc_peak_utilization: self.noc.peak_link_utilization(elapsed),
            llc_occupancy: occupied as f64 / capacity.max(1) as f64,
        });
    }

    /// Clears statistics after warmup; cache/directory *contents* persist.
    fn reset_measurement_state(&mut self) {
        for c in self
            .l0
            .iter_mut()
            .chain(self.l1.iter_mut())
            .chain(self.llc.iter_mut())
        {
            c.reset_stats();
        }
        self.directory.reset_stats();
        self.noc.reset();
        for mc in &mut self.memory_controllers {
            *mc = ReservationCalendar::default();
        }
        for m in &mut self.metrics {
            *m = VmMetrics::default();
        }
    }

    /// The next reference of `thread`'s stream: served from the thread's
    /// prefetched batch, refilled [`REF_BATCH`] at a time when drained.
    /// Handoff-boundary references (where the batch stops) are generated
    /// one at a time at their exact issue event, so the global
    /// segment-migration order is byte-identical to unbatched generation.
    #[inline]
    fn next_batched_ref(&mut self, thread: GlobalThreadId) -> MemRef {
        let slot = self.thread_base[thread.vm.index()] + thread.thread.index();
        let batch = &mut self.batches[slot];
        if batch.cursor == batch.refs.len() {
            batch.refs.clear();
            batch.cursor = 0;
            self.generators[thread.vm.index()].fill_batch(
                thread.thread,
                &mut batch.refs,
                REF_BATCH,
            );
            if batch.refs.is_empty() {
                // A handoff access is due (or the pool is exhausted for
                // this thread): the generator resolves it now, in event
                // order.
                return self.generators[thread.vm.index()].next_ref(thread.thread);
            }
        }
        let r = batch.refs[batch.cursor];
        batch.cursor += 1;
        r
    }

    /// Simulates one reference: the private-hit fast path completes it
    /// inline; anything else walks the [`crate::hierarchy`] pipeline with
    /// `floor`, the cycle of the event that issued it, as its reservation
    /// floor. Returns its completion time.
    #[allow(clippy::too_many_arguments)] // the event, the reference, its phase
    fn access(
        &mut self,
        core: CoreId,
        vm: VmId,
        mem_ref: &MemRef,
        floor: Cycle,
        issue: Cycle,
        measuring: bool,
        observer: &mut Option<&mut dyn StepObserver>,
    ) -> Cycle {
        let block = mem_ref.address.block();
        let (completion, outcome) = match self.private_access(
            core.index(),
            vm,
            block,
            mem_ref.is_write,
            issue,
            measuring,
        ) {
            Ok(hit) => hit,
            Err(kind) => {
                let (completion, source) = self
                    .hierarchy_ctx(floor)
                    .coherence_transaction(core, vm, block, kind, issue, measuring);
                (completion, StepOutcome::Miss(source))
            }
        };
        if observer.is_some() {
            self.notify_step(observer, core, vm, mem_ref, measuring, outcome);
        }
        completion
    }

    /// The L0/L1 private-hit fast path: a hit with sufficient permission
    /// completes here, touching only the issuing core's private caches and
    /// the VM's metrics — no directory, NoC, LLC, or memory-controller
    /// borrows, and no [`HierarchyCtx`] construction. Everything else
    /// (miss, or write hit on a Shared line) returns `Err` with the
    /// [`AccessKind`] the coherence slow path must resolve.
    ///
    /// This is the private-level prefix of the hierarchy walk, verbatim;
    /// the differential oracle in consim-check pins its semantics against
    /// the reference model.
    #[inline]
    fn private_access(
        &mut self,
        core: usize,
        vm: VmId,
        block: BlockAddr,
        is_write: bool,
        issue: Cycle,
        measuring: bool,
    ) -> Result<(Cycle, StepOutcome), AccessKind> {
        let l0_latency = self.config.machine.l0.latency;
        let l1_latency = self.config.machine.l1.latency;

        // L0.
        if let Some(state) = self.l0[core].access(block) {
            if !is_write || state.is_writable() {
                if is_write {
                    self.l0[core].set_state(block, LineState::Modified);
                    self.l1[core].set_state(block, LineState::Modified);
                }
                if measuring {
                    self.metrics[vm.index()].l0_hits += 1;
                }
                return Ok((issue + l0_latency, StepOutcome::L0Hit));
            }
        }
        // L1.
        if let Some(state) = self.l1[core].access(block) {
            if !is_write || state.is_writable() {
                let new_state = if is_write { LineState::Modified } else { state };
                if is_write {
                    self.l1[core].set_state(block, LineState::Modified);
                }
                // Mirror into L0 (strictly inclusive; evictions silent).
                self.l0[core].insert(block, new_state);
                if measuring {
                    self.metrics[vm.index()].l1_hits += 1;
                }
                return Ok((issue + l0_latency + l1_latency, StepOutcome::L1Hit));
            }
            // Write hit on a Shared line: upgrade.
            return Err(AccessKind::Upgrade);
        }
        Err(if is_write {
            AccessKind::Write
        } else {
            AccessKind::Read
        })
    }

    /// The per-access view of the machine handed to the hierarchy pipeline,
    /// booking its calendars at or above `floor`. Compiles down to a bundle
    /// of pointers; built fresh per reference so the engine keeps ownership
    /// of all state between events.
    #[inline]
    fn hierarchy_ctx(&mut self, floor: Cycle) -> HierarchyCtx<'_> {
        HierarchyCtx {
            machine: &self.config.machine,
            layout: &self.layout,
            l0: &mut self.l0,
            l1: &mut self.l1,
            llc: &mut self.llc,
            directory: &mut self.directory,
            dircaches: &mut self.dircaches,
            noc: &mut self.noc,
            memory_controllers: &mut self.memory_controllers,
            metrics: &mut self.metrics,
            llc_masks: self.llc_way_masks.as_deref(),
            floor,
        }
    }

    /// Delivers one [`AccessStep`] to the attached observer. Out of line and
    /// cold: the common (unobserved) run pays only the `is_some` branch at
    /// the call sites.
    #[cold]
    #[inline(never)]
    fn notify_step(
        &self,
        observer: &mut Option<&mut dyn StepObserver>,
        core: CoreId,
        vm: VmId,
        mem_ref: &MemRef,
        measuring: bool,
        outcome: StepOutcome,
    ) {
        let observer = observer.as_deref_mut().expect("observer checked by caller");
        let block = mem_ref.address.block();
        let (dir_owner, dir_sharers) = self.directory.state_of(block);
        observer.on_step(&AccessStep {
            core,
            vm,
            thread: mem_ref.thread,
            block,
            is_write: mem_ref.is_write,
            measuring,
            outcome,
            dir_owner,
            dir_sharers,
        });
    }

    /// Recomputes the thread-to-core mapping with a fresh random stream
    /// (one context-switch epoch). Threads migrate; their cached data stays
    /// behind on the old cores and must be re-fetched (or transferred
    /// cache-to-cache) from the new ones. Each epoch's stream derives from
    /// the root seed and the epoch number alone; checkpoints carry the
    /// epoch counter so a resumed run draws the next epoch's placement.
    fn reschedule(&mut self) {
        self.resched_epoch += 1;
        let rng = SimRng::from_seed(self.config.seed)
            .derive_parts("resched/epoch", &[self.resched_epoch]);
        let vm_threads: Vec<usize> = self.config.workloads.iter().map(|w| w.threads).collect();
        if let Ok(placement) = place(self.config.policy, &self.config.machine, &vm_threads, &rng) {
            self.core_thread = vec![None; self.config.machine.num_cores];
            for (thread, core) in placement.iter() {
                self.core_thread[core.index()] = Some(thread);
            }
            self.placement = placement;
        }
    }

    /// Pre-fills each VM's LLC banks with its hottest blocks (the paper's
    /// warmed-checkpoint methodology). Each VM receives a share of each of
    /// its banks proportional to how many of the bank's cores it owns;
    /// blocks are inserted coldest-first so the hottest end up
    /// most-recently-used.
    fn prewarm_llc_banks(&mut self, observer: &mut Option<&mut dyn StepObserver>) {
        let machine = self.config.machine.clone();
        let per_bank_capacity = machine.llc_bank_geometry().num_lines();
        for vm in 0..self.config.workloads.len() {
            // Initially-absent VMs arrive with cold caches; nothing to warm.
            if self.churn.as_ref().is_some_and(|c| !c.is_active(vm)) {
                continue;
            }
            // Prewarm fills respect the VM's way mask, like demand fills.
            let mask = self.llc_way_masks.as_ref().map(|masks| masks[vm]);
            // Count this VM's threads per bank.
            let mut share = vec![0usize; machine.llc_banks()];
            for (thread, core) in self.placement.iter() {
                if thread.vm.index() == vm {
                    share[machine.bank_of_core(core).index()] += 1;
                }
            }
            let quotas: Vec<usize> = share
                .iter()
                .map(|&threads| per_bank_capacity * threads / machine.cores_per_bank())
                .collect();
            let total: usize = quotas.iter().sum();
            if total == 0 {
                continue;
            }
            let warm = self.generators[vm].warm_set(total);
            // Distribute hottest-first across the VM's banks round-robin,
            // then insert each bank's list in reverse (hottest becomes MRU).
            let mut per_bank: Vec<Vec<consim_types::BlockAddr>> =
                quotas.iter().map(|&q| Vec::with_capacity(q)).collect();
            let mut bank_cursor = 0usize;
            for block in warm {
                // Next bank with remaining quota.
                let mut placed = false;
                for off in 0..per_bank.len() {
                    let b = (bank_cursor + off) % per_bank.len();
                    if per_bank[b].len() < quotas[b] {
                        per_bank[b].push(block);
                        bank_cursor = b + 1;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    break;
                }
            }
            for (b, blocks) in per_bank.into_iter().enumerate() {
                for block in blocks.into_iter().rev() {
                    match mask {
                        Some(m) => {
                            self.llc[b].insert_in_ways(block, LineState::Shared, m);
                        }
                        None => {
                            self.llc[b].insert(block, LineState::Shared);
                        }
                    }
                    if let Some(obs) = observer.as_deref_mut() {
                        obs.on_llc_prewarm(BankId::new(b), block);
                    }
                }
            }
        }
        for bank in &mut self.llc {
            bank.reset_stats();
        }
    }

    /// Runs the configured LLC prewarm pass now instead of on the first
    /// [`Simulation::advance`] call. Idempotent; a no-op when
    /// [`SimulationConfig::prewarm_llc`] is off.
    pub fn prewarm(&mut self) {
        if self.config.prewarm_llc && !self.prewarmed {
            self.prewarm_llc_banks(&mut None);
        }
        self.prewarmed = true;
    }

    /// Attaches (or replaces) the trace configuration on a live simulation.
    /// Checkpoints exclude the process-local trace sink, so a resumed run
    /// calls this to keep tracing; the directory's sampling countdown is
    /// preserved across the gap, so the resumed run samples the same
    /// protocol actions the uninterrupted run would have.
    pub fn set_trace(&mut self, trace: TraceConfig) {
        self.directory
            .set_trace_sink(Some(trace.sink.clone()), trace.coherence_sample);
        if trace.sink.wants(EventClass::NocStall) {
            self.noc.set_trace_sink(Some(trace.sink.clone()));
        }
        self.config.trace = Some(trace);
    }
}

/// Re-homes pending issue events after any thread rebinding: a reschedule
/// that changed which cores are occupied (possible under
/// [`SchedulingPolicy::Random`]), a VM retirement or a migration. Events on
/// cores that lost their thread go — earliest times first — to the cores
/// that gained one, in ascending core order; surplus events drop, as a
/// retirement's do. Events on cores that stayed occupied are untouched, so
/// deterministic policies keep their exact pre-existing schedule.
fn remap_core_events(
    heap: &mut BinaryHeap<Reverse<(u64, usize)>>,
    occupied_before: &[bool],
    core_thread: &[Option<GlobalThreadId>],
) {
    let mut kept: Vec<(u64, usize)> = Vec::with_capacity(heap.len());
    let mut orphaned: Vec<u64> = Vec::new();
    for Reverse((time, core)) in heap.drain() {
        if core_thread[core].is_some() {
            kept.push((time, core));
        } else {
            orphaned.push(time);
        }
    }
    orphaned.sort_unstable();
    let fresh_cores = (0..core_thread.len())
        .filter(|&core| core_thread[core].is_some() && !occupied_before[core]);
    heap.extend(kept.into_iter().map(Reverse));
    heap.extend(orphaned.into_iter().zip(fresh_cores).map(Reverse));
}

#[cfg(test)]
mod tests;
