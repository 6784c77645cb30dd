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

use crate::churn::{epoch_draws, ChurnAction, ChurnDecision, ChurnState, ChurnStats};
use crate::hierarchy::HierarchyCtx;
use crate::machine::Layout;
use crate::metrics::{OccupancySnapshot, ReplicationSnapshot, VmMetrics};
use crate::observe::{AccessStep, StepObserver, StepOutcome};
use crate::qos::QosController;
use crate::snapshot;
use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
use consim_coherence::{AccessKind, Directory, DirectoryCache, ProtocolStats};
use consim_noc::{ContentionModel, NocStats, ReservationCalendar};
use consim_sched::{place, Placement, SchedulingPolicy};
use consim_snap::{
    restore_items, save_items, SectionBuf, SectionReader, SnapReader, SnapWriter, Snapshot,
    CHECKPOINT_VERSION,
};
use consim_trace::{EventClass, TraceEvent, TraceSink};
use consim_types::config::{LlcPartitioning, MachineConfig};
use consim_types::{
    Address, BankId, BlockAddr, CoreId, Cycle, GlobalThreadId, SimError, SimRng, SnapshotErrorKind,
    ThreadId, VmId,
};
use consim_workload::{MemRef, WorkloadGenerator, WorkloadProfile};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};
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
    /// profile is invalid, the quota is zero, or the mix oversubscribes the
    /// machine.
    pub fn build(&self) -> Result<SimulationConfig, SimError> {
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
    /// Next dynamic-rescheduling boundary, if enabled.
    next_resched: Option<u64>,
    /// Next epoch-snapshot boundary (`u64::MAX` when epoch tracing is off).
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
            // Epoch snapshots and QoS repartitioning only apply to the
            // measurement phase. The loop is monomorphized over whether
            // either is on: even a never-taken branch whose body calls
            // through a trace-sink vtable pessimizes the hot loop's code
            // generation by ~20%, so the plain instantiation must contain
            // no boundary code at all.
            let epoch_trace = self.epoch_trace_for(phase);
            let qos_active = phase == PhaseKind::Measure && self.qos.is_some();
            let churn_active = phase == PhaseKind::Measure && self.churn.is_some();
            let mut st = self.run_state.take().expect("run started above");
            let result = if epoch_trace.is_some() || qos_active || churn_active {
                self.phase_loop::<true>(
                    &mut st,
                    quota,
                    measuring,
                    epoch_trace,
                    &mut budget,
                    &mut observer,
                )
            } else {
                self.phase_loop::<false>(
                    &mut st,
                    quota,
                    measuring,
                    None,
                    &mut budget,
                    &mut observer,
                )
            };
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
        let epoch_interval = self
            .epoch_trace_for(phase)
            .map(|t| t.epoch_cycles.max(1))
            .unwrap_or(u64::MAX);
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
            next_resched: self
                .config
                .reschedule_every
                .map(|interval| start.raw() + interval),
            next_epoch: start.raw().saturating_add(epoch_interval),
            next_repart: start.raw().saturating_add(repart_interval),
            next_churn: start.raw().saturating_add(churn_interval),
            done: false,
        }
    }

    /// The trace configuration for epoch snapshots, when the given phase
    /// should emit them.
    fn epoch_trace_for(&self, phase: PhaseKind) -> Option<TraceConfig> {
        self.config
            .trace
            .clone()
            .filter(|t| phase == PhaseKind::Measure && t.sink.wants(EventClass::Epoch))
    }

    /// The event loop of one phase: every VM issues `quota` references;
    /// cores of finished VMs keep running so the machine stays at capacity
    /// (the paper restarts finished workloads). Consumes up to `budget`
    /// references, leaving the phase resumable in `st` when the budget runs
    /// out first. `EPOCHS` compiles the boundary checks (epoch snapshots
    /// and QoS repartitioning) in or out; `epoch_trace` may only be `Some`
    /// under `EPOCHS` (a QoS-only run passes `EPOCHS = true` with no
    /// trace — its `next_epoch` is `u64::MAX`, so the snapshot branch
    /// never fires).
    fn phase_loop<const EPOCHS: bool>(
        &mut self,
        st: &mut RunState,
        quota: u64,
        measuring: bool,
        epoch_trace: Option<TraceConfig>,
        budget: &mut u64,
        observer: &mut Option<&mut dyn StepObserver>,
    ) -> Result<(), SimError> {
        let mean_gap = self.config.machine.instructions_per_memory_op;
        let track_footprint = self.config.track_footprint;
        let epoch_interval = if EPOCHS {
            epoch_trace
                .as_ref()
                .map(|t| t.epoch_cycles.max(1))
                .unwrap_or(u64::MAX)
        } else {
            u64::MAX
        };
        let mut budget_left = *budget;
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
            if EPOCHS && now >= st.next_epoch {
                st.next_epoch = self.epoch_boundary(
                    &epoch_trace,
                    now,
                    st.start.raw(),
                    st.next_epoch,
                    epoch_interval,
                );
            }
            if EPOCHS && now >= st.next_repart {
                st.next_repart = self.repartition_boundary(now, st.next_repart, observer);
            }
            if EPOCHS && now >= st.next_churn {
                // The boundary may retire this very core: push the popped
                // event back so the churn handler sees (and can remap or
                // drop) every pending event, then re-pop without consuming
                // budget — no reference was issued.
                st.heap.push(Reverse((now, core)));
                self.churn_boundary(now, st, observer);
                if st.remaining == 0 {
                    break Ok(());
                }
                continue;
            }
            if let (Some(at), Some(interval)) = (st.next_resched, self.config.reschedule_every) {
                if now >= at {
                    let occupied_before: Vec<bool> =
                        self.core_thread.iter().map(Option::is_some).collect();
                    self.reschedule();
                    st.next_resched = Some(at + interval);
                    if self
                        .core_thread
                        .iter()
                        .map(Option::is_some)
                        .ne(occupied_before.iter().copied())
                    {
                        // The set of occupied cores changed (possible under
                        // Random placement): pending events on vacated cores
                        // would orphan their issue slots and newly occupied
                        // cores would starve. Remap, then re-pop (without
                        // consuming budget — no reference was issued).
                        st.heap.push(Reverse((now, core)));
                        remap_core_events(&mut st.heap, &occupied_before, &self.core_thread);
                        continue;
                    }
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
            let done = self.access(CoreId::new(core), vm, &mem_ref, issue, measuring, observer);
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

    /// Handles one epoch boundary: advances `next_epoch` past `now` and
    /// emits the snapshot events. Kept out of line so the event loop only
    /// pays one comparison per event — inlining this body into `phase`
    /// measurably pessimizes the hot loop's code generation.
    #[cold]
    #[inline(never)]
    fn epoch_boundary(
        &self,
        trace: &Option<TraceConfig>,
        now: u64,
        measure_start: u64,
        mut next_epoch: u64,
        interval: u64,
    ) -> u64 {
        while now >= next_epoch {
            next_epoch = next_epoch.saturating_add(interval);
        }
        let trace = trace.as_ref().expect("epoch trace enabled");
        self.emit_epoch_snapshot(trace.sink.as_ref(), now, measure_start);
        next_epoch
    }

    /// Handles one dynamic-QoS repartition boundary: advances `next_repart`
    /// past `now` (one decision per crossing, even if the event gap spanned
    /// several intervals), gathers the controller inputs, runs the decision,
    /// and swaps the live way masks when it moved ways. Out of line and cold
    /// for the same reason as [`Simulation::epoch_boundary`].
    #[cold]
    #[inline(never)]
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

    /// Handles one VM-churn boundary: advances `next_churn` past `now` (one
    /// decision per crossing, even if the event gap spanned several
    /// intervals), transcribes the epoch's unconditional draws, then decides
    /// and applies at most one lifecycle action per VM in id order. Out of
    /// line and cold for the same reason as [`Simulation::epoch_boundary`]:
    /// a churn-free run must pay nothing but the `next_churn` comparison.
    ///
    /// The caller has pushed its popped event back into the heap, so every
    /// pending issue event is visible here for retirement filtering and
    /// migration remapping.
    #[cold]
    #[inline(never)]
    fn churn_boundary(
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
        for &core in &cores {
            self.core_thread[core] = None;
        }
        let kept: Vec<(u64, usize)> = st
            .heap
            .drain()
            .map(|Reverse(event)| event)
            .filter(|&(_, core)| !cores.contains(&core))
            .collect();
        st.heap.extend(kept.into_iter().map(Reverse));
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
    /// deterministic regardless of heap iteration order).
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
        for &core in &from {
            self.core_thread[core] = None;
        }
        for (t, &core) in to.iter().enumerate() {
            let thread = GlobalThreadId::new(VmId::new(vm), ThreadId::new(t));
            self.core_thread[core] = Some(thread);
            self.placement.rebind(thread, CoreId::new(core));
        }
        let mut kept: Vec<(u64, usize)> = Vec::with_capacity(st.heap.len());
        let mut moved: Vec<u64> = Vec::with_capacity(from.len());
        for Reverse((time, core)) in st.heap.drain() {
            if from.contains(&core) {
                moved.push(time);
            } else {
                kept.push((time, core));
            }
        }
        moved.sort_unstable();
        st.heap.extend(kept.into_iter().map(Reverse));
        st.heap
            .extend(moved.into_iter().zip(to.iter().copied()).map(Reverse));
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
    /// inline; anything else walks the [`crate::hierarchy`] pipeline.
    /// Returns its completion time.
    fn access(
        &mut self,
        core: CoreId,
        vm: VmId,
        mem_ref: &MemRef,
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
                    .hierarchy_ctx()
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

    /// The per-access view of the machine handed to the hierarchy pipeline.
    /// Compiles down to a bundle of pointers; built fresh per reference so
    /// the engine keeps ownership of all state between events.
    #[inline]
    fn hierarchy_ctx(&mut self) -> HierarchyCtx<'_> {
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
    /// cache-to-cache) from the new ones.
    fn reschedule(&mut self) {
        self.resched_epoch += 1;
        self.apply_resched_epoch(self.resched_epoch);
    }

    /// Applies the placement of one rescheduling epoch. Each epoch's random
    /// stream derives from the root seed and the epoch number alone, so a
    /// resumed simulation replays epochs `1..=resched_epoch` to land on the
    /// exact placement the checkpointed run was using.
    fn apply_resched_epoch(&mut self, epoch: u64) {
        let rng = SimRng::from_seed(self.config.seed).derive_parts("resched/epoch", &[epoch]);
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

    /// Writes a complete, versioned, checksummed snapshot of the simulation
    /// — configuration and all mutable state — to `writer`. Resuming it with
    /// [`Simulation::resume`] and running to completion produces results
    /// bit-identical to never having stopped.
    ///
    /// Call between [`Simulation::advance`] invocations (or before the first
    /// one); the trace sink is not serialized (reattach with
    /// [`Simulation::set_trace`] after resuming).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] with [`SnapshotErrorKind::Io`] if
    /// `writer` fails.
    pub fn checkpoint<W: Write>(&self, writer: &mut W) -> Result<(), SimError> {
        let mut snap = SnapWriter::new(writer, CHECKPOINT_VERSION)?;

        let mut buf = SectionBuf::new();
        snapshot::save_config(&self.config, &mut buf);
        snap.section("config", &buf)?;

        let mut buf = SectionBuf::new();
        self.save_engine(&mut buf);
        snap.section("engine", &buf)?;

        let mut buf = SectionBuf::new();
        save_items(&mut buf, &self.l0);
        save_items(&mut buf, &self.l1);
        save_items(&mut buf, &self.llc);
        snap.section("caches", &buf)?;

        let mut buf = SectionBuf::new();
        self.directory.save(&mut buf);
        save_items(&mut buf, &self.dircaches);
        snap.section("coherence", &buf)?;

        let mut buf = SectionBuf::new();
        self.noc.save(&mut buf);
        save_items(&mut buf, &self.memory_controllers);
        snap.section("noc", &buf)?;

        let mut buf = SectionBuf::new();
        save_items(&mut buf, &self.generators);
        snap.section("workload", &buf)?;

        let mut buf = SectionBuf::new();
        save_items(&mut buf, &self.metrics);
        snap.section("metrics", &buf)?;

        snap.finish()?;
        Ok(())
    }

    /// Rebuilds a simulation from a [`Simulation::checkpoint`] stream. The
    /// machine is constructed from the *stored* configuration, then every
    /// stateful layer is restored into it; resuming and running to
    /// completion is bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] describing the failure class (bad
    /// magic, unsupported version, truncation, checksum mismatch, corrupt
    /// payload, I/O) — never panics on malformed input.
    pub fn resume<R: Read>(reader: R) -> Result<Self, SimError> {
        let mut snap = SnapReader::from_reader(reader, CHECKPOINT_VERSION)?;
        let config = {
            let mut r = snap.section("config")?;
            let config = snapshot::restore_config(&mut r)?;
            finish_section(&r)?;
            config
        };
        let mut sim = Simulation::new(config)?;
        {
            let mut r = snap.section("engine")?;
            sim.restore_engine(&mut r)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("caches")?;
            restore_items(&mut r, &mut sim.l0)?;
            restore_items(&mut r, &mut sim.l1)?;
            restore_items(&mut r, &mut sim.llc)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("coherence")?;
            sim.directory.restore(&mut r)?;
            restore_items(&mut r, &mut sim.dircaches)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("noc")?;
            sim.noc.restore(&mut r)?;
            restore_items(&mut r, &mut sim.memory_controllers)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("workload")?;
            restore_items(&mut r, &mut sim.generators)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("metrics")?;
            restore_items(&mut r, &mut sim.metrics)?;
            finish_section(&r)?;
        }
        snap.expect_end()?;
        Ok(sim)
    }

    /// Serializes the engine-owned state: prewarm/reschedule progress, the
    /// per-core gap streams, and the event loop's position.
    fn save_engine(&self, w: &mut SectionBuf) {
        w.put_bool(self.prewarmed);
        w.put_u64(self.resched_epoch);
        save_items(w, &self.gap_rngs);
        // Prefetched-but-unissued references, per global thread. The
        // generators' RNG streams have advanced past these, so a resumed
        // run must drain them before asking the generators for more. Only
        // the unissued tail is written: a checkpoint taken mid-batch and
        // one taken after a resume at the same point produce identical
        // bytes.
        w.put_usize(self.batches.len());
        for batch in &self.batches {
            let pending = &batch.refs[batch.cursor..];
            w.put_usize(pending.len());
            for r in pending {
                w.put_u64(r.address.raw());
                w.put_bool(r.is_write);
                w.put_bool(r.is_shared_region);
            }
        }
        match &self.run_state {
            None => w.put_bool(false),
            Some(st) => {
                w.put_bool(true);
                w.put_u8(match st.phase {
                    PhaseKind::Warmup => 0,
                    PhaseKind::Measure => 1,
                });
                w.put_u64(st.start.raw());
                w.put_u64_slice(&st.vm_refs);
                w.put_usize(st.vm_done.len());
                for &done in &st.vm_done {
                    w.put_bool(done);
                }
                w.put_usize(st.remaining);
                // Heap iteration order is arbitrary; serialize sorted so
                // identical states produce identical checkpoint bytes.
                let mut events: Vec<(u64, usize)> =
                    st.heap.iter().map(|&Reverse(event)| event).collect();
                events.sort_unstable();
                w.put_usize(events.len());
                for (time, core) in events {
                    w.put_u64(time);
                    w.put_usize(core);
                }
                w.put_u64(st.last_completion.raw());
                w.put_opt_u64(st.next_resched);
                w.put_u64(st.next_epoch);
                w.put_u64(st.next_repart);
                w.put_u64(st.next_churn);
                w.put_bool(st.done);
            }
        }
        // QoS controller state (quotas, EWMA slowdowns, boundary counters);
        // presence must match the stored configuration's partitioning mode.
        match &self.qos {
            None => w.put_bool(false),
            Some(qos) => {
                w.put_bool(true);
                qos.save(w);
            }
        }
        // Churn lifecycle state. Under churn the core bindings and the
        // placement table are live state (rewritten at churn boundaries),
        // not derivable from the configuration, so both travel with the
        // checkpoint.
        match &self.churn {
            None => w.put_bool(false),
            Some(ch) => {
                w.put_bool(true);
                ch.save(w);
                w.put_usize(self.core_thread.len());
                for bound in &self.core_thread {
                    match bound {
                        None => w.put_bool(false),
                        Some(thread) => {
                            w.put_bool(true);
                            w.put_usize(thread.vm.index());
                            w.put_usize(thread.thread.index());
                        }
                    }
                }
                for vm in 0..self.placement.num_vms() {
                    let vm = VmId::new(vm);
                    for t in 0..self.placement.threads_of_vm(vm) {
                        let thread = GlobalThreadId::new(vm, ThreadId::new(t));
                        w.put_usize(self.placement.core_of(thread).index());
                    }
                }
            }
        }
    }

    /// Restores [`Simulation::save_engine`] state into a freshly built
    /// machine, replaying rescheduling epochs to recover the placement.
    fn restore_engine(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        self.prewarmed = r.get_bool()?;
        let resched_epoch = r.get_u64()?;
        for epoch in 1..=resched_epoch {
            self.apply_resched_epoch(epoch);
        }
        self.resched_epoch = resched_epoch;
        restore_items(r, &mut self.gap_rngs)?;
        r.expect_len(self.batches.len(), "thread ref batches")?;
        for (slot, batch) in self.batches.iter_mut().enumerate() {
            // Slot -> (vm, thread) via the prefix sums.
            let vm = self.thread_base.partition_point(|&b| b <= slot) - 1;
            let thread = ThreadId::new(slot - self.thread_base[vm]);
            let pending = r.get_usize()?;
            batch.cursor = 0;
            batch.refs.clear();
            for _ in 0..pending {
                let address = Address(r.get_u64()?);
                if address.vm() != VmId::new(vm) {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!(
                            "prefetched reference for VM {vm} addresses {}",
                            address.vm()
                        ),
                    ));
                }
                let is_write = r.get_bool()?;
                let is_shared_region = r.get_bool()?;
                batch.refs.push(MemRef {
                    thread,
                    address,
                    is_write,
                    is_shared_region,
                });
            }
        }
        self.run_state = if r.get_bool()? {
            let num_vms = self.config.workloads.len();
            let num_cores = self.config.machine.num_cores;
            let phase = match r.get_u8()? {
                0 => PhaseKind::Warmup,
                1 => PhaseKind::Measure,
                t => {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!("invalid phase tag {t}"),
                    ))
                }
            };
            let start = Cycle::new(r.get_u64()?);
            let vm_refs = r.get_u64_vec()?;
            if vm_refs.len() != num_vms {
                return Err(SimError::snapshot(
                    SnapshotErrorKind::Corrupt,
                    format!(
                        "snapshot tracks {} VMs, configuration builds {num_vms}",
                        vm_refs.len()
                    ),
                ));
            }
            r.expect_len(num_vms, "per-VM completion flags")?;
            let mut vm_done = Vec::with_capacity(num_vms);
            for _ in 0..num_vms {
                vm_done.push(r.get_bool()?);
            }
            let remaining = r.get_usize()?;
            if remaining != vm_done.iter().filter(|&&d| !d).count() {
                return Err(SimError::snapshot(
                    SnapshotErrorKind::Corrupt,
                    "remaining-VM count disagrees with completion flags",
                ));
            }
            let events = r.get_usize()?;
            let mut heap = BinaryHeap::with_capacity(events);
            for _ in 0..events {
                let time = r.get_u64()?;
                let core = r.get_usize()?;
                if core >= num_cores {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!("issue event on core {core} outside the {num_cores}-core machine"),
                    ));
                }
                heap.push(Reverse((time, core)));
            }
            Some(RunState {
                phase,
                start,
                vm_refs,
                vm_done,
                remaining,
                heap,
                last_completion: Cycle::new(r.get_u64()?),
                next_resched: r.get_opt_u64()?,
                next_epoch: r.get_u64()?,
                next_repart: r.get_u64()?,
                next_churn: r.get_u64()?,
                done: r.get_bool()?,
            })
        } else {
            None
        };
        if r.get_bool()? != self.qos.is_some() {
            return Err(SimError::snapshot(
                SnapshotErrorKind::Corrupt,
                "QoS-controller presence disagrees with the stored partitioning mode",
            ));
        }
        if let Some(qos) = &mut self.qos {
            qos.restore(r)?;
            // The live masks are derived state: rebuild them from the
            // restored quotas so a checkpoint taken after a repartition
            // resumes with the repartitioned split, not the initial one.
            self.llc_way_masks = Some(qos.masks());
        }
        if r.get_bool()? != self.churn.is_some() {
            return Err(SimError::snapshot(
                SnapshotErrorKind::Corrupt,
                "churn-state presence disagrees with the stored churn policy",
            ));
        }
        if let Some(ch) = self.churn.as_mut() {
            let num_cores = self.config.machine.num_cores;
            let num_vms = self.config.workloads.len();
            ch.restore(r)?;
            r.expect_len(num_cores, "per-core thread bindings")?;
            let mut core_thread: Vec<Option<GlobalThreadId>> = Vec::with_capacity(num_cores);
            for _ in 0..num_cores {
                if r.get_bool()? {
                    let vm = r.get_usize()?;
                    let thread = r.get_usize()?;
                    if vm >= num_vms || thread >= self.config.workloads[vm].threads {
                        return Err(SimError::snapshot(
                            SnapshotErrorKind::Corrupt,
                            format!(
                                "core binding names thread {thread} of VM {vm}, outside the mix"
                            ),
                        ));
                    }
                    core_thread.push(Some(GlobalThreadId::new(
                        VmId::new(vm),
                        ThreadId::new(thread),
                    )));
                } else {
                    core_thread.push(None);
                }
            }
            let mut core_of: Vec<Vec<CoreId>> = Vec::with_capacity(num_vms);
            for profile in &self.config.workloads {
                let mut cores = Vec::with_capacity(profile.threads);
                for _ in 0..profile.threads {
                    let core = r.get_usize()?;
                    if core >= num_cores {
                        return Err(SimError::snapshot(
                            SnapshotErrorKind::Corrupt,
                            format!(
                                "placement names core {core} outside the {num_cores}-core machine"
                            ),
                        ));
                    }
                    cores.push(CoreId::new(core));
                }
                core_of.push(cores);
            }
            let placement = Placement::from_parts(core_of, self.config.policy);
            // Cross-check: every bound core must agree with the placement
            // table, and a thread may be bound at most once. (The full
            // no-core-reuse placement validation does not apply under churn:
            // retired VMs keep their stale last placement by design.)
            let mut bound = vec![false; num_vms * num_cores];
            for (core, slot) in core_thread.iter().enumerate() {
                if let Some(thread) = slot {
                    if placement.core_of(*thread).index() != core {
                        return Err(SimError::snapshot(
                            SnapshotErrorKind::Corrupt,
                            "core binding disagrees with the placement table",
                        ));
                    }
                    let key = thread.vm.index() * num_cores + thread.thread.index();
                    if std::mem::replace(&mut bound[key], true) {
                        return Err(SimError::snapshot(
                            SnapshotErrorKind::Corrupt,
                            "a thread is bound to two cores",
                        ));
                    }
                }
            }
            self.core_thread = core_thread;
            self.placement = placement;
        }
        Ok(())
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

/// Rejects unconsumed bytes at the end of a section: the payload passed its
/// checksum but holds more data than this build knows how to restore.
fn finish_section(r: &SectionReader<'_>) -> Result<(), SimError> {
    if r.remaining() != 0 {
        return Err(SimError::snapshot(
            SnapshotErrorKind::Corrupt,
            format!(
                "{} unconsumed bytes at the end of section '{}'",
                r.remaining(),
                r.name()
            ),
        ));
    }
    Ok(())
}

/// Rebinds pending issue events after a reschedule that changed which cores
/// are occupied (possible under [`SchedulingPolicy::Random`]): events on
/// vacated cores are reassigned — earliest times first — to the cores that
/// became occupied, in ascending core order. Events on cores that stayed
/// occupied are untouched, so deterministic policies keep their exact
/// pre-existing schedule.
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
