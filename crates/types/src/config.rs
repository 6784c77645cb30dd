//! Machine configuration (the paper's Table III) and cache geometry.
//!
//! [`MachineConfig::paper_default`] builds the exact 16-core machine used in
//! the study; [`MachineConfigBuilder`] lets callers explore other designs
//! (larger meshes, different LLC sizes, different latencies) while keeping
//! the invariants checked in one place.

use crate::addr::CACHE_LINE_BYTES;
use crate::error::SimError;
use std::fmt;

/// The most cores a machine may have: the directory's sharer sets are
/// 64-bit masks. [`MachineConfigBuilder::build`] refuses more.
pub const MAX_CORES: usize = 64;

/// How many cores share each last-level-cache bank.
///
/// The paper's continuum from private to fully shared:
/// `Private` = 16 x 1 MB, `SharedBy(2)` = 8 x 2 MB, `SharedBy(4)` = 4 x 4 MB,
/// `SharedBy(8)` = 2 x 8 MB, `FullyShared` = 1 x 16 MB (for the 16 MB / 16
/// core default machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingDegree {
    /// Each core has an exclusive LLC partition.
    Private,
    /// `n` cores share each LLC bank; `n` must divide the core count.
    SharedBy(usize),
    /// All cores share a single monolithic LLC.
    FullyShared,
}

impl SharingDegree {
    /// Number of cores sharing one bank, given the machine's core count.
    ///
    /// # Examples
    ///
    /// ```
    /// use consim_types::config::SharingDegree;
    /// assert_eq!(SharingDegree::Private.cores_per_bank(16), 1);
    /// assert_eq!(SharingDegree::SharedBy(4).cores_per_bank(16), 4);
    /// assert_eq!(SharingDegree::FullyShared.cores_per_bank(16), 16);
    /// ```
    pub fn cores_per_bank(self, num_cores: usize) -> usize {
        match self {
            SharingDegree::Private => 1,
            SharingDegree::SharedBy(n) => n,
            SharingDegree::FullyShared => num_cores,
        }
    }

    /// Number of LLC banks, given the machine's core count.
    pub fn num_banks(self, num_cores: usize) -> usize {
        num_cores / self.cores_per_bank(num_cores)
    }

    /// Canonical label used in reports ("private", "shared-4", "shared").
    pub fn label(self) -> String {
        match self {
            SharingDegree::Private => "private".to_string(),
            SharingDegree::SharedBy(n) => format!("shared-{n}"),
            SharingDegree::FullyShared => "shared".to_string(),
        }
    }

    /// All degrees the paper evaluates on a 16-core machine, from the most
    /// partitioned to the most shared.
    pub fn paper_sweep() -> Vec<SharingDegree> {
        vec![
            SharingDegree::Private,
            SharingDegree::SharedBy(2),
            SharingDegree::SharedBy(4),
            SharingDegree::SharedBy(8),
            SharingDegree::FullyShared,
        ]
    }
}

impl fmt::Display for SharingDegree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Parameters of the dynamic (LFOC+-style) LLC repartitioning controller.
///
/// Every field is an integer in fixed-point units (permille weights,
/// milli-slowdowns) so controller decisions are exact, platform-independent,
/// bit-identical across checkpoint/resume, and re-computable by the
/// differential oracle from the same inputs.
///
/// The controller runs at `epoch_interval`-cycle boundaries of the
/// measurement phase. Each epoch it classifies every VM from its epoch
/// deltas — *light* (few L1 misses per reference, or occupying less than
/// one way's worth of LLC capacity), *streaming* (misses mostly served by
/// memory: the cache is not helping), or *cache-sensitive* (the rest) —
/// and redistributes the ways above the per-VM `min_ways` floor across the
/// cache-sensitive VMs proportional to their EWMA slowdown (cycles per
/// reference versus the VM's own best epoch). Hysteresis: no rebalancing
/// while the max−min slowdown spread is within `deadband_milli`, and at
/// most `max_step` ways migrate per boundary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DynamicPolicy {
    /// Cycles between repartitioning decisions. Must be nonzero — a zero
    /// interval would make the epoch boundary degenerate (the controller
    /// would re-run before every access).
    pub epoch_interval: u64,
    /// Floor on the ways any VM may hold (≥ 1; a zero-way VM could never
    /// fill a line).
    pub min_ways: u8,
    /// Maximum number of ways migrated per decision (gradual rebalancing;
    /// displaced lines are evicted by natural replacement, not flushed).
    pub max_step: u8,
    /// EWMA weight of the newest slowdown sample, in permille (1..=1000).
    pub ewma_permille: u32,
    /// Dead-band: skip rebalancing while the max−min EWMA slowdown spread
    /// is at most this many milli-units (1000 = 1.0×).
    pub deadband_milli: u32,
    /// A VM whose epoch L1 misses per reference (permille) fall below this
    /// threshold is classified *light*.
    pub light_miss_permille: u32,
    /// A VM whose epoch memory fetches per L1 miss (permille) exceed this
    /// threshold is classified *streaming*.
    pub stream_memory_permille: u32,
}

impl Default for DynamicPolicy {
    /// A stable, paper-scale tuning: decide every 50k cycles, one way per
    /// step, 30% EWMA weight, 5% slowdown dead-band, light below 0.5%
    /// misses/ref, streaming above 70% memory-served misses.
    fn default() -> Self {
        Self {
            epoch_interval: 50_000,
            min_ways: 1,
            max_step: 1,
            ewma_permille: 300,
            deadband_milli: 50,
            light_miss_permille: 5,
            stream_memory_permille: 700,
        }
    }
}

impl DynamicPolicy {
    /// Validates the VM-count-independent parameter invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `epoch_interval`, `min_ways`,
    /// or `max_step` is zero, or if `ewma_permille` is outside `1..=1000`.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.epoch_interval == 0 {
            return Err(SimError::invalid_config(
                "dynamic repartitioning epoch_interval must be nonzero \
                 (a zero interval degenerates the epoch boundary)",
            ));
        }
        if self.min_ways == 0 {
            return Err(SimError::invalid_config(
                "dynamic repartitioning min_ways must be nonzero",
            ));
        }
        if self.max_step == 0 {
            return Err(SimError::invalid_config(
                "dynamic repartitioning max_step must be nonzero",
            ));
        }
        if self.ewma_permille == 0 || self.ewma_permille > 1000 {
            return Err(SimError::invalid_config(format!(
                "dynamic repartitioning ewma_permille must be in 1..=1000, got {}",
                self.ewma_permille
            )));
        }
        Ok(())
    }
}

/// Deterministic VM lifecycle churn: a seeded birth–death process with
/// optional live migration, evaluated at fixed cycle boundaries of the
/// measurement phase.
///
/// All VMs of the consolidation are declared up front; churn toggles which
/// of them are *active* (bound to cores and issuing references). At every
/// `interval`-cycle boundary the engine derives a fresh RNG stream from the
/// run seed (`churn/epoch` + boundary index) and draws, for every VM in id
/// order, one arrival and one migration chance:
///
/// * an **absent** VM spawns when its arrival draw lands below
///   `arrival_permille[vm]` (its generator is re-seeded so a re-arrival
///   replays a fresh, deterministic reference stream);
/// * an **active** VM retires when the draw lands below
///   `departure_permille[vm]` and more than `min_active` VMs are running —
///   its private caches are invalidated (dirty lines written back to the
///   LLC, directory entries cleaned up) and its cores freed;
/// * otherwise an active VM live-migrates to a different free core set when
///   the second draw lands below `migration_permille` — same private-cache
///   scrub on the old cores, and the re-warming cost is *measured*, not
///   hidden (LLC lines age out naturally under the no-flush rule).
///
/// Rates are per-boundary probabilities in permille; every draw comes from
/// the run's labelled RNG-stream discipline, so churn schedules are
/// bit-reproducible, checkpoint exactly, and are independently re-derived
/// by the differential oracle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChurnPolicy {
    /// Cycles between churn decisions. Must be nonzero — a zero interval
    /// would make the boundary degenerate (re-fire before every access).
    pub interval: u64,
    /// Per-VM arrival probability per boundary, in permille (0..=1000).
    /// Entry count must match the VM count (checked when a simulation is
    /// built).
    pub arrival_permille: Vec<u32>,
    /// Per-VM departure probability per boundary, in permille (0..=1000).
    pub departure_permille: Vec<u32>,
    /// Probability per boundary that an active, non-departing VM migrates
    /// to a fresh core set, in permille (0..=1000).
    pub migration_permille: u32,
    /// How many VMs (ids `0..initial_active`) start active; the rest arrive
    /// through the birth process. Must be at least `min_active`.
    pub initial_active: usize,
    /// Floor on the running VM population; departures that would drop below
    /// it are skipped. Must be nonzero (a zero floor would admit a zero-VM
    /// steady state with no event sources left).
    pub min_active: usize,
    /// Optional restriction on the cores migrations may land on; `None`
    /// allows any free core. Entries must be distinct cores of the machine.
    pub migration_targets: Option<Vec<usize>>,
}

impl ChurnPolicy {
    /// Validates the VM-count- and machine-independent invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `interval` is zero, if
    /// `min_active` is zero (a zero-VM steady state), if `initial_active`
    /// is below `min_active`, if any rate exceeds 1000 permille, or if
    /// `migration_targets` is `Some` but empty.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.interval == 0 {
            return Err(SimError::invalid_config(
                "churn interval must be nonzero \
                 (a zero interval degenerates the churn boundary)",
            ));
        }
        if self.min_active == 0 {
            return Err(SimError::invalid_config(
                "churn min_active must be nonzero \
                 (a zero floor admits a zero-VM steady state)",
            ));
        }
        if self.initial_active < self.min_active {
            return Err(SimError::invalid_config(format!(
                "churn initial_active ({}) must be at least min_active ({})",
                self.initial_active, self.min_active
            )));
        }
        for (name, rates) in [
            ("arrival_permille", &self.arrival_permille),
            ("departure_permille", &self.departure_permille),
        ] {
            if let Some(&bad) = rates.iter().find(|&&r| r > 1000) {
                return Err(SimError::invalid_config(format!(
                    "churn {name} entries must be at most 1000, got {bad}"
                )));
            }
        }
        if self.migration_permille > 1000 {
            return Err(SimError::invalid_config(format!(
                "churn migration_permille must be at most 1000, got {}",
                self.migration_permille
            )));
        }
        if let Some(targets) = &self.migration_targets {
            if targets.is_empty() {
                return Err(SimError::invalid_config(
                    "churn migration_targets must be non-empty when present",
                ));
            }
        }
        Ok(())
    }
}

/// Per-VM LLC way-partitioning (cache QoS).
///
/// Server-consolidation QoS proposals isolate co-scheduled VMs by
/// restricting which *ways* of each LLC set a VM may allocate into.
/// Partitioning is enforced at insertion (victim selection): lookups and
/// invalidations still see the whole set, so coherence is unaffected —
/// only capacity allocation is constrained.
///
/// # Examples
///
/// ```
/// use consim_types::config::LlcPartitioning;
///
/// // 16 ways split equally across 4 VMs: 4 contiguous ways each.
/// let masks = LlcPartitioning::EqualWays.way_masks(16, 4).unwrap().unwrap();
/// assert_eq!(masks, vec![0x000f, 0x00f0, 0x0f00, 0xf000]);
///
/// // Explicit split: VM 0 gets half the cache.
/// let skew = LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2]);
/// let masks = skew.way_masks(16, 4).unwrap().unwrap();
/// assert_eq!(masks[0].count_ones(), 8);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub enum LlcPartitioning {
    /// No partitioning: every VM may allocate into every way (the paper's
    /// baseline machine).
    #[default]
    None,
    /// The bank associativity is divided as evenly as possible across VMs.
    ///
    /// Remainder rule (documented and pinned by tests — a deterministic
    /// round-robin of the leftover ways): every VM gets
    /// `associativity / num_vms` ways, and the first `associativity %
    /// num_vms` VMs (in VM-id order) get exactly one extra way each. E.g.
    /// 16 ways / 3 VMs → 6/5/5; 8 ways / 5 VMs → 2/2/2/1/1. Masks are
    /// contiguous, lowest ways to VM 0.
    EqualWays,
    /// An explicit per-VM way quota; entry `i` is the number of ways VM `i`
    /// may occupy. Entries must be nonzero, sum to the LLC associativity,
    /// and match the VM count one-to-one.
    ExplicitWays(Vec<u8>),
    /// Online fairness-aware repartitioning: starts from the
    /// [`LlcPartitioning::EqualWays`] split and lets a deterministic
    /// controller rebalance contiguous way masks at epoch boundaries of the
    /// measurement phase (see [`DynamicPolicy`]).
    Dynamic(DynamicPolicy),
}

impl LlcPartitioning {
    /// Canonical label used in reports and run manifests
    /// ("none", "equal-ways", "ways-8/4/2/2").
    pub fn label(&self) -> String {
        match self {
            LlcPartitioning::None => "none".to_string(),
            LlcPartitioning::EqualWays => "equal-ways".to_string(),
            LlcPartitioning::ExplicitWays(ways) => {
                let parts: Vec<String> = ways.iter().map(u8::to_string).collect();
                format!("ways-{}", parts.join("/"))
            }
            LlcPartitioning::Dynamic(_) => "dynamic".to_string(),
        }
    }

    /// Computes the per-VM allowed-way bitmasks for an LLC bank of the given
    /// associativity, or `None` when partitioning is disabled. Each VM gets
    /// a contiguous run of ways; bit `w` of `masks[vm]` is set when VM `vm`
    /// may allocate into way `w`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the associativity exceeds 64
    /// (mask width), if there are more VMs than ways, if an explicit quota
    /// has a zero entry, does not sum to the associativity, or does not have
    /// exactly one entry per VM.
    pub fn way_masks(
        &self,
        associativity: usize,
        num_vms: usize,
    ) -> Result<Option<Vec<u64>>, SimError> {
        let quotas: Vec<usize> = match self {
            LlcPartitioning::None => return Ok(None),
            LlcPartitioning::EqualWays => {
                if num_vms == 0 || num_vms > associativity {
                    return Err(SimError::invalid_config(format!(
                        "equal-ways partitioning needs 1..={associativity} VMs \
                         for a {associativity}-way LLC, got {num_vms}"
                    )));
                }
                let base = associativity / num_vms;
                let extra = associativity % num_vms;
                (0..num_vms)
                    .map(|vm| base + usize::from(vm < extra))
                    .collect()
            }
            LlcPartitioning::ExplicitWays(ways) => {
                if ways.len() != num_vms {
                    return Err(SimError::invalid_config(format!(
                        "explicit way partitioning has {} entries for {num_vms} VMs",
                        ways.len()
                    )));
                }
                if ways.contains(&0) {
                    return Err(SimError::invalid_config(
                        "explicit way partitioning entries must be nonzero",
                    ));
                }
                let sum: usize = ways.iter().map(|&w| w as usize).sum();
                if sum != associativity {
                    return Err(SimError::invalid_config(format!(
                        "explicit way partitioning sums to {sum} ways, \
                         LLC associativity is {associativity}"
                    )));
                }
                ways.iter().map(|&w| w as usize).collect()
            }
            LlcPartitioning::Dynamic(p) => {
                p.validate()?;
                if num_vms == 0 || num_vms > associativity {
                    return Err(SimError::invalid_config(format!(
                        "dynamic partitioning needs 1..={associativity} VMs \
                         for a {associativity}-way LLC, got {num_vms}"
                    )));
                }
                if p.min_ways as usize * num_vms > associativity {
                    return Err(SimError::invalid_config(format!(
                        "dynamic partitioning needs min_ways ({}) × VMs ({num_vms}) \
                         ≤ LLC associativity ({associativity})",
                        p.min_ways
                    )));
                }
                // Initial placement before the first decision: the same
                // deterministic equal split as `EqualWays` (the controller
                // rebalances from here). `min_ways × vms ≤ assoc` implies
                // every equal share is already ≥ `min_ways`.
                let base = associativity / num_vms;
                let extra = associativity % num_vms;
                (0..num_vms)
                    .map(|vm| base + usize::from(vm < extra))
                    .collect()
            }
        };
        if associativity > 64 {
            return Err(SimError::invalid_config(format!(
                "way partitioning supports at most 64-way LLCs, got {associativity}"
            )));
        }
        let mut masks = Vec::with_capacity(quotas.len());
        let mut start = 0usize;
        for quota in quotas {
            let mask = if quota == 64 {
                u64::MAX
            } else {
                ((1u64 << quota) - 1) << start
            };
            masks.push(mask);
            start += quota;
        }
        Ok(Some(masks))
    }
}

impl fmt::Display for LlcPartitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Size/shape/latency of one cache level.
///
/// # Examples
///
/// ```
/// use consim_types::config::CacheGeometry;
///
/// let l1 = CacheGeometry::new(64 * 1024, 4, 2).unwrap();
/// assert_eq!(l1.num_lines(), 1024);
/// assert_eq!(l1.num_sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub total_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheGeometry {
    /// Creates a geometry, validating that the capacity is a whole number of
    /// sets of 64 B lines and that a set has at most 64 ways (caches keep
    /// way masks in a `u64`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `total_bytes` is not a multiple
    /// of `associativity * 64`, if the associativity exceeds 64, or if the
    /// size or associativity is zero.
    pub fn new(total_bytes: usize, associativity: usize, latency: u64) -> Result<Self, SimError> {
        if total_bytes == 0 || associativity == 0 {
            return Err(SimError::invalid_config(
                "cache size and associativity must be nonzero",
            ));
        }
        if associativity > 64 {
            return Err(SimError::invalid_config(format!(
                "caches support at most 64 ways, got {associativity}"
            )));
        }
        let set_bytes = associativity * CACHE_LINE_BYTES;
        if !total_bytes.is_multiple_of(set_bytes) {
            return Err(SimError::invalid_config(format!(
                "cache of {total_bytes} bytes is not a whole number of {associativity}-way sets"
            )));
        }
        Ok(Self {
            total_bytes,
            associativity,
            latency,
        })
    }

    /// Total number of 64 B lines the cache can hold.
    pub fn num_lines(&self) -> usize {
        self.total_bytes / CACHE_LINE_BYTES
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_lines() / self.associativity
    }

    /// Returns a copy scaled to `bytes` total capacity (same associativity
    /// and latency). Used to split the aggregate LLC into banks.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the scaled size is not a whole
    /// number of sets.
    pub fn with_total_bytes(&self, bytes: usize) -> Result<Self, SimError> {
        Self::new(bytes, self.associativity, self.latency)
    }
}

/// Full machine description (the paper's Table III plus simulator knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of in-order cores (16 in the paper; at most [`MAX_CORES`]).
    pub num_cores: usize,
    /// Mesh width; the mesh is `mesh_width x (num_cores / mesh_width)`.
    pub mesh_width: usize,
    /// Private L0 geometry (8 KB / 1 cycle).
    pub l0: CacheGeometry,
    /// Private L1 geometry (64 KB / 2 cycles).
    pub l1: CacheGeometry,
    /// Aggregate LLC geometry (16 MB / 6 cycles); divided into banks by
    /// `sharing`.
    pub llc: CacheGeometry,
    /// LLC sharing degree.
    pub sharing: SharingDegree,
    /// Per-VM LLC way-partitioning policy (QoS); [`LlcPartitioning::None`]
    /// reproduces the paper's unpartitioned machine exactly.
    pub llc_partitioning: LlcPartitioning,
    /// DRAM access latency in cycles (150 in the paper).
    pub memory_latency: u64,
    /// Cycles each access occupies a memory controller (bandwidth model:
    /// one controller serves one request per this many cycles).
    pub memory_occupancy: u64,
    /// Number of memory controllers attached to the mesh (4).
    pub num_memory_controllers: usize,
    /// Per-hop link traversal latency in cycles.
    pub link_latency: u64,
    /// Router pipeline depth in cycles (3-stage in the paper).
    pub router_pipeline: u64,
    /// Directory-cache entries per home node; a directory-cache miss costs an
    /// extra off-chip access.
    pub directory_cache_entries: usize,
    /// Average non-memory instructions executed between two memory
    /// references (in-order, 1 IPC).
    pub instructions_per_memory_op: u64,
    /// Optional VM lifecycle churn (birth–death arrivals, departures and
    /// live migration); `None` reproduces the paper's static population.
    pub churn: Option<ChurnPolicy>,
}

impl MachineConfig {
    /// The machine from the paper's Table III.
    ///
    /// # Examples
    ///
    /// ```
    /// use consim_types::config::MachineConfig;
    /// let m = MachineConfig::paper_default();
    /// assert_eq!(m.num_cores, 16);
    /// assert_eq!(m.memory_latency, 150);
    /// assert_eq!(m.llc_banks(), 1); // fully shared by default
    /// ```
    pub fn paper_default() -> Self {
        MachineConfigBuilder::new()
            .build()
            .expect("paper default configuration is valid")
    }

    /// Returns a copy with a different LLC sharing degree.
    pub fn with_sharing(&self, sharing: SharingDegree) -> Self {
        let mut copy = self.clone();
        copy.sharing = sharing;
        copy
    }

    /// Returns a copy with a different LLC way-partitioning policy. The
    /// policy is re-validated against the VM count when a simulation is
    /// built from the config.
    pub fn with_llc_partitioning(&self, partitioning: LlcPartitioning) -> Self {
        let mut copy = self.clone();
        copy.llc_partitioning = partitioning;
        copy
    }

    /// Returns a copy with a VM lifecycle churn policy. The per-VM rate
    /// vectors are re-validated against the VM count when a simulation is
    /// built from the config.
    pub fn with_churn(&self, churn: ChurnPolicy) -> Self {
        let mut copy = self.clone();
        copy.churn = Some(churn);
        copy
    }

    /// Number of LLC banks under the current sharing degree.
    pub fn llc_banks(&self) -> usize {
        self.sharing.num_banks(self.num_cores)
    }

    /// Number of cores sharing each LLC bank.
    pub fn cores_per_bank(&self) -> usize {
        self.sharing.cores_per_bank(self.num_cores)
    }

    /// Geometry of a single LLC bank (aggregate capacity / bank count).
    ///
    /// # Panics
    ///
    /// Panics if the aggregate LLC cannot be split evenly — prevented at
    /// build time by [`MachineConfigBuilder::build`].
    pub fn llc_bank_geometry(&self) -> CacheGeometry {
        let banks = self.llc_banks();
        self.llc
            .with_total_bytes(self.llc.total_bytes / banks)
            .expect("validated at build time")
    }

    /// The LLC bank serving a given core: cores are grouped contiguously,
    /// `[0..n)`, `[n..2n)`, ... as in the paper's Figure 1.
    pub fn bank_of_core(&self, core: crate::ids::CoreId) -> crate::ids::BankId {
        crate::ids::BankId::new(core.index() / self.cores_per_bank())
    }

    /// The cores attached to a given LLC bank.
    pub fn cores_of_bank(&self, bank: crate::ids::BankId) -> std::ops::Range<usize> {
        let n = self.cores_per_bank();
        bank.index() * n..(bank.index() + 1) * n
    }

    /// Mesh height.
    pub fn mesh_height(&self) -> usize {
        self.num_cores / self.mesh_width
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`MachineConfig`] ([C-BUILDER]).
///
/// # Examples
///
/// ```
/// use consim_types::config::{MachineConfigBuilder, SharingDegree};
///
/// let machine = MachineConfigBuilder::new()
///     .sharing(SharingDegree::SharedBy(4))
///     .memory_latency(200)
///     .build()?;
/// assert_eq!(machine.llc_banks(), 4);
/// # Ok::<(), consim_types::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    num_cores: usize,
    mesh_width: usize,
    l0: CacheGeometry,
    l1: CacheGeometry,
    llc: CacheGeometry,
    sharing: SharingDegree,
    llc_partitioning: LlcPartitioning,
    memory_latency: u64,
    memory_occupancy: u64,
    num_memory_controllers: usize,
    link_latency: u64,
    router_pipeline: u64,
    directory_cache_entries: usize,
    instructions_per_memory_op: u64,
    churn: Option<ChurnPolicy>,
}

impl MachineConfigBuilder {
    /// Starts from the paper's Table III values.
    pub fn new() -> Self {
        Self {
            num_cores: 16,
            mesh_width: 4,
            l0: CacheGeometry {
                total_bytes: 8 * 1024,
                associativity: 2,
                latency: 1,
            },
            l1: CacheGeometry {
                total_bytes: 64 * 1024,
                associativity: 4,
                latency: 2,
            },
            llc: CacheGeometry {
                total_bytes: 16 * 1024 * 1024,
                associativity: 16,
                latency: 6,
            },
            sharing: SharingDegree::FullyShared,
            llc_partitioning: LlcPartitioning::None,
            memory_latency: 150,
            memory_occupancy: 30,
            num_memory_controllers: 4,
            link_latency: 1,
            router_pipeline: 3,
            directory_cache_entries: 8192,
            instructions_per_memory_op: 2,
            churn: None,
        }
    }

    /// Sets the core count.
    pub fn num_cores(&mut self, n: usize) -> &mut Self {
        self.num_cores = n;
        self
    }

    /// Sets the mesh width (must divide the core count).
    pub fn mesh_width(&mut self, w: usize) -> &mut Self {
        self.mesh_width = w;
        self
    }

    /// Sets the private L0 geometry.
    pub fn l0(&mut self, geom: CacheGeometry) -> &mut Self {
        self.l0 = geom;
        self
    }

    /// Sets the private L1 geometry.
    pub fn l1(&mut self, geom: CacheGeometry) -> &mut Self {
        self.l1 = geom;
        self
    }

    /// Sets the aggregate LLC geometry.
    pub fn llc(&mut self, geom: CacheGeometry) -> &mut Self {
        self.llc = geom;
        self
    }

    /// Sets the LLC sharing degree.
    pub fn sharing(&mut self, sharing: SharingDegree) -> &mut Self {
        self.sharing = sharing;
        self
    }

    /// Sets the per-VM LLC way-partitioning policy.
    pub fn llc_partitioning(&mut self, partitioning: LlcPartitioning) -> &mut Self {
        self.llc_partitioning = partitioning;
        self
    }

    /// Sets the DRAM latency.
    pub fn memory_latency(&mut self, cycles: u64) -> &mut Self {
        self.memory_latency = cycles;
        self
    }

    /// Sets the per-access memory-controller occupancy (bandwidth).
    pub fn memory_occupancy(&mut self, cycles: u64) -> &mut Self {
        self.memory_occupancy = cycles;
        self
    }

    /// Sets the number of memory controllers.
    pub fn num_memory_controllers(&mut self, n: usize) -> &mut Self {
        self.num_memory_controllers = n;
        self
    }

    /// Sets the per-hop link latency.
    pub fn link_latency(&mut self, cycles: u64) -> &mut Self {
        self.link_latency = cycles;
        self
    }

    /// Sets the router pipeline depth.
    pub fn router_pipeline(&mut self, cycles: u64) -> &mut Self {
        self.router_pipeline = cycles;
        self
    }

    /// Sets the per-node directory-cache capacity (entries).
    pub fn directory_cache_entries(&mut self, entries: usize) -> &mut Self {
        self.directory_cache_entries = entries;
        self
    }

    /// Sets the mean number of non-memory instructions between references.
    pub fn instructions_per_memory_op(&mut self, n: u64) -> &mut Self {
        self.instructions_per_memory_op = n;
        self
    }

    /// Sets the VM lifecycle churn policy (`None` = static population).
    pub fn churn(&mut self, churn: Option<ChurnPolicy>) -> &mut Self {
        self.churn = churn;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if:
    /// * the core count exceeds [`MAX_CORES`];
    /// * the mesh width does not divide the core count;
    /// * the sharing degree does not divide the core count;
    /// * the LLC cannot be split into equal banks of whole sets;
    /// * a cache level has more than 64 ways;
    /// * any count is zero.
    pub fn build(&self) -> Result<MachineConfig, SimError> {
        if self.num_cores == 0 {
            return Err(SimError::invalid_config("machine needs at least one core"));
        }
        if self.num_cores > MAX_CORES {
            return Err(SimError::invalid_config(format!(
                "{} cores exceed the {MAX_CORES}-core limit",
                self.num_cores
            )));
        }
        if self.mesh_width == 0 || !self.num_cores.is_multiple_of(self.mesh_width) {
            return Err(SimError::invalid_config(format!(
                "mesh width {} does not divide core count {}",
                self.mesh_width, self.num_cores
            )));
        }
        let per_bank = self.sharing.cores_per_bank(self.num_cores);
        if per_bank == 0 || !self.num_cores.is_multiple_of(per_bank) {
            return Err(SimError::invalid_config(format!(
                "sharing degree {} does not divide core count {}",
                self.sharing, self.num_cores
            )));
        }
        let banks = self.num_cores / per_bank;
        if !self.llc.total_bytes.is_multiple_of(banks) {
            return Err(SimError::invalid_config(format!(
                "LLC of {} bytes does not split into {banks} equal banks",
                self.llc.total_bytes
            )));
        }
        // Validate that each bank is a whole number of sets of at most 64
        // ways (this also bounds every way mask the partitioning builds).
        self.llc.with_total_bytes(self.llc.total_bytes / banks)?;
        // Re-validate the per-level geometries (caller may have constructed
        // them directly with struct syntax through a config copy).
        CacheGeometry::new(self.l0.total_bytes, self.l0.associativity, self.l0.latency)?;
        CacheGeometry::new(self.l1.total_bytes, self.l1.associativity, self.l1.latency)?;
        if self.num_memory_controllers == 0 || self.num_memory_controllers > self.num_cores {
            return Err(SimError::invalid_config(
                "memory controller count must be in 1..=num_cores",
            ));
        }
        // Way-partitioning constraints that don't need the VM count are
        // checked here; the per-VM checks (entry count vs VMs, equal split
        // feasibility) re-run in `SimulationConfigBuilder::build`.
        match &self.llc_partitioning {
            LlcPartitioning::None | LlcPartitioning::EqualWays => {}
            LlcPartitioning::ExplicitWays(ways) => {
                // Validating with num_vms = len checks mask width, nonzero
                // entries, and the sum-to-associativity invariant.
                self.llc_partitioning
                    .way_masks(self.llc.associativity, ways.len())?;
            }
            LlcPartitioning::Dynamic(p) => p.validate()?,
        }
        // The directory cache is 8-way set-associative; a capacity that is
        // not a whole number of sets would otherwise only be rejected much
        // later, at simulation construction, with a confusing byte count.
        if self.directory_cache_entries == 0 || !self.directory_cache_entries.is_multiple_of(8) {
            return Err(SimError::invalid_config(format!(
                "directory cache capacity must be a positive multiple of 8 entries, got {}",
                self.directory_cache_entries
            )));
        }
        // Churn invariants that don't need the VM count; per-VM rate-vector
        // lengths and active-population bounds re-run in
        // `SimulationConfigBuilder::build`.
        if let Some(churn) = &self.churn {
            churn.validate()?;
            if let Some(targets) = &churn.migration_targets {
                if let Some(&bad) = targets.iter().find(|&&c| c >= self.num_cores) {
                    return Err(SimError::invalid_config(format!(
                        "churn migration target core {bad} is outside the \
                         machine's {} cores",
                        self.num_cores
                    )));
                }
                let mut seen = targets.clone();
                seen.sort_unstable();
                seen.dedup();
                if seen.len() != targets.len() {
                    return Err(SimError::invalid_config(
                        "churn migration_targets must be distinct cores",
                    ));
                }
            }
        }
        Ok(MachineConfig {
            num_cores: self.num_cores,
            mesh_width: self.mesh_width,
            l0: self.l0,
            l1: self.l1,
            llc: self.llc,
            sharing: self.sharing,
            llc_partitioning: self.llc_partitioning.clone(),
            memory_latency: self.memory_latency,
            memory_occupancy: self.memory_occupancy,
            num_memory_controllers: self.num_memory_controllers,
            link_latency: self.link_latency,
            router_pipeline: self.router_pipeline,
            directory_cache_entries: self.directory_cache_entries,
            instructions_per_memory_op: self.instructions_per_memory_op,
            churn: self.churn.clone(),
        })
    }
}

impl Default for MachineConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BankId, CoreId};

    #[test]
    fn paper_default_matches_table3() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.num_cores, 16);
        assert_eq!(m.mesh_width, 4);
        assert_eq!(m.l0.total_bytes, 8 * 1024);
        assert_eq!(m.l0.latency, 1);
        assert_eq!(m.l1.total_bytes, 64 * 1024);
        assert_eq!(m.l1.latency, 2);
        assert_eq!(m.llc.total_bytes, 16 * 1024 * 1024);
        assert_eq!(m.llc.latency, 6);
        assert_eq!(m.memory_latency, 150);
        assert_eq!(m.router_pipeline, 3);
    }

    #[test]
    fn directory_cache_capacity_must_fit_whole_sets() {
        // Regression (found by consim-check differential fuzzing): a
        // capacity that is not a multiple of the directory cache's 8-way
        // associativity used to pass config validation and only fail at
        // simulation construction with a confusing byte-count message.
        let mut b = MachineConfigBuilder::new();
        b.directory_cache_entries(12);
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("multiple of 8"), "unexpected error: {err}");
        b.directory_cache_entries(16);
        assert!(b.build().is_ok());
    }

    #[test]
    fn core_count_is_capped_at_max_cores() {
        // The directory's sharer sets are 64-bit masks: a larger machine
        // used to pass this builder and panic at simulation construction.
        let mut b = MachineConfigBuilder::new();
        b.num_cores(2 * MAX_CORES).mesh_width(16);
        let err = b.build().unwrap_err().to_string();
        assert!(err.contains("64-core limit"), "unexpected error: {err}");
        b.num_cores(MAX_CORES).mesh_width(8);
        assert_eq!(b.build().unwrap().num_cores, 64);
    }

    #[test]
    fn sharing_degrees_partition_the_llc() {
        let m = MachineConfig::paper_default();
        let cases = [
            (SharingDegree::Private, 16, 1 << 20),
            (SharingDegree::SharedBy(2), 8, 2 << 20),
            (SharingDegree::SharedBy(4), 4, 4 << 20),
            (SharingDegree::SharedBy(8), 2, 8 << 20),
            (SharingDegree::FullyShared, 1, 16 << 20),
        ];
        for (deg, banks, bank_bytes) in cases {
            let m = m.with_sharing(deg);
            assert_eq!(m.llc_banks(), banks, "{deg}");
            assert_eq!(m.llc_bank_geometry().total_bytes, bank_bytes, "{deg}");
        }
    }

    #[test]
    fn bank_of_core_groups_contiguously() {
        let m = MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4));
        assert_eq!(m.bank_of_core(CoreId::new(0)), BankId::new(0));
        assert_eq!(m.bank_of_core(CoreId::new(3)), BankId::new(0));
        assert_eq!(m.bank_of_core(CoreId::new(4)), BankId::new(1));
        assert_eq!(m.bank_of_core(CoreId::new(15)), BankId::new(3));
        assert_eq!(m.cores_of_bank(BankId::new(2)), 8..12);
    }

    #[test]
    fn builder_rejects_bad_mesh() {
        let err = MachineConfigBuilder::new()
            .mesh_width(5)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("mesh width"));
    }

    #[test]
    fn builder_rejects_bad_sharing() {
        let err = MachineConfigBuilder::new()
            .sharing(SharingDegree::SharedBy(3))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("sharing degree"));
    }

    #[test]
    fn builder_rejects_zero_cores() {
        assert!(MachineConfigBuilder::new().num_cores(0).build().is_err());
    }

    #[test]
    fn builder_rejects_too_many_memory_controllers() {
        assert!(MachineConfigBuilder::new()
            .num_memory_controllers(17)
            .build()
            .is_err());
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(0, 4, 1).is_err());
        assert!(CacheGeometry::new(64 * 3, 2, 1).is_err()); // 192 B / 2-way = 1.5 sets
        let g = CacheGeometry::new(8 * 1024, 2, 1).unwrap();
        assert_eq!(g.num_lines(), 128);
        assert_eq!(g.num_sets(), 64);
    }

    /// Caches keep way masks in a `u64`, so a set has at most 64 ways; the
    /// geometry is the one place that says so, and the machine builder
    /// re-validates the LLC through it whatever the partitioning.
    #[test]
    fn geometry_allows_at_most_64_ways() {
        for ways in [0, 65, 128] {
            let err = CacheGeometry::new(ways.max(1) * 64, ways, 1).unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{ways}: {err}");
        }
        assert_eq!(CacheGeometry::new(64 * 64, 64, 1).unwrap().num_sets(), 1);
        let llc = CacheGeometry {
            total_bytes: 16 * 1024 * 1024,
            associativity: 128,
            latency: 6,
        };
        let err = MachineConfigBuilder::new().llc(llc).build().unwrap_err();
        assert!(err.to_string().contains("at most 64 ways"), "{err}");
    }

    #[test]
    fn sharing_labels() {
        assert_eq!(SharingDegree::Private.label(), "private");
        assert_eq!(SharingDegree::SharedBy(8).label(), "shared-8");
        assert_eq!(SharingDegree::FullyShared.label(), "shared");
    }

    #[test]
    fn paper_sweep_order() {
        let sweep = SharingDegree::paper_sweep();
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0], SharingDegree::Private);
        assert_eq!(sweep[4], SharingDegree::FullyShared);
    }

    #[test]
    fn mesh_height() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.mesh_height(), 4);
    }

    #[test]
    fn partitioning_defaults_to_none() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.llc_partitioning, LlcPartitioning::None);
        assert_eq!(m.llc_partitioning.way_masks(16, 4).unwrap(), None);
    }

    #[test]
    fn equal_ways_masks_are_contiguous_and_disjoint() {
        let masks = LlcPartitioning::EqualWays
            .way_masks(16, 4)
            .unwrap()
            .unwrap();
        assert_eq!(masks, vec![0x000f, 0x00f0, 0x0f00, 0xf000]);
        // Uneven split: first `ways % vms` VMs get the extra way.
        let masks = LlcPartitioning::EqualWays
            .way_masks(16, 3)
            .unwrap()
            .unwrap();
        assert_eq!(
            masks.iter().map(|m| m.count_ones()).collect::<Vec<_>>(),
            vec![6, 5, 5]
        );
        assert_eq!(masks.iter().fold(0u64, |acc, m| acc | m), 0xffff);
        assert!(masks
            .iter()
            .enumerate()
            .all(|(i, m)| masks[..i].iter().all(|prev| prev & m == 0)));
    }

    #[test]
    fn equal_ways_remainder_rule_is_pinned() {
        // The documented deterministic rule: base = ways / vms, and the
        // first `ways % vms` VMs (by id) get exactly one extra way, masks
        // contiguous from way 0. Pinned for 3 VMs / 16 ways...
        let masks = LlcPartitioning::EqualWays
            .way_masks(16, 3)
            .unwrap()
            .unwrap();
        assert_eq!(masks, vec![0x003f, 0x07c0, 0xf800]); // 6 | 5 | 5
                                                         // ...and 5 VMs / 8 ways.
        let masks = LlcPartitioning::EqualWays.way_masks(8, 5).unwrap().unwrap();
        assert_eq!(
            masks.iter().map(|m| m.count_ones()).collect::<Vec<_>>(),
            vec![2, 2, 2, 1, 1]
        );
        assert_eq!(
            masks,
            vec![
                0b0000_0011,
                0b0000_1100,
                0b0011_0000,
                0b0100_0000,
                0b1000_0000
            ]
        );
        assert_eq!(masks.iter().fold(0u64, |acc, m| acc | m), 0xff);
        assert!(masks
            .iter()
            .enumerate()
            .all(|(i, m)| masks[..i].iter().all(|prev| prev & m == 0)));
    }

    #[test]
    fn equal_ways_rejects_more_vms_than_ways() {
        let err = LlcPartitioning::EqualWays.way_masks(2, 3).unwrap_err();
        assert!(err.to_string().contains("equal-ways"));
    }

    #[test]
    fn explicit_ways_must_sum_to_associativity() {
        let p = LlcPartitioning::ExplicitWays(vec![8, 4, 2]);
        let err = p.way_masks(16, 3).unwrap_err();
        assert!(err.to_string().contains("sums to 14"), "{err}");
        let err = MachineConfigBuilder::new()
            .llc_partitioning(p)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("sums to 14"), "{err}");
    }

    #[test]
    fn explicit_ways_must_match_vm_count() {
        let p = LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2]);
        assert!(p.way_masks(16, 4).is_ok());
        let err = p.way_masks(16, 3).unwrap_err();
        assert!(err.to_string().contains("4 entries for 3 VMs"), "{err}");
    }

    #[test]
    fn explicit_ways_rejects_zero_quota() {
        let p = LlcPartitioning::ExplicitWays(vec![16, 0]);
        assert!(p.way_masks(16, 2).is_err());
    }

    #[test]
    fn full_width_mask_does_not_overflow() {
        let p = LlcPartitioning::ExplicitWays(vec![64]);
        let masks = p.way_masks(64, 1).unwrap().unwrap();
        assert_eq!(masks, vec![u64::MAX]);
        assert!(p.way_masks(65, 1).is_err());
    }

    #[test]
    fn partitioning_labels() {
        assert_eq!(LlcPartitioning::None.label(), "none");
        assert_eq!(LlcPartitioning::EqualWays.label(), "equal-ways");
        assert_eq!(
            LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2]).to_string(),
            "ways-8/4/2/2"
        );
        assert_eq!(
            LlcPartitioning::Dynamic(DynamicPolicy::default()).label(),
            "dynamic"
        );
    }

    #[test]
    fn dynamic_initial_masks_equal_the_equal_ways_split() {
        let dynamic = LlcPartitioning::Dynamic(DynamicPolicy::default());
        for (assoc, vms) in [(16, 4), (16, 3), (8, 5), (64, 1)] {
            assert_eq!(
                dynamic.way_masks(assoc, vms).unwrap(),
                LlcPartitioning::EqualWays.way_masks(assoc, vms).unwrap(),
                "{assoc}-way / {vms} VMs"
            );
        }
    }

    #[test]
    fn builder_rejects_zero_dynamic_epoch_interval() {
        // Satellite bugfix: a zero interval would make the repartition
        // boundary degenerate (`next = start.saturating_add(0)` re-fires
        // before every access), so it is a typed config error at build time.
        let p = DynamicPolicy {
            epoch_interval: 0,
            ..DynamicPolicy::default()
        };
        let err = MachineConfigBuilder::new()
            .llc_partitioning(LlcPartitioning::Dynamic(p.clone()))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("epoch_interval"), "{err}");
        // The same rejection guards the VM-aware path used by the
        // simulation builder (reachable via `with_llc_partitioning`).
        let err = LlcPartitioning::Dynamic(p).way_masks(16, 4).unwrap_err();
        assert!(err.to_string().contains("epoch_interval"), "{err}");
    }

    #[test]
    fn dynamic_parameter_validation() {
        let ok = DynamicPolicy::default();
        assert!(ok.validate().is_ok());
        for bad in [
            DynamicPolicy {
                min_ways: 0,
                ..ok.clone()
            },
            DynamicPolicy {
                max_step: 0,
                ..ok.clone()
            },
            DynamicPolicy {
                ewma_permille: 0,
                ..ok.clone()
            },
            DynamicPolicy {
                ewma_permille: 1001,
                ..ok.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
            assert!(MachineConfigBuilder::new()
                .llc_partitioning(LlcPartitioning::Dynamic(bad))
                .build()
                .is_err());
        }
    }

    #[test]
    fn dynamic_min_ways_feasibility_is_vm_aware() {
        let p = DynamicPolicy {
            min_ways: 3,
            ..DynamicPolicy::default()
        };
        let part = LlcPartitioning::Dynamic(p);
        // 3 ways × 5 VMs = 15 ≤ 16: feasible.
        assert!(part.way_masks(16, 5).is_ok());
        // 3 ways × 6 VMs = 18 > 16: rejected with a typed error.
        let err = part.way_masks(16, 6).unwrap_err();
        assert!(err.to_string().contains("min_ways"), "{err}");
        // More VMs than ways is rejected like the static policies.
        assert!(LlcPartitioning::Dynamic(DynamicPolicy::default())
            .way_masks(4, 5)
            .is_err());
    }

    fn churn_policy() -> ChurnPolicy {
        ChurnPolicy {
            interval: 20_000,
            arrival_permille: vec![200, 200],
            departure_permille: vec![100, 100],
            migration_permille: 150,
            initial_active: 2,
            min_active: 1,
            migration_targets: None,
        }
    }

    #[test]
    fn builder_accepts_valid_churn() {
        let m = MachineConfigBuilder::new()
            .churn(Some(churn_policy()))
            .build()
            .unwrap();
        assert_eq!(m.churn, Some(churn_policy()));
        // `with_churn` is the sweep-style helper, like `with_sharing`.
        let m2 = MachineConfig::paper_default().with_churn(churn_policy());
        assert_eq!(m2.churn, Some(churn_policy()));
    }

    #[test]
    fn builder_rejects_zero_churn_interval() {
        // Same degenerate-boundary rule as the Dynamic epoch_interval: a
        // zero interval would re-fire the churn boundary before every
        // access, so it is a typed config error at build time.
        let p = ChurnPolicy {
            interval: 0,
            ..churn_policy()
        };
        assert!(p.validate().is_err());
        let err = MachineConfigBuilder::new()
            .churn(Some(p))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("interval"), "{err}");
    }

    #[test]
    fn builder_rejects_zero_vm_steady_state() {
        // min_active = 0 would let the birth–death process retire every VM
        // and leave the event loop with no sources.
        let p = ChurnPolicy {
            min_active: 0,
            ..churn_policy()
        };
        let err = MachineConfigBuilder::new()
            .churn(Some(p))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("min_active"), "{err}");
        // initial_active below the floor is equally degenerate.
        let p = ChurnPolicy {
            initial_active: 0,
            ..churn_policy()
        };
        let err = MachineConfigBuilder::new()
            .churn(Some(p))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("initial_active"), "{err}");
    }

    #[test]
    fn builder_rejects_migration_target_outside_machine() {
        let p = ChurnPolicy {
            migration_targets: Some(vec![0, 1, 16]),
            ..churn_policy()
        };
        let err = MachineConfigBuilder::new()
            .churn(Some(p))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
        // Duplicate targets are rejected too.
        let p = ChurnPolicy {
            migration_targets: Some(vec![3, 3]),
            ..churn_policy()
        };
        let err = MachineConfigBuilder::new()
            .churn(Some(p))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("distinct"), "{err}");
        // An empty restriction is a contradiction, not "no restriction".
        let p = ChurnPolicy {
            migration_targets: Some(vec![]),
            ..churn_policy()
        };
        assert!(MachineConfigBuilder::new().churn(Some(p)).build().is_err());
    }

    #[test]
    fn builder_rejects_churn_rates_above_1000() {
        for p in [
            ChurnPolicy {
                arrival_permille: vec![1001, 0],
                ..churn_policy()
            },
            ChurnPolicy {
                departure_permille: vec![0, 2000],
                ..churn_policy()
            },
            ChurnPolicy {
                migration_permille: 1001,
                ..churn_policy()
            },
        ] {
            assert!(p.validate().is_err(), "{p:?}");
            assert!(MachineConfigBuilder::new().churn(Some(p)).build().is_err());
        }
    }
}
