//! Seeded generation of small randomized fuzz cases.
//!
//! A [`FuzzCase`] is a flat, plain-data description of one differential
//! run: machine shape, workload knobs per VM, and run quotas. It is
//! generated from a single `u64` seed (so any failure is replayable from
//! one number), then [canonicalized](FuzzCase::canonicalize) into a valid
//! configuration — the same canonicalization the shrinker relies on to
//! keep its transformed candidates buildable.
//!
//! The generator deliberately over-weights degenerate shapes: one core,
//! one VM, direct-mapped caches, single-set LLC banks, zero warmup. Those
//! corners are where off-by-one and empty-set bugs live, and they also
//! shrink well.

use consim::engine::SimulationConfig;
use consim_cache::ReplacementPolicy;
use consim_sched::SchedulingPolicy;
use consim_types::config::{
    CacheGeometry, ChurnPolicy, DynamicPolicy, LlcPartitioning, MachineConfigBuilder,
    SharingDegree, MAX_CORES,
};
use consim_types::rng::SimRng;
use consim_types::SimError;
use consim_workload::{WorkloadProfile, WorkloadProfileBuilder};

/// Workload knobs for one VM of a fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzVm {
    pub threads: usize,
    pub footprint_blocks: u64,
    pub shared_fraction: f64,
    pub shared_access_prob: f64,
    pub shared_write_prob: f64,
    pub private_write_prob: f64,
    pub shared_zipf: f64,
    pub private_zipf: f64,
    pub recent_reuse_prob: f64,
    pub recent_window: usize,
    pub handoff_access_prob: f64,
    pub handoff_segments: usize,
    pub handoff_segment_blocks: u64,
}

/// One replayable differential-fuzzing case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// The seed this case was generated from (printed on divergence).
    pub case_seed: u64,
    /// The simulation seed (workload streams, random placements).
    pub sim_seed: u64,
    pub num_cores: usize,
    pub mesh_width: usize,
    pub cores_per_bank: usize,
    pub l0_sets: usize,
    pub l0_ways: usize,
    pub l1_sets: usize,
    pub l1_ways: usize,
    pub llc_bank_sets: usize,
    pub llc_ways: usize,
    pub llc_replacement: ReplacementPolicy,
    pub llc_partitioning: LlcPartitioning,
    pub memory_controllers: usize,
    pub directory_cache_entries: usize,
    pub instructions_per_memory_op: u64,
    pub memory_latency: u64,
    pub link_latency: u64,
    pub policy: SchedulingPolicy,
    pub vms: Vec<FuzzVm>,
    pub refs_per_vm: u64,
    pub warmup_refs_per_vm: u64,
    pub prewarm_llc: bool,
    pub reschedule_every: Option<u64>,
    pub churn: Option<ChurnPolicy>,
}

/// Power-of-two sizes weighted toward the degenerate low end.
const CORE_CHOICES: &[usize] = &[1, 1, 2, 2, 4, 4, 8, 16];
const SET_CHOICES: &[usize] = &[1, 1, 2, 4, 8];
const WAY_CHOICES: &[usize] = &[1, 1, 2, 4];
const LLC_POLICIES: &[ReplacementPolicy] = &[
    ReplacementPolicy::Lru,
    ReplacementPolicy::Lru,
    ReplacementPolicy::TreePlru,
    ReplacementPolicy::Random,
];
const POLICIES: &[SchedulingPolicy] = &[
    SchedulingPolicy::RoundRobin,
    SchedulingPolicy::Affinity,
    SchedulingPolicy::RrAffinity,
    SchedulingPolicy::Random,
];

fn pick<T: Copy>(rng: &mut SimRng, choices: &[T]) -> T {
    choices[rng.index(choices.len())]
}

/// Largest divisor of `n` that is `<= want` (falls back to 1).
fn divisor_at_most(n: usize, want: usize) -> usize {
    (1..=want.max(1).min(n))
        .rev()
        .find(|&d| n.is_multiple_of(d))
        .unwrap_or(1)
}

impl FuzzCase {
    /// Deterministically generates (and canonicalizes) the case for a seed.
    pub fn generate(case_seed: u64) -> Self {
        let mut rng = SimRng::from_seed(case_seed).derive("check/case");
        let num_cores = pick(&mut rng, CORE_CHOICES);
        let num_vms = pick(&mut rng, &[1usize, 1, 1, 2, 2, 3]);
        let vms = (0..num_vms)
            .map(|_| {
                let threads = 1 + rng.index(4);
                let footprint_blocks = threads as u64 + 1 + rng.below(96);
                FuzzVm {
                    threads,
                    footprint_blocks,
                    shared_fraction: rng.unit(),
                    shared_access_prob: rng.unit(),
                    shared_write_prob: rng.unit(),
                    private_write_prob: rng.unit(),
                    shared_zipf: rng.unit() * 0.95,
                    private_zipf: rng.unit() * 0.95,
                    recent_reuse_prob: if rng.chance(0.5) { rng.unit() } else { 0.0 },
                    recent_window: 1 + rng.index(8),
                    handoff_access_prob: if rng.chance(0.25) { rng.unit() } else { 0.0 },
                    handoff_segments: threads + rng.index(3),
                    handoff_segment_blocks: 1 + rng.below(4),
                }
            })
            .collect();
        let mut case = FuzzCase {
            case_seed,
            sim_seed: rng.next_u64(),
            num_cores,
            mesh_width: 1 + rng.index(num_cores),
            cores_per_bank: 1 + rng.index(num_cores),
            l0_sets: pick(&mut rng, SET_CHOICES),
            l0_ways: pick(&mut rng, WAY_CHOICES),
            l1_sets: pick(&mut rng, SET_CHOICES),
            l1_ways: pick(&mut rng, WAY_CHOICES),
            llc_bank_sets: pick(&mut rng, SET_CHOICES),
            llc_ways: pick(&mut rng, WAY_CHOICES),
            llc_replacement: ReplacementPolicy::Lru,
            llc_partitioning: LlcPartitioning::None,
            memory_controllers: 1 + rng.index(num_cores),
            directory_cache_entries: 8 * (1 + rng.index(8)),
            instructions_per_memory_op: 1 + rng.below(4),
            memory_latency: 1 + rng.below(400),
            link_latency: 1 + rng.below(4),
            policy: pick(&mut rng, POLICIES),
            vms,
            refs_per_vm: 1 + rng.below(600),
            warmup_refs_per_vm: if rng.chance(0.3) { 0 } else { rng.below(300) },
            prewarm_llc: rng.chance(0.5),
            reschedule_every: if rng.chance(0.3) {
                Some(1 + rng.below(5_000))
            } else {
                None
            },
            churn: None,
        };
        // ~55% of cases exercise way partitioning: ~30% the dynamic
        // repartitioning controller (short epochs, so decisions fire and
        // ways actually move inside tiny runs), the rest split between the
        // two static policies. Random explicit splits start from one way
        // per VM and sprinkle the rest; canonicalize repairs anything VM
        // shedding or a too-narrow LLC invalidates.
        let partitioning_draw = rng.unit();
        if partitioning_draw < 0.30 {
            case.llc_partitioning = LlcPartitioning::Dynamic(DynamicPolicy {
                epoch_interval: 50 + rng.below(5_000),
                min_ways: 1 + rng.below(2) as u8,
                max_step: 1 + rng.below(2) as u8,
                ewma_permille: 100 + rng.below(800) as u32,
                deadband_milli: rng.below(100) as u32,
                light_miss_permille: rng.below(50) as u32,
                stream_memory_permille: 400 + rng.below(600) as u32,
            });
        } else if partitioning_draw < 0.55 {
            case.llc_partitioning = if rng.chance(0.5) {
                LlcPartitioning::EqualWays
            } else {
                let n = case.vms.len();
                let mut ways = vec![1u8; n];
                for _ in n..case.llc_ways {
                    ways[rng.index(n)] += 1;
                }
                LlcPartitioning::ExplicitWays(ways)
            };
        }
        // ~30% of cases exercise VM lifecycle churn: short intervals so
        // boundaries actually fire inside tiny runs, aggressive rates so
        // spawns, retires, and migrations all occur. Churn replaces
        // periodic rescheduling when drawn (the builder rejects the
        // combination — both would rewrite the core bindings).
        if rng.chance(0.3) {
            case.reschedule_every = None;
            let n = case.vms.len();
            let interval = 50 + rng.below(5_000);
            let arrival: Vec<u32> = (0..n).map(|_| rng.below(1001) as u32).collect();
            let departure: Vec<u32> = (0..n).map(|_| rng.below(1001) as u32).collect();
            let migration = rng.below(1001) as u32;
            let initial_active = 1 + rng.index(n);
            let subset: Vec<usize> = (0..case.num_cores).filter(|_| rng.chance(0.5)).collect();
            let migration_targets = if !subset.is_empty() && rng.chance(0.25) {
                Some(subset)
            } else {
                None
            };
            case.churn = Some(ChurnPolicy {
                interval,
                arrival_permille: arrival,
                departure_permille: departure,
                migration_permille: migration,
                initial_active,
                min_active: 1,
                migration_targets,
            });
        }
        // The LLC policy and a rare wide machine come from a stream of
        // their own, so every other field draws as it would without them:
        // a case that keeps LRU at 16 cores or fewer is what the main
        // stream alone generates. About half the cases keep LRU, a quarter
        // each take tree-PLRU and Random, and 15% grow to 32 or 64 cores
        // with every VM's threads scaled to match.
        let mut space = SimRng::from_seed(case_seed).derive("check/machine-space");
        case.llc_replacement = pick(&mut space, LLC_POLICIES);
        if space.chance(0.15) {
            let num_cores = pick(&mut space, &[32, MAX_CORES]);
            case.num_cores = num_cores;
            case.mesh_width = 1 + space.index(num_cores);
            case.cores_per_bank = 1 + space.index(num_cores);
            case.memory_controllers = 1 + space.index(num_cores);
            for vm in &mut case.vms {
                vm.threads *= num_cores / 16;
            }
        }
        case.canonicalize();
        case
    }

    /// Skews an already-generated case toward the engine's L0/L1-hit fast
    /// path: bigger private caches, strong recent-block reuse, a tighter
    /// footprint, and enough shared-write traffic that
    /// write-hits-on-Shared — the fast path's mandatory bail-out into the
    /// upgrade transaction — actually occur. Used by the CI fuzz smoke's
    /// `--high-locality` pass and the fast-path mutation proof: a
    /// fast-path bug that misclassifies hits shows up most readily in a
    /// stream that is nearly all hits.
    pub fn bias_high_locality(&mut self) {
        self.l0_sets = self.l0_sets.max(4);
        self.l0_ways = self.l0_ways.max(2);
        self.l1_sets = self.l1_sets.max(8);
        self.l1_ways = self.l1_ways.max(2);
        for vm in &mut self.vms {
            vm.recent_reuse_prob = vm.recent_reuse_prob.max(0.8);
            vm.recent_window = vm.recent_window.clamp(1, 8);
            vm.footprint_blocks = vm.footprint_blocks.min(vm.threads as u64 + 32);
            vm.shared_access_prob = vm.shared_access_prob.max(0.3);
            vm.shared_write_prob = vm.shared_write_prob.max(0.2);
        }
        self.canonicalize();
    }

    /// Forces lifecycle churn onto an already-generated case — CI's
    /// `--churn` smoke pass, where every case must exercise the birth–death
    /// draws. Cases that already drew churn keep their policy; the rest get
    /// one derived from the case seed, with arrival rates floored so the
    /// population actually moves inside a tiny run. Periodic rescheduling
    /// is dropped either way (the builder rejects the combination).
    pub fn bias_churn(&mut self) {
        self.reschedule_every = None;
        if self.churn.is_none() {
            let mut rng = SimRng::from_seed(self.case_seed).derive("check/churn-bias");
            let n = self.vms.len();
            self.churn = Some(ChurnPolicy {
                interval: 50 + rng.below(2_000),
                arrival_permille: (0..n).map(|_| 300 + rng.below(701) as u32).collect(),
                departure_permille: (0..n).map(|_| rng.below(701) as u32).collect(),
                migration_permille: rng.below(1001) as u32,
                initial_active: 1 + rng.index(n),
                min_active: 1,
                migration_targets: None,
            });
        }
        self.canonicalize();
    }

    /// Clamps every field into a valid configuration. Idempotent; called
    /// after generation and after every shrink transform.
    pub fn canonicalize(&mut self) {
        self.num_cores = self.num_cores.clamp(1, MAX_CORES);
        if !self.num_cores.is_power_of_two() {
            self.num_cores = self.num_cores.next_power_of_two() / 2;
        }
        self.mesh_width = divisor_at_most(self.num_cores, self.mesh_width);
        self.cores_per_bank = divisor_at_most(self.num_cores, self.cores_per_bank);
        for field in [
            &mut self.l0_sets,
            &mut self.l0_ways,
            &mut self.l1_sets,
            &mut self.l1_ways,
            &mut self.llc_bank_sets,
            &mut self.llc_ways,
        ] {
            *field = (*field).clamp(1, 64);
        }
        // Tree-PLRU needs a power-of-two LLC way count.
        if self.llc_replacement == ReplacementPolicy::TreePlru && !self.llc_ways.is_power_of_two() {
            self.llc_replacement = ReplacementPolicy::Lru;
        }
        self.memory_controllers = self.memory_controllers.clamp(1, self.num_cores);
        // The directory cache is 8-way: capacity must be a multiple of 8.
        self.directory_cache_entries = self.directory_cache_entries.max(1).next_multiple_of(8);
        self.instructions_per_memory_op = self.instructions_per_memory_op.max(1);
        self.memory_latency = self.memory_latency.max(1);
        self.link_latency = self.link_latency.max(1);
        self.refs_per_vm = self.refs_per_vm.max(1);

        if self.vms.is_empty() {
            self.vms.push(FuzzVm {
                threads: 1,
                footprint_blocks: 2,
                shared_fraction: 0.0,
                shared_access_prob: 0.0,
                shared_write_prob: 0.0,
                private_write_prob: 0.5,
                shared_zipf: 0.0,
                private_zipf: 0.0,
                recent_reuse_prob: 0.0,
                recent_window: 1,
                handoff_access_prob: 0.0,
                handoff_segments: 1,
                handoff_segment_blocks: 1,
            });
        }
        self.vms.truncate(self.num_cores.max(1));
        for vm in &mut self.vms {
            vm.threads = vm.threads.max(1);
        }
        // Keep the total thread count on-machine: shed threads from the
        // widest VM until everything fits.
        loop {
            let total: usize = self.vms.iter().map(|v| v.threads).sum();
            if total <= self.num_cores {
                break;
            }
            let widest = self
                .vms
                .iter_mut()
                .max_by_key(|v| v.threads)
                .expect("vms is nonempty");
            if widest.threads > 1 {
                widest.threads -= 1;
            } else {
                self.vms.pop();
            }
        }
        for vm in &mut self.vms {
            vm.footprint_blocks = vm.footprint_blocks.max(vm.threads as u64 + 1);
            for p in [
                &mut vm.shared_fraction,
                &mut vm.shared_access_prob,
                &mut vm.shared_write_prob,
                &mut vm.private_write_prob,
                &mut vm.recent_reuse_prob,
                &mut vm.handoff_access_prob,
            ] {
                *p = p.clamp(0.0, 1.0);
            }
            vm.shared_zipf = vm.shared_zipf.clamp(0.0, 0.95);
            vm.private_zipf = vm.private_zipf.clamp(0.0, 0.95);
            vm.recent_window = vm.recent_window.clamp(1, 64);
            vm.handoff_segments = vm.handoff_segments.max(vm.threads);
            vm.handoff_segment_blocks = vm.handoff_segment_blocks.max(1);
        }
        // Way partitioning must fit the final VM count and LLC shape:
        // with fewer ways than VMs no partitioning is possible, and an
        // explicit split that no longer matches (a shrink dropped a VM or
        // halved the ways) is replaced by the deterministic equal split.
        if self.llc_ways < self.vms.len() {
            self.llc_partitioning = LlcPartitioning::None;
        } else if let LlcPartitioning::Dynamic(policy) = &self.llc_partitioning {
            // A dynamic policy that no longer fits (min_ways floor exceeds
            // the shrunken LLC) degrades to the static equal split, which
            // is always feasible past the ways-vs-VMs check above.
            let feasible = policy.validate().is_ok()
                && policy.min_ways as usize * self.vms.len() <= self.llc_ways;
            if !feasible {
                self.llc_partitioning = LlcPartitioning::EqualWays;
            }
        } else if let LlcPartitioning::ExplicitWays(ways) = &self.llc_partitioning {
            let valid = ways.len() == self.vms.len()
                && ways.iter().all(|&w| w > 0)
                && ways.iter().map(|&w| w as usize).sum::<usize>() == self.llc_ways;
            if !valid {
                let n = self.vms.len();
                let base = (self.llc_ways / n) as u8;
                let extra = self.llc_ways % n;
                self.llc_partitioning = LlcPartitioning::ExplicitWays(
                    (0..n).map(|i| base + u8::from(i < extra)).collect(),
                );
            }
        }
        // Lifecycle churn must fit the final mix and machine: rate vectors
        // track the (possibly shed) VM count, the population bounds stay
        // feasible, migration targets stay on-machine, and a single-VM mix
        // cannot schedule the departure of its last VM. Churn combined with
        // periodic rescheduling (rejected by the builder) degrades to the
        // static population — the shrinker drops churn first anyway.
        if self.reschedule_every.is_some() {
            self.churn = None;
        }
        if let Some(churn) = &mut self.churn {
            let n = self.vms.len();
            churn.interval = churn.interval.max(1);
            churn.arrival_permille.resize(n, 0);
            churn.departure_permille.resize(n, 0);
            for rate in churn
                .arrival_permille
                .iter_mut()
                .chain(churn.departure_permille.iter_mut())
            {
                *rate = (*rate).min(1000);
            }
            churn.migration_permille = churn.migration_permille.min(1000);
            churn.initial_active = churn.initial_active.clamp(1, n);
            churn.min_active = churn.min_active.clamp(1, churn.initial_active);
            if n == 1 {
                churn.departure_permille[0] = 0;
            }
            if let Some(targets) = &mut churn.migration_targets {
                targets.retain(|&core| core < self.num_cores);
                targets.sort_unstable();
                targets.dedup();
                if targets.is_empty() {
                    churn.migration_targets = None;
                }
            }
        }
    }

    /// Builds the per-VM workload profiles. Knob combinations that an
    /// individual profile rejects (e.g. a handoff region larger than the
    /// shared region) are degraded feature-by-feature rather than
    /// discarded, so every case still runs.
    fn profiles(&self) -> Vec<WorkloadProfile> {
        self.vms
            .iter()
            .enumerate()
            .map(|(i, vm)| {
                // Ladder of progressively tamer candidates: full feature
                // set, then without handoff, then without shared accesses.
                for drop_features in 0..3 {
                    let mut b = WorkloadProfileBuilder::new(format!("fuzz-vm{i}"))
                        .threads(vm.threads)
                        .footprint_blocks(vm.footprint_blocks)
                        .shared_fraction(vm.shared_fraction)
                        .shared_write_prob(vm.shared_write_prob)
                        .private_write_prob(vm.private_write_prob)
                        .shared_zipf(vm.shared_zipf)
                        .private_zipf(vm.private_zipf)
                        .recent_reuse_prob(vm.recent_reuse_prob)
                        .recent_window(vm.recent_window)
                        .refs_per_transaction(1)
                        .default_transactions(1);
                    b = if drop_features < 2 {
                        b.shared_access_prob(vm.shared_access_prob)
                    } else {
                        b.shared_access_prob(0.0)
                    };
                    b = if drop_features < 1 {
                        b.handoff_access_prob(vm.handoff_access_prob)
                            .handoff_segments(vm.handoff_segments)
                            .handoff_segment_blocks(vm.handoff_segment_blocks)
                            .handoff_write_prob(vm.shared_write_prob)
                            .handoff_touches(1)
                    } else {
                        b.handoff_access_prob(0.0)
                    };
                    if let Ok(profile) = b.build() {
                        return profile;
                    }
                }
                unreachable!("the tamest profile candidate is always valid")
            })
            .collect()
    }

    /// Builds the full simulation configuration (audit always on).
    ///
    /// # Errors
    ///
    /// Propagates machine or simulation validation failures; a
    /// canonicalized case should never produce one.
    pub fn build(&self) -> Result<SimulationConfig, SimError> {
        let banks = self.num_cores / self.cores_per_bank;
        let sharing = if self.cores_per_bank == self.num_cores {
            SharingDegree::FullyShared
        } else if self.cores_per_bank == 1 {
            SharingDegree::Private
        } else {
            SharingDegree::SharedBy(self.cores_per_bank)
        };
        let mut machine = MachineConfigBuilder::new();
        machine
            .num_cores(self.num_cores)
            .mesh_width(self.mesh_width)
            .l0(CacheGeometry::new(
                self.l0_sets * self.l0_ways * 64,
                self.l0_ways,
                1,
            )?)
            .l1(CacheGeometry::new(
                self.l1_sets * self.l1_ways * 64,
                self.l1_ways,
                2,
            )?)
            .llc(CacheGeometry::new(
                banks * self.llc_bank_sets * self.llc_ways * 64,
                self.llc_ways,
                6,
            )?)
            .sharing(sharing)
            .llc_partitioning(self.llc_partitioning.clone())
            .memory_latency(self.memory_latency)
            .num_memory_controllers(self.memory_controllers)
            .link_latency(self.link_latency)
            .directory_cache_entries(self.directory_cache_entries)
            .instructions_per_memory_op(self.instructions_per_memory_op)
            .churn(self.churn.clone());
        let mut b = SimulationConfig::builder();
        b.machine(machine.build()?)
            .policy(self.policy)
            .seed(self.sim_seed)
            .refs_per_vm(self.refs_per_vm)
            .warmup_refs_per_vm(self.warmup_refs_per_vm)
            .llc_replacement(self.llc_replacement)
            .prewarm_llc(self.prewarm_llc)
            .audit(true);
        for profile in self.profiles() {
            b.workload(profile);
        }
        if let Some(cycles) = self.reschedule_every {
            b.reschedule_every(cycles);
        }
        b.build()
    }

    /// Scalar size metric for shrinking: every accepted shrink transform
    /// must strictly decrease it, which bounds the shrink loop.
    pub fn size(&self) -> u64 {
        let threads: usize = self.vms.iter().map(|v| v.threads).sum();
        let footprint: u64 = self.vms.iter().map(|v| v.footprint_blocks).sum();
        let banks = (self.num_cores / self.cores_per_bank) as u64;
        let cache_lines = (self.l0_sets * self.l0_ways + self.l1_sets * self.l1_ways) as u64
            * self.num_cores as u64
            + (self.llc_bank_sets * self.llc_ways) as u64 * banks;
        self.num_cores as u64 * 100_000
            + self.vms.len() as u64 * 50_000
            + threads as u64 * 10_000
            + (self.refs_per_vm + self.warmup_refs_per_vm) * 20
            + footprint * 10
            + cache_lines * 5
            + u64::from(self.prewarm_llc) * 1_000
            + u64::from(self.reschedule_every.is_some()) * 1_000
            + u64::from(self.llc_replacement != ReplacementPolicy::Lru) * 500
            // Churn costs the most of the feature knobs so the shrinker's
            // drop-churn-first candidate is always a strict size decrease.
            + u64::from(self.churn.is_some()) * 1_500
            + u64::from(self.llc_partitioning != LlcPartitioning::None) * 500
            // Dynamic costs extra so shrinking it to the static equal
            // split is a strict size decrease.
            + u64::from(matches!(self.llc_partitioning, LlcPartitioning::Dynamic(_))) * 250
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FuzzCase::generate(7), FuzzCase::generate(7));
        assert_ne!(FuzzCase::generate(7), FuzzCase::generate(8));
    }

    #[test]
    fn generated_cases_build() {
        for seed in 0..200 {
            let case = FuzzCase::generate(seed);
            case.build()
                .unwrap_or_else(|e| panic!("seed {seed} does not build: {e}"));
        }
    }

    #[test]
    fn canonicalize_is_idempotent() {
        for seed in 0..50 {
            let case = FuzzCase::generate(seed);
            let mut again = case.clone();
            again.canonicalize();
            assert_eq!(case, again, "seed {seed}");
        }
    }

    #[test]
    fn degenerate_shapes_appear() {
        let cases: Vec<FuzzCase> = (0..300).map(FuzzCase::generate).collect();
        assert!(cases.iter().any(|c| c.num_cores == 1));
        assert!(cases.iter().any(|c| c.vms.len() == 1));
        assert!(cases
            .iter()
            .any(|c| c.llc_bank_sets == 1 && c.llc_ways == 1));
        assert!(cases.iter().any(|c| c.l0_ways == 1));
        assert!(cases.iter().any(|c| c.warmup_refs_per_vm == 0));
    }

    #[test]
    fn partitioned_cases_appear() {
        let cases: Vec<FuzzCase> = (0..300).map(FuzzCase::generate).collect();
        assert!(cases
            .iter()
            .any(|c| c.llc_partitioning == LlcPartitioning::EqualWays));
        assert!(cases
            .iter()
            .any(|c| matches!(c.llc_partitioning, LlcPartitioning::ExplicitWays(_))));
        // Every partitioned case survived canonicalization with a split
        // that actually fits its machine.
        for c in cases
            .iter()
            .filter(|c| c.llc_partitioning != LlcPartitioning::None)
        {
            assert!(c.vms.len() <= c.llc_ways, "seed {}", c.case_seed);
        }
        // Dynamic cases appear in force (the draw aims for ~30%; some
        // degrade to EqualWays or None when the LLC is too narrow) and
        // every survivor is feasible.
        let dynamic: Vec<&FuzzCase> = cases
            .iter()
            .filter(|c| matches!(c.llc_partitioning, LlcPartitioning::Dynamic(_)))
            .collect();
        assert!(
            dynamic.len() >= 30,
            "only {} of 300 cases are dynamic",
            dynamic.len()
        );
        for c in &dynamic {
            let LlcPartitioning::Dynamic(policy) = &c.llc_partitioning else {
                unreachable!()
            };
            assert!(policy.validate().is_ok(), "seed {}", c.case_seed);
            assert!(
                policy.min_ways as usize * c.vms.len() <= c.llc_ways,
                "seed {}",
                c.case_seed
            );
        }
    }

    #[test]
    fn machine_space_covers_every_llc_policy_and_wide_machines() {
        use ReplacementPolicy::{Lru, Random, TreePlru};
        let cases: Vec<FuzzCase> = (0..300).map(FuzzCase::generate).collect();
        let some_build = |name: &str, wanted: &dyn Fn(&FuzzCase) -> bool| {
            let matching: Vec<&FuzzCase> = cases.iter().filter(|c| wanted(c)).collect();
            assert!(!matching.is_empty(), "no generated case has {name}");
            for c in matching {
                c.build()
                    .unwrap_or_else(|e| panic!("{name} seed {} does not build: {e}", c.case_seed));
            }
        };
        for policy in [Lru, TreePlru, Random] {
            some_build(&format!("{policy:?}"), &|c| c.llc_replacement == policy);
        }
        some_build("a static partition, non-LRU", &|c| {
            c.llc_replacement != Lru
                && matches!(
                    c.llc_partitioning,
                    LlcPartitioning::EqualWays | LlcPartitioning::ExplicitWays(_)
                )
        });
        some_build("a dynamic partition, non-LRU", &|c| {
            c.llc_replacement != Lru && matches!(c.llc_partitioning, LlcPartitioning::Dynamic(_))
        });
        for cores in [32, MAX_CORES] {
            some_build(&format!("{cores} cores"), &|c| c.num_cores == cores);
        }
        // Tree-PLRU survives only on a power-of-two LLC.
        let mut odd = cases
            .iter()
            .find(|c| c.llc_replacement == TreePlru)
            .unwrap()
            .clone();
        odd.llc_ways = 3;
        odd.canonicalize();
        assert_eq!(odd.llc_replacement, Lru);
    }

    #[test]
    fn churned_cases_appear_and_stay_feasible() {
        let cases: Vec<FuzzCase> = (0..300).map(FuzzCase::generate).collect();
        let churned: Vec<&FuzzCase> = cases.iter().filter(|c| c.churn.is_some()).collect();
        // The draw aims for ~30%; only the rescheduling conflict (resolved
        // at generation time) can suppress it.
        assert!(
            churned.len() >= 60,
            "only {} of 300 cases are churned",
            churned.len()
        );
        for c in &churned {
            let churn = c.churn.as_ref().unwrap();
            assert!(churn.validate().is_ok(), "seed {}", c.case_seed);
            assert_eq!(
                churn.arrival_permille.len(),
                c.vms.len(),
                "seed {}",
                c.case_seed
            );
            assert_eq!(
                churn.departure_permille.len(),
                c.vms.len(),
                "seed {}",
                c.case_seed
            );
            assert!(churn.initial_active <= c.vms.len(), "seed {}", c.case_seed);
            assert!(
                c.reschedule_every.is_none(),
                "churn and rescheduling must not coexist, seed {}",
                c.case_seed
            );
            if c.vms.len() == 1 {
                assert_eq!(churn.departure_permille[0], 0, "seed {}", c.case_seed);
            }
            if let Some(targets) = &churn.migration_targets {
                assert!(
                    targets.iter().all(|&core| core < c.num_cores),
                    "seed {}",
                    c.case_seed
                );
            }
        }
        // Restricted-target migrations appear too.
        assert!(
            churned
                .iter()
                .any(|c| c.churn.as_ref().unwrap().migration_targets.is_some()),
            "no churned case restricts migration targets"
        );
    }

    #[test]
    fn high_locality_bias_keeps_cases_valid() {
        for seed in 0..100 {
            let mut case = FuzzCase::generate(seed);
            case.bias_high_locality();
            let mut again = case.clone();
            again.canonicalize();
            assert_eq!(case, again, "bias must leave a canonical case, seed {seed}");
            case.build()
                .unwrap_or_else(|e| panic!("biased seed {seed} does not build: {e}"));
            assert!(case.l1_sets >= 8 && case.l1_ways >= 2, "seed {seed}");
            assert!(
                case.vms.iter().all(|vm| vm.recent_reuse_prob >= 0.8),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn thread_budget_respects_core_count() {
        for seed in 0..100 {
            let case = FuzzCase::generate(seed);
            let total: usize = case.vms.iter().map(|v| v.threads).sum();
            assert!(total <= case.num_cores, "seed {seed}");
        }
    }
}
