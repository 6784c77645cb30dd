//! The naive reference model.
//!
//! A deliberately flat, obviously-correct re-implementation of the engine's
//! *content* semantics: which blocks sit in which caches in which MESI
//! states, and what the directory believes. It replays the engine's own
//! reference stream one [`AccessStep`] at a time and must reproduce, for
//! every step, the engine's hit/miss classification and the directory's
//! post-access owner/sharer view — and, at the end of the run, the per-VM
//! counters, LLC replication, and LLC occupancy.
//!
//! Nothing here is shared with the engine except the small value types
//! (`LineState`, `ReplacementPolicy`, `MissSource`): caches are vectors of
//! `(block, state, stamp, way)` slots with a global logical clock instead
//! of per-way recency planes, the directory is a `BTreeMap` of
//! owner/sharer sets, and mesh distances are recomputed from first
//! principles. No NoC timing, no memory-controller calendars, no
//! statistics plumbing — time does not exist in this model, only contents.
//!
//! The model is built from the same [`SimulationConfig`] the engine runs,
//! so it holds the engine's machine as configured: up to 64 cores, LRU
//! private caches, and LLC banks under the configured replacement policy
//! whose fills, when the LLC is way-partitioned, stay inside the filling
//! VM's way mask. Its cache, `NaiveCache`, is also the one reference model
//! of `consim_cache::SetAssocCache`: a differential test below drives both
//! caches through the same seeded streams under every policy.
//!
//! The model intentionally mirrors the engine's *tie-breaking* rules, which
//! are part of the simulated machine's definition (nearest clean supplier,
//! nearest replica bank, first-minimal on equal distance). See DESIGN.md §8.

use consim::churn::{ChurnAction, ChurnDecision};
use consim::engine::SimulationConfig;
use consim::metrics::MissSource;
use consim::observe::{AccessStep, StepOutcome};
use consim::qos::{RepartitionDecision, VmClass};
use consim_cache::{LineState, ReplacementPolicy};
use consim_types::config::{CacheGeometry, ChurnPolicy, DynamicPolicy, LlcPartitioning};
use consim_types::rng::SimRng;
use consim_types::{BankId, BlockAddr, CoreId};
use std::collections::{BTreeMap, BTreeSet};

/// Deliberately-wrong behaviors for mutation testing: each knob disables
/// one coherence action in the *model*, which must make the differential
/// check fail (a divergence is symmetric — if breaking the model is not
/// detected, breaking the engine would not be either).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Skip invalidating sharers' private caches on writes/upgrades.
    SkipInvalidations,
    /// Treat every directory read miss as served from below (never
    /// cache-to-cache).
    IgnoreOwners,
    /// Never downgrade a dirty owner on a read (leave it Modified).
    SkipOwnerDowngrade,
    /// Fill the LLC through the full way mask instead of the filling VM's
    /// (partitioned configurations only — a no-op otherwise).
    IgnoreWayQuotas,
    /// Complete a write that hits a *Shared* private line as a plain hit,
    /// skipping the demotion to the upgrade transaction — the exact bug a
    /// broken engine fast path would have (the fast path must bail out to
    /// `coherence_transaction` whenever a write lacks permission).
    SkipFastPathDemotion,
    /// Never apply (or re-derive) dynamic repartition decisions: the model
    /// keeps the initial equal-split masks forever. The first decision that
    /// actually moves a way must then surface as a mask mismatch — exactly
    /// what a broken engine that dropped the QoS feedback loop would look
    /// like from the other side (dynamic configurations only).
    IgnoreRepartition,
    /// Never process the birth–death departure branch: the model's mirror
    /// keeps every VM running forever. The engine's first `Retire` record
    /// then has no model counterpart and the per-boundary action comparison
    /// diverges — exactly what an engine that silently dropped retirements
    /// would look like from the other side (churned configurations only).
    IgnoreRetire,
    /// Rebind a migrating VM without scrubbing its private caches: stale
    /// L0/L1 lines and directory entries linger on the vacated cores. The
    /// boundary's invalidation counts (or the migrated VM's next access to
    /// a previously-cached block) must surface the divergence (churned
    /// configurations only).
    SkipMigrationInvalidation,
    /// Fill a tree-PLRU LLC without updating the tree, which is left
    /// pointing at the way the fill just took (tree-PLRU LLCs only).
    StalePlruFill,
    /// Draw a Random LLC victim over every occupied way of the set instead
    /// of the ways the filling VM's mask allows (partitioned Random LLCs
    /// only: with a full mask the two lists are the same).
    UnmaskedRandomVictim,
}

/// One cache line as the model sees it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    block: BlockAddr,
    state: LineState,
    /// Global logical time of the last recency touch; under LRU the
    /// minimum stamp among the candidate ways is the victim. Equivalent to
    /// the engine's per-way recency order because both touch exactly on
    /// hits and inserts.
    touched: u64,
    /// Physical way index. Fills take the lowest free way and evictions
    /// reuse the victim's way, mirroring the engine — which makes masked
    /// fills, tree-PLRU and Random way-exact.
    way: usize,
}

/// Victim-choice state beyond the slots' LRU stamps, held only for the
/// policy in use.
#[derive(Debug, Clone)]
enum Victims {
    /// True LRU: the slots' stamps are all it needs.
    Lru,
    /// Per set, `ways - 1` tree-PLRU bits in heap order (node `n`'s
    /// children are `2n + 1` and `2n + 2`); a set bit points the next
    /// victim at the right subtree.
    TreePlru(Vec<Vec<bool>>),
    /// Per set, the stream `SimRng::from_seed(set)`, drawn once per
    /// eviction.
    Random(Vec<SimRng>),
}

/// A set-associative cache as flat per-set vectors: the reference for
/// `SetAssocCache` under all three replacement policies, masked fills
/// included. The machine model uses it for every cache: LRU for the
/// private levels, the configured policy for the LLC banks.
#[derive(Debug, Clone)]
struct NaiveCache {
    num_sets: u64,
    ways: usize,
    sets: Vec<Vec<Slot>>,
    victims: Victims,
    /// Injected victim-choice bug (mutation testing); LLC banks only.
    mutation: Option<Mutation>,
}

impl NaiveCache {
    /// An empty cache. Tree-PLRU needs a power-of-two way count.
    fn new(num_sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        let victims = match policy {
            ReplacementPolicy::Lru => Victims::Lru,
            ReplacementPolicy::TreePlru => {
                assert!(ways.is_power_of_two(), "tree-PLRU needs 2^k ways");
                Victims::TreePlru(vec![vec![false; ways - 1]; num_sets])
            }
            ReplacementPolicy::Random => {
                Victims::Random((0..num_sets as u64).map(SimRng::from_seed).collect())
            }
        };
        Self {
            num_sets: num_sets as u64,
            ways,
            sets: vec![Vec::new(); num_sets],
            victims,
            mutation: None,
        }
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.raw() % self.num_sets) as usize
    }

    /// Position of `block` in its set's vector, if present.
    fn find(&self, set: usize, block: BlockAddr) -> Option<usize> {
        self.sets[set].iter().position(|s| s.block == block)
    }

    /// Records a hit or fill of the `i`-th slot of `set`: a fresh stamp,
    /// and every tree-PLRU node on the path to its way pointed away from
    /// it.
    fn touch(&mut self, set: usize, i: usize, now: u64) {
        let slot = &mut self.sets[set][i];
        slot.touched = now;
        if let Victims::TreePlru(bits) = &mut self.victims {
            let mut node = 0;
            for level in (0..self.ways.trailing_zeros()).rev() {
                let right = slot.way >> level & 1;
                bits[set][node] = right == 0;
                node = 2 * node + 1 + right;
            }
        }
    }

    /// Lookup without a recency touch (the engine's `probe`/`contains`).
    fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let set = self.set_of(block);
        self.find(set, block).map(|i| self.sets[set][i].state)
    }

    /// Demand lookup: touches recency on a hit (the engine's `access`).
    fn access(&mut self, block: BlockAddr, now: u64) -> Option<LineState> {
        let set = self.set_of(block);
        let i = self.find(set, block)?;
        self.touch(set, i, now);
        Some(self.sets[set][i].state)
    }

    /// State change in place, no recency touch; absent blocks are ignored.
    fn set_state(&mut self, block: BlockAddr, state: LineState) {
        let set = self.set_of(block);
        if let Some(i) = self.find(set, block) {
            self.sets[set][i].state = state;
        }
    }

    /// Lowest way index in `mask` that no slot of `set` occupies.
    fn free_way(set: &[Slot], ways: usize, mask: u64) -> Option<usize> {
        let used = set.iter().fold(0u64, |m, s| m | 1 << s.way);
        (0..ways).find(|&w| mask >> w & 1 == 1 && used >> w & 1 == 0)
    }

    /// Updates `block` in place if its set holds it (touching it) and
    /// returns `true`; the common first step of every fill.
    fn update_in_place(
        &mut self,
        set: usize,
        block: BlockAddr,
        state: LineState,
        now: u64,
    ) -> bool {
        let Some(i) = self.find(set, block) else {
            return false;
        };
        self.sets[set][i].state = state;
        self.touch(set, i, now);
        true
    }

    /// Puts a fresh line for `block` in `way` of `set`, replacing the
    /// slot at `evict` if given, and touches it (the fresh slot already
    /// carries the stamp, so the touch only updates tree-PLRU bits).
    /// Returns the evicted line.
    fn place(
        &mut self,
        set: usize,
        block: BlockAddr,
        state: LineState,
        now: u64,
        way: usize,
        evict: Option<usize>,
    ) -> Option<Slot> {
        let fresh = Slot {
            block,
            state,
            touched: now,
            way,
        };
        let (i, victim) = match evict {
            Some(i) => (i, Some(std::mem::replace(&mut self.sets[set][i], fresh))),
            None => {
                self.sets[set].push(fresh);
                (self.sets[set].len() - 1, None)
            }
        };
        if self.mutation != Some(Mutation::StalePlruFill) {
            self.touch(set, i, now);
        }
        victim
    }

    /// Fill: the full-mask case of [`NaiveCache::insert_masked`].
    fn insert(&mut self, block: BlockAddr, state: LineState, now: u64) -> Option<Slot> {
        self.insert_masked(block, state, now, u64::MAX)
    }

    /// Fill confined to the ways in `mask` — the way-exact mirror of the
    /// engine's `insert_in_ways`, for static and dynamic partitions alike
    /// (a dynamic VM's lines linger in ways it lost until the new owner
    /// evicts them). A block present anywhere in the set (even outside the
    /// mask) updates in place; otherwise the lowest allowed free way is
    /// taken; otherwise the policy's victim among the masked ways —
    /// whoever it belongs to — is evicted.
    fn insert_masked(
        &mut self,
        block: BlockAddr,
        state: LineState,
        now: u64,
        mask: u64,
    ) -> Option<Slot> {
        let set = self.set_of(block);
        if self.update_in_place(set, block, state, now) {
            return None;
        }
        if let Some(way) = Self::free_way(&self.sets[set], self.ways, mask) {
            return self.place(set, block, state, now, way, None);
        }
        let way = self.victim_way(set, mask);
        let i = self.sets[set]
            .iter()
            .position(|s| s.way == way)
            .expect("every allowed way holds a line");
        self.place(set, block, state, now, way, Some(i))
    }

    /// The way the policy evicts among the ways `mask` allows in `set`,
    /// every one of which holds a line. LRU takes the oldest stamp; Random
    /// draws an index into the allowed ways in ascending order; tree-PLRU
    /// follows its bits from the root but never into a half that holds no
    /// allowed way.
    fn victim_way(&mut self, set: usize, mask: u64) -> usize {
        let allowed: Vec<usize> = (0..self.ways).filter(|&w| mask >> w & 1 == 1).collect();
        assert!(!allowed.is_empty(), "victim mask allows no way");
        match &mut self.victims {
            Victims::Lru => {
                self.sets[set]
                    .iter()
                    .filter(|s| allowed.contains(&s.way))
                    .min_by_key(|s| s.touched)
                    .expect("allowed ways are occupied")
                    .way
            }
            Victims::TreePlru(bits) => {
                // `prefix` holds the way bits chosen so far; below `level`
                // remain to choose.
                let (mut node, mut prefix) = (0, 0);
                for level in (0..self.ways.trailing_zeros()).rev() {
                    let has = |half| allowed.iter().any(|&w| w >> level == 2 * prefix + half);
                    let right = if has(0) && has(1) {
                        bits[set][node]
                    } else {
                        !has(0)
                    };
                    prefix = 2 * prefix + right as usize;
                    node = 2 * node + 1 + right as usize;
                }
                prefix
            }
            Victims::Random(rngs) if self.mutation == Some(Mutation::UnmaskedRandomVictim) => {
                let mut occupied: Vec<usize> = self.sets[set].iter().map(|s| s.way).collect();
                occupied.sort_unstable();
                occupied[rngs[set].index(occupied.len())]
            }
            Victims::Random(rngs) => allowed[rngs[set].index(allowed.len())],
        }
    }

    /// Invalidate: removes the block if present.
    fn invalidate(&mut self, block: BlockAddr) {
        let set = self.set_of(block);
        self.sets[set].retain(|s| s.block != block);
    }

    fn lines(&self) -> impl Iterator<Item = &Slot> {
        self.sets.iter().flatten()
    }

    fn capacity(&self) -> usize {
        self.num_sets as usize * self.ways
    }
}

/// A directory entry: one Modified owner or a clean sharer set.
#[derive(Debug, Clone, Default)]
struct DirEntry {
    owner: Option<usize>,
    sharers: BTreeSet<usize>,
}

/// Flat full-map directory mirroring `consim_coherence::Directory`'s
/// transition function.
#[derive(Debug, Clone, Default)]
struct NaiveDirectory {
    entries: BTreeMap<u64, DirEntry>,
}

/// What the naive directory decided for one request.
struct DirOutcome {
    source: NaiveSource,
    invalidate: Vec<usize>,
    writeback: bool,
    exclusive: bool,
}

enum NaiveSource {
    Dirty(usize),
    Clean,
    Below,
    NoData,
}

impl NaiveDirectory {
    fn members(&self, block: BlockAddr) -> Vec<usize> {
        match self.entries.get(&block.raw()) {
            Some(e) => {
                let mut m: BTreeSet<usize> = e.sharers.clone();
                if let Some(o) = e.owner {
                    m.insert(o);
                }
                m.into_iter().collect()
            }
            None => Vec::new(),
        }
    }

    fn owner(&self, block: BlockAddr) -> Option<usize> {
        self.entries.get(&block.raw()).and_then(|e| e.owner)
    }

    fn handle(&mut self, requester: usize, block: BlockAddr, write: bool) -> DirOutcome {
        let entry = self.entries.entry(block.raw()).or_default();
        if !write {
            if let Some(owner) = entry.owner {
                entry.owner = None;
                entry.sharers.insert(owner);
                entry.sharers.insert(requester);
                DirOutcome {
                    source: NaiveSource::Dirty(owner),
                    invalidate: Vec::new(),
                    writeback: true,
                    exclusive: false,
                }
            } else if !entry.sharers.is_empty() {
                entry.sharers.insert(requester);
                DirOutcome {
                    source: NaiveSource::Clean,
                    invalidate: Vec::new(),
                    writeback: false,
                    exclusive: false,
                }
            } else {
                entry.sharers.insert(requester);
                DirOutcome {
                    source: NaiveSource::Below,
                    invalidate: Vec::new(),
                    writeback: false,
                    exclusive: true,
                }
            }
        } else if let Some(owner) = entry.owner {
            entry.owner = Some(requester);
            entry.sharers.clear();
            DirOutcome {
                source: NaiveSource::Dirty(owner),
                invalidate: vec![owner],
                writeback: false,
                exclusive: true,
            }
        } else if !entry.sharers.is_empty() {
            let has_other = entry.sharers.iter().any(|&c| c != requester);
            let invalidate: Vec<usize> = entry
                .sharers
                .iter()
                .copied()
                .filter(|&c| c != requester)
                .collect();
            entry.sharers.clear();
            entry.owner = Some(requester);
            DirOutcome {
                source: if has_other {
                    NaiveSource::Clean
                } else {
                    // Requester was the only sharer: silent upgrade.
                    NaiveSource::NoData
                },
                invalidate,
                writeback: false,
                exclusive: true,
            }
        } else {
            entry.owner = Some(requester);
            DirOutcome {
                source: NaiveSource::Below,
                invalidate: Vec::new(),
                writeback: false,
                exclusive: true,
            }
        }
    }

    /// The upgrade transition: requester already holds the line Shared.
    fn upgrade(&mut self, requester: usize, block: BlockAddr) -> Vec<usize> {
        let entry = self.entries.entry(block.raw()).or_default();
        let invalidate: Vec<usize> = entry
            .sharers
            .iter()
            .copied()
            .filter(|&c| c != requester)
            .collect();
        entry.owner = Some(requester);
        entry.sharers.clear();
        invalidate
    }

    fn evict(&mut self, core: usize, block: BlockAddr) {
        if let Some(entry) = self.entries.get_mut(&block.raw()) {
            if entry.owner == Some(core) {
                entry.owner = None;
            } else {
                entry.sharers.remove(&core);
            }
            if entry.owner.is_none() && entry.sharers.is_empty() {
                self.entries.remove(&block.raw());
            }
        }
    }
}

/// Per-VM counters the model accumulates, mirroring the engine's
/// `VmMetrics` counter fields (timing-dependent fields excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelCounters {
    pub refs: u64,
    pub writes: u64,
    pub l0_hits: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub c2c_l1_clean: u64,
    pub c2c_l1_dirty: u64,
    pub llc_local_hits: u64,
    pub llc_remote_clean: u64,
    pub llc_remote_dirty: u64,
    pub memory_fetches: u64,
    pub upgrades: u64,
    pub invalidations_received: u64,
}

/// Independent flat re-derivation of the engine's dynamic repartitioning
/// controller (`consim::qos::QosController`). It consumes only quantities
/// the model can vouch for — its own cumulative counters and LLC line
/// counts — plus the engine-reported epoch timing (time does not exist in
/// this model), and must reproduce every decision's classification, EWMA
/// vector, and way masks bit-for-bit. The arithmetic is the documented
/// fixed-point procedure (permille EWMA, largest-remainder apportionment,
/// single-way steps), transcribed here without sharing any code with the
/// engine's controller.
#[derive(Debug, Clone)]
struct NaiveQos {
    policy: DynamicPolicy,
    ways: u64,
    total_lines: u64,
    quotas: Vec<u64>,
    ewma: Vec<u64>,
    best_cpkr: Vec<u64>,
    /// Cumulative `[refs, l1_misses, memory_fetches]` at the previous
    /// boundary, per VM.
    prev: Vec<[u64; 3]>,
    /// Cycle of the previous decision (None before the first), used to
    /// cross-check the engine's reported `elapsed`.
    last_at: Option<u64>,
    epochs: u64,
}

fn sat64(v: u128) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

impl NaiveQos {
    fn new(policy: DynamicPolicy, ways: usize, num_vms: usize, total_lines: u64) -> Self {
        let base = ways / num_vms;
        let extra = ways % num_vms;
        Self {
            policy,
            ways: ways as u64,
            total_lines,
            quotas: (0..num_vms)
                .map(|vm| (base + usize::from(vm < extra)) as u64)
                .collect(),
            ewma: vec![1000; num_vms],
            best_cpkr: vec![u64::MAX; num_vms],
            prev: vec![[0; 3]; num_vms],
            last_at: None,
            epochs: 0,
        }
    }

    /// Contiguous masks from the current quotas: VM 0 takes the lowest
    /// ways, VM 1 the next block, and so on.
    fn masks(&self) -> Vec<u64> {
        let mut base = 0u32;
        self.quotas
            .iter()
            .map(|&q| {
                let mask = if q >= 64 {
                    u64::MAX
                } else {
                    ((1u64 << q) - 1) << base
                };
                base += q as u32;
                mask
            })
            .collect()
    }

    /// One decision from epoch deltas and current occupancy; returns the
    /// per-VM classes, the updated EWMA vector, and the new masks.
    fn decide(
        &mut self,
        elapsed: u64,
        refs_d: &[u64],
        l1_d: &[u64],
        mem_d: &[u64],
        occ: &[u64],
    ) -> (Vec<VmClass>, Vec<u64>, Vec<u64>) {
        let n = self.quotas.len();
        self.epochs += 1;
        let mut classes = vec![VmClass::Light; n];
        for vm in 0..n {
            if refs_d[vm] == 0 {
                // No progress signal: EWMA untouched, ways up for grabs.
                continue;
            }
            let cpkr = sat64(u128::from(elapsed) * 1000 / u128::from(refs_d[vm]));
            self.best_cpkr[vm] = self.best_cpkr[vm].min(cpkr);
            let best = self.best_cpkr[vm].max(1);
            let slow = sat64(u128::from(cpkr) * 1000 / u128::from(best));
            let p = u128::from(self.policy.ewma_permille);
            self.ewma[vm] =
                sat64((p * u128::from(slow) + (1000 - p) * u128::from(self.ewma[vm])) / 1000);

            let mpkr = u128::from(l1_d[vm]) * 1000 / u128::from(refs_d[vm]);
            let occ_ways =
                u128::from(self.ways) * u128::from(occ[vm]) / u128::from(self.total_lines.max(1));
            let mem_share = u128::from(mem_d[vm]) * 1000 / u128::from(l1_d[vm].max(1));
            classes[vm] = if mpkr < u128::from(self.policy.light_miss_permille) || occ_ways == 0 {
                VmClass::Light
            } else if mem_share > u128::from(self.policy.stream_memory_permille) {
                VmClass::Streaming
            } else {
                VmClass::CacheSensitive
            };
        }

        let spread =
            self.ewma.iter().max().unwrap_or(&1000) - self.ewma.iter().min().unwrap_or(&1000);
        if spread > u64::from(self.policy.deadband_milli) {
            // Targets: min_ways each, pool largest-remainder-proportional
            // to the EWMA of cache-sensitive VMs (everyone else weight 0);
            // all weights zero falls back to the equal split with the
            // remainder on the first VMs.
            let min = u64::from(self.policy.min_ways);
            let pool = self.ways - min * n as u64;
            let weights: Vec<u64> = (0..n)
                .map(|vm| {
                    if classes[vm] == VmClass::CacheSensitive {
                        self.ewma[vm]
                    } else {
                        0
                    }
                })
                .collect();
            let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
            let mut targets = vec![0u64; n];
            if total == 0 {
                let base = pool / n as u64;
                let extra = pool % n as u64;
                for (vm, t) in targets.iter_mut().enumerate() {
                    *t = min + base + u64::from((vm as u64) < extra);
                }
            } else {
                let mut assigned = 0u64;
                let mut rems: Vec<(u128, usize)> = Vec::with_capacity(n);
                for vm in 0..n {
                    let prod = u128::from(pool) * u128::from(weights[vm]);
                    let share = prod.checked_div(total).unwrap_or(0) as u64;
                    targets[vm] = min + share;
                    assigned += share;
                    rems.push((prod.checked_rem(total).unwrap_or(0), vm));
                }
                rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                for &(_, vm) in rems.iter().take((pool - assigned) as usize) {
                    targets[vm] += 1;
                }
            }
            // At most max_step single-way moves: largest surplus donates to
            // largest deficit, ties to the lowest VM id, floors respected.
            for _ in 0..self.policy.max_step {
                let mut donor: Option<(u64, usize)> = None;
                let mut recipient: Option<(u64, usize)> = None;
                for (vm, (&cur, &tgt)) in self.quotas.iter().zip(&targets).enumerate() {
                    if cur > tgt && cur > min && donor.is_none_or(|(s, _)| cur - tgt > s) {
                        donor = Some((cur - tgt, vm));
                    }
                    if tgt > cur && recipient.is_none_or(|(d, _)| tgt - cur > d) {
                        recipient = Some((tgt - cur, vm));
                    }
                }
                let (Some((_, from)), Some((_, to))) = (donor, recipient) else {
                    break;
                };
                self.quotas[from] -= 1;
                self.quotas[to] += 1;
            }
        }
        (classes, self.ewma.clone(), self.masks())
    }
}

/// Independent flat re-derivation of the engine's VM lifecycle machinery
/// (`consim::churn::ChurnState` plus the engine's boundary handler). The
/// mirror re-derives every churn boundary from scratch: the two permille
/// draws per VM come from its own transcription of the draw protocol (a
/// fresh stream from the root seed and the epoch ordinal), the action each
/// VM takes is recomputed from the mirror's own core bindings and running
/// population, and scrub invalidation counts and writeback lists come from
/// the *model's* private caches. Nothing is adopted from the engine's
/// record — it is only compared against, field for field.
///
/// The one quantity taken from outside is the initial placement: which
/// cores the initially-active VMs start on is decided by the scheduling
/// policy (upstream of churn, possibly seeded-random), so the mirror learns
/// those bindings from the observed access stream before the first
/// boundary — every bound core issues its first access at the phase-start
/// cycle, strictly before any boundary can fire — and maintains them
/// exclusively through its own decisions afterwards.
#[derive(Debug, Clone)]
struct NaiveChurn {
    policy: ChurnPolicy,
    /// The simulation seed the draw streams derive from.
    seed: u64,
    /// Per-VM thread counts (spawn/migration feasibility).
    vm_threads: Vec<usize>,
    /// Core → running VM. `None` is a free core.
    core_vm: Vec<Option<usize>>,
    /// Per-VM running flags.
    active: Vec<bool>,
    /// Churn boundaries verified so far.
    epochs: u64,
}

impl NaiveChurn {
    fn new(policy: ChurnPolicy, seed: u64, vm_threads: Vec<usize>, num_cores: usize) -> Self {
        let active = (0..vm_threads.len())
            .map(|vm| vm < policy.initial_active)
            .collect();
        Self {
            policy,
            seed,
            vm_threads,
            core_vm: vec![None; num_cores],
            active,
            epochs: 0,
        }
    }

    fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Free cores ascending, optionally intersected with the migration
    /// allowlist — the engine's `free_cores`, recomputed from the mirror.
    fn free_cores(&self, targets: Option<&[usize]>) -> Vec<usize> {
        (0..self.core_vm.len())
            .filter(|&core| self.core_vm[core].is_none())
            .filter(|&core| targets.is_none_or(|t| t.contains(&core)))
            .collect()
    }

    /// Cores the mirror binds to `vm`, ascending.
    fn cores_of(&self, vm: usize) -> Vec<usize> {
        (0..self.core_vm.len())
            .filter(|&core| self.core_vm[core] == Some(vm))
            .collect()
    }
}

/// The full naive machine: private L0/L1 per core, LLC banks, directory.
#[derive(Debug, Clone)]
pub struct RefModel {
    mesh_width: usize,
    cores_per_bank: usize,
    l0: Vec<NaiveCache>,
    l1: Vec<NaiveCache>,
    llc: Vec<NaiveCache>,
    directory: NaiveDirectory,
    counters: Vec<ModelCounters>,
    /// Per-VM LLC way masks of a partitioned LLC: fixed when static,
    /// swapped by [`RefModel::repartition`] as dynamic decisions are
    /// verified.
    llc_masks: Option<Vec<u64>>,
    /// Independent controller mirror, dynamic partitioning only.
    qos: Option<NaiveQos>,
    /// Independent lifecycle mirror, churned machines only.
    churn: Option<NaiveChurn>,
    /// Global logical clock for LRU stamps.
    now: u64,
    /// Injected bug for mutation testing, if any.
    mutation: Option<Mutation>,
}

impl RefModel {
    /// Builds an empty model of the machine `config` runs: its caches,
    /// the LLC's replacement policy and way masks, one counter block per
    /// VM and, on a churned machine, the lifecycle mirror, which draws
    /// from the config's seed and places each VM's threads.
    pub fn new(config: &SimulationConfig) -> Self {
        let machine = &config.machine;
        let num_vms = config.workloads.len();
        let bank = machine.llc_bank_geometry();
        let llc_masks = machine
            .llc_partitioning
            .way_masks(bank.associativity, num_vms)
            .expect("partitioning validated by the simulation builder");
        let qos = match &machine.llc_partitioning {
            LlcPartitioning::Dynamic(policy) => Some(NaiveQos::new(
                policy.clone(),
                bank.associativity,
                num_vms,
                (machine.llc_banks() * bank.num_lines()) as u64,
            )),
            _ => None,
        };
        let churn = machine.churn.clone().map(|policy| {
            let threads = config.workloads.iter().map(|w| w.threads).collect();
            NaiveChurn::new(policy, config.seed, threads, machine.num_cores)
        });
        let caches = |count: usize, g: CacheGeometry, policy| {
            (0..count)
                .map(|_| NaiveCache::new(g.num_sets(), g.associativity, policy))
                .collect()
        };
        Self {
            mesh_width: machine.mesh_width,
            cores_per_bank: machine.cores_per_bank(),
            l0: caches(machine.num_cores, machine.l0, ReplacementPolicy::Lru),
            l1: caches(machine.num_cores, machine.l1, ReplacementPolicy::Lru),
            llc: caches(machine.llc_banks(), bank, config.llc_replacement),
            directory: NaiveDirectory::default(),
            counters: vec![ModelCounters::default(); num_vms],
            llc_masks,
            qos,
            churn,
            now: 0,
            mutation: None,
        }
    }

    /// Advances the logical clock: one tick per recency-touching cache
    /// operation, so stamp order reproduces the engine's per-operation LRU
    /// order exactly (including multiple touches within one access).
    fn tick(&mut self) -> u64 {
        self.now += 1;
        self.now
    }

    /// Installs a deliberate bug, if any (mutation testing).
    pub fn with_mutation(mut self, mutation: Option<Mutation>) -> Self {
        self.mutation = mutation;
        for bank in &mut self.llc {
            bank.mutation = mutation;
        }
        self
    }

    /// Per-VM counters accumulated so far (measured steps only).
    pub fn counters(&self) -> &[ModelCounters] {
        &self.counters
    }

    /// Mirrors one LLC prewarm insertion.
    pub fn prewarm(&mut self, bank: BankId, block: BlockAddr) {
        self.fill_llc(bank.index(), block, LineState::Shared);
    }

    /// Total LLC lines and lines present in more than one bank — the
    /// model's view of the engine's `ReplicationSnapshot`.
    pub fn replication(&self) -> (u64, u64) {
        let mut copies: BTreeMap<u64, u32> = BTreeMap::new();
        let mut total = 0u64;
        for bank in &self.llc {
            for line in bank.lines() {
                *copies.entry(line.block.raw()).or_insert(0) += 1;
                total += 1;
            }
        }
        let replicated = self
            .llc
            .iter()
            .flat_map(|b| b.lines())
            .filter(|l| copies[&l.block.raw()] > 1)
            .count() as u64;
        (total, replicated)
    }

    /// `share[bank][vm]` of LLC capacity — the model's view of the
    /// engine's `OccupancySnapshot`, computed the same way (count over
    /// capacity) so agreement is exact.
    pub fn occupancy(&self, num_vms: usize) -> Vec<Vec<f64>> {
        self.llc
            .iter()
            .map(|bank| {
                let mut counts = vec![0u64; num_vms];
                for line in bank.lines() {
                    let vm = line.block.vm().index();
                    if vm < num_vms {
                        counts[vm] += 1;
                    }
                }
                let cap = bank.capacity().max(1) as f64;
                counts.iter().map(|&c| c as f64 / cap).collect()
            })
            .collect()
    }

    /// Replays one observed step; returns a divergence description if the
    /// model disagrees with the engine's classification or the directory's
    /// post-access state.
    ///
    /// # Errors
    ///
    /// The `Err` string names the first mismatching quantity.
    pub fn step(&mut self, step: &AccessStep) -> Result<(), String> {
        if let Some(ch) = &mut self.churn {
            // Before the first boundary the stream *teaches* the mirror the
            // initial placement; from then on it *checks* it — an access
            // from a core the mirror considers free or bound elsewhere is
            // itself a lifecycle divergence.
            let core = step.core.index();
            let vm = step.vm.index();
            match ch.core_vm[core] {
                Some(bound) if bound == vm => {}
                None if ch.epochs == 0 => ch.core_vm[core] = Some(vm),
                bound => {
                    return Err(format!(
                        "churn binding mismatch: core {core} issued for vm {vm}, \
                         model binds {bound:?}"
                    ));
                }
            }
        }
        let computed = self.apply(step);
        if computed != step.outcome {
            return Err(format!(
                "outcome mismatch at {} core {} {}: engine {:?}, model {:?}",
                step.block,
                step.core.index(),
                if step.is_write { "write" } else { "read" },
                step.outcome,
                computed
            ));
        }
        let model_owner = self.directory.owner(step.block);
        let engine_owner = step.dir_owner.map(CoreId::index);
        if model_owner != engine_owner {
            return Err(format!(
                "directory owner mismatch at {}: engine {engine_owner:?}, model {model_owner:?}",
                step.block
            ));
        }
        let model_members = self.directory.members(step.block);
        let engine_members: Vec<usize> = step.dir_sharers.iter().map(CoreId::index).collect();
        if model_members != engine_members {
            return Err(format!(
                "directory sharers mismatch at {}: engine {engine_members:?}, model {model_members:?}",
                step.block
            ));
        }
        Ok(())
    }

    /// Replays the hierarchy walk for one reference and returns the model's
    /// classification. This is a direct, flat transcription of the
    /// protocol's *content* rules.
    fn apply(&mut self, step: &AccessStep) -> StepOutcome {
        let core = step.core.index();
        let vm = step.vm.index();
        let block = step.block;
        let write = step.is_write;
        if step.measuring {
            let c = &mut self.counters[vm];
            c.refs += 1;
            if write {
                c.writes += 1;
            }
        }

        // L0: hits serve reads and writable writes. The mutation mirrors a
        // broken engine fast path that treats *any* private hit as
        // servable, never demoting unwritable write hits to the upgrade
        // transaction.
        let skip_demotion = self.mutation == Some(Mutation::SkipFastPathDemotion);
        let t = self.tick();
        if let Some(state) = self.l0[core].access(block, t) {
            if !write || state.is_writable() || skip_demotion {
                if write {
                    self.l0[core].set_state(block, LineState::Modified);
                    self.l1[core].set_state(block, LineState::Modified);
                }
                if step.measuring {
                    self.counters[vm].l0_hits += 1;
                }
                return StepOutcome::L0Hit;
            }
        }
        // L1.
        let t = self.tick();
        if let Some(state) = self.l1[core].access(block, t) {
            if !write || state.is_writable() || skip_demotion {
                let new_state = if write { LineState::Modified } else { state };
                if write {
                    self.l1[core].set_state(block, LineState::Modified);
                }
                self.l1_fill_l0(core, block, new_state);
                if step.measuring {
                    self.counters[vm].l1_hits += 1;
                }
                return StepOutcome::L1Hit;
            }
            // Write hit on a Shared line: upgrade for exclusivity.
            let invalidate = self.directory.upgrade(core, block);
            self.invalidate_victims(vm, &invalidate, block, step.measuring);
            self.invalidate_llc_copies(block);
            self.l1[core].set_state(block, LineState::Modified);
            self.l0[core].set_state(block, LineState::Modified);
            if step.measuring {
                let c = &mut self.counters[vm];
                c.l1_misses += 1;
                c.upgrades += 1;
            }
            return StepOutcome::Miss(MissSource::Upgrade);
        }

        // Full directory transaction.
        let outcome = self.directory.handle(core, block, write);
        self.invalidate_victims(vm, &outcome.invalidate, block, step.measuring);
        let source = match outcome.source {
            NaiveSource::Dirty(owner) => {
                let owner = if self.mutation == Some(Mutation::IgnoreOwners) {
                    usize::MAX // pretend nobody owns it; fall through below
                } else {
                    owner
                };
                if owner == usize::MAX {
                    self.serve_below(core, block, write)
                } else {
                    if write {
                        self.invalidate_private(owner, block);
                    } else if self.mutation != Some(Mutation::SkipOwnerDowngrade) {
                        self.l1[owner].set_state(block, LineState::Shared);
                        self.l0[owner].set_state(block, LineState::Shared);
                    }
                    MissSource::RemoteL1Dirty
                }
            }
            NaiveSource::Clean => {
                // The engine serves from the *nearest* prior sharer; the
                // transfer itself does not change the supplier's state on a
                // read, and on a write the supplier was already invalidated
                // (idempotently re-invalidated by the engine).
                let supplier = self.nearest_prior_sharer(core, block, &outcome.invalidate);
                if write {
                    self.invalidate_private(supplier, block);
                }
                MissSource::RemoteL1Clean
            }
            NaiveSource::Below => self.serve_below(core, block, write),
            NaiveSource::NoData => MissSource::Upgrade,
        };

        // Post-dispatch LLC consistency, mirroring the engine: writers
        // leave no bank copies; read c2c transfers also fill the local bank.
        if write {
            self.invalidate_llc_copies(block);
        } else if matches!(
            source,
            MissSource::RemoteL1Dirty | MissSource::RemoteL1Clean
        ) {
            let bank = self.bank_of_core(core);
            self.fill_llc(bank, block, LineState::Shared);
        }

        if step.measuring {
            let c = &mut self.counters[vm];
            c.l1_misses += 1;
            match source {
                MissSource::RemoteL1Dirty => c.c2c_l1_dirty += 1,
                MissSource::RemoteL1Clean => c.c2c_l1_clean += 1,
                MissSource::LocalLlc => c.llc_local_hits += 1,
                MissSource::RemoteLlcDirty => c.llc_remote_dirty += 1,
                MissSource::RemoteLlcClean => c.llc_remote_clean += 1,
                MissSource::Memory => c.memory_fetches += 1,
                MissSource::Upgrade => c.upgrades += 1,
            }
        }

        // Install in the private hierarchy.
        if source != MissSource::Upgrade {
            let new_state = if write {
                LineState::Modified
            } else if outcome.exclusive {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
            self.fill_l1(core, block, new_state);
        } else {
            self.l1[core].set_state(block, LineState::Modified);
            self.l0[core].set_state(block, LineState::Modified);
        }
        let _ = outcome.writeback; // memory-side only; no content effect
        StepOutcome::Miss(source)
    }

    /// Serves a miss from the LLC banks or memory, mirroring the engine's
    /// `serve_from_llc_or_memory` content effects.
    fn serve_below(&mut self, core: usize, block: BlockAddr, write: bool) -> MissSource {
        let my_bank = self.bank_of_core(core);
        let t = self.tick();
        if self.llc[my_bank].access(block, t).is_some() {
            if write {
                self.invalidate_llc_copies(block);
            }
            return MissSource::LocalLlc;
        }
        // Nearest other bank holding the block (first-minimal on ties,
        // like the engine's `min_by_key` over ascending bank ids).
        let remote = (0..self.llc.len())
            .filter(|&b| b != my_bank && self.llc[b].probe(block).is_some())
            .min_by_key(|&b| self.hops(self.bank_node(b), self.core_node(core)));
        if let Some(rb) = remote {
            let was_dirty = self.llc[rb]
                .probe(block)
                .map(LineState::is_dirty)
                .unwrap_or(false);
            if write {
                self.invalidate_llc_copies(block);
            } else {
                if was_dirty {
                    self.llc[rb].set_state(block, LineState::Shared);
                }
                self.fill_llc(my_bank, block, LineState::Shared);
            }
            return if was_dirty {
                MissSource::RemoteLlcDirty
            } else {
                MissSource::RemoteLlcClean
            };
        }
        if !write {
            self.fill_llc(my_bank, block, LineState::Shared);
        }
        MissSource::Memory
    }

    /// The engine's nearest-clean-supplier rule: among the sharers the
    /// directory knew *before* the request (excluding the requester),
    /// minimize mesh distance to the requester, first-minimal on ties.
    /// The prior sharers are the post-transition members plus any cores the
    /// transition invalidated, minus the requester.
    fn nearest_prior_sharer(&self, core: usize, block: BlockAddr, invalidated: &[usize]) -> usize {
        let mut prior: BTreeSet<usize> = self.directory.members(block).into_iter().collect();
        prior.extend(invalidated.iter().copied());
        prior.remove(&core);
        // On a write the transition removed every other sharer into
        // `invalidated`; on a read all priors remain members. Either way
        // `prior` is now exactly the engine's `prior_sharers - requester`.
        prior
            .into_iter()
            .min_by_key(|&c| self.hops(self.core_node(c), self.core_node(core)))
            .expect("clean transfer implies another sharer")
    }

    /// L1 fill with inclusive-L0 and directory bookkeeping, mirroring the
    /// engine's `fill_l1`.
    fn fill_l1(&mut self, core: usize, block: BlockAddr, state: LineState) {
        let t = self.tick();
        if let Some(victim) = self.l1[core].insert(block, state, t) {
            self.l0[core].invalidate(victim.block);
            self.directory.evict(core, victim.block);
            if victim.state.is_dirty() {
                let bank = self.bank_of_core(core);
                self.fill_llc(bank, victim.block, LineState::Modified);
            }
        }
        self.l1_fill_l0(core, block, state);
    }

    /// L0 fill: silent evictions (the engine's `fill_l0`).
    fn l1_fill_l0(&mut self, core: usize, block: BlockAddr, state: LineState) {
        let t = self.tick();
        self.l0[core].insert(block, state, t);
    }

    /// LLC fill, confined to the filling VM's ways when the LLC is
    /// partitioned; dirty victims write back to memory, which has no
    /// content representation here.
    fn fill_llc(&mut self, bank: usize, block: BlockAddr, state: LineState) {
        let t = self.tick();
        let mask = match &self.llc_masks {
            Some(masks) if self.mutation != Some(Mutation::IgnoreWayQuotas) => {
                masks[block.vm().index()]
            }
            _ => u64::MAX,
        };
        self.llc[bank].insert_masked(block, state, t, mask);
    }

    /// LLC lines currently held per VM across every bank — the quantity
    /// the engine hands its repartitioning controller at each boundary.
    fn llc_lines_per_vm(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.counters.len()];
        for bank in &self.llc {
            for line in bank.lines() {
                let vm = line.block.vm().index();
                if vm < counts.len() {
                    counts[vm] += 1;
                }
            }
        }
        counts
    }

    /// Verifies one engine repartition decision against the model and
    /// applies it. The decision's epoch counter, old masks, occupancy, and
    /// per-VM epoch deltas are each checked against the model's own state,
    /// then the new masks are re-derived by the independent [`NaiveQos`]
    /// mirror and compared field-for-field before being adopted for
    /// subsequent fills.
    ///
    /// # Errors
    ///
    /// The `Err` string names the first mismatching quantity.
    pub fn repartition(&mut self, d: &RepartitionDecision) -> Result<(), String> {
        let n = self.counters.len();
        if self.llc_masks.is_none() || self.qos.is_none() {
            return Err("repartition decision on a non-dynamic configuration".into());
        }
        if [
            d.refs.len(),
            d.l1_misses.len(),
            d.memory_fetches.len(),
            d.occupancy_lines.len(),
            d.old_masks.len(),
            d.new_masks.len(),
        ]
        .iter()
        .any(|&len| len != n)
        {
            return Err(format!(
                "repartition epoch {}: per-VM vector length disagrees with {n} VMs",
                d.epoch
            ));
        }
        if self.mutation == Some(Mutation::IgnoreRepartition) {
            // The deliberately broken mirror never follows the controller;
            // the comparison stays, so the first decision that actually
            // moves a way surfaces as a divergence.
            let masks = self.llc_masks.as_ref().expect("checked above");
            if d.new_masks != *masks {
                return Err(format!(
                    "repartition epoch {}: engine masks {:?}, model masks {:?} \
                     (mutated: decisions ignored)",
                    d.epoch, d.new_masks, masks
                ));
            }
            return Ok(());
        }
        let masks = self.llc_masks.as_ref().expect("checked above");
        if d.old_masks != *masks {
            return Err(format!(
                "repartition epoch {}: engine old masks {:?}, model masks {:?}",
                d.epoch, d.old_masks, masks
            ));
        }
        let occ = self.llc_lines_per_vm();
        if d.occupancy_lines != occ {
            return Err(format!(
                "repartition epoch {}: engine occupancy {:?}, model {:?}",
                d.epoch, d.occupancy_lines, occ
            ));
        }
        let qos = self.qos.as_mut().expect("checked above");
        if d.epoch != qos.epochs + 1 {
            return Err(format!(
                "repartition epoch {}: model expected epoch {}",
                d.epoch,
                qos.epochs + 1
            ));
        }
        if let Some(last) = qos.last_at {
            if d.elapsed != d.at.saturating_sub(last) {
                return Err(format!(
                    "repartition epoch {}: engine elapsed {}, but boundary moved {} to {}",
                    d.epoch, d.elapsed, last, d.at
                ));
            }
        }
        qos.last_at = Some(d.at);
        // Epoch deltas from the model's own cumulative counters.
        let mut deltas = [vec![0u64; n], vec![0u64; n], vec![0u64; n]];
        for vm in 0..n {
            let cum = [
                self.counters[vm].refs,
                self.counters[vm].l1_misses,
                self.counters[vm].memory_fetches,
            ];
            for (k, name) in ["refs", "l1_misses", "memory_fetches"].iter().enumerate() {
                deltas[k][vm] = cum[k].saturating_sub(qos.prev[vm][k]);
                let engine = [&d.refs, &d.l1_misses, &d.memory_fetches][k][vm];
                if deltas[k][vm] != engine {
                    return Err(format!(
                        "repartition epoch {}: {name} delta for vm {vm}: engine {engine}, \
                         model {}",
                        d.epoch, deltas[k][vm]
                    ));
                }
            }
            qos.prev[vm] = cum;
        }
        let [refs_d, l1_d, mem_d] = deltas;
        let (classes, ewma, new_masks) = qos.decide(d.elapsed, &refs_d, &l1_d, &mem_d, &occ);
        if classes != d.classes {
            return Err(format!(
                "repartition epoch {}: engine classes {:?}, model {:?}",
                d.epoch, d.classes, classes
            ));
        }
        if ewma != d.ewma_milli {
            return Err(format!(
                "repartition epoch {}: engine ewma {:?}, model {:?}",
                d.epoch, d.ewma_milli, ewma
            ));
        }
        if new_masks != d.new_masks {
            return Err(format!(
                "repartition epoch {}: engine new masks {:?}, model {:?}",
                d.epoch, d.new_masks, new_masks
            ));
        }
        self.llc_masks = Some(new_masks);
        Ok(())
    }

    /// Verifies one engine churn boundary against the model and applies it.
    /// Everything is re-derived from the model's own state: the draws come
    /// from an independent transcription of the draw protocol, each VM's
    /// action is recomputed from the mirror's bindings and population, and
    /// scrub counts and writeback lists from the model's own private
    /// caches. Only then is the engine's record compared field-for-field —
    /// the model never adopts engine data.
    ///
    /// # Errors
    ///
    /// The `Err` string names the first mismatching quantity.
    pub fn churn(&mut self, d: &ChurnDecision) -> Result<(), String> {
        let Some(mut ch) = self.churn.take() else {
            return Err("churn decision on a churn-free configuration".into());
        };
        let result = self.churn_boundary(&mut ch, d);
        self.churn = Some(ch);
        result
    }

    fn churn_boundary(&mut self, ch: &mut NaiveChurn, d: &ChurnDecision) -> Result<(), String> {
        let n = self.counters.len();
        if d.epoch != ch.epochs + 1 {
            return Err(format!(
                "churn epoch {}: model expected epoch {}",
                d.epoch,
                ch.epochs + 1
            ));
        }
        ch.epochs += 1;
        // Independent transcription of the draw protocol: a fresh stream
        // from the root seed and the 1-based epoch ordinal, two permille
        // draws per VM in id order, unconditionally.
        let mut rng = SimRng::from_seed(ch.seed).derive_parts("churn/epoch", &[d.epoch]);
        let draws: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.below(1000) as u32, rng.below(1000) as u32))
            .collect();
        if draws != d.draws {
            return Err(format!(
                "churn epoch {}: engine draws {:?}, model draws {draws:?}",
                d.epoch, d.draws
            ));
        }
        // Decide and apply sequentially in VM id order, exactly as the
        // engine does (earlier VMs' spawns and retires change the free-core
        // set later VMs see).
        let mut actions: Vec<ChurnAction> = Vec::new();
        for (vm, &(d1, d2)) in draws.iter().enumerate() {
            let threads = ch.vm_threads[vm];
            if !ch.active[vm] {
                if d1 < ch.policy.arrival_permille[vm] {
                    let free = ch.free_cores(None);
                    if free.len() >= threads {
                        let cores = free[..threads].to_vec();
                        for &core in &cores {
                            ch.core_vm[core] = Some(vm);
                        }
                        ch.active[vm] = true;
                        actions.push(ChurnAction::Spawn { vm, cores });
                    }
                }
                continue;
            }
            if d1 < ch.policy.departure_permille[vm] && ch.active_count() > ch.policy.min_active {
                if self.mutation == Some(Mutation::IgnoreRetire) {
                    // The deliberately broken mirror never processes the
                    // death branch; the engine's Retire record then has no
                    // model counterpart and the comparison below diverges.
                    continue;
                }
                let cores = ch.cores_of(vm);
                let (invalidated_l0, invalidated_l1, writebacks) = self.scrub_private(&cores);
                for &core in &cores {
                    ch.core_vm[core] = None;
                }
                ch.active[vm] = false;
                actions.push(ChurnAction::Retire {
                    vm,
                    cores,
                    invalidated_l0,
                    invalidated_l1,
                    writebacks,
                });
                continue;
            }
            if d2 < ch.policy.migration_permille {
                let free = ch.free_cores(ch.policy.migration_targets.as_deref());
                if free.len() >= threads {
                    let to = free[..threads].to_vec();
                    let from = ch.cores_of(vm);
                    let (invalidated_l0, invalidated_l1, writebacks) =
                        if self.mutation == Some(Mutation::SkipMigrationInvalidation) {
                            // Rebind without scrubbing: stale lines and
                            // directory entries linger on the vacated cores,
                            // and the reported zero counts disagree with any
                            // engine scrub that touched a line.
                            (0, 0, Vec::new())
                        } else {
                            self.scrub_private(&from)
                        };
                    for &core in &from {
                        ch.core_vm[core] = None;
                    }
                    for &core in &to {
                        ch.core_vm[core] = Some(vm);
                    }
                    actions.push(ChurnAction::Migrate {
                        vm,
                        from,
                        to,
                        invalidated_l0,
                        invalidated_l1,
                        writebacks,
                    });
                }
            }
        }
        if actions != d.actions {
            let at = actions
                .iter()
                .zip(&d.actions)
                .position(|(model, engine)| model != engine)
                .unwrap_or(actions.len().min(d.actions.len()));
            return Err(format!(
                "churn epoch {}: action {at} disagrees: engine {:?}, model {:?}",
                d.epoch,
                d.actions.get(at),
                actions.get(at)
            ));
        }
        if ch.active != d.active_after {
            return Err(format!(
                "churn epoch {}: engine active set {:?}, model {:?}",
                d.epoch, d.active_after, ch.active
            ));
        }
        Ok(())
    }

    /// The model's transcription of the engine's churn scrub (the PR-7
    /// no-flush rule applied to private caches): per core ascending, L1
    /// lines in ascending block order — dirty lines first written back
    /// content-only into the core's local bank, every line evicted from the
    /// directory and invalidated — then L0 blocks ascending, invalidated.
    /// LLC lines are left to age out through natural replacement.
    fn scrub_private(&mut self, cores: &[usize]) -> (u64, u64, Vec<(BankId, BlockAddr)>) {
        let mut l0_count = 0u64;
        let mut l1_count = 0u64;
        let mut writebacks = Vec::new();
        for &core in cores {
            let mut l1_lines: Vec<(BlockAddr, LineState)> =
                self.l1[core].lines().map(|s| (s.block, s.state)).collect();
            l1_lines.sort_unstable_by_key(|&(block, _)| block.raw());
            let bank = self.bank_of_core(core);
            for (block, state) in l1_lines {
                if state.is_dirty() {
                    self.fill_llc(bank, block, LineState::Modified);
                    writebacks.push((BankId::new(bank), block));
                }
                self.directory.evict(core, block);
                self.l1[core].invalidate(block);
                l1_count += 1;
            }
            let mut l0_blocks: Vec<BlockAddr> = self.l0[core].lines().map(|s| s.block).collect();
            l0_blocks.sort_unstable_by_key(|block| block.raw());
            for block in l0_blocks {
                self.l0[core].invalidate(block);
                l0_count += 1;
            }
        }
        (l0_count, l1_count, writebacks)
    }

    fn invalidate_private(&mut self, core: usize, block: BlockAddr) {
        self.l1[core].invalidate(block);
        self.l0[core].invalidate(block);
    }

    fn invalidate_llc_copies(&mut self, block: BlockAddr) {
        for bank in &mut self.llc {
            bank.invalidate(block);
        }
    }

    /// Invalidations fanned out by the directory; counted against the
    /// *requesting* VM, as the engine does.
    fn invalidate_victims(
        &mut self,
        vm: usize,
        victims: &[usize],
        block: BlockAddr,
        measured: bool,
    ) {
        for &victim in victims {
            if self.mutation != Some(Mutation::SkipInvalidations) {
                self.invalidate_private(victim, block);
            }
            if measured {
                self.counters[vm].invalidations_received += 1;
            }
        }
    }

    fn bank_of_core(&self, core: usize) -> usize {
        core / self.cores_per_bank
    }

    /// Mesh node of a core (identity mapping, like the engine's layout).
    fn core_node(&self, core: usize) -> usize {
        core
    }

    /// Mesh node an LLC bank attaches to (middle of its core group).
    fn bank_node(&self, bank: usize) -> usize {
        bank * self.cores_per_bank + self.cores_per_bank / 2
    }

    /// Manhattan distance on the row-major mesh.
    fn hops(&self, a: usize, b: usize) -> u64 {
        let (ax, ay) = (a % self.mesh_width, a / self.mesh_width);
        let (bx, by) = (b % self.mesh_width, b / self.mesh_width);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consim_cache::{CacheLine, SetAssocCache};
    use consim_snap::{SectionBuf, SectionReader, Snapshot};
    use consim_types::config::{MachineConfig, SharingDegree};
    use consim_types::VmId;
    use consim_workload::WorkloadProfileBuilder;

    /// A model of `machine` hosting one VM.
    fn model_of(machine: MachineConfig) -> RefModel {
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .workload(WorkloadProfileBuilder::new("vm").build().unwrap());
        RefModel::new(&b.build().unwrap())
    }

    fn paper_model() -> RefModel {
        model_of(MachineConfig::paper_default())
    }

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::in_vm(VmId::new(0), n)
    }

    fn read_step(core: usize, block: BlockAddr) -> AccessStep {
        AccessStep {
            core: CoreId::new(core),
            vm: VmId::new(0),
            thread: consim_types::ThreadId::new(0),
            block,
            is_write: false,
            measuring: true,
            outcome: StepOutcome::Miss(MissSource::Memory),
            dir_owner: None,
            dir_sharers: consim_coherence::CoreSet::EMPTY,
        }
    }

    #[test]
    fn cold_read_goes_to_memory() {
        let mut m = paper_model();
        let step = read_step(0, blk(1));
        let out = m.apply(&step);
        assert_eq!(out, StepOutcome::Miss(MissSource::Memory));
        // Second access by the same core is an L0 hit.
        let out = m.apply(&read_step(0, blk(1)));
        assert_eq!(out, StepOutcome::L0Hit);
    }

    #[test]
    fn second_reader_is_clean_c2c() {
        let mut m = paper_model();
        m.apply(&read_step(0, blk(1)));
        let out = m.apply(&read_step(1, blk(1)));
        assert_eq!(out, StepOutcome::Miss(MissSource::RemoteL1Clean));
    }

    #[test]
    fn write_after_remote_read_is_dirty_transfer_chain() {
        let mut m = paper_model();
        let mut w = read_step(0, blk(1));
        w.is_write = true;
        m.apply(&w);
        assert_eq!(m.directory.owner(blk(1)), Some(0));
        // Remote read pulls it dirty and downgrades.
        let out = m.apply(&read_step(5, blk(1)));
        assert_eq!(out, StepOutcome::Miss(MissSource::RemoteL1Dirty));
        assert_eq!(m.directory.owner(blk(1)), None);
        assert_eq!(m.directory.members(blk(1)), vec![0, 5]);
    }

    #[test]
    fn naive_lru_matches_stamp_order() {
        let mut c = NaiveCache::new(1, 2, ReplacementPolicy::Lru);
        c.insert(blk(1), LineState::Shared, 1);
        c.insert(blk(2), LineState::Shared, 2);
        c.access(blk(1), 3);
        let victim = c.insert(blk(3), LineState::Shared, 4).expect("eviction");
        assert_eq!(victim.block, blk(2));
        assert!(c.probe(blk(1)).is_some());
    }

    #[test]
    fn probe_does_not_touch() {
        let mut c = NaiveCache::new(1, 2, ReplacementPolicy::Lru);
        c.insert(blk(1), LineState::Shared, 1);
        c.insert(blk(2), LineState::Shared, 2);
        assert!(c.probe(blk(1)).is_some());
        let victim = c.insert(blk(3), LineState::Shared, 3).expect("eviction");
        assert_eq!(victim.block, blk(1), "probe must not protect the LRU line");
    }

    /// One operation of a seeded stream over one cache.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Probe(BlockAddr),
        Access(BlockAddr),
        Insert(BlockAddr, LineState),
        InsertInWays(BlockAddr, LineState, u64),
        SetState(BlockAddr, LineState),
        Invalidate(BlockAddr),
    }

    fn gen_op(rng: &mut SimRng, blocks: u64, ways: usize) -> Op {
        let block = BlockAddr::new(rng.below(blocks));
        let state = [LineState::Shared, LineState::Exclusive, LineState::Modified][rng.index(3)];
        let all = (1u64 << ways) - 1;
        match rng.index(7) {
            0 => Op::Probe(block),
            1 => Op::Access(block),
            2 => Op::Insert(block, state),
            3 => Op::InsertInWays(block, state, 1 + rng.below(all)),
            // The ways split in half by block parity, like two VMs under
            // way partitioning.
            4 if ways >= 2 => {
                let low = (1u64 << (ways / 2)) - 1;
                let mask = if block.raw().is_multiple_of(2) {
                    low
                } else {
                    all & !low
                };
                Op::InsertInWays(block, state, mask)
            }
            5 => Op::SetState(block, state),
            _ => Op::Invalidate(block),
        }
    }

    /// Applies `op` to both caches; they must agree on its result (hit
    /// state, victim, removed line) and on the occupancy after it.
    fn apply_both(op: Op, real: &mut SetAssocCache, naive: &mut NaiveCache, now: u64, ctx: &str) {
        let line = |s: Slot| CacheLine::new(s.block, s.state);
        match op {
            Op::Probe(b) => assert_eq!(real.probe(b), naive.probe(b), "{ctx}: {op:?}"),
            Op::Access(b) => assert_eq!(real.access(b), naive.access(b, now), "{ctx}: {op:?}"),
            Op::Insert(b, s) => assert_eq!(
                real.insert(b, s),
                naive.insert(b, s, now).map(line),
                "{ctx}: victim of {op:?}"
            ),
            Op::InsertInWays(b, s, mask) => assert_eq!(
                real.insert_in_ways(b, s, mask),
                naive.insert_masked(b, s, now, mask).map(line),
                "{ctx}: victim of {op:?}"
            ),
            Op::SetState(b, s) => {
                let present = naive.probe(b).is_some();
                naive.set_state(b, s);
                assert_eq!(real.set_state(b, s), present, "{ctx}: {op:?}");
            }
            Op::Invalidate(b) => {
                let removed = naive.probe(b).map(|s| CacheLine::new(b, s));
                naive.invalidate(b);
                assert_eq!(real.invalidate(b), removed, "{ctx}: {op:?}");
            }
        }
        let occupancy = naive.lines().count();
        assert_eq!(real.occupancy(), occupancy, "{ctx}: occupancy after {op:?}");
    }

    /// Runs `steps` operations of a seeded stream through a
    /// `SetAssocCache` and a `NaiveCache`, then compares their contents way
    /// by way (`SetAssocCache::lines` walks slots in `(set, way)` order).
    /// With `restore_at`, the real cache is saved at that step and the
    /// stream goes on in a fresh cache restored from the save, against the
    /// uninterrupted model.
    fn run_stream(
        policy: ReplacementPolicy,
        (num_sets, ways): (usize, usize),
        seed: u64,
        steps: usize,
        restore_at: Option<usize>,
    ) {
        let geom = CacheGeometry::new(num_sets * ways * 64, ways, 1).unwrap();
        let mut real = SetAssocCache::new(geom, policy);
        let mut naive = NaiveCache::new(num_sets, ways, policy);
        let mut rng = SimRng::from_seed(seed).derive("set-assoc-vs-naive");
        let blocks = 2 * (num_sets * ways) as u64 + 2;
        let ctx = format!("{policy:?} {num_sets}x{ways} seed {seed}");
        for step in 0..steps {
            if restore_at == Some(step) {
                let mut buf = SectionBuf::new();
                real.save(&mut buf);
                real = SetAssocCache::new(geom, policy);
                real.restore(&mut SectionReader::new("caches", buf.as_bytes()))
                    .unwrap();
            }
            let op = gen_op(&mut rng, blocks, ways);
            let now = step as u64 + 1;
            apply_both(
                op,
                &mut real,
                &mut naive,
                now,
                &format!("{ctx} step {step}"),
            );
        }
        let mut slots: Vec<&Slot> = naive.lines().collect();
        slots.sort_by_key(|s| (naive.set_of(s.block), s.way));
        let expected: Vec<CacheLine> = slots
            .iter()
            .map(|s| CacheLine::new(s.block, s.state))
            .collect();
        let contents: Vec<CacheLine> = real.lines().collect();
        assert_eq!(contents, expected, "{ctx}: final contents");
    }

    /// The naive model is the reference for `SetAssocCache` under every
    /// replacement policy: the same seeded streams of probes, hits, fills,
    /// masked fills (random masks and half splits), state changes and
    /// invalidations must give the same results, victims, occupancy and
    /// final contents. Four fixed geometries each take one save/restore
    /// of the real cache mid-stream; 64 random geometries per policy cover
    /// 1–8 ways (powers of two for tree-PLRU) over 1–9 sets.
    #[test]
    fn set_assoc_cache_matches_naive_cache_under_every_policy() {
        let policies = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Random,
        ];
        for (p, policy) in policies.into_iter().enumerate() {
            for (shape, seed) in [((8, 4), 11), ((4, 2), 12), ((16, 8), 13), ((1, 4), 14)] {
                run_stream(policy, shape, seed, 4_000, Some(2_000));
            }
            let mut rng = SimRng::from_seed(p as u64).derive("geometries");
            for case in 0..64 {
                let ways = match policy {
                    ReplacementPolicy::TreePlru => 1 << rng.index(4),
                    _ => 1 + rng.index(8),
                };
                let sets = 1 + rng.index(9);
                run_stream(policy, (sets, ways), 100 + case, 600, None);
            }
        }
    }

    #[test]
    fn replication_counts_multi_bank_blocks() {
        let mut m = model_of(MachineConfig::paper_default().with_sharing(SharingDegree::Private));
        m.prewarm(BankId::new(0), blk(1));
        m.prewarm(BankId::new(1), blk(1));
        m.prewarm(BankId::new(2), blk(2));
        let (total, replicated) = m.replication();
        assert_eq!(total, 3);
        assert_eq!(replicated, 2);
    }
}
