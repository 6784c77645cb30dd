//! A whole set-associative cache, stored as flat struct-of-arrays planes.
//!
//! Storage is three contiguous per-cache planes indexed `set * ways + way`:
//! a `u64` tag plane, a `u8` state plane (0 encodes Invalid — the slot is
//! empty), and the replacement planes ([`ReplacementPlanes`]). A set probe
//! is a stride-limited scan over adjacent words instead of pointer-chasing
//! `Option<CacheLine>`, which is what the engine's hot path spends most of
//! its time doing. The reference for its semantics is consim-check's naive
//! cache model: a differential test there drives both through the same
//! seeded streams under all three replacement policies, masked fills and a
//! mid-stream restore included.

use crate::line::{CacheLine, LineState};
use crate::replacement::{ReplacementPlanes, ReplacementPolicy};
use crate::stats::CacheStats;
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::{BlockAddr, CacheGeometry, SimError, SnapshotErrorKind};

/// Encodes a state for the state plane (Invalid = 0 marks an empty slot).
#[inline]
const fn encode(state: LineState) -> u8 {
    match state {
        LineState::Invalid => 0,
        LineState::Shared => 1,
        LineState::Exclusive => 2,
        LineState::Modified => 3,
    }
}

/// Decodes a state-plane byte known to be a valid encoding.
#[inline]
const fn decode(v: u8) -> LineState {
    match v {
        1 => LineState::Shared,
        2 => LineState::Exclusive,
        3 => LineState::Modified,
        _ => LineState::Invalid,
    }
}

/// A set-associative cache keyed by [`BlockAddr`].
///
/// Models every level of the paper's hierarchy: private L0s/L1s and LLC
/// banks of any sharing degree. Indexing uses the low bits of the block
/// address; tags are full block addresses (so lines of different VMs never
/// alias, matching the machine's physical tagging).
///
/// # Examples
///
/// ```
/// use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
/// use consim_types::{BlockAddr, CacheGeometry};
///
/// // The paper's 1 MB private LLC partition: 16-way, 6-cycle.
/// let geom = CacheGeometry::new(1 << 20, 16, 6)?;
/// let mut llc = SetAssocCache::new(geom, ReplacementPolicy::Lru);
/// llc.insert(BlockAddr::new(3), LineState::Exclusive);
/// assert!(llc.contains(BlockAddr::new(3)));
/// assert_eq!(llc.stats().insertions, 1);
/// # Ok::<(), consim_types::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    num_sets: usize,
    ways: usize,
    /// `Some(num_sets - 1)` when the set count is a power of two, so the
    /// index is a mask instead of a division.
    set_mask: Option<u64>,
    /// Tag plane: the block address cached in each slot. Slots whose state
    /// is Invalid keep their last tag (never read — guarded by the state).
    tags: Vec<u64>,
    /// State plane: 0 = Invalid/empty, 1 = Shared, 2 = Exclusive,
    /// 3 = Modified.
    states: Vec<u8>,
    repl: ReplacementPlanes,
    /// Valid-line count, maintained incrementally (O(1) `occupancy`).
    occupancy: usize,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and policy.
    ///
    /// Random replacement draws from a stream seeded by the set index, so
    /// two identically-configured caches behave identically.
    pub fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let num_sets = geometry.num_sets();
        let ways = geometry.associativity;
        let set_mask = num_sets.is_power_of_two().then_some(num_sets as u64 - 1);
        Self {
            geometry,
            num_sets,
            ways,
            set_mask,
            tags: vec![0; num_sets * ways],
            states: vec![0; num_sets * ways],
            repl: ReplacementPlanes::new(policy, num_sets, ways),
            occupancy: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.geometry.latency
    }

    /// The set index for a block.
    #[inline]
    fn set_index(&self, block: BlockAddr) -> usize {
        match self.set_mask {
            Some(mask) => (block.raw() & mask) as usize,
            None => (block.raw() % self.num_sets as u64) as usize,
        }
    }

    /// Finds the way of `set` holding `block`, if any.
    #[inline]
    fn way_of(&self, set: usize, raw: u64) -> Option<usize> {
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        let states = &self.states[base..base + self.ways];
        (0..self.ways).find(|&w| states[w] != 0 && tags[w] == raw)
    }

    /// Looks up a block without modifying recency or statistics.
    #[inline]
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        let set = self.set_index(block);
        self.way_of(set, block.raw())
            .map(|w| decode(self.states[set * self.ways + w]))
    }

    /// Whether the block is present.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.probe(block).is_some()
    }

    /// Performs a demand access: updates recency and hit/miss statistics.
    #[inline]
    pub fn access(&mut self, block: BlockAddr) -> Option<LineState> {
        let set = self.set_index(block);
        match self.way_of(set, block.raw()) {
            Some(w) => {
                self.repl.touch(set, w, self.ways);
                self.stats.hits += 1;
                Some(decode(self.states[set * self.ways + w]))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Changes the state of a present block; returns `false` if absent.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        let set = self.set_index(block);
        match self.way_of(set, block.raw()) {
            Some(w) => {
                let idx = set * self.ways + w;
                if state.is_valid() {
                    self.states[idx] = encode(state);
                } else {
                    self.states[idx] = 0;
                    self.occupancy -= 1;
                }
                true
            }
            None => false,
        }
    }

    /// Fills a block, evicting a victim if the set is full.
    ///
    /// Returns the evicted line, if any (dirty victims need a writeback —
    /// the caller decides where it goes). Dirty evictions are also counted
    /// in [`CacheStats::dirty_evictions`].
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<CacheLine> {
        self.insert_masked(block, state, u64::MAX, false)
    }

    /// Fills a block, allocating only into the ways allowed by `mask`
    /// (bit `w` set means way `w` is allowed) — the way-partitioned
    /// counterpart of [`SetAssocCache::insert`]. Lookups and invalidations
    /// remain unrestricted; only allocation is confined.
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of the set's ways.
    pub fn insert_in_ways(
        &mut self,
        block: BlockAddr,
        state: LineState,
        mask: u64,
    ) -> Option<CacheLine> {
        self.insert_masked(block, state, mask, true)
    }

    /// Shared fill path. `masked` only picks the victim entry point: plain
    /// inserts take the unmasked `ReplacementPlanes::victim`, which picks
    /// the same way and makes the same RNG draw as `victim_in` with a full
    /// mask but skips the mask tests. Routing every fill through
    /// `victim_in` measured slower on the engine benchmark.
    fn insert_masked(
        &mut self,
        block: BlockAddr,
        state: LineState,
        mask: u64,
        masked: bool,
    ) -> Option<CacheLine> {
        debug_assert!(state.is_valid(), "inserting an invalid line");
        let raw = block.raw();
        let set = self.set_index(block);
        let base = set * self.ways;
        self.stats.insertions += 1;
        if let Some(w) = self.way_of(set, raw) {
            // Present anywhere in the set (even outside the mask): update
            // in place, no eviction.
            self.states[base + w] = encode(state);
            self.repl.touch(set, w, self.ways);
            return None;
        }
        // Lowest allowed free way.
        if let Some(w) = (0..self.ways).find(|&w| mask >> w & 1 == 1 && self.states[base + w] == 0)
        {
            self.tags[base + w] = raw;
            self.states[base + w] = encode(state);
            self.repl.touch(set, w, self.ways);
            self.occupancy += 1;
            return None;
        }
        let w = if masked {
            self.repl.victim_in(set, mask, self.ways)
        } else {
            self.repl.victim(set, self.ways)
        };
        let victim = CacheLine::new(
            BlockAddr::new(self.tags[base + w]),
            decode(self.states[base + w]),
        );
        self.tags[base + w] = raw;
        self.states[base + w] = encode(state);
        self.repl.touch(set, w, self.ways);
        self.stats.evictions += 1;
        if victim.state.is_dirty() {
            self.stats.dirty_evictions += 1;
        }
        Some(victim)
    }

    /// Removes a block (coherence invalidation); returns the removed line.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<CacheLine> {
        let set = self.set_index(block);
        let w = self.way_of(set, block.raw())?;
        let idx = set * self.ways + w;
        let removed = CacheLine::new(block, decode(self.states[idx]));
        self.states[idx] = 0;
        self.occupancy -= 1;
        self.stats.invalidations += 1;
        Some(removed)
    }

    /// Iterates over every valid line (for snapshot metrics).
    pub fn lines(&self) -> impl Iterator<Item = CacheLine> + '_ {
        self.states
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != 0)
            .map(|(i, &s)| CacheLine::new(BlockAddr::new(self.tags[i]), decode(s)))
    }

    /// Number of valid lines currently stored.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.geometry.num_lines()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents) — used for post-warmup measurement.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// The tag byte a snapshot stores for each replacement policy.
const fn policy_tag(policy: ReplacementPolicy) -> u8 {
    match policy {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::TreePlru => 1,
        ReplacementPolicy::Random => 2,
    }
}

fn corrupt(r: &SectionReader<'_>, msg: String) -> SimError {
    SimError::snapshot(
        SnapshotErrorKind::Corrupt,
        format!("section '{}': {msg}", r.name()),
    )
}

impl Snapshot for SetAssocCache {
    /// Writes the valid lines only, so a snapshot costs what the cache
    /// holds rather than its capacity: the set count and policy tag, the
    /// line count, one `(slot, tag, state)` record per valid slot in
    /// strictly increasing slot order (`slot = set * ways + way`, a
    /// `u32`), then the replacement state those lines need (see
    /// `ReplacementPlanes::save`) and the statistics. An invalid slot's
    /// tag is never read, because every lookup checks the state first.
    fn save(&self, w: &mut SectionBuf) {
        w.put_usize(self.num_sets);
        w.put_u8(policy_tag(self.repl.policy()));
        w.put_usize(self.occupancy);
        for (slot, &state) in self.states.iter().enumerate() {
            if state != 0 {
                w.put_u32(u32::try_from(slot).expect("a cache has fewer than 2^32 slots"));
                w.put_u64(self.tags[slot]);
                w.put_u8(state);
            }
        }
        self.repl.save(w, &self.states);
        self.stats.save(w);
    }

    /// Empties the state plane, then writes each record into its slot.
    /// More records than slots, a slot out of range or out of order (a
    /// duplicate way included), a tag that indexes another set, or a
    /// state tag outside 1..=3 is [`SnapshotErrorKind::Corrupt`].
    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        r.expect_len(self.num_sets, "cache sets")?;
        let tag = r.get_u8()?;
        if tag != policy_tag(self.repl.policy()) {
            return Err(corrupt(
                r,
                format!("replacement-policy tag {tag} does not match configured policy"),
            ));
        }
        let count = r.get_usize()?;
        let capacity = self.states.len();
        if count > capacity {
            return Err(corrupt(
                r,
                format!("{count} valid lines in a cache of {capacity} slots"),
            ));
        }
        self.states.fill(0);
        let mut next = 0;
        for _ in 0..count {
            let slot = r.get_u32()? as usize;
            if slot < next || slot >= capacity {
                return Err(corrupt(
                    r,
                    format!("line slot {slot} is out of order or past capacity {capacity}"),
                ));
            }
            let tag = r.get_u64()?;
            if self.set_index(BlockAddr::new(tag)) != slot / self.ways {
                return Err(corrupt(
                    r,
                    format!("block {tag} does not map to slot {slot}'s set"),
                ));
            }
            let state = r.get_u8()?;
            if !(1..=3).contains(&state) {
                return Err(corrupt(r, format!("invalid line-state tag {state}")));
            }
            self.tags[slot] = tag;
            self.states[slot] = state;
            next = slot + 1;
        }
        self.occupancy = count;
        self.repl.restore(r, &self.states)?;
        self.stats.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: usize, sets: usize) -> SetAssocCache {
        let geom = CacheGeometry::new(ways * sets * 64, ways, 1).unwrap();
        SetAssocCache::new(geom, ReplacementPolicy::Lru)
    }

    #[test]
    fn geometry_derives_set_count() {
        let c = small_cache(4, 16);
        assert_eq!(c.capacity(), 64);
        assert_eq!(c.geometry().num_sets(), 16);
    }

    #[test]
    fn blocks_map_to_distinct_sets_by_low_bits() {
        let mut c = small_cache(1, 4); // direct-mapped, 4 sets
        for n in 0..4 {
            c.insert(BlockAddr::new(n), LineState::Shared);
        }
        assert_eq!(c.occupancy(), 4);
        // Block 4 conflicts with block 0.
        let victim = c.insert(BlockAddr::new(4), LineState::Shared).unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
    }

    #[test]
    fn access_counts_hits_and_misses() {
        let mut c = small_cache(2, 2);
        assert!(c.access(BlockAddr::new(5)).is_none());
        c.insert(BlockAddr::new(5), LineState::Exclusive);
        assert!(c.access(BlockAddr::new(5)).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dirty_eviction_counted() {
        let mut c = small_cache(1, 1);
        c.insert(BlockAddr::new(1), LineState::Modified);
        let victim = c.insert(BlockAddr::new(2), LineState::Shared).unwrap();
        assert!(victim.state.is_dirty());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn invalidate_counts_only_hits() {
        let mut c = small_cache(2, 2);
        c.insert(BlockAddr::new(1), LineState::Shared);
        assert!(c.invalidate(BlockAddr::new(1)).is_some());
        assert!(c.invalidate(BlockAddr::new(1)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small_cache(2, 4);
        for n in 0..100 {
            c.insert(BlockAddr::new(n), LineState::Shared);
            assert!(c.occupancy() <= c.capacity());
        }
        assert_eq!(c.occupancy(), c.capacity());
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = small_cache(2, 2);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.access(BlockAddr::new(1));
        c.reset_stats();
        assert_eq!(c.stats().hits, 0);
        assert!(c.contains(BlockAddr::new(1)));
    }

    #[test]
    fn lines_reports_all_valid_lines() {
        let mut c = small_cache(2, 2);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.insert(BlockAddr::new(2), LineState::Modified);
        assert_eq!(c.lines().count(), 2);
    }

    #[test]
    fn non_power_of_two_set_counts_still_index_correctly() {
        // 3 sets: the modulo fallback path (no pow2 mask).
        let mut c = small_cache(2, 3);
        for n in 0..6 {
            c.insert(BlockAddr::new(n), LineState::Shared);
        }
        assert_eq!(c.occupancy(), 6);
        for n in 0..6 {
            assert!(c.contains(BlockAddr::new(n)), "block {n} missing");
        }
        // Block 6 conflicts with set 0 = {0, 3}; LRU victim is 0.
        let victim = c.insert(BlockAddr::new(6), LineState::Shared).unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
    }

    #[test]
    fn stale_tags_of_invalidated_slots_never_resurface() {
        let mut c = small_cache(2, 1);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.invalidate(BlockAddr::new(1));
        // The tag plane still holds 1, but the slot is Invalid.
        assert!(!c.contains(BlockAddr::new(1)));
        assert!(c.access(BlockAddr::new(1)).is_none());
        assert_eq!(c.lines().count(), 0);
    }

    #[test]
    fn masked_insert_partitions_ways_per_caller() {
        let mut c = small_cache(4, 1);
        // Two "VMs" share the set, two ways each; a conflict must never
        // cross the partition boundary.
        c.insert_in_ways(BlockAddr::new(0), LineState::Shared, 0b0011);
        c.insert_in_ways(BlockAddr::new(1), LineState::Shared, 0b0011);
        c.insert_in_ways(BlockAddr::new(10), LineState::Shared, 0b1100);
        c.insert_in_ways(BlockAddr::new(11), LineState::Shared, 0b1100);
        assert_eq!(c.occupancy(), 4);
        let victim = c
            .insert_in_ways(BlockAddr::new(2), LineState::Shared, 0b0011)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
        assert!(c.contains(BlockAddr::new(10)) && c.contains(BlockAddr::new(11)));
        assert_eq!(c.stats().insertions, 5);
        assert_eq!(c.stats().evictions, 1);
    }

    /// Pins the repartitioning contract from the dynamic QoS controller's
    /// point of view: when a caller's way mask *shrinks* while its lines
    /// are resident, nothing is flushed. Stale lines in lost ways keep
    /// hitting (lookups are unrestricted), re-inserts of a stale block
    /// update it in place without evicting, and the line is displaced only
    /// when the way's new owner allocates over it.
    #[test]
    fn mask_shrink_keeps_stale_lines_until_the_new_owner_displaces_them() {
        let mut c = small_cache(4, 1);
        // VM A owns ways {0,1} and fills both.
        c.insert_in_ways(BlockAddr::new(0), LineState::Shared, 0b0011);
        c.insert_in_ways(BlockAddr::new(1), LineState::Shared, 0b0011);
        // Repartition: A -> {0}, B -> {1,2,3}. Block 1 is now stale in
        // B's territory — but it still hits.
        assert!(c.access(BlockAddr::new(1)).is_some());
        // Re-inserting the stale block under A's shrunken mask updates in
        // place: no eviction, no duplicate.
        assert!(c
            .insert_in_ways(BlockAddr::new(1), LineState::Modified, 0b0001)
            .is_none());
        assert_eq!(c.occupancy(), 2);
        // A's next *new* fill is confined to way 0 and must victimize
        // block 0, never the stale line in way 1.
        let victim = c
            .insert_in_ways(BlockAddr::new(2), LineState::Shared, 0b0001)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
        assert!(c.contains(BlockAddr::new(1)));
        // B fills its three ways: the two free ways go first, then the
        // stale block 1 (the LRU line inside B's mask) is displaced.
        assert!(c
            .insert_in_ways(BlockAddr::new(10), LineState::Shared, 0b1110)
            .is_none());
        assert!(c
            .insert_in_ways(BlockAddr::new(11), LineState::Shared, 0b1110)
            .is_none());
        let victim = c
            .insert_in_ways(BlockAddr::new(12), LineState::Shared, 0b1110)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(1));
        assert!(victim.state.is_dirty(), "stale dirty line evicts dirty");
        assert!(c.contains(BlockAddr::new(2)), "A's line is untouched");
    }

    /// The growing side of a repartition: a way granted to a new owner
    /// arrives still holding the previous owner's line, which the new
    /// owner victimizes through normal replacement — no flush on either
    /// side of the mask change.
    #[test]
    fn mask_grow_victimizes_the_previous_owners_line_naturally() {
        let mut c = small_cache(4, 1);
        c.insert_in_ways(BlockAddr::new(0), LineState::Shared, 0b0001); // A
        c.insert_in_ways(BlockAddr::new(10), LineState::Shared, 0b1110); // B
        c.insert_in_ways(BlockAddr::new(11), LineState::Shared, 0b1110);
        c.insert_in_ways(BlockAddr::new(12), LineState::Shared, 0b1110);
        // Repartition: A -> {0,1}; way 1 still holds B's block 10. Keep
        // A's own line recent so the stale line is the LRU choice.
        assert!(c.access(BlockAddr::new(0)).is_some());
        let victim = c
            .insert_in_ways(BlockAddr::new(1), LineState::Shared, 0b0011)
            .unwrap();
        assert_eq!(victim.block, BlockAddr::new(10));
        assert!(c.contains(BlockAddr::new(0)));
        assert!(c.contains(BlockAddr::new(11)) && c.contains(BlockAddr::new(12)));
    }

    #[test]
    fn snapshot_restore_rejects_wrong_shape() {
        let geom = CacheGeometry::new(4 * 4 * 64, 4, 1).unwrap();
        let c = SetAssocCache::new(geom, ReplacementPolicy::Lru);
        let mut buf = SectionBuf::new();
        c.save(&mut buf);
        let other_geom = CacheGeometry::new(4 * 8 * 64, 4, 1).unwrap();
        let mut other = SetAssocCache::new(other_geom, ReplacementPolicy::Lru);
        let err = other
            .restore(&mut SectionReader::new("caches", buf.as_bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("cache sets"), "{err}");
        // Policy mismatch is also typed, not a panic.
        let mut plru = SetAssocCache::new(geom, ReplacementPolicy::TreePlru);
        let err = plru
            .restore(&mut SectionReader::new("caches", buf.as_bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("policy"), "{err}");
    }

    fn saved(c: &SetAssocCache) -> Vec<u8> {
        let mut buf = SectionBuf::new();
        c.save(&mut buf);
        buf.as_bytes().to_vec()
    }

    /// One step of a seeded stream over 8 sets of 4 ways and 48 blocks:
    /// fills, hits, masked fills, single invalidations, and invalidations
    /// of every block of one set, which empty it.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Fill(BlockAddr, LineState),
        Hit(BlockAddr),
        MaskedFill(BlockAddr, LineState, u64),
        Invalidate(BlockAddr),
        EmptySet(u64),
    }

    fn next_step(rng: &mut consim_types::SimRng) -> Step {
        let block = BlockAddr::new(rng.below(48));
        let state = [LineState::Shared, LineState::Exclusive, LineState::Modified][rng.index(3)];
        match rng.index(20) {
            0..=6 => Step::Fill(block, state),
            7..=10 => Step::Hit(block),
            11..=14 => Step::MaskedFill(block, state, 1 + rng.below(15)),
            15..=17 => Step::Invalidate(block),
            _ => Step::EmptySet(rng.below(8)),
        }
    }

    /// Applies `step`; returns what it evicted, found or removed.
    fn apply(c: &mut SetAssocCache, step: Step) -> Vec<CacheLine> {
        match step {
            Step::Fill(b, s) => c.insert(b, s).into_iter().collect(),
            Step::Hit(b) => c
                .access(b)
                .map(|s| CacheLine::new(b, s))
                .into_iter()
                .collect(),
            Step::MaskedFill(b, s, mask) => c.insert_in_ways(b, s, mask).into_iter().collect(),
            Step::Invalidate(b) => c.invalidate(b).into_iter().collect(),
            Step::EmptySet(set) => (0..6)
                .filter_map(|k| c.invalidate(BlockAddr::new(set + 8 * k)))
                .collect(),
        }
    }

    /// The checkpoint seam for every policy: a cache restored at cut A
    /// saves A's bytes again, and replaying the rest of the stream on it
    /// and on the uninterrupted cache gives equal results and equal saved
    /// bytes at every later cut B. A set that is empty at A still has
    /// PLRU bits and an RNG position; the first later fills rewrite only
    /// part of its tree, so dropping either from a save shows here.
    #[test]
    fn resumed_caches_pick_equal_victims_and_save_equal_bytes() {
        const CUT_A: usize = 600;
        const END: usize = 1_200;
        let geom = CacheGeometry::new(8 * 4 * 64, 4, 1).unwrap();
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Random,
        ] {
            for seed in 0..16 {
                let mut rng = consim_types::SimRng::from_seed(seed);
                let mut straight = SetAssocCache::new(geom, policy);
                for _ in 0..CUT_A {
                    apply(&mut straight, next_step(&mut rng));
                }
                let at_a = saved(&straight);
                let mut resumed = SetAssocCache::new(geom, policy);
                resumed
                    .restore(&mut SectionReader::new("caches", &at_a))
                    .unwrap();
                assert_eq!(saved(&resumed), at_a, "{policy:?} seed {seed} at A");
                for cut_b in CUT_A + 1..=END {
                    let step = next_step(&mut rng);
                    assert_eq!(
                        apply(&mut straight, step),
                        apply(&mut resumed, step),
                        "{policy:?} seed {seed} step {cut_b}: {step:?}"
                    );
                    assert_eq!(
                        saved(&resumed),
                        saved(&straight),
                        "{policy:?} seed {seed} bytes at B = {cut_b}"
                    );
                }
            }
        }
    }

    /// A hand-built section for a 4-set, 4-way LRU cache: the record
    /// count, `(slot, tag, state)` records, the clock and one stamp per
    /// record.
    fn lru_section(count: u64, records: &[(u32, u64, u8)], clock: u64, stamps: &[u64]) -> Vec<u8> {
        let mut w = SectionBuf::new();
        w.put_usize(4);
        w.put_u8(0);
        w.put_u64(count);
        for &(slot, tag, state) in records {
            w.put_u32(slot);
            w.put_u64(tag);
            w.put_u8(state);
        }
        w.put_u64(clock);
        for &stamp in stamps {
            w.put_u64(stamp);
        }
        CacheStats::default().save(&mut w);
        w.as_bytes().to_vec()
    }

    fn restore_crafted(bytes: &[u8]) -> Result<SetAssocCache, SimError> {
        let mut c = small_cache(4, 4);
        c.restore(&mut SectionReader::new("caches", bytes))?;
        Ok(c)
    }

    /// Sparse-record corruption: checksums are skipped here, so each case
    /// reaches the record decoder, which must refuse it as `Corrupt`.
    #[test]
    fn corrupt_sparse_records_are_typed_never_a_panic() {
        // The well-formed baseline: block 4 lives in set 0 (slot 0), block
        // 9 in set 1 (slot 5 = way 1).
        let c = restore_crafted(&lru_section(2, &[(0, 4, 1), (5, 9, 3)], 10, &[7, 9])).unwrap();
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.probe(BlockAddr::new(4)), Some(LineState::Shared));
        assert_eq!(c.probe(BlockAddr::new(9)), Some(LineState::Modified));
        let cases: [(&str, Vec<u8>); 8] = [
            (
                "slot past capacity",
                lru_section(1, &[(16, 4, 1)], 10, &[5]),
            ),
            (
                "duplicate way",
                lru_section(2, &[(5, 9, 1), (5, 13, 2)], 10, &[5, 6]),
            ),
            (
                "slot before its predecessor",
                lru_section(2, &[(5, 9, 1), (1, 4, 2)], 10, &[5, 6]),
            ),
            ("state tag 0", lru_section(1, &[(0, 4, 0)], 10, &[5])),
            ("state tag 4", lru_section(1, &[(0, 4, 4)], 10, &[5])),
            ("count above capacity", lru_section(17, &[], 10, &[])),
            (
                "stamp above the clock",
                lru_section(2, &[(0, 4, 1), (5, 9, 3)], 10, &[7, 11]),
            ),
            ("tag in another set", lru_section(1, &[(0, 5, 1)], 10, &[5])),
        ];
        for (what, bytes) in cases {
            let err = restore_crafted(&bytes).expect_err(what);
            assert_eq!(
                err.snapshot_kind(),
                Some(SnapshotErrorKind::Corrupt),
                "{what}: {err}"
            );
        }
    }

    /// The widest set a geometry allows fills every way before it evicts,
    /// and evicts the least recent line after.
    #[test]
    fn a_64_way_set_fills_all_64_ways() {
        let mut c = small_cache(64, 1);
        for n in 0..64 {
            assert!(c.insert(BlockAddr::new(n), LineState::Shared).is_none());
        }
        assert_eq!(c.occupancy(), 64);
        let victim = c.insert(BlockAddr::new(64), LineState::Shared).unwrap();
        assert_eq!(victim.block, BlockAddr::new(0));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn tree_plru_rejects_non_power_of_two_ways() {
        let geom = CacheGeometry::new(6 * 64, 6, 1).unwrap();
        let _ = SetAssocCache::new(geom, ReplacementPolicy::TreePlru);
    }

    /// Eight conflicting fills into a full 8-way tree-PLRU set evict each
    /// way once: every fill points the tree away from the way it took.
    #[test]
    fn tree_plru_evicts_every_way_of_a_full_set_once() {
        let geom = CacheGeometry::new(8 * 64, 8, 1).unwrap();
        let mut c = SetAssocCache::new(geom, ReplacementPolicy::TreePlru);
        for n in 0..8 {
            c.insert(BlockAddr::new(n), LineState::Shared);
        }
        let mut ways = std::collections::BTreeSet::new();
        for n in 8..16 {
            assert!(c.insert(BlockAddr::new(n), LineState::Shared).is_some());
            ways.insert(c.way_of(0, n).unwrap());
        }
        assert_eq!(ways.len(), 8, "ways evicted: {ways:?}");
    }

    #[test]
    #[should_panic(expected = "allows no way")]
    fn full_set_refuses_a_mask_with_no_way() {
        let mut c = small_cache(4, 1);
        for n in 0..4 {
            c.insert(BlockAddr::new(n), LineState::Shared);
        }
        c.insert_in_ways(BlockAddr::new(4), LineState::Shared, 0b1_0000);
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = small_cache(2, 1);
        c.insert(BlockAddr::new(1), LineState::Shared);
        c.insert(BlockAddr::new(2), LineState::Shared);
        // Probing 1 must NOT protect it.
        assert!(c.probe(BlockAddr::new(1)).is_some());
        let victim = c.insert(BlockAddr::new(3), LineState::Shared).unwrap();
        assert_eq!(victim.block, BlockAddr::new(1));
    }
}
