//! One associative set — the retained AoS reference model.
//!
//! [`CacheSet`] is the original boxed-per-set formulation
//! (`Vec<Option<CacheLine>>` plus a per-set
//! [`crate::replacement::ReplacementState`]). The production
//! [`crate::SetAssocCache`] now stores flat struct-of-arrays planes for
//! speed; this type is kept as the executable specification of the old
//! semantics, and the differential tests in
//! `crates/cache/tests/soa_vs_aos.rs` drive identical operation streams
//! through both and require exact agreement on hits, victims and masked
//! allocation, also after a snapshot round-trip of the SoA side.

use crate::line::{CacheLine, LineState};
use crate::replacement::{ReplacementPolicy, ReplacementState};
use consim_types::BlockAddr;

/// A single associative set: up to `ways` lines plus replacement state.
#[derive(Debug, Clone)]
pub struct CacheSet {
    ways: Vec<Option<CacheLine>>,
    repl: ReplacementState,
}

impl CacheSet {
    /// Creates an empty set.
    pub fn new(policy: ReplacementPolicy, ways: usize, rng_seed: u64) -> Self {
        Self {
            ways: vec![None; ways],
            repl: ReplacementState::new(policy, ways, rng_seed),
        }
    }

    /// Number of ways.
    pub fn way_count(&self) -> usize {
        self.ways.len()
    }

    /// Finds the way holding `block`, if any.
    fn way_of(&self, block: BlockAddr) -> Option<usize> {
        self.ways
            .iter()
            .position(|w| w.map(|l| l.block) == Some(block))
    }

    /// Looks up `block` without touching recency.
    pub fn probe(&self, block: BlockAddr) -> Option<LineState> {
        self.way_of(block)
            .map(|w| self.ways[w].expect("occupied").state)
    }

    /// Looks up `block`, promoting it in the replacement order on a hit.
    pub fn access(&mut self, block: BlockAddr) -> Option<LineState> {
        let ways = self.ways.len();
        let w = self.way_of(block)?;
        self.repl.touch(w, ways);
        Some(self.ways[w].expect("occupied").state)
    }

    /// Changes the state of `block`; returns `false` if not present.
    pub fn set_state(&mut self, block: BlockAddr, state: LineState) -> bool {
        match self.way_of(block) {
            Some(w) => {
                if state.is_valid() {
                    self.ways[w] = Some(CacheLine::new(block, state));
                } else {
                    self.ways[w] = None;
                }
                true
            }
            None => false,
        }
    }

    /// Inserts `block` with `state`, evicting a victim if the set is full.
    ///
    /// Returns the evicted line, if any. Inserting a block already present
    /// updates its state in place (no eviction).
    pub fn insert(&mut self, block: BlockAddr, state: LineState) -> Option<CacheLine> {
        debug_assert!(state.is_valid(), "inserting an invalid line");
        let ways = self.ways.len();
        if let Some(w) = self.way_of(block) {
            self.ways[w] = Some(CacheLine::new(block, state));
            self.repl.touch(w, ways);
            return None;
        }
        if let Some(w) = self.ways.iter().position(Option::is_none) {
            self.ways[w] = Some(CacheLine::new(block, state));
            self.repl.touch(w, ways);
            return None;
        }
        let w = self.repl.victim(ways);
        let victim = self.ways[w].take();
        self.ways[w] = Some(CacheLine::new(block, state));
        self.repl.touch(w, ways);
        victim
    }

    /// Inserts `block` with `state`, allocating only into the ways allowed
    /// by `mask` (bit `w` set means way `w` is allowed). Used for per-VM
    /// way partitioning: a block already present anywhere in the set is
    /// updated in place, but a new line only fills or evicts inside its
    /// mask. With a full mask this behaves exactly like
    /// [`CacheSet::insert`].
    ///
    /// Returns the evicted line, if any.
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
        debug_assert!(state.is_valid(), "inserting an invalid line");
        let ways = self.ways.len();
        if let Some(w) = self.way_of(block) {
            self.ways[w] = Some(CacheLine::new(block, state));
            self.repl.touch(w, ways);
            return None;
        }
        if let Some(w) = (0..ways).find(|&w| mask >> w & 1 == 1 && self.ways[w].is_none()) {
            self.ways[w] = Some(CacheLine::new(block, state));
            self.repl.touch(w, ways);
            return None;
        }
        let w = self.repl.victim_in(mask, ways);
        let victim = self.ways[w].take();
        self.ways[w] = Some(CacheLine::new(block, state));
        self.repl.touch(w, ways);
        victim
    }

    /// Removes `block`; returns the removed line if it was present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<CacheLine> {
        let w = self.way_of(block)?;
        self.ways[w].take()
    }

    /// Iterates over the valid lines in this set.
    pub fn lines(&self) -> impl Iterator<Item = &CacheLine> {
        self.ways.iter().filter_map(Option::as_ref)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().filter(|w| w.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn insert_and_probe() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        assert!(set.insert(blk(1), LineState::Shared).is_none());
        assert_eq!(set.probe(blk(1)), Some(LineState::Shared));
        assert_eq!(set.probe(blk(2)), None);
        assert_eq!(set.occupancy(), 1);
    }

    #[test]
    fn fills_free_ways_before_evicting() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        assert!(set.insert(blk(1), LineState::Shared).is_none());
        assert!(set.insert(blk(2), LineState::Shared).is_none());
        assert_eq!(set.occupancy(), 2);
    }

    #[test]
    fn evicts_lru_victim_when_full() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        set.insert(blk(1), LineState::Shared);
        set.insert(blk(2), LineState::Shared);
        set.access(blk(1)); // 2 becomes LRU
        let victim = set.insert(blk(3), LineState::Shared).expect("eviction");
        assert_eq!(victim.block, blk(2));
        assert_eq!(set.probe(blk(1)), Some(LineState::Shared));
        assert_eq!(set.probe(blk(3)), Some(LineState::Shared));
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        set.insert(blk(1), LineState::Shared);
        set.insert(blk(2), LineState::Shared);
        assert!(set.insert(blk(1), LineState::Modified).is_none());
        assert_eq!(set.probe(blk(1)), Some(LineState::Modified));
        assert_eq!(set.occupancy(), 2);
    }

    #[test]
    fn set_state_transitions() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        set.insert(blk(1), LineState::Exclusive);
        assert!(set.set_state(blk(1), LineState::Modified));
        assert_eq!(set.probe(blk(1)), Some(LineState::Modified));
        assert!(!set.set_state(blk(9), LineState::Shared));
        // Setting to Invalid removes the line.
        assert!(set.set_state(blk(1), LineState::Invalid));
        assert_eq!(set.probe(blk(1)), None);
        assert_eq!(set.occupancy(), 0);
    }

    #[test]
    fn invalidate_returns_line() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        set.insert(blk(1), LineState::Modified);
        let removed = set.invalidate(blk(1)).expect("present");
        assert!(removed.state.is_dirty());
        assert!(set.invalidate(blk(1)).is_none());
    }

    #[test]
    fn lines_iterates_valid_only() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 4, 0);
        set.insert(blk(1), LineState::Shared);
        set.insert(blk(2), LineState::Modified);
        let blocks: Vec<u64> = set.lines().map(|l| l.block.raw()).collect();
        assert_eq!(blocks.len(), 2);
        assert!(blocks.contains(&1) && blocks.contains(&2));
    }

    #[test]
    fn masked_insert_fills_and_evicts_inside_mask_only() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 4, 0);
        // VM A owns ways {0, 1}; VM B owns ways {2, 3}.
        set.insert_in_ways(blk(1), LineState::Shared, 0b0011);
        set.insert_in_ways(blk(2), LineState::Shared, 0b0011);
        set.insert_in_ways(blk(10), LineState::Shared, 0b1100);
        // A's third insert must evict A's oldest line, never B's.
        let victim = set
            .insert_in_ways(blk(3), LineState::Shared, 0b0011)
            .unwrap();
        assert_eq!(victim.block, blk(1));
        assert_eq!(set.probe(blk(10)), Some(LineState::Shared));
        assert_eq!(set.occupancy(), 3);
    }

    #[test]
    fn masked_insert_updates_in_place_without_eviction() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        set.insert_in_ways(blk(1), LineState::Shared, 0b01);
        assert!(set
            .insert_in_ways(blk(1), LineState::Modified, 0b01)
            .is_none());
        assert_eq!(set.probe(blk(1)), Some(LineState::Modified));
        assert_eq!(set.occupancy(), 1);
    }

    #[test]
    fn full_mask_insert_matches_plain_insert() {
        let mut a = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        let mut b = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        for n in 1..=5 {
            let va = a.insert(blk(n), LineState::Shared);
            let vb = b.insert_in_ways(blk(n), LineState::Shared, u64::MAX);
            assert_eq!(va.map(|l| l.block), vb.map(|l| l.block));
        }
    }

    #[test]
    fn access_promotes_recency() {
        let mut set = CacheSet::new(ReplacementPolicy::Lru, 2, 0);
        set.insert(blk(1), LineState::Shared);
        set.insert(blk(2), LineState::Shared);
        // Without the access, victim would be 1 (older). Touch it:
        assert_eq!(set.access(blk(1)), Some(LineState::Shared));
        let victim = set.insert(blk(3), LineState::Shared).unwrap();
        assert_eq!(victim.block, blk(2));
    }
}
