//! Replacement policies.
//!
//! The production cache stores its recency bookkeeping in flat per-cache
//! [`ReplacementPlanes`] (one contiguous allocation per cache, indexed
//! `set * ways + way`). The per-set [`ReplacementState`] is the original
//! boxed-per-set formulation; it is *retained* as the executable
//! specification of the replacement semantics and drives the differential
//! property tests that pin the planes to it (see
//! `crates/cache/tests/soa_vs_aos.rs`). The paper's machine uses "vanilla
//! LRU"; tree-PLRU and random are provided for the ablation benches
//! (design-choice studies in DESIGN.md) and to validate that the
//! characterization trends are not an artifact of true-LRU bookkeeping.

use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::{SimError, SimRng, SnapshotErrorKind};

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (the paper's "vanilla-LRU").
    #[default]
    Lru,
    /// Tree pseudo-LRU (binary decision tree per set).
    TreePlru,
    /// Uniform random victim selection (seeded, deterministic).
    Random,
}

/// Per-set replacement bookkeeping.
#[derive(Debug, Clone)]
pub enum ReplacementState {
    /// Way indices ordered most- to least-recently used.
    Lru(Vec<u16>),
    /// PLRU tree bits; the way count must be a power of two.
    TreePlru(Vec<bool>),
    /// Seeded RNG for victim picks.
    Random(SimRng),
}

impl ReplacementState {
    /// Creates fresh state for a set of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, or if the policy is
    /// [`ReplacementPolicy::TreePlru`] and `ways` is not a power of two.
    pub fn new(policy: ReplacementPolicy, ways: usize, rng_seed: u64) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        match policy {
            ReplacementPolicy::Lru => {
                // Initial order: way 0 is the first victim.
                ReplacementState::Lru((0..ways as u16).rev().collect())
            }
            ReplacementPolicy::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires power-of-two associativity, got {ways}"
                );
                ReplacementState::TreePlru(vec![false; ways - 1])
            }
            ReplacementPolicy::Random => ReplacementState::Random(SimRng::from_seed(rng_seed)),
        }
    }

    /// Records a use of `way` (hit or fill) in a set of `ways` ways.
    pub fn touch(&mut self, way: usize, ways: usize) {
        match self {
            ReplacementState::Lru(order) => {
                let pos = order
                    .iter()
                    .position(|&w| w as usize == way)
                    .expect("way is tracked");
                let w = order.remove(pos);
                order.insert(0, w);
            }
            ReplacementState::TreePlru(bits) => {
                // Walk from root to the leaf `way`, pointing each node *away*
                // from the path taken.
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
                        bits[node] = true; // protect left, point right
                        node = 2 * node + 1;
                        hi = mid;
                    } else {
                        bits[node] = false; // protect right, point left
                        node = 2 * node + 2;
                        lo = mid;
                    }
                }
            }
            ReplacementState::Random(_) => {}
        }
    }

    /// Picks the victim way for the next eviction in a set of `ways` ways.
    ///
    /// Recency state is not modified; the subsequent fill's
    /// [`ReplacementState::touch`] is what promotes the new line.
    pub fn victim(&mut self, ways: usize) -> usize {
        match self {
            ReplacementState::Lru(order) => *order.last().expect("nonempty") as usize,
            ReplacementState::TreePlru(bits) => {
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits[node] {
                        node = 2 * node + 2; // points right
                        lo = mid;
                    } else {
                        node = 2 * node + 1; // points left
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementState::Random(rng) => rng.index(ways),
        }
    }

    /// Picks the victim among the ways allowed by `mask` (bit `w` set means
    /// way `w` may be evicted) in a set of `ways` ways. Used for way
    /// partitioning: a VM confined to a subset of ways must pick its victim
    /// inside that subset. With a full mask this selects exactly the same
    /// way as [`ReplacementState::victim`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of the set's ways.
    pub fn victim_in(&mut self, mask: u64, ways: usize) -> usize {
        let mask = mask & ways_mask(ways);
        assert!(mask != 0, "victim mask allows no way");
        match self {
            ReplacementState::Lru(order) => order
                .iter()
                .rev()
                .map(|&w| w as usize)
                .find(|&w| mask >> w & 1 == 1)
                .expect("mask selects a tracked way"),
            ReplacementState::TreePlru(bits) => {
                // Walk as in `victim`, but never descend into a subtree that
                // contains no allowed way.
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let left_has = mask & range_mask(lo, mid) != 0;
                    let right_has = mask & range_mask(mid, hi) != 0;
                    let go_right = if !left_has {
                        true
                    } else if !right_has {
                        false
                    } else {
                        bits[node]
                    };
                    if go_right {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementState::Random(rng) => {
                let allowed = mask.count_ones() as usize;
                let pick = rng.index(allowed);
                nth_set_bit(mask, pick)
            }
        }
    }
}

/// Flat per-cache replacement bookkeeping: one contiguous allocation for
/// *all* sets, indexed `set * ways + way` (matching the cache's tag/state
/// planes).
///
/// Semantically equivalent to one [`ReplacementState`] per set, but with
/// O(1) LRU touches: instead of splicing an order list, true LRU keeps a
/// monotonic per-cache clock and stamps each way at its last touch — the
/// victim is the minimum stamp. The equivalence holds because victims are
/// only ever requested when every candidate way (the whole set for
/// [`ReplacementPlanes::victim`], the masked subset for
/// [`ReplacementPlanes::victim_in`]) holds a valid line, and every fill or
/// hit of a valid line goes through [`ReplacementPlanes::touch`]; untouched
/// ways keep their initial stamps `0..ways`, reproducing the "way 0 is the
/// first victim" cold order. Stamps are unique within a set (initial stamps
/// are distinct and the clock is strictly increasing), so the minimum is
/// unambiguous.
#[derive(Debug, Clone)]
pub(crate) enum ReplacementPlanes {
    /// True LRU: last-touch stamp per way plus the cache-wide clock.
    Lru { stamps: Vec<u64>, clock: u64 },
    /// PLRU tree bits, `ways - 1` per set; ways must be a power of two.
    TreePlru { bits: Vec<bool> },
    /// One seeded RNG per set (seed = set index), drawn only on victim
    /// picks — the same stream the per-set formulation consumes.
    Random { rngs: Vec<SimRng> },
}

impl ReplacementPlanes {
    /// Creates fresh planes for `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero, or if the policy is
    /// [`ReplacementPolicy::TreePlru`] and `ways` is not a power of two.
    pub(crate) fn new(policy: ReplacementPolicy, num_sets: usize, ways: usize) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        match policy {
            ReplacementPolicy::Lru => {
                let mut stamps = Vec::with_capacity(num_sets * ways);
                for _ in 0..num_sets {
                    stamps.extend(0..ways as u64);
                }
                ReplacementPlanes::Lru {
                    stamps,
                    clock: ways as u64,
                }
            }
            ReplacementPolicy::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU requires power-of-two associativity, got {ways}"
                );
                ReplacementPlanes::TreePlru {
                    bits: vec![false; num_sets * (ways - 1)],
                }
            }
            ReplacementPolicy::Random => ReplacementPlanes::Random {
                rngs: (0..num_sets).map(|i| SimRng::from_seed(i as u64)).collect(),
            },
        }
    }

    /// The policy these planes implement.
    pub(crate) fn policy(&self) -> ReplacementPolicy {
        match self {
            ReplacementPlanes::Lru { .. } => ReplacementPolicy::Lru,
            ReplacementPlanes::TreePlru { .. } => ReplacementPolicy::TreePlru,
            ReplacementPlanes::Random { .. } => ReplacementPolicy::Random,
        }
    }

    /// Records a use of `way` in set `set` (hit or fill).
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize, ways: usize) {
        match self {
            ReplacementPlanes::Lru { stamps, clock } => {
                *clock += 1;
                stamps[set * ways + way] = *clock;
            }
            ReplacementPlanes::TreePlru { bits } => {
                let bits = &mut bits[set * (ways - 1)..];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
                        bits[node] = true; // protect left, point right
                        node = 2 * node + 1;
                        hi = mid;
                    } else {
                        bits[node] = false; // protect right, point left
                        node = 2 * node + 2;
                        lo = mid;
                    }
                }
            }
            ReplacementPlanes::Random { .. } => {}
        }
    }

    /// Picks the victim way in set `set`; every way must hold a valid line.
    #[inline]
    pub(crate) fn victim(&mut self, set: usize, ways: usize) -> usize {
        match self {
            ReplacementPlanes::Lru { stamps, .. } => {
                let s = &stamps[set * ways..set * ways + ways];
                let mut best = 0usize;
                for (w, &stamp) in s.iter().enumerate().skip(1) {
                    if stamp < s[best] {
                        best = w;
                    }
                }
                best
            }
            ReplacementPlanes::TreePlru { bits } => {
                let bits = &bits[set * (ways - 1)..];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if bits[node] {
                        node = 2 * node + 2; // points right
                        lo = mid;
                    } else {
                        node = 2 * node + 1; // points left
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementPlanes::Random { rngs } => rngs[set].index(ways),
        }
    }

    /// Picks the victim among the ways allowed by `mask`; every allowed way
    /// must hold a valid line. With a full mask this selects exactly the
    /// same way (and consumes the same RNG stream) as
    /// [`ReplacementPlanes::victim`].
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of the set's ways.
    pub(crate) fn victim_in(&mut self, set: usize, mask: u64, ways: usize) -> usize {
        let mask = mask & ways_mask(ways);
        assert!(mask != 0, "victim mask allows no way");
        match self {
            ReplacementPlanes::Lru { stamps, .. } => {
                let s = &stamps[set * ways..set * ways + ways];
                let mut best: Option<usize> = None;
                for (w, &stamp) in s.iter().enumerate() {
                    if mask >> w & 1 == 1 && best.is_none_or(|b| stamp < s[b]) {
                        best = Some(w);
                    }
                }
                best.expect("mask selects a tracked way")
            }
            ReplacementPlanes::TreePlru { bits } => {
                let bits = &bits[set * (ways - 1)..];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let left_has = mask & range_mask(lo, mid) != 0;
                    let right_has = mask & range_mask(mid, hi) != 0;
                    let go_right = if !left_has {
                        true
                    } else if !right_has {
                        false
                    } else {
                        bits[node]
                    };
                    if go_right {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
            ReplacementPlanes::Random { rngs } => {
                let allowed = mask.count_ones() as usize;
                let pick = rngs[set].index(allowed);
                nth_set_bit(mask, pick)
            }
        }
    }

    /// Appends the planes' dynamic state for a cache whose state plane is
    /// `states` (the policy tag is written by the owning cache, which also
    /// validates it on restore).
    ///
    /// LRU writes the clock plus the stamps of the valid slots, in slot
    /// order. An invalid way's stamp is never read: victims are picked
    /// only when every candidate way is valid, and a fill touches its way
    /// before anything can pick it. Tree-PLRU bits and the per-set RNGs
    /// are written whole, because both outlive a set's lines: the bits of
    /// an emptied set that later fills do not rewrite reach later saves,
    /// and each RNG keeps its place in its stream, which decides later
    /// victims.
    pub(crate) fn save(&self, w: &mut SectionBuf, states: &[u8]) {
        match self {
            ReplacementPlanes::Lru { stamps, clock } => {
                w.put_u64(*clock);
                for (&stamp, &state) in stamps.iter().zip(states) {
                    if state != 0 {
                        w.put_u64(stamp);
                    }
                }
            }
            ReplacementPlanes::TreePlru { bits } => {
                w.put_usize(bits.len());
                for &bit in bits {
                    w.put_bool(bit);
                }
            }
            ReplacementPlanes::Random { rngs } => {
                w.put_usize(rngs.len());
                for rng in rngs {
                    rng.save(w);
                }
            }
        }
    }

    /// Restores the planes' dynamic state in place for a cache whose state
    /// plane `states` is already restored. An LRU stamp above the clock is
    /// [`SnapshotErrorKind::Corrupt`]: the clock is the latest stamp given.
    pub(crate) fn restore(
        &mut self,
        r: &mut SectionReader<'_>,
        states: &[u8],
    ) -> Result<(), SimError> {
        match self {
            ReplacementPlanes::Lru { stamps, clock } => {
                *clock = r.get_u64()?;
                for (stamp, &state) in stamps.iter_mut().zip(states) {
                    if state != 0 {
                        *stamp = r.get_u64()?;
                        if *stamp > *clock {
                            return Err(SimError::snapshot(
                                SnapshotErrorKind::Corrupt,
                                format!(
                                    "section '{}': LRU stamp {stamp} is above the clock {clock}",
                                    r.name()
                                ),
                            ));
                        }
                    }
                }
                Ok(())
            }
            ReplacementPlanes::TreePlru { bits } => {
                r.expect_len(bits.len(), "PLRU tree bits")?;
                for bit in bits.iter_mut() {
                    *bit = r.get_bool()?;
                }
                Ok(())
            }
            ReplacementPlanes::Random { rngs } => {
                r.expect_len(rngs.len(), "replacement RNG streams")?;
                for rng in rngs.iter_mut() {
                    rng.restore(r)?;
                }
                Ok(())
            }
        }
    }
}

/// Bitmask covering ways `[0, ways)`.
fn ways_mask(ways: usize) -> u64 {
    if ways >= 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

/// Bitmask covering ways `[lo, hi)`.
fn range_mask(lo: usize, hi: usize) -> u64 {
    ways_mask(hi) & !ways_mask(lo)
}

/// Index of the `n`-th (0-based) set bit of `mask`.
fn nth_set_bit(mask: u64, mut n: usize) -> usize {
    let mut m = mask;
    loop {
        let bit = m.trailing_zeros() as usize;
        if n == 0 {
            return bit;
        }
        m &= m - 1;
        n -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_initial_victim_is_way_zero() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 0);
        assert_eq!(st.victim(4), 0);
    }

    #[test]
    fn lru_touch_moves_to_front() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 0);
        st.touch(0, 4);
        assert_eq!(st.victim(4), 1);
        st.touch(1, 4);
        assert_eq!(st.victim(4), 2);
        st.touch(2, 4);
        assert_eq!(st.victim(4), 3);
        st.touch(3, 4);
        assert_eq!(st.victim(4), 0);
    }

    #[test]
    fn lru_victim_is_least_recent_under_mixed_pattern() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 0);
        for w in [0, 1, 2, 3, 1, 0, 3] {
            st.touch(w, 4);
        }
        // Recency (most..least): 3,0,1,2 -> victim 2.
        assert_eq!(st.victim(4), 2);
    }

    #[test]
    fn plru_victim_avoids_recently_touched() {
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 4, 0);
        st.touch(0, 4);
        let v = st.victim(4);
        assert_ne!(v, 0);
        st.touch(v, 4);
        let v2 = st.victim(4);
        assert_ne!(v2, v);
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 8, 0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let v = st.victim(8);
            seen.insert(v);
            st.touch(v, 8);
        }
        assert_eq!(seen.len(), 8, "PLRU should visit every way: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = ReplacementState::new(ReplacementPolicy::TreePlru, 6, 0);
    }

    #[test]
    fn random_victims_are_in_range_and_deterministic() {
        let mut a = ReplacementState::new(ReplacementPolicy::Random, 4, 9);
        let mut b = ReplacementState::new(ReplacementPolicy::Random, 4, 9);
        for _ in 0..100 {
            let va = a.victim(4);
            let vb = b.victim(4);
            assert!(va < 4);
            assert_eq!(va, vb);
        }
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = ReplacementState::new(ReplacementPolicy::Lru, 0, 0);
    }

    #[test]
    fn masked_victim_matches_unmasked_with_full_mask() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Random,
        ] {
            let mut a = ReplacementState::new(policy, 8, 3);
            let mut b = ReplacementState::new(policy, 8, 3);
            for step in 0..50 {
                let va = a.victim(8);
                let vb = b.victim_in(u64::MAX, 8);
                assert_eq!(va, vb, "{policy:?} step {step}");
                a.touch(va, 8);
                b.touch(vb, 8);
            }
        }
    }

    #[test]
    fn masked_victim_stays_inside_mask() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Random,
        ] {
            let mut st = ReplacementState::new(policy, 8, 5);
            let mask = 0b0011_0100u64; // ways 2, 4, 5
            for step in 0..50 {
                let v = st.victim_in(mask, 8);
                assert!(mask >> v & 1 == 1, "{policy:?} step {step}: way {v}");
                st.touch(v, 8);
                // Touch an out-of-mask way too; it must never become victim.
                st.touch(0, 8);
            }
        }
    }

    #[test]
    fn masked_lru_picks_least_recent_allowed_way() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 0);
        for w in [2, 3, 0, 1] {
            st.touch(w, 4);
        }
        // Recency (most..least): 1,0,3,2. Restricted to {0, 1}: victim 0.
        assert_eq!(st.victim_in(0b0011, 4), 0);
        assert_eq!(st.victim(4), 2);
    }

    #[test]
    #[should_panic(expected = "allows no way")]
    fn empty_mask_panics() {
        let mut st = ReplacementState::new(ReplacementPolicy::Lru, 4, 0);
        let _ = st.victim_in(0b1_0000, 4); // only bit 4: outside the set
    }

    #[test]
    fn plru_single_way_set() {
        // 1-way (direct mapped) degenerates gracefully: no tree bits.
        let mut st = ReplacementState::new(ReplacementPolicy::TreePlru, 1, 0);
        st.touch(0, 1);
        assert_eq!(st.victim(1), 0);
    }
}
