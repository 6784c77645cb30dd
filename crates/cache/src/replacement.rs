//! Replacement policies.
//!
//! The cache stores its recency bookkeeping in flat per-cache
//! [`ReplacementPlanes`] (one contiguous allocation per cache, indexed
//! `set * ways + way`). The paper's machine uses "vanilla LRU"; tree-PLRU
//! and random are provided for the ablation benches (design-choice studies
//! in DESIGN.md) and to validate that the characterization trends are not
//! an artifact of true-LRU bookkeeping. The reference for all three is
//! consim-check's naive cache model, which a differential test there
//! drives against [`crate::SetAssocCache`] operation by operation.

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

/// Flat per-cache replacement bookkeeping: one contiguous allocation for
/// *all* sets, indexed `set * ways + way` (matching the cache's tag/state
/// planes).
///
/// True LRU keeps a monotonic per-cache clock and stamps each way at its
/// last touch, so a touch is O(1) and the victim is the minimum stamp.
/// That is exact LRU because victims are only ever requested when every
/// candidate way (the whole set for [`ReplacementPlanes::victim`], the
/// masked subset for [`ReplacementPlanes::victim_in`]) holds a valid line,
/// and every fill or hit of a valid line goes through
/// [`ReplacementPlanes::touch`]. Stamps
/// are unique within a set (initial stamps `0..ways` are distinct and the
/// clock is strictly increasing), so the minimum is unambiguous.
#[derive(Debug, Clone)]
pub(crate) enum ReplacementPlanes {
    /// True LRU: last-touch stamp per way plus the cache-wide clock.
    Lru { stamps: Vec<u64>, clock: u64 },
    /// PLRU tree bits, `ways - 1` per set; ways must be a power of two.
    TreePlru { bits: Vec<bool> },
    /// One seeded RNG per set (seed = set index), drawn only on victim
    /// picks.
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
    /// must hold a valid line. Random draws `index(allowed ways)` and takes
    /// that allowed way in ascending order; tree-PLRU follows its bits but
    /// never descends into a subtree without an allowed way. With a full
    /// mask this selects exactly the same way (and consumes the same RNG
    /// stream) as [`ReplacementPlanes::victim`].
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
