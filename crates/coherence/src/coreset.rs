//! Compact sets of cores (sharer vectors).

use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::{CoreId, SimError};
use std::fmt;

/// A set of cores, stored as a 64-bit mask — a full-map directory sharer
/// vector for machines of up to 64 cores.
///
/// # Examples
///
/// ```
/// use consim_coherence::CoreSet;
/// use consim_types::CoreId;
///
/// let mut set = CoreSet::EMPTY;
/// set.insert(CoreId::new(3));
/// set.insert(CoreId::new(7));
/// assert_eq!(set.len(), 2);
/// assert!(set.contains(CoreId::new(3)));
/// set.remove(CoreId::new(3));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![CoreId::new(7)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoreSet(u64);

impl CoreSet {
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet(0);

    /// Number of representable cores: the machine's core limit.
    pub const MAX_CORES: usize = consim_types::MAX_CORES;

    /// A set containing a single core.
    pub fn singleton(core: CoreId) -> Self {
        let mut s = Self::EMPTY;
        s.insert(core);
        s
    }

    /// Adds a core; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the core index is 64 or larger.
    pub fn insert(&mut self, core: CoreId) -> bool {
        assert!(core.index() < Self::MAX_CORES, "core index out of range");
        let bit = 1u64 << core.index();
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    /// Removes a core; returns `true` if it was present.
    pub fn remove(&mut self, core: CoreId) -> bool {
        if core.index() >= Self::MAX_CORES {
            return false;
        }
        let bit = 1u64 << core.index();
        let was = self.0 & bit != 0;
        self.0 &= !bit;
        was
    }

    /// Whether the set contains `core`.
    pub fn contains(&self, core: CoreId) -> bool {
        core.index() < Self::MAX_CORES && self.0 & (1u64 << core.index()) != 0
    }

    /// Number of cores in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        let bits = self.0;
        (0..Self::MAX_CORES).filter_map(move |i| {
            if bits & (1u64 << i) != 0 {
                Some(CoreId::new(i))
            } else {
                None
            }
        })
    }

    /// Removes every core and returns the previous members.
    pub fn drain(&mut self) -> Vec<CoreId> {
        let members: Vec<CoreId> = self.iter().collect();
        self.0 = 0;
        members
    }

    /// The raw sharer-vector bitmask, for checkpointing.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Rebuilds a set from [`CoreSet::bits`].
    pub const fn from_bits(bits: u64) -> Self {
        Self(bits)
    }
}

impl Snapshot for CoreSet {
    fn save(&self, w: &mut SectionBuf) {
        w.put_u64(self.0);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        self.0 = r.get_u64()?;
        Ok(())
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut set = CoreSet::EMPTY;
        for core in iter {
            set.insert(core);
        }
        set
    }
}

impl Extend<CoreId> for CoreSet {
    fn extend<I: IntoIterator<Item = CoreId>>(&mut self, iter: I) {
        for core in iter {
            self.insert(core);
        }
    }
}

impl fmt::Display for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, core) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", core.index())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = CoreSet::EMPTY;
        assert!(s.insert(CoreId::new(5)));
        assert!(!s.insert(CoreId::new(5)));
        assert!(s.contains(CoreId::new(5)));
        assert!(s.remove(CoreId::new(5)));
        assert!(!s.remove(CoreId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn len_counts_members() {
        let s: CoreSet = [0, 1, 2, 63].into_iter().map(CoreId::new).collect();
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn iter_is_sorted() {
        let s: CoreSet = [9, 1, 4].into_iter().map(CoreId::new).collect();
        let v: Vec<usize> = s.iter().map(CoreId::index).collect();
        assert_eq!(v, vec![1, 4, 9]);
    }

    #[test]
    fn drain_empties() {
        let mut s = CoreSet::singleton(CoreId::new(2));
        s.insert(CoreId::new(8));
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut set = CoreSet::EMPTY;
        set.insert(CoreId::new(64));
    }

    #[test]
    fn display() {
        let s: CoreSet = [1, 3].into_iter().map(CoreId::new).collect();
        assert_eq!(s.to_string(), "{1,3}");
        assert_eq!(CoreSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn extend_adds_members() {
        let mut s = CoreSet::EMPTY;
        s.extend([CoreId::new(1), CoreId::new(2)]);
        assert_eq!(s.len(), 2);
    }
}
