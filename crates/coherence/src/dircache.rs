//! Per-home-node directory caches.
//!
//! The paper: "Each core is augmented with a directory cache to reduce the
//! number of off-chip references." A directory's full map is conceptually
//! backed by memory; caching entries on chip makes the common case fast. A
//! lookup that misses costs an off-chip access (the engine charges the
//! memory latency) and then installs the entry.

use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::{BlockAddr, CacheGeometry, SimError};

/// One home node's cache of directory entries.
///
/// Internally reuses [`SetAssocCache`] with one "line" per directory entry
/// (the tag is what matters; no data is modeled).
///
/// # Examples
///
/// ```
/// use consim_coherence::DirectoryCache;
/// use consim_types::BlockAddr;
///
/// let mut dc = DirectoryCache::new(1024)?;
/// assert!(!dc.lookup(BlockAddr::new(5))); // cold miss, entry installed
/// assert!(dc.lookup(BlockAddr::new(5))); // now hits
/// # Ok::<(), consim_types::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DirectoryCache {
    cache: SetAssocCache,
}

/// Associativity used for directory caches.
const DIR_CACHE_WAYS: usize = 8;

impl DirectoryCache {
    /// Creates a directory cache holding `entries` entries.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `entries` is not a multiple of
    /// the internal associativity (8).
    pub fn new(entries: usize) -> Result<Self, SimError> {
        let geometry = CacheGeometry::new(entries * 64, DIR_CACHE_WAYS, 1)?;
        Ok(Self {
            cache: SetAssocCache::new(geometry, ReplacementPolicy::Lru),
        })
    }

    /// Looks up a block's directory entry; on a miss the entry is fetched
    /// (installed) and `false` is returned so the caller can charge the
    /// off-chip latency.
    pub fn lookup(&mut self, block: BlockAddr) -> bool {
        if self.cache.access(block).is_some() {
            true
        } else {
            self.cache.insert(block, LineState::Shared);
            false
        }
    }

    /// Number of lookups that hit.
    pub fn hits(&self) -> u64 {
        self.cache.stats().hits
    }

    /// Number of lookups that missed (and went off-chip).
    pub fn misses(&self) -> u64 {
        self.cache.stats().misses
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        1.0 - self.cache.stats().miss_rate()
    }

    /// Entry capacity.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }
}

/// The inner cache's encoding: one record per entry held, so an empty
/// directory cache checkpoints in under 100 bytes.
impl Snapshot for DirectoryCache {
    fn save(&self, w: &mut SectionBuf) {
        self.cache.save(w);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        self.cache.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut dc = DirectoryCache::new(64).unwrap();
        let b = BlockAddr::new(3);
        assert!(!dc.lookup(b));
        assert!(dc.lookup(b));
        assert_eq!(dc.hits(), 1);
        assert_eq!(dc.misses(), 1);
    }

    #[test]
    fn capacity_eviction_causes_re_miss() {
        let mut dc = DirectoryCache::new(8).unwrap(); // one 8-way set
        for n in 0..8 {
            assert!(!dc.lookup(BlockAddr::new(n)));
        }
        // Entry 0 is LRU; a 9th entry evicts it.
        assert!(!dc.lookup(BlockAddr::new(100)));
        assert!(!dc.lookup(BlockAddr::new(0)), "evicted entry must re-miss");
    }

    #[test]
    fn hit_rate_tracks() {
        let mut dc = DirectoryCache::new(64).unwrap();
        dc.lookup(BlockAddr::new(1));
        dc.lookup(BlockAddr::new(1));
        dc.lookup(BlockAddr::new(1));
        assert!((dc.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_entry_count() {
        assert!(DirectoryCache::new(0).is_err());
        assert!(DirectoryCache::new(4).is_err()); // below one full set
        assert!(DirectoryCache::new(8192).is_ok());
    }

    #[test]
    fn capacity_reported() {
        assert_eq!(DirectoryCache::new(128).unwrap().capacity(), 128);
    }
}
