//! Set-associative cache models for the `consim` CMP simulator.
//!
//! This crate provides the storage layer of the memory hierarchy:
//!
//! * [`line`] — cache lines and their coherence-relevant state;
//! * [`replacement`] — pluggable replacement policies (true LRU, tree-PLRU,
//!   random) kept as flat per-cache planes;
//! * [`cache`] — a whole set-associative cache ([`SetAssocCache`]), stored
//!   as flat struct-of-arrays tag/state/recency planes;
//! * [`stats`] — per-cache hit/miss/eviction counters.
//!
//! The same type models every level: the 8 KB L0s, 64 KB L1s, and the LLC
//! banks of every sharing degree (1–16 MB). Caches are keyed by
//! [`consim_types::BlockAddr`], so a line implicitly knows which VM owns it —
//! the facility the replication (paper Fig. 12) and occupancy (Fig. 13)
//! metrics build on.
//!
//! The reference model for [`SetAssocCache`] is consim-check's naive
//! cache, the oracle's own: a differential test there drives both through
//! the same seeded streams under every replacement policy.
//!
//! # Examples
//!
//! ```
//! use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
//! use consim_types::{BlockAddr, CacheGeometry};
//!
//! let geom = CacheGeometry::new(4 * 1024, 2, 1)?;
//! let mut cache = SetAssocCache::new(geom, ReplacementPolicy::Lru);
//! let block = BlockAddr::new(42);
//! assert!(cache.access(block).is_none()); // cold miss
//! cache.insert(block, LineState::Exclusive);
//! assert_eq!(cache.access(block), Some(LineState::Exclusive));
//! # Ok::<(), consim_types::SimError>(())
//! ```

pub mod cache;
pub mod line;
pub mod replacement;
pub mod stats;

pub use cache::SetAssocCache;
pub use line::{CacheLine, LineState};
pub use replacement::ReplacementPolicy;
pub use stats::CacheStats;
