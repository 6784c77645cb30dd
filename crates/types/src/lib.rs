//! Shared foundation types for the `consim` CMP simulator.
//!
//! This crate defines the vocabulary the rest of the workspace speaks:
//!
//! * strongly-typed identifiers ([`CoreId`], [`VmId`], [`ThreadId`],
//!   [`BankId`], [`NodeId`], [`MemCtrlId`]) — see [`ids`];
//! * physical addresses and cache-block addresses — see [`addr`];
//! * simulation-time arithmetic — see [`cycles`];
//! * the machine configuration from the paper's Table III, with a builder —
//!   see [`config`];
//! * the workspace-wide error type — see [`error`];
//! * a fast non-cryptographic hasher for simulator-internal maps — see
//!   [`hash`];
//! * deterministic, stream-splittable random number generation — see [`rng`].
//!
//! # Examples
//!
//! ```
//! use consim_types::config::{MachineConfig, SharingDegree};
//!
//! let machine = MachineConfig::paper_default();
//! assert_eq!(machine.num_cores, 16);
//! assert_eq!(machine.llc.total_bytes, 16 << 20);
//! let shared4 = machine.with_sharing(SharingDegree::SharedBy(4));
//! assert_eq!(shared4.llc_banks(), 4);
//! ```

pub mod addr;
pub mod config;
pub mod cycles;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;

pub use addr::{Address, BlockAddr, CACHE_LINE_BYTES};
pub use config::{
    CacheGeometry, ChurnPolicy, DynamicPolicy, LlcPartitioning, MachineConfig, SharingDegree,
    MAX_CORES,
};
pub use cycles::Cycle;
pub use error::{SimError, SnapshotErrorKind};
pub use hash::{FastHashMap, FastHashSet};
pub use ids::{BankId, CoreId, GlobalThreadId, MemCtrlId, NodeId, ThreadId, VmId};
pub use rng::SimRng;
