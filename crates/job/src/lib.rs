//! `consim-job` — the job execution layer of the consolidation simulator.
//!
//! The paper's methodology is a large design-space sweep (sharing degree ×
//! cache size × placement), and the layers that serve it long-running —
//! a capacity-planning daemon, an objective-driven autotuner — all need
//! the same foundation: an open-ended, resumable notion of a *job* rather
//! than a fixed batch. This crate provides that foundation as four thin
//! layers over the `consim` engine:
//!
//! * [`spec::JobSpec`] — one `(cell, seed)` simulation with its full
//!   configuration, identified on disk by a *content digest* of that
//!   configuration (not by batch position), so a queue can grow without
//!   invalidating earlier journal records;
//! * [`queue`] — the [`queue::JobQueue`] trait with a work-stealing
//!   [`queue::StaticQueue`] for batches and an open-ended
//!   [`queue::LiveQueue`] that producers feed while workers run;
//! * [`journal::JobJournal`] — job-granular crash journal: atomic,
//!   checksummed outcome records plus transient mid-run checkpoints;
//! * [`pool::WorkerPool`] — persistent workers that pull jobs and execute
//!   them in [`consim::engine::Simulation::advance`] time slices, enabling
//!   preemptive interleaving and early termination of dominated
//!   candidates;
//! * [`sink`] — the [`sink::ResultSink`] trait plus a
//!   [`sink::CollectingSink`] that rebuilds deterministic submission-order
//!   results from out-of-order completions.
//!
//! [`runner::ExperimentRunner`] is the batch facade over these layers and
//! keeps the public API the figure regenerators and tests always had.
//!
//! # Determinism
//!
//! Parallelism lives *between* simulations, never inside one: each job's
//! outcome is a pure function of its [`consim::engine::SimulationConfig`],
//! independent of worker count, time-slice length, interleaving, or
//! completion order. The sink keys results by submission index, so any
//! execution schedule reassembles into the same ordered result vector —
//! bit-identical to serial execution.

pub mod journal;
pub mod pool;
pub mod queue;
pub mod runner;
pub mod sink;
pub mod spec;

pub use journal::JobJournal;
pub use pool::{PoolConfig, PoolReport, WorkerPool};
pub use queue::{JobQueue, LiveQueue, QueuePoll, StaticQueue};
pub use runner::{
    ChurnAggregate, ExperimentCell, ExperimentRunner, MixRun, RunOptions, VmAggregate,
};
pub use sink::{CollectingSink, JobOutput, JobSource, ResultSink};
pub use spec::JobSpec;
