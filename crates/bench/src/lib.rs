//! Benchmark and figure-regeneration harness for the `consim` workspace.
//!
//! Every table and figure in the paper's evaluation section has a
//! regenerator in [`figures`], and the `run_all` binary prints them all
//! from one process (every cell prefetched in one batch across the worker
//! pool, then memoized across figures by [`FigureContext`]):
//!
//! | Exhibit | Function |
//! |---|---|
//! | Table II | [`figures::table2`] |
//! | Table IV | [`figures::table4`] |
//! | Fig. 2 | [`figures::fig02_isolated_performance`] |
//! | Fig. 3 | [`figures::fig03_isolated_missrate`] |
//! | Fig. 4 | [`figures::fig04_isolated_misslatency`] |
//! | Fig. 5 | [`figures::fig05_homogeneous_performance`] |
//! | Fig. 6 | [`figures::fig06_homogeneous_misslatency`] |
//! | Fig. 7 | [`figures::fig07_homogeneous_missrate`] |
//! | Fig. 8 | [`figures::fig08_heterogeneous_performance`] |
//! | Fig. 9 | [`figures::fig09_heterogeneous_missrate`] |
//! | Fig. 10 | [`figures::fig10_heterogeneous_misslatency`] |
//! | Fig. 11 | [`figures::fig11_sharing_degree`] |
//! | Fig. 12 | [`figures::fig12_replication`] |
//! | Fig. 13 | [`figures::fig13_occupancy`] |
//! | Fig. 14 (extension) | [`figures::fig14_partitioning`] |
//! | Fig. 15 (extension) | [`figures::fig15_dynamic_partitioning`] |
//! | Fig. 16 (extension) | [`figures::fig16_lifecycle_churn`] |
//!
//! Extensions and ablations that `run_all` does not print (paper §VII
//! future work and DESIGN.md design-choice callouts) are bench targets:
//!
//! | Experiment | Bench target |
//! |---|---|
//! | 32-core consolidation | `ext_scaling` |
//! | Asymmetric thread counts | `ext_thread_counts` |
//! | Dynamic rescheduling | `ext_dynamic_sched` |
//! | LLC replacement ablation | `ablation_replacement` |
//! | Memory-bandwidth ablation | `ablation_memory` |
//!
//! Each prints its rows/series as a plain-text table; run-length and seed
//! count are tunable with `CONSIM_REFS`, `CONSIM_WARMUP`, and
//! `CONSIM_SEEDS`; worker-pool width with `CONSIM_THREADS`.
//! `cargo bench -p consim-bench` runs these five and the `micro` target
//! (dependency-free timing micro-benchmarks of the substrates). Helper
//! binaries: `run_all` (every exhibit), `calibrate` (Table II calibration
//! check), `sweep` (profile-knob search, one parallel batch per workload),
//! `diagnose` (latency-composition debugging), `throughput` (engine
//! refs/sec smoke probe).

pub mod cli;
pub mod context;
pub mod figures;

pub use cli::{BenchFlags, TraceSession};
pub use context::FigureContext;
