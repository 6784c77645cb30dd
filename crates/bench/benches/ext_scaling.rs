//! Extension (paper §VII future work): higher degrees of consolidation.
//!
//! "Studying higher degrees of consolidation, either by increasing the
//! number of threads in a workload or increasing the number of workloads
//! running, would allow researchers to accurately forecast behavior even
//! further into the future."
//!
//! This experiment doubles the machine to 32 cores (8x4 mesh, 32 MB LLC,
//! 8 memory controllers) and consolidates eight 4-thread workload instances
//! (two of each kind), reporting each workload's slowdown relative to its
//! isolation baseline on the same machine — directly comparable to the
//! 16-core, 4-instance numbers of the main figures.

use consim::report::TextTable;
use consim_job::runner::{ExperimentRunner, RunOptions};
use consim_sched::SchedulingPolicy;
use consim_types::config::{CacheGeometry, MachineConfig, MachineConfigBuilder, SharingDegree};
use consim_workload::WorkloadKind;

fn machine_32() -> MachineConfig {
    MachineConfigBuilder::new()
        .num_cores(32)
        .mesh_width(8)
        .llc(CacheGeometry::new(32 * 1024 * 1024, 16, 6).expect("valid LLC"))
        .num_memory_controllers(8)
        .sharing(SharingDegree::SharedBy(4))
        .build()
        .expect("valid 32-core machine")
}

fn main() {
    let options = RunOptions {
        refs_per_vm: 60_000,
        warmup_refs_per_vm: 200_000,
        seeds: vec![1],
        track_footprint: false,
        prewarm_llc: false,
    }
    .from_env();
    let runner = ExperimentRunner::with_machine(machine_32(), options);

    // Two instances of each paper workload: 8 VMs x 4 threads = 32 cores.
    let mut instances = Vec::new();
    for kind in WorkloadKind::PAPER_SET {
        instances.push(kind);
        instances.push(kind);
    }

    let mut table = TextTable::new(
        "Extension: 8-workload consolidation on a 32-core CMP (affinity, shared-4)",
        &["slowdown vs isolation", "miss rate %", "miss lat (cy)"],
    );
    let run = runner
        .run(
            &instances,
            SchedulingPolicy::Affinity,
            SharingDegree::SharedBy(4),
        )
        .expect("consolidated run");
    let mut slowdowns = Vec::new();
    for kind in WorkloadKind::PAPER_SET {
        let base = runner
            .isolated(kind, SchedulingPolicy::Affinity, SharingDegree::FullyShared)
            .expect("baseline")
            .vms[0]
            .runtime_cycles
            .mean;
        let slowdown = run.mean_over_kind(kind, |v| v.runtime_cycles.mean) / base;
        let missrate = run.mean_over_kind(kind, |v| v.llc_miss_rate.mean) * 100.0;
        let misslat = run.mean_over_kind(kind, |v| v.miss_latency.mean);
        table.row(kind.name(), &[slowdown, missrate, misslat]);
        slowdowns.push((slowdown, kind.name()));
    }
    println!("{table}");
    // The order as measured, for comparison with the 16-core figures,
    // where TPC-H is the least affected.
    slowdowns.sort_by(|a, b| b.0.total_cmp(&a.0));
    let order: Vec<String> = slowdowns
        .iter()
        .map(|(slowdown, name)| format!("{name} {slowdown:.3}"))
        .collect();
    println!("Slowdown order, most affected first: {}", order.join(" > "));
}
