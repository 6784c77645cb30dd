//! Ablation: sensitivity to memory-controller bandwidth.
//!
//! The paper's machine fixes memory latency at 150 cycles; consolidation
//! interference through the memory controllers depends on how long each
//! access occupies a controller. This ablation sweeps that occupancy for
//! Mix 1 (3x TPC-W + TPC-H) to show which conclusions depend on it:
//! TPC-H's relative isolation should hold across the sweep, while absolute
//! miss latencies scale with the contention.

use consim::engine::SimulationConfig;
use consim::report::TextTable;
use consim::Simulation;
use consim_job::runner::RunOptions;
use consim_sched::SchedulingPolicy;
use consim_types::config::{MachineConfigBuilder, SharingDegree};
use consim_workload::WorkloadKind;

fn main() {
    let RunOptions {
        refs_per_vm: refs,
        warmup_refs_per_vm: warmup,
        ..
    } = RunOptions {
        refs_per_vm: 60_000,
        warmup_refs_per_vm: 200_000,
        ..RunOptions::default()
    }
    .from_env();

    let mut table = TextTable::new(
        "Ablation: memory-controller occupancy (Mix 1, affinity, shared-4-way)",
        &[
            "TPC-W lat (cy)",
            "TPC-H lat (cy)",
            "TPC-W runtime (Mcy)",
            "TPC-H runtime (Mcy)",
        ],
    );
    for occupancy in [1u64, 15, 30, 60] {
        let machine = MachineConfigBuilder::new()
            .sharing(SharingDegree::SharedBy(4))
            .memory_occupancy(occupancy)
            .build()
            .expect("valid machine");
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .policy(SchedulingPolicy::Affinity)
            .refs_per_vm(refs)
            .warmup_refs_per_vm(warmup)
            .seed(1);
        for kind in [
            WorkloadKind::TpcW,
            WorkloadKind::TpcW,
            WorkloadKind::TpcW,
            WorkloadKind::TpcH,
        ] {
            b.workload(kind.profile());
        }
        let out = Simulation::new(b.build().expect("valid"))
            .expect("machine")
            .run()
            .expect("run");
        let w_lat = out.vm_metrics[..3]
            .iter()
            .map(|m| m.mean_miss_latency())
            .sum::<f64>()
            / 3.0;
        let h_lat = out.vm_metrics[3].mean_miss_latency();
        let w_rt = out.vm_metrics[..3]
            .iter()
            .map(|m| m.runtime_cycles() as f64)
            .sum::<f64>()
            / 3.0
            / 1e6;
        let h_rt = out.vm_metrics[3].runtime_cycles() as f64 / 1e6;
        table.row(
            format!("occupancy {occupancy}"),
            &[w_lat, h_lat, w_rt, h_rt],
        );
    }
    println!("{table}");
}
