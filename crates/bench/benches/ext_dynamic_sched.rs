//! Extension (paper §VII future work): dynamic schedulers.
//!
//! "We would like to study the effects of schedulers dynamically adjusting
//! assignments, in response to context-switches and changing demands."
//!
//! This experiment runs the homogeneous SPECjbb mix under random placement
//! that is *re-drawn* at decreasing intervals — the over-committed-VMM
//! drift the paper's random policy approximates — and reports how migration
//! churn erodes performance as threads repeatedly abandon warm caches.

use consim::engine::SimulationConfig;
use consim::report::TextTable;
use consim::Simulation;
use consim_job::runner::RunOptions;
use consim_sched::SchedulingPolicy;
use consim_types::config::{MachineConfig, SharingDegree};
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
        "Extension: dynamic random rescheduling (Mix C, shared-4-way)",
        &["runtime (Mcy)", "miss rate %", "miss lat (cy)", "l1 hit %"],
    );
    for (label, interval) in [
        ("static", None),
        ("every 1M cy", Some(1_000_000u64)),
        ("every 300K cy", Some(300_000)),
        ("every 100K cy", Some(100_000)),
    ] {
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4)))
            .policy(SchedulingPolicy::Random)
            .refs_per_vm(refs)
            .warmup_refs_per_vm(warmup)
            .seed(1);
        if let Some(i) = interval {
            b.reschedule_every(i);
        }
        for _ in 0..4 {
            b.workload(WorkloadKind::SpecJbb.profile());
        }
        let out = Simulation::new(b.build().expect("valid"))
            .expect("machine")
            .run()
            .expect("run");
        let n = out.vm_metrics.len() as f64;
        let runtime = out
            .vm_metrics
            .iter()
            .map(|m| m.runtime_cycles() as f64)
            .sum::<f64>()
            / n
            / 1e6;
        let missrate = out
            .vm_metrics
            .iter()
            .map(|m| m.llc_miss_rate())
            .sum::<f64>()
            / n
            * 100.0;
        let misslat = out
            .vm_metrics
            .iter()
            .map(|m| m.mean_miss_latency())
            .sum::<f64>()
            / n;
        let l1hit = out
            .vm_metrics
            .iter()
            .map(|m| (m.l0_hits + m.l1_hits) as f64 / m.refs as f64)
            .sum::<f64>()
            / n
            * 100.0;
        table.row(label, &[runtime, missrate, misslat, l1hit]);
    }
    println!("{table}");
    println!(
        "Expected shape: migration churn lowers private-cache hit rates and\n\
         raises runtime monotonically as the rescheduling interval shrinks."
    );
}
