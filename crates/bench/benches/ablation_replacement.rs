//! Ablation: does the characterization depend on true-LRU bookkeeping?
//!
//! DESIGN.md calls out vanilla LRU as a design choice inherited from the
//! paper ("with a vanilla-LRU block replacement policy, there are no
//! guarantees on any core's allocation"). This ablation reruns a
//! representative cell — Mix 5 on shared-4-way caches, affinity — with
//! tree-PLRU and random replacement in the LLC banks, to show the trends
//! are not an artifact of the replacement policy.

use consim::engine::SimulationConfig;
use consim::report::TextTable;
use consim::Simulation;
use consim_cache::ReplacementPolicy;
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
        "Ablation: LLC replacement policy (Mix 5, affinity, shared-4-way)",
        &["miss rate %", "miss lat (cy)", "c2c %", "repl %"],
    );
    for (label, policy) in [
        ("lru", ReplacementPolicy::Lru),
        ("tree-plru", ReplacementPolicy::TreePlru),
        ("random", ReplacementPolicy::Random),
    ] {
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4)))
            .policy(SchedulingPolicy::Affinity)
            .llc_replacement(policy)
            .refs_per_vm(refs)
            .warmup_refs_per_vm(warmup)
            .seed(1);
        for kind in [
            WorkloadKind::SpecJbb,
            WorkloadKind::SpecJbb,
            WorkloadKind::TpcH,
            WorkloadKind::TpcH,
        ] {
            b.workload(kind.profile());
        }
        let out = Simulation::new(b.build().expect("valid"))
            .expect("machine")
            .run()
            .expect("run");
        let n = out.vm_metrics.len() as f64;
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
        let c2c = out.vm_metrics.iter().map(|m| m.c2c_fraction()).sum::<f64>() / n * 100.0;
        table.row(
            label,
            &[
                missrate,
                misslat,
                c2c,
                out.replication.replicated_fraction() * 100.0,
            ],
        );
    }
    println!("{table}");
}
