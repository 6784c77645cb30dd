//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each function produces a [`TextTable`] whose rows/series correspond to
//! the paper's exhibit. Normalization baselines follow the paper's §V:
//!
//! * runtimes are normalized to the workload run *in isolation with four
//!   cores and a fully shared 16 MB LLC*;
//! * miss latencies are normalized to the workload in isolation with
//!   affinity scheduling on shared-4-way caches (the paper's Figs. 6/10/11
//!   baseline);
//! * miss rates for the relative figures use the same shared-4-way affinity
//!   isolation baseline (the paper's text says "relative to workloads run in
//!   isolation" without pinning the cache configuration; the fully-shared
//!   baseline's near-zero miss rates would make ratios unstable, so the
//!   shared-4-way baseline is the interpretable choice — recorded in
//!   EXPERIMENTS.md).

use crate::context::FigureContext;
use consim::mix::Mix;
use consim::report::TextTable;
use consim_job::runner::{ExperimentCell, VmAggregate};
use consim_sched::SchedulingPolicy;
use consim_types::config::{
    ChurnPolicy, DynamicPolicy, LlcPartitioning, MachineConfig, SharingDegree,
};
use consim_types::SimError;
use consim_workload::WorkloadKind;

use SchedulingPolicy::{Affinity, Random, RoundRobin, RrAffinity};
use SharingDegree::{FullyShared, Private, SharedBy};

/// The isolated-workload configuration sweep of Figs. 2 and 3: LLC
/// arrangement (columns match the paper's "shared / 2-LL$ / 4-LL$ /
/// private") crossed with scheduling.
const ISOLATED_SWEEP: [(&str, SharingDegree, SchedulingPolicy); 7] = [
    ("shared", FullyShared, Affinity),
    ("2LL$ rr", SharedBy(8), RoundRobin),
    ("2LL$ aff", SharedBy(8), Affinity),
    ("4LL$ rr", SharedBy(4), RoundRobin),
    ("4LL$ aff", SharedBy(4), Affinity),
    ("priv rr", Private, RoundRobin),
    ("priv aff", Private, Affinity),
];

/// All four scheduling policies, in the paper's figure order.
const POLICIES: [SchedulingPolicy; 4] = [RoundRobin, Affinity, RrAffinity, Random];

fn homogeneous_instances(kind: WorkloadKind) -> [WorkloadKind; 4] {
    [kind; 4]
}

/// Mean runtime of `kind` instances in a run.
fn runtime_of(run: &consim_job::runner::MixRun, kind: WorkloadKind) -> f64 {
    run.mean_over_kind(kind, |v: &VmAggregate| v.runtime_cycles.mean)
}

fn missrate_of(run: &consim_job::runner::MixRun, kind: WorkloadKind) -> f64 {
    run.mean_over_kind(kind, |v| v.llc_miss_rate.mean)
}

fn misslat_of(run: &consim_job::runner::MixRun, kind: WorkloadKind) -> f64 {
    run.mean_over_kind(kind, |v| v.miss_latency.mean)
}

/// Table II: per-workload sharing statistics in the paper's private-cache
/// configuration — % of private-hierarchy misses served cache-to-cache
/// (all / clean / dirty split) and blocks touched (thousands).
///
/// # Errors
///
/// Propagates engine errors.
pub fn table2(ctx: &FigureContext) -> Result<TextTable, SimError> {
    // Footprint tracking costs memory, so Table II uses its own runner —
    // cloned from the context's so an installed trace sink or audit
    // setting carries over.
    let mut options = ctx.runner().options().clone();
    options.track_footprint = true;
    let runner = ctx.runner().clone().with_options(options);
    let mut t = TextTable::new(
        "Table II: workload statistics (private LLC, isolated)",
        &["c2c %", "clean %", "dirty %", "blocks (K)"],
    );
    // One batch: all workloads simulate in parallel on the worker pool.
    let cells: Vec<ExperimentCell> = WorkloadKind::PAPER_SET
        .into_iter()
        .map(|kind| ExperimentCell::of_kinds(&[kind], RoundRobin, Private))
        .collect();
    let runs = runner.run_cells(&cells)?;
    for (kind, run) in WorkloadKind::PAPER_SET.into_iter().zip(runs) {
        let v = &run.vms[0];
        let dirty = v.c2c_dirty_fraction.mean;
        t.row(
            kind.name(),
            &[
                v.c2c_of_hierarchy_misses.mean * 100.0,
                (1.0 - dirty) * 100.0,
                dirty * 100.0,
                v.footprint_blocks.mean / 1000.0,
            ],
        );
    }
    Ok(t)
}

/// Table IV: the experimental mixes (static enumeration, verified
/// programmatically by the mix module's tests).
pub fn table4() -> String {
    let mut out = String::from("=== Table IV: experimental runs ===\n");
    out.push_str("Heterogeneous mixes:\n");
    for mix in Mix::all_heterogeneous() {
        out.push_str(&format!("  {mix}\n"));
    }
    out.push_str("Homogeneous mixes:\n");
    for mix in Mix::all_homogeneous() {
        out.push_str(&format!("  {mix}\n"));
    }
    out
}

/// Fig. 2: isolated workload runtime across LLC arrangements and policies,
/// normalized to the fully shared baseline.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig02_isolated_performance(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let cols: Vec<&str> = ISOLATED_SWEEP.iter().map(|(l, _, _)| *l).collect();
    let mut t = TextTable::new(
        "Fig 2: isolated performance (runtime / fully-shared baseline)",
        &cols,
    );
    for kind in WorkloadKind::PAPER_SET {
        let base = runtime_of(ctx.baseline(kind)?.as_ref(), kind);
        let mut row = Vec::new();
        for (_, sharing, policy) in ISOLATED_SWEEP {
            let run = ctx.run(&[kind], policy, sharing)?;
            row.push(runtime_of(&run, kind) / base);
        }
        t.row(kind.name(), &row);
    }
    Ok(t)
}

/// Fig. 3: isolated LLC miss rates (percent) across the same sweep.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig03_isolated_missrate(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let cols: Vec<&str> = ISOLATED_SWEEP.iter().map(|(l, _, _)| *l).collect();
    let mut t = TextTable::new("Fig 3: isolated miss rates (%)", &cols);
    for kind in WorkloadKind::PAPER_SET {
        let mut row = Vec::new();
        for (_, sharing, policy) in ISOLATED_SWEEP {
            let run = ctx.run(&[kind], policy, sharing)?;
            row.push(missrate_of(&run, kind) * 100.0);
        }
        t.row(kind.name(), &row);
    }
    Ok(t)
}

/// Fig. 4: isolated average miss latency (cycles) for shared, shared-4-way,
/// and private arrangements under both schedulers.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig04_isolated_misslatency(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let sweep: [(&str, SharingDegree, SchedulingPolicy); 5] = [
        ("shared", FullyShared, Affinity),
        ("4LL$ rr", SharedBy(4), RoundRobin),
        ("4LL$ aff", SharedBy(4), Affinity),
        ("priv rr", Private, RoundRobin),
        ("priv aff", Private, Affinity),
    ];
    let cols: Vec<&str> = sweep.iter().map(|(l, _, _)| *l).collect();
    let mut t = TextTable::new("Fig 4: isolated miss latencies (cycles)", &cols);
    for kind in WorkloadKind::PAPER_SET {
        let mut row = Vec::new();
        for (_, sharing, policy) in sweep {
            let run = ctx.run(&[kind], policy, sharing)?;
            row.push(misslat_of(&run, kind));
        }
        t.row(kind.name(), &row);
    }
    Ok(t)
}

/// Fig. 5: homogeneous-mix per-workload runtime under each policy
/// (shared-4-way), relative to the fully-shared isolation baseline.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig05_homogeneous_performance(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let cols: Vec<&str> = POLICIES.iter().map(|p| p.label()).collect();
    let mut t = TextTable::new(
        "Fig 5: homogeneous-mix performance (runtime / isolation)",
        &cols,
    );
    for kind in WorkloadKind::PAPER_SET {
        let base = runtime_of(ctx.baseline(kind)?.as_ref(), kind);
        let mut row = Vec::new();
        for policy in POLICIES {
            let run = ctx.run(&homogeneous_instances(kind), policy, SharedBy(4))?;
            row.push(runtime_of(&run, kind) / base);
        }
        t.row(kind.name(), &row);
    }
    Ok(t)
}

/// Fig. 6: homogeneous-mix miss latency under each policy, normalized to
/// the workload in isolation with affinity scheduling (shared-4-way).
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig06_homogeneous_misslatency(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let cols: Vec<&str> = POLICIES.iter().map(|p| p.label()).collect();
    let mut t = TextTable::new(
        "Fig 6: homogeneous-mix miss latency (relative to isolation/affinity)",
        &cols,
    );
    for kind in WorkloadKind::PAPER_SET {
        let base = misslat_of(ctx.run(&[kind], Affinity, SharedBy(4))?.as_ref(), kind);
        let mut row = Vec::new();
        for policy in POLICIES {
            let run = ctx.run(&homogeneous_instances(kind), policy, SharedBy(4))?;
            row.push(misslat_of(&run, kind) / base);
        }
        t.row(kind.name(), &row);
    }
    Ok(t)
}

/// Fig. 7: homogeneous-mix miss rates relative to isolation
/// (shared-4-way affinity baseline).
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig07_homogeneous_missrate(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let cols: Vec<&str> = POLICIES.iter().map(|p| p.label()).collect();
    let mut t = TextTable::new(
        "Fig 7: homogeneous-mix miss rates (relative to isolation)",
        &cols,
    );
    for kind in WorkloadKind::PAPER_SET {
        let base = missrate_of(ctx.run(&[kind], Affinity, SharedBy(4))?.as_ref(), kind);
        let mut row = Vec::new();
        for policy in POLICIES {
            let run = ctx.run(&homogeneous_instances(kind), policy, SharedBy(4))?;
            row.push(missrate_of(&run, kind) / base.max(1e-9));
        }
        t.row(kind.name(), &row);
    }
    Ok(t)
}

/// Rows of the heterogeneous figures: every (mix, distinct workload) pair.
fn heterogeneous_rows() -> Vec<(Mix, WorkloadKind)> {
    Mix::all_heterogeneous()
        .into_iter()
        .flat_map(|mix| {
            mix.distinct_workloads()
                .into_iter()
                .map(move |kind| (mix.clone(), kind))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Fig. 8: heterogeneous-mix per-workload runtime (affinity and round robin
/// on shared-4-way), normalized to the fully-shared isolation baseline. The
/// paper also plots the shared-4-way isolation points as references; they
/// appear as `iso <workload>` rows.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig08_heterogeneous_performance(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mut t = TextTable::new(
        "Fig 8: heterogeneous-mix performance (runtime / isolation)",
        &["affinity", "rr"],
    );
    for kind in WorkloadKind::PAPER_SET
        .into_iter()
        .filter(|k| *k != WorkloadKind::SpecWeb)
    {
        let base = runtime_of(ctx.baseline(kind)?.as_ref(), kind);
        let aff = runtime_of(ctx.run(&[kind], Affinity, SharedBy(4))?.as_ref(), kind) / base;
        let rr = runtime_of(ctx.run(&[kind], RoundRobin, SharedBy(4))?.as_ref(), kind) / base;
        t.row(format!("iso {}", kind.name()), &[aff, rr]);
    }
    for (mix, kind) in heterogeneous_rows() {
        let base = runtime_of(ctx.baseline(kind)?.as_ref(), kind);
        let mut row = Vec::new();
        for policy in [Affinity, RoundRobin] {
            let run = ctx.run(mix.instances(), policy, SharedBy(4))?;
            row.push(runtime_of(&run, kind) / base);
        }
        t.row(format!("{} {}", mix.id(), kind.name()), &row);
    }
    Ok(t)
}

/// Fig. 9: heterogeneous-mix miss rates relative to isolation
/// (shared-4-way affinity baseline).
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig09_heterogeneous_missrate(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mut t = TextTable::new(
        "Fig 9: heterogeneous-mix miss rates (relative to isolation)",
        &["affinity", "rr"],
    );
    for (mix, kind) in heterogeneous_rows() {
        let base = missrate_of(ctx.run(&[kind], Affinity, SharedBy(4))?.as_ref(), kind);
        let mut row = Vec::new();
        for policy in [Affinity, RoundRobin] {
            let run = ctx.run(mix.instances(), policy, SharedBy(4))?;
            row.push(missrate_of(&run, kind) / base.max(1e-9));
        }
        t.row(format!("{} {}", mix.id(), kind.name()), &row);
    }
    Ok(t)
}

/// Fig. 10: heterogeneous-mix miss latencies, normalized to the workload in
/// isolation with affinity scheduling on shared-4-way caches.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig10_heterogeneous_misslatency(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mut t = TextTable::new(
        "Fig 10: heterogeneous-mix miss latency (relative to isolation/affinity)",
        &["affinity", "rr"],
    );
    for (mix, kind) in heterogeneous_rows() {
        let base = misslat_of(ctx.run(&[kind], Affinity, SharedBy(4))?.as_ref(), kind);
        let mut row = Vec::new();
        for policy in [Affinity, RoundRobin] {
            let run = ctx.run(mix.instances(), policy, SharedBy(4))?;
            row.push(misslat_of(&run, kind) / base);
        }
        t.row(format!("{} {}", mix.id(), kind.name()), &row);
    }
    Ok(t)
}

/// Fig. 11: miss latency of the heterogeneous mixes as the LLC sharing
/// degree varies (affinity scheduling, normalized to the shared-4-way
/// isolation latencies).
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig11_sharing_degree(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let degrees: [(&str, SharingDegree); 4] = [
        ("8x2MB", SharedBy(2)),
        ("4x4MB", SharedBy(4)),
        ("2x8MB", SharedBy(8)),
        ("1x16MB", FullyShared),
    ];
    let cols: Vec<&str> = degrees.iter().map(|(l, _)| *l).collect();
    let mut t = TextTable::new(
        "Fig 11: miss latency vs sharing degree (affinity, relative to shared-4 isolation)",
        &cols,
    );
    for (mix, kind) in heterogeneous_rows() {
        let base = misslat_of(ctx.run(&[kind], Affinity, SharedBy(4))?.as_ref(), kind);
        let mut row = Vec::new();
        for (_, sharing) in degrees {
            let run = ctx.run(mix.instances(), Affinity, sharing)?;
            row.push(misslat_of(&run, kind) / base);
        }
        t.row(format!("{} {}", mix.id(), kind.name()), &row);
    }
    Ok(t)
}

/// Fig. 12: percentage of LLC lines replicated across banks for the
/// homogeneous mixes — the three spreading policies on shared-4-way caches
/// plus the private arrangement's maximum. (Affinity is omitted, as in the
/// paper: one bank per workload means nothing replicates.)
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig12_replication(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mut t = TextTable::new(
        "Fig 12: replicated LLC lines (%), homogeneous mixes",
        &["rr", "aff-rr", "random", "private (max)"],
    );
    for kind in WorkloadKind::PAPER_SET {
        let instances = homogeneous_instances(kind);
        let mut row = Vec::new();
        for policy in [RoundRobin, RrAffinity, Random] {
            let run = ctx.run(&instances, policy, SharedBy(4))?;
            row.push(run.replication.mean * 100.0);
        }
        let private = ctx.run(&instances, RoundRobin, Private)?;
        row.push(private.replication.mean * 100.0);
        t.row(kind.name(), &row);
    }
    Ok(t)
}

/// Fig. 13: per-workload share of each LLC bank's capacity for the
/// heterogeneous mixes (round robin, shared-4-way snapshot).
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig13_occupancy(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mut t = TextTable::new(
        "Fig 13: LLC capacity share per VM (%, rr, shared-4-way)",
        &["bank0", "bank1", "bank2", "bank3", "mean"],
    );
    for mix in Mix::all_heterogeneous() {
        let run = ctx.run(mix.instances(), RoundRobin, SharedBy(4))?;
        for (vm, kind) in mix.instances().iter().enumerate() {
            let shares: Vec<f64> = run.occupancy.iter().map(|bank| bank[vm] * 100.0).collect();
            let mean = shares.iter().sum::<f64>() / shares.len().max(1) as f64;
            let mut row = shares;
            row.resize(4, 0.0);
            row.push(mean);
            t.row(format!("{} vm{vm} {}", mix.id(), kind.name()), &row);
        }
    }
    Ok(t)
}

/// Fig. 14 (extension): per-VM quality of service under LLC way
/// partitioning — the first heterogeneous mix, round robin on shared-4-way
/// banks, with the LLC unpartitioned, split equally, and split 8/4/2/2
/// across the four VMs. Row groups give runtime (normalized to the
/// unpartitioned column), absolute LLC miss rate, and mean bank-capacity
/// share, per VM — the partitioned analogue of Figs. 8-10 and 13.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig14_partitioning(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mix = Mix::all_heterogeneous()
        .into_iter()
        .next()
        .expect("at least one heterogeneous mix");
    let schemes: [(&str, LlcPartitioning); 3] = [
        ("none", LlcPartitioning::None),
        ("equal", LlcPartitioning::EqualWays),
        ("8/4/2/2", LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2])),
    ];
    // The unpartitioned column reuses the context's cached cell (it is the
    // same run Fig. 13 reads); the partitioned columns change the machine
    // itself, which the cell cache does not key on, so they run on
    // dedicated runners cloned from the context's (keeping its audit
    // setting and trace sink).
    let mut runs = Vec::new();
    for (_, scheme) in &schemes {
        runs.push(match scheme {
            LlcPartitioning::None => ctx.run(mix.instances(), RoundRobin, SharedBy(4))?,
            _ => {
                let machine = MachineConfig::paper_default().with_llc_partitioning(scheme.clone());
                let runner = ctx.runner().clone().on_machine(machine);
                let cell = ExperimentCell::of_kinds(mix.instances(), RoundRobin, SharedBy(4));
                let run = runner
                    .run_cells(std::slice::from_ref(&cell))?
                    .pop()
                    .expect("one cell in, one run out");
                std::sync::Arc::new(run)
            }
        });
    }
    let cols: Vec<&str> = schemes.iter().map(|(l, _)| *l).collect();
    let mut t = TextTable::new(
        format!(
            "Fig 14: way-partitioning QoS ({}, rr, shared-4-way)",
            mix.id()
        ),
        &cols,
    );
    for (vm, kind) in mix.instances().iter().enumerate() {
        let base = runs[0].vms[vm].runtime_cycles.mean.max(1e-9);
        let row: Vec<f64> = runs
            .iter()
            .map(|r| r.vms[vm].runtime_cycles.mean / base)
            .collect();
        t.row(format!("runtime vm{vm} {}", kind.name()), &row);
    }
    for (vm, kind) in mix.instances().iter().enumerate() {
        let row: Vec<f64> = runs
            .iter()
            .map(|r| r.vms[vm].llc_miss_rate.mean * 100.0)
            .collect();
        t.row(format!("miss% vm{vm} {}", kind.name()), &row);
    }
    for (vm, kind) in mix.instances().iter().enumerate() {
        let row: Vec<f64> = runs
            .iter()
            .map(|r| {
                let banks = r.occupancy.len().max(1) as f64;
                r.occupancy.iter().map(|bank| bank[vm]).sum::<f64>() / banks * 100.0
            })
            .collect();
        t.row(format!("occ% vm{vm} {}", kind.name()), &row);
    }
    Ok(t)
}

/// Fig. 15 (extension): closing the QoS loop — the Fig. 14 mix under the
/// *dynamic* fairness-aware repartitioning controller, against the static
/// alternatives. Columns: unpartitioned, equal static split, the explicit
/// 8/4/2/2 split, and the dynamic controller at a responsive tuning
/// (10k-cycle epochs, 1-way steps, no dead-band — the default 50k/5%
/// tuning barely wakes up inside a short run, so the figure tightens it
/// to exercise the feedback loop). Row groups match Fig. 14: per-VM
/// runtime normalized to the unpartitioned column, absolute LLC miss
/// rate, and mean bank-capacity share. The dynamic column should track
/// the equal split for symmetric demand and shift ways toward
/// cache-sensitive VMs when the mix is skewed.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig15_dynamic_partitioning(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mix = Mix::all_heterogeneous()
        .into_iter()
        .next()
        .expect("at least one heterogeneous mix");
    let schemes: [(&str, LlcPartitioning); 4] = [
        ("none", LlcPartitioning::None),
        ("equal", LlcPartitioning::EqualWays),
        ("8/4/2/2", LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2])),
        (
            "dynamic",
            LlcPartitioning::Dynamic(DynamicPolicy {
                epoch_interval: 10_000,
                deadband_milli: 0,
                ..DynamicPolicy::default()
            }),
        ),
    ];
    // Same cell-cache caveat as Fig. 14: partitioning lives on the machine,
    // which the context's cell cache does not key on, so every partitioned
    // column runs on a dedicated runner cloned from the context's.
    let mut runs = Vec::new();
    for (_, scheme) in &schemes {
        runs.push(match scheme {
            LlcPartitioning::None => ctx.run(mix.instances(), RoundRobin, SharedBy(4))?,
            _ => {
                let machine = MachineConfig::paper_default().with_llc_partitioning(scheme.clone());
                let runner = ctx.runner().clone().on_machine(machine);
                let cell = ExperimentCell::of_kinds(mix.instances(), RoundRobin, SharedBy(4));
                let run = runner
                    .run_cells(std::slice::from_ref(&cell))?
                    .pop()
                    .expect("one cell in, one run out");
                std::sync::Arc::new(run)
            }
        });
    }
    let cols: Vec<&str> = schemes.iter().map(|(l, _)| *l).collect();
    let mut t = TextTable::new(
        format!(
            "Fig 15: dynamic QoS repartitioning ({}, rr, shared-4-way)",
            mix.id()
        ),
        &cols,
    );
    for (vm, kind) in mix.instances().iter().enumerate() {
        let base = runs[0].vms[vm].runtime_cycles.mean.max(1e-9);
        let row: Vec<f64> = runs
            .iter()
            .map(|r| r.vms[vm].runtime_cycles.mean / base)
            .collect();
        t.row(format!("runtime vm{vm} {}", kind.name()), &row);
    }
    for (vm, kind) in mix.instances().iter().enumerate() {
        let row: Vec<f64> = runs
            .iter()
            .map(|r| r.vms[vm].llc_miss_rate.mean * 100.0)
            .collect();
        t.row(format!("miss% vm{vm} {}", kind.name()), &row);
    }
    for (vm, kind) in mix.instances().iter().enumerate() {
        let row: Vec<f64> = runs
            .iter()
            .map(|r| {
                let banks = r.occupancy.len().max(1) as f64;
                r.occupancy.iter().map(|bank| bank[vm]).sum::<f64>() / banks * 100.0
            })
            .collect();
        t.row(format!("occ% vm{vm} {}", kind.name()), &row);
    }
    Ok(t)
}

/// Fig. 16 (extension): consolidation under VM lifecycle churn — the
/// Fig. 14 mix, round robin on shared-4-way banks, with a static
/// population against two birth–death regimes: arrivals and departures
/// only, and the same regime with live migration enabled. Row groups:
/// per-VM runtime normalized to the static column (a VM retired before
/// meeting its quota completes at the retirement boundary, so churned
/// runtimes can drop *below* 1.0 — that truncation is the lifecycle
/// effect, not an artifact), per-VM mean miss latency relative to the
/// static column (interference from re-warming after spawns and
/// migrations), per-VM *tail* (worst single) miss latency in cycles, and
/// a churn-activity footer (mean spawns / retires / migrations /
/// scrubbed dirty writebacks per run). Churn rates are permille-per-epoch
/// draws, so the activity rows also pin the deterministic decision
/// sequence in the golden.
///
/// # Errors
///
/// Propagates engine errors.
pub fn fig16_lifecycle_churn(ctx: &FigureContext) -> Result<TextTable, SimError> {
    let mix = Mix::all_heterogeneous()
        .into_iter()
        .next()
        .expect("at least one heterogeneous mix");
    let vms = mix.instances().len();
    // Every VM starts active (so each has a real measured quota), epochs
    // fire many times inside even the quick run, and departures leave at
    // least half the population standing.
    let birth_death = ChurnPolicy {
        interval: 4_000,
        arrival_permille: vec![500; vms],
        departure_permille: vec![300; vms],
        migration_permille: 0,
        initial_active: vms,
        min_active: (vms / 2).max(1),
        migration_targets: None,
    };
    let with_migration = ChurnPolicy {
        migration_permille: 400,
        ..birth_death.clone()
    };
    let schemes: [(&str, Option<ChurnPolicy>); 3] = [
        ("static", None),
        ("birth-death", Some(birth_death)),
        ("+migration", Some(with_migration)),
    ];
    // Same cell-cache caveat as Figs. 14/15: churn lives on the machine,
    // which the context's cell cache does not key on, so the churned
    // columns run on dedicated runners cloned from the context's.
    let mut runs = Vec::new();
    for (_, policy) in &schemes {
        runs.push(match policy {
            None => ctx.run(mix.instances(), RoundRobin, SharedBy(4))?,
            Some(churn) => {
                let machine = MachineConfig::paper_default().with_churn(churn.clone());
                let runner = ctx.runner().clone().on_machine(machine);
                let cell = ExperimentCell::of_kinds(mix.instances(), RoundRobin, SharedBy(4));
                let run = runner
                    .run_cells(std::slice::from_ref(&cell))?
                    .pop()
                    .expect("one cell in, one run out");
                std::sync::Arc::new(run)
            }
        });
    }
    let cols: Vec<&str> = schemes.iter().map(|(l, _)| *l).collect();
    let mut t = TextTable::new(
        format!(
            "Fig 16: VM lifecycle churn ({}, rr, shared-4-way)",
            mix.id()
        ),
        &cols,
    );
    for (vm, kind) in mix.instances().iter().enumerate() {
        let base = runs[0].vms[vm].runtime_cycles.mean.max(1e-9);
        let row: Vec<f64> = runs
            .iter()
            .map(|r| r.vms[vm].runtime_cycles.mean / base)
            .collect();
        t.row(format!("runtime vm{vm} {}", kind.name()), &row);
    }
    for (vm, kind) in mix.instances().iter().enumerate() {
        let base = runs[0].vms[vm].miss_latency.mean.max(1e-9);
        let row: Vec<f64> = runs
            .iter()
            .map(|r| r.vms[vm].miss_latency.mean / base)
            .collect();
        t.row(format!("misslat vm{vm} {}", kind.name()), &row);
    }
    for (vm, kind) in mix.instances().iter().enumerate() {
        let row: Vec<f64> = runs
            .iter()
            .map(|r| r.vms[vm].miss_latency_max.mean)
            .collect();
        t.row(format!("tail vm{vm} {}", kind.name()), &row);
    }
    type ActivityStat = fn(&consim_job::runner::MixRun) -> f64;
    let activity: [(&str, ActivityStat); 4] = [
        ("spawns", |r| r.churn.spawns.mean),
        ("retires", |r| r.churn.retires.mean),
        ("migrations", |r| r.churn.migrations.mean),
        ("scrub wb", |r| r.churn.scrub_writebacks.mean),
    ];
    for (label, f) in activity {
        let row: Vec<f64> = runs.iter().map(|r| f(r)).collect();
        t.row(label, &row);
    }
    Ok(t)
}

/// Every experiment cell the figure regenerators will request, so
/// [`run_all`] can prefetch them in one parallel batch. Duplicates are
/// fine; [`FigureContext::prefetch`] collapses them.
pub fn run_all_cells() -> Vec<(Vec<WorkloadKind>, SchedulingPolicy, SharingDegree)> {
    let mut cells = Vec::new();
    for kind in WorkloadKind::PAPER_SET {
        // Figs. 2-4 isolated sweep (includes every isolation baseline).
        for (_, sharing, policy) in ISOLATED_SWEEP {
            cells.push((vec![kind], policy, sharing));
        }
        // Figs. 5-7 and 12: homogeneous mixes under every policy, plus the
        // private-LLC replication maximum.
        for policy in POLICIES {
            cells.push((vec![kind; 4], policy, SharedBy(4)));
        }
        cells.push((vec![kind; 4], RoundRobin, Private));
    }
    // Figs. 8-11 and 13: heterogeneous mixes, both schedulers at the
    // paper's shared-4-way point and the Fig. 11 sharing-degree sweep.
    for mix in Mix::all_heterogeneous() {
        let instances = mix.instances().to_vec();
        for policy in [Affinity, RoundRobin] {
            cells.push((instances.clone(), policy, SharedBy(4)));
        }
        for sharing in [SharedBy(2), SharedBy(8), FullyShared] {
            cells.push((instances.clone(), Affinity, sharing));
        }
    }
    cells
}

/// A figure regenerator over a shared context.
pub type Exhibit = fn(&FigureContext) -> Result<TextTable, SimError>;

/// Every context-driven exhibit, in the order [`run_all`] prints them
/// (after the static [`table4`]), each named after its function — the
/// name of its golden snapshot in `tests/golden/`.
pub const EXHIBITS: [(&str, Exhibit); 16] = [
    ("table2", table2),
    ("fig02_isolated_performance", fig02_isolated_performance),
    ("fig03_isolated_missrate", fig03_isolated_missrate),
    ("fig04_isolated_misslatency", fig04_isolated_misslatency),
    (
        "fig05_homogeneous_performance",
        fig05_homogeneous_performance,
    ),
    (
        "fig06_homogeneous_misslatency",
        fig06_homogeneous_misslatency,
    ),
    ("fig07_homogeneous_missrate", fig07_homogeneous_missrate),
    (
        "fig08_heterogeneous_performance",
        fig08_heterogeneous_performance,
    ),
    ("fig09_heterogeneous_missrate", fig09_heterogeneous_missrate),
    (
        "fig10_heterogeneous_misslatency",
        fig10_heterogeneous_misslatency,
    ),
    ("fig11_sharing_degree", fig11_sharing_degree),
    ("fig12_replication", fig12_replication),
    ("fig13_occupancy", fig13_occupancy),
    ("fig14_partitioning", fig14_partitioning),
    ("fig15_dynamic_partitioning", fig15_dynamic_partitioning),
    ("fig16_lifecycle_churn", fig16_lifecycle_churn),
];

/// Regenerates every exhibit, printing each table (used by the `run_all`
/// binary). All cells are prefetched through the context's parallel batch
/// API first, so the figure code below only reads cached results.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run_all(ctx: &FigureContext) -> Result<(), SimError> {
    ctx.prefetch(&run_all_cells())?;
    println!("{}", table4());
    for (_, render) in EXHIBITS {
        println!("{}", render(ctx)?);
    }
    Ok(())
}
