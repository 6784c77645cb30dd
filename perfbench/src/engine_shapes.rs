//! `engine-shapes`: one thread calls `Simulation::new`, `prewarm`,
//! `advance` and `finish` directly on the throughput probe's four-VM mix
//! (one instance each of TPC-H, TPC-W, SPECjbb and SPECweb), round robin
//! on the 16-core paper machine, in five LLC shapes. Nearly all host time
//! goes to the engine's event loop; no job, journal or daemon code runs.

use crate::report::{fnv1a, median, Report};
use crate::span::Tracer;
use crate::{procfs, DEFAULT_SEED};
use consim::{audit_outcome, persist, RepartitionDecision, Simulation, SimulationConfig};
use consim::{AccessStep, SimulationOutcome, StepObserver};
use consim_sched::SchedulingPolicy;
use consim_types::config::MachineConfig;
use consim_types::config::SharingDegree;
use consim_types::{SimError, SimRng, ThreadId, VmId};
use consim_workload::{WorkloadGenerator, WorkloadKind};
use std::time::Instant;

/// The five machine shapes, in the order every round runs them.
const SHAPES: [&str; 5] = ["private", "shared4", "shared16", "qos", "churn"];

/// The throughput probe's mix.
const MIX: [WorkloadKind; 4] = [
    WorkloadKind::TpcH,
    WorkloadKind::TpcW,
    WorkloadKind::SpecJbb,
    WorkloadKind::SpecWeb,
];

/// Per-VM reference quotas of one shape run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quotas {
    /// Warmup references per VM (after the LLC prewarm).
    pub warmup: u64,
    /// Measured references per VM.
    pub measured: u64,
}

/// The benchmark's quotas: long enough that the warmup fills the private
/// caches and a shape run lasts a few tenths of a second.
pub const QUOTAS: Quotas = Quotas {
    warmup: 25_000,
    measured: 25_000,
};

/// Host seconds one round of the five shapes is expected to take; the
/// round count is `--seconds` divided by this, so every run of a given
/// length does the same work.
const NOMINAL_ROUND_S: f64 = 3.5;

/// `outcome_to_bytes` digests of each shape at [`DEFAULT_SEED`] and
/// [`QUOTAS`].
const EXPECTED: [(&str, u64); 5] = [
    ("private", 0xee98_a8f3_6e91_8075),
    ("shared4", 0xeafd_472d_70bd_fd4e),
    ("shared16", 0x012e_788a_8d03_6752),
    ("qos", 0xc676_d660_160e_e48b),
    ("churn", 0xea6e_9c88_37bb_bc36),
];

/// The machine of `shape`; panics on a name outside [`SHAPES`].
fn machine(shape: &str) -> MachineConfig {
    let paper = MachineConfig::paper_default();
    match shape {
        "private" => paper.with_sharing(SharingDegree::Private),
        "shared4" => paper.with_sharing(SharingDegree::SharedBy(4)),
        "shared16" => paper.with_sharing(SharingDegree::FullyShared),
        "qos" => paper
            .with_sharing(SharingDegree::SharedBy(4))
            .with_llc_partitioning(crate::fig15_dynamic()),
        "churn" => paper
            .with_sharing(SharingDegree::SharedBy(4))
            .with_churn(crate::fig16_churn(MIX.len(), 400)),
        other => panic!("unknown shape {other}"),
    }
}

/// The simulation of `shape` at `seed`.
///
/// # Errors
///
/// Returns the configuration error of the engine.
pub fn config(shape: &str, seed: u64, quotas: Quotas) -> Result<SimulationConfig, SimError> {
    let mut b = SimulationConfig::builder();
    b.machine(machine(shape))
        .policy(SchedulingPolicy::RoundRobin)
        .seed(seed)
        .refs_per_vm(quotas.measured)
        .warmup_refs_per_vm(quotas.warmup)
        .prewarm_llc(true);
    for kind in MIX {
        b.workload(kind.profile());
    }
    b.build()
}

/// One shape's simulation, timed.
#[derive(Debug)]
struct ShapeRun {
    shape: &'static str,
    /// Host seconds of `Simulation::new` + `prewarm`.
    setup_s: f64,
    /// Host seconds of `advance` + `finish`.
    run_s: f64,
    /// Simulated references: warmup quota plus every measured reference.
    refs: u64,
    outcome: SimulationOutcome,
}

fn run_shape(
    shape: &'static str,
    seed: u64,
    quotas: Quotas,
    tracer: &mut Tracer,
) -> Result<ShapeRun, SimError> {
    let cfg = config(shape, seed, quotas)?;
    tracer.span(&format!("engine.{shape}"), |tracer| {
        let start = Instant::now();
        let mut sim = tracer.span(&format!("engine.{shape}.new"), |_| Simulation::new(cfg))?;
        tracer.span(&format!("engine.{shape}.prewarm"), |_| sim.prewarm());
        let setup_done = Instant::now();
        tracer.span(&format!("engine.{shape}.advance"), |_| {
            sim.advance(u64::MAX, None)
        })?;
        let outcome = tracer.span(&format!("engine.{shape}.finish"), |_| sim.finish())?;
        let end = Instant::now();
        let measured: u64 = outcome.vm_metrics.iter().map(|m| m.refs).sum();
        Ok(ShapeRun {
            shape,
            setup_s: (setup_done - start).as_secs_f64(),
            run_s: (end - setup_done).as_secs_f64(),
            refs: quotas.warmup * MIX.len() as u64 + measured,
            outcome,
        })
    })
}

/// Runs every shape once, in [`SHAPES`] order; returns the first engine
/// error.
fn round(seed: u64, quotas: Quotas, tracer: &mut Tracer) -> Result<Vec<ShapeRun>, SimError> {
    tracer.span("engine.round", |tracer| {
        SHAPES
            .iter()
            .map(|shape| run_shape(shape, seed, quotas, tracer))
            .collect()
    })
}

/// Checks every run of a round: the counter audit passes, and the outcome
/// digest matches the recorded one at the default seed and quotas, or the
/// first round's elsewhere.
fn check_round(
    runs: &[ShapeRun],
    seed: u64,
    quotas: Quotas,
    first: &mut Vec<u64>,
    report: &mut Report,
) {
    for (i, run) in runs.iter().enumerate() {
        let audit = audit_outcome(&run.outcome);
        let digest = persist::outcome_to_bytes(&run.outcome).map_or(0, |b| fnv1a(&b));
        let expected = if seed == DEFAULT_SEED && quotas == QUOTAS {
            EXPECTED[i].1
        } else {
            *first.get(i).unwrap_or(&digest)
        };
        if first.len() <= i {
            first.push(digest);
        }
        report.check(audit.is_ok() && digest == expected, || {
            format!(
                "engine-shapes {}: audit {:?}, digest {digest:016x}, expected {expected:016x}",
                run.shape,
                audit.err()
            )
        });
    }
}

/// The untraced workload: `seconds / NOMINAL_ROUND_S` rounds of the five
/// shapes.
///
/// # Errors
///
/// Returns the first engine error, or the error reading `/proc/self`.
pub fn run(seed: u64, seconds: u64) -> Result<Report, String> {
    let rounds = ((seconds as f64 / NOMINAL_ROUND_S).round() as usize).max(2);
    let mut report = Report::default();
    let mut tracer = Tracer::new(false, Instant::now());
    let (mut setup, mut wall, mut rate, mut cpu, mut cap) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut latencies = Vec::new();
    let mut first = Vec::new();
    let proc_self = || procfs::sample("self").map_err(|e| format!("/proc/self: {e}"));
    for _ in 0..rounds {
        let cpu0 = proc_self()?.cpu_s;
        let runs = round(seed, QUOTAS, &mut tracer).map_err(|e| e.to_string())?;
        let cpu1 = proc_self()?.cpu_s;
        check_round(&runs, seed, QUOTAS, &mut first, &mut report);
        let run_s: f64 = runs.iter().map(|r| r.run_s).sum();
        let setup_s: f64 = runs.iter().map(|r| r.setup_s).sum();
        let refs: u64 = runs.iter().map(|r| r.refs).sum();
        setup.push(setup_s);
        wall.push(run_s);
        rate.push(refs as f64 / run_s);
        cpu.push(cpu1 - cpu0);
        cap.push(runs.len() as f64 / (run_s + setup_s));
        // One sample per round: the five shapes take different times, and
        // a median over all their runs would fall between two of them.
        latencies.push((setup_s + run_s) * 1e3 / runs.len() as f64);
    }
    let hwm = proc_self()?.hwm_mib;
    crate::end_to_end(
        &mut report,
        crate::EndToEnd {
            setup_s: median(&setup),
            wall_s: median(&wall),
            cpu_s: median(&cpu),
            peak_rss_mib: hwm,
            refs_per_s: median(&rate),
            latencies_ms: latencies,
            capacity_jobs_per_s: median(&cap),
        },
    );
    Ok(report)
}

/// Counts the dynamic-QoS decisions an observer sees.
#[derive(Debug, Default)]
struct RepartitionCounter {
    decisions: u64,
}

impl StepObserver for RepartitionCounter {
    fn on_step(&mut self, _step: &AccessStep) {}

    fn on_repartition(&mut self, _decision: &RepartitionDecision) {
        self.decisions += 1;
    }
}

/// Replays the mix's four generators on their own through `fill_batch`,
/// in a `workload.fill_batch` span, for the references one shape run
/// issues per VM; returns how many references that was.
fn replay_workload(seed: u64, quotas: Quotas, tracer: &mut Tracer) -> u64 {
    const BATCH: usize = 64;
    let per_vm = quotas.warmup + quotas.measured;
    let rng = SimRng::from_seed(seed);
    let mut generators: Vec<WorkloadGenerator> = MIX
        .iter()
        .enumerate()
        .map(|(vm, kind)| WorkloadGenerator::new(VmId::new(vm), &kind.profile(), &rng))
        .collect();
    let mut buf = Vec::with_capacity(BATCH);
    tracer.span("workload.fill_batch", |_| {
        for g in &mut generators {
            let threads = g.profile().threads;
            let mut issued = 0u64;
            let mut thread = 0usize;
            while issued < per_vm {
                let t = ThreadId::new(thread % threads);
                buf.clear();
                let want = BATCH.min((per_vm - issued) as usize);
                g.fill_batch(t, &mut buf, want);
                if buf.is_empty() {
                    // A handoff access is due; it is issued on its own.
                    std::hint::black_box(g.next_ref(t));
                    issued += 1;
                } else {
                    issued += buf.len() as u64;
                    std::hint::black_box(&buf);
                }
                thread += 1;
            }
        }
    });
    per_vm * MIX.len() as u64
}

/// Per-layer view of the engine from one traced round, after an untraced
/// one so the tracing overhead is measured too.
///
/// # Errors
///
/// Returns the first engine error.
pub fn layers(seed: u64, quotas: Quotas) -> Result<(Report, Tracer), SimError> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(true, Instant::now());
    let mut first = Vec::new();
    let t = Instant::now();
    let runs = round(seed, quotas, &mut Tracer::new(false, Instant::now()))?;
    let untraced = t.elapsed().as_secs_f64();
    check_round(&runs, seed, quotas, &mut first, &mut report);
    let t = Instant::now();
    let runs = round(seed, quotas, &mut tracer)?;
    let traced = t.elapsed().as_secs_f64();
    check_round(&runs, seed, quotas, &mut first, &mut report);
    for run in &runs {
        let s = run.shape;
        let o = &run.outcome;
        let ns = (tracer.total_ns(&format!("engine.{s}.advance"))
            + tracer.total_ns(&format!("engine.{s}.finish"))) as f64;
        let setup_ms = (tracer.total_ns(&format!("engine.{s}.new"))
            + tracer.total_ns(&format!("engine.{s}.prewarm"))) as f64
            / 1e6;
        let sum = |f: fn(&consim::VmMetrics) -> u64| -> u64 { o.vm_metrics.iter().map(f).sum() };
        let refs = sum(|m| m.refs);
        report.metric(format!("engine.{s}.ns_per_ref"), ns / run.refs as f64, "ns");
        report.metric(format!("engine.{s}.setup_ms"), setup_ms, "ms");
        report.metric(
            format!("engine.{s}.sim_cycles"),
            o.measured_cycles as f64,
            "count",
        );
        report.metric(
            format!("hierarchy.{s}.fast_path_frac"),
            (sum(|m| m.l0_hits) + sum(|m| m.l1_hits)) as f64 / refs.max(1) as f64,
            "ratio",
        );
        report.metric(
            format!("hierarchy.{s}.l1_misses"),
            sum(|m| m.l1_misses) as f64,
            "count",
        );
        report.metric(
            format!("hierarchy.{s}.mem_fetches"),
            sum(|m| m.memory_fetches) as f64,
            "count",
        );
        report.metric(
            format!("coherence.{s}.c2c"),
            sum(|m| m.cache_to_cache()) as f64,
            "count",
        );
        report.metric(
            format!("coherence.{s}.invalidations"),
            o.protocol.invalidations as f64,
            "count",
        );
        report.metric(format!("noc.{s}.packets"), o.noc.packets as f64, "count");
        report.metric(format!("noc.{s}.mean_hops"), o.noc.mean_hops(), "hops");
    }
    // The observer's per-access callback would slow the timed rounds, so
    // the decisions are counted in a separate, untimed replay.
    let mut counter = RepartitionCounter::default();
    Simulation::new(config("qos", seed, quotas)?)?.run_with(Some(&mut counter))?;
    report.metric("qos.repartitions", counter.decisions as f64, "count");
    let churn = runs
        .iter()
        .find(|r| r.shape == "churn")
        .and_then(|r| r.outcome.churn)
        .unwrap_or_default();
    report.metric(
        "churn.events",
        (churn.spawns + churn.retires + churn.migrations) as f64,
        "count",
    );
    let replayed = replay_workload(seed, quotas, &mut tracer);
    report.metric(
        "workload.ns_per_ref",
        tracer.total_ns("workload.fill_batch") as f64 / replayed as f64,
        "ns",
    );
    report.metric(
        "trace.engine-shapes.overhead_frac",
        traced / untraced - 1.0,
        "ratio",
    );
    Ok((report, tracer))
}
