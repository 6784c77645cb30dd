//! The repository's benchmark: three workloads that drive the simulator
//! from outside (see `README.md` beside this crate), each printing every
//! end-to-end metric, and a traced mode that prints the per-layer view.

pub mod campaign;
pub mod engine_shapes;
pub mod procfs;
pub mod report;
pub mod serve_open;
pub mod span;

use consim::Simulation;
use consim_job::{JobJournal, JobSpec};
use consim_types::config::{ChurnPolicy, DynamicPolicy, LlcPartitioning};
use consim_types::SimError;
use report::{median, Report};
use span::Tracer;
use std::path::Path;
use std::time::Instant;

/// The seed whose outputs are pinned by recorded digests.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["engine-shapes", "campaign", "serve-open"];

/// The Fig 15 dynamic QoS controller, as `figures::fig15_dynamic_partitioning`
/// configures it.
fn fig15_dynamic() -> LlcPartitioning {
    LlcPartitioning::Dynamic(DynamicPolicy {
        epoch_interval: 10_000,
        deadband_milli: 0,
        ..DynamicPolicy::default()
    })
}

/// The Fig 16 birth-death policy over `vms` VMs, as
/// `figures::fig16_lifecycle_churn` configures it.
fn fig16_churn(vms: usize, migration_permille: u32) -> ChurnPolicy {
    ChurnPolicy {
        interval: 4_000,
        arrival_permille: vec![500; vms],
        departure_permille: vec![300; vms],
        migration_permille,
        initial_active: vms,
        min_active: (vms / 2).max(1),
        migration_targets: None,
    }
}

/// The end-to-end metrics every workload reports. Each workload reads
/// them on its own unit of work, a "job": one shape simulation, one
/// (cell, seed) job of the figure campaign, one daemon submission.
#[derive(Debug)]
pub struct EndToEnd {
    /// Set-up host seconds (median of several set-ups).
    pub setup_s: f64,
    /// Host seconds of the workload's fixed unit of work.
    pub wall_s: f64,
    /// CPU seconds of the process doing the work.
    pub cpu_s: f64,
    /// Peak resident MiB of that process.
    pub peak_rss_mib: f64,
    /// Simulated references per host second.
    pub refs_per_s: f64,
    /// Job latencies in milliseconds; their median is reported.
    pub latencies_ms: Vec<f64>,
    /// Jobs completed per host second.
    pub capacity_jobs_per_s: f64,
}

/// Adds the end-to-end metrics to `report`.
pub fn end_to_end(report: &mut Report, e: EndToEnd) {
    report.metric("setup_s", e.setup_s, "s");
    report.metric("wall_s", e.wall_s, "s");
    report.metric("cpu_s", e.cpu_s, "s");
    report.metric("peak_rss_mib", e.peak_rss_mib, "MiB");
    report.metric("refs_per_s", e.refs_per_s, "refs/s");
    report.metric("latency_p50_ms", median(&e.latencies_ms), "ms");
    report.metric("capacity_jobs_per_s", e.capacity_jobs_per_s, "jobs/s");
}

/// Snapshot-codec and journal probes: checkpoint and resume a prewarmed
/// paper machine in memory, and store a daemon job's mid-run checkpoint
/// through the journal. Returns the first engine or journal error.
fn snapshot_layers(seed: u64, work: &Path, tracer: &mut Tracer) -> Result<Report, SimError> {
    const REPS: usize = 7;
    let mut report = Report::default();
    let quotas = engine_shapes::QUOTAS;
    let mut sim = Simulation::new(engine_shapes::config("shared4", seed, quotas)?)?;
    sim.prewarm();
    let mut bytes = Vec::new();
    for _ in 0..REPS {
        bytes.clear();
        tracer.span("snap.checkpoint", |_| sim.checkpoint(&mut bytes))?;
    }
    for _ in 0..REPS {
        let resumed = tracer.span("snap.resume", |_| Simulation::resume(&bytes[..]))?;
        drop(resumed);
    }
    let job = serve_open::plan(seed, 1.0)
        .map_err(SimError::invariant)?
        .swap_remove(0);
    let spec = JobSpec::new(0, 0, job.config.clone());
    let mut live = Simulation::new(job.config)?;
    live.advance(2_000, None)?;
    let dir = work.join(format!("journal-probe-{}", std::process::id()));
    let journal = JobJournal::open(&dir)?;
    for _ in 0..REPS {
        tracer.span("job.store_checkpoint", |_| {
            journal.store_checkpoint(&spec, &live)
        })?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    report.metric("snap.ckpt_bytes", bytes.len() as f64, "bytes");
    report.metric("snap.ckpt_ms", median(&tracer.ms("snap.checkpoint")), "ms");
    report.metric("snap.resume_ms", median(&tracer.ms("snap.resume")), "ms");
    report.metric(
        "job.store_ckpt_ms",
        median(&tracer.ms("job.store_checkpoint")),
        "ms",
    );
    Ok(report)
}

/// The traced run: the whole per-layer view, whichever workload named
/// it, since every traced run prints every per-layer metric that
/// `BENCHMARK.json` lists and those come from all three workloads. Each
/// workload runs once untraced and once traced, so the tracing overhead
/// of every workload is reported too.
/// Spans are written to `work/spans-*.jsonl` when the run ends.
///
/// # Errors
///
/// Returns a description of the first workload that failed to run.
pub fn traced(
    exe: &Path,
    serve_bin: &Path,
    work: &Path,
    seed: u64,
    seconds: u64,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (engine, engine_spans) =
        engine_shapes::layers(seed, engine_shapes::QUOTAS).map_err(|e| e.to_string())?;
    report.absorb(engine);
    report.absorb(campaign::layers(
        exe,
        seed,
        &work.join("spans-campaign.jsonl"),
    )?);
    let mut tracer = Tracer::new(true, Instant::now());
    report.absorb(serve_open::layers(
        serve_bin,
        &serve_open::work_dir(work, seed),
        seed,
        seconds as f64,
        &mut tracer,
    )?);
    report.absorb(snapshot_layers(seed, work, &mut tracer).map_err(|e| e.to_string())?);
    for (name, t) in [("engine", &engine_spans), ("serve", &tracer)] {
        let nested = t.check_nesting();
        report.check(nested.is_ok(), || {
            format!("{name} spans: {:?}", nested.err())
        });
        t.write_jsonl(&work.join(format!("spans-{name}.jsonl")))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    let failed = report.failed_frac();
    report.metric("failed_frac", failed, "ratio");
    Ok(report)
}
