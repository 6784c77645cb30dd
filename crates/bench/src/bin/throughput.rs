//! Engine throughput probe: simulated references per wall-clock second.
//!
//! Runs the paper's shared-4-way affinity configuration with a four-VM
//! heterogeneous mix — the shape that dominates `run_all` — first serially,
//! then with the full worker pool, and reports refs/sec plus the parallel
//! speedup. Results land on stdout and in `BENCH_engine.json` (hand-rolled
//! JSON; the workspace is dependency-free); `--json <path>` redirects the
//! JSON report, so CI smoke probes can write a scratch file without
//! clobbering the committed baseline.
//!
//! Knobs: `CONSIM_REFS` / `CONSIM_WARMUP` scale the per-VM quotas,
//! `CONSIM_SEEDS` the seed fan-out, `CONSIM_THREADS` the parallel pool.
//! Observability flags: `--audit` / `--trace <dir>` (see
//! `consim_bench::cli`) — note tracing adds work to the measured loop, so
//! regression comparisons should run without `--trace`.

use consim_bench::cli::BenchFlags;
use consim_job::runner::{ExperimentCell, ExperimentRunner, RunOptions};
use consim_sched::SchedulingPolicy;
use consim_trace::digest_of;
use consim_types::config::{LlcPartitioning, SharingDegree};
use consim_workload::WorkloadKind;
use std::time::Instant;

fn options() -> RunOptions {
    RunOptions {
        refs_per_vm: 60_000,
        warmup_refs_per_vm: 60_000,
        seeds: (1..=8).collect(),
        track_footprint: false,
        prewarm_llc: false,
    }
    .from_env()
}

/// Total references simulated by one batch: per-VM quota (measured +
/// warmup) times VMs per cell times seeds.
fn total_refs(opts: &RunOptions, cells: &[ExperimentCell]) -> u64 {
    let per_vm = opts.refs_per_vm + opts.warmup_refs_per_vm;
    let vms: u64 = cells.iter().map(|c| c.profiles.len() as u64).sum();
    per_vm * vms * opts.seeds.len() as u64
}

fn main() {
    let mut flags = BenchFlags::from_env("throughput");
    let json_path = match flags.take_path("--json") {
        Ok(path) => path.unwrap_or_else(|| "BENCH_engine.json".into()),
        Err(msg) => {
            eprintln!("throughput: {msg}");
            eprintln!("usage: throughput [--json <path>] [--audit] [--trace <dir>]");
            std::process::exit(2);
        }
    };
    let session = flags.trace_session().expect("open trace directory");
    let opts = options();
    let mix = [
        WorkloadKind::TpcH,
        WorkloadKind::TpcW,
        WorkloadKind::SpecJbb,
        WorkloadKind::SpecWeb,
    ];
    let cells = vec![ExperimentCell::of_kinds(
        &mix,
        SchedulingPolicy::Affinity,
        SharingDegree::SharedBy(4),
    )];
    let refs = total_refs(&opts, &cells);

    let mut serial_runner = ExperimentRunner::new(opts.clone())
        .with_threads(1)
        .with_audit(flags.audit);
    let mut parallel_runner = ExperimentRunner::new(opts.clone()).with_audit(flags.audit);
    if let Some(session) = &session {
        serial_runner = serial_runner.with_sink(session.sink());
        parallel_runner = parallel_runner.with_sink(session.sink());
    }

    let t0 = Instant::now();
    serial_runner.run_cells(&cells).expect("serial batch");
    let serial_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    parallel_runner.run_cells(&cells).expect("parallel batch");
    let parallel_s = t1.elapsed().as_secs_f64();

    let serial_rps = refs as f64 / serial_s;
    let parallel_rps = refs as f64 / parallel_s;
    let speedup = serial_s / parallel_s;
    println!(
        "engine throughput: {refs} refs x {} seeds",
        opts.seeds.len()
    );
    println!("  serial:   {serial_s:8.2}s  {serial_rps:12.0} refs/sec");
    println!("  parallel: {parallel_s:8.2}s  {parallel_rps:12.0} refs/sec");
    println!("  speedup:  {speedup:8.2}x");

    let json = format!(
        "{{\n  \"benchmark\": \"engine_throughput\",\n  \"total_refs\": {refs},\n  \
         \"seeds\": {},\n  \"serial_seconds\": {serial_s:.4},\n  \
         \"parallel_seconds\": {parallel_s:.4},\n  \
         \"serial_refs_per_sec\": {serial_rps:.0},\n  \
         \"parallel_refs_per_sec\": {parallel_rps:.0},\n  \
         \"speedup\": {speedup:.3}\n}}\n",
        opts.seeds.len()
    );
    std::fs::write(&json_path, json)
        .unwrap_or_else(|e| panic!("write {}: {e}", json_path.display()));
    eprintln!("wrote {}", json_path.display());

    if let Some(session) = session {
        let path = session
            .finish(
                "throughput",
                digest_of(&opts),
                opts.seeds,
                LlcPartitioning::None.label(),
                parallel_runner.workers(),
                flags.audit,
            )
            .expect("write manifest.json");
        eprintln!("throughput: wrote {}", path.display());
    }
}
