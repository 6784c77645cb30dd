//! Demonstrates the job execution layer end to end, beyond what the
//! batch-oriented `ExperimentRunner` facade exercises: an *open-ended*
//! [`LiveQueue`] fed while workers run, time-sliced execution with several
//! simulations interleaved per worker, mid-queue cancellation, an injected
//! mid-run fault, and a resume that loses zero completed jobs — all while
//! every outcome stays bit-identical to a serial reference run.
//!
//! The workload is the Fig. 14 grid: the first heterogeneous mix under
//! round-robin scheduling on shared-4-way banks, with the LLC
//! unpartitioned, split equally, and split 8/4/2/2 — one job per
//! (partitioning scheme, seed).
//!
//! Run-length knobs: `CONSIM_REFS`, `CONSIM_WARMUP`, `CONSIM_SEEDS`.
//! `--resume <dir>` keeps the journal in a named directory (default: a
//! scratch directory wiped at start). Exits non-zero on any mismatch.

use consim::engine::{Simulation, SimulationConfig};
use consim::mix::Mix;
use consim_bench::cli::BenchFlags;
use consim_job::runner::RunOptions;
use consim_job::{
    CollectingSink, JobJournal, JobOutput, JobQueue, JobSource, LiveQueue, PoolConfig, ResultSink,
    WorkerPool,
};
use consim_sched::SchedulingPolicy::RoundRobin;
use consim_types::config::{LlcPartitioning, MachineConfig, SharingDegree};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// One (scheme, seed) job of the Fig. 14 grid.
fn job_config(scheme: &LlcPartitioning, seed: u64, options: &RunOptions) -> SimulationConfig {
    let mix = Mix::all_heterogeneous()
        .into_iter()
        .next()
        .expect("at least one heterogeneous mix");
    let machine = MachineConfig::paper_default()
        .with_llc_partitioning(scheme.clone())
        .with_sharing(SharingDegree::SharedBy(4));
    let mut b = SimulationConfig::builder();
    b.machine(machine)
        .policy(RoundRobin)
        .seed(seed)
        .refs_per_vm(options.refs_per_vm)
        .warmup_refs_per_vm(options.warmup_refs_per_vm);
    for kind in mix.instances() {
        b.workload(kind.profile());
    }
    b.build()
        .expect("the Fig. 14 grid is a valid configuration")
}

/// Runs the queue's jobs on a time-slicing pool and returns the pool
/// report plus the drained per-index results.
fn drain(
    queue: Arc<LiveQueue>,
    journal: &JobJournal,
    workers: usize,
    fault_after: Option<u64>,
    feed: impl FnOnce(&LiveQueue, &WorkerPool),
) -> (
    consim_job::PoolReport,
    BTreeMap<usize, Result<JobOutput, consim_types::SimError>>,
) {
    let sink = Arc::new(CollectingSink::new());
    let pool = WorkerPool::start(
        PoolConfig {
            workers,
            // Aggressively small slices: each worker interleaves two live
            // simulations, pausing and resuming them mid-run — the
            // schedule the determinism argument says is invisible.
            time_slice: Some(2_000),
            max_live: 2,
            checkpoint_every: None,
            fault_after,
        },
        Arc::clone(&queue) as Arc<dyn JobQueue>,
        Arc::clone(&sink) as Arc<dyn ResultSink>,
        Some(journal.clone()),
        None,
    );
    feed(&queue, &pool);
    queue.close();
    let report = pool.join();
    (report, sink.take())
}

fn main() {
    let flags = BenchFlags::from_env("jobs");
    let options = RunOptions::quick().from_env();

    let scratch = flags.resume_dir.is_none();
    let journal_dir: PathBuf = flags.resume_dir.clone().unwrap_or_else(|| {
        let dir = std::env::temp_dir().join(format!("consim-jobs-demo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    });
    let journal = JobJournal::open(&journal_dir).expect("open journal");

    let schemes: [(&str, LlcPartitioning); 3] = [
        ("none", LlcPartitioning::None),
        ("equal", LlcPartitioning::EqualWays),
        ("8/4/2/2", LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2])),
    ];
    let mut grid: Vec<(usize, SimulationConfig)> = Vec::new();
    for (si, (_, scheme)) in schemes.iter().enumerate() {
        for &seed in &options.seeds {
            grid.push((si, job_config(scheme, seed, &options)));
        }
    }
    // Trip the fault roughly halfway through so the resume phase always
    // has both journaled jobs to load and missing jobs to run.
    let fault_after = (grid.len() as u64 / 2).max(1);

    // Serial reference: the exact outcomes the pooled runs must reproduce.
    // Debug formatting round-trips every counter and float, so string
    // equality below is bit-for-bit outcome equality.
    eprintln!("jobs: serial reference ({} jobs)...", grid.len());
    let reference: Vec<String> = grid
        .iter()
        .map(|(_, cfg)| {
            let outcome = Simulation::new(cfg.clone())
                .and_then(Simulation::run)
                .expect("serial reference run");
            format!("{outcome:?}")
        })
        .collect();

    // Phase A: open-ended queue, one cancelled job, and a fault injected
    // after `fault_after` completions. In-flight jobs finish and journal;
    // the rest of the queue is dropped.
    eprintln!("jobs: phase A — live queue, cancellation, fault after {fault_after} jobs");
    let queue_a = Arc::new(LiveQueue::new());
    let grid_a = grid.clone();
    let mut victim_options = options.clone();
    victim_options.refs_per_vm = options.refs_per_vm.saturating_mul(200);
    victim_options.warmup_refs_per_vm = options.warmup_refs_per_vm.saturating_mul(200);
    let victim_cfg = job_config(&LlcPartitioning::None, 999, &victim_options);
    // One worker interleaving two live simulations: in-flight work at the
    // moment the fault trips is bounded, so the resume phase always has
    // jobs left to prove itself on.
    let (report_a, mut results_a) = drain(Arc::clone(&queue_a), &journal, 1, Some(fault_after), {
        let queue = Arc::clone(&queue_a);
        move |_, pool| {
            // The victim goes in first with a 200x quota, gets cancelled
            // right away, and must neither complete nor block the rest.
            let victim = queue.push(usize::MAX, victim_cfg).expect("queue open");
            pool.cancel(victim);
            for (si, cfg) in grid_a {
                queue.push(si, cfg).expect("queue open");
            }
        }
    });
    assert!(report_a.faulted, "phase A must trip the injected fault");
    assert!(
        matches!(results_a.remove(&0), Some(Ok(JobOutput::Cancelled))),
        "the victim must report Cancelled"
    );
    let journaled = journal.completed().expect("list journal").len() as u64;
    assert_eq!(
        journaled, report_a.simulated,
        "every completed job must be journaled — zero lost jobs"
    );
    eprintln!(
        "jobs: phase A done — {} simulated, {} journaled, victim cancelled",
        report_a.simulated, journaled
    );

    // Phase B: resume. The same grid goes through a fresh queue; journaled
    // jobs load instead of re-simulating, the rest run now.
    eprintln!("jobs: phase B — resume from {}", journal_dir.display());
    let queue_b = Arc::new(LiveQueue::new());
    let grid_b = grid.clone();
    let (report_b, results_b) = drain(Arc::clone(&queue_b), &journal, 2, None, move |queue, _| {
        for (si, cfg) in grid_b {
            queue.push(si, cfg).expect("queue open");
        }
    });
    assert!(!report_b.faulted);
    let mut loaded = 0u64;
    let mut mismatches = 0usize;
    let mut runtimes: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for (index, (si, _)) in grid.iter().enumerate() {
        match results_b.get(&index) {
            Some(Ok(JobOutput::Completed { outcome, source })) => {
                if *source == JobSource::Journal {
                    loaded += 1;
                }
                if format!("{outcome:?}") != reference[index] {
                    eprintln!("jobs: MISMATCH on job {index} (scheme {})", schemes[*si].0);
                    mismatches += 1;
                }
                let mean = outcome
                    .vm_metrics
                    .iter()
                    .map(|m| m.runtime_cycles() as f64)
                    .sum::<f64>()
                    / outcome.vm_metrics.len().max(1) as f64;
                runtimes[*si].push(mean);
            }
            other => {
                eprintln!("jobs: job {index} did not complete: {other:?}");
                mismatches += 1;
            }
        }
    }
    assert_eq!(
        loaded, report_a.simulated,
        "phase B must load exactly phase A's completed jobs from the journal"
    );
    assert_eq!(
        report_a.simulated + report_b.simulated,
        grid.len() as u64,
        "across both phases every job simulates exactly once — zero lost, zero repeated"
    );
    if mismatches > 0 {
        eprintln!("jobs: FAIL — {mismatches} outcomes differ from the serial reference");
        std::process::exit(1);
    }

    println!("Fig 14 grid via the job layer (mean runtime, normalized to unpartitioned):");
    let base = runtimes[0].iter().sum::<f64>() / runtimes[0].len().max(1) as f64;
    for ((label, _), rts) in schemes.iter().zip(&runtimes) {
        let mean = rts.iter().sum::<f64>() / rts.len().max(1) as f64;
        println!("  {label:>8}: {:.4}", mean / base.max(1e-9));
    }
    println!(
        "jobs: PASS — {} jobs ({} resumed from journal, {} simulated after fault), \
         time-sliced x2 interleave, 1 cancelled, all bit-identical to serial",
        grid.len(),
        loaded,
        report_b.simulated
    );

    if scratch {
        std::fs::remove_dir_all(&journal_dir).ok();
    }
}
