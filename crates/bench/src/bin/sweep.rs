//! Calibration sweep: searches workload-profile knobs so the engine's
//! Table II statistics approach the paper's targets.
//!
//! Accepts the shared observability flags: `--audit` enables the counter
//! audit on every candidate run; `--trace <dir>` records trace events and
//! a run manifest (see `consim_bench::cli`).

use consim_bench::cli::BenchFlags;
use consim_job::runner::{ExperimentCell, ExperimentRunner, MixRun, RunOptions};
use consim_sched::SchedulingPolicy;
use consim_trace::digest_of;
use consim_types::config::{LlcPartitioning, SharingDegree};
use consim_workload::{WorkloadKind, WorkloadProfile};

fn extract(run: &MixRun) -> (f64, f64, f64) {
    let v = &run.vms[0];
    (
        v.c2c_of_hierarchy_misses.mean,
        v.c2c_dirty_fraction.mean,
        v.llc_miss_rate.mean,
    )
}

fn main() {
    let flags = BenchFlags::from_env("sweep");
    let session = flags.trace_session().expect("open trace directory");
    let options = RunOptions {
        refs_per_vm: 50_000,
        warmup_refs_per_vm: 30_000,
        seeds: vec![1],
        track_footprint: false,
        prewarm_llc: false,
    }
    .from_env();
    let mut runner = ExperimentRunner::new(options.clone()).with_audit(flags.audit);
    if let Some(session) = &session {
        runner = runner.with_sink(session.sink());
    }
    let which: Vec<WorkloadKind> = match flags.rest.first().map(String::as_str) {
        Some("tpcw") => vec![WorkloadKind::TpcW],
        Some("jbb") => vec![WorkloadKind::SpecJbb],
        Some("tpch") => vec![WorkloadKind::TpcH],
        Some("web") => vec![WorkloadKind::SpecWeb],
        _ => WorkloadKind::PAPER_SET.to_vec(),
    };
    for kind in &which {
        let base = kind.profile();
        let t = base.paper_targets.unwrap();
        println!(
            "== {} target c2c={:.0}% dirty={:.0}% ==",
            kind,
            t.c2c_fraction * 100.0,
            t.dirty_fraction * 100.0
        );
        // Enumerate every candidate, then simulate the whole grid in one
        // parallel batch; candidates are scored in submission order, so
        // the printed search trace is identical to the old serial sweep.
        let mut candidates: Vec<WorkloadProfile> = Vec::new();
        for sz in [0.80f64, 0.88, 0.93] {
            for pz in [0.70f64, 0.85, 0.93] {
                for sa in [-0.1, 0.0, 0.12] {
                    for sw in [0.6, 1.0, 1.6] {
                        let mut p = base.clone();
                        p.shared_zipf = sz.min(0.98);
                        p.private_zipf = pz.min(0.98);
                        p.shared_access_prob = (p.shared_access_prob + sa).clamp(0.05, 0.95);
                        p.shared_write_prob = (p.shared_write_prob * sw).clamp(0.0, 0.9);
                        candidates.push(p);
                    }
                }
            }
        }
        let cells: Vec<ExperimentCell> = candidates
            .iter()
            .map(|p| {
                ExperimentCell::new(
                    vec![p.clone()],
                    SchedulingPolicy::RoundRobin,
                    SharingDegree::Private,
                )
            })
            .collect();
        let runs = runner.run_cells(&cells).expect("sweep batch");
        let mut best: Option<(f64, String)> = None;
        for (p, run) in candidates.iter().zip(&runs) {
            let (c2c, dirty, miss) = extract(run);
            let score = (c2c - t.c2c_fraction).abs() * 2.0 + (dirty - t.dirty_fraction).abs();
            let line = format!(
                "sz={:.2} pz={:.2} sa={:.2} sw={:.3} -> c2c={:5.1}% dirty={:5.1}% miss={:5.1}%",
                p.shared_zipf,
                p.private_zipf,
                p.shared_access_prob,
                p.shared_write_prob,
                c2c * 100.0,
                dirty * 100.0,
                miss * 100.0
            );
            if best.as_ref().map(|(s, _)| score < *s).unwrap_or(true) {
                println!("  BEST {score:.3} {line}");
                best = Some((score, line));
            }
        }
    }
    if let Some(session) = session {
        let path = session
            .finish(
                "sweep",
                digest_of(&(&options, &which)),
                options.seeds,
                LlcPartitioning::None.label(),
                runner.workers(),
                flags.audit,
            )
            .expect("write manifest.json");
        eprintln!("sweep: wrote {}", path.display());
    }
}
