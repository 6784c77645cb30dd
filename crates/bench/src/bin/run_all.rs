//! Regenerates every paper exhibit in one invocation.
//!
//! All experiment cells are prefetched in one parallel batch across the
//! worker pool before any table is printed. Run-length knobs:
//! `CONSIM_REFS`, `CONSIM_WARMUP`, `CONSIM_SEEDS`; worker count:
//! `CONSIM_THREADS` (defaults to the machine's available parallelism).
//!
//! Observability flags: `--audit` cross-checks every simulation's counters
//! at end of run; `--trace <dir>` streams trace events to
//! `<dir>/events.jsonl` and writes `<dir>/manifest.json` on exit (see
//! `consim_bench::cli`).
//!
//! Crash recovery: `--resume <dir>` journals every completed cell into
//! `<dir>` and, on a later invocation, loads journaled cells instead of
//! re-simulating them; `--checkpoint-every <accesses>` additionally
//! snapshots in-flight cells so a crash loses at most that much work.
//! Resumed runs are bit-identical to uninterrupted ones.
//! `CONSIM_FAULT=cell:K` aborts the batch after `K` completed cells (for
//! recovery tests). A `--trace`/`--resume` directory left by a run with a
//! different configuration digest is refused rather than clobbered.

use consim_bench::{cli, cli::BenchFlags, figures, FigureContext};
use consim_job::runner::ExperimentRunner;
use consim_trace::digest_of;
use consim_types::config::LlcPartitioning;
use std::time::Instant;

fn main() {
    let flags = BenchFlags::from_env("run_all");
    let options = FigureContext::figure_options();
    let digest = digest_of(&options);
    for dir in [&flags.trace_dir, &flags.resume_dir].into_iter().flatten() {
        if let Err(msg) = cli::guard_manifest_digest(dir, &digest) {
            eprintln!("run_all: {msg}");
            std::process::exit(2);
        }
    }
    let fault = match cli::fault_from_env() {
        Ok(fault) => fault,
        Err(msg) => {
            eprintln!("run_all: {msg}");
            std::process::exit(2);
        }
    };
    let session = flags.trace_session().expect("open trace directory");
    let mut runner = ExperimentRunner::new(options.clone()).with_audit(flags.audit);
    if let Some(session) = &session {
        runner = runner.with_sink(session.sink());
    }
    if let Some(dir) = &flags.resume_dir {
        runner = runner.with_journal(dir.clone());
    }
    if let Some(every) = flags.checkpoint_every {
        runner = runner.with_checkpoint_every(every);
    }
    if let Some(after) = fault {
        runner = runner.with_fault_after(after);
    }

    let started = Instant::now();
    let ctx = FigureContext::with_runner(runner);
    if let Err(err) = figures::run_all(&ctx) {
        // An injected fault (or a real failure) is an orderly exit, not a
        // panic: completed cells are already journaled, so a later
        // `--resume` invocation picks up exactly where this one stopped.
        eprintln!("run_all: {err}");
        std::process::exit(1);
    }
    eprintln!(
        "run_all: {} cells in {:.1}s",
        ctx.cached_cells(),
        started.elapsed().as_secs_f64()
    );

    if let Some(mut session) = session {
        if let Some(dir) = &flags.resume_dir {
            session.note_journal(dir);
        }
        let path = session
            .finish(
                "run_all",
                digest,
                options.seeds,
                LlcPartitioning::None.label(),
                ctx.runner().workers(),
                flags.audit,
            )
            .expect("write manifest.json");
        eprintln!("run_all: wrote {}", path.display());
    }
}
