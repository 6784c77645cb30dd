//! Golden snapshot tests for the paper's figure tables.
//!
//! Each figure function renders to a plain-text table; this test pins the
//! exact output for a small fixed configuration (refs, warmup, seed all
//! hard-coded — deliberately *not* reading `CONSIM_REFS` etc., so the
//! snapshots don't drift with the environment). Any change to workload
//! generation, the engine's protocol walk, the statistics pipeline, or
//! table formatting shows up as a readable text diff against
//! `tests/golden/`.
//!
//! To bless new output after an intentional behavior change:
//!
//! ```text
//! CONSIM_BLESS=1 cargo test --test golden_figures
//! git diff tests/golden/   # review every diff before committing
//! ```

use consim_bench::figures;
use consim_bench::FigureContext;
use consim_job::runner::RunOptions;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Small fixed run: big enough that every figure has signal (cache
/// pressure, sharing, migrations), small enough to run in CI.
fn golden_options() -> RunOptions {
    RunOptions {
        refs_per_vm: 1_500,
        warmup_refs_per_vm: 400,
        seeds: vec![1],
        track_footprint: false,
        prewarm_llc: true,
    }
}

fn golden_context() -> FigureContext {
    FigureContext::new(golden_options())
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn bless_requested() -> bool {
    std::env::var("CONSIM_BLESS").is_ok_and(|v| v.trim() == "1")
}

/// Renders every exhibit in `run_all` order, paired with its golden name.
fn render_all(ctx: &FigureContext) -> Vec<(&'static str, String)> {
    let mut rendered = vec![("table4", figures::table4())];
    for (name, render) in figures::EXHIBITS {
        rendered.push((name, render(ctx).unwrap().to_string()));
    }
    rendered
}

/// Compares each rendered exhibit with its golden file; returns a
/// readable report of every mismatch (empty when all match).
fn golden_mismatches(figures: &[(&str, String)]) -> String {
    let dir = golden_dir();
    let mut report = String::new();
    for (name, rendered) in figures {
        let path = dir.join(format!("{name}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == *rendered => {}
            Ok(expected) => {
                let _ = writeln!(
                    report,
                    "--- {name}: output differs from {} ---\nexpected:\n{expected}\nactual:\n{rendered}",
                    path.display()
                );
            }
            Err(e) => {
                let _ = writeln!(
                    report,
                    "--- {name}: cannot read {}: {e} ---",
                    path.display()
                );
            }
        }
    }
    report
}

#[test]
fn figures_match_golden_snapshots() {
    // Rendered lazily in order; the shared context memoizes simulation
    // cells, so overlapping figures (5/6/7, 8/9/10) reuse each other's runs.
    let figures = render_all(&golden_context());

    if bless_requested() {
        let dir = golden_dir();
        std::fs::create_dir_all(&dir).unwrap();
        for (name, rendered) in &figures {
            std::fs::write(dir.join(format!("{name}.txt")), rendered).unwrap();
        }
        return;
    }

    let report = golden_mismatches(&figures);
    assert!(
        report.is_empty(),
        "golden snapshots differ; if intentional, re-bless with \
         `CONSIM_BLESS=1 cargo test --test golden_figures` and review the diff\n{report}"
    );
}

/// The `run_all` path: prefetch every cell of
/// [`figures::run_all_cells`] in one parallel batch, then render. The
/// output must match the same goldens as the lazy render, and rendering
/// must not simulate a single memoized cell the prefetch missed.
#[test]
fn prefetched_render_matches_golden_snapshots() {
    if bless_requested() {
        // Blessed by `figures_match_golden_snapshots`.
        return;
    }
    let ctx = golden_context();
    ctx.prefetch(&figures::run_all_cells()).unwrap();
    let prefetched = ctx.cached_cells();
    let figures = render_all(&ctx);
    assert_eq!(
        ctx.cached_cells(),
        prefetched,
        "rendering simulated cells that run_all_cells does not list"
    );
    let report = golden_mismatches(&figures);
    assert!(report.is_empty(), "prefetched render differs\n{report}");
}

/// Checkpoint→resume pins to the *same* goldens: a figure rendered from a
/// journal left behind by a faulted, checkpointing run and completed by a
/// resumed invocation must match `tests/golden/fig12_replication.txt`
/// byte-for-byte. Any seam in the checkpoint/restore path — a counter
/// lost, an RNG stream replayed, a cache line misplaced — shows up as a
/// readable text diff against the blessed snapshot.
#[test]
fn resumed_render_matches_golden_snapshot() {
    use consim_job::runner::ExperimentRunner;

    if bless_requested() {
        // The snapshot is blessed by `figures_match_golden_snapshots`;
        // don't race its writes within the same process.
        return;
    }

    let dir = std::env::temp_dir().join(format!("consim-golden-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // First invocation: crash (via fault injection) after one completed
    // cell, with mid-cell checkpointing on.
    let faulted = FigureContext::with_runner(
        ExperimentRunner::new(golden_options())
            .with_journal(&dir)
            .with_checkpoint_every(300)
            .with_fault_after(1),
    );
    assert!(
        figures::fig12_replication(&faulted).is_err(),
        "fault injection must abort the first render"
    );

    // Second invocation: resume from the journal and render.
    let resumed =
        FigureContext::with_runner(ExperimentRunner::new(golden_options()).with_journal(&dir));
    let rendered = figures::fig12_replication(&resumed).unwrap().to_string();
    let golden =
        std::fs::read_to_string(golden_dir().join("fig12_replication.txt")).expect("golden exists");
    assert_eq!(
        rendered, golden,
        "resumed render differs from the golden snapshot"
    );
    std::fs::remove_dir_all(&dir).ok();
}
