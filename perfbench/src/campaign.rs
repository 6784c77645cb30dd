//! `campaign`: the users' paper-figure path. `figures::run_all` runs over
//! a `FigureContext` whose `ExperimentRunner` has two workers, at quotas
//! reduced from `FigureContext::figure_options()`, prewarm on, no journal,
//! and the benchmark seed as the simulation seed.
//!
//! Each campaign runs in a child process of the benchmark, so its figure
//! text can be captured and digested from the child's standard output,
//! and its CPU time and peak memory belong to that campaign alone.

use crate::report::{fnv1a, median, Report};
use crate::span::Tracer;
use crate::{procfs, DEFAULT_SEED};
use consim::persist;
use consim::SimulationConfig;
use consim_bench::{figures, FigureContext};
use consim_job::runner::{ExperimentRunner, RunOptions};
use consim_sched::SchedulingPolicy;
use consim_trace::{EventClass, TraceEvent, TraceSink};
use consim_types::config::{LlcPartitioning, MachineConfig, SharingDegree};
use consim_types::SimError;
use consim_workload::WorkloadKind;
use std::collections::{BTreeSet, HashSet};
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Measured references per VM (`figure_options()` uses 60k).
const REFS: u64 = 2_000;
/// Warmup references per VM (`figure_options()` uses 150k).
const WARMUP: u64 = 5_000;
/// Worker threads of the campaign's runner.
const WORKERS: usize = 2;
/// Times the set-up is repeated inside one campaign; its median is
/// reported, since one construction takes microseconds.
const SETUP_REPS: usize = 200;
/// Host seconds one campaign is expected to take; the campaign count is
/// `--seconds` divided by this.
const NOMINAL_CAMPAIGN_S: f64 = 7.0;
/// Digest of the figure text at [`DEFAULT_SEED`] and these quotas.
const EXPECTED_FIGURES: u64 = 0x051b_e7b2_5a5c_81ab;
/// Marks the child's result line after the figure text.
const MARK: &str = "@@campaign";

/// The campaign's run options.
fn options(seed: u64) -> RunOptions {
    RunOptions {
        refs_per_vm: REFS,
        warmup_refs_per_vm: WARMUP,
        seeds: vec![seed],
        ..FigureContext::figure_options()
    }
}

/// Every job configuration the campaign runs: the prefetched
/// `run_all_cells()` batch, Table II's footprint-tracking batch, then the
/// single-cell batches of Figs 14-16
/// (the first heterogeneous mix, round robin, shared-4-way, on
/// partitioned and churned machines).
///
/// # Errors
///
/// Returns the configuration error of the engine.
pub fn job_configs(seed: u64) -> Result<Vec<SimulationConfig>, SimError> {
    let opts = options(seed);
    let config = |machine: &MachineConfig,
                  kinds: &[WorkloadKind],
                  policy: SchedulingPolicy,
                  sharing: SharingDegree,
                  track_footprint: bool| {
        let mut b = SimulationConfig::builder();
        b.machine(machine.with_sharing(sharing))
            .policy(policy)
            .seed(seed)
            .refs_per_vm(opts.refs_per_vm)
            .warmup_refs_per_vm(opts.warmup_refs_per_vm)
            .track_footprint(track_footprint)
            .prewarm_llc(opts.prewarm_llc);
        for k in kinds {
            b.workload(k.profile());
        }
        b.build()
    };
    let paper = MachineConfig::paper_default();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for (kinds, policy, sharing) in figures::run_all_cells() {
        if seen.insert((kinds.clone(), policy, sharing.label())) {
            out.push(config(&paper, &kinds, policy, sharing, false)?);
        }
    }
    // Table II runs its own batch with footprint tracking on.
    for kind in WorkloadKind::PAPER_SET {
        out.push(config(
            &paper,
            &[kind],
            SchedulingPolicy::RoundRobin,
            SharingDegree::Private,
            true,
        )?);
    }
    let mix = consim::Mix::all_heterogeneous()[0].instances().to_vec();
    let machines = [
        // Fig 14.
        paper.with_llc_partitioning(LlcPartitioning::EqualWays),
        paper.with_llc_partitioning(LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2])),
        // Fig 15.
        paper.with_llc_partitioning(LlcPartitioning::EqualWays),
        paper.with_llc_partitioning(LlcPartitioning::ExplicitWays(vec![8, 4, 2, 2])),
        paper.with_llc_partitioning(crate::fig15_dynamic()),
        // Fig 16.
        paper.with_churn(crate::fig16_churn(mix.len(), 0)),
        paper.with_churn(crate::fig16_churn(mix.len(), 400)),
    ];
    for m in &machines {
        out.push(config(
            m,
            &mix,
            SchedulingPolicy::RoundRobin,
            SharingDegree::SharedBy(4),
            false,
        )?);
    }
    Ok(out)
}

/// Runner events, timestamped on receipt.
#[derive(Debug, Default)]
struct JobEvents {
    events: Mutex<Vec<(Instant, TraceEvent)>>,
}

impl TraceSink for JobEvents {
    fn record(&self, event: &TraceEvent) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("event list poisoned")
            .push((now, event.clone()));
    }

    fn wants(&self, class: EventClass) -> bool {
        class == EventClass::Runner
    }
}

/// One campaign, in the child process: prints the figure text, then one
/// result line of `key=value` fields.
///
/// # Errors
///
/// Returns the first engine error, or the I/O error reading `/proc/self`
/// or writing the spans.
pub fn child(seed: u64, spans: Option<&Path>) -> Result<(), SimError> {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(spans.is_some(), epoch);
    let events = Arc::new(JobEvents::default());
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut plan = None;
    tracer.span("bench.setup", |_| {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let runner = ExperimentRunner::new(options(seed))
                .with_threads(WORKERS)
                .with_sink(Arc::clone(&events) as Arc<dyn TraceSink>);
            let ctx = FigureContext::with_runner(runner);
            let cells = figures::run_all_cells();
            setup.push(t.elapsed().as_secs_f64());
            plan = Some((ctx, cells));
        }
    });
    let (ctx, cells) = plan.expect("set up at least once");
    let t0 = Instant::now();
    tracer.span("bench.prefetch", |_| ctx.prefetch(&cells))?;
    let t1 = Instant::now();
    tracer.span("bench.render", |_| figures::run_all(&ctx))?;
    let t2 = Instant::now();
    let proc =
        procfs::sample("self").map_err(|e| SimError::invariant(format!("/proc/self: {e}")))?;

    let events = std::mem::take(&mut *events.events.lock().expect("event list poisoned"));
    let mut job_ms = Vec::new();
    let (mut busy, mut capacity) = (0.0, 0.0);
    for (at, event) in &events {
        match event {
            TraceEvent::CellCompleted { wall_ms, .. } => {
                job_ms.push(*wall_ms);
                let start = *at - std::time::Duration::from_secs_f64(wall_ms / 1e3);
                let parent = tracer
                    .enclosing("bench.prefetch", *at)
                    .or_else(|| tracer.enclosing("bench.render", *at));
                tracer.record("job.cell", parent, (start.max(t0), *at), None);
            }
            TraceEvent::BatchCompleted {
                workers,
                wall_seconds,
                busy_seconds,
                ..
            } => {
                busy += busy_seconds;
                capacity += f64::from(*workers) * wall_seconds;
            }
            _ => {}
        }
    }
    if let Some(path) = spans {
        tracer
            .check_nesting()
            .map_err(SimError::invariant)
            .and_then(|()| {
                tracer
                    .write_jsonl(path)
                    .map_err(|e| SimError::invariant(format!("write {}: {e}", path.display())))
            })?;
    }
    let list = job_ms
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "{MARK} setup_s={:?} prefetch_s={:?} render_s={:?} cpu_s={:?} hwm_mib={:?} \
         utilization={:?} job_ms={list}",
        median(&setup),
        (t1 - t0).as_secs_f64(),
        (t2 - t1).as_secs_f64(),
        proc.cpu_s,
        proc.hwm_mib,
        busy / capacity.max(f64::MIN_POSITIVE),
    );
    let _ = out.flush();
    Ok(())
}

/// What the parent reads back from one campaign child.
#[derive(Debug, Clone, Default)]
struct Campaign {
    /// Digest of the figure text.
    figures: u64,
    /// Median set-up seconds.
    setup_s: f64,
    /// Host seconds of `prefetch(&run_all_cells())`.
    prefetch_s: f64,
    /// Host seconds of the rest of `run_all`.
    render_s: f64,
    /// CPU seconds of the child.
    cpu_s: f64,
    /// Peak resident MiB of the child.
    hwm_mib: f64,
    /// Pool busy time over workers x wall, across batches.
    utilization: f64,
    /// Busy milliseconds of every job.
    job_ms: Vec<f64>,
}

impl Campaign {
    /// Host seconds of prefetch + `run_all`.
    fn wall_s(&self) -> f64 {
        self.prefetch_s + self.render_s
    }
}

fn parse(stdout: &str) -> Option<Campaign> {
    let at = stdout.rfind(MARK)?;
    let mut c = Campaign {
        figures: fnv1a(&stdout.as_bytes()[..at]),
        ..Campaign::default()
    };
    for field in stdout[at + MARK.len()..].split_whitespace() {
        let (key, value) = field.split_once('=')?;
        let num = || value.parse::<f64>().ok();
        match key {
            "setup_s" => c.setup_s = num()?,
            "prefetch_s" => c.prefetch_s = num()?,
            "render_s" => c.render_s = num()?,
            "cpu_s" => c.cpu_s = num()?,
            "hwm_mib" => c.hwm_mib = num()?,
            "utilization" => c.utilization = num()?,
            "job_ms" => {
                c.job_ms = value
                    .split(',')
                    .filter(|v| !v.is_empty())
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .ok()?;
            }
            _ => return None,
        }
    }
    Some(c)
}

/// Runs one campaign in a child process of `exe`, or returns why it
/// failed or printed no result.
fn spawn(exe: &Path, seed: u64, spans: Option<&Path>) -> Result<Campaign, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["campaign-child", "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(path) = spans {
        cmd.arg("--spans").arg(path);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("campaign child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    parse(&text).ok_or_else(|| "campaign child printed no result line".to_owned())
}

/// Checks one campaign: the figure digest matches the recorded one at the
/// default seed, or the first campaign's elsewhere, and the pool ran every
/// job the campaign plans.
fn check(c: &Campaign, seed: u64, first: u64, jobs: usize, report: &mut Report) {
    let expected = if seed == DEFAULT_SEED {
        EXPECTED_FIGURES
    } else {
        first
    };
    report.check(c.figures == expected && c.job_ms.len() == jobs, || {
        format!(
            "campaign: figure digest {:016x}, expected {expected:016x}; {} jobs, planned {jobs}",
            c.figures,
            c.job_ms.len()
        )
    });
}

/// The untraced workload: `seconds / NOMINAL_CAMPAIGN_S` campaigns.
///
/// # Errors
///
/// Returns a description of the first campaign that failed to run.
pub fn run(exe: &Path, seed: u64, seconds: u64) -> Result<Report, String> {
    let campaigns = ((seconds as f64 / NOMINAL_CAMPAIGN_S).round() as usize).max(2);
    let configs = job_configs(seed).map_err(|e| e.to_string())?;
    let refs: u64 = configs
        .iter()
        .map(|c| (c.refs_per_vm + c.warmup_refs_per_vm) * c.workloads.len() as u64)
        .sum();
    let mut report = Report::default();
    let mut runs = Vec::new();
    for _ in 0..campaigns {
        let c = spawn(exe, seed, None)?;
        let first = runs.first().map_or(c.figures, |f: &Campaign| f.figures);
        check(&c, seed, first, configs.len(), &mut report);
        runs.push(c);
    }
    let per = |f: fn(&Campaign) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let latencies = runs.iter().flat_map(|c| c.job_ms.iter().copied()).collect();
    let jobs = configs.len() as f64;
    crate::end_to_end(
        &mut report,
        crate::EndToEnd {
            setup_s: per(|c| c.setup_s),
            wall_s: per(Campaign::wall_s),
            cpu_s: per(|c| c.cpu_s),
            peak_rss_mib: per(|c| c.hwm_mib),
            refs_per_s: median(
                &runs
                    .iter()
                    .map(|c| refs as f64 / c.wall_s())
                    .collect::<Vec<_>>(),
            ),
            latencies_ms: latencies,
            capacity_jobs_per_s: median(
                &runs.iter().map(|c| jobs / c.wall_s()).collect::<Vec<_>>(),
            ),
        },
    );
    Ok(report)
}

/// Per-layer view of the campaign: one untraced and one traced campaign.
///
/// # Errors
///
/// Returns a description of the first campaign that failed to run.
pub fn layers(exe: &Path, seed: u64, spans: &Path) -> Result<Report, String> {
    let configs = job_configs(seed).map_err(|e| e.to_string())?;
    let mut report = Report::default();
    let untraced = spawn(exe, seed, None)?;
    check(
        &untraced,
        seed,
        untraced.figures,
        configs.len(),
        &mut report,
    );
    let traced = spawn(exe, seed, Some(spans))?;
    check(&traced, seed, untraced.figures, configs.len(), &mut report);
    let keys: BTreeSet<u64> = configs.iter().map(persist::prewarm_key).collect();
    let jobs = traced.job_ms.len() as f64;
    let max = traced.job_ms.iter().copied().fold(0.0, f64::max);
    report.metric("bench.prefetch_s", traced.prefetch_s, "s");
    report.metric("bench.render_s", traced.render_s, "s");
    report.metric("job.jobs", jobs, "count");
    report.metric("job.worker_utilization", traced.utilization, "ratio");
    report.metric("job.job_ms_p50", median(&traced.job_ms), "ms");
    report.metric("job.job_ms_max", max, "ms");
    report.metric("job.prewarm_keys", keys.len() as f64, "count");
    report.metric(
        "job.prewarm_reuse_frac",
        (configs.len() - keys.len()) as f64 / configs.len() as f64,
        "ratio",
    );
    report.metric(
        "trace.campaign.overhead_frac",
        traced.wall_s() / untraced.wall_s() - 1.0,
        "ratio",
    );
    Ok(report)
}
