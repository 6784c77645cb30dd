//! `serve-open`: the `consim-serve` daemon as a child process with its
//! default settings (two workers, 2,000-access slices, a checkpoint after
//! every slice) over a fresh journal. Connection 1 submits a seeded
//! population of 1-4 VM what-if jobs as an open loop at a fixed rate;
//! connection 2 polls `Status`. A second phase submits a burst of further
//! distinct jobs back-to-back. Every completed outcome is compared byte
//! for byte with an in-process `Simulation::run` of the same
//! configuration, computed after the timed region.

use crate::report::{median, tail, Report};
use crate::span::Tracer;
use crate::{end_to_end, procfs, EndToEnd};
use consim::{persist, Simulation, SimulationConfig};
use consim_sched::SchedulingPolicy;
use consim_serve::client::Client;
use consim_serve::net::Endpoint;
use consim_serve::proto::JobState;
use consim_types::config::{MachineConfig, SharingDegree};
use consim_types::SimRng;
use consim_workload::WorkloadKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Open-loop arrival rate in jobs per second: a constant, well below
/// what the daemon completes on two workers.
const RATE: f64 = 4.0;
/// Share of `--seconds` the open-loop schedule spans.
const OPEN_SHARE: f64 = 0.65;
/// Burst jobs per open-loop job: the burst then lasts about 7 s.
const BURST_SHARE: f64 = 4.0;
/// Daemon start-ups before the timed region and again after the reference
/// check; the median of all of them is reported. Start-ups take
/// milliseconds and their level drifts with the host, so they are spread
/// over the run.
const SETUP_REPS: usize = 16;
/// Pause between two polling rounds.
const POLL_INTERVAL: Duration = Duration::from_millis(1);
/// Outstanding jobs one polling round asks about, oldest first, so the
/// poller's load stays small beside the daemon's during the burst.
const POLL_BATCH: usize = 8;
/// Slack beyond the open-loop schedule and the burst's expected length
/// before a run that has not settled counts the rest as lost.
const SETTLE_MARGIN: Duration = Duration::from_secs(60);
/// References per second the burst is allowed to run at before the
/// settle limit: a fifth of what the daemon sustains on two workers.
const SLOWEST_REFS_PER_S: f64 = 20_000.0;
/// Zipf ranks of job sizes, and their skew.
const SIZE_RANKS: u64 = 8;
const SIZE_THETA: f64 = 0.9;

/// One planned job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The configuration submitted.
    pub config: SimulationConfig,
    /// Offset of its scheduled send from the start of the open loop
    /// (burst jobs are sent back-to-back instead).
    pub at: Duration,
    /// Whether it belongs to the burst phase.
    pub burst: bool,
}

impl Job {
    /// Simulated references its quotas ask for.
    pub fn refs(&self) -> u64 {
        (self.config.refs_per_vm + self.config.warmup_refs_per_vm)
            * self.config.workloads.len() as u64
    }
}

/// Quantile `u` of the size Zipf: rank `floor(n * u^(1/(1-theta)))`, the
/// law `ZipfSampler::sample` draws from.
fn size_rank(u: f64) -> u64 {
    let r = (SIZE_RANKS as f64 * u.powf(1.0 / (1.0 - SIZE_THETA))) as u64;
    r.min(SIZE_RANKS - 1)
}

/// Plans `count` jobs. The population is fixed: job `i` has `1 + i % 4`
/// VMs running the Table II workloads in turn, a size (warmup + measured
/// accesses over all VMs) at the `i`-th quantile of the Zipf size law,
/// and a sharing degree and policy in turn. So every seed gets the same
/// work. The seed shuffles the order of the jobs and of the exponential
/// arrival gaps (also at fixed quantiles), and seeds each simulation;
/// `salt` keeps the simulation seeds of two phases apart.
fn plan_phase(seed: u64, salt: u64, count: usize, burst: bool) -> Result<Vec<Job>, String> {
    let mut rng = SimRng::from_seed(seed).derive_parts("perfbench/serve-open", &[salt]);
    let sharings = [
        SharingDegree::Private,
        SharingDegree::SharedBy(2),
        SharingDegree::SharedBy(4),
        SharingDegree::SharedBy(8),
        SharingDegree::FullyShared,
    ];
    let policies = [
        SchedulingPolicy::RoundRobin,
        SchedulingPolicy::Affinity,
        SchedulingPolicy::RrAffinity,
    ];
    let kinds = WorkloadKind::PAPER_SET;
    let mut order: Vec<usize> = (0..count).collect();
    rng.shuffle(&mut order);
    // Poisson arrivals whose schedule spans the same time for every seed.
    let mut gaps: Vec<f64> = (0..count)
        .map(|i| -(1.0 - (i as f64 + 0.5) / count as f64).ln() / RATE)
        .collect();
    rng.shuffle(&mut gaps);
    let mut at = 0.0;
    let mut jobs = Vec::with_capacity(count);
    for (n, i) in order.into_iter().enumerate() {
        // Accesses per job, whatever its VM count. Every job spans exactly
        // two slices, so it writes one checkpoint, a new file. Later
        // checkpoints rename over the first, which ext4 starts writing to
        // disk at once; with them the open-loop p50 followed the disk
        // rather than the daemon's CPU, and the burst's length spread
        // more. A slice also counts the references of VMs that met their
        // quota and keep running: up to 1.4 times the quotas over 60
        // seeds. So jobs stay within 2,100-2,660 accesses, over one slice
        // and under two even then.
        let vms = 1 + i % 4;
        let rank = size_rank((i as f64 + 0.5) / count as f64);
        let accesses = 2_100 + 80 * rank;
        let refs = accesses * 4 / (5 * vms as u64);
        let mut b = SimulationConfig::builder();
        b.machine(MachineConfig::paper_default().with_sharing(sharings[i % sharings.len()]))
            .policy(policies[i % policies.len()])
            .refs_per_vm(refs)
            .warmup_refs_per_vm(refs / 4)
            .seed(rng.next_u64() ^ salt);
        for vm in 0..vms {
            b.workload(kinds[(i + vm) % kinds.len()].profile());
        }
        let config = b.build().map_err(|e| e.to_string())?;
        jobs.push(Job {
            config,
            at: Duration::from_secs_f64(at),
            burst,
        });
        at += gaps[n];
    }
    Ok(jobs)
}

/// How long after the start of the open loop `jobs` may take to settle:
/// the open-loop schedule, the burst's references at
/// [`SLOWEST_REFS_PER_S`], and [`SETTLE_MARGIN`]. About 110 s at
/// `--seconds 30`; it grows with the run length.
fn settle_limit(jobs: &[Job]) -> Duration {
    let schedule = jobs
        .iter()
        .filter(|j| !j.burst)
        .map(|j| j.at)
        .max()
        .unwrap_or_default();
    let burst_refs: u64 = jobs.iter().filter(|j| j.burst).map(Job::refs).sum();
    schedule + Duration::from_secs_f64(burst_refs as f64 / SLOWEST_REFS_PER_S) + SETTLE_MARGIN
}

/// The open-loop jobs, then the burst, for a run of `seconds`.
///
/// # Errors
///
/// Returns the configuration error of a planned job.
pub fn plan(seed: u64, seconds: f64) -> Result<Vec<Job>, String> {
    let open = ((seconds * OPEN_SHARE * RATE).round() as usize).max(20);
    let burst = (open as f64 * BURST_SHARE).round() as usize;
    let mut jobs = plan_phase(seed, 0, open, false)?;
    jobs.extend(plan_phase(seed, 1, burst, true)?);
    Ok(jobs)
}

/// A running daemon.
struct Daemon {
    child: Child,
    endpoint: Endpoint,
    pid: String,
}

impl Daemon {
    /// Starts the daemon over a fresh journal in `dir` and waits until it
    /// answers a `Ping`; returns it with the seconds that took.
    fn start(bin: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let port = dir.join("endpoint");
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--journal")
            .arg(dir.join("journal"))
            .arg("--port-file")
            .arg(&port)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let endpoint = loop {
            if let Some(ep) = std::fs::read_to_string(&port)
                .ok()
                .and_then(|s| s.trim().parse::<Endpoint>().ok())
            {
                break ep;
            }
            if matches!(child.try_wait(), Ok(Some(_))) || start.elapsed() > Duration::from_secs(20)
            {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not come up".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let pid = child.id().to_string();
        let daemon = Daemon {
            child,
            endpoint,
            pid,
        };
        let pinged = Client::connect(&daemon.endpoint).and_then(|mut c| c.ping());
        let setup = start.elapsed().as_secs_f64();
        pinged.map_err(|e| format!("daemon ping: {e}"))?;
        Ok((daemon, setup))
    }
}

impl Drop for Daemon {
    /// Asks the daemon to exit and waits for it; kills it if it lingers.
    /// Errors are ignored: the process is gone either way.
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.endpoint) {
            let _ = c.set_timeout(Some(Duration::from_secs(5)));
            let _ = c.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A submitted job awaiting its result.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    job: usize,
    digest: u64,
}

/// How a submitted job ended.
#[derive(Debug, Clone)]
enum Settled {
    Completed { at: Instant, bytes: Vec<u8> },
    Failed(String),
}

#[derive(Debug, Default)]
struct Shared {
    outstanding: Vec<Outstanding>,
    settled: HashMap<usize, Settled>,
    submitting: bool,
}

/// A host-time interval measured on a client thread, recorded as a span
/// once the thread is joined.
type Timed = (&'static str, Instant, Instant, u64);

/// What one pass of the open loop and burst measured.
#[derive(Debug, Default)]
struct Pass {
    setup_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    burst_s: f64,
    burst_refs: u64,
    burst_jobs: usize,
    daemon: procfs::ProcSample,
    daemon_cpu_s: f64,
    daemon_write_mib: f64,
    late_ms_max: f64,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    polls: u64,
    backlog_max: usize,
    refused: u64,
    failed: u64,
    mismatched: u64,
    new_ms: Vec<f64>,
}

/// Runs one pass: daemon start-ups, the open loop, the burst, then the
/// reference check. Spans go to `tracer`.
fn pass(
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Pass, Report), String> {
    let jobs = plan(seed, seconds)?;
    let mut p = Pass::default();
    let mut report = Report::default();
    startups(bin, dir, &mut p.setup_s)?;
    let (daemon, _) = Daemon::start(bin, &dir.join("daemon"))?;
    let result = tracer.span("serve.run", |tracer| drive(&daemon, &jobs, &mut p, tracer));
    drop(daemon);
    let settled = result?;

    // References, after the timed region, on two threads.
    let completed: Vec<(usize, &Vec<u8>)> = settled
        .iter()
        .filter_map(|(&j, s)| match s {
            Settled::Completed { bytes, .. } => Some((j, bytes)),
            Settled::Failed(_) => None,
        })
        .collect();
    let checks: Vec<(usize, bool, f64)> = std::thread::scope(|scope| {
        let halves: Vec<_> = completed
            .chunks(completed.len().div_ceil(2).max(1))
            .map(|chunk| {
                let jobs = &jobs;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(j, bytes)| {
                            let t = Instant::now();
                            let sim = Simulation::new(jobs[j].config.clone());
                            let new_ms = t.elapsed().as_secs_f64() * 1e3;
                            let same = sim
                                .and_then(Simulation::run)
                                .and_then(|o| persist::outcome_to_bytes(&o))
                                .is_ok_and(|reference| &reference == bytes);
                            (j, same, new_ms)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    for (_, same, new_ms) in &checks {
        p.new_ms.push(*new_ms);
        if !same {
            p.mismatched += 1;
        }
    }
    for (j, job) in jobs.iter().enumerate() {
        let outcome = settled.get(&j);
        let matched = checks.iter().any(|&(c, same, _)| c == j && same);
        report.check(matched, || match outcome {
            None => format!("serve-open job {j}: lost"),
            Some(Settled::Failed(why)) => format!("serve-open job {j}: {why}"),
            Some(Settled::Completed { .. }) => format!(
                "serve-open job {j}: outcome differs from in-process run ({} VMs)",
                job.config.workloads.len()
            ),
        });
    }
    // The second half of the start-ups, seconds after the burst's disk
    // writes.
    startups(bin, dir, &mut p.setup_s)?;
    let _ = std::fs::remove_dir_all(dir);
    // Refusals settle as failures too; count them once, as refusals.
    let failures = settled
        .values()
        .filter(|s| matches!(s, Settled::Failed(_)))
        .count() as u64;
    p.failed = failures - p.refused;
    Ok((p, report))
}

/// Starts and stops [`SETUP_REPS`] daemons over fresh journals, recording
/// the seconds from spawn to the first answered `Ping`.
fn startups(bin: &Path, dir: &Path, setup_s: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let (daemon, s) = Daemon::start(bin, &dir.join("setup"))?;
        setup_s.push(s);
        drop(daemon);
    }
    Ok(())
}

/// The timed region: open loop on connection 1 with polling on
/// connection 2, then the burst. Returns how every job settled.
fn drive(
    daemon: &Daemon,
    jobs: &[Job],
    p: &mut Pass,
    tracer: &mut Tracer,
) -> Result<HashMap<usize, Settled>, String> {
    let connect = || {
        Client::connect(&daemon.endpoint)
            .and_then(|c| c.set_timeout(Some(Duration::from_secs(30))).map(|()| c))
            .map_err(|e| format!("connect: {e}"))
    };
    let (mut submitter, mut poller) = (connect()?, connect()?);
    let before = procfs::sample(&daemon.pid).map_err(|e| format!("daemon /proc: {e}"))?;
    let shared = Arc::new((
        Mutex::new(Shared {
            submitting: true,
            ..Shared::default()
        }),
        Condvar::new(),
    ));
    let started = Instant::now();
    let deadline = started + settle_limit(jobs);
    let (sub, poll) = std::thread::scope(|scope| {
        let s = Arc::clone(&shared);
        let sub = scope.spawn(move || submit_all(&mut submitter, jobs, started, deadline, &s));
        let s = Arc::clone(&shared);
        let poll = scope.spawn(move || poll_all(&mut poller, deadline, &s));
        (
            sub.join().expect("submitter panicked"),
            poll.join().expect("poller panicked"),
        )
    });
    let after = procfs::sample(&daemon.pid).map_err(|e| format!("daemon /proc: {e}"))?;
    p.daemon = after;
    p.daemon_cpu_s = after.cpu_s - before.cpu_s;
    // Not finite, so the traced run reads incorrect, when `/proc/<pid>/io`
    // could not be read.
    p.daemon_write_mib = match (before.wchar, after.wchar) {
        (Some(b), Some(a)) => (a - b) as f64 / (1024.0 * 1024.0),
        _ => f64::NAN,
    };
    let (sends, submit_spans, refused) = sub;
    let (polls, backlog_max, status_spans) = poll;
    p.polls = polls;
    p.backlog_max = backlog_max;
    p.refused = refused;
    let mut settled = std::mem::take(&mut shared.0.lock().expect("state poisoned").settled);
    // Lost jobs: sent but never settled.
    for (j, _) in sends.iter().enumerate().filter(|(_, s)| s.is_some()) {
        settled
            .entry(j)
            .or_insert_with(|| Settled::Failed("no result before the settle limit".into()));
    }
    let parent = tracer.current();
    for &(name, start, end, digest) in submit_spans.iter().chain(&status_spans) {
        tracer.record(name, parent, (start, end), Some(digest));
    }
    let mut burst_first = None;
    let mut burst_last = None;
    for (j, send) in sends.iter().enumerate() {
        let (Some((scheduled, sent, digest)), Some(Settled::Completed { at, .. })) =
            (send, settled.get(&j))
        else {
            continue;
        };
        tracer.record("serve.job", parent, (*scheduled, *at), Some(*digest));
        if jobs[j].burst {
            burst_first = Some(burst_first.map_or(*sent, |f: Instant| f.min(*sent)));
            burst_last = Some(burst_last.map_or(*at, |l: Instant| l.max(*at)));
            p.burst_refs += jobs[j].refs();
            p.burst_jobs += 1;
        } else {
            p.latencies_ms.push((*at - *scheduled).as_secs_f64() * 1e3);
            p.late_ms_max = p.late_ms_max.max((*sent - *scheduled).as_secs_f64() * 1e3);
        }
    }
    if let (Some(first), Some(last)) = (burst_first, burst_last) {
        p.burst_s = (last - first).as_secs_f64();
    }
    p.submit_ms = submit_spans
        .iter()
        .map(|s| (s.2 - s.1).as_secs_f64() * 1e3)
        .collect();
    p.status_ms = status_spans
        .iter()
        .map(|s| (s.2 - s.1).as_secs_f64() * 1e3)
        .collect();
    Ok(settled)
}

/// Per job: (scheduled send, actual send, digest) once submitted.
type Sends = Vec<Option<(Instant, Instant, u64)>>;

/// Connection 1: the open loop on its schedule, a wait until its backlog
/// has drained (or `deadline` passed), then the burst back-to-back.
fn submit_all(
    client: &mut Client,
    jobs: &[Job],
    started: Instant,
    deadline: Instant,
    shared: &(Mutex<Shared>, Condvar),
) -> (Sends, Vec<Timed>, u64) {
    let (lock, cv) = shared;
    let mut sends: Sends = vec![None; jobs.len()];
    let mut spans = Vec::new();
    let mut refused = 0;
    let mut burst_started = false;
    for (j, job) in jobs.iter().enumerate() {
        if job.burst && !burst_started {
            burst_started = true;
            let mut state = lock.lock().expect("state poisoned");
            while !state.outstanding.is_empty() && Instant::now() < deadline {
                state = cv
                    .wait_timeout(state, Duration::from_millis(50))
                    .expect("state poisoned")
                    .0;
            }
        }
        let scheduled = if job.burst {
            Instant::now()
        } else {
            let due = started + job.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            due
        };
        let sent = Instant::now();
        let reply = client.submit(j, &job.config);
        let acked = Instant::now();
        let mut state = lock.lock().expect("state poisoned");
        match reply {
            Ok(s) if !s.duplicate => {
                spans.push(("serve.submit", sent, acked, s.digest));
                sends[j] = Some((scheduled, sent, s.digest));
                state.outstanding.push(Outstanding {
                    job: j,
                    digest: s.digest,
                });
            }
            Ok(_) => {
                refused += 1;
                state.settled.insert(
                    j,
                    Settled::Failed("answered from the registry as a duplicate".into()),
                );
            }
            Err(e) => {
                refused += 1;
                state
                    .settled
                    .insert(j, Settled::Failed(format!("refused: {e}")));
            }
        }
    }
    lock.lock().expect("state poisoned").submitting = false;
    cv.notify_all();
    (sends, spans, refused)
}

/// Connection 2: polls `Status` for every outstanding job until the
/// submitter is done and nothing is outstanding, or `deadline` passed.
fn poll_all(
    client: &mut Client,
    deadline: Instant,
    shared: &(Mutex<Shared>, Condvar),
) -> (u64, usize, Vec<Timed>) {
    let (lock, cv) = shared;
    let mut polls = 0;
    let mut backlog_max = 0;
    let mut spans = Vec::new();
    loop {
        let pending: Vec<Outstanding> = {
            let state = lock.lock().expect("state poisoned");
            if (state.outstanding.is_empty() && !state.submitting) || Instant::now() > deadline {
                break;
            }
            backlog_max = backlog_max.max(state.outstanding.len());
            state.outstanding.iter().take(POLL_BATCH).copied().collect()
        };
        for o in pending {
            let t = Instant::now();
            let reply = client.status(o.digest);
            let at = Instant::now();
            polls += 1;
            spans.push(("serve.status", t, at, o.digest));
            let settled = match reply {
                Ok(r) if r.state == JobState::Pending => continue,
                Ok(r) if r.state == JobState::Completed => match r.outcome_bytes {
                    Some(bytes) => Settled::Completed { at, bytes },
                    None => Settled::Failed("completed without an outcome record".into()),
                },
                Ok(r) => Settled::Failed(format!("ended {:?}: {:?}", r.state, r.message)),
                Err(e) => Settled::Failed(format!("status: {e}")),
            };
            let mut state = lock.lock().expect("state poisoned");
            state.outstanding.retain(|x| x.job != o.job);
            state.settled.insert(o.job, settled);
            cv.notify_all();
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    (polls, backlog_max, spans)
}

/// The untraced workload.
///
/// # Errors
///
/// Returns a description of a daemon that could not be started or
/// reached.
pub fn run(bin: &Path, work: &Path, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut tracer = Tracer::new(false, Instant::now());
    let (p, mut report) = pass(bin, work, seed, seconds as f64, &mut tracer)?;
    end_to_end(
        &mut report,
        EndToEnd {
            setup_s: median(&p.setup_s),
            wall_s: p.burst_s,
            cpu_s: p.daemon_cpu_s,
            peak_rss_mib: p.daemon.hwm_mib,
            refs_per_s: p.burst_refs as f64 / p.burst_s,
            latencies_ms: p.latencies_ms,
            capacity_jobs_per_s: p.burst_jobs as f64 / p.burst_s,
        },
    );
    Ok(report)
}

/// Per-layer view of the daemon: an untraced and a traced pass of
/// `seconds` each.
///
/// # Errors
///
/// Returns a description of a daemon that could not be started or
/// reached.
pub fn layers(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Report, String> {
    let mut off = Tracer::new(false, Instant::now());
    let (untraced, mut report) = pass(bin, work, seed, seconds, &mut off)?;
    let (p, checks) = pass(bin, work, seed, seconds, tracer)?;
    report.absorb(checks);
    report.metric("engine.new_ms", median(&p.new_ms), "ms");
    report.metric("serve.daemon_write_mib", p.daemon_write_mib, "MiB");
    report.metric("serve.submit_ms_p50", median(&p.submit_ms), "ms");
    report.metric("serve.status_ms_p50", median(&p.status_ms), "ms");
    report.metric("serve.polls", p.polls as f64, "count");
    report.metric("serve.backlog_max", p.backlog_max as f64, "count");
    report.metric("serve.late_ms_max", p.late_ms_max, "ms");
    // Per-layer rather than end-to-end: on a shared 2-CPU host the tail of
    // the open loop spread by a third of its median between runs.
    let (tail_ms, pct) = tail(&p.latencies_ms).unwrap_or((f64::NAN, 0.0));
    eprintln!(
        "perfbench: serve.latency_tail_ms is p{pct:.1} of {} open-loop jobs",
        p.latencies_ms.len()
    );
    report.metric("serve.latency_tail_ms", tail_ms, "ms");
    report.metric("serve.refused", p.refused as f64, "count");
    report.metric("serve.failed", p.failed as f64, "count");
    report.metric("serve.mismatched", p.mismatched as f64, "count");
    report.metric(
        "trace.serve-open.overhead_frac",
        p.burst_s / untraced.burst_s - 1.0,
        "ratio",
    );
    Ok(report)
}

/// Where a run keeps its daemon journals.
pub fn work_dir(root: &Path, seed: u64) -> PathBuf {
    root.join(format!("serve-open-{}-{seed}", std::process::id()))
}
