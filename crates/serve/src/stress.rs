//! Seeded, crash-injecting stress driver for the serve daemon.
//!
//! The driver owns a daemon *subprocess* (so a crash is a real `SIGKILL`,
//! not a polite unwind), generates a deterministic action plan from one
//! seed — Zipf-sampled job sizes, a weighted mix of submit / status /
//! cancel / subscribe — and replays it from a bounded set of concurrent
//! client threads while a supervisor kills and restarts the daemon under
//! them. At the end it asserts the three properties the daemon promises:
//!
//! 1. **Zero lost jobs** — every acknowledged submission that was not a
//!    cancellation target reaches `Completed`, across any number of
//!    crashes;
//! 2. **Bit-identical results** — each completed outcome record equals a
//!    serial reference run of the same configuration on an unsliced
//!    single-worker pool with tracing off;
//! 3. **A reproducible ledger** — the sorted `digest → outcome-digest`
//!    table hashes to the same value for the same seed, no matter how
//!    the crashes landed.
//!
//! Cancellation targets are excluded from the ledger: whether a cancel
//! beats its job to completion is a genuine race (and a crash may even
//! discard the cancellation), so their terminal state is the one
//! deliberately nondeterministic output.

use crate::client::{Client, StreamFrame};
use crate::net::Endpoint;
use crate::proto::{JobState, ServeError};
use consim::engine::SimulationConfig;
use consim::persist;
use consim_job::{
    CollectingSink, JobOutput, JobQueue, JobSpec, PoolConfig, ResultSink, StaticQueue, WorkerPool,
};
use consim_snap::fnv1a;
use consim_types::{FastHashMap, SimRng};
use consim_workload::{WorkloadProfileBuilder, ZipfSampler};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a stress run needs; fully determined by the seed except
/// for scheduling noise, which the assertions are immune to.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Master seed: derives the plan, the action mix, and every job.
    pub seed: u64,
    /// Number of distinct jobs to submit.
    pub jobs: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Daemon worker threads.
    pub workers: usize,
    /// `SIGKILL` the daemon once this many submissions were acked
    /// (`None`: never kill).
    pub kill_after: Option<usize>,
    /// Pass `CONSIM_FAULT=jobs:K` to the *first* daemon incarnation
    /// (`None`: no injected fault). Respawns run clean.
    pub fault_after: Option<u64>,
    /// Scratch directory for the journal and the endpoint file.
    pub scratch: PathBuf,
    /// Path of the `consim-serve` binary to supervise.
    pub daemon_bin: PathBuf,
    /// Verify every completed outcome against a serial reference run.
    pub verify: bool,
}

/// What a completed stress run observed.
#[derive(Debug)]
pub struct StressReport {
    /// Jobs planned (== submitted; submissions retry until acked).
    pub jobs: usize,
    /// Jobs that reached `Completed` (every non-cancel-target, plus any
    /// cancel target the cancel lost the race to).
    pub completed: usize,
    /// Cancellation targets that ended `Cancelled`.
    pub cancelled: usize,
    /// Daemon incarnations beyond the first (kills + fault exits).
    pub restarts: usize,
    /// Live `Event` frames observed on subscribed streams.
    pub events_seen: usize,
    /// The ledger: one `"<config-digest> <outcome-digest>"` line per
    /// non-cancel-target job, sorted by config digest.
    pub ledger: String,
    /// `fnv1a` of [`StressReport::ledger`] — the one number a CI run
    /// compares across crash schedules.
    pub ledger_digest: u64,
}

/// One planned job.
#[derive(Debug, Clone)]
struct PlannedJob {
    cell: usize,
    config: SimulationConfig,
    digest: u64,
    /// Whether the plan also cancels this job.
    cancel: bool,
}

/// One scripted client action. `Submit` must eventually ack; the rest
/// are fire-and-forget probes that tolerate crashes mid-flight.
#[derive(Debug, Clone, Copy)]
enum Action {
    Submit(usize),
    Status(usize),
    Cancel(usize),
    Subscribe(usize),
}

/// Builds the deterministic job plan: Zipf-ranked sizes (most jobs
/// small, a heavy tail of big ones), one unique seed per job.
fn plan_jobs(seed: u64, jobs: usize) -> Result<Vec<PlannedJob>, ServeError> {
    let mut rng = SimRng::from_seed(seed).derive("stress-plan");
    let zipf = ZipfSampler::new(8, 0.7).map_err(ServeError::Sim)?;
    let mut planned = Vec::with_capacity(jobs);
    for index in 0..jobs {
        let rank = zipf.sample(&mut rng);
        let refs = 300 + 150 * rank;
        let profile = WorkloadProfileBuilder::new("stress")
            .footprint_blocks(1_500 + 250 * rank)
            .build()
            .map_err(ServeError::Sim)?;
        let mut builder = SimulationConfig::builder();
        builder
            .workload(profile)
            .refs_per_vm(refs)
            .warmup_refs_per_vm(refs / 4)
            .seed(seed.wrapping_mul(10_000).wrapping_add(index as u64));
        let config = builder.build().map_err(ServeError::Sim)?;
        let digest = JobSpec::new(index, index, config.clone()).digest();
        let cancel = rng.next_u64() % 100 < 8;
        planned.push(PlannedJob {
            cell: index,
            config,
            digest,
            cancel,
        });
    }
    let mut digests: Vec<u64> = planned.iter().map(|j| j.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    if digests.len() != planned.len() {
        return Err(ServeError::Malformed(
            "planned jobs are not digest-unique; the plan seeds collide".into(),
        ));
    }
    Ok(planned)
}

/// Scripts the action sequence: every job submitted once, interleaved
/// with status probes and subscriptions against earlier jobs, and a
/// cancel right after each cancellation target's submit.
fn plan_actions(seed: u64, jobs: &[PlannedJob]) -> Vec<Action> {
    let mut rng = SimRng::from_seed(seed).derive("stress-actions");
    let mut actions = Vec::new();
    for (index, job) in jobs.iter().enumerate() {
        actions.push(Action::Submit(index));
        if job.cancel {
            actions.push(Action::Cancel(index));
        }
        if index > 0 {
            let earlier = (rng.next_u64() % index as u64) as usize;
            let roll = rng.next_u64() % 100;
            if roll < 25 {
                actions.push(Action::Status(earlier));
            } else if roll < 40 {
                actions.push(Action::Subscribe(earlier));
            }
        }
    }
    actions
}

/// The daemon subprocess and its lifecycle. One supervisor thread owns
/// the [`Child`]; everything else communicates through flags.
struct Supervisor {
    bin: PathBuf,
    journal: PathBuf,
    port_file: PathBuf,
    workers: usize,
    kill_requested: AtomicBool,
    done: AtomicBool,
    restarts: AtomicUsize,
    child: Mutex<Option<Child>>,
}

impl Supervisor {
    fn spawn_daemon(&self, fault: Option<u64>) -> Result<(), ServeError> {
        // Remove the stale endpoint first: clients must not dial a dead
        // incarnation's address believing it fresh.
        let _ = std::fs::remove_file(&self.port_file);
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--journal")
            .arg(&self.journal)
            .arg("--workers")
            .arg(self.workers.to_string())
            .arg("--time-slice")
            .arg("2000")
            .arg("--checkpoint-every")
            .arg("2000")
            .arg("--port-file")
            .arg(&self.port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .env_remove("CONSIM_FAULT");
        if let Some(k) = fault {
            cmd.env("CONSIM_FAULT", format!("jobs:{k}"));
        }
        let child = cmd
            .spawn()
            .map_err(|e| ServeError::Io(format!("spawn {}: {e}", self.bin.display())))?;
        *self.child.lock().expect("supervisor poisoned") = Some(child);
        Ok(())
    }

    /// The supervision loop: respawn on unexpected death, kill on
    /// request, stand down once the run is done and the daemon exited.
    fn run(&self) {
        loop {
            std::thread::sleep(Duration::from_millis(25));
            let mut slot = self.child.lock().expect("supervisor poisoned");
            let Some(child) = slot.as_mut() else {
                return;
            };
            if self.kill_requested.swap(false, Ordering::Relaxed) {
                let _ = child.kill();
                let _ = child.wait();
                *slot = None;
                drop(slot);
                self.restarts.fetch_add(1, Ordering::Relaxed);
                self.spawn_daemon(None).expect("respawn daemon after kill");
                continue;
            }
            if let Ok(Some(_status)) = child.try_wait() {
                *slot = None;
                if self.done.load(Ordering::Relaxed) {
                    return;
                }
                drop(slot);
                // Fault exit (or anything else unexpected): the journal
                // is the durable state; a clean respawn must recover
                // every acked job.
                self.restarts.fetch_add(1, Ordering::Relaxed);
                self.spawn_daemon(None).expect("respawn daemon after exit");
            }
        }
    }

    /// The current endpoint, if the live incarnation has published one.
    fn endpoint(&self) -> Option<Endpoint> {
        let text = std::fs::read_to_string(&self.port_file).ok()?;
        Endpoint::from_str(text.trim()).ok()
    }
}

/// Connects to whatever daemon incarnation is currently alive, retrying
/// through kills and restarts until `deadline`.
fn connect(sup: &Supervisor, deadline: Instant) -> Result<Client, ServeError> {
    loop {
        if let Some(endpoint) = sup.endpoint() {
            if let Ok(client) = Client::connect(&endpoint) {
                let _ = client.set_timeout(Some(Duration::from_secs(5)));
                return Ok(client);
            }
        }
        if Instant::now() >= deadline {
            return Err(ServeError::Io("daemon never became reachable".into()));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs the scripted actions from one client thread, reconnecting
/// across crashes. Submissions retry until acked; probes are allowed to
/// die with the incarnation they hit.
fn client_loop(
    sup: &Supervisor,
    jobs: &[PlannedJob],
    actions: &[Action],
    cursor: &AtomicUsize,
    submits_acked: &AtomicUsize,
    events_seen: &AtomicUsize,
    deadline: Instant,
) -> Result<(), ServeError> {
    let mut client: Option<Client> = None;
    loop {
        let slot = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(action) = actions.get(slot) else {
            return Ok(());
        };
        match *action {
            Action::Submit(index) => {
                let job = &jobs[index];
                // Must ack: the zero-lost-jobs assertion only covers
                // submissions the daemon acknowledged.
                loop {
                    if client.is_none() {
                        client = Some(connect(sup, deadline)?);
                    }
                    let c = client.as_mut().expect("connected above");
                    match c.submit(job.cell, &job.config) {
                        Ok(ack) => {
                            debug_assert_eq!(ack.digest, job.digest, "wire digest disagrees");
                            submits_acked.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                        Err(_) => {
                            // Crash mid-submit, or a dead connection:
                            // reconnect and resubmit. A duplicate ack is
                            // fine — digest-keyed admission dedupes.
                            client = None;
                            if Instant::now() >= deadline {
                                return Err(ServeError::Io(
                                    "submission never acked before deadline".into(),
                                ));
                            }
                        }
                    }
                }
            }
            Action::Status(index) => {
                if client.is_none() {
                    client = connect(sup, deadline).ok();
                }
                if let Some(c) = client.as_mut() {
                    if c.status(jobs[index].digest).is_err() {
                        client = None;
                    }
                }
            }
            Action::Cancel(index) => {
                if client.is_none() {
                    client = connect(sup, deadline).ok();
                }
                if let Some(c) = client.as_mut() {
                    if c.cancel(jobs[index].digest).is_err() {
                        client = None;
                    }
                }
            }
            Action::Subscribe(index) => {
                // A subscription dedicates the connection to the stream;
                // drain a few frames, then give the connection up.
                let Ok(mut c) = connect(sup, deadline) else {
                    continue;
                };
                let _ = c.set_timeout(Some(Duration::from_millis(500)));
                if c.subscribe(jobs[index].digest).is_ok() {
                    for _ in 0..16 {
                        match c.next_stream_frame() {
                            Ok(StreamFrame::Event(_)) => {
                                events_seen.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(StreamFrame::Done { .. }) | Err(_) => break,
                        }
                    }
                }
            }
        }
    }
}

/// Polls every job to a terminal state, returning the completed outcome
/// bytes by digest. Non-cancel-target jobs must complete; that's the
/// zero-lost-jobs assertion.
fn settle(
    sup: &Supervisor,
    jobs: &[PlannedJob],
    deadline: Instant,
) -> Result<(FastHashMap<u64, Vec<u8>>, usize), ServeError> {
    let mut outcomes: FastHashMap<u64, Vec<u8>> = FastHashMap::default();
    let mut cancelled = 0usize;
    let mut client: Option<Client> = None;
    for job in jobs {
        loop {
            if Instant::now() >= deadline {
                return Err(ServeError::Io(format!(
                    "job {:016x} never settled before the deadline",
                    job.digest
                )));
            }
            if client.is_none() {
                client = Some(connect(sup, deadline)?);
            }
            let reply = match client.as_mut().expect("connected above").status(job.digest) {
                Ok(reply) => reply,
                Err(_) => {
                    client = None;
                    continue;
                }
            };
            match reply.state {
                JobState::Completed => {
                    outcomes.insert(
                        job.digest,
                        reply.outcome_bytes.ok_or_else(|| {
                            ServeError::Malformed("Completed status carried no outcome".into())
                        })?,
                    );
                    break;
                }
                JobState::Cancelled if job.cancel => {
                    cancelled += 1;
                    break;
                }
                // A cancel target the daemon forgot entirely: the crash
                // discarded its record after cancellation. Terminal.
                JobState::Unknown if job.cancel => break,
                JobState::Failed => {
                    return Err(ServeError::Remote(format!(
                        "job {:016x} failed: {}",
                        job.digest,
                        reply.message.unwrap_or_default()
                    )));
                }
                // Pending, Abandoned (transient during wind-down), or a
                // post-restart Unknown for a job whose resubmission is
                // still racing in: poll again.
                _ => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
    Ok((outcomes, cancelled))
}

/// Runs `config` serially — one worker, no slicing, no journal, no
/// tracing — and returns the canonical outcome record bytes.
fn reference_outcome(job: &PlannedJob) -> Result<Vec<u8>, ServeError> {
    let queue = Arc::new(StaticQueue::new(vec![JobSpec::new(
        0,
        job.cell,
        job.config.clone(),
    )]));
    let sink = Arc::new(CollectingSink::new());
    let pool = WorkerPool::start(
        PoolConfig {
            workers: 1,
            ..PoolConfig::default()
        },
        Arc::clone(&queue) as Arc<dyn JobQueue>,
        Arc::clone(&sink) as Arc<dyn ResultSink>,
        None,
        None,
    );
    pool.join();
    let result = sink
        .take()
        .into_values()
        .next()
        .ok_or_else(|| ServeError::Malformed("reference run produced no result".into()))?;
    match result.map_err(ServeError::Sim)? {
        JobOutput::Completed { outcome, .. } => {
            persist::outcome_to_bytes(&outcome).map_err(ServeError::Sim)
        }
        other => Err(ServeError::Malformed(format!(
            "reference run did not complete: {other:?}"
        ))),
    }
}

/// Runs the whole stress scenario. See the module docs for the
/// properties asserted; any violation is an `Err`, never a panic.
///
/// # Errors
///
/// Returns [`ServeError`] when the daemon cannot be spawned or reached,
/// a job is lost, an outcome diverges from its serial reference, or the
/// run exceeds its internal deadline.
pub fn run(config: &StressConfig) -> Result<StressReport, ServeError> {
    std::fs::create_dir_all(&config.scratch)
        .map_err(|e| ServeError::Io(format!("create {}: {e}", config.scratch.display())))?;
    let jobs = plan_jobs(config.seed, config.jobs)?;
    let actions = plan_actions(config.seed, &jobs);
    let sup = Arc::new(Supervisor {
        bin: config.daemon_bin.clone(),
        journal: config.scratch.join("journal"),
        port_file: config.scratch.join("endpoint"),
        workers: config.workers.max(1),
        kill_requested: AtomicBool::new(false),
        done: AtomicBool::new(false),
        restarts: AtomicUsize::new(0),
        child: Mutex::new(None),
    });
    sup.spawn_daemon(config.fault_after)?;
    let supervisor_thread = {
        let sup = Arc::clone(&sup);
        std::thread::Builder::new()
            .name("stress-supervisor".into())
            .spawn(move || sup.run())
            .expect("spawn supervisor thread")
    };
    let deadline = Instant::now() + Duration::from_secs(300);
    let cursor = Arc::new(AtomicUsize::new(0));
    let submits_acked = Arc::new(AtomicUsize::new(0));
    let events_seen = Arc::new(AtomicUsize::new(0));

    // Client fleet.
    let mut client_threads = Vec::new();
    for c in 0..config.clients.max(1) {
        let sup = Arc::clone(&sup);
        let jobs = jobs.clone();
        let actions = actions.clone();
        let cursor = Arc::clone(&cursor);
        let submits_acked = Arc::clone(&submits_acked);
        let events_seen = Arc::clone(&events_seen);
        client_threads.push(
            std::thread::Builder::new()
                .name(format!("stress-client-{c}"))
                .spawn(move || {
                    client_loop(
                        &sup,
                        &jobs,
                        &actions,
                        &cursor,
                        &submits_acked,
                        &events_seen,
                        deadline,
                    )
                })
                .expect("spawn client thread"),
        );
    }

    // The kill trigger: one SIGKILL once enough submissions were acked.
    if let Some(kill_after) = config.kill_after {
        while submits_acked.load(Ordering::Relaxed) < kill_after {
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        sup.kill_requested.store(true, Ordering::Relaxed);
    }

    for thread in client_threads {
        thread.join().expect("client thread panicked")?;
    }

    // Settle: every job to a terminal state, stragglers included.
    let (outcomes, cancelled) = settle(&sup, &jobs, deadline)?;

    // Wind the daemon down for real before verifying.
    sup.done.store(true, Ordering::Relaxed);
    let mut shutdown_client = connect(&sup, deadline)?;
    shutdown_client.drain()?;
    shutdown_client.shutdown()?;
    supervisor_thread
        .join()
        .expect("supervisor thread panicked");

    // Verification + ledger over the deterministic job set.
    let mut ledger_lines = Vec::new();
    for job in jobs.iter().filter(|j| !j.cancel) {
        let bytes = outcomes.get(&job.digest).ok_or_else(|| {
            ServeError::Malformed(format!(
                "job {:016x} settled without an outcome",
                job.digest
            ))
        })?;
        if config.verify {
            let reference = reference_outcome(job)?;
            if *bytes != reference {
                return Err(ServeError::Malformed(format!(
                    "job {:016x}: daemon outcome diverges from the serial reference",
                    job.digest
                )));
            }
        }
        ledger_lines.push(format!("{:016x} {:016x}", job.digest, fnv1a(bytes)));
    }
    ledger_lines.sort();
    let mut ledger = ledger_lines.join("\n");
    ledger.push('\n');
    let ledger_digest = fnv1a(ledger.as_bytes());
    Ok(StressReport {
        jobs: jobs.len(),
        completed: outcomes.len(),
        cancelled,
        restarts: sup.restarts.load(Ordering::Relaxed),
        events_seen: events_seen.load(Ordering::Relaxed),
        ledger,
        ledger_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_digest_unique() {
        let a = plan_jobs(42, 50).unwrap();
        let b = plan_jobs(42, 50).unwrap();
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest);
            assert_eq!(x.cancel, y.cancel);
        }
        let cancels = a.iter().filter(|j| j.cancel).count();
        assert!(cancels > 0, "the mix should include cancellations");
        assert!(cancels < a.len() / 2, "cancels should stay a minority");
        let sizes: std::collections::HashSet<u64> =
            a.iter().map(|j| j.config.refs_per_vm).collect();
        assert!(sizes.len() > 1, "Zipf sizing should vary job lengths");
    }

    #[test]
    fn action_script_submits_every_job_exactly_once() {
        let jobs = plan_jobs(7, 40).unwrap();
        let actions = plan_actions(7, &jobs);
        let mut submits = vec![0usize; jobs.len()];
        let mut cancels = 0usize;
        for action in &actions {
            match *action {
                Action::Submit(i) => submits[i] += 1,
                Action::Cancel(_) => cancels += 1,
                _ => {}
            }
        }
        assert!(submits.iter().all(|&n| n == 1));
        assert_eq!(cancels, jobs.iter().filter(|j| j.cancel).count());
        assert!(
            actions.len() > jobs.len(),
            "probes should interleave with submissions"
        );
    }
}
