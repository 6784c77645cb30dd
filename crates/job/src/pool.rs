//! The persistent worker pool: long-lived OS threads that pull jobs from
//! a [`JobQueue`] and execute them in [`Simulation::advance`] time
//! slices.
//!
//! Time-sliced execution is what makes the pool more than a thread pool:
//!
//! * **Preemptive interleaving** — with `max_live > 1` a worker rotates
//!   several resident simulations, so one enormous job cannot starve an
//!   open-ended queue's short jobs behind it;
//! * **Early termination** — a job cancelled between slices
//!   ([`WorkerPool::cancel`]) simply stops advancing and reports
//!   [`JobOutput::Cancelled`]; dominated candidates in a search loop die
//!   cheaply without corrupting anyone else's aggregation;
//! * **Crash durability** — every `checkpoint_every` accesses, rounded up
//!   to a whole slice, the worker checkpoints the resident simulation into
//!   the [`JobJournal`], so a crash loses at most that much work per
//!   in-flight job.
//!
//! None of this can change results: each job's outcome is a pure function
//! of its configuration, and slicing a simulation is bit-transparent (the
//! checkpoint/advance contract), so worker count, slice length, and
//! interleaving are all schedule, not semantics.

use crate::journal::JobJournal;
use crate::queue::{JobQueue, QueuePoll};
use crate::sink::{JobOutput, JobSource, ResultSink};
use crate::spec::JobSpec;
use consim::engine::{RunStatus, Simulation, SimulationOutcome};
use consim_trace::{TraceEvent, TraceSink};
use consim_types::{SimError, SnapshotErrorKind};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Execution policy for one pool.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads to spawn.
    pub workers: usize,
    /// Accesses per [`Simulation::advance`] slice; `None` runs each job
    /// in one slice (no preemption points).
    pub time_slice: Option<u64>,
    /// Simulations a worker keeps resident and rotates between slices
    /// (`1` = run each job to completion before starting the next, the
    /// batch-runner discipline).
    pub max_live: usize,
    /// Checkpoint each in-flight job into the journal at the first slice
    /// boundary once this many accesses have run since its last
    /// checkpoint, slicing at this interval if `time_slice` is coarser.
    /// Effective only with a journal attached.
    pub checkpoint_every: Option<u64>,
    /// Fault injection for crash-recovery tests: once this many jobs have
    /// been *simulated* to completion (journal loads do not count), the
    /// pool trips its fault flag, stops admitting jobs, finishes and
    /// journals the in-flight ones, and winds down.
    pub fault_after: Option<u64>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            time_slice: None,
            max_live: 1,
            checkpoint_every: None,
            fault_after: None,
        }
    }
}

/// What a pool did, reported by [`WorkerPool::join`].
#[derive(Debug, Clone, Copy)]
pub struct PoolReport {
    /// Jobs simulated to completion in this invocation (journal loads
    /// and cancellations excluded).
    pub simulated: u64,
    /// Whether the fault injector tripped.
    pub faulted: bool,
    /// Total worker-busy time across the pool.
    pub busy_seconds: f64,
}

/// A pool of persistent workers executing jobs from a shared queue.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

#[derive(Debug)]
struct Shared {
    queue: Arc<dyn JobQueue>,
    sink: Arc<dyn ResultSink>,
    journal: Option<JobJournal>,
    config: PoolConfig,
    /// Runner-class telemetry sink (per-job wall time); `None` when the
    /// attached trace sink filters the class out.
    timing: Option<Arc<dyn TraceSink>>,
    cancelled: Mutex<HashSet<usize>>,
    simulated: AtomicU64,
    faulted: AtomicBool,
    busy_us: AtomicU64,
}

impl WorkerPool {
    /// Spawns `config.workers` workers over `queue`, reporting into
    /// `sink`. With a `journal`, completed outcomes are recorded (and
    /// previously recorded ones served without re-simulating); `timing`
    /// receives `CellCompleted` events for simulated jobs.
    ///
    /// ```
    /// # use consim::engine::SimulationConfig;
    /// # use consim_workload::WorkloadProfileBuilder;
    /// use consim_job::{CollectingSink, JobQueue, LiveQueue, PoolConfig,
    ///                  ResultSink, WorkerPool};
    /// use std::sync::Arc;
    /// # let mut builder = SimulationConfig::builder();
    /// # builder
    /// #     .workload(WorkloadProfileBuilder::new("tiny").footprint_blocks(500).build()?)
    /// #     .refs_per_vm(500)
    /// #     .warmup_refs_per_vm(100);
    /// # let config = builder.build()?;
    ///
    /// let queue = Arc::new(LiveQueue::new());          // feed while running
    /// let sink = Arc::new(CollectingSink::new());      // or your own ResultSink
    /// let pool = WorkerPool::start(
    ///     PoolConfig { workers: 4, time_slice: Some(100_000), max_live: 2,
    ///                  ..PoolConfig::default() },
    ///     Arc::clone(&queue) as Arc<dyn JobQueue>,
    ///     Arc::clone(&sink) as Arc<dyn ResultSink>,
    ///     None,                                        // or Some(JobJournal)
    ///     None,                                        // or a trace sink
    /// );
    /// let job = queue.push(0, config).expect("queue open");  // any producer
    /// // pool.cancel(job)  — early termination at the next slice boundary
    /// queue.close();
    /// let report = pool.join();
    /// # assert_eq!((report.simulated, sink.len()), (1, 1));
    /// # Ok::<(), consim_types::SimError>(())
    /// ```
    pub fn start(
        config: PoolConfig,
        queue: Arc<dyn JobQueue>,
        sink: Arc<dyn ResultSink>,
        journal: Option<JobJournal>,
        timing: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue,
            sink,
            journal,
            config,
            timing,
            cancelled: Mutex::new(HashSet::new()),
            simulated: AtomicU64::new(0),
            faulted: AtomicBool::new(false),
            busy_us: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("consim-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Marks job `index` for early termination: if still queued or
    /// resident it reports [`JobOutput::Cancelled`] at its next
    /// scheduling point instead of advancing further. Cancelling an
    /// already finished job is a no-op.
    pub fn cancel(&self, index: usize) {
        self.shared
            .cancelled
            .lock()
            .expect("cancel set poisoned")
            .insert(index);
    }

    /// Whether the fault injector has tripped.
    pub fn faulted(&self) -> bool {
        self.shared.faulted.load(Ordering::Relaxed)
    }

    /// Jobs simulated to completion so far.
    pub fn simulated(&self) -> u64 {
        self.shared.simulated.load(Ordering::Relaxed)
    }

    /// Waits for every worker to exit (the queue must eventually close or
    /// drain) and reports what the pool did.
    ///
    /// A pool that wound down early — the fault injector tripped and
    /// admission stopped — may leave dequeued-by-nobody jobs stranded in
    /// the queue. Those are drained here and reported to the sink as
    /// [`JobOutput::Abandoned`], so the sink hears about **every** job
    /// that entered the queue, exactly once: nothing is silently dropped
    /// between `close()` and `join()`.
    pub fn join(self) -> PoolReport {
        for handle in self.handles {
            handle.join().expect("worker thread panicked");
        }
        // Workers only exit on a closed queue, so this poll loop cannot
        // race a producer; on the normal path the backlog is already
        // empty and the loop is a single `Closed` poll.
        while let QueuePoll::Job(job) = self.shared.queue.poll() {
            self.shared
                .sink
                .job_finished(&job, Ok(JobOutput::Abandoned));
        }
        PoolReport {
            simulated: self.shared.simulated.load(Ordering::Relaxed),
            faulted: self.shared.faulted.load(Ordering::Relaxed),
            busy_seconds: self.shared.busy_us.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// One resident job: its simulation plus accumulated execution time.
struct Active {
    job: JobSpec,
    sim: Simulation,
    busy: Duration,
    /// Accesses run since the job's last journal checkpoint.
    unsaved: u64,
}

/// The slice length workers advance by: the finer of the preemption and
/// checkpoint intervals, unbounded when neither is set.
fn effective_slice(config: &PoolConfig) -> u64 {
    match (config.time_slice, config.checkpoint_every) {
        (Some(t), Some(c)) => t.min(c),
        (Some(t), None) => t,
        (None, Some(c)) => c,
        (None, None) => u64::MAX,
    }
    .max(1)
}

fn worker_loop(shared: &Shared) {
    let slice = effective_slice(&shared.config);
    let width = shared.config.max_live.max(1);
    let mut live: VecDeque<Active> = VecDeque::new();
    loop {
        // Admission: refill the resident set. A tripped fault stops
        // admission but lets in-flight jobs finish and journal first
        // (the crash-recovery contract).
        let mut closed = false;
        while live.len() < width && !shared.faulted.load(Ordering::Relaxed) {
            match shared.queue.poll() {
                QueuePoll::Job(job) => {
                    if let Some(active) = admit(shared, job) {
                        live.push_back(active);
                    }
                }
                QueuePoll::Pending => {
                    if !live.is_empty() {
                        break;
                    }
                    // Nothing resident: park on the queue rather than
                    // spin. A tripping worker closes the queue, so this
                    // wakes on fault too.
                    match shared.queue.recv() {
                        Some(job) => {
                            if let Some(active) = admit(shared, job) {
                                live.push_back(active);
                            }
                        }
                        None => {
                            closed = true;
                            break;
                        }
                    }
                }
                QueuePoll::Closed => {
                    closed = true;
                    break;
                }
            }
        }
        let Some(active) = live.pop_front() else {
            if closed || shared.faulted.load(Ordering::Relaxed) {
                return;
            }
            continue;
        };
        // Scheduling point: cancellation is honored between slices.
        if is_cancelled(shared, active.job.index()) {
            shared
                .sink
                .job_finished(&active.job, Ok(JobOutput::Cancelled));
            continue;
        }
        let Active {
            job,
            mut sim,
            busy,
            unsaved,
        } = active;
        let start = Instant::now();
        match sim.advance(slice, None) {
            Ok(RunStatus::Running) => {
                let busy = busy + start.elapsed();
                let mut unsaved = unsaved + slice;
                if let (Some(every), Some(journal)) =
                    (shared.config.checkpoint_every, &shared.journal)
                {
                    if unsaved >= every {
                        if let Err(e) = journal.store_checkpoint(&job, &sim) {
                            finish_simulated(shared, &job, Err(e), busy);
                            continue;
                        }
                        unsaved = 0;
                    }
                }
                live.push_back(Active {
                    job,
                    sim,
                    busy,
                    unsaved,
                });
            }
            Ok(RunStatus::Complete) => {
                let result = sim.finish();
                let busy = busy + start.elapsed();
                let result = result.and_then(|outcome| {
                    if let Some(journal) = &shared.journal {
                        journal.store_outcome(&job, &outcome)?;
                        // The record supersedes the mid-run checkpoint.
                        journal.discard_checkpoint(&job);
                    }
                    Ok(outcome)
                });
                finish_simulated(shared, &job, result, busy);
            }
            Err(e) => finish_simulated(shared, &job, Err(e), busy + start.elapsed()),
        }
    }
}

fn is_cancelled(shared: &Shared, index: usize) -> bool {
    shared
        .cancelled
        .lock()
        .expect("cancel set poisoned")
        .contains(&index)
}

/// Brings a dequeued job into the resident set — unless the journal
/// already holds its outcome (served for free, bypassing timing and the
/// fault threshold: it was counted by the invocation that ran it) or it
/// was cancelled before ever running. A journaled checkpoint resumes the
/// job; one of another format version is discarded and the job starts
/// from [`Simulation::new`].
fn admit(shared: &Shared, job: JobSpec) -> Option<Active> {
    if is_cancelled(shared, job.index()) {
        shared.sink.job_finished(&job, Ok(JobOutput::Cancelled));
        return None;
    }
    if let Some(journal) = &shared.journal {
        match journal.load_outcome(&job) {
            Ok(Some(outcome)) => {
                shared.sink.job_finished(
                    &job,
                    Ok(JobOutput::Completed {
                        outcome,
                        source: JobSource::Journal,
                    }),
                );
                return None;
            }
            Ok(None) => {}
            Err(e) => {
                finish_simulated(shared, &job, Err(e), Duration::ZERO);
                return None;
            }
        }
        match journal.load_checkpoint(&job) {
            Ok(Some(mut sim)) => {
                // Trace sinks are process-local and deliberately excluded
                // from checkpoints; reattach this process's.
                if let Some(trace) = &job.config().trace {
                    sim.set_trace(trace.clone());
                }
                return Some(Active {
                    job,
                    sim,
                    busy: Duration::ZERO,
                    unsaved: 0,
                });
            }
            Ok(None) => {}
            // A checkpoint of another format version, left by another
            // build, is dropped and the job starts over: runs are
            // deterministic, so the outcome is the same byte for byte.
            Err(e) if e.snapshot_kind() == Some(SnapshotErrorKind::BadVersion) => {
                journal.discard_checkpoint(&job);
            }
            Err(e) => {
                finish_simulated(shared, &job, Err(e), Duration::ZERO);
                return None;
            }
        }
    }
    // A prewarmed job fills its LLC banks inside its first slice.
    let start = Instant::now();
    match Simulation::new(job.config().clone()) {
        Ok(sim) => Some(Active {
            job,
            sim,
            busy: start.elapsed(),
            unsaved: 0,
        }),
        Err(e) => {
            finish_simulated(shared, &job, Err(e), start.elapsed());
            None
        }
    }
}

/// Final accounting for a job that actually ran in this invocation:
/// busy-time telemetry, the fault threshold, and the sink notification.
fn finish_simulated(
    shared: &Shared,
    job: &JobSpec,
    result: Result<SimulationOutcome, SimError>,
    busy: Duration,
) {
    shared
        .busy_us
        .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
    if let Some(sink) = &shared.timing {
        sink.record(&TraceEvent::CellCompleted {
            cell: job.cell() as u32,
            seed: job.config().seed,
            wall_ms: busy.as_secs_f64() * 1e3,
        });
    }
    let done = shared.simulated.fetch_add(1, Ordering::Relaxed) + 1;
    if let Some(k) = shared.config.fault_after {
        if done >= k && !shared.faulted.swap(true, Ordering::Relaxed) {
            // Unblock workers parked on an open queue so the pool can
            // wind down; their in-flight jobs still finish and journal.
            shared.queue.close();
        }
    }
    shared.sink.job_finished(
        job,
        result.map(|outcome| JobOutput::Completed {
            outcome,
            source: JobSource::Simulated,
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::LiveQueue;
    use crate::sink::CollectingSink;
    use consim::engine::SimulationConfig;
    use consim::persist;
    use std::path::PathBuf;

    /// Temp journal dir removed on drop (even on assertion failure).
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("consim-pool-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn config(seed: u64) -> SimulationConfig {
        let profile = consim_workload::WorkloadProfileBuilder::new("p")
            .footprint_blocks(2_000)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.workload(profile).refs_per_vm(600).seed(seed);
        b.build().unwrap()
    }

    /// Satellite regression: `close()` while a worker holds in-flight
    /// slices is a *drain* — every queued job still finishes and
    /// journals; nothing is dropped.
    #[test]
    fn close_with_in_flight_slices_drains_the_backlog() {
        let scratch = ScratchDir::new("drain");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let queue = Arc::new(LiveQueue::new());
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                time_slice: Some(100),
                max_live: 2,
                checkpoint_every: Some(200),
                fault_after: None,
            },
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            None,
        );
        for seed in 0..4 {
            queue.push(0, config(seed)).unwrap();
        }
        // The worker is mid-slice on the early jobs; the rest are backlog.
        queue.close();
        let report = pool.join();
        assert!(!report.faulted);
        assert_eq!(report.simulated, 4, "close() drains, it does not drop");
        let results = sink.take();
        assert_eq!(results.len(), 4);
        for (index, result) in results {
            assert!(
                matches!(result, Ok(JobOutput::Completed { .. })),
                "job {index} must complete after close()"
            );
        }
        assert_eq!(journal.completed().unwrap().len(), 4, "all journaled");
    }

    /// Satellite regression: a pool that winds down early (fault injector)
    /// reports every stranded job as `Abandoned` — the sink hears about
    /// all submissions exactly once, and the stranded jobs remain
    /// re-runnable afterwards.
    #[test]
    fn fault_reports_stranded_jobs_as_abandoned() {
        let scratch = ScratchDir::new("abandon");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let queue = Arc::new(LiveQueue::new());
        // Submit the whole batch before any worker exists so the order of
        // admission (and therefore which job trips the fault) is fixed.
        for seed in 0..3 {
            queue.push(0, config(seed)).unwrap();
        }
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                fault_after: Some(1),
                ..PoolConfig::default()
            },
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            None,
        );
        let report = pool.join();
        assert!(report.faulted);
        assert_eq!(report.simulated, 1);
        let mut results = sink.take();
        assert_eq!(results.len(), 3, "every submission is accounted for");
        assert!(matches!(
            results.remove(&0),
            Some(Ok(JobOutput::Completed { .. }))
        ));
        for index in 1..3 {
            assert!(
                matches!(results.remove(&index), Some(Ok(JobOutput::Abandoned))),
                "stranded job {index} must be reported, not silently dropped"
            );
        }
        // Abandoned jobs lost nothing: re-enqueueing the same configs
        // completes them (job 0 served from its journal record for free).
        let queue = Arc::new(LiveQueue::new());
        for seed in 0..3 {
            queue.push(0, config(seed)).unwrap();
        }
        queue.close();
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig::default(),
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            None,
        );
        let report = pool.join();
        assert!(!report.faulted);
        assert_eq!(report.simulated, 2, "only the stranded jobs re-simulate");
        assert!(sink
            .take()
            .into_values()
            .all(|r| matches!(r, Ok(JobOutput::Completed { .. }))));
    }

    /// The crash-recovery contract with jobs in flight: the fault stops
    /// admission, but a resident job that finishes after the trip still
    /// journals, so every simulated job has a record.
    #[test]
    fn jobs_in_flight_at_a_fault_finish_and_journal() {
        let scratch = ScratchDir::new("inflight");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let queue = Arc::new(LiveQueue::new());
        for seed in 0..3 {
            queue.push(0, short_config(seed, 400, 0, false)).unwrap();
        }
        queue.close();
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                time_slice: Some(100),
                max_live: 2,
                fault_after: Some(1),
                ..PoolConfig::default()
            },
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            None,
        );
        let report = pool.join();
        assert!(report.faulted);
        assert_eq!(
            report.simulated, 2,
            "the tripping job and the one in flight"
        );
        assert_eq!(
            journal.completed().unwrap().len() as u64,
            report.simulated,
            "every simulated job is journaled"
        );
        assert!(matches!(
            sink.take().remove(&2),
            Some(Ok(JobOutput::Abandoned))
        ));
    }

    fn short_config(seed: u64, refs: u64, warmup: u64, prewarm: bool) -> SimulationConfig {
        let mut cfg = config(seed);
        cfg.refs_per_vm = refs;
        cfg.warmup_refs_per_vm = warmup;
        cfg.prewarm_llc = prewarm;
        cfg
    }

    /// Records, as each short job finishes, whether the long job 0 has a
    /// mid-run checkpoint on disk.
    #[derive(Debug)]
    struct CheckpointProbe {
        path: PathBuf,
        seen: Mutex<Vec<bool>>,
    }

    impl ResultSink for CheckpointProbe {
        fn job_finished(&self, job: &JobSpec, _: Result<JobOutput, SimError>) {
            if job.index() > 0 {
                self.seen.lock().unwrap().push(self.path.exists());
            }
        }
    }

    /// Regression: slices finer than `checkpoint_every` used to write a
    /// checkpoint after every slice. Each 60-access job finishes in one
    /// slice while job 0 has run 100 accesses more, so job `k` sees job 0
    /// at `100 k` accesses: no checkpoint before 1,000, one from then on.
    #[test]
    fn finer_slices_do_not_checkpoint_before_the_interval() {
        let scratch = ScratchDir::new("interval");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let long = short_config(0, 1_500, 0, false);
        let queue = Arc::new(LiveQueue::new());
        queue.push(0, long.clone()).unwrap();
        for seed in 1..=12 {
            queue.push(0, short_config(seed, 60, 0, false)).unwrap();
        }
        queue.close();
        let probe = Arc::new(CheckpointProbe {
            path: journal.checkpoint_path(&JobSpec::new(0, 0, long)),
            seen: Mutex::new(Vec::new()),
        });
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                time_slice: Some(100),
                max_live: 2,
                checkpoint_every: Some(1_000),
                fault_after: None,
            },
            queue as Arc<dyn JobQueue>,
            Arc::clone(&probe) as Arc<dyn ResultSink>,
            Some(journal),
            None,
        );
        assert_eq!(pool.join().simulated, 13);
        let mut expected = vec![false; 9];
        expected.extend([true; 3]);
        assert_eq!(*probe.seen.lock().unwrap(), expected);
        assert!(!probe.path.exists(), "completion discards the checkpoint");
    }

    /// Runs `cfg` alone on a one-worker pool over `journal` and returns
    /// its result.
    fn run_one(journal: &JobJournal, cfg: &SimulationConfig) -> Result<JobOutput, SimError> {
        let queue = Arc::new(LiveQueue::new());
        queue.push(0, cfg.clone()).unwrap();
        queue.close();
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig::default(),
            queue as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal.clone()),
            None,
        );
        assert_eq!(pool.join().simulated, 1);
        sink.take().remove(&0).expect("the job reports")
    }

    /// A checkpoint written in an older checkpoint format (a daemon
    /// restarted over a journal that an older build wrote) re-runs its
    /// job from the start to the same outcome bytes; any other checkpoint
    /// error still fails the job.
    #[test]
    fn checkpoint_of_an_older_version_reruns_its_job() {
        let scratch = ScratchDir::new("oldckpt");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let cfg = short_config(3, 600, 200, false);
        let spec = JobSpec::new(0, 0, cfg.clone());
        let path = journal.checkpoint_path(&spec);
        let store = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut sim = Simulation::new(cfg.clone()).unwrap();
            assert_eq!(sim.advance(300, None).unwrap(), RunStatus::Running);
            journal.store_checkpoint(&spec, &sim).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            edit(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
        };

        store(&|bytes| {
            let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
            bytes[4..8].copy_from_slice(&(version - 1).to_le_bytes());
        });
        let Ok(JobOutput::Completed { outcome, .. }) = run_one(&journal, &cfg) else {
            panic!("a job over an older checkpoint must complete");
        };
        let direct = Simulation::new(cfg.clone()).unwrap().run().unwrap();
        assert_eq!(
            persist::outcome_to_bytes(&outcome).unwrap(),
            persist::outcome_to_bytes(&direct).unwrap()
        );
        assert!(!path.exists(), "the older checkpoint is gone");

        std::fs::remove_file(journal.outcome_path(&spec)).unwrap();
        store(&|bytes| {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
        });
        let err = run_one(&journal, &cfg).expect_err("a corrupt checkpoint fails its job");
        assert_eq!(
            err.snapshot_kind(),
            Some(SnapshotErrorKind::Checksum),
            "{err}"
        );
    }

    /// A prewarmed job fills its LLC banks once, inside its first slice:
    /// a job stopped mid-warmup and resumed from the journal, sliced next
    /// to a fresh prewarmed job, matches an unsliced run byte for byte.
    #[test]
    fn prewarmed_jobs_resume_from_the_journal_bit_identically() {
        let scratch = ScratchDir::new("prewarm");
        let journal = JobJournal::open(&scratch.0).unwrap();
        let configs = [
            short_config(1, 600, 400, true),
            short_config(2, 600, 400, true),
        ];
        let mut sim = Simulation::new(configs[0].clone()).unwrap();
        assert_eq!(sim.advance(250, None).unwrap(), RunStatus::Running);
        journal
            .store_checkpoint(&JobSpec::new(0, 0, configs[0].clone()), &sim)
            .unwrap();
        let queue = Arc::new(LiveQueue::new());
        for cfg in &configs {
            queue.push(0, cfg.clone()).unwrap();
        }
        queue.close();
        let sink = Arc::new(CollectingSink::new());
        let pool = WorkerPool::start(
            PoolConfig {
                workers: 1,
                time_slice: Some(250),
                max_live: 2,
                ..PoolConfig::default()
            },
            queue as Arc<dyn JobQueue>,
            Arc::clone(&sink) as Arc<dyn ResultSink>,
            Some(journal),
            None,
        );
        assert_eq!(pool.join().simulated, 2);
        for (index, result) in sink.take() {
            let Ok(JobOutput::Completed { outcome, .. }) = result else {
                panic!("job {index} must complete: {result:?}");
            };
            let direct = Simulation::new(configs[index].clone())
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(
                persist::outcome_to_bytes(&outcome).unwrap(),
                persist::outcome_to_bytes(&direct).unwrap(),
                "job {index}"
            );
        }
    }
}
