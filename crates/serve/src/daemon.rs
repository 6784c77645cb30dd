//! The daemon: a socket front-end over the `consim-job` layer.
//!
//! Architecture (one paragraph): an accept loop hands each connection to
//! its own thread; request handlers translate protocol frames into
//! operations on a shared registry (digest → job entry), an open-ended
//! [`LiveQueue`], and the persistent [`WorkerPool`] executing jobs in
//! `advance()` time slices. Completions flow back through a streaming
//! [`ResultSink`] that updates the registry and pushes terminal frames to
//! subscribers. Every layer under the socket already existed; the daemon
//! adds only the wire.
//!
//! Durability invariant — *an acknowledged submission is never lost*: the
//! handler journals a `job-<digest>.spec` record **before** replying
//! `Submitted`, so whatever dies afterwards, [`Daemon::start`] of the
//! next incarnation re-enqueues every journaled submission. Completed
//! jobs are then served from their `job-<digest>.bin` records without
//! re-simulating; in-flight jobs resume from `job-<digest>.ckpt`, losing
//! at most one time slice. Results are bit-identical either way because a
//! job's outcome is a pure function of its configuration and
//! checkpointing is bit-transparent.
//!
//! Liveness: `Subscribe` attaches a per-connection [`TraceSink`] to the
//! job's per-job [`BroadcastSink`]. With zero subscribers the broadcast
//! wants no event classes, so the engine keeps its non-instrumented fast
//! loop; a subscriber arriving mid-run takes effect at the job's next
//! time slice.

use crate::net::{Endpoint, EndpointSpec, Listener, ServeStream};
use crate::proto::{
    read_frame, read_hello, write_frame, write_hello, JobState, Request, Response, ServeError,
};
use consim::engine::{SimulationConfig, TraceConfig};
use consim::persist;
use consim_job::{
    JobJournal, JobOutput, JobQueue, JobSpec, LiveQueue, PoolConfig, ResultSink, WorkerPool,
};
use consim_trace::{BroadcastSink, EventClass, TraceEvent, TraceSink};
use consim_types::{FastHashMap, SimError};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// How long one response/event write may block before the connection is
/// written off as dead. Bounds the damage a stalled subscriber can do.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Everything configurable about one daemon incarnation.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where to listen.
    pub endpoint: EndpointSpec,
    /// Journal directory — the durable state shared across incarnations.
    pub journal_dir: PathBuf,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Accesses per `advance()` slice (preemption granularity).
    pub time_slice: Option<u64>,
    /// Checkpoint interval in accesses (crash-loss bound).
    pub checkpoint_every: Option<u64>,
    /// Epoch-snapshot interval (cycles) for subscribed jobs.
    pub epoch_cycles: u64,
    /// Fault injection: exit like a crash after this many simulated
    /// completions (`CONSIM_FAULT=jobs:K`).
    pub fault_after: Option<u64>,
}

impl DaemonConfig {
    /// A daemon on an ephemeral localhost TCP port over `journal_dir`.
    pub fn new(journal_dir: impl Into<PathBuf>) -> Self {
        Self {
            endpoint: EndpointSpec::Tcp("127.0.0.1:0".into()),
            journal_dir: journal_dir.into(),
            workers: 2,
            time_slice: Some(2_000),
            checkpoint_every: Some(2_000),
            epoch_cycles: 20_000,
            fault_after: None,
        }
    }
}

/// Why [`Daemon::wait`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonOutcome {
    /// A client sent `Shutdown`; the backlog was stranded (journaled
    /// submissions survive), in-flight jobs finished and journaled.
    Shutdown,
    /// The fault injector tripped — the simulated-crash exit. In-flight
    /// jobs were journaled; the backlog survives as submission records.
    Faulted,
}

/// One job as the registry tracks it.
#[derive(Debug)]
struct JobEntry {
    index: usize,
    state: EntryState,
    broadcast: Arc<BroadcastSink>,
    /// Subscribed connections awaiting the terminal frame.
    watchers: Vec<Watcher>,
}

#[derive(Debug, Clone)]
enum EntryState {
    Pending,
    Completed { outcome: Arc<Vec<u8>> },
    Cancelled,
    Failed { message: String },
    Abandoned,
}

#[derive(Debug)]
struct Watcher {
    writer: Arc<Mutex<ServeStream>>,
    token: u64,
}

/// State shared by connection handlers, the result sink, and `wait()`.
#[derive(Debug)]
struct Shared {
    queue: Arc<LiveQueue>,
    journal: JobJournal,
    jobs: Mutex<FastHashMap<u64, JobEntry>>,
    pool: Mutex<Option<WorkerPool>>,
    epoch_cycles: u64,
    stop: Mutex<StopState>,
    stop_wake: Condvar,
}

#[derive(Debug, Default)]
struct StopState {
    shutdown: bool,
    draining: bool,
}

impl Shared {
    /// Registers `config` under its digest if new, journaling the
    /// submission record *before* the queue sees it. Returns
    /// `(digest, index, duplicate)`.
    fn submit(
        &self,
        cell: usize,
        mut config: SimulationConfig,
    ) -> Result<(u64, usize, bool), ServeError> {
        let broadcast = Arc::new(BroadcastSink::new());
        config.trace = Some(TraceConfig {
            sink: Arc::clone(&broadcast) as Arc<dyn TraceSink>,
            epoch_cycles: self.epoch_cycles,
            coherence_sample: 64,
        });
        // The trace sink is excluded from the content digest, so the wire
        // config, the journaled spec, and this instrumented copy all name
        // the same job.
        let spec = JobSpec::new(0, cell, config);
        let digest = spec.digest();
        let mut jobs = self.jobs.lock().expect("job registry poisoned");
        if let Some(entry) = jobs.get(&digest) {
            return Ok((digest, entry.index, true));
        }
        self.journal.store_spec(&spec)?;
        let Some(index) = self.queue.push(cell, spec.config().clone()) else {
            // Closed queue: draining or winding down. The spec record
            // must not promise a job this incarnation will never run.
            self.journal.discard_spec(&spec);
            return Err(ServeError::Remote(
                "daemon is draining; submission refused".into(),
            ));
        };
        jobs.insert(
            digest,
            JobEntry {
                index,
                state: EntryState::Pending,
                broadcast,
                watchers: Vec::new(),
            },
        );
        Ok((digest, index, false))
    }

    fn status(&self, digest: u64) -> Response {
        let jobs = self.jobs.lock().expect("job registry poisoned");
        match jobs.get(&digest).map(|e| &e.state) {
            None => Response::JobStatus {
                state: JobState::Unknown,
                outcome: None,
                message: None,
            },
            Some(EntryState::Pending) => Response::JobStatus {
                state: JobState::Pending,
                outcome: None,
                message: None,
            },
            Some(EntryState::Completed { outcome }) => Response::JobStatus {
                state: JobState::Completed,
                outcome: Some(outcome.as_ref().clone()),
                message: None,
            },
            Some(EntryState::Cancelled) => Response::JobStatus {
                state: JobState::Cancelled,
                outcome: None,
                message: None,
            },
            Some(EntryState::Failed { message }) => Response::JobStatus {
                state: JobState::Failed,
                outcome: None,
                message: Some(message.clone()),
            },
            Some(EntryState::Abandoned) => Response::JobStatus {
                state: JobState::Abandoned,
                outcome: None,
                message: None,
            },
        }
    }

    fn cancel(&self, digest: u64) -> Response {
        let jobs = self.jobs.lock().expect("job registry poisoned");
        match jobs.get(&digest) {
            None => Response::Error {
                message: format!("unknown job {digest:016x}"),
            },
            Some(entry) => {
                if matches!(entry.state, EntryState::Pending) {
                    if let Some(pool) = self.pool.lock().expect("pool poisoned").as_ref() {
                        pool.cancel(entry.index);
                    }
                }
                // Terminal states ack too: cancelling a finished job is a
                // no-op, not an error.
                Response::Ack
            }
        }
    }

    /// The terminal state of a job, if it reached one.
    fn terminal(state: &EntryState) -> Option<(JobState, Option<Vec<u8>>)> {
        match state {
            EntryState::Pending => None,
            EntryState::Completed { outcome } => {
                Some((JobState::Completed, Some(outcome.as_ref().clone())))
            }
            EntryState::Cancelled => Some((JobState::Cancelled, None)),
            EntryState::Failed { .. } => Some((JobState::Failed, None)),
            EntryState::Abandoned => Some((JobState::Abandoned, None)),
        }
    }
}

/// The streaming result sink: updates the registry and delivers terminal
/// frames to subscribers. Holds the shared state weakly — the pool owns
/// an `Arc` of this sink, and the shared state owns the pool, so a strong
/// reference here would leak the whole daemon.
#[derive(Debug)]
struct RegistrySink {
    shared: Weak<Shared>,
}

impl ResultSink for RegistrySink {
    fn job_finished(&self, job: &JobSpec, result: Result<JobOutput, SimError>) {
        let Some(shared) = self.shared.upgrade() else {
            return;
        };
        let state = match result {
            Ok(JobOutput::Completed { outcome, .. }) => match persist::outcome_to_bytes(&outcome) {
                Ok(bytes) => EntryState::Completed {
                    outcome: Arc::new(bytes),
                },
                Err(e) => EntryState::Failed {
                    message: e.to_string(),
                },
            },
            Ok(JobOutput::Cancelled) => EntryState::Cancelled,
            Ok(JobOutput::Abandoned) => EntryState::Abandoned,
            Err(e) => EntryState::Failed {
                message: e.to_string(),
            },
        };
        // Cancelled and failed jobs must not resurrect on restart; their
        // spec records go. Completed jobs keep theirs — the journal's
        // outcome record makes the restart re-enqueue free. Abandoned
        // jobs keep theirs too: resurrection is the whole point.
        match &state {
            EntryState::Cancelled | EntryState::Failed { .. } => shared.journal.discard_spec(job),
            _ => {}
        }
        let watchers = {
            let mut jobs = shared.jobs.lock().expect("job registry poisoned");
            let Some(entry) = jobs.get_mut(&job.digest()) else {
                return;
            };
            entry.state = state.clone();
            std::mem::take(&mut entry.watchers)
        };
        // Deliver terminal frames outside the registry lock: a slow
        // subscriber socket must not stall every other handler.
        if let Some((job_state, outcome)) = Shared::terminal(&state) {
            let frame = Response::Done {
                state: job_state,
                outcome,
            }
            .encode();
            for watcher in watchers {
                let Some(shared) = self.shared.upgrade() else {
                    return;
                };
                if let Some(entry) = shared
                    .jobs
                    .lock()
                    .expect("job registry poisoned")
                    .get(&job.digest())
                {
                    entry.broadcast.unsubscribe(watcher.token);
                }
                let mut w = watcher.writer.lock().expect("connection writer poisoned");
                let _ = write_frame(&mut *w, &frame);
            }
        }
    }
}

/// A per-connection trace sink: forwards low-volume event classes as
/// [`Response::Event`] frames. Lossy by design — a contended or dead
/// connection drops snapshots rather than stalling the worker that
/// produced them; the terminal `Done` frame is delivered reliably by the
/// result sink instead.
#[derive(Debug)]
struct ConnSink {
    writer: Arc<Mutex<ServeStream>>,
    dead: AtomicBool,
}

impl TraceSink for ConnSink {
    fn record(&self, event: &TraceEvent) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let frame = Response::Event {
            json: event.to_json(),
        }
        .encode();
        if let Ok(mut w) = self.writer.try_lock() {
            if write_frame(&mut *w, &frame).is_err() {
                self.dead.store(true, Ordering::Relaxed);
            }
        }
    }

    fn wants(&self, class: EventClass) -> bool {
        !self.dead.load(Ordering::Relaxed)
            && matches!(class, EventClass::Epoch | EventClass::Lifecycle)
    }
}

/// A running daemon. Start with [`Daemon::start`]; block on
/// [`Daemon::wait`] until a shutdown request or fault.
#[derive(Debug)]
pub struct Daemon {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept: std::thread::JoinHandle<()>,
    accept_stop: Arc<AtomicBool>,
}

impl Daemon {
    /// Opens the journal, re-enqueues every journaled submission (crash
    /// recovery), starts the worker pool, binds the socket, and begins
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the journal or socket cannot be
    /// opened, or a journaled submission record is corrupt.
    pub fn start(config: DaemonConfig) -> Result<Daemon, ServeError> {
        let journal = JobJournal::open(&config.journal_dir)?;
        let queue = Arc::new(LiveQueue::new());
        let shared = Arc::new(Shared {
            queue: Arc::clone(&queue),
            journal: journal.clone(),
            jobs: Mutex::new(FastHashMap::default()),
            pool: Mutex::new(None),
            epoch_cycles: config.epoch_cycles,
            stop: Mutex::new(StopState::default()),
            stop_wake: Condvar::new(),
        });
        // Crash recovery: everything submitted-but-not-cancelled in any
        // earlier incarnation re-enters the queue. Completed jobs are
        // served from their outcome records without re-simulating;
        // half-run jobs resume their checkpoints inside the pool.
        for (cell, config) in journal.load_specs()? {
            let (_digest, _index, duplicate) = shared.submit_recovered(cell, config)?;
            debug_assert!(!duplicate, "journal digests are unique by construction");
        }
        let sink = Arc::new(RegistrySink {
            shared: Arc::downgrade(&shared),
        });
        let pool = WorkerPool::start(
            PoolConfig {
                workers: config.workers.max(1),
                time_slice: config.time_slice,
                max_live: 2,
                checkpoint_every: config.checkpoint_every,
                fault_after: config.fault_after,
            },
            Arc::clone(&queue) as Arc<dyn JobQueue>,
            sink as Arc<dyn ResultSink>,
            Some(journal),
            None,
        );
        *shared.pool.lock().expect("pool poisoned") = Some(pool);
        let (listener, endpoint) = Listener::bind(&config.endpoint)?;
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&accept_stop);
            std::thread::Builder::new()
                .name("consim-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &stop))
                .expect("spawn accept thread")
        };
        Ok(Daemon {
            shared,
            endpoint,
            accept,
            accept_stop,
        })
    }

    /// The concrete endpoint clients should dial.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Blocks until a `Shutdown` request arrives or the fault injector
    /// trips, then winds down: strands the backlog (reported
    /// [`JobOutput::Abandoned`]; submission records survive on disk),
    /// joins the pool (in-flight jobs finish and journal), and stops
    /// accepting.
    pub fn wait(self) -> DaemonOutcome {
        let outcome = loop {
            let stop = self.shared.stop.lock().expect("stop state poisoned");
            if stop.shutdown {
                break DaemonOutcome::Shutdown;
            }
            let faulted = {
                let pool = self.shared.pool.lock().expect("pool poisoned");
                pool.as_ref().map(WorkerPool::faulted).unwrap_or(false)
            };
            if faulted {
                break DaemonOutcome::Faulted;
            }
            let (_guard, _timeout) = self
                .shared
                .stop_wake
                .wait_timeout(stop, Duration::from_millis(100))
                .expect("stop state poisoned");
        };
        // Strand the backlog explicitly on shutdown (on fault the pool
        // already closed the queue; join() reports its strands).
        let stranded = self.shared.queue.abandon();
        let pool = self
            .shared
            .pool
            .lock()
            .expect("pool poisoned")
            .take()
            .expect("pool present until wind-down");
        for job in &stranded {
            // Reported through the same sink path a pool drain uses, so
            // subscribers get their terminal frame either way.
            RegistrySink {
                shared: Arc::downgrade(&self.shared),
            }
            .job_finished(job, Ok(JobOutput::Abandoned));
        }
        pool.join();
        // Unblock the accept loop with a no-op connection to ourselves.
        self.accept_stop.store(true, Ordering::Relaxed);
        let _ = self.endpoint.connect();
        let _ = self.accept.join();
        outcome
    }
}

impl Shared {
    /// [`Shared::submit`] minus the spec write — the record already
    /// exists; writing it again would be wasted I/O on every restart.
    fn submit_recovered(
        &self,
        cell: usize,
        mut config: SimulationConfig,
    ) -> Result<(u64, usize, bool), ServeError> {
        let broadcast = Arc::new(BroadcastSink::new());
        config.trace = Some(TraceConfig {
            sink: Arc::clone(&broadcast) as Arc<dyn TraceSink>,
            epoch_cycles: self.epoch_cycles,
            coherence_sample: 64,
        });
        let spec = JobSpec::new(0, cell, config);
        let digest = spec.digest();
        let mut jobs = self.jobs.lock().expect("job registry poisoned");
        if let Some(entry) = jobs.get(&digest) {
            return Ok((digest, entry.index, true));
        }
        let Some(index) = self.queue.push(cell, spec.config().clone()) else {
            return Err(ServeError::Remote("queue closed during recovery".into()));
        };
        jobs.insert(
            digest,
            JobEntry {
                index,
                state: EntryState::Pending,
                broadcast,
                watchers: Vec::new(),
            },
        );
        Ok((digest, index, false))
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener, stop: &AtomicBool) {
    loop {
        match listener.accept() {
            Ok(stream) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let shared = Arc::clone(shared);
                std::thread::Builder::new()
                    .name("consim-serve-conn".into())
                    .spawn(move || handle_connection(&shared, stream))
                    .expect("spawn connection thread");
            }
            Err(_) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted connection):
                // stay alive; clients retry.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Serves one connection until it closes or sends something unspeakable.
/// Never panics: every protocol violation is answered (best-effort) with
/// a typed [`Response::Error`] and a close of *this* connection only.
fn handle_connection(shared: &Arc<Shared>, stream: ServeStream) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(writer));
    let mut reader = stream;
    // Handshake: the client speaks first; a non-protocol peer is dropped
    // before any frame is interpreted.
    if read_hello(&mut reader).is_err() {
        return;
    }
    {
        let mut w = writer.lock().expect("connection writer poisoned");
        if write_hello(&mut *w).is_err() {
            return;
        }
    }
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            Err(ServeError::Disconnected) => return,
            Err(e) => {
                // Truncated/oversized/garbage framing: name the problem,
                // then hang up — the stream offset can no longer be
                // trusted.
                respond(
                    &writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => {
                respond(
                    &writer,
                    &Response::Error {
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        match request {
            Request::Ping => respond(&writer, &Response::Pong),
            Request::Submit { cell, config } => {
                let response = match persist::config_from_bytes(&config) {
                    Err(e) => Response::Error {
                        message: format!("bad config record: {e}"),
                    },
                    Ok(config) => match shared.submit(cell as usize, config) {
                        Ok((digest, index, duplicate)) => Response::Submitted {
                            digest,
                            index: index as u64,
                            duplicate,
                        },
                        Err(e) => Response::Error {
                            message: e.to_string(),
                        },
                    },
                };
                respond(&writer, &response);
            }
            Request::Status { digest } => {
                let response = shared.status(digest);
                respond(&writer, &response);
            }
            Request::Cancel { digest } => {
                let response = shared.cancel(digest);
                respond(&writer, &response);
            }
            Request::Subscribe { digest } => {
                let mut jobs = shared.jobs.lock().expect("job registry poisoned");
                match jobs.get_mut(&digest) {
                    None => {
                        drop(jobs);
                        respond(
                            &writer,
                            &Response::Error {
                                message: format!("unknown job {digest:016x}"),
                            },
                        );
                    }
                    Some(entry) => match Shared::terminal(&entry.state) {
                        Some((state, outcome)) => {
                            drop(jobs);
                            respond(&writer, &Response::Ack);
                            respond(&writer, &Response::Done { state, outcome });
                        }
                        None => {
                            // Register before acking so no event between
                            // ack and registration is lost. The writer
                            // mutex orders the ack ahead of any event the
                            // sink races in. (The registry lock is held
                            // across the ack; the sink never takes the
                            // writer lock while holding the registry
                            // lock, so this cannot deadlock.)
                            let sink = Arc::new(ConnSink {
                                writer: Arc::clone(&writer),
                                dead: AtomicBool::new(false),
                            });
                            let token = entry.broadcast.subscribe(sink as Arc<dyn TraceSink>);
                            entry.watchers.push(Watcher {
                                writer: Arc::clone(&writer),
                                token,
                            });
                            respond(&writer, &Response::Ack);
                        }
                    },
                }
            }
            Request::Drain => {
                {
                    let mut stop = shared.stop.lock().expect("stop state poisoned");
                    stop.draining = true;
                }
                // Close = drain: the backlog still runs; only admission
                // stops (LiveQueue::push now refuses).
                shared.queue.close();
                respond(&writer, &Response::Ack);
            }
            Request::Shutdown => {
                respond(&writer, &Response::Ack);
                let mut stop = shared.stop.lock().expect("stop state poisoned");
                stop.shutdown = true;
                shared.stop_wake.notify_all();
                return;
            }
        }
    }
}

/// Best-effort response write; a dead connection is the reader loop's
/// problem to notice, not ours to unwind through.
fn respond(writer: &Arc<Mutex<ServeStream>>, response: &Response) {
    let mut w = writer.lock().expect("connection writer poisoned");
    let frame = response.encode();
    if write_frame(&mut *w, &frame).is_ok() {
        let _ = w.flush();
    }
}
