//! Wire-protocol robustness against a *live* daemon: the corruption
//! battery from `consim-snap`, transplanted to the socket. Every abusive
//! connection must yield a typed error (or a clean drop) on that
//! connection only — the daemon itself keeps serving.

use consim::engine::Simulation;
use consim::persist;
use consim_serve::daemon::{Daemon, DaemonConfig};
use consim_serve::net::Endpoint;
use consim_serve::proto::{read_frame, read_hello, write_frame, write_hello, Response, MAGIC};
use consim_serve::{Client, JobState, ServeError, StreamFrame};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Temp dir removed on drop (even on assertion failure).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("consim-serve-{tag}-{}", std::process::id()));
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

fn start_daemon(tag: &str) -> (Daemon, ScratchDir) {
    let scratch = ScratchDir::new(tag);
    let mut config = DaemonConfig::new(scratch.0.join("journal"));
    config.workers = 1;
    let daemon = Daemon::start(config).unwrap();
    (daemon, scratch)
}

fn raw_tcp(endpoint: &Endpoint) -> TcpStream {
    let Endpoint::Tcp(addr) = endpoint else {
        panic!("test daemon listens on TCP");
    };
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

fn test_config(seed: u64) -> consim::engine::SimulationConfig {
    let profile = consim_workload::WorkloadProfileBuilder::new("proto-test")
        .footprint_blocks(1_500)
        .build()
        .unwrap();
    let mut builder = consim::engine::SimulationConfig::builder();
    builder.workload(profile).refs_per_vm(400).seed(seed);
    builder.build().unwrap()
}

/// How long any test waits for a job to finish or a stream frame to
/// arrive. A job that never reaches a terminal state fails the test after
/// this instead of hanging it.
const WAIT: Duration = Duration::from_secs(120);

/// Polls `digest` until it completes and returns its outcome bytes; panics
/// if it is still pending after [`WAIT`].
fn poll_completed(client: &mut Client, digest: u64) -> Vec<u8> {
    let deadline = Instant::now() + WAIT;
    loop {
        let reply = client.status(digest).unwrap();
        match reply.state {
            JobState::Completed => return reply.outcome_bytes.unwrap(),
            JobState::Pending => {
                assert!(
                    Instant::now() < deadline,
                    "job {digest:016x} still pending after {WAIT:?}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("job {digest:016x} should complete, got {other:?}"),
        }
    }
}

/// Fails a test whose subscription went silent for [`WAIT`].
fn no_frame(err: ServeError) -> StreamFrame {
    panic!("no stream frame within {WAIT:?}: {err}")
}

/// The daemon must keep answering a well-behaved client after each kind
/// of wire abuse; each abusive connection dies alone.
#[test]
fn daemon_survives_the_corruption_battery() {
    let (daemon, _scratch) = start_daemon("battery");
    let endpoint = daemon.endpoint().clone();

    // 1. Wrong magic: dropped before any frame is interpreted.
    {
        let mut s = raw_tcp(&endpoint);
        s.write_all(b"BOGUS\0\0\0").unwrap();
        let mut buf = [0u8; 16];
        // Daemon hangs up without a hello of its own.
        assert_eq!(
            s.read(&mut buf).unwrap_or(0),
            0,
            "bad magic must be dropped"
        );
    }

    // 2. Wrong version: same quiet drop.
    {
        let mut s = raw_tcp(&endpoint);
        let mut hello = Vec::from(MAGIC);
        hello.extend_from_slice(&99u32.to_le_bytes());
        s.write_all(&hello).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(
            s.read(&mut buf).unwrap_or(0),
            0,
            "bad version must be dropped"
        );
    }

    // 3. Oversized length prefix: typed error response, then close.
    {
        let mut s = raw_tcp(&endpoint);
        write_hello(&mut s).unwrap();
        read_hello(&mut s).unwrap();
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let reply = read_frame(&mut s).unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Error { message } => {
                assert!(
                    message.contains("frame"),
                    "names the framing problem: {message}"
                );
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    // 4. Truncated frame: length promises more than the peer sends.
    {
        let mut s = raw_tcp(&endpoint);
        write_hello(&mut s).unwrap();
        read_hello(&mut s).unwrap();
        s.write_all(&64u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        // Mid-frame disconnect.
        drop(s);
    }

    // 5. Unknown message tag inside a well-formed frame.
    {
        let mut s = raw_tcp(&endpoint);
        write_hello(&mut s).unwrap();
        read_hello(&mut s).unwrap();
        write_frame(&mut s, &[0xEE, 1, 2, 3]).unwrap();
        let reply = read_frame(&mut s).unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Error { message } => {
                assert!(message.contains("tag"), "names the unknown tag: {message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    // 6. Zero-length frame: refused as malformed.
    {
        let mut s = raw_tcp(&endpoint);
        write_hello(&mut s).unwrap();
        read_hello(&mut s).unwrap();
        s.write_all(&0u32.to_le_bytes()).unwrap();
        let reply = read_frame(&mut s).unwrap();
        assert!(matches!(
            Response::decode(&reply).unwrap(),
            Response::Error { .. }
        ));
    }

    // After all of that: the daemon still speaks to a polite client.
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();
    client.shutdown().unwrap();
    daemon.wait();
}

/// The full request vocabulary against one live daemon: submit runs to
/// completion, status reports it, subscribe streams a terminal frame,
/// cancel of an unknown digest is a remote error, drain refuses new
/// submissions, duplicate submissions dedupe by digest.
#[test]
fn graceful_session_covers_every_request() {
    let (daemon, _scratch) = start_daemon("graceful");
    let endpoint = daemon.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    client.ping().unwrap();

    let config = test_config(11);
    let ack = client.submit(0, &config).unwrap();
    assert!(!ack.duplicate);
    let again = client.submit(0, &config).unwrap();
    assert!(again.duplicate, "same config must dedupe by digest");
    assert_eq!(again.digest, ack.digest);

    // Unknown digest: typed remote errors, connection stays usable.
    assert!(client.cancel(ack.digest ^ 1).is_err());
    client.ping().unwrap();
    let unknown = client.status(ack.digest ^ 1).unwrap();
    assert_eq!(unknown.state, JobState::Unknown);

    let outcome_bytes = poll_completed(&mut client, ack.digest);
    assert!(!outcome_bytes.is_empty());

    // Subscribing to a finished job yields its terminal frame at once.
    let mut sub = Client::connect(&endpoint).unwrap();
    sub.subscribe(ack.digest).unwrap();
    match sub.next_stream_frame().unwrap() {
        StreamFrame::Done { state, outcome } => {
            assert_eq!(state, JobState::Completed);
            assert_eq!(outcome.unwrap(), outcome_bytes, "stream and status agree");
        }
        StreamFrame::Event(_) => panic!("terminal subscribe must skip straight to Done"),
    }

    // Drain: admission stops, the daemon still answers.
    client.drain().unwrap();
    assert!(client.submit(1, &test_config(12)).is_err());
    client.ping().unwrap();
    client.shutdown().unwrap();
    daemon.wait();
}

/// Prewarmed submissions that differ only in `refs_per_vm` share one
/// prewarm key; each fills its LLC banks in its own first slice and
/// matches an in-process run byte for byte.
#[test]
fn daemon_serves_prewarmed_submissions() {
    let (daemon, _scratch) = start_daemon("prewarm");
    let mut client = Client::connect(daemon.endpoint()).unwrap();
    let configs: Vec<_> = [400, 700]
        .into_iter()
        .map(|refs| {
            let mut config = test_config(31);
            config.refs_per_vm = refs;
            config.prewarm_llc = true;
            config
        })
        .collect();
    assert_eq!(
        persist::prewarm_key(&configs[0]),
        persist::prewarm_key(&configs[1])
    );
    let acks: Vec<_> = configs
        .iter()
        .map(|config| client.submit(0, config).unwrap())
        .collect();
    for (config, ack) in configs.iter().zip(&acks) {
        let served = poll_completed(&mut client, ack.digest);
        let direct = Simulation::new(config.clone()).unwrap().run().unwrap();
        assert_eq!(served, persist::outcome_to_bytes(&direct).unwrap());
    }
    client.shutdown().unwrap();
    daemon.wait();
}

/// A subscriber attached while the job is still running sees live epoch
/// events before the terminal frame.
#[test]
fn subscribe_streams_live_epoch_events() {
    let scratch = ScratchDir::new("stream");
    let mut config = DaemonConfig::new(scratch.0.join("journal"));
    config.workers = 1;
    // Small epochs so even a short job emits several snapshots.
    config.epoch_cycles = 2_000;
    let daemon = Daemon::start(config).unwrap();
    let endpoint = daemon.endpoint().clone();

    let mut client = Client::connect(&endpoint).unwrap();
    client.set_timeout(Some(WAIT)).unwrap();
    let ack = client.submit(0, &test_config(23)).unwrap();
    client.subscribe(ack.digest).unwrap();
    let mut events = 0usize;
    let done = loop {
        match client.next_stream_frame().unwrap_or_else(no_frame) {
            StreamFrame::Event(json) => {
                assert!(json.starts_with('{'), "events are JSON objects: {json}");
                events += 1;
            }
            StreamFrame::Done { state, .. } => break state,
        }
    };
    assert_eq!(done, JobState::Completed);
    assert!(events > 0, "a live subscriber must see epoch snapshots");

    let mut client = Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    daemon.wait();
}

/// A subscriber that hangs up while a dynamic-QoS job runs leaves the job
/// whole: the job's sink stops wanting epoch snapshots partway through
/// measurement, the job still completes with the in-process outcome, and
/// the daemon keeps answering.
#[test]
fn subscriber_hanging_up_mid_run_leaves_a_qos_job_whole() {
    let (daemon, _scratch) = start_daemon("hangup");
    let endpoint = daemon.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    // Two long jobs keep the one worker busy, so the QoS job is still
    // queued when the subscriber attaches and measurement starts with the
    // sink wanting epochs.
    for seed in [50, 51] {
        let mut blocker = test_config(seed);
        blocker.refs_per_vm = 150_000;
        client.submit(0, &blocker).unwrap();
    }
    let policy = consim_types::config::DynamicPolicy {
        epoch_interval: 5_000,
        ..Default::default()
    };
    let machine = consim_types::config::MachineConfig::paper_default()
        .with_llc_partitioning(consim_types::LlcPartitioning::Dynamic(policy));
    let mut builder = consim::engine::SimulationConfig::builder();
    builder
        .machine(machine)
        .workload_instances(&test_config(52).workloads[0], 2)
        .refs_per_vm(20_000)
        .warmup_refs_per_vm(0)
        .seed(52);
    let qos = builder.build().unwrap();
    let ack = client.submit(0, &qos).unwrap();
    {
        let mut sub = Client::connect(&endpoint).unwrap();
        sub.set_timeout(Some(WAIT)).unwrap();
        sub.subscribe(ack.digest).unwrap();
        match sub.next_stream_frame().unwrap_or_else(no_frame) {
            StreamFrame::Event(_) => {}
            StreamFrame::Done { state, .. } => {
                panic!("the QoS job ended before streaming: {state:?}")
            }
        }
        // Dropping `sub` hangs up mid-run.
    }
    let served = poll_completed(&mut client, ack.digest);
    let direct = Simulation::new(qos).unwrap().run().unwrap();
    assert_eq!(served, persist::outcome_to_bytes(&direct).unwrap());
    client.ping().unwrap();
    client.shutdown().unwrap();
    daemon.wait();
}

/// Cancelling a pending job reaches a terminal state that a subscriber
/// also observes.
#[test]
fn cancel_terminates_and_notifies_subscribers() {
    let (daemon, _scratch) = start_daemon("cancel");
    let endpoint = daemon.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    // A queue of jobs keeps the last one pending long enough to cancel.
    let mut digests = Vec::new();
    for seed in 30..34 {
        digests.push(client.submit(0, &test_config(seed)).unwrap().digest);
    }
    let target = *digests.last().unwrap();
    let mut sub = Client::connect(&endpoint).unwrap();
    sub.set_timeout(Some(WAIT)).unwrap();
    sub.subscribe(target).unwrap();
    client.cancel(target).unwrap();
    let state = loop {
        match sub.next_stream_frame().unwrap_or_else(no_frame) {
            StreamFrame::Event(_) => {}
            StreamFrame::Done { state, .. } => break state,
        }
    };
    // The cancel races job start; either way the subscriber got a
    // terminal frame and the daemon agrees with it.
    assert!(
        state == JobState::Cancelled || state == JobState::Completed,
        "unexpected terminal state {state:?}"
    );
    let reply = client.status(target).unwrap();
    assert_eq!(reply.state, state);
    client.shutdown().unwrap();
    daemon.wait();
}

/// `Submit` is refused with a typed error when the daemon is draining —
/// and the spec record is not left behind to resurrect on restart.
#[test]
fn drained_daemon_refuses_submissions_without_journaling_them() {
    let scratch = ScratchDir::new("drain-refuse");
    let journal_dir = scratch.0.join("journal");
    let daemon = Daemon::start(DaemonConfig::new(&journal_dir)).unwrap();
    let endpoint = daemon.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    client.drain().unwrap();
    let err = client.submit(0, &test_config(40)).unwrap_err();
    assert!(
        err.to_string().contains("drain"),
        "names the refusal: {err}"
    );
    let specs: Vec<_> = std::fs::read_dir(&journal_dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "spec"))
        .collect();
    assert!(
        specs.is_empty(),
        "refused submissions must not be journaled"
    );
    client.ping().unwrap();
    client.shutdown().unwrap();
    daemon.wait();
}
