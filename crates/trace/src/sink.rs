//! Trace sinks: where events go.
//!
//! Producers hold an `Option<Arc<dyn TraceSink>>` and call
//! [`TraceSink::record`] behind a single `if let Some(..)` branch, so the
//! disabled path costs one predictable branch and no allocation.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::{ClassMask, EventClass, TraceEvent};

/// Destination for [`TraceEvent`]s.
///
/// Implementations must be thread-safe: the experiment runner records from
/// multiple worker threads into one shared sink. `Debug` is a supertrait so
/// configs holding `Arc<dyn TraceSink>` can keep `#[derive(Debug)]`.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Records one event. Must not panic on I/O failure — degrade by
    /// dropping the event and counting it instead.
    fn record(&self, event: &TraceEvent);

    /// Whether the sink wants events of `class` at all. Producers on hot
    /// paths may check this once and skip constructing events entirely.
    fn wants(&self, class: EventClass) -> bool {
        let _ = class;
        true
    }
}

/// A sink that discards everything; useful as an explicit "off" value.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}

    fn wants(&self, _class: EventClass) -> bool {
        false
    }
}

/// A bounded in-memory recorder keeping the most recent events.
///
/// When full, the oldest event is evicted and counted in
/// [`RingBufferSink::dropped`]. Intended for tests and interactive
/// debugging, not for full-run capture.
#[derive(Debug)]
pub struct RingBufferSink {
    inner: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingBufferSink {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            inner: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ring sink poisoned").events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("ring sink poisoned").dropped
    }

    /// Copies the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .expect("ring sink poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.inner
            .lock()
            .expect("ring sink poisoned")
            .events
            .drain(..)
            .collect()
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, event: &TraceEvent) {
        let mut ring = self.inner.lock().expect("ring sink poisoned");
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event.clone());
    }
}

/// An append-only JSONL file writer with a per-class filter.
///
/// Each recorded event becomes one line of JSON. High-volume classes
/// ([`EventClass::Coherence`], [`EventClass::NocStall`]) are excluded by the
/// default mask; pass [`ClassMask::ALL`] to capture them. I/O errors never
/// panic — failed writes are counted and reported by [`JsonlSink::errors`].
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<Writer>,
    mask: ClassMask,
}

#[derive(Debug)]
struct Writer {
    out: BufWriter<File>,
    lines: u64,
    errors: u64,
}

impl JsonlSink {
    /// Creates (truncating) `path` with the default low-volume mask.
    pub fn create(path: &Path) -> io::Result<Self> {
        Self::with_mask(path, ClassMask::default())
    }

    /// Creates (truncating) `path` recording only classes in `mask`.
    pub fn with_mask(path: &Path, mask: ClassMask) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(Writer {
                out: BufWriter::new(file),
                lines: 0,
                errors: 0,
            }),
            mask,
        })
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.writer.lock().expect("jsonl sink poisoned").lines
    }

    /// Write failures so far (events dropped, never panicked on).
    pub fn errors(&self) -> u64 {
        self.writer.lock().expect("jsonl sink poisoned").errors
    }

    /// Flushes buffered lines to the file.
    pub fn flush(&self) -> io::Result<()> {
        self.writer.lock().expect("jsonl sink poisoned").out.flush()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        if !self.mask.contains(event.class()) {
            return;
        }
        let line = event.to_json();
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        match writeln!(w.out, "{line}") {
            Ok(()) => w.lines += 1,
            Err(_) => w.errors += 1,
        }
    }

    fn wants(&self, class: EventClass) -> bool {
        self.mask.contains(class)
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(w) = self.writer.get_mut() {
            let _ = w.out.flush();
        }
    }
}

/// A fan-out sink whose subscriber set changes at runtime.
///
/// A long-running producer (a daemon executing jobs on a worker pool) can
/// attach one `BroadcastSink` per job up front and let observers come and
/// go mid-run: [`BroadcastSink::subscribe`] registers a downstream sink,
/// the returned token [`BroadcastSink::unsubscribe`]s it. With no
/// subscribers [`TraceSink::wants`] reports `false` for every class, so
/// producers that re-check `wants` where they would emit (the engine does
/// at each epoch boundary) build nothing until someone is actually
/// listening.
#[derive(Debug, Default)]
pub struct BroadcastSink {
    inner: Mutex<Broadcast>,
}

#[derive(Debug, Default)]
struct Broadcast {
    subscribers: Vec<(u64, std::sync::Arc<dyn TraceSink>)>,
    next_token: u64,
}

impl BroadcastSink {
    /// An empty broadcast (wants nothing until someone subscribes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `sink` to receive every subsequently recorded event it
    /// wants; returns a token for [`BroadcastSink::unsubscribe`].
    pub fn subscribe(&self, sink: std::sync::Arc<dyn TraceSink>) -> u64 {
        let mut inner = self.inner.lock().expect("broadcast sink poisoned");
        let token = inner.next_token;
        inner.next_token += 1;
        inner.subscribers.push((token, sink));
        token
    }

    /// Removes the subscriber registered under `token`; unknown tokens
    /// are a no-op (a completion race may remove it first).
    pub fn unsubscribe(&self, token: u64) {
        self.inner
            .lock()
            .expect("broadcast sink poisoned")
            .subscribers
            .retain(|(t, _)| *t != token);
    }

    /// Subscribers currently attached.
    pub fn subscriber_count(&self) -> usize {
        self.inner
            .lock()
            .expect("broadcast sink poisoned")
            .subscribers
            .len()
    }
}

impl TraceSink for BroadcastSink {
    fn record(&self, event: &TraceEvent) {
        // Clone the subscriber list out of the lock so a slow downstream
        // sink can't block subscribe/unsubscribe (or other recorders).
        let subscribers: Vec<std::sync::Arc<dyn TraceSink>> = self
            .inner
            .lock()
            .expect("broadcast sink poisoned")
            .subscribers
            .iter()
            .map(|(_, s)| std::sync::Arc::clone(s))
            .collect();
        let class = event.class();
        for sink in subscribers {
            if sink.wants(class) {
                sink.record(event);
            }
        }
    }

    fn wants(&self, class: EventClass) -> bool {
        self.inner
            .lock()
            .expect("broadcast sink poisoned")
            .subscribers
            .iter()
            .any(|(_, s)| s.wants(class))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn lifecycle(seed: u64) -> TraceEvent {
        TraceEvent::AuditPassed { seed, checks: 1 }
    }

    #[test]
    fn null_sink_wants_nothing() {
        let sink = NullSink;
        assert!(!sink.wants(EventClass::Lifecycle));
        sink.record(&lifecycle(0)); // no-op, must not panic
    }

    #[test]
    fn ring_buffer_keeps_most_recent_and_counts_drops() {
        let sink = RingBufferSink::new(3);
        assert!(sink.is_empty());
        for seed in 0..5 {
            sink.record(&lifecycle(seed));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let seeds: Vec<u64> = sink
            .snapshot()
            .into_iter()
            .map(|e| match e {
                TraceEvent::AuditPassed { seed, .. } => seed,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(seeds, vec![2, 3, 4]);
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn ring_buffer_capacity_floor_is_one() {
        let sink = RingBufferSink::new(0);
        sink.record(&lifecycle(1));
        sink.record(&lifecycle(2));
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn ring_buffer_is_shareable_across_threads() {
        let sink = Arc::new(RingBufferSink::new(1024));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let sink = Arc::clone(&sink);
                scope.spawn(move || {
                    for i in 0..50 {
                        sink.record(&lifecycle(t * 100 + i));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 200);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn broadcast_sink_wants_nothing_until_subscribed() {
        let b = BroadcastSink::new();
        assert!(!b.wants(EventClass::Epoch));
        b.record(&lifecycle(1)); // no subscribers: must not panic
        let ring = Arc::new(RingBufferSink::new(8));
        let token = b.subscribe(Arc::clone(&ring) as Arc<dyn TraceSink>);
        assert!(b.wants(EventClass::Epoch));
        assert_eq!(b.subscriber_count(), 1);
        b.record(&lifecycle(2));
        assert_eq!(ring.len(), 1);
        b.unsubscribe(token);
        assert!(!b.wants(EventClass::Epoch));
        b.record(&lifecycle(3));
        assert_eq!(ring.len(), 1, "unsubscribed sinks stop receiving");
        b.unsubscribe(token); // idempotent
    }

    #[test]
    fn broadcast_sink_filters_per_subscriber_class() {
        let b = BroadcastSink::new();
        b.subscribe(Arc::new(NullSink) as Arc<dyn TraceSink>);
        assert!(
            !b.wants(EventClass::Lifecycle),
            "a subscriber that wants nothing must not force instrumentation on"
        );
        let ring = Arc::new(RingBufferSink::new(8));
        b.subscribe(Arc::clone(&ring) as Arc<dyn TraceSink>);
        b.record(&lifecycle(5));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn jsonl_sink_writes_filtered_lines() {
        let dir = std::env::temp_dir().join("consim-trace-test-jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        assert!(sink.wants(EventClass::Epoch));
        assert!(!sink.wants(EventClass::Coherence));

        sink.record(&lifecycle(7));
        // Filtered out by the default mask:
        sink.record(&TraceEvent::NocStall {
            at: 1,
            src: 0,
            dst: 1,
            stall_cycles: 2,
        });
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 1);
        assert_eq!(sink.errors(), 0);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"audit_passed\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_sink_full_mask_records_firehose_classes() {
        let dir = std::env::temp_dir().join("consim-trace-test-jsonl-full");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::with_mask(&path, ClassMask::ALL).unwrap();
        sink.record(&TraceEvent::Coherence {
            request: 1,
            requester: 0,
            block: 42,
            kind: "write",
            source: "dirty_cache",
            invalidations: 1,
            writeback: true,
        });
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
