//! Fast packet-level mesh model with link contention.
//!
//! The full-system engine issues millions of coherence messages per run;
//! simulating each at flit granularity is intractable (the paper makes the
//! same observation about simulation time for many-core studies). This model
//! keeps the two properties the results depend on:
//!
//! 1. *Distance*: latency grows with XY hop count (router pipeline + link
//!    traversal per hop, plus tail serialization).
//! 2. *Contention*: each directed link carries one flit per `link_latency`
//!    cycles; packets occupy link time intervals and later packets must fit
//!    into the gaps, so traffic concentrated by affinity scheduling congests
//!    shared links while round-robin traffic spreads out.
//!
//! Reservations are *gap-aware*: each link keeps a short list of busy
//! intervals, and a packet takes the earliest gap at or after its ready
//! time. This makes the model robust to the engine's event ordering — a
//! transaction can reserve link time far in the future (e.g. after a memory
//! fetch) without falsely delaying packets that depart earlier but are
//! simulated later.

use crate::packet::Packet;
use crate::stats::NocStats;
use crate::topology::Mesh;
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_trace::{EventClass, TraceEvent, TraceSink};
use consim_types::{Cycle, SimError};
use std::collections::VecDeque;
use std::sync::Arc;

/// Busy intervals older than this (relative to the latest departure seen)
/// are pruned; the engine's event skew is bounded by one transaction
/// latency, far below this horizon.
const PRUNE_HORIZON: u64 = 100_000;

/// A reservation calendar: non-overlapping `(start, end)` busy intervals
/// sorted by start, with abutting intervals coalesced.
///
/// Used for every contended, serially-occupied resource in the simulator:
/// mesh links here, and memory-controller service slots in the engine.
/// Reservations are gap-aware, so out-of-order callers (the engine's event
/// interleaving) place early work into gaps before far-future reservations.
///
/// Three properties keep every operation cheap without changing any result:
///
/// * Sorted non-overlapping intervals have strictly increasing *ends*, so
///   both the first interval that can constrain a probe and the insertion
///   point binary-search instead of scanning from the front.
/// * A reservation that exactly abuts a neighbor extends it in place. The
///   set of busy cycles — the only thing `probe` observes — is identical,
///   but the back-to-back queueing the engine produces under load collapses
///   into a handful of intervals instead of one per packet, which is what
///   kept the old formulation's linear scans hot.
/// * The store is a ring buffer, so pruning expired intervals off the front
///   costs only the intervals dropped — not a shift of everything behind
///   them on every reservation.
///
/// # Examples
///
/// ```
/// use consim_noc::contention::ReservationCalendar;
///
/// let mut cal = ReservationCalendar::default();
/// assert_eq!(cal.reserve(10, 5, 0), 10); // [10, 15)
/// assert_eq!(cal.reserve(12, 5, 0), 15); // queues behind
/// assert_eq!(cal.reserve(0, 5, 0), 0);   // fits the gap before
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReservationCalendar {
    intervals: VecDeque<(u64, u64)>,
}

impl ReservationCalendar {
    /// Index of the first interval that can constrain a request ready at
    /// `ready`: intervals ending at or before `ready` never move the probe
    /// cursor (their start precedes their end, so the too-small-gap check
    /// cannot fire either). Ends are strictly increasing, so binary search.
    fn first_constraining(&self, ready: u64) -> usize {
        self.intervals.partition_point(|&(_, e)| e <= ready)
    }

    /// Finds the earliest start `>= ready` with `busy` free cycles, without
    /// reserving.
    fn probe(&self, ready: u64, busy: u64) -> u64 {
        let mut t = ready;
        for &(s, e) in self.intervals.range(self.first_constraining(ready)..) {
            if t + busy <= s {
                break;
            }
            t = t.max(e);
        }
        t
    }

    /// Reserves the earliest `busy`-cycle slot at or after `ready`; returns
    /// its start. Intervals ending before `prune_before` are dropped.
    pub fn reserve(&mut self, ready: u64, busy: u64, prune_before: u64) -> u64 {
        // Prune stale intervals from the front (ends are sorted).
        let keep_from = self.intervals.partition_point(|&(_, e)| e < prune_before);
        if keep_from > 0 {
            self.intervals.drain(..keep_from);
        }
        let start = self.probe(ready, busy);
        let end = start + busy;
        // `probe` guarantees [start, end) overlaps nothing, so the
        // predecessor ends at or before `start` and the successor starts at
        // or after `end`; coalesce where they abut exactly.
        let pos = self.intervals.partition_point(|&(s, _)| s <= start);
        let abuts_prev = pos > 0 && self.intervals[pos - 1].1 == start;
        let abuts_next = pos < self.intervals.len() && self.intervals[pos].0 == end;
        match (abuts_prev, abuts_next) {
            (true, true) => {
                self.intervals[pos - 1].1 = self.intervals[pos].1;
                self.intervals.remove(pos);
            }
            (true, false) => self.intervals[pos - 1].1 = end,
            (false, true) => self.intervals[pos].0 = start,
            (false, false) => self.intervals.insert(pos, (start, end)),
        }
        start
    }
}

/// Packet-level network model with per-link reservation calendars.
///
/// # Examples
///
/// ```
/// use consim_noc::{ContentionModel, Mesh, Packet};
/// use consim_types::{Cycle, NodeId};
///
/// let mut noc = ContentionModel::new(Mesh::new(4, 4)?, 1, 3);
/// let p = Packet::control(NodeId::new(0), NodeId::new(3));
/// let uncontended = noc.send(&p, Cycle::ZERO);
/// // 3 hops x (3-cycle router + 1-cycle link) = 12 cycles.
/// assert_eq!(uncontended.raw(), 12);
/// # Ok::<(), consim_types::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContentionModel {
    mesh: Mesh,
    link_latency: u64,
    router_pipeline: u64,
    links: Vec<ReservationCalendar>,
    /// Total busy cycles per link, for utilization reporting.
    link_busy: Vec<u64>,
    /// Latest departure time seen (drives interval pruning).
    latest_depart: u64,
    stats: NocStats,
    /// Optional trace sink for per-packet contention-stall events.
    trace: Option<Arc<dyn TraceSink>>,
}

impl ContentionModel {
    /// Creates a model for `mesh` with the given per-hop latencies.
    pub fn new(mesh: Mesh, link_latency: u64, router_pipeline: u64) -> Self {
        Self {
            mesh,
            link_latency: link_latency.max(1),
            router_pipeline,
            links: vec![ReservationCalendar::default(); mesh.num_link_slots()],
            link_busy: vec![0; mesh.num_link_slots()],
            latest_depart: 0,
            stats: NocStats::default(),
            trace: None,
        }
    }

    /// Installs (or clears) a trace sink receiving
    /// [`TraceEvent::NocStall`] events for packets that queue behind
    /// earlier link reservations.
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.trace = sink;
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Sends `packet` at `depart`; returns the cycle its tail flit arrives.
    ///
    /// Reserves link time along the packet's XY path, so other packets
    /// through the same links observe queueing delay.
    pub fn send(&mut self, packet: &Packet, depart: Cycle) -> Cycle {
        let flits = packet.flits() as u64;
        self.stats.injected += 1;
        self.latest_depart = self.latest_depart.max(depart.raw());
        let prune_before = self.latest_depart.saturating_sub(PRUNE_HORIZON);
        if packet.src == packet.dst {
            // Local delivery still pays one router traversal.
            let arrival = depart + self.router_pipeline;
            self.stats.record(packet, 0, arrival - depart);
            return arrival;
        }
        let mut head = depart;
        let mut hops = 0usize;
        let mut stall_cycles = 0u64;
        let mut at = packet.src;
        while at != packet.dst {
            let dir = self.mesh.route_xy(at, packet.dst);
            let link = self.mesh.link_index(at, dir);
            // Head waits for the router pipeline, then for a link slot.
            let ready = (head + self.router_pipeline).raw();
            let busy = flits * self.link_latency;
            let start = self.links[link].reserve(ready, busy, prune_before);
            stall_cycles += start - ready;
            self.link_busy[link] += busy;
            head = Cycle::new(start + self.link_latency);
            at = self.mesh.neighbor(at, dir).expect("XY route stays in mesh");
            hops += 1;
        }
        if stall_cycles > 0 {
            if let Some(sink) = &self.trace {
                if sink.wants(EventClass::NocStall) {
                    sink.record(&TraceEvent::NocStall {
                        at: depart.raw(),
                        src: packet.src.index() as u32,
                        dst: packet.dst.index() as u32,
                        stall_cycles,
                    });
                }
            }
        }
        // Tail flit trails the head by (flits-1) link times.
        let arrival = head + (flits - 1) * self.link_latency;
        self.stats.record(packet, hops, arrival - depart);
        arrival
    }

    /// The minimum (uncontended) latency between two nodes for a packet of
    /// `flits` flits.
    pub fn base_latency(
        &self,
        src: consim_types::NodeId,
        dst: consim_types::NodeId,
        flits: usize,
    ) -> u64 {
        if src == dst {
            return self.router_pipeline;
        }
        let hops = self.mesh.hops(src, dst) as u64;
        hops * (self.router_pipeline + self.link_latency) + (flits as u64 - 1) * self.link_latency
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Mean link utilization in `[0,1]` over the first `elapsed` cycles.
    pub fn mean_link_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 || self.link_busy.is_empty() {
            return 0.0;
        }
        let total: u64 = self.link_busy.iter().sum();
        total as f64 / (elapsed as f64 * self.link_busy.len() as f64)
    }

    /// Busiest-link utilization in `[0,1]` over the first `elapsed` cycles.
    pub fn peak_link_utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        let max = self.link_busy.iter().copied().max().unwrap_or(0);
        max as f64 / elapsed as f64
    }

    /// Clears reservations and statistics (for reuse across measurement
    /// intervals).
    pub fn reset(&mut self) {
        for link in &mut self.links {
            link.intervals.clear();
        }
        self.link_busy.fill(0);
        self.latest_depart = 0;
        self.stats = NocStats::default();
    }
}

impl Snapshot for ReservationCalendar {
    fn save(&self, w: &mut SectionBuf) {
        w.put_usize(self.intervals.len());
        for &(start, end) in &self.intervals {
            w.put_u64(start);
            w.put_u64(end);
        }
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        let count = r.get_usize()?;
        self.intervals.clear();
        let mut prev_end = 0;
        for _ in 0..count {
            let start = r.get_u64()?;
            let end = r.get_u64()?;
            // `probe` and `reserve` binary-search on sorted, disjoint
            // intervals; a record that breaks that would hand out busy time.
            if end < start || start < prev_end {
                return Err(SimError::snapshot(
                    consim_types::SnapshotErrorKind::Corrupt,
                    format!("calendar interval [{start}, {end}) after end {prev_end}"),
                ));
            }
            prev_end = end;
            self.intervals.push_back((start, end));
        }
        Ok(())
    }
}

impl Snapshot for ContentionModel {
    fn save(&self, w: &mut SectionBuf) {
        consim_snap::save_items(w, &self.links);
        w.put_u64_slice(&self.link_busy);
        w.put_u64(self.latest_depart);
        self.stats.save(w);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        consim_snap::restore_items(r, &mut self.links)?;
        let busy = r.get_u64_vec()?;
        if busy.len() != self.link_busy.len() {
            return Err(SimError::snapshot(
                consim_types::SnapshotErrorKind::Corrupt,
                format!(
                    "noc snapshot has {} link-busy counters, mesh has {}",
                    busy.len(),
                    self.link_busy.len()
                ),
            ));
        }
        self.link_busy = busy;
        self.latest_depart = r.get_u64()?;
        self.stats.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consim_types::NodeId;

    fn model() -> ContentionModel {
        ContentionModel::new(Mesh::new(4, 4).unwrap(), 1, 3)
    }

    #[test]
    fn uncontended_latency_matches_formula() {
        let mut noc = model();
        // node0 (0,0) -> node15 (3,3): 6 hops.
        let p = Packet::control(NodeId::new(0), NodeId::new(15));
        let arrival = noc.send(&p, Cycle::ZERO);
        assert_eq!(arrival.raw(), 6 * (3 + 1));
        assert_eq!(
            arrival.raw(),
            noc.base_latency(NodeId::new(0), NodeId::new(15), 1)
        );
    }

    #[test]
    fn data_packets_pay_serialization() {
        let mut noc = model();
        let p = Packet::data(NodeId::new(0), NodeId::new(1));
        let arrival = noc.send(&p, Cycle::ZERO);
        // 1 hop: 3 router + 1 link + 4 extra tail flits.
        assert_eq!(arrival.raw(), 3 + 1 + 4);
    }

    #[test]
    fn local_delivery_pays_router_only() {
        let mut noc = model();
        let p = Packet::data(NodeId::new(5), NodeId::new(5));
        assert_eq!(noc.send(&p, Cycle::new(10)).raw(), 13);
    }

    #[test]
    fn second_packet_queues_behind_first() {
        let mut noc = model();
        let p = Packet::data(NodeId::new(0), NodeId::new(1));
        let first = noc.send(&p, Cycle::ZERO);
        let second = noc.send(&p, Cycle::ZERO);
        assert!(second > first, "contended packet should be slower");
        // First reserves the single link 0->1 for 5 flit-cycles starting at
        // cycle 3; second's head starts at 8.
        assert_eq!(second.raw(), (3 + 5) + 1 + 4);
    }

    #[test]
    fn earlier_departure_fits_into_gap_before_future_reservation() {
        // An engine transaction may reserve far in the future; a packet
        // departing earlier but simulated later must not queue behind it.
        let mut noc = model();
        let p = Packet::data(NodeId::new(0), NodeId::new(1));
        let future = noc.send(&p, Cycle::new(10_000));
        assert_eq!(future.raw() - 10_000, 8);
        let early = noc.send(&p, Cycle::ZERO);
        assert_eq!(early.raw(), 8, "early packet must use the free gap");
    }

    #[test]
    fn gap_too_small_is_skipped() {
        let mut noc = model();
        let data = Packet::data(NodeId::new(0), NodeId::new(1));
        let ctrl = Packet::control(NodeId::new(0), NodeId::new(1));
        // Occupy [3, 8) and [10, 15): the 2-cycle gap fits a control packet
        // but not a 5-flit data packet.
        noc.send(&data, Cycle::ZERO);
        noc.send(&data, Cycle::new(7)); // ready at 10 -> [10, 15)
        let ctrl_arrival = noc.send(&ctrl, Cycle::new(5)); // ready 8, gap [8,10)
        assert_eq!(ctrl_arrival.raw(), 9, "control fits the gap");
        let data_arrival = noc.send(&data, Cycle::new(0)); // ready 3, busy 5
        assert!(data_arrival.raw() > 15, "data must wait past both");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut noc = model();
        let a = Packet::data(NodeId::new(0), NodeId::new(1));
        let b = Packet::data(NodeId::new(14), NodeId::new(15));
        let la = noc.send(&a, Cycle::ZERO);
        let lb = noc.send(&b, Cycle::ZERO);
        assert_eq!(la.raw(), lb.raw());
    }

    #[test]
    fn reservations_expire_in_time() {
        let mut noc = model();
        let p = Packet::data(NodeId::new(0), NodeId::new(1));
        let first = noc.send(&p, Cycle::ZERO);
        // Departing long after the first packet sees no contention.
        let late = noc.send(&p, Cycle::new(1_000));
        assert_eq!(late.raw() - 1_000, first.raw());
    }

    #[test]
    fn pruning_bounds_calendar_growth() {
        let mut noc = model();
        let p = Packet::data(NodeId::new(0), NodeId::new(1));
        for i in 0..50_000u64 {
            noc.send(&p, Cycle::new(i * 20));
        }
        let link = noc
            .mesh
            .link_index(NodeId::new(0), crate::topology::Direction::East);
        assert!(
            noc.links[link].intervals.len() < PRUNE_HORIZON as usize / 10,
            "calendar must stay bounded: {}",
            noc.links[link].intervals.len()
        );
    }

    #[test]
    fn utilization_accounting() {
        let mut noc = model();
        let p = Packet::data(NodeId::new(0), NodeId::new(1));
        noc.send(&p, Cycle::ZERO);
        assert!(noc.peak_link_utilization(10) >= 0.5 - 1e-9);
        assert!(noc.mean_link_utilization(10) > 0.0);
        noc.reset();
        assert_eq!(noc.peak_link_utilization(10), 0.0);
    }

    #[test]
    fn stats_count_packets_and_hops() {
        let mut noc = model();
        noc.send(
            &Packet::control(NodeId::new(0), NodeId::new(2)),
            Cycle::ZERO,
        );
        noc.send(&Packet::data(NodeId::new(0), NodeId::new(1)), Cycle::ZERO);
        assert_eq!(noc.stats().packets, 2);
        assert_eq!(noc.stats().injected, 2);
        assert_eq!(noc.stats().total_hops, 3);
        assert_eq!(noc.stats().flits, 6);
        assert!(noc.stats().mean_latency() > 0.0);
    }

    #[test]
    fn snapshot_round_trip_preserves_contention_state() {
        let mut noc = model();
        let p = Packet::data(NodeId::new(0), NodeId::new(5));
        for i in 0..20u64 {
            noc.send(&p, Cycle::new(i * 3));
        }
        let mut buf = SectionBuf::new();
        noc.save(&mut buf);
        let mut back = model();
        back.restore(&mut SectionReader::new("noc", buf.as_bytes()))
            .unwrap();
        assert_eq!(back.stats().packets, noc.stats().packets);
        assert_eq!(
            back.mean_link_utilization(100),
            noc.mean_link_utilization(100)
        );
        // Future sends observe identical queueing.
        for i in 0..10u64 {
            assert_eq!(
                back.send(&p, Cycle::new(60 + i)),
                noc.send(&p, Cycle::new(60 + i)),
                "send {i}"
            );
        }
    }

    #[test]
    fn calendar_restore_rejects_unsorted_intervals() {
        let restore = |intervals: &[(u64, u64)]| {
            let mut buf = SectionBuf::new();
            buf.put_usize(intervals.len());
            for &(start, end) in intervals {
                buf.put_u64(start);
                buf.put_u64(end);
            }
            let mut cal = ReservationCalendar::default();
            cal.restore(&mut SectionReader::new("cal", buf.as_bytes()))
                .map(|()| cal)
        };
        for bad in [&[(100, 200), (0, 50)][..], &[(0, 50), (40, 60)], &[(10, 5)]] {
            let err = restore(bad).unwrap_err();
            assert_eq!(
                err.snapshot_kind(),
                Some(consim_types::SnapshotErrorKind::Corrupt),
                "{bad:?}: {err}"
            );
        }
        let mut cal = restore(&[(0, 50), (50, 60), (100, 200)]).unwrap();
        assert_eq!(cal.reserve(10, 5, 0), 60);
    }

    #[test]
    fn snapshot_rejects_wrong_mesh_shape() {
        let mut noc = model();
        noc.send(
            &Packet::control(NodeId::new(0), NodeId::new(1)),
            Cycle::ZERO,
        );
        let mut buf = SectionBuf::new();
        noc.save(&mut buf);
        let mut other = ContentionModel::new(Mesh::new(2, 2).unwrap(), 1, 3);
        let err = other
            .restore(&mut SectionReader::new("noc", buf.as_bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("items"), "{err}");
    }

    #[test]
    fn contended_sends_emit_stall_events() {
        use consim_trace::RingBufferSink;
        use std::sync::Arc;

        let sink = Arc::new(RingBufferSink::new(16));
        let mut noc = model();
        noc.set_trace_sink(Some(sink.clone()));
        let p = Packet::data(NodeId::new(0), NodeId::new(1));
        noc.send(&p, Cycle::ZERO);
        assert!(sink.is_empty(), "uncontended send must not emit a stall");
        noc.send(&p, Cycle::ZERO);
        let events = sink.snapshot();
        assert_eq!(events.len(), 1);
        match &events[0] {
            consim_trace::TraceEvent::NocStall {
                src,
                dst,
                stall_cycles,
                ..
            } => {
                assert_eq!((*src, *dst), (0, 1));
                // Second packet's head was ready at 3 but the link is busy
                // until 8.
                assert_eq!(*stall_cycles, 5);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
