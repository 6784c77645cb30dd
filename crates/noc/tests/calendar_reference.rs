//! Cycle-exact reference for the reservation calendar under both of its
//! users: the mesh links of `ContentionModel::send`, and the engine's memory
//! controllers, which call `ReservationCalendar::reserve` directly with a
//! 200k-cycle prune horizon.
//!
//! The reference keeps every reservation of a resource in one list, in the
//! order they were made, and finds a slot by starting at the ready cycle and
//! jumping to the end of any reservation the candidate overlaps until none
//! does. It has no sorting, binary search, interval merging or pruning, so
//! it states the calendar's rule with none of the calendar's optimizations;
//! the calendar must agree with it on every start cycle.

use consim_noc::{ContentionModel, Mesh, NocStats, Packet, ReservationCalendar};
use consim_snap::{SectionBuf, SectionReader, Snapshot};
use consim_types::{Cycle, NodeId, SimRng};
use std::collections::HashMap;

/// The earliest `t >= ready` at which `[t, t + len)` overlaps no busy
/// interval.
fn earliest_free(busy: &[(u64, u64)], ready: u64, len: u64) -> u64 {
    let mut t = ready;
    while let Some(&(_, end)) = busy.iter().find(|&&(s, e)| s < t + len && t < e) {
        t = end;
    }
    t
}

/// The packet model's timing rules over naive per-link busy lists: each hop
/// waits `router_pipeline` cycles, then holds its link for `flits *
/// link_latency` cycles starting at the earliest free slot; the head moves
/// on one link time after its slot starts and the tail trails it by
/// `flits - 1` link times.
struct NaiveMesh {
    mesh: Mesh,
    link_latency: u64,
    router_pipeline: u64,
    /// Busy intervals per directed link, keyed by its (from, to) nodes.
    links: HashMap<(NodeId, NodeId), Vec<(u64, u64)>>,
    stats: NocStats,
}

impl NaiveMesh {
    fn new(mesh: Mesh, link_latency: u64, router_pipeline: u64) -> Self {
        Self {
            mesh,
            link_latency,
            router_pipeline,
            links: HashMap::new(),
            stats: NocStats::default(),
        }
    }

    fn send(&mut self, packet: &Packet, depart: u64) -> u64 {
        self.stats.injected += 1;
        let flits = packet.flits() as u64;
        let path = self.mesh.path_xy(packet.src, packet.dst);
        let arrival = if path.len() == 1 {
            depart + self.router_pipeline
        } else {
            let mut head = depart;
            for hop in path.windows(2) {
                let busy = self.links.entry((hop[0], hop[1])).or_default();
                let len = flits * self.link_latency;
                let start = earliest_free(busy, head + self.router_pipeline, len);
                busy.push((start, start + len));
                head = start + self.link_latency;
            }
            head + (flits - 1) * self.link_latency
        };
        self.stats.record(packet, path.len() - 1, arrival - depart);
        arrival
    }
}

/// Sends seeded out-of-order traffic through both models and requires the
/// same arrival cycle for every packet. Most packets depart within `SKEW`
/// cycles of a clock that moves in bursts; one in 50 departs 10k–60k
/// cycles ahead, still inside the link calendars' 100k-cycle prune horizon,
/// so pruning may never change a result. Halfway through, the model is
/// replaced by a snapshot round-trip of itself.
fn check_mesh(seed: u64, mesh: Mesh, link_latency: u64, router_pipeline: u64) {
    const SENDS: usize = 3_000;
    const SKEW: u64 = 300;
    let ctx = format!(
        "seed {seed:#x}, {}x{} mesh, link {link_latency}, router {router_pipeline}",
        mesh.width(),
        mesh.height()
    );
    let mut rng = SimRng::from_seed(seed);
    let mut model = ContentionModel::new(mesh, link_latency, router_pipeline);
    let mut naive = NaiveMesh::new(mesh, link_latency, router_pipeline);
    let mut now = 0u64;
    let mut last_arrival = 0u64;
    for i in 0..SENDS {
        if i == SENDS / 2 {
            let mut buf = SectionBuf::new();
            model.save(&mut buf);
            model = ContentionModel::new(mesh, link_latency, router_pipeline);
            model
                .restore(&mut SectionReader::new("noc", buf.as_bytes()))
                .unwrap();
            assert_eq!(model.stats(), &naive.stats, "{ctx}: restored stats");
        }
        now += if rng.chance(1.0 / 40.0) {
            1_000 + rng.below(4_000)
        } else {
            rng.below(3)
        };
        let depart = if rng.chance(0.02) {
            now + 10_000 + rng.below(50_000)
        } else {
            now + rng.below(SKEW)
        };
        let src = NodeId::new(rng.index(mesh.num_nodes()));
        let dst = NodeId::new(rng.index(mesh.num_nodes()));
        let packet = if rng.chance(0.5) {
            Packet::data(src, dst)
        } else {
            Packet::control(src, dst)
        };
        let want = naive.send(&packet, depart);
        let got = model.send(&packet, Cycle::new(depart)).raw();
        assert_eq!(got, want, "{ctx}: send {i}, {packet} departing {depart}");
        last_arrival = last_arrival.max(want);
    }
    assert!(
        now > 100_000,
        "{ctx}: traffic must outlast the prune horizon"
    );
    assert_eq!(model.stats(), &naive.stats, "{ctx}: stats");
    let busy: Vec<u64> = naive
        .links
        .values()
        .map(|link| link.iter().map(|&(s, e)| e - s).sum())
        .collect();
    let (total, peak) = (busy.iter().sum::<u64>(), busy.iter().max().unwrap_or(&0));
    let elapsed = last_arrival as f64;
    assert_eq!(
        model.mean_link_utilization(last_arrival),
        total as f64 / (elapsed * mesh.num_link_slots() as f64),
        "{ctx}: mean link utilization"
    );
    assert_eq!(
        model.peak_link_utilization(last_arrival),
        *peak as f64 / elapsed,
        "{ctx}: peak link utilization"
    );
}

#[test]
fn mesh_sends_match_naive_calendar() {
    let shapes = [
        (Mesh::new(4, 4).unwrap(), 1, 3),
        (Mesh::new(4, 4).unwrap(), 2, 1),
        (Mesh::new(2, 2).unwrap(), 1, 0),
        (Mesh::new(8, 2).unwrap(), 3, 2),
        (Mesh::new(1, 6).unwrap(), 1, 3),
        (Mesh::new(3, 5).unwrap(), 2, 3),
    ];
    for (case, (mesh, link_latency, router_pipeline)) in shapes.into_iter().enumerate() {
        check_mesh(
            0xCA1E_0000 + case as u64,
            mesh,
            link_latency,
            router_pipeline,
        );
    }
}

/// Memory-controller bookings exactly as the engine makes them: a line
/// transfer holds the controller for `memory_occupancy` cycles, a directory
/// refill for a quarter of that, and each reservation prunes intervals
/// ending more than 200k cycles before its ready time. Ready times trail a
/// bursty clock by up to one transaction latency, with occasional bookings
/// up to 150k cycles ahead, and the run spans several prune horizons.
#[test]
fn memory_controller_bookings_match_naive_calendar_across_prune_horizon() {
    const PRUNE_HORIZON: u64 = 200_000;
    for (case, occupancy) in [30u64, 1, 45].into_iter().enumerate() {
        let mut rng = SimRng::from_seed(0x3E3C_0000 + case as u64);
        let mut calendars = vec![ReservationCalendar::default(); 4];
        let mut naive: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 4];
        let mut now = 0u64;
        for i in 0..6_000 {
            now += if rng.chance(1.0 / 30.0) {
                rng.below(12_000)
            } else {
                rng.below(8)
            };
            let ready = if rng.chance(0.01) {
                now + 20_000 + rng.below(130_000)
            } else {
                now + rng.below(2_000)
            };
            let len = if rng.chance(0.25) {
                (occupancy / 4).max(1)
            } else {
                occupancy
            };
            let mc = rng.index(calendars.len());
            let want = earliest_free(&naive[mc], ready, len);
            naive[mc].push((want, want + len));
            let got = calendars[mc].reserve(ready, len, ready.saturating_sub(PRUNE_HORIZON));
            assert_eq!(
                got, want,
                "occupancy {occupancy}: booking {i} on mc{mc}, {len} cycles ready at {ready}"
            );
        }
        assert!(
            now > 3 * PRUNE_HORIZON,
            "occupancy {occupancy}: bookings must span several prune horizons, reached {now}"
        );
    }
}

/// Congestion orders flows the expected way: eight flows into one node are
/// slower on average than eight disjoint nearest-neighbour flows.
#[test]
fn hotspot_flows_are_slower_than_disjoint_flows() {
    let hotspot: Vec<Packet> = (8..16)
        .map(|s| Packet::data(NodeId::new(s), NodeId::new(0)))
        .collect();
    let disjoint: Vec<Packet> = (0..8)
        .map(|i| Packet::data(NodeId::new(2 * i), NodeId::new(2 * i + 1)))
        .collect();
    let mean_arrival = |packets: &[Packet]| {
        let mut noc = ContentionModel::new(Mesh::new(4, 4).unwrap(), 1, 3);
        let mut total = 0u64;
        for _ in 0..4 {
            for p in packets {
                total += noc.send(p, Cycle::ZERO).raw();
            }
        }
        total as f64 / (4 * packets.len()) as f64
    };
    assert!(mean_arrival(&hotspot) > mean_arrival(&disjoint));
}
