//! Randomized property tests for the contention model, driven by seeded
//! `SimRng` streams so every run is reproducible.

use consim_noc::{ContentionModel, Mesh, Packet};
use consim_types::{Cycle, NodeId, SimRng};

fn random_node(rng: &mut SimRng) -> NodeId {
    NodeId::new(rng.index(16))
}

fn random_packet(rng: &mut SimRng) -> Packet {
    let src = random_node(rng);
    let dst = random_node(rng);
    if rng.chance(0.5) {
        Packet::data(src, dst)
    } else {
        Packet::control(src, dst)
    }
}

/// The contention model's arrival is monotone in departure time:
/// leaving later never means arriving earlier.
#[test]
fn contention_arrivals_monotone() {
    let mut rng = SimRng::from_seed(0x0C03);
    for _case in 0..48 {
        let mesh = Mesh::new(4, 4).unwrap();
        let mut noc = ContentionModel::new(mesh, 1, 3);
        let n = 1 + rng.index(40);
        let packets: Vec<Packet> = (0..n).map(|_| random_packet(&mut rng)).collect();
        let mut departs: Vec<u64> = (0..n).map(|_| rng.below(200)).collect();
        departs.sort_unstable();
        let mut last_same_route: std::collections::HashMap<(NodeId, NodeId), Cycle> =
            std::collections::HashMap::new();
        for (p, t) in packets.iter().zip(departs) {
            let arrival = noc.send(p, Cycle::new(t));
            assert!(arrival.raw() >= t);
            // Same-route FIFO: a later departure on the identical route
            // cannot overtake (same links, same order).
            if let Some(prev) = last_same_route.get(&(p.src, p.dst)) {
                assert!(arrival >= *prev);
            }
            last_same_route.insert((p.src, p.dst), arrival);
        }
    }
}

/// Contended latency is never below the uncontended base latency.
#[test]
fn contention_never_beats_base() {
    let mut rng = SimRng::from_seed(0x0C04);
    for _case in 0..48 {
        let mesh = Mesh::new(4, 4).unwrap();
        let mut noc = ContentionModel::new(mesh, 1, 3);
        for _ in 0..1 + rng.index(60) {
            let p = random_packet(&mut rng);
            let arrival = noc.send(&p, Cycle::ZERO);
            let base = noc.base_latency(p.src, p.dst, p.flits());
            assert!(arrival.raw() >= base, "{} < {}", arrival.raw(), base);
        }
    }
}
