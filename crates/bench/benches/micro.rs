//! Micro-benchmarks of the simulator substrates: cache lookups, contended
//! NoC sends, directory transitions, workload generation, and whole-engine
//! references per second.
//!
//! Self-contained timing harness (no external benchmarking crate): each
//! benchmark warms up briefly, then runs a fixed number of timed batches and
//! reports ns/op plus ops/sec. To compare one change against another, use
//! the `perfbench/` benchmark (`python3 perfbench/run.py`), which times the
//! engine, the figure campaign and the daemon end to end and per layer.

use consim::engine::SimulationConfig;
use consim::Simulation;
use consim_cache::{LineState, ReplacementPolicy, SetAssocCache};
use consim_coherence::{AccessKind, Directory};
use consim_noc::{ContentionModel, Mesh, Packet};
use consim_sched::SchedulingPolicy;
use consim_types::config::{MachineConfig, SharingDegree};
use consim_types::{BlockAddr, CacheGeometry, CoreId, Cycle, NodeId, SimRng, ThreadId, VmId};
use consim_workload::{WorkloadGenerator, WorkloadKind};
use std::hint::black_box;
use std::time::Instant;

/// Times `iters` calls of `op`, after `iters / 10` warmup calls, and prints
/// one result line. `elements` is how many logical elements one call covers.
fn bench(name: &str, iters: u64, elements: u64, mut op: impl FnMut()) {
    for _ in 0..iters / 10 {
        op();
    }
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    let elapsed = start.elapsed();
    let total = (iters * elements).max(1);
    let ns_per = elapsed.as_nanos() as f64 / total as f64;
    let per_sec = total as f64 / elapsed.as_secs_f64();
    println!("{name:<32} {ns_per:>10.1} ns/elem {per_sec:>14.0} elem/s");
}

fn bench_cache() {
    let geom = CacheGeometry::new(1 << 20, 16, 6).unwrap();

    let mut cache = SetAssocCache::new(geom, ReplacementPolicy::Lru);
    cache.insert(BlockAddr::new(42), LineState::Shared);
    bench("cache/access_hit", 2_000_000, 1, || {
        black_box(cache.access(BlockAddr::new(42)));
    });

    let mut cache = SetAssocCache::new(geom, ReplacementPolicy::Lru);
    let mut n = 0u64;
    bench("cache/insert_evict", 2_000_000, 1, || {
        n += 1;
        black_box(cache.insert(BlockAddr::new(n), LineState::Shared));
    });
}

fn bench_noc() {
    let mesh = Mesh::new(4, 4).unwrap();

    let mut noc = ContentionModel::new(mesh, 1, 3);
    let mut t = 0u64;
    bench("noc/contention_send", 1_000_000, 1, || {
        t += 10;
        black_box(noc.send(
            &Packet::data(NodeId::new(0), NodeId::new(15)),
            Cycle::new(t),
            Cycle::new(t),
        ));
    });
}

fn bench_directory() {
    let mut dir = Directory::new(16);
    let mut n = 0u64;
    bench("coherence/dir_read_write_mix", 2_000_000, 1, || {
        n += 1;
        let core = CoreId::new((n % 16) as usize);
        let block = BlockAddr::new(n % 512);
        let kind = if n.is_multiple_of(3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if dir.owner_of(block) == Some(core)
            || (kind == AccessKind::Read && dir.sharers_of(block).contains(core))
        {
            return;
        }
        let kind = if kind == AccessKind::Write && dir.sharers_of(block).contains(core) {
            AccessKind::Upgrade
        } else {
            kind
        };
        black_box(dir.handle(core, block, kind));
    });
}

fn bench_workload() {
    for kind in [WorkloadKind::TpcH, WorkloadKind::SpecJbb] {
        let mut g = WorkloadGenerator::new(VmId::new(0), &kind.profile(), &SimRng::from_seed(1));
        let mut i = 0usize;
        bench(&format!("workload/next_ref_{kind}"), 1_000_000, 1, || {
            i += 1;
            black_box(g.next_ref(ThreadId::new(i % 4)));
        });
    }
}

fn bench_engine() {
    let refs = 20_000u64;
    bench("engine/mix4_shared4_affinity", 10, refs * 4, || {
        let mut builder = SimulationConfig::builder();
        builder
            .machine(MachineConfig::paper_default().with_sharing(SharingDegree::SharedBy(4)))
            .policy(SchedulingPolicy::Affinity)
            .refs_per_vm(refs)
            .warmup_refs_per_vm(0)
            .seed(1);
        for kind in [
            WorkloadKind::SpecJbb,
            WorkloadKind::SpecJbb,
            WorkloadKind::TpcH,
            WorkloadKind::TpcH,
        ] {
            builder.workload(kind.profile());
        }
        let sim = Simulation::new(builder.build().unwrap()).unwrap();
        black_box(sim.run().unwrap());
    });
}

fn main() {
    bench_cache();
    bench_noc();
    bench_directory();
    bench_workload();
    bench_engine();
}
