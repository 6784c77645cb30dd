//! Checkpoint codec for [`SimulationConfig`].
//!
//! A checkpoint must be self-describing: resuming rebuilds the machine from
//! the *stored* configuration, then restores mutable state into it, so a
//! snapshot can never be replayed against the wrong machine. The codec
//! round-trips every field except the trace sink (process-local; reattach
//! with [`crate::engine::Simulation::set_trace`]) and decodes through the
//! validated builders — a corrupted-but-checksum-valid configuration is
//! rejected with [`SnapshotErrorKind::Corrupt`], never constructed.

use crate::engine::SimulationConfig;
use consim_cache::ReplacementPolicy;
use consim_sched::SchedulingPolicy;
use consim_snap::{fnv1a, SectionBuf, SectionReader};
use consim_types::config::{
    CacheGeometry, ChurnPolicy, DynamicPolicy, LlcPartitioning, MachineConfigBuilder, SharingDegree,
};
use consim_types::{SimError, SnapshotErrorKind};
use consim_workload::profile::PaperTargets;
use consim_workload::{LoadPhase, WorkloadKind, WorkloadProfile};

fn corrupt(msg: impl Into<String>) -> SimError {
    SimError::snapshot(SnapshotErrorKind::Corrupt, msg)
}

/// Re-validation failures on decode mean the payload passed its checksum but
/// encodes an impossible machine: surface them as corruption, not as a
/// caller configuration mistake.
fn as_corrupt(err: SimError) -> SimError {
    corrupt(format!("stored configuration is invalid: {err}"))
}

pub(crate) fn save_config(config: &SimulationConfig, w: &mut SectionBuf) {
    let m = &config.machine;
    w.put_usize(m.num_cores);
    w.put_usize(m.mesh_width);
    for geom in [&m.l0, &m.l1, &m.llc] {
        save_geometry(geom, w);
    }
    match m.sharing {
        SharingDegree::Private => w.put_u8(0),
        SharingDegree::SharedBy(n) => {
            w.put_u8(1);
            w.put_usize(n);
        }
        SharingDegree::FullyShared => w.put_u8(2),
    }
    match &m.llc_partitioning {
        LlcPartitioning::None => w.put_u8(0),
        LlcPartitioning::EqualWays => w.put_u8(1),
        LlcPartitioning::ExplicitWays(ways) => {
            w.put_u8(2);
            w.put_usize(ways.len());
            for &ways in ways {
                w.put_u8(ways);
            }
        }
        LlcPartitioning::Dynamic(p) => {
            w.put_u8(3);
            w.put_u64(p.epoch_interval);
            w.put_u8(p.min_ways);
            w.put_u8(p.max_step);
            w.put_u32(p.ewma_permille);
            w.put_u32(p.deadband_milli);
            w.put_u32(p.light_miss_permille);
            w.put_u32(p.stream_memory_permille);
        }
    }
    w.put_u64(m.memory_latency);
    w.put_u64(m.memory_occupancy);
    w.put_usize(m.num_memory_controllers);
    w.put_u64(m.link_latency);
    w.put_u64(m.router_pipeline);
    w.put_usize(m.directory_cache_entries);
    w.put_u64(m.instructions_per_memory_op);
    match &m.churn {
        None => w.put_bool(false),
        Some(c) => {
            w.put_bool(true);
            w.put_u64(c.interval);
            w.put_usize(c.arrival_permille.len());
            for &rate in &c.arrival_permille {
                w.put_u32(rate);
            }
            w.put_usize(c.departure_permille.len());
            for &rate in &c.departure_permille {
                w.put_u32(rate);
            }
            w.put_u32(c.migration_permille);
            w.put_usize(c.initial_active);
            w.put_usize(c.min_active);
            match &c.migration_targets {
                None => w.put_bool(false),
                Some(targets) => {
                    w.put_bool(true);
                    w.put_usize(targets.len());
                    for &core in targets {
                        w.put_usize(core);
                    }
                }
            }
        }
    }

    save_policy(config.policy, w);
    w.put_usize(config.workloads.len());
    for profile in &config.workloads {
        save_profile(profile, w);
    }
    w.put_u64(config.seed);
    w.put_u64(config.refs_per_vm);
    w.put_u64(config.warmup_refs_per_vm);
    w.put_bool(config.track_footprint);
    w.put_u8(match config.llc_replacement {
        ReplacementPolicy::Lru => 0,
        ReplacementPolicy::TreePlru => 1,
        ReplacementPolicy::Random => 2,
    });
    w.put_bool(config.prewarm_llc);
    w.put_opt_u64(config.reschedule_every);
    w.put_bool(config.audit);
}

pub(crate) fn restore_config(r: &mut SectionReader<'_>) -> Result<SimulationConfig, SimError> {
    let mut machine = MachineConfigBuilder::new();
    machine.num_cores(r.get_usize()?);
    machine.mesh_width(r.get_usize()?);
    machine.l0(restore_geometry(r)?);
    machine.l1(restore_geometry(r)?);
    machine.llc(restore_geometry(r)?);
    machine.sharing(match r.get_u8()? {
        0 => SharingDegree::Private,
        1 => SharingDegree::SharedBy(r.get_usize()?),
        2 => SharingDegree::FullyShared,
        t => return Err(corrupt(format!("invalid sharing-degree tag {t}"))),
    });
    machine.llc_partitioning(match r.get_u8()? {
        0 => LlcPartitioning::None,
        1 => LlcPartitioning::EqualWays,
        2 => {
            let count = r.get_usize()?;
            let mut ways = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                ways.push(r.get_u8()?);
            }
            LlcPartitioning::ExplicitWays(ways)
        }
        3 => LlcPartitioning::Dynamic(DynamicPolicy {
            epoch_interval: r.get_u64()?,
            min_ways: r.get_u8()?,
            max_step: r.get_u8()?,
            ewma_permille: r.get_u32()?,
            deadband_milli: r.get_u32()?,
            light_miss_permille: r.get_u32()?,
            stream_memory_permille: r.get_u32()?,
        }),
        t => return Err(corrupt(format!("invalid LLC-partitioning tag {t}"))),
    });
    machine.memory_latency(r.get_u64()?);
    machine.memory_occupancy(r.get_u64()?);
    machine.num_memory_controllers(r.get_usize()?);
    machine.link_latency(r.get_u64()?);
    machine.router_pipeline(r.get_u64()?);
    machine.directory_cache_entries(r.get_usize()?);
    machine.instructions_per_memory_op(r.get_u64()?);
    if r.get_bool()? {
        let interval = r.get_u64()?;
        let mut arrival_permille = Vec::new();
        for _ in 0..r.get_usize()? {
            arrival_permille.push(r.get_u32()?);
        }
        let mut departure_permille = Vec::new();
        for _ in 0..r.get_usize()? {
            departure_permille.push(r.get_u32()?);
        }
        let migration_permille = r.get_u32()?;
        let initial_active = r.get_usize()?;
        let min_active = r.get_usize()?;
        let migration_targets = if r.get_bool()? {
            let mut targets = Vec::new();
            for _ in 0..r.get_usize()? {
                targets.push(r.get_usize()?);
            }
            Some(targets)
        } else {
            None
        };
        machine.churn(Some(ChurnPolicy {
            interval,
            arrival_permille,
            departure_permille,
            migration_permille,
            initial_active,
            min_active,
            migration_targets,
        }));
    }
    let machine = machine.build().map_err(as_corrupt)?;

    let policy = restore_policy(r)?;
    let mut builder = SimulationConfig::builder();
    builder.machine(machine).policy(policy);
    let num_vms = r.get_usize()?;
    for _ in 0..num_vms {
        builder.workload(restore_profile(r)?);
    }
    builder.seed(r.get_u64()?);
    builder.refs_per_vm(r.get_u64()?);
    builder.warmup_refs_per_vm(r.get_u64()?);
    builder.track_footprint(r.get_bool()?);
    builder.llc_replacement(match r.get_u8()? {
        0 => ReplacementPolicy::Lru,
        1 => ReplacementPolicy::TreePlru,
        2 => ReplacementPolicy::Random,
        t => return Err(corrupt(format!("invalid replacement-policy tag {t}"))),
    });
    builder.prewarm_llc(r.get_bool()?);
    if let Some(interval) = r.get_opt_u64()? {
        builder.reschedule_every(interval);
    }
    builder.audit(r.get_bool()?);
    builder.build().map_err(as_corrupt)
}

/// Policy tag codec, shared with the result-journal codec (which stores the
/// policy inside each serialized [`consim_sched::Placement`]).
pub(crate) fn save_policy(policy: SchedulingPolicy, w: &mut SectionBuf) {
    w.put_u8(match policy {
        SchedulingPolicy::RoundRobin => 0,
        SchedulingPolicy::Affinity => 1,
        SchedulingPolicy::RrAffinity => 2,
        SchedulingPolicy::Random => 3,
    });
}

pub(crate) fn restore_policy(r: &mut SectionReader<'_>) -> Result<SchedulingPolicy, SimError> {
    Ok(match r.get_u8()? {
        0 => SchedulingPolicy::RoundRobin,
        1 => SchedulingPolicy::Affinity,
        2 => SchedulingPolicy::RrAffinity,
        3 => SchedulingPolicy::Random,
        t => return Err(corrupt(format!("invalid scheduling-policy tag {t}"))),
    })
}

fn save_geometry(geom: &CacheGeometry, w: &mut SectionBuf) {
    w.put_usize(geom.total_bytes);
    w.put_usize(geom.associativity);
    w.put_u64(geom.latency);
}

fn restore_geometry(r: &mut SectionReader<'_>) -> Result<CacheGeometry, SimError> {
    let total_bytes = r.get_usize()?;
    let associativity = r.get_usize()?;
    let latency = r.get_u64()?;
    CacheGeometry::new(total_bytes, associativity, latency).map_err(as_corrupt)
}

fn save_profile(profile: &WorkloadProfile, w: &mut SectionBuf) {
    w.put_u8(match profile.kind {
        WorkloadKind::TpcW => 0,
        WorkloadKind::SpecJbb => 1,
        WorkloadKind::TpcH => 2,
        WorkloadKind::SpecWeb => 3,
        WorkloadKind::Custom => 4,
    });
    w.put_str(&profile.name);
    w.put_usize(profile.threads);
    w.put_u64(profile.footprint_blocks);
    for p in [
        profile.shared_fraction,
        profile.shared_access_prob,
        profile.shared_write_prob,
        profile.private_write_prob,
        profile.shared_zipf,
        profile.private_zipf,
        profile.recent_reuse_prob,
    ] {
        w.put_f64(p);
    }
    w.put_usize(profile.recent_window);
    w.put_f64(profile.handoff_access_prob);
    w.put_usize(profile.handoff_segments);
    w.put_u64(profile.handoff_segment_blocks);
    w.put_f64(profile.handoff_write_prob);
    w.put_u32(profile.handoff_touches);
    w.put_u64(profile.refs_per_transaction);
    w.put_u64(profile.default_transactions);
    match &profile.paper_targets {
        None => w.put_bool(false),
        Some(t) => {
            w.put_bool(true);
            w.put_f64(t.c2c_fraction);
            w.put_f64(t.dirty_fraction);
            w.put_u64(t.footprint_blocks);
        }
    }
    w.put_usize(profile.phases.len());
    for phase in &profile.phases {
        w.put_u64(phase.refs);
        w.put_u32(phase.footprint_permille);
        w.put_u32(phase.sharing_permille);
    }
}

fn restore_profile(r: &mut SectionReader<'_>) -> Result<WorkloadProfile, SimError> {
    let kind = match r.get_u8()? {
        0 => WorkloadKind::TpcW,
        1 => WorkloadKind::SpecJbb,
        2 => WorkloadKind::TpcH,
        3 => WorkloadKind::SpecWeb,
        4 => WorkloadKind::Custom,
        t => return Err(corrupt(format!("invalid workload-kind tag {t}"))),
    };
    // Profile fields are public and re-validated by the simulation builder;
    // decode straight into the struct in declaration order.
    let profile = WorkloadProfile {
        kind,
        name: r.get_str()?,
        threads: r.get_usize()?,
        footprint_blocks: r.get_u64()?,
        shared_fraction: r.get_f64()?,
        shared_access_prob: r.get_f64()?,
        shared_write_prob: r.get_f64()?,
        private_write_prob: r.get_f64()?,
        shared_zipf: r.get_f64()?,
        private_zipf: r.get_f64()?,
        recent_reuse_prob: r.get_f64()?,
        recent_window: r.get_usize()?,
        handoff_access_prob: r.get_f64()?,
        handoff_segments: r.get_usize()?,
        handoff_segment_blocks: r.get_u64()?,
        handoff_write_prob: r.get_f64()?,
        handoff_touches: r.get_u32()?,
        refs_per_transaction: r.get_u64()?,
        default_transactions: r.get_u64()?,
        paper_targets: if r.get_bool()? {
            Some(PaperTargets {
                c2c_fraction: r.get_f64()?,
                dirty_fraction: r.get_f64()?,
                footprint_blocks: r.get_u64()?,
            })
        } else {
            None
        },
        phases: {
            let count = r.get_usize()?;
            let mut phases = Vec::with_capacity(count.min(64));
            for _ in 0..count {
                phases.push(LoadPhase {
                    refs: r.get_u64()?,
                    footprint_permille: r.get_u32()?,
                    sharing_permille: r.get_u32()?,
                });
            }
            phases
        },
    };
    profile.validate().map_err(as_corrupt)?;
    Ok(profile)
}

/// A digest over every configuration field that influences the
/// *prewarmed* (pre-warmup) machine state. Run parameters that only matter
/// once a phase executes — quotas, footprint tracking, auditing,
/// rescheduling, tracing — are normalized out, so cells that differ only
/// in those share one key.
pub(crate) fn prewarm_key(config: &SimulationConfig) -> u64 {
    let mut canonical = config.clone();
    canonical.refs_per_vm = 1;
    canonical.warmup_refs_per_vm = 0;
    canonical.track_footprint = false;
    canonical.reschedule_every = None;
    canonical.audit = false;
    canonical.trace = None;
    let mut buf = SectionBuf::new();
    save_config(&canonical, &mut buf);
    fnv1a(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use consim_types::config::MachineConfig;
    use consim_workload::WorkloadProfileBuilder;

    fn encode(config: &SimulationConfig) -> Vec<u8> {
        let mut buf = SectionBuf::new();
        save_config(config, &mut buf);
        buf.as_bytes().to_vec()
    }

    fn decode(bytes: &[u8]) -> Result<SimulationConfig, SimError> {
        let mut r = SectionReader::new("config", bytes);
        let config = restore_config(&mut r)?;
        assert_eq!(r.remaining(), 0, "codec must consume the whole payload");
        Ok(config)
    }

    fn exotic_config() -> SimulationConfig {
        let machine = MachineConfig::paper_default()
            .with_sharing(SharingDegree::SharedBy(4))
            .with_llc_partitioning(LlcPartitioning::ExplicitWays(vec![8, 4, 4]));
        let mut b = SimulationConfig::builder();
        b.machine(machine)
            .policy(SchedulingPolicy::Random)
            .seed(0xfeed)
            .refs_per_vm(7_777)
            .warmup_refs_per_vm(111)
            .track_footprint(true)
            .llc_replacement(ReplacementPolicy::TreePlru)
            .prewarm_llc(true)
            .reschedule_every(40_000)
            .audit(true);
        for kind in [WorkloadKind::TpcW, WorkloadKind::SpecJbb] {
            b.workload(kind.profile());
        }
        b.workload(
            WorkloadProfileBuilder::new("bespoke")
                .footprint_blocks(9_000)
                .shared_fraction(0.33)
                .build()
                .unwrap(),
        );
        b.build().unwrap()
    }

    #[test]
    fn config_round_trips_every_field() {
        let config = exotic_config();
        let restored = decode(&encode(&config)).unwrap();
        assert_eq!(restored.machine, config.machine);
        assert_eq!(restored.policy, config.policy);
        assert_eq!(restored.workloads, config.workloads);
        assert_eq!(restored.seed, config.seed);
        assert_eq!(restored.refs_per_vm, config.refs_per_vm);
        assert_eq!(restored.warmup_refs_per_vm, config.warmup_refs_per_vm);
        assert_eq!(restored.track_footprint, config.track_footprint);
        assert_eq!(restored.llc_replacement, config.llc_replacement);
        assert_eq!(restored.prewarm_llc, config.prewarm_llc);
        assert_eq!(restored.reschedule_every, config.reschedule_every);
        assert_eq!(restored.audit, config.audit);
        // Re-encoding the decoded config is byte-identical (canonical form).
        assert_eq!(encode(&restored), encode(&config));
    }

    #[test]
    fn invalid_tags_are_corrupt_not_panics() {
        let bytes = encode(&exotic_config());
        // The sharing tag sits right after two usizes and three geometries.
        let sharing_tag_at = 8 + 8 + 3 * (8 + 8 + 8);
        let mut bad = bytes.clone();
        assert_eq!(bad[sharing_tag_at], 1u8, "layout drifted; fix the offset");
        bad[sharing_tag_at] = 9;
        let err = decode(&bad).expect_err("bad tag must fail");
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::Corrupt));
    }

    #[test]
    fn invalid_decoded_machine_is_corrupt() {
        let mut bytes = encode(&exotic_config());
        // num_cores is the first usize; zero cores fails builder validation.
        bytes[..8].copy_from_slice(&0u64.to_le_bytes());
        let err = decode(&bytes).expect_err("zero cores must fail");
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::Corrupt));
        assert!(err.to_string().contains("stored configuration"), "{err}");
    }

    #[test]
    fn prewarm_key_ignores_run_quotas_but_not_machine() {
        let a = exotic_config();
        let mut b = a.clone();
        b.refs_per_vm = 1_000_000;
        b.warmup_refs_per_vm = 5;
        b.audit = false;
        b.track_footprint = false;
        assert_eq!(prewarm_key(&a), prewarm_key(&b));

        let mut c = a.clone();
        c.seed ^= 1;
        assert_ne!(prewarm_key(&a), prewarm_key(&c));
        let mut d = a.clone();
        d.machine = d.machine.with_sharing(SharingDegree::Private);
        assert_ne!(prewarm_key(&a), prewarm_key(&d));
    }
}
