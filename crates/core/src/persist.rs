//! Persistence codecs for the experiment layers: on-disk outcome records,
//! mid-run checkpoint files, and configuration content digests.
//!
//! The job execution layer (`consim-job`) stores two kinds of record per
//! job: the serialized [`SimulationOutcome`] of a completed job, and a
//! transient mid-run [`Simulation::checkpoint`] rewritten every
//! `checkpoint_every` accesses and deleted when the job completes. This
//! module owns the byte formats and the atomic commit discipline; file
//! naming and directory layout belong to the journal in `consim-job`.
//!
//! Every write goes to a uniquely named temporary sibling
//! (`<name>.tmp<N>`, preserving the record's own extension so concurrent
//! `.bin` and `.ckpt` commits for the same job can never collide) and is
//! committed with an atomic rename, so a crash can never leave a
//! half-written record that a resume would trust (a torn temporary is
//! simply ignored and swept by the journal; a torn committed record
//! cannot exist). Records are checksummed by the `consim-snap` container,
//! so bit rot is reported as [`SimError::Snapshot`] rather than read back
//! as plausible numbers.

use crate::engine::{Simulation, SimulationConfig, SimulationOutcome};
use crate::metrics::{OccupancySnapshot, ReplicationSnapshot, VmMetrics};
use crate::snapshot;
use consim_sched::Placement;
use consim_snap::{fnv1a, SectionBuf, SectionReader, SnapReader, SnapWriter, Snapshot, VERSION};
use consim_types::{CoreId, GlobalThreadId, SimError, SnapshotErrorKind, ThreadId, VmId};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps an I/O failure into the snapshot error taxonomy with the path
/// that failed (bare `std::io::Error` messages omit it).
pub fn io_error(action: &str, path: &Path, err: std::io::Error) -> SimError {
    SimError::snapshot(
        SnapshotErrorKind::Io,
        format!("{action} {}: {err}", path.display()),
    )
}

/// Content digest of one job's full configuration: machine, workloads,
/// scheduling policy, seed, and run quotas — everything that shapes the
/// outcome, and nothing process-local (the trace sink is excluded by the
/// snapshot codec). Two configurations digest equal exactly when they
/// would produce bit-identical outcomes, so the digest identifies a job's
/// journal records across invocations and across differently composed
/// batches.
pub fn config_digest(config: &SimulationConfig) -> u64 {
    let mut buf = SectionBuf::new();
    snapshot::save_config(config, &mut buf);
    fnv1a(buf.as_bytes())
}

/// The prewarm key of `config`: a digest over everything that shapes the
/// prewarmed machine state, ignoring run quotas. Two configurations with
/// one key have identical LLC banks after [`Simulation::prewarm`].
pub fn prewarm_key(config: &SimulationConfig) -> u64 {
    snapshot::prewarm_key(config)
}

/// Process-unique temporary-name counter: concurrent writers staging
/// records next to each other (persistent workers journaling in parallel)
/// can never interleave bytes in a shared temporary.
static STAGE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The staged temporary sibling for `path` under `token`: the full file
/// name plus a `.tmp<token>` suffix. Keeping the record's own extension
/// in the name is load-bearing — `Path::with_extension("tmp")` would
/// collapse `job-X.bin` and `job-X.ckpt` onto one temporary.
fn stage_path(path: &Path, token: u64) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(format!(".tmp{token}"));
    path.with_file_name(name)
}

/// Serializes via `fill`, then commits atomically (unique tmp + rename).
fn persist(
    path: &Path,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), SimError>,
) -> Result<(), SimError> {
    let mut bytes = Vec::new();
    fill(&mut bytes)?;
    let tmp = stage_path(path, STAGE_COUNTER.fetch_add(1, Ordering::Relaxed));
    fs::write(&tmp, &bytes).map_err(|e| io_error("write", &tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_error("commit", path, e))
}

/// Writes a mid-run checkpoint of `sim` to `path` atomically.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on serialization or I/O failure.
pub fn write_checkpoint(path: &Path, sim: &Simulation) -> Result<(), SimError> {
    persist(path, |bytes| sim.checkpoint(bytes))
}

/// Resumes a simulation from the checkpoint file at `path`. The trace
/// sink is process-local and excluded from checkpoints; reattach it with
/// [`Simulation::set_trace`].
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on I/O failure or a corrupt record.
pub fn read_checkpoint(path: &Path) -> Result<Simulation, SimError> {
    let bytes = fs::read(path).map_err(|e| io_error("read", path, e))?;
    Simulation::resume(bytes.as_slice())
}

/// Serializes a completed outcome into a standalone checksummed record
/// (the exact bytes [`write_outcome`] commits to disk) — the wire form a
/// result-streaming daemon ships to clients.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on serialization failure.
pub fn outcome_to_bytes(outcome: &SimulationOutcome) -> Result<Vec<u8>, SimError> {
    let mut bytes = Vec::new();
    let mut writer = SnapWriter::new(&mut bytes, VERSION)?;
    let mut buf = SectionBuf::new();
    save_outcome(outcome, &mut buf);
    writer.section("outcome", &buf)?;
    writer.finish()?;
    Ok(bytes)
}

/// Decodes an outcome record produced by [`outcome_to_bytes`] (or read
/// from a journal file).
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on a corrupt/truncated record (the
/// `consim-snap` checksum catches bit rot).
pub fn outcome_from_bytes(bytes: &[u8]) -> Result<SimulationOutcome, SimError> {
    let mut snap = SnapReader::from_bytes(bytes.to_vec(), VERSION)?;
    let mut r = snap.section("outcome")?;
    let outcome = restore_outcome(&mut r)?;
    if r.remaining() != 0 {
        return Err(SimError::snapshot(
            SnapshotErrorKind::Corrupt,
            format!(
                "{} unconsumed bytes at the end of a journal record",
                r.remaining()
            ),
        ));
    }
    snap.expect_end()?;
    Ok(outcome)
}

/// Serializes a full configuration into a standalone checksummed record:
/// the wire form a daemon accepts in `Submit` requests and the payload of
/// on-disk submission (`.spec`) records. The process-local trace sink is
/// excluded by the snapshot codec, so these bytes digest identically to
/// [`config_digest`] of the decoded configuration.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on serialization failure.
pub fn config_to_bytes(config: &SimulationConfig) -> Result<Vec<u8>, SimError> {
    let mut bytes = Vec::new();
    let mut writer = SnapWriter::new(&mut bytes, VERSION)?;
    let mut buf = SectionBuf::new();
    snapshot::save_config(config, &mut buf);
    writer.section("config", &buf)?;
    writer.finish()?;
    Ok(bytes)
}

/// Decodes a configuration record produced by [`config_to_bytes`].
/// Decoding goes through the validated builders, so a corrupt record
/// yields [`SimError::Snapshot`] rather than an unchecked configuration.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on a corrupt/truncated record.
pub fn config_from_bytes(bytes: &[u8]) -> Result<SimulationConfig, SimError> {
    let mut snap = SnapReader::from_bytes(bytes.to_vec(), VERSION)?;
    let mut r = snap.section("config")?;
    let config = snapshot::restore_config(&mut r)?;
    if r.remaining() != 0 {
        return Err(SimError::snapshot(
            SnapshotErrorKind::Corrupt,
            format!(
                "{} unconsumed bytes at the end of a configuration record",
                r.remaining()
            ),
        ));
    }
    snap.expect_end()?;
    Ok(config)
}

/// Writes a submission (`.spec`) record to `path` atomically: the
/// experiment-cell tag plus the full configuration. A daemon journals one
/// of these *before* acknowledging a submission, so a crash between ack
/// and completion can always re-enqueue the job on restart.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on serialization or I/O failure.
pub fn write_spec(path: &Path, cell: usize, config: &SimulationConfig) -> Result<(), SimError> {
    persist(path, |bytes| {
        let mut writer = SnapWriter::new(bytes, VERSION)?;
        let mut buf = SectionBuf::new();
        buf.put_usize(cell);
        snapshot::save_config(config, &mut buf);
        writer.section("spec", &buf)?;
        writer.finish()?;
        Ok(())
    })
}

/// Reads a submission record back as `(cell, config)`.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on I/O failure or a corrupt record.
pub fn read_spec(path: &Path) -> Result<(usize, SimulationConfig), SimError> {
    let bytes = fs::read(path).map_err(|e| io_error("read", path, e))?;
    let mut snap = SnapReader::from_bytes(bytes, VERSION)?;
    let mut r = snap.section("spec")?;
    let cell = r.get_usize()?;
    let config = snapshot::restore_config(&mut r)?;
    if r.remaining() != 0 {
        return Err(SimError::snapshot(
            SnapshotErrorKind::Corrupt,
            format!(
                "{} unconsumed bytes at the end of a submission record",
                r.remaining()
            ),
        ));
    }
    snap.expect_end()?;
    Ok((cell, config))
}

/// Writes a completed-outcome record to `path` atomically.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on serialization or I/O failure.
pub fn write_outcome(path: &Path, outcome: &SimulationOutcome) -> Result<(), SimError> {
    persist(path, |bytes| {
        *bytes = outcome_to_bytes(outcome)?;
        Ok(())
    })
}

/// Reads a completed-outcome record back.
///
/// # Errors
///
/// Returns [`SimError::Snapshot`] on I/O failure or a corrupt/truncated
/// record (the `consim-snap` checksum catches bit rot).
pub fn read_outcome(path: &Path) -> Result<SimulationOutcome, SimError> {
    let bytes = fs::read(path).map_err(|e| io_error("read", path, e))?;
    outcome_from_bytes(&bytes)
}

fn save_outcome(out: &SimulationOutcome, w: &mut SectionBuf) {
    w.put_usize(out.vm_metrics.len());
    for m in &out.vm_metrics {
        m.save(w);
    }
    w.put_u64(out.replication.total_lines);
    w.put_u64(out.replication.replicated_lines);
    w.put_usize(out.occupancy.share.len());
    for bank in &out.occupancy.share {
        w.put_usize(bank.len());
        for &share in bank {
            w.put_f64(share);
        }
    }
    out.noc.save(w);
    out.protocol.save(w);
    save_placement(&out.placement, w);
    w.put_u64(out.measured_cycles);
    w.put_f64(out.dircache_hit_rate);
    w.put_f64(out.noc_mean_utilization);
    w.put_f64(out.noc_peak_utilization);
    match &out.churn {
        None => w.put_bool(false),
        Some(s) => {
            w.put_bool(true);
            for v in [
                s.spawns,
                s.retires,
                s.migrations,
                s.l0_lines_invalidated,
                s.l1_lines_invalidated,
                s.writebacks,
            ] {
                w.put_u64(v);
            }
        }
    }
}

fn restore_outcome(r: &mut SectionReader<'_>) -> Result<SimulationOutcome, SimError> {
    let num_vms = r.get_usize()?;
    let mut vm_metrics = Vec::with_capacity(num_vms.min(1024));
    for _ in 0..num_vms {
        let mut m = VmMetrics::default();
        m.restore(r)?;
        vm_metrics.push(m);
    }
    let replication = ReplicationSnapshot {
        total_lines: r.get_u64()?,
        replicated_lines: r.get_u64()?,
    };
    let banks = r.get_usize()?;
    let mut share = Vec::with_capacity(banks.min(1024));
    for _ in 0..banks {
        let vms = r.get_usize()?;
        let mut row = Vec::with_capacity(vms.min(1024));
        for _ in 0..vms {
            row.push(r.get_f64()?);
        }
        share.push(row);
    }
    let occupancy = OccupancySnapshot { share };
    let mut noc = consim_noc::NocStats::default();
    noc.restore(r)?;
    let mut protocol = consim_coherence::ProtocolStats::default();
    protocol.restore(r)?;
    let placement = restore_placement(r)?;
    Ok(SimulationOutcome {
        vm_metrics,
        replication,
        occupancy,
        noc,
        protocol,
        placement,
        measured_cycles: r.get_u64()?,
        dircache_hit_rate: r.get_f64()?,
        noc_mean_utilization: r.get_f64()?,
        noc_peak_utilization: r.get_f64()?,
        churn: if r.get_bool()? {
            Some(crate::churn::ChurnStats {
                spawns: r.get_u64()?,
                retires: r.get_u64()?,
                migrations: r.get_u64()?,
                l0_lines_invalidated: r.get_u64()?,
                l1_lines_invalidated: r.get_u64()?,
                writebacks: r.get_u64()?,
            })
        } else {
            None
        },
    })
}

fn save_placement(p: &Placement, w: &mut SectionBuf) {
    w.put_usize(p.num_vms());
    for vm in 0..p.num_vms() {
        let vm = VmId::new(vm);
        w.put_usize(p.threads_of_vm(vm));
        for t in 0..p.threads_of_vm(vm) {
            let core = p.core_of(GlobalThreadId::new(vm, ThreadId::new(t)));
            w.put_usize(core.index());
        }
    }
    snapshot::save_policy(p.policy(), w);
}

fn restore_placement(r: &mut SectionReader<'_>) -> Result<Placement, SimError> {
    let num_vms = r.get_usize()?;
    let mut core_of = Vec::with_capacity(num_vms.min(1024));
    for _ in 0..num_vms {
        let threads = r.get_usize()?;
        let mut cores = Vec::with_capacity(threads.min(1024));
        for _ in 0..threads {
            cores.push(CoreId::new(r.get_usize()?));
        }
        core_of.push(cores);
    }
    let policy = snapshot::restore_policy(r)?;
    Ok(Placement::from_parts(core_of, policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimulationConfig;
    use consim_workload::WorkloadProfileBuilder;

    fn outcome_config() -> SimulationConfig {
        let profile = WorkloadProfileBuilder::new("j")
            .footprint_blocks(3_000)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.workload(profile)
            .refs_per_vm(1_500)
            .warmup_refs_per_vm(300)
            .track_footprint(true)
            .seed(12);
        b.build().unwrap()
    }

    fn outcome() -> SimulationOutcome {
        Simulation::new(outcome_config()).unwrap().run().unwrap()
    }

    /// Record bytes outlive a build: journals keep them across restarts,
    /// clients decode them, and perfbench pins seed-1 digests over them.
    /// These digests were taken before checkpoints got a format version
    /// of their own; a change to a record's layout or to the simulation
    /// moves them.
    #[test]
    fn record_bytes_are_pinned() {
        assert_eq!(
            fnv1a(&outcome_to_bytes(&outcome()).unwrap()),
            0xce6d_283f_c58f_9736,
            "outcome record bytes moved"
        );
        assert_eq!(
            fnv1a(&config_to_bytes(&outcome_config()).unwrap()),
            0x286e_af4a_cb47_a99c,
            "configuration record bytes moved"
        );
    }

    /// Exact equality over everything the aggregator and figures consume.
    fn assert_identical(a: &SimulationOutcome, b: &SimulationOutcome) {
        assert_eq!(a.vm_metrics.len(), b.vm_metrics.len());
        for (x, y) in a.vm_metrics.iter().zip(&b.vm_metrics) {
            let mut bx = SectionBuf::new();
            let mut by = SectionBuf::new();
            x.save(&mut bx);
            y.save(&mut by);
            assert_eq!(bx.as_bytes(), by.as_bytes());
        }
        assert_eq!(a.replication.total_lines, b.replication.total_lines);
        assert_eq!(
            a.replication.replicated_lines,
            b.replication.replicated_lines
        );
        assert_eq!(a.occupancy.share, b.occupancy.share);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.measured_cycles, b.measured_cycles);
        assert_eq!(a.dircache_hit_rate.to_bits(), b.dircache_hit_rate.to_bits());
        assert_eq!(
            a.noc_mean_utilization.to_bits(),
            b.noc_mean_utilization.to_bits()
        );
        assert_eq!(
            a.noc_peak_utilization.to_bits(),
            b.noc_peak_utilization.to_bits()
        );
    }

    #[test]
    fn outcome_record_round_trips_exactly() {
        let dir = std::env::temp_dir().join(format!("consim-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let out = outcome();
        let path = dir.join("job-0000000000000007.bin");
        write_outcome(&path, &out).unwrap();
        let back = read_outcome(&path).unwrap();
        assert_identical(&out, &back);
        let leftovers = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp")
            })
            .count();
        assert_eq!(leftovers, 0, "commit must consume the temporary");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("consim-persist-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job-0000000000000000.bin");
        write_outcome(&path, &outcome()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = read_outcome(&path).unwrap_err();
        assert!(err.snapshot_kind().is_some(), "{err}");
        let missing = read_outcome(&dir.join("job-0000000000000063.bin")).unwrap_err();
        assert_eq!(missing.snapshot_kind(), Some(SnapshotErrorKind::Io));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staged_temporaries_never_collide_across_record_kinds() {
        // Regression: `Path::with_extension("tmp")` mapped `job-X.bin` and
        // `job-X.ckpt` onto the *same* temporary, so a persistent worker
        // committing an outcome while another invocation checkpointed the
        // same job could rename each other's half-written bytes into place.
        let bin = Path::new("/j/job-0007.bin");
        let ckpt = Path::new("/j/job-0007.ckpt");
        assert_eq!(
            bin.with_extension("tmp"),
            ckpt.with_extension("tmp"),
            "the old scheme really did collide"
        );
        assert_ne!(stage_path(bin, 0), stage_path(ckpt, 0));
        assert_eq!(stage_path(bin, 3), Path::new("/j/job-0007.bin.tmp3"));
        // The counter makes concurrent same-record stages distinct too.
        assert_ne!(stage_path(bin, 1), stage_path(bin, 2));
    }

    #[test]
    fn config_bytes_round_trip_preserves_digest() {
        let profile = WorkloadProfileBuilder::new("w")
            .footprint_blocks(2_500)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.workload(profile)
            .refs_per_vm(400)
            .warmup_refs_per_vm(100)
            .seed(99);
        let cfg = b.build().unwrap();
        let bytes = config_to_bytes(&cfg).unwrap();
        let back = config_from_bytes(&bytes).unwrap();
        assert_eq!(config_digest(&cfg), config_digest(&back));
        assert_eq!(bytes, config_to_bytes(&back).unwrap());
        // Corruption is a typed error, never a panic or silent decode.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(config_from_bytes(&bad)
            .unwrap_err()
            .snapshot_kind()
            .is_some());
        assert!(config_from_bytes(&bytes[..bytes.len() - 3])
            .unwrap_err()
            .snapshot_kind()
            .is_some());
    }

    #[test]
    fn spec_record_round_trips_cell_and_config() {
        let dir = std::env::temp_dir().join(format!("consim-persist-spec-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let profile = WorkloadProfileBuilder::new("sp")
            .footprint_blocks(2_000)
            .build()
            .unwrap();
        let mut b = SimulationConfig::builder();
        b.workload(profile).refs_per_vm(250).seed(5);
        let cfg = b.build().unwrap();
        let path = dir.join("job-00.spec");
        write_spec(&path, 7, &cfg).unwrap();
        let (cell, back) = read_spec(&path).unwrap();
        assert_eq!(cell, 7);
        assert_eq!(config_digest(&cfg), config_digest(&back));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outcome_bytes_match_journal_record_bytes() {
        let dir = std::env::temp_dir().join(format!("consim-persist-ob-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let out = outcome();
        let path = dir.join("job-0.bin");
        write_outcome(&path, &out).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            outcome_to_bytes(&out).unwrap(),
            "wire bytes and journal bytes must be the same record format"
        );
        assert_identical(
            &out,
            &outcome_from_bytes(&outcome_to_bytes(&out).unwrap()).unwrap(),
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_digest_tracks_configuration_content() {
        let cfg = |seed: u64| {
            let profile = WorkloadProfileBuilder::new("d")
                .footprint_blocks(2_000)
                .build()
                .unwrap();
            let mut b = SimulationConfig::builder();
            b.workload(profile).refs_per_vm(100).seed(seed);
            b.build().unwrap()
        };
        assert_eq!(
            config_digest(&cfg(1)),
            config_digest(&cfg(1)),
            "identical configurations share a digest"
        );
        assert_ne!(
            config_digest(&cfg(1)),
            config_digest(&cfg(2)),
            "a different seed must not reuse the digest"
        );
    }
}
