//! Checkpoint and resume: the versioned, checksummed snapshot of a whole
//! [`Simulation`], and the engine section that carries the event loop's
//! position, the core bindings and the placement table.

use super::{PhaseKind, RunState, Simulation};
use crate::snapshot;
use consim_sched::Placement;
use consim_snap::{
    restore_items, save_items, SectionBuf, SectionReader, SnapReader, SnapWriter, Snapshot,
    CHECKPOINT_VERSION,
};
use consim_types::{
    Address, CoreId, Cycle, GlobalThreadId, SimError, SnapshotErrorKind, ThreadId, VmId,
};
use consim_workload::MemRef;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};

impl Simulation {
    /// Writes a complete, versioned, checksummed snapshot of the simulation
    /// — configuration and all mutable state — to `writer`. Resuming it with
    /// [`Simulation::resume`] and running to completion produces results
    /// bit-identical to never having stopped.
    ///
    /// Call between [`Simulation::advance`] invocations (or before the first
    /// one); the trace sink is not serialized (reattach with
    /// [`Simulation::set_trace`] after resuming).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] with [`SnapshotErrorKind::Io`] if
    /// `writer` fails.
    pub fn checkpoint<W: Write>(&self, writer: &mut W) -> Result<(), SimError> {
        let mut snap = SnapWriter::new(writer, CHECKPOINT_VERSION)?;

        let mut buf = SectionBuf::new();
        snapshot::save_config(&self.config, &mut buf);
        snap.section("config", &buf)?;

        let mut buf = SectionBuf::new();
        self.save_engine(&mut buf);
        snap.section("engine", &buf)?;

        let mut buf = SectionBuf::new();
        save_items(&mut buf, &self.l0);
        save_items(&mut buf, &self.l1);
        save_items(&mut buf, &self.llc);
        snap.section("caches", &buf)?;

        let mut buf = SectionBuf::new();
        self.directory.save(&mut buf);
        save_items(&mut buf, &self.dircaches);
        snap.section("coherence", &buf)?;

        let mut buf = SectionBuf::new();
        self.noc.save(&mut buf);
        save_items(&mut buf, &self.memory_controllers);
        snap.section("noc", &buf)?;

        let mut buf = SectionBuf::new();
        save_items(&mut buf, &self.generators);
        snap.section("workload", &buf)?;

        let mut buf = SectionBuf::new();
        save_items(&mut buf, &self.metrics);
        snap.section("metrics", &buf)?;

        snap.finish()?;
        Ok(())
    }

    /// Rebuilds a simulation from a [`Simulation::checkpoint`] stream. The
    /// machine is constructed from the *stored* configuration, then every
    /// stateful layer is restored into it; resuming and running to
    /// completion is bit-identical to the uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Snapshot`] describing the failure class (bad
    /// magic, unsupported version, truncation, checksum mismatch, corrupt
    /// payload, I/O) — never panics on malformed input.
    pub fn resume<R: Read>(reader: R) -> Result<Self, SimError> {
        let mut snap = SnapReader::from_reader(reader, CHECKPOINT_VERSION)?;
        let config = {
            let mut r = snap.section("config")?;
            let config = snapshot::restore_config(&mut r)?;
            finish_section(&r)?;
            config
        };
        let mut sim = Simulation::new(config)?;
        {
            let mut r = snap.section("engine")?;
            sim.restore_engine(&mut r)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("caches")?;
            restore_items(&mut r, &mut sim.l0)?;
            restore_items(&mut r, &mut sim.l1)?;
            restore_items(&mut r, &mut sim.llc)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("coherence")?;
            sim.directory.restore(&mut r)?;
            restore_items(&mut r, &mut sim.dircaches)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("noc")?;
            sim.noc.restore(&mut r)?;
            restore_items(&mut r, &mut sim.memory_controllers)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("workload")?;
            restore_items(&mut r, &mut sim.generators)?;
            finish_section(&r)?;
        }
        {
            let mut r = snap.section("metrics")?;
            restore_items(&mut r, &mut sim.metrics)?;
            finish_section(&r)?;
        }
        snap.expect_end()?;
        Ok(sim)
    }

    /// Serializes the engine-owned state: prewarm/reschedule progress, the
    /// per-core gap streams, the event loop's position, and the core
    /// bindings with the placement table.
    fn save_engine(&self, w: &mut SectionBuf) {
        w.put_bool(self.prewarmed);
        w.put_u64(self.resched_epoch);
        save_items(w, &self.gap_rngs);
        // Prefetched-but-unissued references, per global thread. The
        // generators' RNG streams have advanced past these, so a resumed
        // run must drain them before asking the generators for more. Only
        // the unissued tail is written: a checkpoint taken mid-batch and
        // one taken after a resume at the same point produce identical
        // bytes.
        w.put_usize(self.batches.len());
        for batch in &self.batches {
            let pending = &batch.refs[batch.cursor..];
            w.put_usize(pending.len());
            for r in pending {
                w.put_u64(r.address.raw());
                w.put_bool(r.is_write);
                w.put_bool(r.is_shared_region);
            }
        }
        match &self.run_state {
            None => w.put_bool(false),
            Some(st) => {
                w.put_bool(true);
                w.put_u8(match st.phase {
                    PhaseKind::Warmup => 0,
                    PhaseKind::Measure => 1,
                });
                w.put_u64(st.start.raw());
                w.put_u64_slice(&st.vm_refs);
                w.put_usize(st.vm_done.len());
                for &done in &st.vm_done {
                    w.put_bool(done);
                }
                w.put_usize(st.remaining);
                // Heap iteration order is arbitrary; serialize sorted so
                // identical states produce identical checkpoint bytes.
                let mut events: Vec<(u64, usize)> =
                    st.heap.iter().map(|&Reverse(event)| event).collect();
                events.sort_unstable();
                w.put_usize(events.len());
                for (time, core) in events {
                    w.put_u64(time);
                    w.put_usize(core);
                }
                w.put_u64(st.last_completion.raw());
                w.put_u64(st.next_resched);
                w.put_u64(st.next_epoch);
                w.put_u64(st.next_repart);
                w.put_u64(st.next_churn);
                w.put_bool(st.done);
            }
        }
        // QoS controller state (quotas, EWMA slowdowns, boundary counters);
        // presence must match the stored configuration's partitioning mode.
        match &self.qos {
            None => w.put_bool(false),
            Some(qos) => {
                w.put_bool(true);
                qos.save(w);
            }
        }
        // Churn lifecycle state.
        match &self.churn {
            None => w.put_bool(false),
            Some(ch) => {
                w.put_bool(true);
                ch.save(w);
            }
        }
        // The core bindings and the placement table are live state, rewritten
        // at churn and rescheduling boundaries, so both travel with every
        // checkpoint.
        w.put_usize(self.core_thread.len());
        for bound in &self.core_thread {
            match bound {
                None => w.put_bool(false),
                Some(thread) => {
                    w.put_bool(true);
                    w.put_usize(thread.vm.index());
                    w.put_usize(thread.thread.index());
                }
            }
        }
        for vm in 0..self.placement.num_vms() {
            let vm = VmId::new(vm);
            for t in 0..self.placement.threads_of_vm(vm) {
                let thread = GlobalThreadId::new(vm, ThreadId::new(t));
                w.put_usize(self.placement.core_of(thread).index());
            }
        }
    }

    /// Restores [`Simulation::save_engine`] state into a freshly built
    /// machine.
    fn restore_engine(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        self.prewarmed = r.get_bool()?;
        self.resched_epoch = r.get_u64()?;
        restore_items(r, &mut self.gap_rngs)?;
        r.expect_len(self.batches.len(), "thread ref batches")?;
        for (slot, batch) in self.batches.iter_mut().enumerate() {
            // Slot -> (vm, thread) via the prefix sums.
            let vm = self.thread_base.partition_point(|&b| b <= slot) - 1;
            let thread = ThreadId::new(slot - self.thread_base[vm]);
            let pending = r.get_usize()?;
            batch.cursor = 0;
            batch.refs.clear();
            for _ in 0..pending {
                let address = Address(r.get_u64()?);
                if address.vm() != VmId::new(vm) {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!(
                            "prefetched reference for VM {vm} addresses {}",
                            address.vm()
                        ),
                    ));
                }
                let is_write = r.get_bool()?;
                let is_shared_region = r.get_bool()?;
                batch.refs.push(MemRef {
                    thread,
                    address,
                    is_write,
                    is_shared_region,
                });
            }
        }
        self.run_state = if r.get_bool()? {
            let num_vms = self.config.workloads.len();
            let num_cores = self.config.machine.num_cores;
            let phase = match r.get_u8()? {
                0 => PhaseKind::Warmup,
                1 => PhaseKind::Measure,
                t => {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!("invalid phase tag {t}"),
                    ))
                }
            };
            let start = Cycle::new(r.get_u64()?);
            let vm_refs = r.get_u64_vec()?;
            if vm_refs.len() != num_vms {
                return Err(SimError::snapshot(
                    SnapshotErrorKind::Corrupt,
                    format!(
                        "snapshot tracks {} VMs, configuration builds {num_vms}",
                        vm_refs.len()
                    ),
                ));
            }
            r.expect_len(num_vms, "per-VM completion flags")?;
            let mut vm_done = Vec::with_capacity(num_vms);
            for _ in 0..num_vms {
                vm_done.push(r.get_bool()?);
            }
            let remaining = r.get_usize()?;
            if remaining != vm_done.iter().filter(|&&d| !d).count() {
                return Err(SimError::snapshot(
                    SnapshotErrorKind::Corrupt,
                    "remaining-VM count disagrees with completion flags",
                ));
            }
            let events = r.get_usize()?;
            let mut heap = BinaryHeap::with_capacity(events);
            for _ in 0..events {
                let time = r.get_u64()?;
                let core = r.get_usize()?;
                if core >= num_cores {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!("issue event on core {core} outside the {num_cores}-core machine"),
                    ));
                }
                heap.push(Reverse((time, core)));
            }
            Some(RunState {
                phase,
                start,
                vm_refs,
                vm_done,
                remaining,
                heap,
                last_completion: Cycle::new(r.get_u64()?),
                next_resched: r.get_u64()?,
                next_epoch: r.get_u64()?,
                next_repart: r.get_u64()?,
                next_churn: r.get_u64()?,
                done: r.get_bool()?,
            })
        } else {
            None
        };
        if let Some(st) = &self.run_state {
            // A stamp of a mechanism the configuration leaves off would send
            // the loop into a boundary handler with nothing to run.
            let stray = [
                (self.config.reschedule_every.is_none(), st.next_resched),
                (self.qos.is_none(), st.next_repart),
                (self.churn.is_none(), st.next_churn),
            ];
            if stray.iter().any(|&(off, stamp)| off && stamp != u64::MAX) {
                return Err(SimError::snapshot(
                    SnapshotErrorKind::Corrupt,
                    "a boundary stamp is set for a mechanism the configuration leaves off",
                ));
            }
        }
        if r.get_bool()? != self.qos.is_some() {
            return Err(SimError::snapshot(
                SnapshotErrorKind::Corrupt,
                "QoS-controller presence disagrees with the stored partitioning mode",
            ));
        }
        if let Some(qos) = &mut self.qos {
            qos.restore(r)?;
            // The live masks are derived state: rebuild them from the
            // restored quotas so a checkpoint taken after a repartition
            // resumes with the repartitioned split, not the initial one.
            self.llc_way_masks = Some(qos.masks());
        }
        if r.get_bool()? != self.churn.is_some() {
            return Err(SimError::snapshot(
                SnapshotErrorKind::Corrupt,
                "churn-state presence disagrees with the stored churn policy",
            ));
        }
        if let Some(ch) = self.churn.as_mut() {
            ch.restore(r)?;
        }
        let num_cores = self.config.machine.num_cores;
        let num_vms = self.config.workloads.len();
        r.expect_len(num_cores, "per-core thread bindings")?;
        let mut core_thread: Vec<Option<GlobalThreadId>> = Vec::with_capacity(num_cores);
        for _ in 0..num_cores {
            if r.get_bool()? {
                let vm = r.get_usize()?;
                let thread = r.get_usize()?;
                if vm >= num_vms || thread >= self.config.workloads[vm].threads {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!("core binding names thread {thread} of VM {vm}, outside the mix"),
                    ));
                }
                core_thread.push(Some(GlobalThreadId::new(
                    VmId::new(vm),
                    ThreadId::new(thread),
                )));
            } else {
                core_thread.push(None);
            }
        }
        let mut core_of: Vec<Vec<CoreId>> = Vec::with_capacity(num_vms);
        for profile in &self.config.workloads {
            let mut cores = Vec::with_capacity(profile.threads);
            for _ in 0..profile.threads {
                let core = r.get_usize()?;
                if core >= num_cores {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        format!("placement names core {core} outside the {num_cores}-core machine"),
                    ));
                }
                cores.push(CoreId::new(core));
            }
            core_of.push(cores);
        }
        let placement = Placement::from_parts(core_of, self.config.policy);
        // Cross-check: every bound core must agree with the placement
        // table, and a thread may be bound at most once. (The full
        // no-core-reuse placement validation does not apply under churn:
        // retired VMs keep their stale last placement by design.)
        let mut bound = vec![false; num_vms * num_cores];
        for (core, slot) in core_thread.iter().enumerate() {
            if let Some(thread) = slot {
                if placement.core_of(*thread).index() != core {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        "core binding disagrees with the placement table",
                    ));
                }
                let key = thread.vm.index() * num_cores + thread.thread.index();
                if std::mem::replace(&mut bound[key], true) {
                    return Err(SimError::snapshot(
                        SnapshotErrorKind::Corrupt,
                        "a thread is bound to two cores",
                    ));
                }
            }
        }
        // Every pending issue event belongs to a bound core: the loop
        // issues each popped event for the thread bound there.
        if let Some(st) = &self.run_state {
            if let Some(&Reverse((_, core))) = st
                .heap
                .iter()
                .find(|&&Reverse((_, core))| core_thread[core].is_none())
            {
                return Err(SimError::snapshot(
                    SnapshotErrorKind::Corrupt,
                    format!("issue event on core {core}, which no thread is bound to"),
                ));
            }
        }
        self.core_thread = core_thread;
        self.placement = placement;
        Ok(())
    }
}

/// Rejects unconsumed bytes at the end of a section: the payload passed its
/// checksum but holds more data than this build knows how to restore.
fn finish_section(r: &SectionReader<'_>) -> Result<(), SimError> {
    if r.remaining() != 0 {
        return Err(SimError::snapshot(
            SnapshotErrorKind::Corrupt,
            format!(
                "{} unconsumed bytes at the end of section '{}'",
                r.remaining(),
                r.name()
            ),
        ));
    }
    Ok(())
}
