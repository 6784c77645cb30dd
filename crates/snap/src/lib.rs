//! Hand-rolled, versioned, checksummed binary snapshot format for
//! deterministic checkpoint/restore of `consim` simulations.
//!
//! A snapshot is a stream of named *sections*:
//!
//! ```text
//! +--------+---------+   +----------+------+-------------+---------+----------+
//! | "CSNP" | version |   | name_len | name | payload_len | payload | checksum |
//! +--------+---------+   +----------+------+-------------+---------+----------+
//!   4 bytes  u32 LE        u32 LE    utf-8    u64 LE       bytes     u64 LE
//!                          \______________ repeated per section ______________/
//! ```
//!
//! Every multi-byte integer is little-endian. The checksum is FNV-1a over the
//! payload bytes and is validated *before* any payload byte is parsed, so a
//! single flipped bit anywhere in a section surfaces as
//! [`SnapshotErrorKind::Checksum`] rather than a garbled parse. Sections are
//! read strictly in the order they were written: readers ask for a section
//! *by name* and a mismatch is a [`SnapshotErrorKind::Corrupt`] error, which
//! catches files produced by a different simulator layout.
//!
//! State is captured through the [`Snapshot`] trait: `save` appends to an
//! in-memory [`SectionBuf`] and is infallible; `restore` reads from a
//! [`SectionReader`] *in place*, so the caller first rebuilds the object's
//! structure from configuration and then overlays the dynamic state. That
//! split keeps every shape check (set counts, way counts, thread counts) in
//! one place — the restoring type — and makes "resume = construct + restore"
//! the only code path.
//!
//! # Examples
//!
//! ```
//! use consim_snap::{SectionBuf, SnapReader, SnapWriter, Snapshot, VERSION};
//! use consim_types::SimRng;
//!
//! let mut rng = SimRng::from_seed(7);
//! rng.next_u64();
//!
//! let mut buf = SectionBuf::new();
//! rng.save(&mut buf);
//! let mut out = Vec::new();
//! let mut writer = SnapWriter::new(&mut out, VERSION).unwrap();
//! writer.section("rng", &buf).unwrap();
//!
//! let mut reader = SnapReader::from_reader(&out[..], VERSION).unwrap();
//! let mut restored = SimRng::from_seed(0);
//! restored.restore(&mut reader.section("rng").unwrap()).unwrap();
//! assert_eq!(restored.next_u64(), rng.next_u64());
//! ```

use std::io::{Read, Write};

use consim_types::cycles::LatencyAccumulator;
use consim_types::{Cycle, SimError, SimRng, SnapshotErrorKind};

/// File magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"CSNP";

/// Format version of standalone records: outcome, configuration and
/// submission records. Bump on any incompatible record layout change.
///
/// Versions 1–4 covered checkpoints and records alike:
/// * 1 — per-set AoS cache sections (`Option<CacheLine>` per way).
/// * 2 — flat SoA cache planes (tag/state/recency vectors per cache) and
///   batched generator cursors; v1 files are rejected as
///   [`SnapshotErrorKind::BadVersion`].
/// * 3 — dynamic-QoS repartitioning: the engine section gains the next
///   repartition boundary and the controller's state (way quotas, EWMA
///   slowdowns, per-boundary counter baselines); older versions are
///   rejected as [`SnapshotErrorKind::BadVersion`].
/// * 4 — VM lifecycle churn: the config section gains the machine's churn
///   policy and per-profile load-phase schedules, and the engine section
///   gains the next churn boundary plus the churn runtime state (active
///   flags, arrival ordinals, bindings, statistics); older versions are
///   rejected as [`SnapshotErrorKind::BadVersion`].
/// * 5 — checkpoints only ([`CHECKPOINT_VERSION`]): a cache section
///   carries its valid lines as `(slot, tag, state)` records plus their
///   LRU stamps, not whole tag/state/stamp planes. A v4 checkpoint is
///   rejected as [`SnapshotErrorKind::BadVersion`], and the job pool
///   re-runs its job. Records stay at 4, so their bytes and every digest
///   taken over them are unchanged.
/// * 6 — checkpoints only: the engine section carries the core bindings
///   and the placement table for every run, not only under churn, so a
///   resumed run reads its rescheduled placement back instead of
///   replaying the rescheduling epochs; the next rescheduling boundary is
///   a plain cycle stamp (`u64::MAX` when off) instead of an optional one.
///   A v5 checkpoint is rejected as [`SnapshotErrorKind::BadVersion`].
/// * 7 — checkpoints only: the NoC section drops the latest departure
///   cycle, which only drove the link calendars' fixed pruning horizon;
///   calendars now prune at the floor the engine passes with each booking
///   and store nothing for it. A v6 checkpoint is rejected as
///   [`SnapshotErrorKind::BadVersion`].
pub const VERSION: u32 = 4;

/// Format version of engine checkpoints (`Simulation::checkpoint`).
///
/// Checkpoints are versioned apart from records since 5 (see
/// [`VERSION`]'s history): a checkpoint layout change must not move a
/// byte of an outcome record, whose digests callers pin. A checkpoint
/// of any other version is rejected as [`SnapshotErrorKind::BadVersion`];
/// runs are deterministic, so its owner can re-run the job instead.
pub const CHECKPOINT_VERSION: u32 = 7;

/// FNV-1a hash of a byte slice — the section checksum function.
///
/// Also used by callers that need a cheap stable digest of snapshot bytes
/// (e.g. journal file names).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn corrupt(msg: impl Into<String>) -> SimError {
    SimError::snapshot(SnapshotErrorKind::Corrupt, msg)
}

fn truncated(msg: impl Into<String>) -> SimError {
    SimError::snapshot(SnapshotErrorKind::Truncated, msg)
}

/// A type whose dynamic state can be checkpointed and restored in place.
///
/// `save` is infallible because it only appends to an in-memory buffer;
/// `restore` validates shape against `self` (constructed from configuration)
/// and reports mismatches as [`SimError::Snapshot`].
pub trait Snapshot {
    /// Appends this object's dynamic state to `w`.
    fn save(&self, w: &mut SectionBuf);

    /// Overwrites this object's dynamic state from `r`.
    ///
    /// `self` must already have the structure implied by the simulation
    /// configuration; only mutable state is read back.
    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError>;
}

/// Growable in-memory payload buffer with infallible little-endian encoders.
#[derive(Debug, Default, Clone)]
pub struct SectionBuf {
    bytes: Vec<u8>,
}

impl SectionBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (encoded as `u64`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` via its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.bytes.extend_from_slice(v.as_bytes());
    }

    /// Appends an optional `u64` as a presence byte plus value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Appends a length-prefixed slice of `u64`s.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed slice of raw bytes (e.g. a state plane).
    pub fn put_u8_slice(&mut self, vs: &[u8]) {
        self.put_usize(vs.len());
        self.bytes.extend_from_slice(vs);
    }
}

/// Bounds-checked little-endian decoders over one section's payload.
///
/// Every read that runs past the payload end is a
/// [`SnapshotErrorKind::Truncated`] error naming the section.
#[derive(Debug)]
pub struct SectionReader<'a> {
    name: &'a str,
    data: &'a [u8],
    pos: usize,
}

impl<'a> SectionReader<'a> {
    /// Wraps a raw payload; used by tests and by [`SnapReader::section`].
    pub fn new(name: &'a str, data: &'a [u8]) -> Self {
        Self { name, data, pos: 0 }
    }

    /// The section name, for error context.
    pub fn name(&self) -> &str {
        self.name
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        if self.remaining() < n {
            return Err(truncated(format!(
                "section '{}': wanted {n} bytes, {} left",
                self.name,
                self.remaining()
            )));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, SimError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| {
            corrupt(format!(
                "section '{}': length {v} exceeds address space",
                self.name
            ))
        })
    }

    /// Reads an `f64` from its exact bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SimError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a boolean; any byte other than 0/1 is corrupt.
    pub fn get_bool(&mut self) -> Result<bool, SimError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!(
                "section '{}': invalid boolean byte {b}",
                self.name
            ))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SimError> {
        let len = self.get_u32()? as usize;
        let name = self.name;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| corrupt(format!("section '{name}': invalid utf-8 string")))
    }

    /// Reads an optional `u64` (presence byte plus value).
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, SimError> {
        if self.get_bool()? {
            Ok(Some(self.get_u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed vector of `u64`s.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, SimError> {
        let len = self.get_usize()?;
        let mut out = Vec::with_capacity(len.min(self.remaining() / 8 + 1));
        for _ in 0..len {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed slice of raw bytes into `dst`; the stored
    /// length must equal `dst.len()` exactly (`what` names the mismatch).
    pub fn get_u8_slice_into(&mut self, dst: &mut [u8], what: &str) -> Result<(), SimError> {
        self.expect_len(dst.len(), what)?;
        let bytes = self.take(dst.len())?;
        dst.copy_from_slice(bytes);
        Ok(())
    }

    /// Reads a length prefix and requires it to equal `expected`.
    ///
    /// Used by restore impls to check that serialized shape matches the
    /// freshly constructed object before overwriting element state.
    pub fn expect_len(&mut self, expected: usize, what: &str) -> Result<(), SimError> {
        let stored = self.get_usize()?;
        if stored != expected {
            return Err(corrupt(format!(
                "section '{}': snapshot has {stored} {what}, configuration builds {expected}",
                self.name
            )));
        }
        Ok(())
    }
}

/// Writes a slice of snapshot-able items with a length prefix.
pub fn save_items<T: Snapshot>(w: &mut SectionBuf, items: &[T]) {
    w.put_usize(items.len());
    for item in items {
        item.save(w);
    }
}

/// Restores a slice of snapshot-able items in place; the stored length must
/// match `items.len()` exactly.
pub fn restore_items<T: Snapshot>(
    r: &mut SectionReader<'_>,
    items: &mut [T],
) -> Result<(), SimError> {
    r.expect_len(items.len(), "items")?;
    for item in items.iter_mut() {
        item.restore(r)?;
    }
    Ok(())
}

/// Streams sections to a [`Write`] sink, emitting the header up front.
#[derive(Debug)]
pub struct SnapWriter<W: Write> {
    inner: W,
}

impl<W: Write> SnapWriter<W> {
    /// Writes the snapshot header stamped with format `version`
    /// ([`VERSION`] or [`CHECKPOINT_VERSION`]) and returns the section
    /// writer.
    pub fn new(mut inner: W, version: u32) -> Result<Self, SimError> {
        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&version.to_le_bytes());
        inner
            .write_all(&header)
            .map_err(|e| SimError::snapshot(SnapshotErrorKind::Io, e.to_string()))?;
        Ok(Self { inner })
    }

    /// Appends one named, checksummed section.
    pub fn section(&mut self, name: &str, buf: &SectionBuf) -> Result<(), SimError> {
        let payload = buf.as_bytes();
        let mut frame = Vec::with_capacity(4 + name.len() + 8 + payload.len() + 8);
        frame.extend_from_slice(&(name.len() as u32).to_le_bytes());
        frame.extend_from_slice(name.as_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
        self.inner
            .write_all(&frame)
            .map_err(|e| SimError::snapshot(SnapshotErrorKind::Io, e.to_string()))?;
        Ok(())
    }

    /// Flushes and returns the underlying sink.
    pub fn finish(mut self) -> Result<W, SimError> {
        self.inner
            .flush()
            .map_err(|e| SimError::snapshot(SnapshotErrorKind::Io, e.to_string()))?;
        Ok(self.inner)
    }
}

/// Reads a snapshot stream, serving sections strictly in written order.
#[derive(Debug)]
pub struct SnapReader {
    data: Vec<u8>,
    pos: usize,
}

impl SnapReader {
    /// Slurps the whole stream and validates the header; the stream must
    /// carry format `version`.
    pub fn from_reader<R: Read>(mut reader: R, version: u32) -> Result<Self, SimError> {
        let mut data = Vec::new();
        reader
            .read_to_end(&mut data)
            .map_err(|e| SimError::snapshot(SnapshotErrorKind::Io, e.to_string()))?;
        Self::from_bytes(data, version)
    }

    /// Validates the header of an in-memory snapshot, which must carry
    /// format `version`.
    pub fn from_bytes(data: Vec<u8>, version: u32) -> Result<Self, SimError> {
        if data.len() < 4 {
            return Err(truncated("file shorter than magic"));
        }
        if data[..4] != MAGIC {
            return Err(SimError::snapshot(
                SnapshotErrorKind::BadMagic,
                "file does not start with CSNP",
            ));
        }
        if data.len() < 8 {
            return Err(truncated("file ends inside version field"));
        }
        let stored = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if stored != version {
            return Err(SimError::snapshot(
                SnapshotErrorKind::BadVersion,
                format!("snapshot version {stored}, this build reads {version}"),
            ));
        }
        Ok(Self { data, pos: 8 })
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], SimError> {
        if self.data.len() - self.pos < n {
            return Err(truncated(format!("file ends inside {what}")));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads the next section, requiring its name to be `expected`.
    ///
    /// The checksum is validated over the whole payload before a
    /// [`SectionReader`] is handed out, so parse code never sees bit-rotted
    /// bytes.
    pub fn section(&mut self, expected: &str) -> Result<SectionReader<'_>, SimError> {
        let name_len =
            u32::from_le_bytes(self.take(4, "section name length")?.try_into().unwrap()) as usize;
        let name_start = self.pos;
        self.take(name_len, "section name")?;
        let payload_len =
            u64::from_le_bytes(self.take(8, "section payload length")?.try_into().unwrap());
        let payload_len = usize::try_from(payload_len)
            .map_err(|_| corrupt("section payload length exceeds address space"))?;
        let payload_start = self.pos;
        self.take(payload_len, "section payload")?;
        let stored_sum = u64::from_le_bytes(self.take(8, "section checksum")?.try_into().unwrap());

        let name = std::str::from_utf8(&self.data[name_start..name_start + name_len])
            .map_err(|_| corrupt("section name is not valid utf-8"))?;
        if name != expected {
            return Err(corrupt(format!(
                "expected section '{expected}', found '{name}'"
            )));
        }
        let payload = &self.data[payload_start..payload_start + payload_len];
        if fnv1a(payload) != stored_sum {
            return Err(SimError::snapshot(
                SnapshotErrorKind::Checksum,
                format!("section '{expected}' failed checksum"),
            ));
        }
        Ok(SectionReader::new(
            std::str::from_utf8(&self.data[name_start..name_start + name_len]).unwrap(),
            payload,
        ))
    }

    /// Requires that every byte of the stream has been consumed.
    pub fn expect_end(&self) -> Result<(), SimError> {
        if self.pos != self.data.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after final section",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Snapshot for SimRng {
    fn save(&self, w: &mut SectionBuf) {
        w.put_u64(self.seed());
        for word in self.state() {
            w.put_u64(word);
        }
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        let seed = r.get_u64()?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        *self = SimRng::restore(seed, state);
        Ok(())
    }
}

impl Snapshot for Cycle {
    fn save(&self, w: &mut SectionBuf) {
        w.put_u64(self.raw());
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        self.0 = r.get_u64()?;
        Ok(())
    }
}

impl Snapshot for LatencyAccumulator {
    fn save(&self, w: &mut SectionBuf) {
        let (count, total, max, min) = self.raw_parts();
        w.put_u64(count);
        w.put_u64(total);
        w.put_u64(max);
        w.put_u64(min);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        let count = r.get_u64()?;
        let total = r.get_u64()?;
        let max = r.get_u64()?;
        let min = r.get_u64()?;
        *self = LatencyAccumulator::from_raw_parts(count, total, max, min);
        Ok(())
    }
}

impl Snapshot for u64 {
    fn save(&self, w: &mut SectionBuf) {
        w.put_u64(*self);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SimError> {
        *self = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_snapshot() -> Vec<u8> {
        let mut a = SectionBuf::new();
        a.put_u64(0xdead_beef);
        a.put_str("hello");
        a.put_bool(true);
        a.put_opt_u64(Some(42));
        a.put_f64(1.5);
        let mut b = SectionBuf::new();
        b.put_u64_slice(&[1, 2, 3]);
        b.put_u8(9);

        let mut out = Vec::new();
        let mut w = SnapWriter::new(&mut out, VERSION).unwrap();
        w.section("alpha", &a).unwrap();
        w.section("beta", &b).unwrap();
        w.finish().unwrap();
        out
    }

    #[test]
    fn round_trips_all_primitives() {
        let bytes = two_section_snapshot();
        let mut r = SnapReader::from_bytes(bytes, VERSION).unwrap();
        let mut a = r.section("alpha").unwrap();
        assert_eq!(a.get_u64().unwrap(), 0xdead_beef);
        assert_eq!(a.get_str().unwrap(), "hello");
        assert!(a.get_bool().unwrap());
        assert_eq!(a.get_opt_u64().unwrap(), Some(42));
        assert_eq!(a.get_f64().unwrap(), 1.5);
        assert_eq!(a.remaining(), 0);
        let mut b = r.section("beta").unwrap();
        assert_eq!(b.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(b.get_u8().unwrap(), 9);
        r.expect_end().unwrap();
    }

    #[test]
    fn wrong_magic_is_typed() {
        let mut bytes = two_section_snapshot();
        bytes[0] = b'X';
        let err = SnapReader::from_bytes(bytes, VERSION).unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::BadMagic));
    }

    #[test]
    fn wrong_version_is_typed() {
        let mut bytes = two_section_snapshot();
        bytes[4] = 0xff;
        let err = SnapReader::from_bytes(bytes, VERSION).unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::BadVersion));
    }

    #[test]
    fn version_one_files_are_rejected() {
        // v1 predates the SoA cache planes; reading one must be a typed
        // error, never a garbled parse.
        let mut bytes = two_section_snapshot();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let err = SnapReader::from_bytes(bytes, VERSION).unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::BadVersion));
    }

    #[test]
    fn records_and_checkpoints_refuse_each_others_version() {
        let mut checkpoint = Vec::new();
        SnapWriter::new(&mut checkpoint, CHECKPOINT_VERSION)
            .unwrap()
            .finish()
            .unwrap();
        assert!(SnapReader::from_bytes(checkpoint.clone(), CHECKPOINT_VERSION).is_ok());
        let err = SnapReader::from_bytes(checkpoint, VERSION).unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::BadVersion));
        let err = SnapReader::from_bytes(two_section_snapshot(), CHECKPOINT_VERSION).unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::BadVersion));
    }

    #[test]
    fn u8_slice_round_trips_and_checks_shape() {
        let mut buf = SectionBuf::new();
        buf.put_u8_slice(&[3, 1, 0, 2]);
        let mut r = SectionReader::new("planes", buf.as_bytes());
        let mut back = [0u8; 4];
        r.get_u8_slice_into(&mut back, "state plane").unwrap();
        assert_eq!(back, [3, 1, 0, 2]);

        let mut r = SectionReader::new("planes", buf.as_bytes());
        let mut short = [0u8; 3];
        let err = r.get_u8_slice_into(&mut short, "state plane").unwrap_err();
        assert!(err.to_string().contains("state plane"), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_typed_never_a_panic() {
        let bytes = two_section_snapshot();
        for cut in 0..bytes.len() {
            let result =
                SnapReader::from_bytes(bytes[..cut].to_vec(), VERSION).and_then(|mut r| {
                    let mut a = r.section("alpha")?;
                    a.get_u64()?;
                    a.get_str()?;
                    r.section("beta")?;
                    Ok(())
                });
            let err = result.expect_err("truncated snapshot must not parse");
            assert!(
                matches!(
                    err.snapshot_kind(),
                    Some(SnapshotErrorKind::Truncated | SnapshotErrorKind::BadMagic)
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_in_each_section_fails_checksum() {
        let clean = two_section_snapshot();
        // Locate each section's payload region by re-parsing the frame
        // layout: header(8) name_len(4) name payload_len(8) payload sum(8).
        let mut pos = 8;
        let mut payload_spans = Vec::new();
        while pos < clean.len() {
            let name_len = u32::from_le_bytes(clean[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + name_len;
            let payload_len = u64::from_le_bytes(clean[pos..pos + 8].try_into().unwrap()) as usize;
            pos += 8;
            payload_spans.push((pos, payload_len));
            pos += payload_len + 8;
        }
        assert_eq!(payload_spans.len(), 2);
        for (section_index, (start, len)) in payload_spans.into_iter().enumerate() {
            for offset in [0, len / 2, len - 1] {
                let mut bytes = clean.clone();
                bytes[start + offset] ^= 0x01;
                let mut r = SnapReader::from_bytes(bytes, VERSION).unwrap();
                let result = (|| {
                    r.section("alpha")?;
                    r.section("beta")?;
                    Ok(())
                })();
                let err: SimError = result.expect_err("flipped byte must fail");
                assert_eq!(
                    err.snapshot_kind(),
                    Some(SnapshotErrorKind::Checksum),
                    "section {section_index} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn wrong_section_name_is_corrupt() {
        let bytes = two_section_snapshot();
        let mut r = SnapReader::from_bytes(bytes, VERSION).unwrap();
        let err = r.section("gamma").unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::Corrupt));
        assert!(err.to_string().contains("gamma"));
        assert!(err.to_string().contains("alpha"));
    }

    #[test]
    fn invalid_bool_byte_is_corrupt() {
        let mut r = SectionReader::new("t", &[7]);
        let err = r.get_bool().unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::Corrupt));
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = two_section_snapshot();
        bytes.push(0);
        let mut r = SnapReader::from_bytes(bytes, VERSION).unwrap();
        r.section("alpha").unwrap();
        r.section("beta").unwrap();
        let err = r.expect_end().unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::Corrupt));
    }

    #[test]
    fn rng_snapshot_continues_stream_exactly() {
        let mut rng = SimRng::from_seed(99);
        for _ in 0..23 {
            rng.next_u64();
        }
        let mut buf = SectionBuf::new();
        rng.save(&mut buf);
        let mut restored = SimRng::from_seed(1);
        restored
            .restore(&mut SectionReader::new("rng", buf.as_bytes()))
            .unwrap();
        for _ in 0..64 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
        // Derived streams must match too (seed word is preserved).
        assert_eq!(
            restored.derive("child").next_u64(),
            rng.derive("child").next_u64()
        );
    }

    #[test]
    fn cycle_and_accumulator_round_trip() {
        let mut buf = SectionBuf::new();
        Cycle::new(12345).save(&mut buf);
        let mut acc = LatencyAccumulator::new();
        acc.record(3);
        acc.record(17);
        acc.save(&mut buf);
        LatencyAccumulator::new().save(&mut buf);

        let mut r = SectionReader::new("t", buf.as_bytes());
        let mut c = Cycle::ZERO;
        c.restore(&mut r).unwrap();
        assert_eq!(c, Cycle::new(12345));
        let mut back = LatencyAccumulator::new();
        back.restore(&mut r).unwrap();
        assert_eq!(back, acc);
        let mut empty = LatencyAccumulator::default();
        empty.restore(&mut r).unwrap();
        assert_eq!(empty, LatencyAccumulator::new());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn item_slices_enforce_length() {
        let mut buf = SectionBuf::new();
        save_items(&mut buf, &[1u64, 2, 3]);
        let mut short = [0u64; 2];
        let err =
            restore_items(&mut SectionReader::new("t", buf.as_bytes()), &mut short).unwrap_err();
        assert_eq!(err.snapshot_kind(), Some(SnapshotErrorKind::Corrupt));
        let mut exact = [0u64; 3];
        restore_items(&mut SectionReader::new("t", buf.as_bytes()), &mut exact).unwrap();
        assert_eq!(exact, [1, 2, 3]);
    }
}
