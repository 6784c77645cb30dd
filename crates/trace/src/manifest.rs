//! Run manifests: the `manifest.json` written next to a JSONL trace.
//!
//! A manifest records everything needed to reproduce and cross-check the
//! run that produced a trace: which binary, a digest of the effective
//! configuration, the seeds, the worker-thread count, and wall time. Bins
//! write it at exit via [`Manifest::write_to`].

use std::fmt::Write as _;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::{Path, PathBuf};

use consim_types::hash::FastHasher;

/// Stable 64-bit digest of any hashable configuration value, rendered as
/// fixed-width hex. Used to tie a manifest to the exact config that ran.
///
/// # Examples
///
/// ```
/// use consim_trace::digest_of;
///
/// let a = digest_of(&("sweep", 16u32, 42u64));
/// let b = digest_of(&("sweep", 16u32, 42u64));
/// assert_eq!(a, b);
/// assert_eq!(a.len(), 16);
/// assert_ne!(a, digest_of(&("sweep", 16u32, 43u64)));
/// ```
pub fn digest_of<T: Hash + ?Sized>(value: &T) -> String {
    let mut hasher = FastHasher::default();
    value.hash(&mut hasher);
    format!("{:016x}", hasher.finish())
}

/// Metadata describing one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Which binary produced the trace (`run_all`, `sweep`).
    pub bin: &'static str,
    /// Workspace crate version (`CARGO_PKG_VERSION` of the bin crate).
    pub crate_version: &'static str,
    /// Digest of the effective run configuration (see [`digest_of`]).
    pub config_digest: String,
    /// Seeds the run covered.
    pub seeds: Vec<u64>,
    /// LLC way-partitioning policy label of the machine (e.g. `none`,
    /// `equal-ways`, `ways-8/4/2/2`).
    pub llc_partitioning: String,
    /// Worker threads used by the experiment runner.
    pub threads: usize,
    /// Whether the counter audit was enabled.
    pub audit: bool,
    /// Total wall-clock time of the run in seconds.
    pub wall_seconds: f64,
    /// Trace JSONL lines written (0 if the trace was disabled).
    pub trace_lines: u64,
    /// Trace write failures (events dropped on I/O error).
    pub trace_errors: u64,
    /// Journal directory this run resumed from (`--resume`), if any.
    pub resumed_from: Option<String>,
    /// Per-job configuration digests of the journal's committed outcome
    /// records (the `job-<digest>.bin` names, sorted): exactly which jobs
    /// the journal vouches for, independent of how they were batched.
    pub jobs: Vec<String>,
    /// Digests of the journal/checkpoint records involved in the run
    /// (sorted by file name), tying the manifest to the exact on-disk
    /// records it trusted or produced.
    pub checkpoints: Vec<String>,
}

impl Manifest {
    /// Serializes the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bin\": {},", json_string(self.bin));
        let _ = writeln!(
            out,
            "  \"crate_version\": {},",
            json_string(self.crate_version)
        );
        let _ = writeln!(
            out,
            "  \"config_digest\": {},",
            json_string(&self.config_digest)
        );
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "  \"seeds\": [{}],", seeds.join(", "));
        let _ = writeln!(
            out,
            "  \"llc_partitioning\": {},",
            json_string(&self.llc_partitioning)
        );
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"audit\": {},", self.audit);
        let _ = writeln!(out, "  \"wall_seconds\": {},", json_f64(self.wall_seconds));
        let _ = writeln!(out, "  \"trace_lines\": {},", self.trace_lines);
        let _ = writeln!(out, "  \"trace_errors\": {},", self.trace_errors);
        let _ = writeln!(
            out,
            "  \"resumed_from\": {},",
            match &self.resumed_from {
                Some(dir) => json_string(dir),
                None => "null".to_string(),
            }
        );
        let jobs: Vec<String> = self.jobs.iter().map(|d| json_string(d)).collect();
        let _ = writeln!(out, "  \"jobs\": [{}],", jobs.join(", "));
        let checkpoints: Vec<String> = self.checkpoints.iter().map(|d| json_string(d)).collect();
        let _ = writeln!(out, "  \"checkpoints\": [{}]", checkpoints.join(", "));
        out.push('}');
        out
    }

    /// Writes `manifest.json` into `dir`, creating the directory if needed.
    /// Returns the path written.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join("manifest.json");
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Escapes and quotes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            bin: "run_all",
            crate_version: "0.1.0",
            config_digest: digest_of(&("figures", 42u64)),
            seeds: vec![42, 43],
            llc_partitioning: "none".to_string(),
            threads: 4,
            audit: true,
            wall_seconds: 1.25,
            trace_lines: 321,
            trace_errors: 0,
            resumed_from: None,
            jobs: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    #[test]
    fn digest_is_stable_and_hex() {
        let d = digest_of(&"config");
        assert_eq!(d, digest_of(&"config"));
        assert_eq!(d.len(), 16);
        assert!(d.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn json_has_all_fields() {
        let json = sample().to_json();
        for key in [
            "\"bin\": \"run_all\"",
            "\"crate_version\": \"0.1.0\"",
            "\"config_digest\"",
            "\"seeds\": [42, 43]",
            "\"llc_partitioning\": \"none\"",
            "\"threads\": 4",
            "\"audit\": true",
            "\"wall_seconds\": 1.25",
            "\"trace_lines\": 321",
            "\"trace_errors\": 0",
            "\"resumed_from\": null",
            "\"jobs\": []",
            "\"checkpoints\": []",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn write_to_creates_dir_and_file() {
        let dir = std::env::temp_dir().join("consim-trace-test-manifest");
        std::fs::remove_dir_all(&dir).ok();
        let path = sample().write_to(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "manifest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"bin\": \"run_all\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_wall_time_serializes_as_null() {
        let mut m = sample();
        m.wall_seconds = f64::NAN;
        assert!(m.to_json().contains("\"wall_seconds\": null"));
    }

    #[test]
    fn resume_provenance_serializes() {
        let mut m = sample();
        m.resumed_from = Some("out/journal".to_string());
        m.jobs = vec!["0011223344556677".to_string()];
        m.checkpoints = vec!["aa".to_string(), "bb".to_string()];
        let json = m.to_json();
        assert!(json.contains("\"resumed_from\": \"out/journal\""));
        assert!(json.contains("\"jobs\": [\"0011223344556677\"]"));
        assert!(json.contains("\"checkpoints\": [\"aa\", \"bb\"]"));
    }
}
