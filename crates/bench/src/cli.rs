//! Shared `--audit` / `--trace <dir>` plumbing for the helper binaries.
//!
//! Every bin that runs experiments (`run_all`, `sweep`, `throughput`)
//! accepts the same two observability flags:
//!
//! * `--audit` — enable the end-of-run counter audit on every simulation
//!   (release builds only; debug builds always audit);
//! * `--trace <dir>` — stream trace events to `<dir>/events.jsonl` and
//!   write a `manifest.json` describing the run on exit.
//!
//! By default the JSONL trace carries the low-volume classes (lifecycle,
//! epoch snapshots, runner timing); set `CONSIM_TRACE_FULL=1` to also
//! record the per-transaction coherence and NoC-stall firehose.

use consim_trace::{digest_of, ClassMask, JsonlSink, Manifest, TraceSink};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Observability and recovery flags shared by the experiment bins, plus
/// whatever arguments the bin interprets itself.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BenchFlags {
    /// `--audit`: cross-check counters at the end of every simulation.
    pub audit: bool,
    /// `--trace <dir>`: trace output directory, if requested.
    pub trace_dir: Option<PathBuf>,
    /// `--resume <dir>`: results-journal directory. Completed cells found
    /// there are loaded instead of re-simulated; cells this run completes
    /// are recorded there.
    pub resume_dir: Option<PathBuf>,
    /// `--checkpoint-every <accesses>`: mid-cell checkpoint interval
    /// (effective only with `--resume`).
    pub checkpoint_every: Option<u64>,
    /// Positional/unrecognized arguments, in order, for the bin to parse.
    pub rest: Vec<String>,
}

impl BenchFlags {
    /// Parses `--audit`, `--trace <dir>`, `--resume <dir>`, and
    /// `--checkpoint-every <accesses>` out of `args` (the iterator should
    /// *not* include the program name). Everything else is passed through
    /// in [`BenchFlags::rest`].
    ///
    /// # Errors
    ///
    /// Returns a usage message when a flag is missing or has a malformed
    /// value.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut flags = Self::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if arg == "--audit" {
                flags.audit = true;
            } else if arg == "--trace" || arg == "--resume" {
                let dir = args
                    .next()
                    .ok_or_else(|| format!("{arg} requires a directory argument"))?;
                *flags.dir_slot(&arg) = Some(PathBuf::from(dir));
            } else if let Some((name, dir)) = ["--trace", "--resume"]
                .iter()
                .find_map(|n| arg.strip_prefix(&format!("{n}=")).map(|d| (*n, d)))
            {
                if dir.is_empty() {
                    return Err(format!("{name} requires a directory argument"));
                }
                *flags.dir_slot(name) = Some(PathBuf::from(dir));
            } else {
                flags.rest.push(arg);
            }
        }
        flags.checkpoint_every = flags.take_u64("--checkpoint-every")?;
        Ok(flags)
    }

    /// The flag's destination field (`--trace` or `--resume`).
    fn dir_slot(&mut self, name: &str) -> &mut Option<PathBuf> {
        if name == "--resume" {
            &mut self.resume_dir
        } else {
            &mut self.trace_dir
        }
    }

    /// Parses the process arguments, printing the error and exiting with
    /// status 2 on a malformed command line.
    pub fn from_env(bin: &str) -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(flags) => flags,
            Err(msg) => {
                eprintln!("{bin}: {msg}");
                eprintln!(
                    "usage: {bin} [--audit] [--trace <dir>] [--resume <dir>] \
                     [--checkpoint-every <accesses>] ..."
                );
                std::process::exit(2);
            }
        }
    }

    /// Extracts a `--name N` / `--name=N` integer option from
    /// [`BenchFlags::rest`], removing the consumed tokens. Returns
    /// `Ok(None)` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns a usage message when the flag is present without a value or
    /// with a non-numeric one.
    pub fn take_u64(&mut self, name: &str) -> Result<Option<u64>, String> {
        let eq_prefix = format!("{name}=");
        let Some(pos) = self
            .rest
            .iter()
            .position(|a| a == name || a.starts_with(&eq_prefix))
        else {
            return Ok(None);
        };
        let raw = if let Some(v) = self.rest[pos].strip_prefix(&eq_prefix) {
            let v = v.to_string();
            self.rest.remove(pos);
            v
        } else {
            if pos + 1 >= self.rest.len() {
                return Err(format!("{name} requires an integer argument"));
            }
            let v = self.rest.remove(pos + 1);
            self.rest.remove(pos);
            v
        };
        raw.trim()
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} requires an integer argument, got {raw:?}"))
    }

    /// Extracts a `--name PATH` / `--name=PATH` path option from
    /// [`BenchFlags::rest`], removing the consumed tokens. Returns
    /// `Ok(None)` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns a usage message when the flag is present without a value.
    pub fn take_path(&mut self, name: &str) -> Result<Option<PathBuf>, String> {
        let eq_prefix = format!("{name}=");
        let Some(pos) = self
            .rest
            .iter()
            .position(|a| a == name || a.starts_with(&eq_prefix))
        else {
            return Ok(None);
        };
        let raw = if let Some(v) = self.rest[pos].strip_prefix(&eq_prefix) {
            let v = v.to_string();
            self.rest.remove(pos);
            v
        } else {
            if pos + 1 >= self.rest.len() {
                return Err(format!("{name} requires a path argument"));
            }
            let v = self.rest.remove(pos + 1);
            self.rest.remove(pos);
            v
        };
        if raw.is_empty() {
            return Err(format!("{name} requires a path argument"));
        }
        Ok(Some(PathBuf::from(raw)))
    }

    /// Opens the trace session when `--trace` was given.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors creating the directory or the JSONL file.
    pub fn trace_session(&self) -> io::Result<Option<TraceSession>> {
        self.trace_dir
            .as_deref()
            .map(TraceSession::create)
            .transpose()
    }
}

/// Parses the `CONSIM_FAULT` fault-injection variable (`cell:K`: abort the
/// batch once `K` jobs have completed). Unset returns `None`; a set but
/// malformed value is an error — a typo'd fault spec silently ignored
/// would make a crash-recovery test pass vacuously.
pub fn fault_from_env() -> Result<Option<u64>, String> {
    fault_from_env_with("cell")
}

/// [`fault_from_env`] with a caller-chosen unit keyword: batch bins abort
/// after `cell:K` completions, the serve daemon after `jobs:K`. Keeping
/// the units distinct means a fault spec aimed at one kind of process
/// is a loud error — not a silently different trip point — in the other.
pub fn fault_from_env_with(kind: &str) -> Result<Option<u64>, String> {
    match std::env::var("CONSIM_FAULT") {
        Err(_) => Ok(None),
        Ok(raw) => raw
            .trim()
            .strip_prefix(kind)
            .and_then(|rest| rest.trim_start().strip_prefix(':'))
            .and_then(|k| k.trim().parse().ok())
            .map(Some)
            .ok_or_else(|| format!("CONSIM_FAULT={raw:?} is malformed; expected {kind}:<K>")),
    }
}

/// Extracts the `config_digest` value from rendered `manifest.json` text.
pub fn manifest_digest(text: &str) -> Option<String> {
    let key = "\"config_digest\": \"";
    let start = text.find(key)? + key.len();
    let end = text[start..].find('"')? + start;
    Some(text[start..end].to_string())
}

/// Refuses to reuse a `--trace`/`--resume` directory whose `manifest.json`
/// was written by a run with a different configuration digest: mixing
/// journal records or traces across configurations would silently corrupt
/// results. A missing or digest-matching manifest passes.
///
/// # Errors
///
/// Returns a message naming both digests on a mismatch.
pub fn guard_manifest_digest(dir: &Path, digest: &str) -> Result<(), String> {
    let path = dir.join("manifest.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(());
    };
    match manifest_digest(&text) {
        Some(previous) if previous != digest => Err(format!(
            "{} already holds results for config digest {previous}, but this run's \
             digest is {digest}; refusing to mix them — use a fresh directory or \
             rerun with the original configuration",
            dir.display()
        )),
        _ => Ok(()),
    }
}

/// One `--trace` run: a JSONL sink streaming to `<dir>/events.jsonl`, and
/// the bookkeeping needed to write `manifest.json` when the bin finishes.
#[derive(Debug)]
pub struct TraceSession {
    dir: PathBuf,
    sink: Arc<JsonlSink>,
    started: Instant,
    resumed_from: Option<String>,
    jobs: Vec<String>,
    checkpoints: Vec<String>,
}

impl TraceSession {
    /// Creates `dir` (if needed) and opens `events.jsonl` inside it. The
    /// event mask defaults to the low-volume classes; `CONSIM_TRACE_FULL=1`
    /// records everything.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let full = std::env::var("CONSIM_TRACE_FULL").is_ok_and(|v| v.trim() == "1");
        let mask = if full {
            ClassMask::ALL
        } else {
            ClassMask::default()
        };
        let sink = Arc::new(JsonlSink::with_mask(&dir.join("events.jsonl"), mask)?);
        Ok(TraceSession {
            dir: dir.to_path_buf(),
            sink,
            started: Instant::now(),
            resumed_from: None,
            jobs: Vec::new(),
            checkpoints: Vec::new(),
        })
    }

    /// The sink to install on an experiment runner.
    pub fn sink(&self) -> Arc<dyn TraceSink> {
        Arc::clone(&self.sink) as Arc<dyn TraceSink>
    }

    /// Records journal provenance for the manifest: the `--resume`
    /// directory, the per-job configuration digests of its committed
    /// `job-<digest>.bin` records, and a content digest of every
    /// journal/checkpoint record (sorted by path, so the manifest is
    /// deterministic). Call after the run, when the journal holds its
    /// final records.
    pub fn note_journal(&mut self, dir: &Path) {
        self.resumed_from = Some(dir.display().to_string());
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut records: Vec<(PathBuf, String)> = Vec::new();
        let mut jobs: Vec<String> = Vec::new();
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if !path.extension().is_some_and(|x| x == "bin" || x == "ckpt") {
                continue;
            }
            if let Some(digest) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("job-"))
                .and_then(|n| n.strip_suffix(".bin"))
            {
                jobs.push(digest.to_string());
            }
            if let Ok(bytes) = std::fs::read(&path) {
                records.push((path, digest_of(bytes.as_slice())));
            }
        }
        records.sort();
        jobs.sort();
        self.checkpoints = records.into_iter().map(|(_, d)| d).collect();
        self.jobs = jobs;
    }

    /// Flushes the trace and writes `manifest.json`; returns its path.
    /// `threads` is the worker-pool width the run resolved to
    /// ([`consim_job::runner::ExperimentRunner::workers`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors flushing or writing the manifest.
    pub fn finish(
        self,
        bin: &'static str,
        config_digest: String,
        seeds: Vec<u64>,
        llc_partitioning: String,
        threads: usize,
        audit: bool,
    ) -> io::Result<PathBuf> {
        self.sink.flush()?;
        let manifest = Manifest {
            bin,
            crate_version: env!("CARGO_PKG_VERSION"),
            config_digest,
            seeds,
            llc_partitioning,
            threads,
            audit,
            wall_seconds: self.started.elapsed().as_secs_f64(),
            trace_lines: self.sink.lines(),
            trace_errors: self.sink.errors(),
            resumed_from: self.resumed_from,
            jobs: self.jobs,
            checkpoints: self.checkpoints,
        };
        manifest.write_to(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchFlags, String> {
        BenchFlags::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_audit_and_trace() {
        let flags = parse(&["--audit", "--trace", "out/traces", "jbb"]).unwrap();
        assert!(flags.audit);
        assert_eq!(flags.trace_dir.as_deref(), Some(Path::new("out/traces")));
        assert_eq!(flags.rest, vec!["jbb".to_string()]);
    }

    #[test]
    fn parses_trace_equals_form() {
        let flags = parse(&["--trace=t"]).unwrap();
        assert_eq!(flags.trace_dir.as_deref(), Some(Path::new("t")));
        assert!(!flags.audit);
    }

    #[test]
    fn trace_without_dir_is_an_error() {
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--trace="]).is_err());
    }

    #[test]
    fn unknown_args_pass_through_in_order() {
        let flags = parse(&["tpch", "--audit", "extra"]).unwrap();
        assert_eq!(flags.rest, vec!["tpch".to_string(), "extra".to_string()]);
    }

    #[test]
    fn take_u64_consumes_both_forms() {
        let mut flags = parse(&["--cases", "500", "--seed=42", "extra"]).unwrap();
        assert_eq!(flags.take_u64("--cases"), Ok(Some(500)));
        assert_eq!(flags.take_u64("--seed"), Ok(Some(42)));
        assert_eq!(flags.take_u64("--replay"), Ok(None));
        assert_eq!(flags.rest, vec!["extra".to_string()]);
    }

    #[test]
    fn take_path_consumes_both_forms() {
        let mut flags = parse(&["--json", "out/b.json", "--log=run.txt", "extra"]).unwrap();
        assert_eq!(
            flags.take_path("--json"),
            Ok(Some(PathBuf::from("out/b.json")))
        );
        assert_eq!(flags.take_path("--log"), Ok(Some(PathBuf::from("run.txt"))));
        assert_eq!(flags.take_path("--other"), Ok(None));
        assert_eq!(flags.rest, vec!["extra".to_string()]);
        assert!(parse(&["--json"]).unwrap().take_path("--json").is_err());
        assert!(parse(&["--json="]).unwrap().take_path("--json").is_err());
    }

    #[test]
    fn take_u64_rejects_missing_or_bad_values() {
        let mut flags = parse(&["--cases"]).unwrap();
        assert!(flags.take_u64("--cases").is_err());
        let mut flags = parse(&["--cases", "many"]).unwrap();
        assert!(flags.take_u64("--cases").is_err());
    }

    #[test]
    fn session_writes_jsonl_and_manifest() {
        use consim_trace::TraceEvent;

        let dir = std::env::temp_dir().join("consim-bench-cli-session");
        std::fs::remove_dir_all(&dir).ok();
        let session = TraceSession::create(&dir).unwrap();
        session.sink().record(&TraceEvent::RunStarted {
            seed: 7,
            vms: 1,
            refs_per_vm: 10,
            warmup_refs_per_vm: 0,
        });
        let path = session
            .finish(
                "run_all",
                "0123456789abcdef".to_string(),
                vec![7],
                "none".to_string(),
                1,
                true,
            )
            .unwrap();
        let manifest = std::fs::read_to_string(&path).unwrap();
        assert!(manifest.contains("\"bin\": \"run_all\""));
        assert!(manifest.contains("\"trace_lines\": 1"));
        assert!(manifest.contains("\"threads\": 1"));
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
        assert!(events.lines().next().unwrap().contains("\"run_started\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_resume_and_checkpoint_every() {
        let flags = parse(&["--resume", "out/j", "--checkpoint-every", "50000", "x"]).unwrap();
        assert_eq!(flags.resume_dir.as_deref(), Some(Path::new("out/j")));
        assert_eq!(flags.checkpoint_every, Some(50_000));
        assert_eq!(flags.rest, vec!["x".to_string()]);
        let flags = parse(&["--resume=j2", "--checkpoint-every=9"]).unwrap();
        assert_eq!(flags.resume_dir.as_deref(), Some(Path::new("j2")));
        assert_eq!(flags.checkpoint_every, Some(9));
        assert!(parse(&["--resume"]).is_err());
        assert!(parse(&["--resume="]).is_err());
        assert!(parse(&["--checkpoint-every", "soon"]).is_err());
    }

    #[test]
    fn fault_spec_parses_or_rejects() {
        // Parse the spec format directly (the env-reading wrapper is a
        // thin shell around it; mutating the process environment here
        // would race against parallel tests).
        let parse_spec = |raw: &str| {
            raw.trim()
                .strip_prefix("cell:")
                .and_then(|k| k.trim().parse::<u64>().ok())
        };
        assert_eq!(parse_spec("cell:3"), Some(3));
        assert_eq!(parse_spec(" cell: 12 "), Some(12));
        assert_eq!(parse_spec("3"), None);
        assert_eq!(parse_spec("cell:many"), None);
    }

    #[test]
    fn digest_guard_refuses_mismatched_journal() {
        let dir = std::env::temp_dir().join(format!("consim-cli-guard-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // No manifest yet: anything goes.
        assert!(guard_manifest_digest(&dir, "aaaa").is_ok());
        std::fs::write(
            dir.join("manifest.json"),
            "{\n  \"bin\": \"run_all\",\n  \"config_digest\": \"aaaa\"\n}",
        )
        .unwrap();
        // Same digest: resume allowed.
        assert!(guard_manifest_digest(&dir, "aaaa").is_ok());
        // Different digest: refused, naming both digests.
        let err = guard_manifest_digest(&dir, "bbbb").unwrap_err();
        assert!(err.contains("aaaa") && err.contains("bbbb"), "{err}");
        assert!(err.contains("refusing"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn note_journal_digests_records_deterministically() {
        let dir = std::env::temp_dir().join(format!("consim-cli-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Flat job-layer layout: records named by per-job config digest.
        std::fs::write(dir.join("job-00000000000000bb.bin"), b"one").unwrap();
        std::fs::write(dir.join("job-00000000000000aa.ckpt"), b"zero").unwrap();
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let mut session = TraceSession::create(&dir.join("trace")).unwrap();
        session.note_journal(&dir);
        assert_eq!(
            session.checkpoints.len(),
            2,
            "only .bin/.ckpt records count"
        );
        let expected = vec![digest_of(b"zero".as_slice()), digest_of(b"one".as_slice())];
        assert_eq!(session.checkpoints, expected, "sorted by path");
        assert_eq!(
            session.jobs,
            vec!["00000000000000bb".to_string()],
            "per-job digests come from committed .bin names"
        );
        assert_eq!(
            session.resumed_from.as_deref(),
            Some(&*dir.display().to_string())
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
