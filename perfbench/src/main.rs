//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --serve-bin <path> --work-dir <dir>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones of that workload; with
//! `--trace 1` they are the whole per-layer view. `perfbench/run.py`
//! builds this binary and the daemon, then calls it.

use perfbench::{campaign, engine_shapes, serve_open, traced, WORKLOADS};
use std::path::PathBuf;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: perfbench::DEFAULT_SEED,
        seconds: 30,
        trace: false,
        serve_bin: PathBuf::new(),
        work_dir: PathBuf::from(".bench_build/perfbench-run"),
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--serve-bin" => args.serve_bin = PathBuf::from(&value),
            "--work-dir" => args.work_dir = PathBuf::from(&value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?} must be one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("campaign-child") {
        raw.next();
        let (mut seed, mut spans) = (perfbench::DEFAULT_SEED, None);
        while let (Some(flag), Some(value)) = (raw.next(), raw.next()) {
            match flag.as_str() {
                "--seed" => seed = value.parse().unwrap_or(seed),
                "--spans" => spans = Some(PathBuf::from(value)),
                _ => {}
            }
        }
        if let Err(e) = campaign::child(seed, spans.as_deref()) {
            eprintln!("perfbench campaign: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse(raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let exe = std::env::current_exe().expect("the running executable has a path");
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: create {}: {e}", args.work_dir.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        traced(
            &exe,
            &args.serve_bin,
            &args.work_dir,
            args.seed,
            args.seconds,
        )
    } else {
        match args.workload.as_str() {
            "engine-shapes" => engine_shapes::run(args.seed, args.seconds),
            "campaign" => campaign::run(&exe, args.seed, args.seconds),
            _ => serve_open::run(
                &args.serve_bin,
                &serve_open::work_dir(&args.work_dir, args.seed),
                args.seed,
                args.seconds,
            ),
        }
    };
    match result {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
