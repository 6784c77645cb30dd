//! The manifest's `threads` field reports the worker-pool width the run
//! actually used, not a second reading of `CONSIM_THREADS`.

use std::process::Command;

/// `CONSIM_THREADS=0` is clamped to one worker (with a warning) by the
/// runner; the manifest must say 1, not fall back to the machine's
/// parallelism.
#[test]
fn zero_thread_request_is_recorded_as_one_worker() {
    let dir = std::env::temp_dir().join(format!("consim-manifest-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["tpch", "--trace"])
        .arg(&dir)
        .env("CONSIM_THREADS", "0")
        .env("CONSIM_REFS", "500")
        .env("CONSIM_WARMUP", "100")
        .env("CONSIM_SEEDS", "1")
        .output()
        .expect("spawn sweep");
    assert!(out.status.success(), "sweep failed: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("clamping to 1"), "{stderr}");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest written");
    assert!(manifest.contains("\"threads\": 1,"), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}
