//! CPU time, peak resident memory and bytes written of a process, read
//! from `/proc/<pid>`.

use std::io;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 on
/// every architecture the kernel exposes to user space.
const TICKS_PER_S: f64 = 100.0;

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds so far.
    pub cpu_s: f64,
    /// Peak resident set (`VmHWM`) in MiB.
    pub hwm_mib: f64,
    /// Bytes passed to `write`-family calls so far (`wchar`), when
    /// `/proc/<pid>/io` is readable; only the daemon's traced view needs it.
    pub wchar: Option<u64>,
}

/// Reads the counters of `pid` (`"self"` for this process).
///
/// # Errors
///
/// Returns the I/O error when `stat` or `status` is missing or malformed.
pub fn sample(pid: &str) -> io::Result<ProcSample> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').ok_or_else(|| bad("stat"))?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| bad("stat cpu field"))
    };
    let cpu_s = (ticks(11)? + ticks(12)?) / TICKS_PER_S;
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let hwm_kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad("status VmHWM"))?;
    let wchar = std::fs::read_to_string(format!("/proc/{pid}/io"))
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:"))?
                .trim()
                .parse()
                .ok()
        });
    Ok(ProcSample {
        cpu_s,
        hwm_mib: hwm_kib / 1024.0,
        wchar,
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_this_process() {
        let s = super::sample("self").unwrap();
        assert!(s.hwm_mib > 0.0);
    }
}
