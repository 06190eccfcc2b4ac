//! CPU time and peak resident memory of a process, read from `/proc`.

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it exports to user space).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of process `pid` (`"self"` for this
/// process), summed over all its threads.
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name is parenthesised and may hold spaces; the fields
    // after it start with the state (field 3), so utime (14) and stime
    // (15) sit at offsets 11 and 12.
    let rest = text
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("{path}: bad field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Resets the peak resident set size of process `pid` to its current
/// size (`clear_refs` value 5), so a later [`peak_rss_mib`] covers only
/// what follows: brief peaks, such as a sidecar flush rendering the
/// whole store, still count, while set-up's peak does not. Where the
/// kernel refuses, the peak stays the process lifetime's, and a warning
/// says so.
pub fn reset_peak_rss(pid: &str) {
    let path = format!("/proc/{pid}/clear_refs");
    if let Err(e) = std::fs::write(&path, "5") {
        eprintln!("perfbench: {path}: {e}; rss_mb is the lifetime peak");
    }
}
