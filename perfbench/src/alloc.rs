//! Process-wide heap-allocation counting and peak resident memory.
//!
//! The counts come from the `bench` crate's counting global allocator, which
//! linking `bench` installs in every target of this package. Its counters
//! are process-global, so a world run attributes the allocations of every
//! simulated rank thread to the interval it covers.

/// Heap allocations (including growing reallocations) since process start.
pub fn allocs() -> u64 {
    bench::selftime::alloc_counters().0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
