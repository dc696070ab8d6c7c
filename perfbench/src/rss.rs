//! Peak resident set size of this process, with a reset so a window of
//! work can be measured on its own.

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(field))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// The process's peak RSS (`VmHWM`) since start or the last
/// [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Lowers the peak RSS to the current RSS (writing `5` to
/// `/proc/self/clear_refs`), so the next [`peak_mib`] covers only what
/// ran after this call. Without it a setup allocation — a cold store
/// population, say — would set every later reading.
///
/// # Errors
///
/// When procfs refuses the write; the peak cannot be measured then.
pub fn reset_peak() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Returns heap memory the allocator holds free to the system (glibc
/// `malloc_trim`); before [`reset_peak`], so that what a finished
/// set-up left cached in the allocator does not count as resident.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only gives back pages
    // glibc's allocator already holds as free; any thread may call it at
    // any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Without glibc there is nothing to trim.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}
