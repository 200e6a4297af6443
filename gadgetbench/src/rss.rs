//! Peak resident memory, made repeatable.
//!
//! `VmHWM` is the process's peak resident size. Two glibc defaults make
//! it depend on the order of earlier frees rather than on the work:
//! the mmap threshold rises whenever a large block is freed, so later
//! large blocks come from the heap and stay resident after they are
//! freed; and freed heap memory stays resident until trimmed. Left so,
//! the peak swung from 35 to 48 MiB between seeds of one workload.
//! With the threshold pinned and the heap trimmed before each scan,
//! the peak during a scan follows the live data.

/// Pins glibc's mmap threshold at its 128 KiB default, so freed large
/// blocks always go back to the system.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: glibc's `mallopt` takes two plain integers; it is
        // called once, before this program starts any thread.
        if unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } != 1 {
            eprintln!("gadgetbench: could not pin the malloc mmap threshold");
        }
    }
}

/// Starts a fresh peak window: returns the allocator's free memory to
/// the system, then resets `VmHWM` to the resident size that is left.
/// Best effort: where the kernel refuses the reset, `VmHWM` keeps the
/// peak so far.
pub fn reset_peak() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a plain integer and only
        // releases memory the allocator holds free, which no Rust
        // object refers to.
        unsafe { malloc_trim(0) };
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process, in MiB (0 where it cannot be read).
pub fn peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
