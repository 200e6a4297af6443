//! Host speed, sampled after every scan, so that end-to-end times can
//! be read at one host speed.
//!
//! On a shared host the same scans run up to 1.8x slower for minutes
//! at a time while other tenants load the caches, memory and sibling
//! hyperthread; CPU time does not remove that, because the
//! instructions themselves take longer. Plain ALU and pointer-chase
//! kernels timed beside the scans slowed about half as much as the
//! scans did. A small bytecode interpreter, which like the VM hot loop
//! is an indirect dispatch over a data array, tracked them: over nine
//! minutes of rounds under changing load, 20-second window medians of
//! scan time spread 20% (IQR over median) and those of scan time over
//! kernel time 3% (README.md, "Host speed"). The kernel is the
//! `hostref` binary (`bin/hostref.rs`), built beside this one.

use std::path::PathBuf;
use std::process::Command;

/// CPU seconds of one `hostref` pass on the reference host (2-vCPU
/// Intel Xeon VM) at a quiet hour: the median of 200 samples taken as
/// `sample` takes them.
pub const NOMINAL_S: f64 = 0.0126;

/// How much more the scans slow down than the kernel when the host
/// does: regressing the log of 20- and 40-second window medians of
/// scan time on those of kernel time gave slopes of 1.3-1.45 on
/// `deep-fuzz` and 1.8-2.1 on `gadget-triage` (correlation 0.86-0.97).
/// One exponent between them serves every workload.
const EXPONENT: f64 = 1.5;

/// The factor that turns CPU seconds measured while the kernel took
/// `pass_s` per pass into seconds at the reference host's speed.
pub fn scale(pass_s: f64) -> f64 {
    (NOMINAL_S / pass_s).powf(EXPONENT)
}

/// Times one kernel pass in a fresh `hostref` process and returns its
/// CPU seconds.
pub fn sample() -> Result<f64, String> {
    let exe = hostref()?;
    let out = Command::new(&exe)
        .output()
        .map_err(|e| format!("could not run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{} failed: {}", exe.display(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map_err(|e| format!("bad output from {}: {e}: {text:?}", exe.display()))
}

/// The `hostref` executable, which Cargo puts beside this one.
fn hostref() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let exe = me.with_file_name(format!("hostref{}", std::env::consts::EXE_SUFFIX));
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} is missing: build every binary of the package (see run.sh)",
            exe.display()
        ))
    }
}
