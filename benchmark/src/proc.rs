//! Child processes measured from outside: wall-clock from spawn to exit,
//! and peak resident memory from the kernel's own high-water mark.
//!
//! `wait4(2)`'s `ru_maxrss` would be the obvious source, but Linux carries
//! the spawning process's memory high-water mark through `exec` into the
//! child's figure, so a child can never read lower than the harness did
//! when it spawned it — and the harness holds whole graphs. `VmHWM` in
//! `/proc/<pid>/status` belongs to the child's own address space.

use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often a running child's `VmHWM` is sampled. The mark only rises,
/// so the last sample misses at most what the child grew in its final
/// milliseconds — `flexminer` reaches its peak while mining, long before
/// it prints and exits.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Peak resident set size of the live process `pid` in MB, if it can be
/// read (a zombie has no address space left to ask about).
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?.trim().strip_suffix("kB")?;
    Some(kb.trim().parse::<f64>().ok()? / 1024.0)
}

/// One finished `flexminer` invocation.
pub struct Finished {
    /// Exit code, or -1 when a signal ended the process.
    pub code: i32,
    /// Spawn to exit.
    pub wall: Duration,
    pub peak_rss_mb: f64,
    pub stdout: String,
}

/// Runs `cmd` to completion, capturing stdout (stderr passes through).
pub fn run(cmd: &mut Command) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut child = cmd.stdin(Stdio::null()).stdout(Stdio::piped()).spawn()?;
    let pid = child.id();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let mut stdout = String::new();
    let exited = AtomicBool::new(false);
    let (read, status, wall, peak_rss_mb) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !exited.load(Ordering::Relaxed) {
                peak = peak.max(vm_hwm_mb(pid).unwrap_or(0.0));
                std::thread::sleep(SAMPLE_EVERY);
            }
            peak
        });
        // End of file on stdout is the child exiting; reap it whatever the
        // read returned, so no child outlives the call.
        let read = pipe.read_to_string(&mut stdout);
        let status = child.wait();
        let wall = start.elapsed();
        exited.store(true, Ordering::Relaxed);
        (read, status, wall, sampler.join().expect("sampler thread panicked"))
    });
    read?;
    Ok(Finished { code: status?.code().unwrap_or(-1), wall, peak_rss_mb, stdout })
}
