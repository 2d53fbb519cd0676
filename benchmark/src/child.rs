//! Runs one child process to completion and reports what it cost: wall
//! time from spawn to exit, CPU time and peak resident set.
//!
//! CPU time and peak RSS of an exited child are only available through
//! `wait4(2)`. The container has neither the `libc` crate (no registry) nor
//! `/usr/bin/time`, so the one call is declared here by hand for Linux.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::clock;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Peak resident set, KiB.
    pub maxrss_kb: u64,
    /// Whether the child exited normally with status 0.
    pub ok: bool,
}

/// Spawns `program args..` with stdout and stderr redirected to the given
/// files (no pipes, so a chatty child can never block on us), waits for it
/// and returns its [`Usage`].
pub fn run(program: &Path, args: &[String], stdout: &Path, stderr: &Path) -> Result<Usage, String> {
    let out = File::create(stdout).map_err(|e| format!("creating {}: {e}", stdout.display()))?;
    let err = File::create(stderr).map_err(|e| format!("creating {}: {e}", stderr.display()))?;
    let started = clock::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through the two
    // pointers, both of which point at live, correctly laid-out (`repr(C)`,
    // 144-byte) locals; `pid` is our own un-reaped child, and `child` is
    // never waited on through std afterwards, so the pid cannot be reused
    // under us.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = clock::secs_since(started);
    if reaped != pid {
        return Err(format!(
            "wait4({pid}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Usage {
        wall_s,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        maxrss_kb: ru.maxrss_kb.max(0) as u64,
        // WIFEXITED && WEXITSTATUS == 0: low 7 bits (signal) and the exit
        // byte are all zero.
        ok: status & 0xff7f == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_status_and_usage_of_a_real_child() {
        let dir = std::env::temp_dir().join(format!("repsperf-child-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (out, err) = (dir.join("out"), dir.join("err"));
        let sh = Path::new("/bin/sh");
        let ok = run(sh, &["-c".into(), "echo hi".into()], &out, &err).expect("spawn sh");
        assert!(ok.ok);
        assert!(ok.wall_s > 0.0 && ok.maxrss_kb > 0);
        assert_eq!(std::fs::read_to_string(&out).expect("stdout file"), "hi\n");
        let bad = run(sh, &["-c".into(), "exit 3".into()], &out, &err).expect("spawn sh");
        assert!(!bad.ok);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
