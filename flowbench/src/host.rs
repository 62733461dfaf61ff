//! The host the benchmark measures on: CPU pinning, the on-CPU clock,
//! peak memory and the machine description every record carries.
//!
//! Timings are the process's on-CPU time (`CLOCK_PROCESS_CPUTIME_ID`):
//! every thread's run time, including threads that have ended. On a
//! shared virtual machine the hypervisor takes the virtual CPU away for
//! stretches (steal time) that wall clocks count and that vary from
//! minute to minute; the scheduler's run time excludes them (with
//! paravirtual steal accounting), so runs made at different times
//! compare. Workloads whose parallel paths are not what they measure pin
//! the process to one CPU first, which makes every pool the program sizes
//! from `available_parallelism` serial.

use std::process::Command;

use crate::json::quote;
use crate::workloads::{FSIM_WORKERS, PREPARE_WORKERS};

/// Pins the whole process to the last CPU it may run on, and returns that
/// CPU. Requires `taskset` (util-linux).
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu = allowed
        .trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|c| c.parse::<usize>().ok())
        .ok_or_else(|| format!("cannot read CPU list `{}`", allowed.trim()))?;
    let pid = std::process::id().to_string();
    let out = Command::new("taskset")
        .args(["-a", "-c", "-p", &cpu.to_string(), &pid])
        .output()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset could not pin to CPU {cpu}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    match std::thread::available_parallelism().map(|n| n.get()) {
        Ok(1) => Ok(cpu),
        n => Err(format!("still {n:?} CPUs available after pinning")),
    }
}

/// The process's on-CPU seconds so far, summed over all its threads.
///
/// # Panics
///
/// Panics if the clock cannot be read; [`check_cpu_clock`] reports that
/// as an error before any timing starts.
pub fn cpu_s() -> f64 {
    read_cpu_ns().expect("the CPU clock was readable at start-up") as f64 * 1e-9
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn read_cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for).
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(format!(
            "cannot read the process CPU clock: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Fails when the on-CPU clock is unavailable.
pub fn check_cpu_clock() -> Result<(), String> {
    read_cpu_ns().map(drop)
}

/// Peak resident set of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The machine and build the result was measured on, and the worker
/// counts: the pipeline and fault simulator pinned through their API, and
/// the pools the program sizes itself from the CPUs the process may use
/// (one when it is pinned, `nproc` otherwise).
pub fn environment(nproc: usize, pinned_cpu: Option<usize>) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    // Git may look for a repository only in the working directory, not in
    // the directories above it.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
        .unwrap_or_default();
    let command = |prog: &str, args: &[&str]| -> Option<String> {
        let out = Command::new(prog)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let rustc = command("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command("git", &["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and(command(
            "git",
            &["status", "--porcelain", "--untracked-files=no"],
        ))
        .map(|s| (!s.is_empty()).to_string());
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"pinned_cpu\":{},\"cpu\":{},\"rustc\":{},\
         \"commit\":{},\"dirty\":{},\"clock\":\"process on-CPU time\",\
         \"workers\":{{\"prepare_pipeline\":{PREPARE_WORKERS},\"bench_fault_sim\":{FSIM_WORKERS},\
         \"explorer_sweep\":{auto},\"atpg_fault_sim\":{auto},\"seq_fault_sim\":{auto}}}}}",
        pinned_cpu.map_or("null".into(), |c| c.to_string()),
        quote(&cpu),
        quote(&rustc),
        commit.map_or("null".into(), |c| quote(&c)),
        dirty.unwrap_or_else(|| "null".into()),
    )
}
