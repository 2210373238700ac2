//! Host measurements: process CPU time, peak resident memory and the
//! cache/core facts every result is reported next to.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hsbench reads CPU time and peak memory through the 64-bit Linux libc ABI");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread of the
/// process, live and exited, at nanosecond resolution.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked by the `compile_error!` above) that
    // outlives the call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one closure call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let r = f();
    let wall = t0.elapsed().as_secs_f64();
    (r, wall, cpu_seconds() - cpu0)
}

/// Peak resident set size of this process in MiB (`ru_maxrss`, which
/// Linux reports in KiB).
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        ru_rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (layout fixed
    // for 64-bit Linux, checked by the `compile_error!` above) that
    // outlives the call, and `RUSAGE_SELF` is a constant Linux defines.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.ru_maxrss as f64 / 1024.0
}

/// Logical cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size of the largest CPU cache in MiB, from sysfs (0 when unknown).
pub fn llc_mb() -> f64 {
    let mut best = 0.0f64;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.chars().last() {
            Some('K') => (&text[..text.len() - 1], 1.0 / 1024.0),
            Some('M') => (&text[..text.len() - 1], 1.0),
            Some('G') => (&text[..text.len() - 1], 1024.0),
            _ => (text, 1.0 / (1024.0 * 1024.0)),
        };
        if let Ok(v) = digits.parse::<f64>() {
            best = best.max(v * scale);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let (sum, _, cpu) = timed(|| (0..5_000_000u64).map(std::hint::black_box).sum::<u64>());
        assert!(sum > 0);
        assert!(cpu > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
