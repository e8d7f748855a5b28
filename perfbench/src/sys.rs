//! Process and thread resource readings: CPU time through `getrusage` and
//! `clock_gettime` (std already links libc, so a one-line `extern "C"`
//! declaration is enough), and peak resident memory from `/proc`.

use std::time::Duration;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User plus system CPU time of the whole process, all threads included.
pub fn process_cpu() -> Duration {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a writable, properly aligned `struct rusage` for
    // this target, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let us = |t: Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(ru.utime) + us(ru.stime))
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a writable `struct timespec` and the thread CPU
    // clock exists on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// Restarts the peak resident set size count (`VmHWM`) from the
/// current resident size. Where the kernel refuses, the peak stays the
/// whole process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() >= p0);
        assert!(peak_rss_mb() > 0.0);
        let big = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = peak_rss_mb();
        drop(big);
        reset_peak_rss();
        assert!(
            peak_rss_mb() < peak,
            "peak must restart below the 64 MiB spike"
        );
    }
}
