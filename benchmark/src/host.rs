//! Host readings: process CPU time from the process CPU clock; peak RSS,
//! steal time and voluntary context switches from `/proc`. Every reader
//! returns `None` where the clock, file or field is missing, so the benchmark
//! degrades to "not measured" on such a host instead of failing.

use std::fs;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds consumed by this process so far, summed
/// over all its threads, including those that have exited. The same
/// quantity as `utime + stime` of `/proc/self/stat`, but at nanosecond
/// rather than 10 ms resolution: a repetition lasts 0.1 to 0.3 s.
pub fn process_cpu_seconds() -> Option<f64> {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a writable `timespec` for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    (rc == 0).then_some(now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9)
}

/// The value of a `Key:   123 kB`-style line of a `/proc/*/status` text.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_status_field(&status, "VmHWM")? as f64 / 1024.0)
}

/// Voluntary context switches summed over the threads alive right now.
/// Threads that exit take their count with them, so sample while the
/// runtime under test is still up.
pub fn voluntary_context_switches() -> Option<u64> {
    let mut total = 0;
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let status = fs::read_to_string(entry.ok()?.path().join("status")).ok()?;
        total += parse_status_field(&status, "voluntary_ctxt_switches")?;
    }
    Some(total)
}

/// `(steal, total)` ticks from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_proc_stat_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already included in user and nice.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Host-wide `(steal, total)` ticks so far.
pub fn steal_ticks() -> Option<(u64, u64)> {
    parse_proc_stat_steal(&fs::read_to_string("/proc/stat").ok()?)
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`steal_ticks`] samples.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_cpu_time_advances_with_work() {
        let before = process_cpu_seconds().expect("a process CPU clock");
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let spent = process_cpu_seconds().unwrap() - before;
        assert!(spent > 0.0 && spent < 60.0, "{spent} s for a 20M-step loop");
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tsigbench\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t17\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(voluntary_context_switches().is_some());
    }

    #[test]
    fn steal_is_the_eighth_column() {
        let text = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_proc_stat_steal(text), Some((35, 1000)));
        assert_eq!(steal_frac(Some((10, 1000)), Some((35, 2000))), 0.025);
        assert_eq!(steal_frac(None, Some((35, 2000))), 0.0);
    }
}
