//! Process counters read from `/proc/self`, the host's steal time from
//! `/proc/stat`, and the process CPU clock, with `std` only.

use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// A point-in-time reading of the process counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSample {
    /// User + system CPU seconds of every thread of the process, exited
    /// threads included.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches of the main thread.
    pub ctx_switches: u64,
    /// Peak resident set size so far (`VmHWM`), in kB.
    pub peak_rss_kb: u64,
    /// CPU ticks of all CPUs so far, and the part of them stolen by the
    /// hypervisor for other guests: what makes wall times noisy on a
    /// shared host.
    pub host_ticks: u64,
    pub host_steal_ticks: u64,
}

impl ProcSample {
    pub fn read() -> Result<Self, String> {
        let stat =
            fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
        let status = fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("/proc/self/status: {e}"))?;
        let cpu_s = parse_cpu_seconds(&stat).ok_or("unparsable /proc/self/stat")?;
        let host = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        let (host_ticks, host_steal_ticks) =
            parse_host_ticks(&host).ok_or("unparsable /proc/stat")?;
        let field = |key: &str| {
            status_field(&status, key).ok_or_else(|| format!("no {key} in /proc/self/status"))
        };
        Ok(Self {
            cpu_s,
            ctx_switches: field("voluntary_ctxt_switches")? + field("nonvoluntary_ctxt_switches")?,
            peak_rss_kb: field("VmHWM")?,
            host_ticks,
            host_steal_ticks,
        })
    }
}

impl ProcSample {
    /// Returns the heap's free pages to the kernel, then resets `VmHWM` to
    /// the current resident set size, so the next reading gives the peak
    /// of what ran in between on top of live memory only. Without the
    /// trim, memory freed by earlier passes would count, in an amount that
    /// depends on which threads freed it.
    pub fn reset_peak_rss() -> Result<(), String> {
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time.
        unsafe { malloc_trim(0) };
        fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds used so far by every thread of this process, exited
/// threads included, at nanosecond resolution. The kernel leaves out of a
/// thread's run time what the hypervisor stole from the VM while the
/// thread was on a CPU.
pub fn process_cpu_s() -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (64-bit fields on
    // the 64-bit Linux targets this benchmark runs on).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// A point on the wall clock and the process CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    pub fn wall(&self) -> Instant {
        self.wall
    }
}

/// Per-operation wall and process CPU times, in seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpTimes {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
}

impl OpTimes {
    /// Records one operation that ran from `start` to `end`.
    pub fn push(&mut self, start: &Stamp, end: &Stamp) {
        self.wall_s
            .push(end.wall.duration_since(start.wall).as_secs_f64());
        self.cpu_s.push(end.cpu_s - start.cpu_s);
    }

    pub fn len(&self) -> usize {
        self.wall_s.len()
    }
}

/// `utime + stime` in seconds from a `/proc/<pid>/stat` line. The command
/// name in parentheses may itself contain spaces or parentheses, so fields
/// are counted from the last `)`.
fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the name: state is field 3, utime field 14, stime field 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `(total, steal)` ticks from the aggregate `cpu` line of `/proc/stat`:
/// user, nice, system, idle, iowait, irq, softirq, steal (guest time is
/// already part of user).
fn parse_host_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace();
    let ticks: Vec<u64> = fields
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks.iter().sum(), ticks[7]))
}

/// The leading integer of a `Key:   value [kB]` line of `/proc/<pid>/status`.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let stat = "4242 (a b) c)) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("no parens here"), None);
    }

    #[test]
    fn parses_host_steal() {
        let stat = "cpu  10 0 5 80 1 0 0 4 0 0\ncpu0 5 0 2 40 0 0 0 2 0 0\n";
        assert_eq!(parse_host_ticks(stat), Some((100, 4)));
        assert_eq!(parse_host_ticks("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_ticks("intr 1 2 3 4 5 6 7 8\n"), None);
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  10240 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM"), Some(10240));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), None);
    }

    #[test]
    fn process_cpu_clock_counts_work_of_exited_threads() {
        let before = Stamp::now();
        // The main thread sleeps in the join while the worker spins.
        std::thread::spawn(|| {
            let t = std::time::Instant::now();
            while t.elapsed().as_millis() < 30 {
                std::hint::black_box(t.elapsed());
            }
        })
        .join()
        .expect("worker");
        let after = Stamp::now();
        let mut ops = OpTimes::default();
        ops.push(&before, &after);
        assert_eq!(ops.len(), 1);
        assert!(ops.wall_s[0] >= 0.03);
        // A clock of the main thread alone would read almost nothing; the
        // bound leaves room for a host that steals much of the worker's
        // time.
        assert!(ops.cpu_s[0] >= 0.01, "{ops:?}");
    }

    #[test]
    fn reads_this_process() {
        let s = ProcSample::read().expect("/proc/self is readable on Linux");
        assert!(s.peak_rss_kb > 0);
        assert!(s.cpu_s >= 0.0);
    }
}
