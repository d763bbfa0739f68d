//! Process-level readings (CPU time, peak resident memory) and the summary
//! statistics every metric is reported with.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user+sys CPU of every thread of the
/// process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time the whole process has consumed so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and `clock_gettime` writes only
    // through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Hand free heap memory back to the kernel (glibc `malloc_trim`), so the
/// next run's resident memory starts from what is live rather than from
/// what earlier runs left in the allocator.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own state under its own locks, and may be called at any
    // time from any thread.
    unsafe { malloc_trim(0) };
}

/// Resident memory of this process now (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kib as f64 * 1024.0 / 1e6
}

/// Samples [`rss_mb`] on a background thread until stopped and keeps the
/// largest reading: the peak resident memory of whatever ran meanwhile.
pub struct PeakRss {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

/// Sampling period of [`PeakRss`].
const RSS_PERIOD: Duration = Duration::from_millis(2);

impl PeakRss {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = rss_mb();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_PERIOD);
                peak = peak.max(rss_mb());
            }
            peak
        });
        PeakRss { stop, thread }
    }

    /// Stop sampling and return the peak in MB.
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("RSS sampler panicked")
    }
}

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => Summary::default(),
            1 => Summary { n: 1, p25: v[0], median: v[0], p75: v[0] },
            n => Summary {
                n,
                p25: quantile_excl(&v, 1),
                median: quantile_excl(&v, 2),
                p75: quantile_excl(&v, 3),
            },
        }
    }

    /// Interquartile range as a share of the median (0 for an empty or
    /// zero-median sample).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// The `i`-th of four cut points of sorted `v` (n >= 2), exclusive method.
fn quantile_excl(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m - j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let t0 = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > t0);
        let sampler = PeakRss::start();
        let buf = vec![1u8; 32 << 20];
        std::thread::sleep(Duration::from_millis(20));
        std::hint::black_box(&buf);
        assert!(sampler.stop() >= 32.0);
    }
}
