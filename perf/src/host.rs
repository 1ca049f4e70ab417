//! What the benchmark reads from the host: clocks, memory high-water
//! mark, core count, and a fixed calibration spin for the noise guard.
//! Linux-only by construction (`/proc`), like the container it runs in.

use std::time::Instant;

/// Monotonic nanoseconds since the first call. This is the clock handed
/// to `RackSim::set_profile_clock` in the traced pass (a plain `fn`, so
/// it has to anchor itself).
pub fn wall_clock_ns() -> u64 {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

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

/// User + system CPU seconds consumed by every thread of this process,
/// including threads that already exited. `/proc/self/stat` reports the
/// same quantity in 10 ms ticks, too coarse for sub-second reps; the
/// libc call std already links gives nanoseconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call;
    // clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) in MB, or 0 when `/proc` is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets `VmHWM` to the current RSS so the next reading is the peak of
/// what follows. Freed heap is handed back to the kernel first, or the
/// "current RSS" would still hold whatever an earlier workload in this
/// process freed. Returns whether the kernel accepted the reset; when it
/// did not, the reading is the peak since process start.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    // SAFETY: malloc_trim takes no pointers and only releases memory the
    // allocator already holds free; glibc documents it as thread-safe.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// SplitMix64 steps in one calibration spin: ~200 ms on the 2-core host
/// the benchmark was sized on. The count is fixed — the *time* is the
/// measurement.
const CALIB_STEPS: u64 = 130_000_000;

/// Times a fixed CPU-bound spin. Two readings that differ by more than
/// 10 % bracket a stretch in which the host was not steady.
pub fn calib_spin_ns() -> u64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..CALIB_STEPS {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as u64
}

/// Whether two calibration readings drifted apart by more than 10 %.
pub fn calib_drifted(before_ns: u64, after_ns: u64) -> bool {
    let (lo, hi) = (before_ns.min(after_ns), before_ns.max(after_ns));
    lo == 0 || (hi - lo) as f64 / lo as f64 > 0.10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_s();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > a);
    }

    #[test]
    fn drift_threshold_is_ten_percent() {
        assert!(!calib_drifted(200, 215));
        assert!(calib_drifted(200, 225));
        assert!(calib_drifted(225, 200));
        assert!(calib_drifted(0, 200));
    }

    #[test]
    fn peak_rss_reads_a_positive_figure() {
        assert!(peak_rss_mb() > 0.0);
    }
}
