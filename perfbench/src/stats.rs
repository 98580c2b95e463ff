//! Summary statistics and host resource probes.

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` (`0 < q < 1`), or `None` when fewer than
/// ten samples lie beyond it: a tail percentile is reported only with
/// at least ten observations in the tail it describes.
///
/// Nearest-rank: the smallest sample with at least `q * n` samples at
/// or below it.
pub fn tail_quantile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a, the benchmark's own output digest. Kept independent
/// of the simulator's hashing so a change there cannot move the
/// recorded digests.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU seconds (user + system) the process has used, over every
/// thread, reaped ones included.
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Resets the process's resident-set high-water mark to its current
/// resident set, so the next [`peak_rss_mb`] covers only what runs in
/// between. Best effort: where the kernel refuses, the mark stays the
/// lifetime peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        // 99 samples: p90 is the 90th, and only 9 lie beyond it.
        assert_eq!(tail_quantile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&xs, 0.9), Some(90.0));
        assert_eq!(tail_quantile(&[], 0.9), None);
        // The median of a small sample is still reported.
        assert_eq!(tail_quantile(&[1.0; 20], 0.5), Some(1.0));
    }

    #[test]
    fn peak_rss_follows_a_reset() {
        reset_peak_rss();
        let before = peak_rss_mb();
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let during = peak_rss_mb();
        drop(block);
        assert!(during - before > 60.0, "{before} -> {during}");
        reset_peak_rss();
        assert!(peak_rss_mb() < during);
        assert!(cpu_seconds() > 0.0);
    }

    #[test]
    fn fnv_separates_inputs() {
        let h = |v: u64| {
            let mut f = Fnv::default();
            f.u64(v);
            f.finish()
        };
        assert_ne!(h(1), h(2));
        assert_eq!(h(7), h(7));
    }
}
