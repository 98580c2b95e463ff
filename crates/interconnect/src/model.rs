//! The PCI-e cost model: latency and bandwidth as a function of
//! transfer size.

use std::sync::OnceLock;

use uvm_types::{Bytes, Duration, PAGES_PER_LARGE_PAGE, PAGE_SIZE};

/// Calibration points measured by the paper on a GTX 1080ti with
/// PCI-e 3.0 16x (Table 1): `(transfer size, bandwidth in GB/s)`.
const TABLE1: [(Bytes, f64); 5] = [
    (Bytes::kib(4), 3.2219),
    (Bytes::kib(16), 6.4437),
    (Bytes::kib(64), 8.4771),
    (Bytes::kib(256), 10.508),
    (Bytes::kib(1024), 11.223),
];

/// Table 1 transfer times of every whole number of 4 KB pages up to
/// 2 MB (index = page count), the sizes of every migration and
/// write-back. Filled on the first transfer, not at model construction.
static TABLE1_PAGE_TIMES: OnceLock<[Duration; PAGES_PER_LARGE_PAGE as usize + 1]> = OnceLock::new();

/// Bandwidth-vs-size cost model for one direction of a PCI-e link.
///
/// The model stores calibration points and interpolates bandwidth
/// linearly in `log2(size)` between them; outside the calibrated range
/// the bandwidth is clamped to the first/last point. This reproduces
/// the paper's Table 1 exactly at the calibration sizes while keeping
/// both bandwidth and latency monotonically increasing in size — the
/// property the paper's analysis relies on ("scheduling larger
/// transfers amortizes activation overhead").
///
/// # Examples
///
/// ```
/// use uvm_interconnect::PcieModel;
/// use uvm_types::Bytes;
///
/// let pcie = PcieModel::pascal_x16();
/// let t_small = pcie.transfer_time(Bytes::kib(4));
/// let t_large = pcie.transfer_time(Bytes::kib(64));
/// // One 64 KB transfer beats sixteen 4 KB transfers by a wide margin.
/// assert!(t_large.cycles() < 16 * t_small.cycles() / 2);
/// ```
#[derive(Clone, Debug)]
pub struct PcieModel {
    /// `(log2(size_bytes), bandwidth GB/s)` calibration points, sorted.
    points: Vec<(f64, f64)>,
    /// Calibrated to Table 1, so whole-page transfer times come from
    /// [`TABLE1_PAGE_TIMES`].
    table1: bool,
}

impl PcieModel {
    /// The model calibrated to the paper's GTX 1080ti / PCI-e 3.0 16x
    /// measurements (Table 1).
    pub fn pascal_x16() -> Self {
        PcieModel {
            table1: true,
            ..Self::from_calibration(&TABLE1)
        }
    }

    /// Builds a model from `(size, GB/s)` calibration points.
    ///
    /// # Panics
    ///
    /// Panics if fewer than one point is given, if sizes are not
    /// strictly increasing, or if any bandwidth is not positive.
    pub fn from_calibration(points: &[(Bytes, f64)]) -> Self {
        assert!(!points.is_empty(), "need at least one calibration point");
        let mut prev = 0u64;
        for &(size, gbps) in points {
            assert!(size.bytes() > prev, "sizes must be strictly increasing");
            assert!(gbps > 0.0, "bandwidth must be positive");
            prev = size.bytes();
        }
        PcieModel {
            points: points
                .iter()
                .map(|&(size, gbps)| ((size.bytes() as f64).log2(), gbps))
                .collect(),
            table1: false,
        }
    }

    /// Effective bandwidth in GB/s for a transfer of `size`.
    ///
    /// Interpolated in `log2(size)` between calibration points and
    /// clamped outside them. Zero-size transfers report the smallest
    /// calibrated bandwidth.
    pub fn bandwidth_gbps(&self, size: Bytes) -> f64 {
        let first = self.points[0];
        let last = *self.points.last().expect("non-empty");
        if size.bytes() == 0 {
            return first.1;
        }
        let x = (size.bytes() as f64).log2();
        if x <= first.0 {
            return first.1;
        }
        if x >= last.0 {
            return last.1;
        }
        let hi = self
            .points
            .iter()
            .position(|&(px, _)| px >= x)
            .expect("x below last point");
        let (x0, y0) = self.points[hi - 1];
        let (x1, y1) = self.points[hi];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Wall-clock time to move `size` bytes over the link, including
    /// the per-transaction activation overhead (which is folded into
    /// the effective-bandwidth curve).
    ///
    /// A zero-size transfer takes zero time.
    pub fn transfer_time(&self, size: Bytes) -> Duration {
        let pages = size.bytes() / PAGE_SIZE.bytes();
        if self.table1
            && size.bytes().is_multiple_of(PAGE_SIZE.bytes())
            && pages <= PAGES_PER_LARGE_PAGE
        {
            let times = TABLE1_PAGE_TIMES.get_or_init(|| {
                std::array::from_fn(|k| self.compute_transfer_time(PAGE_SIZE * k as u64))
            });
            return times[pages as usize];
        }
        self.compute_transfer_time(size)
    }

    /// [`transfer_time`](Self::transfer_time) computed from the curve.
    fn compute_transfer_time(&self, size: Bytes) -> Duration {
        if size == Bytes::ZERO {
            return Duration::ZERO;
        }
        let secs = size.bytes() as f64 / (self.bandwidth_gbps(size) * 1e9);
        Duration::from_secs(secs)
    }
}

impl Default for PcieModel {
    fn default() -> Self {
        Self::pascal_x16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The model must reproduce Table 1 exactly at calibration sizes.
    #[test]
    fn table1_reproduced_exactly() {
        let m = PcieModel::pascal_x16();
        for &(size, gbps) in &TABLE1 {
            assert!(
                (m.bandwidth_gbps(size) - gbps).abs() < 1e-12,
                "bandwidth mismatch at {size}"
            );
        }
    }

    #[test]
    fn clamped_outside_calibrated_range() {
        let m = PcieModel::pascal_x16();
        assert_eq!(m.bandwidth_gbps(Bytes::new(1)), 3.2219);
        assert_eq!(m.bandwidth_gbps(Bytes::kib(1)), 3.2219);
        assert_eq!(m.bandwidth_gbps(Bytes::mib(2)), 11.223);
        assert_eq!(m.bandwidth_gbps(Bytes::ZERO), 3.2219);
    }

    #[test]
    fn interpolation_is_between_neighbors() {
        let m = PcieModel::pascal_x16();
        let bw = m.bandwidth_gbps(Bytes::kib(32));
        assert!(bw > 6.4437 && bw < 8.4771, "got {bw}");
        // log2(32K) is exactly midway between log2(16K) and log2(64K).
        assert!((bw - (6.4437 + 8.4771) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_times_match_paper_magnitudes() {
        let m = PcieModel::pascal_x16();
        // 4 KB at 3.2219 GB/s is ~1.27 us.
        let t4k = m.transfer_time(Bytes::kib(4));
        assert!(
            (t4k.as_micros() - 1.2713).abs() < 0.01,
            "{}",
            t4k.as_micros()
        );
        // 1 MB at 11.223 GB/s is ~93.4 us.
        let t1m = m.transfer_time(Bytes::kib(1024));
        assert!((t1m.as_micros() - 93.43).abs() < 0.2, "{}", t1m.as_micros());
        assert_eq!(m.transfer_time(Bytes::ZERO), Duration::ZERO);
    }

    #[test]
    fn batching_beats_piecemeal() {
        // The core economic fact of the paper: one 64 KB transfer is far
        // cheaper than sixteen 4 KB transfers, and one 1 MB transfer is
        // far cheaper than 256 4 KB ones.
        let m = PcieModel::pascal_x16();
        let t4k = m.transfer_time(Bytes::kib(4)).cycles();
        assert!(m.transfer_time(Bytes::kib(64)).cycles() < 16 * t4k);
        assert!(m.transfer_time(Bytes::kib(1024)).cycles() < 256 * t4k / 2);
    }

    #[test]
    fn latency_monotone_in_size() {
        let m = PcieModel::pascal_x16();
        let mut prev = Duration::ZERO;
        for kb in [1u64, 2, 4, 8, 12, 16, 48, 64, 100, 256, 512, 1024, 2048] {
            let t = m.transfer_time(Bytes::kib(kb));
            assert!(t >= prev, "latency must not decrease with size ({kb} KB)");
            prev = t;
        }
    }

    #[test]
    fn bandwidth_monotone_in_size() {
        let m = PcieModel::pascal_x16();
        let mut prev = 0.0;
        for kb in [1u64, 4, 7, 16, 33, 64, 200, 256, 700, 1024, 4096] {
            let bw = m.bandwidth_gbps(Bytes::kib(kb));
            assert!(
                bw >= prev,
                "bandwidth must not decrease with size ({kb} KB)"
            );
            prev = bw;
        }
    }

    /// Table-served sizes are bit-identical to the curve, and sizes
    /// off the table still compute from it.
    #[test]
    fn page_table_matches_direct_computation() {
        let m = PcieModel::pascal_x16();
        for k in 0..=PAGES_PER_LARGE_PAGE {
            let size = PAGE_SIZE * k;
            assert_eq!(
                m.transfer_time(size),
                m.compute_transfer_time(size),
                "{k} pages"
            );
        }
        for size in [Bytes::new(6_000), Bytes::mib(2) + PAGE_SIZE, Bytes::mib(4)] {
            assert_eq!(
                m.transfer_time(size),
                m.compute_transfer_time(size),
                "{size}"
            );
        }
        // Above 2 MB the bandwidth stays clamped, so time keeps growing.
        assert!(m.transfer_time(Bytes::mib(4)) > m.transfer_time(Bytes::mib(2)));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_calibration() {
        let _ = PcieModel::from_calibration(&[(Bytes::kib(16), 2.0), (Bytes::kib(4), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_calibration() {
        let _ = PcieModel::from_calibration(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_bandwidth() {
        let _ = PcieModel::from_calibration(&[(Bytes::kib(4), 0.0)]);
    }
}
