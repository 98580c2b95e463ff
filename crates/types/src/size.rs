//! Byte-size newtype and the fixed UVM geometry constants.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A size in bytes.
///
/// `Bytes` is used for transfer sizes, allocation sizes, and memory
/// budgets. It deliberately supports only the arithmetic the simulator
/// needs; mixed-unit mistakes (bytes vs pages vs cycles) are compile
/// errors.
///
/// # Examples
///
/// ```
/// use uvm_types::Bytes;
///
/// let chunk = Bytes::kib(64);
/// assert_eq!(chunk.bytes(), 65_536);
/// assert_eq!(chunk * 32, Bytes::mib(2));
/// assert_eq!(format!("{}", Bytes::mib(2)), "2MiB");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(u64);

impl Bytes {
    /// The zero size.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size of `n` bytes.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Creates a size of `n` KiB.
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a size of `n` MiB.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Creates a size of `n` GiB.
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Returns the raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Returns this size expressed in whole KiB (truncating).
    pub const fn in_kib(self) -> u64 {
        self.0 / 1024
    }

    /// Returns this size as a floating point number of GB (10^9 bytes),
    /// the unit in which the paper reports PCI-e bandwidth.
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the number of whole 4 KB pages this size spans, rounding
    /// up. A zero size needs zero pages.
    pub const fn pages_ceil(self) -> u64 {
        self.0.div_ceil(PAGE_SIZE.bytes())
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// `true` if this size is an exact multiple of `unit`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is zero.
    pub const fn is_multiple_of(self, unit: Bytes) -> bool {
        self.0.is_multiple_of(unit.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<Bytes> for Bytes {
    type Output = u64;
    fn div(self, rhs: Bytes) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MIB: u64 = 1024 * 1024;
        if self.0 >= MIB && self.0.is_multiple_of(MIB) {
            write!(f, "{}MiB", self.0 / MIB)
        } else if self.0 >= 1024 && self.0.is_multiple_of(1024) {
            write!(f, "{}KiB", self.0 / 1024)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// The demand-migration and page-table granularity: 4 KB, as in current
/// NVIDIA GPUs (paper Sec. 1).
pub const PAGE_SIZE: Bytes = Bytes::kib(4);

/// The prefetch/pre-eviction unit: a 64 KB *basic block* of 16
/// contiguous pages (paper Sec. 3.2).
pub const BASIC_BLOCK_SIZE: Bytes = Bytes::kib(64);

/// The large-page boundary within which the tree-based prefetcher
/// operates: 2 MB (paper Sec. 3.3).
pub const LARGE_PAGE_SIZE: Bytes = Bytes::mib(2);

/// Number of 4 KB pages per 64 KB basic block (16).
pub const PAGES_PER_BASIC_BLOCK: u64 = BASIC_BLOCK_SIZE.bytes() / PAGE_SIZE.bytes();

/// Number of 4 KB pages per 2 MB large page (512).
pub const PAGES_PER_LARGE_PAGE: u64 = LARGE_PAGE_SIZE.bytes() / PAGE_SIZE.bytes();

/// Buddy order of a 2 MB large page in 4 KB frames (2^9 = 512). The
/// frame allocator's top block order and the huge-mapping unit.
pub const LARGE_PAGE_ORDER: u32 = PAGES_PER_LARGE_PAGE.trailing_zeros();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Bytes::kib(4).bytes(), 4096);
        assert_eq!(Bytes::mib(1), Bytes::kib(1024));
        assert_eq!(Bytes::gib(1), Bytes::mib(1024));
        assert_eq!(Bytes::new(12).bytes(), 12);
        assert_eq!(Bytes::ZERO.bytes(), 0);
    }

    #[test]
    fn geometry_constants() {
        assert_eq!(PAGES_PER_BASIC_BLOCK, 16);
        assert_eq!(PAGES_PER_LARGE_PAGE, 512);
        assert_eq!(LARGE_PAGE_SIZE / BASIC_BLOCK_SIZE, 32);
        assert_eq!(1u64 << LARGE_PAGE_ORDER, PAGES_PER_LARGE_PAGE);
    }

    #[test]
    fn arithmetic() {
        let a = Bytes::kib(64);
        assert_eq!(a + a, Bytes::kib(128));
        assert_eq!(a - Bytes::kib(4), Bytes::kib(60));
        assert_eq!(a * 32, LARGE_PAGE_SIZE);
        assert_eq!(LARGE_PAGE_SIZE / a, 32);
        let mut b = a;
        b += Bytes::kib(1);
        b -= Bytes::kib(1);
        assert_eq!(b, a);
        assert_eq!(Bytes::kib(4).saturating_sub(Bytes::kib(8)), Bytes::ZERO);
    }

    #[test]
    fn pages_ceil_rounds_up() {
        assert_eq!(Bytes::ZERO.pages_ceil(), 0);
        assert_eq!(Bytes::new(1).pages_ceil(), 1);
        assert_eq!(Bytes::kib(4).pages_ceil(), 1);
        assert_eq!(Bytes::new(4097).pages_ceil(), 2);
        assert_eq!(Bytes::mib(2).pages_ceil(), 512);
    }

    #[test]
    fn display_uses_largest_exact_unit() {
        assert_eq!(Bytes::mib(2).to_string(), "2MiB");
        assert_eq!(Bytes::kib(60).to_string(), "60KiB");
        assert_eq!(Bytes::new(100).to_string(), "100B");
        assert_eq!(Bytes::new(1536).to_string(), "1536B"); // not whole KiB? 1536 % 1024 != 0
    }

    #[test]
    fn sum_of_sizes() {
        let total: Bytes = [Bytes::kib(4), Bytes::kib(60)].into_iter().sum();
        assert_eq!(total, BASIC_BLOCK_SIZE);
    }

    #[test]
    fn gb_conversion_matches_paper_units() {
        // 1024 KB transferred in ~91.3 us is ~11.2 GB/s; just sanity-check
        // the unit conversion used by the bandwidth model.
        let sz = Bytes::kib(1024);
        assert!((sz.as_gb() - 1.048576e-3).abs() < 1e-12);
    }

    #[test]
    fn multiples() {
        assert!(LARGE_PAGE_SIZE.is_multiple_of(BASIC_BLOCK_SIZE));
        assert!(BASIC_BLOCK_SIZE.is_multiple_of(PAGE_SIZE));
        assert!(!Bytes::new(4097).is_multiple_of(PAGE_SIZE));
    }
}
