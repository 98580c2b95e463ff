//! Simulation time: GPU core cycles and wall-clock conversion.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// GPU core clock frequency used throughout the paper's simulator
/// configuration (Table 2): 28 Pascal SMs at 1481 MHz.
pub const CORE_CLOCK_HZ: u64 = 1_481_000_000;

/// A point in simulated time, measured in GPU core cycles.
///
/// # Examples
///
/// ```
/// use uvm_types::{Cycle, Duration};
///
/// let start = Cycle::ZERO;
/// let end = start + Duration::from_micros(45.0);
/// assert!(end.index() > 66_000); // 45us at 1481 MHz is ~66,645 cycles
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(u64);

impl Cycle {
    /// Time zero.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle stamp from a raw cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// The raw cycle count.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Converts this cycle stamp to seconds of simulated time.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / CORE_CLOCK_HZ as f64
    }

    /// The duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is actually later.
    pub const fn since(self, earlier: Cycle) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two stamps.
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }
}

impl Add<Duration> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Duration) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Cycle {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cyc{}", self.0)
    }
}

/// A span of simulated time, measured in GPU core cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(u64);

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration of `raw` core cycles.
    pub const fn from_cycles(raw: u64) -> Self {
        Duration(raw)
    }

    /// Creates a duration from microseconds of wall-clock time,
    /// rounding to the nearest core cycle.
    pub const fn from_micros(us: f64) -> Self {
        Duration((us * 1e-6 * CORE_CLOCK_HZ as f64).round() as u64)
    }

    /// Creates a duration from seconds of wall-clock time.
    pub fn from_secs(s: f64) -> Self {
        Duration((s * CORE_CLOCK_HZ as f64).round() as u64)
    }

    /// The raw cycle count.
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// This duration in seconds of simulated time.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / CORE_CLOCK_HZ as f64
    }

    /// This duration in microseconds of simulated time.
    pub fn as_micros(self) -> f64 {
        self.as_secs() * 1e6
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_round_trip() {
        let d = Duration::from_micros(45.0);
        assert!((d.as_micros() - 45.0).abs() < 0.001);
        // The paper's 45us fault latency is ~66,645 cycles at 1481 MHz.
        assert_eq!(d.cycles(), 66_645);
    }

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle::new(100) + Duration::from_cycles(50);
        assert_eq!(t, Cycle::new(150));
        assert_eq!(t.since(Cycle::new(100)), Duration::from_cycles(50));
        assert_eq!(Cycle::new(10).since(Cycle::new(20)), Duration::ZERO);
        let mut u = Cycle::ZERO;
        u += Duration::from_cycles(7);
        assert_eq!(u.index(), 7);
        assert_eq!(Cycle::new(3).max(Cycle::new(9)), Cycle::new(9));
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_cycles(30) + Duration::from_cycles(12);
        assert_eq!(d.cycles(), 42);
        assert_eq!((d - Duration::from_cycles(2)).cycles(), 40);
    }

    #[test]
    fn seconds_conversion() {
        let one_sec = Duration::from_secs(1.0);
        assert_eq!(one_sec.cycles(), CORE_CLOCK_HZ);
        assert!((Cycle::new(CORE_CLOCK_HZ).as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Cycle::new(5).to_string(), "cyc5");
        assert_eq!(Duration::from_cycles(5).to_string(), "5cyc");
    }
}
