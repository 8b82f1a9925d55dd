//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time. One tick ≈ one millisecond of simulated time
/// (the convention used by the experiment harness; the simulator itself only
/// requires ticks to be totally ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

impl Tick {
    /// Time zero.
    pub const ZERO: Tick = Tick(0);

    /// Saturating addition of a duration in ticks.
    pub fn saturating_add(self, delta: u64) -> Tick {
        Tick(self.0.saturating_add(delta))
    }

    /// The raw tick count.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl Add<u64> for Tick {
    type Output = Tick;

    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl AddAssign<u64> for Tick {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Tick> for Tick {
    type Output = u64;

    fn sub(self, rhs: Tick) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let t = Tick(10);
        assert_eq!(t + 5, Tick(15));
        assert_eq!(Tick(15) - Tick(10), 5);
        assert_eq!(Tick(5) - Tick(10), 0, "sub saturates");
        assert_eq!(Tick(u64::MAX).saturating_add(10), Tick(u64::MAX));
        let mut u = Tick(1);
        u += 2;
        assert_eq!(u, Tick(3));
    }

    #[test]
    fn display_and_ordering() {
        assert_eq!(Tick(42).to_string(), "t42");
        assert!(Tick(1) < Tick(2));
        assert_eq!(Tick::ZERO, Tick::default());
    }
}
