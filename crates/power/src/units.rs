//! Dimensional newtypes for power and energy.
//!
//! Keeping watts and joules as distinct types catches the classic modeling
//! bug (adding a power to an energy) at compile time, and makes
//! `P × Δt = E` explicit at every call site.

use ivis_sim::SimDuration;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Instantaneous power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Watts(pub f64);

/// Energy in joules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Joules(pub f64);

impl Watts {
    /// Zero power.
    pub const ZERO: Watts = Watts(0.0);

    /// Value in kilowatts.
    pub fn kilowatts(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Value in watts.
    pub fn watts(self) -> f64 {
        self.0
    }

    /// Energy dissipated at this power over `d`.
    pub fn over(self, d: SimDuration) -> Joules {
        Joules(self.0 * d.as_secs_f64())
    }

    /// Clamp to a non-negative value (power models never emit negative draw).
    pub(crate) fn clamp_non_negative(self) -> Watts {
        Watts(self.0.max(0.0))
    }
}

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Value in joules.
    pub fn joules(self) -> f64 {
        self.0
    }

    /// Value in kilowatt-hours (the billing unit behind the paper's
    /// "energy bills" framing).
    pub(crate) fn kilowatt_hours(self) -> f64 {
        self.0 / 3.6e6
    }

    /// Value in megajoules.
    pub fn megajoules(self) -> f64 {
        self.0 / 1e6
    }

    /// Average power if this energy was spent over `d`.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub fn average_over(self, d: SimDuration) -> Watts {
        assert!(!d.is_zero(), "cannot average energy over a zero duration");
        Watts(self.0 / d.as_secs_f64())
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}
impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}
impl Sub for Watts {
    type Output = Watts;
    fn sub(self, rhs: Watts) -> Watts {
        Watts(self.0 - rhs.0)
    }
}
impl Mul<f64> for Watts {
    type Output = Watts;
    fn mul(self, rhs: f64) -> Watts {
        Watts(self.0 * rhs)
    }
}
impl Div<f64> for Watts {
    type Output = Watts;
    fn div(self, rhs: f64) -> Watts {
        Watts(self.0 / rhs)
    }
}
impl Div<Watts> for Watts {
    type Output = f64;
    fn div(self, rhs: Watts) -> f64 {
        self.0 / rhs.0
    }
}
impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        Watts(iter.map(|w| w.0).sum())
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}
impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}
impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}
impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}
impl Div<Joules> for Joules {
    type Output = f64;
    fn div(self, rhs: Joules) -> f64 {
        self.0 / rhs.0
    }
}
impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        Joules(iter.map(|j| j.0).sum())
    }
}

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1_000.0 {
            write!(f, "{:.2} kW", self.0 / 1_000.0)
        } else {
            write!(f, "{:.1} W", self.0)
        }
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.2} MJ", self.0 / 1e6)
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.2} kJ", self.0 / 1e3)
        } else {
            write!(f, "{:.1} J", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts(100.0).over(SimDuration::from_secs(60));
        assert_eq!(e, Joules(6_000.0));
        assert_eq!(e.average_over(SimDuration::from_secs(60)), Watts(100.0));
    }

    #[test]
    fn kilowatt_conversions() {
        assert!((Watts(2302.0).kilowatts() - 2.302).abs() < 1e-12);
    }

    #[test]
    fn kwh_conversion() {
        let e = Watts(1_000.0).over(SimDuration::from_hours(1));
        assert!((e.kilowatt_hours() - 1.0).abs() < 1e-12);
        assert!((e.megajoules() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.0)].into_iter().sum();
        assert_eq!(total, Watts(6.0));
        assert_eq!(Watts(5.0) - Watts(2.0), Watts(3.0));
        assert_eq!(Watts(5.0) * 2.0, Watts(10.0));
        assert_eq!(Watts(10.0) / 2.0, Watts(5.0));
        assert!((Watts(10.0) / Watts(4.0) - 2.5).abs() < 1e-12);
        let e: Joules = [Joules(1.0), Joules(2.0)].into_iter().sum();
        assert_eq!(e, Joules(3.0));
        assert!((Joules(10.0) / Joules(4.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn clamp_non_negative() {
        assert_eq!(Watts(-3.0).clamp_non_negative(), Watts::ZERO);
        assert_eq!(Watts(3.0).clamp_non_negative(), Watts(3.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Watts(2302.0)), "2.30 kW");
        assert_eq!(format!("{}", Watts(29.0)), "29.0 W");
        assert_eq!(format!("{}", Joules(4.2e6)), "4.20 MJ");
        assert_eq!(format!("{}", Joules(4200.0)), "4.20 kJ");
        assert_eq!(format!("{}", Joules(42.0)), "42.0 J");
    }

    #[test]
    #[should_panic(expected = "zero duration")]
    fn average_over_zero_panics() {
        let _ = Joules(1.0).average_over(SimDuration::ZERO);
    }
}
