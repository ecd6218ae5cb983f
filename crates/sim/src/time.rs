//! Simulation time, frequency and clock-domain arithmetic.
//!
//! The kernel measures time in integer **picoseconds** ([`SimTime`]), which is
//! fine enough to represent every interface clock the paper's DDR2-range
//! next-generation mobile DDR SDRAM can use (200–533 MHz, i.e. periods of
//! 5000 ps down to ~1876 ps) without cumulative rounding error: cycle indices
//! are converted to absolute times with an exact multiply-then-divide
//! instead of accumulating a rounded period.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute simulation time or a duration, in picoseconds.
///
/// `SimTime` is a transparent newtype over `u64`; the full range covers about
/// 213 days of simulated time, far beyond the per-frame horizons simulated
/// here (tens of milliseconds).
///
/// # Examples
///
/// ```
/// use mcm_sim::SimTime;
///
/// let t = SimTime::from_ns(5) + SimTime::from_ps(250);
/// assert_eq!(t.as_ps(), 5_250);
/// assert!(t < SimTime::from_us(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero (also the default value).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time; useful as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_s(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    /// Creates a time from a floating-point nanosecond value, rounding to the
    /// nearest picosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        SimTime((ns * PS_PER_NS as f64).round().max(0.0) as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in nanoseconds (lossy).
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time in microseconds (lossy).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time in milliseconds (lossy).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Time in seconds (lossy).
    #[inline]
    pub fn as_s_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[inline]
    pub fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_sub(rhs.0).map(SimTime)
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0 s")
        } else if ps < PS_PER_NS {
            write!(f, "{ps} ps")
        } else if ps < PS_PER_US {
            write!(f, "{:.3} ns", self.as_ns_f64())
        } else if ps < PS_PER_MS {
            write!(f, "{:.3} us", self.as_us_f64())
        } else if ps < PS_PER_S {
            write!(f, "{:.3} ms", self.as_ms_f64())
        } else {
            write!(f, "{:.3} s", self.as_s_f64())
        }
    }
}

/// A clock frequency in integer hertz.
///
/// # Examples
///
/// ```
/// use mcm_sim::Frequency;
///
/// let f = Frequency::from_mhz(400);
/// assert_eq!(f.as_hz(), 400_000_000);
/// assert_eq!(f.period().as_ps(), 2_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from hertz. Zero is permitted at construction but
    /// rejected by [`ClockDomain::new`].
    #[inline]
    pub const fn from_hz(hz: u64) -> Self {
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: u64) -> Self {
        Frequency(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: u64) -> Self {
        Frequency(ghz * 1_000_000_000)
    }

    /// Frequency in hertz.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// Nominal clock period, rounded to the nearest picosecond.
    ///
    /// Use [`ClockDomain`] when converting *cycle counts* to times; this
    /// rounded period is only for display and coarse estimates.
    #[inline]
    pub fn period(self) -> SimTime {
        assert!(self.0 > 0, "period of a zero frequency");
        SimTime::from_ps(((PS_PER_S as u128 + (self.0 / 2) as u128) / self.0 as u128) as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(100_000_000) {
            write!(f, "{:.1} GHz", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{} MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{} Hz", self.0)
        }
    }
}

/// Error returned when constructing a [`ClockDomain`] from a zero frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroFrequencyError;

impl fmt::Display for ZeroFrequencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clock domain frequency must be non-zero")
    }
}

impl std::error::Error for ZeroFrequencyError {}

/// Exact cycle-count ↔ time conversion for one clock.
///
/// All conversions compute `cycles * 10^12 / f` exactly, so that cycle N of
/// a 533 MHz clock lands on the mathematically correct picosecond
/// regardless of N; there is no accumulated drift from a rounded period.
/// The period is kept as the reduced fraction `10^12 / f`, and each
/// conversion runs in u64 arithmetic while its intermediate product fits,
/// falling back to 128-bit arithmetic beyond that. Both give the same
/// result for every input.
///
/// DDR devices transfer data on both clock edges; [`ClockDomain::time_of_half_cycles`]
/// provides half-cycle resolution for bus-occupancy bookkeeping.
///
/// # Examples
///
/// ```
/// use mcm_sim::{ClockDomain, Frequency, SimTime};
///
/// let clk = ClockDomain::new(Frequency::from_mhz(533)).unwrap();
/// // 533 million cycles land exactly on the 1-second boundary.
/// assert_eq!(clk.time_of_cycles(533_000_000), SimTime::from_s(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDomain {
    freq: Frequency,
    /// The period `10^12 / f` picoseconds as the reduced fraction
    /// `num / den`: 400 MHz is 2500/1, 533 MHz is 1_000_000/533. With a
    /// whole-picosecond period (`den == 1`) `time_of_cycles` is one
    /// multiply; otherwise conversions are a u64 multiply and divide
    /// instead of a 128-bit division.
    num: u64,
    den: u64,
}

const fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl ClockDomain {
    /// Creates a clock domain. Fails on a zero frequency.
    pub fn new(freq: Frequency) -> Result<Self, ZeroFrequencyError> {
        let hz = freq.as_hz();
        if hz == 0 {
            return Err(ZeroFrequencyError);
        }
        let g = gcd(PS_PER_S, hz);
        Ok(ClockDomain {
            freq,
            num: PS_PER_S / g,
            den: hz / g,
        })
    }

    /// The domain's frequency.
    #[inline]
    pub fn frequency(self) -> Frequency {
        self.freq
    }

    /// Nominal period (rounded); see [`Frequency::period`].
    #[inline]
    pub fn period(self) -> SimTime {
        self.freq.period()
    }

    /// Absolute time of cycle index `cycles` (cycle 0 is at time 0),
    /// rounded to the nearest picosecond.
    #[inline]
    pub fn time_of_cycles(self, cycles: u64) -> SimTime {
        if self.den == 1 {
            // Wrapping multiply matches the `as u64` truncation of the
            // 128-bit path for (absurd) cycle counts beyond SimTime's range.
            return SimTime::from_ps(cycles.wrapping_mul(self.num));
        }
        // (c·num + ⌊den/2⌋) / den equals (c·10^12 + ⌊f/2⌋) / f: both are
        // c·num / den rounded half up, since writing c·num = q·den + r,
        // each rounds up exactly when r ≥ den/2.
        let ps = match cycles
            .checked_mul(self.num)
            .and_then(|p| p.checked_add(self.den / 2))
        {
            Some(p) => p / self.den,
            None => {
                let hz = self.freq.as_hz() as u128;
                ((cycles as u128 * PS_PER_S as u128 + hz / 2) / hz) as u64
            }
        };
        SimTime::from_ps(ps)
    }

    /// The times of cycles `start`, `start + step`, `start + 2·step`, …,
    /// each equal to [`ClockDomain::time_of_cycles`] of its cycle, with one
    /// division here and none per step; see [`CycleTimes`].
    pub fn cycle_times(self, start: u64, step: u64) -> CycleTimes {
        let (num, den) = (u128::from(self.num), u128::from(self.den));
        // The products fit: both factors are below 2^64 and num ≤ 10^12.
        let at = u128::from(start) * num + den / 2;
        let by = u128::from(step) * num;
        // Quotients are kept modulo 2^64, as `time_of_cycles` truncates a
        // time beyond `SimTime`'s range; remainders are below `den`.
        CycleTimes {
            ps: (at / den) as u64,
            rem: (at % den) as u64,
            step_ps: (by / den) as u64,
            step_rem: (by % den) as u64,
            den: self.den,
        }
    }

    /// Absolute time of half-cycle index `half_cycles` (two half-cycles per
    /// clock cycle; DDR data beats occupy one half-cycle each).
    #[inline]
    pub fn time_of_half_cycles(self, half_cycles: u64) -> SimTime {
        // (h·num + den) / 2den is (h·10^12 + f) / 2f with both terms of the
        // fraction divided by gcd(10^12, f).
        let ps = match (
            half_cycles
                .checked_mul(self.num)
                .and_then(|p| p.checked_add(self.den)),
            self.den.checked_mul(2),
        ) {
            (Some(p), Some(den2)) => p / den2,
            _ => {
                let hz2 = 2 * self.freq.as_hz() as u128;
                ((half_cycles as u128 * PS_PER_S as u128 + hz2 / 2) / hz2) as u64
            }
        };
        SimTime::from_ps(ps)
    }

    /// Number of whole cycles that have *completed* by time `t`
    /// (i.e. `floor(t / period)` computed exactly).
    #[inline]
    pub fn cycles_at(self, t: SimTime) -> u64 {
        match t.as_ps().checked_mul(self.den) {
            Some(p) => p / self.num,
            None => {
                let hz = self.freq.as_hz() as u128;
                ((t.as_ps() as u128 * hz) / PS_PER_S as u128) as u64
            }
        }
    }

    /// Smallest cycle index whose edge is at or after `t`
    /// (i.e. `ceil(t / period)` computed exactly).
    #[inline]
    pub fn cycles_ceil(self, t: SimTime) -> u64 {
        match t.as_ps().checked_mul(self.den) {
            Some(p) => p.div_ceil(self.num),
            None => {
                let hz = self.freq.as_hz() as u128;
                (t.as_ps() as u128 * hz).div_ceil(PS_PER_S as u128) as u64
            }
        }
    }

    /// Converts a duration given in nanoseconds to a whole number of cycles,
    /// rounding up — the standard "analog parameter to cycle count"
    /// conversion used for DRAM timing constraints like tRCD = 15 ns.
    #[inline]
    pub fn ns_to_cycles_ceil(self, ns: f64) -> u64 {
        assert!(ns >= 0.0, "negative duration");
        let cycles = ns * 1e-9 * self.freq.as_hz() as f64;
        // Guard against representation noise pushing an exact multiple up.
        let rounded = cycles.round();
        if (cycles - rounded).abs() < 1e-9 {
            rounded as u64
        } else {
            cycles.ceil() as u64
        }
    }
}

/// The times of the cycles `c`, `c + T`, `c + 2T`, … on one clock, made by
/// [`ClockDomain::cycle_times`]: an endless iterator whose every item equals
/// [`ClockDomain::time_of_cycles`] of its cycle.
///
/// It keeps the quotient and remainder of `c·num + ⌊den/2⌋` over `den`
/// (`num / den` the reduced period) for the current cycle `c`. A step adds
/// the quotient and remainder of `T·num` over `den` and carries one when
/// the remainders reach `den`: two additions and a compare, no division.
#[derive(Debug, Clone)]
pub struct CycleTimes {
    ps: u64,
    rem: u64,
    step_ps: u64,
    step_rem: u64,
    den: u64,
}

impl Iterator for CycleTimes {
    type Item = SimTime;

    #[inline]
    fn next(&mut self) -> Option<SimTime> {
        let at = SimTime::from_ps(self.ps);
        // rem + step_rem ≥ den, written so that it cannot overflow.
        let carry = self.rem >= self.den - self.step_rem;
        self.rem =
            self.rem
                .wrapping_add(self.step_rem)
                .wrapping_sub(if carry { self.den } else { 0 });
        self.ps = self
            .ps
            .wrapping_add(self.step_ps)
            .wrapping_add(u64::from(carry));
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_s(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!((a + b).as_ps(), 14_000);
        assert_eq!((a - b).as_ps(), 6_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_ns(6)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
    }

    #[test]
    fn simtime_display_uses_natural_units() {
        assert_eq!(SimTime::ZERO.to_string(), "0 s");
        assert_eq!(SimTime::from_ps(500).to_string(), "500 ps");
        assert_eq!(SimTime::from_ns(5).to_string(), "5.000 ns");
        assert_eq!(SimTime::from_ms(33).to_string(), "33.000 ms");
    }

    #[test]
    fn from_ns_f64_rounds_and_clamps() {
        assert_eq!(SimTime::from_ns_f64(1.0004).as_ps(), 1_000);
        assert_eq!(SimTime::from_ns_f64(1.0006).as_ps(), 1_001);
        assert_eq!(SimTime::from_ns_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn frequency_period_rounds() {
        assert_eq!(Frequency::from_mhz(200).period(), SimTime::from_ps(5_000));
        assert_eq!(Frequency::from_mhz(400).period(), SimTime::from_ps(2_500));
        // 533 MHz -> 1876.17 ps, rounds to 1876.
        assert_eq!(Frequency::from_mhz(533).period(), SimTime::from_ps(1_876));
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::from_mhz(400).to_string(), "400 MHz");
        assert_eq!(Frequency::from_ghz(2).to_string(), "2.0 GHz");
        assert_eq!(Frequency::from_hz(999).to_string(), "999 Hz");
    }

    #[test]
    fn clock_domain_rejects_zero() {
        assert!(ClockDomain::new(Frequency::from_hz(0)).is_err());
        let err = ClockDomain::new(Frequency::from_hz(0)).unwrap_err();
        assert!(err.to_string().contains("non-zero"));
    }

    #[test]
    fn cycle_conversion_is_exact_over_long_spans() {
        let clk = ClockDomain::new(Frequency::from_mhz(533)).unwrap();
        assert_eq!(clk.time_of_cycles(533_000_000), SimTime::from_s(1));
        // No drift: cycle-by-cycle deltas are within 1 ps of each other.
        let t1 = clk.time_of_cycles(1_000_000);
        let t2 = clk.time_of_cycles(1_000_001);
        let delta = (t2 - t1).as_ps();
        assert!((1_875..=1_877).contains(&delta), "delta = {delta}");
    }

    #[test]
    fn half_cycles_are_half() {
        let clk = ClockDomain::new(Frequency::from_mhz(400)).unwrap();
        assert_eq!(clk.time_of_half_cycles(2), clk.time_of_cycles(1));
        assert_eq!(clk.time_of_half_cycles(1), SimTime::from_ps(1_250));
    }

    #[test]
    fn cycles_at_and_ceil_are_floor_and_ceil() {
        let clk = ClockDomain::new(Frequency::from_mhz(400)).unwrap(); // 2500 ps
        assert_eq!(clk.cycles_at(SimTime::from_ps(2_499)), 0);
        assert_eq!(clk.cycles_at(SimTime::from_ps(2_500)), 1);
        assert_eq!(clk.cycles_ceil(SimTime::from_ps(2_499)), 1);
        assert_eq!(clk.cycles_ceil(SimTime::from_ps(2_500)), 1);
        assert_eq!(clk.cycles_ceil(SimTime::from_ps(2_501)), 2);
    }

    /// The 128-bit formulas every conversion must reproduce bit for bit,
    /// written out independently of the reduced-fraction paths under test:
    /// `(time_of_cycles, time_of_half_cycles, cycles_at, cycles_ceil)` of
    /// input `x` on a clock of `hz`.
    fn reference(hz: u64, x: u64) -> (u64, u64, u64, u64) {
        let (hz, x, ps) = (hz as u128, x as u128, PS_PER_S as u128);
        (
            ((x * ps + hz / 2) / hz) as u64,
            ((x * ps + hz) / (2 * hz)) as u64,
            ((x * hz) / ps) as u64,
            (x * hz).div_ceil(ps) as u64,
        )
    }

    fn conversions(clk: ClockDomain, x: u64) -> (u64, u64, u64, u64) {
        (
            clk.time_of_cycles(x).as_ps(),
            clk.time_of_half_cycles(x).as_ps(),
            clk.cycles_at(SimTime::from_ps(x)),
            clk.cycles_ceil(SimTime::from_ps(x)),
        )
    }

    /// Inputs on both sides of each conversion's u64 overflow boundary
    /// (where the 128-bit fallback takes over), plus both ends of the range.
    fn edge_inputs(clk: ClockDomain) -> Vec<u64> {
        let (num, den) = (clk.num, clk.den);
        [
            (u64::MAX - den / 2) / num,
            (u64::MAX - den) / num,
            u64::MAX / den,
        ]
        .into_iter()
        .flat_map(|e| [e.saturating_sub(1), e, e.saturating_add(1)])
        .chain([0, 1, 2, 3, u64::MAX - 1, u64::MAX])
        .collect()
    }

    fn check_against_reference(hz: u64, inputs: impl IntoIterator<Item = u64>) {
        let clk = ClockDomain::new(Frequency::from_hz(hz)).unwrap();
        for x in inputs {
            assert_eq!(conversions(clk, x), reference(hz, x), "{hz} Hz, input {x}");
        }
    }

    #[test]
    fn fraction_is_reduced() {
        let clk = ClockDomain::new(Frequency::from_mhz(533)).unwrap();
        assert_eq!((clk.num, clk.den), (1_000_000, 533));
        let clk = ClockDomain::new(Frequency::from_mhz(400)).unwrap();
        assert_eq!((clk.num, clk.den), (2_500, 1));
    }

    #[test]
    fn every_integer_mhz_matches_the_128_bit_formulas() {
        for mhz in 1..=2_000u64 {
            let hz = mhz * 1_000_000;
            let clk = ClockDomain::new(Frequency::from_hz(hz)).unwrap();
            let spread = (0..64).map(|s| 0x9e37_79b9_7f4a_7c15u64.rotate_left(s) >> s);
            check_against_reference(
                hz,
                edge_inputs(clk)
                    .into_iter()
                    .chain(spread)
                    .chain([1_000_003, 533_000_000, 1 << 40]),
            );
        }
    }

    /// The stepper lands on the 128-bit `time_of_cycles` formula at every
    /// step, at every integer MHz, from pseudo-random starts and steps of
    /// every magnitude and from starts on both sides of the u64 boundary
    /// where `time_of_cycles` switches to 128-bit arithmetic.
    #[test]
    fn cycle_times_match_the_128_bit_formula_at_every_integer_mhz() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for mhz in 1..=2_000u64 {
            let hz = mhz * 1_000_000;
            let clk = ClockDomain::new(Frequency::from_hz(hz)).unwrap();
            let boundary = (u64::MAX - clk.den / 2) / clk.num;
            // Starts below 2^63 and steps below 2^40 keep 16 steps in range.
            let walks = [
                (0, 1),
                (boundary - 8, 1),
                (draw() >> 20, (draw() >> 40).max(1)),
                (
                    draw() >> (1 + draw() % 63),
                    (draw() >> (24 + draw() % 40)).max(1),
                ),
            ];
            for (start, step) in walks {
                let times = clk.cycle_times(start, step).take(17);
                for (k, at) in (0..).zip(times) {
                    let cycle = start + k * step;
                    assert_eq!(
                        at.as_ps(),
                        reference(hz, cycle).0,
                        "{mhz} MHz, start {start}, step {step}, k {k}"
                    );
                    assert_eq!(at, clk.time_of_cycles(cycle));
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn random_clocks_match_the_128_bit_formulas(
            hz in 1u64..=10_000_000_000,
            raw in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            // `raw >> shift` spreads inputs log-uniformly over [0, u64::MAX].
            let clk = ClockDomain::new(Frequency::from_hz(hz)).unwrap();
            check_against_reference(hz, edge_inputs(clk).into_iter().chain([raw, raw >> shift]));
        }
    }

    #[test]
    fn ns_to_cycles_ceil_matches_ddr_practice() {
        let clk = ClockDomain::new(Frequency::from_mhz(200)).unwrap(); // 5 ns
        assert_eq!(clk.ns_to_cycles_ceil(15.0), 3); // tRCD 15 ns = 3 ck
        assert_eq!(clk.ns_to_cycles_ceil(15.1), 4);
        let clk400 = ClockDomain::new(Frequency::from_mhz(400)).unwrap();
        assert_eq!(clk400.ns_to_cycles_ceil(15.0), 6);
        assert_eq!(clk400.ns_to_cycles_ceil(0.0), 0);
    }
}
