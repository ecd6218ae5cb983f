//! DRAM core power model, following the Micron system-power methodology
//! (TN-46-03 *"Calculating DDR Memory System Power"*), which is exactly the
//! reference the paper cites for its power numbers.
//!
//! The model splits power into:
//!
//! * **background** power — a function of which of four states the device is
//!   in (precharge/active standby, precharge/active power-down), accounted
//!   by state residency;
//! * **per-event** energies — an increment above background for each
//!   activate/precharge pair, read burst, write burst, and refresh.
//!
//! Datasheet IDD currents are specified at a measurement voltage and clock
//! (1.8 V / 200 MHz for the Mobile DDR parts the paper extrapolates from).
//! Scaling to the operating point follows the paper's assumptions:
//!
//! * all power scales with voltage squared, reaching the paper's projected
//!   1.35 V core;
//! * standby currents (clock tree, input buffers) scale linearly with the
//!   interface clock;
//! * per-event energies are charge-based and therefore frequency-independent
//!   (a burst at a faster clock draws the same charge in less time);
//! * power-down currents are leakage-dominated and do not scale with clock.

use mcm_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::error::DramError;
use crate::params::{Geometry, TimingParams};

/// Datasheet-style IDD currents (milliamps) at the measurement conditions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IddValues {
    /// One-bank activate–precharge current (measured at one ACT-PRE per tRC).
    pub idd0_ma: f64,
    /// Precharge power-down current.
    pub idd2p_ma: f64,
    /// Precharge standby current.
    pub idd2n_ma: f64,
    /// Active power-down current.
    pub idd3p_ma: f64,
    /// Active standby current.
    pub idd3n_ma: f64,
    /// Read burst current.
    pub idd4r_ma: f64,
    /// Write burst current.
    pub idd4w_ma: f64,
    /// Auto-refresh (burst refresh) current.
    pub idd5_ma: f64,
    /// Self-refresh current (the deepest idle mode; mobile DDR parts use
    /// temperature-compensated self refresh to push this down).
    pub idd6_ma: f64,
}

impl IddValues {
    /// Datasheet-class values for a 512 Mb ×32 Mobile DDR device at
    /// 1.8 V / 200 MHz — the anchor the paper extrapolates from.
    pub fn mobile_ddr_512mb() -> Self {
        IddValues {
            idd0_ma: 75.0,
            idd2p_ma: 0.6,
            idd2n_ma: 12.0,
            idd3p_ma: 2.0,
            idd3n_ma: 20.0,
            idd4r_ma: 105.0,
            idd4w_ma: 95.0,
            idd5_ma: 90.0,
            idd6_ma: 0.45,
        }
    }

    /// Commodity DDR2-class currents at the same measurement conditions:
    /// much higher standby and power-down floors (no low-power process, no
    /// temperature-compensated self refresh, DLL always on). The basis of
    /// the low-power-vs-standard device comparison.
    pub fn standard_ddr2_512mb() -> Self {
        IddValues {
            idd0_ma: 110.0,
            idd2p_ma: 7.0,
            idd2n_ma: 35.0,
            idd3p_ma: 14.0,
            idd3n_ma: 45.0,
            idd4r_ma: 180.0,
            idd4w_ma: 170.0,
            idd5_ma: 150.0,
            idd6_ma: 5.0,
        }
    }

    /// Checks ordering constraints that any physical device satisfies
    /// (power-down below standby below burst).
    pub fn validate(&self) -> Result<(), DramError> {
        let vals = [
            ("idd0", self.idd0_ma),
            ("idd2p", self.idd2p_ma),
            ("idd2n", self.idd2n_ma),
            ("idd3p", self.idd3p_ma),
            ("idd3n", self.idd3n_ma),
            ("idd4r", self.idd4r_ma),
            ("idd4w", self.idd4w_ma),
            ("idd5", self.idd5_ma),
            ("idd6", self.idd6_ma),
        ];
        for (name, v) in vals {
            if !v.is_finite() || v < 0.0 {
                return Err(DramError::InvalidTiming {
                    reason: format!("{name} = {v} mA must be finite and non-negative"),
                });
            }
        }
        if self.idd2p_ma > self.idd2n_ma || self.idd3p_ma > self.idd3n_ma {
            return Err(DramError::InvalidTiming {
                reason: "power-down currents must not exceed standby currents".into(),
            });
        }
        if self.idd6_ma > self.idd2p_ma {
            return Err(DramError::InvalidTiming {
                reason: "self-refresh must be the lowest-current state".into(),
            });
        }
        if self.idd3n_ma > self.idd4r_ma || self.idd3n_ma > self.idd4w_ma {
            return Err(DramError::InvalidTiming {
                reason: "burst currents must exceed active standby".into(),
            });
        }
        Ok(())
    }
}

/// Voltage/frequency conditions: where the IDD values were measured and
/// where the device actually operates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Core voltage at which the IDD values are specified.
    pub vdd_meas_v: f64,
    /// Clock at which the IDD values are specified, MHz.
    pub f_meas_mhz: f64,
    /// Projected operating core voltage (paper: 1.35 V per ITRS 2007).
    pub vdd_op_v: f64,
}

impl OperatingPoint {
    /// The paper's conditions: datasheet at 1.8 V / 200 MHz, operated at
    /// 1.35 V.
    pub fn next_gen_mobile_ddr() -> Self {
        OperatingPoint {
            vdd_meas_v: 1.8,
            f_meas_mhz: 200.0,
            vdd_op_v: 1.35,
        }
    }

    /// Voltage-squared scaling factor from measurement to operation.
    pub fn voltage_scale(&self) -> f64 {
        (self.vdd_op_v / self.vdd_meas_v).powi(2)
    }
}

/// The four background states of a bank cluster.
///
/// Values index into the residency tracker of
/// [`EnergyAccount`]; ordering is part of the public contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum BackgroundState {
    /// All banks precharged, CKE high.
    PrechargeStandby = 0,
    /// At least one bank open, CKE high.
    ActiveStandby = 1,
    /// All banks precharged, CKE low (the paper's preferred idle state).
    PrechargePowerDown = 2,
    /// At least one bank open, CKE low.
    ActivePowerDown = 3,
    /// Self-refresh: all banks precharged, the device refreshes itself
    /// internally at the lowest possible current.
    SelfRefresh = 4,
}

impl BackgroundState {
    /// Number of background states.
    pub const COUNT: usize = 5;

    /// Derives the state from device status flags.
    pub fn from_flags(any_bank_open: bool, powered_down: bool) -> Self {
        match (powered_down, any_bank_open) {
            (false, false) => BackgroundState::PrechargeStandby,
            (false, true) => BackgroundState::ActiveStandby,
            (true, false) => BackgroundState::PrechargePowerDown,
            (true, true) => BackgroundState::ActivePowerDown,
        }
    }
}

/// IDD parameters resolved into concrete energies and powers at one
/// operating point — everything the simulator needs on its hot path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Extra energy per ACT(+implied PRE) above background, picojoules.
    pub e_act_pj: f64,
    /// Extra energy per read burst above active standby, picojoules.
    pub e_rd_burst_pj: f64,
    /// Extra energy per write burst above active standby, picojoules.
    pub e_wr_burst_pj: f64,
    /// Extra energy per refresh above precharge standby, picojoules.
    pub e_ref_pj: f64,
    /// Background power per state, milliwatts, indexed by
    /// [`BackgroundState`] discriminant.
    pub p_bg_mw: [f64; BackgroundState::COUNT],
}

impl EnergyModel {
    /// Builds the energy model for `idd` at clock `clock_mhz`.
    ///
    /// `timing` supplies the analog windows (tRC, tRAS, tRFC) the TN-46-03
    /// formulas integrate over; `geometry` supplies the burst length.
    pub fn resolve(
        idd: &IddValues,
        op: &OperatingPoint,
        timing: &TimingParams,
        geometry: &Geometry,
        clock_mhz: u64,
    ) -> Result<Self, DramError> {
        idd.validate()?;
        timing.validate()?;
        geometry.validate()?;
        let all_positive = [op.vdd_meas_v, op.vdd_op_v, op.f_meas_mhz]
            .iter()
            .all(|v| *v > 0.0);
        if !all_positive {
            return Err(DramError::InvalidTiming {
                reason: "operating point voltages and frequency must be positive".into(),
            });
        }
        let vscale = op.voltage_scale();
        let fscale = clock_mhz as f64 / op.f_meas_mhz;
        let v = op.vdd_meas_v;

        // Per-event energies are charge-based: computed from the measurement
        // clock's time windows, independent of the operating clock.
        // mA * ns * V = pJ.
        let e_act_pj = (idd.idd0_ma * timing.t_rc_ns
            - idd.idd3n_ma * timing.t_ras_ns
            - idd.idd2n_ma * (timing.t_rc_ns - timing.t_ras_ns))
            .max(0.0)
            * v
            * vscale;
        let tck_meas_ns = 1_000.0 / op.f_meas_mhz;
        let burst_ns_meas = geometry.burst_cycles() as f64 * tck_meas_ns;
        let e_rd_burst_pj = (idd.idd4r_ma - idd.idd3n_ma).max(0.0) * burst_ns_meas * v * vscale;
        let e_wr_burst_pj = (idd.idd4w_ma - idd.idd3n_ma).max(0.0) * burst_ns_meas * v * vscale;
        let e_ref_pj = (idd.idd5_ma - idd.idd2n_ma).max(0.0) * timing.t_rfc_ns * v * vscale;

        // Background powers: standby scales with clock, power-down is
        // leakage-dominated. mA * V = mW.
        let p_bg_mw = [
            idd.idd2n_ma * v * vscale * fscale,
            idd.idd3n_ma * v * vscale * fscale,
            idd.idd2p_ma * v * vscale,
            idd.idd3p_ma * v * vscale,
            idd.idd6_ma * v * vscale,
        ];
        Ok(EnergyModel {
            e_act_pj,
            e_rd_burst_pj,
            e_wr_burst_pj,
            e_ref_pj,
            p_bg_mw,
        })
    }
}

/// Accumulates core energy for one bank cluster over a simulation:
/// per-event energies plus background-state residency.
#[derive(Debug, Clone)]
pub struct EnergyAccount {
    model: EnergyModel,
    event_pj: f64,
    state: BackgroundState,
    state_since_ps: u64,
    bg_pj: f64,
    acts: u64,
    rd_bursts: u64,
    wr_bursts: u64,
    refreshes: u64,
}

impl EnergyAccount {
    /// Starts accounting in `initial` state at time zero.
    pub fn new(model: EnergyModel, initial: BackgroundState) -> Self {
        EnergyAccount {
            model,
            event_pj: 0.0,
            state: initial,
            state_since_ps: 0,
            bg_pj: 0.0,
            acts: 0,
            rd_bursts: 0,
            wr_bursts: 0,
            refreshes: 0,
        }
    }

    fn close_interval(&mut self, now: SimTime) {
        // Clamp: a query for a horizon the bookkeeping has already passed
        // (e.g. a catch-up refresh committed just beyond it) contributes no
        // negative interval.
        let now_ps = now.as_ps().max(self.state_since_ps);
        let dt_ns = (now_ps - self.state_since_ps) as f64 / 1_000.0;
        // mW * ns = pJ.
        self.bg_pj += self.model.p_bg_mw[self.state as usize] * dt_ns;
        self.state_since_ps = now_ps;
    }

    /// Records a background-state transition at `now` and returns the
    /// background interval it closed as `(from_ps, to_ps, delta_pj)`, so
    /// callers can attribute the energy elsewhere (e.g. an observability
    /// timeline).
    pub fn switch_state(&mut self, state: BackgroundState, now: SimTime) -> (u64, u64, f64) {
        let closed = self.close_traced(now);
        self.state = state;
        closed
    }

    /// Closes the open background interval at `now` without changing state
    /// and returns it as `(from_ps, to_ps, delta_pj)`. A zero-length
    /// interval returns `delta_pj == 0.0`.
    pub fn close_traced(&mut self, now: SimTime) -> (u64, u64, f64) {
        let from_ps = self.state_since_ps;
        let before = self.bg_pj;
        self.close_interval(now);
        (from_ps, self.state_since_ps, self.bg_pj - before)
    }

    /// The resolved per-event/background energy model in use.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Records one activate (with its eventual precharge).
    pub fn record_activate(&mut self) {
        self.event_pj += self.model.e_act_pj;
        self.acts += 1;
    }

    /// Records one read burst.
    pub fn record_read_burst(&mut self) {
        self.event_pj += self.model.e_rd_burst_pj;
        self.rd_bursts += 1;
    }

    /// Records one write burst.
    pub fn record_write_burst(&mut self) {
        self.event_pj += self.model.e_wr_burst_pj;
        self.wr_bursts += 1;
    }

    /// Records one auto-refresh.
    pub fn record_refresh(&mut self) {
        self.event_pj += self.model.e_ref_pj;
        self.refreshes += 1;
    }

    /// Total core energy up to `now`, picojoules (closes the open background
    /// interval without disturbing further accounting).
    pub fn total_pj(&mut self, now: SimTime) -> f64 {
        self.close_interval(now);
        self.event_pj + self.bg_pj
    }

    /// Background-only energy up to `now`, picojoules.
    pub fn background_pj(&mut self, now: SimTime) -> f64 {
        self.close_interval(now);
        self.bg_pj
    }

    /// Per-event energy so far, picojoules.
    pub fn event_pj(&self) -> f64 {
        self.event_pj
    }

    /// (activates, read bursts, write bursts, refreshes) recorded so far.
    pub fn event_counts(&self) -> (u64, u64, u64, u64) {
        (self.acts, self.rd_bursts, self.wr_bursts, self.refreshes)
    }

    /// Per-event energy split by command class, picojoules:
    /// (activate, read burst, write burst, refresh).
    pub fn event_breakdown_pj(&self) -> (f64, f64, f64, f64) {
        (
            self.acts as f64 * self.model.e_act_pj,
            self.rd_bursts as f64 * self.model.e_rd_burst_pj,
            self.wr_bursts as f64 * self.model.e_wr_burst_pj,
            self.refreshes as f64 * self.model.e_ref_pj,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_at(clock_mhz: u64) -> EnergyModel {
        EnergyModel::resolve(
            &IddValues::mobile_ddr_512mb(),
            &OperatingPoint::next_gen_mobile_ddr(),
            &TimingParams::next_gen_mobile_ddr(),
            &Geometry::next_gen_mobile_ddr(),
            clock_mhz,
        )
        .unwrap()
    }

    #[test]
    fn idd_validation_catches_inversions() {
        let mut idd = IddValues::mobile_ddr_512mb();
        idd.idd2p_ma = 50.0; // power-down above standby
        assert!(idd.validate().is_err());

        let mut idd = IddValues::mobile_ddr_512mb();
        idd.idd4r_ma = 1.0; // burst below standby
        assert!(idd.validate().is_err());

        let mut idd = IddValues::mobile_ddr_512mb();
        idd.idd0_ma = -1.0;
        assert!(idd.validate().is_err());
    }

    #[test]
    fn voltage_scale_is_squared() {
        let op = OperatingPoint::next_gen_mobile_ddr();
        assert!((op.voltage_scale() - (1.35f64 / 1.8).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn per_event_energies_are_clock_independent() {
        let m200 = model_at(200);
        let m400 = model_at(400);
        assert!((m200.e_act_pj - m400.e_act_pj).abs() < 1e-9);
        assert!((m200.e_rd_burst_pj - m400.e_rd_burst_pj).abs() < 1e-9);
        assert!((m200.e_ref_pj - m400.e_ref_pj).abs() < 1e-9);
    }

    #[test]
    fn standby_power_scales_with_clock_power_down_does_not() {
        let m200 = model_at(200);
        let m400 = model_at(400);
        let sb = BackgroundState::PrechargeStandby as usize;
        let pd = BackgroundState::PrechargePowerDown as usize;
        assert!((m400.p_bg_mw[sb] / m200.p_bg_mw[sb] - 2.0).abs() < 1e-9);
        assert!((m400.p_bg_mw[pd] - m200.p_bg_mw[pd]).abs() < 1e-12);
    }

    #[test]
    fn background_state_from_flags() {
        assert_eq!(
            BackgroundState::from_flags(false, false),
            BackgroundState::PrechargeStandby
        );
        assert_eq!(
            BackgroundState::from_flags(true, false),
            BackgroundState::ActiveStandby
        );
        assert_eq!(
            BackgroundState::from_flags(false, true),
            BackgroundState::PrechargePowerDown
        );
        assert_eq!(
            BackgroundState::from_flags(true, true),
            BackgroundState::ActivePowerDown
        );
    }

    #[test]
    fn account_integrates_background_by_residency() {
        let model = model_at(400);
        let mut acc = EnergyAccount::new(model, BackgroundState::PrechargeStandby);
        // 1 ms in precharge standby, then 1 ms powered down.
        acc.switch_state(BackgroundState::PrechargePowerDown, SimTime::from_ms(1));
        let total = acc.total_pj(SimTime::from_ms(2));
        let expect = model.p_bg_mw[0] * 1e6 + model.p_bg_mw[2] * 1e6; // mW * ns
        assert!(
            (total - expect).abs() / expect < 1e-9,
            "total={total} expect={expect}"
        );
    }

    #[test]
    fn account_sums_event_energies() {
        let model = model_at(400);
        let mut acc = EnergyAccount::new(model, BackgroundState::PrechargeStandby);
        acc.record_activate();
        acc.record_read_burst();
        acc.record_read_burst();
        acc.record_write_burst();
        acc.record_refresh();
        let expect =
            model.e_act_pj + 2.0 * model.e_rd_burst_pj + model.e_wr_burst_pj + model.e_ref_pj;
        assert!((acc.event_pj() - expect).abs() < 1e-9);
        assert_eq!(acc.event_counts(), (1, 2, 1, 1));
    }

    #[test]
    fn burst_energy_magnitude_is_plausible() {
        // (105-20) mA * 1.8 V * 10 ns * 0.5625 ≈ 0.86 nJ per 16-byte burst.
        let m = model_at(400);
        assert!(
            m.e_rd_burst_pj > 500.0 && m.e_rd_burst_pj < 1500.0,
            "e_rd_burst_pj = {}",
            m.e_rd_burst_pj
        );
    }
}
