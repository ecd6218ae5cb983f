//! Mutation-style precision tests: start from a known-good datasheet or
//! paper configuration, inject exactly one defect class, and assert that
//! the analyzer reports exactly the rule IDs that defect maps to — no
//! more, no less. This pins both the detection power and the precision
//! of the MCM4xx catalogue, in the same style as `mcm-verify`'s trace
//! mutation suite.

use mcm_analyze::{analyze_experiment, lint_footprint_model, lint_roofline_model, lint_timing};
use mcm_core::Experiment;
use mcm_dram::{Geometry, TimingParams};
use mcm_load::{HdOperatingPoint, TableIModel};
use mcm_verify::Severity;

fn base() -> (TimingParams, Geometry) {
    (
        TimingParams::next_gen_mobile_ddr(),
        Geometry::next_gen_mobile_ddr(),
    )
}

#[test]
fn the_unmutated_datasheet_is_clean() {
    let (t, g) = base();
    let r = lint_timing(&t, 400, &g);
    assert!(r.is_clean(), "{}", r.render_human());
}

#[test]
fn mcm401_row_cycle_that_does_not_close() {
    let (mut t, g) = base();
    t.t_rc_ns = t.t_ras_ns + t.t_rp_ns - 5.0;
    let r = lint_timing(&t, 400, &g);
    assert_eq!(r.ids(), vec!["MCM401"], "{}", r.render_human());
    assert!(r.has_errors());
}

#[test]
fn mcm401_clock_outside_the_device_window() {
    let (t, g) = base();
    for clock in [100u64, 600] {
        let r = lint_timing(&t, clock, &g);
        assert_eq!(r.ids(), vec!["MCM401"], "{clock} MHz: {}", r.render_human());
        assert!(r.has_errors());
    }
}

#[test]
fn mcm402_four_activate_window_that_never_binds() {
    let (mut t, g) = base();
    t.t_faw_ns = 3.0 * t.t_rrd_ns;
    let r = lint_timing(&t, 400, &g);
    assert_eq!(r.ids(), vec!["MCM402"], "{}", r.render_human());
    // A vacuous window is a datasheet smell, not a hard error.
    assert!(!r.has_errors());
    assert_eq!(r.count(Severity::Warning), 1);
}

#[test]
fn mcm403_refresh_duty_over_half() {
    let (mut t, g) = base();
    t.t_rfc_ns = 4_000.0; // 51.2 % of tREFI
    t.t_xsr_ns = 4_000.0; // keep MCM404 (tXSR >= tRFC) out of the blast radius
    let r = lint_timing(&t, 400, &g);
    assert_eq!(r.ids(), vec!["MCM403"], "{}", r.render_human());
    assert!(r.has_errors());
}

#[test]
fn mcm404_self_refresh_exit_shorter_than_a_refresh() {
    let (mut t, g) = base();
    t.t_xsr_ns = t.t_rfc_ns - 10.0;
    let r = lint_timing(&t, 400, &g);
    assert_eq!(r.ids(), vec!["MCM404"], "{}", r.render_human());
    assert!(r.has_errors());
}

#[test]
fn mcm404_power_down_residency_overruns_refresh() {
    let (mut t, g) = base();
    t.t_cke_min_ck = 10_000; // 25 us at 400 MHz, vs tREFI = 7.8 us
    let r = lint_timing(&t, 400, &g);
    assert_eq!(r.ids(), vec!["MCM404"], "{}", r.render_human());
    assert!(r.has_errors());
}

#[test]
fn mcm405_demand_over_the_roofline() {
    // 2160p30 on four channels fits in memory but exceeds what four
    // 32-bit channels can move: exactly the roofline rule, nothing else.
    let exp = Experiment::paper(HdOperatingPoint::Uhd2160p30, 4, 400);
    let r = analyze_experiment(&exp);
    assert_eq!(r.ids(), vec!["MCM405"], "{}", r.render_human());
    assert!(r.has_errors());
}

#[test]
fn mcm406_frame_buffers_that_do_not_fit() {
    let exp = Experiment::paper(HdOperatingPoint::Uhd2160p30, 1, 400);
    let r = lint_footprint_model(&TableIModel::new(exp.use_case), &exp.memory);
    assert_eq!(r.ids(), vec!["MCM406"], "{}", r.render_human());
    assert!(r.has_errors());
    // The whole-experiment pass stacks the bandwidth error on top.
    let r = analyze_experiment(&exp);
    assert_eq!(r.ids(), vec!["MCM405", "MCM406"], "{}", r.render_human());
}

#[test]
fn feasible_points_stay_silent_under_both_feasibility_rules() {
    for (point, channels) in [
        (HdOperatingPoint::Hd1080p30, 4u32),
        (HdOperatingPoint::Uhd2160p30, 8),
    ] {
        let exp = Experiment::paper(point, channels, 400);
        let r = lint_roofline_model(&TableIModel::new(exp.use_case), &exp.memory);
        assert!(r.is_clean(), "{point:?} x{channels}: {}", r.render_human());
        let r = lint_footprint_model(&TableIModel::new(exp.use_case), &exp.memory);
        assert!(r.is_clean(), "{point:?} x{channels}: {}", r.render_human());
    }
}
