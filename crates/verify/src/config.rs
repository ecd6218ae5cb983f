//! Configuration lint (`MCM101`–`MCM105`): static validation of a
//! datasheet / controller / use-case combination *before* any simulation
//! cycle runs.
//!
//! The simulator constructors already reject malformed configs; this pass
//! goes further and flags combinations that are *constructible but
//! doomed* — a Table I workload that physically exceeds the configured
//! channels' peak bandwidth, a power-down policy that can never escalate,
//! an interface model whose parameters sit outside plausible silicon.

use mcm_channel::MemoryConfig;
use mcm_ctrl::{PowerDownPolicy, WritePolicy};
use mcm_load::UseCase;
use mcm_power::InterfacePowerModel;

use crate::diag::{Diagnostic, Report, Severity};

/// Rule identifiers owned by this module: `(id, what it checks)`.
pub const CONFIG_RULES: [(&str, &str); 5] = [
    (
        "MCM101",
        "resolved-timing consistency: geometry, analog timings and clock resolve to a legal device",
    ),
    (
        "MCM102",
        "bandwidth feasibility: the Table I workload fits the channels' peak bandwidth",
    ),
    (
        "MCM103",
        "use-case validity: recording parameters respect the H.264 level limits",
    ),
    (
        "MCM104",
        "interface-power sanity: pins, capacitance, voltage and activity are plausible",
    ),
    (
        "MCM105",
        "controller policy sanity: refresh, power-down and write policies are self-consistent",
    ),
];

/// `MCM101` + `MCM105`: lints the memory-side configuration — device
/// geometry/timing resolution, channel/granule structure, and the
/// controller's policy block.
pub fn lint_memory_config(mem: &MemoryConfig) -> Report {
    let mut report = Report::new();
    let err = |id, msg: String| Diagnostic::new(id, Severity::Error, msg);
    let warn = |id, msg: String| Diagnostic::new(id, Severity::Warning, msg);

    // --- MCM101: device and interleave structure -------------------------
    let cluster = &mem.controller.cluster;
    let mut resolvable = true;
    if let Err(e) = cluster.geometry.validate() {
        report.push(err("MCM101", format!("geometry invalid: {e}")));
        resolvable = false;
    }
    if let Err(e) = cluster.timing.validate() {
        report.push(err("MCM101", format!("timing parameters invalid: {e}")));
        resolvable = false;
    }
    if resolvable {
        if let Err(e) = cluster.timing.resolve(cluster.clock_mhz, &cluster.geometry) {
            report.push(err(
                "MCM101",
                format!("timings do not resolve at {} MHz: {e}", cluster.clock_mhz),
            ));
        }
        if cluster.timing.t_faw_ns > cluster.timing.t_rc_ns {
            report.push(warn(
                "MCM101",
                format!(
                    "tFAW ({} ns) exceeds tRC ({} ns): the four-activate window would \
                     outlast a full row cycle",
                    cluster.timing.t_faw_ns, cluster.timing.t_rc_ns
                ),
            ));
        }
    }
    if mem.clock_mhz != cluster.clock_mhz {
        report.push(err(
            "MCM101",
            format!(
                "subsystem clock ({} MHz) disagrees with the device clock ({} MHz)",
                mem.clock_mhz, cluster.clock_mhz
            ),
        ));
    }
    if mem.channels == 0 || !mem.channels.is_power_of_two() {
        report.push(err(
            "MCM101",
            format!(
                "channel count {} is not a non-zero power of two; low-order \
                 interleaving needs one",
                mem.channels
            ),
        ));
    }
    let burst = cluster.geometry.burst_bytes() as u64;
    if mem.granule_bytes == 0 || !mem.granule_bytes.is_power_of_two() {
        report.push(err(
            "MCM101",
            format!(
                "interleave granule of {} B is not a non-zero power of two",
                mem.granule_bytes
            ),
        ));
    } else if burst != 0 && mem.granule_bytes % burst != 0 {
        report.push(err(
            "MCM101",
            format!(
                "interleave granule of {} B is not a whole number of {} B bursts",
                mem.granule_bytes, burst
            ),
        ));
    } else if mem.granule_bytes != burst {
        report.push(warn(
            "MCM101",
            format!(
                "interleave granule of {} B differs from the {} B burst the paper \
                 interleaves on",
                mem.granule_bytes, burst
            ),
        ));
    }

    // --- MCM105: controller policies -------------------------------------
    let ctrl = &mem.controller;
    if !ctrl.refresh.enabled {
        report.push(warn(
            "MCM105",
            "refresh is disabled: results ignore a real obligation of the device".into(),
        ));
    } else if ctrl.refresh.max_postpone > 8 {
        report.push(warn(
            "MCM105",
            format!(
                "refresh postpone allowance of {} exceeds the 8 that DDR devices permit",
                ctrl.refresh.max_postpone
            ),
        ));
    }
    match ctrl.power_down {
        PowerDownPolicy::AfterIdleCycles(0) => report.push(warn(
            "MCM105",
            "power-down after 0 idle cycles: the device would never be in standby".into(),
        )),
        PowerDownPolicy::PowerDownThenSelfRefresh { pd_after, sr_after } if sr_after < pd_after => {
            report.push(err(
                "MCM105",
                format!(
                    "self-refresh threshold ({sr_after}) precedes power-down threshold \
                     ({pd_after}): the escalation can never happen in that order"
                ),
            ));
        }
        _ => {}
    }
    if let WritePolicy::Batched(0) = ctrl.write_policy {
        report.push(err(
            "MCM105",
            "write batching with a zero-burst buffer can never hold a write".into(),
        ));
    }
    report
}

/// `MCM103`: lints the recording use case against the H.264 level limits
/// (frame size, bitrate, DPB) via [`UseCase::validate`].
pub fn lint_use_case(uc: &UseCase) -> Report {
    let mut report = Report::new();
    if let Err(e) = uc.validate() {
        report.push(Diagnostic::new(
            "MCM103",
            Severity::Error,
            format!("use case invalid: {e}"),
        ));
    }
    report
}

/// `MCM102`: checks Table I bandwidth feasibility — the use case's
/// sustained memory load against the configured channels' peak transfer
/// rate (`channels × word × 2 × f_ck`). Demand above peak is an error
/// (the frame can never drain); demand above 80 % of peak is a warning
/// (no headroom for refresh, turnaround and page misses).
pub fn lint_feasibility(uc: &UseCase, mem: &MemoryConfig) -> Report {
    let mut report = Report::new();
    if uc.validate().is_err() || mem.channels == 0 {
        // MCM103/MCM101 already own those findings.
        return report;
    }
    let demand = uc.table_row().bits_per_second() as f64 / 8.0;
    let word = mem.controller.cluster.geometry.word_bytes();
    let peak = mem.peak_bandwidth_bytes_per_s();
    let utilization = demand / peak;
    let describe = format!(
        "workload needs {:.1} MB/s of {:.1} MB/s peak ({} × {}-bit DDR at {} MHz): \
         {:.0} % of peak",
        demand / 1e6,
        peak / 1e6,
        mem.channels,
        word * 8,
        mem.clock_mhz,
        utilization * 100.0
    );
    if utilization > 1.0 {
        report.push(Diagnostic::new(
            "MCM102",
            Severity::Error,
            format!("infeasible: {describe}"),
        ));
    } else if utilization > 0.8 {
        report.push(Diagnostic::new(
            "MCM102",
            Severity::Warning,
            format!("marginal: {describe}"),
        ));
    }
    report
}

/// `MCM104`: sanity-checks the interface (I/O) power model parameters
/// against plausible silicon ranges.
pub fn lint_interface(m: &InterfacePowerModel) -> Report {
    let mut report = Report::new();
    if m.pins == 0 {
        report.push(Diagnostic::new(
            "MCM104",
            Severity::Error,
            "interface model has zero pins: all interface power vanishes".to_string(),
        ));
    }
    if !m.activity.is_finite() || !(0.0..=1.0).contains(&m.activity) {
        report.push(Diagnostic::new(
            "MCM104",
            Severity::Error,
            format!("activity factor {} is outside [0, 1]", m.activity),
        ));
    }
    if !m.io_voltage_v.is_finite() || !(0.3..=3.6).contains(&m.io_voltage_v) {
        report.push(Diagnostic::new(
            "MCM104",
            Severity::Warning,
            format!(
                "I/O voltage {} V is outside the plausible 0.3–3.6 V range",
                m.io_voltage_v
            ),
        ));
    }
    if !m.capacitance_pf.is_finite() || !(0.05..=10.0).contains(&m.capacitance_pf) {
        report.push(Diagnostic::new(
            "MCM104",
            Severity::Warning,
            format!(
                "per-pin capacitance {} pF is outside the plausible 0.05–10 pF range \
                 (paper: 0.4–2.5 pF across bonding techniques)",
                m.capacitance_pf
            ),
        ));
    }
    report
}

/// Runs every configuration lint over one experiment's worth of inputs.
pub fn lint_all(uc: &UseCase, mem: &MemoryConfig, iface: &InterfacePowerModel) -> Report {
    let mut report = lint_memory_config(mem);
    report.merge(lint_use_case(uc));
    report.merge(lint_feasibility(uc, mem));
    report.merge(lint_interface(iface));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    fn paper_setup() -> (UseCase, MemoryConfig, InterfacePowerModel) {
        (
            UseCase::hd(HdOperatingPoint::Hd1080p30),
            MemoryConfig::paper(4, 400),
            InterfacePowerModel::paper(),
        )
    }

    #[test]
    fn paper_config_lints_clean() {
        let (uc, mem, iface) = paper_setup();
        let r = lint_all(&uc, &mem, &iface);
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn uhd_on_one_slow_channel_is_infeasible() {
        let uc = UseCase::hd(HdOperatingPoint::Uhd2160p30);
        let mem = MemoryConfig::paper(1, 200);
        let r = lint_feasibility(&uc, &mem);
        assert_eq!(r.error_count(), 1, "{}", r.render_human());
        assert_eq!(r.diagnostics[0].id, "MCM102");
        assert!(r.diagnostics[0].message.contains("infeasible"));
    }

    #[test]
    fn structural_errors_trip_mcm101() {
        let mut mem = MemoryConfig::paper(4, 400);
        mem.channels = 3;
        mem.granule_bytes = 24;
        mem.clock_mhz = 200; // device still at 400
        let r = lint_memory_config(&mem);
        assert!(r.error_count() >= 3, "{}", r.render_human());
        assert!(r.ids() == vec!["MCM101"], "{:?}", r.ids());
    }

    #[test]
    fn policy_errors_trip_mcm105() {
        let mut mem = MemoryConfig::paper(2, 400);
        mem.controller.power_down = PowerDownPolicy::PowerDownThenSelfRefresh {
            pd_after: 100,
            sr_after: 10,
        };
        mem.controller.write_policy = WritePolicy::Batched(0);
        mem.controller.refresh.max_postpone = 64;
        let r = lint_memory_config(&mem);
        assert_eq!(r.error_count(), 2, "{}", r.render_human());
        assert_eq!(r.count(Severity::Warning), 1);
        assert!(r.ids().contains(&"MCM105"));
    }

    #[test]
    fn interface_model_ranges() {
        let mut m = InterfacePowerModel::paper();
        assert!(lint_interface(&m).is_clean());
        m.activity = 1.4;
        m.pins = 0;
        m.capacitance_pf = 50.0;
        let r = lint_interface(&m);
        assert_eq!(r.error_count(), 2, "{}", r.render_human());
        assert_eq!(r.count(Severity::Warning), 1);
    }
}
