//! Bandwidth-roofline feasibility (`MCM405`): the workload's sustained
//! demand from the Table I load model against an analytic upper bound on
//! what the configured memory can deliver under *any* scheduler.
//!
//! The roofline is the minimum of four per-channel ceilings, derated by
//! the mandatory refresh duty cycle and scaled by the channel count:
//!
//! * **data bus** — `word_bytes × 2 × f_ck` (DDR: two beats per cycle);
//! * **four-activate window** — at most four pages opened per tFAW;
//! * **activate-to-activate** — at most one page opened per tRRD;
//! * **row cycle** — each bank reopens a page at most once per tRC.
//!
//! Every ceiling is optimistic (perfect page hits, zero turnaround, ideal
//! scheduling), so a demand *above* the roofline can never meet its frame
//! deadline: an error-severity `MCM405` finding is sound. Demand within
//! 90 % of the roofline earns a warning — real schedulers lose a few
//! percent to turnarounds and bank conflicts, so such points are at risk.

use mcm_channel::MemoryConfig;
use mcm_load::LoadModel;
use mcm_verify::{Diagnostic, Report, Severity};
use serde_json::json;

/// Demand above this fraction of the roofline is flagged as at-risk.
const UTILIZATION_WARNING: f64 = 0.90;

/// `MCM405` for any [`LoadModel`] on one memory configuration: the model's
/// sustained demand (`bits_per_second`) against the timing-derated peak.
/// A multi-tenant model's demand is the sum over tenants, so contention
/// for the roofline is priced in before any simulation runs.
pub fn lint_roofline_model(model: &dyn LoadModel, mem: &MemoryConfig) -> Report {
    // Structural problems (zero channels, an inconsistent model, an
    // unresolvable clock) belong to MCM1xx / MCM401; stay silent here.
    if model.validate().is_err() {
        return Report::new();
    }
    roofline_report(model.bits_per_second() as f64 / 8.0, mem)
}

fn roofline_report(demand: f64, mem: &MemoryConfig) -> Report {
    let mut report = Report::new();
    let cluster = &mem.controller.cluster;
    if mem.channels == 0 || cluster.clock_mhz == 0 {
        return report;
    }
    let t = &cluster.timing;
    let g = &cluster.geometry;

    let f_ck = cluster.clock_mhz as f64 * 1e6;
    let page = g.page_bytes() as f64;
    let per_ns = 1e9; // bytes/ns → bytes/s
    let mut bounds: Vec<(&str, f64)> = vec![("data_bus", g.word_bytes() as f64 * 2.0 * f_ck)];
    if t.t_faw_ns > 0.0 {
        bounds.push(("four_activate_window", 4.0 * page / t.t_faw_ns * per_ns));
    }
    if t.t_rrd_ns > 0.0 {
        bounds.push(("activate_spacing", page / t.t_rrd_ns * per_ns));
    }
    if t.t_rc_ns > 0.0 {
        bounds.push(("row_cycle", g.banks as f64 * page / t.t_rc_ns * per_ns));
    }
    let (binding, per_channel) =
        bounds.iter().copied().fold(
            ("none", f64::INFINITY),
            |acc, b| {
                if b.1 < acc.1 {
                    b
                } else {
                    acc
                }
            },
        );
    // Mandatory refresh steals tRFC out of every tREFI no matter what the
    // scheduler does (a broken duty cycle is MCM403's finding, not ours).
    let derate = if t.t_refi_ns > t.t_rfc_ns && t.t_rfc_ns >= 0.0 {
        1.0 - t.t_rfc_ns / t.t_refi_ns
    } else {
        1.0
    };
    let roofline = per_channel * derate * mem.channels as f64;
    if roofline <= 0.0 {
        return report;
    }
    let utilization = demand / roofline;

    let describe = format!(
        "demand {:.2} GB/s vs roofline {:.2} GB/s ({:.0} % of best case) on {} channel(s); \
         binding ceiling: {} at {:.2} GB/s per channel before the {:.1} % refresh derate",
        demand / 1e9,
        roofline / 1e9,
        utilization * 100.0,
        mem.channels,
        binding,
        per_channel / 1e9,
        (1.0 - derate) * 100.0
    );
    let values = json!({
        "demand_bytes_per_s": demand,
        "roofline_bytes_per_s": roofline,
        "utilization": utilization,
        "channels": mem.channels,
        "clock_mhz": cluster.clock_mhz,
        "binding_bound": binding,
        "per_channel_bytes_per_s": per_channel,
        "refresh_derate": derate,
        "bounds": bounds.iter().map(|(n, v)| json!({"bound": n, "bytes_per_s": v})).collect::<Vec<_>>(),
    });
    if utilization > 1.0 {
        report.push(
            Diagnostic::new(
                "MCM405",
                Severity::Error,
                format!(
                    "workload exceeds the bandwidth roofline: {describe}; no scheduler \
                     can meet the frame deadline at this point"
                ),
            )
            .with_context(
                json!({
                    "rule": "MCM405",
                    "inequality": "demand_bytes_per_s <= roofline_bytes_per_s",
                    "values": values,
                })
                .to_string(),
            ),
        );
    } else if utilization > UTILIZATION_WARNING {
        report.push(
            Diagnostic::new(
                "MCM405",
                Severity::Warning,
                format!(
                    "workload sits within 10 % of the bandwidth roofline: {describe}; \
                     turnarounds and bank conflicts may still miss deadlines"
                ),
            )
            .with_context(
                json!({
                    "rule": "MCM405",
                    "inequality": "demand_bytes_per_s <= 0.9 * roofline_bytes_per_s",
                    "values": values,
                })
                .to_string(),
            ),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::{HdOperatingPoint, TableIModel, UseCase};

    fn uc(p: HdOperatingPoint) -> UseCase {
        UseCase::hd(p)
    }

    /// The paper's Table I chain at `p`.
    fn table_i(p: HdOperatingPoint) -> TableIModel {
        TableIModel::new(uc(p))
    }

    #[test]
    fn paper_configs_sit_under_the_roofline() {
        for p in [
            HdOperatingPoint::Hd720p30,
            HdOperatingPoint::Hd720p60,
            HdOperatingPoint::Hd1080p30,
            HdOperatingPoint::Hd1080p60,
        ] {
            let r = lint_roofline_model(&table_i(p), &MemoryConfig::paper(4, 400));
            assert!(r.is_clean(), "{p:?}: {}", r.render_human());
        }
        let r = lint_roofline_model(
            &table_i(HdOperatingPoint::Uhd2160p30),
            &MemoryConfig::paper(8, 400),
        );
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn uhd_on_four_channels_breaks_the_roofline() {
        // 15.8 GB/s of demand vs ~12.6 GB/s of derated peak: infeasible
        // under any scheduler, which the dynamic verdict confirms.
        let r = lint_roofline_model(
            &table_i(HdOperatingPoint::Uhd2160p30),
            &MemoryConfig::paper(4, 400),
        );
        assert_eq!(r.ids(), vec!["MCM405"], "{}", r.render_human());
        assert!(r.has_errors());
    }

    #[test]
    fn near_roofline_demand_is_a_warning_not_an_error() {
        // 1080p60 needs ~8.0 GB/s; 4 channels at 266 MHz deliver ~8.4 GB/s
        // after the refresh derate — above 90 % utilization, below 100 %.
        let r = lint_roofline_model(
            &table_i(HdOperatingPoint::Hd1080p60),
            &MemoryConfig::paper(4, 266),
        );
        assert_eq!(r.ids(), vec!["MCM405"], "{}", r.render_human());
        assert!(!r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
    }

    #[test]
    fn table_i_model_matches_the_use_case_entry_point() {
        // The Table I model's demand is the use case's own Table I row.
        for p in [HdOperatingPoint::Hd1080p60, HdOperatingPoint::Uhd2160p30] {
            let mem = MemoryConfig::paper(4, 400);
            let via_uc = roofline_report(uc(p).table_row().bits_per_second() as f64 / 8.0, &mem);
            let via_model = lint_roofline_model(&table_i(p), &mem);
            assert_eq!(via_uc.ids(), via_model.ids());
            assert_eq!(via_uc.render_human(), via_model.render_human());
        }
    }

    #[test]
    fn heavier_workload_models_raise_findings_table_i_does_not() {
        use mcm_load::Workload;
        // 1080p60 on 4x400 is comfortably feasible under Table I (~8 of
        // ~12.6 GB/s), but the VVC profile's extra encoder traffic blows
        // straight past the roofline, as do four contending tenants (two
        // recorders plus playback and display).
        let mem = MemoryConfig::paper(4, 400);
        let point = uc(HdOperatingPoint::Hd1080p60);
        assert!(lint_roofline_model(&table_i(HdOperatingPoint::Hd1080p60), &mem).is_clean());
        let vvc = Workload::parse("vvc-record").unwrap().model(&point);
        let r = lint_roofline_model(vvc.as_ref(), &mem);
        assert!(
            r.has_errors(),
            "vvc should be flagged: {}",
            r.render_human()
        );
        let mt = Workload::MultiTenant(4).model(&point);
        let r = lint_roofline_model(mt.as_ref(), &mem);
        assert!(r.has_errors(), "four tenants exceed the roofline");
    }

    #[test]
    fn zero_channels_is_not_this_rules_problem() {
        let mut mem = MemoryConfig::paper(4, 400);
        mem.channels = 0;
        let r = lint_roofline_model(&table_i(HdOperatingPoint::Uhd2160p30), &mem);
        assert!(r.is_clean());
    }
}
