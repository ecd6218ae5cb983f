//! `mcm-analyze`: static feasibility analysis of experiments and sweep
//! grids — the **MCM4xx rule catalogue**.
//!
//! Where `mcm-verify` audits what a simulation *did* (trace rules) or
//! sanity-checks a configuration's structure (`MCM1xx`), this crate proves
//! properties of an [`Experiment`] *without running the simulator at all*:
//!
//! * **Timing closure** ([`lint_timing`], `MCM401`–`MCM404`): Table II-style
//!   DRAM parameters must close — tRC ≥ tRAS + tRP, the four-activate
//!   window vs 4×tRRD, the tRFC/tREFI refresh duty cycle, and power-down
//!   entry/exit consistency (tXP/tXSR/tCKE).
//! * **Bandwidth roofline** ([`lint_roofline_model`], `MCM405`): the workload's
//!   sustained demand from the selected load model (the paper's Table I
//!   chain by default, or any [`mcm_load::LoadModel`]) against an analytic
//!   upper bound on achievable bandwidth derived from the timing tables
//!   (data bus, activate-rate ceilings, refresh derating). A point above
//!   the roofline cannot meet its frame deadline under *any* scheduler.
//! * **Memory footprint** ([`lint_footprint_model`], `MCM406`): the frame-buffer
//!   layout is computed with exactly the options the engine uses, turning
//!   the 64 MiB-per-channel ceiling into an explicit, witnessed diagnostic
//!   instead of a silent skip.
//!
//! Every finding carries a machine-readable **witness**: the violated
//! inequality with the concrete numbers, attached as a JSON context block
//! on the [`Diagnostic`]. Findings reuse `mcm-verify`'s diagnostic types,
//! so `mcm lint` renders them exactly like `mcm check` findings.
//!
//! # Soundness contract
//!
//! Error-severity findings from the feasibility rules (`MCM405`, `MCM406`)
//! are *sound*: a point they flag must also fail dynamically — a layout
//! overflow from the engine, or a `fails` real-time verdict. Error-severity
//! findings from the closure rules (`MCM401`–`MCM404`) mark datasheets that
//! are broken as specified (they usually cannot even resolve); such configs
//! are refused outright. In both cases no paper-golden Table I
//! configuration may be flagged, and warnings are advisory with no
//! guarantee either way. The contract is pinned by the cross-check tests
//! in `tests/soundness.rs`.
//!
//! Identifier ranges are a contract: `MCM4xx` belongs to this crate.
//! Never renumber.

#![warn(missing_docs)]

mod footprint;
mod roofline;
mod timing;

pub use footprint::lint_footprint_model;
pub use roofline::lint_roofline_model;
pub use timing::lint_timing;

use mcm_core::Experiment;
use mcm_verify::{Diagnostic, Report};

/// Rule identifiers owned by this crate: `(id, what it checks)`, in id
/// order. Disjoint from [`mcm_verify::rule_catalogue`] by the range
/// contract (`MCM4xx` is reserved for static analysis).
pub const ANALYZE_RULES: [(&str, &str); 6] = [
    (
        "MCM401",
        "row-cycle closure: tRC covers tRAS + tRP and the timings resolve at the requested clock",
    ),
    (
        "MCM402",
        "four-activate window arithmetic: tFAW is consistent with tRRD (a window below 4*tRRD is vacuous)",
    ),
    (
        "MCM403",
        "refresh budget: the tRFC/tREFI duty cycle leaves usable bandwidth behind refresh",
    ),
    (
        "MCM404",
        "power-down entry/exit consistency: tXSR covers tRFC, tXP and tCKE are physical",
    ),
    (
        "MCM405",
        "bandwidth roofline: workload demand fits the timing-derated peak under any scheduler",
    ),
    (
        "MCM406",
        "memory footprint: the engine's frame-buffer layout fits the channel capacity",
    ),
];

/// The static verdict on one experiment: feasible (no error-severity
/// findings) or not, with the full report either way.
///
/// This is what `SweepOptions::prelint` hands back instantly for
/// infeasible grid points instead of simulating them.
#[derive(Debug, Clone)]
pub struct AnalysisVerdict {
    /// Whether the configuration survived every error-severity rule.
    pub feasible: bool,
    /// Every MCM4xx finding, errors first after sorting.
    pub report: Report,
}

impl AnalysisVerdict {
    /// The first error-severity finding, if any.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.report
            .diagnostics
            .iter()
            .find(|d| d.severity == mcm_verify::Severity::Error)
    }

    /// One-line `"MCM4xx: message"` reason for an infeasible verdict.
    pub fn reason(&self) -> Option<String> {
        self.first_error()
            .map(|d| format!("{}: {}", d.id, d.message))
    }
}

/// Runs every MCM4xx rule over one experiment: timing closure on the
/// device, the bandwidth roofline, and the footprint bound. The roofline
/// and footprint rules consume the experiment's selected workload model,
/// so a VVC profile's heavier encoder traffic or a multi-tenant working
/// set is priced into the static verdict exactly as the engine would see
/// it; the default (Table I) workload reproduces the paper's analysis
/// byte-for-byte.
pub fn analyze_experiment(exp: &Experiment) -> Report {
    let cluster = &exp.memory.controller.cluster;
    let mut report = lint_timing(&cluster.timing, cluster.clock_mhz, &cluster.geometry);
    let model = exp.model();
    report.merge(lint_roofline_model(model.as_ref(), &exp.memory));
    report.merge(lint_footprint_model(model.as_ref(), &exp.memory));
    report
}

/// Runs [`analyze_experiment`] and folds the report into a feasible /
/// infeasible [`AnalysisVerdict`].
pub fn verdict(exp: &Experiment) -> AnalysisVerdict {
    let report = analyze_experiment(exp);
    AnalysisVerdict {
        feasible: !report.has_errors(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    #[test]
    fn catalogue_ids_are_unique_ordered_and_in_the_4xx_range() {
        let mut ids: Vec<&str> = ANALYZE_RULES.iter().map(|(id, _)| *id).collect();
        assert!(ids.iter().all(|id| id.starts_with("MCM4")), "{ids:?}");
        let sorted = {
            let mut s = ids.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(ids, sorted, "catalogue must be in id order");
        ids.dedup();
        assert_eq!(ids.len(), ANALYZE_RULES.len(), "duplicate rule ids");
        // Disjoint from the dynamic verifier's catalogue.
        for (id, _) in mcm_verify::rule_catalogue() {
            assert!(!ids.contains(&id), "{id} claimed by both catalogues");
        }
    }

    #[test]
    fn paper_headline_config_is_feasible() {
        let exp = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        let v = verdict(&exp);
        assert!(v.feasible, "{}", v.report.render_human());
        assert!(v.report.is_clean(), "{}", v.report.render_human());
        assert!(v.reason().is_none());
    }

    #[test]
    fn the_verdict_tracks_the_selected_workload() {
        use mcm_load::Workload;
        // The same hardware point flips from feasible to infeasible when
        // the workload model changes — the static verdict must see it.
        let mut exp = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        assert!(verdict(&exp).feasible);
        exp.workload = Workload::MultiTenant(8);
        let v = verdict(&exp);
        assert!(!v.feasible, "{}", v.report.render_human());
        assert!(v.reason().is_some());
    }

    #[test]
    fn uhd_on_one_channel_is_infeasible_with_a_reason() {
        let exp = Experiment::paper(HdOperatingPoint::Uhd2160p30, 1, 400);
        let v = verdict(&exp);
        assert!(!v.feasible);
        let reason = v.reason().expect("infeasible verdict carries a reason");
        assert!(reason.starts_with("MCM4"), "{reason}");
    }

    #[test]
    fn every_finding_carries_a_json_witness() {
        let exp = Experiment::paper(HdOperatingPoint::Uhd2160p30, 1, 200);
        let report = analyze_experiment(&exp);
        assert!(!report.is_clean());
        for d in &report.diagnostics {
            let ctx = d.context.as_deref().expect("witness context");
            let v: serde_json::Value = serde_json::from_str(ctx).expect("witness is JSON");
            assert!(
                v.get("inequality").is_some(),
                "{}: witness must state the violated inequality",
                d.id
            );
        }
    }
}
