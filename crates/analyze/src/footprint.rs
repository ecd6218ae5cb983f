//! Memory-footprint bound (`MCM406`): does the use case's frame-buffer
//! working set fit the configured channels at all?
//!
//! This lays the frame out with [`mcm_core::feed::layout`], the placement
//! every simulation engine path lays its frame out with, over the full
//! multi-channel capacity, so the static answer is the engine's answer by
//! construction: a point flagged here would abort its run with the same
//! `LayoutOverflow`. That turns the capacity ceiling from a silent skip
//! into an explicit, witnessed diagnostic. The ceiling itself is a datasheet
//! field, `Geometry::capacity_bytes()`: the paper's 512 Mb part gives
//! 64 MiB per channel, `Geometry::large_capacity_mobile_ddr` gives
//! 256 MiB and fits 2160p30 into one or two channels.

use mcm_channel::MemoryConfig;
use mcm_core::feed::layout;
use mcm_load::{LoadError, LoadModel};
use mcm_verify::{Diagnostic, Report, Severity};
use serde_json::json;

/// Layouts filling more than this fraction of capacity are flagged as
/// leaving little headroom for anything beyond the frame buffers.
const FOOTPRINT_WARNING: f64 = 0.90;

/// `MCM406` for any [`LoadModel`] on one memory configuration: the model's
/// full working set (every tenant's buffers, for multi-tenant workloads)
/// against the channel capacity, with exactly the engine's layout options.
pub fn lint_footprint_model(model: &dyn LoadModel, mem: &MemoryConfig) -> Report {
    // Structural problems are MCM1xx findings; stay silent on them here.
    if model.validate().is_err() || mem.channels == 0 {
        return Report::new();
    }
    let capacity = mem.capacity_bytes();
    footprint_report(
        model
            .footprint(&layout(mem, capacity))
            .map(|f| f.total_bytes),
        capacity,
        mem,
    )
}

fn footprint_report(layout: Result<u64, LoadError>, capacity: u64, mem: &MemoryConfig) -> Report {
    let mut report = Report::new();
    let geometry = &mem.controller.cluster.geometry;
    match layout {
        Ok(needed) => {
            let fill = needed as f64 / capacity.max(1) as f64;
            if fill > FOOTPRINT_WARNING {
                report.push(
                    Diagnostic::new(
                        "MCM406",
                        Severity::Warning,
                        format!(
                            "frame buffers fill {:.0} % of memory: {} MiB of {} MiB \
                             across {} channel(s) leaves little room for code or heap",
                            fill * 100.0,
                            needed >> 20,
                            capacity >> 20,
                            mem.channels
                        ),
                    )
                    .with_context(
                        json!({
                            "rule": "MCM406",
                            "inequality": "layout_total_bytes <= 0.9 * capacity_bytes",
                            "values": {
                                "needed_bytes": needed,
                                "capacity_bytes": capacity,
                                "fill": fill,
                                "channels": mem.channels,
                            },
                        })
                        .to_string(),
                    ),
                );
            }
        }
        Err(LoadError::LayoutOverflow { needed, capacity }) => {
            report.push(
                Diagnostic::new(
                    "MCM406",
                    Severity::Error,
                    format!(
                        "frame buffers do not fit: need {} MiB, capacity is {} MiB \
                         across {} channel(s) of {} MiB each",
                        needed >> 20,
                        capacity >> 20,
                        mem.channels,
                        geometry.capacity_bytes() >> 20
                    ),
                )
                .with_context(
                    json!({
                        "rule": "MCM406",
                        "inequality": "layout_total_bytes <= capacity_bytes",
                        "values": {
                            "needed_bytes": needed,
                            "capacity_bytes": capacity,
                            "channels": mem.channels,
                            "per_channel_bytes": geometry.capacity_bytes(),
                        },
                    })
                    .to_string(),
                ),
            );
        }
        Err(e) => {
            report.push(
                Diagnostic::new(
                    "MCM406",
                    Severity::Error,
                    format!("frame-buffer layout cannot be computed: {e}"),
                )
                .with_context(
                    json!({
                        "rule": "MCM406",
                        "inequality": "layout is computable",
                        "values": {"error": e.to_string()},
                    })
                    .to_string(),
                ),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::{FrameLayout, HdOperatingPoint, TableIModel, UseCase};

    /// The paper's Table I chain at `p`.
    fn table_i(p: HdOperatingPoint) -> TableIModel {
        TableIModel::new(UseCase::hd(p))
    }

    #[test]
    fn the_paper_grid_footprints_fit() {
        for p in [
            HdOperatingPoint::Hd720p30,
            HdOperatingPoint::Hd720p60,
            HdOperatingPoint::Hd1080p30,
            HdOperatingPoint::Hd1080p60,
        ] {
            let r = lint_footprint_model(&table_i(p), &MemoryConfig::paper(1, 400));
            assert!(r.is_clean(), "{p:?}: {}", r.render_human());
        }
    }

    #[test]
    fn uhd_on_one_channel_overflows_with_a_witnessed_406() {
        let r = lint_footprint_model(
            &table_i(HdOperatingPoint::Uhd2160p30),
            &MemoryConfig::paper(1, 400),
        );
        assert_eq!(r.ids(), vec!["MCM406"], "{}", r.render_human());
        assert!(r.has_errors());
        let d = &r.diagnostics[0];
        let ctx: serde_json::Value = serde_json::from_str(d.context.as_deref().unwrap()).unwrap();
        let needed = ctx["values"]["needed_bytes"].as_u64().unwrap();
        let capacity = ctx["values"]["capacity_bytes"].as_u64().unwrap();
        assert!(needed > capacity, "witness numbers must show the violation");
        assert_eq!(capacity, 64 << 20);
    }

    #[test]
    fn table_i_model_matches_the_use_case_entry_point() {
        // The Table I model's working set is the use case's own layout.
        for (p, ch) in [
            (HdOperatingPoint::Hd1080p30, 1),
            (HdOperatingPoint::Uhd2160p30, 1),
        ] {
            let mem = MemoryConfig::paper(ch, 400);
            let capacity = mem.capacity_bytes();
            let frame = FrameLayout::with_options(&UseCase::hd(p), &layout(&mem, capacity));
            let via_uc = footprint_report(frame.map(|l| l.total_bytes()), capacity, &mem);
            let via_model = lint_footprint_model(&table_i(p), &mem);
            assert_eq!(via_uc.ids(), via_model.ids());
            assert_eq!(via_uc.render_human(), via_model.render_human());
        }
    }

    #[test]
    fn tenants_multiply_the_footprint() {
        use mcm_load::Workload;
        // 1080p30's buffers fit one channel on their own, but several
        // contending tenants' disjoint working sets do not.
        let mem = MemoryConfig::paper(1, 400);
        let uc = UseCase::hd(HdOperatingPoint::Hd1080p30);
        assert!(lint_footprint_model(&TableIModel::new(uc), &mem).is_clean());
        let mt = Workload::MultiTenant(8).model(&uc);
        let r = lint_footprint_model(mt.as_ref(), &mem);
        assert!(r.has_errors(), "{}", r.render_human());
        assert_eq!(r.ids(), vec!["MCM406"]);
    }

    #[test]
    fn uhd_fits_on_enough_channels() {
        let r = lint_footprint_model(
            &table_i(HdOperatingPoint::Uhd2160p30),
            &MemoryConfig::paper(8, 400),
        );
        assert!(r.is_clean(), "{}", r.render_human());
    }

    #[test]
    fn uhd_fits_few_channels_of_the_large_capacity_part() {
        // The ceiling is a datasheet field: the same 2160p30 working set
        // that overflows one 64 MiB channel is clean on the 2 Gb part.
        for channels in [1, 2] {
            let mut mem = MemoryConfig::paper(channels, 400);
            mem.controller.cluster.geometry = mcm_dram::Geometry::large_capacity_mobile_ddr();
            let r = lint_footprint_model(&table_i(HdOperatingPoint::Uhd2160p30), &mem);
            assert!(r.is_clean(), "{channels} ch: {}", r.render_human());
        }
    }
}
