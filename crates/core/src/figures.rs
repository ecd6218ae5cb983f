//! Data builders and text renderers for every table and figure of the
//! paper's evaluation (Section IV), plus the Section II/III tables.
//!
//! Each `*_data_with` function runs the corresponding simulation grid on a
//! caller-chosen [`BatchRunner`]; each `render_*` produces the same
//! rows/series the paper reports, as text. The `*_report` renderers and
//! [`render_repro`] compose what the `mcm` figure commands print.

use serde::Serialize;

use mcm_load::{HdOperatingPoint, Stage, UseCase};
use mcm_power::XdrReference;

use crate::error::CoreError;
use crate::experiment::{Experiment, PointRecord, RealTimeVerdict};
use crate::runner::BatchRunner;
use crate::{analysis, charts};

/// The clock frequencies of Fig. 3's x-axis (the DDR2 span the paper
/// restricts the interface clock to).
pub const FIG3_CLOCKS_MHZ: [u64; 6] = [200, 266, 333, 400, 466, 533];

/// The channel counts evaluated throughout Section IV.
pub const CHANNELS: [u32; 4] = [1, 2, 4, 8];

/// The Fig. 4/5 clock frequency.
pub const FIG45_CLOCK_MHZ: u64 = 400;

/// Fig. 3: access time vs. interface clock for the 720p30 load.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Data {
    /// Clock frequencies, MHz (columns).
    pub clocks_mhz: Vec<u64>,
    /// Channel counts (rows).
    pub channels: Vec<u32>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<PointRecord>>,
    /// The 30 fps real-time requirement, ms.
    pub realtime_ms: f64,
}

/// Runs a row-major grid of experiments as one batch on `runner` and cuts
/// the records, in input order, into rows of `cols` (the first error
/// aborts the figure).
fn run_grid(
    runner: &dyn BatchRunner,
    experiments: &[Experiment],
    cols: usize,
) -> Result<Vec<Vec<PointRecord>>, CoreError> {
    let records = runner
        .run_batch(experiments)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
    if records.len() != experiments.len() {
        return Err(CoreError::BadParam {
            reason: format!(
                "figure batch returned {} results for {} experiments",
                records.len(),
                experiments.len()
            ),
        });
    }
    Ok(records.chunks(cols).map(<[PointRecord]>::to_vec).collect())
}

/// Runs the Fig. 3 grid, one 720p30 frame per (channel count, clock), on a
/// caller-chosen runner (e.g. `mcm-sweep`'s executor). The grid is
/// submitted as one batch in row-major order.
pub fn fig3_data_with(runner: &dyn BatchRunner) -> Result<Fig3Data, CoreError> {
    let experiments: Vec<Experiment> = CHANNELS
        .iter()
        .flat_map(|&ch| {
            FIG3_CLOCKS_MHZ
                .iter()
                .map(move |&clk| Experiment::paper(HdOperatingPoint::Hd720p30, ch, clk))
        })
        .collect();
    Ok(Fig3Data {
        clocks_mhz: FIG3_CLOCKS_MHZ.to_vec(),
        channels: CHANNELS.to_vec(),
        cells: run_grid(runner, &experiments, FIG3_CLOCKS_MHZ.len())?,
        realtime_ms: 1000.0 / 30.0,
    })
}

/// Renders Fig. 3 as the paper's series (one row per channel count).
pub fn render_fig3(d: &Fig3Data) -> String {
    let mut out = String::new();
    out.push_str(
        "Fig. 3 — Effect of memory clock frequency on memory access time.\n\
         One 720p30 frame encoded (H.264/AVC level 3.1). Access time [ms].\n\n",
    );
    out.push_str("  channels |");
    for clk in &d.clocks_mhz {
        out.push_str(&format!(" {clk:>7}"));
    }
    out.push_str(" MHz\n  ---------+");
    out.push_str(&"-".repeat(8 * d.clocks_mhz.len() + 4));
    out.push('\n');
    for (i, ch) in d.channels.iter().enumerate() {
        out.push_str(&format!("  {ch:>8} |"));
        for cell in &d.cells[i] {
            match cell.access_ms {
                Some(ms) => out.push_str(&format!(" {ms:>7.2}")),
                None => out.push_str("       -"),
            }
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "\n  Real-time requirement for 30 fps: {:.1} ms",
        d.realtime_ms
    ));
    out.push_str(&format!(
        " (with the 15% data-processing margin: {:.2} ms)\n",
        d.realtime_ms * 0.85
    ));
    out
}

/// Fig. 4 (access time) and Fig. 5 (power) share a grid: all five formats ×
/// all channel counts at 400 MHz.
#[derive(Debug, Clone, Serialize)]
pub struct FormatGridData {
    /// Operating-point labels (columns).
    pub points: Vec<String>,
    /// Channel counts (rows).
    pub channels: Vec<u32>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<PointRecord>>,
}

/// Runs the Fig. 4/Fig. 5 grid at 400 MHz on a caller-chosen runner; one
/// batch, row-major.
pub fn format_grid_data_with(runner: &dyn BatchRunner) -> Result<FormatGridData, CoreError> {
    let experiments: Vec<Experiment> = CHANNELS
        .iter()
        .flat_map(|&ch| {
            HdOperatingPoint::ALL
                .iter()
                .map(move |&p| Experiment::paper(p, ch, FIG45_CLOCK_MHZ))
        })
        .collect();
    Ok(FormatGridData {
        points: HdOperatingPoint::ALL
            .iter()
            .map(|p| p.to_string())
            .collect(),
        channels: CHANNELS.to_vec(),
        cells: run_grid(runner, &experiments, HdOperatingPoint::ALL.len())?,
    })
}

/// Renders Fig. 4: access time per format at 400 MHz.
pub fn render_fig4(d: &FormatGridData) -> String {
    let mut out = String::new();
    out.push_str(
        "Fig. 4 — Effect of encoding format on memory access time (400 MHz).\n\
         Access time [ms]; '-' = frame buffers exceed capacity.\n\n",
    );
    out.push_str("  channels |");
    for p in &d.points {
        out.push_str(&format!(" {p:>22}"));
    }
    out.push('\n');
    out.push_str("  ---------+");
    out.push_str(&"-".repeat(23 * d.points.len()));
    out.push('\n');
    for (i, ch) in d.channels.iter().enumerate() {
        out.push_str(&format!("  {ch:>8} |"));
        for cell in &d.cells[i] {
            match (cell.access_ms, &cell.verdict) {
                (Some(ms), Some(v)) => out.push_str(&format!(" {:>13.2} ({:>6})", ms, v)),
                _ => out.push_str(&format!(" {:>22}", "-")),
            }
        }
        out.push('\n');
    }
    out.push_str("\n  Real-time requirement: 33.3 ms at 30 fps, 16.7 ms at 60 fps.\n");
    out
}

/// Renders Fig. 5: power per format at 400 MHz, interface power stacked,
/// bars suppressed when real time (with margin) is missed.
pub fn render_fig5(d: &FormatGridData) -> String {
    let mut out = String::new();
    out.push_str(
        "Fig. 5 — Effect of encoding format on memory power consumption (400 MHz).\n\
         Total power [mW] = core + interface (eq. 1). 0 = fails real time\n\
         with the 15% data-processing margin (bar suppressed, as in the paper).\n\n",
    );
    out.push_str("  channels |");
    for p in &d.points {
        out.push_str(&format!(" {p:>22}"));
    }
    out.push('\n');
    out.push_str("  ---------+");
    out.push_str(&"-".repeat(23 * d.points.len()));
    out.push('\n');
    for (i, ch) in d.channels.iter().enumerate() {
        out.push_str(&format!("  {ch:>8} |"));
        for cell in &d.cells[i] {
            let text = match cell.reported_power_mw() {
                Some(mw) => {
                    let tag = if cell.real_time() == Some(RealTimeVerdict::Marginal) {
                        " MARGINAL"
                    } else {
                        ""
                    };
                    format!(
                        "{:.0} (if {:.0}){tag}",
                        mw,
                        cell.interface_mw.unwrap_or(0.0)
                    )
                }
                None => "0".to_string(),
            };
            out.push_str(&format!(" {text:>22}"));
        }
        out.push('\n');
    }
    out
}

/// The XDR comparison: the 8-channel 400 MHz subsystem against the Cell BE
/// XDR interface (25.6 GB/s, 5 W).
#[derive(Debug, Clone, Serialize)]
pub struct XdrComparison {
    /// Subsystem peak bandwidth, GB/s.
    pub peak_gbps: f64,
    /// XDR bandwidth, GB/s.
    pub xdr_gbps: f64,
    /// Per-format total power, mW, and its fraction of the XDR 5 W.
    pub rows: Vec<(String, f64, f64)>,
}

/// Runs the XDR comparison over all formats at 8 × 400 MHz on a
/// caller-chosen runner; every format must fit the eight channels.
pub fn xdr_data_with(runner: &dyn BatchRunner) -> Result<XdrComparison, CoreError> {
    let xdr = XdrReference::cell_be();
    let experiments: Vec<Experiment> = HdOperatingPoint::ALL
        .iter()
        .map(|&p| Experiment::paper(p, 8, FIG45_CLOCK_MHZ))
        .collect();
    let mut rows = Vec::new();
    let mut peak = 0.0;
    let records = run_grid(runner, &experiments, experiments.len())?.concat();
    for (p, r) in HdOperatingPoint::ALL.iter().zip(records) {
        let Some(mw) = r.total_mw() else {
            return Err(CoreError::BadParam {
                reason: format!(
                    "{p} is infeasible on 8 channels: {}",
                    r.infeasible_reason.unwrap_or_default()
                ),
            });
        };
        peak = r.peak_gbytes_per_s;
        rows.push((p.to_string(), mw, xdr.power_fraction(mw)));
    }
    Ok(XdrComparison {
        peak_gbps: peak,
        xdr_gbps: xdr.bandwidth_bytes_per_s / 1e9,
        rows,
    })
}

/// Renders the XDR comparison paragraph's numbers.
pub fn render_xdr(d: &XdrComparison) -> String {
    let mut out = String::new();
    out.push_str("XDR comparison (Section IV):\n");
    out.push_str(&format!(
        "  8 channels @ 400 MHz: {:.1} GB/s peak vs XDR {:.1} GB/s @ 5 W\n\n",
        d.peak_gbps, d.xdr_gbps
    ));
    for (label, mw, frac) in &d.rows {
        out.push_str(&format!(
            "  {label:>22}: {mw:>6.0} mW = {:>4.1}% of XDR\n",
            frac * 100.0
        ));
    }
    out
}

/// Table I: per-stage memory traffic for the five operating points.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Data {
    /// Column labels.
    pub points: Vec<String>,
    /// Stage rows: (label, megabits per frame per point).
    pub stage_mbits: Vec<(String, Vec<f64>)>,
    /// Image-processing subtotal per point, Mb.
    pub image_total_mbits: Vec<f64>,
    /// Video-coding subtotal per point, Mb.
    pub coding_total_mbits: Vec<f64>,
    /// Total load per point, MB/s.
    pub total_mb_per_s: Vec<f64>,
}

/// Computes Table I (pure arithmetic — no simulation).
pub fn table1_data() -> Table1Data {
    let cases: Vec<UseCase> = HdOperatingPoint::ALL
        .iter()
        .map(|&p| UseCase::hd(p))
        .collect();
    let mut stage_mbits: Vec<(String, Vec<f64>)> = Stage::ALL
        .iter()
        .map(|s| (s.label().to_string(), Vec::new()))
        .collect();
    let mut image = Vec::new();
    let mut coding = Vec::new();
    let mut mbs = Vec::new();
    for uc in &cases {
        for (i, t) in uc.stage_traffic().iter().enumerate() {
            stage_mbits[i].1.push(t.total_mbits());
        }
        let row = uc.table_row();
        image.push(row.image_bits_per_frame as f64 / 1e6);
        coding.push(row.coding_bits_per_frame as f64 / 1e6);
        mbs.push(row.mbytes_per_second());
    }
    Table1Data {
        points: HdOperatingPoint::ALL
            .iter()
            .map(|p| p.to_string())
            .collect(),
        stage_mbits,
        image_total_mbits: image,
        coding_total_mbits: coding,
        total_mb_per_s: mbs,
    }
}

/// Renders Table I in the paper's layout.
pub fn render_table1(d: &Table1Data) -> String {
    let mut out = String::new();
    out.push_str(
        "Table I — Memory bandwidth requirement for the stages of the video\n\
         recording use case (bits per frame, in Mb; totals in MB/s).\n\n",
    );
    out.push_str(&format!("  {:<24}", "H.264/AVC level / format"));
    for p in &d.points {
        out.push_str(&format!(" {p:>22}"));
    }
    out.push('\n');
    for (label, vals) in &d.stage_mbits {
        out.push_str(&format!("  {label:<24}"));
        for v in vals {
            out.push_str(&format!(" {v:>22.2}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("  {:<24}", "Image proc. total"));
    for v in &d.image_total_mbits {
        out.push_str(&format!(" {v:>22.2}"));
    }
    out.push('\n');
    out.push_str(&format!("  {:<24}", "Video coding total"));
    for v in &d.coding_total_mbits {
        out.push_str(&format!(" {v:>22.2}"));
    }
    out.push('\n');
    out.push_str(&format!("  {:<24}", "Data mem. load [MB/s]"));
    for v in &d.total_mb_per_s {
        out.push_str(&format!(" {v:>22.0}"));
    }
    out.push('\n');
    out
}

/// Fig. 3 as CSV (`clock_mhz,channels,access_ms,verdict`), for plotting.
pub fn fig3_csv(d: &Fig3Data) -> String {
    let mut out = String::from("clock_mhz,channels,access_ms,verdict\n");
    for (ri, ch) in d.channels.iter().enumerate() {
        for (ci, clk) in d.clocks_mhz.iter().enumerate() {
            let cell = &d.cells[ri][ci];
            out.push_str(&format!(
                "{clk},{ch},{},{}\n",
                cell.access_ms.map_or(String::new(), |v| format!("{v:.4}")),
                cell.verdict.as_deref().unwrap_or("infeasible"),
            ));
        }
    }
    out
}

/// The Fig. 4/5 grid as CSV
/// (`format,channels,access_ms,core_mw,interface_mw,verdict`).
pub fn format_grid_csv(d: &FormatGridData) -> String {
    let mut out = String::from("format,channels,access_ms,core_mw,interface_mw,verdict\n");
    for (ri, ch) in d.channels.iter().enumerate() {
        for (ci, point) in d.points.iter().enumerate() {
            let cell = &d.cells[ri][ci];
            out.push_str(&format!(
                "{point},{ch},{},{},{},{}\n",
                cell.access_ms.map_or(String::new(), |v| format!("{v:.4}")),
                cell.core_mw.map_or(String::new(), |v| format!("{v:.2}")),
                cell.interface_mw
                    .map_or(String::new(), |v| format!("{v:.2}")),
                cell.verdict.as_deref().unwrap_or("infeasible"),
            ));
        }
    }
    out
}

/// Table I as CSV (`stage,<one column per operating point>` in Mb/frame).
pub fn table1_csv(d: &Table1Data) -> String {
    let mut out = String::from("stage");
    for p in &d.points {
        out.push_str(&format!(",{p}"));
    }
    out.push('\n');
    for (label, vals) in &d.stage_mbits {
        out.push_str(label);
        for v in vals {
            out.push_str(&format!(",{v:.3}"));
        }
        out.push('\n');
    }
    out.push_str("total_mb_per_s");
    for v in &d.total_mb_per_s {
        out.push_str(&format!(",{v:.1}"));
    }
    out.push('\n');
    out
}

/// Renders Table II: the memory mapping over channels.
pub fn render_table2(channels: u32) -> String {
    let map = match mcm_channel::InterleaveMap::paper(channels) {
        Ok(m) => m,
        Err(e) => return format!("Table II: {e}\n"),
    };
    let mut out = String::new();
    out.push_str(&format!(
        "Table II — Memory mapping over {channels} channels (16-byte granules).\n\n  "
    ));
    let g = map.granule_bytes();
    for i in 0..(2 * channels as u64) {
        let (ch, _) = map.split(i * g);
        out.push_str(&format!("[{}..{}) -> BC{ch}  ", i * g, (i + 1) * g));
        if (i + 1) % 4 == 0 {
            out.push_str("\n  ");
        }
    }
    out.push('\n');
    out
}

/// `mcm fig3`: the Fig. 3 table, its 400 MHz bar chart and the two
/// doubling speedups the conclusions rest on.
pub fn render_fig3_report(d: &Fig3Data) -> String {
    format!(
        "{}\n{}\n{}",
        render_fig3(d),
        charts::fig3_chart(d, FIG45_CLOCK_MHZ),
        render_speedups(d, "close to 2x")
    )
}

/// `mcm fig5`: the Fig. 5 table, then one bar chart per format.
pub fn render_fig5_report(d: &FormatGridData) -> String {
    let mut out = render_fig5(d);
    out.push('\n');
    for idx in 0..d.points.len() {
        out += &charts::fig5_chart(d, idx);
        out.push('\n');
    }
    out
}

/// `mcm repro`: every table and figure in paper order, then the
/// conclusions' minimum channel counts read off the Fig. 4/5 grid.
pub fn render_repro(
    t1: &Table1Data,
    f3: &Fig3Data,
    grid: &FormatGridData,
    xdr: &XdrComparison,
) -> String {
    let rule = "=".repeat(62);
    let mut out = format!(
        "{rule}\n A case for multi-channel memories in video recording\n \
         (DATE 2009) — full reproduction\n{rule}\n\n"
    );
    out += &render_table1(t1);
    out.push('\n');
    out += &render_table2(4);
    out.push('\n');
    out += &render_fig3(f3);
    out += &render_speedups(f3, "~2x");
    out.push('\n');
    out += &render_fig4(grid);
    out.push('\n');
    out += &render_fig5(grid);
    out.push('\n');
    out += &render_xdr(xdr);
    out += &format!("\nConclusions check — minimum channels at {FIG45_CLOCK_MHZ} MHz:\n");
    for (col, point) in grid.points.iter().enumerate() {
        // The fewest channels whose cell passes `ok` (rows ascend).
        let fewest = |ok: fn(RealTimeVerdict) -> bool| {
            grid.channels
                .iter()
                .zip(&grid.cells)
                .find(|(_, row)| row[col].real_time().is_some_and(ok))
                .map_or("none".to_string(), |(ch, _)| format!("{ch} ch"))
        };
        out += &format!(
            "  {point}: {} (with margin: {})\n",
            fewest(RealTimeVerdict::is_real_time),
            fewest(|v| v == RealTimeVerdict::Meets)
        );
    }
    out
}

/// The files `mcm repro --csv <dir>` writes, as (file name, contents).
pub fn repro_csv(
    t1: &Table1Data,
    f3: &Fig3Data,
    grid: &FormatGridData,
) -> [(&'static str, String); 3] {
    [
        ("table1.csv", table1_csv(t1)),
        ("fig3.csv", fig3_csv(f3)),
        ("fig45.csv", format_grid_csv(grid)),
    ]
}

/// The mean speedups per channel and per clock doubling, against the
/// paper's `paper` claim.
fn render_speedups(d: &Fig3Data, paper: &str) -> String {
    let mut out = String::new();
    if let Some(s) = analysis::channel_doubling_speedup(d) {
        out += &format!("  Mean speedup per channel doubling: {s:.2}x (paper: {paper})\n");
    }
    if let Some(s) = analysis::clock_doubling_speedup(d) {
        out += &format!("  Mean speedup per clock doubling:   {s:.2}x (paper: {paper})\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Grid tests run one quick cell each; full grids are exercised by the
    // bench harness and the integration suite (release mode).

    #[test]
    fn cell_from_infeasible_config_reports_reason() {
        // 2160p in one 64 MiB channel.
        let exp = Experiment::paper(HdOperatingPoint::Uhd2160p30, 1, 400);
        let cell = &crate::SerialRunner.run_batch(&[exp])[0];
        let cell = cell.as_ref().unwrap();
        assert!(!cell.feasible);
        assert_eq!(cell.real_time(), None);
        assert_eq!(cell.reported_power_mw(), None);
        assert!(cell.infeasible_reason.as_ref().unwrap().contains("MiB"));
    }

    #[test]
    fn cell_from_quick_run() {
        let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        exp.op_limit = Some(20_000);
        let cell = &crate::SerialRunner.run_batch(&[exp])[0];
        let cell = cell.as_ref().unwrap();
        assert!(cell.feasible);
        assert!(cell.access_ms.unwrap() > 0.0);
        assert_eq!(cell.real_time(), Some(RealTimeVerdict::Meets));
        assert_eq!(cell.reported_power_mw(), cell.total_mw());
    }

    #[test]
    fn table1_matches_use_case_totals() {
        let d = table1_data();
        assert_eq!(d.points.len(), 5);
        assert_eq!(d.stage_mbits.len(), 11);
        // 720p30 ≈ 1.9 GB/s; 1080p60 ≈ 8.6 GB/s (paper's prose anchors).
        assert!((1_700.0..2_100.0).contains(&d.total_mb_per_s[0]));
        assert!((7_700.0..9_200.0).contains(&d.total_mb_per_s[3]));
        let rendered = render_table1(&d);
        assert!(rendered.contains("Video encoder"));
        assert!(rendered.contains("MB/s"));
    }

    #[test]
    fn fig3_and_fig4_render_synthetic_grids() {
        // Both doubling pairs (200→400, 266→533 MHz) and one channel
        // doubling, each exactly 2x.
        let d = Fig3Data {
            clocks_mhz: vec![200, 266, 400, 533],
            channels: vec![1, 2],
            cells: [[46.9, 36.0, 23.45, 18.0], [23.45, 18.0, 11.725, 9.0]]
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|&ms| PointRecord::synthetic_for_tests(ms))
                        .collect()
                })
                .collect(),
            realtime_ms: 33.3,
        };
        let text = render_fig3(&d);
        assert!(text.contains("46.88") || text.contains("46.90"), "{text}");
        assert!(text.contains("Real-time requirement"));
        assert!(text.contains("200"));
        // `mcm fig3` adds the 400 MHz chart and both speedup lines.
        let report = render_fig3_report(&d);
        assert!(report.starts_with(&text), "{report}");
        assert!(
            report.contains("720p30 access time @ 400 MHz (| = 30 fps budget)\n  1 ch "),
            "{report}"
        );
        assert!(report.contains("\n  2 ch "), "{report}");
        assert!(
            report.ends_with(
                "  Mean speedup per channel doubling: 2.00x (paper: close to 2x)\n  \
                 Mean speedup per clock doubling:   2.00x (paper: close to 2x)\n"
            ),
            "{report}"
        );

        let grid = FormatGridData {
            points: vec!["720p30".into(), "1080p30".into()],
            channels: vec![1, 2],
            cells: vec![
                vec![
                    PointRecord::synthetic_for_tests(26.2),
                    PointRecord::synthetic_for_tests(56.9),
                ],
                vec![
                    PointRecord::synthetic_for_tests(13.1),
                    PointRecord::synthetic_for_tests(28.5),
                ],
            ],
        };
        let f4 = render_fig4(&grid);
        assert!(f4.contains("720p30") && f4.contains("56.90"), "{f4}");
        let f5 = render_fig5(&grid);
        assert!(f5.contains("104")); // synthetic 100 core + 4 interface
                                     // `mcm fig5` adds one chart per format.
        let report = render_fig5_report(&grid);
        assert!(report.starts_with(&f5), "{report}");
        assert_eq!(report.matches("  power for ").count(), 2, "{report}");
        assert!(report.contains("  power for 720p30 (0 = fails"), "{report}");
        assert!(
            report.contains("  power for 1080p30 (0 = fails"),
            "{report}"
        );
        assert_eq!(report.matches(" 104.0 mW\n").count(), 4, "{report}");
        assert!(report.ends_with(" 104.0 mW\n\n"), "{report}");
    }

    #[test]
    fn repro_reads_the_conclusions_off_the_format_grid() {
        let meets = PointRecord::synthetic_for_tests(20.0);
        let marginal = PointRecord {
            verdict: Some("MARGINAL".into()),
            ..PointRecord::synthetic_for_tests(30.0)
        };
        let fails = PointRecord {
            verdict: Some("FAILS".into()),
            ..PointRecord::synthetic_for_tests(40.0)
        };
        let infeasible =
            PointRecord::from_result(Err(CoreError::Load(mcm_load::LoadError::LayoutOverflow {
                needed: 165 << 20,
                capacity: 64 << 20,
            })))
            .unwrap();
        let grid = FormatGridData {
            points: vec!["720p30".into(), "1080p30".into(), "2160p30".into()],
            channels: vec![1, 2, 4],
            cells: vec![
                vec![meets.clone(), fails.clone(), infeasible.clone()],
                vec![meets.clone(), marginal, infeasible],
                vec![meets.clone(), meets.clone(), fails],
            ],
        };
        let f3 = Fig3Data {
            clocks_mhz: vec![200, 400],
            channels: vec![1, 2],
            cells: vec![
                vec![meets.clone(), meets.clone()],
                vec![meets.clone(), meets],
            ],
            realtime_ms: 33.3,
        };
        let t1 = table1_data();
        let xdr = XdrComparison {
            peak_gbps: 25.6,
            xdr_gbps: 25.6,
            rows: vec![("720p30".into(), 205.0, 0.041)],
        };
        let out = render_repro(&t1, &f3, &grid, &xdr);
        assert!(
            out.starts_with(&format!("{}\n A case", "=".repeat(62))),
            "{out}"
        );
        assert!(out.contains(&render_fig5(&grid)), "{out}");
        assert!(
            out.contains("  Mean speedup per channel doubling: 1.00x (paper: ~2x)\n"),
            "{out}"
        );
        assert!(
            out.ends_with(
                "4.1% of XDR\n\nConclusions check — minimum channels at 400 MHz:\n  \
                 720p30: 1 ch (with margin: 1 ch)\n  \
                 1080p30: 2 ch (with margin: 4 ch)\n  \
                 2160p30: none (with margin: none)\n"
            ),
            "{out}"
        );

        // `mcm repro --csv <dir>` writes these three files.
        let files = repro_csv(&t1, &f3, &grid);
        let names: Vec<&str> = files.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["table1.csv", "fig3.csv", "fig45.csv"]);
        let [(_, table1), (_, fig3), (_, fig45)] = &files;
        assert_eq!(table1.lines().count(), 1 + 11 + 1, "{table1}");
        assert!(table1.starts_with("stage,"), "{table1}");
        assert_eq!(fig3.lines().count(), 1 + 2 * 2, "{fig3}");
        assert!(fig3.contains("\n400,2,20.0000,meets\n"), "{fig3}");
        assert_eq!(fig45.lines().count(), 1 + 3 * 3, "{fig45}");
        assert!(
            fig45.starts_with("format,channels,access_ms,core_mw,interface_mw,verdict\n"),
            "{fig45}"
        );
        assert!(
            fig45.contains("\n1080p30,2,30.0000,100.00,4.00,MARGINAL\n"),
            "{fig45}"
        );
        assert!(fig45.contains("\n2160p30,1,,,,infeasible\n"), "{fig45}");
    }

    #[test]
    fn csv_exports_are_well_formed() {
        let t1 = table1_data();
        let csv = table1_csv(&t1);
        let lines: Vec<&str> = csv.lines().collect();
        let cols = lines[0].split(',').count();
        assert_eq!(cols, 6); // stage + 5 points
        assert!(lines.iter().all(|l| l.split(',').count() == cols));
        assert!(csv.contains("Video encoder"));

        let d = Fig3Data {
            clocks_mhz: vec![200, 400],
            channels: vec![1, 2],
            cells: vec![
                vec![
                    PointRecord::synthetic_for_tests(46.9),
                    PointRecord::synthetic_for_tests(26.2),
                ],
                vec![
                    PointRecord::synthetic_for_tests(23.4),
                    PointRecord::synthetic_for_tests(13.1),
                ],
            ],
            realtime_ms: 33.3,
        };
        let csv = fig3_csv(&d);
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.contains("400,1,26.2000,meets"));
    }

    #[test]
    fn table2_renders_rotation() {
        let t = render_table2(4);
        assert!(t.contains("[0..16) -> BC0"));
        assert!(t.contains("[16..32) -> BC1"));
        assert!(t.contains("[64..80) -> BC0"));
    }

    #[test]
    fn xdr_render_shape() {
        // Use the real XDR math on fabricated rows to keep the test quick.
        let d = XdrComparison {
            peak_gbps: 25.6,
            xdr_gbps: 25.6,
            rows: vec![("720p".into(), 205.0, 0.041)],
        };
        let s = render_xdr(&d);
        assert!(s.contains("4.1% of XDR"));
    }
}
