//! The `mcm bench` performance harness: simulator throughput, not memory
//! behaviour.
//!
//! Every scenario runs `warmup` unmeasured times, then `repeats` measured
//! times; the report keeps all wall-time samples plus the median and p95,
//! and derives a throughput from the median. The work unit depends on the
//! path: the direct path counts issued DRAM commands, the event-driven
//! path counts fired kernel events, the steady-state session counts bytes
//! moved, and the sweep counts grid points.
//!
//! The headline scenario (1080p30 × 4 channels at 400 MHz) is measured
//! identically in `--quick` and full mode, so a quick CI run is directly
//! comparable with the committed full report (`BENCH_sim.json` at the
//! repository root). [`check_regression`] implements that gate.

use std::time::Instant;

use mcm_core::eventsim::run_event_driven_configured;
use mcm_core::{ChunkPolicy, Experiment, FrameResult, RunOptions};
use mcm_load::HdOperatingPoint;
use mcm_sim::QueueKind;
use mcm_sweep::{
    merge_shards, run_sweep_on, run_sweep_shard_on, RayonExecutor, SweepOptions, SweepSpec,
};
use serde::{Deserialize, Serialize};

/// Direct-path throughput of the seed engine (binary-heap queue,
/// per-command issue, no precomputed timing tables) on the headline
/// scenario, measured with this harness's method before the hot-path
/// rewrite. Kept as the written-down pre-optimization reference in every
/// report.
pub const SEED_DIRECT_EVENTS_PER_SEC: f64 = 26_200_000.0;

/// Event-driven seed throughput; see [`SEED_DIRECT_EVENTS_PER_SEC`].
pub const SEED_EVENT_DRIVEN_EVENTS_PER_SEC: f64 = 6_440_000.0;

/// The hot-path rewrite's throughput goal on the headline scenario.
pub const TARGET_SPEEDUP: f64 = 2.0;

/// Fractional events/sec drop tolerated by [`check_regression`].
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// Scenario the headline numbers are measured on.
const HEADLINE_SCENARIO: &str = "1080p30 x 4ch @ 400 MHz";

/// Sampling parameters of one harness invocation.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Trim the grid, session and sweep scenarios for CI smoke runs. The
    /// headline scenario is never trimmed.
    pub quick: bool,
    /// Unmeasured runs before sampling starts.
    pub warmup: u32,
    /// Measured runs per scenario.
    pub repeats: u32,
}

impl BenchConfig {
    /// The full grid: every operating point × 1–8 channels, a steady-state
    /// session and the 500-point sweep; 1 warmup + 5 repeats.
    pub fn full() -> Self {
        BenchConfig {
            quick: false,
            warmup: 1,
            repeats: 5,
        }
    }

    /// The CI smoke configuration: headline plus a two-cell grid, a short
    /// session and the 20-point paper-grid sweep; 1 warmup + 3 repeats.
    pub fn quick() -> Self {
        BenchConfig {
            quick: true,
            warmup: 1,
            repeats: 3,
        }
    }

    /// Overrides the measured repeat count (builder style; min 1).
    pub fn with_repeats(mut self, repeats: u32) -> Self {
        self.repeats = repeats.max(1);
        self
    }
}

/// One timed scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Human-readable scenario name, e.g. `1080p30 x 4ch direct`.
    pub name: String,
    /// Which engine path ran: `direct`, `event-driven`,
    /// `event-driven-binary-heap`, `steady`, `sweep`, `sweep-sharded`.
    pub kind: String,
    /// Work items completed per run (see `unit`).
    pub work: u64,
    /// What `work` counts: `dram-commands`, `kernel-events`, `bytes`,
    /// `points`.
    pub unit: String,
    /// Median wall time over the measured repeats.
    pub median_ms: f64,
    /// 95th-percentile wall time over the measured repeats.
    pub p95_ms: f64,
    /// `work` divided by the median wall time.
    pub per_sec: f64,
    /// Every measured wall-time sample, in run order.
    pub samples_ms: Vec<f64>,
}

/// The headline comparison: optimized engine vs the recorded seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Headline {
    /// Scenario the numbers are measured on.
    pub scenario: String,
    /// Seed direct-path throughput (pre-optimization reference).
    pub seed_direct_events_per_sec: f64,
    /// Seed event-driven throughput (pre-optimization reference).
    pub seed_event_driven_events_per_sec: f64,
    /// This binary's direct-path throughput, DRAM commands per second.
    pub direct_events_per_sec: f64,
    /// This binary's event-driven throughput (calendar queue), kernel
    /// events per second.
    pub event_driven_events_per_sec: f64,
    /// `direct_events_per_sec` over the seed number.
    pub direct_speedup_vs_seed: f64,
    /// `event_driven_events_per_sec` over the seed number.
    pub event_driven_speedup_vs_seed: f64,
    /// Same-binary calendar-queue vs binary-heap-queue ratio (isolates
    /// the queue from the other optimizations and from the machine).
    pub calendar_vs_binary_heap: f64,
    /// The goal both speedups are judged against.
    pub target_speedup: f64,
    /// Whether both speedups meet [`TARGET_SPEEDUP`].
    pub meets_target: bool,
}

/// Everything `mcm bench` writes to `BENCH_sim.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Report format tag.
    pub schema: String,
    /// `full` or `quick`.
    pub mode: String,
    /// Unmeasured runs per scenario.
    pub warmup: u32,
    /// Measured runs per scenario.
    pub repeats: u32,
    /// The optimized-vs-seed comparison.
    pub headline: Headline,
    /// Every timed scenario.
    pub scenarios: Vec<Measurement>,
    /// Grid cells that could not run (infeasible configurations), with
    /// the reason.
    pub skipped: Vec<String>,
}

/// Total DRAM commands a frame issued, summed over channels — the direct
/// path's work unit.
pub fn dram_events(r: &FrameResult) -> u64 {
    r.report
        .channels
        .iter()
        .map(|c| {
            c.device.activates
                + c.device.reads
                + c.device.writes
                + c.device.precharges
                + c.device.refreshes
                + c.device.power_downs
                + c.device.self_refreshes
        })
        .sum()
}

/// Runs `run` `warmup` unmeasured times then `repeats` measured times;
/// returns the wall-time samples in milliseconds.
fn time_repeats<T>(warmup: u32, repeats: u32, mut run: impl FnMut() -> T) -> Vec<f64> {
    for _ in 0..warmup {
        run();
    }
    let repeats = repeats.max(1);
    let mut samples = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let t0 = Instant::now();
        run();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    samples
}

/// Distills wall-time samples into a [`Measurement`].
fn summarize(
    name: impl Into<String>,
    kind: &str,
    work: u64,
    unit: &str,
    samples_ms: Vec<f64>,
) -> Measurement {
    let mut sorted = samples_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let median_ms = sorted[sorted.len() / 2];
    let p95_idx = ((sorted.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
    let p95_ms = sorted[p95_idx.min(sorted.len() - 1)];
    Measurement {
        name: name.into(),
        kind: kind.into(),
        work,
        unit: unit.into(),
        median_ms,
        p95_ms,
        per_sec: work as f64 / (median_ms / 1e3),
        samples_ms,
    }
}

/// Short scenario label for an operating point — the same names the CLI's
/// `--format` flag accepts.
fn point_label(point: HdOperatingPoint) -> &'static str {
    match point {
        HdOperatingPoint::Hd720p30 => "720p30",
        HdOperatingPoint::Hd720p60 => "720p60",
        HdOperatingPoint::Hd1080p30 => "1080p30",
        HdOperatingPoint::Hd1080p60 => "1080p60",
        HdOperatingPoint::Uhd2160p30 => "2160p30",
    }
}

fn paper_exp(point: HdOperatingPoint, channels: u32, op_limit: Option<u64>) -> Experiment {
    let mut e = Experiment::paper(point, channels, 400);
    e.op_limit = op_limit;
    e
}

/// Times the direct path (one full `run_with` frame). The probe run that
/// establishes the work count doubles as the first warmup.
fn direct_measurement(
    cfg: &BenchConfig,
    point: HdOperatingPoint,
    channels: u32,
    op_limit: Option<u64>,
) -> Result<Measurement, String> {
    let e = paper_exp(point, channels, op_limit);
    let name = format!("{} x{}ch direct", point_label(point), channels);
    direct_measurement_on(cfg, &e, name)
}

/// Times the direct path on an explicit experiment (used for the
/// large-capacity retries of statically infeasible paper-part cells).
fn direct_measurement_on(
    cfg: &BenchConfig,
    e: &Experiment,
    name: String,
) -> Result<Measurement, String> {
    let frame = |e: &Experiment| {
        e.run_with(&RunOptions::default())
            .map(|o| o.into_frame().expect("single-frame outcome"))
    };
    let probe = frame(e).map_err(|err| err.to_string())?;
    let work = dram_events(&probe);
    let samples = time_repeats(cfg.warmup.saturating_sub(1), cfg.repeats, || {
        frame(e).expect("probe run succeeded")
    });
    Ok(summarize(name, "direct", work, "dram-commands", samples))
}

/// Times the event-driven master on the chosen kernel queue.
fn event_driven_measurement(
    cfg: &BenchConfig,
    point: HdOperatingPoint,
    channels: u32,
    op_limit: u64,
    window: u32,
    queue: QueueKind,
) -> Result<Measurement, String> {
    let e = paper_exp(point, channels, Some(op_limit));
    let run = |e: &Experiment| run_event_driven_configured(e, window, queue, None);
    let probe = run(&e).map_err(|err| err.to_string())?;
    let kind = match queue {
        QueueKind::Calendar => "event-driven",
        QueueKind::BinaryHeap => "event-driven-binary-heap",
    };
    let samples = time_repeats(cfg.warmup.saturating_sub(1), cfg.repeats, || {
        run(&e).expect("probe run succeeded")
    });
    Ok(summarize(
        format!("{} x{}ch {}", point_label(point), channels, kind),
        kind,
        probe.events,
        "kernel-events",
        samples,
    ))
}

/// Times a multi-frame steady-state session.
fn steady_measurement(cfg: &BenchConfig, frames: u32) -> Result<Measurement, String> {
    let e = paper_exp(HdOperatingPoint::Hd1080p30, 4, Some(50_000));
    let run = |e: &Experiment| {
        e.run_with(&RunOptions::steady(frames))
            .map(|o| o.into_steady().expect("steady outcome"))
    };
    let probe = run(&e).map_err(|err| err.to_string())?;
    let samples = time_repeats(cfg.warmup.saturating_sub(1), cfg.repeats, || {
        run(&e).expect("probe run succeeded")
    });
    Ok(summarize(
        format!("1080p30 x4ch steady {frames} frames"),
        "steady",
        probe.bytes,
        "bytes",
        samples,
    ))
}

/// The full-mode sweep scenario: 500 points (5 formats × 4 channel counts
/// × 5 clocks × 5 chunk policies), op-limited so the scenario measures
/// engine + scheduler overhead rather than one long frame.
fn sweep_spec_500() -> SweepSpec {
    SweepSpec {
        points: HdOperatingPoint::ALL.to_vec(),
        channels: vec![1, 2, 4, 8],
        clocks_mhz: vec![200, 266, 333, 400, 533],
        chunks: vec![
            ChunkPolicy::PerChannel(16),
            ChunkPolicy::PerChannel(32),
            ChunkPolicy::PerChannel(64),
            ChunkPolicy::PerChannel(128),
            ChunkPolicy::Fixed(128),
        ],
        op_limit: Some(2_000),
        ..SweepSpec::default()
    }
}

/// Times the parallel sweep engine end to end (expand + schedule +
/// simulate), uncached.
fn sweep_measurement(cfg: &BenchConfig) -> Result<Measurement, String> {
    let spec = if cfg.quick {
        SweepSpec {
            op_limit: Some(2_000),
            ..SweepSpec::paper_grid()
        }
    } else {
        sweep_spec_500()
    };
    let options = SweepOptions::default();
    let run = || {
        run_sweep_on(&RayonExecutor::default(), &spec, &options).expect("bench sweep spec expands")
    };
    let probe = run();
    if probe.stats.failed > 0 {
        return Err(format!(
            "sweep scenario had {} failed points",
            probe.stats.failed
        ));
    }
    let samples = time_repeats(cfg.warmup.saturating_sub(1), cfg.repeats, run);
    Ok(summarize(
        format!("sweep {} points", probe.stats.total),
        "sweep",
        probe.stats.total as u64,
        "points",
        samples,
    ))
}

/// Times the distributed sweep path on one machine: the same grid split
/// into four shards, each executed and rendered to a shard document, then
/// parsed and merged back. The delta against the plain `sweep` scenario
/// prices the shard machinery itself — four grid expansions, document
/// rendering, parsing and reassembly. The probe run is asserted
/// byte-identical to the unsharded export, so the scenario doubles as a
/// determinism check.
fn sweep_sharded_measurement(cfg: &BenchConfig) -> Result<Measurement, String> {
    let spec = if cfg.quick {
        SweepSpec {
            op_limit: Some(2_000),
            ..SweepSpec::paper_grid()
        }
    } else {
        sweep_spec_500()
    };
    let options = SweepOptions::default();
    const SHARDS: usize = 4;
    let run = || {
        let docs: Vec<(String, String)> = (0..SHARDS)
            .map(|i| {
                let shard =
                    run_sweep_shard_on(&RayonExecutor::default(), &spec, i, SHARDS, &options)
                        .expect("bench sweep spec shards");
                (format!("shard-{i}"), shard.to_json())
            })
            .collect();
        merge_shards(&docs).expect("bench shards merge")
    };
    let probe = run();
    let whole =
        run_sweep_on(&RayonExecutor::default(), &spec, &options).expect("bench sweep spec expands");
    if probe.to_json() != whole.to_json() {
        return Err("sharded sweep export differs from the unsharded run".into());
    }
    let samples = time_repeats(cfg.warmup.saturating_sub(1), cfg.repeats, run);
    Ok(summarize(
        format!("sweep {} points, {SHARDS} shards + merge", probe.len()),
        "sweep-sharded",
        probe.len() as u64,
        "points",
        samples,
    ))
}

/// Runs every scenario and assembles the report. Infeasible grid cells
/// (2160p does not fit few channels) are recorded in
/// [`BenchReport::skipped`]; an error on the headline scenario aborts the
/// whole bench.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    let mut scenarios = Vec::new();
    let mut skipped = Vec::new();

    // Headline: full frame on the direct path, bounded event-driven run on
    // both queues. Identical in quick and full mode so quick CI reports
    // compare against the committed full report.
    let direct = direct_measurement(cfg, HdOperatingPoint::Hd1080p30, 4, None)?;
    let ed_cal = event_driven_measurement(
        cfg,
        HdOperatingPoint::Hd1080p30,
        4,
        100_000,
        64,
        QueueKind::Calendar,
    )?;
    let ed_heap = event_driven_measurement(
        cfg,
        HdOperatingPoint::Hd1080p30,
        4,
        100_000,
        64,
        QueueKind::BinaryHeap,
    )?;
    let direct_speedup = direct.per_sec / SEED_DIRECT_EVENTS_PER_SEC;
    let ed_speedup = ed_cal.per_sec / SEED_EVENT_DRIVEN_EVENTS_PER_SEC;
    let headline = Headline {
        scenario: HEADLINE_SCENARIO.into(),
        seed_direct_events_per_sec: SEED_DIRECT_EVENTS_PER_SEC,
        seed_event_driven_events_per_sec: SEED_EVENT_DRIVEN_EVENTS_PER_SEC,
        direct_events_per_sec: direct.per_sec,
        event_driven_events_per_sec: ed_cal.per_sec,
        direct_speedup_vs_seed: direct_speedup,
        event_driven_speedup_vs_seed: ed_speedup,
        calendar_vs_binary_heap: ed_cal.per_sec / ed_heap.per_sec,
        target_speedup: TARGET_SPEEDUP,
        meets_target: direct_speedup >= TARGET_SPEEDUP && ed_speedup >= TARGET_SPEEDUP,
    };
    scenarios.push(direct);
    scenarios.push(ed_cal);
    scenarios.push(ed_heap);

    // Single-frame grid, bounded per cell so the full grid stays minutes,
    // not hours.
    let grid: Vec<(HdOperatingPoint, u32)> = if cfg.quick {
        vec![
            (HdOperatingPoint::Hd720p30, 2),
            (HdOperatingPoint::Hd1080p60, 8),
        ]
    } else {
        let mut cells = Vec::new();
        for point in HdOperatingPoint::ALL {
            for channels in [1u32, 2, 4, 8] {
                cells.push((point, channels));
            }
        }
        cells
    };
    for (point, channels) in grid {
        // Only cells whose frame buffers cannot be *laid out* are skipped:
        // a layout overflow aborts the run, whereas a bandwidth-infeasible
        // cell (MCM405) still simulates fine and measures throughput — it
        // just misses real time, which a benchmark does not care about.
        // The skip carries the analyzer's MCM406 witness so the report
        // records *why* a cell is absent.
        let exp = paper_exp(point, channels, None);
        let capacity = mcm_analyze::lint_footprint(&exp.use_case, &exp.memory);
        if capacity.has_errors() {
            let reason = capacity
                .diagnostics
                .iter()
                .map(|d| format!("{}: {}", d.id, d.message))
                .next()
                .unwrap_or_else(|| "unknown".into());
            skipped.push(format!(
                "{} x{}ch direct: statically infeasible on the 512 Mb part ({reason})",
                point_label(point),
                channels
            ));
            // The capacity ceiling is a datasheet field, not a model
            // constant: retry the cell on the 2 Gb large-capacity part,
            // which fits 2160p30 into one or two channels.
            let mut big = paper_exp(point, channels, Some(100_000));
            big.memory.controller.cluster.geometry =
                mcm_dram::Geometry::large_capacity_mobile_ddr();
            if !mcm_analyze::lint_footprint(&big.use_case, &big.memory).has_errors() {
                let name = format!(
                    "{} x{}ch direct (large-capacity)",
                    point_label(point),
                    channels
                );
                match direct_measurement_on(cfg, &big, name) {
                    Ok(m) => scenarios.push(m),
                    Err(e) => skipped.push(format!(
                        "{} x{}ch direct (large-capacity): {e}",
                        point_label(point),
                        channels
                    )),
                }
            }
            continue;
        }
        match direct_measurement(cfg, point, channels, Some(100_000)) {
            Ok(m) => scenarios.push(m),
            Err(e) => skipped.push(format!(
                "{} x{}ch direct: {e}",
                point_label(point),
                channels
            )),
        }
    }

    scenarios.push(steady_measurement(cfg, if cfg.quick { 2 } else { 4 })?);

    scenarios.push(sweep_measurement(cfg)?);
    scenarios.push(sweep_sharded_measurement(cfg)?);

    Ok(BenchReport {
        schema: "mcm-bench/v1".into(),
        mode: if cfg.quick { "quick" } else { "full" }.into(),
        warmup: cfg.warmup,
        repeats: cfg.repeats,
        headline,
        scenarios,
        skipped,
    })
}

/// Fails when either headline events/sec number regressed more than
/// `tolerance` (a fraction, e.g. 0.2) below the baseline report's.
pub fn check_regression(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for (path, cur, base) in [
        (
            "direct",
            current.headline.direct_events_per_sec,
            baseline.headline.direct_events_per_sec,
        ),
        (
            "event-driven",
            current.headline.event_driven_events_per_sec,
            baseline.headline.event_driven_events_per_sec,
        ),
    ] {
        if cur < base * (1.0 - tolerance) {
            failures.push(format!(
                "{path}: {:.2}M events/s is more than {:.0}% below the baseline {:.2}M events/s",
                cur / 1e6,
                tolerance * 100.0,
                base / 1e6
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Renders the report as the table `mcm bench` prints.
pub fn render_text(report: &BenchReport) -> String {
    let h = &report.headline;
    let mut out = format!(
        "mcm bench ({} mode, {} warmup + {} repeats)\n\n\
         headline: {}\n\
         \x20 direct        {:>8.2}M events/s  ({:.2}x vs seed {:.2}M, target {:.1}x)\n\
         \x20 event-driven  {:>8.2}M events/s  ({:.2}x vs seed {:.2}M, target {:.1}x)\n\
         \x20 calendar vs binary-heap queue: {:.2}x  |  target met: {}\n\n",
        report.mode,
        report.warmup,
        report.repeats,
        h.scenario,
        h.direct_events_per_sec / 1e6,
        h.direct_speedup_vs_seed,
        h.seed_direct_events_per_sec / 1e6,
        h.target_speedup,
        h.event_driven_events_per_sec / 1e6,
        h.event_driven_speedup_vs_seed,
        h.seed_event_driven_events_per_sec / 1e6,
        h.target_speedup,
        h.calendar_vs_binary_heap,
        if h.meets_target { "yes" } else { "NO" },
    );
    out += &format!(
        "{:<44} {:>12} {:>10} {:>10} {:>14}\n",
        "scenario", "work", "median ms", "p95 ms", "per second"
    );
    for m in &report.scenarios {
        let per_sec = if m.per_sec >= 1e6 {
            format!("{:>11.2}M", m.per_sec / 1e6)
        } else {
            format!("{:>12.0}", m.per_sec)
        };
        out += &format!(
            "{:<44} {:>12} {:>10.2} {:>10.2} {per_sec} {}\n",
            m.name, m.work, m.median_ms, m.p95_ms, m.unit
        );
    }
    for s in &report.skipped {
        out += &format!("skipped: {s}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        BenchConfig {
            quick: true,
            warmup: 0,
            repeats: 1,
        }
    }

    #[test]
    fn summarize_median_and_p95() {
        let m = summarize(
            "s",
            "direct",
            1_000,
            "dram-commands",
            vec![4.0, 1.0, 2.0, 3.0, 5.0],
        );
        assert_eq!(m.median_ms, 3.0);
        assert_eq!(m.p95_ms, 5.0);
        assert!((m.per_sec - 1_000.0 / 3.0e-3).abs() < 1e-6);
        assert_eq!(m.samples_ms.len(), 5);
    }

    #[test]
    fn direct_measurement_counts_dram_commands() {
        let m = direct_measurement(&tiny(), HdOperatingPoint::Hd720p30, 2, Some(2_000)).unwrap();
        assert!(m.work > 2_000, "a 2000-op frame issues more DRAM commands");
        assert!(m.per_sec > 0.0);
        assert_eq!(m.unit, "dram-commands");
    }

    #[test]
    fn infeasible_cell_is_an_error_not_a_panic() {
        let err =
            direct_measurement(&tiny(), HdOperatingPoint::Uhd2160p30, 1, Some(2_000)).unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn grid_skips_carry_the_static_witness() {
        // The full-grid loop skips these cells up front with the analyzer's
        // verdict, so BENCH_sim.json says *why* 2160p30 is absent at low
        // channel counts rather than echoing a simulator error.
        for channels in [1u32, 2] {
            let v = mcm_analyze::verdict(&paper_exp(HdOperatingPoint::Uhd2160p30, channels, None));
            let reason = v.reason().expect("2160p30 on 1-2 channels is infeasible");
            assert!(reason.starts_with("MCM4"), "{reason}");
        }
        // Feasible cells pass the pre-check and still get measured.
        let v = mcm_analyze::verdict(&paper_exp(HdOperatingPoint::Uhd2160p30, 8, None));
        assert!(v.feasible, "{:?}", v.reason());
    }

    #[test]
    fn queue_kinds_measure_the_same_work() {
        let cal = event_driven_measurement(
            &tiny(),
            HdOperatingPoint::Hd720p30,
            2,
            3_000,
            8,
            QueueKind::Calendar,
        )
        .unwrap();
        let heap = event_driven_measurement(
            &tiny(),
            HdOperatingPoint::Hd720p30,
            2,
            3_000,
            8,
            QueueKind::BinaryHeap,
        )
        .unwrap();
        // Parity: both queues fire the identical event count.
        assert_eq!(cal.work, heap.work);
        assert_eq!(cal.unit, "kernel-events");
    }

    #[test]
    fn regression_gate_trips_only_past_tolerance() {
        let mk = |direct: f64, ed: f64| BenchReport {
            schema: "mcm-bench/v1".into(),
            mode: "quick".into(),
            warmup: 1,
            repeats: 3,
            headline: Headline {
                scenario: HEADLINE_SCENARIO.into(),
                seed_direct_events_per_sec: SEED_DIRECT_EVENTS_PER_SEC,
                seed_event_driven_events_per_sec: SEED_EVENT_DRIVEN_EVENTS_PER_SEC,
                direct_events_per_sec: direct,
                event_driven_events_per_sec: ed,
                direct_speedup_vs_seed: 1.0,
                event_driven_speedup_vs_seed: 1.0,
                calendar_vs_binary_heap: 1.0,
                target_speedup: TARGET_SPEEDUP,
                meets_target: false,
            },
            scenarios: vec![],
            skipped: vec![],
        };
        let base = mk(100.0e6, 10.0e6);
        assert!(check_regression(&mk(85.0e6, 9.0e6), &base, 0.2).is_ok());
        assert!(check_regression(&mk(79.0e6, 10.0e6), &base, 0.2).is_err());
        assert!(check_regression(&mk(100.0e6, 7.9e6), &base, 0.2).is_err());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            schema: "mcm-bench/v1".into(),
            mode: "quick".into(),
            warmup: 1,
            repeats: 3,
            headline: Headline {
                scenario: HEADLINE_SCENARIO.into(),
                seed_direct_events_per_sec: SEED_DIRECT_EVENTS_PER_SEC,
                seed_event_driven_events_per_sec: SEED_EVENT_DRIVEN_EVENTS_PER_SEC,
                direct_events_per_sec: 52.4e6,
                event_driven_events_per_sec: 12.9e6,
                direct_speedup_vs_seed: 2.0,
                event_driven_speedup_vs_seed: 2.0,
                calendar_vs_binary_heap: 1.3,
                target_speedup: TARGET_SPEEDUP,
                meets_target: true,
            },
            scenarios: vec![summarize("s", "direct", 10, "dram-commands", vec![1.0])],
            skipped: vec!["2160p30 x1ch direct: does not fit".into()],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.headline.direct_events_per_sec, 52.4e6);
        assert_eq!(back.scenarios.len(), 1);
        assert_eq!(back.skipped.len(), 1);
        assert!(render_text(&back).contains("target met: yes"));
    }

    #[test]
    fn sweep_spec_is_500_points() {
        assert_eq!(sweep_spec_500().len(), 500);
        assert_eq!(sweep_spec_500().expand().unwrap().len(), 500);
    }
}
