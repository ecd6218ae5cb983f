//! The parallel, cached sweep front end.
//!
//! [`run_sweep_on`] expands a [`SweepSpec`] into [`WorkItem`]s, submits
//! them to a caller-supplied [`Executor`] (`&RayonExecutor::default()` is
//! the stock single-job choice), blocks on the result, and returns
//! outcomes **in expansion order**
//! regardless of thread count. A panicking or erroring point becomes a
//! typed per-point error, not a dead sweep. The JSON/CSV exports
//! deliberately exclude wall-clock data and provenance so a parallel
//! run's output is byte-identical to a serial run's; [`PointOutcome`]
//! carries *how* each answer was produced.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mcm_core::{PointRecord, RunOptions};
use mcm_load::HdOperatingPoint;
use serde::{Deserialize, Serialize};

use crate::checkpoint::CheckpointLog;
use crate::error::SweepError;
use crate::exec::{Executor, WorkItem, WorkOutcome};
use crate::spec::{SweepPoint, SweepSpec};

/// How a sweep executes: worker threads, caching, per-point run options,
/// live progress.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker thread count. `None` defers to rayon's default (the
    /// `RAYON_NUM_THREADS` environment variable, then the machine).
    pub threads: Option<usize>,
    /// Directory for the content-hash result cache; `None` disables
    /// caching and simulates every point.
    pub cache_dir: Option<PathBuf>,
    /// Options applied to every point's
    /// [`Experiment::run_with`](mcm_core::Experiment::run_with) call.
    /// Sweeps are single-frame: `frames` must stay `1`.
    pub run: RunOptions,
    /// Print one progress line per completed point to stderr.
    pub progress: bool,
    /// Run the `mcm-analyze` static rules (`MCM4xx`) over every healthy
    /// point *before* the thread pool and answer statically-infeasible
    /// points instantly with a synthesized infeasible record carrying the
    /// analyzer's witness as its reason. Faulted points are never prelinted
    /// (graceful degradation could rescue what the static model condemns),
    /// and prelinted points bypass the cache in both directions.
    pub prelint: bool,
    /// Crash-safe progress log. Points already in the log are answered from
    /// it without simulating (marked `resumed` in provenance, distinct from
    /// cache hits); every newly completed point is appended, so a killed
    /// sweep picks up where it died via `mcm sweep --resume`. `None` (the
    /// default) neither reads nor writes a log.
    pub checkpoint: Option<CheckpointLog>,
}

impl SweepOptions {
    /// Sets the worker thread count (builder style):
    /// `SweepOptions::default().with_threads(4)`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables the disk result cache under `dir` (builder style).
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Enables static pre-simulation pruning (builder style); see
    /// [`SweepOptions::prelint`].
    pub fn with_prelint(mut self, prelint: bool) -> Self {
        self.prelint = prelint;
        self
    }

    /// Attaches a crash-safe checkpoint log (builder style); see
    /// [`SweepOptions::checkpoint`].
    pub fn with_checkpoint(mut self, log: CheckpointLog) -> Self {
        self.checkpoint = Some(log);
        self
    }
}

/// One executed grid point: coordinates plus either its distilled record
/// or a typed per-point error.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// Human-readable coordinates (see [`SweepPoint::label`](crate::SweepPoint)).
    pub label: String,
    /// Operating point of this cell.
    pub point: HdOperatingPoint,
    /// Channel count of this cell.
    pub channels: u32,
    /// Interface clock of this cell, MHz.
    pub clock_mhz: u64,
    /// The distilled result, or why this point failed.
    pub outcome: Result<PointRecord, SweepError>,
    /// Whether the result came from the cache (no simulation ran).
    pub cached: bool,
    /// Whether the static analyzer answered this point (no simulation ran);
    /// the record's `infeasible_reason` then carries the `MCM4xx` witness.
    pub prelinted: bool,
    /// Shared content key ([`content_key`](crate::content_key)) of this
    /// point, when one was computed. Prelinted points carry `None` — they
    /// bypass the keyed store entirely. Like [`PointOutcome::elapsed`],
    /// this is run provenance: the deterministic exports exclude it.
    pub key: Option<u64>,
    /// Whether the result came from a checkpoint log — a previous run of
    /// this same sweep completed the point before dying. Distinct from
    /// [`PointOutcome::cached`]: the cache is keyed by experiment content
    /// and shared across sweeps, the checkpoint log belongs to one sweep.
    pub resumed: bool,
    /// Wall-clock time spent on this point (lookup or simulation).
    pub elapsed: Duration,
}

/// Aggregate counters and timing for one executed job: a sweep, or a
/// batch `mcm serve` ran.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Points in the sweep.
    pub total: usize,
    /// Points actually simulated this run.
    pub simulated: usize,
    /// Points answered from the cache.
    pub cached: usize,
    /// Points answered from a checkpoint log (a previous run of this sweep
    /// completed them before dying).
    pub resumed: usize,
    /// Points answered by the static analyzer without simulating.
    pub prelinted: usize,
    /// Points whose configuration cannot hold the frame buffers.
    pub infeasible: usize,
    /// Points that errored or panicked.
    pub failed: usize,
    /// Points cancelled before they could run.
    pub cancelled: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// The single slowest point's time and label.
    pub slowest: Option<(Duration, String)>,
}

impl SweepStats {
    /// Folds a job's outcomes into the counters; `wall` is the job's
    /// wall-clock time.
    pub fn from_outcomes(outcomes: &[WorkOutcome], wall: Duration) -> SweepStats {
        let mut stats = SweepStats {
            total: outcomes.len(),
            simulated: 0,
            cached: 0,
            resumed: 0,
            prelinted: 0,
            infeasible: 0,
            failed: 0,
            cancelled: 0,
            wall,
            slowest: None,
        };
        for o in outcomes {
            match &o.outcome {
                Ok(record) => {
                    if o.prelinted {
                        stats.prelinted += 1;
                    } else if o.resumed {
                        stats.resumed += 1;
                    } else if o.cached {
                        stats.cached += 1;
                    } else {
                        stats.simulated += 1;
                    }
                    if !record.feasible {
                        stats.infeasible += 1;
                    }
                }
                Err(SweepError::Cancelled { .. }) => stats.cancelled += 1,
                Err(_) => stats.failed += 1,
            }
            if stats
                .slowest
                .as_ref()
                .map(|(t, _)| o.elapsed > *t)
                .unwrap_or(true)
            {
                stats.slowest = Some((o.elapsed, o.label.clone()));
            }
        }
        stats
    }
}

impl core::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} points: {} simulated, {} cached, ",
            self.total, self.simulated, self.cached
        )?;
        // Rendered only when a checkpoint log actually answered points, so
        // logs of checkpoint-free sweeps are unchanged.
        if self.resumed > 0 {
            write!(f, "{} resumed, ", self.resumed)?;
        }
        // Rendered only when prelinting actually pruned something, so logs
        // of prelint-free sweeps are unchanged.
        if self.prelinted > 0 {
            write!(f, "{} prelinted, ", self.prelinted)?;
        }
        write!(f, "{} infeasible, {} failed", self.infeasible, self.failed)?;
        // Rendered only when a cancellation actually landed.
        if self.cancelled > 0 {
            write!(f, ", {} cancelled", self.cancelled)?;
        }
        write!(f, " in {:.2} s", self.wall.as_secs_f64())?;
        if let Some((t, label)) = &self.slowest {
            write!(f, " (slowest {:.0} ms: {label})", t.as_secs_f64() * 1e3)?;
        }
        Ok(())
    }
}

/// A completed sweep: per-point outcomes in expansion order, plus stats.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One outcome per expanded point, in [`SweepSpec::expand`] order.
    pub points: Vec<PointOutcome>,
    /// Aggregate counters and timing.
    pub stats: SweepStats,
}

/// One row of the deterministic exports. Wall-clock time and cache hits
/// are intentionally absent: a 16-thread run and a serial run of the same
/// spec serialize byte-identically. `Deserialize` exists so shard documents
/// can be merged back through the *same* renderers — the merge output is
/// byte-identical to the unsharded run's by construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ExportRow {
    pub(crate) label: String,
    pub(crate) format: String,
    pub(crate) channels: u32,
    pub(crate) clock_mhz: u64,
    pub(crate) error: Option<String>,
    pub(crate) record: Option<PointRecord>,
}

/// The one JSON renderer behind [`SweepResult::to_json`] and shard merging.
pub(crate) fn rows_to_json(rows: &[ExportRow]) -> String {
    serde_json::to_string_pretty(rows).expect("export rows are serializable")
}

/// The one CSV renderer behind [`SweepResult::to_csv`] and shard merging.
pub(crate) fn rows_to_csv(rows: &[ExportRow]) -> String {
    let mut out = String::from(
        "label,format,channels,clock_mhz,feasible,verdict,access_ms,budget_ms,core_mw,\
         interface_mw,total_mw,efficiency,energy_per_bit_pj,planned_bytes,simulated_bytes,\
         peak_gbytes_per_s,error\n",
    );
    let fmt_f64 = |v: Option<f64>| v.map(|v| format!("{v:.6}")).unwrap_or_default();
    for row in rows {
        let r = row.record.as_ref();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            row.label,
            row.format,
            row.channels,
            row.clock_mhz,
            r.map(|r| r.feasible.to_string()).unwrap_or_default(),
            r.and_then(|r| r.verdict.clone()).unwrap_or_default(),
            fmt_f64(r.and_then(|r| r.access_ms)),
            fmt_f64(r.and_then(|r| r.budget_ms)),
            fmt_f64(r.and_then(|r| r.core_mw)),
            fmt_f64(r.and_then(|r| r.interface_mw)),
            fmt_f64(r.and_then(|r| r.total_mw())),
            fmt_f64(r.and_then(|r| r.efficiency)),
            fmt_f64(r.and_then(|r| r.energy_per_bit_pj)),
            r.map(|r| r.planned_bytes.to_string()).unwrap_or_default(),
            r.map(|r| r.simulated_bytes.to_string()).unwrap_or_default(),
            fmt_f64(r.map(|r| r.peak_gbytes_per_s)),
            row.error.clone().unwrap_or_default().replace(',', ";"),
        ));
    }
    out
}

impl SweepResult {
    pub(crate) fn export_rows(&self) -> Vec<ExportRow> {
        self.points
            .iter()
            .map(|p| ExportRow {
                label: p.label.clone(),
                format: format!("{}@{}", p.point.format(), p.point.fps()),
                channels: p.channels,
                clock_mhz: p.clock_mhz,
                error: p.outcome.as_ref().err().map(|e| e.to_string()),
                record: p.outcome.as_ref().ok().cloned(),
            })
            .collect()
    }

    /// Deterministic JSON export (no timing, no cache provenance): the
    /// same spec produces byte-identical output at any thread count and
    /// any cache temperature.
    pub fn to_json(&self) -> String {
        rows_to_json(&self.export_rows())
    }

    /// Deterministic CSV export with one row per point.
    pub fn to_csv(&self) -> String {
        rows_to_csv(&self.export_rows())
    }
}

/// The sweep entry point: expands `spec` and executes every point under
/// `options` on a caller-supplied [`Executor`] — submit one job, block on
/// its outcomes, fold them back into a [`SweepResult`]. Pass
/// `&RayonExecutor::default()` for the stock synchronous single-job
/// executor (the same machinery `mcm serve` drives asynchronously).
///
/// Results come back in [`SweepSpec::expand`] order whatever the thread
/// count; per-point failures are carried in [`PointOutcome::outcome`], and
/// only sweep-level problems (empty axes, invalid options, an unusable
/// cache directory) abort the call.
pub fn run_sweep_on(
    executor: &dyn Executor,
    spec: &SweepSpec,
    options: &SweepOptions,
) -> Result<SweepResult, SweepError> {
    run_points_on(executor, spec.expand()?, options)
}

/// Executes an already-expanded point list — the shared back half of
/// [`run_sweep_on`] and the sharded entry point
/// ([`run_sweep_shard_on`](crate::run_sweep_shard_on)).
pub(crate) fn run_points_on(
    executor: &dyn Executor,
    points: Vec<SweepPoint>,
    options: &SweepOptions,
) -> Result<SweepResult, SweepError> {
    if options.run.frames != 1 {
        return Err(SweepError::BadOptions {
            reason: format!(
                "sweeps are single-frame (got frames = {}); use run_steady_state for sessions",
                options.run.frames
            ),
        });
    }
    let items: Vec<WorkItem> = points
        .iter()
        .map(|p| WorkItem {
            label: p.label.clone(),
            experiment: p.experiment.clone(),
            faults: p.faults.clone(),
        })
        .collect();
    let started = Instant::now();
    let job = executor.submit(items, options.clone())?;
    let outcomes = executor.collect(job)?;
    let stats = SweepStats::from_outcomes(&outcomes, started.elapsed());
    let points: Vec<PointOutcome> = points
        .into_iter()
        .zip(outcomes)
        .map(|(p, o)| PointOutcome {
            label: o.label,
            point: p.point,
            channels: p.channels,
            clock_mhz: p.clock_mhz,
            outcome: o.outcome,
            cached: o.cached,
            prelinted: o.prelinted,
            key: o.key,
            resumed: o.resumed,
            elapsed: o.elapsed,
        })
        .collect();
    Ok(SweepResult { points, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::RayonExecutor;
    use mcm_core::{BatchRunner, Experiment, SerialRunner};

    fn quick_spec() -> SweepSpec {
        SweepSpec {
            points: vec![HdOperatingPoint::Hd720p30],
            channels: vec![1, 2, 4],
            op_limit: Some(2_000),
            ..SweepSpec::default()
        }
    }

    #[test]
    fn sweep_results_keep_expansion_order() {
        let result = run_sweep_on(
            &RayonExecutor::default(),
            &quick_spec(),
            &SweepOptions::default().with_threads(3),
        )
        .unwrap();
        assert_eq!(
            result.points.iter().map(|p| p.channels).collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        assert_eq!(result.stats.simulated, 3);
        assert_eq!(result.stats.cached, 0);
        assert_eq!(result.stats.failed, 0);
        assert!(result.stats.slowest.is_some());
    }

    #[test]
    fn one_fold_counts_every_outcome_kind() {
        let outcome = |label: &str, outcome, ms| WorkOutcome {
            label: label.into(),
            outcome,
            cached: false,
            prelinted: false,
            key: None,
            resumed: false,
            elapsed: Duration::from_millis(ms),
        };
        let mut outcomes = vec![
            outcome("simulated", Ok(PointRecord::infeasible("x".into())), 3),
            outcome("cached", Ok(PointRecord::infeasible("x".into())), 1),
            outcome(
                "failed",
                Err(SweepError::Point {
                    label: "failed".into(),
                    source: mcm_core::CoreError::BadParam { reason: "x".into() },
                }),
                1,
            ),
            outcome(
                "cancelled",
                Err(SweepError::Cancelled {
                    label: "cancelled".into(),
                }),
                0,
            ),
        ];
        outcomes[1].cached = true;
        let stats = SweepStats::from_outcomes(&outcomes, Duration::ZERO);
        assert_eq!(
            (stats.total, stats.simulated, stats.cached, stats.infeasible),
            (4, 1, 1, 2)
        );
        assert_eq!((stats.failed, stats.cancelled), (1, 1));
        assert_eq!(stats.slowest.as_ref().unwrap().1, "simulated");
        assert!(
            stats
                .to_string()
                .contains("2 infeasible, 1 failed, 1 cancelled in"),
            "{stats}"
        );
        // Without a cancellation the line reads as it always did.
        outcomes.pop();
        let stats = SweepStats::from_outcomes(&outcomes, Duration::ZERO);
        assert!(!stats.to_string().contains("cancelled"), "{stats}");
    }

    #[test]
    fn steady_options_are_rejected() {
        let mut options = SweepOptions::default();
        options.run.frames = 5;
        assert!(matches!(
            run_sweep_on(&RayonExecutor::default(), &quick_spec(), &options),
            Err(SweepError::BadOptions { .. })
        ));
    }

    #[test]
    fn infeasible_points_are_counted_not_fatal() {
        let spec = SweepSpec {
            points: vec![HdOperatingPoint::Uhd2160p30],
            channels: vec![1, 8],
            op_limit: Some(2_000),
            ..SweepSpec::default()
        };
        let result =
            run_sweep_on(&RayonExecutor::default(), &spec, &SweepOptions::default()).unwrap();
        assert_eq!(result.stats.infeasible, 1);
        assert_eq!(result.stats.failed, 0);
        assert!(!result.points[0].outcome.as_ref().unwrap().feasible);
        assert!(result.points[1].outcome.as_ref().unwrap().feasible);
    }

    #[test]
    fn executor_batches_match_serial_runner() {
        // The paper cells plus one that cannot hold its frame buffers: the
        // executor's job path and the serial runner distill every one of
        // them, infeasible folds included, into the same record.
        let mut exps: Vec<Experiment> = quick_spec()
            .expand()
            .unwrap()
            .into_iter()
            .map(|p| p.experiment)
            .collect();
        exps.push(Experiment::paper(HdOperatingPoint::Uhd2160p30, 1, 400));
        let serial = SerialRunner.run_batch(&exps);
        let executor = RayonExecutor::default();
        let batched = executor.run_batch(&exps);
        assert_eq!(serial, batched);
        assert_eq!(executor.simulated(), exps.len(), "one job ran every item");
        assert!(!batched.last().unwrap().as_ref().unwrap().feasible);
    }

    #[test]
    fn fault_points_run_degraded_and_cache_separately() {
        let dir = std::env::temp_dir().join(format!("mcm-sweep-fault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = SweepOptions::default().with_cache_dir(dir.clone());
        // Multi-channel cells only: losing a channel of one is a plan error.
        let base = SweepSpec {
            channels: vec![2, 4],
            ..quick_spec()
        };
        // Warm the cache with a healthy-only sweep.
        let healthy = run_sweep_on(&RayonExecutor::default(), &base, &options).unwrap();
        assert_eq!(healthy.stats.simulated, 2);
        // The same grid with a fault axis: healthy cells hit the warm cache
        // (their fingerprints are unchanged), faulted cells simulate fresh.
        let spec = SweepSpec {
            faults: vec![None, Some(mcm_fault::FaultPlan::channel_loss(5, 0))],
            ..base
        };
        let mixed = run_sweep_on(&RayonExecutor::default(), &spec, &options).unwrap();
        assert_eq!(mixed.stats.total, 4);
        assert_eq!(mixed.stats.cached, 2, "healthy fingerprints must be stable");
        assert_eq!(mixed.stats.simulated, 2);
        assert_eq!(mixed.stats.failed, 0);
        for pair in mixed.points.chunks(2) {
            let h = pair[0].outcome.as_ref().unwrap();
            let f = pair[1].outcome.as_ref().unwrap();
            assert!(pair[0].cached && !pair[1].cached);
            // Losing one of N channels can only slow the frame down.
            assert!(
                f.access_ms.unwrap() >= h.access_ms.unwrap(),
                "{}",
                pair[1].label
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prelint_prunes_the_infeasible_region_and_is_faster() {
        // 2160p30 across 1–8 channels at 400 MHz: one channel cannot hold
        // the frame buffers (MCM406) and 2/4 channels sit above the
        // bandwidth roofline (MCM405) — 75 % of the grid is statically
        // infeasible. Serial execution makes the pruning win deterministic.
        let spec = SweepSpec {
            points: vec![HdOperatingPoint::Uhd2160p30],
            channels: vec![1, 2, 4, 8],
            op_limit: Some(20_000),
            ..SweepSpec::default()
        };
        let base = SweepOptions::default().with_threads(1);
        let without = run_sweep_on(&RayonExecutor::default(), &spec, &base.clone()).unwrap();
        let with = run_sweep_on(
            &RayonExecutor::default(),
            &spec,
            &base.clone().with_prelint(true),
        )
        .unwrap();

        assert_eq!(without.stats.prelinted, 0);
        assert_eq!(without.stats.simulated, 4);
        assert_eq!(with.stats.prelinted, 3);
        assert_eq!(with.stats.simulated, 1);
        for p in &with.points[..3] {
            assert!(p.prelinted, "{}", p.label);
            let r = p.outcome.as_ref().unwrap();
            assert!(!r.feasible);
            let reason = r.infeasible_reason.as_deref().unwrap();
            assert!(reason.starts_with("MCM4"), "{reason}");
        }
        assert!(with.points[3].outcome.as_ref().unwrap().feasible);

        // Soundness: everything the analyzer pruned also failed when it was
        // actually simulated — layout overflow or a missed frame deadline.
        for (w, wo) in with.points.iter().zip(&without.points) {
            if w.prelinted {
                let dynamic = wo.outcome.as_ref().unwrap();
                assert!(
                    !dynamic.feasible || dynamic.verdict.as_deref() == Some("FAILS"),
                    "{}: prelint flagged a point the simulator accepted",
                    wo.label
                );
            }
        }

        // The acceptance bar: pruning ≥ 30 % of the grid must make
        // the sweep measurably faster than simulating everything. One wall
        // time per side is at the mercy of whatever else runs on the host,
        // so each side is the fastest of five runs, alternating which side
        // goes first.
        let wall = |prelint: bool| {
            let options = base.clone().with_prelint(prelint);
            run_sweep_on(&RayonExecutor::default(), &spec, &options)
                .unwrap()
                .stats
                .wall
        };
        let (mut fastest_with, mut fastest_without) = (with.stats.wall, without.stats.wall);
        for round in 0..4 {
            let (w, wo) = if round % 2 == 0 {
                let w = wall(true);
                (w, wall(false))
            } else {
                let wo = wall(false);
                (wall(true), wo)
            };
            fastest_with = fastest_with.min(w);
            fastest_without = fastest_without.min(wo);
        }
        assert!(
            fastest_with < fastest_without,
            "prelinted sweep ({fastest_with:?}) not faster than full sweep ({fastest_without:?})"
        );

        // The stats line mentions pruning only when it happened.
        assert!(!without.stats.to_string().contains("prelinted"));
        assert!(with.stats.to_string().contains("3 prelinted"));
    }

    #[test]
    fn prelint_leaves_faulted_points_to_the_simulator() {
        // 2160p30 on 4 channels is above the roofline, but the faulted cell
        // must still simulate: degradation policies may shed load and
        // rescue it, so the static verdict only binds healthy cells.
        let spec = SweepSpec {
            points: vec![HdOperatingPoint::Uhd2160p30],
            channels: vec![4],
            faults: vec![None, Some(mcm_fault::FaultPlan::channel_loss(5, 0))],
            op_limit: Some(2_000),
            ..SweepSpec::default()
        };
        let result = run_sweep_on(
            &RayonExecutor::default(),
            &spec,
            &SweepOptions::default().with_prelint(true),
        )
        .unwrap();
        assert_eq!(result.stats.total, 2);
        assert_eq!(result.stats.prelinted, 1);
        assert_eq!(result.stats.simulated, 1);
        assert!(result.points[0].prelinted, "healthy cell is pruned");
        assert!(!result.points[1].prelinted, "faulted cell must simulate");
    }

    #[test]
    fn export_rows_write_the_same_text_streamed_and_as_a_tree() {
        let mut rows = run_sweep_on(
            &RayonExecutor::default(),
            &quick_spec(),
            &SweepOptions::default(),
        )
        .unwrap()
        .export_rows();
        rows.push(ExportRow {
            label: "a \"failed\" cell".to_string(),
            format: "1280x720@30".to_string(),
            channels: 3,
            clock_mhz: 0,
            error: Some("bad experiment parameter:\n\tno".to_string()),
            record: None,
        });
        let tree = serde_json::to_value(&rows).unwrap();
        assert_eq!(
            rows_to_json(&rows),
            serde_json::to_string_pretty(&tree).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&rows).unwrap(),
            serde_json::to_string(&tree).unwrap()
        );
    }

    #[test]
    fn exports_have_one_row_per_point() {
        let result = run_sweep_on(
            &RayonExecutor::default(),
            &quick_spec(),
            &SweepOptions::default(),
        )
        .unwrap();
        let json = result.to_json();
        assert_eq!(json.matches("\"label\"").count(), 3);
        let csv = result.to_csv();
        assert_eq!(csv.lines().count(), 4); // header + 3 points
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .contains("1280x720@30/1ch/400MHz"));
    }
}
