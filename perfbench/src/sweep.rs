//! The `sweep` workload: the 500-point grid (5 formats × 1/2/4/8 ch ×
//! 5 clocks × 5 chunk policies, 2 000 operations per point) through
//! `run_sweep_on` on a 2-thread `RayonExecutor`.
//!
//! Each round is one cold pass, which simulates every point, followed by
//! three warm passes that re-run the grid against a filled `ResultCache`
//! and so only key, read and render. Short points invert the `frame`
//! profile: the idle-tail upkeep in `Controller::finish` dominates a
//! point.
//!
//! The cache is filled once per run by a checked but untimed pass that
//! writes every record into an empty cache. The timed cold pass runs
//! without a cache: creating a file costs about 0.3 ms on a shared
//! virtual disk and drifts as earlier runs' files are written back, which
//! swamped the simulation in the pass time. The write cost is timed per
//! record in the traced run (`sweep.cache_write_us`).

use std::path::Path;
use std::time::Instant;

use mcm_core::ChunkPolicy;
use mcm_load::HdOperatingPoint;
use mcm_sweep::{run_sweep_on, RayonExecutor, SweepOptions, SweepResult, SweepSpec};

use crate::report::{median, ms_since, peak_rss_mib, quantile, Clock, Report, Samples};
use crate::Ctx;

/// Simulation threads of the sweep executor.
pub const THREADS: usize = 2;
/// Warm passes per cold pass.
const WARM_PASSES: usize = 3;

/// The 500-point grid.
pub fn spec() -> SweepSpec {
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

/// The executor options of a pass: two threads, and the cache when given.
pub fn options(cache: Option<&Path>) -> SweepOptions {
    let options = SweepOptions::default().with_threads(THREADS);
    match cache {
        Some(dir) => options.with_cache_dir(dir),
        None => options,
    }
}

/// FNV-1a of the deterministic export, the pinned form of a whole pass.
pub fn fnv(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Checks one pass: no failed point, and the export pinned.
pub fn check_pass(ctx: &Ctx, r: &SweepResult, json: &str) -> Result<(), String> {
    if r.stats.failed > 0 {
        return Err(format!("sweep: {} failed points", r.stats.failed));
    }
    ctx.pins.check(&[
        ("sweep.points".into(), r.stats.total.to_string()),
        ("sweep.infeasible".into(), r.stats.infeasible.to_string()),
        ("sweep.export_fnv".into(), fnv(json)),
    ])
}

/// One timed pass.
pub fn pass(
    exec: &RayonExecutor,
    spec: &SweepSpec,
    cache: Option<&Path>,
) -> Result<(f64, SweepResult), String> {
    let t0 = Instant::now();
    let r = run_sweep_on(exec, spec, &options(cache)).map_err(|e| format!("sweep: {e}"))?;
    Ok((ms_since(t0), r))
}

/// Builds and expands the grid and runs one warm-up cold pass (checked by
/// the timed ones).
pub fn setup() -> Result<(RayonExecutor, SweepSpec), String> {
    let spec = spec();
    let exec = RayonExecutor::new(1);
    pass(&exec, &spec, None)?;
    Ok((exec, spec))
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let (exec, spec) = setup()?;
    let setup_s = ctx.setup_done();

    // Fill the cache; its export is the one every later pass must equal.
    let cache = ctx.work_dir.join("cache");
    let (fill_ms, filled) = pass(&exec, &spec, Some(&cache))?;
    let reference = filled.to_json();
    rep.op(check_pass(ctx, &filled, &reference));
    if filled.stats.simulated != filled.stats.total {
        rep.fail(format!(
            "sweep: the fill pass simulated {} of {} points",
            filled.stats.simulated, filled.stats.total
        ));
    }
    let check = |r: &SweepResult, warm: bool| -> Result<(), String> {
        let json = r.to_json();
        if json != reference {
            return Err(format!(
                "sweep: {} export differs from the fill pass",
                if warm { "warm" } else { "cold" }
            ));
        }
        if warm && r.stats.cached != r.stats.total {
            return Err(format!(
                "sweep: warm pass answered {} of {} points from the cache",
                r.stats.cached, r.stats.total
            ));
        }
        check_pass(ctx, r, &json)
    };

    let mut clock = Clock::new();
    let mut cold = Samples::default();
    let mut warm = Samples::default();
    let deadline = ctx.deadline();
    while cold.ms.is_empty() || Instant::now() < deadline {
        let r = clock.time(&mut cold, || pass(&exec, &spec, None));
        rep.op(r.and_then(|(_, r)| check(&r, false)));
        for _ in 0..WARM_PASSES {
            let r = clock.time(&mut warm, || pass(&exec, &spec, Some(&cache)));
            rep.op(r.and_then(|(_, r)| check(&r, true)));
        }
    }
    ctx.record_setup(rep, setup_s)?;
    let points = spec.len() as f64;
    rep.info(
        "sweep_points_per_s",
        "points/s",
        points * 1e3 / median(&cold.ms),
        &[],
    );
    rep.info(
        "sweep_warm_points_per_s",
        "points/s",
        points * 1e3 / median(&warm.ms),
        &[],
    );
    rep.info("cold_pass_ms", "ms", median(&cold.ms), &cold.ms);
    rep.info("cold_pass_ms_p10", "ms", quantile(&cold.ms, 0.1), &cold.ms);
    rep.info("warm_pass_ms", "ms", median(&warm.ms), &warm.ms);
    rep.info("fill_pass_ms", "ms", fill_ms, &[]);

    rep.metric(
        "peak_rss_mib",
        "MiB",
        peak_rss_mib("self").unwrap_or(0.0),
        &[],
    );
    rep.metric("op_ref", "ref", median(&cold.rel), &cold.rel);
    rep.metric("aux_ref", "ref", median(&warm.rel), &warm.rel);
    Ok(())
}
