//! Sweep determinism and cache behavior.
//!
//! The contract under test: a sweep's exported JSON/CSV depends only on
//! the spec and run options — not on the worker thread count and not on
//! whether results came from the cache. CI runs this suite under
//! `RAYON_NUM_THREADS=2` as well to exercise the env-driven default pool.

use std::path::PathBuf;

use mcm_load::HdOperatingPoint;
use mcm_sweep::{run_sweep_on, RayonExecutor, SweepOptions, SweepSpec};

fn quick_grid() -> SweepSpec {
    SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p30],
        channels: vec![1, 2, 4, 8],
        op_limit: Some(3_000),
        ..SweepSpec::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcm-sweep-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn parallel_json_is_byte_identical_to_serial() {
    let spec = quick_grid();
    let serial = run_sweep_on(
        &RayonExecutor::default(),
        &spec,
        &SweepOptions::default().with_threads(1),
    )
    .unwrap();
    let parallel = run_sweep_on(
        &RayonExecutor::default(),
        &spec,
        &SweepOptions::default().with_threads(4),
    )
    .unwrap();
    assert_eq!(serial.points.len(), 8);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "JSON export must not depend on the thread count"
    );
    assert_eq!(
        serial.to_csv(),
        parallel.to_csv(),
        "CSV export must not depend on the thread count"
    );
    // And the default (env-driven) pool agrees too, whatever its width.
    let env_default =
        run_sweep_on(&RayonExecutor::default(), &spec, &SweepOptions::default()).unwrap();
    assert_eq!(serial.to_json(), env_default.to_json());
}

#[test]
fn stochastic_workloads_export_identically_at_any_thread_count() {
    // The Markov-modulated generator must be a pure function of
    // (seed, frame): whichever worker thread simulates a stochastic
    // point, the export is the same bytes.
    use mcm_load::Workload;
    let spec = SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30],
        channels: vec![1, 2],
        workloads: vec![
            Workload::parse("stochastic:42").unwrap(),
            Workload::parse("stochastic:42:75").unwrap(),
        ],
        op_limit: Some(3_000),
        ..SweepSpec::default()
    };
    let serial = run_sweep_on(
        &RayonExecutor::default(),
        &spec,
        &SweepOptions::default().with_threads(1),
    )
    .unwrap();
    let parallel = run_sweep_on(
        &RayonExecutor::default(),
        &spec,
        &SweepOptions::default().with_threads(4),
    )
    .unwrap();
    assert_eq!(serial.points.len(), 4);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "stochastic sweeps must not depend on the thread count"
    );
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn warm_cache_rerun_simulates_nothing_and_exports_identically() {
    let spec = quick_grid();
    let dir = tmp_dir("warm");
    let options = SweepOptions {
        threads: Some(2),
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };

    let cold = run_sweep_on(&RayonExecutor::default(), &spec, &options).unwrap();
    assert_eq!(
        cold.stats.simulated, 8,
        "cold cache must simulate all points"
    );
    assert_eq!(cold.stats.cached, 0);

    let warm = run_sweep_on(&RayonExecutor::default(), &spec, &options).unwrap();
    assert_eq!(warm.stats.simulated, 0, "warm cache must simulate nothing");
    assert_eq!(warm.stats.cached, 8);
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "cache provenance must not leak into the export"
    );
    assert_eq!(cold.to_csv(), warm.to_csv());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_invalidates_on_config_change_only() {
    let dir = tmp_dir("invalidate");
    let base = SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30],
        channels: vec![1, 2],
        op_limit: Some(3_000),
        ..SweepSpec::default()
    };
    let options = SweepOptions {
        cache_dir: Some(dir.clone()),
        ..SweepOptions::default()
    };

    let first = run_sweep_on(&RayonExecutor::default(), &base, &options).unwrap();
    assert_eq!(first.stats.simulated, 2);

    // Growing an axis only simulates the new points.
    let grown = SweepSpec {
        channels: vec![1, 2, 4],
        ..base.clone()
    };
    let second = run_sweep_on(&RayonExecutor::default(), &grown, &options).unwrap();
    assert_eq!(second.stats.cached, 2, "unchanged points must hit");
    assert_eq!(second.stats.simulated, 1, "only the new point simulates");

    // Changing the run content (op limit) misses everything.
    let changed = SweepSpec {
        op_limit: Some(4_000),
        ..base.clone()
    };
    let third = run_sweep_on(&RayonExecutor::default(), &changed, &options).unwrap();
    assert_eq!(third.stats.cached, 0, "changed configs must not hit");
    assert_eq!(third.stats.simulated, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn isolated_failures_do_not_kill_the_sweep() {
    // 2160p30 in 1 or 2 channels is infeasible (buffers do not fit); the
    // sweep must carry those as infeasible records next to real results.
    let spec = SweepSpec {
        points: vec![HdOperatingPoint::Uhd2160p30],
        channels: vec![1, 2, 4, 8],
        op_limit: Some(3_000),
        ..SweepSpec::default()
    };
    let result = run_sweep_on(
        &RayonExecutor::default(),
        &spec,
        &SweepOptions::default().with_threads(4),
    )
    .unwrap();
    assert_eq!(result.stats.failed, 0);
    assert_eq!(result.stats.infeasible, 2);
    let feasible: Vec<bool> = result
        .points
        .iter()
        .map(|p| p.outcome.as_ref().unwrap().feasible)
        .collect();
    assert_eq!(feasible, vec![false, false, true, true]);
}

#[test]
fn caller_supplied_executor_exports_byte_identically() {
    // The stock single-job executor is the reference; the service hands
    // in its own long-lived executor. Whichever executor carries the jobs
    // — and however many may run concurrently — the export is the same
    // bytes.
    let spec = quick_grid();
    let reference = run_sweep_on(
        &RayonExecutor::default(),
        &spec,
        &SweepOptions::default().with_threads(2),
    )
    .unwrap();

    let executor = RayonExecutor::new(4);
    let via_executor =
        run_sweep_on(&executor, &spec, &SweepOptions::default().with_threads(2)).unwrap();
    assert_eq!(
        reference.to_json(),
        via_executor.to_json(),
        "export must not depend on which executor carried the sweep"
    );
    assert_eq!(reference.to_csv(), via_executor.to_csv());
    assert_eq!(
        executor.simulated(),
        spec.expand().unwrap().len(),
        "the caller's executor did the simulating"
    );

    // A second sweep on the same executor reuses it cleanly.
    let again = run_sweep_on(&executor, &spec, &SweepOptions::default().with_threads(2)).unwrap();
    assert_eq!(reference.to_json(), again.to_json());
}
