//! Resume semantics of the checkpoint log (ISSUE 10 satellite), in
//! process: a sweep that dies after completing part of the grid must, on
//! resume, re-simulate *only* the missing points, account for them as
//! `resumed` (distinct from cache hits), and export byte-identically to a
//! run that was never interrupted. The child-process SIGKILL flavour lives
//! in `crates/cli/tests/kill_resume.rs`; this one pins the engine-level
//! contract the CLI builds on.

use std::path::PathBuf;

use mcm_load::HdOperatingPoint;
use mcm_sweep::{run_sweep_on, CheckpointLog, RayonExecutor, SweepOptions, SweepSpec};

fn spec() -> SweepSpec {
    SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p30],
        channels: vec![1, 2, 4],
        op_limit: Some(2_000),
        ..SweepSpec::default()
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mcm-resume-test-{name}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn resumed_sweep_simulates_only_the_missing_points_and_exports_identically() {
    let exec = RayonExecutor::default();

    // The reference: one uninterrupted, checkpoint-free run.
    let reference = run_sweep_on(&exec, &spec(), &SweepOptions::default()).unwrap();
    assert_eq!(reference.stats.simulated, 6);

    // "First run": completes only a 2-channel sub-grid of the same sweep,
    // writing the full sweep's checkpoint log — exactly the state a killed
    // process leaves behind (some points logged, the rest absent).
    let path = tmp_path("partial");
    let log = CheckpointLog::attach(&path, &spec(), false).unwrap();
    let partial = SweepSpec {
        channels: vec![2],
        ..spec()
    };
    let first = run_sweep_on(
        &exec,
        &partial,
        &SweepOptions::default().with_checkpoint(log),
    )
    .unwrap();
    assert_eq!(first.stats.simulated, 2);
    assert_eq!(first.stats.resumed, 0);

    // Resume the full sweep from the log (the `--resume` contract:
    // the log must exist).
    let log = CheckpointLog::attach(&path, &spec(), true).unwrap();
    assert_eq!(log.len(), 2, "the partial run checkpointed its points");
    let resumed = run_sweep_on(
        &exec,
        &spec(),
        &SweepOptions::default().with_checkpoint(log.clone()),
    )
    .unwrap();

    // Only the missing points simulate; the finished ones come back as
    // `resumed`, and the books balance.
    assert_eq!(resumed.stats.total, 6);
    assert_eq!(resumed.stats.resumed, 2);
    assert_eq!(resumed.stats.simulated, 4);
    assert_eq!(
        resumed.stats.resumed + resumed.stats.simulated,
        resumed.stats.total
    );
    for p in &resumed.points {
        assert_eq!(p.resumed, p.channels == 2, "{}", p.label);
        assert!(
            !p.cached,
            "checkpoint hits must not masquerade as cache hits"
        );
    }

    // Byte-identity with the uninterrupted run, both exports.
    assert_eq!(resumed.to_json(), reference.to_json());
    assert_eq!(resumed.to_csv(), reference.to_csv());

    // The stats line narrates the resume — and only then.
    assert!(resumed.stats.to_string().contains("2 resumed"));
    assert!(!reference.stats.to_string().contains("resumed"));

    // After the resumed run the log holds the whole grid: a further resume
    // simulates nothing at all and still exports identically.
    assert_eq!(log.len(), 6);
    let third = run_sweep_on(
        &exec,
        &spec(),
        &SweepOptions::default().with_checkpoint(log),
    )
    .unwrap();
    assert_eq!(third.stats.resumed, 6);
    assert_eq!(third.stats.simulated, 0);
    assert_eq!(third.to_json(), reference.to_json());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_and_cache_provenance_stay_distinct() {
    let exec = RayonExecutor::default();
    let cache_dir = std::env::temp_dir().join(format!("mcm-resume-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let path = tmp_path("vs-cache");

    // Warm the shared cache without any checkpoint.
    let options = SweepOptions::default().with_cache_dir(cache_dir.clone());
    let cold = run_sweep_on(&exec, &spec(), &options).unwrap();
    assert_eq!(cold.stats.simulated, 6);

    // Fresh log + warm cache: everything is a cache hit (the log is empty,
    // so it answers nothing), and the completed points still get logged.
    let log = CheckpointLog::attach(&path, &spec(), false).unwrap();
    let warm = run_sweep_on(
        &exec,
        &spec(),
        &options.clone().with_checkpoint(log.clone()),
    )
    .unwrap();
    assert_eq!(warm.stats.cached, 6);
    assert_eq!(warm.stats.resumed, 0);
    assert_eq!(log.len(), 6, "cache hits are checkpointed too");

    // Same sweep again: now the log outranks the cache.
    let again = run_sweep_on(&exec, &spec(), &options.with_checkpoint(log)).unwrap();
    assert_eq!(again.stats.resumed, 6);
    assert_eq!(again.stats.cached, 0);
    assert_eq!(again.to_json(), cold.to_json());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
