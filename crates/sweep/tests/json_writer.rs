//! The JSON writer's bytes, pinned against text recorded from the tree-based
//! writer it replaced: cache records, a sweep export and shard documents
//! (an empty shard's `"rows": []` included). Also checks that every type
//! that reaches a key, a cache record, an export, a shard document, a
//! checkpoint log or a server document writes the same text streamed as
//! through its `Value` tree, compact and pretty.

use std::path::PathBuf;

use mcm_core::{Experiment, RunOptions};
use mcm_fault::FaultPlan;
use mcm_load::{HdOperatingPoint, Workload};
use mcm_sweep::{
    content_key, run_sweep_on, run_sweep_shard_on, spec_hash, PointRecord, RayonExecutor,
    ResultCache, SweepOptions, SweepSpec,
};
use serde::Serialize;

/// The 720p30 × 1/2 ch @ 400 MHz grid at 2 000 operations a point.
fn small_spec() -> SweepSpec {
    SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30],
        channels: vec![1, 2],
        op_limit: Some(2_000),
        ..SweepSpec::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcm-sweep-json-writer-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A feasible op-limited record: 720p30 × 2 ch @ 400 MHz, 2 000 operations.
const FEASIBLE_RECORD: &str = r#"{
  "feasible": true,
  "infeasible_reason": null,
  "access_ms": 10.021029922,
  "budget_ms": 33.333333333,
  "verdict": "meets",
  "core_mw": 1112.568087436374,
  "interface_mw": 8.2944,
  "efficiency": 0.9596928983204368,
  "energy_per_bit_pj": 75.87810548800977,
  "latency_p99_ns": 65536.0,
  "planned_bytes": 61549512,
  "simulated_bytes": 256000,
  "peak_gbytes_per_s": 6.4
}"#;

/// An infeasible record: 2160p30 × 2 ch @ 400 MHz does not fit.
const INFEASIBLE_RECORD: &str = r#"{
  "feasible": false,
  "infeasible_reason": "frame buffers need 165 MiB, capacity is 128 MiB",
  "access_ms": null,
  "budget_ms": null,
  "verdict": null,
  "core_mw": null,
  "interface_mw": null,
  "efficiency": null,
  "energy_per_bit_pj": null,
  "latency_p99_ns": null,
  "planned_bytes": 0,
  "simulated_bytes": 0,
  "peak_gbytes_per_s": 0.0
}"#;

/// `mcm sweep --formats 720p30 --channels 1,2 --op-limit 2000 --json`.
const SMALL_EXPORT: &str = r#"[
  {
    "label": "1280x720@30/1ch/400MHz",
    "format": "1280x720@30",
    "channels": 1,
    "clock_mhz": 400,
    "error": null,
    "record": {
      "feasible": true,
      "infeasible_reason": null,
      "access_ms": 20.042059845,
      "budget_ms": 33.333333333,
      "verdict": "meets",
      "core_mw": 1112.568087436374,
      "interface_mw": 4.1472,
      "efficiency": 0.9596928982725527,
      "energy_per_bit_pj": 75.5973559022157,
      "latency_p99_ns": 65536.0,
      "planned_bytes": 61549512,
      "simulated_bytes": 128000,
      "peak_gbytes_per_s": 3.2
    }
  },
  {
    "label": "1280x720@30/2ch/400MHz",
    "format": "1280x720@30",
    "channels": 2,
    "clock_mhz": 400,
    "error": null,
    "record": {
      "feasible": true,
      "infeasible_reason": null,
      "access_ms": 10.021029922,
      "budget_ms": 33.333333333,
      "verdict": "meets",
      "core_mw": 1112.568087436374,
      "interface_mw": 8.2944,
      "efficiency": 0.9596928983204368,
      "energy_per_bit_pj": 75.87810548800977,
      "latency_p99_ns": 65536.0,
      "planned_bytes": 61549512,
      "simulated_bytes": 256000,
      "peak_gbytes_per_s": 6.4
    }
  }
]"#;

/// The same grid's `--shard 0/3`, which holds the first point.
const SHARD_0_OF_3: &str = r#"{
  "shard": {
    "index": 0,
    "of": 3,
    "total": 2,
    "spec_hash": "8a4b333515549757",
    "key_schema": 1
  },
  "rows": [
    {
      "label": "1280x720@30/1ch/400MHz",
      "format": "1280x720@30",
      "channels": 1,
      "clock_mhz": 400,
      "error": null,
      "record": {
        "feasible": true,
        "infeasible_reason": null,
        "access_ms": 20.042059845,
        "budget_ms": 33.333333333,
        "verdict": "meets",
        "core_mw": 1112.568087436374,
        "interface_mw": 4.1472,
        "efficiency": 0.9596928982725527,
        "energy_per_bit_pj": 75.5973559022157,
        "latency_p99_ns": 65536.0,
        "planned_bytes": 61549512,
        "simulated_bytes": 128000,
        "peak_gbytes_per_s": 3.2
      }
    }
  ]
}"#;

/// The same grid's `--shard 2/3`, which holds no point.
const SHARD_2_OF_3: &str = r#"{
  "shard": {
    "index": 2,
    "of": 3,
    "total": 2,
    "spec_hash": "8a4b333515549757",
    "key_schema": 1
  },
  "rows": []
}"#;

#[test]
fn cache_records_match_the_recorded_text() {
    let cache = ResultCache::new(tmp_dir("records")).unwrap();
    let mut feasible = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
    feasible.op_limit = Some(2_000);
    let infeasible = Experiment::paper(HdOperatingPoint::Uhd2160p30, 2, 400);
    let run = RunOptions::default();
    for (exp, key, text) in [
        (&feasible, 0xd220_df50_982d_ff82u64, FEASIBLE_RECORD),
        (&infeasible, 0x8de9_676b_6e03_783d, INFEASIBLE_RECORD),
    ] {
        assert_eq!(content_key(exp, &run).unwrap(), key);
        let record = PointRecord::from_result(
            exp.run_with(&run)
                .map(|o| o.into_frame().expect("single-frame outcome")),
        )
        .unwrap();
        cache.store(key, &record).unwrap();
        let path = cache.dir().join(format!("{key:016x}.json"));
        assert_eq!(std::fs::read_to_string(path).unwrap(), text);
        assert_eq!(cache.load(key), Some(record));
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn a_sweep_export_and_its_shards_match_the_recorded_text() {
    let spec = small_spec();
    assert_eq!(spec_hash(&spec), 0x8a4b_3335_1554_9757);
    let exec = RayonExecutor::new(1);
    let options = SweepOptions::default().with_threads(1);
    assert_eq!(
        run_sweep_on(&exec, &spec, &options).unwrap().to_json(),
        SMALL_EXPORT
    );
    for (index, text) in [(0, SHARD_0_OF_3), (2, SHARD_2_OF_3)] {
        let shard = run_sweep_shard_on(&exec, &spec, index, 3, &options).unwrap();
        assert_eq!(shard.to_json(), text);
    }
}

/// Streamed and tree-built text agree, compact and pretty.
fn assert_sinks_agree<T: Serialize>(x: &T) {
    let tree = serde_json::to_value(x).unwrap();
    assert_eq!(
        serde_json::to_string(x).unwrap(),
        serde_json::to_string(&tree).unwrap()
    );
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
}

#[test]
fn streamed_and_tree_text_agree_for_every_written_type() {
    let mut experiments = vec![
        Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400),
        Experiment::paper(HdOperatingPoint::Uhd2160p30, 8, 533),
    ];
    let mut tenant = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 266);
    tenant.workload = Workload::MultiTenant(4);
    tenant.op_limit = Some(7);
    experiments.push(tenant);
    let plan = FaultPlan::seeded(7, 4).unwrap();
    let runs = [
        RunOptions::default(),
        RunOptions::verified(),
        RunOptions::steady(4),
        RunOptions::default().with_op_limit(2_000),
        RunOptions::default().with_faults(FaultPlan::channel_loss(5, 0)),
        RunOptions::default().with_faults(plan.clone()),
    ];
    for exp in &experiments {
        assert_sinks_agree(exp);
        for run in &runs {
            assert_sinks_agree(run);
            assert_sinks_agree(&(exp, run));
        }
    }
    assert_sinks_agree(&plan);
    assert_sinks_agree(&Workload::Stochastic(mcm_load::StochasticParams {
        seed: 9,
        burstiness_pct: 85,
    }));
    let mut faulted = SweepSpec::paper_grid();
    faulted.workloads.push(Workload::MultiTenant(2));
    faulted.faults.push(Some(plan));
    for spec in [SweepSpec::default(), SweepSpec::paper_grid(), faulted] {
        assert_sinks_agree(&spec);
    }
    let records = [
        serde_json::from_str::<PointRecord>(FEASIBLE_RECORD).unwrap(),
        serde_json::from_str::<PointRecord>(INFEASIBLE_RECORD).unwrap(),
        PointRecord::infeasible("needs \"quotes\", a \\ and a \u{1} control".to_string()),
    ];
    for record in &records {
        assert_sinks_agree(record);
    }
    // Whole documents: the export and shard texts read back into a tree
    // write themselves again.
    for text in [SMALL_EXPORT, SHARD_0_OF_3, SHARD_2_OF_3] {
        let tree: serde::Value = serde_json::from_str(text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&tree).unwrap(), text);
    }
}
