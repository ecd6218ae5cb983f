//! # mcm-sweep — the parallel design-space sweep engine
//!
//! The paper's evaluation is a grid: operating points × channel counts ×
//! clocks (Fig. 3–5), plus this repo's ablation axes (mapping, page
//! policy, power-down, transaction sizing, pacing). Every consumer used to
//! hand-roll its own nested loops; this crate gives them one engine:
//!
//! * [`SweepSpec`] — a declarative cartesian grid that expands through the
//!   validating [`ExperimentBuilder`](mcm_core::ExperimentBuilder);
//! * [`Executor`] / [`RayonExecutor`] — the shared scheduling path
//!   (submit / poll / cancel / collect) behind every consumer: bounded
//!   concurrent jobs over the rayon pool, per-item panic/error isolation
//!   ([`SweepError`]), static prelint, content-key caching, and one fold
//!   of a job's outcomes into [`SweepStats`];
//! * [`run_sweep_on`] — the single entry point: one job submitted to a
//!   caller-supplied executor, collected, and folded back into
//!   **expansion-order** results with live progress and per-point timing
//!   — the same machinery `mcm serve` drives asynchronously;
//! * [`run_sweep_shard_on`] / [`merge_shards`] — distributed sweeps:
//!   [`SweepSpec::shard`] splits the grid deterministically, each shard
//!   runs anywhere, and the merge is byte-identical to the unsharded run;
//! * [`CheckpointLog`] — crash-safe resume: completed points land in an
//!   atomically rewritten JSONL log, and a killed sweep re-simulates only
//!   what is missing;
//! * [`ResultCache`] — a content-hash disk cache of [`PointRecord`]s (the
//!   one distilled result, defined in `mcm-core`) keyed by
//!   [`content_key`]: re-running a sweep only simulates the points whose
//!   configuration changed, and the server store shares the keyspace;
//! * [`RayonExecutor`] is also `mcm-core`'s
//!   [`BatchRunner`](mcm_core::BatchRunner): the figure builders hand it
//!   each grid, and it runs that batch as one job.
//!
//! ```
//! use mcm_load::HdOperatingPoint;
//! use mcm_sweep::{run_sweep_on, RayonExecutor, SweepOptions, SweepSpec};
//!
//! let spec = SweepSpec {
//!     points: vec![HdOperatingPoint::Hd720p30],
//!     channels: vec![1, 2, 4],
//!     op_limit: Some(2_000), // truncated run for the doctest
//!     ..SweepSpec::default()
//! };
//! let exec = RayonExecutor::default();
//! let result = run_sweep_on(&exec, &spec, &SweepOptions::default().with_threads(2)).unwrap();
//! assert_eq!(result.points.len(), 3);
//! // More channels, faster frame: results arrive in expansion order.
//! let access = |i: usize| result.points[i].outcome.as_ref().unwrap().access_ms.unwrap();
//! assert!(access(2) < access(0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod checkpoint;
mod engine;
mod error;
mod exec;
mod key;
mod shard;
mod spec;

pub use cache::ResultCache;
pub use checkpoint::CheckpointLog;
pub use engine::{run_sweep_on, PointOutcome, SweepOptions, SweepResult, SweepStats};
pub use error::SweepError;
pub use exec::{Executor, JobId, JobSnapshot, JobState, RayonExecutor, WorkItem, WorkOutcome};
pub use key::{content_key, spec_hash, KEY_SCHEMA_VERSION};
pub use mcm_core::PointRecord;
pub use shard::{merge_shards, run_sweep_shard_on, MergedSweep, ShardSweep};
pub use spec::{SweepPoint, SweepSpec};
