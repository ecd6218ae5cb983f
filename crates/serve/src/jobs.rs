//! The server's job table: public job ids over [`Executor`] handles.
//!
//! A job is either *live* (backed by an executor job and finalized on its
//! own thread as soon as the executor finishes it) or *instant* (a `POST
//! /runs` answered straight from the store — no executor involvement at
//! all, which is the dedup guarantee the integration tests pin). Finished
//! jobs are persisted through the [`ResultStore`] so their documents
//! survive a server restart; status requests only read memory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mcm_sweep::{
    Executor, JobState, RayonExecutor, SweepError, SweepOptions, SweepStats, WorkItem, WorkOutcome,
};

use crate::store::ResultStore;

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One experiment (`POST /runs`).
    Run,
    /// An expanded grid (`POST /sweeps`).
    Sweep,
    /// Raw work items expanded client-side (`POST /batch`) — the wire form
    /// a [`ServeExecutor`](crate::ServeExecutor) submits, typically one
    /// shard of a larger sweep.
    Batch,
}

impl JobKind {
    fn as_str(self) -> &'static str {
        match self {
            JobKind::Run => "run",
            JobKind::Sweep => "sweep",
            JobKind::Batch => "batch",
        }
    }
}

#[derive(Debug, Clone)]
struct Job {
    kind: JobKind,
    label: String,
    /// The executor handle; `None` for instant store-hit jobs.
    exec_job: Option<mcm_sweep::JobId>,
    total: usize,
    /// The finished status document, once finalized or instant.
    result: Option<serde::Value>,
}

/// Public job ids mapped to executor jobs, each finalized when it finishes.
#[derive(Debug)]
pub struct JobTable {
    executor: RayonExecutor,
    store: Arc<ResultStore>,
    jobs: Arc<Mutex<BTreeMap<u64, Job>>>,
    next_id: AtomicU64,
}

impl JobTable {
    /// A table issuing ids above everything persisted in `store`, driving
    /// `executor`.
    pub fn new(executor: RayonExecutor, store: Arc<ResultStore>) -> Self {
        JobTable {
            next_id: AtomicU64::new(store.last_job_id() + 1),
            executor,
            store,
            jobs: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The executor behind the table (health metrics).
    pub fn executor(&self) -> &RayonExecutor {
        &self.executor
    }

    /// Jobs known in memory.
    pub fn len(&self) -> usize {
        self.jobs.lock().expect("job table lock poisoned").len()
    }

    /// Whether no jobs are known in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn allocate(&self, job: Job) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.jobs
            .lock()
            .expect("job table lock poisoned")
            .insert(id, job);
        id
    }

    /// Registers an instant job: the store already held the record, no
    /// executor job exists, the document is final immediately.
    pub fn instant_run(&self, label: &str, key: u64, record: &mcm_sweep::PointRecord) -> u64 {
        self.store.index(key, label, JobKind::Run.as_str());
        let point = serde_json::json!({
            "label": label,
            "cached": true,
            "prelinted": false,
            "resumed": false,
            "key": format!("{key:016x}"),
            "record": record,
            "error": serde::Value::Null
        });
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let doc = serde_json::json!({
            "job": id,
            "kind": "run",
            "label": label,
            "status": "done",
            "done": 1,
            "total": 1,
            "result": point
        });
        self.store.put_job(id, &doc);
        self.jobs.lock().expect("job table lock poisoned").insert(
            id,
            Job {
                kind: JobKind::Run,
                label: label.to_string(),
                exec_job: None,
                total: 1,
                result: Some(doc),
            },
        );
        id
    }

    /// Submits a live job to the executor, registers it, and starts the
    /// thread that finalizes it once the executor finishes it.
    pub fn submit(
        &self,
        kind: JobKind,
        label: &str,
        items: Vec<WorkItem>,
        options: SweepOptions,
    ) -> Result<u64, SweepError> {
        let total = items.len();
        let exec_job = self.executor.submit(items, options)?;
        let job = Job {
            kind,
            label: label.to_string(),
            exec_job: Some(exec_job),
            total,
            result: None,
        };
        let id = self.allocate(job.clone());
        let executor = self.executor.clone();
        let store = Arc::clone(&self.store);
        let jobs = Arc::clone(&self.jobs);
        std::thread::spawn(move || {
            // Blocks until the executor finishes the job; the store writes
            // happen here, outside the table lock.
            let (outcomes, exec_state) = match executor.collect(exec_job) {
                Ok(outcomes) => {
                    let state = executor.poll(exec_job).map_or("done", |s| s.state.as_str());
                    (outcomes, state)
                }
                Err(_) => (Vec::new(), "failed"),
            };
            let doc = finalize(&store, id, &job, exec_state, &outcomes);
            if let Some(job) = jobs.lock().expect("job table lock poisoned").get_mut(&id) {
                job.result = Some(doc);
            }
        });
        Ok(id)
    }

    /// The status document for one job: live jobs report progress until
    /// their final document is persisted, finished jobs return it, and ids
    /// predating this process fall back to the store's persisted documents.
    pub fn status(&self, id: u64) -> Option<serde::Value> {
        let jobs = self.jobs.lock().expect("job table lock poisoned");
        let Some(job) = jobs.get(&id) else {
            drop(jobs);
            return self.store.get_job(id);
        };
        if let Some(doc) = &job.result {
            return Some(doc.clone());
        }
        let exec_job = job.exec_job.expect("live jobs have an executor handle");
        let snapshot = self.executor.poll(exec_job)?;
        // A job the executor has finished reads as running until its
        // finalizer has persisted the final document.
        let status = if snapshot.state == JobState::Queued {
            "queued"
        } else {
            "running"
        };
        Some(serde_json::json!({
            "job": id,
            "kind": job.kind.as_str(),
            "label": job.label,
            "status": status,
            "done": snapshot.done,
            "total": snapshot.total
        }))
    }

    /// Requests cancellation. `None` for unknown ids; `Some(false)` when
    /// the job had already finished.
    pub fn cancel(&self, id: u64) -> Option<bool> {
        let jobs = self.jobs.lock().expect("job table lock poisoned");
        let job = jobs.get(&id)?;
        match (job.result.is_some(), job.exec_job) {
            (false, Some(exec_job)) => Some(self.executor.cancel(exec_job)),
            _ => Some(false),
        }
    }

    /// One summary line per known job, oldest first (no result payloads).
    pub fn list(&self) -> Vec<serde::Value> {
        let ids: Vec<u64> = {
            let jobs = self.jobs.lock().expect("job table lock poisoned");
            jobs.keys().copied().collect()
        };
        ids.into_iter()
            .filter_map(|id| {
                let mut doc = self.status(id)?;
                // Summaries drop the (possibly large) result body.
                if let serde::Value::Object(m) = &mut doc {
                    m.remove("result");
                }
                Some(doc)
            })
            .collect()
    }
}

/// Builds and persists the final document of a collected job.
fn finalize(
    store: &ResultStore,
    id: u64,
    job: &Job,
    exec_state: &str,
    outcomes: &[WorkOutcome],
) -> serde::Value {
    for o in outcomes {
        if let (Some(key), Ok(_)) = (o.key, &o.outcome) {
            if !o.cached {
                store.index(key, &o.label, job.kind.as_str());
            }
        }
    }
    let points: Vec<serde::Value> = outcomes.iter().map(outcome_json).collect();
    let status = match job.kind {
        // A run is as good as its one outcome.
        JobKind::Run => match outcomes.first() {
            Some(o) if o.outcome.is_ok() => "done",
            Some(o) if matches!(o.outcome, Err(SweepError::Cancelled { .. })) => "cancelled",
            _ => "failed",
        },
        JobKind::Sweep | JobKind::Batch => exec_state,
    };
    let result = match job.kind {
        JobKind::Run => points.into_iter().next().unwrap_or(serde::Value::Null),
        JobKind::Sweep | JobKind::Batch => serde_json::json!({
            "points": points,
            "stats": stats_json(outcomes)
        }),
    };
    let doc = serde_json::json!({
        "job": id,
        "kind": job.kind.as_str(),
        "label": job.label,
        "status": status,
        "done": outcomes.len(),
        "total": job.total,
        "result": result
    });
    store.put_job(id, &doc);
    doc
}

/// One outcome as its wire document.
fn outcome_json(o: &WorkOutcome) -> serde::Value {
    serde_json::json!({
        "label": o.label,
        "cached": o.cached,
        "prelinted": o.prelinted,
        "resumed": o.resumed,
        "key": o.key.map(|k| format!("{k:016x}")),
        "record": o.outcome.as_ref().ok(),
        "error": o.outcome.as_ref().err().map(|e| e.to_string()),
        "elapsed_ms": o.elapsed.as_secs_f64() * 1e3
    })
}

/// A finished job's [`SweepStats`] as its wire document (the counters only;
/// per-point times are in the points).
fn stats_json(outcomes: &[WorkOutcome]) -> serde::Value {
    let stats = SweepStats::from_outcomes(outcomes, std::time::Duration::ZERO);
    serde_json::json!({
        "total": stats.total,
        "simulated": stats.simulated,
        "cached": stats.cached,
        "prelinted": stats.prelinted,
        "infeasible": stats.infeasible,
        "failed": stats.failed,
        "cancelled": stats.cancelled
    })
}
