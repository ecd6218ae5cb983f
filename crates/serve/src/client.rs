//! [`ServeExecutor`] — the [`Executor`] seam spoken over the wire.
//!
//! A sweep does not care where its points simulate: [`run_sweep_on`]
//! (mcm_sweep) drives any [`Executor`], and this one forwards work items
//! to one or more `mcm serve` workers over the existing HTTP/JSON
//! protocol (`POST /batch`, `GET /jobs/:id`, `DELETE /jobs/:id`). The
//! executor round-robins items across workers, retries transient
//! connection failures with backoff, and re-queues the points of a worker
//! that dies mid-job onto a surviving one — the workers' shared result
//! store dedups whatever the dead worker had already finished.
//!
//! Division of labour with the server:
//!
//! * **Checkpoint logs stay client-side.** Before anything goes on the
//!   wire, the submitting process answers resumed points from its own
//!   [`CheckpointLog`](mcm_sweep::CheckpointLog) and appends completed
//!   ones on collect; workers never see the log.
//! * **The result cache lives server-side.** Each worker executes batches
//!   with its store as the cache directory, so duplicate submissions are
//!   answered from the store without re-simulating —
//!   [`SweepOptions::cache_dir`] is ignored here and documented as such.
//! * **Provenance crosses the wire intact.** `cached` / `prelinted` /
//!   `resumed` flags, content keys, records and error strings are parsed
//!   back out of the job document, so [`run_sweep_on`] folds remote
//!   outcomes exactly like local ones.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mcm_sweep::{
    content_key, Executor, JobId, JobSnapshot, JobState, PointRecord, SweepError, SweepOptions,
    WorkItem, WorkOutcome,
};
use serde::Deserialize;

/// Per-request socket timeout, mirroring the server's.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Backoff schedule between retries of one request: a transient failure
/// gets three more chances before the worker is declared dead.
const RETRY_BACKOFF_MS: [u64; 3] = [50, 100, 200];

/// One remote batch: the slice of a job that went to one worker.
#[derive(Debug)]
struct Batch {
    /// Index into [`ServeExecutor::workers`].
    worker: usize,
    /// The worker's public job id for this batch.
    remote_job: u64,
    /// Submission-order indices of the items in this batch.
    indices: Vec<usize>,
    /// The items themselves, kept for re-queueing if the worker dies.
    items: Vec<WorkItem>,
}

/// A submitted job: remote batches plus the points answered locally from
/// the checkpoint log.
#[derive(Debug)]
struct BatchJob {
    batches: Vec<Batch>,
    local: Vec<(usize, WorkOutcome)>,
    options: SweepOptions,
    total: usize,
}

/// An [`Executor`] that runs its items on remote `mcm serve` workers.
///
/// Constructed with [`ServeExecutor::connect`] against one or more worker
/// addresses; selected from the CLI as `mcm sweep --executor
/// serve:<addr>[,<addr>...]`. Items are distributed round-robin, each
/// worker executes its batch with the full engine pipeline (prelint,
/// store lookup, panic-isolated simulation, store write-back), and
/// [`Executor::collect`] reassembles the outcomes in submission order.
///
/// Failure model: every request retries with backoff
/// (50/100/200 ms); a worker that stays unreachable is marked dead and
/// its unfinished points are resubmitted to a survivor. Only when no
/// worker is left do the affected items resolve to
/// [`SweepError::Remote`].
#[derive(Debug)]
pub struct ServeExecutor {
    workers: Vec<String>,
    /// Liveness flags, one per worker; flipped off permanently when a
    /// worker exhausts its retries.
    alive: Mutex<Vec<bool>>,
    jobs: Mutex<BTreeMap<JobId, BatchJob>>,
    next_id: AtomicU64,
}

impl ServeExecutor {
    /// Connects to `addrs` (each `host:port`), health-checking every
    /// worker up front. Fails fast — with the unreachable worker named —
    /// rather than discovering a dead address mid-sweep.
    pub fn connect(addrs: &[String]) -> Result<Self, SweepError> {
        if addrs.is_empty() {
            return Err(SweepError::Remote {
                context: "connect".to_string(),
                message: "no worker addresses given".to_string(),
            });
        }
        for addr in addrs {
            let (status, _) =
                request_with_retry(addr, "GET", "/healthz", None).map_err(|message| {
                    SweepError::Remote {
                        context: format!("health check on {addr}"),
                        message,
                    }
                })?;
            if status != 200 {
                return Err(SweepError::Remote {
                    context: format!("health check on {addr}"),
                    message: format!("worker answered HTTP {status}"),
                });
            }
        }
        Ok(ServeExecutor {
            alive: Mutex::new(vec![true; addrs.len()]),
            workers: addrs.to_vec(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
        })
    }

    /// The worker addresses this executor drives.
    pub fn workers(&self) -> &[String] {
        &self.workers
    }

    fn is_alive(&self, worker: usize) -> bool {
        self.alive.lock().expect("executor lock poisoned")[worker]
    }

    fn mark_dead(&self, worker: usize) {
        self.alive.lock().expect("executor lock poisoned")[worker] = false;
    }

    /// Submits one batch, preferring `preferred` but falling over to any
    /// other live worker; exhausting them all is a [`SweepError::Remote`].
    fn submit_batch(
        &self,
        preferred: usize,
        indices: Vec<usize>,
        items: Vec<WorkItem>,
        options: &SweepOptions,
    ) -> Result<Batch, SweepError> {
        let body = batch_body(&items, options);
        let n = self.workers.len();
        for offset in 0..n {
            let worker = (preferred + offset) % n;
            if !self.is_alive(worker) {
                continue;
            }
            let addr = &self.workers[worker];
            match request_with_retry(addr, "POST", "/batch", Some(&body)) {
                Ok((202, doc)) => {
                    let remote_job = doc.get("job").and_then(|v| v.as_u64()).ok_or_else(|| {
                        SweepError::Remote {
                            context: format!("submit to {addr}"),
                            message: "batch accepted without a job id".to_string(),
                        }
                    })?;
                    return Ok(Batch {
                        worker,
                        remote_job,
                        indices,
                        items,
                    });
                }
                // A refusal is a protocol-level error (bad items, bad
                // options) every worker would repeat: surface it.
                Ok((status, doc)) => {
                    return Err(SweepError::Remote {
                        context: format!("submit to {addr}"),
                        message: format!("HTTP {status}: {}", error_message(&doc)),
                    });
                }
                Err(_) => self.mark_dead(worker),
            }
        }
        Err(SweepError::Remote {
            context: "submit".to_string(),
            message: format!("no live worker left among {n}"),
        })
    }

    /// One remote status probe: `(status-string, done)` or the connection
    /// failure that makes the worker suspect.
    fn probe(&self, batch: &Batch) -> Result<(String, usize), String> {
        let addr = &self.workers[batch.worker];
        let path = format!("/jobs/{}", batch.remote_job);
        match request_with_retry(addr, "GET", &path, None)? {
            (200, doc) => Ok((
                doc.get("status")
                    .and_then(|v| v.as_str())
                    .unwrap_or("running")
                    .to_string(),
                doc.get("done").and_then(|v| v.as_u64()).unwrap_or(0) as usize,
            )),
            (status, doc) => Err(format!("HTTP {status}: {}", error_message(&doc))),
        }
    }

    /// Polls one batch to a terminal state and parses its outcomes; a
    /// connection failure (worker died) comes back as `Err` so the caller
    /// can re-queue the items.
    fn collect_batch(&self, batch: &Batch) -> Result<Vec<WorkOutcome>, String> {
        let addr = &self.workers[batch.worker];
        let path = format!("/jobs/{}", batch.remote_job);
        let mut wait_ms = 5u64;
        loop {
            let (status, doc) = request_with_retry(addr, "GET", &path, None)?;
            if status != 200 {
                return Err(format!("HTTP {status}: {}", error_message(&doc)));
            }
            let state = doc.get("status").and_then(|v| v.as_str()).unwrap_or("");
            if matches!(state, "done" | "cancelled" | "failed") {
                let points = doc
                    .get("result")
                    .and_then(|r| r.get("points"))
                    .and_then(|p| p.as_array())
                    .ok_or_else(|| format!("terminal job {} has no points", batch.remote_job))?;
                if points.len() != batch.items.len() {
                    return Err(format!(
                        "job {} returned {} outcomes for {} items",
                        batch.remote_job,
                        points.len(),
                        batch.items.len()
                    ));
                }
                return Ok(points.iter().map(parse_outcome).collect());
            }
            std::thread::sleep(Duration::from_millis(wait_ms));
            wait_ms = (wait_ms * 2).min(200);
        }
    }
}

impl Executor for ServeExecutor {
    fn submit(&self, items: Vec<WorkItem>, options: SweepOptions) -> Result<JobId, SweepError> {
        if options.run.frames != 1 {
            return Err(SweepError::BadOptions {
                reason: format!(
                    "sweeps are single-frame (got frames = {}); use run_steady_state for sessions",
                    options.run.frames
                ),
            });
        }
        let total = items.len();
        // The checkpoint log answers before anything goes on the wire —
        // the same "log outranks everything" rule the local executor
        // applies, moved to the submitting side.
        let mut local = Vec::new();
        let mut remote: Vec<(usize, WorkItem)> = Vec::new();
        for (i, item) in items.into_iter().enumerate() {
            let hit = options.checkpoint.as_ref().and_then(|log| {
                let point_run = match &item.faults {
                    Some(plan) => options.run.clone().with_faults(plan.clone()),
                    None => options.run.clone(),
                };
                let Ok(key) = content_key(&item.experiment, &point_run);
                Some((key, log.lookup(key)?))
            });
            match hit {
                Some((key, record)) => local.push((
                    i,
                    WorkOutcome {
                        label: item.label,
                        outcome: Ok(record),
                        cached: false,
                        prelinted: false,
                        key: Some(key),
                        resumed: true,
                        elapsed: Duration::ZERO,
                    },
                )),
                None => remote.push((i, item)),
            }
        }

        // Round-robin the remaining items across workers and submit one
        // batch per worker that got any.
        let n = self.workers.len();
        let mut buckets: Vec<(Vec<usize>, Vec<WorkItem>)> =
            (0..n).map(|_| Default::default()).collect();
        for (slot, (i, item)) in remote.into_iter().enumerate() {
            let (indices, bitems) = &mut buckets[slot % n];
            indices.push(i);
            bitems.push(item);
        }
        let mut batches = Vec::new();
        for (worker, (indices, bitems)) in buckets.into_iter().enumerate() {
            if bitems.is_empty() {
                continue;
            }
            batches.push(self.submit_batch(worker, indices, bitems, &options)?);
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.jobs.lock().expect("executor lock poisoned").insert(
            id,
            BatchJob {
                batches,
                local,
                options,
                total,
            },
        );
        Ok(id)
    }

    fn poll(&self, job: JobId) -> Option<JobSnapshot> {
        let jobs = self.jobs.lock().expect("executor lock poisoned");
        let entry = jobs.get(&job)?;
        let mut done = entry.local.len();
        let mut any_live = false;
        let mut any_cancelled = false;
        for batch in &entry.batches {
            match self.probe(batch) {
                Ok((state, batch_done)) => {
                    done += batch_done;
                    match state.as_str() {
                        "queued" | "running" => any_live = true,
                        "cancelled" => any_cancelled = true,
                        _ => {}
                    }
                }
                // Unreachable worker: presumed still running until collect
                // settles the batch one way or the other.
                Err(_) => any_live = true,
            }
        }
        let state = if any_live {
            JobState::Running
        } else if any_cancelled {
            JobState::Cancelled
        } else {
            JobState::Done
        };
        Some(JobSnapshot {
            state,
            done: done.min(entry.total),
            total: entry.total,
        })
    }

    fn cancel(&self, job: JobId) -> bool {
        let jobs = self.jobs.lock().expect("executor lock poisoned");
        let Some(entry) = jobs.get(&job) else {
            return false;
        };
        let mut landed = false;
        for batch in &entry.batches {
            let addr = &self.workers[batch.worker];
            let path = format!("/jobs/{}", batch.remote_job);
            if let Ok((200, doc)) = request_with_retry(addr, "DELETE", &path, None) {
                landed |= doc
                    .get("cancelled")
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false);
            }
        }
        landed
    }

    fn collect(&self, job: JobId) -> Result<Vec<WorkOutcome>, SweepError> {
        let entry = self
            .jobs
            .lock()
            .expect("executor lock poisoned")
            .remove(&job)
            .ok_or(SweepError::UnknownJob { job })?;
        let BatchJob {
            batches,
            local,
            options,
            total,
        } = entry;
        let mut slots: Vec<Option<WorkOutcome>> = (0..total).map(|_| None).collect();
        for (i, outcome) in local {
            slots[i] = Some(outcome);
        }
        let mut queue = batches;
        while let Some(batch) = queue.pop() {
            match self.collect_batch(&batch) {
                Ok(outcomes) => {
                    for (&i, outcome) in batch.indices.iter().zip(outcomes) {
                        slots[i] = Some(outcome);
                    }
                }
                Err(reason) => {
                    // The worker died mid-batch. Re-queue its points on a
                    // survivor — the shared store dedups whatever it had
                    // already finished — or fail them typed if none is
                    // left.
                    self.mark_dead(batch.worker);
                    let Batch {
                        worker,
                        indices,
                        items,
                        ..
                    } = batch;
                    match self.submit_batch(worker + 1, indices.clone(), items.clone(), &options) {
                        Ok(requeued) => queue.push(requeued),
                        Err(_) => {
                            let message = format!("{} died: {reason}", self.workers[worker]);
                            for (&i, item) in indices.iter().zip(&items) {
                                slots[i] = Some(WorkOutcome {
                                    label: item.label.clone(),
                                    outcome: Err(SweepError::Remote {
                                        context: item.label.clone(),
                                        message: message.clone(),
                                    }),
                                    cached: false,
                                    prelinted: false,
                                    key: None,
                                    resumed: false,
                                    elapsed: Duration::ZERO,
                                });
                            }
                        }
                    }
                }
            }
        }
        // Completed points land in the checkpoint log exactly as they
        // would locally — resumed ones are already there.
        if let Some(log) = &options.checkpoint {
            for outcome in slots.iter().flatten() {
                if let (false, Some(key), Ok(record)) =
                    (outcome.resumed, outcome.key, &outcome.outcome)
                {
                    let _ = log.record(key, &outcome.label, record);
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|o| o.expect("every submitted index resolves"))
            .collect())
    }
}

/// The `POST /batch` request body for `items` under `options`.
fn batch_body(items: &[WorkItem], options: &SweepOptions) -> serde::Value {
    let wire_items: Vec<serde::Value> = items
        .iter()
        .map(|item| {
            let mut m = serde::Map::new();
            m.insert("label".to_string(), serde::to_value(&item.label));
            m.insert("experiment".to_string(), serde::to_value(&item.experiment));
            if let Some(plan) = &item.faults {
                m.insert("faults".to_string(), serde::to_value(plan));
            }
            serde::Value::Object(m)
        })
        .collect();
    let mut body = serde::Map::new();
    body.insert("items".to_string(), serde::Value::Array(wire_items));
    body.insert("run".to_string(), serde::to_value(&options.run));
    body.insert("prelint".to_string(), serde::Value::Bool(options.prelint));
    if let Some(threads) = options.threads {
        body.insert("threads".to_string(), serde::to_value(&threads));
    }
    serde::Value::Object(body)
}

/// One wire outcome document back into a [`WorkOutcome`]. Remote failures
/// arrive as strings (the server serializes `SweepError` via `Display`),
/// so they come back typed as [`SweepError::Remote`] with the item's
/// label as context.
fn parse_outcome(doc: &serde::Value) -> WorkOutcome {
    let label = doc
        .get("label")
        .and_then(|v| v.as_str())
        .unwrap_or_default()
        .to_string();
    let flag = |name: &str| doc.get(name).and_then(|v| v.as_bool()).unwrap_or(false);
    let key = doc
        .get("key")
        .and_then(|v| v.as_str())
        .and_then(|s| u64::from_str_radix(s, 16).ok());
    let outcome = match doc.get("record") {
        Some(serde::Value::Null) | None => Err(SweepError::Remote {
            context: label.clone(),
            message: doc
                .get("error")
                .and_then(|v| v.as_str())
                .unwrap_or("worker returned neither record nor error")
                .to_string(),
        }),
        Some(record) => PointRecord::from_value(record).map_err(|e| SweepError::Remote {
            context: label.clone(),
            message: format!("unparseable record: {e}"),
        }),
    };
    let elapsed = doc
        .get("elapsed_ms")
        .and_then(|v| v.as_f64())
        .map(|ms| Duration::from_secs_f64((ms / 1e3).max(0.0)))
        .unwrap_or(Duration::ZERO);
    WorkOutcome {
        label,
        outcome,
        cached: flag("cached"),
        prelinted: flag("prelinted"),
        resumed: flag("resumed"),
        key,
        elapsed,
    }
}

/// The `"error"` field of a refusal body, or the whole body as a fallback.
fn error_message(doc: &serde::Value) -> String {
    doc.get("error")
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .unwrap_or_else(|| serde_json::to_string(doc).unwrap_or_default())
}

/// One HTTP/1.1 exchange in the server's own dialect: request line +
/// `Connection: close` + `Content-Length` body, one JSON response, EOF.
fn http_exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&serde::Value>,
) -> Result<(u16, serde::Value), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let payload = match body {
        Some(v) => serde_json::to_string(v).expect("a value tree always serializes"),
        None => String::new(),
    };
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(payload.as_bytes()))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let text = std::str::from_utf8(&raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (header, body_text) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header/body split".to_string())?;
    let status: u16 = header
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in `{header}`"))?;
    let value = if body_text.trim().is_empty() {
        serde::Value::Null
    } else {
        serde_json::from_str(body_text.trim()).map_err(|e| format!("response is not JSON: {e}"))?
    };
    Ok((status, value))
}

/// [`http_exchange`] with the retry/backoff schedule: transient
/// connection failures get [`RETRY_BACKOFF_MS`] more chances before the
/// last error is reported.
fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&serde::Value>,
) -> Result<(u16, serde::Value), String> {
    for backoff in RETRY_BACKOFF_MS {
        match http_exchange(addr, method, path, body) {
            Ok(reply) => return Ok(reply),
            Err(_) => std::thread::sleep(Duration::from_millis(backoff)),
        }
    }
    http_exchange(addr, method, path, body)
        .map_err(|e| format!("{e} (after {} retries)", RETRY_BACKOFF_MS.len()))
}
