//! The HTTP front door: route dispatch over [`JobTable`] + [`ResultStore`].
//!
//! Endpoints (all JSON, `Connection: close`):
//!
//! | method & path     | effect                                              |
//! |-------------------|-----------------------------------------------------|
//! | `GET /healthz`    | liveness + store/executor counters                  |
//! | `POST /runs`      | submit one experiment (or answer from the store)    |
//! | `POST /sweeps`    | submit a grid (partial spec merged over defaults)   |
//! | `POST /batch`     | submit raw work items (client-side expansion)       |
//! | `GET /jobs`       | list known jobs (summaries, no result bodies)       |
//! | `GET /jobs/:id`   | progress or final document of one job               |
//! | `DELETE /jobs/:id`| request cooperative cancellation                    |
//! | `POST /shutdown`  | stop accepting connections and return              |
//!
//! Statically infeasible healthy submissions are refused up front with a
//! `422` whose body carries the MCM4xx witness from `mcm-analyze`; a
//! duplicate submission whose content key is already in the store is
//! answered instantly (`200`, `"cached": true`) without touching the
//! executor.

use std::fmt;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcm_core::{Experiment, RunOptions};
use mcm_load::HdOperatingPoint;
use mcm_sweep::{content_key, SweepOptions, SweepSpec, WorkItem};
use serde::Deserialize;

use crate::http::{error_body, read_request, respond, Request};
use crate::jobs::{JobKind, JobTable};
use crate::store::ResultStore;

/// How to stand the service up.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Directory of the persistent result store (created if missing).
    pub store_dir: PathBuf,
    /// Concurrent job slots on the shared executor.
    pub max_jobs: usize,
    /// Worker threads per job (`None`: the executor's ambient pool).
    pub threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7700".to_string(),
            store_dir: PathBuf::from("mcm-store"),
            max_jobs: 2,
            threads: None,
        }
    }
}

/// Why the service could not start or keep running.
#[derive(Debug)]
pub struct ServeError(pub String);

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

/// The bound service. [`Server::run`] handles connections until a
/// `POST /shutdown` arrives.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    store: Arc<ResultStore>,
    table: JobTable,
    threads: Option<usize>,
    shutdown: AtomicBool,
}

/// Route outcome: status code and response body.
type Reply = (u16, serde::Value);

impl Server {
    /// Binds the listener, opens the store, and builds the executor-backed
    /// job table. Nothing is served until [`Server::run`].
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError(format!("cannot bind {}: {e}", config.addr)))?;
        let store = Arc::new(
            ResultStore::open(&config.store_dir)
                .map_err(|e| ServeError(format!("cannot open store: {e}")))?,
        );
        let executor = mcm_sweep::RayonExecutor::new(config.max_jobs);
        let table = JobTable::new(executor, Arc::clone(&store));
        Ok(Server {
            listener,
            store,
            table,
            threads: config.threads,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("a bound listener has an address")
    }

    /// Serves connections one at a time until shut down. Handlers never
    /// block on simulation — submissions return job ids and polling is
    /// cheap — so serial accept keeps the server trivially race-free.
    pub fn run(&self) -> Result<(), ServeError> {
        for conn in self.listener.incoming() {
            match conn {
                Ok(mut stream) => {
                    // A stalled peer must not wedge the accept loop.
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
                    self.handle_connection(&mut stream);
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                }
                Err(e) => return Err(ServeError(format!("accept failed: {e}"))),
            }
        }
        Ok(())
    }

    fn handle_connection(&self, stream: &mut TcpStream) {
        let request = match read_request(stream) {
            Ok(r) => r,
            Err(e) => {
                respond(stream, 400, &error_body(e));
                return;
            }
        };
        let (status, body) = self.route(&request);
        respond(stream, status, &body);
    }

    /// Dispatches one request to its handler.
    fn route(&self, request: &Request) -> Reply {
        let path = request.path.trim_end_matches('/');
        let path = if path.is_empty() { "/" } else { path };
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => self.healthz(),
            ("POST", "/runs") => self.post_run(request),
            ("POST", "/sweeps") => self.post_sweep(request),
            ("POST", "/batch") => self.post_batch(request),
            ("GET", "/jobs") => self.list_jobs(),
            ("POST", "/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                (200, serde_json::json!({ "status": "shutting-down" }))
            }
            (method, p) if p.starts_with("/jobs/") => {
                let Ok(id) = p["/jobs/".len()..].parse::<u64>() else {
                    return (400, error_body(format!("bad job id in `{p}`")));
                };
                match method {
                    "GET" => self.get_job(id),
                    "DELETE" => self.cancel_job(id),
                    _ => (405, error_body("jobs accept GET and DELETE")),
                }
            }
            (_, "/healthz" | "/runs" | "/sweeps" | "/batch" | "/jobs" | "/shutdown") => {
                (405, error_body(format!("method not allowed on {path}")))
            }
            _ => (404, error_body(format!("no route for {path}"))),
        }
    }

    fn healthz(&self) -> Reply {
        (
            200,
            serde_json::json!({
                "status": "ok",
                "jobs": self.table.len(),
                "store_entries": self.store.entries(),
                "store_indexed": self.store.indexed().len(),
                "simulated_points": self.table.executor().simulated()
            }),
        )
    }

    /// `POST /runs`: one experiment, given either in full (`"experiment"`)
    /// or as the paper's shorthand coordinates (`"format"`, `"channels"`,
    /// `"clock_mhz"`). Healthy submissions pass the static feasibility
    /// gate first; known content keys are answered from the store.
    fn post_run(&self, request: &Request) -> Reply {
        let (experiment, run, faults, label) = match request.json().and_then(|b| parse_run_body(&b))
        {
            Ok(parsed) => parsed,
            Err(e) => return (400, error_body(e)),
        };

        // The static gate: healthy submissions that cannot meet the frame
        // budget are refused before any queueing, with the analyzer's
        // findings as the witness. Faulted runs measure degradation of an
        // intentionally broken configuration, so they bypass the gate.
        if faults.is_none() {
            let verdict = mcm_analyze::verdict(&experiment);
            if let Some(reason) = verdict.reason() {
                return (
                    422,
                    serde_json::json!({
                        "error": reason,
                        "witness": verdict.report.to_json()
                    }),
                );
            }
        }

        // Identical experiment + options ⇒ identical content key ⇒ the
        // store answers without the executor ever seeing the submission.
        let keyed_run = match &faults {
            Some(plan) => run.clone().with_faults(plan.clone()),
            None => run.clone(),
        };
        let Ok(key) = content_key(&experiment, &keyed_run);
        if let Some(record) = self.store.get(key) {
            let id = self.table.instant_run(&label, key, &record);
            let mut doc = self
                .table
                .status(id)
                .unwrap_or_else(|| serde_json::json!({ "job": id, "status": "done" }));
            if let serde::Value::Object(m) = &mut doc {
                m.insert("cached".to_string(), serde::Value::Bool(true));
            }
            return (200, doc);
        }

        let mut item = WorkItem::new(label.clone(), experiment);
        item.faults = faults;
        let options = self.sweep_options(run, /* prelint */ false);
        match self.table.submit(JobKind::Run, &label, vec![item], options) {
            Ok(id) => (
                202,
                serde_json::json!({
                    "job": id,
                    "status": "queued",
                    "cached": false,
                    "total": 1
                }),
            ),
            Err(e) => (400, error_body(e.to_string())),
        }
    }

    /// `POST /sweeps`: a partial [`SweepSpec`] (under `"spec"`, or the
    /// whole body) merged over the paper defaults, expanded, and queued.
    /// Only the wrapped form carries job options next to `"spec"`.
    fn post_sweep(&self, request: &Request) -> Reply {
        let parsed = request.json().and_then(|body| {
            let spec = match body.get("spec") {
                Some(spec) => {
                    check_keys(&body, SWEEP_KEYS)?;
                    merge_spec(spec)?
                }
                None => merge_spec(&body)?,
            };
            let points = spec.expand().map_err(|e| e.to_string())?;
            let run = RunOptions::default().with_verify(bool_field(&body, "verify")?);
            let mut options = self.sweep_options(run, bool_field(&body, "prelint")?);
            if let Some(n) = u64_field(&body, "threads")? {
                options.threads = Some(n as usize);
            }
            Ok((points, options))
        });
        let (points, options) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => return (400, error_body(e)),
        };
        let items: Vec<WorkItem> = points
            .into_iter()
            .map(|p| {
                let mut item = WorkItem::new(p.label, p.experiment);
                item.faults = p.faults;
                item
            })
            .collect();
        let total = items.len();
        let label = format!("sweep/{total} points");
        match self.table.submit(JobKind::Sweep, &label, items, options) {
            Ok(id) => (
                202,
                serde_json::json!({ "job": id, "status": "queued", "total": total }),
            ),
            Err(e) => (400, error_body(e.to_string())),
        }
    }

    /// `POST /batch`: raw work items (label + full experiment, optional
    /// fault plan) under job-wide run options — the wire form of
    /// [`Executor`](mcm_sweep::Executor)`::submit` that
    /// [`ServeExecutor`](crate::ServeExecutor) drives. Unlike `/sweeps`
    /// the grid is expanded *client-side*, so one worker can execute shard
    /// `i/n` of a sweep it never sees whole. No static gate applies (the
    /// caller opts into pruning via `"prelint"`, exactly like a local
    /// executor), which keeps remote outcomes point-for-point identical to
    /// [`RayonExecutor`](mcm_sweep::RayonExecutor)'s.
    fn post_batch(&self, request: &Request) -> Reply {
        let body = match request.json() {
            Ok(v) => v,
            Err(e) => return (400, error_body(e)),
        };
        let Some(serde::Value::Array(raw_items)) = body.get("items") else {
            return (400, error_body("batch body needs an `items` array"));
        };
        if raw_items.is_empty() {
            return (400, error_body("batch needs at least one item"));
        }
        let mut items = Vec::with_capacity(raw_items.len());
        for (i, raw) in raw_items.iter().enumerate() {
            match parse_batch_item(raw) {
                Ok(item) => items.push(item),
                Err(e) => return (400, error_body(format!("item {i}: {e}"))),
            }
        }
        let run = match body.get("run") {
            None => RunOptions::default(),
            Some(v) => match RunOptions::from_value(v) {
                Ok(r) => r,
                Err(e) => return (400, error_body(format!("bad `run` options: {e}"))),
            },
        };
        let total = items.len();
        let label = body
            .get("label")
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .unwrap_or_else(|| format!("batch/{total} items"));
        let mut options = self.sweep_options(
            run,
            body.get("prelint")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
        );
        if let Some(n) = body.get("threads").and_then(|v| v.as_u64()) {
            options.threads = Some(n as usize);
        }
        match self.table.submit(JobKind::Batch, &label, items, options) {
            Ok(id) => (
                202,
                serde_json::json!({ "job": id, "status": "queued", "total": total }),
            ),
            Err(e) => (400, error_body(e.to_string())),
        }
    }

    fn list_jobs(&self) -> Reply {
        (200, serde_json::json!({ "jobs": self.table.list() }))
    }

    fn get_job(&self, id: u64) -> Reply {
        match self.table.status(id) {
            Some(doc) => (200, doc),
            None => (404, error_body(format!("no job {id}"))),
        }
    }

    fn cancel_job(&self, id: u64) -> Reply {
        match self.table.cancel(id) {
            Some(cancelled) => (
                200,
                serde_json::json!({ "job": id, "cancelled": cancelled }),
            ),
            None => (404, error_body(format!("no job {id}"))),
        }
    }

    /// Every job shares the store directory as its cache directory — that
    /// is what makes executor write-backs service history.
    fn sweep_options(&self, run: RunOptions, prelint: bool) -> SweepOptions {
        SweepOptions {
            threads: self.threads,
            cache_dir: Some(self.store.dir().to_path_buf()),
            run,
            progress: false,
            prelint,
            // Checkpoint logs are a client-side concern: a `ServeExecutor`
            // consults and appends its own log around remote batches.
            checkpoint: None,
        }
    }
}

/// One `POST /batch` item: `{"label", "experiment", "faults"?}` with the
/// experiment always in full (batch items come from an expanded spec, not
/// from a human, so there is no shorthand form).
fn parse_batch_item(raw: &serde::Value) -> Result<WorkItem, String> {
    let label = raw
        .get("label")
        .and_then(|v| v.as_str())
        .ok_or("missing `label`")?
        .to_string();
    let experiment = raw.get("experiment").ok_or("missing `experiment`")?;
    let experiment =
        Experiment::from_value(experiment).map_err(|e| format!("bad experiment: {e}"))?;
    // No fit validation here, unlike `/runs` and `/sweeps`: a local
    // executor would accept any well-formed plan and let the engine
    // produce its verdict, and remote outcomes must match point for
    // point — so only malformed JSON is a refusal.
    let faults = match raw.get("faults") {
        None | Some(serde::Value::Null) => None,
        Some(value) => Some(
            mcm_fault::FaultPlan::from_value(value).map_err(|e| format!("bad fault plan: {e}"))?,
        ),
    };
    let mut item = WorkItem::new(label, experiment);
    item.faults = faults;
    Ok(item)
}

/// Top-level keys of a `POST /runs` body.
const RUN_KEYS: &[&str] = &[
    "format",
    "channels",
    "clock_mhz",
    "workload",
    "experiment",
    "op_limit",
    "label",
    "run",
    "faults",
];

/// The shorthand coordinates a full `"experiment"` replaces.
const SHORTHAND_KEYS: &[&str] = &["format", "channels", "clock_mhz", "workload"];

/// Top-level keys of a `POST /sweeps` body that wraps its grid in `"spec"`.
const SWEEP_KEYS: &[&str] = &["spec", "verify", "prelint", "threads"];

/// Refuses a body that is not a JSON object, or that carries a key outside
/// `known`: a typo must be a `400`, not a silently defaulted run. An empty
/// body counts as `{}`.
fn check_keys(body: &serde::Value, known: &[&str]) -> Result<(), String> {
    let map = match body {
        serde::Value::Null => return Ok(()),
        serde::Value::Object(map) => map,
        _ => return Err("body must be a JSON object".to_string()),
    };
    match map.keys().find(|k| !known.contains(&k.as_str())) {
        Some(key) => Err(format!(
            "unknown key `{key}` (expected one of: {})",
            known.join(", ")
        )),
        None => Ok(()),
    }
}

/// `body[key]` as a non-negative integer, if present.
fn u64_field(body: &serde::Value, key: &str) -> Result<Option<u64>, String> {
    body.get(key)
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
        })
        .transpose()
}

/// `n` as the op budget under `key`: the model refuses a run of no
/// operations, so the service refuses one before it queues.
fn op_budget(n: u64, key: &str) -> Result<u64, String> {
    if n == 0 {
        return Err(format!("`{key}` must be at least one operation"));
    }
    Ok(n)
}

/// `body[key]` as a boolean; absent is `false`.
fn bool_field(body: &serde::Value, key: &str) -> Result<bool, String> {
    body.get(key).map_or(Ok(false), |v| {
        v.as_bool()
            .ok_or_else(|| format!("`{key}` must be a boolean"))
    })
}

/// `body[key]` as a string, if present.
fn str_field<'a>(body: &'a serde::Value, key: &str) -> Result<Option<&'a str>, String> {
    body.get(key)
        .map(|v| {
            v.as_str()
                .ok_or_else(|| format!("`{key}` must be a string"))
        })
        .transpose()
}

/// A checked `POST /runs` body: the experiment, its run options, the
/// optional fault plan and the job label.
fn parse_run_body(
    body: &serde::Value,
) -> Result<(Experiment, RunOptions, Option<mcm_fault::FaultPlan>, String), String> {
    check_keys(body, RUN_KEYS)?;
    let mut experiment = parse_experiment(body)?;
    if let Some(n) = u64_field(body, "op_limit")? {
        experiment.op_limit = Some(op_budget(n, "op_limit")?);
    }
    let run = parse_run_options(body)?;
    let faults = parse_faults(body, experiment.memory.channels)?;
    let label = match str_field(body, "label")? {
        Some(label) => label.to_string(),
        None => format!(
            "run/{}ch/{}MHz",
            experiment.memory.channels, experiment.memory.clock_mhz
        ),
    };
    Ok((experiment, run, faults, label))
}

/// The experiment of a `POST /runs` body: full (`"experiment"`) or the
/// shorthand grid coordinates with paper defaults.
fn parse_experiment(body: &serde::Value) -> Result<Experiment, String> {
    if let Some(value) = body.get("experiment") {
        if let Some(key) = SHORTHAND_KEYS.iter().find(|k| body.get(k).is_some()) {
            return Err(format!(
                "`{key}` cannot be combined with a full `experiment`"
            ));
        }
        // Refused here, not when the job runs: a refused body queues nothing.
        let experiment =
            Experiment::from_value(value).map_err(|e| format!("bad `experiment`: {e}"))?;
        experiment
            .validate()
            .map_err(|e| format!("`experiment`: {e}"))?;
        return Ok(experiment);
    }
    let point = match str_field(body, "format")? {
        None => HdOperatingPoint::Hd1080p30,
        Some(s) => HdOperatingPoint::parse(s).map_err(|e| e.to_string())?,
    };
    let channels = match u64_field(body, "channels")? {
        None => 4,
        Some(n) => u32::try_from(n).map_err(|_| format!("`channels` = {n} is out of range"))?,
    };
    let clock_mhz = u64_field(body, "clock_mhz")?.unwrap_or(400);
    let workload = match str_field(body, "workload")? {
        None => mcm_load::Workload::TableI,
        Some(name) => mcm_load::Workload::parse(name).map_err(|e| format!("bad workload: {e}"))?,
    };
    Experiment::builder()
        .point(point)
        .channels(channels)
        .clock_mhz(clock_mhz)
        .workload(workload)
        .build()
        .map_err(|e| format!("bad run coordinates: {e}"))
}

/// Lenient `"run"` options: every field optional, defaults apply.
fn parse_run_options(body: &serde::Value) -> Result<RunOptions, String> {
    let mut run = RunOptions::default();
    let Some(value) = body.get("run") else {
        return Ok(run);
    };
    let serde::Value::Object(map) = value else {
        return Err("`run` must be a JSON object".to_string());
    };
    for (key, v) in map.iter() {
        match key.as_str() {
            "verify" => {
                run.verify = v.as_bool().ok_or("`run.verify` must be a boolean")?;
            }
            "frames" => {
                let n = v.as_u64().ok_or("`run.frames` must be a number")?;
                run.frames =
                    u32::try_from(n).map_err(|_| format!("`run.frames` = {n} is out of range"))?;
            }
            "op_limit" => {
                let n = v.as_u64().ok_or("`run.op_limit` must be a number")?;
                run.op_limit = Some(op_budget(n, "run.op_limit")?);
            }
            other => return Err(format!("unknown run option `{other}`")),
        }
    }
    Ok(run)
}

/// The optional `"faults"` plan, validated against the channel count.
fn parse_faults(
    body: &serde::Value,
    channels: u32,
) -> Result<Option<mcm_fault::FaultPlan>, String> {
    let Some(value) = body.get("faults") else {
        return Ok(None);
    };
    if matches!(value, serde::Value::Null) {
        return Ok(None);
    }
    let plan =
        mcm_fault::FaultPlan::from_value(value).map_err(|e| format!("bad fault plan: {e}"))?;
    plan.validate(channels)
        .map_err(|e| format!("fault plan does not fit {channels} channel(s): {e}"))?;
    Ok(Some(plan))
}

/// Merges a partial spec over [`SweepSpec::default`] at the JSON level,
/// so clients name only the axes they vary. Unknown axes are an error —
/// a typo must not silently run the default grid.
fn merge_spec(user: &serde::Value) -> Result<SweepSpec, String> {
    let mut base = serde::to_value(&SweepSpec::default());
    match user {
        serde::Value::Null => {}
        serde::Value::Object(map) => {
            let serde::Value::Object(defaults) = &mut base else {
                unreachable!("a struct serializes to an object");
            };
            for (axis, value) in map.iter() {
                if !defaults.contains_key(axis) {
                    return Err(format!("unknown sweep axis `{axis}`"));
                }
                defaults.insert(axis.clone(), value.clone());
            }
        }
        _ => return Err("sweep spec must be a JSON object".to_string()),
    }
    SweepSpec::from_value(&base).map_err(|e| format!("bad sweep spec: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partial_specs_merge_over_paper_defaults() {
        let spec = merge_spec(&serde_json::json!({
            "channels": [1, 2],
            "clocks_mhz": [200]
        }))
        .unwrap();
        assert_eq!(spec.channels, vec![1, 2]);
        assert_eq!(spec.clocks_mhz, vec![200]);
        // Untouched axes keep the paper defaults.
        assert_eq!(spec.points, SweepSpec::default().points);
        assert_eq!(spec.mappings, SweepSpec::default().mappings);
    }

    #[test]
    fn unknown_axes_are_refused_not_ignored() {
        let e = merge_spec(&serde_json::json!({ "chanels": [1] })).unwrap_err();
        assert!(e.contains("unknown sweep axis `chanels`"), "{e}");
    }

    #[test]
    fn empty_spec_is_the_default_grid() {
        let spec = merge_spec(&serde::Value::Null).unwrap();
        assert_eq!(spec, SweepSpec::default());
    }

    #[test]
    fn shorthand_run_bodies_build_experiments() {
        let exp = parse_experiment(&serde_json::json!({
            "format": "720p60",
            "channels": 2,
            "clock_mhz": 266
        }))
        .unwrap();
        assert_eq!(exp.memory.channels, 2);
        assert_eq!(exp.memory.clock_mhz, 266);
        let e = parse_experiment(&serde_json::json!({ "format": "480i" })).unwrap_err();
        assert!(e.contains("unknown format"), "{e}");
    }

    #[test]
    fn shorthand_bodies_accept_a_workload_name() {
        let exp = parse_experiment(&serde_json::json!({
            "format": "720p30",
            "workload": "stochastic:42:80"
        }))
        .unwrap();
        assert_eq!(exp.workload.name(), "stochastic:42:80");
        // Omitting the key keeps the paper's Table I chain.
        let exp = parse_experiment(&serde_json::json!({ "format": "720p30" })).unwrap();
        assert!(exp.workload.is_default());
        let e = parse_experiment(&serde_json::json!({ "workload": "mpeg2" })).unwrap_err();
        assert!(e.contains("bad workload"), "{e}");
    }

    #[test]
    fn sweep_specs_accept_the_workload_axis() {
        let spec = merge_spec(&serde_json::json!({
            "workloads": ["h264-record", "hevc-record"]
        }))
        .unwrap();
        assert_eq!(spec.workloads.len(), 2);
        assert_eq!(spec.workloads[1].name(), "hevc-record");
    }

    #[test]
    fn full_experiments_round_trip_through_the_body() {
        let exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 200);
        let body = serde_json::json!({ "experiment": exp });
        let parsed = parse_experiment(&body).unwrap();
        // Experiment has no PartialEq; the content key is the identity
        // the whole service runs on, so compare that.
        assert_eq!(
            content_key(&parsed, &RunOptions::default()).unwrap(),
            content_key(&exp, &RunOptions::default()).unwrap()
        );
    }

    #[test]
    fn full_experiments_refuse_shorthand_coordinates_beside_them() {
        let exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 200);
        let e =
            parse_experiment(&serde_json::json!({ "experiment": exp, "channels": 4 })).unwrap_err();
        assert!(e.contains("`channels` cannot be combined"), "{e}");
    }

    #[test]
    fn run_options_are_lenient_but_typo_safe() {
        assert_eq!(
            parse_run_options(&serde_json::json!({})).unwrap(),
            RunOptions::default()
        );
        let run =
            parse_run_options(&serde_json::json!({ "run": { "verify": true, "op_limit": 500 } }))
                .unwrap();
        assert!(run.verify);
        assert_eq!(run.op_limit, Some(500));
        let e = parse_run_options(&serde_json::json!({ "run": { "verfy": true } })).unwrap_err();
        assert!(e.contains("unknown run option"), "{e}");
    }

    #[test]
    fn frame_counts_past_u32_are_refused_not_truncated() {
        // 2^32 + 1 would read as 1 frame if narrowed with `as`.
        let e = parse_run_options(&serde_json::json!({ "run": { "frames": 4_294_967_297u64 } }))
            .unwrap_err();
        assert!(e.contains("`run.frames`"), "{e}");
    }
}
