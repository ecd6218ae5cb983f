//! The shared scheduling path behind sweeps, figure batches and `mcm serve`.
//!
//! [`Executor`] is the asynchronous job API every consumer drives:
//! [`run_sweep_on`](crate::run_sweep_on) submits one job and blocks on
//! [`Executor::collect`]; the figure builders hand [`RayonExecutor`] their
//! grids as a [`BatchRunner`], which submits each batch as one job and
//! collects it the same way; the server keeps many jobs in flight, polls
//! their progress, and cancels them on client request. [`RayonExecutor`]
//! is the one implementation: a bounded number of concurrent jobs, each
//! executed on the rayon pool with the engine's full per-point pipeline
//! (static prelint, content-key cache lookup, panic-isolated simulation,
//! cache write-back).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mcm_core::runner::run_isolated;
use mcm_core::{BatchRunner, CoreError, Experiment, PointRecord};
use rayon::prelude::*;

use crate::cache::ResultCache;
use crate::engine::SweepOptions;
use crate::error::SweepError;
use crate::key::content_key;

/// Handle to a submitted job, unique per executor.
pub type JobId = u64;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for a free job slot.
    Queued,
    /// Executing on the pool.
    Running,
    /// Every item finished; the result is ready to collect.
    Done,
    /// Cancelled; items that had not started carry
    /// [`SweepError::Cancelled`], finished items keep their results.
    Cancelled,
}

impl JobState {
    /// Whether the job has stopped executing (result available).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled)
    }

    /// Lower-case wire name (`queued` / `running` / `done` / `cancelled`).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// A progress snapshot of one job, cheap to poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Lifecycle state.
    pub state: JobState,
    /// Items finished so far (any way: simulated, cached, prelinted,
    /// cancelled).
    pub done: usize,
    /// Items in the job.
    pub total: usize,
}

/// One unit of work: a fully built experiment plus the fault plan (if any)
/// that joins the job-wide [`RunOptions`](mcm_core::RunOptions) before
/// keying and simulation.
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Human-readable coordinates, carried through to the outcome.
    pub label: String,
    /// The experiment to run.
    pub experiment: Experiment,
    /// Fault plan for this item; degraded and healthy items never share a
    /// content key.
    pub faults: Option<mcm_fault::FaultPlan>,
}

impl WorkItem {
    /// An item without faults.
    pub fn new(label: impl Into<String>, experiment: Experiment) -> Self {
        WorkItem {
            label: label.into(),
            experiment,
            faults: None,
        }
    }
}

/// The result of one [`WorkItem`], with full provenance: how the answer
/// was produced (simulated / cache hit / static prelint), under which
/// content key and how long it took.
#[derive(Debug, Clone)]
pub struct WorkOutcome {
    /// The item's label.
    pub label: String,
    /// The distilled result, or why this item failed.
    pub outcome: Result<PointRecord, SweepError>,
    /// Whether the result came from the cache (no simulation ran).
    pub cached: bool,
    /// Whether the static analyzer answered this item (no simulation ran).
    pub prelinted: bool,
    /// Shared content key ([`content_key`]) of this item. Prelinted items
    /// carry `None` — they bypass the keyed store entirely.
    pub key: Option<u64>,
    /// Whether the result came from the job's checkpoint log (a previous
    /// run of the same sweep completed this item before dying). Distinct
    /// from [`WorkOutcome::cached`]: the log belongs to one sweep, the
    /// cache is shared across sweeps.
    pub resumed: bool,
    /// Wall-clock time spent on this item (lookup or simulation).
    pub elapsed: Duration,
}

/// The scheduling API shared by `run_sweep_on`, the figure harness and
/// `mcm serve`: submit a batch, poll its progress, cancel it, collect the
/// outcomes.
///
/// Implementations execute items with the full engine pipeline — static
/// prelint, content-key cache lookup, panic-isolated simulation, cache
/// write-back — under the submitted [`SweepOptions`].
pub trait Executor: Send + Sync {
    /// Queues a batch for execution and returns its handle. Fails fast on
    /// invalid options (multi-frame runs) or an unusable cache directory;
    /// per-item failures are carried in the collected outcomes instead.
    fn submit(&self, items: Vec<WorkItem>, options: SweepOptions) -> Result<JobId, SweepError>;

    /// A progress snapshot, or `None` for an unknown job.
    fn poll(&self, job: JobId) -> Option<JobSnapshot>;

    /// Requests cooperative cancellation. Returns whether the request
    /// landed (the job exists and had not already finished). Items not yet
    /// started resolve to [`SweepError::Cancelled`]; in-flight items run to
    /// completion.
    fn cancel(&self, job: JobId) -> bool;

    /// Blocks until the job finishes and takes its outcomes (one per
    /// submitted item, in submission order). A second collect of the same
    /// job — or a bad id — is [`SweepError::UnknownJob`].
    fn collect(&self, job: JobId) -> Result<Vec<WorkOutcome>, SweepError>;
}

struct JobEntry {
    state: JobState,
    done: Arc<AtomicUsize>,
    total: usize,
    cancel: Arc<AtomicBool>,
    result: Option<Vec<WorkOutcome>>,
}

struct Shared {
    jobs: Mutex<BTreeMap<JobId, JobEntry>>,
    /// Signalled whenever any job changes state or finishes.
    changed: Condvar,
    /// Free job slots (bounded concurrency over the rayon pool).
    slots: Mutex<usize>,
    slot_freed: Condvar,
    /// Items actually simulated (not cached, not prelinted) over this
    /// executor's lifetime.
    simulated: AtomicUsize,
    next_id: AtomicU64,
}

/// The rayon-backed [`Executor`]: at most `max_jobs` jobs execute
/// concurrently (excess submissions queue in FIFO-by-slot-wakeup order),
/// and each job runs its items on the rayon pool configured by its own
/// [`SweepOptions::threads`].
///
/// ```
/// use mcm_load::HdOperatingPoint;
/// use mcm_sweep::{Executor, RayonExecutor, SweepOptions, WorkItem};
///
/// let exec = RayonExecutor::new(1);
/// let exp = mcm_core::Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
/// let item = WorkItem::new("720p30/4ch", exp);
/// let job = exec.submit(vec![item], SweepOptions::default()).unwrap();
/// let outcomes = exec.collect(job).unwrap();
/// assert!(outcomes[0].outcome.as_ref().unwrap().feasible);
/// ```
#[derive(Clone)]
pub struct RayonExecutor {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for RayonExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let jobs = self.shared.jobs.lock().expect("executor lock poisoned");
        f.debug_struct("RayonExecutor")
            .field("jobs", &jobs.len())
            .field("simulated", &self.simulated())
            .finish()
    }
}

impl Default for RayonExecutor {
    /// A single-job executor — the stock argument to
    /// [`run_sweep_on`](crate::run_sweep_on), and what the figure
    /// harness uses.
    fn default() -> Self {
        RayonExecutor::new(1)
    }
}

impl RayonExecutor {
    /// An executor running at most `max_jobs` jobs at once (`0` is treated
    /// as `1`).
    pub fn new(max_jobs: usize) -> Self {
        RayonExecutor {
            shared: Arc::new(Shared {
                jobs: Mutex::new(BTreeMap::new()),
                changed: Condvar::new(),
                slots: Mutex::new(max_jobs.max(1)),
                slot_freed: Condvar::new(),
                simulated: AtomicUsize::new(0),
                next_id: AtomicU64::new(1),
            }),
        }
    }

    /// Items actually simulated (not cached, not prelinted) since this
    /// executor was created. The dedup guarantee is pinned against this
    /// counter: resubmitting stored work must not move it.
    pub fn simulated(&self) -> usize {
        self.shared.simulated.load(Ordering::Relaxed)
    }

    /// Blocks until a slot frees up, or returns early (without a slot)
    /// when `cancel` is raised; returns whether a slot was actually taken.
    fn acquire_slot(&self, cancel: &AtomicBool) -> bool {
        let mut slots = self.shared.slots.lock().expect("executor lock poisoned");
        loop {
            if cancel.load(Ordering::Relaxed) {
                return false;
            }
            if *slots > 0 {
                *slots -= 1;
                return true;
            }
            let (guard, _) = self
                .shared
                .slot_freed
                .wait_timeout(slots, Duration::from_millis(50))
                .expect("executor lock poisoned");
            slots = guard;
        }
    }

    fn release_slot(&self) {
        let mut slots = self.shared.slots.lock().expect("executor lock poisoned");
        *slots += 1;
        self.shared.slot_freed.notify_one();
    }

    fn set_state(&self, job: JobId, state: JobState) {
        let mut jobs = self.shared.jobs.lock().expect("executor lock poisoned");
        if let Some(entry) = jobs.get_mut(&job) {
            entry.state = state;
        }
        self.shared.changed.notify_all();
    }

    fn finish(&self, job: JobId, outcomes: Vec<WorkOutcome>, cancelled: bool) {
        let mut jobs = self.shared.jobs.lock().expect("executor lock poisoned");
        if let Some(entry) = jobs.get_mut(&job) {
            entry.state = if cancelled {
                JobState::Cancelled
            } else {
                JobState::Done
            };
            entry.result = Some(outcomes);
        }
        self.shared.changed.notify_all();
    }

    /// The worker body for one job: wait for a slot, run every item,
    /// publish the result.
    fn run_job(
        &self,
        job: JobId,
        items: Vec<WorkItem>,
        options: SweepOptions,
        cache: Option<ResultCache>,
    ) {
        let (done, cancel) = {
            let jobs = self.shared.jobs.lock().expect("executor lock poisoned");
            let entry = jobs.get(&job).expect("job entry outlives its worker");
            (entry.done.clone(), entry.cancel.clone())
        };
        if !self.acquire_slot(&cancel) {
            // Cancelled while queued: no slot was consumed, no item ran.
            let outcomes = items
                .into_iter()
                .map(|item| cancelled_outcome(item.label))
                .collect();
            self.finish(job, outcomes, true);
            return;
        }
        self.set_state(job, JobState::Running);

        // Static pruning happens before the pool: each healthy item is
        // paired with its MCM4xx refusal (if any). Faulted items always
        // keep `None` — graceful degradation can rescue an item the static
        // model condemns, so soundness only holds for healthy cells.
        let work: Vec<(WorkItem, Option<String>)> = items
            .into_iter()
            .map(|item| {
                let refusal = (options.prelint && item.faults.is_none())
                    .then(|| mcm_analyze::verdict(&item.experiment).reason())
                    .flatten();
                (item, refusal)
            })
            .collect();
        let total = work.len();

        let execute = |(item, refusal): &(WorkItem, Option<String>)| -> WorkOutcome {
            if cancel.load(Ordering::Relaxed) {
                done.fetch_add(1, Ordering::Relaxed);
                return cancelled_outcome(item.label.clone());
            }
            let outcome = match refusal {
                // The analyzer already proved this item cannot work: answer
                // it instantly, bypassing both the simulator and the cache.
                Some(reason) => {
                    let started = Instant::now();
                    WorkOutcome {
                        label: item.label.clone(),
                        outcome: Ok(PointRecord::infeasible(reason.clone())),
                        cached: false,
                        prelinted: true,
                        key: None,
                        resumed: false,
                        elapsed: started.elapsed(),
                    }
                }
                None => execute_item(item, &options, cache.as_ref(), &self.shared.simulated),
            };
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            if options.progress {
                let status = match &outcome.outcome {
                    Ok(r) if outcome.prelinted => format!(
                        "infeasible (static: {})",
                        r.infeasible_reason.as_deref().unwrap_or_default()
                    ),
                    Ok(_) if outcome.resumed => "resumed".to_string(),
                    Ok(_) if outcome.cached => "cached".to_string(),
                    Ok(r) if !r.feasible => "infeasible".to_string(),
                    Ok(r) => r.verdict.clone().unwrap_or_default(),
                    Err(SweepError::Cancelled { .. }) => "cancelled".to_string(),
                    Err(e) => format!("failed: {e}"),
                };
                eprintln!(
                    "[{k}/{total}] {} — {status} ({:.0} ms)",
                    item.label,
                    outcome.elapsed.as_secs_f64() * 1e3
                );
            }
            outcome
        };

        let outcomes: Vec<WorkOutcome> =
            on_pool(options.threads, || work.par_iter().map(&execute).collect());
        let was_cancelled = cancel.load(Ordering::Relaxed);
        self.release_slot();
        self.finish(job, outcomes, was_cancelled);
    }
}

impl Executor for RayonExecutor {
    fn submit(&self, items: Vec<WorkItem>, options: SweepOptions) -> Result<JobId, SweepError> {
        if options.run.frames != 1 {
            return Err(SweepError::BadOptions {
                reason: format!(
                    "sweeps are single-frame (got frames = {}); use run_steady_state for sessions",
                    options.run.frames
                ),
            });
        }
        let cache = match &options.cache_dir {
            Some(dir) => Some(ResultCache::new(dir.clone())?),
            None => None,
        };
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut jobs = self.shared.jobs.lock().expect("executor lock poisoned");
            jobs.insert(
                id,
                JobEntry {
                    state: JobState::Queued,
                    done: Arc::new(AtomicUsize::new(0)),
                    total: items.len(),
                    cancel: Arc::new(AtomicBool::new(false)),
                    result: None,
                },
            );
        }
        let this = self.clone();
        std::thread::spawn(move || this.run_job(id, items, options, cache));
        Ok(id)
    }

    fn poll(&self, job: JobId) -> Option<JobSnapshot> {
        let jobs = self.shared.jobs.lock().expect("executor lock poisoned");
        jobs.get(&job).map(|entry| JobSnapshot {
            state: entry.state,
            done: entry.done.load(Ordering::Relaxed).min(entry.total),
            total: entry.total,
        })
    }

    fn cancel(&self, job: JobId) -> bool {
        let jobs = self.shared.jobs.lock().expect("executor lock poisoned");
        match jobs.get(&job) {
            Some(entry) if !entry.state.is_terminal() => {
                entry.cancel.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    fn collect(&self, job: JobId) -> Result<Vec<WorkOutcome>, SweepError> {
        let mut jobs = self.shared.jobs.lock().expect("executor lock poisoned");
        loop {
            match jobs.get_mut(&job) {
                None => return Err(SweepError::UnknownJob { job }),
                Some(entry) => {
                    if let Some(result) = entry.result.take() {
                        return Ok(result);
                    }
                    if entry.state.is_terminal() {
                        // Terminal with no result left: already collected.
                        return Err(SweepError::UnknownJob { job });
                    }
                }
            }
            jobs = self
                .shared
                .changed
                .wait(jobs)
                .expect("executor lock poisoned");
        }
    }
}

/// A figure batch is one job: submitted with default options (no cache, no
/// prelint) and collected, each item's sweep error unwrapped back to the
/// experiment's own [`CoreError`].
impl BatchRunner for RayonExecutor {
    fn run_batch(&self, experiments: &[Experiment]) -> Vec<Result<PointRecord, CoreError>> {
        let items = experiments
            .iter()
            .enumerate()
            .map(|(i, exp)| WorkItem::new(format!("batch item {i}"), exp.clone()))
            .collect();
        let outcomes = self
            .submit(items, SweepOptions::default())
            .and_then(|job| self.collect(job));
        match outcomes {
            Ok(outcomes) => outcomes
                .into_iter()
                .map(|o| o.outcome.map_err(core_error))
                .collect(),
            Err(e) => vec![Err(core_error(e)); experiments.len()],
        }
    }
}

/// The experiment's own error inside a per-point failure; any other sweep
/// error (which default batch options never raise) as a typed message.
fn core_error(e: SweepError) -> CoreError {
    match e {
        SweepError::Point { source, .. } => source,
        other => CoreError::BadParam {
            reason: other.to_string(),
        },
    }
}

/// Runs `op` on the pool `threads` selects: a dedicated pool for an
/// explicit count, rayon's ambient default otherwise.
fn on_pool<R>(threads: Option<usize>, op: impl FnOnce() -> R) -> R {
    match threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("thread pool construction cannot fail")
            .install(op),
        None => op(),
    }
}

fn cancelled_outcome(label: String) -> WorkOutcome {
    WorkOutcome {
        outcome: Err(SweepError::Cancelled {
            label: label.clone(),
        }),
        label,
        cached: false,
        prelinted: false,
        key: None,
        resumed: false,
        elapsed: Duration::ZERO,
    }
}

/// The per-item pipeline: key, checkpoint lookup, cache lookup, simulate on
/// miss, write back (cache and checkpoint).
fn execute_item(
    item: &WorkItem,
    options: &SweepOptions,
    cache: Option<&ResultCache>,
    simulated: &AtomicUsize,
) -> WorkOutcome {
    let started = Instant::now();
    // The item's fault plan joins the run options before keying so degraded
    // and healthy cells never share a cache entry. Items without a plan
    // keep the job-wide options (and therefore pre-fault keys) untouched.
    let point_run = match &item.faults {
        Some(plan) => options.run.clone().with_faults(plan.clone()),
        None => options.run.clone(),
    };
    let Ok(key) = content_key(&item.experiment, &point_run);
    // The checkpoint log outranks the cache: a hit there proves *this
    // sweep* already completed the point before dying.
    let mut hit = options.checkpoint.as_ref().and_then(|log| log.lookup(key));
    let resumed = hit.is_some();
    if !resumed {
        hit = cache.and_then(|cache| cache.load(key));
    }
    let cached = !resumed && hit.is_some();
    let outcome = match hit {
        Some(record) => Ok(record),
        None => {
            simulated.fetch_add(1, Ordering::Relaxed);
            run_isolated(&item.experiment, &point_run).map_err(|source| SweepError::Point {
                label: item.label.clone(),
                source,
            })
        }
    };
    if !cached && !resumed {
        if let (Some(cache), Ok(record)) = (cache, &outcome) {
            // Cache write failures degrade to uncached operation.
            let _ = cache.store(key, record);
        }
    }
    if !resumed {
        if let (Some(log), Ok(record)) = (&options.checkpoint, &outcome) {
            // Checkpoint write failures degrade to restart-from-scratch;
            // they never fail the point.
            let _ = log.record(key, &item.label, record);
        }
    }
    WorkOutcome {
        label: item.label.clone(),
        outcome,
        cached,
        prelinted: false,
        key: Some(key),
        resumed,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    fn items(channels: &[u32], op_limit: u64) -> Vec<WorkItem> {
        channels
            .iter()
            .map(|&ch| {
                let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, ch, 400);
                exp.op_limit = Some(op_limit);
                WorkItem::new(format!("720p30/{ch}ch"), exp)
            })
            .collect()
    }

    #[test]
    fn submit_poll_collect_lifecycle() {
        let exec = RayonExecutor::new(1);
        let job = exec
            .submit(items(&[1, 2, 4], 2_000), SweepOptions::default())
            .unwrap();
        let outcomes = exec.collect(job).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.outcome.is_ok() && !o.cached));
        assert_eq!(exec.simulated(), 3);
        // Terminal snapshot survives collection; the result does not.
        let snap = exec.poll(job).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert_eq!((snap.done, snap.total), (3, 3));
        assert!(matches!(
            exec.collect(job),
            Err(SweepError::UnknownJob { .. })
        ));
        assert!(exec.poll(999).is_none());
    }

    #[test]
    fn duplicate_submissions_hit_the_cache_not_the_simulator() {
        let dir = std::env::temp_dir().join(format!("mcm-exec-dedup-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exec = RayonExecutor::new(2);
        let options = SweepOptions::default().with_cache_dir(dir.clone());
        let first = exec.submit(items(&[2], 2_000), options.clone()).unwrap();
        let fresh = exec.collect(first).unwrap();
        assert_eq!(exec.simulated(), 1);
        // Same content, second job: answered from the keyed store, the
        // simulation counter must not move.
        let second = exec.submit(items(&[2], 2_000), options).unwrap();
        let stored = exec.collect(second).unwrap();
        assert_eq!(exec.simulated(), 1, "duplicate work must not re-simulate");
        assert!(stored[0].cached && !fresh[0].cached);
        assert_eq!(stored[0].key, fresh[0].key);
        // The shared content key is the cache entry's file name.
        let key = fresh[0].key.expect("healthy items are keyed");
        assert!(dir.join(format!("{key:016x}.json")).exists());
        assert_eq!(
            stored[0].outcome.as_ref().unwrap(),
            fresh[0].outcome.as_ref().unwrap()
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cancellation_is_cooperative_and_typed() {
        let exec = RayonExecutor::new(1);
        // A long serial job: many items, one thread, no op limit shortcut.
        let job = exec
            .submit(
                items(&[1, 2, 4, 8, 1, 2, 4, 8], 50_000),
                SweepOptions::default().with_threads(1),
            )
            .unwrap();
        assert!(exec.cancel(job), "live jobs accept cancellation");
        let outcomes = exec.collect(job).unwrap();
        assert_eq!(outcomes.len(), 8, "every item resolves, run or not");
        assert!(
            outcomes
                .iter()
                .any(|o| matches!(o.outcome, Err(SweepError::Cancelled { .. }))),
            "at least the tail of the job is cancelled"
        );
        assert_eq!(exec.poll(job).unwrap().state, JobState::Cancelled);
        assert!(!exec.cancel(job), "finished jobs refuse cancellation");
    }

    #[test]
    fn queued_jobs_wait_for_a_slot_and_can_be_cancelled_there() {
        let exec = RayonExecutor::new(1);
        let slow = exec
            .submit(
                items(&[1, 2, 4, 8], 50_000),
                SweepOptions::default().with_threads(1),
            )
            .unwrap();
        let queued = exec
            .submit(items(&[2], 2_000), SweepOptions::default())
            .unwrap();
        // Cancel the queued job before it ever gets a slot: it resolves
        // all-cancelled without simulating anything.
        assert!(exec.cancel(queued));
        let outcomes = exec.collect(queued).unwrap();
        assert!(outcomes
            .iter()
            .all(|o| matches!(o.outcome, Err(SweepError::Cancelled { .. }))));
        // The running job is unaffected.
        let slow_outcomes = exec.collect(slow).unwrap();
        assert!(slow_outcomes.iter().all(|o| o.outcome.is_ok()));
    }

    #[test]
    fn multi_frame_options_are_rejected_at_submit() {
        let exec = RayonExecutor::new(1);
        let mut options = SweepOptions::default();
        options.run.frames = 3;
        assert!(matches!(
            exec.submit(items(&[1], 2_000), options),
            Err(SweepError::BadOptions { .. })
        ));
    }
}
