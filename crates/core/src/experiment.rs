//! One simulated experiment: a video-recording use case running against a
//! multi-channel memory configuration for one frame, evaluated the way the
//! paper's Section IV evaluates it — per-frame memory access time against
//! the real-time budget (with the 15 % data-processing margin), and average
//! power over the frame period with the equation (1) interface power added.

use core::fmt;

use serde::{Deserialize, Serialize};

use mcm_channel::{MemoryConfig, MemorySubsystem, SubsystemReport};
use mcm_fault::{DegradeSummary, FaultPlan, StageShed, SHED_PRIORITY};
use mcm_load::{HdOperatingPoint, LoadModel, Region, Stage, Traffic, UseCase, Workload};
use mcm_power::{InterfacePowerModel, PowerSummary};
use mcm_sim::SimTime;
use mcm_verify::{
    audit_trace, check_degradation, check_tenant_attribution, check_traffic_balance, lint_all,
    Report, TraceAuditOptions,
};

use crate::error::CoreError;
use crate::feed::transaction;

/// How a configuration fares against the frame's real-time budget.
///
/// The paper suppresses Fig. 5 bars that "cannot meet the real time
/// requirements with a 15 % margin for the data processing" and flags
/// configurations that only just meet it as MARGINAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RealTimeVerdict {
    /// Access time fits within the budget minus the margin.
    Meets,
    /// Access time fits the budget but not the margin (the paper's
    /// "MARGINAL" annotation).
    Marginal,
    /// Access time exceeds the frame budget outright.
    Fails,
}

impl RealTimeVerdict {
    /// Whether the configuration is usable at all (meets or marginal).
    pub fn is_real_time(self) -> bool {
        !matches!(self, RealTimeVerdict::Fails)
    }

    /// The verdict as the reports print it (`meets` / `MARGINAL` / `FAILS`).
    pub fn as_str(self) -> &'static str {
        match self {
            RealTimeVerdict::Meets => "meets",
            RealTimeVerdict::Marginal => "MARGINAL",
            RealTimeVerdict::Fails => "FAILS",
        }
    }
}

impl fmt::Display for RealTimeVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How large the master transactions the SMP side emits are.
///
/// The paper's load is "very regular and foreseeable … relatively large data
/// amounts resulting in several memory accesses to sequential memory
/// locations", interleaved so that "all the channels can be used in a single
/// master transaction". Its uniform ≈2× speedup per channel doubling implies
/// the per-channel sequential run length stays constant as channels are
/// added — that is [`ChunkPolicy::PerChannel`], the default. A fixed
/// cache-line master ([`ChunkPolicy::Fixed`]`(64)`) is kept for the
/// transaction-size ablation; it makes multi-channel efficiency collapse
/// into read/write turnarounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChunkPolicy {
    /// Master transactions of exactly this many bytes.
    Fixed(u32),
    /// Master transactions of `bytes_per_channel × channels` bytes, keeping
    /// each channel's burst-run length constant as the channel count grows.
    PerChannel(u32),
}

impl ChunkPolicy {
    /// The concrete transaction size for a `channels`-channel memory.
    pub fn bytes(self, channels: u32) -> u32 {
        match self {
            ChunkPolicy::Fixed(n) => n,
            ChunkPolicy::PerChannel(n) => n * channels,
        }
    }
}

/// How the master paces its memory operations within the frame budget.
///
/// The paper measures pure memory access time: the master issues the
/// frame's operations as fast as the memory accepts them and the subsystem
/// then idles (race-to-sleep). [`Pacing::Paced`] is this repo's extension:
/// a rate-controlled master that spreads the same operations evenly over
/// the frame budget, exposing the energy/latency trade between racing to
/// power-down and running just-in-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Pacing {
    /// Issue everything back-to-back, then idle (the paper's model).
    #[default]
    Greedy,
    /// Spread arrivals uniformly over the frame budget.
    Paced,
}

/// A fully specified experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The video-recording load.
    pub use_case: UseCase,
    /// The memory subsystem under test.
    pub memory: MemoryConfig,
    /// Master transaction sizing.
    pub chunk: ChunkPolicy,
    /// Arrival pacing (paper: greedy).
    pub pacing: Pacing,
    /// Data-processing margin on the real-time budget (paper: 0.15).
    pub margin: f64,
    /// Interface power model (equation (1)).
    pub interface: InterfacePowerModel,
    /// Optional cap on the number of load operations simulated, with the
    /// access time extrapolated linearly from the simulated prefix. `None`
    /// simulates the whole frame. Intended for quick tests only.
    pub op_limit: Option<u64>,
    /// Which [`LoadModel`] drives the run: the paper's Table I chain by
    /// default, or one of the other named workloads (see
    /// `docs/WORKLOADS.md`). The base `use_case` still sets frame geometry
    /// and rates for every workload.
    pub workload: Workload,
}

// `workload` is serialized only when non-default so pre-workload
// experiments (and therefore sweep cache fingerprints of Table I runs)
// keep their exact byte representation; field order matches declaration
// order, the same shape the former derive produced.
impl Serialize for Experiment {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        s.begin_object();
        s.field("use_case", &self.use_case);
        s.field("memory", &self.memory);
        s.field("chunk", &self.chunk);
        s.field("pacing", &self.pacing);
        s.field("margin", &self.margin);
        s.field("interface", &self.interface);
        s.field("op_limit", &self.op_limit);
        if !self.workload.is_default() {
            s.field("workload", &self.workload);
        }
        s.end_object();
    }
}

impl Deserialize for Experiment {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for Experiment"))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| serde::Error::missing_field(name))
        };
        Ok(Experiment {
            use_case: Deserialize::from_value(field("use_case")?)?,
            memory: Deserialize::from_value(field("memory")?)?,
            chunk: Deserialize::from_value(field("chunk")?)?,
            pacing: Deserialize::from_value(field("pacing")?)?,
            margin: Deserialize::from_value(field("margin")?)?,
            interface: Deserialize::from_value(field("interface")?)?,
            op_limit: Deserialize::from_value(field("op_limit")?)?,
            workload: match obj.get("workload") {
                Some(v) => Deserialize::from_value(v)?,
                None => Workload::default(),
            },
        })
    }
}

/// What a [`Experiment::run_with`] call should do beyond the plain
/// single-frame simulation.
///
/// This is the one knob set for every run entry point: verification,
/// frame count, op limits, instrumentation and fault injection all hang
/// off it.
///
/// # Examples
///
/// Observing a run with a [`StatsRecorder`](mcm_obs::StatsRecorder):
///
/// ```
/// use std::sync::Arc;
/// use mcm_core::{Experiment, RunOptions};
/// use mcm_load::HdOperatingPoint;
/// use mcm_obs::StatsRecorder;
///
/// let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
/// exp.op_limit = Some(2_000);
///
/// let recorder = Arc::new(StatsRecorder::new());
/// let options = RunOptions::default().with_recorder(recorder.clone());
/// exp.run_with(&options).unwrap();
///
/// let report = recorder.report();
/// assert_eq!(report.channels.len(), 2);
/// assert!(report.channels[0].counters.requests > 0);
/// ```
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Run the `mcm-verify` conformance checks alongside the simulation
    /// (single-frame runs only).
    pub verify: bool,
    /// Number of consecutive frames: `1` is the paper's single-frame
    /// evaluation, `> 1` a steady-state session with refresh debt and bank
    /// state carrying across frame boundaries.
    pub frames: u32,
    /// Event budget: caps the number of simulated load operations,
    /// overriding [`Experiment::op_limit`] when set.
    pub op_limit: Option<u64>,
    /// Seed-keyed fault plan injected into the memory subsystem before the
    /// frame runs (single-frame runs only). `None` — the default — runs
    /// healthy. Part of the run's identity: two runs with the same plan are
    /// bit-identical, and sweep cache fingerprints include it.
    pub faults: Option<FaultPlan>,
    /// Instrumentation sink every simulated layer reports through; `None`
    /// (the default) skips all recording at the cost of one branch per
    /// event. Excluded from equality and serialization, so attaching a
    /// recorder never perturbs sweep cache fingerprints.
    pub recorder: Option<std::sync::Arc<dyn mcm_obs::Recorder>>,
}

// The recorder is an attachment, not part of the run's identity: equality,
// hashing-adjacent uses (sweep cache fingerprints), and serialization all
// see only the behavioural knobs. The fault plan, by contrast, changes
// what the run computes, so it IS part of the identity.
impl PartialEq for RunOptions {
    fn eq(&self, other: &Self) -> bool {
        self.verify == other.verify
            && self.frames == other.frames
            && self.op_limit == other.op_limit
            && self.faults == other.faults
    }
}

impl Eq for RunOptions {}

impl Serialize for RunOptions {
    fn serialize<S: serde::Serializer>(&self, s: &mut S) {
        s.begin_object();
        s.field("verify", &self.verify);
        s.field("frames", &self.frames);
        s.field("op_limit", &self.op_limit);
        // Written only when set so healthy runs keep their pre-fault
        // serialization (and therefore their sweep cache fingerprints).
        if let Some(plan) = &self.faults {
            s.field("faults", plan);
        }
        s.end_object();
    }
}

impl Deserialize for RunOptions {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for RunOptions"))?;
        let field = |name: &str| {
            obj.get(name)
                .ok_or_else(|| serde::Error::missing_field(name))
        };
        Ok(RunOptions {
            verify: Deserialize::from_value(field("verify")?)?,
            frames: Deserialize::from_value(field("frames")?)?,
            op_limit: Deserialize::from_value(field("op_limit")?)?,
            faults: match obj.get("faults") {
                Some(v) => Some(Deserialize::from_value(v)?),
                None => None,
            },
            recorder: None,
        })
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            verify: false,
            frames: 1,
            op_limit: None,
            faults: None,
            recorder: None,
        }
    }
}

impl RunOptions {
    /// Options for a verified single-frame run.
    pub fn verified() -> Self {
        RunOptions {
            verify: true,
            ..RunOptions::default()
        }
    }

    /// Options for a `frames`-frame steady-state session.
    pub fn steady(frames: u32) -> Self {
        RunOptions {
            frames,
            ..RunOptions::default()
        }
    }

    /// Enables or disables the `mcm-verify` conformance pass (builder
    /// style).
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Caps the number of simulated load operations (builder style),
    /// overriding [`Experiment::op_limit`].
    pub fn with_op_limit(mut self, op_limit: u64) -> Self {
        self.op_limit = Some(op_limit);
        self
    }

    /// Attaches `recorder` as the run's instrumentation sink (builder
    /// style). Pass an `Arc<`[`StatsRecorder`](mcm_obs::StatsRecorder)`>`
    /// and query it after the run.
    pub fn with_recorder(mut self, recorder: std::sync::Arc<dyn mcm_obs::Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Injects `plan` into the memory subsystem before the frame runs
    /// (builder style). Only single-frame runs accept a plan; the frame
    /// result then carries a [`DegradeSummary`] describing what degraded.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// What [`Experiment::run_with`] produced, matching the requested
/// [`RunOptions`].
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// A plain single-frame run.
    Frame(FrameResult),
    /// A verified single-frame run with its conformance report.
    Verified {
        /// The frame measurement.
        result: FrameResult,
        /// Conformance findings (lints + trace audit).
        report: Report,
    },
    /// A multi-frame steady-state session.
    Steady(crate::steady::SteadyStateResult),
}

impl RunOutcome {
    /// The single-frame result, if this was a single-frame run.
    pub fn frame(&self) -> Option<&FrameResult> {
        match self {
            RunOutcome::Frame(r) | RunOutcome::Verified { result: r, .. } => Some(r),
            RunOutcome::Steady(_) => None,
        }
    }

    /// Consumes the outcome into its single-frame result, if any.
    pub fn into_frame(self) -> Option<FrameResult> {
        match self {
            RunOutcome::Frame(r) | RunOutcome::Verified { result: r, .. } => Some(r),
            RunOutcome::Steady(_) => None,
        }
    }

    /// Consumes the outcome into its single-frame result, as a typed error
    /// for callers that requested a single frame and must not see a
    /// steady-state outcome.
    pub fn try_into_frame(self) -> Result<FrameResult, CoreError> {
        self.into_frame().ok_or_else(|| CoreError::BadParam {
            reason: "steady-state outcome where a single-frame result was required".into(),
        })
    }

    /// The conformance report, if this was a verified run.
    pub fn verify_report(&self) -> Option<&Report> {
        match self {
            RunOutcome::Verified { report, .. } => Some(report),
            _ => None,
        }
    }

    /// Consumes the outcome into its frame result and conformance report,
    /// if this was a verified run.
    pub fn into_verified(self) -> Option<(FrameResult, Report)> {
        match self {
            RunOutcome::Verified { result, report } => Some((result, report)),
            _ => None,
        }
    }

    /// The steady-state result, if this was a multi-frame session.
    pub fn steady(&self) -> Option<&crate::steady::SteadyStateResult> {
        match self {
            RunOutcome::Steady(s) => Some(s),
            _ => None,
        }
    }

    /// Consumes the outcome into its steady-state result, if any.
    pub fn into_steady(self) -> Option<crate::steady::SteadyStateResult> {
        match self {
            RunOutcome::Steady(s) => Some(s),
            _ => None,
        }
    }
}

impl Experiment {
    /// The paper's experiment at one Table I operating point: `channels` ×
    /// next-generation mobile DDR at `clock_mhz`, 64 bytes per channel per
    /// master transaction, 15 % margin.
    ///
    /// This is a thin wrapper over [`Experiment::builder`]; use the builder
    /// directly for anything beyond the paper's grid axes — it returns typed
    /// errors where this constructor panics on invalid channel counts.
    // The presets are pinned by tests; a panic here is a broken build,
    // not a runtime condition a caller could handle.
    #[allow(clippy::disallowed_methods)]
    pub fn paper(point: HdOperatingPoint, channels: u32, clock_mhz: u64) -> Self {
        Experiment::builder()
            .point(point)
            .channels(channels)
            .clock_mhz(clock_mhz)
            .build()
            .expect("paper-style configuration must be valid")
    }

    /// Starts a fluent [`crate::ExperimentBuilder`] with the paper's
    /// defaults.
    pub fn builder() -> crate::ExperimentBuilder {
        crate::ExperimentBuilder::default()
    }

    /// Validates the experiment parameters, returning a typed
    /// [`CoreError::BadParam`] for anything that would panic or misbehave
    /// downstream. [`crate::ExperimentBuilder::build`] and every run entry
    /// point call this.
    pub fn validate(&self) -> Result<(), CoreError> {
        let bad = |reason: String| Err(CoreError::BadParam { reason });
        if self.memory.channels == 0 || !self.memory.channels.is_power_of_two() {
            return bad(format!(
                "channels {} must be a non-zero power of two",
                self.memory.channels
            ));
        }
        if self.memory.clock_mhz == 0 {
            return bad("clock frequency must be non-zero MHz".into());
        }
        if self.memory.granule_bytes == 0 || !self.memory.granule_bytes.is_power_of_two() {
            return bad(format!(
                "granule {} bytes must be a non-zero power of two",
                self.memory.granule_bytes
            ));
        }
        if !(0.0..1.0).contains(&self.margin) {
            return bad(format!("margin {} must be in [0, 1)", self.margin));
        }
        if self.chunk.bytes(self.memory.channels) == 0 {
            return bad("chunk policy yields zero-byte master transactions".into());
        }
        if self.use_case.fps == 0 {
            return bad("use case fps must be non-zero".into());
        }
        if self.op_limit == Some(0) {
            return bad("op limit must be at least one operation".into());
        }
        Ok(())
    }

    /// The [`LoadModel`] the experiment's [`Workload`] selects, over the
    /// experiment's base use case.
    pub fn model(&self) -> Box<dyn LoadModel> {
        self.workload.model(&self.use_case)
    }

    /// The unified run entry point: executes the experiment the way
    /// `options` asks for and returns the matching [`RunOutcome`].
    ///
    /// Verified runs keep every DRAM command in memory for the trace audit,
    /// so bound full-frame workloads with [`RunOptions::op_limit`] (or
    /// [`Experiment::op_limit`]). Verify findings do not abort the run.
    pub fn run_with(&self, options: &RunOptions) -> Result<RunOutcome, CoreError> {
        self.run_with_model(self.model().as_ref(), options)
    }

    /// [`Experiment::run_with`] with an explicit workload model instead of
    /// the one [`Experiment::workload`] names — the hook for external
    /// [`LoadModel`] implementations (see `examples/custom_workload.rs`).
    /// The experiment's `use_case` still sizes the real-time budget, so a
    /// custom model should be built over the same use case.
    pub fn run_with_model(
        &self,
        model: &dyn LoadModel,
        options: &RunOptions,
    ) -> Result<RunOutcome, CoreError> {
        // The op budget override is validated with the experiment it caps.
        let exp = if options.op_limit.is_some() {
            let mut e = self.clone();
            e.op_limit = options.op_limit;
            std::borrow::Cow::Owned(e)
        } else {
            std::borrow::Cow::Borrowed(self)
        };
        exp.validate()?;
        model.validate()?;
        if options.frames == 0 {
            return Err(CoreError::BadParam {
                reason: "run needs at least one frame".into(),
            });
        }
        if options.verify && options.frames > 1 {
            return Err(CoreError::BadParam {
                reason: "verified steady-state runs are not supported; verify single frames".into(),
            });
        }
        if options.faults.is_some() && options.frames > 1 {
            return Err(CoreError::BadParam {
                reason: "fault injection is single-frame only; drop the plan or set frames to 1"
                    .into(),
            });
        }
        if self.pacing == Pacing::Paced && options.frames > 1 {
            return Err(CoreError::BadParam {
                reason: "paced arrivals are single-frame only: a steady session submits each \
                         frame's operations at its frame boundary"
                    .into(),
            });
        }
        if options.frames > 1 {
            return crate::steady::run_steady_state(
                &exp,
                model,
                options.frames,
                options.recorder.clone(),
            )
            .map(RunOutcome::Steady);
        }
        if options.verify {
            let mut findings = lint_all(&exp.use_case, &exp.memory, &exp.interface);
            let result = exp.run_inner(
                model,
                Some(&mut findings),
                options.recorder.clone(),
                options.faults.as_ref(),
            )?;
            return Ok(RunOutcome::Verified {
                result,
                report: findings,
            });
        }
        exp.run_inner(
            model,
            None,
            options.recorder.clone(),
            options.faults.as_ref(),
        )
        .map(RunOutcome::Frame)
    }

    fn run_inner(
        &self,
        model: &dyn LoadModel,
        mut verify: Option<&mut Report>,
        recorder: Option<std::sync::Arc<dyn mcm_obs::Recorder>>,
        faults: Option<&FaultPlan>,
    ) -> Result<FrameResult, CoreError> {
        let mut memory = MemorySubsystem::new(&self.memory)?;
        if verify.is_some() {
            memory.enable_trace();
        }
        if let Some(rec) = &recorder {
            memory.set_recorder(rec.clone());
        }
        if let Some(plan) = faults {
            // After set_recorder, so the one-time fault events (channel
            // lost, refresh pressure, slow banks) are observable.
            memory.apply_faults(plan)?;
        }

        // Under channel loss the subsystem reports its shrunken capacity,
        // so the frame set is laid out over the survivors.
        let feed = self.feed(memory.capacity_bytes());
        let fps = self.use_case.fps;
        let frame_budget = feed.budget();
        let budget_cycles = memory.clock().cycles_at(frame_budget);
        let full_plan = feed.traffic(model, 0, &[])?;
        let full_bytes = full_plan.uncapped().total_bytes();

        // Load shedding: when the degraded memory cannot carry the full
        // frame, drop Table I stages in priority order (viewfinder and
        // display before encoder reference traffic).
        let (shed_stages, shed_record) = match faults {
            Some(plan) => self.plan_shedding(&memory, plan, full_plan.uncapped(), frame_budget),
            None => (Vec::new(), Vec::new()),
        };
        let traffic = if shed_stages.is_empty() {
            full_plan
        } else {
            feed.traffic(model, 0, &shed_stages)?
        };
        let planned_bytes = traffic.uncapped().total_bytes();

        // Multi-tenant attribution: every op belongs to the tenant whose
        // address span contains it; accesses outside every span are strays
        // (an MCM204 violation).
        let spans: Vec<Region> = traffic.uncapped().tenant_spans().to_vec();
        let mut tallies = vec![TenantSummary::default(); spans.len()];
        let mut strays: Vec<(u64, u32)> = Vec::new();
        let mut stray_count = 0u64;

        let mut simulated_bytes = 0u64;
        for op in traffic {
            if !spans.is_empty() {
                let tenant = spans
                    .iter()
                    .position(|s| op.addr >= s.start && op.addr + op.len as u64 <= s.end());
                match tenant {
                    Some(t) => {
                        let tally = &mut tallies[t];
                        tally.ops += 1;
                        if op.write {
                            tally.bytes_written += op.len as u64;
                        } else {
                            tally.bytes_read += op.len as u64;
                        }
                        if let Some(rec) = &recorder {
                            rec.record_tenant_op(t as u32, op.write, op.len as u64);
                        }
                    }
                    None => {
                        stray_count += 1;
                        if strays.len() < 16 {
                            strays.push((op.addr, op.len));
                        }
                    }
                }
            }
            let arrival = match self.pacing {
                Pacing::Greedy => 0,
                Pacing::Paced => {
                    // Arrival proportional to the share of the frame's bytes
                    // already issued: a constant-rate master.
                    (simulated_bytes as u128 * budget_cycles as u128 / planned_bytes.max(1) as u128)
                        as u64
                }
            };
            memory.submit(transaction(&op, arrival))?;
            simulated_bytes += op.len as u64;
        }
        // Power is averaged over the frame period; if the frame overruns,
        // over the actual access time.
        let busy = memory.busy_until();
        let horizon_cycles = memory.clock().cycles_ceil(frame_budget).max(busy);
        let report = memory.finish(horizon_cycles)?;

        if let Some(findings) = verify.as_deref_mut() {
            let geometry = self.memory.controller.cluster.geometry;
            let budget = self
                .memory
                .controller
                .refresh
                .enabled
                .then_some(self.memory.controller.refresh.max_postpone);
            for ch in 0..memory.channels() {
                let device = memory.controller(ch)?.device();
                if let Some(trace) = device.trace() {
                    let opts = TraceAuditOptions {
                        refresh_budget: budget,
                        channel: Some(ch),
                        ..TraceAuditOptions::default()
                    };
                    findings.merge(audit_trace(device.timing(), &geometry, trace, &opts));
                }
            }
            // Balance is judged over the channels that carry traffic: after
            // channel loss, only the survivors.
            let burst = geometry.burst_bytes() as u64;
            let channel_bytes =
                |c: &mcm_ctrl::ChannelReport| (c.device.reads + c.device.writes) * burst;
            let per_channel: Vec<u64> = match memory.fault_survivors() {
                Some(survivors) => survivors
                    .iter()
                    .map(|&ch| channel_bytes(&report.channels[ch as usize]))
                    .collect(),
                None => report.channels.iter().map(channel_bytes).collect(),
            };
            findings.merge(check_traffic_balance(&per_channel, 0.25));
            findings.merge(check_tenant_attribution(&spans, stray_count, &strays));
        }

        // Extrapolate when only a prefix was simulated.
        let scale = if simulated_bytes > 0 && simulated_bytes < planned_bytes {
            planned_bytes as f64 / simulated_bytes as f64
        } else {
            1.0
        };
        let access_time = SimTime::from_ps((report.access_time.as_ps() as f64 * scale) as u64);

        let verdict = feed.judge(access_time.as_ps(), frame_budget.as_ps());

        let horizon = memory.clock().time_of_cycles(horizon_cycles);
        let core_mw = report.core_energy_pj * scale / horizon.as_ns_f64() / 1e3 * 1e3;
        let interface_mw = self
            .interface
            .total_power_mw(memory.clock().frequency(), memory.channels());
        let power = PowerSummary {
            core_mw,
            interface_mw,
        };
        if let Some(rec) = &recorder {
            power.observe(rec.as_ref());
            rec.record_span("frame", None, 0, report.access_time.as_ps());
        }

        let degrade = faults.map(|plan| {
            let stats = memory.degrade_stats().unwrap_or_default();
            let surviving_channels = memory
                .fault_survivors()
                .map_or(memory.channels(), |s| s.len() as u32);
            let shed_bytes: u64 = shed_record.iter().map(|s| s.bytes).sum();
            // The rate the degraded memory sustains: nominal while the
            // (possibly shed) frame still fits its budget, else the rate
            // the achieved access time corresponds to.
            let effective_fps = if access_time <= frame_budget {
                f64::from(fps)
            } else {
                (1e12 / access_time.as_ps() as f64).min(f64::from(fps))
            };
            DegradeSummary {
                lost_channels: plan.lost_channels(),
                surviving_channels,
                flaky_hits: stats.flaky_hits,
                retries: stats.retries,
                remaps: stats.remaps,
                shed: shed_record.clone(),
                shed_bytes,
                planned_bytes_full: full_bytes,
                planned_bytes_after_shed: planned_bytes,
                effective_fps,
                nominal_fps: fps,
            }
        });
        if let Some(findings) = verify {
            if let Some(summary) = &degrade {
                findings.merge(check_degradation(summary, memory.channels()));
            }
        }

        let names = model.tenant_names();
        for (i, tally) in tallies.iter_mut().enumerate() {
            tally.name = names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("tenant{i}"));
        }

        Ok(FrameResult {
            access_time,
            frame_budget,
            verdict,
            power,
            planned_bytes,
            simulated_bytes,
            peak_bandwidth_bytes_per_s: self.memory.peak_bandwidth_bytes_per_s(),
            degrade,
            tenants: tallies,
            report,
        })
    }

    /// Decides which Table I stages to shed for a fault-degraded run.
    ///
    /// The degraded delivery estimate is the healthy peak scaled by the
    /// surviving-channel fraction and the mean availability of the
    /// survivors' flaky windows; the policy's `shed_target_pct` sets how
    /// much of that the frame plan may consume. Stages are shed in
    /// [`SHED_PRIORITY`] order (always a prefix of it — `MCM303`) until the
    /// plan fits or the shed list is exhausted.
    fn plan_shedding(
        &self,
        memory: &MemorySubsystem,
        plan: &FaultPlan,
        full_plan: &Traffic,
        frame_budget: SimTime,
    ) -> (Vec<Stage>, Vec<StageShed>) {
        let channels = memory.channels();
        let survivors = plan.survivors(channels);
        let availability = plan.mean_availability(&survivors);
        let degraded_peak = self.memory.peak_bandwidth_bytes_per_s() * survivors.len() as f64
            / f64::from(channels)
            * availability;
        let budget_bytes =
            degraded_peak * frame_budget.as_s_f64() * f64::from(plan.policy.shed_target_pct)
                / 100.0;
        let mut remaining = full_plan.total_bytes() as f64;
        if remaining <= budget_bytes {
            return (Vec::new(), Vec::new());
        }
        let stage_bytes = full_plan.stage_bytes();
        let mut stages = Vec::new();
        let mut record = Vec::new();
        for label in SHED_PRIORITY {
            if remaining <= budget_bytes {
                break;
            }
            // Stages the use case doesn't exercise shed zero bytes but stay
            // in the list, keeping the shed set a strict priority prefix.
            let Some(stage) = Stage::ALL.iter().copied().find(|s| s.label() == label) else {
                // SHED_PRIORITY labels are pinned to Table I stages by a
                // unit test; an unknown label sheds nothing.
                continue;
            };
            let bytes = stage_bytes
                .iter()
                .find(|(s, _)| *s == stage)
                .map_or(0, |(_, b)| *b);
            stages.push(stage);
            record.push(StageShed {
                stage: label.to_string(),
                bytes,
            });
            remaining -= bytes as f64;
        }
        (stages, record)
    }
}

/// Per-tenant share of one simulated frame, attributed by address span.
/// Only multi-tenant workloads populate these; see
/// [`LoadModel::tenant_spans`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSummary {
    /// Tenant label (`tenant0:record`, `tenant1:playback`, …).
    pub name: String,
    /// Memory operations the tenant issued.
    pub ops: u64,
    /// Bytes the tenant read.
    pub bytes_read: u64,
    /// Bytes the tenant wrote.
    pub bytes_written: u64,
}

/// Everything measured about one simulated frame.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// Time to perform all of the frame's memory accesses.
    pub access_time: SimTime,
    /// The real-time budget (1/fps).
    pub frame_budget: SimTime,
    /// Verdict against the budget with the experiment's margin.
    pub verdict: RealTimeVerdict,
    /// Average power over the frame period (core + interface).
    pub power: PowerSummary,
    /// Bytes the full frame moves.
    pub planned_bytes: u64,
    /// Bytes actually simulated (smaller only under an op limit).
    pub simulated_bytes: u64,
    /// Theoretical peak bandwidth of the configuration.
    pub peak_bandwidth_bytes_per_s: f64,
    /// What degraded under an injected [`FaultPlan`]: lost channels,
    /// retry/remap counts, shed stages and the effective frame rate.
    /// `None` for healthy runs.
    pub degrade: Option<DegradeSummary>,
    /// Per-tenant traffic attribution; empty unless the workload is
    /// multi-tenant.
    pub tenants: Vec<TenantSummary>,
    /// The raw subsystem report (per-channel stats, energies).
    pub report: SubsystemReport,
}

impl FrameResult {
    /// Achieved bandwidth while busy, bytes/s.
    pub fn achieved_bandwidth_bytes_per_s(&self) -> f64 {
        let t = self.access_time.as_s_f64();
        if t == 0.0 {
            return 0.0;
        }
        self.planned_bytes as f64 / t
    }

    /// Bus efficiency: achieved ÷ peak bandwidth.
    ///
    /// NaN-free by construction: zero-traffic runs (no planned bytes, zero
    /// access time) and degenerate zero/non-finite peak bandwidths all
    /// report `0.0` instead of dividing by zero.
    pub fn efficiency(&self) -> f64 {
        let peak = self.peak_bandwidth_bytes_per_s;
        if !peak.is_finite() || peak <= 0.0 {
            return 0.0;
        }
        self.achieved_bandwidth_bytes_per_s() / peak
    }

    /// Energy cost per transferred bit, picojoules — the figure of merit
    /// memory-interface papers compare on (the XDR interface of the
    /// comparison runs at ~195 pJ/bit; this subsystem at 400 MHz lands
    /// around 10-30 pJ/bit depending on utilization).
    ///
    /// A zero-traffic frame moves no bits, so its energy cost per bit is
    /// reported as `0.0` (documented convention; never NaN or infinity).
    pub fn energy_per_bit_pj(&self) -> f64 {
        if self.planned_bytes == 0 {
            return 0.0;
        }
        // Average power over the frame period × period = energy per frame.
        let energy_pj = self.power.total_mw() * self.frame_budget.as_ns_f64();
        energy_pj / (self.planned_bytes as f64 * 8.0)
    }

    /// The Fig. 5 convention: reported power, or `None` (suppressed bar)
    /// when the configuration misses real time with the margin.
    pub fn reported_power_mw(&self) -> Option<f64> {
        match self.verdict {
            RealTimeVerdict::Fails => None,
            _ => Some(self.power.total_mw()),
        }
    }
}

impl fmt::Display for FrameResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / budget {} [{}], {}, eff {:.0}%",
            self.access_time,
            self.frame_budget,
            self.verdict,
            self.power,
            self.efficiency() * 100.0
        )
    }
}

/// The distilled, serializable result of one run: what a figure cell, a
/// sweep point, a cache entry and a service job all hold.
///
/// This is deliberately *not* the full [`FrameResult`] (whose subsystem
/// report is an open-ended simulation artifact): it is the stable set of
/// metrics the paper's figures and this repo's ablations consume, so cache
/// entries survive refactors of the simulator internals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointRecord {
    /// Whether the frame buffers fit the configuration at all.
    pub feasible: bool,
    /// Why not, when infeasible.
    pub infeasible_reason: Option<String>,
    /// Frame access time, ms (feasible points only).
    pub access_ms: Option<f64>,
    /// Real-time budget, ms.
    pub budget_ms: Option<f64>,
    /// Real-time verdict (`meets` / `MARGINAL` / `FAILS`).
    pub verdict: Option<String>,
    /// Average DRAM core power, mW.
    pub core_mw: Option<f64>,
    /// Interface power (equation (1)), mW.
    pub interface_mw: Option<f64>,
    /// Bus efficiency (achieved ÷ peak bandwidth).
    pub efficiency: Option<f64>,
    /// Energy per transferred bit, pJ.
    pub energy_per_bit_pj: Option<f64>,
    /// Worst per-channel p99 request latency, ns (when channels report it).
    pub latency_p99_ns: Option<f64>,
    /// Bytes the full frame moves.
    pub planned_bytes: u64,
    /// Bytes actually simulated (smaller only under an op limit).
    pub simulated_bytes: u64,
    /// Theoretical peak bandwidth, Gbyte/s.
    pub peak_gbytes_per_s: f64,
}

impl PointRecord {
    /// Distills a run result, folding capacity overflows into infeasible
    /// records the same way the paper's figures drop such bars (a 2160p
    /// frame simply does not fit one or two 512 Mb channels). Any other
    /// error passes through.
    pub fn from_result(result: Result<FrameResult, CoreError>) -> Result<PointRecord, CoreError> {
        match result {
            Ok(r) => Ok(PointRecord {
                feasible: true,
                infeasible_reason: None,
                access_ms: Some(r.access_time.as_ms_f64()),
                budget_ms: Some(r.frame_budget.as_ms_f64()),
                verdict: Some(r.verdict.to_string()),
                core_mw: Some(r.power.core_mw),
                interface_mw: Some(r.power.interface_mw),
                efficiency: Some(r.efficiency()),
                energy_per_bit_pj: Some(r.energy_per_bit_pj()),
                latency_p99_ns: r
                    .report
                    .channels
                    .iter()
                    .filter_map(|c| c.latency_p99)
                    .max()
                    .map(|t| t.as_ns_f64()),
                planned_bytes: r.planned_bytes,
                simulated_bytes: r.simulated_bytes,
                peak_gbytes_per_s: r.peak_bandwidth_bytes_per_s / 1e9,
            }),
            Err(CoreError::Load(mcm_load::LoadError::LayoutOverflow { needed, capacity })) => {
                Ok(PointRecord::infeasible(format!(
                    "frame buffers need {} MiB, capacity is {} MiB",
                    needed >> 20,
                    capacity >> 20
                )))
            }
            Err(e) => Err(e),
        }
    }

    /// An infeasible record: `reason` and no metrics.
    pub fn infeasible(reason: String) -> PointRecord {
        PointRecord {
            feasible: false,
            infeasible_reason: Some(reason),
            access_ms: None,
            budget_ms: None,
            verdict: None,
            core_mw: None,
            interface_mw: None,
            efficiency: None,
            energy_per_bit_pj: None,
            latency_p99_ns: None,
            planned_bytes: 0,
            simulated_bytes: 0,
            peak_gbytes_per_s: 0.0,
        }
    }

    /// The real-time verdict, for feasible points.
    pub fn real_time(&self) -> Option<RealTimeVerdict> {
        let verdict = self.verdict.as_deref()?;
        [
            RealTimeVerdict::Meets,
            RealTimeVerdict::Marginal,
            RealTimeVerdict::Fails,
        ]
        .into_iter()
        .find(|v| v.as_str() == verdict)
    }

    /// Total power (core + interface), mW, for feasible points.
    pub fn total_mw(&self) -> Option<f64> {
        Some(self.core_mw? + self.interface_mw?)
    }

    /// The Fig. 5 convention of [`FrameResult::reported_power_mw`]: total
    /// power, or `None` (suppressed bar) when the point misses real time
    /// or cannot run at all.
    pub fn reported_power_mw(&self) -> Option<f64> {
        if self.real_time()?.is_real_time() {
            self.total_mw()
        } else {
            None
        }
    }

    #[cfg(test)]
    pub(crate) fn synthetic_for_tests(access_ms: f64) -> PointRecord {
        PointRecord {
            feasible: true,
            infeasible_reason: None,
            access_ms: Some(access_ms),
            verdict: Some("meets".into()),
            core_mw: Some(100.0),
            interface_mw: Some(4.0),
            efficiency: Some(0.75),
            ..PointRecord::infeasible(String::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(point: HdOperatingPoint, channels: u32, clock: u64) -> FrameResult {
        let e = Experiment::paper(point, channels, clock);
        e.run_with(&RunOptions::default().with_op_limit(40_000))
            .unwrap()
            .into_frame()
            .unwrap()
    }

    #[test]
    fn verified_run_is_clean_on_the_paper_config() {
        let mut e = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        e.op_limit = Some(4_000);
        let (result, findings) = e
            .run_with(&RunOptions::verified())
            .unwrap()
            .into_verified()
            .unwrap();
        assert!(result.simulated_bytes > 0);
        assert!(findings.is_clean(), "{}", findings.render_human());
    }

    #[test]
    fn verified_run_reports_config_findings() {
        let mut e = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        e.op_limit = Some(1_000);
        e.memory.controller.refresh.max_postpone = 64;
        let (_, findings) = e
            .run_with(&RunOptions::verified())
            .unwrap()
            .into_verified()
            .unwrap();
        assert!(
            findings.ids().contains(&"MCM105"),
            "{}",
            findings.render_human()
        );
    }

    #[test]
    fn verdict_thresholds() {
        assert!(RealTimeVerdict::Meets.is_real_time());
        assert!(RealTimeVerdict::Marginal.is_real_time());
        assert!(!RealTimeVerdict::Fails.is_real_time());
        assert_eq!(RealTimeVerdict::Marginal.to_string(), "MARGINAL");
    }

    #[test]
    fn one_channel_200mhz_fails_720p30() {
        let r = quick(HdOperatingPoint::Hd720p30, 1, 200);
        assert_eq!(r.verdict, RealTimeVerdict::Fails, "{r}");
        assert!(r.reported_power_mw().is_none());
    }

    #[test]
    fn four_channels_400mhz_meet_720p30() {
        let r = quick(HdOperatingPoint::Hd720p30, 4, 400);
        assert_eq!(r.verdict, RealTimeVerdict::Meets, "{r}");
        assert!(r.reported_power_mw().is_some());
    }

    #[test]
    fn access_time_halves_with_channel_doubling() {
        // Equalize the simulated byte count: the per-channel chunk policy
        // doubles the transaction size at two channels.
        let mut e1 = Experiment::paper(HdOperatingPoint::Hd720p30, 1, 400);
        e1.op_limit = Some(80_000);
        let mut e2 = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
        e2.op_limit = Some(40_000);
        let frame = |e: &Experiment| {
            e.run_with(&RunOptions::default())
                .unwrap()
                .into_frame()
                .unwrap()
        };
        let t1 = frame(&e1).access_time;
        let t2 = frame(&e2).access_time;
        let ratio = t1.as_ps() as f64 / t2.as_ps() as f64;
        assert!((1.7..=2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn access_time_halves_with_clock_doubling() {
        let slow = quick(HdOperatingPoint::Hd720p30, 2, 200).access_time;
        let fast = quick(HdOperatingPoint::Hd720p30, 2, 400).access_time;
        let ratio = slow.as_ps() as f64 / fast.as_ps() as f64;
        assert!((1.7..=2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn efficiency_is_high_but_below_peak() {
        let r = quick(HdOperatingPoint::Hd720p30, 1, 400);
        let eff = r.efficiency();
        assert!((0.55..0.999).contains(&eff), "efficiency {eff}");
    }

    #[test]
    fn op_limit_extrapolates_close_to_full_run() {
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
        e.op_limit = Some(60_000);
        let frame = |e: &Experiment| {
            e.run_with(&RunOptions::default())
                .unwrap()
                .into_frame()
                .unwrap()
        };
        let partial = frame(&e);
        assert!(partial.simulated_bytes < partial.planned_bytes);
        // The stage mix varies along the frame, so prefix extrapolation is
        // only approximate; a longer prefix must stay within ~2x.
        e.op_limit = Some(240_000);
        let fuller = frame(&e);
        let a = partial.access_time.as_ps() as f64;
        let b = fuller.access_time.as_ps() as f64;
        assert!((0.5..2.0).contains(&(a / b)), "{a} vs {b}");
    }

    #[test]
    fn bad_margin_rejected() {
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 1, 400);
        e.margin = 1.5;
        assert!(matches!(
            e.run_with(&RunOptions::default()),
            Err(CoreError::BadParam { .. })
        ));
    }

    #[test]
    fn power_includes_interface_share() {
        let r = quick(HdOperatingPoint::Hd720p30, 4, 400);
        assert!(r.power.interface_mw > 0.0);
        assert!(r.power.core_mw > r.power.interface_mw);
        // 4 channels at 400 MHz: 4 × 4.15 mW.
        assert!((r.power.interface_mw - 16.59).abs() < 0.01);
    }

    #[test]
    fn energy_per_bit_is_in_a_sane_band() {
        let r = quick(HdOperatingPoint::Hd720p30, 4, 400);
        let pj = r.energy_per_bit_pj();
        assert!((5.0..100.0).contains(&pj), "pj/bit = {pj}");
        // And far below the XDR interface's ~195 pJ/bit.
        let xdr_pj_per_bit = 5.0e3 / (25.6e9 * 8.0) * 1e12;
        assert!(pj < xdr_pj_per_bit);
    }

    #[test]
    fn display_formats() {
        let r = quick(HdOperatingPoint::Hd720p30, 4, 400);
        let s = r.to_string();
        assert!(s.contains("budget"));
        assert!(s.contains("eff"));
    }
}

#[cfg(test)]
mod pacing_tests {
    use super::*;

    fn run(pacing: Pacing) -> FrameResult {
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        e.pacing = pacing;
        e.op_limit = Some(50_000);
        e.run_with(&RunOptions::default())
            .unwrap()
            .into_frame()
            .unwrap()
    }

    #[test]
    fn paced_master_bounds_request_latency() {
        let greedy = run(Pacing::Greedy);
        let paced = run(Pacing::Paced);
        let p99 = |r: &FrameResult| {
            r.report
                .channels
                .iter()
                .filter_map(|c| c.latency_p99)
                .max()
                .unwrap()
        };
        assert!(
            p99(&paced).as_ps() * 10 < p99(&greedy).as_ps(),
            "paced p99 {} should be far below greedy {}",
            p99(&paced),
            p99(&greedy)
        );
    }

    #[test]
    fn latency_summaries_are_populated() {
        let r = run(Pacing::Greedy);
        let ch = &r.report.channels[0];
        assert!(ch.latency_mean.is_some());
        assert!(ch.latency_max > mcm_sim::SimTime::ZERO);
        assert!(ch.latency_p99.unwrap() >= ch.latency_mean.unwrap());
    }

    #[test]
    fn default_pacing_is_greedy() {
        assert_eq!(Pacing::default(), Pacing::Greedy);
        let e = Experiment::paper(HdOperatingPoint::Hd720p30, 1, 400);
        assert_eq!(e.pacing, Pacing::Greedy);
    }
}

#[cfg(test)]
mod run_with_tests {
    use super::*;

    fn quick() -> Experiment {
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        e.op_limit = Some(5_000);
        e
    }

    #[test]
    fn default_options_are_deterministic() {
        let e = quick();
        let frame = |e: &Experiment| {
            e.run_with(&RunOptions::default())
                .unwrap()
                .into_frame()
                .unwrap()
        };
        let a = frame(&e);
        let b = frame(&e);
        assert_eq!(a.access_time, b.access_time);
        assert_eq!(a.verdict, b.verdict);
        assert!(
            a.degrade.is_none(),
            "healthy run carries no degrade summary"
        );
    }

    #[test]
    fn verified_options_attach_a_clean_report() {
        let e = quick();
        let outcome = e.run_with(&RunOptions::verified()).unwrap();
        assert!(outcome.frame().is_some());
        let report = outcome.verify_report().expect("verified outcome");
        assert!(report.is_clean(), "{}", report.render_human());
        // The verified run measures the same frame as the plain one.
        let plain = e
            .run_with(&RunOptions::default())
            .unwrap()
            .into_frame()
            .unwrap();
        assert_eq!(plain.access_time, outcome.frame().unwrap().access_time);
    }

    #[test]
    fn steady_options_run_a_session() {
        let e = quick();
        let outcome = e.run_with(&RunOptions::steady(3)).unwrap();
        assert!(outcome.frame().is_none());
        let s = outcome.steady().expect("steady outcome");
        assert_eq!(s.frames.len(), 3);
    }

    #[test]
    fn op_limit_option_overrides_experiment() {
        let mut e = quick();
        e.op_limit = None;
        let opts = RunOptions {
            op_limit: Some(1_000),
            ..RunOptions::default()
        };
        let r = e.run_with(&opts).unwrap().into_frame().unwrap();
        assert!(r.simulated_bytes < r.planned_bytes);
    }

    #[test]
    fn contradictory_options_rejected() {
        let e = quick();
        let opts = RunOptions {
            verify: true,
            frames: 2,
            ..RunOptions::default()
        };
        assert!(matches!(e.run_with(&opts), Err(CoreError::BadParam { .. })));
        assert!(matches!(
            e.run_with(&RunOptions::steady(0)),
            Err(CoreError::BadParam { .. })
        ));
    }

    #[test]
    fn recorder_is_invisible_to_equality_and_serde() {
        let plain = RunOptions::default();
        let observed =
            RunOptions::default().with_recorder(std::sync::Arc::new(mcm_obs::NullRecorder));
        // The recorder is an attachment: same run identity, same JSON.
        assert_eq!(plain, observed);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&observed).unwrap()
        );
        let back: RunOptions = serde_json::from_str(&serde_json::to_string(&observed).unwrap())
            .expect("RunOptions round-trips");
        assert!(back.recorder.is_none());
        assert_eq!(back, observed);
    }

    #[test]
    fn attached_recorder_sees_the_run() {
        let e = quick();
        let rec = std::sync::Arc::new(mcm_obs::StatsRecorder::new());
        let outcome = e
            .run_with(&RunOptions::default().with_recorder(rec.clone()))
            .unwrap();
        let frame = outcome.frame().unwrap();
        let report = rec.report();
        assert_eq!(report.channels.len(), 4);
        let obs_bytes: u64 = report
            .channels
            .iter()
            .map(|c| c.counters.bytes_read + c.counters.bytes_written)
            .sum();
        assert_eq!(
            obs_bytes,
            frame.report.bytes_read + frame.report.bytes_written
        );
        // The power gauges and the frame span were published.
        assert!(report.gauges.iter().any(|g| g.name == "power.total_mw"));
        let span = report.spans.iter().find(|s| s.name == "frame").unwrap();
        assert_eq!(span.end_ps, frame.report.access_time.as_ps());
    }

    #[test]
    fn steady_run_observes_each_frame() {
        let e = quick();
        let rec = std::sync::Arc::new(mcm_obs::StatsRecorder::new());
        let outcome = e
            .run_with(&RunOptions::steady(3).with_recorder(rec.clone()))
            .unwrap();
        let steady = outcome.steady().unwrap();
        let report = rec.report();
        let frame_spans = report.spans.iter().filter(|s| s.name == "frame").count();
        assert_eq!(frame_spans, 3);
        assert!(report.gauges.iter().any(|g| g.name == "power.core_mw"));
        let obs_bytes: u64 = report
            .channels
            .iter()
            .map(|c| c.counters.bytes_read + c.counters.bytes_written)
            .sum();
        assert_eq!(obs_bytes, steady.bytes);
    }

    #[test]
    fn run_with_validates_hand_mutated_experiments() {
        let mut e = quick();
        e.memory.granule_bytes = 0;
        assert!(matches!(
            e.run_with(&RunOptions::default()),
            Err(CoreError::BadParam { .. })
        ));
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use mcm_fault::{DegradePolicy, FaultSpec};

    fn base() -> Experiment {
        let mut e = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        e.op_limit = Some(5_000);
        e
    }

    #[test]
    fn channel_loss_run_reports_degradation() {
        let e = base();
        let plan = FaultPlan::channel_loss(7, 3);
        let r = e
            .run_with(&RunOptions::default().with_faults(plan))
            .unwrap()
            .into_frame()
            .unwrap();
        let d = r.degrade.as_ref().expect("faulted run carries a summary");
        assert_eq!(d.lost_channels, vec![3]);
        assert_eq!(d.surviving_channels, 3);
        assert_eq!(d.nominal_fps, 30);
        assert!(d.effective_fps > 0.0 && d.effective_fps <= 30.0);
        assert_eq!(
            d.planned_bytes_after_shed + d.shed_bytes,
            d.planned_bytes_full
        );
        assert!(r.simulated_bytes > 0);
    }

    #[test]
    fn same_seed_degraded_runs_are_bit_identical() {
        let e = base();
        let plan = FaultPlan::seeded(0xfeed_beef, 4).unwrap();
        let opts = RunOptions::default().with_faults(plan);
        let run = || e.run_with(&opts).unwrap().into_frame().unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.access_time, b.access_time);
        assert_eq!(a.report.bytes_read, b.report.bytes_read);
        assert_eq!(a.report.bytes_written, b.report.bytes_written);
        assert_eq!(a.degrade, b.degrade);
    }

    #[test]
    fn degraded_verified_run_passes_all_checks() {
        let mut e = base();
        e.op_limit = Some(4_000);
        let opts = RunOptions::verified().with_faults(FaultPlan::channel_loss(1, 0));
        let (result, findings) = e.run_with(&opts).unwrap().into_verified().unwrap();
        assert!(result.degrade.is_some());
        assert!(findings.is_clean(), "{}", findings.render_human());
    }

    #[test]
    fn heavy_loss_sheds_stages_in_priority_order() {
        // Two of four channels gone: 1080p60's plan no longer fits the
        // degraded delivery estimate and viewfinder traffic is shed first.
        let mut e = Experiment::paper(HdOperatingPoint::Hd1080p60, 4, 400);
        e.op_limit = Some(5_000);
        let plan = FaultPlan {
            seed: 11,
            faults: vec![
                FaultSpec::ChannelLoss { channel: 0 },
                FaultSpec::ChannelLoss { channel: 1 },
            ],
            policy: DegradePolicy::default(),
        };
        let r = e
            .run_with(&RunOptions::default().with_faults(plan))
            .unwrap()
            .into_frame()
            .unwrap();
        let d = r.degrade.as_ref().unwrap();
        assert!(!d.shed.is_empty(), "expected load shedding: {d}");
        assert_eq!(d.shed[0].stage, mcm_fault::SHED_PRIORITY[0]);
        for (entry, label) in d.shed.iter().zip(mcm_fault::SHED_PRIORITY) {
            assert_eq!(entry.stage, label, "shed set must be a priority prefix");
        }
        assert!(d.shed_bytes > 0);
        assert_eq!(
            d.planned_bytes_after_shed + d.shed_bytes,
            d.planned_bytes_full
        );
        assert_eq!(r.planned_bytes, d.planned_bytes_after_shed);
    }

    #[test]
    fn faults_are_single_frame_only() {
        let e = base();
        let opts = RunOptions::steady(2).with_faults(FaultPlan::channel_loss(1, 0));
        assert!(matches!(e.run_with(&opts), Err(CoreError::BadParam { .. })));
    }

    #[test]
    fn fault_plan_is_part_of_run_identity_and_serde() {
        let plain = RunOptions::default();
        let faulted = RunOptions::default().with_faults(FaultPlan::channel_loss(1, 0));
        assert_ne!(plain, faulted);
        // Healthy options serialize without a faults key, keeping pre-fault
        // cache fingerprints stable.
        assert!(!serde_json::to_string(&plain).unwrap().contains("faults"));
        let json = serde_json::to_string(&faulted).unwrap();
        assert!(json.contains("faults"), "{json}");
        let back: RunOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(back, faulted);
        let back_plain: RunOptions =
            serde_json::from_str(&serde_json::to_string(&plain).unwrap()).unwrap();
        assert!(back_plain.faults.is_none());
    }
}

#[cfg(test)]
mod nan_audit_tests {
    use super::*;
    use mcm_channel::SubsystemReport;

    /// A synthetic zero-traffic result with a degenerate peak bandwidth —
    /// the divide-by-zero cases the derived metrics must tolerate.
    fn zero_traffic_result(peak: f64) -> FrameResult {
        FrameResult {
            access_time: SimTime::ZERO,
            frame_budget: SimTime::from_ps(33_333_333_333),
            verdict: RealTimeVerdict::Meets,
            power: PowerSummary::default(),
            planned_bytes: 0,
            simulated_bytes: 0,
            peak_bandwidth_bytes_per_s: peak,
            degrade: None,
            tenants: Vec::new(),
            report: SubsystemReport {
                channels: Vec::new(),
                busy_until: 0,
                access_time: SimTime::ZERO,
                core_energy_pj: 0.0,
                bytes_read: 0,
                bytes_written: 0,
            },
        }
    }

    #[test]
    fn zero_traffic_metrics_are_nan_free() {
        for peak in [0.0, f64::NAN, f64::INFINITY, 6.4e9] {
            let r = zero_traffic_result(peak);
            assert_eq!(r.achieved_bandwidth_bytes_per_s(), 0.0);
            assert_eq!(r.efficiency(), 0.0, "peak {peak}");
            assert_eq!(r.energy_per_bit_pj(), 0.0);
            assert!(r.to_string().contains("eff 0%"), "{r}");
        }
    }

    #[test]
    fn zero_op_limit_is_refused() {
        // A run of no operations has no access time to judge: refused as
        // a bad parameter, whether the experiment or the run options carry
        // the zero budget.
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
        let zero = RunOptions::default().with_op_limit(0);
        let refused = |r: Result<RunOutcome, CoreError>| match r {
            Err(CoreError::BadParam { reason }) => assert!(reason.contains("op limit"), "{reason}"),
            other => panic!("zero op limit was not refused: {other:?}"),
        };
        refused(e.run_with(&zero));
        e.op_limit = Some(0);
        refused(e.run_with(&RunOptions::default()));
        assert!(e.validate().is_err());
        assert!(Experiment::builder().op_limit(0).build().is_err());
        // Any positive budget overrides the zero one and runs.
        e.run_with(&RunOptions::default().with_op_limit(1)).unwrap();
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;

    #[test]
    fn experiment_roundtrips_through_json() {
        let mut exp = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        exp.chunk = ChunkPolicy::Fixed(256);
        exp.pacing = Pacing::Paced;
        exp.op_limit = Some(123);
        let json = serde_json::to_string_pretty(&exp).unwrap();
        assert!(json.contains("\"width\": 1920"), "{json}");
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(back.chunk, exp.chunk);
        assert_eq!(back.pacing, exp.pacing);
        assert_eq!(back.op_limit, Some(123));
        assert_eq!(back.use_case, exp.use_case);
        assert_eq!(back.memory.channels, 4);
        assert_eq!(
            back.memory.controller.mapping,
            exp.memory.controller.mapping
        );
        // The deserialized experiment runs.
        let mut quick = back;
        quick.op_limit = Some(2_000);
        quick.run_with(&RunOptions::default()).unwrap();
    }

    #[test]
    fn default_workload_keeps_the_pre_workload_serialization() {
        // Table I experiments must serialize without a `workload` key so
        // sweep cache fingerprints computed before the workload field
        // existed stay valid.
        let exp = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
        assert!(exp.workload.is_default());
        let json = serde_json::to_string(&exp).unwrap();
        assert!(!json.contains("workload"), "{json}");
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workload, Workload::TableI);
    }

    #[test]
    fn non_default_workload_roundtrips_through_json() {
        let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
        exp.workload = Workload::parse("stochastic:42:80").unwrap();
        let json = serde_json::to_string(&exp).unwrap();
        assert!(json.contains("\"workload\""), "{json}");
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workload, exp.workload);
    }
}
