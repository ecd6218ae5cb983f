//! The [`Recorder`] trait — the seam every simulated layer reports through.
//!
//! A recorder is *passive*: the simulator calls into it at well-defined
//! points (command issue, request retirement, energy accounting) and the
//! recorder decides what, if anything, to keep. The two bundled
//! implementations sit at the extremes: [`NullRecorder`] keeps nothing and
//! compiles down to nothing, [`crate::StatsRecorder`] keeps everything the
//! `mcm report` subcommand can print.
//!
//! Timestamps are raw picoseconds (`u64`) rather than a shared time type so
//! this crate stays dependency-free and every layer of the stack — including
//! the event kernel itself — can depend on it without cycles.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// The DRAM command classes a recorder can observe.
///
/// These mirror the mobile-DDR command set the simulator issues; exits are
/// separate variants so power-down residency can be reconstructed from the
/// event stream alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommandKind {
    /// Row activation (`ACT`).
    Activate,
    /// Column read burst (`RD`).
    Read,
    /// Column write burst (`WR`).
    Write,
    /// Single-bank precharge (`PRE`).
    Precharge,
    /// All-bank precharge (`PREA`).
    PrechargeAll,
    /// Auto refresh (`REF`).
    Refresh,
    /// CKE-low power-down entry.
    PowerDownEnter,
    /// Power-down exit (wakeup).
    PowerDownExit,
    /// Self-refresh entry.
    SelfRefreshEnter,
    /// Self-refresh exit.
    SelfRefreshExit,
}

impl CommandKind {
    /// Short uppercase mnemonic (`ACT`, `RD`, …) for text output.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CommandKind::Activate => "ACT",
            CommandKind::Read => "RD",
            CommandKind::Write => "WR",
            CommandKind::Precharge => "PRE",
            CommandKind::PrechargeAll => "PREA",
            CommandKind::Refresh => "REF",
            CommandKind::PowerDownEnter => "PDE",
            CommandKind::PowerDownExit => "PDX",
            CommandKind::SelfRefreshEnter => "SRE",
            CommandKind::SelfRefreshExit => "SRX",
        }
    }
}

/// Row-buffer outcome of one column access, as decided by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOutcome {
    /// The target row was already open: column access only.
    Hit,
    /// The bank was idle: activate, then access.
    Miss,
    /// Another row was open: precharge, activate, then access.
    Conflict,
}

/// Fault and degradation events the fault-injection layer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// A channel was lost for the whole run (reported once, at apply
    /// time).
    ChannelLost,
    /// A request arrived inside a flaky channel's down window.
    FlakyHit,
    /// A retry attempt on a flaky window.
    Retry,
    /// A request remapped to a neighbour channel after retries ran out.
    Remap,
    /// A controller-stall window delayed a request.
    Stall,
    /// Refresh pressure was applied to the channel (reported once).
    RefreshPressure,
    /// A bank latency penalty was applied to the channel (reported once).
    SlowBank,
}

impl FaultKind {
    /// Short lowercase label for text output.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::ChannelLost => "channel-lost",
            FaultKind::FlakyHit => "flaky-hit",
            FaultKind::Retry => "retry",
            FaultKind::Remap => "remap",
            FaultKind::Stall => "stall",
            FaultKind::RefreshPressure => "refresh-pressure",
            FaultKind::SlowBank => "slow-bank",
        }
    }
}

/// Sink for instrumentation events emitted by the simulated memory stack.
///
/// Every method has a no-op default body, so implementations only override
/// what they care about and the trait can grow without breaking them. All
/// methods take `&self`: recorders that accumulate state use interior
/// mutability (see [`crate::StatsRecorder`]) because one recorder is shared
/// by every channel of a subsystem.
///
/// Hot paths in the simulator hold an `Option` of a recorder handle and skip
/// the call entirely when observability is off, so an attached
/// [`NullRecorder`] and a detached recorder cost the same: one branch.
pub trait Recorder: fmt::Debug + Send + Sync {
    /// A DRAM command was issued on `channel`, bank `bank`, at `at_ps`.
    fn record_command(&self, channel: u32, bank: u8, kind: CommandKind, at_ps: u64) {
        let _ = (channel, bank, kind, at_ps);
    }

    /// A column access on `channel`/`bank` hit, missed, or conflicted in
    /// the row buffer.
    fn record_row_outcome(&self, channel: u32, bank: u8, outcome: RowOutcome) {
        let _ = (channel, bank, outcome);
    }

    /// One channel request retired with the given arrival-to-done latency.
    fn record_latency(&self, channel: u32, latency_ps: u64) {
        let _ = (channel, latency_ps);
    }

    /// Depth of a controller queue observed while handling a request.
    fn record_queue_depth(&self, channel: u32, depth: u64) {
        let _ = (channel, depth);
    }

    /// `bytes` moved on `channel` (`write == true` for writes) at `at_ps`.
    fn record_bytes(&self, channel: u32, write: bool, bytes: u64, at_ps: u64) {
        let _ = (channel, write, bytes, at_ps);
    }

    /// `pj` of event energy attributed to a command of `kind` at `at_ps`.
    fn record_energy(&self, channel: u32, kind: CommandKind, pj: f64, at_ps: u64) {
        let _ = (channel, kind, pj, at_ps);
    }

    /// `pj` of background (state-residency) energy accrued over
    /// `[from_ps, to_ps)`.
    fn record_background(&self, channel: u32, from_ps: u64, to_ps: u64, pj: f64) {
        let _ = (channel, from_ps, to_ps, pj);
    }

    /// A named span of simulated time, e.g. one master transaction.
    /// `channel` is `None` for subsystem-wide spans.
    fn record_span(&self, name: &str, channel: Option<u32>, start_ps: u64, end_ps: u64) {
        let _ = (name, channel, start_ps, end_ps);
    }

    /// A named scalar sampled once per run (e.g. `core_mw`).
    fn record_gauge(&self, name: &str, channel: Option<u32>, value: f64) {
        let _ = (name, channel, value);
    }

    /// The event kernel fired one event at `at_ps`, leaving `pending`
    /// events queued behind it.
    fn record_sim_event(&self, pending: u64, at_ps: u64) {
        let _ = (pending, at_ps);
    }

    /// A fault or degradation event of `kind` on `channel` at `at_ps`.
    fn record_fault(&self, channel: u32, kind: FaultKind, at_ps: u64) {
        let _ = (channel, kind, at_ps);
    }

    /// `bytes` moved on behalf of tenant `tenant` of a multi-tenant
    /// workload (`write == true` for writes). Single-tenant runs never
    /// call this.
    fn record_tenant_op(&self, tenant: u32, write: bool, bytes: u64) {
        let _ = (tenant, write, bytes);
    }
}

/// The do-nothing recorder: every method is the trait default, so calls
/// inline away entirely. Attach it when an API requires *some* recorder but
/// nothing should be kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// A recorder handle pre-bound to one channel.
///
/// The subsystem owns one shared [`Recorder`]; each controller and device
/// receives a `ChannelObs` carrying its channel index, so the hot path
/// never re-derives "which channel am I" when reporting.
#[derive(Debug, Clone)]
pub struct ChannelObs {
    recorder: Arc<dyn Recorder>,
    channel: u32,
}

impl ChannelObs {
    /// Binds `recorder` to `channel`.
    pub fn new(recorder: Arc<dyn Recorder>, channel: u32) -> ChannelObs {
        ChannelObs { recorder, channel }
    }

    /// The channel this handle reports as.
    pub fn channel(&self) -> u32 {
        self.channel
    }

    /// The shared recorder behind this handle.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Forwards to [`Recorder::record_command`] with the bound channel.
    #[inline]
    pub fn command(&self, bank: u8, kind: CommandKind, at_ps: u64) {
        self.recorder
            .record_command(self.channel, bank, kind, at_ps);
    }

    /// Forwards to [`Recorder::record_row_outcome`] with the bound channel.
    #[inline]
    pub fn row_outcome(&self, bank: u8, outcome: RowOutcome) {
        self.recorder
            .record_row_outcome(self.channel, bank, outcome);
    }

    /// Forwards to [`Recorder::record_latency`] with the bound channel.
    #[inline]
    pub fn latency(&self, latency_ps: u64) {
        self.recorder.record_latency(self.channel, latency_ps);
    }

    /// Forwards to [`Recorder::record_queue_depth`] with the bound channel.
    #[inline]
    pub fn queue_depth(&self, depth: u64) {
        self.recorder.record_queue_depth(self.channel, depth);
    }

    /// Forwards to [`Recorder::record_energy`] with the bound channel.
    #[inline]
    pub fn energy(&self, kind: CommandKind, pj: f64, at_ps: u64) {
        self.recorder.record_energy(self.channel, kind, pj, at_ps);
    }

    /// Forwards to [`Recorder::record_background`] with the bound channel.
    #[inline]
    pub fn background(&self, from_ps: u64, to_ps: u64, pj: f64) {
        self.recorder
            .record_background(self.channel, from_ps, to_ps, pj);
    }

    /// Forwards to [`Recorder::record_fault`] with the bound channel.
    #[inline]
    pub fn fault(&self, kind: FaultKind, at_ps: u64) {
        self.recorder.record_fault(self.channel, kind, at_ps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_accepts_everything() {
        let rec = NullRecorder;
        rec.record_command(0, 0, CommandKind::Activate, 0);
        rec.record_row_outcome(0, 0, RowOutcome::Hit);
        rec.record_latency(0, 1);
        rec.record_queue_depth(0, 2);
        rec.record_bytes(0, true, 64, 0);
        rec.record_energy(0, CommandKind::Read, 1.0, 0);
        rec.record_background(0, 0, 10, 0.5);
        rec.record_span("txn", None, 0, 10);
        rec.record_gauge("core_mw", None, 1.0);
        rec.record_sim_event(7, 100);
        rec.record_tenant_op(0, true, 64);
    }

    #[test]
    fn channel_obs_binds_the_channel() {
        let obs = ChannelObs::new(Arc::new(NullRecorder), 3);
        assert_eq!(obs.channel(), 3);
        let cloned = obs.clone();
        assert_eq!(cloned.channel(), 3);
        cloned.command(0, CommandKind::Refresh, 42);
    }

    #[test]
    fn mnemonics_are_unique() {
        let kinds = [
            CommandKind::Activate,
            CommandKind::Read,
            CommandKind::Write,
            CommandKind::Precharge,
            CommandKind::PrechargeAll,
            CommandKind::Refresh,
            CommandKind::PowerDownEnter,
            CommandKind::PowerDownExit,
            CommandKind::SelfRefreshEnter,
            CommandKind::SelfRefreshExit,
        ];
        let mut seen: Vec<&str> = kinds.iter().map(|k| k.mnemonic()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), kinds.len());
    }
}
