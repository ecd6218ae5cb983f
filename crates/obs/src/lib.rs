//! # mcm-obs — observability for the mcmem simulator
//!
//! The paper's whole argument rests on *visibility* into memory behaviour:
//! per-stage traffic (Table I), per-channel bandwidth and utilisation, and
//! power split into core / interface / power-down components. This crate is
//! the instrumentation seam that makes those quantities observable on any
//! run:
//!
//! * [`Recorder`] — the trait every simulated layer reports through, with
//!   no-op defaults so the disabled path costs one branch;
//! * [`NullRecorder`] — keeps nothing, for APIs that demand a recorder;
//! * [`StatsRecorder`] — keeps per-channel/per-bank [counters](ChannelCounters),
//!   log-scaled latency and queue-depth [histograms](LogHistogram) with
//!   p50/p95/p99/max summaries, bandwidth/energy [timelines](Timeline), and
//!   span capture;
//! * [`ObsReport`] — the serializable result, exportable as text, JSON, CSV,
//!   and Chrome `trace_event` JSON (loadable in Perfetto or
//!   `chrome://tracing`).
//!
//! Timestamps are plain `u64` picoseconds so this crate has no simulator
//! dependencies and every layer — including the event kernel — can depend
//! on it without cycles.
//!
//! # Examples
//!
//! ```
//! use mcm_obs::{CommandKind, Recorder, RowOutcome, StatsRecorder};
//!
//! let rec = StatsRecorder::new();
//! rec.record_row_outcome(0, 0, RowOutcome::Miss);
//! rec.record_command(0, 0, CommandKind::Activate, 0);
//! rec.record_command(0, 0, CommandKind::Read, 6_000);
//! rec.record_latency(0, 22_500); // 22.5 ns, in ps
//!
//! let report = rec.report();
//! assert_eq!(report.channels[0].counters.commands.activates, 1);
//! assert_eq!(report.channels[0].latency_ps.count, 1);
//! assert!(report.to_chrome_trace().contains("traceEvents"));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod counters;
mod histogram;
mod recorder;
mod stats;
mod timeline;
mod trace;

pub use counters::{BankCounters, ChannelCounters, CommandCounters, RowOutcomeCounters};
pub use histogram::{HistogramSummary, LogHistogram, BUCKETS};
pub use recorder::{ChannelObs, CommandKind, FaultKind, NullRecorder, Recorder, RowOutcome};
pub use stats::{
    BankObsReport, ChannelObsReport, EnergyBreakdown, FaultCount, GaugeSample, KernelObsReport,
    ObsConfig, ObsReport, StatsRecorder, TenantObsReport,
};
pub use timeline::{Timeline, TimelineBucket, MAX_BUCKETS};
pub use trace::{chrome_trace, SpanEvent, MASTER_TID};
