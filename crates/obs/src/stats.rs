//! [`StatsRecorder`] — the keep-everything recorder — and its serializable
//! [`ObsReport`] output.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::counters::{BankCounters, ChannelCounters};
use crate::histogram::{HistogramSummary, LogHistogram};
use crate::recorder::{CommandKind, FaultKind, Recorder, RowOutcome};
use crate::timeline::{Timeline, TimelineBucket};
use crate::trace::{chrome_trace, SpanEvent};

/// Tuning knobs for [`StatsRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Timeline bucket width, picoseconds (default 1 µs).
    pub timeline_bucket_ps: u64,
    /// Spans kept before further spans are counted but dropped
    /// (default 100 000). Dropped spans surface in
    /// [`ObsReport::dropped_spans`] — never silently.
    pub max_spans: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            timeline_bucket_ps: 1_000_000,
            max_spans: 100_000,
        }
    }
}

/// Event-energy totals split by cause, pJ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Row activations.
    pub activate_pj: f64,
    /// Read bursts.
    pub read_pj: f64,
    /// Write bursts.
    pub write_pj: f64,
    /// Refreshes.
    pub refresh_pj: f64,
    /// Anything else attributed per-event.
    pub other_pj: f64,
    /// Background (state-residency) energy.
    pub background_pj: f64,
}

impl EnergyBreakdown {
    fn add_event(&mut self, kind: CommandKind, pj: f64) {
        match kind {
            CommandKind::Activate => self.activate_pj += pj,
            CommandKind::Read => self.read_pj += pj,
            CommandKind::Write => self.write_pj += pj,
            CommandKind::Refresh => self.refresh_pj += pj,
            _ => self.other_pj += pj,
        }
    }

    /// Event plus background total, pJ.
    pub fn total_pj(&self) -> f64 {
        self.activate_pj
            + self.read_pj
            + self.write_pj
            + self.refresh_pj
            + self.other_pj
            + self.background_pj
    }
}

#[derive(Debug)]
struct ChannelStats {
    counters: ChannelCounters,
    banks: BTreeMap<u8, BankCounters>,
    latency: LogHistogram,
    queue_depth: LogHistogram,
    energy: EnergyBreakdown,
    timeline: Timeline,
    faults: BTreeMap<FaultKind, u64>,
}

impl ChannelStats {
    fn new(bucket_ps: u64) -> ChannelStats {
        ChannelStats {
            counters: ChannelCounters::default(),
            banks: BTreeMap::new(),
            latency: LogHistogram::new(),
            queue_depth: LogHistogram::new(),
            energy: EnergyBreakdown::default(),
            timeline: Timeline::new(bucket_ps),
            faults: BTreeMap::new(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    channels: BTreeMap<u32, ChannelStats>,
    spans: Vec<SpanEvent>,
    dropped_spans: u64,
    gauges: Vec<GaugeSample>,
    kernel_events: u64,
    kernel_pending: LogHistogram,
    tenants: BTreeMap<u32, TenantTotals>,
}

#[derive(Debug, Default, Clone, Copy)]
struct TenantTotals {
    ops: u64,
    bytes_read: u64,
    bytes_written: u64,
}

/// A recorder that keeps everything: counters, histograms, timelines,
/// spans, and gauges, behind one mutex.
///
/// Share it via `Arc` and attach it with
/// `RunOptions::default().with_recorder(...)`; when the run finishes, call
/// [`StatsRecorder::report`] to distill an [`ObsReport`].
#[derive(Debug)]
pub struct StatsRecorder {
    config: ObsConfig,
    inner: Mutex<Inner>,
}

impl Default for StatsRecorder {
    fn default() -> Self {
        StatsRecorder::new()
    }
}

impl StatsRecorder {
    /// A recorder with [`ObsConfig::default`] settings.
    pub fn new() -> StatsRecorder {
        StatsRecorder::with_config(ObsConfig::default())
    }

    /// A recorder with explicit settings.
    pub fn with_config(config: ObsConfig) -> StatsRecorder {
        StatsRecorder {
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// Non-empty latency-histogram buckets for `channel` as
    /// `(lower_ps, upper_ps, count)` rows — the bucket detail behind the
    /// [`HistogramSummary`] percentiles, for callers that want to render
    /// the full distribution.
    pub fn latency_buckets(&self, channel: u32) -> Vec<(u64, u64, u64)> {
        let inner = self.inner.lock().unwrap();
        inner
            .channels
            .get(&channel)
            .map(|stats| stats.latency.nonzero_buckets())
            .unwrap_or_default()
    }

    fn with_channel<R>(&self, channel: u32, f: impl FnOnce(&mut ChannelStats) -> R) -> R {
        let mut inner = self.inner.lock().unwrap();
        let bucket = self.config.timeline_bucket_ps;
        let stats = inner
            .channels
            .entry(channel)
            .or_insert_with(|| ChannelStats::new(bucket));
        f(stats)
    }

    /// Distills everything recorded so far. Cheap enough to call repeatedly;
    /// the recorder keeps accumulating afterwards.
    pub fn report(&self) -> ObsReport {
        let inner = self.inner.lock().unwrap();
        let channels = inner
            .channels
            .iter()
            .map(|(&channel, stats)| ChannelObsReport {
                channel,
                counters: stats.counters.clone(),
                banks: stats
                    .banks
                    .iter()
                    .map(|(&bank, counters)| BankObsReport {
                        bank,
                        counters: counters.clone(),
                    })
                    .collect(),
                latency_ps: stats.latency.summary(),
                queue_depth: stats.queue_depth.summary(),
                energy: stats.energy,
                timeline: stats.timeline.buckets().to_vec(),
                faults: stats
                    .faults
                    .iter()
                    .map(|(&kind, &count)| FaultCount { kind, count })
                    .collect(),
            })
            .collect();
        ObsReport {
            timeline_bucket_ps: self.config.timeline_bucket_ps,
            channels,
            spans: inner.spans.clone(),
            dropped_spans: inner.dropped_spans,
            gauges: inner.gauges.clone(),
            kernel: KernelObsReport {
                events: inner.kernel_events,
                pending: inner.kernel_pending.summary(),
            },
            tenants: inner
                .tenants
                .iter()
                .map(|(&tenant, totals)| TenantObsReport {
                    tenant,
                    ops: totals.ops,
                    bytes_read: totals.bytes_read,
                    bytes_written: totals.bytes_written,
                })
                .collect(),
        }
    }
}

impl Recorder for StatsRecorder {
    fn record_command(&self, channel: u32, bank: u8, kind: CommandKind, at_ps: u64) {
        let _ = at_ps;
        self.with_channel(channel, |stats| {
            stats.counters.commands.bump(kind);
            stats.banks.entry(bank).or_default().commands.bump(kind);
        });
    }

    fn record_row_outcome(&self, channel: u32, bank: u8, outcome: RowOutcome) {
        self.with_channel(channel, |stats| {
            stats.counters.rows.bump(outcome);
            stats.banks.entry(bank).or_default().rows.bump(outcome);
        });
    }

    fn record_latency(&self, channel: u32, latency_ps: u64) {
        self.with_channel(channel, |stats| {
            stats.counters.requests += 1;
            stats.latency.record(latency_ps);
        });
    }

    fn record_queue_depth(&self, channel: u32, depth: u64) {
        self.with_channel(channel, |stats| stats.queue_depth.record(depth));
    }

    fn record_bytes(&self, channel: u32, write: bool, bytes: u64, at_ps: u64) {
        self.with_channel(channel, |stats| {
            if write {
                stats.counters.bytes_written += bytes;
            } else {
                stats.counters.bytes_read += bytes;
            }
            stats.timeline.add_bytes(at_ps, write, bytes);
        });
    }

    fn record_energy(&self, channel: u32, kind: CommandKind, pj: f64, at_ps: u64) {
        self.with_channel(channel, |stats| {
            stats.energy.add_event(kind, pj);
            stats.timeline.add_energy(at_ps, pj);
        });
    }

    fn record_background(&self, channel: u32, from_ps: u64, to_ps: u64, pj: f64) {
        self.with_channel(channel, |stats| {
            stats.energy.background_pj += pj;
            stats.timeline.add_energy_span(from_ps, to_ps, pj);
        });
    }

    fn record_span(&self, name: &str, channel: Option<u32>, start_ps: u64, end_ps: u64) {
        let mut inner = self.inner.lock().unwrap();
        if inner.spans.len() >= self.config.max_spans {
            inner.dropped_spans += 1;
        } else {
            inner.spans.push(SpanEvent {
                name: name.to_string(),
                channel,
                start_ps,
                end_ps,
            });
        }
    }

    fn record_gauge(&self, name: &str, channel: Option<u32>, value: f64) {
        self.inner.lock().unwrap().gauges.push(GaugeSample {
            name: name.to_string(),
            channel,
            value,
        });
    }

    fn record_sim_event(&self, pending: u64, at_ps: u64) {
        let _ = at_ps;
        let mut inner = self.inner.lock().unwrap();
        inner.kernel_events += 1;
        inner.kernel_pending.record(pending);
    }

    fn record_fault(&self, channel: u32, kind: FaultKind, at_ps: u64) {
        let _ = at_ps;
        self.with_channel(channel, |stats| {
            *stats.faults.entry(kind).or_default() += 1;
        });
    }

    fn record_tenant_op(&self, tenant: u32, write: bool, bytes: u64) {
        let mut inner = self.inner.lock().unwrap();
        let totals = inner.tenants.entry(tenant).or_default();
        totals.ops += 1;
        if write {
            totals.bytes_written += bytes;
        } else {
            totals.bytes_read += bytes;
        }
    }
}

/// One named scalar sampled during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Gauge name, e.g. `"core_mw"`.
    pub name: String,
    /// Channel the value belongs to; `None` for run-wide gauges.
    pub channel: Option<u32>,
    /// The sampled value.
    pub value: f64,
}

/// Per-bank slice of an [`ObsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankObsReport {
    /// Bank index within the channel.
    pub bank: u8,
    /// Everything counted for the bank.
    pub counters: BankCounters,
}

/// How often one fault or degradation event fired on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCount {
    /// The fault/degradation event kind.
    pub kind: FaultKind,
    /// How many times it was recorded.
    pub count: u64,
}

/// Per-channel slice of an [`ObsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelObsReport {
    /// Channel index.
    pub channel: u32,
    /// Channel-level counters.
    pub counters: ChannelCounters,
    /// Per-bank counters, ascending bank index.
    pub banks: Vec<BankObsReport>,
    /// Request-latency summary, picoseconds.
    pub latency_ps: HistogramSummary,
    /// Write-queue-depth summary, entries.
    pub queue_depth: HistogramSummary,
    /// Energy split by cause.
    pub energy: EnergyBreakdown,
    /// Bandwidth/energy timeline buckets (width
    /// [`ObsReport::timeline_bucket_ps`]).
    pub timeline: Vec<TimelineBucket>,
    /// Fault/degradation event counts, ascending [`FaultKind`] order.
    /// Empty for healthy runs.
    pub faults: Vec<FaultCount>,
}

/// Event-kernel statistics: how hard the discrete-event engine itself
/// worked. All zeros when the run never touched the event kernel (the
/// direct-call path).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelObsReport {
    /// Events fired by the kernel.
    pub events: u64,
    /// Queue depth (events still pending) sampled at every fire.
    pub pending: HistogramSummary,
}

/// Per-tenant traffic totals for a multi-tenant workload run.
///
/// Empty for single-tenant runs: the simulator only attributes ops to
/// tenants when the workload defines tenant address spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantObsReport {
    /// Tenant index within the workload (0-based).
    pub tenant: u32,
    /// Memory operations attributed to this tenant.
    pub ops: u64,
    /// Bytes read on behalf of this tenant.
    pub bytes_read: u64,
    /// Bytes written on behalf of this tenant.
    pub bytes_written: u64,
}

/// Everything a [`StatsRecorder`] captured, in serializable form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Width of every timeline bucket, picoseconds.
    pub timeline_bucket_ps: u64,
    /// Per-channel breakdowns, ascending channel index.
    pub channels: Vec<ChannelObsReport>,
    /// Captured spans, in recording order.
    pub spans: Vec<SpanEvent>,
    /// Spans discarded after [`ObsConfig::max_spans`] was hit.
    pub dropped_spans: u64,
    /// Run-wide scalars (power summaries etc.).
    pub gauges: Vec<GaugeSample>,
    /// Event-kernel statistics (zeros on the direct-call path).
    pub kernel: KernelObsReport,
    /// Per-tenant traffic totals, ascending tenant index. Empty unless
    /// the run used a multi-tenant workload.
    pub tenants: Vec<TenantObsReport>,
}

fn ps_opt_to_ns(ps: Option<u64>) -> f64 {
    ps.map(|p| p as f64 / 1e3).unwrap_or(f64::NAN)
}

impl ObsReport {
    /// Pretty JSON of the whole report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ObsReport is always serializable")
    }

    /// Per-channel counters and latency percentiles as CSV (one header row,
    /// one row per channel).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "channel,requests,activates,reads,writes,precharges,refreshes,\
             power_down_entries,power_down_exits,row_hits,row_misses,row_conflicts,\
             bytes_read,bytes_written,latency_p50_ns,latency_p95_ns,latency_p99_ns,\
             latency_max_ns,energy_pj\n",
        );
        for ch in &self.channels {
            let c = &ch.counters;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3}",
                ch.channel,
                c.requests,
                c.commands.activates,
                c.commands.reads,
                c.commands.writes,
                c.commands.precharges + c.commands.precharge_alls,
                c.commands.refreshes,
                c.commands.power_down_entries,
                c.commands.power_down_exits,
                c.rows.hits,
                c.rows.misses,
                c.rows.conflicts,
                c.bytes_read,
                c.bytes_written,
                ps_opt_to_ns(ch.latency_ps.p50),
                ps_opt_to_ns(ch.latency_ps.p95),
                ps_opt_to_ns(ch.latency_ps.p99),
                ps_opt_to_ns(ch.latency_ps.max),
                ch.energy.total_pj(),
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (Perfetto / `chrome://tracing` loadable).
    pub fn to_chrome_trace(&self) -> String {
        // Rebuild per-channel timelines from the report's buckets so the
        // export works on deserialized reports too.
        let timelines: Vec<(u32, Timeline)> = self
            .channels
            .iter()
            .map(|ch| {
                let mut t = Timeline::new(self.timeline_bucket_ps);
                for (i, bucket) in ch.timeline.iter().enumerate() {
                    let at = self.timeline_bucket_ps * i as u64;
                    t.add_bytes(at, false, bucket.read_bytes);
                    t.add_bytes(at, true, bucket.write_bytes);
                    t.add_energy(at, bucket.energy_pj);
                }
                (ch.channel, t)
            })
            .collect();
        let refs: Vec<(u32, &Timeline)> = timelines.iter().map(|(ch, t)| (*ch, t)).collect();
        serde_json::to_string_pretty(&chrome_trace(&self.spans, &refs))
            .expect("trace is always serializable")
    }

    /// Human-readable multi-line rendering for terminals.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for ch in &self.channels {
            let c = &ch.counters;
            let _ = writeln!(out, "channel {}", ch.channel);
            let _ = writeln!(
                out,
                "  commands   ACT {}  RD {}  WR {}  PRE {}  REF {}  PDE {}  PDX {}",
                c.commands.activates,
                c.commands.reads,
                c.commands.writes,
                c.commands.precharges + c.commands.precharge_alls,
                c.commands.refreshes,
                c.commands.power_down_entries,
                c.commands.power_down_exits,
            );
            let hit_rate = c
                .rows
                .hit_rate()
                .map(|r| format!("{:.1} %", r * 100.0))
                .unwrap_or_else(|| "n/a".into());
            let _ = writeln!(
                out,
                "  row buffer hit {}  miss {}  conflict {}  (hit rate {})",
                c.rows.hits, c.rows.misses, c.rows.conflicts, hit_rate
            );
            let _ = writeln!(
                out,
                "  traffic    {} read B, {} written B over {} requests",
                c.bytes_read, c.bytes_written, c.requests
            );
            let l = &ch.latency_ps;
            let _ = writeln!(
                out,
                "  latency    p50 {:.1} ns  p95 {:.1} ns  p99 {:.1} ns  max {:.1} ns",
                ps_opt_to_ns(l.p50),
                ps_opt_to_ns(l.p95),
                ps_opt_to_ns(l.p99),
                ps_opt_to_ns(l.max),
            );
            let q = &ch.queue_depth;
            if q.count > 0 {
                let _ = writeln!(
                    out,
                    "  queue      p50 {}  p99 {}  max {} pending writes",
                    q.p50.unwrap_or(0),
                    q.p99.unwrap_or(0),
                    q.max.unwrap_or(0),
                );
            }
            let e = &ch.energy;
            let _ = writeln!(
                out,
                "  energy     {:.1} pJ (ACT {:.1}, RD {:.1}, WR {:.1}, REF {:.1}, background {:.1})",
                e.total_pj(),
                e.activate_pj,
                e.read_pj,
                e.write_pj,
                e.refresh_pj,
                e.background_pj,
            );
            if !ch.faults.is_empty() {
                let parts: Vec<String> = ch
                    .faults
                    .iter()
                    .map(|f| format!("{} {}", f.kind.label(), f.count))
                    .collect();
                let _ = writeln!(out, "  faults     {}", parts.join("  "));
            }
        }
        if self.kernel.events > 0 {
            let _ = writeln!(
                out,
                "kernel: {} events fired, pending p50 {}  p99 {}  max {}",
                self.kernel.events,
                self.kernel.pending.p50.unwrap_or(0),
                self.kernel.pending.p99.unwrap_or(0),
                self.kernel.pending.max.unwrap_or(0),
            );
        }
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "tenant {}: {} ops, {} read B, {} written B",
                t.tenant, t.ops, t.bytes_read, t.bytes_written
            );
        }
        if !self.spans.is_empty() || self.dropped_spans > 0 {
            let _ = writeln!(
                out,
                "spans: {} captured, {} dropped",
                self.spans.len(),
                self.dropped_spans
            );
        }
        for gauge in &self.gauges {
            let scope = gauge
                .channel
                .map(|ch| format!("ch{ch} "))
                .unwrap_or_default();
            let _ = writeln!(out, "gauge {}{} = {:.3}", scope, gauge.name, gauge.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a fixed five-request scenario on two channels and checks
    /// every aggregate against hand-computed values.
    fn tiny_trace() -> StatsRecorder {
        let rec = StatsRecorder::with_config(ObsConfig {
            timeline_bucket_ps: 1_000,
            max_spans: 4,
        });
        // Channel 0, bank 0: miss (ACT+RD), then two hits (RD, RD).
        rec.record_row_outcome(0, 0, RowOutcome::Miss);
        rec.record_command(0, 0, CommandKind::Activate, 0);
        rec.record_command(0, 0, CommandKind::Read, 100);
        rec.record_row_outcome(0, 0, RowOutcome::Hit);
        rec.record_command(0, 0, CommandKind::Read, 500);
        rec.record_row_outcome(0, 0, RowOutcome::Hit);
        rec.record_command(0, 0, CommandKind::Read, 900);
        rec.record_bytes(0, false, 96, 900);
        rec.record_latency(0, 1_000);
        rec.record_latency(0, 2_000);
        rec.record_latency(0, 8_000);
        // Channel 1, bank 2: one conflict write.
        rec.record_row_outcome(1, 2, RowOutcome::Conflict);
        rec.record_command(1, 2, CommandKind::Precharge, 1_000);
        rec.record_command(1, 2, CommandKind::Activate, 1_200);
        rec.record_command(1, 2, CommandKind::Write, 1_500);
        rec.record_bytes(1, true, 32, 1_500);
        rec.record_latency(1, 4_000);
        rec.record_latency(1, 4_000);
        rec.record_energy(0, CommandKind::Activate, 10.0, 0);
        rec.record_background(0, 0, 2_000, 4.0);
        rec.record_span("txn", Some(0), 0, 2_000);
        rec
    }

    #[test]
    fn counters_match_hand_computed_totals() {
        let report = tiny_trace().report();
        assert_eq!(report.channels.len(), 2);
        let ch0 = &report.channels[0];
        assert_eq!(ch0.channel, 0);
        assert_eq!(ch0.counters.commands.activates, 1);
        assert_eq!(ch0.counters.commands.reads, 3);
        assert_eq!(ch0.counters.rows.hits, 2);
        assert_eq!(ch0.counters.rows.misses, 1);
        assert_eq!(ch0.counters.rows.hit_rate(), Some(2.0 / 3.0));
        assert_eq!(ch0.counters.bytes_read, 96);
        assert_eq!(ch0.counters.requests, 3);
        assert_eq!(ch0.banks.len(), 1);
        assert_eq!(ch0.banks[0].bank, 0);
        assert_eq!(ch0.banks[0].counters.commands.reads, 3);

        let ch1 = &report.channels[1];
        assert_eq!(ch1.counters.commands.writes, 1);
        assert_eq!(ch1.counters.commands.precharges, 1);
        assert_eq!(ch1.counters.rows.conflicts, 1);
        assert_eq!(ch1.counters.bytes_written, 32);
        assert_eq!(ch1.banks[0].bank, 2);
    }

    #[test]
    fn latency_percentiles_match_hand_computed_buckets() {
        let report = tiny_trace().report();
        let l = &report.channels[0].latency_ps;
        // Samples 1000, 2000, 8000 → buckets [512,1023], [1024,2047],
        // [4096,8191]. p50 rank 2 → 2047; p99 rank 3 → 8191, clamped 8000.
        assert_eq!(l.count, 3);
        assert_eq!(l.p50, Some(2_047));
        assert_eq!(l.p99, Some(8_000));
        assert_eq!(l.max, Some(8_000));
        // Channel 1: both samples 4000 → bucket [2048,4095] clamped to 4000.
        let l1 = &report.channels[1].latency_ps;
        assert_eq!(l1.p50, Some(4_000));
        assert_eq!(l1.p99, Some(4_000));
    }

    #[test]
    fn energy_splits_between_event_and_background() {
        let report = tiny_trace().report();
        let e = &report.channels[0].energy;
        assert_eq!(e.activate_pj, 10.0);
        assert_eq!(e.background_pj, 4.0);
        assert_eq!(e.total_pj(), 14.0);
        // Background spread 2 pJ into each of the first two 1 ns buckets;
        // the 10 pJ ACT lands in bucket 0.
        let t = &report.channels[0].timeline;
        assert!((t[0].energy_pj - 12.0).abs() < 1e-12);
        assert!((t[1].energy_pj - 2.0).abs() < 1e-12);
    }

    #[test]
    fn span_cap_counts_drops_instead_of_hiding_them() {
        let rec = StatsRecorder::with_config(ObsConfig {
            timeline_bucket_ps: 1_000,
            max_spans: 2,
        });
        for i in 0..5u64 {
            rec.record_span("txn", None, i, i + 1);
        }
        let report = rec.report();
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.dropped_spans, 3);
        assert!(report.render_text().contains("3 dropped"));
    }

    #[test]
    fn exports_are_well_formed() {
        let report = tiny_trace().report();
        // JSON round-trips.
        let back: ObsReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
        // CSV has a header plus one row per channel.
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,3,1,3,0,"));
        // Text mentions both channels and the hit rate.
        let text = report.render_text();
        assert!(text.contains("channel 0"));
        assert!(text.contains("channel 1"));
        assert!(text.contains("hit rate 66.7 %"));
        // Chrome trace parses and contains the span.
        let trace: serde_json::Value = serde_json::from_str(&report.to_chrome_trace()).unwrap();
        assert!(trace["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .any(|e| e["ph"] == "X" && e["name"] == "txn"));
    }

    #[test]
    fn kernel_events_accumulate_and_render() {
        let rec = StatsRecorder::new();
        assert_eq!(rec.report().kernel.events, 0);
        rec.record_sim_event(3, 100);
        rec.record_sim_event(1, 200);
        rec.record_sim_event(0, 300);
        let report = rec.report();
        assert_eq!(report.kernel.events, 3);
        assert_eq!(report.kernel.pending.count, 3);
        assert_eq!(report.kernel.pending.max, Some(3));
        assert!(report.render_text().contains("kernel: 3 events fired"));
    }

    #[test]
    fn fault_counts_accumulate_per_channel_and_render() {
        let rec = StatsRecorder::new();
        rec.record_fault(1, FaultKind::FlakyHit, 100);
        rec.record_fault(1, FaultKind::FlakyHit, 200);
        rec.record_fault(1, FaultKind::Retry, 250);
        rec.record_fault(2, FaultKind::ChannelLost, 0);
        let report = rec.report();
        let ch1 = report.channels.iter().find(|c| c.channel == 1).unwrap();
        assert_eq!(
            ch1.faults,
            vec![
                FaultCount {
                    kind: FaultKind::FlakyHit,
                    count: 2
                },
                FaultCount {
                    kind: FaultKind::Retry,
                    count: 1
                },
            ]
        );
        let text = report.render_text();
        assert!(text.contains("faults     flaky-hit 2  retry 1"));
        assert!(text.contains("faults     channel-lost 1"));
        // Healthy channels keep the fault line out of the text entirely.
        let healthy = tiny_trace().report();
        assert!(!healthy.render_text().contains("faults"));
        // And the new field round-trips through JSON.
        let back: ObsReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn tenant_ops_accumulate_and_render() {
        let rec = StatsRecorder::new();
        rec.record_tenant_op(1, false, 100);
        rec.record_tenant_op(0, true, 64);
        rec.record_tenant_op(1, true, 36);
        let report = rec.report();
        assert_eq!(
            report.tenants,
            vec![
                TenantObsReport {
                    tenant: 0,
                    ops: 1,
                    bytes_read: 0,
                    bytes_written: 64
                },
                TenantObsReport {
                    tenant: 1,
                    ops: 2,
                    bytes_read: 100,
                    bytes_written: 36
                },
            ]
        );
        let text = report.render_text();
        assert!(text.contains("tenant 0: 1 ops, 0 read B, 64 written B"));
        assert!(text.contains("tenant 1: 2 ops, 100 read B, 36 written B"));
        // Single-tenant runs keep the tenant lines out entirely.
        assert!(!tiny_trace().report().render_text().contains("tenant"));
        // And the field round-trips through JSON.
        let back: ObsReport = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn gauges_render_with_scope() {
        let rec = StatsRecorder::new();
        rec.record_gauge("core_mw", None, 12.5);
        rec.record_gauge("interface_mw", Some(1), 3.25);
        let text = rec.report().render_text();
        assert!(text.contains("gauge core_mw = 12.500"));
        assert!(text.contains("gauge ch1 interface_mw = 3.250"));
    }
}
