//! The multi-channel memory subsystem (Fig. 2 of the paper): M parallel
//! channels, each a memory controller + DRAM interconnect + bank cluster,
//! fed by master transactions that the Table II interleaving spreads over
//! all channels.

use std::sync::Arc;

use mcm_ctrl::{AccessOp, ChannelReport, ChannelRequest, Controller, ControllerConfig};
use mcm_dram::AddressMapping;
use mcm_fault::{FaultPlan, WindowSpec};
use mcm_obs::{ChannelObs, FaultKind, Recorder};
use mcm_sim::{ClockDomain, Frequency, SimTime};
use serde::{Deserialize, Serialize};

use crate::error::ChannelError;
use crate::interleave::InterleaveMap;

/// Configuration of the whole memory subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Number of channels (paper: 1, 2, 4 or 8).
    pub channels: u32,
    /// Interface clock, MHz, shared by all channels (paper: 200–533).
    pub clock_mhz: u64,
    /// Interleaving granularity, bytes (paper: 16).
    pub granule_bytes: u64,
    /// Per-channel controller configuration template.
    pub controller: ControllerConfig,
}

impl MemoryConfig {
    /// The paper's configuration: `channels` × next-generation mobile DDR at
    /// `clock_mhz`, RBC mapping, open page, immediate power-down, 16-byte
    /// interleave.
    pub fn paper(channels: u32, clock_mhz: u64) -> Self {
        MemoryConfig {
            channels,
            clock_mhz,
            granule_bytes: 16,
            controller: ControllerConfig::paper_default(clock_mhz),
        }
    }

    /// Same configuration with a different address multiplexing type
    /// (for the RBC/BRC ablation).
    pub fn with_mapping(mut self, mapping: AddressMapping) -> Self {
        self.controller.mapping = mapping;
        self
    }

    /// Total capacity across channels, bytes: the device geometry's
    /// capacity times the channel count.
    pub fn capacity_bytes(&self) -> u64 {
        self.controller.cluster.geometry.capacity_bytes() * u64::from(self.channels)
    }

    /// Theoretical peak bandwidth: channels × bus width × 2 (DDR) × clock,
    /// bytes per second.
    pub fn peak_bandwidth_bytes_per_s(&self) -> f64 {
        let word = self.controller.cluster.geometry.word_bytes() as f64;
        self.channels as f64 * word * 2.0 * self.clock_mhz as f64 * 1e6
    }
}

/// A master transaction: what the SMP/cache side of Fig. 2 emits toward the
/// memory subsystem after a cache miss or write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterTransaction {
    /// Direction.
    pub op: AccessOp,
    /// Global byte address.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Arrival cycle on the (shared) interface clock.
    pub arrival: u64,
}

/// Timing outcome of one master transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransactionResult {
    /// Cycle at which the last involved channel finished the last data beat.
    pub done_cycle: u64,
    /// How many channels the transaction touched.
    pub channels_used: u32,
}

/// Aggregated end-of-run report for the subsystem.
#[derive(Debug, Clone)]
pub struct SubsystemReport {
    /// Per-channel reports.
    pub channels: Vec<ChannelReport>,
    /// Cycle at which the whole subsystem drained (max over channels).
    pub busy_until: u64,
    /// Wall-clock equivalent of [`SubsystemReport::busy_until`].
    pub access_time: SimTime,
    /// Total DRAM core energy across channels, picojoules.
    pub core_energy_pj: f64,
    /// Bytes read through the subsystem.
    pub bytes_read: u64,
    /// Bytes written through the subsystem.
    pub bytes_written: u64,
}

impl SubsystemReport {
    /// Average core power over `horizon`, milliwatts.
    pub fn core_power_mw(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.core_energy_pj / horizon.as_ns_f64() / 1e3 * 1e3 // pJ/ns = mW
    }

    /// Achieved bandwidth over the busy period, bytes per second.
    pub fn achieved_bandwidth_bytes_per_s(&self) -> f64 {
        let t = self.access_time.as_s_f64();
        if t == 0.0 {
            return 0.0;
        }
        (self.bytes_read + self.bytes_written) as f64 / t
    }
}

/// Degradation counters accumulated while a fault plan is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeStats {
    /// Requests that arrived inside a flaky channel's down window.
    pub flaky_hits: u64,
    /// Retry attempts made on flaky windows.
    pub retries: u64,
    /// Requests remapped to a neighbour channel after retries ran out.
    pub remaps: u64,
}

/// Runtime state of an applied [`FaultPlan`]: the degraded interleave over
/// the surviving channels, per-channel flaky windows, and the per-channel
/// arrival floors that keep each controller's FCFS invariant intact while
/// retries and remaps shuffle arrival times.
#[derive(Debug)]
struct FaultState {
    /// Interleave over the survivors (slot-indexed).
    map: InterleaveMap,
    /// Slot → physical channel.
    survivors: Vec<u32>,
    /// Flaky window per *physical* channel.
    flaky: Vec<Option<WindowSpec>>,
    /// Per-physical-channel minimum arrival for the next request. Retries
    /// and remaps can move one slice's arrival past a later transaction's
    /// raw arrival; clamping to the floor preserves monotonicity.
    floors: Vec<u64>,
    max_retries: u32,
    backoff: u64,
    stats: DegradeStats,
}

/// The paper's Fig. 2 memory subsystem: M channels of memory controller +
/// DRAM interconnect + bank cluster behind a Table II interleaver.
///
/// # Examples
///
/// ```
/// use mcm_channel::{MasterTransaction, MemoryConfig, MemorySubsystem};
/// use mcm_ctrl::AccessOp;
///
/// let mut mem = MemorySubsystem::new(&MemoryConfig::paper(4, 400)).unwrap();
/// let res = mem.submit(MasterTransaction {
///     op: AccessOp::Read, addr: 0, len: 64, arrival: 0,
/// }).unwrap();
/// assert_eq!(res.channels_used, 4); // a 64-byte line spans all 4 channels
/// ```
#[derive(Debug)]
pub struct MemorySubsystem {
    controllers: Vec<Controller>,
    interleave: InterleaveMap,
    clock: ClockDomain,
    capacity_bytes: u64,
    bytes_read: u64,
    bytes_written: u64,
    recorder: Option<Arc<dyn Recorder>>,
    /// Reused per-transaction fan-out buffer (one slot per channel), so
    /// `submit` never allocates on the hot path.
    slice_buf: Vec<Option<(u64, u64)>>,
    /// Active fault plan state; `None` (healthy) keeps the hot path
    /// untouched apart from one branch in `submit`.
    faults: Option<FaultState>,
}

impl MemorySubsystem {
    /// Builds the subsystem; validates channel count, granule and the
    /// per-channel configuration.
    pub fn new(config: &MemoryConfig) -> Result<Self, ChannelError> {
        // A healthy subsystem needs a power-of-two channel count (Table II
        // address-bit slicing); only a *degraded* subsystem re-interleaves
        // over an arbitrary survivor count.
        if !config.channels.is_power_of_two() {
            return Err(ChannelError::BadConfig {
                reason: format!(
                    "channel count {} must be a power of two (paper: 1, 2, 4 or 8)",
                    config.channels
                ),
            });
        }
        let interleave = InterleaveMap::new(config.channels, config.granule_bytes)?;
        let burst = config.controller.cluster.geometry.burst_bytes() as u64;
        if !config.granule_bytes.is_multiple_of(burst) {
            return Err(ChannelError::BadConfig {
                reason: format!(
                    "granule {} B must be a multiple of the {} B DRAM burst",
                    config.granule_bytes, burst
                ),
            });
        }
        if config.controller.cluster.clock_mhz != config.clock_mhz {
            return Err(ChannelError::BadConfig {
                reason: format!(
                    "subsystem clock {} MHz disagrees with controller clock {} MHz",
                    config.clock_mhz, config.controller.cluster.clock_mhz
                ),
            });
        }
        let mut controllers = Vec::with_capacity(config.channels as usize);
        for channel in 0..config.channels {
            controllers.push(
                Controller::new(&config.controller)
                    .map_err(|source| ChannelError::Ctrl { channel, source })?,
            );
        }
        let clock = ClockDomain::new(Frequency::from_mhz(config.clock_mhz)).map_err(|e| {
            ChannelError::BadConfig {
                reason: e.to_string(),
            }
        })?;
        Ok(MemorySubsystem {
            controllers,
            interleave,
            clock,
            capacity_bytes: config.capacity_bytes(),
            bytes_read: 0,
            bytes_written: 0,
            recorder: None,
            slice_buf: Vec::new(),
            faults: None,
        })
    }

    /// Applies a fault plan: survivors are re-interleaved to cover the
    /// (shrunken) address space, flaky windows arm the retry/remap path,
    /// and bank penalties, refresh pressure and controller stalls are
    /// pushed down into the affected controllers. Attach a recorder first
    /// if the one-time fault events should be observed. A plan can be
    /// applied at most once, before any traffic is submitted.
    pub fn apply_faults(&mut self, plan: &FaultPlan) -> Result<(), ChannelError> {
        if self.faults.is_some() {
            return Err(ChannelError::BadConfig {
                reason: "a fault plan is already applied".into(),
            });
        }
        if self.bytes_read + self.bytes_written > 0 {
            return Err(ChannelError::BadConfig {
                reason: "fault plans must be applied before traffic".into(),
            });
        }
        let channels = self.channels();
        plan.validate(channels)
            .map_err(|e| ChannelError::BadConfig {
                reason: e.to_string(),
            })?;
        let survivors = plan.survivors(channels);
        let map = InterleaveMap::new(survivors.len() as u32, self.interleave.granule_bytes())?;
        let flaky: Vec<Option<WindowSpec>> = (0..channels).map(|c| plan.flaky_window(c)).collect();
        // Push the controller-level faults down.
        let divisor = plan.refresh_divisor();
        for &ch in &survivors {
            let ctrl = &mut self.controllers[ch as usize];
            if divisor > 1 {
                ctrl.set_refresh_pressure(divisor);
            }
            if let Some(w) = plan.stall_window(ch) {
                ctrl.set_stall_window(w.period, w.down, w.phase);
            }
        }
        for (ch, bank, extra_trcd, extra_trp) in plan.bank_penalties() {
            self.controllers[ch as usize]
                .set_bank_penalty(bank, extra_trcd, extra_trp)
                .map_err(|source| ChannelError::Ctrl {
                    channel: ch,
                    source,
                })?;
        }
        // One-time fault events for the observability layer.
        if let Some(rec) = &self.recorder {
            for &ch in &plan.lost_channels() {
                rec.record_fault(ch, FaultKind::ChannelLost, 0);
            }
            if divisor > 1 {
                for &ch in &survivors {
                    rec.record_fault(ch, FaultKind::RefreshPressure, 0);
                }
            }
            for (ch, _, _, _) in plan.bank_penalties() {
                rec.record_fault(ch, FaultKind::SlowBank, 0);
            }
        }
        // The degraded subsystem only covers the survivors' capacity.
        let per_channel = self.capacity_bytes / channels as u64;
        self.capacity_bytes = per_channel * survivors.len() as u64;
        self.faults = Some(FaultState {
            map,
            survivors,
            flaky,
            floors: vec![0; channels as usize],
            max_retries: plan.policy.max_retries,
            backoff: plan.policy.backoff_cycles,
            stats: DegradeStats::default(),
        });
        Ok(())
    }

    /// Degradation counters so far, when a fault plan is applied.
    pub fn degrade_stats(&self) -> Option<DegradeStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// The surviving physical channels under the applied fault plan, or
    /// `None` when the subsystem is healthy.
    pub fn fault_survivors(&self) -> Option<&[u32]> {
        self.faults.as_ref().map(|f| f.survivors.as_slice())
    }

    /// Attaches an observability recorder to the whole subsystem: every
    /// controller and device reports through a per-channel handle, and the
    /// subsystem itself reports per-slice traffic and one span per master
    /// transaction. Off by default (the disabled path is one branch).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        for (ch, ctrl) in self.controllers.iter_mut().enumerate() {
            ctrl.set_obs(ChannelObs::new(Arc::clone(&recorder), ch as u32));
        }
        self.recorder = Some(recorder);
    }

    /// The interleaving in use.
    pub fn interleave(&self) -> &InterleaveMap {
        &self.interleave
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.controllers.len() as u32
    }

    /// Total capacity across channels, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The shared interface clock.
    pub fn clock(&self) -> ClockDomain {
        self.clock
    }

    /// Turns on command tracing in every channel's controller so the
    /// per-channel traces can later be audited (e.g. by `mcm-verify`).
    /// Full-frame traces are large; bound the run with an op limit.
    pub fn enable_trace(&mut self) {
        for ctrl in &mut self.controllers {
            ctrl.enable_trace();
        }
    }

    /// Access to one channel's controller (e.g. for statistics).
    pub fn controller(&self, channel: u32) -> Result<&Controller, ChannelError> {
        self.controllers
            .get(channel as usize)
            .ok_or(ChannelError::BadChannel {
                channel,
                channels: self.channels(),
            })
    }

    /// Submits one master transaction; the interleaver fans it out and every
    /// touched channel processes its slice. Returns when the last channel
    /// finishes (channels work in parallel).
    pub fn submit(&mut self, txn: MasterTransaction) -> Result<TransactionResult, ChannelError> {
        if txn.len == 0 {
            return Err(ChannelError::BadConfig {
                reason: "zero-length master transaction".into(),
            });
        }
        let end = txn
            .addr
            .checked_add(txn.len)
            .ok_or(ChannelError::AddressOutOfRange {
                addr: txn.addr,
                capacity_bytes: self.capacity_bytes,
            })?;
        if end > self.capacity_bytes {
            return Err(ChannelError::AddressOutOfRange {
                addr: txn.addr,
                capacity_bytes: self.capacity_bytes,
            });
        }
        // Take the fault state out so the degraded path can borrow `self`
        // (controllers, recorder, buffers) freely alongside it.
        if let Some(mut fs) = self.faults.take() {
            let result = self.submit_degraded(&mut fs, txn);
            self.faults = Some(fs);
            return result;
        }
        let mut slices = std::mem::take(&mut self.slice_buf);
        self.interleave
            .split_range_into(txn.addr, txn.len, &mut slices);
        let mut done = 0u64;
        let mut used = 0u32;
        for (ch, slice) in slices.iter().enumerate() {
            let Some((local, len)) = *slice else { continue };
            let res = self.controllers[ch]
                .access(ChannelRequest {
                    op: txn.op,
                    addr: local,
                    len: len as u32,
                    arrival: txn.arrival,
                })
                .map_err(|source| ChannelError::Ctrl {
                    channel: ch as u32,
                    source,
                })?;
            if let Some(rec) = &self.recorder {
                let at_ps = self.clock.time_of_cycles(res.done_cycle).as_ps();
                rec.record_bytes(ch as u32, txn.op == AccessOp::Write, len, at_ps);
            }
            done = done.max(res.done_cycle);
            used += 1;
        }
        self.slice_buf = slices;
        match txn.op {
            AccessOp::Read => self.bytes_read += txn.len,
            AccessOp::Write => self.bytes_written += txn.len,
        }
        if let Some(rec) = &self.recorder {
            rec.record_span(
                "txn",
                None,
                self.clock.time_of_cycles(txn.arrival).as_ps(),
                self.clock.time_of_cycles(done.max(txn.arrival)).as_ps(),
            );
        }
        Ok(TransactionResult {
            done_cycle: done,
            channels_used: used,
        })
    }

    /// The degraded counterpart of [`MemorySubsystem::submit`]: slices over
    /// the surviving channels' interleave, retries flaky-window hits with
    /// linear backoff, and remaps a slice to the next surviving channel
    /// when retries run out. Per-channel arrival floors keep every
    /// controller's FCFS arrival invariant intact while the adjustments
    /// shuffle arrival times.
    ///
    /// A remapped slice keeps its local address on the neighbour channel —
    /// this is a timing model; real hardware would consult a sparse remap
    /// table for placement.
    fn submit_degraded(
        &mut self,
        fs: &mut FaultState,
        txn: MasterTransaction,
    ) -> Result<TransactionResult, ChannelError> {
        let mut slices = std::mem::take(&mut self.slice_buf);
        fs.map.split_range_into(txn.addr, txn.len, &mut slices);
        let mut done = 0u64;
        let mut used = 0u32;
        for (slot, slice) in slices.iter().enumerate() {
            let Some((local, len)) = *slice else { continue };
            let phys = fs.survivors[slot];
            let mut target = phys;
            let mut arrival = txn.arrival.max(fs.floors[phys as usize]);
            if let Some(w) = fs.flaky[phys as usize] {
                if w.is_down(arrival) {
                    fs.stats.flaky_hits += 1;
                    if let Some(rec) = &self.recorder {
                        let at_ps = self.clock.time_of_cycles(arrival).as_ps();
                        rec.record_fault(phys, FaultKind::FlakyHit, at_ps);
                    }
                    let mut recovered = false;
                    for attempt in 1..=fs.max_retries {
                        fs.stats.retries += 1;
                        let try_at = arrival + fs.backoff * attempt as u64;
                        if let Some(rec) = &self.recorder {
                            let at_ps = self.clock.time_of_cycles(try_at).as_ps();
                            rec.record_fault(phys, FaultKind::Retry, at_ps);
                        }
                        if !w.is_down(try_at) {
                            arrival = try_at;
                            recovered = true;
                            break;
                        }
                    }
                    if !recovered {
                        // Retries exhausted inside the window: remap the
                        // slice to the next surviving channel, charged the
                        // full backoff the retries consumed.
                        fs.stats.remaps += 1;
                        arrival += fs.backoff * fs.max_retries as u64;
                        let next_slot = (slot + 1) % fs.survivors.len();
                        target = fs.survivors[next_slot];
                        if let Some(w2) = fs.flaky[target as usize] {
                            arrival = w2.next_up(arrival);
                        }
                        if let Some(rec) = &self.recorder {
                            let at_ps = self.clock.time_of_cycles(arrival).as_ps();
                            rec.record_fault(phys, FaultKind::Remap, at_ps);
                        }
                    }
                }
            }
            let arrival = arrival.max(fs.floors[target as usize]);
            fs.floors[target as usize] = arrival;
            let res = self.controllers[target as usize]
                .access(ChannelRequest {
                    op: txn.op,
                    addr: local,
                    len: len as u32,
                    arrival,
                })
                .map_err(|source| ChannelError::Ctrl {
                    channel: target,
                    source,
                })?;
            if let Some(rec) = &self.recorder {
                let at_ps = self.clock.time_of_cycles(res.done_cycle).as_ps();
                rec.record_bytes(target, txn.op == AccessOp::Write, len, at_ps);
            }
            done = done.max(res.done_cycle);
            used += 1;
        }
        self.slice_buf = slices;
        match txn.op {
            AccessOp::Read => self.bytes_read += txn.len,
            AccessOp::Write => self.bytes_written += txn.len,
        }
        if let Some(rec) = &self.recorder {
            rec.record_span(
                "txn",
                None,
                self.clock.time_of_cycles(txn.arrival).as_ps(),
                self.clock.time_of_cycles(done.max(txn.arrival)).as_ps(),
            );
        }
        Ok(TransactionResult {
            done_cycle: done,
            channels_used: used,
        })
    }

    /// Submits a whole burst of master transactions in one pass and returns
    /// the cycle at which the last one finished (0 for an empty batch).
    ///
    /// Semantically identical to calling [`MemorySubsystem::submit`] per
    /// transaction and folding `done_cycle` with `max`; batching lets the
    /// admission loop stay in the subsystem instead of bouncing through the
    /// caller per transaction.
    pub fn submit_batch(&mut self, txns: &[MasterTransaction]) -> Result<u64, ChannelError> {
        let mut done = 0u64;
        for &txn in txns {
            done = done.max(self.submit(txn)?.done_cycle);
        }
        Ok(done)
    }

    /// Cycle at which all channels have drained.
    pub fn busy_until(&self) -> u64 {
        self.controllers
            .iter()
            .map(Controller::busy_until)
            .max()
            .unwrap_or(0)
    }

    /// Closes the run at `end_cycle` (idle housekeeping on every channel)
    /// and aggregates time, energy and statistics.
    pub fn finish(&mut self, end_cycle: u64) -> Result<SubsystemReport, ChannelError> {
        let end = end_cycle.max(self.busy_until());
        let mut channels = Vec::with_capacity(self.controllers.len());
        for (ch, ctrl) in self.controllers.iter_mut().enumerate() {
            channels.push(ctrl.finish(end).map_err(|source| ChannelError::Ctrl {
                channel: ch as u32,
                source,
            })?);
        }
        let busy_until = channels.iter().map(|r| r.busy_until).max().unwrap_or(0);
        let core_energy_pj = channels.iter().map(|r| r.total_energy_pj).sum();
        Ok(SubsystemReport {
            busy_until,
            access_time: self.clock.time_of_cycles(busy_until),
            core_energy_pj,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
            channels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(channels: u32) -> MemorySubsystem {
        MemorySubsystem::new(&MemoryConfig::paper(channels, 400)).unwrap()
    }

    #[test]
    fn peak_bandwidth_matches_paper_arithmetic() {
        // 8 channels × 4 B × 2 × 400 MHz = 25.6 GB/s (the XDR comparison
        // point's theoretical peak).
        let m = MemoryConfig::paper(8, 400);
        assert!((m.peak_bandwidth_bytes_per_s() - 25.6e9).abs() < 1e3);
    }

    #[test]
    fn capacity_scales_with_channels() {
        assert_eq!(mem(1).capacity_bytes(), 64 << 20);
        assert_eq!(mem(8).capacity_bytes(), 512 << 20);
        assert_eq!(MemoryConfig::paper(8, 400).capacity_bytes(), 512 << 20);
    }

    #[test]
    fn cache_line_spans_channels() {
        let mut m = mem(4);
        let r = m
            .submit(MasterTransaction {
                op: AccessOp::Read,
                addr: 0,
                len: 64,
                arrival: 0,
            })
            .unwrap();
        assert_eq!(r.channels_used, 4);
        let mut m1 = mem(1);
        let r1 = m1
            .submit(MasterTransaction {
                op: AccessOp::Read,
                addr: 0,
                len: 64,
                arrival: 0,
            })
            .unwrap();
        assert_eq!(r1.channels_used, 1);
        // Four channels in parallel beat one channel in series.
        assert!(r.done_cycle < r1.done_cycle);
    }

    #[test]
    fn more_channels_scale_throughput_on_large_sweeps() {
        let sweep = |channels: u32| {
            let mut m = mem(channels);
            m.submit(MasterTransaction {
                op: AccessOp::Read,
                addr: 0,
                len: 1 << 20, // 1 MiB
                arrival: 0,
            })
            .unwrap();
            let rep = m.finish(0).unwrap();
            rep.busy_until
        };
        let t1 = sweep(1);
        let t2 = sweep(2);
        let t4 = sweep(4);
        let t8 = sweep(8);
        // Close to the paper's "2x speedup per channel doubling".
        for (fast, slow) in [(t2, t1), (t4, t2), (t8, t4)] {
            let ratio = slow as f64 / fast as f64;
            assert!(
                (1.7..=2.2).contains(&ratio),
                "speedup {ratio} out of expected band (t1={t1} t2={t2} t4={t4} t8={t8})"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_and_zero_length() {
        let mut m = mem(2);
        let cap = m.capacity_bytes();
        assert!(matches!(
            m.submit(MasterTransaction {
                op: AccessOp::Read,
                addr: cap - 8,
                len: 16,
                arrival: 0
            }),
            Err(ChannelError::AddressOutOfRange { .. })
        ));
        assert!(m
            .submit(MasterTransaction {
                op: AccessOp::Read,
                addr: 0,
                len: 0,
                arrival: 0
            })
            .is_err());
        assert!(m
            .submit(MasterTransaction {
                op: AccessOp::Read,
                addr: u64::MAX,
                len: 16,
                arrival: 0
            })
            .is_err());
    }

    #[test]
    fn config_validation() {
        let mut cfg = MemoryConfig::paper(4, 400);
        cfg.granule_bytes = 8; // below the 16 B burst
        assert!(MemorySubsystem::new(&cfg).is_err());

        let mut cfg = MemoryConfig::paper(4, 400);
        cfg.clock_mhz = 333; // disagrees with controller template
        assert!(MemorySubsystem::new(&cfg).is_err());

        let cfg = MemoryConfig::paper(3, 400);
        assert!(MemorySubsystem::new(&cfg).is_err());
    }

    #[test]
    fn report_aggregates_energy_and_bytes() {
        let mut m = mem(2);
        m.submit(MasterTransaction {
            op: AccessOp::Read,
            addr: 0,
            len: 4096,
            arrival: 0,
        })
        .unwrap();
        m.submit(MasterTransaction {
            op: AccessOp::Write,
            addr: 4096,
            len: 4096,
            arrival: 0,
        })
        .unwrap();
        let rep = m.finish(1_000_000).unwrap();
        assert_eq!(rep.bytes_read, 4096);
        assert_eq!(rep.bytes_written, 4096);
        assert_eq!(rep.channels.len(), 2);
        assert!(rep.core_energy_pj > 0.0);
        assert!(rep.access_time > SimTime::ZERO);
        assert!(rep.achieved_bandwidth_bytes_per_s() > 0.0);
    }

    #[test]
    fn recorder_agrees_with_simulator_statistics() {
        use mcm_obs::StatsRecorder;
        let mut m = mem(2);
        let rec = Arc::new(StatsRecorder::new());
        m.set_recorder(rec.clone());
        m.submit(MasterTransaction {
            op: AccessOp::Read,
            addr: 0,
            len: 4096,
            arrival: 0,
        })
        .unwrap();
        m.submit(MasterTransaction {
            op: AccessOp::Write,
            addr: 4096,
            len: 1024,
            arrival: 0,
        })
        .unwrap();
        let sub = m.finish(1_000_000).unwrap();
        let report = rec.report();
        assert_eq!(report.channels.len(), 2);
        for obs_ch in &report.channels {
            let dev = m.controller(obs_ch.channel).unwrap().device().stats();
            let ctrl = m.controller(obs_ch.channel).unwrap().stats();
            assert_eq!(obs_ch.counters.commands.activates, dev.activates);
            assert_eq!(obs_ch.counters.commands.reads, dev.reads);
            assert_eq!(obs_ch.counters.commands.writes, dev.writes);
            assert_eq!(obs_ch.counters.rows.hits, ctrl.row_hits);
            assert_eq!(obs_ch.counters.rows.misses, ctrl.row_misses);
            // Both transactions sliced onto both channels: two retired
            // requests, each with a recorded latency.
            assert_eq!(obs_ch.counters.requests, 2);
            assert_eq!(obs_ch.latency_ps.count, 2);
        }
        let read: u64 = report.channels.iter().map(|c| c.counters.bytes_read).sum();
        let written: u64 = report
            .channels
            .iter()
            .map(|c| c.counters.bytes_written)
            .sum();
        assert_eq!(read, sub.bytes_read);
        assert_eq!(written, sub.bytes_written);
        // One span per master transaction, on the master track.
        assert_eq!(report.spans.len(), 2);
        assert!(report.spans.iter().all(|s| s.channel.is_none()));
        // Observed energy matches the subsystem's core energy.
        let obs_pj: f64 = report.channels.iter().map(|c| c.energy.total_pj()).sum();
        assert!(
            (obs_pj - sub.core_energy_pj).abs() < 1e-6 * sub.core_energy_pj.max(1.0),
            "obs {obs_pj} vs report {}",
            sub.core_energy_pj
        );
    }

    #[test]
    fn channel_loss_reinterleaves_survivors() {
        let mut m = mem(4);
        let full_cap = m.capacity_bytes();
        m.apply_faults(&FaultPlan::channel_loss(1, 2)).unwrap();
        // Capacity shrinks to the three survivors.
        assert_eq!(m.capacity_bytes(), full_cap / 4 * 3);
        assert_eq!(m.fault_survivors(), Some(&[0u32, 1, 3][..]));
        // A 48-byte line now spans exactly the three survivors.
        let r = m
            .submit(MasterTransaction {
                op: AccessOp::Read,
                addr: 0,
                len: 48,
                arrival: 0,
            })
            .unwrap();
        assert_eq!(r.channels_used, 3);
        // The lost channel saw no traffic.
        assert_eq!(m.controller(2).unwrap().stats().read_bursts, 0);
        for ch in [0u32, 1, 3] {
            assert!(m.controller(ch).unwrap().stats().read_bursts > 0);
        }
        let stats = m.degrade_stats().unwrap();
        assert_eq!(stats.flaky_hits, 0);
    }

    #[test]
    fn flaky_channel_retries_then_remaps() {
        use mcm_fault::{DegradePolicy, FaultSpec, WindowSpec};
        // Channel 1 is down for the first 5000 of every 10000 cycles; three
        // 64-cycle backoff retries cannot escape the window, so slices
        // remap to the next survivor.
        let plan = FaultPlan {
            seed: 0,
            faults: vec![FaultSpec::FlakyChannel {
                channel: 1,
                window: WindowSpec {
                    period: 10_000,
                    down: 5_000,
                    phase: 0,
                },
            }],
            policy: DegradePolicy {
                max_retries: 3,
                backoff_cycles: 64,
                shed_target_pct: 70,
            },
        };
        let mut m = mem(2);
        m.apply_faults(&plan).unwrap();
        let r = m
            .submit(MasterTransaction {
                op: AccessOp::Read,
                addr: 0,
                len: 32,
                arrival: 0,
            })
            .unwrap();
        assert_eq!(r.channels_used, 2);
        let stats = m.degrade_stats().unwrap();
        assert_eq!(stats.flaky_hits, 1);
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.remaps, 1);
        // The remapped slice landed on channel 0 alongside its own slice.
        assert_eq!(m.controller(0).unwrap().stats().read_bursts, 2);
        assert_eq!(m.controller(1).unwrap().stats().read_bursts, 0);
        // A transaction arriving in the up half retries once and recovers.
        let r2 = m
            .submit(MasterTransaction {
                op: AccessOp::Read,
                addr: 32,
                len: 32,
                arrival: 6_000,
            })
            .unwrap();
        assert_eq!(r2.channels_used, 2);
        assert_eq!(m.degrade_stats().unwrap().remaps, 1);
        assert!(m.controller(1).unwrap().stats().read_bursts > 0);
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        let plan = FaultPlan::seeded(0xbeef, 4).unwrap();
        let run = || {
            let mut m = mem(4);
            m.apply_faults(&plan).unwrap();
            let mut done = 0;
            for i in 0..50u64 {
                done = m
                    .submit(MasterTransaction {
                        op: if i % 3 == 0 {
                            AccessOp::Write
                        } else {
                            AccessOp::Read
                        },
                        addr: i * 256,
                        len: 256,
                        arrival: i * 40,
                    })
                    .unwrap()
                    .done_cycle
                    .max(done);
            }
            (done, m.degrade_stats().unwrap())
        };
        let (d1, s1) = run();
        let (d2, s2) = run();
        assert_eq!(d1, d2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn fault_plan_application_rules() {
        let mut m = mem(2);
        // Out-of-range channel is rejected.
        assert!(m.apply_faults(&FaultPlan::channel_loss(0, 7)).is_err());
        m.submit(MasterTransaction {
            op: AccessOp::Read,
            addr: 0,
            len: 16,
            arrival: 0,
        })
        .unwrap();
        // Too late: traffic has flowed.
        assert!(m.apply_faults(&FaultPlan::channel_loss(0, 1)).is_err());
        // And a second application is rejected.
        let mut m2 = mem(2);
        m2.apply_faults(&FaultPlan::channel_loss(0, 1)).unwrap();
        assert!(m2.apply_faults(&FaultPlan::channel_loss(0, 1)).is_err());
    }

    #[test]
    fn degraded_byte_accounting_balances() {
        use mcm_obs::StatsRecorder;
        let mut m = mem(4);
        let rec = Arc::new(StatsRecorder::new());
        m.set_recorder(rec.clone());
        m.apply_faults(&FaultPlan::channel_loss(5, 0)).unwrap();
        m.submit(MasterTransaction {
            op: AccessOp::Read,
            addr: 0,
            len: 4096,
            arrival: 0,
        })
        .unwrap();
        let sub = m.finish(1_000_000).unwrap();
        let report = rec.report();
        // Observed per-channel bytes still sum to the subsystem totals.
        let read: u64 = report.channels.iter().map(|c| c.counters.bytes_read).sum();
        assert_eq!(read, sub.bytes_read);
        assert_eq!(sub.bytes_read, 4096);
        // The lost channel reported its one-time fault event.
        let ch0 = report.channels.iter().find(|c| c.channel == 0).unwrap();
        assert!(ch0
            .faults
            .iter()
            .any(|f| f.kind == mcm_obs::FaultKind::ChannelLost));
        assert_eq!(ch0.counters.bytes_read, 0);
    }

    #[test]
    fn channel_accessor_bounds() {
        let m = mem(2);
        assert!(m.controller(1).is_ok());
        assert!(matches!(
            m.controller(2),
            Err(ChannelError::BadChannel { .. })
        ));
    }
}
