//! The per-channel memory controller.
//!
//! The paper's controller "takes care of memory mappings onto banks, rows
//! and columns of the bank cluster" and "manage[s] all the DRAM operations:
//! precharges, activations, reads, writes, refreshes, and power downs".
//! This module implements exactly that: an in-order (FCFS) controller for a
//! single-master channel — the paper's load is the cache-miss stream of one
//! SMP, so requests arrive in program order and there is nothing to reorder.
//!
//! Scheduling is greedy-earliest: every DRAM command is committed at the
//! earliest cycle the device declares legal. Because commands for
//! consecutive bursts are interleaved in one stream, an activate for the
//! next bank naturally overlaps the tail of the previous bank's data
//! transfer — which is what makes the RBC address multiplexing faster than
//! BRC on sequential traffic (see `mcm_dram::AddressMapping`).

use mcm_dram::{AddressDecoder, BankCluster, ClusterStats, DramCommand, DramError, IssueOutcome};
use mcm_obs::{ChannelObs, FaultKind, RowOutcome};
use mcm_sim::stats::LatencyHistogram;

use crate::config::{
    ControllerConfig, InterconnectModel, PagePolicy, PowerDownPolicy, WritePolicy,
};
use crate::error::CtrlError;
use crate::request::{AccessOp, ChannelRequest};

/// Row-buffer outcome counts and other controller statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    /// Bursts that hit an already-open row.
    pub row_hits: u64,
    /// Bursts that found the bank closed (activate only).
    pub row_misses: u64,
    /// Bursts that found a different row open (precharge + activate).
    pub row_conflicts: u64,
    /// Read bursts issued.
    pub read_bursts: u64,
    /// Write bursts issued.
    pub write_bursts: u64,
    /// Refreshes issued while traffic was waiting (postpone budget
    /// exhausted).
    pub refreshes_forced: u64,
    /// Refreshes absorbed by idle periods.
    pub refreshes_idle: u64,
    /// Power-down / self-refresh exits (wake-ups) performed.
    pub wakeups: u64,
    /// Self-refresh entries (deep-idle escalations).
    pub sr_entries: u64,
    /// Write-buffer drains (batched write policy only).
    pub write_flushes: u64,
    /// Drains forced by a read hitting a buffered write.
    pub hazard_flushes: u64,
    /// Requests deferred by a controller-stall fault window.
    pub stalls: u64,
}

/// Timing result of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle of the first command issued for the request.
    pub first_cmd_cycle: u64,
    /// Cycle at which the last data beat of the request completes.
    pub done_cycle: u64,
    /// Number of DRAM bursts the request was split into.
    pub bursts: u32,
}

/// End-of-run report for one channel.
#[derive(Debug, Clone)]
pub struct ChannelReport {
    /// Cycle at which the last data beat of the whole run completed.
    pub busy_until: u64,
    /// Wall-clock time of `busy_until` on the channel clock.
    pub busy_until_time: mcm_sim::SimTime,
    /// Total core energy over the run horizon, picojoules.
    pub total_energy_pj: f64,
    /// Background (state-residency) share of the energy, picojoules.
    pub background_energy_pj: f64,
    /// Per-event (activate/burst/refresh) share, picojoules.
    pub event_energy_pj: f64,
    /// Event energy split: (activate, read, write, refresh), picojoules.
    pub event_breakdown_pj: (f64, f64, f64, f64),
    /// Controller statistics.
    pub ctrl: CtrlStats,
    /// Device command statistics.
    pub device: ClusterStats,
    /// Mean request latency (arrival to last data beat), if any requests ran.
    pub latency_mean: Option<mcm_sim::SimTime>,
    /// Maximum request latency.
    pub latency_max: mcm_sim::SimTime,
    /// Approximate 99th-percentile request latency.
    pub latency_p99: Option<mcm_sim::SimTime>,
}

/// One channel's in-order memory controller plus its attached bank cluster.
///
/// # Examples
///
/// ```
/// use mcm_ctrl::{AccessOp, ChannelRequest, Controller, ControllerConfig};
///
/// let mut ctrl = Controller::new(&ControllerConfig::paper_default(400)).unwrap();
/// let res = ctrl
///     .access(ChannelRequest { op: AccessOp::Read, addr: 0, len: 64, arrival: 0 })
///     .unwrap();
/// assert_eq!(res.bursts, 4); // 64 bytes = 4 × 16-byte bursts
/// assert!(res.done_cycle > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Controller {
    device: BankCluster,
    decoder: AddressDecoder,
    page_policy: PagePolicy,
    power_down: PowerDownPolicy,
    interconnect: InterconnectModel,
    refresh_enabled: bool,
    refresh_max_postpone: u64,
    t_refi: u64,
    refreshes_issued: u64,
    /// Cached first cycle at which the refresh backlog exceeds the postpone
    /// budget — the per-burst preemption test is a compare, not a division.
    /// Recomputed whenever `refreshes_issued` or `sr_cycles_total` changes.
    next_forced_refresh: u64,
    /// Cycle at which the channel last became idle (all commands issued and
    /// data drained).
    busy_until: u64,
    /// Idle-period housekeeping (power-down entry, refresh catch-up) has
    /// been performed up to this cycle.
    idle_handled_to: u64,
    last_arrival: u64,
    /// Total cycles spent in self-refresh so far (refresh obligations are
    /// suspended while the device refreshes itself).
    sr_cycles_total: u64,
    sr_entered_at: u64,
    write_policy: WritePolicy,
    /// Posted write bursts awaiting drain (burst-aligned byte addresses).
    pending_writes: std::collections::VecDeque<u64>,
    stats: CtrlStats,
    latency: LatencyHistogram,
    obs: Option<ChannelObs>,
    /// Periodic controller-stall fault: `(period, stall, phase)` cycles.
    /// Requests arriving inside the first `stall` cycles of each period are
    /// deferred to the period's end. `None` (healthy) costs one branch.
    stall_window: Option<(u64, u64, u64)>,
    /// Burst arithmetic, fixed by the geometry, whose sizes
    /// `Geometry::validate` guarantees are powers of two: log2 of the
    /// burst size in bytes, bursts per page minus one, and the column
    /// (word) step from one burst to the next.
    burst_shift: u32,
    page_burst_mask: u64,
    col_step: u32,
}

impl Controller {
    /// Builds a controller and its device; validates the full configuration.
    pub fn new(config: &ControllerConfig) -> Result<Self, CtrlError> {
        let device = BankCluster::new(&config.cluster)?;
        let decoder = AddressDecoder::new(config.cluster.geometry, config.mapping)?;
        let geometry = config.cluster.geometry;
        let t_refi = device.timing().t_refi;
        let next_forced_refresh = if config.refresh.enabled {
            (config.refresh.max_postpone as u64 + 1).saturating_mul(t_refi)
        } else {
            u64::MAX
        };
        Ok(Controller {
            device,
            decoder,
            page_policy: config.page_policy,
            power_down: config.power_down,
            interconnect: config.interconnect,
            refresh_enabled: config.refresh.enabled,
            refresh_max_postpone: config.refresh.max_postpone as u64,
            t_refi,
            refreshes_issued: 0,
            next_forced_refresh,
            busy_until: 0,
            idle_handled_to: 0,
            last_arrival: 0,
            sr_cycles_total: 0,
            sr_entered_at: 0,
            write_policy: config.write_policy,
            pending_writes: std::collections::VecDeque::new(),
            stats: CtrlStats::default(),
            latency: LatencyHistogram::new(),
            obs: None,
            stall_window: None,
            burst_shift: geometry.burst_bytes().trailing_zeros(),
            page_burst_mask: u64::from(geometry.cols / geometry.burst_len) - 1,
            col_step: geometry.burst_len,
        })
    }

    /// Applies refresh pressure: the effective refresh interval (tREFI) is
    /// divided by `divisor`, modelling the elevated refresh rate a
    /// retention or thermal problem forces. Cumulative across calls;
    /// `divisor` of zero or one leaves the controller unchanged.
    pub fn set_refresh_pressure(&mut self, divisor: u64) {
        if divisor > 1 {
            self.t_refi = (self.t_refi / divisor).max(1);
            self.recompute_forced_refresh();
        }
    }

    /// The effective refresh interval in cycles (tREFI after any applied
    /// refresh pressure).
    pub fn refresh_interval(&self) -> u64 {
        self.t_refi
    }

    /// Installs a periodic controller-stall fault: requests arriving within
    /// the first `stall` cycles of each `period`-cycle window (offset by
    /// `phase`) are deferred to the window's end. Models transient
    /// controller unavailability; requires `0 < stall < period`.
    pub fn set_stall_window(&mut self, period: u64, stall: u64, phase: u64) {
        debug_assert!(stall > 0 && stall < period);
        self.stall_window = Some((period, stall, phase));
    }

    /// Degrades one bank of the attached device (extra tRCD/tRP cycles) —
    /// the fault layer's slow/stuck-row model.
    pub fn set_bank_penalty(
        &mut self,
        bank: u32,
        extra_trcd: u64,
        extra_trp: u64,
    ) -> Result<(), CtrlError> {
        self.device.set_bank_penalty(bank, extra_trcd, extra_trp)?;
        Ok(())
    }

    /// Attaches an observability handle: row-buffer outcomes, request
    /// latencies and queue depths report through it, and the attached
    /// device reports every command and energy interval. Off by default.
    pub fn set_obs(&mut self, obs: ChannelObs) {
        self.device.set_obs(obs.clone());
        self.obs = Some(obs);
    }

    /// The attached device.
    pub fn device(&self) -> &BankCluster {
        &self.device
    }

    /// Starts recording the device's command trace (see
    /// `mcm_dram::validate` for the independent legality oracle).
    pub fn enable_trace(&mut self) {
        self.device.enable_trace();
    }

    /// The address decoder in use.
    pub fn decoder(&self) -> &AddressDecoder {
        &self.decoder
    }

    /// Controller statistics so far.
    pub fn stats(&self) -> CtrlStats {
        self.stats
    }

    /// Cycle at which all issued work completes (the channel's contribution
    /// to the frame access time).
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// Per-request latency distribution (arrival to last data beat).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    fn issue(
        &mut self,
        cmd: DramCommand,
        not_before: u64,
    ) -> Result<(u64, IssueOutcome), CtrlError> {
        Ok(self.device.issue_at_earliest(cmd, not_before)?)
    }

    /// Wakes the device from self-refresh or power-down, if it sleeps.
    #[inline]
    fn wake(&mut self, not_before: u64) -> Result<(), CtrlError> {
        if self.device.is_self_refreshing() || self.device.is_powered_down() {
            self.wake_device(not_before)
        } else {
            Ok(())
        }
    }

    /// [`Controller::wake`] for a device that sleeps.
    #[inline(never)]
    fn wake_device(&mut self, not_before: u64) -> Result<(), CtrlError> {
        if self.device.is_self_refreshing() {
            let (c, _) = self.issue(DramCommand::SelfRefreshExit, not_before)?;
            self.sr_cycles_total += c.saturating_sub(self.sr_entered_at);
            self.recompute_forced_refresh();
            self.stats.wakeups += 1;
        } else if self.device.is_powered_down() {
            let (_, _) = self.issue(DramCommand::PowerDownExit, not_before)?;
            self.stats.wakeups += 1;
        }
        Ok(())
    }

    /// Number of refresh obligations matured by `cycle` but not yet served.
    /// Time spent in self-refresh does not mature obligations — the device
    /// refreshes itself.
    fn refresh_backlog(&self, cycle: u64) -> u64 {
        if !self.refresh_enabled {
            return 0;
        }
        (cycle.saturating_sub(self.sr_cycles_total) / self.t_refi)
            .saturating_sub(self.refreshes_issued)
    }

    /// Refreshes the cached forced-refresh threshold: the first cycle at
    /// which [`Controller::refresh_backlog`] exceeds the postpone budget.
    fn recompute_forced_refresh(&mut self) {
        self.next_forced_refresh = if self.refresh_enabled {
            (self.refreshes_issued + self.refresh_max_postpone + 1)
                .saturating_mul(self.t_refi)
                .saturating_add(self.sr_cycles_total)
        } else {
            u64::MAX
        };
        debug_assert!(
            self.next_forced_refresh == u64::MAX
                || self.refresh_backlog(self.next_forced_refresh) > self.refresh_max_postpone
        );
    }

    /// Serves one refresh as early as possible at or after `not_before`,
    /// waking the device and closing rows as required.
    fn do_refresh(&mut self, not_before: u64, forced: bool) -> Result<u64, CtrlError> {
        let lower = not_before;
        self.wake(lower)?;
        if self.device.any_bank_open() {
            let (_, _) = self.issue(DramCommand::PrechargeAll, lower)?;
        }
        let (c, _) = self.issue(DramCommand::Refresh, lower)?;
        self.refreshes_issued += 1;
        self.recompute_forced_refresh();
        if forced {
            self.stats.refreshes_forced += 1;
        } else {
            self.stats.refreshes_idle += 1;
        }
        Ok(c + self.device.timing().t_rfc)
    }

    /// Performs idle-period housekeeping chronologically over
    /// `[self.busy_until, target)`: power-down entry per policy and refresh
    /// catch-up at due times. Safe to call with any monotone `target`.
    #[inline]
    fn advance_idle_to(&mut self, target: u64) -> Result<(), CtrlError> {
        if target <= self.idle_handled_to {
            return Ok(());
        }
        self.run_idle_to(target)
    }

    /// [`Controller::advance_idle_to`] past `idle_handled_to`.
    #[inline(never)]
    fn run_idle_to(&mut self, target: u64) -> Result<(), CtrlError> {
        // Traffic idleness starts at busy_until and is NOT reset by
        // housekeeping (refresh) activity: the self-refresh escalation
        // measures how long the *master* has been quiet.
        let idle_start = self.busy_until;
        let mut idle_since = self.busy_until.max(self.idle_handled_to);
        // Under a plain power-down policy with refresh on and nothing
        // observing, whole power-down/refresh periods go to the device in
        // one run; everything else takes the per-command loop below.
        let run_pd_after = match self.power_down {
            PowerDownPolicy::AfterIdleCycles(th) if self.refresh_enabled && self.obs.is_none() => {
                Some(th)
            }
            _ => None,
        };
        loop {
            let in_sr = self.device.is_self_refreshing();
            let pd_at = match self.power_down.threshold() {
                Some(th) if !self.device.is_powered_down() && !in_sr => {
                    idle_since.saturating_add(th)
                }
                _ => u64::MAX,
            };
            let sr_at = match self.power_down.self_refresh_threshold() {
                Some(th) if !in_sr => idle_start.saturating_add(th).max(idle_since),
                _ => u64::MAX,
            };
            let ref_at = if self.refresh_enabled && !in_sr {
                (self.refreshes_issued + 1)
                    .saturating_mul(self.t_refi)
                    .saturating_add(self.sr_cycles_total)
            } else {
                u64::MAX
            };
            if let Some(pd_after) = run_pd_after {
                if self.device.is_powered_down() && !self.device.any_bank_open() {
                    if let Some(run) =
                        self.device
                            .idle_refresh_run(ref_at, self.t_refi, pd_after, target)
                    {
                        self.refreshes_issued += run.refreshes;
                        self.stats.refreshes_idle += run.refreshes;
                        self.stats.wakeups += run.exits;
                        self.recompute_forced_refresh();
                        // The run stops where this loop would: no refresh
                        // or power-down entry falls due before `target`.
                        break;
                    }
                }
            }
            let next = pd_at.min(ref_at).min(sr_at);
            if next >= target {
                break;
            }
            if sr_at <= pd_at && sr_at <= ref_at {
                // Escalate to self-refresh: bring CKE high if needed, close
                // all rows, then SRE. (The PDX here is a policy transition,
                // not a wake-up for traffic.)
                if self.device.is_powered_down() {
                    let (_, _) = self.issue(DramCommand::PowerDownExit, sr_at)?;
                }
                if self.device.any_bank_open() {
                    let (_, _) = self.issue(DramCommand::PrechargeAll, sr_at)?;
                }
                let (c, _) = self.issue(DramCommand::SelfRefreshEnter, sr_at)?;
                self.sr_entered_at = c;
                self.stats.sr_entries += 1;
            } else if ref_at <= pd_at {
                // Refresh comes due first (or simultaneously: refresh wins,
                // since entering power-down just before a due refresh would
                // immediately bounce back out).
                let done = self.do_refresh(ref_at, false)?;
                idle_since = done;
            } else {
                let (c, _) = self.issue(DramCommand::PowerDownEnter, pd_at)?;
                let _ = c;
            }
        }
        self.idle_handled_to = target;
        Ok(())
    }

    /// Makes `row` the open row of `bank` for the next burst: classifies
    /// the burst's row-buffer outcome, counts it, reports it to an attached
    /// observer and, on a miss or conflict, has the device switch rows
    /// ([`BankCluster::switch_row`]). Returns the first command's cycle, or
    /// `u64::MAX` on a row hit, which issues nothing.
    #[inline]
    fn open_burst_row(&mut self, bank: u32, row: u32, not_before: u64) -> Result<u64, CtrlError> {
        let outcome = match self.device.open_row(bank)? {
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        };
        if let Some(obs) = &self.obs {
            obs.row_outcome(bank as u8, outcome);
        }
        match outcome {
            RowOutcome::Hit => {
                self.stats.row_hits += 1;
                return Ok(u64::MAX);
            }
            RowOutcome::Miss => self.stats.row_misses += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        Ok(self.device.switch_row(bank, row, not_before)?)
    }

    /// Issues one burst (row management + column command), returning the
    /// first command cycle and the data-end cycle.
    fn issue_burst(
        &mut self,
        write: bool,
        burst_addr: u64,
        not_before: u64,
    ) -> Result<(u64, u64), CtrlError> {
        let mut first_cmd = u64::MAX;
        // Refresh preemption when the postpone budget is exhausted.
        if self.busy_until.max(not_before) >= self.next_forced_refresh {
            let c = self.do_refresh(not_before, true)?;
            first_cmd = first_cmd.min(c.saturating_sub(self.device.timing().t_rfc));
        }
        let d = self.decoder.decode(burst_addr)?;
        first_cmd = first_cmd.min(self.open_burst_row(d.bank, d.row, not_before)?);
        let cmd = if write {
            DramCommand::Write {
                bank: d.bank,
                col: d.col,
            }
        } else {
            DramCommand::Read {
                bank: d.bank,
                col: d.col,
            }
        };
        let (c, out) = self.issue(cmd, not_before)?;
        first_cmd = first_cmd.min(c);
        if write {
            self.stats.write_bursts += 1;
        } else {
            self.stats.read_bursts += 1;
        }
        if self.page_policy == PagePolicy::Closed {
            let (_, _) = self.issue(DramCommand::Precharge { bank: d.bank }, not_before)?;
        }
        let data_end = out.data_end_cycle.ok_or_else(|| CtrlError::Internal {
            reason: "column command returned no data-end cycle".into(),
        })?;
        Ok((first_cmd, data_end))
    }

    /// Drains the posted-write buffer.
    fn flush_writes(&mut self, not_before: u64) -> Result<(), CtrlError> {
        if self.pending_writes.is_empty() {
            return Ok(());
        }
        self.wake(not_before)?;
        self.stats.write_flushes += 1;
        let mut done = 0u64;
        while let Some(addr) = self.pending_writes.pop_front() {
            let (_, d) = self.issue_burst(true, addr, not_before)?;
            done = done.max(d);
        }
        self.busy_until = self.busy_until.max(done).max(self.device.data_busy_until());
        self.idle_handled_to = self.idle_handled_to.max(self.busy_until);
        Ok(())
    }

    /// Processes one request, committing every DRAM command it needs at the
    /// earliest legal cycle. Requests must arrive in non-decreasing
    /// `arrival` order (FCFS single-master channel).
    pub fn access(&mut self, req: ChannelRequest) -> Result<AccessResult, CtrlError> {
        if req.len == 0 {
            return Err(CtrlError::EmptyRequest);
        }
        // A request that does not fit the device is refused before it
        // touches any state.
        let capacity_bytes = self.decoder.capacity_bytes();
        let fits = req
            .addr
            .checked_add(u64::from(req.len))
            .is_some_and(|end| end <= capacity_bytes);
        if !fits {
            return Err(DramError::AddressOutOfRange {
                addr: req.addr,
                capacity_bytes,
            }
            .into());
        }
        if req.arrival < self.last_arrival {
            return Err(CtrlError::NonMonotonicArrival {
                arrival: req.arrival,
                previous: self.last_arrival,
            });
        }
        let prev_arrival = self.last_arrival;
        self.last_arrival = req.arrival;
        // Controller-stall fault: defer arrivals inside a stall window to
        // its end. The map is monotone (everything inside a window lands on
        // the same end cycle), so FCFS order survives.
        let req = match self.stall_window {
            Some((period, stall, phase)) => {
                let into = (req.arrival + phase) % period;
                if into < stall {
                    let deferred = req.arrival + (stall - into);
                    self.stats.stalls += 1;
                    if let Some(obs) = &self.obs {
                        let clock = self.device.timing().clock;
                        obs.fault(FaultKind::Stall, clock.time_of_cycles(req.arrival).as_ps());
                    }
                    ChannelRequest {
                        arrival: deferred,
                        ..req
                    }
                } else {
                    req
                }
            }
            None => req,
        };
        // The request crosses the DRAM interconnect before the controller
        // can act on it.
        let req = ChannelRequest {
            arrival: req.arrival + self.interconnect.request_ck,
            ..req
        };

        // Pending posted writes drain when the master goes quiet (a write
        // buffer cannot hold data across an idle period that would power
        // the device down).
        const WRITE_DRAIN_IDLE_CK: u64 = 32;
        if !self.pending_writes.is_empty()
            && req.arrival > self.busy_until.max(prev_arrival) + WRITE_DRAIN_IDLE_CK
        {
            self.flush_writes(self.busy_until)?;
        }

        // Idle housekeeping between the previous activity and this arrival.
        self.advance_idle_to(req.arrival)?;

        let shift = self.burst_shift;
        let first_burst = req.addr >> shift;
        let last_burst = (req.addr + u64::from(req.len) - 1) >> shift;

        // Posted writes: accept into the buffer, drain when full.
        if req.op == AccessOp::Write {
            if let WritePolicy::Batched(depth) = self.write_policy {
                for burst in first_burst..=last_burst {
                    self.pending_writes.push_back(burst << shift);
                }
                if self.pending_writes.len() as u32 >= depth {
                    self.wake(req.arrival)?;
                    self.flush_writes(req.arrival)?;
                }
                // A posted write completes (from the master's view) as soon
                // as the buffer accepts it.
                let done_at_master = req.arrival + self.interconnect.response_ck;
                let clock = self.device.timing().clock;
                let latency =
                    clock.time_of_cycles(done_at_master) - clock.time_of_cycles(req.arrival);
                self.latency.record(latency);
                if let Some(obs) = &self.obs {
                    obs.latency(latency.as_ps());
                    obs.queue_depth(self.pending_writes.len() as u64);
                }
                return Ok(AccessResult {
                    first_cmd_cycle: req.arrival,
                    done_cycle: done_at_master,
                    bursts: (last_burst - first_burst + 1) as u32,
                });
            }
        }

        // Read-own-write hazard: a read overlapping a buffered write drains
        // the buffer first.
        if req.op == AccessOp::Read
            && self
                .pending_writes
                .iter()
                .any(|&w| (first_burst..=last_burst).contains(&(w >> shift)))
        {
            self.stats.hazard_flushes += 1;
            self.wake(req.arrival)?;
            self.flush_writes(req.arrival)?;
        }

        // Wake the device if the idle policy put it to sleep.
        self.wake(req.arrival)?;

        let mut first_cmd = u64::MAX;
        let mut done = 0u64;
        let mut bursts = 0u32;
        let write = req.op == AccessOp::Write;
        let mut burst = first_burst;
        while burst <= last_burst {
            // Row-hit fast path: under the open-page policy, every burst
            // after the first within a page is a guaranteed hit on the row
            // the head burst opened, so the whole page-run is admitted in
            // one pass. Bursts stay on the one-at-a-time path while a
            // forced refresh is pending (the budget test can re-trigger
            // between bursts) or when per-burst observability is attached.
            let fast = self.page_policy == PagePolicy::Open
                && self.obs.is_none()
                && self.busy_until.max(req.arrival) < self.next_forced_refresh;
            if !fast {
                let (f, d) = self.issue_burst(write, burst << shift, req.arrival)?;
                first_cmd = first_cmd.min(f);
                done = done.max(d);
                bursts += 1;
                burst += 1;
                continue;
            }
            let d = self.decoder.decode(burst << shift)?;
            first_cmd = first_cmd.min(self.open_burst_row(d.bank, d.row, req.arrival)?);
            let page_left = self.page_burst_mask + 1 - (burst & self.page_burst_mask);
            let run = (last_burst - burst + 1).min(page_left);
            let (c, data_end) = self.device.issue_column_run(
                write,
                d.bank,
                d.col,
                self.col_step,
                run as u32,
                req.arrival,
            )?;
            first_cmd = first_cmd.min(c);
            done = done.max(data_end);
            // The head burst's outcome was counted above; the rest are hits.
            self.stats.row_hits += run - 1;
            if write {
                self.stats.write_bursts += run;
            } else {
                self.stats.read_bursts += run;
            }
            bursts += run as u32;
            burst += run;
        }
        self.busy_until = self.busy_until.max(done).max(self.device.data_busy_until());
        self.idle_handled_to = self.idle_handled_to.max(self.busy_until);
        // Data crosses the interconnect back to the master.
        let done_at_master = done + self.interconnect.response_ck;
        let clock = self.device.timing().clock;
        let latency = clock.time_of_cycles(done_at_master) - clock.time_of_cycles(req.arrival);
        self.latency.record(latency);
        if let Some(obs) = &self.obs {
            obs.latency(latency.as_ps());
            obs.queue_depth(self.pending_writes.len() as u64);
        }
        Ok(AccessResult {
            first_cmd_cycle: first_cmd,
            done_cycle: done_at_master,
            bursts,
        })
    }

    /// Closes the run at `end_cycle` (≥ the last completion): performs idle
    /// housekeeping up to it and reports time, energy and statistics over
    /// the full horizon.
    pub fn finish(&mut self, end_cycle: u64) -> Result<ChannelReport, CtrlError> {
        self.flush_writes(self.busy_until)?;
        let end = end_cycle.max(self.busy_until);
        self.advance_idle_to(end)?;
        let total = self.device.total_energy_pj(end);
        let bg = self.device.background_energy_pj(end);
        Ok(ChannelReport {
            busy_until: self.busy_until,
            busy_until_time: self.device.time_of_cycle(self.busy_until),
            total_energy_pj: total,
            background_energy_pj: bg,
            event_energy_pj: self.device.event_energy_pj(),
            event_breakdown_pj: self.device.event_breakdown_pj(),
            ctrl: self.stats,
            device: self.device.stats(),
            latency_mean: self.latency.mean(),
            latency_max: self.latency.max(),
            latency_p99: self.latency.quantile(0.99),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RefreshPolicy;
    use mcm_dram::AddressMapping;

    fn ctrl_with(f: impl FnOnce(&mut ControllerConfig)) -> Controller {
        let mut cfg = ControllerConfig::paper_default(400);
        f(&mut cfg);
        Controller::new(&cfg).unwrap()
    }

    fn ctrl() -> Controller {
        ctrl_with(|_| {})
    }

    #[test]
    fn single_burst_read_timing() {
        let mut c = ctrl();
        let t = *c.device().timing();
        let r = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 16,
                arrival: 0,
            })
            .unwrap();
        // Request crosses the 1-cycle interconnect, then ACT, RD at +tRCD,
        // data at +CL+BL/2, and one more cycle back to the master.
        assert_eq!(r.first_cmd_cycle, 1);
        assert_eq!(r.done_cycle, 1 + t.t_rcd + t.cl + t.bl_ck + 1);
        assert_eq!(r.bursts, 1);
        assert_eq!(c.stats().row_misses, 1);
    }

    #[test]
    fn sequential_reads_hit_the_open_row() {
        let mut c = ctrl();
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 0,
            len: 256,
            arrival: 0,
        })
        .unwrap();
        let s = c.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_hits, 15);
        assert_eq!(s.read_bursts, 16);
    }

    #[test]
    fn unaligned_request_fetches_covering_bursts() {
        let mut c = ctrl();
        let r = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 8,
                len: 16, // spans bursts [0,16) and [16,32)
                arrival: 0,
            })
            .unwrap();
        assert_eq!(r.bursts, 2);
    }

    #[test]
    fn empty_request_is_rejected() {
        let mut c = ctrl();
        let err = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 0,
                arrival: 0,
            })
            .unwrap_err();
        assert!(matches!(err, CtrlError::EmptyRequest));
    }

    /// `[addr, addr + len)` is refused with `AddressOutOfRange` by reads,
    /// immediate writes and posted writes alike, after a legal request,
    /// with no command issued and no statistic or watermark moved.
    fn assert_refused(addr: u64, len: u32) {
        for (op, write_policy) in [
            (AccessOp::Read, WritePolicy::Immediate),
            (AccessOp::Write, WritePolicy::Immediate),
            (AccessOp::Write, WritePolicy::Batched(8)),
        ] {
            let mut c = ctrl_with(|cfg| cfg.write_policy = write_policy);
            let cap = c.decoder().capacity_bytes();
            c.access(ChannelRequest {
                op,
                addr: 0,
                len: 64,
                arrival: 0,
            })
            .unwrap();
            let before = (c.stats(), c.device().stats(), c.busy_until());
            let err = c
                .access(ChannelRequest {
                    op,
                    addr,
                    len,
                    arrival: 10,
                })
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CtrlError::Dram(DramError::AddressOutOfRange { addr: a, capacity_bytes })
                        if a == addr && capacity_bytes == cap
                ),
                "{op:?} {write_policy:?} [{addr}, +{len}): {err:?}"
            );
            let after = (c.stats(), c.device().stats(), c.busy_until());
            assert_eq!(before, after, "{op:?} {write_policy:?} [{addr}, +{len})");
        }
    }

    #[test]
    fn request_straddling_the_capacity_is_refused_untouched() {
        let cap = ctrl().decoder().capacity_bytes();
        assert_refused(cap - 16, 64);
        // The last whole line still fits.
        let mut c = ctrl();
        let r = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: cap - 64,
                len: 64,
                arrival: 0,
            })
            .unwrap();
        assert_eq!(r.bursts, 4);
    }

    #[test]
    fn request_beyond_the_capacity_is_refused_untouched() {
        let cap = ctrl().decoder().capacity_bytes();
        assert_refused(cap, 16);
        assert_refused(cap + 4096, 64);
    }

    #[test]
    fn request_whose_end_overflows_is_refused_untouched() {
        assert_refused(u64::MAX - 3, 16);
        assert_refused(u64::MAX, 1);
    }

    #[test]
    fn arrivals_must_be_monotone() {
        let mut c = ctrl();
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 0,
            len: 16,
            arrival: 100,
        })
        .unwrap();
        let err = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 16,
                len: 16,
                arrival: 50,
            })
            .unwrap_err();
        assert!(matches!(err, CtrlError::NonMonotonicArrival { .. }));
    }

    #[test]
    fn stall_window_defers_requests_monotonically() {
        let mut c = ctrl();
        // Window: cycles [0, 100) of every 1000 are stalled.
        c.set_stall_window(1000, 100, 0);
        let stalled = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 16,
                arrival: 40,
            })
            .unwrap();
        assert_eq!(c.stats().stalls, 1);
        // A healthy controller serves the same request earlier.
        let mut h = ctrl();
        let healthy = h
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 16,
                arrival: 40,
            })
            .unwrap();
        assert_eq!(stalled.done_cycle, healthy.done_cycle + 60);
        // Arrivals outside the window pass through untouched.
        let clear = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 64,
                len: 16,
                arrival: 500,
            })
            .unwrap();
        assert!(clear.first_cmd_cycle >= 500);
        assert_eq!(c.stats().stalls, 1);
    }

    #[test]
    fn refresh_pressure_divides_the_interval() {
        let mut c = ctrl();
        let base = c.refresh_interval();
        c.set_refresh_pressure(2);
        assert_eq!(c.refresh_interval(), base / 2);
        // A divisor of one (or zero) is a no-op.
        c.set_refresh_pressure(1);
        c.set_refresh_pressure(0);
        assert_eq!(c.refresh_interval(), base / 2);
        // The pressured controller refreshes more over the same idle span.
        let mut h = ctrl();
        for ctl in [&mut c, &mut h] {
            ctl.access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 16,
                arrival: 0,
            })
            .unwrap();
            ctl.access(ChannelRequest {
                op: AccessOp::Read,
                addr: 16,
                len: 16,
                arrival: 20 * base,
            })
            .unwrap();
        }
        let pressured = c.stats().refreshes_idle + c.stats().refreshes_forced;
        let healthy = h.stats().refreshes_idle + h.stats().refreshes_forced;
        assert!(
            pressured > healthy,
            "pressured {pressured} <= healthy {healthy}"
        );
    }

    #[test]
    fn bank_penalty_reaches_the_device() {
        let mut c = ctrl();
        c.set_bank_penalty(0, 4, 2).unwrap();
        assert!(c.set_bank_penalty(1_000, 1, 1).is_err());
        // The degraded controller finishes the same cold read later.
        let mut h = ctrl();
        let slow = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 16,
                arrival: 0,
            })
            .unwrap();
        let fast = h
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 16,
                arrival: 0,
            })
            .unwrap();
        assert_eq!(slow.done_cycle, fast.done_cycle + 4);
    }

    #[test]
    fn row_conflict_precharges_and_reactivates() {
        let mut c = ctrl();
        let page = c.device().geometry().page_bytes() as u64;
        let banks = c.device().geometry().banks as u64;
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 0,
            len: 16,
            arrival: 0,
        })
        .unwrap();
        // Same bank (RBC: bank advances per page, wraps after `banks`
        // pages), different row.
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: page * banks,
            len: 16,
            arrival: 1,
        })
        .unwrap();
        let s = c.stats();
        assert_eq!(s.row_misses, 1);
        assert_eq!(s.row_conflicts, 1);
    }

    #[test]
    fn closed_page_policy_never_conflicts() {
        let mut c = ctrl_with(|cfg| cfg.page_policy = PagePolicy::Closed);
        let page = c.device().geometry().page_bytes() as u64;
        let banks = c.device().geometry().banks as u64;
        for i in 0..4 {
            c.access(ChannelRequest {
                op: AccessOp::Read,
                addr: i * page * banks,
                len: 16,
                arrival: i,
            })
            .unwrap();
        }
        let s = c.stats();
        assert_eq!(s.row_conflicts, 0);
        assert_eq!(s.row_misses, 4);
        assert_eq!(s.row_hits, 0);
    }

    #[test]
    fn open_page_beats_closed_page_on_sequential_traffic() {
        let run = |policy: PagePolicy| {
            let mut c = ctrl_with(|cfg| cfg.page_policy = policy);
            let mut done = 0;
            let r = c
                .access(ChannelRequest {
                    op: AccessOp::Read,
                    addr: 0,
                    len: 4096,
                    arrival: 0,
                })
                .unwrap();
            done = done.max(r.done_cycle);
            done
        };
        assert!(run(PagePolicy::Open) < run(PagePolicy::Closed));
    }

    #[test]
    fn idle_gap_triggers_power_down_and_wakeup() {
        let mut c = ctrl();
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 0,
            len: 16,
            arrival: 0,
        })
        .unwrap();
        let resume = c.busy_until() + 500;
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 16,
            len: 16,
            arrival: resume,
        })
        .unwrap();
        assert_eq!(c.stats().wakeups, 1);
        assert_eq!(c.device().stats().power_downs, 1);
    }

    #[test]
    fn never_policy_stays_awake() {
        let mut c = ctrl_with(|cfg| cfg.power_down = PowerDownPolicy::Never);
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 0,
            len: 16,
            arrival: 0,
        })
        .unwrap();
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 16,
            len: 16,
            arrival: 5_000,
        })
        .unwrap();
        assert_eq!(c.stats().wakeups, 0);
        assert_eq!(c.device().stats().power_downs, 0);
    }

    #[test]
    fn refresshes_catch_up_during_idle() {
        let mut c = ctrl();
        let t_refi = c.device().timing().t_refi;
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 0,
            len: 16,
            arrival: 0,
        })
        .unwrap();
        // Jump forward ten refresh periods.
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 16,
            len: 16,
            arrival: t_refi * 10,
        })
        .unwrap();
        let s = c.stats();
        assert!(
            s.refreshes_idle >= 9,
            "idle refreshes = {}",
            s.refreshes_idle
        );
        assert_eq!(s.refreshes_forced, 0);
    }

    #[test]
    fn sustained_traffic_forces_refreshes() {
        let mut c = ctrl();
        let t_refi = c.device().timing().t_refi;
        // Enough back-to-back traffic to span > (max_postpone+1) tREFI.
        // Each 16B burst takes ~2 cycles; 10 * tREFI cycles of traffic needs
        // about 5 * tREFI bursts.
        let bursts = t_refi * 5;
        let mut addr = 0u64;
        for _ in 0..bursts / 64 {
            c.access(ChannelRequest {
                op: AccessOp::Read,
                addr,
                len: 16 * 64,
                arrival: 0,
            })
            .unwrap();
            addr += 16 * 64;
        }
        assert!(c.stats().refreshes_forced > 0);
    }

    #[test]
    fn refresh_disabled_never_refreshes() {
        let mut c = ctrl_with(|cfg| {
            cfg.refresh = RefreshPolicy {
                enabled: false,
                max_postpone: 8,
            }
        });
        let t_refi = c.device().timing().t_refi;
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 0,
            len: 16,
            arrival: t_refi * 20,
        })
        .unwrap();
        assert_eq!(c.device().stats().refreshes, 0);
    }

    #[test]
    fn brc_is_slower_than_rbc_on_sequential_sweeps() {
        let sweep = |mapping: AddressMapping| {
            let mut c = ctrl_with(|cfg| cfg.mapping = mapping);
            // Sweep 64 KiB = 32 pages: RBC rotates banks, BRC stays in one.
            let r = c
                .access(ChannelRequest {
                    op: AccessOp::Read,
                    addr: 0,
                    len: 65_536,
                    arrival: 0,
                })
                .unwrap();
            r.done_cycle
        };
        let rbc = sweep(AddressMapping::Rbc);
        let brc = sweep(AddressMapping::Brc);
        assert!(rbc < brc, "RBC {rbc} should beat BRC {brc}");
    }

    #[test]
    fn finish_reports_energy_and_time() {
        let mut c = ctrl();
        c.access(ChannelRequest {
            op: AccessOp::Write,
            addr: 0,
            len: 1024,
            arrival: 0,
        })
        .unwrap();
        let report = c.finish(100_000).unwrap();
        assert!(report.total_energy_pj > 0.0);
        assert!(report.background_energy_pj > 0.0);
        assert!(report.event_energy_pj > 0.0);
        assert!(
            (report.total_energy_pj - report.background_energy_pj - report.event_energy_pj).abs()
                < 1e-6
        );
        assert_eq!(report.ctrl.write_bursts, 64);
        assert!(report.busy_until > 0);
    }

    #[test]
    fn power_down_during_long_tail_reduces_energy() {
        let horizon = 2_000_000; // 5 ms at 400 MHz
        let run = |policy: PowerDownPolicy| {
            let mut c = ctrl_with(|cfg| cfg.power_down = policy);
            c.access(ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 4096,
                arrival: 0,
            })
            .unwrap();
            c.finish(horizon).unwrap().total_energy_pj
        };
        let with_pd = run(PowerDownPolicy::immediate());
        let without = run(PowerDownPolicy::Never);
        assert!(
            with_pd < without * 0.5,
            "power-down should cut idle energy: {with_pd} vs {without}"
        );
    }
}

#[cfg(test)]
mod self_refresh_tests {
    use super::*;
    use mcm_dram::TraceValidator;

    fn deep_ctrl() -> Controller {
        let mut cfg = ControllerConfig::paper_default(400);
        cfg.power_down = PowerDownPolicy::PowerDownThenSelfRefresh {
            pd_after: 1,
            sr_after: 10_000,
        };
        Controller::new(&cfg).unwrap()
    }

    fn touch(ctrl: &mut Controller, addr: u64, arrival: u64) {
        ctrl.access(ChannelRequest {
            op: AccessOp::Read,
            addr,
            len: 16,
            arrival,
        })
        .unwrap();
    }

    #[test]
    fn long_idle_escalates_to_self_refresh() {
        let mut c = deep_ctrl();
        c.enable_trace();
        touch(&mut c, 0, 0);
        // A gap far beyond the SR threshold.
        touch(&mut c, 64, 2_000_000);
        let s = c.stats();
        assert_eq!(s.sr_entries, 1);
        assert!(s.wakeups >= 1);
        assert_eq!(c.device().stats().self_refreshes, 1);
        // And the whole command trace is legal under the oracle.
        let validator = TraceValidator::new(*c.device().timing(), *c.device().geometry());
        let trace = c.device().trace().unwrap();
        assert!(validator.check(trace).is_empty());
    }

    #[test]
    fn short_idle_stays_in_power_down() {
        let mut c = deep_ctrl();
        touch(&mut c, 0, 0);
        touch(&mut c, 64, 5_000); // below the 10k SR threshold
        assert_eq!(c.stats().sr_entries, 0);
        // One PD at idle onset plus a re-entry after the mid-gap refresh.
        assert_eq!(c.device().stats().power_downs, 2);
    }

    #[test]
    fn self_refresh_suspends_refresh_obligations() {
        let plain = {
            let mut c = Controller::new(&ControllerConfig::paper_default(400)).unwrap();
            touch(&mut c, 0, 0);
            touch(&mut c, 64, 4_000_000); // ~1280 tREFI periods
            c.device().stats().refreshes
        };
        let deep = {
            let mut c = deep_ctrl();
            touch(&mut c, 0, 0);
            touch(&mut c, 64, 4_000_000);
            c.device().stats().refreshes
        };
        // In self-refresh the controller issues almost no REF commands; the
        // plain policy must catch up on every matured obligation.
        assert!(plain > 1_000, "plain issued {plain}");
        assert!(deep < 20, "deep issued {deep}");
    }

    #[test]
    fn self_refresh_saves_energy_on_long_idle() {
        let horizon = 40_000_000; // 100 ms at 400 MHz
        let energy = |policy: PowerDownPolicy| {
            let mut cfg = ControllerConfig::paper_default(400);
            cfg.power_down = policy;
            let mut c = Controller::new(&cfg).unwrap();
            touch(&mut c, 0, 0);
            c.finish(horizon).unwrap().total_energy_pj
        };
        let pd = energy(PowerDownPolicy::immediate());
        let sr = energy(PowerDownPolicy::PowerDownThenSelfRefresh {
            pd_after: 1,
            sr_after: 1_000,
        });
        assert!(
            sr < pd * 0.9,
            "self-refresh should beat power-down + refresh bursts: {sr} vs {pd}"
        );
    }

    #[test]
    fn wake_from_self_refresh_pays_txsr() {
        let mut c = deep_ctrl();
        touch(&mut c, 0, 0);
        let t_xsr = c.device().timing().t_xsr;
        let arrival = 2_000_000;
        let r = c
            .access(ChannelRequest {
                op: AccessOp::Read,
                addr: 64,
                len: 16,
                arrival,
            })
            .unwrap();
        // SRX at arrival (or shortly after), then tXSR before the ACT.
        assert!(
            r.first_cmd_cycle >= arrival + t_xsr,
            "first cmd {} vs arrival {} + tXSR {}",
            r.first_cmd_cycle,
            arrival,
            t_xsr
        );
    }
}

#[cfg(test)]
mod write_batching_tests {
    use super::*;
    use crate::config::WritePolicy;
    use mcm_dram::TraceValidator;

    fn batched(depth: u32) -> Controller {
        let mut cfg = ControllerConfig::paper_default(400);
        cfg.write_policy = WritePolicy::Batched(depth);
        Controller::new(&cfg).unwrap()
    }

    #[test]
    fn posted_writes_complete_immediately_and_drain_in_batches() {
        let mut c = batched(8);
        c.enable_trace();
        for i in 0..7u64 {
            let r = c
                .access(ChannelRequest {
                    op: AccessOp::Write,
                    addr: i * 16,
                    len: 16,
                    arrival: i,
                })
                .unwrap();
            // Posted ack: arrival + interconnect response.
            assert_eq!(r.done_cycle, i + 1 + 1);
        }
        assert_eq!(c.device().stats().writes, 0, "nothing drained yet");
        // The eighth write fills the buffer and triggers the drain.
        c.access(ChannelRequest {
            op: AccessOp::Write,
            addr: 7 * 16,
            len: 16,
            arrival: 7,
        })
        .unwrap();
        assert_eq!(c.device().stats().writes, 8);
        assert_eq!(c.stats().write_flushes, 1);
        // And the executed trace is legal.
        let v = TraceValidator::new(*c.device().timing(), *c.device().geometry());
        assert!(v.check(c.device().trace().unwrap()).is_empty());
    }

    #[test]
    fn read_own_write_hazard_flushes_first() {
        let mut c = batched(32);
        c.access(ChannelRequest {
            op: AccessOp::Write,
            addr: 256,
            len: 16,
            arrival: 0,
        })
        .unwrap();
        assert_eq!(c.device().stats().writes, 0);
        // Read of an unrelated address: no flush needed.
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 4096,
            len: 16,
            arrival: 1,
        })
        .unwrap();
        assert_eq!(c.stats().hazard_flushes, 0);
        // Read of the buffered address: the write must drain first.
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 256,
            len: 16,
            arrival: 2,
        })
        .unwrap();
        assert_eq!(c.stats().hazard_flushes, 1);
        assert_eq!(c.device().stats().writes, 1);
    }

    #[test]
    fn idle_gap_drains_the_buffer_before_power_down() {
        let mut c = batched(32);
        c.access(ChannelRequest {
            op: AccessOp::Write,
            addr: 0,
            len: 64,
            arrival: 0,
        })
        .unwrap();
        // A later arrival forces the idle path: the buffer must drain and
        // only then may the device power down.
        c.access(ChannelRequest {
            op: AccessOp::Read,
            addr: 1 << 20,
            len: 16,
            arrival: 50_000,
        })
        .unwrap();
        assert_eq!(c.device().stats().writes, 4);
        assert!(c.device().stats().power_downs >= 1);
    }

    #[test]
    fn batching_beats_in_order_on_alternating_traffic() {
        let run = |policy: WritePolicy| {
            let mut cfg = ControllerConfig::paper_default(400);
            cfg.write_policy = policy;
            let mut c = Controller::new(&cfg).unwrap();
            // Alternating read/write bursts to different buffers — the
            // preprocess-stage pattern that is turnaround-bound in order.
            let mut last = 0;
            for i in 0..2_000u64 {
                let (op, addr) = if i % 2 == 0 {
                    (AccessOp::Read, i / 2 * 16)
                } else {
                    (AccessOp::Write, (1 << 22) + i / 2 * 16)
                };
                let r = c
                    .access(ChannelRequest {
                        op,
                        addr,
                        len: 16,
                        arrival: 0,
                    })
                    .unwrap();
                last = last.max(r.done_cycle);
            }
            // Drain anything still posted.
            c.finish(0).unwrap();
            c.busy_until()
        };
        let in_order = run(WritePolicy::Immediate);
        let batched = run(WritePolicy::Batched(32));
        assert!(
            (batched as f64) < in_order as f64 * 0.75,
            "batched {batched} should clearly beat in-order {in_order}"
        );
    }
}
