//! The bank cluster: one channel's DRAM device.
//!
//! A cluster owns four banks (paper configuration), the shared command and
//! data buses, the power-down state, refresh bookkeeping and the energy
//! account. It is a *passive* model: a memory controller asks for the
//! earliest legal cycle of a candidate command ([`BankCluster::earliest_issue`])
//! and then commits it ([`BankCluster::issue`]); the cluster enforces every
//! timing window and state rule, returning a typed error on violations, so
//! controller bugs cannot silently produce impossible schedules.

use mcm_obs::{ChannelObs, CommandKind};
use mcm_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::bank::Bank;
use crate::command::DramCommand;
use crate::error::DramError;
use crate::params::{Geometry, ResolvedTiming, TimingParams};
use crate::power::{BackgroundState, EnergyAccount, EnergyModel, IddValues, OperatingPoint};

/// What a committed command produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// For column commands: the cycle at which the last data beat completes
    /// (read: CL + BL/2 after the command; write: WL + BL/2 after it).
    pub data_end_cycle: Option<u64>,
}

/// Aggregate command counts for one cluster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Activates issued.
    pub activates: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Precharges issued (including per-bank effects of PREA).
    pub precharges: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Power-down entries.
    pub power_downs: u64,
    /// Self-refresh entries.
    pub self_refreshes: u64,
}

/// What one [`BankCluster::idle_refresh_run`] issued.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleRefreshRun {
    /// Refreshes issued.
    pub refreshes: u64,
    /// Power-down exits issued: one before each refresh that found the
    /// device powered down.
    pub exits: u64,
}

/// Builder-style configuration for a [`BankCluster`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Physical organization.
    pub geometry: Geometry,
    /// Raw timing parameters.
    pub timing: TimingParams,
    /// Datasheet currents.
    pub idd: IddValues,
    /// Voltage/frequency conditions.
    pub op: OperatingPoint,
    /// Interface clock, MHz.
    pub clock_mhz: u64,
}

impl ClusterConfig {
    /// The paper's device at a given interface clock.
    pub fn next_gen_mobile_ddr(clock_mhz: u64) -> Self {
        ClusterConfig {
            geometry: Geometry::next_gen_mobile_ddr(),
            timing: TimingParams::next_gen_mobile_ddr(),
            idd: IddValues::mobile_ddr_512mb(),
            op: OperatingPoint::next_gen_mobile_ddr(),
            clock_mhz,
        }
    }

    /// The large-capacity part: the paper's timing, currents and operating
    /// point on the 2 Gb [`Geometry::large_capacity_mobile_ddr`] cluster
    /// (256 MiB per channel). Timing and IDD are kept at the 512 Mb
    /// datasheet values — an optimistic density scaling, which is the
    /// point: it isolates the capacity ceiling from every other parameter.
    pub fn large_capacity_mobile_ddr(clock_mhz: u64) -> Self {
        ClusterConfig {
            geometry: Geometry::large_capacity_mobile_ddr(),
            ..ClusterConfig::next_gen_mobile_ddr(clock_mhz)
        }
    }

    /// The projected future LPDDR2-class device (see
    /// [`TimingParams::future_lpddr2`]) at a 1.2 V core.
    pub fn future_lpddr2(clock_mhz: u64) -> Self {
        ClusterConfig {
            geometry: Geometry::next_gen_mobile_ddr(),
            timing: TimingParams::future_lpddr2(),
            idd: IddValues::mobile_ddr_512mb(),
            op: OperatingPoint {
                vdd_meas_v: 1.8,
                f_meas_mhz: 200.0,
                vdd_op_v: 1.2,
            },
            clock_mhz,
        }
    }

    /// A commodity DDR2-class device over the same clock window, kept at
    /// its native 1.8 V (no low-power voltage projection). The comparison
    /// point for the low-power-vs-standard study.
    pub fn standard_ddr2(clock_mhz: u64) -> Self {
        ClusterConfig {
            geometry: Geometry::next_gen_mobile_ddr(),
            timing: TimingParams::standard_ddr2(),
            idd: IddValues::standard_ddr2_512mb(),
            op: OperatingPoint {
                vdd_meas_v: 1.8,
                f_meas_mhz: 200.0,
                vdd_op_v: 1.8,
            },
            clock_mhz,
        }
    }
}

/// One channel's DRAM device: banks + buses + power-down + energy.
#[derive(Debug, Clone)]
pub struct BankCluster {
    geometry: Geometry,
    timing: ResolvedTiming,
    banks: Vec<Bank>,
    /// Earliest cycle for the next command of any kind (command bus is one
    /// command per cycle; REF and power-down exit also push this).
    earliest_cmd: u64,
    /// Earliest cycle for an ACT to any bank (tRRD).
    earliest_any_act: u64,
    /// Fixed ring of the cycles of the (up to) four most recent ACTs for
    /// the four-activate window (tFAW); `faw_head` indexes the oldest.
    faw_ring: [u64; 4],
    faw_head: u8,
    faw_len: u8,
    /// Banks with an open row, maintained incrementally so the hot path
    /// never rescans the bank array.
    open_banks: u32,
    /// Earliest cycle for the next READ command (bus occupancy/turnaround).
    earliest_rd: u64,
    /// Earliest cycle for the next WRITE command.
    earliest_wr: u64,
    /// Cycle at which in-flight data finishes on the DQ bus.
    data_busy_until: u64,
    powered_down: bool,
    pd_since: u64,
    self_refreshing: bool,
    sr_since: u64,
    energy: EnergyAccount,
    /// Mirror of the energy account's background state; commands that leave
    /// it unchanged skip wall-clock conversion and interval accounting.
    bg_state: BackgroundState,
    stats: ClusterStats,
    last_state_cycle: u64,
    trace: Option<Vec<crate::validate::TracedCommand>>,
    obs: Option<ChannelObs>,
    /// Per-bank `(extra tRCD, extra tRP)` cycles modelling degraded ("slow")
    /// rows — the fault-injection layer's stuck/slow-row model. `None` (the
    /// healthy default) keeps the hot path to a single branch.
    bank_penalty: Option<Vec<(u64, u64)>>,
}

/// Observability classification of a command: its [`CommandKind`] plus the
/// bank it addresses (0 for rank-wide commands).
fn obs_kind_of(cmd: DramCommand) -> (CommandKind, u8) {
    match cmd {
        DramCommand::Activate { bank, .. } => (CommandKind::Activate, bank as u8),
        DramCommand::Read { bank, .. } => (CommandKind::Read, bank as u8),
        DramCommand::Write { bank, .. } => (CommandKind::Write, bank as u8),
        DramCommand::Precharge { bank } => (CommandKind::Precharge, bank as u8),
        DramCommand::PrechargeAll => (CommandKind::PrechargeAll, 0),
        DramCommand::Refresh => (CommandKind::Refresh, 0),
        DramCommand::PowerDownEnter => (CommandKind::PowerDownEnter, 0),
        DramCommand::PowerDownExit => (CommandKind::PowerDownExit, 0),
        DramCommand::SelfRefreshEnter => (CommandKind::SelfRefreshEnter, 0),
        DramCommand::SelfRefreshExit => (CommandKind::SelfRefreshExit, 0),
    }
}

/// The `Read` or `Write` command to `bank`, column `col`.
#[inline]
fn column_command(write: bool, bank: u32, col: u32) -> DramCommand {
    if write {
        DramCommand::Write { bank, col }
    } else {
        DramCommand::Read { bank, col }
    }
}

impl BankCluster {
    /// Builds the device; validates geometry, timing, currents and clock.
    pub fn new(config: &ClusterConfig) -> Result<Self, DramError> {
        let timing = config.timing.resolve(config.clock_mhz, &config.geometry)?;
        let model = EnergyModel::resolve(
            &config.idd,
            &config.op,
            &config.timing,
            &config.geometry,
            config.clock_mhz,
        )?;
        Ok(BankCluster {
            geometry: config.geometry,
            timing,
            banks: vec![Bank::new(); config.geometry.banks as usize],
            earliest_cmd: 0,
            earliest_any_act: 0,
            faw_ring: [0; 4],
            faw_head: 0,
            faw_len: 0,
            open_banks: 0,
            earliest_rd: 0,
            earliest_wr: 0,
            data_busy_until: 0,
            powered_down: false,
            pd_since: 0,
            self_refreshing: false,
            sr_since: 0,
            energy: EnergyAccount::new(model, BackgroundState::PrechargeStandby),
            bg_state: BackgroundState::PrechargeStandby,
            stats: ClusterStats::default(),
            last_state_cycle: 0,
            trace: None,
            obs: None,
            bank_penalty: None,
        })
    }

    /// Degrades one bank: every ACT to it takes `extra_trcd` more cycles to
    /// open the row and every PRE `extra_trp` more to close it. Models the
    /// fault layer's slow/stuck-row condition; cumulative across calls.
    pub fn set_bank_penalty(
        &mut self,
        bank: u32,
        extra_trcd: u64,
        extra_trp: u64,
    ) -> Result<(), DramError> {
        if bank >= self.geometry.banks {
            return Err(DramError::InvalidGeometry {
                reason: format!(
                    "bank penalty targets bank {bank} but the device has {} banks",
                    self.geometry.banks
                ),
            });
        }
        let penalties = self
            .bank_penalty
            .get_or_insert_with(|| vec![(0, 0); self.geometry.banks as usize]);
        penalties[bank as usize].0 += extra_trcd;
        penalties[bank as usize].1 += extra_trp;
        Ok(())
    }

    /// Attaches an observability handle: every committed command, per-event
    /// energy and closed background-energy interval is reported through it.
    /// Off by default; the disabled path costs one branch per command.
    pub fn set_obs(&mut self, obs: ChannelObs) {
        self.obs = Some(obs);
    }

    /// Starts recording every committed command (for validation/debugging).
    /// Costs one `Vec` push per command; off by default.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded command trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&[crate::validate::TracedCommand]> {
        self.trace.as_deref()
    }

    /// Resolved timing in use.
    pub fn timing(&self) -> &ResolvedTiming {
        &self.timing
    }

    /// Device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The open row of `bank`, if any.
    #[inline]
    pub fn open_row(&self, bank: u32) -> Result<Option<u32>, DramError> {
        self.bank(bank).map(Bank::open_row)
    }

    /// Whether the device is in a power-down state.
    #[inline]
    pub fn is_powered_down(&self) -> bool {
        self.powered_down
    }

    /// Whether the device is in self-refresh.
    #[inline]
    pub fn is_self_refreshing(&self) -> bool {
        self.self_refreshing
    }

    /// Whether any bank has an open row.
    #[inline]
    pub fn any_bank_open(&self) -> bool {
        self.open_banks > 0
    }

    /// Cycle at which all in-flight data beats have completed.
    #[inline]
    pub fn data_busy_until(&self) -> u64 {
        self.data_busy_until
    }

    /// Command counts so far.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    #[inline]
    fn bank(&self, bank: u32) -> Result<&Bank, DramError> {
        self.banks.get(bank as usize).ok_or(DramError::BadBank {
            bank,
            banks: self.geometry.banks,
        })
    }

    /// Earliest legal cycle, at or after `not_before`, at which `cmd` could
    /// issue. Errors if `cmd` is illegal in the current state regardless of
    /// timing.
    pub fn earliest_issue(&self, cmd: DramCommand, not_before: u64) -> Result<u64, DramError> {
        let base = self.earliest_cmd.max(not_before);
        if self.self_refreshing {
            return match cmd {
                DramCommand::SelfRefreshExit => Ok(base.max(self.sr_since + self.timing.t_cke_min)),
                _ => Err(DramError::IllegalCommand {
                    cmd,
                    reason: "device is in self-refresh; only SRX is legal".into(),
                }),
            };
        }
        if self.powered_down {
            return match cmd {
                DramCommand::PowerDownExit => Ok(base.max(self.pd_since + self.timing.t_cke_min)),
                _ => Err(DramError::IllegalCommand {
                    cmd,
                    reason: "device is powered down; only PDX is legal".into(),
                }),
            };
        }
        match cmd {
            DramCommand::Activate { bank, row } => {
                let b = self.bank(bank)?;
                if b.is_active() {
                    return Err(DramError::IllegalCommand {
                        cmd,
                        reason: format!("bank {bank} already has an open row"),
                    });
                }
                if row >= self.geometry.rows {
                    return Err(DramError::IllegalCommand {
                        cmd,
                        reason: format!("row {row} out of range"),
                    });
                }
                let mut earliest = base.max(b.earliest_act()).max(self.earliest_any_act);
                if self.faw_len == 4 {
                    earliest =
                        earliest.max(self.faw_ring[self.faw_head as usize] + self.timing.t_faw);
                }
                Ok(earliest)
            }
            DramCommand::Read { bank, col } | DramCommand::Write { bank, col } => {
                if col >= self.geometry.cols {
                    return Err(DramError::IllegalCommand {
                        cmd,
                        reason: format!("column {col} out of range"),
                    });
                }
                let b = self.bank(bank)?;
                if !b.is_active() {
                    return Err(DramError::IllegalCommand {
                        cmd,
                        reason: format!("bank {bank} has no open row"),
                    });
                }
                let bus = if matches!(cmd, DramCommand::Read { .. }) {
                    self.earliest_rd
                } else {
                    self.earliest_wr
                };
                Ok(base.max(b.earliest_col()).max(bus))
            }
            DramCommand::Precharge { bank } => {
                let b = self.bank(bank)?;
                // PRE to an idle bank is a legal no-op on real parts.
                Ok(base.max(if b.is_active() { b.earliest_pre() } else { 0 }))
            }
            DramCommand::PrechargeAll => {
                let mut t = base;
                for b in &self.banks {
                    if b.is_active() {
                        t = t.max(b.earliest_pre());
                    }
                }
                Ok(t)
            }
            DramCommand::Refresh => {
                if self.any_bank_open() {
                    return Err(DramError::IllegalCommand {
                        cmd,
                        reason: "REF requires all banks precharged".into(),
                    });
                }
                let mut t = base;
                for b in &self.banks {
                    t = t.max(b.earliest_act());
                }
                Ok(t)
            }
            DramCommand::PowerDownEnter => {
                // CKE may only drop once in-flight data has drained.
                Ok(base.max(self.data_busy_until))
            }
            DramCommand::PowerDownExit => Err(DramError::IllegalCommand {
                cmd,
                reason: "device is not powered down".into(),
            }),
            DramCommand::SelfRefreshEnter => {
                if self.any_bank_open() {
                    return Err(DramError::IllegalCommand {
                        cmd,
                        reason: "SRE requires all banks precharged".into(),
                    });
                }
                let mut t = base.max(self.data_busy_until);
                for b in &self.banks {
                    t = t.max(b.earliest_act());
                }
                Ok(t)
            }
            DramCommand::SelfRefreshExit => Err(DramError::IllegalCommand {
                cmd,
                reason: "device is not in self-refresh".into(),
            }),
        }
    }

    /// Commits `cmd` at `cycle`.
    ///
    /// `cycle` must be at or beyond [`BankCluster::earliest_issue`] for the
    /// same command, and at or beyond every previously issued command
    /// (commands are committed in program order).
    pub fn issue(&mut self, cmd: DramCommand, cycle: u64) -> Result<IssueOutcome, DramError> {
        let earliest = self.earliest_issue(cmd, 0)?;
        if cycle < earliest {
            return Err(DramError::TimingViolation {
                cmd,
                at_cycle: cycle,
                earliest,
            });
        }
        if cycle < self.last_state_cycle {
            return Err(DramError::TimingViolation {
                cmd,
                at_cycle: cycle,
                earliest: self.last_state_cycle,
            });
        }
        Ok(self.apply(cmd, cycle))
    }

    /// Schedules and commits `cmd` in one pass: computes the earliest legal
    /// cycle at or after `not_before` and issues the command there,
    /// returning the chosen cycle alongside the outcome.
    ///
    /// Equivalent to [`BankCluster::earliest_issue`] followed by
    /// [`BankCluster::issue`] at the returned cycle, but evaluates the
    /// timing constraints once instead of twice — the controller's hot path.
    pub fn issue_at_earliest(
        &mut self,
        cmd: DramCommand,
        not_before: u64,
    ) -> Result<(u64, IssueOutcome), DramError> {
        let cycle = self.earliest_issue(cmd, not_before)?;
        // `earliest_issue` never returns before `earliest_cmd`, which every
        // commit pushes past itself, so program order holds by construction.
        debug_assert!(cycle >= self.last_state_cycle);
        let outcome = self.apply(cmd, cycle);
        Ok((cycle, outcome))
    }

    /// Issues a run of `n` column bursts to the already-open row of `bank`
    /// — columns `col0, col0 + col_step, …` — in O(1) time. Exactly
    /// equivalent to `n` successive [`BankCluster::issue_at_earliest`]
    /// calls with the corresponding `Read`/`Write` commands: the
    /// controller's row-hit fast path.
    ///
    /// Burst 0 issues at `c0`, the latest of the command bus, `not_before`,
    /// the bank's column watermark and the same-direction data bus. After
    /// a burst at `c`, only the command bus (`c + 1`) and the same-direction
    /// data bus (`c + bl_ck`) move, and `bl_ck ≥ 1`, so burst `k` issues at
    /// `c0 + k·bl_ck`: every watermark the run leaves follows from the last
    /// burst's cycle. Energy still adds once per burst, in order, so the
    /// account's f64 bits are those of per-command issue.
    ///
    /// Returns `(first_cycle, last_data_end)`. With observability attached,
    /// the device asleep, a closed or bad bank, or a bad column, it issues
    /// the bursts one command at a time instead, so callbacks and errors
    /// are identical.
    #[inline]
    pub fn issue_column_run(
        &mut self,
        write: bool,
        bank: u32,
        col0: u32,
        col_step: u32,
        n: u32,
        not_before: u64,
    ) -> Result<(u64, u64), DramError> {
        debug_assert!(n > 0, "empty column run");
        let fast = n > 0
            && self.obs.is_none()
            && !self.self_refreshing
            && !self.powered_down
            && u64::from(col0) + u64::from(n - 1) * u64::from(col_step)
                < u64::from(self.geometry.cols)
            && self.banks.get(bank as usize).is_some_and(Bank::is_active);
        if !fast {
            return self.issue_column_run_per_command(write, bank, col0, col_step, n, not_before);
        }
        // A row hit leaves the background state (active standby) alone.
        debug_assert!(self.bg_state == BackgroundState::from_flags(true, false));
        let t = &self.timing;
        let bl_ck = t.bl_ck;
        let (pre_gap, latency, to_other, bus_same) = if write {
            (t.wr_to_pre_ck, t.wl, t.wr_to_rd_ck, self.earliest_wr)
        } else {
            (t.t_rtp, t.cl, t.rd_to_wr_ck, self.earliest_rd)
        };
        let b = &mut self.banks[bank as usize];
        let first = self
            .earliest_cmd
            .max(not_before)
            .max(b.earliest_col())
            .max(bus_same);
        let last = first + u64::from(n - 1) * bl_ck;
        b.apply_column(last, pre_gap);
        let end = last + latency + bl_ck;
        self.earliest_cmd = last + 1;
        self.last_state_cycle = last;
        self.data_busy_until = self.data_busy_until.max(end);
        if write {
            self.earliest_wr = last + bl_ck;
            self.earliest_rd = self.earliest_rd.max(last + to_other);
            for _ in 0..n {
                self.energy.record_write_burst();
            }
            self.stats.writes += u64::from(n);
        } else {
            self.earliest_rd = last + bl_ck;
            self.earliest_wr = self.earliest_wr.max(last + to_other);
            for _ in 0..n {
                self.energy.record_read_burst();
            }
            self.stats.reads += u64::from(n);
        }
        if let Some(trace) = &mut self.trace {
            for k in 0..n {
                trace.push(crate::validate::TracedCommand {
                    cycle: first + u64::from(k) * bl_ck,
                    cmd: column_command(write, bank, col0 + k * col_step),
                });
            }
        }
        Ok((first, end))
    }

    /// [`BankCluster::issue_column_run`] one command at a time: errors and
    /// observability callbacks are exactly those of unbatched issue.
    #[cold]
    #[inline(never)]
    fn issue_column_run_per_command(
        &mut self,
        write: bool,
        bank: u32,
        col0: u32,
        col_step: u32,
        n: u32,
        not_before: u64,
    ) -> Result<(u64, u64), DramError> {
        let mut first = u64::MAX;
        let mut last_end = 0;
        for k in 0..n {
            let cmd = column_command(write, bank, col0 + k * col_step);
            let (c, out) = self.issue_at_earliest(cmd, not_before)?;
            first = first.min(c);
            if let Some(end) = out.data_end_cycle {
                last_end = end;
            }
        }
        Ok((first, last_end))
    }

    /// Opens `row` in `bank` in O(1) time: a PRE when the bank has a row
    /// open, then the ACT, each at its earliest legal cycle at or after
    /// `not_before`. Exactly equivalent to the same commands issued through
    /// [`BankCluster::issue_at_earliest`]: the controller's row-switch
    /// path, the conflict-side twin of [`BankCluster::issue_column_run`].
    ///
    /// The PRE issues at the latest of the command bus, `not_before` and
    /// the bank's PRE watermark; it moves the command bus one cycle past
    /// itself and the bank's ACT watermark tRP (plus any bank penalty) past
    /// itself. The ACT then issues at the latest of the command bus,
    /// `not_before`, the bank's ACT watermark, tRRD and the tFAW ring; it
    /// arms the bank's tRCD (plus any penalty), tRAS and tRC windows and
    /// moves tRRD and the ring past itself. Statistics, trace entries,
    /// background switches and the activate energy follow in per-command
    /// order, so the energy account's f64 bits are those of per-command
    /// issue.
    ///
    /// Returns the first command's cycle. With observability attached, the
    /// device asleep, or a bad bank or row, it issues the commands one at a
    /// time instead, so callbacks and errors are identical.
    #[inline]
    pub fn switch_row(&mut self, bank: u32, row: u32, not_before: u64) -> Result<u64, DramError> {
        let fast = self.obs.is_none()
            && !self.self_refreshing
            && !self.powered_down
            && (bank as usize) < self.banks.len()
            && row < self.geometry.rows;
        if !fast {
            return self.switch_row_per_command(bank, row, not_before);
        }
        let i = bank as usize;
        let (extra_trcd, extra_trp) = self.penalty_of(i);
        let mut first = u64::MAX;
        if self.banks[i].is_active() {
            let c = self
                .earliest_cmd
                .max(not_before)
                .max(self.banks[i].earliest_pre());
            self.log_command(DramCommand::Precharge { bank }, c);
            self.banks[i].apply_precharge(c, self.timing.t_rp + extra_trp);
            self.open_banks -= 1;
            self.stats.precharges += 1;
            self.earliest_cmd = c + 1;
            self.switch_background(BackgroundState::from_flags(self.open_banks > 0, false), c);
            first = c;
        }
        let mut c = self
            .earliest_cmd
            .max(not_before)
            .max(self.banks[i].earliest_act())
            .max(self.earliest_any_act);
        if self.faw_len == 4 {
            c = c.max(self.faw_ring[self.faw_head as usize] + self.timing.t_faw);
        }
        self.log_command(DramCommand::Activate { bank, row }, c);
        let t = &self.timing;
        self.banks[i].apply_activate(c, row, t.t_rcd + extra_trcd, t.t_ras, t.t_rc);
        self.open_banks += 1;
        self.earliest_any_act = c + t.t_rrd;
        self.push_faw(c);
        self.energy.record_activate();
        self.stats.activates += 1;
        self.earliest_cmd = c + 1;
        self.switch_background(BackgroundState::ActiveStandby, c);
        Ok(first.min(c))
    }

    /// [`BankCluster::switch_row`] one command at a time: errors and
    /// observability callbacks are exactly those of unbatched issue.
    #[cold]
    #[inline(never)]
    fn switch_row_per_command(
        &mut self,
        bank: u32,
        row: u32,
        not_before: u64,
    ) -> Result<u64, DramError> {
        let mut first = u64::MAX;
        if self.open_row(bank)?.is_some() {
            let (c, _) = self.issue_at_earliest(DramCommand::Precharge { bank }, not_before)?;
            first = c;
        }
        let (c, _) = self.issue_at_earliest(DramCommand::Activate { bank, row }, not_before)?;
        Ok(first.min(c))
    }

    /// Runs the idle tail's power-down/refresh periods up to `target` in
    /// one pass: the idle-side twin of [`BankCluster::issue_column_run`].
    ///
    /// Refreshes fall due at `first_due` and every `t_refi` cycles after it.
    /// For each one due before `target` the device leaves power-down (PDX,
    /// when it is powered down) and refreshes (REF), each at its earliest
    /// legal cycle at or after the due cycle. It powers down again (PDE)
    /// `pd_after` cycles after the refresh's tRFC window closes, if that
    /// cycle lands before both `target` and the next due refresh. The
    /// commands, their cycles, bank and bus state, statistics, the trace
    /// and the energy account (the same f64 additions in the same order)
    /// are exactly those of issuing the same sequence one command at a time
    /// through [`BankCluster::issue_at_earliest`].
    ///
    /// Once a period repeats, the rest run as their energy additions alone.
    /// A period runs from one top (the device powered down, the refresh due
    /// at `due` next) to the next. When a period was exactly PDX → REF → PDE
    /// and the command bus, the power-down entry and the ACT watermark sit
    /// where they sat at its top, shifted by `t_refi` with `due`, every later
    /// period is the same period shifted by `t_refi` until the target binds.
    /// The data bus cannot bind, since the last PDE is already past it. The
    /// whole periods that fit before `target` then cost the account's calls
    /// alone, with no division per period.
    ///
    /// Runs only when the device is powered down with every bank closed and
    /// no observability attached; otherwise it issues nothing and returns
    /// `None`.
    pub fn idle_refresh_run(
        &mut self,
        first_due: u64,
        t_refi: u64,
        pd_after: u64,
        target: u64,
    ) -> Option<IdleRefreshRun> {
        if !self.powered_down || self.any_bank_open() || self.obs.is_some() {
            return None;
        }
        debug_assert!(!self.self_refreshing && t_refi > 0);
        let t = self.timing;
        let mut run = IdleRefreshRun::default();
        let mut due = first_due;
        // REF waits for every bank's ACT watermark; each REF pushes them all
        // to its tRFC end, so their maximum is all the run needs. The device
        // is awake in the run only after a REF, whose tRFC end `act_ready`
        // then is: where the idle count towards PDE restarts.
        let mut act_ready = self.banks.iter().map(Bank::earliest_act).max().unwrap_or(0);
        // The last period top's `[due, earliest_cmd, pd_since, act_ready]`;
        // the cycles of the current period's PDX, REF and PDE, and the
        // PDE's `pde_at`.
        let mut top: Option<[u64; 4]> = None;
        let mut period = [0; 4];
        loop {
            let pde_at = if self.powered_down {
                u64::MAX
            } else {
                act_ready.saturating_add(pd_after)
            };
            if due.min(pde_at) >= target {
                break;
            }
            if due <= pde_at {
                if self.powered_down {
                    // `due` one `t_refi` on means one REF since the last
                    // top: the period was exactly PDX → REF → PDE.
                    let now = [due, self.earliest_cmd, self.pd_since, act_ready];
                    let repeats = top.is_some_and(|last| {
                        (0..4).all(|i| last[i].checked_add(t_refi) == Some(now[i]))
                    });
                    if repeats {
                        if let Some(k) = self.repeat_idle_period(period, t_refi, target, act_ready)
                        {
                            let shift = k * t_refi;
                            due = due.saturating_add(shift);
                            act_ready += shift;
                            run.refreshes += k;
                            run.exits += k;
                            top = None;
                            continue;
                        }
                    }
                    top = Some(now);
                    let c = self.earliest_cmd.max(due).max(self.pd_since + t.t_cke_min);
                    self.log_command(DramCommand::PowerDownExit, c);
                    self.powered_down = false;
                    self.earliest_cmd = self.earliest_cmd.max(c + t.t_xp).max(c + 1);
                    self.switch_background(BackgroundState::PrechargeStandby, c);
                    run.exits += 1;
                    period[0] = c;
                }
                let c = self.earliest_cmd.max(due).max(act_ready);
                self.log_command(DramCommand::Refresh, c);
                self.earliest_cmd = self.earliest_cmd.max(c + t.t_rfc).max(c + 1);
                act_ready = act_ready.max(c + t.t_rfc);
                self.energy.record_refresh();
                self.stats.refreshes += 1;
                run.refreshes += 1;
                due = due.saturating_add(t_refi);
                period[1] = c;
            } else {
                let c = self.earliest_cmd.max(pde_at).max(self.data_busy_until);
                self.log_command(DramCommand::PowerDownEnter, c);
                self.powered_down = true;
                self.pd_since = c;
                self.stats.power_downs += 1;
                self.earliest_cmd = self.earliest_cmd.max(c + 1);
                self.switch_background(BackgroundState::PrechargePowerDown, c);
                period[2] = c;
                period[3] = pde_at;
            }
        }
        if run.refreshes > 0 {
            for b in &mut self.banks {
                b.push_act_watermark(act_ready);
            }
        }
        Some(run)
    }

    /// Repeats the idle period that just ended, shifted by `t_refi` each
    /// time, as often as [`BankCluster::idle_refresh_run`] would issue it
    /// whole before `target`: while its `pde_at` falls before the target.
    /// `period` holds that period's PDX, REF and PDE cycles and the PDE's
    /// `pde_at`; `act_ready` is the run's ACT watermark at the top.
    ///
    /// Each repeat calls the energy account as per-command issue does, in
    /// its order (leave power-down, record one refresh, enter power-down),
    /// at times from [`mcm_sim::ClockDomain::cycle_times`], so the account's
    /// f64 bits are those of per-command issue. A kept trace gets each
    /// repeat's three entries. Returns the number of repeats, or `None`,
    /// having issued nothing, when there are none or a shifted cycle would
    /// not fit in a `u64`.
    fn repeat_idle_period(
        &mut self,
        period: [u64; 4],
        t_refi: u64,
        target: u64,
        act_ready: u64,
    ) -> Option<u64> {
        let [exit, refresh, entry, pde_at] = period;
        let next_pde_at = pde_at.checked_add(t_refi).filter(|&at| at < target)?;
        let k = (target - 1 - next_pde_at) / t_refi + 1;
        let shift = k.checked_mul(t_refi)?;
        let earliest_cmd = self.earliest_cmd.checked_add(shift)?;
        let last_entry = entry.checked_add(shift)?;
        act_ready.checked_add(shift)?;
        let clock = self.timing.clock;
        let exits = clock.cycle_times(exit + t_refi, t_refi);
        let entries = clock.cycle_times(entry + t_refi, t_refi);
        for (_, (exit_at, entry_at)) in (0..k).zip(exits.zip(entries)) {
            self.energy
                .switch_state(BackgroundState::PrechargeStandby, exit_at);
            self.energy.record_refresh();
            self.energy
                .switch_state(BackgroundState::PrechargePowerDown, entry_at);
        }
        if let Some(trace) = &mut self.trace {
            trace.extend((1..=k).flat_map(|j| {
                let d = j * t_refi;
                [
                    (exit + d, DramCommand::PowerDownExit),
                    (refresh + d, DramCommand::Refresh),
                    (entry + d, DramCommand::PowerDownEnter),
                ]
                .map(|(cycle, cmd)| crate::validate::TracedCommand { cycle, cmd })
            }));
        }
        self.earliest_cmd = earliest_cmd;
        self.pd_since = last_entry;
        self.last_state_cycle = last_entry;
        self.stats.refreshes += k;
        self.stats.power_downs += k;
        Some(k)
    }

    /// `(extra tRCD, extra tRP)` for `bank`; `(0, 0)` when healthy.
    #[inline]
    fn penalty_of(&self, bank: usize) -> (u64, u64) {
        self.bank_penalty.as_ref().map_or((0, 0), |p| p[bank])
    }

    /// Commits an already-validated command: mutates bank/bus/power state,
    /// stats and energy. `cycle` must satisfy `earliest_issue` and program
    /// order; both entry points guarantee it.
    fn apply(&mut self, cmd: DramCommand, cycle: u64) -> IssueOutcome {
        self.log_command(cmd, cycle);
        let t = self.timing;
        let mut outcome = IssueOutcome {
            data_end_cycle: None,
        };
        match cmd {
            DramCommand::Activate { bank, row } => {
                let t_rcd = t.t_rcd + self.penalty_of(bank as usize).0;
                self.banks[bank as usize].apply_activate(cycle, row, t_rcd, t.t_ras, t.t_rc);
                self.open_banks += 1;
                self.earliest_any_act = self.earliest_any_act.max(cycle + t.t_rrd);
                self.push_faw(cycle);
                self.energy.record_activate();
                self.stats.activates += 1;
            }
            DramCommand::Read { bank, .. } => {
                self.banks[bank as usize].apply_column(cycle, t.t_rtp);
                self.earliest_rd = self.earliest_rd.max(cycle + t.bl_ck);
                self.earliest_wr = self.earliest_wr.max(cycle + t.rd_to_wr());
                let end = cycle + t.cl + t.bl_ck;
                self.data_busy_until = self.data_busy_until.max(end);
                self.energy.record_read_burst();
                self.stats.reads += 1;
                outcome.data_end_cycle = Some(end);
            }
            DramCommand::Write { bank, .. } => {
                self.banks[bank as usize].apply_column(cycle, t.wr_to_pre());
                self.earliest_wr = self.earliest_wr.max(cycle + t.bl_ck);
                self.earliest_rd = self.earliest_rd.max(cycle + t.wr_to_rd());
                let end = cycle + t.wl + t.bl_ck;
                self.data_busy_until = self.data_busy_until.max(end);
                self.energy.record_write_burst();
                self.stats.writes += 1;
                outcome.data_end_cycle = Some(end);
            }
            DramCommand::Precharge { bank } => {
                if self.banks[bank as usize].is_active() {
                    let t_rp = t.t_rp + self.penalty_of(bank as usize).1;
                    self.banks[bank as usize].apply_precharge(cycle, t_rp);
                    self.open_banks -= 1;
                    self.stats.precharges += 1;
                }
            }
            DramCommand::PrechargeAll => {
                let penalties = self.bank_penalty.take();
                for (i, b) in self.banks.iter_mut().enumerate() {
                    if b.is_active() {
                        let extra = penalties.as_ref().map_or(0, |p| p[i].1);
                        b.apply_precharge(cycle, t.t_rp + extra);
                        self.open_banks -= 1;
                        self.stats.precharges += 1;
                    }
                }
                self.bank_penalty = penalties;
            }
            DramCommand::Refresh => {
                self.earliest_cmd = self.earliest_cmd.max(cycle + t.t_rfc);
                for b in &mut self.banks {
                    b.push_act_watermark(cycle + t.t_rfc);
                }
                self.energy.record_refresh();
                self.stats.refreshes += 1;
            }
            DramCommand::PowerDownEnter => {
                self.powered_down = true;
                self.pd_since = cycle;
                self.stats.power_downs += 1;
            }
            DramCommand::PowerDownExit => {
                self.powered_down = false;
                self.earliest_cmd = self.earliest_cmd.max(cycle + t.t_xp);
            }
            DramCommand::SelfRefreshEnter => {
                self.self_refreshing = true;
                self.sr_since = cycle;
                self.stats.self_refreshes += 1;
            }
            DramCommand::SelfRefreshExit => {
                self.self_refreshing = false;
                self.earliest_cmd = self.earliest_cmd.max(cycle + t.t_xsr);
            }
        }
        // Command bus: one command per cycle.
        self.earliest_cmd = self.earliest_cmd.max(cycle + 1);
        if let Some(obs) = &self.obs {
            let at_ps = self.time_of_cycle(cycle).as_ps();
            let (kind, bank) = obs_kind_of(cmd);
            obs.command(bank, kind, at_ps);
            let model = self.energy.model();
            let event_pj = match kind {
                CommandKind::Activate => model.e_act_pj,
                CommandKind::Read => model.e_rd_burst_pj,
                CommandKind::Write => model.e_wr_burst_pj,
                CommandKind::Refresh => model.e_ref_pj,
                _ => 0.0,
            };
            if event_pj != 0.0 {
                obs.energy(kind, event_pj, at_ps);
            }
        }
        let state = if self.self_refreshing {
            BackgroundState::SelfRefresh
        } else {
            BackgroundState::from_flags(self.open_banks > 0, self.powered_down)
        };
        self.switch_background(state, cycle);
        outcome
    }

    /// Records an ACT at `cycle` in the four-activate (tFAW) ring.
    #[inline]
    fn push_faw(&mut self, cycle: u64) {
        if self.faw_len == 4 {
            self.faw_ring[self.faw_head as usize] = cycle;
            self.faw_head = (self.faw_head + 1) & 3;
        } else {
            self.faw_ring[((self.faw_head + self.faw_len) & 3) as usize] = cycle;
            self.faw_len += 1;
        }
    }

    /// Program-order bookkeeping every committed command shares: the
    /// last-state cycle and, when tracing, the trace entry.
    #[inline]
    fn log_command(&mut self, cmd: DramCommand, cycle: u64) {
        self.last_state_cycle = cycle;
        if let Some(trace) = &mut self.trace {
            trace.push(crate::validate::TracedCommand { cycle, cmd });
        }
    }

    /// Closes the background-energy interval at `cycle` and enters `state`,
    /// if the state changes, reporting the closed interval when
    /// observability is attached. Intervals close only at state changes,
    /// observed or not, so attaching a recorder never changes the energy
    /// account's additions.
    #[inline]
    fn switch_background(&mut self, state: BackgroundState, cycle: u64) {
        if state != self.bg_state {
            self.bg_state = state;
            let now = self.time_of_cycle(cycle);
            let (from_ps, to_ps, bg_pj) = self.energy.switch_state(state, now);
            if let Some(obs) = &self.obs {
                if to_ps > from_ps {
                    obs.background(from_ps, to_ps, bg_pj);
                }
            }
        }
    }

    /// Wall-clock time of a cycle index on this device's interface clock.
    pub fn time_of_cycle(&self, cycle: u64) -> SimTime {
        self.timing.clock.time_of_cycles(cycle)
    }

    /// Reports the background-energy interval `close_traced` just closed,
    /// so the tail of a run (often a long power-down stretch) shows up on
    /// observability timelines instead of vanishing at the horizon.
    fn emit_tail_background(&mut self, t: SimTime) {
        if let Some(obs) = self.obs.clone() {
            let (from_ps, to_ps, bg_pj) = self.energy.close_traced(t);
            if to_ps > from_ps {
                obs.background(from_ps, to_ps, bg_pj);
            }
        }
    }

    /// Total core energy up to `end_cycle`, picojoules.
    pub fn total_energy_pj(&mut self, end_cycle: u64) -> f64 {
        let t = self.time_of_cycle(end_cycle);
        self.emit_tail_background(t);
        self.energy.total_pj(t)
    }

    /// Background-only energy up to `end_cycle`, picojoules.
    pub fn background_energy_pj(&mut self, end_cycle: u64) -> f64 {
        let t = self.time_of_cycle(end_cycle);
        self.emit_tail_background(t);
        self.energy.background_pj(t)
    }

    /// Per-event (activate/burst/refresh) energy so far, picojoules.
    pub fn event_energy_pj(&self) -> f64 {
        self.energy.event_pj()
    }

    /// Per-event energy split by command class, picojoules:
    /// (activate, read burst, write burst, refresh).
    pub fn event_breakdown_pj(&self) -> (f64, f64, f64, f64) {
        self.energy.event_breakdown_pj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cluster() -> BankCluster {
        BankCluster::new(&ClusterConfig::next_gen_mobile_ddr(400)).unwrap()
    }

    #[test]
    fn construction_validates_clock() {
        assert!(BankCluster::new(&ClusterConfig::next_gen_mobile_ddr(100)).is_err());
        assert!(BankCluster::new(&ClusterConfig::next_gen_mobile_ddr(400)).is_ok());
    }

    #[test]
    fn basic_open_read_close_sequence() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::Activate { bank: 0, row: 7 }, 0)
            .unwrap();
        assert_eq!(c.open_row(0).unwrap(), Some(7));
        // Read must wait tRCD.
        let err = c
            .issue(DramCommand::Read { bank: 0, col: 0 }, 1)
            .unwrap_err();
        assert!(matches!(err, DramError::TimingViolation { earliest, .. } if earliest == t.t_rcd));
        let out = c
            .issue(DramCommand::Read { bank: 0, col: 0 }, t.t_rcd)
            .unwrap();
        assert_eq!(out.data_end_cycle, Some(t.t_rcd + t.cl + t.bl_ck));
        // Precharge must wait tRAS.
        let e = c
            .earliest_issue(DramCommand::Precharge { bank: 0 }, 0)
            .unwrap();
        assert_eq!(e, t.t_ras);
        c.issue(DramCommand::Precharge { bank: 0 }, t.t_ras)
            .unwrap();
        assert_eq!(c.open_row(0).unwrap(), None);
    }

    #[test]
    fn bank_penalty_stretches_trcd_and_trp() {
        let mut c = cluster();
        let t = *c.timing();
        c.set_bank_penalty(0, 5, 3).unwrap();
        // Degraded bank: the read must now wait tRCD + 5.
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        let e = c
            .earliest_issue(DramCommand::Read { bank: 0, col: 0 }, 0)
            .unwrap();
        assert_eq!(e, t.t_rcd + 5);
        // Healthy banks are untouched.
        c.issue(DramCommand::Activate { bank: 1, row: 0 }, t.t_rrd)
            .unwrap();
        let e1 = c
            .earliest_issue(DramCommand::Read { bank: 1, col: 0 }, 0)
            .unwrap();
        assert_eq!(e1, t.t_rrd + t.t_rcd);
        // Precharge on the slow bank blocks the next ACT for tRP + 3 extra.
        let pre_at = c
            .earliest_issue(DramCommand::Precharge { bank: 0 }, 0)
            .unwrap();
        c.issue(DramCommand::Precharge { bank: 0 }, pre_at).unwrap();
        let act = c
            .earliest_issue(DramCommand::Activate { bank: 0, row: 1 }, 0)
            .unwrap();
        assert!(act >= pre_at + t.t_rp + 3);
        // Out-of-range banks are rejected.
        assert!(c.set_bank_penalty(99, 1, 1).is_err());
    }

    #[test]
    fn read_to_closed_row_is_illegal() {
        let mut c = cluster();
        let err = c
            .issue(DramCommand::Read { bank: 0, col: 0 }, 0)
            .unwrap_err();
        assert!(matches!(err, DramError::IllegalCommand { .. }));
    }

    #[test]
    fn act_to_open_bank_is_illegal() {
        let mut c = cluster();
        c.issue(DramCommand::Activate { bank: 1, row: 0 }, 0)
            .unwrap();
        let err = c
            .earliest_issue(DramCommand::Activate { bank: 1, row: 5 }, 0)
            .unwrap_err();
        assert!(matches!(err, DramError::IllegalCommand { .. }));
    }

    #[test]
    fn trrd_spaces_cross_bank_activates() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        let e = c
            .earliest_issue(DramCommand::Activate { bank: 1, row: 0 }, 0)
            .unwrap();
        assert_eq!(e, t.t_rrd);
    }

    #[test]
    fn back_to_back_reads_space_by_burst_length() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        c.issue(DramCommand::Read { bank: 0, col: 0 }, t.t_rcd)
            .unwrap();
        let e = c
            .earliest_issue(DramCommand::Read { bank: 0, col: 4 }, 0)
            .unwrap();
        assert_eq!(e, t.t_rcd + t.bl_ck);
    }

    #[test]
    fn write_read_turnaround_exceeds_burst_spacing() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        c.issue(DramCommand::Write { bank: 0, col: 0 }, t.t_rcd)
            .unwrap();
        let rd = c
            .earliest_issue(DramCommand::Read { bank: 0, col: 4 }, 0)
            .unwrap();
        let wr = c
            .earliest_issue(DramCommand::Write { bank: 0, col: 4 }, 0)
            .unwrap();
        assert_eq!(wr, t.t_rcd + t.bl_ck);
        assert_eq!(rd, t.t_rcd + t.wr_to_rd());
        assert!(rd > wr);
    }

    #[test]
    fn refresh_requires_all_banks_closed_and_blocks_trfc() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        assert!(matches!(
            c.earliest_issue(DramCommand::Refresh, 0),
            Err(DramError::IllegalCommand { .. })
        ));
        c.issue(DramCommand::Precharge { bank: 0 }, t.t_ras)
            .unwrap();
        let e = c.earliest_issue(DramCommand::Refresh, 0).unwrap();
        // After PRE at tRAS, REF must wait tRP (via the bank ACT watermark).
        assert_eq!(e, t.t_ras + t.t_rp);
        c.issue(DramCommand::Refresh, e).unwrap();
        let next = c
            .earliest_issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        assert_eq!(next, e + t.t_rfc);
    }

    #[test]
    fn power_down_gates_everything_but_pdx() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::PowerDownEnter, 5).unwrap();
        assert!(c.is_powered_down());
        assert!(matches!(
            c.earliest_issue(DramCommand::Activate { bank: 0, row: 0 }, 0),
            Err(DramError::IllegalCommand { .. })
        ));
        let e = c.earliest_issue(DramCommand::PowerDownExit, 0).unwrap();
        assert_eq!(e, 5 + t.t_cke_min);
        c.issue(DramCommand::PowerDownExit, e).unwrap();
        assert!(!c.is_powered_down());
        // tXP gates the next command.
        let act = c
            .earliest_issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        assert_eq!(act, e + t.t_xp);
    }

    #[test]
    fn power_down_enter_waits_for_data_drain() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        let out = c
            .issue(DramCommand::Read { bank: 0, col: 0 }, t.t_rcd)
            .unwrap();
        let e = c.earliest_issue(DramCommand::PowerDownEnter, 0).unwrap();
        assert_eq!(e, out.data_end_cycle.unwrap());
    }

    #[test]
    fn pdx_when_not_powered_down_is_illegal() {
        let c = cluster();
        assert!(matches!(
            c.earliest_issue(DramCommand::PowerDownExit, 0),
            Err(DramError::IllegalCommand { .. })
        ));
    }

    #[test]
    fn commands_cannot_go_backwards_in_time() {
        let mut c = cluster();
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 100)
            .unwrap();
        let err = c.issue(DramCommand::Precharge { bank: 1 }, 50).unwrap_err();
        assert!(matches!(err, DramError::TimingViolation { .. }));
    }

    #[test]
    fn precharge_to_idle_bank_is_noop() {
        let mut c = cluster();
        c.issue(DramCommand::Precharge { bank: 0 }, 0).unwrap();
        assert_eq!(c.stats().precharges, 0);
    }

    #[test]
    fn stats_and_energy_accumulate() {
        let mut c = cluster();
        let t = *c.timing();
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        c.issue(DramCommand::Read { bank: 0, col: 0 }, t.t_rcd)
            .unwrap();
        c.issue(
            DramCommand::Write { bank: 0, col: 4 },
            t.t_rcd + t.rd_to_wr(),
        )
        .unwrap();
        let s = c.stats();
        assert_eq!((s.activates, s.reads, s.writes), (1, 1, 1));
        assert!(c.event_energy_pj() > 0.0);
        assert!(c.total_energy_pj(10_000) > c.event_energy_pj());
    }

    #[test]
    fn bad_bank_and_column_are_rejected() {
        let mut c = cluster();
        assert!(matches!(
            c.issue(DramCommand::Activate { bank: 9, row: 0 }, 0),
            Err(DramError::BadBank { .. })
        ));
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        assert!(matches!(
            c.earliest_issue(DramCommand::Read { bank: 0, col: 512 }, 0),
            Err(DramError::IllegalCommand { .. })
        ));
        let mut c2 = cluster();
        assert!(matches!(
            c2.issue(DramCommand::Activate { bank: 0, row: 8192 }, 0),
            Err(DramError::IllegalCommand { .. })
        ));
    }

    /// The sequence [`BankCluster::idle_refresh_run`] documents, issued one
    /// command at a time through [`BankCluster::issue_at_earliest`].
    fn idle_run_per_command(
        c: &mut BankCluster,
        first_due: u64,
        t_refi: u64,
        pd_after: u64,
        target: u64,
    ) -> IdleRefreshRun {
        let mut run = IdleRefreshRun::default();
        let mut due = first_due;
        let mut idle_since = 0;
        loop {
            let pde_at = if c.is_powered_down() {
                u64::MAX
            } else {
                idle_since + pd_after
            };
            if due.min(pde_at) >= target {
                return run;
            }
            if due <= pde_at {
                if c.is_powered_down() {
                    c.issue_at_earliest(DramCommand::PowerDownExit, due)
                        .unwrap();
                    run.exits += 1;
                }
                let (r, _) = c.issue_at_earliest(DramCommand::Refresh, due).unwrap();
                idle_since = r + c.timing().t_rfc;
                run.refreshes += 1;
                due += t_refi;
            } else {
                c.issue_at_earliest(DramCommand::PowerDownEnter, pde_at)
                    .unwrap();
            }
        }
    }

    /// Runs `idle_refresh_run` on `device` and the documented sequence on a
    /// copy of it, one command at a time, and asserts that both issued the
    /// same commands at the same cycles and left the same state and energy
    /// bits.
    fn assert_idle_run_matches(
        device: &BankCluster,
        first_due: u64,
        t_refi: u64,
        pd_after: u64,
        target: u64,
        case: &str,
    ) {
        let mut b = device.clone();
        let mut r = device.clone();
        let batched = b
            .idle_refresh_run(first_due, t_refi, pd_after, target)
            .unwrap();
        let reference = idle_run_per_command(&mut r, first_due, t_refi, pd_after, target);
        assert_eq!(batched, reference, "{case}");
        assert_eq!(b.trace.take(), r.trace.take(), "{case}");
        // Debug prints every other field, f64s in round-trip form: banks,
        // buses, power state, stats and energy.
        assert_eq!(format!("{b:?}"), format!("{r:?}"), "{case}");
        let end = target + 500;
        assert_eq!(
            b.total_energy_pj(end).to_bits(),
            r.total_energy_pj(end).to_bits(),
            "{case}"
        );
    }

    /// Refresh intervals from shorter than tRFC (back-to-back refreshes)
    /// through ties between the next refresh and power-down entry (the
    /// refresh wins) to long power-down stretches, at whole and fractional
    /// picosecond clock periods, with targets tens to thousands of periods
    /// away (the repeating periods' fast path), the last one mid-period:
    /// the same commands, cycles, state and energy bits as per-command
    /// issue.
    #[test]
    fn idle_refresh_run_matches_per_command_issue() {
        for clock in [266, 400] {
            // A row opened and closed just before power-down: the first
            // refresh waits for its ACT watermark.
            let mut c = BankCluster::new(&ClusterConfig::next_gen_mobile_ddr(clock)).unwrap();
            c.enable_trace();
            c.issue(DramCommand::Activate { bank: 2, row: 9 }, 0)
                .unwrap();
            let pre = c
                .earliest_issue(DramCommand::Precharge { bank: 2 }, 0)
                .unwrap();
            c.issue(DramCommand::Precharge { bank: 2 }, pre).unwrap();
            c.issue(DramCommand::PowerDownEnter, pre + 1).unwrap();
            let first_due = 10;
            for t_refi in 1..=120 {
                for pd_after in [0, 1, 5, 30, 64] {
                    for target in [3_000, first_due + 4_000 * t_refi + t_refi / 2] {
                        let case = format!(
                            "{clock} MHz, tREFI {t_refi}, PDE after {pd_after}, target {target}"
                        );
                        assert_idle_run_matches(&c, first_due, t_refi, pd_after, target, &case);
                    }
                }
            }
        }
    }

    /// A device with bank 2's row opened and closed, that bank's next ACT
    /// held back `extra_trp` cycles past tRP: returns it and the bank's ACT
    /// watermark.
    fn slow_precharged(clock: u64, extra_trp: u64) -> (BankCluster, u64) {
        let mut c = BankCluster::new(&ClusterConfig::next_gen_mobile_ddr(clock)).unwrap();
        c.enable_trace();
        c.set_bank_penalty(2, 0, extra_trp).unwrap();
        c.issue(DramCommand::Activate { bank: 2, row: 9 }, 0)
            .unwrap();
        let pre = c
            .earliest_issue(DramCommand::Precharge { bank: 2 }, 0)
            .unwrap();
        c.issue(DramCommand::Precharge { bank: 2 }, pre).unwrap();
        let ready = pre + c.timing().t_rp + extra_trp;
        (c, ready)
    }

    /// First tops whose next period differs from the first in one field of
    /// the compared state alone, each built exactly:
    /// - a slow bank's long tRP holds the first refresh back to the bank's
    ///   ACT watermark; powered down one tREFI before the entry that the
    ///   first period then makes, the device reaches the next top with the
    ///   command bus, the power-down entry and the due refresh one tREFI on,
    ///   and only the ACT watermark differs;
    /// - a refresh already due at power-down makes the first period issue
    ///   two refreshes; with tREFI that period's length, only the due
    ///   refresh is two tREFI on instead of one.
    #[test]
    fn idle_refresh_run_spots_a_period_that_differs() {
        for clock in [266, 400] {
            for pd_after in [0, 5, 40] {
                for extra_trp in [300, 500] {
                    let (c, ready) = slow_precharged(clock, extra_trp);
                    let t = *c.timing();
                    for (t_refi, jitter) in [150, 200, 300].into_iter().zip(0..3) {
                        let mut c = c.clone();
                        let pde = ready + t.t_rfc + pd_after + jitter - t_refi;
                        c.issue(DramCommand::PowerDownEnter, pde).unwrap();
                        for due_back in [1, 20, 50] {
                            let first_due = ready - due_back;
                            let target = first_due + 40 * t_refi + 7;
                            let case = format!(
                                "held back: {clock} MHz, tREFI {t_refi}, PDE after {pd_after}, \
                                 extra tRP {extra_trp}, jitter {jitter}, due {due_back} early"
                            );
                            assert_idle_run_matches(&c, first_due, t_refi, pd_after, target, &case);
                        }
                    }
                    let mut c = c.clone();
                    let pde = ready + pd_after;
                    c.issue(DramCommand::PowerDownEnter, pde).unwrap();
                    let t_refi = t.t_cke_min + t.t_xp + 2 * t.t_rfc + pd_after;
                    for back in [pd_after, pd_after + 7] {
                        let first_due = pde - t.t_rfc - back;
                        let target = first_due + 40 * t_refi + 7;
                        let case = format!(
                            "overdue: {clock} MHz, PDE after {pd_after}, \
                             extra tRP {extra_trp}, due {back} before PDE − tRFC"
                        );
                        assert_idle_run_matches(&c, first_due, t_refi, pd_after, target, &case);
                    }
                }
            }
        }
    }

    /// A command of the random prefix before a column run or row switch,
    /// to one of banks `0..banks`.
    fn arb_prefix_cmd(banks: u32) -> impl Strategy<Value = DramCommand> {
        prop_oneof![
            (0..banks, 0u32..8192).prop_map(|(bank, row)| DramCommand::Activate { bank, row }),
            (0..banks).prop_map(|bank| DramCommand::Precharge { bank }),
            (0..banks, 0u32..512).prop_map(|(bank, col)| DramCommand::Read { bank, col }),
            (0..banks, 0u32..512).prop_map(|(bank, col)| DramCommand::Write { bank, col }),
        ]
    }

    /// Issues `prefix` at the earliest legal cycles, skipping commands that
    /// are illegal in the drawn state: a random legal prefix.
    fn issue_prefix(device: &mut BankCluster, prefix: Vec<(DramCommand, u64)>) {
        for (cmd, not_before) in prefix {
            let _ = device.issue_at_earliest(cmd, not_before);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A closed-form column run leaves the device exactly where the same
        /// bursts issued one command at a time leave it: return value, every
        /// bank and bus watermark, stats, the trace (one entry per burst) and
        /// the energy bits, after any legal prefix, on three parts at burst
        /// lengths 2–16 and the paper's clocks.
        #[test]
        fn column_run_matches_per_command_issue(
            part in 0usize..3,
            clock in prop_oneof![Just(200u64), Just(266), Just(333), Just(400), Just(533)],
            burst_len_log2 in 1u32..5,
            prefix in prop::collection::vec((arb_prefix_cmd(4), 0u64..64), 0..24),
            write in any::<bool>(),
            bank in 0u32..4,
            row in 0u32..8192,
            col_seed in 0u32..512,
            col_step in prop_oneof![Just(1u32), Just(2), Just(4)],
            n in 1u32..=16,
            not_before in 0u64..400,
        ) {
            let mut config = [
                ClusterConfig::next_gen_mobile_ddr,
                ClusterConfig::standard_ddr2,
                ClusterConfig::future_lpddr2,
            ][part](clock);
            config.geometry.burst_len = 1 << burst_len_log2;
            // Not every part runs at every paper clock.
            let built = BankCluster::new(&config);
            prop_assume!(built.is_ok());
            let mut run = built.unwrap();
            run.enable_trace();
            issue_prefix(&mut run, prefix);
            if !run.banks[bank as usize].is_active() {
                run.issue_at_earliest(DramCommand::Activate { bank, row }, 0).unwrap();
            }
            let col0 = col_seed % (config.geometry.cols - (n - 1) * col_step);
            let mut reference = run.clone();
            let got = run.issue_column_run(write, bank, col0, col_step, n, not_before).unwrap();
            let mut first = u64::MAX;
            let mut end = 0;
            for k in 0..n {
                let cmd = column_command(write, bank, col0 + k * col_step);
                let (c, out) = reference.issue_at_earliest(cmd, not_before).unwrap();
                first = first.min(c);
                end = out.data_end_cycle.unwrap();
            }
            prop_assert_eq!(got, (first, end));
            // Debug prints every field, f64s in round-trip form.
            prop_assert_eq!(format!("{run:?}"), format!("{reference:?}"));
            let horizon = end + 1_000;
            prop_assert_eq!(
                run.total_energy_pj(horizon).to_bits(),
                reference.total_energy_pj(horizon).to_bits()
            );
        }

        /// A closed-form row switch leaves the device exactly where PRE (when
        /// a row is open) and ACT issued one command at a time leave it:
        /// return value, every bank and bus watermark, the tRRD/tFAW ring,
        /// stats, the trace and the energy bits, after any legal prefix, on
        /// three parts at the paper's clocks, with or without a slow bank.
        /// Up to four activates to other banks just before the switch let
        /// tRRD and tFAW hold its ACT back; eight-bank clusters are drawn
        /// too, since with four banks tRC ≥ tFAW keeps the four-activate
        /// window from ever binding.
        #[test]
        fn switch_row_matches_per_command_issue(
            part in 0usize..3,
            clock in prop_oneof![Just(200u64), Just(266), Just(333), Just(400), Just(533)],
            banks in prop_oneof![Just(4u32), Just(8)],
            prefix in prop::collection::vec((arb_prefix_cmd(8), 0u64..64), 0..32),
            lead_acts in 0usize..5,
            penalty in (any::<bool>(), 0u32..4, 0u64..8, 0u64..8),
            bank in 0u32..8,
            row in 0u32..8192,
            not_before in 0u64..64,
        ) {
            let mut config = [
                ClusterConfig::next_gen_mobile_ddr,
                ClusterConfig::standard_ddr2,
                ClusterConfig::future_lpddr2,
            ][part](clock);
            config.geometry.banks = banks;
            let bank = bank % banks;
            // Not every part runs at every paper clock.
            let built = BankCluster::new(&config);
            prop_assume!(built.is_ok());
            let mut run = built.unwrap();
            run.enable_trace();
            if let (true, slow, extra_trcd, extra_trp) = penalty {
                run.set_bank_penalty(slow, extra_trcd, extra_trp).unwrap();
            }
            issue_prefix(&mut run, prefix);
            let closed: Vec<u32> = (0..banks)
                .filter(|&b| b != bank && run.banks[b as usize].open_row().is_none())
                .take(lead_acts)
                .collect();
            for other in closed {
                run.issue_at_earliest(DramCommand::Activate { bank: other, row }, 0).unwrap();
            }
            let mut reference = run.clone();
            let got = run.switch_row(bank, row, not_before).unwrap();
            let mut first = u64::MAX;
            if reference.open_row(bank).unwrap().is_some() {
                let pre = DramCommand::Precharge { bank };
                first = reference.issue_at_earliest(pre, not_before).unwrap().0;
            }
            let act = DramCommand::Activate { bank, row };
            let (act, _) = reference.issue_at_earliest(act, not_before).unwrap();
            prop_assert_eq!(got, first.min(act));
            // Debug prints every field, f64s in round-trip form.
            prop_assert_eq!(format!("{run:?}"), format!("{reference:?}"));
            let horizon = act + 1_000;
            prop_assert_eq!(
                run.total_energy_pj(horizon).to_bits(),
                reference.total_energy_pj(horizon).to_bits()
            );
        }
    }

    /// Asleep, or with a bad bank or row, a row switch errs exactly as
    /// per-command issue does, having committed the same commands first.
    #[test]
    fn switch_row_errors_match_per_command_issue() {
        for (asleep, bank, row) in [(false, 1, 8192), (false, 9, 0), (true, 1, 4), (true, 2, 4)] {
            let mut run = cluster();
            run.enable_trace();
            run.issue(DramCommand::Activate { bank: 1, row: 3 }, 0)
                .unwrap();
            if asleep {
                run.issue(DramCommand::PowerDownEnter, 20).unwrap();
            }
            let mut reference = run.clone();
            let err = run.switch_row(bank, row, 0).unwrap_err();
            let mut per_command = || {
                if reference.open_row(bank)?.is_some() {
                    reference.issue_at_earliest(DramCommand::Precharge { bank }, 0)?;
                }
                reference.issue_at_earliest(DramCommand::Activate { bank, row }, 0)
            };
            let reference_err = per_command().unwrap_err();
            assert_eq!(err, reference_err, "bank {bank}, row {row}");
            assert_eq!(format!("{run:?}"), format!("{reference:?}"));
        }
    }

    /// An ACT to a row past the device is refused before anything is
    /// committed, through either entry point: no trace entry and no
    /// program-order watermark, so an ACT at an earlier cycle still issues.
    #[test]
    fn a_refused_activate_leaves_no_trace() {
        let mut fresh = cluster();
        fresh.enable_trace();
        let bad = DramCommand::Activate { bank: 0, row: 8192 };
        let good = DramCommand::Activate { bank: 0, row: 1 };
        let mut c = fresh.clone();
        assert!(matches!(
            c.issue(bad, 5),
            Err(DramError::IllegalCommand { .. })
        ));
        assert_eq!(format!("{c:?}"), format!("{fresh:?}"));
        c.issue(good, 2).unwrap();
        let issued = crate::validate::TracedCommand {
            cycle: 2,
            cmd: good,
        };
        assert_eq!(c.trace(), Some(&[issued][..]));
        let mut c = fresh.clone();
        assert!(matches!(
            c.issue_at_earliest(bad, 5),
            Err(DramError::IllegalCommand { .. })
        ));
        assert_eq!(format!("{c:?}"), format!("{fresh:?}"));
        assert_eq!(c.issue_at_earliest(good, 2).unwrap().0, 2);
        assert_eq!(c.trace(), Some(&[issued][..]));
    }

    #[test]
    fn idle_refresh_run_needs_a_powered_down_idle_device() {
        let mut c = cluster();
        assert_eq!(c.idle_refresh_run(10, 100, 1, 1_000), None);
        c.issue(DramCommand::Activate { bank: 0, row: 0 }, 0)
            .unwrap();
        c.issue(DramCommand::PowerDownEnter, 1).unwrap();
        assert_eq!(c.idle_refresh_run(10, 100, 1, 1_000), None);
        assert_eq!(c.stats().refreshes, 0);
    }
}
