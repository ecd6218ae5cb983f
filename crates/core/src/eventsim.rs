//! Event-driven execution of an experiment on the `mcm_sim` kernel.
//!
//! The direct-call path ([`Experiment::run_with`](crate::Experiment::run_with)) floods
//! the memory subsystem with the frame's operations and lets each channel
//! drain them — the paper's bandwidth-bound access-time measurement. This
//! module runs the *same* experiment as a discrete-event simulation, the way
//! the paper's SystemC ESL environment executed its models: a load-master
//! **component** issues master transactions with a bounded window of
//! outstanding transactions, channel **components** wrap the controllers,
//! and completions flow back as timestamped messages.
//!
//! Two uses:
//!
//! * **cross-validation** — with a wide window the event-driven access time
//!   converges to the direct-call result (asserted in the test suite);
//! * **memory-level-parallelism study** — with a narrow window the master
//!   becomes latency-bound and the multi-channel speedup collapses; the
//!   `ext_mlp` bench target sweeps this.

use mcm_channel::{ChannelError, InterleaveMap};
use mcm_ctrl::{AccessOp, ChannelRequest, Controller, CtrlError};
use mcm_load::LoadOp;
use mcm_sim::{
    ClockDomain, Component, ComponentId, Ctx, Frequency, QueueKind, SimTime, Simulation,
};

use crate::error::CoreError;
use crate::experiment::Experiment;
use crate::feed::access_op;

/// Messages exchanged between the load master and the channels.
#[derive(Debug)]
enum Msg {
    /// Master → channel: serve one channel-local request (tagged with the
    /// master transaction id).
    Request { txn: u64, req: ChannelRequest },
    /// Channel → master: one channel's slice of transaction `txn` finished
    /// at `done_cycle`.
    Slice { txn: u64, done_cycle: u64 },
}

/// A channel component: owns one controller, serves requests, reports
/// completions.
struct ChannelComp {
    ctrl: Controller,
    master: Option<ComponentId>,
    /// First controller failure, surfaced after the run instead of
    /// panicking inside the kernel (the request stream is legal by
    /// construction, but a rejected request must become a typed error).
    error: Option<CtrlError>,
}

impl Component<Msg> for ChannelComp {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Request { txn, req } = msg else {
            return;
        };
        // The controller speaks cycles; the kernel speaks time.
        let res = match self.ctrl.access(req) {
            Ok(res) => res,
            Err(e) => {
                self.error.get_or_insert(e);
                ctx.request_stop();
                return;
            }
        };
        let done_time = self
            .ctrl
            .device()
            .timing()
            .clock
            .time_of_cycles(res.done_cycle);
        let Some(master) = self.master else {
            // Wiring failed upstream; stop the run rather than panic
            // inside the kernel.
            ctx.request_stop();
            return;
        };
        // Notify the master when the slice's data completes.
        let delay = done_time.saturating_sub(ctx.now());
        ctx.send_after(
            delay,
            master,
            Msg::Slice {
                txn,
                done_cycle: res.done_cycle,
            },
        );
    }

    fn name(&self) -> &str {
        "channel"
    }
}

/// The load master: issues master transactions with at most `window`
/// outstanding, in program order.
struct MasterComp {
    ops: std::vec::IntoIter<LoadOp>,
    interleave: InterleaveMap,
    channels: Vec<ComponentId>,
    clock: ClockDomain,
    window: u32,
    next_txn: u64,
    /// Slices still in flight per transaction, indexed by `txn - txn_base`
    /// (transactions are issued with consecutive ids, so the live set is a
    /// dense sliding window — no hashing on the hot path). `inflight_live`
    /// counts entries that have not fully completed.
    inflight: std::collections::VecDeque<u32>,
    txn_base: u64,
    inflight_live: u32,
    /// Reused per-op fan-out buffer for [`InterleaveMap::split_range_into`].
    slice_buf: Vec<Option<(u64, u64)>>,
    last_done_cycle: u64,
}

impl MasterComp {
    fn issue_until_window_full(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // All transactions issued in this call share the kernel timestamp,
        // so the cycle conversion happens once, not per op.
        let arrival = self.clock.cycles_ceil(ctx.now());
        while self.inflight_live < self.window {
            let Some(op) = self.ops.next() else { return };
            let txn = self.next_txn;
            self.next_txn += 1;
            let mut slices = std::mem::take(&mut self.slice_buf);
            self.interleave
                .split_range_into(op.addr, op.len as u64, &mut slices);
            let mut n = 0;
            for (ch, slice) in slices.iter().enumerate() {
                let Some((local, len)) = *slice else { continue };
                ctx.send_now(
                    self.channels[ch],
                    Msg::Request {
                        txn,
                        req: ChannelRequest {
                            op: access_op(&op),
                            addr: local,
                            len: len as u32,
                            arrival,
                        },
                    },
                );
                n += 1;
            }
            self.slice_buf = slices;
            self.inflight.push_back(n);
            self.inflight_live += 1;
        }
    }

    fn retire_slice(&mut self, txn: u64) -> bool {
        let idx = (txn - self.txn_base) as usize;
        let remaining = &mut self.inflight[idx];
        debug_assert!(*remaining > 0, "completion for a retired transaction");
        *remaining -= 1;
        if *remaining > 0 {
            return false;
        }
        self.inflight_live -= 1;
        // Drop the completed prefix so the deque stays window-sized.
        while let Some(&0) = self.inflight.front() {
            self.inflight.pop_front();
            self.txn_base += 1;
        }
        true
    }
}

impl Component<Msg> for MasterComp {
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Slice { txn, done_cycle } => {
                self.last_done_cycle = self.last_done_cycle.max(done_cycle);
                if self.retire_slice(txn) {
                    // A window slot opened: issue more work.
                    self.issue_until_window_full(ctx);
                }
            }
            Msg::Request { .. } => {
                // The initial kick: start filling the window.
                self.issue_until_window_full(ctx);
            }
        }
    }

    fn name(&self) -> &str {
        "load-master"
    }
}

/// Result of an event-driven run.
#[derive(Debug, Clone, Copy)]
pub struct EventDrivenResult {
    /// Time at which the last data beat of the frame completed.
    pub access_time: SimTime,
    /// Number of master transactions issued.
    pub transactions: u64,
    /// Kernel events fired.
    pub events: u64,
}

/// Runs `exp` for one frame on the discrete-event kernel with at most
/// `window` outstanding master transactions.
///
/// `window == u32::MAX` approximates the direct-call flood; `window == 1`
/// is a fully blocking master.
pub fn run_event_driven(exp: &Experiment, window: u32) -> Result<EventDrivenResult, CoreError> {
    run_event_driven_configured(exp, window, QueueKind::default(), None)
}

/// [`run_event_driven`] with an explicit kernel event-queue implementation
/// and an optional instrumentation sink. The cross-engine parity harness
/// runs the same experiment on [`QueueKind::Calendar`] and
/// [`QueueKind::BinaryHeap`] and asserts identical results; benchmarks use
/// it to measure the queue swap. With a recorder attached, the kernel
/// reports every fired event ([`mcm_obs::Recorder::record_sim_event`]) and
/// each channel controller reports commands, row outcomes, and latencies.
pub fn run_event_driven_configured(
    exp: &Experiment,
    window: u32,
    queue: QueueKind,
    recorder: Option<std::sync::Arc<dyn mcm_obs::Recorder>>,
) -> Result<EventDrivenResult, CoreError> {
    if window == 0 {
        return Err(CoreError::BadParam {
            reason: "outstanding-transaction window must be non-zero".into(),
        });
    }
    let channels = exp.memory.channels;
    let clock_mhz = exp.memory.clock_mhz;
    let clock =
        ClockDomain::new(Frequency::from_mhz(clock_mhz)).map_err(|e| CoreError::BadParam {
            reason: format!("interface clock {clock_mhz} MHz: {e}"),
        })?;
    let interleave =
        InterleaveMap::new(channels, exp.memory.granule_bytes).map_err(CoreError::Memory)?;
    let ops: Vec<LoadOp> = exp
        .feed(exp.memory.capacity_bytes())
        .traffic(exp.model().as_ref(), 0, &[])?
        .collect();
    let total_ops = ops.len() as u64;

    let mut sim: Simulation<Msg> = Simulation::with_queue(queue);
    if let Some(rec) = &recorder {
        sim.set_recorder(rec.clone());
    }
    let mut channel_ids = Vec::with_capacity(channels as usize);
    for ch in 0..channels {
        let mut ctrl =
            Controller::new(&exp.memory.controller).map_err(|source| ChannelError::Ctrl {
                channel: ch,
                source,
            })?;
        if let Some(rec) = &recorder {
            ctrl.set_obs(mcm_obs::ChannelObs::new(rec.clone(), ch));
        }
        channel_ids.push(sim.add_component(ChannelComp {
            ctrl,
            master: None,
            error: None,
        }));
    }
    let master = sim.add_component(MasterComp {
        ops: ops.into_iter(),
        interleave,
        channels: channel_ids.clone(),
        clock,
        window,
        next_txn: 0,
        inflight: std::collections::VecDeque::new(),
        txn_base: 0,
        inflight_live: 0,
        slice_buf: Vec::new(),
        last_done_cycle: 0,
    });
    for &ch in &channel_ids {
        sim.component_mut::<ChannelComp>(ch)
            .ok_or_else(|| CoreError::BadParam {
                reason: "event-sim channel component not registered".into(),
            })?
            .master = Some(master);
    }
    // Kick the master with a dummy request-shaped message.
    sim.schedule(
        SimTime::ZERO,
        master,
        Msg::Request {
            txn: u64::MAX,
            req: ChannelRequest {
                op: AccessOp::Read,
                addr: 0,
                len: 1,
                arrival: 0,
            },
        },
    );
    sim.run()?;
    for &ch in &channel_ids {
        if let Some(e) = sim
            .component_mut::<ChannelComp>(ch)
            .and_then(|c| c.error.take())
        {
            return Err(e.into());
        }
    }

    let master_ref =
        sim.component_mut::<MasterComp>(master)
            .ok_or_else(|| CoreError::BadParam {
                reason: "event-sim master component not registered".into(),
            })?;
    let last_cycle = master_ref.last_done_cycle;
    Ok(EventDrivenResult {
        access_time: clock.time_of_cycles(last_cycle),
        transactions: total_ops,
        events: sim.events_fired(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use mcm_load::HdOperatingPoint;

    fn exp(channels: u32) -> Experiment {
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, channels, 400);
        e.op_limit = Some(20_000);
        e
    }

    #[test]
    fn wide_window_matches_direct_call() {
        let e = exp(2);
        let direct = e
            .run_with(&crate::RunOptions::default())
            .unwrap()
            .into_frame()
            .unwrap();
        // The direct path extrapolates op-limited runs to the full frame;
        // undo the scaling for an apples-to-apples comparison.
        let scale = direct.planned_bytes as f64 / direct.simulated_bytes as f64;
        let direct_raw = direct.access_time.as_ps() as f64 / scale;
        let event = run_event_driven(&e, u32::MAX).unwrap();
        let b = event.access_time.as_ps() as f64;
        assert!(
            (direct_raw / b - 1.0).abs() < 0.02,
            "direct (unscaled) {direct_raw} vs event-driven {b}"
        );
        assert_eq!(event.transactions, 20_000);
        assert!(event.events > 20_000);
    }

    #[test]
    fn narrow_window_is_latency_bound() {
        // Single-burst transactions make the round trip visible: a blocking
        // master pays ~CL+BL per 16 B where a pipelined one pays ~BL/2.
        let mut e = exp(4);
        e.chunk = crate::experiment::ChunkPolicy::Fixed(16);
        let wide = run_event_driven(&e, 64).unwrap();
        let narrow = run_event_driven(&e, 1).unwrap();
        assert!(
            narrow.access_time.as_ps() > 2 * wide.access_time.as_ps(),
            "narrow {} vs wide {}",
            narrow.access_time,
            wide.access_time
        );
    }

    #[test]
    fn window_sweep_is_monotone() {
        let mut e = exp(2);
        e.chunk = crate::experiment::ChunkPolicy::Fixed(64);
        let times: Vec<u64> = [1u32, 2, 4, 16]
            .iter()
            .map(|&w| run_event_driven(&e, w).unwrap().access_time.as_ps())
            .collect();
        for pair in times.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "more outstanding transactions must not slow the frame: {times:?}"
            );
        }
    }

    #[test]
    fn window_zero_is_rejected() {
        assert!(run_event_driven(&exp(1), 0).is_err());
    }

    #[test]
    fn observed_event_run_reports_kernel_and_channels() {
        let e = exp(2);
        let rec = std::sync::Arc::new(mcm_obs::StatsRecorder::new());
        let result =
            run_event_driven_configured(&e, 8, QueueKind::default(), Some(rec.clone())).unwrap();
        let report = rec.report();
        // Every kernel event was recorded, and both channels retired work.
        assert_eq!(report.kernel.events, result.events);
        assert_eq!(report.channels.len(), 2);
        for ch in &report.channels {
            assert!(ch.counters.requests > 0);
            assert!(ch.counters.commands.reads + ch.counters.commands.writes > 0);
        }
        // Observation must not perturb the simulation itself.
        let bare = run_event_driven(&e, 8).unwrap();
        assert_eq!(bare.access_time, result.access_time);
        assert_eq!(bare.events, result.events);
    }

    #[test]
    fn event_driven_is_deterministic() {
        let e = exp(2);
        let a = run_event_driven(&e, 8).unwrap();
        let b = run_event_driven(&e, 8).unwrap();
        assert_eq!(a.access_time, b.access_time);
        assert_eq!(a.events, b.events);
    }
}
