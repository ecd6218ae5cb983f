//! The traced run: capture a workload's intermediate streams once through
//! public calls, then time each layer's entry point on its own captured
//! input, round after round, and report medians.
//!
//! Captured per operation:
//! - the `LoadOp` stream (`LoadModel::traffic`);
//! - the per-channel `ChannelRequest` streams, split by
//!   `InterleaveMap::split_range_into` with arrivals set as `run_with`
//!   (greedy, cycle 0) and the steady loop (frame `f` at `f × budget`) set
//!   them;
//! - each device's command trace, from `Controller`s with `enable_trace`
//!   fed a bounded prefix of the request streams.
//!
//! The ledger sums set-up (`MemorySubsystem::new`), load, channel split,
//! controller scheduling (including its device calls) and
//! `Controller::finish`, and compares the sum with the untraced operation
//! timed in the same rounds. The `dram`, `verify` and `sim` figures stand
//! alone: they are nested in (or beside) the ledgered layers.

use std::hint::black_box;
use std::time::Instant;

use mcm_channel::{InterleaveMap, MemorySubsystem};
use mcm_core::{Experiment, FrameResult, RunOptions};
use mcm_ctrl::{AccessOp, ChannelReport, ChannelRequest, Controller};
use mcm_dram::{BankCluster, TracedCommand};
use mcm_load::{LayoutOptions, LoadOp};
use mcm_sim::{ClockDomain, Frequency, SimTime};
use mcm_sweep::{content_key, RayonExecutor, ResultCache};
use mcm_verify::{audit_trace, TraceAuditOptions};

use crate::pins::{command_total, commands, frame_entries};
use crate::report::{median, ms_since, Report};
use crate::{frame, sweep, tenants, Ctx};

/// Every per-layer metric, in output order, with its unit. A workload
/// that does not exercise a layer reports it as 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("load.ns_per_op", "ns"),
    ("load.ops", "count"),
    ("load.plan_us", "us"),
    ("channel.new_us", "us"),
    ("channel.ns_per_txn", "ns"),
    ("channel.slices", "count"),
    ("ctrl.ns_per_req", "ns"),
    ("ctrl.reqs", "count"),
    ("ctrl.row_hit_ratio", "ratio"),
    ("ctrl.finish_ms", "ms"),
    ("ctrl.idle_cmds", "count"),
    ("dram.ns_per_cmd", "ns"),
    ("dram.cmds", "count"),
    ("verify.ns_per_cmd", "ns"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sweep.expand_ms", "ms"),
    ("sweep.key_us", "us"),
    ("sweep.cache_write_us", "us"),
    ("sweep.cache_read_us", "us"),
    ("sweep.render_ms", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.polls_per_result", "count"),
    ("ledger.unattributed_pct", "%"),
    ("ledger.e2e_ms", "ms"),
];

/// Ledger closure the traced run must reach.
const MAX_UNATTRIBUTED_PCT: f64 = 15.0;
/// Load operations whose device commands feed the `dram` replay.
const DRAM_PREFIX_OPS: usize = 100_000;
/// Rounds a traced run takes however short its budget: the ledger compares
/// medians, and one noisy round must not decide it.
const MIN_ROUNDS: usize = 5;

/// Keeps exactly the per-layer metrics, in [`PER_LAYER`] order, filling
/// layers the workload does not exercise with 0.
pub fn complete(rep: &mut Report) {
    let mut measured = std::mem::take(&mut rep.metrics);
    for (name, unit) in PER_LAYER {
        match measured.iter().position(|m| m.name == name) {
            Some(i) => rep.metrics.push(measured.swap_remove(i)),
            None => rep.metric(name, unit, 0.0, &[]),
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The placement and sizing `run_with` derives for `exp`.
struct Layout {
    options: LayoutOptions,
    chunk: u32,
    channels: u32,
    map: InterleaveMap,
    clock: ClockDomain,
    budget: SimTime,
}

impl Layout {
    fn of(exp: &Experiment) -> Result<Layout, String> {
        let memory = MemorySubsystem::new(&exp.memory).map_err(err)?;
        let geometry = exp.memory.controller.cluster.geometry;
        Ok(Layout {
            options: LayoutOptions::bank_staggered(
                memory.capacity_bytes(),
                geometry.page_bytes() as u64,
                memory.channels(),
                geometry.banks,
            ),
            chunk: exp.chunk.bytes(memory.channels()),
            channels: memory.channels(),
            map: *memory.interleave(),
            clock: ClockDomain::new(Frequency::from_mhz(exp.memory.clock_mhz)).map_err(err)?,
            budget: SimTime::from_ps(1_000_000_000_000u64 / u64::from(exp.use_case.fps)),
        })
    }
}

/// One operation's captured streams.
struct Capture {
    /// `LoadOp`s per frame.
    ops: Vec<Vec<LoadOp>>,
    /// Arrival cycle of each frame's requests.
    starts: Vec<u64>,
    /// Per channel, per frame: that frame's requests.
    reqs: Vec<Vec<Vec<ChannelRequest>>>,
    /// `finish` horizon before it is raised to the last completion.
    base_horizon: u64,
}

fn request(op: &LoadOp, local: u64, len: u64, arrival: u64) -> ChannelRequest {
    ChannelRequest {
        op: if op.write {
            AccessOp::Write
        } else {
            AccessOp::Read
        },
        addr: local,
        len: len as u32,
        arrival,
    }
}

/// Captures `frames` frames of `exp`: one frame greedy at cycle 0 (as
/// `run_with`), or a steady session with frame `f` arriving at
/// `f × budget` (as `RunOptions::steady`).
fn capture(exp: &Experiment, frames: u32) -> Result<(Layout, Capture), String> {
    let layout = Layout::of(exp)?;
    let model = exp.model();
    let steady_budget = layout.clock.cycles_at(layout.budget);
    let mut cap = Capture {
        ops: Vec::new(),
        starts: Vec::new(),
        reqs: vec![Vec::new(); layout.channels as usize],
        base_horizon: if frames > 1 {
            u64::from(frames) * steady_budget
        } else {
            layout.clock.cycles_ceil(layout.budget)
        },
    };
    let mut slices = Vec::new();
    for f in 0..u64::from(frames) {
        let start = f * steady_budget;
        let limit = exp.op_limit.unwrap_or(u64::MAX) as usize;
        let ops: Vec<LoadOp> = model
            .traffic(&layout.options, layout.chunk, f, &[])
            .map_err(err)?
            .take(limit)
            .collect();
        for ch in &mut cap.reqs {
            ch.push(Vec::new());
        }
        for op in &ops {
            layout
                .map
                .split_range_into(op.addr, u64::from(op.len), &mut slices);
            for (ch, s) in slices.iter().enumerate() {
                if let Some((local, len)) = *s {
                    cap.reqs[ch][f as usize].push(request(op, local, len, start));
                }
            }
        }
        cap.ops.push(ops);
        cap.starts.push(start);
    }
    Ok((layout, cap))
}

/// A controller replay of a capture.
struct CtrlRun {
    access_ms: f64,
    finish_ms: f64,
    reqs: u64,
    /// Per frame: the last completion cycle over all channels.
    frame_done: Vec<u64>,
    reports: Vec<ChannelReport>,
    idle_cmds: u64,
    end: u64,
}

fn controllers(exp: &Experiment, n: u32) -> Result<Vec<Controller>, String> {
    (0..n)
        .map(|_| Controller::new(&exp.memory.controller).map_err(err))
        .collect()
}

/// `Controller::access` over each channel's captured stream (one fresh
/// controller per channel), then `Controller::finish` at the horizon
/// `MemorySubsystem::finish` would use.
fn replay_ctrl(exp: &Experiment, cap: &Capture) -> Result<CtrlRun, String> {
    let mut ctrls = controllers(exp, cap.reqs.len() as u32)?;
    let mut frame_done = vec![0u64; cap.starts.len()];
    let mut reqs = 0u64;
    let t0 = Instant::now();
    for (ctrl, stream) in ctrls.iter_mut().zip(&cap.reqs) {
        for (f, frame) in stream.iter().enumerate() {
            for req in frame {
                let r = ctrl.access(*req).map_err(err)?;
                frame_done[f] = frame_done[f].max(r.done_cycle);
            }
            reqs += frame.len() as u64;
        }
    }
    let access_ms = ms_since(t0);
    let before: u64 = ctrls
        .iter()
        .map(|c| command_total(&c.device().stats()))
        .sum();
    let busy = ctrls.iter().map(Controller::busy_until).max().unwrap_or(0);
    let end = cap.base_horizon.max(busy);
    let t1 = Instant::now();
    let reports = ctrls
        .iter_mut()
        .map(|c| c.finish(end).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let finish_ms = ms_since(t1);
    let after: u64 = reports.iter().map(|r| command_total(&r.device)).sum();
    Ok(CtrlRun {
        access_ms,
        finish_ms,
        reqs,
        frame_done,
        reports,
        idle_cmds: after - before,
        end,
    })
}

/// Controllers with command tracing fed the requests of the first
/// `ops` load operations of frame 0 (no finish): the `dram` replay input.
fn prefix_traces(
    exp: &Experiment,
    layout: &Layout,
    cap: &Capture,
    ops: usize,
) -> Result<Vec<Vec<TracedCommand>>, String> {
    let prefix = prefix_requests(layout, cap, ops);
    let mut ctrls = controllers(exp, layout.channels)?;
    let mut traces = Vec::new();
    for (ctrl, stream) in ctrls.iter_mut().zip(&prefix) {
        ctrl.enable_trace();
        for req in stream {
            ctrl.access(*req).map_err(err)?;
        }
        traces.push(ctrl.device().trace().unwrap_or_default().to_vec());
    }
    Ok(traces)
}

/// Per-channel requests of frame 0's first `ops` load operations.
fn prefix_requests(layout: &Layout, cap: &Capture, ops: usize) -> Vec<Vec<ChannelRequest>> {
    let mut out = vec![Vec::new(); layout.channels as usize];
    let mut slices = Vec::new();
    for op in cap.ops[0].iter().take(ops) {
        layout
            .map
            .split_range_into(op.addr, u64::from(op.len), &mut slices);
        for (ch, s) in slices.iter().enumerate() {
            if let Some((local, len)) = *s {
                out[ch].push(request(op, local, len, cap.starts[0]));
            }
        }
    }
    out
}

/// `BankCluster::issue` of every traced command at its recorded cycle.
fn replay_dram(exp: &Experiment, traces: &[Vec<TracedCommand>]) -> Result<(f64, u64), String> {
    let mut devices = traces
        .iter()
        .map(|_| BankCluster::new(&exp.memory.controller.cluster).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let t0 = Instant::now();
    for (dev, trace) in devices.iter_mut().zip(traces) {
        for c in trace {
            dev.issue(c.cmd, c.cycle).map_err(err)?;
        }
    }
    let ms = ms_since(t0);
    Ok((ms, traces.iter().map(|t| t.len() as u64).sum()))
}

/// Times `MemorySubsystem::new`, `LoadModel::traffic` to its first op,
/// and `LoadModel::traffic` iterated to the end for every frame.
struct LoadTimes {
    new_ms: f64,
    plan_ms: f64,
    load_ms: f64,
    ops: u64,
}

fn time_load(exp: &Experiment, layout: &Layout, frames: u32) -> Result<LoadTimes, String> {
    let t0 = Instant::now();
    black_box(MemorySubsystem::new(&exp.memory).map_err(err)?);
    let new_ms = ms_since(t0);

    let model = exp.model();
    let t0 = Instant::now();
    let mut traffic = model
        .traffic(&layout.options, layout.chunk, 0, &[])
        .map_err(err)?;
    black_box(traffic.next());
    let plan_ms = ms_since(t0);
    drop(traffic);

    let limit = exp.op_limit.unwrap_or(u64::MAX);
    let mut ops = 0u64;
    let t0 = Instant::now();
    let model = exp.model();
    for f in 0..u64::from(frames) {
        let traffic = model
            .traffic(&layout.options, layout.chunk, f, &[])
            .map_err(err)?;
        for op in traffic.take(limit as usize) {
            black_box(op);
            ops += 1;
        }
    }
    Ok(LoadTimes {
        new_ms,
        plan_ms,
        load_ms: ms_since(t0),
        ops,
    })
}

/// `InterleaveMap::split_range_into` per master transaction, building
/// each slice's request as the subsystem does.
fn time_channel(layout: &Layout, cap: &Capture) -> (f64, u64) {
    let mut slices = Vec::new();
    let mut count = 0u64;
    let t0 = Instant::now();
    for (ops, &start) in cap.ops.iter().zip(&cap.starts) {
        for op in ops {
            layout
                .map
                .split_range_into(op.addr, u64::from(op.len), &mut slices);
            for (local, len) in slices.iter().flatten() {
                black_box(request(op, *local, *len, start));
                count += 1;
            }
        }
    }
    (ms_since(t0), count)
}

/// Per-round layer times of one ledgered operation.
#[derive(Default)]
struct Rounds {
    e2e: Vec<f64>,
    new: Vec<f64>,
    plan: Vec<f64>,
    load: Vec<f64>,
    channel: Vec<f64>,
    access: Vec<f64>,
    finish: Vec<f64>,
}

impl Rounds {
    /// Reports the ledgered layers: per-unit costs from `counts`
    /// (ops, slices, requests, hit ratio, idle commands, per operation).
    fn report(&self, rep: &mut Report, counts: &Counts) {
        timed(
            rep,
            "load.ns_per_op",
            "ns",
            &self.load,
            1e6 / counts.ops as f64,
        );
        rep.metric("load.ops", "count", counts.ops as f64, &[]);
        timed(rep, "load.plan_us", "us", &self.plan, 1e3);
        timed(rep, "channel.new_us", "us", &self.new, 1e3);
        timed(
            rep,
            "channel.ns_per_txn",
            "ns",
            &self.channel,
            1e6 / counts.ops as f64,
        );
        rep.metric("channel.slices", "count", counts.slices as f64, &[]);
        timed(
            rep,
            "ctrl.ns_per_req",
            "ns",
            &self.access,
            1e6 / counts.reqs as f64,
        );
        rep.metric("ctrl.reqs", "count", counts.reqs as f64, &[]);
        rep.metric("ctrl.row_hit_ratio", "ratio", counts.hit_ratio, &[]);
        timed(rep, "ctrl.finish_ms", "ms", &self.finish, 1.0);
        rep.metric("ctrl.idle_cmds", "count", counts.idle_cmds as f64, &[]);

        // Each round's layers against the same round's end-to-end time: a
        // host slowdown that lasts a few rounds shifts both sides alike,
        // while it shifts medians taken layer by layer unevenly.
        let layers: Vec<f64> = (0..self.e2e.len())
            .map(|r| {
                [
                    &self.new,
                    &self.load,
                    &self.channel,
                    &self.access,
                    &self.finish,
                ]
                .into_iter()
                .map(|v| v[r])
                .sum()
            })
            .collect();
        let shares: Vec<f64> = layers.iter().zip(&self.e2e).map(|(l, e)| l / e).collect();
        let (e2e, layers) = (median(&self.e2e), median(&layers));
        let unattributed = (1.0 - median(&shares)).abs() * 100.0;
        rep.metric("ledger.unattributed_pct", "%", unattributed, &[]);
        rep.metric("ledger.e2e_ms", "ms", e2e, &self.e2e);
        rep.info("ledger.layers_ms", "ms", layers, &[]);
        if unattributed > MAX_UNATTRIBUTED_PCT {
            rep.fail(format!(
                "ledger: layers sum to {layers:.3} ms against {e2e:.3} ms end to end \
                 ({unattributed:.1} % unattributed, limit {MAX_UNATTRIBUTED_PCT} %)"
            ));
        }
    }
}

/// Reports per-round millisecond samples scaled into `unit` (for example
/// `1e6 / n` for nanoseconds per item); the value is their median.
fn timed(rep: &mut Report, name: &str, unit: &str, ms: &[f64], scale: f64) {
    let scale = if scale.is_finite() { scale } else { 0.0 };
    let samples: Vec<f64> = ms.iter().map(|v| v * scale).collect();
    rep.metric(name, unit, median(&samples), &samples);
}

/// Work counts of one ledgered operation.
#[derive(Default)]
struct Counts {
    ops: u64,
    slices: u64,
    reqs: u64,
    hit_ratio: f64,
    idle_cmds: u64,
}

fn hit_ratio(reports: &[ChannelReport]) -> (u64, u64) {
    reports.iter().fold((0, 0), |(h, n), r| {
        let c = r.ctrl;
        (
            h + c.row_hits,
            n + c.row_hits + c.row_misses + c.row_conflicts,
        )
    })
}

/// The replay must reproduce the untraced run: per-channel command
/// counts, completion cycle and core energy.
fn check_frame_fidelity(run: &CtrlRun, frame: &FrameResult) -> Result<(), String> {
    for (ch, (replay, real)) in run.reports.iter().zip(&frame.report.channels).enumerate() {
        if replay.device != real.device || replay.busy_until != real.busy_until {
            return Err(format!(
                "capture fidelity: channel {ch} replays to {} commands (busy {}), \
                 run_with gave {} (busy {})",
                commands(&replay.device),
                replay.busy_until,
                commands(&real.device),
                real.busy_until
            ));
        }
    }
    let energy: f64 = run.reports.iter().map(|r| r.total_energy_pj).sum();
    if energy != frame.report.core_energy_pj {
        return Err(format!(
            "capture fidelity: replayed core energy {energy} pJ, run_with gave {} pJ",
            frame.report.core_energy_pj
        ));
    }
    Ok(())
}

/// `frame`: the headline frame ledgered; `dram` over the headline's first
/// 100 k operations; `verify` over the 720p30 × 1 trace; `sim` from the
/// bounded event-driven run.
pub fn frame(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let exp = frame::headline();
    let (layout, cap) = capture(&exp, 1)?;
    let first = exp
        .run_with(&RunOptions::default())
        .and_then(|o| o.try_into_frame())
        .map_err(err)?;
    check_frame_fidelity(&replay_ctrl(&exp, &cap)?, &first)?;
    let traces = prefix_traces(&exp, &layout, &cap, DRAM_PREFIX_OPS)?;
    let ed_exp = frame::ed_experiment();
    let ed_reqs = prefix_requests(&layout, &cap, frame::ED_OPS as usize);

    // The 720p30 × 1 trace `mcm check` audits, with the audit options the
    // verified run uses.
    let check_exp = frame::check_experiment();
    let (check_layout, check_cap) = capture(&check_exp, 1)?;
    let check_trace = prefix_traces(&check_exp, &check_layout, &check_cap, usize::MAX)?
        .pop()
        .unwrap_or_default();
    let geometry = check_exp.memory.controller.cluster.geometry;
    let refresh = &check_exp.memory.controller.refresh;
    let audit = TraceAuditOptions {
        refresh_budget: refresh.enabled.then_some(refresh.max_postpone),
        channel: Some(0),
        ..TraceAuditOptions::default()
    };
    let timing = *BankCluster::new(&check_exp.memory.controller.cluster)
        .map_err(err)?
        .timing();

    let mut rounds = Rounds::default();
    let mut counts = Counts::default();
    let (mut dram_ms, mut dram_cmds) = (Vec::new(), 0u64);
    let mut verify_ms = Vec::new();
    let (mut sim_ns, mut events) = (Vec::new(), 0u64);
    let deadline = ctx.deadline();
    while rounds.e2e.len() < MIN_ROUNDS || Instant::now() < deadline {
        let t0 = Instant::now();
        let r = exp
            .run_with(&RunOptions::default())
            .and_then(|o| o.try_into_frame());
        rounds.e2e.push(ms_since(t0));
        let r = r.map_err(err)?;

        let lt = time_load(&exp, &layout, 1)?;
        rounds.new.push(lt.new_ms);
        rounds.plan.push(lt.plan_ms);
        rounds.load.push(lt.load_ms);
        let (channel_ms, slices) = time_channel(&layout, &cap);
        rounds.channel.push(channel_ms);
        let run = replay_ctrl(&exp, &cap)?;
        rounds.access.push(run.access_ms);
        rounds.finish.push(run.finish_ms);
        let (hits, bursts) = hit_ratio(&run.reports);
        counts = Counts {
            ops: lt.ops,
            slices,
            reqs: run.reqs,
            hit_ratio: hits as f64 / bursts.max(1) as f64,
            idle_cmds: run.idle_cmds,
        };
        rep.op(check_frame_fidelity(&run, &r)
            .and_then(|()| ctx.pins.check(&frame_entries("frame.1080p30x4", &r))));

        let (ms, cmds) = replay_dram(&exp, &traces)?;
        dram_ms.push(ms);
        dram_cmds = cmds;

        let t0 = Instant::now();
        let findings = audit_trace(&timing, &geometry, &check_trace, &audit);
        verify_ms.push(ms_since(t0));
        if findings.has_errors() {
            rep.fail(format!("verify: {}", findings.render_human()));
        }

        let t0 = Instant::now();
        let ed = frame::run_ed(ctx, &ed_exp);
        let ed_ms = ms_since(t0);
        let ed = ed?;
        let mut ctrls = controllers(&exp, layout.channels)?;
        let t0 = Instant::now();
        for (ctrl, stream) in ctrls.iter_mut().zip(&ed_reqs) {
            for req in stream {
                ctrl.access(*req).map_err(err)?;
            }
        }
        let ctrl_ms = ms_since(t0);
        sim_ns.push((ed_ms - ctrl_ms) * 1e6 / ed.events as f64);
        events = ed.events;
    }
    rounds.report(rep, &counts);
    timed(
        rep,
        "dram.ns_per_cmd",
        "ns",
        &dram_ms,
        1e6 / dram_cmds as f64,
    );
    rep.metric("dram.cmds", "count", dram_cmds as f64, &[]);
    let audited = check_trace.len() as f64;
    timed(rep, "verify.ns_per_cmd", "ns", &verify_ms, 1e6 / audited);
    rep.metric("sim.ns_per_event", "ns", median(&sim_ns), &sim_ns);
    rep.metric("sim.events", "count", events as f64, &[]);
    Ok(())
}

/// `tenants`: one steady session ledgered, with the replay checked frame
/// by frame against the session's own access times and power.
pub fn tenants(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let exp = tenants::experiment();
    let (layout, cap) = capture(&exp, tenants::FRAMES)?;
    let traces = prefix_traces(&exp, &layout, &cap, DRAM_PREFIX_OPS)?;
    let fidelity = |run: &CtrlRun, s: &mcm_core::steady::SteadyStateResult| -> Result<(), String> {
        for (f, (frame, &done)) in s.frames.iter().zip(&run.frame_done).enumerate() {
            let start = cap.starts[f];
            let cycles = done.max(start) - start;
            let ps = (layout.clock.time_of_cycles(start + cycles)
                - layout.clock.time_of_cycles(start))
            .as_ps();
            if ps != frame.access_time.as_ps() {
                return Err(format!(
                    "capture fidelity: frame {f} replays to {ps} ps, the session gave {} ps",
                    frame.access_time.as_ps()
                ));
            }
        }
        let energy: f64 = run.reports.iter().map(|r| r.total_energy_pj).sum();
        let busy = run.reports.iter().map(|r| r.busy_until).max().unwrap_or(0);
        let core_mw = energy / layout.clock.time_of_cycles(run.end.max(busy)).as_ns_f64();
        if core_mw != s.power.core_mw {
            return Err(format!(
                "capture fidelity: replayed core power {core_mw} mW, the session gave {} mW",
                s.power.core_mw
            ));
        }
        let entries: Vec<(String, String)> = run
            .reports
            .iter()
            .enumerate()
            .map(|(ch, r)| (format!("tenants.session.ch{ch}"), commands(&r.device)))
            .collect();
        ctx.pins.check(&entries)
    };
    let first = tenants::run_session(ctx, &exp)?;
    fidelity(&replay_ctrl(&exp, &cap)?, &first)?;

    let mut rounds = Rounds::default();
    let mut counts = Counts::default();
    let (mut dram_ms, mut dram_cmds) = (Vec::new(), 0u64);
    let deadline = ctx.deadline();
    while rounds.e2e.len() < MIN_ROUNDS || Instant::now() < deadline {
        let t0 = Instant::now();
        let s = tenants::run_session(ctx, &exp);
        rounds.e2e.push(ms_since(t0));
        let lt = time_load(&exp, &layout, tenants::FRAMES)?;
        rounds.new.push(lt.new_ms);
        rounds.plan.push(lt.plan_ms);
        rounds.load.push(lt.load_ms);
        let (channel_ms, slices) = time_channel(&layout, &cap);
        rounds.channel.push(channel_ms);
        let run = replay_ctrl(&exp, &cap)?;
        rounds.access.push(run.access_ms);
        rounds.finish.push(run.finish_ms);
        let (hits, bursts) = hit_ratio(&run.reports);
        counts = Counts {
            ops: lt.ops,
            slices,
            reqs: run.reqs,
            hit_ratio: hits as f64 / bursts.max(1) as f64,
            idle_cmds: run.idle_cmds,
        };
        rep.op(s.and_then(|s| fidelity(&run, &s)));
        let (ms, cmds) = replay_dram(&exp, &traces)?;
        dram_ms.push(ms);
        dram_cmds = cmds;
    }
    rounds.report(rep, &counts);
    timed(
        rep,
        "dram.ns_per_cmd",
        "ns",
        &dram_ms,
        1e6 / dram_cmds as f64,
    );
    rep.metric("dram.cmds", "count", dram_cmds as f64, &[]);
    Ok(())
}

/// Every [`SWEEP_STRIDE`]-th feasible grid point is ledgered.
const SWEEP_STRIDE: usize = 5;

/// `sweep`: a sample of grid points ledgered (per point: `run_with`
/// against its layers), plus the harness layers around the simulator —
/// expansion, content key, cache write and read, render — and the
/// executor's parallel efficiency.
pub fn sweep(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let spec = sweep::spec();
    let points = spec.expand().map_err(err)?;
    let mut sample = Vec::new();
    let mut in_sample = vec![false; points.len()];
    for (i, p) in points.iter().enumerate().step_by(SWEEP_STRIDE) {
        // Points whose buffers do not fit fail in layout, before any layer.
        if let Ok((layout, cap)) = capture(&p.experiment, 1) {
            sample.push((&p.experiment, layout, cap));
            in_sample[i] = true;
        }
    }
    for (exp, _, cap) in &sample {
        let r = exp
            .run_with(&RunOptions::default())
            .and_then(|o| o.try_into_frame())
            .map_err(err)?;
        check_frame_fidelity(&replay_ctrl(exp, cap)?, &r)?;
    }
    let exec = RayonExecutor::new(1);
    let records_dir = ctx.work_dir.join("records");
    let run = RunOptions::default();

    let mut rounds = Rounds::default();
    let mut counts = Counts::default();
    let mut expand_ms = Vec::new();
    let mut key_us = Vec::new();
    let mut write_us = Vec::new();
    let mut read_us = Vec::new();
    let mut render_ms = Vec::new();
    let mut efficiency = Vec::new();
    let n = points.len() as f64;
    let k = sample.len() as f64;
    let deadline = ctx.deadline();
    while rounds.e2e.len() < MIN_ROUNDS || Instant::now() < deadline {
        // The cold pass, as the untraced workload runs it.
        let (cold_ms, result) = sweep::pass(&exec, &spec, None)?;
        let json = result.to_json();
        rep.op(sweep::check_pass(ctx, &result, &json));

        // Serial `run_with` of every point; the sample's share is the
        // ledger's end-to-end side.
        let mut serial_ms = 0.0;
        let mut sample_ms = 0.0;
        for (i, p) in points.iter().enumerate() {
            let t0 = Instant::now();
            black_box(p.experiment.run_with(&run).ok());
            let ms = ms_since(t0);
            serial_ms += ms;
            if in_sample[i] {
                sample_ms += ms;
            }
        }
        rounds.e2e.push(sample_ms / k);

        let mut sum = LoadTimes {
            new_ms: 0.0,
            plan_ms: 0.0,
            load_ms: 0.0,
            ops: 0,
        };
        let (mut channel_ms, mut slices) = (0.0, 0u64);
        let (mut access_ms, mut finish_ms, mut reqs, mut idle) = (0.0, 0.0, 0u64, 0u64);
        let (mut hits, mut bursts) = (0u64, 0u64);
        for (exp, layout, cap) in &sample {
            let lt = time_load(exp, layout, 1)?;
            sum.new_ms += lt.new_ms;
            sum.plan_ms += lt.plan_ms;
            sum.load_ms += lt.load_ms;
            sum.ops += lt.ops;
            let (ms, s) = time_channel(layout, cap);
            channel_ms += ms;
            slices += s;
            let run = replay_ctrl(exp, cap)?;
            access_ms += run.access_ms;
            finish_ms += run.finish_ms;
            reqs += run.reqs;
            idle += run.idle_cmds;
            let (h, b) = hit_ratio(&run.reports);
            hits += h;
            bursts += b;
        }
        rounds.new.push(sum.new_ms / k);
        rounds.plan.push(sum.plan_ms / k);
        rounds.load.push(sum.load_ms / k);
        rounds.channel.push(channel_ms / k);
        rounds.access.push(access_ms / k);
        rounds.finish.push(finish_ms / k);
        let per_point = |v: u64| (v as f64 / k).round() as u64;
        counts = Counts {
            ops: per_point(sum.ops),
            slices: per_point(slices),
            reqs: per_point(reqs),
            hit_ratio: hits as f64 / bursts.max(1) as f64,
            idle_cmds: per_point(idle),
        };

        // Harness layers over the whole grid.
        let t0 = Instant::now();
        black_box(spec.expand().map_err(err)?);
        expand_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let keys = points
            .iter()
            .map(|p| content_key(&p.experiment, &run).map_err(err))
            .collect::<Result<Vec<_>, _>>()?;
        key_us.push(ms_since(t0) * 1e3 / n);
        let _ = std::fs::remove_dir_all(&records_dir);
        let cache = ResultCache::new(&records_dir).map_err(err)?;
        let records: Vec<_> = result
            .points
            .iter()
            .filter_map(|p| p.outcome.as_ref().ok())
            .collect();
        let t0 = Instant::now();
        for (key, record) in keys.iter().zip(&records) {
            cache.store(*key, record).map_err(err)?;
        }
        write_us.push(ms_since(t0) * 1e3 / n);
        let t0 = Instant::now();
        for key in &keys {
            black_box(cache.load(*key));
        }
        read_us.push(ms_since(t0) * 1e3 / n);
        let t0 = Instant::now();
        black_box(result.to_json());
        render_ms.push(ms_since(t0));
        // Serial work the executor does per point (key, simulate) against
        // what its threads delivered.
        let work_ms = serial_ms + key_us.last().unwrap_or(&0.0) * n / 1e3;
        efficiency.push(work_ms / (cold_ms * sweep::THREADS as f64));
    }
    let _ = std::fs::remove_dir_all(&records_dir);
    rounds.report(rep, &counts);
    rep.metric("sweep.expand_ms", "ms", median(&expand_ms), &expand_ms);
    rep.metric("sweep.key_us", "us", median(&key_us), &key_us);
    rep.metric("sweep.cache_write_us", "us", median(&write_us), &write_us);
    rep.metric("sweep.cache_read_us", "us", median(&read_us), &read_us);
    rep.metric("sweep.render_ms", "ms", median(&render_ms), &render_ms);
    rep.metric(
        "sweep.parallel_efficiency",
        "ratio",
        median(&efficiency),
        &efficiency,
    );
    Ok(())
}
