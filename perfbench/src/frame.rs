//! The `frame` workload: full frames on the direct engine, serial, default
//! execution policy — the busy streaming path.
//!
//! Each round runs the headline 1080p30 × 4 ch @ 400 MHz frame three times,
//! the 720p30 × 1 ch frame, the verified 720p30 × 1 ch run `mcm check`
//! pays (lints plus the trace audit over the first 50 000 operations)
//! twice, and the event-driven engine twice over the headline's first
//! 100 k operations; every third round adds the 2160p30 × 8 ch frame. The
//! three frame cells are the paper's Fig. 5 power anchors, so the same runs
//! check accuracy.

use std::time::Instant;

use mcm_core::eventsim::{run_event_driven_configured, EventDrivenResult};
use mcm_core::{Experiment, FrameResult, RealTimeVerdict, RunOptions};
use mcm_load::HdOperatingPoint;
use mcm_sim::QueueKind;

use crate::pins::{command_total, frame_entries};
use crate::report::{median, peak_rss_mib, quantile, Clock, Report, Samples};
use crate::Ctx;

/// Operations of the bounded event-driven run.
pub const ED_OPS: u64 = 100_000;
/// Outstanding-transaction window of the event-driven run.
pub const ED_WINDOW: u32 = 64;
/// Operations of the verified run (the cap `mcm check` applies).
pub const CHECK_OPS: u64 = 50_000;

/// One Fig. 5 anchor cell.
pub struct Cell {
    pub name: &'static str,
    pub exp: Experiment,
    /// The paper's power for this cell, mW.
    pub anchor_mw: f64,
}

pub fn headline() -> Experiment {
    Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400)
}

/// The headline cell op-limited for the event-driven engine.
pub fn ed_experiment() -> Experiment {
    let mut e = headline();
    e.op_limit = Some(ED_OPS);
    e
}

/// The Fig. 5 anchors: headline, 2160p30 × 8 and 720p30 × 1.
pub fn cells() -> [Cell; 3] {
    [
        Cell {
            name: "1080p30x4",
            exp: headline(),
            anchor_mw: 345.0,
        },
        Cell {
            name: "2160p30x8",
            exp: Experiment::paper(HdOperatingPoint::Uhd2160p30, 8, 400),
            anchor_mw: 1280.0,
        },
        Cell {
            name: "720p30x1",
            exp: Experiment::paper(HdOperatingPoint::Hd720p30, 1, 400),
            anchor_mw: 150.0,
        },
    ]
}

/// Runs one cell and checks its pinned statistics.
pub fn run_cell(ctx: &Ctx, cell: &Cell) -> Result<FrameResult, String> {
    let frame = cell
        .exp
        .run_with(&RunOptions::default())
        .and_then(|o| o.try_into_frame())
        .map_err(|e| format!("{}: {e}", cell.name))?;
    ctx.pins
        .check(&frame_entries(&format!("frame.{}", cell.name), &frame))?;
    Ok(frame)
}

/// The 720p30 × 1 ch cell capped at [`CHECK_OPS`].
pub fn check_experiment() -> Experiment {
    let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 1, 400);
    e.op_limit = Some(CHECK_OPS);
    e
}

/// The verified run: it must come back without findings and with its
/// pinned statistics.
pub fn run_check(ctx: &Ctx, exp: &Experiment) -> Result<(), String> {
    let (frame, report) = exp
        .run_with(&RunOptions::verified())
        .map_err(|e| format!("check: {e}"))?
        .into_verified()
        .ok_or("check: no verified outcome")?;
    if !report.is_clean() {
        return Err(format!("check: verify findings: {}", report.render_human()));
    }
    ctx.pins
        .check(&frame_entries("frame.check720p30x1", &frame))
}

pub fn run_ed(ctx: &Ctx, exp: &Experiment) -> Result<EventDrivenResult, String> {
    let r = run_event_driven_configured(exp, ED_WINDOW, QueueKind::Calendar, None)
        .map_err(|e| format!("event-driven: {e}"))?;
    ctx.pins.check(&[
        ("frame.ed.events".into(), r.events.to_string()),
        ("frame.ed.transactions".into(), r.transactions.to_string()),
        (
            "frame.ed.access_ps".into(),
            r.access_time.as_ps().to_string(),
        ),
    ])?;
    Ok(r)
}

fn total_commands(r: &FrameResult) -> u64 {
    r.report
        .channels
        .iter()
        .map(|c| command_total(&c.device))
        .sum()
}

/// Builds the cells and runs one warm-up headline frame (checked by the
/// timed ones).
pub fn setup() -> Result<([Cell; 3], Experiment, Experiment), String> {
    let cells = cells();
    cells[0]
        .exp
        .run_with(&RunOptions::default())
        .map_err(|e| e.to_string())?;
    Ok((cells, ed_experiment(), check_experiment()))
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let (cells, ed, check) = setup()?;
    let setup_s = ctx.setup_done();
    let mut clock = Clock::new();
    // Headline, 2160p30 × 8 and 720p30 × 1, as `cells` orders them.
    let mut frames: [Samples; 3] = Default::default();
    let mut checks = Samples::default();
    let mut eds = Samples::default();
    let mut commands = 0u64;
    let mut ed_events = 0u64;
    let mut power = [0.0f64; 3];
    let mut verdicts = [false; 3];
    let deadline = ctx.deadline();
    let mut round = 0u64;
    while round == 0 || Instant::now() < deadline {
        let mut order = vec![0, 0, 0, 2];
        if round.is_multiple_of(3) {
            order.push(1);
        }
        for i in order {
            let r = clock.time(&mut frames[i], || run_cell(ctx, &cells[i]));
            if let Ok(r) = &r {
                if i < 2 {
                    commands += total_commands(r);
                }
                power[i] = r.power.total_mw();
                verdicts[i] = r.verdict == RealTimeVerdict::Meets;
            }
            rep.op(r.map(|_| ()));
        }
        for _ in 0..2 {
            let r = clock.time(&mut checks, || run_check(ctx, &check));
            rep.op(r);
        }
        for _ in 0..2 {
            let r = clock.time(&mut eds, || run_ed(ctx, &ed));
            if let Ok(r) = &r {
                ed_events += r.events;
            }
            rep.op(r.map(|_| ()));
        }
        round += 1;
    }
    ctx.record_setup(rep, setup_s)?;
    for (i, cell) in cells.iter().enumerate() {
        if !verdicts[i] {
            rep.fail(format!("{}: Fig. 4 verdict is not `meets`", cell.name));
        }
    }

    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let power_err = cells
        .iter()
        .zip(power)
        .map(|(c, mw)| (mw - c.anchor_mw).abs() / c.anchor_mw * 100.0)
        .sum::<f64>()
        / 3.0;
    let [head, big, small] = &frames;
    rep.info("frame_ms", "ms", median(&head.ms), &head.ms);
    rep.info("frame_ms_p10", "ms", quantile(&head.ms, 0.1), &head.ms);
    rep.info("frame_ms_p90", "ms", quantile(&head.ms, 0.9), &head.ms);
    rep.info(
        "sim_mcmd_per_s",
        "Mcmd/s",
        commands as f64 / ((sum(&head.ms) + sum(&big.ms)) * 1e3),
        &[],
    );
    rep.info("check_ms", "ms", median(&checks.ms), &checks.ms);
    rep.info("ed_ms", "ms", median(&eds.ms), &eds.ms);
    rep.info(
        "ed_mevents_per_s",
        "Mevents/s",
        ed_events as f64 / (sum(&eds.ms) * 1e3),
        &[],
    );
    rep.info("power_err_pct", "%", power_err, &[]);
    rep.info("big_frame_ms", "ms", median(&big.ms), &big.ms);
    rep.info("small_frame_ms", "ms", median(&small.ms), &small.ms);

    rep.metric(
        "peak_rss_mib",
        "MiB",
        peak_rss_mib("self").unwrap_or(0.0),
        &[],
    );
    rep.metric("op_ref", "ref", median(&head.rel), &head.rel);
    rep.metric("aux_ref", "ref", median(&eds.rel), &eds.rel);
    Ok(())
}
