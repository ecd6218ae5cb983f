//! The `tenants` workload: steady sessions (`RunOptions::steady`, default
//! policy) of `multi-tenant:4` on 1080p30 × 4 ch @ 400 MHz.
//!
//! The same controller and device layers as `frame`, used the other way
//! round: tenants interleave round-robin, so every page run opens with a
//! precharge + activate conflict, and one subsystem carries refresh debt
//! and bank state across frames. Each frame is capped at
//! [`OPS_PER_FRAME`] operations so a run holds enough sessions for stable
//! medians. Each round runs one session and one standalone frame of the
//! same cell.

use std::time::Instant;

use mcm_core::steady::SteadyStateResult;
use mcm_core::{Experiment, RunOptions};
use mcm_load::{HdOperatingPoint, Workload};

use crate::pins::frame_entries;
use crate::report::{median, peak_rss_mib, quantile, Clock, Report, Samples};
use crate::Ctx;

/// Frames per session.
pub const FRAMES: u32 = 4;
/// Load operations simulated per frame.
pub const OPS_PER_FRAME: u64 = 200_000;

pub fn experiment() -> Experiment {
    let mut e = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
    e.workload = Workload::MultiTenant(4);
    e.op_limit = Some(OPS_PER_FRAME);
    e
}

/// The pinned statistics of a session: every frame's access time and
/// verdict, the session's core power and bytes moved.
pub fn session_entries(s: &SteadyStateResult) -> Vec<(String, String)> {
    let mut out = vec![
        (
            "tenants.session.core_mw".to_string(),
            format!("{:?}", s.power.core_mw),
        ),
        ("tenants.session.bytes".to_string(), s.bytes.to_string()),
    ];
    for (f, frame) in s.frames.iter().enumerate() {
        out.push((
            format!("tenants.session.frame{f}"),
            format!("{} {}", frame.access_time.as_ps(), frame.verdict),
        ));
    }
    out
}

pub fn run_session(ctx: &Ctx, exp: &Experiment) -> Result<SteadyStateResult, String> {
    let s = exp
        .run_with(&RunOptions::steady(FRAMES))
        .map_err(|e| format!("tenants session: {e}"))?
        .into_steady()
        .ok_or("tenants session: no steady result")?;
    ctx.pins.check(&session_entries(&s))?;
    Ok(s)
}

fn run_frame(ctx: &Ctx, exp: &Experiment) -> Result<(), String> {
    let frame = exp
        .run_with(&RunOptions::default())
        .and_then(|o| o.try_into_frame())
        .map_err(|e| format!("tenants frame: {e}"))?;
    ctx.pins.check(&frame_entries("tenants.frame", &frame))
}

/// Builds the cell and runs one warm-up standalone frame (checked by the
/// timed ones).
pub fn setup() -> Result<Experiment, String> {
    let exp = experiment();
    exp.run_with(&RunOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(exp)
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let exp = setup()?;
    let setup_s = ctx.setup_done();
    let mut clock = Clock::new();
    let mut sessions = Samples::default();
    let mut singles = Samples::default();
    let mut frames = 0u64;
    let deadline = ctx.deadline();
    while sessions.ms.is_empty() || Instant::now() < deadline {
        let s = clock.time(&mut sessions, || run_session(ctx, &exp));
        if let Ok(s) = &s {
            frames += s.frames.len() as u64;
        }
        rep.op(s.map(|_| ()));
        let r = clock.time(&mut singles, || run_frame(ctx, &exp));
        rep.op(r);
    }
    ctx.record_setup(rep, setup_s)?;
    // Per simulated frame of a session.
    let per_frame = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| x / f64::from(FRAMES)).collect() };
    let (frame_ms, frame_rel) = (per_frame(&sessions.ms), per_frame(&sessions.rel));
    let session_s = sessions.ms.iter().sum::<f64>() / 1e3;
    rep.info("session_frame_ms", "ms", median(&frame_ms), &frame_ms);
    rep.info(
        "session_frame_ms_p10",
        "ms",
        quantile(&frame_ms, 0.1),
        &frame_ms,
    );
    rep.info(
        "session_frame_ms_p90",
        "ms",
        quantile(&frame_ms, 0.9),
        &frame_ms,
    );
    rep.info(
        "session_frames_per_s",
        "1/s",
        frames as f64 / session_s,
        &[],
    );
    rep.info("single_frame_ms", "ms", median(&singles.ms), &singles.ms);

    rep.metric(
        "peak_rss_mib",
        "MiB",
        peak_rss_mib("self").unwrap_or(0.0),
        &[],
    );
    rep.metric("op_ref", "ref", median(&frame_rel), &frame_rel);
    rep.metric("aux_ref", "ref", median(&singles.rel), &singles.rel);
    Ok(())
}
