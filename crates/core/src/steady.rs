//! Multi-frame steady-state simulation.
//!
//! The paper evaluates a single encoded frame ("one frame encoded"). A
//! recording session, however, runs frames back-to-back with the
//! reconstructed frame rotating into the reference set. This module runs
//! `N` consecutive frames against one persistent memory subsystem — refresh
//! debt, power-down state and bank states carry across frame boundaries —
//! and reports per-frame access times and the sustained power.
//!
//! Frame `f`'s operations arrive from cycle `f × budget` (each frame starts
//! on its real-time schedule); if a frame overruns, the next frame's
//! traffic queues behind it, exactly as a real pipeline would back up.

use mcm_channel::{MasterTransaction, MemorySubsystem};
use mcm_load::LoadModel;
use mcm_power::PowerSummary;
use mcm_sim::SimTime;

use crate::error::CoreError;
use crate::experiment::{Experiment, RealTimeVerdict};
use crate::feed::transaction;

/// Per-frame measurement within a steady-state run.
#[derive(Debug, Clone, Copy)]
pub struct FrameSample {
    /// Cycle the frame's traffic began arriving.
    pub start_cycle: u64,
    /// Time from frame start to its last data beat.
    pub access_time: SimTime,
    /// Verdict against the frame budget (with the experiment margin).
    pub verdict: RealTimeVerdict,
}

/// Result of a steady-state run.
#[derive(Debug, Clone)]
pub struct SteadyStateResult {
    /// One sample per simulated frame.
    pub frames: Vec<FrameSample>,
    /// Average power over the whole session (core + interface).
    pub power: PowerSummary,
    /// Total bytes moved.
    pub bytes: u64,
}

impl SteadyStateResult {
    /// Whether every frame met real time (with margin).
    pub fn all_real_time(&self) -> bool {
        self.frames.iter().all(|f| f.verdict.is_real_time())
    }

    /// Mean access time over frames after the first (the steady state).
    pub fn steady_access_time(&self) -> Option<SimTime> {
        if self.frames.len() < 2 {
            return None;
        }
        let sum: u64 = self.frames[1..].iter().map(|f| f.access_time.as_ps()).sum();
        Some(SimTime::from_ps(sum / (self.frames.len() - 1) as u64))
    }
}

/// Runs `frames` consecutive frames of `exp`'s workload `model` against one
/// persistent memory subsystem, with an optional instrumentation sink
/// attached; each frame is additionally captured as a `"frame"` span.
/// The model sees the captured-frame index, so reference rotation and
/// stochastic modulation advance frame by frame.
///
/// This is the engine behind
/// [`RunOptions::steady`](crate::RunOptions::steady); prefer
/// [`Experiment::run_with`] and the [`RunOutcome`](crate::RunOutcome)
/// accessors for getting at the [`SteadyStateResult`].
pub fn run_steady_state(
    exp: &Experiment,
    model: &dyn LoadModel,
    frames: u32,
    recorder: Option<std::sync::Arc<dyn mcm_obs::Recorder>>,
) -> Result<SteadyStateResult, CoreError> {
    exp.validate()?;
    if frames == 0 {
        return Err(CoreError::BadParam {
            reason: "steady-state run needs at least one frame".into(),
        });
    }
    let mut memory = MemorySubsystem::new(&exp.memory)?;
    if let Some(rec) = &recorder {
        memory.set_recorder(rec.clone());
    }
    let feed = exp.feed(memory.capacity_bytes());
    let budget_cycles = memory.clock().cycles_at(feed.budget());

    let mut samples = Vec::with_capacity(frames as usize);
    let mut bytes = 0u64;
    let mut batch: Vec<MasterTransaction> = Vec::new();
    for f in 0..frames {
        let start = f as u64 * budget_cycles;
        batch.clear();
        let mut frame_bytes = 0u64;
        for op in feed.traffic(model, f as u64, &[])? {
            batch.push(transaction(&op, start));
            frame_bytes += op.len as u64;
        }
        let done = memory.submit_batch(&batch)?;
        let access_cycles = done.max(start) - start;
        bytes += frame_bytes;
        let access_time = memory.clock().time_of_cycles(start + access_cycles)
            - memory.clock().time_of_cycles(start);
        let verdict = feed.judge(access_cycles, budget_cycles);
        if let Some(rec) = &recorder {
            let start_ps = memory.clock().time_of_cycles(start).as_ps();
            rec.record_span("frame", None, start_ps, start_ps + access_time.as_ps());
        }
        samples.push(FrameSample {
            start_cycle: start,
            access_time,
            verdict,
        });
    }
    let horizon = frames as u64 * budget_cycles;
    let report = memory.finish(horizon)?;
    let horizon_time = memory
        .clock()
        .time_of_cycles(horizon.max(memory.busy_until()));
    let core_mw = report.core_energy_pj / horizon_time.as_ns_f64();
    let interface_mw = exp
        .interface
        .total_power_mw(memory.clock().frequency(), memory.channels());
    let power = PowerSummary {
        core_mw,
        interface_mw,
    };
    if let Some(rec) = &recorder {
        power.observe(rec.as_ref());
    }
    Ok(SteadyStateResult {
        frames: samples,
        power,
        bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    fn steady(e: &Experiment, frames: u32) -> Result<SteadyStateResult, CoreError> {
        e.run_with(&crate::RunOptions::steady(frames))
            .map(|o| o.into_steady().expect("steady outcome"))
    }

    fn exp() -> Experiment {
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        e.op_limit = Some(30_000);
        e
    }

    #[test]
    fn zero_frames_rejected() {
        assert!(steady(&exp(), 0).is_err());
    }

    #[test]
    fn paced_sessions_rejected() {
        let mut e = exp();
        e.pacing = crate::Pacing::Paced;
        assert!(matches!(steady(&e, 3), Err(CoreError::BadParam { .. })));
    }

    #[test]
    fn frames_are_stable_after_warmup() {
        let r = steady(&exp(), 5).unwrap();
        assert_eq!(r.frames.len(), 5);
        let steady = r.steady_access_time().unwrap();
        for f in &r.frames[1..] {
            let ratio = f.access_time.as_ps() as f64 / steady.as_ps() as f64;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "unstable frame: {} vs steady {}",
                f.access_time,
                steady
            );
        }
        assert!(r.all_real_time());
        assert!(r.power.core_mw > 0.0);
    }

    #[test]
    fn frame_starts_follow_the_schedule() {
        let r = steady(&exp(), 3).unwrap();
        let budget = 13_333_333 / 4; // not used; check monotone spacing instead
        let _ = budget;
        for pair in r.frames.windows(2) {
            assert!(pair[1].start_cycle > pair[0].start_cycle);
            assert_eq!(
                pair[1].start_cycle - pair[0].start_cycle,
                r.frames[1].start_cycle - r.frames[0].start_cycle,
                "frame starts must be periodic"
            );
        }
    }

    #[test]
    fn reference_rotation_cycles_through_the_pool() {
        use mcm_load::FrameLayout;
        let base =
            FrameLayout::new(&mcm_load::UseCase::hd(HdOperatingPoint::Hd720p30), 1 << 30).unwrap();
        let n = base.references.len() + 1;
        let rotated_layout = |base: &FrameLayout, f: usize| base.rotated(f as u64);
        // After n rotations the layout returns to the start.
        let l0 = rotated_layout(&base, 0);
        let ln = rotated_layout(&base, n);
        assert_eq!(l0.reconstructed, ln.reconstructed);
        assert_eq!(l0.references, ln.references);
        // Consecutive frames use different reconstructed buffers.
        let l1 = rotated_layout(&base, 1);
        assert_ne!(l0.reconstructed, l1.reconstructed);
        // The pool is conserved: recon + refs is always the same region set.
        let mut set0: Vec<_> = l0.references.iter().map(|r| r.start).collect();
        set0.push(l0.reconstructed.start);
        set0.sort();
        let mut set1: Vec<_> = l1.references.iter().map(|r| r.start).collect();
        set1.push(l1.reconstructed.start);
        set1.sort();
        assert_eq!(set0, set1);
    }

    #[test]
    fn overloaded_pipeline_backs_up() {
        // One channel at 200 MHz cannot sustain 720p30: later frames must
        // take longer than the first as the backlog grows.
        let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, 1, 200);
        e.op_limit = Some(60_000);
        let r = steady(&e, 4).unwrap();
        // op_limit truncation may keep individual frames under budget, but
        // access times must be non-decreasing once saturated.
        let times: Vec<u64> = r.frames.iter().map(|f| f.access_time.as_ps()).collect();
        assert!(
            times.windows(2).all(|w| w[1] + 1_000_000 >= w[0]),
            "backlog should not shrink: {times:?}"
        );
    }
}
