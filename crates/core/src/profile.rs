//! Per-stage profiling: where the frame's memory time actually goes.
//!
//! Table I says how many bits each Fig. 1 stage moves; this module measures
//! how much *memory time* each stage costs on a concrete configuration —
//! the two differ because stages have different read/write mixes (bus
//! turnarounds), locality (row hits) and buffer placement.

use mcm_channel::MemorySubsystem;
use mcm_load::Stage;
use mcm_sim::SimTime;

use crate::error::CoreError;
use crate::experiment::{Experiment, Pacing};
use crate::feed::transaction;

/// One stage's share of the frame.
#[derive(Debug, Clone, Copy)]
pub struct StageProfile {
    /// The stage.
    pub stage: Stage,
    /// Bytes the stage moved.
    pub bytes: u64,
    /// Memory time attributable to the stage (completion-to-completion).
    pub time: SimTime,
}

impl StageProfile {
    /// The stage's achieved bandwidth, bytes per second.
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        let s = self.time.as_s_f64();
        if s == 0.0 {
            0.0
        } else {
            self.bytes as f64 / s
        }
    }
}

/// Profile of one simulated frame.
#[derive(Debug, Clone)]
pub struct FrameProfile {
    /// Per-stage shares, in pipeline order (stages that moved no bytes are
    /// omitted).
    pub stages: Vec<StageProfile>,
    /// Total frame access time.
    pub total: SimTime,
}

impl FrameProfile {
    /// The stage that consumed the most memory time.
    pub fn bottleneck(&self) -> Option<&StageProfile> {
        self.stages.iter().max_by_key(|s| s.time)
    }

    /// Renders the profile as an aligned text table.
    pub fn render(&self) -> String {
        let mut out =
            String::from("  stage                  |    bytes [MB] | time [ms] |  GB/s | share\n");
        out.push_str(&format!("  {}\n", "-".repeat(68)));
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<22} | {:>13.2} | {:>9.3} | {:>5.1} | {:>4.1}%\n",
                s.stage.label(),
                s.bytes as f64 / 1e6,
                s.time.as_ms_f64(),
                s.bandwidth_bytes_per_s() / 1e9,
                100.0 * s.time.as_ps() as f64 / self.total.as_ps().max(1) as f64,
            ));
        }
        out.push_str(&format!(
            "  {:<22} | {:>13.2} | {:>9.3} |\n",
            "total",
            self.stages.iter().map(|s| s.bytes).sum::<u64>() as f64 / 1e6,
            self.total.as_ms_f64()
        ));
        out
    }
}

/// Runs one frame of `exp`'s workload and attributes memory time to
/// pipeline stages. Multi-tenant workloads interleave tenants, so a stage's
/// time there aggregates every tenant's share of that stage.
pub fn run_profiled(exp: &Experiment) -> Result<FrameProfile, CoreError> {
    if exp.pacing == Pacing::Paced {
        return Err(CoreError::BadParam {
            reason: "the stage profile submits every operation at cycle 0; paced arrivals \
                     are not supported"
                .into(),
        });
    }
    let mut memory = MemorySubsystem::new(&exp.memory)?;
    let mut traffic = exp
        .feed(memory.capacity_bytes())
        .traffic(exp.model().as_ref(), 0, &[])?;

    let clock = memory.clock();
    let mut stages: Vec<StageProfile> = Vec::new();
    let mut current: Option<Stage> = None;
    let mut stage_bytes = 0u64;
    let mut stage_started = SimTime::ZERO; // completion watermark at entry
    let mut last_done = SimTime::ZERO;

    loop {
        // `current_stage` reflects the stage the iterator will draw from
        // *next*, so sample it before pulling the op.
        let stage_before = traffic.uncapped().current_stage();
        let Some(op) = traffic.next() else { break };
        let Some(stage) = stage_before else {
            // The traffic iterator only yields ops inside a stage.
            break;
        };
        if current != Some(stage) {
            if let Some(prev) = current {
                stages.push(StageProfile {
                    stage: prev,
                    bytes: stage_bytes,
                    time: last_done.saturating_sub(stage_started),
                });
            }
            current = Some(stage);
            stage_bytes = 0;
            stage_started = last_done;
        }
        let res = memory.submit(transaction(&op, 0))?;
        stage_bytes += op.len as u64;
        last_done = last_done.max(clock.time_of_cycles(res.done_cycle));
    }
    if let Some(prev) = current {
        stages.push(StageProfile {
            stage: prev,
            bytes: stage_bytes,
            time: last_done.saturating_sub(stage_started),
        });
    }
    Ok(FrameProfile {
        stages,
        total: last_done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    #[test]
    fn profile_covers_the_frame_and_finds_the_encoder() {
        let exp = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        let p = run_profiled(&exp).unwrap();
        // Stage times partition the total (no gaps: stages are processed
        // back-to-back).
        let sum: u64 = p.stages.iter().map(|s| s.time.as_ps()).sum();
        let diff = (sum as i64 - p.total.as_ps() as i64).unsigned_abs();
        assert!(diff < p.total.as_ps() / 100, "{sum} vs {}", p.total.as_ps());
        // Bytes match Table I.
        let bytes: u64 = p.stages.iter().map(|s| s.bytes).sum();
        let table = mcm_load::UseCase::hd(HdOperatingPoint::Hd720p30)
            .table_row()
            .bits_per_frame()
            / 8;
        assert!(bytes.abs_diff(table) < 64);
        // "The single most memory intensive part is the video encoding."
        assert_eq!(p.bottleneck().unwrap().stage, Stage::VideoEncoder);
        // Render sanity.
        let text = p.render();
        assert!(text.contains("Video encoder"));
        assert!(text.contains("total"));
    }

    #[test]
    fn paced_profiles_rejected() {
        let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
        exp.pacing = Pacing::Paced;
        assert!(matches!(
            run_profiled(&exp),
            Err(CoreError::BadParam { .. })
        ));
    }

    #[test]
    fn stage_bandwidths_reflect_their_mix() {
        let exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
        let p = run_profiled(&exp).unwrap();
        let get = |stage: Stage| {
            p.stages
                .iter()
                .find(|s| s.stage == stage)
                .map(StageProfile::bandwidth_bytes_per_s)
        };
        // The write-only camera sweep outruns the turnaround-heavy
        // preprocess stage.
        let camera = get(Stage::CameraIf).unwrap();
        let preprocess = get(Stage::Preprocess).unwrap();
        assert!(
            camera > preprocess * 1.1,
            "camera {camera:.2e} vs preprocess {preprocess:.2e}"
        );
    }
}
