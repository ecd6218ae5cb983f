//! Ablation A2: open-page vs. closed-page row-buffer policy.
//!
//! The paper uses open page throughout ("In all the evaluations, DRAM open
//! page policy is used") — this ablation shows why.

use mcm_ctrl::PagePolicy;
use mcm_load::HdOperatingPoint;
use mcm_sweep::{run_sweep_on, RayonExecutor, SweepOptions, SweepSpec};

fn main() {
    println!("Ablation: page policy (frame access time [ms] @ 400 MHz)\n");
    println!("  format / channels        |     open   closed");
    let points = [HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p30];
    let spec = SweepSpec {
        points: points.to_vec(),
        channels: vec![1, 2, 4, 8],
        page_policies: vec![PagePolicy::Open, PagePolicy::Closed],
        ..SweepSpec::default()
    };
    // Expansion order is points -> channels -> page policies: every
    // consecutive pair of results is one printed row.
    let result =
        run_sweep_on(&RayonExecutor::default(), &spec, &SweepOptions::default()).expect("sweep");
    let mut rows = result.points.chunks(2);
    for p in points {
        for ch in [1u32, 2, 4, 8] {
            let row: String = rows
                .next()
                .expect("row")
                .iter()
                .map(|c| match &c.outcome {
                    Ok(r) if r.feasible => format!("{:8.2}", r.access_ms.unwrap_or(0.0)),
                    _ => format!("{:>8}", "n/a"),
                })
                .collect();
            println!("  {p} {ch}ch |{row}");
        }
    }
    println!("\nExpectation: the streaming video load is row-hit dominated, so the");
    println!("open-page policy wins consistently.");
}
