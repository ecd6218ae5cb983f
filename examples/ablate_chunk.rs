//! Ablation A5: master-transaction sizing.
//!
//! The paper's uniform ~2x speedup per channel doubling implies the
//! per-channel sequential run length stays constant as channels grow
//! (`ChunkPolicy::PerChannel`). A fixed cache-line master shows what
//! happens otherwise: read/write bus turnarounds eat the added channels.

use mcm_core::ChunkPolicy;
use mcm_load::HdOperatingPoint;
use mcm_sweep::{run_sweep_on, RayonExecutor, SweepOptions, SweepSpec};

fn main() {
    println!("Ablation: master transaction sizing (720p30 access time [ms] @ 400 MHz)\n");
    println!("  channels | per-ch 64B  fixed 64B fixed 256B fixed 1KiB");
    let policies = [
        ChunkPolicy::PerChannel(64),
        ChunkPolicy::Fixed(64),
        ChunkPolicy::Fixed(256),
        ChunkPolicy::Fixed(1024),
    ];
    let spec = SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30],
        channels: vec![1, 2, 4, 8],
        chunks: policies.to_vec(),
        ..SweepSpec::default()
    };
    // Expansion order is channels -> chunk policies: each run of four
    // results is one printed row.
    let result =
        run_sweep_on(&RayonExecutor::default(), &spec, &SweepOptions::default()).expect("sweep");
    for (row, ch) in result.points.chunks(policies.len()).zip([1u32, 2, 4, 8]) {
        let cells: String = row
            .iter()
            .map(|c| match &c.outcome {
                Ok(r) if r.feasible => format!("  {:8.2}", r.access_ms.unwrap_or(0.0)),
                _ => format!("  {:>8}", "n/a"),
            })
            .collect();
        println!("  {ch:>8} |{cells}");
    }
    println!("\nExpectation: per-channel sizing keeps the 2x-per-doubling trend;");
    println!("a fixed 64B master flattens out beyond 2 channels.");
}
