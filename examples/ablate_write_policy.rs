//! Ablation A7: posted-write batching vs the paper's in-order writes.
//!
//! The image-processing stages alternate reads and writes, so the in-order
//! controller pays a bus turnaround every few bursts. A real controller
//! posts writes into a buffer and drains them in batches (with
//! read-own-write hazard detection). This target measures how much of the
//! paper's headline access time is recoverable by that one technique.

use mcm_core::{BatchRunner, Experiment};
use mcm_ctrl::WritePolicy;
use mcm_load::HdOperatingPoint;
use mcm_sweep::RayonExecutor;

fn main() {
    println!("Ablation: write scheduling (frame access time [ms] @ 400 MHz)\n");
    println!("  format / channels         | in-order | batch 8 | batch 32");
    for p in [HdOperatingPoint::Hd720p30, HdOperatingPoint::Hd1080p30] {
        for ch in [1u32, 2, 4] {
            let exps: Vec<Experiment> = [
                WritePolicy::Immediate,
                WritePolicy::Batched(8),
                WritePolicy::Batched(32),
            ]
            .iter()
            .map(|&wp| {
                let mut e = Experiment::paper(p, ch, 400);
                e.memory.controller.write_policy = wp;
                e
            })
            .collect();
            let row: String = RayonExecutor::default()
                .run_batch(&exps)
                .iter()
                .map(|r| match r.as_ref().map(|r| r.access_ms) {
                    Ok(Some(ms)) => format!("{ms:8.2}"),
                    _ => format!("{:>8}", "n/a"),
                })
                .collect();
            println!("  {p} {ch}ch |{row}");
        }
    }
    println!("\nExpectation: batching recovers most of the read/write turnaround");
    println!("loss in the image-processing stages; the encoder (read-dominated)");
    println!("is unaffected. The paper's numbers correspond to the in-order");
    println!("column — a smarter controller makes its case only stronger.");
}
