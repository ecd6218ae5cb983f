//! Ablation A1: RBC vs. BRC address multiplexing on the Fig. 3 grid.
//!
//! The paper: "the shown results utilize Row-Bank-Column (RBC) address
//! multiplexing since somewhat better performance were achieved compared to
//! the Bank-Row-Column (BRC) multiplexing type."

use mcm_dram::AddressMapping;
use mcm_load::HdOperatingPoint;
use mcm_sweep::{run_sweep_on, RayonExecutor, SweepOptions, SweepSpec};

const CLOCKS: [u64; 6] = [200, 266, 333, 400, 466, 533];
const CHANNELS: [u32; 4] = [1, 2, 4, 8];

fn main() {
    println!("Ablation: address multiplexing (720p30 frame access time [ms])\n");
    println!("  ch\\MHz   |      200      266      333      400      466      533");
    // One sweep for the whole comparison; expansion order is
    // channels -> clocks -> mappings, so each mapping's grid is sliced
    // back out of the ordered results.
    let spec = SweepSpec {
        points: vec![HdOperatingPoint::Hd720p30],
        channels: CHANNELS.to_vec(),
        clocks_mhz: CLOCKS.to_vec(),
        mappings: vec![AddressMapping::Rbc, AddressMapping::Brc],
        ..SweepSpec::default()
    };
    let result =
        run_sweep_on(&RayonExecutor::default(), &spec, &SweepOptions::default()).expect("sweep");
    for (m, mapping) in [AddressMapping::Rbc, AddressMapping::Brc]
        .iter()
        .enumerate()
    {
        println!("  --- {mapping} ---");
        for (c, ch) in CHANNELS.iter().enumerate() {
            let row: String = (0..CLOCKS.len())
                .map(
                    |k| match &result.points[(c * CLOCKS.len() + k) * 2 + m].outcome {
                        Ok(r) if r.feasible => format!("{:8.2}", r.access_ms.unwrap_or(0.0)),
                        _ => format!("{:>8}", "n/a"),
                    },
                )
                .collect();
            println!("  {ch:>8} |{row}");
        }
    }
    println!("\nExpectation: RBC is faster for two compounding reasons: sequential");
    println!("sweeps rotate banks at page boundaries (hiding activates), and the");
    println!("allocator can stagger concurrently-streamed buffers across banks.");
    println!("Under BRC the bank bits are the top address bits, so buffers cannot");
    println!("be bank-staggered without wasting a quarter of the address space --");
    println!("concurrent streams conflict in one bank on top of the page stalls.");
}
