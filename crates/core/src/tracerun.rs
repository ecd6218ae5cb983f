//! Trace-driven execution: replay a recorded operation stream against any
//! memory configuration, independent of the video use case.

use mcm_channel::{MemoryConfig, MemorySubsystem};
use mcm_load::{LoadError, LoadOp};
use mcm_power::{InterfacePowerModel, PowerSummary};
use mcm_sim::SimTime;

use crate::error::CoreError;
use crate::feed::transaction;

/// Result of a trace replay.
#[derive(Debug, Clone)]
pub struct TraceRunResult {
    /// Time to drain the whole trace.
    pub access_time: SimTime,
    /// Bytes moved.
    pub bytes: u64,
    /// Operations replayed.
    pub ops: u64,
    /// Average power over the busy period (core + interface).
    pub power: PowerSummary,
    /// Achieved bandwidth over the busy period, bytes/s.
    pub bandwidth_bytes_per_s: f64,
}

/// Replays `ops` (greedy arrivals) against a memory built from `config`,
/// stopping at the first op that failed to read with its
/// [`CoreError::Load`] error. Pass [`mcm_load::read_trace`] to replay a
/// trace file as it is read; to replay at most an experiment's op budget,
/// cap the stream with [`FrameFeed::cap`](crate::FrameFeed::cap) first.
pub fn run_trace(
    config: &MemoryConfig,
    ops: impl IntoIterator<Item = Result<LoadOp, LoadError>>,
    interface: &InterfacePowerModel,
) -> Result<TraceRunResult, CoreError> {
    let mut memory = MemorySubsystem::new(config)?;
    let mut bytes = 0u64;
    let mut count = 0u64;
    for op in ops {
        let op = op?;
        memory.submit(transaction(&op, 0))?;
        bytes += op.len as u64;
        count += 1;
    }
    let report = memory.finish(0)?;
    let busy_ns = report.access_time.as_ns_f64();
    let core_mw = if busy_ns > 0.0 {
        report.core_energy_pj / busy_ns
    } else {
        0.0
    };
    let interface_mw = interface.total_power_mw(memory.clock().frequency(), memory.channels());
    Ok(TraceRunResult {
        access_time: report.access_time,
        bytes,
        ops: count,
        power: PowerSummary {
            core_mw,
            interface_mw,
        },
        bandwidth_bytes_per_s: report.achieved_bandwidth_bytes_per_s(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_matches_manual_submission() {
        let ops = vec![
            LoadOp {
                write: false,
                addr: 0,
                len: 4096,
            },
            LoadOp {
                write: true,
                addr: 8192,
                len: 4096,
            },
        ];
        let r = run_trace(
            &MemoryConfig::paper(2, 400),
            ops.into_iter().map(Ok),
            &InterfacePowerModel::paper(),
        )
        .unwrap();
        assert_eq!(r.bytes, 8192);
        assert_eq!(r.ops, 2);
        assert!(r.access_time > SimTime::ZERO);
        assert!(r.power.core_mw > 0.0);
        assert!(r.bandwidth_bytes_per_s > 0.0);
    }

    #[test]
    fn out_of_range_trace_is_a_typed_error() {
        let ops = vec![LoadOp {
            write: false,
            addr: u64::MAX - 8,
            len: 64,
        }];
        let err = run_trace(
            &MemoryConfig::paper(1, 400),
            ops.into_iter().map(Ok),
            &InterfacePowerModel::paper(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Memory(_)));
    }

    #[test]
    fn a_bad_read_stops_the_replay_with_its_error() {
        let trace = "#mcm-trace v1\nR 0x0 64\nR 0x40 64\nQ 0x80 64\nR 0xc0 64\n";
        let err = run_trace(
            &MemoryConfig::paper(1, 400),
            mcm_load::read_trace(trace.as_bytes()),
            &InterfacePowerModel::paper(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Load(_)), "{err}");
        assert!(err.to_string().contains("trace line 4"), "{err}");
    }
}
