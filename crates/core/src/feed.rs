//! One frame feed: how an experiment's frame is laid out, sized, capped and
//! judged.
//!
//! The paper tests every memory configuration against one description of
//! the recording frame: the load laid out in memory and issued as master
//! transactions. Every engine path takes that description from here — the
//! single frame, the steady session, the stage profile, the event-driven
//! master, trace replay, `mcm timeline` and `mcm trace-dump` — and the
//! MCM406 footprint lint lays the frame out with [`layout`], so the paths
//! cannot drift apart.

use mcm_channel::{MasterTransaction, MemoryConfig};
use mcm_ctrl::AccessOp;
use mcm_load::{Capped, LayoutOptions, LoadModel, LoadOp, Stage, Traffic};
use mcm_sim::SimTime;

use crate::error::CoreError;
use crate::experiment::{Experiment, RealTimeVerdict};

/// The placement every frame is laid out with: concurrently streamed
/// buffers staggered over the banks, as any locality-aware allocator
/// arranges, on `capacity_bytes` of `memory` (less than
/// [`MemoryConfig::capacity_bytes`] only when channels are lost).
pub fn layout(memory: &MemoryConfig, capacity_bytes: u64) -> LayoutOptions {
    let geometry = &memory.controller.cluster.geometry;
    LayoutOptions::bank_staggered(
        capacity_bytes,
        geometry.page_bytes() as u64,
        memory.channels,
        geometry.banks,
    )
}

/// The direction of a load operation, as the memory controllers see it.
pub(crate) fn access_op(op: &LoadOp) -> AccessOp {
    if op.write {
        AccessOp::Write
    } else {
        AccessOp::Read
    }
}

/// The master transaction that issues `op`, arriving at cycle `arrival`.
pub fn transaction(op: &LoadOp, arrival: u64) -> MasterTransaction {
    MasterTransaction {
        op: access_op(op),
        addr: op.addr,
        len: u64::from(op.len),
        arrival,
    }
}

/// One experiment's frame on a memory of a given capacity; obtain one via
/// [`Experiment::feed`].
#[derive(Debug, Clone)]
pub struct FrameFeed<'e> {
    exp: &'e Experiment,
    layout: LayoutOptions,
}

impl Experiment {
    /// The experiment's frame feed, laid out on `capacity_bytes` of its
    /// memory: [`MemoryConfig::capacity_bytes`] for a healthy subsystem,
    /// the survivors' capacity under channel loss.
    pub fn feed(&self, capacity_bytes: u64) -> FrameFeed<'_> {
        FrameFeed {
            exp: self,
            layout: layout(&self.memory, capacity_bytes),
        }
    }
}

impl FrameFeed<'_> {
    /// The frame's real-time budget, 1/fps.
    pub(crate) fn budget(&self) -> SimTime {
        SimTime::from_ps(1_000_000_000_000u64 / u64::from(self.exp.use_case.fps))
    }

    /// `model`'s operations for captured frame `frame` with `shed` dropped,
    /// at the experiment's transaction size and cut at its op budget.
    pub fn traffic(
        &self,
        model: &dyn LoadModel,
        frame: u64,
        shed: &[Stage],
    ) -> Result<Capped<Traffic>, CoreError> {
        let chunk = self.exp.chunk.bytes(self.exp.memory.channels);
        let traffic = model.traffic(&self.layout, chunk, frame, shed)?;
        Ok(self.cap(traffic))
    }

    /// Cuts `ops` (operations, or fallible reads of them) at the
    /// experiment's op budget ([`Experiment::op_limit`]).
    pub fn cap<I: Iterator>(&self, ops: I) -> Capped<I> {
        Capped::new(ops, self.exp.op_limit)
    }

    /// The verdict for an access of `access` against a budget of `budget`,
    /// both in the caller's unit (picoseconds for a frame, cycles for a
    /// steady session): over budget fails, over the budget less the
    /// experiment's margin is marginal.
    pub(crate) fn judge(&self, access: u64, budget: u64) -> RealTimeVerdict {
        if access > budget {
            RealTimeVerdict::Fails
        } else if access as f64 > budget as f64 * (1.0 - self.exp.margin) {
            RealTimeVerdict::Marginal
        } else {
            RealTimeVerdict::Meets
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    #[test]
    fn judge_applies_the_margin() {
        let exp = Experiment::paper(HdOperatingPoint::Hd720p30, 1, 400);
        let feed = exp.feed(exp.memory.capacity_bytes());
        assert_eq!(feed.judge(101, 100), RealTimeVerdict::Fails);
        assert_eq!(feed.judge(100, 100), RealTimeVerdict::Marginal);
        assert_eq!(feed.judge(86, 100), RealTimeVerdict::Marginal);
        assert_eq!(feed.judge(85, 100), RealTimeVerdict::Meets);
    }

    #[test]
    fn traffic_is_capped_but_plans_the_whole_frame() {
        let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 2, 400);
        let full = exp.feed(exp.memory.capacity_bytes());
        let model = exp.model();
        let all = full.traffic(model.as_ref(), 0, &[]).unwrap();
        let planned = all.uncapped().total_bytes();
        let ops: Vec<LoadOp> = all.collect();
        exp.op_limit = Some(10);
        let feed = exp.feed(exp.memory.capacity_bytes());
        let capped = feed.traffic(model.as_ref(), 0, &[]).unwrap();
        assert_eq!(capped.uncapped().total_bytes(), planned);
        assert_eq!(capped.collect::<Vec<_>>(), ops[..10]);
        assert_eq!(feed.cap(ops.into_iter()).count(), 10);
    }

    #[test]
    fn transactions_keep_direction_address_and_length() {
        let op = LoadOp {
            write: true,
            addr: 4096,
            len: 64,
        };
        let txn = transaction(&op, 7);
        assert_eq!(txn.op, AccessOp::Write);
        assert_eq!((txn.addr, txn.len, txn.arrival), (4096, 64, 7));
        let read = LoadOp { write: false, ..op };
        assert_eq!(access_op(&read), AccessOp::Read);
    }
}
