//! Batch execution strategy for experiment grids.
//!
//! The figure builders in [`crate::figures`] run dozens of independent
//! simulations; how those runs are scheduled (serially, on a thread pool,
//! against a result cache…) is a policy the caller owns. [`BatchRunner`]
//! is that seam: `mcm-core` ships the obvious [`SerialRunner`], and
//! `mcm-sweep`'s executor runs the same batch as one of its jobs without
//! `mcm-core` depending on it.

use crate::error::CoreError;
use crate::experiment::{Experiment, PointRecord};
use crate::RunOptions;

/// Executes a batch of independent experiments, returning one distilled
/// record per experiment **in input order** regardless of execution order.
pub trait BatchRunner: Sync {
    /// Runs every experiment and collects records in input order.
    fn run_batch(&self, experiments: &[Experiment]) -> Vec<Result<PointRecord, CoreError>>;
}

/// The trivial runner: one experiment after the other on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialRunner;

impl BatchRunner for SerialRunner {
    fn run_batch(&self, experiments: &[Experiment]) -> Vec<Result<PointRecord, CoreError>> {
        let run = RunOptions::default();
        experiments.iter().map(|e| run_isolated(e, &run)).collect()
    }
}

/// Runs one single-frame experiment under `run` with panic isolation and
/// distills it with [`PointRecord::from_result`]: a panicking model turns
/// into [`CoreError::Panicked`] instead of unwinding into the caller, so
/// one bad grid point cannot kill a whole batch.
pub fn run_isolated(exp: &Experiment, run: &RunOptions) -> Result<PointRecord, CoreError> {
    let attempt = || PointRecord::from_result(exp.run_with(run).and_then(|o| o.try_into_frame()));
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt)) {
        Ok(result) => result,
        Err(payload) => Err(CoreError::Panicked {
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_load::HdOperatingPoint;

    #[test]
    fn serial_runner_matches_direct_runs() {
        let mk = |ch| {
            let mut e = Experiment::paper(HdOperatingPoint::Hd720p30, ch, 400);
            e.op_limit = Some(2_000);
            e
        };
        let exps = vec![mk(1), mk(2)];
        let batch = SerialRunner.run_batch(&exps);
        for (exp, got) in exps.iter().zip(&batch) {
            let direct = exp.run_with(&RunOptions::default()).unwrap().into_frame();
            let direct = PointRecord::from_result(Ok(direct.unwrap())).unwrap();
            assert_eq!(&direct, got.as_ref().unwrap());
        }
    }

    #[test]
    fn panics_become_typed_errors() {
        let before = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log clean
        let result = std::panic::catch_unwind(|| {
            // A panicking closure stands in for a panicking model.
            match std::panic::catch_unwind(|| panic!("boom")) {
                Ok(()) => unreachable!(),
                Err(p) => CoreError::Panicked {
                    message: panic_message(p.as_ref()),
                },
            }
        });
        std::panic::set_hook(before);
        let err = result.unwrap();
        assert_eq!(err.to_string(), "experiment panicked: boom");
    }
}
