//! Sweep-level errors.
//!
//! A sweep distinguishes *sweep* failures (a spec that expands to nothing,
//! an unreadable cache directory) from *point* failures (one grid point's
//! simulation erroring or panicking). The former abort the sweep; the
//! latter are captured per point so one bad configuration cannot kill a
//! thousand-point run.

use core::fmt;

use mcm_core::CoreError;

/// Errors raised while expanding or executing a sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec expanded to zero experiments (some axis was empty).
    EmptySpec {
        /// The axis that was empty.
        axis: &'static str,
    },
    /// The engine's run options are outside what a sweep supports.
    BadOptions {
        /// Explanation.
        reason: String,
    },
    /// One grid point failed (build-time validation, simulation error, or
    /// an isolated panic). Carried per point, never aborts the sweep.
    Point {
        /// The point's human-readable label.
        label: String,
        /// The underlying experiment error.
        source: CoreError,
    },
    /// The result cache could not be read or written.
    Cache {
        /// The offending path.
        path: String,
        /// The I/O or serialization problem.
        message: String,
    },
    /// The job was cancelled before this point could run. Carried per
    /// point: points that finished before the cancellation keep their
    /// results.
    Cancelled {
        /// The point's human-readable label.
        label: String,
    },
    /// An [`Executor`](crate::Executor) was asked about a job it does not
    /// know (bad id, or a result that was already collected).
    UnknownJob {
        /// The offending job id.
        job: u64,
    },
    /// A shard selector or shard document was unusable: an out-of-range
    /// `--shard i/n`, or merge inputs that disagree on their spec, overlap,
    /// or leave holes in the grid.
    Shard {
        /// Explanation.
        reason: String,
    },
    /// The checkpoint log could not be created, read, or did not match the
    /// sweep it was offered to (different spec hash, key schema or point
    /// count).
    Checkpoint {
        /// The offending log path.
        path: String,
        /// Explanation.
        message: String,
    },
    /// A remote worker failed this item: the connection died and no
    /// surviving worker could take the work over, or the worker answered
    /// with something that is not a job document.
    Remote {
        /// What was being asked of the worker.
        context: String,
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::EmptySpec { axis } => {
                write!(f, "sweep spec has an empty `{axis}` axis")
            }
            SweepError::BadOptions { reason } => write!(f, "bad sweep options: {reason}"),
            SweepError::Point { label, source } => write!(f, "point `{label}`: {source}"),
            SweepError::Cache { path, message } => {
                write!(f, "result cache at `{path}`: {message}")
            }
            SweepError::Cancelled { label } => {
                write!(f, "point `{label}`: cancelled before it could run")
            }
            SweepError::UnknownJob { job } => {
                write!(
                    f,
                    "no job {job} (bad id, or its result was already collected)"
                )
            }
            SweepError::Shard { reason } => write!(f, "bad shard: {reason}"),
            SweepError::Checkpoint { path, message } => {
                write!(f, "checkpoint log at `{path}`: {message}")
            }
            SweepError::Remote { context, message } => {
                write!(f, "remote worker ({context}): {message}")
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Point { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let e = SweepError::EmptySpec { axis: "channels" };
        assert!(e.to_string().contains("channels"));
        let e = SweepError::Point {
            label: "720p30/4ch/400MHz".into(),
            source: CoreError::BadParam { reason: "x".into() },
        };
        assert!(e.to_string().contains("720p30/4ch/400MHz"));
        use std::error::Error;
        assert!(e.source().is_some());
        let e = SweepError::Cache {
            path: "/tmp/c".into(),
            message: "denied".into(),
        };
        assert!(e.to_string().contains("/tmp/c"));
        let e = SweepError::Shard {
            reason: "index 3 of 2".into(),
        };
        assert!(e.to_string().contains("index 3 of 2"));
        let e = SweepError::Checkpoint {
            path: "/tmp/log".into(),
            message: "spec hash mismatch".into(),
        };
        assert!(e.to_string().contains("/tmp/log"));
        let e = SweepError::Remote {
            context: "poll job 3 on 127.0.0.1:1".into(),
            message: "connection refused".into(),
        };
        assert!(e.to_string().contains("127.0.0.1:1"));
    }
}
