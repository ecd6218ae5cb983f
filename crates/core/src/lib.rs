//! # mcm-core — the experiment API
//!
//! Reproduces the evaluation of *"A case for multi-channel memories in
//! video recording"* (DATE 2009) on top of the `mcmem` substrates:
//!
//! * [`Experiment`] — one video-recording frame ([`mcm_load`]) against one
//!   multi-channel memory configuration ([`mcm_channel`]), reporting
//!   per-frame access time, the real-time verdict with the paper's 15 %
//!   data-processing margin, and average power (DRAM core + equation (1)
//!   interface power), distilled to a [`PointRecord`] wherever results
//!   are batched, cached or served;
//! * [`feed`] — the one place every engine path takes its frame from: the
//!   budget, the layout, the capped traffic and the real-time verdict;
//! * [`figures`] — data builders and text renderers for Table I, Table II,
//!   Fig. 3, Fig. 4, Fig. 5 and the XDR comparison;
//! * [`analysis`] — the conclusions' derived claims (≈2× speedup per
//!   channel/clock doubling, minimum channels per H.264 level).
//!
//! # Examples
//!
//! ```
//! use mcm_core::{ChunkPolicy, Experiment, RunOptions};
//! use mcm_load::HdOperatingPoint;
//!
//! // 720p30 on the paper's 4-channel, 400 MHz memory (truncated run for
//! // the doctest; drop `op_limit` to simulate the whole frame).
//! let mut exp = Experiment::paper(HdOperatingPoint::Hd720p30, 4, 400);
//! exp.op_limit = Some(10_000);
//! let result = exp
//!     .run_with(&RunOptions::default())
//!     .unwrap()
//!     .into_frame()
//!     .unwrap();
//! assert!(result.access_time < result.frame_budget);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]
// Model code must surface failures as typed errors, never panic
// (clippy.toml lists the banned methods). Tests keep their unwraps.
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod analysis;
mod builder;
pub mod charts;
mod error;
pub mod eventsim;
mod experiment;
pub mod feed;
pub mod figures;
pub mod profile;
pub mod runner;
pub mod steady;
pub mod tracerun;

pub use builder::ExperimentBuilder;
pub use error::CoreError;
pub use experiment::{
    ChunkPolicy, Experiment, FrameResult, Pacing, PointRecord, RealTimeVerdict, RunOptions,
    RunOutcome, TenantSummary,
};
pub use feed::FrameFeed;
pub use runner::{BatchRunner, SerialRunner};
