//! # mcm-load — the video-recording memory-load model
//!
//! Section II of the paper reduces a complete video-recording chain
//! (Fig. 1) — camera interface, preprocessing, demosaic, stabilization,
//! post-processing/digizoom, display scaling and refresh, H.264/AVC
//! encoding with multiple reference frames, audio, multiplexing and
//! memory-card output — to the execution-memory traffic it generates.
//! This crate implements that model:
//!
//! * [`PixelFormat`] / [`FrameFormat`] — the chain's encodings and frame
//!   geometries (720p, 1080p at the paper's 1920×1088, 2160p, WVGA);
//! * [`H264Level`] / [`HdOperatingPoint`] — the H.264 Table A-1 limits and
//!   the paper's five HD operating points;
//! * [`UseCase`] / [`Stage`] / [`StageTraffic`] — the Table I per-stage
//!   traffic model;
//! * [`FrameLayout`] — the buffers' placement in the address space;
//! * [`FrameTraffic`] / [`LoadOp`] — the state machine emitting one frame's
//!   memory operations, and [`Capped`], the op budget of a quick run;
//! * [`LoadModel`] / [`Workload`] — the pluggable workload-model trait and
//!   the named catalogue built on it (Table I H.264, HEVC/VVC profiles, a
//!   seed-deterministic stochastic generator, multi-tenant contention).
//!   The modeling math lives in `docs/WORKLOADS.md`.
//!
//! # Examples
//!
//! Reproduce a Table I column:
//!
//! ```
//! use mcm_load::{HdOperatingPoint, UseCase};
//!
//! let row = UseCase::hd(HdOperatingPoint::Hd1080p30).table_row();
//! // The paper's prose: "full HDTV (1080p) ... 4.3 GB/s".
//! assert!((3.9..=4.6).contains(&row.gbytes_per_second()));
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffers;
mod error;
mod formats;
mod levels;
mod model;
mod stages;
mod tracefile;
mod traffic;
mod usecase;
mod workload;

pub use buffers::{FrameLayout, LayoutOptions, Region};
pub use error::LoadError;
pub use formats::{FrameFormat, PixelFormat};
pub use levels::{H264Level, HdOperatingPoint, LevelLimits};
pub use model::{
    CodecModel, Footprint, LoadModel, MultiTenantModel, MultiTenantTraffic, StochasticModel,
    TableIModel, TenantRole, Traffic,
};
pub use stages::{Stage, StageTraffic};
pub use tracefile::{read_trace, write_trace, TRACE_HEADER};
pub use traffic::{Capped, FrameTraffic, LoadOp};
pub use usecase::{RefFrames, TableRow, UseCase, UseCaseMode};
pub use workload::{CodecProfile, StochasticParams, Workload, DEFAULT_BURSTINESS_PCT, MAX_TENANTS};
