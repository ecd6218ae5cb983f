//! # mcm — multi-channel memories for video recording
//!
//! A complete, from-scratch reproduction of *"A case for multi-channel
//! memories in video recording"* (E. Aho, J. Nikara, P. A. Tuominen,
//! K. Kuusilinna — DATE 2009, Nokia Research Center): a transaction-level
//! simulator for multi-channel mobile DDR SDRAM subsystems driven by the
//! paper's HD video-recording load model.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`sim`] | discrete-event kernel, time/clock arithmetic, latency histogram |
//! | [`dram`] | the next-generation mobile DDR SDRAM device model |
//! | [`ctrl`] | the per-channel memory controller |
//! | [`channel`] | Table II interleaving, the M-channel subsystem, clusters |
//! | [`fault`] | seed-driven fault injection and graceful degradation |
//! | [`load`] | the Fig. 1 / Table I video-recording load model |
//! | [`power`] | equation (1) interface power, XDR comparison |
//! | [`verify`] | conformance checks and lints (`mcm check`, `MCMxxx` rules) |
//! | [`analyze`] | static feasibility analysis (`mcm lint`, `MCM4xx` rules) |
//! | [`obs`] | observability: counters, histograms, timelines, trace export |
//! | [`core`] | experiments, figures, analyses |
//! | [`sweep`] | parallel design-space sweeps with a disk result cache |
//!
//! # Quickstart
//!
//! ```
//! use mcm::prelude::*;
//!
//! // The paper's headline configuration: full-HD 1080p30 recording on a
//! // 4-channel, 400 MHz multi-channel memory.
//! let exp = Experiment::paper(HdOperatingPoint::Hd1080p30, 4, 400);
//! // Doctest-sized prefix; drop the op limit for full runs.
//! let outcome = exp
//!     .run_with(&RunOptions::default().with_op_limit(20_000))
//!     .unwrap();
//! assert!(outcome.frame().unwrap().verdict.is_real_time());
//! ```

#![warn(missing_docs)]

// The run/sweep API surface, re-exported at the root so downstream code
// can write `mcm::RunOptions` without spelling out the member crate.
pub use mcm_core::{CoreError, Experiment, ExperimentBuilder, FrameResult, RunOptions, RunOutcome};
pub use mcm_sweep::{run_sweep_on, RayonExecutor, SweepOptions, SweepResult, SweepSpec};

pub use mcm_analyze as analyze;
pub use mcm_channel as channel;
pub use mcm_core as core;
pub use mcm_ctrl as ctrl;
pub use mcm_dram as dram;
pub use mcm_fault as fault;
pub use mcm_load as load;
pub use mcm_obs as obs;
pub use mcm_power as power;
pub use mcm_sim as sim;
pub use mcm_sweep as sweep;
pub use mcm_verify as verify;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use mcm_analyze::{analyze_experiment, AnalysisVerdict};
    pub use mcm_channel::{
        ClusteredMemory, InterleaveMap, MasterTransaction, MemoryConfig, MemorySubsystem,
    };
    pub use mcm_core::{
        ChunkPolicy, CoreError, Experiment, ExperimentBuilder, FrameResult, Pacing,
        RealTimeVerdict, RunOptions, RunOutcome,
    };
    pub use mcm_ctrl::{
        AccessOp, ChannelRequest, Controller, ControllerConfig, PagePolicy, PowerDownPolicy,
    };
    pub use mcm_dram::{
        AddressMapping, BankCluster, ClusterConfig, DramCommand, Geometry, IddValues, TimingParams,
    };
    pub use mcm_fault::{DegradePolicy, DegradeSummary, FaultPlan, FaultSpec};
    pub use mcm_load::{
        CodecProfile, FrameFormat, FrameLayout, FrameTraffic, H264Level, HdOperatingPoint,
        LayoutOptions, LoadModel, PixelFormat, RefFrames, Stage, StochasticParams, UseCase,
        UseCaseMode, Workload,
    };
    pub use mcm_obs::{NullRecorder, ObsConfig, ObsReport, Recorder, StatsRecorder};
    pub use mcm_power::{BondingTechnique, InterfacePowerModel, PowerSummary, XdrReference};
    pub use mcm_sim::{ClockDomain, Frequency, QueueKind, SimTime};
    pub use mcm_sweep::{
        run_sweep_on, PointOutcome, RayonExecutor, SweepOptions, SweepResult, SweepSpec,
    };
    pub use mcm_verify::{Diagnostic, Report, Severity, TraceAuditOptions};
}
