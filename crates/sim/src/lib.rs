//! # mcm-sim — discrete-event simulation kernel
//!
//! The foundation of the `mcmem` workspace, which reproduces
//! *"A case for multi-channel memories in video recording"* (Aho, Nikara,
//! Tuominen, Kuusilinna — DATE 2009).
//!
//! The paper built its models in a commercial SystemC electronic-system-level
//! environment as untimed transaction-level models with separate timing and
//! power annotations. This crate provides the equivalent substrate from
//! scratch:
//!
//! * [`SimTime`] / [`Frequency`] / [`ClockDomain`] — picosecond-exact time
//!   and clock arithmetic (no cumulative rounding across millions of DRAM
//!   cycles).
//! * [`Simulation`] / [`Component`] / [`Ctx`] — a deterministic event queue
//!   delivering timestamped messages between registered components.
//! * [`stats`] — the controller's per-request latency histogram.
//!
//! # Examples
//!
//! ```
//! use mcm_sim::{ClockDomain, Frequency, SimTime};
//!
//! // A 400 MHz DDR interface clock: tRCD = 15 ns is 6 clock cycles.
//! let clk = ClockDomain::new(Frequency::from_mhz(400)).unwrap();
//! assert_eq!(clk.ns_to_cycles_ceil(15.0), 6);
//! assert_eq!(clk.time_of_cycles(6), SimTime::from_ns(15));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod queue;
pub mod stats;
mod time;

pub use engine::{Component, ComponentId, Ctx, SimError, Simulation};
pub use queue::QueueKind;
pub use time::{ClockDomain, CycleTimes, Frequency, SimTime, ZeroFrequencyError};
