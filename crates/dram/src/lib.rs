//! # mcm-dram — mobile DDR SDRAM device model
//!
//! Models the paper's *theoretical next-generation mobile DDR SDRAM*: a
//! 512 Mb, four-bank, ×32, double-data-rate device whose interface clock
//! spans the DDR2 range (200–533 MHz), with analog timings taken from the
//! contemporary Micron Mobile DDR datasheet class and a 1.35 V projected
//! core voltage (Section III of the paper).
//!
//! The crate provides:
//!
//! * [`Geometry`] / [`TimingParams`] / [`ResolvedTiming`] — device
//!   organization and the paper's frequency-extrapolation rule;
//! * [`AddressDecoder`] with the paper's two address-multiplexing types
//!   ([`AddressMapping::Rbc`] and [`AddressMapping::Brc`]);
//! * [`BankCluster`] — the command-level device state machine enforcing
//!   every timing window (tRCD, tRP, tRAS, tRC, tRRD, tFAW, tWR, tWTR,
//!   tRTP, tRFC, tXP, bus occupancy and read/write turnaround);
//! * the Micron TN-46-03-style power model ([`IddValues`], [`EnergyModel`],
//!   [`EnergyAccount`]) with background-state residency accounting and
//!   frequency/voltage scaling.
//!
//! # Examples
//!
//! Open a row, read a burst, observe data timing:
//!
//! ```
//! use mcm_dram::{BankCluster, ClusterConfig, DramCommand};
//!
//! let mut dev = BankCluster::new(&ClusterConfig::next_gen_mobile_ddr(400)).unwrap();
//! let t = *dev.timing();
//! dev.issue(DramCommand::Activate { bank: 0, row: 3 }, 0).unwrap();
//! let out = dev.issue(DramCommand::Read { bank: 0, col: 0 }, t.t_rcd).unwrap();
//! // Read data completes CL + BL/2 cycles after the command.
//! assert_eq!(out.data_end_cycle, Some(t.t_rcd + t.cl + t.bl_ck));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Model code must surface failures as typed errors, never panic
// (clippy.toml lists the banned methods). Tests keep their unwraps.
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod address;
mod bank;
mod command;
pub mod datasheet;
mod device;
mod error;
mod params;
mod power;
pub mod timeline;
pub mod validate;

pub use address::{AddressDecoder, AddressMapping, DecodedAddress};
pub use bank::{Bank, BankPhase};
pub use command::DramCommand;
pub use device::{BankCluster, ClusterConfig, ClusterStats, IdleRefreshRun, IssueOutcome};
pub use error::DramError;
pub use params::{Geometry, ResolvedTiming, TimingParams};
pub use power::{BackgroundState, EnergyAccount, EnergyModel, IddValues, OperatingPoint};
pub use validate::{RuleKind, TraceValidator, TracedCommand, Violation};
