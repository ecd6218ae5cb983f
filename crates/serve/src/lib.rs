//! mcmem as a long-running service: an HTTP/JSON job API over the shared
//! [`Executor`](mcm_sweep::Executor) and a persistent, content-addressed
//! result store.
//!
//! The crate turns the one-shot sweep machinery into infrastructure:
//!
//! * [`Server`] speaks a minimal HTTP/1.1 dialect over `std::net` (no
//!   frameworks — the vendored-dependency discipline applies to the
//!   service layer too) and exposes `POST /runs`, `POST /sweeps`,
//!   `GET /jobs[/:id]`, `DELETE /jobs/:id`, `GET /healthz` and
//!   `POST /shutdown`.
//! * [`JobTable`] maps public job ids onto [`RayonExecutor`] jobs
//!   (bounded concurrency, incremental progress, cooperative
//!   cancellation) and finalizes each job into a persisted result
//!   document as soon as the executor finishes it.
//! * [`ResultStore`] extends the sweep cache's
//!   [`content_key`](mcm_sweep::content_key) discipline into queryable
//!   history: records live in the same keyed format and the same
//!   directory a sweep cache would use, so a submission whose key is
//!   already stored is answered instantly — the executor never sees it.
//!
//! Statically infeasible healthy submissions are rejected up front with
//! the MCM4xx witness produced by [`mcm_analyze::verdict`].
//!
//! The crate also holds the other end of the wire: [`ServeExecutor`]
//! implements [`Executor`](mcm_sweep::Executor) against one or more
//! running servers (`POST /batch`), so `mcm sweep --executor
//! serve:<addr>` distributes a sweep — or one shard of it — across
//! remote workers with retry, backoff and dead-worker re-queueing.
//!
//! ```no_run
//! use mcm_serve::{ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.addr = "127.0.0.1:0".to_string();
//! let server = Server::bind(config).unwrap();
//! println!("listening on {}", server.local_addr());
//! server.run().unwrap();
//! ```

#![warn(missing_docs)]

mod client;
mod http;
mod jobs;
mod server;
mod store;

pub use client::ServeExecutor;
pub use http::{error_body, read_request, respond, Request};
pub use jobs::{JobKind, JobTable};
pub use server::{ServeConfig, ServeError, Server};
pub use store::{IndexEntry, ResultStore};

pub use mcm_sweep::RayonExecutor;
