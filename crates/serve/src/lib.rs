//! Planning-as-a-service for the PowerLens adaptive DVFS framework.
//!
//! This crate turns the offline planning pipeline into a long-running
//! daemon: an HTTP/1.1-over-TCP server that plans DVFS schedules, compares
//! governors, and lints models on demand, backed by the same shared
//! [`powerlens_store::PlanStore`] cache the CLI uses. It is std-only — the
//! HTTP layer is a deliberately small hand-rolled implementation on
//! `std::net`, enough for `Connection: close` request/response exchanges
//! and nothing more.
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP──▶ accept loop ──────▶ bounded queue ──▶ worker pool
//!                  (blocking accept;                          │
//!                  a self-connect            zoo table (each name resolved
//!                  wakes it on shutdown)     once per daemon) + ops::*
//!                      │                     + PlanStore (tenant-namespaced)
//!                   429 shed
//!                 (queue full)
//! ```
//!
//! - [`ops`] holds the callable command logic shared with `powerlens-cli`
//!   (the CLI is a thin table-printing frontend over the same functions).
//! - [`proto`] defines the JSON request/response types.
//! - [`http`] is the minimal HTTP/1.1 framing layer plus a tiny client
//!   used by tests and smoke scripts.
//! - [`server`] wires them together: admission control, the worker pool,
//!   the per-daemon zoo table, the degradation ladder, `/metrics`, and
//!   graceful shutdown.
//!
//! # Degradation ladder
//!
//! Rather than letting latency grow without bound under overload, `/plan`
//! and `/compare` degrade in steps as the queue fills:
//!
//! 1. **Full planning** — normal operation; misses run the planner and
//!    populate the cache.
//! 2. **Cached-only** (queue ≥ half full) — cache hits are served; misses
//!    get the BiM-heuristic answer (whole graph pinned at the maximum
//!    operating point — the plan a fully fallen-back
//!    [`powerlens_sim::Degraded`] controller converges to) with
//!    `degraded: true` set.
//! 3. **Shed** (queue full) — the connection is answered `429` before it
//!    is queued.
//!
//! # Example
//!
//! ```no_run
//! use powerlens_serve::{Server, ServeConfig};
//!
//! let cfg = ServeConfig { port: 0, ..ServeConfig::default() };
//! let server = Server::bind(cfg).unwrap();
//! println!("listening on {}", server.local_addr());
//! let report = server.run().unwrap(); // blocks until POST /shutdown
//! println!("served {} requests", report.requests);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod http;
pub mod ops;
pub mod proto;
pub mod server;

pub use server::{ServeConfig, ServeReport, Server};
