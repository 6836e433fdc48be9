//! The FIRES service layer: a long-running campaign daemon with an
//! engine/result cache, plus the `fires` CLI binary.
//!
//! Every other crate in the workspace is a library a one-shot process
//! drives; this one turns the stack into a service. [`run_server`]
//! hosts campaigns submitted over a Unix-domain socket ([`proto`]),
//! schedules them onto a shared worker pool with per-tenant admission
//! limits and budget caps, and answers repeat submissions from a
//! content-addressed result store ([`cache`], keyed by
//! [`fires_core::content_hash`]) whose durable tier is the ordinary
//! campaign journal — so a killed server resumes in-flight campaigns on
//! restart and the canonical reports stay byte-identical either way.
//!
//! The `fires` binary (in `src/bin/fires.rs`) carries both the one-shot
//! commands (`run`, `resume`, `status`, `watch`, `report`, `profile`,
//! `compare`) and the service commands (`serve`, `submit`, `shutdown`,
//! `watch --remote`, `status --socket`).
//!
//! # Example
//!
//! ```no_run
//! use fires_serve::{run_server, ServeConfig};
//!
//! let cfg = ServeConfig::new("/tmp/fires.sock", "/tmp/fires-state");
//! run_server(cfg).unwrap(); // blocks until a shutdown request
//! ```

// `deny`, not `forbid`: the SIGTERM latch ([`signal`]) needs exactly one
// FFI call to register its handler, opted in with a scoped allow there.
#![deny(unsafe_code)]
#![warn(missing_docs)]
// A service degrades, it does not abort: failures become protocol
// `error` lines or job `Failed` phases, never panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod events;
pub mod proto;
pub mod server;
pub mod signal;
pub mod subscribers;

pub use cache::ResultCache;
pub use client::Connection;
pub use events::{EventLog, SCHEMA};
pub use proto::{Request, Response, SubmitRequest};
pub use server::{job_key, run_server, ServeConfig};
pub use subscribers::ProgressQueue;
