//! Observability layer for the FIRES reproduction.
//!
//! The algorithm crates (`fires-core`, `fires-sim`, `fires-atpg`) do the
//! work; this crate makes the work *visible*. Its pieces are all
//! dependency-free:
//!
//! * [`RunMetrics`] — a registry of named counters, maxima and
//!   log₂-bucketed histograms, mergeable across threads and runs;
//! * [`PhaseClock`] / [`PhaseTimes`] — wall-clock accounting that splits a
//!   run into named phases while guaranteeing the phase breakdown and the
//!   total can never disagree (both come from the same clock);
//! * [`RuleProfile`] — per-rule step attribution of the implication
//!   engine, rendered by `fires profile` and as folded stacks;
//! * [`trace_events_named`] — the Chrome Trace Event Format converter
//!   behind the daemon's request traces;
//! * [`RunReport`] — a schema-versioned, machine-readable JSON report
//!   ([`json::Json`] is a small built-in JSON tree with parser and
//!   printer, used instead of serde because the build environment is
//!   offline).
//!
//! `fires-core` pulls this crate in behind its `tracing` feature
//! (default-on); with `--no-default-features` the core algorithm compiles
//! without it and without any instrumentation overhead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chrome;
pub mod compare;
pub mod json;
mod metrics;
pub mod names;
mod profile;
mod report;
pub mod series;
mod timer;

pub use chrome::{trace_events_named, FieldValue, TimedRecord, TraceRecord};
pub use compare::{compare_reports, CompareConfig, CompareOutcome, DeltaStatus, MetricDelta};
pub use json::Json;
pub use metrics::{Histogram, RunMetrics};
pub use profile::{ProfileRule, RuleProfile, RuleSteps, StepDist, ALL_RULES};
pub use report::{RunReport, SCHEMA_VERSION};
pub use series::{prom_name, render_prometheus, SeriesRegistry};
pub use timer::{PhaseClock, PhaseTimes};
