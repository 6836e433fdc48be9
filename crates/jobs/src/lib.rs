//! Campaign orchestration for FIRES runs.
//!
//! A *campaign* is a set of (circuit × configuration) tasks, expanded
//! into per-fanout-stem work units and executed by a work-stealing
//! worker pool. The subsystem is built around three guarantees:
//!
//! * **Resumable** — every completed unit is appended to an on-disk
//!   journal ([`journal`]) and flushed before it counts; killing the
//!   process loses at most the unit in flight, and [`resume`] picks up
//!   exactly the missing units (the journal header carries circuit
//!   content hashes so stale journals are refused, not misread).
//! * **Fault-tolerant** — a unit that panics is retried up to
//!   `--retries` times and quarantined after; one that overruns its
//!   wall-clock deadline or exhausts its per-stem [`Budget`] is recorded
//!   and skipped ([`runner`]); transient journal IO errors are retried
//!   with exponential backoff; one poisoned stem never aborts a
//!   campaign. A deterministic [`ChaosPlan`] ([`chaos`]) injects panics,
//!   IO errors and delays so all of this is *testable*.
//!
//! [`Budget`]: fires_core::Budget
//! * **Deterministic** — the merged report ([`merge`]) is a pure
//!   function of the set of unit records: byte-identical whether the
//!   campaign ran on 1 thread or 8, uninterrupted or killed-and-resumed
//!   (see [`IdentifiedFault::wins_over`](fires_core::IdentifiedFault)).
//!
//! The `fires` binary (in the `fires-serve` crate) is the CLI frontend:
//! `fires run`, `fires resume`, `fires status`, `fires report`, plus the
//! daemon/client commands layered on top of this crate.
//!
//! # Example
//!
//! ```
//! use fires_jobs::{runner, spec::CampaignSpec};
//!
//! # // Removes the directory at the end unless an assertion failed.
//! # struct Cleanup(std::path::PathBuf);
//! # impl Drop for Cleanup {
//! #     fn drop(&mut self) {
//! #         if !std::thread::panicking() {
//! #             let _ = std::fs::remove_dir_all(&self.0);
//! #         }
//! #     }
//! # }
//! let dir = std::env::temp_dir().join(format!("fires-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! # let _cleanup = Cleanup(dir.clone());
//! let journal = dir.join("demo.jsonl");
//! let _ = std::fs::remove_file(&journal);
//!
//! let spec = CampaignSpec::from_circuits("demo", ["fig3"]);
//! let summary = runner::run(&spec, &journal, &runner::RunnerConfig::default()).unwrap();
//! assert!(summary.complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A campaign must degrade gracefully, not abort: library code converts
// every failure into a typed `JobError` or a journaled unit status.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
mod error;
pub mod journal;
pub mod merge;
pub mod runner;
pub mod spec;
pub mod summary;

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

pub use chaos::{site_roll, ChaosPlan, Site};
pub use error::JobError;
pub use merge::{CampaignReport, TaskReport};
pub use runner::{
    build_engines, resume, run, run_with_tasks, Injection, RunSummary, RunnerConfig, UnitObserver,
};
pub use spec::{CampaignSpec, ResolvedTask, TaskSpec};
pub use summary::{JournalSummary, TaskProgress, WorstStem, WORST_STEMS_TOP};

use std::path::Path;

/// Reads a journal, verifies it against this build and merges it into a
/// [`CampaignReport`] — the one-call path behind `fires report` and
/// `fires status`.
pub fn report(journal_path: &Path) -> Result<CampaignReport, JobError> {
    let contents = journal::read(journal_path)?;
    let tasks = contents.header.spec.resolve()?;
    report_contents(&contents, &tasks)
}

/// [`report`] over an already-resolved task list.
///
/// `tasks` must be the resolution of the journal's own spec in this
/// build (it is re-verified against the journal header here). Resolution
/// generates every circuit, so callers that already hold one — the
/// runner that just executed the campaign, or `fires serve`'s
/// engine-build cache — pass it in instead of resolving again.
pub fn report_with_tasks(
    journal_path: &Path,
    tasks: &[spec::ResolvedTask],
) -> Result<CampaignReport, JobError> {
    report_contents(&journal::read(journal_path)?, tasks)
}

/// Verifies journal contents already read against `tasks` and merges
/// them, so each report reads its journal once.
fn report_contents(
    contents: &journal::JournalContents,
    tasks: &[spec::ResolvedTask],
) -> Result<CampaignReport, JobError> {
    let engines = runner::build_engines(tasks)?;
    let stems: Vec<usize> = engines.iter().map(|e| e.stems().len()).collect();
    journal::verify_header(&contents.header, tasks, &stems)?;
    Ok(merge::merge(contents, tasks, &engines))
}
