//! FIRES — *Identifying Sequential Redundancies Without Search*
//! (Iyer, Long, Abramovici, DAC 1996), reproduced in Rust.
//!
//! FIRES identifies *c-cycle redundant* stuck-at faults in synchronous
//! sequential circuits without any search. For every fanout stem `s` it
//! runs two *sequential implication* processes — assume `s` uncontrollable
//! for 0, then for 1 — propagating uncontrollability and unobservability
//! indicators through a bounded window of time frames. A fault that appears
//! in both processes **in the same time frame** needs the conflict
//! `s = 0 ∧ s = 1` for detection and is therefore redundant once the
//! machine has been clocked `c_f` times after power-up.
//!
//! The crate exposes:
//!
//! * [`Fires`] — the full sequential algorithm (paper Section 5), with and
//!   without the faulty-circuit validation step of Definition 6;
//! * [`fire`] — the combinational special case (paper Section 2);
//! * [`remove_redundancies`] — redundancy removal with constant sweeping
//!   (the synthesis application of Sections 1 and 7);
//! * the underlying implication engine, reusable for other
//!   testability analyses.
//!
//! # Quick start
//!
//! ```
//! use fires_core::{Fires, FiresConfig};
//! use fires_netlist::bench;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Paper Figure 3: `c1 s-a-1` is 1-cycle redundant.
//! let circuit = bench::parse(
//!     "INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n",
//! )?;
//! let report = Fires::new(&circuit, FiresConfig::default()).run();
//! assert!(report
//!     .redundant_faults()
//!     .iter()
//!     .any(|r| r.fault.display(report.lines(), &circuit).contains("s-a-1")));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod config;
mod engine;
mod envelope;
mod error;
mod fire;
mod fires;
mod guard;
mod hash;
mod instrument;
mod removal;
mod report;
mod window;

pub use cancel::CancelToken;
pub use config::{FiresConfig, ProgressEvent, ValidationPolicy};
pub use engine::{
    DistCache, EngineScratch, EngineStats, Implications, IndicatorView, MarkId, MarkIds, MarkView,
    ProcessScratch, Unc, MARK_FOOTPRINT_BYTES, UNOBS_FOOTPRINT_BYTES,
};
pub use error::CoreError;
// With the `tracing` feature these are the `fires-obs` types; without it,
// no-op stubs with the same API (see `instrument.rs`).
pub use envelope::{funtest_like, EnvelopeReport};
pub use fire::{fire, FireReport};
pub use fires::{Fires, StemCtx, StemCtxBuilder, StemFindings, StemOutcome, StemStats};
pub use guard::{Budget, ExhaustionReason};
pub use hash::{content_hash, splitmix64, ContentHasher};
pub use instrument::{PhaseTimes, RuleProfile, RunMetrics};
pub use removal::{remove_fault, remove_redundancies, sweep_constants, RemovalOutcome};
pub use report::{FiresReport, IdentifiedFault, ProcessTrace};
pub use window::{Frame, Window};
