//! Internal facade over `fires-obs`, compiled away without the `tracing`
//! feature.
//!
//! The rest of the crate records metrics, splits phase timings and
//! attributes implication steps to rules unconditionally through the
//! types and the `core_profile!` macro defined here. With the
//! (default-on) `tracing` feature these are the real `fires-obs`
//! implementations; with `--no-default-features` they become no-op stubs
//! — `fires-core` then has no dependencies beyond `fires-netlist` and the
//! instrumentation costs nothing, while every call site stays identical.

#[cfg(feature = "tracing")]
pub use fires_obs::{PhaseClock, PhaseTimes, ProfileRule, RuleProfile, RuleSteps, RunMetrics};

/// Records one application of a named implication rule into a
/// [`RuleProfile`] (no-op without the `tracing` feature). The rule is
/// named by its `ProfileRule` variant so untraced builds never even name
/// the enum: the whole call vanishes.
#[cfg(feature = "tracing")]
macro_rules! core_profile {
    ($profile:expr, $rule:ident) => {
        $profile.record($crate::instrument::ProfileRule::$rule)
    };
    ($profile:expr, $rule:ident, $n:expr) => {
        $profile.record_many($crate::instrument::ProfileRule::$rule, $n)
    };
}

#[cfg(not(feature = "tracing"))]
macro_rules! core_profile {
    ($profile:expr, $rule:ident) => {{
        let _ = &$profile;
    }};
    ($profile:expr, $rule:ident, $n:expr) => {{
        let _ = &$profile;
        let _ = || $n;
    }};
}

pub(crate) use core_profile;

#[cfg(not(feature = "tracing"))]
mod stub {
    use std::time::{Duration, Instant};

    /// No-op stand-in for `fires_obs::RunMetrics`.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct RunMetrics;

    impl RunMetrics {
        /// An empty registry.
        pub fn new() -> Self {
            RunMetrics
        }

        /// Discards a counter increment.
        #[inline(always)]
        pub fn incr(&mut self, _name: &str, _by: u64) {}

        /// Discards a maximum update.
        #[inline(always)]
        pub fn set_max(&mut self, _name: &str, _v: u64) {}

        /// Discards a histogram observation.
        #[inline(always)]
        pub fn observe(&mut self, _name: &str, _v: u64) {}

        /// Discards a bulk histogram observation.
        #[inline(always)]
        pub fn observe_n(&mut self, _name: &str, _v: u64, _n: u64) {}

        /// Merging nothing into nothing.
        #[inline(always)]
        pub fn merge(&mut self, _other: &RunMetrics) {}
    }

    /// Total-only stand-in for `fires_obs::PhaseClock`: it still measures
    /// the run's wall-clock total (so `FiresReport::elapsed` keeps
    /// working) but records no per-phase breakdown.
    #[derive(Clone, Debug)]
    pub struct PhaseClock {
        started: Instant,
    }

    // Kept API-identical to the real PhaseClock even where this crate
    // does not currently call every method.
    #[allow(dead_code)]
    impl PhaseClock {
        /// Starts the run clock.
        pub fn start() -> Self {
            PhaseClock {
                started: Instant::now(),
            }
        }

        /// Discards the phase switch.
        #[inline(always)]
        pub fn enter(&mut self, _name: &str) {}

        /// Discards the phase end.
        #[inline(always)]
        pub fn exit(&mut self) {}

        /// Runs `f` without attribution.
        #[inline(always)]
        pub fn phase<T>(&mut self, _name: &str, f: impl FnOnce() -> T) -> T {
            f()
        }

        /// Discards an externally measured duration.
        #[inline(always)]
        pub fn add(&mut self, _name: &str, _d: Duration) {}

        /// Wall-clock time since [`start`](Self::start).
        pub fn total(&self) -> Duration {
            self.started.elapsed()
        }

        /// Stops the clock; only the total survives.
        pub fn finish(self) -> PhaseTimes {
            PhaseTimes {
                total: self.started.elapsed(),
                phases: Vec::new(),
            }
        }
    }

    /// Total-only stand-in for `fires_obs::PhaseTimes`.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct PhaseTimes {
        /// Wall-clock time from `start()` to `finish()`.
        pub total: Duration,
        /// Always empty in the stub.
        pub phases: Vec<(String, Duration)>,
    }

    impl PhaseTimes {
        /// Always zero in the stub.
        pub fn of(&self, _name: &str) -> Duration {
            Duration::ZERO
        }

        /// Equals `total` in the stub (nothing is attributed).
        pub fn unattributed(&self) -> Duration {
            self.total
        }
    }

    /// No-op stand-in for `fires_obs::RuleSteps`, the engine's embedded
    /// hot-path step table. Rule recording goes through the
    /// `core_profile!` macro (which compiles to nothing here), so only
    /// the rule-free surface needs mirroring.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RuleSteps;

    impl RuleSteps {
        /// Discards an unattributed step.
        #[inline(always)]
        pub fn note_unattributed(&mut self) {}
    }

    impl From<RuleSteps> for RuleProfile {
        fn from(_: RuleSteps) -> RuleProfile {
            RuleProfile
        }
    }

    /// No-op stand-in for `fires_obs::RuleProfile`. Rule recording goes
    /// through the `core_profile!` macro (which compiles to nothing
    /// here), so only the rule-free surface needs mirroring.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct RuleProfile;

    // Kept API-identical to the real RuleProfile even where this crate
    // does not currently call every method.
    #[allow(dead_code)]
    impl RuleProfile {
        /// An empty table.
        pub fn new() -> Self {
            RuleProfile
        }

        /// Discards an unattributed step.
        #[inline(always)]
        pub fn note_unattributed(&mut self) {}

        /// Discards a cache lookup.
        #[inline(always)]
        pub fn record_dist_cache(&mut self, _hit: bool) {}

        /// Discards externally counted cache lookups.
        #[inline(always)]
        pub fn add_dist_cache(&mut self, _hits: u64, _misses: u64) {}

        /// Discards a frame offset.
        #[inline(always)]
        pub fn record_frame_offset(&mut self, _offset: u64) {}

        /// Discards a blame-set size.
        #[inline(always)]
        pub fn record_blame_size(&mut self, _size: u64) {}

        /// Discards the apportionment.
        #[inline(always)]
        pub fn apportion_nanos(&mut self, _total_nanos: u64) {}

        /// Merging nothing into nothing.
        #[inline(always)]
        pub fn merge(&mut self, _other: &RuleProfile) {}

        /// Always `true` in the stub.
        pub fn is_empty(&self) -> bool {
            true
        }

        /// Always zero in the stub.
        pub fn total_steps(&self) -> u64 {
            0
        }

        /// Nothing to export in the stub.
        #[inline(always)]
        pub fn export_counters(&self, _metrics: &mut RunMetrics) {}
    }
}

#[cfg(not(feature = "tracing"))]
pub use stub::{PhaseClock, PhaseTimes, RuleProfile, RuleSteps, RunMetrics};
