//! Configuration of the FIRES analysis.

/// How strictly Definition 6 is applied when checking that an implication
/// chain survives in the faulty circuit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ValidationPolicy {
    /// Reject a derivation that relies on an indicator contradicting the
    /// fault in *any* time frame. Strictly conservative: it can only drop
    /// candidate faults relative to the paper's rule, never admit extra
    /// ones.
    #[default]
    AnyFrame,
    /// The paper's literal rule: reject only indicators contradicting the
    /// fault in frames *earlier* than the frame being validated.
    EarlierFrames,
}

/// Tuning knobs for [`Fires`](crate::Fires).
///
/// The defaults mirror the paper's experimental setup: up to 15 time
/// frames, validation enabled, fanout stems only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FiresConfig {
    /// Maximum number of time frames a single implication process may span
    /// (`T_M` in the paper, forward + backward + 1). The paper uses at most
    /// 15 and fewer for large circuits.
    pub max_frames: usize,
    /// Run the faulty-circuit validation step (Section 5.2). With it,
    /// identified faults are `c`-cycle *redundant*; without it they are
    /// only guaranteed *untestable* — and the analysis is faster.
    pub validate: bool,
    /// Validation strictness; ignored when `validate` is false.
    pub validation_policy: ValidationPolicy,
    /// Upper bound on the size of an unobservability blame set. When the
    /// union of blocking indicators would exceed the cap the engine
    /// conservatively refuses to propagate the mark.
    pub blame_cap: usize,
    /// Cap on uncontrollability marks per stem process; a safety valve for
    /// stems whose assumption saturates the circuit (e.g. an always-true
    /// indicator spreading through every frame). Exceeding it stops that
    /// process early — still sound, some indicators are simply missing.
    pub mark_budget: usize,
}

impl Default for FiresConfig {
    fn default() -> Self {
        FiresConfig {
            max_frames: 15,
            validate: true,
            validation_policy: ValidationPolicy::AnyFrame,
            blame_cap: 64,
            mark_budget: 50_000,
        }
    }
}

impl FiresConfig {
    /// A configuration with `T_M = max_frames` and everything else default.
    pub fn with_max_frames(max_frames: usize) -> Self {
        FiresConfig {
            max_frames,
            ..FiresConfig::default()
        }
    }

    /// Disables the validation step (the paper's "FIRES without
    /// validation" mode, reporting untestable faults).
    pub fn without_validation(mut self) -> Self {
        self.validate = false;
        self
    }

    /// Validates the configuration, returning a typed error instead of
    /// relying on downstream clamping or immediate truncation.
    ///
    /// Used by [`Fires::try_new`](crate::Fires::try_new); the infallible
    /// constructors keep their historical clamping behaviour.
    pub fn check(&self) -> Result<(), crate::CoreError> {
        if self.max_frames == 0 {
            return Err(crate::CoreError::InvalidConfig {
                message: "max_frames must be at least 1".into(),
            });
        }
        if self.mark_budget == 0 {
            return Err(crate::CoreError::InvalidConfig {
                message: "mark_budget must be at least 1 (0 would truncate every process \
                          before the stem assumption is recorded)"
                    .into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = FiresConfig::default();
        assert_eq!(c.max_frames, 15);
        assert!(c.validate);
        assert_eq!(c.validation_policy, ValidationPolicy::AnyFrame);
    }

    #[test]
    fn builders() {
        let c = FiresConfig::with_max_frames(5).without_validation();
        assert_eq!(c.max_frames, 5);
        assert!(!c.validate);
    }

    #[test]
    fn check_rejects_degenerate_configs() {
        assert!(FiresConfig::default().check().is_ok());
        assert!(FiresConfig::with_max_frames(0).check().is_err());
        let c = FiresConfig {
            mark_budget: 0,
            ..FiresConfig::default()
        };
        assert!(c.check().is_err());
    }
}
