//! Result types of a FIRES run.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

use fires_netlist::{Circuit, Fault, LineGraph, LineId};

use crate::instrument::{PhaseTimes, RuleProfile, RunMetrics};
use crate::window::Frame;

/// One fault identified by FIRES.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IdentifiedFault {
    /// The identified stuck-at fault.
    pub fault: Fault,
    /// The paper's `c_f`: clocking the faulty circuit `c` times after
    /// power-up makes it indistinguishable from the fault-free circuit.
    /// Only meaningful when the run validated (otherwise the fault is
    /// guaranteed untestable but not necessarily redundant).
    pub c: u32,
    /// The time frame (relative to the stem assumption) in which the
    /// conflict was found.
    pub frame: Frame,
    /// The stem whose conflict identified this fault.
    pub stem: LineId,
}

impl IdentifiedFault {
    /// The canonical merge order between two identifications of the *same*
    /// fault: smaller `c` wins, ties broken by the earlier stem in the
    /// canonical processing order, then by earlier frame. (Stem before
    /// frame matches the historical serial driver, which folded stems in
    /// canonical order and only replaced an entry on a strict `c`
    /// improvement — so the first stem to report the minimal `c` named
    /// the frame.)
    ///
    /// This is a total order, so folding candidates with `wins_over` is
    /// associative and commutative — every grouping of the work (serial,
    /// any thread count, an interrupted-then-resumed campaign) merges to
    /// the identical survivor. [`fold_identified`] is the one fold built
    /// on it; the per-stem dedup, report assembly and the `fires-jobs`
    /// campaign merge all go through it.
    pub fn wins_over(&self, other: &IdentifiedFault) -> bool {
        (self.c, self.stem, self.frame) < (other.c, other.stem, other.frame)
    }
}

/// Folds identification candidates to one entry per fault — the winner
/// under [`IdentifiedFault::wins_over`] — sorted by [`Fault`]. The result
/// does not depend on the order (or repetition) of the candidates.
pub fn fold_identified(
    candidates: impl IntoIterator<Item = IdentifiedFault>,
) -> Vec<IdentifiedFault> {
    let mut best: HashMap<Fault, IdentifiedFault> = HashMap::new();
    for cand in candidates {
        best.entry(cand.fault)
            .and_modify(|e| {
                if cand.wins_over(e) {
                    *e = cand;
                }
            })
            .or_insert(cand);
    }
    let mut folded: Vec<IdentifiedFault> = best.into_values().collect();
    folded.sort_unstable_by_key(|f| f.fault);
    folded
}

/// Human-readable record of one implication process, used to reproduce the
/// paper's Table 1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessTrace {
    /// Uncontrollability indicators per frame: `(frame, line name, value)`.
    pub uncontrollable: Vec<(Frame, String, bool)>,
    /// Unobservable lines per frame: `(frame, line name)`.
    pub unobservable: Vec<(Frame, String)>,
}

/// The complete result of a FIRES run.
#[derive(Clone, Debug)]
pub struct FiresReport<'c> {
    pub(crate) circuit: &'c Circuit,
    pub(crate) lines: LineGraph,
    pub(crate) identified: Vec<IdentifiedFault>,
    pub(crate) validated: bool,
    pub(crate) stems_processed: usize,
    pub(crate) marks_created: usize,
    pub(crate) max_frames_used: usize,
    pub(crate) metrics: RunMetrics,
    pub(crate) phase_times: PhaseTimes,
    pub(crate) profile: RuleProfile,
}

impl<'c> FiresReport<'c> {
    /// The faults FIRES identified, one entry per fault (minimum `c` over
    /// every stem and frame that exposed it).
    pub fn redundant_faults(&self) -> &[IdentifiedFault] {
        &self.identified
    }

    /// Number of identified faults.
    pub fn len(&self) -> usize {
        self.identified.len()
    }

    /// Whether nothing was identified.
    pub fn is_empty(&self) -> bool {
        self.identified.is_empty()
    }

    /// `true` when the run included the validation step, making every
    /// identified fault `c`-cycle *redundant*; `false` when the run only
    /// guarantees untestability.
    pub fn validated(&self) -> bool {
        self.validated
    }

    /// Number of identified faults with `c = 0` (conventional
    /// combinational/sequential redundancies; the paper's `0-cycle`
    /// column).
    pub fn num_zero_cycle(&self) -> usize {
        self.identified.iter().filter(|f| f.c == 0).count()
    }

    /// The largest `c_f` over all identified faults (the paper's `Max. c`
    /// column), or 0 when nothing was identified.
    pub fn max_c(&self) -> u32 {
        self.identified.iter().map(|f| f.c).max().unwrap_or(0)
    }

    /// Histogram of identified faults by `c` value.
    pub fn c_histogram(&self) -> BTreeMap<u32, usize> {
        let mut h = BTreeMap::new();
        for f in &self.identified {
            *h.entry(f.c).or_insert(0) += 1;
        }
        h
    }

    /// The line graph the report's faults refer to.
    pub fn lines(&self) -> &LineGraph {
        &self.lines
    }

    /// Number of fanout stems the run processed.
    pub fn stems_processed(&self) -> usize {
        self.stems_processed
    }

    /// Total uncontrollability marks derived across all processes.
    pub fn marks_created(&self) -> usize {
        self.marks_created
    }

    /// The widest frame window any process used (the paper's `# Fr.`).
    pub fn max_frames_used(&self) -> usize {
        self.max_frames_used
    }

    /// Wall-clock time of the run. Always equals
    /// [`phase_times`](Self::phase_times)`.total` — both come from the
    /// same clock, so the headline time and the per-phase breakdown can
    /// never disagree.
    pub fn elapsed(&self) -> Duration {
        self.phase_times.total
    }

    /// Per-phase wall-clock breakdown of the run (implication,
    /// unobservability, validation). With the `tracing` feature disabled
    /// only the total is populated. With more than one worker thread the
    /// phases are summed across workers and may exceed the wall-clock
    /// total.
    pub fn phase_times(&self) -> &PhaseTimes {
        &self.phase_times
    }

    /// Metrics recorded during the run (counters, maxima, histograms).
    /// Empty (a no-op stub) when the `tracing` feature is disabled.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The per-rule hotspot profile merged across every processed stem.
    /// Empty (a no-op stub) when the `tracing` feature is disabled.
    pub fn profile(&self) -> &RuleProfile {
        &self.profile
    }

    /// Assembles a schema-versioned machine-readable run report: the run
    /// metrics, phase times and per-rule hotspot profile plus headline
    /// results (fault counts, `c` histogram) under `extra`.
    #[cfg(feature = "tracing")]
    pub fn run_report(&self, tool: &str, subject: &str) -> fires_obs::RunReport {
        let mut r = fires_obs::RunReport::new(tool, subject);
        r.set_phase_times(&self.phase_times);
        r.metrics = self.metrics.clone();
        r.profile = (!self.profile.is_empty()).then(|| self.profile.clone());
        r.set_extra("identified_faults", self.len() as u64);
        r.set_extra("zero_cycle", self.num_zero_cycle() as u64);
        r.set_extra("max_c", u64::from(self.max_c()));
        r.set_extra("validated", self.validated);
        r.set_extra("stems_processed", self.stems_processed as u64);
        let mut hist = fires_obs::Json::object();
        for (c, n) in self.c_histogram() {
            hist.set(c.to_string(), n as u64);
        }
        r.set_extra("c_histogram", hist);
        r
    }

    /// Pretty, deterministic listing of the identified faults.
    pub fn display_faults(&self) -> Vec<String> {
        let mut rows: Vec<String> = self
            .identified
            .iter()
            .map(|f| {
                format!(
                    "{} (c = {})",
                    f.fault.display(&self.lines, self.circuit),
                    f.c
                )
            })
            .collect();
        rows.sort();
        rows
    }
}

impl fmt::Display for FiresReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FIRES: {} {} fault(s), 0-cycle {}, max c {}, {} stems, {:.3}s",
            self.len(),
            if self.validated {
                "c-cycle redundant"
            } else {
                "untestable"
            },
            self.num_zero_cycle(),
            self.max_c(),
            self.stems_processed,
            self.phase_times.total.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use fires_netlist::StuckValue;
    use proptest::prelude::*;

    use super::*;

    fn candidates(raw: &[(usize, bool, u32, i32, usize)]) -> Vec<IdentifiedFault> {
        raw.iter()
            .map(|&(line, stuck, c, frame, stem)| IdentifiedFault {
                fault: Fault::new(LineId::new(line), StuckValue::from_bool(stuck)),
                c,
                frame,
                stem: LineId::new(stem),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// Shuffled or duplicated candidate lists fold to the same list:
        /// one entry per fault, the `wins_over` minimum, sorted by fault.
        #[test]
        fn fold_identified_ignores_order_and_repetition(
            raw in proptest::collection::vec((0usize..6, 0u8..2, 0u32..4, -3i32..3, 0usize..5), 0..40),
            shuffle_seed in 0u64..u64::MAX,
            dup_from in 0usize..40,
        ) {
            let raw: Vec<_> = raw
                .into_iter()
                .map(|(line, stuck, c, frame, stem)| (line, stuck == 1, c, frame, stem))
                .collect();
            let cands = candidates(&raw);
            let folded = fold_identified(cands.iter().copied());

            let mut shuffled = cands.clone();
            let mut state = shuffle_seed;
            for i in (1..shuffled.len()).rev() {
                state = crate::splitmix64(state);
                shuffled.swap(i, (state % (i as u64 + 1)) as usize);
            }
            shuffled.extend_from_slice(&cands[dup_from.min(cands.len())..]);
            prop_assert_eq!(fold_identified(shuffled), folded.clone());

            // The oracle: the (c, stem, frame) minimum of each fault.
            let mut faults: Vec<Fault> = cands.iter().map(|f| f.fault).collect();
            faults.sort_unstable();
            faults.dedup();
            let expected: Vec<IdentifiedFault> = faults
                .iter()
                .map(|&fault| {
                    *cands
                        .iter()
                        .filter(|f| f.fault == fault)
                        .min_by_key(|f| (f.c, f.stem, f.frame))
                        .unwrap()
                })
                .collect();
            prop_assert_eq!(folded, expected);
        }
    }
}
