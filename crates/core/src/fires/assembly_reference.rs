//! The fault-set assembly as it was before the bitset rewrite, kept as
//! the oracle of an equivalence property: each process's accepted entries
//! go into a `HashMap<(Fault, Frame), Support>`, one map is probed with
//! the other, and the metrics are recorded once per candidate.
//! `collect_fault_sets` and the intersection loop are copied unchanged.
//!
//! The property runs every stem of a random sequential circuit (with the
//! dead logic the generator leaves behind) through [`Fires::run_stem`]
//! and through this reference, with validation on and off under both
//! [`ValidationPolicy`] values, and compares the faults, `faults_found`,
//! marks, frames and the assembly's metrics.

use fires_circuits::generators::{random_sequential, RandomConfig};
use proptest::prelude::*;

use super::*;

/// Support info for one fault membership in a per-frame fault set.
#[derive(Clone, Copy, Debug)]
struct Support {
    /// Leftmost frame where uncontrollability must propagate.
    min_unc_frame: Frame,
}

impl Fires<'_> {
    /// Section 5.2: assemble the per-frame fault sets `S_v^i` from the
    /// process's indicators, applying validation if configured. Returns
    /// `None` if `cancel` fired mid-assembly.
    fn collect_fault_sets(
        &self,
        imp: &Implications<'_>,
        forced_cache: &mut ForcedCache,
        metrics: &mut RunMetrics,
        cancel: &CancelToken,
    ) -> Option<HashMap<(Fault, Frame), Support>> {
        let mut sets: HashMap<(Fault, Frame), Support> = HashMap::new();
        let mut validity = ValidityCache::default();
        let mut since_poll = 0u32;
        let add = |sets: &mut HashMap<(Fault, Frame), Support>,
                   fault: Fault,
                   frame: Frame,
                   sup: Support| {
            sets.entry((fault, frame))
                .and_modify(|e| e.min_unc_frame = e.min_unc_frame.max(sup.min_unc_frame))
                .or_insert(sup);
        };

        // Uncontrollable faults: a line that can never be v hosts an
        // unactivatable stuck-at: 0-bar -> s-a-1, 1-bar -> s-a-0.
        for id in imp.mark_ids() {
            since_poll += 1;
            if since_poll >= VALIDATION_POLL_STRIDE {
                since_poll = 0;
                if cancel.is_cancelled() {
                    return None;
                }
            }
            let m = imp.mark(id);
            let stuck = match m.unc {
                Unc::Zero => StuckValue::One,
                Unc::One => StuckValue::Zero,
            };
            let fault = Fault::new(m.line, stuck);
            if self.config.validate && !validity.valid(self, imp, forced_cache, fault, m.frame, id)
            {
                metrics.incr("core.validation_rejects", 1);
                continue;
            }
            metrics.incr("core.validation_accepts", 1);
            add(
                &mut sets,
                fault,
                m.frame,
                Support {
                    min_unc_frame: m.min_frame,
                },
            );
        }

        // Unobservable faults: both stuck values, provided every blame
        // indicator survives in the faulty circuit. Iterated in sorted
        // (line, frame) order — the engine yields frame-major order, and
        // the validity cache's sweep cap means iteration order could
        // otherwise decide *which* candidates are conservatively dropped
        // once the cap is hit. Sorting makes the fault sets a pure
        // function of the process, which the deterministic-merge
        // guarantee rests on.
        let mut unobs: Vec<(LineId, Frame, &[MarkId])> = imp.unobs_iter().collect();
        unobs.sort_unstable_by_key(|&(line, frame, _)| (line, frame));
        for (line, frame, blame) in unobs {
            since_poll += 1;
            if since_poll >= VALIDATION_POLL_STRIDE {
                since_poll = 0;
                if cancel.is_cancelled() {
                    return None;
                }
            }
            metrics.observe("core.blame_set_size", blame.len() as u64);
            for stuck in [StuckValue::Zero, StuckValue::One] {
                let fault = Fault::new(line, stuck);
                if self.config.validate
                    && !blame
                        .iter()
                        .all(|&b| validity.valid(self, imp, forced_cache, fault, frame, b))
                {
                    metrics.incr("core.validation_rejects", 1);
                    continue;
                }
                metrics.incr("core.validation_accepts", 1);
                let min_unc_frame = blame
                    .iter()
                    .map(|&b| imp.min_frame_of(b))
                    .min()
                    .unwrap_or(frame);
                add(&mut sets, fault, frame, Support { min_unc_frame });
            }
        }
        Some(sets)
    }
}

/// What the reference assembly derives for one stem. The metric fields
/// are compared only when the `tracing` feature records metrics.
#[cfg_attr(not(feature = "tracing"), allow(dead_code))]
struct Reference {
    faults: Vec<IdentifiedFault>,
    found: usize,
    marks: usize,
    frames: usize,
    /// Unobservability indicators of both processes.
    unobs: usize,
    metrics: RunMetrics,
}

fn reference_stem(fires: &Fires<'_>, stem: LineId) -> Reference {
    let (p0, p1) = fires.analyze_stem(stem);
    let never = CancelToken::never();
    let mut forced = ForcedCache::default();
    let mut metrics = RunMetrics::new();
    let s0 = fires
        .collect_fault_sets(&p0, &mut forced, &mut metrics, &never)
        .expect("never cancelled");
    let s1 = fires
        .collect_fault_sets(&p1, &mut forced, &mut metrics, &never)
        .expect("never cancelled");

    let mut found = 0usize;
    // fold_identified's total order makes the result independent of
    // this HashMap's iteration order.
    let faults = fold_identified(s0.iter().filter_map(|(&(fault, frame), sup0)| {
        let sup1 = s1.get(&(fault, frame))?;
        let l = sup0.min_unc_frame.min(sup1.min_unc_frame);
        found += 1;
        Some(IdentifiedFault {
            fault,
            c: if l < frame { (frame - l) as u32 } else { 0 },
            frame,
            stem,
        })
    }));
    metrics.incr("core.faults_found", found as u64);
    Reference {
        faults,
        found,
        marks: p0.num_marks() + p1.num_marks(),
        frames: p0.window().len().max(p1.window().len()),
        unobs: p0.unobs_iter().count() + p1.unobs_iter().count(),
        metrics,
    }
}

/// A small random sequential circuit. One or two outputs over up to 34
/// gates leave most cases with dead logic: lines with no path to an
/// output, unobservable with an empty blame set in every frame.
fn random_case(seed: u64) -> Circuit {
    random_sequential(&RandomConfig {
        seed,
        inputs: 1 + (seed % 4) as usize,
        gates: 6 + (seed % 29) as usize,
        ffs: (seed % 5) as usize,
        outputs: 1 + (seed % 2) as usize,
        fig3: (seed % 2) as usize,
        chains: ((seed % 2) as usize, 1 + (seed % 3) as usize),
        conflicts: (seed % 2) as usize,
    })
}

fn config(frames: usize, validate: bool, earlier_frames: bool) -> FiresConfig {
    let mut config = FiresConfig::with_max_frames(frames);
    config.validate = validate;
    config.validation_policy = if earlier_frames {
        ValidationPolicy::EarlierFrames
    } else {
        ValidationPolicy::AnyFrame
    };
    config
}

/// Runs every stem of `circuit` both ways and compares them.
fn assert_matches_reference(circuit: &Circuit, config: FiresConfig) -> Result<(), TestCaseError> {
    let fires = Fires::new(circuit, config);
    let never = CancelToken::never();
    let mut ctx = StemCtx::new();
    for stem in fires.stems() {
        let new = fires
            .run_stem(stem, &mut ctx, &never)
            .expect("a fanout stem")
            .into_findings();
        let old = reference_stem(&fires, stem);
        prop_assert_eq!(&new.faults, &old.faults, "stem {:?}", stem);
        prop_assert_eq!(new.faults_found, old.found);
        prop_assert_eq!(new.marks, old.marks);
        prop_assert_eq!(new.frames_used, old.frames);
        #[cfg(feature = "tracing")]
        {
            use fires_obs::names::{VALIDATION_ACCEPTS, VALIDATION_REJECTS};
            let (m, r) = (&new.metrics, &old.metrics);
            prop_assert_eq!(
                m.counter("core.faults_found"),
                r.counter("core.faults_found")
            );
            prop_assert_eq!(
                m.histogram("core.blame_set_size"),
                r.histogram("core.blame_set_size")
            );
            if config.validate {
                prop_assert_eq!(m.counter(VALIDATION_ACCEPTS), r.counter(VALIDATION_ACCEPTS));
                prop_assert_eq!(m.counter(VALIDATION_REJECTS), r.counter(VALIDATION_REJECTS));
            } else {
                // Nothing was validated, so nothing is counted as such.
                prop_assert_eq!(m.counter(VALIDATION_ACCEPTS), 0);
                prop_assert_eq!(m.counter(VALIDATION_REJECTS), 0);
            }
            prop_assert_eq!(
                r.counter(VALIDATION_ACCEPTS) + r.counter(VALIDATION_REJECTS),
                (old.marks + 2 * old.unobs) as u64
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn bitset_assembly_matches_the_map_reference(
        seed in 0u64..10_000,
        frames in 1usize..6,
        validate in 0u8..2,
        earlier_frames in 0u8..2,
    ) {
        let circuit = random_case(seed);
        assert_matches_reference(&circuit, config(frames, validate == 1, earlier_frames == 1))?;
    }
}

/// The property's cases do exercise dead logic: most of the generated
/// circuits have lines that are unobservable with an empty blame set.
#[test]
fn reference_cases_include_dead_logic() {
    let with_dead_logic = (0..16u64)
        .filter(|&seed| {
            let circuit = random_case(seed);
            let fires = Fires::new(&circuit, FiresConfig::with_max_frames(3));
            fires.stems().into_iter().any(|stem| {
                let (p0, _) = fires.analyze_stem(stem);
                let dead = p0.unobs_iter().any(|(_, _, blame)| blame.is_empty());
                dead
            })
        })
        .count();
    assert!(with_dead_logic >= 8, "only {with_dead_logic} of 16 cases");
}
