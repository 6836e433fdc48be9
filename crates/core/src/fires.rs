//! The FIRES driver (paper Section 5.3, Figure 6).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use fires_netlist::{Circuit, Fault, GateKind, LineGraph, LineId, StuckValue};

use crate::cancel::CancelToken;
use crate::engine::{DistCache, EngineScratch, Implications, IndicatorView, MarkId, Unc};
use crate::error::CoreError;
use crate::guard::{Budget, BudgetMeter, ExhaustionReason};
use crate::instrument::{PhaseClock, PhaseTimes, RuleProfile, RunMetrics};
use crate::report::{fold_identified, FiresReport, IdentifiedFault, ProcessTrace};
use crate::window::{Frame, Window};
use crate::{FiresConfig, ValidationPolicy};

/// How many validation-loop entries pass between cancellation polls in
/// [`Fires::run_stem`]'s fault-set assembly.
const VALIDATION_POLL_STRIDE: u32 = 256;

/// Phase names used by the driver's [`PhaseClock`]; the same strings
/// appear in `FiresReport::phase_times` and in JSON run reports.
pub(crate) mod phase {
    /// Uncontrollability fixpoint (paper Section 5.1).
    pub const IMPLICATION: &str = "implication";
    /// Unobservability fixpoint (paper Section 5.1).
    pub const UNOBSERVABILITY: &str = "unobservability";
    /// Fault-set assembly and Definition-6 validation (Section 5.2).
    pub const VALIDATION: &str = "validation";
}

/// Reusable per-worker scratch state for stem-granular runs: the shared
/// flip-flop-distance cache, the per-fault forced-line closures, and the
/// implication engines' allocation pool ([`EngineScratch`]). The caches
/// are circuit-static memoizations and the scratch is pure allocation
/// reuse — sharing one `StemCtx` across many [`Fires::run_stem`] calls
/// only changes speed, never results.
///
/// Not `Send` (the closures are `Rc`-shared); give each worker thread its
/// own. After catching a panic from `run_stem`, drop the context and start
/// a fresh one — a cache mid-mutation at unwind time must not be reused.
///
/// The context also carries the [`Budget`] applied to each
/// [`Fires::run_stem`] call (unlimited by default). Budgets bound *effort*,
/// not results: two runs of the same stem under the same budget produce
/// identical outcomes, cache and scratch reuse included.
///
/// Construct via [`StemCtx::new`] or, when setting fields, the builder:
///
/// ```
/// use fires_core::{Budget, StemCtx};
/// let ctx = StemCtx::builder()
///     .budget(Budget::unlimited().with_max_steps(10_000))
///     .build();
/// assert_eq!(ctx.budget().max_steps, Some(10_000));
/// ```
#[derive(Default)]
pub struct StemCtx {
    cache: DistCache,
    forced: ForcedCache,
    budget: Budget,
    scratch: EngineScratch,
}

impl StemCtx {
    /// Creates an empty context with an unlimited budget.
    pub fn new() -> Self {
        StemCtx::default()
    }

    /// Starts building a context field by field. Prefer this over
    /// positional constructors: new fields (like the engine scratch) get
    /// defaults without breaking existing call sites.
    pub fn builder() -> StemCtxBuilder {
        StemCtxBuilder::default()
    }

    /// Creates an empty context that applies `budget` to every
    /// [`Fires::run_stem`] call made through it.
    pub fn with_budget(budget: Budget) -> Self {
        StemCtx {
            budget,
            ..StemCtx::default()
        }
    }

    /// Replaces the per-stem budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The budget applied to each stem run through this context.
    pub fn budget(&self) -> Budget {
        self.budget
    }
}

/// Builder for [`StemCtx`]; see [`StemCtx::builder`].
#[derive(Default)]
pub struct StemCtxBuilder {
    budget: Budget,
    scratch: EngineScratch,
}

impl StemCtxBuilder {
    /// Sets the [`Budget`] applied to every stem run (default: unlimited).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Seeds the engine allocation pool, e.g. one reclaimed from another
    /// context (default: empty — allocations grow on first use).
    pub fn scratch(mut self, scratch: EngineScratch) -> Self {
        self.scratch = scratch;
        self
    }

    /// Finishes the context.
    pub fn build(self) -> StemCtx {
        StemCtx {
            cache: DistCache::new(),
            forced: ForcedCache::default(),
            budget: self.budget,
            scratch: self.scratch,
        }
    }
}

/// Everything one stem's two implication processes produced: the unit of
/// work that `fires-jobs` schedules, journals and merges.
#[derive(Clone, Debug)]
pub struct StemFindings {
    /// The processed fanout stem.
    pub stem: LineId,
    /// Identified faults, one entry per fault (minimum `(c, frame)` for
    /// this stem), sorted by `(line, stuck)` — a deterministic function of
    /// (circuit, config, stem), independent of thread placement or cache
    /// reuse.
    pub faults: Vec<IdentifiedFault>,
    /// Fault-set memberships before per-fault dedup (the paper's `S_0 ∩
    /// S_1` hits; feeds `StemOutcome::faults_found`).
    pub faults_found: usize,
    /// Uncontrollability marks derived by the two processes.
    pub marks: usize,
    /// Frames spanned by the wider of the two processes.
    pub frames_used: usize,
    /// Metrics recorded while processing this stem (a no-op stub without
    /// the `tracing` feature).
    pub metrics: RunMetrics,
    /// Per-phase wall-clock breakdown for this stem.
    pub phase_times: PhaseTimes,
    /// `Some` when a [`Budget`] limit stopped this stem's implication work
    /// early. The faults above are then *partial and non-final*: sound
    /// indicators, but an incomplete fault-set intersection —
    /// [`Fires::assemble_report`] excludes them from the merged redundancy
    /// claims, and so must any other consumer (`fires-jobs` journals such
    /// units as `exhausted`).
    pub exhausted: Option<ExhaustionReason>,
    /// Per-rule hotspot attribution for this stem. Step counts, frame
    /// offsets and blame sizes are deterministic; the apportioned nanos
    /// and distance-cache hit counts depend on timing and cache sharing.
    /// Always empty without the `tracing` feature.
    pub profile: RuleProfile,
}

/// What [`Fires::run_stem`] produced for one stem: either complete
/// findings, or partial findings cut short by the [`Budget`] carried in
/// the [`StemCtx`]. Exhaustion is the graceful-degradation path — unlike
/// [`CoreError::Interrupted`] it is not an error, and unlike a plain
/// truncation the partial faults must not back redundancy claims.
#[derive(Clone, Debug)]
pub enum StemOutcome {
    /// The stem ran to fixpoint within budget; findings are final.
    Complete(StemFindings),
    /// A budget limit tripped. `partial` holds everything derived before
    /// the trip (already flagged via
    /// [`StemFindings::exhausted`]); sound but non-final.
    Exhausted {
        /// The partial findings (kept, flagged non-final).
        partial: StemFindings,
        /// Which limit tripped.
        reason: ExhaustionReason,
    },
}

impl StemOutcome {
    /// The findings, complete or partial.
    pub fn findings(&self) -> &StemFindings {
        match self {
            StemOutcome::Complete(f) => f,
            StemOutcome::Exhausted { partial, .. } => partial,
        }
    }

    /// Consumes the outcome, returning the findings (which still carry
    /// the exhaustion flag when partial).
    pub fn into_findings(self) -> StemFindings {
        match self {
            StemOutcome::Complete(f) => f,
            StemOutcome::Exhausted { partial, .. } => partial,
        }
    }

    /// `true` for [`StemOutcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, StemOutcome::Complete(_))
    }

    /// The tripped budget limit, if any.
    pub fn exhaustion(&self) -> Option<ExhaustionReason> {
        match self {
            StemOutcome::Complete(_) => None,
            StemOutcome::Exhausted { reason, .. } => Some(*reason),
        }
    }
}

/// The FIRES algorithm: fault-independent identification of c-cycle
/// sequential redundancies without search.
///
/// ```text
/// FIRES(T_M):
///   for every stem s:
///     sequentially imply s = 0̄  -> fault sets S_0^i
///     sequentially imply s = 1̄  -> fault sets S_1^i
///     every fault in S_0^i ∩ S_1^i is c_f-cycle redundant
/// ```
///
/// # Example
///
/// ```
/// use fires_core::{Fires, FiresConfig};
/// use fires_netlist::bench;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = bench::parse(
///     "INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n",
/// )?;
/// let report = Fires::new(&circuit, FiresConfig::default()).run();
/// // The paper's Example 2 fault (c1 s-a-1) is found as 1-cycle redundant.
/// let c1_sa1 = report
///     .redundant_faults()
///     .iter()
///     .find(|f| f.fault.display(report.lines(), &circuit) == "c->d.1 s-a-1")
///     .expect("Example 2 fault identified");
/// assert_eq!(c1_sa1.c, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Fires<'c> {
    circuit: &'c Circuit,
    lines: LineGraph,
    config: FiresConfig,
}

impl<'c> Fires<'c> {
    /// Prepares a FIRES run over `circuit`.
    pub fn new(circuit: &'c Circuit, config: FiresConfig) -> Self {
        Fires {
            circuit,
            lines: LineGraph::build(circuit),
            config,
        }
    }

    /// Like [`new`](Self::new) but rejects degenerate configurations with
    /// a typed error instead of clamping them, so embedders that accept
    /// config from users (the `fires` CLI) can report mistakes properly.
    pub fn try_new(circuit: &'c Circuit, config: FiresConfig) -> Result<Self, CoreError> {
        config.check()?;
        Ok(Fires::new(circuit, config))
    }

    /// The line decomposition used by the run.
    pub fn lines(&self) -> &LineGraph {
        &self.lines
    }

    /// The circuit under analysis.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The fanout stems this run processes, in the engine's canonical
    /// order (ascending node id; see
    /// [`LineGraph::fanout_stems`](fires_netlist::LineGraph::fanout_stems)).
    /// Stable across processes for a structurally identical circuit, which
    /// is what lets `fires-jobs` journal work units as indices into this
    /// sequence and resume them in another process.
    pub fn stems(&self) -> Vec<LineId> {
        self.lines.fanout_stems(self.circuit).collect()
    }

    /// Processes a single fanout stem: the resumable, cancellable,
    /// budget-bounded unit of work underlying campaign orchestration.
    ///
    /// The result is a deterministic function of (circuit, config, stem,
    /// [`StemCtx::budget`]): independent of which thread runs it, of `ctx`
    /// cache reuse, and of any other stem. `cancel` is polled at
    /// fixpoint-loop granularity; when it fires the partial work is
    /// discarded and [`CoreError::Interrupted`] is returned. A tripped
    /// budget, by contrast, is a success value: the partial findings come
    /// back in [`StemOutcome::Exhausted`], kept but flagged non-final.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotAFanoutStem`] if `stem` is not one of
    /// [`stems`](Self::stems); [`CoreError::Interrupted`] if `cancel`
    /// fired mid-run.
    pub fn run_stem(
        &self,
        stem: LineId,
        ctx: &mut StemCtx,
        cancel: &CancelToken,
    ) -> Result<StemOutcome, CoreError> {
        let is_fanout_stem = stem.index() < self.lines.num_lines() && {
            let line = self.lines.line(stem);
            line.is_stem() && !line.branches().is_empty()
        };
        if !is_fanout_stem {
            return Err(CoreError::NotAFanoutStem { line: stem });
        }
        let findings = self.process_stem(stem, ctx, cancel)?;
        Ok(match findings.exhausted {
            None => StemOutcome::Complete(findings),
            Some(reason) => StemOutcome::Exhausted {
                partial: findings,
                reason,
            },
        })
    }

    /// Merges per-stem findings (from [`run_stem`](Self::run_stem), in any
    /// order and from any mix of fresh and replayed work) into a full
    /// [`FiresReport`]. The faults go through [`fold_identified`], so the
    /// identified-fault list is byte-identical however the findings were
    /// partitioned — the property `fires-jobs` builds on.
    ///
    /// Findings flagged [`exhausted`](StemFindings::exhausted) contribute
    /// their statistics (marks, frames, metrics, profile) but **never** their
    /// faults: a budget-cut stem's fault sets are non-final and must not
    /// back the report's redundancy claims.
    pub fn assemble_report(&self, findings: Vec<StemFindings>) -> FiresReport<'c> {
        self.assemble(&findings, PhaseClock::start())
    }

    /// [`assemble_report`](Self::assemble_report) under a clock the
    /// caller started, so a whole run's `elapsed()` covers its stems.
    fn assemble(&self, findings: &[StemFindings], mut clock: PhaseClock) -> FiresReport<'c> {
        let identified = fold_identified(
            findings
                .iter()
                .filter(|f| f.exhausted.is_none())
                .flat_map(|f| f.faults.iter().copied()),
        );
        let mut metrics = RunMetrics::new();
        let mut profile = RuleProfile::new();
        let mut max_frames = 1usize;
        for f in findings {
            max_frames = max_frames.max(f.frames_used);
            // Already holds `core.exhausted_stems` for a budget-cut stem,
            // so it is not counted again here.
            metrics.merge(&f.metrics);
            profile.merge(&f.profile);
            for (name, d) in &f.phase_times.phases {
                clock.add(name, *d);
            }
        }
        metrics.incr("core.identified_faults", identified.len() as u64);
        metrics.set_max("core.max_frames_used", max_frames as u64);
        FiresReport {
            circuit: self.circuit,
            lines: self.lines.clone(),
            identified,
            validated: self.config.validate,
            stems_processed: findings.len(),
            marks_created: findings.iter().map(|f| f.marks).sum(),
            max_frames_used: max_frames,
            metrics,
            phase_times: clock.finish(),
            profile,
        }
    }

    /// Runs the algorithm over every fanout stem on the calling thread;
    /// the same as [`run_threaded(1)`](Self::run_threaded).
    pub fn run(&self) -> FiresReport<'c> {
        self.run_threaded(1)
    }

    /// Runs the algorithm over every fanout stem with `threads` workers,
    /// the calling thread being one of them. Workers pull stems off a
    /// shared cursor and run each through [`run_stem`](Self::run_stem)
    /// with their own [`StemCtx`]; the findings go through
    /// [`assemble_report`](Self::assemble_report)'s fold, so the report
    /// is the same for every thread count.
    ///
    /// `elapsed()` is the run's wall time. With `threads > 1` the
    /// per-phase durations are summed across workers, so they measure
    /// aggregate compute time and may exceed it.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_threaded(&self, threads: usize) -> FiresReport<'c> {
        assert!(threads >= 1, "need at least one worker");
        let clock = PhaseClock::start();
        let stems = self.stems();
        let cursor = AtomicUsize::new(0);
        let worker = || {
            let mut ctx = StemCtx::new();
            let never = CancelToken::never();
            let mut findings = Vec::new();
            while let Some(&stem) = stems.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let outcome = self.run_stem(stem, &mut ctx, &never);
                findings.push(outcome.map_or_else(
                    |e| unreachable!("a fanout stem run without a cancel token failed: {e}"),
                    StemOutcome::into_findings,
                ));
            }
            findings
        };
        let findings = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let mut findings = worker();
            for other in others {
                findings.extend(other.join().expect("worker"));
            }
            findings
        });
        self.assemble(&findings, clock)
    }

    /// Runs the two implication processes for one stem and returns them,
    /// for inspection (used to reproduce the paper's Table 1).
    pub fn analyze_stem(&self, stem: LineId) -> (Implications<'_>, Implications<'_>) {
        let mut p0 = Implications::new(self.circuit, &self.lines, self.config);
        p0.assume(stem, Unc::Zero);
        p0.propagate();
        let mut p1 = Implications::new(self.circuit, &self.lines, self.config);
        p1.assume(stem, Unc::One);
        p1.propagate();
        (p0, p1)
    }

    /// Renders an implication process for human inspection.
    pub fn trace(&self, imp: &Implications<'_>) -> ProcessTrace {
        let mut uncontrollable: Vec<(Frame, String, bool)> = imp
            .mark_ids()
            .map(|id| imp.mark(id))
            .filter(|m| !m.axiom)
            .map(|m| {
                (
                    m.frame,
                    self.lines.display_name(m.line, self.circuit),
                    m.unc.value(),
                )
            })
            .collect();
        uncontrollable.sort();
        uncontrollable.dedup();
        let mut unobservable: Vec<(Frame, String)> = imp
            .unobs_iter()
            .map(|(l, f, _)| (f, self.lines.display_name(l, self.circuit)))
            .collect();
        unobservable.sort();
        unobservable.dedup();
        ProcessTrace {
            uncontrollable,
            unobservable,
        }
    }

    /// Runs both implication processes for one stem and returns its
    /// findings, faults deduplicated with [`fold_identified`].
    ///
    /// Interruption discards all partial work for the stem, so a caller
    /// that maps [`CoreError::Interrupted`] to "unit timed out" never sees
    /// half-validated faults. Budget exhaustion is different: the partial
    /// faults come back, flagged by [`StemFindings::exhausted`].
    fn process_stem(
        &self,
        stem: LineId,
        ctx: &mut StemCtx,
        cancel: &CancelToken,
    ) -> Result<StemFindings, CoreError> {
        let interrupted = || CoreError::Interrupted { stem };
        // Upfront check so a token that fired before this unit started
        // (e.g. an already-expired deadline) trips deterministically even
        // on stems too small to reach the in-loop poll strides.
        if cancel.is_cancelled() {
            return Err(interrupted());
        }
        let mut clock = PhaseClock::start();
        let mut metrics = RunMetrics::new();
        let stem_started = std::time::Instant::now();
        let cache_lookups_before = ctx.cache.lookup_stats();
        // One meter travels through all four fixpoints so the cumulative
        // limits (steps, wall clock) span the stem, exactly once.
        let mut meter = BudgetMeter::new(ctx.budget);
        clock.enter(phase::IMPLICATION);
        // Each process recycles its lane of the context's allocation pool;
        // the lanes are reclaimed on the Ok path below. On the error paths
        // the engines are dropped and the pool simply starts over empty —
        // correctness never depends on the reuse.
        let scratch0 = std::mem::take(&mut ctx.scratch.zero);
        let mut p0 = Implications::with_scratch(self.circuit, &self.lines, self.config, scratch0);
        p0.set_cancel(cancel.clone());
        p0.set_meter(meter);
        p0.assume(stem, Unc::Zero);
        p0.run_uncontrollability();
        meter = p0.take_meter();
        let scratch1 = std::mem::take(&mut ctx.scratch.one);
        let mut p1 = Implications::with_scratch(self.circuit, &self.lines, self.config, scratch1);
        p1.set_cancel(cancel.clone());
        p1.set_meter(meter);
        p1.assume(stem, Unc::One);
        p1.run_uncontrollability();
        meter = p1.take_meter();
        if p0.interrupted() || p1.interrupted() {
            clock.exit();
            return Err(interrupted());
        }
        clock.enter(phase::UNOBSERVABILITY);
        p0.set_meter(meter);
        p0.run_unobservability(&mut ctx.cache);
        meter = p0.take_meter();
        p1.set_meter(meter);
        p1.run_unobservability(&mut ctx.cache);
        meter = p1.take_meter();
        if p0.interrupted() || p1.interrupted() {
            clock.exit();
            return Err(interrupted());
        }
        // Exhaustion stops *derivation*; the assembly below is linear in
        // the (now bounded) derived indicators, so it always completes.
        let exhausted = p0.exhausted().or_else(|| p1.exhausted());

        clock.enter(phase::VALIDATION);
        let Some(s0) = self.fault_sets(&p0, &mut ctx.forced, &mut metrics, cancel) else {
            clock.exit();
            return Err(interrupted());
        };
        let Some(s1) = self.fault_sets(&p1, &mut ctx.forced, &mut metrics, cancel) else {
            clock.exit();
            return Err(interrupted());
        };

        let marks = p0.num_marks() + p1.num_marks();
        let frames = p0.window().len().max(p1.window().len());
        metrics.incr("core.stems_processed", 1);
        metrics.incr("core.marks_created", marks as u64);
        metrics.incr(
            "core.truncated_processes",
            u64::from(p0.truncated()) + u64::from(p1.truncated()),
        );
        metrics.incr("core.exhausted_stems", u64::from(exhausted.is_some()));
        metrics.observe("core.stem_marks", marks as u64);
        // Per-stem cost distributions: a handful of pathological stems
        // dominate wall-clock, and these histograms are how they show up
        // in reports. The inputs are counted unconditionally on the hot
        // path (one integer add each); the observations happen once per
        // stem and compile to no-ops when the `tracing` feature is off.
        metrics.observe("core.stem_steps", meter.steps());
        metrics.observe(
            "core.stem_queued",
            (p0.stats().enqueued + p1.stats().enqueued) as u64,
        );
        metrics.observe("core.stem_frames", frames as u64);
        for stats in [p0.stats(), p1.stats()] {
            metrics.incr(
                "core.blame_cap_rejections",
                stats.blame_cap_rejections as u64,
            );
            metrics.incr("core.window_extensions", stats.window_extensions as u64);
            metrics.incr("core.implications_enqueued", stats.enqueued as u64);
            metrics.set_max("core.max_queue_depth", stats.max_queue_depth as u64);
            metrics.set_max(
                "core.max_unobs_queue_depth",
                stats.max_unobs_queue_depth as u64,
            );
        }

        let hits = intersect(stem, [(&p0, &s0), (&p1, &s1)]);
        let found = hits.len();
        let faults = fold_identified(hits);
        clock.exit();
        metrics.incr("core.faults_found", found as u64);
        let elapsed = stem_started.elapsed();
        metrics.observe("core.stem_micros", elapsed.as_micros() as u64);
        // Harvest the hotspot profile: merge the two processes' rule
        // tables, fold in this stem's share of distance-cache lookups, and
        // spread the stem's measured wall-clock across rules by step share
        // (no per-step timers ever run on the hot path). The deterministic
        // step counts also become `core.rule.*` counters so regression
        // gates can hold them; timing and cache rates stay profile-only.
        let mut profile = p0.take_profile();
        profile.merge(&p1.take_profile());
        let (hits, misses) = ctx.cache.lookup_stats();
        profile.add_dist_cache(
            hits - cache_lookups_before.0,
            misses - cache_lookups_before.1,
        );
        profile.apportion_nanos(elapsed.as_nanos() as u64);
        profile.export_counters(&mut metrics);
        ctx.scratch.zero = p0.into_scratch();
        ctx.scratch.one = p1.into_scratch();
        Ok(StemFindings {
            stem,
            faults,
            faults_found: found,
            marks,
            frames_used: frames,
            metrics,
            phase_times: clock.finish(),
            exhausted,
            profile,
        })
    }

    /// Section 5.2: assembles one process's per-frame fault sets `S_v^i`
    /// as bitsets. Every indicator starts accepted: the rows are word
    /// copies of the engine's presence planes, so without validation no
    /// per-candidate work is done. With validation, each rejected entry's
    /// bit is cleared again. The [`ValidityCache::valid`] calls come in
    /// the order that fixes which candidates the sweep cap drops: marks
    /// in id order, then the unobservability candidates sorted by
    /// `(line, frame)`, stuck-at-0 before stuck-at-1. That sort makes the
    /// fault sets a pure function of the process, which the
    /// deterministic-merge guarantee rests on. Returns `None` if `cancel`
    /// fired mid-assembly.
    fn fault_sets(
        &self,
        imp: &Implications<'_>,
        forced_cache: &mut ForcedCache,
        metrics: &mut RunMetrics,
        cancel: &CancelToken,
    ) -> Option<FaultSets> {
        let window = imp.window();
        let mut sets = FaultSets::new(window, self.lines.num_lines());
        for frame in window.leftmost()..=window.rightmost() {
            let Some((unc, unobs)) = imp.presence(frame) else {
                continue;
            };
            for stuck in [StuckValue::Zero, StuckValue::One] {
                // A line that can never be !s hosts an unactivatable s-a-s
                // (the planes are indexed by the value the line cannot take).
                sets.row_mut(UNC, frame, stuck)
                    .copy_from_slice(unc[usize::from(!stuck.as_bool())]);
                sets.row_mut(UNOBS, frame, stuck).copy_from_slice(unobs);
            }
        }

        let mut since_poll = 0u32;
        let mut cancelled = || {
            since_poll += 1;
            since_poll.is_multiple_of(VALIDATION_POLL_STRIDE) && cancel.is_cancelled()
        };
        // One pass over the unobservability indicators tallies their
        // blame-set sizes and picks out the candidates validation must
        // check: an empty blame set is accepted without a validity call.
        let mut blame_sizes: Vec<u64> = Vec::new();
        let mut pending: Vec<(LineId, Frame, &[MarkId])> = Vec::new();
        for (line, frame, blame) in imp.unobs_iter() {
            if cancelled() {
                return None;
            }
            if blame_sizes.len() <= blame.len() {
                blame_sizes.resize(blame.len() + 1, 0);
            }
            blame_sizes[blame.len()] += 1;
            if self.config.validate && !blame.is_empty() {
                pending.push((line, frame, blame));
            }
        }
        for (size, &n) in blame_sizes.iter().enumerate() {
            metrics.observe_n("core.blame_set_size", size as u64, n);
        }
        if !self.config.validate {
            return Some(sets);
        }

        let mut validity = ValidityCache::default();
        let mut rejects = 0u64;
        for id in imp.mark_ids() {
            if cancelled() {
                return None;
            }
            let m = imp.mark(id);
            let fault = Fault::new(m.line, StuckValue::from_bool(!m.unc.value()));
            if !validity.valid(self, imp, forced_cache, fault, m.frame, id) {
                rejects += 1;
                sets.clear(UNC, m.line, m.frame, fault.stuck);
            }
        }
        pending.sort_unstable_by_key(|&(line, frame, _)| (line, frame));
        for (line, frame, blame) in pending {
            if cancelled() {
                return None;
            }
            for stuck in [StuckValue::Zero, StuckValue::One] {
                let fault = Fault::new(line, stuck);
                if !blame
                    .iter()
                    .all(|&b| validity.valid(self, imp, forced_cache, fault, frame, b))
                {
                    rejects += 1;
                    sets.clear(UNOBS, line, frame, stuck);
                }
            }
        }
        let checked = imp.num_marks() as u64 + 2 * blame_sizes.iter().sum::<u64>();
        for (name, n) in [
            ("core.validation_accepts", checked - rejects),
            ("core.validation_rejects", rejects),
            ("core.validation_sweep_cap_hits", validity.cap_hits),
        ] {
            if n > 0 {
                metrics.incr(name, n);
            }
        }
        Some(sets)
    }

    /// The set of lines whose value the fault pins to a constant, found by
    /// closing over same-net copies, single-input gates, controlling-value
    /// domination and flip-flop crossings. Returns `None` when the closure
    /// exceeds the cap: validation then rejects the fault outright, which
    /// sacrifices completeness on pathological fanout but never soundness.
    fn forced_lines(&self, fault: Fault) -> Option<HashMap<LineId, [bool; 2]>> {
        const CAP: usize = 512;
        let mut forced: HashMap<LineId, [bool; 2]> = HashMap::new();
        let mut stack = vec![(fault.line, fault.stuck.as_bool())];
        while let Some((l, v)) = stack.pop() {
            if forced.len() >= CAP {
                return None;
            }
            let entry = forced.entry(l).or_default();
            if entry[v as usize] {
                continue;
            }
            entry[v as usize] = true;
            let line = self.lines.line(l);
            for &b in line.branches() {
                stack.push((b, v));
            }
            if let Some((sink, _)) = line.sink_pin() {
                let kind = self.circuit.node(sink).kind();
                let out = self.lines.stem_of(sink);
                match kind {
                    GateKind::Buf => stack.push((out, v)),
                    GateKind::Not => stack.push((out, !v)),
                    GateKind::Dff => stack.push((out, v)),
                    GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor
                        if Some(v) == kind.controlling_value() =>
                    {
                        stack.push((out, v ^ kind.is_inverting()));
                    }
                    _ => {}
                }
            }
        }
        Some(forced)
    }
}

/// Row of [`FaultSets`] fed by uncontrollability marks.
const UNC: usize = 0;
/// Row of [`FaultSets`] fed by unobservability indicators.
const UNOBS: usize = 1;

/// One process's fault sets `S_v^i` as per-frame bitsets over
/// [`LineId`], one row per (frame, source, stuck value): row
/// `(UNC, f, s)` holds the lines whose `!s` uncontrollability mark at
/// frame `f` was accepted, row `(UNOBS, f, s)` the lines whose
/// unobservability indicator at `f` was accepted for s-a-`s`. Keeping the
/// two sources apart lets [`support`] read each accepted entry's payload
/// back from the engine.
struct FaultSets {
    first: Frame,
    words: usize,
    /// Frame-major rows of `words` words each.
    bits: Vec<u64>,
}

impl FaultSets {
    /// Empty sets over every frame of `window`.
    fn new(window: &Window, num_lines: usize) -> Self {
        let words = num_lines.div_ceil(64);
        FaultSets {
            first: window.leftmost(),
            words,
            bits: vec![0; window.len() * 4 * words],
        }
    }

    fn offset(&self, source: usize, frame: Frame, stuck: StuckValue) -> usize {
        let row = (frame - self.first) as usize * 4 + source * 2 + usize::from(stuck.as_bool());
        row * self.words
    }

    fn row(&self, source: usize, frame: Frame, stuck: StuckValue) -> &[u64] {
        let at = self.offset(source, frame, stuck);
        &self.bits[at..at + self.words]
    }

    fn row_mut(&mut self, source: usize, frame: Frame, stuck: StuckValue) -> &mut [u64] {
        let at = self.offset(source, frame, stuck);
        &mut self.bits[at..at + self.words]
    }

    fn contains(&self, source: usize, line: LineId, frame: Frame, stuck: StuckValue) -> bool {
        let i = line.index();
        self.row(source, frame, stuck)[i / 64] >> (i % 64) & 1 == 1
    }

    fn clear(&mut self, source: usize, line: LineId, frame: Frame, stuck: StuckValue) {
        let i = line.index();
        self.row_mut(source, frame, stuck)[i / 64] &= !(1u64 << (i % 64));
    }
}

/// Section 5.3: `S_0^i ∩ S_1^i`. ANDs the two processes' fault sets word
/// by word over the frames both windows contain, and turns each surviving
/// `(fault, frame)` into an [`IdentifiedFault`] whose `c` counts the
/// frames from the leftmost support of either process to `frame`.
fn intersect(stem: LineId, procs: [(&Implications<'_>, &FaultSets); 2]) -> Vec<IdentifiedFault> {
    let [(p0, s0), (p1, s1)] = procs;
    let (w0, w1) = (p0.window(), p1.window());
    let mut hits = Vec::new();
    for frame in w0.leftmost().max(w1.leftmost())..=w0.rightmost().min(w1.rightmost()) {
        for stuck in [StuckValue::Zero, StuckValue::One] {
            let (unc0, unobs0) = (s0.row(UNC, frame, stuck), s0.row(UNOBS, frame, stuck));
            let (unc1, unobs1) = (s1.row(UNC, frame, stuck), s1.row(UNOBS, frame, stuck));
            let words = unc0.iter().zip(unobs0).zip(unc1.iter().zip(unobs1));
            for (w, ((a0, b0), (a1, b1))) in words.enumerate() {
                let mut both = (a0 | b0) & (a1 | b1);
                while both != 0 {
                    let line = LineId::new(w * 64 + both.trailing_zeros() as usize);
                    both &= both - 1;
                    let fault = Fault::new(line, stuck);
                    let l = support(p0, s0, fault, frame).min(support(p1, s1, fault, frame));
                    hits.push(IdentifiedFault {
                        fault,
                        c: if l < frame { (frame - l) as u32 } else { 0 },
                        frame,
                        stem,
                    });
                }
            }
        }
    }
    hits
}

/// The support of `fault` at `frame` in one process: the leftmost frame
/// where uncontrollability must propagate, as the maximum over the
/// process's accepted entries for it. A mark contributes its
/// `min_frame`; an unobservability indicator the least `min_frame` of its
/// blame set, or `frame` itself when the blame set is empty.
fn support(imp: &Implications<'_>, sets: &FaultSets, fault: Fault, frame: Frame) -> Frame {
    let from_mark = sets.contains(UNC, fault.line, frame, fault.stuck).then(|| {
        let unc = Unc::cannot_be(!fault.stuck.as_bool());
        let id = imp.unc_mark(fault.line, frame, unc);
        imp.min_frame_of(id.expect("an accepted mark is present"))
    });
    let from_unobs = sets
        .contains(UNOBS, fault.line, frame, fault.stuck)
        .then(|| {
            let blame = imp.blame(fault.line, frame);
            let min_unc_frame = blame.iter().map(|&b| imp.min_frame_of(b)).min();
            min_unc_frame.unwrap_or(frame)
        });
    from_mark
        .into_iter()
        .chain(from_unobs)
        .max()
        .expect("a surviving bit has an accepted entry")
}

/// Run-wide cache of per-fault forced-line closures (they are
/// circuit-static, so they can be shared across every stem and process).
/// `None` = the closure overflowed its cap and the fault must be rejected
/// conservatively.
#[derive(Default)]
struct ForcedCache {
    map: HashMap<Fault, Option<ForcedLines>>,
}

/// A fault's forced-line closure: each line maps to the value(s) the fault
/// pins it to.
type ForcedLines = std::rc::Rc<HashMap<LineId, [bool; 2]>>;

impl ForcedCache {
    fn get(&mut self, fires: &Fires<'_>, fault: Fault) -> Option<ForcedLines> {
        self.map
            .entry(fault)
            .or_insert_with(|| fires.forced_lines(fault).map(std::rc::Rc::new))
            .clone()
    }
}

/// Per-process memo of Definition-6 validity.
///
/// Two tiers: a cheap memoized check whether *any* indicator in the
/// process contradicts the fault (almost always "no", making every
/// derivation trivially valid), and — only when one exists — a single
/// linear sweep over the derivation-ordered marks propagating invalidity
/// from the contradicting marks to every descendant.
#[derive(Default)]
struct ValidityCache {
    has_bad: HashMap<Fault, bool>,
    invalid: HashMap<(Fault, Frame), std::rc::Rc<Vec<bool>>>,
    sweeps: usize,
    /// Checks rejected only because [`SWEEP_CAP`] was reached.
    cap_hits: u64,
}

/// Upper bound on full invalidity sweeps per process. A sweep costs
/// O(marks); on pathological processes where thousands of distinct faults
/// each contradict some indicator, capping keeps the run polynomial —
/// candidates beyond the cap are conservatively rejected.
const SWEEP_CAP: usize = 512;

impl ValidityCache {
    #[allow(clippy::too_many_arguments)]
    fn valid(
        &mut self,
        fires: &Fires<'_>,
        imp: &Implications<'_>,
        forced_cache: &mut ForcedCache,
        fault: Fault,
        ref_frame: Frame,
        root: MarkId,
    ) -> bool {
        let Some(forced0) = forced_cache.get(fires, fault) else {
            return false; // closure overflow: reject conservatively
        };
        let has_bad = match self.has_bad.get(&fault) {
            Some(&b) => b,
            None => {
                let b = !bad_marks(imp, &forced0, Frame::MIN).is_empty()
                    || !cut_edge_marks(fires, imp, fault).is_empty();
                self.has_bad.insert(fault, b);
                b
            }
        };
        if !has_bad {
            return true;
        }
        // Under the default AnyFrame policy validity does not depend on
        // the reference frame; collapse the key so the sweep runs once per
        // fault.
        let key_frame = match fires.config.validation_policy {
            ValidationPolicy::AnyFrame => Frame::MIN,
            ValidationPolicy::EarlierFrames => ref_frame,
        };
        if !self.invalid.contains_key(&(fault, key_frame)) {
            if self.sweeps >= SWEEP_CAP {
                self.cap_hits += 1;
                return false; // conservative: drop the candidate
            }
            self.sweeps += 1;
            let mut bad = bad_marks(imp, &forced0, key_frame);
            // Derivation steps that cross the faulty line against the
            // signal flow are unsound regardless of frame policy.
            bad.extend(cut_edge_marks(fires, imp, fault));
            let mut invalid = vec![false; imp.num_marks()];
            for id in bad {
                invalid[id.index()] = true;
            }
            for i in 0..invalid.len() {
                if !invalid[i]
                    && imp
                        .mark(MarkId::from_index(i))
                        .parents
                        .iter()
                        .any(|p| invalid[p.index()])
                {
                    invalid[i] = true;
                }
            }
            self.invalid
                .insert((fault, key_frame), std::rc::Rc::new(invalid));
        }
        !self.invalid[&(fault, key_frame)][root.index()]
    }
}

/// Marks derived by an inference that *crosses the faulty line backwards*:
/// from a constraint on the faulty line `m` to a constraint on the logic
/// that drives `m`. The fault disconnects `m` from its driver (the
/// consumer side sees the stuck constant), so the driving gate's function
/// no longer relates the two — every such step is invalid in the faulty
/// circuit, whatever the values involved.
///
/// Concretely these are marks `X` with a parent on `m` where `X` sits on
/// `m`'s driver side: the stem of `m`'s driving node when `m` is a branch,
/// or the driver's input lines when `m` is a stem.
fn cut_edge_marks(fires: &Fires<'_>, imp: &Implications<'_>, fault: Fault) -> Vec<MarkId> {
    use fires_netlist::LineKind;
    let driver_side: Vec<LineId> = match fires.lines.line(fault.line).kind() {
        LineKind::Branch { node, .. } => vec![fires.lines.stem_of(node)],
        LineKind::Stem { node } => fires.lines.in_lines(node).to_vec(),
    };
    if driver_side.is_empty() {
        return Vec::new(); // primary input or constant: no driver side
    }
    let mut cut = Vec::new();
    let window = imp.window();
    for &line in &driver_side {
        for frame in window.leftmost()..=window.rightmost() {
            for unc in [Unc::Zero, Unc::One] {
                let Some(id) = imp.unc_mark(line, frame, unc) else {
                    continue;
                };
                if imp
                    .mark(id)
                    .parents
                    .iter()
                    .any(|p| imp.mark(*p).line == fault.line)
                {
                    cut.push(id);
                }
            }
        }
    }
    cut
}

/// The indicators the fault falsifies: marks claiming a line cannot take
/// the very value the fault pins it to. With `key_frame != Frame::MIN`
/// (EarlierFrames policy) only frames before the reference count.
fn bad_marks(
    imp: &Implications<'_>,
    forced: &HashMap<LineId, [bool; 2]>,
    key_frame: Frame,
) -> Vec<MarkId> {
    let mut bad: Vec<MarkId> = Vec::new();
    let window = imp.window();
    // Two equivalent strategies; pick the cheaper one for this process.
    if forced.len() * window.len() * 2 < imp.num_marks() {
        for (&line, flags) in forced {
            for v in [false, true] {
                if !flags[v as usize] {
                    continue;
                }
                for frame in window.leftmost()..=window.rightmost() {
                    if key_frame != Frame::MIN && frame >= key_frame {
                        continue;
                    }
                    if let Some(id) = imp.unc_mark(line, frame, Unc::cannot_be(v)) {
                        bad.push(id);
                    }
                }
            }
        }
    } else {
        for id in imp.mark_ids() {
            let m = imp.mark(id);
            if key_frame != Frame::MIN && m.frame >= key_frame {
                continue;
            }
            if let Some(flags) = forced.get(&m.line) {
                if flags[m.unc.value() as usize] {
                    bad.push(id);
                }
            }
        }
    }
    bad
}

#[cfg(test)]
mod assembly_reference;

#[cfg(test)]
mod tests {
    use fires_netlist::bench;

    use super::*;

    #[test]
    fn figure3_identifies_the_branch_fault_as_one_cycle() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let report = fires.run();
        let names = report.display_faults();
        assert!(
            names
                .iter()
                .any(|n| n.contains("s-a-1") && n.contains("(c = 1)")),
            "expected the 1-cycle redundant c1 s-a-1, got {names:?}"
        );
    }

    #[test]
    fn combinational_conflict_is_zero_cycle() {
        // Classic FIRE example: stem a fans out; z needs a=0 and a=1.
        //   n = NOT(a); z = AND(a, n)  => z s-a-1 requires the conflict.
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        assert!(!report.is_empty());
        assert!(report.redundant_faults().iter().all(|f| f.c == 0));
        // z is constant 0, so z s-a-0 has no effect: it must be identified.
        let names = report.display_faults();
        assert!(names.iter().any(|n| n.starts_with("z s-a-0")), "{names:?}");
    }

    #[test]
    fn irredundant_circuit_yields_nothing() {
        let circuit =
            bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(y)\nz = AND(a, b)\ny = OR(a, b)\n")
                .unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        assert!(report.is_empty(), "{:?}", report.display_faults());
    }

    #[test]
    fn without_validation_superset_of_with() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let with = Fires::new(&circuit, FiresConfig::default()).run();
        let without = Fires::new(&circuit, FiresConfig::default().without_validation()).run();
        assert!(without.len() >= with.len());
        let without_set: Vec<_> = without.redundant_faults().iter().map(|f| f.fault).collect();
        for f in with.redundant_faults() {
            assert!(without_set.contains(&f.fault));
        }
    }

    #[test]
    fn validation_cuts_backward_steps_through_the_fault_site() {
        // Regression: ff1 converges to 1 (g6 = ff1 | !ff1), so "g0 cannot
        // be 1" holds from cycle 1 onward — but g0 s-a-0 corrupts the very
        // feedback that forces the convergence (faulty ff1 holds its
        // power-up value forever), so the fault is NOT c-cycle redundant
        // for any c. The derivation that suggested otherwise inferred
        // constraints on ff1 *backwards through the faulted NOT gate*;
        // validation must reject it.
        let circuit = bench::parse(
            "INPUT(pi0)\nOUTPUT(f3_0_c)\nOUTPUT(po0)\nOUTPUT(po1)\n\
             ff1 = DFF(g6)\ng0 = NOT(ff1)\ng6 = OR(ff1, g0)\n\
             g8 = NOT(g0)\ng9 = NOT(g8)\nf3_0_b = DFF(k1)\n\
             f3_0_c = DFF(ff1)\nf3_0_d = AND(f3_0_b, f3_0_c)\n\
             po0 = OR(g0, f3_0_d)\npo1 = BUFF(g9)\nk1 = CONST1()\n",
        )
        .unwrap();
        let report = Fires::new(&circuit, FiresConfig::with_max_frames(5)).run();
        let names = report.display_faults();
        for bad in ["g0 s-a-0", "ff1->g0.0 s-a-1", "g0->g6.1 s-a-0"] {
            assert!(
                !names.iter().any(|n| n.starts_with(bad)),
                "unsound claim {bad} present: {names:?}"
            );
        }
        // The genuinely redundant neighbours must survive the cut.
        for good in ["g8 s-a-1", "g9 s-a-0", "po1 s-a-0"] {
            assert!(
                names.iter().any(|n| n.starts_with(good)),
                "over-rejection: {good} missing from {names:?}"
            );
        }
    }

    /// Validation counters count only what validation checked: nothing
    /// at all without validation, and with it one verdict per entry (each
    /// mark, and each unobservability indicator once per stuck value).
    #[cfg(feature = "tracing")]
    #[test]
    fn validation_counters_count_only_checked_entries() {
        use fires_obs::names::{VALIDATION_ACCEPTS, VALIDATION_REJECTS, VALIDATION_SWEEP_CAP_HITS};
        // The circuit of the backward-cut regression above: validation
        // rejects some of its candidates.
        let circuit = bench::parse(
            "INPUT(pi0)\nOUTPUT(f3_0_c)\nOUTPUT(po0)\nOUTPUT(po1)\n\
             ff1 = DFF(g6)\ng0 = NOT(ff1)\ng6 = OR(ff1, g0)\n\
             g8 = NOT(g0)\ng9 = NOT(g8)\nf3_0_b = DFF(k1)\n\
             f3_0_c = DFF(ff1)\nf3_0_d = AND(f3_0_b, f3_0_c)\n\
             po0 = OR(g0, f3_0_d)\npo1 = BUFF(g9)\nk1 = CONST1()\n",
        )
        .unwrap();
        let never = CancelToken::never();
        for config in [
            FiresConfig::with_max_frames(5),
            FiresConfig::with_max_frames(5).without_validation(),
        ] {
            let fires = Fires::new(&circuit, config);
            let mut rejected = 0;
            for stem in fires.stems() {
                let f = fires
                    .run_stem(stem, &mut StemCtx::new(), &never)
                    .unwrap()
                    .into_findings();
                let (p0, p1) = fires.analyze_stem(stem);
                let checked = (p0.num_marks() + p1.num_marks()) as u64
                    + 2 * (p0.unobs_iter().count() + p1.unobs_iter().count()) as u64;
                let (accepts, rejects) = (
                    f.metrics.counter(VALIDATION_ACCEPTS),
                    f.metrics.counter(VALIDATION_REJECTS),
                );
                rejected += rejects;
                if config.validate {
                    assert_eq!(accepts + rejects, checked, "stem {stem:?}");
                } else {
                    let names: Vec<&str> = f.metrics.counters().map(|(n, _)| n).collect();
                    for name in [VALIDATION_ACCEPTS, VALIDATION_REJECTS] {
                        assert!(!names.contains(&name), "{name} recorded: {names:?}");
                    }
                }
                assert_eq!(f.metrics.counter(VALIDATION_SWEEP_CAP_HITS), 0);
            }
            assert_eq!(rejected > 0, config.validate, "the circuit has rejections");
        }
    }

    /// The counters that are a pure function of the work, whatever the
    /// thread placement: the headline counts and every `core.rule.*`.
    #[cfg(feature = "tracing")]
    fn deterministic_counters(report: &FiresReport<'_>) -> Vec<(String, u64)> {
        const HEADLINE: [&str; 4] = [
            "core.stems_processed",
            "core.marks_created",
            "core.faults_found",
            "core.identified_faults",
        ];
        report
            .metrics()
            .counters()
            .filter(|(name, _)| HEADLINE.contains(name) || name.starts_with("core.rule."))
            .map(|(name, v)| (name.to_string(), v))
            .collect()
    }

    #[test]
    fn threaded_run_matches_serial() {
        let circuits = [("fig7", fires_circuits::figures::figure7(), 5), {
            let e = fires_circuits::suite::by_name("s208_like").unwrap();
            ("s208_like", e.circuit, e.frames)
        }];
        for (name, circuit, frames) in &circuits {
            let fires = Fires::new(circuit, FiresConfig::with_max_frames(*frames));
            let serial = fires.run();
            let stems = fires.stems().len();
            assert!(!serial.is_empty(), "{name}: test needs identified faults");
            #[cfg(feature = "tracing")]
            assert!(
                deterministic_counters(&serial).len() > 4,
                "{name}: rule counters missing"
            );
            for threads in [1, 2, 4, stems + 3] {
                let parallel = fires.run_threaded(threads);
                let at = format!("{name} with {threads} threads");
                assert_eq!(
                    parallel.redundant_faults(),
                    serial.redundant_faults(),
                    "{at}"
                );
                assert_eq!(parallel.stems_processed(), stems, "{at}");
                assert_eq!(parallel.marks_created(), serial.marks_created(), "{at}");
                assert_eq!(parallel.max_frames_used(), serial.max_frames_used(), "{at}");
                #[cfg(feature = "tracing")]
                assert_eq!(
                    deterministic_counters(&parallel),
                    deterministic_counters(&serial),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn report_statistics_are_populated() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        assert_eq!(report.stems_processed(), 1); // only stem `a` fans out
        assert!(report.marks_created() > 0);
        assert!(report.max_frames_used() >= 1);
        assert!(report.to_string().contains("FIRES"));
    }

    /// Runs under both `cargo test` and `cargo test --no-default-features`:
    /// the identified faults must not depend on whether instrumentation is
    /// compiled in.
    #[test]
    fn results_do_not_depend_on_instrumentation_feature() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        let names = report.display_faults();
        assert!(names
            .iter()
            .any(|n| n.contains("s-a-1") && n.contains("(c = 1)")));
        assert_eq!(report.stems_processed(), 2); // stems `a` and `c` fan out
                                                 // elapsed() always works; it is the phase clock's total.
        assert!(report.elapsed() > std::time::Duration::ZERO);
    }

    #[cfg(feature = "tracing")]
    #[test]
    fn metrics_agree_with_report_on_example2() {
        let circuit =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        let m = report.metrics();
        assert_eq!(
            m.counter("core.stems_processed"),
            report.stems_processed() as u64
        );
        assert_eq!(
            m.counter("core.marks_created"),
            report.marks_created() as u64
        );
        assert_eq!(m.counter("core.identified_faults"), report.len() as u64);
        assert_eq!(
            m.maximum("core.max_frames_used"),
            report.max_frames_used() as u64
        );
        assert!(m.counter("core.validation_accepts") > 0);
        assert!(m.maximum("core.max_queue_depth") > 0);
        let marks = m.histogram("core.stem_marks").expect("per-stem histogram");
        assert_eq!(marks.count(), report.stems_processed() as u64);
        assert_eq!(marks.sum(), report.marks_created() as u64);
        // Per-stem cost histograms: one observation per stem, each.
        let stems = report.stems_processed() as u64;
        for name in [
            "core.stem_steps",
            "core.stem_queued",
            "core.stem_frames",
            "core.stem_micros",
        ] {
            let h = m
                .histogram(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(h.count(), stems, "{name}");
        }
        // Steps are real queue pops even with no budget configured, and
        // every enqueued implication is eventually popped (or dropped at
        // trip time — not here, unlimited budget), so steps ≥ stems and
        // the enqueued counter matches the per-stem histogram's mass.
        assert!(m.histogram("core.stem_steps").unwrap().sum() > 0);
        assert_eq!(
            m.counter("core.implications_enqueued"),
            m.histogram("core.stem_queued").unwrap().sum()
        );
        // Phase breakdown: all three phases present, attribution within
        // the total (single clock, serial run).
        let pt = report.phase_times();
        for name in [
            phase::IMPLICATION,
            phase::UNOBSERVABILITY,
            phase::VALIDATION,
        ] {
            assert!(pt.phases.iter().any(|(n, _)| n == name), "{name} missing");
        }
        let named: std::time::Duration = pt.phases.iter().map(|(_, d)| *d).sum();
        assert!(named <= pt.total);
        assert_eq!(report.elapsed(), pt.total);
    }

    #[cfg(feature = "tracing")]
    #[test]
    fn profile_attributes_steps_to_named_rules() {
        use fires_obs::ALL_RULES;
        let circuit = bench::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(d)\nOUTPUT(c)\nOUTPUT(z)\nOUTPUT(x)\n\
             q = DFF(a)\nbq = DFF(a)\nc = DFF(a)\nd = AND(bq, c)\n\
             n = NOT(b)\nz = AND(b, n)\nw = OR(q, z)\nOUTPUT(w)\n\
             x = XOR(b, n)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let never = CancelToken::never();
        let mut ctx = StemCtx::new();
        let mut merged = fires_obs::RuleProfile::new();
        for s in fires.stems() {
            let f = fires.run_stem(s, &mut ctx, &never).unwrap().into_findings();
            assert!(!f.profile.is_empty(), "stem profile must not be empty");
            // The exported gate counters are exactly the profile's
            // deterministic step counts, nothing else.
            for rule in ALL_RULES {
                assert_eq!(
                    f.metrics.counter(&format!("core.rule.{}", rule.name())),
                    f.profile.steps(rule),
                    "{}",
                    rule.name()
                );
            }
            assert_eq!(
                f.metrics.counter("core.rule.unattributed"),
                f.profile.unattributed_steps()
            );
            merged.merge(&f.profile);
        }
        let total = merged.total_steps();
        let attributed = merged.attributed_steps();
        assert!(total > 0, "no steps recorded");
        // The acceptance bar: at least 95% of recorded implication steps
        // land in named (rule, gate type, direction) buckets.
        assert!(
            attributed * 100 >= total * 95,
            "only {attributed}/{total} steps attributed"
        );
        // Apportioned wall-clock never exceeds what was measured, and the
        // folded export carries every nonzero bucket.
        assert!(merged.total_nanos() > 0 || merged.entries().count() == 0);
        let folded = merged.folded_lines("stems");
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded shape");
            assert!(stack.starts_with("stems;"), "{line}");
            assert!(count.parse::<u64>().is_ok(), "{line}");
        }
        assert!(folded.lines().count() >= merged.entries().count());
        // The hit rate is undefined until the stem-merge side condition
        // first probes the cache; when defined it is a proper ratio.
        if let Some(rate) = merged.dist_hit_rate() {
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[cfg(feature = "tracing")]
    #[test]
    fn run_report_round_trips_through_json() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let report = Fires::new(&circuit, FiresConfig::default()).run();
        let rr = report.run_report("fires-core/test", "fire-example");
        let text = rr.to_json_string();
        let back = fires_obs::RunReport::from_json_str(&text).unwrap();
        assert_eq!(back, rr);
        assert_eq!(
            back.extra
                .get("identified_faults")
                .and_then(fires_obs::Json::as_u64),
            Some(report.len() as u64)
        );
    }

    #[test]
    fn run_stem_assembles_to_the_same_report_as_run() {
        let circuit = bench::parse(
            "INPUT(a)\nINPUT(b)\nOUTPUT(d)\nOUTPUT(c)\nOUTPUT(z)\n\
             q = DFF(a)\nbq = DFF(a)\nc = DFF(a)\nd = AND(bq, c)\n\
             n = NOT(b)\nz = AND(b, n)\nw = OR(q, z)\nOUTPUT(w)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let whole = fires.run();
        let never = CancelToken::never();
        // Stem-granular with a shared context, in canonical order.
        let mut ctx = StemCtx::new();
        let findings: Vec<StemFindings> = fires
            .stems()
            .into_iter()
            .map(|s| {
                let outcome = fires.run_stem(s, &mut ctx, &never).unwrap();
                assert!(outcome.is_complete(), "unlimited budget never exhausts");
                outcome.into_findings()
            })
            .collect();
        let report = fires.assemble_report(findings);
        assert_eq!(report.display_faults(), whole.display_faults());
        assert_eq!(report.stems_processed(), whole.stems_processed());
        assert_eq!(report.marks_created(), whole.marks_created());
        assert_eq!(report.max_frames_used(), whole.max_frames_used());
        // Reversed order, fresh context per stem: identical merged result.
        let reversed: Vec<StemFindings> = fires
            .stems()
            .into_iter()
            .rev()
            .map(|s| {
                fires
                    .run_stem(s, &mut StemCtx::new(), &never)
                    .unwrap()
                    .into_findings()
            })
            .collect();
        let report2 = fires.assemble_report(reversed);
        assert_eq!(report2.redundant_faults(), report.redundant_faults());
    }

    #[test]
    fn run_stem_rejects_non_fanout_stems() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let never = CancelToken::never();
        let mut ctx = StemCtx::new();
        // `z` does not fan out; out-of-range ids are rejected too.
        let z = fires.lines().stem_of(circuit.find("z").unwrap());
        assert!(matches!(
            fires.run_stem(z, &mut ctx, &never),
            Err(crate::CoreError::NotAFanoutStem { .. })
        ));
        let bogus = LineId::new(10_000);
        assert!(matches!(
            fires.run_stem(bogus, &mut ctx, &never),
            Err(crate::CoreError::NotAFanoutStem { .. })
        ));
    }

    #[test]
    fn cancelled_token_interrupts_run_stem() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let stem = fires.stems()[0];
        let token = CancelToken::new();
        token.cancel();
        match fires.run_stem(stem, &mut StemCtx::new(), &token) {
            Err(crate::CoreError::Interrupted { stem: s }) => assert_eq!(s, stem),
            other => panic!(
                "expected interruption, got {:?}",
                other.map(|o| o.into_findings().faults)
            ),
        }
    }

    #[test]
    fn tiny_budget_exhausts_a_stem_and_keeps_partials() {
        // The counter-style feedback circuit generates enough fixpoint
        // steps to blow a deliberately tiny step budget.
        let circuit = bench::parse(
            "INPUT(en)\nOUTPUT(po)\nq0 = DFF(t0)\nt0 = AND(q0, en)\n\
             n0 = NOT(q0)\nq1 = DFF(t1)\nt1 = AND(q1, n0)\npo = OR(q0, q1)\n",
        )
        .unwrap();
        let fires = Fires::new(&circuit, FiresConfig::with_max_frames(8));
        let stem = fires.stems()[0];
        let never = CancelToken::never();
        let mut ctx = StemCtx::with_budget(Budget::unlimited().with_max_steps(3));
        let outcome = fires.run_stem(stem, &mut ctx, &never).unwrap();
        let StemOutcome::Exhausted { partial, reason } = outcome else {
            panic!("3-step budget must exhaust this stem");
        };
        assert_eq!(reason, ExhaustionReason::Steps);
        assert_eq!(partial.exhausted, Some(ExhaustionReason::Steps));
        assert!(partial.marks >= 2, "the two assumptions survive");
        // Same budget, fresh context: identical partial outcome.
        let mut ctx2 = StemCtx::with_budget(Budget::unlimited().with_max_steps(3));
        let again = fires.run_stem(stem, &mut ctx2, &never).unwrap();
        assert_eq!(again.exhaustion(), Some(ExhaustionReason::Steps));
        assert_eq!(again.findings().marks, partial.marks);
        assert_eq!(again.findings().faults, partial.faults);
        // A generous budget completes and reports no exhaustion.
        let mut ctx3 = StemCtx::with_budget(Budget::unlimited().with_max_steps(1_000_000));
        assert!(fires
            .run_stem(stem, &mut ctx3, &never)
            .unwrap()
            .is_complete());
    }

    #[test]
    fn exhausted_findings_never_contribute_to_the_report() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let fires = Fires::new(&circuit, FiresConfig::default());
        let never = CancelToken::never();
        let stem = fires.stems()[0];
        let complete = fires
            .run_stem(stem, &mut StemCtx::new(), &never)
            .unwrap()
            .into_findings();
        assert!(!complete.faults.is_empty(), "test needs identified faults");
        // Forge an exhausted copy of the same findings: the merge must
        // drop its faults but keep its statistics.
        let mut partial = complete.clone();
        partial.exhausted = Some(ExhaustionReason::Steps);
        let report = fires.assemble_report(vec![partial]);
        assert!(report.is_empty(), "{:?}", report.display_faults());
        assert_eq!(report.stems_processed(), 1);
        assert_eq!(report.marks_created(), complete.marks);
        // The complete findings still merge as before.
        let report = fires.assemble_report(vec![complete.clone()]);
        assert_eq!(report.len(), complete.faults.len());
        // A stem a budget really cut is counted as exhausted once.
        let mut ctx = StemCtx::with_budget(Budget::unlimited().with_max_steps(3));
        let outcome = fires.run_stem(stem, &mut ctx, &never).unwrap();
        assert!(outcome.exhaustion().is_some(), "3-step budget must exhaust");
        let report = fires.assemble_report(vec![outcome.into_findings()]);
        assert!(report.is_empty(), "{:?}", report.display_faults());
        #[cfg(feature = "tracing")]
        assert_eq!(report.metrics().counter("core.exhausted_stems"), 1);
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let circuit = bench::parse("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n").unwrap();
        assert!(Fires::try_new(&circuit, FiresConfig::default()).is_ok());
        assert!(matches!(
            Fires::try_new(&circuit, FiresConfig::with_max_frames(0)),
            Err(crate::CoreError::InvalidConfig { .. })
        ));
    }
}
