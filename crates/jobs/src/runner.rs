//! The campaign runner: a work-stealing worker pool over per-stem work
//! units, with panic isolation, per-unit deadlines and incremental
//! journaling.
//!
//! Work units are `(task, stem)` pairs in the deterministic order
//! (task order × canonical stem order). Workers self-schedule by
//! `fetch_add` on a shared cursor — no unit is ever run twice, and any
//! interleaving merges to the same report (see
//! [`IdentifiedFault::wins_over`](fires_core::IdentifiedFault)).
//!
//! A unit that panics poisons only itself: the panic is caught, the
//! worker rebuilds its per-task caches (they may be mid-update) and —
//! when [`RunnerConfig::retries`] allows — re-runs the unit, journaling
//! a retry event per failed attempt. A unit still panicking after its
//! retries is quarantined: journaled with terminal status `panic` and
//! never re-run. A unit that overruns `stem_deadline` is cancelled
//! cooperatively and journaled as `timeout` (not retried: the deadline
//! would just elapse again); one that trips its [`Budget`] is journaled
//! as `exhausted` with its partial results (not retried: exhaustion is
//! deterministic). All three are *recorded* terminal outcomes — `fires
//! resume` will not retry them unless the journal is deleted.
//!
//! Journal appends that fail with a transient IO error are themselves
//! retried with exponential backoff ([`RunnerConfig::backoff`]), after
//! repairing any torn tail the failed append left
//! ([`Journal::recover`]); only a persistently failing journal aborts
//! the campaign.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fires_core::{Budget, CancelToken, CoreError, Fires, StemCtx, StemOutcome};

use crate::chaos::{ChaosPlan, Site};
use crate::error::JobError;
use crate::journal::{
    self, EventRecord, Journal, JournalContents, ProgressRecord, UnitRecord, UnitStatus,
};
use crate::spec::{CampaignSpec, ResolvedTask};

/// Locks a mutex, tolerating poisoning: a worker that panicked while
/// holding the lock left data no worse than a kill would, and the
/// journal protocol is already kill-safe.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Hooks into per-unit execution milestones, for embedders that
/// correlate runner activity with outside context (the `fires serve`
/// request tracer). Every method has an empty default body, so an
/// observer implements only what it needs; `None` in the config — the
/// default — costs one branch per milestone and nothing else.
///
/// Methods are called from worker threads, concurrently; `token` is
/// [`RunnerConfig::trace_token`], passed through verbatim so one
/// process-wide observer can demultiplex runs without interior state
/// in the `Copy` config.
pub trait UnitObserver: Sync + std::fmt::Debug {
    /// A worker claimed `(task, stem)` and is about to execute it.
    fn unit_claimed(&self, token: u64, task: usize, stem: usize) {
        let _ = (token, task, stem);
    }

    /// The unit reached its terminal outcome after `seconds` of
    /// wall-clock (any status — the observer sees retries as one unit).
    fn unit_finished(&self, token: u64, task: usize, stem: usize, seconds: f64) {
        let _ = (token, task, stem, seconds);
    }

    /// The unit's terminal record is durably journaled (flushed).
    fn unit_journaled(&self, token: u64, task: usize, stem: usize) {
        let _ = (token, task, stem);
    }
}

/// Knobs of one `run`/`resume` invocation (campaign contents live in the
/// spec/journal, not here).
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// Worker threads; 0 or 1 runs serially on the calling thread.
    pub threads: usize,
    /// Wall-clock budget per work unit; `None` means unbounded.
    pub stem_deadline: Option<Duration>,
    /// Stop scheduling after this many *new* units have been journaled.
    /// A test hook that simulates a mid-campaign kill at a deterministic
    /// point; production runs leave it `None`.
    pub max_units: Option<usize>,
    /// Fault-injection hook for robustness tests: called before each
    /// unit attempt, may order the runner to panic inside the unit or
    /// sleep past the deadline. A plain `fn` pointer so the config stays
    /// `Copy`.
    pub inject: Option<fn(task: usize, stem: usize) -> Injection>,
    /// How many times a panicked unit attempt or a failed journal append
    /// is retried before giving up (quarantine for units, campaign abort
    /// for the journal). 0 — the default — retries nothing.
    pub retries: u32,
    /// Base delay of the exponential backoff between journal-append
    /// retries (doubles per attempt). Unit retries do not wait: a panic
    /// is not load.
    pub backoff: Duration,
    /// Deterministic fault-injection plan for robustness tests; `None`
    /// in production.
    pub chaos: Option<ChaosPlan>,
    /// Cooperative stop flag for long-running embedders (`fires serve`
    /// draining on SIGTERM): once the flag is set, workers stop
    /// *claiming* new units. Units already in flight finish and are
    /// journaled, so the journal left behind is a clean checkpoint —
    /// [`resume`] completes exactly the unclaimed remainder and the
    /// merged report stays byte-identical to an uninterrupted run. A
    /// `&'static` reference keeps the config `Copy`; embedders hold a
    /// process-lifetime flag (a `static` or one intentional leak).
    pub stop: Option<&'static AtomicBool>,
    /// Minimum spacing between journaled progress heartbeats
    /// ([`ProgressRecord`]); `None` disables them. Heartbeats are
    /// best-effort observability for `fires watch`: a lost one is
    /// harmless and the canonical merge ignores them entirely, so they
    /// cannot perturb report determinism. One final heartbeat is always
    /// written when the invocation executed any units, so a finished
    /// campaign's last heartbeat shows `pending == 0`.
    pub progress_interval: Option<Duration>,
    /// Observer notified at per-unit milestones (claim, finish,
    /// journaled); `None` — the default — is zero-cost. A `&'static`
    /// reference for the same reason as [`stop`](Self::stop): the
    /// config stays `Copy` and embedders leak one process-lifetime
    /// observer.
    pub observer: Option<&'static dyn UnitObserver>,
    /// Opaque token handed to every [`observer`](Self::observer) call,
    /// so one shared observer can attribute milestones to the run that
    /// produced them (`fires serve` passes the job key). Meaningless
    /// without an observer.
    pub trace_token: u64,
}

/// What the [`RunnerConfig::inject`] hook asks a unit to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Run normally.
    Run,
    /// Panic inside the unit (exercises panic isolation).
    Panic,
    /// Sleep this long before running (exercises deadline handling).
    Sleep(Duration),
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            threads: 1,
            stem_deadline: None,
            max_units: None,
            inject: None,
            retries: 0,
            backoff: Duration::from_millis(10),
            chaos: None,
            stop: None,
            progress_interval: Some(Duration::from_millis(500)),
            observer: None,
            trace_token: 0,
        }
    }
}

/// What one `run`/`resume` invocation did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Units completed by *this* invocation (any status).
    pub executed: usize,
    /// Units skipped because a prior invocation had journaled them.
    pub skipped: usize,
    /// Units of this invocation that ended in `panic`.
    pub panicked: usize,
    /// Units of this invocation that ended in `timeout`.
    pub timed_out: usize,
    /// Units of this invocation that ended in `exhausted` (budget hit;
    /// partial results journaled, excluded from redundancy claims).
    pub exhausted: usize,
    /// Retry attempts this invocation performed (unit re-runs plus
    /// journal re-appends), across all units.
    pub retried: usize,
    /// Units still unprocessed (only nonzero when `max_units` stopped
    /// the run early — or the process was killed harder than that).
    pub remaining: usize,
}

impl RunSummary {
    /// `true` when every unit of the campaign has a journal record.
    pub fn complete(&self) -> bool {
        self.remaining == 0
    }
}

/// Creates the journal at `journal_path` and runs the campaign.
///
/// # Errors
///
/// Spec resolution errors, or [`JobError::Io`] — notably when the
/// journal already exists (resume it instead).
pub fn run(
    spec: &CampaignSpec,
    journal_path: &Path,
    rc: &RunnerConfig,
) -> Result<RunSummary, JobError> {
    let tasks = spec.resolve()?;
    run_with_tasks(spec, &tasks, journal_path, rc)
}

/// [`run`] over an already-resolved task list.
///
/// `tasks` must be the output of `spec.resolve()` in this build. Task
/// resolution generates every circuit and is a campaign's fixed setup
/// cost, so long-running embedders (`fires serve`'s engine-build cache)
/// resolve once and pass the shared resolution to each run instead of
/// paying it per submission.
pub fn run_with_tasks(
    spec: &CampaignSpec,
    tasks: &[ResolvedTask],
    journal_path: &Path,
    rc: &RunnerConfig,
) -> Result<RunSummary, JobError> {
    let engines = build_engines(tasks)?;
    let budgets: Vec<Budget> = tasks.iter().map(|t| t.budget).collect();
    let stem_ids: Vec<Vec<fires_netlist::LineId>> = engines.iter().map(|e| e.stems()).collect();
    let stems: Vec<usize> = stem_ids.iter().map(Vec::len).collect();
    let header = journal::header_for(spec, tasks, &stems);
    let journal = Journal::create(journal_path, &header)?;
    let fresh = JournalContents {
        header,
        units: Vec::new(),
        events: Vec::new(),
        progress: Vec::new(),
        torn: false,
    };
    execute(&engines, &stem_ids, &budgets, journal, &fresh, rc)
}

/// Re-opens an existing journal and runs every unit it has no record of.
///
/// The journal header is verified against this build first: if a circuit
/// generator or the stem order changed since the journal was written,
/// resuming would misattribute work, so it is refused with
/// [`JobError::Mismatch`].
pub fn resume(journal_path: &Path, rc: &RunnerConfig) -> Result<RunSummary, JobError> {
    let contents = journal::read(journal_path)?;
    let tasks = contents.header.spec.resolve()?;
    let engines = build_engines(&tasks)?;
    let budgets: Vec<Budget> = tasks.iter().map(|t| t.budget).collect();
    let stem_ids: Vec<Vec<fires_netlist::LineId>> = engines.iter().map(|e| e.stems()).collect();
    let stems: Vec<usize> = stem_ids.iter().map(Vec::len).collect();
    journal::verify_header(&contents.header, &tasks, &stems)?;
    let journal = Journal::append_to(journal_path)?;
    execute(&engines, &stem_ids, &budgets, journal, &contents, rc)
}

/// Builds one [`Fires`] engine per resolved task, in task order.
///
/// Engine setup is the expensive part of a campaign's fixed cost, so the
/// runner, [`report`](crate::report) and [`merge`](crate::merge::merge)
/// all build the engines exactly once and share them.
pub fn build_engines(tasks: &[ResolvedTask]) -> Result<Vec<Fires<'_>>, JobError> {
    tasks
        .iter()
        .map(|t| Ok(Fires::try_new(&t.circuit, t.config)?))
        .collect()
}

/// Suppresses the default panic-hook backtrace for panics the runner
/// catches on purpose (injected ones and genuine stem bugs alike), while
/// leaving panics elsewhere as loud as ever.
fn quiet_caught_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(|f| f.load(Ordering::Relaxed)) {
                previous(info);
            }
        }));
    });
}

thread_local! {
    static SUPPRESS_PANIC_OUTPUT: AtomicBool = const { AtomicBool::new(false) };
}

fn execute(
    engines: &[Fires],
    stem_ids: &[Vec<fires_netlist::LineId>],
    budgets: &[Budget],
    journal: Journal,
    prior: &JournalContents,
    rc: &RunnerConfig,
) -> Result<RunSummary, JobError> {
    quiet_caught_panics();
    let done = prior.done();
    // The full deterministic unit list; `done` units are skipped at
    // claim time so indices stay identical across run and resume.
    let units: Vec<(usize, usize)> = stem_ids
        .iter()
        .enumerate()
        .flat_map(|(t, ids)| (0..ids.len()).map(move |s| (t, s)))
        .collect();
    let skipped = units.iter().filter(|u| done.contains(u)).count();

    let cursor = AtomicUsize::new(0);
    let unit_quota = AtomicUsize::new(rc.max_units.unwrap_or(usize::MAX));
    let journal = Mutex::new(journal);
    let failure: Mutex<Option<JobError>> = Mutex::new(None);
    let executed = AtomicUsize::new(0);
    let panicked = AtomicUsize::new(0);
    let timed_out = AtomicUsize::new(0);
    let exhausted = AtomicUsize::new(0);
    let retried = AtomicUsize::new(0);

    // Heartbeat state. Counts in a ProgressRecord are cumulative over
    // the whole journal, so a resumed run folds in the prior contents.
    let threads = rc.threads.max(1);
    let run_started = Instant::now();
    let last_beat_ms = AtomicU64::new(0);
    let busy = AtomicUsize::new(0);
    let prior_counts = {
        let count = |s: UnitStatus| prior.units.iter().filter(|u| u.status == s).count() as u64;
        (
            count(UnitStatus::Ok),
            count(UnitStatus::Panic),
            count(UnitStatus::Timeout),
            count(UnitStatus::Exhausted),
            prior.units.iter().map(|u| u.retries).sum::<u64>(),
        )
    };
    let heartbeat = || -> ProgressRecord {
        let (p_ok, p_panic, p_timeout, p_exhausted, p_retried) = prior_counts;
        let ex = executed.load(Ordering::Relaxed) as u64;
        let bad = panicked.load(Ordering::Relaxed) as u64
            + timed_out.load(Ordering::Relaxed) as u64
            + exhausted.load(Ordering::Relaxed) as u64;
        let done = skipped as u64 + ex;
        let elapsed = run_started.elapsed().as_secs_f64();
        ProgressRecord {
            done,
            pending: (units.len() as u64).saturating_sub(done),
            ok: p_ok + ex.saturating_sub(bad),
            panicked: p_panic + panicked.load(Ordering::Relaxed) as u64,
            timed_out: p_timeout + timed_out.load(Ordering::Relaxed) as u64,
            exhausted: p_exhausted + exhausted.load(Ordering::Relaxed) as u64,
            retried: p_retried + retried.load(Ordering::Relaxed) as u64,
            elapsed_seconds: elapsed,
            units_per_second: if elapsed > 0.0 {
                ex as f64 / elapsed
            } else {
                0.0
            },
            workers: threads as u64,
            busy: busy.load(Ordering::Relaxed) as u64,
        }
    };
    // Best-effort: the winning worker appends one heartbeat per elapsed
    // interval. A failed append is dropped silently — heartbeats carry
    // no result data and must never fail a campaign.
    let maybe_heartbeat = || {
        let Some(interval) = rc.progress_interval else {
            return;
        };
        let now_ms = run_started.elapsed().as_millis() as u64;
        let prev = last_beat_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(prev) >= interval.as_millis() as u64
            && last_beat_ms
                .compare_exchange(prev, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            let _ = lock_unpoisoned(&journal).append_progress(&heartbeat());
        }
    };

    let worker = || {
        // Implication caches are per-circuit; keyed by task index. A
        // panicked unit may leave them mid-update, so they are rebuilt
        // after every catch.
        let mut ctxs: HashMap<usize, StemCtx> = HashMap::new();
        loop {
            // Checked before the claim so a drained unit stays
            // unclaimed for the resume, not skipped by a dead cursor.
            if rc.stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(task, stem)) = units.get(i) else {
                return;
            };
            if done.contains(&(task, stem)) {
                continue;
            }
            // Claim quota *before* running, so `max_units` cuts the
            // campaign at an exact unit count.
            if unit_quota
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_err()
            {
                return;
            }
            busy.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = rc.observer {
                o.unit_claimed(rc.trace_token, task, stem);
            }
            let (record, events) = run_unit(
                &engines[task],
                stem_ids[task][stem],
                task,
                stem,
                ctxs.entry(task)
                    .or_insert_with(|| StemCtx::builder().budget(budgets[task]).build()),
                budgets[task],
                rc,
            );
            busy.fetch_sub(1, Ordering::Relaxed);
            if let Some(o) = rc.observer {
                o.unit_finished(rc.trace_token, task, stem, record.seconds);
            }
            if record.status == UnitStatus::Panic {
                // Terminal panic: quarantine the unit and rebuild the
                // task's caches (the panic may have left them mid-update).
                ctxs.remove(&task);
                panicked.fetch_add(1, Ordering::Relaxed);
            }
            if record.status == UnitStatus::Timeout {
                timed_out.fetch_add(1, Ordering::Relaxed);
            }
            if record.status == UnitStatus::Exhausted {
                exhausted.fetch_add(1, Ordering::Relaxed);
            }
            retried.fetch_add(record.retries as usize, Ordering::Relaxed);
            executed.fetch_add(1, Ordering::Relaxed);
            for event in &events {
                match append_with_retry(&journal, rc, task, stem, |j| {
                    j.append_event(event).map(|_seq| ())
                }) {
                    Ok(io_retries) => {
                        retried.fetch_add(io_retries as usize, Ordering::Relaxed);
                    }
                    Err(e) => {
                        *lock_unpoisoned(&failure) = Some(e);
                        return;
                    }
                }
            }
            // Encoded outside the journal lock, so workers do not queue
            // behind each other's encoding.
            let line = record.encode();
            match append_with_retry(&journal, rc, task, stem, |j| j.append(&line)) {
                Ok(0) => {}
                Ok(io_retries) => {
                    retried.fetch_add(io_retries as usize, Ordering::Relaxed);
                    // Journal the recovered degradation (best-effort: the
                    // unit record itself is already safe on disk).
                    let _ = lock_unpoisoned(&journal).append_event(&EventRecord {
                        seq: 0,
                        task,
                        stem,
                        attempt: u64::from(io_retries),
                        what: "journal-retry".into(),
                        detail: format!(
                            "append succeeded after {io_retries} transient IO failure(s)"
                        ),
                    });
                }
                Err(e) => {
                    *lock_unpoisoned(&failure) = Some(e);
                    return;
                }
            }
            if let Some(o) = rc.observer {
                o.unit_journaled(rc.trace_token, task, stem);
            }
            maybe_heartbeat();
        }
    };

    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }

    // Final heartbeat: a finished (or cleanly stopped) invocation leaves
    // an up-to-date progress line so `fires watch` converges without
    // waiting for an interval to elapse.
    if rc.progress_interval.is_some() && executed.load(Ordering::Relaxed) > 0 {
        let _ = lock_unpoisoned(&journal).append_progress(&heartbeat());
    }

    let failure = match failure.into_inner() {
        Ok(f) => f,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(e) = failure {
        return Err(e);
    }
    let executed = executed.into_inner();
    Ok(RunSummary {
        executed,
        skipped,
        panicked: panicked.into_inner(),
        timed_out: timed_out.into_inner(),
        exhausted: exhausted.into_inner(),
        retried: retried.into_inner(),
        remaining: units.len() - skipped - executed,
    })
}

/// Exponential backoff delay before IO retry number `attempt`.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(10))
}

/// Performs one journal write, retrying transient failures with
/// exponential backoff and tail repair. Chaos-injected failures (keyed
/// deterministically by `(task, stem, attempt)`) fire *before* any byte
/// reaches the file. Returns how many retries were needed.
fn append_with_retry(
    journal: &Mutex<Journal>,
    rc: &RunnerConfig,
    task: usize,
    stem: usize,
    write: impl Fn(&mut Journal) -> Result<(), JobError>,
) -> Result<u32, JobError> {
    let mut attempt: u32 = 0;
    loop {
        let injected = rc.chaos.is_some_and(|plan| {
            plan.hits(Site::JournalIo, task as u64, stem as u64, attempt.into())
        });
        let result = if injected {
            Err(JobError::io(
                lock_unpoisoned(journal).path().to_path_buf(),
                std::io::Error::other("chaos: injected journal append failure"),
            ))
        } else {
            write(&mut lock_unpoisoned(journal))
        };
        match result {
            Ok(()) => return Ok(attempt),
            Err(_) if attempt < rc.retries => {
                if !injected {
                    // A real failed append may have torn the tail;
                    // repair before retrying. Recovery failure is not
                    // fatal here — the retried append will surface it.
                    let _ = lock_unpoisoned(journal).recover();
                }
                std::thread::sleep(backoff_delay(rc.backoff, attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs one unit to its terminal record, retrying panicked attempts up
/// to `rc.retries` times. Also returns the retry events to journal
/// *before* the terminal record.
fn run_unit(
    fires: &Fires,
    stem_line: fires_netlist::LineId,
    task: usize,
    stem: usize,
    ctx: &mut StemCtx,
    budget: Budget,
    rc: &RunnerConfig,
) -> (UnitRecord, Vec<EventRecord>) {
    let started = Instant::now();
    let mut events = Vec::new();
    let mut attempt: u32 = 0;
    loop {
        let mut record = run_attempt(fires, stem_line, task, stem, ctx, rc, attempt, started);
        // Only panics are retried: a timeout would just run out of clock
        // again, and exhaustion is deterministic by design.
        if record.status == UnitStatus::Panic && attempt < rc.retries {
            // The panic may have left the shared implication caches
            // mid-update; rebuild them (and drop the scratch pool)
            // before the next attempt.
            *ctx = StemCtx::builder().budget(budget).build();
            events.push(EventRecord {
                seq: 0,
                task,
                stem,
                attempt: u64::from(attempt),
                what: "unit-retry".into(),
                detail: "attempt panicked; caches rebuilt".into(),
            });
            attempt += 1;
            continue;
        }
        record.retries = u64::from(attempt);
        return (record, events);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_attempt(
    fires: &Fires,
    stem_line: fires_netlist::LineId,
    task: usize,
    stem: usize,
    ctx: &mut StemCtx,
    rc: &RunnerConfig,
    attempt: u32,
    started: Instant,
) -> UnitRecord {
    let cancel = match rc.stem_deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::never(),
    };
    let injection = rc
        .inject
        .map(|hook| hook(task, stem))
        .unwrap_or(Injection::Run);
    let chaos = rc.chaos;
    SUPPRESS_PANIC_OUTPUT.with(|f| f.store(true, Ordering::Relaxed));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        match injection {
            Injection::Run => {}
            Injection::Panic => panic!("injected panic (robustness test)"),
            Injection::Sleep(d) => std::thread::sleep(d),
        }
        if let Some(plan) = chaos {
            if let Some(d) = plan.unit_delay(task, stem, attempt) {
                std::thread::sleep(d);
            }
            if plan.hits(Site::UnitPanic, task as u64, stem as u64, attempt.into()) {
                panic!("chaos: injected unit panic");
            }
        }
        fires.run_stem(stem_line, ctx, &cancel)
    }));
    SUPPRESS_PANIC_OUTPUT.with(|f| f.store(false, Ordering::Relaxed));
    let seconds = started.elapsed().as_secs_f64();
    let empty = |status| UnitRecord {
        task,
        stem,
        status,
        faults: Vec::new(),
        marks: 0,
        frames: 0,
        retries: 0,
        reason: None,
        seconds,
        phases: Vec::new(),
        metrics: Default::default(),
        profile: None,
    };
    match outcome {
        Ok(Ok(stem_outcome)) => {
            let (status, reason) = match &stem_outcome {
                StemOutcome::Complete(_) => (UnitStatus::Ok, None),
                StemOutcome::Exhausted { reason, .. } => (UnitStatus::Exhausted, Some(*reason)),
            };
            let findings = stem_outcome.into_findings();
            // Untraced builds produce a permanently empty profile; skip
            // the field entirely so their journals stay lean.
            let profile = (!findings.profile.is_empty()).then(|| findings.profile.clone());
            UnitRecord {
                task,
                stem,
                status,
                faults: findings
                    .faults
                    .iter()
                    .map(|f| {
                        (
                            f.fault.line.index() as u32,
                            f.fault.stuck.as_bool(),
                            f.c,
                            f.frame,
                        )
                    })
                    .collect(),
                marks: findings.marks as u64,
                frames: findings.frames_used as u64,
                retries: 0,
                reason,
                seconds,
                phases: findings
                    .phase_times
                    .phases
                    .iter()
                    .map(|(name, d)| (name.clone(), d.as_secs_f64()))
                    .collect(),
                metrics: findings.metrics,
                profile,
            }
        }
        Ok(Err(CoreError::Interrupted { .. })) => empty(UnitStatus::Timeout),
        // Any other CoreError here is a bug (stems come from the engine
        // itself), but a campaign must outlive bugs: record and move on.
        Ok(Err(_)) => empty(UnitStatus::Panic),
        Err(_) => empty(UnitStatus::Panic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::read;

    fn temp(name: &str) -> crate::test_common::TempJournal {
        crate::test_common::TempJournal::new("fires-runner", name, "job.jsonl")
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec::from_circuits("t", ["s27", "fig3"])
    }

    #[test]
    fn run_completes_and_journals_every_unit() {
        let path = temp("complete");
        let summary = run(&small_spec(), &path, &RunnerConfig::default()).unwrap();
        assert!(summary.complete());
        assert_eq!(summary.skipped, 0);
        assert_eq!(summary.panicked, 0);
        let contents = read(&path).unwrap();
        let total: usize = contents.header.tasks.iter().map(|t| t.stems).sum();
        assert_eq!(contents.units.len(), total);
        assert_eq!(summary.executed, total);
    }

    #[test]
    fn run_refuses_existing_journal() {
        let path = temp("exists");
        run(&small_spec(), &path, &RunnerConfig::default()).unwrap();
        assert!(matches!(
            run(&small_spec(), &path, &RunnerConfig::default()),
            Err(JobError::Io { .. })
        ));
    }

    #[test]
    fn max_units_stops_early_and_resume_finishes() {
        let path = temp("resume");
        let rc = RunnerConfig {
            max_units: Some(3),
            ..Default::default()
        };
        let first = run(&small_spec(), &path, &rc).unwrap();
        assert_eq!(first.executed, 3);
        assert!(!first.complete());
        let second = resume(&path, &RunnerConfig::default()).unwrap();
        assert_eq!(second.skipped, 3);
        assert!(second.complete());
        assert_eq!(second.executed, first.remaining);
    }

    #[test]
    fn resume_after_a_torn_final_line_leaves_a_clean_journal() {
        let path = temp("torn-resume");
        let rc = RunnerConfig {
            max_units: Some(2),
            ..Default::default()
        };
        run(&small_spec(), &path, &rc).unwrap();
        // Simulate a kill mid-append: half a record, no newline.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"kind\":\"unit\",\"task\":0,\"ste").unwrap();
        drop(f);
        let summary = resume(&path, &RunnerConfig::default()).unwrap();
        assert!(summary.complete());
        assert_eq!(summary.skipped, 2);
        // Every later read must succeed: the fragment is gone, not glued
        // to the first resumed record.
        let contents = read(&path).unwrap();
        assert!(!contents.torn);
        let total: usize = contents.header.tasks.iter().map(|t| t.stems).sum();
        assert_eq!(contents.units.len(), total);
        crate::report(&path).unwrap();
    }

    #[test]
    fn injected_panic_poisons_only_its_unit() {
        let path = temp("panic");
        fn inject(task: usize, stem: usize) -> Injection {
            if task == 0 && stem == 1 {
                Injection::Panic
            } else {
                Injection::Run
            }
        }
        let rc = RunnerConfig {
            inject: Some(inject),
            ..Default::default()
        };
        let summary = run(&small_spec(), &path, &rc).unwrap();
        assert!(summary.complete());
        assert_eq!(summary.panicked, 1);
        let contents = read(&path).unwrap();
        let bad: Vec<_> = contents
            .units
            .iter()
            .filter(|u| u.status == UnitStatus::Panic)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!((bad[0].task, bad[0].stem), (0, 1));
    }

    #[test]
    fn injected_overrun_times_out_only_its_unit() {
        let path = temp("deadline");
        fn inject(task: usize, stem: usize) -> Injection {
            if task == 1 && stem == 0 {
                Injection::Sleep(Duration::from_millis(50))
            } else {
                Injection::Run
            }
        }
        let rc = RunnerConfig {
            stem_deadline: Some(Duration::from_millis(10)),
            inject: Some(inject),
            ..Default::default()
        };
        let summary = run(&small_spec(), &path, &rc).unwrap();
        assert!(summary.complete());
        assert_eq!(summary.timed_out, 1);
        let contents = read(&path).unwrap();
        let slow: Vec<_> = contents
            .units
            .iter()
            .filter(|u| u.status == UnitStatus::Timeout)
            .collect();
        assert_eq!(slow.len(), 1);
        assert_eq!((slow[0].task, slow[0].stem), (1, 0));
    }

    #[test]
    fn persistent_panic_is_quarantined_after_retries() {
        let path = temp("quarantine");
        fn inject(task: usize, stem: usize) -> Injection {
            if task == 0 && stem == 1 {
                Injection::Panic
            } else {
                Injection::Run
            }
        }
        let rc = RunnerConfig {
            inject: Some(inject),
            retries: 2,
            backoff: Duration::from_millis(1),
            ..Default::default()
        };
        let summary = run(&small_spec(), &path, &rc).unwrap();
        assert!(summary.complete());
        // The hook panics on every attempt, so the unit is quarantined
        // with a terminal panic record after exactly `retries` re-runs.
        assert_eq!(summary.panicked, 1);
        assert_eq!(summary.retried, 2);
        let contents = read(&path).unwrap();
        let bad: Vec<_> = contents
            .units
            .iter()
            .filter(|u| u.status == UnitStatus::Panic)
            .collect();
        assert_eq!(bad.len(), 1);
        assert_eq!((bad[0].task, bad[0].stem), (0, 1));
        assert_eq!(bad[0].retries, 2);
        // Each failed attempt left a journaled retry event.
        assert_eq!(contents.events.len(), 2);
        assert!(contents.events.iter().all(|e| e.what == "unit-retry"));
    }

    #[test]
    fn chaos_panics_converge_with_retries() {
        // Fault-free baseline.
        let clean = temp("chaos-clean");
        run(&small_spec(), &clean, &RunnerConfig::default()).unwrap();
        let baseline = crate::report(&clean).unwrap().canonical_text();

        // Same campaign under injected panics, IO errors and delays:
        // with retries, every unit ends Ok and the canonical report is
        // byte-identical.
        let path = temp("chaos-faulty");
        let rc = RunnerConfig {
            retries: 6,
            backoff: Duration::from_millis(1),
            chaos: Some(
                ChaosPlan::new(0xF17E5)
                    .with_unit_panics(300)
                    .with_journal_errors(250)
                    .with_delays(200, 2),
            ),
            ..Default::default()
        };
        let summary = run(&small_spec(), &path, &rc).unwrap();
        assert!(summary.complete());
        assert_eq!(
            summary.panicked, 0,
            "every chaos panic must be retried away"
        );
        assert!(summary.retried > 0, "the plan must actually inject faults");
        assert_eq!(crate::report(&path).unwrap().canonical_text(), baseline);
    }

    #[test]
    fn step_budget_exhausts_units_and_campaign_completes() {
        let clean = temp("budget-clean");
        let mut spec = small_spec();
        run(&spec, &clean, &RunnerConfig::default()).unwrap();
        let baseline = crate::report(&clean).unwrap().canonical_text();

        // A deliberately tiny step budget: stems exhaust instead of
        // completing, the campaign still finishes, and the exhausted
        // units are journaled as such with their partial results.
        for t in &mut spec.tasks {
            t.step_budget = Some(3);
        }
        let path = temp("budget-tiny");
        let summary = run(&spec, &path, &RunnerConfig::default()).unwrap();
        assert!(summary.complete());
        assert!(summary.exhausted > 0, "a 3-step budget must exhaust stems");
        assert_eq!(summary.panicked, 0);
        let contents = read(&path).unwrap();
        let exhausted: Vec<_> = contents
            .units
            .iter()
            .filter(|u| u.status == UnitStatus::Exhausted)
            .collect();
        assert_eq!(exhausted.len(), summary.exhausted);
        assert!(exhausted.iter().all(|u| u.reason.is_some()));
        // Exhaustion is deterministic: a rerun journals the same terminal
        // statuses and the same canonical report.
        let rerun = temp("budget-tiny-rerun");
        let summary2 = run(&spec, &rerun, &RunnerConfig::default()).unwrap();
        assert_eq!(summary2.exhausted, summary.exhausted);
        assert_eq!(
            crate::report(&path).unwrap().canonical_text(),
            crate::report(&rerun).unwrap().canonical_text()
        );
        // And the budgeted canonical report differs from the unbudgeted
        // one only through the exhausted counts — never by *extra*
        // faults: partial results must not leak into redundancy claims.
        let budgeted = crate::report(&path).unwrap();
        let clean_report = crate::report(&clean).unwrap();
        for (b, c) in budgeted.tasks.iter().zip(&clean_report.tasks) {
            for f in &b.faults {
                assert!(
                    c.faults.contains(f),
                    "budgeted run claimed a fault the clean run did not: {f:?}"
                );
            }
        }
        assert_ne!(crate::report(&path).unwrap().canonical_text(), baseline);
    }

    #[test]
    fn exhausted_units_are_not_rerun_on_resume() {
        let mut spec = small_spec();
        for t in &mut spec.tasks {
            t.step_budget = Some(3);
        }
        let path = temp("budget-resume");
        let rc = RunnerConfig {
            max_units: Some(2),
            ..Default::default()
        };
        let first = run(&spec, &path, &rc).unwrap();
        assert_eq!(first.executed, 2);
        let second = resume(&path, &RunnerConfig::default()).unwrap();
        assert!(second.complete());
        assert_eq!(second.skipped, 2);
        // The resumed half exhausts the same way: the spec (and so the
        // budget) rides in the journal header.
        let rerun = temp("budget-resume-rerun");
        let summary = run(&spec, &rerun, &RunnerConfig::default()).unwrap();
        assert_eq!(first.exhausted + second.exhausted, summary.exhausted);
        assert_eq!(
            crate::report(&path).unwrap().canonical_text(),
            crate::report(&rerun).unwrap().canonical_text()
        );
    }

    #[test]
    fn progress_heartbeats_are_cumulative_across_resume() {
        let path = temp("progress");
        let rc = RunnerConfig {
            max_units: Some(3),
            // Zero spacing: every unit completion beats, so even this
            // fast campaign journals observable progress.
            progress_interval: Some(Duration::ZERO),
            ..Default::default()
        };
        run(&small_spec(), &path, &rc).unwrap();
        let contents = read(&path).unwrap();
        assert!(!contents.progress.is_empty());
        let total: u64 = contents.header.tasks.iter().map(|t| t.stems as u64).sum();
        let last = contents.progress.last().unwrap();
        assert_eq!(last.done, 3);
        assert_eq!(last.pending, total - 3);
        assert_eq!(last.workers, 1);

        // Resume finishes the campaign; its heartbeats fold in the
        // journaled prior so `done` keeps counting from 3, and the final
        // heartbeat shows the campaign drained.
        let rc = RunnerConfig {
            progress_interval: Some(Duration::ZERO),
            ..Default::default()
        };
        resume(&path, &rc).unwrap();
        let contents = read(&path).unwrap();
        let last = contents.progress.last().unwrap();
        assert_eq!(last.done, total);
        assert_eq!(last.pending, 0);
        assert_eq!(last.ok, total);
        assert_eq!(last.panicked + last.timed_out + last.exhausted, 0);
        // Monotone: done never decreases across the whole journal.
        let dones: Vec<u64> = contents.progress.iter().map(|p| p.done).collect();
        assert!(
            dones.windows(2).all(|w| w[0] <= w[1]),
            "done regressed: {dones:?}"
        );
        // Progress records are pure observability: the canonical report
        // of this journal matches a heartbeat-free rerun byte-for-byte.
        let quiet = temp("progress-quiet");
        let rc = RunnerConfig {
            progress_interval: None,
            ..Default::default()
        };
        run(&small_spec(), &quiet, &rc).unwrap();
        assert!(read(&quiet).unwrap().progress.is_empty());
        assert_eq!(
            crate::report(&path).unwrap().canonical_text(),
            crate::report(&quiet).unwrap().canonical_text()
        );
    }

    #[test]
    fn stop_flag_checkpoints_cleanly_for_resume() {
        // The cooperative stop: the first unit's inject hook raises the
        // flag, so that unit finishes and is journaled but nothing new
        // is claimed — exactly the drain semantics `fires serve` needs.
        static STOP: AtomicBool = AtomicBool::new(false);
        fn raise(_: usize, _: usize) -> Injection {
            STOP.store(true, Ordering::SeqCst);
            Injection::Run
        }
        let clean = temp("stop-clean");
        run(&small_spec(), &clean, &RunnerConfig::default()).unwrap();
        let baseline = crate::report(&clean).unwrap().canonical_text();

        let path = temp("stop");
        let rc = RunnerConfig {
            inject: Some(raise),
            stop: Some(&STOP),
            ..Default::default()
        };
        let first = run(&small_spec(), &path, &rc).unwrap();
        assert_eq!(first.executed, 1, "in-flight unit finishes, no new claims");
        assert!(!first.complete());
        // The journal is a clean checkpoint: resume completes the
        // unclaimed remainder and the report is byte-identical.
        let second = resume(&path, &RunnerConfig::default()).unwrap();
        assert!(second.complete());
        assert_eq!(second.skipped, 1);
        assert_eq!(crate::report(&path).unwrap().canonical_text(), baseline);
    }

    #[test]
    fn observer_sees_every_unit_milestone_with_its_token() {
        #[derive(Debug, Default)]
        struct Counting {
            claimed: AtomicUsize,
            finished: AtomicUsize,
            journaled: AtomicUsize,
            bad_token: AtomicBool,
        }
        impl UnitObserver for Counting {
            fn unit_claimed(&self, token: u64, _: usize, _: usize) {
                if token != 42 {
                    self.bad_token.store(true, Ordering::Relaxed);
                }
                self.claimed.fetch_add(1, Ordering::Relaxed);
            }
            fn unit_finished(&self, _: u64, _: usize, _: usize, seconds: f64) {
                assert!(seconds >= 0.0);
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
            fn unit_journaled(&self, _: u64, _: usize, _: usize) {
                self.journaled.fetch_add(1, Ordering::Relaxed);
            }
        }
        let obs: &'static Counting = Box::leak(Box::new(Counting::default()));
        let path = temp("observer");
        let rc = RunnerConfig {
            threads: 4,
            observer: Some(obs),
            trace_token: 42,
            ..Default::default()
        };
        let summary = run(&small_spec(), &path, &rc).unwrap();
        assert!(summary.complete());
        let total = summary.executed;
        assert_eq!(obs.claimed.load(Ordering::Relaxed), total);
        assert_eq!(obs.finished.load(Ordering::Relaxed), total);
        assert_eq!(obs.journaled.load(Ordering::Relaxed), total);
        assert!(!obs.bad_token.load(Ordering::Relaxed));
        // The observer is pure observability: the canonical report
        // matches an unobserved run byte-for-byte.
        let quiet = temp("observer-quiet");
        run(&small_spec(), &quiet, &RunnerConfig::default()).unwrap();
        assert_eq!(
            crate::report(&path).unwrap().canonical_text(),
            crate::report(&quiet).unwrap().canonical_text()
        );
    }

    #[test]
    fn threaded_run_covers_every_unit_once() {
        let path = temp("threads");
        let rc = RunnerConfig {
            threads: 8,
            ..Default::default()
        };
        run(&small_spec(), &path, &rc).unwrap();
        let contents = read(&path).unwrap();
        let mut seen = std::collections::HashSet::new();
        for u in &contents.units {
            assert!(seen.insert((u.task, u.stem)), "unit ran twice");
        }
        let total: usize = contents.header.tasks.iter().map(|t| t.stems).sum();
        assert_eq!(seen.len(), total);
    }
}
