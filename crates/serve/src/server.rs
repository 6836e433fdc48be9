//! The `fires serve` daemon: a long-running campaign service over a
//! Unix-domain socket.
//!
//! # Architecture
//!
//! One accept loop hands each connection to a short-lived handler
//! thread; a fixed pool of worker threads drains a bounded admission
//! queue of jobs. A *job* is a campaign keyed by the stable content
//! hash of its resolved tasks ([`fires_core::content_hash`] per task,
//! folded with the per-stem step budget), so two submissions that would
//! produce byte-identical canonical reports share one key — and one
//! execution (single-flight: a duplicate submitted while the first is
//! queued or running just attaches to it).
//!
//! # Result store
//!
//! The store is two-tier and content-addressed. The durable tier is the
//! job's ordinary campaign journal at `<state_dir>/jobs/<key>.jsonl`:
//! the deterministic merge re-derives the canonical report from it at
//! any time, byte-identically. The fast tier is an in-memory
//! [`ResultCache`] of canonical texts with LRU byte-budget eviction; an
//! evicted result is re-merged from its journal on the next hit. On
//! startup the server scans the jobs directory: complete journals are
//! re-indexed as cache-servable results, incomplete ones (a previous
//! server was killed mid-campaign) are re-queued as resumes, and
//! unreadable ones are renamed `<key>.jsonl.quarantined` — never
//! silently skipped — so a SIGKILLed server finishes its in-flight work
//! after restart with the same canonical bytes an uninterrupted run
//! would have produced.
//!
//! # Failure model
//!
//! The daemon degrades instead of failing, and every degradation is a
//! counted `serve.degraded.*` metric:
//!
//! * a slow or dead subscriber is bounded by a per-subscriber
//!   [`ProgressQueue`] (progress frames coalesce latest-wins) and a
//!   socket write deadline — it can lose progress granularity and
//!   eventually its connection, never stall a worker or the accept
//!   loop;
//! * a result that cannot enter the memory tier (injected ENOSPC, or
//!   larger than the whole budget) is served journal-only from then on;
//! * SIGTERM (or `shutdown --drain`) starts a *graceful drain*:
//!   admission answers with a typed `draining` line, workers stop
//!   claiming new units so in-flight jobs checkpoint via their
//!   journals, subscribers are flushed a final frame, and the process
//!   exits within `drain_timeout` (`serve.drained`,
//!   `serve.drain_timeouts`);
//! * the runner's deterministic
//!   [`ChaosPlan`](fires_jobs::ChaosPlan) (`--chaos-*` flags) also
//!   injects accept/read/write socket faults, client stalls, disk
//!   faults and delayed worker wakeups, so all of the above is
//!   exercised by tests rather than trusted;
//! * a watchdog journals a heartbeat to `<state_dir>/heartbeat.json`
//!   and the `health`/`ready` verbs report liveness, staleness and
//!   drain state.
//!
//! # Tenancy
//!
//! Every submission names a tenant. Admission enforces a global queue
//! bound and a per-tenant active-job limit, and a tenant's configured
//! step cap clamps the per-stem [`Budget`](fires_core::Budget) of its
//! jobs (the clamp changes the content key, as budgets change results).
//! Rejections are counted per tenant in the server metrics, which
//! `fires status --socket` exposes as a `RunReport`-compatible JSON
//! document.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use fires_core::ContentHasher;
use fires_jobs::{
    journal, report_with_tasks, resume, run_with_tasks, CampaignSpec, JournalSummary, ResolvedTask,
    RunnerConfig, Site, UnitObserver,
};
use fires_obs::{names, render_prometheus, FieldValue, Json, RunReport, SeriesRegistry};

use crate::cache::ResultCache;
use crate::flight::FlightRecorder;
use crate::proto::{Request, Response, SubmitRequest};
use crate::signal;
use crate::subscribers::ProgressQueue;
use crate::trace::TraceStore;

/// Domain tag of the job content key ("job" in ASCII), so job keys can
/// never collide with the per-task hashes they are folded from.
const DOMAIN_JOB: u64 = 0x6a_6f_62;

/// The stable content key of a resolved campaign: per-task
/// `content_hash(circuit, config)` plus the per-stem step budget (which
/// changes results, so it must change the key), folded in task order.
pub fn job_key(tasks: &[ResolvedTask]) -> u64 {
    let mut h = ContentHasher::new(DOMAIN_JOB);
    h.write_usize(tasks.len());
    for t in tasks {
        h.write_u64(fires_core::content_hash(&t.circuit, &t.config));
        match t.budget.max_steps {
            Some(steps) => {
                h.write_u64(1).write_u64(steps);
            }
            None => {
                h.write_u64(0);
            }
        }
    }
    h.finish()
}

/// Everything `fires serve` is configured with.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix-domain socket path the daemon listens on.
    pub socket: PathBuf,
    /// State directory; journals live under `<state_dir>/jobs/`.
    pub state_dir: PathBuf,
    /// Worker threads draining the job queue (each job then runs on
    /// `runner.threads` threads of its own).
    pub workers: usize,
    /// Runner knobs every job executes under.
    pub runner: RunnerConfig,
    /// Byte budget of the in-memory result cache.
    pub cache_bytes: usize,
    /// Maximum queued (admitted but not yet running) jobs.
    pub max_queue: usize,
    /// Maximum queued-or-running jobs per tenant.
    pub tenant_active: usize,
    /// Step cap applied to tenants without an explicit entry in
    /// `tenant_steps`; `None` leaves them unclamped.
    pub default_steps: Option<u64>,
    /// Per-tenant step caps, clamping each job's per-stem budget.
    pub tenant_steps: Vec<(String, u64)>,
    /// Test hook: sleep this long before executing each job, so tests
    /// can deterministically overlap submissions with a running build.
    pub build_delay: Option<Duration>,
    /// Bound on a graceful drain: once elapsed, the server exits even
    /// if a worker has not checkpointed (its journal is still
    /// torn-tail-safe; the restart resumes it).
    pub drain_timeout: Duration,
    /// Capacity of each subscriber's bounded progress queue.
    pub subscriber_queue: usize,
    /// Per-frame write deadline for subscribers; a client that cannot
    /// take a frame within this long is disconnected.
    pub write_timeout: Duration,
    /// Watchdog heartbeat interval.
    pub heartbeat_interval: Duration,
    /// Maximum length of one protocol request line, in bytes.
    pub max_line_bytes: usize,
    /// Events the flight recorder retains (oldest dropped first).
    pub flight_capacity: usize,
}

impl ServeConfig {
    /// A configuration with production-shaped defaults for the given
    /// socket and state directory.
    pub fn new(socket: impl Into<PathBuf>, state_dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            socket: socket.into(),
            state_dir: state_dir.into(),
            workers: 2,
            runner: RunnerConfig {
                progress_interval: Some(Duration::from_millis(500)),
                ..RunnerConfig::default()
            },
            cache_bytes: 8 << 20,
            max_queue: 64,
            tenant_active: 4,
            default_steps: None,
            tenant_steps: Vec::new(),
            build_delay: None,
            drain_timeout: Duration::from_secs(30),
            subscriber_queue: 8,
            write_timeout: Duration::from_secs(10),
            heartbeat_interval: Duration::from_secs(2),
            max_line_bytes: 256 << 10,
            flight_capacity: 256,
        }
    }

    /// The step cap of one tenant: its explicit entry, else the
    /// default cap.
    fn tenant_cap(&self, tenant: &str) -> Option<u64> {
        self.tenant_steps
            .iter()
            .find(|(t, _)| t == tenant)
            .map(|(_, s)| *s)
            .or(self.default_steps)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Debug)]
enum Phase {
    Queued,
    Running,
    Done,
    Failed(String),
}

/// One known job: its normalized spec, resolved tasks (shared with the
/// worker and any re-merge) and lifecycle phase.
struct JobEntry {
    spec: CampaignSpec,
    tasks: Arc<Vec<ResolvedTask>>,
    tenant: String,
    phase: Phase,
    /// When the job last entered the queue, for the queue-wait series.
    queued_at: Instant,
}

/// Everything behind the state mutex.
struct State {
    jobs: HashMap<u64, JobEntry>,
    queue: VecDeque<u64>,
    cache: ResultCache,
    metrics: fires_obs::RunMetrics,
    /// Labeled (tenant/job) exposition series; never enters reports.
    series: SeriesRegistry,
    /// Queued-or-running jobs per tenant, for the admission limit.
    active: HashMap<String, usize>,
}

/// One monotonic event counter per service injection site. `next()`
/// hands out the event index that keys the corresponding
/// [`ChaosPlan`](fires_jobs::ChaosPlan) decision, so decision `n` at a
/// site is a pure function of `(seed, site, n)`.
#[derive(Debug, Default)]
struct ChaosCounters {
    /// Accept events seen.
    accepts: AtomicU64,
    /// Request-read events seen.
    reads: AtomicU64,
    /// Response-write events seen.
    writes: AtomicU64,
    /// Connection-stall decision points seen.
    stalls: AtomicU64,
    /// Disk-write events seen (cache inserts + heartbeats).
    disks: AtomicU64,
}

/// Claims the next event index from a site counter.
fn next(counter: &AtomicU64) -> u64 {
    counter.fetch_add(1, Ordering::Relaxed)
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Wakes workers when the queue grows or the server stops.
    wake: Condvar,
    /// Wakes waiters/watchers when any job reaches a terminal phase.
    done: Condvar,
    /// Exit now: workers return, the accept loop breaks.
    stopping: AtomicBool,
    /// Admission is closed and in-flight jobs are checkpointing; the
    /// accept loop turns this into `stopping` once workers finish or
    /// the drain timeout elapses.
    draining: AtomicBool,
    /// Cooperative stop flag shared with every job's `RunnerConfig`
    /// (`&'static` because `RunnerConfig` is `Copy`); setting it makes
    /// runner workers stop *claiming* units, which is what turns "let
    /// in-flight jobs checkpoint" into a bounded wait.
    runner_stop: &'static AtomicBool,
    /// Workers still inside [`Inner::worker`].
    live_workers: AtomicUsize,
    /// Per-site event counters keying service-site chaos decisions.
    counters: ChaosCounters,
    started: Instant,
    /// Last watchdog beat, for staleness reporting.
    last_beat: Mutex<Instant>,
    /// Always-on ring of structured service events, dumped on crash
    /// triggers and `debug-dump` (`Arc` so the panic hook can hold it).
    flight: Arc<FlightRecorder>,
    /// Per-request trace collector (`Arc` shared with the leaked
    /// [`UnitObserver`] every job's runner reports into).
    trace: Arc<TraceStore>,
}

/// What admission decided about one submission.
enum Admission {
    Hit { job: String, report: Arc<String> },
    Accepted { key: u64, job: String },
    Rejected { reason: String },
    Draining,
}

/// How one job execution ended, from the worker's point of view.
enum RunOutcome {
    Done(Arc<String>),
    /// The run stopped incomplete *because the server is draining*: the
    /// journal is a clean checkpoint and the restart resumes it.
    Checkpointed,
    Failed(String),
}

/// The bridge from runner unit milestones into the request trace: one
/// instant per completed unit and per journal append, keyed by the
/// `trace_token` the worker set to the job's content key. Leaked once
/// per server (the `Copy` [`RunnerConfig`] needs a `&'static`).
#[derive(Debug)]
struct TraceObserver(Arc<TraceStore>);

impl UnitObserver for TraceObserver {
    fn unit_finished(&self, token: u64, task: usize, stem: usize, seconds: f64) {
        if !self.0.tracing(token) {
            return; // idle or unwatched job: one map lookup, no alloc
        }
        self.0.instant(
            token,
            "unit",
            vec![
                ("task", FieldValue::U64(task as u64)),
                ("stem", FieldValue::U64(stem as u64)),
                ("ms", FieldValue::F64(seconds * 1e3)),
            ],
        );
    }

    fn unit_journaled(&self, token: u64, task: usize, stem: usize) {
        if !self.0.tracing(token) {
            return;
        }
        self.0.instant(
            token,
            "journal_append",
            vec![
                ("task", FieldValue::U64(task as u64)),
                ("stem", FieldValue::U64(stem as u64)),
            ],
        );
    }
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn jobs_dir(&self) -> PathBuf {
        self.cfg.state_dir.join("jobs")
    }

    fn journal_path(&self, job_id: &str) -> PathBuf {
        self.jobs_dir().join(format!("{job_id}.jsonl"))
    }

    fn traces_dir(&self) -> PathBuf {
        self.cfg.state_dir.join("traces")
    }

    /// Dumps the flight recorder to `<state_dir>/flight-<ts>.jsonl`,
    /// recording the trigger itself first so the dump ends with its own
    /// cause. Best-effort: a failed dump is counted nowhere — it runs
    /// on crash paths where nothing may panic.
    fn flight_dump(&self, reason: &'static str) -> Result<(PathBuf, usize), String> {
        self.flight.record("dump", {
            let mut d = Json::object();
            d.set("reason", reason);
            d
        });
        let dumped = self.flight.dump(&self.cfg.state_dir, reason)?;
        self.lock().metrics.incr(names::FLIGHT_DUMPS, 1);
        Ok(dumped)
    }

    /// The Prometheus text exposition document: the flat metrics
    /// registry plus the labeled tenant/job series, with the
    /// scrape-time gauges (queue depth, uptime) set on the way out.
    /// The gauges live only in the rendered document — the flat
    /// registry that rides inside status/exit reports never sees them.
    fn metrics_text(&self) -> String {
        let uptime = self.started.elapsed().as_secs();
        let st = self.lock();
        let mut series = st.series.clone();
        series.set(names::QUEUE_DEPTH, &[], st.queue.len() as u64);
        series.set(names::UPTIME_SECONDS, &[], uptime);
        render_prometheus(&st.metrics, &series)
    }

    /// Starts shutting down. `drain: false` exits as soon as every
    /// thread notices; `drain: true` closes admission and lets the
    /// accept loop orchestrate a bounded checkpoint-and-exit.
    fn begin_shutdown(&self, drain: bool) {
        self.flight.record("shutdown", {
            let mut d = Json::object();
            d.set("drain", drain);
            d
        });
        self.draining.store(true, Ordering::SeqCst);
        self.runner_stop.store(true, Ordering::SeqCst);
        if !drain {
            self.stopping.store(true, Ordering::SeqCst);
        }
        self.wake.notify_all();
        self.done.notify_all();
    }

    /// Should disk-write event `n` fail? One roll per *attempted*
    /// durable write outside the journal (cache inserts, heartbeats).
    fn disk_fault(&self) -> bool {
        self.cfg
            .runner
            .chaos
            .is_some_and(|c| c.hits(Site::Disk, next(&self.counters.disks), 0, 0))
    }

    /// Inserts into the memory tier, absorbing injected ENOSPC and
    /// over-budget evictions as degraded (journal-only) operation.
    fn cache_insert_locked(&self, st: &mut State, key: u64, text: Arc<String>) {
        if self.disk_fault() {
            st.metrics.incr(names::DEGRADED_DISK_FAULTS, 1);
            st.metrics.incr(names::DEGRADED_CACHE_INSERT_FAILURES, 1);
            self.flight_absorbed("cache-insert-disk-fault", &format!("{key:016x}"));
            return;
        }
        if !st.cache.insert(key, text) {
            st.metrics.incr(names::DEGRADED_CACHE_INSERT_FAILURES, 1);
            self.flight_absorbed("cache-insert-failure", &format!("{key:016x}"));
        }
    }

    /// Writes one response line, with injected write faults. An
    /// injected fault reports the client as gone — the degraded path a
    /// real `EPIPE` would take.
    fn send(&self, out: &mut UnixStream, response: &Response) -> std::io::Result<()> {
        if let Some(c) = self.cfg.runner.chaos {
            if c.hits(Site::Write, next(&self.counters.writes), 0, 0) {
                self.lock().metrics.incr(names::DEGRADED_WRITE_FAULTS, 1);
                self.flight_absorbed("write-fault", "");
                return Err(std::io::Error::new(
                    ErrorKind::BrokenPipe,
                    "injected write fault",
                ));
            }
        }
        send(out, response)
    }

    /// Builds the normalized spec of one submission: overrides applied,
    /// tenant step cap clamped in, name replaced by the content key so
    /// the canonical report is independent of what the client called
    /// the campaign.
    fn normalize(
        &self,
        s: &SubmitRequest,
    ) -> Result<(CampaignSpec, Arc<Vec<ResolvedTask>>, u64), String> {
        let mut spec = match (&s.suite, s.circuits.is_empty()) {
            (Some(suite), true) => CampaignSpec::suite(suite).map_err(|e| e.to_string())?,
            (None, false) => CampaignSpec::from_circuits("job", s.circuits.clone()),
            (Some(_), false) => return Err("suite and circuits are mutually exclusive".into()),
            (None, true) => return Err("nothing to run: pass suite or circuits".into()),
        };
        let cap = self.cfg.tenant_cap(&s.tenant);
        for t in &mut spec.tasks {
            if let Some(f) = s.frames {
                t.frames = Some(f);
            }
            t.validate = s.validate;
            t.step_budget = match (s.step_budget, cap) {
                (Some(req), Some(cap)) => Some(req.min(cap)),
                (Some(req), None) => Some(req),
                (None, cap) => cap,
            };
        }
        let tasks = spec.resolve().map_err(|e| e.to_string())?;
        let key = job_key(&tasks);
        spec.name = format!("{key:016x}");
        Ok((spec, Arc::new(tasks), key))
    }

    /// One structured flight event for an absorbed degradation — the
    /// flight-recorder twin of a `serve.degraded.*` counter bump.
    fn flight_absorbed(&self, kind: &str, detail: &str) {
        self.flight.record("absorbed", {
            let mut d = Json::object();
            d.set("kind", kind);
            if !detail.is_empty() {
                d.set("detail", detail);
            }
            d
        });
    }

    /// One structured flight event for an admission decision.
    fn flight_admission(&self, what: &'static str, tenant: &str, job: Option<&str>, note: &str) {
        let mut d = Json::object();
        d.set("tenant", tenant);
        if let Some(job) = job {
            d.set("job", job);
        }
        if !note.is_empty() {
            d.set("note", note);
        }
        self.flight.record(what, d);
    }

    /// Admission control: drain gate, cache lookup, single-flight
    /// attach, queue and tenant limits, enqueue.
    fn admit(&self, s: &SubmitRequest) -> Result<Admission, String> {
        // Stamped before any work so the `submit` span covers
        // normalization (spec resolution builds every circuit).
        let submit_ts = self.trace.now_us();
        if self.draining() || self.stopping() {
            // Typed, not an `error`: the client knows the daemon is
            // going away (transient) rather than refusing it (policy),
            // and retries against the restarted instance.
            let mut st = self.lock();
            st.metrics.incr(names::SUBMISSIONS, 1);
            st.metrics.incr(names::REJECTED_DRAINING, 1);
            drop(st);
            self.flight_admission("reject", &s.tenant, None, "draining");
            return Ok(Admission::Draining);
        }
        let (spec, tasks, key) = self.normalize(s)?;
        let job_id = spec.name.clone();
        let trace_id = self.trace.mint(key);
        let mut st = self.lock();
        st.metrics.incr(names::SUBMISSIONS, 1);
        st.series
            .incr(names::TENANT_SUBMISSIONS, &[("tenant", &s.tenant)], 1);

        let hit = match st.cache.get(key) {
            Some(report) => Some(report),
            None if matches!(st.jobs.get(&key).map(|j| &j.phase), Some(Phase::Done)) => {
                // Durable tier: the complete journal re-merges to the
                // same canonical bytes the evicted entry held.
                Some(self.report_text_locked(&mut st, key)?)
            }
            None => None,
        };
        if let Some(report) = hit {
            st.metrics.incr(names::CACHE_HITS, 1);
            drop(st);
            if self
                .trace
                .write_cache_hit(&self.traces_dir(), trace_id, &s.tenant, key, submit_ts)
                .is_some()
            {
                self.lock().metrics.incr(names::TRACES_WRITTEN, 1);
            }
            self.flight_admission("admit", &s.tenant, Some(&job_id), "cache-hit");
            return Ok(Admission::Hit {
                job: job_id,
                report,
            });
        }
        if matches!(
            st.jobs.get(&key).map(|j| &j.phase),
            Some(Phase::Queued) | Some(Phase::Running)
        ) {
            // Single-flight: attach to the in-flight execution.
            st.metrics.incr(names::DEDUPED, 1);
            drop(st);
            self.trace.attach(key, trace_id, &s.tenant);
            self.trace.instant(key, "deduped", Vec::new());
            self.flight_admission("admit", &s.tenant, Some(&job_id), "deduped");
            return Ok(Admission::Accepted { key, job: job_id });
        }
        // Tenant limit before queue bound: a tenant over its own limit
        // is told so even when the shared queue also happens to be
        // full, so the rejection reason is actionable (and stable).
        let tenant_active = st.active.get(&s.tenant).copied().unwrap_or(0);
        if tenant_active >= self.cfg.tenant_active {
            st.metrics
                .incr(&format!("{}{}", names::REJECTED_PREFIX, s.tenant), 1);
            drop(st);
            self.flight_admission("reject", &s.tenant, Some(&job_id), "tenant-limit");
            return Ok(Admission::Rejected {
                reason: format!(
                    "tenant {:?} at its active-job limit ({})",
                    s.tenant, self.cfg.tenant_active
                ),
            });
        }
        if st.queue.len() >= self.cfg.max_queue {
            st.metrics
                .incr(&format!("{}{}", names::REJECTED_PREFIX, s.tenant), 1);
            let queued = st.queue.len();
            drop(st);
            self.flight_admission("reject", &s.tenant, Some(&job_id), "queue-full");
            return Ok(Admission::Rejected {
                reason: format!("admission queue full ({queued} queued)"),
            });
        }
        st.metrics.incr(names::CACHE_MISSES, 1);
        st.jobs.insert(
            key,
            JobEntry {
                spec,
                tasks,
                tenant: s.tenant.clone(),
                phase: Phase::Queued,
                queued_at: Instant::now(),
            },
        );
        st.queue.push_back(key);
        *st.active.entry(s.tenant.clone()).or_insert(0) += 1;
        drop(st);
        self.trace.attach(key, trace_id, &s.tenant);
        self.trace.submitted(key, submit_ts, &job_id);
        self.flight_admission("admit", &s.tenant, Some(&job_id), "queued");
        self.wake.notify_one();
        Ok(Admission::Accepted { key, job: job_id })
    }

    /// The canonical report text of a `Done` job: the memory tier if
    /// present, else re-merged from the journal (and re-cached).
    fn report_text_locked(&self, st: &mut State, key: u64) -> Result<Arc<String>, String> {
        if let Some(text) = st.cache.get(key) {
            return Ok(text);
        }
        let (job_id, tasks) = {
            let job = st
                .jobs
                .get(&key)
                .ok_or_else(|| format!("unknown job {key:016x}"))?;
            (job.spec.name.clone(), Arc::clone(&job.tasks))
        };
        let report = report_with_tasks(&self.journal_path(&job_id), &tasks)
            .map_err(|e| format!("re-merging job {job_id}: {e}"))?;
        let text = Arc::new(report.canonical_text());
        self.cache_insert_locked(st, key, Arc::clone(&text));
        st.metrics.incr(names::REMERGES, 1);
        Ok(text)
    }

    /// One worker: drain the queue until shutdown or drain.
    fn worker(&self) {
        loop {
            let mut st = self.lock();
            let key = loop {
                // Draining counts too: a drained worker must not start
                // *new* jobs, only let its current one checkpoint.
                if self.stopping() || self.draining() {
                    return;
                }
                if let Some(k) = st.queue.pop_front() {
                    break k;
                }
                st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            };
            let Some((job_id, spec, tasks, tenant, queued_at)) = st.jobs.get_mut(&key).map(|job| {
                job.phase = Phase::Running;
                (
                    job.spec.name.clone(),
                    job.spec.clone(),
                    Arc::clone(&job.tasks),
                    job.tenant.clone(),
                    job.queued_at,
                )
            }) else {
                continue;
            };
            st.metrics.incr(names::ENGINE_BUILDS, 1);
            st.series.observe(
                names::JOB_QUEUE_WAIT_MS,
                &[("tenant", &tenant), ("job", &job_id)],
                queued_at.elapsed().as_millis() as u64,
            );
            drop(st);
            self.trace.claimed(key);
            self.flight.record("claim", {
                let mut d = Json::object();
                d.set("job", job_id.as_str()).set("tenant", tenant.as_str());
                d
            });

            if let Some(delay) = self.cfg.runner.chaos.and_then(|c| c.wakeup_delay()) {
                // Injected late wakeup: widens the window in which a
                // drain or kill catches this job mid-flight.
                std::thread::sleep(delay);
            }
            if let Some(delay) = self.cfg.build_delay {
                std::thread::sleep(delay);
            }
            let path = self.journal_path(&job_id);
            // The runner reports unit milestones into the request trace
            // through the observer; the token routes them to this job.
            let mut rc = self.cfg.runner;
            rc.trace_token = key;
            let claimed_at = Instant::now();
            // An existing journal means a previous attempt (possibly a
            // killed server) already ran part of this campaign: resume
            // completes exactly the missing units and the merge stays
            // byte-identical to an uninterrupted run.
            let ran = if path.exists() {
                resume(&path, &rc)
            } else {
                run_with_tasks(&spec, &tasks, &path, &rc)
            };
            self.trace.engine_done(key);
            let outcome = match ran {
                Err(e) => RunOutcome::Failed(e.to_string()),
                Ok(summary) if summary.complete() => {
                    self.trace.merge_begin(key);
                    let merged = report_with_tasks(&path, &tasks);
                    self.trace.merge_end(key);
                    match merged {
                        Ok(r) => RunOutcome::Done(Arc::new(r.canonical_text())),
                        Err(e) => RunOutcome::Failed(e.to_string()),
                    }
                }
                Ok(summary) => {
                    if self.draining() || self.stopping() {
                        RunOutcome::Checkpointed
                    } else {
                        RunOutcome::Failed(format!(
                            "{} unit(s) still pending after run",
                            summary.remaining
                        ))
                    }
                }
            };

            let checkpointed = matches!(outcome, RunOutcome::Checkpointed);
            let note = match &outcome {
                RunOutcome::Done(_) => "done",
                RunOutcome::Checkpointed => "checkpointed",
                RunOutcome::Failed(_) => "failed",
            };
            // The request traces close before the terminal phase is
            // published, so a watcher that sees `done` can already read
            // its trace file.
            let traces = self.trace.finish(key, &self.traces_dir());
            let mut st = self.lock();
            if !traces.is_empty() {
                st.metrics.incr(names::TRACES_WRITTEN, traces.len() as u64);
            }
            if let Some(job) = st.jobs.get_mut(&key) {
                match &outcome {
                    RunOutcome::Done(_) => job.phase = Phase::Done,
                    // Back to `Queued`: the journal is a clean
                    // checkpoint, not a failure — the restarted
                    // server's recovery scan resumes it.
                    RunOutcome::Checkpointed => job.phase = Phase::Queued,
                    RunOutcome::Failed(m) => job.phase = Phase::Failed(m.clone()),
                }
            }
            match outcome {
                RunOutcome::Done(text) => {
                    self.cache_insert_locked(&mut st, key, text);
                    st.metrics.incr(names::COMPLETED, 1);
                    st.series
                        .incr(names::TENANT_COMPLETED, &[("tenant", &tenant)], 1);
                    st.series.observe(
                        names::JOB_WALL_MS,
                        &[("tenant", &tenant), ("job", &job_id)],
                        claimed_at.elapsed().as_millis() as u64,
                    );
                }
                RunOutcome::Checkpointed => {}
                RunOutcome::Failed(_) => {
                    st.metrics.incr(names::FAILED, 1);
                }
            }
            // A checkpointed job is still the tenant's active job — it
            // resumes on restart — so only terminal outcomes release
            // the admission slot.
            if !checkpointed {
                if let Some(n) = st.active.get_mut(&tenant) {
                    *n = n.saturating_sub(1);
                }
            }
            drop(st);
            self.flight.record("job", {
                let mut d = Json::object();
                d.set("job", job_id.as_str())
                    .set("tenant", tenant.as_str())
                    .set("outcome", note);
                d
            });
            self.done.notify_all();
        }
    }

    /// Streams `JournalSummary`-shaped progress lines for one job until
    /// it reaches a terminal phase, then sends `done` (with the
    /// canonical report), `error`, or — when the server drains first —
    /// the typed `draining` notice, so subscribers are always flushed a
    /// final frame. At least one progress event is always sent, so a
    /// waiter observes the stream even for a job that finishes
    /// instantly.
    ///
    /// Subscriber isolation: frames pass through a bounded
    /// [`ProgressQueue`] (progress coalesces latest-wins; drops are
    /// counted) and every socket write carries the configured write
    /// deadline — a dead or slow client loses granularity, then its
    /// connection, and never holds the state lock while blocked.
    fn stream_job(
        &self,
        out: &mut UnixStream,
        key: u64,
        job_id: &str,
        interval: Duration,
    ) -> Result<(), String> {
        let interval = interval.clamp(Duration::from_millis(10), Duration::from_secs(10));
        let _ = out.set_write_timeout(Some(self.cfg.write_timeout));
        let path = self.journal_path(job_id);
        let mut queue = ProgressQueue::new(self.cfg.subscriber_queue);
        let mut drops_counted = 0;
        loop {
            // The progress event is read from the journal itself — the
            // same spec-free summary path `fires watch` uses — so the
            // stream agrees with on-disk state even across a resume.
            let summary = match journal::read(&path) {
                Ok(contents) => JournalSummary::summarize(&contents).to_json(),
                Err(_) => {
                    let mut j = Json::object();
                    j.set("waiting", true);
                    j
                }
            };
            queue.push(Response::Progress {
                job: job_id.to_string(),
                summary,
                // Tells the client how many frames coalesced away so
                // far, so `fires watch --remote` can surface the
                // degradation instead of silently smoothing over it.
                coalesced: queue.dropped(),
            });

            // Decide the terminal frame (if any) under the lock, but
            // never write to the subscriber while holding it.
            let phase = self.lock().jobs.get(&key).map(|j| j.phase.clone());
            let terminal = match phase {
                Some(Phase::Done) => {
                    let mut st = self.lock();
                    let report = self.report_text_locked(&mut st, key)?;
                    drop(st);
                    Some(Response::Done {
                        job: job_id.to_string(),
                        report: report.as_ref().clone(),
                    })
                }
                Some(Phase::Failed(message)) => Some(Response::Error {
                    message: format!("job {job_id} failed: {message}"),
                }),
                None => return Err(format!("unknown job {job_id}")),
                Some(Phase::Queued) | Some(Phase::Running) => {
                    if self.stopping() || self.draining() {
                        Some(Response::Draining {
                            reason: format!(
                                "server is draining; job {job_id} is checkpointed and resumes \
                                 on restart"
                            ),
                        })
                    } else {
                        None
                    }
                }
            };
            let is_terminal = terminal.is_some();
            if let Some(frame) = terminal {
                queue.push(frame);
            }

            while let Some(frame) = queue.pop() {
                if let Err(e) = self.send(out, &frame) {
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                        self.lock()
                            .metrics
                            .incr(names::DEGRADED_SLOW_SUBSCRIBERS, 1);
                        self.flight_absorbed("slow-subscriber", job_id);
                    }
                    return Ok(()); // subscriber dead or too slow: disconnect
                }
            }
            if queue.dropped() > drops_counted {
                self.lock().metrics.incr(
                    names::DEGRADED_DROPPED_PROGRESS,
                    queue.dropped() - drops_counted,
                );
                drops_counted = queue.dropped();
                self.flight_absorbed("dropped-progress", job_id);
            }
            if is_terminal {
                return Ok(());
            }

            // Re-check on completion signal or after the interval,
            // whichever comes first.
            let st = self.lock();
            let _ = self
                .done
                .wait_timeout(st, interval)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Server metrics as a `RunReport`-compatible JSON document, so the
    /// existing report tooling (`fires compare`, dashboards) can read
    /// them unchanged.
    fn status_report(&self) -> Json {
        let beat_age = self.beat_age();
        let st = self.lock();
        let running = st
            .jobs
            .values()
            .filter(|j| matches!(j.phase, Phase::Running))
            .count();
        let mut report = RunReport::new("fires-serve", "server");
        report.metrics = st.metrics.clone();
        report
            .set_extra("queue_depth", st.queue.len() as u64)
            .set_extra("running", running as u64)
            .set_extra("jobs_known", st.jobs.len() as u64)
            .set_extra("cache_entries", st.cache.len() as u64)
            .set_extra("cache_bytes", st.cache.bytes() as u64)
            .set_extra("cache_evictions", st.cache.evictions())
            .set_extra("workers", self.cfg.workers as u64)
            .set_extra(
                "workers_live",
                self.live_workers.load(Ordering::SeqCst) as u64,
            )
            .set_extra("draining", u64::from(self.draining()))
            .set_extra("uptime_seconds", self.started.elapsed().as_secs())
            .set_extra("watchdog_age_ms", beat_age.as_millis() as u64)
            .set_extra("watchdog_stale", u64::from(self.beat_stale(beat_age)));
        report.to_json()
    }

    fn beat_age(&self) -> Duration {
        self.last_beat
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .elapsed()
    }

    /// A heartbeat older than three intervals means the watchdog (or
    /// the whole process) is wedged.
    fn beat_stale(&self, age: Duration) -> bool {
        age > self.cfg.heartbeat_interval * 3
    }

    /// The `health` document: liveness, drain state, heartbeat age.
    fn health_report(&self) -> Json {
        let age = self.beat_age();
        let mut j = Json::object();
        j.set("status", if self.draining() { "draining" } else { "ok" })
            .set("uptime_seconds", self.started.elapsed().as_secs())
            .set("heartbeat_age_ms", age.as_millis() as u64)
            .set("heartbeat_stale", self.beat_stale(age))
            .set(
                "workers_live",
                self.live_workers.load(Ordering::SeqCst) as u64,
            );
        j
    }

    /// The watchdog: beats every `heartbeat_interval`, journaling each
    /// beat to `<state_dir>/heartbeat.json` so an outside observer
    /// (`fires status --socket`, or a plain `cat` when the socket is
    /// wedged) can tell a live daemon from a stuck one by file age.
    fn watchdog(&self) {
        let mut seq = 0u64;
        let path = self.cfg.state_dir.join("heartbeat.json");
        while !self.stopping() {
            {
                let mut beat = self
                    .last_beat
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                *beat = Instant::now();
            }
            seq += 1;
            if self.disk_fault() {
                // Injected ENOSPC: the in-memory beat above still
                // happened, so `health` stays accurate; only the
                // on-disk journaled copy is stale this round.
                self.lock().metrics.incr(names::DEGRADED_DISK_FAULTS, 1);
            } else {
                let epoch = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                let mut j = Json::object();
                j.set("seq", seq)
                    .set("epoch_seconds", epoch)
                    .set("status", if self.draining() { "draining" } else { "ok" });
                // Write-then-rename: a reader polling the file must
                // never observe a truncated beat.
                let tmp = self.cfg.state_dir.join("heartbeat.json.tmp");
                if std::fs::write(&tmp, format!("{}\n", j.to_compact())).is_ok() {
                    let _ = std::fs::rename(&tmp, &path);
                }
            }
            self.lock().metrics.incr(names::HEARTBEATS, 1);
            self.flight.record("beat", {
                let mut d = Json::object();
                d.set("seq", seq);
                d
            });
            // Each beat also snapshots the Prometheus exposition to
            // `<state_dir>/metrics/serve.prom` (write-then-rename, like
            // the heartbeat) so dashboards without socket access can
            // scrape a file. Counted *before* rendering so the snapshot
            // numbers itself.
            self.lock().metrics.incr(names::METRIC_SNAPSHOTS, 1);
            let metrics_dir = self.cfg.state_dir.join("metrics");
            if std::fs::create_dir_all(&metrics_dir).is_ok() {
                let tmp = metrics_dir.join("serve.prom.tmp");
                if std::fs::write(&tmp, self.metrics_text()).is_ok() {
                    let _ = std::fs::rename(&tmp, metrics_dir.join("serve.prom"));
                }
            }
            // Sleep in short slices so shutdown is not delayed by a
            // full interval.
            let deadline = Instant::now() + self.cfg.heartbeat_interval;
            while Instant::now() < deadline && !self.stopping() {
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }

    /// Handles one connection: one request line, one or more response
    /// lines.
    fn handle(self: &Arc<Self>, stream: UnixStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        if let Some(c) = self.cfg.runner.chaos {
            if let Some(stall) = c.stall(next(&self.counters.stalls)) {
                // An artificially slow client: the handler thread wears
                // the stall, the accept loop and workers never notice.
                self.lock().metrics.incr(names::DEGRADED_STALLS, 1);
                self.flight_absorbed("stall", "");
                std::thread::sleep(stall);
            }
            if c.hits(Site::Read, next(&self.counters.reads), 0, 0) {
                self.lock().metrics.incr(names::DEGRADED_READ_FAULTS, 1);
                self.flight_absorbed("read-fault", "");
                return; // as if the socket died before the request
            }
        }
        let mut out = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => return,
        };
        // The reader is capped one byte past the line bound: a client
        // can make us buffer `max_line_bytes + 1`, never more — a
        // malformed or hostile line costs a typed error, not an OOM.
        let max = self.cfg.max_line_bytes;
        let mut reader = BufReader::new(stream.take(max as u64 + 1));
        let mut line = String::new();
        if reader.read_line(&mut line).is_err() {
            return;
        }
        if line.len() > max {
            self.lock().metrics.incr(names::OVERSIZED_REQUESTS, 1);
            let _ = self.send(
                &mut out,
                &Response::Error {
                    message: format!("request line exceeds {max} bytes"),
                },
            );
            return;
        }
        let request = match Request::parse(line.trim()) {
            Ok(r) => r,
            Err(message) => {
                let _ = self.send(&mut out, &Response::Error { message });
                return;
            }
        };
        match request {
            Request::Submit(s) => match self.admit(&s) {
                Ok(Admission::Hit { job, report }) => {
                    let _ = self.send(
                        &mut out,
                        &Response::Hit {
                            job,
                            report: report.as_ref().clone(),
                        },
                    );
                }
                Ok(Admission::Rejected { reason }) => {
                    let _ = self.send(&mut out, &Response::Rejected { reason });
                }
                Ok(Admission::Draining) => {
                    let _ = self.send(
                        &mut out,
                        &Response::Draining {
                            reason: "server is draining; retry after restart".into(),
                        },
                    );
                }
                Ok(Admission::Accepted { key, job }) => {
                    if self
                        .send(&mut out, &Response::Accepted { job: job.clone() })
                        .is_err()
                    {
                        return;
                    }
                    if s.wait {
                        let interval = Duration::from_millis(s.interval_ms);
                        if let Err(message) = self.stream_job(&mut out, key, &job, interval) {
                            let _ = self.send(&mut out, &Response::Error { message });
                        }
                    }
                }
                Err(message) => {
                    let _ = self.send(&mut out, &Response::Error { message });
                }
            },
            Request::Watch { job, interval_ms } => {
                let key = match u64::from_str_radix(&job, 16) {
                    Ok(k) if job.len() == 16 => k,
                    _ => {
                        let _ = self.send(
                            &mut out,
                            &Response::Error {
                                message: format!("malformed job id {job:?} (want 16 hex digits)"),
                            },
                        );
                        return;
                    }
                };
                let interval = Duration::from_millis(interval_ms);
                if let Err(message) = self.stream_job(&mut out, key, &job, interval) {
                    let _ = self.send(&mut out, &Response::Error { message });
                }
            }
            Request::Status => {
                let _ = self.send(
                    &mut out,
                    &Response::Status {
                        report: self.status_report(),
                    },
                );
            }
            Request::Metrics => {
                let _ = self.send(
                    &mut out,
                    &Response::Metrics {
                        text: self.metrics_text(),
                    },
                );
            }
            Request::DebugDump => match self.flight_dump("debug-dump") {
                Ok((path, events)) => {
                    let _ = self.send(
                        &mut out,
                        &Response::Dumped {
                            path: path.display().to_string(),
                            events: events as u64,
                        },
                    );
                }
                Err(message) => {
                    let _ = self.send(&mut out, &Response::Error { message });
                }
            },
            Request::Health => {
                let _ = self.send(
                    &mut out,
                    &Response::Health {
                        report: self.health_report(),
                    },
                );
            }
            Request::Ready => {
                let draining = self.draining() || self.stopping();
                let _ = self.send(
                    &mut out,
                    &Response::Ready {
                        ready: !draining,
                        reason: if draining {
                            "draining".into()
                        } else {
                            String::new()
                        },
                    },
                );
            }
            Request::Shutdown { drain } => {
                let _ = self.send(&mut out, &Response::Ok);
                self.begin_shutdown(drain);
            }
        }
    }

    /// Startup recovery: re-index every journal under the jobs dir.
    /// Complete journals become cache-servable `Done` jobs; incomplete
    /// ones — a previous server died mid-campaign — are re-queued so
    /// their resume finishes the missing units; unreadable or
    /// mis-keyed ones are renamed `<name>.jsonl.quarantined` so a
    /// corrupt file is preserved for inspection, never silently
    /// re-scanned forever, and a fresh submit of the same key
    /// recomputes cleanly.
    fn recover(&self) -> Result<(), String> {
        let dir = self.jobs_dir();
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
                continue;
            }
            let indexed = journal::read(&path).ok().and_then(|contents| {
                let spec = contents.header.spec.clone();
                let tasks = spec.resolve().ok()?;
                let key = job_key(&tasks);
                // The filename is the content key; a mismatch means a
                // foreign or tampered file, which must not be served
                // under a key it does not hash to.
                if path.file_stem().and_then(|s| s.to_str()) != Some(&format!("{key:016x}")) {
                    return None;
                }
                Some((spec, tasks, key, JournalSummary::summarize(&contents)))
            });
            let mut st = self.lock();
            match indexed {
                Some((spec, tasks, key, summary)) => {
                    let complete = summary.complete();
                    st.jobs.insert(
                        key,
                        JobEntry {
                            spec,
                            tasks: Arc::new(tasks),
                            tenant: "recovered".into(),
                            phase: if complete { Phase::Done } else { Phase::Queued },
                            queued_at: Instant::now(),
                        },
                    );
                    if complete {
                        st.metrics.incr(names::RECOVERED, 1);
                    } else {
                        st.queue.push_back(key);
                        *st.active.entry("recovered".into()).or_insert(0) += 1;
                        st.metrics.incr(names::RESUMED, 1);
                    }
                    drop(st);
                    self.flight.record("recover", {
                        let mut d = Json::object();
                        d.set("job", format!("{key:016x}"))
                            .set("outcome", if complete { "indexed" } else { "requeued" });
                        d
                    });
                }
                None => {
                    st.metrics.incr(names::SCAN_ERRORS, 1);
                    drop(st);
                    let mut quarantined = path.clone().into_os_string();
                    quarantined.push(".quarantined");
                    if std::fs::rename(&path, PathBuf::from(quarantined)).is_ok() {
                        self.lock().metrics.incr(names::QUARANTINED, 1);
                        self.flight.record("quarantine", {
                            let mut d = Json::object();
                            d.set("path", path.display().to_string());
                            d
                        });
                        // A quarantine is a crash trigger: dump the
                        // flight so the post-mortem has the scan's own
                        // event sequence.
                        let _ = self.flight_dump("quarantine");
                    }
                }
            }
        }
        Ok(())
    }
}

/// Writes one response line and flushes it (line-delimited protocol).
fn send(out: &mut UnixStream, response: &Response) -> std::io::Result<()> {
    writeln!(out, "{}", response.to_json().to_compact())?;
    out.flush()
}

/// Runs the daemon until a `shutdown` request or SIGTERM: binds the
/// socket, recovers journaled state, serves connections. Blocks the
/// calling thread; returns once the workers have exited (or the drain
/// timeout gave up on them) and the socket file is removed. A final
/// metrics snapshot is written to `<state_dir>/exit.report.json` so
/// post-mortem tooling can read the drain and degraded counters of a
/// process that no longer answers its socket.
pub fn run_server(mut cfg: ServeConfig) -> Result<(), String> {
    let jobs_dir = cfg.state_dir.join("jobs");
    std::fs::create_dir_all(&jobs_dir).map_err(|e| format!("{}: {e}", jobs_dir.display()))?;
    if cfg.socket.exists() {
        // A live server answers on its socket; a stale file from a
        // killed one refuses connections and is safe to replace.
        if UnixStream::connect(&cfg.socket).is_ok() {
            return Err(format!(
                "{}: a server is already listening",
                cfg.socket.display()
            ));
        }
        std::fs::remove_file(&cfg.socket).map_err(|e| format!("{}: {e}", cfg.socket.display()))?;
    }
    let listener =
        UnixListener::bind(&cfg.socket).map_err(|e| format!("{}: {e}", cfg.socket.display()))?;
    // Non-blocking so the accept loop can poll the SIGTERM latch and
    // orchestrate the drain; accepted streams are switched back to
    // blocking before handlers touch them.
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("{}: {e}", cfg.socket.display()))?;
    signal::install_sigterm_latch();

    // The cooperative stop flag shared with every job's runner. Leaked
    // once per server so the `Copy` `RunnerConfig` can hold a
    // `&'static` — bounded by servers started in this process (one, in
    // the daemon; a handful in tests).
    let runner_stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    cfg.runner.stop = Some(runner_stop);

    // The trace store and its runner-side observer. Leaked like
    // `runner_stop` and for the same reason: the `Copy` `RunnerConfig`
    // carries a `&'static dyn UnitObserver`.
    let trace = Arc::new(TraceStore::new());
    let observer: &'static TraceObserver = Box::leak(Box::new(TraceObserver(Arc::clone(&trace))));
    cfg.runner.observer = Some(observer);

    let flight = Arc::new(FlightRecorder::new(cfg.flight_capacity));
    // A panic in a service thread dumps the flight before unwinding
    // continues. The filter keeps runner-level unit panics (injected by
    // chaos plans and *caught* by the runner's retry path) from
    // spraying dumps: only named service threads and the accept loop's
    // own thread count as a service crash.
    {
        let flight = Arc::clone(&flight);
        let state_dir = cfg.state_dir.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = std::thread::current().name().map(str::to_string);
            let service = name
                .as_deref()
                .is_some_and(|n| n.starts_with("fires-serve") || n == "main");
            if service {
                let _ = flight.dump(&state_dir, "panic");
            }
            prev(info);
        }));
    }

    let workers = cfg.workers.max(1);
    let cache = ResultCache::new(cfg.cache_bytes);
    let inner = Arc::new(Inner {
        cfg,
        state: Mutex::new(State {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            cache,
            metrics: fires_obs::RunMetrics::new(),
            series: SeriesRegistry::new(),
            active: HashMap::new(),
        }),
        wake: Condvar::new(),
        done: Condvar::new(),
        stopping: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        runner_stop,
        live_workers: AtomicUsize::new(workers),
        counters: ChaosCounters::default(),
        started: Instant::now(),
        last_beat: Mutex::new(Instant::now()),
        flight,
        trace,
    });
    inner.recover()?;

    let mut worker_handles = Vec::with_capacity(workers);
    for i in 0..workers {
        let inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name(format!("fires-serve-worker-{i}"))
            .spawn(move || {
                inner.worker();
                inner.live_workers.fetch_sub(1, Ordering::SeqCst);
            })
            .map_err(|e| format!("spawning worker: {e}"))?;
        worker_handles.push(handle);
    }
    let watchdog_handle = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("fires-serve-watchdog".into())
            .spawn(move || inner.watchdog())
            .map_err(|e| format!("spawning watchdog: {e}"))?
    };

    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        let _ = writeln!(
            stdout,
            "fires-serve listening on {}",
            inner.cfg.socket.display()
        );
        let _ = stdout.flush();
    }

    let mut drain_deadline: Option<Instant> = None;
    let mut drained_cleanly = false;
    loop {
        if signal::take_sigterm() {
            inner.begin_shutdown(true);
        }
        if inner.stopping() {
            break;
        }
        if inner.draining() {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + inner.cfg.drain_timeout);
            let workers_done = inner.live_workers.load(Ordering::SeqCst) == 0;
            let timed_out = Instant::now() >= deadline;
            if workers_done || timed_out {
                let mut st = inner.lock();
                st.metrics.incr(names::DRAINED, 1);
                if timed_out && !workers_done {
                    st.metrics.incr(names::DRAIN_TIMEOUTS, 1);
                }
                drop(st);
                if timed_out && !workers_done {
                    // A drain timeout is exactly the situation the
                    // flight recorder exists for: what led up to the
                    // worker that never checkpointed?
                    let _ = inner.flight_dump("drain-timeout");
                }
                drained_cleanly = workers_done;
                inner.stopping.store(true, Ordering::SeqCst);
                inner.wake.notify_all();
                inner.done.notify_all();
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                if let Some(c) = inner.cfg.runner.chaos {
                    if c.hits(Site::Accept, next(&inner.counters.accepts), 0, 0) {
                        // Drop the accepted connection on the floor:
                        // the client sees EOF and retries; the loop
                        // keeps accepting.
                        inner.lock().metrics.incr(names::DEGRADED_ACCEPT_FAULTS, 1);
                        continue;
                    }
                }
                let inner = Arc::clone(&inner);
                let _ = std::thread::Builder::new()
                    .name("fires-serve-conn".into())
                    .spawn(move || inner.handle(stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(_) => continue,
        }
    }

    inner.wake.notify_all();
    inner.done.notify_all();
    if drain_deadline.is_none() || drained_cleanly {
        // Immediate shutdown or clean drain: every worker is exiting on
        // its own; join them so the journals are fully flushed.
        for handle in worker_handles {
            let _ = handle.join();
        }
    } else {
        // Drain timeout: a worker is stuck mid-unit. Joining it would
        // turn the bounded drain into an unbounded wait, so leave it to
        // process teardown — its journal is torn-tail-safe by design.
        drop(worker_handles);
    }
    let _ = watchdog_handle.join();
    let exit_path = inner.cfg.state_dir.join("exit.report.json");
    let _ = std::fs::write(
        &exit_path,
        format!("{}\n", inner.status_report().to_compact()),
    );
    let _ = std::fs::remove_file(&inner.cfg.socket);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_hand_out_monotonic_indices() {
        let counters = ChaosCounters::default();
        assert_eq!(next(&counters.accepts), 0);
        assert_eq!(next(&counters.accepts), 1);
        assert_eq!(next(&counters.disks), 0);
    }
}
