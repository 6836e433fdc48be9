//! The service event log: every daemon milestone recorded once, with
//! one clock, one lock and one sequence counter, and read by two sinks.
//!
//! Post-mortems of a daemon rarely fail for lack of *metrics* — the
//! counters say a drain timed out — they fail for lack of *sequence*:
//! which admissions, rejections, chaos absorptions and phase
//! transitions led up to it, in what order. A single request, likewise,
//! is best explained by its own milestones on one timeline. So
//! [`EventLog::record`] stamps each milestone once and hands it to:
//!
//! * **the ring** — the last [`EventLog::new`]`(capacity, …)` events,
//!   kept at all times and written out as one `flight-<epoch_ms>.jsonl`
//!   file only on a trigger: drain timeout, recovery quarantine, a
//!   panicking service thread, or an operator's `fires debug-dump`.
//!   Ring events take consecutive `seq`s, so the first `seq` in a dump
//!   tells the reader how much history was lost.
//! * **the lane** of a job, kept only while a request is attached to it
//!   and written at the job's terminal event as one
//!   `traces/<trace_id>.trace.json` per attached request: a connected
//!   Chrome-trace lane derived from the milestones — `submit` from
//!   request entry to admission, `queue_wait` from admission to claim,
//!   `engine` from claim to run end (with one instant per completed
//!   unit and per journal append) and `merge` from merge start to merge
//!   end. A cache hit writes its short-circuit file at once.
//!
//! Lane-only events (the span boundaries and the per-unit instants)
//! take no ring seq, so ring seqs stay dense. Nothing here touches job
//! journals or canonical reports: the journal's own `event` records
//! keep their per-journal `seq`, which survives resume and is part of
//! the journal bytes — a separate sequence domain from this
//! per-process one.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError, Weak};
use std::time::Instant;

use fires_core::ContentHasher;
use fires_obs::{trace_events_named, FieldValue, Json, TimedRecord, TraceRecord};

/// Schema tag stamped on both written documents (ring dumps and trace
/// files), bumped when either shape changes.
pub const SCHEMA: u64 = 1;

/// Domain tag of the trace id ("trc" in ASCII), so trace ids can never
/// collide with job keys or task hashes.
const DOMAIN_TRACE: u64 = 0x74_72_63;

/// Event kinds that exist only on a job's lane and take no ring seq.
const LANE_ONLY: [&str; 5] = [
    "unit",
    "journal_append",
    "run_end",
    "merge_start",
    "merge_end",
];

/// An event's payload: the `detail` object of a ring dump line, and the
/// args of a lane instant (numbers and strings only there).
pub type Fields = Vec<(&'static str, Json)>;

/// One submission attached to the job it was admitted to.
#[derive(Clone, Debug)]
pub struct Request {
    /// The submission's trace id (see [`EventLog::mint`]).
    pub trace_id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// When the request entered admission, on the log's clock: where
    /// its `submit` span starts.
    pub entry_us: u64,
}

/// One recorded service milestone. Its job key, when it has one, is
/// the key of the lane it joins.
#[derive(Clone, Debug)]
struct Event {
    /// A ring event's position in the ring's history. A lane-only event
    /// carries the seq the next ring event will take, without taking it.
    seq: u64,
    /// Microseconds since the log was created.
    ts_us: u64,
    /// Event kind (`"admit"`, `"claim"`, `"unit"`, `"beat"`, …).
    what: &'static str,
    /// The submission an admission attached, if any.
    request: Option<Request>,
    /// Structured payload, event-kind specific.
    fields: Fields,
}

impl Event {
    fn note(&self) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == "note")
            .and_then(|(_, v)| v.as_str())
    }

    fn to_json(&self) -> Json {
        let mut detail = Json::object();
        for (k, v) in &self.fields {
            detail.set(*k, v.clone());
        }
        let mut j = Json::object();
        j.set("seq", self.seq)
            .set("ts_ms", self.ts_us / 1000)
            .set("what", self.what)
            .set("detail", detail);
        j
    }
}

#[derive(Debug, Default)]
struct Log {
    ring: VecDeque<Event>,
    next_seq: u64,
    /// Per-job milestones, only for jobs with an attached request.
    lanes: HashMap<u64, Vec<Event>>,
}

/// The daemon's event log: a bounded ring plus per-job lanes.
///
/// Thread-safe and poison-tolerant: a panicking recorder thread is the
/// *reason* a dump exists, so the lock recovers instead of propagating.
#[derive(Debug)]
pub struct EventLog {
    origin: Instant,
    cap: usize,
    /// The state directory: dumps land here, trace files in `traces/`.
    dir: PathBuf,
    nonce: AtomicU64,
    log: Mutex<Log>,
}

impl EventLog {
    /// A log whose ring holds at most `cap` events (oldest dropped
    /// first; 0 is clamped to 1) and whose files go under `dir`.
    pub fn new(cap: usize, dir: impl Into<PathBuf>) -> EventLog {
        EventLog {
            origin: Instant::now(),
            cap: cap.max(1),
            dir: dir.into(),
            nonce: AtomicU64::new(0),
            log: Mutex::new(Log::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Microseconds since the log was created.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Mints the trace id of one submission: the job key folded with a
    /// log-unique nonce under its own domain tag, so two submissions of
    /// the same campaign get distinct ids that still reveal their job.
    pub fn mint(&self, key: u64) -> u64 {
        let mut h = ContentHasher::new(DOMAIN_TRACE);
        h.write_u64(key)
            .write_u64(self.nonce.fetch_add(1, Ordering::Relaxed));
        h.finish()
    }

    /// Records one milestone, of job `job` if it belongs to one. Returns
    /// the number of trace files written: a job's terminal `job` event
    /// writes one per attached request.
    pub fn record(&self, what: &'static str, job: Option<u64>, fields: Fields) -> usize {
        self.push(what, job, None, fields)
    }

    /// Records an admission of `request` to job `job`. A `queued` or
    /// `deduped` admission attaches the request to the job's lane; a
    /// `cache-hit` one writes its short-circuit trace file at once.
    /// Returns the number of trace files written.
    pub fn record_request(
        &self,
        what: &'static str,
        job: u64,
        request: Request,
        fields: Fields,
    ) -> usize {
        self.push(what, Some(job), Some(request), fields)
    }

    fn push(
        &self,
        what: &'static str,
        job: Option<u64>,
        request: Option<Request>,
        fields: Fields,
    ) -> usize {
        let ts_us = self.now_us();
        let mut log = self.lock();
        let event = Event {
            seq: log.next_seq,
            ts_us,
            what,
            request,
            fields,
        };
        let lane_event = if LANE_ONLY.contains(&what) {
            Some(event)
        } else {
            log.next_seq += 1;
            let copy = job.is_some().then(|| event.clone());
            if log.ring.len() == self.cap {
                log.ring.pop_front();
            }
            log.ring.push_back(event);
            copy
        };
        let (Some(key), Some(event)) = (job, lane_event) else {
            return 0;
        };
        let finished = if what == "job" {
            log.lanes.remove(&key).map(|mut lane| {
                lane.push(event);
                lane
            })
        } else if event.request.is_some() && event.note() == Some("cache-hit") {
            Some(vec![event])
        } else if let Some(lane) = log.lanes.get_mut(&key) {
            lane.push(event);
            None
        } else {
            if event.request.is_some() {
                log.lanes.insert(key, vec![event]);
            }
            None
        };
        drop(log);
        finished.map_or(0, |lane| self.write_traces(key, &lane))
    }

    /// The ring's events, oldest (lowest `seq`) first, and the number of
    /// events ever put in it.
    fn ring(&self) -> (Vec<Event>, u64) {
        let log = self.lock();
        (log.ring.iter().cloned().collect(), log.next_seq)
    }

    /// Renders the dump document — one header line (schema, reason,
    /// counts), then one line per ring event in `seq` order — and the
    /// number of events in it.
    fn render(&self, reason: &str) -> (String, usize) {
        let (events, recorded) = self.ring();
        let mut header = Json::object();
        header
            .set("schema", SCHEMA)
            .set("reason", reason)
            .set("events", events.len() as u64)
            .set("recorded", recorded)
            .set("first_seq", events.first().map_or(0, |e| e.seq))
            .set("last_seq", events.last().map_or(0, |e| e.seq));
        let mut out = header.to_compact();
        out.push('\n');
        for e in &events {
            out.push_str(&e.to_json().to_compact());
            out.push('\n');
        }
        (out, events.len())
    }

    /// Writes the ring to `<dir>/flight-<epoch_ms>.jsonl` and returns the
    /// path and the number of events written.
    ///
    /// Dumping is best-effort by design: it runs on crash paths, where
    /// a second failure (full disk, missing dir) must not mask the
    /// first — hence the typed error instead of a panic.
    pub fn dump(&self, reason: &str) -> Result<(PathBuf, usize), String> {
        let epoch_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let path = self.dir.join(format!("flight-{epoch_ms}.jsonl"));
        let (text, events) = self.render(reason);
        write_atomic(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((path, events))
    }

    /// Writes one trace file per request attached to a finished lane.
    /// IO failures skip that file — tracing must never take down the
    /// worker that finished the job.
    fn write_traces(&self, key: u64, lane: &[Event]) -> usize {
        let records = chrome(key, lane);
        lane.iter()
            .filter_map(|e| e.request.as_ref())
            .filter(|req| {
                let label = format!("request {:016x}", req.trace_id);
                let mut doc = trace_events_named(&records, &[(0, &label)]);
                doc.set("schema", SCHEMA)
                    .set("trace_id", format!("{:016x}", req.trace_id))
                    .set("job", format!("{key:016x}"))
                    .set("tenant", req.tenant.clone());
                let path = self
                    .dir
                    .join("traces")
                    .join(format!("{:016x}.trace.json", req.trace_id));
                write_atomic(&path, doc.to_pretty()).is_ok()
            })
            .count()
    }

    /// Dumps this log's ring on a panic in a service thread for as long
    /// as the returned guard lives. The hook is installed once per
    /// process and dumps only the logs of servers still running. Its
    /// thread filter keeps runner-level unit panics (injected by chaos
    /// plans and *caught* by the runner's retry path) from spraying
    /// dumps: only named service threads and `main` count as a crash.
    pub(crate) fn dump_on_panic(self: &Arc<Self>) -> PanicDump {
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let service = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("fires-serve") || n == "main");
                if service {
                    let logs: Vec<Arc<EventLog>> =
                        running().iter().filter_map(Weak::upgrade).collect();
                    for log in logs {
                        let _ = log.dump("panic");
                    }
                }
                prev(info);
            }));
        });
        let weak = Arc::downgrade(self);
        running().push(Weak::clone(&weak));
        PanicDump(weak)
    }
}

/// Logs of the servers running in this process, for the panic hook.
static RUNNING: Mutex<Vec<Weak<EventLog>>> = Mutex::new(Vec::new());

fn running() -> MutexGuard<'static, Vec<Weak<EventLog>>> {
    RUNNING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server's registration with the panic hook; dropping it
/// (when `run_server` returns) unregisters the log.
#[derive(Debug)]
pub(crate) struct PanicDump(Weak<EventLog>);

impl Drop for PanicDump {
    fn drop(&mut self) {
        running().retain(|w| !w.ptr_eq(&self.0) && w.strong_count() > 0);
    }
}

/// Chrome records under construction, with the spans still open.
#[derive(Default)]
struct Lane {
    records: Vec<TimedRecord>,
    open: Vec<&'static str>,
}

impl Lane {
    fn at(&mut self, ts_us: u64, record: TraceRecord) {
        self.records.push(TimedRecord {
            ts_us,
            lane: 0,
            record,
        });
    }

    fn enter(&mut self, ts_us: u64, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.open.push(name);
        self.at(ts_us, TraceRecord::SpanEnter { name, fields });
    }

    /// Closes `name` if it is the innermost open span.
    fn exit(&mut self, ts_us: u64, name: &'static str) {
        if self.open.last() == Some(&name) {
            self.open.pop();
            self.at(
                ts_us,
                TraceRecord::SpanExit {
                    name,
                    elapsed: std::time::Duration::ZERO,
                },
            );
        }
    }

    fn instant(&mut self, ts_us: u64, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.at(ts_us, TraceRecord::Event { name, fields });
    }
}

/// Derives a finished lane's Chrome records from its milestones. The
/// terminal event closes every span still open (a drained job
/// checkpoints mid-`engine`), so the document always balances.
fn chrome(key: u64, lane: &[Event]) -> Vec<TimedRecord> {
    let mut out = Lane::default();
    for e in lane {
        let t = e.ts_us;
        match (e.what, &e.request) {
            ("admit", Some(req)) => {
                let job = || vec![("job", FieldValue::Str(format!("{key:016x}")))];
                let tenant = FieldValue::Str(req.tenant.clone());
                match e.note() {
                    Some("cache-hit") => {
                        out.enter(req.entry_us, "submit", job());
                        out.instant(t, "cache_hit", vec![("tenant", tenant)]);
                        out.exit(t, "submit");
                    }
                    note => {
                        let trace = FieldValue::Str(format!("{:016x}", req.trace_id));
                        out.instant(t, "request", vec![("trace", trace), ("tenant", tenant)]);
                        if note == Some("queued") {
                            out.enter(req.entry_us, "submit", job());
                            out.exit(t, "submit");
                            out.enter(t, "queue_wait", Vec::new());
                        } else {
                            out.instant(t, "deduped", Vec::new());
                        }
                    }
                }
            }
            ("claim", _) => {
                out.exit(t, "queue_wait");
                out.enter(t, "engine", Vec::new());
            }
            ("run_end", _) => out.exit(t, "engine"),
            ("merge_start", _) => out.enter(t, "merge", Vec::new()),
            ("merge_end", _) => out.exit(t, "merge"),
            ("job", _) => {
                while let Some(&name) = out.open.last() {
                    out.exit(t, name);
                }
            }
            (name, _) => {
                let fields = e
                    .fields
                    .iter()
                    .map(|(k, v)| {
                        let v = match v {
                            Json::Str(s) => FieldValue::Str(s.clone()),
                            other => FieldValue::F64(other.as_f64().unwrap_or(0.0)),
                        };
                        (*k, v)
                    })
                    .collect();
                out.instant(t, name, fields);
            }
        }
    }
    out.records
}

/// Writes a daemon state file whole: `<path>.tmp` first, then a rename,
/// so a reader never observes a truncated file. Creates the parent
/// directory; removes the tmp file when the write fails.
pub(crate) fn write_atomic(path: &Path, bytes: impl AsRef<[u8]>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fires-events-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn n(n: u64) -> Fields {
        vec![("n", n.into())]
    }

    /// Admits a fresh request for `key` with the given admission note.
    fn admit(log: &EventLog, key: u64, note: &'static str, tenant: &str) -> (u64, usize) {
        let request = Request {
            trace_id: log.mint(key),
            tenant: tenant.into(),
            entry_us: log.now_us(),
        };
        let id = request.trace_id;
        let written = log.record_request(
            "admit",
            key,
            request,
            vec![("tenant", tenant.into()), ("note", note.into())],
        );
        (id, written)
    }

    fn traces(dir: &Path) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(dir.join("traces"))
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    fn phases(doc: &Json) -> Vec<(String, String)> {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                    e.get("ph").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn balanced(seq: &[(String, String)]) -> bool {
        let mut depth = 0i64;
        for (_, ph) in seq {
            match ph.as_str() {
                "B" => depth += 1,
                "E" => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0
    }

    fn read(path: &Path) -> Json {
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn ring_keeps_the_newest_events_and_global_seqs() {
        let log = EventLog::new(4, temp("ring"));
        assert!(log.ring().0.is_empty());
        for i in 0..10u64 {
            log.record("tick", None, n(i));
        }
        // A lane-only event takes no ring seq.
        log.record("unit", Some(1), n(10));
        let (ring, recorded) = log.ring();
        assert_eq!(recorded, 10);
        let seqs: Vec<u64> = ring.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Timestamps never run backwards in seq order.
        assert!(ring.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn render_is_replayable_jsonl_in_seq_order() {
        let log = EventLog::new(8, temp("render"));
        log.record("admit", None, n(1));
        log.record("reject", None, n(2));
        let (text, events) = log.render("unit-test");
        assert_eq!(events, 2);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = Json::parse(lines[0]).unwrap();
        assert_eq!(header.get("schema").and_then(Json::as_u64), Some(SCHEMA));
        assert_eq!(
            header.get("reason").and_then(Json::as_str),
            Some("unit-test")
        );
        assert_eq!(header.get("events").and_then(Json::as_u64), Some(2));
        let mut last = None;
        for line in &lines[1..] {
            let j = Json::parse(line).unwrap();
            let seq = j.get("seq").and_then(Json::as_u64).unwrap();
            assert!(last.is_none_or(|l| seq > l), "seq order broken");
            last = Some(seq);
            assert!(j.get("ts_ms").and_then(Json::as_u64).is_some());
            assert!(j.get("what").and_then(Json::as_str).is_some());
            assert!(j.get("detail").and_then(|d| d.get("n")).is_some());
        }
    }

    #[test]
    fn dump_writes_one_file_and_reports_event_count() {
        let dir = temp("dump");
        let log = EventLog::new(8, &dir);
        log.record("drain", None, n(7));
        let (path, events) = log.dump("drain-timeout").unwrap();
        assert_eq!(events, 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"reason\":\"drain-timeout\""));
        assert!(path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap()
            .starts_with("flight-"));
        // No tmp file left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    }

    #[test]
    fn recording_is_safe_across_threads() {
        let log = Arc::new(EventLog::new(64, temp("threads")));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..25u64 {
                    log.record("tick", None, n(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (ring, recorded) = log.ring();
        assert_eq!(recorded, 100);
        assert_eq!(ring.len(), 64);
        // Seqs are globally unique and ordered in the ring.
        assert!(ring.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn trace_ids_are_unique_per_mint_and_depend_on_the_key() {
        let log = EventLog::new(1, temp("mint"));
        let a = log.mint(7);
        let b = log.mint(7);
        let c = log.mint(8);
        assert_ne!(a, b, "same key, distinct nonces");
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn full_lifecycle_renders_one_connected_lane() {
        let dir = temp("lifecycle");
        let log = EventLog::new(8, &dir);
        let key = 0xabcd;
        let (id, _) = admit(&log, key, "queued", "ci");
        assert_eq!(log.lock().lanes.len(), 1);
        log.record("claim", Some(key), Vec::new());
        log.record("unit", Some(key), vec![("stem", 3u64.into())]);
        log.record("run_end", Some(key), Vec::new());
        log.record("merge_start", Some(key), Vec::new());
        log.record("merge_end", Some(key), Vec::new());
        assert_eq!(log.record("job", Some(key), Vec::new()), 1);
        assert!(
            log.lock().lanes.is_empty(),
            "the terminal event drops the lane"
        );
        // The ring saw admit, claim and job only.
        let whats: Vec<&str> = log.ring().0.iter().map(|e| e.what).collect();
        assert_eq!(whats, vec!["admit", "claim", "job"]);

        let written = traces(&dir);
        assert_eq!(written.len(), 1);
        let doc = read(&written[0]);
        assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(SCHEMA));
        assert_eq!(
            doc.get("trace_id").and_then(Json::as_str),
            Some(format!("{id:016x}").as_str())
        );
        assert_eq!(
            doc.get("job").and_then(Json::as_str),
            Some("000000000000abcd")
        );
        assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("ci"));
        // The lane is named by the trace id.
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some(format!("request {id:016x}").as_str())
        );
        // The chain is connected: submit → queue_wait → engine (with
        // the unit instant inside) → merge, B/E balanced on one lane.
        let seq = phases(&doc);
        let expect: Vec<(String, String)> = [
            ("request", "i"),
            ("submit", "B"),
            ("submit", "E"),
            ("queue_wait", "B"),
            ("queue_wait", "E"),
            ("engine", "B"),
            ("unit", "i"),
            ("engine", "E"),
            ("merge", "B"),
            ("merge", "E"),
        ]
        .iter()
        .map(|(n, p)| (n.to_string(), p.to_string()))
        .collect();
        assert_eq!(seq, expect);
        assert!(balanced(&seq), "spans balance");
        let unit = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("unit"))
            .unwrap();
        assert_eq!(
            unit.get("args")
                .and_then(|a| a.get("stem"))
                .and_then(Json::as_u64),
            Some(3)
        );
    }

    #[test]
    fn records_without_an_attached_request_are_dropped() {
        let dir = temp("unattached");
        let log = EventLog::new(8, &dir);
        // No request attached: lane events go nowhere.
        log.record("claim", Some(9), Vec::new());
        log.record("unit", Some(9), Vec::new());
        assert!(log.lock().lanes.is_empty());
        assert_eq!(log.record("job", Some(9), Vec::new()), 0);
        assert!(!dir.exists(), "no files written for unattached jobs");
    }

    #[test]
    fn deduped_requests_each_get_their_own_trace_file() {
        let dir = temp("dedup");
        let log = EventLog::new(8, &dir);
        let key = 5;
        let (first, _) = admit(&log, key, "queued", "a");
        let (second, _) = admit(&log, key, "deduped", "b");
        log.record("claim", Some(key), Vec::new());
        log.record("run_end", Some(key), Vec::new());
        assert_eq!(log.record("job", Some(key), Vec::new()), 2);
        let written = traces(&dir);
        assert_eq!(written.len(), 2);
        for id in [first, second] {
            let path = dir.join("traces").join(format!("{id:016x}.trace.json"));
            let doc = read(&path);
            assert_eq!(
                doc.get("trace_id").and_then(Json::as_str),
                Some(format!("{id:016x}").as_str())
            );
            let seq = phases(&doc);
            assert!(seq.iter().any(|(n, ph)| n == "deduped" && ph == "i"));
            assert!(balanced(&seq), "{seq:?}");
        }
    }

    #[test]
    fn open_spans_are_closed_on_finish() {
        // A drain checkpoints a job mid-engine: the written trace must
        // still balance.
        let dir = temp("drain");
        let log = EventLog::new(8, &dir);
        let key = 11;
        admit(&log, key, "queued", "t");
        log.record("claim", Some(key), Vec::new()); // engine left open
        assert_eq!(log.record("job", Some(key), Vec::new()), 1);
        let doc = read(&traces(&dir)[0]);
        let seq = phases(&doc);
        assert_eq!(
            seq.last().map(|(n, ph)| (n.as_str(), ph.as_str())),
            Some(("engine", "E"))
        );
        assert!(balanced(&seq), "{seq:?}");
    }

    #[test]
    fn cache_hits_write_a_short_circuit_trace() {
        let dir = temp("hit");
        let log = EventLog::new(8, &dir);
        let (id, written) = admit(&log, 3, "cache-hit", "acme");
        assert_eq!(written, 1);
        assert!(log.lock().lanes.is_empty(), "a hit keeps no lane");
        let doc = read(&dir.join("traces").join(format!("{id:016x}.trace.json")));
        let seq = phases(&doc);
        let names: Vec<&str> = seq.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["submit", "cache_hit", "submit"]);
        assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("acme"));
    }
}
