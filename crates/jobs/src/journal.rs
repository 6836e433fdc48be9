//! The append-only on-disk campaign journal.
//!
//! One JSON document per line (JSONL). The first line is a header
//! carrying the schema version, the campaign spec and, per task, the
//! circuit's structural content hash and stem count — enough for a later
//! process to prove the journal still indexes the same work units. Every
//! following line is one completed work unit:
//!
//! ```json
//! {"kind":"header","schema":4,"spec":{...},"tasks":[{"circuit":"s27","hash":"93ab...","stems":9}]}
//! {"kind":"unit","task":0,"stem":3,"status":"ok","faults":[[12,1,0,0]],"marks":41,"frames":5,"retries":0,"seconds":0.002,"phases":[["implication",0.001]],"metrics":{...}}
//! {"kind":"event","seq":0,"task":0,"stem":4,"attempt":0,"what":"unit-retry","detail":"attempt panicked; caches rebuilt"}
//! {"kind":"unit","task":0,"stem":4,"status":"panic","faults":[],"marks":0,"frames":0,"retries":1,"seconds":0.001,"phases":[],"metrics":{...}}
//! ```
//!
//! `unit` records are **terminal**: one per `(task, stem)`, whatever its
//! outcome. `event` records narrate retries and degradations on the way
//! there — pure observability, ignored by the canonical merge.
//!
//! Units are journaled as **indices** into the task's canonical stem
//! order ([`Fires::stems`](fires_core::Fires::stems)); fault lines are
//! raw [`LineId`](fires_netlist::LineId) indices. Both are stable across
//! processes for a structurally identical circuit, which the header
//! hashes verify on resume.
//!
//! Unit lines, the bulk of a journal, are written by
//! [`UnitRecord::encode`] and read by [`read`] without a generic [`Json`]
//! tree for their fault lists, byte for byte as the tree printer and
//! parser would (see `codec_reference.rs` for the properties that hold
//! them to it). Header, event and progress lines go through [`Json`].
//!
//! Every append is flushed before the runner considers the unit done, so
//! a crash loses at most the unit being written. A torn final line (the
//! crash landed mid-write: not complete JSON, no trailing newline) is
//! detected and dropped by [`read`] and physically removed by
//! [`Journal::append_to`] before a resume appends anything after it. A
//! line that *does* parse as complete JSON but is not a well-formed unit
//! record is corruption, not a tear — a hard error wherever it sits.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;

use fires_core::{ExhaustionReason, IdentifiedFault};
use fires_netlist::{Fault, LineId, StuckValue};
use fires_obs::json::{self, JsonCursor, JsonError};
use fires_obs::{Json, RuleProfile, RunMetrics};

use crate::error::JobError;
use crate::spec::{CampaignSpec, ResolvedTask};

/// Version of the journal layout. Bump on any change to the record
/// shapes *or* to anything they index into (the canonical stem order,
/// the content-hash recipe).
///
/// Schema 2 added the `exhausted` unit status, the `retries`/`reason`
/// unit fields, `event` records and the spec's `step_budget` override.
/// Schema 3 added periodic `progress` heartbeat records — pure
/// observability, ignored by the canonical merge — so a live `fires
/// watch` can report throughput and worker occupancy without guessing.
/// Schema-2 journals contain a strict subset of the schema-3 record
/// kinds, so [`read`] accepts both (see [`JOURNAL_SCHEMA_MIN`]); note a
/// schema-2 journal *resumed* by this build gains progress records and
/// is no longer readable by schema-2-only builds.
/// Schema 4 added the monotonic `seq` field on `event` records —
/// assigned by the [`Journal`] at append time and continued across
/// resumes — so interleaved retry events from concurrent workers can be
/// totally ordered on replay. Older journals' events read back with
/// `seq` 0 (see [`EventRecord::seq`]); a resumed older journal gains
/// sequenced events from 1 onward.
pub const JOURNAL_SCHEMA: u64 = 4;

/// Oldest journal schema [`read`] still accepts.
pub const JOURNAL_SCHEMA_MIN: u64 = 2;

/// Per-task identity facts stored in the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskFingerprint {
    /// Resolved circuit name.
    pub circuit: String,
    /// Structural content hash of the generated circuit.
    pub hash: u64,
    /// Number of fanout stems, i.e. work units, of this task.
    pub stems: usize,
}

/// The journal's first line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// The campaign spec, verbatim, so `fires resume <journal>` needs no
    /// other input.
    pub spec: CampaignSpec,
    /// One fingerprint per task, in spec order.
    pub tasks: Vec<TaskFingerprint>,
}

/// How a work unit ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnitStatus {
    /// Completed normally; its faults are merged into the report.
    Ok,
    /// The stem's analysis panicked (after exhausting its retries, if
    /// any); recorded and skipped, the campaign carries on.
    Panic,
    /// The stem overran its wall-clock deadline.
    Timeout,
    /// The stem hit a [`Budget`](fires_core::Budget) limit: its partial
    /// fault sets are journaled for observability but are **non-final**
    /// and excluded from the merged redundancy claims.
    Exhausted,
}

impl UnitStatus {
    fn as_str(self) -> &'static str {
        match self {
            UnitStatus::Ok => "ok",
            UnitStatus::Panic => "panic",
            UnitStatus::Timeout => "timeout",
            UnitStatus::Exhausted => "exhausted",
        }
    }

    fn parse(s: &str) -> Option<UnitStatus> {
        match s {
            "ok" => Some(UnitStatus::Ok),
            "panic" => Some(UnitStatus::Panic),
            "timeout" => Some(UnitStatus::Timeout),
            "exhausted" => Some(UnitStatus::Exhausted),
            _ => None,
        }
    }
}

/// One journaled work unit: a (task, stem) pair and what it produced.
#[derive(Clone, Debug, PartialEq)]
pub struct UnitRecord {
    /// Index into the header's task list.
    pub task: usize,
    /// Index into the task's canonical stem order.
    pub stem: usize,
    /// Outcome.
    pub status: UnitStatus,
    /// Identified faults as `(line, stuck-at-one, c, frame)`. Empty
    /// unless `status` is `Ok` or `Exhausted`; for `Exhausted` units
    /// these are the *partial*, non-final fault sets — kept for
    /// observability, never merged into redundancy claims.
    pub faults: Vec<(u32, bool, u32, i32)>,
    /// Uncontrollability marks the stem's two processes derived.
    pub marks: u64,
    /// Frames spanned by the wider process.
    pub frames: u64,
    /// How many failed attempts preceded this terminal record (0 on the
    /// happy path). Excluded from the canonical report: a retried-then-ok
    /// unit must merge identically to a first-try-ok one.
    pub retries: u64,
    /// Which budget limit stopped the unit; `Some` exactly when `status`
    /// is `Exhausted`.
    pub reason: Option<ExhaustionReason>,
    /// Wall-clock seconds this unit took (observability only; excluded
    /// from the canonical report).
    pub seconds: f64,
    /// Per-phase seconds from the stem's [`PhaseClock`] breakdown
    /// (observability only; excluded from the canonical report).
    ///
    /// [`PhaseClock`]: fires_obs::PhaseClock
    pub phases: Vec<(String, f64)>,
    /// Engine metrics the unit recorded (counters, maxima, histograms).
    /// Deterministic per unit but excluded from the canonical report,
    /// which keeps only the result-bearing fields.
    pub metrics: RunMetrics,
    /// Per-rule engine hotspot profile for this unit. `None` for units
    /// run without the `tracing` feature and for journals written before
    /// the profiler existed; observability only, excluded from the
    /// canonical report.
    pub profile: Option<RuleProfile>,
}

impl UnitRecord {
    /// The journaled faults as core [`IdentifiedFault`]s, attributed to
    /// `stem` (the unit's stem line).
    pub fn identified(&self, stem: LineId) -> Vec<IdentifiedFault> {
        self.faults
            .iter()
            .map(|&(line, stuck_one, c, frame)| IdentifiedFault {
                fault: Fault::new(LineId::new(line as usize), StuckValue::from_bool(stuck_one)),
                c,
                frame,
                stem,
            })
            .collect()
    }
}

fn header_to_json(header: &JournalHeader) -> Json {
    let mut tasks = Vec::with_capacity(header.tasks.len());
    for t in &header.tasks {
        let mut j = Json::object();
        // The hash is journaled as a hex *string*: Json numbers are f64
        // and would silently round u64 values above 2^53.
        j.set("circuit", t.circuit.clone())
            .set("hash", format!("{:016x}", t.hash))
            .set("stems", t.stems as u64);
        tasks.push(j);
    }
    let mut j = Json::object();
    j.set("kind", "header")
        .set("schema", JOURNAL_SCHEMA)
        .set("spec", header.spec.to_json())
        .set("tasks", Json::Arr(tasks));
    j
}

fn header_from_json(j: &Json) -> Result<JournalHeader, JobError> {
    let schema = j
        .get("schema")
        .and_then(Json::as_u64)
        .ok_or_else(|| JobError::journal("header has no schema version"))?;
    if !(JOURNAL_SCHEMA_MIN..=JOURNAL_SCHEMA).contains(&schema) {
        return Err(JobError::journal(format!(
            "journal schema {schema} unsupported (this build reads \
             {JOURNAL_SCHEMA_MIN}..={JOURNAL_SCHEMA})"
        )));
    }
    let spec = CampaignSpec::from_json(
        j.get("spec")
            .ok_or_else(|| JobError::journal("header has no spec"))?,
    )?;
    let tasks = j
        .get("tasks")
        .and_then(Json::as_arr)
        .ok_or_else(|| JobError::journal("header has no task fingerprints"))?
        .iter()
        .map(|t| {
            let circuit = t
                .get("circuit")
                .and_then(Json::as_str)
                .ok_or_else(|| JobError::journal("fingerprint has no circuit"))?
                .to_string();
            let hash = t
                .get("hash")
                .and_then(Json::as_str)
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| JobError::journal("fingerprint hash is not hex"))?;
            let stems = t
                .get("stems")
                .and_then(Json::as_u64)
                .ok_or_else(|| JobError::journal("fingerprint has no stem count"))?
                as usize;
            Ok(TaskFingerprint {
                circuit,
                hash,
                stems,
            })
        })
        .collect::<Result<Vec<_>, JobError>>()?;
    Ok(JournalHeader { spec, tasks })
}

/// A unit record encoded as its journal line, without the newline.
///
/// [`UnitRecord::encode`] writes the bytes the generic [`Json`] printer
/// would give the record's object (sorted keys, the same number and
/// string rendering) without building a tree for `faults`, the bulk of a
/// large unit. It is a type of its own so the runner can encode a record
/// before it takes the journal lock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitLine(String);

impl UnitLine {
    /// The encoded line.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl UnitRecord {
    /// Encodes this record as its journal line.
    pub fn encode(&self) -> UnitLine {
        let mut out = String::with_capacity(1024 + 16 * self.faults.len());
        // Keys in the byte order a `Json` object prints them.
        out.push_str("{\"faults\":[");
        for (i, &(line, stuck, c, frame)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_int(line.into(), &mut out);
            out.push_str(if stuck { ",1," } else { ",0," });
            json::write_int(c.into(), &mut out);
            out.push(',');
            json::write_int(frame.into(), &mut out);
            out.push(']');
        }
        out.push_str("],\"frames\":");
        json::write_number(self.frames as f64, &mut out);
        out.push_str(",\"kind\":\"unit\",\"marks\":");
        json::write_number(self.marks as f64, &mut out);
        out.push_str(",\"metrics\":");
        self.metrics.to_json().write_compact(&mut out);
        out.push_str(",\"phases\":[");
        for (i, (name, secs)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_string(name, &mut out);
            out.push(',');
            json::write_number(*secs, &mut out);
            out.push(']');
        }
        out.push(']');
        if let Some(profile) = &self.profile {
            out.push_str(",\"profile\":");
            profile.to_json().write_compact(&mut out);
        }
        if let Some(reason) = self.reason {
            out.push_str(",\"reason\":");
            json::write_string(reason.as_str(), &mut out);
        }
        out.push_str(",\"retries\":");
        json::write_number(self.retries as f64, &mut out);
        out.push_str(",\"seconds\":");
        json::write_number(self.seconds, &mut out);
        out.push_str(",\"status\":");
        json::write_string(self.status.as_str(), &mut out);
        out.push_str(",\"stem\":");
        json::write_number(self.stem as f64, &mut out);
        out.push_str(",\"task\":");
        json::write_number(self.task as f64, &mut out);
        out.push('}');
        UnitLine(out)
    }
}

/// A fault list as decoded, or the first reason it is not one.
type DecodedFaults = Result<Vec<(u32, bool, u32, i32)>, &'static str>;

/// The members of one journal line that a unit record reads, collected in
/// one walk. Only `faults` is decoded on the way; every other member is
/// kept as its (small) tree and checked by [`UnitFields::into_unit`]. A
/// repeated key keeps its last value, as the parser's map does; unknown
/// keys are walked and dropped.
#[derive(Default)]
struct UnitFields {
    kind: Option<Json>,
    status: Option<Json>,
    faults: Option<DecodedFaults>,
    phases: Option<Json>,
    metrics: Option<Json>,
    profile: Option<Json>,
    reason: Option<Json>,
    task: Option<Json>,
    stem: Option<Json>,
    marks: Option<Json>,
    frames: Option<Json>,
    retries: Option<Json>,
    seconds: Option<Json>,
}

impl UnitFields {
    /// Walks one line. Fails exactly when the line is not a complete JSON
    /// object.
    fn walk(line: &str) -> Result<UnitFields, JsonError> {
        let mut f = UnitFields::default();
        let mut cursor = JsonCursor::new(line);
        cursor.object(|key, cursor| {
            let slot = match key {
                "faults" => {
                    f.faults = Some(decode_faults(cursor)?);
                    return Ok(());
                }
                "kind" => &mut f.kind,
                "status" => &mut f.status,
                "phases" => &mut f.phases,
                "metrics" => &mut f.metrics,
                "profile" => &mut f.profile,
                "reason" => &mut f.reason,
                "task" => &mut f.task,
                "stem" => &mut f.stem,
                "marks" => &mut f.marks,
                "frames" => &mut f.frames,
                "retries" => &mut f.retries,
                "seconds" => &mut f.seconds,
                _ => {
                    cursor.value()?;
                    return Ok(());
                }
            };
            *slot = Some(cursor.value()?);
            Ok(())
        })?;
        cursor.finish()?;
        Ok(f)
    }

    fn kind(&self) -> Option<&str> {
        self.kind.as_ref().and_then(Json::as_str)
    }

    /// The unit record these members make, checked field by field in a
    /// fixed order so a malformed record always reports the same error.
    fn into_unit(self) -> Result<UnitRecord, JobError> {
        let int = |v: &Option<Json>, name: &str| {
            v.as_ref()
                .and_then(Json::as_u64)
                .ok_or_else(|| JobError::journal(format!("unit record field {name:?} missing")))
        };
        let status = self
            .status
            .as_ref()
            .and_then(Json::as_str)
            .and_then(UnitStatus::parse)
            .ok_or_else(|| JobError::journal("unit record has no valid status"))?;
        let faults = self
            .faults
            .unwrap_or(Err("unit record has no fault array"))
            .map_err(JobError::journal)?;
        // Observability extras: tolerated when absent (they carry no result
        // data), rejected when present but malformed.
        let phases = match &self.phases {
            None => Vec::new(),
            Some(p) => p
                .as_arr()
                .ok_or_else(|| JobError::journal("unit phases is not an array"))?
                .iter()
                .map(|e| {
                    let e = e.as_arr().filter(|e| e.len() == 2).ok_or_else(|| {
                        JobError::journal("phase entry is not a [name, secs] pair")
                    })?;
                    let name = e[0]
                        .as_str()
                        .ok_or_else(|| JobError::journal("phase name is not a string"))?;
                    let secs = e[1]
                        .as_f64()
                        .ok_or_else(|| JobError::journal("phase seconds is not numeric"))?;
                    Ok((name.to_string(), secs))
                })
                .collect::<Result<Vec<_>, JobError>>()?,
        };
        let metrics = match &self.metrics {
            None => RunMetrics::default(),
            Some(m) => RunMetrics::from_json(m)
                .ok_or_else(|| JobError::journal("unit metrics are malformed"))?,
        };
        let profile = match &self.profile {
            None => None,
            Some(p) => Some(
                RuleProfile::from_json(p)
                    .ok_or_else(|| JobError::journal("unit profile is malformed"))?,
            ),
        };
        let reason = match &self.reason {
            None => None,
            Some(r) => Some(
                r.as_str()
                    .and_then(ExhaustionReason::parse)
                    .ok_or_else(|| JobError::journal("unit reason is not a known budget limit"))?,
            ),
        };
        if (status == UnitStatus::Exhausted) != reason.is_some() {
            return Err(JobError::journal(
                "unit reason must be present exactly for exhausted units",
            ));
        }
        Ok(UnitRecord {
            task: int(&self.task, "task")? as usize,
            stem: int(&self.stem, "stem")? as usize,
            status,
            faults,
            marks: int(&self.marks, "marks")?,
            frames: int(&self.frames, "frames")?,
            retries: self.retries.as_ref().and_then(Json::as_u64).unwrap_or(0),
            reason,
            seconds: self.seconds.as_ref().and_then(Json::as_f64).unwrap_or(0.0),
            phases,
            metrics,
            profile,
        })
    }
}

/// Decodes a `faults` value: an array of `[line, stuck, c, frame]`
/// number quadruples, cast as a generic reader casting each entry's f64s
/// would. A well-formed value that is not such an array walks to its end
/// and yields the first entry's complaint, so syntax and meaning stay
/// apart: the caller reports the complaint only for a complete line.
fn decode_faults(cursor: &mut JsonCursor<'_>) -> Result<DecodedFaults, JsonError> {
    if !cursor.at(b'[') {
        cursor.value()?;
        return Ok(Err("unit record has no fault array"));
    }
    let mut faults = Vec::new();
    let mut bad = None;
    cursor.array(|entry| {
        let mut nums = [None; 4];
        let mut len = 0usize;
        if entry.at(b'[') {
            entry.array(|item| {
                let v = item.number()?;
                if let Some(slot) = nums.get_mut(len) {
                    *slot = v;
                }
                len += 1;
                Ok(())
            })?;
        } else {
            entry.value()?;
        }
        if bad.is_none() {
            match nums {
                _ if len != 4 => bad = Some("fault entry is not a 4-element array"),
                [Some(line), Some(stuck), Some(c), Some(frame)] => {
                    faults.push((line as u32, stuck != 0.0, c as u32, frame as i32));
                }
                _ => bad = Some("fault entry is not numeric"),
            }
        }
        Ok(())
    })?;
    Ok(match bad {
        Some(message) => Err(message),
        None => Ok(faults),
    })
}

/// A non-terminal journal line narrating a retry or degradation on the
/// way to a unit's terminal record. Pure observability: the canonical
/// merge ignores events entirely.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Monotonic per-journal sequence number (schema ≥ 4). Assigned by
    /// [`Journal::append_event`] — the value a caller constructs is
    /// overwritten at append time — and continued across resumes, so
    /// events interleaved by concurrent workers are totally ordered on
    /// replay. Events read from older journals carry 0.
    pub seq: u64,
    /// Index into the header's task list.
    pub task: usize,
    /// Index into the task's canonical stem order.
    pub stem: usize,
    /// Zero-based attempt the event happened on.
    pub attempt: u64,
    /// Machine-readable event kind (`unit-retry`, `journal-retry`, ...).
    pub what: String,
    /// Human-readable context.
    pub detail: String,
}

fn event_to_json(e: &EventRecord) -> Json {
    let mut j = Json::object();
    j.set("kind", "event")
        .set("seq", e.seq)
        .set("task", e.task as u64)
        .set("stem", e.stem as u64)
        .set("attempt", e.attempt)
        .set("what", e.what.clone())
        .set("detail", e.detail.clone());
    j
}

fn event_from_json(j: &Json) -> Result<EventRecord, JobError> {
    let int = |name: &str| {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| JobError::journal(format!("event record field {name:?} missing")))
    };
    let text = |name: &str| {
        j.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| JobError::journal(format!("event record field {name:?} missing")))
    };
    Ok(EventRecord {
        // Absent before schema 4; 0 keeps old journals readable.
        seq: j.get("seq").and_then(Json::as_u64).unwrap_or(0),
        task: int("task")? as usize,
        stem: int("stem")? as usize,
        attempt: int("attempt")?,
        what: text("what")?,
        detail: text("detail")?,
    })
}

/// A periodic heartbeat line describing campaign-wide progress at one
/// instant of one process's run. Pure observability — ignored by the
/// canonical merge, consumed by `fires watch`. Counts are cumulative
/// over the whole journal (a resumed process counts the units already
/// journaled before it started), so a watcher can compute throughput
/// and an ETA from any single record plus the header's unit totals.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressRecord {
    /// Terminal unit records in the journal at heartbeat time.
    pub done: u64,
    /// Units still to run (header total minus `done`).
    pub pending: u64,
    /// Of `done`: completed normally.
    pub ok: u64,
    /// Of `done`: poisoned (panicked out of retries).
    pub panicked: u64,
    /// Of `done`: overran their deadline.
    pub timed_out: u64,
    /// Of `done`: hit a budget limit.
    pub exhausted: u64,
    /// Retry events observed by this process so far.
    pub retried: u64,
    /// Seconds since this process's run started.
    pub elapsed_seconds: f64,
    /// Units completed by this process divided by `elapsed_seconds`.
    pub units_per_second: f64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Workers executing a unit at heartbeat time (occupancy).
    pub busy: u64,
}

fn progress_to_json(p: &ProgressRecord) -> Json {
    let mut j = Json::object();
    j.set("kind", "progress")
        .set("done", p.done)
        .set("pending", p.pending)
        .set("ok", p.ok)
        .set("panicked", p.panicked)
        .set("timed_out", p.timed_out)
        .set("exhausted", p.exhausted)
        .set("retried", p.retried)
        .set("elapsed_seconds", p.elapsed_seconds)
        .set("units_per_second", p.units_per_second)
        .set("workers", p.workers)
        .set("busy", p.busy);
    j
}

fn progress_from_json(j: &Json) -> Result<ProgressRecord, JobError> {
    let int = |name: &str| {
        j.get(name)
            .and_then(Json::as_u64)
            .ok_or_else(|| JobError::journal(format!("progress record field {name:?} missing")))
    };
    let num = |name: &str| {
        j.get(name)
            .and_then(Json::as_f64)
            .ok_or_else(|| JobError::journal(format!("progress record field {name:?} missing")))
    };
    Ok(ProgressRecord {
        done: int("done")?,
        pending: int("pending")?,
        ok: int("ok")?,
        panicked: int("panicked")?,
        timed_out: int("timed_out")?,
        exhausted: int("exhausted")?,
        retried: int("retried")?,
        elapsed_seconds: num("elapsed_seconds")?,
        units_per_second: num("units_per_second")?,
        workers: int("workers")?,
        busy: int("busy")?,
    })
}

/// An open journal being appended to.
#[derive(Debug)]
pub struct Journal {
    out: BufWriter<File>,
    path: std::path::PathBuf,
    /// Sequence number the next appended event record receives.
    next_event_seq: u64,
}

impl Journal {
    /// Creates a fresh journal at `path`, writing the header line.
    /// Refuses to overwrite an existing file — resume it instead.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Journal, JobError> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| JobError::io(path, e))?;
        let mut j = Journal {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            next_event_seq: 0,
        };
        j.append_line(&header_to_json(header).to_compact())?;
        Ok(j)
    }

    /// Re-opens an existing journal for appending more unit records.
    ///
    /// A crash mid-append can leave a partial final line with no
    /// trailing newline; appending straight after it would glue the next
    /// record onto the fragment and corrupt the journal for every later
    /// reader. The tail is repaired first: a final line that is complete
    /// JSON merely lost its newline (the kill landed between the record
    /// bytes and the `'\n'`) and gets one; anything else is a torn
    /// fragment and is truncated away — the same line [`read`] drops.
    pub fn append_to(path: &Path) -> Result<Journal, JobError> {
        repair_torn_tail(path)?;
        let next_event_seq = next_event_seq_of(path)?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| JobError::io(path, e))?;
        Ok(Journal {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            next_event_seq,
        })
    }

    /// Appends one encoded unit record (see [`UnitRecord::encode`]) and
    /// flushes it to the OS. After this returns the unit will survive a
    /// process kill.
    pub fn append(&mut self, unit: &UnitLine) -> Result<(), JobError> {
        self.append_line(unit.as_str())
    }

    /// Appends one observability event record (see [`EventRecord`]),
    /// stamping its `seq` with this journal's next sequence number —
    /// whatever the caller put there is overwritten, so sequence
    /// assignment has exactly one owner. Returns the assigned number.
    pub fn append_event(&mut self, event: &EventRecord) -> Result<u64, JobError> {
        let seq = self.next_event_seq;
        let stamped = EventRecord {
            seq,
            ..event.clone()
        };
        self.append_line(&event_to_json(&stamped).to_compact())?;
        self.next_event_seq += 1;
        Ok(seq)
    }

    /// Appends one progress heartbeat (see [`ProgressRecord`]).
    pub fn append_progress(&mut self, progress: &ProgressRecord) -> Result<(), JobError> {
        self.append_line(&progress_to_json(progress).to_compact())
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Recovers from a failed append so the *next* append starts from
    /// clean state: any half-buffered line is discarded unflushed, a
    /// torn on-disk tail is repaired, and the file handle is reopened.
    ///
    /// Safe to combine with a retried append. If the failed append in
    /// fact reached the disk in full, the retry writes a duplicate
    /// record — harmless, because the merge collapses duplicates; if it
    /// reached the disk partially, the torn tail is truncated here
    /// exactly as a crash tail would be on resume.
    pub fn recover(&mut self) -> Result<(), JobError> {
        repair_torn_tail(&self.path)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| JobError::io(&self.path, e))?;
        let stale = std::mem::replace(&mut self.out, BufWriter::new(file));
        // `into_parts` hands the buffer back without flushing it — the
        // whole point: the failed line must not leak after the repair.
        let _ = stale.into_parts();
        Ok(())
    }

    fn append_line(&mut self, line: &str) -> Result<(), JobError> {
        debug_assert!(!line.contains('\n'), "compact JSON is single-line");
        writeln!(self.out, "{line}").map_err(|e| JobError::io(&self.path, e))?;
        self.out.flush().map_err(|e| JobError::io(&self.path, e))
    }
}

/// Truncates a torn final line (see [`Journal::append_to`]) so the file
/// ends exactly at the last intact record's newline, or writes the
/// missing newline when the final line is a complete record that lost
/// only its terminator.
fn repair_torn_tail(path: &Path) -> Result<(), JobError> {
    use std::io::Seek;

    let bytes = std::fs::read(path).map_err(|e| JobError::io(path, e))?;
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(());
    }
    let tail_start = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let intact = std::str::from_utf8(&bytes[tail_start..])
        .ok()
        .is_some_and(|s| Json::parse(s).is_ok());
    let mut file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| JobError::io(path, e))?;
    if intact {
        file.seek(std::io::SeekFrom::End(0))
            .and_then(|_| file.write_all(b"\n"))
            .map_err(|e| JobError::io(path, e))?;
    } else {
        file.set_len(tail_start as u64)
            .map_err(|e| JobError::io(path, e))?;
    }
    Ok(())
}

/// The sequence number the next event appended to `path` should carry:
/// one past the largest already journaled, or 0 for an event-free file.
///
/// Called after [`repair_torn_tail`], so every line parses. Lines are
/// pre-filtered on the raw `"kind":"event"` byte string before the JSON
/// parse — inside a JSON string value those quotes would be escaped, so
/// the filter can only over-match (and the parse then disambiguates),
/// never miss an event line our writer produced.
fn next_event_seq_of(path: &Path) -> Result<u64, JobError> {
    let text = std::fs::read_to_string(path).map_err(|e| JobError::io(path, e))?;
    let mut next = 0u64;
    for line in text.lines() {
        if !line.contains("\"kind\":\"event\"") {
            continue;
        }
        let Ok(j) = Json::parse(line) else { continue };
        if j.get("kind").and_then(Json::as_str) != Some("event") {
            continue;
        }
        let seq = j.get("seq").and_then(Json::as_u64).unwrap_or(0);
        next = next.max(seq + 1);
    }
    Ok(next)
}

/// Everything read back from a journal file.
#[derive(Clone, Debug)]
pub struct JournalContents {
    /// The header line.
    pub header: JournalHeader,
    /// Every intact unit record, in append order.
    pub units: Vec<UnitRecord>,
    /// Every intact event record, in append order (observability only).
    pub events: Vec<EventRecord>,
    /// Every intact progress heartbeat, in append order (observability
    /// only; empty for schema-2 journals).
    pub progress: Vec<ProgressRecord>,
    /// `true` when the final line was torn (a crash mid-write) and was
    /// dropped.
    pub torn: bool,
}

impl JournalContents {
    /// The set of already-completed `(task, stem)` units — work a resumed
    /// run must not repeat.
    pub fn done(&self) -> HashSet<(usize, usize)> {
        self.units.iter().map(|u| (u.task, u.stem)).collect()
    }
}

/// One journal line after the header.
// Nearly every line is a unit, so boxing the large variant would only add
// an allocation per line.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, PartialEq)]
enum Record {
    Unit(UnitRecord),
    Event(EventRecord),
    Progress(ProgressRecord),
}

/// Why a journal line did not decode.
#[derive(Debug)]
enum LineError {
    /// Not complete JSON: a tear when it is the unterminated last line,
    /// corruption anywhere else.
    Incomplete(JsonError),
    /// Complete JSON that is not a well-formed record: corruption wherever
    /// it sits.
    Malformed(JobError),
}

/// Decodes one line after the header. One walk decodes a unit line; the
/// rarer event and progress lines are parsed again as trees.
fn decode_line(line: &str) -> Result<Record, LineError> {
    let fields = match UnitFields::walk(line) {
        Ok(fields) => fields,
        // The walk shares the parser's grammar, so it fails on complete
        // JSON only when the line is not an object, which has no kind.
        Err(e) if Json::parse(line).is_err() => return Err(LineError::Incomplete(e)),
        Err(_) => return Err(LineError::Malformed(kind_error())),
    };
    let tree = || Json::parse(line).map_err(|e| JobError::journal(e.to_string()));
    match fields.kind() {
        Some("unit") => fields.into_unit().map(Record::Unit),
        Some("event") => tree().and_then(|j| event_from_json(&j)).map(Record::Event),
        Some("progress") => tree()
            .and_then(|j| progress_from_json(&j))
            .map(Record::Progress),
        _ => Err(kind_error()),
    }
    .map_err(LineError::Malformed)
}

fn kind_error() -> JobError {
    JobError::journal("record kind is not \"unit\", \"event\" or \"progress\"")
}

/// Reads a journal back, tolerating a torn final line.
pub fn read(path: &Path) -> Result<JournalContents, JobError> {
    let text = std::fs::read_to_string(path).map_err(|e| JobError::io(path, e))?;
    let mut lines = text.lines().enumerate();
    let (_, first) = lines
        .next()
        .ok_or_else(|| JobError::journal("journal is empty"))?;
    let header = Json::parse(first)
        .map_err(|e| JobError::journal(format!("header line: {e}")))
        .and_then(|j| header_from_json(&j))?;
    let mut units = Vec::new();
    let mut events = Vec::new();
    let mut progress = Vec::new();
    let mut torn = false;
    let last_index = text.lines().count() - 1;
    // A crash mid-append leaves a *prefix* of "record\n": never valid
    // JSON (a truncated object is unclosed) and never newline-terminated.
    // Only such a line, in final position, is torn; a line that parses as
    // complete JSON but is not a well-formed unit record is corruption —
    // a hard error wherever it sits.
    let ends_with_newline = text.ends_with('\n');
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match decode_line(line) {
            Ok(Record::Unit(u)) => {
                if u.task >= header.tasks.len() || u.stem >= header.tasks[u.task].stems {
                    return Err(JobError::journal(format!(
                        "line {}: unit ({}, {}) is out of range for the header",
                        i + 1,
                        u.task,
                        u.stem
                    )));
                }
                units.push(u);
            }
            Ok(Record::Event(e)) => events.push(e),
            Ok(Record::Progress(p)) => progress.push(p),
            Err(LineError::Incomplete(_)) if i == last_index && !ends_with_newline => {
                // The process died mid-append; the journal up to here is
                // intact.
                torn = true;
            }
            Err(LineError::Incomplete(e)) => {
                return Err(JobError::journal(format!(
                    "line {}: malformed record before end of journal ({e})",
                    i + 1
                )));
            }
            Err(LineError::Malformed(e)) => {
                let msg = match e {
                    JobError::Journal { message } => message,
                    other => other.to_string(),
                };
                return Err(JobError::journal(format!("line {}: {msg}", i + 1)));
            }
        }
    }
    Ok(JournalContents {
        header,
        units,
        events,
        progress,
        torn,
    })
}

/// Builds the header for a freshly resolved campaign. `stems` must be the
/// per-task canonical stem counts.
pub fn header_for(spec: &CampaignSpec, tasks: &[ResolvedTask], stems: &[usize]) -> JournalHeader {
    JournalHeader {
        spec: spec.clone(),
        tasks: tasks
            .iter()
            .zip(stems)
            .map(|(t, &stems)| TaskFingerprint {
                circuit: t.name.clone(),
                hash: t.hash,
                stems,
            })
            .collect(),
    }
}

/// Checks a journal header against this build's resolution of its spec.
///
/// # Errors
///
/// [`JobError::Mismatch`] when a circuit's content hash or stem count
/// differs — the journal's unit indices would mean different work.
pub fn verify_header(
    header: &JournalHeader,
    tasks: &[ResolvedTask],
    stems: &[usize],
) -> Result<(), JobError> {
    if header.tasks.len() != tasks.len() {
        return Err(JobError::journal(format!(
            "header lists {} tasks but the spec resolves to {}",
            header.tasks.len(),
            tasks.len()
        )));
    }
    for ((fp, task), &n) in header.tasks.iter().zip(tasks).zip(stems) {
        if fp.circuit != task.name {
            return Err(JobError::Mismatch {
                circuit: fp.circuit.clone(),
                message: format!("resolves to {:?} in this build", task.name),
            });
        }
        if fp.hash != task.hash {
            return Err(JobError::Mismatch {
                circuit: fp.circuit.clone(),
                message: format!(
                    "content hash {:016x} != journal's {:016x}",
                    task.hash, fp.hash
                ),
            });
        }
        if fp.stems != n {
            return Err(JobError::Mismatch {
                circuit: fp.circuit.clone(),
                message: format!("{} stems != journal's {}", n, fp.stems),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod codec_reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> crate::test_common::TempJournal {
        crate::test_common::TempJournal::new("fires-jobs", name, "job.jsonl")
    }

    fn sample_header() -> JournalHeader {
        let spec = CampaignSpec::from_circuits("t", ["s27", "fig3"]);
        let tasks = spec.resolve().unwrap();
        header_for(&spec, &tasks, &[9, 2])
    }

    fn sample_unit() -> UnitRecord {
        let mut metrics = RunMetrics::default();
        metrics.incr("core.marks_created", 41);
        UnitRecord {
            task: 0,
            stem: 3,
            status: UnitStatus::Ok,
            faults: vec![(12, true, 0, 0), (7, false, 2, -1)],
            marks: 41,
            frames: 5,
            retries: 0,
            reason: None,
            seconds: 0.002,
            phases: vec![("implication".into(), 0.001), ("validation".into(), 0.001)],
            metrics,
            profile: None,
        }
    }

    #[test]
    fn unit_profiles_round_trip_and_reject_malformation() {
        let path = temp("profile");
        let mut profile = RuleProfile::new();
        profile.record(fires_obs::ALL_RULES[0]);
        profile.record_many(fires_obs::ALL_RULES[3], 7);
        profile.note_unattributed();
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(
            &UnitRecord {
                profile: Some(profile.clone()),
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.units[0].profile.as_ref(), Some(&profile));
        assert_eq!(back.units[1].profile, None);
        // Present-but-malformed is corruption, not a tolerated absence.
        // The rewrite keeps the line valid JSON (the old object survives
        // under a junk key) so the failure is the profile check itself.
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"profile\":{", "\"profile\":42,\"junk\":{");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn round_trips_header_and_units() {
        let path = temp("round-trip");
        let header = sample_header();
        let mut j = Journal::create(&path, &header).unwrap();
        let unit = sample_unit();
        j.append(&unit.encode()).unwrap();
        j.append(
            &UnitRecord {
                stem: 4,
                status: UnitStatus::Panic,
                faults: vec![],
                ..unit.clone()
            }
            .encode(),
        )
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.header, header);
        assert_eq!(back.units.len(), 2);
        assert_eq!(back.units[0], unit);
        assert_eq!(back.units[1].status, UnitStatus::Panic);
        assert!(!back.torn);
        assert!(back.done().contains(&(0, 3)));
    }

    #[test]
    fn exhausted_units_and_events_round_trip() {
        let path = temp("exhausted");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append_event(&EventRecord {
            seq: 0,
            task: 0,
            stem: 5,
            attempt: 0,
            what: "unit-retry".into(),
            detail: "attempt panicked; caches rebuilt".into(),
        })
        .unwrap();
        j.append(
            &UnitRecord {
                stem: 5,
                status: UnitStatus::Exhausted,
                retries: 1,
                reason: Some(ExhaustionReason::Steps),
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.units.len(), 1);
        assert_eq!(back.units[0].status, UnitStatus::Exhausted);
        assert_eq!(back.units[0].reason, Some(ExhaustionReason::Steps));
        assert_eq!(back.units[0].retries, 1);
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.events[0].what, "unit-retry");
        // Exhausted units still count as done: resume must not re-run them.
        assert!(back.done().contains(&(0, 5)));
    }

    fn sample_progress() -> ProgressRecord {
        ProgressRecord {
            done: 5,
            pending: 6,
            ok: 3,
            panicked: 1,
            timed_out: 0,
            exhausted: 1,
            retried: 2,
            elapsed_seconds: 1.25,
            units_per_second: 4.0,
            workers: 4,
            busy: 3,
        }
    }

    #[test]
    fn progress_records_round_trip() {
        let path = temp("progress");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        j.append_progress(&sample_progress()).unwrap();
        j.append(
            &UnitRecord {
                stem: 4,
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert_eq!(back.units.len(), 2);
        assert_eq!(back.progress.len(), 1);
        assert_eq!(back.progress[0], sample_progress());
        // Heartbeats never mark work as done.
        assert!(!back.done().contains(&(0, 5)));
    }

    #[test]
    fn schema_2_journals_stay_readable() {
        // Rewrite the header as a schema-2 build stamped it; the record
        // kinds it wrote are a strict subset of ours.
        let path = temp("schema2");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        let text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"schema\":4", "\"schema\":2");
        assert!(text.contains("\"schema\":2"), "header must carry schema 2");
        std::fs::write(&path, text).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back.units.len(), 1);
        assert!(back.progress.is_empty());
        // Schema 1 predates the resumable journal and is refused, as is
        // anything newer than this build.
        for bogus in ["\"schema\":1", "\"schema\":5"] {
            let text = std::fs::read_to_string(&path)
                .unwrap()
                .replace("\"schema\":2", bogus);
            std::fs::write(&path, text).unwrap();
            assert!(
                matches!(read(&path), Err(JobError::Journal { .. })),
                "{bogus}"
            );
            let text = std::fs::read_to_string(&path)
                .unwrap()
                .replace(bogus, "\"schema\":2");
            std::fs::write(&path, text).unwrap();
        }
    }

    #[test]
    fn schema_3_events_without_seq_read_back_as_zero() {
        // A schema-3 build journaled events with no seq field; they must
        // stay readable, carrying 0.
        let path = temp("schema3-events");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"schema\":4", "\"schema\":3");
        text.push_str(
            "{\"kind\":\"event\",\"task\":0,\"stem\":5,\"attempt\":0,\
             \"what\":\"unit-retry\",\"detail\":\"old build\"}\n",
        );
        std::fs::write(&path, text).unwrap();
        let back = read(&path).unwrap();
        assert_eq!(back.events.len(), 1);
        assert_eq!(back.events[0].seq, 0);
        assert_eq!(back.events[0].what, "unit-retry");
    }

    #[test]
    fn event_seqs_are_monotonic_and_survive_resume() {
        let path = temp("event-seq");
        let ev = |what: &str| EventRecord {
            // A deliberately wrong caller-side seq: append_event owns
            // sequence assignment and must overwrite it.
            seq: 999,
            task: 0,
            stem: 1,
            attempt: 0,
            what: what.into(),
            detail: String::new(),
        };
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        assert_eq!(j.append_event(&ev("first")).unwrap(), 0);
        assert_eq!(j.append_event(&ev("second")).unwrap(), 1);
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        // A resume continues the numbering where the file left off.
        let mut j2 = Journal::append_to(&path).unwrap();
        assert_eq!(j2.append_event(&ev("third")).unwrap(), 2);
        drop(j2);
        let back = read(&path).unwrap();
        let seqs: Vec<u64> = back.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(back.events[2].what, "third");
    }

    #[test]
    fn reason_must_match_status() {
        let path = temp("reason-mismatch");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(
            &UnitRecord {
                status: UnitStatus::Ok,
                reason: Some(ExhaustionReason::Steps),
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
        let path = temp("reason-missing");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(
            &UnitRecord {
                status: UnitStatus::Exhausted,
                reason: None,
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn recover_repairs_a_torn_tail_and_keeps_appending() {
        let path = temp("recover");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        // Simulate a failed append that reached the disk partially.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"kind\":\"unit\",\"task\":0,\"ste").unwrap();
        }
        j.recover().unwrap();
        j.append(
            &UnitRecord {
                stem: 4,
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        drop(j);
        let back = read(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.units.len(), 2);
        assert!(back.done().contains(&(0, 4)));
    }

    #[test]
    fn create_refuses_to_overwrite() {
        let path = temp("no-overwrite");
        let header = sample_header();
        Journal::create(&path, &header).unwrap();
        assert!(matches!(
            Journal::create(&path, &header),
            Err(JobError::Io { .. })
        ));
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = temp("torn");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        // Simulate a crash mid-append: half a record at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"unit\",\"task\":0,\"st");
        std::fs::write(&path, text).unwrap();
        let back = read(&path).unwrap();
        assert!(back.torn);
        assert_eq!(back.units.len(), 1);
    }

    #[test]
    fn append_to_truncates_a_torn_tail() {
        let path = temp("torn-append");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        let before = std::fs::read_to_string(&path).unwrap();
        let mut text = before.clone();
        text.push_str("{\"kind\":\"unit\",\"task\":0,\"st");
        std::fs::write(&path, text).unwrap();
        let mut j2 = Journal::append_to(&path).unwrap();
        j2.append(
            &UnitRecord {
                stem: 4,
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        drop(j2);
        // The fragment is gone and the journal is clean end-to-end.
        assert!(std::fs::read_to_string(&path).unwrap().starts_with(&before));
        let back = read(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.units.len(), 2);
        assert!(back.done().contains(&(0, 4)));
    }

    #[test]
    fn append_to_completes_a_record_missing_only_its_newline() {
        let path = temp("no-newline");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        // The kill landed between the record bytes and its '\n'.
        let mut text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.pop(), Some('\n'));
        std::fs::write(&path, text).unwrap();
        let mut j2 = Journal::append_to(&path).unwrap();
        j2.append(
            &UnitRecord {
                stem: 4,
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        drop(j2);
        let back = read(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.units.len(), 2);
        assert_eq!(back.units[0], sample_unit());
    }

    #[test]
    fn complete_json_with_bad_record_is_an_error_even_at_the_end() {
        let path = temp("bad-final");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        for bad in ["{\"kind\":\"unit\",\"task\":0}", "{\"kind\":\"noise\"}"] {
            let mut text = std::fs::read_to_string(&path).unwrap();
            let len = text.len();
            text.push_str(bad);
            std::fs::write(&path, &text).unwrap();
            assert!(
                matches!(read(&path), Err(JobError::Journal { .. })),
                "final line {bad:?} must be corruption, not a tear"
            );
            text.truncate(len);
            std::fs::write(&path, &text).unwrap();
        }
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = temp("corrupt");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("garbage\n");
        let mut j2 = Journal::append_to(&path).unwrap();
        std::fs::write(&path, &text).unwrap();
        j2.append(&sample_unit().encode()).unwrap();
        drop(j2);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn out_of_range_units_are_rejected() {
        let path = temp("range");
        let mut j = Journal::create(&path, &sample_header()).unwrap();
        j.append(
            &UnitRecord {
                stem: 999,
                ..sample_unit()
            }
            .encode(),
        )
        .unwrap();
        // A second record so the bad one is not excusable as torn.
        j.append(&sample_unit().encode()).unwrap();
        drop(j);
        assert!(matches!(read(&path), Err(JobError::Journal { .. })));
    }

    #[test]
    fn verify_header_catches_drift() {
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        let tasks = spec.resolve().unwrap();
        let header = header_for(&spec, &tasks, &[9]);
        assert!(verify_header(&header, &tasks, &[9]).is_ok());
        assert!(matches!(
            verify_header(&header, &tasks, &[8]),
            Err(JobError::Mismatch { .. })
        ));
        let mut drifted = tasks.clone();
        drifted[0].hash ^= 1;
        assert!(matches!(
            verify_header(&header, &drifted, &[9]),
            Err(JobError::Mismatch { .. })
        ));
    }

    #[test]
    fn identified_faults_reconstruct() {
        let u = sample_unit();
        let stem = LineId::new(42);
        let ids = u.identified(stem);
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].fault.line, LineId::new(12));
        assert!(ids[0].fault.stuck.as_bool());
        assert_eq!(ids[1].frame, -1);
        assert_eq!(ids[1].stem, stem);
    }
}
