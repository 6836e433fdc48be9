//! Cheap journal summarisation — the shared path behind `fires status`
//! and `fires watch`.
//!
//! [`crate::report`] resolves the spec and builds every engine, which is
//! the right cost for a *result* (the merge needs the canonical stem
//! order) but far too heavy to poll once a second against a live
//! journal. A [`JournalSummary`] is computed from the journal contents
//! alone: per-task unit counts come straight from the unit records, the
//! task totals from the header's [`TaskFingerprint`]s, and latency
//! quantiles from each unit's journaled `seconds` — no circuit is ever
//! generated. Both commands render from this one struct, so `fires
//! status` and `fires watch` can never disagree about the same journal.
//!
//! [`TaskFingerprint`]: crate::journal::TaskFingerprint

use fires_obs::{Histogram, Json};

use crate::journal::{JournalContents, ProgressRecord, UnitStatus};

/// Unit-count rollup of one task (one circuit) of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskProgress {
    /// Resolved circuit name (from the journal header).
    pub name: String,
    /// Total work units (fanout stems) of the task.
    pub total: usize,
    /// Units journaled `ok`.
    pub ok: usize,
    /// Units journaled `panic` (poisoned).
    pub panicked: usize,
    /// Units journaled `timeout`.
    pub timed_out: usize,
    /// Units journaled `exhausted`.
    pub exhausted: usize,
    /// Units whose terminal record needed at least one retry.
    pub retried: usize,
}

impl TaskProgress {
    /// Units with any terminal record.
    pub fn recorded(&self) -> usize {
        self.ok + self.panicked + self.timed_out + self.exhausted
    }

    /// Units still unprocessed.
    pub fn pending(&self) -> usize {
        self.total.saturating_sub(self.recorded())
    }
}

/// How many of the slowest units [`JournalSummary::worst_stems`] keeps.
pub const WORST_STEMS_TOP: usize = 5;

/// One entry of the worst-stem list: a unit whose latency puts it in the
/// campaign's pathological tail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorstStem {
    /// Resolved circuit name of the unit's task.
    pub task: String,
    /// Index into the task's canonical stem order.
    pub stem: usize,
    /// Wall-clock seconds the unit took.
    pub seconds: f64,
    /// Implication steps the unit recorded (0 for untraced runs).
    pub steps: u64,
}

/// Everything `status`/`watch` show about a journal, computed without
/// resolving the spec or building engines.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalSummary {
    /// Campaign name (from the spec carried in the header).
    pub campaign: String,
    /// Per-task rollups, in header task order.
    pub tasks: Vec<TaskProgress>,
    /// Per-unit wall-clock latency in microseconds, over every journaled
    /// unit regardless of status.
    pub latency_us: Histogram,
    /// The [`WORST_STEMS_TOP`] slowest units by wall-clock, worst first
    /// (ties broken by `(task, stem)` so the list is deterministic for a
    /// given set of records).
    pub worst_stems: Vec<WorstStem>,
    /// The newest journaled heartbeat, if any (carries throughput and
    /// worker occupancy of the writing process).
    pub last_progress: Option<ProgressRecord>,
    /// Journaled `event` records (retries, journal IO faults, …).
    pub events: usize,
    /// Highest `seq` among the journal's events, if any were recorded.
    /// Events written before schema 4 all carry seq 0, so a resumed old
    /// journal reports `Some(0)` here rather than a fresh counter.
    pub last_event_seq: Option<u64>,
    /// `true` when the journal's final line was torn and dropped.
    pub torn: bool,
}

impl JournalSummary {
    /// Summarises journal contents. Pure and cheap: one pass over the
    /// unit records.
    pub fn summarize(contents: &JournalContents) -> JournalSummary {
        let mut tasks: Vec<TaskProgress> = contents
            .header
            .tasks
            .iter()
            .map(|f| TaskProgress {
                name: f.circuit.clone(),
                total: f.stems,
                ..TaskProgress::default()
            })
            .collect();
        let mut latency_us = Histogram::default();
        let mut worst_stems: Vec<WorstStem> = Vec::new();
        for u in &contents.units {
            latency_us.observe((u.seconds * 1e6) as u64);
            let Some(t) = tasks.get_mut(u.task) else {
                continue;
            };
            worst_stems.push(WorstStem {
                task: t.name.clone(),
                stem: u.stem,
                seconds: u.seconds,
                steps: u
                    .metrics
                    .histogram("core.stem_steps")
                    .map_or(0, |h| h.sum()),
            });
            match u.status {
                UnitStatus::Ok => t.ok += 1,
                UnitStatus::Panic => t.panicked += 1,
                UnitStatus::Timeout => t.timed_out += 1,
                UnitStatus::Exhausted => t.exhausted += 1,
            }
            if u.retries > 0 {
                t.retried += 1;
            }
        }
        worst_stems.sort_by(|a, b| {
            b.seconds
                .total_cmp(&a.seconds)
                .then_with(|| (&a.task, a.stem).cmp(&(&b.task, b.stem)))
        });
        worst_stems.truncate(WORST_STEMS_TOP);
        JournalSummary {
            campaign: contents.header.spec.name.clone(),
            tasks,
            latency_us,
            worst_stems,
            last_progress: contents.progress.last().cloned(),
            events: contents.events.len(),
            last_event_seq: contents.events.iter().map(|e| e.seq).max(),
            torn: contents.torn,
        }
    }

    /// Units with any terminal record, across all tasks.
    pub fn done(&self) -> usize {
        self.tasks.iter().map(TaskProgress::recorded).sum()
    }

    /// Total units of the campaign.
    pub fn total(&self) -> usize {
        self.tasks.iter().map(|t| t.total).sum()
    }

    /// `true` when every unit has a terminal record.
    pub fn complete(&self) -> bool {
        self.done() == self.total()
    }

    /// The machine-readable form behind `fires status --json`.
    pub fn to_json(&self) -> Json {
        let tasks: Vec<Json> = self
            .tasks
            .iter()
            .map(|t| {
                let mut j = Json::object();
                j.set("name", t.name.clone())
                    .set("total", t.total as u64)
                    .set("ok", t.ok as u64)
                    .set("panicked", t.panicked as u64)
                    .set("timed_out", t.timed_out as u64)
                    .set("exhausted", t.exhausted as u64)
                    .set("retried", t.retried as u64)
                    .set("pending", t.pending() as u64);
                j
            })
            .collect();
        let mut j = Json::object();
        j.set("campaign", self.campaign.clone())
            .set("done", self.done() as u64)
            .set("total", self.total() as u64)
            .set("complete", self.complete())
            .set("torn", self.torn)
            .set("tasks", Json::Arr(tasks));
        if self.latency_us.count() > 0 {
            j.set("unit_latency_us", self.latency_us.to_json());
        }
        if !self.worst_stems.is_empty() {
            let worst: Vec<Json> = self
                .worst_stems
                .iter()
                .map(|w| {
                    let mut e = Json::object();
                    e.set("task", w.task.clone())
                        .set("stem", w.stem as u64)
                        .set("seconds", w.seconds)
                        .set("steps", w.steps);
                    e
                })
                .collect();
            j.set("worst_stems", Json::Arr(worst));
        }
        if self.events > 0 {
            j.set("events", self.events as u64);
            if let Some(seq) = self.last_event_seq {
                j.set("last_event_seq", seq);
            }
        }
        if let Some(p) = &self.last_progress {
            let mut beat = Json::object();
            beat.set("done", p.done)
                .set("pending", p.pending)
                .set("elapsed_seconds", p.elapsed_seconds)
                .set("units_per_second", p.units_per_second)
                .set("workers", p.workers)
                .set("busy", p.busy);
            j.set("last_progress", beat);
        }
        j
    }

    /// The `fires status` table (also the top of every `watch` frame).
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>9} {:>9} {:>9} {:>8} {:>8}",
            "circuit", "ok", "poisoned", "timedout", "exhausted", "retried", "pending"
        );
        for t in &self.tasks {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>9} {:>9} {:>9} {:>8} {:>8}",
                t.name,
                t.ok,
                t.panicked,
                t.timed_out,
                t.exhausted,
                t.retried,
                t.pending(),
            );
        }
        let _ = writeln!(
            out,
            "{}/{} unit(s) journaled; campaign {}",
            self.done(),
            self.total(),
            if self.complete() {
                "complete"
            } else {
                "incomplete"
            }
        );
        out
    }

    /// One live `fires watch` frame: the status table plus throughput,
    /// ETA and latency-quantile lines.
    pub fn render_watch(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "campaign {}", self.campaign);
        out.push_str(&self.render_table());
        if self.latency_us.count() > 0 {
            let h = &self.latency_us;
            let _ = writeln!(
                out,
                "stem latency: p50 {} p95 {} max {} (over {} unit(s))",
                fmt_us(h.p50()),
                fmt_us(h.p95()),
                fmt_us(h.max()),
                h.count(),
            );
        }
        if !self.worst_stems.is_empty() {
            let tail: Vec<String> = self
                .worst_stems
                .iter()
                .map(|w| {
                    format!(
                        "{}#{} {} ({} steps)",
                        w.task,
                        w.stem,
                        fmt_us((w.seconds * 1e6) as u64),
                        w.steps
                    )
                })
                .collect();
            let _ = writeln!(out, "worst stems: {}", tail.join(", "));
        }
        if let Some(p) = &self.last_progress {
            let _ = writeln!(
                out,
                "throughput: {:.1} stems/s, {}/{} worker(s) busy, {:.1}s elapsed{}",
                p.units_per_second,
                p.busy,
                p.workers,
                p.elapsed_seconds,
                match eta_seconds(p) {
                    Some(eta) => format!(", ETA {eta:.0}s"),
                    None => String::new(),
                }
            );
        }
        if self.events > 0 {
            let _ = writeln!(
                out,
                "events: {} journaled (last seq {})",
                self.events,
                self.last_event_seq.unwrap_or(0),
            );
        }
        if self.torn {
            let _ = writeln!(
                out,
                "note: final journal line was torn (writer killed mid-append)"
            );
        }
        out
    }
}

/// Remaining seconds estimated from the latest heartbeat's throughput;
/// `None` when the campaign is drained or the rate is zero.
fn eta_seconds(p: &ProgressRecord) -> Option<f64> {
    if p.pending == 0 || p.units_per_second <= 0.0 {
        return None;
    }
    Some(p.pending as f64 / p.units_per_second)
}

/// Renders microseconds with a readable unit.
fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}\u{b5}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::read;
    use crate::runner::{run, RunnerConfig};
    use crate::spec::CampaignSpec;
    use std::time::Duration;

    fn temp(name: &str) -> crate::test_common::TempJournal {
        crate::test_common::TempJournal::new("fires-summary", name, "job.jsonl")
    }

    #[test]
    fn summary_agrees_with_the_full_merge() {
        let path = temp("agrees");
        let spec = CampaignSpec::from_circuits("t", ["s27", "fig3"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let contents = read(&path).unwrap();
        let summary = JournalSummary::summarize(&contents);
        let merged = crate::report(&path).unwrap();
        assert_eq!(summary.campaign, "t");
        assert_eq!(summary.tasks.len(), merged.tasks.len());
        for (s, m) in summary.tasks.iter().zip(&merged.tasks) {
            assert_eq!(s.name, m.name);
            assert_eq!(s.total, m.units_total);
            assert_eq!(s.ok, m.units_ok);
            assert_eq!(s.panicked, m.units_panicked);
            assert_eq!(s.timed_out, m.units_timed_out);
            assert_eq!(s.exhausted, m.units_exhausted);
            assert_eq!(s.retried, m.units_retried);
            assert_eq!(s.pending(), 0);
        }
        assert!(summary.complete());
        assert_eq!(summary.latency_us.count(), summary.done() as u64);
    }

    #[test]
    fn worst_stems_rank_the_latency_tail() {
        let path = temp("worst");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let mut contents = read(&path).unwrap();
        // Forge latencies so the ranking is fully determined.
        for (i, u) in contents.units.iter_mut().enumerate() {
            u.seconds = i as f64;
        }
        let summary = JournalSummary::summarize(&contents);
        let worst = &summary.worst_stems;
        assert_eq!(worst.len(), WORST_STEMS_TOP.min(contents.units.len()));
        assert!(worst.windows(2).all(|w| w[0].seconds >= w[1].seconds));
        assert_eq!(worst[0].seconds, (contents.units.len() - 1) as f64);
        // Traced units carry their step counts into the ranking.
        assert!(worst.iter().all(|w| w.steps > 0));
        let json = summary.to_json();
        let listed = json
            .get("worst_stems")
            .and_then(Json::as_arr)
            .expect("worst_stems in status --json");
        assert_eq!(listed.len(), worst.len());
        assert_eq!(
            listed[0].get("steps").and_then(Json::as_u64),
            Some(worst[0].steps)
        );
        assert!(summary.render_watch().contains("worst stems:"));
    }

    #[test]
    fn event_count_and_last_seq_surface_in_watch_and_json() {
        let path = temp("events");
        let spec = CampaignSpec::from_circuits("t", ["fig3"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let mut contents = read(&path).unwrap();
        // An untroubled run journals no events and renders no event line.
        let quiet = JournalSummary::summarize(&contents);
        assert_eq!(quiet.events, 0);
        assert_eq!(quiet.last_event_seq, None);
        assert!(!quiet.render_watch().contains("events:"));
        assert!(quiet.to_json().get("events").is_none());
        // Forge journaled events (a retry and a journal IO fault).
        for (seq, what) in [(0u64, "unit-retry"), (1, "journal-retry")] {
            contents.events.push(crate::journal::EventRecord {
                seq,
                task: 0,
                stem: 0,
                attempt: 1,
                what: what.into(),
                detail: "injected".into(),
            });
        }
        let summary = JournalSummary::summarize(&contents);
        assert_eq!(summary.events, 2);
        assert_eq!(summary.last_event_seq, Some(1));
        assert!(summary
            .render_watch()
            .contains("events: 2 journaled (last seq 1)"));
        let json = summary.to_json();
        assert_eq!(json.get("events").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("last_event_seq").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn partial_journal_reports_pending_and_heartbeat() {
        let path = temp("partial");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        let rc = RunnerConfig {
            max_units: Some(2),
            progress_interval: Some(Duration::ZERO),
            ..Default::default()
        };
        run(&spec, &path, &rc).unwrap();
        let summary = JournalSummary::summarize(&read(&path).unwrap());
        assert!(!summary.complete());
        assert_eq!(summary.done(), 2);
        assert_eq!(summary.tasks[0].pending(), summary.total() - 2);
        let p = summary.last_progress.as_ref().expect("heartbeat journaled");
        assert_eq!(p.done, 2);
        let json = summary.to_json();
        assert_eq!(json.get("done").and_then(Json::as_u64), Some(2));
        assert_eq!(json.get("complete").and_then(Json::as_bool), Some(false));
        assert!(json.get("last_progress").is_some());
        assert!(json.get("unit_latency_us").is_some());
        // Both renders include the shared counts line.
        let frame = summary.render_watch();
        assert!(frame.contains(&summary.render_table()));
        assert!(frame.contains("stem latency"));
        assert!(frame.contains("throughput"));
    }
}
