//! Deterministic merging of journaled work units into a campaign report.
//!
//! The merged report is a pure function of the *set* of unit records:
//! independent of thread count, journal append order, and of whether the
//! campaign ran in one process or was killed and resumed. That holds
//! because per-fault candidates go through [`fold_identified`], whose
//! total order makes the fold order-free, and every list in the
//! canonical form is sorted. [`CampaignReport::canonical_json`] excludes wall-clock
//! fields, so its bytes can be `diff`ed across runs.

use fires_core::{fold_identified, Fires, IdentifiedFault};
use fires_obs::{Json, RuleProfile, RunMetrics, RunReport};

use crate::journal::{JournalContents, UnitStatus};
use crate::spec::ResolvedTask;

/// Merged results of one task.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Resolved circuit name.
    pub name: String,
    /// Whether the task ran with Definition-6 validation.
    pub validated: bool,
    /// Frame budget the task ran under.
    pub frame_budget: usize,
    /// Total work units (fanout stems) of the task.
    pub units_total: usize,
    /// Units with an `ok` journal record.
    pub units_ok: usize,
    /// Units journaled as panicked.
    pub units_panicked: usize,
    /// Units journaled as timed out.
    pub units_timed_out: usize,
    /// Units journaled as exhausted (budget hit). Their partial faults
    /// are **never** merged into `faults` — exhausted stems must not
    /// contribute to the redundancy claims `S^i`.
    pub units_exhausted: usize,
    /// Units whose terminal record needed at least one retry
    /// (observability only; not part of the canonical form).
    pub units_retried: usize,
    /// Retry/degradation event records journaled for this task
    /// (observability only; not part of the canonical form).
    pub retry_events: usize,
    /// Identified faults after per-fault dedup, sorted by
    /// `(line, stuck)`.
    pub faults: Vec<IdentifiedFault>,
    /// Human-readable fault names (same order as `faults`).
    pub fault_names: Vec<String>,
    /// Total uncontrollability marks across `ok` units.
    pub marks: u64,
    /// Widest frame window any `ok` unit used.
    pub max_frames_used: u64,
    /// Wall-clock seconds summed over this task's journaled units
    /// (observability only; not part of the canonical form).
    pub seconds: f64,
    /// Per-phase seconds summed across units, in first-seen order
    /// (observability only; not part of the canonical form).
    pub phases: Vec<(String, f64)>,
    /// Engine metrics merged across units (observability only; not part
    /// of the canonical form).
    pub metrics: RunMetrics,
    /// Per-rule engine hotspot profile merged across units that carried
    /// one; `None` when no unit did (untraced runs, old journals).
    /// Observability only; not part of the canonical form.
    pub profile: Option<RuleProfile>,
}

impl TaskReport {
    /// `true` when every unit completed with status `ok`.
    pub fn clean(&self) -> bool {
        self.units_ok == self.units_total
    }
}

/// Merged results of a whole campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub campaign: String,
    /// Per-task reports, in spec order.
    pub tasks: Vec<TaskReport>,
}

/// Merges journal contents into a [`CampaignReport`].
///
/// `tasks` must be the spec's resolution in this build (the caller has
/// already verified the journal header against it) and `engines` the
/// matching engines, one per task — built once, e.g. via
/// [`runner::build_engines`](crate::runner::build_engines), and shared
/// with the runner rather than reconstructed here.
///
/// Duplicate records for the same `(task, stem)` unit — possible if two
/// processes ever appended to one journal concurrently — are collapsed
/// to the first occurrence, so every unit is counted exactly once and
/// the canonical report stays canonical. (Unit results are deterministic
/// functions of the unit, so duplicates differ only in timing.)
pub fn merge(
    contents: &JournalContents,
    tasks: &[ResolvedTask],
    engines: &[Fires],
) -> CampaignReport {
    assert_eq!(
        tasks.len(),
        engines.len(),
        "one engine per resolved task, in task order"
    );
    let mut seen = std::collections::HashSet::new();
    let mut reports = Vec::with_capacity(tasks.len());
    for (t, task) in tasks.iter().enumerate() {
        let fires = &engines[t];
        let stems = fires.stems();
        let mut claims = Vec::new();
        let mut report = TaskReport {
            name: task.name.clone(),
            validated: task.config.validate,
            frame_budget: task.config.max_frames,
            units_total: stems.len(),
            units_ok: 0,
            units_panicked: 0,
            units_timed_out: 0,
            units_exhausted: 0,
            units_retried: 0,
            retry_events: contents.events.iter().filter(|e| e.task == t).count(),
            faults: Vec::new(),
            fault_names: Vec::new(),
            marks: 0,
            max_frames_used: 0,
            seconds: 0.0,
            phases: Vec::new(),
            metrics: RunMetrics::default(),
            profile: None,
        };
        for unit in contents.units.iter().filter(|u| u.task == t) {
            if !seen.insert((unit.task, unit.stem)) {
                continue;
            }
            report.seconds += unit.seconds;
            for (name, secs) in &unit.phases {
                match report.phases.iter_mut().find(|(n, _)| n == name) {
                    Some((_, total)) => *total += secs,
                    None => report.phases.push((name.clone(), *secs)),
                }
            }
            report.metrics.merge(&unit.metrics);
            if let Some(p) = &unit.profile {
                report.profile.get_or_insert_with(RuleProfile::new).merge(p);
            }
            if unit.retries > 0 {
                report.units_retried += 1;
            }
            match unit.status {
                UnitStatus::Panic => report.units_panicked += 1,
                UnitStatus::Timeout => report.units_timed_out += 1,
                // Partial results stay out of every canonical result
                // field (faults, marks, frames): only the count is kept.
                UnitStatus::Exhausted => report.units_exhausted += 1,
                UnitStatus::Ok => {
                    report.units_ok += 1;
                    report.marks += unit.marks;
                    report.max_frames_used = report.max_frames_used.max(unit.frames);
                    claims.push(unit);
                }
            }
        }
        report.faults = fold_identified(claims.iter().flat_map(|u| u.identified(stems[u.stem])));
        report.fault_names = report
            .faults
            .iter()
            .map(|f| f.fault.display(fires.lines(), &task.circuit))
            .collect();
        reports.push(report);
    }
    CampaignReport {
        campaign: contents.header.spec.name.clone(),
        tasks: reports,
    }
}

impl CampaignReport {
    /// The canonical, timing-free JSON form. Byte-identical for the same
    /// set of unit records, regardless of thread count, append order or
    /// resume points.
    pub fn canonical_json(&self) -> Json {
        let mut tasks = Vec::with_capacity(self.tasks.len());
        for t in &self.tasks {
            let faults = t
                .faults
                .iter()
                .map(|f| {
                    Json::Arr(vec![
                        Json::Num(f.fault.line.index() as f64),
                        Json::Num(if f.fault.stuck.as_bool() { 1.0 } else { 0.0 }),
                        Json::Num(f.c as f64),
                        Json::Num(f.frame as f64),
                        Json::Num(f.stem.index() as f64),
                    ])
                })
                .collect();
            let mut j = Json::object();
            j.set("circuit", t.name.clone())
                .set("validated", t.validated)
                .set("frame_budget", t.frame_budget as u64)
                .set("units_total", t.units_total as u64)
                .set("units_ok", t.units_ok as u64)
                .set("units_panicked", t.units_panicked as u64)
                .set("units_timed_out", t.units_timed_out as u64)
                .set("units_exhausted", t.units_exhausted as u64)
                .set("identified_faults", t.faults.len() as u64)
                .set("faults", Json::Arr(faults))
                .set(
                    "fault_names",
                    Json::Arr(t.fault_names.iter().cloned().map(Json::Str).collect()),
                )
                .set("marks", t.marks)
                .set("max_frames_used", t.max_frames_used);
            tasks.push(j);
        }
        let mut j = Json::object();
        j.set("campaign", self.campaign.clone())
            .set("schema", crate::journal::JOURNAL_SCHEMA)
            .set("tasks", Json::Arr(tasks));
        j
    }

    /// The canonical form as pretty JSON text (what determinism tests and
    /// the CI resilience check `diff`).
    pub fn canonical_text(&self) -> String {
        self.canonical_json().to_pretty()
    }

    /// Per-task observability reports plus the campaign-level rollup
    /// (via [`RunReport::aggregate`]). Includes wall-clock totals, so —
    /// unlike the canonical form — not run-to-run stable.
    pub fn run_reports(&self) -> (Vec<RunReport>, RunReport) {
        let children: Vec<RunReport> = self
            .tasks
            .iter()
            .map(|t| {
                let mut r = RunReport::new("fires/task", t.name.clone());
                r.total_seconds = t.seconds;
                r.phases = t.phases.clone();
                r.metrics = t.metrics.clone();
                r.profile = t.profile.clone();
                r.set_extra("identified_faults", t.faults.len() as u64)
                    .set_extra("units_total", t.units_total as u64)
                    .set_extra("units_ok", t.units_ok as u64)
                    .set_extra("units_panicked", t.units_panicked as u64)
                    .set_extra("units_timed_out", t.units_timed_out as u64)
                    .set_extra("units_exhausted", t.units_exhausted as u64)
                    .set_extra("units_retried", t.units_retried as u64)
                    .set_extra("retry_events", t.retry_events as u64)
                    .set_extra("marks", t.marks)
                    .set_extra("max_frames_used", t.max_frames_used)
                    .set_extra("validated", t.validated);
                r
            })
            .collect();
        let campaign = RunReport::aggregate("fires/campaign", self.campaign.clone(), &children);
        (children, campaign)
    }

    /// A compact fixed-width table for terminal output.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8} {:>8}\n",
            "circuit", "units", "ok", "bad", "exh", "faults", "marks", "max_fr", "seconds"
        ));
        for t in &self.tasks {
            out.push_str(&format!(
                "{:<12} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8} {:>8.3}\n",
                t.name,
                t.units_total,
                t.units_ok,
                t.units_panicked + t.units_timed_out,
                t.units_exhausted,
                t.faults.len(),
                t.marks,
                t.max_frames_used,
                t.seconds,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{self, UnitRecord};
    use crate::runner::{build_engines, run, RunnerConfig};
    use crate::spec::CampaignSpec;

    fn temp(name: &str) -> crate::test_common::TempJournal {
        crate::test_common::TempJournal::new("fires-merge", name, "job.jsonl")
    }

    #[test]
    fn merged_report_matches_direct_run() {
        let path = temp("direct");
        let circuits = ["s27", "fig3", "fig7", "s208_like"];
        let spec = CampaignSpec::from_circuits("t", circuits);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let contents = journal::read(&path).unwrap();
        let tasks = spec.resolve().unwrap();
        let merged = merge(&contents, &tasks, &build_engines(&tasks).unwrap());

        // The same circuits run through the plain core driver.
        for (t, task) in tasks.iter().enumerate() {
            let direct = Fires::try_new(&task.circuit, task.config).unwrap().run();
            assert_eq!(
                merged.tasks[t].faults,
                direct.redundant_faults(),
                "{}",
                task.name
            );
            assert_eq!(merged.tasks[t].marks, direct.marks_created() as u64);
            assert!(merged.tasks[t].clean(), "{}", task.name);

            // The direct report carries the same per-rule steps as the
            // merged campaign profile, and hands them to its run report.
            let direct_profile = direct.profile();
            assert_eq!(
                direct.run_report("direct", &task.name).profile.as_ref(),
                Some(direct_profile)
            );
            let merged_profile = merged.tasks[t].profile.as_ref().expect("merged profile");
            for rule in fires_obs::ALL_RULES {
                assert_eq!(
                    direct_profile.steps(rule),
                    merged_profile.steps(rule),
                    "{} {}",
                    task.name,
                    rule.name()
                );
            }
            assert_eq!(
                direct_profile.unattributed_steps(),
                merged_profile.unattributed_steps()
            );

            // And the same engine metrics, apart from the two that only
            // report assembly adds. A wall-clock histogram's sum differs
            // between two runs; its count does not.
            let only_direct =
                |name: &str| name == "core.identified_faults" || name == "core.max_frames_used";
            let (d, m) = (direct.metrics(), &merged.tasks[t].metrics);
            let counters = |r: &RunMetrics| -> Vec<(String, u64)> {
                r.counters()
                    .filter(|(n, _)| n.starts_with("core.") && !only_direct(n))
                    .map(|(n, v)| (n.to_string(), v))
                    .collect()
            };
            assert_eq!(counters(d), counters(m), "{}", task.name);
            let maxima = |r: &RunMetrics| -> Vec<(String, u64)> {
                r.maxima()
                    .filter(|(n, _)| !only_direct(n))
                    .map(|(n, v)| (n.to_string(), v))
                    .collect()
            };
            assert_eq!(maxima(d), maxima(m), "{}", task.name);
            let histograms = |r: &RunMetrics| -> Vec<(String, u64, Option<u64>)> {
                r.histograms()
                    .map(|(n, h)| {
                        let sum = (!fires_obs::compare::is_time_metric(n)).then(|| h.sum());
                        (n.to_string(), h.count(), sum)
                    })
                    .collect()
            };
            assert_eq!(histograms(d), histograms(m), "{}", task.name);
        }
        assert!(merged.tasks.iter().any(|t| !t.faults.is_empty()));
    }

    #[test]
    fn canonical_text_ignores_append_order_and_timing() {
        let path = temp("order");
        let spec = CampaignSpec::from_circuits("t", ["s27", "fig3"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let contents = journal::read(&path).unwrap();
        let tasks = spec.resolve().unwrap();
        let engines = build_engines(&tasks).unwrap();
        let text = merge(&contents, &tasks, &engines).canonical_text();

        let mut shuffled = contents.clone();
        shuffled.units.reverse();
        for u in &mut shuffled.units {
            u.seconds *= 10.0;
        }
        let text2 = merge(&shuffled, &tasks, &engines).canonical_text();
        assert_eq!(text, text2);
    }

    #[test]
    fn duplicate_unit_records_are_collapsed() {
        let path = temp("dup");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let contents = journal::read(&path).unwrap();
        let tasks = spec.resolve().unwrap();
        let engines = build_engines(&tasks).unwrap();
        let text = merge(&contents, &tasks, &engines).canonical_text();

        // A concurrent appender would duplicate whole unit records; the
        // merge must count each (task, stem) exactly once.
        let mut doubled = contents.clone();
        doubled.units.extend(contents.units.iter().cloned());
        let merged = merge(&doubled, &tasks, &engines);
        assert_eq!(merged.tasks[0].units_ok, merged.tasks[0].units_total);
        assert_eq!(merged.canonical_text(), text);
    }

    #[test]
    fn failed_units_are_counted_not_merged() {
        let path = temp("failed");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let mut contents = journal::read(&path).unwrap();
        contents.units[0] = UnitRecord {
            status: crate::journal::UnitStatus::Panic,
            faults: vec![],
            marks: 0,
            frames: 0,
            ..contents.units[0].clone()
        };
        let tasks = spec.resolve().unwrap();
        let merged = merge(&contents, &tasks, &build_engines(&tasks).unwrap());
        assert_eq!(merged.tasks[0].units_panicked, 1);
        assert!(!merged.tasks[0].clean());
        assert_eq!(merged.tasks[0].units_ok + 1, merged.tasks[0].units_total);
    }

    #[test]
    fn exhausted_partials_never_reach_the_fault_list() {
        let path = temp("exhausted");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let mut contents = journal::read(&path).unwrap();
        // Forge the journal every unit would produce under a budget: same
        // faults, but flagged exhausted. None of them may be claimed.
        for u in &mut contents.units {
            u.status = crate::journal::UnitStatus::Exhausted;
            u.reason = Some(fires_core::ExhaustionReason::Steps);
        }
        let tasks = spec.resolve().unwrap();
        let merged = merge(&contents, &tasks, &build_engines(&tasks).unwrap());
        assert_eq!(merged.tasks[0].units_exhausted, merged.tasks[0].units_total);
        assert_eq!(merged.tasks[0].units_ok, 0);
        assert!(merged.tasks[0].faults.is_empty());
        assert_eq!(merged.tasks[0].marks, 0);
        assert!(merged.canonical_text().contains("\"units_exhausted\""));
        // The degenerate all-exhausted campaign still renders and rolls
        // up without panicking.
        let _ = merged.render_table();
        let (_, campaign) = merged.run_reports();
        assert_eq!(
            campaign.extra.get("task_count").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn retried_units_do_not_change_the_canonical_form() {
        let path = temp("retried");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let contents = journal::read(&path).unwrap();
        let tasks = spec.resolve().unwrap();
        let engines = build_engines(&tasks).unwrap();
        let text = merge(&contents, &tasks, &engines).canonical_text();

        let mut retried = contents.clone();
        for u in &mut retried.units {
            u.retries = 3;
        }
        retried.events.push(crate::journal::EventRecord {
            seq: 0,
            task: 0,
            stem: 0,
            attempt: 0,
            what: "unit-retry".into(),
            detail: "attempt panicked; caches rebuilt".into(),
        });
        let merged = merge(&retried, &tasks, &engines);
        assert_eq!(merged.tasks[0].units_retried, merged.tasks[0].units_total);
        assert_eq!(merged.tasks[0].retry_events, 1);
        assert_eq!(merged.canonical_text(), text);
    }

    #[test]
    fn all_poisoned_campaign_merges_without_panicking() {
        let path = temp("all-poisoned");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let mut contents = journal::read(&path).unwrap();
        for u in &mut contents.units {
            u.status = crate::journal::UnitStatus::Panic;
            u.faults.clear();
            u.marks = 0;
            u.frames = 0;
        }
        let tasks = spec.resolve().unwrap();
        let merged = merge(&contents, &tasks, &build_engines(&tasks).unwrap());
        assert_eq!(merged.tasks[0].units_panicked, merged.tasks[0].units_total);
        assert!(merged.tasks[0].faults.is_empty());
        let _ = merged.render_table();
        let _ = merged.run_reports();
    }

    #[test]
    fn zero_unit_campaign_merges_without_panicking() {
        let path = temp("zero-units");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let mut contents = journal::read(&path).unwrap();
        contents.units.clear();
        contents.events.clear();
        let tasks = spec.resolve().unwrap();
        let merged = merge(&contents, &tasks, &build_engines(&tasks).unwrap());
        assert_eq!(merged.tasks[0].units_ok, 0);
        assert!(merged.tasks[0].faults.is_empty());
        let _ = merged.render_table();
        let (_, campaign) = merged.run_reports();
        assert_eq!(campaign.total_seconds, 0.0);
    }

    #[test]
    fn profiles_ride_beside_the_canonical_form() {
        let path = temp("profiles");
        let spec = CampaignSpec::from_circuits("t", ["s27"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let contents = journal::read(&path).unwrap();
        let tasks = spec.resolve().unwrap();
        let engines = build_engines(&tasks).unwrap();
        let merged = merge(&contents, &tasks, &engines);
        // This build traces by default, so every unit carried a profile
        // and the task-level merge accumulated them all.
        let task_profile = merged.tasks[0].profile.as_ref().expect("merged profile");
        assert!(task_profile.total_steps() > 0);
        let unit_steps: u64 = contents
            .units
            .iter()
            .filter_map(|u| u.profile.as_ref())
            .map(RuleProfile::total_steps)
            .sum();
        assert_eq!(task_profile.total_steps(), unit_steps);
        // The campaign rollup aggregates it into the v4 report...
        let (children, campaign) = merged.run_reports();
        assert_eq!(children[0].profile.as_ref(), Some(task_profile));
        assert_eq!(
            campaign.profile.as_ref().map(RuleProfile::total_steps),
            Some(unit_steps)
        );
        // ...while the canonical bytes are blind to profiles entirely.
        let text = merged.canonical_text();
        assert!(!text.contains("profile"));
        let mut stripped = contents.clone();
        for u in &mut stripped.units {
            u.profile = None;
        }
        assert_eq!(merge(&stripped, &tasks, &engines).canonical_text(), text);
    }

    #[test]
    fn run_reports_aggregate() {
        let path = temp("obsrep");
        let spec = CampaignSpec::from_circuits("t", ["s27", "fig3"]);
        run(&spec, &path, &RunnerConfig::default()).unwrap();
        let contents = journal::read(&path).unwrap();
        let tasks = spec.resolve().unwrap();
        let merged = merge(&contents, &tasks, &build_engines(&tasks).unwrap());
        let (children, campaign) = merged.run_reports();
        assert_eq!(children.len(), 2);
        assert_eq!(campaign.subject, "t");
        assert_eq!(
            campaign.extra.get("task_count").and_then(Json::as_u64),
            Some(2)
        );
    }
}
