//! Experiment harness for the FIRES reproduction.
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index):
//!
//! * `table1` — the sequential-implication trace of Example 3;
//! * `table2` — benchmark-suite results with and without validation;
//! * `table3` — FIRES vs the GENTEST-like ATPG budget on `s5378_like`;
//! * `table4` — FIRES vs the HITEC-like ATPG budget on `s838_like`;
//! * `fig2_fault_universe` — exhaustive Figure-2 fault classification;
//! * `ablation_validation`, `ablation_tm`, `ablation_blame` — design-choice
//!   ablations.
//!
//! This library hosts the shared plumbing: text-table rendering, the
//! scaled ATPG budget presets, and the per-circuit experiment runners the
//! binaries and Criterion benches share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use fires_atpg::AtpgConfig;
use fires_circuits::suite::SuiteEntry;
use fires_core::{Fires, FiresConfig, FiresReport, IdentifiedFault, RunMetrics};
use fires_jobs::{CampaignReport, CampaignSpec, RunnerConfig};
use fires_netlist::{Circuit, Fault};

mod reporting;

pub use reporting::{
    json_row, record_campaign, record_fault_sim, JsonOut, ProfileOut, Threads, TraceOut,
};

/// Runs FIRES with the bench-standard thread plumbing: 1 worker uses the
/// serial driver, anything more the in-process worker pool. Results are
/// identical either way; only wall-clock changes.
pub fn run_fires(circuit: &Circuit, config: FiresConfig, threads: usize) -> FiresReport<'_> {
    if threads <= 1 {
        Fires::new(circuit, config).run()
    } else {
        Fires::new(circuit, config).run_threaded(threads)
    }
}

/// Bounded-effort knobs the table binaries forward to their campaigns
/// (failure model in DESIGN.md §10).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CampaignTuning {
    /// Per-stem implication-step budget; over-budget stems are journaled
    /// as `exhausted` and excluded from result claims. `None` runs
    /// unbudgeted.
    pub step_budget: Option<u64>,
    /// How often a panicked unit is re-run before quarantine.
    pub retries: u32,
}

impl CampaignTuning {
    /// Removes `--step-budget N` and `--retries N` flags from `args`,
    /// leaving positional arguments in place (same idiom as
    /// [`Threads::extract`]).
    pub fn extract(args: &mut Vec<String>) -> CampaignTuning {
        CampaignTuning {
            step_budget: extract_number(args, "--step-budget"),
            retries: extract_number(args, "--retries").unwrap_or(0),
        }
    }
}

/// Removes `--flag N` / `--flag=N` from `args` and parses `N`; a value
/// that is not a number exits with status 2.
pub fn extract_number<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    extract_flag(args, flag).map(|value| {
        value.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects a number, got {value:?}");
            std::process::exit(2);
        })
    })
}

/// Exits with status 2 if an argument left after every flag was
/// extracted looks like a flag: a mistyped `--jsn out.json` must fail,
/// not run and silently write nothing.
pub fn reject_unknown_flags(args: &[String]) {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag {flag:?}");
        std::process::exit(2);
    }
}

/// Removes every `--flag VALUE` / `--flag=VALUE` from `args`, leaving
/// positional arguments in place, and returns the last value. The one
/// flag extractor of the bench binaries; a trailing flag without a
/// value exits with status 2.
fn extract_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(&prefix) {
            value = Some(v.to_string());
            args.remove(i);
        } else if args[i] == flag {
            args.remove(i);
            if i < args.len() {
                value = Some(args.remove(i));
            } else {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            }
        } else {
            i += 1;
        }
    }
    value
}

/// Runs the named circuits as a `fires-jobs` campaign and returns the
/// merged report. This is how the table binaries drive their FIRES
/// stage: per-stem work units, panic isolation and an on-disk journal —
/// a crash mid-table loses at most one stem of work, and the journal can
/// be resumed with the `fires` CLI.
///
/// The journal lives in a per-process temp directory (bench runs are
/// throwaway campaigns); its path is returned alongside the report.
pub fn jobs_campaign(
    name: &str,
    circuits: &[&str],
    validate: bool,
    frames: Option<usize>,
    threads: usize,
) -> (CampaignReport, std::path::PathBuf) {
    jobs_campaign_tuned(
        name,
        circuits,
        validate,
        frames,
        threads,
        CampaignTuning::default(),
    )
}

/// [`jobs_campaign`] with explicit bounded-effort tuning.
pub fn jobs_campaign_tuned(
    name: &str,
    circuits: &[&str],
    validate: bool,
    frames: Option<usize>,
    threads: usize,
    tuning: CampaignTuning,
) -> (CampaignReport, std::path::PathBuf) {
    let mut spec = CampaignSpec::from_circuits(name, circuits.iter().copied());
    for t in &mut spec.tasks {
        t.validate = validate;
        t.frames = frames;
        t.step_budget = tuning.step_budget;
    }
    let dir = std::env::temp_dir().join(format!("fires-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        panic!("cannot create campaign dir {}: {e}", dir.display());
    });
    let journal = dir.join(format!("{name}.jsonl"));
    let _ = std::fs::remove_file(&journal);
    let rc = RunnerConfig {
        threads,
        retries: tuning.retries,
        ..Default::default()
    };
    let summary = fires_jobs::run(&spec, &journal, &rc)
        .unwrap_or_else(|e| panic!("campaign {name:?} failed: {e}"));
    assert!(
        summary.complete(),
        "campaign {name:?} left units unprocessed"
    );
    if summary.panicked + summary.timed_out + summary.exhausted > 0 {
        eprintln!(
            "warning: campaign {name:?}: {} unit(s) degraded ({} panicked, {} timed out, {} exhausted); see {}",
            summary.panicked + summary.timed_out + summary.exhausted,
            summary.panicked,
            summary.timed_out,
            summary.exhausted,
            journal.display()
        );
    }
    let report = fires_jobs::report(&journal)
        .unwrap_or_else(|e| panic!("campaign {name:?} unreadable: {e}"));
    (report, journal)
}

/// A minimal fixed-width text table (the paper's tables are plain text).
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = width[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }
}

/// The scaled stand-in for GENTEST's per-fault budget (the paper allowed
/// 100 s/fault on a SPARCstation 10; this machine is orders of magnitude
/// faster and the circuits smaller, so the budget is scaled down while
/// preserving the experiment's shape: generous but finite).
pub fn gentest_like() -> AtpgConfig {
    AtpgConfig {
        max_unroll: 16,
        backtrack_limit: 100_000,
        time_limit: Duration::from_millis(300),
    }
}

/// The scaled stand-in for HITEC's 20 s/fault budget.
pub fn hitec_like() -> AtpgConfig {
    AtpgConfig {
        max_unroll: 16,
        backtrack_limit: 20_000,
        time_limit: Duration::from_millis(60),
    }
}

/// One Table-2 row: the outcome of FIRES on a suite circuit, with and
/// without validation.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Circuit name.
    pub name: &'static str,
    /// Frame budget used.
    pub frames: usize,
    /// Untestable faults found without validation.
    pub untestable: usize,
    /// CPU seconds without validation.
    pub cpu_unvalidated: f64,
    /// Redundant faults found with validation.
    pub redundant: usize,
    /// CPU seconds with validation.
    pub cpu_validated: f64,
    /// Redundant faults with `c = 0`.
    pub zero_cycle: usize,
    /// Largest `c` over the redundant faults.
    pub max_c: u32,
    /// Engine metrics merged over both runs (empty when `fires-core` is
    /// built without its `tracing` feature).
    pub metrics: RunMetrics,
}

/// Runs both FIRES modes on one suite circuit, using every available
/// core (stems are independent; the threaded runner is result-identical
/// to the serial one).
pub fn table2_row(entry: &SuiteEntry) -> Table2Row {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base = FiresConfig::with_max_frames(entry.frames);
    let unvalidated = Fires::new(&entry.circuit, base.without_validation()).run_threaded(threads);
    let validated = Fires::new(&entry.circuit, base).run_threaded(threads);
    let mut metrics = unvalidated.metrics().clone();
    metrics.merge(validated.metrics());
    Table2Row {
        name: entry.name,
        frames: entry.frames,
        untestable: unvalidated.len(),
        cpu_unvalidated: unvalidated.elapsed().as_secs_f64(),
        redundant: validated.len(),
        cpu_validated: validated.elapsed().as_secs_f64(),
        zero_cycle: validated.num_zero_cycle(),
        max_c: validated.max_c(),
        metrics,
    }
}

/// The fault targets a FIRES run hands to the comparison ATPG: the faults
/// identified without validation, exactly as in the paper's Tables 3–4
/// ("the faults found by FIRES (without validation) were passed as the
/// only targets to the test generators"). Takes the identified-fault
/// slice so both the direct driver ([`FiresReport::redundant_faults`])
/// and a merged campaign ([`fires_jobs::TaskReport`]) feed it.
pub fn fires_targets(identified: &[IdentifiedFault]) -> Vec<Fault> {
    identified.iter().map(|f| f.fault).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(["Circuit", "#Unt", "CPU"]);
        t.row(["s27", "0", "0.01"]);
        t.row(["s838_like", "123", "1.20"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Circuit"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns right-aligned: both data rows have equal length.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn presets_scale_sensibly() {
        assert!(gentest_like().time_limit > hitec_like().time_limit);
        assert!(gentest_like().backtrack_limit > hitec_like().backtrack_limit);
    }

    #[test]
    fn table2_row_runs_on_a_small_entry() {
        let entry = fires_circuits::suite::by_name("s208_like").unwrap();
        let row = table2_row(&entry);
        assert_eq!(row.name, "s208_like");
        assert!(row.untestable >= row.redundant);
        assert!(row.redundant > 0);
        assert!(row.max_c >= 1);
    }
}
