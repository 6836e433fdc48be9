//! Machine-readable run reports for the experiment binaries.
//!
//! Every binary accepts `--json <path>` (or `--json=<path>`): alongside
//! its usual text table it then writes a schema-versioned
//! [`RunReport`](fires_obs::RunReport) capturing phase timings, counters
//! and the table's data, so experiment results can be diffed, plotted and
//! regression-tracked without scraping stdout.

use std::path::PathBuf;

use fires_atpg::CampaignSummary;
use fires_obs::{Json, RunReport};
use fires_sim::FaultSimSummary;

use crate::extract_flag;

/// The `--json` output destination extracted from the command line.
#[derive(Clone, Debug, Default)]
pub struct JsonOut {
    path: Option<PathBuf>,
}

impl JsonOut {
    /// Removes a `--json <path>` or `--json=<path>` flag from `args`,
    /// leaving the positional arguments in place.
    pub fn extract(args: &mut Vec<String>) -> JsonOut {
        JsonOut {
            path: extract_flag(args, "--json").map(PathBuf::from),
        }
    }

    /// Parses the process arguments, returning the sink and the remaining
    /// positional arguments (program name stripped).
    pub fn from_env() -> (JsonOut, Vec<String>) {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let out = JsonOut::extract(&mut args);
        (out, args)
    }

    /// Whether `--json` was passed.
    pub fn requested(&self) -> bool {
        self.path.is_some()
    }

    /// Writes the report if `--json` was passed (otherwise a no-op).
    /// Failing to write a report the user asked for aborts the run.
    pub fn write(&self, report: &RunReport) {
        if let Some(path) = &self.path {
            if let Err(e) = report.write_to_file(path) {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            println!("wrote JSON report to {}", path.display());
        }
    }
}

/// The `--profile <path>` hotspot-profile destination extracted from
/// the command line.
///
/// When requested, [`ProfileOut::write`] saves the report's merged
/// [`RuleProfile`](fires_obs::RuleProfile) as a standalone JSON document
/// (readable by `fires profile`) and writes the matching folded stacks —
/// the input format of `flamegraph.pl`, inferno and speedscope — next to
/// it under a `.folded` extension.
#[derive(Clone, Debug, Default)]
pub struct ProfileOut {
    path: Option<PathBuf>,
}

impl ProfileOut {
    /// Removes a `--profile <path>` or `--profile=<path>` flag from
    /// `args`, leaving the positional arguments in place.
    pub fn extract(args: &mut Vec<String>) -> ProfileOut {
        ProfileOut {
            path: extract_flag(args, "--profile").map(PathBuf::from),
        }
    }

    /// Whether `--profile` was passed.
    pub fn requested(&self) -> bool {
        self.path.is_some()
    }

    /// Writes the report's profile and folded stacks if `--profile` was
    /// passed (otherwise a no-op). An untraced build records no profile;
    /// that is a warning, not an abort, so one binary serves both
    /// feature sets. Failing to *write* a requested profile aborts, same
    /// as [`JsonOut::write`].
    pub fn write(&self, report: &RunReport) {
        let Some(path) = &self.path else { return };
        let Some(profile) = &report.profile else {
            eprintln!("warning: --profile ignored: the run recorded no profile (untraced build?)");
            return;
        };
        let fail = |p: &std::path::Path, e: std::io::Error| -> ! {
            eprintln!("error: cannot write {}: {e}", p.display());
            std::process::exit(2);
        };
        let doc = profile.to_json().to_pretty() + "\n";
        if let Err(e) = std::fs::write(path, doc) {
            fail(path, e);
        }
        let folded_path = path.with_extension("folded");
        if let Err(e) = std::fs::write(&folded_path, profile.folded_lines(&report.subject)) {
            fail(&folded_path, e);
        }
        println!(
            "wrote hotspot profile to {} (folded stacks: {})",
            path.display(),
            folded_path.display()
        );
    }
}

/// The `--threads` worker-count option shared by every experiment
/// binary.
///
/// `--threads N` (or `--threads=N`) runs FIRES on the in-process worker
/// pool with `N` workers; `--threads auto` uses every available core.
/// The default is 1 — the calling thread alone — so timings stay comparable
/// with older runs unless parallelism is asked for. Results are
/// identical either way (see
/// [`IdentifiedFault::wins_over`](fires_core::IdentifiedFault)).
#[derive(Clone, Copy, Debug)]
pub struct Threads {
    count: usize,
}

impl Threads {
    /// Removes a `--threads N` / `--threads=N` / `--threads auto` flag
    /// from `args`, leaving positional arguments in place.
    pub fn extract(args: &mut Vec<String>) -> Threads {
        let count = match extract_flag(args, "--threads").as_deref() {
            None => 1,
            Some("auto") => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("error: --threads expects a positive number or `auto`, got {v:?}");
                    std::process::exit(2);
                }
            },
        };
        Threads { count }
    }

    /// The requested worker count (1 = the calling thread alone).
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Folds an ATPG campaign into `report` under the `atpg.` namespace.
pub fn record_campaign(report: &mut RunReport, summary: &CampaignSummary) {
    let m = &mut report.metrics;
    m.incr("atpg.faults_targeted", summary.results.len() as u64);
    m.incr("atpg.detected", summary.num_detected() as u64);
    m.incr("atpg.untestable", summary.num_untestable() as u64);
    m.incr("atpg.aborted", summary.num_aborted() as u64);
    m.incr("atpg.backtracks", summary.total_backtracks());
    m.incr("atpg.decisions", summary.total_decisions());
    m.set_max("atpg.max_decision_depth", summary.max_decision_depth());
    report.add_phase("atpg", summary.elapsed.as_secs_f64());
}

/// Folds a fault-simulation summary into `report` under the `sim.`
/// namespace.
pub fn record_fault_sim(report: &mut RunReport, summary: &FaultSimSummary) {
    let m = &mut report.metrics;
    m.incr("sim.faults", summary.detections.len() as u64);
    m.incr("sim.detected", summary.num_detected() as u64);
    m.incr("sim.cycles_simulated", summary.cycles_simulated);
    m.incr("sim.cycles_offered", summary.cycles_offered);
    m.incr("sim.cycles_saved", summary.cycles_saved());
    m.incr("sim.gate_evaluations", summary.gate_evaluations);
}

/// A `{"name": ..., ...}` JSON object row, for table-shaped extras.
pub fn json_row<I>(fields: I) -> Json
where
    I: IntoIterator<Item = (&'static str, Json)>,
{
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extract_takes_separate_form() {
        let mut args = strings(&["s27", "--json", "out.json", "500"]);
        let out = JsonOut::extract(&mut args);
        assert!(out.requested());
        assert_eq!(out.path.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(args, strings(&["s27", "500"]));
    }

    #[test]
    fn extract_takes_equals_form() {
        let mut args = strings(&["--json=r.json"]);
        let out = JsonOut::extract(&mut args);
        assert_eq!(out.path.as_deref(), Some(std::path::Path::new("r.json")));
        assert!(args.is_empty());
    }

    #[test]
    fn threads_extracts_both_forms_and_defaults_to_serial() {
        let mut args = strings(&["s27", "--threads", "4", "500"]);
        assert_eq!(Threads::extract(&mut args).count(), 4);
        assert_eq!(args, strings(&["s27", "500"]));
        let mut args = strings(&["--threads=2"]);
        assert_eq!(Threads::extract(&mut args).count(), 2);
        assert!(args.is_empty());
        let mut args = strings(&["s27"]);
        assert_eq!(Threads::extract(&mut args).count(), 1);
        let mut args = strings(&["--threads=auto"]);
        assert!(Threads::extract(&mut args).count() >= 1);
    }

    #[test]
    fn extract_without_flag_is_inert() {
        let mut args = strings(&["s27", "500"]);
        let out = JsonOut::extract(&mut args);
        assert!(!out.requested());
        assert_eq!(args, strings(&["s27", "500"]));
        // write() without a path is a no-op.
        out.write(&RunReport::new("t", "s"));
    }

    #[test]
    fn profile_out_writes_profile_and_folded_stacks() {
        use fires_obs::{ProfileRule, RuleProfile};
        let dir = std::env::temp_dir().join(format!("fires-profileout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hotspots.json");
        let mut args = vec![format!("--profile={}", path.display()), "s27".to_string()];
        let out = ProfileOut::extract(&mut args);
        assert!(out.requested());
        assert_eq!(args, strings(&["s27"]));

        // A report without a profile warns and writes nothing.
        let mut r = RunReport::new("t", "s27");
        out.write(&r);
        assert!(!path.exists());

        let mut p = RuleProfile::new();
        p.record_many(ProfileRule::FwdInvert, 3);
        r.profile = Some(p.clone());
        out.write(&r);
        let text = std::fs::read_to_string(&path).unwrap();
        let back = RuleProfile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        let folded = std::fs::read_to_string(path.with_extension("folded")).unwrap();
        assert!(
            folded.contains("s27;implication;invert;inverter 3\n"),
            "{folded}"
        );

        // Without the flag, extraction is inert and write is a no-op.
        let mut args = strings(&["s27"]);
        let out = ProfileOut::extract(&mut args);
        assert!(!out.requested());
        out.write(&r);
    }

    #[test]
    fn campaign_and_sim_recording() {
        let mut r = RunReport::new("test", "s27");
        record_campaign(&mut r, &CampaignSummary::default());
        record_fault_sim(&mut r, &FaultSimSummary::default());
        assert_eq!(r.metrics.counter("atpg.faults_targeted"), 0);
        assert_eq!(r.metrics.counter("sim.cycles_saved"), 0);
        assert_eq!(r.phases.len(), 1);
    }
}
