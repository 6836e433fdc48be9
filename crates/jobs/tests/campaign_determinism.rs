//! The campaign-level determinism and robustness guarantees, end to end:
//! byte-identical canonical reports across thread counts and across
//! kill-and-resume at *every* cut point, on generated-circuit campaigns.

mod common;

use std::time::Duration;

use fires_jobs::{report, resume, run, CampaignSpec, Injection, RunnerConfig};
use proptest::prelude::*;

fn temp_journal(name: &str) -> common::TempJournal {
    common::TempJournal::new("fires-det", name, "job.jsonl")
}

/// Runs `spec` to completion in one go and returns the canonical report
/// text.
fn uninterrupted(spec: &CampaignSpec, name: &str, threads: usize) -> String {
    let path = temp_journal(name);
    let summary = run(
        spec,
        &path,
        &RunnerConfig {
            threads,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(summary.complete());
    report(&path).unwrap().canonical_text()
}

#[test]
fn thread_count_does_not_change_the_report() {
    let spec = CampaignSpec::from_circuits("det", ["s27", "fig3", "s208_like"]);
    let serial = uninterrupted(&spec, "serial", 1);
    let threaded = uninterrupted(&spec, "threaded", 8);
    assert_eq!(serial, threaded);
    // And the serial report is itself reproducible.
    assert_eq!(serial, uninterrupted(&spec, "serial2", 1));
}

#[test]
fn kill_and_resume_matches_uninterrupted_at_every_cut() {
    let spec = CampaignSpec::from_circuits("cut", ["s27", "fig3"]);
    let baseline = uninterrupted(&spec, "cut-base", 1);
    // Total units is small (a handful of stems); cut at every point. A
    // real SIGKILL usually lands mid-append, so leave a torn record
    // fragment after every cut — resume must repair it, and the final
    // journal must read back clean.
    for cut in 0..8 {
        let path = temp_journal(&format!("cut-{cut}"));
        let first = run(
            &spec,
            &path,
            &RunnerConfig {
                max_units: Some(cut),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(first.executed, cut.min(first.executed + first.remaining));
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"kind\":\"unit\",\"task\":0,\"ste").unwrap();
        }
        let second = resume(&path, &RunnerConfig::default()).unwrap();
        assert!(second.complete());
        assert_eq!(second.skipped, first.executed);
        assert_eq!(report(&path).unwrap().canonical_text(), baseline);
    }
}

/// The deterministic face of a campaign's merged profiles: per-rule step
/// counts, unattributed steps and the frame-offset / blame-size
/// distributions. Apportioned nanos are timing and `DistCache` hit
/// counts depend on how workers shared their caches, so neither belongs
/// in an equality claim across schedules.
fn profile_fingerprint(report: &fires_jobs::CampaignReport) -> Vec<String> {
    use fires_obs::ALL_RULES;
    report
        .tasks
        .iter()
        .map(|t| {
            let p = t.profile.as_ref().expect("traced build journals profiles");
            let steps: Vec<String> = ALL_RULES
                .iter()
                .map(|&r| format!("{}={}", r.name(), p.steps(r)))
                .collect();
            format!(
                "{}: {} unattributed={} frames={} blames={}",
                t.name,
                steps.join(","),
                p.unattributed_steps(),
                p.frame_offsets().to_json().to_pretty(),
                p.blame_sizes().to_json().to_pretty(),
            )
        })
        .collect()
}

#[test]
fn kill_and_resume_preserves_the_merged_profile() {
    let spec = CampaignSpec::from_circuits("prof", ["s27", "fig3"]);
    let base_path = temp_journal("prof-base");
    run(&spec, &base_path, &RunnerConfig::default()).unwrap();
    let baseline = report(&base_path).unwrap();
    assert!(
        baseline.tasks[0]
            .profile
            .as_ref()
            .is_some_and(|p| p.total_steps() > 0),
        "uninterrupted run must record a nonempty profile"
    );
    let base_fp = profile_fingerprint(&baseline);
    // Kill after a few units (torn tail and all), resume on a different
    // thread count: the profiles merged out of the fragments must agree
    // with the uninterrupted run on every deterministic field.
    for cut in [1, 4] {
        let path = temp_journal(&format!("prof-cut-{cut}"));
        run(
            &spec,
            &path,
            &RunnerConfig {
                max_units: Some(cut),
                ..Default::default()
            },
        )
        .unwrap();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"kind\":\"unit\",\"task\":0,\"ste").unwrap();
        }
        let second = resume(
            &path,
            &RunnerConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(second.complete());
        assert_eq!(profile_fingerprint(&report(&path).unwrap()), base_fp);
    }
}

#[test]
fn failures_then_clean_rerun_still_deterministic() {
    // A campaign with one panicked and one timed-out unit merges
    // deterministically too: the failed units are *counted*, and the
    // counts are part of the canonical form.
    fn inject(task: usize, stem: usize) -> Injection {
        match (task, stem) {
            (0, 1) => Injection::Panic,
            (1, 0) => Injection::Sleep(Duration::from_millis(50)),
            _ => Injection::Run,
        }
    }
    let spec = CampaignSpec::from_circuits("faulty", ["s27", "fig3"]);
    let rc = RunnerConfig {
        stem_deadline: Some(Duration::from_millis(10)),
        inject: Some(inject),
        ..Default::default()
    };
    let texts: Vec<String> = (0..2)
        .map(|i| {
            let path = temp_journal(&format!("faulty-{i}"));
            let summary = run(&spec, &path, &rc).unwrap();
            assert!(summary.complete());
            assert_eq!(summary.panicked, 1);
            assert_eq!(summary.timed_out, 1);
            report(&path).unwrap().canonical_text()
        })
        .collect();
    assert_eq!(texts[0], texts[1]);
    // The failure counts are visible in the canonical report.
    assert!(texts[0].contains("\"units_panicked\": 1"));
    assert!(texts[0].contains("\"units_timed_out\": 1"));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// For any kill point and any pair of thread counts, interrupted +
    /// resumed produces the same canonical report bytes as an
    /// uninterrupted serial run.
    #[test]
    fn resumed_campaigns_merge_identically(
        cut in 0usize..6,
        threads_before in 1usize..4,
        threads_after in 1usize..4,
        case in 0u32..100,
    ) {
        let spec = CampaignSpec::from_circuits("prop", ["s27", "fig3"]);
        let baseline = uninterrupted(&spec, &format!("prop-base-{case}"), 1);
        let path = temp_journal(&format!("prop-{case}-{cut}-{threads_before}-{threads_after}"));
        run(
            &spec,
            &path,
            &RunnerConfig {
                threads: threads_before,
                max_units: Some(cut),
                ..Default::default()
            },
        )
        .unwrap();
        let second = resume(
            &path,
            &RunnerConfig {
                threads: threads_after,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert!(second.complete());
        prop_assert_eq!(report(&path).unwrap().canonical_text(), baseline.clone());
    }
}
