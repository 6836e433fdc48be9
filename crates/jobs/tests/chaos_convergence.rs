//! End-to-end chaos testing through the public API: campaigns executed
//! under deterministic fault injection ([`ChaosPlan`]) — panics, journal
//! IO errors, delays, mid-run kills — must converge to the *byte
//! identical* canonical report of a fault-free run, as long as the
//! retry policy gives every unit a chance to eventually succeed.

mod common;

use std::time::Duration;

use fires_jobs::{report, resume, run, CampaignSpec, ChaosPlan, RunnerConfig};

fn temp_journal(tag: &str) -> common::TempJournal {
    common::TempJournal::new("fires-chaos", tag, "campaign.jsonl")
}

fn spec() -> CampaignSpec {
    CampaignSpec::from_circuits("chaos", ["fig3", "s27"])
}

fn canonical_of(journal: &std::path::Path) -> String {
    report(journal).unwrap().canonical_text()
}

/// The fault-free baseline every chaos variant must reproduce. Tests run
/// in parallel threads of one process, so each caller passes its own
/// `tag` and gets its own journal.
fn baseline(tag: &str) -> String {
    let journal = temp_journal(&format!("baseline-{tag}"));
    let summary = run(&spec(), &journal, &RunnerConfig::default()).unwrap();
    assert!(summary.complete());
    canonical_of(&journal)
}

#[test]
fn chaos_run_converges_to_the_fault_free_report() {
    let baseline = baseline("full");
    let journal = temp_journal("full");
    let rc = RunnerConfig {
        threads: 2,
        retries: 8,
        backoff: Duration::from_millis(1),
        chaos: Some(
            ChaosPlan::new(0xDAC1996)
                .with_unit_panics(250)
                .with_journal_errors(200)
                .with_delays(150, 2),
        ),
        ..RunnerConfig::default()
    };
    let summary = run(&spec(), &journal, &rc).unwrap();
    assert!(
        summary.complete(),
        "chaos run did not complete: {summary:?}"
    );
    assert_eq!(summary.panicked, 0, "a unit exhausted its retries");
    assert!(summary.retried > 0, "plan injected no faults; raise rates");
    assert_eq!(canonical_of(&journal), baseline);
}

#[test]
fn killed_then_resumed_chaos_run_converges() {
    let baseline = baseline("resumed");
    let journal = temp_journal("resumed");
    let chaos = Some(
        ChaosPlan::new(0xF1FE)
            .with_unit_panics(300)
            .with_journal_errors(250),
    );
    let cut = RunnerConfig {
        max_units: Some(2), // deterministic stand-in for a mid-run kill
        retries: 8,
        backoff: Duration::from_millis(1),
        chaos,
        ..RunnerConfig::default()
    };
    let first = run(&spec(), &journal, &cut).unwrap();
    assert!(!first.complete());
    // The resume runs under a *different* chaos seed: convergence must
    // not depend on replaying the same fault schedule.
    let rc = RunnerConfig {
        retries: 8,
        backoff: Duration::from_millis(1),
        chaos: Some(
            ChaosPlan::new(0xBADC0FFE)
                .with_unit_panics(300)
                .with_journal_errors(250),
        ),
        ..RunnerConfig::default()
    };
    let second = resume(&journal, &rc).unwrap();
    assert!(second.complete(), "resume did not finish: {second:?}");
    assert_eq!(second.panicked, 0);
    assert_eq!(canonical_of(&journal), baseline);
}

#[test]
fn chaos_is_reproducible_run_to_run() {
    // Same seed, same spec, serial execution: the *observable degradation*
    // (how many retries happened) is identical, not just the end report.
    let mut summaries = Vec::new();
    for tag in ["repro-a", "repro-b"] {
        let journal = temp_journal(tag);
        let rc = RunnerConfig {
            retries: 8,
            backoff: Duration::from_millis(1),
            chaos: Some(ChaosPlan::new(42).with_unit_panics(400)),
            ..RunnerConfig::default()
        };
        summaries.push(run(&spec(), &journal, &rc).unwrap());
    }
    assert_eq!(summaries[0].retried, summaries[1].retried);
    assert_eq!(summaries[0].executed, summaries[1].executed);
}

#[test]
fn unretried_chaos_panics_degrade_but_never_abort() {
    // No retries: injected panics become quarantined units, the campaign
    // still completes and the report carries the damage honestly.
    let journal = temp_journal("quarantine");
    let rc = RunnerConfig {
        chaos: Some(ChaosPlan::new(7).with_unit_panics(500)),
        ..RunnerConfig::default()
    };
    let summary = run(&spec(), &journal, &rc).unwrap();
    assert!(summary.complete());
    assert!(summary.panicked > 0, "rate 500 permille injected nothing");
    let merged = report(&journal).unwrap();
    let panicked: usize = merged.tasks.iter().map(|t| t.units_panicked).sum();
    assert_eq!(panicked, summary.panicked);
    // Degraded reports are still deterministic and renderable.
    assert_eq!(canonical_of(&journal), merged.canonical_text());
    let _ = merged.render_table();
}
