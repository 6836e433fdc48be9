//! `fires watch --timeout-secs`: a watcher pointed at a journal that
//! never completes (or never appears) must exit on its own instead of
//! hanging a CI job or a detached terminal forever.

mod common;

use std::process::Command;
use std::time::{Duration, Instant};

use fires_jobs::{run, CampaignSpec, RunnerConfig};

fn temp_dir(tag: &str) -> common::TempDir {
    common::TempDir::new("fires-wt", tag)
}

fn fires() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fires"))
}

#[test]
fn watch_times_out_on_a_journal_that_never_appears() {
    let dir = temp_dir("missing");
    let started = Instant::now();
    let out = fires()
        .args(["watch", "--timeout-secs", "1", "--interval-ms", "50"])
        .arg(dir.join("never-written.jsonl"))
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a timed-out watch must exit nonzero: {out:?}"
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("timed out"), "stderr: {stderr}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout must bound the wait"
    );
}

#[test]
fn watch_times_out_on_a_stalled_incomplete_journal() {
    let dir = temp_dir("stalled");
    let journal = dir.join("campaign.jsonl");
    // Two units of a larger campaign, then the writer stops forever.
    let rc = RunnerConfig {
        max_units: Some(2),
        ..RunnerConfig::default()
    };
    run(
        &CampaignSpec::from_circuits("stall", ["s27"]),
        &journal,
        &rc,
    )
    .unwrap();
    let out = fires()
        .args(["watch", "--timeout-secs", "1", "--interval-ms", "50"])
        .arg(&journal)
        .output()
        .unwrap();
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("campaign incomplete"), "stderr: {stderr}");
}

#[test]
fn heartbeats_reset_the_stall_deadline() {
    let dir = temp_dir("heartbeat");
    let journal = dir.join("campaign.jsonl");
    // Same stalled shape as above: incomplete, writer gone.
    let rc = RunnerConfig {
        max_units: Some(2),
        ..RunnerConfig::default()
    };
    run(&CampaignSpec::from_circuits("beat", ["s27"]), &journal, &rc).unwrap();

    // A live-but-slow writer: append a few bytes (a growing torn tail,
    // which journal reads tolerate) every 300 ms for well over the
    // 1-second timeout. The timeout measures *stall*, so the watcher
    // must survive these heartbeats and only expire once they stop.
    let appender_journal = journal.clone();
    let appender = std::thread::spawn(move || {
        use std::io::Write;
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(300));
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&appender_journal)
                .unwrap();
            f.write_all(b"#").unwrap();
        }
    });

    let started = Instant::now();
    let out = fires()
        .args(["watch", "--timeout-secs", "1", "--interval-ms", "50"])
        .arg(&journal)
        .stdout(std::process::Stdio::null())
        .output()
        .unwrap();
    appender.join().unwrap();
    assert!(!out.status.success(), "still times out once beats stop");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("campaign incomplete"), "stderr: {stderr}");
    assert!(
        started.elapsed() > Duration::from_millis(2300),
        "heartbeats must push the deadline past the bare 1s timeout, \
         elapsed {:?}",
        started.elapsed()
    );
}

#[test]
fn watch_still_exits_zero_when_the_campaign_completes_in_time() {
    let dir = temp_dir("completes");
    let journal = dir.join("campaign.jsonl");
    run(
        &CampaignSpec::from_circuits("done", ["fig3"]),
        &journal,
        &RunnerConfig::default(),
    )
    .unwrap();
    let out = fires()
        .args(["watch", "--timeout-secs", "30", "--interval-ms", "50"])
        .arg(&journal)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let frame = String::from_utf8(out.stdout).unwrap();
    assert!(frame.contains("complete"), "frame: {frame}");
}
