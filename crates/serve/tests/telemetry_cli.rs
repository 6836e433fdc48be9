//! End-to-end tests of the telemetry CLI surface: `fires watch` against
//! a journal that was killed mid-append and resumed, the `fires
//! compare` perf gate's exit codes, and the rejection of misused chaos
//! flags. All drive the real binary (`CARGO_BIN_EXE_fires`), not
//! library shims, so flag parsing and exit codes are covered too.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use fires_jobs::{journal, resume, run, CampaignSpec, JournalSummary, RunnerConfig};
use fires_obs::RunReport;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fires-telemetry-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fires() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fires"))
}

#[test]
fn watch_follows_a_killed_and_resumed_journal() {
    let dir = temp_dir("watch");
    let journal_path = dir.join("campaign.jsonl");
    let spec = CampaignSpec::from_circuits("watchme", ["s27", "fig3"]);

    // Phase 1: a run that stops early, then a kill mid-append (torn
    // final line, no newline) — the worst journal a watcher can meet.
    let rc = RunnerConfig {
        max_units: Some(2),
        progress_interval: Some(Duration::ZERO),
        ..RunnerConfig::default()
    };
    run(&spec, &journal_path, &rc).unwrap();
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal_path)
        .unwrap();
    f.write_all(b"{\"kind\":\"unit\",\"task\":1,\"st").unwrap();
    drop(f);

    // The watch read path summarises the torn journal instead of
    // erroring, and reading never mutates the file.
    let bytes_before = std::fs::metadata(&journal_path).unwrap().len();
    let contents = journal::read(&journal_path).unwrap();
    let summary = JournalSummary::summarize(&contents);
    assert!(summary.torn);
    assert!(!summary.complete());
    assert_eq!(summary.done(), 2);
    assert_eq!(
        bytes_before,
        std::fs::metadata(&journal_path).unwrap().len()
    );

    // One watch frame over the torn, incomplete journal: exit 0, frame
    // carries the counts and the torn-tail note.
    let out = fires()
        .args(["watch", "--once"])
        .arg(&journal_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "watch --once failed: {out:?}");
    let frame = String::from_utf8(out.stdout).unwrap();
    assert!(frame.contains("campaign watchme"), "frame: {frame}");
    assert!(frame.contains("2/"), "frame: {frame}");
    assert!(frame.contains("torn"), "frame: {frame}");
    assert!(frame.contains("incomplete"), "frame: {frame}");

    // Phase 2: a live watcher tailing the journal while `resume`
    // finishes the campaign must exit on its own, showing completion —
    // and must not block or corrupt the writer.
    let mut watcher = fires()
        .args(["watch", "--interval-ms", "20"])
        .arg(&journal_path)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let summary = resume(&journal_path, &RunnerConfig::default()).unwrap();
    assert!(summary.complete());
    // The watcher sees the drained journal within a few polls.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(status) = watcher.try_wait().unwrap() {
            assert!(status.success());
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher did not exit after campaign completion"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut tail = String::new();
    use std::io::Read;
    watcher
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut tail)
        .unwrap();
    assert!(tail.contains("complete"), "watch tail: {tail}");

    // The resumed journal is intact: a fresh read agrees with status.
    let contents = journal::read(&journal_path).unwrap();
    let summary = JournalSummary::summarize(&contents);
    assert!(summary.complete());
    assert!(!summary.torn);
    let out = fires()
        .args(["status", "--json"])
        .arg(&journal_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"complete\": true"), "status: {text}");
}

#[test]
fn profile_cli_reads_journals_and_reports() {
    let dir = temp_dir("profile");
    let journal_path = dir.join("campaign.jsonl");
    let spec = CampaignSpec::from_circuits("hotspots", ["s27"]);
    run(&spec, &journal_path, &RunnerConfig::default()).unwrap();

    // Journal input: hotspot table, folded stacks, worst stems.
    let folded_path = dir.join("stems.folded");
    let out = fires()
        .arg("profile")
        .arg(&journal_path)
        .args(["--top", "3", "--folded"])
        .arg(&folded_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "profile <journal> failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("hotspot profile: hotspots"), "{text}");
    assert!(text.contains("attribution:"), "{text}");
    assert!(text.contains("dist cache:"), "{text}");
    assert!(text.contains("worst 3 stem(s) by wall-clock:"), "{text}");
    assert!(text.contains("dominant:"), "{text}");
    // Every folded line is `stack;frames count` with per-stem labels.
    let folded = std::fs::read_to_string(&folded_path).unwrap();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').unwrap();
        assert!(stack.starts_with("s27/stem"), "label missing: {line}");
        assert!(stack.split(';').count() >= 3, "stack too shallow: {line}");
        count.parse::<u64>().unwrap();
    }

    // Report input: the campaign rollup written next to the journal by
    // `fires run` also feeds the same table.
    let report_path = dir.join("campaign.report.json");
    let (_, campaign) = fires_jobs::report(&journal_path).unwrap().run_reports();
    campaign.write_to_file(&report_path).unwrap();
    let out = fires()
        .args(["profile", "--json"])
        .arg(&report_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "profile <report> failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"profile\""), "{text}");
    assert!(text.contains("\"rules\""), "{text}");

    // `fires status --json` carries the same latency tail.
    let out = fires()
        .args(["status", "--json"])
        .arg(&journal_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"worst_stems\""), "{text}");

    // A non-profile JSON file is rejected with a clear error.
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"not\": \"a report\"}").unwrap();
    let out = fires().arg("profile").arg(&bogus).output().unwrap();
    assert!(!out.status.success(), "bogus input must fail");
}

#[test]
fn compare_cli_gates_on_a_doctored_regression() {
    let dir = temp_dir("compare");
    let baseline_path = dir.join("baseline.json");
    let candidate_path = dir.join("candidate.json");
    let doctored_path = dir.join("doctored.json");

    let mut baseline = RunReport::new("test", "gate");
    baseline.total_seconds = 1.0;
    baseline.metrics.incr("work.steps", 1_000);
    for v in [10, 20, 40, 800] {
        baseline.metrics.observe("work.latency", v);
    }
    baseline.write_to_file(&baseline_path).unwrap();

    // Identical candidate: the gate passes.
    baseline.write_to_file(&candidate_path).unwrap();
    let status = fires()
        .arg("compare")
        .args([&baseline_path, &candidate_path])
        .arg("--skip-time")
        .status()
        .unwrap();
    assert!(status.success(), "identical reports must pass the gate");

    // Doctored candidate: 50% more steps than the baseline trips the
    // default 10% threshold and the exit code is nonzero.
    let mut doctored = RunReport::new("test", "gate");
    doctored.total_seconds = 1.0;
    doctored.metrics.incr("work.steps", 1_500);
    for v in [10, 20, 40, 800] {
        doctored.metrics.observe("work.latency", v);
    }
    doctored.write_to_file(&doctored_path).unwrap();
    let out = fires()
        .arg("compare")
        .args([&baseline_path, &doctored_path])
        .arg("--skip-time")
        .output()
        .unwrap();
    assert!(
        !out.status.success(),
        "a 50% step regression must fail the gate"
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("REGRESSED"), "output: {text}");
    assert!(text.contains("counter.work.steps"), "output: {text}");

    // A generous threshold lets the same pair pass.
    let status = fires()
        .arg("compare")
        .args([&baseline_path, &doctored_path])
        .args(["--skip-time", "--max-regress-pct", "75"])
        .status()
        .unwrap();
    assert!(status.success(), "75% threshold must tolerate +50%");
}

/// Runs `fires` to completion and returns its stderr, asserting it
/// failed. Kills it (and fails the test) if it is still running after
/// 30 s — a misparsed `serve` would never exit.
fn rejection(args: &[&str]) -> String {
    let mut child = fires()
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("fires {args:?} did not exit");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success(), "fires {args:?} must fail");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn misused_chaos_flags_are_rejected() {
    let dir = temp_dir("chaos-flags");
    let out = dir.join("out");
    let out = out.to_str().unwrap();
    let socket = dir.join("s.sock");
    let socket = socket.to_str().unwrap();
    let state = dir.join("state");
    let state = state.to_str().unwrap();

    // A service-only flag on `run`.
    let err = rejection(&[
        "run",
        "--suite",
        "small",
        "--out",
        out,
        "--chaos-seed",
        "1",
        "--chaos-accept",
        "5",
    ]);
    assert!(err.contains("--chaos-accept"), "{err}");

    // Chaos rates without a seed, on `serve` and on `run`.
    let err = rejection(&[
        "serve",
        "--socket",
        socket,
        "--state-dir",
        state,
        "--chaos-disk",
        "5",
    ]);
    assert!(err.contains("--chaos-seed"), "{err}");
    let err = rejection(&[
        "run",
        "--suite",
        "small",
        "--out",
        out,
        "--chaos-panic",
        "5",
    ]);
    assert!(err.contains("--chaos-seed"), "{err}");

    // Nothing ran: every rejection happened while parsing.
    assert!(!std::path::Path::new(out).exists());
    assert!(!std::path::Path::new(socket).exists());
}
