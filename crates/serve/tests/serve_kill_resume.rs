//! Chaos coverage for the daemon itself: SIGKILL the server
//! mid-campaign, restart it on the same state dir, and verify the
//! resumed canonical report is byte-identical to an uninterrupted
//! baseline. Drives the real binary (`CARGO_BIN_EXE_fires`), so the
//! `serve` flag surface and the startup recovery scan are covered too.

mod common;

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fires_serve::{Connection, Request, Response, SubmitRequest};

fn temp_dir(tag: &str) -> common::TempDir {
    common::TempDir::new("fires-skr", tag)
}

/// Spawns `fires serve` with injected per-unit delays, so a kill
/// reliably lands mid-campaign (delays slow units without changing
/// results).
fn spawn_server(socket: &Path, state: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_fires"))
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--state-dir")
        .arg(state)
        .args(["--server-workers", "1", "--threads", "2"])
        .args([
            "--chaos-seed",
            "7",
            "--chaos-delay",
            "1000",
            "--chaos-delay-ms",
            "15",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

fn wait_for_socket(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while UnixStream::connect(socket).is_err() {
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn campaign(wait: bool) -> SubmitRequest {
    SubmitRequest {
        circuits: vec!["s27".into(), "s208_like".into()],
        wait,
        interval_ms: 20,
        ..SubmitRequest::default()
    }
}

/// Submits with `--wait` semantics and returns `(job, report)`.
fn submit_to_completion(socket: &Path) -> (String, String) {
    let mut conn = Connection::open(socket).unwrap();
    conn.send(&Request::Submit(campaign(true))).unwrap();
    loop {
        match conn.recv().unwrap().expect("stream closed mid-submit") {
            Response::Accepted { .. } | Response::Progress { .. } => {}
            Response::Done { job, report } | Response::Hit { job, report } => return (job, report),
            other => panic!("submission failed: {other:?}"),
        }
    }
}

fn shutdown(socket: &Path, mut child: Child) {
    let resp = Connection::request(socket, &Request::Shutdown { drain: false }).unwrap();
    assert_eq!(resp, Response::Ok);
    let status = child.wait().unwrap();
    assert!(status.success(), "server exited uncleanly: {status}");
}

#[test]
fn sigkill_mid_campaign_resumes_to_identical_bytes() {
    // Uninterrupted baseline on its own state dir.
    let base = temp_dir("baseline");
    let base_socket = base.join("sock");
    let child = spawn_server(&base_socket, &base.join("state"));
    wait_for_socket(&base_socket);
    let (baseline_job, baseline_report) = submit_to_completion(&base_socket);
    shutdown(&base_socket, child);

    // Same campaign on a fresh server, killed mid-flight.
    let dir = temp_dir("killed");
    let socket = dir.join("sock");
    let state = dir.join("state");
    let mut child = spawn_server(&socket, &state);
    wait_for_socket(&socket);
    let accepted = Connection::request(&socket, &Request::Submit(campaign(false))).unwrap();
    let Response::Accepted { job } = accepted else {
        panic!("submission should be admitted: {accepted:?}");
    };
    assert_eq!(job, baseline_job, "same content hashes to the same job");

    // Wait until the journal shows real progress, then SIGKILL. (If the
    // campaign races to completion first, the restart exercises the
    // complete-journal recovery path instead — also a valid outcome.)
    let journal = state.join("jobs").join(format!("{job}.jsonl"));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let lines = std::fs::read_to_string(&journal)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if lines >= 4 {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never started writing");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().unwrap(); // SIGKILL: no cleanup, journal possibly torn
    child.wait().unwrap();

    // Restart on the same state dir: recovery re-queues the in-flight
    // campaign; a duplicate submission attaches to it (or hits the
    // cache if recovery already finished it) and must deliver the
    // baseline's exact bytes.
    let child = spawn_server(&socket, &state);
    wait_for_socket(&socket);
    let (resumed_job, resumed_report) = submit_to_completion(&socket);
    assert_eq!(resumed_job, baseline_job);
    assert_eq!(
        resumed_report, baseline_report,
        "kill/resume must not change a single canonical byte"
    );

    // The restart indexed the journal via the recovery scan.
    let status = Connection::request(&socket, &Request::Status).unwrap();
    let Response::Status { report } = status else {
        panic!("status failed: {status:?}");
    };
    let counters = report.get("metrics").and_then(|m| m.get("counters"));
    let recovered = counters
        .and_then(|c| c.get("serve.recovered"))
        .and_then(fires_obs::Json::as_u64)
        .unwrap_or(0);
    let resumed = counters
        .and_then(|c| c.get("serve.resumed"))
        .and_then(fires_obs::Json::as_u64)
        .unwrap_or(0);
    assert_eq!(
        recovered + resumed,
        1,
        "the killed campaign was re-indexed exactly once: {report:?}"
    );
    shutdown(&socket, child);
}
