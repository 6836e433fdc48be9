//! The service-layer chaos soak: drive the real binary with seeded
//! socket and disk faults plus slow units, SIGTERM it mid-campaign,
//! and verify (a) the daemon drains and exits cleanly, (b) degraded
//! mode actually fired, (c) a client with `--reconnect` rides out the
//! restart, and (d) the final canonical report is byte-identical to a
//! fault-free baseline.

mod common;

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fires_obs::Json;
use fires_serve::{Connection, Request, Response, SubmitRequest};

fn temp_dir(tag: &str) -> common::TempDir {
    common::TempDir::new("fires-soak", tag)
}

fn fires() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fires"))
}

/// A quiet, fault-free daemon for the baseline and the post-restart
/// recovery leg.
fn spawn_plain_server(socket: &Path, state: &Path) -> Child {
    fires()
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--state-dir")
        .arg(state)
        .args(["--server-workers", "1", "--threads", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

/// The daemon under fire: every socket-facing fault class plus disk
/// faults and slow units (delays stretch the campaign so the SIGTERM
/// lands mid-flight without changing any result byte).
fn spawn_chaos_server(socket: &Path, state: &Path) -> Child {
    fires()
        .arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--state-dir")
        .arg(state)
        .args(["--server-workers", "1", "--threads", "2"])
        .args(["--chaos-seed", "7"])
        .args(["--chaos-delay", "1000", "--chaos-delay-ms", "25"])
        .args(["--chaos-accept", "300"])
        .args(["--chaos-read", "200"])
        .args(["--chaos-write", "200"])
        .args(["--chaos-stall", "250", "--chaos-stall-ms", "40"])
        .args(["--chaos-disk", "500"])
        .args(["--chaos-wakeup-ms", "10"])
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

fn campaign() -> SubmitRequest {
    SubmitRequest {
        circuits: vec!["s27".into(), "s208_like".into()],
        wait: true,
        interval_ms: 20,
        ..SubmitRequest::default()
    }
}

/// In-process waiting submission (used against fault-free daemons
/// only, so no reconnect logic is needed).
fn submit_to_completion(socket: &Path) -> String {
    let mut conn = Connection::open(socket).unwrap();
    conn.send(&Request::Submit(campaign())).unwrap();
    loop {
        match conn.recv().unwrap().expect("stream closed mid-submit") {
            Response::Accepted { .. } | Response::Progress { .. } => {}
            Response::Done { report, .. } | Response::Hit { report, .. } => return report,
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

fn counter(report: &Json, name: &str) -> u64 {
    report
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Sum of every `serve.degraded.*` counter in a status report.
fn degraded_total(report: &Json) -> u64 {
    let Some(counters) = report
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Json::as_obj)
    else {
        return 0;
    };
    counters
        .iter()
        .filter(|(name, _)| name.starts_with("serve.degraded."))
        .filter_map(|(_, v)| v.as_u64())
        .sum()
}

#[test]
fn chaos_soak_drains_on_sigterm_and_resumes_byte_identically() {
    // Leg 1: fault-free baseline bytes.
    let base = temp_dir("baseline");
    let base_socket = base.join("sock");
    let child = spawn_plain_server(&base_socket, &base.join("state"));
    wait_for_socket(&base_socket);
    let baseline_report = submit_to_completion(&base_socket);
    shutdown(&base_socket, child);

    // Leg 2: same campaign under fire, via the real CLI client with a
    // generous reconnect budget (dropped accepts and injected
    // read/write faults cost one attempt each; any received response
    // refills the budget).
    let dir = temp_dir("fire");
    let socket = dir.join("sock");
    let state = dir.join("state");
    let out_path = dir.join("report.json");
    let child = spawn_chaos_server(&socket, &state);
    wait_for_socket(&socket);

    let mut submit = fires()
        .arg("submit")
        .arg("--socket")
        .arg(&socket)
        .args(["--circuit", "s27", "--circuit", "s208_like"])
        .args(["--wait", "--interval-ms", "20", "--reconnect", "30"])
        .arg("--out")
        .arg(&out_path)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait until some job journal shows real progress, then SIGTERM
    // the daemon mid-campaign.
    let jobs = state.join("jobs");
    let deadline = Instant::now() + Duration::from_secs(60);
    'progress: loop {
        assert!(Instant::now() < deadline, "campaign never started writing");
        if let Ok(entries) = std::fs::read_dir(&jobs) {
            for entry in entries.flatten() {
                let lines = std::fs::read_to_string(entry.path())
                    .map(|t| t.lines().count())
                    .unwrap_or(0);
                if lines >= 4 {
                    break 'progress;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Hammer the socket with status probes so every fault class gets
    // plenty of rolls (accept drops, abandoned reads, failed writes,
    // stalls). Probes that hit an injected fault error out — that is
    // the point — so failures are ignored.
    for _ in 0..30 {
        let _ = Connection::request(&socket, &Request::Status);
    }

    let pid = child.id().to_string();
    let killed = Command::new("kill").args(["-TERM", &pid]).status().unwrap();
    assert!(killed.success(), "kill -TERM failed");
    let mut child = child;
    let status = child.wait().unwrap();
    assert!(
        status.success(),
        "SIGTERM drain must exit cleanly: {status}"
    );

    // The exit snapshot proves the drain happened and degraded mode
    // actually fired while the daemon lived.
    let exit_text = std::fs::read_to_string(state.join("exit.report.json")).unwrap();
    let exit = Json::parse(&exit_text).unwrap();
    assert_eq!(counter(&exit, "serve.drained"), 1, "{exit_text}");
    assert!(
        degraded_total(&exit) > 0,
        "chaos rates this high must trip degraded mode at least once: {exit_text}"
    );

    // Leg 3: restart fault-free on the same state dir. The recovery
    // scan resumes the checkpointed job; the still-running CLI client
    // reconnects and lands its report.
    let child = spawn_plain_server(&socket, &state);
    wait_for_socket(&socket);
    let submit_status = submit.wait().unwrap();
    assert!(
        submit_status.success(),
        "submit --reconnect must ride out the restart: {submit_status}"
    );
    let client_report = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(
        client_report, baseline_report,
        "the report delivered across chaos, drain, and restart must be \
         byte-identical to the fault-free baseline"
    );

    // And a fresh duplicate submission agrees too (cache or re-merge).
    let resumed_report = submit_to_completion(&socket);
    assert_eq!(resumed_report, baseline_report);
    shutdown(&socket, child);
}
