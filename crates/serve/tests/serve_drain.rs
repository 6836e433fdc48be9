//! In-process coverage of the service failure model: graceful drain
//! (typed rejection, subscriber flush, checkpoint-and-resume byte
//! identity), liveness verbs, the bounded request line, and the
//! recovery scan's quarantine of unreadable journals.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fires_jobs::ChaosPlan;
use fires_obs::Json;
use fires_serve::{run_server, Connection, Request, Response, ServeConfig, SubmitRequest};

fn temp_dir(tag: &str) -> common::TempDir {
    common::TempDir::new("fires-drain", tag)
}

fn start(cfg: ServeConfig) -> (PathBuf, JoinHandle<Result<(), String>>) {
    let socket = cfg.socket.clone();
    let handle = std::thread::spawn(move || run_server(cfg));
    let deadline = Instant::now() + Duration::from_secs(10);
    while UnixStream::connect(&socket).is_err() {
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
    (socket, handle)
}

fn shutdown_now(socket: &Path, handle: JoinHandle<Result<(), String>>) {
    let resp = Connection::request(socket, &Request::Shutdown { drain: false }).unwrap();
    assert_eq!(resp, Response::Ok);
    handle.join().unwrap().unwrap();
}

/// Flight-recorder dump files written under `state`.
fn flight_dumps(state: &Path) -> impl Iterator<Item = PathBuf> {
    std::fs::read_dir(state)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".jsonl"))
        })
}

fn counter(report: &Json, name: &str) -> u64 {
    report
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn submit(circuits: &[&str], wait: bool) -> SubmitRequest {
    SubmitRequest {
        circuits: circuits.iter().map(|s| s.to_string()).collect(),
        wait,
        interval_ms: 20,
        ..SubmitRequest::default()
    }
}

/// Runs one waiting submission to its terminal frame.
fn submit_and_finish(socket: &Path, req: SubmitRequest) -> Response {
    let mut conn = Connection::open(socket).unwrap();
    conn.send(&Request::Submit(req)).unwrap();
    loop {
        match conn.recv().unwrap().expect("stream closed mid-submit") {
            Response::Accepted { .. } | Response::Progress { .. } => {}
            terminal => return terminal,
        }
    }
}

#[test]
fn drain_rejects_new_work_with_a_typed_response() {
    let dir = temp_dir("reject");
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    let (socket, handle) = start(cfg);

    let resp = Connection::request(&socket, &Request::Shutdown { drain: true }).unwrap();
    assert_eq!(resp, Response::Ok);

    // The accept loop keeps serving while workers wind down; a submit
    // during the window gets the typed draining response, not a
    // connection reset or a generic rejection.
    let mut saw_draining = false;
    match Connection::request(&socket, &Request::Submit(submit(&["fig3"], false))) {
        Ok(Response::Draining { reason }) => {
            assert!(reason.contains("draining"), "{reason}");
            saw_draining = true;
        }
        Ok(other) => panic!("admission must close during drain: {other:?}"),
        // An idle drain can finish before the request lands.
        Err(_) => {}
    }
    let result = handle.join().unwrap();
    assert!(result.is_ok(), "{result:?}");
    if saw_draining {
        // The exit snapshot records both the drain and the rejection.
        let exit: String =
            std::fs::read_to_string(dir.join("state").join("exit.report.json")).unwrap();
        assert!(exit.contains("serve.rejected.draining"), "{exit}");
    }
    let exit: String = std::fs::read_to_string(dir.join("state").join("exit.report.json")).unwrap();
    let report = Json::parse(&exit).unwrap();
    assert_eq!(counter(&report, "serve.drained"), 1, "{exit}");
    assert!(!socket.exists(), "socket removed after drain");
}

#[test]
fn drain_flushes_subscribers_and_resumes_byte_identically() {
    // Baseline bytes from an undisturbed server.
    let base = temp_dir("flush-base");
    let cfg = ServeConfig::new(base.join("sock"), base.join("state"));
    let (socket, handle) = start(cfg);
    let Response::Done {
        report: baseline, ..
    } = submit_and_finish(&socket, submit(&["s27"], true))
    else {
        panic!("baseline failed");
    };
    shutdown_now(&socket, handle);

    // Slow server: per-unit chaos delays stretch the campaign so the
    // drain lands mid-flight.
    let dir = temp_dir("flush");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.workers = 1;
    cfg.runner.chaos = Some(ChaosPlan::new(7).with_delays(1000, 15));
    let (socket, handle) = start(cfg);

    let mut conn = Connection::open(&socket).unwrap();
    conn.send(&Request::Submit(submit(&["s27"], true))).unwrap();
    let job = match conn.recv().unwrap().expect("stream closed") {
        Response::Accepted { job } => job,
        other => panic!("expected acceptance: {other:?}"),
    };
    // Let the job make real progress before draining.
    let journal = dir.join("state").join("jobs").join(format!("{job}.jsonl"));
    let deadline = Instant::now() + Duration::from_secs(30);
    while std::fs::read_to_string(&journal)
        .map(|t| t.lines().count())
        .unwrap_or(0)
        < 4
    {
        assert!(Instant::now() < deadline, "job never started writing");
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = Connection::request(&socket, &Request::Shutdown { drain: true }).unwrap();
    assert_eq!(resp, Response::Ok);

    // The waiting subscriber is flushed with a terminal frame instead
    // of a silent EOF. (If the unit in flight was the last one the job
    // may legitimately complete during the drain.)
    let terminal = loop {
        match conn.recv().unwrap() {
            Some(Response::Progress { .. }) => {}
            Some(frame) => break frame,
            None => panic!("drain must flush subscribers with a typed frame, not EOF"),
        }
    };
    match &terminal {
        Response::Draining { reason } => {
            assert!(reason.contains("checkpointed"), "{reason}");
        }
        Response::Done { .. } => {}
        other => panic!("unexpected terminal frame: {other:?}"),
    }
    handle.join().unwrap().unwrap();

    // Restart on the same state dir without chaos: the checkpointed
    // job resumes and a duplicate submission delivers the baseline's
    // exact bytes.
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.workers = 1;
    let (socket, handle) = start(cfg);
    let resumed = submit_and_finish(&socket, submit(&["s27"], true));
    let report = match resumed {
        Response::Done { report, .. } | Response::Hit { report, .. } => report,
        other => panic!("resume failed: {other:?}"),
    };
    assert_eq!(report, baseline, "drain/resume must not change the bytes");
    shutdown_now(&socket, handle);
}

#[test]
fn health_and_ready_verbs_report_liveness() {
    let dir = temp_dir("health");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.heartbeat_interval = Duration::from_millis(50);
    let (socket, handle) = start(cfg);

    let resp = Connection::request(&socket, &Request::Ready).unwrap();
    assert_eq!(
        resp,
        Response::Ready {
            ready: true,
            reason: String::new()
        }
    );

    // Give the watchdog a beat, then check the health report.
    std::thread::sleep(Duration::from_millis(150));
    let Response::Health { report } = Connection::request(&socket, &Request::Health).unwrap()
    else {
        panic!("health verb failed");
    };
    assert_eq!(
        report.get("status").and_then(Json::as_str),
        Some("ok"),
        "{report:?}"
    );
    assert_eq!(
        report.get("heartbeat_stale").and_then(Json::as_bool),
        Some(false),
        "{report:?}"
    );
    // The watchdog journals beats for outside observers too.
    let beat = std::fs::read_to_string(dir.join("state").join("heartbeat.json")).unwrap();
    assert!(beat.contains("\"seq\""), "{beat}");

    // `fires status --socket` surfaces watchdog staleness.
    let Response::Status { report } = Connection::request(&socket, &Request::Status).unwrap()
    else {
        panic!("status verb failed");
    };
    let extra = report.get("extra").unwrap();
    assert_eq!(
        extra.get("watchdog_stale").and_then(Json::as_u64),
        Some(0),
        "{report:?}"
    );
    assert!(counter(&report, "serve.heartbeats") >= 1);
    shutdown_now(&socket, handle);
}

#[test]
fn oversized_request_lines_get_a_typed_error() {
    let dir = temp_dir("line");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.max_line_bytes = 1024;
    let (socket, handle) = start(cfg);

    let mut stream = UnixStream::connect(&socket).unwrap();
    let big = "x".repeat(4096);
    writeln!(stream, "{{\"type\":\"status\",\"junk\":\"{big}\"}}").unwrap();
    stream.flush().unwrap();
    let mut line = String::new();
    BufReader::new(stream.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    let resp = Response::parse(line.trim()).unwrap();
    let Response::Error { message } = resp else {
        panic!("oversized line must produce a typed error: {resp:?}");
    };
    assert!(message.contains("exceeds 1024 bytes"), "{message}");

    // The server survives and counts the event.
    let Response::Status { report } = Connection::request(&socket, &Request::Status).unwrap()
    else {
        panic!("status failed after oversized line");
    };
    assert_eq!(counter(&report, "serve.oversized_requests"), 1);
    shutdown_now(&socket, handle);
}

#[test]
fn drain_timeout_dumps_the_flight_recorder() {
    let dir = temp_dir("timeout");
    let state = dir.join("state");
    let mut cfg = ServeConfig::new(dir.join("sock"), state.clone());
    cfg.workers = 1;
    // The build-delay hook wedges the worker in an uninterruptible
    // sleep after it claims — far beyond the drain budget, so the
    // drain must time out.
    cfg.build_delay = Some(Duration::from_secs(30));
    cfg.drain_timeout = Duration::from_millis(200);
    let (socket, handle) = start(cfg);

    let mut conn = Connection::open(&socket).unwrap();
    conn.send(&Request::Submit(submit(&["s27"], false)))
        .unwrap();
    match conn.recv().unwrap().expect("stream closed") {
        Response::Accepted { .. } => {}
        other => panic!("expected acceptance: {other:?}"),
    }
    // Wait for the worker to claim the job, then drain into the wall.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "job never claimed");
        let Response::Status { report } = Connection::request(&socket, &Request::Status).unwrap()
        else {
            panic!("status failed");
        };
        let running = report
            .get("extra")
            .and_then(|e| e.get("running"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if running >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = Connection::request(&socket, &Request::Shutdown { drain: true }).unwrap();
    assert_eq!(resp, Response::Ok);
    handle.join().unwrap().unwrap();

    // The timeout is counted and the flight recorder hit the disk —
    // the post-mortem record of what the stuck worker was doing.
    let exit = std::fs::read_to_string(state.join("exit.report.json")).unwrap();
    let report = Json::parse(&exit).unwrap();
    assert_eq!(counter(&report, "serve.drain_timeouts"), 1, "{exit}");
    assert_eq!(counter(&report, "serve.flight_dumps"), 1, "{exit}");
    let dump = flight_dumps(&state).next().expect("flight dump written");
    let text = std::fs::read_to_string(&dump).unwrap();
    let header = Json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(
        header.get("reason").and_then(Json::as_str),
        Some("drain-timeout"),
        "{text}"
    );
    // The ring replays in order and remembers the admission and the
    // shutdown that started the drain.
    let mut last_seq = None;
    let mut whats = Vec::new();
    for line in text.lines().skip(1) {
        let e = Json::parse(line).unwrap();
        let seq = e.get("seq").and_then(Json::as_u64).unwrap();
        assert!(last_seq.is_none_or(|p| seq > p), "{text}");
        last_seq = Some(seq);
        whats.push(e.get("what").and_then(Json::as_str).unwrap().to_string());
    }
    assert!(whats.iter().any(|w| w == "admit"), "{whats:?}");
    assert!(whats.iter().any(|w| w == "shutdown"), "{whats:?}");
}

#[test]
fn recovery_scan_quarantines_unreadable_journals() {
    let dir = temp_dir("quarantine");
    let state = dir.join("state");
    let jobs = state.join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    // A garbled journal (no parseable header) and a truncated one
    // (empty file), both under names shaped like real job keys.
    std::fs::write(jobs.join("00000000deadbeef.jsonl"), "not json at all\n").unwrap();
    std::fs::write(jobs.join("00000000feedface.jsonl"), "").unwrap();

    let cfg = ServeConfig::new(dir.join("sock"), state.clone());
    let (socket, handle) = start(cfg);

    let Response::Status { report } = Connection::request(&socket, &Request::Status).unwrap()
    else {
        panic!("status failed");
    };
    assert_eq!(counter(&report, "serve.scan_errors"), 2, "{report:?}");
    assert_eq!(counter(&report, "serve.quarantined"), 2, "{report:?}");
    assert!(
        jobs.join("00000000deadbeef.jsonl.quarantined").exists(),
        "garbled journal renamed aside"
    );
    assert!(
        jobs.join("00000000feedface.jsonl.quarantined").exists(),
        "truncated journal renamed aside"
    );
    assert!(!jobs.join("00000000deadbeef.jsonl").exists());
    // Quarantine is a flight-dump trigger: the recorder's view of the
    // recovery scan lands on disk without anyone asking.
    assert!(
        flight_dumps(&state).count() >= 1,
        "quarantine must dump the flight recorder"
    );

    // A fresh submission recomputes from scratch, unbothered.
    let resp = submit_and_finish(&socket, submit(&["fig3"], true));
    assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
    shutdown_now(&socket, handle);
}
