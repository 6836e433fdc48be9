//! In-process coverage of the serve telemetry surface: the `metrics`
//! verb's Prometheus exposition (flat counters plus labeled
//! tenant/job series and process gauges), the periodic snapshot file,
//! the per-request Chrome trace files (one connected submit →
//! queue_wait → engine → merge lane, plus the cache-hit short
//! circuit), and the `debug-dump` verb's flight-recorder dump
//! replaying in `seq` order.

mod common;

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fires_obs::Json;
use fires_serve::{run_server, Connection, Request, Response, ServeConfig, SubmitRequest};

fn temp_dir(tag: &str) -> common::TempDir {
    common::TempDir::new("fires-telem", tag)
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

fn submit(circuits: &[&str], tenant: &str) -> SubmitRequest {
    SubmitRequest {
        circuits: circuits.iter().map(|s| s.to_string()).collect(),
        tenant: tenant.into(),
        wait: true,
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

fn scrape(socket: &Path) -> String {
    match Connection::request(socket, &Request::Metrics).unwrap() {
        Response::Metrics { text } => text,
        other => panic!("metrics verb failed: {other:?}"),
    }
}

fn trace_files(state: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(state.join("traces"))
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    v.sort();
    v
}

/// (name, ph) pairs of every non-metadata trace event, in order.
fn phases(doc: &Json) -> Vec<(String, String)> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .map(|e| {
            (
                e.get("name").and_then(Json::as_str).unwrap().to_string(),
                e.get("ph").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn metrics_verb_renders_prometheus_with_labeled_series() {
    let dir = temp_dir("metrics");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    // Fast watchdog so the snapshot file appears within the test.
    cfg.heartbeat_interval = Duration::from_millis(50);
    let (socket, handle) = start(cfg);

    let resp = submit_and_finish(&socket, submit(&["fig3"], "acme"));
    assert!(matches!(resp, Response::Done { .. }), "{resp:?}");

    let text = scrape(&socket);
    // Flat counters in exposition format 0.0.4: dots mangled to
    // underscores, each family preceded by exactly one # TYPE line.
    assert!(
        text.contains("# TYPE serve_submissions counter\nserve_submissions 1\n"),
        "{text}"
    );
    assert!(text.contains("# TYPE serve_completed counter"), "{text}");
    // Labeled series name the tenant and the job key.
    assert!(
        text.contains("serve_tenant_submissions{tenant=\"acme\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("serve_tenant_completed{tenant=\"acme\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("serve_job_wall_ms{job=\"") && text.contains("tenant=\"acme\"}"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE serve_job_queue_wait_ms summary"),
        "{text}"
    );
    // Scrape-time process gauges, never part of the flat report.
    assert!(text.contains("# TYPE serve_queue_depth gauge"), "{text}");
    assert!(text.contains("# TYPE serve_uptime_seconds gauge"), "{text}");

    // The watchdog mirrors the same exposition into a snapshot file.
    let snapshot = dir.join("state").join("metrics").join("serve.prom");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !snapshot.exists() {
        assert!(Instant::now() < deadline, "snapshot file never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = std::fs::read_to_string(&snapshot).unwrap();
    assert!(snap.contains("# TYPE serve_heartbeats counter"), "{snap}");
    shutdown_now(&socket, handle);
}

#[test]
fn submissions_write_connected_trace_lanes_and_cache_hits_short_circuit() {
    let dir = temp_dir("traces");
    let state = dir.join("state");
    let cfg = ServeConfig::new(dir.join("sock"), state.clone());
    let (socket, handle) = start(cfg);

    let resp = submit_and_finish(&socket, submit(&["s27"], "ci"));
    assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
    let after_run = trace_files(&state);
    assert_eq!(after_run.len(), 1, "{after_run:?}");

    let doc = Json::parse(&std::fs::read_to_string(&after_run[0]).unwrap()).unwrap();
    assert_eq!(doc.get("tenant").and_then(Json::as_str), Some("ci"));
    let trace_id = doc.get("trace_id").and_then(Json::as_str).unwrap();
    assert!(
        after_run[0]
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with(trace_id),
        "file named by trace id"
    );
    // The request lane is labelled by the trace id.
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(
        events[0]
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str),
        Some(format!("request {trace_id}").as_str())
    );
    // One connected chain: submit → queue_wait → engine (with unit and
    // journal instants inside) → merge, B/E balanced.
    let seq = phases(&doc);
    let spans: Vec<(String, String)> = seq
        .iter()
        .filter(|(_, ph)| ph == "B" || ph == "E")
        .cloned()
        .collect();
    let expect: Vec<(String, String)> = [
        ("submit", "B"),
        ("submit", "E"),
        ("queue_wait", "B"),
        ("queue_wait", "E"),
        ("engine", "B"),
        ("engine", "E"),
        ("merge", "B"),
        ("merge", "E"),
    ]
    .iter()
    .map(|(n, p)| (n.to_string(), p.to_string()))
    .collect();
    assert_eq!(spans, expect, "{seq:?}");
    let units = seq.iter().filter(|(n, _)| n == "unit").count();
    assert!(units >= 1, "per-unit instants on the lane: {seq:?}");
    assert!(
        seq.iter().any(|(n, _)| n == "journal_append"),
        "journal IO on the lane: {seq:?}"
    );

    // A repeat submission is answered from the cache and leaves a
    // short-circuit trace of its own — a new file, distinct trace id.
    let resp = submit_and_finish(&socket, submit(&["s27"], "ci"));
    assert!(matches!(resp, Response::Hit { .. }), "{resp:?}");
    let after_hit = trace_files(&state);
    assert_eq!(after_hit.len(), 2, "{after_hit:?}");
    let new = after_hit.iter().find(|p| !after_run.contains(p)).unwrap();
    let doc = Json::parse(&std::fs::read_to_string(new).unwrap()).unwrap();
    let seq = phases(&doc);
    assert!(
        seq.iter().any(|(n, ph)| n == "cache_hit" && ph == "i"),
        "{seq:?}"
    );

    // The exposition counts the written files.
    let text = scrape(&socket);
    assert!(text.contains("serve_traces_written 2"), "{text}");
    shutdown_now(&socket, handle);
}

#[test]
fn debug_dump_replays_the_flight_ring_in_seq_order() {
    let dir = temp_dir("flight");
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    let (socket, handle) = start(cfg);

    let resp = submit_and_finish(&socket, submit(&["fig3"], "ops"));
    assert!(matches!(resp, Response::Done { .. }), "{resp:?}");

    let (path, events) = match Connection::request(&socket, &Request::DebugDump).unwrap() {
        Response::Dumped { path, events } => (PathBuf::from(path), events),
        other => panic!("debug-dump failed: {other:?}"),
    };
    assert!(events >= 2, "admission and completion were recorded");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let header = Json::parse(lines.next().unwrap()).unwrap();
    assert_eq!(
        header.get("reason").and_then(Json::as_str),
        Some("debug-dump")
    );
    assert_eq!(header.get("events").and_then(Json::as_u64), Some(events));

    // Events replay in strictly increasing seq order and include the
    // request's admission and terminal outcome.
    let mut whats = Vec::new();
    let mut last_seq = None;
    for line in lines {
        let e = Json::parse(line).unwrap();
        let seq = e.get("seq").and_then(Json::as_u64).unwrap();
        assert!(last_seq.is_none_or(|p| seq > p), "{text}");
        last_seq = Some(seq);
        whats.push(e.get("what").and_then(Json::as_str).unwrap().to_string());
    }
    assert_eq!(whats.len(), events as usize);
    assert!(whats.iter().any(|w| w == "admit"), "{whats:?}");
    assert!(whats.iter().any(|w| w == "claim"), "{whats:?}");
    assert!(whats.iter().any(|w| w == "job"), "{whats:?}");
    assert!(whats.last().is_some_and(|w| w == "dump"), "{whats:?}");

    // A second dump gets its own file and includes the first dump's
    // event — the ring keeps recording across dumps.
    std::thread::sleep(Duration::from_millis(5));
    let (path2, events2) = match Connection::request(&socket, &Request::DebugDump).unwrap() {
        Response::Dumped { path, events } => (PathBuf::from(path), events),
        other => panic!("second debug-dump failed: {other:?}"),
    };
    assert_ne!(path, path2);
    assert!(events2 > events);

    let text = scrape(&socket);
    assert!(text.contains("serve_flight_dumps 2"), "{text}");
    shutdown_now(&socket, handle);
}

#[test]
fn flight_ring_is_bounded_by_capacity() {
    let dir = temp_dir("ring");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.flight_capacity = 4;
    let (socket, handle) = start(cfg);

    // Enough distinct submissions to overflow a 4-event ring.
    for circuit in ["fig3", "s27"] {
        let resp = submit_and_finish(&socket, submit(&[circuit], "ops"));
        assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
    }
    let (path, events) = match Connection::request(&socket, &Request::DebugDump).unwrap() {
        Response::Dumped { path, events } => (PathBuf::from(path), events),
        other => panic!("debug-dump failed: {other:?}"),
    };
    assert!(events <= 4, "ring holds at most flight_capacity events");
    let text = std::fs::read_to_string(&path).unwrap();
    let header = Json::parse(text.lines().next().unwrap()).unwrap();
    // `recorded` keeps the true total; `first_seq` shows the window.
    let recorded = header.get("recorded").and_then(Json::as_u64).unwrap();
    assert!(recorded > events, "{text}");
    assert!(
        header.get("first_seq").and_then(Json::as_u64).unwrap() > 0,
        "{text}"
    );
    shutdown_now(&socket, handle);
}

#[test]
fn trace_spans_and_ring_events_share_one_clock() {
    let dir = temp_dir("clock");
    let state = dir.join("state");
    let (socket, handle) = start(ServeConfig::new(dir.join("sock"), state.clone()));

    let resp = submit_and_finish(&socket, submit(&["s27"], "ci"));
    assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
    let dump = match Connection::request(&socket, &Request::DebugDump).unwrap() {
        Response::Dumped { path, .. } => std::fs::read_to_string(path).unwrap(),
        other => panic!("debug-dump failed: {other:?}"),
    };
    let traces = trace_files(&state);
    assert_eq!(traces.len(), 1, "{traces:?}");
    let doc = Json::parse(&std::fs::read_to_string(&traces[0]).unwrap()).unwrap();
    let job = doc.get("job").and_then(Json::as_str).unwrap().to_string();

    // A span's begin on the trace (µs) and the same milestone in the
    // ring dump (ms) come from one recorded event.
    let begin_us = |span: &str| {
        doc.get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some(span)
                    && e.get("ph").and_then(Json::as_str) == Some("B")
            })
            .and_then(|e| e.get("ts"))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no {span} span"))
    };
    let ring_ms = |what: &str| {
        dump.lines()
            .skip(1)
            .map(|l| Json::parse(l).unwrap())
            .find(|e| {
                e.get("what").and_then(Json::as_str) == Some(what)
                    && e.get("detail")
                        .and_then(|d| d.get("job"))
                        .and_then(Json::as_str)
                        == Some(job.as_str())
            })
            .and_then(|e| e.get("ts_ms").and_then(Json::as_u64))
            .unwrap_or_else(|| panic!("no {what} event for job {job}: {dump}"))
    };
    assert_eq!(begin_us("queue_wait") / 1000, ring_ms("admit"));
    assert_eq!(begin_us("engine") / 1000, ring_ms("claim"));
    shutdown_now(&socket, handle);
}
