//! In-process end-to-end tests of the serve cache and scheduler:
//! cache hits are byte-identical to cold runs, eviction under a tiny
//! byte budget falls back to the durable journal tier, concurrent
//! duplicate submissions build the engine exactly once (single-flight),
//! and admission control enforces queue and tenant limits.

mod common;

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fires_obs::Json;
use fires_serve::{run_server, Connection, Request, Response, ServeConfig, SubmitRequest};

fn temp_dir(tag: &str) -> common::TempDir {
    common::TempDir::new("fires-serve", tag)
}

/// Starts a server on a fresh socket, waits until it accepts.
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

fn shutdown(socket: &Path, handle: JoinHandle<Result<(), String>>) {
    let resp = Connection::request(socket, &Request::Shutdown { drain: false }).unwrap();
    assert_eq!(resp, Response::Ok);
    handle.join().unwrap().unwrap();
    assert!(!socket.exists(), "socket file removed on clean shutdown");
}

fn submit_fig3(wait: bool) -> SubmitRequest {
    SubmitRequest {
        circuits: vec!["fig3".into()],
        wait,
        interval_ms: 20,
        ..SubmitRequest::default()
    }
}

/// Drives one waiting submission to completion, returning the terminal
/// response and the number of progress events seen on the way.
fn submit_and_wait(socket: &Path, req: SubmitRequest) -> (Response, usize) {
    let mut conn = Connection::open(socket).unwrap();
    conn.send(&Request::Submit(req)).unwrap();
    let mut progress = 0;
    loop {
        match conn.recv().unwrap().expect("connection closed mid-stream") {
            Response::Accepted { .. } => {}
            Response::Progress { .. } => progress += 1,
            terminal => return (terminal, progress),
        }
    }
}

fn status_report(socket: &Path) -> Json {
    match Connection::request(socket, &Request::Status).unwrap() {
        Response::Status { report } => report,
        other => panic!("unexpected status response: {other:?}"),
    }
}

fn counter(report: &Json, name: &str) -> u64 {
    report
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn extra(report: &Json, name: &str) -> u64 {
    report
        .get("extra")
        .and_then(|e| e.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn repeat_submission_hits_the_cache_byte_identically() {
    let dir = temp_dir("hit");
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    let (socket, handle) = start(cfg);

    let (first, progress) = submit_and_wait(&socket, submit_fig3(true));
    let Response::Done { job, report } = first else {
        panic!("first submission should compute: {first:?}");
    };
    assert!(progress >= 1, "waiting submissions stream progress events");
    assert_eq!(job.len(), 16, "job ids are 16 hex digits: {job}");

    // Second submission: answered from cache, byte-identical report.
    let (second, _) = submit_and_wait(&socket, submit_fig3(true));
    let Response::Hit {
        job: job2,
        report: report2,
    } = second
    else {
        panic!("second submission should hit the cache: {second:?}");
    };
    assert_eq!(job2, job, "same content, same job id");
    assert_eq!(report2, report, "cached report is byte-identical");

    // A remote watch of the finished job replays progress then done
    // with the same canonical bytes.
    let mut conn = Connection::open(&socket).unwrap();
    conn.send(&Request::Watch {
        job: job.clone(),
        interval_ms: 20,
    })
    .unwrap();
    let watched = loop {
        match conn.recv().unwrap().expect("watch stream closed") {
            Response::Progress { summary, .. } => {
                assert_eq!(summary.get("complete").and_then(Json::as_bool), Some(true));
            }
            Response::Done { report, .. } => break report,
            other => panic!("unexpected watch response: {other:?}"),
        }
    };
    assert_eq!(watched, report);

    let status = status_report(&socket);
    assert_eq!(counter(&status, "serve.submissions"), 2);
    assert_eq!(counter(&status, "serve.cache_hits"), 1);
    assert_eq!(counter(&status, "serve.cache_misses"), 1);
    assert_eq!(counter(&status, "serve.engine_builds"), 1);
    shutdown(&socket, handle);
}

#[test]
fn eviction_falls_back_to_the_journal_tier() {
    let dir = temp_dir("evict");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.cache_bytes = 1; // every report is over budget: always evicted
    let (socket, handle) = start(cfg);

    let (first, _) = submit_and_wait(&socket, submit_fig3(true));
    let Response::Done { report, .. } = first else {
        panic!("first submission should compute: {first:?}");
    };
    let status = status_report(&socket);
    assert_eq!(extra(&status, "cache_entries"), 0, "report evicted");
    assert!(extra(&status, "cache_evictions") >= 1);

    // The repeat is still a hit — re-merged byte-identically from the
    // journal under the state dir, not recomputed.
    let (second, _) = submit_and_wait(&socket, submit_fig3(true));
    let Response::Hit {
        report: report2, ..
    } = second
    else {
        panic!("evicted result still served from the durable tier: {second:?}");
    };
    assert_eq!(report2, report);
    let status = status_report(&socket);
    assert!(counter(&status, "serve.remerges") >= 1);
    assert_eq!(
        counter(&status, "serve.engine_builds"),
        1,
        "re-serving from the durable tier must not re-run the campaign"
    );
    shutdown(&socket, handle);
}

#[test]
fn concurrent_duplicates_build_the_engine_once() {
    let dir = temp_dir("flight");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.workers = 2;
    // Hold the build long enough that both submissions overlap it.
    cfg.build_delay = Some(Duration::from_millis(300));
    let (socket, handle) = start(cfg);

    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let socket = socket.clone();
            std::thread::spawn(move || submit_and_wait(&socket, submit_fig3(true)))
        })
        .collect();
    let mut reports = Vec::new();
    for t in submitters {
        let (resp, _) = t.join().unwrap();
        match resp {
            Response::Done { report, .. } | Response::Hit { report, .. } => reports.push(report),
            other => panic!("duplicate submission failed: {other:?}"),
        }
    }
    assert_eq!(reports[0], reports[1], "both waiters got the same bytes");

    let status = status_report(&socket);
    assert_eq!(
        counter(&status, "serve.engine_builds"),
        1,
        "single-flight: one execution for concurrent duplicates"
    );
    assert_eq!(counter(&status, "serve.deduped"), 1);
    shutdown(&socket, handle);
}

#[test]
fn admission_enforces_tenant_and_queue_limits() {
    let dir = temp_dir("admit");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.workers = 1;
    cfg.tenant_active = 1;
    cfg.max_queue = 1;
    cfg.build_delay = Some(Duration::from_millis(800));
    let (socket, handle) = start(cfg);

    // First job: admitted, soon running (not queued).
    let first = Connection::request(
        &socket,
        &Request::Submit(SubmitRequest {
            circuits: vec!["fig3".into()],
            tenant: "alice".into(),
            ..SubmitRequest::default()
        }),
    )
    .unwrap();
    assert!(matches!(first, Response::Accepted { .. }), "{first:?}");

    // Same tenant, different circuit: over the active-job limit.
    let second = Connection::request(
        &socket,
        &Request::Submit(SubmitRequest {
            circuits: vec!["s27".into()],
            tenant: "alice".into(),
            ..SubmitRequest::default()
        }),
    )
    .unwrap();
    let Response::Rejected { reason } = second else {
        panic!("tenant limit should reject: {second:?}");
    };
    assert!(reason.contains("alice"), "{reason}");

    // Another tenant fills the queue (worker is busy with job 1)...
    let deadline = Instant::now() + Duration::from_secs(5);
    while extra(&status_report(&socket), "queue_depth") != 0 {
        assert!(Instant::now() < deadline, "worker never picked up job 1");
        std::thread::sleep(Duration::from_millis(10));
    }
    let third = Connection::request(
        &socket,
        &Request::Submit(SubmitRequest {
            circuits: vec!["s27".into()],
            tenant: "bob".into(),
            ..SubmitRequest::default()
        }),
    )
    .unwrap();
    assert!(matches!(third, Response::Accepted { .. }), "{third:?}");

    // ...so the next distinct job bounces off the queue bound.
    let fourth = Connection::request(
        &socket,
        &Request::Submit(SubmitRequest {
            circuits: vec!["s208_like".into()],
            tenant: "carol".into(),
            ..SubmitRequest::default()
        }),
    )
    .unwrap();
    let Response::Rejected { reason } = fourth else {
        panic!("queue bound should reject: {fourth:?}");
    };
    assert!(reason.contains("queue full"), "{reason}");

    let status = status_report(&socket);
    assert_eq!(counter(&status, "serve.rejected.alice"), 1);
    assert_eq!(counter(&status, "serve.rejected.carol"), 1);
    shutdown(&socket, handle);
}

#[test]
fn tenant_step_caps_clamp_the_budget_and_the_key() {
    let dir = temp_dir("caps");
    let mut cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
    cfg.tenant_steps = vec![("capped".into(), 50)];
    let (socket, handle) = start(cfg);

    // An uncapped tenant and the capped one submit the same circuit:
    // the clamp changes results, so the jobs must not share a key.
    let (free, _) = submit_and_wait(
        &socket,
        SubmitRequest {
            circuits: vec!["fig3".into()],
            tenant: "free".into(),
            wait: true,
            interval_ms: 20,
            ..SubmitRequest::default()
        },
    );
    let Response::Done { job: free_job, .. } = free else {
        panic!("uncapped submission should compute: {free:?}");
    };
    let (capped, _) = submit_and_wait(
        &socket,
        SubmitRequest {
            circuits: vec!["fig3".into()],
            tenant: "capped".into(),
            wait: true,
            interval_ms: 20,
            ..SubmitRequest::default()
        },
    );
    let Response::Done {
        job: capped_job, ..
    } = capped
    else {
        panic!("capped submission is a distinct job, not a cache hit: {capped:?}");
    };
    assert_ne!(free_job, capped_job, "step cap must change the content key");
    shutdown(&socket, handle);
}
