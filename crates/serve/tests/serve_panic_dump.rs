//! The panic hook dumps the event ring of running servers only.
//!
//! The hook is process-wide, so this scenario lives in its own test
//! binary: no other test's server can be running when the probe thread
//! panics.

mod common;

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fires_serve::{run_server, Connection, Request, Response, ServeConfig};

fn temp_dir(tag: &str) -> common::TempDir {
    common::TempDir::new("fires-panic", tag)
}

fn start(dir: &Path) -> (PathBuf, JoinHandle<Result<(), String>>) {
    let cfg = ServeConfig::new(dir.join("sock"), dir.join("state"));
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

/// Ring dump files written under `state`.
fn dumps(state: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(state)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".jsonl"))
        })
        .collect()
}

#[test]
fn a_service_panic_dumps_only_the_running_servers_ring() {
    let a = temp_dir("a");
    let (socket, handle) = start(&a);
    shutdown_now(&socket, handle);

    let b = temp_dir("b");
    let (socket, handle) = start(&b);
    let probe = std::thread::Builder::new()
        .name("fires-serve-probe".into())
        .spawn(|| panic!("probe panic"))
        .unwrap();
    assert!(probe.join().is_err());

    let in_b = dumps(&b.join("state"));
    assert_eq!(in_b.len(), 1, "{in_b:?}");
    let text = std::fs::read_to_string(&in_b[0]).unwrap();
    assert!(
        text.starts_with('{') && text.contains("\"reason\":\"panic\""),
        "{text}"
    );
    let in_a = dumps(&a.join("state"));
    assert!(in_a.is_empty(), "a stopped server must not dump: {in_a:?}");
    shutdown_now(&socket, handle);
}
