//! The `serve-*` workloads: an in-process `fires serve` daemon driven by
//! one client over the line-JSON protocol, one request at a time.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fires_jobs::CampaignSpec;
use fires_netlist::bench;
use fires_obs::Json;
use fires_serve::{run_server, Connection, Request, Response, ServeConfig, SubmitRequest};

use fires_benchmark::stats;
use fires_benchmark::trace::Tracer;

use crate::probe::{ProbeCircuit, ProbeInput};
use crate::{ms, shuffle, Footprint, Measured, Op, Run};

/// Every circuit `serve-cold` submits: the suite rows that finish in well
/// under a second, so the fixed cost per job shows. `s444_like` (0.55 s
/// per campaign) would take about a third of each round.
const COLD_CIRCUITS: [&str; 10] = [
    "s27",
    "fig3",
    "fig7",
    "s208_like",
    "s349_like",
    "s386_like",
    "s400_like",
    "s420_like",
    "s838_like",
    "s1238_like",
];
/// `serve-repeat` submits this one: its 229 KB reply line makes encoding
/// and decoding the reply visible.
const REPEAT_CIRCUIT: &str = "s1423_like";
/// Warm-up set-ups of `serve-repeat`; `setup_s` is their median.
const REPEAT_SETUPS: usize = 3;
/// Fewest timed operations per run.
const MIN_HITS: usize = 3;
/// `disk_mb` of `serve-repeat` is read after this many hits.
const DISK_HITS: usize = 10;
/// Give up on a daemon that does not answer within this long.
const STARTUP_LIMIT: Duration = Duration::from_secs(20);

/// The `status` counters reported as per-layer metrics, summed over every
/// daemon of a run.
const COUNTERS: [&str; 2] = ["serve.cache_hits", "serve.cache_misses"];

/// A daemon on its own thread, with its own socket and state directory.
struct Daemon {
    socket: PathBuf,
    state: PathBuf,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl Daemon {
    /// Starts a daemon with one worker and one runner thread in `dir` and
    /// waits until it answers; returns it with its start-up time.
    fn start(dir: &Path) -> Result<(Daemon, Duration), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("s.sock");
        let state = dir.join("state");
        let mut cfg = ServeConfig::new(&socket, &state);
        cfg.workers = 1;
        cfg.runner.threads = 1;
        let t = Instant::now();
        let mut daemon = Daemon {
            socket,
            state,
            thread: Some(std::thread::spawn(move || run_server(cfg))),
        };
        loop {
            if let Ok(Response::Health { .. }) =
                Connection::request(&daemon.socket, &Request::Health)
            {
                return Ok((daemon, t.elapsed()));
            }
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished)
                || t.elapsed() > STARTUP_LIMIT
            {
                let why = match daemon.thread.take().map(JoinHandle::join) {
                    Some(Ok(Err(e))) => e,
                    _ => "it did not answer".into(),
                };
                return Err(format!("daemon did not start: {why}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The `status` verb's counters.
    fn counters(&self) -> Result<Json, String> {
        match Connection::request(&self.socket, &Request::Status)? {
            Response::Status { report } => report
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .cloned()
                .ok_or_else(|| "status report has no counters".into()),
            other => Err(format!("status answered {other:?}")),
        }
    }

    /// Adds this daemon's counters to the run's, stops it and waits for
    /// its thread.
    fn stop(mut self, run: &mut Run) -> Result<Json, String> {
        let counters = self.counters()?;
        for name in COUNTERS {
            *run.counters.entry(name.to_string()).or_default() += counter(&counters, name);
        }
        Connection::request(&self.socket, &Request::Shutdown { drain: false })?;
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) => Ok(counters),
            Some(Ok(Err(e))) => Err(format!("daemon exited with: {e}")),
            _ => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = Connection::request(&self.socket, &Request::Shutdown { drain: false });
            let _ = thread.join();
        }
    }
}

fn counter(counters: &Json, name: &str) -> u64 {
    counters.get(name).and_then(Json::as_u64).unwrap_or(0)
}

/// Whether a reply line has type `t`. The server prints objects with
/// sorted keys, so `type` is the last key of every reply.
fn is_type(line: &str, t: &str) -> bool {
    line.trim_end()
        .strip_suffix("\"}")
        .and_then(|l| l.strip_suffix(t))
        .is_some_and(|l| l.ends_with("\"type\":\""))
}

/// A decoded terminal reply.
struct Reply {
    report: String,
    hit: bool,
}

/// One `fires submit --wait`, as `Connection` does it but with each step
/// timed apart: encode, connect, write and wait for the first line
/// (`admit`), wait for the terminal line (`exec`, cold jobs only) and
/// decode it.
fn submit(run: &mut Run, socket: &Path, circuit: &str, op: u64) -> Result<Reply, String> {
    let request = Request::Submit(SubmitRequest {
        circuits: vec![circuit.to_string()],
        wait: true,
        ..SubmitRequest::default()
    });
    let tracer: &mut Tracer = &mut run.tracer;
    let line = tracer.span("serve.encode", op, || request.to_json().to_compact());
    let stream = tracer
        .span("serve.connect", op, || UnixStream::connect(socket))
        .map_err(|e| format!("connecting: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut read_line = move || -> Result<String, String> {
        let mut l = String::new();
        match reader.read_line(&mut l) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(l),
            Err(e) => Err(format!("reading reply: {e}")),
        }
    };
    let first = tracer.span("serve.admit", op, || {
        writeln!(writer, "{line}")
            .and_then(|()| writer.flush())
            .map_err(|e| format!("sending request: {e}"))?;
        read_line()
    })?;
    let terminal = if is_type(&first, "accepted") {
        tracer.span("serve.exec", op, || loop {
            let l = read_line()?;
            if !is_type(&l, "progress") {
                break Ok::<_, String>(l);
            }
            Response::parse(l.trim())?;
        })?
    } else {
        first
    };
    run.reply_bytes.push(terminal.len() as f64);
    let response = run
        .tracer
        .span("serve.decode", op, || Response::parse(terminal.trim()))?;
    match response {
        Response::Done { report, .. } => Ok(Reply { report, hit: false }),
        Response::Hit { report, .. } => Ok(Reply { report, hit: true }),
        other => Err(format!("{circuit}: daemon answered {other:?}")),
    }
}

/// One timed submission: the latency, and the reply or why it failed.
fn timed_submit(
    run: &mut Run,
    socket: &Path,
    circuit: &str,
    traced: bool,
) -> (f64, Result<Reply, String>) {
    let op = run.next_op();
    run.tracer.pause(!traced);
    let t = Instant::now();
    let root = run.tracer.begin("op.submit", op);
    let reply = submit(run, socket, circuit, op);
    run.tracer.end(root);
    let latency = ms(t.elapsed());
    run.tracer.pause(false);
    (latency, reply)
}

/// The named circuits as probe input, validated like every submission.
fn probe_input(names: &[&'static str]) -> Result<ProbeInput, String> {
    let tasks = CampaignSpec::from_circuits("probe", names.iter().copied())
        .resolve()
        .map_err(|e| e.to_string())?;
    Ok(ProbeInput {
        circuits: names
            .iter()
            .zip(tasks)
            .map(|(&name, t)| ProbeCircuit {
                name,
                text: bench::to_text(&t.circuit),
                frames: t.config.max_frames,
            })
            .collect(),
        validate: true,
    })
}

pub fn cold(run: &mut Run) -> Result<(Measured, ProbeInput), String> {
    let circuits: &[&'static str] = if run.quick {
        &COLD_CIRCUITS[..2]
    } else {
        &COLD_CIRCUITS
    };
    let (mut setup_s, mut ops) = (Vec::new(), Vec::new());
    let mut footprint = None;
    let started = Instant::now();
    let mut round = 0u64;
    while run.keep_going(started, ops.len(), 1) {
        // A fresh daemon on an empty state directory: every submission
        // misses the cache.
        let dir = run.work.join(format!("serve-{round}"));
        let (daemon, startup) = Daemon::start(&dir)?;
        setup_s.push(startup.as_secs_f64());
        run.startup_ms.push(ms(startup));
        let mut order = circuits.to_vec();
        shuffle(
            &mut order,
            run.seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut replies = Vec::new();
        for (i, circuit) in order.iter().enumerate() {
            let traced = run.tracer.enabled() && i.is_multiple_of(2);
            let (ms, reply) = timed_submit(run, &daemon.socket, circuit, traced);
            ops.push(Op {
                circuit,
                ms,
                traced,
            });
            replies.push((circuit, reply));
        }
        for (circuit, reply) in replies {
            let outcome = reply.and_then(|r| match r.hit {
                true => Err(format!("{circuit}: cache hit on an empty daemon")),
                false => {
                    run.check_digest(&["serve", circuit], &r.report);
                    Ok(())
                }
            });
            run.op_outcome(outcome);
        }
        if round == 0 {
            footprint = Some(Footprint::read(&daemon.state)?);
        }
        let counters = daemon.stop(run)?;
        let misses = counter(&counters, "serve.cache_misses");
        let hits = counter(&counters, "serve.cache_hits");
        run.check(misses == order.len() as u64 && hits == 0, || {
            format!(
                "round {round}: {misses} cache misses and {hits} hits for {} cold submissions",
                order.len()
            )
        });
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        round += 1;
    }
    Ok((
        Measured {
            setup_s,
            ops,
            footprint: footprint.ok_or("no round ran")?,
        },
        probe_input(circuits)?,
    ))
}

pub fn repeat(run: &mut Run) -> Result<(Measured, ProbeInput), String> {
    let circuit = if run.quick { "s27" } else { REPEAT_CIRCUIT };
    let setups = if run.quick { 1 } else { REPEAT_SETUPS };
    let disk_after = if run.quick { 1 } else { DISK_HITS };
    // Set-up: daemon start plus one cold submission that fills the cache.
    // Repeated on fresh daemons; the last one serves the hits.
    let mut setup_s = Vec::new();
    let mut serving: Option<(Daemon, PathBuf, String)> = None;
    for k in 0..setups {
        if let Some((daemon, dir, _)) = serving.take() {
            daemon.stop(run)?;
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let dir = run.work.join(format!("serve-{k}"));
        let t = Instant::now();
        let (daemon, startup) = Daemon::start(&dir)?;
        let traced = run.tracer.enabled();
        let (_, warm) = timed_submit(run, &daemon.socket, circuit, traced);
        setup_s.push(t.elapsed().as_secs_f64());
        run.startup_ms.push(ms(startup));
        let warm = warm?;
        run.check(!warm.hit, || "warm-up submission was a cache hit".into());
        run.check_digest(&["serve", circuit], &warm.report);
        serving = Some((daemon, dir, warm.report));
    }
    let (daemon, dir, reference) = serving.ok_or("no set-up ran")?;

    let mut ops = Vec::new();
    let mut footprint = None;
    let started = Instant::now();
    while run.keep_going(started, ops.len(), MIN_HITS) {
        let traced = run.tracer.enabled() && ops.len().is_multiple_of(2);
        let (ms, reply) = timed_submit(run, &daemon.socket, circuit, traced);
        ops.push(Op {
            circuit,
            ms,
            traced,
        });
        let outcome = reply.and_then(|r| match (r.hit, r.report == reference) {
            (true, true) => Ok(()),
            (false, _) => Err(format!("{circuit}: repeat submission was not a cache hit")),
            (true, false) => Err(format!(
                "{circuit}: hit bytes differ from the computed report"
            )),
        });
        run.op_outcome(outcome);
        if ops.len() == disk_after {
            footprint = Some(Footprint::read(&daemon.state)?);
        }
    }
    let footprint = match footprint {
        Some(f) => f,
        None => Footprint::read(&daemon.state)?,
    };
    let hits = ops.len() as u64;
    let counters = daemon.stop(run)?;
    let (got_hits, builds) = (
        counter(&counters, "serve.cache_hits"),
        counter(&counters, "serve.engine_builds"),
    );
    run.check(got_hits == hits && builds == 1, || {
        format!("status shows {got_hits} cache hits and {builds} engine builds after {hits} hits on one build")
    });
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok((
        Measured {
            setup_s,
            ops,
            footprint,
        },
        probe_input(&[circuit])?,
    ))
}

/// The serve layer's numbers for a workload that never uses the daemon:
/// one cold and one repeated submission of the smallest circuit.
pub fn probe(run: &mut Run) -> Result<(), String> {
    let dir = run.work.join("serve-probe");
    let (daemon, startup) = Daemon::start(&dir)?;
    run.startup_ms.push(ms(startup));
    let (_, cold) = timed_submit(run, &daemon.socket, "s27", true);
    let (_, hit) = timed_submit(run, &daemon.socket, "s27", true);
    let (cold, hit) = (cold?, hit?);
    run.check(!cold.hit && hit.hit && cold.report == hit.report, || {
        "serve probe: s27 was not computed once and then served from the cache".into()
    });
    run.check_digest(&["serve", "s27"], &cold.report);
    daemon.stop(run)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// The `serve.*` per-layer metrics, from the traced submissions' spans
/// and the daemons' `status` counters.
pub fn layer_metrics(run: &mut Run) -> Result<(), String> {
    let durations = |name: &str| -> Vec<f64> {
        run.tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    };
    let series = [
        ("serve.startup_ms", run.startup_ms.clone(), "ms"),
        ("serve.admit_ms_p50", durations("serve.admit"), "ms"),
        ("serve.exec_ms_p50", durations("serve.exec"), "ms"),
        ("serve.decode_ms_p50", durations("serve.decode"), "ms"),
        ("serve.response_bytes_p50", run.reply_bytes.clone(), "bytes"),
    ];
    for (name, samples, unit) in series {
        let value = stats::median(&samples).ok_or_else(|| format!("no samples for {name}"))?;
        run.put(name, value, unit, samples.len());
    }
    for name in COUNTERS {
        let value = run.counters.get(name).copied().unwrap_or(0);
        run.put(name, value as f64, "count", 1);
    }
    Ok(())
}
