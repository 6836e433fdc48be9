//! The `fires` CLI: run, resume and inspect FIRES campaigns — and host
//! or talk to a `fires serve` daemon.
//!
//! ```text
//! fires run     [--suite small|table2] [--circuit NAME]... [--name N]
//!               [--out DIR] [--threads N] [--deadline-ms MS]
//!               [--frames N] [--step-budget N] [--no-validate]
//!               [--retries N] [--backoff-ms MS] [--json] [chaos flags]
//! fires resume  <journal> [--threads N] [--deadline-ms MS]
//!               [--retries N] [--backoff-ms MS] [--json] [chaos flags]
//! fires status  <journal> [--json]
//! fires status  --socket PATH
//! fires watch   <journal> [--interval-ms MS] [--once] [--timeout-secs S]
//! fires watch   --remote JOB --socket PATH [--interval-ms MS]
//!               [--timeout-secs S]
//! fires report  <journal> [--json]
//! fires profile <report.json|journal> [--top K] [--folded PATH] [--json]
//! fires compare <baseline.json> <candidate.json>
//!               [--max-regress-pct P] [--skip-time]
//!               [--gate-time-hist-p95 HIST]... [--max-time-regress-pct P]
//! fires serve   --socket PATH --state-dir DIR [--server-workers N]
//!               [--cache-bytes N] [--max-queue N] [--tenant-active N]
//!               [--default-steps N] [--tenant-steps TENANT=N]...
//!               [--drain-timeout-secs S] [--flight-capacity N]
//!               [runner flags] [chaos flags] [serve chaos flags]
//! fires submit  --socket PATH (--suite S | --circuit NAME...)
//!               [--frames N] [--step-budget N] [--no-validate]
//!               [--tenant T] [--wait] [--interval-ms MS] [--out FILE]
//!               [--reconnect N]
//! fires health  --socket PATH [--ready]
//! fires metrics --socket PATH
//! fires debug-dump --socket PATH
//! fires shutdown --socket PATH [--drain]
//! ```
//!
//! `status` and `watch` summarise the journal itself (no engines are
//! built), through the same [`JournalSummary`] path, so they agree with
//! each other and stay cheap enough to poll against a live journal.
//! `watch` tail-follows the journal — including across a writer kill and
//! `fires resume` — and exits when the campaign completes. `compare`
//! diffs two `RunReport` JSON documents metric-by-metric and exits
//! nonzero when any cost metric regressed by more than the threshold:
//! the perf gate CI runs against a committed baseline. `profile` reads
//! the per-rule engine hotspot attribution out of a `RunReport` (or,
//! stem by stem, out of a journal) and renders the worst offenders —
//! `--folded` additionally writes folded stacks for `flamegraph.pl`,
//! inferno or speedscope.
//!
//! Chaos flags (deterministic fault injection for robustness testing)
//! all set one [`ChaosPlan`], parsed by one table-driven function.
//! `--chaos-seed N` enables the plan; every other chaos flag needs it.
//! `--chaos-panic P`, `--chaos-journal P` and `--chaos-delay P` set
//! per-mille fault rates, `--chaos-delay-ms MS` (default 2) bounds an
//! injected delay. `fires serve` additionally takes the service-site
//! rates: `--chaos-accept P`, `--chaos-read P`, `--chaos-write P`
//! (socket faults), `--chaos-stall P` + `--chaos-stall-ms MS` (client
//! stalls, default 20 ms), `--chaos-disk P` (injected ENOSPC on
//! cache/heartbeat writes) and `--chaos-wakeup-ms MS` (delayed worker
//! wakeups); `run` and `resume` reject them.
//!
//! `run` journals to `<out>/<name>.jsonl` and writes machine-readable
//! observability reports next to it (`<name>.report.json`, one
//! `RunReport` per task rolled up into a campaign-level aggregate).
//! After a crash or kill, `fires resume <journal>` completes exactly the
//! missing work and produces a byte-identical `fires report`.
//!
//! `serve` hosts the long-running campaign service (see `fires-serve`):
//! `submit` sends a campaign to it and — with `--wait` — streams
//! progress until the canonical report arrives (`--out` writes the
//! report bytes to a file; a repeat submission is answered from the
//! content-addressed cache with byte-identical output). `watch
//! --remote JOB` subscribes to a running job's progress stream, and
//! `status --socket` fetches the server's metrics as a
//! `RunReport`-compatible JSON document. `metrics --socket` scrapes
//! the same counters (plus the labeled tenant/job series) as a
//! Prometheus text exposition, and `debug-dump --socket` makes the
//! daemon write its event ring to a `flight-<ts>.jsonl`
//! under the state dir — the dump it would produce on a drain timeout
//! or panic.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use fires_jobs::{
    journal, report, resume, run, CampaignSpec, ChaosPlan, JournalSummary, RunSummary,
    RunnerConfig, Site,
};
use fires_obs::{
    compare_reports, CompareConfig, CompareOutcome, DeltaStatus, Json, RuleProfile, RunReport,
};
use fires_serve::{run_server, Connection, Request, Response, ServeConfig, SubmitRequest};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "resume" => cmd_resume(rest),
        "status" => cmd_status(rest),
        "watch" => cmd_watch(rest),
        "report" => cmd_report(rest),
        "profile" => cmd_profile(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "health" => cmd_health(rest),
        "metrics" => cmd_metrics(rest),
        "debug-dump" => cmd_debug_dump(rest),
        "shutdown" => cmd_shutdown(rest),
        "compare" => return cmd_compare(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fires: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  fires run     [--suite small|table2] [--circuit NAME]... [--name N]
                [--out DIR] [--threads N] [--deadline-ms MS]
                [--frames N] [--step-budget N] [--no-validate]
                [--retries N] [--backoff-ms MS] [--json] [chaos flags]
  fires resume  <journal> [--threads N] [--deadline-ms MS]
                [--retries N] [--backoff-ms MS] [--json] [chaos flags]
  fires status  <journal> [--json]
  fires status  --socket PATH
  fires watch   <journal> [--interval-ms MS] [--once] [--timeout-secs S]
  fires watch   --remote JOB --socket PATH [--interval-ms MS]
                [--timeout-secs S]
  fires report  <journal> [--json]
  fires profile <report.json|journal> [--top K] [--folded PATH] [--json]
  fires compare <baseline.json> <candidate.json>
                [--max-regress-pct P] [--skip-time]
                [--gate-time-hist-p95 HIST]... [--max-time-regress-pct P]
  fires serve   --socket PATH --state-dir DIR [--server-workers N]
                [--cache-bytes N] [--max-queue N] [--tenant-active N]
                [--default-steps N] [--tenant-steps TENANT=N]...
                [--drain-timeout-secs S] [--flight-capacity N]
                [runner flags] [chaos flags] [serve chaos flags]
  fires submit  --socket PATH (--suite S | --circuit NAME...)
                [--frames N] [--step-budget N] [--no-validate]
                [--tenant T] [--wait] [--interval-ms MS] [--out FILE]
                [--reconnect N]
  fires health  --socket PATH [--ready]
  fires metrics --socket PATH
  fires debug-dump --socket PATH
  fires shutdown --socket PATH [--drain]

chaos flags (deterministic fault injection; requires --chaos-seed):
  --chaos-seed N       seed of every injection decision
  --chaos-panic P      per-mille rate of injected unit panics
  --chaos-journal P    per-mille rate of injected journal IO errors
  --chaos-delay P      per-mille rate of injected unit delays
  --chaos-delay-ms MS  upper bound of an injected delay (default 2)

serve chaos flags (fires serve only; also need --chaos-seed):
  --chaos-accept P     per-mille rate of dropped accepted connections
  --chaos-read P       per-mille rate of abandoned request reads
  --chaos-write P      per-mille rate of failed response writes
  --chaos-stall P      per-mille rate of injected client stalls
  --chaos-stall-ms MS  duration of an injected stall (default 20)
  --chaos-disk P       per-mille rate of injected ENOSPC disk faults
  --chaos-wakeup-ms MS fixed delay on every worker wakeup";

/// Pulls `--flag VALUE` out of `args`, mutating the vector.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

/// Pulls a boolean `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_number<T: std::str::FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects a number, got {value:?}"))
}

/// Runner knobs shared by `run`, `resume` and `serve`. Only `serve`
/// takes the service-site chaos flags; `run` and `resume` leave them in
/// `args`, where they are rejected as unexpected.
fn runner_config(args: &mut Vec<String>, serve: bool) -> Result<RunnerConfig, String> {
    let mut rc = RunnerConfig::default();
    if let Some(threads) = take_value(args, "--threads")? {
        rc.threads = parse_number(&threads, "--threads")?;
    }
    if let Some(ms) = take_value(args, "--deadline-ms")? {
        rc.stem_deadline = Some(Duration::from_millis(parse_number(&ms, "--deadline-ms")?));
    }
    if let Some(n) = take_value(args, "--retries")? {
        rc.retries = parse_number(&n, "--retries")?;
    }
    if let Some(ms) = take_value(args, "--backoff-ms")? {
        rc.backoff = Duration::from_millis(parse_number(&ms, "--backoff-ms")?);
    }
    rc.chaos = chaos_plan(args, serve)?;
    Ok(rc)
}

/// What a `--chaos-*` flag sets: one site's per-mille rate, or a
/// duration in milliseconds.
#[derive(Clone, Copy)]
enum ChaosKnob {
    Rate(Site),
    MaxDelayMs,
    StallMs,
    WakeupMs,
}

/// Every `--chaos-*` flag but `--chaos-seed`: its name, whether only
/// `fires serve` takes it, and what it sets.
const CHAOS_FLAGS: [(&str, bool, ChaosKnob); 11] = [
    ("--chaos-panic", false, ChaosKnob::Rate(Site::UnitPanic)),
    ("--chaos-journal", false, ChaosKnob::Rate(Site::JournalIo)),
    ("--chaos-delay", false, ChaosKnob::Rate(Site::UnitDelay)),
    ("--chaos-delay-ms", false, ChaosKnob::MaxDelayMs),
    ("--chaos-accept", true, ChaosKnob::Rate(Site::Accept)),
    ("--chaos-read", true, ChaosKnob::Rate(Site::Read)),
    ("--chaos-write", true, ChaosKnob::Rate(Site::Write)),
    ("--chaos-stall", true, ChaosKnob::Rate(Site::Stall)),
    ("--chaos-stall-ms", true, ChaosKnob::StallMs),
    ("--chaos-disk", true, ChaosKnob::Rate(Site::Disk)),
    ("--chaos-wakeup-ms", true, ChaosKnob::WakeupMs),
];

/// Parses the chaos flags into one plan; `None` without `--chaos-seed`.
/// The service-site flags are taken only when `serve` is set.
fn chaos_plan(args: &mut Vec<String>, serve: bool) -> Result<Option<ChaosPlan>, String> {
    let seed = take_value(args, "--chaos-seed")?;
    let mut given = Vec::new();
    for (flag, serve_only, knob) in CHAOS_FLAGS {
        if serve || !serve_only {
            if let Some(value) = take_value(args, flag)? {
                given.push((flag, knob, value));
            }
        }
    }
    let Some(seed) = seed else {
        return match given.first() {
            Some((flag, ..)) => Err(format!("{flag} needs --chaos-seed")),
            None => Ok(None),
        };
    };
    let mut plan = ChaosPlan::new(parse_number(&seed, "--chaos-seed")?);
    // The defaults of --chaos-delay-ms and --chaos-stall-ms.
    plan.max_delay_ms = 2;
    plan.stall_ms = 20;
    for (flag, knob, value) in given {
        let value = parse_number(&value, flag)?;
        match knob {
            ChaosKnob::Rate(site) => plan = plan.with_rate(site, value),
            ChaosKnob::MaxDelayMs => plan.max_delay_ms = value,
            ChaosKnob::StallMs => plan.stall_ms = value,
            ChaosKnob::WakeupMs => plan.wakeup_ms = value,
        }
    }
    Ok(Some(plan))
}

/// Writes to stdout without panicking when the reader hangs up
/// (`fires report | head`, `| grep -q`): a closed pipe means the
/// consumer has all it wants, so exit cleanly instead.
fn emit(text: impl std::fmt::Display) -> Result<(), String> {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    match write!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(format!("stdout: {e}")),
    }
}

fn emitln(text: impl std::fmt::Display) -> Result<(), String> {
    emit(format_args!("{text}\n"))
}

fn reject_leftovers(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(a) => Err(format!("unexpected argument {a:?}\n{USAGE}")),
        None => Ok(()),
    }
}

fn print_summary(summary: &RunSummary, journal: &Path) -> Result<(), String> {
    emitln(format_args!(
        "{} unit(s) executed, {} skipped (already journaled), {} panicked, {} timed out, {} exhausted, {} retry attempt(s), {} remaining",
        summary.executed,
        summary.skipped,
        summary.panicked,
        summary.timed_out,
        summary.exhausted,
        summary.retried,
        summary.remaining
    ))?;
    if summary.complete() {
        emitln(format_args!(
            "campaign complete; journal: {}",
            journal.display()
        ))
    } else {
        emitln(format_args!(
            "campaign INCOMPLETE; continue with: fires resume {}",
            journal.display()
        ))
    }
}

/// Prints the merged report and writes the observability rollup next to
/// the journal.
fn finish(journal: &Path, json: bool) -> Result<(), String> {
    let merged = report(journal).map_err(|e| e.to_string())?;
    if json {
        emitln(merged.canonical_text())?;
    } else {
        emit(merged.render_table())?;
    }
    let (_, campaign) = merged.run_reports();
    let report_path = journal.with_extension("report.json");
    campaign
        .write_to_file(&report_path)
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    emitln(format_args!(
        "observability report: {}",
        report_path.display()
    ))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let rc = runner_config(&mut args, false)?;
    let json = take_flag(&mut args, "--json");
    let suite = take_value(&mut args, "--suite")?;
    let out = take_value(&mut args, "--out")?.unwrap_or_else(|| "fires-out".into());
    let name = take_value(&mut args, "--name")?;
    let frames = take_value(&mut args, "--frames")?;
    let step_budget = take_value(&mut args, "--step-budget")?;
    let no_validate = take_flag(&mut args, "--no-validate");
    let mut circuits = Vec::new();
    while let Some(c) = take_value(&mut args, "--circuit")? {
        circuits.push(c);
    }
    reject_leftovers(&args)?;

    let mut spec = match (suite, circuits.is_empty()) {
        (Some(s), true) => CampaignSpec::suite(&s).map_err(|e| e.to_string())?,
        (None, false) => {
            CampaignSpec::from_circuits(name.clone().unwrap_or_else(|| "custom".into()), circuits)
        }
        (Some(_), false) => return Err("--suite and --circuit are mutually exclusive".into()),
        (None, true) => {
            return Err("nothing to run: pass --suite or --circuit\n".to_string() + USAGE)
        }
    };
    if let Some(n) = name {
        spec.name = n;
    }
    if let Some(frames) = frames {
        let frames: usize = parse_number(&frames, "--frames")?;
        for t in &mut spec.tasks {
            t.frames = Some(frames);
        }
    }
    if let Some(steps) = step_budget {
        let steps: u64 = parse_number(&steps, "--step-budget")?;
        for t in &mut spec.tasks {
            t.step_budget = Some(steps);
        }
    }
    if no_validate {
        for t in &mut spec.tasks {
            t.validate = false;
        }
    }

    let out_dir = PathBuf::from(out);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let journal = out_dir.join(format!("{}.jsonl", spec.name));
    let summary = run(&spec, &journal, &rc).map_err(|e| e.to_string())?;
    print_summary(&summary, &journal)?;
    finish(&journal, json)
}

fn journal_arg(args: &mut Vec<String>) -> Result<PathBuf, String> {
    if args.is_empty() {
        return Err(format!("missing <journal> argument\n{USAGE}"));
    }
    Ok(PathBuf::from(args.remove(0)))
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let rc = runner_config(&mut args, false)?;
    let json = take_flag(&mut args, "--json");
    let journal = journal_arg(&mut args)?;
    reject_leftovers(&args)?;
    let summary = resume(&journal, &rc).map_err(|e| e.to_string())?;
    print_summary(&summary, &journal)?;
    finish(&journal, json)
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let json = take_flag(&mut args, "--json");
    if let Some(socket) = take_value(&mut args, "--socket")? {
        reject_leftovers(&args)?;
        // Server status: metrics in RunReport-compatible JSON.
        return match Connection::request(Path::new(&socket), &Request::Status)? {
            Response::Status { report } => emitln(report.to_pretty()),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response: {:?}", other.to_json())),
        };
    }
    let journal_path = journal_arg(&mut args)?;
    reject_leftovers(&args)?;
    let contents = journal::read(&journal_path).map_err(|e| e.to_string())?;
    let summary = JournalSummary::summarize(&contents);
    if json {
        emitln(summary.to_json().to_pretty())
    } else {
        emit(summary.render_table())
    }
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    use std::io::IsTerminal;
    let mut args = args.to_vec();
    let once = take_flag(&mut args, "--once");
    let interval = match take_value(&mut args, "--interval-ms")? {
        Some(ms) => Duration::from_millis(parse_number(&ms, "--interval-ms")?),
        None => Duration::from_millis(1000),
    };
    // A stalled journal (dead writer, abandoned campaign) would hang a
    // watcher forever; --timeout-secs bounds the wait so CI and
    // detached watchers always terminate.
    let timeout = match take_value(&mut args, "--timeout-secs")? {
        Some(s) => Some(Duration::from_secs(parse_number(&s, "--timeout-secs")?)),
        None => None,
    };
    if let Some(job) = take_value(&mut args, "--remote")? {
        let socket =
            take_value(&mut args, "--socket")?.ok_or("watch --remote needs --socket PATH")?;
        reject_leftovers(&args)?;
        return watch_remote(Path::new(&socket), &job, interval, timeout);
    }
    let journal_path = journal_arg(&mut args)?;
    reject_leftovers(&args)?;
    // The timeout bounds *stall*, not total runtime: any growth of the
    // journal file (unit completions, but also progress heartbeats)
    // pushes the deadline out, so a slow-but-alive campaign is never
    // killed while a wedged one still times out.
    let mut deadline = timeout.map(|t| std::time::Instant::now() + t);
    let mut last_len: u64 = 0;

    // On a terminal each frame repaints in place; piped output gets one
    // frame per poll, newline-separated, for `fires watch | tee log`.
    let live = std::io::stdout().is_terminal();
    loop {
        // A missing or still-headerless journal is a *waiting* state,
        // not an error: the watcher may outpace `fires run` creating the
        // file, and a killed writer leaves a torn tail that read()
        // already tolerates.
        let frame = match journal::read(&journal_path) {
            Ok(contents) => {
                let summary = JournalSummary::summarize(&contents);
                let frame = summary.render_watch();
                if summary.complete() {
                    if live {
                        emit(format_args!("\u{1b}[2J\u{1b}[H{frame}"))?;
                    } else {
                        emitln(&frame)?;
                    }
                    return Ok(());
                }
                frame
            }
            Err(e) => format!("waiting for journal {}: {e}\n", journal_path.display()),
        };
        if live {
            emit(format_args!("\u{1b}[2J\u{1b}[H{frame}"))?;
        } else {
            emitln(&frame)?;
        }
        if once {
            return Ok(());
        }
        let len = std::fs::metadata(&journal_path).map_or(0, |m| m.len());
        if len != last_len {
            last_len = len;
            deadline = timeout.map(|t| std::time::Instant::now() + t);
        }
        if let Some(d) = deadline {
            if std::time::Instant::now() >= d {
                return Err(format!(
                    "watch timed out after {}s; campaign incomplete",
                    timeout.map_or(0, |t| t.as_secs())
                ));
            }
        }
        std::thread::sleep(interval);
    }
}

/// `fires watch --remote JOB`: subscribe to a server job's progress
/// stream, one compact `JournalSummary` JSON line per event, until the
/// job completes (or the timeout elapses — checked between events, so
/// its granularity is the progress interval).
fn watch_remote(
    socket: &Path,
    job: &str,
    interval: Duration,
    timeout: Option<Duration>,
) -> Result<(), String> {
    // Stall detection, not a total-runtime cap: any *changed* progress
    // frame (heartbeats bump elapsed_seconds even when no unit
    // finished) resets the deadline, so only a genuinely silent or
    // frozen stream times out.
    let mut deadline = timeout.map(|t| std::time::Instant::now() + t);
    let mut last_frame = String::new();
    let mut conn = Connection::open(socket)?;
    conn.send(&Request::Watch {
        job: job.to_string(),
        interval_ms: interval.as_millis() as u64,
    })?;
    loop {
        if let Some(d) = deadline {
            if std::time::Instant::now() >= d {
                return Err(format!(
                    "watch timed out after {}s; job incomplete",
                    timeout.map_or(0, |t| t.as_secs())
                ));
            }
        }
        match conn.recv()? {
            None => return Err("server closed the connection before the job completed".into()),
            Some(Response::Progress {
                summary, coalesced, ..
            }) => {
                let frame = summary.to_compact();
                // Stall detection compares the summary frame alone: a
                // rising coalesced count means frames were *dropped*,
                // not that the job progressed.
                if frame != last_frame {
                    last_frame = frame.clone();
                    deadline = timeout.map(|t| std::time::Instant::now() + t);
                }
                if coalesced > 0 {
                    emitln(format_args!("{frame} coalesced: {coalesced}"))?;
                } else {
                    emitln(frame)?;
                }
            }
            Some(Response::Done { job, .. }) => {
                return emitln(format_args!("job {job} complete"));
            }
            Some(Response::Draining { reason }) => {
                return Err(format!("server draining: {reason}"));
            }
            Some(Response::Error { message }) => return Err(message),
            Some(other) => return Err(format!("unexpected response: {:?}", other.to_json())),
        }
    }
}

/// Loads one `RunReport` JSON document (as written by `fires run` and
/// the bench binaries).
fn load_report(path: &Path) -> Result<RunReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    RunReport::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One per-stem row behind `fires profile <journal>`.
struct StemProfile {
    label: String,
    seconds: f64,
    profile: RuleProfile,
}

/// What `fires profile` loaded: the merged attribution table plus (for
/// journal input) the per-stem rows it was merged from.
struct ProfileSource {
    subject: String,
    merged: RuleProfile,
    stems: Vec<StemProfile>,
}

/// Accepts either a `RunReport` JSON document or a campaign journal.
/// The two are told apart by parsing, not by file extension: a report
/// is one JSON object, a journal is JSONL with a header line.
fn load_profile_source(path: &Path) -> Result<ProfileSource, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Ok(report) = RunReport::from_json_str(&text) {
        let merged = report.profile.ok_or_else(|| {
            format!(
                "{}: report carries no profile (written by an untraced build?)",
                path.display()
            )
        })?;
        return Ok(ProfileSource {
            subject: report.subject,
            merged,
            stems: Vec::new(),
        });
    }
    let contents = journal::read(path).map_err(|e| {
        format!(
            "{}: neither a RunReport document nor a readable journal ({e})",
            path.display()
        )
    })?;
    let mut merged = RuleProfile::new();
    let mut stems = Vec::new();
    for u in &contents.units {
        let Some(p) = &u.profile else { continue };
        let task = contents
            .header
            .tasks
            .get(u.task)
            .map_or("?", |t| t.circuit.as_str());
        merged.merge(p);
        stems.push(StemProfile {
            label: format!("{task}/stem{}", u.stem),
            seconds: u.seconds,
            profile: p.clone(),
        });
    }
    if stems.is_empty() {
        return Err(format!(
            "{}: no unit in this journal carries a profile (untraced build?)",
            path.display()
        ));
    }
    Ok(ProfileSource {
        subject: contents.header.spec.name.clone(),
        merged,
        stems,
    })
}

/// The `top` slowest journal units, worst first (ties broken by label so
/// the listing is deterministic), each with its dominant rule and that
/// rule's share of the unit's steps.
fn worst_stem_rows(
    source: &ProfileSource,
    top: usize,
) -> Vec<(&StemProfile, Option<(String, f64)>)> {
    let mut rows: Vec<&StemProfile> = source.stems.iter().collect();
    rows.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then_with(|| a.label.cmp(&b.label))
    });
    rows.truncate(top);
    rows.into_iter()
        .map(|s| {
            let dominant =
                s.profile
                    .entries()
                    .max_by_key(|&(_, steps, _)| steps)
                    .map(|(rule, steps, _)| {
                        (
                            rule.name(),
                            steps as f64 * 100.0 / s.profile.total_steps().max(1) as f64,
                        )
                    });
            (s, dominant)
        })
        .collect()
}

/// Folded stacks for the whole source: per stem when the input was a
/// journal, one merged stack per rule when it was a report.
fn folded_stacks(source: &ProfileSource) -> String {
    if source.stems.is_empty() {
        return source.merged.folded_lines(&source.subject);
    }
    let mut out = String::new();
    for s in &source.stems {
        out.push_str(&s.profile.folded_lines(&s.label));
    }
    out
}

/// Renders nanoseconds with a readable unit.
fn fmt_nanos(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}\u{b5}s", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The human-readable hotspot table behind `fires profile`.
fn render_profile(source: &ProfileSource, top: usize) -> String {
    use std::fmt::Write;
    let p = &source.merged;
    let mut out = String::new();
    let _ = writeln!(out, "hotspot profile: {}", source.subject);
    let _ = writeln!(
        out,
        "{:<52} {:>12} {:>7} {:>10} {:>7}",
        "rule", "steps", "steps%", "time", "time%"
    );
    let mut rows: Vec<_> = p.entries().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.index().cmp(&b.0.index())));
    let total_steps = p.total_steps().max(1);
    let total_nanos = p.total_nanos().max(1);
    for (rule, steps, nanos) in rows {
        let _ = writeln!(
            out,
            "{:<52} {:>12} {:>6.1}% {:>10} {:>6.1}%",
            rule.name(),
            steps,
            steps as f64 * 100.0 / total_steps as f64,
            fmt_nanos(nanos),
            nanos as f64 * 100.0 / total_nanos as f64,
        );
    }
    if p.unattributed_steps() > 0 {
        let _ = writeln!(
            out,
            "{:<52} {:>12} {:>6.1}%",
            "(unattributed)",
            p.unattributed_steps(),
            p.unattributed_steps() as f64 * 100.0 / total_steps as f64,
        );
    }
    let _ = writeln!(
        out,
        "attribution: {}/{} step(s) named ({:.1}%)",
        p.attributed_steps(),
        p.total_steps(),
        p.attributed_steps() as f64 * 100.0 / total_steps as f64,
    );
    match p.dist_hit_rate() {
        Some(rate) => {
            let _ = writeln!(
                out,
                "dist cache: {} hit(s), {} miss(es) ({:.1}% hit rate)",
                p.dist_hits(),
                p.dist_misses(),
                rate * 100.0,
            );
        }
        None => {
            let _ = writeln!(out, "dist cache: no lookups recorded");
        }
    }
    let worst = worst_stem_rows(source, top);
    if !worst.is_empty() {
        let _ = writeln!(out, "worst {} stem(s) by wall-clock:", worst.len());
        for (s, dominant) in worst {
            let _ = writeln!(
                out,
                "  {:<24} {:>10} {:>12} step(s)  {}",
                s.label,
                fmt_nanos((s.seconds * 1e9) as u64),
                s.profile.total_steps(),
                match dominant {
                    Some((name, pct)) => format!("dominant: {name} ({pct:.0}%)"),
                    None => "dominant: (none attributed)".into(),
                },
            );
        }
    }
    out
}

/// The machine-readable form behind `fires profile --json`.
fn profile_json(source: &ProfileSource, top: usize) -> Json {
    let mut j = Json::object();
    j.set("subject", source.subject.clone())
        .set("profile", source.merged.to_json());
    let worst = worst_stem_rows(source, top);
    if !worst.is_empty() {
        let rows: Vec<Json> = worst
            .into_iter()
            .map(|(s, dominant)| {
                let mut e = Json::object();
                e.set("stem", s.label.clone())
                    .set("seconds", s.seconds)
                    .set("steps", s.profile.total_steps());
                if let Some((name, pct)) = dominant {
                    e.set("dominant_rule", name).set("dominant_pct", pct);
                }
                e
            })
            .collect();
        j.set("worst_stems", Json::Arr(rows));
    }
    j
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let json = take_flag(&mut args, "--json");
    let top = match take_value(&mut args, "--top")? {
        Some(k) => parse_number(&k, "--top")?,
        None => 10usize,
    };
    let folded = take_value(&mut args, "--folded")?;
    if args.is_empty() {
        return Err(format!("missing <report.json|journal> argument\n{USAGE}"));
    }
    let path = PathBuf::from(args.remove(0));
    reject_leftovers(&args)?;
    let source = load_profile_source(&path)?;
    if let Some(folded_path) = folded {
        let stacks = folded_stacks(&source);
        std::fs::write(&folded_path, &stacks).map_err(|e| format!("{folded_path}: {e}"))?;
        emitln(format_args!(
            "folded stacks: {folded_path} ({} line(s))",
            stacks.lines().count()
        ))?;
    }
    if json {
        emitln(profile_json(&source, top).to_pretty())
    } else {
        emit(render_profile(&source, top))
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    match run_compare(args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fires: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Diffs two report documents; returns the regression count.
fn run_compare(args: &[String]) -> Result<usize, String> {
    let mut args = args.to_vec();
    let mut config = CompareConfig::default();
    if let Some(p) = take_value(&mut args, "--max-regress-pct")? {
        config.max_regress_pct = parse_number(&p, "--max-regress-pct")?;
    }
    if take_flag(&mut args, "--skip-time") {
        config.include_time = false;
    }
    // Repeatable: each occurrence gates one histogram's p95 through
    // --skip-time at the (looser) time threshold.
    while let Some(h) = take_value(&mut args, "--gate-time-hist-p95")? {
        config.gated_time_hists.push(h);
    }
    if let Some(p) = take_value(&mut args, "--max-time-regress-pct")? {
        config.max_time_regress_pct = parse_number(&p, "--max-time-regress-pct")?;
    }
    if args.len() != 2 {
        return Err(format!(
            "compare needs exactly <baseline.json> <candidate.json>\n{USAGE}"
        ));
    }
    let baseline = load_report(Path::new(&args[0]))?;
    let candidate = load_report(Path::new(&args[1]))?;
    let outcome = compare_reports(&baseline, &candidate, &config);

    if outcome.subject_mismatch {
        emitln(format_args!(
            "warning: reports describe different subjects ({:?} vs {:?})",
            baseline.subject, candidate.subject
        ))?;
    }
    emit(render_compare(&outcome, &config))?;
    Ok(outcome.regressions())
}

/// Renders a comparison: the per-metric table, then one grouped listing
/// per movement class (each sorted by metric name, so two runs of the
/// gate diff cleanly), then the summary line. Pure so the golden-output
/// test can hold the format.
fn render_compare(outcome: &CompareOutcome, config: &CompareConfig) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>14} {:>14} {:>9} verdict",
        "metric", "baseline", "candidate", "delta"
    );
    for d in &outcome.deltas {
        let fmt_value = |v: Option<f64>| match v {
            Some(v) => format!("{v:.6}")
                .trim_end_matches('0')
                .trim_end_matches('.')
                .to_string(),
            None => "-".into(),
        };
        let _ = writeln!(
            out,
            "{:<44} {:>14} {:>14} {:>9} {}",
            d.name,
            fmt_value(d.baseline),
            fmt_value(d.candidate),
            match d.pct {
                Some(pct) => format!("{pct:+.1}%"),
                None => "-".into(),
            },
            d.status.label(),
        );
    }
    for (status, heading) in [
        (DeltaStatus::Regressed, "REGRESSED"),
        (DeltaStatus::Improved, "improved"),
        (DeltaStatus::New, "new"),
        (DeltaStatus::Gone, "gone"),
    ] {
        let mut names: Vec<&str> = outcome
            .deltas
            .iter()
            .filter(|d| d.status == status)
            .map(|d| d.name.as_str())
            .collect();
        if names.is_empty() {
            continue;
        }
        names.sort_unstable();
        let _ = writeln!(out, "{heading} ({}): {}", names.len(), names.join(", "));
    }
    let time_note = if config.include_time {
        String::new()
    } else if config.gated_time_hists.is_empty() {
        "; time metrics skipped".into()
    } else {
        format!(
            "; time metrics skipped except {} p95 (threshold {:.1}%)",
            config.gated_time_hists.join(", "),
            config.max_time_regress_pct
        )
    };
    let _ = writeln!(
        out,
        "{} metric(s) compared, {} regressed (threshold {:.1}%{})",
        outcome.compared(),
        outcome.regressions(),
        config.max_regress_pct,
        time_note,
    );
    out
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let json = take_flag(&mut args, "--json");
    let journal = journal_arg(&mut args)?;
    reject_leftovers(&args)?;
    let merged = report(&journal).map_err(|e| e.to_string())?;
    if json {
        emitln(merged.canonical_text())?;
    } else {
        emit(merged.render_table())?;
        for t in &merged.tasks {
            for name in &t.fault_names {
                emitln(format_args!("  {}: {name}", t.name))?;
            }
        }
    }
    Ok(())
}

/// `fires serve`: host the campaign service until a shutdown request
/// or SIGTERM (which starts a graceful drain).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let rc = runner_config(&mut args, true)?;
    let socket = take_value(&mut args, "--socket")?.ok_or("serve needs --socket PATH")?;
    let state_dir = take_value(&mut args, "--state-dir")?.ok_or("serve needs --state-dir DIR")?;
    let mut cfg = ServeConfig::new(socket, state_dir);
    cfg.runner = RunnerConfig {
        // Journaled heartbeats feed the progress stream's throughput
        // and ETA lines; keep them on unless the operator overrides.
        progress_interval: Some(Duration::from_millis(500)),
        ..rc
    };
    if let Some(secs) = take_value(&mut args, "--drain-timeout-secs")? {
        cfg.drain_timeout = Duration::from_secs(parse_number(&secs, "--drain-timeout-secs")?);
    }
    if let Some(n) = take_value(&mut args, "--server-workers")? {
        cfg.workers = parse_number(&n, "--server-workers")?;
    }
    if let Some(n) = take_value(&mut args, "--cache-bytes")? {
        cfg.cache_bytes = parse_number(&n, "--cache-bytes")?;
    }
    if let Some(n) = take_value(&mut args, "--max-queue")? {
        cfg.max_queue = parse_number(&n, "--max-queue")?;
    }
    if let Some(n) = take_value(&mut args, "--tenant-active")? {
        cfg.tenant_active = parse_number(&n, "--tenant-active")?;
    }
    if let Some(n) = take_value(&mut args, "--flight-capacity")? {
        cfg.flight_capacity = parse_number(&n, "--flight-capacity")?;
    }
    if let Some(n) = take_value(&mut args, "--default-steps")? {
        cfg.default_steps = Some(parse_number(&n, "--default-steps")?);
    }
    while let Some(pair) = take_value(&mut args, "--tenant-steps")? {
        let (tenant, steps) = pair
            .split_once('=')
            .ok_or_else(|| format!("--tenant-steps expects TENANT=STEPS, got {pair:?}"))?;
        cfg.tenant_steps
            .push((tenant.to_string(), parse_number(steps, "--tenant-steps")?));
    }
    // Test hook (used by the kill/resume and single-flight suites to
    // make races deterministic); not part of the stable interface.
    if let Some(ms) = take_value(&mut args, "--build-delay-ms")? {
        cfg.build_delay = Some(Duration::from_millis(parse_number(
            &ms,
            "--build-delay-ms",
        )?));
    }
    reject_leftovers(&args)?;
    run_server(cfg)
}

/// `fires submit`: send one campaign to a server; with `--wait`, stream
/// progress and write the canonical report.
///
/// `--reconnect N` (default 5) bounds recovery from a daemon restart
/// mid-stream: on EOF or a `draining` notice the client backs off
/// (100 ms doubling to 2 s) and re-submits. Re-submitting is safe
/// because jobs are content-addressed — the retry attaches to the
/// single-flight execution, resumes the checkpointed journal, or hits
/// the cache, and the report bytes are identical in every case. The
/// retry budget resets whenever a response actually arrives, so N
/// bounds *consecutive* failures, not the life of a long stream.
fn cmd_submit(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let socket = take_value(&mut args, "--socket")?.ok_or("submit needs --socket PATH")?;
    let out = take_value(&mut args, "--out")?;
    let reconnect: u32 = match take_value(&mut args, "--reconnect")? {
        Some(n) => parse_number(&n, "--reconnect")?,
        None => 5,
    };
    let mut req = SubmitRequest {
        suite: take_value(&mut args, "--suite")?,
        wait: take_flag(&mut args, "--wait"),
        validate: !take_flag(&mut args, "--no-validate"),
        ..SubmitRequest::default()
    };
    if let Some(t) = take_value(&mut args, "--tenant")? {
        req.tenant = t;
    }
    while let Some(c) = take_value(&mut args, "--circuit")? {
        req.circuits.push(c);
    }
    if let Some(f) = take_value(&mut args, "--frames")? {
        req.frames = Some(parse_number(&f, "--frames")?);
    }
    if let Some(s) = take_value(&mut args, "--step-budget")? {
        req.step_budget = Some(parse_number(&s, "--step-budget")?);
    }
    if let Some(ms) = take_value(&mut args, "--interval-ms")? {
        req.interval_ms = parse_number(&ms, "--interval-ms")?;
    }
    reject_leftovers(&args)?;
    if out.is_some() && !req.wait {
        return Err("--out needs --wait (no report arrives without waiting)".into());
    }

    let deliver = |report: &str| -> Result<(), String> {
        match &out {
            Some(path) => {
                std::fs::write(path, report).map_err(|e| format!("{path}: {e}"))?;
                emitln(format_args!("report: {path}"))
            }
            None => emitln(report),
        }
    };
    let wait = req.wait;
    let socket = Path::new(&socket);
    // Retry budget for the whole exchange; refilled on every received
    // response, spent on EOF/draining gaps.
    let mut attempts_left = reconnect;
    let mut backoff = Duration::from_millis(100);
    let mut announced = false;
    // One reconnect attempt per iteration of the outer loop.
    'reconnect: loop {
        let mut conn = Connection::open_with_retry(socket, attempts_left)?;
        conn.send(&Request::Submit(req.clone()))?;
        loop {
            let received = match conn.recv() {
                Ok(r) => r,
                Err(e) if wait && attempts_left > 0 => {
                    attempts_left -= 1;
                    emitln(format_args!("connection lost ({e}); reconnecting"))?;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_secs(2));
                    continue 'reconnect;
                }
                Err(e) => return Err(e),
            };
            match received {
                None => {
                    if wait && attempts_left > 0 {
                        attempts_left -= 1;
                        emitln("connection lost; reconnecting")?;
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(2));
                        continue 'reconnect;
                    }
                    return Err("server closed the connection unexpectedly".into());
                }
                Some(Response::Hit { job, report }) => {
                    emitln(format_args!("job {job}: cache hit"))?;
                    return deliver(&report);
                }
                Some(Response::Accepted { job }) => {
                    // Print once even when a reconnect re-attaches.
                    if !announced {
                        emitln(format_args!("job {job} accepted"))?;
                        announced = true;
                    }
                    if !wait {
                        return Ok(());
                    }
                    attempts_left = reconnect;
                    backoff = Duration::from_millis(100);
                }
                Some(Response::Progress { summary, .. }) => {
                    emitln(format_args!("progress {}", summary.to_compact()))?;
                    attempts_left = reconnect;
                    backoff = Duration::from_millis(100);
                }
                Some(Response::Done { job, report }) => {
                    emitln(format_args!("job {job}: computed"))?;
                    return deliver(&report);
                }
                Some(Response::Draining { reason }) => {
                    // The daemon is restarting; the job (if admitted)
                    // is checkpointed. Back off and re-submit against
                    // the next incarnation.
                    if attempts_left > 0 {
                        attempts_left -= 1;
                        emitln(format_args!("server draining; retrying: {reason}"))?;
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_secs(2));
                        continue 'reconnect;
                    }
                    return Err(format!("server draining: {reason}"));
                }
                Some(Response::Rejected { reason }) => return Err(format!("rejected: {reason}")),
                Some(Response::Error { message }) => return Err(message),
                Some(other) => return Err(format!("unexpected response: {:?}", other.to_json())),
            }
        }
    }
}

/// `fires health`: liveness (default) or readiness (`--ready`) probe.
/// Exits nonzero when the daemon is unreachable or not ready, so the
/// command slots directly into scripts and supervisors.
fn cmd_health(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let socket = take_value(&mut args, "--socket")?.ok_or("health needs --socket PATH")?;
    let ready = take_flag(&mut args, "--ready");
    reject_leftovers(&args)?;
    if ready {
        return match Connection::request(Path::new(&socket), &Request::Ready)? {
            Response::Ready { ready: true, .. } => emitln("ready"),
            Response::Ready {
                ready: false,
                reason,
            } => Err(format!("not ready: {reason}")),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected response: {:?}", other.to_json())),
        };
    }
    match Connection::request(Path::new(&socket), &Request::Health)? {
        Response::Health { report } => emitln(report.to_pretty()),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response: {:?}", other.to_json())),
    }
}

/// `fires metrics`: scrape the server's Prometheus text exposition —
/// the flat counters `fires status --socket` reports, plus the labeled
/// per-tenant/per-job series and process gauges.
fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let socket = take_value(&mut args, "--socket")?.ok_or("metrics needs --socket PATH")?;
    reject_leftovers(&args)?;
    match Connection::request(Path::new(&socket), &Request::Metrics)? {
        Response::Metrics { text } => emit(text),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response: {:?}", other.to_json())),
    }
}

/// `fires debug-dump`: ask the server to write its event ring
/// to a `flight-<ts>.jsonl` file under the state dir, on demand — the
/// same dump a drain timeout, quarantine, or panic produces.
fn cmd_debug_dump(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let socket = take_value(&mut args, "--socket")?.ok_or("debug-dump needs --socket PATH")?;
    reject_leftovers(&args)?;
    match Connection::request(Path::new(&socket), &Request::DebugDump)? {
        Response::Dumped { path, events } => emitln(format_args!(
            "flight dump written: {path} ({events} event(s))"
        )),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response: {:?}", other.to_json())),
    }
}

/// `fires shutdown`: stop a server — immediately by default, or with
/// `--drain` gracefully (admission closes, in-flight jobs checkpoint,
/// subscribers are flushed, exit within the server's drain timeout).
fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let socket = take_value(&mut args, "--socket")?.ok_or("shutdown needs --socket PATH")?;
    let drain = take_flag(&mut args, "--drain");
    reject_leftovers(&args)?;
    match Connection::request(Path::new(&socket), &Request::Shutdown { drain })? {
        Response::Ok => emitln(if drain {
            "server draining"
        } else {
            "server shutting down"
        }),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response: {:?}", other.to_json())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fires_obs::MetricDelta;

    /// Holds the exact `fires compare` output shape: fixed-width rows in
    /// name order, then one name-sorted listing per movement class, then
    /// the summary. A format change must update this golden on purpose.
    #[test]
    fn compare_rendering_is_golden() {
        let mut base = RunReport::new("fires-bench/table2", "s27");
        base.total_seconds = 2.0;
        base.metrics.incr("aa.bottom", 10);
        base.metrics.incr("core.marks_created", 100);
        base.metrics.incr("core.steps", 1_000);
        base.metrics.incr("gone.counter", 5);
        base.metrics.incr("zz.top", 10);
        let mut cand = RunReport::new("fires-bench/table2", "s27");
        cand.total_seconds = 1.0;
        cand.metrics.incr("aa.bottom", 20);
        cand.metrics.incr("brand.new", 3);
        cand.metrics.incr("core.marks_created", 150);
        cand.metrics.incr("core.steps", 900);
        cand.metrics.incr("zz.top", 20);
        let config = CompareConfig {
            max_regress_pct: 10.0,
            include_time: false,
            ..CompareConfig::default()
        };
        let outcome = compare_reports(&base, &cand, &config);
        let expected = "\
metric                                             baseline      candidate     delta verdict
counter.aa.bottom                                        10             20   +100.0% REGRESSED
counter.brand.new                                         -              3         - new
counter.core.marks_created                              100            150    +50.0% REGRESSED
counter.core.steps                                     1000            900    -10.0% improved
counter.gone.counter                                      5              -         - gone
counter.zz.top                                           10             20   +100.0% REGRESSED
total_seconds                                             2              1         - skipped (time)
REGRESSED (3): counter.aa.bottom, counter.core.marks_created, counter.zz.top
improved (1): counter.core.steps
new (1): counter.brand.new
gone (1): counter.gone.counter
4 metric(s) compared, 3 regressed (threshold 10.0%; time metrics skipped)
";
        assert_eq!(render_compare(&outcome, &config), expected);
    }

    /// With a gated time histogram the summary names the exception and
    /// its threshold; without one the wording is unchanged (held by the
    /// golden test above).
    #[test]
    fn compare_summary_names_gated_time_hists() {
        let mut base = RunReport::new("fires-bench/table2", "s27");
        base.metrics.observe("core.stem_micros", 100);
        let mut cand = RunReport::new("fires-bench/table2", "s27");
        cand.metrics.observe("core.stem_micros", 120);
        let config = CompareConfig {
            include_time: false,
            gated_time_hists: vec!["core.stem_micros".into()],
            max_time_regress_pct: 200.0,
            ..CompareConfig::default()
        };
        let outcome = compare_reports(&base, &cand, &config);
        let rendered = render_compare(&outcome, &config);
        assert!(
            rendered
                .contains("time metrics skipped except core.stem_micros p95 (threshold 200.0%)"),
            "{rendered}"
        );
        assert!(rendered.contains("hist.core.stem_micros.p95"), "{rendered}");
    }

    /// Movement listings are name-sorted even if the delta order ever
    /// changes upstream.
    #[test]
    fn compare_listings_are_name_sorted() {
        let outcome = CompareOutcome {
            deltas: vec![
                MetricDelta {
                    name: "counter.zeta".into(),
                    baseline: Some(1.0),
                    candidate: Some(2.0),
                    pct: Some(100.0),
                    status: DeltaStatus::Regressed,
                },
                MetricDelta {
                    name: "counter.alpha".into(),
                    baseline: Some(1.0),
                    candidate: Some(2.0),
                    pct: Some(100.0),
                    status: DeltaStatus::Regressed,
                },
            ],
            subject_mismatch: false,
        };
        let rendered = render_compare(&outcome, &CompareConfig::default());
        assert!(
            rendered.contains("REGRESSED (2): counter.alpha, counter.zeta"),
            "{rendered}"
        );
    }

    /// Every `--chaos-*` flag lands in one plan with the CLI's duration
    /// defaults; `run`/`resume` leave the service-site flags behind.
    #[test]
    fn chaos_flags_parse_into_one_plan() {
        let strings = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let given = [
            "--chaos-seed",
            "7",
            "--chaos-delay",
            "5",
            "--chaos-accept",
            "3",
            "x",
        ];

        let mut args = strings(&given);
        let plan = chaos_plan(&mut args, false).unwrap().unwrap();
        assert_eq!(args, strings(&["--chaos-accept", "3", "x"]));
        let mut want = ChaosPlan::new(7).with_delays(5, 2);
        want.stall_ms = 20;
        assert_eq!(plan, want);

        let mut args = strings(&given);
        let plan = chaos_plan(&mut args, true).unwrap().unwrap();
        assert_eq!(args, strings(&["x"]));
        assert_eq!(plan, want.with_rate(Site::Accept, 3));

        assert_eq!(chaos_plan(&mut strings(&["x"]), true), Ok(None));
        let unseeded = chaos_plan(&mut strings(&["--chaos-wakeup-ms", "1"]), true);
        assert!(unseeded.unwrap_err().contains("--chaos-seed"));
    }

    /// The hotspot table ranks rules by step count and reports coverage.
    #[test]
    fn profile_rendering_ranks_rules_and_stems() {
        use fires_obs::ProfileRule;
        let mut unit_a = RuleProfile::new();
        unit_a.record_many(ProfileRule::FwdAndBlockedInput, 90);
        unit_a.record_many(ProfileRule::BwdInvert, 10);
        unit_a.note_unattributed();
        unit_a.apportion_nanos(1_000_000);
        let mut unit_b = RuleProfile::new();
        unit_b.record_many(ProfileRule::UnobsGateInput, 40);
        unit_b.apportion_nanos(4_000_000);
        let mut merged = unit_a.clone();
        merged.merge(&unit_b);
        let source = ProfileSource {
            subject: "golden".into(),
            merged,
            stems: vec![
                StemProfile {
                    label: "s27/stem0".into(),
                    seconds: 0.001,
                    profile: unit_a,
                },
                StemProfile {
                    label: "s27/stem1".into(),
                    seconds: 0.004,
                    profile: unit_b,
                },
            ],
        };
        let rendered = render_profile(&source, 10);
        assert!(
            rendered.starts_with("hotspot profile: golden\n"),
            "{rendered}"
        );
        // Ranked by steps: blocked_input (90) before gate_input (40)
        // before invert (10).
        let blocked = rendered.find("blocked_input").unwrap();
        let gate = rendered.find("gate_input").unwrap();
        let invert = rendered.find("invert").unwrap();
        assert!(blocked < gate && gate < invert, "{rendered}");
        assert!(rendered.contains("attribution: 140/141 step(s) named (99.3%)"));
        // Worst stems worst-first with their dominant rule.
        let stem1 = rendered.find("s27/stem1").unwrap();
        let stem0 = rendered.find("s27/stem0").unwrap();
        assert!(stem1 < stem0, "{rendered}");
        assert!(
            rendered.contains("dominant: unobservability.backward.gate.gate_input (100%)"),
            "{rendered}"
        );
        // The folded export is per-stem for journal input.
        let folded = folded_stacks(&source);
        assert!(folded.contains("s27/stem0;implication;blocked_input;and_like 90\n"));
        assert!(folded.contains("s27/stem1;unobservability;gate_input;gate 40\n"));
        // JSON carries the merged table plus the ranked stems.
        let j = profile_json(&source, 1);
        let worst = j.get("worst_stems").and_then(Json::as_arr).unwrap();
        assert_eq!(worst.len(), 1);
        assert_eq!(
            worst[0].get("stem").and_then(Json::as_str),
            Some("s27/stem1")
        );
    }
}
