//! `fires-benchmark`: one layered benchmark of the FIRES reproduction.
//!
//! Each invocation runs one workload in this process (or, with
//! `--workload all`, re-runs itself once per workload), times every
//! operation from outside the program, checks every output, and prints
//! each metric with its unit and sample count. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. See `README.md` for the workloads and metrics.

mod campaign;
mod probe;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use fires_benchmark::stats;
use fires_benchmark::trace::{self, Tracer};
use fires_obs::Json;

const WORKLOADS: [&str; 4] = [
    "campaign-validated",
    "campaign-unvalidated",
    "serve-cold",
    "serve-repeat",
];

const USAGE: &str = "usage: fires-benchmark --workload <campaign-validated|campaign-unvalidated|\
serve-cold|serve-repeat|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]";

/// Where every invocation keeps its files, relative to the working
/// directory. Relative on purpose: the daemon's socket lives below it and
/// a Unix socket path is limited to about 100 bytes.
const RUN_DIR: &str = ".bench_run";

/// Canonical-report digests recorded for the correctness gate.
const DIGESTS: &str = include_str!("../digests.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: String::new(),
        seed: 1423,
        seconds: 20.0,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub n: usize,
}

/// Everything one workload invocation accumulates.
pub struct Run {
    pub seed: u64,
    pub seconds: Duration,
    /// Toy-sized inputs and three operations: a smoke run, not a
    /// measurement.
    pub quick: bool,
    /// This invocation's own work directory.
    pub work: PathBuf,
    pub tracer: Tracer,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations and failed checks, in the order they happened.
    pub problems: Vec<String>,
    /// Daemon start-up times, ms.
    pub startup_ms: Vec<f64>,
    /// Size of each terminal reply line the client decoded, bytes.
    pub reply_bytes: Vec<f64>,
    /// `status` counters summed over every daemon this run started.
    pub counters: BTreeMap<String, u64>,
    /// Lines printed under the metrics table.
    pub notes: Vec<String>,
    next_op: u64,
    digests: Json,
}

impl Run {
    /// A fresh operation id (campaign or submission index).
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op - 1
    }

    /// Whether the timed loop should run another operation after `done`.
    pub fn keep_going(&self, started: Instant, done: usize, min: usize) -> bool {
        done < min || (!self.quick && started.elapsed() < self.seconds)
    }

    /// Records the outcome of one timed operation.
    pub fn op_outcome(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.problems.push(e);
        }
    }

    /// Records a failed check (never inside a timed region).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Checks `report` against the digest recorded under `path` in
    /// `digests.json`, if one is recorded.
    pub fn check_digest(&mut self, path: &[&str], report: &str) {
        let digest = stats::fnv1a64(report.as_bytes());
        let recorded = path
            .iter()
            .try_fold(&self.digests, |j, k| j.get(k))
            .and_then(Json::as_str)
            .map(str::to_string);
        let key = path.join("/");
        match recorded {
            Some(want) => {
                let got = format!("{digest:016x}");
                self.check(got == want, || {
                    format!("digest of {key} is {got}, recorded {want}")
                });
            }
            None => self.note(format!("digest {key} = {digest:016x} (none recorded)")),
        }
    }

    /// Adds a line to print under the metrics table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }
}

/// One timed operation.
pub struct Op {
    /// The circuit it ran or submitted.
    pub circuit: &'static str,
    pub ms: f64,
    /// Whether spans were recorded during it (traced run only; alternate
    /// operations run without, to measure tracing overhead).
    pub traced: bool,
}

/// What a workload hands back for the end-to-end metrics.
pub struct Measured {
    /// Each set-up, seconds.
    pub setup_s: Vec<f64>,
    pub ops: Vec<Op>,
    /// Disk and memory after a fixed amount of the workload's work.
    pub footprint: Footprint,
}

/// What a fixed amount of work left behind: bytes on disk below the
/// workload's output or state directory, and the process's peak RSS so
/// far. Read at one fixed point of each run, so the values do not grow
/// with the number of operations a run manages, nor with memory the
/// allocator keeps from daemons an earlier round stopped.
#[derive(Clone, Copy, Default)]
pub struct Footprint {
    pub disk_bytes: u64,
    pub peak_rss_mb: f64,
}

impl Footprint {
    pub fn read(dir: &Path) -> Result<Footprint, String> {
        Ok(Footprint {
            disk_bytes: dir_bytes(dir),
            peak_rss_mb: peak_rss_mb()?,
        })
    }
}

/// Each circuit's operation times, ms.
fn by_circuit<'a>(ops: impl Iterator<Item = &'a Op>) -> BTreeMap<&'static str, Vec<f64>> {
    let mut map: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in ops {
        map.entry(op.circuit).or_default().push(op.ms);
    }
    map
}

/// The latency of the operations `ops`: each circuit's median, and over
/// several circuits their geometric mean, so that every circuit of a mix
/// weighs the same and the value does not jump between circuits the way a
/// median over the whole mix does.
pub fn latency<'a>(ops: impl Iterator<Item = &'a Op>) -> Option<f64> {
    let logs: Vec<f64> = by_circuit(ops)
        .values()
        .map(|v| stats::median(v).map(f64::ln))
        .collect::<Option<_>>()?;
    (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

/// Bytes in all files below `path`.
fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Splitmix64 step: the benchmark's one source of seeded randomness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn end_to_end(run: &mut Run, m: &Measured) -> Result<(), String> {
    let setup = stats::median(&m.setup_s).ok_or("no set-up samples")?;
    let latency = latency(m.ops.iter()).ok_or("no operation samples")?;
    run.put("setup_s", setup, "s", m.setup_s.len());
    run.put("latency_ms", latency, "ms", m.ops.len());
    run.put("peak_rss_mb", m.footprint.peak_rss_mb, "MiB", 1);
    run.put(
        "disk_mb",
        m.footprint.disk_bytes as f64 / (1 << 20) as f64,
        "MiB",
        1,
    );
    // Tails are printed, not gated: a run yields too few samples per
    // circuit for a tail that is more than one outlier.
    for (circuit, v) in by_circuit(m.ops.iter()) {
        let p50 = stats::median(&v).unwrap_or(f64::NAN);
        let tail = [95.0, 90.0, 75.0]
            .iter()
            .find_map(|&p| {
                stats::tail_percentile(&v, p, stats::MIN_BEYOND)
                    .map(|t| format!(", p{p} {t:.3} ms"))
            })
            .unwrap_or_default();
        run.note(format!(
            "latency of {circuit}: p50 {p50:.3} ms{tail}, n = {}",
            v.len()
        ));
    }
    Ok(())
}

/// `bench.*` metrics of the traced run: span coverage of each timed
/// operation, and the cost of tracing itself.
fn bench_layer(run: &mut Run, m: &Measured) {
    let spans = run.tracer.spans();
    let selfs = trace::self_times(spans);
    let mut worst = 0.0f64;
    let mut roots = 0;
    for (s, own) in spans.iter().zip(&selfs) {
        if s.name.starts_with("op.") && s.duration() > 0 {
            roots += 1;
            worst = worst.max(100.0 * *own as f64 / s.duration() as f64);
        }
    }
    let on = latency(m.ops.iter().filter(|o| o.traced));
    let off = latency(m.ops.iter().filter(|o| !o.traced));
    let overhead = match (on, off) {
        (Some(a), Some(b)) => 100.0 * (a - b) / b,
        _ => 0.0,
    };
    run.put("bench.unattributed_pct", worst, "%", roots);
    run.put("bench.trace_overhead_pct", overhead, "%", m.ops.len());
    if worst > 10.0 {
        run.note(format!(
            "warning: a timed operation spent {worst:.1}% outside every layer span"
        ));
    }
}

/// Total and self time of every span name, printed for reading the trace:
/// first the spans of the timed operations, then those of the probes.
fn print_self_times(tracer: &Tracer) {
    let spans = tracer.spans();
    let selfs = trace::self_times(spans);
    for (title, timed) in [("timed operations", true), ("probes", false)] {
        let mut by_name: BTreeMap<&str, (u64, u64, usize)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(&selfs) {
            if (s.parent.is_some() || s.name.starts_with("op.")) == timed {
                let e = by_name.entry(s.name).or_default();
                e.0 += s.duration();
                e.1 += own;
                e.2 += 1;
            }
        }
        println!(
            "  {:<28} {:>12} {:>12} {:>7}",
            title, "total_ms", "self_ms", "n"
        );
        for (name, (total, own, n)) in by_name {
            println!(
                "  {:<28} {:>12.3} {:>12.3} {:>7}",
                name,
                total as f64 / 1e6,
                own as f64 / 1e6,
                n
            );
        }
    }
}

fn run_workload(args: &Args) -> Result<Run, String> {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let work = Path::new(RUN_DIR).join(format!("w{}-{nanos}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut run = Run {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        quick: args.quick,
        work: work.clone(),
        tracer: Tracer::new(args.trace),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        startup_ms: Vec::new(),
        reply_bytes: Vec::new(),
        counters: BTreeMap::new(),
        notes: Vec::new(),
        next_op: 0,
        digests: Json::parse(DIGESTS).map_err(|e| format!("digests.json: {e}"))?,
    };
    let result = measure(&mut run, &args.workload);
    // Remove the work directory even when the workload failed part-way.
    let cleanup = std::fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()));
    result?;
    cleanup?;
    Ok(run)
}

fn measure(run: &mut Run, workload: &str) -> Result<(), String> {
    let (measured, probe) = match workload {
        "campaign-validated" => campaign::run(run, true)?,
        "campaign-unvalidated" => campaign::run(run, false)?,
        "serve-cold" => serve::cold(run)?,
        "serve-repeat" => serve::repeat(run)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if !run.tracer.enabled() {
        return end_to_end(run, &measured);
    }
    bench_layer(run, &measured);
    if workload.starts_with("campaign") {
        // The daemon is idle in a campaign workload; a fixed probe
        // supplies the serve layer's numbers so every workload reports
        // every layer.
        serve::probe(run)?;
    }
    serve::layer_metrics(run)?;
    probe::layers(run, &probe)
}

fn print_run(args: &Args, run: &Run) {
    println!(
        "fires-benchmark workload={} seed={} seconds={} trace={} quick={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.quick
    );
    if args.trace {
        print_self_times(&run.tracer);
    }
    println!(
        "  {:<34} {:>16} {:<6} {:>6}",
        "metric", "value", "unit", "n"
    );
    for m in &run.metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} {:>6}",
            m.name, m.value, m.unit, m.n
        );
    }
    for note in &run.notes {
        println!("  {note}");
    }
    println!(
        "  operations: {} attempted, {} failed; checks: {}",
        run.attempted,
        run.failed,
        if run.problems.is_empty() {
            "all passed".to_string()
        } else {
            format!("{} failed", run.problems.len())
        }
    );
    for p in &run.problems {
        println!("  FAILED: {p}");
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    let mut out = Json::object();
    out.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    out.to_compact()
}

fn metric_json(value: f64, unit: &str) -> Json {
    let mut j = Json::object();
    j.set("value", value).set("unit", unit);
    j
}

fn one(args: &Args) -> ExitCode {
    let run = match run_workload(args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("fires-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_run(args, &run);
    if args.trace {
        let path = Path::new(RUN_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::write(&path, trace::chrome_trace(run.tracer.spans()).to_compact()) {
            Ok(()) => println!("  chrome trace: {}", path.display()),
            Err(e) => println!("  chrome trace not written: {}: {e}", path.display()),
        }
    }
    let mut metrics = Json::object();
    for m in &run.metrics {
        metrics.set(m.name.clone(), metric_json(m.value, m.unit));
    }
    let correct = run.problems.is_empty();
    println!(
        "{}",
        result_line(correct, run.attempted.max(1), run.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: each workload in its own process, so `peak_rss_mb`
/// belongs to that workload alone.
fn all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("fires-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Json::object();
    for w in WORKLOADS {
        let out = match Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&rest)
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("fires-benchmark: {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let Ok(j) = Json::parse(last) else {
            eprintln!("fires-benchmark: {w} printed no result");
            return ExitCode::FAILURE;
        };
        correct &= out.status.success() && j.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += j.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += j.get("failed").and_then(Json::as_u64).unwrap_or(0);
        for (name, m) in j
            .get("metrics")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            metrics.set(format!("{w}/{name}"), m.clone());
        }
    }
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fires-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        all(&argv)
    } else {
        one(&args)
    }
}
