//! Per-layer probes of the traced run. They run after the timed
//! operations, over the workload's own circuits, and time one public call
//! of each layer at a time, so they never disturb the end-to-end numbers.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use fires_circuits::suite::{self, SuiteEntry};
use fires_core::{Budget, CancelToken, Fires, FiresConfig, StemCtx};
use fires_jobs::{
    build_engines, journal, merge, run_with_tasks, CampaignSpec, ResolvedTask, RunnerConfig,
    TaskSpec, UnitObserver,
};
use fires_netlist::{bench, LineGraph};
use fires_obs::Json;
use fires_serve::Response;

use fires_benchmark::stats;

use crate::{ms, Run};

/// One circuit a workload runs, as the program receives it.
pub struct ProbeCircuit {
    /// Its name in `fires_circuits::suite`.
    pub name: &'static str,
    /// The `.bench` text the program parses.
    pub text: String,
    pub frames: usize,
}

/// `suite::resolve`, with a missing row as an error.
pub fn resolve(name: &str) -> Result<SuiteEntry, String> {
    suite::resolve(name).ok_or_else(|| format!("the suite has no circuit named {name}"))
}

/// What the probes run over: the workload's circuits and its
/// validation setting.
pub struct ProbeInput {
    pub circuits: Vec<ProbeCircuit>,
    pub validate: bool,
}

/// Repetitions of the sub-millisecond calls (build, parse, line graph),
/// whose medians are reported.
const REPS: usize = 5;

/// When a unit was claimed, finished and journaled.
type Milestones = [Option<Instant>; 3];

/// Per-unit milestones of the probe campaign, through the runner's
/// observer hook.
#[derive(Debug, Default)]
struct UnitClock {
    units: Mutex<HashMap<(usize, usize), Milestones>>,
}

impl UnitClock {
    fn mark(&self, task: usize, stem: usize, at: usize) {
        let now = Instant::now();
        if let Ok(mut units) = self.units.lock() {
            units.entry((task, stem)).or_default()[at] = Some(now);
        }
    }
}

impl UnitObserver for UnitClock {
    fn unit_claimed(&self, _: u64, task: usize, stem: usize) {
        self.mark(task, stem, 0);
    }
    fn unit_finished(&self, _: u64, task: usize, stem: usize, _: f64) {
        self.mark(task, stem, 1);
    }
    fn unit_journaled(&self, _: u64, task: usize, stem: usize) {
        self.mark(task, stem, 2);
    }
}

fn median_of(samples: &[f64], what: &str) -> Result<f64, String> {
    stats::median(samples).ok_or_else(|| format!("no samples for {what}"))
}

/// Median over `REPS` runs of `f`, each inside a span, in ms.
fn repeated<T>(run: &mut Run, span: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        black_box(run.tracer.span(span, 0, &mut f));
        samples.push(ms(t.elapsed()));
    }
    stats::median(&samples).unwrap_or(0.0)
}

/// Runs every layer probe and reports the per-layer metrics.
pub fn layers(run: &mut Run, input: &ProbeInput) -> Result<(), String> {
    let min_beyond = if run.quick { 0 } else { stats::MIN_BEYOND };
    let tail = |v: &[f64], p: f64, what: &str| {
        stats::tail_percentile(v, p, min_beyond)
            .ok_or_else(|| format!("{what}: {} samples are too few for p{p}", v.len()))
    };

    // circuits and netlist
    let mut resolve_ms = Vec::new();
    let (mut parse_ms, mut graph_ms, mut lines, mut stems) = (0.0, 0.0, 0, 0);
    let mut tasks = Vec::new();
    for c in &input.circuits {
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(run.tracer.span("circuits.resolve", 0, || resolve(c.name)))?;
            resolve_ms.push(ms(t.elapsed()));
        }
        parse_ms += repeated(run, "netlist.parse", || bench::parse(&c.text));
        let circuit = bench::parse(&c.text).map_err(|e| format!("{}: {e}", c.name))?;
        graph_ms += repeated(run, "netlist.line_graph", || LineGraph::build(&circuit));
        let graph = LineGraph::build(&circuit);
        lines += graph.num_lines();
        stems += graph.fanout_stems(&circuit).count();
        let mut config = FiresConfig::with_max_frames(c.frames);
        config.validate = input.validate;
        tasks.push(ResolvedTask {
            name: c.name.to_string(),
            hash: circuit.content_hash(),
            circuit,
            config,
            budget: Budget::unlimited(),
        });
    }
    run.put(
        "circuits.resolve_ms_p50",
        median_of(&resolve_ms, "circuits.resolve")?,
        "ms",
        resolve_ms.len(),
    );
    run.put("netlist.parse_ms", parse_ms, "ms", REPS);
    run.put("netlist.line_graph_ms", graph_ms, "ms", REPS);
    run.note(format!(
        "probe circuits: {lines} lines, {stems} fanout stems"
    ));

    core_layer(run, &tasks, &tail)?;
    jobs_and_obs(run, &tasks, input, &tail)
}

type Tail<'a> = dyn Fn(&[f64], f64, &str) -> Result<f64, String> + 'a;

fn core_layer(run: &mut Run, tasks: &[ResolvedTask], tail: &Tail) -> Result<(), String> {
    let never = CancelToken::never();
    let mut build_ms = 0.0;
    let mut stem_ms = Vec::new();
    let mut processes_s = 0.0;
    let mut phases = [0.0f64; 3];
    let mut counts: HashMap<&str, u64> = HashMap::new();
    const COUNTS: [&str; 6] = [
        "core.validation_accepts",
        "core.validation_rejects",
        "core.faults_found",
        "core.implications_enqueued",
        "core.marks_created",
        "core.identified_faults",
    ];
    let mut op = 0;
    for task in tasks {
        let t = Instant::now();
        let engine = run
            .tracer
            .span("core.engine_build", 0, || {
                Fires::try_new(&task.circuit, task.config)
            })
            .map_err(|e| e.to_string())?;
        build_ms += ms(t.elapsed());
        let stem_ids = engine.stems();
        let mut ctx = StemCtx::new();
        let mut findings = Vec::with_capacity(stem_ids.len());
        for &stem in &stem_ids {
            let t = Instant::now();
            let outcome = run
                .tracer
                .span("core.run_stem", op, || {
                    engine.run_stem(stem, &mut ctx, &never)
                })
                .map_err(|e| e.to_string())?;
            stem_ms.push(ms(t.elapsed()));
            op += 1;
            let f = outcome.into_findings();
            for (i, name) in ["implication", "unobservability", "validation"]
                .iter()
                .enumerate()
            {
                phases[i] += f.phase_times.of(name).as_secs_f64();
            }
            for name in &COUNTS[..5] {
                *counts.entry(name).or_default() += f.metrics.counter(name);
            }
            findings.push(f);
        }
        let report = engine.assemble_report(findings);
        *counts.entry(COUNTS[5]).or_default() += report.len() as u64;
        for &stem in &stem_ids {
            let t = Instant::now();
            black_box(
                run.tracer
                    .span("core.analyze_stem", 0, || engine.analyze_stem(stem)),
            );
            processes_s += t.elapsed().as_secs_f64();
        }
    }
    let run_stem_s: f64 = stem_ms.iter().sum::<f64>() / 1e3;
    let phase_sum: f64 = phases.iter().sum();
    run.check(phase_sum <= run_stem_s, || {
        format!("stem phase times sum to {phase_sum:.6} s, more than run_stem's {run_stem_s:.6} s")
    });
    run.put("core.engine_build_ms", build_ms, "ms", tasks.len());
    run.put("core.run_stem_s", run_stem_s, "s", stem_ms.len());
    run.put(
        "core.run_stem_ms_p50",
        median_of(&stem_ms, "core.run_stem")?,
        "ms",
        stem_ms.len(),
    );
    run.put(
        "core.run_stem_ms_p95",
        tail(&stem_ms, 95.0, "core.run_stem")?,
        "ms",
        stem_ms.len(),
    );
    run.put("core.processes_s", processes_s, "s", stem_ms.len());
    run.put(
        "core.fault_sets_s",
        run_stem_s - processes_s,
        "s",
        stem_ms.len(),
    );
    run.put("core.phase.implication_s", phases[0], "s", stem_ms.len());
    run.put(
        "core.phase.unobservability_s",
        phases[1],
        "s",
        stem_ms.len(),
    );
    run.put("core.phase.validation_s", phases[2], "s", stem_ms.len());
    for name in COUNTS {
        run.put(name, counts[name] as f64, "count", 1);
    }
    let accepts = counts["core.validation_accepts"];
    let yield_ = if accepts == 0 {
        0.0
    } else {
        counts["core.faults_found"] as f64 / accepts as f64
    };
    run.put("core.intersection_yield", yield_, "ratio", 1);
    Ok(())
}

fn jobs_and_obs(
    run: &mut Run,
    tasks: &[ResolvedTask],
    input: &ProbeInput,
    tail: &Tail,
) -> Result<(), String> {
    // One observer for the process: the runner's hook takes a `&'static`.
    let clock: &'static UnitClock = Box::leak(Box::default());
    let rc = RunnerConfig {
        observer: Some(clock),
        ..RunnerConfig::default()
    };
    let spec = CampaignSpec {
        name: "probe".into(),
        tasks: input
            .circuits
            .iter()
            .map(|c| TaskSpec {
                frames: Some(c.frames),
                validate: input.validate,
                ..TaskSpec::new(c.name)
            })
            .collect(),
    };
    let dir = run.work.join("probe");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("probe.jsonl");

    let t = Instant::now();
    let summary = run
        .tracer
        .span("jobs.run_with_tasks", 0, || {
            run_with_tasks(&spec, tasks, &path, &rc)
        })
        .map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    run.check(summary.complete() && summary.panicked == 0, || {
        format!("probe campaign incomplete: {summary:?}")
    });
    let (mut unit_ms, mut append_ms) = (Vec::new(), Vec::new());
    for marks in clock
        .units
        .lock()
        .map_err(|_| "unit clock poisoned")?
        .values()
    {
        if let [Some(claimed), Some(finished), Some(journaled)] = *marks {
            unit_ms.push(ms(finished - claimed));
            append_ms.push(ms(journaled - finished));
        }
    }
    let journal_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();

    let t = Instant::now();
    let contents = run
        .tracer
        .span("jobs.journal_read", 0, || journal::read(&path))
        .map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engines = run
        .tracer
        .span("jobs.build_engines", 0, || build_engines(tasks))
        .map_err(|e| e.to_string())?;
    let engines_ms = ms(t.elapsed());
    let t = Instant::now();
    let report = run
        .tracer
        .span("jobs.merge", 0, || merge::merge(&contents, tasks, &engines));
    let merge_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let text = run
        .tracer
        .span("jobs.canonical_text", 0, || report.canonical_text());
    let render_ms = ms(t.elapsed());
    let entries: usize = contents.units.iter().map(|u| u.faults.len()).sum();
    let identified: usize = report.tasks.iter().map(|t| t.faults.len()).sum();

    run.put("jobs.run_s", run_s, "s", 1);
    run.put(
        "jobs.unit_ms_p50",
        median_of(&unit_ms, "jobs.unit")?,
        "ms",
        unit_ms.len(),
    );
    run.put(
        "jobs.unit_ms_p95",
        tail(&unit_ms, 95.0, "jobs.unit")?,
        "ms",
        unit_ms.len(),
    );
    run.put(
        "jobs.journal_append_ms_p50",
        median_of(&append_ms, "jobs.journal_append")?,
        "ms",
        append_ms.len(),
    );
    run.put(
        "jobs.journal_append_ms_p95",
        tail(&append_ms, 95.0, "jobs.journal_append")?,
        "ms",
        append_ms.len(),
    );
    run.put(
        "jobs.journal_append_s",
        append_ms.iter().sum::<f64>() / 1e3,
        "s",
        append_ms.len(),
    );
    run.put("jobs.journal_bytes", journal_bytes as f64, "bytes", 1);
    run.put("jobs.journal_fault_entries", entries as f64, "count", 1);
    run.put(
        "jobs.journal_dedup_ratio",
        if entries == 0 {
            0.0
        } else {
            identified as f64 / entries as f64
        },
        "ratio",
        1,
    );
    run.put("jobs.journal_read_s", read_s, "s", 1);
    run.put("jobs.build_engines_ms", engines_ms, "ms", 1);
    run.put("jobs.merge_s", merge_s, "s", 1);
    run.put("jobs.render_ms", render_ms, "ms", 1);
    run.put("jobs.report_bytes", text.len() as f64, "bytes", 1);

    // obs: the JSON parser over the journal, and over a reply line
    // carrying this report the way the daemon sends it.
    let journal_text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    let t = Instant::now();
    run.tracer
        .span("obs.json_parse_journal", 0, || {
            journal_text
                .lines()
                .filter(|l| !l.trim().is_empty())
                .try_for_each(|l| Json::parse(l).map(|j| drop(black_box(j))))
        })
        .map_err(|e| format!("journal line: {e}"))?;
    let journal_mb_s = journal_text.len() as f64 / 1e6 / t.elapsed().as_secs_f64();
    let reply = Response::Hit {
        job: "0".repeat(16),
        report: text,
    }
    .to_json()
    .to_compact();
    let t = Instant::now();
    black_box(
        run.tracer
            .span("obs.json_parse_reply", 0, || Json::parse(&reply)),
    )
    .map_err(|e| format!("reply line: {e}"))?;
    let reply_mb_s = reply.len() as f64 / 1e6 / t.elapsed().as_secs_f64();
    run.put("obs.json_parse_journal_mb_per_s", journal_mb_s, "MB/s", 1);
    run.put("obs.json_parse_reply_mb_per_s", reply_mb_s, "MB/s", 1);
    Ok(())
}
