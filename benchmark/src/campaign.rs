//! The `campaign-*` workloads: what `fires run` does on one mid-size
//! circuit, with validation on or off.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use fires_core::{Budget, FiresConfig};
use fires_jobs::{
    report_with_tasks, run_with_tasks, CampaignReport, CampaignSpec, ResolvedTask, RunSummary,
    RunnerConfig, TaskSpec,
};
use fires_netlist::{bench, Circuit, Fault, LineGraph};
use fires_sim::{parallel_simulate_faults, random_vectors};

use fires_benchmark::trace::Tracer;

use crate::probe::{resolve, ProbeCircuit, ProbeInput};
use crate::{ms, shuffle, Footprint, Measured, Op, Run};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Fewest campaigns per run, however long they take.
const MIN_OPS: usize = 3;
/// Random vectors the soundness oracle simulates.
const ORACLE_VECTORS: usize = 2000;

/// The circuit's `.bench` text with its gate definitions in a seeded
/// order. The seed changes the input the program parses (node ids, stem
/// order, report bytes) but not the circuit's structure, so the work per
/// campaign stays the same from seed to seed; different generator seeds
/// would change a campaign's time up to fivefold.
fn shuffled_bench(circuit: &Circuit, seed: u64) -> String {
    let text = bench::to_text(circuit);
    let (mut gates, heads): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.contains('='));
    shuffle(&mut gates, seed);
    heads
        .into_iter()
        .chain(gates)
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Inputs and outputs by name, and each gate's kind and fanin by name: a
/// description that ignores definition order.
type Structure = (
    Vec<String>,
    Vec<String>,
    BTreeMap<String, (String, Vec<String>)>,
);

fn structure(c: &Circuit) -> Structure {
    let names =
        |ids: &[fires_netlist::NodeId]| ids.iter().map(|&i| c.name(i).to_string()).collect();
    let gates = c
        .node_ids()
        .map(|id| {
            let node = c.node(id);
            let kind = node.kind().bench_keyword().to_string();
            (c.name(id).to_string(), (kind, names(node.fanin())))
        })
        .collect();
    (names(c.inputs()), names(c.outputs()), gates)
}

/// One `fires run`: run the campaign, merge the journal, render the
/// canonical report and write the observability rollup.
fn fires_run(
    tracer: &mut Tracer,
    op: u64,
    spec: &CampaignSpec,
    tasks: &[ResolvedTask],
    dir: &Path,
) -> Result<(RunSummary, CampaignReport, String), String> {
    let journal = dir.join("campaign.jsonl");
    let rc = RunnerConfig::default();
    let summary = tracer
        .span("jobs.run_with_tasks", op, || {
            run_with_tasks(spec, tasks, &journal, &rc)
        })
        .map_err(|e| e.to_string())?;
    let report = tracer
        .span("jobs.report_with_tasks", op, || {
            report_with_tasks(&journal, tasks)
        })
        .map_err(|e| e.to_string())?;
    let text = tracer.span("jobs.canonical_text", op, || report.canonical_text());
    let (_, rollup) = tracer.span("jobs.run_reports", op, || report.run_reports());
    let path = dir.join("campaign.report.json");
    tracer
        .span("obs.write_to_file", op, || rollup.write_to_file(&path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((summary, report, text))
}

/// Every unit ran and ended ok.
fn units_ok(summary: &RunSummary, report: &CampaignReport) -> Result<(), String> {
    let bad = summary.panicked + summary.timed_out + summary.exhausted + summary.remaining;
    if bad > 0 || report.tasks.iter().any(|t| t.units_ok != t.units_total) {
        return Err(format!("campaign units not all ok: {summary:?}"));
    }
    Ok(())
}

/// Claimed faults detected by random simulation; any detection is a
/// soundness bug.
fn oracle(circuit: &Circuit, report: &CampaignReport, seed: u64) -> usize {
    let faults: Vec<Fault> = report.tasks[0].faults.iter().map(|f| f.fault).collect();
    let lines = LineGraph::build(circuit);
    let vectors = random_vectors(circuit, ORACLE_VECTORS, seed);
    parallel_simulate_faults(circuit, &lines, &faults, &vectors).num_detected()
}

pub fn run(run: &mut Run, validate: bool) -> Result<(Measured, ProbeInput), String> {
    // `s1423_like` is large enough that journal and merge cost show next
    // to the engine, and small enough for a dozen campaigns in a run.
    let name = if run.quick { "s27" } else { "s1423_like" };

    // Set-up: build the circuit through the suite, write it as seeded
    // `.bench` text, read it back and wrap it as the campaign's task.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if run.quick { 1 } else { SETUPS } {
        let t = Instant::now();
        let row = resolve(name)?;
        let text = shuffled_bench(&row.circuit, run.seed);
        let circuit = bench::parse(&text).map_err(|e| e.to_string())?;
        let mut config = FiresConfig::with_max_frames(row.frames);
        config.validate = validate;
        let task = ResolvedTask {
            name: name.to_string(),
            hash: circuit.content_hash(),
            circuit,
            config,
            budget: Budget::unlimited(),
        };
        setup_s.push(t.elapsed().as_secs_f64());
        prepared = Some((row, text, task));
    }
    let (row, text, task) = prepared.ok_or("no set-up ran")?;
    let spec = CampaignSpec {
        name: "campaign".into(),
        tasks: vec![TaskSpec {
            frames: Some(row.frames),
            validate,
            ..TaskSpec::new(name)
        }],
    };
    let tasks = vec![task];

    let mut ops = Vec::new();
    let mut reference: Option<String> = None;
    let mut footprint = Footprint::default();
    let started = Instant::now();
    while run.keep_going(started, ops.len(), MIN_OPS) {
        let op = run.next_op();
        let dir = run.work.join(format!("campaign-{op}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let traced = run.tracer.enabled() && op.is_multiple_of(2);
        run.tracer.pause(!traced);
        let t = Instant::now();
        let root = run.tracer.begin("op.campaign", op);
        let result = fires_run(&mut run.tracer, op, &spec, &tasks, &dir);
        run.tracer.end(root);
        ops.push(Op {
            circuit: name,
            ms: ms(t.elapsed()),
            traced,
        });
        run.tracer.pause(false);

        // Checks, outside the timed region.
        let outcome = result.and_then(|(summary, report, canonical)| {
            units_ok(&summary, &report)?;
            match &reference {
                None => {
                    footprint = Footprint::read(&dir)?;
                    let workload = if validate {
                        "campaign-validated"
                    } else {
                        "campaign-unvalidated"
                    };
                    if !run.quick {
                        run.check_digest(&[workload, &run.seed.to_string()], &canonical);
                    }
                    let detected = oracle(&tasks[0].circuit, &report, run.seed);
                    run.check(detected == 0, || {
                        format!("soundness: random simulation detected {detected} claimed fault(s)")
                    });
                    reference = Some(canonical);
                }
                Some(first) if *first != canonical => {
                    return Err(format!(
                        "campaign {op}: canonical report differs from campaign 0"
                    ));
                }
                Some(_) => {}
            }
            Ok(())
        });
        run.op_outcome(outcome);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    // The seed reorders the circuit; it must stay the suite's circuit.
    run.check(
        structure(&tasks[0].circuit) == structure(&row.circuit),
        || format!("the parsed .bench text is not {name} reordered"),
    );

    let probe = ProbeInput {
        circuits: vec![ProbeCircuit {
            name,
            text,
            frames: row.frames,
        }],
        validate,
    };
    Ok((
        Measured {
            setup_s,
            ops,
            footprint,
        },
        probe,
    ))
}
