//! Regenerates the paper's Table 4: FIRES vs a HITEC-like deterministic
//! test generator (tighter per-fault budget) on the `s838_like` circuit.
//!
//! The FIRES stage runs as a `fires-jobs` campaign (per-stem work units,
//! panic isolation, on-disk journal) so even this one-circuit experiment
//! is resumable and crash-tolerant.
//!
//! Run with `cargo run --release -p fires-bench --bin table4
//! [circuit-name] [max-targets] [--threads N|auto]`.

use fires_atpg::Atpg;
use fires_bench::{
    fires_targets, hitec_like, jobs_campaign, record_campaign, reject_unknown_flags, JsonOut,
    ProfileOut, TextTable, Threads, TraceOut,
};
use fires_netlist::LineGraph;

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let trace = TraceOut::extract(&mut args);
    let profile = ProfileOut::extract(&mut args);
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    let name = args.first().map(String::as_str).unwrap_or("s838_like");
    // Default cap keeps the harness runtime sane on redundancy-rich
    // generated circuits (pass a large number to target everything).
    let max_targets: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let entry = fires_circuits::suite::by_name(name).expect("unknown suite circuit");

    let (campaign, _journal) = jobs_campaign("table4-fires", &[name], false, None, threads);
    let fires_task = &campaign.tasks[0];
    let mut targets = fires_targets(&fires_task.faults);
    targets.truncate(max_targets);

    println!(
        "Table 4: FIRES vs HITEC-like ATPG on {name} ({} targets)\n",
        targets.len()
    );

    let lines = LineGraph::build(&entry.circuit);
    let atpg = Atpg::new(&entry.circuit, &lines, hitec_like());
    let summary = atpg.run_faults(&targets);

    let fires_found = fires_task.faults.len();
    let fires_cpu = fires_task.seconds;
    let atpg_cpu = summary.elapsed.as_secs_f64();
    // When the target list is capped, extrapolate the ATPG CPU linearly to
    // the full FIRES fault set for a like-for-like speed-up figure.
    let atpg_cpu_full = atpg_cpu * fires_found as f64 / targets.len().max(1) as f64;
    let mut t = TextTable::new([
        "Circuit",
        "FIRES #Unt",
        "FIRES CPU s",
        "ATPG #Unt",
        "ATPG #Abo",
        "ATPG #Det",
        "ATPG CPU s",
        "Speed-up",
    ]);
    t.row([
        name.to_string(),
        fires_found.to_string(),
        format!("{fires_cpu:.1}"),
        summary.num_untestable().to_string(),
        summary.num_aborted().to_string(),
        summary.num_detected().to_string(),
        format!("{atpg_cpu:.1}"),
        format!("{:.0}", atpg_cpu_full / fires_cpu.max(1e-9)),
    ]);
    println!("{}", t.render());
    println!(
        "proved untestable by search: {:.0}% (the paper's HITEC proved 52% on S838)",
        100.0 * summary.num_untestable() as f64 / targets.len().max(1) as f64
    );

    let (fires_reports, _) = campaign.run_reports();
    let mut rr = fires_reports.into_iter().next().expect("one task");
    rr.tool = "table4".into();
    rr.subject = name.into();
    record_campaign(&mut rr, &summary);
    rr.set_extra("threads", threads as u64);
    rr.set_extra("targets", targets.len() as u64);
    rr.set_extra("fires_cpu_seconds", fires_cpu);
    rr.set_extra("atpg_cpu_seconds", atpg_cpu);
    rr.set_extra("speedup_extrapolated", atpg_cpu_full / fires_cpu.max(1e-9));
    json.write(&rr);
    profile.write(&rr);
    trace.write();
}
