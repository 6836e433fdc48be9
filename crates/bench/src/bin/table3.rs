//! Regenerates the paper's Table 3: FIRES vs a GENTEST-like deterministic
//! test generator on the `s5378_like` circuit.
//!
//! As in the paper, the faults FIRES identifies *without validation* are
//! handed to the ATPG as its only targets, with a generous per-fault
//! budget; the experiment's observable is the per-fault abort rate and the
//! CPU ratio — search struggles even to prove untestable what implications
//! identify instantly.
//!
//! Run with `cargo run --release -p fires-bench --bin table3
//! [circuit-name] [max-targets] [--threads N|auto]`.

use fires_atpg::Atpg;
use fires_bench::{
    fires_targets, gentest_like, record_campaign, reject_unknown_flags, run_fires, JsonOut,
    ProfileOut, TextTable, Threads,
};
use fires_core::FiresConfig;
use fires_netlist::LineGraph;

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let profile = ProfileOut::extract(&mut args);
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    let name = args.first().map(String::as_str).unwrap_or("s5378_like");
    // Default cap keeps the harness runtime sane on redundancy-rich
    // generated circuits (pass a large number to target everything).
    let max_targets: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(500);
    let entry = fires_circuits::suite::resolve(name).expect("unknown suite circuit");

    let config = FiresConfig::with_max_frames(entry.frames).without_validation();
    let fires = run_fires(&entry.circuit, config, threads);
    let mut targets = fires_targets(fires.redundant_faults());
    targets.truncate(max_targets);

    println!(
        "Table 3: FIRES vs GENTEST-like ATPG on {name} ({} targets)\n",
        targets.len()
    );

    let lines = LineGraph::build(&entry.circuit);
    let atpg = Atpg::new(&entry.circuit, &lines, gentest_like());
    let summary = atpg.run_faults(&targets);

    let fires_found = fires.len();
    let fires_cpu = fires.elapsed().as_secs_f64();
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
        "abort rate: {:.0}% of FIRES-identified faults",
        100.0 * summary.num_aborted() as f64 / targets.len().max(1) as f64
    );
    if summary.num_detected() > 0 {
        println!(
            "note: {} target(s) detected — bounded-untestable claims differ \
             from full redundancy; see EXPERIMENTS.md",
            summary.num_detected()
        );
    }

    let mut rr = fires.run_report("table3", name);
    record_campaign(&mut rr, &summary);
    rr.set_extra("threads", threads as u64);
    rr.set_extra("targets", targets.len() as u64);
    rr.set_extra("fires_cpu_seconds", fires_cpu);
    rr.set_extra("atpg_cpu_seconds", atpg_cpu);
    rr.set_extra("speedup_extrapolated", atpg_cpu_full / fires_cpu.max(1e-9));
    json.write(&rr);
    profile.write(&rr);
}
