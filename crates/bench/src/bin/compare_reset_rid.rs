//! FIRES vs implicit state enumeration with a reset assumption (the
//! reference-\[7\] baseline, reimplemented in `fires-bdd`).
//!
//! Three observations the paper makes, measured:
//!
//! 1. with an (assumed fault-free) all-zero reset, the BDD method marks a
//!    *superset* of faults redundant — but each verdict is only as good as
//!    the reset assumption;
//! 2. FIRES' c-cycle verdicts need no reset at all and remain valid for
//!    the very same faults;
//! 3. on larger circuits the symbolic analysis blows past any reasonable
//!    node budget while FIRES keeps running (the practicality argument).
//!
//! Run with `cargo run --release -p fires-bench --bin compare_reset_rid`.

use fires_bdd::{reset_redundant, ResetRidOutcome};
use fires_bench::{json_row, reject_unknown_flags, run_fires, JsonOut, TextTable, Threads};
use fires_core::FiresConfig;
use fires_netlist::{Circuit, FaultList, LineGraph};
use fires_obs::{Json, RunReport};

fn analyze(
    t: &mut TextTable,
    rr: &mut RunReport,
    name: &str,
    circuit: &Circuit,
    frames: usize,
    budget: usize,
    threads: usize,
) -> Json {
    let lines = LineGraph::build(circuit);
    let reset = vec![false; circuit.num_dffs()];
    let report = run_fires(circuit, FiresConfig::with_max_frames(frames), threads);
    let universe = FaultList::collapsed(circuit, &lines);
    // Compare over the same (collapsed) universe.
    let fires_set: Vec<_> = report
        .redundant_faults()
        .iter()
        .map(|f| f.fault)
        .filter(|&f| universe.contains(f))
        .collect();
    let mut reset_red = 0usize;
    let mut overflow = 0usize;
    let mut fires_confirmed = 0usize;
    for fault in universe.iter() {
        match reset_redundant(circuit, &lines, fault, &reset, budget) {
            ResetRidOutcome::Redundant { .. } => {
                reset_red += 1;
                if fires_set.contains(&fault) {
                    fires_confirmed += 1;
                }
            }
            ResetRidOutcome::Overflow { .. } => overflow += 1,
            ResetRidOutcome::Irredundant { .. } => {}
        }
    }
    t.row([
        name.to_string(),
        universe.len().to_string(),
        fires_set.len().to_string(),
        reset_red.to_string(),
        fires_confirmed.to_string(),
        overflow.to_string(),
    ]);
    rr.metrics.merge(report.metrics());
    rr.total_seconds += report.elapsed().as_secs_f64();
    json_row([
        ("circuit", Json::from(name)),
        ("faults", Json::from(universe.len())),
        ("fires_redundant", Json::from(fires_set.len())),
        ("reset_redundant", Json::from(reset_red)),
        ("both", Json::from(fires_confirmed)),
        ("bdd_overflow", Json::from(overflow)),
    ])
}

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    println!("FIRES vs reset-assuming implicit state enumeration (all-zero reset)\n");
    let mut rr = RunReport::new("compare_reset_rid", "suite");
    let mut rows = Vec::new();
    let mut t = TextTable::new([
        "Circuit",
        "Faults",
        "FIRES red.",
        "Reset-red.",
        "Both",
        "BDD overflow",
    ]);
    let budget = 1 << 21;
    rows.push(analyze(
        &mut t,
        &mut rr,
        "figure3",
        &fires_circuits::figures::figure3(),
        15,
        budget,
        threads,
    ));
    rows.push(analyze(
        &mut t,
        &mut rr,
        "figure7",
        &fires_circuits::figures::figure7(),
        3,
        budget,
        threads,
    ));
    rows.push(analyze(
        &mut t,
        &mut rr,
        "s27",
        &fires_circuits::iscas::s27(),
        15,
        budget,
        threads,
    ));
    rows.push(analyze(
        &mut t,
        &mut rr,
        "s208_like",
        &fires_circuits::suite::by_name("s208_like").unwrap().circuit,
        13,
        budget,
        threads,
    ));
    // The practicality point: a mid-size circuit under a tight budget.
    rows.push(analyze(
        &mut t,
        &mut rr,
        "s1423_like*",
        &fires_circuits::suite::by_name("s1423_like")
            .unwrap()
            .circuit,
        10,
        1 << 16,
        threads,
    ));
    println!("{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
    println!(
        "The two notions overlap without nesting: a known fault-free reset\n\
         hides many faults FIRES cannot claim (s208_like), while c-cycle\n\
         redundancies with c > 0 can escape the reset analysis and vice\n\
         versa. FIRES' verdicts need no reset and remain valid when the\n\
         block is embedded anywhere; the reset verdicts are only as sound\n\
         as the reset assumption. (* tight node budget to show the blowup\n\
         failure mode of implicit state enumeration.)"
    );
}
