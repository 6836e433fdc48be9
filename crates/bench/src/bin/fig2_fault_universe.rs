//! Regenerates the paper's Figure 2: the structure of the fault universe
//! (testable ⊂ partially testable; untestable = not detectable;
//! redundant = not partially testable; plus the paper's new c-cycle
//! redundant class), computed *exactly* on small circuits by explicit
//! state-space analysis.
//!
//! Also cross-checks FIRES: every fault FIRES identifies must fall in the
//! c-cycle redundant region.
//!
//! Run with `cargo run --release -p fires-bench --bin fig2_fault_universe`.

use fires_bench::{json_row, reject_unknown_flags, run_fires, JsonOut, TextTable, Threads};
use fires_core::FiresConfig;
use fires_netlist::{Circuit, FaultList, LineGraph};
use fires_obs::{Json, RunReport};
use fires_verify::{classify, Limits};

fn analyze(name: &str, circuit: &Circuit, t: &mut TextTable) -> Json {
    let lines = LineGraph::build(circuit);
    let faults = FaultList::full(&lines);
    let limits = Limits::default();
    let mut detectable = 0usize;
    let mut partially_only = 0usize; // partially testable but not detectable
    let mut testable = 0usize;
    let mut redundant0 = 0usize; // Definition-4 redundant (0-cycle)
    let mut c_cycle_pos = 0usize; // c-cycle redundant for some c > 0 only
    let mut not_c_cycle = 0usize; // untestable yet never c-cycle redundant
    let mut unknown = 0usize;
    for fault in faults.iter() {
        match classify(circuit, &lines, fault, &limits) {
            Ok(class) => {
                if class.detectable == Some(true) {
                    detectable += 1;
                }
                if class.testable {
                    testable += 1;
                }
                if class.partially_testable && class.detectable == Some(false) {
                    partially_only += 1;
                }
                match class.c_cycle {
                    Some(0) => redundant0 += 1,
                    Some(_) => c_cycle_pos += 1,
                    None if class.detectable == Some(false) => not_c_cycle += 1,
                    None => {}
                }
            }
            Err(_) => unknown += 1,
        }
    }
    t.row([
        name.to_string(),
        faults.len().to_string(),
        detectable.to_string(),
        testable.to_string(),
        partially_only.to_string(),
        redundant0.to_string(),
        c_cycle_pos.to_string(),
        not_c_cycle.to_string(),
        unknown.to_string(),
    ]);
    json_row([
        ("circuit", Json::from(name)),
        ("faults", Json::from(faults.len())),
        ("detectable", Json::from(detectable)),
        ("testable", Json::from(testable)),
        ("partially_testable_only", Json::from(partially_only)),
        ("redundant_0_cycle", Json::from(redundant0)),
        ("redundant_c_positive", Json::from(c_cycle_pos)),
        ("untestable_not_redundant", Json::from(not_c_cycle)),
        ("unknown", Json::from(unknown)),
    ])
}

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    let mut rr = RunReport::new("fig2_fault_universe", "figures+s27");
    let mut t = TextTable::new([
        "Circuit",
        "Faults",
        "Detectable",
        "Testable",
        "PartialOnly",
        "Red(c=0)",
        "Red(c>0)",
        "Unt!Red",
        "Unknown",
    ]);
    println!("Figure 2: exact structure of the fault universe (small circuits)\n");
    let rows = vec![
        analyze("figure3", &fires_circuits::figures::figure3(), &mut t),
        analyze("figure7", &fires_circuits::figures::figure7(), &mut t),
        analyze("s27", &fires_circuits::iscas::s27(), &mut t),
    ];
    rr.set_extra("universe", Json::Arr(rows));
    println!("{}", t.render());

    // Subset checks that define the figure, plus the FIRES containment.
    println!("FIRES containment check (every identified fault is c-cycle redundant):");
    let mut checks = Vec::new();
    for (name, circuit) in [
        ("figure3", fires_circuits::figures::figure3()),
        ("figure7", fires_circuits::figures::figure7()),
        ("s27", fires_circuits::iscas::s27()),
    ] {
        let report = run_fires(&circuit, FiresConfig::default(), threads);
        let limits = Limits::default();
        let mut ok = 0usize;
        let mut bad = 0usize;
        for f in report.redundant_faults() {
            match classify(&circuit, report.lines(), f.fault, &limits) {
                Ok(class) if matches!(class.c_cycle, Some(c) if c <= f.c) => ok += 1,
                _ => bad += 1,
            }
        }
        println!(
            "  {name}: {} identified, {ok} verified, {bad} violations",
            report.len()
        );
        rr.metrics.merge(report.metrics());
        rr.metrics.incr("fig2.containment_verified", ok as u64);
        rr.metrics.incr("fig2.containment_violations", bad as u64);
        checks.push(json_row([
            ("circuit", Json::from(name)),
            ("identified", Json::from(report.len())),
            ("verified", Json::from(ok)),
            ("violations", Json::from(bad)),
        ]));
    }
    rr.set_extra("containment", Json::Arr(checks));
    json.write(&rr);
}
