//! Regenerates the paper's Table 1 / Example 3: the sequential
//! implications of both processes on the stem `c` of the Figure-7 circuit
//! (reconstruction), the per-frame identified fault sets and the final
//! c-cycle redundant faults.
//!
//! Run with `cargo run --release -p fires-bench --bin table1`.
//! Pass `--json <path>` to also write a machine-readable run report and
//! `--threads N|auto` to size the identification stage's worker pool.
//! The trace below is produced by direct engine calls; the final
//! identification is a plain FIRES run, like every other experiment.

use fires_bench::{reject_unknown_flags, run_fires, JsonOut, ProfileOut, TextTable, Threads};
use fires_core::{Fires, FiresConfig, IndicatorView};

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let profile = ProfileOut::extract(&mut args);
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    let circuit = fires_circuits::figures::figure7();
    let config = FiresConfig::with_max_frames(3);
    let fires = Fires::new(&circuit, config);
    let stem = fires.lines().stem_of(circuit.find("c").expect("stem c"));

    println!("Table 1: sequential implications for the stem `c` of Figure 7");
    println!("(reconstructed circuit; see fires-circuits docs)\n");

    let (p0, p1) = fires.analyze_stem(stem);
    for (label, imp) in [("c = 0-bar", &p0), ("c = 1-bar", &p1)] {
        let trace = fires.trace(imp);
        let mut t = TextTable::new(["Time", "Uncontrollable", "Unobservable"]);
        let frames: Vec<i32> = (imp.window().leftmost()..=imp.window().rightmost()).collect();
        for &f in &frames {
            let unc: Vec<String> = trace
                .uncontrollable
                .iter()
                .filter(|(ff, _, _)| *ff == f)
                .map(|(_, name, v)| format!("{name}={}bar", u8::from(*v)))
                .collect();
            let unobs: Vec<String> = trace
                .unobservable
                .iter()
                .filter(|(ff, _)| *ff == f)
                .map(|(_, name)| name.clone())
                .collect();
            t.row([f.to_string(), unc.join(" "), unobs.join(" ")]);
        }
        println!("Process {label}:");
        println!("{}", t.render());
    }

    let report = run_fires(&circuit, config, threads);
    println!("c-cycle redundant faults identified by FIRES:");
    let mut t = TextTable::new(["Fault", "c", "frame"]);
    for f in report.redundant_faults() {
        t.row([
            f.fault.display(report.lines(), &circuit),
            f.c.to_string(),
            f.frame.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "{} faults, {} zero-cycle, max c = {}",
        report.len(),
        report.num_zero_cycle(),
        report.max_c()
    );

    let rr = report.run_report("table1", "figure7");
    json.write(&rr);
    profile.write(&rr);
}
