//! Regenerates the paper's Table 1 / Example 3: the sequential
//! implications of both processes on the stem `c` of the Figure-7 circuit
//! (reconstruction), the per-frame identified fault sets and the final
//! c-cycle redundant faults.
//!
//! Run with `cargo run --release -p fires-bench --bin table1`.
//! Pass `--json <path>` to also write a machine-readable run report and
//! `--threads N|auto` to size the identification stage's worker pool.
//! The trace below is produced by direct engine calls; the final
//! identification runs as a `fires-jobs` campaign like the other tables.

use fires_bench::{
    jobs_campaign, reject_unknown_flags, JsonOut, ProfileOut, TextTable, Threads, TraceOut,
};
use fires_core::{Fires, FiresConfig, IndicatorView};

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let trace = TraceOut::extract(&mut args);
    let profile = ProfileOut::extract(&mut args);
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    let circuit = fires_circuits::figures::figure7();
    let fires = Fires::new(&circuit, FiresConfig::with_max_frames(3));
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

    let (campaign, _journal) = jobs_campaign("table1-fig7", &["fig7"], true, Some(3), threads);
    let task = &campaign.tasks[0];
    println!("c-cycle redundant faults identified by FIRES:");
    let mut t = TextTable::new(["Fault", "c", "frame"]);
    for (f, name) in task.faults.iter().zip(&task.fault_names) {
        t.row([name.clone(), f.c.to_string(), f.frame.to_string()]);
    }
    println!("{}", t.render());
    let zero_cycle = task.faults.iter().filter(|f| f.c == 0).count();
    let max_c = task.faults.iter().map(|f| f.c).max().unwrap_or(0);
    println!(
        "{} faults, {} zero-cycle, max c = {}",
        task.faults.len(),
        zero_cycle,
        max_c
    );

    let (reports, _) = campaign.run_reports();
    let mut rr = reports.into_iter().next().expect("one task");
    rr.tool = "table1".into();
    rr.subject = "figure7".into();
    json.write(&rr);
    profile.write(&rr);
    trace.write();
}
