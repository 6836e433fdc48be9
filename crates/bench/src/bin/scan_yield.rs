//! The paper's yield-loss motivation, measured: sequentially redundant
//! faults (the circuit works perfectly) that become *detectable under
//! full-scan testing* — chips that scan test would reject despite being
//! fully functional.
//!
//! For every fault FIRES identifies as c-cycle redundant, the full-scan
//! envelope is searched exhaustively (the envelope is combinational, so
//! the ATPG verdicts are exact).
//!
//! Run with `cargo run --release -p fires-bench --bin scan_yield
//! [circuit-names...]`.

use std::time::Duration;

use fires_atpg::{Atpg, AtpgConfig};
use fires_bench::{json_row, reject_unknown_flags, run_fires, JsonOut, TextTable, Threads};
use fires_core::FiresConfig;
use fires_netlist::{transform, Circuit, Fault, LineGraph};
use fires_obs::{Json, RunReport};

/// Maps a fault of the sequential circuit onto the scan envelope by
/// display name (the transform preserves names); returns `None` for
/// faults on lines that no longer exist (flip-flop D branches).
fn map_fault(
    circuit: &Circuit,
    lines: &LineGraph,
    scan: &Circuit,
    scan_lines: &LineGraph,
    fault: Fault,
) -> Option<Fault> {
    let name = lines.display_name(fault.line, circuit);
    scan_lines
        .line_ids()
        .find(|&l| scan_lines.display_name(l, scan) == name)
        .map(|l| Fault::new(l, fault.stuck))
}

fn analyze(
    t: &mut TextTable,
    rr: &mut RunReport,
    name: &str,
    circuit: &Circuit,
    frames: usize,
    threads: usize,
) -> Json {
    let report = run_fires(circuit, FiresConfig::with_max_frames(frames), threads);
    let scan = transform::full_scan(circuit).expect("scan transform");
    let lines = LineGraph::build(circuit);
    let scan_lines = LineGraph::build(&scan);
    let atpg = Atpg::new(
        &scan,
        &scan_lines,
        AtpgConfig {
            max_unroll: 1, // combinational: exact verdicts
            backtrack_limit: 1_000_000,
            time_limit: Duration::from_secs(5),
        },
    );
    let mut scan_detectable = 0usize;
    let mut unmapped = 0usize;
    for f in report.redundant_faults() {
        match map_fault(circuit, &lines, &scan, &scan_lines, f.fault) {
            Some(scan_fault) => {
                if atpg.run_fault(scan_fault).is_detected() {
                    scan_detectable += 1;
                }
            }
            None => unmapped += 1,
        }
    }
    t.row([
        name.to_string(),
        report.len().to_string(),
        scan_detectable.to_string(),
        unmapped.to_string(),
        if report.is_empty() {
            "-".to_string()
        } else {
            format!(
                "{:.0}%",
                100.0 * scan_detectable as f64 / report.len() as f64
            )
        },
    ]);
    rr.metrics.merge(report.metrics());
    rr.total_seconds += report.elapsed().as_secs_f64();
    json_row([
        ("circuit", Json::from(name)),
        ("seq_redundant", Json::from(report.len())),
        ("scan_detectable", Json::from(scan_detectable)),
        ("unmapped", Json::from(unmapped)),
    ])
}

fn main() {
    let (json, mut filter) = JsonOut::from_env();
    let threads = Threads::extract(&mut filter).count();
    reject_unknown_flags(&filter);
    println!("Scan-induced yield loss: redundant faults that full-scan rejects\n");
    let mut rr = RunReport::new("scan_yield", "suite");
    let mut rows = Vec::new();
    let mut t = TextTable::new([
        "Circuit",
        "Seq-redundant",
        "Scan-detectable",
        "Unmapped",
        "Yield loss",
    ]);
    rows.push(analyze(
        &mut t,
        &mut rr,
        "figure3",
        &fires_circuits::figures::figure3(),
        15,
        threads,
    ));
    rows.push(analyze(
        &mut t,
        &mut rr,
        "figure7",
        &fires_circuits::figures::figure7(),
        3,
        threads,
    ));
    let defaults = ["s208_like", "s386_like", "s420_like", "s838_like"];
    for entry in fires_circuits::suite::table2_suite() {
        let selected = if filter.is_empty() {
            defaults.contains(&entry.name)
        } else {
            filter.iter().any(|f| f == entry.name)
        };
        if selected {
            rows.push(analyze(
                &mut t,
                &mut rr,
                entry.name,
                &entry.circuit,
                entry.frames,
                threads,
            ));
        }
    }
    println!("{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
    println!(
        "Every counted fault leaves the functional circuit indistinguishable\n\
         from a fault-free one (after at most Max-c warm-up clocks), yet a\n\
         full-scan test program would reject the part."
    );
}
