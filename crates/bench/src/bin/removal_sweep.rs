//! The synthesis application at suite scale: iterative FIRES-driven
//! redundancy removal, reporting the area saved, the passes needed and the
//! warm-up clocks the simplified circuit requires.
//!
//! Run with `cargo run --release -p fires-bench --bin removal_sweep
//! [circuit-names...] [--max-iters N]`.

use fires_bench::{extract_number, json_row, reject_unknown_flags, JsonOut, TextTable};
use fires_core::{remove_redundancies, FiresConfig};
use fires_obs::{Json, RunReport};

fn main() {
    let (json, mut filter) = JsonOut::from_env();
    let mut rr = RunReport::new("removal_sweep", "suite");
    let mut rows = Vec::new();
    let max_iters: usize = extract_number(&mut filter, "--max-iters").unwrap_or(60);
    reject_unknown_flags(&filter);
    let defaults = [
        "s208_like",
        "s386_like",
        "s420_like",
        "s838_like",
        "s1238_like",
    ];
    println!("Iterative redundancy removal (max {max_iters} FIRES passes per circuit)\n");
    let mut t = TextTable::new([
        "Circuit",
        "Gates before",
        "Gates after",
        "FFs before",
        "FFs after",
        "Removed",
        "Passes",
        "Warm-up c",
    ]);
    for entry in fires_circuits::suite::table2_suite() {
        let selected = if filter.is_empty() {
            defaults.contains(&entry.name)
        } else {
            filter.iter().any(|f| f == entry.name)
        };
        if !selected {
            continue;
        }
        let config = FiresConfig::with_max_frames(entry.frames);
        match remove_redundancies(&entry.circuit, config, max_iters) {
            Ok(out) => {
                t.row([
                    entry.name.to_string(),
                    entry.circuit.num_gates().to_string(),
                    out.circuit.num_gates().to_string(),
                    entry.circuit.num_dffs().to_string(),
                    out.circuit.num_dffs().to_string(),
                    out.removed.len().to_string(),
                    out.iterations.to_string(),
                    out.required_c.to_string(),
                ]);
                rr.metrics.merge(&out.metrics);
                rr.total_seconds += out.phase_times.total.as_secs_f64();
                rows.push(json_row([
                    ("circuit", Json::from(entry.name)),
                    ("gates_before", Json::from(entry.circuit.num_gates())),
                    ("gates_after", Json::from(out.circuit.num_gates())),
                    ("ffs_before", Json::from(entry.circuit.num_dffs())),
                    ("ffs_after", Json::from(out.circuit.num_dffs())),
                    ("removed", Json::from(out.removed.len())),
                    ("passes", Json::from(out.iterations)),
                    ("warmup_c", Json::from(out.required_c)),
                ]));
            }
            Err(e) => {
                t.row([entry.name.to_string(), format!("error: {e}")]);
                rows.push(json_row([
                    ("circuit", Json::from(entry.name)),
                    ("error", Json::from(e.to_string())),
                ]));
            }
        }
        use std::io::Write;
        print!(".");
        std::io::stdout().flush().ok();
    }
    println!("\n\n{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
    println!(
        "Each removal is individually proven (validated FIRES) and the loop\n\
         re-analyzes after every change, as the paper's Section 7 sketches;\n\
         the simplified circuit is a delayed replacement needing `Warm-up c`\n\
         arbitrary clocks before the usual initialization."
    );
}
