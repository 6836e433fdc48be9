//! Ablation: cost and effect of the Definition-6 validation step and of
//! its strictness policy (conservative any-frame vs the paper's literal
//! earlier-frames rule).
//!
//! Run with `cargo run --release -p fires-bench --bin ablation_validation
//! [circuit names...]`.

use fires_bench::{json_row, reject_unknown_flags, run_fires, JsonOut, TextTable, Threads};
use fires_circuits::suite::table2_suite;
use fires_core::{Fires, FiresConfig, ValidationPolicy};
use fires_obs::{Json, RunReport};

fn main() {
    let (json, mut filter) = JsonOut::from_env();
    let threads = Threads::extract(&mut filter).count();
    reject_unknown_flags(&filter);
    let mut rr = RunReport::new("ablation_validation", "suite");
    let mut rows = Vec::new();
    let default_rows = [
        "s208_like",
        "s420_like",
        "s838_like",
        "s386_like",
        "s1238_like",
    ];
    let mut t = TextTable::new([
        "Circuit",
        "no-valid #",
        "CPU s",
        "any-frame #",
        "CPU s",
        "earlier #",
        "CPU s",
    ]);
    println!("Ablation: validation step and policy\n");
    for entry in table2_suite() {
        let selected = if filter.is_empty() {
            default_rows.contains(&entry.name)
        } else {
            filter.iter().any(|f| f == entry.name)
        };
        if !selected {
            continue;
        }
        let base = FiresConfig::with_max_frames(entry.frames);
        let none = run_fires(&entry.circuit, base.without_validation(), threads);
        let any = run_fires(&entry.circuit, base, threads);
        let earlier = Fires::new(
            &entry.circuit,
            FiresConfig {
                validation_policy: ValidationPolicy::EarlierFrames,
                ..base
            },
        )
        .run();
        t.row([
            entry.name.to_string(),
            none.len().to_string(),
            format!("{:.2}", none.elapsed().as_secs_f64()),
            any.len().to_string(),
            format!("{:.2}", any.elapsed().as_secs_f64()),
            earlier.len().to_string(),
            format!("{:.2}", earlier.elapsed().as_secs_f64()),
        ]);
        for r in [&none, &any, &earlier] {
            rr.metrics.merge(r.metrics());
            rr.total_seconds += r.elapsed().as_secs_f64();
        }
        rows.push(json_row([
            ("circuit", Json::from(entry.name)),
            ("no_validation", Json::from(none.len())),
            (
                "no_validation_seconds",
                Json::from(none.elapsed().as_secs_f64()),
            ),
            ("any_frame", Json::from(any.len())),
            ("any_frame_seconds", Json::from(any.elapsed().as_secs_f64())),
            ("earlier_frames", Json::from(earlier.len())),
            (
                "earlier_frames_seconds",
                Json::from(earlier.elapsed().as_secs_f64()),
            ),
        ]));
    }
    println!("{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
    println!(
        "no-valid >= any-frame is guaranteed (validation only removes\n\
         candidates). The earlier-frames policy considers fewer indicators\n\
         bad per fault, but keys its memo per (fault, frame) and therefore\n\
         hits the per-process sweep budget sooner on redundancy-rich\n\
         circuits, where it conservatively drops candidates — which is why\n\
         its count can fall below the any-frame column."
    );
}
