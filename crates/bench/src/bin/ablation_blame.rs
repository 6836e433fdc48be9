//! Ablation: the unobservability blame-set cap. A tiny cap refuses
//! legitimate unobservability marks (fewer faults); past a modest size the
//! curve saturates — justifying the default of 64.
//!
//! Run with `cargo run --release -p fires-bench --bin ablation_blame
//! [circuit-name] [--threads N|auto]`.

use fires_bench::{json_row, reject_unknown_flags, run_fires, JsonOut, TextTable, Threads};
use fires_core::FiresConfig;
use fires_obs::{Json, RunReport};

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    let name = args
        .first()
        .cloned()
        .unwrap_or_else(|| "s386_like".to_owned());
    let entry = fires_circuits::suite::by_name(&name).expect("unknown suite circuit");
    println!("Ablation: blame-set cap on {name}\n");
    let mut rr = RunReport::new("ablation_blame", &name);
    let mut rows = Vec::new();
    let mut t = TextTable::new(["cap", "# Red.", "0-cycle", "Max. c", "CPU s"]);
    for cap in [0usize, 1, 2, 4, 8, 16, 32, 64, 128] {
        let config = FiresConfig {
            max_frames: entry.frames,
            blame_cap: cap,
            ..FiresConfig::default()
        };
        let report = run_fires(&entry.circuit, config, threads);
        t.row([
            cap.to_string(),
            report.len().to_string(),
            report.num_zero_cycle().to_string(),
            report.max_c().to_string(),
            format!("{:.2}", report.elapsed().as_secs_f64()),
        ]);
        rr.metrics.merge(report.metrics());
        rr.total_seconds += report.elapsed().as_secs_f64();
        rows.push(json_row([
            ("blame_cap", Json::from(cap)),
            ("redundant", Json::from(report.len())),
            ("zero_cycle", Json::from(report.num_zero_cycle())),
            ("max_c", Json::from(report.max_c())),
            ("seconds", Json::from(report.elapsed().as_secs_f64())),
        ]));
    }
    println!("{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
}
