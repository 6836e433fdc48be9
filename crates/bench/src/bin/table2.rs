//! Regenerates the paper's Table 2: FIRES with and without validation on
//! the benchmark suite (generated ISCAS89-like circuits; see DESIGN.md §3).
//!
//! Columns match the paper: `# Fr.` (frame budget), `# Unt.` and CPU
//! seconds for FIRES without validation, `# Red.` and CPU seconds with
//! validation, the number of 0-cycle redundancies and the maximum `c`.
//!
//! Run with `cargo run --release -p fires-bench --bin table2`.
//! Pass circuit names as arguments to restrict the rows,
//! `--threads N|auto` to size the worker pool, `--json <path>` to also
//! write a machine-readable run report, and `--profile <path>` to write
//! the engine's per-rule hotspot profile plus folded stacks for
//! flamegraph tooling (DESIGN.md §12).

use fires_bench::{json_row, reject_unknown_flags, run_fires, JsonOut, ProfileOut, Threads};
use fires_circuits::suite::table2_suite;
use fires_core::FiresConfig;
use fires_obs::{Json, RunReport};

fn main() {
    let (json, mut filter) = JsonOut::from_env();
    let profile = ProfileOut::extract(&mut filter);
    let threads = Threads::extract(&mut filter).count();
    reject_unknown_flags(&filter);
    let entries: Vec<_> = table2_suite()
        .into_iter()
        .filter(|e| filter.is_empty() || filter.iter().any(|f| f == e.name))
        .collect();
    if entries.is_empty() {
        eprintln!("error: no suite circuit matches {filter:?}");
        std::process::exit(2);
    }

    let mut rr = RunReport::new("table2", "suite");
    let mut rows = Vec::new();
    let mut children = Vec::new();
    println!("Table 2: results for benchmark circuits\n");
    println!(
        "{:<12} {:>5} | {:>7} {:>7} | {:>7} {:>7} {:>8} {:>7}",
        "Circuit", "# Fr.", "# Unt.", "CPU s", "# Red.", "CPU s", "0-cycle", "Max. c"
    );
    println!("{}", "-".repeat(72));
    for entry in entries {
        let name = entry.name;
        let config = FiresConfig::with_max_frames(entry.frames);
        let u = run_fires(&entry.circuit, config.without_validation(), threads);
        let v = run_fires(&entry.circuit, config, threads);
        let (u_cpu, v_cpu) = (u.elapsed().as_secs_f64(), v.elapsed().as_secs_f64());
        println!(
            "{:<12} {:>5} | {:>7} {:>7.1} | {:>7} {:>7.1} {:>8} {:>7}",
            name,
            entry.frames,
            u.len(),
            u_cpu,
            v.len(),
            v_cpu,
            v.num_zero_cycle(),
            v.max_c()
        );
        rr.add_phase(name, u_cpu + v_cpu);
        rows.push(json_row([
            ("circuit", Json::from(name)),
            ("frames", Json::from(entry.frames as u64)),
            ("untestable", Json::from(u.len() as u64)),
            ("cpu_unvalidated", Json::from(u_cpu)),
            ("redundant", Json::from(v.len() as u64)),
            ("cpu_validated", Json::from(v_cpu)),
            ("zero_cycle", Json::from(v.num_zero_cycle() as u64)),
            ("max_c", Json::from(u64::from(v.max_c()))),
        ]));
        children.push(u.run_report("fires/task", name));
        children.push(v.run_report("fires/task", name));
    }
    println!("\ndone ({threads} worker thread(s))");

    let total: f64 = rr.phases.iter().map(|(_, s)| s).sum();
    rr.total_seconds = total;
    rr.set_extra("rows", Json::Arr(rows));
    rr.set_extra("threads", threads as u64);
    // Roll the per-run reports up under the table report.
    let rollup = RunReport::aggregate("table2/campaigns", "suite", &children);
    // The rolled-up engine metrics (counters, maxima and the per-stem
    // histograms) also live at the top level, where `fires compare`
    // flattens them: the committed perf baseline gates on these.
    rr.metrics.merge(&rollup.metrics);
    // The rolled-up hotspot profile rides at the top level too, where
    // `--profile` and `fires profile` can reach it.
    rr.profile = rollup.profile.clone();
    rr.set_extra("campaigns", rollup.to_json());
    json.write(&rr);
    profile.write(&rr);
}
