//! Regenerates the paper's Table 2: FIRES with and without validation on
//! the benchmark suite (generated ISCAS89-like circuits; see DESIGN.md §3).
//!
//! Columns match the paper: `# Fr.` (frame budget), `# Unt.` and CPU
//! seconds for FIRES without validation, `# Red.` and CPU seconds with
//! validation, the number of 0-cycle redundancies and the maximum `c`.
//!
//! Both passes run as `fires-jobs` campaigns: per-stem work units on a
//! worker pool with panic isolation, journaled to disk as they complete.
//! A crash mid-table loses at most one stem; the printed journal paths
//! can be resumed and inspected with the `fires` CLI.
//!
//! Run with `cargo run --release -p fires-bench --bin table2`.
//! Pass circuit names as arguments to restrict the rows,
//! `--threads N|auto` to size the worker pool, `--step-budget N` /
//! `--retries N` to bound per-stem effort and retry panicked units
//! (DESIGN.md §10), `--json <path>` to also write a machine-readable
//! run report, and `--profile <path>` to write the engine's per-rule
//! hotspot profile plus folded stacks for flamegraph tooling
//! (DESIGN.md §12).

use fires_bench::{
    jobs_campaign_tuned, json_row, reject_unknown_flags, CampaignTuning, JsonOut, ProfileOut,
    Threads, TraceOut,
};
use fires_circuits::suite::table2_suite;
use fires_obs::{Json, RunReport};

fn main() {
    let (json, mut filter) = JsonOut::from_env();
    let trace = TraceOut::extract(&mut filter);
    let profile = ProfileOut::extract(&mut filter);
    let threads = Threads::extract(&mut filter).count();
    let tuning = CampaignTuning::extract(&mut filter);
    reject_unknown_flags(&filter);
    let suite = table2_suite();
    let names: Vec<&str> = suite
        .iter()
        .map(|e| e.name)
        .filter(|n| filter.is_empty() || filter.iter().any(|f| f == n))
        .collect();
    if names.is_empty() {
        eprintln!("error: no suite circuit matches {filter:?}");
        std::process::exit(2);
    }

    let (unvalidated, journal_u) =
        jobs_campaign_tuned("table2-unval", &names, false, None, threads, tuning);
    let (validated, journal_v) =
        jobs_campaign_tuned("table2-val", &names, true, None, threads, tuning);

    let mut rr = RunReport::new("table2", "suite");
    let mut rows = Vec::new();
    println!("Table 2: results for benchmark circuits\n");
    println!(
        "{:<12} {:>5} | {:>7} {:>7} | {:>7} {:>7} {:>8} {:>7}",
        "Circuit", "# Fr.", "# Unt.", "CPU s", "# Red.", "CPU s", "0-cycle", "Max. c"
    );
    println!("{}", "-".repeat(72));
    for (u, v) in unvalidated.tasks.iter().zip(&validated.tasks) {
        let zero_cycle = v.faults.iter().filter(|f| f.c == 0).count();
        let max_c = v.faults.iter().map(|f| f.c).max().unwrap_or(0);
        println!(
            "{:<12} {:>5} | {:>7} {:>7.1} | {:>7} {:>7.1} {:>8} {:>7}",
            v.name,
            v.frame_budget,
            u.faults.len(),
            u.seconds,
            v.faults.len(),
            v.seconds,
            zero_cycle,
            max_c
        );
        rr.add_phase(v.name.clone(), u.seconds + v.seconds);
        rows.push(json_row([
            ("circuit", Json::from(v.name.clone())),
            ("frames", Json::from(v.frame_budget as u64)),
            ("untestable", Json::from(u.faults.len() as u64)),
            ("cpu_unvalidated", Json::from(u.seconds)),
            ("redundant", Json::from(v.faults.len() as u64)),
            ("cpu_validated", Json::from(v.seconds)),
            ("zero_cycle", Json::from(zero_cycle as u64)),
            ("max_c", Json::from(u64::from(max_c))),
        ]));
    }
    println!("\ndone ({threads} worker thread(s))");
    println!(
        "campaign journals: {} / {}",
        journal_u.display(),
        journal_v.display()
    );

    let total: f64 = rr.phases.iter().map(|(_, s)| s).sum();
    rr.total_seconds = total;
    rr.set_extra("rows", Json::Arr(rows));
    rr.set_extra("threads", threads as u64);
    // Roll the per-task campaign reports up under the table report.
    let (children_u, _) = unvalidated.run_reports();
    let (children_v, _) = validated.run_reports();
    let all: Vec<RunReport> = children_u.into_iter().chain(children_v).collect();
    let rollup = RunReport::aggregate("table2/campaigns", "suite", &all);
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
    trace.write();
}
