//! The Example-3 comparison, generalized: FIRES vs the FUNTEST-style
//! combinational-envelope analysis (single-fault theorem, references
//! \[8\]\[9\]\[19\]) across the paper figures and the benchmark suite.
//!
//! The paper's claim: FIRES finds faults "beyond the scope of the
//! combinational ATG theorems" — the envelope sees only one frame, so
//! conflicts that need adjacent time frames are invisible to it.
//!
//! Run with `cargo run --release -p fires-bench --bin compare_related`.

use fires_bench::{json_row, reject_unknown_flags, run_fires, JsonOut, TextTable, Threads};
use fires_core::{funtest_like, FiresConfig};
use fires_netlist::Circuit;
use fires_obs::{Json, RunReport};

fn row(
    t: &mut TextTable,
    rr: &mut RunReport,
    name: &str,
    circuit: &Circuit,
    frames: usize,
    threads: usize,
) -> Json {
    let fires = run_fires(
        circuit,
        FiresConfig::with_max_frames(frames).without_validation(),
        threads,
    );
    let env = funtest_like(circuit).expect("envelope construction");
    t.row([
        name.to_string(),
        fires.len().to_string(),
        env.len().to_string(),
        format!("{:+}", fires.len() as isize - env.len() as isize),
    ]);
    rr.metrics.merge(fires.metrics());
    rr.total_seconds += fires.elapsed().as_secs_f64();
    json_row([
        ("circuit", Json::from(name)),
        ("fires", Json::from(fires.len())),
        ("envelope", Json::from(env.len())),
        (
            "advantage",
            Json::from(fires.len() as i64 - env.len() as i64),
        ),
    ])
}

fn main() {
    let (json, mut args) = JsonOut::from_env();
    let threads = Threads::extract(&mut args).count();
    reject_unknown_flags(&args);
    println!("FIRES vs FUNTEST-like combinational envelope (untestable faults)\n");
    let mut rr = RunReport::new("compare_related", "suite");
    let mut rows = Vec::new();
    let mut t = TextTable::new(["Circuit", "FIRES", "Envelope", "Advantage"]);
    rows.push(row(
        &mut t,
        &mut rr,
        "figure3",
        &fires_circuits::figures::figure3(),
        15,
        threads,
    ));
    rows.push(row(
        &mut t,
        &mut rr,
        "figure7",
        &fires_circuits::figures::figure7(),
        3,
        threads,
    ));
    rows.push(row(
        &mut t,
        &mut rr,
        "s27",
        &fires_circuits::iscas::s27(),
        15,
        threads,
    ));
    for name in [
        "s208_like",
        "s386_like",
        "s420_like",
        "s838_like",
        "s1238_like",
    ] {
        let entry = fires_circuits::suite::by_name(name).expect("suite circuit");
        rows.push(row(
            &mut t,
            &mut rr,
            name,
            &entry.circuit,
            entry.frames,
            threads,
        ));
    }
    println!("{}", t.render());
    rr.set_extra("rows", Json::Arr(rows));
    json.write(&rr);
    println!(
        "Positive advantage = faults only the sequential implication\n\
         analysis can reach (conflicts spanning several time frames)."
    );
}
