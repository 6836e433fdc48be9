//! Runs every workload at toy size, traced and untraced, and checks that
//! the result line carries exactly the metrics `BENCHMARK.json` declares,
//! with their units, so the code and the declaration cannot drift apart.

use std::collections::BTreeMap;
use std::process::Command;

use fires_obs::Json;

const BIN: &str = env!("CARGO_BIN_EXE_fires-benchmark");

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn metrics(declared: &Json, key: &str) -> BTreeMap<String, String> {
    declared
        .get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    (out.status.success(), stdout)
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let declared = declared();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = metrics(&declared, key);
        let workloads = declared
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        for w in workloads {
            let name = w.get("name").and_then(Json::as_str).expect("workload name");
            let (ok, stdout) = run(&[
                "--workload",
                name,
                "--quick",
                "--trace",
                trace,
                "--seed",
                "5",
            ]);
            assert!(ok, "{name} trace={trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("result line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let got: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics")
                .iter()
                .map(|(k, m)| {
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{k} has no value"
                    );
                    (
                        k.clone(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{name} trace={trace}");
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "serve-cold", "--sekonds", "3"][..],
        &["--workload", "nope"],
        &["--workload", "serve-cold", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} was accepted");
        assert!(stdout.is_empty(), "{args:?} printed a result");
    }
}
