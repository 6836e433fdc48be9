//! A journal written by the tree-based codec, read and re-encoded by the
//! typed one. `fixtures/s208_budget.jsonl` is `fires run --circuit
//! s208_like --threads 1 --step-budget 400 --retries 3 --chaos-seed 7
//! --chaos-panic 150` as written before the typed codec: `ok` and
//! `exhausted` units, retry events and a progress heartbeat.
//! `fixtures/s208_budget.report.json` is `fires report --json` on it.

use std::path::PathBuf;

use fires_jobs::journal::{self, UnitStatus};
use fires_obs::Json;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn reencoding_reproduces_every_unit_line() {
    let path = fixture("s208_budget.jsonl");
    let contents = journal::read(&path).unwrap();
    assert!(!contents.torn);
    for status in [UnitStatus::Ok, UnitStatus::Exhausted] {
        assert!(
            contents.units.iter().any(|u| u.status == status),
            "the fixture holds a {status:?} unit"
        );
    }
    assert!(!contents.events.is_empty() && !contents.progress.is_empty());

    let text = std::fs::read_to_string(&path).unwrap();
    let unit_lines: Vec<&str> = text
        .lines()
        .filter(|line| {
            Json::parse(line)
                .unwrap()
                .get("kind")
                .and_then(Json::as_str)
                == Some("unit")
        })
        .collect();
    assert_eq!(unit_lines.len(), contents.units.len());
    for (line, unit) in unit_lines.iter().zip(&contents.units) {
        assert_eq!(unit.encode().as_str(), *line);
    }
}

#[test]
fn canonical_report_is_pinned() {
    let report = fires_jobs::report(&fixture("s208_budget.jsonl")).unwrap();
    let pinned = std::fs::read_to_string(fixture("s208_budget.report.json")).unwrap();
    assert_eq!(format!("{}\n", report.canonical_text()), pinned);
}
