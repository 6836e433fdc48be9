//! Experiment harness for the FIRES reproduction.
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index):
//!
//! * `table1` — the sequential-implication trace of Example 3;
//! * `table2` — benchmark-suite results with and without validation;
//! * `table3` — FIRES vs the GENTEST-like ATPG budget on `s5378_like`;
//! * `table4` — FIRES vs the HITEC-like ATPG budget on `s838_like`;
//! * `fig2_fault_universe` — exhaustive Figure-2 fault classification;
//! * `ablation_validation`, `ablation_tm`, `ablation_blame` — design-choice
//!   ablations.
//!
//! This library hosts the shared plumbing: text-table rendering, the
//! scaled ATPG budget presets, and the per-circuit experiment runners the
//! binaries and Criterion benches share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use fires_atpg::AtpgConfig;
use fires_core::{Fires, FiresConfig, FiresReport, IdentifiedFault};
use fires_netlist::{Circuit, Fault};

mod reporting;

pub use reporting::{json_row, record_campaign, record_fault_sim, JsonOut, ProfileOut, Threads};

/// Runs FIRES on `threads` workers; every experiment binary identifies
/// faults through this call. Results are the same for every thread
/// count; only wall-clock changes.
pub fn run_fires(circuit: &Circuit, config: FiresConfig, threads: usize) -> FiresReport<'_> {
    Fires::new(circuit, config).run_threaded(threads)
}

/// Removes `--flag N` / `--flag=N` from `args` and parses `N`; a value
/// that is not a number exits with status 2.
pub fn extract_number<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    extract_flag(args, flag).map(|value| {
        value.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} expects a number, got {value:?}");
            std::process::exit(2);
        })
    })
}

/// Exits with status 2 if an argument left after every flag was
/// extracted looks like a flag: a mistyped `--jsn out.json` must fail,
/// not run and silently write nothing.
pub fn reject_unknown_flags(args: &[String]) {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag {flag:?}");
        std::process::exit(2);
    }
}

/// Removes every `--flag VALUE` / `--flag=VALUE` from `args`, leaving
/// positional arguments in place, and returns the last value. The one
/// flag extractor of the bench binaries; a trailing flag without a
/// value exits with status 2.
fn extract_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(&prefix) {
            value = Some(v.to_string());
            args.remove(i);
        } else if args[i] == flag {
            args.remove(i);
            if i < args.len() {
                value = Some(args.remove(i));
            } else {
                eprintln!("error: {flag} needs a value");
                std::process::exit(2);
            }
        } else {
            i += 1;
        }
    }
    value
}

/// A minimal fixed-width text table (the paper's tables are plain text).
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>w$}", c, w = width[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }
}

/// The scaled stand-in for GENTEST's per-fault budget (the paper allowed
/// 100 s/fault on a SPARCstation 10; this machine is orders of magnitude
/// faster and the circuits smaller, so the budget is scaled down while
/// preserving the experiment's shape: generous but finite).
pub fn gentest_like() -> AtpgConfig {
    AtpgConfig {
        max_unroll: 16,
        backtrack_limit: 100_000,
        time_limit: Duration::from_millis(300),
    }
}

/// The scaled stand-in for HITEC's 20 s/fault budget.
pub fn hitec_like() -> AtpgConfig {
    AtpgConfig {
        max_unroll: 16,
        backtrack_limit: 20_000,
        time_limit: Duration::from_millis(60),
    }
}

/// The fault targets a FIRES run hands to the comparison ATPG: the faults
/// identified without validation, exactly as in the paper's Tables 3–4
/// ("the faults found by FIRES (without validation) were passed as the
/// only targets to the test generators"), taken from
/// [`FiresReport::redundant_faults`].
pub fn fires_targets(identified: &[IdentifiedFault]) -> Vec<Fault> {
    identified.iter().map(|f| f.fault).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(["Circuit", "#Unt", "CPU"]);
        t.row(["s27", "0", "0.01"]);
        t.row(["s838_like", "123", "1.20"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("Circuit"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns right-aligned: both data rows have equal length.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert!(t.render().lines().count() == 3);
    }

    #[test]
    fn presets_scale_sensibly() {
        assert!(gentest_like().time_limit > hitec_like().time_limit);
        assert!(gentest_like().backtrack_limit > hitec_like().backtrack_limit);
    }
}
