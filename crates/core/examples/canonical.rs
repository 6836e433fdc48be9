//! Prints the canonical FIRES results for an embedded netlist.
//!
//! CI runs this example with and without `--no-default-features` and
//! diffs the output byte-for-byte: the identified faults must never
//! depend on whether instrumentation (and with it the hotspot profiler)
//! is compiled in. It also asserts that a four-thread run prints the same
//! lines as a single-thread one.
//!
//! The netlist has one gate (`y`) that drives nothing, so its cone is
//! dead logic, and the results are printed twice: with Definition-6
//! validation and without it. The diff thus covers both branches of the
//! fault-set assembly.

use fires_core::{Fires, FiresConfig, FiresReport};
use fires_netlist::bench;

const NETLIST: &str = "\
INPUT(a)\n\
INPUT(b)\n\
OUTPUT(d)\n\
OUTPUT(c)\n\
OUTPUT(z)\n\
OUTPUT(w)\n\
OUTPUT(x)\n\
q = DFF(a)\n\
bq = DFF(a)\n\
c = DFF(a)\n\
d = AND(bq, c)\n\
n = NOT(b)\n\
z = AND(b, n)\n\
w = OR(q, z)\n\
x = XOR(b, n)\n\
y = AND(a, b)\n\
";

/// The lines this example prints for one report.
fn canonical_lines(report: &FiresReport<'_>) -> Vec<String> {
    let mut lines = vec![
        format!("stems_processed {}", report.stems_processed()),
        format!("marks_created {}", report.marks_created()),
        format!("max_frames_used {}", report.max_frames_used()),
    ];
    lines.extend(report.display_faults());
    lines
}

fn main() {
    let circuit = bench::parse(NETLIST).expect("embedded netlist parses");
    let validated = FiresConfig::with_max_frames(5);
    for (section, config) in [
        ("validated", validated),
        ("unvalidated", validated.without_validation()),
    ] {
        let fires = Fires::new(&circuit, config);
        let lines = canonical_lines(&fires.run());
        // The worker pool must print the same, so the traced/untraced
        // diff covers the threaded driver as well.
        assert_eq!(canonical_lines(&fires.run_threaded(4)), lines);
        println!("{section}");
        for line in lines {
            println!("{line}");
        }
    }
}
