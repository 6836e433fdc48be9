//! The ISCAS89-*like* benchmark suite used to regenerate the paper's
//! Table 2.
//!
//! The original ISCAS89 netlists are not redistributable with this
//! repository, so each row is a generated circuit of the same structural
//! family and comparable size (see DESIGN.md §3). Counter rows
//! (`s208/s420/s838`) follow the original scaling chain — each roughly
//! doubles the previous — and carry deep chain-pair patterns so that, like
//! the originals, their maximum `c` grows with the counter depth. Rows that
//! had only 0-cycle redundancies in the paper inject only combinational
//! conflicts. Frame budgets (`# Fr.`) are chosen per circuit the way the
//! paper describes ("depending upon the circuit size, such that #Fr ≤ 15").

use fires_netlist::{Circuit, CircuitBuilder, GateKind, NodeId};

use crate::generators::{
    chain_pair_pattern, comb_conflict_pattern, fig3_pattern, random_sequential, RandomConfig,
};

/// One row of the benchmark suite.
#[derive(Clone, Debug)]
pub struct SuiteEntry {
    /// Row name (`s208_like`, ...).
    pub name: &'static str,
    /// The frame budget `T_M` used for this circuit (the paper's `# Fr.`).
    pub frames: usize,
    /// The circuit itself.
    pub circuit: Circuit,
}

/// A counter core with injected redundancy patterns hanging off its bits.
fn counter_with_patterns(
    bits: usize,
    chains: (usize, usize),
    fig3: usize,
    conflicts: usize,
) -> Circuit {
    let mut b = CircuitBuilder::new();
    let en = b.input("en");
    let qs: Vec<NodeId> = (0..bits).map(|i| b.placeholder(&format!("q{i}"))).collect();
    let mut carry = en;
    for (i, &q) in qs.iter().enumerate() {
        let t = b.gate(&format!("t{i}"), GateKind::Xor, &[q, carry]);
        b.define(q, GateKind::Dff, &[t]);
        carry = b.gate(&format!("c{i}"), GateKind::And, &[carry, q]);
    }
    let mut observed: Vec<NodeId> = vec![carry];
    let (nchains, depth) = chains;
    for k in 0..nchains {
        let src = qs[(k * 3) % bits];
        observed.push(chain_pair_pattern(&mut b, &format!("cp{k}"), src, depth));
    }
    for k in 0..fig3 {
        let src = qs[(k * 5 + 1) % bits];
        let (and, ff) = fig3_pattern(&mut b, &format!("f3_{k}"), src);
        observed.push(and);
        b.output(ff);
    }
    for k in 0..conflicts {
        let src = qs[(k * 7 + 2) % bits];
        observed.push(comb_conflict_pattern(&mut b, &format!("cc{k}"), src));
    }
    // Merge the pattern outputs pairwise into ORs so a single PO does not
    // dominate, then observe everything plus a few raw counter bits.
    for (i, &o) in observed.iter().enumerate() {
        let po = b.gate(&format!("po{i}"), GateKind::Or, &[o, qs[i % bits]]);
        b.output(po);
    }
    for &q in qs.iter().take(bits / 2) {
        b.output(q);
    }
    b.build().expect("counter suite circuit is well-formed")
}

/// A pipeline with combinational conflicts on the input side.
fn pipeline_with_conflicts(width: usize, depth: usize, conflicts: usize) -> Circuit {
    let mut b = CircuitBuilder::new();
    let mut lane: Vec<NodeId> = (0..width).map(|i| b.input(&format!("in{i}"))).collect();
    let mut observed = Vec::new();
    for k in 0..conflicts {
        observed.push(comb_conflict_pattern(
            &mut b,
            &format!("cc{k}"),
            lane[k % width],
        ));
    }
    for d in 0..depth {
        let mixed: Vec<NodeId> = (0..width)
            .map(|i| {
                let kind = match (d + i) % 3 {
                    0 => GateKind::Nand,
                    1 => GateKind::Nor,
                    _ => GateKind::Xor,
                };
                b.gate(
                    &format!("m{d}_{i}"),
                    kind,
                    &[lane[i], lane[(i + 1) % width]],
                )
            })
            .collect();
        lane = mixed
            .iter()
            .enumerate()
            .map(|(i, &m)| b.gate(&format!("r{d}_{i}"), GateKind::Dff, &[m]))
            .collect();
    }
    for (i, &o) in observed.iter().enumerate() {
        let po = b.gate(&format!("po{i}"), GateKind::Or, &[o, lane[i % width]]);
        b.output(po);
    }
    for &l in lane.iter().take(width / 2) {
        b.output(l);
    }
    b.build().expect("pipeline suite circuit is well-formed")
}

/// One suite row: its name, the frame budget `T_M` (the paper's
/// `# Fr.`) and the function that builds its circuit.
type SuiteRow = (&'static str, usize, fn() -> Circuit);

/// The Table-2 suite in paper order. Rows are built only on demand, so
/// looking one up does not pay for the large circuits.
const TABLE2: &[SuiteRow] = &[
    ("s208_like", 13, || counter_with_patterns(8, (2, 4), 0, 0)),
    ("s349_like", 4, || {
        random_sequential(&RandomConfig {
            seed: 349,
            inputs: 9,
            gates: 120,
            ffs: 15,
            outputs: 11,
            fig3: 0,
            chains: (0, 0),
            conflicts: 1,
        })
    }),
    ("s386_like", 4, || {
        random_sequential(&RandomConfig {
            seed: 386,
            inputs: 7,
            gates: 140,
            ffs: 6,
            outputs: 7,
            fig3: 2,
            chains: (1, 2),
            conflicts: 2,
        })
    }),
    ("s400_like", 12, || {
        random_sequential(&RandomConfig {
            seed: 400,
            inputs: 3,
            gates: 150,
            ffs: 21,
            outputs: 6,
            fig3: 0,
            chains: (1, 2),
            conflicts: 0,
        })
    }),
    ("s420_like", 15, || counter_with_patterns(16, (3, 7), 1, 0)),
    ("s444_like", 11, || {
        random_sequential(&RandomConfig {
            seed: 444,
            inputs: 3,
            gates: 160,
            ffs: 21,
            outputs: 6,
            fig3: 0,
            chains: (0, 0),
            conflicts: 3,
        })
    }),
    ("s838_like", 15, || counter_with_patterns(32, (4, 11), 2, 0)),
    ("s1238_like", 3, || pipeline_with_conflicts(16, 3, 3)),
    ("s1423_like", 10, || {
        random_sequential(&RandomConfig {
            seed: 1423,
            inputs: 17,
            gates: 500,
            ffs: 74,
            outputs: 5,
            fig3: 2,
            chains: (0, 0),
            conflicts: 1,
        })
    }),
    ("prolog_like", 5, || {
        random_sequential(&RandomConfig {
            seed: 1010,
            inputs: 36,
            gates: 1200,
            ffs: 136,
            outputs: 73,
            fig3: 10,
            chains: (6, 2),
            conflicts: 12,
        })
    }),
    ("s5378_like", 15, || {
        random_sequential(&RandomConfig {
            seed: 5378,
            inputs: 35,
            gates: 2200,
            ffs: 164,
            outputs: 49,
            fig3: 12,
            chains: (6, 8),
            conflicts: 10,
        })
    }),
    ("s9234_like", 15, || {
        random_sequential(&RandomConfig {
            seed: 9234,
            inputs: 36,
            gates: 4500,
            ffs: 211,
            outputs: 39,
            fig3: 16,
            chains: (8, 6),
            conflicts: 14,
        })
    }),
];

fn build(&(name, frames, circuit): &SuiteRow) -> SuiteEntry {
    SuiteEntry {
        name,
        frames,
        circuit: circuit(),
    }
}

/// Builds the full Table-2 suite. Deterministic: repeated calls construct
/// identical circuits.
///
/// # Example
///
/// ```
/// let suite = fires_circuits::suite::table2_suite();
/// assert!(suite.iter().any(|e| e.name == "s838_like"));
/// ```
pub fn table2_suite() -> Vec<SuiteEntry> {
    TABLE2.iter().map(build).collect()
}

/// A fast subset of the suite for smoke tests and CI campaigns: the
/// circuits that analyse in well under a second each. Deterministic, like
/// [`table2_suite`].
pub fn small_suite() -> Vec<SuiteEntry> {
    const SMALL: &[&str] = &["s27", "s208_like", "s349_like", "s386_like", "s1238_like"];
    SMALL
        .iter()
        .map(|name| resolve(name).expect("every small-suite name resolves"))
        .collect()
}

/// Looks one suite circuit up by name, building only that row.
pub fn by_name(name: &str) -> Option<SuiteEntry> {
    TABLE2.iter().find(|row| row.0 == name).map(build)
}

/// Resolves any named circuit this crate can build: suite rows
/// ([`by_name`]), the public `s27` benchmark, and the paper's figure
/// circuits (`fig3`/`figure3`, `fig7`/`figure7`). The campaign layer
/// (`fires-jobs`) uses this to turn task specs into circuits.
pub fn resolve(name: &str) -> Option<SuiteEntry> {
    let fixed = |name: &'static str, frames, circuit| {
        Some(SuiteEntry {
            name,
            frames,
            circuit,
        })
    };
    match name {
        "s27" => fixed("s27", 5, crate::iscas::s27()),
        "fig3" | "figure3" => fixed("fig3", 5, crate::figures::figure3()),
        "fig7" | "figure7" => fixed("fig7", 5, crate::figures::figure7()),
        _ => by_name(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_deterministic() {
        let a = table2_suite();
        let b = table2_suite();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                fires_netlist::bench::to_text(&x.circuit),
                fires_netlist::bench::to_text(&y.circuit)
            );
        }
    }

    #[test]
    fn frame_budgets_respect_paper_limit() {
        for e in table2_suite() {
            assert!(e.frames <= 15, "{}", e.name);
            assert!(e.frames >= 1, "{}", e.name);
        }
    }

    #[test]
    fn sizes_scale_like_the_originals() {
        let suite = table2_suite();
        let ffs = |name: &str| {
            suite
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.circuit.num_dffs())
                .unwrap()
        };
        // The counter chain roughly doubles, like s208 -> s420 -> s838.
        assert!(ffs("s420_like") > ffs("s208_like"));
        assert!(ffs("s838_like") > ffs("s420_like"));
        let gates = |name: &str| {
            suite
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.circuit.num_gates())
                .unwrap()
        };
        assert!(gates("s5378_like") > 2000);
        assert!(gates("s9234_like") > gates("s5378_like"));
    }

    #[test]
    fn by_name_builds_the_same_circuit_as_the_full_suite() {
        for row in table2_suite() {
            let one = by_name(row.name).unwrap();
            assert_eq!(one.frames, row.frames, "{}", row.name);
            assert_eq!(
                fires_netlist::bench::to_text(&one.circuit),
                fires_netlist::bench::to_text(&row.circuit),
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("s27_like").is_none());
        assert_eq!(by_name("s838_like").unwrap().frames, 15);
    }

    #[test]
    fn small_suite_is_a_fast_subset() {
        let small = small_suite();
        assert!(small.len() >= 3);
        assert_eq!(small[0].name, "s27");
        for e in &small {
            assert!(e.circuit.num_gates() < 500, "{} too large", e.name);
        }
    }

    #[test]
    fn resolve_covers_all_families() {
        assert_eq!(resolve("s27").unwrap().circuit.num_dffs(), 3);
        assert_eq!(resolve("fig3").unwrap().circuit.num_dffs(), 2);
        assert_eq!(resolve("figure3").unwrap().name, "fig3");
        assert!(resolve("fig7").is_some());
        assert_eq!(resolve("s838_like").unwrap().frames, 15);
        assert!(resolve("nonexistent").is_none());
    }
}
