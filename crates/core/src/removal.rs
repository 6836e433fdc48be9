//! Redundancy removal (the synthesis application, paper Sections 1 and 7).
//!
//! Removing a `c`-cycle redundant fault `m` s-a-`u` ties line `m` to the
//! constant `u` and sweeps the resulting constants and dead logic. The
//! simplified circuit is a *c-cycle delayed replacement* of the original:
//! clock it `c` times with arbitrary inputs before the usual initialization
//! sequence and it is indistinguishable from the original
//! ([`fires_verify::is_c_cycle_replacement`] checks exactly this on small
//! circuits).
//!
//! Constants are never folded *through* flip-flops: `DFF(CONST)` keeps the
//! flip-flop, because collapsing it would change the power-up behaviour and
//! silently raise the required `c`.

use fires_netlist::{Circuit, Fault, GateKind, LineGraph, LineKind, NetlistError};

use crate::instrument::{PhaseClock, PhaseTimes, RunMetrics};
use crate::report::IdentifiedFault;
use crate::{Fires, FiresConfig};

/// Result of iterative redundancy removal.
#[derive(Clone, Debug)]
pub struct RemovalOutcome {
    /// The simplified circuit.
    pub circuit: Circuit,
    /// Human-readable names of the removed faults with their `c` values,
    /// in removal order.
    pub removed: Vec<(String, u32)>,
    /// FIRES passes executed (including the final pass that found nothing).
    pub iterations: usize,
    /// The number of power-up cycles the replacement needs: the maximum
    /// `c` over all removed faults (`c`-cycle redundancy is preserved for
    /// any larger `c`, so the max is sufficient for the whole batch).
    pub required_c: u32,
    /// Metrics aggregated over every inner FIRES pass, plus
    /// `removal.*` counters (iterations, faults removed, nodes swept).
    /// A no-op stub without the `tracing` feature.
    pub metrics: RunMetrics,
    /// Wall-clock split between the `analysis` (FIRES passes) and
    /// `rewrite` (tie-and-sweep) phases. Total-only without `tracing`.
    pub phase_times: PhaseTimes,
}

/// Internal mutable netlist used during rewriting.
struct Rewriter {
    kinds: Vec<GateKind>,
    fanins: Vec<Vec<usize>>,
    names: Vec<String>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
}

impl Rewriter {
    fn from_circuit(circuit: &Circuit) -> Self {
        Rewriter {
            kinds: circuit.node_ids().map(|n| circuit.node(n).kind()).collect(),
            fanins: circuit
                .node_ids()
                .map(|n| circuit.node(n).fanin().iter().map(|f| f.index()).collect())
                .collect(),
            names: circuit
                .node_ids()
                .map(|n| circuit.name(n).to_owned())
                .collect(),
            inputs: circuit.inputs().iter().map(|n| n.index()).collect(),
            outputs: circuit.outputs().iter().map(|n| n.index()).collect(),
        }
    }

    fn add_const(&mut self, value: bool) -> usize {
        let id = self.kinds.len();
        self.kinds.push(if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        });
        self.fanins.push(Vec::new());
        self.names.push(format!("_tied{}_{id}", u8::from(value)));
        id
    }

    fn const_value(&self, node: usize) -> Option<bool> {
        match self.kinds[node] {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            _ => None,
        }
    }

    /// One local-simplification sweep; returns whether anything changed.
    fn simplify_pass(&mut self) -> bool {
        let mut changed = false;
        for i in 0..self.kinds.len() {
            let kind = self.kinds[i];
            if !kind.is_logic() {
                continue;
            }
            let consts: Vec<Option<bool>> = self.fanins[i]
                .iter()
                .map(|&f| self.const_value(f))
                .collect();
            match kind {
                GateKind::Buf | GateKind::Not => {
                    if let Some(v) = consts[0] {
                        self.make_const(i, v ^ kind.is_inverting());
                        changed = true;
                    }
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    // Invariant, not an input error: these kinds always
                    // have a controlling value.
                    let c = kind.controlling_value().expect("controlling");
                    let inv = kind.is_inverting();
                    if consts.contains(&Some(c)) {
                        self.make_const(i, c ^ inv);
                        changed = true;
                        continue;
                    }
                    // Drop noncontrolling constant inputs.
                    let keep: Vec<usize> = self.fanins[i]
                        .iter()
                        .zip(&consts)
                        .filter(|&(_, &v)| v != Some(!c))
                        .map(|(&f, _)| f)
                        .collect();
                    if keep.len() != self.fanins[i].len() {
                        changed = true;
                        if keep.is_empty() {
                            // All inputs were at the noncontrolling value.
                            self.make_const(i, !c ^ inv);
                            continue;
                        }
                        self.fanins[i] = keep;
                    }
                    if self.fanins[i].len() == 1 {
                        self.kinds[i] = if inv { GateKind::Not } else { GateKind::Buf };
                        changed = true;
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let mut parity = kind.is_inverting();
                    let keep: Vec<usize> = self.fanins[i]
                        .iter()
                        .zip(&consts)
                        .filter_map(|(&f, &v)| match v {
                            Some(b) => {
                                parity ^= b;
                                None
                            }
                            None => Some(f),
                        })
                        .collect();
                    if keep.len() != self.fanins[i].len() {
                        changed = true;
                        if keep.is_empty() {
                            self.make_const(i, parity);
                            continue;
                        }
                        self.fanins[i] = keep;
                        self.kinds[i] = if parity {
                            GateKind::Xnor
                        } else {
                            GateKind::Xor
                        };
                    }
                    if self.fanins[i].len() == 1 {
                        self.kinds[i] = if self.kinds[i].is_inverting() {
                            GateKind::Not
                        } else {
                            GateKind::Buf
                        };
                        changed = true;
                    }
                }
                _ => {}
            }
        }
        changed
    }

    fn make_const(&mut self, node: usize, value: bool) {
        self.kinds[node] = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.fanins[node].clear();
    }

    /// Drops nodes unreachable (backwards) from the outputs, keeping all
    /// primary inputs to preserve the interface.
    fn into_circuit(mut self) -> Result<(Circuit, usize), NetlistError> {
        while self.simplify_pass() {}
        let n = self.kinds.len();
        let mut live = vec![false; n];
        let mut stack: Vec<usize> = self.outputs.clone();
        for &input in &self.inputs {
            live[input] = true;
        }
        for &o in &self.outputs {
            live[o] = true;
        }
        while let Some(x) = stack.pop() {
            for &f in &self.fanins[x] {
                if !live[f] {
                    live[f] = true;
                    stack.push(f);
                }
            }
        }
        let removed = live.iter().filter(|&&l| !l).count();
        // Compact ids.
        let mut remap = vec![usize::MAX; n];
        let mut next = 0usize;
        for (i, &alive) in live.iter().enumerate() {
            if alive {
                remap[i] = next;
                next += 1;
            }
        }
        let mut text = String::new();
        for &i in &self.inputs {
            text.push_str(&format!("INPUT({})\n", self.names[i]));
        }
        for &o in &self.outputs {
            text.push_str(&format!("OUTPUT({})\n", self.names[o]));
        }
        for (i, &alive) in live.iter().enumerate() {
            if !alive || self.kinds[i] == GateKind::Input {
                continue;
            }
            let args: Vec<&str> = self.fanins[i]
                .iter()
                .map(|&f| self.names[f].as_str())
                .collect();
            text.push_str(&format!(
                "{} = {}({})\n",
                self.names[i],
                self.kinds[i].bench_keyword(),
                args.join(", ")
            ));
        }
        let circuit = fires_netlist::bench::parse(&text)?;
        Ok((circuit, removed))
    }
}

/// Ties the faulty line to its stuck value and sweeps constants and dead
/// logic, yielding the simplified circuit.
///
/// Only sound for faults known to be redundant (e.g. identified by a
/// validated FIRES run); the caller is responsible for honouring the
/// fault's `c` (clock the replacement `c` times after power-up).
///
/// # Errors
///
/// Propagates [`NetlistError`] if the rewritten netlist fails validation
/// (which would indicate a bug rather than a user error).
pub fn remove_fault(
    circuit: &Circuit,
    lines: &LineGraph,
    fault: Fault,
) -> Result<Circuit, NetlistError> {
    let mut rw = Rewriter::from_circuit(circuit);
    match lines.line(fault.line).kind() {
        LineKind::Stem { node } if circuit.node(node).kind() == fires_netlist::GateKind::Input => {
            // A primary input stays on the interface: reroute every
            // consumer (and any PO observation) to a constant instead of
            // converting the input node itself.
            let k = rw.add_const(fault.stuck.as_bool());
            for fanin in &mut rw.fanins {
                for f in fanin {
                    if *f == node.index() {
                        *f = k;
                    }
                }
            }
            for o in &mut rw.outputs {
                if *o == node.index() {
                    *o = k;
                }
            }
        }
        LineKind::Stem { node } => {
            rw.make_const(node.index(), fault.stuck.as_bool());
        }
        LineKind::Branch { sink, pin, .. } => {
            let k = rw.add_const(fault.stuck.as_bool());
            rw.fanins[sink.index()][pin] = k;
        }
    }
    rw.into_circuit().map(|(c, _)| c)
}

/// Constant propagation and dead-logic sweep without removing any fault.
///
/// # Errors
///
/// Propagates [`NetlistError`] if the rewritten netlist fails validation.
pub fn sweep_constants(circuit: &Circuit) -> Result<Circuit, NetlistError> {
    Rewriter::from_circuit(circuit)
        .into_circuit()
        .map(|(c, _)| c)
}

/// Iterative redundancy removal: run FIRES, remove the first identified
/// fault, re-run, until no redundancy remains or `max_iterations` FIRES
/// passes have executed.
///
/// Removing one redundancy can create or destroy others, so faults are
/// removed one at a time with a fresh analysis in between — the iterative
/// procedure the paper's Section 7 describes, where FIRES "may at most have
/// to reanalyze previously analyzed stems".
///
/// # Errors
///
/// Propagates [`NetlistError`] from the rewriting step.
pub fn remove_redundancies(
    circuit: &Circuit,
    config: FiresConfig,
    max_iterations: usize,
) -> Result<RemovalOutcome, NetlistError> {
    assert!(
        config.validate,
        "removal requires validated (redundant) faults"
    );
    let mut clock = PhaseClock::start();
    let mut metrics = RunMetrics::new();
    let mut current = circuit.clone();
    let mut removed: Vec<(String, u32)> = Vec::new();
    let mut required_c = 0u32;
    let mut iterations = 0usize;
    while iterations < max_iterations {
        iterations += 1;
        clock.enter("analysis");
        let fires = Fires::new(&current, config);
        let report = fires.run();
        metrics.merge(report.metrics());
        clock.enter("rewrite");
        let mut candidates: Vec<IdentifiedFault> = report.redundant_faults().to_vec();
        candidates.sort_by_key(|f| (f.c, f.fault.line, f.fault.stuck));
        // Some redundant faults are no-ops to remove (e.g. s-a-1 on a line
        // already tied to 1 by an earlier removal); skip those so the loop
        // always makes progress.
        let before = fires_netlist::bench::to_text(&current);
        let mut progressed = false;
        for cand in candidates {
            let next = remove_fault(&current, report.lines(), cand.fault)?;
            if fires_netlist::bench::to_text(&next) == before {
                continue;
            }
            let name = cand.fault.display(report.lines(), &current);
            required_c = required_c.max(cand.c);
            removed.push((name, cand.c));
            current = next;
            progressed = true;
            break;
        }
        clock.exit();
        if !progressed {
            break;
        }
    }
    metrics.incr("removal.iterations", iterations as u64);
    metrics.incr("removal.faults_removed", removed.len() as u64);
    let nodes_before = circuit.node_ids().count();
    let nodes_after = current.node_ids().count();
    metrics.incr(
        "removal.nodes_swept",
        nodes_before.saturating_sub(nodes_after) as u64,
    );
    Ok(RemovalOutcome {
        circuit: current,
        removed,
        iterations,
        required_c,
        metrics,
        phase_times: clock.finish(),
    })
}

#[cfg(test)]
mod tests {
    use fires_netlist::bench;

    use super::*;

    #[test]
    fn sweep_folds_constants() {
        let c = bench::parse("INPUT(a)\nOUTPUT(z)\nk = CONST1()\nm = AND(a, k)\nz = BUFF(m)\n")
            .unwrap();
        let s = sweep_constants(&c).unwrap();
        // AND(a, 1) -> BUFF(a); the constant dies.
        assert!(s.find("k").is_none());
        assert_eq!(s.node(s.find("m").unwrap()).kind(), GateKind::Buf);
    }

    #[test]
    fn sweep_handles_controlling_constants_and_xor() {
        let c = bench::parse(
            "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\nk0 = CONST0()\nk1 = CONST1()\n\
             y = AND(a, k0)\nz = XOR(a, k1)\n",
        )
        .unwrap();
        let s = sweep_constants(&c).unwrap();
        assert_eq!(s.node(s.find("y").unwrap()).kind(), GateKind::Const0);
        // XOR(a, 1) -> NOT(a).
        assert_eq!(s.node(s.find("z").unwrap()).kind(), GateKind::Not);
    }

    #[test]
    fn remove_stem_fault_ties_whole_net() {
        let c = bench::parse("INPUT(a)\nOUTPUT(z)\nn = NOT(a)\nz = AND(a, n)\n").unwrap();
        let lg = LineGraph::build(&c);
        let z = lg.stem_of(c.find("z").unwrap());
        let s = remove_fault(&c, &lg, Fault::sa0(z)).unwrap();
        assert_eq!(s.node(s.find("z").unwrap()).kind(), GateKind::Const0);
        // Everything upstream died except the preserved PI.
        assert!(s.find("n").is_none());
        assert!(s.find("a").is_some());
    }

    #[test]
    fn remove_branch_fault_keeps_other_branch() {
        let c =
            bench::parse("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = BUFF(s)\nz = NOT(s)\ns = BUFF(a)\n")
                .unwrap();
        let lg = LineGraph::build(&c);
        let s_node = c.find("s").unwrap();
        let y = c.find("y").unwrap();
        let branch = lg
            .line(lg.stem_of(s_node))
            .branches()
            .iter()
            .copied()
            .find(|&b| lg.line(b).sink_pin().unwrap().0 == y)
            .unwrap();
        let out = remove_fault(&c, &lg, Fault::sa1(branch)).unwrap();
        // y is now constant 1; z still computes NOT(a).
        assert_eq!(out.node(out.find("y").unwrap()).kind(), GateKind::Const1);
        assert_eq!(out.node(out.find("z").unwrap()).kind(), GateKind::Not);
    }

    #[test]
    fn iterative_removal_cleans_figure3() {
        let c =
            bench::parse("INPUT(a)\nOUTPUT(d)\nOUTPUT(c)\nb = DFF(a)\nc = DFF(a)\nd = AND(b, c)\n")
                .unwrap();
        let out = remove_redundancies(&c, FiresConfig::default(), 20).unwrap();
        assert!(!out.removed.is_empty());
        assert!(out.iterations <= 20);
        // The cascade strictly shrinks the logic.
        assert!(out.circuit.num_gates() + out.circuit.num_dffs() < c.num_gates() + c.num_dffs());
        // The result is a c-cycle delayed replacement of the original.
        let limits = fires_verify::Limits::default();
        assert_eq!(
            fires_verify::is_c_cycle_replacement(&c, &out.circuit, out.required_c, &limits),
            Ok(true)
        );
        // Note: the paper's c_f rule may overestimate c ("a more global
        // analysis may be required to determine the minimum c_f"), so the
        // replacement may hold even for smaller c — no assertion on that.
    }

    #[test]
    fn removal_terminates_on_clean_circuit() {
        let c = bench::parse("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n").unwrap();
        let out = remove_redundancies(&c, FiresConfig::default(), 10).unwrap();
        assert!(out.removed.is_empty());
        assert_eq!(out.iterations, 1);
        assert_eq!(out.required_c, 0);
    }
}
