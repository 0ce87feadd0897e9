//! Alternating dual-rail test harness.
//!
//! Encodes logical input vectors into the xSFQ alternating protocol
//! (Figure 1: the value pulses during the excite phase, its complement
//! during relax), drives the pulse simulator, and decodes output pulses
//! back to logical values — including clock/trigger scheduling for
//! sequential and pipelined designs (§3.2).

use xsfq_netlist::{NetId, Netlist};

use crate::sim::PulseSim;

/// Result of a harness run.
#[derive(Clone, Debug)]
pub struct HarnessResult {
    /// Decoded output values, one vector per logical cycle (after latency).
    pub outputs: Vec<Vec<bool>>,
    /// Protocol violations recorded by the simulator.
    pub violations: usize,
    /// Whether every LA/FA cell was back in `Init` after the final cycle.
    pub reinitialized: bool,
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Harness<'a> {
    netlist: &'a Netlist,
    /// Per-output: `true` when the port carries the negative rail (decode
    /// inverts). Dual-rail netlists list each output's `_p` port.
    output_negative: Vec<bool>,
    /// Phase length in ps (must exceed the critical path delay).
    phase_ps: f64,
    /// Pipeline latency in logical cycles (number of DROC rank pairs).
    latency_cycles: usize,
}

impl<'a> Harness<'a> {
    /// Harness over a mapped netlist. `output_negative[i]` says output `i`
    /// retains the negative rail (from the flow's polarity assignment).
    pub fn new(netlist: &'a Netlist, output_negative: Vec<bool>) -> Self {
        assert_eq!(netlist.outputs().len(), output_negative.len());
        let phase_ps = netlist.stats().critical_delay_ps + 60.0;
        Harness {
            netlist,
            output_negative,
            phase_ps,
            latency_cycles: 0,
        }
    }

    /// Set the pipeline latency in logical cycles (= architectural stages).
    #[must_use]
    pub fn latency_cycles(mut self, cycles: usize) -> Self {
        self.latency_cycles = cycles;
        self
    }

    /// Nets of the dual-rail input ports, as `(pos, neg)` pairs in AIG
    /// input order. Ports are `name_p`/`name_n` pairs by construction.
    fn input_pairs(&self) -> Vec<(NetId, NetId)> {
        let ports = self.netlist.inputs();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < ports.len() {
            let name = &ports[i].name;
            if name == "const0_p" || name == "const0_n" {
                i += 1;
                continue;
            }
            assert!(
                name.ends_with("_p"),
                "expected a _p rail port, found '{name}'"
            );
            pairs.push((ports[i].net, ports[i + 1].net));
            i += 2;
        }
        pairs
    }

    fn const_ports(&self) -> (Option<NetId>, Option<NetId>) {
        let mut p = None;
        let mut n = None;
        for port in self.netlist.inputs() {
            if port.name == "const0_p" {
                p = Some(port.net);
            }
            if port.name == "const0_n" {
                n = Some(port.net);
            }
        }
        (p, n)
    }

    /// Drive `vectors` (one per logical cycle) through the design and
    /// decode the outputs.
    ///
    /// Clocked designs get the §3.2 schedule: trigger at the start of the
    /// warm-up cycle, then one clock edge per phase. Purely combinational
    /// designs run clock-free.
    ///
    /// # Panics
    ///
    /// Panics if a vector's width differs from the input count.
    pub fn run(&self, vectors: &[Vec<bool>]) -> HarnessResult {
        let mut sim = PulseSim::new(self.netlist);
        let pairs = self.input_pairs();
        let (const_p, const_n) = self.const_ports();
        let t = self.phase_ps;
        let clocked = self.netlist.cells().iter().any(|c| c.kind.is_clocked());
        // Schedule: trigger at 0; clock edges at T, 2T, 3T, …
        // Logical cycle k (0-based) occupies excite [T(2k+1), T(2k+2)) and
        // relax [T(2k+2), T(2k+3)).
        if clocked {
            sim.trigger(0.0);
            // Exactly one edge per phase, ending at the final cycle's relax
            // edge — a further edge would start an excite phase with no
            // input pulses and leave LA/FA cells half-armed.
            let total_edges = 2 * (vectors.len() + self.latency_cycles);
            for e in 1..=total_edges {
                sim.clock(e as f64 * t);
            }
        }
        let cycle_start = |k: usize| -> f64 {
            if clocked {
                (2 * k + 1) as f64 * t
            } else {
                (2 * k) as f64 * t
            }
        };
        // The alternating protocol never goes silent: a logical 0 still
        // pulses the negative rail every cycle. Keep the input converters
        // running with idle (all-zero) vectors while the pipeline drains,
        // exactly as hardware dual-to-single-rail converters would.
        let idle = vec![false; pairs.len()];
        for k in 0..vectors.len() + self.latency_cycles {
            let vector = vectors.get(k).unwrap_or(&idle);
            assert_eq!(vector.len(), pairs.len(), "vector width");
            let te = cycle_start(k) + 8.0; // margin after the clock edge
            let tr = te + t;
            for (&v, &(p, n)) in vector.iter().zip(&pairs) {
                let (excite_rail, relax_rail) = if v { (p, n) } else { (n, p) };
                sim.inject(excite_rail, te);
                sim.inject(relax_rail, tr);
            }
            if let Some(cp) = const_p {
                sim.inject(cp, tr); // value 0: pos rail pulses in relax
            }
            if let Some(cn) = const_n {
                sim.inject(cn, te);
            }
        }
        let end = cycle_start(vectors.len() + self.latency_cycles) + 2.0 * t;
        sim.run_until(end + t);

        // Decode: output cycle k corresponds to input cycle k - latency.
        let mut outputs = Vec::with_capacity(vectors.len());
        for k in 0..vectors.len() {
            let kk = k + self.latency_cycles;
            let te = cycle_start(kk);
            let tm = te + t;
            let tr = tm + t;
            let mut values = Vec::with_capacity(self.netlist.outputs().len());
            for (oi, port) in self.netlist.outputs().iter().enumerate() {
                let pulses = sim.pulses(port.net);
                let in_excite = pulses.iter().any(|&p| p >= te && p < tm);
                let in_relax = pulses.iter().any(|&p| p >= tm && p < tr);
                // Exactly one pulse per logical cycle on every live rail.
                let raw = match (in_excite, in_relax) {
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) | (false, false) => {
                        // Protocol break: count it and decode pessimistically.
                        false
                    }
                };
                values.push(raw ^ self.output_negative[oi]);
            }
            outputs.push(values);
        }
        HarnessResult {
            outputs,
            violations: sim.violations().len(),
            reinitialized: sim.all_logic_in_init_state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_cells::{CellKind, CellLibrary};

    /// Hand-built dual-rail AND (LA + FA pair) exercised through the
    /// alternating protocol.
    #[test]
    fn dual_rail_and_gate() {
        let mut n = Netlist::new("and", CellLibrary::xsfq_abutted());
        let ap = n.add_input("a_p");
        let an = n.add_input("a_n");
        let bp = n.add_input("b_p");
        let bn = n.add_input("b_n");
        let q = n.add_cell(CellKind::La, &[ap, bp])[0];
        let qn = n.add_cell(CellKind::Fa, &[an, bn])[0];
        n.add_output("q", q);
        n.add_output("qn", qn);
        let h = Harness::new(&n, vec![false, true]);
        let vectors: Vec<Vec<bool>> = vec![
            vec![false, false],
            vec![false, true],
            vec![true, false],
            vec![true, true],
        ];
        let r = h.run(&vectors);
        assert_eq!(r.violations, 0);
        assert!(r.reinitialized);
        for (v, out) in vectors.iter().zip(&r.outputs) {
            let expect = v[0] && v[1];
            assert_eq!(out[0], expect, "LA rail for {v:?}");
            assert_eq!(out[1], expect, "FA rail (decoded) for {v:?}");
        }
    }

    /// A single-rail output driven by an FA (negative polarity output).
    #[test]
    fn negative_polarity_output_decodes() {
        let mut n = Netlist::new("nand", CellLibrary::xsfq_abutted());
        let _ap = n.add_input("a_p");
        let an = n.add_input("a_n");
        let _bp = n.add_input("b_p");
        let bn = n.add_input("b_n");
        let qn = n.add_cell(CellKind::Fa, &[an, bn])[0];
        n.add_output("q", qn);
        let h = Harness::new(&n, vec![true]);
        let r = h.run(&[vec![true, true], vec![true, false]]);
        assert!(r.outputs[0][0], "1&1 = 1 via negative rail");
        assert!(!r.outputs[1][0], "1&0 = 0 via negative rail");
        assert_eq!(r.violations, 0);
    }
}
