//! Analog cell schematics (MIT-LL SFQ5ee-class parameters: 100 µA-scale
//! junctions, ~3 pH interconnect inductors, 0.7·Ic biasing).
//!
//! These are the circuits behind the paper's Figure 2/3 waveforms and the
//! Table 2 delay characterization. Absolute numbers differ from the
//! fab-calibrated HSPICE models, but pulse propagation, storage and
//! thresholding behave identically; the characterization flow
//! ([`crate::characterize`]) extracts delays the same way (§2.3).

use crate::circuit::{Circuit, Node};

/// Default junction critical current (A).
pub const IC: f64 = 100e-6;
/// Default shunt resistance (Ω), βc ≈ 1 territory.
pub const RSHUNT: f64 = 6.0;
/// Default junction capacitance (F).
pub const CJ: f64 = 0.05e-12;
/// Interconnect inductance (H).
pub const LJTL: f64 = 3e-12;
/// Bias fraction of Ic.
pub const BIAS: f64 = 0.7;

/// A cell instance: the circuit plus labeled observation points.
#[derive(Clone, Debug)]
pub struct CellFixture {
    /// The analog circuit.
    pub circuit: Circuit,
    /// Input nodes (pulse injection points), in port order.
    pub inputs: Vec<Node>,
    /// Junction indices whose 2π slips constitute the cell's output(s).
    pub output_junctions: Vec<usize>,
}

/// An `n`-stage Josephson transmission line. Output is the last junction.
pub fn jtl_chain(stages: usize) -> CellFixture {
    let mut c = Circuit::new();
    let input = c.node();
    let mut prev = input;
    let mut last_jj = 0;
    for _ in 0..stages {
        let n = c.node();
        c.inductor(prev, n, LJTL);
        last_jj = c.junction(n, Node::GROUND, IC, RSHUNT, CJ);
        c.bias(n, BIAS * IC);
        prev = n;
    }
    CellFixture {
        circuit: c,
        inputs: vec![input],
        output_junctions: vec![last_jj],
    }
}

/// 1→2 splitter: an oversized input junction drives two half-sized output
/// branches.
pub fn splitter() -> CellFixture {
    let mut c = Circuit::new();
    let input = c.node();
    let hub = c.node();
    c.inductor(input, hub, LJTL);
    let _j_in = c.junction(hub, Node::GROUND, 1.4 * IC, RSHUNT / 1.4, 1.4 * CJ);
    c.bias(hub, BIAS * 1.4 * IC);
    let mut outs = Vec::new();
    for _ in 0..2 {
        let n = c.node();
        c.inductor(hub, n, LJTL);
        let j = c.junction(n, Node::GROUND, IC, RSHUNT, CJ);
        c.bias(n, BIAS * IC);
        outs.push(j);
    }
    CellFixture {
        circuit: c,
        inputs: vec![input],
        output_junctions: outs,
    }
}

/// Last-Arrival cell (Muller C element, dual-rail AND — paper Figure 2i).
///
/// Two storage loops share an output junction. Each input pulse flips its
/// storage junction, parking one fluxon whose circulating current alone
/// cannot fire the output; the second fluxon pushes it over threshold.
/// The output 2π slip discharges both loops, reinitializing the cell.
/// Four junctions: two storage, one output, one output-side buffer for
/// cascadability (the `I_C` ranking rule of §2.1).
pub fn la_cell() -> CellFixture {
    let mut c = Circuit::new();
    let ic_out = 1.5 * IC;
    let out = c.node();
    let j_out = c.junction(out, Node::GROUND, ic_out, RSHUNT / 1.5, 1.5 * CJ);
    c.bias(out, 0.60 * ic_out);
    let mut inputs = Vec::new();
    for _ in 0..2 {
        let i_node = c.node();
        let s = c.node();
        c.inductor(i_node, s, LJTL);
        let _j_store = c.junction(s, Node::GROUND, IC, RSHUNT, CJ);
        c.bias(s, BIAS * IC);
        // Storage loop: sized so one fluxon contributes ≈ 0.25 · Ic_out.
        c.inductor(s, out, 55e-12);
        inputs.push(i_node);
    }
    // Output buffer junction for cascadability (4th JJ).
    let buf = c.node();
    c.inductor(out, buf, LJTL);
    let j_buf = c.junction(buf, Node::GROUND, IC, RSHUNT, CJ);
    c.bias(buf, BIAS * IC);
    let _ = j_out;
    CellFixture {
        circuit: c,
        inputs,
        output_junctions: vec![j_buf],
    }
}

/// First-Arrival cell (inverse C element, dual-rail OR — paper Figure 2ii).
///
/// The first pulse propagates straight through the merger to the output
/// and simultaneously loads a hold loop whose circulating current lowers
/// the escape junction's threshold; the second pulse is diverted through
/// the escape path (annihilating the held fluxon) and never reaches the
/// output. Four junctions: two input, one escape, one output.
pub fn fa_cell() -> CellFixture {
    let mut c = Circuit::new();
    let hub = c.node();
    let mut inputs = Vec::new();
    let mut input_jjs = Vec::new();
    for _ in 0..2 {
        let i_node = c.node();
        let n = c.node();
        c.inductor(i_node, n, LJTL);
        let j = c.junction(n, Node::GROUND, IC, RSHUNT, CJ);
        c.bias(n, BIAS * IC);
        c.inductor(n, hub, LJTL);
        inputs.push(i_node);
        input_jjs.push(j);
    }
    // Escape junction: swallows the second pulse once the hold loop is
    // charged (its bias is raised by the held circulating current).
    let esc = c.node();
    c.inductor(hub, esc, 18e-12);
    let _j_esc = c.junction(esc, Node::GROUND, 0.8 * IC, RSHUNT / 0.8, 0.8 * CJ);
    // Output junction.
    let out = c.node();
    c.inductor(hub, out, LJTL);
    let j_out = c.junction(out, Node::GROUND, IC, RSHUNT, CJ);
    c.bias(out, BIAS * IC);
    CellFixture {
        circuit: c,
        inputs,
        output_junctions: vec![j_out],
    }
}

/// Destructive read-out (DRO) storage loop with a clock port and a DC
/// preload port — the §2.2 / Figure 3 demonstration vehicle. Input pulses
/// load the loop; a clock pulse reads it out destructively (a pulse
/// emerges iff the loop was loaded). The preload port injects the same
/// loop flux from a DC step, no SFQ routing needed.
pub fn dro_cell() -> CellFixture {
    let mut c = Circuit::new();
    let d = c.node();
    let s = c.node();
    c.inductor(d, s, LJTL);
    let _j_in = c.junction(s, Node::GROUND, IC, RSHUNT, CJ);
    c.bias(s, 0.6 * IC);
    // Storage loop into the readout comparator (30 pH keeps the held
    // fluxon's circulating current below the read junction's headroom).
    let r = c.node();
    c.inductor(s, r, 30e-12);
    let j_read = c.junction(r, Node::GROUND, 1.3 * IC, RSHUNT / 1.3, 1.3 * CJ);
    c.bias(r, 0.55 * 1.3 * IC);
    let clk = c.node();
    c.inductor(clk, r, LJTL);
    // Preload: DC step into the storage node (discrete DC-to-SFQ stage).
    let preload = c.node();
    c.inductor(preload, s, 20e-12);
    CellFixture {
        circuit: c,
        inputs: vec![d, clk, preload],
        output_junctions: vec![j_read],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::{transient, TransientOptions};

    fn opts(t_end: f64) -> TransientOptions {
        TransientOptions {
            t_end_ps: t_end,
            ..Default::default()
        }
    }

    const KICK: f64 = 500e-6;
    /// Clock kicks are gentler: they must tip a loaded comparator without
    /// firing an empty one.
    const CLK_KICK: f64 = 150e-6;
    const KICK_W: f64 = 2.0;

    #[test]
    fn jtl_propagates_single_pulse() {
        let mut fx = jtl_chain(4);
        fx.circuit.pulse(fx.inputs[0], 10.0, KICK, KICK_W);
        let wf = transient(&fx.circuit, &opts(100.0));
        assert_eq!(
            wf.pulse_count(&fx.circuit, fx.output_junctions[0]),
            1,
            "one pulse in, one pulse out"
        );
        let t = wf.pulse_times(&fx.circuit, fx.output_junctions[0])[0];
        assert!(t > 10.0 && t < 60.0, "arrives with finite delay, got {t}");
    }

    #[test]
    fn jtl_propagates_pulse_train() {
        let mut fx = jtl_chain(3);
        for k in 0..4 {
            fx.circuit
                .pulse(fx.inputs[0], 20.0 + 40.0 * k as f64, KICK, KICK_W);
        }
        let wf = transient(&fx.circuit, &opts(220.0));
        assert_eq!(wf.pulse_count(&fx.circuit, fx.output_junctions[0]), 4);
    }

    #[test]
    fn splitter_duplicates() {
        let mut fx = splitter();
        fx.circuit.pulse(fx.inputs[0], 10.0, KICK, KICK_W);
        let wf = transient(&fx.circuit, &opts(100.0));
        assert_eq!(wf.pulse_count(&fx.circuit, fx.output_junctions[0]), 1);
        assert_eq!(wf.pulse_count(&fx.circuit, fx.output_junctions[1]), 1);
    }

    #[test]
    fn la_fires_only_on_last_arrival() {
        // Single input: no output.
        let mut fx = la_cell();
        fx.circuit.pulse(fx.inputs[0], 10.0, KICK, KICK_W);
        let wf = transient(&fx.circuit, &opts(120.0));
        assert_eq!(
            wf.pulse_count(&fx.circuit, fx.output_junctions[0]),
            0,
            "LA must hold after one input"
        );
        // Both inputs: one output after the second arrival.
        let mut fx = la_cell();
        fx.circuit.pulse(fx.inputs[0], 10.0, KICK, KICK_W);
        fx.circuit.pulse(fx.inputs[1], 40.0, KICK, KICK_W);
        let wf = transient(&fx.circuit, &opts(160.0));
        assert_eq!(
            wf.pulse_count(&fx.circuit, fx.output_junctions[0]),
            1,
            "LA fires once after both inputs"
        );
        let t = wf.pulse_times(&fx.circuit, fx.output_junctions[0])[0];
        assert!(t > 40.0, "fires after the last arrival, got {t}");
    }

    #[test]
    fn fa_fires_on_first_arrival() {
        let mut fx = fa_cell();
        fx.circuit.pulse(fx.inputs[0], 10.0, KICK, KICK_W);
        let wf = transient(&fx.circuit, &opts(120.0));
        assert_eq!(
            wf.pulse_count(&fx.circuit, fx.output_junctions[0]),
            1,
            "FA fires on the first input"
        );
        let t = wf.pulse_times(&fx.circuit, fx.output_junctions[0])[0];
        assert!(t > 10.0 && t < 60.0);
    }

    #[test]
    fn dro_reads_out_destructively() {
        // Load then clock → pulse; clock again → nothing.
        let mut fx = dro_cell();
        fx.circuit.pulse(fx.inputs[0], 10.0, KICK, KICK_W);
        fx.circuit.pulse(fx.inputs[1], 60.0, CLK_KICK, KICK_W);
        fx.circuit.pulse(fx.inputs[1], 120.0, CLK_KICK, KICK_W);
        let wf = transient(&fx.circuit, &opts(180.0));
        let pulses = wf.pulse_times(&fx.circuit, fx.output_junctions[0]);
        assert_eq!(pulses.len(), 1, "destructive readout: {pulses:?}");
        assert!(pulses[0] > 60.0 && pulses[0] < 120.0);
    }

    #[test]
    fn dro_preloads_from_dc_line_window() {
        // Figure 3: the DC line is energized during initialization (5–45
        // ps window), loading exactly one fluxon; the first clock reads a
        // 1, the second reads a 0.
        let mut fx = dro_cell();
        fx.circuit.pulse(fx.inputs[2], 5.0, 60e-6, 40.0);
        fx.circuit.pulse(fx.inputs[1], 80.0, CLK_KICK, KICK_W);
        fx.circuit.pulse(fx.inputs[1], 140.0, CLK_KICK, KICK_W);
        let wf = transient(&fx.circuit, &opts(200.0));
        let pulses = wf.pulse_times(&fx.circuit, fx.output_junctions[0]);
        assert_eq!(
            pulses.len(),
            1,
            "exactly one readout (the preloaded 1): {pulses:?}"
        );
        assert!(pulses[0] > 80.0 && pulses[0] < 140.0, "on the first clock");
    }
}
