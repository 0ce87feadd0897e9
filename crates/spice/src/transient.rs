//! Transient analysis of RCSJ circuits.
//!
//! State variables are node phases and phase rates; each step solves the
//! (small, dense) capacitance system `M·φ̈ = I_net(φ, φ̇, t)` and advances
//! with classic RK4. Every node carries a small parasitic capacitance so
//! the system stays well-posed even for junction-free nodes.

use crate::circuit::{Circuit, Node, K_PHI};

/// Result of a transient run: phase trajectories per node, sampled every
/// `sample_every` steps.
#[derive(Clone, Debug)]
pub struct Waveforms {
    /// Sample times (ps).
    pub time_ps: Vec<f64>,
    /// Node phases (rad), indexed `[node][sample]`.
    pub phase: Vec<Vec<f64>>,
    /// Node voltages (V), from `V = Φ0/2π · φ̇`, indexed `[node][sample]`.
    pub voltage: Vec<Vec<f64>>,
}

impl Waveforms {
    /// Phase across a junction (a minus b) at every sample.
    fn junction_phase(&self, circuit: &Circuit, junction: usize) -> Vec<f64> {
        let j = circuit.junctions()[junction];
        self.phase[j.a.index()]
            .iter()
            .zip(&self.phase[j.b.index()])
            .map(|(pa, pb)| pa - pb)
            .collect()
    }

    /// Times (ps) at which a junction slips by 2π — i.e. emits an SFQ
    /// pulse. Detected as crossings of odd multiples of π.
    pub fn pulse_times(&self, circuit: &Circuit, junction: usize) -> Vec<f64> {
        let phases = self.junction_phase(circuit, junction);
        let mut out = Vec::new();
        let mut next_threshold = std::f64::consts::PI;
        for (i, &p) in phases.iter().enumerate() {
            while p > next_threshold {
                out.push(self.time_ps[i]);
                next_threshold += 2.0 * std::f64::consts::PI;
            }
        }
        out
    }

    /// Total 2π slips of a junction over the run.
    pub fn pulse_count(&self, circuit: &Circuit, junction: usize) -> usize {
        self.pulse_times(circuit, junction).len()
    }
}

/// Transient simulation options.
#[derive(Copy, Clone, Debug)]
pub struct TransientOptions {
    /// Time step (ps). SFQ pulses are ~2 ps wide; 0.02 ps resolves them.
    pub dt_ps: f64,
    /// End time (ps).
    pub t_end_ps: f64,
    /// Keep every n-th sample.
    pub sample_every: usize,
    /// Parasitic capacitance per node (F).
    pub parasitic_c: f64,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            dt_ps: 0.02,
            t_end_ps: 200.0,
            sample_every: 10,
            parasitic_c: 1e-15,
        }
    }
}

/// Run a transient analysis.
///
/// # Panics
///
/// Panics if the circuit has no nodes beyond ground.
pub fn transient(circuit: &Circuit, options: &TransientOptions) -> Waveforms {
    let n = circuit.num_nodes();
    assert!(n > 1, "empty circuit");
    let free = n - 1; // ground is fixed at phase 0
    let dt = options.dt_ps * 1e-12;

    // Capacitance matrix (free nodes only), constant over the run.
    let mut m = vec![0.0f64; free * free];
    for i in 0..free {
        m[i * free + i] += options.parasitic_c * K_PHI;
    }
    for j in circuit.junctions() {
        let (a, b) = (j.a.index(), j.b.index());
        let ck = j.c * K_PHI;
        if a > 0 {
            m[(a - 1) * free + (a - 1)] += ck;
        }
        if b > 0 {
            m[(b - 1) * free + (b - 1)] += ck;
        }
        if a > 0 && b > 0 {
            m[(a - 1) * free + (b - 1)] -= ck;
            m[(b - 1) * free + (a - 1)] -= ck;
        }
    }
    let m_factored = lu_factor(m, free);

    let mut phase = vec![0.0f64; n];
    let mut rate = vec![0.0f64; n];
    let mut wf = Waveforms {
        time_ps: Vec::new(),
        phase: vec![Vec::new(); n],
        voltage: vec![Vec::new(); n],
    };

    let accel = |phase: &[f64], rate: &[f64], t: f64, out: &mut Vec<f64>| {
        // Net current into each free node (excluding capacitive terms).
        let mut i_net = vec![0.0f64; free];
        let mut add = |node: Node, amps: f64| {
            if node.index() > 0 {
                i_net[node.index() - 1] += amps;
            }
        };
        for j in circuit.junctions() {
            let dphi = phase[j.a.index()] - phase[j.b.index()];
            let drate = rate[j.a.index()] - rate[j.b.index()];
            let i = j.ic * dphi.sin() + K_PHI * drate / j.r;
            add(j.a, -i);
            add(j.b, i);
        }
        for l in circuit.inductors() {
            let dphi = phase[l.a.index()] - phase[l.b.index()];
            let i = K_PHI * dphi / l.l;
            add(l.a, -i);
            add(l.b, i);
        }
        for s in circuit.sources() {
            add(s.node, s.wave.at(t));
        }
        lu_solve(&m_factored, free, &i_net, out);
    };

    let steps = (options.t_end_ps / options.dt_ps).ceil() as usize;
    let mut a1 = vec![0.0; free];
    let mut a2 = vec![0.0; free];
    let mut a3 = vec![0.0; free];
    let mut a4 = vec![0.0; free];
    let mut tmp_phase = vec![0.0f64; n];
    let mut tmp_rate = vec![0.0f64; n];
    for step in 0..=steps {
        let t = step as f64 * dt;
        if step % options.sample_every == 0 {
            wf.time_ps.push(t * 1e12);
            for i in 0..n {
                wf.phase[i].push(phase[i]);
                wf.voltage[i].push(K_PHI * rate[i]);
            }
        }
        // RK4 on (phase, rate).
        accel(&phase, &rate, t, &mut a1);
        for i in 1..n {
            tmp_phase[i] = phase[i] + 0.5 * dt * rate[i];
            tmp_rate[i] = rate[i] + 0.5 * dt * a1[i - 1];
        }
        accel(&tmp_phase, &tmp_rate, t + 0.5 * dt, &mut a2);
        let k2_rate: Vec<f64> = tmp_rate.clone();
        for i in 1..n {
            tmp_phase[i] = phase[i] + 0.5 * dt * k2_rate[i];
            tmp_rate[i] = rate[i] + 0.5 * dt * a2[i - 1];
        }
        accel(&tmp_phase, &tmp_rate, t + 0.5 * dt, &mut a3);
        let k3_rate: Vec<f64> = tmp_rate.clone();
        for i in 1..n {
            tmp_phase[i] = phase[i] + dt * k3_rate[i];
            tmp_rate[i] = rate[i] + dt * a3[i - 1];
        }
        accel(&tmp_phase, &tmp_rate, t + dt, &mut a4);
        let k4_rate: Vec<f64> = tmp_rate.clone();
        for i in 1..n {
            let k1p = rate[i];
            let k2p = k2_rate[i];
            let k3p = k3_rate[i];
            let k4p = k4_rate[i];
            phase[i] += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p);
            rate[i] += dt / 6.0 * (a1[i - 1] + 2.0 * a2[i - 1] + 2.0 * a3[i - 1] + a4[i - 1]);
        }
    }
    wf
}

/// LU factorization with partial pivoting (row-major, in place).
fn lu_factor(mut m: Vec<f64>, n: usize) -> (Vec<f64>, Vec<usize>) {
    let mut perm: Vec<usize> = (0..n).collect();
    for col in 0..n {
        // Pivot.
        let mut best = col;
        for row in col + 1..n {
            if m[row * n + col].abs() > m[best * n + col].abs() {
                best = row;
            }
        }
        if best != col {
            perm.swap(col, best);
            for k in 0..n {
                m.swap(col * n + k, best * n + k);
            }
        }
        let pivot = m[col * n + col];
        // Entries are C·Φ0/2π ≈ 1e-31-scale for parasitic-only nodes.
        assert!(pivot.abs() > 1e-45, "singular capacitance matrix");
        for row in col + 1..n {
            let f = m[row * n + col] / pivot;
            m[row * n + col] = f;
            for k in col + 1..n {
                m[row * n + k] -= f * m[col * n + k];
            }
        }
    }
    (m, perm)
}

fn lu_solve(factored: &(Vec<f64>, Vec<usize>), n: usize, b: &[f64], out: &mut Vec<f64>) {
    let (m, perm) = factored;
    out.clear();
    out.extend(perm.iter().map(|&p| b[p]));
    // Forward substitution.
    for row in 1..n {
        for col in 0..row {
            let f = m[row * n + col];
            let prev = out[col];
            out[row] -= f * prev;
        }
    }
    // Back substitution.
    for row in (0..n).rev() {
        for col in row + 1..n {
            let x = out[col];
            out[row] -= m[row * n + col] * x;
        }
        out[row] /= m[row * n + row];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    /// A single biased junction kicked by a pulse slips by exactly 2π.
    #[test]
    fn single_junction_emits_one_fluxon() {
        let mut c = Circuit::new();
        let n1 = c.node();
        let j = c.junction(n1, Node::GROUND, 100e-6, 6.0, 0.2e-12);
        c.bias(n1, 70e-6); // 0.7 Ic
        c.pulse(n1, 20.0, 120e-6, 3.0);
        let wf = transient(&c, &TransientOptions::default());
        assert_eq!(wf.pulse_count(&c, j), 1, "one kick, one fluxon");
        // Phase settles near 2π + asin(0.7).
        let final_phase = *wf.junction_phase(&c, j).last().unwrap();
        let expect = 2.0 * std::f64::consts::PI + 0.7f64.asin();
        assert!(
            (final_phase - expect).abs() < 0.5,
            "settles at {final_phase:.2}, expected ≈{expect:.2}"
        );
    }

    /// Without a kick, a sub-critical bias never makes the junction slip.
    #[test]
    fn subcritical_bias_is_quiet() {
        let mut c = Circuit::new();
        let n1 = c.node();
        let j = c.junction(n1, Node::GROUND, 100e-6, 6.0, 0.2e-12);
        c.bias(n1, 70e-6);
        let wf = transient(&c, &TransientOptions::default());
        assert_eq!(wf.pulse_count(&c, j), 0);
    }

    /// An overdriven junction oscillates (many slips) — sanity that the
    /// integrator handles the running state.
    #[test]
    fn overdriven_junction_runs() {
        let mut c = Circuit::new();
        let n1 = c.node();
        let j = c.junction(n1, Node::GROUND, 100e-6, 6.0, 0.2e-12);
        c.bias(n1, 150e-6); // 1.5 Ic
        let wf = transient(&c, &TransientOptions::default());
        assert!(wf.pulse_count(&c, j) > 5, "running junction keeps slipping");
    }

    #[test]
    fn lu_solves_small_systems() {
        let m = vec![4.0, 1.0, 2.0, 3.0];
        let f = lu_factor(m, 2);
        let mut x = Vec::new();
        lu_solve(&f, 2, &[9.0, 13.0], &mut x);
        // 4x + y = 9; 2x + 3y = 13 → x = 1.4, y = 3.4
        assert!((x[0] - 1.4).abs() < 1e-9);
        assert!((x[1] - 3.4).abs() < 1e-9);
    }
}
