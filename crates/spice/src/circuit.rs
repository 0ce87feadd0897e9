//! Circuit description for the RCSJ transient simulator.
//!
//! Components connect nodes; node 0 is ground. Josephson junctions follow
//! the resistively-and-capacitively-shunted-junction model
//! (`I = Ic·sin φ + V/R + C·dV/dt` with `V = Φ0/2π · dφ/dt`), the standard
//! model behind HSPICE superconducting decks (paper §2.3).

/// Magnetic flux quantum (Wb).
pub const PHI0: f64 = 2.067_833_848e-15;

/// `Φ0 / 2π` — the phase-to-voltage scale factor.
pub const K_PHI: f64 = PHI0 / (2.0 * std::f64::consts::PI);

/// A circuit node handle. Node 0 is ground.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The ground node.
    pub const GROUND: Node = Node(0);

    /// Dense index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A Josephson junction (RCSJ model).
#[derive(Copy, Clone, Debug)]
pub struct Junction {
    /// Positive terminal.
    pub a: Node,
    /// Negative terminal.
    pub b: Node,
    /// Critical current (A).
    pub ic: f64,
    /// Shunt resistance (Ω).
    pub r: f64,
    /// Junction capacitance (F).
    pub c: f64,
}

/// A (superconducting) inductor.
#[derive(Copy, Clone, Debug)]
pub struct Inductor {
    /// Positive terminal.
    pub a: Node,
    /// Negative terminal.
    pub b: Node,
    /// Inductance (H).
    pub l: f64,
}

/// A current source waveform.
#[derive(Copy, Clone, Debug)]
pub enum Waveform {
    /// Constant bias current (A).
    Dc(f64),
    /// A raised-sine pulse `A·sin²(π(t−t0)/w)` for `t ∈ [t0, t0+w]`,
    /// times in seconds.
    Pulse {
        /// Peak amplitude (A).
        amplitude: f64,
        /// Start time (s).
        t0: f64,
        /// Width (s).
        width: f64,
    },
}

impl Waveform {
    /// Instantaneous current at time `t` (seconds).
    pub fn at(&self, t: f64) -> f64 {
        match *self {
            Waveform::Dc(i) => i,
            Waveform::Pulse {
                amplitude,
                t0,
                width,
            } => {
                if t < t0 || t > t0 + width {
                    0.0
                } else {
                    let x = (t - t0) / width;
                    amplitude * (std::f64::consts::PI * x).sin().powi(2)
                }
            }
        }
    }
}

/// A current source injecting into a node (returning via ground).
#[derive(Copy, Clone, Debug)]
pub struct CurrentSource {
    /// Injection node.
    pub node: Node,
    /// Waveform.
    pub wave: Waveform,
}

/// A circuit under construction.
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    num_nodes: usize,
    junctions: Vec<Junction>,
    inductors: Vec<Inductor>,
    sources: Vec<CurrentSource>,
}

impl Circuit {
    /// New empty circuit (ground pre-allocated).
    pub fn new() -> Self {
        Circuit {
            num_nodes: 1,
            ..Default::default()
        }
    }

    /// Allocate a fresh node.
    pub fn node(&mut self) -> Node {
        let n = Node(self.num_nodes);
        self.num_nodes += 1;
        n
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Add a junction; returns its index (for phase readout).
    pub fn junction(&mut self, a: Node, b: Node, ic: f64, r: f64, c: f64) -> usize {
        self.junctions.push(Junction { a, b, ic, r, c });
        self.junctions.len() - 1
    }

    /// Add an inductor.
    pub fn inductor(&mut self, a: Node, b: Node, l: f64) {
        self.inductors.push(Inductor { a, b, l });
    }

    /// Add a DC bias current into `node`.
    pub fn bias(&mut self, node: Node, amps: f64) {
        self.sources.push(CurrentSource {
            node,
            wave: Waveform::Dc(amps),
        });
    }

    /// Add an input pulse (typical SFQ kick: ~0.6 mA over ~2 ps).
    pub fn pulse(&mut self, node: Node, t0_ps: f64, amplitude: f64, width_ps: f64) {
        self.sources.push(CurrentSource {
            node,
            wave: Waveform::Pulse {
                amplitude,
                t0: t0_ps * 1e-12,
                width: width_ps * 1e-12,
            },
        });
    }

    /// Junctions (read access for the solver and analyses).
    pub fn junctions(&self) -> &[Junction] {
        &self.junctions
    }

    /// Inductors.
    pub fn inductors(&self) -> &[Inductor] {
        &self.inductors
    }

    /// Sources.
    pub fn sources(&self) -> &[CurrentSource] {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waveforms_evaluate() {
        let dc = Waveform::Dc(1e-4);
        assert_eq!(dc.at(0.0), 1e-4);
        let p = Waveform::Pulse {
            amplitude: 1e-3,
            t0: 1e-12,
            width: 2e-12,
        };
        assert_eq!(p.at(0.0), 0.0);
        assert!((p.at(2e-12) - 1e-3).abs() < 1e-12, "peak at midpoint");
        assert_eq!(p.at(4e-12), 0.0);
    }

    #[test]
    fn circuit_construction() {
        let mut c = Circuit::new();
        let n1 = c.node();
        let n2 = c.node();
        let j = c.junction(n1, Node::GROUND, 1e-4, 5.0, 1e-13);
        c.inductor(n1, n2, 3e-12);
        c.bias(n1, 7e-5);
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(j, 0);
        assert_eq!(c.junctions().len(), 1);
    }
}
