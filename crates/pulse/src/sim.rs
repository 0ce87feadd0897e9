//! Event-driven pulse simulation of xSFQ netlists.
//!
//! Each SFQ pulse is a discrete event. Cells are finite state machines with
//! exactly the semantics of the paper's Table 1: the LA (Muller C element)
//! fires on the *last* arrival and returns to `Init`; the FA (inverse C
//! element) fires on the *first* arrival and swallows the second; DRO/DROC
//! cells capture a pulse and report it (or its absence) at the next clock.
//!
//! The simulator also checks the protocol invariants the paper's
//! correctness argument rests on: no cell may receive a second pulse on an
//! already-armed input, and after every logical cycle all LA/FA cells must
//! be back in their initial state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use xsfq_cells::CellKind;
use xsfq_netlist::{CellId, Driver, NetId, Netlist};

/// Min-heap entry: (time, sequence, net, is-clock, target cell), wrapped in
/// `Reverse` for earliest-first ordering.
type PulseEvent = Reverse<(Time, u64, NetId, bool, CellId)>;

/// Simulation time in picoseconds (totally ordered wrapper).
#[derive(Copy, Clone, PartialEq, Debug)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Event {
    /// A pulse lands on a net.
    Pulse(NetId),
    /// A clock edge reaches a cell's (implicit) clock pin.
    Clock(CellId),
}

/// A detected protocol violation.
#[derive(Clone, PartialEq, Debug)]
pub enum Violation {
    /// An LA/FA input saw a second pulse before the cell reset.
    DoubleArrival {
        /// Offending cell.
        cell: usize,
        /// Time of the second pulse.
        time_ps: f64,
    },
    /// A storage cell captured a second data pulse before being clocked.
    StorageOverrun {
        /// Offending cell.
        cell: usize,
        /// Time of the second pulse.
        time_ps: f64,
    },
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum CellState {
    /// LA/FA: which inputs have arrived since the last firing.
    Arrivals { a: bool, b: bool },
    /// DRO/DROC: whether a data pulse is captured.
    Loaded(bool),
    /// Stateless cells (JTL, splitter, merger, DC-to-SFQ).
    None,
}

/// Event-driven pulse simulator over a physical xSFQ netlist.
///
/// ```
/// use xsfq_cells::{CellKind, CellLibrary};
/// use xsfq_netlist::Netlist;
/// use xsfq_pulse::PulseSim;
///
/// // A single LA cell: fires only after both inputs pulse (Table 1).
/// let mut n = Netlist::new("la", CellLibrary::xsfq_abutted());
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let q = n.add_cell(CellKind::La, &[a, b])[0];
/// n.add_output("q", q);
///
/// let mut sim = PulseSim::new(&n);
/// sim.inject(a, 10.0);
/// sim.run_until(100.0);
/// assert!(sim.pulses(q).is_empty(), "one arrival must not fire");
/// sim.inject(b, 110.0);
/// sim.run_until(200.0);
/// assert_eq!(sim.pulses(q).len(), 1, "last arrival fires");
/// assert!(sim.all_logic_in_init_state());
/// ```
#[derive(Debug)]
pub struct PulseSim<'a> {
    netlist: &'a Netlist,
    queue: BinaryHeap<PulseEvent>,
    seq: u64,
    now: f64,
    states: Vec<CellState>,
    sinks: Vec<Vec<(CellId, usize)>>,
    traces: Vec<Vec<f64>>,
    violations: Vec<Violation>,
}

impl<'a> PulseSim<'a> {
    /// Build a simulator for a netlist (with splitters already inserted —
    /// multi-fanout nets broadcast instantaneously otherwise).
    pub fn new(netlist: &'a Netlist) -> Self {
        let states = netlist
            .cells()
            .iter()
            .map(|c| match c.kind {
                CellKind::La | CellKind::Fa => CellState::Arrivals { a: false, b: false },
                CellKind::Droc { preload } => CellState::Loaded(preload),
                CellKind::RsfqDff => CellState::Loaded(false),
                _ => CellState::None,
            })
            .collect();
        let mut sinks = vec![Vec::new(); netlist.num_nets()];
        for (ci, cell) in netlist.cells().iter().enumerate() {
            for (pin, &net) in cell.inputs.iter().enumerate() {
                sinks[net.index()].push((CellId::from_index(ci), pin));
            }
        }
        PulseSim {
            netlist,
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            states,
            sinks,
            traces: vec![Vec::new(); netlist.num_nets()],
            violations: Vec::new(),
        }
    }

    /// Current simulation time (ps).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Recorded pulse times on a net.
    pub fn pulses(&self, net: NetId) -> &[f64] {
        &self.traces[net.index()]
    }

    /// Protocol violations observed so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when every LA/FA cell is back in its `Init` state — the
    /// end-of-logical-cycle invariant of Table 1.
    pub fn all_logic_in_init_state(&self) -> bool {
        self.states.iter().all(|s| {
            !matches!(
                s,
                CellState::Arrivals { a: true, .. } | CellState::Arrivals { b: true, .. }
            )
        })
    }

    /// Inject an external pulse on a net at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time_ps` is in the simulator's past.
    pub fn inject(&mut self, net: NetId, time_ps: f64) {
        assert!(time_ps >= self.now, "cannot inject into the past");
        self.push_pulse(net, time_ps);
    }

    /// Schedule a clock edge for every regularly clocked cell (storage
    /// cells not marked trigger-clocked receive it; trigger-clocked cells
    /// receive regular clocks too, matching the merged trigger/clock line).
    pub fn clock(&mut self, time_ps: f64) {
        assert!(time_ps >= self.now, "cannot clock in the past");
        for (ci, cell) in self.netlist.cells().iter().enumerate() {
            if cell.kind.is_clocked() {
                self.push_clock(CellId::from_index(ci), time_ps);
            }
        }
    }

    /// Fire the one-shot trigger (§3.2): a clock edge delivered only to the
    /// trigger-clocked (first-rank, preloaded) storage cells.
    pub fn trigger(&mut self, time_ps: f64) {
        assert!(time_ps >= self.now, "cannot trigger in the past");
        for &cell in self.netlist.trigger_clocked() {
            self.push_clock(cell, time_ps);
        }
    }

    fn push_pulse(&mut self, net: NetId, t: f64) {
        self.seq += 1;
        self.queue.push(Reverse((
            Time(t),
            self.seq,
            net,
            false,
            CellId::from_index(0),
        )));
    }

    fn push_clock(&mut self, cell: CellId, t: f64) {
        self.seq += 1;
        self.queue.push(Reverse((
            Time(t),
            self.seq,
            NetId::from_index(0),
            true,
            cell,
        )));
    }

    /// Run until the queue is exhausted or `deadline` is reached.
    pub fn run_until(&mut self, deadline: f64) {
        while let Some(&Reverse((Time(t), _, net, is_clock, cell))) = self.queue.peek() {
            if t > deadline {
                break;
            }
            self.queue.pop();
            self.now = t;
            let event = if is_clock {
                Event::Clock(cell)
            } else {
                Event::Pulse(net)
            };
            self.dispatch(event, t);
        }
        self.now = self.now.max(deadline);
    }

    fn dispatch(&mut self, event: Event, t: f64) {
        match event {
            Event::Pulse(net) => {
                self.traces[net.index()].push(t);
                let sinks = self.sinks[net.index()].clone();
                for (cell, pin) in sinks {
                    self.deliver(cell, pin, t);
                }
            }
            Event::Clock(cell) => self.clock_cell(cell, t),
        }
    }

    fn deliver(&mut self, cell_id: CellId, pin: usize, t: f64) {
        let cell = self.netlist.cell(cell_id);
        let lib = self.netlist.library();
        let ci = cell_id.index();
        match cell.kind {
            CellKind::La => {
                let CellState::Arrivals { mut a, mut b } = self.states[ci] else {
                    unreachable!()
                };
                let slot = if pin == 0 { &mut a } else { &mut b };
                if *slot {
                    self.violations.push(Violation::DoubleArrival {
                        cell: ci,
                        time_ps: t,
                    });
                }
                *slot = true;
                if a && b {
                    // Last arrival: fire and reset.
                    self.states[ci] = CellState::Arrivals { a: false, b: false };
                    let out = cell.outputs[0];
                    self.push_pulse(out, t + lib.delay(CellKind::La));
                } else {
                    self.states[ci] = CellState::Arrivals { a, b };
                }
            }
            CellKind::Fa => {
                let CellState::Arrivals { a, b } = self.states[ci] else {
                    unreachable!()
                };
                let armed = a || b;
                if (pin == 0 && a) || (pin == 1 && b) {
                    self.violations.push(Violation::DoubleArrival {
                        cell: ci,
                        time_ps: t,
                    });
                }
                if !armed {
                    // First arrival: fire immediately, remember the arming.
                    let out = cell.outputs[0];
                    self.push_pulse(out, t + lib.delay(CellKind::Fa));
                    self.states[ci] = CellState::Arrivals {
                        a: pin == 0,
                        b: pin == 1,
                    };
                } else {
                    // Second arrival: swallow and reset.
                    self.states[ci] = CellState::Arrivals { a: false, b: false };
                }
            }
            CellKind::Jtl => {
                let out = cell.outputs[0];
                self.push_pulse(out, t + lib.delay(CellKind::Jtl));
            }
            CellKind::Splitter | CellKind::RsfqSplitter => {
                let d = lib.delay(cell.kind);
                let (o0, o1) = (cell.outputs[0], cell.outputs[1]);
                self.push_pulse(o0, t + d);
                self.push_pulse(o1, t + d);
            }
            CellKind::Merger | CellKind::RsfqMerger => {
                let out = cell.outputs[0];
                self.push_pulse(out, t + lib.delay(cell.kind));
            }
            CellKind::Droc { .. } | CellKind::RsfqDff => {
                let CellState::Loaded(loaded) = self.states[ci] else {
                    unreachable!()
                };
                if loaded {
                    self.violations.push(Violation::StorageOverrun {
                        cell: ci,
                        time_ps: t,
                    });
                }
                self.states[ci] = CellState::Loaded(true);
            }
            CellKind::DcToSfq => { /* no pulse inputs */ }
            // Clocked RSFQ logic is outside the pulse model exercised here
            // (the baselines are evaluated structurally, not simulated).
            CellKind::RsfqAnd | CellKind::RsfqOr | CellKind::RsfqXor | CellKind::RsfqNot => {}
        }
    }

    fn clock_cell(&mut self, cell_id: CellId, t: f64) {
        let cell = self.netlist.cell(cell_id);
        let lib = self.netlist.library();
        let ci = cell_id.index();
        match cell.kind {
            CellKind::Droc { .. } => {
                let CellState::Loaded(loaded) = self.states[ci] else {
                    unreachable!()
                };
                self.states[ci] = CellState::Loaded(false);
                let (qp, qn) = (cell.outputs[0], cell.outputs[1]);
                if loaded {
                    self.push_pulse(qp, t + lib.droc_delay(false));
                } else {
                    self.push_pulse(qn, t + lib.droc_delay(true));
                }
            }
            CellKind::RsfqDff => {
                let CellState::Loaded(loaded) = self.states[ci] else {
                    unreachable!()
                };
                self.states[ci] = CellState::Loaded(false);
                if loaded {
                    let out = cell.outputs[0];
                    self.push_pulse(out, t + lib.delay(CellKind::RsfqDff));
                }
            }
            _ => {}
        }
    }

    /// Driver kind of a net (exposed for the waveform renderer).
    pub fn driver(&self, net: NetId) -> Driver {
        self.netlist.driver(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsfq_cells::CellLibrary;

    fn single_cell(kind: CellKind) -> (Netlist, NetId, NetId, NetId) {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let q = n.add_cell(kind, &[a, b])[0];
        n.add_output("q", q);
        (n, a, b, q)
    }

    /// Paper Table 1: drive every excite/relax input pair and check the
    /// LA and FA outputs plus reinitialization.
    #[test]
    fn table1_alternating_sequences() {
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            // LA = AND of the excite values; FA = OR.
            for kind in [CellKind::La, CellKind::Fa] {
                let (n, a, b, q) = single_cell(kind);
                let mut sim = PulseSim::new(&n);
                // Excite phase at t=0..100: pulse iff value is 1.
                if va {
                    sim.inject(a, 10.0);
                }
                if vb {
                    sim.inject(b, 12.0);
                }
                sim.run_until(100.0);
                let excite_pulses = sim.pulses(q).len();
                // Relax phase at t=100..200: complement pulses.
                if !va {
                    sim.inject(a, 110.0);
                }
                if !vb {
                    sim.inject(b, 112.0);
                }
                sim.run_until(200.0);
                let total = sim.pulses(q).len();
                let relax_pulses = total - excite_pulses;
                let value = if kind == CellKind::La {
                    va && vb
                } else {
                    va || vb
                };
                assert_eq!(excite_pulses, value as usize, "{kind} excite {va}{vb}");
                assert_eq!(relax_pulses, !value as usize, "{kind} relax {va}{vb}");
                assert!(sim.all_logic_in_init_state(), "{kind} must reinit");
                assert!(sim.violations().is_empty());
            }
        }
    }

    #[test]
    fn la_timing_is_last_arrival() {
        let (n, a, b, q) = single_cell(CellKind::La);
        let mut sim = PulseSim::new(&n);
        sim.inject(a, 10.0);
        sim.inject(b, 50.0);
        sim.run_until(100.0);
        let t = sim.pulses(q)[0];
        assert!(
            (t - (50.0 + 7.2)).abs() < 1e-9,
            "fires at last arrival + delay, got {t}"
        );
    }

    #[test]
    fn fa_timing_is_first_arrival() {
        let (n, a, b, q) = single_cell(CellKind::Fa);
        let mut sim = PulseSim::new(&n);
        sim.inject(a, 10.0);
        sim.inject(b, 50.0);
        sim.run_until(100.0);
        assert_eq!(sim.pulses(q).len(), 1, "second arrival swallowed");
        let t = sim.pulses(q)[0];
        assert!(
            (t - (10.0 + 9.5)).abs() < 1e-9,
            "fires at first arrival + delay, got {t}"
        );
    }

    #[test]
    fn double_arrival_is_flagged() {
        let (n, a, _b, _q) = single_cell(CellKind::La);
        let mut sim = PulseSim::new(&n);
        sim.inject(a, 10.0);
        sim.inject(a, 20.0);
        sim.run_until(100.0);
        assert_eq!(sim.violations().len(), 1);
    }

    #[test]
    fn droc_emits_complementary_outputs() {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let d = n.add_input("d");
        let outs = n.add_cell(CellKind::Droc { preload: false }, &[d]);
        n.add_output("qp", outs[0]);
        n.add_output("qn", outs[1]);
        let mut sim = PulseSim::new(&n);
        // No data → clock → Qn.
        sim.clock(50.0);
        sim.run_until(100.0);
        assert_eq!(sim.pulses(outs[0]).len(), 0);
        assert_eq!(sim.pulses(outs[1]).len(), 1);
        // Data then clock → Qp.
        sim.inject(d, 120.0);
        sim.clock(150.0);
        sim.run_until(200.0);
        assert_eq!(sim.pulses(outs[0]).len(), 1);
        assert_eq!(sim.pulses(outs[1]).len(), 1);
        assert!(sim.violations().is_empty());
    }

    #[test]
    fn preloaded_droc_fires_qp_on_trigger() {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let d = n.add_input("d");
        let (c, outs) = n.add_cell_deferred(CellKind::Droc { preload: true });
        n.connect_input(c, 0, d);
        n.set_trigger_clocked(c);
        n.add_output("qp", outs[0]);
        let mut sim = PulseSim::new(&n);
        sim.trigger(10.0);
        sim.run_until(50.0);
        assert_eq!(sim.pulses(outs[0]).len(), 1, "preload emitted on trigger");
    }

    #[test]
    fn splitter_fans_out() {
        let mut n = Netlist::new("t", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let outs = n.add_cell(CellKind::Splitter, &[a]);
        n.add_output("q0", outs[0]);
        n.add_output("q1", outs[1]);
        let mut sim = PulseSim::new(&n);
        sim.inject(a, 5.0);
        sim.run_until(50.0);
        assert_eq!(sim.pulses(outs[0]).len(), 1);
        assert_eq!(sim.pulses(outs[1]).len(), 1);
    }
}
