//! Cell characterization: extract propagation delays from junction phase
//! rise times, the way §2.3 does with HSPICE (delays land in 1×1 Liberty
//! LUTs; see `xsfq_cells::liberty`).

use crate::cells::{self, CellFixture};
use crate::transient::{transient, TransientOptions};

/// Standard input kick used for characterization.
const KICK: f64 = 500e-6;
const KICK_W: f64 = 2.0;

/// Characterized delay of one cell (ps).
#[derive(Clone, Debug)]
pub struct CellDelay {
    /// Cell name.
    pub name: &'static str,
    /// Input-to-output propagation delay (ps).
    pub delay_ps: f64,
}

/// Measure the input→output delay of a fixture by injecting one pulse per
/// input and timing the output junction's 2π slip relative to the *last*
/// injection (matching how clock-to-Q / propagation delays are read off
/// JJ phase plots).
fn measure_delay(fixture: &CellFixture, input_times_ps: &[f64], t_end_ps: f64) -> Option<f64> {
    let mut fx = fixture.clone();
    for (node, &t) in fixture.inputs.iter().zip(input_times_ps) {
        fx.circuit.pulse(*node, t, KICK, KICK_W);
    }
    let wf = transient(
        &fx.circuit,
        &TransientOptions {
            t_end_ps,
            ..Default::default()
        },
    );
    let pulses = wf.pulse_times(&fx.circuit, fx.output_junctions[0]);
    let last_input = input_times_ps
        .iter()
        .take(fixture.inputs.len())
        .cloned()
        .fold(0.0f64, f64::max);
    pulses.first().map(|&t| t - last_input - KICK_W / 2.0)
}

/// Characterize the cells the analog substrate models. Delays are in the
/// single-digit-ps range of the paper's Table 2; the published values
/// remain the source of truth for the evaluation tables (see DESIGN.md).
pub fn characterize_library() -> Vec<CellDelay> {
    let mut out = Vec::new();
    let jtl = cells::jtl_chain(1);
    if let Some(d) = measure_delay(&jtl, &[10.0], 80.0) {
        out.push(CellDelay {
            name: "JTL",
            delay_ps: d,
        });
    }
    let split = cells::splitter();
    if let Some(d) = measure_delay(&split, &[10.0], 80.0) {
        out.push(CellDelay {
            name: "SPLIT",
            delay_ps: d,
        });
    }
    let la = cells::la_cell();
    if let Some(d) = measure_delay(&la, &[10.0, 30.0], 120.0) {
        out.push(CellDelay {
            name: "LA",
            delay_ps: d,
        });
    }
    let fa = cells::fa_cell();
    if let Some(d) = measure_delay(&fa, &[10.0], 80.0) {
        out.push(CellDelay {
            name: "FA",
            delay_ps: d,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterization_produces_ps_scale_delays() {
        let lib = characterize_library();
        assert!(lib.iter().any(|c| c.name == "JTL"));
        for cell in &lib {
            assert!(
                cell.delay_ps > 0.0 && cell.delay_ps < 40.0,
                "{} delay {:.2} ps out of range",
                cell.name,
                cell.delay_ps
            );
        }
    }
}
