//! Liberty (`.lib`) export of a characterized cell library.
//!
//! Paper §2.3: because PTL routing collapses timing arcs to single values,
//! the Liberty tables are 1×1 look-up tables. The output here is accepted by
//! conventional timing-driven tools and carries the JJ count as the cell
//! `area` attribute (the standard trick in superconducting PDKs).

use std::io::Write;

use crate::{CellKind, CellLibrary};

/// Write `library` as a Liberty file.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_liberty<W: Write>(library: &CellLibrary, mut w: W) -> std::io::Result<()> {
    writeln!(w, "library ({}) {{", library.name())?;
    writeln!(w, "  delay_model : table_lookup;")?;
    writeln!(w, "  time_unit : \"1ps\";")?;
    writeln!(w, "  /* area encodes the Josephson junction count */")?;
    writeln!(w, "  lu_table_template (single_value) {{")?;
    writeln!(w, "    variable_1 : input_net_transition;")?;
    writeln!(w, "    index_1 (\"1.0\");")?;
    writeln!(w, "  }}")?;

    for kind in library.cells() {
        write_cell(library, kind, &mut w)?;
    }
    writeln!(w, "}}")
}

fn write_cell<W: Write>(lib: &CellLibrary, kind: CellKind, w: &mut W) -> std::io::Result<()> {
    let p = lib.params(kind);
    writeln!(w, "  cell ({}) {{", kind.name())?;
    writeln!(w, "    area : {};", p.jj)?;
    match kind {
        CellKind::La | CellKind::Fa => {
            let function = if kind == CellKind::La {
                "(a & b)"
            } else {
                "(a | b)"
            };
            writeln!(w, "    pin (a) {{ direction : input; }}")?;
            writeln!(w, "    pin (b) {{ direction : input; }}")?;
            writeln!(w, "    pin (q) {{")?;
            writeln!(w, "      direction : output;")?;
            writeln!(w, "      function : \"{function}\";")?;
            write_arc(w, "a b", p.delay_ps)?;
            writeln!(w, "    }}")?;
        }
        CellKind::Jtl | CellKind::Splitter | CellKind::Merger => {
            writeln!(w, "    pin (a) {{ direction : input; }}")?;
            if kind == CellKind::Merger {
                writeln!(w, "    pin (b) {{ direction : input; }}")?;
            }
            let outs: &[&str] = if kind == CellKind::Splitter {
                &["q0", "q1"]
            } else {
                &["q"]
            };
            for out in outs {
                writeln!(w, "    pin ({out}) {{")?;
                writeln!(w, "      direction : output;")?;
                writeln!(w, "      function : \"a\";")?;
                write_arc(w, "a", p.delay_ps)?;
                writeln!(w, "    }}")?;
            }
        }
        CellKind::DcToSfq => {
            writeln!(w, "    pin (q) {{ direction : output; }}")?;
        }
        CellKind::Droc { .. } => {
            writeln!(
                w,
                "    ff (IQ, IQN) {{ clocked_on : \"clk\"; next_state : \"d\"; }}"
            )?;
            writeln!(w, "    pin (d) {{ direction : input; }}")?;
            writeln!(w, "    pin (clk) {{ direction : input; clock : true; }}")?;
            for (pin, qn) in [("qp", false), ("qn", true)] {
                writeln!(w, "    pin ({pin}) {{")?;
                writeln!(w, "      direction : output;")?;
                writeln!(w, "      function : \"{}\";", if qn { "IQN" } else { "IQ" })?;
                write_arc(w, "clk", lib.droc_delay(qn))?;
                writeln!(w, "    }}")?;
            }
        }
        // RSFQ cells are not part of the xSFQ deliverable library.
        _ => {}
    }
    writeln!(w, "  }}")
}

fn write_arc<W: Write>(w: &mut W, related: &str, delay_ps: f64) -> std::io::Result<()> {
    writeln!(w, "      timing () {{")?;
    writeln!(w, "        related_pin : \"{related}\";")?;
    writeln!(
        w,
        "        cell_rise (single_value) {{ values (\"{delay_ps:.1}\"); }}"
    )?;
    writeln!(
        w,
        "        cell_fall (single_value) {{ values (\"{delay_ps:.1}\"); }}"
    )?;
    writeln!(w, "      }}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Read the delay arcs back out of Liberty text produced by
    /// `write_liberty`: one `(cell, pin, delay_ps)` triple per output pin's
    /// `cell_rise` table, in file order.
    ///
    /// This is the round-trip half of the export: the timing engine in
    /// `xsfq-timing` reads its delays from `CellLibrary::delay` /
    /// `CellLibrary::droc_delay`, and those are exactly the values
    /// `write_liberty` prints, so `parse_arc_delays(liberty) == library`
    /// pins that the `.lib` a downstream tool consumes and the arrival
    /// windows our own engine computes can never disagree.
    ///
    /// The parser is a line scanner for this crate's own output dialect (it
    /// tracks `cell (...)` / `pin (...)` headers and `cell_rise
    /// (single_value)` value lines); unparseable lines are skipped, so it is
    /// total on arbitrary text.
    fn parse_arc_delays(liberty: &str) -> Vec<(String, String, f64)> {
        fn header_name<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
            let rest = line.strip_prefix(keyword)?.trim_start();
            let rest = rest.strip_prefix('(')?;
            let end = rest.find(')')?;
            Some(rest[..end].trim())
        }
        let mut arcs = Vec::new();
        let mut cell: Option<String> = None;
        let mut pin: Option<String> = None;
        for raw in liberty.lines() {
            let line = raw.trim();
            if let Some(name) = header_name(line, "cell ") {
                cell = Some(name.to_string());
                pin = None;
            } else if let Some(name) = header_name(line, "pin ") {
                pin = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("cell_rise (single_value)") {
                let (Some(cell), Some(pin)) = (&cell, &pin) else {
                    continue;
                };
                let Some(start) = rest.find('"') else {
                    continue;
                };
                let Some(len) = rest[start + 1..].find('"') else {
                    continue;
                };
                if let Ok(delay) = rest[start + 1..start + 1 + len].parse::<f64>() {
                    arcs.push((cell.clone(), pin.clone(), delay));
                }
            }
        }
        arcs
    }

    #[test]
    fn liberty_contains_all_cells_and_values() {
        let lib = CellLibrary::xsfq_abutted();
        let mut buf = Vec::new();
        write_liberty(&lib, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for cell in [
            "JTL", "LA", "FA", "DROC", "DROC_P", "SPLIT", "MERGE", "DC2SFQ",
        ] {
            assert!(text.contains(&format!("cell ({cell})")), "missing {cell}");
        }
        // Table 2 spot checks.
        assert!(text.contains("area : 4;"), "LA/FA area");
        assert!(text.contains("values (\"7.2\")"), "LA delay");
        assert!(text.contains("values (\"9.5\")"), "FA / DROC Qn delay");
        assert!(text.contains("values (\"6.7\")"), "DROC Qp delay");
        assert!(text.contains("area : 22;"), "preloaded DROC area");
    }

    #[test]
    fn delay_arcs_round_trip_to_the_timing_model() {
        // The values the xsfq-timing engine reads (`CellLibrary::delay`,
        // `droc_delay`) and the arcs the Liberty export carries must be the
        // same numbers — this pins both directions, for both styles.
        for lib in [CellLibrary::xsfq_abutted(), CellLibrary::xsfq_ptl()] {
            let mut buf = Vec::new();
            write_liberty(&lib, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let arcs = parse_arc_delays(&text);
            let arc = |cell: &str, pin: &str| -> f64 {
                arcs.iter()
                    .find(|(c, p, _)| c == cell && p == pin)
                    .unwrap_or_else(|| panic!("missing arc {cell}/{pin}"))
                    .2
            };
            // The path-balancing buffer and the splitter: the two kinds the
            // timing stage inserts or re-times around.
            assert_eq!(arc("JTL", "q"), lib.delay(CellKind::Jtl));
            assert_eq!(arc("SPLIT", "q0"), lib.delay(CellKind::Splitter));
            assert_eq!(arc("SPLIT", "q1"), lib.delay(CellKind::Splitter));
            // Logic and storage arcs agree with the engine's launch model.
            assert_eq!(arc("LA", "q"), lib.delay(CellKind::La));
            assert_eq!(arc("FA", "q"), lib.delay(CellKind::Fa));
            assert_eq!(arc("MERGE", "q"), lib.delay(CellKind::Merger));
            assert_eq!(arc("DROC", "qp"), lib.droc_delay(false));
            assert_eq!(arc("DROC", "qn"), lib.droc_delay(true));
            // Every arc in the file round-trips to a library value.
            for (cell, pin, delay) in &arcs {
                assert!(delay.is_finite(), "arc {cell}/{pin} not finite");
            }
        }
        // Abutted spot values (Table 2), pinned literally so a library edit
        // that silently shifts the buffers the balancer sizes with fails
        // loudly here.
        let lib = CellLibrary::xsfq_abutted();
        assert_eq!(lib.delay(CellKind::Jtl), 4.6);
        assert_eq!(lib.delay(CellKind::Splitter), 5.1);
    }

    #[test]
    fn liberty_is_balanced() {
        let lib = CellLibrary::xsfq_ptl();
        let mut buf = Vec::new();
        write_liberty(&lib, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close, "unbalanced braces");
    }
}
