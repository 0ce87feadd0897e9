//! Netlist exporters: structural Verilog and Graphviz DOT, plus [`Json`],
//! the one writer of every JSON document in the workspace.
//!
//! Port names pass through a collision-free sanitizer before they become
//! Verilog identifiers: invalid characters map to `_` (which would merge
//! distinct ports like `a[0]` and `a.0`), then a leading digit, a Verilog
//! keyword, an implicit `clk`/`trg` port or a generated `n<i>`/`u<i>`
//! wire/instance name is escaped, and finally every name is uniquified
//! against the ones already emitted — so the written module is always
//! legal, with no shadowed or doubly-declared identifiers.

use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::io::Write;

use crate::netlist::{Driver, Netlist};

/// Verilog-2001 keywords that show up as plausible port names (plus the
/// structural subset this writer emits). Escaped with a trailing `_`.
const VERILOG_KEYWORDS: &[&str] = &[
    "always",
    "and",
    "assign",
    "begin",
    "buf",
    "case",
    "casex",
    "casez",
    "default",
    "defparam",
    "else",
    "end",
    "endcase",
    "endfunction",
    "endgenerate",
    "endmodule",
    "endtask",
    "for",
    "force",
    "forever",
    "fork",
    "function",
    "generate",
    "genvar",
    "if",
    "initial",
    "inout",
    "input",
    "integer",
    "join",
    "localparam",
    "module",
    "nand",
    "negedge",
    "nor",
    "not",
    "or",
    "output",
    "parameter",
    "posedge",
    "real",
    "reg",
    "repeat",
    "signed",
    "supply0",
    "supply1",
    "task",
    "time",
    "tri",
    "unsigned",
    "wand",
    "while",
    "wire",
    "wor",
    "xnor",
    "xor",
];

/// Map one name to a legal (but not yet unique) Verilog identifier.
/// Verilog-2001 simple identifiers are ASCII `[a-zA-Z_][a-zA-Z0-9_$]*`, so
/// non-ASCII alphanumerics are escaped too.
fn escape(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    // The implicit clock/trigger ports, the writer's own `n<i>` wires and
    // `u<i>` instances, and language keywords would shadow or collide.
    let synthetic = |s: &str| {
        let mut chars = s.chars();
        matches!(chars.next(), Some('n' | 'u'))
            && chars.clone().count() > 0
            && chars.all(|c| c.is_ascii_digit())
    };
    if out == "clk" || out == "trg" || synthetic(&out) || VERILOG_KEYWORDS.contains(&out.as_str()) {
        out.push('_');
    }
    out
}

/// Collision-free sanitized names for every port, inputs before outputs
/// (first come keeps its name; later duplicates get `_2`, `_3`, …).
fn port_names(netlist: &Netlist) -> (Vec<String>, Vec<String>) {
    let mut used: HashSet<String> = HashSet::new();
    let mut unique = |name: &str| -> String {
        let base = escape(name);
        let mut candidate = base.clone();
        let mut n = 2usize;
        while !used.insert(candidate.clone()) {
            candidate = format!("{base}_{n}");
            n += 1;
        }
        candidate
    };
    let inputs = netlist.inputs().iter().map(|p| unique(&p.name)).collect();
    let outputs = netlist.outputs().iter().map(|p| unique(&p.name)).collect();
    (inputs, outputs)
}

/// Write the netlist as structural Verilog (one module, standard-cell
/// instances named after their [`xsfq_cells::CellKind`]).
///
/// Clocked cells get explicit `clk` connections; trigger-clocked cells get
/// `trg` (the one-shot initialization signal of paper §3.2).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_verilog<W: Write>(netlist: &Netlist, mut w: W) -> std::io::Result<()> {
    let has_clock = netlist.cells().iter().any(|c| c.kind.is_clocked());
    let has_trigger = !netlist.trigger_clocked().is_empty();
    let (in_names, out_names) = port_names(netlist);
    writeln!(w, "// generated by xsfq-netlist")?;
    write!(w, "module {} (", escape(netlist.name()))?;
    let mut ports: Vec<String> = Vec::new();
    if has_clock {
        ports.push("clk".into());
    }
    if has_trigger {
        ports.push("trg".into());
    }
    ports.extend(in_names.iter().cloned());
    ports.extend(out_names.iter().cloned());
    writeln!(w, "{});", ports.join(", "))?;
    if has_clock {
        writeln!(w, "  input clk;")?;
    }
    if has_trigger {
        writeln!(w, "  input trg;")?;
    }
    for name in &in_names {
        writeln!(w, "  input {name};")?;
    }
    for name in &out_names {
        writeln!(w, "  output {name};")?;
    }
    for i in 0..netlist.num_nets() {
        if matches!(netlist.driver(crate::NetId(i as u32)), Driver::Cell { .. }) {
            writeln!(w, "  wire n{i};")?;
        }
    }
    let net_name = |n: crate::NetId| -> String {
        match netlist.driver(n) {
            Driver::Input(idx) => in_names[idx as usize].clone(),
            Driver::Cell { .. } => format!("n{}", n.index()),
        }
    };
    for (ci, cell) in netlist.cells().iter().enumerate() {
        let is_trigger = netlist.trigger_clocked().iter().any(|c| c.index() == ci);
        let mut conns: Vec<String> = Vec::new();
        for (pi, &n) in cell.inputs.iter().enumerate() {
            let pin = match (cell.kind, pi) {
                (xsfq_cells::CellKind::Droc { .. }, 0) => "d".into(),
                (_, 0) => "a".into(),
                (_, 1) => "b".into(),
                _ => format!("i{pi}"),
            };
            conns.push(format!(".{pin}({})", net_name(n)));
        }
        if cell.kind.is_clocked() {
            conns.push(format!(".clk({})", if is_trigger { "trg" } else { "clk" }));
        }
        for (po, &n) in cell.outputs.iter().enumerate() {
            let pin = match (cell.kind, po, cell.outputs.len()) {
                (xsfq_cells::CellKind::Droc { .. }, 0, _) => "qp".into(),
                (xsfq_cells::CellKind::Droc { .. }, 1, _) => "qn".into(),
                (_, 0, 1) => "q".into(),
                (_, i, _) => format!("q{i}"),
            };
            conns.push(format!(".{pin}(n{})", n.index()));
        }
        writeln!(w, "  {} u{ci} ({});", cell.kind.name(), conns.join(", "))?;
    }
    for (p, name) in netlist.outputs().iter().zip(&out_names) {
        writeln!(w, "  assign {name} = {};", net_name(p.net))?;
    }
    writeln!(w, "endmodule")
}

/// Write the netlist as a Graphviz DOT graph (cells as boxes, ports as
/// ovals) for visual inspection of small designs like the paper's Figures
/// 4–5.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_dot<W: Write>(netlist: &Netlist, mut w: W) -> std::io::Result<()> {
    writeln!(w, "digraph \"{}\" {{", dot_label(netlist.name()))?;
    writeln!(w, "  rankdir=LR;")?;
    for (i, p) in netlist.inputs().iter().enumerate() {
        writeln!(w, "  pi{i} [label=\"{}\" shape=oval];", dot_label(&p.name))?;
    }
    for (i, p) in netlist.outputs().iter().enumerate() {
        writeln!(
            w,
            "  po{i} [label=\"{}\" shape=oval style=dashed];",
            dot_label(&p.name)
        )?;
    }
    for (ci, cell) in netlist.cells().iter().enumerate() {
        writeln!(w, "  c{ci} [label=\"{}\" shape=box];", cell.kind.name())?;
    }
    let src = |n: crate::NetId| -> String {
        match netlist.driver(n) {
            Driver::Input(idx) => format!("pi{idx}"),
            Driver::Cell { cell, .. } => format!("c{}", cell.index()),
        }
    };
    for (ci, cell) in netlist.cells().iter().enumerate() {
        for &n in &cell.inputs {
            writeln!(w, "  {} -> c{ci};", src(n))?;
        }
    }
    for (oi, p) in netlist.outputs().iter().enumerate() {
        writeln!(w, "  {} -> po{oi};", src(p.net))?;
    }
    writeln!(w, "}}")
}

/// DOT node labels live inside quoted strings, where collisions are
/// harmless (graph identity comes from the `pi<i>`/`po<i>`/`c<i>` node
/// ids); only the quote character itself needs neutralizing.
fn dot_label(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A JSON value, rendered compactly (no whitespace, members in order) by
/// `Display`. Strings escape quotes, backslashes and every control
/// character, so any name read from a design file stays valid JSON. Finite
/// floats print in shortest round-trip form (`40.0` as `40`), non-finite
/// ones as `null`: JSON has no NaN or Infinity.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A float (`null` when not finite).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members` in the given order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

macro_rules! json_from {
    ($($t:ty: $v:ident => $e:expr;)*) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json { $e }
        })*
    };
}

json_from! {
    bool: b => Json::Bool(b);
    u32: n => Json::Int(n.into());
    u64: n => Json::Int(n);
    usize: n => Json::Int(n as u64);
    f64: v => Json::Float(v);
    &str: s => Json::Str(s.to_owned());
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(v) if v.is_finite() => write!(f, "{v}"),
            Json::Null | Json::Float(_) => f.write_str("null"),
            Json::Str(s) => write_json_str(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i == 0 { "" } else { "," })?;
                }
                f.write_char(']')
            }
            Json::Object(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { "," })?;
                    write_json_str(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// `s` as a JSON string literal: `\n`, `\r`, `\t` by name, other controls as `\u00XX`.
fn write_json_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;
    use xsfq_cells::{CellKind, CellLibrary};

    fn sample() -> Netlist {
        let mut n = Netlist::new("sample", CellLibrary::xsfq_abutted());
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_cell(CellKind::La, &[a, b])[0];
        let (droc, qs) = n.add_cell_deferred(CellKind::Droc { preload: true });
        n.connect_input(droc, 0, x);
        n.set_trigger_clocked(droc);
        n.add_output("q", qs[0]);
        n
    }

    #[test]
    fn verilog_mentions_all_cells_and_ports() {
        let n = sample();
        let mut buf = Vec::new();
        write_verilog(&n, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("module sample"));
        assert!(text.contains("LA u0"));
        assert!(text.contains("DROC_P u1"));
        assert!(text.contains(".clk(trg)"), "trigger-clocked DROC uses trg");
        assert!(text.contains("input trg;"));
        assert!(text.contains("output q;"));
        assert!(text.contains("endmodule"));
    }

    /// Regression: distinct ports whose sanitized forms collide (`a[0]` vs
    /// `a.0`), leading-digit names (`0out`) and the implicit trigger port
    /// name (`trg`) must all come out as distinct, legal identifiers.
    #[test]
    fn verilog_names_never_collide() {
        let mut n = Netlist::new("sanitize me", CellLibrary::xsfq_abutted());
        let a0 = n.add_input("a[0]");
        let a0b = n.add_input("a.0");
        let trg = n.add_input("trg");
        let zero = n.add_input("0out");
        let wireish = n.add_input("n1");
        let kw = n.add_input("module");
        let pi = n.add_input("π"); // non-ASCII letter: passes is_alphanumeric
        let x = n.add_cell(CellKind::La, &[a0, a0b])[0];
        let y = n.add_cell(CellKind::La, &[trg, zero])[0];
        let z0 = n.add_cell(CellKind::La, &[wireish, kw])[0];
        let z = n.add_cell(CellKind::La, &[z0, pi])[0];
        let (droc, qs) = n.add_cell_deferred(CellKind::Droc { preload: true });
        n.connect_input(droc, 0, x);
        n.set_trigger_clocked(droc);
        n.add_output("q", qs[0]);
        n.add_output("a[0]", y); // collides with the input's sanitized form
        n.add_output("q", z); // duplicate output name
        let mut buf = Vec::new();
        write_verilog(&n, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        // Collect every declared identifier; all must be unique.
        let mut declared: Vec<&str> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("input ").or(line.strip_prefix("output ")) {
                declared.push(rest.trim_end_matches(';'));
            }
        }
        let unique: std::collections::HashSet<&&str> = declared.iter().collect();
        assert_eq!(
            unique.len(),
            declared.len(),
            "duplicate port declarations in:\n{text}"
        );
        // Verilog-2001 identifiers are ASCII-only.
        for id in &declared {
            assert!(id.is_ascii(), "non-ASCII identifier {id} in:\n{text}");
        }
        // 7 inputs + 3 outputs + the implicit clk and trg ports.
        assert_eq!(declared.len(), 12, "{text}");
        // The user `trg` port was escaped away from the implicit trigger.
        assert!(text.contains("input trg;"));
        assert!(text.contains("input trg_;"));
        // Leading digit escaped; every identifier is legal.
        assert!(text.contains("input _0out;"));
        // `n1` cannot shadow the generated wires, `module` the keyword.
        assert!(text.contains("input n1_;"));
        assert!(text.contains("input module_;"));
        for id in &declared {
            assert!(
                !id.chars().next().unwrap().is_ascii_digit(),
                "illegal identifier {id}"
            );
        }
    }

    #[test]
    fn dot_is_well_formed() {
        let n = sample();
        let mut buf = Vec::new();
        write_dot(&n, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("digraph"));
        assert!(text.trim_end().ends_with('}'));
        assert!(text.contains("pi0 -> c0"));
    }

    #[test]
    fn json_has_one_escaping_and_one_float_rule() {
        let floats = [40.0, -2.5, 0.1, f64::NAN, f64::NEG_INFINITY].map(Json::from);
        let doc = Json::object([
            ("k\r", "\"\\\n\r\t\u{0}\u{7f}é".into()),
            ("f", Json::Array(floats.into())),
            ("none", None::<u64>.into()),
            ("empty", Json::object(Vec::<(&str, Json)>::new())),
            ("list", Json::Array(Vec::new())),
            ("ok", true.into()),
            ("max", u64::MAX.into()),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\"k\\r\":\"\\\"\\\\\\n\\r\\t\\u0000\u{7f}é\",\"f\":[40,-2.5,0.1,null,null],\
             \"none\":null,\"empty\":{},\"list\":[],\"ok\":true,\"max\":18446744073709551615}"
        );
    }
}
