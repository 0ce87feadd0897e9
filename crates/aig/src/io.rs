//! BLIF import/export.
//!
//! The Berkeley Logic Interchange Format is the lingua franca of academic
//! synthesis tools (and of the ISCAS/EPFL benchmark distributions). The
//! reader covers the combinational + latch subset the benchmarks use:
//! `.model`, `.inputs`, `.outputs`, `.names` (SOP tables), `.latch`, `.end`.
//! Users who have the original benchmark files can load them here; the
//! in-repo suite uses the generators in `xsfq-benchmarks`.
//!
//! The reader is also the serving daemon's ingest path, so it takes
//! untrusted bytes and runs in time linear in their size, up to one sort
//! of the `.names` blocks. It checks UTF-8 once, borrows lines and tokens
//! from the input (only a `\` continuation allocates), interns each signal
//! name once into a dense `u32`, and keeps `.names` signals and cubes as
//! ranges into flat vectors. A `.names` block may not drive a signal that
//! an input, a latch or another `.names` block already drives.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::io::Write;
use std::ops::Range;

use crate::{Aig, Lit};

/// Error parsing a BLIF file.
#[derive(Debug)]
pub struct ParseBlifError {
    line: usize,
    message: String,
}

impl ParseBlifError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseBlifError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number where parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blif parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseBlifError {}

/// Read a BLIF model into an AIG. `.names` tables become SOP logic over
/// AND/INV; `.latch` statements become latches (init values `0`, `1`;
/// `2`/`3`/missing default to `0`).
///
/// The bytes are checked for UTF-8 once, up front; the error names the
/// line of the first invalid byte. Time is linear in the input size, plus
/// one sort of the `.names` blocks. A `.names` output may not name a
/// signal that `.inputs`, `.latch` or another `.names` already drives.
///
/// The blocks are elaborated in a fixed order, which fixes the graph node
/// for node: by *round*, then by file position. A block's round is the
/// maximum over its inputs of 1 for a primary input or latch output, the
/// producer's round for a producer earlier in the file, and the producer's
/// round + 1 for a producer later in the file (1 for a block without
/// inputs). That is the order in which repeated sweeps over the file, each
/// elaborating every block whose inputs are ready, would elaborate them.
///
/// # Errors
///
/// Returns [`ParseBlifError`] on invalid UTF-8, malformed input, a signal
/// driven more than once, undriven signals, combinational cycles,
/// unsupported constructs (`.subckt`, `.gate`, `.exdc`) or an input of
/// 4 GiB or more.
pub fn read_blif(bytes: &[u8]) -> Result<Aig, ParseBlifError> {
    // Signal ids, block indices and rounds are `u32`s; below 4 GiB of input
    // none can reach the sentinels at the top of that range.
    if u32::try_from(bytes.len()).is_err() {
        return Err(ParseBlifError::new(1, "input is 4 GiB or larger"));
    }
    let text = std::str::from_utf8(bytes).map_err(|e| {
        let newlines = bytes[..e.valid_up_to()].iter().filter(|&&b| b == b'\n');
        ParseBlifError::new(newlines.count() + 1, "stream did not contain valid UTF-8")
    })?;
    let lines = logical_lines(text);
    Model::parse(&lines)?.elaborate()
}

/// The non-blank logical lines of `text`, each with the 1-based number of
/// its first physical line: `#` comments and trailing whitespace dropped,
/// `\` continuations joined with a space. A continuation that runs into
/// the end of the input is dropped.
fn logical_lines(text: &str) -> Vec<(usize, Cow<'_, str>)> {
    let mut lines = Vec::new();
    let mut joined = String::new();
    let mut joined_start = 0;
    for (idx, line) in text.lines().enumerate() {
        let content = match line.find('#') {
            Some(p) => &line[..p],
            None => line,
        };
        let trimmed = content.trim_end();
        if joined.is_empty() {
            joined_start = idx + 1;
        }
        if let Some(stripped) = trimmed.strip_suffix('\\') {
            joined.push_str(stripped);
            joined.push(' ');
        } else if joined.is_empty() {
            if !trimmed.is_empty() {
                lines.push((idx + 1, Cow::Borrowed(trimmed)));
            }
        } else {
            joined.push_str(trimmed);
            if joined.trim().is_empty() {
                joined.clear();
            } else {
                lines.push((joined_start, Cow::Owned(std::mem::take(&mut joined))));
            }
        }
    }
    lines
}

/// `producer` entry of a signal nothing drives.
const UNDRIVEN: u32 = u32::MAX;
/// `producer` entry of a primary input or latch output.
const PORT: u32 = u32::MAX - 1;

/// One `.names` block; `inputs` and `cubes` index [`Model::signals`] and
/// [`Model::cubes`].
struct NamesBlock {
    line: usize,
    inputs: Range<usize>,
    output: u32,
    cubes: Range<usize>,
    /// The first cube's output value is not `0`: the cubes are the ON-set.
    on_set: bool,
}

/// The declarations of one BLIF model, every signal interned as an id.
struct Model<'t> {
    name: &'t str,
    /// Signal names, indexed by id.
    names: Vec<&'t str>,
    ids: HashMap<&'t str, u32>,
    inputs: Vec<u32>,
    /// (declaring line, signal).
    outputs: Vec<(usize, u32)>,
    /// (line, input, output, init).
    latches: Vec<(usize, u32, u32, bool)>,
    blocks: Vec<NamesBlock>,
    signals: Vec<u32>,
    cubes: Vec<&'t str>,
}

impl<'t> Model<'t> {
    fn parse(lines: &'t [(usize, Cow<'_, str>)]) -> Result<Self, ParseBlifError> {
        // A writer-style file spends about two lines per signal.
        let mut m = Model {
            name: "top",
            names: Vec::with_capacity(lines.len() / 2),
            ids: HashMap::with_capacity(lines.len() / 2),
            inputs: Vec::new(),
            outputs: Vec::new(),
            latches: Vec::new(),
            blocks: Vec::with_capacity(lines.len() / 2),
            signals: Vec::with_capacity(lines.len()),
            cubes: Vec::with_capacity(lines.len() / 2),
        };
        let mut lines = lines.iter().peekable();
        while let Some(&(lineno, ref line)) = lines.next() {
            let mut tokens = line.split_whitespace();
            let head = tokens.next().unwrap_or("");
            match head {
                ".model" => {
                    if let Some(n) = tokens.next() {
                        m.name = n;
                    }
                }
                ".inputs" => {
                    for t in tokens {
                        let id = m.intern(t);
                        m.inputs.push(id);
                    }
                }
                ".outputs" => {
                    for t in tokens {
                        let id = m.intern(t);
                        m.outputs.push((lineno, id));
                    }
                }
                ".latch" => {
                    // .latch <input> <output> [<type> <control>] [<init>]
                    let (Some(input), Some(output)) = (tokens.next(), tokens.next()) else {
                        return Err(ParseBlifError::new(lineno, ".latch needs input and output"));
                    };
                    let init = tokens.last().unwrap_or(output) == "1";
                    let latch = (lineno, m.intern(input), m.intern(output), init);
                    m.latches.push(latch);
                }
                ".names" => {
                    let start = m.signals.len();
                    let mut output = None;
                    for t in tokens {
                        let id = m.intern(t);
                        if let Some(prev) = output.replace(id) {
                            m.signals.push(prev);
                        }
                    }
                    let Some(output) = output else {
                        return Err(ParseBlifError::new(
                            lineno,
                            ".names needs at least an output",
                        ));
                    };
                    let width = m.signals.len() - start;
                    let cubes_start = m.cubes.len();
                    let mut on_set = true;
                    while let Some((cl, cline)) =
                        lines.next_if(|(_, l)| !l.trim_start().starts_with('.'))
                    {
                        let mut parts = cline.split_whitespace();
                        let (mask, value) = match (parts.next(), parts.next(), parts.next()) {
                            (Some(value), None, _) if width == 0 => ("", value),
                            (Some(mask), Some(value), None) => {
                                if mask.len() != width {
                                    return Err(ParseBlifError::new(
                                        *cl,
                                        format!(
                                            "cube width {} does not match {width} inputs",
                                            mask.len()
                                        ),
                                    ));
                                }
                                (mask, value)
                            }
                            _ => return Err(ParseBlifError::new(*cl, "malformed cube line")),
                        };
                        if m.cubes.len() == cubes_start {
                            on_set = !value.starts_with('0');
                        }
                        m.cubes.push(mask);
                    }
                    m.blocks.push(NamesBlock {
                        line: lineno,
                        inputs: start..m.signals.len(),
                        output,
                        cubes: cubes_start..m.cubes.len(),
                        on_set,
                    });
                }
                ".end" => break,
                ".exdc" | ".subckt" | ".gate" => {
                    return Err(ParseBlifError::new(
                        lineno,
                        format!("unsupported construct {head}"),
                    ));
                }
                _ => { /* ignore unknown dot-commands */ }
            }
        }
        Ok(m)
    }

    /// The id of signal `name`, assigning the next one on first sight.
    fn intern(&mut self, name: &'t str) -> u32 {
        let names = &mut self.names;
        *self.ids.entry(name).or_insert_with(|| {
            names.push(name);
            names.len() as u32 - 1
        })
    }

    /// Build the AIG: primary inputs and latch outputs first, then every
    /// `.names` block in elaboration order, then latch next-states and
    /// outputs.
    fn elaborate(self) -> Result<Aig, ParseBlifError> {
        // What drives each signal: UNDRIVEN, PORT or a block index.
        let mut producer = vec![UNDRIVEN; self.names.len()];
        for &s in &self.inputs {
            producer[s as usize] = PORT;
        }
        for &(_, _, q, _) in &self.latches {
            producer[q as usize] = PORT;
        }
        for (b, block) in self.blocks.iter().enumerate() {
            let out = block.output as usize;
            if producer[out] != UNDRIVEN {
                return Err(ParseBlifError::new(
                    block.line,
                    format!("signal '{}' is driven more than once", self.names[out]),
                ));
            }
            producer[out] = b as u32;
        }
        let order = self.elaboration_order(&producer)?;

        let mut aig = Aig::new(self.name);
        let mut lits = vec![Lit::FALSE; self.names.len()];
        for &s in &self.inputs {
            lits[s as usize] = aig.input(self.names[s as usize]);
        }
        for &(_, _, q, init) in &self.latches {
            lits[q as usize] = aig.latch(self.names[q as usize], init);
        }
        let mut sop = Sop::default();
        for b in order {
            let block = &self.blocks[b];
            sop.inputs.clear();
            sop.inputs.extend(
                self.signals[block.inputs.clone()]
                    .iter()
                    .map(|&s| lits[s as usize]),
            );
            let cubes = &self.cubes[block.cubes.clone()];
            lits[block.output as usize] = sop.build(&mut aig, cubes, block.on_set);
        }
        for &(line, d, q, _) in &self.latches {
            if producer[d as usize] == UNDRIVEN {
                return Err(ParseBlifError::new(
                    line,
                    format!("latch input '{}' is undriven", self.names[d as usize]),
                ));
            }
            aig.set_latch_next(lits[q as usize], lits[d as usize]);
        }
        for &(line, s) in &self.outputs {
            if producer[s as usize] == UNDRIVEN {
                return Err(ParseBlifError::new(
                    line,
                    format!("output '{}' is undriven", self.names[s as usize]),
                ));
            }
            aig.output(self.names[s as usize], lits[s as usize]);
        }
        Ok(aig)
    }

    /// Block indices sorted by (round, file position); see [`read_blif`].
    /// One iterative depth-first search computes every round. A block on a
    /// cycle or fed by an undriven signal never gets one, and the first
    /// such block in file order is the error.
    fn elaboration_order(&self, producer: &[u32]) -> Result<Vec<usize>, ParseBlifError> {
        const UNSEEN: u32 = 0;
        const ACTIVE: u32 = u32::MAX - 1;
        const NEVER: u32 = u32::MAX;
        let mut round = vec![UNSEEN; self.blocks.len()];
        // (block, position in `signals` of its next input to visit)
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.blocks.len() {
            if round[root] != UNSEEN {
                continue;
            }
            round[root] = ACTIVE;
            stack.push((root, self.blocks[root].inputs.start));
            while let Some(top) = stack.last_mut() {
                let (b, next) = *top;
                let inputs = self.blocks[b].inputs.clone();
                if next < inputs.end {
                    top.1 += 1;
                    let d = producer[self.signals[next] as usize];
                    if d < PORT && round[d as usize] == UNSEEN {
                        round[d as usize] = ACTIVE;
                        stack.push((d as usize, self.blocks[d as usize].inputs.start));
                    }
                    continue;
                }
                stack.pop();
                round[b] = self.signals[inputs].iter().fold(1, |r, &s| {
                    let dep = match producer[s as usize] {
                        PORT => 1,
                        UNDRIVEN => NEVER,
                        d => match round[d as usize] {
                            ACTIVE | NEVER => NEVER, // a cycle, or fed by one
                            rd => rd + u32::from(d as usize > b),
                        },
                    };
                    r.max(dep)
                });
            }
        }
        if let Some(b) = round.iter().position(|&r| r == NEVER) {
            let block = &self.blocks[b];
            return Err(ParseBlifError::new(
                block.line,
                format!(
                    "combinational cycle or undriven signal feeding '{}'",
                    self.names[block.output as usize]
                ),
            ));
        }
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_by_key(|&b| round[b]); // stable: file order within a round
        Ok(order)
    }
}

/// The netlist formats [`read_netlist_auto`] can detect.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum NetlistFormat {
    /// Berkeley Logic Interchange Format (this module's reader).
    Blif,
    /// ASCII AIGER (`aag` header; [`crate::aiger`]).
    AigerAscii,
    /// Binary AIGER (`aig` header; [`crate::aiger`]).
    AigerBinary,
}

/// Error from [`read_netlist_auto`]: either no known format was detected,
/// or the detected format's parser rejected the bytes.
#[derive(Debug)]
pub enum ReadNetlistError {
    /// The bytes match none of the known format signatures.
    UnknownFormat,
    /// Detected as BLIF, but the BLIF parser failed.
    Blif(ParseBlifError),
    /// Detected as AIGER (either variant), but the AIGER parser failed.
    Aiger(crate::aiger::ParseAigerError),
}

impl fmt::Display for ReadNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadNetlistError::UnknownFormat => {
                write!(f, "unrecognized netlist format (expected BLIF or AIGER)")
            }
            ReadNetlistError::Blif(e) => write!(f, "{e}"),
            ReadNetlistError::Aiger(e) => write!(f, "{e}"),
        }
    }
}

impl Error for ReadNetlistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReadNetlistError::UnknownFormat => None,
            ReadNetlistError::Blif(e) => Some(e),
            ReadNetlistError::Aiger(e) => Some(e),
        }
    }
}

/// Sniff the netlist format from content, never from a file extension.
///
/// AIGER files are self-identifying: the very first bytes are the header
/// keyword `aag` (ASCII) or `aig` (binary) followed by whitespace. BLIF has
/// no magic, so anything whose first non-blank, non-comment line starts
/// with a BLIF dot-command is treated as BLIF. Returns `None` when neither
/// signature matches.
fn sniff_format(bytes: &[u8]) -> Option<NetlistFormat> {
    let header_ws = |rest: &[u8]| rest.first().is_some_and(|b| b" \t\r\n".contains(b));
    if bytes.len() >= 4 && &bytes[..3] == b"aag" && header_ws(&bytes[3..]) {
        return Some(NetlistFormat::AigerAscii);
    }
    if bytes.len() >= 4 && &bytes[..3] == b"aig" && header_ws(&bytes[3..]) {
        return Some(NetlistFormat::AigerBinary);
    }
    // BLIF: skip blank lines and `#` comments; the first real line must be
    // a dot-command (`.model`, `.inputs`, ...).
    for line in bytes.split(|&b| b == b'\n') {
        let mut trimmed = line;
        while trimmed.first().is_some_and(|b| b" \t\r".contains(b)) {
            trimmed = &trimmed[1..];
        }
        match trimmed.first() {
            None => continue,
            Some(b'#') => continue,
            Some(b'.') => return Some(NetlistFormat::Blif),
            Some(_) => return None,
        }
    }
    None
}

/// Read a netlist in any supported format, detecting the format from the
/// content (an AIGER header keyword, or a leading BLIF dot-command) — the
/// single ingest path of the serving daemon, where jobs arrive as bytes
/// without trustworthy extensions.
///
/// # Errors
///
/// [`ReadNetlistError::UnknownFormat`] when no format signature matches;
/// otherwise the detected parser's error, wrapped.
pub fn read_netlist_auto(bytes: &[u8]) -> Result<Aig, ReadNetlistError> {
    match sniff_format(bytes) {
        Some(NetlistFormat::Blif) => read_blif(bytes).map_err(ReadNetlistError::Blif),
        Some(NetlistFormat::AigerAscii) | Some(NetlistFormat::AigerBinary) => {
            crate::aiger::read_aiger(bytes).map_err(ReadNetlistError::Aiger)
        }
        None => Err(ReadNetlistError::UnknownFormat),
    }
}

/// Elaborates `.names` SOP blocks (ON-set or OFF-set convention), reusing
/// its buffers across blocks.
#[derive(Default)]
struct Sop {
    /// The block's input literals, filled by the caller.
    inputs: Vec<Lit>,
    cube: Vec<Lit>,
    terms: Vec<Lit>,
}

impl Sop {
    fn build(&mut self, aig: &mut Aig, cubes: &[&str], on_set: bool) -> Lit {
        if cubes.is_empty() {
            return Lit::FALSE; // empty table = constant 0
        }
        self.terms.clear();
        for mask in cubes {
            self.cube.clear();
            for (i, ch) in mask.chars().enumerate() {
                match ch {
                    '1' => self.cube.push(self.inputs[i]),
                    '0' => self.cube.push(!self.inputs[i]),
                    _ => {}
                }
            }
            self.terms.push(aig.and_many(&self.cube));
        }
        let cover = aig.or_many(&self.terms);
        if on_set {
            cover
        } else {
            !cover
        }
    }
}

/// Write an AIG as BLIF. Every AND node becomes a two-input `.names` block;
/// complemented edges are expressed in the cube masks, so no extra inverter
/// nodes are emitted.
///
/// Port names are sanitized collision-free: whitespace maps to `_` (BLIF
/// signals are whitespace-delimited), names that collide afterwards — or
/// that would shadow the writer's synthetic `nd<i>`/`ln_<i>` node names, or
/// an input port — are uniquified with `_2`, `_3`, … suffixes. Without
/// this, ports like `a b` and `a_b` silently merged into one signal and a
/// port literally named `nd0` shorted itself to the constant node.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_blif<W: Write>(aig: &Aig, mut w: W) -> std::io::Result<()> {
    let (in_names, out_names) = blif_port_names(aig);
    writeln!(w, ".model {}", aig.name())?;
    if aig.num_inputs() > 0 {
        write!(w, ".inputs")?;
        for name in &in_names {
            write!(w, " {name}")?;
        }
        writeln!(w)?;
    }
    if aig.num_outputs() > 0 {
        write!(w, ".outputs")?;
        for name in &out_names {
            write!(w, " {name}")?;
        }
        writeln!(w)?;
    }
    // Internal nodes get synthetic names; PI nodes must resolve to their
    // declared port names so the reader can reconnect them.
    let node_name = |id: crate::NodeId| -> String {
        match aig.node(id) {
            crate::NodeKind::Input { index } => in_names[index as usize].clone(),
            _ => format!("nd{}", id.index()),
        }
    };
    for latch in aig.latches() {
        writeln!(
            w,
            ".latch ln_{} {} re clk {}",
            latch.output.index(),
            node_name(latch.output),
            if latch.init { 1 } else { 0 }
        )?;
    }
    // Constant node, if referenced.
    writeln!(w, ".names nd0")?; // constant 0: empty table

    for id in aig.and_ids() {
        let (a, b) = aig.and_fanins(id);
        writeln!(
            w,
            ".names {} {} {}",
            node_name(a.node()),
            node_name(b.node()),
            node_name(id)
        )?;
        writeln!(
            w,
            "{}{} 1",
            if a.is_complement() { '0' } else { '1' },
            if b.is_complement() { '0' } else { '1' }
        )?;
    }
    // Output buffers / inverters.
    for (o, name) in aig.outputs().iter().zip(&out_names) {
        writeln!(w, ".names {} {name}", node_name(o.lit.node()))?;
        writeln!(w, "{} 1", if o.lit.is_complement() { '0' } else { '1' })?;
    }
    for latch in aig.latches() {
        writeln!(
            w,
            ".names {} ln_{}",
            node_name(latch.next.node()),
            latch.output.index()
        )?;
        writeln!(
            w,
            "{} 1",
            if latch.next.is_complement() { '0' } else { '1' }
        )?;
    }
    writeln!(w, ".end")
}

/// Collision-free BLIF signal names for every port, inputs before outputs.
fn blif_port_names(aig: &Aig) -> (Vec<String>, Vec<String>) {
    /// `nd<i>` / `ln_<i>`: the writer's synthetic node and latch names.
    fn synthetic(name: &str) -> bool {
        let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
        name.strip_prefix("nd").is_some_and(digits) || name.strip_prefix("ln_").is_some_and(digits)
    }
    let mut used: HashSet<String> = HashSet::new();
    let mut unique = |name: &str| -> String {
        let mut base: String = name
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
        if base.is_empty() || synthetic(&base) {
            base.push('_');
        }
        let mut candidate = base.clone();
        let mut n = 2usize;
        while !used.insert(candidate.clone()) {
            candidate = format!("{base}_{n}");
            n += 1;
        }
        candidate
    };
    let inputs = (0..aig.num_inputs())
        .map(|i| unique(aig.input_name(i)))
        .collect();
    let outputs = aig.outputs().iter().map(|o| unique(&o.name)).collect();
    (inputs, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn parse_simple_model() {
        let text = "\
# a full adder
.model fa
.inputs a b cin
.outputs s cout
.names a b cin s
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";
        let aig = read_blif(text.as_bytes()).unwrap();
        assert_eq!(aig.name(), "fa");
        assert_eq!(aig.num_inputs(), 3);
        assert_eq!(aig.num_outputs(), 2);
        for p in 0..8usize {
            let inputs: Vec<bool> = (0..3).map(|i| p >> i & 1 == 1).collect();
            let ones = inputs.iter().filter(|&&b| b).count();
            let out = sim::eval_outputs(&aig, &inputs);
            assert_eq!(out[0], ones % 2 == 1, "sum for {p:03b}");
            assert_eq!(out[1], ones >= 2, "cout for {p:03b}");
        }
    }

    #[test]
    fn parse_offset_table_and_constants() {
        let text = "\
.model t
.inputs a b
.outputs nor one
.names a b nor
00 1
.names one
1
.end
";
        let aig = read_blif(text.as_bytes()).unwrap();
        let out = sim::eval_outputs(&aig, &[false, false]);
        assert_eq!(out, [true, true]);
        let out = sim::eval_outputs(&aig, &[true, false]);
        assert_eq!(out, [false, true]);
    }

    #[test]
    fn parse_latches() {
        let text = "\
.model cnt
.inputs en
.outputs q
.latch nq q re clk 1
.names en q nq
10 1
01 1
.end
";
        let aig = read_blif(text.as_bytes()).unwrap();
        assert_eq!(aig.num_latches(), 1);
        assert!(aig.latches()[0].init);
        let mut s = sim::SeqSim::new(&aig);
        assert_eq!(s.step(&[true]), [true]); // q=1, toggles
        assert_eq!(s.step(&[true]), [false]);
        assert_eq!(s.step(&[false]), [true]);
        assert_eq!(s.step(&[true]), [true]);
    }

    #[test]
    fn roundtrip_through_blif() {
        let mut g = Aig::new("rt");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let (s, co) = crate::build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);
        let mut buf = Vec::new();
        write_blif(&g, &mut buf).unwrap();
        let back = read_blif(buf.as_slice()).unwrap();
        assert!(sim::random_equiv(&g, &back, 8, 1));
    }

    /// Regression: whitespace sanitization used to merge distinct ports
    /// (`a b` vs `a_b`), an output sharing an input's name produced a
    /// self-loop, and a port literally named `nd0` shorted itself to the
    /// writer's synthetic constant node. All must round-trip now.
    #[test]
    fn roundtrip_with_colliding_port_names() {
        let mut g = Aig::new("collide");
        let a = g.input("a b");
        let b = g.input("a_b");
        let c = g.input("nd0");
        let x = g.and(a, b);
        let y = g.xor(x, c);
        g.output("a_b", y); // collides with input "a_b"
        g.output("y", !y);
        g.output("y", x); // duplicate output name
        let mut buf = Vec::new();
        write_blif(&g, &mut buf).unwrap();
        let back = read_blif(buf.as_slice()).unwrap();
        assert_eq!(back.num_inputs(), 3);
        assert_eq!(back.num_outputs(), 3);
        assert!(sim::random_equiv(&g, &back, 16, 7));
        // Input names survived distinct.
        let names: Vec<&str> = (0..3).map(|i| back.input_name(i)).collect();
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), 3, "input names must stay distinct: {names:?}");
    }

    /// A constant-zero and constant-one output survive the round trip.
    #[test]
    fn roundtrip_constant_outputs() {
        let mut g = Aig::new("consts");
        let a = g.input("a");
        g.output("zero", Lit::FALSE);
        g.output("one", Lit::TRUE);
        g.output("buf", a);
        let mut buf = Vec::new();
        write_blif(&g, &mut buf).unwrap();
        let back = read_blif(buf.as_slice()).unwrap();
        for v in [false, true] {
            let out = sim::eval_outputs(&back, &[v]);
            assert_eq!(out, [false, true, v]);
        }
    }

    /// One circuit through all three on-disk formats: the auto reader must
    /// detect each by content and parse to an equivalent graph.
    #[test]
    fn auto_reader_detects_all_three_formats() {
        let mut g = Aig::new("rt");
        let a = g.input("a");
        let b = g.input("b");
        let c = g.input("c");
        let (s, co) = crate::build::full_adder(&mut g, a, b, c);
        g.output("s", s);
        g.output("cout", co);

        let mut blif = Vec::new();
        write_blif(&g, &mut blif).unwrap();
        assert_eq!(sniff_format(&blif), Some(NetlistFormat::Blif));

        let mut ascii = Vec::new();
        crate::aiger::write_aiger(&g, &mut ascii).unwrap();
        assert_eq!(sniff_format(&ascii), Some(NetlistFormat::AigerAscii));

        // Binary AIGER, hand-rolled (there is no binary writer): a single
        // AND of the two inputs, lhs 6 = 4 & 2, delta-encoded as [2, 2].
        let mut binary = b"aig 3 2 0 1 1\n6\n".to_vec();
        binary.extend_from_slice(&[2, 2]);
        assert_eq!(sniff_format(&binary), Some(NetlistFormat::AigerBinary));

        for bytes in [&blif, &ascii] {
            let back = read_netlist_auto(bytes).unwrap();
            assert!(sim::random_equiv(&g, &back, 16, 3));
        }
        let small = read_netlist_auto(&binary).unwrap();
        assert_eq!(small.num_inputs(), 2);
        assert_eq!(small.num_ands(), 1);
    }

    #[test]
    fn auto_reader_rejects_garbage() {
        for garbage in [
            &b""[..],
            b"hello world\n",
            b"\x00\x01\x02\x03binary soup",
            b"aigx 1 2 3", // near-miss header keyword
            b"  \n# only comments\n",
        ] {
            assert!(
                matches!(
                    read_netlist_auto(garbage),
                    Err(ReadNetlistError::UnknownFormat)
                ),
                "{garbage:?} must be UnknownFormat"
            );
        }
        // Detected-but-malformed inputs surface the inner parser's error.
        assert!(matches!(
            read_netlist_auto(b".model t\n.outputs z\n.end\n"),
            Err(ReadNetlistError::Blif(_))
        ));
        assert!(matches!(
            read_netlist_auto(b"aag 1 2 3\n"),
            Err(ReadNetlistError::Aiger(_))
        ));
        // Errors chain through `source()` for idiomatic boxing.
        let err = read_netlist_auto(b"aag 1 2 3\n").unwrap_err();
        assert!(Error::source(&err).is_some());
    }

    #[test]
    fn error_on_undriven_output() {
        let text = ".model t\n.inputs a\n.outputs z\n.end\n";
        let err = read_blif(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("undriven"));
    }

    #[test]
    fn error_on_cycle() {
        let text = "\
.model t
.inputs a
.outputs x
.names a y x
11 1
.names a x y
11 1
.end
";
        let err = read_blif(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("cycle"));
    }

    /// A `.names` output may not name a signal something already drives.
    /// Over a latch output, the latch's next-state would otherwise be set
    /// on the block's literal, which `set_latch_next` rejects with a panic.
    #[test]
    fn error_on_a_signal_driven_twice() {
        for (text, message) in [
            (
                ".model t\n.inputs a\n.outputs q\n.latch d q 0\n.names a q\n1 1\n.names a d\n1 1\n.end\n",
                "blif parse error at line 5: signal 'q' is driven more than once",
            ),
            (
                ".model t\n.inputs a b\n.outputs b\n.names a b\n1 1\n",
                "blif parse error at line 4: signal 'b' is driven more than once",
            ),
            (
                ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n",
                "blif parse error at line 6: signal 'y' is driven more than once",
            ),
        ] {
            let err = read_blif(text.as_bytes()).unwrap_err();
            assert_eq!(err.to_string(), message);
        }
    }

    /// A chain of two-input blocks, each reading the previous one; the
    /// last drives output `y`.
    fn chain(n: usize, reversed: bool) -> String {
        let mut blocks: Vec<String> = (0..n)
            .map(|i| {
                let prev = if i == 0 {
                    "a".to_string()
                } else {
                    format!("n{}", i - 1)
                };
                let out = if i + 1 == n {
                    "y".to_string()
                } else {
                    format!("n{i}")
                };
                format!(".names {prev} b {out}\n11 1\n")
            })
            .collect();
        if reversed {
            blocks.reverse();
        }
        format!(
            ".model chain\n.inputs a b\n.outputs y\n{}.end\n",
            blocks.concat()
        )
    }

    /// Elaboration is linear however the blocks are ordered. Written last
    /// to first, every block waits on the one below it, which repeated
    /// sweeps over the file would turn into work quadratic in the chain
    /// length (minutes at this size even in an optimized build). The same
    /// graph must come out either way.
    #[test]
    fn reversed_chain_parses_in_linear_time_to_the_forward_graph() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        const BLOCKS: usize = 100_000;
        let forward = read_blif(chain(BLOCKS, false).as_bytes()).unwrap();
        let (done, finished) = channel();
        let worker = std::thread::spawn(move || {
            let parsed = read_blif(chain(BLOCKS, true).as_bytes());
            let _ = done.send(());
            parsed
        });
        // A panic drops `done` and ends the wait early; `join` reports it.
        let waited = finished.recv_timeout(std::time::Duration::from_secs(120));
        assert!(
            waited != Err(RecvTimeoutError::Timeout),
            "a linear parse of 100k blocks takes seconds, not minutes"
        );
        let reversed = worker.join().expect("parse thread panicked").unwrap();
        assert_eq!(reversed.num_ands(), BLOCKS);
        assert_eq!(reversed.nodes(), forward.nodes());
        assert_eq!(reversed.outputs(), forward.outputs());
    }
}
