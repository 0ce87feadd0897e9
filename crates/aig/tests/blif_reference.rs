//! Differential test of the BLIF reader against the previous line-based
//! reader, kept below verbatim as a test-only oracle (its errors become
//! `(line, message)` pairs, since `ParseBlifError` cannot be built outside
//! the crate).
//!
//! Both readers must build the same graph, node for node, or fail with
//! the same line and message. There is one allowed divergence: the
//! current reader rejects a `.names` output that names a signal already
//! driven ("driven more than once"), where the oracle either let the last
//! `.names` win or panicked. Wherever the oracle panics, the current
//! reader must return an error.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io::BufRead;
use std::panic;
use std::sync::Once;

use proptest::prelude::*;

use xsfq_aig::io::{read_blif, write_blif, ParseBlifError as BlifError};
use xsfq_aig::{Aig, Lit};

/// The oracle's error: a line and a message. It stands in for the crate's
/// error, whose constructor is private, so the oracle body compiles
/// unchanged.
#[derive(Debug)]
struct ParseBlifError {
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
}

/// Read a BLIF model into an AIG. `.names` tables become SOP logic over
/// AND/INV; `.latch` statements become latches (init values `0`, `1`;
/// `2`/`3`/missing default to `0`).
///
/// # Errors
///
/// Returns [`ParseBlifError`] on malformed input, undriven signals or
/// unsupported constructs (`.subckt`, multiple models).
fn reference_read_blif<R: BufRead>(reader: R) -> Result<Aig, ParseBlifError> {
    // Collect logical lines (joining `\` continuations).
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_start = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| ParseBlifError::new(idx + 1, e.to_string()))?;
        let content = match line.find('#') {
            Some(p) => &line[..p],
            None => &line[..],
        };
        let trimmed = content.trim_end();
        if pending.is_empty() {
            pending_start = idx + 1;
        }
        if let Some(stripped) = trimmed.strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
            continue;
        }
        pending.push_str(trimmed);
        if !pending.trim().is_empty() {
            lines.push((pending_start, std::mem::take(&mut pending)));
        } else {
            pending.clear();
        }
    }

    #[derive(Debug)]
    struct NamesBlock {
        line: usize,
        signals: Vec<String>, // inputs then the output
        cubes: Vec<(String, char)>,
    }

    let mut model_name = String::from("top");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<(usize, String)> = Vec::new(); // (declaring line, name)
    let mut latches: Vec<(usize, String, String, bool)> = Vec::new(); // (line, input, output, init)
    let mut names: Vec<NamesBlock> = Vec::new();

    let mut i = 0;
    while i < lines.len() {
        let (lineno, line) = &lines[i];
        let mut tokens = line.split_whitespace();
        let Some(head) = tokens.next() else {
            i += 1;
            continue;
        };
        match head {
            ".model" => {
                if let Some(n) = tokens.next() {
                    model_name = n.to_string();
                }
            }
            ".inputs" => inputs.extend(tokens.map(str::to_string)),
            ".outputs" => outputs.extend(tokens.map(|t| (*lineno, t.to_string()))),
            ".latch" => {
                let args: Vec<&str> = tokens.collect();
                if args.len() < 2 {
                    return Err(ParseBlifError::new(
                        *lineno,
                        ".latch needs input and output",
                    ));
                }
                // .latch <input> <output> [<type> <control>] [<init>]
                let init = matches!(args.last(), Some(&"1"));
                latches.push((*lineno, args[0].to_string(), args[1].to_string(), init));
            }
            ".names" => {
                let signals: Vec<String> = tokens.map(str::to_string).collect();
                if signals.is_empty() {
                    return Err(ParseBlifError::new(
                        *lineno,
                        ".names needs at least an output",
                    ));
                }
                let mut cubes = Vec::new();
                while i + 1 < lines.len() {
                    let (cl, cline) = &lines[i + 1];
                    if cline.trim_start().starts_with('.') {
                        break;
                    }
                    let parts: Vec<&str> = cline.split_whitespace().collect();
                    match parts.as_slice() {
                        [out] if signals.len() == 1 => {
                            let v = out.chars().next().unwrap_or('0');
                            cubes.push((String::new(), v));
                        }
                        [mask, out] => {
                            if mask.len() != signals.len() - 1 {
                                return Err(ParseBlifError::new(
                                    *cl,
                                    format!(
                                        "cube width {} does not match {} inputs",
                                        mask.len(),
                                        signals.len() - 1
                                    ),
                                ));
                            }
                            let v = out.chars().next().unwrap_or('0');
                            cubes.push((mask.to_string(), v));
                        }
                        _ => {
                            return Err(ParseBlifError::new(*cl, "malformed cube line"));
                        }
                    }
                    i += 1;
                }
                names.push(NamesBlock {
                    line: *lineno,
                    signals,
                    cubes,
                });
            }
            ".end" => break,
            ".exdc" | ".subckt" | ".gate" => {
                return Err(ParseBlifError::new(
                    *lineno,
                    format!("unsupported construct {head}"),
                ));
            }
            _ => { /* ignore unknown dot-commands */ }
        }
        i += 1;
    }

    // Build the AIG: create PIs and latch outputs, then elaborate `.names`
    // blocks in dependency order.
    let mut aig = Aig::new(model_name);
    let mut env: HashMap<String, Lit> = HashMap::new();
    for name in &inputs {
        let l = aig.input(name.clone());
        env.insert(name.clone(), l);
    }
    for (_, _, out, init) in &latches {
        let l = aig.latch(out.clone(), *init);
        env.insert(out.clone(), l);
    }

    // Iteratively elaborate blocks whose inputs are all available.
    let mut remaining: Vec<NamesBlock> = names;
    loop {
        let before = remaining.len();
        remaining.retain(|block| {
            let (out_name, in_names) = block.signals.split_last().expect("non-empty");
            if !in_names.iter().all(|n| env.contains_key(n)) {
                return true; // keep for a later round
            }
            let in_lits: Vec<Lit> = in_names.iter().map(|n| env[n]).collect();
            let lit = build_sop(&mut aig, &in_lits, &block.cubes);
            env.insert(out_name.clone(), lit);
            false
        });
        if remaining.is_empty() {
            break;
        }
        if remaining.len() == before {
            let block = &remaining[0];
            return Err(ParseBlifError::new(
                block.line,
                format!(
                    "combinational cycle or undriven signal feeding '{}'",
                    block.signals.last().unwrap()
                ),
            ));
        }
    }

    for (lineno, input, output, _) in &latches {
        let Some(&next) = env.get(input) else {
            return Err(ParseBlifError::new(
                *lineno,
                format!("latch input '{input}' is undriven"),
            ));
        };
        let q = env[output];
        aig.set_latch_next(q, next);
    }
    for (lineno, name) in &outputs {
        let Some(&lit) = env.get(name) else {
            return Err(ParseBlifError::new(
                *lineno,
                format!("output '{name}' is undriven"),
            ));
        };
        aig.output(name.clone(), lit);
    }
    Ok(aig)
}

/// Elaborate one `.names` SOP block (ON-set or OFF-set convention).
fn build_sop(aig: &mut Aig, inputs: &[Lit], cubes: &[(String, char)]) -> Lit {
    if cubes.is_empty() {
        return Lit::FALSE; // empty table = constant 0
    }
    let on_set = cubes[0].1 != '0';
    let mut terms = Vec::with_capacity(cubes.len());
    for (mask, _) in cubes {
        let mut lits = Vec::new();
        for (i, ch) in mask.chars().enumerate() {
            match ch {
                '1' => lits.push(inputs[i]),
                '0' => lits.push(!inputs[i]),
                _ => {}
            }
        }
        terms.push(aig.and_many(&lits));
    }
    let cover = aig.or_many(&terms);
    if on_set {
        cover
    } else {
        !cover
    }
}

thread_local! {
    /// Set while the oracle runs: its panics are expected, not news.
    static IN_ORACLE: Cell<bool> = const { Cell::new(false) };
}

/// The oracle's verdict, or `None` where it panics.
fn oracle(bytes: &[u8]) -> Option<Result<Aig, ParseBlifError>> {
    static QUIET_HOOK: Once = Once::new();
    QUIET_HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !IN_ORACLE.with(Cell::get) {
                default(info);
            }
        }));
    });
    IN_ORACLE.with(|q| q.set(true));
    let verdict = panic::catch_unwind(|| reference_read_blif(bytes)).ok();
    IN_ORACLE.with(|q| q.set(false));
    verdict
}

fn describe(r: &Result<Aig, impl std::fmt::Debug>) -> String {
    match r {
        Ok(aig) => format!("Ok({} nodes)", aig.num_nodes()),
        Err(e) => format!("Err({e:?})"),
    }
}

/// Run both readers on `bytes`; `Err` describes how they disagree.
fn agree(bytes: &[u8]) -> Result<(), String> {
    let new: Result<Aig, BlifError> = read_blif(bytes);
    if let Err(e) = &new {
        if e.to_string().ends_with("is driven more than once") {
            return Ok(()); // the one allowed divergence
        }
    }
    let Some(old) = oracle(bytes) else {
        return match new {
            Err(_) => Ok(()),
            Ok(_) => Err("the oracle panics but the reader accepts".into()),
        };
    };
    match (&new, &old) {
        (Ok(a), Ok(b)) => {
            let inputs = |g: &Aig| -> Vec<String> {
                (0..g.num_inputs())
                    .map(|i| g.input_name(i).to_string())
                    .collect()
            };
            if a.name() != b.name() {
                return Err(format!("model name {:?} vs {:?}", a.name(), b.name()));
            }
            if a.nodes() != b.nodes() {
                return Err(format!(
                    "nodes differ ({} vs {})",
                    a.num_nodes(),
                    b.num_nodes()
                ));
            }
            if inputs(a) != inputs(b) {
                return Err(format!("inputs {:?} vs {:?}", inputs(a), inputs(b)));
            }
            if a.outputs() != b.outputs() {
                return Err(format!("outputs {:?} vs {:?}", a.outputs(), b.outputs()));
            }
            if a.latches() != b.latches() {
                return Err(format!("latches {:?} vs {:?}", a.latches(), b.latches()));
            }
            Ok(())
        }
        (Err(e), Err(ParseBlifError { line, message })) => {
            let expected = format!("blif parse error at line {line}: {message}");
            if e.to_string() == expected {
                Ok(())
            } else {
                Err(format!("error {e} vs {expected}"))
            }
        }
        _ => Err(format!("{} vs {}", describe(&new), describe(&old))),
    }
}

fn check(what: &str, bytes: &[u8]) {
    if let Err(why) = agree(bytes) {
        panic!(
            "{what}: {why}\n--- input ---\n{}",
            String::from_utf8_lossy(bytes)
        );
    }
}

/// Rename every internal `nd<i>` signal of writer-produced BLIF the way
/// the benchmark's hot traffic does; ports and latch outputs keep their
/// names.
fn rename_internal(blif: &[u8], salt: u64) -> Vec<u8> {
    let text = std::str::from_utf8(blif).unwrap();
    let latches: HashSet<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix(".latch "))
        .filter_map(|l| l.split(' ').nth(1))
        .collect();
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    for line in text.lines() {
        for (i, word) in line.split(' ').enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match word.strip_prefix("nd") {
                Some(id)
                    if !id.is_empty()
                        && id.bytes().all(|b| b.is_ascii_digit())
                        && !latches.contains(word) =>
                {
                    out.push_str(&format!("s{salt:x}_{id}"));
                }
                _ => out.push_str(word),
            }
        }
        out.push('\n');
    }
    out.into_bytes()
}

#[test]
fn suite_designs_parse_identically_plain_and_renamed() {
    for b in xsfq_benchmarks::all() {
        let mut plain = Vec::new();
        write_blif(&(b.build)(), &mut plain).unwrap();
        check(b.name, &plain);
        check(b.name, &rename_internal(&plain, 0x5eed));
    }
}

/// Hand-picked edge cases of the line layer and the grammar.
#[test]
fn edge_cases_agree() {
    let cases: &[&[u8]] = &[
        b"",
        b".model",
        b".model a\n.model\n.model b c\n.inputs x\n.outputs x\n",
        b".model t\r\n.inputs a b\r\n.outputs y\r\n.names a b y\r\n11 1\r\n.end\r\n",
        b".model t\n.inputs a \\\n b\n.outputs y\n.names a \\\n b y # tail\n11 1\n",
        b".model t\n.inputs a\n.outputs y\n.names a y \\",
        b".model t\n.inputs a\n.outputs y\n.names a y\n1 1 \\\n\n",
        b"\\\n\\\n.model t\n",
        b".model t\n.inputs a\n.outputs y\n.names a y\n\xc3\xa91 1\n",
        b".model t\n.inputs a\n.outputs y\n.names a y\n\xe2\x80\x83 1\n",
        ".model\u{a0}t\n.inputs\u{2003}a\n.outputs y\n.names a\u{a0}y\n1\u{2003}1\n".as_bytes(),
        b".model t\n.inputs a\n\xff.outputs y\n",
        b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\xe2\x82\n",
        b".model t\n.inputs a\x0bb\n.outputs y\n.names a b y\n11\x0b1\n",
        b".model t\n.inputs a\n.outputs y\n.latch\n",
        b".model t\n.inputs a\n.outputs y\n.latch a 1\n.names 1 y\n1 1\n",
        b".model t\n.inputs q\n.outputs y\n.latch y q 1\n.names q y\n0 1\n",
        b".model t\n.inputs a a\n.outputs a\n",
        b".model t\n.inputs a\n.outputs y\n.latch y q\n.latch a q\n.names q y\n1 1\n",
        b".model t\n.inputs a\n.outputs y\n.names\n",
        b".model t\n.inputs a\n.outputs y\n.names y\n1 1\n",
        b".model t\n.inputs a\n.outputs y\n.names a y\n1\n",
        b".model t\n.inputs a\n.outputs y\n.names a y\n11 1\n",
        b".model t\n.inputs a\n.outputs y\n.names a y\n.subckt x\n",
        b".model t\n.inputs a\n.outputs y\n.end\n.subckt x\n",
        b".model t\n.outputs y\n.names y\n0\n1\n",
        b".model t\n.outputs y\n.names y\n",
        b".model t\n.inputs a b\n.outputs y\n.names a b y\n-1 0\n1- 1\n",
        b".model t\n.outputs y\n.names z y\n1 1\n.names y z\n1 1\n",
        b".model t\n.outputs y\n.names y y\n1 1\n",
        b".model t\n.inputs a\n.outputs y\n.latch d q\n.names a q y\n11 1\n",
        // A signal driven twice: the oracle panics on the first, lets the last
        // `.names` win on the others.
        b".model t\n.inputs a\n.outputs q\n.latch d q 0\n.names a q\n1 1\n.names a d\n1 1\n",
        b".model t\n.inputs a b\n.outputs b\n.names a b\n0 1\n",
        b".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n",
    ];
    for (i, case) in cases.iter().enumerate() {
        check(&format!("case {i}"), case);
    }
}

/// Tokens and bytes the line layer treats specially: CRLF, continuations,
/// comments, Unicode whitespace and non-ASCII cube characters, mixed with
/// the grammar's own words.
const SOUP: &[&[u8]] = &[
    b".model",
    b".inputs",
    b".outputs",
    b".names",
    b".latch",
    b".end",
    b".subckt",
    b".default_input_arrival",
    b"a",
    b"b",
    b"c",
    b"q",
    b"0",
    b"1",
    b"-",
    b"01",
    b"10",
    b"11",
    b"1-",
    b"--",
    b"2",
    b"\\",
    b"#",
    b"# note",
    b"\r\n",
    b"\r",
    b"\n",
    b" ",
    b"\t",
    b"\x0b",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "\u{e9}".as_bytes(),
    "1\u{e9}".as_bytes(),
];

/// A stray byte and a truncated sequence.
const INVALID_UTF8: [&[u8]; 2] = [b"\xff", b"\xe2\x82"];

fn soup(picks: &[(u8, bool)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(pick, newline) in picks {
        out.extend_from_slice(SOUP[pick as usize % SOUP.len()]);
        out.push(if newline { b'\n' } else { b' ' });
    }
    out
}

/// SplitMix64, seeded per case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// How [`random_dag`] orders its `.names` blocks in the file.
#[derive(Copy, Clone)]
enum Order {
    Forward,
    Reversed,
    Shuffled,
}

/// A random sequential netlist: `.names` blocks over earlier signals,
/// written in `order`. With `flaws`, some blocks also read a later block
/// (a forward reference that may close a cycle) or an undriven signal, or
/// drive a signal that is already driven.
fn random_dag(seed: u64, order: Order, flaws: bool) -> Vec<u8> {
    let mut rng = Rng(seed);
    let n_inputs = 1 + rng.below(4);
    let n_latches = rng.below(3);
    let n_blocks = 1 + rng.below(24);
    let mut pool: Vec<String> = (0..n_inputs).map(|i| format!("i{i}")).collect();
    pool.extend((0..n_latches).map(|i| format!("q{i}")));
    let mut blocks = Vec::new();
    for b in 0..n_blocks {
        let width = rng.below(4);
        let mut ins: Vec<String> = (0..width)
            .map(|_| pool[rng.below(pool.len())].clone())
            .collect();
        if flaws && width > 0 && rng.below(8) == 0 {
            ins[0] = if rng.below(3) == 0 {
                "ghost".to_string()
            } else {
                format!("n{}", b + rng.below(n_blocks - b))
            };
        }
        let output = if flaws && rng.below(64) == 0 {
            pool[rng.below(pool.len())].clone()
        } else {
            format!("n{b}")
        };
        let value = if rng.below(4) == 0 { '0' } else { '1' };
        let mut text = format!(".names {} {output}\n", ins.join(" "));
        for _ in 0..rng.below(4) {
            let mask: String = (0..width).map(|_| ['0', '1', '-'][rng.below(3)]).collect();
            if width == 0 {
                text.push_str(&format!("{value}\n"));
            } else {
                text.push_str(&format!("{mask} {value}\n"));
            }
        }
        blocks.push(text);
        pool.push(format!("n{b}"));
    }
    match order {
        Order::Forward => {}
        Order::Reversed => blocks.reverse(),
        Order::Shuffled => {
            for i in (1..blocks.len()).rev() {
                blocks.swap(i, rng.below(i + 1));
            }
        }
    }
    for q in 0..n_latches {
        let at = rng.below(blocks.len() + 1);
        let next = &pool[rng.below(pool.len())];
        blocks.insert(at, format!(".latch {next} q{q} re clk {}\n", rng.below(4)));
    }
    let outputs: Vec<&str> = (0..1 + rng.below(3))
        .map(|_| pool[rng.below(pool.len())].as_str())
        .collect();
    let inputs: Vec<String> = (0..n_inputs).map(|i| format!("i{i}")).collect();
    let mut text = format!(
        ".model dag\n.inputs {}\n.outputs {}\n",
        inputs.join(" "),
        outputs.join(" ")
    );
    text.extend(blocks);
    text.push_str(".end\n");
    text.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn readers_agree_on_soup(picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..64)) {
        let bytes = soup(&picks);
        if let Err(why) = agree(&bytes) {
            prop_assert!(false, "{why}: {:?}", String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn readers_agree_past_the_model_line(
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..64),
    ) {
        let mut bytes = b".model soup\n.inputs a b\n".to_vec();
        bytes.extend(soup(&picks));
        if let Err(why) = agree(&bytes) {
            prop_assert!(false, "{why}: {:?}", String::from_utf8_lossy(&bytes));
        }
    }

    /// Invalid UTF-8 anywhere, even inside a multi-byte character.
    #[test]
    fn readers_agree_on_invalid_utf8(
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..64),
        at: usize,
        which: bool,
    ) {
        let mut bytes = soup(&picks);
        let at = at % (bytes.len() + 1);
        bytes.splice(at..at, INVALID_UTF8[usize::from(which)].iter().copied());
        if let Err(why) = agree(&bytes) {
            prop_assert!(false, "{why}: {:?}", String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn readers_agree_on_random_dags_in_any_block_order(seed: u64, flaws: bool) {
        for order in [Order::Forward, Order::Reversed, Order::Shuffled] {
            let bytes = random_dag(seed, order, flaws);
            if let Err(why) = agree(&bytes) {
                prop_assert!(false, "{why}:\n{}", String::from_utf8_lossy(&bytes));
            }
        }
    }
}
