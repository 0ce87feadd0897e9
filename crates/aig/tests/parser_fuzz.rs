//! Parser totality: `read_blif` and `read_aiger` must be *total* — any byte
//! sequence either parses or returns a line-numbered error. They must never
//! panic, never abort on an oversized allocation, and never loop. Raw byte
//! soup exercises the lexing layer; token soup (random words from each
//! format's vocabulary) reaches much deeper into the grammar, where the
//! integer-parse and index-range bugs live. Pass scripts arrive from
//! clients too, so `Script::parse` gets the same token soup.

use proptest::prelude::*;

use xsfq_aig::aiger::read_aiger;
use xsfq_aig::io::read_blif;
use xsfq_aig::pass::{Script, MAX_REPEAT_DEPTH};

/// Render a token-soup case: words drawn from `vocab` by index, with
/// selector-driven separators (space or newline).
fn soup(vocab: &[&str], picks: &[(u8, bool)]) -> String {
    let mut out = String::new();
    for &(pick, newline) in picks {
        out.push_str(vocab[pick as usize % vocab.len()]);
        out.push(if newline { '\n' } else { ' ' });
    }
    out
}

const BLIF_VOCAB: &[&str] = &[
    ".model",
    ".inputs",
    ".outputs",
    ".names",
    ".latch",
    ".end",
    ".exdc",
    "a",
    "b",
    "n1",
    "0",
    "1",
    "-",
    "01",
    "10",
    "--",
    "2",
    "\\",
    "soup",
    "4294967296",
];

const AIGER_VOCAB: &[&str] = &[
    "aag",
    "aig",
    "0",
    "1",
    "2",
    "3",
    "4",
    "5",
    "6",
    "7",
    "8",
    "13",
    "64",
    "i0",
    "l0",
    "o0",
    "c",
    "name",
    "18446744073709551615",
    "-1",
];

/// Every word of the script grammar: `repeat` with round counts (zero and
/// one past `usize::MAX` among them), braces, separators, every pass name
/// and alias, `-K` with a cut size in and out of range, the presets and a
/// name no pass answers to.
const SCRIPT_VOCAB: &[&str] = &[
    "repeat",
    "repeat",
    "0",
    "1",
    "3",
    "18446744073709551616",
    "{",
    "}",
    ";",
    "b",
    "balance",
    "rw",
    "rewrite",
    "rwz",
    "rewrite_zero",
    "rf",
    "refactor",
    "c",
    "cleanup",
    "f",
    "fraig",
    "-K",
    "10",
    "99",
    "fast",
    "standard",
    "high",
    "nosuch",
];

/// Render a structured BLIF case from one `u64` per statement. Each
/// statement is well-formed alone: an `.inputs`, `.outputs`, `.latch` or
/// `.names` header over the names `a`..`d`, and under a `.names` header up
/// to three cubes exactly as wide as its input list. Together they can
/// redefine a signal (a `.names` over a latch output, say), leave one
/// undriven or close a loop, which soups almost never reach.
fn statements(picks: &[u64]) -> String {
    const NAMES: [&str; 4] = ["a", "b", "c", "d"];
    let mut out = String::from(".model s\n");
    for &pick in picks {
        let mut bits = pick;
        let mut take = |n: u32| {
            let v = (bits & ((1 << n) - 1)) as usize;
            bits >>= n;
            v
        };
        match take(2) {
            0 => out.push_str(&format!(".inputs {}\n", NAMES[take(2)])),
            1 => out.push_str(&format!(".outputs {}\n", NAMES[take(2)])),
            2 => {
                let (d, q, init) = (NAMES[take(2)], NAMES[take(2)], take(1));
                out.push_str(&format!(".latch {d} {q} {init}\n"));
            }
            _ => {
                let width = take(2) % 3;
                let signals: Vec<&str> = (0..=width).map(|_| NAMES[take(2)]).collect();
                out.push_str(&format!(".names {}\n", signals.join(" ")));
                let value = if take(2) == 0 { '0' } else { '1' };
                for _ in 0..take(2) {
                    let mask: String = (0..width).map(|_| ['0', '1', '-', '1'][take(2)]).collect();
                    if width == 0 {
                        out.push_str(&format!("{value}\n"));
                    } else {
                        out.push_str(&format!("{mask} {value}\n"));
                    }
                }
            }
        }
    }
    out.push_str(".end\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn blif_reader_is_total_on_well_formed_statements(
        picks in prop::collection::vec(any::<u64>(), 0..12),
    ) {
        let text = statements(&picks);
        if let Err(e) = read_blif(text.as_bytes()) {
            prop_assert!(e.line() >= 1, "error lost its line number: {e}");
        }
    }

    #[test]
    fn blif_reader_is_total_on_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Err(e) = read_blif(data.as_slice()) {
            prop_assert!(e.line() >= 1, "error lost its line number: {e}");
        }
    }

    #[test]
    fn aiger_reader_is_total_on_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Err(e) = read_aiger(data.as_slice()) {
            prop_assert!(e.line() >= 1, "error lost its line number: {e}");
        }
    }

    #[test]
    fn blif_reader_is_total_on_token_soup(
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..64),
    ) {
        let text = soup(BLIF_VOCAB, &picks);
        if let Err(e) = read_blif(text.as_bytes()) {
            prop_assert!(e.line() >= 1, "error lost its line number: {e}");
        }
    }

    #[test]
    fn aiger_reader_is_total_on_token_soup(
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..64),
    ) {
        let text = soup(AIGER_VOCAB, &picks);
        if let Err(e) = read_aiger(text.as_bytes()) {
            prop_assert!(e.line() >= 1, "error lost its line number: {e}");
        }
    }

    /// Headed aiger soup: a plausible header (small counts) followed by
    /// random body tokens — reaches the definition and symbol sections that
    /// pure soup almost never enters.
    #[test]
    fn aiger_reader_is_total_past_the_header(
        binary: bool,
        m in 0u64..12,
        i in 0u64..6,
        l in 0u64..4,
        o in 0u64..4,
        a in 0u64..6,
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..48),
    ) {
        let fmt = if binary { "aig" } else { "aag" };
        let text = format!("{fmt} {m} {i} {l} {o} {a}\n{}", soup(AIGER_VOCAB, &picks));
        if let Err(e) = read_aiger(text.as_bytes()) {
            prop_assert!(e.line() >= 1, "error lost its line number: {e}");
        }
    }

    /// Script soup inside up to twice the nesting bound of `repeat` blocks:
    /// parsing returns a script or an error, a parsed script compiles or
    /// returns an error, and it prints back to text that parses to itself.
    #[test]
    fn script_parser_is_total_on_token_soup(
        depth in 0..=2 * MAX_REPEAT_DEPTH,
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..48),
    ) {
        let text = format!(
            "{}{}{}",
            "repeat 2 { ".repeat(depth),
            soup(SCRIPT_VOCAB, &picks),
            " }".repeat(depth)
        );
        if let Ok(script) = Script::parse(&text) {
            let _ = script.compile(None);
            prop_assert_eq!(Script::parse(&script.to_string()), Ok(script));
        }
    }

    /// Headed blif soup, same idea: a valid model line then random body.
    #[test]
    fn blif_reader_is_total_past_the_model_line(
        picks in prop::collection::vec((any::<u8>(), any::<bool>()), 0..48),
    ) {
        let text = format!(".model soup\n{}", soup(BLIF_VOCAB, &picks));
        if let Err(e) = read_blif(text.as_bytes()) {
            prop_assert!(e.line() >= 1, "error lost its line number: {e}");
        }
    }
}
