//! Pass scripts: ABC-style optimization recipes, their execution engine,
//! and per-pass telemetry.
//!
//! The paper's flow (§3.1.3) runs a fixed ABC recipe. This module makes the
//! recipe a value instead of a hard-coded loop:
//!
//! * [`Script`] — a parsed ABC-style pass script (`"b; rw; rf; b; rwz;
//!   rw"`), with a `repeat N { … }` keep-best construct and the named
//!   presets `fast` / `standard` / `high` that expand to **bit-identical**
//!   sequences to the legacy [`Effort`](crate::opt::Effort) paths (pinned
//!   by the `script_golden` test suite).
//! * [`CompiledScript`] — a script whose every statement is resolved to one
//!   of a closed set of passes, run against a [`PassCtx`]: one thread's
//!   warm synthesis arenas plus the record of its current job (the
//!   cancellation token, the completed passes and the pass in flight).
//! * [`PassStat`] — per-pass telemetry (wall time, node/depth deltas,
//!   commit counts) recorded by the script engine and surfaced through the
//!   flow report.
//!
//! # Script grammar
//!
//! ```text
//! script :=  stmt (';' stmt)*            -- empty statements are ignored
//! stmt   :=  'repeat' INT '{' script '}'
//!         |  PRESET                       -- fast | standard | high (inlined)
//!         |  PASS ARG*                    -- e.g. "rf -K 10"
//! ```
//!
//! `repeat` blocks nest at most [`MAX_REPEAT_DEPTH`] deep, counting the
//! block a preset inlines: parsing, compiling, running, printing and
//! dropping a script each recurse once per level, and scripts arrive from
//! untrusted clients.
//!
//! Pass names (aliases in parentheses): `b` (`balance`), `rw` (`rewrite`),
//! `rwz` (`rewrite_zero`), `rf` (`refactor`, optional `-K <2..=12>` cut
//! size), `c` (`cleanup`), and `f` (`fraig`) — SAT sweeping, which lives in
//! `xsfq-sat` and resolves only when [`Script::compile`] is given a
//! [`Sweep`] (the synthesis flow passes `xsfq_sat::fraig_pass`). A
//! `repeat N { body }` block runs `body` up to `N` times starting from its
//! input, keeps the best graph seen (fewest AND nodes, ties broken by
//! depth), and stops early when a round fails to shrink the graph —
//! exactly the legacy `optimize` loop.
//!
//! ```
//! use xsfq_aig::pass::{PassCtx, Script};
//! use xsfq_aig::{build, Aig};
//!
//! let mut g = Aig::new("fa");
//! let a = g.input("a");
//! let b = g.input("b");
//! let c = g.input("cin");
//! let (s, co) = build::full_adder(&mut g, a, b, c);
//! g.output("s", s);
//! g.output("cout", co);
//!
//! let script = Script::parse("b; rw; rf; b; rwz; rw").unwrap();
//! let compiled = script.compile(None).unwrap();
//! let mut ctx = PassCtx::new();
//! let out = compiled.run(&g, &mut ctx);
//! assert!(out.num_ands() <= g.num_ands());
//! assert_eq!(ctx.telemetry().len(), 6, "one stat per executed pass");
//! ```

use std::error::Error;
use std::fmt;
use std::time::Instant;

use crate::cuts::CutArena;
use crate::opt::{self, EvalScratch};
use crate::{Aig, AigDefect};
use xsfq_exec::CancelToken;

/// The SAT sweep a script runs as `f` / `fraig`: merges proven-equivalent
/// nodes, polls the token at its own boundaries, and returns its output
/// graph with the number of proven merges. `xsfq-sat` provides it as
/// `xsfq_sat::fraig_pass`; this crate cannot, because `xsfq-sat` depends
/// on it.
pub type Sweep = fn(&Aig, &CancelToken) -> (Aig, u64);

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Per-pass telemetry recorded by the script engine.
#[derive(Clone, Debug)]
pub struct PassStat {
    /// Canonical pass name as scripted (e.g. `"rf -K 10"`).
    pub name: String,
    /// Wall-clock time of the pass in nanoseconds.
    pub wall_ns: u64,
    /// AND nodes before the pass.
    pub nodes_before: usize,
    /// AND nodes after the pass.
    pub nodes_after: usize,
    /// AIG depth before the pass.
    pub depth_before: usize,
    /// AIG depth after the pass.
    pub depth_after: usize,
    /// Pass-specific commit counter: accepted cut replacements for the
    /// resynthesis passes, rebuilt super-gates for `balance`, proven merges
    /// for `fraig`, zero for `cleanup`. A resynthesis or `fraig` pass whose
    /// output is its input, node for node, reports zero.
    pub commits: u64,
}

impl fmt::Display for PassStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} nodes, depth {} -> {}, {} commits, {:.2} ms",
            self.name,
            self.nodes_before,
            self.nodes_after,
            self.depth_before,
            self.depth_after,
            self.commits,
            self.wall_ns as f64 / 1e6,
        )
    }
}

// ---------------------------------------------------------------------------
// PassCtx
// ---------------------------------------------------------------------------

/// One thread's synthesis state and the record of its current job.
///
/// The context owns the arenas every pass shares: the cut scratch and the
/// synthesizer (plans and recorded builds) the resynthesis passes evaluate
/// and commit with, and the CSR [`CutArena`] the rewrite passes enumerate
/// into. They stay warm from job to job, which never changes a result:
/// everything they cache is a pure function of its inputs (the invariant
/// the `script_golden` suite pins).
///
/// [`PassCtx::start`] begins a job, which the context then records: every
/// completed pass's [`PassStat`], the pass in flight and, when asked, the
/// defects of every pass output. The caller owns the context, so it can
/// read the record after a pass panics, and then replaces the context,
/// whose arenas it can no longer trust, with a fresh one.
#[derive(Debug, Default)]
pub struct PassCtx {
    pub(crate) eval: EvalScratch,
    pub(crate) cut_arena: CutArena,
    /// Cooperative cancellation: checked at every pass boundary by the
    /// engine and every few hundred nodes inside the resynthesis and
    /// balance passes. Defaults to a token that never cancels.
    token: CancelToken,
    /// Set once a boundary check observed the token cancelled; the engine
    /// stops the script and callers map it to a structured job error.
    cancelled: bool,
    telemetry: Vec<PassStat>,
    in_flight: Option<String>,
    /// Whether every pass output goes through [`Aig::validate`].
    validate: bool,
    defects: Vec<AigDefect>,
    /// Deterministic fault injection plan for this job (tests only).
    #[cfg(feature = "chaos")]
    chaos: Option<crate::chaos::Injector>,
}

impl PassCtx {
    /// Context with cold arenas, a never-cancelled token and an empty
    /// record.
    pub fn new() -> Self {
        PassCtx::default()
    }

    /// Begin a job polled by `token`: the record, the cancel flag, the
    /// per-pass validation and the chaos plan start empty, while the arenas
    /// stay warm.
    pub fn start(&mut self, token: CancelToken) {
        *self = PassCtx {
            eval: std::mem::take(&mut self.eval),
            cut_arena: std::mem::take(&mut self.cut_arena),
            token,
            ..PassCtx::default()
        };
    }

    /// The job's cancellation token. The resynthesis and balance passes
    /// poll it every few hundred nodes; anything long-running should do
    /// the same.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Whether a boundary check observed the token cancelled (the script
    /// stopped early and its output must be discarded).
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// Install this job's chaos injection plan, if it has one
    /// (deterministic fault injection; see [`crate::chaos`]).
    #[cfg(feature = "chaos")]
    pub fn set_chaos(&mut self, injector: Option<crate::chaos::Injector>) {
        self.chaos = injector;
    }

    /// Run [`Aig::validate`] on every pass output of this job and record
    /// what it finds ([`PassCtx::defects`]).
    pub fn validate_passes(&mut self) {
        self.validate = true;
    }

    /// The shared CSR cut arena the rewrite passes enumerate into. Exposed
    /// read-only so integrity audits (`CutArena::check_integrity`) can run
    /// between passes.
    pub fn cut_arena(&self) -> &CutArena {
        &self.cut_arena
    }

    /// Telemetry of every pass this job completed, in execution order.
    pub fn telemetry(&self) -> &[PassStat] {
        &self.telemetry
    }

    /// Drain the recorded telemetry.
    pub fn take_telemetry(&mut self) -> Vec<PassStat> {
        std::mem::take(&mut self.telemetry)
    }

    /// The pass that started but did not complete: the one a panic or a
    /// cancellation hit. `None` between passes.
    pub fn in_flight(&self) -> Option<&str> {
        self.in_flight.as_deref()
    }

    /// What [`Aig::validate`] found in this job's pass outputs, in
    /// execution order (see [`PassCtx::validate_passes`]).
    pub fn defects(&self) -> &[AigDefect] {
        &self.defects
    }

    /// Run one pass with telemetry: time it, diff node/depth counts and
    /// record its commit count.
    fn run_instrumented(&mut self, pass: &Pass, aig: &Aig) -> Aig {
        // Pass boundary: a cancelled job must not start another pass.
        if self.token.is_cancelled() {
            self.cancelled = true;
            return aig.clone();
        }
        let name = pass.to_string();
        self.in_flight = Some(name.clone());
        self.apply_chaos(&name);
        // Second boundary check: cancellation may have arrived while the
        // pass was announced (or while a chaos stall held it). The pass
        // stays in flight — announced but never run, so it leaves no
        // telemetry row and keeps the fault attribution.
        if self.token.is_cancelled() {
            self.cancelled = true;
            return aig.clone();
        }
        let nodes_before = aig.num_ands();
        let depth_before = aig.depth();
        let start = Instant::now();
        let (out, commits) = pass.run(aig, self);
        let stat = PassStat {
            name,
            wall_ns: start.elapsed().as_nanos() as u64,
            nodes_before,
            nodes_after: out.num_ands(),
            depth_before,
            depth_after: out.depth(),
            commits,
        };
        if self.validate {
            self.defects.extend(out.validate());
        }
        self.telemetry.push(stat);
        self.in_flight = None;
        out
    }

    /// Fire the chaos fault planned for this pass, if any: the job's
    /// completed-pass count is the index of the pass about to run. Compiled
    /// to nothing without the `chaos` feature.
    #[cfg(feature = "chaos")]
    fn apply_chaos(&self, pass_name: &str) {
        let Some(injector) = &self.chaos else {
            return;
        };
        let pass_index = self.telemetry.len();
        match injector.fault_at(pass_index) {
            Some(crate::chaos::FaultKind::Panic) => {
                panic!("chaos: injected panic in pass `{pass_name}` (pass #{pass_index})")
            }
            Some(crate::chaos::FaultKind::Stall) => {
                crate::chaos::stall_until_cancelled(&self.token)
            }
            None => {}
        }
    }

    #[cfg(not(feature = "chaos"))]
    #[inline]
    fn apply_chaos(&self, _pass_name: &str) {}
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// One resolved script statement's transformation. The set is closed: a
/// script names only these, and [`Script::compile`] resolves each name and
/// its arguments in one `match`.
///
/// Every pass preserves the PI/PO/latch interface and the function of every
/// output (scripted flows are CEC-checked against their source in the test
/// suites), and is deterministic: it runs on the calling thread and commits
/// nodes in ascending index order.
#[derive(Clone, Copy, Debug)]
enum Pass {
    Balance,
    Rewrite { zero_gain: bool },
    Refactor { k: usize },
    Cleanup,
    Sweep(Sweep),
}

impl Pass {
    /// Resolve the scripted pass `name` with `args`; `f` / `fraig` resolve
    /// only when a `sweep` is given.
    fn resolve(name: &str, args: &[String], sweep: Option<Sweep>) -> Result<Pass, ScriptError> {
        let pass = match (name, sweep) {
            ("b" | "balance", _) => Pass::Balance,
            ("rw" | "rewrite", _) => Pass::Rewrite { zero_gain: false },
            ("rwz" | "rewrite_zero", _) => Pass::Rewrite { zero_gain: true },
            ("rf" | "refactor", _) => Pass::Refactor {
                k: refactor_k(args)?,
            },
            ("c" | "cleanup", _) => Pass::Cleanup,
            ("f" | "fraig", Some(sweep)) => Pass::Sweep(sweep),
            _ => return Err(ScriptError::UnknownPass(name.to_string())),
        };
        if !args.is_empty() && !matches!(pass, Pass::Refactor { .. }) {
            return Err(ScriptError::BadArgs {
                pass: pass.to_string(),
                msg: format!("takes no arguments, got {args:?}"),
            });
        }
        Ok(pass)
    }

    /// Apply the pass: its output graph and its commit count (accepted cut
    /// replacements, rebuilt super-gates or proven merges; zero for `c`).
    fn run(self, aig: &Aig, ctx: &mut PassCtx) -> (Aig, u64) {
        match self {
            Pass::Balance => opt::balance_counted(aig, ctx.token()),
            Pass::Rewrite { zero_gain } => opt::rewrite_ctx(aig, zero_gain, ctx),
            Pass::Refactor { k } => opt::refactor_ctx(aig, k, ctx),
            Pass::Cleanup => (aig.compact(), 0),
            Pass::Sweep(sweep) => sweep(aig, ctx.token()),
        }
    }
}

/// The canonical scripted name (telemetry and error messages).
impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Balance => f.write_str("b"),
            Pass::Rewrite { zero_gain: false } => f.write_str("rw"),
            Pass::Rewrite { zero_gain: true } => f.write_str("rwz"),
            Pass::Refactor { k: 8 } => f.write_str("rf"),
            Pass::Refactor { k } => write!(f, "rf -K {k}"),
            Pass::Cleanup => f.write_str("c"),
            Pass::Sweep(_) => f.write_str("f"),
        }
    }
}

/// The cut size of `rf` / `rf -K <k>`, with `k` in `2..=12`.
fn refactor_k(args: &[String]) -> Result<usize, ScriptError> {
    let k = match args {
        [] => Ok(8),
        [flag, value] if flag == "-K" => value
            .parse::<usize>()
            .map_err(|_| format!("cut size `{value}` is not a number")),
        _ => Err(format!("expected `rf` or `rf -K <k>`, got args {args:?}")),
    };
    k.and_then(|k| match k {
        2..=12 => Ok(k),
        _ => Err(format!("cut size {k} outside 2..=12")),
    })
    .map_err(|msg| ScriptError::BadArgs {
        pass: "rf".into(),
        msg,
    })
}

// ---------------------------------------------------------------------------
// Script errors
// ---------------------------------------------------------------------------

/// Error from parsing or compiling a [`Script`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScriptError {
    /// The script text does not match the grammar.
    Parse {
        /// What was wrong.
        msg: String,
        /// 1-based column of the offending token in the script text,
        /// or `0` when the error is at end of input.
        col: usize,
        /// The offending token, verbatim (empty at end of input).
        token: String,
    },
    /// No pass answers to this name (`f` / `fraig` when the script was
    /// compiled without a sweep).
    UnknownPass(String),
    /// A pass rejected its arguments.
    BadArgs {
        /// Pass name.
        pass: String,
        /// What was wrong.
        msg: String,
    },
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Parse { msg, col, token } => {
                write!(f, "script parse error: {msg}")?;
                if *col > 0 {
                    write!(f, " at column {col} (`{token}`)")
                } else {
                    write!(f, " at end of script")
                }
            }
            ScriptError::UnknownPass(name) => write!(f, "unknown pass `{name}`"),
            ScriptError::BadArgs { pass, msg } => write!(f, "pass `{pass}`: {msg}"),
        }
    }
}

impl Error for ScriptError {}

// ---------------------------------------------------------------------------
// Script AST + parser
// ---------------------------------------------------------------------------

/// One statement of a [`Script`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum ScriptStmt {
    /// Run the pass `name` with `args` (e.g. `["-K", "10"]`).
    Pass { name: String, args: Vec<String> },
    /// Keep-best loop: run `body` up to `times` times starting from the
    /// incoming graph, keep the best result (fewest AND nodes, ties broken
    /// by depth), stop early when a round does not shrink the best graph.
    Repeat { times: usize, body: Vec<ScriptStmt> },
}

/// A parsed pass script, not yet resolved to passes. See the
/// [module docs](self) for the grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    stmts: Vec<ScriptStmt>,
}

impl Script {
    /// Parse an ABC-style script. Preset names (`fast`, `standard`,
    /// `high`) appearing as statements are inlined.
    pub fn parse(text: &str) -> Result<Script, ScriptError> {
        let tokens = tokenize(text);
        let mut pos = 0;
        let stmts = parse_stmts(&tokens, &mut pos, 0)?;
        if pos != tokens.len() {
            return Err(parse_err(
                format!("unexpected `{}`", tokens[pos].text),
                &tokens,
                pos,
            ));
        }
        Ok(Script { stmts })
    }

    /// The named preset (`"fast"`, `"standard"`, `"high"`), if any.
    pub fn named(name: &str) -> Option<Script> {
        let effort = match name {
            "fast" => opt::Effort::Fast,
            "standard" => opt::Effort::Standard,
            "high" => opt::Effort::High,
            _ => return None,
        };
        Some(Script::preset(effort))
    }

    /// The preset script matching a legacy [`Effort`](opt::Effort) level.
    /// Bit-identical to the pre-pass-manager `optimize` paths (pinned by
    /// the `script_golden` suite):
    ///
    /// * `Fast` → `c; repeat 1 { b; rw; rf; b; rwz; rw }`
    /// * `Standard` → `c; repeat 3 { b; rw; rf; b; rwz; rw }`
    /// * `High` → `c; repeat 6 { b; rw; rf -K 10; b; rwz; rw }`
    pub fn preset(effort: opt::Effort) -> Script {
        let (rounds, refactor_k) = match effort {
            opt::Effort::Fast => (1, 8),
            opt::Effort::Standard => (3, 8),
            opt::Effort::High => (6, 10),
        };
        let pass = |name: &str| ScriptStmt::Pass {
            name: name.to_string(),
            args: Vec::new(),
        };
        let refactor = if refactor_k == 8 {
            pass("rf")
        } else {
            ScriptStmt::Pass {
                name: "rf".to_string(),
                args: vec!["-K".to_string(), refactor_k.to_string()],
            }
        };
        Script {
            stmts: vec![
                pass("c"),
                ScriptStmt::Repeat {
                    times: rounds,
                    body: vec![
                        pass("b"),
                        pass("rw"),
                        refactor,
                        pass("b"),
                        pass("rwz"),
                        pass("rw"),
                    ],
                },
            ],
        }
    }

    /// Resolve every pass, producing an executable script. `sweep` is the
    /// pass `f` / `fraig` runs; without one those names are unknown.
    ///
    /// # Errors
    ///
    /// [`ScriptError::UnknownPass`] for a name no pass answers to, and
    /// [`ScriptError::BadArgs`] for arguments the pass rejects.
    pub fn compile(&self, sweep: Option<Sweep>) -> Result<CompiledScript, ScriptError> {
        fn compile_stmts(
            stmts: &[ScriptStmt],
            sweep: Option<Sweep>,
        ) -> Result<Vec<CompiledStmt>, ScriptError> {
            stmts
                .iter()
                .map(|s| match s {
                    ScriptStmt::Pass { name, args } => {
                        Ok(CompiledStmt::Pass(Pass::resolve(name, args, sweep)?))
                    }
                    ScriptStmt::Repeat { times, body } => Ok(CompiledStmt::Repeat {
                        times: *times,
                        body: compile_stmts(body, sweep)?,
                    }),
                })
                .collect()
        }
        Ok(CompiledScript {
            stmts: compile_stmts(&self.stmts, sweep)?,
        })
    }
}

impl Default for Script {
    /// The `standard` preset.
    fn default() -> Self {
        Script::preset(opt::Effort::Standard)
    }
}

impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_stmts(stmts: &[ScriptStmt], f: &mut fmt::Formatter<'_>) -> fmt::Result {
            for (i, s) in stmts.iter().enumerate() {
                if i > 0 {
                    write!(f, "; ")?;
                }
                match s {
                    ScriptStmt::Pass { name, args } => {
                        write!(f, "{name}")?;
                        for a in args {
                            write!(f, " {a}")?;
                        }
                    }
                    ScriptStmt::Repeat { times, body } => {
                        write!(f, "repeat {times} {{ ")?;
                        write_stmts(body, f)?;
                        write!(f, " }}")?;
                    }
                }
            }
            Ok(())
        }
        write_stmts(&self.stmts, f)
    }
}

/// One script token plus its 1-based column in the source text.
struct Token {
    text: String,
    col: usize,
}

fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    let mut cur_col = 0;
    for (i, ch) in text.chars().enumerate() {
        let col = i + 1;
        match ch {
            ';' | '{' | '}' => {
                if !cur.is_empty() {
                    tokens.push(Token {
                        text: std::mem::take(&mut cur),
                        col: cur_col,
                    });
                }
                tokens.push(Token {
                    text: ch.to_string(),
                    col,
                });
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(Token {
                        text: std::mem::take(&mut cur),
                        col: cur_col,
                    });
                }
            }
            c => {
                if cur.is_empty() {
                    cur_col = col;
                }
                cur.push(c);
            }
        }
    }
    if !cur.is_empty() {
        tokens.push(Token {
            text: cur,
            col: cur_col,
        });
    }
    tokens
}

/// A [`ScriptError::Parse`] pointing at `tokens[pos]` (or end of input).
fn parse_err(msg: impl Into<String>, tokens: &[Token], pos: usize) -> ScriptError {
    let (col, token) = match tokens.get(pos) {
        Some(t) => (t.col, t.text.clone()),
        None => (0, String::new()),
    };
    ScriptError::Parse {
        msg: msg.into(),
        col,
        token,
    }
}

/// How deep `repeat` blocks may nest, counting the block a preset inlines
/// (presets nest one deep). Every walk over a script recurses once per
/// level, so the bound keeps a client's script off the bottom of the stack.
pub const MAX_REPEAT_DEPTH: usize = 16;

/// Parse `;`-separated statements until end of input (`depth == 0`, the
/// top level) or a closing `}` (inside `depth` enclosing `repeat` blocks,
/// brace consumed by the caller).
fn parse_stmts(
    tokens: &[Token],
    pos: &mut usize,
    depth: usize,
) -> Result<Vec<ScriptStmt>, ScriptError> {
    let mut stmts = Vec::new();
    loop {
        // Skip statement separators.
        while *pos < tokens.len() && tokens[*pos].text == ";" {
            *pos += 1;
        }
        if *pos >= tokens.len() || (depth > 0 && tokens[*pos].text == "}") {
            return Ok(stmts);
        }
        let tok = tokens[*pos].text.as_str();
        match tok {
            "{" | "}" => {
                return Err(parse_err(format!("unexpected `{tok}`"), tokens, *pos));
            }
            "repeat" | "fast" | "standard" | "high" if depth == MAX_REPEAT_DEPTH => {
                return Err(parse_err(
                    format!("`repeat` blocks nest deeper than {MAX_REPEAT_DEPTH}"),
                    tokens,
                    *pos,
                ));
            }
            "repeat" => {
                *pos += 1;
                let times = tokens
                    .get(*pos)
                    .and_then(|t| t.text.parse::<usize>().ok())
                    .ok_or_else(|| parse_err("`repeat` needs a round count", tokens, *pos))?;
                if times == 0 {
                    return Err(parse_err("`repeat 0` is empty", tokens, *pos));
                }
                *pos += 1;
                if tokens.get(*pos).map(|t| t.text.as_str()) != Some("{") {
                    return Err(parse_err("`repeat N` needs a `{ … }` body", tokens, *pos));
                }
                let open = *pos;
                *pos += 1;
                let body = parse_stmts(tokens, pos, depth + 1)?;
                if tokens.get(*pos).map(|t| t.text.as_str()) != Some("}") {
                    return Err(parse_err("unclosed `{`", tokens, open));
                }
                if body.is_empty() {
                    return Err(parse_err("empty `repeat` body", tokens, *pos));
                }
                *pos += 1;
                stmts.push(ScriptStmt::Repeat { times, body });
            }
            preset @ ("fast" | "standard" | "high") => {
                *pos += 1;
                stmts.extend(Script::named(preset).expect("preset exists").stmts);
            }
            _ => {
                let name = tok.to_string();
                *pos += 1;
                let mut args = Vec::new();
                // Arguments run to the next separator.
                while *pos < tokens.len() {
                    match tokens[*pos].text.as_str() {
                        ";" | "{" | "}" => break,
                        a => {
                            args.push(a.to_string());
                            *pos += 1;
                        }
                    }
                }
                stmts.push(ScriptStmt::Pass { name, args });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled script + execution
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum CompiledStmt {
    Pass(Pass),
    Repeat {
        times: usize,
        body: Vec<CompiledStmt>,
    },
}

/// A [`Script`] with every pass resolved, ready to run.
///
/// Compiled scripts are `Sync`, so one compilation can drive many designs
/// concurrently (the flow's `run_many` does exactly that).
#[derive(Debug)]
pub struct CompiledScript {
    stmts: Vec<CompiledStmt>,
}

impl CompiledScript {
    /// Execute the script, recording one [`PassStat`] per executed pass
    /// into `ctx`.
    ///
    /// Execution stops early when the context's [`CancelToken`] reports
    /// cancelled (check [`PassCtx::cancelled`]; the returned graph must be
    /// discarded).
    pub fn run(&self, aig: &Aig, ctx: &mut PassCtx) -> Aig {
        run_seq(&self.stmts, aig, ctx)
    }
}

fn run_seq(stmts: &[CompiledStmt], aig: &Aig, ctx: &mut PassCtx) -> Aig {
    let Some(first) = stmts.first() else {
        return aig.clone();
    };
    let mut cur = run_stmt(first, aig, ctx);
    for stmt in &stmts[1..] {
        if ctx.cancelled {
            break;
        }
        cur = run_stmt(stmt, &cur, ctx);
    }
    cur
}

fn run_stmt(stmt: &CompiledStmt, aig: &Aig, ctx: &mut PassCtx) -> Aig {
    match stmt {
        CompiledStmt::Pass(pass) => ctx.run_instrumented(pass, aig),
        CompiledStmt::Repeat { times, body } => {
            // The legacy optimize loop: run the body on the best graph so
            // far, keep the result only when it improves (fewer ANDs, or
            // equal ANDs and lower depth), stop once a round does not
            // shrink the best size.
            let mut best = aig.clone();
            for _ in 0..*times {
                let before = best.num_ands();
                let cur = run_seq(body, &best, ctx);
                if ctx.cancelled {
                    // Cancelled output is discarded by the caller.
                    break;
                }
                if cur.num_ands() < best.num_ands()
                    || (cur.num_ands() == best.num_ands() && cur.depth() < best.depth())
                {
                    best = cur;
                }
                if best.num_ands() >= before {
                    break;
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;

    fn adder() -> Aig {
        let mut g = Aig::new("add4");
        let a = g.input_word("a", 4);
        let b = g.input_word("b", 4);
        let (s, c) = build::ripple_add(&mut g, &a, &b, crate::Lit::FALSE);
        g.output_word("s", &s);
        g.output("c", c);
        g
    }

    #[test]
    fn parse_roundtrips_through_display() {
        for text in [
            "b; rw; rf; b; rwz; rwz",
            "c; repeat 3 { b; rw; rf; b; rwz; rw }",
            "rf -K 10",
            "c; repeat 2 { b; repeat 2 { rw; rwz }; rf }",
        ] {
            let script = Script::parse(text).unwrap();
            let rendered = script.to_string();
            assert_eq!(Script::parse(&rendered).unwrap(), script, "{text}");
        }
    }

    #[test]
    fn presets_parse_by_name() {
        for (name, effort) in [
            ("fast", opt::Effort::Fast),
            ("standard", opt::Effort::Standard),
            ("high", opt::Effort::High),
        ] {
            assert_eq!(Script::parse(name).unwrap(), Script::preset(effort));
            assert_eq!(Script::named(name).unwrap(), Script::preset(effort));
        }
        // Presets inline into surrounding scripts.
        let s = Script::parse("fast; c").unwrap();
        assert_eq!(
            s.stmts.len(),
            Script::preset(opt::Effort::Fast).stmts.len() + 1
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(
            Script::parse("repeat { b }"),
            Err(ScriptError::Parse { .. })
        ));
        assert!(matches!(
            Script::parse("repeat 2 { b"),
            Err(ScriptError::Parse { .. })
        ));
        assert!(matches!(
            Script::parse("repeat 2 }"),
            Err(ScriptError::Parse { .. })
        ));
        assert!(matches!(
            Script::parse("repeat 2 { }"),
            Err(ScriptError::Parse { .. })
        ));
        assert!(matches!(
            Script::parse("nosuch").unwrap().compile(None),
            Err(ScriptError::UnknownPass(_))
        ));
        assert!(matches!(
            Script::parse("rf -K 99").unwrap().compile(None),
            Err(ScriptError::BadArgs { .. })
        ));
        assert!(matches!(
            Script::parse("b -K 3").unwrap().compile(None),
            Err(ScriptError::BadArgs { .. })
        ));
    }

    #[test]
    fn script_runs_and_records_telemetry() {
        let g = adder();
        let compiled = Script::parse("c; b; rw").unwrap().compile(None).unwrap();
        let mut ctx = PassCtx::new();
        let out = compiled.run(&g, &mut ctx);
        assert!(out.num_ands() <= g.num_ands());
        let stats = ctx.telemetry();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].name, "c");
        assert_eq!(stats[1].name, "b");
        assert_eq!(stats[2].name, "rw");
        assert_eq!(stats[0].nodes_before, g.num_ands());
        assert_eq!(stats[2].nodes_after, out.num_ands());
        // Stats chain: each pass starts where the previous ended.
        assert_eq!(stats[1].nodes_after, stats[2].nodes_before);
    }

    #[test]
    fn repeat_keeps_best_and_stops_early() {
        let g = adder();
        // A repeat of a no-op pass must terminate after one round (no
        // improvement) and return an unchanged graph.
        let compiled = Script::parse("repeat 5 { c }")
            .unwrap()
            .compile(None)
            .unwrap();
        let mut ctx = PassCtx::new();
        let out = compiled.run(&g.compact(), &mut ctx);
        assert_eq!(out.nodes(), g.compact().nodes());
        assert_eq!(ctx.telemetry().len(), 1, "early exit after round 1");
    }

    #[test]
    fn start_keeps_the_arenas_warm_and_clears_the_record() {
        let g = adder();
        let compiled = Script::parse("b; rw").unwrap().compile(None).unwrap();
        let mut ctx = PassCtx::new();
        let cold = compiled.run(&g, &mut ctx);
        let warm_cuts = ctx.cut_arena().total_cuts();
        assert!(warm_cuts > 0, "rw enumerated into the arena");
        // A cancelled job leaves its flag set…
        let cancelled = CancelToken::new();
        cancelled.cancel();
        ctx.start(cancelled);
        compiled.run(&g, &mut ctx);
        assert!(ctx.cancelled());
        // …and the next job starts with an empty record and warm arenas.
        ctx.start(CancelToken::new());
        assert!(!ctx.cancelled());
        assert!(ctx.telemetry().is_empty());
        assert_eq!(ctx.cut_arena().total_cuts(), warm_cuts);
        // Warm arenas cannot change the result.
        let warm = compiled.run(&g, &mut ctx);
        assert_eq!(cold.nodes(), warm.nodes());
        assert_eq!(ctx.telemetry().len(), 2);
    }

    #[test]
    fn parse_errors_carry_column_and_token() {
        // "b; rw; }" — the stray brace sits at column 8.
        let Err(ScriptError::Parse { msg, col, token }) = Script::parse("b; rw; }") else {
            panic!("stray `}}` must be a parse error");
        };
        assert_eq!(col, 8);
        assert_eq!(token, "}");
        assert!(msg.contains("unexpected"), "{msg}");
        // "repeat x { b }" — the bad round count at column 8.
        let Err(ScriptError::Parse { col, token, .. }) = Script::parse("repeat x { b }") else {
            panic!("bad round count must be a parse error");
        };
        assert_eq!(col, 8);
        assert_eq!(token, "x");
        // Unclosed brace points at the `{` that was never closed.
        let Err(ScriptError::Parse { col, token, .. }) = Script::parse("repeat 2 { b") else {
            panic!("unclosed brace must be a parse error");
        };
        assert_eq!(col, 10);
        assert_eq!(token, "{");
        // End-of-input errors report column 0 and an empty token.
        let Err(ScriptError::Parse { col, token, .. }) = Script::parse("repeat 2") else {
            panic!("missing body must be a parse error");
        };
        assert_eq!(col, 0);
        assert_eq!(token, "");
        let rendered = Script::parse("repeat 2").unwrap_err().to_string();
        assert!(rendered.contains("end of script"), "{rendered}");
        // Nesting: the bound parses; one level more, or a preset (which
        // inlines a `repeat`) at the bound, fails at that statement.
        let nested = |depth: usize, body: &str| {
            format!(
                "{}{body}{}",
                "repeat 1 { ".repeat(depth),
                " }".repeat(depth)
            )
        };
        let deepest = Script::parse(&nested(MAX_REPEAT_DEPTH, "b")).unwrap();
        assert_eq!(Script::parse(&deepest.to_string()).unwrap(), deepest);
        let col = MAX_REPEAT_DEPTH * "repeat 1 { ".len() + 1;
        for (text, offender) in [
            (nested(MAX_REPEAT_DEPTH + 1, "b"), "repeat"),
            (nested(MAX_REPEAT_DEPTH, "fast"), "fast"),
        ] {
            let Err(ScriptError::Parse {
                msg,
                col: at,
                token,
            }) = Script::parse(&text)
            else {
                panic!("nesting past the bound must be a parse error");
            };
            assert_eq!((at, token.as_str()), (col, offender), "{msg}");
            assert!(msg.contains("nest deeper than 16"), "{msg}");
        }
    }

    #[test]
    fn long_aliases_resolve_to_the_short_passes() {
        let g = adder();
        let run = |text: &str| {
            let compiled = Script::parse(text).unwrap().compile(None).unwrap();
            let mut ctx = PassCtx::new();
            let out = compiled.run(&g, &mut ctx);
            let names: Vec<String> = ctx.take_telemetry().into_iter().map(|s| s.name).collect();
            (out, names)
        };
        let (long, long_names) = run(
            "cleanup; balance; rewrite; refactor; refactor -K 10; balance; rewrite_zero; \
             refactor -K 8",
        );
        let (short, short_names) = run("c; b; rw; rf; rf -K 10; b; rwz; rf");
        assert_eq!(long.nodes(), short.nodes());
        assert_eq!(long.outputs(), short.outputs());
        assert_eq!(
            long_names,
            ["c", "b", "rw", "rf", "rf -K 10", "b", "rwz", "rf"]
        );
        assert_eq!(short_names, long_names);
        // Without a sweep, `f` and its alias name no pass.
        for name in ["f", "fraig"] {
            assert_eq!(
                Script::parse(name).unwrap().compile(None).unwrap_err(),
                ScriptError::UnknownPass(name.to_string())
            );
        }
    }

    #[test]
    fn cancelled_token_stops_the_script_at_a_pass_boundary() {
        let g = adder();
        let compiled = Script::parse("c; b; rw; rf; b; rwz")
            .unwrap()
            .compile(None)
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = PassCtx::new();
        ctx.start(token);
        let out = compiled.run(&g, &mut ctx);
        assert!(ctx.cancelled());
        assert_eq!(ctx.telemetry().len(), 0, "no pass may start when cancelled");
        assert_eq!(out.nodes(), g.nodes(), "input passes through unchanged");
    }
}
