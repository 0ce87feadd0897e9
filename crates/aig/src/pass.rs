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
//!   of a closed set of passes, run against a [`PassCtx`] that carries the
//!   shared synthesis arenas, the cancellation token and the telemetry
//!   sink.
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
use crate::Aig;
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
    /// for `fraig`, zero for `cleanup`.
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

/// Observer hook invoked around every executed pass.
pub trait PassObserver {
    /// Called before a pass starts running. Fault reports use this to name
    /// the pass that was in flight when a job panicked or stalled.
    fn on_pass_start(&mut self, _name: &str) {}
    /// Called once per executed pass, in execution order.
    fn on_pass(&mut self, stat: &PassStat);
    /// Called with the graph a pass produced, which is exactly the graph
    /// the rest of the script will see. Paranoid validation hooks in here;
    /// the default does nothing.
    fn on_graph(&mut self, _aig: &Aig) {}
}

// ---------------------------------------------------------------------------
// PassCtx
// ---------------------------------------------------------------------------

/// The reusable arena set of a [`PassCtx`]: the cut scratch and the
/// synthesizer the resynthesis passes evaluate and commit with, plus the
/// CSR [`CutArena`] the rewrite passes enumerate into, whose cuts carry
/// their functions. Besides plans, the synthesizer holds the recorded
/// builds the commit step replays.
///
/// Detach it with [`PassCtx::take_arenas`] and re-install it with
/// [`PassCtx::reuse_arenas`] to keep the buffers (and the pure-function
/// synthesis memos: plans and recorded builds) warm across whole designs —
/// the flow's `run_many` keeps one `PassArenas` per executor worker for an
/// entire batch. Sharing arenas never changes results: everything they
/// cache is a pure function of its inputs.
#[derive(Default)]
pub struct PassArenas {
    pub(crate) eval: EvalScratch,
    pub(crate) cut_arena: CutArena,
}

impl fmt::Debug for PassArenas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassArenas")
            .field("cut_capacity", &self.cut_arena.total_cuts())
            .finish()
    }
}

/// Execution context threaded through every pass of a script run.
///
/// Carries the [`PassArenas`] — shared across passes so plan memos stay
/// warm for the whole script — the cancellation token and the telemetry
/// sink. Arena sharing cannot change results: the memoized synthesis plans
/// and costs are pure functions of the truth table (the invariant the
/// `script_golden` suite pins).
#[derive(Default)]
pub struct PassCtx<'o> {
    pub(crate) arenas: PassArenas,
    telemetry: Vec<PassStat>,
    observer: Option<&'o mut dyn PassObserver>,
    /// Cooperative cancellation: checked at every pass boundary by the
    /// engine and every few hundred nodes inside the resynthesis and
    /// balance passes. Defaults to a token that never cancels.
    token: CancelToken,
    /// Set once a boundary check observed the token cancelled; the engine
    /// stops the script and callers map it to a structured job error.
    cancelled: bool,
    /// Executed-pass counter across the whole context lifetime (unlike
    /// `telemetry.len()`, never drained) — keys chaos fault injection.
    passes_started: usize,
    /// Deterministic fault injection plan for this job (tests only).
    #[cfg(feature = "chaos")]
    chaos: Option<crate::chaos::Injector>,
}

impl<'o> PassCtx<'o> {
    /// Context with fresh arenas, a never-cancelled token and no observer.
    pub fn new() -> Self {
        PassCtx::default()
    }

    /// Install the cancellation token the engine (and every token-aware
    /// pass) polls. Replaces the default never-cancelled token.
    pub fn set_token(&mut self, token: CancelToken) {
        self.token = token;
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

    /// Install a chaos injection plan for this job (deterministic fault
    /// injection; see [`crate::chaos`]).
    #[cfg(feature = "chaos")]
    pub fn set_chaos(&mut self, injector: crate::chaos::Injector) {
        self.chaos = Some(injector);
    }

    /// [`PassCtx::new`] with an observer notified after every pass.
    pub fn with_observer(observer: &'o mut dyn PassObserver) -> Self {
        PassCtx {
            observer: Some(observer),
            ..PassCtx::default()
        }
    }

    /// Install a previously detached arena set. Reusing arenas across
    /// designs keeps the cut storage and synthesis memos warm without
    /// changing any result.
    pub fn reuse_arenas(&mut self, arenas: PassArenas) {
        self.arenas = arenas;
    }

    /// Detach the arena set for reuse by a later context (the context keeps
    /// working with fresh, empty arenas).
    pub fn take_arenas(&mut self) -> PassArenas {
        std::mem::take(&mut self.arenas)
    }

    /// The shared CSR cut arena the rewrite passes enumerate into. Exposed
    /// read-only so integrity audits (`CutArena::check_integrity`) can run
    /// between passes without detaching the arenas.
    pub fn cut_arena(&self) -> &CutArena {
        &self.arenas.cut_arena
    }

    /// Telemetry of every pass executed through this context so far.
    pub fn telemetry(&self) -> &[PassStat] {
        &self.telemetry
    }

    /// Drain the recorded telemetry.
    pub fn take_telemetry(&mut self) -> Vec<PassStat> {
        std::mem::take(&mut self.telemetry)
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
        let pass_index = self.passes_started;
        self.passes_started += 1;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_pass_start(&name);
        }
        self.apply_chaos(&name, pass_index);
        // Second boundary check: cancellation may have arrived while the
        // pass was announced (or while a chaos stall held it). The pass
        // stays "in flight" — announced but never run, so it leaves no
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
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_pass(&stat);
            obs.on_graph(&out);
        }
        self.telemetry.push(stat);
        out
    }

    /// Fire the chaos fault planned for this `(job, pass_index)`, if any.
    /// Compiled to nothing without the `chaos` feature.
    #[cfg(feature = "chaos")]
    fn apply_chaos(&mut self, pass_name: &str, pass_index: usize) {
        let Some(injector) = &self.chaos else {
            return;
        };
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
    fn apply_chaos(&mut self, _pass_name: &str, _pass_index: usize) {}
}

impl fmt::Debug for PassCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PassCtx")
            .field("passes_run", &self.telemetry.len())
            .finish()
    }
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
        let stmts = parse_stmts(&tokens, &mut pos, false)?;
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

/// Parse `;`-separated statements until end of input (`in_block == false`)
/// or a closing `}` (`in_block == true`, brace consumed by the caller).
fn parse_stmts(
    tokens: &[Token],
    pos: &mut usize,
    in_block: bool,
) -> Result<Vec<ScriptStmt>, ScriptError> {
    let mut stmts = Vec::new();
    loop {
        // Skip statement separators.
        while *pos < tokens.len() && tokens[*pos].text == ";" {
            *pos += 1;
        }
        if *pos >= tokens.len() || (in_block && tokens[*pos].text == "}") {
            return Ok(stmts);
        }
        let tok = tokens[*pos].text.as_str();
        match tok {
            "{" | "}" => {
                return Err(parse_err(format!("unexpected `{tok}`"), tokens, *pos));
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
                let body = parse_stmts(tokens, pos, true)?;
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
    fn observer_sees_every_pass() {
        struct Count(usize);
        impl PassObserver for Count {
            fn on_pass(&mut self, _stat: &PassStat) {
                self.0 += 1;
            }
        }
        let g = adder();
        let compiled = Script::parse("b; rw; b").unwrap().compile(None).unwrap();
        let mut count = Count(0);
        let mut ctx = PassCtx::with_observer(&mut count);
        compiled.run(&g, &mut ctx);
        assert_eq!(ctx.telemetry().len(), 3);
        drop(ctx);
        assert_eq!(count.0, 3);
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
    fn context_stays_runnable_after_take_arenas_and_reuse_is_invisible() {
        let g = adder();
        let compiled = Script::parse("b; rw").unwrap().compile(None).unwrap();
        let mut ctx = PassCtx::new();
        let a = compiled.run(&g, &mut ctx);
        let arenas = ctx.take_arenas();
        // The drained context must keep working with fresh arenas.
        let b = compiled.run(&g, &mut ctx);
        assert_eq!(a.nodes(), b.nodes());
        // Warm arenas on a new context cannot change the result.
        let mut warm = PassCtx::new();
        warm.reuse_arenas(arenas);
        let c = compiled.run(&g, &mut warm);
        assert_eq!(a.nodes(), c.nodes());
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
        use xsfq_exec::CancelToken;
        let g = adder();
        let compiled = Script::parse("c; b; rw; rf; b; rwz")
            .unwrap()
            .compile(None)
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut ctx = PassCtx::new();
        ctx.set_token(token);
        let out = compiled.run(&g, &mut ctx);
        assert!(ctx.cancelled());
        assert_eq!(ctx.telemetry().len(), 0, "no pass may start when cancelled");
        assert_eq!(out.nodes(), g.nodes(), "input passes through unchanged");
    }
}
