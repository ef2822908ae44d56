//! Library backing the `hermes` command-line tool: argument parsing, the
//! spec parsers, the solver table, and the eight commands (`analyze`,
//! `audit`, `deploy`, `simulate`, `chaos`, `migrate`, `recover`,
//! `targets`). `main.rs` is a thin shell around [`parse_args`] and [`run`].
//!
//! The command line is one flag table: each row names a flag, its value
//! placeholder, the commands that read it, and the parser that writes its
//! typed value into [`Options`]. [`parse_args`] and [`usage`] read it, so
//! [`run`] parses nothing. Malformed values are typed errors
//! ([`ChannelSpecError`], [`UnknownSolverError`], [`OrderSpecError`]);
//! `clippy.toml` bans `unwrap`/`expect` in this crate outside tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hermes_backend::config::generate;
use hermes_backend::simulate::{simulate_plan, PlanFlowConfig};
use hermes_baselines::{FirstFitByLevel, FirstFitByLevelAndSize, IlpBaseline, Sonata};
use hermes_core::{
    explain, verify, DeployError, DeploymentAlgorithm, DeploymentPlan, Epsilon, GreedyHeuristic,
    IncrementalDeployer, MigrationOrder, MigrationProblem, MigrationScheduler, MilpHermes,
    OptimalSolver, Portfolio, ProgramAnalyzer, RedeployOptions, SearchContext, SolveOutcome,
    Violation,
};
use hermes_dataplane::lint::lint_composition;
use hermes_dataplane::parser::parse_programs;
use hermes_dataplane::Program;
use hermes_net::topology::{self, WanConfig};
use hermes_net::{builtin_targets, parse_target, Network, SwitchId, TargetSpec};
use hermes_runtime::{
    replay_bytes, ChannelProfile, DeploymentRuntime, Event, FaultInjector, FaultProfile, InFlight,
    Journal, RecoveredIntent, RetryPolicy, RolloutOutcome,
};
use hermes_tdg::{AnalysisMode, Tdg};
use std::collections::BTreeSet;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::RangeBounds;
use std::str::FromStr;
use std::time::Duration;
use Command::{Analyze, Audit, Chaos, Deploy, Migrate, Recover, Simulate, Targets};
use Flag::{Switch, Value};

/// A CLI usage or execution error.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Output errors: the only I/O errors `?` converts without naming a file.
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("write failed: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Verifier findings as the CLI prints them: `[HV4xx] text`, `; `-joined.
fn listed(violations: &[Violation]) -> String {
    let each: Vec<String> = violations.iter().map(|v| format!("[{}] {v}", v.code())).collect();
    each.join("; ")
}

/// The most switches a topology spec may describe (`--target stages` is
/// bounded the same way).
pub const MAX_SWITCHES: usize = 4096;

/// Parses a topology spec: `linear:N`, `star:N`, `fattree:K`, `wan:I`
/// (Table III index, 1-based), or `waxman:N,ALPHA,BETA,SEED`. The size
/// is checked before the network is built: an empty network, or one of
/// more than [`MAX_SWITCHES`] switches, is refused.
///
/// # Errors
///
/// Returns [`CliError`] on malformed specs and sizes out of range.
pub fn parse_topology(spec: &str) -> Result<Network, CliError> {
    let (kind, args) = spec
        .split_once(':')
        .ok_or_else(|| err(format!("topology `{spec}` must look like `linear:3` or `wan:10`")))?;
    let int = |s: &str| -> Result<usize, CliError> {
        s.parse().map_err(|_| err(format!("`{s}` is not a number in `{spec}`")))
    };
    // `max` is the largest size whose network has at most MAX_SWITCHES.
    let size = |n: usize, max: usize| match n {
        0 => Err(err(format!("topology `{spec}` is empty: its size must be at least 1"))),
        n if n > max => Err(err(format!(
            "topology `{spec}` exceeds {MAX_SWITCHES} switches: its size must be at most {max}"
        ))),
        n => Ok(n),
    };
    match kind {
        "linear" => Ok(topology::linear(size(int(args)?, MAX_SWITCHES)?, 10.0)),
        "star" => Ok(topology::star(size(int(args)?, MAX_SWITCHES - 1)?, 10.0)),
        "fattree" => {
            let k = int(args)?;
            if k < 2 || k % 2 != 0 {
                return Err(err("fat-tree arity must be even and >= 2"));
            }
            // 5k²/4 switches: 3 920 at k = 56, 4 205 at k = 58.
            Ok(topology::fat_tree(size(k, 56)?, 10.0))
        }
        "wan" => {
            let i = int(args)?;
            if !(1..=10).contains(&i) {
                return Err(err("wan index must be 1..=10 (Table III)"));
            }
            Ok(topology::table3_wan(i - 1))
        }
        "waxman" => {
            let parts: Vec<&str> = args.split(',').collect();
            if parts.len() != 4 {
                return Err(err("waxman spec is `waxman:N,ALPHA,BETA,SEED`"));
            }
            let n = int(parts[0])?;
            let alpha: f64 = parts[1].parse().map_err(|_| err("bad alpha"))?;
            let beta: f64 = parts[2].parse().map_err(|_| err("bad beta"))?;
            let seed: u64 = parts[3].parse().map_err(|_| err("bad seed"))?;
            if !(alpha > 0.0 && alpha <= 1.0 && beta > 0.0 && beta <= 1.0) {
                return Err(err("alpha/beta must be in (0, 1]"));
            }
            Ok(topology::waxman(size(n, MAX_SWITCHES)?, alpha, beta, seed, &WanConfig::default()))
        }
        other => Err(err(format!("unknown topology kind `{other}`"))),
    }
}

/// `--channel` got a malformed or out-of-range spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpecError {
    /// The rejected spec, as given.
    pub spec: String,
    /// What is wrong with it.
    pub detail: String,
}

impl fmt::Display for ChannelSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "channel spec `{}`: {}", self.spec, self.detail)
    }
}

impl std::error::Error for ChannelSpecError {}

/// Parses a control-channel spec: `none`, `lossy`, or comma-separated
/// knobs `drop=P,dup=P,reorder=P,delay=P,span=US` (omitted knobs stay 0;
/// `span` is the max extra delay, a whole number of microseconds).
///
/// # Errors
///
/// Returns [`ChannelSpecError`] on malformed specs, out-of-range
/// probabilities, and a `span` that is not a `u64`.
pub fn parse_channel(spec: &str) -> Result<ChannelProfile, ChannelSpecError> {
    let bad = |detail: String| ChannelSpecError { spec: spec.to_owned(), detail };
    match spec {
        "none" => return Ok(ChannelProfile::none()),
        "lossy" => return Ok(ChannelProfile::lossy()),
        _ => {}
    }
    let mut profile = ChannelProfile::none();
    for part in spec.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| bad(format!("`{part}` is not `key=value` (or use none/lossy)")))?;
        let num: f64 = value
            .parse()
            .map_err(|_| bad(format!("knob `{key}` needs a number, got `{value}`")))?;
        match key {
            "drop" => profile.drop_prob = num,
            "dup" | "duplicate" => profile.duplicate_prob = num,
            "reorder" => profile.reorder_prob = num,
            "delay" => profile.delay_prob = num,
            "span" => {
                profile.delay_span_us = value.parse().map_err(|_| {
                    bad(format!("knob `span` needs a whole number of microseconds, got `{value}`"))
                })?
            }
            other => {
                return Err(bad(format!(
                    "unknown knob `{other}` (drop, dup, reorder, delay, span)"
                )))
            }
        }
    }
    profile.validate().map_err(|e| bad(e.to_string()))?;
    Ok(profile)
}

/// `--order` got a malformed migration-order spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderSpecError {
    /// The rejected spec, as given.
    pub given: String,
    /// What is wrong with it.
    pub detail: String,
}

impl fmt::Display for OrderSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "order spec `{}`: {}", self.given, self.detail)
    }
}

impl std::error::Error for OrderSpecError {}

/// A syntactically valid `--order` value, before switch indices are
/// resolved against a concrete topology (see [`resolve_order`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderSpec {
    /// Let the scheduler order the steps (lowest transient peak).
    Auto,
    /// An explicit step order, as 0-based switch indices.
    Explicit(Vec<usize>),
}

/// Parses a `--order` spec: `auto`, or a comma-separated list of 0-based
/// switch indices giving the step order explicitly.
///
/// # Errors
///
/// Returns [`OrderSpecError`] on anything else (the retired `greedy`,
/// `exact` and `in-order` keywords included); index range checks happen
/// later in [`resolve_order`] once the topology is known.
pub fn parse_order(spec: &str) -> Result<OrderSpec, OrderSpecError> {
    if spec == "auto" {
        return Ok(OrderSpec::Auto);
    }
    let mut indices = Vec::new();
    let mut seen = BTreeSet::new();
    for part in spec.split(',') {
        let idx: usize = part.trim().parse().map_err(|_| OrderSpecError {
            given: spec.to_owned(),
            detail: format!(
                "`{part}` is not a switch index (use `auto` or comma-separated switch indices)"
            ),
        })?;
        if !seen.insert(idx) {
            return Err(OrderSpecError {
                given: spec.to_owned(),
                detail: format!("switch index {idx} appears twice"),
            });
        }
        indices.push(idx);
    }
    Ok(OrderSpec::Explicit(indices))
}

/// Resolves a parsed [`OrderSpec`] against a topology, range-checking
/// explicit switch indices.
///
/// # Errors
///
/// Returns [`OrderSpecError`] when an explicit index is out of range.
pub fn resolve_order(spec: &OrderSpec, net: &Network) -> Result<MigrationOrder, OrderSpecError> {
    let indices = match spec {
        OrderSpec::Auto => return Ok(MigrationOrder::Auto),
        OrderSpec::Explicit(indices) => indices,
    };
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    let mut order = Vec::with_capacity(indices.len());
    for &idx in indices {
        order.push(*ids.get(idx).ok_or_else(|| OrderSpecError {
            given: indices.iter().map(ToString::to_string).collect::<Vec<_>>().join(","),
            detail: format!(
                "switch index {idx} is out of range (the topology has {} switches)",
                ids.len()
            ),
        })?);
    }
    Ok(MigrationOrder::Explicit(order))
}

/// Builds a solver.
type Build = fn() -> Box<dyn DeploymentAlgorithm>;

/// The `--solver` names, in display order, and how each is built. No row
/// holds a budget: each solve runs under the [`SearchContext`] built from
/// `--time-limit` and `--threads` ([`budget`]).
const SOLVERS: &[(&str, Build)] = &[
    ("greedy", || Box::new(GreedyHeuristic::new())),
    ("exact", || Box::new(OptimalSolver::new())),
    ("milp", || Box::new(MilpHermes::default())),
    ("portfolio", || Box::new(Portfolio::greedy_exact())),
    ("ffl", || Box::new(FirstFitByLevel)),
    ("ffls", || Box::new(FirstFitByLevelAndSize)),
    ("ms", || Box::new(IlpBaseline::min_stage())),
    ("sonata", || Box::new(Sonata)),
    ("speed", || Box::new(IlpBaseline::speed())),
    ("mtp", || Box::new(IlpBaseline::mtp())),
    ("fp", || Box::new(IlpBaseline::flightplan())),
    ("p4all", || Box::new(IlpBaseline::p4all())),
];

/// The context a solve runs under: a deadline `limit` from now, and a
/// worker budget for the parallel searches (`None` = available
/// parallelism).
fn budget(limit: Duration, threads: Option<NonZeroUsize>) -> SearchContext {
    let ctx = SearchContext::with_time_limit(limit);
    match threads {
        Some(threads) => ctx.with_threads(threads),
        None => ctx,
    }
}

/// A row of the solver table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solver(usize);

impl Solver {
    /// Looks a solver up by its `--solver` name, in any ASCII case.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSolverError`] listing the valid set on unknown names.
    pub fn named(name: &str) -> Result<Solver, UnknownSolverError> {
        let name = name.to_ascii_lowercase();
        match SOLVERS.iter().position(|&(known, _)| known == name) {
            Some(row) => Ok(Solver(row)),
            None => Err(UnknownSolverError { given: name }),
        }
    }

    /// Builds the solver.
    pub fn build(self) -> Box<dyn DeploymentAlgorithm> {
        (SOLVERS[self.0].1)()
    }

    /// Plans `tdg` on the network under ε with the time limit and worker
    /// budget; a failure names the solver and `what` the plan is for.
    fn plan(self, options: &Options, tdg: &Tdg, what: &str) -> Result<DeploymentPlan, CliError> {
        let algo = self.build();
        algo.solve(
            tdg,
            &options.network,
            &options.eps,
            &budget(options.time_limit, options.threads),
        )
        .map(|outcome| outcome.plan)
        .map_err(|e| err(format!("{} failed{what}: {e}", algo.name())))
    }
}

/// `--solver` got a name outside the valid set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSolverError {
    /// The rejected name, lowercased.
    pub given: String,
}

impl fmt::Display for UnknownSolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let valid: Vec<&str> = SOLVERS.iter().map(|&(name, _)| name).collect();
        write!(f, "unknown solver `{}` (valid: {})", self.given, valid.join(", "))
    }
}

impl std::error::Error for UnknownSolverError {}

/// Looks a solver up by `--solver` name and builds it: its `deploy` runs
/// under `time_limit` and `threads` (`None` = available parallelism). A
/// solver that is not exhaustive has no budget to honour, and keeps its own
/// `deploy`, the construction itself.
///
/// # Errors
///
/// Returns [`UnknownSolverError`] listing the valid set on unknown names.
pub fn solver_with_threads(
    name: &str,
    time_limit: Duration,
    threads: Option<NonZeroUsize>,
) -> Result<Box<dyn DeploymentAlgorithm>, UnknownSolverError> {
    let solver = Solver::named(name)?.build();
    if !solver.is_exhaustive() {
        return Ok(solver);
    }
    Ok(Box::new(WithBudget { solver, time_limit, threads }))
}

/// A solver whose `deploy` runs under a `--time-limit` and `--threads`
/// budget.
struct WithBudget {
    solver: Box<dyn DeploymentAlgorithm>,
    time_limit: Duration,
    threads: Option<NonZeroUsize>,
}

impl DeploymentAlgorithm for WithBudget {
    fn name(&self) -> &str {
        self.solver.name()
    }

    fn solve(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
        ctx: &SearchContext,
    ) -> Result<SolveOutcome, DeployError> {
        self.solver.solve(tdg, net, eps, ctx)
    }

    fn deploy(
        &self,
        tdg: &Tdg,
        net: &Network,
        eps: &Epsilon,
    ) -> Result<DeploymentPlan, DeployError> {
        self.solve(tdg, net, eps, &budget(self.time_limit, self.threads)).map(|o| o.plan)
    }

    fn is_exhaustive(&self) -> bool {
        true
    }
}

/// A `hermes` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Merge the programs and report the TDG.
    Analyze,
    /// The static workload audit and the pre-solve bounds.
    Audit,
    /// Plan, verify and print a deployment.
    Deploy,
    /// Plan, then simulate the per-packet impact.
    Simulate,
    /// Roll a plan out under the seeded fault injector.
    Chaos,
    /// Plan and execute a staged migration from plan A to plan B.
    Migrate,
    /// Replay a journal offline.
    Recover,
    /// List the built-in target models.
    Targets,
}

/// Every command, in declaration order: its name and what its synopsis
/// shows before the flags.
const COMMANDS: [(Command, &str, &str); 8] = [
    (Analyze, "analyze", "<files…>"),
    (Audit, "audit", "<files…>"),
    (Deploy, "deploy", "<files…>"),
    (Simulate, "simulate", "<files…>"),
    (Chaos, "chaos", "<files…>"),
    (Migrate, "migrate", "<files…>"),
    (Recover, "recover", "--journal PATH"),
    (Targets, "targets", ""),
];

impl Command {
    /// The command's name on the command line.
    pub fn name(self) -> &'static str {
        COMMANDS[self as usize].1
    }
}

/// The most worker threads `--threads` may ask for: the exact search
/// sizes its frontier by the request (8 subtree roots per worker).
pub const MAX_THREADS: usize = 1024;

/// One row of the flag table: the flag as typed, the commands that read it
/// (every other command refuses it), and how it sets its [`Options`] field.
enum Flag {
    /// A flag without a value.
    Switch(&'static str, &'static [Command], fn(&mut Options)),
    /// A flag with a value: its synopsis placeholder and its parser.
    Value(&'static str, &'static [Command], &'static str, Parse),
}

/// Parses a flag's value into its [`Options`] field.
type Parse = fn(&mut Options, &str) -> Result<(), CliError>;

impl Flag {
    /// The flag as typed and the commands that read it.
    fn key(&self) -> (&'static str, &'static [Command]) {
        match *self {
            Switch(name, commands, _) | Value(name, commands, ..) => (name, commands),
        }
    }
}

/// Stores a parsed value in its [`Options`] field; a parse error prints
/// as itself.
fn set<T>(field: &mut T, parsed: Result<T, impl fmt::Display>) -> Result<(), CliError> {
    *field = parsed.map_err(|e| err(e.to_string()))?;
    Ok(())
}

/// Parses a number in `range`, or fails with what the flag `needs`.
fn number<T: FromStr + PartialOrd>(
    value: &str,
    needs: &str,
    range: impl RangeBounds<T>,
) -> Result<T, CliError> {
    value.parse().ok().filter(|n| range.contains(n)).ok_or_else(|| err(needs))
}

/// Commands that place a workload on a network.
const PLACING: &[Command] = &[Audit, Deploy, Simulate, Chaos, Migrate];
/// Commands that run a solver.
const SOLVING: &[Command] = &[Deploy, Simulate, Chaos, Migrate];

/// Every flag, in synopsis order.
const FLAGS: &[Flag] = &[
    Switch("--dot", &[Analyze], |o| o.dot = true),
    Switch("--library", &[Audit], |o| o.library = true),
    Value("--topology", PLACING, "SPEC", |o, v| set(&mut o.network, parse_topology(v))),
    Value("--target", PLACING, "SPEC", |o, v| set(&mut o.target, parse_target(v).map(Some))),
    Value("--from-solver", &[Migrate], "NAME", |o, v| set(&mut o.from_solver, Solver::named(v))),
    Value("--solver", SOLVING, "NAME", |o, v| set(&mut o.solver, Solver::named(v))),
    Value("--exclude", &[Migrate], "N", |o, v| {
        set(&mut o.exclude, number(v, "--exclude needs a 0-based switch index", ..).map(Some))
    }),
    Value("--order", &[Migrate], "SPEC", |o, v| set(&mut o.order, parse_order(v))),
    // `inf` (the default) is a legal bound; NaN compares false against every
    // latency, so Eq. 4 would never be enforced.
    Value("--eps1", PLACING, "US", |o, v| {
        let needs = "--eps1 needs a non-negative number of microseconds";
        set(&mut o.eps.max_latency_us, number(v, needs, 0.0..))
    }),
    // Zero switches host nothing: no plan of a non-empty workload could
    // satisfy Eq. 5.
    Value("--eps2", PLACING, "N", |o, v| {
        set(&mut o.eps.max_switches, number(v, "--eps2 needs a positive number of switches", 1..))
    }),
    Value("--time-limit", SOLVING, "SECS", |o, v| {
        set(&mut o.time_limit, number(v, "--time-limit needs seconds", ..).map(Duration::from_secs))
    }),
    Value("--threads", SOLVING, "N", |o, v| {
        number::<NonZeroUsize>(v, "--threads needs a positive integer", ..)?;
        let most = format!("--threads is at most {MAX_THREADS}");
        set(&mut o.threads, number(v, &most, ..=MAX_THREADS).map(NonZeroUsize::new))
    }),
    Value("--seed", &[Chaos, Migrate], "N", |o, v| {
        set(&mut o.seed, number(v, "--seed needs an integer", ..))
    }),
    Value("--trials", &[Chaos], "N", |o, v| {
        set(&mut o.trials, number(v, "--trials needs an integer", ..).map(Some))
    }),
    Value("--channel", &[Chaos, Migrate], "SPEC", |o, v| set(&mut o.channel, parse_channel(v))),
    Switch("--state-report", &[Audit], |o| o.state_report = true),
    Switch("--relax-state", &[Analyze, Audit, Deploy, Simulate, Chaos, Migrate], |o| {
        o.mode = AnalysisMode::RelaxedState
    }),
    Switch("--json", &[Audit, Deploy, Chaos, Migrate, Recover], |o| o.json = true),
    Value("--journal", &[Deploy, Chaos, Migrate, Recover], "PATH", |o, v| {
        o.journal = Some(v.to_owned());
        Ok(())
    }),
];

/// A parsed command line: every value typed and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The command to run.
    pub command: Command,
    /// Program source files.
    pub files: Vec<String>,
    /// The `--topology` network, retargeted per `target`.
    pub network: Network,
    /// The `--target` spec, applied to `network` once every flag is read.
    pub target: Option<TargetSpec>,
    /// The solver of the plan (of plan B, for migrate).
    pub solver: Solver,
    /// The solver of migrate's starting plan A.
    pub from_solver: Solver,
    /// ε₁ (`--eps1`, microseconds) and ε₂ (`--eps2`, switches).
    pub eps: Epsilon,
    /// Solver time limit.
    pub time_limit: Duration,
    /// Worker budget for the parallel exact search; `None` = all cores.
    pub threads: Option<NonZeroUsize>,
    /// Emit Graphviz dot (analyze).
    pub dot: bool,
    /// Emit JSON (audit, deploy, chaos, migrate, recover).
    pub json: bool,
    /// Fault-injection seed (chaos, migrate).
    pub seed: u64,
    /// Sweep seeds `0..N` instead of one run (chaos).
    pub trials: Option<u64>,
    /// Control-channel profile (chaos, migrate).
    pub channel: ChannelProfile,
    /// Audit the built-in library programs too; files become optional.
    pub library: bool,
    /// Migration step order (migrate).
    pub order: OrderSpec,
    /// Drain this 0-based switch index: plan B re-homes its MATs (migrate).
    pub exclude: Option<usize>,
    /// Journal written after the run (deploy, chaos, migrate) or replayed.
    pub journal: Option<String>,
    /// Attach the per-field state-access report (`HS5xx`) to the audit.
    pub state_report: bool,
    /// TDG analysis mode; `--relax-state` selects `RelaxedState`.
    pub mode: AnalysisMode,
}

/// The usage text: a synopsis per command, rendered from the flag table,
/// the solver table, then the spec grammars and notes.
pub fn usage() -> String {
    let mut text = String::from("hermes — network-wide data plane program deployment\n\nUSAGE:\n");
    // `head`, then `words` wrapped at 78 columns under an `indent`.
    let wrap = |head: &str, indent: usize, words: &mut dyn Iterator<Item = String>| {
        let (mut text, mut line) = (String::new(), head.to_owned());
        for word in words {
            if line.chars().count() + 1 + word.chars().count() > 78 {
                text += &(line + "\n");
                line = " ".repeat(indent);
            }
            line += &format!(" {word}");
        }
        text + &line + "\n"
    };
    for (command, name, operands) in COMMANDS {
        let head = format!("  hermes {name:<8} {operands}");
        let flags = FLAGS.iter().filter(|f| {
            let (name, readers) = f.key();
            readers.contains(&command) && !operands.contains(name)
        });
        let mut words = flags.map(|f| match *f {
            Switch(name, ..) => format!("[{name}]"),
            Value(name, _, placeholder, _) => format!("[{name} {placeholder}]"),
        });
        text += &wrap(head.trim_end(), 17, &mut words);
    }
    text.push('\n');
    text += &wrap("SOLVERS:        ", 16, &mut SOLVERS.iter().map(|&(name, _)| name.to_owned()));
    text + NOTES
}

/// The hand-written part of [`usage`].
const NOTES: &str = "\
TOPOLOGY SPECS:  linear:N  star:N  fattree:K  wan:1..10  waxman:N,A,B,SEED
                 (1 to 4096 switches)
CHANNEL SPECS:   none  lossy  drop=P,dup=P,reorder=P,delay=P,span=US
ORDER SPECS:     auto  comma-separated switch indices
TARGET SPECS:    tofino  smartnic  soft
                 NAME:stages=N,cap=C,budget=B,latency=US (knob overrides)
                 mix:tofino+smartnic+soft (cycled over switches)

`audit` runs the static workload audit (lints, TDG dataflow, dependency
soundness) plus the pre-solve infeasibility bounds for the given topology
and eps budget. Exit is nonzero iff an error-severity diagnostic fires.
`--state-report` adds the per-field state-access classification
(read-only / read-mostly-replicable / commutative-update / single-writer)
and its HS5xx diagnostics to the report.

`--relax-state` analyzes under the relaxed-state mode: dependency edges
justified only by replicable or commutative state carry no ordering or
routing obligation, which can strictly lower A_max on aggregation-style
workloads. The plan verifier re-certifies every relaxed edge; the default
mode is unchanged and byte-identical to prior releases.

`migrate` installs plan A (--from-solver), plans a staged migration to
plan B (--solver, or --exclude N to drain switch N), prints the schedule
with its transient-overhead curve, and executes it step by step under the
seeded fault injector and the given channel. Every schedule prefix is
verified against per-stage capacity and the mixed-epoch consistency gate
before the first commit; a mid-migration failure rolls back to plan A.

`--threads N` caps the worker pool of the parallel exact search (`exact`,
and the exact stage of `portfolio`) at N OS threads (at most 1024); the
default is the machine's available parallelism. Results are
byte-identical at every thread count.

`--journal PATH` writes the controller's write-ahead intent journal to
PATH after the run. `recover` replays such a journal offline — without a
live network — and reports the rebuilt intent: the last durable snapshot,
any in-flight transaction or migration, and the action a restarted
controller would take (resume-commit, roll-back-txn, …). A torn tail is
reported and discarded; mid-log corruption is a typed error and a
nonzero exit.
";

/// Parses raw arguments (without the binary name) into typed [`Options`].
///
/// # Errors
///
/// Returns [`CliError`] on an unknown command or flag, a flag the
/// command does not read, a missing or malformed value, or missing
/// operands.
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let (name, rest) =
        args.split_first().ok_or_else(|| err(format!("missing command\n\n{}", usage())))?;
    let (command, ..) = COMMANDS
        .into_iter()
        .find(|&(_, known, _)| known == name.as_str())
        .ok_or_else(|| err(format!("unknown command `{name}`\n\n{}", usage())))?;
    let mut options = Options {
        command,
        files: Vec::new(),
        network: topology::linear(3, 10.0),
        target: None,
        solver: Solver(0),      // greedy
        from_solver: Solver(4), // ffl
        eps: Epsilon::loose(),
        time_limit: Duration::from_secs(10),
        threads: None,
        dot: false,
        json: false,
        seed: 0,
        trials: None,
        channel: ChannelProfile::none(),
        library: false,
        order: OrderSpec::Auto,
        exclude: None,
        journal: None,
        state_report: false,
        mode: AnalysisMode::PaperLiteral,
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        if !arg.starts_with("--") {
            options.files.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.key().0 == arg.as_str())
            .ok_or_else(|| err(format!("unknown flag `{arg}`\n\n{}", usage())))?;
        let readers = flag.key().1;
        if !readers.contains(&command) {
            let readers: Vec<&str> = readers.iter().map(|c| c.name()).collect();
            return Err(err(format!(
                "`{arg}` does not apply to `{name}` (it applies to {})",
                readers.join(", ")
            )));
        }
        match *flag {
            Switch(.., set) => set(&mut options),
            Value(.., set) => {
                let value =
                    iter.next().ok_or_else(|| err(format!("flag `{arg}` needs a value")))?;
                set(&mut options, value)?;
            }
        }
    }
    if let Some(target) = &options.target {
        target.apply(&mut options.network);
    }
    let files = !options.files.is_empty();
    match command {
        Recover if options.journal.is_none() => {
            Err(err(format!("recover needs --journal PATH\n\n{}", usage())))
        }
        Recover if files => Err(err("recover replays a journal, not program files")),
        Targets if files => Err(err("targets lists built-in models and takes no program files")),
        Recover | Targets => Ok(options),
        _ if !files && !options.library => {
            Err(err(format!("no program files given\n\n{}", usage())))
        }
        _ => Ok(options),
    }
}

/// The programs of the command's files (after the built-in library, with
/// `--library`).
fn workload(options: &Options) -> Result<Vec<Program>, CliError> {
    let read = |file: &String| {
        let text = std::fs::read_to_string(file);
        text.map(|text| text + "\n").map_err(|e| err(format!("cannot read `{file}`: {e}")))
    };
    let sources = options.files.iter().map(read).collect::<Result<String, _>>()?;
    let mut programs =
        if options.library { hermes_dataplane::library::real_programs() } else { Vec::new() };
    programs.extend(parse_programs(&sources).map_err(|e| err(format!("parse error: {e}")))?);
    Ok(programs)
}

/// A controller over the network under ε, faulted by `injector`.
fn runtime(options: &Options, injector: FaultInjector) -> DeploymentRuntime {
    DeploymentRuntime::new(options.network.clone(), options.eps, injector, RetryPolicy::default())
}

fn write_journal(path: &Option<String>, journal: &Journal) -> Result<(), CliError> {
    if let Some(path) = path {
        std::fs::write(path, journal.bytes())
            .map_err(|e| err(format!("cannot write journal `{path}`: {e}")))?;
    }
    Ok(())
}

/// `recover --journal PATH`: replays a write-ahead journal offline and
/// reports the rebuilt controller intent — last durable snapshot, any
/// unconcluded transaction or migration, and the recovery action a
/// restarted controller would take.
///
/// # Errors
///
/// Returns [`CliError`] (nonzero exit) when the file cannot be read or
/// the journal is corrupt mid-log ([`hermes_runtime::JournalError`]); a
/// torn tail is reported and discarded, not an error.
fn run_recover(options: &Options, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let path = options
        .journal
        .as_ref()
        .ok_or_else(|| err(format!("recover needs --journal PATH\n\n{}", usage())))?;
    let bytes =
        std::fs::read(path).map_err(|e| err(format!("cannot read journal `{path}`: {e}")))?;
    let replay = replay_bytes(&bytes).map_err(|e| err(format!("journal replay failed: {e}")))?;
    let intent = RecoveredIntent::from_replay(&replay);
    let action = intent.planned_action();
    if options.json {
        let in_flight = match &intent.in_flight {
            Some(InFlight::Txn { epoch, .. }) => format!("{{\"txn\":{epoch}}}"),
            Some(InFlight::Migration { epoch, .. }) => format!("{{\"migration\":{epoch}}}"),
            None => "null".to_owned(),
        };
        let snapshot = match &intent.snapshot {
            Some(s) => format!("{{\"epoch\":{},\"plan_fp\":{}}}", s.epoch, s.plan_fp),
            None => "null".to_owned(),
        };
        writeln!(
            out,
            "{{\"records\":{},\"discarded_tail_bytes\":{},\"max_epoch\":{},\
             \"snapshot\":{snapshot},\"in_flight\":{in_flight},\"action\":\"{action}\"}}",
            intent.records, intent.discarded_tail_bytes, intent.max_epoch
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "journal: {} record(s) replayed, {} torn tail byte(s) discarded",
        intent.records, intent.discarded_tail_bytes
    )?;
    writeln!(out, "max journaled epoch: {}", intent.max_epoch)?;
    match &intent.snapshot {
        Some(s) => writeln!(
            out,
            "snapshot: epoch {} ({} switches occupied, plan fp {:#018x})",
            s.epoch,
            s.plan.occupied_switches().len(),
            s.plan_fp
        )?,
        None => writeln!(out, "snapshot: none")?,
    }
    match &intent.in_flight {
        Some(InFlight::Txn { epoch, kind, commit_order, .. }) => {
            let decided = if commit_order.is_some() { "decided" } else { "undecided" };
            writeln!(out, "in flight: {kind:?} transaction, epoch {epoch} (commit {decided})")?;
        }
        Some(InFlight::Migration { epoch, order, .. }) => {
            writeln!(out, "in flight: migration, epoch {epoch} ({} steps scheduled)", order.len())?;
        }
        None => writeln!(out, "in flight: nothing")?,
    }
    writeln!(out, "recovery action: {action}")?;
    Ok(())
}

/// `chaos --trials N`: sweeps seeds `0..N`, checking runtime invariants
/// on every run — bimodal termination, no agent serving a rolled-back
/// epoch, byte-for-byte reproducible event logs — and prints a
/// committed/healed/rolled-back summary (JSON with `--json`).
///
/// # Errors
///
/// Returns [`CliError`] (nonzero exit) if any run violates an invariant.
fn run_trials(
    options: &Options,
    out: &mut dyn std::io::Write,
    tdg: &Tdg,
    plan: &DeploymentPlan,
    trials: u64,
) -> Result<(), CliError> {
    let (mut committed, mut healed, mut rolled_back) = (0u64, 0u64, 0u64);
    for seed in 0..trials {
        let run_once = |seed: u64| {
            let injector = FaultInjector::new(seed, FaultProfile::chaos());
            let mut rt = runtime(options, injector).with_channel_profile(options.channel);
            let outcome = rt.rollout(tdg, plan.clone());
            (outcome, rt)
        };
        let (outcome, rt) = run_once(seed);
        let (outcome2, rt2) = run_once(seed);
        if outcome != outcome2 || rt.log().to_json() != rt2.log().to_json() {
            return Err(err(format!("invariant violated: seed {seed} is not reproducible")));
        }
        match &outcome {
            RolloutOutcome::Committed { epoch, healed: was_healed } => {
                if *was_healed {
                    healed += 1;
                } else {
                    committed += 1;
                }
                let active = rt.active_plan().ok_or_else(|| {
                    err(format!("invariant violated: seed {seed} committed with no active plan"))
                })?;
                let down = rt.network().down_switches();
                for switch in active.occupied_switches() {
                    if !down.contains(&switch)
                        && rt.agent(switch).is_some_and(|a| a.active_epoch() != Some(*epoch))
                    {
                        return Err(err(format!(
                            "invariant violated: seed {seed} committed epoch {epoch} but \
                             switch {switch} does not serve it"
                        )));
                    }
                }
            }
            RolloutOutcome::RolledBack { epoch, .. } => {
                rolled_back += 1;
                for agent in rt.agents() {
                    if agent.active_epoch() == Some(*epoch) {
                        return Err(err(format!(
                            "invariant violated: seed {seed} rolled epoch {epoch} back but an \
                             agent still serves it"
                        )));
                    }
                }
            }
            RolloutOutcome::ControllerCrashed { .. } => {
                // `chaos()` never injects controller crashes (that is the
                // recovery soak's job); seeing one here is a bug.
                return Err(err(format!(
                    "invariant violated: seed {seed} reported a controller crash no profile \
                     injects"
                )));
            }
        }
    }
    if options.json {
        writeln!(
            out,
            "{{\"trials\":{trials},\"committed\":{committed},\"healed\":{healed},\
             \"rolled_back\":{rolled_back}}}"
        )?;
    } else {
        writeln!(
            out,
            "trials {trials}: {committed} committed, {healed} healed, {rolled_back} rolled back"
        )?;
    }
    Ok(())
}

/// `migrate`: install plan A with a clean control plane, compute plan B
/// (`--solver`, or `--exclude` to drain a switch), plan the staged
/// schedule, print it with its transient-overhead curve, then execute it
/// under the seeded chaos injector and the requested channel.
///
/// # Errors
///
/// Returns [`CliError`] on out-of-range switch indices, infeasible plans,
/// or when the starting plan cannot be installed.
fn run_migrate(options: &Options, out: &mut dyn std::io::Write, tdg: &Tdg) -> Result<(), CliError> {
    let net = &options.network;
    let order = resolve_order(&options.order, net).map_err(|e| err(e.to_string()))?;
    let plan_a = options.from_solver.plan(options, tdg, " for plan A")?;
    let plan_b = match options.exclude {
        Some(idx) => {
            let drained = net.switch_ids().nth(idx).ok_or_else(|| {
                let switches = net.switch_count();
                err(format!(
                    "--exclude {idx} is out of range (the topology has {switches} switches)"
                ))
            })?;
            let opts = RedeployOptions::excluding([drained]).with_exact_budget(options.time_limit);
            let outcome = IncrementalDeployer::new()
                .redeploy_with(tdg, &plan_a, tdg, net, &options.eps, &opts)
                .map_err(|e| err(format!("cannot drain switch {drained}: {e}")))?;
            writeln!(
                out,
                "drain switch {drained}: {} MATs stay, {} re-homed{}",
                outcome.reused,
                outcome.placed,
                if outcome.full_redeploy { " (full redeploy)" } else { "" }
            )?;
            outcome.plan
        }
        None => options.solver.plan(options, tdg, " for plan B")?,
    };

    // Plan A goes in over a clean control plane; only the migration
    // itself runs under the requested chaos.
    let mut rt = runtime(options, FaultInjector::disabled());
    if !rt.rollout(tdg, plan_a.clone()).is_committed() {
        return Err(err("could not install plan A on a clean network"));
    }
    let schedule = {
        let problem = MigrationProblem { tdg, net: rt.network(), from: &plan_a, to: &plan_b };
        let ctx = SearchContext::with_time_limit(options.time_limit);
        MigrationScheduler::with_order(order)
            .plan(&problem, &ctx)
            .map_err(|e| err(format!("cannot schedule the migration: {e}")))?
    };
    writeln!(
        out,
        "schedule ({}): {} steps, transient A_max {} -> peak {} -> {} B",
        schedule.planner,
        schedule.steps.len(),
        schedule.from_amax,
        schedule.peak_transient_amax,
        schedule.to_amax
    )?;
    if let Some(peak) = schedule.all_at_once_peak {
        writeln!(out, "all-at-once peak: {peak} B")?;
    }
    for (i, step) in schedule.steps.iter().enumerate() {
        writeln!(
            out,
            "  step {i}: switch {} ({} MATs move, {} staged, A_max {} B)",
            step.switch,
            step.moved.len(),
            step.staged_nodes,
            step.transient_amax
        )?;
    }

    rt.set_injector(FaultInjector::new(options.seed, FaultProfile::chaos()));
    rt.set_channel_profile(options.channel);
    let outcome = rt.migrate_with_schedule(tdg, plan_b, &schedule);
    write_journal(&options.journal, rt.journal())?;
    writeln!(out, "seed {}: {}", options.seed, outcome)?;
    let log = rt.log();
    writeln!(
        out,
        "events: {} ({} faults, {} step failures, {} rollbacks)",
        log.len(),
        log.count(|e| matches!(e, Event::FaultInjected { .. })),
        log.count(|e| matches!(e, Event::MigrationStepFailed { .. })),
        log.count(|e| matches!(e, Event::MigrationRolledBack { .. })),
    )?;
    if options.json {
        writeln!(out, "{}", log.to_json())?;
    }
    Ok(())
}

/// Executes the parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns [`CliError`] on any failure (I/O, deployment, verification).
pub fn run(options: &Options, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let (net, eps) = (&options.network, &options.eps);
    match options.command {
        Recover => return run_recover(options, out),
        Targets => {
            for model in builtin_targets() {
                writeln!(out, "{model}")?;
            }
        }
        Analyze => {
            let programs = workload(options)?;
            let tdg = ProgramAnalyzer::with_mode(options.mode).analyze(&programs);
            let stats = hermes_tdg::stats(&tdg).ok_or_else(|| err("the merged TDG has a cycle"))?;
            writeln!(out, "programs: {}", programs.len())?;
            writeln!(
                out,
                "merged TDG: {} MATs, {} dependencies, {:.2} stage-units, critical path {} MATs",
                stats.nodes, stats.edges, stats.total_resource, stats.critical_path_len
            )?;
            for finding in lint_composition(&programs) {
                writeln!(out, "lint: {finding}")?;
            }
            if options.dot {
                writeln!(out, "{}", hermes_tdg::to_dot(&tdg))?;
            }
        }
        Audit => {
            let programs = workload(options)?;
            let mut report = hermes_analysis::audit_instance(&programs, net, eps, options.mode);
            if options.state_report {
                let state = hermes_analysis::state_report(&programs, options.mode);
                let mut diags = report.diagnostics;
                diags.extend(hermes_analysis::state_diagnostics(&state));
                report =
                    hermes_analysis::AuditReport::new(diags, report.certificates).with_state(state);
            }
            if options.json {
                writeln!(out, "{}", report.to_json())?;
            } else {
                writeln!(out, "{report}")?;
            }
            if report.has_errors() {
                return Err(err(format!(
                    "audit found {} error-severity diagnostic(s)",
                    report.summary.errors
                )));
            }
        }
        Deploy => {
            let tdg = ProgramAnalyzer::with_mode(options.mode).analyze(&workload(options)?);
            let plan = options.solver.plan(options, &tdg, "")?;
            let violations = verify(&tdg, net, &plan, eps);
            if !violations.is_empty() {
                return Err(err(format!("plan failed verification: {}", listed(&violations))));
            }
            if options.journal.is_some() {
                // Install over a clean control plane purely to produce
                // the durable intent journal of the transaction.
                let mut rt = runtime(options, FaultInjector::disabled());
                if !rt.rollout(&tdg, plan.clone()).is_committed() {
                    return Err(err("could not install the plan to journal it"));
                }
                write_journal(&options.journal, rt.journal())?;
            }
            if options.json {
                let json = serde_json::to_string_pretty(&generate(&tdg, net, &plan));
                writeln!(out, "{}", json.map_err(|e| err(format!("serialize: {e}")))?)?;
            } else {
                write!(out, "{}", explain(&tdg, net, &plan))?;
            }
        }
        Simulate => {
            let tdg = ProgramAnalyzer::with_mode(options.mode).analyze(&workload(options)?);
            let plan = options.solver.plan(options, &tdg, "")?;
            let artifacts = generate(&tdg, net, &plan);
            let result = simulate_plan(&tdg, net, &plan, &artifacts, &PlanFlowConfig::default())
                .ok_or_else(|| err("plan could not be simulated (empty or unroutable)"))?;
            writeln!(out, "overhead: {} B per packet", result.overhead_bytes)?;
            writeln!(out, "switches traversed: {}", result.traversed.len())?;
            writeln!(out, "loaded:   {}", result.loaded)?;
            writeln!(out, "baseline: {}", result.baseline)?;
            writeln!(
                out,
                "impact: {:.3}x FCT, {:.3}x goodput",
                result.fct_ratio(),
                result.goodput_ratio()
            )?;
        }
        Chaos => {
            let tdg = ProgramAnalyzer::with_mode(options.mode).analyze(&workload(options)?);
            let plan = options.solver.plan(options, &tdg, "")?;
            if let Some(trials) = options.trials {
                if options.journal.is_some() {
                    return Err(err("--journal wants a single run, not --trials"));
                }
                return run_trials(options, out, &tdg, &plan, trials);
            }
            let injector = FaultInjector::new(options.seed, FaultProfile::chaos());
            let mut rt = runtime(options, injector).with_channel_profile(options.channel);
            let outcome = rt.rollout(&tdg, plan);
            write_journal(&options.journal, rt.journal())?;
            writeln!(out, "seed {}: {}", options.seed, outcome)?;
            let log = rt.log();
            writeln!(
                out,
                "events: {} ({} faults, {} retries, {} rollbacks)",
                log.len(),
                log.count(|e| matches!(e, Event::FaultInjected { .. })),
                log.count(|e| matches!(e, Event::RetryScheduled { .. })),
                log.count(|e| matches!(e, Event::RolledBack { .. })),
            )?;
            if let RolloutOutcome::Committed { healed: true, .. } = outcome {
                for e in &log.events {
                    if let Event::RecoveryCompleted {
                        recovery_us, a_max_before, a_max_after, ..
                    } = e
                    {
                        writeln!(
                            out,
                            "recovery: {recovery_us} us, A_max {a_max_before} -> {a_max_after} B"
                        )?;
                    }
                }
            }
            if options.json {
                writeln!(out, "{}", log.to_json())?;
            }
        }
        Migrate => {
            let tdg = ProgramAnalyzer::with_mode(options.mode).analyze(&workload(options)?);
            run_migrate(options, out, &tdg)?;
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_deploy_flags() {
        let options = parse_args(&args(&[
            "deploy",
            "a.p4dsl",
            "--topology",
            "wan:3",
            "--solver",
            "ffl",
            "--eps2",
            "4",
            "--time-limit",
            "7",
            "--json",
        ]))
        .unwrap();
        assert_eq!(options.command, Deploy);
        assert_eq!(options.files, vec!["a.p4dsl"]);
        assert_eq!(options.network, parse_topology("wan:3").unwrap());
        assert_eq!(options.solver, Solver::named("ffl").unwrap());
        assert_eq!(options.eps.max_switches, 4);
        assert_eq!(options.time_limit, Duration::from_secs(7));
        assert!(options.json);
        assert!(options.eps.max_latency_us.is_infinite());
    }

    #[test]
    fn eps1_flag_rejects_nan_and_negatives_and_keeps_inf() {
        let eps1 = |v: &str| {
            parse_args(&args(&["deploy", "a.p4dsl", "--eps1", v])).map(|o| o.eps.max_latency_us)
        };
        assert_eq!(eps1("12.5").unwrap(), 12.5);
        assert_eq!(eps1("0").unwrap(), 0.0);
        assert!(eps1("inf").unwrap().is_infinite());
        for bad in ["NaN", "nan", "-5", "-inf", "-0.001", "soon"] {
            let e = eps1(bad).unwrap_err();
            assert!(e.0.contains("--eps1 needs a non-negative number"), "`{bad}`: {e}");
        }
    }

    #[test]
    fn violations_print_with_their_code_and_display_text() {
        let found = [
            Violation::SwitchBound { occupied: 1, bound: 0 },
            Violation::NodeUnplaced { node: "p/t".to_owned() },
        ];
        assert_eq!(
            listed(&found),
            "[HV412] 1 occupied switches exceed eps2 = 0 (Eq. 5); \
             [HV401] node `p/t` unplaced (Eq. 6)"
        );
    }

    #[test]
    fn eps2_flag_rejects_zero_and_garbage() {
        let eps2 = |v: &str| {
            parse_args(&args(&["deploy", "a.p4dsl", "--eps2", v])).map(|o| o.eps.max_switches)
        };
        assert_eq!(eps2("1").unwrap(), 1);
        assert_eq!(parse_args(&args(&["deploy", "a.p4dsl"])).unwrap().eps.max_switches, usize::MAX);
        for bad in ["0", "-1", "2.5", "many"] {
            let e = eps2(bad).unwrap_err();
            assert!(e.0.contains("--eps2 needs a positive number of switches"), "`{bad}`: {e}");
        }
    }

    #[test]
    fn threads_flag_parses_positive_and_rejects_zero_and_garbage() {
        let options = parse_args(&args(&["deploy", "a.p4dsl", "--threads", "4"])).unwrap();
        assert_eq!(options.threads, std::num::NonZeroUsize::new(4));
        assert_eq!(parse_args(&args(&["deploy", "a.p4dsl"])).unwrap().threads, None);
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--threads", "0"])).unwrap_err();
        assert!(e.0.contains("--threads needs a positive integer"), "{e}");
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--threads", "lots"])).unwrap_err();
        assert!(e.0.contains("--threads needs a positive integer"), "{e}");
        assert!(parse_args(&args(&["deploy", "a.p4dsl", "--threads"])).is_err());
        // The exact search sizes its frontier by the request: 8 roots a worker.
        let most = MAX_THREADS.to_string();
        assert!(parse_args(&args(&["deploy", "a.p4dsl", "--threads", &most])).is_ok());
        for huge in [&(MAX_THREADS + 1).to_string(), "18446744073709551615"] {
            let e = parse_args(&args(&["deploy", "a.p4dsl", "--threads", huge])).unwrap_err();
            assert_eq!(e.0, "--threads is at most 1024");
        }
    }

    #[test]
    fn legacy_flag_spellings_are_rejected_with_usage() {
        for (name, value) in [("algorithm", "hermes"), ("budget", "3")] {
            let flag = format!("--{name}");
            let e = parse_args(&args(&["deploy", "a.p4dsl", &flag, value])).unwrap_err();
            assert!(e.0.contains(&format!("unknown flag `{flag}`")), "{e}");
            assert!(e.0.contains(&usage()), "{e}");
        }
    }

    #[test]
    fn unknown_solver_is_rejected_at_parse_time_with_the_valid_set() {
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--solver", "gurobi"])).unwrap_err();
        assert!(e.0.contains("unknown solver `gurobi`"), "{e}");
        for (name, _) in SOLVERS {
            assert!(e.0.contains(name), "error does not list `{name}`: {e}");
        }
    }

    #[test]
    fn target_flag_parses_and_retargets_the_network() {
        let options = parse_args(&args(&["deploy", "a.p4dsl", "--target", "smartnic"])).unwrap();
        assert_eq!(options.target, Some(parse_target("smartnic").unwrap()));
        // `--target` applies to the final topology, whatever the flag order.
        let net = |argv: &[&str]| parse_args(&args(argv)).unwrap().network;
        let mix = ["--target", "mix:tofino+smartnic"];
        let wide = ["--topology", "linear:3"];
        let net = net(&[&["deploy", "a.p4dsl"][..], &mix, &wide].concat());
        assert_eq!(
            net,
            parse_args(&args(&[&["deploy", "a.p4dsl"][..], &wide, &mix].concat())).unwrap().network
        );
        let kinds: Vec<_> = net.switch_ids().map(|s| net.switch(s).target).collect();
        assert_eq!(
            kinds,
            vec![
                hermes_net::TargetKind::Pipeline,
                hermes_net::TargetKind::SmartNic,
                hermes_net::TargetKind::Pipeline
            ]
        );
    }

    #[test]
    fn bad_target_specs_are_rejected_at_parse_time() {
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--target", "fpga"])).unwrap_err();
        assert!(e.0.contains("unknown target `fpga`"), "{e}");
        let e = parse_args(&args(&["audit", "--library", "--target", "smartnic:stages=0"]))
            .unwrap_err();
        assert!(e.0.contains("finite and positive"), "{e}");
    }

    #[test]
    fn targets_subcommand_lists_builtin_models() {
        let options = parse_args(&args(&["targets"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for name in ["tofino", "smartnic", "soft"] {
            assert!(text.contains(name), "missing `{name}` in:\n{text}");
        }
        assert!(parse_args(&args(&["targets", "a.p4dsl"])).is_err());
    }

    #[test]
    fn rejects_unknown_command_and_flags() {
        assert!(parse_args(&args(&["frobnicate", "x"])).is_err());
        assert!(parse_args(&args(&["deploy", "x", "--wat"])).is_err());
        assert!(parse_args(&args(&["deploy"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
    }

    #[test]
    fn topology_specs() {
        assert_eq!(parse_topology("linear:3").unwrap().switch_count(), 3);
        assert_eq!(parse_topology("star:4").unwrap().switch_count(), 5);
        assert_eq!(parse_topology("fattree:4").unwrap().switch_count(), 20);
        assert_eq!(parse_topology("wan:1").unwrap().switch_count(), 79);
        assert_eq!(parse_topology("waxman:20,0.5,0.4,7").unwrap().switch_count(), 20);
        for bad in ["linear", "wan:11", "fattree:3", "waxman:5,2.0,0.4,7", "blob:2"] {
            assert!(parse_topology(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn topology_error_messages_name_the_problem() {
        let msg = |spec: &str| parse_topology(spec).unwrap_err().0;
        assert!(msg("linear").contains("must look like `linear:3`"), "{}", msg("linear"));
        assert!(msg("linear:x").contains("`x` is not a number"), "{}", msg("linear:x"));
        assert!(
            msg("linear:x").contains("linear:x"),
            "error should quote the full spec: {}",
            msg("linear:x")
        );
        assert!(msg("fattree:3").contains("even"), "{}", msg("fattree:3"));
        assert!(msg("wan:11").contains("1..=10"), "{}", msg("wan:11"));
        assert!(msg("waxman:5").contains("waxman:N,ALPHA,BETA,SEED"), "{}", msg("waxman:5"));
        assert!(msg("waxman:5,2.0,0.4,7").contains("(0, 1]"), "{}", msg("waxman:5,2.0,0.4,7"));
        assert!(msg("blob:2").contains("unknown topology kind `blob`"), "{}", msg("blob:2"));
    }

    #[test]
    fn topology_sizes_are_bounded_before_the_network_is_built() {
        for (spec, switches) in
            [("linear:1", 1), ("linear:4096", 4096), ("star:4095", 4096), ("fattree:56", 3920)]
        {
            assert_eq!(parse_topology(spec).unwrap().switch_count(), switches, "{spec}");
        }
        for spec in ["linear:0", "star:0", "waxman:0,0.4,0.4,1"] {
            let want = format!("topology `{spec}` is empty: its size must be at least 1");
            assert_eq!(parse_topology(spec).unwrap_err().0, want);
        }
        for (spec, max) in [
            ("linear:4097", 4096),
            ("star:4096", 4095),
            ("fattree:58", 56),
            ("waxman:4097,0.4,0.4,1", 4096),
            ("linear:100000000", 4096),
            ("star:18446744073709551615", 4095),
        ] {
            let want =
                format!("topology `{spec}` exceeds 4096 switches: its size must be at most {max}");
            assert_eq!(parse_topology(spec).unwrap_err().0, want);
        }
    }

    /// A value `flag` takes on every command that reads it.
    fn sample(flag: &str) -> &'static str {
        match flag {
            "--topology" => "linear:4",
            "--target" => "soft",
            "--solver" | "--from-solver" => "exact",
            "--order" => "auto",
            "--channel" => "lossy",
            "--journal" => "j.hjl",
            _ => "1",
        }
    }

    /// `command` with the operands it needs, then `extra`.
    fn invocation(command: Command, extra: &[&str]) -> Vec<String> {
        let operands: &[&str] = match command {
            Recover => &["--journal", "j.hjl"],
            Targets => &[],
            _ => &["a.p4dsl"],
        };
        args(&[&[command.name()], operands, extra].concat())
    }

    #[test]
    fn every_flag_is_accepted_exactly_by_the_commands_the_table_lists() {
        let text = usage();
        for command in COMMANDS.map(|(command, ..)| command) {
            // The synopsis: this command's line and its continuations.
            let head = format!("  hermes {:<8}", command.name());
            let synopsis: Vec<&str> = text
                .lines()
                .skip_while(|line| !line.starts_with(&head))
                .enumerate()
                .take_while(|&(i, line)| i == 0 || line.starts_with("                  "))
                .flat_map(|(_, line)| line.split(['[', ']', ' ']))
                .collect();
            for flag in FLAGS {
                let (name, readers) = flag.key();
                let reads = readers.contains(&command);
                assert_eq!(synopsis.contains(&name), reads, "{} {name}", command.name());
                let mut extra = vec![name];
                if let Value(..) = flag {
                    extra.push(sample(name));
                }
                match parse_args(&invocation(command, &extra)) {
                    Ok(_) => assert!(reads, "{} accepted {name}", command.name()),
                    Err(e) => {
                        let readers: Vec<&str> = readers.iter().map(|c| c.name()).collect();
                        let want = format!(
                            "`{name}` does not apply to `{}` (it applies to {})",
                            command.name(),
                            readers.join(", ")
                        );
                        assert!(!reads && e.0 == want, "{} {name}: {e}", command.name());
                    }
                }
            }
        }
    }

    /// Every value the model needs bounded is.
    fn assert_bounded(options: &Options, what: &str) {
        let net = &options.network;
        assert!((1..=MAX_SWITCHES).contains(&net.switch_count()), "{what}");
        for switch in net.switch_ids().map(|s| net.switch(s)) {
            let capacity = switch.stage_capacity;
            assert!(capacity.is_finite() && capacity > 0.0, "{what}");
            assert!(switch.latency_us.is_finite() && switch.latency_us > 0.0, "{what}");
        }
        assert!(options.eps.max_latency_us >= 0.0 && options.eps.max_switches >= 1, "{what}");
        assert!(options.channel.validate().is_ok(), "{what}");
        assert!(options.threads.is_none_or(|t| t.get() <= MAX_THREADS), "{what}");
    }

    #[test]
    fn every_valued_flag_parses_extremes_into_bounded_values_or_a_clean_error() {
        // A million bytes of distinct switch indices, the longest `--order`.
        let mut long = String::new();
        for i in 0.. {
            if long.len() >= 1_000_000 {
                break;
            }
            long += &format!("{i},");
        }
        long.truncate(1_000_000);
        let extremes = [
            "",
            "0",
            "-1",
            "NaN",
            "inf",
            "1e400",
            "18446744073709551615",
            "18446744073709551616",
            "1e30",
            &long,
        ];
        for flag in FLAGS {
            let Value(name, commands, ..) = *flag else { continue };
            let templates: &[&str] = match name {
                "--topology" => &[
                    "{}",
                    "linear:{}",
                    "star:{}",
                    "fattree:{}",
                    "wan:{}",
                    "waxman:{},0.5,0.5,1",
                    "waxman:8,{},0.5,1",
                ],
                "--target" => &["{}", "smartnic:stages={}", "soft:cap={}", "tofino:latency={}"],
                "--channel" => &["{}", "drop={}", "delay=0.5,span={}"],
                "--order" => &["{}", "0,{}"],
                _ => &["{}"],
            };
            for template in templates {
                for value in extremes {
                    let value = template.replace("{}", value);
                    let what = format!("{name} {}", &value[..value.len().min(40)]);
                    let argv = invocation(commands[0], &[name, &value]);
                    if let Ok(options) = parse_args(&argv) {
                        assert_bounded(&options, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn chaos_flags_parse() {
        let options =
            parse_args(&args(&["chaos", "a.p4dsl", "--seed", "42", "--topology", "linear:4"]))
                .unwrap();
        assert_eq!(options.command, Chaos);
        assert_eq!(options.seed, 42);
        assert_eq!(options.network.switch_count(), 4);
        assert!(parse_args(&args(&["chaos", "a.p4dsl", "--seed", "banana"])).is_err());
        // Default seed is 0 when the flag is absent.
        assert_eq!(parse_args(&args(&["chaos", "a.p4dsl"])).unwrap().seed, 0);
        // Trials and channel flags.
        let options = parse_args(&args(&[
            "chaos",
            "a.p4dsl",
            "--trials",
            "25",
            "--channel",
            "lossy",
            "--json",
        ]))
        .unwrap();
        assert_eq!(options.trials, Some(25));
        assert_eq!(options.channel, ChannelProfile::lossy());
        assert!(parse_args(&args(&["chaos", "a.p4dsl", "--trials", "many"])).is_err());
        assert_eq!(parse_args(&args(&["chaos", "a.p4dsl"])).unwrap().trials, None);
        assert_eq!(
            parse_args(&args(&["chaos", "a.p4dsl"])).unwrap().channel,
            ChannelProfile::none()
        );
    }

    #[test]
    fn channel_specs() {
        assert!(parse_channel("none").unwrap().is_none());
        let lossy = parse_channel("lossy").unwrap();
        assert!(lossy.drop_prob > 0.0 && lossy.duplicate_prob > 0.0);
        let custom = parse_channel("drop=0.2,dup=0.1,reorder=0.05,delay=0.3,span=500").unwrap();
        assert_eq!(custom.drop_prob, 0.2);
        assert_eq!(custom.duplicate_prob, 0.1);
        assert_eq!(custom.reorder_prob, 0.05);
        assert_eq!(custom.delay_prob, 0.3);
        assert_eq!(custom.delay_span_us, 500);
        // Omitted knobs stay zero.
        assert_eq!(parse_channel("drop=0.5").unwrap().duplicate_prob, 0.0);
        for bad in ["drop", "drop=high", "loss=0.1", "drop=1.5", "drop=-0.1", "drop=NaN"] {
            assert!(parse_channel(bad).is_err(), "`{bad}` accepted");
        }
        let e = parse_channel("drop=1.5").unwrap_err();
        assert_eq!(e.spec, "drop=1.5");
        assert!(e.to_string().contains("not a probability"), "{e}");
        // `span` is a whole number of microseconds, never a cast float.
        assert_eq!(parse_channel("span=18446744073709551615").unwrap().delay_span_us, u64::MAX);
        for bad in ["1e30", "-5", "NaN", "inf", "2.5", "18446744073709551616"] {
            let e = parse_channel(&format!("delay=1,span={bad}")).unwrap_err();
            assert_eq!(
                e.detail,
                format!("knob `span` needs a whole number of microseconds, got `{bad}`")
            );
        }
    }

    #[test]
    fn solver_lookup() {
        let names: Vec<&str> = SOLVERS.iter().map(|&(name, _)| name).collect();
        // Every row's `deploy` through `solver_with_threads` is its `solve`
        // under the same budget.
        let tdg = hermes_core::test_support::chain_tdg(&[3, 1, 4], 0.5);
        let net = hermes_core::test_support::tiny_switches(3, 2, 0.5);
        let eps = Epsilon::loose();
        let limit = Duration::from_secs(20);
        for name in &names {
            assert_eq!(Solver::named(&name.to_ascii_uppercase()), Solver::named(name));
            for threads in [None, NonZeroUsize::new(2)] {
                let deployed =
                    solver_with_threads(name, limit, threads).unwrap().deploy(&tdg, &net, &eps);
                let ctx = SearchContext::with_time_limit(limit);
                let ctx = threads.map_or(ctx.clone(), |n| ctx.with_threads(n));
                let solved = Solver::named(name).unwrap().build().solve(&tdg, &net, &eps, &ctx);
                assert_eq!(deployed.unwrap(), solved.unwrap().plan, "{name}, {threads:?}");
            }
        }
        // Nothing outside the list resolves, an older spelling included.
        for retired in ["hermes", "optimal", "ilp", "min-stage", "flightplan", "gurobi"] {
            let e = match solver_with_threads(retired, Duration::from_secs(1), None) {
                Err(e) => e,
                Ok(_) => panic!("`{retired}` accepted"),
            };
            assert_eq!(e.given, retired);
            assert!(e.to_string().ends_with(&format!("(valid: {})", names.join(", "))));
        }
    }

    #[test]
    fn time_limit_past_the_end_of_time_is_no_deadline() {
        // No `Instant` is that far away: the deadline must not be computed
        // by an overflowing addition.
        let fixture =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/audit_workload.p4dsl");
        let report = |command: &[&str], limit: &str| {
            let argv = [command, &[fixture, "--time-limit", limit]].concat();
            let mut out = Vec::new();
            run(&parse_args(&args(&argv)).unwrap(), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        for command in [
            &["deploy", "--topology", "linear:3", "--solver", "exact"][..],
            &["deploy", "--topology", "linear:3", "--solver", "ms"],
            &["migrate", "--topology", "linear:4", "--exclude", "0"],
        ] {
            assert_eq!(report(command, &u64::MAX.to_string()), report(command, "10"));
        }
    }

    #[test]
    fn end_to_end_deploy_over_a_temp_file() {
        let dir = std::env::temp_dir().join("hermes-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("counter.p4dsl");
        std::fs::write(
            &file,
            r#"
            program counter {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table hash { actions { go { meta.idx = hash(ipv4.src); } } resource 0.2; }
                table count {
                    key { meta.idx: exact; }
                    actions { bump { register(meta.idx); } }
                    resource 0.4;
                }
            }
            "#,
        )
        .unwrap();
        let options =
            parse_args(&args(&["deploy", file.to_str().unwrap(), "--topology", "linear:2"]))
                .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("deployment: A_max="), "{text}");

        // analyze over the same file reports the TDG.
        let options = parse_args(&args(&["analyze", file.to_str().unwrap(), "--dot"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("merged TDG: 2 MATs"), "{text}");
        assert!(text.contains("digraph"), "{text}");

        // simulate reports the end-to-end impact.
        let options =
            parse_args(&args(&["simulate", file.to_str().unwrap(), "--topology", "linear:2"]))
                .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("impact:"), "{text}");

        // chaos runs a seeded fault-injected rollout and reports it.
        let options = parse_args(&args(&[
            "chaos",
            file.to_str().unwrap(),
            "--topology",
            "linear:3",
            "--seed",
            "7",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("seed 7:"), "{text}");
        assert!(text.contains("events:"), "{text}");
        // The same seed reports the same thing.
        let mut again = Vec::new();
        run(&options, &mut again).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap());

        // chaos --trials sweeps seeds over a lossy channel and reports a
        // summary; every run upholds the runtime invariants (or this
        // errors).
        let options = parse_args(&args(&[
            "chaos",
            file.to_str().unwrap(),
            "--topology",
            "linear:3",
            "--trials",
            "5",
            "--channel",
            "lossy",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("trials 5:"), "{text}");
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"trials\":5"), "{text}");
    }

    #[test]
    fn migrate_flags_parse() {
        let options = parse_args(&args(&[
            "migrate",
            "a.p4dsl",
            "--topology",
            "linear:4",
            "--from-solver",
            "ffl",
            "--solver",
            "greedy",
            "--exclude",
            "1",
            "--order",
            "2,0",
            "--channel",
            "lossy",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(options.command, Migrate);
        assert_eq!(options.from_solver, Solver::named("ffl").unwrap());
        assert_eq!(options.solver, Solver::named("greedy").unwrap());
        assert_eq!(options.exclude, Some(1));
        assert_eq!(options.order, OrderSpec::Explicit(vec![2, 0]));
        assert_eq!(options.channel, ChannelProfile::lossy());
        assert_eq!(options.seed, 9);
        // Defaults.
        let options = parse_args(&args(&["migrate", "a.p4dsl"])).unwrap();
        assert_eq!(options.from_solver, Solver::named("ffl").unwrap());
        assert_eq!(options.solver, Solver::named("greedy").unwrap());
        assert_eq!(options.order, OrderSpec::Auto);
        assert_eq!(options.exclude, None);
    }

    #[test]
    fn malformed_migrate_values_fail_at_parse_time_with_typed_errors() {
        // --order: `auto` or comma-separated indices only; the retired
        // orderer names get the same typed error, naming both forms.
        for retired in ["banana", "greedy", "exact", "in-order"] {
            let e = parse_args(&args(&["migrate", "a.p4dsl", "--order", retired])).unwrap_err();
            assert!(e.0.contains(&format!("order spec `{retired}`")), "{e}");
            assert!(e.0.contains("`auto` or comma-separated switch indices"), "{e}");
        }
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--order", "0,1,1"])).unwrap_err();
        assert!(e.0.contains("appears twice"), "{e}");
        // --channel is validated at parse time now, not first use.
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--channel", "drop=high"])).unwrap_err();
        assert!(e.0.contains("channel spec `drop=high`"), "{e}");
        // --from-solver goes through the same typed solver lookup.
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--from-solver", "gurobi"])).unwrap_err();
        assert!(e.0.contains("unknown solver `gurobi`"), "{e}");
        // --exclude must be an index.
        let e = parse_args(&args(&["migrate", "a.p4dsl", "--exclude", "two"])).unwrap_err();
        assert!(e.0.contains("--exclude"), "{e}");
    }

    #[test]
    fn order_specs_parse_and_resolve() {
        assert_eq!(parse_order("auto").unwrap(), OrderSpec::Auto);
        assert_eq!(parse_order("2,0,1").unwrap(), OrderSpec::Explicit(vec![2, 0, 1]));
        let net = parse_topology("linear:3").unwrap();
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        match resolve_order(&parse_order("2,0").unwrap(), &net).unwrap() {
            MigrationOrder::Explicit(order) => assert_eq!(order, vec![ids[2], ids[0]]),
            other => panic!("expected explicit order, got {other:?}"),
        }
        // Out-of-range indices are range-checked against the topology.
        let e = resolve_order(&parse_order("0,7").unwrap(), &net).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        assert!(e.to_string().contains("3 switches"), "{e}");
    }

    #[test]
    fn audit_flags_parse() {
        let options = parse_args(&args(&["audit", "--library", "--json"])).unwrap();
        assert_eq!(options.command, Audit);
        assert!(options.library);
        assert!(options.json);
        assert!(options.files.is_empty());
        // Without --library, audit still needs program files...
        assert!(parse_args(&args(&["audit"])).is_err());
        // ...and --library does not excuse other commands from them.
        assert!(parse_args(&args(&["deploy", "--library"])).is_err());
    }

    #[test]
    fn state_report_flags_parse_and_bind_to_audit() {
        let options =
            parse_args(&args(&["audit", "--library", "--state-report", "--relax-state"])).unwrap();
        assert!(options.state_report);
        assert_eq!(options.mode, AnalysisMode::RelaxedState);
        // Defaults are off.
        let options = parse_args(&args(&["audit", "--library"])).unwrap();
        assert!(!options.state_report && options.mode == AnalysisMode::PaperLiteral);
        // --state-report is audit-only; --relax-state also drives deploy.
        let e = parse_args(&args(&["deploy", "a.p4dsl", "--state-report"])).unwrap_err();
        assert_eq!(e.0, "`--state-report` does not apply to `deploy` (it applies to audit)");
        let options = parse_args(&args(&["deploy", "a.p4dsl", "--relax-state"])).unwrap();
        assert_eq!(options.mode, AnalysisMode::RelaxedState);
    }

    #[test]
    fn audit_state_report_emits_hs_codes_and_field_rows() {
        let options = parse_args(&args(&["audit", "--library", "--state-report"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("HS504"), "summary diagnostic must fire: {text}");
        assert!(text.contains("fields relaxable"), "{text}");
        assert!(text.contains("state: "), "per-field rows must print: {text}");
        // Conservative mode relaxes no edges even when fields qualify.
        assert!(text.contains("0 of"), "{text}");

        // JSON mode embeds the report and stays parseable.
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"state\""), "{text}");
        assert!(text.contains("\"HS504\""), "{text}");
        let report: hermes_analysis::AuditReport = serde_json::from_str(&text).unwrap();
        assert!(report.state.is_some());

        // Without the flag the JSON omits the key entirely.
        let options = parse_args(&args(&["audit", "--library", "--json"])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("\"state\""), "{text}");
    }

    #[test]
    fn relax_state_audit_counts_relaxed_edges_on_aggregation_workloads() {
        let dir = std::env::temp_dir().join("hermes-cli-relax-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("agg.p4dsl");
        std::fs::write(
            &file,
            r#"
            program agg {
                header pkt.v: 4;
                metadata meta.acc: 4;
                table w0 { actions { fold0 { meta.acc = fold_add(pkt.v); } } resource 0.2; }
                table w1 { actions { fold1 { meta.acc = fold_add(pkt.v); } } resource 0.3; }
            }
            "#,
        )
        .unwrap();
        let options = parse_args(&args(&[
            "audit",
            file.to_str().unwrap(),
            "--state-report",
            "--relax-state",
            "--topology",
            "linear:2",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("commutative-update(add)"), "{text}");
        assert!(text.contains("HS502"), "{text}");
        assert!(text.contains("1 of 1 dependency edges relaxed"), "{text}");
    }

    #[test]
    fn audit_library_is_clean_and_emits_typed_json() {
        let options =
            parse_args(&args(&["audit", "--library", "--json", "--topology", "fattree:4"]))
                .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"diagnostics\""), "{text}");
        assert!(text.contains("\"summary\""), "{text}");
        assert!(text.contains("\"errors\": 0"), "{text}");

        // Pretty mode prints the summary line.
        let options = Options { json: false, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("audit: 0 error(s)"), "{text}");
    }

    #[test]
    fn audit_broken_workload_errors_with_stable_codes() {
        let dir = std::env::temp_dir().join("hermes-cli-audit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("broken.p4dsl");
        std::fs::write(
            &file,
            r#"
            program broken {
                metadata meta.ghost: 4;
                table r {
                    key { meta.ghost: exact; }
                    actions { a { drop(); } }
                    resource 0.2;
                }
            }
            "#,
        )
        .unwrap();
        let options = parse_args(&args(&["audit", file.to_str().unwrap(), "--json"])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("error-severity"), "{e}");
        let text = String::from_utf8(out).unwrap();
        // Both the lint and the independent dataflow pass fire.
        assert!(text.contains("HL001"), "{text}");
        assert!(text.contains("HD101"), "{text}");
    }

    #[test]
    fn end_to_end_migrate_drains_a_switch() {
        let dir = std::env::temp_dir().join("hermes-cli-migrate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("counter.p4dsl");
        std::fs::write(
            &file,
            r#"
            program counter {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table hash { actions { go { meta.idx = hash(ipv4.src); } } resource 0.2; }
                table count {
                    key { meta.idx: exact; }
                    actions { bump { register(meta.idx); } }
                    resource 0.4;
                }
            }
            "#,
        )
        .unwrap();
        // Drain switch 0: plan B re-homes everything the first-fit plan A
        // put there, and the staged migration executes under a lossy
        // channel with seeded faults.
        let options = parse_args(&args(&[
            "migrate",
            file.to_str().unwrap(),
            "--topology",
            "linear:3",
            "--exclude",
            "0",
            "--seed",
            "3",
            "--channel",
            "lossy",
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("drain switch"), "{text}");
        assert!(text.contains("schedule ("), "{text}");
        assert!(text.contains("seed 3:"), "{text}");
        // Bimodal: plan B lands or plan A is restored — never an abort on
        // this gate-clean workload.
        assert!(text.contains("migrated") || text.contains("rolled back"), "{text}");
        assert!(!text.contains("aborted"), "{text}");
        // Same seed, same report.
        let mut again = Vec::new();
        run(&options, &mut again).unwrap();
        assert_eq!(text, String::from_utf8(again).unwrap());

        // The event log carries the schema version for golden diffing.
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"schema_version\": 3"), "{text}");
    }

    #[test]
    fn recover_flags_parse() {
        let options = parse_args(&args(&["recover", "--journal", "/tmp/x.hjl", "--json"])).unwrap();
        assert_eq!(options.command, Recover);
        assert_eq!(options.journal.as_deref(), Some("/tmp/x.hjl"));
        assert!(options.json);
        // recover insists on a journal and refuses program files.
        let e = parse_args(&args(&["recover"])).unwrap_err();
        assert!(e.0.contains("--journal"), "{e}");
        let e = parse_args(&args(&["recover", "a.p4dsl", "--journal", "j"])).unwrap_err();
        assert!(e.0.contains("not program files"), "{e}");
        // --journal parses on the runtime commands too.
        let options = parse_args(&args(&["chaos", "a.p4dsl", "--journal", "/tmp/j.hjl"])).unwrap();
        assert_eq!(options.journal.as_deref(), Some("/tmp/j.hjl"));
    }

    #[test]
    fn end_to_end_journal_round_trip_through_recover() {
        let dir = std::env::temp_dir().join("hermes-cli-recover-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("counter.p4dsl");
        std::fs::write(
            &file,
            r#"
            program counter {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table hash { actions { go { meta.idx = hash(ipv4.src); } } resource 0.2; }
                table count {
                    key { meta.idx: exact; }
                    actions { bump { register(meta.idx); } }
                    resource 0.4;
                }
            }
            "#,
        )
        .unwrap();
        let journal = dir.join("deploy.hjl");
        // deploy --journal writes the journal of a clean install.
        let options = parse_args(&args(&[
            "deploy",
            file.to_str().unwrap(),
            "--topology",
            "linear:2",
            "--journal",
            journal.to_str().unwrap(),
        ]))
        .unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        assert!(journal.exists());

        // recover replays it offline: a concluded deploy affirms the
        // snapshot.
        let options =
            parse_args(&args(&["recover", "--journal", journal.to_str().unwrap()])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("record(s) replayed"), "{text}");
        assert!(text.contains("snapshot: epoch 1"), "{text}");
        assert!(text.contains("in flight: nothing"), "{text}");
        assert!(text.contains("recovery action: affirm-snapshot"), "{text}");

        // JSON mode emits the same verdict machine-readably.
        let options = Options { json: true, ..options };
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"action\":\"affirm-snapshot\""), "{text}");
        assert!(text.contains("\"in_flight\":null"), "{text}");

        // A truncated journal with no intact tail frame is a torn tail:
        // reported, discarded, exit zero.
        let bytes = std::fs::read(&journal).unwrap();
        let torn = dir.join("torn.hjl");
        std::fs::write(&torn, &bytes[..bytes.len() - 3]).unwrap();
        let options = parse_args(&args(&["recover", "--journal", torn.to_str().unwrap()])).unwrap();
        let mut out = Vec::new();
        run(&options, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("torn tail byte(s) discarded"), "{text}");

        // A journal with a corrupt header is a typed error, not a panic.
        let mut broken = bytes.clone();
        broken[0] ^= 0xFF;
        let bad = dir.join("bad.hjl");
        std::fs::write(&bad, &broken).unwrap();
        let options = parse_args(&args(&["recover", "--journal", bad.to_str().unwrap()])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("journal replay failed"), "{e}");

        // An unconcluded transaction or migration is named with what the
        // journal decides recovery by: the commit decision, the schedule.
        use hermes_runtime::{JournalRecord, TxnKind};
        let plan = hermes_runtime::RenderedPlan::new(hermes_core::DeploymentPlan::new());
        let txn = JournalRecord::TxnBegun {
            epoch: 2,
            kind: TxnKind::Deploy,
            tdg_fp: 1,
            plan_fp: 2,
            plan: plan.clone(),
        };
        let decided = JournalRecord::CommitDecided { epoch: 2, order: vec![] };
        let migration = JournalRecord::MigrationBegun {
            epoch: 3,
            tdg_fp: 1,
            plan_fp: 2,
            plan,
            order: topology::linear(2, 10.0).switch_ids().collect(),
        };
        for (records, line, action) in [
            (
                vec![&txn],
                "in flight: Deploy transaction, epoch 2 (commit undecided)",
                "roll-back-txn",
            ),
            (
                vec![&txn, &decided],
                "in flight: Deploy transaction, epoch 2 (commit decided)",
                "resume-commit",
            ),
            (
                vec![&migration],
                "in flight: migration, epoch 3 (2 steps scheduled)",
                "roll-back-migration",
            ),
        ] {
            let mut journal = Journal::new();
            records.into_iter().for_each(|r| journal.append(r));
            let path = dir.join("in-flight.hjl");
            std::fs::write(&path, journal.bytes()).unwrap();
            let options =
                parse_args(&args(&["recover", "--journal", path.to_str().unwrap()])).unwrap();
            let mut out = Vec::new();
            run(&options, &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains(line), "{text}");
            assert!(text.contains(&format!("recovery action: {action}")), "{text}");
        }

        // Missing file: clean error.
        let options = parse_args(&args(&["recover", "--journal", "/nonexistent/j.hjl"])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("cannot read journal"), "{e}");
    }

    /// A frame with a valid CRC whose payload opens a million arrays used
    /// to overflow the stack of `recover`. Alone it is a torn tail; before
    /// an intact frame it is mid-log corruption, a nonzero exit that names
    /// the nesting limit.
    #[test]
    fn recover_survives_a_payload_nested_a_million_deep() {
        // CRC32 (IEEE, reflected), bit by bit.
        let crc32 = |bytes: &[u8]| {
            !bytes.iter().fold(!0u32, |mut crc, &b| {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
                }
                crc
            })
        };
        let payload = vec![b'['; 1_000_000];
        let mut deep = vec![0xA7, 0x4A];
        deep.extend((payload.len() as u32).to_le_bytes());
        deep.extend(crc32(&payload).to_le_bytes());
        deep.extend(&payload);
        let mut journal = hermes_runtime::Journal::new();
        journal.append(&hermes_runtime::JournalRecord::EpochAdvanced { epoch: 1 });
        let (header, intact) = journal.bytes().split_at(8);

        let dir = std::env::temp_dir().join("hermes-cli-deep-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let recover = |name: &str, bytes: &[u8]| {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            let options =
                parse_args(&args(&["recover", "--journal", path.to_str().unwrap()])).unwrap();
            let mut out = Vec::new();
            run(&options, &mut out).map(|()| String::from_utf8(out).unwrap())
        };
        let text = recover("lone.hjl", &[header, &deep].concat()).unwrap();
        assert!(text.contains("0 record(s) replayed, 1000010 torn tail byte(s)"), "{text}");
        let e = recover("followed.hjl", &[header, &deep, intact].concat()).unwrap_err();
        assert!(e.0.contains("journal replay failed: corrupt journal frame at byte 8"), "{e}");
        assert!(e.0.contains("nesting deeper than 128 levels"), "{e}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let options = parse_args(&args(&["analyze", "/nonexistent/path.p4dsl"])).unwrap();
        let mut out = Vec::new();
        let e = run(&options, &mut out).unwrap_err();
        assert!(e.0.contains("cannot read"), "{e}");
    }

    #[test]
    fn dsl_numbers_the_model_cannot_hold_fail_the_deploy_with_their_line() {
        // Two metadata fields written by `t1` and matched by `t2`; at 11.5
        // stages each the tables take a switch each on `linear:2`, so both
        // fields would cross the link.
        let wide = |width: &str| {
            format!(
                "program wide {{\n    metadata meta.a: {width};\n    metadata meta.b: {width};\n    \
                 table t1 {{ actions {{ w {{ meta.a = const(); meta.b = const(); }} }} resource 11.5; }}\n    \
                 table t2 {{ key {{ meta.a: exact; meta.b: exact; }} actions {{ n {{ drop(); }} }} \
                 resource 11.5; }}\n}}\n"
            )
        };
        let capped = |capacity: &str| {
            format!(
                "program cap {{\n    header ipv4.dst: 4;\n    table t {{\n        \
                 key {{ ipv4.dst: exact; }}\n        actions {{ a {{ drop(); }} }}\n        \
                 capacity {capacity};\n        resource 0.2;\n    }}\n}}\n"
            )
        };
        let dir = std::env::temp_dir().join("hermes-cli-dsl-bounds-test");
        std::fs::create_dir_all(&dir).unwrap();
        let deploy = |name: &str, source: &str| {
            let path = dir.join(name);
            std::fs::write(&path, source).unwrap();
            let path = path.to_str().unwrap();
            let options = parse_args(&args(&["deploy", path, "--topology", "linear:2"])).unwrap();
            run(&options, &mut Vec::new()).map_err(|e| e.0)
        };
        for width in ["3000000000", "1000000000000", "65536", "0"] {
            let e = deploy(&format!("width-{width}.p4dsl"), &wide(width)).unwrap_err();
            let want = format!(
                "parse error: line 2: field `meta.a` width must be an integer from 1 to 65535 \
                 bytes, found {width}"
            );
            assert_eq!(e, want);
        }
        for capacity in ["0.5", "2.9", "0"] {
            let e = deploy(&format!("capacity-{capacity}.p4dsl"), &capped(capacity)).unwrap_err();
            let want = format!(
                "parse error: line 6: table `t`: capacity must be a positive integer, \
                 found {capacity}"
            );
            assert_eq!(e, want);
        }
        deploy("width-65535.p4dsl", &wide("65535")).unwrap();
        deploy("capacity-3.p4dsl", &capped("3")).unwrap();
    }
}
