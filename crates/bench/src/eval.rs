//! Every artifact of the paper's evaluation, and of five experiments that
//! extend it (the runtime's healing, lossy channels, staged migration,
//! crash recovery and heterogeneous targets), measured and rendered as one
//! Markdown file under `results/` each (Exp#2–4 share one sweep and write
//! three).
//!
//! Each artifact checks what it measures while it runs — every plan against
//! the paper's constraints, every figure against the invariant its claim
//! rests on — and marks each cell that depends on the host with `*`
//! ([`host`]); everything else is a pure function of the code, which
//! `tests/reproduce.rs` holds the committed files to.

use crate::report::{fmt_ms, host, Table};
use crate::{analyze, deploy_measured, measure, verified, workload, Axis, Ctx, Panel, Sweep};
use hermes_backend::{config::generate, emulator, simulate_plan, PlanFlowConfig};
use hermes_baselines::{standard_suite, IlpBaseline};
use hermes_core::test_support::chain_tdg;
use hermes_core::{
    DeploymentAlgorithm, DeploymentPlan, Epsilon, GreedyHeuristic, IncrementalDeployer,
    MigrationOrder, MigrationProblem, MigrationScheduler, MilpHermes, OptimalSolver,
    ProgramAnalyzer, RedeployOptions, SearchContext, SplitStrategy,
};
use hermes_dataplane::library::{self, sketches};
use hermes_net::topology::{self, table3_wan, TABLE3};
use hermes_net::{parse_target, Network, SwitchId};
use hermes_runtime::{
    ChannelProfile, CrashTiming, DeploymentRuntime, Event, FaultInjector, FaultProfile,
    MigrationConfig, MigrationOutcome, RetryPolicy, RolloutOutcome,
};
use hermes_sim::testbed::{fig2_sweep, NormalizedPerf, TestbedConfig, PACKET_SIZES};
use hermes_sim::workload::{aggregate, run_workload, FlowSizes, OverheadModel, WorkloadConfig};
use hermes_tdg::{AnalysisMode, Tdg};

/// One regenerable artifact of the evaluation.
pub struct Artifact {
    /// Its `reproduce --only` name.
    pub name: &'static str,
    /// What of the paper it reproduces.
    pub about: &'static str,
    /// Measures and renders it: one output per results file.
    pub run: fn(&Ctx) -> Result<Vec<Output>, String>,
}

/// One rendered results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// File name under the results directory.
    pub file: &'static str,
    /// Its Markdown text.
    pub text: String,
}

/// The evaluation in the paper's order, then the extension experiments.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact { name: "fig2", about: "Figure 2: overhead vs. normalized FCT/goodput", run: fig2 },
    Artifact { name: "table3", about: "Table III: the ten WAN topologies", run: table3 },
    Artifact { name: "exp1", about: "Figure 5: testbed, 2..10 programs", run: exp1 },
    Artifact { name: "exp2_4", about: "Figures 6-8: 50 programs on the ten WANs", run: exp2_4 },
    Artifact { name: "exp5", about: "Figure 9: scalability on topology 10", run: exp5 },
    Artifact { name: "exp6", about: "Exp#6: switch resource consumption", run: exp6 },
    Artifact {
        name: "ablations",
        about: "split objective and accounting ablations",
        run: ablations,
    },
    Artifact {
        name: "wire_accounting",
        about: "pairwise A_max vs. on-wire bytes",
        run: wire_accounting,
    },
    Artifact {
        name: "int_comparison",
        about: "constant metadata vs. INT-style accumulation",
        run: int_comparison,
    },
    Artifact {
        name: "chaos_recovery",
        about: "healing under injected faults, two topologies",
        run: chaos_recovery,
    },
    Artifact { name: "lossy_commit", about: "commit cost vs. message loss", run: lossy_commit },
    Artifact { name: "migration", about: "staged vs. all-at-once reconfiguration", run: migration },
    Artifact { name: "recovery", about: "controller crash at every journal write", run: recovery },
    Artifact { name: "targets", about: "A_max and feasibility per target mix", run: targets },
];

/// A Markdown report under construction.
struct Doc(String);

impl Doc {
    fn new(title: &str) -> Doc {
        Doc(format!("# {title}\n"))
    }

    fn para(&mut self, text: impl AsRef<str>) {
        self.0 += &format!("\n{}\n", text.as_ref());
    }

    fn table(&mut self, caption: &str, table: &Table) {
        self.0 += &format!("\n## {caption}\n\n{}", table.markdown());
    }

    /// The footnote naming where the `*` cells were measured.
    fn footnote(&mut self, ctx: &Ctx) {
        self.0 += &format!("\n* measured on {}\n", ctx.provenance);
    }

    fn done(self, file: &'static str) -> Output {
        Output { file, text: self.0 }
    }
}

/// The note every report with solver cells carries.
fn budget_note(ctx: &Ctx) -> String {
    format!(
        "ILP / exhaustive budget: {} s per solve. Cells marked * depend on the host: wall-clock \
         times, and the incumbents of solvers that ran out of budget.",
        ctx.budget.as_secs_f64()
    )
}

/// Hermes's plan for `(tdg, net)`, verified ([`deploy_measured`]).
fn hermes_plan(tdg: &Tdg, net: &Network, ctx: &Ctx) -> Result<DeploymentPlan, String> {
    deploy_measured(&GreedyHeuristic::new(), tdg, net, ctx.budget)?
        .plan
        .ok_or_else(|| "Hermes found no plan".to_owned())
}

fn fig2(_: &Ctx) -> Result<Vec<Output>, String> {
    let config = TestbedConfig::default();
    let rows = fig2_sweep(&config);
    // More overhead never helps, and smaller packets always suffer more.
    for pair in rows.windows(2) {
        for (a, b) in pair[0].per_size.iter().zip(&pair[1].per_size) {
            if b.fct_ratio < a.fct_ratio || b.goodput_ratio > a.goodput_ratio {
                return Err(format!(
                    "{} B helps over {} B",
                    pair[1].overhead_bytes, pair[0].overhead_bytes
                ));
            }
        }
    }
    if let Some(row) =
        rows.iter().find(|r| r.per_size.windows(2).any(|p| p[1].fct_ratio > p[0].fct_ratio))
    {
        return Err(format!("a larger packet suffers more from {} B", row.overhead_bytes));
    }

    let table = |label: &str, value: fn(&NormalizedPerf) -> f64| {
        let mut t = Table::new(
            std::iter::once("overhead (B)".to_owned())
                .chain(PACKET_SIZES.iter().map(|s| format!("{label} x ({s} B pkts)"))),
        );
        for row in &rows {
            t.row(
                std::iter::once(row.overhead_bytes.to_string())
                    .chain(row.per_size.iter().map(|p| format!("{:.3}", value(p)))),
            );
        }
        t
    };
    let mut doc = Doc::new("Figure 2 — per-packet byte overhead vs. end-to-end performance");
    doc.para(format!(
        "{} hops, {} Gbps links, {} packets per flow, normalized to the 0-byte run.",
        config.hops, config.rate_gbps, config.packets
    ));
    doc.table("(a) normalized flow completion time", &table("FCT", |p| p.fct_ratio));
    doc.table("(b) normalized goodput", &table("goodput", |p| p.goodput_ratio));
    let at_68 = rows.iter().find(|r| r.overhead_bytes == 68).ok_or("no 68 B row")?;
    doc.para(format!(
        "headline: 68 B of metadata -> +{:.0}% FCT / -{:.0}% goodput on 512 B packets",
        (at_68.per_size[0].fct_ratio - 1.0) * 100.0,
        (1.0 - at_68.per_size[0].goodput_ratio) * 100.0
    ));
    Ok(vec![doc.done("fig2.md")])
}

fn table3(_: &Ctx) -> Result<Vec<Output>, String> {
    let mut t = Table::new(["topology", "# nodes", "# edges", "# programmable", "connected"]);
    for (i, &(nodes, edges)) in TABLE3.iter().enumerate() {
        let net = table3_wan(i);
        if (net.switch_count(), net.link_count()) != (nodes, edges) {
            return Err(format!("topology {} is not Table III's {nodes}/{edges}", i + 1));
        }
        t.row([
            (i + 1).to_string(),
            nodes.to_string(),
            edges.to_string(),
            net.programmable_switches().len().to_string(),
            net.is_connected().to_string(),
        ]);
    }
    let mut doc = Doc::new("Table III — topologies used by the simulation");
    doc.para(
        "Node and edge counts are the paper's; half the switches are programmable, with 1 us \
         switch latency and 1-10 ms link latency.",
    );
    doc.table("topologies", &t);
    Ok(vec![doc.done("table3.md")])
}

/// The standard suite at `counts` programs on `net`.
fn program_sweep(ctx: &Ctx, net: &Network, counts: &[usize]) -> Result<Sweep, String> {
    Sweep::run(Axis::Programs, counts, |n| measure(&analyze(&workload(n)), net, ctx.budget))
}

/// Appends the four panels of `sweep` in the paper's order.
fn four_panels(doc: &mut Doc, sweep: &Sweep) {
    for (caption, panel) in [
        ("(a) per-packet byte overhead, bytes", Panel::Overhead),
        ("(b) execution time, ms", Panel::Time),
        ("(c) normalized FCT", Panel::Fct),
        ("(d) normalized goodput", Panel::Goodput),
    ] {
        doc.table(caption, &sweep.panel(panel));
    }
}

fn exp1(ctx: &Ctx) -> Result<Vec<Output>, String> {
    let net = topology::linear(3, 10.0);
    let sweep = program_sweep(ctx, &net, &[2, 4, 6, 8, 10])?;
    let mut doc =
        Doc::new("Exp#1 (Figure 5) — testbed: 3-switch linear topology, 2..10 real programs");
    doc.para(budget_note(ctx));
    four_panels(&mut doc, &sweep);
    // Headline: Hermes vs the worst framework at 10 programs.
    let last = &sweep.points.last().ok_or("empty sweep")?.results;
    let hermes = last.iter().find(|m| m.algorithm == "Hermes").and_then(|m| m.overhead_bytes);
    let worst = last.iter().filter_map(|m| m.overhead_bytes).max();
    doc.para(host(
        format!(
            "headline: at 10 programs Hermes saves {} bytes vs the worst framework",
            worst.unwrap_or(0) - hermes.unwrap_or(0)
        ),
        last.iter().any(|m| !m.deterministic),
    ));
    doc.footnote(ctx);
    Ok(vec![doc.done("exp1.md")])
}

fn exp2_4(ctx: &Ctx) -> Result<Vec<Output>, String> {
    const PROGRAMS: usize = 50;
    let tdg = analyze(&workload(PROGRAMS));
    let topologies: Vec<usize> = (1..=TABLE3.len()).collect();
    let sweep = Sweep::run(Axis::Topology, &topologies, |at| {
        measure(&tdg, &table3_wan(at - 1), ctx.budget)
    })?;
    let others: Vec<&str> =
        sweep.algorithms().filter(|a| !matches!(*a, "Hermes" | "Optimal")).collect();
    let exact = |names: &[&str]| names.iter().all(|a| sweep.deterministic(a));

    let mut exp2 = Doc::new(&format!(
        "Exp#2 (Figure 6) — per-packet byte overhead, {PROGRAMS} programs, 10 WANs"
    ));
    exp2.para(budget_note(ctx));
    exp2.table("per-packet byte overhead, bytes", &sweep.panel(Panel::Overhead));
    // Headline: Hermes vs the mean of the other frameworks.
    let overhead = |name: &str| sweep.mean(name, |m| m.overhead_bytes.map(|b| b as f64));
    let hermes = overhead("Hermes");
    let mean_other = others.iter().map(|a| overhead(a)).sum::<f64>() / others.len().max(1) as f64;
    exp2.para(host(
        format!(
            "headline: Hermes reduces the overhead by {:.0}% vs the mean of the other frameworks",
            (1.0 - hermes / mean_other.max(f64::MIN_POSITIVE)) * 100.0
        ),
        !exact(&others) || !exact(&["Hermes"]),
    ));
    let optimal = overhead("Optimal");
    exp2.para(host(
        format!(
            "heuristic vs Optimal: {:.0}% higher on average",
            (hermes / optimal.max(f64::MIN_POSITIVE) - 1.0).max(0.0) * 100.0
        ),
        !exact(&["Hermes", "Optimal"]),
    ));
    exp2.footnote(ctx);

    let mut exp3 =
        Doc::new(&format!("Exp#3 (Figure 7) — execution time (ms), {PROGRAMS} programs, 10 WANs"));
    exp3.para(budget_note(ctx));
    exp3.para("Capped entries mirror the paper's 10^7 ms bars for ILP runs over two hours.");
    exp3.table("execution time, ms", &sweep.panel(Panel::Time));
    exp3.para(host(
        format!(
            "headline: the Hermes heuristic averages {} ms",
            fmt_ms(sweep.mean("Hermes", |m| Some(m.measured_ms)), false)
        ),
        true,
    ));
    exp3.footnote(ctx);

    let mut exp4 = Doc::new(&format!(
        "Exp#4 (Figure 8) — end-to-end impact of {PROGRAMS}-program deployments (1024 B packets)"
    ));
    exp4.para(budget_note(ctx));
    exp4.table("(a) normalized FCT", &sweep.panel(Panel::Fct));
    exp4.table("(b) normalized goodput", &sweep.panel(Panel::Goodput));
    // Headline: the worst framework's FCT overhead (ratio - 1) vs Hermes's.
    let fct_overhead = |name: &str| sweep.mean(name, |m| m.fct_ratio.map(|f| f - 1.0));
    let worst = sweep.algorithms().map(fct_overhead).fold(0.0, f64::max);
    let all: Vec<&str> = sweep.algorithms().collect();
    exp4.para(host(
        format!(
            "headline: the worst framework adds {:.1}% to the FCT, Hermes {:.1}%",
            worst * 100.0,
            fct_overhead("Hermes") * 100.0
        ),
        !exact(&all),
    ));
    exp4.footnote(ctx);
    Ok(vec![exp2.done("exp2.md"), exp3.done("exp3.md"), exp4.done("exp4.md")])
}

fn exp5(ctx: &Ctx) -> Result<Vec<Output>, String> {
    let sweep = program_sweep(ctx, &table3_wan(9), &[10, 20, 30, 40, 50])?;
    let mut doc = Doc::new("Exp#5 (Figure 9) — scalability on topology 10, 10..50 programs");
    doc.para(budget_note(ctx));
    four_panels(&mut doc, &sweep);
    let hermes: Vec<f64> = sweep.series("Hermes").map(|m| m.measured_ms).collect();
    doc.para(host(
        format!(
            "headline: the Hermes heuristic's time grows {} ms -> {} ms from 10 to 50 programs",
            fmt_ms(hermes.first().copied().unwrap_or(0.0), false),
            fmt_ms(hermes.last().copied().unwrap_or(0.0), false)
        ),
        true,
    ));
    doc.footnote(ctx);
    Ok(vec![doc.done("exp5.md")])
}

fn exp6(ctx: &Ctx) -> Result<Vec<Output>, String> {
    let programs = sketches::all();
    let ground_truth: f64 = programs.iter().map(|p| p.total_resource()).sum();
    let tdg = analyze(&programs);
    let merged = tdg.total_resource();
    let net = topology::linear(3, 10.0);
    let units =
        |plan: &DeploymentPlan| -> f64 { plan.placements().iter().map(|p| p.fraction).sum() };
    // Float dust aside, a verified plan places exactly the merged TDG.
    let extra = |plan: &DeploymentPlan| -> f64 {
        let delta = units(plan) - merged;
        if delta.abs() < 1e-9 {
            0.0
        } else {
            delta
        }
    };

    let hermes = hermes_plan(&tdg, &net, ctx)?;
    let speed = deploy_measured(&IlpBaseline::speed(), &tdg, &net, ctx.budget)?;
    let speed_host = speed.host_dependent;
    let speed = speed.plan.ok_or("SPEED found no plan")?;

    let mut t = Table::new(["quantity", "stage-capacity units"]);
    t.row(["ground truth (10 standalone sketches)".into(), format!("{ground_truth:.2}")]);
    t.row(["merged TDG (shared 5-tuple hash deduplicated)".into(), format!("{merged:.2}")]);
    t.row(["deployed by Hermes".into(), format!("{:.2}", units(&hermes))]);
    t.row(["deployed by SPEED".into(), host(format!("{:.2}", units(&speed)), speed_host)]);
    t.row(["Hermes extra vs merged TDG".into(), format!("{:.2}", extra(&hermes))]);
    t.row(["SPEED extra vs merged TDG".into(), host(format!("{:.2}", extra(&speed)), speed_host)]);
    let mut doc = Doc::new("Exp#6 — switch resource consumption, ten sketches on the testbed");
    doc.para(budget_note(ctx));
    doc.table("resources", &t);
    doc.para(format!(
        "finding: Hermes deploys exactly the merged TDG's resources ({:.2} extra units); the \
         coordination inserts no switch logic.",
        extra(&hermes)
    ));
    doc.footnote(ctx);
    Ok(vec![doc.done("exp6.md")])
}

fn ablations(_: &Ctx) -> Result<Vec<Output>, String> {
    let programs = workload(30);
    let net = table3_wan(9);
    let eps = Epsilon::loose();
    let mut t = Table::new(["variant", "A_max (B)", "switches", "t_e2e (us)"]);
    let mut row = |variant: &str, tdg: &Tdg, algo: GreedyHeuristic| -> Result<(), String> {
        let plan = algo.deploy(tdg, &net, &eps).map_err(|e| format!("{variant}: {e}"))?;
        let plan = verified(variant, tdg, &net, plan)?;
        t.row([
            variant.to_owned(),
            plan.max_inter_switch_bytes(tdg).to_string(),
            plan.occupied_switch_count().to_string(),
            format!("{:.0}", plan.end_to_end_latency_us()),
        ]);
        Ok(())
    };
    // 1) Split strategies on the paper-literal TDG.
    let literal = ProgramAnalyzer::with_mode(AnalysisMode::PaperLiteral).analyze(&programs);
    for (label, strategy) in [
        ("split: min-metadata (paper)", SplitStrategy::MinMetadata),
        ("split: balanced", SplitStrategy::Balanced),
        ("split: random(7)", SplitStrategy::Random(7)),
        ("split: random(23)", SplitStrategy::Random(23)),
    ] {
        row(label, &literal, GreedyHeuristic::with_strategy(strategy))?;
    }
    // 2) Metadata accounting: only bytes the downstream MAT consumes.
    let tight = ProgramAnalyzer::with_mode(AnalysisMode::Intersection).analyze(&programs);
    row("accounting: intersection (tighter A(a,b))", &tight, GreedyHeuristic::new())?;

    let mut doc = Doc::new("Ablations — 30 programs on topology 10");
    doc.table("design-choice ablations", &t);
    Ok(vec![doc.done("ablations.md")])
}

fn wire_accounting(ctx: &Ctx) -> Result<Vec<Output>, String> {
    let tdg = analyze(&workload(10));
    let net = topology::linear(3, 10.0);
    let config = PlanFlowConfig { packets: 5_000, ..Default::default() };
    let mut t = Table::new([
        "algorithm",
        "pairwise A_max (B)",
        "max on-wire (B)",
        "FCT x",
        "goodput x",
        "switches",
    ]);
    for algo in standard_suite() {
        let run = deploy_measured(algo.as_ref(), &tdg, &net, ctx.budget)?;
        let Some(plan) = run.plan else {
            continue;
        };
        let artifacts = generate(&tdg, &net, &plan);
        let trace = emulator::run_distributed(&tdg, &plan, &artifacts, emulator::test_packet(0))
            .ok_or_else(|| format!("{}'s plan does not run", algo.name()))?;
        let sim = simulate_plan(&tdg, &net, &plan, &artifacts, &config)
            .ok_or_else(|| format!("{}'s plan cannot be simulated", algo.name()))?;
        let cells = [
            plan.max_inter_switch_bytes(&tdg).to_string(),
            trace.max_wire_bytes().to_string(),
            format!("{:.3}", sim.fct_ratio()),
            format!("{:.3}", sim.goodput_ratio()),
            sim.traversed.len().to_string(),
        ];
        t.row(
            std::iter::once(algo.name().to_owned())
                .chain(cells.into_iter().map(|c| host(c, run.host_dependent))),
        );
    }
    let mut doc = Doc::new("Wire accounting — 10 real programs on the 3-switch testbed");
    doc.para(budget_note(ctx));
    doc.table("pairwise objective vs. bytes on the wire", &t);
    doc.para(
        "note: the pairwise objective can differ from the wire load in both directions: \
         pass-through hops add bytes it does not see, while fields shared by several crossing \
         edges are double-counted by its per-edge sum.",
    );
    doc.footnote(ctx);
    Ok(vec![doc.done("wire_accounting.md")])
}

fn int_comparison(_: &Ctx) -> Result<Vec<Output>, String> {
    let config = WorkloadConfig {
        flows: 40,
        sizes: FlowSizes::Uniform { min: 100_000, max: 400_000 },
        ..Default::default()
    };
    // Per-hop INT block per Table I: switch id 4 + timestamps 12 + queue 6.
    const INT_PER_HOP: u32 = 22;
    // A generous constant coordination load (Hermes keeps it far smaller).
    const CONSTANT: u32 = 22;
    let mut t =
        Table::new(["hops", "overhead model", "mean FCT (us)", "p99 FCT (us)", "goodput (Gbps)"]);
    for hops in [3usize, 5, 7] {
        let mut last_fct = 0.0;
        for (name, model) in [
            ("no metadata", OverheadModel::Constant(0)),
            ("constant 22 B (coordination)", OverheadModel::Constant(CONSTANT)),
            (
                "INT: +22 B per hop",
                OverheadModel::PerHopAccumulating { base: 0, per_hop: INT_PER_HOP },
            ),
        ] {
            let flows = run_workload(hops, 1.0, 100.0, 0.5, &config, model)
                .map_err(|e| format!("{name} at {hops} hops: {e}"))?;
            let stats = aggregate(&flows);
            // Each model carries more bytes than the one before it.
            if stats.mean_fct_us < last_fct {
                return Err(format!("{name} is faster than a lighter model at {hops} hops"));
            }
            last_fct = stats.mean_fct_us;
            t.row([
                hops.to_string(),
                name.to_owned(),
                format!("{:.0}", stats.mean_fct_us),
                format!("{:.0}", stats.p99_fct_us),
                format!("{:.3}", stats.mean_goodput_gbps),
            ]);
        }
    }
    let mut doc = Doc::new("Constant coordination metadata vs. INT-style per-hop accumulation");
    doc.para("40 flows of 100-400 kB, 1024 B packets, 100 Gbps links, competing on one chain.");
    doc.table("flow completion and goodput", &t);
    doc.para(
        "takeaway: accumulating headers scale their cost with path length; a constant \
         piggyback (what Hermes minimizes) does not.",
    );
    Ok(vec![doc.done("int_comparison.md")])
}

/// `plan` with its highest-id occupied switch drained: the incremental
/// redeployer re-homes that switch's MATs onto the others, so every
/// make-before-break staging window fits. Returns the switch and the new
/// plan, verified.
fn drain(
    tdg: &Tdg,
    net: &Network,
    plan: &DeploymentPlan,
) -> Result<(SwitchId, DeploymentPlan), String> {
    let eps = Epsilon::loose();
    let drained = *plan.occupied_switches().last().ok_or("plan A occupies no switch")?;
    let options = RedeployOptions::excluding([drained]);
    let drained_plan = IncrementalDeployer::new()
        .redeploy_with(tdg, plan, tdg, net, &eps, &options)
        .map_err(|e| format!("cannot drain {drained}: {e}"))?
        .plan;
    if &drained_plan == plan {
        return Err(format!("draining {drained} changed nothing"));
    }
    Ok((drained, verified("the drain", tdg, net, drained_plan)?))
}

/// A fault-free controller over `net`.
fn clean_runtime(net: &Network) -> DeploymentRuntime {
    DeploymentRuntime::new(
        net.clone(),
        Epsilon::loose(),
        FaultInjector::disabled(),
        RetryPolicy::default(),
    )
}

/// A fault-free controller over `net` with `plan` committed.
fn installed(tdg: &Tdg, net: &Network, plan: &DeploymentPlan) -> Result<DeploymentRuntime, String> {
    let mut rt = clean_runtime(net);
    match rt.rollout(tdg, plan.clone()) {
        outcome if outcome.is_committed() => Ok(rt),
        outcome => Err(format!("the clean install of plan A ended {outcome}")),
    }
}

/// Mean of `values`, 0 when there are none.
fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

fn chaos_recovery(ctx: &Ctx) -> Result<Vec<Output>, String> {
    const SEEDS: u64 = 60;
    let tdg = analyze(&library::real_programs());
    let mut t = Table::new([
        "topology",
        "runs",
        "clean",
        "healed",
        "rolled back",
        "faults",
        "retries",
        "mean rec (us)",
        "max rec (us)",
        "A_max pre",
        "A_max post",
    ]);
    for (name, net) in
        [("linear:4", topology::linear(4, 10.0)), ("fattree:4", topology::fat_tree(4, 10.0))]
    {
        let plan = hermes_plan(&tdg, &net, ctx).map_err(|e| format!("{name}: {e}"))?;
        let (mut clean, mut healed, mut rolled_back, mut faults, mut retries) = (0, 0, 0, 0, 0);
        let (mut recoveries, mut before, mut after) = (Vec::new(), Vec::new(), Vec::new());
        for seed in 0..SEEDS {
            let injector = FaultInjector::new(seed, FaultProfile::chaos());
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                injector,
                RetryPolicy::default(),
            );
            let outcome = rt.rollout(&tdg, plan.clone());
            let log = rt.log();
            faults += log.count(|e| matches!(e, Event::FaultInjected { .. }));
            retries += log.count(|e| matches!(e, Event::RetryScheduled { .. }));
            match outcome {
                RolloutOutcome::Committed { healed: false, .. } => clean += 1,
                RolloutOutcome::Committed { healed: true, .. } => {
                    healed += 1;
                    for e in &log.events {
                        if let Event::RecoveryCompleted {
                            recovery_us,
                            a_max_before,
                            a_max_after,
                            ..
                        } = e
                        {
                            recoveries.push(*recovery_us);
                            before.push(*a_max_before);
                            after.push(*a_max_after);
                        }
                    }
                }
                RolloutOutcome::RolledBack { .. } => rolled_back += 1,
                RolloutOutcome::ControllerCrashed { .. } => {
                    return Err(format!(
                        "{name}, seed {seed}: the controller crashed, which the chaos profile \
                         never injects"
                    ))
                }
            }
        }
        t.row([
            name.to_owned(),
            SEEDS.to_string(),
            clean.to_string(),
            healed.to_string(),
            rolled_back.to_string(),
            faults.to_string(),
            retries.to_string(),
            format!("{:.0}", mean(&recoveries)),
            recoveries.iter().max().unwrap_or(&0).to_string(),
            format!("{:.1}", mean(&before)),
            format!("{:.1}", mean(&after)),
        ]);
    }
    let mut doc = Doc::new("Chaos recovery — healing a rollout under injected faults");
    doc.para(format!(
        "The ten real programs, placed by Hermes and rolled out under the chaos fault profile on \
         {SEEDS} seeded fault schedules per topology. Healing re-homes lost MATs into residual \
         capacity, so the healed layout may pay more per-packet overhead (A_max, mean over \
         healed runs) than the original plan. Times are on the runtime's virtual clock."
    ));
    doc.table("outcomes per topology", &t);
    Ok(vec![doc.done("chaos_recovery.md")])
}

fn lossy_commit(ctx: &Ctx) -> Result<Vec<Output>, String> {
    const SEEDS: u64 = 40;
    let tdg = analyze(&library::real_programs());
    let net = topology::fat_tree(4, 10.0);
    let plan = hermes_plan(&tdg, &net, ctx)?;
    let mut t = Table::new([
        "drop",
        "runs",
        "clean",
        "healed",
        "rolled back",
        "mean msgs",
        "mean retries",
        "mean commit (us)",
    ]);
    for drop_prob in [0.0, 0.05, 0.10, 0.20, 0.30] {
        let profile = ChannelProfile { drop_prob, ..ChannelProfile::lossy() };
        let (mut clean, mut healed, mut rolled_back) = (0, 0, 0);
        let (mut messages, mut retries, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
        for seed in 0..SEEDS {
            // Faults off: the channel is the only adversary.
            let injector = FaultInjector::new(seed, FaultProfile::none());
            let mut rt = DeploymentRuntime::new(
                net.clone(),
                Epsilon::loose(),
                injector,
                RetryPolicy::default(),
            )
            .with_channel_profile(profile);
            let outcome = rt.rollout(&tdg, plan.clone());
            messages.push(rt.messages_sent());
            retries.push(rt.log().count(|e| matches!(e, Event::RetryScheduled { .. })) as u64);
            match outcome {
                RolloutOutcome::Committed { healed: was_healed, .. } => {
                    if was_healed {
                        healed += 1;
                    } else {
                        clean += 1;
                    }
                    latencies.push(rt.now_us());
                }
                RolloutOutcome::RolledBack { .. } => rolled_back += 1,
                RolloutOutcome::ControllerCrashed { .. } => {
                    return Err(format!(
                        "drop {drop_prob}, seed {seed}: the controller crashed, which a \
                         fault-free profile never injects"
                    ))
                }
            }
        }
        t.row([
            format!("{drop_prob:.2}"),
            SEEDS.to_string(),
            clean.to_string(),
            healed.to_string(),
            rolled_back.to_string(),
            format!("{:.1}", mean(&messages)),
            format!("{:.1}", mean(&retries)),
            format!("{:.0}", mean(&latencies)),
        ]);
    }
    let mut doc = Doc::new("Lossy commit — protocol cost vs. message loss");
    doc.para(format!(
        "The ten real programs, placed by Hermes on fattree:4 and rolled out through the \
         epoch-fenced agent protocol, {SEEDS} seeds per drop rate; duplication, reordering and \
         delay stay at the lossy channel's defaults and no faults are injected. Retries, \
         idempotent replays and leases buy reliability from the channel at a message cost. \
         Commit latency is on the virtual clock, over the runs that committed."
    ));
    doc.table("outcomes and cost per drop rate", &t);
    Ok(vec![doc.done("lossy_commit.md")])
}

/// Reshapes every switch to `stages` pipeline stages of `cap` capacity so
/// packing binds (stock capacities would fit each chain on one switch and
/// make every transient curve flat).
fn shape(mut net: Network, stages: usize, cap: f64) -> Network {
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    for id in ids {
        let sw = net.switch_mut(id);
        sw.stages = stages;
        sw.stage_capacity = cap;
    }
    net
}

fn migration(ctx: &Ctx) -> Result<Vec<Output>, String> {
    // Chains whose MATs only read and write metadata: the shape the
    // mixed-epoch gate admits under any commit order, so both styles run.
    let scenarios = [
        (
            "linear-5",
            shape(topology::linear(5, 10.0), 5, 0.45),
            chain_tdg(&[6, 2, 9, 3, 5, 4, 7, 2, 8], 0.4),
        ),
        ("star-4", shape(topology::star(4, 10.0), 5, 0.45), chain_tdg(&[4, 7, 3, 8, 2, 6, 5], 0.4)),
        (
            "fattree-4",
            shape(topology::fat_tree(4, 10.0), 4, 0.45),
            chain_tdg(&[9, 2, 7, 4, 8, 3, 6, 5, 2, 7, 4], 0.4),
        ),
    ];
    let mut plans = Table::new([
        "scenario",
        "switches",
        "MATs",
        "drained",
        "A_max A -> B (B)",
        "planner",
        "transient curve (B)",
    ]);
    let mut cost = Table::new([
        "scenario",
        "steps",
        "staged peak B",
        "all-at-once peak B",
        "staged us",
        "all-at-once us",
        "staged msgs",
        "all-at-once msgs",
    ]);
    let mut outcomes = Table::new(["scenario", "staged", "all at once"]);
    for (name, net, tdg) in &scenarios {
        let fail = |e: String| format!("{name}: {e}");
        let plan_a = hermes_plan(tdg, net, ctx).map_err(fail)?;
        let (drained, plan_b) = drain(tdg, net, &plan_a).map_err(fail)?;
        let problem = MigrationProblem { tdg, net, from: &plan_a, to: &plan_b };
        let schedule = MigrationScheduler::with_order(MigrationOrder::Auto)
            .plan(&problem, &SearchContext::with_time_limit(ctx.budget))
            .map_err(|e| fail(format!("cannot schedule: {e}")))?;
        if let Some(peak) = schedule.all_at_once_peak.filter(|&p| schedule.peak_transient_amax > p)
        {
            return Err(fail(format!(
                "staged peaks at {} B, above all-at-once's {peak} B",
                schedule.peak_transient_amax
            )));
        }

        // The staged schedule, then a plain rollout of B, each from plan A.
        let mut staged = installed(tdg, net, &plan_a).map_err(fail)?;
        let (t0, m0) = (staged.now_us(), staged.messages_sent());
        let staged_outcome = staged.migrate_with_schedule(tdg, plan_b.clone(), &schedule);
        if !staged_outcome.is_migrated() || staged.active_plan() != Some(&plan_b) {
            return Err(fail(format!("staged: {staged_outcome}, not on plan B")));
        }
        let mut at_once = installed(tdg, net, &plan_a).map_err(fail)?;
        let (t1, m1) = (at_once.now_us(), at_once.messages_sent());
        let at_once_outcome = at_once.rollout(tdg, plan_b.clone());
        if !at_once_outcome.is_committed() || at_once.active_plan() != Some(&plan_b) {
            return Err(fail(format!("all at once: {at_once_outcome}, not on plan B")));
        }

        plans.row([
            name.to_string(),
            net.switch_count().to_string(),
            tdg.node_count().to_string(),
            drained.to_string(),
            format!("{} -> {}", schedule.from_amax, schedule.to_amax),
            schedule.planner.clone(),
            format!("{:?}", schedule.transient_curve()),
        ]);
        cost.row([
            name.to_string(),
            schedule.steps.len().to_string(),
            schedule.peak_transient_amax.to_string(),
            schedule.all_at_once_peak.map_or("-".to_owned(), |p| p.to_string()),
            (staged.now_us() - t0).to_string(),
            (at_once.now_us() - t1).to_string(),
            (staged.messages_sent() - m0).to_string(),
            (at_once.messages_sent() - m1).to_string(),
        ]);
        outcomes.row([name.to_string(), staged_outcome.to_string(), at_once_outcome.to_string()]);
    }
    let mut doc = Doc::new("Migration — staged vs. all-at-once reconfiguration");
    doc.para(
        "Each scenario places a metadata chain with Hermes (plan A) on a capacity-bound \
         topology and drains plan A's last occupied switch (plan B). The staged run commits \
         switch by switch in the order that minimizes the peak transient A_max, through the \
         mixed-epoch gate; the all-at-once run is a plain rollout of B, whose commit window \
         walks the switches in ascending id order. The transient curve is A_max before the \
         first step and after every staged step. Times are on the virtual clock, over a clean \
         channel.",
    );
    doc.table("plans and the staged schedule", &plans);
    doc.table("reconfiguration cost", &cost);
    doc.table("outcomes", &outcomes);
    Ok(vec![doc.done("migration.md")])
}

/// Recovery from a controller crash armed before and after every journal
/// write of a deploy of `a` (`to` is `None`) or of a migration from `a` to
/// `to`: one row per write and timing, or an error if a crash does not fire
/// or recovery lands on anything but exactly `a`, exactly `to` or nothing.
fn crash_points(
    tdg: &Tdg,
    net: &Network,
    a: &DeploymentPlan,
    to: Option<&DeploymentPlan>,
) -> Result<Table, String> {
    let run = |arm: Option<(u64, CrashTiming)>| -> Result<(DeploymentRuntime, bool), String> {
        let mut rt = match to {
            Some(_) => installed(tdg, net, a)?,
            None => clean_runtime(net),
        };
        // A fresh injector counts the operation's journal writes from 0.
        rt.set_injector(FaultInjector::disabled());
        if let Some((nth, timing)) = arm {
            rt.injector_mut().arm_controller_crash_at(nth, timing);
        }
        let crashed = match to {
            None => matches!(rt.rollout(tdg, a.clone()), RolloutOutcome::ControllerCrashed { .. }),
            Some(b) => matches!(
                rt.migrate(tdg, b.clone(), &MigrationConfig::default()),
                MigrationOutcome::ControllerCrashed { .. }
            ),
        };
        Ok((rt, crashed))
    };
    let writes = run(None)?.0.injector().journal_writes();
    let mut t = Table::new([
        "boundary",
        "timing",
        "action",
        "msgs",
        "reinstalled",
        "forced",
        "unreachable",
        "recovery us",
    ]);
    let arms = (0..writes)
        .flat_map(|nth| [CrashTiming::BeforeWrite, CrashTiming::AfterWrite].map(|t| (nth, t)));
    for (nth, timing) in arms {
        let at = format!("boundary {nth} {timing:?}");
        let (mut rt, crashed) = run(Some((nth, timing)))?;
        if !crashed {
            return Err(format!("{at}: the armed crash did not fire"));
        }
        let before = rt.messages_sent();
        let report = rt.recover(tdg).map_err(|e| format!("{at}: recover: {e}"))?;
        let active = rt.active_plan();
        if !(active.is_none() || active == Some(a) || active == to) {
            return Err(format!("{at}: recovered to a mixed plan"));
        }
        t.row([
            nth.to_string(),
            format!("{timing:?}"),
            report.action.to_string(),
            (rt.messages_sent() - before).to_string(),
            report.reinstalled.to_string(),
            report.forced.to_string(),
            report.unreachable.to_string(),
            report.recovery_us.to_string(),
        ]);
    }
    Ok(t)
}

fn recovery(ctx: &Ctx) -> Result<Vec<Output>, String> {
    let tdg = analyze(&workload(2));
    let net = topology::linear(3, 10.0);
    let plan_a = hermes_plan(&tdg, &net, ctx)?;
    let (_, plan_b) = drain(&tdg, &net, &plan_a)?;
    let mut doc = Doc::new("Recovery — a controller crash at every journal write");
    doc.para(
        "Two real programs on linear:3: a deploy of Hermes's plan A, and a migration to plan B \
         (plan A with its last occupied switch drained). For each journal write of the \
         operation, a controller crash is armed before it and, in a second run, after it, and \
         the restarted controller recovers; it must land on exactly plan A, exactly plan B or \
         nothing. Messages are those recovery spends probing and reinstalling; times are on the \
         virtual clock.",
    );
    doc.table("crash points during deploy", &crash_points(&tdg, &net, &plan_a, None)?);
    doc.table("crash points during migration", &crash_points(&tdg, &net, &plan_a, Some(&plan_b))?);
    Ok(vec![doc.done("recovery.md")])
}

fn targets(ctx: &Ctx) -> Result<Vec<Output>, String> {
    let workloads: Vec<(usize, Tdg)> = [4, 7, 10].map(|n| (n, analyze(&workload(n)))).into();
    let solvers: [Box<dyn DeploymentAlgorithm>; 3] = [
        Box::new(GreedyHeuristic::new()),
        Box::new(OptimalSolver::new()),
        Box::new(MilpHermes::default()),
    ];
    let mut sizes = Table::new(["programs", "TDG nodes", "stage units"]);
    for (programs, tdg) in &workloads {
        sizes.row([
            programs.to_string(),
            tdg.node_count().to_string(),
            format!("{:.2}", tdg.total_resource()),
        ]);
    }
    let mut summary = Table::new(["target", "capacity units", "feasible cells"]);
    let mut frontiers = Vec::new();
    for spec in ["tofino", "smartnic", "soft", "mix:tofino+smartnic+soft"] {
        let mut net = topology::linear(3, 10.0);
        parse_target(spec).map_err(|e| format!("{spec}: {e}"))?.apply(&mut net);
        let capacity: f64 = net.switch_ids().map(|s| net.switch(s).total_capacity()).sum();
        let mut t = Table::new(["programs", "solver", "A_max (B)", "ms"]);
        let (mut feasible, mut host_dependent) = (0, false);
        for (programs, tdg) in &workloads {
            for algo in &solvers {
                let run = deploy_measured(algo.as_ref(), tdg, &net, ctx.budget)
                    .map_err(|e| format!("{spec}: {e}"))?;
                feasible += usize::from(run.plan.is_some());
                host_dependent |= run.host_dependent;
                let a_max =
                    run.plan.map_or("-".into(), |p| p.max_inter_switch_bytes(tdg).to_string());
                t.row([
                    programs.to_string(),
                    algo.name().to_owned(),
                    host(a_max, run.host_dependent),
                    host(fmt_ms(run.elapsed.as_secs_f64() * 1000.0, false), true),
                ]);
            }
        }
        let cells = workloads.len() * solvers.len();
        summary.row([
            spec.to_owned(),
            format!("{capacity:.1}"),
            host(
                format!("{feasible} of {cells} ({:.0}%)", feasible as f64 * 100.0 / cells as f64),
                host_dependent,
            ),
        ]);
        frontiers.push((spec, t));
    }
    let mut doc = Doc::new("Targets — A_max and feasibility per target mix, linear:3 testbed");
    doc.para(format!(
        "Each built-in target spec retargets the three switches of the testbed; Hermes, the \
         exact search and the MILP then place 4, 7 and 10 real programs on it. {} A `-` is no \
         plan: the solver proved the instance infeasible, or (marked *) ran out of budget.",
        budget_note(ctx)
    ));
    doc.table("workloads", &sizes);
    doc.table("targets", &summary);
    for (spec, t) in &frontiers {
        doc.table(&format!("target {spec}"), t);
    }
    doc.footnote(ctx);
    Ok(vec![doc.done("targets.md")])
}

/// The artifact called `name`.
pub fn artifact(name: &str) -> Result<&'static Artifact, String> {
    ARTIFACTS.iter().find(|a| a.name == name).ok_or(format!("no artifact {name}"))
}
