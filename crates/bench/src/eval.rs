//! Every artifact of the paper's evaluation, measured and rendered as one
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
use hermes_baselines::{standard_suite, IlpBaseline, IlpConfig};
use hermes_core::{
    DeploymentAlgorithm, DeploymentPlan, Epsilon, GreedyHeuristic, ProgramAnalyzer, SplitStrategy,
};
use hermes_dataplane::library::sketches;
use hermes_net::topology::{self, table3_wan, TABLE3};
use hermes_net::Network;
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

/// The evaluation, in the paper's order.
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

    let hermes = deploy_measured(&GreedyHeuristic::new(), &tdg, &net, ctx.budget)?
        .plan
        .ok_or("Hermes found no plan")?;
    let speed = IlpBaseline::speed(IlpConfig { time_limit: ctx.budget, ..Default::default() });
    let speed = deploy_measured(&speed, &tdg, &net, ctx.budget)?;
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
    for algo in standard_suite(ctx.budget) {
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
            let stats = aggregate(&run_workload(hops, 1.0, 100.0, 0.5, &config, model));
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

/// The artifact called `name`.
pub fn artifact(name: &str) -> Result<&'static Artifact, String> {
    ARTIFACTS.iter().find(|a| a.name == name).ok_or(format!("no artifact {name}"))
}
