//! The paper's evaluation, regenerated. Performance is measured elsewhere —
//! by the deploy-request benchmark in `bench/` — and equivalence and
//! determinism are asserted by the cargo test suites; this crate produces
//! the paper's tables and figures, and five experiments that extend them
//! (healing under faults, commit over a lossy channel, staged migration,
//! crash recovery, heterogeneous targets).
//!
//! One binary, `reproduce`, writes every artifact of [`eval::ARTIFACTS`]
//! under `results/` (`cargo run --release -p hermes-bench --bin reproduce
//! -- --only exp1`); `tests/reproduce.rs` recomputes each one and checks
//! every cell that does not depend on the host against the committed file.
//! A failed check is an `Err` naming it, never a panic.
//!
//! This module hosts the shared machinery: the standard workload (10 real +
//! N synthetic programs), the measurement loop over the algorithm suite,
//! time capping for solver-backed frameworks (mirroring the paper's 2-hour
//! bar cap), and the [`Sweep`]s Figures 5–9 are panels of.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod report;

use hermes_baselines::{standard_suite, MAX_BINARIES, MAX_RANK_CELLS};
use hermes_core::{
    verify, DeploymentAlgorithm, DeploymentPlan, Epsilon, ProgramAnalyzer, SearchContext,
};
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes_dataplane::{library, Program};
use hermes_net::Network;
use hermes_sim::testbed::{normalized_impact, TestbedConfig};
use hermes_tdg::Tdg;
use report::{fmt_ms, host, Table};
use std::time::{Duration, Instant};

/// Reported execution time (ms) for solver runs that exceed the paper's
/// two-hour cap; Fig. 7 sets such bars to 10⁷ ms.
pub const CAPPED_TIME_MS: f64 = 1e7;

/// Budget of every ILP / exhaustive solve in the committed results (the
/// stand-in for the paper's two-hour Gurobi cap).
pub const DEFAULT_BUDGET: Duration = Duration::from_secs(3);

/// How one run of the evaluation measures.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Budget of every ILP / exhaustive solve.
    pub budget: Duration,
    /// The host, stamped under every host-dependent cell.
    pub provenance: String,
}

impl Ctx {
    /// The committed results' budget: what a check recomputes.
    pub fn check() -> Ctx {
        Ctx { budget: DEFAULT_BUDGET, provenance: "a check run".into() }
    }
}

/// The workload of the paper's evaluation: the ten real programs plus
/// `total - 10` synthetic ones (seeded, so every run sees the same set).
/// For `total <= 10`, a prefix of the real programs.
pub fn workload(total: usize) -> Vec<Program> {
    let mut programs = library::real_programs();
    if total <= programs.len() {
        programs.truncate(total);
        return programs;
    }
    let mut generator = SyntheticGenerator::new(42, SyntheticConfig::default());
    programs.extend(generator.programs(total - programs.len()));
    programs
}

/// Builds the merged TDG for a workload (Algorithm 1 front end).
pub fn analyze(programs: &[Program]) -> Tdg {
    ProgramAnalyzer::new().analyze(programs)
}

/// One algorithm's measurements on one instance.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm display name.
    pub algorithm: String,
    /// `A_max` of its plan in bytes (`None` when infeasible).
    pub overhead_bytes: Option<u64>,
    /// Occupied programmable switches.
    pub occupied_switches: Option<usize>,
    /// Wall-clock deployment time in milliseconds (as measured).
    pub measured_ms: f64,
    /// Time as reported in the figures: `measured_ms`, or
    /// [`CAPPED_TIME_MS`] when the solver exceeded the practical cap.
    pub reported_ms: f64,
    /// `true` when `reported_ms` was capped.
    pub capped: bool,
    /// `false` when an exhaustive solver ran out of its budget, so its plan
    /// is whatever incumbent this host reached in time.
    pub deterministic: bool,
    /// Normalized FCT (≥ 1) of a 1024-byte-packet flow carrying this
    /// plan's overhead through the testbed model.
    pub fct_ratio: Option<f64>,
    /// Normalized goodput (≤ 1), same setting.
    pub goodput_ratio: Option<f64>,
}

/// `plan`, once checked against the paper's constraints under the loose
/// ε-bounds; otherwise an error naming `algorithm` and the violation.
pub fn verified(
    algorithm: &str,
    tdg: &Tdg,
    net: &Network,
    plan: DeploymentPlan,
) -> Result<DeploymentPlan, String> {
    match verify(tdg, net, &plan, &Epsilon::loose()).pop() {
        Some(violation) => Err(format!("{algorithm}'s plan violates {violation}")),
        None => Ok(plan),
    }
}

/// One solver run: its verified plan (`None` when it found none) and how
/// long it took.
#[derive(Debug, Clone)]
pub struct Deployed {
    /// The plan, checked against the paper's constraints.
    pub plan: Option<DeploymentPlan>,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// `true` when an exhaustive solver used its whole budget, so its plan
    /// is whatever incumbent this host reached in time.
    pub host_dependent: bool,
}

/// Runs `algo` on `(tdg, net)` under the paper's loose ε-bounds and a
/// `budget` deadline, timing the solve and verifying its plan
/// ([`verified`]).
pub fn deploy_measured(
    algo: &dyn DeploymentAlgorithm,
    tdg: &Tdg,
    net: &Network,
    budget: Duration,
) -> Result<Deployed, String> {
    let start = Instant::now();
    let ctx = SearchContext::with_time_limit(budget);
    let plan = algo.solve(tdg, net, &Epsilon::loose(), &ctx).ok().map(|o| o.plan);
    let elapsed = start.elapsed();
    Ok(Deployed {
        plan: plan.map(|p| verified(algo.name(), tdg, net, p)).transpose()?,
        elapsed,
        host_dependent: algo.is_exhaustive() && elapsed >= budget,
    })
}

/// Runs the standard suite (`budget` per exhaustive solve) on `(tdg, net)`
/// and gathers the four panel metrics: overhead, time, and the FCT/goodput
/// of a 1024-byte-packet flow (paper Exp#4) carrying each plan's overhead
/// through the testbed model.
///
/// Every plan is verified ([`deploy_measured`]), and an Optimal that
/// exhausted its search must be no worse than any other framework; a
/// violation is an error naming it.
pub fn measure(tdg: &Tdg, net: &Network, budget: Duration) -> Result<Vec<Measurement>, String> {
    let sim = TestbedConfig { packets: 5_000, ..Default::default() };
    let q = net.programmable_switches().len();
    let binaries = tdg.node_count() * q;
    let rank_cells = tdg.edge_count() * q * q;
    let mut rows = Vec::new();
    for algo in standard_suite() {
        let run = deploy_measured(algo.as_ref(), tdg, net, budget)?;
        let measured_ms = run.elapsed.as_secs_f64() * 1000.0;
        // Past the ILP frameworks' size guards an attempt is hopeless, and
        // its time is reported as capped.
        let capped =
            algo.is_exhaustive() && (binaries > MAX_BINARIES || rank_cells > MAX_RANK_CELLS);
        let overhead = run.plan.as_ref().map(|p| p.max_inter_switch_bytes(tdg));
        let perf = overhead.map(|bytes| normalized_impact(&sim, 1024, bytes as u32));
        rows.push(Measurement {
            algorithm: algo.name().to_owned(),
            overhead_bytes: overhead,
            occupied_switches: run.plan.as_ref().map(|p| p.occupied_switch_count()),
            measured_ms,
            reported_ms: if capped { CAPPED_TIME_MS } else { measured_ms },
            capped,
            deterministic: !run.host_dependent,
            fct_ratio: perf.map(|p| p.fct_ratio),
            goodput_ratio: perf.map(|p| p.goodput_ratio),
        });
    }
    let best = rows.iter().filter_map(|m| m.overhead_bytes).min();
    if let Some(optimal) = rows.iter().find(|m| m.algorithm == "Optimal" && m.deterministic) {
        if optimal.overhead_bytes != best {
            return Err(format!(
                "a finished Optimal found {:?}, another {best:?}",
                optimal.overhead_bytes
            ));
        }
    }
    Ok(rows)
}

/// What varies along a sweep: the Table III topology (Exp#2–4) or the
/// number of concurrently deployed programs (Exp#1, Exp#5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Point `at` is topology `at` of Table III (1-based).
    Topology,
    /// Point `at` deploys `at` programs.
    Programs,
}

/// One column of a figure: every framework's measurements on "topology
/// `at`" or on "`at` programs", and where they were taken.
#[derive(Debug, Clone)]
pub struct Point {
    /// Position on the sweep's [`Axis`].
    pub at: usize,
    /// One row per framework, in suite order.
    pub results: Vec<Measurement>,
}

/// One of the four quantities the paper's figures plot per framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// Per-packet byte overhead `A_max`, bytes.
    Overhead,
    /// Execution time as the figures report it (capped), ms.
    Time,
    /// Normalized flow completion time.
    Fct,
    /// Normalized goodput.
    Goodput,
}

impl Panel {
    /// The cell of `m`, marked host-dependent when it is a measured time or
    /// the incumbent of a solver that ran out of budget.
    fn cell(self, m: &Measurement) -> String {
        let value = match self {
            Panel::Overhead => m.overhead_bytes.map_or("-".into(), |b| b.to_string()),
            // A capped bar follows from the instance size alone.
            Panel::Time => return host(fmt_ms(m.reported_ms, m.capped), !m.capped),
            Panel::Fct => m.fct_ratio.map_or("-".into(), |f| format!("{f:.3}")),
            Panel::Goodput => m.goodput_ratio.map_or("-".into(), |g| format!("{g:.3}")),
        };
        host(value, !m.deterministic)
    }
}

/// The standard suite measured at every point of one axis. Figures 6, 7
/// and 8 are three panels of one sweep over the Table III WANs; Figures 5
/// and 9 are the four panels of a sweep over program counts on two
/// networks.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// What `at` means.
    pub axis: Axis,
    /// The measured columns, in sweep order.
    pub points: Vec<Point>,
}

impl Sweep {
    /// Measures `measure(at)` at every `at` of `ats` along `axis`.
    pub fn run(
        axis: Axis,
        ats: &[usize],
        measure: impl Fn(usize) -> Result<Vec<Measurement>, String>,
    ) -> Result<Sweep, String> {
        let points = ats
            .iter()
            .map(|&at| Ok(Point { at, results: measure(at)? }))
            .collect::<Result<_, String>>()?;
        Ok(Sweep { axis, points })
    }

    /// Framework names, in row order.
    pub fn algorithms(&self) -> impl Iterator<Item = &str> {
        self.points.first().into_iter().flat_map(|p| p.results.iter().map(|m| m.algorithm.as_str()))
    }

    /// `algorithm`'s measurement at every point, in sweep order.
    pub fn series<'a>(&'a self, algorithm: &'a str) -> impl Iterator<Item = &'a Measurement> {
        self.points.iter().filter_map(move |p| p.results.iter().find(|m| m.algorithm == algorithm))
    }

    /// Whether every measurement of `algorithm` is host-independent.
    pub fn deterministic(&self, algorithm: &str) -> bool {
        self.series(algorithm).all(|m| m.deterministic)
    }

    /// Mean of `metric` over the points where `algorithm` has one (0 when
    /// it has none) — the figures' headline numbers.
    pub fn mean(&self, algorithm: &str, metric: impl Fn(&Measurement) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self.series(algorithm).filter_map(metric).collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }

    /// One framework per row, one point per column.
    pub fn panel(&self, panel: Panel) -> Table {
        let column = |p: &Point| match self.axis {
            Axis::Topology => format!("T{}", p.at),
            Axis::Programs => format!("{} progs", p.at),
        };
        let mut table = Table::new(
            std::iter::once("algorithm".to_owned()).chain(self.points.iter().map(column)),
        );
        for (row, name) in self.algorithms().enumerate() {
            table.row(
                std::iter::once(name.to_owned())
                    .chain(self.points.iter().map(|p| panel.cell(&p.results[row]))),
            );
        }
        table
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_net::topology;

    #[test]
    fn workload_composition() {
        assert_eq!(workload(4).len(), 4);
        assert_eq!(workload(10).len(), 10);
        let w = workload(15);
        assert_eq!(w.len(), 15);
        assert_eq!(w[9].name(), "elastic"); // hh_detect() is the elastic sketch
        assert!(w[10].name().starts_with("syn"));
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(13), workload(13));
    }

    #[test]
    fn sweep_produces_all_metrics_in_every_panel() {
        let net = topology::linear(3, 10.0);
        let sweep = Sweep::run(Axis::Programs, &[2, 3], |n| {
            measure(&analyze(&workload(n)), &net, Duration::from_millis(500))
        })
        .unwrap();
        assert_eq!(sweep.axis, Axis::Programs);
        assert_eq!(sweep.points.iter().map(|p| p.at).collect::<Vec<_>>(), [2, 3]);
        let rows = &sweep.points[1].results;
        assert_eq!(rows.len(), standard_suite().len());
        for r in rows {
            assert!(r.overhead_bytes.is_some(), "{} infeasible", r.algorithm);
            assert!(r.fct_ratio.unwrap() >= 1.0 - 1e-9);
            assert!(r.goodput_ratio.unwrap() <= 1.0 + 1e-9);
            assert!(!r.capped, "tiny instance should not cap");
            assert!(r.deterministic, "{} ran out of budget on a tiny instance", r.algorithm);
        }
        // Hermes never worse than the overhead-oblivious baselines.
        let get = |name: &str| sweep.series(name).last().unwrap().overhead_bytes.unwrap();
        assert!(get("Hermes") <= get("FFL"));
        assert!(get("Hermes") <= get("MS"));
        assert!(get("Optimal") <= get("Hermes"));
        assert_eq!(sweep.mean("Hermes", |m| m.fct_ratio.map(|_| 1.0)), 1.0);
        assert_eq!(sweep.mean("no such framework", |m| m.fct_ratio), 0.0);

        // Header, rule, one line per framework; one column per point.
        for panel in [Panel::Overhead, Panel::Time, Panel::Fct, Panel::Goodput] {
            let text = sweep.panel(panel).markdown();
            assert_eq!(text.lines().count(), 2 + rows.len(), "{text}");
            assert!(text.lines().next().unwrap().ends_with("| 2 progs | 3 progs |"), "{text}");
            assert!(text.contains("\n| Hermes "), "{text}");
        }
    }
}
