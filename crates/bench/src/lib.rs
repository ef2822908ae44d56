//! Experiment harness regenerating every table and figure of the paper.
//! Performance is measured elsewhere — by the deploy-request benchmark in
//! `bench/` — and equivalence and determinism are asserted by the cargo
//! test suites; this crate only prints the paper's artifacts and the
//! extension experiments.
//!
//! One binary per artifact (run with `cargo run -p hermes-bench --bin …`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2` | Figure 2 — overhead vs. normalized FCT/goodput |
//! | `table3` | Table III — the ten WAN topologies |
//! | `exp1` | Figure 5 — testbed: overhead, time, FCT, goodput vs. #programs |
//! | `exp2_4` | Figures 6, 7, 8 — overhead, execution time, FCT/goodput at scale |
//! | `exp5` | Figure 9 — scalability on topology 10 |
//! | `exp6` | switch resource consumption (sketches) |
//!
//! This library hosts the shared machinery: the standard workload
//! (10 real + N synthetic programs), the measurement loop over the
//! algorithm suite, time capping for solver-backed frameworks (mirroring
//! the paper's 2-hour bar cap), the two [`Sweep`]s Figures 5–9 are panels
//! of, and table/JSON reporting.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

use hermes_baselines::standard_suite;
use hermes_core::{Epsilon, ProgramAnalyzer};
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes_dataplane::{library, Program};
use hermes_net::topology::{table3_wan, TABLE3};
use hermes_net::Network;
use hermes_sim::testbed::{normalized_impact, TestbedConfig};
use hermes_tdg::Tdg;
use report::{fmt_ms, Table};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Reported execution time (ms) for solver runs that exceed the paper's
/// two-hour cap; Fig. 7 sets such bars to 10⁷ ms.
pub const CAPPED_TIME_MS: f64 = 1e7;

/// Above this many placement binaries (`nodes × programmable switches`)
/// an ILP attempt is hopeless and its time is reported as capped.
pub const ILP_SIZE_GUARD: usize = 4_000;

/// Companion guard on rank-linearization cells (`edges × switches²`);
/// mirrors [`hermes_baselines::IlpConfig::max_rank_cells`].
pub const ILP_RANK_GUARD: usize = 2_500;

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
#[derive(Debug, Clone, Serialize)]
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
    /// Normalized FCT (≥ 1) of a 1024-byte-packet flow carrying this
    /// plan's overhead through the testbed simulator.
    pub fct_ratio: Option<f64>,
    /// Normalized goodput (≤ 1), same setting.
    pub goodput_ratio: Option<f64>,
}

/// Runs the standard suite (`budget` per exhaustive solve) on `(tdg, net)`
/// under the paper's loose ε-bounds and gathers the four panel metrics:
/// overhead, time, and the FCT/goodput of a 1024-byte-packet flow (paper
/// Exp#4) carrying each plan's overhead through the testbed simulator.
fn measure(tdg: &Tdg, net: &Network, budget: Duration) -> Vec<Measurement> {
    let sim = TestbedConfig { packets: 5_000, ..Default::default() };
    let eps = Epsilon::loose();
    let q = net.programmable_switches().len();
    let binaries = tdg.node_count() * q;
    let rank_cells = tdg.edge_count() * q * q;
    standard_suite(budget)
        .iter()
        .map(|algo| {
            let start = Instant::now();
            let plan = algo.deploy(tdg, net, &eps).ok();
            let measured_ms = start.elapsed().as_secs_f64() * 1000.0;
            let capped =
                algo.is_exhaustive() && (binaries > ILP_SIZE_GUARD || rank_cells > ILP_RANK_GUARD);
            let overhead = plan.as_ref().map(|p| p.max_inter_switch_bytes(tdg));
            let perf = overhead.map(|bytes| normalized_impact(&sim, 1024, bytes as u32));
            Measurement {
                algorithm: algo.name().to_owned(),
                overhead_bytes: overhead,
                occupied_switches: plan.as_ref().map(|p| p.occupied_switch_count()),
                measured_ms,
                reported_ms: if capped { CAPPED_TIME_MS } else { measured_ms },
                capped,
                fct_ratio: perf.map(|p| p.fct_ratio),
                goodput_ratio: perf.map(|p| p.goodput_ratio),
            }
        })
        .collect()
}

/// Reads the ILP/exhaustive-solver budget from `HERMES_ILP_BUDGET_SECS`
/// (default `default_secs`). Lets quick runs and full reproductions share
/// the binaries.
pub fn ilp_budget(default_secs: u64) -> Duration {
    std::env::var("HERMES_ILP_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map_or(Duration::from_secs(default_secs), Duration::from_secs)
}

/// Reads the workload size of the WAN sweep from `HERMES_PROGRAMS`
/// (default 50, the paper's).
pub fn program_count() -> usize {
    std::env::var("HERMES_PROGRAMS").ok().and_then(|s| s.parse().ok()).unwrap_or(50)
}

/// What varies along a sweep: the Table III topology (Exp#2–4) or the
/// number of concurrently deployed programs (Exp#1, Exp#5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Axis {
    /// Point `at` is topology `at` of Table III (1-based).
    Topology,
    /// Point `at` deploys `at` programs.
    Programs,
}

/// One column of a figure: every framework's measurements on "topology
/// `at`" or on "`at` programs".
#[derive(Debug, Clone, Serialize)]
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
    fn cell(self, m: &Measurement) -> String {
        match self {
            Panel::Overhead => m.overhead_bytes.map_or("-".into(), |b| b.to_string()),
            Panel::Time => fmt_ms(m.reported_ms, m.capped),
            Panel::Fct => m.fct_ratio.map_or("-".into(), |f| format!("{f:.3}")),
            Panel::Goodput => m.goodput_ratio.map_or("-".into(), |g| format!("{g:.3}")),
        }
    }
}

/// The standard suite measured at every point of one axis. Figures 6, 7
/// and 8 are three panels of [`Sweep::over_wans`]; Figures 5 and 9 are the
/// four panels of [`Sweep::over_program_counts`] on two networks.
#[derive(Debug, Clone, Serialize)]
pub struct Sweep {
    /// What `at` means.
    pub axis: Axis,
    /// The measured columns, in sweep order.
    pub points: Vec<Point>,
}

impl Sweep {
    /// Deploys the first `programs` programs of the evaluation workload on
    /// each of the ten Table III WANs (`budget` per exhaustive solve).
    pub fn over_wans(programs: usize, budget: Duration) -> Sweep {
        let tdg = analyze(&workload(programs));
        let points = (0..TABLE3.len())
            .map(|i| Point { at: i + 1, results: measure(&tdg, &table3_wan(i), budget) })
            .collect();
        Sweep { axis: Axis::Topology, points }
    }

    /// Deploys `n` programs on `net` for every `n` in `counts`.
    pub fn over_program_counts(net: &Network, counts: &[usize], budget: Duration) -> Sweep {
        let points = counts
            .iter()
            .map(|&n| Point { at: n, results: measure(&analyze(&workload(n)), net, budget) })
            .collect();
        Sweep { axis: Axis::Programs, points }
    }

    /// Framework names, in row order.
    pub fn algorithms(&self) -> impl Iterator<Item = &str> {
        self.points.first().into_iter().flat_map(|p| p.results.iter().map(|m| m.algorithm.as_str()))
    }

    /// `algorithm`'s measurement at every point, in sweep order.
    pub fn series<'a>(&'a self, algorithm: &'a str) -> impl Iterator<Item = &'a Measurement> {
        self.points.iter().filter_map(move |p| p.results.iter().find(|m| m.algorithm == algorithm))
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

    /// Prints `panel` under a title line.
    pub fn print_panel(&self, title: &str, panel: Panel) {
        println!("{title}\n{}", self.panel(panel).render());
    }
}

#[cfg(test)]
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
        let sweep = Sweep::over_program_counts(&net, &[2, 3], Duration::from_millis(500));
        assert_eq!(sweep.axis, Axis::Programs);
        assert_eq!(sweep.points.iter().map(|p| p.at).collect::<Vec<_>>(), [2, 3]);
        let rows = &sweep.points[1].results;
        assert_eq!(rows.len(), standard_suite(Duration::ZERO).len());
        for r in rows {
            assert!(r.overhead_bytes.is_some(), "{} infeasible", r.algorithm);
            assert!(r.fct_ratio.unwrap() >= 1.0 - 1e-9);
            assert!(r.goodput_ratio.unwrap() <= 1.0 + 1e-9);
            assert!(!r.capped, "tiny instance should not cap");
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
            let text = sweep.panel(panel).render();
            assert_eq!(text.lines().count(), 2 + rows.len(), "{text}");
            assert!(text.lines().next().unwrap().ends_with("2 progs  3 progs"), "{text}");
            assert!(text.contains("\nHermes "), "{text}");
        }
    }
}
