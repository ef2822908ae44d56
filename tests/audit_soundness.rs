//! Soundness suite for the workload audit engine:
//!
//! - every pre-solve infeasibility certificate must be confirmed by
//!   exhaustive search — a certificate on an instance the search can
//!   deploy would be a false infeasible, the one bug class the precheck
//!   must never have;
//! - the `AmaxFloor` objective floor must never exceed the true optimum
//!   on feasible instances (otherwise the portfolio would mark suboptimal
//!   plans proven-optimal);
//! - the portfolio must turn a certificate into a `ProvenInfeasible`
//!   verdict in well under 1 % of its wall-clock budget;
//! - the recorded-edge check must catch what it exists to catch: one
//!   mistyped or misweighted edge is reported on that edge and nowhere
//!   else;
//! - the whole audit of a `wan-50`-shaped instance is pinned, byte for
//!   byte, to what an earlier commit reported.

use hermes::analysis::{audit_instance, audit_programs, check_tdg, Diagnostic};
use hermes::core::precheck::Precheck;
use hermes::core::test_support::{chain_tdg, tiny_switches};
use hermes::core::{
    fnv1a64, DeployError, DeploymentAlgorithm, Epsilon, OptimalSolver, Portfolio, SearchContext,
};
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::topology;
use hermes::tdg::{metadata_amount, AnalysisMode, DependencyType, Tdg, TdgEdge};
use proptest::prelude::*;
use serde::{Deserialize, Value};
use std::time::{Duration, Instant};

fn synthetic_programs(seed: u64, count: usize) -> Vec<hermes::dataplane::Program> {
    let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
    generator.programs(count)
}

/// Small random instances the exact search can exhaust in milliseconds:
/// a dependency chain with the given per-edge bytes and per-node resource
/// on a uniform testbed.
fn small_instance(seed: u64) -> (Tdg, hermes::net::Network, Epsilon) {
    let mut s = seed;
    let mut next = |m: u64| {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % m
    };
    let edges = 1 + next(4) as usize; // 2..=5 nodes
    let bytes: Vec<u32> = (0..edges).map(|_| 1 + next(16) as u32).collect();
    let resource = [0.2, 0.4, 0.55, 0.7][next(4) as usize];
    let tdg = chain_tdg(&bytes, resource);
    let switches = 1 + next(3) as usize; // 1..=3
    let stages = 1 + next(3) as usize; // 1..=3
    let cap = [0.3, 0.5, 1.0][next(3) as usize];
    let net = tiny_switches(switches, stages, cap);
    let eps1 = [5.0, 30.0, f64::INFINITY][next(3) as usize];
    let eps2 = [1, 2, usize::MAX][next(3) as usize];
    (tdg, net, Epsilon::new(eps1, eps2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No false infeasibles: whenever the precheck certifies an instance
    /// infeasible, the exhaustive search must also fail to find a plan.
    /// And the `A_max` floor must never exceed a proven optimum.
    #[test]
    fn certificates_confirmed_by_exhaustive_search(seed in 0u64..400) {
        let (tdg, net, eps) = small_instance(seed);
        let pre = Precheck::run(&tdg, &net, &eps);
        let ctx = SearchContext::with_time_limit(Duration::from_secs(10));
        let outcome = OptimalSolver::new().solve(&tdg, &net, &eps, &ctx);
        if let Some(cert) = pre.infeasible() {
            prop_assert!(
                outcome.is_err(),
                "false infeasible {:?} on seed {}: search found a plan",
                cert, seed
            );
        }
        if let Ok(outcome) = outcome {
            // Feasible instance: every floor must stay below the optimum.
            if outcome.proven_optimal {
                prop_assert!(
                    pre.amax_floor() <= outcome.objective,
                    "floor {} exceeds proven optimum {} on seed {}",
                    pre.amax_floor(), outcome.objective, seed
                );
            }
        }
    }

    /// Synthetic workloads never trip the audit's error class (the
    /// generator only builds well-formed programs), so the audit is safe
    /// to put in front of every synthetic benchmark run.
    #[test]
    fn synthetic_workloads_audit_clean_of_graph_errors(seed in 0u64..1000) {
        let programs = synthetic_programs(seed, 2);
        let report = audit_programs(&programs, AnalysisMode::PaperLiteral);
        for d in &report.diagnostics {
            // Error-severity graph-soundness findings would mean the
            // pipeline itself is broken; lint/dataflow findings and
            // transitive-redundancy infos (HG205) are fine.
            prop_assert!(
                !(d.code.starts_with("HG") && d.severity == hermes::analysis::Severity::Error),
                "graph-soundness error on seed {}: {}",
                seed, d
            );
        }
    }
}

/// The acceptance criterion from the issue: on a crafted infeasible
/// workload the portfolio returns proven-infeasible via certificate in
/// under 1 % of the time budget.
#[test]
fn portfolio_settles_infeasible_instance_within_one_percent_of_budget() {
    let budget = Duration::from_secs(10);
    let cases = [
        // Four 0.5-resource MATs need two 1.0-capacity switches; eps2 = 1.
        (
            "HC305",
            chain_tdg(&[1, 1, 1], 0.5),
            tiny_switches(3, 2, 0.5),
            Epsilon::new(f64::INFINITY, 1),
        ),
        // 3 x 0.8 = 2.4 demand over 2 x 1.0 capacity.
        ("HC303", chain_tdg(&[1, 1], 0.8), tiny_switches(2, 2, 0.5), Epsilon::loose()),
    ];
    for (code, tdg, net, eps) in cases {
        let ctx = SearchContext::with_time_limit(budget);
        let start = Instant::now();
        let outcome = Portfolio::greedy_exact().solve(&tdg, &net, &eps, &ctx);
        let wall = start.elapsed();
        match outcome {
            Err(DeployError::ProvenInfeasible { certificate }) => {
                assert_eq!(certificate.code(), code);
            }
            other => panic!("expected ProvenInfeasible [{code}], got {other:?}"),
        }
        assert!(wall < budget / 100, "verdict took {wall:?}, over 1 % of the {budget:?} budget");
    }
}

/// A floor that equals the optimum upgrades the plan to proven-optimal
/// without an exhaustion proof.
#[test]
fn floor_certified_win_is_proven_optimal() {
    // Two 0.7-resource MATs cannot share a 1.0-capacity switch: the
    // 9-byte edge must cross, so the floor is 9 and any 9-byte plan is
    // optimal by construction.
    let tdg = chain_tdg(&[9], 0.7);
    let net = tiny_switches(2, 2, 0.5);
    let eps = Epsilon::loose();
    let ctx = SearchContext::with_time_limit(Duration::from_secs(10));
    let outcome = Portfolio::greedy_exact().solve(&tdg, &net, &eps, &ctx).expect("feasible");
    assert_eq!(outcome.objective, 9);
    assert!(outcome.proven_optimal);
}

/// `tdg` with edge `k` recorded as `dep` carrying `bytes`. Every
/// constructor derives what it records, so an edge the analysis would not
/// have written is stated through the serialized form.
fn with_edge(tdg: &Tdg, k: usize, dep: DependencyType, bytes: u32) -> Tdg {
    let mut value = serde_json::to_value(tdg).expect("a TDG serializes");
    let Value::Map(fields) = &mut value else { panic!("a TDG serializes as a map") };
    let Some((_, Value::Seq(edges))) = fields.iter_mut().find(|(key, _)| key == "edges") else {
        panic!("edges serialize as a seq")
    };
    edges[k] = serde_json::to_value(&TdgEdge { dep, bytes, ..tdg.edges()[k] }).expect("serializes");
    Tdg::from_value(&value).expect("endpoints are unchanged")
}

/// What `check_tdg` says about `edited` beyond what it said about the
/// graph as derived, after checking that all of it is about edge `e`.
fn new_findings(edited: &Tdg, derived: &[Diagnostic], e: &TdgEdge) -> Vec<String> {
    let findings = check_tdg(edited);
    assert!(derived.iter().all(|d| findings.contains(d)), "an edit of one edge hid a finding");
    let (from, to) = (&edited.node(e.from).name, &edited.node(e.to).name);
    let added: Vec<&Diagnostic> = findings.iter().filter(|d| !derived.contains(d)).collect();
    for d in &added {
        assert_eq!(
            (d.span.mat.as_ref(), d.span.mat_to.as_ref()),
            (Some(from), Some(to)),
            "finding on another edge than {from} -> {to}: {d}"
        );
    }
    added.iter().map(|d| d.code.clone()).collect()
}

/// One recorded edge of a clean graph retyped or reweighed: the audit
/// names that edge, with the code for that defect, and no other edge.
/// Successor edges are left alone — gates are declared, not derivable, so
/// `check_tdg` takes a recorded 𝕊 on trust by design.
#[test]
fn a_mistyped_or_misweighted_edge_is_reported_on_that_edge_only() {
    let mode = AnalysisMode::PaperLiteral;
    let field_derivable =
        [DependencyType::Match, DependencyType::Action, DependencyType::ReverseMatch];
    let (mut retyped, mut reweighed) = (0, 0);
    for program in library::real_programs() {
        let tdg = Tdg::from_program(&program, mode);
        let derived = check_tdg(&tdg);
        assert!(derived.iter().all(|d| d.code == "HG205"), "{}: {derived:?}", program.name());
        for (k, e) in tdg.edges().iter().enumerate() {
            let (a, b) = (&tdg.node(e.from).mat, &tdg.node(e.to).mat);
            let heavier = with_edge(&tdg, k, e.dep, e.bytes + 1);
            assert_eq!(new_findings(&heavier, &derived, e), ["HG204"], "{} edge {k}", tdg);
            reweighed += 1;
            if e.dep == DependencyType::Successor {
                continue;
            }
            for dep in field_derivable.into_iter().filter(|&dep| dep != e.dep) {
                let codes = new_findings(&with_edge(&tdg, k, dep, e.bytes), &derived, e);
                let (typed, weighed): (Vec<&str>, Vec<&str>) =
                    codes.iter().map(String::as_str).partition(|&code| code != "HG204");
                assert!(typed == ["HG203"] || typed == ["HG206"], "{e:?} as {dep}: {codes:?}");
                let reweighs = metadata_amount(a, b, dep, mode) != e.bytes;
                assert_eq!(weighed.len(), usize::from(reweighs), "{e:?} as {dep}: {codes:?}");
                retyped += 1;
            }
        }
    }
    assert!(retyped >= 40 && reweighed >= 20, "{retyped} retypings, {reweighed} reweighings");
}

/// The ten library programs plus 40 of the 60-program pool the `wan-50`
/// benchmark workload draws from: two of every three pool programs in
/// table-count order, `draw` choosing which one each triple leaves out.
fn wan_50_shaped(draw: usize) -> Vec<hermes::dataplane::Program> {
    let pool = synthetic_programs(50, 60);
    let mut by_size: Vec<usize> = (0..pool.len()).collect();
    by_size.sort_by_key(|&i| (pool[i].tables().len(), i));
    let mut members: Vec<usize> = by_size
        .chunks(3)
        .enumerate()
        .flat_map(|(c, triple)| {
            let skip = (c + draw) % triple.len();
            triple.iter().enumerate().filter(move |(j, _)| *j != skip).map(|(_, &i)| i)
        })
        .collect();
    members.sort_unstable();
    let mut programs = library::real_programs();
    programs.extend(members.into_iter().map(|i| pool[i].clone()));
    programs
}

/// The complete audit report — every lint, graph, dataflow and
/// certificate finding, in order — of three `wan-50`-shaped instances,
/// as a digest per instance. The fixture was written by the commit before
/// the MAT cached its field sets and the merge read its candidate pairs
/// off a per-field index, so it pins both to the reports the per-call
/// `BTreeSet` derivations and the all-pairs loop gave.
/// `REGEN_GOLDEN=1` rewrites it.
#[test]
fn wan_50_shaped_audit_reports_match_the_golden_fixture() {
    let mut dump = String::new();
    for draw in 0..3 {
        let programs = wan_50_shaped(draw);
        let net = topology::table3_wan(draw);
        let report = audit_instance(&programs, &net, &Epsilon::loose(), AnalysisMode::PaperLiteral);
        assert!(!report.has_errors(), "draw {draw}: {report}");
        let json = report.to_json();
        dump += &format!(
            "draw {draw} on wan:{}: {} programs, {} diagnostics, {} bytes, fnv1a64 {:016x}\n",
            draw + 1,
            programs.len(),
            report.diagnostics.len(),
            json.len(),
            fnv1a64(json.as_bytes())
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/audit_wan50_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &dump).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(path).expect("run with REGEN_GOLDEN=1 to create");
    assert_eq!(
        dump, fixture,
        "an audit report drifted from tests/fixtures/audit_wan50_golden.txt; re-generate with \
         REGEN_GOLDEN=1 if the change is intentional"
    );
}
