//! The greedy side's answers, pinned at the scale that motivates caring
//! how a node set is packed: the splitter (all three strategies), the
//! FFL / FFLS baselines, two drains through the incremental deployer and
//! two migration schedules, on merged TDGs of up to ≈800 nodes over the
//! Table III WANs. The fixture was written at the commit before the memoized
//! stage-feasibility cache was replaced by the one first-fit probe, so it
//! holds every plan to what the three-way packing path produced.
//!
//! `REGEN_GOLDEN=1 cargo test --release --test greedy_scale` is the one way
//! to rewrite `tests/fixtures/greedy_scale_golden.txt`.

use hermes::baselines::{FirstFitByLevel, FirstFitByLevelAndSize};
use hermes::core::{
    fnv1a64, DeployError, DeploymentAlgorithm, DeploymentPlan, Epsilon, GreedyHeuristic,
    IncrementalDeployer, MigrationProblem, MigrationScheduler, ProgramAnalyzer, RedeployOptions,
    SearchContext, SplitStrategy,
};
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::{topology, Network, SwitchId, TargetModel};
use hermes::tdg::{NodeId, Tdg};
use std::collections::BTreeSet;

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/greedy_scale_golden.txt");

/// The ten library programs plus `extra` programs of the seed-42 generator.
fn workload(extra: usize) -> Tdg {
    let mut programs = library::real_programs();
    programs.extend(SyntheticGenerator::new(42, SyntheticConfig::default()).programs(extra));
    ProgramAnalyzer::new().analyze(&programs)
}

/// A deploy error as the golden records it. The `reason` of
/// `NoFeasiblePlacement` is prose (the commit that added this file reworded
/// the splitter's), so only the kind is pinned; every other error prints
/// in full.
fn error_text(e: &DeployError) -> String {
    match e {
        DeployError::NoFeasiblePlacement { .. } => "error=no feasible placement".to_owned(),
        e => format!("error={e}"),
    }
}

fn plan_line(tdg: &Tdg, result: &Result<DeploymentPlan, DeployError>) -> String {
    match result {
        Ok(plan) => {
            format!("plan={:016x} a_max={}", plan.fingerprint(), plan.max_inter_switch_bytes(tdg))
        }
        Err(e) => error_text(e),
    }
}

/// Heals `plan` around `drained`; the line and, when it succeeded, the plan.
fn drain(
    tdg: &Tdg,
    net: &Network,
    eps: &Epsilon,
    plan: &DeploymentPlan,
    drained: SwitchId,
) -> (String, Option<DeploymentPlan>) {
    let opts = RedeployOptions::excluding([drained]);
    match IncrementalDeployer::new().redeploy_with(tdg, plan, tdg, net, eps, &opts) {
        Ok(o) => (
            format!(
                "{drained} plan={:016x} reused={} full_redeploy={}",
                o.plan.fingerprint(),
                o.reused,
                o.full_redeploy
            ),
            Some(o.plan),
        ),
        Err(e) => (format!("{drained} {}", error_text(&e)), None),
    }
}

fn migration_line(tdg: &Tdg, net: &Network, from: &DeploymentPlan, to: &DeploymentPlan) -> String {
    let problem = MigrationProblem { tdg, net, from, to };
    match MigrationScheduler::new().plan(&problem, &SearchContext::unbounded()) {
        Ok(s) => {
            let order: Vec<String> = s.commit_order().iter().map(ToString::to_string).collect();
            format!("order=[{}] peak={}", order.join(","), s.peak_transient_amax)
        }
        Err(e) => format!("error={e}"),
    }
}

/// One block per instance: five deploys; the greedy plan healed around its
/// first occupied switch (lowest id) and around the last one a packet
/// visits (where pinning can succeed: nothing depends on its MATs); the
/// FFL → greedy and greedy → healed migration schedules.
fn instance(label: &str, tdg: &Tdg, net: &Network, eps_label: &str, eps: &Epsilon) -> String {
    let mut out = format!("[{label} eps={eps_label}]\n");
    let algorithms: [(&str, Box<dyn DeploymentAlgorithm>); 5] = [
        ("greedy/min-metadata", Box::new(GreedyHeuristic::new())),
        ("greedy/balanced", Box::new(GreedyHeuristic::with_strategy(SplitStrategy::Balanced))),
        ("greedy/random(7)", Box::new(GreedyHeuristic::with_strategy(SplitStrategy::Random(7)))),
        ("ffl", Box::new(FirstFitByLevel)),
        ("ffls", Box::new(FirstFitByLevelAndSize)),
    ];
    let results: Vec<_> = algorithms.iter().map(|(_, a)| a.deploy(tdg, net, eps)).collect();
    for ((name, _), result) in algorithms.iter().zip(&results) {
        out += &format!("{name} {}\n", plan_line(tdg, result));
    }
    let Ok(greedy) = &results[0] else {
        return out + "drains and migrations skipped\n";
    };
    let first = *greedy.occupied_switches().iter().next().expect("a plan occupies a switch");
    let last = *greedy
        .switch_visit_order(tdg)
        .expect("a greedy plan's switch DAG is acyclic")
        .last()
        .expect("a plan occupies a switch");
    out += &format!("drain-first {}\n", drain(tdg, net, eps, greedy, first).0);
    let (line, healed) = drain(tdg, net, eps, greedy, last);
    out += &format!("drain-last {line}\n");
    if let Ok(ffl) = &results[3] {
        out += &format!("migrate ffl->greedy {}\n", migration_line(tdg, net, ffl, greedy));
    }
    if let Some(healed) = healed {
        out +=
            &format!("migrate greedy->drain-last {}\n", migration_line(tdg, net, greedy, &healed));
    }
    out
}

/// The splitters' own answers on the Tofino shape, which no network or ε
/// can hide behind an error: the recursive split under each strategy, and
/// the capacity-bounded split at that many segments and at fewer.
fn segmentation(label: &str, tdg: &Tdg) -> String {
    let model = TargetModel::tofino();
    let line = |result: Result<Vec<BTreeSet<NodeId>>, DeployError>| match result {
        Ok(segments) => {
            let ids: Vec<Vec<usize>> =
                segments.iter().map(|s| s.iter().map(|id| id.index()).collect()).collect();
            format!(
                "segments={} fnv={:016x}",
                segments.len(),
                fnv1a64(format!("{ids:?}").as_bytes())
            )
        }
        Err(e) => error_text(&e),
    };
    let mut out = format!("[{label} segmentation]\n");
    let mut recursive = 0;
    for (name, strategy) in [
        ("min-metadata", SplitStrategy::MinMetadata),
        ("balanced", SplitStrategy::Balanced),
        ("random(7)", SplitStrategy::Random(7)),
    ] {
        let segments = GreedyHeuristic::with_strategy(strategy).split(tdg, &model);
        if strategy == SplitStrategy::MinMetadata {
            recursive = segments.as_ref().map_or(0, Vec::len);
        }
        out += &format!("split/{name} {}\n", line(segments));
    }
    for max in [recursive, recursive.saturating_sub(1), recursive.saturating_sub(3), recursive / 2]
    {
        let bounded = GreedyHeuristic::new().split_bounded(tdg, &model, max);
        out += &format!("split_bounded({max}) {}\n", line(bounded));
    }
    out
}

fn both_epsilons(label: &str, tdg: &Tdg, net: &Network) -> String {
    instance(label, tdg, net, "loose", &Epsilon::loose())
        + &instance(label, tdg, net, "(200us,6)", &Epsilon::new(200.0, 6))
}

/// The head of the fixture, cheap enough for a debug build: the library on
/// the testbed and on `fattree:4`, thirty more programs on the first WAN.
fn slice() -> String {
    let (library, thirty) = (workload(0), workload(30));
    segmentation("library", &library)
        + &both_epsilons("library linear:3", &library, &topology::linear(3, 10.0))
        + &both_epsilons("library fattree:4", &library, &topology::fat_tree(4, 10.0))
        + &segmentation("library+30", &thirty)
        + &both_epsilons("library+30 wan:1", &thirty, &topology::table3_wan(0))
}

/// Tier-1's share of the golden: the fixture starts with the slice.
#[test]
fn greedy_side_slice_matches_the_head_of_the_golden_fixture() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("the fixture is committed");
    let dump = slice();
    assert!(
        fixture.starts_with(&dump),
        "a greedy-side answer drifted from the head of tests/fixtures/greedy_scale_golden.txt:\n{}",
        first_difference(&dump, &fixture)
    );
}

/// Release only: `ci.sh` runs it in its `cargo test -q --release --workspace`
/// stage (a debug build needs minutes). The whole fixture: the slice, then
/// the library + 0 / 10 / 20 / 40 / 60 generated programs: their
/// segmentations, and the instances on the ten Table III WANs, `fattree:4`
/// and `linear:5`, each under both ε settings.
#[test]
#[cfg_attr(debug_assertions, ignore = "release only: ci.sh runs it")]
fn greedy_side_answers_match_the_golden_fixture() {
    let mut topologies: Vec<(String, Network)> =
        (0..10).map(|i| (format!("wan:{}", i + 1), topology::table3_wan(i))).collect();
    topologies.push(("fattree:4".to_owned(), topology::fat_tree(4, 10.0)));
    topologies.push(("linear:5".to_owned(), topology::linear(5, 10.0)));
    let mut dump = slice();
    for extra in [0, 10, 20, 40, 60] {
        let tdg = workload(extra);
        dump += &segmentation(&format!("library+{extra}"), &tdg);
        for (spec, net) in &topologies {
            dump += &both_epsilons(&format!("library+{extra} {spec}"), &tdg, net);
        }
    }
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(FIXTURE, &dump).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(FIXTURE).expect("run with REGEN_GOLDEN=1 to create");
    assert!(
        dump == fixture,
        "a greedy-side answer drifted from tests/fixtures/greedy_scale_golden.txt:\n{}",
        first_difference(&dump, &fixture)
    );
}

/// The first line on which the two dumps part, with its block header.
fn first_difference(dump: &str, fixture: &str) -> String {
    let mut header = "";
    for (got, want) in dump.lines().zip(fixture.lines()) {
        if got.starts_with('[') {
            header = got;
        }
        if got != want {
            return format!("{header}\n  got:     {got}\n  fixture: {want}");
        }
    }
    format!("line counts differ: {} against {}", dump.lines().count(), fixture.lines().count())
}
