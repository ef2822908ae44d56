//! Property-based tests over randomly generated workloads: structural
//! invariants that must hold for *every* input, not just the library.

use hermes::core::{
    placement_order, verify, DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer,
    SplitStrategy,
};
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::topology::{random_wan, WanConfig};
use hermes::net::TargetModel;
use hermes::tdg::merge_all;
use hermes::tdg::{AnalysisMode, DependencyType, NodeId, Tdg};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn synthetic_tdg(seed: u64, programs: usize) -> Tdg {
    let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
    ProgramAnalyzer::new().analyze(&generator.programs(programs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn merged_tdgs_are_always_dags(seed in 0u64..5_000, programs in 1usize..8) {
        let tdg = synthetic_tdg(seed, programs);
        prop_assert!(tdg.is_dag());
        // Topological order covers every node exactly once.
        let order = tdg.topo_order().unwrap();
        prop_assert_eq!(order.len(), tdg.node_count());
        let unique: BTreeSet<_> = order.iter().copied().collect();
        prop_assert_eq!(unique.len(), order.len());
    }

    /// Every segmentation is a partition of the placement order into
    /// contiguous runs: walking the segments in turn walks the order. The
    /// three-stage shape forces cuts the Tofino shape rarely needs.
    #[test]
    fn splits_partition_the_node_set(seed in 0u64..5_000, programs in 1usize..6) {
        let tdg = synthetic_tdg(seed, programs);
        let order = placement_order(&tdg).expect("analyzed TDGs are DAGs");
        for model in [TargetModel::tofino(), TargetModel::pipeline(3, 1.0)] {
            for strategy in
                [SplitStrategy::MinMetadata, SplitStrategy::Balanced, SplitStrategy::Random(seed)]
            {
                let split = GreedyHeuristic::with_strategy(strategy).split(&tdg, &model);
                let Ok(segments) = split else {
                    prop_assert_eq!(model.stages, 3, "synthetic MATs fit a Tofino pipeline");
                    continue;
                };
                let mut next = 0;
                for seg in &segments {
                    prop_assert!(!seg.is_empty(), "empty segment from {strategy:?}");
                    let run: Option<BTreeSet<NodeId>> =
                        order.get(next..next + seg.len()).map(|r| r.iter().copied().collect());
                    prop_assert_eq!(Some(seg), run.as_ref(), "{:?} at position {}", strategy, next);
                    next += seg.len();
                }
                prop_assert_eq!(next, order.len());
            }
        }
    }

    /// The order a `Tdg` owns is Kahn's by node index, whichever path built
    /// the graph and whatever rewrote its edges since.
    #[test]
    fn owned_topo_order_is_the_fresh_kahn_order(seed in 0u64..5_000, programs in 1usize..6) {
        let mut tdg = synthetic_tdg(seed, programs);
        let check = |tdg: &Tdg, after: &str| {
            let fresh = tdg.topo_order_by(|id| id);
            prop_assert_eq!(tdg.topo_order(), fresh.as_deref(), "after {}", after);
            prop_assert!(fresh.is_some());
            Ok(())
        };
        check(&tdg, "merge")?;
        tdg.reanalyze(AnalysisMode::Intersection);
        check(&tdg, "reanalyze")?;
        tdg.relax_edges();
        check(&tdg, "relax_edges")?;
        tdg.restore_base_edges();
        check(&tdg, "restore_base_edges")?;
        let json = serde_json::to_string(&tdg).expect("TDGs serialize");
        let back: Tdg = serde_json::from_str(&json).expect("and read back");
        prop_assert_eq!(&back, &tdg);
        check(&back, "a JSON round trip")?;
    }

    #[test]
    fn heuristic_plans_always_verify(seed in 0u64..2_000, programs in 1usize..6) {
        let tdg = synthetic_tdg(seed, programs);
        // Enough hardware that feasibility is guaranteed.
        let net = random_wan(30, 45, seed ^ 0xA5, &WanConfig::default());
        let eps = Epsilon::loose();
        if let Ok(plan) = GreedyHeuristic::new().deploy(&tdg, &net, &eps) {
            let violations = verify(&tdg, &net, &plan, &eps);
            prop_assert!(violations.is_empty(), "{violations:?}");
            // Objective consistency: reported metrics match recomputation.
            let m = plan.metrics(&tdg);
            prop_assert_eq!(m.max_overhead_bytes, plan.max_inter_switch_bytes(&tdg));
        }
    }

    #[test]
    fn merge_is_node_conservative(seed in 0u64..5_000, programs in 2usize..6) {
        let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
        let programs = generator.programs(programs);
        let tdgs: Vec<Tdg> = programs
            .iter()
            .map(|p| Tdg::from_program(p, AnalysisMode::PaperLiteral))
            .collect();
        let total: usize = tdgs.iter().map(Tdg::node_count).sum();
        let merged = merge_all(tdgs);
        prop_assert!(merged.node_count() <= total);
        prop_assert!(merged.is_dag());
        // Resources only shrink (duplicates removed), never grow.
        let standalone: f64 = programs.iter().map(|p| p.total_resource()).sum();
        prop_assert!(merged.total_resource() <= standalone + 1e-9);
    }

    #[test]
    fn uniform_reweighting_keeps_structure(seed in 0u64..5_000) {
        let tdg = synthetic_tdg(seed, 3);
        let unit = tdg.with_uniform_edge_bytes(1);
        prop_assert_eq!(unit.node_count(), tdg.node_count());
        prop_assert_eq!(unit.edge_count(), tdg.edge_count());
        prop_assert!(unit.edges().iter().all(|e| e.bytes == 1));
    }
}

/// A cyclic graph has no order to own, and says so without running Kahn.
#[test]
fn a_cyclic_graph_owns_no_topo_order() {
    let mats = library::l3_router()
        .tables()
        .iter()
        .take(2)
        .map(|t| (t.name().to_owned(), t.clone()))
        .collect();
    let edges = vec![(0, 1, DependencyType::Match), (1, 0, DependencyType::Match)];
    let tdg = Tdg::from_mats_and_edges(mats, edges, AnalysisMode::PaperLiteral);
    assert_eq!(tdg.topo_order(), None);
    assert_eq!(tdg.topo_order_by(|id| id), None);
    assert!(!tdg.is_dag());
}
