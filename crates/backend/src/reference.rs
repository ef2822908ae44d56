//! The per-packet emulator, kept as the oracle for the compiled one.
//!
//! Before deployments were compiled once ([`CompiledPlan`]), every test
//! packet re-derived the visit order, every visited switch re-sorted its
//! stage entries, and every hop re-scanned the TDG's edges — resolving
//! both endpoints with [`DeploymentPlan::switch_of`] — for the metadata
//! that must survive it; every MAT ran its action over a `Field`-keyed
//! packet, with register arrays keyed by table name. That definition is
//! easy to read off the paper's model ("written on a switch already
//! visited, consumed on one still to come"), so it stays here, test-only,
//! and the suite below pins the compiled form to it: same final packets,
//! visits, wire bytes, validation reports and mixed-epoch verdicts.
#![cfg(test)]
#![allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests

use crate::config::{generate, DeploymentArtifacts, StageEntry, SwitchConfig};
use crate::emulator::{self, mix, name_seed, test_packet, CompiledPlan, Packet, Trace};
use crate::mixed::{self, EpochTransition, MixedEpochViolation};
use crate::validate::{self, ValidationFailure, ValidationReport};
use hermes_core::{verify, DeploymentPlan, Epsilon};
use hermes_dataplane::action::{FoldOp, PrimitiveOp};
use hermes_dataplane::fields::Field;
use hermes_dataplane::Mat;
use hermes_net::{Network, SwitchId};
use hermes_tdg::{NodeId, Tdg};
use std::collections::{BTreeMap, BTreeSet};

/// Per-deployment register state: each stateful table owns an array.
#[derive(Debug, Clone, Default)]
struct Registers {
    arrays: BTreeMap<String, BTreeMap<u64, u64>>,
}

impl Registers {
    fn read_modify(&mut self, table: &str, index: u64) -> u64 {
        let slot = self.arrays.entry(table.to_owned()).or_default().entry(index).or_insert(0);
        *slot += 1;
        *slot
    }
}

/// Keeps headers plus the given metadata set; all other metadata is
/// stripped (what happens on egress without a piggyback entry).
fn retain_for_wire(pkt: &mut Packet, piggyback: &BTreeSet<&Field>) {
    pkt.fields.retain(|f, _| f.is_header() || piggyback.contains(f));
}

/// Executes one MAT over the packet: the first action of the table runs
/// (rule lookup is control-plane state; data-plane semantics — who writes
/// what from what — are what equivalence needs).
fn execute_mat(mat: &Mat, table_name: &str, pkt: &mut Packet, regs: &mut Registers) {
    let Some(action) = mat.actions().first() else {
        return;
    };
    for op in action.ops() {
        match op {
            PrimitiveOp::SetConst { dst } => {
                pkt.set(dst.clone(), name_seed(action.name()));
            }
            PrimitiveOp::Copy { dst, src } => {
                let v = pkt.get(src);
                pkt.set(dst.clone(), v);
            }
            PrimitiveOp::Compute { dst, srcs } => {
                let mut v = name_seed(action.name());
                for s in srcs {
                    v = mix(v, pkt.get(s));
                }
                pkt.set(dst.clone(), v);
            }
            PrimitiveOp::Hash { dst, srcs } => {
                let mut v = 0;
                for s in srcs {
                    v = mix(v, pkt.get(s));
                }
                pkt.set(dst.clone(), v);
            }
            PrimitiveOp::RegisterOp { index, out } => {
                let idx = pkt.get(index);
                let value = regs.read_modify(table_name, idx);
                if let Some(out) = out {
                    pkt.set(out.clone(), value);
                }
            }
            PrimitiveOp::Fold { dst, srcs, op } => {
                let contrib = srcs.iter().fold(0u64, |v, s| mix(v, pkt.get(s)));
                let v = if pkt.fields().contains_key(dst) {
                    let acc = pkt.get(dst);
                    match op {
                        FoldOp::Add => acc.wrapping_add(contrib),
                        FoldOp::Max => acc.max(contrib),
                        FoldOp::Min => acc.min(contrib),
                        FoldOp::Or => acc | contrib,
                    }
                } else {
                    contrib
                };
                pkt.set(dst.clone(), v);
            }
            PrimitiveOp::Drop => {
                pkt.dropped = true;
            }
            PrimitiveOp::Forward { port } => {
                let v = pkt.get(port);
                pkt.set(port.clone(), v);
            }
        }
    }
}

/// Observable equality of two final packet states: header fields plus
/// drop status.
fn same_observable(a: &Packet, b: &Packet) -> bool {
    let headers = |p: &Packet| -> BTreeMap<Field, u64> {
        p.fields().iter().filter(|(f, _)| f.is_header()).map(|(f, v)| (f.clone(), *v)).collect()
    };
    headers(a) == headers(b) && a.is_dropped() == b.is_dropped()
}

/// The switches of `artifacts` in topological order of the switch-level
/// DAG, ties by switch id; `None` when that graph is cyclic.
fn switch_visit_order(
    tdg: &Tdg,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
) -> Option<Vec<SwitchId>> {
    let occupied: Vec<SwitchId> = artifacts.switches.keys().copied().collect();
    let index: BTreeMap<SwitchId, usize> =
        occupied.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let n = occupied.len();
    let mut adj = vec![BTreeSet::new(); n];
    let mut indegree = vec![0usize; n];
    for e in tdg.edges() {
        let (Some(u), Some(v)) = (plan.switch_of(e.from), plan.switch_of(e.to)) else {
            continue;
        };
        if u != v && adj[index[&u]].insert(index[&v]) {
            indegree[index[&v]] += 1;
        }
    }
    let mut ready: BTreeSet<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        order.push(occupied[i]);
        for &j in &adj[i].clone() {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.insert(j);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Executes every MAT of one switch config over the packet, in stage
/// order; a MAT split over several stages runs once, at its first slice.
fn execute_switch(tdg: &Tdg, config: &SwitchConfig, pkt: &mut Packet, regs: &mut Registers) {
    let mut executed: BTreeSet<NodeId> = BTreeSet::new();
    let mut items: Vec<(usize, &StageEntry)> = config
        .stages
        .iter()
        .flat_map(|(stage, list)| list.iter().map(move |e| (*stage, e)))
        .collect();
    items.sort_by_key(|(stage, e)| (*stage, e.node));
    for (_, entry) in items {
        if executed.insert(entry.node) {
            execute_mat(&tdg.node(entry.node).mat, &entry.table, pkt, regs);
        }
    }
}

/// Metadata written on any already-visited switch and still consumed by a
/// MAT on any remaining switch: what genuinely must ride the wire now.
fn transitive_piggyback<'a>(
    tdg: &'a Tdg,
    plan: &DeploymentPlan,
    visited: &[SwitchId],
    remaining: &[SwitchId],
) -> BTreeSet<&'a Field> {
    let mut out = BTreeSet::new();
    if remaining.is_empty() {
        return out;
    }
    for e in tdg.edges() {
        let (Some(u), Some(v)) = (plan.switch_of(e.from), plan.switch_of(e.to)) else {
            continue;
        };
        if visited.contains(&u) && remaining.contains(&v) {
            out.extend(tdg.node(e.from).mat.written_metadata());
        }
    }
    out
}

fn run_distributed(
    tdg: &Tdg,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
    mut pkt: Packet,
) -> Option<Trace> {
    let order = switch_visit_order(tdg, plan, artifacts)?;
    let mut regs = Registers::default();
    let mut visits = Vec::with_capacity(order.len());
    let mut wire_bytes = Vec::with_capacity(order.len());
    for (i, &switch) in order.iter().enumerate() {
        visits.push(switch);
        execute_switch(tdg, &artifacts.switches[&switch], &mut pkt, &mut regs);
        let piggyback = transitive_piggyback(tdg, plan, &order[..=i], &order[i + 1..]);
        retain_for_wire(&mut pkt, &piggyback);
        wire_bytes.push(piggyback.iter().map(|f| f.size_bytes()).sum());
    }
    Some(Trace { packet: pkt, visits, wire_bytes })
}

fn run_reference(tdg: &Tdg, mut pkt: Packet) -> Packet {
    let mut regs = Registers::default();
    for &id in tdg.topo_order().expect("TDGs are DAGs") {
        let node = tdg.node(id);
        execute_mat(&node.mat, &node.name, &mut pkt, &mut regs);
    }
    pkt
}

fn validate_plan(
    tdg: &Tdg,
    net: &Network,
    plan: &DeploymentPlan,
    eps: &Epsilon,
    packet_seeds: &[u64],
) -> ValidationReport {
    let mut failures: Vec<ValidationFailure> = verify(tdg, net, plan, eps)
        .into_iter()
        .map(|v| ValidationFailure::Constraint { violation: v.to_string() })
        .collect();
    let artifacts = generate(tdg, net, plan);
    if failures.is_empty() {
        for &seed in packet_seeds {
            let reference = run_reference(tdg, test_packet(seed));
            let distributed = run_distributed(tdg, plan, &artifacts, test_packet(seed))
                .expect("the oracle validates orderable plans only");
            if !same_observable(&reference, &distributed.packet) {
                failures.push(ValidationFailure::Divergence { packet_seed: seed });
            }
        }
    }
    ValidationReport { failures, packets_checked: packet_seeds.len() }
}

/// One packet through the mixed window: old-plan route, per-switch epoch
/// chosen by the committed set, egress stripping per the serving epoch's
/// piggyback contract.
fn run_mixed(
    t: &EpochTransition<'_>,
    committed: &BTreeSet<SwitchId>,
    mut pkt: Packet,
) -> Result<Packet, MixedEpochViolation> {
    let order = switch_visit_order(t.tdg, t.old_plan, t.old_artifacts)
        .ok_or(MixedEpochViolation::UnorderedOldPlan)?;
    let mut regs = Registers::default();
    for (i, &switch) in order.iter().enumerate() {
        let serving_new =
            committed.contains(&switch) && t.new_artifacts.switches.contains_key(&switch);
        let (config, plan) = if serving_new {
            (&t.new_artifacts.switches[&switch], t.new_plan)
        } else {
            (&t.old_artifacts.switches[&switch], t.old_plan)
        };
        execute_switch(t.tdg, config, &mut pkt, &mut regs);
        let piggyback = transitive_piggyback(t.tdg, plan, &order[..=i], &order[i + 1..]);
        retain_for_wire(&mut pkt, &piggyback);
    }
    Ok(pkt)
}

fn check_window(
    t: &EpochTransition<'_>,
    committed: &BTreeSet<SwitchId>,
    packet_seeds: &[u64],
) -> Result<(), MixedEpochViolation> {
    for &seed in packet_seeds {
        let mixed = run_mixed(t, committed, test_packet(seed))?;
        if !same_observable(&mixed, &run_reference(t.tdg, test_packet(seed))) {
            return Err(MixedEpochViolation::Divergence {
                packet_seed: seed,
                committed: committed.iter().copied().collect(),
            });
        }
    }
    Ok(())
}

fn check_transition(
    t: &EpochTransition<'_>,
    commit_order: &[SwitchId],
    packet_seeds: &[u64],
) -> Result<usize, MixedEpochViolation> {
    for n in 1..=commit_order.len() {
        check_window(t, &commit_order[..n].iter().copied().collect(), packet_seeds)?;
    }
    Ok(commit_order.len())
}

mod suite {
    use super::*;
    use hermes_core::{
        DeploymentAlgorithm, GreedyHeuristic, IncrementalDeployer, OptimalSolver, PlanRoute,
        ProgramAnalyzer, RedeployOptions, SearchContext, StagePlacement,
    };
    use hermes_dataplane::library;
    use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
    use hermes_net::{paths, topology};
    use std::sync::OnceLock;
    use std::time::Duration;

    const SEEDS: std::ops::Range<u64> = 0..16;

    /// The ten library programs, and seeded synthetic sets of 2–4 programs.
    fn workloads() -> Vec<(String, Tdg)> {
        let mut out =
            vec![("library".to_owned(), ProgramAnalyzer::new().analyze(&library::real_programs()))];
        for (seed, programs) in [(3, 2), (935, 4), (1201, 3)] {
            let mut generator = SyntheticGenerator::new(seed, SyntheticConfig::default());
            out.push((
                format!("synthetic:{seed}x{programs}"),
                ProgramAnalyzer::new().analyze(&generator.programs(programs)),
            ));
        }
        out
    }

    fn topologies() -> Vec<(&'static str, Network)> {
        vec![
            ("linear:3", topology::linear(3, 10.0)),
            ("linear:4", topology::linear(4, 10.0)),
            ("linear:5", topology::linear(5, 10.0)),
            ("fattree:4", topology::fat_tree(4, 10.0)),
            ("table3:0", topology::table3_wan(0)),
        ]
    }

    /// The greedy plan and, where the search returns one within a second,
    /// the exact solver's (proven or incumbent: any feasible plan serves).
    fn plans(tdg: &Tdg, net: &Network) -> Vec<(&'static str, DeploymentPlan)> {
        let eps = Epsilon::loose();
        let mut out = Vec::new();
        if let Ok(plan) = GreedyHeuristic::new().deploy(tdg, net, &eps) {
            out.push(("greedy", plan));
        }
        let ctx = SearchContext::with_time_limit(Duration::from_secs(1));
        if let Ok(outcome) = OptimalSolver::new().solve(tdg, net, &eps, &ctx) {
            out.push(("exact", outcome.plan));
        }
        out
    }

    type Instance = (String, Tdg, Network, Vec<(&'static str, DeploymentPlan)>);

    /// Every (workload, topology) pair with its plans, solved once for the
    /// whole suite; pairs that admit no plan drop out.
    fn instances() -> &'static [Instance] {
        static INSTANCES: OnceLock<Vec<Instance>> = OnceLock::new();
        INSTANCES.get_or_init(|| {
            let mut out = Vec::new();
            for (workload, tdg) in workloads() {
                for (topo, net) in topologies() {
                    let plans = plans(&tdg, &net);
                    if !plans.is_empty() {
                        out.push((format!("{workload} on {topo}"), tdg.clone(), net, plans));
                    }
                }
            }
            assert!(out.len() >= 15, "only {} instances deploy", out.len());
            out.push(pins());
            out
        })
    }

    /// A hand-placed deployment for what the solver plans never show the
    /// slot interpreter: `Forward` on a port the packet lacks (the header
    /// becomes present with value 0), a `Min` fold into an absent
    /// accumulator (which installs the contribution, where folding into 0
    /// would not),
    /// two MATs of one table name on different switches (one register
    /// array across the hops of a packet), and a metadata field outside
    /// the wire contract (`lost` has no edge to its reader on the next
    /// switch, which reads 0 there: the plan diverges).
    fn pins() -> Instance {
        use hermes_dataplane::action::Action;
        use hermes_dataplane::fields::headers;
        use hermes_tdg::{AnalysisMode, DependencyType};

        let (acc, lost) = (Field::metadata("meta.acc", 4), Field::metadata("meta.lost", 4));
        let mat = |name: &str, ops: Vec<PrimitiveOp>| {
            let action = ops.into_iter().fold(Action::new(name), Action::with_op);
            Mat::builder(name).action(action).resource(0.2).build().expect("valid MAT")
        };
        let tdg = Tdg::from_mats_and_edges(
            vec![
                ("lost".to_owned(), mat("lost", vec![PrimitiveOp::SetConst { dst: lost.clone() }])),
                (
                    "count".to_owned(),
                    mat(
                        "first",
                        vec![
                            PrimitiveOp::Forward { port: Field::header("std.egress_port", 2) },
                            PrimitiveOp::Fold {
                                dst: acc.clone(),
                                srcs: vec![headers::ipv4_src()],
                                op: FoldOp::Min,
                            },
                            PrimitiveOp::RegisterOp { index: headers::ipv4_proto(), out: None },
                        ],
                    ),
                ),
                (
                    "count".to_owned(),
                    mat(
                        "second",
                        vec![
                            PrimitiveOp::Fold {
                                dst: acc.clone(),
                                srcs: vec![headers::ipv4_dst()],
                                op: FoldOp::Add,
                            },
                            PrimitiveOp::Copy { dst: headers::ipv4_dscp(), src: acc },
                            PrimitiveOp::RegisterOp {
                                index: headers::ipv4_proto(),
                                out: Some(headers::ipv4_ttl()),
                            },
                            PrimitiveOp::Copy { dst: headers::eth_type(), src: lost },
                        ],
                    ),
                ),
            ],
            vec![(1, 2, DependencyType::Action)],
            AnalysisMode::PaperLiteral,
        );
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let nodes: Vec<NodeId> = tdg.node_ids().collect();
        let mut plan = DeploymentPlan::new();
        for (node, switch, stage) in
            [(nodes[0], ids[0], 0), (nodes[1], ids[0], 1), (nodes[2], ids[1], 0)]
        {
            plan.place(StagePlacement { node, switch, stage, fraction: 0.2 });
        }
        let path = paths::shortest_path(&net, ids[0], ids[1]).expect("connected");
        plan.route(PlanRoute { from: ids[0], to: ids[1], path });
        ("pins on linear:2".to_owned(), tdg, net, vec![("hand", plan)])
    }

    /// `test_packet(seed)` plus a header and a metadata field no MAT of
    /// any instance touches.
    fn with_untouched(seed: u64) -> Packet {
        let mut pkt = test_packet(seed);
        pkt.set(Field::header("pins.tag", 2), seed);
        pkt.set(Field::metadata("pins.note", 2), seed);
        pkt
    }

    #[test]
    fn traces_and_reports_equal_the_per_packet_oracle() {
        let eps = Epsilon::loose();
        let seeds: Vec<u64> = SEEDS.collect();
        let mut multi_switch = 0;
        for (name, tdg, net, plans) in instances() {
            for (solver, plan) in plans {
                let ctx = format!("{name}, {solver}");
                let artifacts = generate(tdg, net, plan);
                let compiled = CompiledPlan::compile(tdg, plan, &artifacts)
                    .unwrap_or_else(|| panic!("{ctx}: solver plans are orderable"));
                assert_eq!(
                    compiled.visit_order().collect::<Vec<_>>(),
                    switch_visit_order(tdg, plan, &artifacts).expect("orderable"),
                    "{ctx}"
                );
                multi_switch += usize::from(compiled.visit_order().len() > 1);
                let packets =
                    seeds.iter().map(|&seed| test_packet(seed)).chain([with_untouched(7)]);
                for (i, pkt) in packets.enumerate() {
                    let ctx = format!("{ctx}, packet {i}");
                    let oracle =
                        run_distributed(tdg, plan, &artifacts, pkt.clone()).expect("orderable");
                    assert_eq!(compiled.run(pkt.clone()), oracle, "{ctx}");
                    assert_eq!(
                        emulator::run_distributed(tdg, plan, &artifacts, pkt.clone()),
                        Some(oracle),
                        "{ctx}"
                    );
                    let reference = run_reference(tdg, pkt.clone());
                    assert_eq!(compiled.run_reference(pkt.clone()), reference, "{ctx}");
                    assert_eq!(emulator::run_reference(tdg, pkt), Some(reference), "{ctx}");
                }
                let tag = Field::header("pins.tag", 2);
                assert_eq!(compiled.run(with_untouched(7)).packet.fields().get(&tag), Some(&7));
                let (report, generated) = validate::validate_plan(tdg, net, plan, &eps, &seeds);
                assert_eq!(report, validate_plan(tdg, net, plan, &eps, &seeds), "{ctx}");
                assert_eq!(generated, artifacts, "{ctx}");
                // A bound the plan breaks: the constraint failures, and no
                // packet run, on both sides.
                let tight = Epsilon::new(0.0, usize::MAX);
                assert_eq!(
                    validate::validate_plan(tdg, net, plan, &tight, &seeds).0,
                    validate_plan(tdg, net, plan, &tight, &seeds),
                    "{ctx}, tight bounds"
                );
            }
        }
        assert!(multi_switch >= 10, "only {multi_switch} plans cross a wire");
    }

    /// Both checkers over one transition and commit order: the whole
    /// transition, then each window on its own.
    fn assert_same_verdicts(t: &EpochTransition<'_>, commit_order: &[SwitchId], ctx: &str) -> bool {
        let seeds: Vec<u64> = SEEDS.collect();
        let verdict = mixed::check_transition(t, commit_order, &seeds);
        assert_eq!(verdict, check_transition(t, commit_order, &seeds), "{ctx}");
        for n in 0..=commit_order.len() {
            let committed: BTreeSet<SwitchId> = commit_order[..n].iter().copied().collect();
            assert_eq!(
                mixed::check_window(t, &committed, &seeds),
                check_window(t, &committed, &seeds),
                "{ctx}, window {n}"
            );
        }
        verdict.is_ok()
    }

    #[test]
    fn transition_verdicts_equal_the_per_packet_oracle() {
        let eps = Epsilon::loose();
        let (mut consistent, mut violating) = (0, 0);
        for (name, tdg, net, plans) in instances() {
            // Every ordered pair of this instance's plans (identity
            // included), and each plan against its own drain of the last
            // switch it occupies: transitions that move MATs.
            let mut sides: Vec<(String, DeploymentPlan)> =
                plans.iter().map(|(solver, plan)| ((*solver).to_owned(), plan.clone())).collect();
            for (solver, plan) in plans {
                let drained = *plan.occupied_switches().last().expect("non-empty plan");
                let opts = RedeployOptions::excluding([drained]);
                if let Ok(outcome) =
                    IncrementalDeployer::new().redeploy_with(tdg, plan, tdg, net, &eps, &opts)
                {
                    sides.push((format!("{solver} drained"), outcome.plan));
                }
            }
            let artifacts: Vec<DeploymentArtifacts> =
                sides.iter().map(|(_, plan)| generate(tdg, net, plan)).collect();
            for (i, (old_name, old_plan)) in sides.iter().enumerate() {
                for (j, (new_name, new_plan)) in sides.iter().enumerate() {
                    let t = EpochTransition {
                        tdg,
                        old_plan,
                        old_artifacts: &artifacts[i],
                        new_plan,
                        new_artifacts: &artifacts[j],
                    };
                    let ctx = format!("{name}: {old_name} -> {new_name}");
                    // The runtime's commit order (ascending switch id) and
                    // its reverse, so first violations differ.
                    let mut order: Vec<SwitchId> =
                        new_plan.occupied_switches().into_iter().collect();
                    for _ in 0..2 {
                        if assert_same_verdicts(&t, &order, &ctx) {
                            consistent += 1;
                        } else {
                            violating += 1;
                        }
                        order.reverse();
                    }
                }
            }
        }
        assert!(consistent >= 100 && violating >= 4, "{consistent} consistent, {violating} not");
    }

    /// A chain `a -> b -> …` of MATs, one per entry of `homes`: each hashes
    /// or copies the previous one's metadata, the last stamps a header.
    fn chain(homes: &[SwitchId], net: &Network) -> (Tdg, DeploymentPlan) {
        use hermes_dataplane::action::{Action, PrimitiveOp};
        use hermes_dataplane::fields::headers;
        use hermes_dataplane::mat::{Mat, MatchKind};
        use hermes_dataplane::program::Program;

        let field = |i: usize| Field::metadata(format!("meta.f{i}"), 4);
        let mut program = Program::builder("chain");
        for i in 0..homes.len() {
            let mut mat = Mat::builder(format!("t{i}")).resource(0.3);
            let action = if i == 0 {
                Action::new("hash")
                    .with_op(PrimitiveOp::Hash { dst: field(0), srcs: vec![headers::ipv4_src()] })
            } else {
                mat = mat.match_field(field(i - 1), MatchKind::Exact);
                let dst = if i + 1 == homes.len() { headers::ipv4_dst() } else { field(i) };
                Action::new("step").with_op(PrimitiveOp::Copy { dst, src: field(i - 1) })
            };
            program = program.table(mat.action(action).build().expect("valid MAT"));
        }
        let tdg = Tdg::from_program(
            &program.build().expect("valid program"),
            hermes_tdg::AnalysisMode::PaperLiteral,
        );
        let mut plan = DeploymentPlan::new();
        let order = tdg.topo_order().expect("a chain");
        for (stage, (&node, &switch)) in order.iter().zip(homes).enumerate() {
            plan.place(StagePlacement { node, switch, stage, fraction: 0.3 });
        }
        for pair in homes.windows(2) {
            if pair[0] != pair[1] {
                let path = paths::shortest_path(net, pair[0], pair[1]).expect("connected");
                plan.route(PlanRoute { from: pair[0], to: pair[1], path });
            }
        }
        (tdg, plan)
    }

    /// A window that skips a MAT whose only effect is a `Forward` on a port
    /// the packet lacks: `x`@s0, `f`@s1 becomes `f`@s0, `x`@s1, and s1
    /// commits first, so neither switch runs `f`. The packet differs from
    /// the reference only in whether the port header is present.
    #[test]
    fn header_presence_alone_is_a_divergence() {
        use hermes_dataplane::action::Action;
        use hermes_dataplane::fields::headers;
        use hermes_tdg::AnalysisMode;

        let mat = |name: &str, op: PrimitiveOp| {
            let action = Action::new(name).with_op(op);
            Mat::builder(name).action(action).resource(0.2).build().expect("valid MAT")
        };
        let tdg = Tdg::from_mats_and_edges(
            vec![
                ("x".to_owned(), mat("x", PrimitiveOp::SetConst { dst: headers::eth_type() })),
                (
                    "f".to_owned(),
                    mat("f", PrimitiveOp::Forward { port: Field::header("std.egress_port", 2) }),
                ),
            ],
            Vec::new(),
            AnalysisMode::PaperLiteral,
        );
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let nodes: Vec<NodeId> = tdg.node_ids().collect();
        let place = |homes: [SwitchId; 2]| {
            let mut plan = DeploymentPlan::new();
            for (&node, switch) in nodes.iter().zip(homes) {
                plan.place(StagePlacement { node, switch, stage: 0, fraction: 0.2 });
            }
            plan
        };
        let (old_plan, new_plan) = (place([ids[0], ids[1]]), place([ids[1], ids[0]]));
        let (old_art, new_art) = (generate(&tdg, &net, &old_plan), generate(&tdg, &net, &new_plan));
        let t = EpochTransition {
            tdg: &tdg,
            old_plan: &old_plan,
            old_artifacts: &old_art,
            new_plan: &new_plan,
            new_artifacts: &new_art,
        };
        assert!(!assert_same_verdicts(&t, &[ids[1], ids[0]], "skipped forward"));
        assert_eq!(
            mixed::check_window(&t, &[ids[1]].into(), &[0]),
            Err(MixedEpochViolation::Divergence { packet_seed: 0, committed: vec![ids[1]] })
        );
    }

    /// The violating transition of `mixed`'s own test: a@s0, b@s1 becomes
    /// both on s0, s0 commits first. Same seed, same committed set.
    #[test]
    fn the_moved_mat_violation_is_reported_identically() {
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let (tdg, old_plan) = chain(&[ids[0], ids[1]], &net);
        let (_, new_plan) = chain(&[ids[0], ids[0]], &net);
        let (old_art, new_art) = (generate(&tdg, &net, &old_plan), generate(&tdg, &net, &new_plan));
        let t = EpochTransition {
            tdg: &tdg,
            old_plan: &old_plan,
            old_artifacts: &old_art,
            new_plan: &new_plan,
            new_artifacts: &new_art,
        };
        assert!(!assert_same_verdicts(&t, &[ids[0]], "moved MAT"));
        assert_eq!(
            mixed::check_transition(&t, &[ids[0]], &[0, 1, 2, 3]),
            Err(MixedEpochViolation::Divergence { packet_seed: 0, committed: vec![ids[0]] })
        );
    }

    /// a@s0 -> b@s1 -> c@s0 passes the static verifier (every edge has its
    /// route) yet admits no visit order: both emulators decline, and
    /// nothing panics.
    #[test]
    fn a_cyclic_switch_dag_is_refused_on_both_sides() {
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let (tdg, plan) = chain(&[ids[0], ids[1], ids[0]], &net);
        let eps = Epsilon::loose();
        assert!(verify(&tdg, &net, &plan, &eps).is_empty(), "the verifier does not see the cycle");
        let artifacts = generate(&tdg, &net, &plan);
        assert_eq!(switch_visit_order(&tdg, &plan, &artifacts), None);
        assert_eq!(plan.switch_visit_order(&tdg), None);
        assert!(CompiledPlan::compile(&tdg, &plan, &artifacts).is_none());
        assert_eq!(emulator::run_distributed(&tdg, &plan, &artifacts, test_packet(0)), None);
        assert!(!emulator::equivalent(&tdg, &plan, &artifacts, test_packet(0)));
        let (report, _) = validate::validate_plan(&tdg, &net, &plan, &eps, &[0, 1]);
        assert_eq!(report.failures, vec![ValidationFailure::UnorderedPlan]);

        let (_, straight) = chain(&[ids[0], ids[0], ids[1]], &net);
        let straight_art = generate(&tdg, &net, &straight);
        let t = EpochTransition {
            tdg: &tdg,
            old_plan: &plan,
            old_artifacts: &artifacts,
            new_plan: &straight,
            new_artifacts: &straight_art,
        };
        assert_eq!(
            mixed::check_transition(&t, &ids, &[0]),
            Err(MixedEpochViolation::UnorderedOldPlan)
        );
        assert_eq!(check_transition(&t, &ids, &[0]), Err(MixedEpochViolation::UnorderedOldPlan));
        let flow = crate::simulate::PlanFlowConfig::default();
        assert_eq!(crate::simulate::simulate_plan(&tdg, &net, &plan, &artifacts, &flow), None);
    }

    #[test]
    fn register_state_accumulates() {
        let mut regs = Registers::default();
        assert_eq!(regs.read_modify("t", 5), 1);
        assert_eq!(regs.read_modify("t", 5), 2);
        assert_eq!(regs.read_modify("t", 6), 1);
        assert_eq!(regs.read_modify("u", 5), 1);
    }

    #[test]
    fn dropping_piggybacked_metadata_breaks_semantics() {
        // A two-MAT chain: `a` hashes headers into meta.idx, `b` copies the
        // metadata into a header field. Splitting them across switches
        // WITHOUT piggybacking meta.idx must corrupt the result.
        use hermes_dataplane::fields::headers;
        let net = topology::linear(2, 10.0);
        let ids: Vec<SwitchId> = net.switch_ids().collect();
        let (tdg, _) = chain(&[ids[0], ids[1]], &net);
        let reference = run_reference(&tdg, test_packet(9));

        // "Broken deployment": execute a, strip ALL metadata, execute b.
        let mut pkt = test_packet(9);
        let mut regs = Registers::default();
        let order = tdg.topo_order().unwrap();
        execute_mat(&tdg.node(order[0]).mat, "t0", &mut pkt, &mut regs);
        retain_for_wire(&mut pkt, &BTreeSet::new()); // no piggyback contract
        execute_mat(&tdg.node(order[1]).mat, "t1", &mut pkt, &mut regs);
        assert_ne!(
            reference.get(&headers::ipv4_dst()),
            pkt.get(&headers::ipv4_dst()),
            "losing meta.f0 must corrupt t1's output"
        );
    }
}
