//! A functional emulator of the distributed pipeline.
//!
//! Executes packets through a deployed program the way the real testbed
//! would: the packet visits the occupied switches in dependency order; on
//! each switch its stages run in sequence, every MAT executing its first
//! action over a symbolic field store (hashes, copies, register reads);
//! when the packet leaves a switch, **only header fields and the
//! piggyback contract survive** — any metadata the deployment forgot to
//! piggyback is lost, exactly as it would be on hardware.
//!
//! Two things fall out of this:
//!
//! 1. **Semantic validation of Goal #2** — running the same packet through
//!    the distributed deployment and through a single giant logical switch
//!    must produce identical final field values ([`equivalent`]).
//! 2. **True on-wire accounting** — metadata produced on switch 1 but
//!    consumed on switch 3 must also transit switch 2, so the bytes on a
//!    hop can exceed the paper's pairwise `A_max` ([`Trace::wire_bytes`]).

use crate::config::{DeploymentArtifacts, StageEntry};
use hermes_core::DeploymentPlan;
use hermes_dataplane::action::{FoldOp, PrimitiveOp};
use hermes_dataplane::fields::Field;
use hermes_dataplane::Mat;
use hermes_net::SwitchId;
use hermes_tdg::Tdg;
use std::collections::{BTreeMap, BTreeSet};

/// A packet as the pipeline sees it: symbolic 64-bit field values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Packet {
    fields: BTreeMap<Field, u64>,
    dropped: bool,
}

impl Packet {
    /// A packet with the given initial header values.
    pub fn with_headers<I: IntoIterator<Item = (Field, u64)>>(headers: I) -> Self {
        Packet { fields: headers.into_iter().collect(), dropped: false }
    }

    /// Current value of a field (absent fields read as 0, like
    /// uninitialized metadata in a real pipeline).
    pub fn get(&self, field: &Field) -> u64 {
        self.fields.get(field).copied().unwrap_or(0)
    }

    /// Sets a field.
    pub fn set(&mut self, field: Field, value: u64) {
        self.fields.insert(field, value);
    }

    /// Whether some MAT dropped the packet.
    pub fn is_dropped(&self) -> bool {
        self.dropped
    }

    /// All fields currently on the packet.
    pub fn fields(&self) -> &BTreeMap<Field, u64> {
        &self.fields
    }

    /// Keeps headers plus the given metadata set; all other metadata is
    /// stripped (what happens on egress without a piggyback entry).
    pub(crate) fn retain_for_wire(&mut self, piggyback: &BTreeSet<&Field>) {
        self.fields.retain(|f, _| f.is_header() || piggyback.contains(f));
    }
}

/// Deterministic "hash": good enough to detect value mismatches.
fn mix(seed: u64, value: u64) -> u64 {
    let mut z = seed ^ value.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// Per-deployment register state: each stateful table owns an array.
#[derive(Debug, Clone, Default)]
pub struct Registers {
    arrays: BTreeMap<String, BTreeMap<u64, u64>>,
}

impl Registers {
    fn read_modify(&mut self, table: &str, index: u64) -> u64 {
        let slot = self.arrays.entry(table.to_owned()).or_default().entry(index).or_insert(0);
        *slot += 1;
        *slot
    }
}

/// Executes one MAT over the packet: the first action of the table runs
/// (rule lookup is control-plane state; data-plane semantics — who writes
/// what from what — are what equivalence needs).
pub(crate) fn execute_mat(mat: &Mat, table_name: &str, pkt: &mut Packet, regs: &mut Registers) {
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
                // The per-packet contribution is a pure function of the
                // sources; it combines into the accumulator through the
                // actual monoid so that fold order is unobservable — the
                // property the state-access relaxation relies on.
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
                    contrib // monoid identity: first fold installs the value
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

/// Execution record of one packet through a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Final packet state.
    pub packet: Packet,
    /// Switches visited, in order.
    pub visits: Vec<SwitchId>,
    /// Metadata bytes on the wire after each visited switch (the packet's
    /// real piggyback load per hop, pass-through included).
    pub wire_bytes: Vec<u32>,
}

impl Trace {
    /// The largest piggyback load on any hop.
    pub fn max_wire_bytes(&self) -> u32 {
        self.wire_bytes.iter().copied().max().unwrap_or(0)
    }
}

/// One MAT as the emulator executes it: the table and the name its
/// register state is keyed by.
#[derive(Debug, Clone, Copy)]
struct Step<'a> {
    mat: &'a Mat,
    table: &'a str,
}

/// One switch of a compiled visit order: what runs there and what
/// survives its egress.
#[derive(Debug, Clone)]
pub(crate) struct Hop<'a> {
    pub(crate) switch: SwitchId,
    /// The switch's MATs in stage order (ties: node id); a MAT split over
    /// several stages runs once, at its first slice.
    steps: Vec<Step<'a>>,
    /// The wire contract of the hop that leaves this switch: metadata
    /// written on this or an earlier switch of the order and still
    /// consumed on a later one. Empty after the last switch.
    wire: BTreeSet<&'a Field>,
    wire_bytes: u32,
}

impl Hop<'_> {
    /// Executes the switch over the packet, then strips everything the
    /// hop's wire contract does not carry.
    pub(crate) fn process(&self, pkt: &mut Packet, regs: &mut Registers) {
        for step in &self.steps {
            execute_mat(step.mat, step.table, pkt, regs);
        }
        pkt.retain_for_wire(&self.wire);
    }
}

/// Compiles `plan`'s side of every hop of `order`: per switch, the MAT
/// list of its config in `artifacts` (none for a switch the artifacts do
/// not configure) and the wire contract `plan` implies. One pass over the
/// edges: a dependency from rank `i` to rank `j > i` puts its source's
/// written metadata on hops `i..j`, pass-through hops included; a source
/// with several dependents reaches as far as its farthest one.
///
/// `order` need not be `plan`'s own visit order — the mixed-epoch check
/// compiles the new plan along the old plan's route. Dependencies that
/// leave the order or run against it contribute nothing, exactly as no
/// switch "already visited" feeds a switch "still to come" through them.
pub(crate) fn compile_hops<'a>(
    tdg: &'a Tdg,
    plan: &DeploymentPlan,
    artifacts: &'a DeploymentArtifacts,
    order: &[SwitchId],
) -> Vec<Hop<'a>> {
    let rank: BTreeMap<SwitchId, usize> = order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
    let node_rank: Vec<Option<usize>> = plan
        .switch_assignment(tdg.node_count())
        .into_iter()
        .map(|s| s.and_then(|s| rank.get(&s).copied()))
        .collect();
    // Per source node, the rank of its farthest downstream dependent.
    let mut reach: Vec<usize> = vec![0; tdg.node_count()];
    for e in tdg.edges() {
        if let (Some(_), Some(to)) = (node_rank[e.from.index()], node_rank[e.to.index()]) {
            let slot = &mut reach[e.from.index()];
            *slot = (*slot).max(to);
        }
    }
    let mut wires: Vec<BTreeSet<&Field>> = vec![BTreeSet::new(); order.len()];
    for id in tdg.node_ids() {
        let Some(from) = node_rank[id.index()] else { continue };
        if from < reach[id.index()] {
            for wire in &mut wires[from..reach[id.index()]] {
                wire.extend(tdg.node(id).mat.written_metadata());
            }
        }
    }

    order
        .iter()
        .zip(wires)
        .map(|(&switch, wire)| {
            let mut entries: Vec<(usize, &StageEntry)> =
                artifacts.switches.get(&switch).map_or_else(Vec::new, |config| {
                    config
                        .stages
                        .iter()
                        .flat_map(|(stage, list)| list.iter().map(move |e| (*stage, e)))
                        .collect()
                });
            entries.sort_by_key(|(stage, e)| (*stage, e.node));
            let mut seen = BTreeSet::new();
            let steps = entries
                .into_iter()
                .filter(|(_, e)| seen.insert(e.node))
                .map(|(_, e)| Step { mat: &tdg.node(e.node).mat, table: &e.table })
                .collect();
            let wire_bytes = wire.iter().map(|f| f.size_bytes()).sum();
            Hop { switch, steps, wire, wire_bytes }
        })
        .collect()
}

/// Every MAT of the TDG in topological order: the single giant logical
/// switch the distributed execution is compared against.
fn compile_reference(tdg: &Tdg) -> Vec<Step<'_>> {
    tdg.topo_order()
        .expect("TDGs are DAGs")
        .iter()
        .map(|&id| {
            let node = tdg.node(id);
            Step { mat: &node.mat, table: &node.name }
        })
        .collect()
}

/// Executes `steps` in order over fresh register state.
fn run_steps(steps: &[Step<'_>], mut pkt: Packet) -> Packet {
    let mut regs = Registers::default();
    for step in steps {
        execute_mat(step.mat, step.table, &mut pkt, &mut regs);
    }
    pkt
}

/// A deployment compiled for emulation: everything about running a packet
/// that does not depend on the packet — the switch visit order, each
/// switch's ordered MAT list, each hop's wire contract, and the reference
/// program's MAT order — derived once from `(tdg, plan, artifacts)`.
/// Running a packet then costs O(MATs + Σ hop fields).
#[derive(Debug, Clone)]
pub struct CompiledPlan<'a> {
    pub(crate) hops: Vec<Hop<'a>>,
    reference: Vec<Step<'a>>,
}

impl<'a> CompiledPlan<'a> {
    /// Compiles the deployment. `None` when the plan's switch-level
    /// dependency graph is cyclic, so that no visit order exists (such
    /// plans never pass [`hermes_core::verify()`]).
    pub fn compile(
        tdg: &'a Tdg,
        plan: &DeploymentPlan,
        artifacts: &'a DeploymentArtifacts,
    ) -> Option<Self> {
        let order = plan.switch_visit_order(tdg)?;
        Some(CompiledPlan {
            hops: compile_hops(tdg, plan, artifacts, &order),
            reference: compile_reference(tdg),
        })
    }

    /// The switches a packet visits, in order.
    pub fn visit_order(&self) -> impl ExactSizeIterator<Item = SwitchId> + '_ {
        self.hops.iter().map(|h| h.switch)
    }

    /// Runs `pkt` through the distributed deployment: per visited switch
    /// its MATs execute in stage order, and on egress the packet keeps
    /// headers plus every metadata field a *later* switch still consumes
    /// (the piggyback contract, transitively closed over pass-through
    /// hops).
    pub fn run(&self, pkt: Packet) -> Trace {
        Trace {
            packet: self.run_hops(pkt),
            visits: self.visit_order().collect(),
            wire_bytes: self.hops.iter().map(|h| h.wire_bytes).collect(),
        }
    }

    fn run_hops(&self, mut pkt: Packet) -> Packet {
        let mut regs = Registers::default();
        for hop in &self.hops {
            hop.process(&mut pkt, &mut regs);
        }
        pkt
    }

    /// Runs `pkt` through the reference deployment: every MAT on a single
    /// giant logical switch in topological order (the semantics of the
    /// original merged program).
    pub fn run_reference(&self, pkt: Packet) -> Packet {
        run_steps(&self.reference, pkt)
    }

    /// `true` iff the distributed execution of `pkt` ends in the same
    /// observable state as the reference execution.
    pub fn equivalent(&self, pkt: Packet) -> bool {
        same_observable(&self.run_reference(pkt.clone()), &self.run_hops(pkt))
    }
}

/// Runs one packet through the distributed deployment; `None` when the
/// plan's switch-level dependency graph is cyclic. Compiles the plan for
/// that one packet: to run many, [`CompiledPlan::compile`] once.
pub fn run_distributed(
    tdg: &Tdg,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
    pkt: Packet,
) -> Option<Trace> {
    Some(CompiledPlan::compile(tdg, plan, artifacts)?.run(pkt))
}

/// The field-level analogue of the paper's pairwise `A_max`: for each
/// ordered switch pair, the byte size of the *union* of metadata fields
/// written by sources of its crossing edges. Unlike the per-edge sum
/// (which double-counts a field shared by several crossing edges), this is
/// a true lower bound on what must ride the wire between the pair.
pub fn pairwise_field_bytes(tdg: &Tdg, plan: &DeploymentPlan) -> u64 {
    let mut per_pair: BTreeMap<(SwitchId, SwitchId), BTreeSet<&Field>> = BTreeMap::new();
    let assign = plan.switch_assignment(tdg.node_count());
    for e in tdg.edges() {
        let (Some(u), Some(v)) = (assign[e.from.index()], assign[e.to.index()]) else {
            continue;
        };
        if u != v && e.bytes > 0 {
            per_pair.entry((u, v)).or_default().extend(tdg.node(e.from).mat.written_metadata());
        }
    }
    per_pair
        .values()
        .map(|fields| fields.iter().map(|f| u64::from(f.size_bytes())).sum())
        .max()
        .unwrap_or(0)
}

/// Runs `pkt` through the *reference* deployment: every MAT on a single
/// giant logical switch in topological order (the semantics of the
/// original merged program).
pub fn run_reference(tdg: &Tdg, pkt: Packet) -> Packet {
    run_steps(&compile_reference(tdg), pkt)
}

/// `true` iff the distributed execution ends with exactly the same field
/// values as the reference execution — dependency preservation (Goal #2),
/// observed rather than assumed. A plan with a cyclic switch-level
/// dependency graph has no distributed execution and is not equivalent.
/// Compiles the plan for that one packet: to check many,
/// [`CompiledPlan::compile`] once.
pub fn equivalent(
    tdg: &Tdg,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
    pkt: Packet,
) -> bool {
    CompiledPlan::compile(tdg, plan, artifacts).is_some_and(|compiled| compiled.equivalent(pkt))
}

/// Observable equality of two final packet states: header fields plus
/// drop status. Metadata is pipeline-internal and legitimately stripped
/// at the final egress, so it does not participate.
pub(crate) fn same_observable(a: &Packet, b: &Packet) -> bool {
    let headers = |p: &Packet| -> BTreeMap<Field, u64> {
        p.fields().iter().filter(|(f, _)| f.is_header()).map(|(f, v)| (f.clone(), *v)).collect()
    };
    headers(a) == headers(b) && a.is_dropped() == b.is_dropped()
}

/// The canonical test packet: every header field of the library programs,
/// seeded deterministically.
pub fn test_packet(seed: u64) -> Packet {
    use hermes_dataplane::fields::headers as h;
    let fields = [
        h::eth_src(),
        h::eth_dst(),
        h::eth_type(),
        h::ipv4_src(),
        h::ipv4_dst(),
        h::ipv4_ttl(),
        h::ipv4_dscp(),
        h::ipv4_proto(),
        h::l4_sport(),
        h::l4_dport(),
        h::tcp_flags(),
        h::vlan_id(),
    ];
    Packet::with_headers(fields.into_iter().enumerate().map(|(i, f)| (f, mix(seed, i as u64))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::generate;
    use hermes_core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;
    use hermes_net::topology;

    fn deployed() -> (Tdg, DeploymentPlan, DeploymentArtifacts) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(3, 10.0);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).unwrap();
        let art = generate(&tdg, &net, &plan);
        (tdg, plan, art)
    }

    #[test]
    fn distributed_equals_reference_for_many_packets() {
        let (tdg, plan, art) = deployed();
        for seed in 0..20u64 {
            assert!(
                equivalent(&tdg, &plan, &art, test_packet(seed)),
                "packet {seed} diverged: the deployment broke a dependency"
            );
        }
    }

    #[test]
    fn dropping_piggybacked_metadata_breaks_semantics() {
        // A two-MAT chain: `a` hashes headers into meta.idx, `b` copies the
        // metadata into a header field. Splitting them across switches
        // WITHOUT piggybacking meta.idx must corrupt the result.
        use hermes_dataplane::action::{Action, PrimitiveOp};
        use hermes_dataplane::fields::headers;
        use hermes_dataplane::mat::{Mat, MatchKind};
        use hermes_dataplane::program::Program;
        use hermes_tdg::AnalysisMode;

        let idx = Field::metadata("meta.idx", 4);
        let a =
            Mat::builder("a")
                .action(Action::new("hash").with_op(PrimitiveOp::Hash {
                    dst: idx.clone(),
                    srcs: vec![headers::ipv4_src()],
                }))
                .resource(0.5)
                .build()
                .unwrap();
        let b = Mat::builder("b")
            .match_field(idx.clone(), MatchKind::Exact)
            .action(
                Action::new("stamp")
                    .with_op(PrimitiveOp::Copy { dst: headers::ipv4_dst(), src: idx.clone() }),
            )
            .resource(0.5)
            .build()
            .unwrap();
        let p = Program::builder("p").table(a).table(b).build().unwrap();
        let tdg = Tdg::from_program(&p, AnalysisMode::PaperLiteral);
        let reference = run_reference(&tdg, test_packet(9));

        // "Broken deployment": execute a, strip ALL metadata, execute b.
        let mut pkt = test_packet(9);
        let mut regs = Registers::default();
        let order = tdg.topo_order().unwrap();
        execute_mat(&tdg.node(order[0]).mat, "a", &mut pkt, &mut regs);
        pkt.retain_for_wire(&Default::default()); // no piggyback contract
        execute_mat(&tdg.node(order[1]).mat, "b", &mut pkt, &mut regs);
        assert_ne!(
            reference.get(&headers::ipv4_dst()),
            pkt.get(&headers::ipv4_dst()),
            "losing meta.idx must corrupt b's output"
        );
    }

    #[test]
    fn wire_bytes_at_least_pairwise_field_union() {
        let (tdg, plan, art) = deployed();
        let trace = run_distributed(&tdg, &plan, &art, test_packet(1)).expect("acyclic plan");
        // Pass-through hops can only add to the per-pair field union.
        // (The paper's per-edge sum can exceed the wire load when several
        // crossing edges share a field — the union is the true bound.)
        assert!(
            u64::from(trace.max_wire_bytes()) >= pairwise_field_bytes(&tdg, &plan),
            "wire {} < field union {}",
            trace.max_wire_bytes(),
            pairwise_field_bytes(&tdg, &plan)
        );
    }

    #[test]
    fn visits_cover_every_occupied_switch() {
        let (tdg, plan, art) = deployed();
        let trace = run_distributed(&tdg, &plan, &art, test_packet(2)).expect("acyclic plan");
        assert_eq!(trace.visits.len(), plan.occupied_switch_count());
    }

    #[test]
    fn reference_execution_is_deterministic() {
        let (tdg, ..) = deployed();
        let a = run_reference(&tdg, test_packet(3));
        let b = run_reference(&tdg, test_packet(3));
        assert_eq!(a, b);
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
    fn packet_reads_absent_fields_as_zero() {
        let pkt = Packet::default();
        assert_eq!(pkt.get(&Field::metadata("meta.x", 4)), 0);
        assert!(!pkt.is_dropped());
    }
}
