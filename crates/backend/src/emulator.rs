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
//!
//! A deployment is compiled before any packet runs ([`CompiledPlan`]):
//! every field the TDG's MATs touch gets a dense slot, every MAT's first
//! action becomes a list of slot operations, every table name a register
//! array, and every hop's egress a slot mask. A packet then runs as a
//! value vector plus a presence bitset; [`Packet`] is only its input and
//! output form.

use crate::config::{DeploymentArtifacts, StageEntry};
use hermes_core::DeploymentPlan;
use hermes_dataplane::action::{FoldOp, PrimitiveOp};
use hermes_dataplane::fields::Field;
use hermes_net::SwitchId;
use hermes_tdg::Tdg;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::sync::OnceLock;

/// A packet as the pipeline sees it: symbolic 64-bit field values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Packet {
    pub(crate) fields: BTreeMap<Field, u64>,
    pub(crate) dropped: bool,
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
}

/// Deterministic "hash": good enough to detect value mismatches.
pub(crate) fn mix(seed: u64, value: u64) -> u64 {
    let mut z = seed ^ value.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

pub(crate) fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
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

/// A slot: the dense index of a field in a [`Code`].
type Slot = usize;

/// One primitive operation of a MAT's first action, over slots. Source
/// lists are ranges of [`Code::operands`].
#[derive(Debug, Clone)]
enum Op {
    /// `SetConst`: `dst = value` (the action's name seed).
    Set { dst: Slot, value: u64 },
    /// `dst = src`.
    Copy { dst: Slot, src: Slot },
    /// `Compute` (seeded by the action's name) and `Hash` (seeded by 0):
    /// `dst` = the sources folded through [`mix`] from `seed`.
    Mix { dst: Slot, seed: u64, srcs: Range<usize> },
    /// Read-modify-write of the step's register array at `index`.
    Register { index: Slot, out: Option<Slot> },
    /// Folds the sources' contribution into the accumulator `dst`.
    Fold { dst: Slot, op: FoldOp, srcs: Range<usize> },
    /// Marks the packet dropped.
    Drop,
    /// Makes `port` present, keeping its value (0 when absent).
    Forward { port: Slot },
}

/// A set of slots, one bit each, as wide as its [`Code`]'s slot count
/// (`FieldSet` holds only ids a `FieldTable` issued).
#[derive(Debug, Clone)]
struct Slots(Vec<u64>);

impl Slots {
    fn new(slots: usize) -> Self {
        Slots(vec![0; slots.div_ceil(64)])
    }

    fn insert(&mut self, slot: Slot) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    fn contains(&self, slot: Slot) -> bool {
        self.0[slot / 64] & (1 << (slot % 64)) != 0
    }

    fn intersect_with(&mut self, other: &Slots) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a &= b;
        }
    }

    fn union_with(&mut self, other: &Slots) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn iter(&self) -> impl Iterator<Item = Slot> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i * 64 + bit
                })
            })
        })
    }
}

/// A packet in slot form: one value per slot, which slots are present,
/// and whether a MAT dropped it. An absent slot reads as 0 whatever value
/// it last held.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    values: Vec<u64>,
    present: Slots,
    dropped: bool,
}

impl Frame {
    fn get(&self, slot: Slot) -> u64 {
        if self.present.contains(slot) {
            self.values[slot]
        } else {
            0
        }
    }

    fn set(&mut self, slot: Slot, value: u64) {
        self.values[slot] = value;
        self.present.insert(slot);
    }
}

/// Register state of one packet run, per (register array, index).
pub(crate) type Registers = BTreeMap<(usize, u64), u64>;

/// One MAT as a hop or the reference runs it: its node's ops and the
/// register array of the table name it is installed under.
#[derive(Debug, Clone, Copy)]
struct Step {
    node: usize,
    array: usize,
}

/// One switch of a compiled visit order: what runs there and what
/// survives its egress.
#[derive(Debug, Clone)]
pub(crate) struct Hop {
    pub(crate) switch: SwitchId,
    /// The switch's MATs in stage order (ties: node id); a MAT split over
    /// several stages runs once, at its first slice.
    steps: Vec<Step>,
    /// The slots that survive egress: every header, plus the wire
    /// contract of the hop that leaves this switch — metadata written on
    /// this or an earlier switch of the order and still consumed on a
    /// later one. Headers only after the last switch.
    keep: Slots,
    wire_bytes: u32,
}

/// What every plan compiled over one TDG shares: the slot of each field,
/// each node's first action as slot ops, and the register array of each
/// table name. The mixed-epoch gate compiles the old and the new plan's
/// hops against one `Code`.
///
/// Fields are interned by reference into the TDG (and into the static
/// [`test_headers`]): a TDG's fields are nearly all distinct, so an
/// interner that clones each one into an owned key, as `FieldTable`
/// does, would cost most of a compile.
#[derive(Debug, Clone)]
pub(crate) struct Code<'a> {
    /// Per slot: its field.
    fields: Vec<&'a Field>,
    slot: HashMap<&'a Field, Slot>,
    headers: Slots,
    ops: Vec<Op>,
    operands: Vec<Slot>,
    /// Per node id: its first action's range of `ops`.
    node_ops: Vec<Range<usize>>,
    /// Per node id: the range of `written` holding the slots of the
    /// metadata it writes (what a dependency on it puts on the wire).
    node_written: Vec<Range<usize>>,
    written: Vec<Slot>,
    arrays: HashMap<&'a str, usize>,
}

impl<'a> Code<'a> {
    /// Slots for every field a MAT of `tdg` reads or writes and for the
    /// headers of [`test_packet`], and every node's ops.
    fn new(tdg: &'a Tdg) -> Self {
        // A capacity hint: the written and action-read sets of every MAT.
        let fields = test_headers().len()
            + tdg
                .nodes()
                .iter()
                .map(|n| n.mat.written_fields().len() + n.mat.action_read_fields().len())
                .sum::<usize>();
        let mut code = Code {
            fields: Vec::with_capacity(fields),
            slot: HashMap::with_capacity(fields),
            headers: Slots::new(0),
            ops: Vec::new(),
            operands: Vec::new(),
            node_ops: Vec::with_capacity(tdg.node_count()),
            node_written: Vec::with_capacity(tdg.node_count()),
            written: Vec::new(),
            arrays: HashMap::with_capacity(tdg.node_count()),
        };
        for node in tdg.nodes() {
            let start = code.ops.len();
            if let Some(action) = node.mat.actions().first() {
                let seed = name_seed(action.name());
                for op in action.ops() {
                    let op = code.compile_op(op, seed);
                    code.ops.push(op);
                }
            }
            code.node_ops.push(start..code.ops.len());
            let start = code.written.len();
            for field in node.mat.written_metadata() {
                let slot = code.intern(field);
                code.written.push(slot);
            }
            code.node_written.push(start..code.written.len());
        }
        for field in test_headers() {
            code.intern(field);
        }
        code.headers = Slots::new(code.fields.len());
        for (slot, field) in code.fields.iter().enumerate() {
            if field.is_header() {
                code.headers.insert(slot);
            }
        }
        code
    }

    fn intern(&mut self, field: &'a Field) -> Slot {
        let next = self.fields.len();
        *self.slot.entry(field).or_insert_with(|| {
            self.fields.push(field);
            next
        })
    }

    /// The slots of `fields`, as a range of `operands`.
    fn operands(&mut self, fields: &'a [Field]) -> Range<usize> {
        let start = self.operands.len();
        for field in fields {
            let slot = self.intern(field);
            self.operands.push(slot);
        }
        start..self.operands.len()
    }

    fn compile_op(&mut self, op: &'a PrimitiveOp, seed: u64) -> Op {
        match op {
            PrimitiveOp::SetConst { dst } => Op::Set { dst: self.intern(dst), value: seed },
            PrimitiveOp::Copy { dst, src } => {
                Op::Copy { dst: self.intern(dst), src: self.intern(src) }
            }
            PrimitiveOp::Compute { dst, srcs } => {
                Op::Mix { dst: self.intern(dst), seed, srcs: self.operands(srcs) }
            }
            PrimitiveOp::Hash { dst, srcs } => {
                Op::Mix { dst: self.intern(dst), seed: 0, srcs: self.operands(srcs) }
            }
            PrimitiveOp::RegisterOp { index, out } => Op::Register {
                index: self.intern(index),
                out: out.as_ref().map(|out| self.intern(out)),
            },
            PrimitiveOp::Fold { dst, srcs, op } => {
                Op::Fold { dst: self.intern(dst), op: *op, srcs: self.operands(srcs) }
            }
            PrimitiveOp::Drop => Op::Drop,
            PrimitiveOp::Forward { port } => Op::Forward { port: self.intern(port) },
        }
    }

    fn step(&mut self, node: usize, table: &'a str) -> Step {
        let next = self.arrays.len();
        Step { node, array: *self.arrays.entry(table).or_insert(next) }
    }

    /// Every MAT of the TDG in topological order: the single giant logical
    /// switch the distributed execution is compared against. `None` when
    /// the TDG is cyclic.
    fn reference(&mut self, tdg: &'a Tdg) -> Option<Vec<Step>> {
        Some(
            tdg.topo_order()?.iter().map(|&id| self.step(id.index(), &tdg.node(id).name)).collect(),
        )
    }

    /// Compiles `plan`'s side of every hop of `order`: per switch, the MAT
    /// list of its config in `artifacts` (none for a switch the artifacts
    /// do not configure) and the wire contract `plan` implies. One pass
    /// over the edges: a dependency from rank `i` to rank `j > i` puts its
    /// source's written metadata on hops `i..j`, pass-through hops
    /// included; a source with several dependents reaches as far as its
    /// farthest one.
    ///
    /// `order` need not be `plan`'s own visit order — the mixed-epoch
    /// check compiles the new plan along the old plan's route.
    /// Dependencies that leave the order or run against it contribute
    /// nothing, exactly as no switch "already visited" feeds a switch
    /// "still to come" through them.
    pub(crate) fn hops(
        &mut self,
        tdg: &Tdg,
        plan: &DeploymentPlan,
        artifacts: &'a DeploymentArtifacts,
        order: &[SwitchId],
    ) -> Vec<Hop> {
        let rank: BTreeMap<SwitchId, usize> =
            order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
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
        let mut wires: Vec<Slots> = vec![Slots::new(self.fields.len()); order.len()];
        for (node, &from) in node_rank.iter().enumerate() {
            let Some(from) = from else { continue };
            for wire in wires.iter_mut().take(reach[node]).skip(from) {
                for &slot in &self.written[self.node_written[node].clone()] {
                    wire.insert(slot);
                }
            }
        }

        order
            .iter()
            .zip(wires)
            .map(|(&switch, mut keep)| {
                let wire_bytes = keep.iter().map(|slot| self.fields[slot].size_bytes()).sum();
                keep.union_with(&self.headers);
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
                    .map(|(_, e)| self.step(e.node.index(), &e.table))
                    .collect();
                Hop { switch, steps, keep, wire_bytes }
            })
            .collect()
    }

    /// `pkt` in slot form, and the fields of `pkt` no MAT touches (which
    /// only an egress can remove).
    fn load(&self, pkt: &Packet) -> (Frame, Vec<(Field, u64)>) {
        let mut frame = Frame {
            values: vec![0; self.fields.len()],
            present: Slots::new(self.fields.len()),
            dropped: pkt.dropped,
        };
        let mut untouched = Vec::new();
        for (field, &value) in &pkt.fields {
            match self.slot.get(field) {
                Some(&slot) => frame.set(slot, value),
                None => untouched.push((field.clone(), value)),
            }
        }
        (frame, untouched)
    }

    /// The packet of `frame` plus the untouched fields still on it.
    fn unload(&self, frame: &Frame, untouched: Vec<(Field, u64)>) -> Packet {
        let mut fields: BTreeMap<Field, u64> = untouched.into_iter().collect();
        for slot in frame.present.iter() {
            fields.insert(self.fields[slot].clone(), frame.values[slot]);
        }
        Packet { fields, dropped: frame.dropped }
    }

    /// The test packet of `seed` in slot form (its headers all have slots).
    pub(crate) fn test_frame(&self, seed: u64) -> Frame {
        self.load(&test_packet(seed)).0
    }

    fn execute(&self, step: Step, frame: &mut Frame, regs: &mut Registers) {
        for op in &self.ops[self.node_ops[step.node].clone()] {
            match *op {
                Op::Set { dst, value } => frame.set(dst, value),
                Op::Copy { dst, src } => {
                    let v = frame.get(src);
                    frame.set(dst, v);
                }
                Op::Mix { dst, seed, ref srcs } => {
                    let v =
                        self.operands[srcs.clone()].iter().fold(seed, |v, &s| mix(v, frame.get(s)));
                    frame.set(dst, v);
                }
                Op::Register { index, out } => {
                    let slot = regs.entry((step.array, frame.get(index))).or_insert(0);
                    *slot += 1;
                    let value = *slot;
                    if let Some(out) = out {
                        frame.set(out, value);
                    }
                }
                Op::Fold { dst, op, ref srcs } => {
                    // The per-packet contribution is a pure function of the
                    // sources; it combines into the accumulator through the
                    // actual monoid so that fold order is unobservable — the
                    // property the state-access relaxation relies on.
                    let contrib =
                        self.operands[srcs.clone()].iter().fold(0u64, |v, &s| mix(v, frame.get(s)));
                    let v = if frame.present.contains(dst) {
                        let acc = frame.values[dst];
                        match op {
                            FoldOp::Add => acc.wrapping_add(contrib),
                            FoldOp::Max => acc.max(contrib),
                            FoldOp::Min => acc.min(contrib),
                            FoldOp::Or => acc | contrib,
                        }
                    } else {
                        contrib // monoid identity: first fold installs the value
                    };
                    frame.set(dst, v);
                }
                Op::Drop => frame.dropped = true,
                Op::Forward { port } => {
                    let v = frame.get(port);
                    frame.set(port, v);
                }
            }
        }
    }

    /// Executes the switch over the packet, then strips everything the
    /// hop's wire contract does not carry.
    pub(crate) fn process(&self, hop: &Hop, frame: &mut Frame, regs: &mut Registers) {
        for &step in &hop.steps {
            self.execute(step, frame, regs);
        }
        frame.present.intersect_with(&hop.keep);
    }

    /// Observable equality of two final packet states: header fields
    /// (presence and value) plus drop status. Metadata is
    /// pipeline-internal and legitimately stripped at the final egress, so
    /// it does not participate. Headers without a slot are not compared:
    /// no MAT touches them, so both sides carry them unchanged.
    pub(crate) fn same_observable(&self, a: &Frame, b: &Frame) -> bool {
        a.dropped == b.dropped
            && self.headers.iter().all(|h| match (a.present.contains(h), b.present.contains(h)) {
                (true, true) => a.values[h] == b.values[h],
                (pa, pb) => pa == pb,
            })
    }
}

/// A deployment compiled for emulation: everything about running a packet
/// that does not depend on the packet — the field slots and MAT ops, the
/// switch visit order, each switch's ordered MAT list, each hop's egress
/// mask, and the reference program's MAT order — derived once from
/// `(tdg, plan, artifacts)`. Running a packet then costs O(MAT ops + hops
/// × slot words).
#[derive(Debug, Clone)]
pub struct CompiledPlan<'a> {
    pub(crate) code: Code<'a>,
    pub(crate) hops: Vec<Hop>,
    reference: Vec<Step>,
}

impl<'a> CompiledPlan<'a> {
    /// Compiles the deployment. `None` when the plan's switch-level
    /// dependency graph is cyclic, so that no visit order exists (such
    /// plans never pass [`hermes_core::verify()`]), or when the TDG itself
    /// is cyclic, so that no reference order exists.
    pub fn compile(
        tdg: &'a Tdg,
        plan: &DeploymentPlan,
        artifacts: &'a DeploymentArtifacts,
    ) -> Option<Self> {
        let order = plan.switch_visit_order(tdg)?;
        let mut code = Code::new(tdg);
        let reference = code.reference(tdg)?;
        let hops = code.hops(tdg, plan, artifacts, &order);
        Some(CompiledPlan { code, hops, reference })
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
        let (frame, mut untouched) = self.code.load(&pkt);
        // No wire contract carries a field no MAT touches: its metadata
        // leaves at the first egress.
        if !self.hops.is_empty() {
            untouched.retain(|(f, _)| f.is_header());
        }
        Trace {
            packet: self.code.unload(&self.run_hops(frame), untouched),
            visits: self.visit_order().collect(),
            wire_bytes: self.hops.iter().map(|h| h.wire_bytes).collect(),
        }
    }

    pub(crate) fn run_hops(&self, mut frame: Frame) -> Frame {
        let mut regs = Registers::new();
        for hop in &self.hops {
            self.code.process(hop, &mut frame, &mut regs);
        }
        frame
    }

    /// Runs `pkt` through the reference deployment: every MAT on a single
    /// giant logical switch in topological order (the semantics of the
    /// original merged program).
    pub fn run_reference(&self, pkt: Packet) -> Packet {
        let (frame, untouched) = self.code.load(&pkt);
        self.code.unload(&self.reference_frame(frame), untouched)
    }

    pub(crate) fn reference_frame(&self, mut frame: Frame) -> Frame {
        let mut regs = Registers::new();
        for &step in &self.reference {
            self.code.execute(step, &mut frame, &mut regs);
        }
        frame
    }

    /// `true` iff the distributed execution of `pkt` ends in the same
    /// observable state as the reference execution.
    pub fn equivalent(&self, pkt: Packet) -> bool {
        let (frame, _) = self.code.load(&pkt);
        self.code.same_observable(&self.reference_frame(frame.clone()), &self.run_hops(frame))
    }
}

/// Runs one packet through the distributed deployment; `None` when the
/// plan's switch-level dependency graph or the TDG is cyclic. Compiles the
/// plan for that one packet: to run many, [`CompiledPlan::compile`] once.
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
/// original merged program). `None` when the TDG is cyclic.
pub fn run_reference(tdg: &Tdg, pkt: Packet) -> Option<Packet> {
    let mut code = Code::new(tdg);
    let reference = code.reference(tdg)?;
    Some(CompiledPlan { code, hops: Vec::new(), reference }.run_reference(pkt))
}

/// `true` iff the distributed execution ends with exactly the same field
/// values as the reference execution — dependency preservation (Goal #2),
/// observed rather than assumed. A plan with a cyclic switch-level
/// dependency graph, or over a cyclic TDG, has no execution to compare
/// and is not equivalent. Compiles the plan for that one packet: to check
/// many, [`CompiledPlan::compile`] once.
pub fn equivalent(
    tdg: &Tdg,
    plan: &DeploymentPlan,
    artifacts: &DeploymentArtifacts,
    pkt: Packet,
) -> bool {
    CompiledPlan::compile(tdg, plan, artifacts).is_some_and(|compiled| compiled.equivalent(pkt))
}

/// The header fields of [`test_packet`], in the order its seed values them.
fn test_headers() -> &'static [Field; 12] {
    static HEADERS: OnceLock<[Field; 12]> = OnceLock::new();
    HEADERS.get_or_init(|| {
        use hermes_dataplane::fields::headers as h;
        [
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
        ]
    })
}

/// The canonical test packet: every header field of the library programs,
/// seeded deterministically.
pub fn test_packet(seed: u64) -> Packet {
    Packet::with_headers(
        test_headers().iter().enumerate().map(|(i, f)| (f.clone(), mix(seed, i as u64))),
    )
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
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
        assert!(a.is_some());
        assert_eq!(a, b);
    }

    /// Two MATs gating each other (`Successor` both ways) on one switch:
    /// the switch-level order exists, the TDG has no topological order.
    /// The verifier refuses the plan (Eq. 8); the emulator declines it
    /// instead of panicking.
    #[test]
    fn a_cyclic_tdg_has_no_emulation() {
        use crate::simulate::{simulate_plan, PlanFlowConfig};
        use crate::validate::validate_plan;
        use hermes_core::StagePlacement;
        use hermes_dataplane::action::Action;
        use hermes_dataplane::mat::Mat;
        use hermes_tdg::{AnalysisMode, DependencyType};

        let mat = |name: &str| {
            Mat::builder(name).action(Action::new("nop")).resource(0.1).build().unwrap()
        };
        let tdg = Tdg::from_mats_and_edges(
            vec![("a".to_owned(), mat("a")), ("b".to_owned(), mat("b"))],
            vec![(0, 1, DependencyType::Successor), (1, 0, DependencyType::Successor)],
            AnalysisMode::PaperLiteral,
        );
        assert!(tdg.topo_order().is_none());
        let net = topology::linear(1, 10.0);
        let switch = net.switch_ids().next().unwrap();
        let mut plan = DeploymentPlan::new();
        for (stage, node) in tdg.node_ids().enumerate() {
            plan.place(StagePlacement { node, switch, stage, fraction: 0.1 });
        }
        assert!(plan.switch_visit_order(&tdg).is_some());
        let art = generate(&tdg, &net, &plan);

        assert!(CompiledPlan::compile(&tdg, &plan, &art).is_none());
        assert!(!equivalent(&tdg, &plan, &art, test_packet(0)));
        assert_eq!(run_distributed(&tdg, &plan, &art, test_packet(0)), None);
        assert_eq!(run_reference(&tdg, test_packet(0)), None);
        let flow = PlanFlowConfig { packets: 10, ..Default::default() };
        assert_eq!(simulate_plan(&tdg, &net, &plan, &art, &flow), None);
        let (report, _) = validate_plan(&tdg, &net, &plan, &Epsilon::loose(), &[0]);
        assert!(!report.is_ok(), "the verifier refuses a cyclic TDG");
    }

    #[test]
    fn packet_reads_absent_fields_as_zero() {
        let pkt = Packet::default();
        assert_eq!(pkt.get(&Field::metadata("meta.x", 4)), 0);
        assert!(!pkt.is_dropped());
    }
}
