//! SPEED-style TDG merging (paper §IV, Algorithm 1 lines 4–8).
//!
//! Different programs exhibit redundancy — the canonical example is every
//! measurement sketch invoking the same 5-tuple hash. Merging unions the
//! node and edge sets of the TDGs and then removes as many *redundant* MATs
//! (structurally identical per [`Mat::signature`](hermes_dataplane::Mat::signature))
//! as possible while (a) preserving every dependency edge and (b) never
//! introducing a cycle. A merge candidate that would create a cycle is
//! skipped, exactly the "remove as many ... while preserving the edges"
//! behaviour the paper describes.
//!
//! # One accumulator pass
//!
//! The merge is defined pairwise — fold `t2` into `t1`, then infer the
//! dependencies between the two programs' own tables — and [`merge_all`]
//! is that step applied left to right. It is *computed* by one
//! `Accumulator` that every input is moved into in turn, so a step costs
//! what the incoming program brings, not what has piled up so far.
//!
//! The accumulator takes programs as well as graphs. [`merge_programs`]
//! (what `ProgramAnalyzer::analyze` and the audit run) builds each program
//! straight into it: one node and one [`MatProfile`] per MAT, interned
//! into the accumulator's one [`FieldTable`], and the program's own pairs
//! typed there by the pair loop [`Tdg::from_program`] runs too — no
//! per-program [`Tdg`], adjacency index or topological order is built and
//! dropped. Its output is [`merge_all`]'s over the `from_program` graphs,
//! to the byte. [`merge_all`] stays for callers that already hold graphs,
//! and `from_program` stays a lean entry point of its own for one
//! program's graph.
//!
//! For `P` inputs with `N` nodes in total and `E` merged edges:
//!
//! - every node is moved (or built) in once, filed under the hash of
//!   the signature its table derived when it was built (a step sorts by
//!   signature only the groups it folds), its field sets interned once
//!   into one shared [`FieldTable`] as a [`MatProfile`], and its slot
//!   appended to the `writers` / `matchers` list of every field it writes /
//!   matches on;
//! - the cross-program pairs of a step are typed with
//!   [`classify_profiles`] / [`metadata_amount_profiles`], a few word-AND
//!   loops each — but only the pairs that share a field. A pair is related
//!   only through a field the accumulated node writes and the incoming one
//!   consumes or writes, or one it matches on and the incoming one writes,
//!   so each incoming survivor reads its candidates off the per-field
//!   lists; sorted by `(i, j)` and deduplicated they are the all-pairs
//!   loop `accumulated × incoming` minus the pairs it typed `None`, in its
//!   order, so the output is the same to the byte. On a 50-program list
//!   that is some 600 pairs typed instead of 190 000;
//! - edges live in one ordered map keyed by `(from, to)` beside successor
//!   and predecessor lists; a fold re-keys only the folded node's own
//!   edges, and the final edge order is read off the map, not re-sorted
//!   at every step;
//! - "would this fold / this inferred edge close a cycle?" is a stamped
//!   depth-first search over the predecessor lists (`O(N + E)` worst case,
//!   in practice a node's few ancestors), run once per fold attempt and at
//!   most once per accumulated node per step, and not at all in a step
//!   whose incoming program shares no node with the accumulated graph.
//!
//! # Edge order
//!
//! Plans, journals and golden files hash the merged TDG, so the order of
//! [`Tdg::edges`] is part of the contract: every edge that existed before
//! the **last** input's dependency inference comes first, sorted by
//! `(from, to)`; the edges inferred for the last input follow, also sorted
//! by `(from, to)` (their inference loop runs in that order).

use crate::analysis::{
    classify_profiles, metadata_amount_profiles, AnalysisMode, DependencyType, MatProfile,
};
use crate::graph::{type_program_pairs, NodeId, Tdg, TdgEdge, TdgNode};
use hermes_dataplane::{FieldTable, Mat, Program};
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Merges all TDGs into one (the `TDG_MERGING` loop of Algorithm 1).
///
/// Returns an empty TDG when `tdgs` is empty, and a single input as it is
/// (nothing to fold it against). The analysis mode of the first graph is
/// used for the result; callers mixing modes should [`Tdg::reanalyze`]
/// afterwards.
///
/// Relaxed edges are restored to their conservative base types before
/// merging and the relaxation pass reruns on the merged result: a field's
/// verdict is a property of the *final* node set (merging can add writers
/// and demote it), so per-input relaxations must not survive as-is.
///
/// Equal to merging the inputs two at a time from the left, computed in
/// one accumulator pass: one bitset pair typing per cross-program pair
/// that shares a field, plus `O(N + E)` bookkeeping per fold or cycle
/// query, for `N` input nodes and `E` merged edges (see the
/// [module docs](self)). The result's edges are those
/// present before the last input's inference sorted by `(from, to)`,
/// followed by the edges inferred for the last input in `(from, to)` order.
pub fn merge_all(tdgs: Vec<Tdg>) -> Tdg {
    let mut iter = tdgs.into_iter();
    let Some(first) = iter.next() else {
        return Tdg::new(AnalysisMode::PaperLiteral);
    };
    if iter.len() == 0 {
        return first;
    }
    let mut acc = Accumulator::new(first.mode());
    acc.take_in(first, 0);
    iter.for_each(|next| acc.absorb(next));
    acc.finish()
}

/// Builds the TDG of every program and merges them (Algorithm 1's convert
/// and merge steps): the same graph, to the byte, as [`merge_all`] of
/// their [`Tdg::from_program`] graphs, but built straight into the merge
/// accumulator — each MAT's field sets are interned once, into the
/// accumulator's one [`FieldTable`], and no per-program graph, index or
/// order is made. An empty list gives an empty graph in `mode`.
///
/// `inspect` sees the edges typed for each program before they are
/// merged: one edge per dependent pair of the program's own tables, in
/// `(from, to)` order, ids indexing [`Program::tables`], types and bytes
/// before any state relaxation ([`Tdg::from_program`]'s edges in a mode
/// that does not relax). The audit cross-checks these, so it checks the
/// graph the solver gets; other callers pass `|_, _| {}`.
pub fn merge_programs(
    programs: &[Program],
    mode: AnalysisMode,
    mut inspect: impl FnMut(&Program, &[TdgEdge]),
) -> Tdg {
    let mut acc = Accumulator::new(mode);
    let mut edges = Vec::new();
    for (k, program) in programs.iter().enumerate() {
        let offset = acc.nodes.len();
        acc.take_program(program, if k == 0 { 0 } else { 2 }, &mut edges);
        inspect(program, &edges);
        if k > 0 {
            acc.settle(offset);
        }
    }
    acc.finish()
}

/// The live slots of one signature, ascending; the first is the group's
/// head and never folds. The table is a refcount, where the signature
/// itself would be a copy of every match key and action.
struct Group {
    table: Mat,
    members: Vec<usize>,
}

/// Where an edge stands in the edge list a step's fold phase works
/// through, compared lexicographically. That list is the previous step's
/// output followed by the incoming graph's edges, so the classes are: `0`
/// — sorted by `(from, to)` since an earlier step (or, in the first step,
/// the first graph's edges by position); `1` — inferred by the previous
/// step, by `(from, to)`; `2` — the incoming graph's edges by position.
type Rank = (u8, usize, usize);

#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    dep: DependencyType,
    bytes: u32,
    /// Valid for step `ranked_at` only. An edge no fold has touched in the
    /// current step is a class-0 edge under its own key, which is what
    /// [`EdgeRec::rank_in`] derives instead of a per-step pass over every
    /// edge; an inferred edge is created with its class-1 rank for the
    /// step that follows.
    rank: Rank,
    ranked_at: usize,
}

impl EdgeRec {
    fn rank_in(&self, step: usize, key: (usize, usize)) -> Rank {
        if self.ranked_at == step {
            self.rank
        } else {
            (0, key.0, key.1)
        }
    }
}

/// The merged graph under construction. Nodes keep the slot they arrived
/// in (`alive` clears when one is folded away), so slot order is the
/// output's node order and a surviving node's edges never need re-indexing
/// before [`Accumulator::finish`]. The graph over live slots is a DAG
/// between any two operations.
#[derive(Default)]
struct Accumulator {
    mode: AnalysisMode,
    /// The merge step in progress (or next to start), counted from 1.
    step: usize,
    nodes: Vec<TdgNode>,
    alive: Vec<bool>,
    /// Field sets of each slot's MAT, interned against `table`.
    profiles: Vec<MatProfile>,
    table: FieldTable,
    /// Per [`FieldId`](hermes_dataplane::FieldId) index, the slots whose MAT
    /// writes / matches on the field — every slot ever taken in, ascending
    /// (slots are handed out in order). A pair that shares no field through
    /// these lists types `None`, so inference reads its candidates here.
    writers: Vec<Vec<usize>>,
    matchers: Vec<Vec<usize>>,
    /// One group per signature, in order of first appearance.
    groups: Vec<Group>,
    /// Indices into `groups`, filed under their signature's cached hash:
    /// a word compare per level, where ordering by the signature compares
    /// field names. Different signatures with one hash share an entry.
    by_hash: BTreeMap<u64, Vec<usize>>,
    /// The groups with a duplicate to fold (two or more members). A step
    /// sorts only these by signature, because fold attempts run in
    /// signature order and an accepted fold can make a later one cycle.
    folding: Vec<usize>,
    /// Keyed by `(from, to)` slots — the order [`Accumulator::finish`]
    /// emits. Traversals go through `succ` / `pred`, which mirror the keys.
    edges: BTreeMap<(usize, usize), EdgeRec>,
    succ: Vec<Vec<usize>>,
    pred: Vec<Vec<usize>>,
    /// The step in which a slot last took in a duplicate from the incoming
    /// graph (0: never). Such a node is *shared* for that step.
    shared_at: Vec<usize>,
    /// `seen[n] == stamp` marks `n` as found by the latest
    /// [`Accumulator::mark_ancestors`].
    seen: Vec<usize>,
    stamp: usize,
    stack: Vec<usize>,
    #[cfg(test)]
    tally: Tally,
}

/// What inference did, for the test that pins the candidate index to the
/// all-pairs definition.
#[cfg(test)]
#[derive(Default)]
struct Tally {
    /// Pairs handed to [`classify_profiles`], over all steps.
    typed: usize,
    /// The latest step's candidate pairs, sorted.
    candidates: Vec<(usize, usize)>,
}

impl Accumulator {
    fn new(mode: AnalysisMode) -> Self {
        Accumulator { mode, step: 1, ..Accumulator::default() }
    }

    /// Moves `tdg`'s nodes into fresh slots and its edges into the edge
    /// map, ranked by position within `class`; relaxed edges go in as
    /// their base types.
    fn take_in(&mut self, mut tdg: Tdg, class: u8) {
        if self.mode.relaxes_state() {
            tdg.restore_base_edges();
        }
        let offset = self.nodes.len();
        let (nodes, edges) = tdg.into_parts();
        for node in nodes {
            let profile = MatProfile::build(&node.mat, &mut self.table);
            self.push(node, profile);
        }
        self.put_all(offset, edges, class);
    }

    /// [`Accumulator::take_in`] of `program`'s own TDG, built in place:
    /// its pairs are typed on the profiles just interned, into `edges`
    /// (cleared first), which then go into the edge map.
    fn take_program(&mut self, program: &Program, class: u8, edges: &mut Vec<TdgEdge>) {
        let offset = self.nodes.len();
        for mat in program.tables() {
            let profile = MatProfile::build(mat, &mut self.table);
            self.push(TdgNode::of(program, mat), profile);
        }
        edges.clear();
        type_program_pairs(program, &self.table, &self.profiles[offset..], self.mode, edges);
        self.put_all(offset, edges.iter().copied(), class);
    }

    /// Gives `node` the next slot: files it under its signature and on the
    /// `writers` / `matchers` list of every field its `profile` writes /
    /// matches on.
    fn push(&mut self, node: TdgNode, profile: MatProfile) {
        let slot = self.nodes.len();
        self.file(&node.mat, slot);
        self.writers.resize_with(self.table.len(), Vec::new);
        self.matchers.resize_with(self.table.len(), Vec::new);
        profile.written.iter().for_each(|f| self.writers[f.index()].push(slot));
        profile.matched.iter().for_each(|f| self.matchers[f.index()].push(slot));
        self.profiles.push(profile);
        self.nodes.push(node);
    }

    /// Sizes the per-slot state to the slots pushed, then puts `edges`
    /// (ids relative to `offset`) into the edge map, ranked by position
    /// within `class`.
    fn put_all(&mut self, offset: usize, edges: impl IntoIterator<Item = TdgEdge>, class: u8) {
        let n = self.nodes.len();
        self.alive.resize(n, true);
        self.succ.resize_with(n, Vec::new);
        self.pred.resize_with(n, Vec::new);
        self.shared_at.resize(n, 0);
        self.seen.resize(n, 0);
        for (pos, e) in edges.into_iter().enumerate() {
            let rec =
                EdgeRec { dep: e.dep, bytes: e.bytes, rank: (class, pos, 0), ranked_at: self.step };
            self.put((e.from.index() + offset, e.to.index() + offset), rec);
        }
    }

    /// Files `slot` in the group of `table`'s signature, opening one for
    /// a signature not seen before.
    fn file(&mut self, table: &Mat, slot: usize) {
        let signature = table.signature();
        let bucket = self.by_hash.entry(signature.content_hash()).or_default();
        let g = match bucket.iter().find(|&&g| self.groups[g].table.signature() == signature) {
            Some(&g) => g,
            None => {
                bucket.push(self.groups.len());
                self.groups.push(Group { table: table.clone(), members: Vec::new() });
                self.groups.len() - 1
            }
        };
        let members = &mut self.groups[g].members;
        members.push(slot);
        if members.len() == 2 {
            self.folding.push(g);
        }
    }

    /// Takes `next` in and settles it: one merge step.
    fn absorb(&mut self, next: Tdg) {
        let offset = self.nodes.len();
        self.take_in(next, 2);
        self.settle(offset);
    }

    /// One merge step for the graph just taken in at slots `offset..`:
    /// folds duplicates (the incoming graph's, and any an earlier step had
    /// to leave), then infers the dependencies between the accumulated
    /// programs' tables and the incoming program's.
    fn settle(&mut self, offset: usize) {
        // A duplicate folds into the head of its signature group unless the
        // contraction would cycle. A fold skipped in an earlier step is
        // tried again: other members of its group may since have folded
        // and turned the path that blocked it into a direct edge.
        let mut groups = std::mem::take(&mut self.groups);
        let mut folding = std::mem::take(&mut self.folding);
        folding.sort_unstable_by(|&a, &b| {
            groups[a].table.signature().cmp(groups[b].table.signature())
        });
        let mut any_shared = false;
        for &g in &folding {
            let members = &mut groups[g].members;
            let head = members[0];
            members.retain(|&dup| {
                if dup == head || self.fold_would_cycle(head, dup) {
                    return true;
                }
                self.fold(head, dup);
                if head < offset && dup >= offset {
                    self.shared_at[head] = self.step;
                    any_shared = true;
                }
                false
            });
        }
        folding.retain(|&g| groups[g].members.len() > 1);
        self.groups = groups;
        self.folding = folding;

        // Cross-program dependencies: merging composes the programs
        // sequentially (accumulated upstream of incoming), so two MATs
        // touching the same fields across the program boundary are as
        // interdependent as within one program — e.g. one program's
        // counter table feeding another program's policer through a shared
        // metadata field. Shared nodes already carry both sides' edges, so
        // inference runs only between accumulated-only and incoming-only
        // survivors (no edge can join such a pair yet: an incoming edge
        // reaches an accumulated node only by folding onto it, which makes
        // that node shared). An edge that would close a cycle is skipped,
        // mirroring the fold rule. The cycle would have to return from the
        // incoming side to the accumulated side, and only a shared node
        // has edges of both, so without one there is nothing to check;
        // with one, `i`'s ancestors are marked once and serve every `j`:
        // an accepted edge out of `i` adds no path *into* `i`.
        //
        // `classify_profiles(i, j)` relates a pair only through a field `i`
        // writes and `j` consumes or writes, or one `i` matches on and `j`
        // writes, so the pairs worth typing are read off the per-field slot
        // lists; sorted by `(i, j)` they are the loop over every
        // accumulated `i` and incoming `j` minus the pairs it would type
        // `None`, in its order.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for j in (offset..self.nodes.len()).filter(|&j| self.alive[j]) {
            let mut pair_with = |slots: &[usize]| {
                let accumulated = &slots[..slots.partition_point(|&i| i < offset)];
                candidates.extend(accumulated.iter().map(|&i| (i, j)));
            };
            let incoming = &self.profiles[j];
            for f in incoming.consumed.iter() {
                pair_with(&self.writers[f.index()]);
            }
            for f in incoming.written.iter() {
                pair_with(&self.writers[f.index()]);
                pair_with(&self.matchers[f.index()]);
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        #[cfg(test)]
        self.tally.candidates.clone_from(&candidates);

        let mut marked_for = None;
        for (i, j) in candidates {
            if !self.alive[i] || self.shared_at[i] == self.step {
                continue;
            }
            #[cfg(test)]
            {
                self.tally.typed += 1;
            }
            let Some(dep) = classify_profiles(&self.profiles[i], &self.profiles[j], false) else {
                continue;
            };
            if any_shared {
                if marked_for != Some(i) {
                    self.mark_ancestors(i);
                    marked_for = Some(i);
                }
                if self.seen[j] == self.stamp {
                    continue;
                }
            }
            let bytes = metadata_amount_profiles(
                &self.table,
                &self.profiles[i],
                &self.profiles[j],
                dep,
                self.mode,
            );
            let rec = EdgeRec { dep, bytes, rank: (1, i, j), ranked_at: self.step + 1 };
            let previous = self.edges.insert((i, j), rec);
            debug_assert!(previous.is_none(), "no edge joins an unshared pair before inference");
            self.succ[i].push(j);
            self.pred[j].push(i);
        }
        self.step += 1;
    }

    /// Compacts the live slots into the merged [`Tdg`].
    fn finish(self) -> Tdg {
        let mut new_index = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (slot, node) in self.nodes.into_iter().enumerate() {
            if self.alive[slot] {
                new_index[slot] = nodes.len();
                nodes.push(node);
            }
        }
        // `absorb` has already moved on to the next step, so the edges
        // ranked for it are the ones the last step inferred.
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut inferred = Vec::new();
        for (&(from, to), rec) in &self.edges {
            let edge = TdgEdge {
                from: NodeId(new_index[from]),
                to: NodeId(new_index[to]),
                dep: rec.dep,
                bytes: rec.bytes,
            };
            if rec.ranked_at == self.step {
                inferred.push(edge);
            } else {
                edges.push(edge);
            }
        }
        edges.append(&mut inferred);
        let mut merged = Tdg::from_parts(nodes, edges, self.mode);
        debug_assert!(merged.is_dag(), "merge must preserve acyclicity");
        if self.mode.relaxes_state() {
            merged.relax_edges();
        }
        merged
    }

    /// Inserts an edge, or settles it against the parallel edge already
    /// under `key`: the one with more bytes stays, the earlier-ranked one
    /// on a tie (endpoint signatures are equal, but a successor gate can
    /// still make the dependency types differ).
    fn put(&mut self, key: (usize, usize), rec: EdgeRec) {
        match self.edges.entry(key) {
            Entry::Occupied(mut held) => {
                let held_rank = held.get().rank_in(self.step, key);
                if (rec.bytes, Reverse(rec.rank)) > (held.get().bytes, Reverse(held_rank)) {
                    held.insert(rec);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(rec);
                self.succ[key.0].push(key.1);
                self.pred[key.1].push(key.0);
            }
        }
    }

    /// Removes the edge under `key` from the map, pinning the rank it has
    /// in this step before its key changes. The caller owns both
    /// adjacency entries, which mirror the map, so the edge is there.
    fn take_edge(&mut self, key: (usize, usize)) -> Option<EdgeRec> {
        let mut rec = self.edges.remove(&key)?;
        rec.rank = rec.rank_in(self.step, key);
        rec.ranked_at = self.step;
        Some(rec)
    }

    /// Contracts `dup` into `head`: provenance and edges move over, an edge
    /// between the two becomes a self-loop and is dropped.
    fn fold(&mut self, head: usize, dup: usize) {
        self.alive[dup] = false;
        let programs = std::mem::take(&mut self.nodes[dup].programs);
        self.nodes[head].programs.extend(programs);
        for to in std::mem::take(&mut self.succ[dup]) {
            let rec = self.take_edge((dup, to)).filter(|_| to != head);
            self.pred[to].retain(|&p| p != dup);
            if let Some(rec) = rec {
                self.put((head, to), rec);
            }
        }
        for from in std::mem::take(&mut self.pred[dup]) {
            let rec = self.take_edge((from, dup)).filter(|_| from != head);
            self.succ[from].retain(|&s| s != dup);
            if let Some(rec) = rec {
                self.put((from, head), rec);
            }
        }
    }

    /// Contracting two nodes of a DAG closes a cycle exactly when a path
    /// through a third node joins them (a direct edge merely becomes the
    /// dropped self-loop).
    fn fold_would_cycle(&mut self, head: usize, dup: usize) -> bool {
        self.detours(head, dup) || self.detours(dup, head)
    }

    /// `true` iff a path of two or more edges leads from `a` to `b`: in a
    /// DAG, one that leaves `a` through a successor other than `b`.
    fn detours(&mut self, a: usize, b: usize) -> bool {
        self.mark_ancestors(b);
        self.succ[a].iter().any(|&s| s != b && self.seen[s] == self.stamp)
    }

    /// The one reachability query: stamps every node with a path to
    /// `target`, so that `seen[n] == stamp` answers "does `n` reach
    /// `target`?" — the same verdict as adding the edge `target → n` (or
    /// contracting the two) and re-running Kahn's algorithm on the whole
    /// graph, because the graph was acyclic before.
    fn mark_ancestors(&mut self, target: usize) {
        self.stamp += 1;
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(target);
        while let Some(n) = stack.pop() {
            for &p in &self.pred[n] {
                if self.seen[p] != self.stamp {
                    self.seen[p] = self.stamp;
                    stack.push(p);
                }
            }
        }
        self.stack = stack;
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::analysis::{AnalysisMode, DependencyType};
    use crate::graph::Tdg;
    use crate::merge_equivalence::{table, wan_50_shaped};
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::library;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;

    fn tdg(p: &Program) -> Tdg {
        Tdg::from_program(p, AnalysisMode::PaperLiteral)
    }

    #[test]
    fn merge_eliminates_shared_hash() {
        let a = tdg(&library::ecmp_lb());
        let b = tdg(&library::stateful_firewall());
        let before = a.node_count() + b.node_count();
        let merged = merge_all(vec![a, b]);
        assert_eq!(merged.node_count(), before - 1, "one redundant hash removed");
        assert!(merged.is_dag());
        // The shared node now serves both programs.
        let hash =
            merged.nodes().iter().find(|n| n.name.ends_with("hash_5tuple")).expect("hash survives");
        assert!(hash.programs.contains("ecmp_lb"));
        assert!(hash.programs.contains("stateful_firewall"));
    }

    #[test]
    fn merge_all_sketches_shares_one_hash() {
        let tdgs: Vec<Tdg> = library::sketches::all().iter().map(tdg).collect();
        let total: usize = tdgs.iter().map(Tdg::node_count).sum();
        let merged = merge_all(tdgs);
        // Ten identical hash tables collapse to one: 9 nodes saved.
        assert_eq!(merged.node_count(), total - 9);
        assert!(merged.is_dag());
    }

    #[test]
    fn merge_without_redundancy_is_disjoint_union() {
        let a = tdg(&library::l3_router());
        let b = tdg(&library::acl());
        let (na, ea) = (a.node_count(), a.edge_count());
        let (nb, eb) = (b.node_count(), b.edge_count());
        let merged = merge_all(vec![a, b]);
        assert_eq!(merged.node_count(), na + nb);
        assert_eq!(merged.edge_count(), ea + eb);
    }

    #[test]
    fn merge_preserves_edges_of_folded_nodes() {
        let a = tdg(&library::ecmp_lb());
        let b = tdg(&library::stateful_firewall());
        let merged = merge_all(vec![a, b]);
        let hash = merged.node_by_name("ecmp_lb/hash_5tuple").expect("kept first name");
        // Hash must still feed both the ECMP group and the firewall state.
        let downstream: Vec<&str> =
            merged.out_edges(hash).map(|e| merged.node(e.to).name.as_str()).collect();
        assert!(downstream.iter().any(|n| n.ends_with("ecmp_group")));
        assert!(downstream.iter().any(|n| n.ends_with("conn_state")));
    }

    #[test]
    fn cycle_inducing_merge_is_skipped() {
        // P1: x -> y ; P2: y' -> x' with x ≡ x' and y ≡ y'. Folding both
        // pairs would create x -> y -> x; the merge must keep >= 3 nodes.
        let f = Field::metadata("meta.f", 4);
        let g = Field::metadata("meta.g", 4);
        let x = Mat::builder("x")
            .match_field(g.clone(), MatchKind::Exact)
            .action(Action::writing("w", [f.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let y = Mat::builder("y")
            .match_field(f, MatchKind::Exact)
            .action(Action::writing("w", [g]))
            .resource(0.1)
            .build()
            .unwrap();
        let p1 = Program::builder("p1").table(x.clone()).table(y.clone()).build().unwrap();
        let p2 = Program::builder("p2").table(y).table(x).build().unwrap();
        let merged = merge_all(vec![tdg(&p1), tdg(&p2)]);
        assert!(merged.is_dag());
        assert!(merged.node_count() >= 3, "folding both pairs would cycle");
    }

    #[test]
    fn parallel_edges_deduplicated_keeping_max_bytes() {
        // Two identical programs fold completely onto each other.
        let p = library::cm_sketch();
        let merged = merge_all(vec![tdg(&p), tdg(&p)]);
        let single = tdg(&p);
        assert_eq!(merged.node_count(), single.node_count());
        assert_eq!(merged.edge_count(), single.edge_count());
        for (a, b) in merged.edges().iter().zip(single.edges()) {
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn cross_program_dependency_inferred() {
        // Program A writes meta.count; program B matches it. Merging must
        // produce a dependency edge carrying the 4-byte field.
        let count = Field::metadata("meta.count", 4);
        let writer = Mat::builder("w")
            .action(Action::writing("bump", [count.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let reader = Mat::builder("r")
            .match_field(count, MatchKind::Exact)
            .action(Action::new("noop"))
            .resource(0.1)
            .build()
            .unwrap();
        let pa = Program::builder("a").table(writer).build().unwrap();
        let pb = Program::builder("b").table(reader).build().unwrap();
        let merged = merge_all(vec![tdg(&pa), tdg(&pb)]);
        assert_eq!(merged.edge_count(), 1);
        let e = merged.edges()[0];
        assert_eq!(e.dep, DependencyType::Match);
        assert_eq!(e.bytes, 4);
        assert_eq!(merged.node(e.from).name, "a/w");
        assert_eq!(merged.node(e.to).name, "b/r");
    }

    #[test]
    fn cross_program_inference_skips_shared_nodes() {
        // Shared hash: the only edges from it should be the remapped
        // intra-program ones, not duplicated cross inferences.
        let a = tdg(&library::ecmp_lb());
        let b = tdg(&library::stateful_firewall());
        let merged = merge_all(vec![a, b]);
        let hash = merged.node_by_name("ecmp_lb/hash_5tuple").unwrap();
        let to_conn = merged
            .out_edges(hash)
            .filter(|e| merged.node(e.to).name.ends_with("conn_state"))
            .count();
        assert_eq!(to_conn, 1, "exactly one edge to the firewall consumer");
    }

    #[test]
    fn merging_a_conflicting_writer_demotes_relaxations() {
        // Program A: two same-kind folders — their edge relaxes.
        let acc = Field::metadata("meta.acc", 4);
        let src = Field::header("pkt.v", 4);
        // Distinct capacities keep the folders structurally different, so
        // signature folding leaves both nodes (and their edge) in place.
        let folder = |name: &str, cap: usize| {
            Mat::builder(name.to_owned())
                .action(Action::new("f").with_op(hermes_dataplane::action::PrimitiveOp::Fold {
                    dst: acc.clone(),
                    srcs: vec![src.clone()],
                    op: hermes_dataplane::action::FoldOp::Add,
                }))
                .capacity(cap)
                .resource(0.1)
                .build()
                .unwrap()
        };
        let pa =
            Program::builder("a").table(folder("f1", 8)).table(folder("f2", 16)).build().unwrap();
        let ta = Tdg::from_program(&pa, AnalysisMode::RelaxedState);
        assert!(ta.edges().iter().all(|e| e.dep.is_relaxed() && e.bytes == 0));

        // Program B: a plain overwriter of the same accumulator. Merged,
        // the field is no longer all-folds: every relaxation must vanish.
        let setter = Mat::builder("s")
            .action(Action::writing("w", [acc.clone()]))
            .resource(0.1)
            .build()
            .unwrap();
        let pb = Program::builder("b").table(setter).build().unwrap();
        let tb = Tdg::from_program(&pb, AnalysisMode::RelaxedState);
        let merged = merge_all(vec![ta, tb]);
        assert!(
            merged.edges().iter().all(|e| !e.dep.is_relaxed()),
            "demoted verdict must un-relax: {:?}",
            merged.edges()
        );
        // And the restored folder edge carries its conservative bytes again.
        let f1 = merged.node_by_name("a/f1").unwrap();
        let f2 = merged.node_by_name("a/f2").unwrap();
        let e = merged.edges().iter().find(|e| e.from == f1 && e.to == f2).unwrap();
        assert_eq!(e.dep, DependencyType::Match);
        assert_eq!(e.bytes, 4);
    }

    #[test]
    fn merge_all_of_nothing_is_empty() {
        let merged = merge_all(Vec::new());
        assert_eq!(merged.node_count(), 0);
    }

    #[test]
    fn merge_all_real_programs_is_dag_and_smaller() {
        let tdgs: Vec<Tdg> = library::real_programs().iter().map(tdg).collect();
        let total: usize = tdgs.iter().map(Tdg::node_count).sum();
        let merged = merge_all(tdgs);
        assert!(merged.is_dag());
        assert!(merged.node_count() < total, "library shares the 5-tuple hash");
        // Edge types survive the merge.
        assert!(merged.edges().iter().any(|e| e.dep == DependencyType::Match));
    }

    #[test]
    fn duplicates_joined_only_by_a_direct_edge_fold() {
        // Two identical writers of one field: an action dependency joins
        // them, and contracting across it merely drops the self-loop.
        let acc = Field::metadata("meta.acc", 4);
        let twins = Program::builder("twins")
            .table(table("t1", &[], &[&acc]))
            .table(table("t2", &[], &[&acc]))
            .build()
            .unwrap();
        let alone = tdg(&twins);
        assert_eq!((alone.node_count(), alone.edge_count()), (2, 1));
        let merged = merge_all(vec![alone, tdg(&library::l3_router())]);
        assert_eq!(merged.node_count(), 1 + library::l3_router().tables().len());
        assert!(merged.node_by_name("twins/t1").is_some(), "the lower index survives");
        assert!(merged.node_by_name("twins/t2").is_none());
        assert!(merged.is_dag());
    }

    #[test]
    fn duplicates_joined_by_a_two_hop_path_stay_apart() {
        // t1 -> mid -> t2 beside the direct t1 -> t2: contracting the twins
        // would leave mid on a cycle with them.
        let acc = Field::metadata("meta.acc", 4);
        let p = Program::builder("twins")
            .table(table("t1", &[], &[&acc]))
            .table(table("mid", &[&acc], &[]))
            .table(table("t2", &[], &[&acc]))
            .build()
            .unwrap();
        let alone = tdg(&p);
        assert_eq!(alone.edge_count(), 3, "t1->mid (match), t1->t2 (action), mid->t2 (reverse)");
        let merged = merge_all(vec![alone, tdg(&library::l3_router())]);
        assert_eq!(merged.node_count(), 3 + library::l3_router().tables().len());
        assert!(merged.is_dag());
    }

    #[test]
    fn cross_program_edge_cycling_through_a_shared_node_is_skipped() {
        // The fixture of `cross_program_inference_skips_shared_nodes`, with
        // a rewrite table ahead of the second program's hash: it consumes
        // what ecmp_group writes, and the shared hash reads what it writes.
        // ecmp_group -> rewrite would close rewrite -> hash -> ecmp_group.
        let member = Field::metadata("meta.ecmp_member", 2);
        let src = hermes_dataplane::fields::headers::ipv4_src();
        let rewrite = table("rewrite", &[&member], &[&src]);
        let conn = table("conn", &[&Field::metadata("meta.hash_idx", 4)], &[]);
        let p2 = Program::builder("fw")
            .table(rewrite.clone())
            .table(library::hash_5tuple_mat())
            .table(conn)
            .build()
            .unwrap();
        let ecmp = library::ecmp_lb();
        let merged = merge_all(vec![tdg(&ecmp), tdg(&p2)]);
        assert!(merged.is_dag());
        let hash = merged.node_by_name("ecmp_lb/hash_5tuple").unwrap();
        assert!(merged.node(hash).programs.contains("fw"), "the hash is shared");
        let group = merged.node_by_name("ecmp_lb/ecmp_group").unwrap();
        let rewrite = merged.node_by_name("fw/rewrite").unwrap();
        let has = |from, to| merged.edges().iter().any(|e| e.from == from && e.to == to);
        assert!(has(rewrite, hash) && has(hash, group), "the path the edge would close");
        assert!(!has(group, rewrite));
        // The pair is typed — with no hash to share, the edge is inferred —
        // so only the cycle keeps it out above.
        let p3 = Program::builder("fw").table(merged.node(rewrite).mat.clone()).build().unwrap();
        let unshared = merge_all(vec![tdg(&ecmp), tdg(&p3)]);
        assert_eq!(unshared.edge_count(), tdg(&ecmp).edge_count() + 1);
    }

    #[test]
    fn inference_types_the_related_pairs_and_few_others() {
        // Step by step over a `wan-50`-sized list: every accumulated ×
        // incoming pair the typing relates was among the step's candidates
        // (nothing is missed), and over the whole merge far fewer pairs
        // were typed than the ~190 000 the all-pairs loop looked at.
        let mut tdgs = wan_50_shaped().iter().map(tdg).collect::<Vec<_>>().into_iter();
        let mut acc = Accumulator::new(AnalysisMode::PaperLiteral);
        acc.take_in(tdgs.next().unwrap(), 0);
        let mut all_pairs = 0;
        for next in tdgs {
            let offset = acc.nodes.len();
            acc.absorb(next);
            for j in (offset..acc.nodes.len()).filter(|&j| acc.alive[j]) {
                for i in 0..offset {
                    all_pairs += 1;
                    if classify_profiles(&acc.profiles[i], &acc.profiles[j], false).is_some() {
                        assert!(acc.tally.candidates.binary_search(&(i, j)).is_ok(), "{i} -> {j}");
                    }
                }
            }
        }
        let typed = acc.tally.typed;
        let merged = acc.finish();
        assert!(merged.node_count() > 500 && all_pairs > 100_000, "{merged}, {all_pairs} pairs");
        assert!(typed <= 4 * merged.edge_count(), "{typed} pairs typed for {merged}");
    }
}
