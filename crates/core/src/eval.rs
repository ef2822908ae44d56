//! Incremental placement evaluator: O(delta) objective maintenance.
//!
//! The branch-and-bound search and the local-search refiner both explore
//! sequences of placements that differ by one node at a time, yet the seed
//! implementation recomputed `A_max`, switch-order acyclicity, and
//! per-switch occupancy from scratch (or with per-candidate heap
//! allocations) at every step. [`IncrementalEval`] owns all of that state
//! and maintains it under [`IncrementalEval::place`] /
//! [`IncrementalEval::unplace`]:
//!
//! - **per-ordered-pair byte totals** — `pair_bytes[a*q + b]` sums
//!   `A(u, v)` over TDG edges `u -> v` with `u` on switch `a`, `v` on
//!   switch `b` (`a != b`);
//! - **the running objective** `A_max = max pair_bytes` — kept with a
//!   count of pairs currently *at* the max, so increments are O(1) and the
//!   O(q²) rescan only happens when the last maximal pair is removed;
//! - **the switch order and its transitive closure** — `order_edges[a*q +
//!   b]` counts the dependency edges forcing switch `a` before switch `b`,
//!   and one bitset row per slot holds every slot it reaches. A new order
//!   edge updates the rows in O(q · q/64); losing one rebuilds them
//!   (Warshall, O(q² · q/64)). The closure answers acyclicity (no slot
//!   reaches itself), [`IncrementalEval::creates_cycle`] before a
//!   placement is made, and [`IncrementalEval::precedes`] for the exact
//!   search's lookahead;
//! - **occupancy** — per-switch node counts and used capacity, with the
//!   capacity snapped back to exactly `0.0` when a switch empties so
//!   floating-point residue cannot leak across branches.
//!
//! All buffers (CSR adjacency, the two q×q matrices, the closure rows) are
//! allocated at construction; steady-state `place`/`unplace` perform no
//! heap allocation.

use hermes_tdg::Tdg;

/// Marker for an unplaced node in [`IncrementalEval::assignment`].
pub const UNASSIGNED: usize = usize::MAX;

/// Incrementally maintained evaluation state for a (partial) assignment of
/// TDG nodes to `q` switch slots.
///
/// Slots are dense indices `0..q`; mapping them to concrete
/// [`hermes_net::SwitchId`]s is the caller's concern (the exact solver uses
/// its candidate array, the refiner the plan's switch list).
#[derive(Debug, Clone)]
pub struct IncrementalEval {
    q: usize,
    /// CSR over in-edges: for node `v`, `in_adj[in_off[v]..in_off[v+1]]`
    /// holds `(u, bytes)` for each TDG edge `u -> v`.
    in_off: Vec<usize>,
    in_adj: Vec<(usize, u32)>,
    /// CSR over out-edges, same layout.
    out_off: Vec<usize>,
    out_adj: Vec<(usize, u32)>,
    resource: Vec<f64>,
    assign: Vec<usize>,
    used_capacity: Vec<f64>,
    nodes_on: Vec<u32>,
    occupied: usize,
    pair_bytes: Vec<u64>,
    order_edges: Vec<u32>,
    amax: u64,
    at_max: u32,
    /// `u64` words per closure row.
    words: usize,
    /// Transitive closure of the switch order: bit `b` of row `a`
    /// (`reach[a*words..][b / 64]`) is set iff a chain of order edges
    /// leads from `a` to `b`. Exact in every state, cyclic ones included.
    reach: Vec<u64>,
    /// Scratch row for closure updates.
    row: Vec<u64>,
    acyclic: bool,
}

impl IncrementalEval {
    /// Builds an empty evaluator for placing `tdg`'s nodes onto `q` slots.
    pub fn new(tdg: &Tdg, q: usize) -> Self {
        let n = tdg.node_count();
        // The TDG owns the adjacency; the hot loops keep an inline copy of
        // just `(neighbour, bytes)` so a probe touches one packed array.
        let (mut in_off, mut out_off) = (vec![0], vec![0]);
        let mut in_adj = Vec::with_capacity(tdg.edge_count());
        let mut out_adj = Vec::with_capacity(tdg.edge_count());
        for id in tdg.node_ids() {
            in_adj.extend(tdg.in_edges(id).map(|e| (e.from.index(), e.bytes)));
            in_off.push(in_adj.len());
            out_adj.extend(tdg.out_edges(id).map(|e| (e.to.index(), e.bytes)));
            out_off.push(out_adj.len());
        }
        let words = q.div_ceil(64);
        IncrementalEval {
            q,
            in_off,
            in_adj,
            out_off,
            out_adj,
            resource: tdg.nodes().iter().map(|nd| nd.mat.resource()).collect(),
            assign: vec![UNASSIGNED; n],
            used_capacity: vec![0.0; q],
            nodes_on: vec![0; q],
            occupied: 0,
            pair_bytes: vec![0; q * q],
            order_edges: vec![0; q * q],
            amax: 0,
            at_max: 0,
            words,
            reach: vec![0; q * words],
            row: vec![0; words],
            acyclic: true,
        }
    }

    /// Number of switch slots.
    pub fn slots(&self) -> usize {
        self.q
    }

    /// Clears every placement, restoring the pristine post-construction
    /// state without reallocating. Parallel search workers call this
    /// between subtree replays; state must end up bit-for-bit identical to
    /// a freshly built evaluator (occupancy sums included — they are
    /// assigned, not accumulated, so no float residue survives).
    pub fn reset(&mut self) {
        self.assign.fill(UNASSIGNED);
        self.used_capacity.fill(0.0);
        self.nodes_on.fill(0);
        self.occupied = 0;
        self.pair_bytes.fill(0);
        self.order_edges.fill(0);
        self.amax = 0;
        self.at_max = 0;
        self.reach.fill(0);
        self.acyclic = true;
    }

    /// The running objective: the largest per-ordered-pair byte total.
    pub fn amax(&self) -> u64 {
        self.amax
    }

    /// `true` iff the switch-order relation induced by cross-switch
    /// dependency edges is acyclic (a deployable assignment).
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// `true` iff a chain of switch-order edges leads from slot `a` to
    /// slot `b` (`a` must come before `b` on every packet's path).
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        self.reach[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }

    /// The closure row of slot `a`: bit `b` is set iff `a` precedes `b`.
    pub(crate) fn successors_row(&self, a: usize) -> &[u64] {
        &self.reach[a * self.words..(a + 1) * self.words]
    }

    /// `true` iff placing the unplaced `node` on slot `c` would leave the
    /// switch order cyclic — asked before [`IncrementalEval::place`], so a
    /// caller can refuse the placement without making and undoing it. A
    /// cyclic relation stays cyclic whatever is placed.
    pub fn creates_cycle(&self, node: usize, c: usize) -> bool {
        if !self.acyclic {
            return true;
        }
        // Every new order edge touches `c`, so a new cycle runs out of `c`
        // (along an old edge or a new `c -> s`) and back into it along a
        // new `p -> c`, or back through `c` itself after a new `c -> s`.
        let preds = self.in_adj[self.in_off[node]..self.in_off[node + 1]]
            .iter()
            .map(|&(u, _)| self.assign[u])
            .filter(move |&p| p != UNASSIGNED && p != c);
        let mut succs = self.out_adj[self.out_off[node]..self.out_off[node + 1]]
            .iter()
            .map(|&(v, _)| self.assign[v])
            .filter(move |&s| s != UNASSIGNED && s != c);
        preds.clone().any(|p| self.precedes(c, p))
            || succs.any(|s| {
                self.precedes(s, c) || preds.clone().any(|p| p == s || self.precedes(s, p))
            })
    }

    /// Number of slots currently holding at least one node.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Number of nodes on slot `c`.
    pub fn nodes_on(&self, c: usize) -> u32 {
        self.nodes_on[c]
    }

    /// Total resource of the nodes on slot `c`.
    pub fn used_capacity(&self, c: usize) -> f64 {
        self.used_capacity[c]
    }

    /// The current node -> slot assignment ([`UNASSIGNED`] = unplaced).
    pub fn assignment(&self) -> &[usize] {
        &self.assign
    }

    /// Cross-pair byte total for the ordered slot pair `(a, b)`.
    pub fn pair_bytes(&self, a: usize, b: usize) -> u64 {
        self.pair_bytes[a * self.q + b]
    }

    /// The TDG in-edges of `node` as `(predecessor index, bytes)`.
    pub(crate) fn in_edges(&self, node: usize) -> &[(usize, u32)] {
        &self.in_adj[self.in_off[node]..self.in_off[node + 1]]
    }

    /// The resource `R(a)` of `node`.
    pub(crate) fn resource(&self, node: usize) -> f64 {
        self.resource[node]
    }

    /// Places `node` on slot `c`, updating all derived state in
    /// O(degree(node)) (plus an O(q · q/64) closure update per new
    /// switch-order edge).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `node` is already placed.
    pub fn place(&mut self, node: usize, c: usize) {
        debug_assert_eq!(self.assign[node], UNASSIGNED, "node {node} already placed");
        self.assign[node] = c;
        self.used_capacity[c] += self.resource[node];
        self.nodes_on[c] += 1;
        if self.nodes_on[c] == 1 {
            self.occupied += 1;
        }
        for i in self.in_off[node]..self.in_off[node + 1] {
            let (u, bytes) = self.in_adj[i];
            let uc = self.assign[u];
            if uc != UNASSIGNED && uc != c && self.add_edge(uc, c, bytes) {
                self.link(uc, c);
            }
        }
        for i in self.out_off[node]..self.out_off[node + 1] {
            let (v, bytes) = self.out_adj[i];
            let vc = self.assign[v];
            if vc != UNASSIGNED && vc != c && self.add_edge(c, vc, bytes) {
                self.link(c, vc);
            }
        }
    }

    /// Reverts [`IncrementalEval::place`] for `node`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `node` is not placed.
    pub fn unplace(&mut self, node: usize) {
        let c = self.assign[node];
        debug_assert_ne!(c, UNASSIGNED, "node {node} not placed");
        self.assign[node] = UNASSIGNED;
        self.used_capacity[c] -= self.resource[node];
        self.nodes_on[c] -= 1;
        if self.nodes_on[c] == 0 {
            self.occupied -= 1;
            // Snap accumulated floating-point residue to a clean zero so
            // emptiness tests (`used_capacity == 0.0`) stay exact.
            self.used_capacity[c] = 0.0;
        }
        let mut order_removed = false;
        for i in self.in_off[node]..self.in_off[node + 1] {
            let (u, bytes) = self.in_adj[i];
            let uc = self.assign[u];
            if uc != UNASSIGNED && uc != c {
                order_removed |= self.remove_edge(uc, c, bytes);
            }
        }
        for i in self.out_off[node]..self.out_off[node + 1] {
            let (v, bytes) = self.out_adj[i];
            let vc = self.assign[v];
            if vc != UNASSIGNED && vc != c {
                order_removed |= self.remove_edge(c, vc, bytes);
            }
        }
        // Reachability cannot shrink edge by edge; rebuild it.
        if order_removed {
            self.rebuild_closure();
        }
    }

    /// Adds one dependency edge to ordered pair `(a, b)`; returns `true`
    /// iff this created the pair's first order edge.
    fn add_edge(&mut self, a: usize, b: usize, bytes: u32) -> bool {
        let idx = a * self.q + b;
        self.order_edges[idx] += 1;
        if bytes > 0 {
            let new = self.pair_bytes[idx] + u64::from(bytes);
            self.pair_bytes[idx] = new;
            if new > self.amax {
                self.amax = new;
                self.at_max = 1;
            } else if new == self.amax {
                // The pair arrived at the max (it was strictly below).
                self.at_max += 1;
            }
        }
        self.order_edges[idx] == 1
    }

    /// Removes one dependency edge from ordered pair `(a, b)`; returns
    /// `true` iff this removed the pair's last order edge.
    fn remove_edge(&mut self, a: usize, b: usize, bytes: u32) -> bool {
        let idx = a * self.q + b;
        self.order_edges[idx] -= 1;
        if bytes > 0 {
            let old = self.pair_bytes[idx];
            self.pair_bytes[idx] = old - u64::from(bytes);
            if old == self.amax {
                self.at_max -= 1;
                if self.at_max == 0 {
                    self.rescan_max();
                }
            }
        }
        self.order_edges[idx] == 0
    }

    /// Full O(q²) rescan of the byte matrix; only reached when the last
    /// pair at the maximum dropped below it.
    fn rescan_max(&mut self) {
        self.amax = 0;
        self.at_max = 0;
        for &b in &self.pair_bytes {
            if b > self.amax {
                self.amax = b;
                self.at_max = 1;
            } else if b == self.amax && b > 0 {
                self.at_max += 1;
            }
        }
        if self.amax == 0 {
            self.at_max = 0;
        }
    }

    /// Adds the order edge `a -> b` to the closure: every slot that is `a`
    /// or reaches `a` now also reaches `b` and all `b` reaches. A chain
    /// that uses the new edge twice contains a cycle through it and is
    /// covered by its last use, so one pass is exact.
    fn link(&mut self, a: usize, b: usize) {
        let w = self.words;
        // The edge closes a cycle iff `b` already reaches `a`.
        if self.precedes(b, a) {
            self.acyclic = false;
        }
        self.row.copy_from_slice(&self.reach[b * w..(b + 1) * w]);
        self.row[b / 64] |= 1 << (b % 64);
        for x in 0..self.q {
            if x == a || self.precedes(x, a) {
                for (r, &add) in self.reach[x * w..(x + 1) * w].iter_mut().zip(&self.row) {
                    *r |= add;
                }
            }
        }
    }

    /// Recomputes the closure from the order-edge counts (Warshall over
    /// bitset rows) and with it acyclicity.
    fn rebuild_closure(&mut self) {
        let (q, w) = (self.q, self.words);
        self.reach.fill(0);
        for a in 0..q {
            for b in 0..q {
                if self.order_edges[a * q + b] > 0 {
                    self.reach[a * w + b / 64] |= 1 << (b % 64);
                }
            }
        }
        for k in 0..q {
            self.row.copy_from_slice(&self.reach[k * w..(k + 1) * w]);
            for x in 0..q {
                if self.precedes(x, k) {
                    for (r, &add) in self.reach[x * w..(x + 1) * w].iter_mut().zip(&self.row) {
                        *r |= add;
                    }
                }
            }
        }
        self.acyclic = (0..q).all(|a| !self.precedes(a, a));
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::test_support::chain_tdg;
    use hermes_dataplane::action::Action;
    use hermes_dataplane::fields::Field;
    use hermes_dataplane::mat::{Mat, MatchKind};
    use hermes_dataplane::program::Program;
    use hermes_tdg::AnalysisMode;
    use std::collections::BTreeSet;

    /// Reference objective: recompute the pair matrix from scratch.
    fn scratch_amax(tdg: &Tdg, assign: &[usize], q: usize) -> u64 {
        let mut pair = vec![0u64; q * q];
        for e in tdg.edges() {
            let (a, b) = (assign[e.from.index()], assign[e.to.index()]);
            if a != UNASSIGNED && b != UNASSIGNED && a != b {
                pair[a * q + b] += u64::from(e.bytes);
            }
        }
        pair.iter().copied().max().unwrap_or(0)
    }

    /// Reference acyclicity: Kahn over the from-scratch order matrix.
    fn scratch_acyclic(tdg: &Tdg, assign: &[usize], q: usize) -> bool {
        let mut edges = vec![false; q * q];
        for e in tdg.edges() {
            let (a, b) = (assign[e.from.index()], assign[e.to.index()]);
            if a != UNASSIGNED && b != UNASSIGNED && a != b {
                edges[a * q + b] = true;
            }
        }
        let mut indeg = vec![0u32; q];
        for a in 0..q {
            for b in 0..q {
                if edges[a * q + b] {
                    indeg[b] += 1;
                }
            }
        }
        let mut stack: Vec<usize> = (0..q).filter(|&b| indeg[b] == 0).collect();
        let mut seen = 0;
        while let Some(a) = stack.pop() {
            seen += 1;
            for b in 0..q {
                if edges[a * q + b] {
                    indeg[b] -= 1;
                    if indeg[b] == 0 {
                        stack.push(b);
                    }
                }
            }
        }
        seen == q
    }

    /// Reference closure: does a chain of order edges lead from `a` to `b`?
    fn scratch_precedes(tdg: &Tdg, assign: &[usize], a: usize, b: usize) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![a];
        while let Some(x) = stack.pop() {
            for e in tdg.edges() {
                let (u, v) = (assign[e.from.index()], assign[e.to.index()]);
                if u == x && v != UNASSIGNED && u != v && seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        seen.contains(&b)
    }

    /// Checks the running state against from-scratch recomputation: the
    /// objective, acyclicity, the closure between occupied slots, and the
    /// cycle test for every unplaced node on every slot.
    fn check_against_reference(eval: &IncrementalEval, tdg: &Tdg, q: usize) {
        check_probing(eval, tdg, q, &(0..q).collect::<Vec<_>>());
    }

    /// [`check_against_reference`], probing the cycle test on `slots` only.
    fn check_probing(eval: &IncrementalEval, tdg: &Tdg, q: usize, slots: &[usize]) {
        let assign = eval.assignment();
        assert_eq!(eval.amax(), scratch_amax(tdg, assign, q));
        assert_eq!(eval.is_acyclic(), scratch_acyclic(tdg, assign, q));
        let occupied: BTreeSet<usize> =
            assign.iter().copied().filter(|&c| c != UNASSIGNED).collect();
        for &a in &occupied {
            for &b in &occupied {
                assert_eq!(eval.precedes(a, b), scratch_precedes(tdg, assign, a, b), "{a} -> {b}");
            }
        }
        let mut probe = assign.to_vec();
        for node in (0..assign.len()).filter(|&node| assign[node] == UNASSIGNED) {
            for &c in slots {
                probe[node] = c;
                let cyclic = !scratch_acyclic(tdg, &probe, q);
                assert_eq!(eval.creates_cycle(node, c), cyclic, "node {node} on {c}");
            }
            probe[node] = UNASSIGNED;
        }
    }

    #[test]
    fn chain_split_objective_matches_reference() {
        let tdg = chain_tdg(&[3, 7, 5], 0.2);
        let q = 2;
        let mut eval = IncrementalEval::new(&tdg, q);
        eval.place(0, 0);
        eval.place(1, 0);
        eval.place(2, 1);
        eval.place(3, 1);
        assert_eq!(eval.amax(), 7);
        assert!(eval.is_acyclic());
        assert_eq!(eval.occupied(), 2);
        check_against_reference(&eval, &tdg, q);
        eval.unplace(2);
        check_against_reference(&eval, &tdg, q);
        eval.place(2, 0);
        assert_eq!(eval.amax(), 5);
        check_against_reference(&eval, &tdg, q);
    }

    #[test]
    fn unplace_restores_previous_state_exactly() {
        let tdg = chain_tdg(&[4, 4, 4, 4], 0.2);
        let q = 3;
        let mut eval = IncrementalEval::new(&tdg, q);
        for (node, c) in [(0usize, 0usize), (1, 1), (2, 2), (3, 0)] {
            eval.place(node, c);
        }
        let before = (eval.amax(), eval.is_acyclic(), eval.occupied());
        eval.place(4, 1);
        eval.unplace(4);
        assert_eq!((eval.amax(), eval.is_acyclic(), eval.occupied()), before);
        check_against_reference(&eval, &tdg, q);
    }

    #[test]
    fn reset_matches_freshly_constructed_evaluator() {
        let tdg = chain_tdg(&[4, 4, 4, 4], 0.2);
        let q = 3;
        let mut recycled = IncrementalEval::new(&tdg, q);
        for (node, c) in [(0usize, 0usize), (1, 1), (2, 2), (3, 0), (4, 1)] {
            recycled.place(node, c);
        }
        recycled.reset();
        let mut fresh = IncrementalEval::new(&tdg, q);
        // Replaying the same sequence on both must agree bit-for-bit on
        // every observable (float occupancy included).
        for (node, c) in [(0usize, 2usize), (1, 0), (2, 1), (3, 2), (4, 0)] {
            recycled.place(node, c);
            fresh.place(node, c);
        }
        assert_eq!(recycled.assignment(), fresh.assignment());
        assert_eq!(recycled.amax(), fresh.amax());
        assert_eq!(recycled.is_acyclic(), fresh.is_acyclic());
        assert_eq!(recycled.occupied(), fresh.occupied());
        for c in 0..q {
            assert_eq!(recycled.nodes_on(c), fresh.nodes_on(c));
            assert_eq!(recycled.used_capacity(c).to_bits(), fresh.used_capacity(c).to_bits());
        }
        check_against_reference(&recycled, &tdg, q);
    }

    #[test]
    fn cycle_detected_and_cleared() {
        // a -> b with a on s0, b on s1 gives order s0 < s1; putting a
        // second edge c -> d with c on s1, d on s0 closes the cycle.
        let mut b = Program::builder("p");
        for (i, (m, w)) in
            [(None, Some("x")), (Some("x"), None), (None, Some("y")), (Some("y"), None)]
                .into_iter()
                .enumerate()
        {
            let mut mat = Mat::builder(format!("t{i}")).resource(0.1);
            if let Some(name) = m {
                mat = mat.match_field(Field::metadata(name.to_owned(), 4), MatchKind::Exact);
            }
            let writes = w.map(|n| vec![Field::metadata(n.to_owned(), 4)]).unwrap_or_default();
            mat = mat.action(Action::writing("w", writes));
            b = b.table(mat.build().unwrap());
        }
        let tdg = Tdg::from_program(&b.build().unwrap(), AnalysisMode::PaperLiteral);
        assert_eq!(tdg.edge_count(), 2);
        let q = 2;
        let mut eval = IncrementalEval::new(&tdg, q);
        eval.place(0, 0);
        eval.place(1, 1); // order s0 < s1
        eval.place(2, 1);
        assert!(eval.is_acyclic());
        eval.place(3, 0); // order s1 < s0: cycle
        assert!(!eval.is_acyclic());
        check_against_reference(&eval, &tdg, q);
        eval.unplace(3);
        assert!(eval.is_acyclic());
        check_against_reference(&eval, &tdg, q);
    }

    #[test]
    fn emptied_slot_capacity_snaps_to_zero() {
        let tdg = chain_tdg(&[4], 0.3);
        let mut eval = IncrementalEval::new(&tdg, 2);
        eval.place(0, 1);
        eval.place(1, 1);
        eval.unplace(0);
        eval.unplace(1);
        assert_eq!(eval.used_capacity(1), 0.0);
        assert_eq!(eval.occupied(), 0);
    }

    #[test]
    fn closure_rows_of_several_words_match_scratch_reference() {
        // 130 slots: the closure rows span three words. The chain's nodes
        // land on slots spread over all of them, on both sides of each
        // word boundary.
        let tdg = chain_tdg(&[3, 1, 4, 1, 5, 9, 2, 6], 0.1);
        let q = 130;
        let slots = [0, 63, 64, 65, 127, 128, 129, 1];
        let mut eval = IncrementalEval::new(&tdg, q);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let (node, slot) = ((state >> 33) as usize % tdg.node_count(), (state >> 45) as usize);
            if eval.assignment()[node] == UNASSIGNED {
                eval.place(node, slots[slot % slots.len()]);
            } else {
                eval.unplace(node);
            }
            check_probing(&eval, &tdg, q, &slots);
        }
    }

    #[test]
    fn randomized_place_unplace_matches_scratch_reference() {
        // Deterministic LCG over a star-ish TDG; every step cross-checks.
        let tdg = chain_tdg(&[2, 9, 4, 1, 6, 3], 0.1);
        let n = tdg.node_count();
        let q = 3;
        let mut eval = IncrementalEval::new(&tdg, q);
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for _ in 0..500 {
            let node = rng() % n;
            if eval.assignment()[node] == UNASSIGNED {
                eval.place(node, rng() % q);
            } else {
                eval.unplace(node);
            }
            check_against_reference(&eval, &tdg, q);
        }
    }
}
