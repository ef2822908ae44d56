//! Memoized stage-feasibility oracle.
//!
//! Every solver in the portfolio asks the same question thousands of times:
//! *does this set of MATs admit a dependency-respecting stage assignment on
//! this target's pipeline?* The reference answer
//! ([`crate::stage_assign::stage_feasible`]) repacks the whole set from
//! scratch on each call. [`StageFeasCache`] memoizes the answer per
//! `(switch shape, node-set fingerprint)` and keeps the packed pipeline
//! state of each feasible set, so that the common "extend by one node"
//! probe of the branch-and-bound search is answered by a single incremental
//! `Packing::push` instead of a full repack — and repeat probes of any
//! set are O(1) hash lookups with no allocation.
//!
//! # Key scheme
//!
//! The outer key is the switch *shape* [`TargetModel::shape_key`] —
//! `(stages, stage_capacity bits, total_budget bits)`, so switches with
//! identical pipelines share one sub-cache (which is what
//! makes the symmetric-switch testbeds cache-friendly) while budgeted
//! targets can never share verdicts with budget-free ones. The inner key is the
//! node-set fingerprint: the set's membership bitset (`u64` words over
//! dense [`NodeId`] indices), an exact key rather than a lossy hash so a
//! collision can never flip a feasibility verdict.
//!
//! # Exactness of the extend fast path
//!
//! `Packing` (`crate::stage_assign`) places nodes in topological order, so
//! packing a set equals pushing its members one by one in topo order: the
//! packed state of a set
//! *is* the prefix state of any of its topo-order supersets. When a probe
//! extends a cached feasible set with a node that comes topo-after every
//! member (`last_pos` tracks this), one incremental push therefore yields
//! exactly the state a full repack would — no approximation. Any other
//! probe (topo-middle insertions from refinement moves, unseen sets, or an
//! infeasible base) falls back to a full — still memoized — repack.

use crate::stage_assign::Packing;
use hermes_net::TargetModel;
use hermes_tdg::{NodeId, Tdg};
use std::collections::{BTreeMap, BTreeSet};

/// Hard cap on cached entries across all shapes; the cache clears itself
/// when exceeded so degenerate workloads cannot grow it without bound.
const MAX_ENTRIES: usize = 1 << 20;

/// Cached pipeline state of one feasible node set.
#[derive(Debug, Clone)]
struct PackEntry {
    packing: Packing,
    /// Topo rank of the set's topo-last member plus one (0 = empty set);
    /// the extend fast path applies iff the new node's rank is `>=` this.
    last_pos_plus1: u32,
}

/// Hit/miss counters for the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCacheStats {
    /// Probes answered from the memo table alone.
    pub hits: u64,
    /// Probes answered by one incremental push onto a cached base.
    pub extends: u64,
    /// Probes that required a full repack.
    pub full_packs: u64,
}

/// Fingerprint -> verdict map for one pipeline shape (`None` = infeasible).
type ShapeMap = BTreeMap<Box<[u64]>, Option<PackEntry>>;

/// The target fingerprint keying sub-caches: [`TargetModel::shape_key`].
type ShapeKey = (usize, u64, u64);

/// Memoized stage-feasibility cache for one TDG.
///
/// Bound to the TDG it was built from (the topological order is computed
/// once at construction); callers must pass the same graph to every probe.
#[derive(Debug)]
pub struct StageFeasCache {
    node_count: usize,
    /// Rank -> node, the packing order.
    topo_order: Vec<NodeId>,
    /// Node index -> topo rank.
    topo_pos: Vec<u32>,
    /// [`TargetModel::shape_key`] -> fingerprint -> verdict.
    shapes: BTreeMap<ShapeKey, ShapeMap>,
    entries: usize,
    key_scratch: Vec<u64>,
    stats: StageCacheStats,
}

impl StageFeasCache {
    /// Builds a cache for `tdg`.
    ///
    /// # Panics
    ///
    /// Panics if `tdg` is not a DAG (TDGs always are).
    pub fn new(tdg: &Tdg) -> Self {
        let topo_order = tdg.topo_order().expect("TDGs are DAGs");
        let mut topo_pos = vec![0u32; tdg.node_count()];
        for (rank, id) in topo_order.iter().enumerate() {
            topo_pos[id.index()] = u32::try_from(rank).expect("node count fits u32");
        }
        StageFeasCache {
            node_count: tdg.node_count(),
            topo_order,
            topo_pos,
            shapes: BTreeMap::new(),
            entries: 0,
            key_scratch: Vec::new(),
            stats: StageCacheStats::default(),
        }
    }

    /// Number of `u64` words in a fingerprint for this TDG.
    pub fn word_len(&self) -> usize {
        self.node_count.div_ceil(64)
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> StageCacheStats {
        self.stats
    }

    /// Is `base ∪ {node}` stage-feasible on `model`'s pipeline? `base` is
    /// the membership bitset of the base set (exactly
    /// [`StageFeasCache::word_len`] words); `node` need not be in `base`.
    pub fn feasible_with(
        &mut self,
        tdg: &Tdg,
        model: &TargetModel,
        base: &[u64],
        node: NodeId,
    ) -> bool {
        debug_assert_eq!(base.len(), self.word_len());
        self.key_scratch.clear();
        self.key_scratch.extend_from_slice(base);
        self.key_scratch[node.index() / 64] |= 1u64 << (node.index() % 64);

        let shape = model.shape_key();
        if let Some(entry) = self.shapes.get(&shape).and_then(|m| m.get(&self.key_scratch[..])) {
            self.stats.hits += 1;
            return entry.is_some();
        }

        // Miss. Try the incremental path: a cached feasible base whose
        // members all come topo-before `node`.
        let base_entry = match self.shapes.get(&shape).and_then(|m| m.get(base)) {
            Some(e) => e.clone(),
            None => {
                let e = full_pack(&self.topo_order, tdg, model, base);
                self.stats.full_packs += 1;
                self.insert(shape, base.to_vec().into_boxed_slice(), e.clone());
                e
            }
        };
        let child = match base_entry {
            Some(mut entry) if self.topo_pos[node.index()] >= entry.last_pos_plus1 => {
                self.stats.extends += 1;
                match entry.packing.push(tdg, node, |_, _, _| {}) {
                    Ok(()) => {
                        entry.last_pos_plus1 = self.topo_pos[node.index()] + 1;
                        Some(entry)
                    }
                    Err(_) => None,
                }
            }
            _ => {
                self.stats.full_packs += 1;
                full_pack(&self.topo_order, tdg, model, &self.key_scratch)
            }
        };
        let feasible = child.is_some();
        let key = self.key_scratch.clone().into_boxed_slice();
        self.insert(shape, key, child);
        feasible
    }

    /// Memoized full feasibility check of an arbitrary fingerprint.
    pub fn feasible_words(&mut self, tdg: &Tdg, model: &TargetModel, words: &[u64]) -> bool {
        debug_assert_eq!(words.len(), self.word_len());
        let shape = model.shape_key();
        if let Some(entry) = self.shapes.get(&shape).and_then(|m| m.get(words)) {
            self.stats.hits += 1;
            return entry.is_some();
        }
        self.stats.full_packs += 1;
        let entry = full_pack(&self.topo_order, tdg, model, words);
        let feasible = entry.is_some();
        self.insert(shape, words.to_vec().into_boxed_slice(), entry);
        feasible
    }

    /// [`StageFeasCache::feasible_words`] for a `BTreeSet` of nodes — the
    /// drop-in replacement for [`crate::stage_assign::stage_feasible`] on
    /// probe-heavy paths.
    pub fn feasible_set(
        &mut self,
        tdg: &Tdg,
        model: &TargetModel,
        nodes: &BTreeSet<NodeId>,
    ) -> bool {
        let words = self.word_len();
        self.key_scratch.clear();
        self.key_scratch.resize(words, 0);
        for id in nodes {
            self.key_scratch[id.index() / 64] |= 1u64 << (id.index() % 64);
        }
        let key = std::mem::take(&mut self.key_scratch);
        let feasible = self.feasible_words(tdg, model, &key);
        self.key_scratch = key;
        feasible
    }

    fn insert(&mut self, shape: ShapeKey, key: Box<[u64]>, entry: Option<PackEntry>) {
        if self.entries >= MAX_ENTRIES {
            self.shapes.clear();
            self.entries = 0;
        }
        if self.shapes.entry(shape).or_default().insert(key, entry).is_none() {
            self.entries += 1;
        }
    }
}

/// Packs the fingerprinted set from scratch in topological order.
fn full_pack(
    topo_order: &[NodeId],
    tdg: &Tdg,
    model: &TargetModel,
    words: &[u64],
) -> Option<PackEntry> {
    let mut packing = Packing::new(model, tdg.node_count());
    let mut last_pos_plus1 = 0u32;
    for (rank, &id) in topo_order.iter().enumerate() {
        if words[id.index() / 64] & (1u64 << (id.index() % 64)) == 0 {
            continue;
        }
        packing.push(tdg, id, |_, _, _| {}).ok()?;
        last_pos_plus1 = u32::try_from(rank).expect("node count fits u32") + 1;
    }
    Some(PackEntry { packing, last_pos_plus1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_assign::stage_feasible;
    use crate::test_support::chain_tdg;

    fn words_of(cache: &StageFeasCache, nodes: &BTreeSet<NodeId>) -> Vec<u64> {
        let mut w = vec![0u64; cache.word_len()];
        for id in nodes {
            w[id.index() / 64] |= 1u64 << (id.index() % 64);
        }
        w
    }

    #[test]
    fn agrees_with_reference_on_all_subsets() {
        let tdg = chain_tdg(&[4, 4, 4], 0.6);
        let mut cache = StageFeasCache::new(&tdg);
        let ids: Vec<NodeId> = tdg.node_ids().collect();
        for (stages, cap) in [(2usize, 1.0f64), (3, 0.7), (4, 0.3)] {
            let model = TargetModel::pipeline(stages, cap);
            for mask in 0u32..(1 << ids.len()) {
                let set: BTreeSet<NodeId> =
                    ids.iter().filter(|id| mask & (1 << id.index()) != 0).copied().collect();
                assert_eq!(
                    cache.feasible_set(&tdg, &model, &set),
                    stage_feasible(&tdg, &set, &model),
                    "mask {mask:#b} stages {stages} cap {cap}"
                );
            }
        }
    }

    #[test]
    fn extend_path_agrees_with_reference() {
        let tdg = chain_tdg(&[4, 4, 4, 4], 0.5);
        let mut cache = StageFeasCache::new(&tdg);
        let ids: Vec<NodeId> = tdg.node_ids().collect();
        // Grow a set in topo order one node at a time, as the DFS does.
        let mut base = vec![0u64; cache.word_len()];
        let mut set = BTreeSet::new();
        let model = TargetModel::pipeline(3, 1.0);
        for &id in &ids {
            let expect = {
                let mut s = set.clone();
                s.insert(id);
                stage_feasible(&tdg, &s, &model)
            };
            assert_eq!(cache.feasible_with(&tdg, &model, &base, id), expect, "extend by {id}");
            base[id.index() / 64] |= 1u64 << (id.index() % 64);
            set.insert(id);
        }
        assert!(cache.stats().extends > 0, "topo-order growth should use the fast path");
    }

    #[test]
    fn repeat_probes_hit() {
        let tdg = chain_tdg(&[4, 4], 0.5);
        let mut cache = StageFeasCache::new(&tdg);
        let set: BTreeSet<NodeId> = tdg.node_ids().collect();
        let model = TargetModel::pipeline(4, 1.0);
        assert!(cache.feasible_set(&tdg, &model, &set));
        let before = cache.stats();
        assert!(cache.feasible_set(&tdg, &model, &set));
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.full_packs, before.full_packs);
    }

    #[test]
    fn shapes_are_keyed_separately() {
        let tdg = chain_tdg(&[4, 4, 4], 0.6);
        let mut cache = StageFeasCache::new(&tdg);
        let set: BTreeSet<NodeId> = tdg.node_ids().collect();
        // Same set, different pipeline shapes: verdicts must not bleed.
        assert!(!cache.feasible_set(&tdg, &TargetModel::pipeline(2, 0.6), &set));
        assert!(cache.feasible_set(&tdg, &TargetModel::pipeline(4, 0.7), &set));
        let w = words_of(&cache, &set);
        assert!(!cache.feasible_words(&tdg, &TargetModel::pipeline(2, 0.6), &w));
        assert!(cache.feasible_words(&tdg, &TargetModel::pipeline(4, 0.7), &w));
        // A budget turns the same stage shape into a different cache key.
        let mut budgeted = TargetModel::pipeline(4, 0.7);
        budgeted.total_budget = 1.0;
        assert!(!cache.feasible_words(&tdg, &budgeted, &w), "budget must not reuse verdict");
    }

    #[test]
    fn topo_middle_insertion_falls_back_to_full_pack() {
        // Chain t0 -> t1 -> t2; base {t0, t2}, insert t1 (topo-middle).
        let tdg = chain_tdg(&[4, 4], 0.9);
        let mut cache = StageFeasCache::new(&tdg);
        let ids: Vec<NodeId> = tdg.node_ids().collect();
        let base: BTreeSet<NodeId> = [ids[0], ids[2]].into();
        let base_words = words_of(&cache, &base);
        let full: BTreeSet<NodeId> = ids.iter().copied().collect();
        for stages in [2usize, 3, 4] {
            let model = TargetModel::pipeline(stages, 1.0);
            assert_eq!(
                cache.feasible_with(&tdg, &model, &base_words, ids[1]),
                stage_feasible(&tdg, &full, &model),
                "stages {stages}"
            );
        }
    }
}
