//! Dense field interning and bitset field sets for the hot analysis path.
//!
//! Dependency typing (paper §IV) is decided entirely by intersection tests
//! over the `F^m`/`F^a` read/write sets of MAT pairs, and `A(a,b)` sizing
//! sums metadata widths over unions/intersections of those sets. Comparing
//! [`Field`]s means comparing strings; on the pair loops of TDG
//! construction and merging that cost dominates. A [`FieldTable`] interns
//! every distinct [`Field`] once into a dense `u32` id, and a [`FieldSet`]
//! represents a field set as fixed-width `u64` words so that intersection
//! tests become word-AND loops and byte sums become bit iterations over a
//! precomputed overhead array.
//!
//! The sorted `&[Field]` sets a [`Mat`](crate::mat::Mat) derives once and
//! hands out by reference remain the reference semantics: the audit's
//! graph check re-derives every edge from them, with `Field` comparisons
//! and no table, precisely so that the bitset path has something other
//! than itself to be compared with. [`FieldSet::to_btree`] converts a
//! bitset back into `Field`s. Equivalence of the two representations is
//! asserted by the `eval_equivalence` property suite.

use crate::fields::{BuildFieldHasher, Field};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Fixed-width word-block kernels for the `FieldSet` hot loops.
///
/// Every hot operation walks words in blocks of [`LANES`] = 4 × `u64`
/// (256 bits): a branch-free reduction decides whether the whole block
/// can be skipped before any per-word bit walk runs. The kernels are plain
/// Rust shaped for autovectorization (fixed trip count, no data-dependent
/// branches inside a block).
mod kernels {
    /// Words per block: 4 × u64 = 256 bits.
    pub(super) const LANES: usize = 4;

    /// `true` iff any bit of `a & b` is set, over one 4-word block.
    #[inline]
    pub(super) fn and_any(a: &[u64], b: &[u64]) -> bool {
        debug_assert!(a.len() == LANES && b.len() == LANES);
        let mut acc = 0u64;
        for i in 0..LANES {
            acc |= a[i] & b[i];
        }
        acc != 0
    }

    /// `true` iff any bit of `a` is set, over one 4-word block.
    #[inline]
    pub(super) fn or_any(a: &[u64]) -> bool {
        debug_assert!(a.len() == LANES);
        let mut acc = 0u64;
        for w in a.iter().take(LANES) {
            acc |= w;
        }
        acc != 0
    }

    /// `true` iff any bit of `a | b` is set, over one 4-word block.
    #[inline]
    pub(super) fn or2_any(a: &[u64], b: &[u64]) -> bool {
        debug_assert!(a.len() == LANES && b.len() == LANES);
        let mut acc = 0u64;
        for i in 0..LANES {
            acc |= a[i] | b[i];
        }
        acc != 0
    }

    /// Popcount of one 4-word block.
    #[inline]
    pub(super) fn count_ones(a: &[u64]) -> usize {
        debug_assert!(a.len() == LANES);
        let mut total = 0u32;
        for w in a.iter().take(LANES) {
            total += w.count_ones();
        }
        total as usize
    }
}

/// Dense identifier of an interned [`Field`] within one [`FieldTable`].
///
/// Ids are only meaningful relative to the table that produced them and are
/// assigned in first-encounter order, so interning the same MATs in the
/// same order always yields the same ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FieldId(u32);

impl FieldId {
    /// The dense index of this field id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Interner mapping every distinct [`Field`] (structural identity: name,
/// kind, width) to a dense [`FieldId`], with the per-field piggyback
/// overhead cached for O(1) lookup during `A(a,b)` sizing. The index
/// hashes each field as its precomputed word ([`BuildFieldHasher`]).
#[derive(Debug, Clone, Default)]
pub struct FieldTable {
    fields: Vec<Field>,
    index: HashMap<Field, u32, BuildFieldHasher>,
    overhead: Vec<u32>,
}

impl FieldTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FieldTable::default()
    }

    /// Interns `field`, returning its dense id (existing or fresh).
    pub fn intern(&mut self, field: &Field) -> FieldId {
        if let Some(&id) = self.index.get(field) {
            return FieldId(id);
        }
        // Reaching 2^32 distinct fields takes over 100 GiB of `Field`s and
        // index entries before this line could fail, so the ids stay `u32`
        // and `intern` stays infallible for every caller.
        #[allow(clippy::disallowed_methods)]
        let id = u32::try_from(self.fields.len()).expect("fewer than 2^32 distinct fields");
        self.fields.push(field.clone());
        self.overhead.push(field.overhead_bytes());
        self.index.insert(field.clone(), id);
        FieldId(id)
    }

    /// The id of an already-interned field, if any.
    pub fn get(&self, field: &Field) -> Option<FieldId> {
        self.index.get(field).map(|&id| FieldId(id))
    }

    /// The field behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this table.
    pub fn field(&self, id: FieldId) -> &Field {
        &self.fields[id.index()]
    }

    /// Bytes `id`'s field adds to a packet crossing a switch boundary
    /// (its width for metadata, zero for header fields).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this table.
    pub fn overhead_bytes(&self, id: FieldId) -> u32 {
        self.overhead[id.index()]
    }

    /// Number of distinct fields interned so far.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// `true` iff no field has been interned.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Overhead sum over the set bits of word `wi` of a set.
    #[inline]
    fn word_overhead(&self, wi: usize, mut bits: u64) -> u32 {
        let mut total = 0u32;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            total += self.overhead[wi * 64 + bit];
            bits &= bits - 1;
        }
        total
    }

    /// Sum of [`FieldTable::overhead_bytes`] over the members of `set` —
    /// the `metadata_bytes` of the reference analysis. Walks 4-word
    /// blocks, skipping all-zero blocks before any per-bit work.
    pub fn overhead_sum(&self, set: &FieldSet) -> u32 {
        let mut total = 0u32;
        let mut chunks = set.words.chunks_exact(kernels::LANES);
        let mut wi = 0usize;
        for block in &mut chunks {
            if kernels::or_any(block) {
                for (i, &w) in block.iter().enumerate() {
                    total += self.word_overhead(wi + i, w);
                }
            }
            wi += kernels::LANES;
        }
        for (i, &w) in chunks.remainder().iter().enumerate() {
            total += self.word_overhead(wi + i, w);
        }
        total
    }

    /// Overhead sum over `a ∩ b` without materializing the intersection.
    /// Blocks whose AND is all-zero are skipped by one kernel test.
    pub fn intersection_overhead(&self, a: &FieldSet, b: &FieldSet) -> u32 {
        let n = a.words.len().min(b.words.len());
        let mut ca = a.words[..n].chunks_exact(kernels::LANES);
        let mut cb = b.words[..n].chunks_exact(kernels::LANES);
        let mut total = 0u32;
        let mut wi = 0usize;
        for (ba, bb) in (&mut ca).zip(&mut cb) {
            if kernels::and_any(ba, bb) {
                for i in 0..kernels::LANES {
                    total += self.word_overhead(wi + i, ba[i] & bb[i]);
                }
            }
            wi += kernels::LANES;
        }
        for (i, (&wa, &wb)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
            total += self.word_overhead(wi + i, wa & wb);
        }
        total
    }

    /// Overhead sum over `a ∪ b` without materializing the union. The
    /// common-width prefix runs in 4-word blocks; the longer set's tail is
    /// a plain [`FieldTable::overhead_sum`]-style walk.
    pub fn union_overhead(&self, a: &FieldSet, b: &FieldSet) -> u32 {
        let long = if a.words.len() >= b.words.len() { a } else { b };
        let short = if a.words.len() >= b.words.len() { b } else { a };
        let n = short.words.len();
        let mut cl = long.words[..n].chunks_exact(kernels::LANES);
        let mut cs = short.words.chunks_exact(kernels::LANES);
        let mut total = 0u32;
        let mut wi = 0usize;
        for (bl, bs) in (&mut cl).zip(&mut cs) {
            if kernels::or2_any(bl, bs) {
                for i in 0..kernels::LANES {
                    total += self.word_overhead(wi + i, bl[i] | bs[i]);
                }
            }
            wi += kernels::LANES;
        }
        for (i, (&wl, &ws)) in cl.remainder().iter().zip(cs.remainder()).enumerate() {
            total += self.word_overhead(wi + i, wl | ws);
        }
        for (i, &wl) in long.words[n..].iter().enumerate() {
            total += self.word_overhead(n + i, wl);
        }
        total
    }
}

/// A set of interned fields as `u64` bit words.
///
/// Sets built against a growing [`FieldTable`] may have different word
/// widths; every operation treats missing high words as zero, so sets of
/// different widths compose without re-padding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FieldSet {
    words: Vec<u64>,
}

impl FieldSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        FieldSet::default()
    }

    /// Inserts `id`, growing the word vector as needed.
    pub fn insert(&mut self, id: FieldId) {
        let word = id.index() / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (id.index() % 64);
    }

    /// `true` iff `id` is a member.
    pub fn contains(&self, id: FieldId) -> bool {
        self.words.get(id.index() / 64).is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// `true` iff the sets share at least one field — the test behind
    /// every dependency-type decision, as a 4-word block kernel.
    pub fn intersects(&self, other: &FieldSet) -> bool {
        let n = self.words.len().min(other.words.len());
        let mut ca = self.words[..n].chunks_exact(kernels::LANES);
        let mut cb = other.words[..n].chunks_exact(kernels::LANES);
        for (a, b) in (&mut ca).zip(&mut cb) {
            if kernels::and_any(a, b) {
                return true;
            }
        }
        ca.remainder().iter().zip(cb.remainder()).any(|(&a, &b)| a & b != 0)
    }

    /// Unions `other` into `self`.
    pub fn union_with(&mut self, other: &FieldSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of members (blockwise popcount).
    pub fn len(&self) -> usize {
        let mut chunks = self.words.chunks_exact(kernels::LANES);
        let mut total = 0usize;
        for block in &mut chunks {
            total += kernels::count_ones(block);
        }
        total + chunks.remainder().iter().map(|w| w.count_ones() as usize).sum::<usize>()
    }

    /// `true` iff no field is a member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates member ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = FieldId> + '_ {
        // A set only grows a word to hold a `u32` id, so the first id of
        // every word is a `u32` too.
        (0u32..).step_by(64).zip(&self.words).flat_map(|(first, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                Some(FieldId(first + bit))
            })
        })
    }

    /// The thin `BTreeSet` view used at serde/export boundaries: resolves
    /// every member back to its owning [`Field`].
    ///
    /// # Panics
    ///
    /// Panics if the set holds ids foreign to `table`.
    pub fn to_btree(&self, table: &FieldTable) -> BTreeSet<Field> {
        self.iter().map(|id| table.field(id).clone()).collect()
    }
}

impl FromIterator<FieldId> for FieldSet {
    fn from_iter<I: IntoIterator<Item = FieldId>>(iter: I) -> Self {
        let mut set = FieldSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    fn meta(name: &str, size: u32) -> Field {
        Field::metadata(name.to_owned(), size)
    }

    #[test]
    fn interning_is_idempotent() {
        let mut t = FieldTable::new();
        let a = t.intern(&meta("meta.x", 4));
        let b = t.intern(&meta("meta.x", 4));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.field(a), &meta("meta.x", 4));
    }

    #[test]
    fn structural_identity_distinguishes_widths() {
        let mut t = FieldTable::new();
        let a = t.intern(&meta("meta.x", 4));
        let b = t.intern(&meta("meta.x", 8));
        assert_ne!(a, b, "same name, different width: different field");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn header_fields_have_zero_overhead() {
        let mut t = FieldTable::new();
        let h = t.intern(&Field::header("ipv4.dst", 4));
        let m = t.intern(&meta("meta.x", 6));
        assert_eq!(t.overhead_bytes(h), 0);
        assert_eq!(t.overhead_bytes(m), 6);
    }

    #[test]
    fn set_ops_match_reference() {
        let mut t = FieldTable::new();
        // Spill across a word boundary: 70 distinct fields.
        let ids: Vec<FieldId> = (0..70).map(|i| t.intern(&meta(&format!("m{i}"), 1))).collect();
        let a: FieldSet = ids.iter().copied().step_by(2).collect();
        let b: FieldSet = ids.iter().copied().skip(1).step_by(2).collect();
        assert!(!a.intersects(&b));
        assert_eq!(a.len() + b.len(), 70);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 70);
        assert_eq!(t.overhead_sum(&u), 70);
        assert_eq!(t.union_overhead(&a, &b), 70);
        assert_eq!(t.intersection_overhead(&a, &b), 0);
        let c: FieldSet = [ids[0], ids[64], ids[69]].into_iter().collect();
        assert!(c.intersects(&a));
        assert_eq!(t.intersection_overhead(&c, &a), 2); // ids 0 and 64 are even
    }

    #[test]
    fn mismatched_widths_compose() {
        let mut t = FieldTable::new();
        let lo = t.intern(&meta("lo", 1));
        let hi = t.intern(&meta("hi65", 1));
        // Force `hi` past the first word.
        for i in 0..64 {
            t.intern(&meta(&format!("pad{i}"), 1));
        }
        let hi2 = t.intern(&meta("hi-word2", 1));
        let mut narrow = FieldSet::new();
        narrow.insert(lo);
        let mut wide = FieldSet::new();
        wide.insert(hi);
        wide.insert(hi2);
        assert!(!narrow.intersects(&wide));
        assert!(!wide.intersects(&narrow));
        assert!(!narrow.contains(hi2));
        let mut u = narrow.clone();
        u.union_with(&wide);
        assert_eq!(u.len(), 3);
        assert_eq!(t.union_overhead(&narrow, &wide), 3);
        assert_eq!(t.union_overhead(&wide, &narrow), 3);
    }

    #[test]
    fn chunked_kernels_match_bitwalk_reference() {
        // Dense-and-sparse patterns across 11 words (two full 4-word
        // blocks + remainder) against the naive per-bit reference.
        let mut t = FieldTable::new();
        let ids: Vec<FieldId> =
            (0..700).map(|i| t.intern(&meta(&format!("k{i}"), 1 + (i % 5)))).collect();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for trial in 0..50 {
            let a: FieldSet = ids.iter().copied().filter(|_| next() % 7 < (trial % 6)).collect();
            let b: FieldSet = ids.iter().copied().filter(|_| next() % 11 < (trial % 9)).collect();
            let inter_ref: u32 = ids
                .iter()
                .filter(|&&id| a.contains(id) && b.contains(id))
                .map(|&id| t.overhead_bytes(id))
                .sum();
            let union_ref: u32 = ids
                .iter()
                .filter(|&&id| a.contains(id) || b.contains(id))
                .map(|&id| t.overhead_bytes(id))
                .sum();
            assert_eq!(t.intersection_overhead(&a, &b), inter_ref);
            assert_eq!(t.union_overhead(&a, &b), union_ref);
            assert_eq!(t.union_overhead(&b, &a), union_ref);
            assert_eq!(t.overhead_sum(&a), t.union_overhead(&a, &a));
            assert_eq!(
                a.intersects(&b),
                inter_ref != 0 || {
                    // zero-overhead members can still intersect; recheck by id
                    ids.iter().any(|&id| a.contains(id) && b.contains(id))
                }
            );
            assert_eq!(a.len(), ids.iter().filter(|&&id| a.contains(id)).count());
        }
    }

    #[test]
    fn iteration_and_btree_view_round_trip() {
        let mut t = FieldTable::new();
        let fields = [meta("a", 2), meta("b", 3), Field::header("h", 4)];
        let set: FieldSet = fields.iter().map(|f| t.intern(f)).collect();
        let view = set.to_btree(&t);
        assert_eq!(view, fields.iter().cloned().collect::<BTreeSet<Field>>());
        assert_eq!(set.iter().count(), 3);
        assert_eq!(t.overhead_sum(&set), 5);
    }
}
