//! Stable content fingerprints for plans and TDGs.
//!
//! The durability layer (`hermes-runtime`'s intent journal) persists
//! deployment intent across controller restarts and must detect, on
//! recovery, whether the operator re-supplied the same workload the
//! journal was written against. Structural equality cannot be used — the
//! journal stores only serialized state — so both sides compare a
//! fingerprint.
//!
//! - A **plan**'s fingerprint is FNV-1a over its canonical `serde_json`
//!   serialization, which is deterministic (ordered maps, fixed field
//!   order) and so stable across runs and processes. The journal writes
//!   that same text, so a writer that has rendered the plan hashes the
//!   bytes it holds ([`fnv1a64`]); [`json_fingerprint`] streams the text
//!   straight into the hash instead, never holding it.
//! - A **TDG**'s fingerprint ([`tdg_fingerprint`]) is computed from its
//!   structure, not its text: exactly what its JSON covers, written
//!   property by property into a [`ContentHasher`] (FNV-1a with a
//!   `fmix64` finish). A field goes in as its content word
//!   ([`Field::content_hash`](hermes_dataplane::Field::content_hash)), so
//!   a 600-node graph hashes in a tenth of a millisecond where rendering
//!   its half-megabyte of JSON took over one. Nothing is routed through
//!   `std::hash`, whose output std does not promise across releases.
//!
//! These are integrity checks against operator error, not cryptographic
//! commitments; 64 bits are collision-resistant enough to catch "wrong
//! workload file" and "stale plan" mistakes, which is all recovery needs.

use hermes_dataplane::{ContentHasher, Mat};
use hermes_tdg::{AnalysisMode, DependencyType, Tdg};
use serde::Serialize;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash: the sink the serializer writes into.
struct Fnv1a(u64);

impl serde::Write for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// FNV-1a over raw bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET);
    serde::Write::write(&mut hash, bytes);
    hash.0
}

/// FNV-1a over the canonical JSON serialization of `value`. Falls back to
/// hashing the serializer's error text if serialization fails (derived
/// serialization of the types fingerprinted here cannot fail, but a
/// fingerprint function must not panic).
pub fn json_fingerprint<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut hash = Fnv1a(FNV_OFFSET);
    match serde_json::to_writer(&mut hash, value) {
        Ok(()) => hash.0,
        Err(e) => fnv1a64(e.to_string().as_bytes()),
    }
}

/// Stable fingerprint of a table dependency graph. Recovery compares this
/// against the fingerprint journaled at deployment time to refuse
/// replaying intent against the wrong workload.
///
/// Covers exactly what the graph's JSON covers: the mode, the node and
/// edge counts, then per node its name, its programs and the table's six
/// serialized properties, then per edge its endpoints, type and bytes. Every string and list is length-prefixed, every number a
/// little-endian word, every enum an explicit tag.
pub fn tdg_fingerprint(tdg: &Tdg) -> u64 {
    let mut h = ContentHasher::new();
    h.write_u64(match tdg.mode() {
        AnalysisMode::PaperLiteral => 0,
        AnalysisMode::Intersection => 1,
        AnalysisMode::RelaxedState => 2,
    });
    h.write_u64(tdg.node_count() as u64);
    h.write_u64(tdg.edge_count() as u64);
    for node in tdg.nodes() {
        h.write_str(&node.name);
        h.write_u64(node.programs.len() as u64);
        node.programs.iter().for_each(|p| h.write_str(p));
        write_mat(&mut h, &node.mat);
    }
    for e in tdg.edges() {
        h.write_u64(e.from.index() as u64);
        h.write_u64(e.to.index() as u64);
        h.write_u64(match e.dep {
            DependencyType::Match => 0,
            DependencyType::Action => 1,
            DependencyType::ReverseMatch => 2,
            DependencyType::Successor => 3,
            DependencyType::RelaxedMatch => 4,
            DependencyType::RelaxedAction => 5,
            DependencyType::RelaxedReverse => 6,
        });
        h.write_u64(u64::from(e.bytes));
    }
    h.finish()
}

/// The six properties a table serializes, in their JSON order.
fn write_mat(h: &mut ContentHasher, mat: &Mat) {
    h.write_str(mat.name());
    h.write_u64(mat.match_specs().len() as u64);
    mat.match_specs().iter().for_each(|m| m.write_content(h));
    h.write_u64(mat.actions().len() as u64);
    mat.actions().iter().for_each(|a| a.write_content(h));
    h.write_u64(mat.rules().len() as u64);
    for rule in mat.rules() {
        h.write_u64(rule.patterns.len() as u64);
        rule.patterns.iter().for_each(|p| h.write_str(p));
        h.write_str(&rule.action);
        h.write_u64(u64::from(rule.priority));
    }
    h.write_u64(mat.capacity() as u64);
    h.write_u64(mat.resource().to_bits());
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::test_support::chain_tdg;
    use crate::ProgramAnalyzer;
    use hermes_dataplane::library;
    use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
    use serde::Value;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// Both fingerprints go into the journal, so they are a format: these
    /// fail by name if the structural TDG scheme or the plan's JSON shape
    /// changes. The plan value was recorded at the commit before
    /// `DeploymentPlan` got a hand-written serializer.
    #[test]
    fn library_tdg_and_greedy_plan_fingerprints_are_pinned() {
        use crate::{DeploymentAlgorithm, Epsilon, GreedyHeuristic};
        let (tdg, net) = crate::test_support::linear_testbed(&library::real_programs());
        assert_eq!(tdg_fingerprint(&tdg), 0xa31b_dad6_43ba_cfc1);
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).expect("fits");
        assert_eq!(plan.fingerprint(), 0x8d8c_c0f2_98f6_79a1);
    }

    #[test]
    fn tdg_fingerprints_are_stable_and_discriminating() {
        let a = chain_tdg(&[4, 3, 5], 0.4);
        let b = chain_tdg(&[4, 3, 5], 0.4);
        let c = chain_tdg(&[4, 3, 6], 0.4);
        assert_eq!(tdg_fingerprint(&a), tdg_fingerprint(&b));
        assert_ne!(tdg_fingerprint(&a), tdg_fingerprint(&c));
    }

    /// The library and the `wan-50` program set (the library plus 40
    /// synthetic programs), merged under each analysis mode.
    fn merged_tdgs() -> Vec<Tdg> {
        let mut wan_50 = library::real_programs();
        wan_50.extend(SyntheticGenerator::new(50, SyntheticConfig::default()).programs(40));
        let modes =
            [AnalysisMode::PaperLiteral, AnalysisMode::Intersection, AnalysisMode::RelaxedState];
        modes
            .into_iter()
            .flat_map(|mode| {
                let analyzer = ProgramAnalyzer::with_mode(mode);
                [analyzer.analyze(&library::real_programs()), analyzer.analyze(&wan_50)]
            })
            .collect()
    }

    /// A graph is its JSON: reading the text back gives the fingerprint
    /// of the graph that wrote it.
    #[test]
    fn a_tdg_read_back_from_its_json_fingerprints_equal() {
        for tdg in merged_tdgs() {
            let back: Tdg = serde_json::from_str(&serde_json::to_string(&tdg).unwrap()).unwrap();
            assert_eq!(back, tdg);
            assert_eq!(tdg_fingerprint(&back), tdg_fingerprint(&tdg), "{:?}", tdg.mode());
        }
    }

    /// One step of a path into a JSON tree: an object key or an array
    /// index.
    enum Step {
        Key(&'static str),
        At(usize),
    }

    /// The value at `path` under `v`.
    fn at<'a>(v: &'a mut Value, path: &[Step]) -> &'a mut Value {
        path.iter().fold(v, |v, step| match (v, step) {
            (Value::Map(entries), Step::Key(key)) => {
                &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            (Value::Seq(items), Step::At(i)) => &mut items[*i],
            (v, _) => panic!("no such step into {v:?}"),
        })
    }

    type Edit = Box<dyn Fn(&mut Value)>;

    fn bump() -> Edit {
        Box::new(|v| match v {
            Value::UInt(u) => *u += 1,
            Value::Float(f) => *f *= 1.5,
            v => panic!("not a number: {v:?}"),
        })
    }

    fn set(to: Value) -> Edit {
        Box::new(move |v| *v = to.clone())
    }

    fn push(item: Value) -> Edit {
        Box::new(move |v| {
            let Value::Seq(items) = v else { panic!("not an array: {v:?}") };
            items.push(item.clone());
        })
    }

    /// Sets a unit variant to `a`, or to `b` where it already is `a`.
    fn flip(a: &'static str, b: &'static str) -> Edit {
        Box::new(move |v| *v = Value::Str(if *v == Value::Str(a.into()) { b } else { a }.into()))
    }

    /// Changing any one property the JSON serializes changes the
    /// fingerprint: each edit is made to the graph's JSON tree and read
    /// back through the checks a journaled graph passes.
    #[test]
    fn every_serialized_property_moves_the_fingerprint() {
        use Step::{At, Key};
        let (tdg, _) = crate::test_support::linear_testbed(&library::real_programs());
        let json = serde_json::to_value(&tdg).unwrap();
        let fp = tdg_fingerprint(&tdg);
        // The first node with a match key, a rule, and an action.
        let n = tdg
            .nodes()
            .iter()
            .position(|node| {
                let mat = &node.mat;
                !mat.match_specs().is_empty() && !mat.rules().is_empty()
            })
            .expect("the library has such a table");
        let node = |key| vec![Key("nodes"), At(n), Key(key)];
        let mat = |path: &[&'static str]| {
            let mut steps = vec![Key("nodes"), At(n), Key("mat")];
            steps.extend(path.iter().map(|&p| p.parse().map_or(Key(p), At)));
            steps
        };
        let edge = |key| vec![Key("edges"), At(0), Key(key)];
        // Re-pointing the first edge at a source (nothing reaches it) or a
        // sink (it reaches nothing) cannot close a cycle.
        let (from, to) = (tdg.edges()[0].from.index(), tdg.edges()[0].to.index());
        let other = |end: fn(&hermes_tdg::TdgEdge) -> usize| {
            let k = (0..tdg.node_count())
                .find(|&k| k != from && k != to && tdg.edges().iter().all(|e| end(e) != k))
                .unwrap();
            Value::UInt(k as u64)
        };
        let edits: Vec<(&str, Vec<Step>, Edit)> = vec![
            ("node name", node("name"), set(Value::Str("renamed".into()))),
            ("programs", node("programs"), push(Value::Str("zz_extra".into()))),
            ("mat name", mat(&["name"]), set(Value::Str("renamed".into()))),
            ("match kind", mat(&["match_specs", "0", "kind"]), flip("Range", "Exact")),
            ("match field", mat(&["match_specs", "0", "field", "size_bytes"]), bump()),
            ("action", mat(&["actions", "0", "ops"]), push(Value::Str("Drop".into()))),
            ("rule", mat(&["rules", "0", "priority"]), bump()),
            ("capacity", mat(&["capacity"]), bump()),
            ("resource", mat(&["resource"]), bump()),
            ("edge from", edge("from"), set(other(|e| e.to.index()))),
            ("edge to", edge("to"), set(other(|e| e.from.index()))),
            ("edge dep", edge("dep"), flip("Action", "Match")),
            ("edge bytes", edge("bytes"), bump()),
            ("mode", vec![Key("mode")], flip("Intersection", "PaperLiteral")),
        ];
        for (what, path, edit) in edits {
            let mut edited = json.clone();
            edit(at(&mut edited, &path));
            assert_ne!(edited, json, "{what}: the edit changed nothing");
            let changed = <Tdg as serde::Deserialize>::from_value(&edited)
                .unwrap_or_else(|e| panic!("{what}: the edited graph does not read back: {e}"));
            assert_ne!(tdg_fingerprint(&changed), fp, "{what}");
        }
    }
}
