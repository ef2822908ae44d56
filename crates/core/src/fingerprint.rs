//! Stable content fingerprints for plans and TDGs.
//!
//! The durability layer (`hermes-runtime`'s intent journal) persists
//! deployment intent across controller restarts and must detect, on
//! recovery, whether the operator re-supplied the same workload the
//! journal was written against. Structural equality cannot be used — the
//! journal stores only serialized state — so both sides compare a
//! fingerprint: FNV-1a over the canonical `serde_json` serialization.
//! The serialization is deterministic (ordered maps, fixed field order),
//! which makes the fingerprint stable across runs and processes. The
//! serializer streams its text straight into the hash, so a fingerprint
//! never holds the JSON it covers.
//!
//! These are integrity checks against operator error, not cryptographic
//! commitments; FNV-1a is collision-resistant enough to catch "wrong
//! workload file" and "stale plan" mistakes, which is all recovery needs.

use hermes_tdg::Tdg;
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
pub fn tdg_fingerprint(tdg: &Tdg) -> u64 {
    json_fingerprint(tdg)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::test_support::chain_tdg;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// Both fingerprints go into the journal, so the JSON shape they hash
    /// is a format: recorded at the commit before `Tdg` and
    /// `DeploymentPlan` got hand-written serializers, these fail by name
    /// if a field is added, renamed or reordered.
    #[test]
    fn library_tdg_and_greedy_plan_fingerprints_are_pinned() {
        use crate::{DeploymentAlgorithm, Epsilon, GreedyHeuristic};
        let (tdg, net) =
            crate::test_support::linear_testbed(&hermes_dataplane::library::real_programs());
        assert_eq!(tdg_fingerprint(&tdg), 0x86b3_9aa9_4b2f_50f2);
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
}
