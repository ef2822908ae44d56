//! Pre-activation plan validation — the gate the failure-aware runtime
//! runs before switching traffic onto a new plan.
//!
//! A candidate plan (fresh deployment or healed layout) must pass two
//! independent checks before activation:
//!
//! 1. the static constraint verifier ([`hermes_core::verify()`], Eq. 4–9 of
//!    the paper), and
//! 2. packet-level equivalence against the single-logical-switch
//!    reference ([`CompiledPlan::equivalent`]) over a battery of
//!    deterministic test packets.
//!
//! Both are reported through one serializable [`ValidationReport`] so the
//! runtime event log can record exactly why an activation was refused.

use crate::config::{generate, DeploymentArtifacts};
use crate::emulator::{test_packet, CompiledPlan};
use hermes_core::{verify, DeploymentPlan, Epsilon};
use hermes_net::Network;
use hermes_tdg::Tdg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One reason a candidate plan failed validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValidationFailure {
    /// A static constraint of the paper's formulation was violated
    /// (rendered through the verifier's own `Display`).
    Constraint {
        /// Human-readable violation description.
        violation: String,
    },
    /// The plan's switch-level dependency graph is cyclic: no order exists
    /// in which a packet could visit the switches, so there is no
    /// distributed execution to compare.
    UnorderedPlan,
    /// The distributed execution diverged from the single-logical-switch
    /// reference for one of the test packets.
    Divergence {
        /// The seed of the diverging [`test_packet`].
        packet_seed: u64,
    },
}

impl fmt::Display for ValidationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationFailure::Constraint { violation } => {
                write!(f, "constraint violated: {violation}")
            }
            ValidationFailure::UnorderedPlan => {
                f.write_str("plan has a cyclic switch dependency graph")
            }
            ValidationFailure::Divergence { packet_seed } => {
                write!(f, "distributed execution diverged on packet seed {packet_seed}")
            }
        }
    }
}

impl std::error::Error for ValidationFailure {}

/// Outcome of [`validate_plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Everything that failed; empty means the plan may be activated.
    pub failures: Vec<ValidationFailure>,
    /// How many test packets were pushed through the emulator.
    pub packets_checked: usize,
}

impl ValidationReport {
    /// `true` iff the plan passed every check.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            write!(f, "valid ({} packets checked)", self.packets_checked)
        } else {
            write!(f, "{} failure(s), first: {}", self.failures.len(), self.failures[0])
        }
    }
}

/// Validates a candidate plan: static constraints (Eq. 4–9) plus
/// packet-level equivalence for every seed in `packet_seeds`. Returns the
/// report together with the generated artifacts so a passing plan can be
/// activated without regenerating configurations.
pub fn validate_plan(
    tdg: &Tdg,
    net: &Network,
    plan: &DeploymentPlan,
    eps: &Epsilon,
    packet_seeds: &[u64],
) -> (ValidationReport, DeploymentArtifacts) {
    let mut failures: Vec<ValidationFailure> = verify(tdg, net, plan, eps)
        .into_iter()
        .map(|v| ValidationFailure::Constraint { violation: v.to_string() })
        .collect();
    let artifacts = generate(tdg, net, plan);
    // Equivalence is only meaningful for structurally sound plans; a plan
    // with constraint violations is already rejected.
    if failures.is_empty() {
        match CompiledPlan::compile(tdg, plan, &artifacts) {
            None => failures.push(ValidationFailure::UnorderedPlan),
            Some(compiled) => failures.extend(
                packet_seeds
                    .iter()
                    .filter(|&&seed| !compiled.equivalent(test_packet(seed)))
                    .map(|&seed| ValidationFailure::Divergence { packet_seed: seed }),
            ),
        }
    }
    (ValidationReport { failures, packets_checked: packet_seeds.len() }, artifacts)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use hermes_core::{DeploymentAlgorithm, GreedyHeuristic, ProgramAnalyzer};
    use hermes_dataplane::library;
    use hermes_net::topology;

    fn deployed() -> (Tdg, Network, DeploymentPlan, Epsilon) {
        let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
        let net = topology::linear(4, 10.0);
        let eps = Epsilon::loose();
        let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).unwrap();
        (tdg, net, plan, eps)
    }

    #[test]
    fn sound_plan_validates() {
        let (tdg, net, plan, eps) = deployed();
        let (report, artifacts) = validate_plan(&tdg, &net, &plan, &eps, &[0, 1, 2, 3]);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.packets_checked, 4);
        assert!(!artifacts.switches.is_empty());
    }

    #[test]
    fn epsilon_violation_is_reported() {
        let (tdg, net, plan, _) = deployed();
        let tight = Epsilon::new(0.0, usize::MAX);
        let (report, _) = validate_plan(&tdg, &net, &plan, &tight, &[0]);
        assert!(!report.is_ok());
        assert!(matches!(report.failures[0], ValidationFailure::Constraint { .. }));
        assert!(report.to_string().contains("failure"));
    }

    #[test]
    fn plan_over_failed_switch_is_rejected() {
        let (tdg, mut net, plan, eps) = deployed();
        let dead = *plan.occupied_switches().iter().next().unwrap();
        net.fail_switch(dead);
        let (report, _) = validate_plan(&tdg, &net, &plan, &eps, &[0]);
        assert!(!report.is_ok(), "a plan using a dead switch must not validate");
    }

    #[test]
    fn report_round_trips_through_json() {
        let (tdg, net, plan, eps) = deployed();
        let (report, _) = validate_plan(&tdg, &net, &plan, &eps, &[0]);
        let text = serde_json::to_string(&report).unwrap();
        let back: ValidationReport = serde_json::from_str(&text).unwrap();
        assert_eq!(report, back);
    }
}
