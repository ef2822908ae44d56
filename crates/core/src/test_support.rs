//! Shared test fixtures for solver tests across the workspace.
//!
//! Every solver crate used to carry its own copy of these helpers; they
//! now live in one place so fixtures cannot drift apart. The module is
//! compiled unconditionally (it is tiny) but is intended for `#[cfg(test)]`
//! consumers in `hermes-core`, `hermes-baselines`, `hermes-backend`, and
//! the workspace-level integration tests. Its fixtures are constant, so
//! a builder that rejected one would be a bug here: it may panic.
#![allow(clippy::disallowed_methods)]

use hermes_dataplane::action::Action;
use hermes_dataplane::fields::Field;
use hermes_dataplane::mat::{Mat, MatchKind};
use hermes_dataplane::program::Program;
use hermes_net::{Network, Switch, SwitchId};
use hermes_tdg::{AnalysisMode, Tdg};

/// A single-program chain TDG `t0 -> t1 -> … -> tn` where edge `i` carries
/// `bytes[i]` bytes of metadata and every MAT costs `resource` units.
///
/// # Panics
///
/// Panics only if the builder rejects the generated program (it cannot for
/// these inputs).
pub fn chain_tdg(bytes: &[u32], resource: f64) -> Tdg {
    chain_tdg_mode(bytes, resource, AnalysisMode::Intersection)
}

/// [`chain_tdg`] with an explicit [`AnalysisMode`], for tests that exercise
/// the paper-literal window semantics.
///
/// # Panics
///
/// Panics only if the builder rejects the generated program (it cannot for
/// these inputs).
pub fn chain_tdg_mode(bytes: &[u32], resource: f64, mode: AnalysisMode) -> Tdg {
    let n = bytes.len() + 1;
    let mut b = Program::builder("p");
    for i in 0..n {
        let mut mat = Mat::builder(format!("t{i}")).resource(resource);
        if i > 0 {
            mat = mat.match_field(
                Field::metadata(format!("m{}", i - 1), bytes[i - 1]),
                MatchKind::Exact,
            );
        }
        let writes =
            if i < bytes.len() { vec![Field::metadata(format!("m{i}"), bytes[i])] } else { vec![] };
        mat = mat.action(Action::writing("w", writes));
        b = b.table(mat.build().unwrap());
    }
    Tdg::from_program(&b.build().unwrap(), mode)
}

/// Analyzes `programs` into a merged TDG and pairs it with the
/// three-switch linear testbed (10 µs links) used throughout the
/// evaluation — the fixture every baseline crate used to re-derive.
pub fn linear_testbed(programs: &[Program]) -> (Tdg, Network) {
    (crate::ProgramAnalyzer::new().analyze(programs), hermes_net::topology::linear(3, 10.0))
}

/// A linear network of `n` identical programmable switches (`stages`
/// pipeline stages of `cap` capacity each, 1 µs switch latency, 10 µs
/// links).
pub fn tiny_switches(n: usize, stages: usize, cap: f64) -> Network {
    let mut net = Network::new();
    let ids: Vec<SwitchId> = (0..n)
        .map(|i| {
            net.add_switch(Switch {
                stages,
                stage_capacity: cap,
                ..Switch::tofino(format!("s{i}"))
            })
        })
        .collect();
    for w in ids.windows(2) {
        net.add_link(w[0], w[1], 10.0).unwrap();
    }
    net
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape_matches_inputs() {
        let tdg = chain_tdg(&[1, 4], 0.5);
        assert_eq!(tdg.node_count(), 3);
        assert_eq!(tdg.edge_count(), 2);
    }

    #[test]
    fn switches_are_linked_linearly() {
        let net = tiny_switches(3, 2, 0.5);
        assert_eq!(net.programmable_switches().len(), 3);
    }
}
