//! Substrate network model for the Hermes deployment framework.
//!
//! Models the network `G = (V_G, E_G)` of the paper's §V-A: switches with
//! programmability, pipeline stages, per-stage resource capacity, and
//! latency; undirected links with latency; path sets with the paper's
//! latency formula; and generators for the evaluation topologies.
//!
//! - [`graph`] — [`Network`], [`Switch`], [`Link`].
//! - [`paths`] — Dijkstra shortest paths and nearest-programmable
//!   queries.
//! - [`topology`] — linear testbed, Table III WANs, fat-tree, star.
//!
//! # Quick start
//!
//! ```
//! use hermes_net::{topology, paths};
//!
//! let net = topology::linear(3, 10.0);
//! let ids: Vec<_> = net.switch_ids().collect();
//! let p = paths::shortest_path(&net, ids[0], ids[2]).unwrap();
//! assert_eq!(p.hops.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod paths;
pub mod target;
pub mod topology;

pub use graph::{Link, Network, NetworkError, Switch, SwitchId, TOFINO_STAGES};
pub use paths::{nearest_programmable, shortest_path, Path};
pub use target::{
    builtin_targets, parse_target, TargetKind, TargetModel, TargetSpec, TargetSpecError, CAP_TOL,
};
