//! Deterministic packet-level network model.
//!
//! Stands in for the paper's PktGen/DPDK testbed: flows of fixed-size
//! packets traverse store-and-forward links and switches, and piggybacked
//! metadata inflates every packet's wire size. The model measures the two
//! end-to-end metrics the paper reports — flow completion time and goodput.
//! The [`testbed`] module packages the exact §II-B methodology (five switch
//! hops, 512/1024/1500-byte packets, overhead swept 28–108 bytes, results
//! normalized to the zero-overhead run); a lone flow there is closed-form
//! ([`lone_flow`]). The discrete-event [`engine`] runs what has no closed
//! form: many flows competing for the same links ([`workload`]).
//!
//! # Quick start
//!
//! ```
//! use hermes_sim::testbed::{normalized_impact, TestbedConfig};
//!
//! let config = TestbedConfig { packets: 1_000, ..Default::default() };
//! let n = normalized_impact(&config, 512, 48);
//! assert!(n.fct_ratio > 1.0);       // 48 B of metadata slows the flow
//! assert!(n.goodput_ratio < 1.0);   // and costs goodput
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod testbed;
pub mod workload;

pub use engine::{chain, FlowStats, SimError, SimFlow, SimLink, SimNode, SimTime, Simulation};
pub use testbed::{
    fig2_sweep, lone_flow, normalized_impact, run_flow, Fig2Row, NormalizedPerf, TestbedConfig,
};
pub use workload::{
    aggregate, generate_flows, run_workload, AggregateStats, FlowSizes, OverheadModel,
    WorkloadConfig,
};
