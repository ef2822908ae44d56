//! Wire accounting: the paper's pairwise `A_max` vs. the bytes a packet
//! really carries hop by hop (pass-through carriage included), plus the
//! end-to-end impact simulated over each plan's actual coordination path.
//!
//! This analysis extends Exp#1: the pairwise metric the paper optimizes
//! *understates* the on-wire load whenever metadata produced on switch 1
//! is consumed on switch 3 — it must also transit switch 2.

use hermes_backend::{
    config::generate,
    emulator,
    simulate::{simulate_plan, PlanFlowConfig},
};
use hermes_baselines::standard_suite;
use hermes_bench::report::{maybe_json, Table};
use hermes_bench::{analyze, ilp_budget, workload};
use hermes_core::Epsilon;
use hermes_net::topology;
use serde::Serialize;

#[derive(Serialize)]
struct WireRow {
    algorithm: String,
    pairwise_amax: u64,
    max_wire_bytes: u32,
    fct_ratio: f64,
    goodput_ratio: f64,
    switches_traversed: usize,
}

fn main() {
    let tdg = analyze(&workload(10));
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let config = PlanFlowConfig { packets: 5_000, ..Default::default() };

    let mut rows = Vec::new();
    for algo in standard_suite(ilp_budget(3)) {
        let Ok(plan) = algo.deploy(&tdg, &net, &eps) else {
            continue;
        };
        let artifacts = generate(&tdg, &net, &plan);
        let Some(trace) =
            emulator::run_distributed(&tdg, &plan, &artifacts, emulator::test_packet(0))
        else {
            continue;
        };
        let Some(sim) = simulate_plan(&tdg, &net, &plan, &artifacts, &config) else {
            continue;
        };
        rows.push(WireRow {
            algorithm: algo.name().to_owned(),
            pairwise_amax: plan.max_inter_switch_bytes(&tdg),
            max_wire_bytes: trace.max_wire_bytes(),
            fct_ratio: sim.fct_ratio(),
            goodput_ratio: sim.goodput_ratio(),
            switches_traversed: sim.traversed.len(),
        });
    }
    if maybe_json(&rows) {
        return;
    }

    println!("Wire accounting — 10 real programs on the 3-switch testbed\n");
    let mut t = Table::new([
        "algorithm",
        "pairwise A_max (B)",
        "max on-wire (B)",
        "FCT x",
        "goodput x",
        "switches",
    ]);
    for r in &rows {
        t.row([
            r.algorithm.clone(),
            r.pairwise_amax.to_string(),
            r.max_wire_bytes.to_string(),
            format!("{:.3}", r.fct_ratio),
            format!("{:.3}", r.goodput_ratio),
            r.switches_traversed.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "note: the pairwise objective can differ from the wire load in both directions —\n\
         pass-through hops add bytes it does not see, while fields shared by several\n\
         crossing edges are double-counted by its per-edge sum."
    );
}
