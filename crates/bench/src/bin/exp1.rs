//! Exp#1 (Figure 5): testbed experiments.
//!
//! Deploys 2–10 concurrent real programs on the three-switch linear
//! testbed with every framework, reporting the four panels: (a) per-packet
//! byte overhead, (b) execution time, (c) normalized FCT, (d) normalized
//! goodput (1024 B packets through the testbed simulator).
//!
//! `HERMES_ILP_BUDGET_SECS` bounds each ILP/exhaustive solve (default 5).

use hermes_bench::report::maybe_json;
use hermes_bench::{ilp_budget, Panel, Sweep};
use hermes_net::topology;

fn main() {
    let budget = ilp_budget(5);
    let sweep = Sweep::over_program_counts(&topology::linear(3, 10.0), &[2, 4, 6, 8, 10], budget);
    if maybe_json(&sweep) {
        return;
    }

    println!("Exp#1 (Figure 5) — testbed: 3-switch linear topology, 2..10 real programs");
    println!("(ILP/exhaustive budget: {budget:?}; override via HERMES_ILP_BUDGET_SECS)\n");
    sweep.print_panel("(a) per-packet byte overhead, bytes", Panel::Overhead);
    sweep.print_panel("(b) execution time, ms", Panel::Time);
    sweep.print_panel("(c) normalized FCT (1024 B packets)", Panel::Fct);
    sweep.print_panel("(d) normalized goodput (1024 B packets)", Panel::Goodput);

    // Headline: Hermes vs the worst baseline at 10 programs.
    let last = &sweep.points.last().expect("non-empty").results;
    let hermes =
        last.iter().find(|m| m.algorithm == "Hermes").and_then(|m| m.overhead_bytes).unwrap_or(0);
    let worst = last.iter().filter_map(|m| m.overhead_bytes).max().unwrap_or(0);
    println!(
        "headline: at 10 programs Hermes saves {} bytes vs the worst framework",
        worst - hermes
    );
}
