//! Exp#5 (Figure 9): scalability.
//!
//! Varies the number of concurrently deployed programs from 10 to 50 on
//! the 10th Table III topology and reports all four panels (overhead,
//! execution time, FCT, goodput) per framework.

use hermes_bench::report::maybe_json;
use hermes_bench::{ilp_budget, Panel, Sweep};
use hermes_net::topology::table3_wan;

fn main() {
    let sweep = Sweep::over_program_counts(&table3_wan(9), &[10, 20, 30, 40, 50], ilp_budget(3));
    if maybe_json(&sweep) {
        return;
    }

    println!("Exp#5 (Figure 9) — scalability on topology 10, 10..50 programs\n");
    sweep.print_panel("(a) per-packet byte overhead, bytes", Panel::Overhead);
    sweep.print_panel("(b) execution time, ms", Panel::Time);
    sweep.print_panel("(c) normalized FCT", Panel::Fct);
    sweep.print_panel("(d) normalized goodput", Panel::Goodput);

    // Headline: Hermes execution time grows with the program count but
    // stays in milliseconds.
    let hermes: Vec<f64> = sweep.series("Hermes").map(|m| m.measured_ms).collect();
    println!(
        "headline: Hermes heuristic time grows {:.1} ms -> {:.1} ms from 10 to 50 programs",
        hermes.first().copied().unwrap_or(0.0),
        hermes.last().copied().unwrap_or(0.0)
    );
}
