//! Exp#2–4 (Figures 6, 7, 8): overhead, execution time and end-to-end
//! impact at scale — three panels of one sweep.
//!
//! Deploys 50 concurrent programs (10 real + 40 synthetic) on each of the
//! ten Table III WAN topologies with every framework, once, and reports
//! `A_max` (Fig. 6), the wall-clock deployment time (Fig. 7; solver-backed
//! frameworks whose instance exceeds the practical size guard are reported
//! at the 10⁷ ms cap, exactly like the paper's bars for runs exceeding two
//! hours), and the normalized FCT and goodput of a 1024-byte-packet flow
//! carrying each framework's `A_max` through the testbed simulator (Fig. 8).
//!
//! `HERMES_PROGRAMS` overrides the workload size (default 50);
//! `HERMES_ILP_BUDGET_SECS` bounds the exhaustive solvers (default 3).

use hermes_bench::report::maybe_json;
use hermes_bench::{ilp_budget, program_count, Panel, Sweep};

fn main() {
    let programs = program_count();
    let sweep = Sweep::over_wans(programs, ilp_budget(3));
    if maybe_json(&sweep) {
        return;
    }
    let others: Vec<&str> =
        sweep.algorithms().filter(|a| !matches!(*a, "Hermes" | "Optimal")).collect();

    println!("Exp#2 (Figure 6) — per-packet byte overhead, {programs} programs, 10 WANs\n");
    println!("{}", sweep.panel(Panel::Overhead).render());
    // Headline: Hermes vs the best non-Hermes framework, averaged.
    let overhead = |name: &str| sweep.mean(name, |m| m.overhead_bytes.map(|b| b as f64));
    let hermes = overhead("Hermes");
    let mean_other = others.iter().map(|a| overhead(a)).sum::<f64>() / others.len().max(1) as f64;
    if mean_other > 0.0 {
        println!(
            "headline: Hermes reduces the overhead by {:.0}% vs the mean of the other frameworks \
             (FP's cut-count objective can tie Hermes when zero-byte cuts exist)",
            (1.0 - hermes / mean_other) * 100.0
        );
    }
    let optimal = overhead("Optimal");
    if optimal > 0.0 {
        println!(
            "heuristic vs Optimal(incumbent): {:.0}% higher on average",
            (hermes / optimal - 1.0) * 100.0
        );
    }

    println!("\nExp#3 (Figure 7) — execution time (ms), {programs} programs, 10 WANs");
    println!("(capped entries mirror the paper's 10^7 ms bars for >2 h ILP runs)\n");
    println!("{}", sweep.panel(Panel::Time).render());
    println!(
        "headline: the Hermes heuristic averages {:.1} ms — orders of magnitude below the ILP cap",
        sweep.mean("Hermes", |m| Some(m.measured_ms))
    );

    println!(
        "\nExp#4 (Figure 8) — end-to-end impact of {programs}-program deployments (1024 B packets)\n"
    );
    sweep.print_panel("(a) normalized FCT", Panel::Fct);
    sweep.print_panel("(b) normalized goodput", Panel::Goodput);
    // Headline: FCT overhead (ratio - 1) of the worst framework vs Hermes.
    let fct_overhead = |name: &str| sweep.mean(name, |m| m.fct_ratio.map(|f| f - 1.0));
    let hermes = fct_overhead("Hermes");
    let worst = sweep.algorithms().map(fct_overhead).fold(0.0, f64::max);
    if hermes > 0.0 {
        println!(
            "headline: worst framework's FCT overhead is {:.0}% higher than Hermes's",
            (worst / hermes - 1.0) * 100.0
        );
    } else {
        println!("headline: Hermes adds no measurable FCT overhead on this workload");
    }
}
