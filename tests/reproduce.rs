//! The committed evaluation under `results/` is what the code computes.
//!
//! Each test runs one artifact of the `reproduce` binary in memory, under
//! the committed budget, and compares it with the committed file cell by
//! cell. Cells and lines marked `*` — wall-clock times, and the incumbents
//! of solvers that ran out of budget — are skipped on either side; every
//! other cell must be equal. The sweeps and `targets` spend seconds of
//! solver budget per point, so they run in release builds only (`cargo test
//! --release`, a `ci.sh` stage); the rest run in tier-1.
//!
//! After a change that means to move a figure, regenerate it with
//! `cargo run --release -p hermes-bench --bin reproduce -- --only NAME`.

use hermes_bench::report::{host, Table};
use hermes_bench::{eval, Ctx};
use std::path::Path;

/// Where `fresh` differs from `committed` in a cell or line that does not
/// depend on the host, one description per difference (empty when they
/// agree).
///
/// Both are rendered reports: Markdown table rows are compared cell by
/// cell, other lines whole. A cell or line ending in `*` ([`host`]) and a
/// table's rule row are skipped, and footnote lines (starting with `* `,
/// naming the host that measured) are left out; line numbers count the
/// rest.
fn exact_mismatches(committed: &str, fresh: &str) -> Vec<String> {
    let rule = |s: &str| s.len() >= 3 && s.chars().all(|c| c == '-');
    let skipped = |s: &str| s.ends_with('*') || rule(s);
    let body = |text: &'_ str| -> Vec<String> {
        text.lines().filter(|l| !l.starts_with("* ")).map(str::to_owned).collect()
    };
    let mut out = Vec::new();
    let (old, new) = (body(committed), body(fresh));
    if old.len() != new.len() {
        out.push(format!("{} lines committed, {} recomputed", old.len(), new.len()));
    }
    for (i, (a, b)) in old.iter().zip(&new).enumerate() {
        let cells = |line: &'_ str| -> Vec<String> {
            match line.strip_prefix('|') {
                Some(row) => row.split('|').map(|c| c.trim().to_owned()).collect(),
                None => vec![line.trim_end().to_owned()],
            }
        };
        let (a, b) = (cells(a), cells(b));
        if a.len() != b.len() {
            out.push(format!(
                "line {}: {} cells committed, {} recomputed",
                i + 1,
                a.len(),
                b.len()
            ));
            continue;
        }
        for (x, y) in a.iter().zip(&b) {
            if x != y && !skipped(x) && !skipped(y) {
                out.push(format!("line {}: committed `{x}`, recomputed `{y}`", i + 1));
            }
        }
    }
    out
}

/// Runs artifact `name` and compares each of its outputs with the committed
/// file of the same name ([`exact_mismatches`]).
fn check(name: &str) {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let outputs = (eval::artifact(name).unwrap().run)(&Ctx::check()).unwrap();
    let files: Vec<&str> = outputs.iter().map(|o| o.file).collect();
    assert_eq!(FILES.iter().find(|(a, _)| *a == name).map(|(_, f)| *f), Some(&files[..]));
    let mut mismatches = Vec::new();
    for output in outputs {
        let committed = std::fs::read_to_string(results.join(output.file)).unwrap();
        mismatches.extend(
            exact_mismatches(&committed, &output.text)
                .into_iter()
                .map(|m| format!("{}: {m}", output.file)),
        );
    }
    assert!(
        mismatches.is_empty(),
        "{name} no longer matches results/ ({} cells):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn only_exact_cells_and_lines_must_agree() {
    let mut a = Table::new(["algorithm", "A_max", "ms"]);
    a.row(["Hermes".into(), "4".into(), host("0.5".into(), true)]);
    let mut b = Table::new(["algorithm", "A_max", "ms"]);
    b.row(["Hermes".into(), "4".into(), host("12.75".into(), true)]);
    // The footnote names the host, so it differs too.
    let (a, b) = (a.markdown() + "* on host A\n", b.markdown() + "* on host B\n");
    assert_ne!(a, b);
    assert!(exact_mismatches(&a, &b).is_empty(), "{:?}", exact_mismatches(&a, &b));

    let c = b.replace("| 4 ", "| 5 ");
    assert_eq!(exact_mismatches(&a, &c), ["line 3: committed `4`, recomputed `5`"]);
    assert_eq!(exact_mismatches("x\ny\n", "x\n").len(), 1);
    assert_eq!(exact_mismatches("headline: 3 B\n", "headline: 4 B\n").len(), 1);
    assert!(exact_mismatches("took 3 ms*\n", "took 4 ms*\n").is_empty());
}

#[test]
fn figure_2_overhead_vs_fct_and_goodput() {
    check("fig2");
}

#[test]
fn table_3_topologies() {
    check("table3");
}

#[test]
fn exp6_switch_resources() {
    check("exp6");
}

#[test]
fn ablations() {
    check("ablations");
}

#[test]
fn int_comparison() {
    check("int_comparison");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "solver budgets; runs in release")]
fn exp1_testbed_sweep() {
    check("exp1");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "solver budgets; runs in release")]
fn exp2_to_4_wan_sweep() {
    check("exp2_4");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "solver budgets; runs in release")]
fn exp5_scalability_sweep() {
    check("exp5");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "solver budgets; runs in release")]
fn wire_accounting() {
    check("wire_accounting");
}

#[test]
fn chaos_recovery_healing() {
    check("chaos_recovery");
}

#[test]
fn lossy_commit_drop_rates() {
    check("lossy_commit");
}

#[test]
fn migration_staged_vs_all_at_once() {
    check("migration");
}

#[test]
fn recovery_crash_points() {
    check("recovery");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "solver budgets; runs in release")]
fn targets_frontier() {
    check("targets");
}

/// Every artifact, in `eval::ARTIFACTS` order, and the files it writes
/// under `results/`.
const FILES: &[(&str, &[&str])] = &[
    ("fig2", &["fig2.md"]),
    ("table3", &["table3.md"]),
    ("exp1", &["exp1.md"]),
    ("exp2_4", &["exp2.md", "exp3.md", "exp4.md"]),
    ("exp5", &["exp5.md"]),
    ("exp6", &["exp6.md"]),
    ("ablations", &["ablations.md"]),
    ("wire_accounting", &["wire_accounting.md"]),
    ("int_comparison", &["int_comparison.md"]),
    ("chaos_recovery", &["chaos_recovery.md"]),
    ("lossy_commit", &["lossy_commit.md"]),
    ("migration", &["migration.md"]),
    ("recovery", &["recovery.md"]),
    ("targets", &["targets.md"]),
];

#[test]
fn every_results_file_is_checked() {
    // One test per artifact above, and each checks that its artifact
    // writes the files listed for it. Every entry of results/ but the run
    // records is one of those files, so nothing unchecked lands there.
    let names: Vec<&str> = eval::ARTIFACTS.iter().map(|a| a.name).collect();
    assert_eq!(names, FILES.iter().map(|(name, _)| *name).collect::<Vec<_>>());
    let mut entries: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("results"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|f| f != "runs")
            .collect();
    entries.sort();
    let mut files: Vec<&str> = FILES.iter().flat_map(|(_, files)| files.iter().copied()).collect();
    files.sort();
    assert_eq!(entries, files);
}
