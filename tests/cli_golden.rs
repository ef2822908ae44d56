//! The `hermes` command line, pinned.
//!
//! Each invocation of the corpus runs in process through `parse_args` and
//! `run`, and records what `main` prints — stdout, then the `error:` line
//! — and the exit code it returns: 2 for a parse error, 1 for a run
//! error. The corpus is every command's normal and error paths, every
//! spec parser's malformed inputs, flags given to a command that does not
//! read them, `--help`, the invocations a release byte-compares against
//! its parent, and the CI smokes: the `--threads 1` / `--threads 4`
//! deploys must agree, and the audit and state-report entries must equal
//! `audit_golden.json` and `stateaccess_golden.json`. Error text embeds
//! the usage text, written `<USAGE>` here; `--help` records it whole.
//! `REGEN_GOLDEN=1` rewrites `cli_golden.txt` and
//! `stateaccess_golden.json`.

use hermes_cli::{parse_args, run, usage};
use std::sync::OnceLock;

const WORKLOAD: &str = "tests/fixtures/audit_workload.p4dsl";
const STATE_WORKLOAD: &str = "tests/fixtures/stateaccess_workload.p4dsl";
const AUDIT_GOLDEN: &str = "audit F --library --topology fattree:4 --json";
const STATE_GOLDEN: &str = "audit S --state-report --relax-state --topology linear:3 --json";

/// Every invocation, as a space-separated argument list: `F` is the audit
/// workload, `S` the aggregation workload, `$TMP` a scratch directory.
fn corpus() -> Vec<String> {
    let mut corpus = Vec::new();
    // The release byte-compare: 25 deploys, 27 retargeted deploys, and the
    // chaos, analyze, audit and state-report runs.
    for topology in ["linear:3", "fattree:4", "wan:1", "wan:5", "waxman:30,0.4,0.4,7"] {
        for solver in ["greedy", "ffl", "ffls", "exact", "portfolio"] {
            corpus.push(format!("deploy F --topology {topology} --solver {solver} --json"));
        }
    }
    for target in ["mix:tofino+smartnic+soft", "smartnic", "soft"] {
        for topology in ["linear:4", "fattree:4", "wan:2"] {
            for solver in ["greedy", "exact", "portfolio"] {
                corpus.push(format!(
                    "deploy F --topology {topology} --target {target} --solver {solver} --json"
                ));
            }
        }
    }
    corpus.extend(
        [
            "chaos F --topology linear:3 --seed 7 --json",
            "analyze F --json",
            "analyze F --dot",
            AUDIT_GOLDEN,
            STATE_GOLDEN,
        ]
        .map(String::from),
    );
    // Parallel determinism: one worker and four give the same bytes.
    for solver in ["exact", "portfolio"] {
        for threads in [1, 4, 4] {
            corpus.push(format!(
                "deploy F --topology linear:3 --solver {solver} --threads {threads} --json"
            ));
        }
    }
    // Every solver by name.
    for solver in [
        "greedy",
        "exact",
        "milp",
        "portfolio",
        "ffl",
        "ffls",
        "ms",
        "sonata",
        "speed",
        "mtp",
        "fp",
        "p4all",
        "GREEDY",
    ] {
        corpus.push(format!("deploy F --solver {solver}"));
    }
    corpus.extend(
        [
            // Normal paths of every command.
            "analyze F",
            "analyze F --relax-state",
            "audit F",
            "audit F --topology linear:3 --eps1 50 --eps2 4",
            "audit F --target smartnic --relax-state",
            "audit --library --state-report",
            "deploy F",
            "deploy F --topology linear:2 --eps1 0 --eps2 1",
            "deploy F --relax-state --topology star:3",
            "deploy F --solver exact --time-limit 18446744073709551615",
            "deploy F --journal $TMP/deploy.hjl",
            "recover --journal $TMP/deploy.hjl",
            "recover --journal $TMP/deploy.hjl --json",
            "simulate F",
            "simulate F --topology linear:3 --solver ffl",
            "simulate F --topology linear:4 --target smartnic --eps1 50 --eps2 4 --time-limit 5 \
             --threads 2 --relax-state",
            "chaos F --topology linear:3 --solver exact --threads 4 --seed 7",
            "chaos F --topology linear:4 --seed 10",
            "chaos F --topology linear:3 --trials 5 --channel lossy",
            "chaos F --trials 3 --json",
            "chaos F --seed 2 --channel drop=0.2,dup=0.1,reorder=0.05,delay=0.3,span=500",
            "chaos F --target soft --time-limit 5 --threads 4 --seed 1 --eps1 100 --eps2 3",
            "chaos F --seed 3 --journal $TMP/chaos.hjl",
            "recover --journal $TMP/chaos.hjl",
            "migrate F --topology linear:4 --exclude 0 --seed 3 --channel lossy",
            "migrate F --topology linear:3 --from-solver ffl --solver greedy --order auto",
            "migrate F --topology linear:3 --exclude 0 --order 1 --json",
            "migrate F --topology linear:3 --exclude 0 --relax-state --eps1 100 --eps2 3",
            "migrate F --topology linear:4 --target soft --exclude 1 --time-limit 5 --seed 4",
            "migrate F --exclude 0 --journal $TMP/migrate.hjl",
            "recover --journal $TMP/migrate.hjl --json",
            "targets",
            // Help and usage.
            "",
            "--help",
            "deploy F -h",
            // Command-line shape.
            "frobnicate F",
            "deploy F --wat",
            "deploy F --algorithm hermes",
            "deploy",
            "audit",
            "deploy --library",
            "recover",
            "recover F --journal $TMP/deploy.hjl",
            "targets F",
            "deploy F --state-report",
            "deploy F --topology",
            "deploy F --solver",
            "deploy F --eps1",
            "chaos F --seed",
            "recover --journal",
            // Malformed values and specs, one flag at a time.
            "deploy F --solver gurobi",
            "migrate F --from-solver hermes",
            "deploy F --eps1 NaN",
            "deploy F --eps1 -5",
            "deploy F --eps2 0",
            "deploy F --eps2 2.5",
            "deploy F --time-limit soon",
            "deploy F --threads 0",
            "chaos F --seed banana",
            "chaos F --trials many",
            "chaos F --channel drop=high",
            "chaos F --channel drop=1.5",
            "chaos F --channel loss=0.1",
            "chaos F --channel drop",
            "deploy F --target fpga",
            "audit --library --target smartnic:stages=0",
            "migrate F --order banana",
            "migrate F --order 0,1,1",
            "migrate F --exclude two",
            "deploy F --topology linear",
            "deploy F --topology linear:x",
            "deploy F --topology fattree:3",
            "deploy F --topology wan:0",
            "deploy F --topology wan:11",
            "deploy F --topology waxman:5",
            "deploy F --topology waxman:5,2.0,0.4,7",
            "deploy F --topology waxman:5,0.4,x,7",
            "deploy F --topology blob:2",
            "audit F --topology ring:4",
            // Failures at run time.
            "analyze /nonexistent/x.p4dsl",
            "recover --journal /nonexistent/j.hjl",
            "migrate F --topology linear:3 --order 0,7",
            "migrate F --topology linear:3 --exclude 9",
            "chaos F --trials 2 --journal $TMP/trials.hjl",
            // Flags given to a command that does not read them.
            "analyze F --seed 3",
            "analyze F --journal $TMP/analyze.hjl",
            "analyze F --topology linear:3",
            "audit F --journal $TMP/audit.hjl",
            "audit F --solver exact",
            "simulate F --json",
            "migrate F --threads 4",
            "migrate F --topology linear:4 --exclude 0 --solver exact --threads 4",
            "deploy F --order 0,1",
            "deploy F --exclude 1",
            "deploy F --trials 3",
            "deploy F --dot",
            "deploy F --library",
            "deploy F --from-solver exact",
            "targets --seed 3",
            "targets --json",
            "recover --journal $TMP/deploy.hjl --topology bogus",
            // Topology sizes the model cannot hold.
            "deploy F --topology linear:0",
            "deploy F --topology star:0",
            "deploy F --topology waxman:0,0.4,0.4,1",
            "deploy F --topology linear:4097",
            "deploy F --topology star:4096",
            // `--channel span=` is microseconds, not a cast.
            "chaos F --topology linear:3 --channel delay=1,span=1e30",
            "chaos F --topology linear:3 --channel delay=1,span=-5",
            "chaos F --topology linear:3 --channel delay=1,span=NaN",
            "chaos F --topology linear:3 --channel delay=1,span=2.5",
        ]
        .map(String::from),
    );
    corpus
}

/// What `main` does with `args`: its stdout, its stderr and its exit code.
fn hermes(args: &[String]) -> (String, String, i32) {
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        return (usage(), String::new(), if args.is_empty() { 2 } else { 0 });
    }
    let options = match parse_args(args) {
        Ok(options) => options,
        Err(e) => return (String::new(), format!("error: {e}\n"), 2),
    };
    let mut out = Vec::new();
    let result = run(&options, &mut out);
    let stdout = String::from_utf8(out).expect("the CLI writes UTF-8");
    match result {
        Ok(()) => (stdout, String::new(), 0),
        Err(e) => (stdout, format!("error: {e}\n"), 1),
    }
}

/// One corpus entry and what it printed.
struct Entry {
    invocation: String,
    stdout: String,
    record: String,
}

/// Runs the corpus once for every test in this file.
fn entries() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let tmp = concat!(env!("CARGO_TARGET_TMPDIR"), "/cli_golden");
        std::fs::create_dir_all(tmp).expect("scratch directory");
        corpus()
            .into_iter()
            .map(|invocation| {
                let args: Vec<String> = invocation
                    .split_whitespace()
                    .map(|arg| match arg {
                        "F" => WORKLOAD.to_owned(),
                        "S" => STATE_WORKLOAD.to_owned(),
                        _ => arg.replace("$TMP", tmp),
                    })
                    .collect();
                let (stdout, stderr, code) = hermes(&args);
                let stderr = stderr.replace(&usage(), "<USAGE>").replace(tmp, "$TMP");
                let mut record = format!("$ hermes {invocation}").trim_end().to_owned() + "\n";
                for line in stdout.lines() {
                    record += &format!("  {line}\n");
                }
                for line in stderr.lines() {
                    record += &format!("! {line}\n");
                }
                record += &format!("exit {code}\n\n");
                Entry { invocation, stdout, record }
            })
            .collect()
    })
}

fn stdout_of(invocation: &str) -> Vec<&'static str> {
    let found: Vec<_> = entries()
        .iter()
        .filter(|e| e.invocation == invocation)
        .map(|e| e.stdout.as_str())
        .collect();
    assert!(!found.is_empty(), "`{invocation}` is not in the corpus");
    found
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_command_line_matches_the_golden() {
    let dump: String = entries().iter().map(|e| e.record.as_str()).collect();
    let path = fixture("cli_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &dump).expect("fixture is writable");
    }
    let golden = std::fs::read_to_string(&path).expect("run with REGEN_GOLDEN=1 to create");
    if dump != golden {
        let (ours, theirs): (Vec<_>, Vec<_>) = (dump.lines().collect(), golden.lines().collect());
        let at = ours.iter().zip(&theirs).position(|(a, b)| a != b).unwrap_or(ours.len());
        panic!(
            "CLI output drifted from tests/fixtures/cli_golden.txt at line {}:\n  now:    {:?}\n  \
             golden: {:?}\nre-generate with REGEN_GOLDEN=1 if the change is intentional",
            at + 1,
            ours.get(at),
            theirs.get(at)
        );
    }
}

#[test]
fn deploys_are_byte_identical_at_every_worker_count() {
    for solver in ["exact", "portfolio"] {
        let deploy = |threads: usize| {
            stdout_of(&format!(
                "deploy F --topology linear:3 --solver {solver} --threads {threads} --json"
            ))
        };
        let one = deploy(1);
        assert!(!one[0].is_empty());
        for four in deploy(4) {
            assert_eq!(one[0], four, "--solver {solver}: --threads 4 differs from --threads 1");
        }
    }
}

#[test]
fn the_workload_audit_matches_its_json_golden() {
    let golden = std::fs::read_to_string(fixture("audit_golden.json")).expect("audit golden");
    assert_eq!(
        stdout_of(AUDIT_GOLDEN)[0],
        golden,
        "audit output drifted from tests/fixtures/audit_golden.json"
    );
}

#[test]
fn the_state_report_matches_its_json_golden() {
    let path = fixture("stateaccess_golden.json");
    let report = stdout_of(STATE_GOLDEN)[0];
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, report).expect("fixture is writable");
    }
    let golden = std::fs::read_to_string(&path).expect("state-access golden");
    assert_eq!(
        report, golden,
        "state report drifted from tests/fixtures/stateaccess_golden.json; re-generate with \
         REGEN_GOLDEN=1 if the new verdicts are intentional"
    );
}
