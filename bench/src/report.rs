//! What a run prints, the per-layer metric table, and the mode that runs
//! every workload in a child process of its own.

use crate::layers::{Layers, CRATES, DIRECT_CRATES};
use crate::workload::WORKLOADS;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

pub const SCHEMA_VERSION: u64 = 1;

/// End-to-end metrics that are counts: two runs of one seed must agree on
/// them exactly, not within a bound.
const COUNT_METRICS: [&str; 4] = [
    "min_frame_plus_a_max_bytes",
    "messages_per_request",
    "journal_bytes_per_request",
    "virtual_us_per_request",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_owned(), value, unit }
    }
}

pub struct RunResult {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// Where and how the numbers were taken; printed with every result.
pub struct Context {
    workload: String,
    seed: u64,
    traced: bool,
    nproc: usize,
    rustc: String,
    commit: String,
    /// Rounds kept: the sample count of `setup_s`, and of each request's
    /// latency before the smallest is taken.
    pub rounds: usize,
    /// Timed requests over all kept rounds; the percentiles, the rate and
    /// the counts are over the `samples / rounds` requests of the list.
    pub samples: usize,
    /// Median latency of each kept round on its own: a process-wide cache
    /// that outlived a round's set-up would show as a step after the first.
    pub round_p50_ms: Vec<f64>,
    pub runq_wait_shares: Vec<f64>,
    pub disturbed_rounds: u32,
    pub replaced_rounds: u32,
    pub outcomes: BTreeMap<String, u64>,
    pub from_constructor: BTreeMap<String, String>,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Context {
    pub fn gather(workload: &str, seed: u64, traced: bool) -> Context {
        Context {
            workload: workload.to_owned(),
            seed,
            traced,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: first_line_of("rustc", &["-V"]),
            commit: first_line_of("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"]),
            rounds: 0,
            samples: 0,
            round_p50_ms: Vec::new(),
            runq_wait_shares: Vec::new(),
            disturbed_rounds: 0,
            replaced_rounds: 0,
            outcomes: BTreeMap::new(),
            from_constructor: BTreeMap::new(),
        }
    }

    fn to_value(&self) -> Value {
        let strings = |m: &BTreeMap<String, String>| {
            Value::Map(m.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect())
        };
        Value::Map(vec![
            ("schema_version".to_owned(), Value::UInt(SCHEMA_VERSION)),
            ("workload".to_owned(), Value::Str(self.workload.clone())),
            ("seed".to_owned(), Value::UInt(self.seed)),
            ("traced".to_owned(), Value::Bool(self.traced)),
            ("nproc".to_owned(), Value::UInt(self.nproc as u64)),
            ("rustc".to_owned(), Value::Str(self.rustc.clone())),
            ("commit".to_owned(), Value::Str(self.commit.clone())),
            ("rounds".to_owned(), Value::UInt(self.rounds as u64)),
            ("samples".to_owned(), Value::UInt(self.samples as u64)),
            (
                "round_p50_ms".to_owned(),
                Value::Seq(self.round_p50_ms.iter().map(|&s| Value::Float(s)).collect()),
            ),
            (
                "runq_wait_share_per_round".to_owned(),
                Value::Seq(self.runq_wait_shares.iter().map(|&s| Value::Float(s)).collect()),
            ),
            ("disturbed_rounds".to_owned(), Value::UInt(u64::from(self.disturbed_rounds))),
            ("replaced_rounds".to_owned(), Value::UInt(u64::from(self.replaced_rounds))),
            (
                "outcomes".to_owned(),
                Value::Map(
                    self.outcomes.iter().map(|(k, v)| (k.clone(), Value::UInt(*v))).collect(),
                ),
            ),
            ("deployed_from_constructor".to_owned(), strings(&self.from_constructor)),
        ])
    }
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Prints the table to standard error, then the context and, last, the
/// result as one JSON line each on standard output.
pub fn print(context: &Context, result: &RunResult) {
    eprintln!(
        "{} seed {} ({} round(s), {} timed requests)",
        context.workload, context.seed, context.rounds, context.samples
    );
    for m in &result.metrics {
        eprintln!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &result.failures {
        eprintln!("  FAILED {f}");
    }
    println!("{}", json(&context.to_value()));
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let entry = vec![
                ("value".to_owned(), Value::Float(m.value)),
                ("unit".to_owned(), Value::Str(m.unit.to_owned())),
            ];
            (m.name.clone(), Value::Map(entry))
        })
        .collect();
    let failed = result.failures.len().min(result.attempted);
    println!(
        "{}",
        json(&Value::Map(vec![
            ("correct".to_owned(), Value::Bool(result.failures.is_empty())),
            ("attempted".to_owned(), Value::UInt(result.attempted as u64)),
            ("failed".to_owned(), Value::UInt(failed as u64)),
            ("metrics".to_owned(), Value::Map(metrics)),
        ]))
    );
}

/// The per-layer metrics of a traced round, in the order `BENCHMARK.json`
/// lists them. `requests` were traced and `deep` of them got shadow calls.
pub fn per_layer(
    layers: &Layers,
    requests: usize,
    deep: usize,
    trace_overhead_share: f64,
    runq_wait_share: f64,
) -> Vec<Metric> {
    let l = layers;
    // `<span>_ms`: the mean duration of the spans of that name.
    let ms = |span: &str| Metric::new(&format!("{span}_ms"), l.mean(span), "ms");
    // A count that is reported under the name it was recorded under.
    let mean = |name: &str, unit: &'static str| Metric::new(name, l.mean(name), unit);
    let mb_per_s = |bytes: &str, ms: &str| l.ratio(bytes, ms) / 1e3;
    let solve_ms =
        l.sum("core.solve_greedy") + l.sum("core.solve_exact") + l.sum("core.solve_portfolio");
    let mut out = vec![
        ms("dataplane.parse"),
        Metric::new(
            "dataplane.parse_mb_per_s",
            mb_per_s("dataplane.dsl_bytes", "dataplane.parse"),
            "MB/s",
        ),
        ms("dataplane.lint"),
        mean("dataplane.dsl_bytes", "B"),
        mean("dataplane.mats", "count"),
        mean("dataplane.constructor_share", "share"),
        ms("tdg.build"),
        ms("tdg.merge"),
        mean("tdg.nodes", "count"),
        mean("tdg.edges", "count"),
        Metric::new(
            "tdg.merge_dedup_share",
            if l.sum("dataplane.mats") > 0.0 {
                1.0 - l.ratio("tdg.nodes", "dataplane.mats")
            } else {
                0.0
            },
            "share",
        ),
        ms("analysis.audit"),
        ms("analysis.dataflow"),
        ms("analysis.graphcheck"),
        mean("analysis.diagnostics", "count"),
        ms("core.precheck"),
        mean("core.amax_floor", "B"),
        mean("core.a_max_bytes", "B"),
        Metric::new("core.solve_ms", solve_ms / requests.max(1) as f64, "ms"),
        ms("core.greedy"),
        ms("core.exact"),
        mean("core.exact_nodes", "count"),
        Metric::new(
            "core.exact_nodes_per_s",
            l.ratio("core.exact_nodes", "core.exact") * 1e3,
            "1/s",
        ),
        Metric::new("core.exact_proved_share", l.mean("core.exact_proved"), "share"),
        Metric::new(
            "core.exact_speedup",
            l.ratio("core.exact_one_worker", "core.exact_default_workers"),
            "ratio",
        ),
        Metric::new("core.portfolio_ms", l.mean("core.solve_portfolio"), "ms"),
        mean("core.greedy_gap_bytes", "B"),
        ms("core.stage_assign"),
        ms("core.verify"),
        ms("core.redeploy"),
        ms("core.migrate_plan"),
        ms("milp.p1_build"),
        ms("milp.solve"),
        Metric::new("milp.solved_share", l.mean("milp.solved"), "share"),
        ms("backend.generate"),
        ms("backend.validate"),
        mean("backend.artifact_bytes", "B"),
        ms("runtime.rollout"),
        mean("runtime.messages", "count"),
        Metric::new("runtime.retry_share", l.ratio("runtime.retries", "runtime.messages"), "share"),
        mean("runtime.virtual_us", "virtual_us"),
        mean("runtime.events", "count"),
        mean("runtime.rollbacks", "count"),
        mean("runtime.journal_appends", "count"),
        mean("runtime.journal_bytes", "B"),
        mean("runtime.journal_compactions", "count"),
        ms("runtime.journal_append"),
        ms("runtime.replay"),
        Metric::new(
            "runtime.replay_mb_per_s",
            mb_per_s("runtime.replay_bytes", "runtime.replay"),
            "MB/s",
        ),
        ms("runtime.recover"),
        mean("runtime.recover_messages", "count"),
        ms("runtime.migrate"),
        mean("runtime.migrate_steps", "count"),
        ms("net.build"),
        ms("net.paths"),
        mean("net.switches", "count"),
        mean("net.programmable", "count"),
    ];
    for name in CRATES {
        // Crates the driver calls are counted over every traced request,
        // the others over the requests that got shadow calls.
        let per = if DIRECT_CRATES.contains(&name) { requests } else { deep }.max(1) as f64;
        out.push(Metric::new(
            &format!("{name}.allocs"),
            l.sum(&format!("{name}.allocs")) / per,
            "count",
        ));
        out.push(Metric::new(
            &format!("{name}.alloc_bytes"),
            l.sum(&format!("{name}.alloc_bytes")) / per,
            "B",
        ));
    }
    out.push(Metric::new("bench.glue_ms", l.mean("bench.glue"), "ms"));
    out.push(Metric::new("bench.trace_overhead_share", trace_overhead_share, "share"));
    out.push(Metric::new("bench.runq_wait_share", runq_wait_share, "share"));
    out
}

/// Where a traced request's time went, by the crate the driver called.
pub fn print_shares(layers: &Layers) {
    let total = layers.sum("bench.request");
    if total == 0.0 {
        return;
    }
    eprintln!("share of request time by crate called (self time of the driver's spans):");
    for name in DIRECT_CRATES {
        eprintln!("  {name:<10} {:>6.1} %", 100.0 * layers.sum(&format!("{name}.own_ms")) / total);
    }
    eprintln!("  {:<10} {:>6.1} %", "glue", 100.0 * layers.sum("bench.glue") / total);
}

/// The last line a child printed, parsed, with its exit status.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed no result")?;
    let value: Value = serde_json::from_str(last).map_err(|e| format!("{e}: {last}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}: {last}", output.status));
    }
    Ok(value)
}

/// The number in the `key` field of a JSON object.
fn number(object: &Value, key: &str) -> Option<f64> {
    match object.get_field(key) {
        Ok(Value::Float(f)) => Some(*f),
        Ok(Value::UInt(u)) => Some(*u as f64),
        Ok(Value::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Ok(Value::Map(metrics)) = result.get_field("metrics") {
        for (name, entry) in metrics {
            out.insert(name.clone(), number(entry, "value").unwrap_or(f64::NAN));
        }
    }
    out
}

/// The end-to-end metrics `BENCHMARK.json` declares, with their bounds and
/// whether lower is better.
fn declared_bounds() -> Result<Vec<(String, f64, bool)>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Ok(Value::Seq(entries)) = value.get_field("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    let mut out = Vec::new();
    for entry in entries {
        let (Ok(Value::Str(name)), Ok(Value::Str(better))) =
            (entry.get_field("name"), entry.get_field("better"))
        else {
            return Err("BENCHMARK.json: an end_to_end entry lacks name or better".to_owned());
        };
        let bound = number(entry, "bound")
            .ok_or_else(|| format!("BENCHMARK.json: `{name}` has no bound"))?;
        out.push((name.clone(), bound, better == "lower"));
    }
    Ok(out)
}

/// Runs every workload in its own process; with `check_repeat`, twice,
/// requiring each end-to-end metric of the second set to agree with the
/// first within its declared bound, and each count exactly.
pub fn run_all(seed: u64, seconds: f64, trace: bool, check_repeat: bool) -> ExitCode {
    let bounds = if check_repeat {
        match declared_bounds() {
            Ok(bounds) => bounds,
            Err(why) => {
                eprintln!("error: {why}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        Vec::new()
    };
    let mut ok = true;
    let sets = if check_repeat { 2 } else { 1 };
    let mut results: Vec<BTreeMap<&str, BTreeMap<String, f64>>> = Vec::new();
    for _ in 0..sets {
        let mut set = BTreeMap::new();
        for workload in WORKLOADS {
            match run_child(workload, seed, seconds, trace && !check_repeat) {
                Ok(value) => {
                    println!("{workload} {}", json(&value));
                    set.insert(workload, metric_values(&value));
                }
                Err(why) => {
                    eprintln!("error: {why}");
                    ok = false;
                }
            }
        }
        results.push(set);
    }
    if check_repeat && ok {
        for workload in WORKLOADS {
            let (first, second) = (&results[0][workload], &results[1][workload]);
            if first.len() != bounds.len() {
                eprintln!(
                    "{workload}: prints {} metrics, BENCHMARK.json declares {}",
                    first.len(),
                    bounds.len()
                );
                ok = false;
            }
            for (name, bound, lower_is_better) in &bounds {
                let (Some(&a), Some(&b)) = (first.get(name), second.get(name)) else {
                    eprintln!("{workload}: `{name}` is declared but not printed");
                    ok = false;
                    continue;
                };
                let exact = COUNT_METRICS.contains(&name.as_str());
                let worse = if *lower_is_better { b / a - 1.0 } else { a / b - 1.0 };
                let agrees = if exact { a == b } else { worse.abs() <= *bound };
                eprintln!(
                    "{workload:<12} {name:<28} {a:>14.4} {b:>14.4} {:>+7.2} % {}",
                    worse * 100.0,
                    if agrees {
                        "ok"
                    } else if exact {
                        "DIFFERS (count)"
                    } else {
                        "OUTSIDE BOUND"
                    }
                );
                ok &= agrees;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
