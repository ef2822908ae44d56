//! The deploy-request benchmark. See `bench/README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` measures one workload
//! and prints one JSON result as the last line of standard output. With no
//! `--workload`, every workload runs in a child process of its own; with
//! `--check-repeat`, twice, and the two sets must agree.

mod check;
mod churn;
mod emit;
mod layers;
mod report;
mod request;
mod stats;
mod tight;
mod trace;
mod workload;

use layers::Layers;
use report::{Context, Metric, RunResult};
use request::{deploy_request, Source};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Observed, Round, WORKLOADS};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 30.0;
/// A round whose threads waited for a processor for more than this share
/// of its wall time is disturbed: it is run again, at most `MAX_RERUNS`
/// times in a run. The rule looks at the host only, never at the numbers
/// measured. Handing work to solver threads and back already costs
/// `churn-ft4` 5 to 10 % on two cores, hence no lower threshold.
const DISTURBED_SHARE: f64 = 0.15;
const MAX_RERUNS: u32 = 2;
/// The smallest Ethernet frame; `A_max` is reported on top of it so that
/// the plan-quality metric is never 0 (most plans here need no metadata).
const MIN_FRAME_BYTES: f64 = 64.0;
/// In a traced round, at most this many requests get shadow calls.
const MAX_DEEP_REQUESTS: usize = 120;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn set_up(workload: &str, seed: u64) -> Box<dyn Round> {
    match workload {
        "testbed-10" => Box::new(workload::testbed(seed)),
        "wan-50" => Box::new(workload::wan(seed)),
        "tight-exact" => Box::new(workload::tight(seed)),
        _ => Box::new(churn::churn(seed)),
    }
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Checks, once per run, that the driver measures what a `hermes` user
/// gets: for the text of the warm-up request, `hermes deploy --journal` run
/// in process leaves a journal of the same length holding the same plan.
fn cli_parity(workload: &str, round: &dyn Round) -> Result<(), String> {
    let (source, spec, solver) = round.warm_up_request();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file = dir.join(format!("parity-{workload}.p4dsl"));
    let journal = dir.join(format!("parity-{workload}.journal"));
    std::fs::write(&file, &source.text).map_err(|e| format!("{}: {e}", file.display()))?;
    let argv: Vec<String> = [
        "deploy",
        &file.to_string_lossy(),
        "--topology",
        spec,
        "--solver",
        solver,
        "--time-limit",
        &request::TIME_LIMIT.as_secs().to_string(),
        "--journal",
        &journal.to_string_lossy(),
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    let options = hermes_cli::parse_args(&argv).map_err(|e| format!("cli: {e}"))?;
    hermes_cli::run(&options, &mut std::io::sink()).map_err(|e| format!("cli: {e}"))?;
    let cli_bytes = std::fs::read(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let cli_plan = hermes_runtime::replay_bytes(&cli_bytes)
        .map_err(|e| format!("cli journal: {e}"))
        .map(|replay| hermes_runtime::RecoveredIntent::from_replay(&replay))?
        .snapshot
        .ok_or("cli journal holds no snapshot")?
        .plan_fp;

    let text_only = Source { text: source.text.clone(), prebuilt: Vec::new() };
    let eps = hermes_core::Epsilon::loose();
    let ours =
        deploy_request(&text_only, &workload::topology(spec), &eps, solver, &mut Tracer::off())
            .map_err(|e| format!("driver: {e}"))?;
    if ours.planned.plan.fingerprint() != cli_plan || ours.journal_len != cli_bytes.len() {
        return Err(format!(
            "driver plan {:016x} / {} journal bytes, cli plan {cli_plan:016x} / {} journal bytes",
            ours.planned.plan.fingerprint(),
            ours.journal_len,
            cli_bytes.len()
        ));
    }
    Ok(())
}

/// Everything one completed round measured.
struct RoundResult {
    setup_s: f64,
    latencies_ms: Vec<f64>,
    observed: Vec<Observed>,
    failures: Vec<String>,
    runq_wait_share: f64,
    wall: Duration,
    /// Requests that got shadow calls (traced rounds only).
    deep: usize,
}

/// Runs one round. With a tracer that is on, also fills `layers`.
fn run_round(
    workload: &str,
    seed: u64,
    tracer: &mut Tracer,
    mut layers: Option<&mut Layers>,
) -> (RoundResult, Box<dyn Round>) {
    let waited = stats::runq_wait_ns();
    let start = Instant::now();
    let open = tracer.enter("bench.setup");
    let mut round = set_up(workload, seed);
    round.warm_up();
    tracer.exit(open);
    let setup_s = start.elapsed().as_secs_f64();

    let n = round.len();
    let stride = n.div_ceil(MAX_DEEP_REQUESTS);
    let mut result = RoundResult {
        setup_s,
        latencies_ms: Vec::with_capacity(n),
        observed: Vec::with_capacity(n),
        failures: Vec::new(),
        runq_wait_share: 0.0,
        wall: Duration::ZERO,
        deep: n.div_ceil(stride),
    };
    for i in 0..n {
        tracer.set_request(i as u64 + 1);
        let open = tracer.enter("bench.request");
        let wall = round.run(i, tracer);
        tracer.exit(open);
        result.latencies_ms.push(wall.as_secs_f64() * 1e3);
        if let Some(layers) = layers.as_deref_mut() {
            round.observe(i, i % stride == 0, tracer, layers);
        }
        match round.check(i) {
            Ok(observed) => result.observed.push(observed),
            Err(why) => result.failures.push(format!("request {i}: {why}")),
        }
    }
    tracer.set_request(0);
    result.wall = start.elapsed();
    if let (Some(before), Some(after)) = (waited, stats::runq_wait_ns()) {
        result.runq_wait_share =
            after.saturating_sub(before) as f64 / result.wall.as_nanos() as f64;
    }
    (result, round)
}

/// The count metrics of a round: they must be the same in every round.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    a_max_sum: u64,
    messages: u64,
    journal_bytes: u64,
    virtual_us: u64,
    requests: usize,
    outcomes: BTreeMap<String, u64>,
}

impl Counts {
    fn of(observed: &[Observed]) -> Counts {
        let mut outcomes = BTreeMap::new();
        for o in observed {
            *outcomes.entry(o.outcome.to_owned()).or_insert(0) += 1;
        }
        Counts {
            a_max_sum: observed.iter().map(|o| o.a_max).sum(),
            messages: observed.iter().map(|o| o.messages).sum(),
            journal_bytes: observed.iter().map(|o| o.journal_bytes).sum(),
            virtual_us: observed.iter().map(|o| o.virtual_us).sum(),
            requests: observed.len(),
            outcomes,
        }
    }

    fn per_request(&self, total: u64) -> f64 {
        total as f64 / self.requests.max(1) as f64
    }
}

/// The untraced run: whole rounds until `seconds` are used up (at least
/// one; the last one is started if half of it is expected to fit). Rounds
/// repeat the same requests, and what the host adds to a request's time is
/// never negative, so a request's latency is its smallest over the rounds,
/// and so is the set-up time; the percentiles and the rate are then taken
/// over the request list.
fn measure(workload: &str, seed: u64, seconds: f64, context: &mut Context) -> RunResult {
    let run_start = Instant::now();
    let mut setup_s = f64::INFINITY;
    let mut rounds = 0usize;
    // Per request of the list, the smallest latency over the rounds so far.
    let mut latencies: Vec<f64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    let mut counts: Option<Counts> = None;
    let mut reruns_left = MAX_RERUNS;
    let mut parity_checked = false;
    loop {
        let (round, state) = run_round(workload, seed, &mut Tracer::off(), None);
        if !parity_checked {
            parity_checked = true;
            context.from_constructor = state.unrendered().clone();
            if let Err(why) = cli_parity(workload, state.as_ref()) {
                failures.push(format!("cli parity: {why}"));
            }
        }
        drop(state);
        context.runq_wait_shares.push(round.runq_wait_share);
        let expected_next = round.wall.as_secs_f64();
        if round.runq_wait_share > DISTURBED_SHARE {
            if reruns_left > 0 {
                reruns_left -= 1;
                context.replaced_rounds += 1;
                eprintln!(
                    "round disturbed (runq wait {:.1} %), replaced",
                    round.runq_wait_share * 100.0
                );
                continue;
            }
            context.disturbed_rounds += 1;
        }
        attempted += round.latencies_ms.len();
        failures.extend(round.failures);
        let these = Counts::of(&round.observed);
        match &counts {
            None => counts = Some(these),
            Some(first) if *first != these => {
                failures.push("a round's counts differ from the first round's".to_owned())
            }
            Some(_) => {}
        }
        setup_s = setup_s.min(round.setup_s);
        rounds += 1;
        let mut this_round = round.latencies_ms.clone();
        context.round_p50_ms.push(stats::median(&mut this_round));
        if latencies.is_empty() {
            latencies = round.latencies_ms;
        } else {
            for (best, again) in latencies.iter_mut().zip(round.latencies_ms) {
                *best = best.min(again);
            }
        }
        if run_start.elapsed().as_secs_f64() + expected_next / 2.0 > seconds {
            break;
        }
    }
    let counts = counts.unwrap_or_else(|| Counts::of(&[]));
    context.rounds = rounds;
    context.samples = attempted;
    context.outcomes = counts.outcomes.clone();

    let total_ms: f64 = latencies.iter().sum();
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or_else(|| {
        failures.push("cannot read VmHWM from /proc/self/status".to_owned());
        0.0
    });
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("request_p50_ms", stats::median(&mut latencies), "ms"),
        Metric::new("request_p90_ms", stats::quantile(&mut latencies, 0.9), "ms"),
        Metric::new("requests_per_s", latencies.len() as f64 / (total_ms / 1e3), "1/s"),
        Metric::new(
            "min_frame_plus_a_max_bytes",
            MIN_FRAME_BYTES + counts.per_request(counts.a_max_sum),
            "B",
        ),
        Metric::new("messages_per_request", counts.per_request(counts.messages), "count"),
        Metric::new("journal_bytes_per_request", counts.per_request(counts.journal_bytes), "B"),
        Metric::new("virtual_us_per_request", counts.per_request(counts.virtual_us), "virtual_us"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    RunResult { attempted: attempted.max(1), failures, metrics }
}

/// The traced run: one untraced round for reference, then one traced
/// round with shadow calls; reports the per-layer metrics only.
fn trace(workload: &str, seed: u64, context: &mut Context) -> RunResult {
    let (reference, state) = run_round(workload, seed, &mut Tracer::off(), None);
    context.from_constructor = state.unrendered().clone();
    drop(state);
    let mut untraced = reference.latencies_ms;

    let mut tracer = Tracer::on();
    let mut layers = Layers::default();
    let (mut round, state) = run_round(workload, seed, &mut tracer, Some(&mut layers));
    for spec in state.topologies() {
        layers.shadow_net(&mut tracer, spec);
    }
    drop(state);
    layers.fold_spans(&tracer.spans);
    context.rounds = 1;
    context.samples = round.latencies_ms.len();
    context.runq_wait_shares.push(round.runq_wait_share);
    context.outcomes = Counts::of(&round.observed).outcomes;

    let mut failures = reference.failures;
    failures.append(&mut round.failures);
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            tracer.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    if let Err(e) = written {
        failures.push(format!("{}: {e}", path.display()));
    }

    let overhead = stats::median(&mut round.latencies_ms) / stats::median(&mut untraced) - 1.0;
    let requests = round.latencies_ms.len();
    let metrics = report::per_layer(&layers, requests, round.deep, overhead, round.runq_wait_share);
    report::print_shares(&layers);
    RunResult { attempted: (2 * requests).max(1), failures, metrics }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.as_deref() else {
        return report::run_all(args.seed, args.seconds, args.trace, args.check_repeat);
    };
    let mut context = Context::gather(workload, args.seed, args.trace);
    let result = if args.trace {
        trace(workload, args.seed, &mut context)
    } else {
        measure(workload, args.seed, args.seconds, &mut context)
    };
    report::print(&context, &result);
    if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
