//! Per-layer numbers of a traced round: sums kept per metric name, fed
//! from the spans the driver records, from counts read off each request's
//! results, and from shadow calls into layers the driver cannot see inside.

use crate::request::{Deployed, Planned, Source};
use crate::trace::{Span, Tracer};
use hermes_analysis::{check_program, check_tdg, dataflow_diagnostics};
use hermes_backend::{generate, validate_plan};
use hermes_core::{
    assign_stages, build_p1, Epsilon, GreedyHeuristic, MilpHermes, OptimalSolver, Precheck,
    SearchContext, Solver,
};
use hermes_milp::SolverConfig;
use hermes_net::{shortest_path, Network};
use hermes_runtime::{replay_bytes, DeploymentRuntime, Event, Journal};
use hermes_tdg::{merge_all, AnalysisMode, Tdg};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// The crates whose spans and allocations are reported, in pipeline order.
pub const CRATES: [&str; 8] =
    ["dataplane", "tdg", "analysis", "core", "milp", "backend", "runtime", "net"];

/// The crates the driver calls itself; it reaches the rest only through
/// these, and sizes them by shadow calls.
pub const DIRECT_CRATES: [&str; 5] = ["dataplane", "tdg", "analysis", "core", "runtime"];

/// Budget of the shadow MILP solve on each `tight-exact` instance.
const MILP_LIMIT: Duration = Duration::from_secs(2);

/// Which shadow solves a workload's requests get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowSolves {
    /// The request ran greedy; the exact search is not part of it and
    /// would not end on its instances.
    GreedyOnly,
    /// Greedy and the exact search, as the portfolio races them.
    GreedyAndExact,
    /// `tight-exact`: also the exact search at one worker (for the
    /// speed-up) and the MILP under its budget.
    ExactScaling,
}

#[derive(Debug, Default)]
pub struct Layers {
    /// Per name: the sum of what was reported and how many times.
    totals: BTreeMap<String, (f64, u64)>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Layers {
    pub fn add(&mut self, name: &str, value: f64) {
        let total = self.totals.entry(name.to_owned()).or_insert((0.0, 0));
        total.0 += value;
        total.1 += 1;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0)
    }

    /// Mean over the requests that reported `name`; 0 when none did.
    pub fn mean(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |&(sum, n)| sum / n as f64)
    }

    /// `numerator` summed over `denominator` summed; 0 when the latter is 0.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.sum(denominator);
        if d == 0.0 {
            0.0
        } else {
            self.sum(numerator) / d
        }
    }

    /// Times one shadow call and records it as `name`, in milliseconds.
    pub fn time<T>(&mut self, tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = tracer.span(name, f);
        self.add(name, ms(start.elapsed()));
        out
    }

    /// Counts read off a planned request; every traced request reports them.
    pub fn observe_plan(&mut self, source: &Source, planned: &Planned) {
        let programs = planned.programs.len() as f64;
        let mats: usize = planned.programs.iter().map(|p| p.tables().len()).sum();
        self.add("dataplane.dsl_bytes", source.text.len() as f64);
        self.add("dataplane.mats", mats as f64);
        self.add("dataplane.constructor_share", source.prebuilt.len() as f64 / programs.max(1.0));
        self.add("tdg.nodes", planned.tdg.node_count() as f64);
        self.add("tdg.edges", planned.tdg.edge_count() as f64);
        self.add("analysis.diagnostics", planned.diagnostics as f64);
        self.add("core.a_max_bytes", planned.plan.max_inter_switch_bytes(&planned.tdg) as f64);
    }

    /// Counts read off the controller after a request; `before` is the
    /// same reading taken before it (zero for a fresh controller).
    pub fn observe_runtime(&mut self, before: &RuntimeCounts, after: &RuntimeCounts) {
        self.add("runtime.messages", (after.messages - before.messages) as f64);
        self.add("runtime.virtual_us", (after.virtual_us - before.virtual_us) as f64);
        self.add("runtime.events", (after.events - before.events) as f64);
        self.add("runtime.retries", (after.retries - before.retries) as f64);
        self.add("runtime.rollbacks", (after.rollbacks - before.rollbacks) as f64);
        self.add(
            "runtime.journal_appends",
            (after.journal_appends - before.journal_appends) as f64,
        );
        self.add(
            "runtime.journal_compactions",
            (after.journal_compactions - before.journal_compactions) as f64,
        );
        self.add("runtime.journal_bytes", after.journal_bytes as f64);
    }

    /// Shadow calls for a planned request: the TDG, audit, precheck,
    /// solver, stage-assignment and backend work it did inside opaque calls.
    pub fn shadow_plan(
        &mut self,
        tracer: &mut Tracer,
        planned: &Planned,
        net: &Network,
        eps: &Epsilon,
        solves: ShadowSolves,
    ) {
        let mode = AnalysisMode::PaperLiteral;
        let (tdg, plan) = (&planned.tdg, &planned.plan);
        let parts: Vec<Tdg> = self.time(tracer, "tdg.build", || {
            planned.programs.iter().map(|p| Tdg::from_program(p, mode)).collect()
        });
        self.time(tracer, "tdg.merge", || merge_all(parts));
        self.time(tracer, "analysis.dataflow", || dataflow_diagnostics(tdg));
        self.time(tracer, "analysis.graphcheck", || {
            let per_program: usize =
                planned.programs.iter().map(|p| check_program(p, mode).len()).sum();
            per_program + check_tdg(tdg).len()
        });
        let precheck = self.time(tracer, "core.precheck", || Precheck::run(tdg, net, eps));
        self.add("core.amax_floor", precheck.amax_floor() as f64);

        let ctx = || SearchContext::with_time_limit(crate::request::TIME_LIMIT);
        let greedy = self
            .time(tracer, "core.greedy", || GreedyHeuristic::new().solve(tdg, net, eps, &ctx()));
        if solves != ShadowSolves::GreedyOnly {
            let start = Instant::now();
            let exact = self
                .time(tracer, "core.exact", || OptimalSolver::new().solve(tdg, net, eps, &ctx()));
            let default_workers = start.elapsed();
            if let Ok(outcome) = &exact {
                self.add("core.exact_nodes", outcome.stats.nodes_explored as f64);
                self.add("core.exact_proved", f64::from(u8::from(outcome.proven_optimal)));
                if let (true, Ok(g)) = (outcome.proven_optimal, &greedy) {
                    self.add(
                        "core.greedy_gap_bytes",
                        g.objective as f64 - outcome.objective as f64,
                    );
                }
            }
            if solves == ShadowSolves::ExactScaling {
                let one = ctx().with_threads(NonZeroUsize::MIN);
                let start = Instant::now();
                let _ = tracer.span("core.exact_one_worker", || {
                    OptimalSolver::new().solve(tdg, net, eps, &one)
                });
                self.add("core.exact_one_worker", ms(start.elapsed()));
                self.add("core.exact_default_workers", ms(default_workers));
                self.time(tracer, "milp.p1_build", || build_p1(tdg, net, eps));
                let milp = self.time(tracer, "milp.solve", || {
                    MilpHermes::new(SolverConfig::with_time_limit(MILP_LIMIT)).solve(
                        tdg,
                        net,
                        eps,
                        &SearchContext::with_time_limit(MILP_LIMIT),
                    )
                });
                self.add("milp.solved", f64::from(u8::from(milp.is_ok())));
            }
        }

        self.time(tracer, "core.stage_assign", || {
            for switch in plan.occupied_switches() {
                let model = net.switch(switch).target_model();
                let _ = assign_stages(tdg, &plan.nodes_on(switch), switch, &model);
            }
        });
        let artifacts = self.time(tracer, "backend.generate", || generate(tdg, net, plan));
        let bytes = serde_json::to_string(&artifacts).map_or(0, |s| s.len());
        self.add("backend.artifact_bytes", bytes as f64);
        self.time(tracer, "backend.validate", || validate_plan(tdg, net, plan, eps, &[0, 1, 2, 3]));
    }

    /// Shadow calls for the controller a request left behind: journal
    /// write and read cost, and a restart's recovery.
    pub fn shadow_runtime(&mut self, tracer: &mut Tracer, runtime: &DeploymentRuntime, tdg: &Tdg) {
        let bytes = runtime.journal().bytes();
        let replay = self.time(tracer, "runtime.replay", || replay_bytes(bytes));
        self.add("runtime.replay_bytes", bytes.len() as f64);
        if let Ok(replay) = replay {
            self.time(tracer, "runtime.journal_append", || {
                let mut journal = Journal::new();
                for record in &replay.records {
                    journal.append(record);
                }
                journal
            });
        }
        let mut restarted = runtime.clone();
        if let Ok(report) = self.time(tracer, "runtime.recover", || restarted.recover(tdg)) {
            self.add("runtime.recover_messages", report.messages as f64);
        }
    }

    /// Shadow calls for a fresh deploy.
    pub fn shadow_fresh(
        &mut self,
        tracer: &mut Tracer,
        deployed: &Deployed,
        net: &Network,
        eps: &Epsilon,
        solves: ShadowSolves,
    ) {
        tracer.shadow(|tracer| {
            self.shadow_plan(tracer, &deployed.planned, net, eps, solves);
            self.shadow_runtime(tracer, &deployed.runtime, &deployed.planned.tdg);
        });
    }

    /// Shadow calls for a topology: building it, and one shortest path
    /// between every ordered pair of its programmable switches.
    pub fn shadow_net(&mut self, tracer: &mut Tracer, spec: &str) {
        tracer.shadow(|tracer| {
            let net = self.time(tracer, "net.build", || crate::workload::topology(spec));
            let programmable = net.programmable_switches();
            self.add("net.switches", net.switch_count() as f64);
            self.add("net.programmable", programmable.len() as f64);
            self.time(tracer, "net.paths", || {
                for &a in &programmable {
                    for &b in &programmable {
                        if a != b {
                            std::hint::black_box(shortest_path(&net, a, b));
                        }
                    }
                }
            });
        });
    }

    /// Folds the driver's own spans in: per-request time by span name, time
    /// and allocations by crate, and the request's glue.
    pub fn fold_spans(&mut self, spans: &[Span]) {
        let mut child_ns: Vec<u64> = vec![0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, &children) in spans.iter().zip(&child_ns) {
            let own_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            if s.name == "bench.request" {
                self.add("bench.request", s.ms());
                self.add("bench.glue", own_ns as f64 / 1e6);
                continue;
            }
            if s.name == "bench.setup" {
                continue;
            }
            if !s.shadow {
                self.add(s.name, s.ms());
                self.add(&format!("{}.own_ms", s.layer()), own_ns as f64 / 1e6);
            }
            // A crate the driver never calls directly is sized by its
            // shadow spans; the others by their own spans only, so work is
            // not counted twice.
            if s.shadow != DIRECT_CRATES.contains(&s.layer()) {
                self.add(&format!("{}.allocs", s.layer()), s.allocs as f64);
                self.add(&format!("{}.alloc_bytes", s.layer()), s.alloc_bytes as f64);
            }
        }
    }
}

/// The controller's running counters, read before and after a request.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeCounts {
    pub messages: u64,
    pub virtual_us: u64,
    pub events: u64,
    pub retries: u64,
    pub rollbacks: u64,
    pub journal_appends: u64,
    pub journal_compactions: u64,
    pub journal_bytes: u64,
}

impl RuntimeCounts {
    pub fn read(runtime: &DeploymentRuntime) -> RuntimeCounts {
        let log = runtime.log();
        RuntimeCounts {
            messages: runtime.messages_sent(),
            virtual_us: runtime.now_us(),
            events: log.len() as u64,
            retries: log.count(|e| matches!(e, Event::RetryScheduled { .. })) as u64,
            rollbacks: log.count(|e| matches!(e, Event::RolledBack { .. })) as u64,
            journal_appends: runtime.journal().appends(),
            journal_compactions: runtime.journal().compactions(),
            journal_bytes: runtime.journal().bytes().len() as u64,
        }
    }
}
