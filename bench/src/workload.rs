//! The request lists. A round is set-up from the seed, one untimed warm-up
//! request, then a fixed list of requests; the same seed gives the same
//! list, so every count a round produces repeats exactly.
//!
//! This file holds the three workloads whose requests are fresh deploys;
//! `churn` holds the resident-controller stream.

use crate::check;
use crate::emit::emit_checked;
use crate::layers::{Layers, RuntimeCounts, ShadowSolves};
use crate::request::{deploy_request, Deployed, Refusal, Source};
use crate::tight::{TightInstance, TIGHT_INSTANCES};
use crate::trace::Tracer;
use hermes_core::Epsilon;
use hermes_dataplane::library;
use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes_dataplane::Program;
use hermes_net::Network;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = ["testbed-10", "wan-50", "tight-exact", "churn-ft4"];

/// What a checked request contributes to the count metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// `A_max` of the plan now serving, recomputed by `check`.
    pub a_max: u64,
    /// Control-plane messages the request sent.
    pub messages: u64,
    /// Size of the journal image the controller holds after the request.
    pub journal_bytes: u64,
    /// Virtual time the request took on the runtime's clock.
    pub virtual_us: u64,
    /// How the request ended; the histogram of these must repeat exactly.
    pub outcome: &'static str,
}

/// One round of a workload.
pub trait Round {
    /// Requests in the list (the warm-up is not one of them).
    fn len(&self) -> usize;
    /// The untimed warm-up request.
    fn warm_up(&mut self);
    /// Executes request `i` and returns the wall time of its timed window.
    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Duration;
    /// Checks the outputs of the request just run, outside its timed
    /// window. `Err` is a failed request.
    fn check(&mut self, i: usize) -> Result<Observed, String>;
    /// Traced rounds only: reads the counts of the request just run into
    /// `layers`, and when `deep` also sizes the layers it went through
    /// inside opaque calls, by calling their public functions again on
    /// the same inputs.
    fn observe(&mut self, i: usize, deep: bool, tracer: &mut Tracer, layers: &mut Layers);
    /// Text, topology spec and solver of the warm-up request, which in
    /// every workload is a deploy onto a clean control plane.
    fn warm_up_request(&self) -> (&Source, &str, &'static str);
    /// The topology specs the round's requests deploy onto.
    fn topologies(&self) -> &[String];
    /// Programs the DSL grammar cannot state, with the reason.
    fn unrendered(&self) -> &BTreeMap<String, String>;
}

/// A pool of programs and, for each, whether its DSL rendering parses
/// back to exactly that program.
pub struct Pool {
    pub programs: Vec<Program>,
    renders: Vec<bool>,
    pub from_constructor: BTreeMap<String, String>,
}

impl Pool {
    pub fn new(programs: Vec<Program>) -> Pool {
        let mut from_constructor = BTreeMap::new();
        let renders = programs
            .iter()
            .map(|p| match emit_checked(p) {
                Ok(_) => true,
                Err(reason) => {
                    from_constructor.insert(p.name().to_owned(), reason);
                    false
                }
            })
            .collect();
        Pool { programs, renders, from_constructor }
    }

    /// The request text for the programs at `indices`, in that order.
    pub fn source(&self, indices: &[usize]) -> Source {
        Source::render(indices.iter().map(|&i| (&self.programs[i], self.renders[i])))
    }

    /// Whether `programs` are the programs at `indices`, in that order.
    pub fn holds(&self, indices: &[usize], programs: &[Program]) -> bool {
        programs.iter().eq(indices.iter().map(|&i| &self.programs[i]))
    }
}

pub fn topology(spec: &str) -> Network {
    hermes_cli::parse_topology(spec).unwrap_or_else(|e| panic!("topology `{spec}`: {e}"))
}

#[derive(Clone)]
struct FreshRequest {
    source: Source,
    /// Indices into the pool, for the read-back check.
    programs: Vec<usize>,
    net: usize,
    /// The proven optimum, where one is committed.
    optimum: Option<u64>,
}

/// A round whose every request is a deploy onto a clean control plane.
pub struct FreshRound {
    pool: Pool,
    specs: Vec<String>,
    nets: Vec<Network>,
    requests: Vec<FreshRequest>,
    solver: &'static str,
    solves: ShadowSolves,
    eps: Epsilon,
    warm_up: FreshRequest,
    last: Option<Result<Deployed, Refusal>>,
}

impl FreshRound {
    /// Warms up on request 0 unless `warm_up` is set afterwards.
    fn new(
        pool: Pool,
        specs: Vec<String>,
        requests: Vec<FreshRequest>,
        solver: &'static str,
        solves: ShadowSolves,
    ) -> FreshRound {
        let nets = specs.iter().map(|spec| topology(spec)).collect();
        let warm_up = requests[0].clone();
        FreshRound {
            pool,
            specs,
            nets,
            requests,
            solver,
            solves,
            eps: Epsilon::loose(),
            warm_up,
            last: None,
        }
    }
}

impl Round for FreshRound {
    fn len(&self) -> usize {
        self.requests.len()
    }

    fn warm_up(&mut self) {
        let r = &self.warm_up;
        let _ = deploy_request(
            &r.source,
            &self.nets[r.net],
            &self.eps,
            self.solver,
            &mut Tracer::off(),
        );
    }

    fn run(&mut self, i: usize, tracer: &mut Tracer) -> Duration {
        let r = &self.requests[i];
        let start = Instant::now();
        let result = deploy_request(&r.source, &self.nets[r.net], &self.eps, self.solver, tracer);
        let wall = start.elapsed();
        self.last = Some(result);
        wall
    }

    fn check(&mut self, i: usize) -> Result<Observed, String> {
        let r = &self.requests[i];
        let deployed = match self.last.as_ref().ok_or("no request was run")? {
            Ok(d) => d,
            Err(refusal) => return Err(refusal.to_string()),
        };
        let planned = &deployed.planned;
        if !self.pool.holds(&r.programs, &planned.programs) {
            return Err("the programs read back differ from the programs sent".to_owned());
        }
        let a_max = check::plan(&planned.tdg, &self.nets[r.net], &planned.plan)?;
        if let Some(optimum) = r.optimum.filter(|&o| o != a_max) {
            return Err(format!("A_max {a_max} B, the proven optimum is {optimum} B"));
        }
        if deployed.runtime.active_plan() != Some(&planned.plan) {
            return Err("the controller serves another plan than the one solved".to_owned());
        }
        check::agents_on_active_epoch(&deployed.runtime)?;
        check::journal_restores(&deployed.runtime, &planned.plan)?;
        Ok(Observed {
            a_max,
            messages: deployed.runtime.messages_sent(),
            journal_bytes: deployed.journal_len as u64,
            virtual_us: deployed.runtime.now_us(),
            outcome: "committed",
        })
    }

    fn observe(&mut self, i: usize, deep: bool, tracer: &mut Tracer, layers: &mut Layers) {
        let Some(Ok(deployed)) = &self.last else { return };
        let r = &self.requests[i];
        layers.observe_plan(&r.source, &deployed.planned);
        layers.observe_runtime(&RuntimeCounts::default(), &RuntimeCounts::read(&deployed.runtime));
        if deep {
            layers.shadow_fresh(tracer, deployed, &self.nets[r.net], &self.eps, self.solves);
        }
    }

    fn warm_up_request(&self) -> (&Source, &str, &'static str) {
        let r = &self.warm_up;
        (&r.source, &self.specs[r.net], self.solver)
    }

    fn topologies(&self) -> &[String] {
        &self.specs
    }

    fn unrendered(&self) -> &BTreeMap<String, String> {
        &self.pool.from_constructor
    }
}

/// `testbed-10`: each request deploys 4 to 10 of the ten library programs
/// on the three-switch testbed with the portfolio solver. Sizes cycle so
/// that every seed has the same size mix; the seed draws the members.
pub fn testbed(seed: u64) -> FreshRound {
    const REQUESTS: usize = 1200;
    let pool = Pool::new(library::real_programs());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..pool.programs.len()).collect();
    let requests = (0..REQUESTS)
        .map(|i| {
            order.shuffle(&mut rng);
            let mut programs = order[..4 + i % 7].to_vec();
            programs.sort_unstable();
            FreshRequest { source: pool.source(&programs), programs, net: 0, optimum: None }
        })
        .collect();
    let specs = vec!["linear:3".to_owned()];
    FreshRound::new(pool, specs, requests, "portfolio", ShadowSolves::GreedyAndExact)
}

/// `wan-50`: the ten library programs plus 40 of a 60-program synthetic
/// pool, on consecutive Table III WANs, with the greedy solver. The 40 are
/// drawn two from every three pool programs in table-count order, which
/// keeps the request size steady from seed to seed.
pub fn wan(seed: u64) -> FreshRound {
    const REQUESTS: usize = 6;
    const SYNTHETIC_POOL: usize = 60;
    // The pool is to this workload what the library is to `testbed-10`:
    // the same for every seed, which draws from it.
    const POOL_SEED: u64 = 50;
    let mut programs = library::real_programs();
    let real = programs.len();
    programs.extend(
        SyntheticGenerator::new(POOL_SEED, SyntheticConfig::default()).programs(SYNTHETIC_POOL),
    );
    let pool = Pool::new(programs);
    let mut by_size: Vec<usize> = (real..real + SYNTHETIC_POOL).collect();
    by_size.sort_by_key(|&i| (pool.programs[i].tables().len(), i));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77616e);
    let first_wan = rng.random_range(0..10usize);
    let requests = (0..REQUESTS)
        .map(|i| {
            let mut members: Vec<usize> = (0..real).collect();
            for triple in by_size.chunks(3) {
                let skip = rng.random_range(0..triple.len());
                members
                    .extend(triple.iter().enumerate().filter(|(j, _)| *j != skip).map(|(_, &p)| p));
            }
            members.sort_unstable();
            FreshRequest { source: pool.source(&members), programs: members, net: i, optimum: None }
        })
        .collect();
    let specs = (0..REQUESTS).map(|i| format!("wan:{}", (first_wan + i) % 10 + 1)).collect();
    // A request of the list takes over a second, and a run has time for
    // about twenty: the warm-up deploys the library programs alone, so that
    // the time goes to rounds.
    let library: Vec<usize> = (0..real).collect();
    let warm_up =
        FreshRequest { source: pool.source(&library), programs: library, net: 0, optimum: None };
    let mut round = FreshRound::new(pool, specs, requests, "greedy", ShadowSolves::GreedyOnly);
    round.warm_up = warm_up;
    round
}

fn tight_programs(instance: &TightInstance) -> Vec<Program> {
    let config = SyntheticConfig {
        tables_min: instance.tables_min,
        tables_max: instance.tables_max,
        ..SyntheticConfig::default()
    };
    let mut programs = library::real_programs();
    programs
        .extend(SyntheticGenerator::new(instance.generator_seed, config).programs(instance.extra));
    programs
}

/// `tight-exact`: the committed instances, each proven optimal by the
/// exact search; the seed only permutes their order.
pub fn tight(seed: u64) -> FreshRound {
    const WARM_UP_INSTANCE: usize = 2;
    let mut order: Vec<usize> = (0..TIGHT_INSTANCES.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    // One pool over all instances; instances that share a generator seed
    // share program names but not programs, so each keeps its own slice.
    let mut programs = Vec::new();
    let mut slices = Vec::new();
    for instance in &TIGHT_INSTANCES {
        let own = tight_programs(instance);
        slices.push((programs.len()..programs.len() + own.len()).collect::<Vec<usize>>());
        programs.extend(own);
    }
    let pool = Pool::new(programs);
    let mut specs: Vec<String> = Vec::new();
    let requests = order
        .iter()
        .map(|&k| {
            let instance = &TIGHT_INSTANCES[k];
            let spec = format!("linear:{}", instance.switches);
            let net = specs.iter().position(|s| *s == spec).unwrap_or_else(|| {
                specs.push(spec);
                specs.len() - 1
            });
            FreshRequest {
                source: pool.source(&slices[k]),
                programs: slices[k].clone(),
                net,
                optimum: Some(instance.optimum),
            }
        })
        .collect();
    let mut round = FreshRound::new(pool, specs, requests, "exact", ShadowSolves::ExactScaling);
    // Instances differ a hundredfold in cost; warming up on the same cheap
    // one whatever the order keeps set-up time comparable between seeds.
    if let Some(at) = order.iter().position(|&k| k == WARM_UP_INSTANCE) {
        round.warm_up = round.requests[at].clone();
    }
    round
}
