//! Per-switch pipeline cost models ("targets").
//!
//! The paper collapses switch resources into one uniform `C_stage × C_res`
//! pair ("without losing generality, we use a single variable C_res").
//! This module makes that pair a pluggable per-target cost model so one
//! workload can be planned across heterogeneous hardware:
//!
//! | target     | stages            | per-stage cap | total budget | latency |
//! |------------|-------------------|---------------|--------------|---------|
//! | `tofino`   | 12                | 1.0           | —            | 1 µs    |
//! | `smartnic` | 4 (deeper stages) | 2.0           | 6.0          | 2 µs    |
//! | `soft`     | unbounded         | 1.0           | 64.0         | 20 µs   |
//!
//! [`TargetModel`] answers the questions the planning stack used to compute
//! inline from `Switch::stages` / `Switch::stage_capacity`: per-stage
//! capacity, stage count, whether a resource demand fits a stage, total
//! capacity, and per-target latency. **It is the one place that defines
//! "fits"** — `stage_assign`, `precheck`, the MILP capacity rows, and the
//! verifier all route their capacity math through it. A default (paper-model) switch yields a model whose every answer is
//! bit-for-bit what the scalar expressions used to produce, so the default
//! unit-Tofino pipeline stays byte-identical.
//!
//! The software target has no architectural stage limit
//! ([`TargetModel::stage_limit`] returns `None`, so chain-length
//! certificates never fire against it); packing still needs a finite
//! depth, which resolves to [`SOFT_STAGES`] — deep enough for any workload
//! whose total demand fits the target's total budget.

use crate::graph::{Switch, TOFINO_STAGES};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Absolute slack for resource-capacity comparisons (capacities are
/// human-scale numbers, so an absolute tolerance suffices). Private: every
/// "fits" decision in the workspace goes through [`fits`].
const CAP_TOL: f64 = 1e-9;

/// Does a resource `demand` fit a `capacity`, up to the one capacity
/// tolerance? The comparison behind [`TargetModel::fits_total`],
/// [`TargetModel::fits_stage`] and every other capacity check.
#[inline]
pub fn fits(demand: f64, capacity: f64) -> bool {
    demand <= capacity + CAP_TOL
}

/// Pipeline stage count of the SmartNIC-like target (fewer, deeper stages).
pub const SMARTNIC_STAGES: usize = 4;
/// Per-stage capacity of the SmartNIC-like target.
pub const SMARTNIC_STAGE_CAPACITY: f64 = 2.0;
/// Per-switch total resource budget of the SmartNIC-like target (binds
/// before the 4 × 2.0 pipeline sum does).
pub const SMARTNIC_BUDGET: f64 = 6.0;
/// Switch transmission latency of the SmartNIC-like target, µs.
pub const SMARTNIC_LATENCY_US: f64 = 2.0;

/// Resolved packing depth of the software target. The target is
/// semantically unbounded ([`TargetModel::stage_limit`] is `None`); this
/// constant only bounds the concrete first-fit pipeline state, and any
/// workload within [`SOFT_TOTAL_BUDGET`] total units fits inside it.
pub const SOFT_STAGES: usize = 256;
/// Per-stage capacity of the software target.
pub const SOFT_STAGE_CAPACITY: f64 = 1.0;
/// Per-switch total resource budget of the software target.
pub const SOFT_TOTAL_BUDGET: f64 = 64.0;
/// Latency multiplier of the software target over a 1 µs hardware switch.
pub const SOFT_LATENCY_FACTOR: f64 = 20.0;

/// Which family of pipeline a switch belongs to. Only [`TargetKind::Software`]
/// changes *semantics* (no architectural stage limit); the numeric knobs
/// (stages, capacity, budget, latency) live on the switch itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TargetKind {
    /// The paper's hardware pipeline model: a hard stage count, per-stage
    /// capacity, and (optionally) a total budget. Tofino-like switches are
    /// the 12 × 1.0 instance of this kind.
    #[default]
    Pipeline,
    /// SmartNIC-like: fewer, deeper stages plus a per-switch total budget.
    SmartNic,
    /// Software switch: no architectural stage limit, higher latency.
    Software,
}

impl TargetKind {
    /// `true` for the default paper-model kind (serde skips the field).
    pub fn is_pipeline(&self) -> bool {
        matches!(self, TargetKind::Pipeline)
    }
}

/// A per-switch pipeline cost model: the one authority on what fits where.
///
/// Derived from a [`Switch`] via [`Switch::target_model`] (it is a cheap
/// `Copy` view, safe to construct inside hot loops) or built directly via
/// the named constructors. All capacity comparisons go through [`fits`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TargetModel {
    /// Display name of the model family (`tofino`, `smartnic`, `soft`,
    /// `pipeline`, `legacy`).
    pub name: &'static str,
    /// Semantic family.
    pub kind: TargetKind,
    /// Resolved packing depth. For [`TargetKind::Software`] this is the
    /// finite depth packing state uses, not an architectural limit — see
    /// [`TargetModel::stage_limit`].
    pub stages: usize,
    /// `C_res` — per-stage resource capacity in normalized units.
    pub stage_capacity: f64,
    /// Per-switch total resource budget; `f64::INFINITY` = no budget
    /// beyond the pipeline sum.
    pub total_budget: f64,
    /// `t_s(u)` — transmission latency through the switch, µs.
    pub latency_us: f64,
}

impl TargetModel {
    /// The anonymous paper model: `stages` × `stage_capacity`, no budget.
    /// Every answer is bit-identical to the pre-model scalar expressions.
    pub fn pipeline(stages: usize, stage_capacity: f64) -> Self {
        TargetModel {
            name: "pipeline",
            kind: TargetKind::Pipeline,
            stages,
            stage_capacity,
            total_budget: f64::INFINITY,
            latency_us: 1.0,
        }
    }

    /// Tofino-like: 12 stages of unit capacity, 1 µs, no extra budget.
    pub fn tofino() -> Self {
        TargetModel {
            name: "tofino",
            stage_capacity: 1.0,
            ..TargetModel::pipeline(TOFINO_STAGES, 1.0)
        }
    }

    /// SmartNIC-like: 4 deeper stages, total budget 6.0, 2 µs.
    pub fn smartnic() -> Self {
        TargetModel {
            name: "smartnic",
            kind: TargetKind::SmartNic,
            stages: SMARTNIC_STAGES,
            stage_capacity: SMARTNIC_STAGE_CAPACITY,
            total_budget: SMARTNIC_BUDGET,
            latency_us: SMARTNIC_LATENCY_US,
        }
    }

    /// Software switch: no stage limit (depth resolves to [`SOFT_STAGES`]),
    /// total budget 64.0, 20 µs (the [`SOFT_LATENCY_FACTOR`] multiplier
    /// over a 1 µs hardware switch).
    pub fn software() -> Self {
        TargetModel {
            name: "soft",
            kind: TargetKind::Software,
            stages: SOFT_STAGES,
            stage_capacity: SOFT_STAGE_CAPACITY,
            total_budget: SOFT_TOTAL_BUDGET,
            latency_us: SOFT_LATENCY_FACTOR,
        }
    }

    /// The architectural stage limit: `None` for software targets (a chain
    /// of any length can be ordered), `Some(stages)` for hardware.
    pub fn stage_limit(&self) -> Option<usize> {
        match self.kind {
            TargetKind::Software => None,
            TargetKind::Pipeline | TargetKind::SmartNic => Some(self.stages),
        }
    }

    /// Total usable resource across the pipeline: `C_stage × C_res`,
    /// clamped by the total budget when one is set. Bit-identical to
    /// `stages as f64 * stage_capacity` for budget-free targets.
    pub fn total_capacity(&self) -> f64 {
        let pipeline = self.stages as f64 * self.stage_capacity;
        if self.total_budget < pipeline {
            self.total_budget
        } else {
            pipeline
        }
    }

    /// The pipeline sum `C_stage × C_res` ignoring any budget — what the
    /// stages could hold if only per-stage capacity bound.
    pub fn pipeline_capacity(&self) -> f64 {
        self.stages as f64 * self.stage_capacity
    }

    /// Does a total resource demand fit this target? **The** definition of
    /// the quick-fit check (Algorithm 2 line 2: `Σ R(a) <= C_stage × C_res`,
    /// extended by the budget clamp).
    #[inline]
    pub fn fits_total(&self, demand: f64) -> bool {
        fits(demand, self.total_capacity())
    }

    /// Does a resource demand fit within one stage (no splitting)?
    #[inline]
    pub fn fits_stage(&self, demand: f64) -> bool {
        fits(demand, self.stage_capacity)
    }

    /// Stage count usable before the budget binds: `min(stages,
    /// ⌊budget / C_res⌋)`. The heuristic's conservative split shape uses
    /// this so chunks sized for the pipeline do not blow the budget.
    pub fn effective_stages(&self) -> usize {
        if self.total_budget.is_finite() && self.stage_capacity > 0.0 {
            let by_budget = (self.total_budget / self.stage_capacity).floor() as usize;
            self.stages.min(by_budget.max(1))
        } else {
            self.stages
        }
    }

    /// `true` when plans on the two targets are interchangeable — the
    /// exact solver's candidate-symmetry test. Matches the historical
    /// scalar check (stage count plus capacity within 1e-12) extended by
    /// budget bits and kind.
    pub fn symmetric_to(&self, other: &TargetModel) -> bool {
        self.kind == other.kind
            && self.stages == other.stages
            && (self.stage_capacity - other.stage_capacity).abs() < 1e-12
            && self.total_budget.to_bits() == other.total_budget.to_bits()
    }

    /// Copies this model's parameters onto a switch (keeps name and
    /// programmability).
    pub fn apply_to(&self, switch: &mut Switch) {
        switch.stages = self.stages;
        switch.stage_capacity = self.stage_capacity;
        switch.latency_us = self.latency_us;
        switch.target = self.kind;
        switch.total_budget = self.total_budget;
    }
}

impl fmt::Display for TargetModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        match self.stage_limit() {
            Some(s) => write!(f, "{s} stages")?,
            None => write!(f, "unbounded stages (packs {} deep)", self.stages)?,
        }
        write!(f, " x {:.2} units", self.stage_capacity)?;
        if self.total_budget.is_finite() {
            write!(f, ", budget {:.2}", self.total_budget)?;
        }
        write!(f, ", {:.0} us", self.latency_us)
    }
}

/// The built-in named targets, in display order for `hermes targets`.
pub fn builtin_targets() -> Vec<TargetModel> {
    vec![TargetModel::tofino(), TargetModel::smartnic(), TargetModel::software()]
}

/// `--target` got a malformed or out-of-range spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetSpecError {
    /// The rejected spec, as given.
    pub spec: String,
    /// What is wrong with it.
    pub detail: String,
}

impl fmt::Display for TargetSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "target spec `{}`: {}", self.spec, self.detail)
    }
}

impl std::error::Error for TargetSpecError {}

/// A parsed `--target` value: one model per programmable switch, assigned
/// round-robin (a single-model spec retargets every programmable switch).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    /// The model cycle; never empty.
    pub models: Vec<TargetModel>,
}

impl TargetSpec {
    /// Retargets every programmable switch of `net`, cycling through the
    /// spec's models in switch-index order. Non-programmable switches are
    /// untouched.
    pub fn apply(&self, net: &mut crate::graph::Network) {
        let prog = net.programmable_switches();
        for (i, s) in prog.into_iter().enumerate() {
            self.models[i % self.models.len()].apply_to(net.switch_mut(s));
        }
    }
}

/// Parses a `--target` spec: a built-in name (`tofino`, `smartnic`,
/// `soft`), a name with `key=value` knobs after a colon
/// (`smartnic:stages=4,budget=20`; knobs are `stages`, `cap`, `budget`,
/// `latency`), or `mix:` plus a `+`-separated list of such specs assigned
/// round-robin across programmable switches
/// (`mix:tofino+smartnic+soft`).
///
/// # Errors
///
/// Returns [`TargetSpecError`] on unknown names, unknown knobs, or
/// out-of-range values.
pub fn parse_target(spec: &str) -> Result<TargetSpec, TargetSpecError> {
    let bad = |detail: String| TargetSpecError { spec: spec.to_owned(), detail };
    if let Some(list) = spec.strip_prefix("mix:") {
        let mut models = Vec::new();
        for part in list.split('+') {
            if part.starts_with("mix:") {
                return Err(bad("mix specs do not nest".to_owned()));
            }
            models.extend(parse_target(part).map_err(|e| bad(e.detail))?.models);
        }
        if models.is_empty() {
            return Err(bad("mix needs at least one target".to_owned()));
        }
        return Ok(TargetSpec { models });
    }
    let (name, knobs) = match spec.split_once(':') {
        Some((n, k)) => (n, Some(k)),
        None => (spec, None),
    };
    let mut model = match name {
        "tofino" => TargetModel::tofino(),
        "smartnic" => TargetModel::smartnic(),
        "soft" | "software" => TargetModel::software(),
        other => {
            return Err(bad(format!("unknown target `{other}` (tofino, smartnic, soft, mix:...)")))
        }
    };
    if let Some(knobs) = knobs {
        for part in knobs.split(',') {
            let (key, value) =
                part.split_once('=').ok_or_else(|| bad(format!("`{part}` is not `key=value`")))?;
            let num: f64 = value
                .parse()
                .map_err(|_| bad(format!("knob `{key}` needs a number, got `{value}`")))?;
            if !num.is_finite() || num <= 0.0 {
                return Err(bad(format!("knob `{key}` must be finite and positive")));
            }
            match key {
                "stages" => {
                    if num.fract() != 0.0 || num > 4096.0 {
                        return Err(bad("`stages` must be an integer in 1..=4096".to_owned()));
                    }
                    model.stages = num as usize;
                }
                "cap" | "capacity" => model.stage_capacity = num,
                "budget" => model.total_budget = num,
                "latency" => model.latency_us = num,
                other => {
                    return Err(bad(format!(
                        "unknown knob `{other}` (stages, cap, budget, latency)"
                    )))
                }
            }
        }
    }
    Ok(TargetSpec { models: vec![model] })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn default_pipeline_math_is_bit_identical_to_scalars() {
        let m = TargetModel::tofino();
        assert_eq!(m.total_capacity().to_bits(), (12.0f64).to_bits());
        assert_eq!(m.total_capacity().to_bits(), (m.stages as f64 * m.stage_capacity).to_bits());
        assert_eq!(m.effective_stages(), 12);
        assert_eq!(m.stage_limit(), Some(12));
        assert!(m.fits_total(12.0) && !m.fits_total(12.1));
    }

    #[test]
    fn smartnic_budget_binds_before_the_pipeline_sum() {
        let m = TargetModel::smartnic();
        assert_eq!(m.pipeline_capacity(), 8.0);
        assert_eq!(m.total_capacity(), 6.0);
        assert!(m.fits_total(6.0) && !m.fits_total(6.5));
        assert_eq!(m.effective_stages(), 3, "floor(6.0 / 2.0)");
        assert_eq!(m.stage_limit(), Some(SMARTNIC_STAGES));
    }

    #[test]
    fn software_has_no_stage_limit_but_a_budget_and_latency_factor() {
        let m = TargetModel::software();
        assert_eq!(m.stage_limit(), None);
        assert_eq!(m.total_capacity(), SOFT_TOTAL_BUDGET);
        assert_eq!(m.latency_us, SOFT_LATENCY_FACTOR);
        assert!(m.stages >= 64, "packing depth must dwarf hardware pipelines");
    }

    #[test]
    fn symmetry_requires_matching_budget_and_kind() {
        let a = TargetModel::tofino();
        assert!(a.symmetric_to(&TargetModel::tofino()));
        let mut b = a;
        b.total_budget = 6.0;
        assert!(!a.symmetric_to(&b));
        assert!(!TargetModel::smartnic().symmetric_to(&TargetModel::software()));
    }

    #[test]
    fn specs_parse_and_apply() {
        assert_eq!(parse_target("tofino").unwrap().models, vec![TargetModel::tofino()]);
        assert_eq!(parse_target("soft").unwrap().models, vec![TargetModel::software()]);
        let custom = parse_target("smartnic:stages=8,budget=20,cap=1.5,latency=3").unwrap();
        let m = custom.models[0];
        assert_eq!((m.stages, m.stage_capacity, m.total_budget, m.latency_us), (8, 1.5, 20.0, 3.0));
        assert_eq!(m.kind, TargetKind::SmartNic);

        let mix = parse_target("mix:tofino+smartnic+soft").unwrap();
        assert_eq!(mix.models.len(), 3);
        let mut net = topology::linear(4, 10.0);
        mix.apply(&mut net);
        let kinds: Vec<TargetKind> = net.switches().iter().map(|s| s.target).collect();
        assert_eq!(
            kinds,
            vec![
                TargetKind::Pipeline,
                TargetKind::SmartNic,
                TargetKind::Software,
                TargetKind::Pipeline
            ]
        );
        assert_eq!(net.switches()[1].total_budget, SMARTNIC_BUDGET);
        assert_eq!(net.switches()[2].latency_us, SOFT_LATENCY_FACTOR);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "quantum",
            "smartnic:stages",
            "smartnic:stages=four",
            "smartnic:widgets=3",
            "smartnic:stages=0",
            "smartnic:stages=2.5",
            "smartnic:budget=-1",
            "soft:latency=inf",
            "mix:",
            "mix:tofino+mix:soft",
        ] {
            let e = parse_target(bad).unwrap_err();
            assert_eq!(e.spec, bad, "{e}");
        }
        let e = parse_target("quantum").unwrap_err();
        assert!(e.to_string().contains("unknown target `quantum`"), "{e}");
    }

    #[test]
    fn builtin_listing_displays_every_model() {
        let all = builtin_targets();
        assert_eq!(all.len(), 3);
        let text: Vec<String> = all.iter().map(ToString::to_string).collect();
        assert!(text[0].starts_with("tofino: 12 stages"), "{}", text[0]);
        assert!(text[1].contains("budget 6.00"), "{}", text[1]);
        assert!(text[2].contains("unbounded stages"), "{}", text[2]);
    }

    #[test]
    fn switch_round_trip_through_serde_keeps_target_fields() {
        let mut sw = Switch::tofino("t");
        // Default switches serialize without any target field at all.
        let json = serde_json::to_string(&sw).unwrap();
        assert!(!json.contains("target") && !json.contains("budget"), "{json}");
        TargetModel::smartnic().apply_to(&mut sw);
        let json = serde_json::to_string(&sw).unwrap();
        let back: Switch = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sw);
        assert_eq!(back.target_model(), TargetModel::smartnic());
    }
}
