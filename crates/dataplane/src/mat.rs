//! Match-action tables (MATs): the unit of placement.
//!
//! A MAT carries exactly the five properties the paper ascribes to a TDG
//! node: the match-field set `F^m`, the action set `A`, the written-field
//! set `F^a` (derived from the actions), the rule set `R`, and the rule
//! capacity `C`. It additionally carries a normalized resource requirement
//! `R(a)` expressed as a fraction of one pipeline stage's capacity, which is
//! what the placement constraints (Eq. 9) consume.

use crate::action::Action;
use crate::fields::{ContentHasher, Field};
use serde::{Deserialize, Serialize, Serializer, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How a match field is compared against a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MatchKind {
    /// Exact match (SRAM hash table).
    Exact,
    /// Longest-prefix match (TCAM or algorithmic LPM).
    Lpm,
    /// Ternary match with mask (TCAM).
    Ternary,
    /// Range match (TCAM range expansion).
    Range,
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MatchKind::Exact => "exact",
            MatchKind::Lpm => "lpm",
            MatchKind::Ternary => "ternary",
            MatchKind::Range => "range",
        };
        f.write_str(s)
    }
}

/// One match key of a MAT: a field plus the way it is matched.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MatchSpec {
    /// The field being matched.
    pub field: Field,
    /// The match discipline applied to it.
    pub kind: MatchKind,
}

impl MatchSpec {
    /// Creates a match spec.
    pub fn new(field: Field, kind: MatchKind) -> Self {
        MatchSpec { field, kind }
    }

    /// Folds the key into `h`: the field's content word, then the kind.
    pub fn write_content(&self, h: &mut ContentHasher) {
        h.write_u64(self.field.content_hash());
        h.write_u64(match self.kind {
            MatchKind::Exact => 0,
            MatchKind::Lpm => 1,
            MatchKind::Ternary => 2,
            MatchKind::Range => 3,
        });
    }
}

/// A user-installed rule: per-key patterns plus the action it invokes.
///
/// The pattern strings are opaque to deployment (placement never inspects
/// rule values), but keeping them allows examples and tests to populate
/// realistic tables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Rule {
    /// One pattern per match key, in `MatchSpec` order (e.g. `"10.0.0.0/8"`).
    pub patterns: Vec<String>,
    /// Name of the action in the table's action set to execute on a hit.
    pub action: String,
    /// Priority among overlapping rules; higher wins.
    pub priority: u32,
}

impl Rule {
    /// Creates a rule with priority 0.
    pub fn new<I, S>(patterns: I, action: impl Into<String>) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Rule {
            patterns: patterns.into_iter().map(Into::into).collect(),
            action: action.into(),
            priority: 0,
        }
    }
}

/// Errors produced while building a [`Mat`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildMatError {
    /// A rule names an action that is not in the table's action set.
    UnknownAction {
        /// The offending table.
        table: String,
        /// The action the rule referenced.
        action: String,
    },
    /// More rules were installed than the declared capacity `C`.
    CapacityExceeded {
        /// The offending table.
        table: String,
        /// Declared capacity.
        capacity: usize,
        /// Number of rules installed.
        rules: usize,
    },
    /// The declared resource requirement is not a positive finite number.
    InvalidResource {
        /// The offending table.
        table: String,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for BuildMatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildMatError::UnknownAction { table, action } => {
                write!(f, "table `{table}`: rule references unknown action `{action}`")
            }
            BuildMatError::CapacityExceeded { table, capacity, rules } => {
                write!(f, "table `{table}`: {rules} rules exceed capacity {capacity}")
            }
            BuildMatError::InvalidResource { table, value } => {
                write!(
                    f,
                    "table `{table}`: resource requirement {value} must be positive and finite"
                )
            }
        }
    }
}

impl std::error::Error for BuildMatError {}

/// A match-action table.
///
/// Construct with [`Mat::builder`]. Equality is structural over all five
/// properties plus the resource requirement; the SPEED merge step treats two
/// structurally equal MATs in different programs as *redundant* and keeps
/// only one copy.
///
/// # Examples
///
/// ```
/// use hermes_dataplane::mat::{Mat, MatchKind, Rule};
/// use hermes_dataplane::action::Action;
/// use hermes_dataplane::fields::{Field, headers};
///
/// let idx = Field::metadata("meta.idx", 4);
/// let mat = Mat::builder("compute_index")
///     .match_field(headers::ipv4_src(), MatchKind::Exact)
///     .action(Action::writing("set_idx", [idx.clone()]))
///     .rule(Rule::new(["*"], "set_idx"))
///     .capacity(1024)
///     .resource(0.25)
///     .build()?;
/// assert!(mat.written_fields().contains(&idx));
/// # Ok::<(), hermes_dataplane::mat::BuildMatError>(())
/// ```
#[derive(Clone)]
pub struct Mat {
    /// Immutable once built, so a clone is a refcount bump and every
    /// clone of a table — a TDG node, a copied graph, a prebuilt program —
    /// reads one body.
    body: Arc<MatBody>,
}

/// What a [`Mat`] handle shares: the six declared properties and what
/// [`Mat::checked`] derives from them, once.
#[derive(Debug, PartialEq)]
struct MatBody {
    name: String,
    match_specs: Vec<MatchSpec>,
    actions: Vec<Action>,
    rules: Vec<Rule>,
    capacity: usize,
    resource: f64,
    /// `F^m`, `F^a` and the action-read set: three runs in one slice, each
    /// ascending and duplicate-free — the order a `BTreeSet<Field>`
    /// iterates in. `F^a` starts at `written_at`, the action-read set at
    /// `read_at`.
    field_sets: Box<[Field]>,
    written_at: usize,
    read_at: usize,
    signature: MatSignature,
}

/// Structural: two handles are equal when their bodies are, and one body
/// is equal to itself without a look inside.
impl PartialEq for Mat {
    fn eq(&self, other: &Mat) -> bool {
        Arc::ptr_eq(&self.body, &other.body) || self.body == other.body
    }
}

/// Prints the body's fields as the table's own: that a handle shares them
/// is not part of what a table is.
impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &*self.body;
        f.debug_struct("Mat")
            .field("name", &b.name)
            .field("match_specs", &b.match_specs)
            .field("actions", &b.actions)
            .field("rules", &b.rules)
            .field("capacity", &b.capacity)
            .field("resource", &b.resource)
            .field("field_sets", &b.field_sets)
            .field("written_at", &b.written_at)
            .field("read_at", &b.read_at)
            .finish()
    }
}

impl Mat {
    /// Starts building a table with the given name.
    pub fn builder(name: impl Into<String>) -> MatBuilder {
        MatBuilder {
            name: name.into(),
            match_specs: Vec::new(),
            actions: Vec::new(),
            rules: Vec::new(),
            capacity: DEFAULT_CAPACITY,
            resource: None,
        }
    }

    /// The table's name, unique within its program.
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// The match keys (field + discipline) in declaration order.
    pub fn match_specs(&self) -> &[MatchSpec] {
        &self.body.match_specs
    }

    /// The set `F^m` of matched fields, ascending and duplicate-free.
    pub fn match_fields(&self) -> &[Field] {
        &self.body.field_sets[..self.body.written_at]
    }

    /// The action set `A`.
    pub fn actions(&self) -> &[Action] {
        &self.body.actions
    }

    /// The set `F^a` of fields written by any action of this table,
    /// ascending and duplicate-free.
    pub fn written_fields(&self) -> &[Field] {
        &self.body.field_sets[self.body.written_at..self.body.read_at]
    }

    /// Fields read by action bodies (excluding the match keys), ascending
    /// and duplicate-free.
    pub fn action_read_fields(&self) -> &[Field] {
        &self.body.field_sets[self.body.read_at..]
    }

    /// `true` iff the table matches on `field` or reads it inside an action
    /// body — the downstream side of a 𝕄 dependency.
    pub fn consumes(&self, field: &Field) -> bool {
        self.match_fields().contains(field) || self.action_read_fields().contains(field)
    }

    /// Everything the table consumes (`F^m` ∪ the action-read set),
    /// ascending and duplicate-free.
    pub fn consumed_fields(&self) -> impl Iterator<Item = &Field> + '_ {
        let mut matched = self.match_fields().iter().peekable();
        let mut read = self.action_read_fields().iter().peekable();
        std::iter::from_fn(move || match (matched.peek(), read.peek()) {
            (Some(m), Some(r)) => match m.cmp(r) {
                Ordering::Less => matched.next(),
                Ordering::Greater => read.next(),
                Ordering::Equal => {
                    read.next();
                    matched.next()
                }
            },
            (Some(_), None) => matched.next(),
            (None, _) => read.next(),
        })
    }

    /// The installed rule set `R`.
    pub fn rules(&self) -> &[Rule] {
        &self.body.rules
    }

    /// Maximum number of rules `C` the table can hold.
    pub fn capacity(&self) -> usize {
        self.body.capacity
    }

    /// Normalized resource requirement `R(a)` as a fraction of one pipeline
    /// stage (1.0 = a full stage). May exceed 1.0 for tables that must be
    /// spread over several stages.
    pub fn resource(&self) -> f64 {
        self.body.resource
    }

    /// `true` if any action of the table manipulates stateful memory.
    pub fn is_stateful(&self) -> bool {
        self.actions().iter().any(Action::is_stateful)
    }

    /// Metadata fields among `F^a` — the fields whose values must travel
    /// with the packet when a dependent table sits on another switch.
    pub fn written_metadata(&self) -> impl Iterator<Item = &Field> + '_ {
        self.written_fields().iter().filter(|f| f.is_metadata())
    }

    /// Total bytes of metadata this table produces (sum of
    /// [`Mat::written_metadata`] sizes).
    pub fn written_metadata_bytes(&self) -> u32 {
        self.written_metadata().map(Field::size_bytes).sum()
    }

    /// A stable structural signature: two tables with equal signatures are
    /// redundant in the SPEED sense and can be merged into one. Derived
    /// once, when the table is built.
    pub fn signature(&self) -> &MatSignature {
        &self.body.signature
    }

    /// `true` iff the two handles are clones of one table, not merely
    /// equal tables: what lets a test pin that a layer shares tables
    /// instead of copying them.
    pub fn shares_body(&self, other: &Mat) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &*self.body;
        write!(
            f,
            "{} [{} keys, {} actions, {}/{} rules, R={:.2}]",
            b.name,
            b.match_specs.len(),
            b.actions.len(),
            b.rules.len(),
            b.capacity,
            b.resource
        )
    }
}

/// Structural identity of a MAT used for redundancy elimination.
///
/// Deliberately excludes the table name (programs name shared functionality
/// differently) and the installed rules (rule contents are control-plane
/// state, and redundancy is decided on the data plane structure).
///
/// The match keys and the actions are held as sets: sorted, duplicate-free
/// slices, which compare lexicographically and so order signatures exactly
/// as `BTreeSet`s of them would, at a fraction of a tree's memory.
///
/// A signature also carries a 64-bit hash of that content, computed once
/// when the table is built, as a [`Field`] does: `Hash` writes only that
/// word and `Eq` compares it first, so grouping tables by signature costs
/// a word per table. `Ord` ignores it.
#[derive(Debug, Clone)]
pub struct MatSignature {
    match_specs: Box<[MatchSpec]>,
    actions: Box<[Action]>,
    capacity: usize,
    /// [`ContentHasher`] over the three fields above.
    hash: u64,
}

impl MatSignature {
    fn new(match_specs: Box<[MatchSpec]>, actions: Box<[Action]>, capacity: usize) -> Self {
        let mut h = ContentHasher::new();
        h.write_u64(match_specs.len() as u64);
        match_specs.iter().for_each(|m| m.write_content(&mut h));
        h.write_u64(actions.len() as u64);
        actions.iter().for_each(|a| a.write_content(&mut h));
        h.write_u64(capacity as u64);
        MatSignature { match_specs, actions, capacity, hash: h.finish() }
    }

    /// The signature's 64-bit content hash: equal signatures have equal
    /// words.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for MatSignature {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.capacity == other.capacity
            && self.match_specs == other.match_specs
            && self.actions == other.actions
    }
}

impl Eq for MatSignature {}

/// By match keys, then actions, then capacity — the order the former
/// derive gave.
impl Ord for MatSignature {
    fn cmp(&self, other: &Self) -> Ordering {
        self.match_specs
            .cmp(&other.match_specs)
            .then_with(|| self.actions.cmp(&other.actions))
            .then(self.capacity.cmp(&other.capacity))
    }
}

impl PartialOrd for MatSignature {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Writes the content hash, one word; see [`crate::fields::FieldHasher`].
impl Hash for MatSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

const DEFAULT_CAPACITY: usize = 1024;

/// Rules-per-full-stage constant used by the default resource estimator.
/// Roughly mirrors the exact-match table density of one Tofino stage.
pub const RULES_PER_STAGE: f64 = 4096.0;

/// Builder for [`Mat`]; see [`Mat::builder`].
#[derive(Debug, Clone)]
pub struct MatBuilder {
    name: String,
    match_specs: Vec<MatchSpec>,
    actions: Vec<Action>,
    rules: Vec<Rule>,
    capacity: usize,
    resource: Option<f64>,
}

impl MatBuilder {
    /// Adds a match key.
    #[must_use]
    pub fn match_field(mut self, field: Field, kind: MatchKind) -> Self {
        self.match_specs.push(MatchSpec::new(field, kind));
        self
    }

    /// Adds an action to the action set.
    #[must_use]
    pub fn action(mut self, action: Action) -> Self {
        self.actions.push(action);
        self
    }

    /// Installs a rule.
    #[must_use]
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Sets the rule capacity `C` (default 1024).
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Sets the normalized resource requirement `R(a)` explicitly. When not
    /// called, `R(a)` is estimated as `capacity / RULES_PER_STAGE` weighted
    /// by match-kind cost (TCAM disciplines cost 2x) and clamped to
    /// `[0.05, 4.0]`.
    #[must_use]
    pub fn resource(mut self, stage_fraction: f64) -> Self {
        self.resource = Some(stage_fraction);
        self
    }

    /// Finalizes the table.
    ///
    /// # Errors
    ///
    /// Returns [`BuildMatError`] if a rule references an unknown action, the
    /// rules exceed the capacity, or the resource requirement is invalid.
    pub fn build(self) -> Result<Mat, BuildMatError> {
        let resource =
            self.resource.unwrap_or_else(|| estimate_resource(&self.match_specs, self.capacity));
        Mat::checked(self.name, self.match_specs, self.actions, self.rules, self.capacity, resource)
    }
}

impl Mat {
    /// The one way a [`Mat`] comes to exist, from the builder or from
    /// serialized form: checks what every consumer takes on trust, then
    /// derives the field sets and the signature.
    fn checked(
        name: String,
        match_specs: Vec<MatchSpec>,
        actions: Vec<Action>,
        rules: Vec<Rule>,
        capacity: usize,
        resource: f64,
    ) -> Result<Mat, BuildMatError> {
        if let Some(rule) = rules.iter().find(|r| !actions.iter().any(|a| a.name() == r.action)) {
            return Err(BuildMatError::UnknownAction { table: name, action: rule.action.clone() });
        }
        if rules.len() > capacity {
            return Err(BuildMatError::CapacityExceeded {
                table: name,
                capacity,
                rules: rules.len(),
            });
        }
        if !(resource.is_finite() && resource > 0.0) {
            return Err(BuildMatError::InvalidResource { table: name, value: resource });
        }

        // Appends the distinct members of `run`, ascending, and empties it;
        // returns where the next run starts.
        fn close_run(fields: &mut Vec<Field>, run: &mut Vec<&Field>) -> usize {
            run.sort_unstable();
            run.dedup();
            fields.extend(run.drain(..).cloned());
            fields.len()
        }
        let ops = || actions.iter().flat_map(Action::ops);
        let mut run: Vec<&Field> = match_specs.iter().map(|m| &m.field).collect();
        let mut fields = Vec::with_capacity(run.len() + 2 * ops().count());
        let written_at = close_run(&mut fields, &mut run);
        run.extend(ops().flat_map(|op| op.writes()));
        let read_at = close_run(&mut fields, &mut run);
        run.extend(ops().flat_map(|op| op.reads()));
        close_run(&mut fields, &mut run);

        // The distinct members of `items`, ascending.
        fn set_of<T: Ord + Clone>(items: &[T]) -> Box<[T]> {
            let mut sorted: Vec<&T> = items.iter().collect();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.into_iter().cloned().collect()
        }
        let signature = MatSignature::new(set_of(&match_specs), set_of(&actions), capacity);

        let body = MatBody {
            field_sets: fields.into(),
            written_at,
            read_at,
            signature,
            name,
            match_specs,
            actions,
            rules,
            capacity,
            resource,
        };
        Ok(Mat { body: Arc::new(body) })
    }
}

/// The six declared properties, in declaration order; the field sets and
/// the signature are not part of the serialized form.
impl Serialize for Mat {
    fn serialize<W: serde::Write>(&self, s: &mut Serializer<W>) -> Result<(), serde::Error> {
        let b = &*self.body;
        let mut map = s.begin_map()?;
        map.field("name", &b.name)?;
        map.field("match_specs", &b.match_specs)?;
        map.field("actions", &b.actions)?;
        map.field("rules", &b.rules)?;
        map.field("capacity", &b.capacity)?;
        map.field("resource", &b.resource)?;
        map.end()
    }
}

/// Reads the six properties and hands them to the checks
/// [`MatBuilder::build`] makes, so a table read from JSON is as
/// well-formed as a built one.
impl Deserialize for Mat {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Mat::checked(
            Deserialize::from_value(v.get_field("name")?)?,
            Deserialize::from_value(v.get_field("match_specs")?)?,
            Deserialize::from_value(v.get_field("actions")?)?,
            Deserialize::from_value(v.get_field("rules")?)?,
            Deserialize::from_value(v.get_field("capacity")?)?,
            Deserialize::from_value(v.get_field("resource")?)?,
        )
        .map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// Default resource estimate from static table properties (capacity and
/// match-kind cost), mirroring the static code analysis the paper cites
/// ([8, 49]) for computing `R(a)`.
fn estimate_resource(specs: &[MatchSpec], capacity: usize) -> f64 {
    let tcam_weight = if specs
        .iter()
        .any(|s| matches!(s.kind, MatchKind::Ternary | MatchKind::Lpm | MatchKind::Range))
    {
        2.0
    } else {
        1.0
    };
    (capacity as f64 * tcam_weight / RULES_PER_STAGE).clamp(0.05, 4.0)
}

/// The three field sets and the signature as they were derived on every
/// call before the table cached them: the definitions the caches are
/// tested against.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeSet;

    pub fn matched(mat: &Mat) -> BTreeSet<Field> {
        mat.match_specs().iter().map(|m| m.field.clone()).collect()
    }

    pub fn written(mat: &Mat) -> BTreeSet<Field> {
        mat.actions().iter().flat_map(|a| a.writes()).collect()
    }

    pub fn action_read(mat: &Mat) -> BTreeSet<Field> {
        mat.actions().iter().flat_map(|a| a.reads()).collect()
    }

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Signature {
        match_specs: BTreeSet<MatchSpec>,
        actions: BTreeSet<Action>,
        capacity: usize,
    }

    pub fn signature(mat: &Mat) -> Signature {
        Signature {
            match_specs: mat.match_specs().iter().cloned().collect(),
            actions: mat.actions().iter().cloned().collect(),
            capacity: mat.capacity(),
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;
    use crate::action::{FoldOp, PrimitiveOp};
    use crate::fields::{headers, Field};
    use crate::synthetic::{SyntheticConfig, SyntheticGenerator};

    fn table() -> Mat {
        Mat::builder("t")
            .match_field(headers::ipv4_dst(), MatchKind::Lpm)
            .action(Action::writing("set", [Field::metadata("meta.idx", 4)]))
            .rule(Rule::new(["10.0.0.0/8"], "set"))
            .capacity(100)
            .resource(0.3)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_expected_sets() {
        let t = table();
        assert_eq!(t.match_fields().len(), 1);
        assert!(t.match_fields().contains(&headers::ipv4_dst()));
        assert!(t.written_fields().contains(&Field::metadata("meta.idx", 4)));
        assert_eq!(t.resource(), 0.3);
    }

    #[test]
    fn unknown_action_rejected() {
        let err = Mat::builder("t")
            .action(Action::new("a"))
            .rule(Rule::new(Vec::<String>::new(), "missing"))
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildMatError::UnknownAction { .. }));
    }

    #[test]
    fn capacity_overflow_rejected() {
        let err = Mat::builder("t")
            .action(Action::new("a"))
            .rule(Rule::new(Vec::<String>::new(), "a"))
            .rule(Rule::new(Vec::<String>::new(), "a"))
            .capacity(1)
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildMatError::CapacityExceeded { capacity: 1, .. }));
    }

    #[test]
    fn invalid_resource_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Mat::builder("t").resource(bad).build().unwrap_err();
            assert!(matches!(err, BuildMatError::InvalidResource { .. }), "{bad} accepted");
        }
    }

    #[test]
    fn default_resource_estimated_from_capacity_and_kind() {
        let exact = Mat::builder("e")
            .match_field(headers::ipv4_dst(), MatchKind::Exact)
            .capacity(2048)
            .build()
            .unwrap();
        let lpm = Mat::builder("l")
            .match_field(headers::ipv4_dst(), MatchKind::Lpm)
            .capacity(2048)
            .build()
            .unwrap();
        assert!(lpm.resource() > exact.resource());
        assert!((exact.resource() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn written_metadata_excludes_headers() {
        let t = Mat::builder("t")
            .action(Action::writing("w", [Field::metadata("meta.a", 4)]).with_op(
                crate::action::PrimitiveOp::Compute {
                    dst: headers::ipv4_ttl(),
                    srcs: vec![headers::ipv4_ttl()],
                },
            ))
            .build()
            .unwrap();
        assert_eq!(t.written_metadata_bytes(), 4);
        assert_eq!(t.written_fields().len(), 2);
    }

    #[test]
    fn signature_ignores_name_and_rules() {
        let a = Mat::builder("a")
            .match_field(headers::ipv4_dst(), MatchKind::Lpm)
            .action(Action::writing("set", [Field::metadata("meta.idx", 4)]))
            .capacity(64)
            .build()
            .unwrap();
        let b = Mat::builder("b")
            .match_field(headers::ipv4_dst(), MatchKind::Lpm)
            .action(Action::writing("set", [Field::metadata("meta.idx", 4)]))
            .rule(Rule::new(["0.0.0.0/0"], "set"))
            .capacity(64)
            .build()
            .unwrap();
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn signature_differs_on_structure() {
        let a = table();
        let b = Mat::builder("t")
            .match_field(headers::ipv4_src(), MatchKind::Lpm)
            .action(Action::writing("set", [Field::metadata("meta.idx", 4)]))
            .capacity(100)
            .build()
            .unwrap();
        assert_ne!(a.signature(), b.signature());
    }

    /// The cached sets equal the per-call derivations, member for member in
    /// iteration order, and so do the views built on them.
    fn assert_sets_are_their_definition(mat: &Mat) {
        let name = mat.name();
        let (matched, written, read) =
            (oracle::matched(mat), oracle::written(mat), oracle::action_read(mat));
        assert!(mat.match_fields().iter().eq(&matched), "{name}: F^m");
        assert!(mat.written_fields().iter().eq(&written), "{name}: F^a");
        assert!(mat.action_read_fields().iter().eq(&read), "{name}: action reads");
        assert!(mat.consumed_fields().eq(matched.union(&read)), "{name}: consumed");
        assert!(mat.written_metadata().eq(written.iter().filter(|f| f.is_metadata())), "{name}");
        assert_eq!(
            mat.written_metadata_bytes(),
            written.iter().map(Field::overhead_bytes).sum::<u32>(),
            "{name}"
        );
        for f in matched.iter().chain(&written).chain(&read) {
            assert_eq!(mat.consumes(f), matched.contains(f) || read.contains(f), "{name}: {f}");
        }
    }

    /// Every table of the library, the sketches, the aggregation programs,
    /// the 60-program `wan-50` pool and the audit fixture.
    fn corpus() -> Vec<Mat> {
        let mut programs = crate::library::real_programs();
        programs.extend(crate::library::sketches::all());
        programs.extend(crate::library::aggregation::all());
        programs.extend(SyntheticGenerator::new(50, SyntheticConfig::default()).programs(60));
        let fixture = include_str!("../../../tests/fixtures/audit_workload.p4dsl");
        programs.extend(crate::parser::parse_programs(fixture).unwrap());
        let mats: Vec<Mat> = programs.iter().flat_map(|p| p.tables()).cloned().collect();
        assert!(mats.len() > 400, "{} tables", mats.len());
        mats
    }

    /// A table as it reads back from its JSON form.
    fn round_trip(mat: &Mat) -> Mat {
        serde_json::from_str(&serde_json::to_string(mat).unwrap()).unwrap()
    }

    #[test]
    fn cached_sets_are_their_definition() {
        let mats = corpus();
        assert!(mats.iter().any(|m| m.match_fields().len() > 1 && m.written_fields().len() > 1));
        for mat in &mats {
            assert_sets_are_their_definition(mat);
            assert_sets_are_their_definition(&mat.clone());
            let back = round_trip(mat);
            assert_eq!(&back, mat);
            assert_sets_are_their_definition(&back);
        }
    }

    /// Over every ordered pair of tables, the cached signature is equal and
    /// ordered exactly as the `BTreeSet` one derived per call was — so the
    /// merge's signature groups, and the order it folds them in, are too —
    /// as built, cloned, and read back from JSON. Equal signatures hash
    /// to one word, so the merge's hashed groups are the oracle's too.
    #[test]
    fn cached_signature_compares_as_its_definition() {
        use std::hash::BuildHasher;
        let hash = |s: &MatSignature| crate::BuildFieldHasher::default().hash_one(s);
        let mats = corpus();
        let clones = mats.clone();
        let read_back: Vec<Mat> = mats.iter().map(round_trip).collect();
        for ((mat, clone), back) in mats.iter().zip(&clones).zip(&read_back) {
            assert!(clone.shares_body(mat), "{}: a clone is the same body", mat.name());
            assert!(!back.shares_body(mat) && back == mat, "{}: a rebuilt equal body", mat.name());
        }
        let oracles: Vec<_> = mats.iter().map(oracle::signature).collect();
        let mut equal_pairs = 0;
        for (i, oi) in oracles.iter().enumerate() {
            for (j, oj) in oracles.iter().enumerate() {
                let want = oi.cmp(oj);
                equal_pairs += usize::from(i != j && want.is_eq());
                for (a, b) in [(&mats, &mats), (&clones, &mats), (&read_back, &clones)] {
                    let (sa, sb) = (a[i].signature(), b[j].signature());
                    let (ni, nj) = (mats[i].name(), mats[j].name());
                    assert_eq!(sa.cmp(sb), want, "{ni} vs {nj}");
                    assert_eq!(sa == sb, want.is_eq(), "{ni} vs {nj}");
                    assert_eq!(sa == sb, hash(sa) == hash(sb) && want.is_eq(), "{ni} vs {nj}");
                    assert_eq!(hash(sa), sa.content_hash(), "{ni}: `Hash` writes the word");
                }
            }
        }
        assert!(equal_pairs > 100, "the corpus has redundant tables to merge: {equal_pairs}");
    }

    #[test]
    fn sets_are_sorted_and_duplicate_free_whatever_the_declaration_order() {
        let (a, b, c) =
            (Field::metadata("meta.a", 1), Field::metadata("meta.b", 2), headers::ipv4_ttl());
        let t = Mat::builder("t")
            .match_field(b.clone(), MatchKind::Exact)
            .match_field(a.clone(), MatchKind::Ternary)
            .match_field(b.clone(), MatchKind::Range)
            .action(Action::writing("w1", [b.clone(), a.clone()]))
            .action(Action::new("w2").with_op(PrimitiveOp::Fold {
                dst: a.clone(),
                srcs: vec![c.clone(), b.clone()],
                op: FoldOp::Add,
            }))
            .build()
            .unwrap();
        assert_eq!(t.match_fields(), [a.clone(), b.clone()]);
        assert_eq!(t.written_fields(), [a.clone(), b.clone()]);
        assert_eq!(t.action_read_fields(), [c.clone(), a.clone(), b.clone()]);
        assert!(t.consumed_fields().eq([&c, &a, &b]));
        assert_sets_are_their_definition(&t);
    }

    /// `table()` as the commit before the hand-written impls serialized it.
    const TABLE_JSON: &str = r#"{"name":"t","match_specs":[{"field":{"name":"ipv4.dst","kind":"Header","size_bytes":4},"kind":"Lpm"}],"actions":[{"name":"set","ops":[{"Compute":{"dst":{"name":"meta.idx","kind":"Metadata","size_bytes":4},"srcs":[]}}]}],"rules":[{"patterns":["10.0.0.0/8"],"action":"set","priority":0}],"capacity":100,"resource":0.3}"#;

    #[test]
    fn json_form_is_the_six_declared_properties() {
        assert_eq!(serde_json::to_string(&table()).unwrap(), TABLE_JSON);
        let back: Mat = serde_json::from_str(TABLE_JSON).unwrap();
        assert_eq!(back, table());
        assert_eq!(serde_json::to_string(&back).unwrap(), TABLE_JSON);
        let Value::Map(entries) = serde_json::to_value(&table()).unwrap() else {
            panic!("a table serializes as a map")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "match_specs", "actions", "rules", "capacity", "resource"]);
    }

    #[test]
    fn deserialization_makes_the_checks_the_builder_makes() {
        let malformed = [
            (r#""action":"set","priority""#, r#""action":"missing","priority""#, "unknown action"),
            (r#""capacity":100"#, r#""capacity":0"#, "exceed capacity 0"),
            (r#""resource":0.3"#, r#""resource":-0.3"#, "must be positive and finite"),
            (r#""resource":0.3"#, r#""resource":0"#, "must be positive and finite"),
            (r#""resource":0.3"#, r#""resource":"nan""#, "must be positive and finite"),
        ];
        for (from, to, complaint) in malformed {
            assert!(TABLE_JSON.contains(from));
            let err = serde_json::from_str::<Mat>(&TABLE_JSON.replace(from, to)).unwrap_err();
            assert!(err.to_string().contains(complaint), "{to}: {err}");
            assert!(err.to_string().contains("table `t`"), "{to}: {err}");
        }
    }
}
