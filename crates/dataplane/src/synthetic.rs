//! Seeded generator for synthetic data plane programs.
//!
//! Follows the paper's evaluation settings (§VI-A): each synthetic program
//! has 10–20 MATs, each MAT's normalized per-stage resource consumption is
//! uniform in \[10 %, 50 %\], and every ordered pair of MATs carries a
//! dependency with probability 30 %. Dependencies are realized as metadata
//! fields written by the upstream MAT and matched by the downstream MAT, so
//! the TDG inference recovers exactly the generated dependency structure.

// The crate-level clippy.toml bans unwrap/expect so that parsing and
// deserializing can never panic; the generator keeps its `expect`s on
// tables it builds valid by construction.
#![allow(clippy::disallowed_methods)]

use crate::action::Action;
use crate::fields::{headers, Field};
use crate::mat::{Mat, MatchKind};
use crate::program::Program;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for the synthetic program generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Inclusive range of MATs per program. Paper: `10..=20`.
    pub tables_min: usize,
    /// Inclusive upper bound of MATs per program.
    pub tables_max: usize,
    /// Probability that an ordered MAT pair is dependent. Paper: `0.3`.
    pub dependency_probability: f64,
    /// Inclusive range of the per-stage resource fraction. Paper: `0.1..=0.5`.
    pub resource_min: f64,
    /// Inclusive upper bound of the resource fraction.
    pub resource_max: f64,
    /// Candidate metadata sizes (bytes) for generated dependency fields,
    /// drawn uniformly. Defaults to the Table-I sizes.
    pub metadata_sizes: Vec<u32>,
    /// Probability that a program starts with the shared 5-tuple hash MAT
    /// (the cross-program redundancy §IV motivates with software-defined
    /// measurement). Its first own table then consumes the hash index, so
    /// merged deployments see realistic cross-program dependencies.
    pub shared_hash_probability: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            tables_min: 10,
            tables_max: 20,
            dependency_probability: 0.3,
            resource_min: 0.1,
            resource_max: 0.5,
            metadata_sizes: vec![4, 6, 12, 4, 2, 1],
            shared_hash_probability: 0.5,
        }
    }
}

impl SyntheticConfig {
    fn validate(&self) {
        assert!(self.tables_min >= 1 && self.tables_min <= self.tables_max, "bad table range");
        assert!(
            (0.0..=1.0).contains(&self.dependency_probability),
            "dependency probability must be in [0, 1]"
        );
        assert!(
            self.resource_min > 0.0 && self.resource_min <= self.resource_max,
            "bad resource range"
        );
        assert!(!self.metadata_sizes.is_empty(), "need at least one metadata size");
        assert!(
            (0.0..=1.0).contains(&self.shared_hash_probability),
            "shared-hash probability must be in [0, 1]"
        );
    }
}

/// Deterministic synthetic program generator.
///
/// The same `(seed, config)` always yields the same sequence of programs,
/// which keeps every experiment reproducible run-to-run.
///
/// # Examples
///
/// ```
/// use hermes_dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
///
/// let mut generator = SyntheticGenerator::new(7, SyntheticConfig::default());
/// let programs = generator.programs(40);
/// assert_eq!(programs.len(), 40);
/// for p in &programs {
///     // 10–20 own tables, plus possibly the shared `hash_5tuple` MAT.
///     let own = p.tables().iter().filter(|t| t.name() != "hash_5tuple").count();
///     assert!((10..=20).contains(&own));
/// }
/// ```
#[derive(Debug)]
pub struct SyntheticGenerator {
    rng: StdRng,
    config: SyntheticConfig,
    next_id: usize,
}

impl SyntheticGenerator {
    /// Creates a generator with the given seed and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (empty ranges, a
    /// probability outside `[0, 1]`, or no metadata sizes).
    pub fn new(seed: u64, config: SyntheticConfig) -> Self {
        config.validate();
        SyntheticGenerator { rng: StdRng::seed_from_u64(seed), config, next_id: 0 }
    }

    /// Generates the next synthetic program.
    #[allow(clippy::needless_range_loop)] // paired (i, j) MAT indices drive the dependency draws
    pub fn next_program(&mut self) -> Program {
        let id = self.next_id;
        self.next_id += 1;
        let name = format!("syn{id:03}");
        let n = self.rng.random_range(self.config.tables_min..=self.config.tables_max);

        // Decide the dependency pairs first, then materialize fields.
        let mut writes: Vec<Vec<Field>> = vec![Vec::new(); n];
        let mut matches: Vec<Vec<Field>> = vec![Vec::new(); n];
        for i in 0..n {
            for j in (i + 1)..n {
                if self.rng.random_bool(self.config.dependency_probability) {
                    let size_idx = self.rng.random_range(0..self.config.metadata_sizes.len());
                    let size = self.config.metadata_sizes[size_idx];
                    let field = Field::metadata(format!("meta.{name}_d{i}_{j}"), size);
                    writes[i].push(field.clone());
                    matches[j].push(field);
                }
            }
        }

        let mut builder = Program::builder(name.clone());
        let uses_shared_hash = self.rng.random_bool(self.config.shared_hash_probability);
        if uses_shared_hash {
            builder = builder.table(crate::library::hash_5tuple_mat());
        }
        for (i, (written, matched)) in writes.into_iter().zip(matches).enumerate() {
            let resource =
                self.rng.random_range(self.config.resource_min..=self.config.resource_max);
            let mut mat = Mat::builder(format!("{name}_t{i}"))
                // Every table also matches a header field, like real tables do.
                .match_field(headers::ipv4_dst(), MatchKind::Exact)
                .resource(resource)
                .capacity(1024);
            if i == 0 && uses_shared_hash {
                // The program's entry table consumes the shared hash index.
                mat = mat.match_field(Field::metadata("meta.hash_idx", 4), MatchKind::Exact);
            }
            for f in matched {
                mat = mat.match_field(f, MatchKind::Exact);
            }
            mat = mat.action(Action::writing("act", written));
            builder = builder.table(expect(mat.build()));
        }
        builder.build().expect("generated program is structurally valid")
    }

    /// Generates `count` programs.
    pub fn programs(&mut self, count: usize) -> Vec<Program> {
        (0..count).map(|_| self.next_program()).collect()
    }
}

fn expect(mat: Result<Mat, crate::mat::BuildMatError>) -> Mat {
    mat.expect("synthetic tables are structurally valid")
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SyntheticGenerator::new(42, SyntheticConfig::default());
        let mut b = SyntheticGenerator::new(42, SyntheticConfig::default());
        assert_eq!(a.programs(5), b.programs(5));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SyntheticGenerator::new(1, SyntheticConfig::default());
        let mut b = SyntheticGenerator::new(2, SyntheticConfig::default());
        assert_ne!(a.programs(3), b.programs(3));
    }

    #[test]
    fn respects_configured_ranges() {
        let mut generator = SyntheticGenerator::new(9, SyntheticConfig::default());
        for p in generator.programs(20) {
            let own: Vec<_> = p.tables().iter().filter(|t| t.name() != "hash_5tuple").collect();
            assert!((10..=20).contains(&own.len()));
            for t in own {
                assert!((0.1..=0.5).contains(&t.resource()), "resource {}", t.resource());
            }
        }
    }

    #[test]
    fn shared_hash_appears_with_configured_probability() {
        let mut generator = SyntheticGenerator::new(5, SyntheticConfig::default());
        let programs = generator.programs(100);
        let with_hash = programs.iter().filter(|p| p.table("hash_5tuple").is_some()).count();
        assert!((35..=65).contains(&with_hash), "{with_hash}/100 share the hash");
        // The entry table of sharing programs consumes the index.
        let sharer = programs.iter().find(|p| p.table("hash_5tuple").is_some()).unwrap();
        let entry = &sharer.tables()[1];
        assert!(entry.match_fields().iter().any(|f| f.name() == "meta.hash_idx"));
    }

    #[test]
    fn dependency_density_near_configured_probability() {
        let mut generator = SyntheticGenerator::new(11, SyntheticConfig::default());
        let mut dependent = 0usize;
        let mut pairs = 0usize;
        for p in generator.programs(50) {
            let tables = p.tables();
            for i in 0..tables.len() {
                for j in (i + 1)..tables.len() {
                    pairs += 1;
                    let w = tables[i].written_fields();
                    if tables[j].match_fields().iter().any(|f| w.contains(f)) {
                        dependent += 1;
                    }
                }
            }
        }
        let density = dependent as f64 / pairs as f64;
        assert!((0.25..=0.35).contains(&density), "density {density}");
    }

    #[test]
    fn program_names_are_unique_and_sequential() {
        let mut generator = SyntheticGenerator::new(3, SyntheticConfig::default());
        let programs = generator.programs(3);
        assert_eq!(programs[0].name(), "syn000");
        assert_eq!(programs[2].name(), "syn002");
    }

    #[test]
    #[should_panic(expected = "dependency probability")]
    fn invalid_probability_panics() {
        let config = SyntheticConfig { dependency_probability: 1.5, ..Default::default() };
        let _ = SyntheticGenerator::new(0, config);
    }
}
