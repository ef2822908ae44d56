//! Every byte the JSON writer emits, pinned.
//!
//! Journal frames and plan fingerprints are the JSON text of the types
//! they cover, so that text is a format: a changed byte changes a
//! journaled `plan_fp`, a CRC, or what `hermes recover` accepts (a TDG's
//! fingerprint is structural, `core::fingerprint`, and pinned there; the
//! journal records below carry its value). The `TxnBegun` and `Snapshot`
//! lines share one rendered plan, as a rollout's records do. Each line
//! below is one value's compact and two-space pretty rendering, as length
//! and FNV-1a digest: the serialized shapes the product writes at
//! `wan-50` scale (TDG, plan, artifacts, journal records, audit report,
//! event log) and the corner cases of every scalar and container impl
//! (escapes, multi-byte characters, non-finite floats, integer extremes,
//! map keys and their order). The fixture was written by the commit
//! before the serializer streamed into its sinks, so it pins the streaming
//! writer to the bytes the value-tree renderer gave. `REGEN_GOLDEN=1`
//! rewrites it.

use hermes::analysis::{audit_instance, state_report_of_tdg};
use hermes::backend::validate_plan;
use hermes::core::{
    fnv1a64, tdg_fingerprint, DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer,
};
use hermes::dataplane::library;
use hermes::dataplane::synthetic::{SyntheticConfig, SyntheticGenerator};
use hermes::net::{topology, Switch, SwitchId};
use hermes::runtime::{
    DeploymentRuntime, FaultInjector, FaultProfile, JournalRecord, RenderedPlan, RetryPolicy,
    TxnKind,
};
use hermes::tdg::AnalysisMode;
use serde::{Serialize, Value};
use std::collections::{BTreeMap, HashMap};

/// One fixture line: both renderings of `value`, as length and digest.
fn line<T: Serialize + ?Sized>(what: &str, value: &T) -> String {
    let compact = serde_json::to_string(value).expect("serializes");
    let pretty = serde_json::to_string_pretty(value).expect("serializes");
    format!(
        "{what}: compact {} bytes fnv1a64 {:016x}, pretty {} bytes fnv1a64 {:016x}\n",
        compact.len(),
        fnv1a64(compact.as_bytes()),
        pretty.len(),
        fnv1a64(pretty.as_bytes())
    )
}

/// The `wan-50` shapes: the library plus 40 synthetic programs merged into
/// one TDG, its greedy plan on `wan:3`, the plan's artifacts, the two
/// journal records that carry the plan, the audit report with its state
/// section, and the network.
fn wan_50_lines(dump: &mut String) {
    let mut programs = library::real_programs();
    programs.extend(SyntheticGenerator::new(50, SyntheticConfig::default()).programs(40));
    let tdg = ProgramAnalyzer::new().analyze(&programs);
    let net = topology::table3_wan(2);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("wan:3 fits wan-50");
    let (_, artifacts) = validate_plan(&tdg, &net, &plan, &eps, &[]);
    *dump += &line("wan-50 tdg", &tdg);
    *dump += &line("wan-50 greedy plan on wan:3", &plan);
    *dump += &line("wan-50 artifacts", &artifacts);
    let (tdg_fp, plan_fp) = (tdg_fingerprint(&tdg), plan.fingerprint());
    // One rendering serves both records, as in a rollout.
    let plan = RenderedPlan::new(plan);
    let begun = JournalRecord::TxnBegun {
        epoch: 7,
        kind: TxnKind::Deploy,
        tdg_fp,
        plan_fp,
        plan: plan.clone(),
    };
    *dump += &line("wan-50 TxnBegun", &begun);
    let snapshot = JournalRecord::Snapshot { epoch: 7, tdg_fp, plan_fp, plan, clock_us: 9 };
    *dump += &line("wan-50 Snapshot", &snapshot);
    let mut report = audit_instance(&programs, &net, &eps, AnalysisMode::PaperLiteral);
    *dump += &line("wan-50 audit report", &report);
    report.state = Some(state_report_of_tdg(&tdg));
    *dump += &line("wan-50 audit report with state", &report);
    *dump += &line("wan:3 network", &net);
}

/// A switch with neither optional field, with both, and with each alone.
fn switch_lines(dump: &mut String) {
    let mut budget_only = Switch::tofino("b");
    budget_only.total_budget = 6.5;
    let mut target_only = Switch::smartnic("t");
    target_only.total_budget = f64::INFINITY;
    for (what, sw) in [
        ("tofino switch", Switch::tofino("s0")),
        ("smartnic switch", Switch::smartnic("nic")),
        ("software switch", Switch::software("soft")),
        ("legacy switch", Switch::legacy("old")),
        ("switch with budget only", budget_only),
        ("switch with target only", target_only),
    ] {
        *dump += &line(what, &sw);
    }
}

/// The event log of one chaos rollout of the library on linear:4.
fn event_log_line(dump: &mut String) {
    let tdg = ProgramAnalyzer::new().analyze(&library::real_programs());
    let net = topology::linear(4, 10.0);
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &Epsilon::loose()).expect("deploys");
    let mut rt = DeploymentRuntime::new(
        net,
        Epsilon::loose(),
        FaultInjector::new(7, FaultProfile::chaos()),
        RetryPolicy::default(),
    );
    rt.rollout(&tdg, plan);
    *dump += &line("chaos rollout event log", rt.log());
}

fn scalar_lines(dump: &mut String) {
    let strings = [
        "",
        "plain ascii",
        "quote \" inside",
        "back\\slash",
        "\n\r\t\u{8}\u{c}",
        "\u{0}\u{1}\u{1f}\u{7f}",
        "é",
        "€",
        "𝄞",
        "aé€𝄞z \"é\" \\€\\ \n𝄞",
    ];
    for (i, s) in strings.iter().enumerate() {
        *dump += &line(&format!("string {i}"), *s);
    }
    let all_control: String = (0u8..0x30).map(char::from).collect();
    *dump += &line("string of every byte below 0x30", &all_control);
    *dump += &line("chars", &['a', '"', '\\', '\n', 'é', '€', '𝄞']);
    let floats = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1.0,
        0.1,
        -2.5,
        1e300,
        5e-324,
        f64::MAX,
        123_456_789.0,
        1e21,
        1e-7,
    ];
    for f in floats {
        *dump += &line(&format!("f64 {f:?}"), &f);
    }
    *dump += &line("f32 values", &[0.1f32, -3.5, f32::INFINITY, f32::NAN]);
    *dump += &line("i64::MIN", &i64::MIN);
    *dump += &line("i64::MAX", &i64::MAX);
    *dump += &line("u64::MAX", &u64::MAX);
    *dump += &line("small unsigned integers", &(0u8, u16::MAX, u32::MAX));
    *dump += &line("small signed integers", &(-1i8, i16::MIN, i32::MIN));
    *dump += &line("usize and isize", &(usize::MAX, isize::MIN));
    *dump += &line("bools", &[true, false]);
    *dump += &line("duration", &std::time::Duration::from_micros(1_500_250));
    *dump += &line("options", &(None::<u32>, Some(3u32), Some(None::<String>)));
}

fn container_lines(dump: &mut String) {
    *dump += &line("empty vec", &Vec::<u32>::new());
    *dump += &line("nested vecs", &vec![vec![], vec![1u32], vec![2, 3]]);
    *dump += &line("empty map", &BTreeMap::<String, u32>::new());
    *dump += &line("tuple", &(1u8, "x", 2.5f64, None::<u32>));
    let by_usize: BTreeMap<usize, Vec<f64>> =
        [(3, vec![1.0, 2.0]), (10, vec![]), (0, vec![f64::NAN])].into_iter().collect();
    *dump += &line("BTreeMap usize keys", &by_usize);
    let net = topology::linear(12, 10.0);
    let ids: Vec<SwitchId> = net.switch_ids().collect();
    let by_switch: BTreeMap<SwitchId, &str> =
        [(ids[11], "last"), (ids[0], "first"), (ids[2], "third")].into_iter().collect();
    *dump += &line("BTreeMap SwitchId keys", &by_switch);
    let by_string: BTreeMap<String, BTreeMap<String, i32>> = [
        ("b".to_owned(), [("x".to_owned(), -1)].into_iter().collect()),
        ("a \"quoted\" key".to_owned(), BTreeMap::new()),
        ("ключ\n".to_owned(), [("€".to_owned(), 2)].into_iter().collect()),
    ]
    .into_iter()
    .collect();
    *dump += &line("BTreeMap String keys", &by_string);
    let by_bool: BTreeMap<bool, u8> = [(true, 1), (false, 0)].into_iter().collect();
    *dump += &line("BTreeMap bool keys", &by_bool);
    let by_i64: BTreeMap<i64, u8> = [(-5, 1), (7, 2), (i64::MIN, 3)].into_iter().collect();
    *dump += &line("BTreeMap i64 keys", &by_i64);
    let hashed: HashMap<String, u32> =
        ["zeta", "alpha", "Beta", "\"q", "#h", "mid", "é", "10", "9"]
            .iter()
            .enumerate()
            .map(|(i, k)| ((*k).to_owned(), i as u32))
            .collect();
    *dump += &line("HashMap String keys (sorted by key)", &hashed);
    let hashed_ints: HashMap<u32, &str> =
        [(10, "ten"), (9, "nine"), (100, "hundred"), (1, "one")].into_iter().collect();
    *dump += &line("HashMap u32 keys (sorted as text)", &hashed_ints);
    let doc = Value::Map(vec![
        ("null".to_owned(), Value::Null),
        ("bool".to_owned(), Value::Bool(true)),
        ("int".to_owned(), Value::Int(-3)),
        ("uint".to_owned(), Value::UInt(4)),
        ("float".to_owned(), Value::Float(0.25)),
        ("nan".to_owned(), Value::Float(f64::NAN)),
        ("neg zero".to_owned(), Value::Float(-0.0)),
        ("str".to_owned(), Value::Str("s\"t".to_owned())),
        ("seq".to_owned(), Value::Seq(vec![Value::Seq(vec![]), Value::Map(vec![])])),
        ("dup".to_owned(), Value::UInt(1)),
        ("dup".to_owned(), Value::UInt(2)),
    ]);
    *dump += &line("Value document", &doc);
}

#[test]
fn every_serialized_byte_matches_the_golden_fixture() {
    let mut dump = String::new();
    wan_50_lines(&mut dump);
    switch_lines(&mut dump);
    event_log_line(&mut dump);
    scalar_lines(&mut dump);
    container_lines(&mut dump);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/serialization_golden.txt");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(path, &dump).expect("fixture is writable");
    }
    let fixture = std::fs::read_to_string(path).expect("run with REGEN_GOLDEN=1 to create");
    let first = dump.lines().zip(fixture.lines()).find(|(a, b)| a != b);
    assert!(
        dump == fixture,
        "serialized bytes drifted from tests/fixtures/serialization_golden.txt (first \
         difference: {first:?}); re-generate with REGEN_GOLDEN=1 only if the format change is \
         intentional"
    );
}
