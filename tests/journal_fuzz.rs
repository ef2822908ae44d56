//! Torn-write hardening for the write-ahead intent journal.
//!
//! The journal is the only thing a crashed controller gets back, so its
//! decoder must survive arbitrary damage: truncation at **every** byte
//! offset and a bit flip at **every** byte offset must either replay
//! cleanly (a torn tail is discarded, with the discarded length
//! reported) or fail with a typed [`JournalError`] — never a panic, and
//! never a silent misparse that folds corrupt bytes into intent. The
//! same holds for a frame that is intact but crafted: a payload nested
//! deeper than the JSON parser's limit.

use hermes::core::{DeploymentAlgorithm, Epsilon, GreedyHeuristic, ProgramAnalyzer};
use hermes::dataplane::library;
use hermes::net::topology;
use hermes::runtime::{
    replay_bytes, CrashPoint, CrashTiming, DeploymentRuntime, FaultInjector, FaultProfile,
    JournalError, RecoveredIntent, RetryPolicy, RolloutOutcome,
};
use proptest::prelude::*;

/// A realistic journal: a committed deploy, a second rollout crashed
/// mid-protocol and recovered (whose reinstall snapshot compacts the image
/// to that snapshot + the recovery record), then a third rollout crashed
/// mid-protocol (in-flight txn records). Built once — the scenario is
/// deterministic.
fn rich_journal() -> &'static [u8] {
    static JOURNAL: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    JOURNAL.get_or_init(build_journal)
}

fn build_journal() -> Vec<u8> {
    // Two library programs on a small topology keep the journal a few KB
    // so the every-byte sweeps below stay exhaustive AND affordable.
    let programs = library::real_programs();
    let tdg = ProgramAnalyzer::new().analyze(&programs[..2.min(programs.len())]);
    let net = topology::linear(3, 10.0);
    let eps = Epsilon::loose();
    let plan = GreedyHeuristic::new().deploy(&tdg, &net, &eps).expect("healthy topology deploys");
    let mut rt = DeploymentRuntime::new(
        net,
        eps,
        FaultInjector::new(0, FaultProfile::none()),
        RetryPolicy::default(),
    );
    assert!(rt.rollout(&tdg, plan.clone()).is_committed());
    // Each crash strikes just before the commit decision lands: a
    // crash-free dry run on a copy counts the rollout's boundaries, and a
    // crash armed at each in turn, on another copy, names its record.
    let crash_mid_rollout = |rt: &mut DeploymentRuntime| {
        let mut dry = rt.clone();
        let start = dry.injector().journal_writes();
        assert!(dry.rollout(&tdg, plan.clone()).is_committed());
        let decision = (0..dry.injector().journal_writes() - start)
            .find(|&nth| {
                let mut probe = rt.clone();
                probe.injector_mut().arm_controller_crash_at(nth, CrashTiming::BeforeWrite);
                matches!(
                    probe.rollout(&tdg, plan.clone()),
                    RolloutOutcome::ControllerCrashed { point: CrashPoint::CommitDecision, .. }
                )
            })
            .expect("a rollout journals a commit decision");
        rt.injector_mut().arm_controller_crash_at(decision, CrashTiming::BeforeWrite);
        let outcome = rt.rollout(&tdg, plan.clone());
        assert!(matches!(outcome, RolloutOutcome::ControllerCrashed { .. }));
    };
    crash_mid_rollout(&mut rt);
    rt.recover(&tdg).expect("recovery over an intact journal succeeds");
    crash_mid_rollout(&mut rt);
    rt.journal().bytes().to_vec()
}

/// Decoding must be total: whatever `bytes` holds, `replay_bytes` either
/// returns a replay (whose records then fold into intent without
/// panicking) or a typed error. Returns `Ok(records)` for inspection.
fn decode_is_total(bytes: &[u8]) -> Option<usize> {
    let outcome = std::panic::catch_unwind(|| match replay_bytes(bytes) {
        Ok(replay) => {
            // Folding damaged-but-framed records must not panic either.
            let intent = RecoveredIntent::from_replay(&replay);
            intent.planned_action();
            Some(replay.records.len())
        }
        Err(_) => None,
    });
    match outcome {
        Ok(records) => records,
        Err(_) => panic!("journal decoding panicked"),
    }
}

#[test]
fn truncation_at_every_byte_offset_is_a_typed_outcome() {
    let bytes = rich_journal();
    let full = decode_is_total(bytes).expect("the intact journal replays");
    assert!(full > 0, "the scenario must journal something");
    let mut torn_tails = 0usize;
    for cut in 0..bytes.len() {
        match decode_is_total(&bytes[..cut]) {
            // A prefix can only ever hold a prefix of the intent; the
            // lost suffix is a torn tail, not invented records.
            Some(records) => {
                assert!(
                    records <= full,
                    "cut at {cut}: {records} records from a prefix of a {full}-record journal"
                );
                torn_tails += 1;
            }
            // Cuts inside the 8-byte header (or a corrupted compaction
            // base) are typed errors.
            None => assert!(cut < bytes.len(), "cut at {cut} errored but shorter cuts replayed"),
        }
    }
    assert!(torn_tails > 0, "some truncations must replay as torn tails");
}

#[test]
fn bit_flip_at_every_byte_offset_is_a_typed_outcome() {
    let bytes = rich_journal();
    let full = decode_is_total(bytes).expect("the intact journal replays");
    for (i, _) in bytes.iter().enumerate() {
        for bit in [0x01u8, 0x80u8] {
            let mut damaged = bytes.to_vec();
            damaged[i] ^= bit;
            if let Some(records) = decode_is_total(&damaged) {
                // The CRC can only miss if the flip landed in a frame the
                // decoder then discards as a torn tail — the surviving
                // record count never exceeds the original.
                assert!(
                    records <= full,
                    "flip at byte {i}: {records} records out of a {full}-record journal"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random compound damage — truncate, then flip several bytes —
    /// still yields a typed outcome, never a panic.
    #[test]
    fn compound_damage_never_panics(
        cut_frac in 0.0f64..1.0,
        flips in proptest::collection::vec((0usize..4096, 1u8..=255), 0..8)
    ) {
        let bytes = rich_journal();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut damaged = bytes[..cut.min(bytes.len())].to_vec();
        for (offset, mask) in flips {
            if !damaged.is_empty() {
                let at = offset % damaged.len();
                damaged[at] ^= mask;
            }
        }
        decode_is_total(&damaged);
    }
}

/// CRC32 (IEEE 802.3, reflected), bit by bit: a reference independent of
/// the journal's table-driven one, for framing hand-made payloads.
fn reference_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// `payload` framed as the journal frames a record: magic, length, CRC.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![0xA7, 0x4A];
    frame.extend((payload.len() as u32).to_le_bytes());
    frame.extend(reference_crc32(payload).to_le_bytes());
    frame.extend(payload);
    frame
}

/// A frame with a valid CRC whose payload opens a million arrays: the
/// parser stops at its nesting limit instead of overflowing the stack, so
/// the frame alone is a torn tail and, with an intact frame after it,
/// typed mid-log corruption.
#[test]
fn a_payload_nested_a_million_deep_is_a_typed_outcome() {
    let header = &rich_journal()[..8];
    let deep = frame(&vec![b'['; 1_000_000]);
    let lone = [header, &deep].concat();
    assert_eq!(decode_is_total(&lone), Some(0));
    let replay = replay_bytes(&lone).expect("a lone undecodable frame is a torn tail");
    assert_eq!(replay.discarded_tail_bytes, deep.len());

    let intact = frame(br#"{"EpochAdvanced":{"epoch":1}}"#);
    let followed = [header, &deep, &intact].concat();
    match replay_bytes(&followed) {
        Err(JournalError::CorruptFrame { offset: 8, next_intact, detail }) => {
            assert_eq!(next_intact, 8 + deep.len());
            assert!(detail.contains("nesting deeper than 128 levels"), "{detail}");
        }
        other => panic!("expected mid-log corruption, got {other:?}"),
    }
}
