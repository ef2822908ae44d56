//! The controller's durable write-ahead intent journal.
//!
//! Every decision the controller makes — epoch advances, a transaction's
//! or migration's intent, its commit, abort or rollback decision and its
//! conclusion, activation snapshots — is appended here as a
//! [`JournalRecord`] *before* it takes effect (write-ahead discipline).
//! After a controller crash, [`crate::recovery`] replays the journal to
//! rebuild the intended state and reconciles it against the live agents.
//!
//! # On-disk format
//!
//! ```text
//! header : JOURNAL_MAGIC (4) | format version u16 LE | reserved u16
//! frame  : FRAME_MAGIC (2) | payload len u32 LE | CRC32 u32 LE | payload
//! ```
//!
//! The payload is the canonical JSON serialization of one
//! [`JournalRecord`]; the CRC32 (IEEE) covers the payload bytes. The
//! format is deliberately append-only and self-framing so a crash mid
//! write leaves at worst a torn final frame.
//!
//! # Corruption semantics
//!
//! [`replay_bytes`] distinguishes two failure shapes:
//!
//! - **Torn tail** — the undecodable region extends to the end of the
//!   journal with no intact frame after it. This is what a crash during
//!   an append produces; the tail is discarded (reported via
//!   [`Replay::discarded_tail_bytes`]) and replay succeeds with every
//!   record that landed before it.
//! - **Mid-log corruption** — an intact frame exists *after* the
//!   undecodable region, so the damage cannot be a torn append. Replay
//!   fails with a typed [`JournalError::CorruptFrame`]; silently skipping
//!   records would let recovery act on a rewritten history.
//!
//! Headers with the wrong magic or an unsupported format version fail
//! with their own typed errors. Nothing on this path panics (enforced by
//! the crate's `clippy.toml` unwrap/expect ban).
//!
//! # What is journaled
//!
//! Only what recovery cannot re-derive. A record that carries a plan
//! carries its fingerprints with it, but never the per-switch configs:
//! those are a pure function of the TDG and the plan
//! ([`hermes_backend::generate`]), and recovery, which must be handed the
//! TDG anyway, regenerates them for the one plan it restores.
//!
//! Nor are per-switch acknowledgements or leases: recovery decides from
//! the coordinator's decisions alone (presumed abort), waits out every
//! lease by time and probes every agent, so a prepare or commit ack, a
//! lease grant or a migration step checkpoint would change nothing it
//! does.
//!
//! # Compaction
//!
//! Every [`JournalRecord::Snapshot`] is a self-contained restart point, so
//! appending one drops everything before it: the image is always the
//! header, the latest snapshot and what followed it. One fact of the
//! dropped history is kept: the highest epoch ever journaled. A snapshot
//! can be older than the epochs before it (the out-of-band restore
//! journals the *previous* deployment after an epoch was spent), and
//! recovery's fresh epoch is `max(journaled) + 1`, so when the dropped
//! records held a higher epoch than the snapshot, one
//! [`JournalRecord::EpochAdvanced`] carrying it is written in front of the
//! snapshot.

use hermes_core::DeploymentPlan;
use hermes_net::SwitchId;
use serde::{Deserialize, Serialize, Serializer, Value};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// File magic: the first four bytes of every journal.
pub const JOURNAL_MAGIC: [u8; 4] = *b"HJL1";

/// Version of the journal byte format (header + framing + record schema).
///
/// History: 1 — original format (PR 7).
/// 2 — `TxnBegun`, `Snapshot` and `MigrationBegun` carry no per-switch
/// configs; every snapshot compacts.
/// 3 — no per-switch acknowledgement or lease records (`Prepared`,
/// `CommitAcked`, `LeaseGranted`, `MigrationStepCommitted`).
/// 4 — `tdg_fp` is the structural TDG fingerprint, not FNV-1a over the
/// TDG's JSON; frames are otherwise as in 3.
pub const JOURNAL_FORMAT_VERSION: u16 = 4;

/// Per-frame magic, chosen to be invalid UTF-8 so it cannot collide with
/// JSON payload bytes.
const FRAME_MAGIC: [u8; 2] = [0xA7, 0x4A];

/// Header: magic (4) + version u16 LE + reserved u16.
const HEADER_LEN: usize = 8;

/// Frame header: magic (2) + payload length u32 LE + CRC32 u32 LE.
const FRAME_HEADER_LEN: usize = 2 + 4 + 4;

/// An upper bound on a sane payload; a length field beyond this is
/// corruption, not a large record.
const MAX_PAYLOAD_LEN: usize = 64 * 1024 * 1024;

/// The CRC of every byte value under the reflected IEEE 802.3 polynomial,
/// computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE 802.3, reflected) over `bytes`, a byte per table lookup.
/// Guarantees detection of any single-bit error in the covered payload.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| CRC_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8))
}

/// Where in the protocol a journal write (and therefore a potential
/// controller crash) sits. Every [`JournalRecord`] maps to exactly one
/// crash point; the fault injector can strike at any of them. A crash
/// between two writes (mid-prepare, between commits, between migration
/// steps) leaves the same journal as an `AfterWrite` crash at the write
/// before it; only the agents differ, and recovery probes them and
/// reinstalls under a fresh epoch either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CrashPoint {
    /// Advancing the controller epoch counter.
    EpochAdvance,
    /// Recording a transaction's intent (the plan) before the first
    /// prepare.
    TxnBegin,
    /// The point of no return: the decision to start committing.
    CommitDecision,
    /// Recording that the whole transaction committed.
    TxnCommit,
    /// Recording a pre-commit abort.
    TxnAbort,
    /// Writing an activation snapshot (or the cleared-state marker).
    Snapshot,
    /// Recording a migration's intent (target plan + commit order).
    MigrationBegin,
    /// Recording the decision to roll a migration back.
    MigrationRollback,
    /// Recording that every migration step committed.
    MigrationEnd,
    /// Recording recovery progress (only reachable with crash injection
    /// disarmed; recovery assumes the single-fault model).
    Recovery,
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrashPoint::EpochAdvance => "epoch-advance",
            CrashPoint::TxnBegin => "txn-begin",
            CrashPoint::CommitDecision => "commit-decision",
            CrashPoint::TxnCommit => "txn-commit",
            CrashPoint::TxnAbort => "txn-abort",
            CrashPoint::Snapshot => "snapshot",
            CrashPoint::MigrationBegin => "migration-begin",
            CrashPoint::MigrationRollback => "migration-rollback",
            CrashPoint::MigrationEnd => "migration-end",
            CrashPoint::Recovery => "recovery",
        })
    }
}

/// Whether an injected controller crash strikes before or after the
/// journal record lands. Before-write crashes lose the record (the
/// transition never happened, durably speaking); after-write crashes
/// persist intent the controller never got to act on. Recovery must be
/// correct either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashTiming {
    /// The crash strikes with the record unwritten.
    BeforeWrite,
    /// The crash strikes with the record durable.
    AfterWrite,
}

/// What kind of transaction a [`JournalRecord::TxnBegun`] opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnKind {
    /// An operator-initiated rollout of a new plan.
    Deploy,
    /// A healing transaction re-homing MATs lost to down switches.
    Heal,
    /// A reinstall driven by post-crash recovery.
    Recovery,
}

impl fmt::Display for TxnKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxnKind::Deploy => "deploy",
            TxnKind::Heal => "heal",
            TxnKind::Recovery => "recovery",
        })
    }
}

/// A plan as the journal writes it: the plan and its canonical JSON,
/// rendered at most once and shared by every clone. Every record of one
/// deployment — its `TxnBegun` or `MigrationBegun`, each `Snapshot` of it
/// — writes these same bytes, and the plan's fingerprint is their FNV-1a,
/// the value [`DeploymentPlan::fingerprint`] streams.
///
/// A plan built by the runtime is rendered when it is made; one read back
/// from a journal only when it is written or fingerprinted again.
/// Compares, prints and serializes as the plan it holds.
#[derive(Clone)]
pub struct RenderedPlan(Arc<Rendered>);

struct Rendered {
    plan: DeploymentPlan,
    rendering: OnceLock<Rendering>,
}

/// A plan's compact JSON and the FNV-1a of it.
struct Rendering {
    /// `None` if the plan failed to serialize, which a plan cannot (its
    /// map keys are strings); the journal then writes the plan itself.
    json: Option<String>,
    fingerprint: u64,
}

impl RenderedPlan {
    /// Takes `plan` and renders it.
    pub fn new(plan: DeploymentPlan) -> Self {
        let rendered = RenderedPlan::unrendered(plan);
        rendered.rendering();
        rendered
    }

    fn unrendered(plan: DeploymentPlan) -> Self {
        RenderedPlan(Arc::new(Rendered { plan, rendering: OnceLock::new() }))
    }

    /// The plan.
    pub fn plan(&self) -> &DeploymentPlan {
        &self.0.plan
    }

    /// FNV-1a over the plan's canonical JSON: equal to
    /// [`DeploymentPlan::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.rendering().fingerprint
    }

    fn rendering(&self) -> &Rendering {
        let plan = self.plan();
        self.0.rendering.get_or_init(|| match serde_json::to_string(plan) {
            Ok(json) => {
                Rendering { fingerprint: hermes_core::fnv1a64(json.as_bytes()), json: Some(json) }
            }
            Err(_) => Rendering { fingerprint: plan.fingerprint(), json: None },
        })
    }
}

impl Deref for RenderedPlan {
    type Target = DeploymentPlan;

    fn deref(&self) -> &DeploymentPlan {
        self.plan()
    }
}

impl PartialEq for RenderedPlan {
    fn eq(&self, other: &Self) -> bool {
        self.plan() == other.plan()
    }
}

impl fmt::Debug for RenderedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.plan().fmt(f)
    }
}

/// The held rendering, written as it is; a pretty writer renders the plan.
impl Serialize for RenderedPlan {
    fn serialize<W: serde::Write>(&self, s: &mut Serializer<W>) -> Result<(), serde::Error> {
        match &self.rendering().json {
            Some(json) => s.write_rendered(self.plan(), json),
            None => self.plan().serialize(s),
        }
    }
}

impl Deserialize for RenderedPlan {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(RenderedPlan::unrendered(DeploymentPlan::from_value(v)?))
    }
}

/// One durable state transition. Records carry everything recovery needs
/// to rebuild intent without the controller's memory and nothing it can
/// re-derive: transaction, migration and snapshot records embed the plan
/// and its fingerprints, and recovery regenerates the per-switch configs
/// from the plan and the TDG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The controller is about to start using `epoch` (write-ahead: the
    /// in-memory counter advances only after this lands).
    EpochAdvanced {
        /// The epoch about to be used.
        epoch: u64,
    },
    /// A two-phase transaction is about to start preparing.
    TxnBegun {
        /// The transaction epoch.
        epoch: u64,
        /// What initiated the transaction.
        kind: TxnKind,
        /// Fingerprint of the TDG the plan was validated against.
        tdg_fp: u64,
        /// Fingerprint of `plan`.
        plan_fp: u64,
        /// The target plan.
        plan: RenderedPlan,
    },
    /// The point of no return: every switch prepared, validation and the
    /// mixed-epoch gate passed, commits are about to be sent in `order`.
    CommitDecided {
        /// The transaction epoch.
        epoch: u64,
        /// The commit order.
        order: Vec<SwitchId>,
    },
    /// The whole transaction committed (leases swept; `dead` lists
    /// switches declared down during the commit window).
    TxnCommitted {
        /// The committed epoch.
        epoch: u64,
        /// Switches lost during the commit window.
        dead: Vec<SwitchId>,
    },
    /// The transaction aborted before any commit was sent.
    TxnAborted {
        /// The abandoned epoch.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// The active deployment after an activation — a self-contained
    /// restart point (appending one drops everything before it).
    Snapshot {
        /// The active epoch.
        epoch: u64,
        /// Fingerprint of the TDG.
        tdg_fp: u64,
        /// Fingerprint of `plan`.
        plan_fp: u64,
        /// The active plan.
        plan: RenderedPlan,
        /// Virtual time of the activation.
        clock_us: u64,
    },
    /// The controller deliberately has no active deployment (a rollback
    /// with nothing to restore).
    Cleared {
        /// The epoch that was abandoned when state was cleared.
        epoch: u64,
    },
    /// A staged migration passed its gate and is about to execute.
    MigrationBegun {
        /// The migration epoch.
        epoch: u64,
        /// Fingerprint of the TDG.
        tdg_fp: u64,
        /// Fingerprint of the target plan.
        plan_fp: u64,
        /// The target plan.
        plan: RenderedPlan,
        /// The scheduled commit order.
        order: Vec<SwitchId>,
    },
    /// The controller decided to roll the migration back.
    MigrationRolledBack {
        /// The abandoned migration epoch.
        epoch: u64,
        /// `true` when the out-of-band full restore was chosen over
        /// stepwise undo.
        forced: bool,
    },
    /// Every migration step committed; activation follows.
    MigrationCompleted {
        /// The migrated epoch.
        epoch: u64,
        /// Steps executed.
        steps: usize,
    },
    /// Post-crash recovery started replaying this journal.
    RecoveryBegun {
        /// The fresh epoch recovery will reinstall under.
        epoch: u64,
    },
    /// Recovery finished; the journal is consistent again.
    RecoveryCompleted {
        /// The epoch now serving.
        epoch: u64,
        /// Rendered [`crate::recovery::RecoveryAction`].
        action: String,
    },
}

impl JournalRecord {
    /// The crash point a write of this record represents.
    pub fn crash_point(&self) -> CrashPoint {
        match self {
            JournalRecord::EpochAdvanced { .. } => CrashPoint::EpochAdvance,
            JournalRecord::TxnBegun { .. } => CrashPoint::TxnBegin,
            JournalRecord::CommitDecided { .. } => CrashPoint::CommitDecision,
            JournalRecord::TxnCommitted { .. } => CrashPoint::TxnCommit,
            JournalRecord::TxnAborted { .. } => CrashPoint::TxnAbort,
            JournalRecord::Snapshot { .. } | JournalRecord::Cleared { .. } => CrashPoint::Snapshot,
            JournalRecord::MigrationBegun { .. } => CrashPoint::MigrationBegin,
            JournalRecord::MigrationRolledBack { .. } => CrashPoint::MigrationRollback,
            JournalRecord::MigrationCompleted { .. } => CrashPoint::MigrationEnd,
            JournalRecord::RecoveryBegun { .. } | JournalRecord::RecoveryCompleted { .. } => {
                CrashPoint::Recovery
            }
        }
    }

    /// The epoch the record belongs to.
    pub fn epoch(&self) -> u64 {
        match self {
            JournalRecord::EpochAdvanced { epoch }
            | JournalRecord::TxnBegun { epoch, .. }
            | JournalRecord::CommitDecided { epoch, .. }
            | JournalRecord::TxnCommitted { epoch, .. }
            | JournalRecord::TxnAborted { epoch, .. }
            | JournalRecord::Snapshot { epoch, .. }
            | JournalRecord::Cleared { epoch }
            | JournalRecord::MigrationBegun { epoch, .. }
            | JournalRecord::MigrationRolledBack { epoch, .. }
            | JournalRecord::MigrationCompleted { epoch, .. }
            | JournalRecord::RecoveryBegun { epoch }
            | JournalRecord::RecoveryCompleted { epoch, .. } => *epoch,
        }
    }
}

/// Typed replay failure. Recovery either succeeds (possibly discarding a
/// torn tail) or fails with one of these — never a panic, never a
/// silently misparsed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The journal is shorter than its fixed header.
    TooShort {
        /// Bytes present.
        len: usize,
    },
    /// The header magic is not [`JOURNAL_MAGIC`] — this is not a journal
    /// (or its header was damaged).
    BadMagic {
        /// The four bytes found.
        found: [u8; 4],
    },
    /// The header declares a format this code does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u16,
        /// The version supported ([`JOURNAL_FORMAT_VERSION`]).
        supported: u16,
    },
    /// A frame in the *middle* of the journal is undecodable while an
    /// intact frame exists after it: mid-log corruption, not a torn
    /// append. Replaying past it would rewrite history.
    CorruptFrame {
        /// Byte offset of the undecodable frame.
        offset: usize,
        /// Byte offset of the next intact frame (the proof this is not a
        /// tail).
        next_intact: usize,
        /// What failed to decode.
        detail: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::TooShort { len } => {
                write!(f, "journal too short: {len} bytes, header needs {HEADER_LEN}")
            }
            JournalError::BadMagic { found } => {
                write!(f, "bad journal magic {found:02x?} (expected {JOURNAL_MAGIC:02x?})")
            }
            JournalError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported journal format version {found} (supported: {supported})")
            }
            JournalError::CorruptFrame { offset, next_intact, detail } => write!(
                f,
                "corrupt journal frame at byte {offset} ({detail}); an intact frame at byte \
                 {next_intact} proves this is not a torn tail"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// The result of a successful replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail discarded (0 for a cleanly closed journal).
    pub discarded_tail_bytes: usize,
}

/// Decodes one frame at `off`. `Ok((record, next_off))` or a rendered
/// reason why the bytes at `off` are not an intact frame.
fn decode_frame(bytes: &[u8], off: usize) -> Result<(JournalRecord, usize), String> {
    let remaining = bytes.len() - off;
    if remaining < FRAME_HEADER_LEN {
        return Err(format!("{remaining} bytes left, frame header needs {FRAME_HEADER_LEN}"));
    }
    if bytes[off..off + 2] != FRAME_MAGIC {
        return Err(format!(
            "frame magic mismatch: {:02x?} (expected {FRAME_MAGIC:02x?})",
            &bytes[off..off + 2]
        ));
    }
    let len = u32::from_le_bytes([bytes[off + 2], bytes[off + 3], bytes[off + 4], bytes[off + 5]])
        as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(format!("declared payload length {len} exceeds the {MAX_PAYLOAD_LEN} cap"));
    }
    if remaining < FRAME_HEADER_LEN + len {
        return Err(format!(
            "declared payload length {len} overruns the journal ({} bytes left)",
            remaining - FRAME_HEADER_LEN
        ));
    }
    let stored_crc =
        u32::from_le_bytes([bytes[off + 6], bytes[off + 7], bytes[off + 8], bytes[off + 9]]);
    let payload = &bytes[off + FRAME_HEADER_LEN..off + FRAME_HEADER_LEN + len];
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(format!("CRC mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"));
    }
    let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
    let record: JournalRecord =
        serde_json::from_str(text).map_err(|e| format!("payload not a record: {e}"))?;
    Ok((record, off + FRAME_HEADER_LEN + len))
}

/// Scans for the first intact frame strictly after `from`.
fn find_intact_frame_after(bytes: &[u8], from: usize) -> Option<usize> {
    let mut i = from + 1;
    while i + FRAME_HEADER_LEN <= bytes.len() {
        if bytes[i..i + 2] == FRAME_MAGIC && decode_frame(bytes, i).is_ok() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Replays a raw journal image. See the module docs for the torn-tail
/// vs. mid-log-corruption contract.
///
/// # Errors
///
/// [`JournalError::TooShort`] / [`JournalError::BadMagic`] /
/// [`JournalError::UnsupportedVersion`] for a damaged header, and
/// [`JournalError::CorruptFrame`] for provable mid-log corruption.
pub fn replay_bytes(bytes: &[u8]) -> Result<Replay, JournalError> {
    if bytes.len() < HEADER_LEN {
        return Err(JournalError::TooShort { len: bytes.len() });
    }
    if bytes[0..4] != JOURNAL_MAGIC {
        return Err(JournalError::BadMagic { found: [bytes[0], bytes[1], bytes[2], bytes[3]] });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != JOURNAL_FORMAT_VERSION {
        return Err(JournalError::UnsupportedVersion {
            found: version,
            supported: JOURNAL_FORMAT_VERSION,
        });
    }
    let mut records = Vec::new();
    let mut off = HEADER_LEN;
    while off < bytes.len() {
        match decode_frame(bytes, off) {
            Ok((record, next)) => {
                records.push(record);
                off = next;
            }
            Err(detail) => {
                return match find_intact_frame_after(bytes, off) {
                    Some(next_intact) => {
                        Err(JournalError::CorruptFrame { offset: off, next_intact, detail })
                    }
                    None => Ok(Replay { records, discarded_tail_bytes: bytes.len() - off }),
                };
            }
        }
    }
    Ok(Replay { records, discarded_tail_bytes: 0 })
}

/// Appends `record` to `buf` as one frame, written in place: the frame
/// header is reserved, the payload streamed behind it, then its length and
/// CRC filled in. `false` (and `buf` unchanged) if the record failed to
/// serialize.
fn write_frame(buf: &mut Vec<u8>, record: &JournalRecord) -> bool {
    let frame_off = buf.len();
    let payload_off = frame_off + FRAME_HEADER_LEN;
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.resize(payload_off, 0);
    if serde_json::to_writer(&mut *buf, record).is_err() {
        buf.truncate(frame_off);
        return false;
    }
    let payload = &buf[payload_off..];
    let (len, crc) = ((payload.len() as u32).to_le_bytes(), crc32(payload).to_le_bytes());
    buf[frame_off + 2..frame_off + 6].copy_from_slice(&len);
    buf[frame_off + 6..payload_off].copy_from_slice(&crc);
    true
}

/// The in-memory journal image the runtime appends to. `bytes()` is the
/// durable representation — what a resident server would fsync and what
/// the CLI's `--journal` flag writes to disk.
#[derive(Debug, Clone)]
pub struct Journal {
    bytes: Vec<u8>,
    records: usize,
    appends: u64,
    compactions: u64,
    encode_failures: u64,
    /// The highest epoch any appended record carried, compacted ones
    /// included.
    max_epoch: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// An empty journal (header only).
    pub fn new() -> Self {
        let mut bytes = Vec::with_capacity(HEADER_LEN);
        bytes.extend_from_slice(&JOURNAL_MAGIC);
        bytes.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        Journal { bytes, records: 0, appends: 0, compactions: 0, encode_failures: 0, max_epoch: 0 }
    }

    /// Appends one record as a frame streamed into the image. A
    /// [`JournalRecord::Snapshot`] then compacts: everything before it is
    /// dropped, except an [`JournalRecord::EpochAdvanced`] for the highest
    /// epoch journaled if that is above the snapshot's (see the module
    /// docs).
    pub fn append(&mut self, record: &JournalRecord) {
        let frame_off = self.bytes.len();
        if !write_frame(&mut self.bytes, record) {
            // Derived serialization of journal records cannot fail; if it
            // somehow does, dropping the record (and counting it) beats
            // writing a frame that will never decode.
            self.encode_failures += 1;
            return;
        }
        self.records += 1;
        self.appends += 1;
        let epoch = record.epoch();
        if matches!(record, JournalRecord::Snapshot { .. }) && frame_off > HEADER_LEN {
            let mut kept = Vec::new();
            if self.max_epoch > epoch {
                write_frame(&mut kept, &JournalRecord::EpochAdvanced { epoch: self.max_epoch });
            }
            self.records = 1 + usize::from(!kept.is_empty());
            // One move of the snapshot frame down to the header (and the
            // epoch frame, if any).
            self.bytes.splice(HEADER_LEN..frame_off, kept);
            self.compactions += 1;
        }
        self.max_epoch = self.max_epoch.max(epoch);
    }

    /// The durable byte image (header + frames).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Records currently in the image (after compaction).
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Total appends over the journal's lifetime (compaction does not
    /// reset this).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Times compaction dropped pre-snapshot history.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Records dropped because they failed to serialize (always 0 in
    /// practice; see [`Journal::append`]).
    pub fn encode_failures(&self) -> u64 {
        self.encode_failures
    }

    /// Replays the in-memory image.
    ///
    /// # Errors
    ///
    /// Propagates [`replay_bytes`]'s typed errors.
    pub fn replay(&self) -> Result<Replay, JournalError> {
        replay_bytes(&self.bytes)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> JournalRecord {
        JournalRecord::EpochAdvanced { epoch }
    }

    fn snapshot(epoch: u64) -> JournalRecord {
        JournalRecord::Snapshot {
            epoch,
            tdg_fp: 11,
            plan_fp: 22,
            plan: RenderedPlan::new(DeploymentPlan::new()),
            clock_us: 5,
        }
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_round_trips_in_order() {
        let mut j = Journal::new();
        let records = vec![
            snapshot(1),
            record(2),
            JournalRecord::TxnAborted { epoch: 2, reason: "no".into() },
            JournalRecord::CommitDecided { epoch: 3, order: vec![] },
        ];
        for r in &records {
            j.append(r);
        }
        let replay = match j.replay() {
            Ok(r) => r,
            Err(e) => panic!("clean journal must replay: {e}"),
        };
        assert_eq!(replay.records, records);
        assert_eq!(replay.discarded_tail_bytes, 0);
        assert_eq!(j.record_count(), 4);
        assert_eq!(j.encode_failures(), 0);
    }

    #[test]
    fn empty_journal_replays_to_nothing() {
        let j = Journal::new();
        let replay = j.replay().ok().filter(|r| r.records.is_empty());
        assert!(replay.is_some(), "header-only journal must replay cleanly");
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let mut j = Journal::new();
        j.append(&record(1));
        j.append(&record(2));
        let full = j.bytes().to_vec();
        // Truncate inside the final frame: a torn append.
        for cut in (full.len() - 10)..full.len() {
            let torn = &full[..cut];
            let replay = match replay_bytes(torn) {
                Ok(r) => r,
                Err(e) => panic!("torn tail at {cut} must not be fatal: {e}"),
            };
            assert_eq!(replay.records, vec![record(1)], "cut at {cut}");
            assert!(replay.discarded_tail_bytes > 0, "cut at {cut}");
        }
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let mut j = Journal::new();
        j.append(&record(1));
        j.append(&record(2));
        let mut bytes = j.bytes().to_vec();
        // Flip a payload bit of the FIRST frame; the intact second frame
        // proves this is not a torn tail.
        bytes[HEADER_LEN + FRAME_HEADER_LEN + 2] ^= 0x01;
        match replay_bytes(&bytes) {
            Err(JournalError::CorruptFrame { offset, next_intact, .. }) => {
                assert_eq!(offset, HEADER_LEN);
                assert!(next_intact > offset);
            }
            other => panic!("mid-log corruption must be typed, got {other:?}"),
        }
    }

    #[test]
    fn header_damage_is_typed() {
        let j = Journal::new();
        let good = j.bytes().to_vec();

        assert_eq!(replay_bytes(&good[..4]), Err(JournalError::TooShort { len: 4 }));

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(replay_bytes(&bad_magic), Err(JournalError::BadMagic { .. })));

        let mut bad_version = good;
        bad_version[4] = 0xFF;
        assert!(matches!(
            replay_bytes(&bad_version),
            Err(JournalError::UnsupportedVersion { found: 0xFF, .. })
        ));
    }

    /// Every earlier format is refused by its version: a version 3
    /// journal, whose `tdg_fp`s hash the TDG's JSON, never gets as far as
    /// being told it describes a different workload.
    #[test]
    fn a_version_1_journal_is_refused() {
        let (tdg, net, plan) = crate::runtime::tests::workload();
        let mut rt = crate::runtime::tests::clean_runtime(&net);
        assert!(rt.rollout(&tdg, plan).is_committed());
        for old in [1u16, 2, 3] {
            for journal in [Journal::new().bytes(), rt.journal().bytes()] {
                let mut bytes = journal.to_vec();
                bytes[4..6].copy_from_slice(&old.to_le_bytes());
                assert_eq!(
                    replay_bytes(&bytes),
                    Err(JournalError::UnsupportedVersion { found: old, supported: 4 })
                );
            }
        }
    }

    /// The plan-carrying records, holding the plan itself: what a record
    /// writes when nothing has rendered its plan before.
    #[derive(Serialize)]
    enum PlainRecord {
        TxnBegun {
            epoch: u64,
            kind: TxnKind,
            tdg_fp: u64,
            plan_fp: u64,
            plan: DeploymentPlan,
        },
        Snapshot {
            epoch: u64,
            tdg_fp: u64,
            plan_fp: u64,
            plan: DeploymentPlan,
            clock_us: u64,
        },
        MigrationBegun {
            epoch: u64,
            tdg_fp: u64,
            plan_fp: u64,
            plan: DeploymentPlan,
            order: Vec<SwitchId>,
        },
    }

    /// A record writes its plan's held rendering: the frame is byte for
    /// byte the one serializing the plan in place gives, compact and
    /// pretty, whether the plan was rendered when it was made, shared by
    /// several records, or read back from a journal and not rendered
    /// since. The plan's fingerprint is that of the bytes.
    #[test]
    fn a_shared_rendering_writes_the_plain_frame() {
        let (_, net, plan) = crate::runtime::tests::workload();
        let rendered = RenderedPlan::new(plan.clone());
        assert_eq!(rendered.fingerprint(), plan.fingerprint());
        let (tdg_fp, plan_fp) = (11, plan.fingerprint());
        let order: Vec<SwitchId> = net.switch_ids().collect();
        let records = |plan: &RenderedPlan| {
            vec![
                JournalRecord::TxnBegun {
                    epoch: 3,
                    kind: TxnKind::Heal,
                    tdg_fp,
                    plan_fp,
                    plan: plan.clone(),
                },
                JournalRecord::Snapshot {
                    epoch: 3,
                    tdg_fp,
                    plan_fp,
                    plan: plan.clone(),
                    clock_us: 9,
                },
                JournalRecord::MigrationBegun {
                    epoch: 4,
                    tdg_fp,
                    plan_fp,
                    plan: plan.clone(),
                    order: order.clone(),
                },
            ]
        };
        let plain = [
            PlainRecord::TxnBegun {
                epoch: 3,
                kind: TxnKind::Heal,
                tdg_fp,
                plan_fp,
                plan: plan.clone(),
            },
            PlainRecord::Snapshot { epoch: 3, tdg_fp, plan_fp, plan: plan.clone(), clock_us: 9 },
            PlainRecord::MigrationBegun {
                epoch: 4,
                tdg_fp,
                plan_fp,
                plan: plan.clone(),
                order: order.clone(),
            },
        ];
        let written = records(&rendered);
        // Each in a journal of its own: a snapshot compacts what precedes it.
        let read_back: Vec<JournalRecord> = written
            .iter()
            .map(|record| {
                let mut journal = Journal::new();
                journal.append(record);
                journal.replay().unwrap().records.remove(0)
            })
            .collect();
        assert_eq!(read_back, written);
        let JournalRecord::TxnBegun { plan: unrendered, .. } = &read_back[0] else { panic!() };
        for records in [written.clone(), records(unrendered)] {
            for (record, plain) in records.iter().zip(&plain) {
                let compact = serde_json::to_string(plain).unwrap();
                assert_eq!(serde_json::to_string(record).unwrap(), compact);
                let pretty = serde_json::to_string_pretty(plain).unwrap();
                assert_eq!(serde_json::to_string_pretty(record).unwrap(), pretty);
                let mut frame = Journal::new();
                frame.append(record);
                assert_eq!(&frame.bytes()[HEADER_LEN + FRAME_HEADER_LEN..], compact.as_bytes());
            }
        }
        assert_eq!(unrendered.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn snapshot_compaction_drops_history_and_keeps_replayability() {
        let mut j = Journal::new();
        for epoch in 1..=40 {
            j.append(&record(epoch));
        }
        let before = j.bytes().len();
        j.append(&snapshot(41));
        assert!(j.bytes().len() < before, "compaction must shrink the image");
        assert_eq!(j.compactions(), 1);
        assert_eq!(j.record_count(), 1);
        let replay = match j.replay() {
            Ok(r) => r,
            Err(e) => panic!("compacted journal must replay: {e}"),
        };
        assert_eq!(replay.records.len(), 1);
        assert!(matches!(replay.records[0], JournalRecord::Snapshot { epoch: 41, .. }));
        // Appends after compaction land after the snapshot.
        j.append(&record(42));
        let replay = match j.replay() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        assert_eq!(replay.records.len(), 2);
    }

    /// The epochs of the replayed image, in order.
    fn epochs(j: &Journal) -> Vec<u64> {
        match j.replay() {
            Ok(r) => r.records.iter().map(JournalRecord::epoch).collect(),
            Err(e) => panic!("{e}"),
        }
    }

    #[test]
    fn compaction_keeps_the_highest_epoch_journaled() {
        // An out-of-band restore journals a snapshot older than the epochs
        // spent before it: the compacted image must still know them.
        let mut j = Journal::new();
        for epoch in 1..=3_000 {
            j.append(&record(epoch));
        }
        j.append(&snapshot(10));
        assert_eq!(epochs(&j), vec![3_000, 10]);
        assert_eq!(j.record_count(), 2);
        // The next snapshot rewrites the one epoch frame, never stacks it.
        j.append(&snapshot(11));
        assert_eq!(epochs(&j), vec![3_000, 11]);
        // A snapshot at or above the highest epoch needs none.
        j.append(&record(3_001));
        j.append(&snapshot(3_001));
        assert_eq!(epochs(&j), vec![3_001]);
        assert_eq!(j.record_count(), 1);
    }

    #[test]
    fn crash_points_cover_every_record_kind() {
        assert_eq!(record(1).crash_point(), CrashPoint::EpochAdvance);
        assert_eq!(snapshot(1).crash_point(), CrashPoint::Snapshot);
        assert_eq!(JournalRecord::RecoveryBegun { epoch: 3 }.crash_point(), CrashPoint::Recovery);
        assert_eq!(JournalRecord::Cleared { epoch: 3 }.epoch(), 3);
    }
}
