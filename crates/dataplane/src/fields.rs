//! Packet field model.
//!
//! A data plane program reads and writes *fields*. A field is either a
//! **header field** that already travels inside every packet (e.g. the IPv4
//! source address) or a **metadata field** that exists only inside the switch
//! pipeline (e.g. a computed hash index). When two interdependent MATs are
//! placed on *different* switches, metadata produced by the upstream MAT must
//! be piggybacked on the packet, which is exactly the per-packet byte
//! overhead Hermes minimizes. Header fields never contribute to that
//! overhead: they are already in the packet.

use serde::{Deserialize, Serialize, Serializer, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Whether a field lives in the packet itself or only in switch-local state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FieldKind {
    /// Part of the packet headers; carried for free between switches.
    Header,
    /// Pipeline-local metadata; must be piggybacked to cross a switch
    /// boundary and therefore counts toward the per-packet byte overhead.
    Metadata,
}

impl fmt::Display for FieldKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldKind::Header => f.write_str("header"),
            FieldKind::Metadata => f.write_str("metadata"),
        }
    }
}

/// The widest field, in bytes: no field is wider than the largest IPv4
/// packet. The DSL parser and [`Field`]'s deserializer refuse a width
/// outside `1..=MAX_WIDTH_BYTES`.
pub const MAX_WIDTH_BYTES: u32 = 65_535;

/// A named packet or metadata field with a fixed width in bytes.
///
/// Two fields are the same field iff their names, kinds and widths are all
/// equal (`Eq` and `Ord` compare all three, names by content). That
/// identity is what dependency inference uses, so programs that declare a
/// field alike genuinely share it (e.g. every program reading `ipv4.dst`),
/// while `meta.x: 4` and `meta.x: 8` are two fields with no dependency
/// between them. The name is shared, not copied, by every clone.
///
/// A field also carries a 64-bit hash of that content, computed once when
/// it is made. `Hash` writes only that word, and `Eq` compares it before
/// anything else, so two different fields almost always differ in one
/// word compare; equal hashes still fall through to the full comparison.
/// `Ord` ignores it (fields sort by name, kind, width) and so does the
/// JSON.
///
/// # Examples
///
/// ```
/// use hermes_dataplane::fields::{Field, FieldKind};
///
/// let idx = Field::metadata("cm_sketch.index", 4);
/// assert_eq!(idx.size_bytes(), 4);
/// assert!(idx.is_metadata());
/// assert_eq!(idx.overhead_bytes(), 4);
///
/// let dst = Field::header("ipv4.dst", 4);
/// assert_eq!(dst.overhead_bytes(), 0); // headers ride for free
/// ```
#[derive(Clone)]
pub struct Field {
    name: Arc<str>,
    kind: FieldKind,
    size_bytes: u32,
    /// [`content_hash`] of the three fields above.
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A stable 64-bit content hash: FNV-1a over the bytes written, finished
/// with MurmurHash3's `fmix64` so every bit of the word depends on every
/// input byte (hash tables index by the low bits and probe by the high
/// ones).
///
/// Unlike `std::hash`, whose output std does not promise across releases,
/// the value is a fixed function of what is written, so it may be
/// persisted. Every write is explicit: [`ContentHasher::write_str`]
/// prefixes the length, [`ContentHasher::write_u64`] writes eight
/// little-endian bytes, [`ContentHasher::write_bytes`] writes its bytes
/// as they are.
#[derive(Debug, Clone, Copy)]
pub struct ContentHasher(u64);

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher(FNV_OFFSET)
    }
}

impl ContentHasher {
    /// An empty hash.
    pub fn new() -> Self {
        ContentHasher::default()
    }

    /// Folds in `bytes` as they are, with no length.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds in the length of `s`, then its bytes.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Folds in `word`'s eight little-endian bytes.
    pub fn write_u64(&mut self, word: u64) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// The finished hash.
    pub fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// The name's bytes, the kind and the width, hashed.
fn content_hash(name: &str, kind: FieldKind, size_bytes: u32) -> u64 {
    let mut h = ContentHasher::new();
    h.write_bytes(name.as_bytes());
    h.write_bytes(&[kind as u8]);
    h.write_bytes(&size_bytes.to_le_bytes());
    h.finish()
}

impl Field {
    /// Creates a field of the given kind.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is zero: a zero-width field can neither be
    /// matched nor carried and always indicates a construction bug.
    pub fn new(name: impl Into<Cow<'static, str>>, kind: FieldKind, size_bytes: u32) -> Self {
        let name: Cow<'static, str> = name.into();
        let name = Arc::<str>::from(name);
        assert!(size_bytes > 0, "field `{name}` must have a nonzero width");
        Field::from_parts(name, kind, size_bytes)
    }

    /// The one place a `Field` is assembled, so its hash always matches
    /// its content.
    fn from_parts(name: Arc<str>, kind: FieldKind, size_bytes: u32) -> Self {
        let hash = content_hash(&name, kind, size_bytes);
        Field { name, kind, size_bytes, hash }
    }

    /// Creates a header field (`FieldKind::Header`).
    pub fn header(name: impl Into<Cow<'static, str>>, size_bytes: u32) -> Self {
        Field::new(name, FieldKind::Header, size_bytes)
    }

    /// Creates a metadata field (`FieldKind::Metadata`).
    pub fn metadata(name: impl Into<Cow<'static, str>>, size_bytes: u32) -> Self {
        Field::new(name, FieldKind::Metadata, size_bytes)
    }

    /// The field's unique name, e.g. `"ipv4.src"` or `"meta.hash_index"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is a header or metadata field.
    pub fn kind(&self) -> FieldKind {
        self.kind
    }

    /// Width of the field in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.size_bytes
    }

    /// `true` iff the field is pipeline metadata.
    pub fn is_metadata(&self) -> bool {
        self.kind == FieldKind::Metadata
    }

    /// `true` iff the field is a packet header field.
    pub fn is_header(&self) -> bool {
        self.kind == FieldKind::Header
    }

    /// Bytes this field adds to a packet when it must cross a switch
    /// boundary: its width for metadata, zero for header fields.
    pub fn overhead_bytes(&self) -> u32 {
        if self.is_metadata() {
            self.size_bytes
        } else {
            0
        }
    }

    /// The field's 64-bit content hash: a [`ContentHasher`] over the name,
    /// the kind and the width, so equal fields have equal words, in every
    /// process and release.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

/// Reads the three properties and refuses a width no field can have, as
/// the DSL parser does, where [`Field::new`] would panic or accept it.
impl Deserialize for Field {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let name: Arc<str> = Deserialize::from_value(v.get_field("name")?)?;
        let kind = Deserialize::from_value(v.get_field("kind")?)?;
        let size_bytes = Deserialize::from_value(v.get_field("size_bytes")?)?;
        if !(1..=MAX_WIDTH_BYTES).contains(&size_bytes) {
            return Err(serde::Error::custom(format!(
                "field `{name}`: width {size_bytes} B is outside 1..={MAX_WIDTH_BYTES}"
            )));
        }
        Ok(Field::from_parts(name, kind, size_bytes))
    }
}

/// The three properties in declaration order, as the former derive wrote
/// them; the hash is not part of the JSON.
impl Serialize for Field {
    fn serialize<W: serde::Write>(&self, s: &mut Serializer<W>) -> Result<(), serde::Error> {
        let mut map = s.begin_map()?;
        map.field("name", &self.name)?;
        map.field("kind", &self.kind)?;
        map.field("size_bytes", &self.size_bytes)?;
        map.end()
    }
}

impl PartialEq for Field {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.kind == other.kind
            && self.size_bytes == other.size_bytes
            && self.name == other.name
    }
}

impl Eq for Field {}

/// By name, then kind, then width — the order the former derive gave.
impl Ord for Field {
    fn cmp(&self, other: &Self) -> Ordering {
        self.name
            .cmp(&other.name)
            .then(self.kind.cmp(&other.kind))
            .then(self.size_bytes.cmp(&other.size_bytes))
    }
}

impl PartialOrd for Field {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Writes the content hash, one word; see [`FieldHasher`].
impl Hash for Field {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Prints the three properties, as the former derive did.
impl fmt::Debug for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Field")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("size_bytes", &self.size_bytes)
            .finish()
    }
}

/// A pass-through [`Hasher`] for maps and sets keyed by [`Field`] (or by
/// a table's signature): a field's `Hash` writes its precomputed content
/// hash, and this hasher returns that word as it is instead of running
/// SipHash over it.
///
/// Not DoS-resistant: the word is a fixed function of the field, so
/// chosen names can collide on purpose. A collision costs only time —
/// `Eq` still compares the content. Any other key type hashes through
/// the FNV-1a fallback in [`Hasher::write`], and a key that writes
/// several words (a tuple of fields) folds them by rotate-and-xor.
#[derive(Debug, Clone, Copy, Default)]
pub struct FieldHasher(u64);

impl Hasher for FieldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.rotate_left(5) ^ word;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`std::hash::BuildHasher`] of [`FieldHasher`]: `HashMap<Field, V,
/// BuildFieldHasher>`.
pub type BuildFieldHasher = BuildHasherDefault<FieldHasher>;

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {} B)", self.name, self.kind, self.size_bytes)
    }
}

/// Widely used metadata kinds and their per-switch sizes (paper Table I).
pub mod metadata {
    use super::Field;

    /// Switch identifier: 4 bytes. Used by path tracing and conformance.
    pub const SWITCH_IDENTIFIER_BYTES: u32 = 4;
    /// Queue lengths: 6 bytes. Used by congestion control.
    pub const QUEUE_LENGTHS_BYTES: u32 = 6;
    /// Timestamps: 12 bytes. Used by troubleshooting and anomaly detection.
    pub const TIMESTAMPS_BYTES: u32 = 12;
    /// Counter index: 4 bytes. Used by hash tables and sketches.
    pub const COUNTER_INDEX_BYTES: u32 = 4;

    /// A switch-identifier metadata field named `name`.
    pub fn switch_identifier(name: impl Into<std::borrow::Cow<'static, str>>) -> Field {
        Field::metadata(name, SWITCH_IDENTIFIER_BYTES)
    }

    /// A queue-lengths metadata field named `name`.
    pub fn queue_lengths(name: impl Into<std::borrow::Cow<'static, str>>) -> Field {
        Field::metadata(name, QUEUE_LENGTHS_BYTES)
    }

    /// A timestamps metadata field named `name`.
    pub fn timestamps(name: impl Into<std::borrow::Cow<'static, str>>) -> Field {
        Field::metadata(name, TIMESTAMPS_BYTES)
    }

    /// A counter-index metadata field named `name`.
    pub fn counter_index(name: impl Into<std::borrow::Cow<'static, str>>) -> Field {
        Field::metadata(name, COUNTER_INDEX_BYTES)
    }
}

/// Standard packet header fields shared by the program library.
pub mod headers {
    use super::Field;

    /// Ethernet source MAC address (6 bytes).
    pub fn eth_src() -> Field {
        Field::header("ethernet.src", 6)
    }
    /// Ethernet destination MAC address (6 bytes).
    pub fn eth_dst() -> Field {
        Field::header("ethernet.dst", 6)
    }
    /// Ethernet EtherType (2 bytes).
    pub fn eth_type() -> Field {
        Field::header("ethernet.ether_type", 2)
    }
    /// IPv4 source address (4 bytes).
    pub fn ipv4_src() -> Field {
        Field::header("ipv4.src", 4)
    }
    /// IPv4 destination address (4 bytes).
    pub fn ipv4_dst() -> Field {
        Field::header("ipv4.dst", 4)
    }
    /// IPv4 time-to-live (1 byte).
    pub fn ipv4_ttl() -> Field {
        Field::header("ipv4.ttl", 1)
    }
    /// IPv4 differentiated services code point (1 byte).
    pub fn ipv4_dscp() -> Field {
        Field::header("ipv4.dscp", 1)
    }
    /// IPv4 protocol number (1 byte).
    pub fn ipv4_proto() -> Field {
        Field::header("ipv4.proto", 1)
    }
    /// TCP/UDP source port (2 bytes).
    pub fn l4_sport() -> Field {
        Field::header("l4.sport", 2)
    }
    /// TCP/UDP destination port (2 bytes).
    pub fn l4_dport() -> Field {
        Field::header("l4.dport", 2)
    }
    /// TCP flags (1 byte).
    pub fn tcp_flags() -> Field {
        Field::header("tcp.flags", 1)
    }
    /// VLAN identifier (2 bytes).
    pub fn vlan_id() -> Field {
        Field::header("vlan.id", 2)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // unwrap/expect are fine in tests
mod tests {
    use super::*;

    #[test]
    fn header_field_has_zero_overhead() {
        let f = headers::ipv4_dst();
        assert!(f.is_header());
        assert_eq!(f.overhead_bytes(), 0);
        assert_eq!(f.size_bytes(), 4);
    }

    #[test]
    fn metadata_field_overhead_equals_size() {
        let f = Field::metadata("meta.x", 7);
        assert!(f.is_metadata());
        assert_eq!(f.overhead_bytes(), 7);
    }

    #[test]
    fn table1_sizes_match_paper() {
        assert_eq!(metadata::switch_identifier("m").size_bytes(), 4);
        assert_eq!(metadata::queue_lengths("m").size_bytes(), 6);
        assert_eq!(metadata::timestamps("m").size_bytes(), 12);
        assert_eq!(metadata::counter_index("m").size_bytes(), 4);
    }

    #[test]
    #[should_panic(expected = "nonzero width")]
    fn zero_width_field_panics() {
        let _ = Field::header("bad", 0);
    }

    #[test]
    fn field_identity_is_structural() {
        let a = Field::metadata("meta.idx", 4);
        let b = Field::metadata("meta.idx", 4);
        assert_eq!(a, b);
        let c = Field::metadata("meta.idx2", 4);
        assert_ne!(a, c);
    }

    /// The hash of `f` under the pass-through hasher and under std's
    /// `DefaultHasher`.
    fn hashes(f: &Field) -> (u64, u64) {
        use std::hash::BuildHasher;
        let mut sip = std::collections::hash_map::DefaultHasher::new();
        f.hash(&mut sip);
        (BuildFieldHasher::default().hash_one(f), sip.finish())
    }

    #[test]
    fn a_field_is_one_field_however_it_is_made() {
        let built = Field::new("meta.idx", FieldKind::Metadata, 4);
        let program = crate::parser::parse_program(
            "program p {
                header ipv4.src: 4;
                metadata meta.idx: 4;
                table hash { actions { go { meta.idx = hash(ipv4.src); } } resource 0.2; }
                table use { key { meta.idx: exact; } actions { n { } } resource 0.2; }
            }",
        )
        .unwrap();
        let parsed = program.tables()[0].written_fields()[0].clone();
        let read: Field = serde_json::from_str(&serde_json::to_string(&built).unwrap()).unwrap();
        let mut table = crate::FieldTable::new();
        let id = table.intern(&built);
        for other in [&parsed, &read] {
            assert_eq!(other, &built);
            assert_eq!(other.cmp(&built), Ordering::Equal);
            assert_eq!(hashes(other), hashes(&built));
            assert_eq!(table.intern(other), id);
        }
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn kind_or_width_alone_makes_a_different_field() {
        let narrow = Field::metadata("meta.x", 4);
        let others = [Field::metadata("meta.x", 8), Field::header("meta.x", 4)];
        let mut table = crate::FieldTable::new();
        let id = table.intern(&narrow);
        for other in &others {
            assert_ne!(other, &narrow);
            assert_ne!(other.cmp(&narrow), Ordering::Equal);
            assert_ne!(hashes(other).0, hashes(&narrow).0);
            assert_ne!(table.intern(other), id);
        }
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn fields_sort_by_name_then_kind_then_width() {
        let mut fields: Vec<Field> = crate::library::real_programs()
            .iter()
            .flat_map(|p| p.tables())
            .flat_map(|t| {
                t.match_fields().iter().chain(t.written_fields()).chain(t.action_read_fields())
            })
            .cloned()
            .collect();
        // Names the library shares across kinds and widths, so ties on
        // the name are broken by the kind and then the width.
        fields.extend([
            Field::header("meta.hash_index", 2),
            Field::metadata("ipv4.src", 4),
            Field::header("ipv4.src", 16),
            Field::header("ipv4.src", 1),
        ]);
        // Fisher–Yates on a fixed linear congruential sequence.
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        for i in (1..fields.len()).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            fields.swap(i, (state >> 33) as usize % (i + 1));
        }
        let tuple = |f: &Field| (f.name().to_owned(), f.kind(), f.size_bytes());
        let mut tuples: Vec<_> = fields.iter().map(tuple).collect();
        tuples.sort();
        fields.sort();
        assert_eq!(fields.iter().map(tuple).collect::<Vec<_>>(), tuples);
    }

    #[test]
    fn display_formats_name_kind_size() {
        let f = Field::metadata("meta.idx", 4);
        assert_eq!(f.to_string(), "meta.idx (metadata, 4 B)");
    }

    #[test]
    fn serde_round_trip() {
        let f = Field::metadata("meta.idx", 4);
        let json = serde_json::to_string(&f).unwrap();
        let back: Field = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
        assert_eq!(json, r#"{"name":"meta.idx","kind":"Metadata","size_bytes":4}"#);
    }

    #[test]
    fn deserialization_refuses_widths_no_field_has() {
        let json =
            |size: &str| format!(r#"{{"name":"meta.x","kind":"Metadata","size_bytes":{size}}}"#);
        for bad in ["0", "65536", "3000000000"] {
            let err = serde_json::from_str::<Field>(&json(bad)).unwrap_err();
            assert!(err.to_string().contains("is outside 1..=65535"), "{bad}: {err}");
            assert!(err.to_string().contains("field `meta.x`"), "{bad}: {err}");
        }
        assert!(serde_json::from_str::<Field>(&json("1000000000000")).is_err());
        let widest = serde_json::from_str::<Field>(&json("65535")).unwrap();
        assert_eq!(widest.size_bytes(), MAX_WIDTH_BYTES);
    }
}
