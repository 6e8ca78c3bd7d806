//! The persistent, versioned on-disk class store (`LADSTORE`).
//!
//! The canonical-class insight makes decode work reusable *across runs and
//! networks*: a class dictionary (canonical advice-labeled ball → verdict)
//! trained on one graph serves any graph with the same local structure.
//! This module trains such dictionaries with the class-memo pass
//! ([`ClassStore::train`]), persists them to a compact on-disk format and
//! reloads them with full validation, so a long-lived server can load a
//! dictionary once and answer queries against a warm store.
//!
//! # File layout
//!
//! Everything is little-endian `u64` words, so the file is 8-byte aligned
//! throughout and an mmap of it can be read as a `&[u64]` without copying.
//! A header is followed by checksummed sections and a footer index:
//!
//! ```text
//! header   (6 words)  magic "LADSTORE", format version, schema digest,
//!                     decode radius, section count, header checksum
//! sections (×S)       kind, payload word count, payload…, section checksum
//! index    (4×S words) per section: kind, offset, word count, checksum
//! tail     (5 words)  index offset, section count, index checksum,
//!                     tail checksum, magic "LADSTEND"
//! ```
//!
//! The fixed-size tail means a reader can locate the index — and through
//! it any section — from the last 40 bytes alone, without scanning
//! payloads. Every byte of the file is covered by exactly one checksum
//! (header, per-section, index, or tail), so *any* single-bit corruption
//! anywhere is detected at [`ClassStore::open`] and surfaces as a typed
//! [`StoreError`], never a panic or a silently wrong dictionary
//! (`crates/runtime/tests/store.rs` flips every byte and checks exactly
//! that).
//!
//! # Schema identity
//!
//! A dictionary is only meaningful for the schema (and schema parameters)
//! it was trained under, keyed through the exact canonical-key layout it
//! was written with. [`SchemaId`] captures all three — schema name,
//! parameter digest, and [`KEY_LAYOUT_VERSION`] — and its digest is
//! embedded in the header. Opening a store against a different expected
//! identity fails with [`StoreError::SchemaMismatch`] naming both sides,
//! so a stale or foreign dictionary can never be decoded into wrong
//! answers.

use crate::ball::Ball;
use crate::canonical::CanonicalKey;
use crate::executor::{
    bfs_visit_order, memo_run, ClassMemo, KeyHashMap, MemoStep, NotOrderInvariant,
};
use crate::network::Network;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Low-level helpers
// ---------------------------------------------------------------------------

/// Seed of the checksum fold, before the length is mixed in.
const FOLD_SEED: u64 = 0xA076_1D64_78BD_642F;

/// One multiply–rotate step of the checksum fold.
fn fold_step(fold: u64, w: u64) -> u64 {
    (fold.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Multiply–rotate fold over a byte slice, 8 bytes at a time (the tail is
/// zero-padded). Matches the spirit of the `CanonicalKey` fold: fast,
/// non-cryptographic, and word-oriented — corruption detection for our own
/// files, not an integrity MAC against an adversary.
fn fold_bytes(bytes: &[u8]) -> u64 {
    let mut fold = FOLD_SEED ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        fold = fold_step(fold, u64::from_le_bytes(c.try_into().expect("exact chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        fold = fold_step(fold, u64::from_le_bytes(tail));
    }
    fold
}

/// [`fold_bytes`] of the words' little-endian bytes, computed on the words
/// themselves: each 8-byte chunk is one word, so no byte copy is made.
fn fold_words(words: &[u64]) -> u64 {
    let len = 8 * words.len() as u64;
    words
        .iter()
        .fold(FOLD_SEED ^ len, |fold, &w| fold_step(fold, w))
}

static ATOMIC_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: the content goes to a
/// process-unique temporary sibling first and is renamed into place, so a
/// crash mid-write leaves either the old file or no file — never a
/// truncated one masquerading as corruption.
fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let seq = ATOMIC_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .map(|f| f.to_os_string())
        .unwrap_or_else(|| "store".into());
    tmp_name.push(format!(".tmp-{}-{seq}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let res = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
    if res.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

// ---------------------------------------------------------------------------
// Verdict words
// ---------------------------------------------------------------------------

/// A class verdict's output as the store writes it: a self-delimiting
/// `u64` word sequence. [`ClassStore`] saves and loads `Out: StoreValue`.
pub trait StoreValue: Sized {
    /// Appends a self-delimiting encoding of `self`.
    fn write_words(&self, words: &mut Vec<u64>);
    /// Reads one value back; `None` on truncated or malformed input.
    fn read_words(words: &mut std::slice::Iter<'_, u64>) -> Option<Self>;
}

macro_rules! store_value_uint {
    ($($t:ty),*) => {$(
        impl StoreValue for $t {
            fn write_words(&self, words: &mut Vec<u64>) {
                words.push(*self as u64);
            }
            fn read_words(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
                <$t>::try_from(*words.next()?).ok()
            }
        }
    )*};
}

store_value_uint!(u64, usize);

impl StoreValue for bool {
    fn write_words(&self, words: &mut Vec<u64>) {
        words.push(u64::from(*self));
    }
    fn read_words(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        match *words.next()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<T: StoreValue> StoreValue for Vec<T> {
    fn write_words(&self, words: &mut Vec<u64>) {
        words.push(self.len() as u64);
        for x in self {
            x.write_words(words);
        }
    }
    fn read_words(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        let len = usize::try_from(*words.next()?).ok()?;
        // Guard against a corrupt length word asking for more items than
        // words remain (each item consumes ≥ 1 word).
        if len > words.len() {
            return None;
        }
        (0..len).map(|_| T::read_words(words)).collect()
    }
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

/// Why a class store could not be opened, parsed, or extended. Every
/// corruption and mismatch path lands here — the store never panics on
/// untrusted bytes.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file is too short (or not word-aligned) to be a store.
    Truncated {
        /// Observed file length in bytes.
        len: usize,
    },
    /// The leading or trailing magic is wrong: not a `LADSTORE` file.
    BadMagic,
    /// The file is a store, but of an incompatible format version.
    BadVersion {
        /// Version the file claims.
        found: u64,
        /// Version this build reads ([`STORE_VERSION`]).
        expected: u64,
    },
    /// A checksum failed; `what` names the region (header, section,
    /// index, tail).
    ChecksumMismatch {
        /// Which checksummed region disagreed.
        what: &'static str,
    },
    /// The store was trained under a different schema identity.
    SchemaMismatch {
        /// Identity recorded in the store.
        found: String,
        /// Identity the caller expected.
        expected: String,
    },
    /// Structurally invalid content behind valid checksums (a writer bug
    /// or a format extension this build does not understand).
    Malformed(String),
    /// Two sources resolved one canonical class differently while
    /// building or merging a store.
    Conflict(NotOrderInvariant),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Truncated { len } => {
                write!(f, "store file truncated or misaligned: {len} bytes")
            }
            StoreError::BadMagic => write!(f, "not a LADSTORE file"),
            StoreError::BadVersion { found, expected } => {
                write!(f, "store format version {found}, expected {expected}")
            }
            StoreError::ChecksumMismatch { what } => {
                write!(f, "store {what} checksum mismatch (corrupt file)")
            }
            StoreError::SchemaMismatch { found, expected } => {
                write!(
                    f,
                    "store trained for schema `{found}`, expected `{expected}`"
                )
            }
            StoreError::Malformed(m) => write!(f, "malformed store: {m}"),
            StoreError::Conflict(_) => {
                write!(f, "conflicting verdicts for one canonical class")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Conflict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<NotOrderInvariant> for StoreError {
    fn from(e: NotOrderInvariant) -> Self {
        StoreError::Conflict(e)
    }
}

// ---------------------------------------------------------------------------
// Schema identity
// ---------------------------------------------------------------------------

/// Version of the [`CanonicalKey`] serialization layout. Bumped whenever
/// the canonical keying changes incompatibly; stores written under a
/// different layout are rejected at open (their keys would never match a
/// live probe, which is indistinguishable from an empty dictionary — a
/// silent performance cliff the version check turns into a typed error).
///
/// Version 2 writes each key field as an LEB128 varint packed into the
/// words (see [`crate::canonical`]); version 1 spent a whole word on each
/// field, with `(distance, rank)` and edge endpoints two to a word.
pub const KEY_LAYOUT_VERSION: u32 = 2;

/// Identity a class dictionary is valid for: schema name, a digest of the
/// schema's parameters, and the canonical-key layout version it was
/// written under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaId {
    name: String,
    params: u64,
    key_layout: u32,
}

impl SchemaId {
    /// Identity for `name` with a caller-computed parameter digest
    /// (fold the schema's tunables in; two configurations that decode
    /// differently must digest differently).
    pub fn new(name: impl Into<String>, params: u64) -> Self {
        SchemaId {
            name: name.into(),
            params,
            key_layout: KEY_LAYOUT_VERSION,
        }
    }

    /// The schema name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter digest.
    pub fn params(&self) -> u64 {
        self.params
    }

    /// One word folding name, parameters, and key layout — what the store
    /// header records and validates.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.name.len() + 12);
        bytes.extend_from_slice(self.name.as_bytes());
        bytes.extend_from_slice(&self.params.to_le_bytes());
        bytes.extend_from_slice(&self.key_layout.to_le_bytes());
        fold_bytes(&bytes)
    }
}

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (params {:#x}, key layout v{})",
            self.name, self.params, self.key_layout
        )
    }
}

// ---------------------------------------------------------------------------
// The in-memory store
// ---------------------------------------------------------------------------

/// What is known about one canonical class: the verdict a class-memo pass
/// records for it and a store keeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassVerdict<Out> {
    /// The class decodes to this output.
    Done(Out),
    /// The class needs a deeper view; re-query at this radius.
    Expand(usize),
    /// The decode step failed on this class.
    Failed,
}

/// A persistent dictionary from canonical classes to verdicts, keyed by
/// schema identity. Trained by class-memo passes ([`ClassStore::train`]),
/// saved/loaded through the checksummed `LADSTORE` format, and probed by
/// [`CanonicalKey`].
#[derive(Debug, Clone)]
pub struct ClassStore<Out> {
    schema: SchemaId,
    radius: usize,
    entries: KeyHashMap<ClassVerdict<Out>>,
}

impl<Out: PartialEq> ClassStore<Out> {
    /// An empty store for `schema` whose ladders start at `radius`.
    pub fn new(schema: SchemaId, radius: usize) -> Self {
        ClassStore {
            schema,
            radius,
            entries: KeyHashMap::default(),
        }
    }

    /// The identity this dictionary is valid for.
    pub fn schema(&self) -> &SchemaId {
        &self.schema
    }

    /// The initial ladder radius queries should be keyed at.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Distinct canonical classes stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a class up.
    pub fn get(&self, key: &CanonicalKey) -> Option<&ClassVerdict<Out>> {
        self.entries.get(key)
    }

    /// Iterates all entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (&CanonicalKey, &ClassVerdict<Out>)> {
        self.entries.iter()
    }

    /// Records a verdict. Re-recording an identical verdict is a no-op
    /// (`Ok(false)`); a *different* verdict for a present class is a
    /// [`StoreError::Conflict`] — the store never silently overwrites.
    pub fn insert(
        &mut self,
        key: CanonicalKey,
        verdict: ClassVerdict<Out>,
    ) -> Result<bool, StoreError> {
        match self.entries.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(verdict);
                Ok(true)
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                if *slot.get() == verdict {
                    Ok(false)
                } else {
                    Err(StoreError::Conflict(NotOrderInvariant {
                        key: slot.key().clone(),
                    }))
                }
            }
        }
    }

    /// The same dictionary with every [`ClassVerdict::Done`] output
    /// mapped through `f` (identity, radius and classes unchanged).
    pub fn map_outputs<U: PartialEq>(self, mut f: impl FnMut(Out) -> U) -> ClassStore<U> {
        let entries = self
            .entries
            .into_iter()
            .map(|(key, verdict)| {
                let verdict = match verdict {
                    ClassVerdict::Done(out) => ClassVerdict::Done(f(out)),
                    ClassVerdict::Expand(r) => ClassVerdict::Expand(r),
                    ClassVerdict::Failed => ClassVerdict::Failed,
                };
                (key, verdict)
            })
            .collect();
        ClassStore {
            schema: self.schema,
            radius: self.radius,
            entries,
        }
    }

    /// Entries in canonical (key-word) order — the deterministic order
    /// every save writes, so identical dictionaries produce identical
    /// bytes.
    fn entries_sorted(&self) -> Vec<(&CanonicalKey, &ClassVerdict<Out>)> {
        let mut v: Vec<_> = self.entries.iter().collect();
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v
    }
}

impl<Out: Clone + PartialEq> ClassStore<Out> {
    /// Trains the store on `net`: one class-memo pass over every node (in
    /// BFS order, each ladder starting at the store's radius) evaluates
    /// `step` once per canonical class, and the classes it found are
    /// folded in under [`ClassStore::insert`]'s conflict discipline. A
    /// class whose step failed is stored as [`ClassVerdict::Failed`]; no
    /// node's error is replayed. Returns how many classes were new.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] if two isomorphic views of `net` produced
    /// different step results (the pass's re-evaluation safety net caught
    /// an order-sensitive step), or if a class of `net` resolves
    /// differently from the verdict the store already holds.
    ///
    /// # Panics
    ///
    /// Panics if `step` requests [`MemoStep::Expand`] to a radius that
    /// does not strictly increase.
    pub fn train<In: Clone, E>(
        &mut self,
        net: &Network<In>,
        input_tag: impl Fn(&In, &mut Vec<u64>),
        step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
    ) -> Result<usize, StoreError> {
        let n = net.graph().n();
        let mut memo = ClassMemo::default();
        memo_run(
            net,
            &bfs_visit_order(net.graph()),
            self.radius,
            &input_tag,
            &step,
            &mut memo,
            &mut Vec::new(),
            &mut std::iter::repeat_with(|| None).take(n).collect::<Vec<_>>(),
            &mut vec![0; n],
            None,
        )?;
        let mut fresh = 0usize;
        for (key, entry) in memo.into_entries() {
            fresh += usize::from(self.insert(key, entry.kind)?);
        }
        Ok(fresh)
    }
}

// ---------------------------------------------------------------------------
// On-disk encoding
// ---------------------------------------------------------------------------

const STORE_MAGIC: u64 = u64::from_le_bytes(*b"LADSTORE");
const TAIL_MAGIC: u64 = u64::from_le_bytes(*b"LADSTEND");
/// Current store format version; bumped on any layout change so stale
/// dictionaries are rejected instead of misread.
pub const STORE_VERSION: u64 = 1;

const KIND_META: u64 = 1;
const KIND_CLASSES: u64 = 2;

const HEADER_WORDS: usize = 6;
const TAIL_WORDS: usize = 5;

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for &w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    bytes
}

/// Appends one section to `words` — kind, payload word count, the payload
/// `write` appends, checksum — and its entry to `index`.
fn push_section(
    words: &mut Vec<u64>,
    index: &mut Vec<u64>,
    kind: u64,
    write: impl FnOnce(&mut Vec<u64>),
) {
    let offset = words.len();
    words.extend([kind, 0]);
    write(words);
    let count = (words.len() - offset - 2) as u64;
    words[offset + 1] = count;
    let checksum = fold_words(&words[offset..]);
    words.push(checksum);
    index.extend([kind, offset as u64, count, checksum]);
}

/// Packs a UTF-8 string as `[byte length, ceil(len/8) padded words…]`.
fn push_string(words: &mut Vec<u64>, s: &str) {
    let bytes = s.as_bytes();
    words.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        words.push(u64::from_le_bytes(w));
    }
}

/// Reads a string packed by [`push_string`].
fn read_string(it: &mut std::slice::Iter<'_, u64>) -> Result<String, StoreError> {
    let malformed = |m: &str| StoreError::Malformed(m.into());
    let len = usize::try_from(*it.next().ok_or_else(|| malformed("string truncated"))?)
        .map_err(|_| malformed("string length overflows"))?;
    let word_count = len.div_ceil(8);
    if word_count > it.len() {
        return Err(malformed("string payload truncated"));
    }
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..word_count {
        bytes.extend_from_slice(&it.next().expect("checked above").to_le_bytes());
    }
    bytes.truncate(len);
    String::from_utf8(bytes).map_err(|_| malformed("string is not UTF-8"))
}

impl<Out: StoreValue + Clone + PartialEq> ClassStore<Out> {
    /// Serializes the store to its on-disk byte form. Deterministic:
    /// entries are written in canonical key order, so two stores with the
    /// same content produce identical bytes (the golden-file CI check
    /// relies on this).
    pub fn to_bytes(&self) -> Vec<u8> {
        // Header, announcing the two sections below. Each section is
        // written straight into `words`, so the file exists in one word
        // buffer and then once as bytes.
        const SECTIONS: u64 = 2;
        let mut words: Vec<u64> = vec![
            STORE_MAGIC,
            STORE_VERSION,
            self.schema.digest(),
            self.radius as u64,
            SECTIONS,
        ];
        words.push(fold_words(&words[..HEADER_WORDS - 1]));
        let mut index: Vec<u64> = Vec::with_capacity(4 * SECTIONS as usize);
        // Meta section: schema name, params, key layout, entry count.
        push_section(&mut words, &mut index, KIND_META, |meta| {
            push_string(meta, &self.schema.name);
            meta.push(self.schema.params);
            meta.push(u64::from(self.schema.key_layout));
            meta.push(self.entries.len() as u64);
        });
        // Classes section: entry count, then sorted entries.
        push_section(&mut words, &mut index, KIND_CLASSES, |classes| {
            let sorted = self.entries_sorted();
            classes.push(sorted.len() as u64);
            for (key, verdict) in sorted {
                classes.push(key.words().len() as u64);
                classes.extend_from_slice(key.words());
                match verdict {
                    ClassVerdict::Done(out) => {
                        classes.push(0);
                        out.write_words(classes);
                    }
                    ClassVerdict::Expand(r) => {
                        classes.push(1);
                        classes.push(*r as u64);
                    }
                    ClassVerdict::Failed => classes.push(2),
                }
            }
        });
        // Footer index + tail.
        let index_offset = words.len() as u64;
        let index_checksum = fold_words(&index);
        words.extend_from_slice(&index);
        let tail_head = [index_offset, SECTIONS, index_checksum];
        words.extend_from_slice(&tail_head);
        words.push(fold_words(&tail_head));
        words.push(TAIL_MAGIC);
        words_to_bytes(&words)
    }

    /// Saves the store atomically (temp file + rename), so a crash
    /// mid-save leaves the previous dictionary intact.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(StoreError::Io)
    }

    /// Parses a store from bytes, validating magic, version, every
    /// checksum, all section bounds, and (when `expected` is given) the
    /// schema identity.
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`] on any corruption, truncation, version or
    /// schema mismatch — this path must never panic on untrusted bytes.
    pub fn from_bytes(bytes: &[u8], expected: Option<&SchemaId>) -> Result<Self, StoreError> {
        let malformed = |m: &str| StoreError::Malformed(m.into());
        if !bytes.len().is_multiple_of(8) || bytes.len() < 8 * (HEADER_WORDS + TAIL_WORDS) {
            return Err(StoreError::Truncated { len: bytes.len() });
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("exact chunk")))
            .collect();
        let nw = words.len();
        // Header.
        if words[0] != STORE_MAGIC {
            return Err(StoreError::BadMagic);
        }
        if words[1] != STORE_VERSION {
            return Err(StoreError::BadVersion {
                found: words[1],
                expected: STORE_VERSION,
            });
        }
        if fold_words(&words[..HEADER_WORDS - 1]) != words[HEADER_WORDS - 1] {
            return Err(StoreError::ChecksumMismatch { what: "header" });
        }
        let digest = words[2];
        let radius = usize::try_from(words[3]).map_err(|_| malformed("radius overflows"))?;
        let section_count =
            usize::try_from(words[4]).map_err(|_| malformed("section count overflows"))?;
        // Tail.
        if words[nw - 1] != TAIL_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let tail_head = &words[nw - TAIL_WORDS..nw - 2];
        if fold_words(tail_head) != words[nw - 2] {
            return Err(StoreError::ChecksumMismatch { what: "tail" });
        }
        let index_offset =
            usize::try_from(tail_head[0]).map_err(|_| malformed("index offset overflows"))?;
        if tail_head[1] != section_count as u64 {
            return Err(malformed("tail and header disagree on section count"));
        }
        let index_words = section_count
            .checked_mul(4)
            .ok_or_else(|| malformed("index size overflows"))?;
        let index_end = index_offset
            .checked_add(index_words)
            .ok_or_else(|| malformed("index extent overflows"))?;
        if index_offset < HEADER_WORDS || index_end != nw - TAIL_WORDS {
            return Err(malformed("index does not sit between sections and tail"));
        }
        let index = &words[index_offset..index_end];
        if fold_words(index) != tail_head[2] {
            return Err(StoreError::ChecksumMismatch { what: "index" });
        }
        // Sections, as the index describes them.
        let mut meta: Option<&[u64]> = None;
        let mut classes: Option<&[u64]> = None;
        let mut cursor = HEADER_WORDS;
        for entry in index.chunks_exact(4) {
            let [kind, offset, count, checksum] = entry.try_into().expect("chunk of 4");
            let offset =
                usize::try_from(offset).map_err(|_| malformed("section offset overflows"))?;
            let count = usize::try_from(count).map_err(|_| malformed("section size overflows"))?;
            if offset != cursor {
                return Err(malformed("index offsets are not contiguous"));
            }
            let end = offset
                .checked_add(count)
                .and_then(|e| e.checked_add(3))
                .ok_or_else(|| malformed("section extent overflows"))?;
            if end > index_offset {
                return Err(malformed("section extends past the index"));
            }
            if words[offset] != kind || words[offset + 1] != count as u64 {
                return Err(malformed("section header disagrees with the index"));
            }
            if fold_words(&words[offset..end - 1]) != checksum || words[end - 1] != checksum {
                return Err(StoreError::ChecksumMismatch { what: "section" });
            }
            let payload = &words[offset + 2..end - 1];
            match kind {
                KIND_META => meta = Some(payload),
                KIND_CLASSES => classes = Some(payload),
                _ => return Err(malformed("unknown section kind")),
            }
            cursor = end;
        }
        if cursor != index_offset {
            return Err(malformed("sections do not reach the index"));
        }
        let meta = meta.ok_or_else(|| malformed("missing meta section"))?;
        let classes = classes.ok_or_else(|| malformed("missing classes section"))?;
        // Meta: schema identity + entry count.
        let mut it = meta.iter();
        let name = read_string(&mut it)?;
        let params = *it.next().ok_or_else(|| malformed("meta truncated"))?;
        let key_layout = u32::try_from(*it.next().ok_or_else(|| malformed("meta truncated"))?)
            .map_err(|_| malformed("key layout overflows"))?;
        let entry_count = usize::try_from(*it.next().ok_or_else(|| malformed("meta truncated"))?)
            .map_err(|_| malformed("entry count overflows"))?;
        if it.next().is_some() {
            return Err(malformed("trailing meta words"));
        }
        let schema = SchemaId {
            name,
            params,
            key_layout,
        };
        if schema.digest() != digest {
            return Err(malformed("header digest disagrees with meta identity"));
        }
        if let Some(want) = expected {
            if *want != schema {
                return Err(StoreError::SchemaMismatch {
                    found: schema.to_string(),
                    expected: want.to_string(),
                });
            }
        } else if schema.key_layout != KEY_LAYOUT_VERSION {
            return Err(StoreError::SchemaMismatch {
                found: schema.to_string(),
                expected: format!("any schema at key layout v{KEY_LAYOUT_VERSION}"),
            });
        }
        // Classes.
        let mut store = ClassStore::new(schema, radius);
        let mut it = classes.iter();
        let count = usize::try_from(*it.next().ok_or_else(|| malformed("classes truncated"))?)
            .map_err(|_| malformed("class count overflows"))?;
        if count != entry_count {
            return Err(malformed("meta and classes disagree on entry count"));
        }
        for _ in 0..count {
            let klen = usize::try_from(*it.next().ok_or_else(|| malformed("classes truncated"))?)
                .map_err(|_| malformed("key length overflows"))?;
            let rest = it.as_slice();
            if klen > rest.len() {
                return Err(malformed("key words truncated"));
            }
            let key = CanonicalKey::new(&rest[..klen]);
            it = rest[klen..].iter();
            let verdict = match it.next().ok_or_else(|| malformed("classes truncated"))? {
                0 => ClassVerdict::Done(
                    Out::read_words(&mut it)
                        .ok_or_else(|| malformed("verdict payload truncated"))?,
                ),
                1 => ClassVerdict::Expand(
                    usize::try_from(*it.next().ok_or_else(|| malformed("classes truncated"))?)
                        .map_err(|_| malformed("expand radius overflows"))?,
                ),
                2 => ClassVerdict::Failed,
                _ => return Err(malformed("unknown verdict tag")),
            };
            store.insert(key, verdict)?;
        }
        if it.next().is_some() {
            return Err(malformed("trailing class words"));
        }
        Ok(store)
    }

    /// Opens and validates a store file; see [`ClassStore::from_bytes`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the file cannot be read (an *absent* file
    /// surfaces as `Io` with [`io::ErrorKind::NotFound`] — distinguishable
    /// from a corrupt one, which yields a parse error), otherwise any of
    /// the [`ClassStore::from_bytes`] errors.
    pub fn open(path: impl AsRef<Path>, expected: Option<&SchemaId>) -> Result<Self, StoreError> {
        let bytes = std::fs::read(path.as_ref())?;
        Self::from_bytes(&bytes, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonicalize;
    use lad_graph::generators;
    use lad_graph::NodeId;

    /// Distinct canonical keys from one ball, distinguished by input tag
    /// (different radius-1 cycle views are isomorphic, so varying the
    /// center would collide).
    fn key_of(tag: u64) -> CanonicalKey {
        let net = Network::with_identity_ids(generators::cycle(8));
        let ball = Ball::collect(&net, NodeId::from_index(3), 1);
        canonicalize(&ball, move |_| tag)
    }

    fn sample_store() -> ClassStore<u64> {
        let mut store = ClassStore::new(SchemaId::new("unit-test", 7), 1);
        store
            .insert(key_of(0), ClassVerdict::Done(42))
            .expect("fresh");
        store
            .insert(key_of(1), ClassVerdict::Expand(3))
            .expect("fresh");
        store
            .insert(key_of(2), ClassVerdict::Failed)
            .expect("fresh");
        store
    }

    #[test]
    fn word_fold_equals_byte_fold() {
        // SplitMix64 words, so every bit position varies across slices.
        let mut state = 0x5EEDu64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for len in (0..64).chain([255, 1024]) {
            let words: Vec<u64> = (0..len).map(|_| next()).collect();
            assert_eq!(
                fold_words(&words),
                fold_bytes(&words_to_bytes(&words)),
                "{len} words"
            );
        }
    }

    #[test]
    fn bytes_round_trip_preserves_everything() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let back: ClassStore<u64> =
            ClassStore::from_bytes(&bytes, Some(store.schema())).expect("parses");
        assert_eq!(back.radius(), store.radius());
        assert_eq!(back.len(), store.len());
        for (key, verdict) in store.iter() {
            assert_eq!(back.get(key), Some(verdict));
        }
        // Deterministic bytes: identical content, identical serialization.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn save_is_atomic_and_open_validates() {
        let dir = std::env::temp_dir().join(format!("lad-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("dict.lads");
        let store = sample_store();
        store.save(&path).expect("save");
        let back: ClassStore<u64> = ClassStore::open(&path, Some(store.schema())).expect("open");
        assert_eq!(back.len(), store.len());
        // No temp litter.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let other = SchemaId::new("other-schema", 7);
        match ClassStore::<u64>::from_bytes(&bytes, Some(&other)) {
            Err(StoreError::SchemaMismatch { found, expected }) => {
                assert!(found.contains("unit-test"));
                assert!(expected.contains("other-schema"));
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn conflicting_insert_is_refused() {
        let mut store = sample_store();
        let key = key_of(0);
        assert!(matches!(
            store.insert(key.clone(), ClassVerdict::Done(41)),
            Err(StoreError::Conflict(_))
        ));
        // Identical re-insert is a no-op.
        assert!(!store.insert(key, ClassVerdict::Done(42)).expect("dup"));
    }
}
