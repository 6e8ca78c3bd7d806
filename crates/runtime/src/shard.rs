//! Shard-at-a-time execution on a bounded resident set.
//!
//! Every other executor in this crate assumes the whole instance fits in
//! one address space. This module removes that assumption: the nodes are
//! split into `K` shards, each shard decodes from a [`ShardSlice`] (its
//! interior nodes plus a radius-`T` halo, as a local network), and one
//! driver, [`run_sharded_stream_memo_fallible`], decodes the slices one
//! wave at a time with at most `R` of them alive, spilling sealed
//! memo-class tables to a versioned on-disk scratch format
//! ([`SpillStore`]).
//!
//! The driver asks a provider closure for each slice, exactly once per
//! shard and in schedule order. [`run_sharded_memo_fallible`] is the
//! provider for a resident [`Network`] cut by a [`Partition`]: it builds
//! each shard's [`ShardView`] when the shard's wave starts, so a shard
//! outside the current wave costs nothing, in memory or on disk.
//! Instances too large to hold at all supply slices generated from the
//! graph family instead (`lad_core::torus_stream`).
//!
//! # Why shard-local replay is sound
//!
//! A LOCAL decoder's output at `v` is a pure function of `v`'s
//! radius-`r` ball. The halo argument (proved in [`lad_graph::shard`])
//! says: inside a view built with halo depth `T`, every ball of radius
//! `r ≤ T − 1` around an *interior* node is bit-identical — graph,
//! distances, degrees, uids, inputs — to the same ball in the full graph.
//! So replaying the decode ladder inside the view produces exactly the
//! global outputs, provided the ladder never climbs past `T − 1`.
//!
//! That proviso is *enforced*, not assumed: the per-shard runners wrap the
//! step and abort the whole run with a typed [`HaloExceeded`] the moment a
//! [`MemoStep::Expand`] requests a radius beyond the cap. The violation is
//! deliberately **not** memoized as an ordinary failed class — replaying a
//! "failed" class on the full graph would succeed and masquerade as a
//! [`NotOrderInvariant`] conflict — and a poisoned shard's memo table is
//! never merged. A shard whose members have no edge out of the view (for
//! `K = 1`, or a union of whole components) is complete, and its ladder is
//! uncapped.
//!
//! # Memo merge across shards
//!
//! Each shard decodes with a fresh class memo (fingerprints are engine-
//! local, so tables cannot be shared while hot). Afterward the tables are
//! replay-merged in schedule order by [`MemoMerge`], the same merge the
//! parallel executor runs over its per-chunk memos: two shards resolving
//! one canonical class differently is exactly a [`NotOrderInvariant`] and
//! aborts the run instead of returning schedule-dependent outputs.
//! First-error behavior also matches the single-address-space executors:
//! failed nodes are collected globally and the smallest-index one replays
//! its ladder on the **full** network (`memo_first_error`'s discipline),
//! so error payloads are bit-identical to `run_local_memo_fallible`.
//!
//! # Spill format
//!
//! When `R < K`, every sealed memo table takes a round trip through one
//! spill file per shard before it merges: little-endian `u64` words
//! behind an 8-byte magic (`LADSPILL`), a format version, a section kind
//! tag, and the owning shard id. Loads validate all four and fail loudly
//! on mismatch, so a stale or foreign scratch directory can never be
//! decoded into wrong answers. A scratch directory that will not open, a
//! table that will not save or load, and a loaded table that does not
//! parse each stop the run with a typed [`SpillError`], never a panic.
//! This is the first slice of the roadmap's persistent
//! class store: memo tables round-trip through the same encoding
//! ([`ShardMemo::into_words`] / [`MemoMerge::absorb_words`]).
//!
//! # Messaging
//!
//! [`ShardedTransport`] adapts any [`Transport`] to the sharded regime:
//! intra-shard messages are routed directly, cross-shard messages are
//! queued in per-`(src_shard, dst_shard)` mailboxes and flushed when the
//! schedule switches shards. Delivery is bit-identical to the inner
//! transport — each inbox slot has exactly one sender, so re-routing is a
//! permutation of the delivery order, which the round-synchronous model
//! cannot observe. Fault plans therefore compose unchanged.

use crate::ball::{Ball, BallMembers, Scratch};
use crate::canonical::CanonicalKey;
use crate::executor::{
    bfs_visit_order, flush_memo_stats, memo_finish, memo_kind_eq, memo_pass, par_map, ClassMemo,
    KeyHashMap, MemoEntry, MemoEntryKind, MemoStats, MemoStep, RoundStats,
};
use crate::lookup::NotOrderInvariant;
use crate::network::Network;
use crate::plan::{plan_decode, ExecPath};
use crate::transport::{FaultStats, Transport};
use lad_graph::{Graph, IdAssignment, NodeId, Partition, ShardView};
use std::borrow::Borrow;
use std::cell::Cell;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Halo violations
// ---------------------------------------------------------------------------

/// A decode ladder asked for a radius its shard's halo cannot serve.
///
/// Shard views are built with halo depth `T`; balls of radius up to
/// `T − 1` around interior nodes are exact, anything deeper would read
/// truncated neighborhoods. Rather than silently decoding from a wrong
/// ball, the sharded runners abort with this error — rebuild the views
/// with a deeper halo (or fewer shards) and rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloExceeded {
    /// Shard whose ladder outgrew its view.
    pub shard: usize,
    /// Halo depth the views were built with (the ladder may use up to
    /// `halo_radius − 1`).
    pub halo_radius: usize,
    /// The radius the step requested.
    pub requested: usize,
}

impl fmt::Display for HaloExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}: decode ladder requested radius {} but the halo depth {} only serves \
             radii up to {}; rebuild with a deeper halo",
            self.shard,
            self.requested,
            self.halo_radius,
            self.halo_radius.saturating_sub(1),
        )
    }
}

impl std::error::Error for HaloExceeded {}

/// The sharded driver could not use its spill scratch: the directory did
/// not open, a memo table did not save or load, or a loaded table did
/// not parse. The run stops there; nothing from a failed scratch is ever
/// decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillError {
    /// The underlying I/O error's kind (`InvalidData` for a table that
    /// did not parse).
    pub kind: io::ErrorKind,
    /// What the driver was doing, and the underlying error.
    pub reason: String,
}

impl SpillError {
    fn io(doing: String, e: io::Error) -> SpillError {
        SpillError {
            kind: e.kind(),
            reason: format!("{doing}: {e}"),
        }
    }

    fn corrupt_table() -> SpillError {
        SpillError {
            kind: io::ErrorKind::InvalidData,
            reason: "spilled memo table does not parse".into(),
        }
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spill scratch failed: {}", self.reason)
    }
}

impl std::error::Error for SpillError {}

// ---------------------------------------------------------------------------
// Spill accounting
// ---------------------------------------------------------------------------

static SPILL_WRITTEN: AtomicU64 = AtomicU64::new(0);
static SPILL_READ: AtomicU64 = AtomicU64::new(0);
static SPILL_FILES: AtomicU64 = AtomicU64::new(0);
static SPILL_BUFFER_PEAK: AtomicU64 = AtomicU64::new(0);

/// Process-wide spill I/O counters (the allocation high-water hook for
/// spill buffers: every serialized section bumps these before it touches
/// disk, so benches can report spill traffic next to `peak_rss_mb`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Total bytes serialized and written.
    pub bytes_written: u64,
    /// Total bytes read back and deserialized.
    pub bytes_read: u64,
    /// Spill files written.
    pub files: u64,
    /// Largest single in-memory spill buffer, in bytes — the transient
    /// allocation a spill adds on top of the resident set.
    pub buffer_peak: u64,
}

/// Snapshot of the process-wide [`SpillStats`].
pub fn spill_stats() -> SpillStats {
    SpillStats {
        bytes_written: SPILL_WRITTEN.load(Ordering::Relaxed),
        bytes_read: SPILL_READ.load(Ordering::Relaxed),
        files: SPILL_FILES.load(Ordering::Relaxed),
        buffer_peak: SPILL_BUFFER_PEAK.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide [`SpillStats`] (benches call this per cell).
pub fn spill_stats_reset() {
    SPILL_WRITTEN.store(0, Ordering::Relaxed);
    SPILL_READ.store(0, Ordering::Relaxed);
    SPILL_FILES.store(0, Ordering::Relaxed);
    SPILL_BUFFER_PEAK.store(0, Ordering::Relaxed);
}

fn note_buffer(bytes: u64) {
    SPILL_BUFFER_PEAK.fetch_max(bytes, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Word-serializable values
// ---------------------------------------------------------------------------

/// A value the spill store can round-trip as a self-delimiting `u64` word
/// sequence. Sharded memoized execution requires `Out: Spillable` so
/// evicted memo tables (and, in the streaming pipeline, per-shard output
/// sections) can leave the resident set.
pub trait Spillable: Sized {
    /// Appends a self-delimiting encoding of `self`.
    fn spill(&self, words: &mut Vec<u64>);
    /// Reads one value back; `None` on truncated or malformed input.
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self>;
}

macro_rules! spillable_uint {
    ($($t:ty),*) => {$(
        impl Spillable for $t {
            fn spill(&self, words: &mut Vec<u64>) {
                words.push(*self as u64);
            }
            fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
                <$t>::try_from(*words.next()?).ok()
            }
        }
    )*};
}

spillable_uint!(u8, u16, u32, u64, usize);

impl Spillable for bool {
    fn spill(&self, words: &mut Vec<u64>) {
        words.push(u64::from(*self));
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        match *words.next()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<A: Spillable, B: Spillable> Spillable for (A, B) {
    fn spill(&self, words: &mut Vec<u64>) {
        self.0.spill(words);
        self.1.spill(words);
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        Some((A::unspill(words)?, B::unspill(words)?))
    }
}

impl<T: Spillable> Spillable for Vec<T> {
    fn spill(&self, words: &mut Vec<u64>) {
        words.push(self.len() as u64);
        for x in self {
            x.spill(words);
        }
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        let len = usize::try_from(*words.next()?).ok()?;
        // Guard against a corrupt length word asking for more items than
        // words remain (each item consumes ≥ 1 word).
        if len > words.len() {
            return None;
        }
        (0..len).map(|_| T::unspill(words)).collect()
    }
}

impl<T: Spillable> Spillable for Option<T> {
    fn spill(&self, words: &mut Vec<u64>) {
        match self {
            None => words.push(0),
            Some(x) => {
                words.push(1);
                x.spill(words);
            }
        }
    }
    fn unspill(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        match *words.next()? {
            0 => Some(None),
            1 => Some(Some(T::unspill(words)?)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// The versioned on-disk scratch format
// ---------------------------------------------------------------------------

const SPILL_MAGIC: [u8; 8] = *b"LADSPILL";
/// Current spill format version; bumped on any layout change so stale
/// scratch directories are rejected instead of misread. Version 2 added
/// the trailing whole-file checksum word and atomic (temp + rename)
/// writes.
pub const SPILL_VERSION: u32 = 2;

/// Which section of shard state a spill file holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillKind {
    /// A shard's memo-class table (canonical keys and verdicts).
    Memo,
}

impl SpillKind {
    fn tag(self) -> u32 {
        match self {
            SpillKind::Memo => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SpillKind::Memo => "memo",
        }
    }
}

/// A directory of spill files, one per `(kind, shard)` section.
///
/// Files carry `LADSPILL`, [`SPILL_VERSION`], the kind tag, the shard id,
/// a word count, the payload, and a trailing whole-file checksum;
/// [`SpillStore::load`] validates all of them with checked arithmetic and
/// returns a typed [`io::ErrorKind::InvalidData`] error on any corruption
/// — an untrusted header word can never index or allocate out of bounds.
/// Writes go to a temp file and rename into place atomically, so a crash
/// mid-save leaves "absent" (retryable), never a truncated file
/// masquerading as corruption. Stores opened with [`SpillStore::temp`]
/// delete their directory on drop; caller-provided directories
/// ([`SpillStore::open`]) are left in place.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    own_dir: bool,
}

impl SpillStore {
    /// Opens (creating if needed) a caller-owned scratch directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SpillStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SpillStore {
            dir,
            own_dir: false,
        })
    }

    /// Creates a fresh process-unique scratch directory under the system
    /// temp dir, removed when the store is dropped.
    pub fn temp() -> io::Result<SpillStore> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("lad-spill-{}-{}", std::process::id(), seq));
        std::fs::create_dir_all(&dir)?;
        Ok(SpillStore { dir, own_dir: true })
    }

    /// The scratch directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, kind: SpillKind, shard: usize) -> PathBuf {
        self.dir.join(format!("{}-{shard}.lsp", kind.name()))
    }

    /// Serializes and writes one section atomically (temp file + rename).
    pub fn save(&self, kind: SpillKind, shard: usize, words: &[u64]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(40 + 8 * words.len());
        buf.extend_from_slice(&SPILL_MAGIC);
        buf.extend_from_slice(&SPILL_VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.tag().to_le_bytes());
        buf.extend_from_slice(&(shard as u64).to_le_bytes());
        buf.extend_from_slice(&(words.len() as u64).to_le_bytes());
        for &w in words {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        let checksum = crate::store::fold_bytes(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        note_buffer(buf.len() as u64);
        SPILL_WRITTEN.fetch_add(buf.len() as u64, Ordering::Relaxed);
        SPILL_FILES.fetch_add(1, Ordering::Relaxed);
        crate::store::atomic_write(&self.path(kind, shard), &buf)
    }

    /// Reads one section back, validating magic, version, kind, shard,
    /// payload bounds (checked arithmetic — a corrupt count word cannot
    /// overflow), and the trailing whole-file checksum.
    pub fn load(&self, kind: SpillKind, shard: usize) -> io::Result<Vec<u64>> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let buf = std::fs::read(self.path(kind, shard))?;
        note_buffer(buf.len() as u64);
        if buf.len() < 40 {
            return Err(bad(format!("spill file truncated: {} bytes", buf.len())));
        }
        if buf[..8] != SPILL_MAGIC {
            return Err(bad("not a LADSPILL file".into()));
        }
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let version = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if version != SPILL_VERSION {
            return Err(bad(format!(
                "spill format version {version}, expected {SPILL_VERSION}"
            )));
        }
        let tag = u32::from_le_bytes(buf[12..16].try_into().unwrap());
        if tag != kind.tag() {
            return Err(bad(format!(
                "spill section kind {tag}, expected {}",
                kind.tag()
            )));
        }
        if word(16) != shard as u64 {
            return Err(bad(format!(
                "spill file for shard {}, expected {shard}",
                word(16)
            )));
        }
        // The count is an untrusted header word: size it with checked
        // arithmetic so a corrupt value yields InvalidData, not overflow.
        let count = usize::try_from(word(24))
            .ok()
            .filter(|&c| c.checked_mul(8).and_then(|b| b.checked_add(40)) == Some(buf.len()))
            .ok_or_else(|| {
                bad(format!(
                    "spill payload {} bytes, header promises {} words",
                    buf.len() - 40,
                    word(24)
                ))
            })?;
        let checksum = word(buf.len() - 8);
        if crate::store::fold_bytes(&buf[..buf.len() - 8]) != checksum {
            return Err(bad("spill checksum mismatch (corrupt file)".into()));
        }
        SPILL_READ.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok((0..count).map(|i| word(32 + 8 * i)).collect())
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        if self.own_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Per-shard memo tables and the cross-shard merge
// ---------------------------------------------------------------------------

/// One shard's sealed memo-class table, ready to merge or spill.
pub struct ShardMemo<Out> {
    pub(crate) memo: ClassMemo<Out>,
}

impl<Out> ShardMemo<Out> {
    /// Distinct canonical classes this shard evaluated.
    pub fn class_count(&self) -> usize {
        self.memo.class_count()
    }

    /// Unwraps the sealed class table (for the persistent class store).
    pub(crate) fn into_memo(self) -> ClassMemo<Out> {
        self.memo
    }
}

impl<Out: Spillable> ShardMemo<Out> {
    /// Serializes the table as spill words: canonical-key word sequences
    /// plus each class's verdict. Fingerprints are engine-local and are
    /// *not* stored — a reloaded table can be merged and audited, but not
    /// re-used as a hot probe table (the roadmap's persistent class store
    /// will add a re-keying pass for that).
    pub fn into_words(self) -> Vec<u64> {
        let entries: Vec<(CanonicalKey, MemoEntry<Out>)> = self.memo.into_entries().collect();
        let mut words = Vec::with_capacity(8 * entries.len() + 1);
        words.push(entries.len() as u64);
        for (key, entry) in entries {
            words.push(key.words().len() as u64);
            words.extend_from_slice(key.words());
            match entry.kind {
                MemoEntryKind::Done(out) => {
                    words.push(0);
                    out.spill(&mut words);
                }
                MemoEntryKind::Expand(r) => {
                    words.push(1);
                    words.push(r as u64);
                }
                MemoEntryKind::Failed => words.push(2),
            }
        }
        words
    }
}

/// Accumulates per-shard memo tables, detecting cross-shard conflicts.
///
/// The sharded driver and the parallel memo executor (over its per-chunk
/// memos) both merge through this: the first key two tables resolved
/// differently aborts with [`NotOrderInvariant`] instead of letting
/// outputs depend on the shard schedule. Which conflict is *reported*
/// follows absorb order, so callers absorb in schedule (or chunk) order.
pub struct MemoMerge<Out> {
    map: KeyHashMap<MemoEntryKind<Out>>,
}

impl<Out: PartialEq> MemoMerge<Out> {
    /// An empty merge.
    pub fn new() -> Self {
        MemoMerge {
            map: KeyHashMap::default(),
        }
    }

    /// Distinct canonical classes absorbed so far.
    pub fn class_count(&self) -> usize {
        self.map.len()
    }

    fn insert(
        &mut self,
        key: CanonicalKey,
        kind: MemoEntryKind<Out>,
    ) -> Result<(), NotOrderInvariant> {
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(kind);
                Ok(())
            }
            std::collections::hash_map::Entry::Occupied(slot) => {
                if memo_kind_eq(slot.get(), &kind) {
                    Ok(())
                } else {
                    Err(NotOrderInvariant {
                        key: slot.key().clone(),
                    })
                }
            }
        }
    }

    /// Folds one shard's table in.
    pub fn absorb(&mut self, shard_memo: ShardMemo<Out>) -> Result<(), NotOrderInvariant> {
        for (key, entry) in shard_memo.memo.into_entries() {
            self.insert(key, entry.kind)?;
        }
        Ok(())
    }
}

impl<Out: Spillable + PartialEq> MemoMerge<Out> {
    /// Folds in a table previously serialized by [`ShardMemo::into_words`]
    /// (typically read back through a [`SpillStore`]).
    ///
    /// # Errors
    ///
    /// A [`SpillError`] when the words do not parse as a table (the store
    /// validated the file, so this means scratch corruption; the entries
    /// before the bad word are already merged), or a [`NotOrderInvariant`]
    /// conflict with an earlier table.
    pub fn absorb_words<E>(&mut self, words: &[u64]) -> Result<(), E>
    where
        E: From<NotOrderInvariant> + From<SpillError>,
    {
        let mut it = words.iter();
        let n = *it.next().ok_or_else(SpillError::corrupt_table)? as usize;
        for _ in 0..n {
            let klen = *it.next().ok_or_else(SpillError::corrupt_table)? as usize;
            let rest = it.as_slice();
            if klen > rest.len() {
                return Err(SpillError::corrupt_table().into());
            }
            let key = CanonicalKey::from_word_slice(&rest[..klen]);
            it = rest[klen..].iter();
            let kind = match it.next().ok_or_else(SpillError::corrupt_table)? {
                0 => MemoEntryKind::Done(
                    Out::unspill(&mut it).ok_or_else(SpillError::corrupt_table)?,
                ),
                1 => {
                    MemoEntryKind::Expand(*it.next().ok_or_else(SpillError::corrupt_table)? as usize)
                }
                2 => MemoEntryKind::Failed,
                _ => return Err(SpillError::corrupt_table().into()),
            };
            self.insert(key, kind)?;
        }
        if it.next().is_some() {
            return Err(SpillError::corrupt_table().into());
        }
        Ok(())
    }
}

impl<Out: PartialEq> Default for MemoMerge<Out> {
    fn default() -> Self {
        MemoMerge::new()
    }
}

// ---------------------------------------------------------------------------
// Per-shard runners
// ---------------------------------------------------------------------------

/// What one shard's pass produced, in local ids. The sharded driver and
/// the monolithic memo executors collect whole runs in the same shape,
/// indexed by global node id.
pub struct ShardRun<Out> {
    /// Per local node: the decoded output (interior nodes only; halo and
    /// failed slots stay `None`).
    pub outs: Vec<Option<Out>>,
    /// Per local node: the final ladder radius (interior nodes only).
    pub per_node: Vec<usize>,
    /// Local indices of interior nodes whose step failed; the driver
    /// resolves the *global* first error after all shards ran.
    pub failed: Vec<usize>,
    /// Memo counters for this shard (zero on the plain path).
    pub stats: MemoStats,
}

/// Runs the memoized ladder over one shard's local network.
///
/// `interior[l]` marks which local nodes this shard owns; only those are
/// decoded. `ladder_cap` is `Some(halo_radius − 1)` for a truncated view
/// and `None` for a complete one (no out-edges); a step expanding past the
/// cap aborts with [`HaloExceeded`] — crucially *without* treating the
/// poisoned class as an ordinary failure, which would replay as a spurious
/// [`NotOrderInvariant`] on the full graph.
///
/// On success returns the shard's outputs plus its sealed memo table; the
/// caller must fold the table into a [`MemoMerge`] so cross-shard
/// disagreements are detected.
#[allow(clippy::too_many_arguments)]
pub fn run_shard_memo_fallible<In: Clone, Out: Clone + PartialEq, E>(
    local_net: &Network<In>,
    interior: &[bool],
    shard: usize,
    ladder_cap: Option<usize>,
    initial_radius: usize,
    input_tag: &impl Fn(&In, &mut Vec<u64>),
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
) -> Result<(ShardRun<Out>, ShardMemo<Out>), E>
where
    E: From<NotOrderInvariant> + From<HaloExceeded>,
{
    let g = local_net.graph();
    let n = g.n();
    assert_eq!(interior.len(), n, "one interior flag per local node");
    let halo_err = |requested: usize| HaloExceeded {
        shard,
        halo_radius: ladder_cap.map_or(0, |c| c + 1),
        requested,
    };
    if ladder_cap.is_some_and(|cap| initial_radius > cap) {
        return Err(halo_err(initial_radius).into());
    }
    // The cap is checked inside the step wrapper so memo hits, misses, and
    // verification all see it; the violation is recorded on the side and
    // the pass halts after the tile, before this shard's memo can merge.
    let exceeded: Cell<Option<usize>> = Cell::new(None);
    let capped = |ball: &Ball<In>| -> Result<MemoStep<Out>, E> {
        let res = step(ball);
        if let (Some(cap), Ok(MemoStep::Expand(r2))) = (ladder_cap, &res) {
            if *r2 > cap {
                exceeded.set(Some(*r2));
                return Err(halo_err(*r2).into());
            }
        }
        res
    };
    let order: Vec<NodeId> = bfs_visit_order(g)
        .into_iter()
        .filter(|v| interior[v.index()])
        .collect();
    let pass = memo_pass(
        local_net,
        &order,
        0..n,
        initial_radius,
        input_tag,
        &capped,
        || exceeded.get().is_some(),
    );
    if let Some(requested) = exceeded.get() {
        return Err(halo_err(requested).into());
    }
    if let Some(conflict) = pass.conflict {
        return Err(conflict.into());
    }
    Ok((pass.run, pass.memo))
}

/// Runs the plain (unmemoized) ladder over one shard's local network —
/// the path the planner picks when an instance has too few repeated
/// classes to pay for keying. Same cap discipline as
/// [`run_shard_memo_fallible`], same output/radius semantics, no memo
/// table.
fn run_shard_plain_fallible<In: Clone, Out, E: From<HaloExceeded>>(
    local_net: &Network<In>,
    interior: &[bool],
    shard: usize,
    ladder_cap: Option<usize>,
    initial_radius: usize,
    step: &impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E>,
) -> Result<ShardRun<Out>, E> {
    let g = local_net.graph();
    let n = g.n();
    assert_eq!(interior.len(), n, "one interior flag per local node");
    let halo_err = |requested: usize| HaloExceeded {
        shard,
        halo_radius: ladder_cap.map_or(0, |c| c + 1),
        requested,
    };
    if ladder_cap.is_some_and(|cap| initial_radius > cap) {
        return Err(halo_err(initial_radius).into());
    }
    let mut scratch = Scratch::new(n);
    let mut outs: Vec<Option<Out>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut per_node = vec![0usize; n];
    let mut failed: Vec<usize> = Vec::new();
    for li in 0..n {
        if !interior[li] {
            continue;
        }
        let v = NodeId::from_index(li);
        let mut members = BallMembers::gather(g, v, initial_radius, &mut scratch);
        loop {
            let ball = members.build_current(local_net, &mut scratch);
            match step(&ball) {
                Ok(MemoStep::Done(out)) => {
                    outs[li] = Some(out);
                    per_node[li] = members.radius();
                    break;
                }
                Ok(MemoStep::Expand(r2)) => {
                    assert!(
                        r2 > members.radius(),
                        "MemoStep::Expand must strictly increase the radius"
                    );
                    if ladder_cap.is_some_and(|cap| r2 > cap) {
                        return Err(halo_err(r2).into());
                    }
                    members.expand(g, r2, &mut scratch);
                }
                Err(_) => {
                    failed.push(li);
                    per_node[li] = members.radius();
                    break;
                }
            }
        }
    }
    Ok(ShardRun {
        outs,
        per_node,
        failed,
        stats: MemoStats::default(),
    })
}

// ---------------------------------------------------------------------------
// The sharded driver and its resident-network provider
// ---------------------------------------------------------------------------

/// Configuration for the sharded driver.
#[derive(Debug, Clone)]
pub struct ShardOpts {
    /// Halo depth `T` the views are built with; the decode ladder may use
    /// radii up to `T − 1` on truncated shards. Must be ≥ 1.
    pub halo_radius: usize,
    /// Maximum shard slices alive at once (`R`); while `R < K`, sealed
    /// memo tables round-trip through the scratch store. Clamped to ≥ 1.
    /// Defaults to "all resident".
    pub resident: usize,
    /// Shard processing order; `None` means `0..k`. Must be a permutation
    /// of the shard ids — outputs are schedule-invariant either way.
    pub schedule: Option<Vec<usize>>,
    /// Scratch directory for spilled state. `None` uses a process-unique
    /// temp directory that is removed when the run finishes. Only used
    /// when `resident < k`.
    pub spill_dir: Option<PathBuf>,
    /// When set, [`plan_decode`] runs per shard under this schema name and
    /// may route individual shards to the plain path. `None` always
    /// memoizes.
    pub plan_schema: Option<String>,
}

impl ShardOpts {
    /// Options with halo depth `halo_radius`, everything resident, the
    /// identity schedule, and no planner.
    pub fn new(halo_radius: usize) -> Self {
        ShardOpts {
            halo_radius,
            resident: usize::MAX,
            schedule: None,
            spill_dir: None,
            plan_schema: None,
        }
    }

    /// Caps the number of resident shard slices.
    pub fn resident(mut self, r: usize) -> Self {
        self.resident = r;
        self
    }

    /// Sets an explicit shard schedule.
    pub fn schedule(mut self, order: Vec<usize>) -> Self {
        self.schedule = Some(order);
        self
    }

    /// Spills to a caller-owned scratch directory instead of a temp one.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// Enables per-shard execution planning under `schema`.
    pub fn plan_schema(mut self, schema: impl Into<String>) -> Self {
        self.plan_schema = Some(schema.into());
        self
    }

    /// The order in which `k` shards are processed: the explicit schedule,
    /// or `0..k`. The sharded driver and `lad_core`'s sharded encoder both
    /// take their order from here, so both reject a bad schedule alike.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is not a permutation of `0..k`.
    pub fn schedule_for(&self, k: usize) -> Vec<usize> {
        let schedule = match &self.schedule {
            Some(s) => s.clone(),
            None => (0..k).collect(),
        };
        check_schedule(&schedule, k);
        schedule
    }
}

fn check_schedule(schedule: &[usize], k: usize) {
    assert_eq!(schedule.len(), k, "schedule must list every shard once");
    let mut seen = vec![false; k];
    for &s in schedule {
        assert!(s < k, "schedule names shard {s} of {k}");
        assert!(!seen[s], "schedule lists shard {s} twice");
        seen[s] = true;
    }
}

/// Memoized sharded execution of a resident network: decodes `net`
/// shard-at-a-time under `part` with at most `opts.resident` shards in
/// memory.
///
/// This is the resident-network provider for
/// [`run_sharded_stream_memo_fallible`]: each shard's [`ShardView`] is
/// built when its wave starts and moved into a [`ShardSlice`], and
/// first-error replay runs on `net` itself. Outputs, [`RoundStats`], and
/// first-error choice are bit-identical to
/// [`run_local_memo_fallible`](crate::run_local_memo_fallible) (and, for
/// ladder steps, to `run_local`) whenever the halo is deep enough; a
/// ladder that outgrows the halo aborts with a typed [`HaloExceeded`]
/// instead of decoding from truncated views. Outputs are
/// schedule-invariant.
///
/// # Errors
///
/// See [`run_sharded_stream_memo_fallible`].
///
/// # Panics
///
/// Panics if the partition does not match the graph, `halo_radius` is 0,
/// or the schedule is not a permutation.
pub fn run_sharded_memo_fallible<In, Out, E>(
    net: &Network<In>,
    part: &Partition,
    opts: &ShardOpts,
    initial_radius: usize,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Clone + PartialEq + Spillable + Send,
    E: From<NotOrderInvariant> + From<HaloExceeded> + From<SpillError> + Send,
{
    let g = net.graph();
    assert_eq!(
        part.n(),
        g.n(),
        "partition does not match the network's graph"
    );
    run_sharded_stream_memo_fallible(
        g.n(),
        part.k(),
        opts,
        initial_radius,
        |s| ShardSlice::from_view(net, ShardView::build(g, part, s, opts.halo_radius)),
        || net,
        input_tag,
        step,
    )
}

/// One shard materialized by a provider: the local network plus
/// membership metadata — everything the per-shard runners need, with no
/// global graph behind it.
///
/// [`run_sharded_stream_memo_fallible`] asks its provider for one
/// `ShardSlice` at a time: cut from a resident [`Network`]
/// ([`ShardSlice::from_view`], as [`run_sharded_memo_fallible`] does), or
/// generated directly from a streaming graph family, so peak memory is
/// the largest wave of slices, not the graph.
pub struct ShardSlice<In> {
    /// The shard this slice serves.
    pub shard: usize,
    /// Global ids of the slice's nodes, ascending; local id = rank.
    pub members: Vec<NodeId>,
    /// Per local node: does this shard own it? Interior sets must
    /// partition the global node set across all `k` slices.
    pub interior: Vec<bool>,
    /// The local network: the halo-closed induced subgraph with global
    /// uids and inputs.
    pub net: Network<In>,
    /// `true` when no edge leaves the slice (every member interior): balls
    /// are then exact at every radius and the ladder runs uncapped.
    pub complete: bool,
}

impl<In: Clone> ShardSlice<In> {
    /// Materializes a slice from a [`ShardView`] of `net`: the view's
    /// induced subgraph with the members' global uids and cloned inputs.
    ///
    /// A view with a halo of at least 1 whose members are all interior has
    /// no edge leaving it (any boundary node would have pulled its
    /// exterior neighbor into the halo), so its slice is complete.
    ///
    /// # Panics
    ///
    /// Panics if the view was built with `halo_radius` 0.
    pub fn from_view(net: &Network<In>, view: ShardView) -> ShardSlice<In> {
        assert!(view.halo_radius >= 1, "a slice needs a halo of at least 1");
        let uids: Vec<u64> = view.members.iter().map(|&v| net.uid(v)).collect();
        let inputs: Vec<In> = view.members.iter().map(|&v| net.input(v).clone()).collect();
        ShardSlice {
            shard: view.shard,
            complete: view.interior.iter().all(|&b| b),
            net: Network::new(view.graph, IdAssignment::from_uids(uids), inputs),
            members: view.members,
            interior: view.interior,
        }
    }
}

/// One decoded slice: its slots, and its sealed memo table when it took
/// the memo path.
struct ShardPass<Out> {
    run: ShardRun<Out>,
    memo: Option<ShardMemo<Out>>,
}

/// Memoized sharded execution over provider-materialized slices — the
/// one sharded driver.
///
/// `slice_of` is called exactly once per shard, in schedule order, and at
/// most `opts.resident` slices are alive at a time. Each wave decodes its
/// slices in parallel (behind the `parallel` feature, sequentially
/// otherwise) through the per-shard runners: the planner picks memo or
/// plain per slice when `opts.plan_schema` is set, and a truncated
/// slice's ladder is capped at `opts.halo_radius − 1`. Sealed memo tables
/// merge in schedule order; while `resident < k` each one first takes the
/// spill round trip. Outputs and [`RoundStats`] are bit-identical to the
/// monolithic executors whenever the provider's slices match
/// [`ShardView`]s of some partition.
///
/// `replay_net` is invoked only on the error path: first-error payloads
/// address exact radii on the full graph, so the one failing node replays
/// there. Providers for instances that cannot materialize the full
/// network may panic in that closure; they then trade typed first-error
/// payloads for boundedness.
///
/// # Errors
///
/// The first failing node's own error (in node-index order), a
/// [`NotOrderInvariant`] conflict within or across shards, a
/// [`HaloExceeded`] ladder, or a [`SpillError`] from the scratch store.
///
/// # Panics
///
/// Panics if `opts.halo_radius` is 0, the schedule is not a permutation
/// of `0..k`, a slice's metadata is inconsistent, or the slices'
/// interiors fail to partition `0..n`.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded_stream_memo_fallible<In, Out, E, N>(
    n: usize,
    k: usize,
    opts: &ShardOpts,
    initial_radius: usize,
    mut slice_of: impl FnMut(usize) -> ShardSlice<In>,
    replay_net: impl FnOnce() -> N,
    input_tag: impl Fn(&In, &mut Vec<u64>) + Sync,
    step: impl Fn(&Ball<In>) -> Result<MemoStep<Out>, E> + Sync,
) -> Result<(Vec<Out>, RoundStats), E>
where
    In: Clone + Send + Sync,
    Out: Clone + PartialEq + Spillable + Send,
    E: From<NotOrderInvariant> + From<HaloExceeded> + From<SpillError> + Send,
    N: Borrow<Network<In>>,
{
    assert!(opts.halo_radius >= 1, "halo_radius must be at least 1");
    let schedule = opts.schedule_for(k);
    let resident = opts.resident.clamp(1, k.max(1));
    let store: Option<SpillStore> = if resident < k {
        let st = match &opts.spill_dir {
            Some(dir) => SpillStore::open(dir),
            None => SpillStore::temp(),
        };
        Some(st.map_err(|e| SpillError::io("opening the scratch directory".into(), e))?)
    } else {
        None
    };

    let mut run = ShardRun {
        outs: std::iter::repeat_with(|| None).take(n).collect(),
        per_node: vec![0; n],
        failed: Vec::new(),
        stats: MemoStats::default(),
    };
    let mut merge: MemoMerge<Out> = MemoMerge::new();
    // Which global nodes some slice's interior has claimed so far.
    let mut claimed = vec![false; n];
    for wave in schedule.chunks(resident) {
        let slices: Vec<ShardSlice<In>> = wave
            .iter()
            .map(|&s| {
                let slice = slice_of(s);
                assert_eq!(slice.shard, s, "provider returned the wrong shard");
                let m = slice.members.len();
                assert_eq!(slice.interior.len(), m, "one interior flag per member");
                assert_eq!(slice.net.graph().n(), m, "local network covers the members");
                slice
            })
            .collect();
        let passes: Vec<Result<ShardPass<Out>, E>> = par_map(&slices, |_, slice| {
            let cap = (!slice.complete).then(|| opts.halo_radius - 1);
            let memo_path = opts.plan_schema.as_ref().is_none_or(|schema| {
                plan_decode(&slice.net, initial_radius, &input_tag, schema, None).path
                    == ExecPath::Memo
            });
            if memo_path {
                let (run, memo) = run_shard_memo_fallible(
                    &slice.net,
                    &slice.interior,
                    slice.shard,
                    cap,
                    initial_radius,
                    &input_tag,
                    &step,
                )?;
                Ok(ShardPass {
                    run,
                    memo: Some(memo),
                })
            } else {
                let run = run_shard_plain_fallible(
                    &slice.net,
                    &slice.interior,
                    slice.shard,
                    cap,
                    initial_radius,
                    &step,
                )?;
                Ok(ShardPass { run, memo: None })
            }
        });
        for (slice, pass) in slices.iter().zip(passes) {
            let absorbed = pass.and_then(|pass| {
                run.stats.accumulate(&pass.run.stats);
                run.failed
                    .extend(pass.run.failed.iter().map(|&lf| slice.members[lf].index()));
                for (li, out) in pass.run.outs.into_iter().enumerate() {
                    if slice.interior[li] {
                        let gv = slice.members[li].index();
                        assert!(
                            !std::mem::replace(&mut claimed[gv], true),
                            "slice interiors overlap: shard {} claims node {gv}, which an \
                             earlier slice already owns",
                            slice.shard,
                        );
                        run.per_node[gv] = pass.run.per_node[li];
                        run.outs[gv] = out;
                    }
                }
                match (pass.memo, &store) {
                    (None, _) => Ok(()),
                    (Some(memo), None) => Ok(merge.absorb(memo)?),
                    (Some(memo), Some(st)) => spill_absorb(st, slice.shard, memo, &mut merge),
                }
            });
            if let Err(e) = absorbed {
                flush_memo_stats(&run.stats);
                return Err(e);
            }
        }
    }
    flush_memo_stats(&run.stats);
    if let Some(gv) = claimed.iter().position(|&c| !c) {
        panic!("slice interiors do not cover node {gv}: no shard claims it");
    }
    memo_finish(run, replay_net, initial_radius, &input_tag, &step)
}

/// Folds a sealed table in through the full spill round trip (serialize
/// → disk → parse), so the serialized path runs whenever `R < K` and the
/// resident set holds one serialized table at a time.
fn spill_absorb<Out, E>(
    st: &SpillStore,
    shard: usize,
    memo: ShardMemo<Out>,
    merge: &mut MemoMerge<Out>,
) -> Result<(), E>
where
    Out: Spillable + PartialEq,
    E: From<NotOrderInvariant> + From<SpillError>,
{
    st.save(SpillKind::Memo, shard, &memo.into_words())
        .map_err(|e| SpillError::io(format!("saving shard {shard}'s memo table"), e))?;
    let words = st
        .load(SpillKind::Memo, shard)
        .map_err(|e| SpillError::io(format!("loading shard {shard}'s memo table"), e))?;
    merge.absorb_words(&words)
}

// ---------------------------------------------------------------------------
// Sharded message routing
// ---------------------------------------------------------------------------

/// Traffic counters for a [`ShardedTransport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTrafficStats {
    /// Messages delivered directly (sender and receiver in one shard).
    pub intra_messages: u64,
    /// Messages that crossed a shard boundary through a mailbox.
    pub cross_messages: u64,
    /// Non-empty `(src_shard, dst_shard)` mailboxes flushed.
    pub flushes: u64,
    /// Most messages queued in mailboxes at once (per-round high water).
    pub mailbox_peak: u64,
}

/// Adapts any [`Transport`] to shard-at-a-time processing: messages whose
/// sender and receiver share a shard are routed directly while the shard
/// is current; cross-shard messages queue in per-`(src_shard, dst_shard)`
/// mailboxes and are flushed when the schedule switches to the receiving
/// shard.
///
/// Every inbox slot has exactly one sending edge, so the re-routing is a
/// permutation of delivery order within the round — delivered inboxes are
/// **bit-identical** to the inner transport's, and fault plans compose
/// unchanged (drops, duplicates, delays, and crashes all happen inside
/// the wrapped transport before routing).
#[derive(Debug, Clone)]
pub struct ShardedTransport<T> {
    inner: T,
    part: Partition,
    schedule: Vec<usize>,
    nodes_by_shard: Vec<Vec<NodeId>>,
    stats: ShardTrafficStats,
}

impl<T> ShardedTransport<T> {
    /// Wraps `inner`, processing shards in id order.
    pub fn new(inner: T, part: Partition) -> Self {
        let schedule = (0..part.k()).collect();
        ShardedTransport::with_schedule(inner, part, schedule)
    }

    /// Wraps `inner` with an explicit shard schedule.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` is not a permutation of `0..part.k()`.
    pub fn with_schedule(inner: T, part: Partition, schedule: Vec<usize>) -> Self {
        check_schedule(&schedule, part.k());
        let nodes_by_shard = (0..part.k()).map(|s| part.shard_nodes(s)).collect();
        ShardedTransport {
            inner,
            part,
            schedule,
            nodes_by_shard,
            stats: ShardTrafficStats::default(),
        }
    }

    /// Traffic counters accumulated so far.
    pub fn traffic(&self) -> ShardTrafficStats {
        self.stats
    }

    /// Unwraps the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<Msg: Clone, T: Transport<Msg>> Transport<Msg> for ShardedTransport<T> {
    fn exchange(&mut self, g: &Graph, round: usize, outboxes: &[Vec<Msg>]) -> Vec<Vec<Vec<Msg>>> {
        assert_eq!(self.part.n(), g.n(), "partition does not match the graph");
        let mut delivered = self.inner.exchange(g, round, outboxes);
        let k = self.part.k();
        let mut inboxes: Vec<Vec<Vec<Msg>>> = delivered
            .iter()
            .map(|slots| vec![Vec::new(); slots.len()])
            .collect();
        // Pass 1 — process shards in schedule order: deliver intra-shard
        // slots directly, queue cross-shard slots in (src, dst) mailboxes.
        let mut mailboxes: Vec<Vec<(NodeId, usize)>> = vec![Vec::new(); k * k];
        let mut queued: u64 = 0;
        for &dst in &self.schedule {
            for &v in &self.nodes_by_shard[dst] {
                for (port, &u) in g.neighbors(v).iter().enumerate() {
                    let src = self.part.owner(u);
                    if src == dst {
                        let msgs = std::mem::take(&mut delivered[v.index()][port]);
                        self.stats.intra_messages += msgs.len() as u64;
                        inboxes[v.index()][port] = msgs;
                    } else {
                        queued += delivered[v.index()][port].len() as u64;
                        mailboxes[src * k + dst].push((v, port));
                    }
                }
            }
        }
        self.stats.mailbox_peak = self.stats.mailbox_peak.max(queued);
        // Pass 2 — flush: when the schedule switches to shard `dst`, drain
        // every mailbox addressed to it, in schedule order of the source.
        for &dst in &self.schedule {
            for &src in &self.schedule {
                let slots = std::mem::take(&mut mailboxes[src * k + dst]);
                if slots.is_empty() {
                    continue;
                }
                self.stats.flushes += 1;
                for (v, port) in slots {
                    let msgs = std::mem::take(&mut delivered[v.index()][port]);
                    self.stats.cross_messages += msgs.len() as u64;
                    inboxes[v.index()][port] = msgs;
                }
            }
        }
        inboxes
    }

    fn is_crashed(&self, v: NodeId, round: usize) -> bool {
        self.inner.is_crashed(v, round)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_local_memo_fallible, MemoStep};
    use crate::transport::PerfectLink;
    use lad_graph::generators;

    /// Error enum for tests exercising every failure mode.
    #[derive(Debug, PartialEq)]
    enum ShardDecodeError {
        Conflict(NotOrderInvariant),
        Halo(HaloExceeded),
        Spill(SpillError),
    }

    impl From<NotOrderInvariant> for ShardDecodeError {
        fn from(c: NotOrderInvariant) -> Self {
            ShardDecodeError::Conflict(c)
        }
    }

    impl From<HaloExceeded> for ShardDecodeError {
        fn from(h: HaloExceeded) -> Self {
            ShardDecodeError::Halo(h)
        }
    }

    impl From<SpillError> for ShardDecodeError {
        fn from(e: SpillError) -> Self {
            ShardDecodeError::Spill(e)
        }
    }

    /// An order-invariant ladder step: expand to radius 2, then output a
    /// statistic of the ball's canonical content (sizes, degrees, inputs
    /// weighted by distance) — a pure function of the isomorphism class.
    fn ball_stat_step(ball: &Ball<u32>) -> Result<MemoStep<u64>, ShardDecodeError> {
        if ball.radius() < 2 {
            return Ok(MemoStep::Expand(2));
        }
        let mut acc = ball.n() as u64;
        for i in 0..ball.n() {
            let v = NodeId::from_index(i);
            acc += u64::from(*ball.input(v)) * 31
                + ball.global_degree(v) as u64 * 7
                + ball.dist(v) as u64;
        }
        Ok(MemoStep::Done(acc))
    }

    fn tag(x: &u32, words: &mut Vec<u64>) {
        words.push(u64::from(*x));
    }

    fn net(g: Graph) -> Network<u32> {
        let inputs = (0..g.n() as u32).map(|i| i % 5).collect();
        let ids = IdAssignment::from_uids(
            (0..g.n() as u64)
                .map(|i| (i * 7) % (g.n() as u64 * 7) + 1)
                .collect(),
        );
        Network::new(g, ids, inputs)
    }

    #[test]
    fn sharded_matches_unsharded_memo() {
        let g = generators::cycle(40);
        let net = net(g);
        let reference =
            run_local_memo_fallible(&net, 1, tag, ball_stat_step).expect("reference decodes");
        for k in [1usize, 2, 3, 5] {
            for resident in [1usize, 2, usize::MAX] {
                let part = Partition::contiguous(40, k);
                let opts = ShardOpts::new(4).resident(resident);
                let got = run_sharded_memo_fallible(&net, &part, &opts, 1, tag, ball_stat_step)
                    .expect("sharded decodes");
                assert_eq!(got, reference, "k={k} resident={resident}");
            }
        }
    }

    #[test]
    fn sharded_is_schedule_invariant() {
        let g = generators::grid2d(6, 5, false);
        let net = net(g);
        let part = Partition::bfs_grown(net.graph(), 4);
        let forward = ShardOpts::new(5).schedule(vec![0, 1, 2, 3]).resident(2);
        let reverse = ShardOpts::new(5).schedule(vec![3, 2, 1, 0]).resident(2);
        let a = run_sharded_memo_fallible(&net, &part, &forward, 1, tag, ball_stat_step)
            .expect("forward decodes");
        let b = run_sharded_memo_fallible(&net, &part, &reverse, 1, tag, ball_stat_step)
            .expect("reverse decodes");
        assert_eq!(a, b);
    }

    #[test]
    fn stream_driver_halo_cap_still_bites() {
        let g = generators::cycle(24);
        let network = net(g);
        let part = Partition::contiguous(24, 4);
        // Ladder needs radius 2; halo 2 caps truncated slices at 1.
        let opts = ShardOpts::new(2);
        let mut slices: Vec<Option<ShardSlice<u32>>> = (0..4)
            .map(|s| {
                let view = ShardView::build(network.graph(), &part, s, 2);
                Some(ShardSlice::from_view(&network, view))
            })
            .collect();
        let got = run_sharded_stream_memo_fallible(
            24,
            4,
            &opts,
            1,
            |s| slices[s].take().expect("each shard requested once"),
            || -> Network<u32> { unreachable!("halo errors do not replay") },
            tag,
            ball_stat_step,
        );
        match got {
            Err(ShardDecodeError::Halo(h)) => {
                assert_eq!(h.halo_radius, 2);
                assert_eq!(h.requested, 2);
            }
            other => panic!("expected a halo error, got {other:?}"),
        }
    }

    #[test]
    fn halo_too_shallow_is_a_typed_error() {
        let g = generators::cycle(24);
        let net = net(g);
        let part = Partition::contiguous(24, 4);
        // Ladder needs radius 2; halo 2 caps it at 1.
        let opts = ShardOpts::new(2);
        let err = run_sharded_memo_fallible(&net, &part, &opts, 1, tag, ball_stat_step)
            .map(|_| ())
            .expect_err("halo 2 cannot serve radius 2");
        match err {
            ShardDecodeError::Halo(h) => {
                assert_eq!(h.requested, 2);
                assert_eq!(h.halo_radius, 2);
            }
            other => panic!("expected HaloExceeded, got {other:?}"),
        }
    }

    #[test]
    fn spill_store_rejects_foreign_files() {
        let store = SpillStore::temp().expect("temp store");
        store.save(SpillKind::Memo, 2, &[1, 2, 3]).expect("save");
        // A file for another shard is rejected.
        assert!(store.load(SpillKind::Memo, 3).is_err());
        // A file with a foreign kind tag (and a checksum that matches it)
        // is rejected.
        let path = store.dir().join("memo-2.lsp");
        let pristine = std::fs::read(&path).expect("read raw");
        let mut foreign = pristine.clone();
        foreign[12..16].copy_from_slice(&3u32.to_le_bytes());
        let body = foreign.len() - 8;
        let checksum = crate::store::fold_bytes(&foreign[..body]);
        foreign[body..].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &foreign).expect("write foreign tag");
        let err = store.load(SpillKind::Memo, 2).expect_err("foreign kind");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("kind"), "{err}");
        // A tampered version header is rejected.
        let mut bytes = pristine;
        bytes[8] ^= 0xFF;
        std::fs::write(&path, bytes).expect("tamper");
        let err = store
            .load(SpillKind::Memo, 2)
            .expect_err("version mismatch");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn memo_tables_survive_the_spill_round_trip() {
        let g = generators::cycle(32);
        let network = net(g);
        let part = Partition::contiguous(32, 2);
        let mut direct: MemoMerge<u64> = MemoMerge::new();
        let mut via_disk: MemoMerge<u64> = MemoMerge::new();
        let store = SpillStore::temp().expect("temp store");
        for s in 0..2 {
            let view = ShardView::build(network.graph(), &part, s, 4);
            let slice = ShardSlice::from_view(&network, view);
            let cap = (!slice.complete).then_some(3);
            let decode = || {
                run_shard_memo_fallible::<_, _, ShardDecodeError>(
                    &slice.net,
                    &slice.interior,
                    s,
                    cap,
                    1,
                    &tag,
                    &ball_stat_step,
                )
                .expect("shard decodes")
                .1
            };
            let words = decode().into_words();
            store.save(SpillKind::Memo, s, &words).expect("save");
            via_disk
                .absorb_words::<ShardDecodeError>(&store.load(SpillKind::Memo, s).expect("load"))
                .expect("absorb from disk");
            direct.absorb(decode()).expect("absorb direct");
        }
        assert_eq!(direct.class_count(), via_disk.class_count());
    }

    #[test]
    fn corrupt_memo_words_are_a_typed_error() {
        let network = net(generators::cycle(12));
        let interior = vec![true; 12];
        let (_, memo) = run_shard_memo_fallible::<_, _, ShardDecodeError>(
            &network,
            &interior,
            0,
            None,
            1,
            &tag,
            &ball_stat_step,
        )
        .expect("decodes");
        let words = memo.into_words();
        let mut trailing = words.clone();
        trailing.push(0);
        let mut bad_verdict = words.clone();
        let verdict = 2 + words[1] as usize;
        bad_verdict[verdict] = 7;
        for (what, bad) in [
            ("empty", Vec::new()),
            ("truncated", words[..words.len() - 1].to_vec()),
            ("trailing", trailing),
            ("bad verdict", bad_verdict),
        ] {
            let got = MemoMerge::<u64>::new().absorb_words::<ShardDecodeError>(&bad);
            match got {
                Err(ShardDecodeError::Spill(e)) => {
                    assert_eq!(e.kind, io::ErrorKind::InvalidData, "{what}")
                }
                other => panic!("{what}: expected a spill error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sharded_transport_delivers_bit_identically() {
        let g = generators::grid2d(5, 4, false);
        let part = Partition::contiguous(g.n(), 3);
        let outboxes: Vec<Vec<u64>> = g
            .nodes()
            .map(|v| {
                (0..g.degree(v))
                    .map(|p| (v.index() as u64) << 8 | p as u64)
                    .collect()
            })
            .collect();
        let want = PerfectLink.exchange(&g, 0, &outboxes);
        let mut sharded = ShardedTransport::new(PerfectLink, part.clone());
        let got = sharded.exchange(&g, 0, &outboxes);
        assert_eq!(got, want);
        let t = sharded.traffic();
        assert!(t.cross_messages > 0, "a 3-shard grid must cross shards");
        assert_eq!(
            t.intra_messages + t.cross_messages,
            2 * g.m() as u64,
            "every directed edge carries one message"
        );
        // An alternate schedule delivers the same inboxes.
        let mut reversed = ShardedTransport::with_schedule(PerfectLink, part, vec![2, 1, 0]);
        assert_eq!(reversed.exchange(&g, 0, &outboxes), want);
    }
}
