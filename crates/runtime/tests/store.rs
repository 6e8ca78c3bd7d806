//! Persistent class store: round-trip fidelity and corruption hardening.
//!
//! Three contracts, each enforced differentially:
//!
//! * **Round trip.** A store built from *live* sealed memo tables
//!   (produced by the real memo tile loop over a generator grid)
//!   answers every query identically after save + reload, and
//!   re-serializing the reloaded store reproduces the file byte for byte
//!   (serialization is deterministic: entries are written in canonical
//!   key order).
//! * **Corruption.** Every single-byte flip and every truncation of a
//!   valid store file yields a typed error. Exhaustive sweeps cover every byte position; proptest
//!   adds random multi-byte corruptions. Nothing panics, nothing is
//!   silently accepted.
//! * **Format drift.** A golden store file is committed under
//!   `tests/data/`; it must open cleanly and re-serialize bit-identically.
//!   Any layout change fails this loudly, forcing a [`STORE_VERSION`]
//!   bump (regenerate with `LAD_REGEN_GOLDEN=1 cargo test golden`).

use lad_graph::{generators, IdAssignment};
use lad_runtime::store::{ClassStore, ClassVerdict, SchemaId, StoreError};
use lad_runtime::{Ball, MemoStep, Network, NotOrderInvariant, ShardMemo};
use proptest::prelude::*;

#[derive(Debug, PartialEq)]
enum TestError {
    Conflict(NotOrderInvariant),
}

impl From<NotOrderInvariant> for TestError {
    fn from(c: NotOrderInvariant) -> Self {
        TestError::Conflict(c)
    }
}

fn tag(x: &u32, words: &mut Vec<u64>) {
    words.push(u64::from(*x));
}

/// An order-invariant ladder step: views whose center input is divisible
/// by three escalate once before answering, so trained tables contain
/// `Done` entries at two radii plus `Expand` entries — every verdict
/// variant the store serializes.
fn step(ball: &Ball<u32>) -> Result<MemoStep<usize>, TestError> {
    if ball.input(ball.center()).is_multiple_of(3) && ball.radius() < 2 {
        return Ok(MemoStep::Expand(2));
    }
    Ok(MemoStep::Done(
        ball.n() + *ball.input(ball.center()) as usize,
    ))
}

fn net(g: lad_graph::Graph, seed: u64) -> Network<u32> {
    let inputs: Vec<u32> = (0..g.n())
        .map(|i| (i as u32).wrapping_mul(7) % 13)
        .collect();
    let ids = IdAssignment::random_permutation(g.n(), seed);
    Network::with_ids(g.clone(), ids).with_inputs(inputs)
}

fn schema() -> SchemaId {
    SchemaId::new("store-test-step", 3)
}

/// Trains a store from live sealed memo tables across a small generator
/// grid (cached — the corruption sweeps and proptest cases reuse one
/// training run).
fn trained_store() -> &'static ClassStore<usize> {
    static STORE: std::sync::OnceLock<ClassStore<usize>> = std::sync::OnceLock::new();
    STORE.get_or_init(train)
}

fn train() -> ClassStore<usize> {
    let mut store = ClassStore::new(schema(), 1);
    for g in [
        generators::cycle(24),
        generators::path(17),
        generators::grid2d(5, 6, false),
        generators::complete(5),
    ] {
        let network = net(g, 0xC0FFEE);
        let memo = ShardMemo::train(&network, 1, tag, step).expect("live memo run succeeds");
        store
            .absorb_shard_memo(memo)
            .expect("no cross-graph conflicts");
    }
    assert!(store.len() > 4, "grid should produce a non-trivial table");
    store
}

#[test]
fn live_memo_round_trips_bit_identically() {
    let store = trained_store();
    let bytes = store.to_bytes();
    let back: ClassStore<usize> =
        ClassStore::from_bytes(&bytes, Some(store.schema())).expect("valid bytes parse");
    // Every live verdict answers identically through the round trip.
    assert_eq!(back.len(), store.len());
    assert_eq!(back.radius(), store.radius());
    for (key, verdict) in store.iter() {
        assert_eq!(back.get(key), Some(verdict), "verdict drifted for {key:?}");
    }
    // Deterministic serialization: the reloaded store reproduces the
    // file byte for byte, and so does a freshly retrained one.
    assert_eq!(back.to_bytes(), bytes);
    assert_eq!(train().to_bytes(), bytes);
}

#[test]
fn store_survives_save_load_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("lad-store-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("trained.lads");
    let store = trained_store();
    store.save(&path).expect("save");
    let back: ClassStore<usize> = ClassStore::open(&path, Some(&schema())).expect("open");
    for (key, verdict) in store.iter() {
        assert_eq!(back.get(key), Some(verdict));
    }
    // Absent file is Io(NotFound) — distinguishable from corruption.
    match ClassStore::<usize>::open(dir.join("absent.lads"), Some(&schema())) {
        Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Corruption sweeps
// ---------------------------------------------------------------------------

/// A compact trained store for the exhaustive sweeps: same format, every
/// verdict variant, but few enough bytes that flipping each one (and
/// re-parsing the whole file three times per position) stays fast.
fn small_store_bytes() -> Vec<u8> {
    let mut store = ClassStore::new(schema(), 1);
    for g in [generators::cycle(12), generators::path(7)] {
        let network = net(g, 0xBEEF);
        let memo = ShardMemo::train(&network, 1, tag, step).expect("live memo run succeeds");
        store.absorb_shard_memo(memo).expect("no conflicts");
    }
    store.to_bytes()
}

/// Every single-byte flip of a valid store file must yield a typed error:
/// the format's claim is that every byte is covered by some checksum.
#[test]
fn every_byte_flip_of_a_store_file_is_rejected() {
    let bytes = small_store_bytes();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= flip;
            match ClassStore::<usize>::from_bytes(&corrupt, Some(&schema())) {
                Err(_) => {}
                Ok(_) => panic!("byte {i} flipped by {flip:#04x} was silently accepted"),
            }
        }
    }
}

/// Every truncation (and every word-misaligned length) must be rejected.
#[test]
fn every_truncation_of_a_store_file_is_rejected() {
    let bytes = small_store_bytes();
    for len in 0..bytes.len() {
        match ClassStore::<usize>::from_bytes(&bytes[..len], Some(&schema())) {
            Err(_) => {}
            Ok(_) => panic!("truncation to {len} bytes was silently accepted"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multi-byte corruptions: any number of scattered xors plus an
    /// optional truncation must yield a typed error (or, if every xor is a
    /// no-op and nothing was truncated, parse back identically).
    #[test]
    fn random_corruptions_never_panic_or_lie(
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
        cut in any::<u16>(),
    ) {
        static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let store = trained_store();
        let pristine = BYTES.get_or_init(|| store.to_bytes());
        let mut bytes = pristine.clone();
        let mut changed = false;
        for (pos, x) in &edits {
            let i = *pos as usize % bytes.len();
            bytes[i] ^= x;
            changed |= *x != 0;
        }
        let cut = cut as usize % (bytes.len() + 1);
        if cut < bytes.len() {
            bytes.truncate(cut);
            changed = true;
        }
        match ClassStore::<usize>::from_bytes(&bytes, Some(&schema())) {
            Err(_) => prop_assert!(changed, "pristine bytes failed to parse"),
            Ok(back) => {
                prop_assert!(!changed, "corrupt bytes were silently accepted");
                prop_assert_eq!(back.len(), store.len());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden file: format drift detection
// ---------------------------------------------------------------------------

/// The committed golden store must open cleanly and re-serialize
/// bit-identically. If a (deliberate) format change lands, bump
/// [`lad_runtime::STORE_VERSION`] and regenerate with
/// `LAD_REGEN_GOLDEN=1 cargo test -p lad-runtime --test store golden`.
#[test]
fn golden_store_file_round_trips_bit_identically() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden-store.lads");
    // The golden dictionary: the local-min table on identifier-permuted
    // 12-cycles, fixed seeds — deterministic content, deterministic bytes.
    let training: Vec<Network> = (0..4)
        .map(|s| {
            Network::with_ids(
                generators::cycle(12),
                IdAssignment::random_permutation(12, 7 + s),
            )
        })
        .collect();
    let mut expected = ClassStore::new(SchemaId::new("golden-local-min", 0), 1);
    for network in &training {
        for v in network.graph().nodes() {
            let ball = Ball::collect(network, v, 1);
            let me = ball.uid(ball.center());
            let key = lad_runtime::canonicalize(&ball, |_: &()| 0);
            let is_min = ball.graph().nodes().all(|u| ball.uid(u) >= me);
            expected
                .insert(key, ClassVerdict::Done(is_min))
                .expect("local-min is order-invariant");
        }
    }
    if std::env::var_os("LAD_REGEN_GOLDEN").is_some() {
        expected.save(path).expect("regenerate golden file");
    }
    let bytes = std::fs::read(path).expect(
        "golden store missing: run LAD_REGEN_GOLDEN=1 cargo test -p lad-runtime --test store golden",
    );
    let golden: ClassStore<bool> =
        ClassStore::from_bytes(&bytes, Some(expected.schema())).expect("golden file is valid");
    assert_eq!(golden.len(), expected.len());
    for (key, verdict) in expected.iter() {
        assert_eq!(golden.get(key), Some(verdict));
    }
    assert_eq!(
        golden.to_bytes(),
        bytes,
        "store serialization drifted from the committed golden file — \
         bump STORE_VERSION and regenerate"
    );
    assert_eq!(expected.to_bytes(), bytes);
}

/// A truncated write can never impersonate a finished store: saves are
/// temp-file + rename, so a crash leaves the previous file intact.
#[test]
fn interrupted_save_leaves_previous_store_intact() {
    let dir = std::env::temp_dir().join(format!("lad-store-atomic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("dict.lads");
    let store = trained_store();
    store.save(&path).expect("first save");
    let before = std::fs::read(&path).expect("read");
    // A save into an unwritable location fails without touching `path`.
    let bogus = dir.join("no-such-subdir").join("dict.lads");
    assert!(matches!(store.save(&bogus), Err(StoreError::Io(_))));
    assert_eq!(std::fs::read(&path).expect("reread"), before);
    let _ = std::fs::remove_dir_all(&dir);
}
