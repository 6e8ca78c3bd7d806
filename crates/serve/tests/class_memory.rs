//! Heap cost of a class appended to the decode server's dictionary. A
//! stream of never-seen queries with append-back grows the dictionary by
//! one class per query; each class should cost about its key words plus a
//! small constant, so the growth is measured against the keys' own size.
//!
//! This binary holds one test, so the counting allocator sees it alone.

use lad_core::{ball_to_words, by_name, query_key, train_store, ServedSchema};
use lad_graph::{generators, IdAssignment};
use lad_runtime::{Ball, CanonScratch, MemoStep, Network};
use lad_serve::protocol::BatchResult;
use lad_serve::DecodeServer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// The system allocator, tracking the bytes currently allocated.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the tally is one atomic add and
// allocates nothing.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

/// `count` disjoint `len`-cycles under one random ID permutation.
fn cycles(count: usize, len: usize, seed: u64) -> Network {
    let g = generators::disjoint_union(&vec![generators::cycle(len); count]);
    let n = g.n();
    Network::with_ids(g, IdAssignment::random_permutation(n, seed))
}

/// A query resolved on the client: the ball at the radius where its class
/// answers, the answer a live `eval` + `bind` gives, and its key's length.
struct Fresh {
    words: Vec<u64>,
    expected: Vec<u64>,
    key_words: usize,
}

/// Every node of four never-seen random-ID 48-cycles, resolved on the
/// client (one refill of the serve-fresh workload).
fn fresh_queries(schema: &dyn ServedSchema, seed: u64) -> Vec<Fresh> {
    let net = cycles(4, 48, seed);
    let advice = schema.encode_advice(&net).expect("cycles encode");
    let advised = net.with_inputs(advice.strings());
    let mut scratch = CanonScratch::new();
    net.graph()
        .nodes()
        .map(|v| {
            let mut radius = schema.initial_radius();
            loop {
                let ball = Ball::collect(&advised, v, radius);
                match schema.eval(&ball).expect("honest advice decodes") {
                    MemoStep::Done(class) => {
                        return Fresh {
                            words: ball_to_words(&ball),
                            expected: schema.bind(&ball, &class).expect("binds"),
                            key_words: query_key(&ball, &mut scratch).words().len(),
                        };
                    }
                    MemoStep::Expand(r) => radius = r,
                }
            }
        })
        .collect()
}

#[test]
fn appended_classes_cost_their_key_words() {
    let schema = by_name("cluster").expect("registered");
    let store = train_store(&*schema, &[cycles(3, 40, 0x7EA1)]).expect("training");
    let server = DecodeServer::new(by_name("cluster").expect("registered"), store, true)
        .expect("schemas match");
    let mut scratch = CanonScratch::new();
    // Streams one refill; returns the key words of the classes it appended.
    let mut refill = 0u64;
    let mut stream = |server: &DecodeServer| {
        refill += 1;
        let mut appended_words = 0usize;
        for q in fresh_queries(&*schema, 0xF00D ^ refill) {
            let before = server.stats().appended;
            let result = server.answer_query(&q.words, &mut scratch);
            assert_eq!(result, BatchResult::Answer(q.expected));
            if server.stats().appended > before {
                appended_words += q.key_words;
            }
        }
        appended_words
    };
    // The first refill sizes every reusable buffer before the baseline.
    stream(&server);
    let (base_live, base_classes) = (LIVE.load(Ordering::Relaxed), server.stats().appended);
    let mut key_words = 0usize;
    while server.stats().appended - base_classes < 3_000 {
        key_words += stream(&server);
    }
    let growth = LIVE.load(Ordering::Relaxed) - base_live;
    let classes = server.stats().appended - base_classes;
    let per_class = growth as f64 / classes as f64;
    let mean_key_words = key_words as f64 / classes as f64;
    assert!(
        per_class <= 8.0 * mean_key_words + 256.0,
        "{per_class:.0} heap bytes per appended class for {mean_key_words:.1} key words \
         ({classes} classes)"
    );
    // Key layout v2 writes these balls' byte-sized fields as one-byte
    // varints: about 17 words a key and 212 bytes a class (layout v1 spent
    // a word a field: 92.4 words and 815 bytes).
    assert!(
        mean_key_words <= 20.0,
        "{mean_key_words:.2} key words per appended class ({classes} classes)"
    );
    assert!(
        per_class <= 320.0,
        "{per_class:.1} heap bytes per appended class ({classes} classes)"
    );
}
