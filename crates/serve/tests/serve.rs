//! End-to-end serving tests: served answers match live decoding, stale
//! or mismatched dictionaries produce typed errors (never wrong
//! answers), and the whole stack round-trips over TCP.

use lad_core::{ball_to_words, by_name, train_store};
use lad_graph::{generators, IdAssignment};
use lad_runtime::store::{ClassStore, SchemaId};
use lad_runtime::{Ball, ClassVerdict, MemoStep, Network};
use lad_serve::protocol::{BatchResult, ERR_MALFORMED_QUERY, ERR_STALE_DICTIONARY};
use lad_serve::{Client, DecodeServer, ServeError};
use std::net::TcpListener;
use std::sync::{Arc, Barrier};

fn balanced_net(seed: u64) -> Network {
    let g = generators::random_even_degree(24, 3, 6, seed);
    let n = g.n();
    Network::with_ids(g, IdAssignment::random_permutation(n, seed ^ 0xFEED))
}

fn balanced_server(append: bool) -> DecodeServer {
    let schema = by_name("balanced").expect("registered");
    let training: Vec<Network> = (1..=3).map(balanced_net).collect();
    let store = train_store(&*schema, &training).expect("training");
    DecodeServer::new(schema, store, append).expect("schemas match")
}

/// Serialized query balls for every node of an (advised) network.
fn queries_for(net: &Network, radius: usize) -> Vec<Vec<u64>> {
    let schema = by_name("balanced").expect("registered");
    let advice = schema.encode_advice(net).expect("even degrees encode");
    let advised = net.with_inputs(advice.strings());
    net.graph()
        .nodes()
        .map(|v| ball_to_words(&Ball::collect(&advised, v, radius)))
        .collect()
}

#[test]
fn served_answers_match_live_decoding() {
    let server = balanced_server(false);
    let schema = by_name("balanced").expect("registered");
    let fresh = balanced_net(77);
    let advice = schema.encode_advice(&fresh).expect("encode");
    let advised = fresh.with_inputs(advice.strings());
    let queries = queries_for(&fresh, server.radius());
    let slices: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
    let results = server.handle_batch(&slices);
    assert_eq!(results.len(), fresh.graph().n());
    for (v, result) in fresh.graph().nodes().zip(&results) {
        let ball = Ball::collect(&advised, v, server.radius());
        let MemoStep::Done(words) = schema.eval(&ball).expect("live eval") else {
            panic!("balanced ladder has no Expand rungs");
        };
        let live = schema.bind(&ball, &words).expect("live bind");
        assert_eq!(
            result,
            &BatchResult::Answer(live),
            "served answer diverged from live decode at {v:?}"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.errors, 0);
    assert!(stats.verified > 0, "first hits must be verified");
}

#[test]
fn tampered_dictionary_yields_typed_stale_errors_not_wrong_answers() {
    let schema = by_name("balanced").expect("registered");
    let training: Vec<Network> = (1..=3).map(balanced_net).collect();
    let honest = train_store(&*schema, &training).expect("training");
    // A stale dictionary: same identity, every verdict subtly wrong.
    let mut tampered = ClassStore::new(honest.schema().clone(), honest.radius());
    for (key, verdict) in honest.iter() {
        let wrong = match verdict {
            ClassVerdict::Done(words) => {
                let mut w = words.clone();
                w.push(0); // still word-shaped, no longer what eval produces
                ClassVerdict::Done(w)
            }
            other => other.clone(),
        };
        tampered.insert(key.clone(), wrong).expect("fresh store");
    }
    let server = DecodeServer::new(schema, tampered, false).expect("identity still matches");
    let fresh = balanced_net(1); // training net: every query hits
    let queries = queries_for(&fresh, server.radius());
    let slices: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
    for result in server.handle_batch(&slices) {
        match result {
            BatchResult::ServerError { code, .. } => assert_eq!(code, ERR_STALE_DICTIONARY),
            other => panic!("tampered dictionary produced {other:?} instead of a typed error"),
        }
    }
}

#[test]
fn mismatched_schema_identity_is_refused_at_construction() {
    let schema = by_name("balanced").expect("registered");
    let alien = ClassStore::<Vec<u64>>::new(SchemaId::new("balanced", 0xDEAD_BEEF), 3);
    match DecodeServer::new(schema, alien, false) {
        Err(ServeError::SchemaMismatch { found, expected }) => {
            assert_ne!(found, expected);
        }
        Ok(_) => panic!("mismatched dictionary accepted"),
        Err(e) => panic!("wrong error: {e}"),
    }
}

#[test]
fn misses_fall_through_to_live_evaluation_and_append_back() {
    let schema = by_name("balanced").expect("registered");
    let empty = ClassStore::new(schema.schema_id(), schema.initial_radius());
    let server = DecodeServer::new(schema, empty, true).expect("schemas match");
    assert_eq!(server.class_count(), 0);
    let fresh = balanced_net(5);
    let queries = queries_for(&fresh, server.radius());
    let slices: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
    for result in server.handle_batch(&slices) {
        assert!(
            matches!(result, BatchResult::Answer(_)),
            "miss fall-through failed: {result:?}"
        );
    }
    // Within the batch, once a class is appended its later siblings hit.
    let after_first = server.stats();
    assert_eq!(after_first.hits + after_first.misses, queries.len() as u64);
    assert!(after_first.misses > 0, "an empty dictionary must miss");
    assert!(server.class_count() > 0, "append-back stored nothing");
    assert_eq!(after_first.appended, server.class_count() as u64);
    // The same batch again is all hits: nothing new is appended.
    let second = server.handle_batch(&slices);
    assert!(second.iter().all(|r| matches!(r, BatchResult::Answer(_))));
    let after_second = server.stats();
    assert_eq!(after_second.hits, after_first.hits + queries.len() as u64);
    assert_eq!(after_second.misses, after_first.misses);
    assert_eq!(after_second.appended, after_first.appended);
}

#[test]
fn concurrent_hits_of_one_class_verify_on_powers_of_two() {
    let server = balanced_server(false);
    // A training-network query: its class is in the dictionary.
    let query = queries_for(&balanced_net(1), server.radius()).swap_remove(0);
    let batch: Vec<&[u64]> = vec![query.as_slice(); 16];
    // 64 hits of the one class, in four batches issued at the same time.
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                start.wait();
                let results = server.handle_batch(&batch);
                assert!(results.iter().all(|r| matches!(r, BatchResult::Answer(_))));
            });
        }
    });
    let stats = server.stats();
    assert_eq!((stats.hits, stats.misses, stats.errors), (64, 0, 0));
    // Hits 1, 2, 4, 8, 16, 32 and 64: each count is handed out once.
    assert_eq!(stats.verified, 7);
}

#[test]
fn cluster_expand_rungs_surface_as_need_radius() {
    let schema = by_name("cluster").expect("registered");
    let empty = ClassStore::new(schema.schema_id(), schema.initial_radius());
    let server = DecodeServer::new(schema, empty, true).expect("schemas match");
    let schema = by_name("cluster").expect("registered");
    let net = Network::with_ids(
        generators::cycle(48),
        IdAssignment::random_permutation(48, 3),
    );
    let advice = schema.encode_advice(&net).expect("encode");
    let advised = net.with_inputs(advice.strings());
    let queries: Vec<Vec<u64>> = net
        .graph()
        .nodes()
        .map(|v| ball_to_words(&Ball::collect(&advised, v, server.radius())))
        .collect();
    let slices: Vec<&[u64]> = queries.iter().map(Vec::as_slice).collect();
    let results = server.handle_batch(&slices);
    let mut answered = 0usize;
    for (v, result) in net.graph().nodes().zip(results) {
        match result {
            BatchResult::Answer(_) => answered += 1,
            BatchResult::NeedRadius(r) => {
                assert!(r > server.radius(), "escalation must deepen the view");
                // Re-query with the deeper ball: the ladder resolves.
                let deeper = ball_to_words(&Ball::collect(&advised, v, r));
                let rung = server.handle_batch(&[&deeper]);
                assert!(
                    matches!(rung[0], BatchResult::Answer(_) | BatchResult::NeedRadius(_)),
                    "deeper query failed at {v:?}: {:?}",
                    rung[0]
                );
            }
            BatchResult::ServerError { code, message } => {
                panic!("cluster query failed at {v:?}: error {code}: {message}")
            }
        }
    }
    assert!(answered > 0, "no cluster query resolved");
}

#[test]
fn tcp_round_trip_serves_batches_info_and_shutdown() {
    let server = Arc::new(balanced_server(false));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let handle = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve_tcp(&listener))
    };

    let mut client = Client::connect(addr).expect("connect");
    let info = client.info().expect("info");
    assert!(
        info.name.starts_with("balanced-orientation"),
        "unexpected name {:?}",
        info.name
    );
    assert_eq!(info.classes, server.class_count());
    assert_eq!(info.radius, server.radius());

    let fresh = balanced_net(31);
    let queries = queries_for(&fresh, info.radius);
    let results = client.batch(&queries).expect("batch");
    assert_eq!(results.len(), queries.len());
    assert!(results.iter().all(|r| matches!(r, BatchResult::Answer(_))));

    // A malformed query gets a typed per-query error; the connection (and
    // the rest of the batch) survives.
    let mut mixed = queries[..2].to_vec();
    mixed.push(vec![999, 0, 0]);
    let results = client.batch(&mixed).expect("batch with bad query");
    assert!(matches!(results[0], BatchResult::Answer(_)));
    assert!(matches!(results[1], BatchResult::Answer(_)));
    match &results[2] {
        BatchResult::ServerError { code, .. } => assert_eq!(*code, ERR_MALFORMED_QUERY),
        other => panic!("malformed query produced {other:?}"),
    }

    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("server thread").expect("clean exit");
}
