#![warn(missing_docs)]

//! Advice-as-a-service: a long-lived decode server over the persistent
//! class store.
//!
//! Train once, serve forever: the `lad_serve` binary loads a
//! [`ClassStore`] dictionary a single time and then answers batched
//! decode queries over a length-prefixed word protocol ([`protocol`]),
//! either on stdio or a TCP socket. The server side of the paper's
//! asymmetry — a centralized encoder that works hard once, local
//! decoders that stay cheap — becomes an operational asymmetry: training
//! cost is paid offline, serving cost is a canonical-key probe.
//!
//! Guarantees:
//!
//! * **Schema safety.** A server refuses to start on a dictionary whose
//!   [`SchemaId`] does not match the configured schema
//!   ([`ServeError::SchemaMismatch`]).
//! * **No silently wrong answers.** Stored verdicts are re-verified
//!   against live evaluation on a power-of-two schedule (the first hit of
//!   every class is always verified), and every bind cross-checks the
//!   verdict against the query ball — a stale or tampered dictionary
//!   yields [`protocol::ERR_STALE_DICTIONARY`], never garbage.
//! * **Miss fall-through.** Queries whose class is absent are evaluated
//!   live; with append-back enabled the fresh class is folded into the
//!   dictionary under the store's conflict discipline.
//! * **Batching.** [`DecodeServer::handle_batch`] splits a batch into
//!   contiguous chunks (one [`CanonScratch`] each) and runs them on the
//!   runtime's process-wide worker pool. The pool's threads are started
//!   once per process and the host's parallelism is read once, so a
//!   batch costs a queue push and a wake-up, not a thread spawn per
//!   chunk; the calling thread runs chunks too and takes back any chunk
//!   no worker has claimed yet. With `LAD_THREADS=1` the same entry point
//!   runs sequentially with identical results.

pub mod protocol;

use lad_core::{ball_from_words, query_key, ServedSchema};
use lad_runtime::store::{ClassStore, ClassVerdict, SchemaId, StoreError};
use lad_runtime::{CanonScratch, MemoStep, Run, StoreValue};
use protocol::{
    decode_batch_response, push_string, read_frame, read_string, write_frame, BatchResult,
    ERR_BAD_REQUEST, ERR_DECODE, ERR_MALFORMED_QUERY, ERR_STALE_DICTIONARY, MAX_FRAME_WORDS,
    REQ_BATCH, REQ_INFO, REQ_SHUTDOWN, RESP_BATCH, RESP_BYE, RESP_ERROR, RESP_INFO, RES_ERROR,
    RES_NEED_RADIUS, RES_OK,
};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Why a server could not be constructed or persisted.
#[derive(Debug)]
pub enum ServeError {
    /// The dictionary was trained for a different schema identity.
    SchemaMismatch {
        /// The dictionary's identity.
        found: SchemaId,
        /// The configured schema's identity.
        expected: SchemaId,
    },
    /// The underlying store failed to load or save.
    Store(StoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::SchemaMismatch { found, expected } => write!(
                f,
                "dictionary is for schema {found}, server is configured for {expected}"
            ),
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::SchemaMismatch { .. } => None,
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Monotonic serving counters (relaxed atomics; read via [`Stats`]).
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    verified: AtomicU64,
    appended: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Queries answered from the dictionary.
    pub hits: u64,
    /// Queries that fell through to live evaluation.
    pub misses: u64,
    /// Hits whose stored verdict was re-verified against live evaluation.
    pub verified: u64,
    /// Miss classes appended back into the dictionary.
    pub appended: u64,
    /// Queries that ended in a typed error.
    pub errors: u64,
}

/// A stored class output plus how often it has been served. The count
/// lives in the dictionary entry, so counting a hit needs only the
/// store's read lock; it is not part of the verdict (equality, the
/// conflict discipline and the on-disk form see the words alone).
#[derive(Debug)]
struct Served {
    words: Vec<u64>,
    hits: AtomicU64,
}

impl Served {
    fn new(words: Vec<u64>) -> Self {
        Served {
            words,
            hits: AtomicU64::new(0),
        }
    }

    /// Counts one hit; returns the words and this hit's 1-based number.
    fn hit(&self) -> (Vec<u64>, u64) {
        // Each hit gets a distinct number; the count publishes nothing.
        let count = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        (self.words.clone(), count)
    }
}

impl Clone for Served {
    fn clone(&self) -> Self {
        Served {
            words: self.words.clone(),
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for Served {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl StoreValue for Served {
    fn write_words(&self, words: &mut Vec<u64>) {
        self.words.write_words(words);
    }

    fn read_words(words: &mut std::slice::Iter<'_, u64>) -> Option<Self> {
        Vec::read_words(words).map(Served::new)
    }
}

/// A loaded dictionary plus the schema that can evaluate and bind it.
///
/// The store sits behind a `RwLock` so hit-path reads are concurrent and
/// append-back writes are exclusive; each class's hit count sits next to
/// its verdict and drives the power-of-two verification schedule.
pub struct DecodeServer {
    schema: Box<dyn ServedSchema>,
    store: RwLock<ClassStore<Served>>,
    append_misses: bool,
    counters: Counters,
}

impl DecodeServer {
    /// Wraps a dictionary, refusing one trained for a different schema.
    ///
    /// With `append_misses` set, classes discovered by live fall-through
    /// are folded back into the dictionary.
    ///
    /// # Errors
    ///
    /// [`ServeError::SchemaMismatch`] when the dictionary's identity does
    /// not equal the schema's.
    pub fn new(
        schema: Box<dyn ServedSchema>,
        store: ClassStore<Vec<u64>>,
        append_misses: bool,
    ) -> Result<Self, ServeError> {
        let expected = schema.schema_id();
        if store.schema() != &expected {
            return Err(ServeError::SchemaMismatch {
                found: store.schema().clone(),
                expected,
            });
        }
        Ok(DecodeServer {
            schema,
            store: RwLock::new(store.map_outputs(Served::new)),
            append_misses,
            counters: Counters::default(),
        })
    }

    /// The schema this server decodes for.
    pub fn schema(&self) -> &dyn ServedSchema {
        &*self.schema
    }

    /// Distinct classes currently in the dictionary.
    pub fn class_count(&self) -> usize {
        self.store.read().expect("store lock").len()
    }

    /// The dictionary's initial ladder radius (what clients should query
    /// at first).
    pub fn radius(&self) -> usize {
        self.store.read().expect("store lock").radius()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> Stats {
        Stats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            verified: self.counters.verified.load(Ordering::Relaxed),
            appended: self.counters.appended.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
        }
    }

    /// Persists the (possibly append-extended) dictionary.
    ///
    /// # Errors
    ///
    /// See [`StoreError`].
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        self.store.read().expect("store lock").save(path)?;
        Ok(())
    }

    /// Whether the `count`-th hit of a class re-verifies its stored
    /// verdict: every power of two, so the first hit is always checked
    /// and lifetime verification cost stays logarithmic per class.
    fn should_verify(count: u64) -> bool {
        count.is_power_of_two()
    }

    fn err(&self, code: u64, message: impl Into<String>) -> BatchResult {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        BatchResult::ServerError {
            code,
            message: message.into(),
        }
    }

    /// Answers one query (serialized ball words). This is the whole
    /// serving contract in one function: parse → canonical key → probe →
    /// verify-maybe → bind, with miss fall-through.
    pub fn answer_query(&self, ball_words: &[u64], scratch: &mut CanonScratch) -> BatchResult {
        let ball = match ball_from_words(ball_words) {
            Ok(ball) => ball,
            Err(e) => return self.err(ERR_MALFORMED_QUERY, e.to_string()),
        };
        let key = query_key(&ball, scratch);
        // Count a hit and clone the verdict out under the read lock, so no
        // lock is held across eval/bind.
        let stored =
            self.store
                .read()
                .expect("store lock")
                .get(&key)
                .map(|verdict| match verdict {
                    ClassVerdict::Done(served) => ClassVerdict::Done(served.hit()),
                    ClassVerdict::Expand(r) => ClassVerdict::Expand(*r),
                    ClassVerdict::Failed => ClassVerdict::Failed,
                });
        match stored {
            Some(ClassVerdict::Done((words, count))) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                if Self::should_verify(count) {
                    self.counters.verified.fetch_add(1, Ordering::Relaxed);
                    match self.schema.eval(&ball) {
                        Ok(MemoStep::Done(live)) if live == words => {}
                        Ok(_) | Err(_) => {
                            return self.err(
                                ERR_STALE_DICTIONARY,
                                "stored verdict disagrees with live evaluation — \
                                 stale or tampered dictionary",
                            );
                        }
                    }
                }
                match self.schema.bind(&ball, &words) {
                    Ok(answer) => BatchResult::Answer(answer),
                    Err(e) => self.err(
                        ERR_STALE_DICTIONARY,
                        format!("stored verdict does not bind to the query ball: {e}"),
                    ),
                }
            }
            Some(ClassVerdict::Expand(r)) => BatchResult::NeedRadius(r),
            Some(ClassVerdict::Failed) => {
                self.err(ERR_DECODE, "this class is recorded as undecodable")
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                let step = match self.schema.eval(&ball) {
                    Ok(step) => step,
                    Err(e) => return self.err(ERR_DECODE, format!("live evaluation failed: {e}")),
                };
                let verdict = match &step {
                    MemoStep::Done(words) => ClassVerdict::Done(Served::new(words.clone())),
                    MemoStep::Expand(r) => ClassVerdict::Expand(*r),
                };
                if self.append_misses {
                    let inserted = self.store.write().expect("store lock").insert(key, verdict);
                    match inserted {
                        Ok(true) => {
                            self.counters.appended.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(false) => {}
                        Err(_) => {
                            // A concurrent append resolved the same class
                            // differently — the order-invariance contract is
                            // broken, so refuse rather than pick a side.
                            return self.err(
                                ERR_STALE_DICTIONARY,
                                "live evaluation conflicts with a concurrently stored verdict",
                            );
                        }
                    }
                }
                match step {
                    MemoStep::Done(words) => match self.schema.bind(&ball, &words) {
                        Ok(answer) => BatchResult::Answer(answer),
                        Err(e) => self.err(ERR_DECODE, format!("bind failed: {e}")),
                    },
                    MemoStep::Expand(r) => BatchResult::NeedRadius(r),
                }
            }
        }
    }

    /// Answers a batch. The batch fans out in contiguous chunks over the
    /// runtime's worker pool ([`Run::map_with`] under the default spec),
    /// one [`CanonScratch`] per chunk; a one-chunk spec decodes it
    /// sequentially with identical results.
    pub fn handle_batch(&self, queries: &[&[u64]]) -> Vec<BatchResult> {
        Run::default().map_with(queries, CanonScratch::new, |scratch, _i, q| {
            self.answer_query(q, scratch)
        })
    }

    /// Handles one request frame; returns the response frame and whether
    /// the server should shut down.
    pub fn handle_request(&self, frame: &[u64]) -> (Vec<u64>, bool) {
        let error = |code: u64, msg: &str| {
            let mut resp = vec![RESP_ERROR, code];
            push_string(&mut resp, msg);
            (resp, false)
        };
        match frame.first() {
            Some(&REQ_BATCH) => {
                let Some(queries) = parse_batch_request(frame) else {
                    return error(ERR_BAD_REQUEST, "malformed batch request frame");
                };
                let results = self.handle_batch(&queries);
                let mut resp = vec![RESP_BATCH, results.len() as u64];
                for result in results {
                    match result {
                        BatchResult::Answer(words) => {
                            resp.push(RES_OK);
                            resp.push(words.len() as u64);
                            resp.extend_from_slice(&words);
                        }
                        BatchResult::NeedRadius(r) => {
                            resp.push(RES_NEED_RADIUS);
                            resp.push(r as u64);
                        }
                        BatchResult::ServerError { code, message } => {
                            resp.push(RES_ERROR);
                            resp.push(code);
                            push_string(&mut resp, &message);
                        }
                    }
                }
                (cap_response(resp, MAX_FRAME_WORDS), false)
            }
            Some(&REQ_INFO) => {
                let store = self.store.read().expect("store lock");
                let mut resp = vec![
                    RESP_INFO,
                    store.schema().digest(),
                    store.radius() as u64,
                    store.len() as u64,
                ];
                push_string(&mut resp, store.schema().name());
                (resp, false)
            }
            Some(&REQ_SHUTDOWN) => (vec![RESP_BYE], true),
            _ => error(ERR_BAD_REQUEST, "unknown request tag"),
        }
    }

    /// Serves one connection until EOF or shutdown; returns whether a
    /// shutdown was requested.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; malformed frames are answered with typed
    /// [`RESP_ERROR`] frames, not errors.
    pub fn serve_connection(&self, mut r: impl Read, mut w: impl Write) -> io::Result<bool> {
        while let Some(frame) = read_frame(&mut r)? {
            let (resp, shutdown) = self.handle_request(&frame);
            write_frame(&mut w, &resp)?;
            if shutdown {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Serves stdio until EOF or a shutdown request.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn serve_stdio(&self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.serve_connection(stdin.lock(), stdout.lock())?;
        Ok(())
    }

    /// Accepts connections until one requests shutdown. Connections are
    /// served one at a time — parallelism lives *inside* batches, where
    /// the decode work is.
    ///
    /// # Errors
    ///
    /// Propagates accept/I/O failures; a connection that drops mid-frame
    /// only ends that connection.
    pub fn serve_tcp(&self, listener: &TcpListener) -> io::Result<()> {
        for conn in listener.incoming() {
            let stream = conn?;
            let reader = stream.try_clone()?;
            match self.serve_connection(io::BufReader::new(reader), io::BufWriter::new(stream)) {
                Ok(true) => return Ok(()),
                Ok(false) => {}
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // A garbage frame poisons only its connection.
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Replaces a response exceeding the frame cap with a typed
/// [`RESP_ERROR`] frame. Without this, [`write_frame`] would refuse the
/// oversized frame with `InvalidData` and the serve loop would drop the
/// connection silently — indistinguishable from client misbehavior.
fn cap_response(resp: Vec<u64>, cap: u64) -> Vec<u64> {
    if resp.len() as u64 <= cap {
        return resp;
    }
    let mut err = vec![RESP_ERROR, ERR_BAD_REQUEST];
    push_string(&mut err, "response exceeds the frame cap — split the batch");
    err
}

/// Parses `[REQ_BATCH, count, per query: len, words…]` into query slices.
fn parse_batch_request(frame: &[u64]) -> Option<Vec<&[u64]>> {
    let mut rest = frame.get(2..)?;
    let count = usize::try_from(*frame.get(1)?).ok()?;
    if count > rest.len() {
        return None;
    }
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        let (&len, tail) = rest.split_first()?;
        let len = usize::try_from(len).ok()?;
        if len > tail.len() {
            return None;
        }
        queries.push(&tail[..len]);
        rest = &tail[len..];
    }
    if rest.is_empty() {
        Some(queries)
    } else {
        None
    }
}

/// What [`Client::info`] reports about the server's dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// The dictionary's schema name.
    pub name: String,
    /// The schema identity digest (matches [`SchemaId::digest`]).
    pub digest: u64,
    /// The initial ladder radius to query at.
    pub radius: usize,
    /// Distinct classes stored.
    pub classes: usize,
}

/// A blocking protocol client over any `Read + Write` stream.
pub struct Client<S> {
    stream: S,
}

impl Client<TcpStream> {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Self> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
        })
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-open stream.
    pub fn over(stream: S) -> Self {
        Client { stream }
    }

    fn round_trip(&mut self, request: &[u64]) -> io::Result<Vec<u64>> {
        write_frame(&mut self.stream, request)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Sends a batch of serialized query balls; returns per-query results
    /// in order.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response. Per-query failures come back
    /// as [`BatchResult::ServerError`], not as an `Err`.
    pub fn batch(&mut self, queries: &[Vec<u64>]) -> io::Result<Vec<BatchResult>> {
        let resp = self.round_trip(&protocol::encode_batch_request(queries))?;
        decode_batch_response(&resp)
    }

    /// Asks the server to describe its dictionary.
    ///
    /// # Errors
    ///
    /// I/O failure or a malformed response.
    pub fn info(&mut self) -> io::Result<ServerInfo> {
        let resp = self.round_trip(&[REQ_INFO])?;
        let mut it = resp.iter();
        if it.next() != Some(&RESP_INFO) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an info response",
            ));
        }
        let invalid = || io::Error::new(io::ErrorKind::InvalidData, "info response truncated");
        let digest = *it.next().ok_or_else(invalid)?;
        let radius = usize::try_from(*it.next().ok_or_else(invalid)?).map_err(|_| invalid())?;
        let classes = usize::try_from(*it.next().ok_or_else(invalid)?).map_err(|_| invalid())?;
        let name = read_string(&mut it)?;
        Ok(ServerInfo {
            name,
            digest,
            radius,
            classes,
        })
    }

    /// Requests shutdown; resolves once the server acknowledges.
    ///
    /// # Errors
    ///
    /// I/O failure or a response other than the shutdown acknowledgment.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let resp = self.round_trip(&[REQ_SHUTDOWN])?;
        if resp.first() == Some(&RESP_BYE) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "shutdown was not acknowledged",
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_schedule_is_first_hit_then_powers_of_two() {
        let verified: Vec<u64> = (1..=64)
            .filter(|&c| DecodeServer::should_verify(c))
            .collect();
        assert_eq!(verified, vec![1, 2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn oversized_responses_become_typed_errors_not_dropped_connections() {
        let fits = vec![RESP_BATCH, 0];
        assert_eq!(cap_response(fits.clone(), 8), fits);
        let capped = cap_response(vec![0; 9], 8);
        assert_eq!(capped[0], RESP_ERROR);
        assert_eq!(capped[1], ERR_BAD_REQUEST);
        let decoded = decode_batch_response(&capped).expect_err("typed server error");
        assert_eq!(decoded.kind(), io::ErrorKind::InvalidData);
        // The substitute frame itself always fits under the real cap.
        assert!((capped.len() as u64) < MAX_FRAME_WORDS);
    }

    #[test]
    fn batch_request_parser_rejects_malformed_frames() {
        let frame = protocol::encode_batch_request(&[vec![1, 2], vec![], vec![3]]);
        let queries = parse_batch_request(&frame).expect("well-formed");
        assert_eq!(queries, vec![&[1u64, 2][..], &[], &[3]]);
        for len in 0..frame.len() {
            // Any truncation must be rejected, never panic.
            let truncated = parse_batch_request(&frame[..len]);
            if len < frame.len() {
                assert!(truncated.is_none(), "truncation to {len} accepted");
            }
        }
        let mut trailing = frame.clone();
        trailing.push(0);
        assert!(parse_batch_request(&trailing).is_none());
        let mut huge = frame;
        huge[1] = u64::MAX;
        assert!(parse_batch_request(&huge).is_none());
    }
}
