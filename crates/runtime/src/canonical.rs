//! Order-invariant canonical forms of ball views (Contribution 2).
//!
//! The paper's ETH argument hinges on replacing an arbitrary local
//! algorithm by an *order-invariant* one — an algorithm whose output
//! depends only on the *relative order* of the identifiers in its view, not
//! their numerical values — because an order-invariant algorithm on
//! bounded-degree graphs is a finite table from views to outputs and
//! therefore cheap to simulate.
//!
//! [`CanonicalKey`] is that table's key (a [`crate::ClassStore`] holds the
//! table, one verdict per key): a serialization of a ball in which
//! identifiers are replaced by their ranks and node order is normalized to
//! `(distance, rank)` order. Two views receive the same key exactly when
//! they are isomorphic via a mapping that preserves distances, inputs, true
//! degrees, and the relative order of identifiers.
//!
//! Two functions compute it, word for word alike:
//! [`canonicalize_tagged_with`] from a built [`Ball`] (the reference, and
//! the decode server's path for wire balls), and `key_of_members` from a
//! BFS membership without building the ball (the class memo and the
//! planner's probe, one ball at a time). Both write through one private
//! writer, so they share the layout by construction.
//!
//! # Key layout v2
//!
//! A key is a sequence of fields, each an LEB128 varint (seven value bits
//! per byte, low group first, high bit set on every byte but the last):
//!
//! * the member count `n`, the radius, the center's canonical index;
//! * per node in canonical `(distance, rank)` order: its distance, its
//!   rank, its true degree, then each word its input tag writes;
//! * the edge count, then per edge (in ascending order) its smaller
//!   canonical index and the difference to the larger one.
//!
//! The bytes fill the key's `u64` words little-endian, and the last word is
//! zero-padded. A served ball's fields fit in a byte or two, so it costs
//! about a fifth of the one-word-per-field layout v1 it replaced
//! ([`crate::store::KEY_LAYOUT_VERSION`] names the layout).
//!
//! **Distinct views keep distinct keys.** A varint is a prefix-free code,
//! so the byte stream determines the field sequence. That sequence is
//! self-delimiting: `n` fixes the number of node records, each input tag is
//! prefix-free by the `input_tag` contract, and the edge count fixes the
//! rest. So no valid stream is a proper prefix of another, and zero-padding
//! the last word cannot make two streams' words equal either.

use crate::ball::{Ball, BallMembers, Scratch};
use crate::network::Network;
use lad_graph::NodeId;

/// A canonical, hashable fingerprint of a ball view.
///
/// The serialized words carry the identity: the ball's fields as varints
/// packed into `u64`s (layout v2, see the module docs). They are held
/// exact-size: the keyers build them in a [`CanonScratch`] buffer and copy
/// them out once, at their final length. A multiply–rotate fold of them is
/// computed once at construction and replayed by `Hash`, so hash-map
/// lookups mix a single word instead of re-hashing the key per probe.
/// Equality still compares the full word sequence (the cached fold only
/// fast-rejects), so a fold collision costs a memcmp, never a wrong match.
#[derive(Debug, Clone)]
pub struct CanonicalKey {
    fold: u64,
    words: Box<[u64]>,
}

impl CanonicalKey {
    /// The key of `words`, copied into an exact-size allocation.
    pub(crate) fn new(words: &[u64]) -> Self {
        let mut fold = 0x9e37_79b9_7f4a_7c15u64;
        for &w in words {
            fold = (fold.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        CanonicalKey {
            fold,
            words: words.into(),
        }
    }

    /// The raw serialized words (for size accounting).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The cached fold of the words, which the class memo buckets by.
    pub(crate) fn fold(&self) -> u64 {
        self.fold
    }
}

impl PartialEq for CanonicalKey {
    fn eq(&self, other: &Self) -> bool {
        self.fold == other.fold && self.words == other.words
    }
}

impl Eq for CanonicalKey {}

impl std::hash::Hash for CanonicalKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fold);
    }
}

impl PartialOrd for CanonicalKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CanonicalKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.words.cmp(&other.words)
    }
}

/// Reusable workspace for [`canonicalize_with`]: the rank/order/index
/// tables, the edge list, a node's tag words and the key words themselves
/// are kept and reused across calls, so repeated keying (server queries,
/// ETH simulation) allocates only the returned key, at its exact size.
#[derive(Debug, Default)]
pub struct CanonScratch {
    by_uid: Vec<NodeId>,
    uid_tmp: Vec<(u64, u32)>,
    rank: Vec<u64>,
    order: Vec<NodeId>,
    order_keys: Vec<u64>,
    canon_index: Vec<u64>,
    edges: Vec<u64>,
    /// The key words under construction; a key copies them out.
    words: Vec<u64>,
    /// The input-tag words of the node being written.
    tag: Vec<u64>,
    /// Per distance, the next free canonical slot of that shell
    /// (`key_of_members`).
    shell_next: Vec<usize>,
}

impl CanonScratch {
    /// An empty workspace; buffers grow to the largest ball seen.
    pub fn new() -> Self {
        CanonScratch::default()
    }
}

/// Writes a key in layout v2 (see the module docs) straight into a word
/// buffer: each field's varint bytes go into a one-word accumulator, and
/// every full word is pushed as it fills.
struct KeyWriter<'s> {
    words: &'s mut Vec<u64>,
    tag: &'s mut Vec<u64>,
    acc: u64,
    /// Bits of `acc` already written, a multiple of 8 below 64.
    filled: u32,
}

impl<'s> KeyWriter<'s> {
    /// A writer for the key of an `n`-member ball of `radius` whose center
    /// has canonical index `center`; it clears `words` and writes the
    /// header.
    fn new(
        words: &'s mut Vec<u64>,
        tag: &'s mut Vec<u64>,
        n: usize,
        radius: usize,
        center: u64,
    ) -> Self {
        words.clear();
        let mut w = KeyWriter {
            words,
            tag,
            acc: 0,
            filled: 0,
        };
        w.varint(n as u64);
        w.varint(radius as u64);
        w.varint(center);
        w
    }

    /// Appends `v` as an LEB128 varint.
    #[inline]
    fn varint(&mut self, mut v: u64) {
        loop {
            let last = v < 0x80;
            let byte = if last { v } else { v & 0x7f | 0x80 };
            self.acc |= byte << self.filled;
            self.filled += 8;
            if self.filled == 64 {
                self.words.push(self.acc);
                self.acc = 0;
                self.filled = 0;
            }
            if last {
                return;
            }
            v >>= 7;
        }
    }

    /// One node record: distance and rank (packed in `order_key` as
    /// `distance << 32 | rank`), true degree, then the input's tag words.
    fn node<In>(
        &mut self,
        order_key: u64,
        degree: usize,
        input: &In,
        input_tag: &impl Fn(&In, &mut Vec<u64>),
    ) {
        self.varint(order_key >> 32);
        self.varint(order_key & 0xffff_ffff);
        self.varint(degree as u64);
        let mut tag = std::mem::take(self.tag);
        tag.clear();
        input_tag(input, &mut tag);
        for &w in &tag {
            self.varint(w);
        }
        *self.tag = tag;
    }

    /// The edge count, then each edge (packed `min << 32 | max`, ascending)
    /// as its smaller index and the difference to the larger; then the key.
    fn finish(mut self, edges: &[u64]) -> CanonicalKey {
        self.varint(edges.len() as u64);
        for &e in edges {
            let (a, b) = (e >> 32, e & 0xffff_ffff);
            self.varint(a);
            self.varint(b - a);
        }
        if self.filled > 0 {
            self.words.push(self.acc);
        }
        CanonicalKey::new(self.words)
    }
}

/// Canonicalizes a ball. `input_tag` maps each node's input to a `u64`
/// (inputs must be finitely tagged for the key to be meaningful); pass
/// `|_| 0` for unit inputs.
///
/// Uses a thread-local [`CanonScratch`]; use [`canonicalize_with`] to
/// control the workspace explicitly.
pub fn canonicalize<In>(ball: &Ball<In>, input_tag: impl Fn(&In) -> u64) -> CanonicalKey {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<CanonScratch> = RefCell::new(CanonScratch::new());
    }
    SCRATCH.with(|cell| canonicalize_with(ball, input_tag, &mut cell.borrow_mut()))
}

/// [`canonicalize`] with a caller-provided reusable workspace.
pub fn canonicalize_with<In>(
    ball: &Ball<In>,
    input_tag: impl Fn(&In) -> u64,
    scratch: &mut CanonScratch,
) -> CanonicalKey {
    canonicalize_tagged_with(ball, |input, words| words.push(input_tag(input)), scratch)
}

/// [`canonicalize_with`] for inputs whose tag does not fit in one word:
/// `input_tag` appends an arbitrary number of words per node (an advice
/// bit string, say — see `BitString::push_key_words` in `lad-core`).
///
/// The writer must be *prefix-free*: either a fixed number of words per
/// call, or self-delimiting (e.g. a length word followed by payload
/// words). Otherwise distinct views could serialize identically.
///
/// The key is written in layout v2 (see the module docs): every field,
/// each tag word included, is one varint, so small tag words make short
/// keys.
pub fn canonicalize_tagged_with<In>(
    ball: &Ball<In>,
    input_tag: impl Fn(&In, &mut Vec<u64>),
    scratch: &mut CanonScratch,
) -> CanonicalKey {
    let g = ball.graph();
    let n = g.n();
    // Ranks of identifiers within the ball: the only identifier information
    // an order-invariant algorithm may use. Sorting materialized
    // (uid, node) pairs keeps the sort's comparisons on contiguous memory
    // instead of chasing the uid table; uids are distinct, so the unstable
    // pair sort orders exactly by uid.
    let uid_tmp = &mut scratch.uid_tmp;
    uid_tmp.clear();
    uid_tmp.extend(g.nodes().map(|v| (ball.uid(v), v.index() as u32)));
    uid_tmp.sort_unstable();
    let by_uid = &mut scratch.by_uid;
    by_uid.clear();
    by_uid.extend(uid_tmp.iter().map(|&(_, i)| NodeId::from_index(i as usize)));
    let rank = &mut scratch.rank;
    rank.clear();
    rank.resize(n, 0);
    for (r, &v) in by_uid.iter().enumerate() {
        rank[v.index()] = r as u64;
    }
    // Canonical node order: by (distance from center, rank). Distances and
    // ranks are `< n ≤ u32::MAX`, so the pair packs into one word — the
    // sort runs on plain `u64`s, and rank `r` maps back to its node via
    // `by_uid[r]`. The writer unpacks each pair into its two fields.
    let order_keys = &mut scratch.order_keys;
    order_keys.clear();
    order_keys.extend(
        g.nodes()
            .map(|v| (ball.dist(v) as u64) << 32 | rank[v.index()]),
    );
    order_keys.sort_unstable();
    let order = &mut scratch.order;
    order.clear();
    order.extend(
        order_keys
            .iter()
            .map(|&k| by_uid[(k & 0xffff_ffff) as usize]),
    );
    let canon_index = &mut scratch.canon_index;
    canon_index.clear();
    canon_index.resize(n, 0);
    for (ci, &v) in order.iter().enumerate() {
        canon_index[v.index()] = ci as u64;
    }
    let mut key = KeyWriter::new(
        &mut scratch.words,
        &mut scratch.tag,
        n,
        ball.radius(),
        canon_index[ball.center().index()],
    );
    for (&k, &v) in order_keys.iter().zip(order.iter()) {
        key.node(k, ball.global_degree(v), ball.input(v), &input_tag);
    }
    let edges = &mut scratch.edges;
    edges.clear();
    edges.extend(g.edges().map(|(_, (u, v))| {
        let (a, b) = (canon_index[u.index()], canon_index[v.index()]);
        a.min(b) << 32 | a.max(b)
    }));
    edges.sort_unstable();
    key.finish(edges)
}

/// Computes the [`CanonicalKey`] of the ball a BFS membership *would*
/// materialize, without building it — word-identical to
/// [`canonicalize_tagged_with`] on `membership.build(..)`: both write key
/// layout v2 through one writer, and the differential tests below pin that
/// they feed it the same fields. This is the class memo's keyer (and the
/// planner's probe): a node whose class is already decoded pays only the
/// gather and this keying pass, never CSR/uid/input assembly.
///
/// `membership` must be what the last gather or expand on `bfs`
/// produced: its stamps map a global node to its local index.
pub(crate) fn key_of_members<In>(
    net: &Network<In>,
    membership: &BallMembers,
    bfs: &Scratch,
    input_tag: impl Fn(&In, &mut Vec<u64>),
    scratch: &mut CanonScratch,
) -> CanonicalKey {
    let g = net.graph();
    let (members, radius) = (membership.members(), membership.radius());
    let n = members.len();
    // Uid order gives the ranks: sorting (uid, local) pairs keeps the
    // comparisons on contiguous memory, and uids are distinct.
    let uid_tmp = &mut scratch.uid_tmp;
    uid_tmp.clear();
    uid_tmp.extend(
        members
            .iter()
            .enumerate()
            .map(|(li, &(v, _))| (net.uid(v), li as u32)),
    );
    uid_tmp.sort_unstable();
    // Canonical order is (distance, rank). BFS order lists the shells
    // contiguously by distance, so walking the members in uid order and
    // dropping each into the next free slot of its shell yields canonical
    // order with no second sort; a member's step in that walk is its rank.
    let shell_next = &mut scratch.shell_next;
    shell_next.clear();
    for (li, &(_, d)) in members.iter().enumerate() {
        if d == shell_next.len() {
            shell_next.push(li);
        }
    }
    let order_keys = &mut scratch.order_keys;
    order_keys.clear();
    order_keys.resize(n, 0);
    let order = &mut scratch.order;
    order.clear();
    order.resize(n, NodeId(0));
    let canon_index = &mut scratch.canon_index;
    canon_index.clear();
    canon_index.resize(n, 0);
    for (rank, &(_, li)) in uid_tmp.iter().enumerate() {
        let d = members[li as usize].1;
        let ci = shell_next[d];
        shell_next[d] += 1;
        order_keys[ci] = (d as u64) << 32 | rank as u64;
        order[ci] = NodeId(li);
        canon_index[li as usize] = ci as u64;
    }
    // The center is always local index 0 of its own membership.
    let mut key = KeyWriter::new(
        &mut scratch.words,
        &mut scratch.tag,
        n,
        radius,
        canon_index[0],
    );
    for (&k, &lv) in order_keys.iter().zip(order.iter()) {
        let (v, _) = members[lv.index()];
        key.node(k, g.degree(v), net.input(v), &input_tag);
    }
    // An edge is known exactly when an endpoint lies below the radius.
    // Canonical order is distance-major, so the smaller-canonical endpoint
    // of a known edge lies below the radius: emitting each edge from that
    // endpoint, walking members in canonical order, visits it once and
    // leaves the list sorted once each member's own run is.
    let edges = &mut scratch.edges;
    edges.clear();
    for (ci, &lv) in order.iter().enumerate() {
        let (v, d) = members[lv.index()];
        if d == radius {
            break;
        }
        let run = edges.len();
        for &u in g.neighbors(v) {
            if let Some(lu) = bfs.current_local(u) {
                let cu = canon_index[lu.index()];
                if cu > ci as u64 {
                    edges.push((ci as u64) << 32 | cu);
                }
            }
        }
        edges[run..].sort_unstable();
    }
    key.finish(edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use lad_graph::{generators, IdAssignment};

    fn key_at(net: &Network, v: NodeId, r: usize) -> CanonicalKey {
        let ball = Ball::collect(net, v, r);
        canonicalize(&ball, |_| 0)
    }

    #[test]
    fn rotation_invariance_on_cycle() {
        // Every node of a cycle with identity ids that is "locally
        // ascending" sees an order-equivalent view... IDs 1..n wrap, so the
        // wrap nodes differ; compare two deep-interior nodes instead.
        let net = Network::with_identity_ids(generators::cycle(20));
        assert_eq!(key_at(&net, NodeId(7), 2), key_at(&net, NodeId(11), 2));
    }

    #[test]
    fn order_equivalent_ids_same_key() {
        let g = generators::path(7);
        let a = Network::with_ids(
            g.clone(),
            IdAssignment::from_uids(vec![1, 2, 3, 4, 5, 6, 7]),
        );
        let b = Network::with_ids(
            g,
            IdAssignment::from_uids(vec![10, 20, 30, 44, 58, 600, 7000]),
        );
        for v in 0..7 {
            assert_eq!(
                key_at(&a, NodeId(v), 2),
                key_at(&b, NodeId(v), 2),
                "node {v}"
            );
        }
    }

    #[test]
    fn different_order_different_key() {
        let g = generators::path(3);
        let a = Network::with_ids(g.clone(), IdAssignment::from_uids(vec![1, 2, 3]));
        let b = Network::with_ids(g, IdAssignment::from_uids(vec![3, 2, 1]));
        assert_ne!(key_at(&a, NodeId(0), 1), key_at(&b, NodeId(0), 1));
    }

    #[test]
    fn inputs_affect_key() {
        let g = generators::path(3);
        let base = Network::with_identity_ids(g);
        let a = base.with_inputs(vec![0u8, 1, 0]);
        let b = base.with_inputs(vec![0u8, 0, 0]);
        let ka = canonicalize(&Ball::collect(&a, NodeId(0), 1), |&x| x as u64);
        let kb = canonicalize(&Ball::collect(&b, NodeId(0), 1), |&x| x as u64);
        assert_ne!(ka, kb);
    }

    #[test]
    fn explicit_scratch_matches_thread_local_path() {
        let net = Network::with_identity_ids(generators::grid2d(4, 4, true));
        let mut scratch = CanonScratch::new();
        for v in net.graph().nodes() {
            for r in 0..3 {
                let ball = Ball::collect(&net, v, r);
                assert_eq!(
                    canonicalize_with(&ball, |_| 0, &mut scratch),
                    canonicalize(&ball, |_| 0),
                    "node {v:?} radius {r}"
                );
            }
        }
    }

    #[test]
    fn key_of_members_matches_canonicalize() {
        // The class memo's build-free keying path must be word-identical
        // to canonicalizing the materialized ball, under identity and
        // scrambled identifiers alike. The star's 200-member balls, the
        // path's radius 130 and the second tag's words of 2^63 and more
        // push fields across varint byte boundaries.
        let tags: [fn(&u8, &mut Vec<u64>); 2] = [
            |&x, words| words.push(x as u64),
            |&x, words| words.extend([u64::MAX - x as u64, 1 << 63 | x as u64]),
        ];
        let small = [0, 1, 2, 3];
        for ((g, radii), scrambled) in [
            (generators::cycle(12), &small[..]),
            (generators::path(9), &small),
            (generators::grid2d(4, 5, true), &small),
            (generators::complete(5), &small),
            (generators::star(6), &small),
            (generators::star(200), &[1, 2]),
            (generators::path(300), &[1, 130]),
        ]
        .into_iter()
        .flat_map(|c| [(c.clone(), false), (c, true)])
        {
            let n = g.n();
            let base = if scrambled {
                Network::with_ids(g, IdAssignment::random_permutation(n, 0xC0FFEE))
            } else {
                Network::with_identity_ids(g)
            };
            let inputs: Vec<u8> = (0..n).map(|i| (i % 3) as u8).collect();
            let net = base.with_inputs(inputs);
            let mut bfs = Scratch::new(n);
            let mut cs = CanonScratch::new();
            for v in net.graph().nodes() {
                for &r in radii {
                    for tag in tags {
                        let members = BallMembers::gather(net.graph(), v, r, &mut bfs);
                        let key = key_of_members(&net, &members, &bfs, tag, &mut cs);
                        let ball = Ball::collect(&net, v, r);
                        let expect = canonicalize_tagged_with(&ball, tag, &mut cs);
                        assert_eq!(key, expect, "node {v:?} radius {r}");
                        members.recycle(&mut bfs);
                    }
                }
            }
        }
    }

    #[test]
    fn key_of_members_after_expand_matches_fresh_gather() {
        let net = Network::with_identity_ids(generators::grid2d(6, 6, true));
        let n = net.graph().n();
        let mut bfs = Scratch::new(n);
        let mut cs = CanonScratch::new();
        for v in net.graph().nodes() {
            let mut members = BallMembers::gather(net.graph(), v, 1, &mut bfs);
            members.expand(net.graph(), 3, &mut bfs);
            let grown = key_of_members(&net, &members, &bfs, |&(), w| w.push(0), &mut cs);
            members.recycle(&mut bfs);
            let fresh = BallMembers::gather(net.graph(), v, 3, &mut bfs);
            let expect = key_of_members(&net, &fresh, &bfs, |&(), w| w.push(0), &mut cs);
            fresh.recycle(&mut bfs);
            assert_eq!(grown, expect, "node {v:?}");
        }
    }

    #[test]
    fn multi_word_tags_affect_key() {
        // A tag wider than one word still distinguishes views: two inputs
        // that agree on the first word but differ later.
        let g = generators::path(3);
        let base = Network::with_identity_ids(g);
        let a = base.with_inputs(vec![vec![7u64, 1], vec![7, 1], vec![7, 1]]);
        let b = base.with_inputs(vec![vec![7u64, 2], vec![7, 1], vec![7, 1]]);
        let tag = |xs: &Vec<u64>, words: &mut Vec<u64>| {
            words.push(xs.len() as u64);
            words.extend_from_slice(xs);
        };
        let mut cs = CanonScratch::new();
        let ka = canonicalize_tagged_with(&Ball::collect(&a, NodeId(0), 1), tag, &mut cs);
        let kb = canonicalize_tagged_with(&Ball::collect(&b, NodeId(0), 1), tag, &mut cs);
        assert_ne!(ka, kb);
    }

    #[test]
    fn frontier_degree_distinguishes() {
        // A path endpoint vs an interior node: different true degrees at the
        // frontier show up in the key.
        let net = Network::with_identity_ids(generators::path(10));
        assert_ne!(key_at(&net, NodeId(1), 1), key_at(&net, NodeId(5), 1));
    }
}
