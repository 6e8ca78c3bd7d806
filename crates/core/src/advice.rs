//! Advice maps: one bit string per node, with the statistics the paper's
//! definitions quantify over.
//!
//! # Storage
//!
//! The map is a *bit-packed arena*: all per-node strings live concatenated
//! in one contiguous `u64` buffer, with an `n + 1`-entry offset table
//! delimiting each node's range. Compared to one heap string per node
//! this removes `n` allocations per map, makes [`AdviceMap::total_bits`]
//! O(1), and turns every statistic ([`AdviceMap::kind`],
//! [`AdviceMap::holders`], [`AdviceMap::max_bits`]) into a streaming pass
//! over the offset table with no intermediate buffers. Bit `i` of the
//! arena is bit `i % 64` (LSB first) of word `i / 64`; trailing bits of
//! the last word are kept zero so structural equality is derivable.
//! [`BitString`] packs its bits the same way, so every copy between a
//! string and the arena moves whole words with shifts and masks.
//!
//! Encoders that write nodes in increasing index order (all of ours)
//! always append at the arena's end, so building a map is linear; an
//! out-of-order [`AdviceMap::set`] splices, paying for the bits after the
//! touched node.

use crate::bits::{append_bits, read_bits, write_bits, BitString};
use lad_graph::{traversal, Graph, NodeId};
use std::fmt;

/// The schema kinds of Definition 3.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdviceKind {
    /// All nodes hold bit strings of the same length.
    UniformFixedLength {
        /// Bits per node.
        bits: usize,
    },
    /// Some nodes hold strings of one common length; the rest hold nothing.
    SubsetFixedLength {
        /// Bits per bit-holding node.
        bits: usize,
    },
    /// Bit-holding nodes hold strings of varying positive lengths.
    VariableLength,
}

/// Summary statistics of an advice map, computed in one streaming pass
/// over the arena offsets — the numbers Definition 3.4/3.5 quantify over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdviceStats {
    /// Number of nodes covered.
    pub n: usize,
    /// Total advice bits over all nodes.
    pub total_bits: usize,
    /// The longest per-node string (the `β` of Definition 3.4).
    pub max_bits: usize,
    /// Number of bit-holding nodes.
    pub holders: usize,
    /// The schema kind.
    pub kind: AdviceKind,
}

/// An assignment of advice bit strings to the nodes of a graph.
///
/// # Example
///
/// ```
/// use lad_core::advice::AdviceMap;
/// use lad_core::bits::BitString;
///
/// let mut a = AdviceMap::empty(3);
/// a.set(lad_graph::NodeId(1), BitString::parse("101"));
/// assert_eq!(a.total_bits(), 3);
/// assert_eq!(a.holders().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdviceMap {
    /// Concatenated per-node bits, LSB-first within each word; bits at and
    /// above the total length are zero.
    words: Vec<u64>,
    /// `starts[v] .. starts[v + 1]` is node `v`'s bit range; `n + 1` long.
    starts: Vec<usize>,
}

/// Appends `s` to an arena of `len` bits, a word at a time.
fn push_string(words: &mut Vec<u64>, len: &mut usize, s: &BitString) {
    for (w, k) in s.chunks() {
        append_bits(words, *len, w, k);
        *len += k;
    }
}

impl AdviceMap {
    /// All-empty advice for `n` nodes.
    pub fn empty(n: usize) -> Self {
        AdviceMap {
            words: Vec::new(),
            starts: vec![0; n + 1],
        }
    }

    /// Builds from explicit per-node strings.
    pub fn from_strings(strings: Vec<BitString>) -> Self {
        let total: usize = strings.iter().map(BitString::len).sum();
        let mut words = Vec::with_capacity(total.div_ceil(64));
        let mut starts = Vec::with_capacity(strings.len() + 1);
        starts.push(0);
        let mut len = 0usize;
        for s in &strings {
            push_string(&mut words, &mut len, s);
            starts.push(len);
        }
        AdviceMap { words, starts }
    }

    /// Uniform 1-bit advice from a boolean per node.
    pub fn from_one_bit(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        AdviceMap {
            words,
            starts: (0..=bits.len()).collect(),
        }
    }

    /// Number of nodes covered.
    pub fn n(&self) -> usize {
        self.starts.len() - 1
    }

    #[inline]
    fn bit(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Length of the advice of node `v`, without materializing it.
    pub fn len_of(&self, v: NodeId) -> usize {
        self.starts[v.index() + 1] - self.starts[v.index()]
    }

    /// Whether node `v` holds any advice, without materializing it.
    pub fn is_holder(&self, v: NodeId) -> bool {
        self.len_of(v) > 0
    }

    /// The advice bits of node `v`, zero-copy.
    pub fn bits_of(&self, v: NodeId) -> impl Iterator<Item = bool> + '_ {
        (self.starts[v.index()]..self.starts[v.index() + 1]).map(|i| self.bit(i))
    }

    /// The advice of node `v`, materialized.
    pub fn get(&self, v: NodeId) -> BitString {
        self.range(self.starts[v.index()], self.starts[v.index() + 1])
    }

    /// Arena bits `start..end` as a string, copied a word at a time.
    fn range(&self, start: usize, end: usize) -> BitString {
        let mut s = BitString::new();
        for p in (start..end).step_by(64) {
            let k = (end - p).min(64);
            s.push_bits(read_bits(&self.words, p, k), k);
        }
        s
    }

    /// Truncates the arena to `new_len` bits, zeroing the freed tail of the
    /// last word so equality stays structural.
    fn truncate_bits(&mut self, new_len: usize) {
        self.words.truncate(new_len.div_ceil(64));
        if !new_len.is_multiple_of(64) {
            let last = self.words.last_mut().expect("nonempty after truncate");
            *last &= (1u64 << (new_len % 64)) - 1;
        }
    }

    /// Replaces node `v`'s range with `bits`, shifting every later node's
    /// bits (O(bits after `v`); free when `v` is the last written node).
    fn splice(&mut self, v: NodeId, bits: &BitString) {
        let i = v.index();
        let (s, e) = (self.starts[i], self.starts[i + 1]);
        let tail = self.range(e, self.total_bits());
        self.truncate_bits(s);
        let mut len = s;
        push_string(&mut self.words, &mut len, bits);
        push_string(&mut self.words, &mut len, &tail);
        let delta = bits.len() as isize - (e - s) as isize;
        for st in self.starts[i + 1..].iter_mut() {
            *st = (*st as isize + delta) as usize;
        }
    }

    /// Overwrites the advice of node `v`.
    pub fn set(&mut self, v: NodeId, bits: BitString) {
        let i = v.index();
        let s = self.starts[i];
        if bits.len() == self.starts[i + 1] - s {
            // Same length: overwrite in place, no shifting.
            for (j, (w, k)) in bits.chunks().enumerate() {
                write_bits(&mut self.words, s + 64 * j, w, k);
            }
        } else {
            self.splice(v, &bits);
        }
    }

    /// Appends bits to the advice of node `v`.
    pub fn append(&mut self, v: NodeId, bits: &BitString) {
        if bits.is_empty() {
            return;
        }
        let mut joined = self.get(v);
        joined.extend(bits);
        self.splice(v, &joined);
    }

    /// All per-node strings, indexed by node, materialized from the arena.
    pub fn strings(&self) -> Vec<BitString> {
        (0..self.n())
            .map(|i| self.get(NodeId::from_index(i)))
            .collect()
    }

    /// Total number of advice bits (O(1): the arena's length).
    pub fn total_bits(&self) -> usize {
        *self.starts.last().expect("starts nonempty")
    }

    /// The longest per-node string (the `β` of Definition 3.4).
    pub fn max_bits(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Average bits per node.
    pub fn mean_bits(&self) -> f64 {
        if self.n() == 0 {
            return 0.0;
        }
        self.total_bits() as f64 / self.n() as f64
    }

    /// The bit-holding nodes (non-empty advice), in index order.
    pub fn holders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.starts
            .windows(2)
            .enumerate()
            .filter(|(_i, w)| w[1] > w[0])
            .map(|(i, _w)| NodeId::from_index(i))
    }

    /// Classifies the map per Definition 3.4 — one streaming pass over the
    /// offset table, no intermediate length vector.
    pub fn kind(&self) -> AdviceKind {
        let mut common: Option<usize> = None;
        let mut any_empty = false;
        for w in self.starts.windows(2) {
            let l = w[1] - w[0];
            if l == 0 {
                any_empty = true;
                continue;
            }
            match common {
                None => common = Some(l),
                Some(c) if c != l => return AdviceKind::VariableLength,
                Some(_) => {}
            }
        }
        match common {
            None => AdviceKind::UniformFixedLength { bits: 0 },
            Some(l) if any_empty => AdviceKind::SubsetFixedLength { bits: l },
            Some(l) => AdviceKind::UniformFixedLength { bits: l },
        }
    }

    /// Summary statistics in one streaming pass.
    pub fn stats(&self) -> AdviceStats {
        AdviceStats {
            n: self.n(),
            total_bits: self.total_bits(),
            max_bits: self.max_bits(),
            holders: self.holders().count(),
            kind: self.kind(),
        }
    }

    /// For uniform 1-bit advice: the sparsity ratio `n₁ / (n₀ + n₁)` of
    /// Definition 3.5 (`None` if the advice is not uniform 1-bit).
    pub fn one_ratio(&self) -> Option<f64> {
        if self.kind() != (AdviceKind::UniformFixedLength { bits: 1 }) {
            return None;
        }
        // Uniform 1-bit: the arena is exactly one bit per node, so the
        // ones count is the buffer's population count.
        let ones: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        Some(ones as f64 / self.n() as f64)
    }

    /// The maximum number of bit-holding nodes in any radius-`alpha` ball of
    /// `g` — the `γ` that Definition 4 (composability) bounds. Holder tests
    /// read the arena offsets directly; no per-node boolean vector is built.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different node count.
    pub fn max_holders_per_ball(&self, g: &Graph, alpha: usize) -> usize {
        assert_eq!(g.n(), self.n());
        g.nodes()
            .map(|v| {
                traversal::ball(g, v, alpha)
                    .into_iter()
                    .filter(|&(u, _)| self.is_holder(u))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// The maximum total advice bits in any radius-`alpha` ball of `g`.
    pub fn max_bits_per_ball(&self, g: &Graph, alpha: usize) -> usize {
        assert_eq!(g.n(), self.n());
        g.nodes()
            .map(|v| {
                traversal::ball(g, v, alpha)
                    .into_iter()
                    .map(|(u, _)| self.len_of(u))
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for AdviceMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "advice: {} nodes, {} total bits, max {} bits/node, {} holders",
            self.n(),
            self.total_bits(),
            self.max_bits(),
            self.holders().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::generators;

    #[test]
    fn kinds() {
        let uniform = AdviceMap::from_one_bit(&[true, false, true]);
        assert_eq!(uniform.kind(), AdviceKind::UniformFixedLength { bits: 1 });
        let mut subset = AdviceMap::empty(3);
        subset.set(NodeId(0), BitString::parse("10"));
        subset.set(NodeId(2), BitString::parse("01"));
        assert_eq!(subset.kind(), AdviceKind::SubsetFixedLength { bits: 2 });
        let mut var = AdviceMap::empty(3);
        var.set(NodeId(0), BitString::parse("1"));
        var.set(NodeId(2), BitString::parse("01"));
        assert_eq!(var.kind(), AdviceKind::VariableLength);
        assert_eq!(
            AdviceMap::empty(4).kind(),
            AdviceKind::UniformFixedLength { bits: 0 }
        );
    }

    #[test]
    fn one_ratio_sparsity() {
        let a = AdviceMap::from_one_bit(&[true, false, false, false]);
        assert_eq!(a.one_ratio(), Some(0.25));
        let mut v = AdviceMap::empty(2);
        v.set(NodeId(0), BitString::parse("11"));
        assert_eq!(v.one_ratio(), None);
    }

    #[test]
    fn ball_statistics() {
        let g = generators::cycle(10);
        let mut a = AdviceMap::empty(10);
        a.set(NodeId(0), BitString::parse("111"));
        a.set(NodeId(5), BitString::parse("1"));
        assert_eq!(a.max_holders_per_ball(&g, 2), 1);
        assert_eq!(a.max_holders_per_ball(&g, 5), 2);
        assert_eq!(a.max_bits_per_ball(&g, 2), 3);
        assert_eq!(a.max_bits_per_ball(&g, 5), 4);
    }

    #[test]
    fn totals() {
        let mut a = AdviceMap::empty(3);
        a.set(NodeId(1), BitString::parse("1010"));
        a.append(NodeId(1), &BitString::parse("1"));
        assert_eq!(a.total_bits(), 5);
        assert_eq!(a.max_bits(), 5);
        assert!((a.mean_bits() - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.holders().collect::<Vec<_>>(), vec![NodeId(1)]);
    }

    #[test]
    fn arena_round_trips_arbitrary_strings() {
        let mut strings = vec![
            BitString::parse("101"),
            BitString::new(),
            BitString::parse("0"),
            BitString::parse("1111111111111111"),
            BitString::parse("010101010101010101010101010101010101010101010101"),
            BitString::new(),
            BitString::parse("1"),
        ];
        // Strings around the word size, each behind a 5-bit string, so
        // they start at unaligned arena offsets and straddle words.
        for (j, len) in [63usize, 64, 65, 127, 128, 129].into_iter().enumerate() {
            strings.push((0..len).map(|i| (i * 7 + j).is_multiple_of(3)).collect());
            strings.push(BitString::parse("10110"));
        }
        let a = AdviceMap::from_strings(strings.clone());
        assert_eq!(a.strings(), strings);
        let node = NodeId::from_index;
        for (i, s) in strings.iter().enumerate() {
            let v = node(i);
            assert_eq!(a.get(v), *s, "node {i}");
            assert_eq!(a.len_of(v), s.len());
            assert_eq!(a.is_holder(v), !s.is_empty());
            assert!(a.bits_of(v).eq(s.iter()), "node {i}");
        }
        // `set` in reverse index order splices every string in front of
        // the ones already written.
        let mut by_set = AdviceMap::empty(strings.len());
        for (i, s) in strings.iter().enumerate().rev() {
            by_set.set(node(i), s.clone());
        }
        assert_eq!(by_set, a);
        // A prefix per node, then the rests appended in reverse order:
        // each append shifts the arena tail behind it.
        let mut by_append = AdviceMap::empty(strings.len());
        for (i, s) in strings.iter().enumerate() {
            by_append.set(node(i), s.iter().take(s.len() / 3).collect());
        }
        for (i, s) in strings.iter().enumerate().rev() {
            let rest: BitString = s.iter().skip(s.len() / 3).collect();
            by_append.append(node(i), &rest);
        }
        assert_eq!(by_append, a);
        // Same-length `set` overwrites in place, across word boundaries.
        let mut flipped = a.clone();
        for (i, s) in strings.iter().enumerate() {
            let inverse: BitString = s.iter().map(|b| !b).collect();
            flipped.set(node(i), inverse.clone());
            assert_eq!(flipped.get(node(i)), inverse, "node {i}");
        }
        for (i, s) in strings.iter().enumerate() {
            flipped.set(node(i), s.clone());
        }
        assert_eq!(flipped, a);
    }

    #[test]
    fn out_of_order_set_splices_correctly() {
        // Write nodes out of order, with length changes, and compare to a
        // map built from the final strings directly.
        let mut a = AdviceMap::empty(4);
        a.set(NodeId(3), BitString::parse("111"));
        a.set(NodeId(0), BitString::parse("00"));
        a.set(NodeId(1), BitString::parse("10110"));
        a.set(NodeId(0), BitString::parse("1")); // shrink, shifts tail left
        a.set(NodeId(3), BitString::parse("0000")); // grow at the end
        a.append(NodeId(1), &BitString::parse("01")); // append mid-arena
        let expect = AdviceMap::from_strings(vec![
            BitString::parse("1"),
            BitString::parse("1011001"),
            BitString::new(),
            BitString::parse("0000"),
        ]);
        assert_eq!(a, expect);
    }

    #[test]
    fn equality_is_insensitive_to_write_history() {
        // Two maps with equal contents built along different paths must be
        // structurally equal (trailing word bits are kept zeroed).
        let mut a = AdviceMap::empty(2);
        a.set(NodeId(0), BitString::parse("11111"));
        a.set(NodeId(1), BitString::parse("101"));
        a.set(NodeId(0), BitString::parse("1"));
        let mut b = AdviceMap::empty(2);
        b.set(NodeId(0), BitString::parse("1"));
        b.set(NodeId(1), BitString::parse("101"));
        assert_eq!(a, b);
    }

    #[test]
    fn stats_streams_the_arena() {
        let mut a = AdviceMap::empty(5);
        a.set(NodeId(1), BitString::parse("10"));
        a.set(NodeId(4), BitString::parse("01"));
        assert_eq!(
            a.stats(),
            AdviceStats {
                n: 5,
                total_bits: 4,
                max_bits: 2,
                holders: 2,
                kind: AdviceKind::SubsetFixedLength { bits: 2 },
            }
        );
    }
}
