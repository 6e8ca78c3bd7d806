//! Bit strings and the bit-level codecs the schemas share.
//!
//! Includes the paper's self-delimiting path code (Section 4): payload bits
//! are mapped `0 → 110`, `1 → 1110`, prefixed with the start marker
//! `11110110` and terminated by `0`. The code never contains four
//! consecutive `1`s except at the marker, which is what lets a decoder
//! recognize encoding paths inside a sea of `0`s and independent `1`s.

use std::fmt;

/// A growable string of bits.
///
/// Bits are packed LSB first into `u64` words (bit `i` is bit `i % 64` of
/// word `i / 64`), the order of the [`AdviceMap`](crate::advice::AdviceMap)
/// arena and of the wire form, so copies between them move whole words.
/// The first word is stored inline: a string of at most 64 bits never
/// touches the heap, so cloning one (every advice holder in every gathered
/// ball) is a plain copy. Bits past the length are kept zero, so the
/// derived equality and hash are structural.
///
/// # Example
///
/// ```
/// use lad_core::bits::BitString;
/// let mut b = BitString::new();
/// b.push(true);
/// b.push_uint(5, 3);
/// assert_eq!(b.to_string(), "1101");
/// assert_eq!(b.len(), 4);
/// assert_eq!(b.words(), &[0b1011]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitString {
    len: usize,
    words: Words,
}

/// The packed words of a [`BitString`]: inline while the string fits in
/// one word, and all `len.div_ceil(64)` of them on the heap once it is
/// longer. The variant is a function of the length alone, so equal
/// strings are equal values.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline(u64),
    Heap(Vec<u64>),
}

/// Appends the low `k` bits of `x` (LSB first) to a packed buffer holding
/// `len` bits in exactly `len.div_ceil(64)` words, zero past `len`: the
/// word-level append behind [`BitString`] and the advice arena.
pub(crate) fn append_bits(words: &mut Vec<u64>, len: usize, x: u64, k: usize) {
    debug_assert!(k <= 64 && (k == 64 || x >> k == 0));
    if k == 0 {
        return;
    }
    let off = len % 64;
    if off == 0 {
        words.push(x);
        return;
    }
    *words.last_mut().expect("a partial last word") |= x << off;
    if off + k > 64 {
        words.push(x >> (64 - off));
    }
}

/// The `k` bits (`1 ≤ k ≤ 64`) of a packed buffer starting at bit `pos`,
/// LSB first.
pub(crate) fn read_bits(words: &[u64], pos: usize, k: usize) -> u64 {
    let (i, off) = (pos / 64, pos % 64);
    let mut x = words[i] >> off;
    if off + k > 64 {
        x |= words[i + 1] << (64 - off);
    }
    if k < 64 {
        x &= (1 << k) - 1;
    }
    x
}

/// Overwrites the `k` bits (`1 ≤ k ≤ 64`) of a packed buffer at bit `pos`
/// with the low bits of `x`.
pub(crate) fn write_bits(words: &mut [u64], pos: usize, x: u64, k: usize) {
    let mask = if k == 64 { u64::MAX } else { (1 << k) - 1 };
    let (i, off) = (pos / 64, pos % 64);
    words[i] = words[i] & !(mask << off) | x << off;
    if off + k > 64 {
        let spill = 64 - off;
        words[i + 1] = words[i + 1] & !(mask >> spill) | x >> spill;
    }
}

impl Default for BitString {
    fn default() -> Self {
        BitString::new()
    }
}

impl BitString {
    /// The empty bit string.
    pub const fn new() -> Self {
        BitString {
            len: 0,
            words: Words::Inline(0),
        }
    }

    /// Builds from `len` bits packed LSB first in `words`, the layout
    /// [`BitString::words`] returns.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly `len.div_ceil(64)` words and
    /// every bit past `len` is zero.
    pub fn from_words(len: usize, words: &[u64]) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "{len} bits take {} words",
            len.div_ceil(64)
        );
        let tail = len % 64;
        if tail > 0 {
            assert!(
                words[words.len() - 1] >> tail == 0,
                "bits past the length are not zero"
            );
        }
        let words = match words {
            [] => Words::Inline(0),
            &[w] => Words::Inline(w),
            _ => Words::Heap(words.to_vec()),
        };
        BitString { len, words }
    }

    /// A single-bit string.
    pub fn one_bit(b: bool) -> Self {
        BitString {
            len: 1,
            words: Words::Inline(u64::from(b)),
        }
    }

    /// Parses a `"0"`/`"1"` string.
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0` and `1`.
    pub fn parse(s: &str) -> Self {
        s.chars()
            .map(|c| match c {
                '0' => false,
                '1' => true,
                other => panic!("invalid bit character {other:?}"),
            })
            .collect()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed bits, LSB first: `len().div_ceil(64)` words, with every
    /// bit past the length zero.
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &std::slice::from_ref(w)[..self.len.div_ceil(64)],
            Words::Heap(v) => v,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        let n = self.len.div_ceil(64);
        match &mut self.words {
            Words::Inline(w) => &mut std::slice::from_mut(w)[..n],
            Words::Heap(v) => v,
        }
    }

    /// The bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} of a {}-bit string", self.len);
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Appends one bit.
    pub fn push(&mut self, b: bool) {
        self.push_bits(u64::from(b), 1);
    }

    /// Appends the low `k ≤ 64` bits of `x`, LSB first — one word-level
    /// step of every packed copy.
    pub(crate) fn push_bits(&mut self, x: u64, k: usize) {
        let len = self.len;
        match &mut self.words {
            Words::Inline(w) if len + k <= 64 => {
                if k > 0 {
                    *w |= x << len;
                }
            }
            Words::Inline(w) => {
                let mut v = Vec::with_capacity(2);
                v.push(*w);
                append_bits(&mut v, len, x, k);
                self.words = Words::Heap(v);
            }
            Words::Heap(v) => append_bits(v, len, x, k),
        }
        self.len += k;
    }

    /// Drops every bit from `new_len` on (`new_len ≤ len()`), keeping the
    /// representation canonical.
    fn truncate(&mut self, new_len: usize) {
        debug_assert!(new_len <= self.len);
        if new_len <= 64 {
            let first = self.words().first().copied().unwrap_or(0);
            self.words = Words::Inline(if new_len == 64 {
                first
            } else {
                first & ((1 << new_len) - 1)
            });
        } else if let Words::Heap(v) = &mut self.words {
            v.truncate(new_len.div_ceil(64));
            if !new_len.is_multiple_of(64) {
                *v.last_mut().expect("a partial last word") &= (1 << (new_len % 64)) - 1;
            }
        }
        self.len = new_len;
    }

    /// Appends `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits.
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(
            width == 64 || (width < 64 && value < (1u64 << width)),
            "value {value} does not fit in {width} bits"
        );
        if width > 0 {
            // Reversed, the most significant of the `width` bits is bit 0.
            self.push_bits(value.reverse_bits() >> (64 - width), width);
        }
    }

    /// Appends an Elias-gamma code of `value + 1` (so `0` is encodable):
    /// `⌊log2(v+1)⌋` zeros followed by the binary digits of `v + 1`.
    pub fn push_gamma(&mut self, value: u64) {
        let v = value + 1;
        let bits = 64 - v.leading_zeros() as usize; // position of MSB + 1
        self.push_bits(0, bits - 1);
        self.push_uint(v, bits);
    }

    /// Appends all bits of another string.
    pub fn extend(&mut self, other: &BitString) {
        for (w, k) in other.chunks() {
            self.push_bits(w, k);
        }
    }

    /// Each packed word with the number of bits it holds: 64, except for
    /// a last, partial word.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let len = self.len;
        self.words()
            .iter()
            .enumerate()
            .map(move |(j, &w)| (w, (len - 64 * j).min(64)))
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        let words = self.words();
        (0..self.len).map(move |i| words[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Appends a self-delimiting word encoding of this bit string — the
    /// length, then the bits packed 64 per word, MSB-first. A last, partial
    /// word of `k` bits is right-aligned, so it is below `2^k`: canonical
    /// keys write each word as a varint, and a short advice string then
    /// costs a byte or two instead of the ten a left-aligned word would.
    /// Two bit strings append the same words iff they are equal, and the
    /// length prefix keeps the stream prefix-free, which is exactly the
    /// `input_tag` contract of the canonical keyers
    /// (`lad_runtime::canonicalize_tagged_with`); a single-word fold would
    /// collide for advice longer than 64 bits.
    ///
    /// The packed words are LSB-first, so each full word is written
    /// bit-reversed and the last one reversed and shifted right.
    pub fn push_key_words(&self, words: &mut Vec<u64>) {
        words.push(self.len as u64);
        let packed = self.words();
        let full = self.len / 64;
        words.extend(packed[..full].iter().map(|w| w.reverse_bits()));
        let k = self.len % 64;
        if k > 0 {
            words.push(packed[full].reverse_bits() >> (64 - k));
        }
    }

    /// Number of `1` bits.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl lad_runtime::Corruptible for BitString {
    /// In-transit tampering for the fault harness: flip one bit, drop the
    /// last bit, append a bit, or erase the string — the same mutation
    /// menu `tests/tamper.rs` applies to advice at rest. Every mutation
    /// changes the string (decoders must be able to notice).
    fn corrupt(&mut self, entropy: u64) {
        if self.is_empty() {
            // The only plausible lie about an empty string is that it
            // was not empty.
            self.push(entropy & 1 == 1);
            return;
        }
        match entropy % 4 {
            0 => {
                let i = ((entropy >> 2) % self.len as u64) as usize;
                self.words_mut()[i / 64] ^= 1 << (i % 64);
            }
            1 => self.truncate(self.len - 1),
            2 => self.push((entropy >> 2) & 1 == 1),
            _ => *self = BitString::new(),
        }
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString(\"{self}\")")
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut s = BitString::new();
        let (mut acc, mut k) = (0u64, 0usize);
        for b in iter {
            acc |= u64::from(b) << k;
            k += 1;
            if k == 64 {
                s.push_bits(acc, 64);
                (acc, k) = (0, 0);
            }
        }
        s.push_bits(acc, k);
        s
    }
}

/// A cursor for reading a [`BitString`] front to back.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bits: &'a BitString,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader positioned at the start of `bits`.
    pub fn new(bits: &'a BitString) -> Self {
        BitReader { bits, pos: 0 }
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Reads one bit, or `None` at the end.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos < self.bits.len() {
            self.pos += 1;
            Some(self.bits.get(self.pos - 1))
        } else {
            None
        }
    }

    /// Reads `width` bits as an unsigned integer (MSB first), or `None` if
    /// fewer remain.
    pub fn read_uint(&mut self, width: usize) -> Option<u64> {
        if self.remaining() < width {
            return None;
        }
        let mut v = 0u64;
        for _ in 0..width {
            v = (v << 1) | self.read_bit().unwrap() as u64;
        }
        Some(v)
    }

    /// Reads an Elias-gamma code written by [`BitString::push_gamma`].
    pub fn read_gamma(&mut self) -> Option<u64> {
        let mut zeros = 0usize;
        while !self.read_bit()? {
            zeros += 1;
        }
        let mut v = 1u64;
        for _ in 0..zeros {
            v = (v << 1) | self.read_bit()? as u64;
        }
        Some(v - 1)
    }
}

/// The start marker of the paper's path code: `11110110`.
pub const PATH_MARKER: [bool; 8] = [true, true, true, true, false, true, true, false];

/// Encodes a payload with the paper's path code: marker, then `0 → 110` and
/// `1 → 1110`, then a final `0`. No run of four `1`s occurs after the
/// marker's leading `1111`.
pub fn encode_path_code(payload: &BitString) -> BitString {
    let mut out = BitString::new();
    for b in PATH_MARKER {
        out.push(b);
    }
    for bit in payload.iter() {
        out.push(true);
        out.push(true);
        if bit {
            out.push(true);
        }
        out.push(false);
    }
    out.push(false);
    out
}

/// Decodes a string produced by [`encode_path_code`], tolerating trailing
/// `0`s (nodes beyond the encoding hold `0`). Returns `None` if the string
/// does not start with the marker or is malformed.
pub fn decode_path_code(bits: &BitString) -> Option<BitString> {
    let len = bits.len();
    if len < PATH_MARKER.len()
        || PATH_MARKER
            .iter()
            .enumerate()
            .any(|(i, &m)| bits.get(i) != m)
    {
        return None;
    }
    let at = |i: usize| (i < len).then(|| bits.get(i));
    let mut payload = BitString::new();
    let mut i = PATH_MARKER.len();
    loop {
        // Expect: terminator `0`, codeword `110`, or codeword `1110`.
        match at(i)? {
            false => break, // terminator
            true => {
                if !at(i + 1)? {
                    return None; // "10..." is not a codeword
                }
                match at(i + 2)? {
                    false => {
                        payload.push(false);
                        i += 3;
                    }
                    true => {
                        if at(i + 3)? {
                            return None; // four 1s cannot appear here
                        }
                        payload.push(true);
                        i += 4;
                    }
                }
            }
        }
    }
    // Everything after the terminator must be 0.
    if (i..len).any(|j| bits.get(j)) {
        return None;
    }
    Some(payload)
}

/// An upper bound on the bits [`encode_path_code`] produces for a `k`-bit
/// payload: `4k + 9`, matching the paper's bound (`0` bits cost only 3).
pub fn path_code_len(payload_bits: usize) -> usize {
    PATH_MARKER.len() + 4 * payload_bits + 1
}

/// Minimum width needed to store values `0..count` (at least 1).
pub fn bit_width(count: usize) -> usize {
    if count <= 1 {
        1
    } else {
        (usize::BITS - (count - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_display() {
        let mut b = BitString::new();
        b.push_uint(0b1011, 4);
        assert_eq!(b.to_string(), "1011");
        assert_eq!(BitString::new().to_string(), "ε");
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn parse_roundtrip() {
        let b = BitString::parse("0110");
        assert_eq!(b.to_string(), "0110");
        assert_eq!(b.len(), 4);
        assert!(!b.get(0));
        assert!(b.get(1));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_uint_checks_width() {
        BitString::new().push_uint(8, 3);
    }

    #[test]
    fn reader_uint_roundtrip() {
        let mut b = BitString::new();
        b.push_uint(42, 7);
        b.push_uint(3, 2);
        let mut r = BitReader::new(&b);
        assert_eq!(r.read_uint(7), Some(42));
        assert_eq!(r.read_uint(2), Some(3));
        assert_eq!(r.read_uint(1), None);
    }

    #[test]
    fn gamma_roundtrip() {
        for v in [0u64, 1, 2, 3, 7, 8, 100, 12345] {
            let mut b = BitString::new();
            b.push_gamma(v);
            b.push_uint(0b101, 3); // trailing data
            let mut r = BitReader::new(&b);
            assert_eq!(r.read_gamma(), Some(v), "value {v}");
            assert_eq!(r.read_uint(3), Some(0b101));
        }
    }

    #[test]
    fn gamma_zero_is_one_bit() {
        let mut b = BitString::new();
        b.push_gamma(0);
        assert_eq!(b.to_string(), "1");
    }

    #[test]
    fn path_code_roundtrip() {
        for payload in ["", "0", "1", "0101101", "111111", "000000"] {
            let p = BitString::parse(payload);
            let coded = encode_path_code(&p);
            assert!(coded.len() <= path_code_len(p.len()));
            assert_eq!(decode_path_code(&coded), Some(p.clone()), "{payload}");
            // With trailing zeros (the rest of the path holds 0s).
            let mut padded = coded.clone();
            for _ in 0..5 {
                padded.push(false);
            }
            assert_eq!(decode_path_code(&padded), Some(p), "{payload} padded");
        }
    }

    #[test]
    fn path_code_has_no_spurious_marker() {
        // After the initial marker, no window of 4 consecutive 1s occurs.
        let p = BitString::parse("1111111100101");
        let coded = encode_path_code(&p);
        let s: Vec<bool> = coded.iter().collect();
        for i in 1..s.len().saturating_sub(3) {
            assert!(
                !(s[i] && s[i + 1] && s[i + 2] && s[i + 3]),
                "spurious 1111 at {i}"
            );
        }
    }

    #[test]
    fn path_code_rejects_garbage() {
        assert_eq!(decode_path_code(&BitString::parse("0000")), None);
        assert_eq!(decode_path_code(&BitString::parse("11110110101")), None);
        // Truncated mid-codeword.
        assert_eq!(decode_path_code(&BitString::parse("1111011011")), None);
        // Noise after the terminator.
        assert_eq!(decode_path_code(&BitString::parse("11110110001")), None);
    }

    /// The bit-at-a-time writer key layout v2 was defined with: the
    /// packed `push_key_words` must write exactly its words.
    fn reference_key_words(b: &BitString) -> Vec<u64> {
        let mut words = vec![b.len() as u64];
        let mut acc = 0u64;
        let mut filled = 0u32;
        for bit in b.iter() {
            acc = (acc << 1) | u64::from(bit);
            filled += 1;
            if filled == 64 {
                words.push(acc);
                acc = 0;
                filled = 0;
            }
        }
        if filled > 0 {
            words.push(acc);
        }
        words
    }

    #[test]
    fn key_words_are_injective_and_right_aligned() {
        let key_words = |b: &BitString| {
            let mut words = Vec::new();
            b.push_key_words(&mut words);
            words
        };
        // Per length: all zeros, all ones, alternating, and every
        // single-bit flip of all zeros.
        let mut seen: std::collections::HashMap<Vec<u64>, BitString> = Default::default();
        for len in 0usize..=130 {
            let mut strings: Vec<BitString> = vec![
                (0..len).map(|_| false).collect(),
                (0..len).map(|_| true).collect(),
                (0..len).map(|i| i % 2 == 1).collect(),
            ];
            strings.extend((0..len).map(|j| (0..len).map(|i| i == j).collect()));
            for b in strings {
                let words = key_words(&b);
                assert_eq!(words, reference_key_words(&b), "len {len}: {b}");
                assert_eq!(words, key_words(&b.clone()), "len {len}: {b}");
                assert_eq!(words.len(), 1 + len.div_ceil(64), "len {len}: {b}");
                if len % 64 != 0 {
                    let last = *words.last().expect("a payload word");
                    assert!(last < 1 << (len % 64), "len {len}: {b} ends in {last:#x}");
                }
                if let Some(prev) = seen.insert(words, b.clone()) {
                    assert_eq!(prev, b, "two strings share key words");
                }
            }
        }
    }

    #[test]
    fn bit_width_values() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 1);
        assert_eq!(bit_width(3), 2);
        assert_eq!(bit_width(4), 2);
        assert_eq!(bit_width(5), 3);
        assert_eq!(bit_width(256), 8);
        assert_eq!(bit_width(257), 9);
    }

    /// Patterned bits of the word-boundary lengths the packed type must
    /// get right: whether `i * 5 + seed` is a multiple of 3.
    fn model(len: usize, seed: usize) -> Vec<bool> {
        (0..len).map(|i| (i * 5 + seed).is_multiple_of(3)).collect()
    }

    const BOUNDARY_LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, 128, 129];

    #[test]
    fn from_iterator_collects() {
        let b: BitString = [true, false, true].into_iter().collect();
        assert_eq!(b.to_string(), "101");
        assert!(std::mem::size_of::<BitString>() <= 32);
        for len in BOUNDARY_LENGTHS {
            let bits = model(len, len);
            let b: BitString = bits.iter().copied().collect();
            assert_eq!(b.len(), len);
            assert_eq!(b.words().len(), len.div_ceil(64), "len {len}");
            assert_eq!(BitString::from_words(len, b.words()), b, "len {len}");
            assert!(b.iter().eq(bits.iter().copied()), "len {len}");
            assert!((0..len).all(|i| b.get(i) == bits[i]), "len {len}");
            let ones = bits.iter().filter(|&&x| x).count();
            assert_eq!(b.count_ones(), ones, "len {len}");
            // Packed words against the model, LSB first.
            for (i, &x) in bits.iter().enumerate() {
                assert_eq!(
                    b.words()[i / 64] >> (i % 64) & 1 == 1,
                    x,
                    "len {len} bit {i}"
                );
            }
            // `extend` at every boundary offset equals the concatenation,
            // and so do `push` and `push_uint` built strings.
            for prefix_len in BOUNDARY_LENGTHS {
                let prefix = model(prefix_len, 1);
                let mut joined: BitString = prefix.iter().copied().collect();
                joined.extend(&b);
                let expect: BitString = prefix.iter().chain(&bits).copied().collect();
                assert_eq!(joined, expect, "{prefix_len} + {len}");
                let mut pushed = BitString::new();
                for &x in prefix.iter().chain(&bits) {
                    pushed.push(x);
                }
                assert_eq!(pushed, expect, "{prefix_len} + {len} pushed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the length")]
    fn from_words_rejects_padding() {
        BitString::from_words(65, &[0, 0b10]);
    }

    #[test]
    fn corruption_at_word_boundaries_matches_fresh_strings() {
        use lad_runtime::Corruptible;
        let fresh = |bits: &[bool]| bits.iter().copied().collect::<BitString>();
        for len in BOUNDARY_LENGTHS.into_iter().filter(|&l| l > 0) {
            let bits = model(len, 2);
            let b = fresh(&bits);
            // Flip (entropy ≡ 0 mod 4, bit index in the higher bits), at
            // the first, last and each word-boundary bit.
            for i in [0, 63, 64, len - 1].into_iter().filter(|&i| i < len) {
                let mut flipped = b.clone();
                flipped.corrupt((i as u64) << 2);
                let mut expect = bits.clone();
                expect[i] = !expect[i];
                assert_eq!(flipped, fresh(&expect), "flip {i} of {len}");
            }
            // Pop: a pop across a word boundary must leave a canonical
            // string, equal to one built fresh.
            let mut popped = b.clone();
            popped.corrupt(1);
            assert_eq!(popped, fresh(&bits[..len - 1]), "pop of {len}");
            // Push (entropy ≡ 2 mod 4): the pushed bit is the one above
            // the selector, so entropy 2 appends a 0 and entropy 6 a 1.
            for (entropy, bit) in [(2, false), (6, true)] {
                let mut pushed = b.clone();
                pushed.corrupt(entropy);
                let mut expect = bits.clone();
                expect.push(bit);
                assert_eq!(pushed, fresh(&expect), "push {bit} onto {len}");
            }
            // Clear.
            let mut cleared = b.clone();
            cleared.corrupt(3);
            assert_eq!(cleared, BitString::new(), "clear of {len}");
        }
    }
}
