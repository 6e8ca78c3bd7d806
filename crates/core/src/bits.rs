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
/// # Example
///
/// ```
/// use lad_core::bits::BitString;
/// let mut b = BitString::new();
/// b.push(true);
/// b.push_uint(5, 3);
/// assert_eq!(b.to_string(), "1101");
/// assert_eq!(b.len(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// The empty bit string.
    pub fn new() -> Self {
        BitString::default()
    }

    /// Builds from raw bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        BitString { bits }
    }

    /// A single-bit string.
    pub fn one_bit(b: bool) -> Self {
        BitString { bits: vec![b] }
    }

    /// Parses a `"0"`/`"1"` string.
    ///
    /// # Panics
    ///
    /// Panics on characters other than `0` and `1`.
    pub fn parse(s: &str) -> Self {
        BitString {
            bits: s
                .chars()
                .map(|c| match c {
                    '0' => false,
                    '1' => true,
                    other => panic!("invalid bit character {other:?}"),
                })
                .collect(),
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Appends one bit.
    pub fn push(&mut self, b: bool) {
        self.bits.push(b);
    }

    /// Appends `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `width` bits.
    pub fn push_uint(&mut self, value: u64, width: usize) {
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Appends an Elias-gamma code of `value + 1` (so `0` is encodable):
    /// `⌊log2(v+1)⌋` zeros followed by the binary digits of `v + 1`.
    pub fn push_gamma(&mut self, value: u64) {
        let v = value + 1;
        let bits = 64 - v.leading_zeros() as usize; // position of MSB + 1
        for _ in 0..bits - 1 {
            self.bits.push(false);
        }
        self.push_uint(v, bits);
    }

    /// Appends all bits of another string.
    pub fn extend(&mut self, other: &BitString) {
        self.bits.extend_from_slice(&other.bits);
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
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
    pub fn push_key_words(&self, words: &mut Vec<u64>) {
        words.push(self.bits.len() as u64);
        let mut acc = 0u64;
        let mut filled = 0u32;
        for &b in &self.bits {
            acc = (acc << 1) | u64::from(b);
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
    }

    /// The raw bits.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Number of `1` bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }
}

impl lad_runtime::Corruptible for BitString {
    /// In-transit tampering for the fault harness: flip one bit, drop the
    /// last bit, append a bit, or erase the string — the same mutation
    /// menu `tests/tamper.rs` applies to advice at rest. Every mutation
    /// changes the string (decoders must be able to notice).
    fn corrupt(&mut self, entropy: u64) {
        if self.bits.is_empty() {
            // The only plausible lie about an empty string is that it
            // was not empty.
            self.bits.push(entropy & 1 == 1);
            return;
        }
        match entropy % 4 {
            0 => {
                let i = ((entropy >> 2) % self.bits.len() as u64) as usize;
                self.bits[i] = !self.bits[i];
            }
            1 => {
                self.bits.pop();
            }
            2 => self.bits.push(entropy & 1 == 1),
            _ => self.bits.clear(),
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
        if self.bits.is_empty() {
            return write!(f, "ε");
        }
        for &b in &self.bits {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        BitString {
            bits: iter.into_iter().collect(),
        }
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
    let s = bits.as_slice();
    if s.len() < PATH_MARKER.len() || s[..PATH_MARKER.len()] != PATH_MARKER {
        return None;
    }
    let mut payload = BitString::new();
    let mut i = PATH_MARKER.len();
    loop {
        // Expect: terminator `0`, codeword `110`, or codeword `1110`.
        match s.get(i)? {
            false => break, // terminator
            true => {
                if !*s.get(i + 1)? {
                    return None; // "10..." is not a codeword
                }
                match s.get(i + 2)? {
                    false => {
                        payload.push(false);
                        i += 3;
                    }
                    true => {
                        if *s.get(i + 3)? {
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
    if s[i..].iter().any(|&b| b) {
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
        let s = coded.as_slice();
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
        for len in [0usize, 1, 6, 63, 64, 65, 128] {
            let mut strings: Vec<BitString> = vec![
                (0..len).map(|_| false).collect(),
                (0..len).map(|_| true).collect(),
                (0..len).map(|i| i % 2 == 1).collect(),
            ];
            strings.extend((0..len).map(|j| (0..len).map(|i| i == j).collect()));
            for b in strings {
                let words = key_words(&b);
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

    #[test]
    fn from_iterator_collects() {
        let b: BitString = [true, false, true].into_iter().collect();
        assert_eq!(b.to_string(), "101");
    }
}
