//! Bit-vectors for high-selectivity match results.
//!
//! The paper (Section 5.2) stores qualifying matches either as a position list
//! (low selectivity) or as a bit-vector where each bit says whether the
//! corresponding row qualifies (high selectivity). This module provides the
//! latter.

/// A fixed-length bit-vector indexed by row position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVector {
    len: usize,
    words: Vec<u64>,
}

impl BitVector {
    /// Creates a bit-vector of `len` zero bits.
    pub fn new(len: usize) -> Self {
        BitVector { len, words: vec![0; len.div_ceil(64)] }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bit at `pos`.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn set(&mut self, pos: usize) {
        assert!(pos < self.len, "position {pos} out of bounds (len {})", self.len);
        self.words[pos / 64] |= 1u64 << (pos % 64);
    }

    /// Whether the bit at `pos` is set.
    ///
    /// # Panics
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> bool {
        assert!(pos < self.len, "position {pos} out of bounds (len {})", self.len);
        self.words[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the positions of all set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// ORs the low `n` bits of `mask` into the vector starting at `pos` —
    /// the word-level append API the scan kernels feed match masks through
    /// (one or two word ORs instead of up to 64 `set` calls).
    ///
    /// # Panics
    /// Panics if `n > 64` or `pos + n` exceeds the vector length.
    #[inline]
    pub fn or_bits(&mut self, pos: usize, mask: u64, n: u32) {
        assert!(n <= 64, "cannot OR more than 64 bits at once, got {n}");
        assert!(pos + n as usize <= self.len, "bit run {pos}+{n} out of bounds (len {})", self.len);
        if n == 0 {
            return;
        }
        let mask = mask & (u64::MAX >> (64 - n));
        let word = pos / 64;
        let offset = pos % 64;
        self.words[word] |= mask << offset;
        if offset + n as usize > 64 {
            self.words[word + 1] |= mask >> (64 - offset);
        }
    }

    /// Memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get() {
        let mut bv = BitVector::new(130);
        bv.set(0);
        bv.set(64);
        bv.set(129);
        assert!(bv.get(0));
        assert!(bv.get(64));
        assert!(bv.get(129));
        assert!(!bv.get(1));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn iter_ones_yields_sorted_positions() {
        let mut bv = BitVector::new(200);
        for p in [3usize, 64, 65, 127, 199] {
            bv.set(p);
        }
        let ones: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 65, 127, 199]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        BitVector::new(10).set(10);
    }

    #[test]
    fn or_bits_agrees_with_per_bit_set() {
        // Word-aligned, word-straddling and partial runs, against a per-bit
        // reference.
        let runs: [(usize, u64, u32); 5] =
            [(0, 0b1011, 4), (60, 0xff, 8), (64, u64::MAX, 64), (130, 0b1, 1), (199, 0, 1)];
        let mut fast = BitVector::new(200);
        let mut slow = BitVector::new(200);
        for (pos, mask, n) in runs {
            fast.or_bits(pos, mask, n);
            for i in 0..n as usize {
                if mask >> i & 1 == 1 {
                    slow.set(pos + i);
                }
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn or_bits_ignores_bits_beyond_n() {
        let mut bv = BitVector::new(128);
        bv.or_bits(10, u64::MAX, 3);
        assert_eq!(bv.count_ones(), 3);
        assert!(bv.get(10) && bv.get(11) && bv.get(12) && !bv.get(13));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn or_bits_past_the_end_panics() {
        BitVector::new(100).or_bits(90, u64::MAX, 11);
    }

    #[test]
    fn memory_is_one_bit_per_row() {
        let bv = BitVector::new(1_000_000);
        assert_eq!(bv.memory_bytes(), 1_000_000usize.div_ceil(64) * 8);
    }
}
