//! Word-packed bit vector with bulk bitwise operations.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{words_for, CHUNK_WORDS, WORD_BITS};

/// A fixed-length bit vector packed into `u64` words.
///
/// `BitVec` is the common data representation of the whole reproduction:
/// a NAND page, a latch bank's contents, and a workload operand are all bit
/// vectors. All bulk operations (`and`, `or`, `xor`, `not`, `count_ones`)
/// run word-at-a-time.
///
/// Bits beyond `len` inside the last word are kept at zero as an internal
/// invariant, so `count_ones` and word-level comparisons never see garbage.
///
/// ```
/// use fc_bits::BitVec;
///
/// let mut v = BitVec::zeros(10);
/// v.set(3, true);
/// assert!(v.get(3));
/// assert_eq!(v.count_ones(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self { words: vec![0u64; words_for(len)], len }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self { words: vec![u64::MAX; words_for(len)], len };
        v.mask_tail();
        v
    }

    /// Creates a bit vector of `len` bits, where bit `i` is `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = Self::zeros(len);
        for i in 0..len {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a bit vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        Self::from_fn(bits.len(), |i| bits[i])
    }

    /// Creates a bit vector of `len` bits where storage word `w` is
    /// `f(w)` — the word-parallel counterpart of [`BitVec::from_fn`].
    ///
    /// Bits beyond `len` in the last word are masked off, so `f` may
    /// return garbage in the tail.
    pub fn from_fn_words(len: usize, mut f: impl FnMut(usize) -> u64) -> Self {
        let mut v = Self { words: (0..words_for(len)).map(&mut f).collect(), len };
        v.mask_tail();
        v
    }

    /// An empty (zero-bit) vector, usable in `const` and `static`
    /// initializers (e.g. as the filler of a fixed-size array of page
    /// references).
    pub const fn new() -> Self {
        Self { words: Vec::new(), len: 0 }
    }

    /// Multi-operand AND: returns `ops[0] & ops[1] & …`, one chunk of
    /// [`CHUNK_WORDS`] words at a time, without cloning any operand.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the operands' lengths differ.
    pub fn and_fold(ops: &[&Self]) -> Self {
        let mut out = Self::new();
        Self::and_fold_into(ops, &mut out);
        out
    }

    /// Multi-operand OR: returns `ops[0] | ops[1] | …`, one chunk of
    /// [`CHUNK_WORDS`] words at a time, without cloning any operand.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the operands' lengths differ.
    pub fn or_fold(ops: &[&Self]) -> Self {
        let mut out = Self::new();
        Self::fold_into(ops, &mut out, |a, b| *a |= b);
        out
    }

    /// Overwrites `out` with `ops[0] & ops[1] & …` in one pass, reusing
    /// `out`'s allocation (`out` takes the operands' length): each chunk
    /// of `out` is seeded from `ops[0]` and folded while it is cache
    /// resident, so no output word is written twice.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the operands' lengths differ.
    pub fn and_fold_into(ops: &[&Self], out: &mut Self) {
        Self::fold_into(ops, out, |a, b| *a &= b);
    }

    /// In-place multi-operand AND: `self &= ops[0] & ops[1] & …`. Chunk
    /// by chunk, every operand is folded into one cache-resident chunk
    /// of `self` before moving on, so each output word is written once
    /// and the inner loop runs over contiguous slices (it vectorizes).
    ///
    /// # Panics
    ///
    /// Panics if any operand's length differs from `self`.
    pub fn and_fold_assign(&mut self, ops: &[&Self]) {
        self.fold_assign(ops, |a, b| *a &= b);
    }

    /// In-place multi-operand OR: `self |= ops[0] | ops[1] | …`, chunk by
    /// chunk like [`BitVec::and_fold_assign`].
    ///
    /// # Panics
    ///
    /// Panics if any operand's length differs from `self`.
    pub fn or_fold_assign(&mut self, ops: &[&Self]) {
        self.fold_assign(ops, |a, b| *a |= b);
    }

    /// Overwrites `out` with the multi-operand threshold of `ops`: bit
    /// `i` is set iff at least `k` of the operands have bit `i` set — or,
    /// with `complemented`, at least `k` of them have it *clear*. `k == 0`
    /// is always satisfied and `k > ops.len()` never is. `out` takes the
    /// operands' length and reuses its allocation.
    ///
    /// The operands are read in place, one chunk of [`CHUNK_WORDS`] words
    /// at a time. Each chunk counts its votes in a bit-sliced counter of
    /// `W` planes (`W` at least the smallest width with `2^W >= k`) that
    /// stays in L1 while every operand streams that chunk through. Every
    /// lane starts at `2^W - k`, so a lane has seen `k` votes exactly
    /// when its ripple carry leaves the top plane; that carry-out is the
    /// result bit, so there is no separate compare pass. Cost is
    /// `O(ops · (W + 1))` word operations per word.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty or the operands' lengths differ.
    pub fn at_least_into(ops: &[&Self], k: usize, complemented: bool, out: &mut Self) {
        let len = Self::fold_len(ops);
        if k == 0 || k > ops.len() {
            out.reset(len, k == 0);
            return;
        }
        out.words.resize(words_for(len), 0);
        out.len = len;
        let flip = if complemented { u64::MAX } else { 0 };
        let words = &mut out.words;
        match usize::BITS - (k - 1).leading_zeros() {
            0 => count_at_least::<0>(ops, k, flip, words),
            1 => count_at_least::<1>(ops, k, flip, words),
            2 => count_at_least::<2>(ops, k, flip, words),
            3 => count_at_least::<3>(ops, k, flip, words),
            4 => count_at_least::<4>(ops, k, flip, words),
            5 => count_at_least::<5>(ops, k, flip, words),
            6 => count_at_least::<6>(ops, k, flip, words),
            7 => count_at_least::<7>(ops, k, flip, words),
            8..=16 => count_at_least::<16>(ops, k, flip, words),
            _ => count_at_least::<63>(ops, k, flip, words),
        }
        out.mask_tail();
    }

    /// Rewrites `self` and `other` in one pass over the words of `self`,
    /// `other` and `src`: `(self[w], other[w]) = f(self[w], other[w],
    /// src[w])`. Bits `f` produces beyond the length are masked off.
    ///
    /// This is the kernel of a fused latch step, where one sense updates
    /// the sensing and the cache latch together.
    ///
    /// # Panics
    ///
    /// Panics if the three lengths differ.
    pub fn map_pair_assign(
        &mut self,
        other: &mut Self,
        src: &Self,
        f: impl Fn(u64, u64, u64) -> (u64, u64),
    ) {
        self.assert_same_len(other);
        self.assert_same_len(src);
        for ((a, b), &s) in self.words.iter_mut().zip(other.words.iter_mut()).zip(&src.words) {
            (*a, *b) = f(*a, *b, s);
        }
        self.mask_tail();
        other.mask_tail();
    }

    fn fold_assign(&mut self, ops: &[&Self], f: impl Fn(&mut u64, u64)) {
        for op in ops {
            self.assert_same_len(op);
        }
        for (ci, acc) in self.words.chunks_mut(CHUNK_WORDS).enumerate() {
            let base = ci * CHUNK_WORDS;
            for op in ops {
                let src = &op.words[base..base + acc.len()];
                for (a, &b) in acc.iter_mut().zip(src) {
                    f(a, b);
                }
            }
        }
    }

    fn fold_into(ops: &[&Self], out: &mut Self, f: impl Fn(&mut u64, u64)) {
        let len = Self::fold_len(ops);
        out.words.resize(words_for(len), 0);
        out.len = len;
        let (first, rest) = ops.split_first().expect("fold_len checked");
        for (ci, acc) in out.words.chunks_mut(CHUNK_WORDS).enumerate() {
            let base = ci * CHUNK_WORDS;
            acc.copy_from_slice(&first.words[base..base + acc.len()]);
            for op in rest {
                let src = &op.words[base..base + acc.len()];
                for (a, &b) in acc.iter_mut().zip(src) {
                    f(a, b);
                }
            }
        }
    }

    /// Length shared by every operand of a multi-operand kernel.
    fn fold_len(ops: &[&Self]) -> usize {
        assert!(!ops.is_empty(), "fold needs at least one operand");
        let len = ops[0].len;
        for op in ops {
            assert_eq!(op.len, len, "bit vector length mismatch");
        }
        len
    }

    /// Creates a bit vector of `len` bits copied from `bytes`
    /// (little-endian bit order within each byte).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(bytes.len() * 8 >= len, "byte slice too short for {len} bits");
        let mut v = Self::zeros(len);
        for (w, chunk) in v.words.iter_mut().zip(bytes.chunks(8)) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            *w = u64::from_le_bytes(buf);
        }
        v.mask_tail();
        v
    }

    /// Creates a bit vector whose words come directly from `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not have exactly `words_for(len)` entries.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), words_for(len), "word count must match len");
        let mut v = Self { words, len };
        v.mask_tail();
        v
    }

    /// Creates a uniformly random bit vector of `len` bits.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = Self { words: (0..words_for(len)).map(|_| rng.gen()).collect(), len };
        v.mask_tail();
        v
    }

    /// Creates a random bit vector where each bit is one with probability
    /// `density`.
    ///
    /// # Panics
    ///
    /// Panics if `density` is not within `0.0..=1.0`.
    pub fn random_with_density<R: Rng + ?Sized>(len: usize, density: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
        Self::from_fn(len, |_| rng.gen_bool(density))
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail bits beyond `len` are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Returns bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Flips bit `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        self.toggle(i);
        self.get(i)
    }

    /// Flips bit `i` without reading it back — one word XOR.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn toggle(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Whether every bit is zero.
    pub fn is_all_zeros(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether every bit is one.
    pub fn is_all_ones(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Number of positions where `self` and `other` differ (Hamming
    /// distance). This is how the characterization harness counts raw bit
    /// errors between programmed and sensed data.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &Self) -> usize {
        self.assert_same_len(other);
        self.words.iter().zip(&other.words).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// In-place bitwise AND with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &Self) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place bitwise OR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &Self) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise XOR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place bitwise NOT.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// In-place bitwise AND-NOT: clears every bit of `self` that is set
    /// in `other` (`self &= !other`), without materializing `!other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_not_assign(&mut self, other: &Self) {
        self.assert_same_len(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Overwrites `self` with a copy of `other`, reusing `self`'s
    /// allocation. Unlike [`BitVec::copy_from`] the lengths may differ:
    /// `self` takes `other`'s length.
    pub fn assign_from(&mut self, other: &Self) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Overwrites `self` with `NOT other` in a single pass, reusing
    /// `self`'s allocation (the in-place counterpart of
    /// [`BitVec::not`]).
    pub fn assign_not_from(&mut self, other: &Self) {
        self.words.clear();
        self.words.extend(other.words.iter().map(|w| !w));
        self.len = other.len;
        self.mask_tail();
    }

    /// Returns `self AND other`.
    pub fn and(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Returns `self OR other`.
    pub fn or(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Returns `self XOR other`.
    pub fn xor(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.xor_assign(other);
        out
    }

    /// Returns `NOT self`.
    pub fn not(&self) -> Self {
        let mut out = self.clone();
        out.not_assign();
        out
    }

    /// Fills every bit with `value`.
    pub fn fill(&mut self, value: bool) {
        let w = if value { u64::MAX } else { 0 };
        self.words.fill(w);
        self.mask_tail();
    }

    /// Resizes to `new_len` bits, filling any new bits with `value`
    /// (like `Vec::resize`, reusing the allocation).
    pub fn resize(&mut self, new_len: usize, value: bool) {
        if new_len <= self.len {
            self.words.truncate(words_for(new_len));
            self.len = new_len;
            self.mask_tail();
            return;
        }
        if value {
            // Raise the tail bits of the current last word before
            // extending with all-ones words.
            let rem = self.len % WORD_BITS;
            if rem != 0 {
                if let Some(last) = self.words.last_mut() {
                    *last |= !((1u64 << rem) - 1);
                }
            }
            self.words.resize(words_for(new_len), u64::MAX);
        } else {
            self.words.resize(words_for(new_len), 0);
        }
        self.len = new_len;
        self.mask_tail();
    }

    /// Re-initializes the vector to `len` bits of `value`, reusing the
    /// existing allocation — the buffer-recycling counterpart of
    /// [`BitVec::zeros`]/[`BitVec::ones`].
    pub fn reset(&mut self, len: usize, value: bool) {
        self.words.clear();
        self.words.resize(words_for(len), if value { u64::MAX } else { 0 });
        self.len = len;
        if value {
            self.mask_tail();
        }
    }

    /// Overwrites this vector with the packed comparisons
    /// `bit c = values[c] <= threshold`, 64 lanes per storage word.
    ///
    /// This is the sensing kernel of the physics-mode chip model: a NAND
    /// string's per-bitline conduction against `V_REF` packs into page
    /// words without any per-bit `set` calls.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn fill_le_threshold(&mut self, values: &[f64], threshold: f64) {
        assert_eq!(values.len(), self.len, "threshold input length mismatch");
        for (wi, w) in self.words.iter_mut().enumerate() {
            let start = wi * WORD_BITS;
            let end = (start + WORD_BITS).min(values.len());
            *w = pack_le_word(&values[start..end], threshold);
        }
    }

    /// ANDs the packed comparisons `values[c] <= threshold` into this
    /// vector: `bit c &= (values[c] <= threshold)`.
    ///
    /// Folding one wordline at a time with this kernel evaluates an
    /// intra-block multi-wordline sense without materializing any
    /// intermediate page.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.len()`.
    pub fn and_le_threshold(&mut self, values: &[f64], threshold: f64) {
        assert_eq!(values.len(), self.len, "threshold input length mismatch");
        for (wi, w) in self.words.iter_mut().enumerate() {
            let start = wi * WORD_BITS;
            let end = (start + WORD_BITS).min(values.len());
            *w &= pack_le_word(&values[start..end], threshold);
        }
    }

    /// Returns a copy of bits `start..start + len` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        let mut out = Self::zeros(len);
        self.slice_into(start, len, &mut out);
        out
    }

    /// Copies bits `start..start + len` into `out`, reusing `out`'s
    /// allocation (`out` takes length `len`). Word-parallel for both
    /// aligned and unaligned `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice_into(&self, start: usize, len: usize, out: &mut Self) {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len),
            "slice {start}+{len} out of range (len {})",
            self.len
        );
        out.words.clear();
        let first = start / WORD_BITS;
        let nw = words_for(len);
        let off = start % WORD_BITS;
        if off == 0 {
            out.words.extend_from_slice(&self.words[first..first + nw]);
        } else {
            // Unaligned: each output word stitches two neighbouring input
            // words together.
            out.words.extend((0..nw).map(|i| {
                let lo = self.words[first + i] >> off;
                let hi = self.words.get(first + i + 1).map_or(0, |w| w << (WORD_BITS - off));
                lo | hi
            }));
        }
        out.len = len;
        out.mask_tail();
    }

    /// Overwrites bits `start..start + src.len()` with `src`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn copy_from(&mut self, start: usize, src: &Self) {
        assert!(
            start.checked_add(src.len).is_some_and(|end| end <= self.len),
            "copy {start}+{} out of range (len {})",
            src.len,
            self.len
        );
        if start.is_multiple_of(WORD_BITS) && src.len.is_multiple_of(WORD_BITS) {
            let first = start / WORD_BITS;
            self.words[first..first + src.words.len()].copy_from_slice(&src.words);
            return;
        }
        for i in 0..src.len {
            self.set(start + i, src.get(i));
        }
    }

    /// ORs `src` into bits `start..start + src.len()` — the accumulation
    /// counterpart of [`BitVec::copy_from`], used when several partial
    /// results land in the same destination window (e.g. a batched query
    /// assembling OR-shared sub-results in place).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn or_from(&mut self, start: usize, src: &Self) {
        assert!(
            start.checked_add(src.len).is_some_and(|end| end <= self.len),
            "or {start}+{} out of range (len {})",
            src.len,
            self.len
        );
        if start.is_multiple_of(WORD_BITS) && src.len.is_multiple_of(WORD_BITS) {
            let first = start / WORD_BITS;
            for (dst, s) in self.words[first..first + src.words.len()].iter_mut().zip(&src.words) {
                *dst |= s;
            }
            return;
        }
        for i in src.iter_ones() {
            self.set(start + i, true);
        }
    }

    /// Iterator over bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterator over the indices of one bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi * WORD_BITS;
            let len = self.len;
            BitIter { word: w }.map(move |b| base + b).filter(move |&i| i < len)
        })
    }

    /// Serializes to little-endian bytes (ceil(len/8) of them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let nbytes = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(nbytes);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(nbytes);
        out
    }

    /// Flips `count` distinct randomly-chosen bits. Used by the error
    /// injection machinery to apply a sampled raw-bit-error count to a page.
    ///
    /// # Panics
    ///
    /// Panics if `count > len`.
    pub fn flip_random_bits<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) {
        let mut scratch = Vec::new();
        self.flip_random_bits_with(count, rng, &mut scratch);
    }

    /// Like [`BitVec::flip_random_bits`], but uses `scratch` as reusable
    /// working memory (contents unspecified afterwards), so repeated
    /// callers — the chip's error-injection path flips bits on every
    /// sense — perform no per-call allocation once the buffer has warmed
    /// up. Flips are word-indexed XORs; no bit is read back.
    ///
    /// # Panics
    ///
    /// Panics if `count > len`.
    pub fn flip_random_bits_with<R: Rng + ?Sized>(
        &mut self,
        count: usize,
        rng: &mut R,
        scratch: &mut Vec<usize>,
    ) {
        assert!(count <= self.len, "cannot flip {count} bits of {}", self.len);
        if count == 0 {
            return;
        }
        const SB: usize = usize::BITS as usize;
        if count * 4 <= self.len {
            // Sparse case: rejection sampling, deduplicated with a
            // word-packed seen-bitmap carried in `scratch` — O(1) per
            // draw, no hashing.
            let words = self.len.div_ceil(SB);
            scratch.clear();
            scratch.resize(words, 0);
            let mut done = 0;
            while done < count {
                let i = rng.gen_range(0..self.len);
                let mask = 1usize << (i % SB);
                let seen = &mut scratch[i / SB];
                if *seen & mask == 0 {
                    *seen |= mask;
                    self.toggle(i);
                    done += 1;
                }
            }
        } else {
            // Dense case: partial Fisher-Yates over all indices.
            scratch.clear();
            scratch.extend(0..self.len);
            for k in 0..count {
                let j = rng.gen_range(k..scratch.len());
                scratch.swap(k, j);
                self.toggle(scratch[k]);
            }
        }
    }

    fn assert_same_len(&self, other: &Self) {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
    }

    /// Zeroes bits beyond `len` in the last word (maintains the invariant).
    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl Default for BitVec {
    /// An empty (zero-bit) vector — the natural seed for buffers that are
    /// later [`BitVec::reset`] or [`BitVec::assign_from`] into shape.
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(len={}, ones={}", self.len, self.count_ones())?;
        if self.len <= 64 {
            write!(f, ", bits=")?;
            for i in 0..self.len {
                write!(f, "{}", u8::from(self.get(i)))?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len.min(256) {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > 256 {
            write!(f, "… ({} bits)", self.len)?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bools)
    }
}

/// The counting core of [`BitVec::at_least_into`] with a `W`-plane
/// counter (`2^W >= k`): writes each lane's carry-out into `out`. The
/// counter of one chunk (`W` planes of [`CHUNK_WORDS`] words) stays in L1
/// while every operand streams that chunk through; with `W` a constant
/// the plane ripple unrolls.
fn count_at_least<const W: usize>(ops: &[&BitVec], k: usize, flip: u64, out: &mut [u64]) {
    let start = (1usize << W) - k;
    let mut count = [[0u64; CHUNK_WORDS]; W];
    for (ci, dst) in out.chunks_mut(CHUNK_WORDS).enumerate() {
        let base = ci * CHUNK_WORDS;
        for (p, plane) in count.iter_mut().enumerate() {
            plane.fill(if (start >> p) & 1 == 1 { u64::MAX } else { 0 });
        }
        let mut reached = [0u64; CHUNK_WORDS];
        for op in ops {
            let src = &op.words[base..base + dst.len()];
            for (j, &w) in src.iter().enumerate() {
                let mut carry = w ^ flip;
                for plane in &mut count {
                    let p = plane[j];
                    plane[j] = p ^ carry;
                    carry &= p;
                }
                reached[j] |= carry;
            }
        }
        dst.copy_from_slice(&reached[..dst.len()]);
    }
}

/// Packs up to 64 `v <= threshold` comparisons into one word
/// (little-endian lane order, branch-free inner loop).
#[inline]
fn pack_le_word(values: &[f64], threshold: f64) -> u64 {
    let mut w = 0u64;
    for (b, &v) in values.iter().enumerate() {
        w |= u64::from(v <= threshold) << b;
    }
    w
}

/// Iterator over set-bit positions inside one word.
struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

/// Borrowed view of a bit vector's words, used by zero-copy consumers such
/// as the popcount pipelines in the host model.
#[derive(Debug, Clone, Copy)]
pub struct Words<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> Words<'a> {
    /// Number of valid bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying words.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }
}

impl<'a> From<&'a BitVec> for Words<'a> {
    fn from(v: &'a BitVec) -> Self {
        Words { words: &v.words, len: v.len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(100);
        assert_eq!(z.len(), 100);
        assert_eq!(z.count_ones(), 0);
        assert!(z.is_all_zeros());
        let o = BitVec::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert!(o.is_all_ones());
    }

    #[test]
    fn tail_masking_invariant() {
        let o = BitVec::ones(65);
        assert_eq!(o.words()[1], 1);
        let mut n = BitVec::zeros(65);
        n.not_assign();
        assert_eq!(n.count_ones(), 65);
    }

    #[test]
    fn get_set_flip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 3);
        assert!(!v.flip(0));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn bulk_ops_match_bitwise_definition() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = BitVec::random(333, &mut rng);
        let b = BitVec::random(333, &mut rng);
        for i in 0..333 {
            assert_eq!(a.and(&b).get(i), a.get(i) & b.get(i));
            assert_eq!(a.or(&b).get(i), a.get(i) | b.get(i));
            assert_eq!(a.xor(&b).get(i), a.get(i) ^ b.get(i));
            assert_eq!(a.not().get(i), !a.get(i));
        }
    }

    #[test]
    fn demorgan_holds() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = BitVec::random(512, &mut rng);
        let b = BitVec::random(512, &mut rng);
        // NOT (a AND b) == (NOT a) OR (NOT b)
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        // NOT (a OR b) == (NOT a) AND (NOT b)
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    }

    #[test]
    fn hamming_distance_counts_flips() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BitVec::random(1000, &mut rng);
        let mut b = a.clone();
        b.flip_random_bits(37, &mut rng);
        assert_eq!(a.hamming_distance(&b), 37);
    }

    #[test]
    fn flip_random_bits_dense() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut v = BitVec::zeros(64);
        v.flip_random_bits(64, &mut rng);
        assert!(v.is_all_ones());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let v = BitVec::random(777, &mut rng);
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 98);
        let w = BitVec::from_bytes(&bytes, 777);
        assert_eq!(v, w);
    }

    #[test]
    fn slice_and_copy_roundtrip() {
        let mut rng = StdRng::seed_from_u64(13);
        let v = BitVec::random(500, &mut rng);
        let s = v.slice(64, 128); // word-aligned path
        let t = v.slice(65, 100); // unaligned path
        for i in 0..128 {
            assert_eq!(s.get(i), v.get(64 + i));
        }
        for i in 0..100 {
            assert_eq!(t.get(i), v.get(65 + i));
        }
        let mut w = BitVec::zeros(500);
        w.copy_from(64, &s);
        assert_eq!(w.slice(64, 128), s);
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut rng = StdRng::seed_from_u64(21);
        let v = BitVec::random_with_density(300, 0.1, &mut rng);
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones.len(), v.count_ones());
        assert!(ones.iter().all(|&i| v.get(i)));
        assert!(ones.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn from_iterator_collects() {
        let v: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(v.len(), 10);
        assert_eq!(v.count_ones(), 5);
    }

    #[test]
    fn density_is_respected() {
        let mut rng = StdRng::seed_from_u64(17);
        let v = BitVec::random_with_density(100_000, 0.25, &mut rng);
        let density = v.count_ones() as f64 / v.len() as f64;
        assert!((density - 0.25).abs() < 0.01, "density {density}");
    }

    #[test]
    fn empty_vector_is_well_behaved() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert!(v.is_all_zeros());
        assert!(v.is_all_ones()); // vacuously true
        assert_eq!(v.to_bytes().len(), 0);
    }
}
