//! Property tests for the word-parallel kernels: every fast path must
//! match its naive per-bit reference, including non-word-aligned tails.

use fc_bits::{BitVec, CHUNK_WORDS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random operands of one shared (possibly unaligned) length.
fn operands(seed: u64, count: usize, len: usize) -> Vec<BitVec> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| BitVec::random(len, &mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `and_fold` equals the naive per-bit AND over any operand count and
    /// any length (word-aligned or not).
    #[test]
    fn and_fold_matches_per_bit_reference(
        seed in any::<u64>(),
        count in 1usize..6,
        len in 1usize..300,
    ) {
        let ops = operands(seed, count, len);
        let refs: Vec<&BitVec> = ops.iter().collect();
        let fast = BitVec::and_fold(&refs);
        let naive = BitVec::from_fn(len, |i| ops.iter().all(|o| o.get(i)));
        prop_assert_eq!(fast, naive);
    }

    /// `or_fold` equals the naive per-bit OR.
    #[test]
    fn or_fold_matches_per_bit_reference(
        seed in any::<u64>(),
        count in 1usize..6,
        len in 1usize..300,
    ) {
        let ops = operands(seed, count, len);
        let refs: Vec<&BitVec> = ops.iter().collect();
        let fast = BitVec::or_fold(&refs);
        let naive = BitVec::from_fn(len, |i| ops.iter().any(|o| o.get(i)));
        prop_assert_eq!(fast, naive);
    }

    /// The in-place fold variants agree with their allocating forms and
    /// honor the existing accumulator contents.
    #[test]
    fn fold_assign_composes_with_accumulator(
        seed in any::<u64>(),
        count in 1usize..5,
        len in 1usize..200,
    ) {
        let ops = operands(seed, count + 1, len);
        let (acc0, rest) = ops.split_first().unwrap();
        let refs: Vec<&BitVec> = rest.iter().collect();
        let mut acc_and = acc0.clone();
        acc_and.and_fold_assign(&refs);
        let mut acc_or = acc0.clone();
        acc_or.or_fold_assign(&refs);
        for i in 0..len {
            prop_assert_eq!(acc_and.get(i), acc0.get(i) && rest.iter().all(|o| o.get(i)));
            prop_assert_eq!(acc_or.get(i), acc0.get(i) || rest.iter().any(|o| o.get(i)));
        }
    }

    /// The packed threshold compare matches the scalar comparison at every
    /// lane, including the last partial word.
    #[test]
    fn threshold_pack_matches_scalar_compare(
        seed in any::<u64>(),
        len in 1usize..300,
        vref in -3.0f64..3.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-4.0f64..4.0)).collect();
        let mut filled = BitVec::zeros(len);
        filled.fill_le_threshold(&values, vref);
        let naive = BitVec::from_fn(len, |i| values[i] <= vref);
        prop_assert_eq!(&filled, &naive);

        // AND-variant folds into an existing accumulator.
        let acc0 = BitVec::random(len, &mut rng);
        let mut acc = acc0.clone();
        acc.and_le_threshold(&values, vref);
        prop_assert_eq!(acc, acc0.and(&naive));
    }

    /// `slice_into` (both aligned and unaligned starts) matches per-bit
    /// extraction and reuses any prior buffer contents safely.
    #[test]
    fn slice_into_matches_per_bit_reference(
        seed in any::<u64>(),
        len in 1usize..400,
        start_frac in 0.0f64..1.0,
        take_frac in 0.0f64..=1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = BitVec::random(len, &mut rng);
        let start = ((len - 1) as f64 * start_frac) as usize;
        let take = 1 + ((len - start - 1) as f64 * take_frac) as usize;
        let mut out = BitVec::random(17, &mut rng); // stale, differently-sized buffer
        v.slice_into(start, take, &mut out);
        let naive = BitVec::from_fn(take, |i| v.get(start + i));
        prop_assert_eq!(out, naive);
    }

    /// `assign_from` / `assign_not_from` copy exactly, across lengths.
    #[test]
    fn assign_from_variants_copy_exactly(
        seed in any::<u64>(),
        len in 1usize..300,
        stale_len in 0usize..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = BitVec::random(len, &mut rng);
        let mut dst = BitVec::random(stale_len, &mut rng);
        dst.assign_from(&src);
        prop_assert_eq!(&dst, &src);
        let mut neg = BitVec::random(stale_len, &mut rng);
        neg.assign_not_from(&src);
        prop_assert_eq!(neg, src.not());
    }

    /// `resize` preserves the prefix and fills new bits with the given
    /// value; the tail invariant holds afterwards (count_ones sees no
    /// garbage).
    #[test]
    fn resize_preserves_prefix_and_fill(
        seed in any::<u64>(),
        len in 0usize..260,
        new_len in 0usize..260,
        value in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = BitVec::random(len, &mut rng);
        let mut r = v.clone();
        r.resize(new_len, value);
        prop_assert_eq!(r.len(), new_len);
        let keep = len.min(new_len);
        for i in 0..keep {
            prop_assert_eq!(r.get(i), v.get(i));
        }
        for i in keep..new_len {
            prop_assert_eq!(r.get(i), value);
        }
        let expect_ones = (0..keep).filter(|&i| v.get(i)).count()
            + if value { new_len - keep } else { 0 };
        prop_assert_eq!(r.count_ones(), expect_ones);
    }

    /// `from_fn_words` agrees with `from_fn` via word expansion and masks
    /// tail garbage.
    #[test]
    fn from_fn_words_matches_from_fn(seed in any::<u64>(), len in 1usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let words: Vec<u64> = (0..len.div_ceil(64)).map(|_| rng.gen()).collect();
        let fast = BitVec::from_fn_words(len, |w| words[w]);
        let naive = BitVec::from_fn(len, |i| (words[i / 64] >> (i % 64)) & 1 == 1);
        prop_assert_eq!(fast, naive);
    }

    /// `flip_random_bits_with` flips exactly `count` distinct bits.
    #[test]
    fn flip_random_bits_flips_exact_count(
        seed in any::<u64>(),
        len in 1usize..2000,
        count_frac in 0.0f64..=1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = (len as f64 * count_frac) as usize;
        let v = BitVec::random(len, &mut rng);
        let mut flipped = v.clone();
        let mut scratch = Vec::new();
        flipped.flip_random_bits_with(count, &mut rng, &mut scratch);
        prop_assert_eq!(v.hamming_distance(&flipped), count);
    }
}

/// Lengths that cover one to three kernel chunks plus odd tails: exact
/// chunk multiples, a one-bit and a one-word spill, and unaligned ends.
fn chunk_lengths() -> Vec<usize> {
    let chunk_bits = CHUNK_WORDS * 64;
    let mut lens = Vec::new();
    for chunks in 1..=3 {
        for tail in [0usize, 1, 63, 64, 65, 130] {
            lens.push(chunks * chunk_bits + tail);
        }
        lens.push(chunks * chunk_bits - 1);
    }
    lens
}

/// The chunked folds (in place, `_into` over a stale buffer, and
/// allocating) match the per-bit reference across chunk boundaries and
/// odd tails.
#[test]
fn chunked_folds_match_per_bit_reference_across_chunks() {
    for (i, len) in chunk_lengths().into_iter().enumerate() {
        for count in [1usize, 2, 5] {
            let ops = operands(1000 + i as u64 * 7 + count as u64, count + 1, len);
            let (acc0, rest) = ops.split_first().unwrap();
            let refs: Vec<&BitVec> = rest.iter().collect();
            let and_ref = BitVec::from_fn(len, |b| rest.iter().all(|o| o.get(b)));
            let or_ref = BitVec::from_fn(len, |b| rest.iter().any(|o| o.get(b)));

            let mut out = BitVec::random(17, &mut StdRng::seed_from_u64(len as u64));
            BitVec::and_fold_into(&refs, &mut out);
            assert_eq!(out, and_ref, "and_fold_into len={len} count={count}");
            assert_eq!(BitVec::or_fold(&refs), or_ref, "or_fold len={len} count={count}");

            let mut acc = acc0.clone();
            acc.and_fold_assign(&refs);
            assert_eq!(acc, acc0.and(&and_ref), "and_fold_assign len={len} count={count}");
            let mut acc = acc0.clone();
            acc.or_fold_assign(&refs);
            assert_eq!(acc, acc0.or(&or_ref), "or_fold_assign len={len} count={count}");
        }
    }
}

/// The threshold kernel matches a per-bit vote count for every operand
/// count 1..=64 and every k in 0..=n+2, plain and complemented, on a
/// length that crosses a chunk boundary and ends mid-word.
#[test]
fn at_least_matches_per_bit_vote_count() {
    let len = CHUNK_WORDS * 64 + 37;
    let mut rng = StdRng::seed_from_u64(77);
    use rand::Rng;
    let mut out = BitVec::default();
    for n in 1..=64usize {
        // Mixed densities so counts land on both sides of every k.
        let ops: Vec<BitVec> = (0..n)
            .map(|_| {
                let density = rng.gen::<f64>();
                BitVec::random_with_density(len, density, &mut rng)
            })
            .collect();
        let refs: Vec<&BitVec> = ops.iter().collect();
        let ones: Vec<usize> = (0..len).map(|b| ops.iter().filter(|o| o.get(b)).count()).collect();
        for k in 0..=n + 2 {
            BitVec::at_least_into(&refs, k, false, &mut out);
            let plain = BitVec::from_fn(len, |b| ones[b] >= k);
            assert_eq!(out, plain, "plain n={n} k={k}");
            BitVec::at_least_into(&refs, k, true, &mut out);
            let complemented = BitVec::from_fn(len, |b| n - ones[b] >= k);
            assert_eq!(out, complemented, "complemented n={n} k={k}");
        }
    }
}

/// `map_pair_assign` rewrites both vectors from the per-word function
/// and masks whatever the function leaves beyond the length.
#[test]
fn map_pair_assign_matches_per_bit_reference() {
    for (i, len) in chunk_lengths().into_iter().enumerate() {
        let ops = operands(3000 + i as u64, 3, len);
        let (mut a, mut b) = (ops[0].clone(), ops[1].clone());
        a.map_pair_assign(&mut b, &ops[2], |a, b, s| (!(a & s), b ^ !s));
        for bit in 0..len {
            let (x, y, s) = (ops[0].get(bit), ops[1].get(bit), ops[2].get(bit));
            assert_eq!(a.get(bit), !(x && s), "first len={len} bit={bit}");
            assert_eq!(b.get(bit), y ^ !s, "second len={len} bit={bit}");
        }
        assert_eq!(a.count_ones(), (0..len).filter(|&bit| a.get(bit)).count());
        assert_eq!(b.count_ones(), (0..len).filter(|&bit| b.get(bit)).count());
    }
}
