//! Dynamic-sensing arithmetic and multi-level page codes (the `mlsense`
//! subsystem's device half).
//!
//! Flash-Cosmos senses a multi-WL activation at a single fixed Vref, so a
//! bitline can only answer AND (intra-block) or OR (inter-block). MCFlash
//! observes that the *same* activation sensed at an intermediate reference
//! answers a richer question: "did at least K of the activated cells
//! conduct?" — a per-bitline threshold/majority vote. This module supplies
//! the two pieces of device-side machinery that turn that observation into
//! a compute primitive:
//!
//! * **Vote counting** — the chip counts votes with
//!   [`BitVec::at_least_into`], a chunk-major bit-sliced counter that reads
//!   the stored pages in place (complemented: a programmed cell, stored 0,
//!   votes) and keeps each chunk's counter planes in L1; the `≥ k` compare
//!   is the counter's carry-out, so there is no separate comparator pass.
//!   [`threshold_ge_serial`] is the bit-exact scalar oracle (the same
//!   kernel/oracle pairing as `ispp::pulse_rounds`).
//! * **Multi-level page codes** — Gray-code level maps for MLC/TLC cells
//!   ([`gray_codes`]), cell-level encoding of 2–3 logical pages into one
//!   physical page ([`encode_levels`]), and the read-side transition model
//!   ([`transition_levels`], [`page_from_senses`]) that recovers one logical
//!   page from conduction senses at the Gray transitions — exactly the
//!   per-state read levels a real controller issues.

use fc_bits::BitVec;

use crate::geometry::CellMode;

/// Scalar oracle for the vote counter, [`BitVec::at_least_into`]:
/// per-bitline `filter().count()`, no word tricks. Property tests pin the
/// chunked kernel against this.
///
/// # Panics
///
/// Panics if `votes` is empty.
pub fn threshold_ge_serial(votes: &[&BitVec], k: usize) -> BitVec {
    assert!(!votes.is_empty(), "threshold vote needs at least one page");
    BitVec::from_fn(votes[0].len(), |i| votes.iter().filter(|v| v.get(i)).count() >= k)
}

/// The Gray code assigned to each V_TH level, lowest (erased) level first.
/// Adjacent levels differ in exactly one bit and the erased level is
/// all-ones (an erased cell reads 1 on every logical page, matching the
/// SLC convention where erased = 1).
pub fn gray_codes(mode: CellMode) -> &'static [u8] {
    match mode {
        CellMode::Slc => &[0b1, 0b0],
        // LSB page (bit 0) needs 1 read level, MSB page (bit 1) needs 2.
        CellMode::Mlc => &[0b11, 0b01, 0b00, 0b10],
        // 1-2-4 read-level split across LSB/CSB/MSB (bits 2/1/0).
        CellMode::Tlc => &[0b111, 0b110, 0b100, 0b101, 0b001, 0b000, 0b010, 0b011],
    }
}

/// Packs per-cell logical page bits into V_TH level indices. `pages[b]`
/// carries logical bit `b` of every cell; cell `i` lands on the unique
/// level whose Gray code matches its bits.
///
/// # Panics
///
/// Panics if `pages` does not hold exactly [`CellMode::bits_per_cell`]
/// pages of equal length.
pub fn encode_levels(pages: &[BitVec], mode: CellMode) -> Vec<u8> {
    let bits = mode.bits_per_cell() as usize;
    assert_eq!(pages.len(), bits, "{mode} packs exactly {bits} logical pages per cell");
    let len = pages[0].len();
    assert!(pages.iter().all(|p| p.len() == len), "logical pages must share a length");
    let codes = gray_codes(mode);
    (0..len)
        .map(|i| {
            let code: u8 = (0..bits).map(|b| (pages[b].get(i) as u8) << b).sum();
            codes.iter().position(|&c| c == code).expect("gray code covers all bit patterns") as u8
        })
        .collect()
}

/// Recovers logical page `page` directly from per-cell levels (the
/// functional-mode decode; the sense-based path goes through
/// [`transition_levels`] + [`page_from_senses`]).
///
/// # Panics
///
/// Panics if `page` is out of range for the mode.
pub fn decode_page(levels: &[u8], mode: CellMode, page: usize) -> BitVec {
    let codes = gray_codes(mode);
    assert!(page < mode.bits_per_cell() as usize, "{mode} has no logical page {page}");
    BitVec::from_fn(levels.len(), |i| (codes[levels[i] as usize] >> page) & 1 == 1)
}

/// The read levels needed to recover logical page `page`: every adjacent
/// level boundary `t` (a conduction sense "level ≤ t", i.e. a Vref between
/// states `t` and `t + 1`) where the Gray code flips bit `page`.
///
/// # Panics
///
/// Panics if `page` is out of range for the mode.
pub fn transition_levels(mode: CellMode, page: usize) -> Vec<u8> {
    let codes = gray_codes(mode);
    assert!(page < mode.bits_per_cell() as usize, "{mode} has no logical page {page}");
    (0..codes.len() - 1)
        .filter(|&t| (codes[t] ^ codes[t + 1]) >> page & 1 == 1)
        .map(|t| t as u8)
        .collect()
}

/// Number of read levels (sense operations) needed to recover logical page
/// `page` — the per-page read cost of the density trade.
pub fn senses_for_page(mode: CellMode, page: usize) -> usize {
    transition_levels(mode, page).len()
}

/// Combines conduction senses at the page's [`transition_levels`] back
/// into the logical page. Walking levels top-down, bit `page` of the Gray
/// code flips once per transition at or above the cell's level, so
/// `bit = bit(top code) XOR (XOR over the conduction senses)`.
///
/// # Panics
///
/// Panics if the sense count does not match [`senses_for_page`] or the
/// senses have mismatched lengths.
pub fn page_from_senses(senses: &[BitVec], mode: CellMode, page: usize) -> BitVec {
    let codes = gray_codes(mode);
    assert_eq!(
        senses.len(),
        senses_for_page(mode, page),
        "{mode} page {page} decodes from exactly {} senses",
        senses_for_page(mode, page)
    );
    let top = (codes[codes.len() - 1] >> page) & 1 == 1;
    let mut out = BitVec::default();
    out.reset(senses[0].len(), top);
    for sense in senses {
        out.xor_assign(sense);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn vote_pages(n: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let density = rng.gen::<f64>();
                BitVec::random_with_density(bits, density, &mut rng)
            })
            .collect()
    }

    #[test]
    fn packed_threshold_matches_serial_oracle() {
        let mut out = BitVec::default();
        for n in [1, 2, 3, 5, 9, 17, 64] {
            let votes = vote_pages(n, 515, n as u64);
            let refs: Vec<&BitVec> = votes.iter().collect();
            let inverted: Vec<BitVec> = votes.iter().map(BitVec::not).collect();
            let inv_refs: Vec<&BitVec> = inverted.iter().collect();
            for k in [1, 2, n / 2, n.div_ceil(2), n, n + 1, n + 40] {
                if k == 0 {
                    continue;
                }
                let expect = threshold_ge_serial(&refs, k);
                BitVec::at_least_into(&refs, k, false, &mut out);
                assert_eq!(out, expect, "n={n} k={k}");
                // Complemented counting over the inverted pages.
                BitVec::at_least_into(&inv_refs, k, true, &mut out);
                assert_eq!(out, expect, "complemented n={n} k={k}");
            }
        }
    }

    #[test]
    fn threshold_extremes_are_or_and_and() {
        let votes = vote_pages(7, 256, 99);
        let refs: Vec<&BitVec> = votes.iter().collect();
        let mut out = BitVec::default();
        BitVec::at_least_into(&refs, 1, false, &mut out);
        assert_eq!(out, BitVec::or_fold(&refs));
        BitVec::at_least_into(&refs, 7, false, &mut out);
        assert_eq!(out, BitVec::and_fold(&refs));
        BitVec::at_least_into(&refs, 8, false, &mut out);
        assert!(out.is_all_zeros(), "k > n is never satisfied");
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let mut out = BitVec::default();
        // A big first call must not leak counts into a smaller second call
        // through the reused output buffer.
        let big = vote_pages(33, 512, 7);
        let refs: Vec<&BitVec> = big.iter().collect();
        BitVec::at_least_into(&refs, 17, true, &mut out);
        let small = vote_pages(3, 130, 8);
        let refs: Vec<&BitVec> = small.iter().collect();
        BitVec::at_least_into(&refs, 2, false, &mut out);
        assert_eq!(out, threshold_ge_serial(&refs, 2));
    }

    #[test]
    fn gray_codes_are_gray_and_erased_is_all_ones() {
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let codes = gray_codes(mode);
            assert_eq!(codes.len(), mode.states() as usize);
            let bits = mode.bits_per_cell();
            assert_eq!(codes[0], (1u8 << bits) - 1, "{mode} erased level reads all-ones");
            for t in 0..codes.len() - 1 {
                assert_eq!(
                    (codes[t] ^ codes[t + 1]).count_ones(),
                    1,
                    "{mode} levels {t}/{} differ in one bit",
                    t + 1
                );
            }
            // All codes distinct => every bit pattern maps to one level.
            let mut sorted: Vec<u8> = codes.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), codes.len());
        }
    }

    #[test]
    fn per_page_sense_counts_sum_to_state_boundaries() {
        // Every one of the states−1 level boundaries is a transition for
        // exactly one logical page.
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let total: usize =
                (0..mode.bits_per_cell() as usize).map(|p| senses_for_page(mode, p)).sum();
            assert_eq!(total, mode.states() as usize - 1, "{mode}");
        }
        assert_eq!(senses_for_page(CellMode::Mlc, 0), 1);
        assert_eq!(senses_for_page(CellMode::Mlc, 1), 2);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut rng = StdRng::seed_from_u64(42);
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let bits = mode.bits_per_cell() as usize;
            let pages: Vec<BitVec> = (0..bits).map(|_| BitVec::random(300, &mut rng)).collect();
            let levels = encode_levels(&pages, mode);
            for (b, page) in pages.iter().enumerate() {
                assert_eq!(&decode_page(&levels, mode, b), page, "{mode} page {b}");
            }
        }
    }

    #[test]
    fn sense_based_decode_matches_direct_decode() {
        let mut rng = StdRng::seed_from_u64(43);
        for mode in [CellMode::Slc, CellMode::Mlc, CellMode::Tlc] {
            let bits = mode.bits_per_cell() as usize;
            let pages: Vec<BitVec> = (0..bits).map(|_| BitVec::random(256, &mut rng)).collect();
            let levels = encode_levels(&pages, mode);
            for (b, page) in pages.iter().enumerate() {
                // Model each read level as a conduction sense: 1 iff the
                // cell's level is at or below the boundary.
                let senses: Vec<BitVec> = transition_levels(mode, b)
                    .into_iter()
                    .map(|t| BitVec::from_fn(levels.len(), |i| levels[i] <= t))
                    .collect();
                assert_eq!(&page_from_senses(&senses, mode, b), page, "{mode} page {b}");
            }
        }
    }
}
