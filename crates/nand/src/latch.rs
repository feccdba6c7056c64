//! The per-bitline latch periphery: sensing latch (S-latch) and cache
//! latch (C-latch), with the Boolean semantics the paper derives from the
//! circuit (Figs. 3, 4 and 6).
//!
//! The circuit facts this model encodes:
//!
//! * A **normal sense** can only pull `OUT_S` down: after evaluation,
//!   `S ← S AND N` where `N` is the freshly sensed page. Initializing the
//!   S-latch (activating only M1) sets it to all-ones, so an initialized
//!   sense is a plain read (`S ← N`). Sensing *without* initialization is
//!   ParaBit's AND accumulation (Fig. 6b).
//! * An **inverse sense** (inverse read mode, §2.1/Fig. 4) swaps the
//!   M1/M2 activation order, so the sensed value lands inverted:
//!   `S ← NOT N`. Because the M2-first protocol initializes the latch,
//!   inverse senses never accumulate — a program needing both inverse and
//!   accumulated data must issue the inverse sense first (Fig. 16).
//! * The **M3 transfer** can only set the C-latch: `C ← C OR S`
//!   (Fig. 6c — ParaBit's OR accumulation). Initializing the C-latch
//!   (M4) clears it to all-zeros, so init-then-transfer is a copy.
//! * The chip's **internal XOR logic** (§6.1, used for on-chip
//!   randomization and testing) computes `C ← S XOR C`.
//!
//! Because M3 can only OR into the C-latch, AND-accumulation across
//! multiple MWS commands must happen in the S-latch, with a final
//! C-init + transfer to publish the result — see `DESIGN.md` §3.1 for how
//! this resolves the ambiguity in the paper's Fig. 16.

use fc_bits::BitVec;
use serde::{Deserialize, Serialize};

use crate::command::IscmFlags;

/// One plane's latch bank (every bitline has an S- and a C-latch; we model
/// the whole page-wide bank as two bit vectors).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatchBank {
    s: BitVec,
    c: BitVec,
}

impl LatchBank {
    /// Creates a latch bank for a plane with `page_bits` bitlines.
    /// Power-on state: S-latch all ones, C-latch all zeros (both
    /// "initialized").
    pub fn new(page_bits: usize) -> Self {
        Self { s: BitVec::ones(page_bits), c: BitVec::zeros(page_bits) }
    }

    /// Width of the bank in bits.
    pub fn width(&self) -> usize {
        self.s.len()
    }

    /// Initializes the S-latch (activate only M1 before evaluation):
    /// every `OUT_S` reads as one, ready to AND-accumulate.
    pub fn init_s(&mut self) {
        self.s.fill(true);
    }

    /// Initializes the C-latch (activate M4): every `OUT_L` reads as zero,
    /// ready to OR-accumulate.
    pub fn init_c(&mut self) {
        self.c.fill(false);
    }

    /// Evaluation step of a sense.
    ///
    /// * Normal mode: `S ← S AND N` — the evaluation can only pull `OUT_S`
    ///   down, which is what makes ParaBit's AND accumulation work
    ///   (Fig. 6b).
    /// * Inverse mode: `S ← NOT N` — the inverse-read protocol activates
    ///   M2 *before* evaluation (Fig. 4), which initializes the latch as a
    ///   side effect; an inverse sense therefore **cannot accumulate**.
    ///   This is why the paper's Fig. 16 example issues its inverse MWS
    ///   command first ("the order of the two MWS commands is important,
    ///   as an inverse read requires S-latch initialization, which
    ///   prevents the accumulation of the results").
    ///
    /// # Panics
    ///
    /// Panics if `sensed` does not match the bank width.
    pub fn sense(&mut self, sensed: &BitVec, inverse: bool) {
        assert_eq!(sensed.len(), self.s.len(), "sensed page width mismatch");
        if inverse {
            self.s.assign_not_from(sensed);
        } else {
            self.s.and_assign(sensed);
        }
    }

    /// M3 transfer: `C ← C OR S`.
    pub fn transfer(&mut self) {
        self.c.or_assign(&self.s);
    }

    /// One whole sense as a single pass over the bank: the ISCM-selected
    /// [`init_s`](Self::init_s) and [`init_c`](Self::init_c), the
    /// evaluation ([`sense`](Self::sense), inverse or normal), and the
    /// [`transfer`](Self::transfer), in that order. Bit for bit the same
    /// as issuing those operations one after another.
    ///
    /// # Panics
    ///
    /// Panics if `sensed` does not match the bank width.
    pub fn step(&mut self, sensed: &BitVec, flags: IscmFlags) {
        assert_eq!(sensed.len(), self.s.len(), "sensed page width mismatch");
        let mask = |on: bool| if on { u64::MAX } else { 0 };
        let (set_s, keep_c) = (mask(flags.init_s), !mask(flags.init_c));
        let (inverse, transfer) = (mask(flags.inverse), mask(flags.transfer));
        let Self { s, c } = self;
        s.map_pair_assign(c, sensed, |s, c, n| {
            let s = (inverse & !n) | (!inverse & (s | set_s) & n);
            (s, (c & keep_c) | (s & transfer))
        });
    }

    /// Internal XOR logic: `C ← S XOR C`.
    pub fn xor_into_c(&mut self) {
        let Self { s, c } = self;
        c.xor_assign(s);
    }

    /// Current S-latch contents (`OUT_S` column).
    pub fn s_latch(&self) -> &BitVec {
        &self.s
    }

    /// Current C-latch contents (`OUT_L` column) — this is what a data-out
    /// (cache read-out) cycle streams to the flash controller.
    pub fn c_latch(&self) -> &BitVec {
        &self.c
    }

    /// Loads external data into the S-latch (data-in path used by program
    /// operations and by tests).
    ///
    /// # Panics
    ///
    /// Panics if `data` does not match the bank width.
    pub fn load_s(&mut self, data: &BitVec) {
        assert_eq!(data.len(), self.s.len(), "data width mismatch");
        self.s.assign_from(data);
    }

    /// Loads external data into the C-latch.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not match the bank width.
    pub fn load_c(&mut self, data: &BitVec) {
        assert_eq!(data.len(), self.c.len(), "data width mismatch");
        self.c.assign_from(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_page(seed: u64, bits: usize) -> BitVec {
        let mut rng = StdRng::seed_from_u64(seed);
        BitVec::random(bits, &mut rng)
    }

    #[test]
    fn initialized_sense_is_a_plain_read() {
        let mut bank = LatchBank::new(128);
        let n = rand_page(1, 128);
        bank.init_s();
        bank.sense(&n, false);
        assert_eq!(bank.s_latch(), &n);
    }

    #[test]
    fn parabit_and_accumulation() {
        // Fig. 6b: serial senses without re-initialization AND-accumulate.
        let mut bank = LatchBank::new(256);
        let pages: Vec<BitVec> = (0..5).map(|i| rand_page(10 + i, 256)).collect();
        bank.init_s();
        for p in &pages {
            bank.sense(p, false);
        }
        let expect = pages.iter().skip(1).fold(pages[0].clone(), |acc, p| acc.and(p));
        assert_eq!(bank.s_latch(), &expect);
    }

    #[test]
    fn parabit_or_accumulation() {
        // Fig. 6c: init-S before each sense, transfer after each sense.
        let mut bank = LatchBank::new(256);
        let pages: Vec<BitVec> = (0..5).map(|i| rand_page(20 + i, 256)).collect();
        bank.init_c();
        for p in &pages {
            bank.init_s();
            bank.sense(p, false);
            bank.transfer();
        }
        let expect = pages.iter().skip(1).fold(pages[0].clone(), |acc, p| acc.or(p));
        assert_eq!(bank.c_latch(), &expect);
    }

    #[test]
    fn inverse_sense_inverts() {
        let mut bank = LatchBank::new(128);
        let n = rand_page(2, 128);
        bank.init_s();
        bank.sense(&n, true);
        assert_eq!(bank.s_latch(), &n.not());
    }

    #[test]
    fn inverse_sense_cannot_accumulate() {
        // Fig. 4: the inverse protocol initializes the latch before
        // evaluation, so a second inverse sense overwrites the first.
        let mut bank = LatchBank::new(128);
        let a = rand_page(3, 128);
        let b = rand_page(4, 128);
        bank.init_s();
        bank.sense(&a, true);
        bank.sense(&b, true);
        assert_eq!(bank.s_latch(), &b.not(), "inverse sense re-initializes S");
        // The circuit-legal way to combine complements in one step is a
        // single inverse sense of the OR (inter-block MWS): De Morgan.
        bank.sense(&a.or(&b), true);
        assert_eq!(bank.s_latch(), &a.or(&b).not());
        assert_eq!(bank.s_latch(), &a.not().and(&b.not()));
    }

    #[test]
    fn transfer_only_sets_bits() {
        let mut bank = LatchBank::new(64);
        let first = rand_page(5, 64);
        let second = rand_page(6, 64);
        bank.init_c();
        bank.init_s();
        bank.sense(&first, false);
        bank.transfer();
        bank.init_s();
        bank.sense(&second, false);
        bank.transfer();
        // C can never lose a bit through M3.
        assert_eq!(bank.c_latch(), &first.or(&second));
    }

    #[test]
    fn copy_requires_c_init() {
        let mut bank = LatchBank::new(64);
        bank.load_c(&BitVec::ones(64));
        bank.init_s();
        bank.sense(&BitVec::zeros(64), false);
        // Without C-init the stale ones stay.
        bank.transfer();
        assert!(bank.c_latch().is_all_ones());
        // With C-init the transfer is a clean copy.
        bank.init_c();
        bank.transfer();
        assert!(bank.c_latch().is_all_zeros());
    }

    #[test]
    fn xor_logic_and_xnor_identity() {
        // §6.1 Eq. (2): A XNOR B == (NOT A) XOR B.
        let a = rand_page(7, 128);
        let b = rand_page(8, 128);
        let mut bank = LatchBank::new(128);
        // Sense A inverted into S, load B into C, then XOR.
        bank.init_s();
        bank.sense(&a, true);
        bank.load_c(&b);
        bank.xor_into_c();
        let xnor_expect = a.xor(&b).not();
        assert_eq!(bank.c_latch(), &xnor_expect);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut bank = LatchBank::new(64);
        bank.sense(&BitVec::zeros(32), false);
    }

    #[test]
    fn fused_step_matches_sequential_ops() {
        for nibble in 0..16u8 {
            let flags = IscmFlags::from_nibble(nibble);
            let mut fused = LatchBank::new(200);
            fused.load_s(&rand_page(30, 200));
            fused.load_c(&rand_page(31, 200));
            let mut seq = fused.clone();
            let n = rand_page(32 + u64::from(nibble), 200);
            fused.step(&n, flags);
            if flags.init_s {
                seq.init_s();
            }
            if flags.init_c {
                seq.init_c();
            }
            seq.sense(&n, flags.inverse);
            if flags.transfer {
                seq.transfer();
            }
            assert_eq!(fused, seq, "flags {flags:?}");
        }
    }

    #[test]
    fn power_on_state() {
        let bank = LatchBank::new(32);
        assert!(bank.s_latch().is_all_ones());
        assert!(bank.c_latch().is_all_zeros());
        assert_eq!(bank.width(), 32);
    }
}
