//! # fc-bits — bit-vector substrate for the Flash-Cosmos reproduction
//!
//! Every layer of the Flash-Cosmos stack — NAND pages, latch contents,
//! workload operands, host-side reference computation — is a large bit
//! vector. This crate provides [`BitVec`], a word-packed bit vector with the
//! bulk bitwise operations the paper's applications rely on (AND, OR, XOR,
//! NOT, population count), plus the NAND data patterns used in the paper's
//! real-device characterization (checkered worst-case, random, solid).
//!
//! ```
//! use fc_bits::BitVec;
//!
//! let a = BitVec::from_fn(128, |i| i % 2 == 0);
//! let b = BitVec::from_fn(128, |i| i % 3 == 0);
//! let c = a.and(&b);
//! assert_eq!(c.count_ones(), (0..128).filter(|i| i % 2 == 0 && i % 3 == 0).count());
//! ```

mod bitvec;
mod pattern;

pub use bitvec::{BitVec, Words};
pub use pattern::{checkered, max_string_resistance, solid, striped, DataPattern};

/// Number of bits in one storage word of a [`BitVec`].
pub const WORD_BITS: usize = 64;

/// Words per chunk of the multi-operand kernels ([`BitVec::and_fold_assign`],
/// [`BitVec::at_least_into`], …). A chunk of the output and the threshold
/// kernel's counter planes for it stay in L1 while every operand streams
/// through once.
pub const CHUNK_WORDS: usize = 128;

/// Returns the number of `u64` words needed to hold `bits` bits.
///
/// ```
/// assert_eq!(fc_bits::words_for(0), 0);
/// assert_eq!(fc_bits::words_for(64), 1);
/// assert_eq!(fc_bits::words_for(65), 2);
/// ```
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}
