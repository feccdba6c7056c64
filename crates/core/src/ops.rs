//! Derived bulk operations (§10 "Extensions to Other Applications").
//!
//! The paper notes that Flash-Cosmos's primitive set is *logically
//! complete*, so frameworks in the style of SIMDRAM / DualityCache can
//! synthesize arbitrary operations from it, and leaves such a framework
//! to future work. This module is a first cut of that layer: common
//! multi-vector operations expressed as [`Expr`] trees that the planner
//! then lowers onto MWS commands.
//!
//! Everything here is *position-wise* (bit-parallel across the vector),
//! which is exactly the class of operations processing-using-memory
//! substrates accelerate.

use crate::expr::{Expr, OperandId};
use crate::planner::{binomial, index_combinations, MAX_THRESHOLD_COMBOS};

/// Bitwise 2-to-1 multiplexer: `sel ? a : b`, position-wise
/// (`(sel & a) | (!sel & b)`).
pub fn mux(sel: OperandId, a: OperandId, b: OperandId) -> Expr {
    Expr::or(vec![
        Expr::and(vec![Expr::var(sel), Expr::var(a)]),
        Expr::and(vec![Expr::not(Expr::var(sel)), Expr::var(b)]),
    ])
}

/// Position-wise majority of three vectors:
/// `(a&b) | (a&c) | (b&c)` — the carry function of a full adder.
pub fn majority3(a: OperandId, b: OperandId, c: OperandId) -> Expr {
    Expr::or(vec![Expr::and_vars([a, b]), Expr::and_vars([a, c]), Expr::and_vars([b, c])])
}

/// Position-wise parity (sum bit of a full adder): `a ^ b ^ c`.
///
/// The chip's XOR logic is binary, so this compiles as two XOR programs
/// when executed (the planner handles literal-literal XOR; ternary
/// parity is evaluated as `(a ^ b) ^ c` by [`crate::expr::Expr::eval`]
/// and requires two `fc_read` passes in-flash — see the
/// `full_adder_in_flash` test for the staged pattern).
pub fn parity3(a: OperandId, b: OperandId, c: OperandId) -> Expr {
    Expr::xor(Expr::xor(Expr::var(a), Expr::var(b)), Expr::var(c))
}

/// Bit-vector difference: elements in `a` but not in `b` (`a & !b`) —
/// the set-minus of the paper's set-centric graph formulation.
pub fn set_difference(a: OperandId, b: OperandId) -> Expr {
    Expr::and(vec![Expr::var(a), Expr::not(Expr::var(b))])
}

/// Symmetric difference (`a ^ b`) — set elements in exactly one side.
pub fn symmetric_difference(a: OperandId, b: OperandId) -> Expr {
    Expr::xor(Expr::var(a), Expr::var(b))
}

/// Position-wise equality (`a XNOR b`): 1 where the vectors agree — the
/// building block of the in-flash pattern matching the paper cites for
/// chip testing (§6.1).
pub fn equality(a: OperandId, b: OperandId) -> Expr {
    Expr::xnor(Expr::var(a), Expr::var(b))
}

/// Containment mask: positions where `a ⊆ b` fails, i.e. `a & !b`
/// non-zero means `a` is not contained in `b`. Evaluating
/// [`set_difference`] and bit-counting gives the subset test the
/// set-centric SISA formulation uses.
pub fn containment_violations(a: OperandId, b: OperandId) -> Expr {
    set_difference(a, b)
}

/// At-least-`k`-of-`n` threshold over small `n` (union of all size-`k`
/// AND combinations, in the same lexicographic order and under the same
/// term cap as the planner's threshold expansion). Practical for the
/// small fan-ins used by hyper-dimensional-computing style voting; the
/// combination count grows as `C(n, k)`.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds `ids.len()`, or if `C(n, k)` would
/// exceed 10,000 terms.
pub fn at_least_k_of(ids: &[OperandId], k: usize) -> Expr {
    assert!(k >= 1 && k <= ids.len(), "threshold k={k} out of range for n={}", ids.len());
    assert!(
        binomial(ids.len(), k) <= MAX_THRESHOLD_COMBOS,
        "C({}, {k}) too large to synthesize",
        ids.len()
    );
    Expr::or(
        index_combinations(ids.len(), k)
            .into_iter()
            .map(|combo| Expr::and_vars(combo.into_iter().map(|i| ids[i])))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_bits::BitVec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize, bits: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| BitVec::random(bits, &mut rng)).collect()
    }

    #[test]
    fn mux_selects_per_position() {
        let t = table(3, 256, 1);
        let lookup = |i: usize| t[i].clone();
        let out = mux(0, 1, 2).eval(&lookup);
        for i in 0..256 {
            let expect = if t[0].get(i) { t[1].get(i) } else { t[2].get(i) };
            assert_eq!(out.get(i), expect);
        }
    }

    #[test]
    fn majority_and_parity_form_a_full_adder() {
        let t = table(3, 512, 2);
        let lookup = |i: usize| t[i].clone();
        let carry = majority3(0, 1, 2).eval(&lookup);
        let sum = parity3(0, 1, 2).eval(&lookup);
        for i in 0..512 {
            let total = u8::from(t[0].get(i)) + u8::from(t[1].get(i)) + u8::from(t[2].get(i));
            assert_eq!(sum.get(i), total % 2 == 1, "sum bit at {i}");
            assert_eq!(carry.get(i), total >= 2, "carry bit at {i}");
        }
    }

    #[test]
    fn set_operations() {
        let t = table(2, 300, 3);
        let lookup = |i: usize| t[i].clone();
        let diff = set_difference(0, 1).eval(&lookup);
        let sym = symmetric_difference(0, 1).eval(&lookup);
        let eq = equality(0, 1).eval(&lookup);
        for i in 0..300 {
            assert_eq!(diff.get(i), t[0].get(i) && !t[1].get(i));
            assert_eq!(sym.get(i), t[0].get(i) ^ t[1].get(i));
            assert_eq!(eq.get(i), t[0].get(i) == t[1].get(i));
        }
        // Subset check: a ⊆ a ∪ b always.
        let union = t[0].or(&t[1]);
        let lookup2 = move |i: usize| if i == 0 { t[0].clone() } else { union.clone() };
        assert!(containment_violations(0, 1).eval(&lookup2).is_all_zeros());
    }

    #[test]
    fn threshold_votes() {
        let t = table(5, 400, 4);
        let lookup = |i: usize| t[i].clone();
        for k in 1..=5 {
            let out = at_least_k_of(&[0, 1, 2, 3, 4], k).eval(&lookup);
            for i in 0..400 {
                let votes = (0..5).filter(|&v| t[v].get(i)).count();
                assert_eq!(out.get(i), votes >= k, "k={k} position {i}");
            }
        }
    }

    #[test]
    fn threshold_1_is_or_and_n_is_and() {
        let t = table(3, 128, 5);
        let lookup = |i: usize| t[i].clone();
        assert_eq!(
            at_least_k_of(&[0, 1, 2], 1).eval(&lookup),
            Expr::or_vars([0, 1, 2]).eval(&lookup)
        );
        assert_eq!(
            at_least_k_of(&[0, 1, 2], 3).eval(&lookup),
            Expr::and_vars([0, 1, 2]).eval(&lookup)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_threshold_panics() {
        at_least_k_of(&[0, 1], 0);
    }

    /// The staged in-flash full adder: carry in one fc_read (pure
    /// AND/OR), sum via two XOR passes — the §10 synthesis pattern on the
    /// actual device.
    #[test]
    fn full_adder_in_flash() {
        use crate::device::{FlashCosmosDevice, StoreHints};
        use fc_ssd::SsdConfig;
        let dev = FlashCosmosDevice::new(SsdConfig::tiny_test());
        let t = table(3, 256, 6);
        for (i, v) in t.iter().enumerate() {
            dev.fc_write(&format!("in{i}"), v, StoreHints::and_group(&format!("g{i}"))).unwrap();
        }
        // Carry = majority — a single AND/OR expression.
        let (carry, _) = dev.fc_read(&majority3(0, 1, 2)).unwrap();
        // Sum stage 1: t0 ^ t1 (in-flash XOR), stored back as operand 3.
        let (ab, _) = dev.fc_read(&Expr::xor(Expr::var(0), Expr::var(1))).unwrap();
        dev.fc_write("ab", &ab, StoreHints::and_group("g-ab")).unwrap();
        let ab_id = dev.operand("ab").unwrap().id;
        // Sum stage 2: (t0 ^ t1) ^ t2.
        let (sum, _) = dev.fc_read(&Expr::xor(Expr::var(ab_id), Expr::var(2))).unwrap();
        for i in 0..256 {
            let total = u8::from(t[0].get(i)) + u8::from(t[1].get(i)) + u8::from(t[2].get(i));
            assert_eq!(sum.get(i), total % 2 == 1);
            assert_eq!(carry.get(i), total >= 2);
        }
    }
}
