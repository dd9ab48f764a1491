//! Fixed-base windowed scalar multiplication — the trusted-setup kernel.
//!
//! The Groth16 setup multiplies a *single* base (the group generator, or
//! `γ⁻¹`/`δ⁻¹`-scaled variants) by millions of distinct scalars. Three
//! techniques stack here, mirroring the prover's MSM kernel:
//!
//! * **signed-digit windows** — scalars are recoded once into digits in
//!   `[−2^(w−1), 2^(w−1)]`, so each window's table row needs only
//!   `2^(w−1)` entries (`1·B, 2·B, …, 2^(w−1)·B`; negative digits add the
//!   negated entry, which is free in affine form). This halves both the
//!   table-construction cost and the table's cache footprint;
//! * **batch-affine accumulation** — [`FixedBaseTable::mul_many`] walks the
//!   windows in lockstep across *all* scalars: each window round performs
//!   one purely affine addition per active scalar, sharing a single field
//!   inversion across the whole round via Montgomery's batch-inversion
//!   trick (~6 field multiplications per addition instead of ~11 for a
//!   Jacobian mixed add). Because the accumulators *stay* affine, the
//!   result vector needs no final per-point normalization at all — the
//!   table itself is likewise normalized with one batch inversion at
//!   construction instead of one per row;
//! * **scalar parallelism** — the scalar set splits into one contiguous
//!   chunk per core through [`zkrownn_ff::par`] (inline without `std`);
//!   each worker owns its accumulators, carry vector and inversion
//!   scratch.
//!
//! [`FixedBaseTable::mul`] remains as the one-scalar entry point (Jacobian
//! mixed adds; batching has nothing to amortize over a single scalar).

use crate::curve::{Affine, Projective, SwCurveConfig};
use crate::msm::add_affine;
use alloc::vec;
use alloc::vec::Vec;
use zkrownn_ff::{par, BigInt256, Field, Fr, PrimeField};

/// Precomputed window table for one base point.
///
/// `rows[i · half + (j − 1)] = j · 2^(i·window) · base` for `j` in
/// `1..=half` where `half = 2^(window−1)` — the positive signed digits;
/// digit 0 contributes nothing and negative digits use the negated entry.
pub struct FixedBaseTable<C: SwCurveConfig> {
    window: usize,
    /// `2^(window − 1)` — entries per window row.
    half: usize,
    /// Flat row-major table, `windows · half` affine points.
    rows: Vec<Affine<C>>,
}

impl<C: SwCurveConfig> FixedBaseTable<C> {
    /// Suggested window size when `n` multiplications will be performed.
    ///
    /// Balances the per-scalar window walk (`⌈254/w⌉ + 1` batch-affine adds
    /// each) against building `(⌈254/w⌉ + 1) · 2^(w−1)` table entries: the
    /// minimum sits near `log₂ n − 3` and is flat for ±1 around it.
    pub fn suggested_window(n: usize) -> usize {
        if n < 32 {
            3
        } else {
            ((usize::BITS - n.leading_zeros()) as usize - 3).clamp(4, 16)
        }
    }

    /// Builds a table for `base` with the given window width.
    ///
    /// All `windows · 2^(w−1)` entries are accumulated in Jacobian form and
    /// normalized with **one** shared batch inversion at the end.
    pub fn new(base: Projective<C>, window: usize) -> Self {
        assert!((2..=20).contains(&window), "unreasonable window size");
        // one extra window absorbs the signed-digit carry out of bit 254
        let windows = 254usize.div_ceil(window) + 1;
        let half = 1usize << (window - 1);
        let mut jac = Vec::with_capacity(windows * half);
        let mut block_base = base; // 2^(i·window) · base
        for _ in 0..windows {
            // row: 1·bb, 2·bb, …, half·bb
            let mut acc = block_base;
            for _ in 0..half {
                jac.push(acc);
                acc += block_base;
            }
            // next block base is 2^w·bb = 2 · (half·bb) = 2 · last entry
            block_base = jac.last().expect("half ≥ 1").double();
        }
        Self {
            window,
            half,
            rows: Projective::batch_into_affine(&jac),
        }
    }

    /// The window width this table was built for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Table entry for signed-digit magnitude `mag ∈ 1..=half` of window `w`.
    #[inline]
    fn entry(&self, w: usize, mag: usize) -> &Affine<C> {
        &self.rows[w * self.half + (mag - 1)]
    }

    /// Number of signed-digit windows (table rows).
    #[inline]
    fn windows(&self) -> usize {
        self.rows.len() / self.half
    }

    /// Recodes the next window digit: returns `(digit, carry_out)` with
    /// `digit ∈ [−2^(w−1), 2^(w−1) − 1]` and
    /// `raw + carry_in = digit + carry_out · 2^w`.
    #[inline]
    fn signed_digit(&self, repr: &BigInt256, w: usize, carry: u64) -> (i64, u64) {
        let raw = repr.bits64(w * self.window, self.window) + carry;
        if raw >= self.half as u64 {
            (raw as i64 - (1i64 << self.window), 1)
        } else {
            (raw as i64, 0)
        }
    }

    /// Multiplies the base by `scalar` (single-scalar path: Jacobian mixed
    /// additions, no batching to amortize).
    pub fn mul(&self, scalar: Fr) -> Projective<C> {
        let repr = scalar.into_bigint();
        let mut acc = Projective::identity();
        let mut carry = 0u64;
        for w in 0..self.windows() {
            let (digit, c) = self.signed_digit(&repr, w, carry);
            carry = c;
            if digit != 0 {
                let p = self.entry(w, digit.unsigned_abs() as usize);
                if digit < 0 {
                    acc.add_assign_mixed(&p.neg());
                } else {
                    acc.add_assign_mixed(p);
                }
            }
        }
        debug_assert_eq!(carry, 0, "carry out of a 254-bit scalar");
        acc
    }

    /// Multiplies the base by each scalar, returning affine points directly
    /// (batch-affine accumulation, split across the machine's cores; serial
    /// without the `std` feature).
    pub fn mul_many(&self, scalars: &[Fr]) -> Vec<Affine<C>> {
        let mut out = vec![Affine::identity(); scalars.len()];
        let chunk = par::chunk_len(scalars.len(), 1);
        let parts = scalars.chunks(chunk).zip(out.chunks_mut(chunk));
        par::map(parts, |(s, o)| self.accumulate(s, o));
        out
    }

    /// The serial batch-affine kernel: walks all windows in lockstep over
    /// `scalars`, one shared Montgomery batch inversion per window round,
    /// accumulating into the (affine) `out` slots.
    fn accumulate(&self, scalars: &[Fr], out: &mut [Affine<C>]) {
        debug_assert_eq!(scalars.len(), out.len());
        let n = scalars.len();
        let reprs: Vec<BigInt256> = scalars.iter().map(|s| s.into_bigint()).collect();
        let mut carries = vec![0u64; n];
        let mut digits = vec![0i64; n];
        let mut denoms: Vec<C::BaseField> = Vec::with_capacity(n);
        let mut scratch: Vec<C::BaseField> = Vec::with_capacity(n);
        for w in 0..self.windows() {
            // Phase A: recode this window's digits and collect one
            // denominator per active scalar, in scalar order.
            denoms.clear();
            for i in 0..n {
                let (digit, c) = self.signed_digit(&reprs[i], w, carries[i]);
                carries[i] = c;
                digits[i] = digit;
                if digit == 0 {
                    continue;
                }
                let q = self.entry(w, digit.unsigned_abs() as usize);
                let p = &out[i];
                denoms.push(if p.infinity || q.infinity {
                    C::BaseField::one()
                } else if p.x == q.x {
                    // doubling needs 1/(2y); the q = −p cancellation case
                    // pushes 2y too, but its inverse is never read
                    p.y.double()
                } else {
                    q.x - p.x
                });
            }
            if denoms.is_empty() {
                continue;
            }
            C::BaseField::batch_inverse_with_scratch(&mut denoms, &mut scratch);

            // Phase B: apply the affine additions with the shared inverses.
            let mut next = 0usize;
            for i in 0..n {
                let d = digits[i];
                if d == 0 {
                    continue;
                }
                let mut q = *self.entry(w, d.unsigned_abs() as usize);
                if d < 0 {
                    q = q.neg();
                }
                out[i] = add_affine(&out[i], &q, denoms[next]);
                next += 1;
            }
        }
        debug_assert!(carries.iter().all(|&c| c == 0), "carry out of 254 bits");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{G1Projective, G2Projective};
    use rand::SeedableRng;
    use zkrownn_ff::Field;

    #[test]
    fn table_mul_matches_double_and_add_g1() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(71);
        let g = G1Projective::generator();
        for window in [2usize, 3, 7, 13] {
            let table = FixedBaseTable::new(g, window);
            for _ in 0..5 {
                let s = Fr::random(&mut rng);
                assert_eq!(table.mul(s), g.mul_scalar(s), "window {window}");
            }
        }
    }

    #[test]
    fn table_mul_matches_double_and_add_g2() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(72);
        let g = G2Projective::generator();
        let table = FixedBaseTable::new(g, 5);
        let s = Fr::random(&mut rng);
        assert_eq!(table.mul(s), g.mul_scalar(s));
    }

    #[test]
    fn mul_many_matches_individual() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(73);
        let g = G1Projective::generator();
        let table = FixedBaseTable::new(g, 6);
        let scalars: Vec<Fr> = (0..23).map(|_| Fr::random(&mut rng)).collect();
        let many = table.mul_many(&scalars);
        for (s, p) in scalars.iter().zip(many.iter()) {
            assert_eq!(*p, g.mul_scalar(*s).into_affine());
        }
    }

    #[test]
    fn mul_many_handles_adversarial_scalars() {
        // zero (never touches the accumulator), one, r − 1 (every signed
        // digit path), equal scalars (forces the doubling branch of the
        // batch-affine add when accumulators collide with table entries)
        let g = G1Projective::generator();
        let table = FixedBaseTable::new(g, 4);
        let scalars = vec![
            Fr::zero(),
            Fr::one(),
            -Fr::one(),
            Fr::from_u64(2),
            Fr::from_u64(2),
            Fr::from_u64((1 << 15) - 1),
        ];
        let many = table.mul_many(&scalars);
        for (s, p) in scalars.iter().zip(many.iter()) {
            assert_eq!(*p, g.mul_scalar(*s).into_affine());
        }
        assert!(many[0].is_identity());
    }

    #[test]
    fn zero_and_one_scalars() {
        let g = G1Projective::generator();
        let table = FixedBaseTable::new(g, 4);
        assert!(table.mul(Fr::zero()).is_identity());
        assert_eq!(table.mul(Fr::one()), g);
    }

    #[test]
    fn suggested_window_grows_with_n() {
        assert_eq!(FixedBaseTable::<crate::G1Config>::suggested_window(8), 3);
        let w1k = FixedBaseTable::<crate::G1Config>::suggested_window(1 << 10);
        let w128k = FixedBaseTable::<crate::G1Config>::suggested_window(1 << 17);
        assert!(w1k < w128k);
        assert!(w128k <= 16);
    }
}
