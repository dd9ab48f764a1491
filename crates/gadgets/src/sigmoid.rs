//! Zero-knowledge sigmoid via the degree-9 Chebyshev approximation
//! (§III-B.3 of the paper, coefficients from Wan et al., zk-AuthFeed):
//!
//! ```text
//! S(x) ≈ 0.5 + 0.2159198015·x − 0.0082176259·x³ + 0.0001825597·x⁵
//!            − 0.0000018848·x⁷ + 0.0000000072·x⁹
//! ```
//!
//! Evaluated in fixed point at `sigmoid_frac_bits` (default 32 — the
//! smallest scale at which the x⁹ coefficient survives rounding), with a
//! truncation after every multiplication, then rescaled to the tensor
//! scale. The approximation is intended for inputs roughly in `[-8, 8]`,
//! which DeepSigns projections satisfy after training.

use crate::cmp::truncate;
use crate::fixed::{encode_fixed, floor_div_pow2, FixedConfig};
use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::{Fr, PrimeField};
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// The five odd Chebyshev coefficients `c1, c3, c5, c7, c9`.
pub const SIGMOID_COEFFS: [f64; 5] = [
    0.2159198015,
    -0.0082176259,
    0.0001825597,
    -0.0000018848,
    0.0000000072,
];

/// Assumed integer-part bound on sigmoid inputs: `|x| < 2^7 = 128`. The
/// Chebyshev fit is only meaningful on roughly `[-8, 8]`, so this is
/// generous; it keeps the Horner chain's tracked magnitudes within
/// [`MAX_BITS`](crate::num::MAX_BITS). Inputs outside the bound make the
/// prover's decomposition witnesses unsatisfiable (caught at proving time).
pub const SIGMOID_INPUT_INT_BITS: u32 = 7;

/// Sigmoid on a value at scale `cfg.frac_bits`; returns a value at the same
/// scale in `[0, 1]` (approximately).
pub fn sigmoid<CS: ConstraintSystem<Fr>>(
    x: &Num,
    cfg: &FixedConfig,
    cs: &mut CS,
) -> Result<Num, SynthesisError> {
    let s = cfg.sigmoid_frac_bits;
    let f = cfg.frac_bits;
    assert!(s >= f, "sigmoid scale must be at least the tensor scale");
    // lift x to scale s (free)
    let mut xs = x.shl(s - f);
    // tighten the tracked bound to the documented input range; the range
    // checks inside the truncation gadgets enforce it on the witness
    xs.bits = xs.bits.min(SIGMOID_INPUT_INT_BITS + s);
    // x² at scale s
    let x2 = truncate(&xs.mul(&xs, cs)?, s, cs)?;
    // Horner over x²: acc = c9; acc = acc·x² + c_k …
    let mut acc = Num::constant(Fr::from_i128(encode_fixed(SIGMOID_COEFFS[4], s)));
    for k in (0..4).rev() {
        let prod = truncate(&acc.mul(&x2, cs)?, s, cs)?;
        acc = prod.add(&Num::constant(Fr::from_i128(encode_fixed(
            SIGMOID_COEFFS[k],
            s,
        ))));
    }
    // odd part: acc·x, plus the 0.5 offset
    let odd = truncate(&acc.mul(&xs, cs)?, s, cs)?;
    let out_s = odd.add(&Num::constant(Fr::from_i128(1i128 << (s - 1))));
    // Back to the tensor scale. The tracked bound stays as computed by the
    // truncation: for inputs beyond the Chebyshev fit range the polynomial
    // diverges (sign-correctly — the x⁹ term dominates), so the output can
    // be far outside (0, 1) and the honest bound matters for the
    // downstream thresholding gadget.
    truncate(&out_s, s - f, cs)
}

/// Element-wise sigmoid.
pub fn sigmoid_vec<CS: ConstraintSystem<Fr>>(
    xs: &[Num],
    cfg: &FixedConfig,
    cs: &mut CS,
) -> Result<Vec<Num>, SynthesisError> {
    xs.iter().map(|x| sigmoid(x, cfg, cs)).collect()
}

/// Reference fixed-point sigmoid with *identical* integer semantics to the
/// circuit (used to cross-check witnesses and by the plain extraction
/// pipeline so that in-circuit and out-of-circuit BER agree bit-for-bit).
pub fn sigmoid_fixed_reference(x: i128, cfg: &FixedConfig) -> i128 {
    let s = cfg.sigmoid_frac_bits;
    let f = cfg.frac_bits;
    let xs = x << (s - f);
    let x2 = floor_div_pow2(xs * xs, s);
    let mut acc = encode_fixed(SIGMOID_COEFFS[4], s);
    for k in (0..4).rev() {
        acc = floor_div_pow2(acc * x2, s) + encode_fixed(SIGMOID_COEFFS[k], s);
    }
    let odd = floor_div_pow2(acc * xs, s);
    floor_div_pow2(odd + (1i128 << (s - 1)), s - f)
}

/// `f64` reference sigmoid polynomial (accuracy yardstick in tests).
pub fn sigmoid_poly_f64(x: f64) -> f64 {
    let x2 = x * x;
    let mut acc = SIGMOID_COEFFS[4];
    for k in (0..4).rev() {
        acc = acc * x2 + SIGMOID_COEFFS[k];
    }
    0.5 + acc * x
}

/// The true sigmoid, for approximation-error measurements.
/// (`std`-only: `f64::exp` needs the platform math library.)
#[cfg(feature = "std")]
pub fn sigmoid_exact_f64(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkrownn_r1cs::ProvingSynthesizer;

    #[test]
    fn circuit_matches_fixed_reference() {
        let cfg = FixedConfig::default();
        for x in [-4.0f64, -1.5, -0.25, 0.0, 0.25, 1.5, 4.0] {
            let xi = cfg.encode(x);
            let mut cs = ProvingSynthesizer::<Fr>::new();
            let num =
                Num::alloc_witness(&mut cs, || Ok(Fr::from_i128(xi)), cfg.value_bits()).unwrap();
            let out = sigmoid(&num, &cfg, &mut cs).unwrap();
            assert_eq!(
                out.value_i128(),
                sigmoid_fixed_reference(xi, &cfg),
                "x = {x}"
            );
            assert!(cs.is_satisfied().is_ok(), "x = {x}");
        }
    }

    #[test]
    fn fixed_reference_tracks_f64_polynomial() {
        // Floor-truncation error after each Horner step is amplified by the
        // following ·x² multiplications, so the tolerance widens with |x|.
        let cfg = FixedConfig::default();
        for i in -32..=32i32 {
            let x = i as f64 / 4.0; // [-8, 8]
            let xi = cfg.encode(x);
            let got = cfg.decode(sigmoid_fixed_reference(xi, &cfg));
            let want = sigmoid_poly_f64(x);
            let tol = if x.abs() <= 2.0 { 2e-4 } else { 6e-3 };
            assert!(
                (got - want).abs() < tol,
                "x = {x}: fixed {got} vs f64 {want}"
            );
        }
    }

    #[test]
    #[cfg(feature = "std")]
    fn polynomial_approximates_true_sigmoid_near_origin() {
        // The Chebyshev fit is good on roughly [-4, 4]
        for i in -16..=16 {
            let x = i as f64 / 4.0;
            let err = (sigmoid_poly_f64(x) - sigmoid_exact_f64(x)).abs();
            assert!(err < 0.03, "x = {x}, err = {err}");
        }
    }

    #[test]
    fn sigmoid_of_zero_is_half() {
        let cfg = FixedConfig::default();
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let num = Num::alloc_witness(&mut cs, || Ok(Fr::from_i128(0)), cfg.value_bits()).unwrap();
        let out = sigmoid(&num, &cfg, &mut cs).unwrap();
        assert_eq!(out.value_i128(), 1i128 << (cfg.frac_bits - 1));
    }

    #[test]
    fn monotone_on_samples() {
        let cfg = FixedConfig::default();
        let mut prev = i128::MIN;
        for i in -12..=12 {
            let x = cfg.encode(i as f64 / 3.0);
            let y = sigmoid_fixed_reference(x, &cfg);
            assert!(y >= prev, "sigmoid should be monotone on [-4,4]");
            prev = y;
        }
    }
}
