//! Multiplicative evaluation domains of size `3ᵇ·2ᵏ` over a prime field.
//!
//! A domain of size `m` is the subgroup `H = {1, ω, ..., ω^(m−1)}`
//! generated by a primitive `m`-th root of unity. The Groth16 reduction
//! interpolates constraint evaluations over `H` and divides by the vanishing
//! polynomial `Z_H(x) = x^m − 1` on a *coset* `gH`, where `Z_H` is the
//! non-zero constant `g^m − 1`.
//!
//! `m` is the smallest `3ᵇ·2ᵏ` that holds the requested number of points,
//! with `b` at most the field's [`PrimeField::THREE_ADICITY`] (2 for BN254
//! `Fr`, 0 — radix-2 only — for every other field here) and `k ≥ 1`
//! whenever `b ≥ 1`, so a domain of more than one point always contains
//! `−1 = ω^(m/2)`. A circuit just past a power of two then pays for
//! `3·2ᵏ⁻¹` points instead of `2ᵏ⁺¹`. Power-of-two sizes run the plain
//! radix-2 kernel; each factor of three adds one radix-3 decimation stage
//! in front of it.
//!
//! Domains precompute their twiddle tables (forward and inverse roots of
//! unity, plus the coset scale vectors) once at construction, so every FFT
//! pays one table lookup per butterfly instead of a serial `w *= w_m`
//! dependency chain. Butterfly layers are additionally split across cores
//! through [`zkrownn_ff::par`] (the fork-join every kernel shares) above
//! [`PARALLEL_FFT_MIN`]; construct the domain once and reuse it — that is
//! the whole point of the tables.

use zkrownn_ff::{par, Field, PrimeField};

/// Sizes below this run every butterfly layer serially: thread spawn/join
/// overhead beats the arithmetic saved on small transforms.
pub const PARALLEL_FFT_MIN: usize = 1 << 12;

/// Minimum number of butterflies a spawned worker should own.
const MIN_BUTTERFLIES_PER_THREAD: usize = 1 << 9;

/// An FFT evaluation domain of size `3ᵇ·2ᵏ` with precomputed twiddle
/// tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Domain<F: PrimeField> {
    /// Domain size (`3ᵇ·2ᵏ`; see the module docs).
    pub size: usize,
    /// Primitive `size`-th root of unity.
    pub group_gen: F,
    /// Inverse of `group_gen`.
    pub group_gen_inv: F,
    /// `size⁻¹` in the field.
    pub size_inv: F,
    /// Multiplicative coset offset (a non-subgroup element).
    pub coset_offset: F,
    /// Inverse of the coset offset.
    pub coset_offset_inv: F,
    /// Forward twiddles `[1, ω, ω², …, ω^(size/2 − 1)]` (empty for size 1).
    twiddles: Vec<F>,
    /// Inverse twiddles `[1, ω⁻¹, …, ω^−(size/2 − 1)]`.
    inv_twiddles: Vec<F>,
    /// `size⁻¹ · g⁻ⁱ` per index — the inverse coset FFT's combined scale.
    coset_scale_inv: Vec<F>,
    /// `size⁻¹ · gⁱ` per index — the fused interpolate-then-coset scale
    /// (see [`Self::ifft_coset_fft_in_place`]).
    ifft_coset_scale: Vec<F>,
}

impl<F: PrimeField> Domain<F> {
    /// Builds the smallest domain of size ≥ `min_size` (see
    /// [`Self::size_for`]), including its twiddle and coset-scale tables
    /// (`3·size/2 + size` multiplications, parallelized for large domains —
    /// amortized over every later FFT).
    ///
    /// Returns `None` if `min_size` exceeds the largest domain the field
    /// has (`3^THREE_ADICITY · 2^TWO_ADICITY`).
    pub fn new(min_size: usize) -> Option<Self> {
        let (size, b, k) = admissible_size::<F>(min_size)?;
        // ω₂ = root^(2^(s − k)) has exact order 2^k …
        let mut group_gen = F::two_adic_root_of_unity();
        for _ in 0..(F::TWO_ADICITY - k) {
            group_gen = group_gen.square();
        }
        // … and times an element of exact order 3^b, exact order 3^b·2^k
        if b > 0 {
            let mut three_gen = F::three_adic_root_of_unity();
            for _ in 0..(F::THREE_ADICITY - b) {
                three_gen = three_gen * three_gen.square();
            }
            group_gen *= three_gen;
        }
        debug_assert!(group_gen.pow(&[size as u64]).is_one());
        // The field generator is a quadratic (and, where the field has
        // 3-adic domains, cubic) non-residue, hence outside every proper
        // subgroup of order 3ᵇ·2ᵏ — a safe coset offset.
        let coset_offset = F::multiplicative_generator();
        debug_assert!(size == 1 || !coset_offset.pow(&[size as u64]).is_one());
        let group_gen_inv = group_gen.inverse().expect("root of unity is non-zero");
        let size_inv = F::from_u64(size as u64).inverse().expect("size < p");
        let coset_offset_inv = coset_offset.inverse().expect("offset is non-zero");
        Some(Self {
            size,
            group_gen,
            group_gen_inv,
            size_inv,
            coset_offset,
            coset_offset_inv,
            twiddles: geometric_series(F::one(), group_gen, size / 2),
            inv_twiddles: geometric_series(F::one(), group_gen_inv, size / 2),
            // the scale entries carry the 1/m factor of the inverse pass
            coset_scale_inv: geometric_series(size_inv, coset_offset_inv, size),
            ifft_coset_scale: geometric_series(size_inv, coset_offset, size),
        })
    }

    /// The size [`Self::new`] picks for `min_size` points, without building
    /// any table: the smallest `3ᵇ·2ᵏ ≥ min_size` with
    /// `b ≤ THREE_ADICITY`, `k ≤ TWO_ADICITY` and `k ≥ 1` when `b ≥ 1`.
    pub fn size_for(min_size: usize) -> Option<usize> {
        admissible_size::<F>(min_size).map(|(size, _, _)| size)
    }

    /// Iterator over the domain elements `1, ω, ω², …` (no allocation).
    pub fn elements(&self) -> Elements<F> {
        Elements {
            cur: F::one(),
            gen: self.group_gen,
            remaining: self.size,
        }
    }

    /// The domain elements collected into a `Vec` (convenience for callers
    /// that genuinely need random access).
    pub fn elements_vec(&self) -> Vec<F> {
        self.elements().collect()
    }

    /// Evaluates the vanishing polynomial `Z_H(x) = x^m − 1`.
    pub fn evaluate_vanishing_polynomial(&self, x: F) -> F {
        x.pow(&[self.size as u64]) - F::one()
    }

    /// `Z_H` evaluated anywhere on the coset `gH` (a constant).
    pub fn vanishing_polynomial_on_coset(&self) -> F {
        self.evaluate_vanishing_polynomial(self.coset_offset)
    }

    /// In-place forward FFT: `values[i] := p(ωⁱ)` given coefficients.
    pub fn fft_in_place(&self, values: &mut Vec<F>) {
        values.resize(self.size, F::zero());
        mixed_radix_fft(values, &self.twiddles);
    }

    /// In-place inverse FFT: coefficients of the interpolating polynomial.
    pub fn ifft_in_place(&self, values: &mut Vec<F>) {
        values.resize(self.size, F::zero());
        mixed_radix_fft(values, &self.inv_twiddles);
        let size_inv = self.size_inv;
        par_map_in_place(values, |v| *v *= size_inv);
    }

    /// Forward FFT over the coset `gH`.
    ///
    /// The gⁱ scale is computed inline here rather than from a precomputed
    /// table: the prover's hot pipeline goes through the fused
    /// [`Self::ifft_coset_fft_in_place`] instead, so this entry point does
    /// not warrant a fifth per-domain table.
    pub fn coset_fft_in_place(&self, values: &mut Vec<F>) {
        values.resize(self.size, F::zero());
        let mut cur = F::one();
        for v in values.iter_mut() {
            *v *= cur;
            cur *= self.coset_offset;
        }
        mixed_radix_fft(values, &self.twiddles);
    }

    /// Interpolates evaluations over `H` and re-evaluates on the coset
    /// `gH` — equivalent to `ifft_in_place` followed by
    /// `coset_fft_in_place`, but the interpolation's `1/m` scale and the
    /// coset's `gⁱ` scale fuse into one table pass (the Groth16 witness
    /// map runs this pipeline three times per proof).
    pub fn ifft_coset_fft_in_place(&self, values: &mut Vec<F>) {
        values.resize(self.size, F::zero());
        mixed_radix_fft(values, &self.inv_twiddles);
        par_scale_in_place(values, &self.ifft_coset_scale);
        mixed_radix_fft(values, &self.twiddles);
    }

    /// Inverse FFT over the coset `gH`.
    pub fn coset_ifft_in_place(&self, values: &mut Vec<F>) {
        values.resize(self.size, F::zero());
        mixed_radix_fft(values, &self.inv_twiddles);
        par_scale_in_place(values, &self.coset_scale_inv);
    }

    /// Convenience non-mutating wrappers.
    pub fn fft(&self, coeffs: &[F]) -> Vec<F> {
        let mut v = coeffs.to_vec();
        self.fft_in_place(&mut v);
        v
    }

    /// Interpolation: coefficients from evaluations over `H`.
    pub fn ifft(&self, evals: &[F]) -> Vec<F> {
        let mut v = evals.to_vec();
        self.ifft_in_place(&mut v);
        v
    }

    /// Evaluations of all Lagrange basis polynomials `Lⱼ(τ)` at a point.
    ///
    /// Uses the closed form `Lⱼ(τ) = Z_H(τ)·ωʲ / (m·(τ − ωʲ))`, with a batch
    /// inversion for the denominators. Falls back to the indicator vector if
    /// `τ` lies inside the domain.
    ///
    /// The domain elements are read from the precomputed twiddle table
    /// (`ωⁱ = twiddles[i]` for `i < m/2` and `−twiddles[i − m/2]` above,
    /// since `ω^(m/2) = −1` — every domain of more than one point has even
    /// size, radix-3 ones included) instead of a serial `cur *= ω` chain,
    /// so the whole evaluation splits across cores: each worker fills and
    /// batch-inverts its own chunk. This is the trusted setup's QAP
    /// evaluation entry point.
    pub fn lagrange_coefficients_at(&self, tau: F) -> Vec<F> {
        let z = self.evaluate_vanishing_polynomial(tau);
        if z.is_zero() {
            // τ = ω^j for some j: L_j = 1, others 0
            return self
                .elements()
                .map(|e| if e == tau { F::one() } else { F::zero() })
                .collect();
        }
        let m = self.size;
        let z_over_m = z * self.size_inv;
        let mut out = vec![F::zero(); m];
        if m == 1 {
            // single-point domain {1}: L₀(τ) = 1 (= (τ−1)/(τ−1))
            out[0] = z_over_m * (tau - F::one()).inverse().expect("Z(τ) ≠ 0 ⇒ τ ≠ 1");
            return out;
        }
        let twiddles = &self.twiddles;
        let elem = |i: usize| {
            if i < m / 2 {
                twiddles[i]
            } else {
                -twiddles[i - m / 2]
            }
        };
        let chunk = par::chunk_len(m, 1 << 12);
        par::map(out.chunks_mut(chunk).enumerate(), |(t, dst)| {
            let start = t * chunk;
            for (k, d) in dst.iter_mut().enumerate() {
                *d = tau - elem(start + k);
            }
            // Z(τ) ≠ 0 keeps τ outside H, so no denominator is zero
            F::batch_inverse_with_scratch(dst, &mut Vec::with_capacity(dst.len()));
            for (k, d) in dst.iter_mut().enumerate() {
                *d *= z_over_m * elem(start + k);
            }
        });
        out
    }
}

/// Streaming iterator over a domain's elements (see
/// [`Domain::elements`]).
#[derive(Clone, Debug)]
pub struct Elements<F: Field> {
    cur: F,
    gen: F,
    remaining: usize,
}

impl<F: Field> Iterator for Elements<F> {
    type Item = F;

    fn next(&mut self) -> Option<F> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.cur;
        self.cur *= self.gen;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<F: Field> ExactSizeIterator for Elements<F> {}

/// `[scale·rⁱ]` for `i < n`, computed in parallel chunks (each worker jumps
/// to its start with one `pow`, then runs the serial recurrence locally).
///
/// Public because the Groth16 setup uses it for its power-of-τ scalar
/// vectors (`τⁱ·Z(τ)/δ`) — the same jump-then-recur split that builds the
/// twiddle tables here.
pub fn geometric_series<F: Field>(scale: F, ratio: F, n: usize) -> Vec<F> {
    let mut out = vec![F::zero(); n];
    let chunk = par::chunk_len(n, 1 << 12);
    par::map(out.chunks_mut(chunk).enumerate(), |(t, dst)| {
        let mut cur = scale * ratio.pow(&[(t * chunk) as u64]);
        for d in dst.iter_mut() {
            *d = cur;
            cur *= ratio;
        }
    });
    out
}

/// Applies `f` to every element, splitting across cores for large inputs.
fn par_map_in_place<F: Field, G: Fn(&mut F) + Sync>(values: &mut [F], f: G) {
    let chunk = par::chunk_len(values.len(), 1 << 13);
    par::map(values.chunks_mut(chunk), |part| {
        part.iter_mut().for_each(&f)
    });
}

/// Elementwise `values[i] *= table[i]` (the coset scale passes).
fn par_scale_in_place<F: Field>(values: &mut [F], table: &[F]) {
    debug_assert_eq!(values.len(), table.len());
    let chunk = par::chunk_len(values.len(), 1 << 13);
    let parts = values.chunks_mut(chunk).zip(table.chunks(chunk));
    par::map(parts, |(vs, ts)| {
        vs.iter_mut().zip(ts).for_each(|(v, t)| *v *= *t)
    });
}

/// The smallest admissible `(size, b, k)` with `size = 3ᵇ·2ᵏ ≥ min_size`
/// (see [`Domain::size_for`]); `None` past the field's largest domain.
fn admissible_size<F: PrimeField>(min_size: usize) -> Option<(usize, u32, u32)> {
    let min = min_size.max(1) as u128;
    (0..=F::THREE_ADICITY)
        .filter_map(|b| {
            let odd = 3u128.pow(b);
            // k ≥ 1 beside a factor of three keeps ω^(m/2) = −1 in the domain
            let mut k = u32::from(b > 0);
            while odd << k < min {
                k += 1;
            }
            let size = usize::try_from(odd << k).ok()?;
            (k <= F::TWO_ADICITY).then_some((size, b, k))
        })
        .min()
}

/// The transform behind every FFT entry point, over a table of roots of
/// unity: one radix-3 decimation-in-time stage per factor of three in
/// `a.len()`, then the radix-2 kernel [`fft_with_tables`]. A power-of-two
/// length goes straight to that kernel.
///
/// `twiddles` is `[1, ω, …, ω^(span/2 − 1)]` for a transform of some size
/// `span` that `n = a.len()` divides — the domain's own table, read here
/// and below at stride `span/n` — and the transform's root is `ω^(span/n)`.
///
/// With `n = 3·n'` and `Pᵣ` the length-`n'` transform (root `ω³`) of the
/// stride-3 subsequence `a[r], a[r + 3], …`, output `t + j·n'` is
/// `Σᵣ ωʳᵗ·ζʳʲ·Pᵣ[t]` for the cube root `ζ = ω^n'`. Writing `xᵣ = ωʳᵗ·Pᵣ[t]`
/// and using `ζ² = −1 − ζ`, the three outputs are `x₀ + x₁ + x₂`,
/// `x₀ − x₂ + ζ·(x₁ − x₂)` and `x₀ − x₁ − ζ·(x₁ − x₂)`: three
/// multiplications a triple, split across cores in chunks of `t`.
fn mixed_radix_fft<F: Field>(a: &mut [F], twiddles: &[F]) {
    let n = a.len();
    if !n.is_multiple_of(3) {
        fft_with_tables(a, twiddles);
        return;
    }
    let third = n / 3;
    let mut parts = Vec::with_capacity(n);
    for r in 0..3 {
        parts.extend(a[r..].iter().step_by(3).copied());
    }
    for part in parts.chunks_mut(third) {
        mixed_radix_fft(part, twiddles);
    }

    // ω^i for i < n, from the table at stride span/n and ω^(n/2) = −1
    let stride = 2 * twiddles.len() / n;
    let root = move |i: usize| {
        if i < n / 2 {
            twiddles[i * stride]
        } else {
            -twiddles[(i - n / 2) * stride]
        }
    };
    let zeta = root(third);
    let (p0, rest) = parts.split_at(third);
    let (p1, p2) = rest.split_at(third);
    let (o0, rest) = a.split_at_mut(third);
    let (o1, o2) = rest.split_at_mut(third);
    // the triples starting at t0, written to the three output thirds
    let combine = move |t0: usize, [o0, o1, o2]: [&mut [F]; 3], [p0, p1, p2]: [&[F]; 3]| {
        for j in 0..o0.len() {
            let t = t0 + j;
            let x0 = p0[j];
            let x1 = p1[j] * root(t);
            let x2 = p2[j] * root(2 * t);
            let d = zeta * (x1 - x2);
            o0[j] = x0 + x1 + x2;
            o1[j] = x0 - x2 + d;
            o2[j] = x0 - x1 - d;
        }
    };
    let chunk = par::chunk_len(third, MIN_BUTTERFLIES_PER_THREAD);
    let outputs = o0
        .chunks_mut(chunk)
        .zip(o1.chunks_mut(chunk))
        .zip(o2.chunks_mut(chunk));
    let inputs = p0.chunks(chunk).zip(p1.chunks(chunk)).zip(p2.chunks(chunk));
    par::map(
        outputs.zip(inputs).enumerate(),
        |(c, (((o0, o1), o2), ((p0, p1), p2)))| combine(c * chunk, [o0, o1, o2], [p0, p1, p2]),
    );
}

/// In-place bit-reversal permutation.
fn bit_reverse<F>(a: &mut [F]) {
    let n = a.len();
    let log_n = n.trailing_zeros();
    for k in 0..n as u64 {
        let rk = k.reverse_bits() >> (64 - log_n);
        if k < rk {
            a.swap(k as usize, rk as usize);
        }
    }
}

/// Iterative in-place Cooley-Tukey FFT (decimation in time) driven by a
/// precomputed twiddle table of `span/2` roots, for a power-of-two `n`
/// dividing `span` (`span = n` for a power-of-two domain; the radix-3
/// stage hands its thirds the domain's whole table).
///
/// The table serves every layer by striding: the butterfly at offset `j` of
/// a block with half-size `m` uses `twiddles[j · span/(2m)]`. Large
/// transforms run in two phases: independent sub-FFTs on contiguous chunks
/// (one worker each), then the remaining cross-chunk layers with each
/// block's halves split across workers.
fn fft_with_tables<F: Field>(a: &mut [F], twiddles: &[F]) {
    let n = a.len();
    assert!(n.is_power_of_two(), "fft size must be a power of two");
    if n == 1 {
        return;
    }
    let span = 2 * twiddles.len();
    debug_assert_eq!(span % n, 0, "twiddle table does not cover the transform");
    bit_reverse(a);

    // power-of-two worker count so chunks align with butterfly blocks; a
    // layer of n points is n/2 butterflies
    let threads = prev_power_of_two(par::workers(n / 2, MIN_BUTTERFLIES_PER_THREAD));
    if n < PARALLEL_FFT_MIN || threads <= 1 {
        butterfly_layers(a, twiddles, span, n);
        return;
    }

    // Phase 1: every layer with block size ≤ chunk stays inside one chunk.
    let chunk = n / threads;
    let phase1 = |sub: &mut [F]| butterfly_layers(sub, twiddles, span, chunk);
    par::map(a.chunks_mut(chunk), phase1);

    // Phase 2: cross-chunk layers; split each block's halves across workers.
    let mut m = chunk;
    while m < n {
        let stride = span / (2 * m);
        let blocks = n / (2 * m);
        let piece = m.div_ceil((threads / blocks).max(1));
        let halves = a.chunks_mut(2 * m).flat_map(|block| {
            let (lo, hi) = { block }.split_at_mut(m);
            lo.chunks_mut(piece).zip(hi.chunks_mut(piece)).enumerate()
        });
        par::map(halves, |(ci, (lc, hc))| {
            let j0 = ci * piece;
            for j in 0..lc.len() {
                let w = twiddles[(j0 + j) * stride];
                let t = w * hc[j];
                hc[j] = lc[j] - t;
                lc[j] += t;
            }
        });
        m *= 2;
    }
}

/// Largest power of two ≤ `x` (1 for `x == 0`).
fn prev_power_of_two(x: usize) -> usize {
    if x == 0 {
        1
    } else {
        1 << (usize::BITS - 1 - x.leading_zeros())
    }
}

/// Runs the butterfly layers with block sizes `2 ..= max_block` over `sub`,
/// reading twiddles strided relative to the table's transform size `span`
/// (after global bit-reversal, any aligned chunk is a valid sub-transform
/// for block sizes up to the chunk length).
fn butterfly_layers<F: Field>(sub: &mut [F], twiddles: &[F], span: usize, max_block: usize) {
    let len = sub.len();
    let mut m = 1;
    while 2 * m <= max_block {
        let stride = span / (2 * m);
        let mut k = 0;
        while k < len {
            for j in 0..m {
                let w = twiddles[j * stride];
                let t = w * sub[k + j + m];
                sub[k + j + m] = sub[k + j] - t;
                sub[k + j] += t;
            }
            k += 2 * m;
        }
        m *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use zkrownn_ff::Fr;

    fn eval_naive(coeffs: &[Fr], x: Fr) -> Fr {
        coeffs.iter().rev().fold(Fr::zero(), |acc, &c| acc * x + c)
    }

    #[test]
    fn fft_matches_naive_evaluation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(101);
        for size in [1usize, 2, 4, 8, 32] {
            let domain = Domain::<Fr>::new(size).unwrap();
            let coeffs: Vec<Fr> = (0..size).map(|_| Fr::random(&mut rng)).collect();
            let evals = domain.fft(&coeffs);
            for (i, w) in domain.elements().enumerate() {
                assert_eq!(evals[i], eval_naive(&coeffs, w), "size {size}, i {i}");
            }
        }
    }

    #[test]
    fn fft_ifft_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(102);
        let domain = Domain::<Fr>::new(64).unwrap();
        let coeffs: Vec<Fr> = (0..64).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(domain.ifft(&domain.fft(&coeffs)), coeffs);
    }

    #[test]
    fn coset_fft_matches_naive_evaluation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(103);
        let domain = Domain::<Fr>::new(16).unwrap();
        let coeffs: Vec<Fr> = (0..16).map(|_| Fr::random(&mut rng)).collect();
        let mut evals = coeffs.clone();
        domain.coset_fft_in_place(&mut evals);
        for (i, w) in domain.elements().enumerate() {
            let x = domain.coset_offset * w;
            assert_eq!(evals[i], eval_naive(&coeffs, x));
        }
    }

    #[test]
    fn coset_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(104);
        let domain = Domain::<Fr>::new(32).unwrap();
        let coeffs: Vec<Fr> = (0..32).map(|_| Fr::random(&mut rng)).collect();
        let mut v = coeffs.clone();
        domain.coset_fft_in_place(&mut v);
        domain.coset_ifft_in_place(&mut v);
        assert_eq!(v, coeffs);
    }

    #[test]
    fn vanishing_polynomial_zero_on_domain_constant_on_coset() {
        let domain = Domain::<Fr>::new(8).unwrap();
        for w in domain.elements() {
            assert!(domain.evaluate_vanishing_polynomial(w).is_zero());
        }
        let z = domain.vanishing_polynomial_on_coset();
        assert!(!z.is_zero());
        for w in domain.elements() {
            assert_eq!(
                domain.evaluate_vanishing_polynomial(domain.coset_offset * w),
                z
            );
        }
    }

    #[test]
    fn fused_ifft_coset_fft_matches_two_step() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(106);
        for size in [1usize, 4, 64] {
            let domain = Domain::<Fr>::new(size).unwrap();
            let evals: Vec<Fr> = (0..size).map(|_| Fr::random(&mut rng)).collect();
            let mut two_step = evals.clone();
            domain.ifft_in_place(&mut two_step);
            domain.coset_fft_in_place(&mut two_step);
            let mut fused = evals.clone();
            domain.ifft_coset_fft_in_place(&mut fused);
            assert_eq!(fused, two_step, "size {size}");
        }
    }

    #[test]
    fn elements_iterator_matches_vec_and_is_exact_size() {
        let domain = Domain::<Fr>::new(16).unwrap();
        let iter = domain.elements();
        assert_eq!(iter.len(), 16);
        let collected: Vec<Fr> = iter.collect();
        assert_eq!(collected, domain.elements_vec());
        assert_eq!(collected[0], Fr::one());
        assert_eq!(collected[1], domain.group_gen);
    }

    #[test]
    fn lagrange_coefficients_interpolate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(105);
        let domain = Domain::<Fr>::new(8).unwrap();
        let evals: Vec<Fr> = (0..8).map(|_| Fr::random(&mut rng)).collect();
        let tau = Fr::random(&mut rng);
        let coeffs = domain.ifft(&evals);
        let expected = eval_naive(&coeffs, tau);
        let lag = domain.lagrange_coefficients_at(tau);
        let got = lag
            .iter()
            .zip(evals.iter())
            .fold(Fr::zero(), |acc, (&l, &e)| acc + l * e);
        assert_eq!(got, expected);
    }

    #[test]
    fn lagrange_coefficients_at_domain_point() {
        let domain = Domain::<Fr>::new(4).unwrap();
        let w = domain.elements().nth(2).unwrap();
        let lag = domain.lagrange_coefficients_at(w);
        for (i, &l) in lag.iter().enumerate() {
            assert_eq!(l, if i == 2 { Fr::one() } else { Fr::zero() });
        }
    }

    #[test]
    fn oversized_domain_rejected() {
        // the largest BN254 Fr domain is 3²·2²⁸; past it nothing is built
        assert_eq!(Domain::<Fr>::size_for(9 << 28), Some(9 << 28));
        assert!(Domain::<Fr>::new((9 << 28) + 1).is_none());
        assert!(Domain::<Fr>::new(1 << 20).is_some());
    }

    #[test]
    fn size_is_the_smallest_three_b_two_k() {
        for (min_size, size) in [
            (0, 1),
            (1, 1),
            (2, 2),
            (3, 4), // 3 = 3¹·2⁰ is not admissible (k ≥ 1 beside a 3)
            (5, 6),
            (7, 8),
            (9, 12), // nor is 9 = 3²·2⁰
            (13, 16),
            (17, 18),
            (30_659, 32_768), // the quick MLP's QAP rows
            (88_355, 98_304), // the quick CNN's
            (98_305, 131_072),
            ((1 << 28) + 1, 9 << 25),
        ] {
            assert_eq!(
                Domain::<Fr>::size_for(min_size),
                Some(size),
                "min_size {min_size}"
            );
        }
        // Fq declares no 3-adicity: its domains stay radix-2 (and 2-adicity
        // 1 caps them at two points)
        assert_eq!(Domain::<zkrownn_ff::Fq>::size_for(2), Some(2));
        assert_eq!(Domain::<zkrownn_ff::Fq>::size_for(3), None);
    }
}
