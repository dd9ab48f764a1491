//! Multi-scalar multiplication (Pippenger's bucket method, signed digits).
//!
//! This is the prover's hot loop in Groth16: each proof is a handful of MSMs
//! over up to millions of points. Three techniques stack here:
//!
//! * **signed-digit (wNAF-style) windows** — scalars are recoded into
//!   digits in `[−2^(c−1), 2^(c−1)]`, so a window needs `2^(c−1)` buckets
//!   instead of `2^c − 1` (negative digits add the negated point, which is
//!   free in affine form). This halves the bucket-reduction cost;
//! * **batch-affine bucket accumulation** — the points landing in each
//!   bucket are summed by rounds of pairwise *affine* additions whose
//!   division is shared across the whole window via Montgomery's batch
//!   inversion (the same trick `curve.rs` uses for `batch_into_affine`):
//!   ~5 field multiplications per addition instead of ~11 for a Jacobian
//!   mixed add;
//! * **windows sized to the scalars, handed out on demand** — there are
//!   `⌈max_bits / c⌉ + 1` windows, where `max_bits` is the widest
//!   (balanced) scalar's length, so a quantized network's 16-bit
//!   assignment recodes and scans 3 windows at `c = 8`, not 33. The digit
//!   matrix is recoded once up front so every window reads its digits
//!   independently of the carry chain; the machine's cores then take the
//!   next unclaimed window from a shared counter (one worker per core
//!   through [`zkrownn_ff::par`]), so a core that drew a light window takes
//!   another instead of idling. One core, one window or a build without
//!   `std` runs inline and spawns nothing.
//!
//! The final Horner reduction skips trailing identity windows: the top
//! window is often sparse and the signed-digit carry window almost always
//! empty, so paying `c` doublings for each of them would be pure waste.

use crate::curve::{Affine, Projective, SwCurveConfig};
use alloc::vec;
use alloc::vec::Vec;
use core::sync::atomic::{AtomicUsize, Ordering};
use zkrownn_ff::{par, BigInt256, Field, Fr, PrimeField};

/// Chooses a Pippenger window size for `n` non-trivial terms.
///
/// Signed digits halve the bucket count, which moves the sweet spot ~1.5
/// windows *down* from the classic `ln n + 2`: measured on the BN254 G1
/// sweep (`window_tuning_sweep`), plain `~ln n` minimizes wall clock from
/// 4k through 128k points.
fn window_size(n: usize) -> usize {
    if n < 32 {
        3
    } else {
        ((usize::BITS as usize - n.leading_zeros() as usize) * 69 / 100).max(3)
    }
}

/// Computes `Σ scalarᵢ · basesᵢ`.
///
/// `bases` and `scalars` must have equal length; identity points and zero
/// scalars are skipped. Scalars above `r/2` are balanced to `(r − s, −P)`:
/// circuit assignments are full of small *negative* fixed-point values
/// whose canonical form is a full-width integer, and balancing them back
/// to small magnitudes empties every high window, and such windows are
/// never recoded or scanned.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn msm<C: SwCurveConfig>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
    assert_eq!(
        bases.len(),
        scalars.len(),
        "msm: bases and scalars must have equal length"
    );
    let half_modulus = Fr::MODULUS.shr(1);
    // Filter trivial terms and balance high scalars once, up front.
    let pairs: Vec<(Affine<C>, BigInt256)> = bases
        .iter()
        .zip(scalars.iter())
        .filter(|(b, s)| !b.is_identity() && !s.is_zero())
        .map(|(b, s)| {
            let repr = s.into_bigint();
            if repr.const_cmp(&half_modulus) > 0 {
                (b.neg(), Fr::MODULUS.sub_with_borrow(&repr).0)
            } else {
                (*b, repr)
            }
        })
        .collect();
    msm_bigint(&pairs)
}

/// Pippenger over pre-filtered `(base, canonical scalar)` pairs.
pub fn msm_bigint<C: SwCurveConfig>(pairs: &[(Affine<C>, BigInt256)]) -> Projective<C> {
    msm_bigint_with_window(pairs, window_size(pairs.len()))
}

/// [`msm_bigint`] with an explicit window size `c` (exposed for tuning
/// sweeps; `c` must be in `2..=24`).
pub fn msm_bigint_with_window<C: SwCurveConfig>(
    pairs: &[(Affine<C>, BigInt256)],
    c: usize,
) -> Projective<C> {
    assert!((2..=24).contains(&c), "window size out of range");
    if pairs.is_empty() {
        return Projective::identity();
    }
    let (digits, num_windows) = signed_digits(pairs, c);

    // Workers take the next unclaimed window from `next` until none is
    // left: with small scalars the low windows hold every point and the
    // high ones are empty, so a fixed split would leave a core idle. The
    // counter publishes nothing but the index it hands out (each sum comes
    // back through the worker's return value), so `Relaxed` is enough.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut scratch = WindowScratch::new(c);
        let mut done = Vec::new();
        loop {
            let w = next.fetch_add(1, Ordering::Relaxed);
            if w >= num_windows {
                return done;
            }
            done.push((w, window_sum(pairs, &digits, w, c, &mut scratch)));
        }
    };
    // each sum lands at its own index, so the result does not depend on
    // which worker computed it
    let mut window_sums = vec![Projective::<C>::identity(); num_windows];
    let done = par::map(0..par::workers(num_windows, 1), |_| worker());
    for (w, sum) in done.into_iter().flatten() {
        window_sums[w] = sum;
    }

    // total = Σ window_sums[w] · 2^(w·c), evaluated Horner-style from the
    // highest *populated* window — trailing identity windows cost nothing
    let Some(top) = window_sums.iter().rposition(|w| !w.is_identity()) else {
        return Projective::identity();
    };
    let mut total = window_sums[top];
    for w in (0..top).rev() {
        for _ in 0..c {
            total = total.double();
        }
        total += window_sums[w];
    }
    total
}

/// Transpose block width for the digit matrix (rows per tile; the tile is
/// `DIGIT_BLOCK · num_windows · 4` bytes, ≈ 100 KB at full width,
/// L2-resident).
const DIGIT_BLOCK: usize = 1024;

/// Recodes every scalar into signed base-`2^c` digits, **column-major**:
/// `digits[w · n + i] ∈ [−2^(c−1), 2^(c−1)]` with
/// `scalar_i = Σ_w digit · 2^(w·c)`. Returns the digits and the window
/// count `⌈max_bits / c⌉ + 1`, where `max_bits` is the widest scalar's
/// length: the windows above it are zero for every row, so they are neither
/// recoded nor scanned, and the one extra window absorbs the signed-digit
/// carry out of the top.
///
/// The carry chain runs once per scalar here so the per-window bucket
/// passes can read any window's digits independently (and in parallel);
/// the column-major layout makes each window pass one sequential stream
/// instead of re-touching every row's cache line. Recoding goes through a
/// row-major tile of [`DIGIT_BLOCK`] scalars that is transposed out while
/// hot, so neither side pays strided misses over the full matrix.
fn signed_digits<C: SwCurveConfig>(
    pairs: &[(Affine<C>, BigInt256)],
    c: usize,
) -> (Vec<i32>, usize) {
    let max_bits = pairs.iter().map(|(_, s)| s.num_bits()).max().unwrap_or(0);
    let num_windows = (max_bits as usize).div_ceil(c) + 1;
    let half = 1i64 << (c - 1);
    let full = 1i64 << c;
    let n = pairs.len();
    let mut digits = vec![0i32; n * num_windows];
    let mut tile = vec![0i32; DIGIT_BLOCK.min(n) * num_windows];
    for (block_idx, block) in pairs.chunks(DIGIT_BLOCK).enumerate() {
        let base_row = block_idx * DIGIT_BLOCK;
        for (r, (_, scalar)) in block.iter().enumerate() {
            let mut carry = 0i64;
            for (w, slot) in tile[r * num_windows..][..num_windows]
                .iter_mut()
                .enumerate()
            {
                let raw = scalar.bits64(w * c, c) as i64 + carry;
                let digit = if raw >= half {
                    carry = 1;
                    raw - full
                } else {
                    carry = 0;
                    raw
                };
                *slot = digit as i32;
            }
            debug_assert_eq!(carry, 0, "carry out of the top window");
        }
        for w in 0..num_windows {
            for r in 0..block.len() {
                digits[w * n + base_row + r] = tile[r * num_windows + w];
            }
        }
    }
    (digits, num_windows)
}

/// Reusable per-thread scratch for [`window_sum`]: the bucket bookkeeping
/// and the flat point buffer survive across a thread's windows, so a
/// `k`-window MSM pays one set of allocations, not `k`.
struct WindowScratch<C: SwCurveConfig> {
    lens: Vec<u32>,
    starts: Vec<u32>,
    cursor: Vec<u32>,
    flat: Vec<Affine<C>>,
    denoms: Vec<C::BaseField>,
    inv_prefix: Vec<C::BaseField>,
}

impl<C: SwCurveConfig> WindowScratch<C> {
    fn new(c: usize) -> Self {
        let nb = 1usize << (c - 1);
        Self {
            lens: vec![0; nb],
            starts: vec![0; nb],
            cursor: vec![0; nb],
            flat: Vec::new(),
            denoms: Vec::new(),
            inv_prefix: Vec::new(),
        }
    }
}

/// Accumulates window `w`: scatter points into per-|digit| bucket segments,
/// tree-reduce each bucket with batch-affine rounds, then suffix-sum the
/// `2^(c−1)` bucket values.
fn window_sum<C: SwCurveConfig>(
    pairs: &[(Affine<C>, BigInt256)],
    digits: &[i32],
    w: usize,
    c: usize,
    scratch: &mut WindowScratch<C>,
) -> Projective<C> {
    let nb = 1usize << (c - 1);
    let (lens, starts, cursor) = (&mut scratch.lens, &mut scratch.starts, &mut scratch.cursor);
    let col = &digits[w * pairs.len()..][..pairs.len()];

    // counting sort by |digit| into one flat scratch buffer
    lens.fill(0);
    for &d in col {
        if d != 0 {
            lens[d.unsigned_abs() as usize - 1] += 1;
        }
    }
    let mut acc = 0u32;
    for (s, l) in starts.iter_mut().zip(lens.iter()) {
        *s = acc;
        acc += l;
    }
    // every slot in [0, acc) is written by the scatter below, so the
    // buffer only ever *grows* — stale points past `acc` are never read
    if scratch.flat.len() < acc as usize {
        scratch.flat.resize(acc as usize, Affine::identity());
    }
    let flat = &mut scratch.flat[..acc as usize];
    cursor.copy_from_slice(starts);
    for (row, (base, _)) in pairs.iter().enumerate() {
        let d = col[row];
        if d == 0 {
            continue;
        }
        let k = d.unsigned_abs() as usize - 1;
        flat[cursor[k] as usize] = if d < 0 { base.neg() } else { *base };
        cursor[k] += 1;
    }

    batch_affine_reduce::<C>(
        flat,
        starts,
        lens,
        &mut scratch.denoms,
        &mut scratch.inv_prefix,
    );

    // Σ k·bucket_k via running suffix sums, entered at the top populated
    // bucket (everything above contributes nothing)
    let Some(top) = (0..nb).rev().find(|&k| lens[k] == 1) else {
        return Projective::identity();
    };
    let mut running = Projective::<C>::identity();
    let mut total = Projective::<C>::identity();
    for k in (0..=top).rev() {
        if lens[k] == 1 {
            running.add_assign_mixed(&flat[starts[k] as usize]);
        }
        total += running;
    }
    // the skipped buckets top+1..nb each owed one copy of `running`, which
    // is zero there — nothing to add
    total
}

/// Collapses every bucket segment of `flat` to at most one point by rounds
/// of pairwise affine additions; each round shares a single field inversion
/// across all pairs of all buckets (Montgomery batch inversion).
///
/// `starts[k]`/`lens[k]` delimit bucket `k`'s segment; on return
/// `lens[k] ∈ {0, 1}` and the surviving point (if any) sits at `starts[k]`.
fn batch_affine_reduce<C: SwCurveConfig>(
    flat: &mut [Affine<C>],
    starts: &[u32],
    lens: &mut [u32],
    denoms: &mut Vec<C::BaseField>,
    inv_prefix: &mut Vec<C::BaseField>,
) {
    loop {
        // Phase A: one denominator per pair, in bucket-then-pair order.
        denoms.clear();
        for (k, &len) in lens.iter().enumerate() {
            let s = starts[k] as usize;
            for t in 0..(len as usize) / 2 {
                let p = &flat[s + 2 * t];
                let q = &flat[s + 2 * t + 1];
                denoms.push(if p.infinity || q.infinity {
                    C::BaseField::one()
                } else if p.x == q.x {
                    // doubling needs 1/(2y); the y₂ = −y₁ cancellation case
                    // pushes 2y too, but its inverse is never read
                    p.y.double()
                } else {
                    q.x - p.x
                });
            }
        }
        if denoms.is_empty() {
            return;
        }
        C::BaseField::batch_inverse_with_scratch(denoms, inv_prefix);

        // Phase B: apply the additions in place. Pair t of a bucket reads
        // slots 2t/2t+1 and writes slot t, so forward order never clobbers
        // an unread source; odd survivors move down after their bucket.
        let mut next = 0usize;
        for (k, len) in lens.iter_mut().enumerate() {
            let l = *len as usize;
            if l < 2 {
                continue;
            }
            let s = starts[k] as usize;
            for t in 0..l / 2 {
                let p = flat[s + 2 * t];
                let q = flat[s + 2 * t + 1];
                let inv = denoms[next];
                next += 1;
                flat[s + t] = add_affine(&p, &q, inv);
            }
            if l % 2 == 1 {
                flat[s + l / 2] = flat[s + l - 1];
            }
            *len = (l as u32).div_ceil(2);
        }
    }
}

/// Incremental MSM over a stream of `(bases, scalars)` chunks.
///
/// `Σᵢ scalarᵢ · baseᵢ` distributes over any partition of the index set,
/// so feeding a vector family chunk-by-chunk and summing the per-chunk
/// Pippenger results yields **exactly** the same group element as one
/// monolithic [`msm`] call — the chunked prover path is byte-identical to
/// the in-memory one after affine normalization, not merely close.
///
/// This is the entry point the store-backed prover uses: it never holds
/// more than one decoded chunk of bases while the accumulator carries a
/// single projective running sum.
#[derive(Debug, Clone)]
pub struct MsmAccumulator<C: SwCurveConfig> {
    acc: Projective<C>,
    terms: usize,
}

impl<C: SwCurveConfig> Default for MsmAccumulator<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: SwCurveConfig> MsmAccumulator<C> {
    /// An empty accumulator (identity sum).
    pub fn new() -> Self {
        Self {
            acc: Projective::identity(),
            terms: 0,
        }
    }

    /// Adds one chunk's worth of terms: `Σ scalarᵢ · baseᵢ` over the slices.
    ///
    /// # Panics
    /// Panics if the slice lengths differ (same contract as [`msm`]).
    pub fn accumulate(&mut self, bases: &[Affine<C>], scalars: &[Fr]) {
        self.acc += msm(bases, scalars);
        self.terms += bases.len();
    }

    /// Total number of terms accumulated so far (including trivial ones).
    pub fn terms(&self) -> usize {
        self.terms
    }

    /// The running sum.
    pub fn finish(self) -> Projective<C> {
        self.acc
    }
}

/// Affine `p + q` given the precomputed (batch-)inverted denominator:
/// `1/(x₂−x₁)` for distinct x, `1/(2y)` for a doubling. Shared with the
/// fixed-base keygen kernel, which batches the same way per window round.
pub(crate) fn add_affine<C: SwCurveConfig>(
    p: &Affine<C>,
    q: &Affine<C>,
    inv: C::BaseField,
) -> Affine<C> {
    if p.infinity {
        return *q;
    }
    if q.infinity {
        return *p;
    }
    let lambda = if p.x == q.x {
        if p.y != q.y || p.y.is_zero() {
            // q = −p (prime-order curves have no y = 0 points, but the
            // guard keeps the kernel total for any SW config)
            return Affine::identity();
        }
        // λ = 3x² / 2y
        let xx = p.x.square();
        (xx.double() + xx) * inv
    } else {
        // λ = (y₂ − y₁) / (x₂ − x₁)
        (q.y - p.y) * inv
    };
    let x3 = lambda.square() - p.x - q.x;
    let y3 = lambda * (p.x - x3) - p.y;
    Affine::new_unchecked(x3, y3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::{G1Affine, G1Projective, G2Projective};
    use rand::SeedableRng;
    use zkrownn_ff::Field;

    fn naive<C: SwCurveConfig>(bases: &[Affine<C>], scalars: &[Fr]) -> Projective<C> {
        bases
            .iter()
            .zip(scalars)
            .fold(Projective::identity(), |acc, (b, s)| acc + b.mul_scalar(*s))
    }

    #[test]
    fn msm_matches_naive_g1() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let g = G1Projective::generator();
        for n in [0usize, 1, 2, 7, 33, 150] {
            let bases: Vec<G1Affine> = (0..n)
                .map(|_| g.mul_scalar(Fr::random(&mut rng)).into_affine())
                .collect();
            let scalars: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
            assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars), "n = {n}");
        }
    }

    #[test]
    fn msm_matches_naive_g2() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(62);
        let g = G2Projective::generator();
        let bases: Vec<_> = (0..40)
            .map(|_| g.mul_scalar(Fr::random(&mut rng)).into_affine())
            .collect();
        let scalars: Vec<Fr> = (0..40).map(|_| Fr::random(&mut rng)).collect();
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    fn msm_skips_zero_scalars_and_identity_points() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(63);
        let g = G1Projective::generator();
        let mut bases: Vec<G1Affine> = (0..10)
            .map(|_| g.mul_scalar(Fr::random(&mut rng)).into_affine())
            .collect();
        let mut scalars: Vec<Fr> = (0..10).map(|_| Fr::random(&mut rng)).collect();
        bases[3] = G1Affine::identity();
        scalars[7] = Fr::zero();
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    fn msm_handles_repeated_and_opposite_points() {
        // forces the doubling and cancellation branches of the batch-affine
        // bucket reduction: equal points share a bucket, opposite points
        // annihilate to the identity
        let g = G1Projective::generator().into_affine();
        let bases = vec![g, g, g, g.neg(), g.neg(), g];
        let two = Fr::from_u64(2);
        let scalars = vec![two, two, two, two, two, two];
        assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
    }

    #[test]
    fn chunked_accumulator_matches_monolithic_msm() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(65);
        let g = G1Projective::generator();
        let bases: Vec<G1Affine> = (0..97)
            .map(|_| g.mul_scalar(Fr::random(&mut rng)).into_affine())
            .collect();
        let scalars: Vec<Fr> = (0..97).map(|_| Fr::random(&mut rng)).collect();
        let whole = msm(&bases, &scalars).into_affine();
        for chunk in [1usize, 7, 32, 97, 200] {
            let mut acc = MsmAccumulator::new();
            for (b, s) in bases.chunks(chunk).zip(scalars.chunks(chunk)) {
                acc.accumulate(b, s);
            }
            assert_eq!(acc.terms(), bases.len());
            // byte-identical after normalization, not just group-equal
            assert_eq!(acc.finish().into_affine(), whole, "chunk = {chunk}");
        }
    }

    /// A random scalar of exactly `bits` significant bits (`1 ≤ bits ≤ 253`).
    fn scalar_of_width(bits: u32, rng: &mut rand::rngs::StdRng) -> Fr {
        let mut v = Fr::random(rng).into_bigint();
        for (i, limb) in v.0.iter_mut().enumerate() {
            let keep = bits.saturating_sub(64 * i as u32).min(64);
            *limb &= if keep == 64 {
                u64::MAX
            } else {
                (1u64 << keep) - 1
            };
        }
        v.0[(bits as usize - 1) / 64] |= 1 << ((bits - 1) % 64);
        Fr::from_bigint(v).expect("below r")
    }

    fn random_bases(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<G1Affine> {
        let g = G1Projective::generator();
        (0..n)
            .map(|_| g.mul_scalar(Fr::random(rng)).into_affine())
            .collect()
    }

    #[test]
    fn windows_follow_the_widest_scalar() {
        // widest member exactly c·k bits, c·k + 1 bits, and 1 bit: the
        // window count, and with it the top window and the carry window,
        // moves with the width, and the sum must not
        let mut rng = rand::rngs::StdRng::seed_from_u64(66);
        let bases = random_bases(24, &mut rng);
        for c in [3usize, 8] {
            for width in [1, 2 * c as u32, 2 * c as u32 + 1, 3 * c as u32] {
                let mut scalars: Vec<Fr> = (0..bases.len())
                    .map(|i| scalar_of_width(1 + (i as u32 * 7) % width, &mut rng))
                    .collect();
                scalars[0] = scalar_of_width(width, &mut rng);
                let pairs: Vec<(G1Affine, BigInt256)> = bases
                    .iter()
                    .zip(&scalars)
                    .map(|(b, s)| (*b, s.into_bigint()))
                    .collect();
                let (digits, num_windows) = signed_digits(&pairs, c);
                assert_eq!(num_windows, (width as usize).div_ceil(c) + 1);
                assert_eq!(digits.len(), pairs.len() * num_windows);
                assert_eq!(
                    msm_bigint_with_window(&pairs, c),
                    naive(&bases, &scalars),
                    "c = {c}, width {width}"
                );
            }
        }
    }

    #[test]
    fn narrow_scalar_sets_match_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(67);
        let bases = random_bases(40, &mut rng);
        // small negative values: balanced to small magnitudes on −P
        let negative: Vec<Fr> = (0..40u64).map(|i| -Fr::from_u64(i * 977 + 1)).collect();
        // one full-width scalar among 16-bit ones
        let mut one_wide: Vec<Fr> = (0..40).map(|_| scalar_of_width(16, &mut rng)).collect();
        one_wide[17] = Fr::random(&mut rng);
        // a single non-zero scalar
        let mut single = vec![Fr::zero(); 40];
        single[29] = Fr::from_u64(0xbeef);
        for scalars in [negative, one_wide, single] {
            assert_eq!(msm(&bases, &scalars), naive(&bases, &scalars));
        }
    }

    #[test]
    fn signed_digits_recompose_scalars() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let g = G1Projective::generator().into_affine();
        for c in [3usize, 7, 12] {
            let pairs: Vec<(G1Affine, BigInt256)> = (0..5)
                .map(|_| (g, Fr::random(&mut rng).into_bigint()))
                .chain([
                    (g, Fr::zero().into_bigint()),
                    (g, (-Fr::one()).into_bigint()),
                ])
                .collect();
            let (digits, num_windows) = signed_digits(&pairs, c);
            assert_eq!(digits.len(), pairs.len() * (254usize.div_ceil(c) + 1));
            for (row, (_, scalar)) in pairs.iter().enumerate() {
                // Σ digit · 2^(wc) over Fr must reproduce the scalar
                let mut acc = Fr::zero();
                let mut base = Fr::one();
                let step = Fr::from_u64(1u64 << c);
                for w in 0..num_windows {
                    let d = digits[w * pairs.len() + row];
                    acc += Fr::from_i128(i128::from(d)) * base;
                    base *= step;
                }
                assert_eq!(acc.into_bigint(), *scalar, "c = {c}, row {row}");
            }
        }
    }

    #[test]
    fn bits64_extraction_spans_limb_boundaries() {
        let v = BigInt256([u64::MAX, 0b1011, 0, 0]);
        assert_eq!(v.bits64(60, 8), 0b1011_1111);
        assert_eq!(v.bits64(64, 4), 0b1011);
        assert_eq!(v.bits64(252, 10), 0);
    }
}
