//! Property tests pinning the twiddle-table (and, above the size
//! threshold, multi-threaded) FFT to an independent serial reference.
//!
//! The reference is the pre-table textbook kernel: per-layer `omega.pow`
//! for `w_m` and the serial `w *= w_m` chain inside every block — exactly
//! the code the production path replaced, kept here so a table-indexing or
//! work-splitting bug cannot hide behind a self-consistent fast path.
//!
//! Sizes with a factor of three have no radix-2 reference; they are pinned
//! to the O(n²) DFT instead — every domain `Domain::new` builds for
//! `1..=200` points, and one size large enough for the parallel paths.

use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeMap;
use zkrownn_ff::{Field, Fr};
use zkrownn_poly::{Domain, PARALLEL_FFT_MIN};

/// The original serial Cooley-Tukey kernel (decimation in time).
fn reference_fft(a: &mut [Fr], omega: Fr) {
    let n = a.len();
    assert!(n.is_power_of_two());
    if n == 1 {
        return;
    }
    let log_n = n.trailing_zeros();
    for k in 0..n as u64 {
        let rk = k.reverse_bits() >> (64 - log_n);
        if k < rk {
            a.swap(k as usize, rk as usize);
        }
    }
    let mut m = 1usize;
    for _ in 0..log_n {
        let w_m = omega.pow(&[(n / (2 * m)) as u64]);
        let mut k = 0;
        while k < n {
            let mut w = Fr::one();
            for j in 0..m {
                let t = w * a[k + j + m];
                a[k + j + m] = a[k + j] - t;
                a[k + j] += t;
                w *= w_m;
            }
            k += 2 * m;
        }
        m *= 2;
    }
}

fn arb_fr() -> impl Strategy<Value = Fr> {
    (any::<u64>(), any::<u64>())
        .prop_map(|(a, b)| Fr::from_u64(a) * Fr::from_u64(b) + Fr::from_u64(b))
}

fn check_against_reference(coeffs: &[Fr]) {
    // the radix-2 reference needs a power-of-two domain, which `new` no
    // longer picks for every length (the naive-DFT suite below covers 3ᵇ·2ᵏ)
    let domain = Domain::<Fr>::new(coeffs.len().max(1).next_power_of_two()).unwrap();
    let mut expected = coeffs.to_vec();
    expected.resize(domain.size, Fr::zero());
    reference_fft(&mut expected, domain.group_gen);
    assert_eq!(domain.fft(coeffs), expected, "forward FFT diverges");

    // inverse: reference kernel with ω⁻¹ plus the 1/m scale
    let mut inv = coeffs.to_vec();
    inv.resize(domain.size, Fr::zero());
    reference_fft(&mut inv, domain.group_gen_inv);
    for v in inv.iter_mut() {
        *v *= domain.size_inv;
    }
    assert_eq!(domain.ifft(coeffs), inv, "inverse FFT diverges");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn table_fft_matches_reference(
        coeffs in prop::collection::vec(arb_fr(), 1..257),
    ) {
        check_against_reference(&coeffs);
    }

    #[test]
    fn coset_roundtrip_is_identity(
        coeffs in prop::collection::vec(arb_fr(), 1..129),
    ) {
        let domain = Domain::<Fr>::new(coeffs.len()).unwrap();
        let mut v = coeffs.clone();
        v.resize(domain.size, Fr::zero());
        let original = v.clone();
        domain.coset_fft_in_place(&mut v);
        domain.coset_ifft_in_place(&mut v);
        prop_assert_eq!(v, original);
    }

    #[test]
    fn elements_iterator_agrees_with_powers(size_log in 0u32..8) {
        let domain = Domain::<Fr>::new(1 << size_log).unwrap();
        let mut cur = Fr::one();
        for (i, e) in domain.elements().enumerate() {
            prop_assert_eq!(e, cur, "index {}", i);
            cur *= domain.group_gen;
        }
        prop_assert_eq!(domain.elements().len(), domain.size);
    }
}

/// One deterministic case big enough to cross [`PARALLEL_FFT_MIN`], so the
/// multi-threaded two-phase split is exercised against the serial reference
/// on machines with more than one core (and the table path everywhere).
#[test]
fn parallel_sized_fft_matches_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xff7);
    let n = PARALLEL_FFT_MIN * 2;
    let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    check_against_reference(&coeffs);

    // and the coset round-trip at the same size
    let domain = Domain::<Fr>::new(n).unwrap();
    let mut v = coeffs.clone();
    domain.coset_fft_in_place(&mut v);
    domain.coset_ifft_in_place(&mut v);
    assert_eq!(v, coeffs);
}

/// `p(x)` for coefficients `p`, by Horner.
fn eval(coeffs: &[Fr], x: Fr) -> Fr {
    coeffs.iter().rev().fold(Fr::zero(), |acc, &c| acc * x + c)
}

/// The O(n²) DFT: `out[i] = p(ωⁱ)` for `i < n`.
fn naive_dft(coeffs: &[Fr], omega: Fr) -> Vec<Fr> {
    let mut point = Fr::one();
    (0..coeffs.len())
        .map(|_| {
            let out = eval(coeffs, point);
            point *= omega;
            out
        })
        .collect()
}

/// Sizes `3ᵇ·2ᵏ` with `b ≤ 2`, and `k ≥ 1` beside a factor of three.
fn admissible(n: usize) -> bool {
    [1, 3, 9].into_iter().any(|odd| {
        n.is_multiple_of(odd) && (n / odd).is_power_of_two() && (odd == 1 || n / odd >= 2)
    })
}

/// Every check of this suite on one domain, against the naive DFT.
fn check_domain_against_dft(domain: &Domain<Fr>, rng: &mut rand::rngs::StdRng) {
    let n = domain.size;
    let omega = domain.group_gen;
    // ω has exact order n
    assert!(omega.pow(&[n as u64]).is_one(), "n = {n}");
    for p in [2, 3] {
        if n.is_multiple_of(p) {
            assert!(
                !omega.pow(&[(n / p) as u64]).is_one(),
                "n = {n}: ω not primitive"
            );
        }
    }
    assert_eq!(omega * domain.group_gen_inv, Fr::one());

    let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(rng)).collect();
    // forward and inverse FFT
    let evals = domain.fft(&coeffs);
    assert_eq!(evals, naive_dft(&coeffs, omega), "n = {n}: forward");
    let mut inverse = naive_dft(&coeffs, domain.group_gen_inv);
    for v in inverse.iter_mut() {
        *v *= domain.size_inv;
    }
    assert_eq!(domain.ifft(&coeffs), inverse, "n = {n}: inverse");
    assert_eq!(domain.ifft(&evals), coeffs, "n = {n}: round trip");

    // coset FFT = the DFT of p(g·x), and its inverse round-trips
    let g = domain.coset_offset;
    let mut coset = coeffs.clone();
    domain.coset_fft_in_place(&mut coset);
    let mut scale = Fr::one();
    let shifted: Vec<Fr> = coeffs
        .iter()
        .map(|&c| {
            let out = c * scale;
            scale *= g;
            out
        })
        .collect();
    assert_eq!(coset, naive_dft(&shifted, omega), "n = {n}: coset forward");
    domain.coset_ifft_in_place(&mut coset);
    assert_eq!(coset, coeffs, "n = {n}: coset round trip");

    // the fused interpolate-then-coset pipeline = the two steps
    let mut two_step = evals.clone();
    domain.ifft_in_place(&mut two_step);
    domain.coset_fft_in_place(&mut two_step);
    let mut fused = evals.clone();
    domain.ifft_coset_fft_in_place(&mut fused);
    assert_eq!(fused, two_step, "n = {n}: fused ≠ two-step");

    // Lagrange coefficients interpolate the evaluations at a random τ …
    let tau = Fr::random(rng);
    let lagrange = domain.lagrange_coefficients_at(tau);
    let interpolated = lagrange
        .iter()
        .zip(&evals)
        .fold(Fr::zero(), |acc, (&l, &e)| acc + l * e);
    assert_eq!(interpolated, eval(&coeffs, tau), "n = {n}: Lagrange at τ");
    // … and are the indicator vector at a domain point
    let j = n / 2;
    let lagrange = domain.lagrange_coefficients_at(omega.pow(&[j as u64]));
    for (i, l) in lagrange.iter().enumerate() {
        assert_eq!(*l, if i == j { Fr::one() } else { Fr::zero() }, "n = {n}");
    }

    // Z vanishes on the domain and is one non-zero constant on the coset
    let on_coset = domain.vanishing_polynomial_on_coset();
    assert!(!on_coset.is_zero(), "n = {n}: coset meets the domain");
    for w in domain.elements() {
        assert!(domain.evaluate_vanishing_polynomial(w).is_zero(), "n = {n}");
        assert_eq!(
            domain.evaluate_vanishing_polynomial(g * w),
            on_coset,
            "n = {n}"
        );
    }
}

#[test]
fn every_small_domain_matches_the_naive_dft() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3b2c);
    let mut built: BTreeMap<usize, Domain<Fr>> = BTreeMap::new();
    for min_size in 1..=200usize {
        let domain = Domain::<Fr>::new(min_size).unwrap();
        let n = domain.size;
        // the smallest admissible size that holds min_size points
        let smallest = (min_size..).find(|&m| admissible(m)).unwrap();
        assert_eq!(n, smallest, "min_size {min_size}");
        assert_eq!(Domain::<Fr>::size_for(min_size), Some(n));
        // a domain is a function of its size: check each one once
        match built.get(&n) {
            Some(seen) => assert_eq!(&domain, seen, "min_size {min_size}"),
            None => {
                check_domain_against_dft(&domain, &mut rng);
                built.insert(n, domain);
            }
        }
    }
    // the radix-3 sizes the range reaches, and the odd ones it never builds
    for n in [6, 12, 18, 24, 36, 48, 72, 96, 144, 192] {
        assert!(built.contains_key(&n), "size {n} not exercised");
    }
    for odd in [3, 9] {
        assert!(!built.contains_key(&odd), "odd size {odd} built");
    }
    assert_eq!(Domain::<Fr>::new(3).unwrap().size, 4);
    assert_eq!(Domain::<Fr>::new(9).unwrap().size, 12);
}

/// A `3·2¹³` domain: the radix-3 combine splits across workers and its
/// thirds run the two-phase parallel radix-2 kernel. Checked against naive
/// evaluation at the indices around every third's boundary plus a stride
/// sample (the full O(n²) DFT would be 6·10⁸ multiplications).
#[test]
fn parallel_sized_radix3_fft_matches_naive_evaluation() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3d13);
    let n = 3 << 13;
    let domain = Domain::<Fr>::new(n).unwrap();
    assert_eq!(domain.size, n);
    let coeffs: Vec<Fr> = (0..n).map(|_| Fr::random(&mut rng)).collect();
    let evals = domain.fft(&coeffs);
    let inverse = domain.ifft(&coeffs);
    let third = n / 3;
    let mut indices: Vec<usize> = (0..4).chain((1..n).step_by(1021)).collect();
    for boundary in [third, 2 * third, n] {
        indices.extend([boundary - 2, boundary - 1]);
        if boundary < n {
            indices.extend([boundary, boundary + 1]);
        }
    }
    for i in indices {
        let point = domain.group_gen.pow(&[i as u64]);
        assert_eq!(evals[i], eval(&coeffs, point), "forward, index {i}");
        let point_inv = domain.group_gen_inv.pow(&[i as u64]);
        assert_eq!(
            inverse[i],
            eval(&coeffs, point_inv) * domain.size_inv,
            "inverse, index {i}"
        );
    }
    assert_eq!(domain.ifft(&evals), coeffs);

    let mut v = coeffs.clone();
    domain.coset_fft_in_place(&mut v);
    domain.coset_ifft_in_place(&mut v);
    assert_eq!(v, coeffs);

    let mut two_step = evals.clone();
    domain.ifft_in_place(&mut two_step);
    domain.coset_fft_in_place(&mut two_step);
    let mut fused = evals;
    domain.ifft_coset_fft_in_place(&mut fused);
    assert_eq!(fused, two_step);
}
