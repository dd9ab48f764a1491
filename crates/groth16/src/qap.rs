//! R1CS → QAP reduction (libsnark style).
//!
//! The constraint matrices are interpolated over a radix-2 domain of size
//! `m ≥ #constraints + #instance`. The extra `#instance` rows are *padding
//! constraints* `zᵢ · 0 = 0` placed in the A matrix, which make the instance
//! polynomials `uᵢ` linearly independent — the standard libsnark fix that
//! Groth16's knowledge-soundness proof requires.

use zkrownn_ff::{Field, Fr};
use zkrownn_poly::Radix2Domain;
use zkrownn_r1cs::{Matrix, R1csMatrices};

/// The QAP view of an R1CS: per-variable polynomial evaluations at a fixed
/// point `τ` (used only at setup). The evaluation domain itself lives with
/// the caller (a [`crate::SetupContext`] caches it alongside the lowered
/// matrices).
pub struct QapEvaluations {
    /// `uᵢ(τ)` per column of `z`.
    pub u: Vec<Fr>,
    /// `vᵢ(τ)` per column of `z`.
    pub v: Vec<Fr>,
    /// `wᵢ(τ)` per column of `z`.
    pub w: Vec<Fr>,
    /// `Z(τ) = τ^m − 1`.
    pub zt: Fr,
}

/// Returns the evaluation domain used for the given matrix dimensions.
///
/// # Panics
/// Panics if the circuit exceeds the field's 2-adic FFT capacity (2²⁸ rows).
pub fn qap_domain(matrices: &R1csMatrices<Fr>) -> Radix2Domain<Fr> {
    let rows = matrices.num_constraints() + matrices.num_instance();
    Radix2Domain::new(rows).expect("circuit too large for the BN254 scalar field FFT")
}

/// Evaluates all QAP polynomials at `τ`, building a throwaway domain.
/// Setup-side callers holding a [`crate::SetupContext`] go through
/// [`evaluate_qap_at_with`] and reuse its cached twiddle-table domain.
pub fn evaluate_qap_at(matrices: &R1csMatrices<Fr>, tau: Fr) -> QapEvaluations {
    evaluate_qap_at_with(matrices, &qap_domain(matrices), tau)
}

/// Evaluates all QAP polynomials at `τ` over a prebuilt domain. The
/// Lagrange coefficients come from the domain's twiddle-table path, and the
/// three independent A/B/C column accumulations run on separate threads.
pub fn evaluate_qap_at_with(
    matrices: &R1csMatrices<Fr>,
    domain: &Radix2Domain<Fr>,
    tau: Fr,
) -> QapEvaluations {
    let ncons = matrices.num_constraints();
    let num_instance = matrices.num_instance();
    debug_assert!(domain.size >= ncons + num_instance);
    let lagrange = domain.lagrange_coefficients_at(tau);

    let accumulate = |matrix: Matrix<'_, Fr>| -> Vec<Fr> {
        let mut col_evals = vec![Fr::zero(); matrices.num_variables()];
        matrix.accumulate_columns(&lagrange, &mut col_evals);
        col_evals
    };

    let mut u = Vec::new();
    let mut v = Vec::new();
    let w = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut cols = accumulate(matrices.a());
            // instance padding rows: A[ncons + i][i] = 1
            for i in 0..num_instance {
                cols[i] += lagrange[ncons + i];
            }
            u = cols;
        });
        scope.spawn(|| v = accumulate(matrices.b()));
        accumulate(matrices.c())
    });

    QapEvaluations {
        zt: domain.evaluate_vanishing_polynomial(tau),
        u,
        v,
        w,
    }
}

/// Computes the coefficients of the quotient `h(x) = (A(x)B(x) − C(x))/Z(x)`
/// for a full assignment `z` (the prover's "witness map").
///
/// Returns `m − 1` coefficients (`deg h = m − 2` for a satisfied system).
///
/// Builds the evaluation domain (twiddle tables included) from scratch on
/// every call; amortizing workloads should go through
/// [`crate::ProverContext`], which caches the domain and the vanishing
/// constant and reduces to the same kernel.
///
/// # Panics
/// Panics unless `z` has one scalar per variable of the circuit.
pub fn witness_map(matrices: &R1csMatrices<Fr>, z: &[Fr]) -> Vec<Fr> {
    let domain = qap_domain(matrices);
    let z_inv = domain
        .vanishing_polynomial_on_coset()
        .inverse()
        .expect("coset avoids the domain");
    witness_map_with(matrices, &domain, z_inv, z)
}

/// The witness-map kernel over a prebuilt domain: the three interpolation
/// pipelines (evaluate rows over `H`, interpolate, re-evaluate on the coset
/// `gH`) are independent until the pointwise combine, so A/B/C run on
/// separate threads.
pub(crate) fn witness_map_with(
    matrices: &R1csMatrices<Fr>,
    domain: &Radix2Domain<Fr>,
    z_inv: Fr,
    z: &[Fr],
) -> Vec<Fr> {
    let m = domain.size;
    let ncons = matrices.num_constraints();
    let num_instance = matrices.num_instance();
    // both public entry points land here; the kernel below would index a
    // short `z` out of bounds on a scoped thread and never read the tail
    // of a long one
    assert_eq!(
        z.len(),
        matrices.num_variables(),
        "assignment length mismatch"
    );

    let eval_rows = |matrix: Matrix<'_, Fr>| -> Vec<Fr> {
        let mut evals = Vec::with_capacity(m);
        evals.extend(matrix.row_products(z));
        evals.resize(m, Fr::zero());
        evals
    };
    // evaluate over H, interpolate, move to the coset gH where Z ≠ 0
    let to_coset = |evals: &mut Vec<Fr>| domain.ifft_coset_fft_in_place(evals);

    let mut a_evals = Vec::new();
    let mut b_evals = Vec::new();
    let mut c_evals = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut evals = eval_rows(matrices.a());
            // instance padding rows: A[ncons + i][i] = zᵢ
            evals[ncons..ncons + num_instance].copy_from_slice(&z[..num_instance]);
            to_coset(&mut evals);
            a_evals = evals;
        });
        scope.spawn(|| {
            let mut evals = eval_rows(matrices.b());
            to_coset(&mut evals);
            b_evals = evals;
        });
        let mut evals = eval_rows(matrices.c());
        to_coset(&mut evals);
        c_evals = evals;
    });

    let mut h = a_evals;
    for i in 0..m {
        h[i] = (h[i] * b_evals[i] - c_evals[i]) * z_inv;
    }
    domain.coset_ifft_in_place(&mut h);
    debug_assert!(
        h[m - 1].is_zero(),
        "AB - C not divisible by Z: unsatisfied constraint system?"
    );
    h.truncate(m - 1);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use zkrownn_ff::Field;
    use zkrownn_r1cs::{ConstraintSystem, ProvingSynthesizer};

    /// x·y = p, y·y = s (two constraints, one instance for each output)
    fn sample_system() -> ProvingSynthesizer<Fr> {
        let mut cs = ProvingSynthesizer::new();
        let p = cs.alloc_instance(|| Ok(Fr::from_u64(21))).unwrap();
        let s = cs.alloc_instance(|| Ok(Fr::from_u64(49))).unwrap();
        let x = cs.alloc_witness(|| Ok(Fr::from_u64(3))).unwrap();
        let y = cs.alloc_witness(|| Ok(Fr::from_u64(7))).unwrap();
        cs.enforce(x.into(), y.into(), p.into());
        cs.enforce(y.into(), y.into(), s.into());
        cs
    }

    #[test]
    fn witness_map_gives_exact_division() {
        let cs = sample_system();
        assert!(cs.is_satisfied().is_ok());
        let m = cs.to_matrices();
        let h = witness_map(&m, &cs.full_assignment());
        // verify A(τ)B(τ) − C(τ) = h(τ)Z(τ) at a random τ via QAP evals
        let mut rng = rand::rngs::StdRng::seed_from_u64(121);
        let tau = Fr::random(&mut rng);
        let qap = evaluate_qap_at(&m, tau);
        let z = cs.full_assignment();
        let at = z
            .iter()
            .zip(&qap.u)
            .fold(Fr::zero(), |s, (zi, ui)| s + *zi * *ui);
        let bt = z
            .iter()
            .zip(&qap.v)
            .fold(Fr::zero(), |s, (zi, vi)| s + *zi * *vi);
        let ct = z
            .iter()
            .zip(&qap.w)
            .fold(Fr::zero(), |s, (zi, wi)| s + *zi * *wi);
        let ht = h.iter().rev().fold(Fr::zero(), |acc, &c| acc * tau + c);
        assert_eq!(at * bt - ct, ht * qap.zt);
    }

    #[test]
    #[should_panic(expected = "AB - C not divisible")]
    #[cfg(debug_assertions)]
    fn witness_map_panics_on_bad_witness() {
        let cs = sample_system();
        let m = cs.to_matrices();
        let mut z = cs.full_assignment();
        z[3] = Fr::from_u64(999); // corrupt a witness value
        let _ = witness_map(&m, &z);
    }

    #[test]
    fn instance_polynomials_are_nonzero() {
        // the padding rows guarantee every instance column has u_i ≠ 0
        let cs = sample_system();
        let m = cs.to_matrices();
        let mut rng = rand::rngs::StdRng::seed_from_u64(122);
        let qap = evaluate_qap_at(&m, Fr::random(&mut rng));
        for i in 0..m.num_instance() {
            assert!(!qap.u[i].is_zero(), "instance column {i}");
        }
    }

    #[test]
    fn domain_covers_constraints_plus_instance() {
        let cs = sample_system();
        let m = cs.to_matrices();
        let d = qap_domain(&m);
        assert!(d.size >= m.num_constraints() + m.num_instance());
    }
}
