//! R1CS → QAP reduction (libsnark style).
//!
//! The constraint matrices are interpolated over the smallest `3ᵇ·2ᵏ`
//! domain (`b ≤ 2` in BN254 `Fr`; see `zkrownn_poly::Domain`) of size
//! `m ≥ #constraints + #instance`. Every such domain is a multiplicative
//! subgroup, so `Z(x) = xᵐ − 1`, the coset division and the H query's
//! `τⁱ·Z(τ)/δ` are the same at every size; only `m`, and with it the
//! padding, shrinks. The extra `#instance` rows are *padding
//! constraints* `zᵢ · 0 = 0` placed in the A matrix, which make the instance
//! polynomials `uᵢ` linearly independent — the standard libsnark fix that
//! Groth16's knowledge-soundness proof requires.

use zkrownn_ff::{Field, Fr};
use zkrownn_poly::Domain;
use zkrownn_r1cs::{Matrix, R1csMatrices};

/// The QAP view of an R1CS: per-variable polynomial evaluations at a fixed
/// point `τ` (used only at setup). The evaluation domain itself lives with
/// the caller: the lowered circuit — what setup synthesis produces, and
/// what keygen and every proof read — is a [`crate::ProverContext`], which
/// caches it alongside the matrices.
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

/// Returns the evaluation domain used for the given matrix dimensions:
/// the smallest that holds every constraint plus one padding row per
/// instance variable.
///
/// # Panics
/// Panics if the circuit exceeds the field's FFT capacity (3²·2²⁸ rows).
pub fn qap_domain(matrices: &R1csMatrices<Fr>) -> Domain<Fr> {
    let rows = matrices.num_constraints() + matrices.num_instance();
    Domain::new(rows).expect("circuit too large for the BN254 scalar field FFT")
}

/// Evaluates all QAP polynomials at `τ` over a prebuilt domain — the
/// [`qap_domain`] of `matrices`, or a [`crate::ProverContext`]'s cached
/// one. The Lagrange coefficients come from the domain's twiddle-table
/// path, and the three independent A/B/C column accumulations run on
/// separate threads.
pub fn evaluate_qap_at_with(
    matrices: &R1csMatrices<Fr>,
    domain: &Domain<Fr>,
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

/// The witness-map kernel over a prebuilt domain: the three interpolation
/// pipelines (evaluate rows over `H`, interpolate, re-evaluate on the coset
/// `gH`) are independent until the pointwise combine, so A/B/C run on
/// separate threads.
pub(crate) fn witness_map_with(
    matrices: &R1csMatrices<Fr>,
    domain: &Domain<Fr>,
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
    use crate::ProverContext;
    use rand::SeedableRng;
    use zkrownn_ff::Field;
    use zkrownn_r1cs::{ConstraintSystem, ProvingSynthesizer, SetupSynthesizer};

    /// x·y = p, y·y = s (two constraints, one instance for each output)
    fn sample_system<CS: ConstraintSystem<Fr>>(mut cs: CS) -> CS {
        let p = cs.alloc_instance(|| Ok(Fr::from_u64(21))).unwrap();
        let s = cs.alloc_instance(|| Ok(Fr::from_u64(49))).unwrap();
        let x = cs.alloc_witness(|| Ok(Fr::from_u64(3))).unwrap();
        let y = cs.alloc_witness(|| Ok(Fr::from_u64(7))).unwrap();
        cs.enforce(x.into(), y.into(), p.into());
        cs.enforce(y.into(), y.into(), s.into());
        cs
    }

    fn sample_matrices() -> R1csMatrices<Fr> {
        sample_system(SetupSynthesizer::new()).into_parts().0
    }

    fn sample_assignment() -> Vec<Fr> {
        let cs = sample_system(ProvingSynthesizer::new());
        assert!(cs.is_satisfied().is_ok());
        cs.full_assignment()
    }

    #[test]
    fn witness_map_gives_exact_division() {
        let m = sample_matrices();
        let z = sample_assignment();
        let h = ProverContext::new(m.clone()).witness_map(&z);
        // verify A(τ)B(τ) − C(τ) = h(τ)Z(τ) at a random τ via QAP evals
        let mut rng = rand::rngs::StdRng::seed_from_u64(121);
        let tau = Fr::random(&mut rng);
        let qap = evaluate_qap_at_with(&m, &qap_domain(&m), tau);
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
        let m = sample_matrices();
        let mut z = sample_assignment();
        z[3] = Fr::from_u64(999); // corrupt a witness value
        let _ = ProverContext::new(m).witness_map(&z);
    }

    #[test]
    fn instance_polynomials_are_nonzero() {
        // the padding rows guarantee every instance column has u_i ≠ 0
        let m = sample_matrices();
        let mut rng = rand::rngs::StdRng::seed_from_u64(122);
        let qap = evaluate_qap_at_with(&m, &qap_domain(&m), Fr::random(&mut rng));
        for i in 0..m.num_instance() {
            assert!(!qap.u[i].is_zero(), "instance column {i}");
        }
    }

    #[test]
    fn domain_covers_constraints_plus_instance() {
        let m = sample_matrices();
        let d = qap_domain(&m);
        assert!(d.size >= m.num_constraints() + m.num_instance());
    }
}
