//! Zero-knowledge matrix multiplication `A(M×K) · B(K×N) = C(M×N)`
//! (§III-B.1). Used both as a standalone Table I circuit and as the dense
//! layer of the feed-forward step. Each scalar product costs one
//! constraint; sums are free linear combinations.

use crate::num::Num;
use alloc::vec;
use alloc::vec::Vec;
use zkrownn_ff::Fr;
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// A row-major matrix of circuit values.
#[derive(Clone, Debug)]
pub struct NumMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major entries (`rows × cols`).
    pub data: Vec<Num>,
}

impl NumMatrix {
    /// Builds a matrix from row-major entries.
    pub fn new(rows: usize, cols: usize, data: Vec<Num>) -> Self {
        assert_eq!(rows * cols, data.len(), "matrix shape mismatch");
        Self { rows, cols, data }
    }

    /// Entry accessor.
    pub fn at(&self, r: usize, c: usize) -> &Num {
        &self.data[r * self.cols + c]
    }

    /// Allocates a matrix of private witnesses from integer entries.
    pub fn alloc_witness<CS: ConstraintSystem<Fr>>(
        cs: &mut CS,
        rows: usize,
        cols: usize,
        entries: &[i128],
        bits: u32,
    ) -> Result<Self, SynthesisError> {
        use zkrownn_ff::PrimeField;
        assert_eq!(entries.len(), rows * cols);
        let data = entries
            .iter()
            .map(|&v| Num::alloc_witness(cs, || Ok(Fr::from_i128(v)), bits))
            .collect::<Result<_, _>>()?;
        Ok(Self::new(rows, cols, data))
    }

    /// Allocates a matrix of public inputs from integer entries.
    pub fn alloc_instance<CS: ConstraintSystem<Fr>>(
        cs: &mut CS,
        rows: usize,
        cols: usize,
        entries: &[i128],
        bits: u32,
    ) -> Result<Self, SynthesisError> {
        use zkrownn_ff::PrimeField;
        assert_eq!(entries.len(), rows * cols);
        let data = entries
            .iter()
            .map(|&v| Num::alloc_instance(cs, || Ok(Fr::from_i128(v)), bits))
            .collect::<Result<_, _>>()?;
        Ok(Self::new(rows, cols, data))
    }
}

/// Matrix product (one constraint per scalar multiplication).
pub fn matmul<CS: ConstraintSystem<Fr>>(
    a: &NumMatrix,
    b: &NumMatrix,
    cs: &mut CS,
) -> Result<NumMatrix, SynthesisError> {
    assert_eq!(a.cols, b.rows, "inner dimension mismatch");
    let mut out = Vec::with_capacity(a.rows * b.cols);
    for i in 0..a.rows {
        for j in 0..b.cols {
            let row = &a.data[i * a.cols..(i + 1) * a.cols];
            let col = (0..b.rows).map(|k| b.at(k, j));
            out.push(Num::inner_product(row, col, cs)?);
        }
    }
    Ok(NumMatrix::new(a.rows, b.cols, out))
}

/// The standalone Table I "MatMult" circuit: private `A`, `B`; public `C`.
/// Returns the reference product entries (computed out of circuit, so the
/// helper works under every driver) for supplying to the verifier.
#[allow(clippy::too_many_arguments)]
pub fn matmul_circuit<CS: ConstraintSystem<Fr>>(
    a_entries: &[i128],
    b_entries: &[i128],
    m: usize,
    k: usize,
    n: usize,
    bits: u32,
    cs: &mut CS,
) -> Result<Vec<i128>, SynthesisError> {
    let a = NumMatrix::alloc_witness(cs, m, k, a_entries, bits)?;
    let b = NumMatrix::alloc_witness(cs, k, n, b_entries, bits)?;
    let c = matmul(&a, &b, cs)?;
    for num in &c.data {
        num.expose_as_output(cs)?;
    }
    Ok(matmul_reference(a_entries, b_entries, m, k, n))
}

/// Reference integer matmul for cross-checking.
pub fn matmul_reference(a: &[i128], b: &[i128], m: usize, k: usize, n: usize) -> Vec<i128> {
    let mut out = vec![0i128; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i128;
            for l in 0..k {
                acc += a[i * k + l] * b[l * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use zkrownn_r1cs::{CountingSynthesizer, ProvingSynthesizer};

    #[test]
    fn matmul_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(141);
        let (m, k, n) = (3usize, 4usize, 2usize);
        let a: Vec<i128> = (0..m * k).map(|_| rng.gen_range(-50..50)).collect();
        let b: Vec<i128> = (0..k * n).map(|_| rng.gen_range(-50..50)).collect();
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let got = matmul_circuit(&a, &b, m, k, n, 8, &mut cs).unwrap();
        assert_eq!(got, matmul_reference(&a, &b, m, k, n));
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn constraint_count_is_mkn_plus_outputs() {
        let (m, k, n) = (4usize, 5usize, 6usize);
        let a = vec![1i128; m * k];
        let b = vec![1i128; k * n];
        let mut cs = CountingSynthesizer::<Fr>::new();
        matmul_circuit(&a, &b, m, k, n, 4, &mut cs).unwrap();
        // k multiplications per output + 1 output-exposure constraint
        assert_eq!(cs.num_constraints(), m * n * k + m * n);
    }

    #[test]
    fn identity_matrix_is_neutral() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let a = vec![7i128, -3, 2, 9];
        let eye = vec![1i128, 0, 0, 1];
        let got = matmul_circuit(&a, &eye, 2, 2, 2, 6, &mut cs).unwrap();
        assert_eq!(got, a);
        assert!(cs.is_satisfied().is_ok());
    }
}
