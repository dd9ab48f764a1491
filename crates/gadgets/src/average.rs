//! Zero-knowledge activation averaging (the `zkAverage` step of
//! Algorithm 1): the statistical mean of the activation maps obtained from
//! the trigger keys approximates the watermarked Gaussian centers.

use crate::cmp::div_by_const;
use crate::num::Num;
use alloc::vec::Vec;
use zkrownn_ff::Fr;
use zkrownn_r1cs::{ConstraintSystem, SynthesisError};

/// Averages `rows` vectors element-wise: output `j` is
/// `⌊(Σᵢ rows[i][j]) / rows.len()⌋` (floor division, matching
/// [`crate::fixed::floor_div`]).
pub fn average_rows<CS: ConstraintSystem<Fr>>(
    rows: &[Vec<Num>],
    cs: &mut CS,
) -> Result<Vec<Num>, SynthesisError> {
    assert!(!rows.is_empty(), "average of zero rows");
    let width = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == width),
        "ragged rows in average"
    );
    let n = rows.len() as u64;
    (0..width)
        .map(|j| div_by_const(&Num::sum(rows.iter().map(|row| &row[j])), n, cs))
        .collect()
}

/// The standalone Table I "Average2D" circuit: a private `rows × cols`
/// matrix averaged along rows (column means), public outputs. Returns the
/// reference means (computed out of circuit, so the helper works under
/// every driver).
pub fn average2d_circuit<CS: ConstraintSystem<Fr>>(
    entries: &[i128],
    rows: usize,
    cols: usize,
    bits: u32,
    cs: &mut CS,
) -> Result<Vec<i128>, SynthesisError> {
    use zkrownn_ff::PrimeField;
    assert_eq!(entries.len(), rows * cols);
    let nums: Vec<Vec<Num>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| Num::alloc_witness(cs, || Ok(Fr::from_i128(entries[r * cols + c])), bits))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let means = average_rows(&nums, cs)?;
    for m in &means {
        m.expose_as_output(cs)?;
    }
    Ok(average_reference(entries, rows, cols))
}

/// Reference column means with floor semantics.
pub fn average_reference(entries: &[i128], rows: usize, cols: usize) -> Vec<i128> {
    (0..cols)
        .map(|c| {
            let sum: i128 = (0..rows).map(|r| entries[r * cols + c]).sum();
            sum.div_euclid(rows as i128)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use rand::Rng;
    use rand::SeedableRng;
    use zkrownn_r1cs::ProvingSynthesizer;

    #[test]
    fn average_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(161);
        let (rows, cols) = (5usize, 7usize);
        let entries: Vec<i128> = (0..rows * cols).map(|_| rng.gen_range(-100..100)).collect();
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let got = average2d_circuit(&entries, rows, cols, 8, &mut cs).unwrap();
        assert_eq!(got, average_reference(&entries, rows, cols));
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn power_of_two_rows_use_truncation_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(162);
        let (rows, cols) = (4usize, 3usize);
        let entries: Vec<i128> = (0..rows * cols).map(|_| rng.gen_range(-100..100)).collect();
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let got = average2d_circuit(&entries, rows, cols, 8, &mut cs).unwrap();
        assert_eq!(got, average_reference(&entries, rows, cols));
        assert!(cs.is_satisfied().is_ok());
    }

    #[test]
    fn single_row_average_is_identity() {
        let entries = vec![3i128, -4, 5];
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let got = average2d_circuit(&entries, 1, 3, 4, &mut cs).unwrap();
        assert_eq!(got, entries);
        assert!(cs.is_satisfied().is_ok());
    }
}
