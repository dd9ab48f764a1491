//! Dense univariate polynomials (coefficient form).

use crate::domain::Domain;
use zkrownn_ff::PrimeField;

/// A dense polynomial `Σ coeffs[i]·xⁱ` with trailing zeros trimmed.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DensePolynomial<F: PrimeField> {
    coeffs: Vec<F>,
}

impl<F: PrimeField> DensePolynomial<F> {
    /// Creates a polynomial from coefficients (low degree first).
    pub fn from_coefficients(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Self { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// Returns true for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The coefficients (low degree first, no trailing zeros).
    pub fn coefficients(&self) -> &[F] {
        &self.coeffs
    }

    /// Degree (0 for constants; 0 for the zero polynomial by convention).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Horner evaluation.
    pub fn evaluate(&self, x: F) -> F {
        self.coeffs
            .iter()
            .rev()
            .fold(F::zero(), |acc, &c| acc * x + c)
    }

    /// Samples a random polynomial of the given degree.
    pub fn random<R: rand::Rng + ?Sized>(degree: usize, rng: &mut R) -> Self {
        Self::from_coefficients((0..=degree).map(|_| F::random(rng)).collect())
    }

    /// Product via FFT over a sufficiently large domain.
    ///
    /// # Panics
    /// Panics if the product degree exceeds the field's FFT capacity.
    pub fn mul_via_fft(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let result_len = self.coeffs.len() + other.coeffs.len() - 1;
        let domain = Domain::<F>::new(result_len).expect("product degree exceeds FFT capacity");
        let mut a = self.coeffs.clone();
        let mut b = other.coeffs.clone();
        domain.fft_in_place(&mut a);
        domain.fft_in_place(&mut b);
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x *= *y;
        }
        domain.ifft_in_place(&mut a);
        a.truncate(result_len);
        Self::from_coefficients(a)
    }

    /// Schoolbook product (reference implementation for tests).
    pub fn mul_naive(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![F::zero(); self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Self::from_coefficients(out)
    }

    /// Polynomial addition.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or_else(F::zero);
            let b = other.coeffs.get(i).copied().unwrap_or_else(F::zero);
            out.push(a + b);
        }
        Self::from_coefficients(out)
    }

    /// Divides by the vanishing polynomial `x^m − 1`, returning
    /// `(quotient, remainder)`.
    pub fn divide_by_vanishing_poly(&self, m: usize) -> (Self, Self) {
        if self.coeffs.len() <= m {
            return (Self::zero(), self.clone());
        }
        // synthetic division: x^m ≡ 1 (mod x^m - 1) folding
        let mut rem = self.coeffs.clone();
        let mut quot = vec![F::zero(); self.coeffs.len() - m];
        for i in (m..self.coeffs.len()).rev() {
            let c = rem[i];
            quot[i - m] += c;
            rem[i - m] += c;
            rem[i] = F::zero();
        }
        rem.truncate(m);
        (Self::from_coefficients(quot), Self::from_coefficients(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use zkrownn_ff::{Field, Fr};

    #[test]
    fn mul_fft_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(111);
        for (da, db) in [(0usize, 0usize), (3, 5), (16, 1), (31, 33)] {
            let a = DensePolynomial::<Fr>::random(da, &mut rng);
            let b = DensePolynomial::<Fr>::random(db, &mut rng);
            assert_eq!(a.mul_via_fft(&b), a.mul_naive(&b));
        }
    }

    #[test]
    fn evaluate_distributes_over_mul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(112);
        let a = DensePolynomial::<Fr>::random(7, &mut rng);
        let b = DensePolynomial::<Fr>::random(4, &mut rng);
        let x = Fr::random(&mut rng);
        assert_eq!(a.mul_via_fft(&b).evaluate(x), a.evaluate(x) * b.evaluate(x));
    }

    #[test]
    fn divide_by_vanishing_poly_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(113);
        let m = 8usize;
        let h = DensePolynomial::<Fr>::random(5, &mut rng);
        // p = h · (x^m − 1)
        let mut z = vec![Fr::zero(); m + 1];
        z[0] = -Fr::one();
        z[m] = Fr::one();
        let zpoly = DensePolynomial::from_coefficients(z);
        let p = h.mul_naive(&zpoly);
        let (q, r) = p.divide_by_vanishing_poly(m);
        assert_eq!(q, h);
        assert!(r.is_zero());
    }

    #[test]
    fn divide_by_vanishing_poly_with_remainder() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(114);
        let m = 4usize;
        let p = DensePolynomial::<Fr>::random(9, &mut rng);
        let (q, r) = p.divide_by_vanishing_poly(m);
        assert!(r.degree() < m);
        // reconstruct: q·(x^m − 1) + r == p
        let mut z = vec![Fr::zero(); m + 1];
        z[0] = -Fr::one();
        z[m] = Fr::one();
        let zpoly = DensePolynomial::from_coefficients(z);
        assert_eq!(q.mul_naive(&zpoly).add(&r), p);
    }

    #[test]
    fn trailing_zeros_trimmed() {
        let p =
            DensePolynomial::<Fr>::from_coefficients(vec![Fr::from_u64(1), Fr::zero(), Fr::zero()]);
        assert_eq!(p.degree(), 0);
        assert_eq!(p.coefficients().len(), 1);
    }
}
