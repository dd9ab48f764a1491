//! # zkrownn-poly — FFT domains over BN254 Fr
//!
//! Evaluation domains of size `3ᵇ·2ᵏ` ([`Domain`]) with plain and coset
//! FFT/IFFT and Lagrange-coefficient evaluation (used by the Groth16
//! trusted setup). A domain is the smallest such size that holds the points asked for — `b` only where the
//! field has 3-adic roots of unity (BN254 `Fr`: `b ≤ 2`).
//!
//! ```
//! use zkrownn_poly::Domain;
//! use zkrownn_ff::{Field, Fr};
//! let domain = Domain::<Fr>::new(5).unwrap();
//! assert_eq!(domain.size, 6); // 3·2, not 8
//! let coeffs = vec![Fr::from_u64(3), Fr::one()]; // p(x) = 3 + x
//! let evals = domain.fft(&coeffs);
//! assert_eq!(evals[0], Fr::from_u64(4)); // p(1)
//! assert_eq!(domain.ifft(&evals)[..2], coeffs[..]);
//! ```

#![warn(missing_docs)]

pub mod domain;

pub use domain::{geometric_series, Domain, Elements, PARALLEL_FFT_MIN};
