//! # zkrownn-ff — BN254 finite-field arithmetic
//!
//! Self-contained field arithmetic for the ZKROWNN reproduction: the BN254
//! (a.k.a. BN128 / alt_bn128) base field [`Fq`], scalar field [`Fr`], and the
//! pairing tower [`Fq2`] → [`Fq6`] → [`Fq12`], plus the fixed-width
//! [`BigInt256`] and arbitrary-precision [`BigUint`] integers that back them.
//!
//! Only the two moduli are hand-transcribed; every derived constant
//! (Montgomery `R`/`R²`/`-p⁻¹`, Frobenius coefficients, 2-adic roots of
//! unity) is computed from them, and the moduli themselves are cross-checked
//! against their published decimal expansions in unit tests.
//!
//! ```
//! use zkrownn_ff::{Field, Fr};
//! let a = Fr::from_u64(6);
//! let b = Fr::from_u64(7);
//! assert_eq!(a * b, Fr::from_u64(42));
//! assert_eq!(a * a.inverse().unwrap(), Fr::one());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

extern crate alloc;

pub mod backend;
pub mod bigint;
pub mod biguint;
pub mod cache;
pub mod fp;
pub mod fq;
pub mod fq12;
pub mod fq2;
pub mod fq6;
pub mod fr;
pub mod frobenius;
pub mod par;
pub mod traits;

pub use backend::{ActiveBackend, FieldBackend, SchoolbookBackend, UnrolledBackend};
pub use bigint::BigInt256;
pub use biguint::BigUint;
pub use cache::Cached;
pub use fp::{Fp, FpParams};
pub use fq::{Fq, FqParams};
pub use fq12::Fq12;
pub use fq2::Fq2;
pub use fq6::Fq6;
pub use fr::{Fr, FrParams};
pub use traits::{Field, PrimeField, SquareRootField};
