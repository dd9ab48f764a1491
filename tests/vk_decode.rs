//! Verifying-key decoding of a large instance family: the IC points
//! (`gamma_abc_g1`) are decoded in contiguous chunks, across cores where
//! there are several. Whatever the split, a key must re-encode byte for
//! byte, and a bad key must report the same error as a point-by-point
//! decode — the lowest-offset invalid point.

use zkrownn_curves::{G1Affine, G1Config, G1Projective, G2Projective, PointDecodeError};
use zkrownn_ff::{Field, Fq, Fr, PrimeField};
use zkrownn_groth16::{DecodeError, VerifyingKey};

/// Byte offset of the first IC point: count, `α·G1`, then three G2 points.
const IC_OFFSET: usize = 8 + 32 + 3 * 64;

/// A key with `n` distinct IC points `G, 2G, …, nG`.
fn key_with_ic_points(n: usize) -> VerifyingKey {
    let g = G1Projective::generator();
    let mut multiples = Vec::with_capacity(n);
    let mut acc = g;
    for _ in 0..n {
        multiples.push(acc);
        acc += g;
    }
    let h = G2Projective::generator();
    VerifyingKey {
        alpha_g1: g.mul_scalar(Fr::from_u64(5)).into_affine(),
        beta_g2: h.mul_scalar(Fr::from_u64(6)).into_affine(),
        gamma_g2: h.mul_scalar(Fr::from_u64(7)).into_affine(),
        delta_g2: h.mul_scalar(Fr::from_u64(8)).into_affine(),
        gamma_abc_g1: G1Projective::batch_into_affine(&multiples),
    }
}

/// A compressed x-coordinate with no point above it: `x³ + 3` is not a
/// square.
fn off_curve_encoding() -> [u8; 32] {
    (1u64..)
        .map(|x| Fq::from_u64(x).to_le_bytes())
        .find(|bytes| {
            zkrownn_curves::serialize::read_compressed::<G1Config>(bytes)
                == Err(PointDecodeError::NotOnCurve)
        })
        .expect("half of all x have no point")
}

/// A compressed x-coordinate ≥ the modulus (2²⁵⁴ − 1, flag bits clear).
fn non_canonical_encoding() -> [u8; 32] {
    let mut bytes = [0xff; 32];
    bytes[31] = 0x3f;
    bytes
}

/// Overwrites IC point `index` of an encoded key.
fn plant(wire: &mut [u8], index: usize, point: &[u8; 32]) {
    let at = IC_OFFSET + 32 * index;
    wire[at..at + 32].copy_from_slice(point);
}

fn point_error(index: usize, source: PointDecodeError) -> DecodeError {
    DecodeError::Point {
        offset: IC_OFFSET + 32 * index,
        source,
    }
}

#[test]
fn a_large_key_decodes_and_reencodes_byte_identical() {
    let vk = key_with_ic_points(1_031);
    let wire = vk.to_bytes();
    let decoded = VerifyingKey::from_bytes(&wire).expect("an honest key decodes");
    assert_eq!(decoded, vk);
    assert_eq!(decoded.to_bytes(), wire);
    // every point decoded, and into its own slot
    assert!(decoded
        .gamma_abc_g1
        .iter()
        .all(|p| *p != G1Affine::identity()));
}

#[test]
fn the_lowest_offset_bad_point_is_reported_whatever_the_split() {
    let n = 1_031;
    let wire = key_with_ic_points(n).to_bytes();
    let off_curve = off_curve_encoding();
    let non_canonical = non_canonical_encoding();
    let kinds = [
        (&off_curve, PointDecodeError::NotOnCurve),
        (&non_canonical, PointDecodeError::NonCanonicalField),
    ];
    for (first, first_err) in kinds {
        for (last, _) in kinds {
            // one bad point in the first chunk and one in the last, under
            // any chunk count: the first is reported
            let mut both = wire.clone();
            plant(&mut both, 3, first);
            plant(&mut both, n - 1, last);
            assert_eq!(
                VerifyingKey::from_bytes(&both),
                Err(point_error(3, first_err))
            );
            // the same pair a little past the middle: whichever chunks they
            // land in, the lower one wins
            let mut middle = wire.clone();
            plant(&mut middle, n / 2 + 1, first);
            plant(&mut middle, n - 2, last);
            assert_eq!(
                VerifyingKey::from_bytes(&middle),
                Err(point_error(n / 2 + 1, first_err))
            );
        }
        // a bad point in the last chunk alone reports its own offset
        let mut tail = wire.clone();
        plant(&mut tail, n - 1, first);
        assert_eq!(
            VerifyingKey::from_bytes(&tail),
            Err(point_error(n - 1, first_err))
        );
    }
}

#[test]
fn a_small_family_reports_the_same_errors() {
    let n = 5;
    let wire = key_with_ic_points(n).to_bytes();
    assert_eq!(VerifyingKey::from_bytes(&wire).unwrap().to_bytes(), wire);
    let mut bad = wire.clone();
    plant(&mut bad, 1, &non_canonical_encoding());
    plant(&mut bad, 4, &off_curve_encoding());
    assert_eq!(
        VerifyingKey::from_bytes(&bad),
        Err(point_error(1, PointDecodeError::NonCanonicalField))
    );
}
