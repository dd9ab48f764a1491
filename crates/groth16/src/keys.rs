//! Groth16 key and proof types, with binary serialization.
//!
//! Sizes mirror the paper's Table I metrics: proofs are three compressed
//! points (`G1 ‖ G2 ‖ G1` = 128 bytes), the verifying key grows linearly in
//! the number of public inputs, and the proving key grows linearly in the
//! number of variables/constraints.

use alloc::vec;
use alloc::vec::Vec;
use zkrownn_curves::serialize as ser;
use zkrownn_curves::{G1Affine, G1Config, G2Affine, G2Config, PointDecodeError};
use zkrownn_ff::{par, Fq12};
use zkrownn_pairing::{pairing, G2Prepared};

/// Why a byte string failed to decode as a key or proof.
///
/// Each variant pins down the rejection: a length problem names the exact
/// byte counts, and a bad curve point carries its byte offset plus the
/// point-level cause (truncated, non-canonical coordinate, off-curve, wrong
/// subgroup) from [`PointDecodeError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ends before the structure it claims to hold.
    Truncated {
        /// Bytes needed to continue decoding.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The total length disagrees with the (fixed or self-described) size.
    LengthMismatch {
        /// Length the encoding requires.
        expected: usize,
        /// Length supplied.
        got: usize,
    },
    /// A curve point failed validation.
    Point {
        /// Byte offset of the offending point.
        offset: usize,
        /// The point-level failure.
        source: PointDecodeError,
    },
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "truncated encoding: need {needed} bytes, have {got}")
            }
            Self::LengthMismatch { expected, got } => {
                write!(f, "encoding is {got} bytes, expected {expected}")
            }
            Self::Point { offset, source } => {
                write!(f, "invalid point at byte {offset}: {source}")
            }
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for DecodeError {}

/// Maps a point-decode failure at the given byte offset into a
/// [`DecodeError::Point`].
fn at(offset: usize) -> impl Fn(PointDecodeError) -> DecodeError {
    move |source| DecodeError::Point { offset, source }
}

/// The fewest points worth a [`par`] worker of their own. A compressed G1
/// point takes ≈ 13 µs to decode (one square root) and a scoped thread
/// ≈ 50 µs to spawn and join; on a 2-core x86-64 box two threads took
/// 0.6–0.8× the serial time from 32 points up, but 1.1–1.2× at 16 and 2×
/// at 4.
const MIN_POINTS_PER_THREAD: usize = 16;

/// Decodes the compressed G1 points in `bytes` (32 bytes each, the first at
/// byte `offset` of the enclosing encoding) into `out`, stopping at the
/// first invalid one.
fn read_g1_run(bytes: &[u8], offset: usize, out: &mut [G1Affine]) -> Result<(), DecodeError> {
    debug_assert_eq!(bytes.len(), 32 * out.len());
    for (i, (point, slot)) in bytes.chunks_exact(32).zip(out).enumerate() {
        *slot = ser::read_compressed::<G1Config>(point).map_err(at(offset + 32 * i))?;
    }
    Ok(())
}

/// [`read_g1_run`] split into contiguous chunks across the machine's cores,
/// at least [`MIN_POINTS_PER_THREAD`] points each (serial without the `std`
/// feature, on one core, or for fewer than twice that many points). Each
/// chunk stops at its own first invalid point, and the chunks are checked
/// in order, so the error names the lowest offset — the same one the serial
/// decode reports.
fn read_g1_family(bytes: &[u8], offset: usize, out: &mut [G1Affine]) -> Result<(), DecodeError> {
    let chunk = par::chunk_len(out.len(), MIN_POINTS_PER_THREAD);
    let parts = bytes.chunks(32 * chunk).zip(out.chunks_mut(chunk));
    let read = |(t, (b, o))| read_g1_run(b, offset + 32 * chunk * t, o);
    par::map(parts.enumerate(), read).into_iter().collect()
}

/// A Groth16 proof `(A, B, C)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Proof {
    /// `A ∈ G1`.
    pub a: G1Affine,
    /// `B ∈ G2`.
    pub b: G2Affine,
    /// `C ∈ G1`.
    pub c: G1Affine,
}

impl Proof {
    /// Compressed size in bytes (constant: 32 + 64 + 32).
    pub const SIZE: usize = 128;

    /// Serialized size in bytes (constant; mirrors the key types' API).
    pub fn serialized_size(&self) -> usize {
        Self::SIZE
    }

    /// Serializes the proof (compressed, 128 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::SIZE);
        ser::write_compressed(&self.a, &mut out);
        ser::write_compressed(&self.b, &mut out);
        ser::write_compressed(&self.c, &mut out);
        debug_assert_eq!(out.len(), Self::SIZE);
        out
    }

    /// Deserializes and validates a proof.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() != Self::SIZE {
            return Err(DecodeError::LengthMismatch {
                expected: Self::SIZE,
                got: bytes.len(),
            });
        }
        Ok(Self {
            a: ser::read_compressed::<G1Config>(&bytes[0..32]).map_err(at(0))?,
            b: ser::read_compressed::<G2Config>(&bytes[32..96]).map_err(at(32))?,
            c: ser::read_compressed::<G1Config>(&bytes[96..128]).map_err(at(96))?,
        })
    }
}

/// The public verifying key.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyingKey {
    /// `α·G1`.
    pub alpha_g1: G1Affine,
    /// `β·G2`.
    pub beta_g2: G2Affine,
    /// `γ·G2`.
    pub gamma_g2: G2Affine,
    /// `δ·G2`.
    pub delta_g2: G2Affine,
    /// `{(β·uᵢ(τ) + α·vᵢ(τ) + wᵢ(τ))/γ · G1}` for each instance column
    /// (including the constant-1 column).
    pub gamma_abc_g1: Vec<G1Affine>,
}

impl VerifyingKey {
    /// Serialized size in bytes (compressed points).
    pub fn serialized_size(&self) -> usize {
        8 + 32 + 3 * 64 + 32 * self.gamma_abc_g1.len()
    }

    /// Serializes the key (compressed points, length-prefixed vector).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        self.write_bytes(&mut out);
        out
    }

    /// Appends the serialized key to an existing buffer (avoids a second
    /// allocation when embedding the key in a larger envelope).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.gamma_abc_g1.len() as u64).to_le_bytes());
        ser::write_compressed(&self.alpha_g1, out);
        ser::write_compressed(&self.beta_g2, out);
        ser::write_compressed(&self.gamma_g2, out);
        ser::write_compressed(&self.delta_g2, out);
        for p in &self.gamma_abc_g1 {
            ser::write_compressed(p, out);
        }
    }

    /// Deserializes and validates a verifying key.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < 8 {
            return Err(DecodeError::Truncated {
                needed: 8,
                got: bytes.len(),
            });
        }
        let n = u64::from_le_bytes(bytes[0..8].try_into().unwrap()) as usize;
        // saturating throughout: a hostile length must yield an error, not
        // an overflow panic — a saturated `expected` can never equal a real
        // buffer length (allocations are capped at isize::MAX)
        let expected = 32usize.saturating_mul(n).saturating_add(8 + 32 + 3 * 64);
        if bytes.len() != expected {
            return Err(DecodeError::LengthMismatch {
                expected,
                got: bytes.len(),
            });
        }
        let mut off = 8;
        let alpha_g1 = ser::read_compressed::<G1Config>(&bytes[off..off + 32]).map_err(at(off))?;
        off += 32;
        let beta_g2 = ser::read_compressed::<G2Config>(&bytes[off..off + 64]).map_err(at(off))?;
        off += 64;
        let gamma_g2 = ser::read_compressed::<G2Config>(&bytes[off..off + 64]).map_err(at(off))?;
        off += 64;
        let delta_g2 = ser::read_compressed::<G2Config>(&bytes[off..off + 64]).map_err(at(off))?;
        off += 64;
        let mut gamma_abc_g1 = vec![G1Affine::identity(); n];
        read_g1_family(&bytes[off..], off, &mut gamma_abc_g1)?;
        Ok(Self {
            alpha_g1,
            beta_g2,
            gamma_g2,
            delta_g2,
            gamma_abc_g1,
        })
    }

    /// Precomputes the pairing-side constants for fast verification.
    pub fn prepare(&self) -> PreparedVerifyingKey {
        PreparedVerifyingKey {
            alpha_beta: pairing(&self.alpha_g1, &self.beta_g2),
            gamma_prepared: G2Prepared::from(self.gamma_g2),
            delta_prepared: G2Prepared::from(self.delta_g2),
            gamma_abc_g1: self.gamma_abc_g1.clone(),
        }
    }
}

/// A verifying key with pairing precomputation applied.
#[derive(Clone, Debug)]
pub struct PreparedVerifyingKey {
    /// `e(α·G1, β·G2)`.
    pub alpha_beta: Fq12,
    /// Prepared `γ·G2`.
    pub gamma_prepared: G2Prepared,
    /// Prepared `δ·G2`.
    pub delta_prepared: G2Prepared,
    /// Same instance-commitment bases as [`VerifyingKey::gamma_abc_g1`].
    pub gamma_abc_g1: Vec<G1Affine>,
}

/// The proving key.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvingKey {
    /// A copy of the verifying key (the prover needs `delta_g2`/`beta_g2`).
    pub vk: VerifyingKey,
    /// `β·G1`.
    pub beta_g1: G1Affine,
    /// `δ·G1`.
    pub delta_g1: G1Affine,
    /// `{uᵢ(τ)·G1}` for every column of `z`.
    pub a_query: Vec<G1Affine>,
    /// `{vᵢ(τ)·G1}` for every column of `z`.
    pub b_g1_query: Vec<G1Affine>,
    /// `{vᵢ(τ)·G2}` for every column of `z`.
    pub b_g2_query: Vec<G2Affine>,
    /// `{τⁱ·Z(τ)/δ · G1}` for `i < m − 1`.
    pub h_query: Vec<G1Affine>,
    /// `{(β·uᵢ(τ) + α·vᵢ(τ) + wᵢ(τ))/δ · G1}` for witness columns.
    pub l_query: Vec<G1Affine>,
}

impl ProvingKey {
    /// Serialized size in bytes (uncompressed points, like libsnark's
    /// in-memory representation — this is the "PK size" metric of Table I).
    pub fn serialized_size(&self) -> usize {
        let g1 = 64;
        let g2 = 128;
        5 * 8
            + self.vk.serialized_size()
            + 2 * g1
            + g1 * (self.a_query.len()
                + self.b_g1_query.len()
                + self.h_query.len()
                + self.l_query.len())
            + g2 * self.b_g2_query.len()
    }

    /// Serializes the proving key (uncompressed points for fast loading).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        self.write_bytes(&mut out);
        out
    }

    /// Appends the serialized key to an existing buffer (avoids a second
    /// multi-megabyte allocation when embedding the key in an envelope).
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        for len in [
            self.a_query.len(),
            self.b_g1_query.len(),
            self.b_g2_query.len(),
            self.h_query.len(),
            self.l_query.len(),
        ] {
            out.extend_from_slice(&(len as u64).to_le_bytes());
        }
        self.vk.write_bytes(out);
        ser::write_uncompressed(&self.beta_g1, out);
        ser::write_uncompressed(&self.delta_g1, out);
        for p in &self.a_query {
            ser::write_uncompressed(p, out);
        }
        for p in &self.b_g1_query {
            ser::write_uncompressed(p, out);
        }
        for p in &self.b_g2_query {
            ser::write_uncompressed(p, out);
        }
        for p in &self.h_query {
            ser::write_uncompressed(p, out);
        }
        for p in &self.l_query {
            ser::write_uncompressed(p, out);
        }
    }

    /// Deserializes and validates a proving key.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < 40 {
            return Err(DecodeError::Truncated {
                needed: 40,
                got: bytes.len(),
            });
        }
        let mut lens = [0usize; 5];
        for (i, l) in lens.iter_mut().enumerate() {
            *l = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap()) as usize;
        }
        let mut off = 40;
        // VK: need its size first
        if bytes.len() < off + 8 {
            return Err(DecodeError::Truncated {
                needed: off + 8,
                got: bytes.len(),
            });
        }
        let n_abc = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
        let vk_size = 32usize
            .saturating_mul(n_abc)
            .saturating_add(8 + 32 + 3 * 64);
        let vk_bytes =
            bytes
                .get(off..off.saturating_add(vk_size))
                .ok_or(DecodeError::Truncated {
                    needed: off.saturating_add(vk_size),
                    got: bytes.len(),
                })?;
        let vk = VerifyingKey::from_bytes(vk_bytes).map_err(|e| match e {
            // re-anchor point offsets to the enclosing buffer
            DecodeError::Point { offset, source } => DecodeError::Point {
                offset: offset + off,
                source,
            },
            other => other,
        })?;
        off += vk_size;
        let read_g1 = |off: &mut usize| -> Result<G1Affine, DecodeError> {
            let slice = bytes.get(*off..*off + 64).ok_or(DecodeError::Truncated {
                needed: *off + 64,
                got: bytes.len(),
            })?;
            let p = ser::read_uncompressed::<G1Config>(slice).map_err(at(*off))?;
            *off += 64;
            Ok(p)
        };
        let read_g2 = |off: &mut usize| -> Result<G2Affine, DecodeError> {
            let slice = bytes.get(*off..*off + 128).ok_or(DecodeError::Truncated {
                needed: *off + 128,
                got: bytes.len(),
            })?;
            let p = ser::read_uncompressed::<G2Config>(slice).map_err(at(*off))?;
            *off += 128;
            Ok(p)
        };
        let beta_g1 = read_g1(&mut off)?;
        let delta_g1 = read_g1(&mut off)?;
        // hostile lens must not drive Vec::with_capacity into an allocation
        // abort — cap every preallocation by what the buffer could hold;
        // oversized counts then fail with Truncated on the first short read
        let cap = |len: usize| len.min(bytes.len() / 64 + 1);
        let mut a_query = Vec::with_capacity(cap(lens[0]));
        for _ in 0..lens[0] {
            a_query.push(read_g1(&mut off)?);
        }
        let mut b_g1_query = Vec::with_capacity(cap(lens[1]));
        for _ in 0..lens[1] {
            b_g1_query.push(read_g1(&mut off)?);
        }
        let mut b_g2_query = Vec::with_capacity(cap(lens[2]));
        for _ in 0..lens[2] {
            b_g2_query.push(read_g2(&mut off)?);
        }
        let mut h_query = Vec::with_capacity(cap(lens[3]));
        for _ in 0..lens[3] {
            h_query.push(read_g1(&mut off)?);
        }
        let mut l_query = Vec::with_capacity(cap(lens[4]));
        for _ in 0..lens[4] {
            l_query.push(read_g1(&mut off)?);
        }
        if off != bytes.len() {
            return Err(DecodeError::LengthMismatch {
                expected: off,
                got: bytes.len(),
            });
        }
        Ok(Self {
            vk,
            beta_g1,
            delta_g1,
            a_query,
            b_g1_query,
            b_g2_query,
            h_query,
            l_query,
        })
    }
}
