//! Versioned wire formats for everything the three ZKROWNN parties exchange.
//!
//! Setup, proving and verification are performed by *different* parties: a
//! trusted authority publishes keys, the model owner ships a compact claim,
//! and any third party verifies it. Every object that crosses a process
//! boundary therefore implements [`Artifact`] — a self-identifying envelope
//! (magic bytes, artifact kind, format version, payload length, checksum)
//! around a canonical payload encoding:
//!
//! | artifact | payload |
//! |---|---|
//! | [`OwnershipStatement`] | public circuit description: quantized model, BER threshold, watermark dimensions |
//! | [`OwnershipProof`](crate::OwnershipProof) | circuit id ‖ verdict ‖ 128-byte Groth16 proof |
//! | [`VerifyingKey`] | compressed verification points |
//! | [`ProvingKey`] | uncompressed prover queries |
//! | [`SignedClaim`](crate::SignedClaim) | nested statement + proof artifacts |
//!
//! Artifacts are tied together by a [`CircuitId`]: the SHA-256 digest of
//! the circuit's *setup-mode synthesis trace* — every allocation and
//! compacted constraint the witness-free setup driver records, and nothing
//! else (in particular no assignment values, which the setup driver never
//! evaluates). Two same-shaped models synthesize the same trace, so they
//! share a `CircuitId` and hence trusted-setup keys; a [`crate::KeyRegistry`]
//! (see [`crate::registry`]) uses the id to cache pairing precomputation.
//!
//! Any single corrupted byte on the wire is rejected: header corruption
//! trips the magic/kind/version/length checks, payload corruption trips the
//! trailing checksum, and points that survive both are still validated on
//! the curve.

use crate::model::{QuantLayer, QuantizedModel};
use alloc::format;
use alloc::string::String;
use alloc::vec::Vec;
use zkrownn_ff::{Fr, PrimeField};
use zkrownn_gadgets::conv::ConvShape;
use zkrownn_gadgets::fixed::FixedConfig;
use zkrownn_groth16::{ProvingKey, VerifyingKey};
use zkrownn_r1cs::{Circuit, ShapeSink, TraceSynthesizer};

// ---------------------------------------------------------------------------
// SHA-256 (the content digest behind CircuitId and the envelope checksum)
// ---------------------------------------------------------------------------

// The implementation lives in `zkrownn-store` (which sits *below* this crate
// in the dependency graph and needs the hash for segment checksums); it is
// re-exported here so existing `zkrownn::artifact::sha256` callers — and the
// CircuitId / envelope-checksum code below — are unaffected by the move.
pub use zkrownn_store::sha::{sha256, Sha256};

/// A [`ShapeSink`] hashing the canonical setup-mode synthesis trace —
/// allocation events and compacted constraints — into SHA-256. The preimage
/// opens with its own domain tag, deliberately *not* [`WIRE_VERSION`], so
/// envelope-format bumps never orphan existing trusted-setup keys: the tag
/// revs only when the trace encoding itself changes.
pub struct TraceHasher(Sha256);

/// Domain separator for the synthesis-trace digest behind [`CircuitId`].
pub const TRACE_DOMAIN_TAG: &[u8] = b"zkrownn.trace.v1";

impl Default for TraceHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHasher {
    /// A fresh trace hasher (domain tag pre-absorbed).
    pub fn new() -> Self {
        let mut state = Sha256::new();
        state.update(TRACE_DOMAIN_TAG);
        Self(state)
    }

    /// The digest of everything absorbed so far.
    pub fn finalize(self) -> [u8; 32] {
        self.0.finalize()
    }
}

impl ShapeSink for TraceHasher {
    fn absorb(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }
}

// ---------------------------------------------------------------------------
// CircuitId
// ---------------------------------------------------------------------------

/// Digest of a circuit's setup-mode synthesis trace.
///
/// Computed by driving the circuit through a witness-free setup driver
/// and hashing every structural event it emits — allocations and
/// compacted constraints, coefficients included. The id is therefore
/// derived from the *synthesized constraint system itself*, not from a
/// side-channel description of it: "same shape ⇒ same circuit ⇒ same
/// trusted-setup keys" holds by construction, and no assignment value
/// (model parameters included — they are public *inputs*, not structure)
/// can influence it, because the setup drivers never evaluate a value
/// closure. Namespace labels are excluded, so renaming debug scopes keeps
/// keys valid. The id doubles as the cache key for prepared verifying keys
/// in a [`crate::KeyRegistry`].
///
/// The preimage is the `v1` trace: [`TRACE_DOMAIN_TAG`], then the records
/// `zkrownn_r1cs` documents. How it is computed is not part of it — the
/// digest-only `TraceSynthesizer` hands the hash one record per constraint
/// and stores none of them, and the SHA-256 underneath uses the CPU's SHA
/// extensions where it has them; the bytes are the same on every machine.
/// A shorter coefficient encoding (a quarter of the bytes) is deliberately
/// not used: it would be a `trace.v2`, re-keying every registered circuit,
/// and with hardware SHA it saves nothing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CircuitId([u8; 32]);

impl CircuitId {
    /// Derives the id of `circuit` by hashing its setup-mode synthesis
    /// trace. Never evaluates a value closure, so it works on witness-less
    /// circuits (and is what makes two same-shaped circuits provably share
    /// keys). Keeps nothing of the circuit: each constraint is compacted,
    /// encoded, absorbed and dropped.
    pub fn of_circuit<C: Circuit<Fr>>(circuit: &C) -> Self {
        let mut cs = TraceSynthesizer::with_sink(TraceHasher::new());
        circuit
            .synthesize(&mut cs)
            .expect("setup-mode synthesis evaluates no value closure and cannot fail");
        Self(cs.into_sink().finalize())
    }

    /// Wraps raw digest bytes (e.g. read off the wire).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Full lowercase-hex rendering.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Abbreviated rendering (first 8 hex chars) for logs and displays.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl core::fmt::Debug for CircuitId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "CircuitId({})", self.to_hex())
    }
}

impl core::fmt::Display for CircuitId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// The artifact kinds the wire format distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// An [`OwnershipStatement`].
    Statement,
    /// An [`crate::OwnershipProof`].
    Proof,
    /// A Groth16 [`VerifyingKey`].
    VerifyingKey,
    /// A Groth16 [`ProvingKey`].
    ProvingKey,
    /// A [`crate::SignedClaim`] (statement + proof bundle).
    Claim,
    /// A registry-ledger head (size + accumulator root) — payload codec in
    /// `zkrownn-ledger`.
    LedgerRoot,
    /// A ledger membership proof (audit path) — payload codec in
    /// `zkrownn-ledger`.
    MembershipProof,
    /// A ledger root-transition consistency proof — payload codec in
    /// `zkrownn-ledger`.
    ConsistencyProof,
    /// A segmented on-disk key store (`.zkst`) — container codec in
    /// `zkrownn-store`. Store files reuse the `ZKRW` magic with this kind
    /// tag so a store is recognizably a ZKROWNN artifact, but their body is
    /// a seekable segment table rather than a monolithic payload.
    KeyStore,
}

impl ArtifactKind {
    /// One-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            Self::Statement => 1,
            Self::Proof => 2,
            Self::VerifyingKey => 3,
            Self::ProvingKey => 4,
            Self::Claim => 5,
            Self::LedgerRoot => 6,
            Self::MembershipProof => 7,
            Self::ConsistencyProof => 8,
            Self::KeyStore => zkrownn_store::STORE_KIND,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(Self::Statement),
            2 => Some(Self::Proof),
            3 => Some(Self::VerifyingKey),
            4 => Some(Self::ProvingKey),
            5 => Some(Self::Claim),
            6 => Some(Self::LedgerRoot),
            7 => Some(Self::MembershipProof),
            8 => Some(Self::ConsistencyProof),
            9 => Some(Self::KeyStore),
            _ => None,
        }
    }

    /// Human-readable kind name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Statement => "ownership statement",
            Self::Proof => "ownership proof",
            Self::VerifyingKey => "verifying key",
            Self::ProvingKey => "proving key",
            Self::Claim => "signed claim",
            Self::LedgerRoot => "ledger root",
            Self::MembershipProof => "ledger membership proof",
            Self::ConsistencyProof => "ledger consistency proof",
            Self::KeyStore => "segmented key store",
        }
    }
}

/// Why a byte string failed to decode as an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than the structure it claims (or needs) to hold.
    Truncated {
        /// Bytes needed to continue decoding.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The leading magic bytes are not `ZKRW`.
    BadMagic([u8; 4]),
    /// The kind tag is valid but not the kind the caller asked for.
    WrongKind {
        /// Kind the caller tried to decode.
        expected: ArtifactKind,
        /// Kind found on the wire.
        got: ArtifactKind,
    },
    /// The kind tag is not one this build knows.
    UnknownKind(u8),
    /// The format version is not supported by this build.
    UnsupportedVersion {
        /// Version found on the wire.
        got: u16,
        /// Version this build speaks.
        supported: u16,
    },
    /// The buffer length disagrees with the envelope's payload length.
    LengthMismatch {
        /// Length the envelope describes.
        expected: usize,
        /// Length supplied.
        got: usize,
    },
    /// The payload checksum does not match (bit rot or tampering).
    ChecksumMismatch,
    /// A key or proof payload failed point-level validation.
    Key(zkrownn_groth16::DecodeError),
    /// The payload structure is invalid.
    Malformed(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated { needed, got } => {
                write!(f, "truncated artifact: need {needed} bytes, have {got}")
            }
            Self::BadMagic(m) => write!(f, "bad magic bytes {m:02x?} (not a ZKROWNN artifact)"),
            Self::WrongKind { expected, got } => {
                write!(f, "expected a {}, found a {}", expected.name(), got.name())
            }
            Self::UnknownKind(t) => write!(f, "unknown artifact kind tag {t}"),
            Self::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "unsupported format version {got} (this build speaks {supported})"
                )
            }
            Self::LengthMismatch { expected, got } => {
                write!(f, "artifact is {got} bytes, envelope describes {expected}")
            }
            Self::ChecksumMismatch => write!(f, "artifact checksum mismatch (corrupted payload)"),
            Self::Key(e) => write!(f, "invalid key/proof payload: {e}"),
            Self::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for WireError {}

impl From<zkrownn_groth16::DecodeError> for WireError {
    fn from(e: zkrownn_groth16::DecodeError) -> Self {
        Self::Key(e)
    }
}

/// Magic bytes opening every artifact.
pub const MAGIC: [u8; 4] = *b"ZKRW";

/// The wire-format version this build writes and accepts.
pub const WIRE_VERSION: u16 = 1;

const HEADER_LEN: usize = 4 + 1 + 2 + 8; // magic ‖ kind ‖ version ‖ payload len
const CHECKSUM_LEN: usize = 8; // truncated SHA-256 over header ‖ payload

/// Envelope bytes added around every payload (header + checksum).
pub const WIRE_OVERHEAD: usize = HEADER_LEN + CHECKSUM_LEN;

/// A serializable, versioned, self-identifying wire object.
///
/// Implementors provide the payload codec; the trait supplies the envelope:
/// `to_bytes` wraps the payload in magic bytes, the kind tag, the format
/// version, the payload length and a truncated-SHA-256 checksum, and
/// `from_bytes` validates all five before touching the payload.
pub trait Artifact: Sized {
    /// Which artifact this is on the wire.
    const KIND: ArtifactKind;

    /// Format version written and accepted (bump on incompatible change).
    const FORMAT_VERSION: u16 = WIRE_VERSION;

    /// Appends the canonical payload encoding to `out`.
    fn write_payload(&self, out: &mut Vec<u8>);

    /// Decodes the payload (envelope already validated).
    fn read_payload(payload: &[u8]) -> Result<Self, WireError>;

    /// Payload size in bytes (must equal what `write_payload` appends).
    fn payload_size(&self) -> usize;

    /// Total serialized size: envelope overhead + payload.
    fn serialized_size(&self) -> usize {
        WIRE_OVERHEAD + self.payload_size()
    }

    /// Serializes the artifact with its envelope.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_size());
        out.extend_from_slice(&MAGIC);
        out.push(Self::KIND.tag());
        out.extend_from_slice(&Self::FORMAT_VERSION.to_le_bytes());
        let len_pos = out.len();
        out.extend_from_slice(&0u64.to_le_bytes());
        self.write_payload(&mut out);
        let payload_len = (out.len() - HEADER_LEN) as u64;
        out[len_pos..len_pos + 8].copy_from_slice(&payload_len.to_le_bytes());
        let sum = sha256(&out);
        out.extend_from_slice(&sum[..CHECKSUM_LEN]);
        debug_assert_eq!(out.len(), self.serialized_size(), "payload_size is wrong");
        out
    }

    /// Validates the envelope and decodes the artifact.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < WIRE_OVERHEAD {
            return Err(WireError::Truncated {
                needed: WIRE_OVERHEAD,
                got: bytes.len(),
            });
        }
        if bytes[0..4] != MAGIC {
            return Err(WireError::BadMagic(bytes[0..4].try_into().unwrap()));
        }
        let kind = ArtifactKind::from_tag(bytes[4]).ok_or(WireError::UnknownKind(bytes[4]))?;
        if kind != Self::KIND {
            return Err(WireError::WrongKind {
                expected: Self::KIND,
                got: kind,
            });
        }
        let version = u16::from_le_bytes(bytes[5..7].try_into().unwrap());
        if version != Self::FORMAT_VERSION {
            return Err(WireError::UnsupportedVersion {
                got: version,
                supported: Self::FORMAT_VERSION,
            });
        }
        let payload_len = u64::from_le_bytes(bytes[7..15].try_into().unwrap());
        let payload_len =
            usize::try_from(payload_len).map_err(|_| WireError::Malformed("payload length"))?;
        let expected = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(CHECKSUM_LEN))
            .ok_or(WireError::Malformed("payload length"))?;
        if bytes.len() != expected {
            return Err(WireError::LengthMismatch {
                expected,
                got: bytes.len(),
            });
        }
        let body = &bytes[..HEADER_LEN + payload_len];
        if sha256(body)[..CHECKSUM_LEN] != bytes[HEADER_LEN + payload_len..] {
            return Err(WireError::ChecksumMismatch);
        }
        Self::read_payload(&bytes[HEADER_LEN..HEADER_LEN + payload_len])
    }
}

// ---------------------------------------------------------------------------
// Payload reader
// ---------------------------------------------------------------------------

/// Cursor over a payload with typed, bounds-checked reads.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, off: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .off
            .checked_add(n)
            .ok_or(WireError::Malformed("length overflow"))?;
        let slice = self.buf.get(self.off..end).ok_or(WireError::Truncated {
            needed: end,
            got: self.buf.len(),
        })?;
        self.off = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("boolean byte is not 0 or 1")),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn len(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("length overflow"))
    }

    pub(crate) fn i128(&mut self) -> Result<i128, WireError> {
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads `n` little-endian `i128`s.
    ///
    /// The declared count is validated against the bytes actually left in
    /// the buffer *before* any allocation, so a hostile length field costs
    /// a bounds check — never an over-sized `Vec` reservation.
    pub(crate) fn i128_vec(&mut self, n: usize) -> Result<Vec<i128>, WireError> {
        let remaining = self.buf.len() - self.off;
        let needed = n
            .checked_mul(16)
            .ok_or(WireError::Malformed("length overflow"))?;
        if needed > remaining {
            return Err(WireError::Truncated {
                needed: self.off + needed,
                got: self.buf.len(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.i128()?);
        }
        Ok(out)
    }

    pub(crate) fn finish(self) -> Result<(), WireError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::LengthMismatch {
                expected: self.off,
                got: self.buf.len(),
            })
        }
    }
}

fn write_i128s(vals: &[i128], out: &mut Vec<u8>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// OwnershipStatement
// ---------------------------------------------------------------------------

/// The public half of an extraction circuit: everything a verifier needs to
/// check an ownership claim, and nothing the prover must keep secret.
///
/// Carries the quantized suspect model (its parameters are the circuit's
/// public inputs), the BER threshold, the averaging mode, the fixed-point
/// configuration and the watermark *dimensions* (trigger count, signature
/// length) — but never the trigger keys, the projection matrix or the
/// signature bits themselves.
///
/// A statement that *decodes* describes a circuit that can be synthesized:
/// [`Artifact::from_bytes`] checks the fields against each other (layer
/// chain, conv / pool geometry, fixed-point widths, `max_errors ≤
/// signature_bits`, …) and answers [`WireError::Malformed`] otherwise, so
/// [`Self::circuit_id`] cannot panic on anything read off the wire. The
/// fields are public, and a statement assembled by hand carries no such
/// guarantee.
#[derive(Clone, Debug, PartialEq)]
pub struct OwnershipStatement {
    /// The quantized suspect model under dispute (public). Its `cfg` must
    /// equal [`Self::cfg`] — the wire format stores the configuration once
    /// and normalizes `model.cfg` to it on decode, so a hand-built
    /// statement with diverging configurations will not round-trip
    /// identically.
    pub model: QuantizedModel,
    /// Trigger-set size `T` (shape only; the triggers stay private).
    pub num_triggers: usize,
    /// Signature length `N` (shape only; the bits stay private).
    pub signature_bits: usize,
    /// Maximum tolerated bit errors (`θ·N`, baked into the circuit).
    pub max_errors: u64,
    /// Whether the `1/T` average is folded into the projection matrix.
    pub fold_average: bool,
    /// The canonical fixed-point configuration (also applied to
    /// [`Self::model`] when decoding).
    pub cfg: FixedConfig,
}

const LAYER_DENSE: u8 = 0;
const LAYER_RELU: u8 = 1;
const LAYER_IDENTITY: u8 = 2;
const LAYER_MAXPOOL: u8 = 3;
const LAYER_CONV: u8 = 4;

fn write_layer_shape(layer: &QuantLayer, out: &mut Vec<u8>) {
    match layer {
        QuantLayer::Dense {
            in_dim, out_dim, ..
        } => {
            out.push(LAYER_DENSE);
            out.extend_from_slice(&(*in_dim as u64).to_le_bytes());
            out.extend_from_slice(&(*out_dim as u64).to_le_bytes());
        }
        QuantLayer::ReLU => out.push(LAYER_RELU),
        QuantLayer::Identity => out.push(LAYER_IDENTITY),
        QuantLayer::MaxPool {
            channels,
            height,
            width,
            size,
            stride,
        } => {
            out.push(LAYER_MAXPOOL);
            for d in [channels, height, width, size, stride] {
                out.extend_from_slice(&(*d as u64).to_le_bytes());
            }
        }
        QuantLayer::Conv { shape, .. } => {
            out.push(LAYER_CONV);
            for d in [
                shape.in_channels,
                shape.height,
                shape.width,
                shape.out_channels,
                shape.kernel,
                shape.stride,
            ] {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
        }
    }
}

impl OwnershipStatement {
    /// The circuit digest tying this statement to its keys and proofs:
    /// the setup-trace digest of the extraction circuit this statement
    /// describes (public data suffices — no witness is consulted).
    ///
    /// # Panics
    /// On a hand-built statement whose fields do not fit together — the
    /// gadgets assert their shape preconditions. Decoded statements are
    /// checked on the way in and never do.
    pub fn circuit_id(&self) -> CircuitId {
        CircuitId::of_circuit(&crate::circuit::ExtractionCircuit::from_statement(self))
    }

    /// SHA-256 over the full payload (shape *and* parameter values) — unlike
    /// the [`CircuitId`], this distinguishes two same-shaped models, so it
    /// keys per-statement caches such as prepared public-input vectors.
    pub fn content_digest(&self) -> [u8; 32] {
        let mut payload = Vec::with_capacity(self.payload_size());
        self.write_payload(&mut payload);
        sha256(&payload)
    }

    /// The verifier-side public input vector: model parameters followed by
    /// the expected verdict bit. Excludes the implicit leading constant.
    pub fn public_inputs(&self, expected_verdict: bool) -> Vec<Fr> {
        let mut out = self.model_inputs();
        out.push(Fr::from_i128(i128::from(expected_verdict)));
        out
    }

    /// The model-parameter prefix of the public input vector (everything but
    /// the verdict). Batch verification prepares this once per statement.
    pub fn model_inputs(&self) -> Vec<Fr> {
        self.model
            .params_in_order()
            .iter()
            .map(|&v| Fr::from_i128(v))
            .collect()
    }
}

impl Artifact for OwnershipStatement {
    const KIND: ArtifactKind = ArtifactKind::Statement;

    fn payload_size(&self) -> usize {
        let mut size = 3 * 4 + 1 + 8 + 8 + 8 + 8 + 8; // cfg, fold, θ, T, N, input_len, #layers
        for layer in &self.model.layers {
            size += 1; // tag
            size += match layer {
                QuantLayer::Dense { w, b, .. } => 2 * 8 + 16 * (w.len() + b.len()),
                QuantLayer::ReLU | QuantLayer::Identity => 0,
                QuantLayer::MaxPool { .. } => 5 * 8,
                QuantLayer::Conv { w, b, .. } => 6 * 8 + 16 * (w.len() + b.len()),
            };
        }
        size
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.cfg.frac_bits.to_le_bytes());
        out.extend_from_slice(&self.cfg.sigmoid_frac_bits.to_le_bytes());
        out.extend_from_slice(&self.cfg.int_bits.to_le_bytes());
        out.push(u8::from(self.fold_average));
        out.extend_from_slice(&self.max_errors.to_le_bytes());
        out.extend_from_slice(&(self.num_triggers as u64).to_le_bytes());
        out.extend_from_slice(&(self.signature_bits as u64).to_le_bytes());
        out.extend_from_slice(&(self.model.input_len as u64).to_le_bytes());
        out.extend_from_slice(&(self.model.layers.len() as u64).to_le_bytes());
        for layer in &self.model.layers {
            write_layer_shape(layer, out);
            match layer {
                QuantLayer::Dense { w, b, .. } | QuantLayer::Conv { w, b, .. } => {
                    write_i128s(w, out);
                    write_i128s(b, out);
                }
                QuantLayer::ReLU | QuantLayer::Identity | QuantLayer::MaxPool { .. } => {}
            }
        }
    }

    fn read_payload(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let cfg = FixedConfig {
            frac_bits: r.u32()?,
            sigmoid_frac_bits: r.u32()?,
            int_bits: r.u32()?,
        };
        let fold_average = r.bool()?;
        let max_errors = r.u64()?;
        let num_triggers = r.len()?;
        let signature_bits = r.len()?;
        let input_len = r.len()?;
        let num_layers = r.len()?;
        let mut layers = Vec::with_capacity(num_layers.min(payload.len() + 1));
        for _ in 0..num_layers {
            let layer = match r.u8()? {
                LAYER_DENSE => {
                    let in_dim = r.len()?;
                    let out_dim = r.len()?;
                    let n_w = in_dim
                        .checked_mul(out_dim)
                        .ok_or(WireError::Malformed("dense parameter count overflow"))?;
                    QuantLayer::Dense {
                        in_dim,
                        out_dim,
                        w: r.i128_vec(n_w)?,
                        b: r.i128_vec(out_dim)?,
                    }
                }
                LAYER_RELU => QuantLayer::ReLU,
                LAYER_IDENTITY => QuantLayer::Identity,
                LAYER_MAXPOOL => QuantLayer::MaxPool {
                    channels: r.len()?,
                    height: r.len()?,
                    width: r.len()?,
                    size: r.len()?,
                    stride: r.len()?,
                },
                LAYER_CONV => {
                    let shape = ConvShape {
                        in_channels: r.len()?,
                        height: r.len()?,
                        width: r.len()?,
                        out_channels: r.len()?,
                        kernel: r.len()?,
                        stride: r.len()?,
                    };
                    let n_w = shape
                        .in_channels
                        .checked_mul(shape.kernel)
                        .and_then(|n| n.checked_mul(shape.kernel))
                        .and_then(|n| n.checked_mul(shape.out_channels))
                        .ok_or(WireError::Malformed("conv parameter count overflow"))?;
                    QuantLayer::Conv {
                        shape,
                        w: r.i128_vec(n_w)?,
                        b: r.i128_vec(shape.out_channels)?,
                    }
                }
                _ => return Err(WireError::Malformed("unknown layer tag")),
            };
            layers.push(layer);
        }
        r.finish()?;
        let statement = Self {
            model: QuantizedModel {
                layers,
                input_len,
                cfg,
            },
            num_triggers,
            signature_bits,
            max_errors,
            fold_average,
            cfg,
        };
        // each field decoded on its own; a verifier's next step is to
        // synthesize the circuit they describe *together*, which panics
        // on shapes that do not fit — so that is checked here, where the
        // bytes enter
        crate::circuit::check_synthesizable(&statement).map_err(WireError::Malformed)?;
        Ok(statement)
    }
}

// ---------------------------------------------------------------------------
// Artifact impls for the Groth16 key material
// ---------------------------------------------------------------------------

impl Artifact for VerifyingKey {
    const KIND: ArtifactKind = ArtifactKind::VerifyingKey;

    fn payload_size(&self) -> usize {
        self.serialized_size()
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        self.write_bytes(out);
    }

    fn read_payload(payload: &[u8]) -> Result<Self, WireError> {
        VerifyingKey::from_bytes(payload).map_err(WireError::Key)
    }
}

impl Artifact for ProvingKey {
    const KIND: ArtifactKind = ArtifactKind::ProvingKey;

    fn payload_size(&self) -> usize {
        self.serialized_size()
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        self.write_bytes(out);
    }

    fn read_payload(payload: &[u8]) -> Result<Self, WireError> {
        ProvingKey::from_bytes(payload).map_err(WireError::Key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_sha256_matches_one_shot_for_any_chunking() {
        // regression: a partially-filled buffer must survive an update that
        // doesn't complete its block
        let data: Vec<u8> = (0..100_003u32).map(|i| (i * 31 % 251) as u8).collect();
        for sizes in [vec![1usize], vec![9, 64, 33, 1, 128, 5], vec![63, 63, 2]] {
            let mut st = Sha256::new();
            let mut off = 0;
            let mut k = 0;
            while off < data.len() {
                let n = sizes[k % sizes.len()].min(data.len() - off);
                st.update(&data[off..off + n]);
                off += n;
                k += 1;
            }
            assert_eq!(st.finalize(), sha256(&data), "chunking {sizes:?}");
        }
    }

    #[test]
    fn trace_hasher_is_domain_separated_and_deterministic() {
        let digest = |chunks: &[&[u8]]| {
            let mut h = TraceHasher::new();
            for c in chunks {
                h.absorb(c);
            }
            h.finalize()
        };
        assert_eq!(digest(&[b"ab", b"c"]), digest(&[b"a", b"bc"]));
        // the domain tag separates the trace digest from a plain hash
        let mut tagged = Vec::from(TRACE_DOMAIN_TAG);
        tagged.extend_from_slice(b"abc");
        assert_eq!(digest(&[b"abc"]), sha256(&tagged));
        assert_ne!(digest(&[b"abc"]), sha256(b"abc"));
    }

    fn tiny_statement() -> OwnershipStatement {
        let cfg = FixedConfig::default();
        OwnershipStatement {
            model: QuantizedModel {
                layers: vec![QuantLayer::Dense {
                    in_dim: 2,
                    out_dim: 2,
                    w: vec![1, 2, 3, 4],
                    b: vec![0, 0],
                }],
                input_len: 2,
                cfg,
            },
            num_triggers: 1,
            signature_bits: 4,
            max_errors: 1,
            fold_average: false,
            cfg,
        }
    }

    #[test]
    fn hostile_vector_lengths_fail_before_allocating() {
        // A statement whose in-payload length fields are inflated far past
        // the actual buffer must be rejected by a bounds check, not by an
        // attempted multi-GB allocation. The envelope checksum would catch
        // the edit too, so splice the length *and* recompute the checksum —
        // the decoder then has nothing but its own validation between a
        // hostile count and `Vec::with_capacity`.
        let bytes = Artifact::to_bytes(&tiny_statement());
        let good: OwnershipStatement = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(good, tiny_statement());
        let n = bytes.len();
        for off in HEADER_LEN..n - CHECKSUM_LEN - 8 {
            // stamp a huge u64 at every payload offset; whichever ones land
            // on length fields now declare ~2^62 elements. A decoder that
            // sizes a Vec from the declared count would ask the allocator
            // for exabytes and abort the process — completing (with either
            // verdict) is the pass condition. Offsets landing on value
            // fields (weights, max_errors) may legally decode.
            let mut evil = bytes.clone();
            evil[off..off + 8].copy_from_slice(&(u64::MAX / 4).to_le_bytes());
            let body_len = n - CHECKSUM_LEN;
            let sum = sha256(&evil[..body_len]);
            evil[body_len..].copy_from_slice(&sum[..CHECKSUM_LEN]);
            let _ = <OwnershipStatement as Artifact>::from_bytes(&evil);
        }
        // and the layer-count field specifically (fixed payload offset:
        // cfg 12 ‖ fold 1 ‖ θ 8 ‖ T 8 ‖ N 8 ‖ input_len 8) must be
        // rejected outright
        let mut evil = bytes.clone();
        let layer_count_off = HEADER_LEN + 12 + 1 + 8 + 8 + 8 + 8;
        assert_eq!(
            evil[layer_count_off..layer_count_off + 8],
            1u64.to_le_bytes(),
            "single-layer statement encodes a layer count of 1"
        );
        evil[layer_count_off..layer_count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = n - CHECKSUM_LEN;
        let sum = sha256(&evil[..body_len]);
        evil[body_len..].copy_from_slice(&sum[..CHECKSUM_LEN]);
        assert!(<OwnershipStatement as Artifact>::from_bytes(&evil).is_err());
    }

    #[test]
    fn declared_payload_length_is_validated_against_the_buffer() {
        let bytes = Artifact::to_bytes(&tiny_statement());
        // inflate the envelope's own payload-length field without supplying
        // the bytes: must be a LengthMismatch, never an allocation
        let mut evil = bytes.clone();
        evil[7..15].copy_from_slice(&(u64::MAX - 16).to_le_bytes());
        assert!(matches!(
            <OwnershipStatement as Artifact>::from_bytes(&evil),
            Err(WireError::Malformed(_)) | Err(WireError::LengthMismatch { .. })
        ));
        // truncating the buffer mid-payload must also be caught up front
        for keep in [0, 4, HEADER_LEN, bytes.len() - 1] {
            assert!(<OwnershipStatement as Artifact>::from_bytes(&bytes[..keep]).is_err());
        }
    }
}
