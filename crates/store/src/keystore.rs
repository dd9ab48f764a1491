//! The proving-key layout over the `.zkst` container: one segment per
//! [`KeyFamily`], a constants segment for the six fixed key elements, and
//! an optional metadata segment binding the key to a circuit and
//! statement.
//!
//! Points are stored **uncompressed** (64 B G1, 128 B G2) — the same
//! encoding the in-memory `ProvingKey` wire format uses — so the streaming
//! prover's decode is two canonical field reads per point, with integrity
//! delegated to the per-segment checksums rather than per-point subgroup
//! checks.

use crate::format::{StoreError, StoreFile, StoreWriter};
use crate::map::StoreBackend;
use crate::sha::Sha256;
use std::io;
use std::path::Path;
use zkrownn_curves::serialize::{
    read_uncompressed, read_uncompressed_unvalidated, uncompressed_size, write_uncompressed,
};
use zkrownn_curves::{Affine, G1Affine, G1Config, G2Affine, G2Config, MemoryBudget, SwCurveConfig};
use zkrownn_groth16::setup::{KeyConstants, KeyFamily, KeySink};
use zkrownn_groth16::{KeySource, ProvingKey, VerifyingKey};

/// Segment kind tags of the key-store layout (a 32-bit namespace owned by
/// this crate, independent of the envelope's artifact-kind byte).
pub mod segment_kind {
    /// The six fixed key elements (`α,β,δ` in G1; `β,γ,δ` in G2), 576 B.
    pub const CONSTANTS: u32 = 1;
    /// `gamma_abc_g1` (IC) — the verifying key's commitment points.
    pub const IC: u32 = 2;
    /// `a_query`.
    pub const A_QUERY: u32 = 3;
    /// `b_g1_query`.
    pub const B_G1_QUERY: u32 = 4;
    /// `b_g2_query` (the only G2 segment, 128 B/point).
    pub const B_G2_QUERY: u32 = 5;
    /// `h_query`.
    pub const H_QUERY: u32 = 6;
    /// `l_query`.
    pub const L_QUERY: u32 = 7;
    /// Circuit binding: 32-byte circuit id ‖ 32-byte statement digest.
    pub const META: u32 = 8;
}

/// Maps a keygen family to its segment kind tag.
pub fn family_kind(family: KeyFamily) -> u32 {
    match family {
        KeyFamily::Ic => segment_kind::IC,
        KeyFamily::AQuery => segment_kind::A_QUERY,
        KeyFamily::BG1Query => segment_kind::B_G1_QUERY,
        KeyFamily::BG2Query => segment_kind::B_G2_QUERY,
        KeyFamily::HQuery => segment_kind::H_QUERY,
        KeyFamily::LQuery => segment_kind::L_QUERY,
    }
}

/// The circuit binding carried in the [`segment_kind::META`] segment, so a
/// registry can register a store-backed key without synthesizing anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// The circuit's synthesis-trace digest (`CircuitId` bytes).
    pub circuit_id: [u8; 32],
    /// The ownership statement's content digest.
    pub statement_digest: [u8; 32],
}

/// A [`KeySink`] that writes keygen output straight into a `.zkst`
/// container — memory-budgeted trusted setup.
///
/// Order of operations: construct, hand to `ProverContext::generate_into`,
/// then call [`Self::finish`].
pub struct KeyStoreWriter {
    inner: StoreWriter,
    meta: Option<StoreMeta>,
    buf: Vec<u8>,
}

impl KeyStoreWriter {
    /// Creates (truncating) a store at `path`; `meta` is written as the
    /// final segment if present.
    pub fn create(path: &Path, meta: Option<StoreMeta>) -> io::Result<Self> {
        Ok(Self {
            inner: StoreWriter::create(path)?,
            meta,
            buf: Vec::new(),
        })
    }

    fn write_points<C: SwCurveConfig>(&mut self, points: &[Affine<C>]) -> io::Result<()> {
        self.buf.clear();
        self.buf.reserve(points.len() * uncompressed_size::<C>());
        for p in points {
            write_uncompressed(p, &mut self.buf);
        }
        let buf = std::mem::take(&mut self.buf);
        let r = self.inner.write(&buf);
        self.buf = buf;
        r
    }

    /// One whole family from memory, serialized a bounded chunk at a time.
    fn write_family<C: SwCurveConfig>(
        &mut self,
        family: KeyFamily,
        points: &[Affine<C>],
    ) -> io::Result<()> {
        self.begin_family(family, points.len())?;
        for chunk in points.chunks(4096) {
            self.write_points(chunk)?;
        }
        self.end_family(family)
    }

    /// Writes the metadata segment (if any), the table and the footer.
    pub fn finish(mut self) -> io::Result<()> {
        if let Some(meta) = self.meta {
            self.inner.begin_segment(segment_kind::META, 1);
            self.inner.write(&meta.circuit_id)?;
            self.inner.write(&meta.statement_digest)?;
            self.inner.end_segment();
        }
        self.inner.finish()
    }
}

impl KeySink for KeyStoreWriter {
    type Error = io::Error;

    fn constants(&mut self, constants: &KeyConstants) -> Result<(), io::Error> {
        self.inner.begin_segment(segment_kind::CONSTANTS, 6);
        self.write_points(&[constants.alpha_g1, constants.beta_g1, constants.delta_g1])?;
        self.write_points(&[constants.beta_g2, constants.gamma_g2, constants.delta_g2])?;
        self.inner.end_segment();
        Ok(())
    }

    fn begin_family(&mut self, family: KeyFamily, len: usize) -> Result<(), io::Error> {
        self.inner.begin_segment(family_kind(family), len as u64);
        Ok(())
    }

    fn g1_chunk(&mut self, points: &[G1Affine]) -> Result<(), io::Error> {
        self.write_points(points)
    }

    fn g2_chunk(&mut self, points: &[G2Affine]) -> Result<(), io::Error> {
        self.write_points(points)
    }

    fn end_family(&mut self, _family: KeyFamily) -> Result<(), io::Error> {
        self.inner.end_segment();
        Ok(())
    }
}

/// Writes an already-materialized [`ProvingKey`] into a store at `path` —
/// the migration path for keys collected in memory (and the byte-identity
/// oracle for keygen straight into a store in tests).
pub fn write_proving_key(path: &Path, pk: &ProvingKey, meta: Option<StoreMeta>) -> io::Result<()> {
    let mut w = KeyStoreWriter::create(path, meta)?;
    let Ok(constants) = KeySource::constants(pk);
    w.constants(&constants)?;
    // in `KeyFamily::ALL` order, as keygen would emit them
    w.write_family(KeyFamily::Ic, &pk.vk.gamma_abc_g1)?;
    w.write_family(KeyFamily::AQuery, &pk.a_query)?;
    w.write_family(KeyFamily::BG1Query, &pk.b_g1_query)?;
    w.write_family(KeyFamily::BG2Query, &pk.b_g2_query)?;
    w.write_family(KeyFamily::HQuery, &pk.h_query)?;
    w.write_family(KeyFamily::LQuery, &pk.l_query)?;
    w.finish()
}

/// An open store-backed proving key: lazy, segment-at-a-time access to the
/// key families, plus eager access to the small pieces (constants,
/// verifying key, metadata).
pub struct KeyStore {
    file: StoreFile,
}

impl KeyStore {
    /// Opens `path` with the default backend (mmap where available).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::open_with(path, StoreBackend::Auto)
    }

    /// Opens `path` with an explicit read backend. Use
    /// [`StoreBackend::Buffered`] when address space is capped — a mapping
    /// of the whole key file counts against `ulimit -v`.
    pub fn open_with(path: &Path, backend: StoreBackend) -> Result<Self, StoreError> {
        Self::from_store_file(StoreFile::open_with(path, backend)?)
    }

    /// Wraps an already-open container as a key store, validating that the
    /// required segments are all present — the entry point for stores
    /// opened through [`StoreFile::open_reader`] (fault harnesses, tests).
    pub fn from_store_file(file: StoreFile) -> Result<Self, StoreError> {
        // a key store must at least carry its constants and all six
        // families; shape errors surface at open, not mid-proof
        file.require(segment_kind::CONSTANTS)?;
        for family in KeyFamily::ALL {
            file.require(family_kind(family))?;
        }
        Ok(Self { file })
    }

    /// The underlying container (segment table, integrity verification).
    pub fn file(&self) -> &StoreFile {
        &self.file
    }

    /// Number of segments in the store.
    pub fn segment_count(&self) -> usize {
        self.file.segments().len()
    }

    /// The circuit binding, if the store carries one.
    pub fn meta(&self) -> Result<Option<StoreMeta>, StoreError> {
        let Some(entry) = self.file.segment(segment_kind::META) else {
            return Ok(None);
        };
        let bytes = self.file.read_segment(entry)?;
        if bytes.len() != 64 {
            return Err(StoreError::Malformed("meta segment must be 64 bytes"));
        }
        Ok(Some(StoreMeta {
            circuit_id: bytes[..32].try_into().unwrap(),
            statement_digest: bytes[32..].try_into().unwrap(),
        }))
    }

    /// The six fixed key elements, fully validated (on-curve + subgroup).
    pub fn constants(&self) -> Result<KeyConstants, StoreError> {
        let entry = *self.file.require(segment_kind::CONSTANTS)?;
        let bytes = self.file.read_segment(&entry)?;
        let g1 = uncompressed_size::<G1Config>();
        let g2 = uncompressed_size::<G2Config>();
        if bytes.len() != 3 * g1 + 3 * g2 {
            return Err(StoreError::Malformed("constants segment has wrong length"));
        }
        let point_g1 = |i: usize| {
            read_uncompressed::<G1Config>(&bytes[i * g1..(i + 1) * g1]).map_err(|source| {
                StoreError::Point {
                    kind: segment_kind::CONSTANTS,
                    index: i as u64,
                    source,
                }
            })
        };
        let point_g2 = |i: usize| {
            let start = 3 * g1 + i * g2;
            read_uncompressed::<G2Config>(&bytes[start..start + g2]).map_err(|source| {
                StoreError::Point {
                    kind: segment_kind::CONSTANTS,
                    index: 3 + i as u64,
                    source,
                }
            })
        };
        Ok(KeyConstants {
            alpha_g1: point_g1(0)?,
            beta_g1: point_g1(1)?,
            delta_g1: point_g1(2)?,
            beta_g2: point_g2(0)?,
            gamma_g2: point_g2(1)?,
            delta_g2: point_g2(2)?,
        })
    }

    /// Reconstructs the (small) verifying key with full point validation —
    /// what a registry registers when loading `.zkst` key files.
    pub fn verifying_key(&self) -> Result<VerifyingKey, StoreError> {
        let gamma_abc_g1 = self.read_family_validated::<G1Config>(segment_kind::IC)?;
        Ok(self.constants()?.verifying_key(gamma_abc_g1))
    }

    /// Fully materializes the proving key (tests and migration tooling;
    /// decode is checksum-protected but skips per-point subgroup checks,
    /// exactly like the streaming prover).
    pub fn load_proving_key(&self) -> Result<ProvingKey, StoreError> {
        let constants = self.constants()?;
        Ok(ProvingKey {
            vk: constants.verifying_key(self.read_family::<G1Config>(segment_kind::IC)?),
            beta_g1: constants.beta_g1,
            delta_g1: constants.delta_g1,
            a_query: self.read_family::<G1Config>(segment_kind::A_QUERY)?,
            b_g1_query: self.read_family::<G1Config>(segment_kind::B_G1_QUERY)?,
            b_g2_query: self.read_family::<G2Config>(segment_kind::B_G2_QUERY)?,
            h_query: self.read_family::<G1Config>(segment_kind::H_QUERY)?,
            l_query: self.read_family::<G1Config>(segment_kind::L_QUERY)?,
        })
    }

    /// Streams one family segment through `consume` in budget-sized,
    /// checksum-verified chunks of decoded points.
    ///
    /// Points are decoded without per-point curve checks — the segment
    /// checksum, verified over exactly the bytes that were decoded and
    /// *before* this function returns success, is the integrity boundary.
    /// `consume` receives `(start_index, points)` in index order. Note the
    /// checksum verdict arrives only at the end: callers must treat
    /// consumed chunks as tentative until this function returns `Ok`.
    pub fn stream_family<C: SwCurveConfig>(
        &self,
        kind: u32,
        budget: MemoryBudget,
        mut consume: impl FnMut(u64, &[Affine<C>]),
    ) -> Result<(), StoreError> {
        let entry = *self.file.require(kind)?;
        let elem = uncompressed_size::<C>();
        if entry.count.checked_mul(elem as u64) != Some(entry.len) {
            return Err(StoreError::Malformed("family length disagrees with count"));
        }
        let chunk_elems = budget.chunk_len(elem);
        let mut scratch = Vec::new();
        let mut points: Vec<Affine<C>> = Vec::new();
        let mut hasher = Sha256::new();
        let mut index = 0u64;
        while index < entry.count {
            let take = ((entry.count - index) as usize).min(chunk_elems);
            let bytes = self.file.chunk(
                entry.offset + index * elem as u64,
                take * elem,
                &mut scratch,
            )?;
            hasher.update(bytes);
            points.clear();
            for (i, raw) in bytes.chunks_exact(elem).enumerate() {
                let p = read_uncompressed_unvalidated::<C>(raw).map_err(|source| {
                    StoreError::Point {
                        kind,
                        index: index + i as u64,
                        source,
                    }
                })?;
                points.push(p);
            }
            consume(index, &points);
            index += take as u64;
        }
        if hasher.finalize_truncated() != entry.checksum {
            return Err(StoreError::SegmentChecksumMismatch { kind });
        }
        Ok(())
    }

    /// Materializes a family with the checksum-protected fast decode.
    fn read_family<C: SwCurveConfig>(&self, kind: u32) -> Result<Vec<Affine<C>>, StoreError> {
        let entry = self.file.require(kind)?;
        // bound the preallocation by what the file can actually hold
        let cap = (entry.count as usize).min(self.file.file_len() as usize / 64 + 1);
        let mut out = Vec::with_capacity(cap);
        self.stream_family::<C>(kind, MemoryBudget::from_mb(16), |_, pts| {
            out.extend_from_slice(pts)
        })?;
        Ok(out)
    }

    /// Materializes a family with full per-point validation (on-curve +
    /// subgroup) — only used for the small IC segment.
    fn read_family_validated<C: SwCurveConfig>(
        &self,
        kind: u32,
    ) -> Result<Vec<Affine<C>>, StoreError> {
        let entry = *self.file.require(kind)?;
        let bytes = self.file.read_segment(&entry)?;
        let elem = uncompressed_size::<C>();
        if bytes.len() != entry.count as usize * elem {
            return Err(StoreError::Malformed("family length disagrees with count"));
        }
        let mut out = Vec::with_capacity(entry.count as usize);
        for (i, raw) in bytes.chunks_exact(elem).enumerate() {
            out.push(
                read_uncompressed::<C>(raw).map_err(|source| StoreError::Point {
                    kind,
                    index: i as u64,
                    source,
                })?,
            );
        }
        Ok(out)
    }
}
