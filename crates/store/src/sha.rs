//! SHA-256 — the content digest behind segment checksums, `CircuitId`s and
//! the artifact envelope checksum.
//!
//! This implementation lives here (rather than in `zkrownn`, which
//! re-exports it) because the store sits *below* the core crate in the
//! dependency graph: every byte a [`crate::StoreWriter`] emits is hashed
//! into a per-segment checksum as it streams past, and the reader side
//! re-derives those digests without ever buffering a segment.
//!
//! # Two kernels, one function
//!
//! The compression function exists twice and computes the same thing:
//!
//! * a **portable** scalar kernel — the only one on every target other
//!   than x86-64 and in every `no_std` build (the wasm verifier included),
//!   and the reference the tests hold the other kernel to;
//! * an **x86-64 SHA-extensions** kernel (`sha256rnds2` / `sha256msg1` /
//!   `sha256msg2`), five to six times faster, used when — and only when —
//!   the CPU reports the extension.
//!
//! Nobody picks: there is no feature, flag or environment variable. The
//! first hash of a process asks CPUID once (`is_x86_feature_detected!`,
//! cached in an atomic, exactly as `zkrownn_ff`'s `adx` multiply kernel
//! does it) and every later call pays one predictable load. Both kernels
//! take a *run* of whole 64-byte blocks, so [`Sha256::update`] hands over
//! everything it has in one call and the state is loaded into registers
//! once per call rather than once per block.
//!
//! The digest is a pure function of the message either way: every
//! `CircuitId`, `.zkst` checksum and envelope checksum is bit-identical
//! whichever kernel ran, and a store written on one machine opens on any
//! other.

#[rustfmt::skip]
const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA256_H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The portable compression function over a run of whole blocks
/// (`blocks.len()` is a multiple of 64).
fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "compress takes whole blocks");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-extensions kernel and the CPUID probe that guards it
/// (`std` only — feature detection needs the standard library). All the
/// `unsafe` in this file is in this module, and the one function it
/// exports is safe: it runs the kernel only after the probe said yes.
#[cfg(all(feature = "std", target_arch = "x86_64"))]
mod shani {
    use super::SHA256_K;
    use core::arch::x86_64::*;
    use core::sync::atomic::{AtomicU8, Ordering};

    static STATE: AtomicU8 = AtomicU8::new(0);

    /// One-time CPUID probe for the SHA extensions and the SSE levels the
    /// kernel's shuffles need, cached in a relaxed atomic so every later
    /// call pays one predictable load.
    #[inline]
    pub(super) fn available() -> bool {
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let ok = std::is_x86_feature_detected!("sha")
                    && std::is_x86_feature_detected!("sse2")
                    && std::is_x86_feature_detected!("ssse3")
                    && std::is_x86_feature_detected!("sse4.1");
                STATE.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
                ok
            }
        }
    }

    /// Compresses `blocks` into `h` with the hardware kernel if this CPU
    /// has one; returns `false`, having done nothing, if it does not.
    #[inline]
    pub(super) fn compress(h: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just returned true, i.e. CPUID reports
        // sha, sse2, ssse3 and sse4.1 — the features `compress_blocks` is
        // compiled for and its only requirement.
        unsafe { compress_blocks(h, blocks) };
        true
    }

    /// The compression function over a run of whole blocks; a trailing
    /// partial block is ignored. The working state lives in two registers
    /// in the `ABEF` / `CDGH` lane order `sha256rnds2` wants, and is
    /// shuffled out of and back into `h`'s word order once per call.
    ///
    /// # Safety
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// features (gate on [`available`]). Nothing else: every load and
    /// store is the unaligned form and stays inside `h`, `SHA256_K` or a
    /// 64-byte chunk of `blocks`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
        // big-endian message words -> little-endian lanes
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `h` is 32 readable bytes; `loadu` needs no alignment.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(h.as_ptr().cast()),
                _mm_loadu_si128(h.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is exactly 64 readable bytes, so the four
            // 16-byte unaligned loads at offsets 0, 16, 32 and 48 are in
            // bounds.
            let (mut w0, mut w1, mut w2, mut w3) = unsafe {
                let p: *const __m128i = block.as_ptr().cast();
                (
                    _mm_shuffle_epi8(_mm_loadu_si128(p), byte_swap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), byte_swap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), byte_swap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), byte_swap),
                )
            };
            // four rounds over the message words in `$w`, constants from
            // `SHA256_K[$k..$k + 4]`
            macro_rules! rounds4 {
                ($w:expr, $k:expr) => {{
                    // SAFETY: `$k + 4 <= 64`, so the unaligned 16-byte
                    // load stays inside `SHA256_K`.
                    let k = unsafe { _mm_loadu_si128(SHA256_K.as_ptr().add($k).cast()) };
                    let wk = _mm_add_epi32($w, k);
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                }};
            }
            // the next four schedule words, written over the oldest four:
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
            macro_rules! schedule {
                ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {{
                    let t = _mm_sha256msg1_epu32($w0, $w1);
                    let t = _mm_add_epi32(t, _mm_alignr_epi8($w3, $w2, 4));
                    $w0 = _mm_sha256msg2_epu32(t, $w3);
                }};
            }
            rounds4!(w0, 0);
            rounds4!(w1, 4);
            rounds4!(w2, 8);
            rounds4!(w3, 12);
            schedule!(w0, w1, w2, w3);
            rounds4!(w0, 16);
            schedule!(w1, w2, w3, w0);
            rounds4!(w1, 20);
            schedule!(w2, w3, w0, w1);
            rounds4!(w2, 24);
            schedule!(w3, w0, w1, w2);
            rounds4!(w3, 28);
            schedule!(w0, w1, w2, w3);
            rounds4!(w0, 32);
            schedule!(w1, w2, w3, w0);
            rounds4!(w1, 36);
            schedule!(w2, w3, w0, w1);
            rounds4!(w2, 40);
            schedule!(w3, w0, w1, w2);
            rounds4!(w3, 44);
            schedule!(w0, w1, w2, w3);
            rounds4!(w0, 48);
            schedule!(w1, w2, w3, w0);
            rounds4!(w1, 52);
            schedule!(w2, w3, w0, w1);
            rounds4!(w2, 56);
            schedule!(w3, w0, w1, w2);
            rounds4!(w3, 60);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `h` is 32 writable bytes; `storeu` needs no alignment.
        unsafe {
            _mm_storeu_si128(h.as_mut_ptr().cast(), dcba);
            _mm_storeu_si128(h.as_mut_ptr().add(4).cast(), hgfe);
        }
    }
}

/// The compression function over a run of whole blocks, on whichever
/// kernel this CPU has (see the module docs).
#[inline]
fn compress(h: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(all(feature = "std", target_arch = "x86_64"))]
    if shani::compress(h, blocks) {
        return;
    }
    compress_portable(h, blocks);
}

/// Incremental SHA-256 state: absorb any number of `update`s, then
/// `finalize`. Backs the one-shot [`sha256`] helper, the store's streaming
/// segment checksums, and — via the core crate's `TraceHasher` — the
/// streaming digest of setup-mode synthesis traces, which for a CNN-scale
/// circuit would be far too large to buffer.
#[derive(Clone)]
pub struct Sha256 {
    h: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hash state.
    pub fn new() -> Self {
        Self {
            h: SHA256_H0,
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorbs the next chunk of the message. Every whole block `data`
    /// completes or contains goes to the compression kernel in one call.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return; // data exhausted without completing the block
            }
            compress(&mut self.h, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rem) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.h, blocks);
        }
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Pads and returns the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let tail_len = if self.buf_len < 56 { 64 } else { 128 };
        let bit_len = self.total.wrapping_mul(8);
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.h, &tail[..tail_len]);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// The first 8 digest bytes — the store's segment/table checksum width
    /// (the same truncation the artifact envelope uses).
    pub fn finalize_truncated(self) -> [u8; 8] {
        let full = self.finalize();
        full[..8].try_into().unwrap()
    }
}

/// SHA-256 of `data` — the content digest used for `CircuitId`s, statement
/// digests, segment checksums and the artifact envelope checksum.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state = Sha256::new();
    state.update(data);
    state.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: [u8; 32]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// SHA-256 with the padding written out longhand and the *portable*
    /// kernel called by name: the reference [`sha256`] (whichever kernel
    /// the dispatch picked, through `Sha256`'s own tail logic) is held to.
    fn portable_sha256(data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = SHA256_H0;
        compress_portable(&mut h, &padded);
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Which kernel [`compress`] dispatches to on this build and CPU.
    fn dispatched_kernel() -> &'static str {
        #[cfg(all(feature = "std", target_arch = "x86_64"))]
        if shani::available() {
            return "x86-64 SHA extensions";
        }
        "portable"
    }

    /// Both kernels, each on its own: every vector below goes through
    /// the dispatched path and through the portable function by name.
    fn both(data: &[u8]) -> String {
        let digest = hex(sha256(data));
        assert_eq!(digest, hex(portable_sha256(data)), "kernels disagree");
        digest
    }

    // FIPS 180-4 / NIST CAVP example vectors
    #[test]
    fn known_vectors() {
        assert_eq!(
            both(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            both(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            both(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            both(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            ),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
        assert_eq!(
            both(&vec![b'a'; 1_000_000]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Every length at which the padding changes shape: 55 is the last
    /// that fits the length field in the same block, 56–63 spill into a
    /// second, 64 is a whole block plus a pure padding block, and the same
    /// again one block up. Digests of `(7i + 3) mod 256` computed with an
    /// independent implementation (Python's `hashlib`).
    #[test]
    fn padding_edges() {
        let expected = [
            (
                55,
                "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b",
            ),
            (
                56,
                "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27",
            ),
            (
                57,
                "35df609437dcfea3279283ab79fd554e2bf78f8f7ae2de532d8ee300b09e8f73",
            ),
            (
                63,
                "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055",
            ),
            (
                64,
                "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241",
            ),
            (
                65,
                "aacca6ff74fdbb296d165a45cecfa04e5127bc008770fbbdd48006f2d2fae95e",
            ),
            (
                119,
                "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e",
            ),
            (
                120,
                "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5",
            ),
            (
                127,
                "a8d23e75d936f303d248888d9b165ee543f4cbafcad3c9dd2a79bd84faa11d07",
            ),
            (
                128,
                "d2742f1f4ac6bb7ca2b239ee18402ba8b3f9f8e652d2a72973c2b9ba11c08cf6",
            ),
        ];
        for (len, digest) in expected {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            assert_eq!(both(&data), digest, "length {len}");
            // and a byte at a time, so the tail is assembled in `buf`
            let mut state = Sha256::new();
            data.iter().for_each(|b| state.update(&[*b]));
            assert_eq!(hex(state.finalize()), digest, "length {len}, bytewise");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        for split in [0usize, 1, 63, 64, 65, 1000, 3999] {
            let mut s = Sha256::new();
            s.update(&data[..split.min(data.len())]);
            s.update(&data[split.min(data.len())..]);
            assert_eq!(s.finalize(), sha256(&data), "split at {split}");
        }
    }

    /// The dispatched kernel against the portable one: random lengths
    /// 0–4096 starting at every offset 0–15 of a buffer (the hardware
    /// kernel's loads are unaligned — this is where a wrong one would
    /// show), one-shot and under random `update` splits.
    #[test]
    fn dispatched_kernel_matches_portable() {
        let kernel = dispatched_kernel();
        if kernel == "portable" {
            // not a silent pass: this run compared the portable kernel
            // with itself and checked only `Sha256`'s block bookkeeping
            println!("NOTE: no SHA extensions on this CPU/build — portable vs portable");
        } else {
            println!("dispatched kernel: {kernel}");
        }
        // xorshift64*, fixed seed: dependency-free and reproducible
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let buffer: Vec<u8> = (0..4096 + 16).map(|_| next() as u8).collect();
        for round in 0..24 {
            for offset in 0..16 {
                let len = match round {
                    0 => 0,
                    1 => 4096,
                    _ => next() as usize % 4097,
                };
                let data = &buffer[offset..offset + len];
                let expected = portable_sha256(data);
                assert_eq!(
                    sha256(data),
                    expected,
                    "{kernel}: len {len} at offset {offset}"
                );
                let mut state = Sha256::new();
                let mut rest = data;
                while !rest.is_empty() {
                    let cut = (next() as usize % 200).min(rest.len());
                    state.update(&rest[..cut]);
                    rest = &rest[cut..];
                }
                assert_eq!(
                    state.finalize(),
                    expected,
                    "{kernel}: len {len} at offset {offset}, split updates"
                );
            }
        }
    }
}
