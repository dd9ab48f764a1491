//! Pluggable Montgomery-multiplication backends for [`Fp`](crate::fp::Fp).
//!
//! Every MSM bucket add, FFT butterfly and Miller-loop line evaluation
//! bottoms out in one `mul_reduce`, so this is the single hottest
//! instruction sequence in the workspace. Two implementations are provided:
//!
//! * [`SchoolbookBackend`] — the loop-structured 256×256→512 schoolbook
//!   product followed by a separate 4-round Montgomery reduction. This is
//!   the portable reference: `const`-friendly, obviously correct, and what
//!   every byte-pinned test in the workspace was validated against.
//! * [`UnrolledBackend`] — a fully unrolled CIOS (coarsely integrated
//!   operand scanning) multiply using the "no-carry" optimisation available
//!   whenever the modulus leaves a spare bit in its top limb (both BN254
//!   moduli do). Interleaving the reduction into the product shortens the
//!   critical dependency chain from ~8 rounds (4 product + 4 reduction) to
//!   4, which is what matters in the latency-bound chains (`x ← x·y`)
//!   that dominate exponentiation, inversion and the Miller loop.
//!
//! [`Fp`](crate::fp::Fp) always compiles against [`UnrolledBackend`]
//! ([`ActiveBackend`]); there is no build-time selector. Both backends are
//! always compiled and exported, so the reference kernel is exercised by
//! name: `tests/backend_equivalence.rs` pins the two bit-identical under
//! proptest, `tests/mul_throughput.rs` gates the speed-up, and the
//! `field-backend` ablation group in `zkrownn-bench` measures the gap.

use crate::bigint::{adc, mac, BigInt256};
use crate::fp::FpParams;

/// A Montgomery-form multiplication kernel for 4-limb prime fields.
///
/// Implementations must return fully reduced representatives in
/// `[0, MODULUS)`; since the Montgomery representative of a residue class
/// is unique once reduced, conforming backends are automatically
/// bit-identical.
pub trait FieldBackend: 'static + Copy + Send + Sync {
    /// Human-readable backend name, used by bench labels.
    const NAME: &'static str;

    /// Montgomery product `a · b · R⁻¹ mod p` of two Montgomery-form inputs.
    fn mul_reduce<P: FpParams>(a: &BigInt256, b: &BigInt256) -> BigInt256;

    /// Montgomery square `a² · R⁻¹ mod p`.
    fn square_reduce<P: FpParams>(a: &BigInt256) -> BigInt256;

    /// Montgomery reduction `t · R⁻¹ mod p` of a full 512-bit value
    /// (`t < p · R`). Used by the canonical-form conversions.
    fn reduce_wide<P: FpParams>(t: [u64; 8]) -> BigInt256;
}

/// Shared 4-round Montgomery reduction of a 512-bit product.
#[inline]
fn mont_reduce_wide<P: FpParams>(mut t: [u64; 8]) -> BigInt256 {
    let m = P::MODULUS.0;
    let mut carry2 = 0u64;
    for i in 0..4 {
        let k = t[i].wrapping_mul(P::INV);
        let (_, mut carry) = mac(t[i], k, m[0], 0);
        for j in 1..4 {
            let (lo, hi) = mac(t[i + j], k, m[j], carry);
            t[i + j] = lo;
            carry = hi;
        }
        let (lo, c) = adc(t[i + 4], carry, carry2);
        t[i + 4] = lo;
        carry2 = c;
    }
    debug_assert_eq!(carry2, 0, "montgomery reduction overflow");
    BigInt256([t[4], t[5], t[6], t[7]]).csub(0, &P::MODULUS)
}

/// The loop-structured schoolbook-then-reduce reference backend.
///
/// This is byte-for-byte the arithmetic the workspace shipped with before
/// the backend split: a full 512-bit schoolbook product (`mul_wide` /
/// `square_wide`) followed by the shared 4-round Montgomery reduction. Interleaved (CIOS)
/// multiplication *without* the no-carry trick was tried here historically
/// and measured slower — the per-iteration `k` dependency serializes what
/// the wide product pipelines freely; the no-carry variant in
/// [`UnrolledBackend`] removes exactly that serialization cost.
#[derive(Copy, Clone, Debug)]
pub struct SchoolbookBackend;

impl FieldBackend for SchoolbookBackend {
    const NAME: &'static str = "schoolbook";

    #[inline]
    fn mul_reduce<P: FpParams>(a: &BigInt256, b: &BigInt256) -> BigInt256 {
        mont_reduce_wide::<P>(a.mul_wide(b))
    }

    #[inline]
    fn square_reduce<P: FpParams>(a: &BigInt256) -> BigInt256 {
        mont_reduce_wide::<P>(a.square_wide())
    }

    #[inline]
    fn reduce_wide<P: FpParams>(t: [u64; 8]) -> BigInt256 {
        mont_reduce_wide::<P>(t)
    }
}

/// Returns true when the no-carry CIOS optimisation is sound for `m`:
/// the top limb must leave headroom so the per-round `carry + carry2`
/// fold-in cannot overflow 64 bits (the gnark/arkworks condition).
const fn no_carry_ok(m: &BigInt256) -> bool {
    m.0[3] >> 63 == 0
        && !(m.0[3] == 0x7fff_ffff_ffff_ffff
            && m.0[2] == u64::MAX
            && m.0[1] == u64::MAX
            && m.0[0] == u64::MAX)
}

/// One fully inlined CIOS round: fold `a_i · b` into `t` and divide by
/// 2⁶⁴ via one Montgomery step, without materialising a fifth limb.
#[inline(always)]
fn cios_round(t: [u64; 4], a_i: u64, b: &[u64; 4], m: &[u64; 4], inv: u64) -> [u64; 4] {
    let (t0, c) = mac(t[0], a_i, b[0], 0);
    let k = t0.wrapping_mul(inv);
    let (_, c2) = mac(t0, k, m[0], 0);

    let (t1, c) = mac(t[1], a_i, b[1], c);
    let (r0, c2) = mac(t1, k, m[1], c2);

    let (t2, c) = mac(t[2], a_i, b[2], c);
    let (r1, c2) = mac(t2, k, m[2], c2);

    let (t3, c) = mac(t[3], a_i, b[3], c);
    let (r2, c2) = mac(t3, k, m[3], c2);

    // No-carry condition guarantees this addition cannot overflow.
    [r0, r1, r2, c + c2]
}

/// Runtime-detected MULX + ADCX/ADOX kernel (x86-64, `std` only — feature
/// detection needs the standard library; every other configuration uses
/// the portable CIOS path).
#[cfg(all(feature = "std", target_arch = "x86_64"))]
mod adx {
    use core::sync::atomic::{AtomicU8, Ordering};

    static STATE: AtomicU8 = AtomicU8::new(0);

    /// One-time CPUID probe for BMI2 (MULX) + ADX (ADCX/ADOX), cached in
    /// a relaxed atomic so the hot path pays one predictable load.
    #[inline(always)]
    pub(super) fn available() -> bool {
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let ok =
                    std::is_x86_feature_detected!("bmi2") && std::is_x86_feature_detected!("adx");
                STATE.store(if ok { 1 } else { 2 }, Ordering::Relaxed);
                ok
            }
        }
    }

    /// 4-limb no-carry CIOS Montgomery multiply with dual carry chains:
    /// the `a_i·b` partial products ride the CF chain (ADCX) while the
    /// high halves ride the OF chain (ADOX), so the two never serialize
    /// each other. Returns `t < 2m`; the caller applies the final
    /// conditional subtraction.
    ///
    /// # Safety
    /// Requires BMI2 + ADX (gate on [`available`]) and a modulus that
    /// satisfies the no-carry condition (`super::no_carry_ok`).
    #[inline]
    pub(super) unsafe fn mul_no_carry(
        a: &[u64; 4],
        b: &[u64; 4],
        m: &[u64; 4],
        inv: u64,
    ) -> [u64; 4] {
        let mut t0: u64 = 0;
        let mut t1: u64 = 0;
        let mut t2: u64 = 0;
        let mut t3: u64 = 0;
        // Per round r: (1) t += a_r·b, the carry word landing in t4;
        // (2) k = t0·inv mod 2⁶⁴; (3) t = (t + k·m) >> 64. The rotation
        // movs at the end of each round realize the shift.
        core::arch::asm!(
            // ---- round 0 (t is zero: plain product chain) ----
            "mov rdx, qword ptr [{a}]",
            "mulx {t1}, {t0}, qword ptr [{b}]",
            "mulx {t2}, {lo}, qword ptr [{b} + 8]",
            "add {t1}, {lo}",
            "mulx {t3}, {lo}, qword ptr [{b} + 16]",
            "adc {t2}, {lo}",
            "mulx {t4}, {lo}, qword ptr [{b} + 24]",
            "adc {t3}, {lo}",
            "adc {t4}, 0",
            "mov rdx, {t0}",
            "imul rdx, {inv}",
            "xor {lo}, {lo}",
            "mulx {hA}, {lo}, qword ptr [{p}]",
            "adcx {t0}, {lo}",
            "mulx {hB}, {lo}, qword ptr [{p} + 8]",
            "adcx {t1}, {lo}",
            "adox {t1}, {hA}",
            "mulx {hA}, {lo}, qword ptr [{p} + 16]",
            "adcx {t2}, {lo}",
            "adox {t2}, {hB}",
            "mulx {hB}, {lo}, qword ptr [{p} + 24]",
            "adcx {t3}, {lo}",
            "adox {t3}, {hA}",
            "mov {lo}, 0",
            "adox {t4}, {hB}",
            "adcx {t4}, {lo}",
            "mov {t0}, {t1}",
            "mov {t1}, {t2}",
            "mov {t2}, {t3}",
            "mov {t3}, {t4}",
            // ---- round 1 ----
            "mov rdx, qword ptr [{a} + 8]",
            "xor {lo}, {lo}",
            "mulx {hA}, {lo}, qword ptr [{b}]",
            "adcx {t0}, {lo}",
            "mulx {hB}, {lo}, qword ptr [{b} + 8]",
            "adcx {t1}, {lo}",
            "adox {t1}, {hA}",
            "mulx {hA}, {lo}, qword ptr [{b} + 16]",
            "adcx {t2}, {lo}",
            "adox {t2}, {hB}",
            "mulx {hB}, {lo}, qword ptr [{b} + 24]",
            "adcx {t3}, {lo}",
            "adox {t3}, {hA}",
            "mov {t4}, 0",
            "mov {lo}, 0",
            "adox {t4}, {hB}",
            "adcx {t4}, {lo}",
            "mov rdx, {t0}",
            "imul rdx, {inv}",
            "xor {lo}, {lo}",
            "mulx {hA}, {lo}, qword ptr [{p}]",
            "adcx {t0}, {lo}",
            "mulx {hB}, {lo}, qword ptr [{p} + 8]",
            "adcx {t1}, {lo}",
            "adox {t1}, {hA}",
            "mulx {hA}, {lo}, qword ptr [{p} + 16]",
            "adcx {t2}, {lo}",
            "adox {t2}, {hB}",
            "mulx {hB}, {lo}, qword ptr [{p} + 24]",
            "adcx {t3}, {lo}",
            "adox {t3}, {hA}",
            "mov {lo}, 0",
            "adox {t4}, {hB}",
            "adcx {t4}, {lo}",
            "mov {t0}, {t1}",
            "mov {t1}, {t2}",
            "mov {t2}, {t3}",
            "mov {t3}, {t4}",
            // ---- round 2 ----
            "mov rdx, qword ptr [{a} + 16]",
            "xor {lo}, {lo}",
            "mulx {hA}, {lo}, qword ptr [{b}]",
            "adcx {t0}, {lo}",
            "mulx {hB}, {lo}, qword ptr [{b} + 8]",
            "adcx {t1}, {lo}",
            "adox {t1}, {hA}",
            "mulx {hA}, {lo}, qword ptr [{b} + 16]",
            "adcx {t2}, {lo}",
            "adox {t2}, {hB}",
            "mulx {hB}, {lo}, qword ptr [{b} + 24]",
            "adcx {t3}, {lo}",
            "adox {t3}, {hA}",
            "mov {t4}, 0",
            "mov {lo}, 0",
            "adox {t4}, {hB}",
            "adcx {t4}, {lo}",
            "mov rdx, {t0}",
            "imul rdx, {inv}",
            "xor {lo}, {lo}",
            "mulx {hA}, {lo}, qword ptr [{p}]",
            "adcx {t0}, {lo}",
            "mulx {hB}, {lo}, qword ptr [{p} + 8]",
            "adcx {t1}, {lo}",
            "adox {t1}, {hA}",
            "mulx {hA}, {lo}, qword ptr [{p} + 16]",
            "adcx {t2}, {lo}",
            "adox {t2}, {hB}",
            "mulx {hB}, {lo}, qword ptr [{p} + 24]",
            "adcx {t3}, {lo}",
            "adox {t3}, {hA}",
            "mov {lo}, 0",
            "adox {t4}, {hB}",
            "adcx {t4}, {lo}",
            "mov {t0}, {t1}",
            "mov {t1}, {t2}",
            "mov {t2}, {t3}",
            "mov {t3}, {t4}",
            // ---- round 3 ----
            "mov rdx, qword ptr [{a} + 24]",
            "xor {lo}, {lo}",
            "mulx {hA}, {lo}, qword ptr [{b}]",
            "adcx {t0}, {lo}",
            "mulx {hB}, {lo}, qword ptr [{b} + 8]",
            "adcx {t1}, {lo}",
            "adox {t1}, {hA}",
            "mulx {hA}, {lo}, qword ptr [{b} + 16]",
            "adcx {t2}, {lo}",
            "adox {t2}, {hB}",
            "mulx {hB}, {lo}, qword ptr [{b} + 24]",
            "adcx {t3}, {lo}",
            "adox {t3}, {hA}",
            "mov {t4}, 0",
            "mov {lo}, 0",
            "adox {t4}, {hB}",
            "adcx {t4}, {lo}",
            "mov rdx, {t0}",
            "imul rdx, {inv}",
            "xor {lo}, {lo}",
            "mulx {hA}, {lo}, qword ptr [{p}]",
            "adcx {t0}, {lo}",
            "mulx {hB}, {lo}, qword ptr [{p} + 8]",
            "adcx {t1}, {lo}",
            "adox {t1}, {hA}",
            "mulx {hA}, {lo}, qword ptr [{p} + 16]",
            "adcx {t2}, {lo}",
            "adox {t2}, {hB}",
            "mulx {hB}, {lo}, qword ptr [{p} + 24]",
            "adcx {t3}, {lo}",
            "adox {t3}, {hA}",
            "mov {lo}, 0",
            "adox {t4}, {hB}",
            "adcx {t4}, {lo}",
            "mov {t0}, {t1}",
            "mov {t1}, {t2}",
            "mov {t2}, {t3}",
            "mov {t3}, {t4}",
            a = in(reg) a.as_ptr(),
            b = in(reg) b.as_ptr(),
            p = in(reg) m.as_ptr(),
            inv = in(reg) inv,
            t0 = inout(reg) t0,
            t1 = inout(reg) t1,
            t2 = inout(reg) t2,
            t3 = inout(reg) t3,
            t4 = out(reg) _,
            hA = out(reg) _,
            hB = out(reg) _,
            lo = out(reg) _,
            out("rdx") _,
            options(nostack),
        );
        [t0, t1, t2, t3]
    }
}

/// Fully unrolled no-carry CIOS Montgomery multiplication: a runtime-
/// detected MULX/ADX dual-carry-chain kernel on x86-64 (`std` builds),
/// and a portable u128-mac unrolled CIOS everywhere else.
///
/// Falls back to [`SchoolbookBackend`] for moduli without a spare top bit
/// (the check is on compile-time constants, so the branch folds away).
#[derive(Copy, Clone, Debug)]
pub struct UnrolledBackend;

impl FieldBackend for UnrolledBackend {
    const NAME: &'static str = "unrolled";

    #[inline]
    fn mul_reduce<P: FpParams>(a: &BigInt256, b: &BigInt256) -> BigInt256 {
        if !no_carry_ok(&P::MODULUS) {
            return SchoolbookBackend::mul_reduce::<P>(a, b);
        }
        let m = &P::MODULUS.0;
        #[cfg(all(feature = "std", target_arch = "x86_64"))]
        if adx::available() {
            // SAFETY: BMI2+ADX verified above; no-carry condition checked.
            let t = unsafe { adx::mul_no_carry(&a.0, &b.0, m, P::INV) };
            return BigInt256(t).csub(0, &P::MODULUS);
        }
        let b = &b.0;
        let mut t = cios_round([0; 4], a.0[0], b, m, P::INV);
        t = cios_round(t, a.0[1], b, m, P::INV);
        t = cios_round(t, a.0[2], b, m, P::INV);
        t = cios_round(t, a.0[3], b, m, P::INV);
        BigInt256(t).csub(0, &P::MODULUS)
    }

    #[inline]
    fn square_reduce<P: FpParams>(a: &BigInt256) -> BigInt256 {
        // The dedicated wide squaring (off-diagonal products computed once
        // and doubled — ~10 word multiplications instead of 16) already
        // beats folding the square through the CIOS path.
        mont_reduce_wide::<P>(a.square_wide())
    }

    #[inline]
    fn reduce_wide<P: FpParams>(t: [u64; 8]) -> BigInt256 {
        mont_reduce_wide::<P>(t)
    }
}

/// The backend [`Fp`](crate::fp::Fp) compiles against.
pub type ActiveBackend = UnrolledBackend;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fq::FqParams;
    use crate::fr::FrParams;
    use crate::traits::{Field, PrimeField};
    use crate::{Fq, Fr};

    fn edge_reprs(modulus: &BigInt256) -> [BigInt256; 6] {
        let p_minus_1 = modulus.sub_with_borrow(&BigInt256::ONE).0;
        let p_minus_2 = modulus.sub_with_borrow(&BigInt256::from_u64(2)).0;
        [
            BigInt256::ZERO,
            BigInt256::ONE,
            BigInt256::from_u64(u64::MAX),
            BigInt256([u64::MAX, u64::MAX, 0, 0]),
            p_minus_1,
            p_minus_2,
        ]
    }

    #[test]
    fn backends_agree_on_edge_cases() {
        for a in edge_reprs(&FqParams::MODULUS) {
            for b in edge_reprs(&FqParams::MODULUS) {
                assert_eq!(
                    SchoolbookBackend::mul_reduce::<FqParams>(&a, &b),
                    UnrolledBackend::mul_reduce::<FqParams>(&a, &b),
                );
            }
            assert_eq!(
                SchoolbookBackend::square_reduce::<FqParams>(&a),
                UnrolledBackend::square_reduce::<FqParams>(&a),
            );
        }
        for a in edge_reprs(&FrParams::MODULUS) {
            for b in edge_reprs(&FrParams::MODULUS) {
                assert_eq!(
                    SchoolbookBackend::mul_reduce::<FrParams>(&a, &b),
                    UnrolledBackend::mul_reduce::<FrParams>(&a, &b),
                );
            }
        }
    }

    #[test]
    fn no_carry_applies_to_both_bn254_moduli() {
        assert!(no_carry_ok(&FqParams::MODULUS));
        assert!(no_carry_ok(&FrParams::MODULUS));
        assert!(!no_carry_ok(&BigInt256([u64::MAX; 4])));
    }

    #[test]
    fn active_backend_matches_field_ops() {
        let a = Fq::from_u64(0xdead_beef).pow(&[12345]);
        let b = Fq::from_u64(7).pow(&[678]);
        let via_field = (a * b).into_bigint();
        let a_repr = a.pow(&[1]); // identity; keeps Montgomery repr opaque
        assert_eq!(a_repr, a);
        let _ = Fr::from_u64(3); // exercise the Fr instantiation too
        assert_eq!((a * b).into_bigint(), via_field);
    }
}
