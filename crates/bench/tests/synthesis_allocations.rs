//! An allocation gate on `OwnershipStatement::circuit_id()`, the call that
//! decides what a served or cold claim costs, on the setup-mode synthesis
//! that *keeps* the matrices, which is what key generation and every
//! reassembled prover kit start from, and on the proving synthesis every
//! proof starts from (`ExtractionSpec::build`).
//!
//! Constraint synthesis is meant to be allocation-free in the common case
//! (a combination of one term lives inline, gadgets accumulate in place),
//! and the way that regresses is silent: a `clone()` in a gadget loop
//! changes no byte of any digest and no test verdict, only the time. So
//! this counts. The limits are half an allocation per constraint — an
//! order of magnitude above what the two quick circuits need today and an
//! order of magnitude below what one allocation per combination costs —
//! and a count, unlike a timing, repeats exactly on any box. The storing
//! synthesis is held to the same limit with `to_matrices()` included: the
//! driver appends to three flat matrices as it goes, so keeping a
//! constraint costs no allocation of its own (a `Vec` per row of each
//! matrix was 3 per constraint — 84 417 / 273 088 on the two circuits).
//! The proving synthesis is held to it too, and to a byte budget below
//! what it cost while it kept a second copy of the matrices (74.1 / 20.5
//! MB): it keeps the assignment and checks each row as it is enforced.
//!
//! The counting `#[global_allocator]` is why this is a test binary of its
//! own with a single `#[test]`: it sees every thread of the process, and
//! nothing else runs here while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use zkrownn::ExtractionSpec;
use zkrownn_bench::{quick_cnn_spec, quick_mlp_spec};
use zkrownn_ff::Fr;
use zkrownn_r1cs::{Circuit, SetupSynthesizer};

/// The system allocator, counting calls (`alloc` and `realloc` once each)
/// and requested bytes.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was held to; the counters are statistics
// and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// (allocations, bytes requested) of one `call`.
fn count<T>(call: &impl Fn() -> T) -> (u64, u64) {
    let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    std::hint::black_box(call());
    (
        CALLS.load(Relaxed) - before.0,
        BYTES.load(Relaxed) - before.1,
    )
}

fn assert_budget<T>(name: &str, call: impl Fn() -> T, max_calls: u64, max_mb: u64) {
    count(&call); // warm-up: one-time tables, the CPUID probe
    let first = count(&call);
    assert_eq!(first, count(&call), "{name}: the count must repeat");
    let (calls, bytes) = first;
    println!("{name}: {calls} allocations, {bytes} bytes");
    assert!(
        calls <= max_calls,
        "{name}: {calls} allocations, budget {max_calls}"
    );
    assert!(
        bytes <= max_mb * 1_000_000,
        "{name}: {bytes} bytes allocated, budget {max_mb} MB"
    );
}

/// The three gates on one circuit: the digest-only synthesis behind
/// `circuit_id()`, setup-mode synthesis into the matrices plus the copy
/// `to_matrices()` hands out, and the proving synthesis of `build()`.
fn assert_budgets(
    name: &str,
    spec: ExtractionSpec,
    max_calls: u64,
    [id_mb, store_mb, build_mb]: [u64; 3],
) {
    let statement = spec.statement();
    assert_budget(
        &format!("{name}, circuit_id()"),
        || statement.circuit_id(),
        max_calls,
        id_mb,
    );
    assert_budget(
        &format!("{name}, synthesis + to_matrices()"),
        || {
            let mut cs = SetupSynthesizer::<Fr>::new();
            spec.shape_circuit()
                .synthesize(&mut cs)
                .expect("setup-mode synthesis cannot fail");
            cs.to_matrices()
        },
        max_calls,
        store_mb,
    );
    assert_budget(
        &format!("{name}, build()"),
        || spec.build().expect("the quick specs carry their witness"),
        max_calls,
        build_mb,
    );
}

#[test]
fn synthesis_allocates_less_than_once_per_two_constraints() {
    // budgets: constraints / 2 (88 129 and 27 553, pinned in
    // `golden_counts.rs`); ≈ 3× the trace `circuit_id()` emits, ≈ 3× the
    // matrices the storing synthesis grows (doubling) and then copies, and
    // for `build()` between what it takes (≈ 26 / 8.5 MB) and what it took
    // with the matrix copy
    assert_budgets("quick cnn", quick_cnn_spec(), 44_064, [50, 100, 40]);
    assert_budgets("quick mlp", quick_mlp_spec(), 13_776, [16, 40, 13]);
}
