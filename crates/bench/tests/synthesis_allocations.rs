//! An allocation gate on `OwnershipStatement::circuit_id()`, the call that
//! decides what a served or cold claim costs.
//!
//! Constraint synthesis is meant to be allocation-free in the common case
//! (a combination of one term lives inline, gadgets accumulate in place),
//! and the way that regresses is silent: a `clone()` in a gadget loop
//! changes no byte of any digest and no test verdict, only the time. So
//! this counts. The limits are half an allocation per constraint — an
//! order of magnitude above what the two quick circuits need today and an
//! order of magnitude below what one allocation per combination costs —
//! and a count, unlike a timing, repeats exactly on any box.
//!
//! The counting `#[global_allocator]` is why this is a test binary of its
//! own with a single `#[test]`: it sees every thread of the process, and
//! nothing else runs here while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use zkrownn::{ExtractionSpec, OwnershipStatement};
use zkrownn_bench::{quick_cnn_spec, quick_mlp_spec};

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

/// (allocations, bytes requested) of one `circuit_id()`.
fn count(statement: &OwnershipStatement) -> (u64, u64) {
    let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    std::hint::black_box(statement.circuit_id());
    (
        CALLS.load(Relaxed) - before.0,
        BYTES.load(Relaxed) - before.1,
    )
}

fn assert_budget(name: &str, spec: ExtractionSpec, max_calls: u64, max_mb: u64) {
    let statement = spec.statement();
    count(&statement); // warm-up: one-time tables, the CPUID probe
    let first = count(&statement);
    assert_eq!(first, count(&statement), "{name}: the count must repeat");
    let (calls, bytes) = first;
    println!("{name}: {calls} allocations, {bytes} bytes");
    assert!(
        calls <= max_calls,
        "{name}: {calls} allocations in one circuit_id(), budget {max_calls}"
    );
    assert!(
        bytes <= max_mb * 1_000_000,
        "{name}: {bytes} bytes allocated in one circuit_id(), budget {max_mb} MB"
    );
}

#[test]
fn circuit_id_allocates_less_than_once_per_two_constraints() {
    // budgets: constraints / 2 (88 129 and 27 553, pinned in
    // `golden_counts.rs`) and ≈ 3× the trace the call emits
    assert_budget("quick cnn", quick_cnn_spec(), 44_064, 50);
    assert_budget("quick mlp", quick_mlp_spec(), 13_776, 16);
}
