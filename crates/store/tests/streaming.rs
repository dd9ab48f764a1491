//! Byte-identity pins for the store-backed sink and source, under fixed
//! toxic waste and fixed proof randomness:
//!
//! * keygen into a [`KeyStoreWriter`] reloads as **exactly** the proving
//!   key keygen collects in memory — and the store *file* it writes is
//!   byte-for-byte the file [`write_proving_key`] produces from that
//!   in-memory key; the one kernel yields the same key at every budget;
//! * the streamed prover emits **exactly** the proof the in-memory
//!   cached-context prover emits, at any memory budget;
//! * corrupting a consumed segment yields a checksum error, never a
//!   different proof, and a wrong-length assignment a typed shape error.

use std::path::PathBuf;

use zkrownn_curves::MemoryBudget;
use zkrownn_ff::{Field, Fr};
use zkrownn_groth16::{
    create_proof_with_context_and_randomness, verify_proof, KeyCollector, ProverContext, ToxicWaste,
};
use zkrownn_r1cs::{
    assignment, Circuit, ConstraintSystem, LinearCombination, ProvingSynthesizer, SynthesisError,
};
use zkrownn_store::{
    create_proof_streamed, segment_kind, write_proving_key, KeyStore, KeyStoreWriter, StoreBackend,
    StoreError, StoreMeta,
};

/// A small but non-trivial circuit: proves knowledge of `x` with
/// `x³ + x + 5 = out`, padded with extra witnesses so every key family has
/// more than one chunk at tiny budgets.
struct Cubic {
    x: Option<u64>,
    padding: usize,
}

impl Circuit<Fr> for Cubic {
    type Output = ();

    fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
        let xv = self.x;
        let out = cs.alloc_instance(|| {
            let x = xv.ok_or(SynthesisError::AssignmentMissing)?;
            Ok(Fr::from_u64(x * x * x + x + 5))
        })?;
        let x = cs.alloc_witness(|| assignment(xv.map(Fr::from_u64)))?;
        let x2 = cs.alloc_witness(|| assignment(xv.map(|x| Fr::from_u64(x * x))))?;
        let x3 = cs.alloc_witness(|| assignment(xv.map(|x| Fr::from_u64(x * x * x))))?;
        cs.enforce(x.into(), x.into(), x2.into());
        cs.enforce(x2.into(), x.into(), x3.into());
        let lhs = LinearCombination::from(x3)
            + LinearCombination::from(x)
            + LinearCombination::constant(Fr::from_u64(5));
        cs.enforce(lhs, LinearCombination::constant(Fr::one()), out.into());
        for i in 0..self.padding {
            let w = cs.alloc_witness(|| Ok(Fr::from_u64(i as u64 + 2)))?;
            let w2 = cs.alloc_witness(|| Ok(Fr::from_u64((i as u64 + 2) * (i as u64 + 2))))?;
            cs.enforce(w.into(), w.into(), w2.into());
        }
        Ok(())
    }
}

fn fixed_toxic() -> ToxicWaste {
    ToxicWaste {
        alpha: Fr::from_u64(21),
        beta: Fr::from_u64(22),
        gamma: Fr::from_u64(23),
        delta: Fr::from_u64(24),
        tau: Fr::from_u64(25),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zkst-streaming-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

const META: StoreMeta = StoreMeta {
    circuit_id: [0x11; 32],
    statement_digest: [0x22; 32],
};

#[test]
fn streaming_keygen_is_byte_identical_to_in_memory_keygen() {
    let circuit = Cubic {
        x: None,
        padding: 9,
    };
    let ctx = ProverContext::for_circuit(&circuit).unwrap();
    let toxic = fixed_toxic();
    let (pk, _) = ctx.generate_timed(&toxic);

    // the streamed store reloads as exactly the in-memory key, at several
    // budgets (1 byte floors to the minimum chunk; 1 MB is one chunk)
    for (i, budget_bytes) in [1usize, 300 * 64, 1 << 20].into_iter().enumerate() {
        let path = temp_path(&format!("keygen-{i}.zkst"));
        let mut sink = KeyStoreWriter::create(&path, Some(META)).unwrap();
        ctx.generate_into(&toxic, &mut sink, MemoryBudget::from_bytes(budget_bytes))
            .unwrap();
        sink.finish().unwrap();

        let store = KeyStore::open(&path).unwrap();
        assert_eq!(store.meta().unwrap(), Some(META));
        assert_eq!(store.load_proving_key().unwrap(), pk);

        // stronger: the streamed *file* equals the file written from the
        // materialized key — chunking leaves no trace in the container
        let oracle_path = temp_path(&format!("oracle-{i}.zkst"));
        write_proving_key(&oracle_path, &pk, Some(META)).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&oracle_path).unwrap(),
            "streamed store at budget {budget_bytes} differs from materialized-key store"
        );
    }
}

#[test]
fn the_keygen_kernel_is_chunking_invariant() {
    // one toxic waste, three ways through the one kernel: collected in a
    // single chunk per family, collected at the `MIN_CHUNK` floor, and
    // streamed to disk and loaded back — the same key bytes every time
    let ctx = ProverContext::for_circuit(&Cubic {
        x: None,
        padding: 300,
    })
    .unwrap();
    let toxic = fixed_toxic();
    let collect = |budget: MemoryBudget| {
        let mut sink = KeyCollector::default();
        let Ok(_) = ctx.generate_into(&toxic, &mut sink, budget);
        sink.into_key()
    };
    let unbounded = collect(MemoryBudget::from_bytes(usize::MAX));
    // the floor really does chunk: the families here outgrow it
    assert!(unbounded.a_query.len() > 2 * MemoryBudget::MIN_CHUNK);
    let floored = collect(MemoryBudget::from_bytes(0));

    let path = temp_path("chunking.zkst");
    let mut sink = KeyStoreWriter::create(&path, None).unwrap();
    ctx.generate_into(&toxic, &mut sink, MemoryBudget::from_bytes(0))
        .unwrap();
    sink.finish().unwrap();
    let stored = KeyStore::open(&path).unwrap().load_proving_key().unwrap();

    assert_eq!(
        unbounded.to_bytes(),
        ctx.generate_timed(&toxic).0.to_bytes()
    );
    assert_eq!(unbounded.to_bytes(), floored.to_bytes());
    assert_eq!(unbounded.to_bytes(), stored.to_bytes());
}

#[test]
fn streamed_proofs_are_byte_identical_to_in_memory_proofs() {
    let shape = Cubic {
        x: None,
        padding: 9,
    };
    let ctx = ProverContext::for_circuit(&shape).unwrap();
    let toxic = fixed_toxic();
    let (pk, _) = ctx.generate_timed(&toxic);
    let path = temp_path("prove.zkst");
    write_proving_key(&path, &pk, None).unwrap();

    let mut cs = ProvingSynthesizer::<Fr>::new();
    Cubic {
        x: Some(3),
        padding: 9,
    }
    .synthesize(&mut cs)
    .unwrap();
    let z = cs.full_assignment();
    let (r, s) = (Fr::from_u64(77), Fr::from_u64(78));
    let expected = create_proof_with_context_and_randomness(&pk, &ctx, &z, r, s);

    for backend in [StoreBackend::Auto, StoreBackend::Buffered] {
        let store = KeyStore::open_with(&path, backend).unwrap();
        for budget_bytes in [1usize, 64 * 257, 1 << 22] {
            let proof = create_proof_streamed(
                &store,
                &ctx,
                &z,
                r,
                s,
                MemoryBudget::from_bytes(budget_bytes),
            )
            .unwrap();
            assert_eq!(
                proof, expected,
                "streamed proof differs at budget {budget_bytes}"
            );
        }
        // and the streamed proof verifies against the store's own vk
        let inputs = [Fr::from_u64(3 * 3 * 3 + 3 + 5)];
        verify_proof(&store.verifying_key().unwrap(), &expected, &inputs).unwrap();
    }
}

#[test]
fn corrupted_segments_yield_errors_never_wrong_proofs() {
    let shape = Cubic {
        x: None,
        padding: 4,
    };
    let ctx = ProverContext::for_circuit(&shape).unwrap();
    let (pk, _) = ctx.generate_timed(&fixed_toxic());
    let path = temp_path("corrupt-src.zkst");
    write_proving_key(&path, &pk, None).unwrap();
    let pristine = std::fs::read(&path).unwrap();

    let mut cs = ProvingSynthesizer::<Fr>::new();
    Cubic {
        x: Some(3),
        padding: 4,
    }
    .synthesize(&mut cs)
    .unwrap();
    let z = cs.full_assignment();
    let (r, s) = (Fr::from_u64(91), Fr::from_u64(92));

    // flip one byte in the middle of every proof-consumed segment: the
    // streamed prover must error (decode failure or checksum mismatch) —
    // it must never return Ok
    let corrupt_path = temp_path("corrupt.zkst");
    let store = KeyStore::open(&path).unwrap();
    let offsets: Vec<u64> = [
        segment_kind::A_QUERY,
        segment_kind::B_G1_QUERY,
        segment_kind::B_G2_QUERY,
        segment_kind::H_QUERY,
        segment_kind::L_QUERY,
        segment_kind::CONSTANTS,
    ]
    .iter()
    .map(|&kind| {
        let entry = store.file().require(kind).unwrap();
        entry.offset + entry.len / 2
    })
    .collect();
    drop(store);

    for off in offsets {
        let mut corrupt = pristine.clone();
        corrupt[off as usize] ^= 0x01;
        std::fs::write(&corrupt_path, &corrupt).unwrap();
        let store = KeyStore::open(&corrupt_path).unwrap();
        let result =
            create_proof_streamed(&store, &ctx, &z, r, s, MemoryBudget::from_bytes(1 << 20));
        assert!(
            result.is_err(),
            "corruption at byte {off} produced a proof instead of an error"
        );
    }
}

#[test]
fn a_wrong_length_assignment_is_a_typed_shape_error() {
    let shape = Cubic {
        x: None,
        padding: 4,
    };
    let ctx = ProverContext::for_circuit(&shape).unwrap();
    let (pk, _) = ctx.generate_timed(&fixed_toxic());
    let path = temp_path("shape.zkst");
    write_proving_key(&path, &pk, None).unwrap();
    let store = KeyStore::open(&path).unwrap();

    // rejected by the kernel's own check, before the witness map or any
    // segment read: the error names the expected variable count, which a
    // per-segment count check against the short vector would not
    let num_vars = pk.a_query.len();
    let short = vec![Fr::one(); num_vars - 1];
    let (r, s) = (Fr::from_u64(5), Fr::from_u64(6));
    let budget = MemoryBudget::from_bytes(1 << 20);
    match create_proof_streamed(&store, &ctx, &short, r, s, budget) {
        Err(StoreError::ShapeMismatch { expected, got, .. }) => {
            assert_eq!((expected, got), (num_vars as u64, num_vars as u64 - 1));
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
}
