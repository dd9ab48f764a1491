//! The fixed claim corpus and its expected-verdict table, shared by the two
//! differential suites: `tests/verdict_equivalence.rs` (library entry
//! points) and `crates/service/tests/chaos.rs` (coalescer entry points,
//! which include this file by `#[path]` because `zkrownn-service` has no
//! edge to the root package).
//!
//! Every entry point decides the same predicate, so the table has one
//! expected class per claim; the only per-column differences are the
//! documented ones — a *bound* verifier answers `StatementMismatch` to a
//! claim about another model, and only a *registry* can answer
//! `UnknownCircuit`.

// each including suite asks only its own columns
#![allow(dead_code)]

use rand::SeedableRng;
use zkrownn::{
    Authority, CircuitId, ExtractionSpec, ProverKit, QuantLayer, QuantizedModel, SignedClaim,
    VerifierKit, ZkrownnError,
};
use zkrownn_gadgets::conv::ConvShape;
use zkrownn_gadgets::FixedConfig;

/// The error class an entry point answered with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Accepted,
    NegativeVerdict,
    InvalidProof,
    CircuitMismatch,
    StatementMismatch,
    UnknownCircuit,
}

impl Class {
    pub fn of(result: &Result<(), ZkrownnError>) -> Self {
        match result {
            Ok(()) => Self::Accepted,
            Err(ZkrownnError::NegativeVerdict) => Self::NegativeVerdict,
            Err(ZkrownnError::InvalidProof(_)) => Self::InvalidProof,
            Err(ZkrownnError::CircuitMismatch { .. }) => Self::CircuitMismatch,
            Err(ZkrownnError::StatementMismatch) => Self::StatementMismatch,
            Err(ZkrownnError::UnknownCircuit(_)) => Self::UnknownCircuit,
            Err(other) => panic!("a decoded claim cannot fail with {other:?}"),
        }
    }
}

/// Which kind of verifier is answering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// A verifier for the disputed circuit, any statement of that shape.
    Unbound,
    /// A verifier pinned to the disputed statement's digest.
    Bound,
    /// A key registry holding the disputed circuit and one other.
    Registry,
}

pub struct Case {
    pub name: &'static str,
    pub claim: SignedClaim,
    class: Class,
}

impl Case {
    /// The one class every `column` must answer this claim with.
    pub fn expected(&self, column: Column) -> Class {
        match (self.name, column) {
            ("other-model", Column::Bound) => Class::StatementMismatch,
            ("unregistered-circuit", Column::Registry) => Class::UnknownCircuit,
            _ => self.class,
        }
    }
}

pub struct Corpus {
    /// The verifier kit for the disputed model, bound to its statement
    /// (the one the `honest` claim carries).
    pub disputed: VerifierKit,
    /// A kit for a second, differently-shaped circuit that registries also
    /// hold.
    pub bystander: VerifierKit,
    pub cases: Vec<Case>,
}

/// A tiny deterministic extraction spec (no training needed). Projections
/// come out positive, so every extracted bit is 1: with `max_errors = 0`
/// the verdict is exactly "is the signature all-ones". `weight` varies the
/// model without changing its shape; the signature length sets the shape.
fn tiny_spec(weight: f64, signature: Vec<bool>) -> ExtractionSpec {
    let cfg = FixedConfig::default();
    let model = QuantizedModel {
        layers: vec![
            QuantLayer::Dense {
                in_dim: 2,
                out_dim: 2,
                w: vec![cfg.encode(weight); 4],
                b: vec![0; 2],
            },
            QuantLayer::ReLU,
        ],
        input_len: 2,
        cfg,
    };
    ExtractionSpec {
        model,
        triggers: vec![vec![cfg.encode(1.0); 2]; 2],
        projection: vec![cfg.encode(0.25); 2 * signature.len()],
        signature,
        max_errors: 0,
        fold_average: false,
        cfg,
    }
}

/// Swaps `a` and `c`: still valid curve points, wrong pairing equation.
fn forge(claim: &SignedClaim) -> SignedClaim {
    let mut forged = claim.clone();
    std::mem::swap(&mut forged.proof.proof.a, &mut forged.proof.proof.c);
    forged
}

fn renamed(claim: &SignedClaim, circuit_id: CircuitId) -> SignedClaim {
    let mut renamed = claim.clone();
    renamed.proof.circuit_id = circuit_id;
    renamed
}

pub fn corpus() -> Corpus {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1301);
    let spec = tiny_spec(0.5, vec![true; 4]);
    let (prover, disputed) = Authority::setup(&spec, &mut rng);
    let key = prover.proving_key().clone();
    let (_, bystander) = Authority::setup(&tiny_spec(0.5, vec![true; 5]), &mut rng);
    assert_ne!(disputed.circuit_id(), bystander.circuit_id());

    let honest = prover.prove(&mut rng).expect("honest claim");
    let wrong_signature = tiny_spec(0.5, vec![true, false, true, false]);
    let negative = ProverKit::from_parts(key.clone(), wrong_signature)
        .prove(&mut rng)
        .expect("sound negative claim");
    assert!(honest.verdict() && !negative.verdict());
    let other = ProverKit::from_parts(key, tiny_spec(0.75, vec![true; 4]));
    assert_eq!(other.circuit_id(), disputed.circuit_id());
    let other_model = other.prove(&mut rng).expect("claim about another model");
    assert!(other_model.verdict());

    let case = |name, claim, class| Case { name, claim, class };
    let unregistered = CircuitId::from_bytes([0; 32]);
    let cases = vec![
        case("forged-positive", forge(&honest), Class::InvalidProof),
        case("forged-negative", forge(&negative), Class::InvalidProof),
        case(
            "unregistered-circuit",
            renamed(&honest, unregistered),
            Class::CircuitMismatch,
        ),
        case(
            "wrong-registered-circuit",
            renamed(&honest, bystander.circuit_id()),
            Class::CircuitMismatch,
        ),
        case("honest", honest, Class::Accepted),
        case("sound-negative", negative, Class::NegativeVerdict),
        case("other-model", other_model, Class::Accepted),
    ];
    Corpus {
        disputed,
        bystander,
        cases,
    }
}

/// Hand-broken copies of `honest` (the corpus's two-input `Dense 2→2`,
/// `ReLU` claim): each still serializes, still checksums and still names
/// the registered circuit, but describes a circuit that cannot be
/// synthesized — fields that are each fine on their own and do not fit
/// *together*. A decoder that lets one through hands the verdict kernel a
/// panic (`feed_forward_layers`' shape asserts, a gadget's width limit, a
/// division by a zero stride), so every decoder must answer `Malformed`.
pub fn unsynthesizable(honest: &SignedClaim) -> Vec<(&'static str, SignedClaim)> {
    let broken = |name, edit: &dyn Fn(&mut zkrownn::OwnershipStatement)| {
        let mut claim = honest.clone();
        edit(&mut claim.statement);
        (name, claim)
    };
    let conv = |kernel, stride| QuantLayer::Conv {
        shape: ConvShape {
            in_channels: 2,
            height: 1,
            width: 1,
            out_channels: 1,
            kernel,
            stride,
        },
        w: vec![0; 2 * kernel * kernel],
        b: vec![0],
    };
    vec![
        broken("input_len off by one", &|s| s.model.input_len += 1),
        broken("dense chain mismatch", &|s| {
            s.model.layers.push(QuantLayer::Dense {
                in_dim: 3,
                out_dim: 1,
                w: vec![0; 3],
                b: vec![0],
            })
        }),
        broken("conv kernel > height", &|s| {
            s.model.layers = vec![conv(2, 1)]
        }),
        broken("conv stride 0", &|s| s.model.layers = vec![conv(1, 0)]),
        broken("pool window > width", &|s| {
            s.model.layers.push(QuantLayer::MaxPool {
                channels: 1,
                height: 2,
                width: 1,
                size: 2,
                stride: 1,
            })
        }),
        broken("zero-width layer", &|s| {
            s.model.layers.push(QuantLayer::Dense {
                in_dim: 2,
                out_dim: 0,
                w: vec![],
                b: vec![],
            })
        }),
        broken("frac_bits = 0", &|s| s.cfg.frac_bits = 0),
        broken("sigmoid scale below the tensor scale", &|s| {
            s.cfg.sigmoid_frac_bits = s.cfg.frac_bits
        }),
        broken("values too wide", &|s| s.cfg.int_bits = 100),
        broken("max_errors > N", &|s| s.max_errors = 5),
        broken("no triggers", &|s| s.num_triggers = 0),
        broken("no signature bits", &|s| s.signature_bits = 0),
    ]
}
