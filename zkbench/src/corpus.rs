//! The one seeded corpus every workload draws from.
//!
//! Two disputes at quick scale — the MNIST-MLP and CIFAR-CNN extraction
//! circuits of `zkrownn-bench` (`quick_mlp_spec` / `quick_cnn_spec`, whose
//! shapes `golden_counts` pins) — each set up by [`Authority::setup`] and
//! proven by [`ProverKit::prove`], exactly as a deployment would. The
//! models and circuit shapes are fixed; `--seed` drives what a rerun may
//! legitimately vary: the toxic waste, the proof randomness `(r, s)` and
//! the order claims arrive in.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkrownn::{
    Artifact, Authority, ExtractionSpec, ProverKit, QuantLayer, SignedClaim, VerifierKit,
};

/// Which of the corpus's two circuits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Circuit {
    /// Quick MNIST-MLP: 3105 public inputs, a 100 KB verifying key.
    Mlp,
    /// Quick CIFAR-CNN: 88 129 constraints over a 2¹⁷ domain.
    Cnn,
}

impl Circuit {
    /// The suffix per-layer rows and spans carry.
    pub fn tag(self) -> &'static str {
        match self {
            Circuit::Mlp => "mlp",
            Circuit::Cnn => "cnn",
        }
    }

    /// Trains, watermarks and quantizes the circuit's model (fixed seeds
    /// inside `zkrownn-bench`, so the shape never moves).
    pub fn spec(self) -> ExtractionSpec {
        match self {
            Circuit::Mlp => zkrownn_bench::quick_mlp_spec(),
            Circuit::Cnn => zkrownn_bench::quick_cnn_spec(),
        }
    }

    /// The rng stream of this circuit's dispute under `seed`.
    pub fn rng(self, seed: u64) -> StdRng {
        let stream = match self {
            Circuit::Mlp => 0x6d6c_7000_0000_0001,
            Circuit::Cnn => 0x636e_6e00_0000_0002,
        };
        StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
    }
}

/// One dispute: both role kits, the three public artifacts as bytes, and
/// what producing them cost.
pub struct Dispute {
    /// The circuit in dispute.
    pub circuit: Circuit,
    /// The owner's spec (private witness included).
    pub spec: ExtractionSpec,
    /// The owner's kit, proving key in memory.
    pub prover: ProverKit,
    /// The statement-bound verifier kit the authority issued.
    pub verifier: VerifierKit,
    /// The verifying key artifact.
    pub vk_bytes: Vec<u8>,
    /// The statement artifact.
    pub statement_bytes: Vec<u8>,
    /// Distinct signed claims, as artifacts.
    pub claims: Vec<Vec<u8>>,
    /// Wall time of the trusted setup.
    pub keygen: Duration,
    /// Wall time of each claim in [`Self::claims`].
    pub prove: Vec<Duration>,
}

impl Dispute {
    /// Sets the dispute up and proves `claims` distinct claims.
    pub fn setup(circuit: Circuit, seed: u64, claims: usize) -> Self {
        let spec = circuit.spec();
        let mut rng = circuit.rng(seed);
        let start = Instant::now();
        let (prover, verifier) = Authority::setup(&spec, &mut rng);
        let keygen = start.elapsed();
        let mut dispute = Self {
            circuit,
            vk_bytes: Artifact::to_bytes(verifier.verifying_key()),
            statement_bytes: Artifact::to_bytes(&spec.statement()),
            spec,
            prover,
            verifier,
            claims: Vec::new(),
            keygen,
            prove: Vec::new(),
        };
        for _ in 0..claims {
            dispute.prove_claim(&mut rng);
        }
        dispute
    }

    /// Proves one more claim and appends it to the corpus.
    pub fn prove_claim(&mut self, rng: &mut StdRng) {
        let start = Instant::now();
        let claim = self
            .prover
            .prove(rng)
            .expect("the corpus specs carry a valid witness");
        self.prove.push(start.elapsed());
        self.claims.push(claim.to_bytes());
    }

    /// Bytes a stateless third party receives for one claim: verifying
    /// key, statement and claim.
    pub fn comm_bytes(&self) -> usize {
        self.vk_bytes.len() + self.statement_bytes.len() + self.claims[0].len()
    }
}

/// MLP claims per corpus; with [`CNN_CLAIMS`] the 2 : 1 mix of the verify
/// workloads.
pub const MLP_CLAIMS: usize = 2;
/// CNN claims per corpus.
pub const CNN_CLAIMS: usize = 1;

/// Both disputes.
pub struct Corpus {
    /// The MLP dispute.
    pub mlp: Dispute,
    /// The CNN dispute.
    pub cnn: Dispute,
}

impl Corpus {
    /// Builds both disputes under `seed`.
    pub fn build(seed: u64) -> Self {
        Self {
            mlp: Dispute::setup(Circuit::Mlp, seed, MLP_CLAIMS),
            cnn: Dispute::setup(Circuit::Cnn, seed, CNN_CLAIMS),
        }
    }

    /// The dispute over `circuit`.
    pub fn dispute(&self, circuit: Circuit) -> &Dispute {
        match circuit {
            Circuit::Mlp => &self.mlp,
            Circuit::Cnn => &self.cnn,
        }
    }

    /// Mean [`Dispute::comm_bytes`] over the 2 : 1 claim mix.
    pub fn comm_bytes(&self) -> f64 {
        let (m, c) = (MLP_CLAIMS as f64, CNN_CLAIMS as f64);
        (m * self.mlp.comm_bytes() as f64 + c * self.cnn.comm_bytes() as f64) / (m + c)
    }
}

/// Claims per cycle of an [`Order`].
pub const CYCLE: usize = MLP_CLAIMS + CNN_CLAIMS;

/// The seeded arrival order of corpus claims: cycles of [`CYCLE`] claims,
/// 2 MLP : 1 CNN, with the CNN claim's place in each cycle drawn from the
/// seed. A whole number of cycles always holds the exact mix.
pub struct Order {
    rng: StdRng,
    slot: usize,
    cnn_slot: usize,
    mlp_next: usize,
}

impl Order {
    /// The order for `seed`; `stream` separates concurrent claimants.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(
                seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93) ^ 0x6f72_6465,
            ),
            slot: 0,
            cnn_slot: 0,
            mlp_next: 0,
        }
    }

    /// The next claim: its circuit and its index among that circuit's
    /// corpus claims.
    pub fn next_claim(&mut self) -> (Circuit, usize) {
        if self.slot == 0 {
            self.cnn_slot = self.rng.gen_range(0..CYCLE);
        }
        let at = self.slot;
        self.slot = (self.slot + 1) % CYCLE;
        if at == self.cnn_slot {
            (Circuit::Cnn, 0)
        } else {
            self.mlp_next = (self.mlp_next + 1) % MLP_CLAIMS;
            (Circuit::Mlp, self.mlp_next)
        }
    }
}

/// `claim` with its proof's `A` negated: still a well-formed artifact
/// (the point stays on the curve and in the subgroup), but the pairing
/// equation no longer holds.
pub fn tampered(claim: &[u8]) -> Vec<u8> {
    let mut claim = SignedClaim::from_bytes(claim).expect("corpus claims decode");
    claim.proof.proof.a = claim.proof.proof.a.neg();
    claim.to_bytes()
}

/// `claim` re-addressed to another model of the same shape: the first
/// weight of the statement's model is changed, the proof is kept.
pub fn about_another_model(claim: &[u8]) -> Vec<u8> {
    let mut claim = SignedClaim::from_bytes(claim).expect("corpus claims decode");
    let first_weight = claim
        .statement
        .model
        .layers
        .iter_mut()
        .find_map(|layer| match layer {
            QuantLayer::Dense { w, .. } | QuantLayer::Conv { w, .. } => w.first_mut(),
            _ => None,
        })
        .expect("the corpus models have a parameterized layer");
    *first_weight += 1;
    claim.to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cycle_holds_the_exact_mix() {
        let mut order = Order::new(7, 0);
        let mut cnn_slots = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let cycle: Vec<_> = (0..CYCLE).map(|_| order.next_claim()).collect();
            let cnn: Vec<_> = cycle
                .iter()
                .enumerate()
                .filter(|(_, (c, _))| *c == Circuit::Cnn)
                .collect();
            assert_eq!(cnn.len(), CNN_CLAIMS);
            cnn_slots.insert(cnn[0].0);
            assert!(cycle.iter().all(|(c, i)| *i
                < if *c == Circuit::Mlp {
                    MLP_CLAIMS
                } else {
                    CNN_CLAIMS
                }));
        }
        assert_eq!(
            cnn_slots.len(),
            CYCLE,
            "the seed moves the CNN claim around"
        );
    }

    #[test]
    fn order_is_a_function_of_seed_and_stream() {
        let take = |seed, stream| {
            let mut o = Order::new(seed, stream);
            (0..30).map(|_| o.next_claim()).collect::<Vec<_>>()
        };
        assert_eq!(take(3, 0), take(3, 0));
        assert_ne!(take(3, 0), take(4, 0));
        assert_ne!(take(3, 0), take(3, 1));
    }
}
