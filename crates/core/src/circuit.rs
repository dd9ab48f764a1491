//! The end-to-end watermark-extraction circuit (Algorithm 1 of the paper).
//!
//! Public inputs (in order): the quantized model parameters, then the final
//! ownership verdict bit. Private witness: the trigger keys `X_key`, the
//! projection matrix `A`, and the signature `wm`.
//!
//! ```text
//! check = 1
//! zkFeedForward(M) on X_key until layer l_wm
//! µ   = zkAverage(activations)            (or folded into A, see below)
//! G   = zkSigmoid(µ · A)
//! ŵm  = zkHardThresholding(G, 0.5)
//! out = check ∧ zkBER(wm, ŵm, θ)
//! ```
//!
//! The circuit is described once, as [`ExtractionCircuit`] — an
//! implementation of the mode-agnostic [`Circuit`] trait — and driven by
//! whichever synthesizer the caller picks: witness-free setup
//! (`SetupSynthesizer`, from which [`CircuitId`]s are also derived),
//! proving (`ProvingSynthesizer`), or constraint counting
//! (`CountingSynthesizer`). The witness is *optional* on the circuit value
//! itself: a setup party builds the circuit from a public
//! [`OwnershipStatement`] alone, and the type system plus the setup
//! driver's never-evaluate guarantee ensure no witness is needed — no
//! placeholder-witness construction anywhere.
//!
//! `fold_average` folds the `1/T` mean into the (private) projection
//! matrix, removing `M` division gadgets — one of the "specific
//! optimizations, such as … combining operations within loops" the paper
//! applies to its end-to-end circuits; we use it for the CNN, whose
//! 7200-dimensional activation map would otherwise dominate the circuit.

use crate::artifact::{CircuitId, OwnershipStatement};
use crate::model::{QuantLayer, QuantizedModel};
use alloc::vec::Vec;
use zkrownn_ff::{Fr, PrimeField};
use zkrownn_gadgets::average::average_rows;
use zkrownn_gadgets::ber::ber_check;
use zkrownn_gadgets::bits::Bit;
use zkrownn_gadgets::cmp::truncate;
use zkrownn_gadgets::conv::conv3d;
use zkrownn_gadgets::fixed::{encode_fixed, FixedConfig};
use zkrownn_gadgets::num::{Num, MAX_BITS};
use zkrownn_gadgets::relu::relu_vec;
use zkrownn_gadgets::sigmoid::{sigmoid_vec, SIGMOID_COEFFS, SIGMOID_INPUT_INT_BITS};
use zkrownn_gadgets::threshold::hard_threshold_vec;
use zkrownn_r1cs::{assignment, Circuit, ConstraintSystem, ProvingSynthesizer, SynthesisError};

/// Everything needed to build (and witness) the extraction circuit.
#[derive(Clone, Debug)]
pub struct ExtractionSpec {
    /// The suspect model's quantized prefix (public).
    pub model: QuantizedModel,
    /// Quantized trigger inputs (private witness).
    pub triggers: Vec<Vec<i128>>,
    /// Quantized projection matrix, `M × N` row-major (private witness).
    /// Pre-divided by `T` when `fold_average` is set.
    pub projection: Vec<i128>,
    /// The signature bits (private witness).
    pub signature: Vec<bool>,
    /// Maximum tolerated bit errors (`θ·N`; public, baked into the circuit).
    pub max_errors: u64,
    /// Fold the `1/T` averaging into the projection matrix.
    pub fold_average: bool,
    /// Fixed-point configuration.
    pub cfg: FixedConfig,
}

/// The private half of an extraction circuit, borrowed from wherever it
/// lives (an [`ExtractionSpec`], typically). Setup-side circuits simply
/// don't have one.
#[derive(Clone, Copy, Debug)]
pub struct ExtractionWitness<'a> {
    /// Quantized trigger inputs, each of the model's input length.
    pub triggers: &'a [Vec<i128>],
    /// Quantized projection matrix, `M × N` row-major.
    pub projection: &'a [i128],
    /// The signature bits.
    pub signature: &'a [bool],
}

/// The extraction circuit proper: public shape (+ model) always, witness
/// optionally — one value drives setup, proving and counting synthesis.
///
/// Synthesizing with a witnessing driver but no witness fails cleanly with
/// [`SynthesisError::AssignmentMissing`]; synthesizing with a shape-only
/// driver never touches the witness at all.
#[derive(Clone, Copy, Debug)]
pub struct ExtractionCircuit<'a> {
    model: &'a QuantizedModel,
    num_triggers: usize,
    signature_bits: usize,
    max_errors: u64,
    fold_average: bool,
    cfg: FixedConfig,
    witness: Option<ExtractionWitness<'a>>,
}

/// Result of a proving-mode synthesis of the circuit.
#[derive(Debug)]
pub struct BuiltCircuit {
    /// The populated proving-mode constraint system.
    pub cs: ProvingSynthesizer<Fr>,
    /// The verdict the witness produces (`true` = ownership established).
    pub verdict: bool,
}

/// The zkFeedForward body: runs `act` through `model`'s layers over
/// pre-allocated parameter `Num`s (instance-allocated — the model is
/// public). Fixed-point semantics: bias lifted by `2^f`, truncation after
/// every Dense/Conv, with the tracked bound clamped to `act_bits`.
fn feed_forward_layers<CS: ConstraintSystem<Fr>>(
    model: &QuantizedModel,
    cfg: &FixedConfig,
    weight_nums: &[Vec<Num>],
    bias_nums: &[Vec<Num>],
    mut act: Vec<Num>,
    cs: &mut CS,
) -> Result<Vec<Num>, SynthesisError> {
    let f = cfg.frac_bits;
    let act_bits = cfg.value_bits() + 2; // activation head-room
    for (li, layer) in model.layers.iter().enumerate() {
        act = match layer {
            QuantLayer::Dense {
                in_dim, out_dim, ..
            } => {
                assert_eq!(act.len(), *in_dim);
                let w = &weight_nums[li];
                let b = &bias_nums[li];
                (0..*out_dim)
                    .map(|o| {
                        let row = &w[o * in_dim..(o + 1) * in_dim];
                        let acc = Num::inner_product(row, &act, cs)?.add(&b[o].shl(f));
                        let mut out = truncate(&acc, f, cs)?;
                        out.bits = out.bits.min(act_bits);
                        Ok(out)
                    })
                    .collect::<Result<_, SynthesisError>>()?
            }
            QuantLayer::ReLU => relu_vec(&act, cs)?,
            QuantLayer::Identity => act,
            QuantLayer::MaxPool {
                channels,
                height,
                width,
                size,
                stride,
            } => zkrownn_gadgets::maxpool::maxpool2d(
                &act, *channels, *height, *width, *size, *stride, cs,
            )?,
            QuantLayer::Conv { shape, .. } => {
                let raw = conv3d(&act, &weight_nums[li], shape, cs)?;
                let (oh, ow) = (shape.out_height(), shape.out_width());
                raw.iter()
                    .enumerate()
                    .map(|(idx, r)| {
                        let oc = idx / (oh * ow);
                        let acc = r.add(&bias_nums[li][oc].shl(f));
                        let mut out = truncate(&acc, f, cs)?;
                        out.bits = out.bits.min(act_bits);
                        Ok(out)
                    })
                    .collect::<Result<_, SynthesisError>>()?
            }
        };
    }
    Ok(act)
}

/// Why setup-mode synthesis of `statement`'s circuit would panic, if it
/// would.
///
/// A statement arrives from whoever files a claim, and a verifier's first
/// act is to synthesize the circuit it describes
/// ([`OwnershipStatement::circuit_id`]). The gadgets treat their shape
/// preconditions as programmer errors and `assert!` them, so every one of
/// them that a statement's *public* fields can violate is checked here
/// first, at a cost linear in the layer count:
///
/// * the dimensions: at least one trigger and one signature bit, no more
///   tolerated errors than bits, and a layer chain in which each layer
///   fits the previous one's output ([`QuantLayer::checked_out_len`]);
/// * the widths: [`ExtractionCircuit::synthesize`]'s magnitude
///   bookkeeping (`Num::bits`), replayed on one representative value per
///   stage against the limits `Num::mul`, `truncate` and `is_negative`
///   assert. Every value of a stage is built the same way, so one stands
///   for all.
///
/// It does not bound *size*: a well-formed statement may still describe a
/// circuit too large to synthesize.
pub(crate) fn check_synthesizable(statement: &OwnershipStatement) -> Result<(), &'static str> {
    let OwnershipStatement {
        model,
        num_triggers,
        signature_bits,
        max_errors,
        fold_average,
        cfg,
    } = statement;
    if *num_triggers == 0 || *signature_bits == 0 {
        return Err("a statement needs at least one trigger and one signature bit");
    }
    if *max_errors > *signature_bits as u64 {
        return Err("more tolerated bit errors than signature bits");
    }
    if model.input_len == 0 {
        return Err("empty model input");
    }
    let (f, s) = (cfg.frac_bits, cfg.sigmoid_frac_bits);
    // (also keeps every sum below clear of `u32` overflow)
    if f == 0 || s <= f || s > MAX_BITS || cfg.int_bits > MAX_BITS {
        return Err("fixed-point configuration out of range");
    }

    // the bounds the gadgets compute, and the limits they assert on them
    const WIDE: &str = "fixed-point values too wide for the circuit";
    let bit_len = |n: usize| usize::BITS - n.leading_zeros();
    let constant = |v: i128| Num::constant(Fr::from_i128(v)).bits;
    let add = |a: u32, b: u32| (a.max(b) + 1).min(MAX_BITS + 1); // Num::add / sub
    let mul = |a: u32, b: u32| (a + b <= MAX_BITS).then_some(a + b).ok_or(WIDE); // Num::mul
    let truncate = |x: u32, k: u32| {
        (k > 0 && k < MAX_BITS && x < MAX_BITS)
            .then(|| x.saturating_sub(k).max(1))
            .ok_or(WIDE)
    };
    let inner_product =
        |a: u32, b: u32, n: usize| mul(a, b).map(|term| (term + bit_len(n)).min(MAX_BITS + 1));
    // `is_negative(x)` then `flag.select(a, b)`, the flag being the
    // two-bit-wide complement of a decomposition bit
    let branch_on_sign = |x: u32, a: u32, b: u32| {
        (x < MAX_BITS).then_some(()).ok_or(WIDE)?;
        mul(2, add(a, b)).map(|_| ())
    };

    let value = cfg.value_bits();
    if value > MAX_BITS {
        return Err(WIDE);
    }
    let act_bits = value + 2;
    let mut act = value; // a trigger input
    let mut len = model.input_len;
    for layer in &model.layers {
        len = layer
            .checked_out_len(len)
            .ok_or("a layer does not fit the output of the one before it")?;
        // Dense and Conv are one inner product per output, then a bias
        // and a truncation back to the tensor scale
        let terms = match layer {
            QuantLayer::Dense { in_dim, .. } => *in_dim,
            QuantLayer::Conv { shape, .. } => shape.patch_len(),
            QuantLayer::ReLU => {
                branch_on_sign(act, 0, act)?;
                continue;
            }
            QuantLayer::MaxPool { size, .. } => {
                if *size > 1 {
                    branch_on_sign(act + 1, act, act)?;
                }
                continue;
            }
            QuantLayer::Identity => continue,
        };
        let acc = add(inner_product(value, act, terms)?, value + f);
        act = truncate(acc, f)?.min(act_bits);
    }
    len.checked_mul(*signature_bits)
        .ok_or("projection matrix size overflows")?;

    // zkAverage over the triggers
    let sum = (act + bit_len(num_triggers - 1)).min(MAX_BITS + 1); // Num::sum
    let mu = match *num_triggers {
        _ if *fold_average => sum,
        1 => sum,
        t if t.is_power_of_two() => truncate(sum, t.trailing_zeros())?,
        _ => (sum < MAX_BITS).then_some(sum).ok_or(WIDE)?, // div_by_const
    };
    // projection, rescaled to the tensor scale
    let projected = truncate(inner_product(mu, value, len)?, f)?.min(act_bits);
    // zkSigmoid: Horner over x² at scale s, truncating after every product
    let coeff = |k: usize| constant(encode_fixed(SIGMOID_COEFFS[k], s));
    let xs = (projected + s - f).min(SIGMOID_INPUT_INT_BITS + s);
    let x2 = truncate(mul(xs, xs)?, s)?;
    let mut acc = coeff(4);
    for k in (0..4).rev() {
        acc = add(truncate(mul(acc, x2)?, s)?, coeff(k));
    }
    let odd = truncate(mul(acc, xs)?, s)?;
    let squashed = truncate(add(odd, constant(1 << (s - 1))), s - f)?;
    // zkHardThresholding compares against ½; zkBER's counters are at most
    // 66 bits wide whatever the statement says
    (squashed + 1 < MAX_BITS).then_some(()).ok_or(WIDE)
}

impl<'a> ExtractionCircuit<'a> {
    /// The witness-free circuit described by a public statement — all a
    /// trusted-setup party (or a verifier recomputing a [`CircuitId`])
    /// ever needs.
    pub fn from_statement(statement: &'a OwnershipStatement) -> Self {
        Self {
            model: &statement.model,
            num_triggers: statement.num_triggers,
            signature_bits: statement.signature_bits,
            max_errors: statement.max_errors,
            fold_average: statement.fold_average,
            cfg: statement.cfg,
            witness: None,
        }
    }

    /// The setup-trace digest of this circuit.
    pub fn id(&self) -> CircuitId {
        CircuitId::of_circuit(self)
    }
}

impl Circuit<Fr> for ExtractionCircuit<'_> {
    /// The public verdict under the witness (`None` when the driver does
    /// not evaluate assignments).
    type Output = Option<bool>;

    fn synthesize<CS: ConstraintSystem<Fr>>(
        &self,
        cs: &mut CS,
    ) -> Result<Option<bool>, SynthesisError> {
        let f = self.cfg.frac_bits;
        let act_bits = self.cfg.value_bits() + 2; // activation head-room
        let w = self.witness;
        if let Some(w) = &w {
            assert_eq!(
                w.triggers.len(),
                self.num_triggers,
                "trigger count mismatch"
            );
            assert_eq!(
                w.signature.len(),
                self.signature_bits,
                "signature length mismatch"
            );
        }

        // -- public inputs: model parameters, layer by layer -------------
        let mut weight_nums: Vec<Vec<Num>> = Vec::new();
        let mut bias_nums: Vec<Vec<Num>> = Vec::new();
        {
            let mut ns = cs.ns("model-params");
            for layer in &self.model.layers {
                match layer {
                    QuantLayer::Dense { w, b, .. } | QuantLayer::Conv { w, b, .. } => {
                        let wn = w
                            .iter()
                            .map(|&v| {
                                Num::alloc_instance(
                                    &mut ns,
                                    || Ok(Fr::from_i128(v)),
                                    self.cfg.value_bits(),
                                )
                            })
                            .collect::<Result<_, _>>()?;
                        let bn = b
                            .iter()
                            .map(|&v| {
                                Num::alloc_instance(
                                    &mut ns,
                                    || Ok(Fr::from_i128(v)),
                                    self.cfg.value_bits(),
                                )
                            })
                            .collect::<Result<_, _>>()?;
                        weight_nums.push(wn);
                        bias_nums.push(bn);
                    }
                    QuantLayer::ReLU | QuantLayer::Identity | QuantLayer::MaxPool { .. } => {
                        weight_nums.push(Vec::new());
                        bias_nums.push(Vec::new());
                    }
                }
            }
        }

        // -- private witness: trigger keys --------------------------------
        let input_len = self.model.input_len;
        let trigger_nums: Vec<Vec<Num>> = {
            let mut ns = cs.ns("triggers");
            (0..self.num_triggers)
                .map(|t| {
                    if let Some(w) = &w {
                        assert_eq!(w.triggers[t].len(), input_len, "trigger length mismatch");
                    }
                    (0..input_len)
                        .map(|i| {
                            Num::alloc_witness(
                                &mut ns,
                                || assignment(w.map(|w| Fr::from_i128(w.triggers[t][i]))),
                                self.cfg.value_bits(),
                            )
                        })
                        .collect::<Result<_, _>>()
                })
                .collect::<Result<_, _>>()?
        };

        // -- zkFeedForward until l_wm, per trigger ------------------------
        let mut ff = cs.ns("feed-forward");
        let mut activations: Vec<Vec<Num>> = Vec::with_capacity(trigger_nums.len());
        for trig in trigger_nums {
            activations.push(feed_forward_layers(
                self.model,
                &self.cfg,
                &weight_nums,
                &bias_nums,
                trig,
                &mut ff,
            )?);
        }
        drop(ff);

        // -- zkAverage -----------------------------------------------------
        let m = self.model.output_len();
        let mu: Vec<Num> = if self.fold_average {
            // raw sums; the 1/T is inside the projection matrix
            (0..m)
                .map(|j| Num::sum(activations.iter().map(|a| &a[j])))
                .collect()
        } else {
            average_rows(&activations, &mut cs.ns("average"))?
        };

        // -- projection µ·A, rescaled to the tensor scale ------------------
        let n = self.signature_bits;
        if let Some(w) = &w {
            assert_eq!(w.projection.len(), m * n, "projection shape mismatch");
        }
        let mut proj_ns = cs.ns("projection");
        let proj_nums: Vec<Num> = (0..m * n)
            .map(|i| {
                Num::alloc_witness(
                    &mut proj_ns,
                    || assignment(w.map(|w| Fr::from_i128(w.projection[i]))),
                    self.cfg.value_bits(),
                )
            })
            .collect::<Result<_, _>>()?;
        let projections: Vec<Num> = (0..n)
            .map(|j| {
                let col = (0..m).map(|i| &proj_nums[i * n + j]);
                let acc = Num::inner_product(&mu, col, &mut proj_ns)?;
                let mut out = truncate(&acc, f, &mut proj_ns)?;
                out.bits = out.bits.min(act_bits);
                Ok(out)
            })
            .collect::<Result<_, SynthesisError>>()?;
        drop(proj_ns);

        // -- zkSigmoid + zkHardThresholding(0.5) ---------------------------
        let squashed = sigmoid_vec(&projections, &self.cfg, &mut cs.ns("sigmoid"))?;
        let half = Fr::from_i128(1i128 << (f - 1));
        let extracted = hard_threshold_vec(&squashed, half, &mut cs.ns("threshold"))?;

        // -- zkBER against the private signature ---------------------------
        let mut ber_ns = cs.ns("ber");
        let sig_bits: Vec<Bit> = (0..n)
            .map(|i| Bit::alloc(&mut ber_ns, || assignment(w.map(|w| w.signature[i]))))
            .collect::<Result<_, _>>()?;
        let valid = ber_check(&sig_bits, &extracted, self.max_errors, &mut ber_ns)?;

        // check = 1 ∧ valid_BER, exposed as the public verdict
        let verdict = valid.value();
        valid.num.expose_as_output(&mut ber_ns)?;

        Ok(verdict)
    }
}

impl ExtractionSpec {
    /// The public half of this spec: everything a verifier needs, nothing
    /// the prover must keep secret (no triggers, projection or signature —
    /// only their dimensions). The statement's fixed-point configuration is
    /// canonical: the embedded model is normalized to it.
    pub fn statement(&self) -> OwnershipStatement {
        debug_assert_eq!(
            self.model.cfg, self.cfg,
            "spec and model disagree on the fixed-point configuration"
        );
        let mut model = self.model.clone();
        model.cfg = self.cfg;
        let statement = OwnershipStatement {
            model,
            num_triggers: self.triggers.len(),
            signature_bits: self.signature.len(),
            max_errors: self.max_errors,
            fold_average: self.fold_average,
            cfg: self.cfg,
        };
        debug_assert_eq!(
            check_synthesizable(&statement),
            Ok(()),
            "no verifier will decode this spec's statement"
        );
        statement
    }

    /// The fully-witnessed circuit, borrowing this spec's model and
    /// secrets — ready for a proving-mode synthesis.
    pub fn circuit(&self) -> ExtractionCircuit<'_> {
        ExtractionCircuit {
            witness: Some(ExtractionWitness {
                triggers: &self.triggers,
                projection: &self.projection,
                signature: &self.signature,
            }),
            ..self.shape_circuit()
        }
    }

    /// The same circuit *without* its witness — what setup (and
    /// [`CircuitId`] derivation) run on. Any attempt to synthesize it with
    /// a witnessing driver fails with
    /// [`SynthesisError::AssignmentMissing`]; shape-only drivers never
    /// notice the difference.
    pub fn shape_circuit(&self) -> ExtractionCircuit<'_> {
        ExtractionCircuit {
            model: &self.model,
            num_triggers: self.triggers.len(),
            signature_bits: self.signature.len(),
            max_errors: self.max_errors,
            fold_average: self.fold_average,
            cfg: self.cfg,
            witness: None,
        }
    }

    /// The circuit digest (same shape ⇒ same circuit ⇒ same trusted-setup
    /// keys): the hash of the setup-mode synthesis trace. Borrowed data
    /// only — no model clone, no witness access.
    pub fn circuit_id(&self) -> CircuitId {
        self.shape_circuit().id()
    }

    /// Synthesizes the full extraction circuit in proving mode.
    ///
    /// # Panics
    /// Panics on shape mismatches between the model, triggers, projection
    /// and signature.
    pub fn build(&self) -> Result<BuiltCircuit, SynthesisError> {
        let mut cs = ProvingSynthesizer::new();
        let verdict = self.circuit().synthesize(&mut cs)?;
        Ok(BuiltCircuit {
            cs,
            verdict: verdict.expect("proving synthesis evaluates every assignment"),
        })
    }

    /// The verifier-side public input vector: model parameters followed by
    /// the expected verdict (1 = ownership established). Excludes the
    /// implicit leading constant.
    pub fn public_inputs(&self, expected_verdict: bool) -> Vec<Fr> {
        let mut out: Vec<Fr> = self
            .model
            .params_in_order()
            .iter()
            .map(|&v| Fr::from_i128(v))
            .collect();
        out.push(Fr::from_i128(i128::from(expected_verdict)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::QuantizedModel;
    use crate::reference::extract_fixed;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use zkrownn_ff::Field;
    use zkrownn_nn::{Dense, Layer, Network};
    use zkrownn_r1cs::{
        CountingSynthesizer, LinearCombination, R1csMatrices, SetupSynthesizer, Variable,
    };

    fn tiny_spec(seed: u64, fold: bool) -> ExtractionSpec {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = Network::new(vec![Layer::Dense(Dense::new(6, 5, &mut rng)), Layer::ReLU]);
        let cfg = FixedConfig::default();
        let model = QuantizedModel::from_network(&net, 1, 6, &cfg);
        let triggers: Vec<Vec<i128>> = (0..3)
            .map(|k| {
                (0..6)
                    .map(|i| cfg.encode(((i + k) as f64 - 3.0) / 2.0))
                    .collect()
            })
            .collect();
        let projection: Vec<i128> = (0..5 * 4)
            .map(|i| cfg.encode(((i % 7) as f64 - 3.0) / 2.0))
            .collect();
        ExtractionSpec {
            model,
            triggers,
            projection,
            signature: vec![true, false, true, false],
            max_errors: 4,
            fold_average: fold,
            cfg,
        }
    }

    #[test]
    fn circuit_is_satisfiable_and_matches_reference() {
        for fold in [false, true] {
            let spec = tiny_spec(281, fold);
            let built = spec.build().unwrap();
            assert!(built.cs.is_satisfied().is_ok(), "fold = {fold}");
            let reference = extract_fixed(
                &spec.model,
                &spec.triggers,
                &spec.projection,
                &spec.signature,
                spec.fold_average,
                &spec.cfg,
            );
            let expected_verdict = reference.errors as u64 <= spec.max_errors;
            assert_eq!(built.verdict, expected_verdict, "fold = {fold}");
        }
    }

    #[test]
    fn tight_threshold_flips_verdict() {
        let mut spec = tiny_spec(282, false);
        let reference = extract_fixed(
            &spec.model,
            &spec.triggers,
            &spec.projection,
            &spec.signature,
            false,
            &spec.cfg,
        );
        // random projection → some errors are overwhelmingly likely
        if reference.errors > 0 {
            spec.max_errors = reference.errors as u64 - 1;
            let built = spec.build().unwrap();
            assert!(built.cs.is_satisfied().is_ok());
            assert!(!built.verdict);
        }
    }

    #[test]
    fn witness_free_setup_synthesis_matches_proving_structure() {
        let spec = tiny_spec(283, false);
        let built = spec.build().unwrap();
        // the shape circuit carries no witness at all, and setup synthesis
        // must still produce the identical structure
        let mut setup = SetupSynthesizer::<Fr>::new();
        spec.shape_circuit().synthesize(&mut setup).unwrap();
        assert_eq!(
            built.cs.num_constraints(),
            setup.num_constraints(),
            "setup and proving circuits must agree"
        );
        assert_eq!(
            built.cs.num_instance_variables(),
            setup.num_instance_variables()
        );
        assert_eq!(
            built.cs.num_witness_variables(),
            setup.num_witness_variables()
        );
    }

    #[test]
    fn statement_circuit_matches_spec_circuit_id() {
        let spec = tiny_spec(285, true);
        let statement = spec.statement();
        assert_eq!(spec.circuit_id(), statement.circuit_id());
        // a different shape (one more signature bit) changes the id
        let mut other = tiny_spec(285, true);
        other.signature.push(true);
        other.projection.extend(vec![0; 5]);
        assert_ne!(spec.circuit_id(), other.circuit_id());
        // …but different *values* with the same shape do not
        let mut same_shape = tiny_spec(285, true);
        same_shape.projection.iter_mut().for_each(|v| *v = 0);
        for t in same_shape.triggers.iter_mut() {
            t.iter_mut().for_each(|v| *v = 0);
        }
        assert_eq!(spec.circuit_id(), same_shape.circuit_id());
    }

    /// `check_synthesizable` replays the gadgets' width bookkeeping; this
    /// holds it to the gadgets themselves, in both directions, on
    /// well-chained statements where only the fixed-point configuration,
    /// the trigger count and the averaging mode vary: it accepts exactly
    /// the statements whose synthesis does not panic. (Too lax and a
    /// decoded claim kills a verifier; too strict and a working
    /// configuration stops decoding.)
    #[test]
    fn the_width_check_is_exact() {
        use rand::Rng;
        use zkrownn_gadgets::conv::ConvShape;
        let mut rng = rand::rngs::StdRng::seed_from_u64(288);
        let dense = |in_dim: usize, out_dim: usize| QuantLayer::Dense {
            in_dim,
            out_dim,
            w: vec![1; in_dim * out_dim],
            b: vec![1; out_dim],
        };
        let conv = QuantLayer::Conv {
            shape: ConvShape {
                in_channels: 2,
                height: 3,
                width: 3,
                out_channels: 2,
                kernel: 2,
                stride: 1,
            },
            w: vec![1; 2 * 2 * 2 * 2],
            b: vec![1; 2],
        };
        let pool = QuantLayer::MaxPool {
            channels: 2,
            height: 2,
            width: 2,
            size: 2,
            stride: 1,
        };
        let models = [
            (5, vec![dense(5, 3), QuantLayer::ReLU]),
            (18, vec![conv, QuantLayer::ReLU, pool, dense(2, 2)]),
            (2, vec![QuantLayer::Identity]),
            (3, vec![dense(3, 4), dense(4, 2), dense(2, 2)]),
        ];
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..400 {
            let (input_len, layers) = models[rng.gen_range(0..models.len())].clone();
            // mostly the neighbourhood of working configurations, where
            // the limits are; sometimes anything
            let cfg = if rng.gen_range(0..4) > 0 {
                let frac_bits = rng.gen_range(1u32..=24);
                FixedConfig {
                    frac_bits,
                    sigmoid_frac_bits: frac_bits + rng.gen_range(0u32..=24),
                    int_bits: rng.gen_range(0..=40),
                }
            } else {
                FixedConfig {
                    frac_bits: rng.gen_range(0..=44),
                    sigmoid_frac_bits: rng.gen_range(0..=130),
                    int_bits: rng.gen_range(0..=125),
                }
            };
            let signature_bits = rng.gen_range(1..=3);
            let statement = OwnershipStatement {
                model: QuantizedModel {
                    layers,
                    input_len,
                    cfg,
                },
                num_triggers: rng.gen_range(1..=5),
                signature_bits,
                max_errors: rng.gen_range(0..=signature_bits as u64),
                fold_average: rng.gen(),
                cfg,
            };
            let verdict = check_synthesizable(&statement);
            let survives = std::panic::catch_unwind(|| statement.circuit_id()).is_ok();
            assert_eq!(
                verdict.is_ok(),
                survives,
                "{verdict:?} for {cfg:?}, T = {}, fold = {}, input_len = {input_len}",
                statement.num_triggers,
                statement.fold_average
            );
            if survives {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(accepted > 60 && rejected > 60, "{accepted} / {rejected}");
    }

    #[test]
    fn proving_the_shape_circuit_reports_missing_witness() {
        let spec = tiny_spec(286, false);
        let mut cs = ProvingSynthesizer::<Fr>::new();
        assert_eq!(
            spec.shape_circuit().synthesize(&mut cs).unwrap_err(),
            SynthesisError::AssignmentMissing
        );
    }

    #[test]
    fn counting_synthesizer_reports_per_stage_density() {
        let spec = tiny_spec(287, false);
        let mut count = CountingSynthesizer::<Fr>::new();
        spec.shape_circuit().synthesize(&mut count).unwrap();
        let built = spec.build().unwrap();
        assert_eq!(count.num_constraints(), built.cs.num_constraints());
        let ns = count.by_namespace();
        for stage in ["feed-forward", "average", "projection", "sigmoid", "ber"] {
            assert!(
                ns.get(stage).map(|c| c.constraints > 0).unwrap_or(false),
                "stage {stage} missing from density report: {:?}",
                ns.keys().collect::<Vec<_>>()
            );
        }
        assert!(count.report().contains("sigmoid"));
    }

    /// The proving driver with one witness cell off by one: the
    /// `target`-th `alloc_witness` gets its value plus one. Every gadget
    /// keeps computing its auxiliary cells from the values it meant to
    /// allocate, so the perturbed assignment is an honest one with exactly
    /// one cell changed. With `cells` set, also records the namespace path
    /// of every witness cell, in allocation order.
    struct PerturbOne {
        cs: ProvingSynthesizer<Fr>,
        target: usize,
        allocated: usize,
        path: Vec<String>,
        cells: Option<Vec<String>>,
    }

    impl PerturbOne {
        fn new(target: usize, record_cells: bool) -> Self {
            Self {
                cs: ProvingSynthesizer::new(),
                target,
                allocated: 0,
                path: Vec::new(),
                cells: record_cells.then(Vec::new),
            }
        }
    }

    impl ConstraintSystem<Fr> for PerturbOne {
        fn alloc_instance<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
        where
            V: FnOnce() -> Result<Fr, SynthesisError>,
        {
            self.cs.alloc_instance(value)
        }

        fn alloc_witness<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
        where
            V: FnOnce() -> Result<Fr, SynthesisError>,
        {
            if let Some(cells) = &mut self.cells {
                cells.push(self.path.join("/"));
            }
            let off = if self.allocated == self.target {
                Fr::one()
            } else {
                Fr::zero()
            };
            self.allocated += 1;
            self.cs.alloc_witness(|| Ok(value()? + off))
        }

        fn enforce(
            &mut self,
            a: LinearCombination<Fr>,
            b: LinearCombination<Fr>,
            c: LinearCombination<Fr>,
        ) {
            self.cs.enforce(a, b, c)
        }

        fn push_namespace(&mut self, name: &str) {
            self.cs.push_namespace(name);
            self.path.push(name.into());
        }

        fn pop_namespace(&mut self) {
            self.cs.pop_namespace();
            self.path.pop();
        }
    }

    /// The first row of `m` that `z` violates: the relation a proof over
    /// setup's matrices is made for.
    fn first_violated(m: &R1csMatrices<Fr>, z: &[Fr]) -> Result<(), usize> {
        let [a, b, c] = [m.a(), m.b(), m.c()].map(|matrix| matrix.row_products(z));
        match a.zip(b).zip(c).position(|((a, b), c)| a * b != c) {
            Some(row) => Err(row),
            None => Ok(()),
        }
    }

    /// Every witness cell of the end-to-end circuit, one at a time, off by
    /// one: (a) the prover's row-by-row check names the same first row that
    /// setup's matrices reject, and (b) a perturbation the system accepts
    /// sits in a private input — a trigger entry, a projection entry or a
    /// signature bit, whose value the owner chooses — never in a gadget's
    /// auxiliary cell. An auxiliary cell that stays satisfied is an
    /// under-constrained gadget.
    #[test]
    fn every_witness_cell_perturbation_is_caught_or_a_private_input() {
        let sweep = |fold: bool| {
            let spec = tiny_spec(283, fold);
            let (m, n) = (spec.model.output_len(), spec.signature.len());
            let mut setup = SetupSynthesizer::<Fr>::new();
            spec.shape_circuit().synthesize(&mut setup).unwrap();
            let matrices = setup.into_parts().0;

            let mut unperturbed = PerturbOne::new(usize::MAX, true);
            spec.circuit().synthesize(&mut unperturbed).unwrap();
            assert!(unperturbed.cs.is_satisfied().is_ok(), "fold = {fold}");
            let paths = unperturbed.cells.expect("recorded");
            assert_eq!(paths.len(), matrices.num_witness(), "fold = {fold}");
            // the private inputs: every `triggers` cell, the first m·n
            // `projection` cells (the inner products' cells follow) and
            // the first n `ber` cells (the signature bits)
            let mut per_path = BTreeMap::<&str, usize>::new();
            let private: Vec<bool> = paths
                .iter()
                .map(|path| {
                    let ordinal = per_path.entry(path).or_default();
                    *ordinal += 1;
                    match path.as_str() {
                        "triggers" => true,
                        "projection" => *ordinal <= m * n,
                        "ber" => *ordinal <= n,
                        _ => false,
                    }
                })
                .collect();

            for (k, path) in paths.iter().enumerate() {
                let mut cs = PerturbOne::new(k, false);
                spec.circuit().synthesize(&mut cs).unwrap();
                let verdict = cs.cs.is_satisfied();
                let z = cs.cs.full_assignment();
                assert_eq!(
                    verdict,
                    first_violated(&matrices, &z),
                    "fold = {fold}, cell {k} under {path:?}"
                );
                assert!(
                    verdict.is_err() || private[k],
                    "fold = {fold}: auxiliary cell {k} under {path:?} is unconstrained"
                );
            }
        };
        std::thread::scope(|scope| {
            scope.spawn(|| sweep(true));
            sweep(false);
        });
    }

    #[test]
    fn public_inputs_match_instance_assignment() {
        let spec = tiny_spec(284, false);
        let built = spec.build().unwrap();
        let expected = spec.public_inputs(built.verdict);
        // instance_assignment[0] is the constant 1
        assert_eq!(built.cs.instance_assignment().len(), expected.len() + 1);
        for (got, want) in built.cs.instance_assignment()[1..].iter().zip(&expected) {
            assert_eq!(got, want);
        }
    }
}
