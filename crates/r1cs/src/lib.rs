//! # zkrownn-r1cs — mode-aware rank-1 constraint synthesis
//!
//! The circuit representation consumed by the Groth16 backend: a list of
//! constraints `⟨A_j, z⟩ · ⟨B_j, z⟩ = ⟨C_j, z⟩` over the assignment vector
//! `z = (1, instance…, witness…)`.
//!
//! ZKROWNN's trusted setup is run by a party that holds *no* witness (the
//! trigger keys, projection matrix and signature stay with the model
//! owner), so the API separates circuit **structure** from witness
//! **assignment**:
//!
//! * a circuit is a type implementing [`Circuit`]: one `synthesize` method
//!   describing allocations and constraints, with assignment values behind
//!   `FnOnce` closures;
//! * a driver is a type implementing [`ConstraintSystem`], deciding what to
//!   do with each event. Four drivers ship with the crate:
//!
//! | driver | evaluates value closures? | produces |
//! |---|---|---|
//! | [`SetupSynthesizer`] | **never** | constraint matrices + optional shape trace ([`ShapeSink`]) |
//! | [`TraceSynthesizer`] | **never** | the shape trace only — nothing is stored (what a shape digest runs on) |
//! | [`ProvingSynthesizer`] | always | matrices + the dense assignment `z` |
//! | [`CountingSynthesizer`] | never | constraint/variable counts, per-namespace density |
//!
//! Because the setup driver never calls a witness closure, "setup sees no
//! witness" is enforced by construction rather than by convention — a
//! closure that would panic on evaluation is perfectly fine to synthesize
//! in setup or counting mode (and tests assert exactly that). The same
//! [`Circuit`] value drives every mode, so the structure agreeing between
//! setup and proving is guaranteed by having only one description of it.
//!
//! ## What synthesis costs
//!
//! Every party synthesizes — the authority and a stateless verifier per
//! claim, setup once, the prover per proof — so the cost model of the one
//! combination type is part of the API: a [`LinearCombination`] of at most
//! one term (98–99 % of those a circuit hands to
//! [`ConstraintSystem::enforce`]) lives inline and never touches the
//! heap, the drivers normalize in place, and long sums are accumulated
//! into one buffer. Its docs have the representation and the rules; none
//! of it shows in the matrices or in a byte of the shape trace, and the
//! gate on it is a count, not a timing
//! (`crates/bench/tests/synthesis_allocations.rs`).
//!
//! ```
//! use zkrownn_r1cs::{
//!     assignment, Circuit, ConstraintSystem, CountingSynthesizer, LinearCombination,
//!     ProvingSynthesizer, SetupSynthesizer, SynthesisError,
//! };
//! use zkrownn_ff::{Field, Fr, PrimeField};
//!
//! /// Prove knowledge of a factorization `n = p·q`.
//! struct Factors {
//!     n: u64,
//!     pq: Option<(u64, u64)>, // the witness — absent on the setup side
//! }
//!
//! impl Circuit<Fr> for Factors {
//!     type Output = ();
//!     fn synthesize<CS: ConstraintSystem<Fr>>(
//!         &self,
//!         cs: &mut CS,
//!     ) -> Result<(), SynthesisError> {
//!         let n = cs.alloc_instance(|| Ok(Fr::from_u64(self.n)))?;
//!         let pq = self.pq;
//!         let p = cs.alloc_witness(|| assignment(pq.map(|(p, _)| Fr::from_u64(p))))?;
//!         let q = cs.alloc_witness(|| assignment(pq.map(|(_, q)| Fr::from_u64(q))))?;
//!         cs.enforce(p.into(), q.into(), n.into());
//!         Ok(())
//!     }
//! }
//!
//! // the authority synthesizes the shape without ever seeing a witness…
//! let mut setup = SetupSynthesizer::<Fr>::new();
//! Factors { n: 35, pq: None }.synthesize(&mut setup)?;
//! let matrices = setup.to_matrices();
//!
//! // …the prover synthesizes the same circuit with the dense assignment…
//! let mut prove = ProvingSynthesizer::<Fr>::new();
//! Factors { n: 35, pq: Some((5, 7)) }.synthesize(&mut prove)?;
//! assert!(prove.is_satisfied().is_ok());
//!
//! // …and both agree on the structure, as does the diagnostics driver.
//! let mut count = CountingSynthesizer::<Fr>::new();
//! Factors { n: 35, pq: None }.synthesize(&mut count)?;
//! assert_eq!(matrices.num_constraints(), count.num_constraints());
//! assert_eq!(prove.num_constraints(), count.num_constraints());
//! # Ok::<(), zkrownn_r1cs::SynthesisError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(feature = "std"), no_std)]

extern crate alloc;

use alloc::collections::BTreeMap;
use alloc::format;
use alloc::string::String;
use alloc::vec;
use alloc::vec::Vec;
use zkrownn_ff::PrimeField;

/// A variable in the constraint system.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Variable {
    /// The constant 1 (index 0 of the instance block).
    One,
    /// `i`-th public-input variable (1-based column in the instance block).
    Instance(usize),
    /// `i`-th private witness variable.
    Witness(usize),
}

impl Variable {
    fn sort_key(&self) -> (u8, usize) {
        match self {
            Variable::One => (0, 0),
            Variable::Instance(i) => (1, *i),
            Variable::Witness(i) => (2, *i),
        }
    }
}

/// A sparse linear combination `Σ coeff·var`.
///
/// # Representation
///
/// Zero or one term is held **inline**, in the value itself; the heap is
/// touched only when a second term arrives, and from then on the terms
/// live in a `Vec`. One is a constant, not a parameter: on the two
/// quick-scale extraction circuits 97.8 % (CNN) and 99.0 % (MLP) of the
/// combinations handed to [`ConstraintSystem::enforce`] have at most one
/// term — the CNN's histogram over 0 / 1 / 2 / 3+ terms is 2 553 /
/// 256 112 / 3 169 / 2 553 — because a circuit is mostly booleanity
/// (`b·b = b`) and single products (`x·y = z`). The storage is private;
/// read it through [`Self::terms`]. Equality compares terms, not storage.
///
/// # Cost model
///
/// "Linear operations are free" means no constraint *and*, for a
/// combination of one term, no allocation: [`From<Variable>`],
/// [`Self::constant`], [`Self::scale`], `clone()` and the move into
/// `enforce` are plain copies. A longer combination costs one buffer.
/// What is never free is building a long sum by `acc = acc + term` over
/// clones — accumulate with the in-place forms (`+=`, `-=`,
/// [`Self::add_scaled`]) into a combination sized once with
/// [`Self::with_capacity`].
///
/// # Normal form
///
/// [`Self::add_term`] merges duplicate variables eagerly (and drops terms
/// whose coefficient cancels to zero), so combinations built term-by-term
/// stay normalized. `+`, `-` and the in-place forms concatenate for
/// speed; every driver normalizes at [`ConstraintSystem::enforce`] via
/// [`Self::compact`], so the stored matrices are canonical either way.
#[derive(Clone)]
pub struct LinearCombination<F: PrimeField>(Terms<F>);

/// Where a combination keeps its terms.
#[derive(Clone)]
enum Terms<F> {
    /// Zero or one term, in place.
    Inline(Option<(Variable, F)>),
    /// A second term has arrived at some point (cancellation may since
    /// have left fewer; the buffer is kept).
    Heap(Vec<(Variable, F)>),
}

impl<F: PrimeField> LinearCombination<F> {
    /// The empty (zero) combination.
    pub fn zero() -> Self {
        Self(Terms::Inline(None))
    }

    /// An empty combination with room for `terms` terms — nothing is
    /// allocated below two.
    pub fn with_capacity(terms: usize) -> Self {
        if terms <= 1 {
            Self::zero()
        } else {
            Self(Terms::Heap(Vec::with_capacity(terms)))
        }
    }

    /// The constant `c` (as `c · 1`).
    pub fn constant(c: F) -> Self {
        if c.is_zero() {
            Self::zero()
        } else {
            Self(Terms::Inline(Some((Variable::One, c))))
        }
    }

    /// The terms, in the order they were added (canonical order after
    /// [`Self::compact`]).
    pub fn terms(&self) -> &[(Variable, F)] {
        match &self.0 {
            Terms::Inline(term) => term.as_slice(),
            Terms::Heap(terms) => terms,
        }
    }

    fn terms_mut(&mut self) -> &mut [(Variable, F)] {
        match &mut self.0 {
            Terms::Inline(term) => term.as_mut_slice(),
            Terms::Heap(terms) => terms,
        }
    }

    /// Appends one term as it is — no merging, no zero check.
    fn push(&mut self, var: Variable, coeff: F) {
        match &mut self.0 {
            Terms::Inline(slot @ None) => *slot = Some((var, coeff)),
            Terms::Inline(Some(first)) => self.0 = Terms::Heap(vec![*first, (var, coeff)]),
            Terms::Heap(terms) => terms.push((var, coeff)),
        }
    }

    /// Returns `self + coeff·var`, merging eagerly: if `var` already has a
    /// term the coefficients are added, and a term whose coefficient
    /// becomes zero is elided.
    pub fn add_term(mut self, coeff: F, var: Variable) -> Self {
        if coeff.is_zero() {
            return self;
        }
        let Some(pos) = self.terms().iter().position(|(v, _)| *v == var) else {
            self.push(var, coeff);
            return self;
        };
        let merged = &mut self.terms_mut()[pos].1;
        *merged += coeff;
        if merged.is_zero() {
            match &mut self.0 {
                Terms::Inline(term) => *term = None,
                Terms::Heap(terms) => drop(terms.remove(pos)),
            }
        }
        self
    }

    /// Returns `self · c`.
    pub fn scale(mut self, c: F) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        for (_, coeff) in self.terms_mut() {
            *coeff *= c;
        }
        self
    }

    /// `self += c · other` in place, concatenating like `+` (no clone of
    /// either side, and no allocation while `self` has room).
    pub fn add_scaled(&mut self, other: &Self, c: F) {
        if c.is_zero() {
            return;
        }
        // `other` is most often a bare variable (a decomposition bit
        // being weighted): no field multiplication for that
        let scaled = |coeff: &F| if coeff.is_one() { c } else { *coeff * c };
        self.extend(other.terms().iter().map(|(v, coeff)| (*v, scaled(coeff))));
    }

    /// Sorts by variable, merges duplicates and drops zero coefficients —
    /// the canonical form every driver applies at `enforce`. Works in
    /// place, and returns at once when the terms are already strictly
    /// sorted with no zero coefficient — every combination of one term,
    /// and every one that has been through here before.
    pub fn compact(mut self) -> Self {
        match &mut self.0 {
            Terms::Inline(term) => {
                // a test, not `*term = term.filter(..)`: this is the path
                // of 98 % of combinations, and rewriting the slot each
                // time measured 7 % of a whole `circuit_id()`
                if term.is_some_and(|(_, c)| c.is_zero()) {
                    *term = None;
                }
            }
            Terms::Heap(terms) => {
                let canonical = terms.iter().all(|(_, c)| !c.is_zero())
                    && terms
                        .windows(2)
                        .all(|pair| pair[0].0.sort_key() < pair[1].0.sort_key());
                if !canonical {
                    // equal variables are summed and field addition
                    // commutes, so the order among them cannot show
                    terms.sort_unstable_by_key(|(v, _)| v.sort_key());
                    terms.dedup_by(|later, kept| {
                        let same = later.0 == kept.0;
                        if same {
                            kept.1 += later.1;
                        }
                        same
                    });
                    terms.retain(|(_, c)| !c.is_zero());
                }
            }
        }
        self
    }
}

impl<F: PrimeField> Default for LinearCombination<F> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<F: PrimeField> PartialEq for LinearCombination<F> {
    fn eq(&self, other: &Self) -> bool {
        self.terms() == other.terms()
    }
}

impl<F: PrimeField> Eq for LinearCombination<F> {}

impl<F: PrimeField> core::fmt::Debug for LinearCombination<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("LinearCombination")
            .field(&self.terms())
            .finish()
    }
}

impl<F: PrimeField> From<Variable> for LinearCombination<F> {
    fn from(v: Variable) -> Self {
        Self(Terms::Inline(Some((v, F::one()))))
    }
}

/// Appends terms as they come — duplicates and zero coefficients
/// included, exactly as `+` would leave them; [`LinearCombination::compact`]
/// normalizes.
impl<F: PrimeField> Extend<(Variable, F)> for LinearCombination<F> {
    fn extend<I: IntoIterator<Item = (Variable, F)>>(&mut self, terms: I) {
        for (v, c) in terms {
            self.push(v, c);
        }
    }
}

/// Collects terms as [`Extend`] appends them, into a combination sized
/// from the iterator.
impl<F: PrimeField> FromIterator<(Variable, F)> for LinearCombination<F> {
    fn from_iter<I: IntoIterator<Item = (Variable, F)>>(terms: I) -> Self {
        let terms = terms.into_iter();
        let mut lc = Self::with_capacity(terms.size_hint().0);
        lc.extend(terms);
        lc
    }
}

impl<F: PrimeField> core::ops::AddAssign<&Self> for LinearCombination<F> {
    fn add_assign(&mut self, rhs: &Self) {
        self.extend(rhs.terms().iter().copied());
    }
}

impl<F: PrimeField> core::ops::SubAssign<&Self> for LinearCombination<F> {
    fn sub_assign(&mut self, rhs: &Self) {
        self.extend(rhs.terms().iter().map(|(v, c)| (*v, -*c)));
    }
}

impl<F: PrimeField> core::ops::Add for LinearCombination<F> {
    type Output = Self;
    fn add(mut self, rhs: Self) -> Self {
        self += &rhs;
        self
    }
}

impl<F: PrimeField> core::ops::Sub for LinearCombination<F> {
    type Output = Self;
    fn sub(mut self, rhs: Self) -> Self {
        self -= &rhs;
        self
    }
}

impl<F: PrimeField> core::ops::Neg for LinearCombination<F> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::zero() - self
    }
}

/// The witness half of `z = (1, instance…, witness…)`, as a bit on a stored
/// column. A synthesizer writes a term before it knows how many instance
/// variables there will be (the extraction circuit allocates its verdict
/// last), so what is stored is the variable's index within its own half of
/// `z`; a reader that wants the column adds `num_instance` to a witness
/// index, and the kernels take `z` as its two halves and add nothing.
const WITNESS: usize = 1 << (usize::BITS - 1);

/// One sparse matrix in compressed-row form: the terms of every row back
/// to back, and where each row stops.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Csr<F> {
    /// Per term, its variable: the index within its half of `z`, with
    /// [`WITNESS`] set for the witness half.
    cols: Vec<usize>,
    /// Per term, its coefficient.
    coeffs: Vec<F>,
    /// Per row, the index one past its last term.
    ends: Vec<usize>,
}

impl<F: PrimeField> Csr<F> {
    /// Appends a compacted combination as the next row.
    fn push_row(&mut self, lc: &LinearCombination<F>) {
        let terms = lc.terms();
        self.cols.extend(terms.iter().map(|(var, _)| match *var {
            Variable::One => 0,
            Variable::Instance(i) => i,
            Variable::Witness(i) => WITNESS | i,
        }));
        self.coeffs.extend(terms.iter().map(|(_, coeff)| *coeff));
        self.ends.push(self.cols.len());
    }

    /// Row `i`: its stored columns and its coefficients.
    fn row(&self, i: usize) -> (&[usize], &[F]) {
        let start = i.checked_sub(1).map_or(0, |above| self.ends[above]);
        let terms = start..self.ends[i];
        (&self.cols[terms.clone()], &self.coeffs[terms])
    }

    /// Every row in order, as [`Self::row`] gives them.
    fn rows(&self) -> impl Iterator<Item = (&[usize], &[F])> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let terms = core::mem::replace(&mut start, end)..end;
            (&self.cols[terms.clone()], &self.coeffs[terms])
        })
    }

    /// The row·`z` kernel: `⟨row, z⟩` for every row in order, over `z`
    /// as its two halves.
    fn row_products<'a>(
        &'a self,
        instance: &'a [F],
        witness: &'a [F],
    ) -> impl Iterator<Item = F> + 'a {
        self.rows().map(move |(cols, coeffs)| {
            cols.iter()
                .zip(coeffs)
                .fold(F::zero(), |acc, (&col, coeff)| {
                    let value = if col & WITNESS == 0 {
                        instance[col]
                    } else {
                        witness[col ^ WITNESS]
                    };
                    acc + value * *coeff
                })
        })
    }
}

/// The constraint matrices `A`, `B`, `C` of a circuit — the one form a
/// constraint system is stored in: per matrix one column array, one
/// coefficient array and one row-offset array. [`SetupSynthesizer`] and
/// [`ProvingSynthesizer`] append to it as they `enforce`, and nothing else
/// can build one, so every column is a variable that was allocated and the
/// three matrices have one height.
///
/// Columns are indices into `z = (1, instance…, witness…)`: column 0 is
/// the constant, columns `1..num_instance` the public inputs, and the rest
/// the witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct R1csMatrices<F> {
    store: [Csr<F>; 3],
    num_instance: usize,
    num_witness: usize,
}

impl<F: PrimeField> R1csMatrices<F> {
    /// Number of constraints — the height of each matrix.
    pub fn num_constraints(&self) -> usize {
        self.store[0].ends.len()
    }

    /// Size of the instance block (including the leading 1).
    pub fn num_instance(&self) -> usize {
        self.num_instance
    }

    /// Number of witness variables.
    pub fn num_witness(&self) -> usize {
        self.num_witness
    }

    /// Length of `z`: the width of each matrix.
    pub fn num_variables(&self) -> usize {
        self.num_instance + self.num_witness
    }

    /// The `A` matrix (left factors).
    pub fn a(&self) -> Matrix<'_, F> {
        self.matrix(0)
    }

    /// The `B` matrix (right factors).
    pub fn b(&self) -> Matrix<'_, F> {
        self.matrix(1)
    }

    /// The `C` matrix (products).
    pub fn c(&self) -> Matrix<'_, F> {
        self.matrix(2)
    }

    fn matrix(&self, which: usize) -> Matrix<'_, F> {
        Matrix {
            csr: &self.store[which],
            num_instance: self.num_instance,
        }
    }
}

/// One of the three matrices of an [`R1csMatrices`].
#[derive(Clone, Copy, Debug)]
pub struct Matrix<'a, F> {
    csr: &'a Csr<F>,
    num_instance: usize,
}

impl<'a, F: PrimeField> Matrix<'a, F> {
    /// Row `i`.
    ///
    /// # Panics
    /// Panics if there is no such row.
    pub fn row(&self, i: usize) -> Row<'a, F> {
        self.view(self.csr.row(i))
    }

    /// Every row, in constraint order.
    pub fn rows(&self) -> impl Iterator<Item = Row<'a, F>> + 'a {
        let matrix = *self;
        matrix.csr.rows().map(move |row| matrix.view(row))
    }

    fn view(&self, (cols, coeffs): (&'a [usize], &'a [F])) -> Row<'a, F> {
        Row {
            cols,
            coeffs,
            num_instance: self.num_instance,
        }
    }

    /// `⟨row, z⟩` for every row in order — the matrix times the full
    /// assignment.
    ///
    /// # Panics
    /// Panics if `z` is shorter than the instance block; yielding a row
    /// panics if `z` does not reach one of its columns.
    pub fn row_products(&self, z: &'a [F]) -> impl Iterator<Item = F> + 'a {
        let (instance, witness) = z.split_at(self.num_instance);
        self.csr.row_products(instance, witness)
    }

    /// `columns[col] += coeff · row_weights[row]` over every term — the
    /// transposed matrix times a vector of row weights, added into
    /// `columns`.
    ///
    /// # Panics
    /// Panics if `columns` does not reach every column, or `row_weights`
    /// every row.
    pub fn accumulate_columns(&self, row_weights: &[F], columns: &mut [F]) {
        let (instance, witness) = columns.split_at_mut(self.num_instance);
        let row_weights = &row_weights[..self.csr.ends.len()];
        for ((cols, coeffs), weight) in self.csr.rows().zip(row_weights) {
            for (&col, coeff) in cols.iter().zip(coeffs) {
                let column = if col & WITNESS == 0 {
                    &mut instance[col]
                } else {
                    &mut witness[col ^ WITNESS]
                };
                *column += *coeff * *weight;
            }
        }
    }
}

/// One row of a [`Matrix`]: a compacted linear combination, its variables
/// lowered to columns of `z`.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a, F> {
    cols: &'a [usize],
    coeffs: &'a [F],
    num_instance: usize,
}

impl<'a, F: PrimeField> Row<'a, F> {
    /// The terms as `(column of z, coefficient)`, in canonical order:
    /// ascending columns, no zero coefficient.
    pub fn iter(&self) -> impl Iterator<Item = (usize, F)> + 'a {
        let num_instance = self.num_instance;
        let column = move |col: usize| match col & WITNESS {
            0 => col,
            _ => num_instance + (col ^ WITNESS),
        };
        self.cols
            .iter()
            .zip(self.coeffs)
            .map(move |(&col, coeff)| (column(col), *coeff))
    }
}

// ---------------------------------------------------------------------------
// The synthesis traits
// ---------------------------------------------------------------------------

/// Why a synthesis pass failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthesisError {
    /// A value closure was evaluated (so the driver is witnessing) but the
    /// assignment it needs is not available — e.g. a proving synthesis was
    /// attempted over a circuit constructed without its witness.
    AssignmentMissing,
}

impl core::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::AssignmentMissing => {
                write!(
                    f,
                    "witness assignment missing during a witnessing synthesis"
                )
            }
        }
    }
}

#[cfg(feature = "std")]
impl std::error::Error for SynthesisError {}

/// Lifts an optional assignment into a closure-friendly `Result`: the
/// idiomatic body of a value closure over data that is only present on the
/// proving side (`|| assignment(witness.map(…))`).
pub fn assignment<T>(v: Option<T>) -> Result<T, SynthesisError> {
    v.ok_or(SynthesisError::AssignmentMissing)
}

/// A synthesis driver: receives allocations (with values behind closures it
/// may or may not evaluate), constraints, and namespace markers.
///
/// Implementations decide the mode: [`SetupSynthesizer`] and
/// [`CountingSynthesizer`] never evaluate value closures,
/// [`ProvingSynthesizer`] always does. Namespaces are debug/diagnostics
/// metadata only — they never influence the constraint structure (or any
/// shape digest derived from it).
pub trait ConstraintSystem<F: PrimeField> {
    /// Allocates a public-input variable. The driver decides whether to
    /// evaluate `value`.
    fn alloc_instance<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>;

    /// Allocates a private witness variable. The driver decides whether to
    /// evaluate `value` — setup-mode drivers never do.
    fn alloc_witness<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>;

    /// Adds the constraint `⟨a, z⟩·⟨b, z⟩ = ⟨c, z⟩`.
    fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    );

    /// Opens a named scope for the constraints and variables that follow
    /// (prefer the RAII [`ConstraintSystem::ns`] wrapper).
    fn push_namespace(&mut self, name: &str);

    /// Closes the innermost scope.
    fn pop_namespace(&mut self);

    /// RAII namespace guard: constraints added through the returned handle
    /// are attributed to `name`, and the scope closes when it drops.
    fn ns<'a>(&'a mut self, name: &str) -> Namespace<'a, F, Self>
    where
        Self: Sized,
    {
        self.push_namespace(name);
        Namespace {
            cs: self,
            _marker: core::marker::PhantomData,
        }
    }
}

impl<F: PrimeField, CS: ConstraintSystem<F>> ConstraintSystem<F> for &mut CS {
    fn alloc_instance<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        (**self).alloc_instance(value)
    }

    fn alloc_witness<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        (**self).alloc_witness(value)
    }

    fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    ) {
        (**self).enforce(a, b, c)
    }

    fn push_namespace(&mut self, name: &str) {
        (**self).push_namespace(name)
    }

    fn pop_namespace(&mut self) {
        (**self).pop_namespace()
    }
}

/// RAII guard returned by [`ConstraintSystem::ns`]: forwards every call to
/// the wrapped driver and pops the namespace on drop.
pub struct Namespace<'a, F: PrimeField, CS: ConstraintSystem<F>> {
    cs: &'a mut CS,
    _marker: core::marker::PhantomData<F>,
}

impl<F: PrimeField, CS: ConstraintSystem<F>> ConstraintSystem<F> for Namespace<'_, F, CS> {
    fn alloc_instance<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.cs.alloc_instance(value)
    }

    fn alloc_witness<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.cs.alloc_witness(value)
    }

    fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    ) {
        self.cs.enforce(a, b, c)
    }

    fn push_namespace(&mut self, name: &str) {
        self.cs.push_namespace(name)
    }

    fn pop_namespace(&mut self) {
        self.cs.pop_namespace()
    }
}

impl<F: PrimeField, CS: ConstraintSystem<F>> Drop for Namespace<'_, F, CS> {
    fn drop(&mut self) {
        self.cs.pop_namespace();
    }
}

/// A circuit: one mode-agnostic description of structure and (optional)
/// assignment, synthesizable under any [`ConstraintSystem`] driver.
///
/// `Output` carries whatever the proving side wants back out of the
/// synthesis (e.g. the public verdict a witness produces); shape-only
/// drivers simply ignore it. Implementations must keep the *structure*
/// (allocations, constraints, bounds) independent of assignment values —
/// witness data may only be touched inside value closures.
pub trait Circuit<F: PrimeField> {
    /// What `synthesize` returns (use `()` when nothing is needed).
    type Output;

    /// Describes the circuit to `cs`.
    fn synthesize<CS: ConstraintSystem<F>>(
        &self,
        cs: &mut CS,
    ) -> Result<Self::Output, SynthesisError>;
}

// ---------------------------------------------------------------------------
// Setup driver
// ---------------------------------------------------------------------------

/// A streaming consumer of the canonical shape trace the setup-mode
/// drivers emit — typically a hash state.
///
/// The trace is one byte string; how it is cut into `absorb` calls is
/// **not** part of the format. Today the drivers hand over one constraint
/// record per call, with any allocation tags since the previous
/// constraint in front of it; a sink must give the same answer for any
/// other chunking of the same bytes (a hash does; so does a `Vec`).
pub trait ShapeSink {
    /// Absorbs the next trace bytes.
    fn absorb(&mut self, bytes: &[u8]);

    /// Whether this sink throws away what it is given. A driver encodes
    /// nothing at all for a sink that says yes — `()` does — so a
    /// synthesis nobody reads the trace of does not pay for its bytes.
    fn discards(&self) -> bool {
        false
    }
}

impl ShapeSink for () {
    fn absorb(&mut self, _bytes: &[u8]) {}

    fn discards(&self) -> bool {
        true
    }
}

const TRACE_ALLOC_INSTANCE: u8 = 1;
const TRACE_ALLOC_WITNESS: u8 = 2;
const TRACE_ENFORCE: u8 = 3;

/// Appends one constraint's trace record to `out` — the `v1` format, and
/// the only place it is written down: the tag byte `3`, then for each of
/// the three *compacted* combinations a `u64` LE term count followed by,
/// per term, a `u8` variable kind (0 = one, 1 = instance, 2 = witness), a
/// `u64` LE index and the coefficient's 32-byte canonical LE encoding.
/// (An allocation's record is its tag byte alone: `1` instance, `2`
/// witness.)
///
/// How the bytes are *produced* is not part of the format. Canonical
/// bytes cost a Montgomery reduction (`to_le_bytes`), and four
/// coefficients in five are the constant one, whose encoding is a `1`
/// and thirty-one zeros; most of the rest come in runs (the `−1`s of a
/// subtracted sum). So the record's room is claimed, zeroed, once; each
/// term is written straight into its 41-byte slot; and a coefficient is
/// reduced only when it is neither one nor the coefficient reduced just
/// before it.
fn encode_constraint<F: PrimeField>(
    out: &mut Vec<u8>,
    a: &LinearCombination<F>,
    b: &LinearCombination<F>,
    c: &LinearCombination<F>,
) {
    const TERM: usize = 1 + 8 + 32;
    /// Cuts the next `n` bytes off the front of `rest`.
    fn take<'a>(rest: &mut &'a mut [u8], n: usize) -> &'a mut [u8] {
        let (head, tail) = core::mem::take(rest).split_at_mut(n);
        *rest = tail;
        head
    }
    let combinations = [a.terms(), b.terms(), c.terms()];
    let terms: usize = combinations.iter().map(|terms| terms.len()).sum();
    let start = out.len();
    out.resize(start + 1 + 3 * 8 + TERM * terms, 0);
    let mut rest = &mut out[start..];
    take(&mut rest, 1)[0] = TRACE_ENFORCE;
    let mut reduced: Option<(F, [u8; 32])> = None;
    for terms in combinations {
        take(&mut rest, 8).copy_from_slice(&(terms.len() as u64).to_le_bytes());
        for (v, coeff) in terms {
            let record = take(&mut rest, TERM);
            let (kind, idx) = v.sort_key();
            record[0] = kind;
            record[1..9].copy_from_slice(&(idx as u64).to_le_bytes());
            if coeff.is_one() {
                record[9] = 1;
            } else {
                let (_, bytes) = match &reduced {
                    Some(last) if last.0 == *coeff => last,
                    _ => reduced.insert((*coeff, coeff.to_le_bytes())),
                };
                record[9..].copy_from_slice(bytes);
            }
        }
    }
}

/// Allocation tags waiting for the next constraint are flushed on their
/// own once this many have piled up, so a circuit that allocates without
/// constraining cannot grow the record buffer without bound.
const PENDING_TAGS_MAX: usize = 4096;

/// The digest-only setup driver: streams the canonical shape trace into a
/// [`ShapeSink`] and **keeps nothing** — each constraint is compacted,
/// encoded, absorbed and dropped. It has no `to_matrices()`; the type,
/// not a flag, says nothing was stored. This is
/// the driver to hash a circuit's shape with (a `CircuitId` is exactly
/// that); [`SetupSynthesizer`] is the one to use when the matrices are
/// needed too, and emits the same bytes.
///
/// Like every setup-mode driver it never evaluates a value closure.
///
/// The trace is a sequence of records — a tag byte per allocation, and
/// per constraint the compacted linear combinations (term counts,
/// variable kind/index, canonical little-endian coefficient bytes).
/// Hashing it yields a digest with the property *same trace ⇒ same
/// matrices ⇒ same trusted-setup keys*; namespaces are deliberately
/// excluded so renaming a debug scope never orphans existing keys. A
/// constraint's whole record is built in one reused buffer and handed to
/// the sink in a single [`ShapeSink::absorb`], the allocation tags since
/// the previous constraint riding in front of it in order.
pub struct TraceSynthesizer<F: PrimeField, S: ShapeSink> {
    num_instance: usize,
    num_witness: usize,
    num_constraints: usize,
    /// Encoded records not yet absorbed.
    record: Vec<u8>,
    sink: S,
    _marker: core::marker::PhantomData<F>,
}

impl<F: PrimeField, S: ShapeSink> TraceSynthesizer<F, S> {
    /// A fresh digest-only driver streaming the shape trace into `sink`.
    pub fn with_sink(sink: S) -> Self {
        Self {
            num_instance: 1, // the implicit constant 1
            num_witness: 0,
            num_constraints: 0,
            record: Vec::new(),
            sink,
            _marker: core::marker::PhantomData,
        }
    }

    /// Number of constraints synthesized so far.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Instance-block size (including the constant 1).
    pub fn num_instance_variables(&self) -> usize {
        self.num_instance
    }

    /// Number of witness variables.
    pub fn num_witness_variables(&self) -> usize {
        self.num_witness
    }

    /// Consumes the driver, returning the sink with the whole trace
    /// absorbed.
    pub fn into_sink(mut self) -> S {
        self.flush();
        self.sink
    }

    fn flush(&mut self) {
        if !self.record.is_empty() {
            self.sink.absorb(&self.record);
            self.record.clear();
        }
    }

    fn trace_alloc(&mut self, tag: u8) {
        if self.sink.discards() {
            return;
        }
        self.record.push(tag);
        if self.record.len() >= PENDING_TAGS_MAX {
            self.flush();
        }
    }

    /// Counts and traces one constraint whose combinations are already
    /// compacted.
    fn trace_constraint(
        &mut self,
        a: &LinearCombination<F>,
        b: &LinearCombination<F>,
        c: &LinearCombination<F>,
    ) {
        self.num_constraints += 1;
        if self.sink.discards() {
            return;
        }
        encode_constraint(&mut self.record, a, b, c);
        self.flush();
    }
}

impl<F: PrimeField, S: ShapeSink> ConstraintSystem<F> for TraceSynthesizer<F, S> {
    fn alloc_instance<V>(&mut self, _value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.trace_alloc(TRACE_ALLOC_INSTANCE);
        let var = Variable::Instance(self.num_instance);
        self.num_instance += 1;
        Ok(var)
    }

    fn alloc_witness<V>(&mut self, _value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.trace_alloc(TRACE_ALLOC_WITNESS);
        let var = Variable::Witness(self.num_witness);
        self.num_witness += 1;
        Ok(var)
    }

    fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    ) {
        self.trace_constraint(&a.compact(), &b.compact(), &c.compact());
    }

    fn push_namespace(&mut self, _name: &str) {}

    fn pop_namespace(&mut self) {}
}

/// The trusted-setup driver: records the constraint structure and **never
/// evaluates a value closure**, so it can run on a machine that holds no
/// witness (and no public-input values either).
///
/// It is a [`TraceSynthesizer`] that also appends every compacted
/// constraint to the matrices ([`Self::to_matrices`],
/// [`Self::into_parts`]): the shape trace it streams into its
/// [`ShapeSink`] is byte-for-byte the digest-only driver's (one encoder,
/// one record per `absorb`), and with the default `()` sink no trace is
/// encoded at all.
pub struct SetupSynthesizer<F: PrimeField, S: ShapeSink = ()> {
    trace: TraceSynthesizer<F, S>,
    store: [Csr<F>; 3],
}

impl<F: PrimeField> SetupSynthesizer<F> {
    /// A fresh setup driver that discards the shape trace.
    pub fn new() -> Self {
        Self::with_sink(())
    }
}

impl<F: PrimeField> Default for SetupSynthesizer<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: PrimeField, S: ShapeSink> SetupSynthesizer<F, S> {
    /// A fresh setup driver streaming the shape trace into `sink`.
    pub fn with_sink(sink: S) -> Self {
        Self {
            trace: TraceSynthesizer::with_sink(sink),
            store: Default::default(),
        }
    }

    /// Number of constraints synthesized so far.
    pub fn num_constraints(&self) -> usize {
        self.trace.num_constraints
    }

    /// Instance-block size (including the constant 1).
    pub fn num_instance_variables(&self) -> usize {
        self.trace.num_instance
    }

    /// Number of witness variables.
    pub fn num_witness_variables(&self) -> usize {
        self.trace.num_witness
    }

    /// A copy of the matrices as they stand (three arrays a matrix).
    /// Prefer [`Self::into_parts`] once synthesis is done.
    pub fn to_matrices(&self) -> R1csMatrices<F> {
        R1csMatrices {
            store: self.store.clone(),
            num_instance: self.trace.num_instance,
            num_witness: self.trace.num_witness,
        }
    }

    /// Consumes the driver, returning the sink with the absorbed trace.
    pub fn into_sink(self) -> S {
        self.into_parts().1
    }

    /// Consumes the driver, returning the matrices — moved, not copied —
    /// and the sink with the absorbed trace.
    pub fn into_parts(self) -> (R1csMatrices<F>, S) {
        let matrices = R1csMatrices {
            store: self.store,
            num_instance: self.trace.num_instance,
            num_witness: self.trace.num_witness,
        };
        (matrices, self.trace.into_sink())
    }
}

impl<F: PrimeField, S: ShapeSink> ConstraintSystem<F> for SetupSynthesizer<F, S> {
    fn alloc_instance<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.trace.alloc_instance(value)
    }

    fn alloc_witness<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.trace.alloc_witness(value)
    }

    fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    ) {
        let abc = [a.compact(), b.compact(), c.compact()];
        self.trace.trace_constraint(&abc[0], &abc[1], &abc[2]);
        for (matrix, lc) in self.store.iter_mut().zip(&abc) {
            matrix.push_row(lc);
        }
    }

    fn push_namespace(&mut self, _name: &str) {}

    fn pop_namespace(&mut self) {}
}

// ---------------------------------------------------------------------------
// Proving driver
// ---------------------------------------------------------------------------

/// The proving driver: evaluates every value closure, producing the dense
/// assignment `z = (1, instance…, witness…)` alongside the matrices.
///
/// Also interns the namespace path of each constraint, so an unsatisfied
/// constraint can be reported as a human-readable path instead of a bare
/// row index.
#[derive(Clone, Debug)]
pub struct ProvingSynthesizer<F: PrimeField> {
    instance: Vec<F>,
    witness: Vec<F>,
    store: [Csr<F>; 3],
    /// Interned namespace paths; `paths[0]` is the root `""`.
    paths: Vec<String>,
    path_ids: BTreeMap<String, u32>,
    stack: Vec<usize>, // segment lengths, to truncate `current` on pop
    current: String,
    current_id: u32,
    constraint_paths: Vec<u32>,
}

impl<F: PrimeField> ProvingSynthesizer<F> {
    /// Creates an empty system (instance block starts with the constant 1).
    pub fn new() -> Self {
        Self {
            instance: vec![F::one()],
            witness: Vec::new(),
            store: Default::default(),
            paths: vec![String::new()],
            path_ids: BTreeMap::from([(String::new(), 0)]),
            stack: Vec::new(),
            current: String::new(),
            current_id: 0,
            constraint_paths: Vec::new(),
        }
    }

    /// Value of a variable under the assignment.
    pub fn value(&self, v: Variable) -> F {
        match v {
            Variable::One => F::one(),
            Variable::Instance(i) => self.instance[i],
            Variable::Witness(i) => self.witness[i],
        }
    }

    /// Value of a linear combination under the assignment.
    pub fn eval_lc(&self, lc: &LinearCombination<F>) -> F {
        lc.terms()
            .iter()
            .fold(F::zero(), |acc, (v, c)| acc + self.value(*v) * *c)
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraint_paths.len()
    }

    /// Instance-block size (including the constant 1).
    pub fn num_instance_variables(&self) -> usize {
        self.instance.len()
    }

    /// Number of witness variables.
    pub fn num_witness_variables(&self) -> usize {
        self.witness.len()
    }

    /// The instance assignment (with the leading constant 1).
    pub fn instance_assignment(&self) -> &[F] {
        &self.instance
    }

    /// The witness assignment.
    pub fn witness_assignment(&self) -> &[F] {
        &self.witness
    }

    /// The full assignment `z = (1, instance…, witness…)`.
    pub fn full_assignment(&self) -> Vec<F> {
        let mut z = self.instance.clone();
        z.extend_from_slice(&self.witness);
        z
    }

    /// The namespace path constraint `i` was enforced under (`""` = root).
    pub fn constraint_path(&self, i: usize) -> &str {
        &self.paths[self.constraint_paths[i] as usize]
    }

    /// Checks satisfaction; on failure returns the index of the first
    /// violated constraint (look up its scope with
    /// [`Self::constraint_path`]).
    pub fn is_satisfied(&self) -> Result<(), usize> {
        let [a, b, c] = self
            .store
            .each_ref()
            .map(|matrix| matrix.row_products(&self.instance, &self.witness));
        match a.zip(b).zip(c).position(|((a, b), c)| a * b != c) {
            Some(violated) => Err(violated),
            None => Ok(()),
        }
    }

    /// A copy of the matrices as they stand (three arrays a matrix).
    pub fn to_matrices(&self) -> R1csMatrices<F> {
        R1csMatrices {
            store: self.store.clone(),
            num_instance: self.instance.len(),
            num_witness: self.witness.len(),
        }
    }
}

impl<F: PrimeField> Default for ProvingSynthesizer<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: PrimeField> ConstraintSystem<F> for ProvingSynthesizer<F> {
    fn alloc_instance<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.instance.push(value()?);
        Ok(Variable::Instance(self.instance.len() - 1))
    }

    fn alloc_witness<V>(&mut self, value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        self.witness.push(value()?);
        Ok(Variable::Witness(self.witness.len() - 1))
    }

    fn enforce(
        &mut self,
        a: LinearCombination<F>,
        b: LinearCombination<F>,
        c: LinearCombination<F>,
    ) {
        let abc = [a.compact(), b.compact(), c.compact()];
        for (matrix, lc) in self.store.iter_mut().zip(&abc) {
            matrix.push_row(lc);
        }
        self.constraint_paths.push(self.current_id);
    }

    fn push_namespace(&mut self, name: &str) {
        let seg_len = name.len() + usize::from(!self.current.is_empty());
        if !self.current.is_empty() {
            self.current.push('/');
        }
        self.current.push_str(name);
        self.stack.push(seg_len);
        self.current_id = match self.path_ids.get(&self.current) {
            Some(&id) => id,
            None => {
                let id = self.paths.len() as u32;
                self.paths.push(self.current.clone());
                self.path_ids.insert(self.current.clone(), id);
                id
            }
        };
    }

    fn pop_namespace(&mut self) {
        let seg_len = self.stack.pop().expect("pop_namespace without a push");
        self.current.truncate(self.current.len() - seg_len);
        self.current_id = self.path_ids[&self.current];
    }
}

// ---------------------------------------------------------------------------
// Counting driver
// ---------------------------------------------------------------------------

/// Constraint/variable tallies for one namespace path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NamespaceCount {
    /// Constraints enforced directly under this path.
    pub constraints: usize,
    /// Instance variables allocated directly under this path.
    pub instance: usize,
    /// Witness variables allocated directly under this path.
    pub witness: usize,
}

/// The diagnostics driver: tallies constraints and variables — overall and
/// per namespace path — without storing constraints or evaluating any
/// value closure. Synthesizing a multi-million-constraint circuit through
/// it costs only the linear-combination construction.
pub struct CountingSynthesizer<F: PrimeField> {
    num_instance: usize,
    num_witness: usize,
    num_constraints: usize,
    /// Interned namespace paths; `paths[0]` is the root `""`. Counting is
    /// by path *id*, so per-event cost is an array index, not a clone.
    paths: Vec<String>,
    path_ids: BTreeMap<String, u32>,
    counts: Vec<NamespaceCount>,
    stack: Vec<usize>, // segment lengths, to truncate `current` on pop
    current: String,
    current_id: u32,
    _marker: core::marker::PhantomData<F>,
}

impl<F: PrimeField> CountingSynthesizer<F> {
    /// A fresh counting driver.
    pub fn new() -> Self {
        Self {
            num_instance: 1,
            num_witness: 0,
            num_constraints: 0,
            paths: vec![String::new()],
            path_ids: BTreeMap::from([(String::new(), 0)]),
            counts: vec![NamespaceCount::default()],
            stack: Vec::new(),
            current: String::new(),
            current_id: 0,
            _marker: core::marker::PhantomData,
        }
    }

    /// Number of constraints synthesized.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Instance-block size (including the constant 1).
    pub fn num_instance_variables(&self) -> usize {
        self.num_instance
    }

    /// Number of witness variables.
    pub fn num_witness_variables(&self) -> usize {
        self.num_witness
    }

    /// Per-namespace tallies, keyed by `/`-joined path (`""` = root).
    /// Only paths that saw at least one event appear.
    pub fn by_namespace(&self) -> BTreeMap<String, NamespaceCount> {
        self.paths
            .iter()
            .zip(&self.counts)
            .filter(|(_, c)| **c != NamespaceCount::default())
            .map(|(p, c)| (p.clone(), *c))
            .collect()
    }

    /// A human-readable density report: one line per namespace, heaviest
    /// first, with each scope's share of the total constraint count.
    pub fn report(&self) -> String {
        let mut rows: Vec<(&str, &NamespaceCount)> = self
            .paths
            .iter()
            .zip(&self.counts)
            .filter(|(_, c)| **c != NamespaceCount::default())
            .map(|(p, c)| (p.as_str(), c))
            .collect();
        rows.sort_by(|a, b| b.1.constraints.cmp(&a.1.constraints).then(a.0.cmp(b.0)));
        let total = self.num_constraints.max(1);
        let mut out = format!(
            "{} constraints, {} instance vars (incl. 1), {} witness vars\n",
            self.num_constraints, self.num_instance, self.num_witness
        );
        for (path, c) in rows {
            let label = if path.is_empty() { "(root)" } else { path };
            out.push_str(&format!(
                "  {label:<40} {:>9} cstr ({:>5.1}%)  {:>7} inst  {:>9} wit\n",
                c.constraints,
                100.0 * c.constraints as f64 / total as f64,
                c.instance,
                c.witness,
            ));
        }
        out
    }

    fn bucket(&mut self) -> &mut NamespaceCount {
        &mut self.counts[self.current_id as usize]
    }
}

impl<F: PrimeField> Default for CountingSynthesizer<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: PrimeField> ConstraintSystem<F> for CountingSynthesizer<F> {
    fn alloc_instance<V>(&mut self, _value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        let var = Variable::Instance(self.num_instance);
        self.num_instance += 1;
        self.bucket().instance += 1;
        Ok(var)
    }

    fn alloc_witness<V>(&mut self, _value: V) -> Result<Variable, SynthesisError>
    where
        V: FnOnce() -> Result<F, SynthesisError>,
    {
        let var = Variable::Witness(self.num_witness);
        self.num_witness += 1;
        self.bucket().witness += 1;
        Ok(var)
    }

    fn enforce(
        &mut self,
        _a: LinearCombination<F>,
        _b: LinearCombination<F>,
        _c: LinearCombination<F>,
    ) {
        self.num_constraints += 1;
        self.bucket().constraints += 1;
    }

    fn push_namespace(&mut self, name: &str) {
        let seg_len = name.len() + usize::from(!self.current.is_empty());
        if !self.current.is_empty() {
            self.current.push('/');
        }
        self.current.push_str(name);
        self.stack.push(seg_len);
        self.current_id = match self.path_ids.get(&self.current) {
            Some(&id) => id,
            None => {
                let id = self.paths.len() as u32;
                self.paths.push(self.current.clone());
                self.path_ids.insert(self.current.clone(), id);
                self.counts.push(NamespaceCount::default());
                id
            }
        };
    }

    fn pop_namespace(&mut self) {
        let seg_len = self.stack.pop().expect("pop_namespace without a push");
        self.current.truncate(self.current.len() - seg_len);
        self.current_id = self.path_ids[&self.current];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkrownn_ff::{Field, Fr};

    fn lc(v: Variable) -> LinearCombination<Fr> {
        v.into()
    }

    /// A caller's own sink: keeps the trace bytes, and counts the calls
    /// that delivered them.
    #[derive(Debug, Default, PartialEq)]
    struct Collect(Vec<u8>, usize);
    impl ShapeSink for Collect {
        fn absorb(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
            self.1 += 1;
        }
    }

    /// `x³ + x + 5 = y`, the classic Pinocchio example.
    struct Cubic {
        y: u64,
        x: Option<u64>,
    }

    impl Circuit<Fr> for Cubic {
        type Output = ();
        fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
            let y = cs.alloc_instance(|| Ok(Fr::from_u64(self.y)))?;
            let xv = self.x;
            let x = cs.alloc_witness(|| assignment(xv.map(Fr::from_u64)))?;
            let x2 = cs.alloc_witness(|| assignment(xv.map(|x| Fr::from_u64(x * x))))?;
            let x3 = cs.alloc_witness(|| assignment(xv.map(|x| Fr::from_u64(x * x * x))))?;
            {
                let mut ns = cs.ns("powers");
                ns.enforce(lc(x), lc(x), lc(x2));
                ns.enforce(lc(x2), lc(x), lc(x3));
            }
            let lhs = LinearCombination::from(x3).add_term(Fr::one(), x)
                + LinearCombination::constant(Fr::from_u64(5));
            cs.ns("sum")
                .enforce(lhs, LinearCombination::constant(Fr::one()), lc(y));
            Ok(())
        }
    }

    #[test]
    fn proving_synthesis_is_satisfied() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        Cubic { y: 35, x: Some(3) }.synthesize(&mut cs).unwrap();
        assert!(cs.is_satisfied().is_ok());
        assert_eq!(cs.num_constraints(), 3);
        assert_eq!(cs.num_instance_variables(), 2);
        assert_eq!(cs.num_witness_variables(), 3);
        assert_eq!(cs.constraint_path(0), "powers");
        assert_eq!(cs.constraint_path(2), "sum");
    }

    #[test]
    fn proving_synthesis_reports_first_violation() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        Cubic { y: 36, x: Some(3) }.synthesize(&mut cs).unwrap();
        assert_eq!(cs.is_satisfied(), Err(2));
        assert_eq!(cs.constraint_path(2), "sum");
    }

    #[test]
    fn proving_without_witness_reports_missing_assignment() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let err = Cubic { y: 35, x: None }.synthesize(&mut cs).unwrap_err();
        assert_eq!(err, SynthesisError::AssignmentMissing);
    }

    #[test]
    fn setup_never_evaluates_closures() {
        struct Bomb;
        impl Circuit<Fr> for Bomb {
            type Output = ();
            fn synthesize<CS: ConstraintSystem<Fr>>(
                &self,
                cs: &mut CS,
            ) -> Result<(), SynthesisError> {
                let a = cs.alloc_instance(|| panic!("instance closure evaluated"))?;
                let b = cs.alloc_witness(|| panic!("witness closure evaluated"))?;
                cs.enforce(a.into(), b.into(), LinearCombination::zero());
                Ok(())
            }
        }
        let mut setup = SetupSynthesizer::<Fr>::new();
        Bomb.synthesize(&mut setup).unwrap();
        assert_eq!(setup.num_constraints(), 1);
        let mut count = CountingSynthesizer::<Fr>::new();
        Bomb.synthesize(&mut count).unwrap();
        assert_eq!(count.num_constraints(), 1);
    }

    #[test]
    fn setup_and_proving_agree_on_structure() {
        let mut setup = SetupSynthesizer::<Fr>::new();
        Cubic { y: 35, x: None }.synthesize(&mut setup).unwrap();
        let mut prove = ProvingSynthesizer::<Fr>::new();
        Cubic { y: 35, x: Some(3) }.synthesize(&mut prove).unwrap();
        assert_eq!(setup.to_matrices(), prove.to_matrices());
    }

    #[test]
    fn shape_trace_distinguishes_structure_not_values() {
        let trace = |circuit: &Cubic| {
            let mut cs = SetupSynthesizer::with_sink(Collect::default());
            circuit.synthesize(&mut cs).unwrap();
            cs.into_sink().0
        };
        // different instance/witness *values*, identical trace
        let t1 = trace(&Cubic { y: 35, x: Some(3) });
        let t2 = trace(&Cubic { y: 999, x: None });
        assert_eq!(t1, t2);
        // a structurally different circuit produces a different trace
        struct Square {
            x: Option<u64>,
        }
        impl Circuit<Fr> for Square {
            type Output = ();
            fn synthesize<CS: ConstraintSystem<Fr>>(
                &self,
                cs: &mut CS,
            ) -> Result<(), SynthesisError> {
                let xv = self.x;
                let x = cs.alloc_witness(|| assignment(xv.map(Fr::from_u64)))?;
                let x2 = cs.alloc_witness(|| assignment(xv.map(|x| Fr::from_u64(x * x))))?;
                cs.enforce(x.into(), x.into(), x2.into());
                Ok(())
            }
        }
        let mut cs = SetupSynthesizer::with_sink(Collect::default());
        Square { x: None }.synthesize(&mut cs).unwrap();
        assert_ne!(t1, cs.into_sink().0);
    }

    /// The `v1` trace of the three-constraint cubic, written out from the
    /// layout (not by calling the encoder): whatever a later change does
    /// to how records are built or chunked, a caller's sink sees exactly
    /// these bytes in this order, and every existing `CircuitId` stands.
    #[test]
    fn shape_trace_v1_bytes_are_pinned() {
        const ONE: u8 = 0;
        const INSTANCE: u8 = 1;
        const WITNESS: u8 = 2;
        // u64 LE term count, then per term: kind, u64 LE index, 32-byte
        // LE canonical coefficient (all small here)
        fn combination(terms: &[(u8, u8, u8)]) -> Vec<u8> {
            let mut out = vec![terms.len() as u8, 0, 0, 0, 0, 0, 0, 0];
            for &(kind, index, coeff) in terms {
                out.push(kind);
                out.extend_from_slice(&[index, 0, 0, 0, 0, 0, 0, 0]);
                out.push(coeff);
                out.extend_from_slice(&[0; 31]);
            }
            out
        }
        let expected = [
            // y, then x, x², x³
            vec![1, 2, 2, 2],
            // x · x = x²
            vec![3],
            combination(&[(WITNESS, 0, 1)]),
            combination(&[(WITNESS, 0, 1)]),
            combination(&[(WITNESS, 1, 1)]),
            // x² · x = x³
            vec![3],
            combination(&[(WITNESS, 1, 1)]),
            combination(&[(WITNESS, 0, 1)]),
            combination(&[(WITNESS, 2, 1)]),
            // (5 + x + x³) · 1 = y, terms in canonical order
            vec![3],
            combination(&[(ONE, 0, 5), (WITNESS, 0, 1), (WITNESS, 2, 1)]),
            combination(&[(ONE, 0, 1)]),
            combination(&[(INSTANCE, 1, 1)]),
        ]
        .concat();
        assert_eq!(expected.len(), 4 + 3 * (1 + 3 * 8) + 11 * 41);

        let mut cs = SetupSynthesizer::with_sink(Collect::default());
        Cubic { y: 35, x: None }.synthesize(&mut cs).unwrap();
        assert_eq!(cs.into_sink().0, expected);
    }

    /// Unsorted, duplicated and cancelling terms, an empty combination,
    /// combinations that spill to the heap and shrink back, allocations
    /// between constraints and after the last one.
    struct Messy;

    impl Circuit<Fr> for Messy {
        type Output = ();
        fn synthesize<CS: ConstraintSystem<Fr>>(&self, cs: &mut CS) -> Result<(), SynthesisError> {
            let i = cs.alloc_instance(|| Ok(Fr::from_u64(1)))?;
            let w: Vec<Variable> = (0..4)
                .map(|_| cs.alloc_witness(|| Ok(Fr::from_u64(1))))
                .collect::<Result<_, _>>()?;
            // w3 + w0 + 2·w3 − w1 + w1: sorts, merges to w0 + 3·w3, drops w1
            let a = lc(w[3]) + lc(w[0]) + lc(w[3]).scale(Fr::from_u64(2)) - lc(w[1]) + lc(w[1]);
            let b = lc(i) + LinearCombination::constant(-Fr::one()) + lc(w[2]);
            cs.enforce(a, b, lc(w[2]) - lc(w[2]));
            let late = cs.alloc_witness(|| Ok(Fr::from_u64(1)))?;
            cs.ns("scope")
                .enforce(lc(late), lc(Variable::One), lc(late) + lc(i) + lc(late));
            // across the inline ↔ heap boundary and back: two terms that
            // cancel to one, one term that cancels to none, and the same
            // single term reached without ever spilling
            cs.enforce(
                lc(w[1]) + lc(w[0]) - lc(w[1]),
                lc(i).add_term(-Fr::one(), i),
                lc(w[0]),
            );
            cs.alloc_instance(|| Ok(Fr::from_u64(1)))?;
            cs.alloc_witness(|| Ok(Fr::from_u64(1)))?;
            Ok(())
        }
    }

    #[test]
    fn all_three_drivers_agree_on_bytes_and_matrices() {
        let mut setup = SetupSynthesizer::with_sink(Collect::default());
        Messy.synthesize(&mut setup).unwrap();
        let mut trace = TraceSynthesizer::with_sink(Collect::default());
        Messy.synthesize(&mut trace).unwrap();
        let mut prove = ProvingSynthesizer::<Fr>::new();
        Messy.synthesize(&mut prove).unwrap();
        // the prover stores the combinations setup encodes, so its
        // matrices are the ones the keys were made from
        assert_eq!(prove.to_matrices(), setup.to_matrices());
        assert_eq!(
            (
                trace.num_constraints(),
                trace.num_instance_variables(),
                trace.num_witness_variables()
            ),
            (
                setup.num_constraints(),
                setup.num_instance_variables(),
                setup.num_witness_variables()
            )
        );
        // the first constraint went out compacted: w0 + 3·w3, a
        // three-term b, and an empty c
        // (three instance columns in front of the witness: 1, i and the
        // trailing allocation)
        let stored = setup.to_matrices();
        assert_eq!(
            stored.a().row(0).iter().collect::<Vec<_>>(),
            [(3, Fr::one()), (3 + 3, Fr::from_u64(3))]
        );
        let terms = |row: Row<'_, Fr>| row.iter().count();
        assert_eq!((terms(stored.b().row(0)), terms(stored.c().row(0))), (3, 0));
        // the last one shrank back across the boundary: w0 · 0 = w0
        assert_eq!(
            stored.a().row(2).iter().collect::<Vec<_>>(),
            [(3, Fr::one())]
        );
        assert_eq!(terms(stored.b().row(2)), 0);
        assert!(stored.c().row(2).iter().eq(stored.a().row(2).iter()));
        let (setup, trace) = (setup.into_sink(), trace.into_sink());
        assert_eq!(setup.0, trace.0);
        // 5 + 1 + 2 tags, three records of 25 bytes plus 41 per term
        assert_eq!(
            trace.0.len(),
            8 + 3 * 25 + 41 * ((2 + 3) + (1 + 1 + 2) + (1 + 1))
        );
        // the trailing allocations were flushed by `into_sink`
        assert_eq!(trace.0[trace.0.len() - 2..], [1, 2]);
    }

    /// The `v1` term encoder as the format's description reads: every
    /// coefficient through `to_le_bytes`.
    fn encode_plainly(out: &mut Vec<u8>, combinations: [&LinearCombination<Fr>; 3]) {
        out.push(TRACE_ENFORCE);
        for combination in combinations {
            out.extend_from_slice(&(combination.terms().len() as u64).to_le_bytes());
            for (v, coeff) in combination.terms() {
                let (kind, idx) = v.sort_key();
                out.push(kind);
                out.extend_from_slice(&(idx as u64).to_le_bytes());
                out.extend_from_slice(&coeff.to_le_bytes());
            }
        }
    }

    /// The encoder skips the reduction for a coefficient equal to one or
    /// to the one before it; the bytes must not know. Random non-zero
    /// coefficients mixed with the ones the shortcuts are for — `1`, `−1`
    /// (`r − 1`), powers of two — drawn with a bias towards repeating
    /// the previous one, so runs form and break, also across the three
    /// combinations of a constraint and from one constraint to the next.
    #[test]
    fn the_encoder_shortcuts_are_byte_identical_to_to_le_bytes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ace);
        let mut previous = Fr::one();
        let mut coefficient = |rng: &mut rand::rngs::StdRng| {
            previous = match rng.gen_range(0..8) {
                0 | 1 => previous,
                2 => Fr::one(),
                3 => -Fr::one(),
                4 => Fr::from_u64(2).pow(&[rng.gen_range(0..254)]),
                5 => Fr::from_u64(rng.gen_range(1..4)),
                _ => loop {
                    let c = Fr::random(rng);
                    if !c.is_zero() {
                        break c;
                    }
                },
            };
            previous
        };
        let (mut fast, mut plain) = (Vec::new(), Vec::new());
        let (mut ones, mut repeats, mut reductions) = (0, 0, 0);
        for _ in 0..200 {
            let mut combination = || -> LinearCombination<Fr> {
                (0..rng.gen_range(0..6))
                    .map(|i| (Variable::Witness(i), coefficient(&mut rng)))
                    .collect()
            };
            let (a, b, c) = (combination(), combination(), combination());
            encode_constraint(&mut fast, &a, &b, &c);
            encode_plainly(&mut plain, [&a, &b, &c]);
            assert_eq!(fast, plain);
            // which path each coefficient took
            let mut reduced = None;
            for (_, coeff) in a.terms().iter().chain(b.terms()).chain(c.terms()) {
                if coeff.is_one() {
                    ones += 1;
                } else if reduced == Some(*coeff) {
                    repeats += 1;
                } else {
                    reduced = Some(*coeff);
                    reductions += 1;
                }
            }
        }
        assert!(
            ones > 100 && repeats > 100 && reductions > 100,
            "{ones} / {repeats} / {reductions}"
        );
    }

    /// A CNN-shaped toy: thousands of parameter and input allocations up
    /// front, then one long inner product per output. The sink is called
    /// once per constraint — the allocation tags ride in front of the
    /// next record — plus a flush per `PENDING_TAGS_MAX` tags and one for
    /// the trailing allocation.
    #[test]
    fn a_constraint_is_one_absorb() {
        struct Toy;
        impl Circuit<Fr> for Toy {
            type Output = ();
            fn synthesize<CS: ConstraintSystem<Fr>>(
                &self,
                cs: &mut CS,
            ) -> Result<(), SynthesisError> {
                let kernels: Vec<Variable> = (0..3 * PENDING_TAGS_MAX / 2)
                    .map(|_| cs.alloc_instance(|| Ok(Fr::one())))
                    .collect::<Result<_, _>>()?;
                let pixels: Vec<Variable> = (0..PENDING_TAGS_MAX)
                    .map(|_| cs.alloc_witness(|| Ok(Fr::one())))
                    .collect::<Result<_, _>>()?;
                for patch in pixels.chunks(27) {
                    let mut acc = LinearCombination::zero();
                    for (p, k) in patch.iter().zip(&kernels) {
                        let prod = cs.alloc_witness(|| Ok(Fr::one()))?;
                        cs.enforce(lc(*p), lc(*k), lc(prod));
                        acc = acc + lc(prod);
                    }
                    let out = cs.alloc_witness(|| Ok(Fr::one()))?;
                    cs.enforce(acc, lc(Variable::One), lc(out));
                }
                cs.alloc_instance(|| Ok(Fr::one()))?;
                Ok(())
            }
        }
        let mut setup = SetupSynthesizer::with_sink(Collect::default());
        Toy.synthesize(&mut setup).unwrap();
        let constraints = setup.num_constraints();
        let Collect(bytes, calls) = setup.into_sink();
        assert!(constraints > PENDING_TAGS_MAX);
        assert!(
            (constraints..=constraints + 3).contains(&calls),
            "{calls} absorbs for {constraints} constraints"
        );
        let mut trace = TraceSynthesizer::with_sink(Collect::default());
        Toy.synthesize(&mut trace).unwrap();
        assert_eq!(trace.into_sink(), Collect(bytes, calls));
    }

    /// A sink that discards is never fed, so nothing was encoded for it.
    #[test]
    fn a_discarding_sink_is_never_fed() {
        struct Unread;
        impl ShapeSink for Unread {
            fn absorb(&mut self, _bytes: &[u8]) {
                panic!("encoded a trace for a sink that discards it");
            }
            fn discards(&self) -> bool {
                true
            }
        }
        let mut setup = SetupSynthesizer::with_sink(Unread);
        Messy.synthesize(&mut setup).unwrap();
        assert_eq!(setup.num_constraints(), 3);
        assert_eq!(setup.to_matrices().num_constraints(), 3);
        setup.into_sink();
        assert!(().discards());
    }

    #[test]
    fn namespaces_do_not_affect_trace_or_matrices() {
        struct Wrapped(bool);
        impl Circuit<Fr> for Wrapped {
            type Output = ();
            fn synthesize<CS: ConstraintSystem<Fr>>(
                &self,
                cs: &mut CS,
            ) -> Result<(), SynthesisError> {
                let x = cs.alloc_witness(|| Ok(Fr::from_u64(2)))?;
                if self.0 {
                    let mut ns = cs.ns("scope");
                    let mut inner = ns.ns("inner");
                    inner.enforce(
                        x.into(),
                        x.into(),
                        LinearCombination::constant(Fr::from_u64(4)),
                    );
                } else {
                    cs.enforce(
                        x.into(),
                        x.into(),
                        LinearCombination::constant(Fr::from_u64(4)),
                    );
                }
                Ok(())
            }
        }
        let trace = |w: &Wrapped| {
            let mut cs = SetupSynthesizer::with_sink(Collect::default());
            w.synthesize(&mut cs).unwrap();
            cs.into_sink().0
        };
        assert_eq!(trace(&Wrapped(true)), trace(&Wrapped(false)));
    }

    #[test]
    fn counting_synthesizer_tracks_namespace_density() {
        let mut cs = CountingSynthesizer::<Fr>::new();
        Cubic { y: 35, x: None }.synthesize(&mut cs).unwrap();
        assert_eq!(cs.num_constraints(), 3);
        assert_eq!(cs.num_instance_variables(), 2);
        assert_eq!(cs.num_witness_variables(), 3);
        let ns = cs.by_namespace();
        assert_eq!(ns["powers"].constraints, 2);
        assert_eq!(ns["sum"].constraints, 1);
        assert_eq!(ns[""].instance, 1);
        assert_eq!(ns[""].witness, 3);
        let report = cs.report();
        assert!(report.contains("powers"));
        assert!(report.contains("66.7%"));
    }

    #[test]
    fn add_term_merges_eagerly() {
        let x = Variable::Witness(0);
        let y = Variable::Witness(1);
        let combo = LinearCombination::<Fr>::zero()
            .add_term(Fr::from_u64(2), x)
            .add_term(Fr::one(), y)
            .add_term(Fr::from_u64(3), x);
        assert_eq!(combo.terms().len(), 2);
        assert_eq!(combo.terms()[0], (x, Fr::from_u64(5)));
        // exact cancellation elides the term
        let cancelled = combo.add_term(-Fr::from_u64(5), x);
        assert_eq!(cancelled.terms().len(), 1);
        assert_eq!(cancelled.terms()[0].0, y);
    }

    #[test]
    fn compact_merges_duplicates() {
        let x = Variable::Witness(0);
        let combo = (LinearCombination::<Fr>::from(x) + LinearCombination::from(x)).compact();
        assert_eq!(combo.terms(), [(x, Fr::from_u64(2))]);
        let zero = (LinearCombination::<Fr>::from(x) - LinearCombination::from(x)).compact();
        assert!(zero.terms().is_empty());
    }

    #[test]
    fn matrices_use_z_column_order() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let inst = cs.alloc_instance(|| Ok(Fr::from_u64(6))).unwrap();
        let w = cs.alloc_witness(|| Ok(Fr::from_u64(6))).unwrap();
        // w * 1 = inst
        cs.enforce(lc(w), LinearCombination::constant(Fr::one()), lc(inst));
        let m = cs.to_matrices();
        assert_eq!(m.num_instance(), 2);
        assert_eq!(m.num_witness(), 1);
        let terms = |row: Row<'_, Fr>| row.iter().collect::<Vec<_>>();
        assert_eq!(terms(m.a().row(0)), [(2, Fr::one())]); // witness column = 1 + 1
        assert_eq!(terms(m.b().row(0)), [(0, Fr::one())]); // constant column
        assert_eq!(terms(m.c().row(0)), [(1, Fr::one())]); // instance column
    }

    #[test]
    fn linear_combination_arithmetic() {
        let mut cs = ProvingSynthesizer::<Fr>::new();
        let x = cs.alloc_witness(|| Ok(Fr::from_u64(3))).unwrap();
        let y = cs.alloc_witness(|| Ok(Fr::from_u64(4))).unwrap();
        // (2x + y - 1) should evaluate to 9
        let combo = LinearCombination::zero()
            .add_term(Fr::from_u64(2), x)
            .add_term(Fr::one(), y)
            + LinearCombination::constant(-Fr::one());
        assert_eq!(cs.eval_lc(&combo), Fr::from_u64(9));
        // and scaling by 3 gives 27
        assert_eq!(cs.eval_lc(&combo.scale(Fr::from_u64(3))), Fr::from_u64(27));
    }
}
