//! Property tests for the [`LinearCombination`] algebra: normalization via
//! eager [`LinearCombination::add_term`] merging and via
//! [`LinearCombination::compact`] must agree with evaluation semantics under
//! arbitrary assignments, and the usual algebraic laws must hold.
//!
//! A combination keeps zero or one term inline and spills to the heap from
//! the second, and `compact` works in place with an early return for input
//! that is already canonical. Neither may show: the second half of this
//! file holds the type to the allocating sort → merge → drop-zeros it
//! replaced (kept here as [`reference_compact`]) and to a plain `Vec` of
//! terms put through the same operations.

use proptest::prelude::*;
use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_r1cs::{LinearCombination, Variable};

const VARS: usize = 6;

/// A small pool of variables, so random terms collide often enough to
/// exercise the merge paths.
fn var(idx: u8) -> Variable {
    match idx % VARS as u8 {
        0 => Variable::One,
        1 => Variable::Instance(1),
        2 => Variable::Instance(2),
        3 => Variable::Witness(0),
        4 => Variable::Witness(1),
        _ => Variable::Witness(7),
    }
}

/// Evaluation under a fixed pseudo-assignment (distinct odd values per
/// variable slot, so distinct combinations rarely collide).
fn eval(lc: &LinearCombination<Fr>) -> Fr {
    let value = |v: &Variable| match v {
        Variable::One => Fr::one(),
        Variable::Instance(i) => Fr::from_u64(3 + 2 * *i as u64),
        Variable::Witness(i) => Fr::from_u64(101 + 2 * *i as u64),
    };
    lc.terms()
        .iter()
        .fold(Fr::zero(), |acc, (v, c)| acc + value(v) * *c)
}

fn arb_term() -> impl Strategy<Value = (Variable, Fr)> {
    (any::<u8>(), -40i64..40).prop_map(|(v, c)| (var(v), Fr::from_i128(c as i128)))
}

fn arb_lc() -> impl Strategy<Value = LinearCombination<Fr>> {
    prop::collection::vec(arb_term(), 0..10).prop_map(|terms| {
        terms
            .into_iter()
            .fold(LinearCombination::zero(), |lc, (v, c)| lc.add_term(c, v))
    })
}

/// Is the representation normalized: no duplicate variables, no zero
/// coefficients?
fn is_normalized(lc: &LinearCombination<Fr>) -> bool {
    let terms = lc.terms();
    terms.iter().all(|(_, c)| !c.is_zero())
        && (0..terms.len()).all(|i| (i + 1..terms.len()).all(|j| terms[i].0 != terms[j].0))
}

proptest! {
    #[test]
    fn add_term_keeps_lc_normalized(terms in prop::collection::vec(arb_term(), 0..16)) {
        let built = terms
            .iter()
            .fold(LinearCombination::<Fr>::zero(), |lc, (v, c)| lc.add_term(*c, *v));
        prop_assert!(is_normalized(&built));
        // and agrees (semantically) with the lazy concatenate-then-compact path
        let concat = terms
            .iter()
            .fold(LinearCombination::<Fr>::zero(), |lc, (v, c)| {
                lc + LinearCombination::from(*v).scale(*c)
            });
        prop_assert_eq!(eval(&built), eval(&concat));
        prop_assert_eq!(built.compact(), concat.compact());
    }

    #[test]
    fn addition_is_associative_and_commutative((a, b, c) in (arb_lc(), arb_lc(), arb_lc())) {
        let ab_c = ((a.clone() + b.clone()) + c.clone()).compact();
        let a_bc = (a.clone() + (b.clone() + c.clone())).compact();
        prop_assert_eq!(ab_c, a_bc);
        let ab = (a.clone() + b.clone()).compact();
        let ba = (b + a).compact();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn scaling_distributes_over_addition((a, b, k) in (arb_lc(), arb_lc(), -40i64..40)) {
        let k = Fr::from_i128(k as i128);
        let scaled_sum = (a.clone() + b.clone()).scale(k).compact();
        let sum_scaled = (a.scale(k) + b.scale(k)).compact();
        prop_assert_eq!(scaled_sum, sum_scaled);
    }

    #[test]
    fn compact_is_idempotent_and_preserves_eval(a in arb_lc(), b in arb_lc()) {
        // a + b concatenates (possibly denormalized) — compacting once must
        // normalize, evaluate identically, and be a fixed point
        let raw = a + b;
        let once = raw.clone().compact();
        prop_assert!(is_normalized(&once));
        prop_assert_eq!(eval(&raw), eval(&once));
        prop_assert_eq!(once.clone().compact(), once);
    }

    #[test]
    fn subtraction_cancels(a in arb_lc()) {
        let diff = (a.clone() - a).compact();
        prop_assert!(diff.terms().is_empty());
    }

    #[test]
    fn zero_coefficients_are_elided(a in arb_lc(), v in any::<u8>()) {
        // adding a zero term changes nothing
        let with_zero = a.clone().add_term(Fr::zero(), var(v));
        prop_assert_eq!(with_zero, a.clone());
        // scaling by zero collapses to the empty combination
        prop_assert!(a.scale(Fr::zero()).terms().is_empty());
    }
}

// ---------------------------------------------------------------------------
// The representation does not show
// ---------------------------------------------------------------------------

type Terms = Vec<(Variable, Fr)>;

fn sort_key(v: &Variable) -> (u8, usize) {
    match v {
        Variable::One => (0, 0),
        Variable::Instance(i) => (1, *i),
        Variable::Witness(i) => (2, *i),
    }
}

/// `compact` as it was before it worked in place: stable sort, merge
/// neighbours into a fresh vector, drop zeros.
fn reference_compact(mut terms: Terms) -> Terms {
    terms.sort_by_key(|(v, _)| sort_key(v));
    let mut out: Terms = Vec::with_capacity(terms.len());
    for (v, c) in terms {
        match out.last_mut() {
            Some((lv, lc)) if *lv == v => *lc += c,
            _ => out.push((v, c)),
        }
    }
    out.retain(|(_, c)| !c.is_zero());
    out
}

fn collect(terms: &[(Variable, Fr)]) -> LinearCombination<Fr> {
    terms.iter().copied().collect()
}

/// Raw terms over the small variable pool with coefficients in `-3..=3`:
/// duplicates, zeros and exactly-cancelling pairs are all common.
fn arb_raw_terms(max_len: usize) -> impl Strategy<Value = Terms> {
    prop::collection::vec(
        (any::<u8>(), -3i64..4).prop_map(|(v, c)| (var(v), Fr::from_i128(c as i128))),
        0..max_len + 1,
    )
}

/// One step of a random walk over the public operations.
#[derive(Clone, Debug)]
enum Op {
    AddTerm(Fr, Variable),
    Scale(Fr),
    Add(Terms),
    Sub(Terms),
    AddAssign(Terms),
    SubAssign(Terms),
    AddScaled(Terms, Fr),
    Neg,
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..8, any::<u8>(), -2i64..3, arb_raw_terms(3)).prop_map(|(op, v, c, other)| {
        let c = Fr::from_i128(c as i128);
        match op {
            // twice as likely as the rest: it is the one that merges
            0 | 1 => Op::AddTerm(c, var(v)),
            2 => Op::Scale(c),
            3 => Op::Add(other),
            4 => Op::Sub(other),
            5 => Op::AddAssign(other),
            6 => Op::SubAssign(other),
            _ if v % 4 == 0 => Op::Neg,
            _ => Op::AddScaled(other, c),
        }
    })
}

/// The operation on a plain vector of terms — what the tuple-struct-over-
/// `Vec` representation did, line for line.
fn apply_to_model(mut model: Terms, op: &Op) -> Terms {
    let negated = |terms: &Terms| -> Terms { terms.iter().map(|(v, c)| (*v, -*c)).collect() };
    match op {
        Op::AddTerm(c, _) if c.is_zero() => {}
        Op::AddTerm(c, v) => match model.iter().position(|(mv, _)| mv == v) {
            Some(pos) => {
                model[pos].1 += *c;
                if model[pos].1.is_zero() {
                    model.remove(pos);
                }
            }
            None => model.push((*v, *c)),
        },
        Op::Scale(c) if c.is_zero() => model.clear(),
        Op::Scale(c) => model.iter_mut().for_each(|(_, mc)| *mc *= *c),
        Op::Add(other) | Op::AddAssign(other) => model.extend(other),
        Op::Sub(other) | Op::SubAssign(other) => model.extend(negated(other)),
        Op::AddScaled(_, c) if c.is_zero() => {}
        Op::AddScaled(other, c) => model.extend(other.iter().map(|(v, oc)| (*v, *oc * *c))),
        Op::Neg => model = negated(&model),
    }
    model
}

fn apply(mut lc: LinearCombination<Fr>, op: &Op) -> LinearCombination<Fr> {
    match op {
        Op::AddTerm(c, v) => return lc.add_term(*c, *v),
        Op::Scale(c) => return lc.scale(*c),
        Op::Add(other) => return lc + collect(other),
        Op::Sub(other) => return lc - collect(other),
        Op::Neg => return -lc,
        Op::AddAssign(other) => lc += &collect(other),
        Op::SubAssign(other) => lc -= &collect(other),
        Op::AddScaled(other, c) => lc.add_scaled(&collect(other), *c),
    }
    lc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compact_is_the_reference_compact(terms in arb_raw_terms(24)) {
        let expected = reference_compact(terms.clone());
        let compacted = collect(&terms).compact();
        prop_assert_eq!(compacted.terms(), &expected[..]);
        // a fixed point, whether it arrives in the buffer `compact` left
        // or freshly collected (one term inline, more on the heap)
        prop_assert_eq!(compacted.clone().compact().terms(), &expected[..]);
        prop_assert_eq!(collect(&expected).compact().terms(), &expected[..]);
    }

    #[test]
    fn every_operation_agrees_with_a_plain_vector(
        start in arb_raw_terms(2),
        ops in prop::collection::vec(arb_op(), 1..12),
    ) {
        // short starts and short operands keep the walk around the
        // inline ↔ heap boundary, crossing it both ways
        let mut lc = collect(&start);
        let mut model = start;
        for op in &ops {
            lc = apply(lc, op);
            model = apply_to_model(model, op);
            prop_assert_eq!(lc.terms(), &model[..], "after {:?}", op);
            prop_assert_eq!(&lc, &collect(&model));
        }
        prop_assert_eq!(lc.compact().terms(), &reference_compact(model)[..]);
    }
}

/// 0 → 1 → 2 → 1 → 0 terms by `add_term`, the spill and both
/// cancellations spelled out.
#[test]
fn add_term_walks_across_the_boundary_and_back() {
    let (x, y) = (Variable::Witness(0), Variable::Witness(1));
    let two = Fr::from_u64(2);
    let lc = LinearCombination::<Fr>::zero();
    assert!(lc.terms().is_empty());
    let lc = lc.add_term(two, x);
    assert_eq!(lc.terms(), [(x, two)]);
    let lc = lc.add_term(Fr::one(), y);
    assert_eq!(lc.terms(), [(x, two), (y, Fr::one())]);
    // cancellation down to one term: what is left is equal to (and
    // compacts like) a combination that never had a second
    let lc = lc.add_term(-two, x);
    assert_eq!(lc.terms(), [(y, Fr::one())]);
    assert_eq!(lc, LinearCombination::from(y));
    assert_eq!(lc.clone().compact(), LinearCombination::from(y));
    let lc = lc.add_term(-Fr::one(), y);
    assert!(lc.terms().is_empty());
    assert_eq!(lc, LinearCombination::zero());
    // cancellation of the only term a combination ever had
    let only = LinearCombination::<Fr>::from(x).add_term(-Fr::one(), x);
    assert_eq!(only, LinearCombination::zero());
    // and it grows again from there
    assert_eq!(only.add_term(two, y).terms(), [(y, two)]);
}

/// `compact` returns early on input that is already canonical. Sorted is
/// not enough: equal neighbours still have to merge (and may cancel), and
/// a zero coefficient still has to go.
#[test]
fn only_strictly_sorted_zero_free_input_skips_normalization() {
    let (w0, w1, w2) = (
        Variable::Witness(0),
        Variable::Witness(1),
        Variable::Witness(2),
    );
    let (one, two) = (Fr::one(), Fr::from_u64(2));
    let cases: [&[(Variable, Fr)]; 8] = [
        // canonical: comes back as it went in
        &[
            (Variable::One, two),
            (Variable::Instance(1), one),
            (w0, -one),
        ],
        &[(w1, two)],
        // sorted, but with equal keys
        &[(w0, one), (w1, one), (w1, one), (w2, one)],
        &[(w0, one), (w1, one), (w1, -one)],
        &[(w1, one), (w1, -one)],
        // sorted, but with a zero coefficient — also alone, inline
        &[(w0, one), (w1, Fr::zero()), (w2, one)],
        &[(w0, one), (w1, Fr::zero())],
        &[(w1, Fr::zero())],
    ];
    for terms in cases {
        assert_eq!(
            collect(terms).compact().terms(),
            &reference_compact(terms.to_vec())[..],
            "{terms:?}"
        );
    }
    assert_eq!(collect(cases[0]).compact().terms(), cases[0]);
}
