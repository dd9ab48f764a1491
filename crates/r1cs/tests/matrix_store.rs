//! The flat constraint store against the lowering it replaced.
//!
//! The storing drivers used to keep every compacted constraint as three
//! [`LinearCombination`]s and map `Variable → column` in a second pass,
//! once the variable counts were final. They now write the matrices
//! directly, a term at a time, while the counts are still moving — an
//! instance variable may be allocated after witnesses that constraints
//! already mention (the extraction circuit's verdict is). The old pass is
//! kept here as the [`Oracle`]: random programs that interleave
//! allocations and constraints must read back from [`SetupSynthesizer`]
//! and [`ProvingSynthesizer`] as the rows it lowers, and the two kernels
//! that read the store without going through rows must agree with them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zkrownn_ff::{Field, Fr, PrimeField};
use zkrownn_r1cs::{
    ConstraintSystem, LinearCombination, Matrix, ProvingSynthesizer, R1csMatrices,
    SetupSynthesizer, Variable,
};

type Rows = Vec<Vec<(usize, Fr)>>;

/// The lowering the store replaced: each compacted constraint kept as its
/// `(Variable, coefficient)` terms, and `Variable → column of z` applied
/// at the end, when `num_instance` is known.
struct Oracle {
    constraints: Vec<[LinearCombination<Fr>; 3]>,
    num_instance: usize,
    num_witness: usize,
}

impl Oracle {
    fn rows(&self, which: usize) -> Rows {
        let column = |v: Variable| match v {
            Variable::One => 0,
            Variable::Instance(i) => i,
            Variable::Witness(i) => self.num_instance + i,
        };
        let lower = |(v, coeff): &(Variable, Fr)| (column(*v), *coeff);
        self.constraints
            .iter()
            .map(|abc| abc[which].terms().iter().map(lower).collect())
            .collect()
    }
}

/// What a matrix reads back as, through `rows()` — and through `row(i)`,
/// which must be the same view.
fn read_back(matrix: Matrix<'_, Fr>, num_constraints: usize) -> Rows {
    let rows: Rows = matrix.rows().map(|row| row.iter().collect()).collect();
    assert_eq!(rows.len(), num_constraints);
    for (i, terms) in rows.iter().enumerate() {
        assert!(matrix.row(i).iter().eq(terms.iter().copied()));
    }
    rows
}

fn dot(row: &[(usize, Fr)], z: &[Fr]) -> Fr {
    row.iter()
        .fold(Fr::zero(), |acc, (col, coeff)| acc + z[*col] * *coeff)
}

/// Which shapes of row the programs produced, so the test can say it
/// covered what it claims to.
#[derive(Default)]
struct Seen {
    empty: usize,
    cancelled: usize,
    single: usize,
    many: usize,
    instance_after_witness: usize,
}

/// A combination over `vars`, as a circuit would hand it to `enforce`:
/// unsorted, with duplicates and zero coefficients left in.
fn combination(rng: &mut StdRng, vars: &[Variable], seen: &mut Seen) -> LinearCombination<Fr> {
    let pick = |rng: &mut StdRng| vars[rng.gen_range(0..vars.len())];
    match rng.gen_range(0..6) {
        0 => {
            seen.empty += 1;
            LinearCombination::zero()
        }
        1 => {
            // built of terms, compacts to none
            seen.cancelled += 1;
            let (v, k) = (pick(rng), Fr::from_u64(rng.gen_range(1..9)));
            [(v, k), (pick(rng), Fr::zero()), (v, -k)]
                .into_iter()
                .collect()
        }
        2 => {
            seen.single += 1;
            pick(rng).into()
        }
        _ => {
            seen.many += 1;
            (0..rng.gen_range(2..12))
                .map(|_| (pick(rng), Fr::from_i128(rng.gen_range(-3i64..4) as i128)))
                .collect()
        }
    }
}

/// Runs one random program through both storing drivers and the oracle.
fn run(seed: u64, seen: &mut Seen) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut setup = SetupSynthesizer::<Fr>::new();
    let mut prove = ProvingSynthesizer::<Fr>::new();
    let mut oracle = Oracle {
        constraints: Vec::new(),
        num_instance: 1,
        num_witness: 0,
    };
    let mut vars = vec![Variable::One];
    let mut constrained_a_witness = false;
    for _ in 0..rng.gen_range(0..80) {
        let value = Fr::from_u64(rng.gen_range(0..5));
        match rng.gen_range(0..5) {
            0 => {
                let var = setup.alloc_instance(|| unreachable!()).unwrap();
                assert_eq!(prove.alloc_instance(|| Ok(value)), Ok(var));
                assert_eq!(var, Variable::Instance(oracle.num_instance));
                oracle.num_instance += 1;
                seen.instance_after_witness += usize::from(constrained_a_witness);
                vars.push(var);
            }
            1 => {
                let var = setup.alloc_witness(|| unreachable!()).unwrap();
                assert_eq!(prove.alloc_witness(|| Ok(value)), Ok(var));
                assert_eq!(var, Variable::Witness(oracle.num_witness));
                oracle.num_witness += 1;
                vars.push(var);
            }
            _ => {
                let abc = [(); 3].map(|()| combination(&mut rng, &vars, seen));
                let [a, b, c] = abc.clone();
                setup.enforce(a, b, c);
                let [a, b, c] = abc.clone();
                prove.enforce(a, b, c);
                constrained_a_witness |= abc
                    .iter()
                    .flat_map(|lc| lc.terms())
                    .any(|(v, _)| matches!(v, Variable::Witness(_)));
                oracle.constraints.push(abc.map(LinearCombination::compact));
            }
        }
    }

    let (keyed, proved) = (setup.to_matrices(), prove.to_matrices());
    assert_eq!(keyed, proved, "seed {seed}");
    assert_eq!(keyed, setup.into_parts().0, "seed {seed}: moved ≠ copied");
    let z = prove.full_assignment();
    let mut products = Vec::new();
    for (which, matrix) in [proved.a(), proved.b(), proved.c()].into_iter().enumerate() {
        let expected = oracle.rows(which);
        let rows = read_back(matrix, oracle.constraints.len());
        assert_eq!(rows, expected, "seed {seed}, matrix {which}");
        let by_row: Vec<Fr> = expected.iter().map(|row| dot(row, &z)).collect();
        assert!(matrix.row_products(&z).eq(by_row.iter().copied()));
        products.push(by_row);
    }
    let counts = |m: &R1csMatrices<Fr>| (m.num_constraints(), m.num_instance(), m.num_witness());
    assert_eq!(
        counts(&proved),
        (
            oracle.constraints.len(),
            oracle.num_instance,
            oracle.num_witness
        )
    );
    // the driver's own check reads the store before any count is final
    let violated =
        (0..oracle.constraints.len()).find(|&i| products[0][i] * products[1][i] != products[2][i]);
    assert_eq!(prove.is_satisfied(), violated.map_or(Ok(()), Err));
}

#[test]
fn the_store_reads_back_as_the_lowering_it_replaced() {
    let mut seen = Seen::default();
    for seed in 0..200 {
        run(seed, &mut seen);
    }
    let Seen {
        empty,
        cancelled,
        single,
        many,
        instance_after_witness,
    } = seen;
    assert!(
        [empty, cancelled, single, many, instance_after_witness]
            .iter()
            .all(|&n| n > 100),
        "{empty} / {cancelled} / {single} / {many} / {instance_after_witness}"
    );
}
