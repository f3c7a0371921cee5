//! Equivalence corpus for the broadcast walker: `badd`/`bsub`/`bmul`
//! and `reduce_to_shape` must match, bit for bit, a naive reference that
//! unravels every flat output index into a multi-index and reads each
//! operand through it. Shapes are seeded random pairs of rank 0–5 (size-1
//! axes on either side, missing leading axes, scalars, zero-size axes)
//! plus the real network patterns.

use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Shape, Tensor};

type BinOp = fn(f32, f32) -> f32;

const OPS: [(&str, BinOp); 3] = [
    ("badd", |a, b| a + b),
    ("bsub", |a, b| a - b),
    ("bmul", |a, b| a * b),
];

fn apply(name: &str, a: &Tensor, b: &Tensor) -> Tensor {
    match name {
        "badd" => a.badd(b),
        "bsub" => a.bsub(b),
        _ => a.bmul(b),
    }
    .unwrap()
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Broadcast shape of `a` and `b`, computed axis by axis from the right.
fn ref_broadcast_dims(a: &[usize], b: &[usize]) -> Vec<usize> {
    let rank = a.len().max(b.len());
    let at = |d: &[usize], i: usize| {
        let pad = rank - d.len();
        if i < pad {
            1
        } else {
            d[i - pad]
        }
    };
    (0..rank)
        .map(|i| {
            let (x, y) = (at(a, i), at(b, i));
            if x == 1 {
                y
            } else {
                x
            }
        })
        .collect()
}

/// Row-major multi-index of `flat` in `dims`.
fn unravel(mut flat: usize, dims: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; dims.len()];
    for ax in (0..dims.len()).rev() {
        idx[ax] = flat % dims[ax];
        flat /= dims[ax];
    }
    idx
}

/// Flat offset in `src` of the output multi-index `idx` (trailing axes
/// aligned; size-1 source axes read index 0).
fn source_offset(idx: &[usize], src: &[usize]) -> usize {
    let pad = idx.len() - src.len();
    src.iter().enumerate().fold(0, |off, (i, &d)| {
        off * d + if d == 1 { 0 } else { idx[i + pad] }
    })
}

fn ref_broadcast(a: &Tensor, b: &Tensor, f: BinOp) -> (Vec<usize>, Vec<f32>) {
    let dims = ref_broadcast_dims(a.dims(), b.dims());
    let numel = dims.iter().product();
    let data = (0..numel)
        .map(|flat| {
            let idx = unravel(flat, &dims);
            f(
                a.data()[source_offset(&idx, a.dims())],
                b.data()[source_offset(&idx, b.dims())],
            )
        })
        .collect();
    (dims, data)
}

/// Sums `src` down to `target`, each output accumulating in ascending
/// flat order of `src`.
fn ref_reduce(src: &Tensor, target: &[usize]) -> Vec<f32> {
    let mut out = vec![0.0f32; target.iter().product()];
    for (flat, &v) in src.data().iter().enumerate() {
        out[source_offset(&unravel(flat, src.dims()), target)] += v;
    }
    out
}

fn random_tensor(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let n = dims.iter().product();
    // Magnitudes spread over several binades so rounding is exercised.
    let data = (0..n)
        .map(|_| {
            let m = rng.gen_range(-2.0f32..2.0);
            m * [1.0, 1e-3, 37.0][rng.gen_range(0..3usize)]
        })
        .collect();
    Tensor::from_vec(data, dims.to_vec()).unwrap()
}

/// A random broadcast-compatible pair: a full shape of rank 0–5 (zero-size
/// axes now and then), and each operand a suffix of it with some axes
/// squeezed to 1.
fn random_pair(rng: &mut StdRng) -> (Vec<usize>, Vec<usize>) {
    let rank = rng.gen_range(0..=5usize);
    let full: Vec<usize> = (0..rank)
        .map(|_| {
            if rng.gen_range(0..12usize) == 0 {
                0
            } else {
                rng.gen_range(1..=4usize)
            }
        })
        .collect();
    let operand = |rng: &mut StdRng| -> Vec<usize> {
        let drop = rng.gen_range(0..=rank);
        full[drop..]
            .iter()
            .map(|&d| if rng.gen_range(0..3usize) == 0 { 1 } else { d })
            .collect()
    };
    (operand(rng), operand(rng))
}

fn check_pair(a: &Tensor, b: &Tensor, ctx: &str) {
    for (name, f) in OPS {
        let got = apply(name, a, b);
        let (dims, want) = ref_broadcast(a, b, f);
        assert_eq!(got.dims(), dims.as_slice(), "{name} shape, {ctx}");
        assert_eq!(bits(got.data()), bits(&want), "{name} values, {ctx}");
    }
    // The adjoint: reduce a broadcast-shaped tensor back to each operand.
    let dims = ref_broadcast_dims(a.dims(), b.dims());
    let mut rng = StdRng::seed_from_u64(dims.iter().sum::<usize>() as u64);
    let grad = random_tensor(&dims, &mut rng);
    for target in [a.dims(), b.dims()] {
        let got = grad.reduce_to_shape(&Shape::from(target.to_vec())).unwrap();
        assert_eq!(got.dims(), target, "reduce shape, {ctx}");
        assert_eq!(
            bits(got.data()),
            bits(&ref_reduce(&grad, target)),
            "reduce {:?} -> {target:?} values, {ctx}",
            grad.dims()
        );
    }
}

#[test]
fn random_shape_pairs_match_the_reference_bitwise() {
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB0AD_CA57);
        let (da, db) = random_pair(&mut rng);
        let a = random_tensor(&da, &mut rng);
        let b = random_tensor(&db, &mut rng);
        check_pair(&a, &b, &format!("seed {seed}: {da:?} x {db:?}"));
    }
}

#[test]
fn network_patterns_match_the_reference_bitwise() {
    let cases: [(&[usize], &[usize]); 9] = [
        // Eval-mode batch norm: (N,C,H,W) x (1,C,1,1), incl. MobileNet's
        // short 2x2 and 4x4 spatial runs.
        (&[64, 8, 8, 8], &[1, 8, 1, 1]),
        (&[16, 32, 4, 4], &[1, 32, 1, 1]),
        (&[16, 64, 2, 2], &[1, 64, 1, 1]),
        (&[1, 8, 1, 1], &[5, 8, 3, 3]),
        // Linear bias: (N,K) + (K,), both operand orders.
        (&[32, 10], &[10]),
        (&[10], &[32, 10]),
        // Scalars and single elements.
        (&[], &[3, 4]),
        (&[1, 1], &[1]),
        (&[7, 1, 5], &[1, 6, 1]),
    ];
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for (da, db) in cases {
        let a = random_tensor(da, &mut rng);
        let b = random_tensor(db, &mut rng);
        check_pair(&a, &b, &format!("{da:?} x {db:?}"));
    }
}

#[test]
fn zero_size_axes_produce_empty_results() {
    let a = Tensor::zeros([0, 3]);
    let b = Tensor::ones([3]);
    assert_eq!(a.badd(&b).unwrap().dims(), &[0, 3]);
    assert_eq!(
        b.bmul(&Tensor::zeros([2, 0, 1])).unwrap().dims(),
        &[2, 0, 3]
    );
    let reduced = a.reduce_to_shape(&Shape::from([3])).unwrap();
    assert_eq!(reduced.data(), &[0.0, 0.0, 0.0]);
}
