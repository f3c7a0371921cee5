//! Bitwise corpus for the train-mode batch-norm kernels
//! (`Tensor::batch_norm_train`, `Tensor::batch_norm_backward`).
//!
//! The oracle is the straightforward per-channel loop pair below: one
//! serial chain per statistic, indexed element by element. The kernels run
//! the same chains side by side, so every output — `out`, `x̂`, mean,
//! variance, `inv_std`, `dX`, `dγ`, `dβ` — must match it bit for bit.
//! Fixed cases cover every batch-norm shape of the three C10 models at
//! batch 8, 32 and 64, channel counts off the lane width (3, 13), 1×1
//! planes, a single image, ±inf and NaN in `x` and in `dY`, an all −0.0
//! input and ×1e3 magnitudes. A release-only sweep (`#[ignore]`d; run with
//! `cargo test --release -p hero-tensor --test batch_norm_kernels --
//! --include-ignored`) adds seeded shapes up to batch 64, 96 channels and
//! 64-element planes.

use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Tensor, TensorError};

const EPS: f32 = 1e-5;

/// `(out, x̂, mean, var, inv_std)` of the reference forward.
type OracleForward = (Tensor, Tensor, Vec<f32>, Vec<f32>, Vec<f32>);

/// Reference forward.
fn oracle_forward(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> OracleForward {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let m = (n * h * w) as f32;
    let mut mean = vec![0.0f32; c];
    let mut var = vec![0.0f32; c];
    for (ch, mean_ch) in mean.iter_mut().enumerate() {
        let mut acc = 0.0;
        for in_ in 0..n {
            let base = (in_ * c + ch) * h * w;
            acc += x.data()[base..base + h * w].iter().sum::<f32>();
        }
        *mean_ch = acc / m;
    }
    for (ch, var_ch) in var.iter_mut().enumerate() {
        let mu = mean[ch];
        let mut acc = 0.0;
        for in_ in 0..n {
            let base = (in_ * c + ch) * h * w;
            acc += x.data()[base..base + h * w]
                .iter()
                .map(|&v| (v - mu) * (v - mu))
                .sum::<f32>();
        }
        *var_ch = acc / m;
    }
    let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
    let mut xhat = Tensor::zeros([n, c, h, w]);
    let mut out = Tensor::zeros([n, c, h, w]);
    for in_ in 0..n {
        for ch in 0..c {
            let base = (in_ * c + ch) * h * w;
            let (mu, is) = (mean[ch], inv_std[ch]);
            let (ga, be) = (gamma.data()[ch], beta.data()[ch]);
            for off in base..base + h * w {
                let z = (x.data()[off] - mu) * is;
                xhat.data_mut()[off] = z;
                out.data_mut()[off] = ga * z + be;
            }
        }
    }
    (out, xhat, mean, var, inv_std)
}

/// Reference backward: `(dX, dγ, dβ)`.
fn oracle_backward(
    grad: &Tensor,
    xhat: &Tensor,
    gamma: &Tensor,
    inv_std: &[f32],
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (n, c, h, w) = (
        xhat.dims()[0],
        xhat.dims()[1],
        xhat.dims()[2],
        xhat.dims()[3],
    );
    let m = (n * h * w) as f32;
    let gv = gamma;
    let mut dgamma = vec![0.0f32; c];
    let mut dbeta = vec![0.0f32; c];
    let mut sum_dxhat = vec![0.0f32; c];
    let mut sum_dxhat_xhat = vec![0.0f32; c];
    for in_ in 0..n {
        for ch in 0..c {
            let base = (in_ * c + ch) * h * w;
            for off in base..base + h * w {
                let dy = grad.data()[off];
                let xh = xhat.data()[off];
                dbeta[ch] += dy;
                dgamma[ch] += dy * xh;
                let dxh = dy * gv.data()[ch];
                sum_dxhat[ch] += dxh;
                sum_dxhat_xhat[ch] += dxh * xh;
            }
        }
    }
    let mut dx = Tensor::zeros([n, c, h, w]);
    for in_ in 0..n {
        for ch in 0..c {
            let base = (in_ * c + ch) * h * w;
            let scale = inv_std[ch] / m;
            for off in base..base + h * w {
                let dy = grad.data()[off];
                let xh = xhat.data()[off];
                let dxh = dy * gv.data()[ch];
                dx.data_mut()[off] = scale * (m * dxh - sum_dxhat[ch] - xh * sum_dxhat_xhat[ch]);
            }
        }
    }
    (dx, dgamma, dbeta)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise(what: &str, dims: &[usize], got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what} {dims:?}: length");
    if let Some(i) = bits(got).iter().zip(bits(want)).position(|(a, b)| *a != b) {
        panic!(
            "{what} {dims:?}: element {i} is {} ({:#010x}), oracle {} ({:#010x})",
            got[i],
            got[i].to_bits(),
            want[i],
            want[i].to_bits()
        );
    }
}

/// Runs both kernels on `x` and `dy` and compares every output with the
/// oracle. The backward also runs on the oracle's own `x̂`, so a forward
/// mismatch cannot hide a backward one.
fn check(x: &Tensor, dy: &Tensor, gamma: &Tensor, beta: &Tensor) {
    let dims = x.dims();
    let f = x.batch_norm_train(gamma, beta, EPS).unwrap();
    let (out, xhat, mean, var, inv_std) = oracle_forward(x, gamma, beta);
    assert_eq!(f.out.dims(), dims);
    assert_eq!(f.xhat.dims(), dims);
    assert_bitwise("out", dims, f.out.data(), out.data());
    assert_bitwise("xhat", dims, f.xhat.data(), xhat.data());
    assert_bitwise("mean", dims, &f.mean, &mean);
    assert_bitwise("var", dims, &f.var, &var);
    assert_bitwise("inv_std", dims, &f.inv_std, &inv_std);

    let (dx, dgamma, dbeta) = dy.batch_norm_backward(&xhat, gamma, &inv_std).unwrap();
    let (want_dx, want_dgamma, want_dbeta) = oracle_backward(dy, &xhat, gamma, &inv_std);
    assert_eq!(dx.dims(), dims);
    assert_eq!(dgamma.dims(), gamma.dims());
    assert_eq!(dbeta.dims(), gamma.dims());
    assert_bitwise("dx", dims, dx.data(), want_dx.data());
    assert_bitwise("dgamma", dims, dgamma.data(), &want_dgamma);
    assert_bitwise("dbeta", dims, dbeta.data(), &want_dbeta);
}

/// Seeded uniform values in `[−scale, scale)`.
fn seeded(dims: &[usize], scale: f32, rng: &mut StdRng) -> Tensor {
    let len = dims.iter().product();
    let data = (0..len)
        .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
        .collect();
    Tensor::from_vec(data, dims.to_vec()).unwrap()
}

/// Seeded `x`, `dY`, `γ` and `β` for an `(n, c, h, w)` batch norm, with
/// `x` and `dY` scaled by `scale`.
fn inputs(dims: [usize; 4], scale: f32, seed: u64) -> [Tensor; 4] {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = seeded(&dims, scale, &mut rng);
    let dy = seeded(&dims, scale, &mut rng);
    let gamma = seeded(&[dims[1]], 2.0, &mut rng);
    let beta = seeded(&[dims[1]], 1.0, &mut rng);
    [x, dy, gamma, beta]
}

fn check_seeded(dims: [usize; 4], scale: f32, seed: u64) {
    let [x, dy, gamma, beta] = inputs(dims, scale, seed);
    check(&x, &dy, &gamma, &beta);
}

/// The distinct `(c, h, w)` of the batch norms in the C10 models (width
/// 8, 8×8 input): ResNet's, then those MobileNet and VGG add.
const MODEL_SHAPES: [(usize, usize, usize); 12] = [
    (8, 8, 8),
    (8, 4, 4),
    (16, 2, 2),
    (32, 8, 8),
    (32, 4, 4),
    (16, 4, 4),
    (64, 4, 4),
    (64, 2, 2),
    (24, 2, 2),
    (96, 2, 2),
    (48, 2, 2),
    (16, 8, 8),
];

#[test]
fn model_shapes_match_the_oracle_bitwise() {
    for n in [8, 32, 64] {
        for (i, &(c, h, w)) in MODEL_SHAPES.iter().enumerate() {
            check_seeded([n, c, h, w], 1.0, (n * 100 + i) as u64);
        }
    }
}

#[test]
fn odd_shapes_match_the_oracle_bitwise() {
    let shapes = [
        [4, 3, 5, 5],
        [5, 13, 3, 3],
        [2, 13, 1, 1],
        [32, 8, 1, 1],
        [1, 8, 8, 8],
        [1, 3, 1, 1],
        [1, 1, 1, 1],
        [3, 17, 2, 3],
        [7, 9, 4, 1],
    ];
    for (i, dims) in shapes.into_iter().enumerate() {
        check_seeded(dims, 1.0, 1000 + i as u64);
    }
}

#[test]
fn large_magnitudes_match_the_oracle_bitwise() {
    for (i, &(c, h, w)) in MODEL_SHAPES.iter().enumerate() {
        check_seeded([8, c, h, w], 1e3, 2000 + i as u64);
    }
    check_seeded([5, 13, 3, 3], 1e3, 2100);
}

#[test]
fn non_finite_values_match_the_oracle_bitwise() {
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (i, dims) in [[8, 8, 8, 8], [4, 13, 3, 3], [32, 16, 2, 2], [3, 3, 1, 1]]
        .into_iter()
        .enumerate()
    {
        for (j, &special) in specials.iter().enumerate() {
            let seed = 3000 + (i * 10 + j) as u64;
            let [mut x, dy, gamma, beta] = inputs(dims, 1.0, seed);
            // One poisoned channel in x: its statistics go non-finite, the
            // other channels must stay untouched.
            let at = x.numel() / 3;
            x.data_mut()[at] = special;
            check(&x, &dy, &gamma, &beta);

            let [x, mut dy, gamma, beta] = inputs(dims, 1.0, seed + 1);
            // Opposite infinities meet in one chain and make a NaN there.
            // Two NaNs of different sign never meet: which one an addition
            // returns is left open by IEEE 754, and the compiler may
            // commute the operands, so no loop order could pin it.
            let mid = dy.numel() / 2;
            dy.data_mut()[mid] = special;
            dy.data_mut()[0] = if special.is_nan() { special } else { -special };
            check(&x, &dy, &gamma, &beta);
        }
    }
}

#[test]
fn all_negative_zero_input_matches_the_oracle_bitwise() {
    // Slab sums start at −0.0 as `Iterator::sum` does; an all −0.0 input is
    // the case where that start is visible.
    for dims in [[8, 8, 8, 8], [3, 13, 2, 2], [1, 3, 1, 1]] {
        let numel = dims.iter().product();
        let x = Tensor::from_vec(vec![-0.0; numel], dims.to_vec()).unwrap();
        let dy = Tensor::from_vec(vec![-0.0; numel], dims.to_vec()).unwrap();
        let gamma = Tensor::full([dims[1]], -0.0);
        let beta = Tensor::full([dims[1]], -0.0);
        check(&x, &dy, &gamma, &beta);
        let [_, dy, gamma, beta] = inputs(dims, 1.0, 4000);
        check(&x, &dy, &gamma, &beta);
    }
}

#[test]
fn seeded_shapes_match_the_oracle_bitwise() {
    sweep(5000, 40, 8, 20, 4);
}

#[test]
#[ignore = "release-only: cargo test --release -p hero-tensor --test batch_norm_kernels -- --include-ignored"]
fn large_seeded_shapes_match_the_oracle_bitwise() {
    sweep(6000, 300, 64, 96, 8);
}

/// `cases` seeded shapes with `n ≤ n_max`, `c ≤ c_max` and `h, w ≤ side_max`.
fn sweep(seed: u64, cases: u64, n_max: usize, c_max: usize, side_max: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..cases {
        let dims = [
            rng.gen_range(1..=n_max),
            rng.gen_range(1..=c_max),
            rng.gen_range(1..=side_max),
            rng.gen_range(1..=side_max),
        ];
        let scale = if k % 4 == 3 { 1e3 } else { 1.0 };
        check_seeded(dims, scale, seed + 1 + k);
    }
}

#[test]
fn kernels_validate_shapes() {
    let x = Tensor::zeros([2, 3, 4, 4]);
    let g3 = Tensor::ones([3]);
    let g4 = Tensor::ones([4]);
    assert!(matches!(
        Tensor::zeros([2, 3, 4]).batch_norm_train(&g3, &g3, EPS),
        Err(TensorError::RankMismatch { .. })
    ));
    assert!(matches!(
        x.batch_norm_train(&g4, &g3, EPS),
        Err(TensorError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        x.batch_norm_train(&g3, &g4, EPS),
        Err(TensorError::ShapeMismatch { .. })
    ));
    let inv = [1.0; 3];
    assert!(matches!(
        x.batch_norm_backward(&Tensor::zeros([2, 3, 4, 5]), &g3, &inv),
        Err(TensorError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        x.batch_norm_backward(&x, &g4, &inv),
        Err(TensorError::ShapeMismatch { .. })
    ));
    assert!(matches!(
        x.batch_norm_backward(&x, &g3, &[1.0; 2]),
        Err(TensorError::ShapeMismatch { .. })
    ));
}
