//! Deterministic seeded-loop tests for tensor invariants.
//!
//! Formerly a proptest suite; rewritten as explicit seeded loops over the
//! in-tree [`hero_tensor::rng`] so the workspace tests run with no external
//! dependencies. Each case count and seed is fixed, so failures reproduce
//! exactly.

use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{global_norm_l2, ConvGeometry, Shape, Tensor};
use hero_testkit::{col2im, im2col};

/// Draws a small shape (rank 1..=4, dims 1..=6).
fn small_shape(rng: &mut StdRng) -> Vec<usize> {
    let rank = rng.gen_range(1..=4usize);
    (0..rank).map(|_| rng.gen_range(1..=6usize)).collect()
}

/// Draws a tensor of the given shape filled with values in [-100, 100).
fn tensor_of(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let n: usize = dims.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
    Tensor::from_vec(data, dims.to_vec()).unwrap()
}

fn arb_tensor(rng: &mut StdRng) -> Tensor {
    let dims = small_shape(rng);
    tensor_of(rng, &dims)
}

#[test]
fn offset_unravel_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x0FF5E7);
    for _ in 0..64 {
        let shape = Shape::new(small_shape(&mut rng));
        let flat = rng.gen_range(0..1000usize) % shape.numel();
        let idx = shape.unravel(flat);
        let offset: usize = idx.iter().zip(shape.strides()).map(|(i, s)| i * s).sum();
        assert_eq!(offset, flat);
    }
}

#[test]
fn add_is_commutative() {
    let mut rng = StdRng::seed_from_u64(0xADD);
    for _ in 0..32 {
        let t = arb_tensor(&mut rng);
        let u = t.map(|v| v * 0.5 - 1.0);
        assert_eq!(t.add(&u).unwrap(), u.add(&t).unwrap());
    }
}

#[test]
fn sub_then_add_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x5B);
    for _ in 0..32 {
        let t = arb_tensor(&mut rng);
        let u = t.map(|v| v * 0.25 + 2.0);
        let back = t.sub(&u).unwrap().add(&u).unwrap();
        for (a, b) in back.data().iter().zip(t.data()) {
            assert!((a - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }
}

#[test]
fn norm_inequality_chain() {
    let mut rng = StdRng::seed_from_u64(0x90);
    for _ in 0..32 {
        let t = arb_tensor(&mut rng);
        // ||x||_inf <= ||x||_2 <= ||x||_1 <= sqrt(n) ||x||_2
        let eps = 1e-2;
        assert!(t.norm_linf() <= t.norm_l2() + eps);
        assert!(t.norm_l2() <= t.norm_l1() + eps);
        assert!(t.norm_l1() <= (t.numel() as f32).sqrt() * t.norm_l2() + eps);
    }
}

#[test]
fn triangle_inequality_l2() {
    let mut rng = StdRng::seed_from_u64(0x741A);
    for _ in 0..32 {
        let t = arb_tensor(&mut rng);
        let u = t.map(|v| 3.0 - v * 0.5);
        let s = t.add(&u).unwrap();
        assert!(s.norm_l2() <= t.norm_l2() + u.norm_l2() + 1e-2);
    }
}

#[test]
fn reshape_preserves_sum() {
    let mut rng = StdRng::seed_from_u64(0x4E5);
    for _ in 0..32 {
        let t = arb_tensor(&mut rng);
        let flat = t.flatten();
        assert_eq!(flat.sum(), t.sum());
        assert_eq!(flat.numel(), t.numel());
    }
}

#[test]
fn matmul_distributes_over_addition() {
    let mut rng = StdRng::seed_from_u64(0xD157);
    for _ in 0..64 {
        let (m, k, n) = (
            rng.gen_range(1..5usize),
            rng.gen_range(1..5usize),
            rng.gen_range(1..5usize),
        );
        let seed = rng.gen_range(0..1000u64);
        // (A)(B + C) == AB + AC
        let f = |s: u64, r: usize, c: usize| {
            Tensor::from_fn([r, c], |i| {
                (((i[0] * 31 + i[1] * 17) as u64 + s) % 13) as f32 - 6.0
            })
        };
        let a = f(seed, m, k);
        let b = f(seed + 1, k, n);
        let c = f(seed + 2, k, n);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    }
}

#[test]
fn matmul_transpose_identity() {
    let mut rng = StdRng::seed_from_u64(0x7A45);
    for _ in 0..64 {
        let (m, k, n) = (
            rng.gen_range(1..5usize),
            rng.gen_range(1..5usize),
            rng.gen_range(1..5usize),
        );
        let seed = rng.gen_range(0..100u64);
        // (AB)^T == B^T A^T
        let f = |s: u64, r: usize, c: usize| {
            Tensor::from_fn([r, c], |i| {
                (((i[0] * 7 + i[1] * 3) as u64 + s) % 11) as f32 - 5.0
            })
        };
        let a = f(seed, m, k);
        let b = f(seed + 5, k, n);
        let lhs = a.matmul(&b).unwrap().transpose().unwrap();
        let rhs = b
            .transpose()
            .unwrap()
            .matmul(&a.transpose().unwrap())
            .unwrap();
        assert_eq!(lhs, rhs);
    }
}

#[test]
fn softmax_rows_is_probability_distribution() {
    let mut rng = StdRng::seed_from_u64(0x50F7);
    for _ in 0..32 {
        let rows = rng.gen_range(1..5usize);
        let cols = rng.gen_range(1..6usize);
        let seed = rng.gen_range(0..100u64);
        let t = Tensor::from_fn([rows, cols], |i| {
            (((i[0] * 13 + i[1] * 7) as u64 + seed) % 19) as f32 - 9.0
        });
        let s = t.softmax_rows().unwrap();
        for r in 0..rows {
            let row = &s.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn im2col_col2im_adjoint() {
    let mut rng = StdRng::seed_from_u64(0x12C);
    let mut cases = 0;
    while cases < 32 {
        let hw = rng.gen_range(3..7usize);
        let k = rng.gen_range(1..4usize);
        let stride = rng.gen_range(1..3usize);
        let pad = rng.gen_range(0..2usize);
        let seed = rng.gen_range(0..50u64);
        if k > hw + 2 * pad {
            continue;
        }
        cases += 1;
        let geom = ConvGeometry::new(hw, hw, k, stride, pad).unwrap();
        let x = Tensor::from_fn([1, 2, hw, hw], |i| {
            ((i.iter().sum::<usize>() as u64 + seed) % 9) as f32 - 4.0
        });
        let cols = im2col(&x, &geom).unwrap();
        let y = Tensor::from_fn([cols.dims()[0], cols.dims()[1]], |i| {
            (((i[0] * 3 + i[1] * 5) as u64 + seed) % 7) as f32 - 3.0
        });
        let lhs = cols.dot(&y).unwrap();
        let rhs = x.dot(&col2im(&y, &geom, 1, 2).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-1 * (1.0 + lhs.abs()));
    }
}

#[test]
fn pad_crop_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xBADC);
    for _ in 0..32 {
        let n = rng.gen_range(1..3usize);
        let c = rng.gen_range(1..3usize);
        let hw = rng.gen_range(1..5usize);
        let pad = rng.gen_range(0..3usize);
        let t = Tensor::from_fn([n, c, hw, hw], |i| i.iter().sum::<usize>() as f32);
        let roundtrip = t
            .pad2d(pad)
            .unwrap()
            .crop_window2d(pad, pad, hw, hw)
            .unwrap();
        assert_eq!(roundtrip, t);
    }
}

#[test]
fn global_norm_matches_concat() {
    let mut rng = StdRng::seed_from_u64(0x6106);
    for _ in 0..32 {
        let a = arb_tensor(&mut rng);
        let b = arb_tensor(&mut rng);
        let concat_sq = a.norm_l2_sq() + b.norm_l2_sq();
        let g = global_norm_l2(&[a, b]);
        assert!((g * g - concat_sq).abs() < 1e-1 * (1.0 + concat_sq));
    }
}

#[test]
fn broadcast_reduce_adjoint() {
    let mut rng = StdRng::seed_from_u64(0xB4D);
    for _ in 0..32 {
        let rows = rng.gen_range(1..5usize);
        let cols = rng.gen_range(1..5usize);
        let seed = rng.gen_range(0..100u64);
        // <broadcast(x), y> == <x, reduce(y)>
        let x = Tensor::from_fn([cols], |i| ((i[0] as u64 + seed) % 5) as f32 - 2.0);
        let y = Tensor::from_fn([rows, cols], |i| {
            (((i[0] * 3 + i[1]) as u64 + seed) % 7) as f32 - 3.0
        });
        let bx = Tensor::zeros([rows, cols]).badd(&x).unwrap();
        let lhs = bx.dot(&y).unwrap();
        let rhs = x.dot(&y.reduce_to_shape(x.shape()).unwrap()).unwrap();
        assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()));
    }
}
