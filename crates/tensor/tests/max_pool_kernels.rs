//! Bitwise corpus for the max-pool kernel (`Tensor::max_pool2d` and its
//! values-only pass, `Tensor::max_pool2d_values`).
//!
//! The oracle is the straightforward loop nest below: per window, a `>`
//! fold in window order from −∞ that records the source of every strict
//! improvement. Both passes must give its values bit for bit, and the
//! graph pass its argmax too. Fixed cases cover NaN in a window, all-NaN
//! windows (−∞ with argmax 0), ±0 ties, −∞ entries, equal maxima and
//! windows of side 1, 2 and 3; a seeded sweep adds random shapes, the two
//! VGG pooling shapes at batch 64, and random special values.

use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Tensor, TensorError};

/// Reference pooling: `(values, argmax)`.
fn oracle(x: &Tensor, k: usize) -> (Vec<f32>, Vec<usize>) {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (oh, ow) = (h / k, w / k);
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    for in_ in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_src = 0;
                    for ky in 0..k {
                        for kx in 0..k {
                            let src = (((in_ * c) + ch) * h + oy * k + ky) * w + ox * k + kx;
                            if x.data()[src] > best {
                                best = x.data()[src];
                                best_src = src;
                            }
                        }
                    }
                    let dst = (((in_ * c) + ch) * oh + oy) * ow + ox;
                    out[dst] = best;
                    arg[dst] = best_src;
                }
            }
        }
    }
    (out, arg)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Both passes against the oracle; returns the oracle's result.
fn check(x: &Tensor, k: usize, what: &str) -> (Vec<f32>, Vec<usize>) {
    let (want, want_arg) = oracle(x, k);
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (got, arg) = x.max_pool2d(k).unwrap();
    assert_eq!(got.dims(), &[n, c, h / k, w / k], "{what}: dims");
    assert_eq!(bits(got.data()), bits(&want), "{what}: graph values");
    assert_eq!(arg, want_arg, "{what}: argmax");
    let values = x.max_pool2d_values(k).unwrap();
    assert_eq!(values.dims(), got.dims(), "{what}: values dims");
    assert_eq!(bits(values.data()), bits(&want), "{what}: values pass");
    (want, want_arg)
}

fn plane(v: Vec<f32>, h: usize, w: usize) -> Tensor {
    Tensor::from_vec(v, [1, 1, h, w]).unwrap()
}

#[test]
fn nan_never_wins_and_an_all_nan_window_gives_neg_infinity() {
    let nan = f32::NAN;
    // Windows: [nan 1; 2 nan], [nan nan; nan nan], [3 nan; nan nan],
    // [nan nan; nan -5].
    let x = plane(
        vec![
            nan, 1.0, nan, nan, //
            2.0, nan, nan, nan, //
            3.0, nan, nan, nan, //
            nan, nan, nan, -5.0,
        ],
        4,
        4,
    );
    let (v, arg) = check(&x, 2, "nan");
    assert_eq!(v, vec![2.0, f32::NEG_INFINITY, 3.0, -5.0]);
    assert_eq!(arg, vec![4, 0, 8, 15]);
    // Every window all-NaN: −∞ everywhere, argmax 0 everywhere.
    let (v, arg) = check(&plane(vec![nan; 36], 6, 6), 3, "all nan");
    assert!(v.iter().all(|&b| b == f32::NEG_INFINITY));
    assert!(arg.iter().all(|&a| a == 0));
}

#[test]
fn the_first_zero_of_a_signed_zero_tie_wins() {
    let x = plane(vec![-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0], 2, 4);
    let (v, arg) = check(&x, 2, "signed zeros");
    assert_eq!(bits(&v), bits(&[-0.0, 0.0]));
    assert_eq!(arg, vec![0, 2]);
}

#[test]
fn negative_infinity_and_equal_maxima() {
    let ninf = f32::NEG_INFINITY;
    // An all −∞ window never improves on the start: argmax 0.
    let (v, arg) = check(&plane(vec![ninf; 4], 2, 2), 2, "all -inf");
    assert_eq!(v, vec![ninf]);
    assert_eq!(arg, vec![0]);
    // −∞ beside finite values, +∞ beside NaN, and equal maxima: the first
    // in window order wins.
    let rows = [
        [ninf, -7.0, 4.0, 1.0, f32::NAN, 2.0],
        [-7.0, ninf, 1.0, 4.0, f32::INFINITY, 2.0],
    ];
    let x = plane(rows.concat(), 2, 6);
    let (v, arg) = check(&x, 2, "ties");
    assert_eq!(v, vec![-7.0, 4.0, f32::INFINITY]);
    assert_eq!(arg, vec![1, 2, 10]);
}

#[test]
fn windows_of_side_one_two_and_three() {
    let mut rng = StdRng::seed_from_u64(0x9001);
    for k in 1..=3 {
        for (n, c, h, w) in [(1, 1, k, k), (2, 3, 2 * k, 3 * k), (3, 2, 4 * k, k)] {
            let x = Tensor::from_fn([n, c, h, w], |_| rng.gen_range(-2.0f32..2.0));
            check(&x, k, &format!("k={k} {n}x{c}x{h}x{w}"));
        }
    }
    // k = 1 is the identity with the identity argmax.
    let x = Tensor::from_fn([2, 2, 3, 3], |i| (i[3] as f32) - (i[2] as f32));
    let (v, arg) = check(&x, 1, "identity");
    assert_eq!(bits(&v), bits(x.data()));
    assert_eq!(arg, (0..x.numel()).collect::<Vec<_>>());
}

#[test]
fn empty_batches_pool_to_empty_tensors() {
    for dims in [[0, 3, 4, 4], [2, 0, 4, 4], [2, 3, 0, 4], [2, 3, 4, 0]] {
        let x = Tensor::zeros(dims);
        check(&x, 2, &format!("{dims:?}"));
    }
}

#[test]
fn seeded_shapes_with_special_values_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(0xB001);
    let specials = [
        f32::NAN,
        f32::NEG_INFINITY,
        f32::INFINITY,
        0.0,
        -0.0,
        1.0,
        -1.0,
    ];
    let mut shapes = vec![(64, 16, 8, 8, 2), (64, 32, 4, 4, 2)];
    for _ in 0..40 {
        let k = rng.gen_range(1usize..4);
        shapes.push((
            rng.gen_range(1usize..5),
            rng.gen_range(1usize..6),
            k * rng.gen_range(1usize..5),
            k * rng.gen_range(1usize..5),
            k,
        ));
    }
    for (i, (n, c, h, w, k)) in shapes.into_iter().enumerate() {
        // Half the cases draw from a small alphabet, so ties and special
        // values are common.
        let draw_special = i % 2 == 1;
        let x = Tensor::from_fn([n, c, h, w], |_| {
            if draw_special && rng.gen_range(0.0f32..1.0) < 0.6 {
                specials[rng.gen_range(0usize..specials.len())]
            } else {
                rng.gen_range(-3.0f32..3.0)
            }
        });
        check(&x, k, &format!("case {i}: {n}x{c}x{h}x{w} k={k}"));
    }
}

#[test]
fn geometry_errors_stay_typed() {
    let rank3 = Tensor::zeros([2, 4, 4]);
    let x = Tensor::zeros([1, 1, 4, 6]);
    let cases: [(&Tensor, usize); 4] = [(&rank3, 2), (&x, 0), (&x, 3), (&x, 4)];
    for (t, k) in cases {
        let graph = t.max_pool2d(k).unwrap_err();
        let values = t.max_pool2d_values(k).unwrap_err();
        if t.rank() != 4 {
            let want = TensorError::RankMismatch {
                expected: 4,
                actual: 3,
            };
            assert_eq!(graph, want);
            assert_eq!(values, want);
        } else {
            assert!(
                matches!(graph, TensorError::InvalidGeometry(_)),
                "k={k}: {graph:?}"
            );
            assert_eq!(values, graph, "k={k}");
        }
    }
}
