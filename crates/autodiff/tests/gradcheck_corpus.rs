//! Seeded randomized gradcheck corpus: every registered graph op is
//! checked against central finite differences at three reproducible
//! random test points each, including broadcast shapes for the
//! element-wise ops and three geometries of the direct convolution
//! kernels. Runs as a tier-1 test.
//!
//! Non-scalar ops are scalarized as `sum(square(op(..)))` so every output
//! coordinate contributes a distinct, input-dependent weight to the loss
//! (a plain `sum` would let an op with a wrong-but-constant Jacobian
//! column slip through).

mod gradcheck;

use gradcheck::{check_graph_fn, check_scalar_fn, seeded_signed, seeded_uniform};
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{ConvGeometry, Result, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

/// A seeded tensor whose entries are a shuffled signed ladder
/// `±(0.1 + 0.05·rank)`: any two entries differ by at least 0.05, far
/// more than the `2·eps` finite-difference stencil, making argmax-style
/// ops (max-pool) stable under the probes.
fn well_separated(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    let mut vals: Vec<f32> = (0..n)
        .map(|i| {
            let mag = 0.1 + 0.05 * i as f32;
            if rng.gen::<f32>() < 0.5 {
                mag
            } else {
                -mag
            }
        })
        .collect();
    for i in (1..n).rev() {
        let j = (rng.gen::<f32>() * (i as f32 + 1.0)) as usize % (i + 1);
        vals.swap(i, j);
    }
    Tensor::from_vec(vals, shape).unwrap()
}

/// Mixes a non-scalar node into a scalar loss: `sum(square(v))`.
fn scalarize(g: &mut Graph, v: Var) -> Var {
    let sq = g.square(v);
    g.sum(sq)
}

/// Runs a single-input op at three seeded shapes.
fn sweep_unary(
    shapes: [&[usize]; 3],
    mk: impl Fn(u64, &[usize]) -> Tensor,
    op: impl Fn(&mut Graph, Var) -> Result<Var> + Copy,
) {
    for (seed, shape) in shapes.into_iter().enumerate() {
        let x = mk(seed as u64 + 100, shape);
        check_graph_fn(&[x], EPS, TOL, |g, v| {
            let y = op(g, v[0])?;
            Ok(scalarize(g, y))
        });
    }
}

#[test]
fn corpus_add_sub_mul_with_broadcasting() {
    // Same-shape, trailing-axis broadcast, and stretched-axis broadcast.
    let cases: [(&[usize], &[usize]); 3] =
        [(&[2, 3], &[2, 3]), (&[2, 3], &[3]), (&[2, 3], &[2, 1])];
    for (seed, (sa, sb)) in cases.into_iter().enumerate() {
        let a = seeded_uniform(sa, seed as u64, -1.0, 1.0);
        let b = seeded_uniform(sb, seed as u64 + 50, -1.0, 1.0);
        for op in [Graph::add, Graph::sub, Graph::mul] {
            check_graph_fn(&[a.clone(), b.clone()], EPS, TOL, |g, v| {
                let y = op(g, v[0], v[1])?;
                Ok(scalarize(g, y))
            });
        }
    }
}

#[test]
fn corpus_scale_and_add_scalar() {
    sweep_unary(
        [&[4], &[2, 3], &[2, 2, 2]],
        |s, sh| seeded_uniform(sh, s, -1.0, 1.0),
        |g, v| Ok(g.scale(v, -1.7)),
    );
    sweep_unary(
        [&[4], &[2, 3], &[2, 2, 2]],
        |s, sh| seeded_uniform(sh, s, -1.0, 1.0),
        |g, v| Ok(g.add_scalar(v, 0.4)),
    );
}

#[test]
fn corpus_matmul() {
    let cases: [(&[usize], &[usize]); 3] =
        [(&[2, 3], &[3, 4]), (&[1, 5], &[5, 1]), (&[4, 2], &[2, 3])];
    for (seed, (sa, sb)) in cases.into_iter().enumerate() {
        let a = seeded_uniform(sa, seed as u64 + 10, -1.0, 1.0);
        let b = seeded_uniform(sb, seed as u64 + 60, -1.0, 1.0);
        check_graph_fn(&[a, b], EPS, TOL, |g, v| {
            let y = g.matmul(v[0], v[1])?;
            Ok(scalarize(g, y))
        });
    }
}

#[test]
fn corpus_kinked_activations() {
    // Inputs bounded away from the kink at 0 so the ±eps probes stay on
    // one side (relu6's second kink at 6 is out of range entirely).
    let mk = |s: u64, sh: &[usize]| seeded_signed(sh, s, 0.15, 1.0);
    sweep_unary([&[5], &[2, 3], &[2, 2, 2]], mk, |g, v| Ok(g.relu(v)));
    sweep_unary([&[5], &[2, 3], &[2, 2, 2]], mk, |g, v| Ok(g.relu6(v)));
}

#[test]
fn corpus_square() {
    let mk = |s: u64, sh: &[usize]| seeded_uniform(sh, s, -1.5, 1.5);
    sweep_unary([&[5], &[2, 3], &[2, 2, 2]], mk, |g, v| Ok(g.square(v)));
}

#[test]
fn corpus_shape_and_reductions() {
    let shapes: [(&[usize], &[usize]); 3] =
        [(&[2, 3], &[6]), (&[2, 2, 2], &[4, 2]), (&[6], &[2, 3])];
    for (seed, (from, to)) in shapes.into_iter().enumerate() {
        let x = seeded_uniform(from, seed as u64 + 20, -1.0, 1.0);
        let to = to.to_vec();
        check_graph_fn(&[x], EPS, TOL, |g, v| {
            let y = g.reshape(v[0], to.clone())?;
            Ok(scalarize(g, y))
        });
    }
    // sum and mean are themselves scalar: compose square *inside* so each
    // coordinate still carries a distinct weight.
    for (seed, shape) in [&[4][..], &[2, 3][..], &[2, 2, 2][..]]
        .into_iter()
        .enumerate()
    {
        let x = seeded_uniform(shape, seed as u64 + 30, -1.0, 1.0);
        check_graph_fn(std::slice::from_ref(&x), EPS, TOL, |g, v| {
            let sq = g.square(v[0]);
            Ok(g.sum(sq))
        });
        check_graph_fn(&[x], EPS, TOL, |g, v| {
            let sq = g.square(v[0]);
            Ok(g.mean(sq))
        });
    }
}

#[test]
fn corpus_conv2d_im2col_paths() {
    // (input shape, kernel, stride, pad): unit geometry, padded 3x3, and a
    // strided+padded case — each takes the direct conv kernels through a
    // different padding and stride.
    let cases: [(&[usize], usize, usize, usize); 3] = [
        (&[1, 2, 3, 3], 2, 1, 0),
        (&[2, 1, 4, 4], 3, 1, 1),
        (&[1, 2, 4, 4], 3, 2, 1),
    ];
    for (seed, (xs, k, stride, pad)) in cases.into_iter().enumerate() {
        let (in_c, h, w) = (xs[1], xs[2], xs[3]);
        let geom = ConvGeometry::new(h, w, k, stride, pad).unwrap();
        let out_c = 3;
        let x = seeded_uniform(xs, seed as u64 + 40, -1.0, 1.0);
        let wt = seeded_uniform([out_c, in_c * k * k], seed as u64 + 90, -0.5, 0.5);
        check_graph_fn(&[x, wt], EPS, TOL, move |g, v| {
            let y = g.conv2d(v[0], v[1], geom)?;
            Ok(scalarize(g, y))
        });
    }
}

#[test]
fn corpus_depthwise_conv2d() {
    let cases: [(&[usize], usize, usize, usize); 3] = [
        (&[1, 2, 3, 3], 2, 1, 0),
        (&[2, 3, 4, 4], 3, 1, 1),
        (&[1, 2, 4, 4], 3, 2, 1),
    ];
    for (seed, (xs, k, stride, pad)) in cases.into_iter().enumerate() {
        let (c, h, w) = (xs[1], xs[2], xs[3]);
        let geom = ConvGeometry::new(h, w, k, stride, pad).unwrap();
        let x = seeded_uniform(xs, seed as u64 + 45, -1.0, 1.0);
        let wt = seeded_uniform([c, k, k], seed as u64 + 95, -0.5, 0.5);
        check_graph_fn(&[x, wt], EPS, TOL, move |g, v| {
            let y = g.depthwise_conv2d(v[0], v[1], geom)?;
            Ok(scalarize(g, y))
        });
    }
}

#[test]
fn corpus_batch_norm() {
    let shapes: [&[usize]; 3] = [&[2, 2, 2, 2], &[3, 1, 2, 2], &[2, 3, 1, 2]];
    for (seed, shape) in shapes.into_iter().enumerate() {
        let c = shape[1];
        let x = seeded_uniform(shape, seed as u64 + 70, -1.0, 1.0);
        // Gamma away from zero so the normalized-input gradient is not
        // spuriously tiny; beta unconstrained.
        let gamma = seeded_signed([c], seed as u64 + 71, 0.5, 0.5);
        let beta = seeded_uniform([c], seed as u64 + 72, -0.3, 0.3);
        check_graph_fn(&[x, gamma, beta], EPS, TOL, |g, v| {
            let (y, _stats) = g.batch_norm(v[0], v[1], v[2], 1e-3)?;
            Ok(scalarize(g, y))
        });
    }
}

#[test]
fn corpus_pooling() {
    let shapes: [&[usize]; 3] = [&[1, 2, 4, 4], &[2, 1, 2, 2], &[1, 3, 4, 4]];
    for (seed, shape) in shapes.into_iter().enumerate() {
        // Every pair of entries differs by at least 0.05 > 2·eps, so the
        // ±eps probes can never flip the argmax inside a max-pool window.
        let x = well_separated(shape, seed as u64 + 80);
        check_graph_fn(std::slice::from_ref(&x), EPS, TOL, |g, v| {
            let y = g.max_pool2d(v[0], 2)?;
            Ok(scalarize(g, y))
        });
        check_graph_fn(&[x], EPS, TOL, |g, v| {
            let y = g.global_avg_pool2d(v[0])?;
            Ok(scalarize(g, y))
        });
    }
}

#[test]
fn corpus_losses() {
    let cases: [(usize, usize); 3] = [(2, 3), (4, 2), (3, 5)];
    for (seed, (batch, classes)) in cases.into_iter().enumerate() {
        let logits = seeded_uniform([batch, classes], seed as u64 + 110, -1.0, 1.0);
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        check_graph_fn(&[logits], EPS, TOL, move |g, v| {
            g.cross_entropy(v[0], &labels)
        });
    }
}

// Fixed-point checks of single backward rules through `check_scalar_fn`:
// one input perturbed at a time, the others held constant.

/// A deterministic tensor of hashed entries in `[-scale/2, scale/2)`.
fn seeded(shape: &[usize], scale: f32, salt: usize) -> Tensor {
    Tensor::from_fn(shape.to_vec(), |i| {
        let h = i.iter().enumerate().fold(salt, |acc, (k, &v)| {
            acc.wrapping_mul(31).wrapping_add(v * (k + 7))
        });
        ((h % 17) as f32 / 17.0 - 0.5) * scale
    })
}

#[test]
fn matmul_gradcheck() {
    let a0 = Tensor::from_fn([3, 4], |i| 0.1 * (i[0] as f32) - 0.2 * (i[1] as f32) + 0.3);
    let b0 = Tensor::from_fn([4, 2], |i| 0.2 * (i[0] as f32) + 0.1 * (i[1] as f32) - 0.4);
    // Check dL/dA where L = sum(A B)
    check_scalar_fn(&a0, 1e-2, 2e-2, |a| {
        let mut g = Graph::new();
        let av = g.input(a.clone());
        let bv = g.input(b0.clone());
        let c = g.matmul(av, bv).unwrap();
        let loss = g.sum(c);
        let grads = g.backward(loss, &[av]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(av).unwrap().clone(),
        )
    });
    // Check dL/dB
    check_scalar_fn(&b0, 1e-2, 2e-2, |b| {
        let mut g = Graph::new();
        let av = g.input(a0.clone());
        let bv = g.input(b.clone());
        let c = g.matmul(av, bv).unwrap();
        let loss = g.sum(c);
        let grads = g.backward(loss, &[bv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(bv).unwrap().clone(),
        )
    });
}

#[test]
fn mul_with_broadcast_gradcheck() {
    let x0 = Tensor::from_fn([2, 3], |i| 0.3 * (i[0] as f32) + 0.1 * (i[1] as f32) - 0.2);
    let w0 = Tensor::from_fn([3], |i| 0.5 - 0.2 * (i[0] as f32));
    check_scalar_fn(&w0, 1e-2, 2e-2, |w| {
        let mut g = Graph::new();
        let xv = g.input(x0.clone());
        let wv = g.input(w.clone());
        let y = g.mul(xv, wv).unwrap(); // broadcasts w over rows
        let loss = g.sum(y);
        let grads = g.backward(loss, &[wv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(wv).unwrap().clone(),
        )
    });
}

#[test]
fn relu_and_relu6_gradcheck() {
    // Values chosen away from the kinks at 0 and 6.
    let x0 = Tensor::from_vec(vec![-2.0, -0.5, 0.7, 3.0, 5.5, 7.0], [6]).unwrap();
    check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = g.relu(xv);
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[xv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(xv).unwrap().clone(),
        )
    });
    check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = g.relu6(xv);
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[xv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(xv).unwrap().clone(),
        )
    });
}

#[test]
fn composite_expression_gradcheck() {
    // loss = mean((2x + 1)^2 - x) exercises scale, add_scalar, square, sub, mean.
    let x0 = Tensor::from_fn([5], |i| 0.2 * (i[0] as f32) - 0.5);
    check_scalar_fn(&x0, 1e-3, 1e-2, |x| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let two_x = g.scale(xv, 2.0);
        let shifted = g.add_scalar(two_x, 1.0);
        let sq = g.square(shifted);
        let diff = g.sub(sq, xv).unwrap();
        let loss = g.mean(diff);
        let grads = g.backward(loss, &[xv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(xv).unwrap().clone(),
        )
    });
}

#[test]
fn conv2d_gradcheck_weights_and_input() {
    let x0 = seeded(&[2, 2, 4, 4], 1.0, 3);
    let w0 = seeded(&[3, 2 * 3 * 3], 0.6, 5);
    let geom = ConvGeometry::new(4, 4, 3, 2, 1).unwrap();
    check_scalar_fn(&w0, 1e-2, 3e-2, |w| {
        let mut g = Graph::new();
        let xv = g.input(x0.clone());
        let wv = g.input(w.clone());
        let y = g.conv2d(xv, wv, geom).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[wv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(wv).unwrap().clone(),
        )
    });
    check_scalar_fn(&x0, 1e-2, 3e-2, |x| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.input(w0.clone());
        let y = g.conv2d(xv, wv, geom).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[xv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(xv).unwrap().clone(),
        )
    });
}

#[test]
fn depthwise_conv_gradcheck() {
    let x0 = seeded(&[2, 3, 4, 4], 1.0, 11);
    let w0 = seeded(&[3, 3, 3], 0.8, 13);
    let geom = ConvGeometry::new(4, 4, 3, 1, 1).unwrap();
    check_scalar_fn(&w0, 1e-2, 3e-2, |w| {
        let mut g = Graph::new();
        let xv = g.input(x0.clone());
        let wv = g.input(w.clone());
        let y = g.depthwise_conv2d(xv, wv, geom).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[wv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(wv).unwrap().clone(),
        )
    });
    check_scalar_fn(&x0, 1e-2, 3e-2, |x| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.input(w0.clone());
        let y = g.depthwise_conv2d(xv, wv, geom).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[xv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(xv).unwrap().clone(),
        )
    });
}

#[test]
fn batch_norm_gradcheck_all_parameters() {
    let x0 = seeded(&[3, 2, 2, 2], 2.0, 23);
    let gamma0 = Tensor::from_vec(vec![1.2, 0.7], [2]).unwrap();
    let beta0 = Tensor::from_vec(vec![0.1, -0.3], [2]).unwrap();
    let run = |x: &Tensor, gamma: &Tensor, beta: &Tensor| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let gv = g.input(gamma.clone());
        let bv = g.input(beta.clone());
        let (y, _) = g.batch_norm(xv, gv, bv, 1e-5).unwrap();
        let sq = g.square(y);
        // Weighted sum to make the loss non-symmetric in elements.
        let weights = g.input(Tensor::from_fn([3, 2, 2, 2], |i| {
            0.1 + 0.05 * (i.iter().sum::<usize>() as f32)
        }));
        let weighted = g.mul(sq, weights).unwrap();
        let loss = g.sum(weighted);
        let grads = g.backward(loss, &[xv, gv, bv]).unwrap();
        (g.value(loss).item().unwrap(), grads, xv, gv, bv)
    };
    check_scalar_fn(&x0, 1e-2, 5e-2, |x| {
        let (l, grads, xv, _, _) = run(x, &gamma0, &beta0);
        (l, grads.get(xv).unwrap().clone())
    });
    check_scalar_fn(&gamma0, 1e-3, 2e-2, |gamma| {
        let (l, grads, _, gv, _) = run(&x0, gamma, &beta0);
        (l, grads.get(gv).unwrap().clone())
    });
    check_scalar_fn(&beta0, 1e-3, 2e-2, |beta| {
        let (l, grads, _, _, bv) = run(&x0, &gamma0, beta);
        (l, grads.get(bv).unwrap().clone())
    });
}

#[test]
fn global_avg_pool_gradcheck() {
    let x0 = seeded(&[2, 3, 2, 2], 1.0, 31);
    check_scalar_fn(&x0, 1e-2, 2e-2, |x| {
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let y = g.global_avg_pool2d(xv).unwrap();
        let sq = g.square(y);
        let loss = g.sum(sq);
        let grads = g.backward(loss, &[xv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(xv).unwrap().clone(),
        )
    });
}

#[test]
fn cross_entropy_gradcheck() {
    let l0 = seeded(&[3, 5], 2.0, 37);
    let labels = vec![1usize, 4, 0];
    check_scalar_fn(&l0, 1e-2, 2e-2, |l| {
        let mut g = Graph::new();
        let lv = g.input(l.clone());
        let loss = g.cross_entropy(lv, &labels).unwrap();
        let grads = g.backward(loss, &[lv]).unwrap();
        (
            g.value(loss).item().unwrap(),
            grads.get(lv).unwrap().clone(),
        )
    });
}
