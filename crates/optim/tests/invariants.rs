//! Deterministic seeded-loop tests for schedules and optimizer behaviour on
//! random convex quadratics (formerly a proptest suite; rewritten against
//! the in-tree RNG so the workspace builds offline).

use hero_optim::{LrSchedule, Method, Optimizer, SgdState};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::Tensor;
use hero_testkit::Quadratic;

#[test]
fn cosine_schedule_stays_in_range() {
    let mut rng = StdRng::seed_from_u64(0x0971);
    for _ in 0..64 {
        let lr = rng.gen_range(0.001f32..1.0);
        let min_frac = rng.gen_range(0.0f32..1.0);
        let total = rng.gen_range(1..500usize);
        let step = rng.gen_range(0..1000usize);
        let min_lr = lr * min_frac;
        let s = LrSchedule::Cosine {
            lr,
            min_lr,
            total_steps: total,
        };
        let v = s.at(step);
        assert!(v <= lr + 1e-6);
        assert!(v >= min_lr - 1e-6);
    }
}

#[test]
fn cosine_is_monotone_nonincreasing() {
    let mut rng = StdRng::seed_from_u64(0x0972);
    for _ in 0..32 {
        let lr = rng.gen_range(0.01f32..1.0);
        let total = rng.gen_range(2..100usize);
        let s = LrSchedule::Cosine {
            lr,
            min_lr: 0.0,
            total_steps: total,
        };
        let mut prev = f32::INFINITY;
        for step in 0..=total {
            let v = s.at(step);
            assert!(v <= prev + 1e-6);
            prev = v;
        }
    }
}

/// Gradient descent with a stable learning rate contracts toward the
/// minimizer of any well-conditioned diagonal quadratic.
#[test]
fn sgd_contracts_on_random_quadratics() {
    let mut rng = StdRng::seed_from_u64(0x0974);
    for _ in 0..16 {
        let n = rng.gen_range(1..6usize);
        let eigs: Vec<f32> = (0..n).map(|_| rng.gen_range(0.1f32..4.0)).collect();
        let seed = rng.gen_range(0..100u64);
        let q = Quadratic::diag(&eigs);
        let x0: Vec<f32> = (0..n)
            .map(|i| (((seed + i as u64) % 17) as f32 / 8.5) - 1.0)
            .collect();
        let mut params = vec![Tensor::from_vec(x0, [n]).unwrap()];
        let loss0 = q.loss(&params[0]).unwrap();
        let mut opt = Optimizer::new(Method::Sgd)
            .with_weight_decay(0.0)
            .with_momentum(0.0);
        // lr < 2/λ_max = 0.5 guarantees contraction.
        for _ in 0..60 {
            opt.step(&mut q.oracle(), &mut params, &[false], 0.2)
                .unwrap();
        }
        let loss1 = q.loss(&params[0]).unwrap();
        assert!(loss1 <= loss0 + 1e-6);
        assert!(loss1 < 0.5 * loss0.max(1e-6) + 1e-4);
    }
}

/// HERO and SAM reach the same unique minimizer as SGD on convex quadratics
/// (regularization must not move the optimum of a quadratic whose curvature
/// is constant).
#[test]
fn regularized_methods_share_quadratic_minimizer() {
    let mut rng = StdRng::seed_from_u64(0x0975);
    for _ in 0..8 {
        let eig = rng.gen_range(0.2f32..2.0);
        let b = rng.gen_range(-1.0f32..1.0);
        let a = Tensor::from_vec(vec![eig], [1])
            .unwrap()
            .reshape([1, 1])
            .unwrap();
        let q = Quadratic::new(a, Tensor::from_vec(vec![b], [1]).unwrap()).unwrap();
        let x_star = -b / eig;
        for method in [
            Method::Sgd,
            Method::FirstOrderOnly { h: 0.05 },
            Method::Hero {
                h: 0.05,
                gamma: 0.02,
            },
        ] {
            let mut params = vec![Tensor::from_vec(vec![1.0], [1]).unwrap()];
            let mut opt = Optimizer::new(method)
                .with_weight_decay(0.0)
                .with_momentum(0.0);
            for _ in 0..300 {
                opt.step(&mut q.oracle(), &mut params, &[false], 0.3)
                    .unwrap();
            }
            let x = params[0].data()[0];
            assert!(
                (x - x_star).abs() < 0.05,
                "{} converged to {x}, optimum {x_star}",
                method.name()
            );
        }
    }
}

/// Momentum buffers keep parameter and buffer shapes aligned for any mix of
/// tensor shapes.
#[test]
fn sgd_state_handles_heterogeneous_shapes() {
    let mut rng = StdRng::seed_from_u64(0x0976);
    for _ in 0..32 {
        let count = rng.gen_range(1..5usize);
        let dims: Vec<usize> = (0..count).map(|_| rng.gen_range(1..6usize)).collect();
        let momentum = rng.gen_range(0.0f32..0.99);
        let mut params: Vec<Tensor> = dims.iter().map(|&d| Tensor::ones([d])).collect();
        let grads: Vec<Tensor> = dims.iter().map(|&d| Tensor::full([d], 0.5)).collect();
        let mut s = SgdState::new(momentum);
        for _ in 0..3 {
            s.update(&mut params, &grads, 0.1).unwrap();
        }
        for (p, &d) in params.iter().zip(&dims) {
            assert_eq!(p.numel(), d);
            assert!(p.data().iter().all(|v| *v < 1.0));
        }
    }
}
