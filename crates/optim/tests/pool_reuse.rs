//! Steady-state allocation test for the training hot path.
//!
//! After a warm-up step has populated the scratch pool (pack panels, matmul
//! and convolution outputs, graph values, gradients, optimizer
//! workspaces), every subsequent step must be served entirely from recycled
//! buffers: `pool::stats().fresh_allocs` stays at zero across the
//! measurement window. This is the pool-counter proof of the "O(1) new
//! allocations per step" claim in DESIGN.md.

use hero_nn::models::{mini_resnet, mlp, ModelConfig};
use hero_nn::Network;
use hero_optim::{train_step, Method, Optimizer};
use hero_tensor::rng::StdRng;
use hero_tensor::{gemm_pool_reset_stats, gemm_pool_stats, pool, set_gemm_threads, Tensor};

fn toy_batch(n: usize, cfg: &ModelConfig) -> (Tensor, Vec<usize>) {
    let x = Tensor::from_fn([n, cfg.in_channels, cfg.input_hw, cfg.input_hw], |i| {
        let sign = if i[0] % 2 == 0 { 1.0 } else { -1.0 };
        sign * (1.0 + 0.05 * (i[2] + i[3]) as f32)
    });
    let labels: Vec<usize> = (0..n).map(|i| i % cfg.classes).collect();
    (x, labels)
}

fn assert_steady_state_alloc_free(mut net: Network, cfg: &ModelConfig, method: Method) {
    let (x, labels) = toy_batch(4, cfg);
    let mut opt = Optimizer::new(method);
    // Warm-up: the first steps populate the free list and optimizer
    // workspaces (momentum buffers and the method scratch stabilise within
    // three steps; four gives headroom).
    for _ in 0..4 {
        train_step(&mut net, &mut opt, &x, &labels, 0.01).unwrap();
    }
    pool::reset_stats();
    for _ in 0..3 {
        train_step(&mut net, &mut opt, &x, &labels, 0.01).unwrap();
    }
    let stats = pool::stats();
    assert!(stats.leases > 0, "hot path no longer goes through the pool");
    assert_eq!(
        stats.fresh_allocs, 0,
        "steady-state steps performed fresh pool allocations: {stats:?}"
    );
}

#[test]
fn hero_steps_reuse_pool_buffers_on_conv_net() {
    let cfg = ModelConfig {
        classes: 4,
        in_channels: 3,
        input_hw: 8,
        width: 8,
    };
    let net = mini_resnet(cfg, 1, &mut StdRng::seed_from_u64(3));
    assert_steady_state_alloc_free(
        net,
        &cfg,
        Method::Hero {
            h: 0.01,
            gamma: 0.1,
        },
    );
}

#[test]
fn sgd_steps_reuse_pool_buffers_on_mlp() {
    let cfg = ModelConfig {
        classes: 2,
        in_channels: 1,
        input_hw: 4,
        width: 4,
    };
    let net = mlp(cfg, &[16], &mut StdRng::seed_from_u64(5));
    assert_steady_state_alloc_free(net, &cfg, Method::Sgd);
}

#[test]
fn parallel_gemm_workers_reuse_their_own_pack_buffers() {
    // The multicore macro-kernel leases pack buffers from each worker's
    // *own* thread-local pool. Steady state must show zero fresh
    // allocations AND zero foreign_recycles per worker: buffers never
    // cross worker pools, so there is nothing to reject.
    let dim = 256; // 2·256³ flops clears the parallel dispatch threshold
    let a = Tensor::from_fn([dim, dim], |i| {
        ((i[0] * 7 + i[1] * 3) % 11) as f32 / 5.0 - 1.0
    });
    let b = Tensor::from_fn([dim, dim], |i| {
        ((i[0] * 5 + i[1] * 2) % 13) as f32 / 6.0 - 1.0
    });
    set_gemm_threads(Some(2));
    // Warm-up: enough rounds that both workers' free lists hold the pack
    // panel sizes (job→worker assignment is a shared queue, so one round
    // is not a guarantee that every worker saw a chunk).
    for _ in 0..10 {
        let _ = a.matmul(&b).unwrap();
    }
    gemm_pool_reset_stats();
    for _ in 0..5 {
        let _ = a.matmul(&b).unwrap();
    }
    let stats = gemm_pool_stats();
    set_gemm_threads(None);
    assert_eq!(stats.len(), 2, "gemm pool should run two workers");
    assert!(
        stats.iter().any(|s| s.leases > 0),
        "no worker leased pack buffers — parallel path never engaged: {stats:?}"
    );
    for (w, s) in stats.iter().enumerate() {
        assert_eq!(
            s.fresh_allocs, 0,
            "worker {w} performed fresh pack allocations in steady state: {s:?}"
        );
        assert_eq!(
            s.foreign_recycles, 0,
            "worker {w} saw cross-thread recycles: {s:?}"
        );
    }
}

#[test]
fn grad_l1_steps_reuse_pool_buffers() {
    let cfg = ModelConfig {
        classes: 2,
        in_channels: 1,
        input_hw: 4,
        width: 4,
    };
    let net = mlp(cfg, &[16], &mut StdRng::seed_from_u64(5));
    assert_steady_state_alloc_free(net, &cfg, Method::GradL1 { lambda: 0.01 });
}
