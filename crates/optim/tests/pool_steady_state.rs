//! Steady-state allocation test at the benchmark's scale.
//!
//! `pool_reuse.rs` checks short runs at batch 4, which never fill the
//! scratch pool's free list. These run each C10 model through the
//! trainer's loop at batch 32 long enough that every buffer the loop drops
//! reaches the list, and check that no lease misses after warm-up. They
//! live in their own test binary: `pool_reuse.rs` switches the GEMM to two
//! worker threads process-wide to count the workers' own pools, and these
//! runs' products would then land in those pools mid-count.

use hero_data::{Loader, SynthGenerator, SynthSpec};
use hero_nn::models::{ModelConfig, ModelKind};
use hero_nn::{evaluate_accuracy, Network};
use hero_optim::{train_step, Method, Optimizer};
use hero_tensor::pool::{self, MAX_HELD};
use hero_tensor::rng::StdRng;

/// The trainer's loop at the benchmark's scale: a C10-sized `kind`, batch
/// 32, loader batches, HERO steps and eval forwards between them, on the
/// test's own thread and so from an empty pool. Enough steps that every
/// buffer the loop ever drops has reached the free list: were any
/// hot-path tensor built outside the pool (clones, reshapes, constants,
/// loader batches), its recycles would fill the list to its cap, later
/// recycles would be dropped and leases of the dropped sizes would miss.
/// Each C10 model has its own test, because the list's byte bound must
/// hold the largest working set too. `epochs` measured epochs follow two
/// warm-up epochs; each is 3 steps and 2 eval batches.
fn assert_long_hero_run_alloc_free(kind: ModelKind, epochs: usize) {
    let cfg = ModelConfig {
        classes: 10,
        in_channels: 3,
        input_hw: 8,
        width: 8,
    };
    let data = SynthGenerator::new(SynthSpec::default()).generate(96, 1);
    let test = SynthGenerator::new(SynthSpec::default()).generate(64, 2);
    let mut net = kind.build(cfg, &mut StdRng::seed_from_u64(3));
    let mut opt = Optimizer::new(Method::Hero {
        h: 0.01,
        gamma: 0.1,
    });
    let mut loader = Loader::new(32, 4);
    let mut epoch = |net: &mut Network, opt: &mut Optimizer| {
        for batch in loader.epoch(&data) {
            train_step(net, opt, &batch.images, &batch.labels, 0.01).unwrap();
        }
        evaluate_accuracy(net, &test.images, &test.labels, 32).unwrap();
    };
    for _ in 0..2 {
        epoch(&mut net, &mut opt);
    }
    pool::reset_stats();
    for _ in 0..epochs {
        epoch(&mut net, &mut opt);
    }
    let stats = pool::stats();
    assert!(stats.leases > 0, "hot path no longer goes through the pool");
    assert_eq!(
        stats.fresh_allocs,
        0,
        "{} steady-state HERO steps performed fresh pool allocations: {stats:?}",
        3 * epochs
    );
    assert!(
        stats.held < MAX_HELD,
        "free list reached its cap of {MAX_HELD}: buffers from outside the pool \
         are crowding it ({stats:?})"
    );
}

#[test]
fn long_resnet_hero_run_with_evals_stays_allocation_free() {
    assert_long_hero_run_alloc_free(ModelKind::Resnet, 12);
}

// MobileNet and VGG check that the byte bound holds their larger working
// sets, which a short window shows; their steps cost several ResNet steps
// in a debug build with the scalar GEMM.
#[test]
fn long_mobilenet_hero_run_with_evals_stays_allocation_free() {
    assert_long_hero_run_alloc_free(ModelKind::Mobilenet, 2);
}

#[test]
fn long_vgg_hero_run_with_evals_stays_allocation_free() {
    assert_long_hero_run_alloc_free(ModelKind::Vgg, 2);
}
