//! Golden-trajectory regression pin: a 5-step HERO run on a fixed
//! quadratic objective with f32-exact expected losses. Any future change
//! to the kernels, the optimizer arithmetic, or the evaluation order that
//! silently shifts numerics — even by one ulp — fails this test and has
//! to justify updating the pinned values.

use hero_optim::{Method, Optimizer};
use hero_tensor::Tensor;
use hero_testkit::Quadratic;

/// The pinned losses of the canonical 5-step run (exact f32 values
/// captured from the reference implementation; compare bitwise).
const EXPECTED_LOSSES: [f32; 5] = [
    2.3875, // regenerate with `print_golden_trajectory` below
    1.9241921, 1.2339097, 0.59697205, 0.20512672,
];

fn run_hero_5_steps() -> Vec<f32> {
    let a = Tensor::from_vec(vec![2.0, 0.5, 0.0, 0.5, 3.0, 0.25, 0.0, 0.25, 1.5], [3, 3]).unwrap();
    let b = Tensor::from_vec(vec![0.1, -0.2, 0.05], [3]).unwrap();
    let q = Quadratic::new(a, b).unwrap();
    let mut opt = Optimizer::new(Method::Hero {
        h: 0.05,
        gamma: 0.1,
    })
    .with_momentum(0.9)
    .with_weight_decay(1e-4);
    let mut params = vec![Tensor::from_vec(vec![1.0, -1.0, 0.5], [3]).unwrap()];
    let mut oracle = q.oracle();
    let mut losses = Vec::with_capacity(5);
    for _ in 0..5 {
        let stats = opt.step(&mut oracle, &mut params, &[true], 0.05).unwrap();
        losses.push(stats.loss);
    }
    losses
}

#[test]
fn hero_5_step_losses_match_pinned_values_exactly() {
    let losses = run_hero_5_steps();
    let got: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
    let want: Vec<u32> = EXPECTED_LOSSES.iter().map(|l| l.to_bits()).collect();
    assert_eq!(
        got, want,
        "numeric drift: got losses {losses:?}, expected {EXPECTED_LOSSES:?} \
         (if an intentional kernel change caused this, re-pin the constants)"
    );
}

/// Not a test: run with `cargo test -p hero-optim --test golden_trajectory \
/// -- --ignored --nocapture print_golden_trajectory` to regenerate the
/// pinned constants after an intentional numeric change.
#[test]
#[ignore]
fn print_golden_trajectory() {
    for l in run_hero_5_steps() {
        println!("{l:?} (bits {:#010x})", l.to_bits());
    }
}
