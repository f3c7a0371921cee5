//! Property tests for the greedy mixed-precision bit allocators
//! ([`allocate_bits`] over the quadratic proxy, [`SensitivityMatrix::allocate`]
//! over certified error profiles): feasibility, budget-maximality,
//! monotonicity in the budget, and the degenerate corners.

use hero_quant::{
    allocate_bits, LayerSensitivity, QuantScheme, SensitivityMatrix, StaticSensitivity,
};
use hero_tensor::rng::{Rng, StdRng};

const TRIALS: usize = 60;

fn random_layers(rng: &mut StdRng) -> Vec<LayerSensitivity> {
    let n = rng.gen_range(1..=8usize);
    (0..n)
        .map(|i| LayerSensitivity {
            name: format!("layer{i}"),
            numel: rng.gen_range(1..=5000usize),
            max_abs: rng.gen_range(1e-3f32..=10.0),
            curvature: rng.gen_range(0.0f32..=100.0),
        })
        .collect()
}

fn spent(layers: &[LayerSensitivity], bits: &[u8]) -> usize {
    layers
        .iter()
        .zip(bits)
        .map(|(l, &b)| l.numel * usize::from(b))
        .sum()
}

/// Every allocation is within bounds and affordable.
#[test]
fn allocations_are_feasible() {
    let mut rng = StdRng::seed_from_u64(0xA110);
    for _ in 0..TRIALS {
        let layers = random_layers(&mut rng);
        let (min_b, max_b) = (
            rng.gen_range(1..=4usize) as u8,
            rng.gen_range(5..=16usize) as u8,
        );
        let avg = rng.gen_range(f32::from(min_b)..=f32::from(max_b));
        let bits = allocate_bits(&layers, avg, min_b, max_b).unwrap();
        assert_eq!(bits.len(), layers.len());
        assert!(bits.iter().all(|&b| (min_b..=max_b).contains(&b)));
        let total: usize = layers.iter().map(|l| l.numel).sum();
        assert!(
            spent(&layers, &bits) <= (avg * total as f32).floor() as usize,
            "over budget: {bits:?} for avg {avg}"
        );
    }
}

/// Budget-maximal for equal-cost layers: when every layer has the same
/// weight count, no further upgrade is affordable after the allocator
/// stops (with mixed sizes the allocator deliberately trades a few
/// leftover weight-bits for budget-monotonicity; then the leftover is
/// merely smaller than the largest still-upgradable layer).
#[test]
fn allocations_are_budget_maximal() {
    let mut rng = StdRng::seed_from_u64(0xB0D9);
    for trial in 0..TRIALS {
        let mut layers = random_layers(&mut rng);
        let equal_cost = trial % 2 == 0;
        if equal_cost {
            let numel = layers[0].numel;
            for l in &mut layers {
                l.numel = numel;
            }
        }
        let (min_b, max_b) = (2u8, 8u8);
        let avg = rng.gen_range(2.0f32..=8.0);
        let bits = allocate_bits(&layers, avg, min_b, max_b).unwrap();
        let total: usize = layers.iter().map(|l| l.numel).sum();
        let remaining = (avg * total as f32).floor() as usize - spent(&layers, &bits);
        let upgradable: Vec<usize> = layers
            .iter()
            .zip(&bits)
            .filter(|(_, &b)| b < max_b)
            .map(|(l, _)| l.numel)
            .collect();
        let bound = if equal_cost {
            upgradable.iter().min()
        } else {
            upgradable.iter().max()
        };
        if let Some(&bound) = bound {
            assert!(
                remaining < bound,
                "leftover {remaining} weight-bits vs bound {bound} (equal_cost={equal_cost})"
            );
        }
    }
}

/// Monotone in the budget: granting more average bits never lowers any
/// layer's allocation (greedy over convexified gain profiles).
#[test]
fn allocations_are_monotone_in_budget() {
    let mut rng = StdRng::seed_from_u64(0x3030);
    for _ in 0..TRIALS {
        let layers = random_layers(&mut rng);
        let lo = rng.gen_range(2.0f32..=7.0);
        let hi = rng.gen_range(lo..=8.0);
        let a = allocate_bits(&layers, lo, 2, 8).unwrap();
        let b = allocate_bits(&layers, hi, 2, 8).unwrap();
        for (i, (&ba, &bb)) in a.iter().zip(&b).enumerate() {
            assert!(
                bb >= ba,
                "layer {i} dropped from {ba} to {bb} bits when the budget rose \
                 from {lo} to {hi} avg bits ({layers:?})"
            );
        }
    }
}

/// The certified-matrix allocator obeys the same three properties even
/// on non-convex error profiles (convexified internally).
#[test]
fn matrix_allocator_shares_the_greedy_properties() {
    let mut rng = StdRng::seed_from_u64(0x5EB5);
    for _ in 0..TRIALS {
        let grid = vec![2u8, 4, 8];
        let n = rng.gen_range(1..=6usize);
        let layers: Vec<StaticSensitivity> = (0..n)
            .map(|i| {
                // Random positive profile, sorted non-increasing so it is
                // a plausible (but not necessarily convex) error curve.
                let mut err: Vec<f32> = (0..grid.len())
                    .map(|_| rng.gen_range(1e-6f32..=50.0))
                    .collect();
                err.sort_by(|a, b| b.partial_cmp(a).unwrap());
                StaticSensitivity {
                    name: format!("l{i}"),
                    numel: rng.gen_range(1..=3000usize),
                    max_abs: rng.gen_range(1e-3f32..=5.0),
                    grad_bound: if rng.gen_range(0.0f32..=1.0) < 0.5 {
                        f32::INFINITY
                    } else {
                        rng.gen_range(1e-4f32..=10.0)
                    },
                    err,
                }
            })
            .collect();
        let m = SensitivityMatrix { bits: grid, layers };
        let lo = rng.gen_range(2.0f32..=7.0);
        let hi = rng.gen_range(lo..=8.0);
        let a = m.allocate(lo, 2, 8).unwrap();
        let b = m.allocate(hi, 2, 8).unwrap();
        assert!(a.iter().all(|&x| (2..=8).contains(&x)));
        let total: usize = m.layers.iter().map(|l| l.numel).sum();
        let spent: usize = m
            .layers
            .iter()
            .zip(&a)
            .map(|(l, &x)| l.numel * usize::from(x))
            .sum();
        assert!(spent <= (lo * total as f32).floor() as usize);
        for (&ba, &bb) in a.iter().zip(&b) {
            assert!(bb >= ba, "matrix allocator not monotone: {a:?} -> {b:?}");
        }
    }
}

/// Zero curvature everywhere: any allocation minimizes impact; the
/// result must still be feasible and budget-maximal, not a crash.
#[test]
fn zero_curvature_degenerates_gracefully() {
    let layers: Vec<LayerSensitivity> = (0..4)
        .map(|i| LayerSensitivity {
            name: format!("flat{i}"),
            numel: 100,
            max_abs: 1.0,
            curvature: 0.0,
        })
        .collect();
    let bits = allocate_bits(&layers, 5.0, 2, 8).unwrap();
    assert!(bits.iter().all(|&b| (2..=8).contains(&b)));
    assert!(spent(&layers, &bits) <= 5 * 400);
}

/// A single layer gets the floor of the average (capped at max).
#[test]
fn single_layer_gets_the_whole_budget() {
    let layers = vec![LayerSensitivity {
        name: "only".into(),
        numel: 1000,
        max_abs: 1.0,
        curvature: 1.0,
    }];
    assert_eq!(allocate_bits(&layers, 5.9, 2, 8).unwrap(), vec![5]);
    assert_eq!(allocate_bits(&layers, 16.0, 2, 8).unwrap(), vec![8]);
}

/// `min_bits == max_bits` pins every layer regardless of sensitivity.
#[test]
fn pinned_bounds_pin_the_allocation() {
    let layers = vec![
        LayerSensitivity {
            name: "a".into(),
            numel: 10,
            max_abs: 1.0,
            curvature: 1e9,
        },
        LayerSensitivity {
            name: "b".into(),
            numel: 10,
            max_abs: 1.0,
            curvature: 1e-9,
        },
    ];
    assert_eq!(allocate_bits(&layers, 4.0, 4, 4).unwrap(), vec![4, 4]);
}

/// Zero-size edge: an empty layer list allocates nothing.
#[test]
fn empty_layer_list_allocates_nothing() {
    assert_eq!(allocate_bits(&[], 4.0, 2, 8).unwrap(), Vec::<u8>::new());
}

/// Bounds above [`QuantScheme::MAX_BITS`] are rejected up front.
#[test]
fn out_of_range_bounds_are_rejected() {
    let layers = vec![LayerSensitivity {
        name: "x".into(),
        numel: 10,
        max_abs: 1.0,
        curvature: 1.0,
    }];
    assert!(allocate_bits(&layers, 20.0, 2, QuantScheme::MAX_BITS + 1).is_err());
    assert!(allocate_bits(&layers, 4.0, 0, 8).is_err());
}
