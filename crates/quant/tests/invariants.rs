//! Deterministic seeded-loop tests for the quantization invariants the
//! paper's Theorem 2 relies on (formerly a proptest suite; rewritten
//! against the in-tree RNG so the workspace builds offline).

use hero_quant::{quant_error, quantize_tensor, QuantScheme};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::Tensor;

fn arb_weights(rng: &mut StdRng) -> Tensor {
    let n = rng.gen_range(1..200usize);
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
    Tensor::from_vec(data, [n]).unwrap()
}

fn arb_bits(rng: &mut StdRng, hi: usize) -> u8 {
    rng.gen_range(2..=hi) as u8
}

/// Theorem 2's premise: min-max linear uniform quantization perturbs every
/// weight by at most half a bin.
#[test]
fn symmetric_linf_error_at_most_half_bin() {
    let mut rng = StdRng::seed_from_u64(0x9A01);
    for _ in 0..32 {
        let w = arb_weights(&mut rng);
        let bits = arb_bits(&mut rng, 10);
        let q = quantize_tensor(&w, &QuantScheme::symmetric(bits).unwrap());
        let err = quant_error(&w, &q.values).unwrap();
        assert!(err.linf <= q.bin_width / 2.0 + 1e-5);
    }
}

/// Quantization is idempotent: re-quantizing a quantized tensor under the
/// same scheme is (numerically) a no-op.
#[test]
fn quantization_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x9A03);
    for _ in 0..32 {
        let w = arb_weights(&mut rng);
        let bits = arb_bits(&mut rng, 8);
        let scheme = QuantScheme::symmetric(bits).unwrap();
        let q1 = quantize_tensor(&w, &scheme);
        let q2 = quantize_tensor(&q1.values, &scheme);
        for (a, b) in q1.values.data().iter().zip(q2.values.data()) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + a.abs()));
        }
    }
}

/// The number of distinct dequantized values never exceeds the grid's
/// `2^n − 1` levels.
#[test]
fn level_count_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0x9A04);
    for _ in 0..32 {
        let w = arb_weights(&mut rng);
        let bits = arb_bits(&mut rng, 6);
        let scheme = QuantScheme::symmetric(bits).unwrap();
        let q = quantize_tensor(&w, &scheme);
        let mut levels: Vec<f32> = q.values.data().to_vec();
        levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        levels.dedup();
        assert!(levels.len() as u32 <= 2 * QuantScheme::half_levels(bits) + 1);
    }
}

/// More precision never increases the MSE.
#[test]
fn mse_is_monotone_in_bits() {
    let mut rng = StdRng::seed_from_u64(0x9A05);
    for _ in 0..32 {
        let w = arb_weights(&mut rng);
        let mut prev = f32::INFINITY;
        for bits in [2u8, 4, 6, 8] {
            let q = quantize_tensor(&w, &QuantScheme::symmetric(bits).unwrap());
            let err = quant_error(&w, &q.values).unwrap();
            assert!(err.mse <= prev + 1e-6);
            prev = err.mse;
        }
    }
}

/// Symmetric quantization is sign-preserving and odd:
/// quantize(-w) == -quantize(w).
#[test]
fn symmetric_quantization_is_odd() {
    let mut rng = StdRng::seed_from_u64(0x9A06);
    for _ in 0..32 {
        let w = arb_weights(&mut rng);
        let bits = arb_bits(&mut rng, 8);
        let scheme = QuantScheme::symmetric(bits).unwrap();
        let q_pos = quantize_tensor(&w, &scheme);
        let q_neg = quantize_tensor(&w.neg(), &scheme);
        for (a, b) in q_pos.values.data().iter().zip(q_neg.values.data()) {
            assert!((a + b).abs() <= 1e-4 * (1.0 + a.abs()));
        }
    }
}
