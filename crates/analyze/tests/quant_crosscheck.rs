//! Cross-validation of the static quantization-clip lint against
//! `hero-quant`'s actual quantizer.
//!
//! The contract under test: if a tensor *empirically* clips under 4-bit
//! symmetric quantization (some element lands more than half a bin away
//! from its dequantized value), then the interval pass must have flagged
//! it *statically* — the static clip set is a superset of the empirical
//! one, with no false negatives. The reverse direction is not required
//! (intervals over-approximate), but the test also checks the lint is not
//! vacuously flagging everything.

use hero_analyze::{interval_pass, quant_clip_risk, RangeSeed};
use hero_autodiff::{Graph, Var};
use hero_quant::{quant_error, quantize_tensor, QuantScheme};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::Tensor;

const BITS: u8 = 4;

/// `t` clipped to the symmetric range a percentile-calibrated quantizer
/// keeps: `±A`, `A` the larger magnitude of the two-sided quantile `q`'s
/// bounds. Min-max quantizing the clipped tensor is quantizing `t` on that
/// grid, so the outliers beyond `A` really clip.
fn clip_to_quantile(t: &Tensor, q: f32) -> Tensor {
    let mut sorted = t.data().to_vec();
    sorted.sort_by(f32::total_cmp);
    let n = sorted.len();
    let lo = sorted[(((1.0 - q) * n as f32) as usize).min(n - 1)].min(0.0);
    let hi = sorted[((q * n as f32) as usize).min(n - 1)].max(0.0);
    let a = lo.abs().max(hi.abs());
    t.map(|v| v.clamp(-a, a))
}

#[test]
fn static_clip_set_covers_empirical_clip_set_at_4_bits() {
    let mut rng = StdRng::seed_from_u64(0x0C11);
    let mut g = Graph::new();
    let mut vars: Vec<Var> = Vec::new();
    let mut seeds = Vec::new();
    let mut seeded_input = |g: &mut Graph, t: Tensor, lo: f32, hi: f32| {
        let v = g.input(t);
        seeds.push(RangeSeed {
            node: v.index(),
            lo,
            hi,
        });
        v
    };

    // Batch data: uniform in [-1, 1] — a well-behaved distribution.
    let x = {
        let r = &mut rng;
        seeded_input(
            &mut g,
            Tensor::from_fn([16, 12], |_| r.gen_range(-1.0f32..=1.0)),
            -1.0,
            1.0,
        )
    };
    // First weight: mostly small, with ~5% heavy outliers — the classic
    // shape that makes a percentile-calibrated quantizer clip.
    let w1 = {
        let r = &mut rng;
        seeded_input(
            &mut g,
            Tensor::from_fn([12, 10], |_| {
                if r.gen_range(0..20usize) == 0 {
                    let s = if r.gen::<bool>() { 1.0 } else { -1.0 };
                    s * r.gen_range(2.0f32..=3.0)
                } else {
                    r.gen_range(-0.2f32..=0.2)
                }
            }),
            -3.0,
            3.0,
        )
    };
    // Bias: tight, nearly constant range — must NOT clip.
    let b1 = {
        let r = &mut rng;
        seeded_input(
            &mut g,
            Tensor::from_fn([10], |_| r.gen_range(0.2f32..=0.3)),
            0.2,
            0.3,
        )
    };
    let w2 = {
        let r = &mut rng;
        seeded_input(
            &mut g,
            Tensor::from_fn([10, 4], |_| {
                if r.gen_range(0..10usize) == 0 {
                    r.gen_range(1.5f32..=2.5)
                } else {
                    r.gen_range(-0.3f32..=0.3)
                }
            }),
            -2.5,
            2.5,
        )
    };
    vars.extend([x, w1, b1, w2]);

    let h = g.matmul(x, w1).unwrap();
    let z = g.add(h, b1).unwrap();
    let a = g.relu(z);
    let logits = g.matmul(a, w2).unwrap();
    let labels: Vec<usize> = (0..16).map(|_| rng.gen_range(0..4usize)).collect();
    let loss = g.cross_entropy(logits, &labels).unwrap();
    vars.extend([h, z, a, logits, loss]);

    let tape = g.trace();
    let intervals = interval_pass(&tape, &seeds);

    let half_levels = ((1u32 << (BITS - 1)) - 1) as f32;
    let scheme = QuantScheme::symmetric(BITS).unwrap();
    let mut empirically_clipped = Vec::new();
    let mut statically_clean = Vec::new();
    for &v in &vars {
        let t = g.value(v);
        if t.numel() < 8 {
            continue;
        }
        let q = quantize_tensor(&clip_to_quantile(t, 0.9), &scheme);
        let delta = q.bin_width;
        if delta <= 0.0 {
            continue;
        }
        // The quantizer's actual symmetric clip range, recovered from the
        // grid it chose: max_abs = Δ · (2^(b−1) − 1).
        let clip_range = delta * half_levels;
        let err = quant_error(t, &q.values).unwrap();
        let clips = err.linf > delta / 2.0 + 1e-6;
        let flagged = quant_clip_risk(intervals[v.index()], BITS, clip_range);
        if clips {
            assert!(
                flagged,
                "node #{} ({}) clips empirically (linf {:e} > Δ/2 {:e}) but the \
                 static lint missed it (interval [{:e}, {:e}], clip range {clip_range:e})",
                v.index(),
                tape[v.index()].op,
                err.linf,
                delta / 2.0,
                intervals[v.index()].lo,
                intervals[v.index()].hi,
            );
            empirically_clipped.push(v.index());
        }
        if !flagged {
            statically_clean.push(v.index());
        }
    }
    // The exercise is only meaningful if both populations exist: some
    // tensors really clip (and are caught), some are statically clean
    // (the lint is not crying wolf on everything).
    assert!(
        !empirically_clipped.is_empty(),
        "no tensor clipped empirically; the cross-check is vacuous"
    );
    assert!(
        !statically_clean.is_empty(),
        "every tensor was statically flagged; the lint has no specificity"
    );
    g.reset();
}

#[test]
fn clip_risk_threshold_is_monotone_in_bits() {
    // If a tensor clips at 4 bits it must also be reported at every
    // narrower width for the same clip range: Δ grows as bits shrink, so
    // the flag can only get easier to trip.
    let iv = hero_analyze::Interval::of(-2.0, 2.0);
    let clip_range = 1.0;
    assert!(quant_clip_risk(iv, 4, clip_range));
    assert!(quant_clip_risk(iv, 3, clip_range));
    assert!(quant_clip_risk(iv, 2, clip_range));
}
