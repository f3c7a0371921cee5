//! Soundness proof-by-sampling for the quantization-noise transfers.
//!
//! For every op the forward pass can record, a case builds the same graph
//! twice with identical program randomness — once with base inputs, once
//! with each seeded input perturbed element-wise by `|δ| ≤ magnitude` —
//! and asserts that the per-element difference between the two `f32`
//! forward runs lies inside the interval the relational noise pass
//! derived for that node. Each case repeats over 120 independently seeded draws, and every
//! tracked bound must also be *finite* (non-vacuity): a transfer that
//! escapes to `TOP` on an op it claims to support fails loudly.

use hero_analyze::{interval_pass, relational_noise_pass, NoiseSeed, RangeSeed};
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{ConvGeometry, Shape, Tensor};

const TRIALS: u64 = 120;

/// Per-phase builder context. `noise_rng` is `None` for the base run and
/// `Some` for the perturbed run; base draws always come from `rng`, so
/// both phases see bit-identical base tensors, labels, masks and targets.
struct Ctx<'a> {
    g: &'a mut Graph,
    rng: &'a mut StdRng,
    noise_rng: Option<&'a mut StdRng>,
    value_seeds: Vec<RangeSeed>,
    noise_seeds: Vec<NoiseSeed>,
    vars: Vec<Var>,
}

impl Ctx<'_> {
    /// A fresh input drawn uniformly from `[lo, hi]`, perturbed by up to
    /// `±noise_mag` per element in the perturbed phase, and declared to
    /// both passes with exactly those parameters.
    fn input(&mut self, shape: impl Into<Shape>, lo: f32, hi: f32, noise_mag: f32) -> Var {
        let rng = &mut *self.rng;
        let noise_rng = self.noise_rng.as_deref_mut();
        let t = match noise_rng {
            Some(nr) if noise_mag > 0.0 => Tensor::from_fn(shape, |_| {
                rng.gen_range(lo..=hi) + nr.gen_range(-noise_mag..=noise_mag)
            }),
            _ => Tensor::from_fn(shape, |_| rng.gen_range(lo..=hi)),
        };
        let v = self.g.input(t);
        self.value_seeds.push(RangeSeed {
            node: v.index(),
            lo,
            hi,
        });
        if noise_mag > 0.0 {
            self.noise_seeds.push(NoiseSeed {
                node: v.index(),
                magnitude: noise_mag,
            });
        }
        self.track(v)
    }

    fn track(&mut self, v: Var) -> Var {
        self.vars.push(v);
        v
    }
}

fn run_case(name: &str, build: impl Fn(&mut Ctx)) {
    let base: u64 = name.bytes().map(u64::from).sum::<u64>() << 32;
    for trial in 0..TRIALS {
        // Phase 1: base run; derive intervals and noise bounds.
        let mut rng = StdRng::seed_from_u64(base + trial);
        let mut g1 = Graph::new();
        let mut ctx = Ctx {
            g: &mut g1,
            rng: &mut rng,
            noise_rng: None,
            value_seeds: Vec::new(),
            noise_seeds: Vec::new(),
            vars: Vec::new(),
        };
        build(&mut ctx);
        let (value_seeds, noise_seeds, vars) = (ctx.value_seeds, ctx.noise_seeds, ctx.vars);
        let tape = g1.trace();
        let values = interval_pass(&tape, &value_seeds);
        let rec = g1.value_abs_max();
        let noise = relational_noise_pass(&tape, &values, Some(&rec), &noise_seeds).tightened;
        let base_vals: Vec<Vec<f32>> = vars.iter().map(|v| g1.value(*v).data().to_vec()).collect();

        // Phase 2: identical program randomness, perturbed seeded inputs.
        let mut rng2 = StdRng::seed_from_u64(base + trial);
        let mut nrng = StdRng::seed_from_u64((base + trial) ^ 0xD1CE_CA5E);
        let mut g2 = Graph::new();
        let mut ctx2 = Ctx {
            g: &mut g2,
            rng: &mut rng2,
            noise_rng: Some(&mut nrng),
            value_seeds: Vec::new(),
            noise_seeds: Vec::new(),
            vars: Vec::new(),
        };
        build(&mut ctx2);
        let vars2 = ctx2.vars;
        assert_eq!(vars.len(), vars2.len(), "{name}: phases diverged");

        for (vi, (v1, v2)) in vars.iter().zip(&vars2).enumerate() {
            assert_eq!(v1.index(), v2.index(), "{name}: node order diverged");
            let e = noise[v1.index()];
            assert!(
                e.is_finite(),
                "{name} trial {trial}: node #{} ({}) noise bound is vacuous: {e:?}",
                v1.index(),
                tape[v1.index()].op,
            );
            let pert = g2.value(*v2);
            for (j, (&b, &p)) in base_vals[vi].iter().zip(pert.data().iter()).enumerate() {
                let diff = p - b;
                assert!(
                    e.contains(diff),
                    "{name} trial {trial}: node #{} ({}) element {j}: perturbed {p:e} − \
                     base {b:e} = {diff:e} escapes noise bound [{:e}, {:e}]",
                    v1.index(),
                    tape[v1.index()].op,
                    e.lo,
                    e.hi,
                );
            }
        }
        g1.reset();
        g2.reset();
    }
}

#[test]
fn elementwise_core_ops_respect_their_noise_bounds() {
    run_case("elementwise_core", |c| {
        let a = c.input([3, 4], -2.0, 2.0, 0.05);
        let b = c.input([3, 4], -1.5, 0.5, 0.02);
        let s = c.g.add(a, b).unwrap();
        c.track(s);
        let d = c.g.sub(s, a).unwrap();
        c.track(d);
        let m = c.g.mul(d, b).unwrap();
        c.track(m);
        let sc = c.g.scale(m, -0.7);
        c.track(sc);
        let off = c.g.add_scalar(sc, 0.3);
        c.track(off);
        let sq = c.g.square(off);
        c.track(sq);
        let rs = c.g.reshape(sq, [12]).unwrap();
        c.track(rs);
        let total = c.g.sum(rs);
        c.track(total);
        let avg = c.g.mean(sq);
        c.track(avg);
    });
}

#[test]
fn clamping_activations_respect_their_noise_bounds() {
    run_case("clamps", |c| {
        let x = c.input([4, 5], -3.0, 8.0, 0.1);
        let r = c.g.relu(x);
        c.track(r);
        let r6 = c.g.relu6(x);
        c.track(r6);
    });
}

#[test]
fn matmul_respects_its_noise_bound() {
    run_case("matmul", |c| {
        let a = c.input([3, 6], -2.0, 2.0, 0.0);
        let b = c.input([6, 4], -1.0, 3.0, 0.05);
        let p = c.g.matmul(a, b).unwrap();
        c.track(p);
        // Noise on both operands at once.
        let a2 = c.input([3, 6], -1.0, 1.0, 0.02);
        let b2 = c.input([6, 4], -1.0, 1.0, 0.08);
        let p2 = c.g.matmul(a2, b2).unwrap();
        c.track(p2);
    });
}

#[test]
fn conv_and_pool_stack_respects_its_noise_bounds() {
    run_case("conv_pool", |c| {
        let x = c.input([2, 3, 8, 8], -1.0, 1.0, 0.0);
        let w = c.input([4, 27], -0.5, 0.5, 0.04);
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let y = c.g.conv2d(x, w, geom).unwrap();
        c.track(y);
        let mp = c.g.max_pool2d(y, 2).unwrap();
        c.track(mp);
        let gap = c.g.global_avg_pool2d(mp).unwrap();
        c.track(gap);
    });
}

#[test]
fn depthwise_conv_respects_its_noise_bound() {
    run_case("depthwise", |c| {
        let x = c.input([2, 3, 8, 8], -1.0, 1.0, 0.01);
        let w = c.input([3, 3, 3], -0.5, 0.5, 0.05);
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let y = c.g.depthwise_conv2d(x, w, geom).unwrap();
        c.track(y);
    });
}

#[test]
fn batch_norm_respects_its_noise_bound() {
    run_case("batch_norm", |c| {
        let x = c.input([2, 3, 4, 4], -2.0, 2.0, 0.02);
        let gamma = c.input([3], 0.5, 1.5, 0.01);
        let beta = c.input([3], -0.5, 0.5, 0.01);
        let (y, _stats) = c.g.batch_norm(x, gamma, beta, 1e-5).unwrap();
        c.track(y);
    });
}

#[test]
fn losses_respect_their_noise_bounds() {
    run_case("losses", |c| {
        let logits = c.input([4, 6], -4.0, 4.0, 0.1);
        let rng = &mut *c.rng;
        let labels: Vec<usize> = (0..4).map(|_| rng.gen_range(0..6usize)).collect();
        let ce = c.g.cross_entropy(logits, &labels).unwrap();
        c.track(ce);
    });
}

#[test]
fn whole_mlp_forward_respects_its_noise_bounds() {
    run_case("mlp", |c| {
        let x = c.input([8, 10], -1.0, 1.0, 0.0);
        let w1 = c.input([10, 16], -0.4, 0.4, 0.4 / 7.0 * 0.5); // 4-bit Δ/2
        let b1 = c.input([16], -0.1, 0.1, 0.1 / 7.0 * 0.5);
        let h = c.g.matmul(x, w1).unwrap();
        c.track(h);
        let z = c.g.add(h, b1).unwrap();
        c.track(z);
        let a = c.g.relu(z);
        c.track(a);
        let w2 = c.input([16, 5], -0.4, 0.4, 0.4 / 7.0 * 0.5);
        let logits = c.g.matmul(a, w2).unwrap();
        c.track(logits);
        let rng = &mut *c.rng;
        let labels: Vec<usize> = (0..8).map(|_| rng.gen_range(0..5usize)).collect();
        let loss = c.g.cross_entropy(logits, &labels).unwrap();
        c.track(loss);
    });
}

/// Builds one random element-wise tape from `op_seed`: a pool of `[4, 5]`
/// tensors (some noise-seeded) grown by randomly chosen ops, closed with
/// `sum` and `mean` reductions. The op choices come from a dedicated RNG
/// derived only from `op_seed`, so the base and perturbed phases of one
/// tape are structurally identical.
fn build_random_tape(c: &mut Ctx, op_seed: u64) {
    let mut op_rng = StdRng::seed_from_u64(op_seed ^ 0x0F5E_ED00);
    let n_inputs = op_rng.gen_range(2..=3usize);
    let mut pool: Vec<Var> = Vec::new();
    for i in 0..n_inputs {
        // The first input is always seeded so every tape exercises the
        // relational transfers; later ones are a mix of seeded and exact.
        let mag = if i == 0 || op_rng.gen::<bool>() {
            0.01 + 0.04 * (op_seed % 5) as f32 / 4.0
        } else {
            0.0
        };
        pool.push(c.input([4, 5], -1.5, 1.5, mag));
    }
    let n_ops = op_rng.gen_range(4..=8usize);
    for _ in 0..n_ops {
        let a = pool[op_rng.gen_range(0..pool.len())];
        let b = pool[op_rng.gen_range(0..pool.len())];
        let v = match op_rng.gen_range(0..8usize) {
            0 => c.g.add(a, b).unwrap(),
            1 => c.g.sub(a, b).unwrap(),
            2 => c.g.sub(a, a).unwrap(),
            3 => c.g.mul(a, b).unwrap(),
            4 => c.g.scale(a, -0.6),
            5 => c.g.add_scalar(a, 0.25),
            6 => c.g.relu(a),
            _ => c.g.relu6(a),
        };
        pool.push(c.track(v));
    }
    let last = *pool.last().unwrap();
    let s = c.g.sum(last);
    c.track(s);
    let m = c.g.mean(last);
    c.track(m);
}

/// Zonotope soundness fuzzer: 200 independently seeded random tapes,
/// each asserting per node that the relational pass's cell encloses the
/// measured difference of two real forward runs on perturbed seeded
/// inputs.
#[test]
fn zonotope_is_sound_on_random_tapes() {
    const TAPES: u64 = 200;
    for op_seed in 0..TAPES {
        // Phase 1: base run; derive intervals and the noise cells.
        let mut rng = StdRng::seed_from_u64(0xD0_0D ^ (op_seed << 8));
        let mut g1 = Graph::new();
        let mut ctx = Ctx {
            g: &mut g1,
            rng: &mut rng,
            noise_rng: None,
            value_seeds: Vec::new(),
            noise_seeds: Vec::new(),
            vars: Vec::new(),
        };
        build_random_tape(&mut ctx, op_seed);
        let (value_seeds, noise_seeds, vars) = (ctx.value_seeds, ctx.noise_seeds, ctx.vars);
        let tape = g1.trace();
        let values = interval_pass(&tape, &value_seeds);
        let rec = g1.value_abs_max();
        let rn = relational_noise_pass(&tape, &values, Some(&rec), &noise_seeds);
        assert_eq!(rn.tightened.len(), tape.len(), "tape {op_seed}: length");
        let base_vals: Vec<Vec<f32>> = vars.iter().map(|v| g1.value(*v).data().to_vec()).collect();

        // Phase 2: identical program randomness, perturbed seeded inputs;
        // the cells must enclose the measured difference.
        let mut rng2 = StdRng::seed_from_u64(0xD0_0D ^ (op_seed << 8));
        let mut nrng = StdRng::seed_from_u64(op_seed ^ 0xD1CE_CA5E);
        let mut g2 = Graph::new();
        let mut ctx2 = Ctx {
            g: &mut g2,
            rng: &mut rng2,
            noise_rng: Some(&mut nrng),
            value_seeds: Vec::new(),
            noise_seeds: Vec::new(),
            vars: Vec::new(),
        };
        build_random_tape(&mut ctx2, op_seed);
        let vars2 = ctx2.vars;
        assert_eq!(vars.len(), vars2.len(), "tape {op_seed}: phases diverged");
        for (vi, (v1, v2)) in vars.iter().zip(&vars2).enumerate() {
            let t = rn.tightened[v1.index()];
            let pert = g2.value(*v2);
            for (j, (&b, &p)) in base_vals[vi].iter().zip(pert.data().iter()).enumerate() {
                let diff = p - b;
                assert!(
                    t.contains(diff),
                    "tape {op_seed}: node #{} ({}) element {j}: measured diff {diff:e} \
                     escapes tightened bound [{:e}, {:e}]",
                    v1.index(),
                    tape[v1.index()].op,
                    t.lo,
                    t.hi,
                );
            }
        }
        g1.reset();
        g2.reset();
    }
}

#[test]
fn conv_bn_relu_head_respects_its_noise_bounds() {
    run_case("conv_bn_head", |c| {
        let x = c.input([2, 3, 8, 8], -1.0, 1.0, 0.0);
        let w = c.input([4, 27], -0.3, 0.3, 0.3 / 7.0 * 0.5);
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let y = c.g.conv2d(x, w, geom).unwrap();
        c.track(y);
        let gamma = c.input([4], 0.8, 1.2, 0.0);
        let beta = c.input([4], -0.2, 0.2, 0.0);
        let (bn, _) = c.g.batch_norm(y, gamma, beta, 1e-5).unwrap();
        c.track(bn);
        let r = c.g.relu(bn);
        c.track(r);
        let gap = c.g.global_avg_pool2d(r).unwrap();
        c.track(gap);
        let wl = c.input([4, 5], -0.5, 0.5, 0.5 / 7.0 * 0.5);
        let logits = c.g.matmul(gap, wl).unwrap();
        c.track(logits);
        let rng = &mut *c.rng;
        let labels: Vec<usize> = (0..2).map(|_| rng.gen_range(0..5usize)).collect();
        let loss = c.g.cross_entropy(logits, &labels).unwrap();
        c.track(loss);
    });
}
