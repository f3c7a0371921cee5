//! Soundness proof-by-sampling for the interval transfer functions.
//!
//! For every op the forward pass can record, a case builds a small graph
//! from inputs drawn uniformly inside *declared* seed ranges, runs the
//! interval pass with those declarations, and asserts that every element
//! of every recorded forward tensor lies inside its node's computed
//! interval. Each case repeats over 120 independently seeded draws, so a
//! transfer function that under-covers its op by even one ULP pattern
//! shows up as a deterministic, reproducible failure.

use hero_analyze::{interval_pass, RangeSeed};
use hero_autodiff::{Graph, Var};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{ConvGeometry, Shape, Tensor};

const TRIALS: u64 = 120;

/// Per-trial builder context: tracks every created node and the declared
/// range of every input so the harness can check all of them.
struct Ctx<'a> {
    g: &'a mut Graph,
    rng: &'a mut StdRng,
    seeds: Vec<RangeSeed>,
    vars: Vec<Var>,
}

impl Ctx<'_> {
    /// A fresh input whose elements are drawn uniformly from `[lo, hi]`,
    /// declared to the interval pass with exactly that range.
    fn input(&mut self, shape: impl Into<Shape>, lo: f32, hi: f32) -> Var {
        let rng = &mut *self.rng;
        let t = Tensor::from_fn(shape, |_| rng.gen_range(lo..=hi));
        let v = self.g.input(t);
        self.seeds.push(RangeSeed {
            node: v.index(),
            lo,
            hi,
        });
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
        let mut rng = StdRng::seed_from_u64(base + trial);
        let mut g = Graph::new();
        let mut ctx = Ctx {
            g: &mut g,
            rng: &mut rng,
            seeds: Vec::new(),
            vars: Vec::new(),
        };
        build(&mut ctx);
        let (seeds, vars) = (ctx.seeds, ctx.vars);
        let tape = g.trace();
        let intervals = interval_pass(&tape, &seeds);
        for v in vars {
            let iv = intervals[v.index()];
            for (j, &val) in g.value(v).data().iter().enumerate() {
                assert!(
                    iv.contains(val),
                    "{name} trial {trial}: node #{} ({}) element {j} = {val:e} \
                     escapes computed interval [{:e}, {:e}]",
                    v.index(),
                    tape[v.index()].op,
                    iv.lo,
                    iv.hi,
                );
            }
        }
        g.reset();
    }
}

#[test]
fn elementwise_core_ops_stay_inside_their_intervals() {
    run_case("elementwise_core", |c| {
        let a = c.input([3, 4], -2.0, 2.0);
        let b = c.input([3, 4], -1.5, 0.5);
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
fn clamping_activations_stay_inside_their_intervals() {
    run_case("clamps", |c| {
        let x = c.input([4, 5], -3.0, 8.0);
        let r = c.g.relu(x);
        c.track(r);
        let r6 = c.g.relu6(x);
        c.track(r6);
    });
}

#[test]
fn matmul_stays_inside_its_interval() {
    run_case("matmul", |c| {
        let a = c.input([3, 6], -2.0, 2.0);
        let b = c.input([6, 4], -1.0, 3.0);
        let p = c.g.matmul(a, b).unwrap();
        c.track(p);
    });
}

#[test]
fn conv_and_pool_stack_stays_inside_its_intervals() {
    run_case("conv_pool", |c| {
        let x = c.input([2, 3, 8, 8], -1.0, 1.0);
        let w = c.input([4, 27], -0.5, 0.5);
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
fn depthwise_conv_stays_inside_its_interval() {
    run_case("depthwise", |c| {
        let x = c.input([2, 3, 8, 8], -1.0, 1.0);
        let w = c.input([3, 3, 3], -0.5, 0.5);
        let geom = ConvGeometry::new(8, 8, 3, 1, 1).unwrap();
        let y = c.g.depthwise_conv2d(x, w, geom).unwrap();
        c.track(y);
    });
}

#[test]
fn batch_norm_stays_inside_its_interval() {
    run_case("batch_norm", |c| {
        let x = c.input([2, 3, 4, 4], -2.0, 2.0);
        let gamma = c.input([3], 0.5, 1.5);
        let beta = c.input([3], -0.5, 0.5);
        let (y, _stats) = c.g.batch_norm(x, gamma, beta, 1e-5).unwrap();
        c.track(y);
    });
}

#[test]
fn losses_stay_inside_their_intervals() {
    run_case("losses", |c| {
        let logits = c.input([4, 6], -4.0, 4.0);
        let rng = &mut *c.rng;
        let labels: Vec<usize> = (0..4).map(|_| rng.gen_range(0..6usize)).collect();
        let ce = c.g.cross_entropy(logits, &labels).unwrap();
        c.track(ce);
    });
}

#[test]
fn whole_mlp_forward_stays_inside_its_intervals() {
    run_case("mlp", |c| {
        let x = c.input([8, 10], -1.0, 1.0);
        let w1 = c.input([10, 16], -0.4, 0.4);
        let b1 = c.input([16], -0.1, 0.1);
        let h = c.g.matmul(x, w1).unwrap();
        c.track(h);
        let z = c.g.add(h, b1).unwrap();
        c.track(z);
        let a = c.g.relu(z);
        c.track(a);
        let w2 = c.input([16, 5], -0.4, 0.4);
        let logits = c.g.matmul(a, w2).unwrap();
        c.track(logits);
        let rng = &mut *c.rng;
        let labels: Vec<usize> = (0..8).map(|_| rng.gen_range(0..5usize)).collect();
        let loss = c.g.cross_entropy(logits, &labels).unwrap();
        c.track(loss);
    });
}
