//! Numeric gradient checking against central finite differences.
//!
//! Every backward rule of `hero-autodiff` is validated with
//! [`check_scalar_fn`], which compares an analytic gradient against
//! `(f(x + εe_i) - f(x - εe_i)) / 2ε` at every coordinate. The
//! graph-level front-end [`check_graph_fn`] drives the same comparison
//! through a full tape build + [`Graph::backward`] pass for every input
//! of a multi-input builder, and [`seeded_uniform`] / [`seeded_signed`]
//! generate the reproducible random test points the corpus in
//! `tests/gradcheck_corpus.rs` sweeps every registered op with.

use hero_autodiff::{Graph, Var};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{Shape, Tensor};

/// Compares the analytic gradient of a scalar function against central
/// finite differences.
///
/// `f` maps an input tensor to `(loss, analytic_gradient)`. The check
/// perturbs every coordinate of `x0` by `±eps` and requires the relative
/// error of each analytic partial derivative to be below `tol` (with an
/// absolute floor for near-zero derivatives).
///
/// # Panics
///
/// Panics with a descriptive message at the first coordinate whose analytic
/// and numeric derivatives disagree — this is a test utility.
pub fn check_scalar_fn(x0: &Tensor, eps: f32, tol: f32, f: impl Fn(&Tensor) -> (f32, Tensor)) {
    let (_, analytic) = f(x0);
    assert_eq!(
        analytic.shape(),
        x0.shape(),
        "gradient shape {:?} differs from input shape {:?}",
        analytic.dims(),
        x0.dims()
    );
    for i in 0..x0.numel() {
        let mut plus = x0.clone();
        plus.data_mut()[i] += eps;
        let mut minus = x0.clone();
        minus.data_mut()[i] -= eps;
        let (lp, _) = f(&plus);
        let (lm, _) = f(&minus);
        let numeric = (lp - lm) / (2.0 * eps);
        let a = analytic.data()[i];
        let denom = a.abs().max(numeric.abs()).max(1.0);
        let rel = (a - numeric).abs() / denom;
        assert!(
            rel <= tol,
            "gradient mismatch at flat index {i}: analytic {a}, numeric {numeric}, rel err {rel} > {tol}"
        );
    }
}

/// A reproducible uniform random tensor on `[lo, hi)`, seeded so the
/// gradcheck corpus evaluates the same points on every run.
pub fn seeded_uniform(shape: impl Into<Shape>, seed: u64, lo: f32, hi: f32) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(shape, |_| lo + (hi - lo) * rng.gen::<f32>())
}

/// A reproducible random tensor whose entries lie in
/// `±[gap, gap + span)` — bounded away from zero on both sides. Use for
/// inputs to kinked ops (`relu`, `relu6`, `abs`-like paths) where a
/// finite-difference probe must not straddle the non-differentiable point.
pub fn seeded_signed(shape: impl Into<Shape>, seed: u64, gap: f32, span: f32) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(shape, |_| {
        let mag = gap + span * rng.gen::<f32>();
        if rng.gen::<f32>() < 0.5 {
            mag
        } else {
            -mag
        }
    })
}

/// Gradient-checks a graph builder against central finite differences,
/// for **every** input tensor.
///
/// `build` receives a fresh [`Graph`] plus one [`Var`] per entry of
/// `inputs` (in order) and must return a *scalar* loss node. The check
/// runs one forward/backward pass to collect the analytic gradients,
/// then perturbs each coordinate of each input by `±eps` and compares
/// the numeric slope against the analytic partial, using the same
/// relative-error criterion as [`check_scalar_fn`]. Inputs that do not
/// influence the loss are required to have no (equivalently, zero)
/// gradient.
///
/// # Panics
///
/// Panics with a descriptive message naming the offending input and flat
/// coordinate on the first mismatch, or if `build` fails or returns a
/// non-scalar node — this is a test utility.
pub fn check_graph_fn(
    inputs: &[Tensor],
    eps: f32,
    tol: f32,
    build: impl Fn(&mut Graph, &[Var]) -> hero_tensor::Result<Var>,
) {
    let loss_of = |xs: &[Tensor]| -> f32 {
        let mut g = Graph::new();
        let vars: Vec<Var> = xs.iter().map(|x| g.input(x.clone())).collect();
        let loss = build(&mut g, &vars).expect("gradcheck corpus builder failed");
        let v = g.value(loss).item().expect("corpus loss must be scalar");
        g.reset();
        v
    };
    // One analytic pass over the unperturbed inputs.
    let analytic: Vec<Tensor> = {
        let mut g = Graph::new();
        let vars: Vec<Var> = inputs.iter().map(|x| g.input(x.clone())).collect();
        let loss = build(&mut g, &vars).expect("gradcheck corpus builder failed");
        let mut grads = g
            .backward(loss, &vars)
            .expect("backward failed on corpus tape");
        let out = vars
            .iter()
            .zip(inputs)
            .map(|(v, x)| {
                grads
                    .take(*v)
                    .unwrap_or_else(|| Tensor::zeros(x.shape().clone()))
            })
            .collect();
        grads.recycle();
        g.reset();
        out
    };
    for (j, x0) in inputs.iter().enumerate() {
        assert_eq!(
            analytic[j].shape(),
            x0.shape(),
            "input {j}: gradient shape {:?} differs from input shape {:?}",
            analytic[j].dims(),
            x0.dims()
        );
        let mut probe: Vec<Tensor> = inputs.to_vec();
        for i in 0..x0.numel() {
            let base = x0.data()[i];
            probe[j].data_mut()[i] = base + eps;
            let lp = loss_of(&probe);
            probe[j].data_mut()[i] = base - eps;
            let lm = loss_of(&probe);
            probe[j].data_mut()[i] = base;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic[j].data()[i];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            let rel = (a - numeric).abs() / denom;
            assert!(
                rel <= tol,
                "gradient mismatch at input {j}, flat index {i}: \
                 analytic {a}, numeric {numeric}, rel err {rel} > {tol}"
            );
        }
    }
}

mod tests {
    use super::*;

    #[test]
    fn check_scalar_fn_accepts_correct_gradient() {
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1], [3]).unwrap();
        check_scalar_fn(&x, 1e-3, 1e-2, |t| (t.norm_l2_sq(), t.scale(2.0)));
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn check_scalar_fn_rejects_wrong_gradient() {
        let x = Tensor::from_vec(vec![0.3, -0.7], [2]).unwrap();
        check_scalar_fn(&x, 1e-3, 1e-2, |t| (t.norm_l2_sq(), t.scale(3.0)));
    }

    #[test]
    fn seeded_tensors_are_reproducible_and_bounded() {
        let a = seeded_uniform([2, 3], 42, -0.5, 0.5);
        let b = seeded_uniform([2, 3], 42, -0.5, 0.5);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| (-0.5..0.5).contains(v)));
        let c = seeded_uniform([2, 3], 43, -0.5, 0.5);
        assert_ne!(a, c, "different seeds must give different points");
        let s = seeded_signed([4, 4], 7, 0.2, 1.0);
        assert!(s.data().iter().all(|v| v.abs() >= 0.2 && v.abs() < 1.2));
        assert!(s.data().iter().any(|v| *v < 0.0));
        assert!(s.data().iter().any(|v| *v > 0.0));
    }

    #[test]
    fn check_graph_fn_accepts_multi_input_builder() {
        let a = seeded_uniform([2, 3], 1, -1.0, 1.0);
        let b = seeded_uniform([2, 3], 2, -1.0, 1.0);
        check_graph_fn(&[a, b], 1e-2, 1e-2, |g, v| {
            let prod = g.mul(v[0], v[1])?;
            let sq = g.square(prod);
            Ok(g.sum(sq))
        });
    }

    #[test]
    #[should_panic(expected = "gradient mismatch at input 0")]
    fn check_graph_fn_rejects_wrong_gradient() {
        // A coordinate pinned exactly on the relu kink: the analytic
        // backward picks one side (slope 0) while the central difference
        // sees eps/2, so the check must flag input 0.
        let mut x = seeded_signed([5], 3, 0.5, 0.5);
        x.data_mut()[2] = 0.0;
        check_graph_fn(&[x], 1e-1, 1e-3, |g, v| {
            let r = g.relu(v[0]);
            let sq = g.square(r);
            Ok(g.sum(sq))
        });
    }
}
