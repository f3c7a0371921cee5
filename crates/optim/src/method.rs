//! The four training methods the paper evaluates: SGD, first-order-only
//! (SAM), GRAD-L1 and HERO (Algorithm 1).

use crate::sgd::SgdState;
use hero_hessian::{fd_hvp_into, layer_scaled_direction_into, perturbed_into, GradOracle};
use hero_tensor::{global_norm_l1, global_norm_l2, pool, Result, Tensor, TensorError};

/// Which gradient rule to use for each training step.
///
/// All methods share SGD-with-momentum, weight decay and the learning-rate
/// schedule; they differ only in the gradient they feed the update — the
/// exact framing of the paper's Table 3 ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Plain empirical-risk gradient: `∇ = ∇L(W) + αW`.
    Sgd,
    /// First-order-only / SAM-style (paper Table 3): the gradient is taken
    /// at the perturbed point, `∇ = ∇L(W + h·z) + αW`, with `z` the
    /// layer-scaled gradient direction of Eq. 15.
    FirstOrderOnly {
        /// Perturbation step size `h`.
        h: f32,
    },
    /// Gradient-ℓ1 regularization [Alizadeh et al. 2020]:
    /// `∇ = ∇L(W) + λ·H·sign(g) + αW` (the `H·sign(g)` term is the gradient
    /// of `λ‖g‖₁`, computed by finite-difference HVP).
    GradL1 {
        /// Regularization strength λ.
        lambda: f32,
    },
    /// HERO (Eq. 17 / Algorithm 1):
    /// `∇ = ∇L(W+hz) + αW + γ·∇G(W+hz)` where `G = ‖∇L(W+hz) − g‖²` and
    /// `∇G(W′) = 2·H(W′)(∇L(W′) − g)`.
    Hero {
        /// Perturbation step size `h`.
        h: f32,
        /// Hessian-regularization strength γ.
        gamma: f32,
    },
}

impl Method {
    /// Short name used in reports (matching the paper's tables).
    pub fn name(&self) -> &'static str {
        match self {
            Method::Sgd => "SGD",
            Method::FirstOrderOnly { .. } => "First-order only",
            Method::GradL1 { .. } => "GRAD L1",
            Method::Hero { .. } => "HERO",
        }
    }
}

/// Diagnostics from one optimization step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Batch loss at the unperturbed weights.
    pub loss: f32,
    /// ℓ2 norm of the raw gradient `g = ∇L(W)`.
    pub grad_norm: f32,
    /// Method-specific regularizer value: HERO's `G = ‖∇L(W+hz) − g‖²`,
    /// GRAD-L1's `‖g‖₁`, 0 otherwise.
    pub regularizer: f32,
    /// Gradient evaluations spent this step.
    pub grad_evals: usize,
}

/// Step size for the finite-difference HVPs inside HERO and GRAD-L1.
const FD_EPS: f32 = 1e-3;

/// One training method bound to SGD-with-momentum state and shared
/// hyper-parameters.
///
/// The optimizer is model-agnostic: it works against any
/// [`GradOracle`], which is how the unit tests validate it on quadratics
/// with known Hessians before it ever touches a network.
#[derive(Debug, Clone)]
pub struct Optimizer {
    method: Method,
    sgd: SgdState,
    /// Weight decay α (applied to entries where the decay mask is true).
    weight_decay: f32,
    /// Reusable per-step workspaces (sized on the first step).
    scratch: StepScratch,
}

/// Workspaces for one optimization step. Each vector keeps its tensors
/// across steps, so the HERO three-gradient step materializes no fresh
/// parameter-sized vectors after warm-up; buffers absorbed from the oracle
/// are recycled into the thread-local scratch pool when replaced.
#[derive(Debug, Clone, Default)]
struct StepScratch {
    /// Clean gradient `g = ∇L(W)`.
    g: Vec<Tensor>,
    /// Layer-scaled direction `z` (Eq. 15); doubles as `sign(g)` for GRAD-L1.
    z: Vec<Tensor>,
    /// Perturbed parameters `W* = W + h·z`.
    w_star: Vec<Tensor>,
    /// Gradient at the perturbed point `∇L(W*)`.
    g_star: Vec<Tensor>,
    /// Gradient difference `d = ∇L(W*) − g`.
    d: Vec<Tensor>,
    /// Hessian-vector product `H·d` (or `H·sign(g)`).
    hvp: Vec<Tensor>,
    /// `fd_hvp_into`'s internal perturbation workspace.
    fd_shift: Vec<Tensor>,
    /// The gradient finally handed to the SGD update.
    total: Vec<Tensor>,
}

/// Replaces `ws`'s contents with `new`, recycling the displaced tensors
/// into the scratch pool so the next gradient evaluation re-leases them.
fn absorb(ws: &mut Vec<Tensor>, new: Vec<Tensor>) {
    for t in ws.drain(..) {
        pool::recycle_tensor(t);
    }
    ws.extend(new);
}

/// Writes `a − b` element-wise into `out`, reusing its buffers when the
/// shapes already match.
fn diff_into(a: &[Tensor], b: &[Tensor], out: &mut Vec<Tensor>) -> Result<()> {
    let reuse = out.len() == a.len() && out.iter().zip(a).all(|(o, t)| o.shape() == t.shape());
    if reuse {
        for (o, t) in out.iter_mut().zip(a) {
            o.copy_from(t)?;
        }
    } else {
        out.clear();
        out.extend(a.iter().cloned());
    }
    for (o, t) in out.iter_mut().zip(b) {
        o.axpy(-1.0, t)?;
    }
    Ok(())
}

/// Writes `sign(g)` element-wise into `out`, reusing its buffers when the
/// shapes already match.
fn sign_into(g: &[Tensor], out: &mut Vec<Tensor>) {
    let reuse = out.len() == g.len() && out.iter().zip(g).all(|(o, t)| o.shape() == t.shape());
    if !reuse {
        out.clear();
        out.extend(g.iter().map(Tensor::signum));
        return;
    }
    for (o, t) in out.iter_mut().zip(g) {
        for (od, &gd) in o.data_mut().iter_mut().zip(t.data()) {
            *od = gd.signum();
        }
    }
}

impl Optimizer {
    /// Creates an optimizer with the paper's defaults: momentum 0.9 and
    /// weight decay 1e-4 (§5.1).
    pub fn new(method: Method) -> Self {
        Optimizer {
            method,
            sgd: SgdState::new(0.9),
            weight_decay: 1e-4,
            scratch: StepScratch::default(),
        }
    }

    /// Overrides the momentum coefficient.
    #[must_use]
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.sgd = SgdState::new(momentum);
        self
    }

    /// Overrides the weight decay α.
    #[must_use]
    pub fn with_weight_decay(mut self, alpha: f32) -> Self {
        self.weight_decay = alpha;
        self
    }

    /// The configured method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Momentum buffers of the inner SGD state, if materialized.
    /// Checkpointing serializes these; everything else the optimizer
    /// holds is per-step scratch that is overwritten before use.
    pub fn momentum_buffers(&self) -> Option<&[Tensor]> {
        self.sgd.buffers()
    }

    /// Restores momentum buffers captured by [`Optimizer::momentum_buffers`]
    /// so a resumed run continues the exact velocity trajectory.
    pub fn set_momentum_buffers(&mut self, buffers: Vec<Tensor>) {
        self.sgd.set_buffers(buffers);
    }

    /// Runs one optimization step in place on `params`.
    ///
    /// `decay_mask[i]` selects which parameter tensors receive weight decay
    /// (weights yes; biases and batch-norm affine parameters no).
    ///
    /// # Errors
    ///
    /// Returns an error if the mask is misaligned with `params` or the
    /// oracle fails.
    pub fn step(
        &mut self,
        oracle: &mut dyn GradOracle,
        params: &mut [Tensor],
        decay_mask: &[bool],
        lr: f32,
    ) -> Result<StepStats> {
        if decay_mask.len() != params.len() {
            return Err(TensorError::InvalidArgument(format!(
                "decay mask has {} entries for {} params",
                decay_mask.len(),
                params.len()
            )));
        }
        let ws = &mut self.scratch;
        let (loss, g_new) = oracle.grad(params)?;
        absorb(&mut ws.g, g_new);
        let reduce = hero_obs::span("reduce");
        let grad_norm = global_norm_l2(&ws.g);
        drop(reduce);
        let mut regularizer = 0.0;
        let mut grad_evals = 1;

        // Each arm leaves the method's gradient in `ws.total` by swapping
        // it with the workspace that holds it (a pointer swap, no copies).
        match self.method {
            Method::Sgd => {
                std::mem::swap(&mut ws.total, &mut ws.g);
            }
            Method::FirstOrderOnly { h } => {
                let perturb = hero_obs::span("perturb");
                layer_scaled_direction_into(params, &ws.g, &mut ws.z);
                perturbed_into(params, &ws.z, h, &mut ws.w_star)?;
                drop(perturb);
                let (_, g_star) = oracle.grad(&ws.w_star)?;
                grad_evals += 1;
                absorb(&mut ws.total, g_star);
            }
            Method::GradL1 { lambda } => {
                let perturb = hero_obs::span("perturb");
                regularizer = global_norm_l1(&ws.g);
                sign_into(&ws.g, &mut ws.z);
                drop(perturb);
                fd_hvp_into(
                    oracle,
                    params,
                    &ws.g,
                    &ws.z,
                    FD_EPS,
                    &mut ws.fd_shift,
                    &mut ws.hvp,
                )?;
                grad_evals += 1;
                let apply = hero_obs::span("apply");
                for (t, hs) in ws.g.iter_mut().zip(&ws.hvp) {
                    t.axpy(lambda, hs)?;
                }
                std::mem::swap(&mut ws.total, &mut ws.g);
                drop(apply);
            }
            Method::Hero { h, gamma } => {
                // Algorithm 1, lines 6-11.
                let perturb = hero_obs::span("perturb");
                layer_scaled_direction_into(params, &ws.g, &mut ws.z);
                perturbed_into(params, &ws.z, h, &mut ws.w_star)?;
                drop(perturb);
                let (_, g_star) = oracle.grad(&ws.w_star)?;
                grad_evals += 1;
                absorb(&mut ws.g_star, g_star);
                // d = ∇L(W*) - g ; G = Σ_i ‖d_i‖²
                let reduce = hero_obs::span("reduce");
                diff_into(&ws.g_star, &ws.g, &mut ws.d)?;
                regularizer = ws.d.iter().map(Tensor::norm_l2_sq).sum();
                drop(reduce);
                // ∇G(W*) = 2 H(W*) d, via FD-HVP around W*.
                fd_hvp_into(
                    oracle,
                    &ws.w_star,
                    &ws.g_star,
                    &ws.d,
                    FD_EPS,
                    &mut ws.fd_shift,
                    &mut ws.hvp,
                )?;
                grad_evals += 1;
                let apply = hero_obs::span("apply");
                for (t, hdi) in ws.g_star.iter_mut().zip(&ws.hvp) {
                    t.axpy(2.0 * gamma, hdi)?;
                }
                std::mem::swap(&mut ws.total, &mut ws.g_star);
                drop(apply);
            }
        };

        // Weight decay αW on decayed tensors (Eq. 17's αW term), fused into
        // the same buffer the SGD update reads.
        let _apply = hero_obs::span("apply");
        if self.weight_decay != 0.0 {
            for ((t, p), &decay) in ws.total.iter_mut().zip(params.iter()).zip(decay_mask) {
                if decay {
                    t.axpy(self.weight_decay, p)?;
                }
            }
        }

        self.sgd.update(params, &ws.total, lr)?;
        Ok(StepStats {
            loss,
            grad_norm,
            regularizer,
            grad_evals,
        })
    }

    /// Clears the momentum state (e.g. between independent runs).
    pub fn reset(&mut self) {
        self.sgd.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_testkit::Quadratic;

    fn run_steps(
        method: Method,
        q: &Quadratic,
        x0: Vec<f32>,
        steps: usize,
        lr: f32,
    ) -> (Vec<Tensor>, StepStats) {
        let n = x0.len();
        let mut params = vec![Tensor::from_vec(x0, [n]).unwrap()];
        let mut opt = Optimizer::new(method)
            .with_weight_decay(0.0)
            .with_momentum(0.0);
        let mut oracle = q.oracle();
        let mask = vec![false];
        let mut last = StepStats {
            loss: 0.0,
            grad_norm: 0.0,
            regularizer: 0.0,
            grad_evals: 0,
        };
        for _ in 0..steps {
            last = opt.step(&mut oracle, &mut params, &mask, lr).unwrap();
        }
        (params, last)
    }

    #[test]
    fn every_method_minimizes_a_convex_quadratic() {
        let q = Quadratic::diag(&[1.0, 2.0]);
        for method in [
            Method::Sgd,
            Method::FirstOrderOnly { h: 0.05 },
            Method::GradL1 { lambda: 0.01 },
            Method::Hero {
                h: 0.05,
                gamma: 0.05,
            },
        ] {
            let (params, _) = run_steps(method, &q, vec![1.0, -1.0], 150, 0.1);
            let final_loss = q.loss(&params[0]).unwrap();
            assert!(
                final_loss < 1e-3,
                "{} did not converge: loss {final_loss}",
                method.name()
            );
        }
    }

    #[test]
    fn method_names_and_costs() {
        assert_eq!(Method::Sgd.name(), "SGD");
        assert_eq!(Method::Hero { h: 0.1, gamma: 1.0 }.name(), "HERO");
        // Gradient evaluations (forward+backward passes) one step costs.
        let q = Quadratic::diag(&[1.0, 2.0]);
        for (method, evals) in [
            (Method::Sgd, 1),
            (Method::FirstOrderOnly { h: 0.1 }, 2),
            (Method::GradL1 { lambda: 0.1 }, 2),
            (Method::Hero { h: 0.1, gamma: 1.0 }, 3),
        ] {
            assert_eq!(
                run_steps(method, &q, vec![1.0, -1.0], 1, 0.1).1.grad_evals,
                evals
            );
        }
    }

    #[test]
    fn sgd_step_matches_closed_form() {
        // One plain step on f = 0.5 x^T diag(2,4) x from (1,1), lr 0.1:
        // g = (2,4), x' = (0.8, 0.6).
        let q = Quadratic::diag(&[2.0, 4.0]);
        let (params, stats) = run_steps(Method::Sgd, &q, vec![1.0, 1.0], 1, 0.1);
        assert!((params[0].data()[0] - 0.8).abs() < 1e-6);
        assert!((params[0].data()[1] - 0.6).abs() < 1e-6);
        assert!((stats.loss - 3.0).abs() < 1e-6);
        assert!((stats.grad_norm - (4.0f32 + 16.0).sqrt()).abs() < 1e-5);
    }

    #[test]
    fn weight_decay_respects_mask() {
        // Zero objective: only decay moves the weights.
        let mut oracle = |ps: &[Tensor]| {
            Ok((
                0.0,
                ps.iter()
                    .map(|p| Tensor::zeros(p.shape().clone()))
                    .collect(),
            ))
        };
        let mut params = vec![Tensor::ones([2]), Tensor::ones([2])];
        let mut opt = Optimizer::new(Method::Sgd)
            .with_weight_decay(0.5)
            .with_momentum(0.0);
        opt.step(&mut oracle, &mut params, &[true, false], 1.0)
            .unwrap();
        assert_eq!(params[0].data(), &[0.5, 0.5]); // decayed
        assert_eq!(params[1].data(), &[1.0, 1.0]); // untouched
    }

    #[test]
    fn step_validates_mask_length() {
        let q = Quadratic::diag(&[1.0]);
        let mut opt = Optimizer::new(Method::Sgd);
        let mut params = vec![Tensor::ones([1])];
        assert!(opt.step(&mut q.oracle(), &mut params, &[], 0.1).is_err());
    }

    #[test]
    fn hero_regularizer_reflects_curvature() {
        // On a sharp quadratic the gradient difference G is large; on a
        // flat one it is small. Same starting point and h.
        let sharp = Quadratic::diag(&[50.0, 50.0]);
        let flat = Quadratic::diag(&[0.1, 0.1]);
        let (_, s_sharp) = run_steps(
            Method::Hero { h: 0.1, gamma: 0.0 },
            &sharp,
            vec![1.0, 1.0],
            1,
            1e-6,
        );
        let (_, s_flat) = run_steps(
            Method::Hero { h: 0.1, gamma: 0.0 },
            &flat,
            vec![1.0, 1.0],
            1,
            1e-6,
        );
        assert!(
            s_sharp.regularizer > 100.0 * s_flat.regularizer,
            "sharp G {} vs flat G {}",
            s_sharp.regularizer,
            s_flat.regularizer
        );
    }

    #[test]
    fn grad_l1_regularizer_is_gradient_l1_norm() {
        let q = Quadratic::diag(&[2.0, 4.0]);
        let (_, stats) = run_steps(Method::GradL1 { lambda: 0.0 }, &q, vec![1.0, 1.0], 1, 1e-6);
        // g = (2,4) -> ||g||_1 = 6.
        assert!((stats.regularizer - 6.0).abs() < 1e-4);
    }

    #[test]
    fn hero_prefers_flat_minima_on_a_two_valley_objective() {
        // 1-D objective with a sharp global-equal valley at x=-1 (curvature
        // 100) and a flat valley at x=+1 (curvature 1), equal depth:
        //   f(x) = min valley model via smooth blend. We model it directly:
        //   f(x) = 0.5 * k(x) * (x - m(x))^2 with k,m selected by sign.
        // Gradient oracle implements the piecewise quadratic.
        let mut oracle = |ps: &[Tensor]| {
            let x = ps[0].data()[0];
            let (k, m) = if x < 0.0 { (100.0, -1.0) } else { (1.0, 1.0) };
            let loss = 0.5 * k * (x - m) * (x - m);
            let grad = Tensor::from_vec(vec![k * (x - m)], [1])?;
            Ok((loss, vec![grad]))
        };
        // Start in the sharp valley. HERO's regularizer pushes uphill out of
        // sharp regions when gamma is large enough.
        let mut params = vec![Tensor::from_vec(vec![-0.9], [1]).unwrap()];
        let mut opt = Optimizer::new(Method::Hero {
            h: 0.02,
            gamma: 0.5,
        })
        .with_weight_decay(0.0)
        .with_momentum(0.9);
        let mask = [false];
        for _ in 0..400 {
            opt.step(&mut oracle, &mut params, &mask, 0.01).unwrap();
        }
        let x_hero = params[0].data()[0];
        // Plain SGD stays in the sharp valley.
        let mut params_sgd = vec![Tensor::from_vec(vec![-0.9], [1]).unwrap()];
        let mut sgd = Optimizer::new(Method::Sgd)
            .with_weight_decay(0.0)
            .with_momentum(0.9);
        for _ in 0..400 {
            sgd.step(&mut oracle, &mut params_sgd, &mask, 0.01).unwrap();
        }
        let x_sgd = params_sgd.first().unwrap().data()[0];
        assert!(
            x_sgd < 0.0,
            "SGD should remain in the sharp valley, got {x_sgd}"
        );
        assert!(
            x_hero > 0.0,
            "HERO should escape to the flat valley, got {x_hero}"
        );
    }

    #[test]
    fn momentum_state_survives_across_steps_and_resets() {
        let q = Quadratic::diag(&[1.0]);
        let mut opt = Optimizer::new(Method::Sgd).with_weight_decay(0.0);
        let mut params = vec![Tensor::from_vec(vec![1.0], [1]).unwrap()];
        let mask = [false];
        opt.step(&mut q.oracle(), &mut params, &mask, 0.1).unwrap();
        let after_one = params[0].data()[0];
        opt.reset();
        assert!(after_one < 1.0);
        assert_eq!(opt.method(), Method::Sgd);
    }
}
