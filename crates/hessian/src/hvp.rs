//! Finite-difference Hessian-vector products.
//!
//! HERO's regularizer gradient (Eq. 16) is `2·H(W′)·(∇L(W′) − g)` — a
//! Hessian-vector product. The paper computes it with double
//! backpropagation; this reproduction uses the standard finite-difference
//! estimate `H·v ≈ (∇L(W + ε·v̂) − ∇L(W)) · ‖v‖ / ε`, which costs one extra
//! gradient evaluation (the same cost profile) and avoids needing
//! higher-order autodiff. See DESIGN.md §1 for the substitution note.

use hero_tensor::{global_norm_l2, pool, Result, Tensor, TensorError};

/// A differentiable objective over a list of parameter tensors.
///
/// Implementations return the loss value and the gradient with respect to
/// every parameter (canonical order). This is the only interface the
/// curvature tools need, keeping them independent of any model type.
pub trait GradOracle {
    /// Evaluates loss and gradients at `params`.
    ///
    /// # Errors
    ///
    /// Returns an error if `params` has the wrong arity or shapes.
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)>;

    /// The gradient of parameter tensor `index` alone at `params`, bitwise
    /// equal to tensor `index` of [`GradOracle::grad`]. The default
    /// evaluates every gradient and keeps one; an oracle that can backprop
    /// to a single tensor (skipping the adjoints that never reach it)
    /// overrides it. Such an oracle may also reuse work of an earlier call
    /// that no tensor `index` reaches, but only when the parameters that
    /// work read are bitwise this call's: a caller that moves only tensor
    /// `index` between calls (as `layer_traces` does) lets the work below
    /// it be reused.
    ///
    /// # Errors
    ///
    /// Same contract as [`GradOracle::grad`], plus
    /// [`TensorError::InvalidArgument`] for an `index` out of range.
    fn grad_of(&mut self, params: &[Tensor], index: usize) -> Result<Tensor> {
        let (_, mut grads) = self.grad(params)?;
        if index >= grads.len() {
            return Err(TensorError::InvalidArgument(format!(
                "gradient {index} of {} tensors",
                grads.len()
            )));
        }
        let g = grads.swap_remove(index);
        for t in grads {
            pool::recycle_tensor(t);
        }
        Ok(g)
    }
}

impl<F> GradOracle for F
where
    F: FnMut(&[Tensor]) -> Result<(f32, Vec<Tensor>)>,
{
    fn grad(&mut self, params: &[Tensor]) -> Result<(f32, Vec<Tensor>)> {
        self(params)
    }
}

/// Writes `params + scale * v` into `out`, reusing `out`'s buffers when
/// its shapes already match (the steady-state case in HERO's step loop,
/// where the same workspace is passed every step).
///
/// # Errors
///
/// Returns a shape error if the lists are misaligned.
pub fn perturbed_into(
    params: &[Tensor],
    v: &[Tensor],
    scale: f32,
    out: &mut Vec<Tensor>,
) -> Result<()> {
    if params.len() != v.len() {
        return Err(TensorError::InvalidArgument(format!(
            "{} parameter tensors but {} direction tensors",
            params.len(),
            v.len()
        )));
    }
    let reuse =
        out.len() == params.len() && out.iter().zip(params).all(|(o, p)| o.shape() == p.shape());
    if reuse {
        for (o, p) in out.iter_mut().zip(params) {
            o.copy_from(p)?;
        }
    } else {
        out.clear();
        out.extend(params.iter().cloned());
    }
    for (o, d) in out.iter_mut().zip(v) {
        o.axpy(scale, d)?;
    }
    Ok(())
}

/// Finite-difference Hessian-vector product at `params` along `v`.
///
/// `base_grad` must be the gradient already evaluated at `params` (callers
/// always have it; passing it avoids a redundant backprop). `eps` is the
/// normalized step size. Returns `H·v` with the same shapes as `params`.
///
/// A zero `v` returns zeros without evaluating the oracle.
///
/// # Errors
///
/// Propagates oracle and shape errors.
pub fn fd_hvp(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    base_grad: &[Tensor],
    v: &[Tensor],
    eps: f32,
) -> Result<Vec<Tensor>> {
    let mut shifted = Vec::new();
    let mut out = Vec::new();
    fd_hvp_into(oracle, params, base_grad, v, eps, &mut shifted, &mut out)?;
    for t in shifted.drain(..) {
        pool::recycle_tensor(t);
    }
    Ok(out)
}

/// In-place [`fd_hvp`]: writes `H·v` into `out`, using `shifted` as the
/// workspace for the perturbed parameters. Both vectors are reused across
/// calls — previous contents of `out` are recycled into the scratch pool —
/// so HERO's per-step HVP performs no fresh allocations after warm-up.
///
/// # Errors
///
/// Propagates oracle and shape errors.
pub fn fd_hvp_into(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    base_grad: &[Tensor],
    v: &[Tensor],
    eps: f32,
    shifted: &mut Vec<Tensor>,
    out: &mut Vec<Tensor>,
) -> Result<()> {
    let _obs = hero_obs::span("hvp");
    let norm = global_norm_l2(v);
    if norm <= f32::MIN_POSITIVE {
        let reuse = out.len() == v.len() && out.iter().zip(v).all(|(o, t)| o.shape() == t.shape());
        if reuse {
            for o in out.iter_mut() {
                o.data_mut().fill(0.0);
            }
        } else {
            out.clear();
            out.extend(v.iter().map(|t| Tensor::zeros(t.shape().clone())));
        }
        return Ok(());
    }
    let scale = eps / norm;
    perturbed_into(params, v, scale, shifted)?;
    let (_, grad_shifted) = oracle.grad(shifted)?;
    for t in out.drain(..) {
        pool::recycle_tensor(t);
    }
    out.extend(grad_shifted);
    for (o, g0) in out.iter_mut().zip(base_grad) {
        fd_difference(o, g0, norm, eps)?;
    }
    Ok(())
}

/// The finite-difference quotient in place: turns the gradient `g` at
/// `params + (eps/norm)·v` into `(g − g0) · norm / eps`, the `H·v` block
/// of the tensor `g0` is the base gradient of.
pub(crate) fn fd_difference(g: &mut Tensor, g0: &Tensor, norm: f32, eps: f32) -> Result<()> {
    g.axpy(-1.0, g0)?;
    g.scale_in_place(norm / eps);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_testkit::Quadratic;

    #[test]
    fn perturbed_adds_scaled_direction() {
        let p = vec![Tensor::ones([2]), Tensor::zeros([3])];
        let v = vec![Tensor::full([2], 2.0), Tensor::ones([3])];
        let mut out = Vec::new();
        perturbed_into(&p, &v, 0.5, &mut out).unwrap();
        assert_eq!(out[0].data(), &[2.0, 2.0]);
        assert_eq!(out[1].data(), &[0.5, 0.5, 0.5]);
        assert!(perturbed_into(&p, &v[..1], 1.0, &mut out).is_err());
    }

    #[test]
    fn default_grad_of_keeps_one_tensor_of_grad() {
        let mut oracle = |ps: &[Tensor]| Ok((0.0, ps.iter().map(|p| p.scale(2.0)).collect()));
        let params = vec![Tensor::ones([2]), Tensor::full([3], 3.0)];
        let g = GradOracle::grad_of(&mut oracle, &params, 1).unwrap();
        assert_eq!(g.data(), &[6.0, 6.0, 6.0]);
        assert!(GradOracle::grad_of(&mut oracle, &params, 2).is_err());
    }

    #[test]
    fn fd_hvp_matches_exact_on_quadratic() {
        // For f(x) = 1/2 x^T A x, the Hessian is exactly A everywhere.
        let q = Quadratic::diag(&[1.0, 4.0, 9.0]);
        let params = vec![Tensor::from_vec(vec![0.3, -0.2, 0.5], [3]).unwrap()];
        let mut oracle = q.oracle();
        let (_, g0) = oracle.grad(&params).unwrap();
        let v = vec![Tensor::from_vec(vec![1.0, 1.0, 1.0], [3]).unwrap()];
        let hv = fd_hvp(&mut oracle, &params, &g0, &v, 1e-3).unwrap();
        // H v = [1, 4, 9]
        for (got, want) in hv[0].data().iter().zip(&[1.0, 4.0, 9.0]) {
            assert!((got - want).abs() < 1e-2, "{got} vs {want}");
        }
    }

    #[test]
    fn fd_hvp_scales_linearly_in_v() {
        let q = Quadratic::diag(&[2.0, 3.0]);
        let params = vec![Tensor::zeros([2])];
        let mut oracle = q.oracle();
        let (_, g0) = oracle.grad(&params).unwrap();
        let v = vec![Tensor::from_vec(vec![1.0, -2.0], [2]).unwrap()];
        let hv = fd_hvp(&mut oracle, &params, &g0, &v, 1e-3).unwrap();
        let v2 = vec![v[0].scale(5.0)];
        let hv2 = fd_hvp(&mut oracle, &params, &g0, &v2, 1e-3).unwrap();
        for (a, b) in hv2[0].data().iter().zip(hv[0].data()) {
            assert!((a - 5.0 * b).abs() < 1e-2);
        }
    }

    #[test]
    fn fd_hvp_of_zero_vector_is_zero_without_oracle_calls() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let mut oracle = |_: &[Tensor]| {
            calls.set(calls.get() + 1);
            Ok((0.0, vec![Tensor::zeros([2])]))
        };
        let params = vec![Tensor::zeros([2])];
        let (_, g0) = GradOracle::grad(&mut oracle, &params).unwrap();
        let v = vec![Tensor::zeros([2])];
        let before = calls.get();
        let hv = fd_hvp(&mut oracle, &params, &g0, &v, 1e-3).unwrap();
        assert_eq!(hv[0].data(), &[0.0, 0.0]);
        assert_eq!(calls.get(), before);
    }

    #[test]
    fn fd_hvp_multi_tensor_params() {
        // Two parameter tensors forming a block-diagonal quadratic.
        let q = Quadratic::diag(&[1.0, 2.0, 3.0, 4.0]);
        let mut oracle = move |ps: &[Tensor]| {
            // Concatenate blocks, evaluate, split back.
            let flat: Vec<f32> = ps.iter().flat_map(|t| t.data().iter().copied()).collect();
            let x = vec![Tensor::from_vec(flat, [4])?];
            let (l, g) = q.oracle().grad(&x)?;
            let gd = g[0].data();
            Ok((
                l,
                vec![
                    Tensor::from_vec(gd[..2].to_vec(), [2])?,
                    Tensor::from_vec(gd[2..].to_vec(), [2])?,
                ],
            ))
        };
        let params = vec![Tensor::zeros([2]), Tensor::zeros([2])];
        let (_, g0) = GradOracle::grad(&mut oracle, &params).unwrap();
        let v = vec![Tensor::ones([2]), Tensor::ones([2])];
        let hv = fd_hvp(&mut oracle, &params, &g0, &v, 1e-3).unwrap();
        assert!((hv[0].data()[0] - 1.0).abs() < 1e-2);
        assert!((hv[0].data()[1] - 2.0).abs() < 1e-2);
        assert!((hv[1].data()[0] - 3.0).abs() < 1e-2);
        assert!((hv[1].data()[1] - 4.0).abs() < 1e-2);
    }
}
