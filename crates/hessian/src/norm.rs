//! The paper's curvature probe ‖Hz‖ (Fig. 2a) and the per-layer
//! Hutchinson trace estimator.

use crate::hvp::{fd_difference, fd_hvp, GradOracle};
use crate::stats::{probe_seed, Estimate};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{global_norm_l2, pool, Result, Tensor, TensorError};

/// Computes the paper's layer-scaled perturbation direction (Eq. 15):
/// `z_i = (W_i ⊙ W_i ⊙ g_i) / (‖W_i‖₂ · ‖g_i‖₂)` per parameter tensor,
/// with `W_i ⊙ W_i` the element-wise square.
///
/// The element-wise `W²` factor perturbs large-magnitude weights more
/// (adapting to each layer's weight distribution, §4.1) and is what makes
/// the paper's step sizes `h = 0.5 / 1.0` well-scaled: the resulting `z`
/// has norm well below ‖W‖.
///
/// Layers with a vanishing weight or gradient norm get a zero direction
/// (no perturbation) rather than a division by zero.
///
/// # Panics
///
/// Panics if the lists have different lengths (they always come from the
/// same canonical parameter order).
pub fn layer_scaled_direction(params: &[Tensor], grads: &[Tensor]) -> Vec<Tensor> {
    let mut out = Vec::with_capacity(params.len());
    layer_scaled_direction_into(params, grads, &mut out);
    out
}

/// In-place [`layer_scaled_direction`]: writes `z` into `out`, reusing its
/// buffers when the shapes already match so HERO's per-step direction
/// computation allocates nothing after warm-up.
///
/// # Panics
///
/// Panics if the lists have different lengths (they always come from the
/// same canonical parameter order).
pub fn layer_scaled_direction_into(params: &[Tensor], grads: &[Tensor], out: &mut Vec<Tensor>) {
    assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
    let reuse =
        out.len() == params.len() && out.iter().zip(params).all(|(o, p)| o.shape() == p.shape());
    if !reuse {
        out.clear();
        out.extend(params.iter().map(|p| Tensor::zeros(p.shape().clone())));
    }
    for ((w, g), z) in params.iter().zip(grads).zip(out.iter_mut()) {
        let gn = g.norm_l2();
        let wn = w.norm_l2();
        if gn <= f32::MIN_POSITIVE || wn <= f32::MIN_POSITIVE {
            z.data_mut().fill(0.0);
        } else {
            let inv = 1.0 / (wn * gn);
            for ((zd, &wd), &gd) in z.data_mut().iter_mut().zip(w.data()).zip(g.data()) {
                *zd = wd * wd * gd * inv;
            }
        }
    }
}

/// Evaluates the Hessian-norm probe ‖Hz‖₂ the paper plots in Fig. 2(a),
/// with `z` the layer-scaled gradient direction of Eq. 15.
///
/// Returns `(‖Hz‖₂, loss)` at `params`.
///
/// # Errors
///
/// Propagates oracle and shape errors.
pub fn hessian_norm_probe(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    eps: f32,
) -> Result<(f32, f32)> {
    let _obs = hero_obs::span("probe");
    let (loss, grads) = oracle.grad(params)?;
    let z = layer_scaled_direction(params, &grads);
    let hz = fd_hvp(oracle, params, &grads, &z, eps)?;
    Ok((global_norm_l2(&hz), loss))
}

/// Fills `t` with Rademacher (±1) entries drawn from `rng`.
fn fill_rademacher(t: &mut Tensor, rng: &mut impl Rng) {
    for v in t.data_mut() {
        *v = if rng.gen::<bool>() { 1.0 } else { -1.0 };
    }
}

/// Per-parameter-tensor Hutchinson traces via *layer-masked* probes: for
/// layer `i` the probe is Rademacher on that tensor and zero elsewhere, so
/// `zᵀ(Hz)` estimates `tr(H_ii)` — the diagonal block's trace — with no
/// cross-layer noise. One gradient evaluation per `(layer, probe)` pair,
/// and each asks for its own tensor only ([`GradOracle::grad_of`]): the
/// sample `zᵢᵀ(Hz)ᵢ` reads no other block of `H·z`, so an oracle that
/// backprops only to tensor `i` skips the adjoints that never reach it.
/// That pruning is bitwise exact — every adjoint on a path to tensor `i`
/// receives the same contributions in the same order — so the estimates do
/// not depend on whether the oracle prunes. The finite-difference quotient
/// is [`crate::fd_hvp_into`]'s, with the step normalized by `‖z‖` over
/// the whole masked list.
///
/// The tensors are swept from the last to the first, so that every probe
/// differs from `params` in its own tensor only and the tensors below it
/// are bitwise `params`: an oracle that reuses the work below the probed
/// tensor (`hero_optim::BatchOracle`) then restarts each probe at that
/// tensor's own layer. Each `(layer, probe)` cell draws from its own seed,
/// so the order changes no estimate.
///
/// The estimates are unbiased and sum to the global Hessian trace, which
/// is the HeRo-Q quantization-sensitivity proxy this repo cross-checks
/// against the certified static `SensitivityMatrix`.
///
/// `base_grad` is `∇L(params)`, which the finite-difference HVPs difference
/// against (callers share it with other estimators at the same point).
/// Returns one [`Estimate`] per parameter tensor, in canonical order.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for zero probes and
/// propagates oracle and shape errors.
pub fn layer_traces(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    base_grad: &[Tensor],
    probes: usize,
    eps: f32,
    seed: u64,
) -> Result<Vec<Estimate>> {
    if probes == 0 {
        return Err(TensorError::InvalidArgument(
            "layer_traces needs at least one probe".into(),
        ));
    }
    if base_grad.len() != params.len() {
        return Err(TensorError::InvalidArgument(format!(
            "{} parameter tensors but {} base gradients",
            params.len(),
            base_grad.len()
        )));
    }
    let _obs = hero_obs::span("layer_traces");
    let mut z: Vec<Tensor> = params
        .iter()
        .map(|p| Tensor::zeros(p.shape().clone()))
        .collect();
    // `params + (ε/‖z‖)·z` differs from `params` in the probed tensor
    // only, and the other tensors stay bitwise `params` (adding a zero
    // step would turn a `-0.0` into `+0.0`), which is what lets an oracle
    // reuse the work below the probed tensor.
    let mut shifted = params.to_vec();
    let mut out = Vec::with_capacity(params.len());
    for layer in (0..params.len()).rev() {
        let mut samples = Vec::with_capacity(probes);
        for probe in 0..probes {
            // One independent stream per (layer, probe) cell.
            let cell = probe_seed(seed, layer * probes + probe);
            let mut rng = StdRng::seed_from_u64(cell);
            fill_rademacher(&mut z[layer], &mut rng);
            let hvp = hero_obs::span("hvp");
            let norm = global_norm_l2(&z);
            if norm <= f32::MIN_POSITIVE {
                // An empty tensor: its block of H·z is empty too.
                samples.push(0.0);
                continue;
            }
            shifted[layer].copy_from(&params[layer])?;
            shifted[layer].axpy(eps / norm, &z[layer])?;
            // Only the masked block contributes, z being zero off-layer,
            // so only that block of H·z is evaluated.
            let mut hz = oracle.grad_of(&shifted, layer)?;
            fd_difference(&mut hz, &base_grad[layer], norm, eps)?;
            drop(hvp);
            samples.push(z[layer].dot(&hz)?);
            pool::recycle_tensor(hz);
        }
        shifted[layer].copy_from(&params[layer])?;
        z[layer].data_mut().fill(0.0);
        out.push(Estimate::from_samples(&samples));
    }
    for t in shifted {
        pool::recycle_tensor(t);
    }
    out.reverse();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_testkit::Quadratic;

    #[test]
    fn layer_scaled_direction_matches_eq15() {
        let w = vec![Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap()]; // ||w|| = 5
        let g = vec![Tensor::from_vec(vec![0.0, 2.0], [2]).unwrap()]; // ||g|| = 2
        let z = layer_scaled_direction(&w, &g);
        // z = (w^2 ⊙ g) / (||w|| ||g||) = [9*0, 16*2] / 10 = [0, 3.2]
        assert_eq!(z[0].data(), &[0.0, 3.2]);
    }

    #[test]
    fn direction_scales_quadratically_with_weight_magnitude() {
        // Doubling W quadruples W² but only doubles ||W||: z doubles.
        let w1 = vec![Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap()];
        let w2 = vec![w1[0].scale(2.0)];
        let g = vec![Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap()];
        let z1 = layer_scaled_direction(&w1, &g);
        let z2 = layer_scaled_direction(&w2, &g);
        for (a, b) in z2[0].data().iter().zip(z1[0].data()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_gradient_layer_gets_zero_direction() {
        let w = vec![Tensor::ones([2]), Tensor::ones([2])];
        let g = vec![Tensor::zeros([2]), Tensor::ones([2])];
        let z = layer_scaled_direction(&w, &g);
        assert_eq!(z[0].data(), &[0.0, 0.0]);
        assert!(z[1].norm_l2() > 0.0);
    }

    #[test]
    fn hessian_norm_probe_on_quadratic() {
        // H = diag(2, 2), x0 = (3,4): g = (6,8), ||w||·||g|| = 50,
        // z = (9·6, 16·8)/50 = (1.08, 2.56), Hz = (2.16, 5.12), ||Hz|| ≈ 5.557.
        let q = Quadratic::diag(&[2.0, 2.0]);
        let mut oracle = q.oracle();
        let params = vec![Tensor::from_vec(vec![3.0, 4.0], [2]).unwrap()];
        let (hn, loss) = hessian_norm_probe(&mut oracle, &params, 1e-3).unwrap();
        let expected = (2.16f32 * 2.16 + 5.12 * 5.12).sqrt();
        assert!(
            (hn - expected).abs() < 0.05,
            "‖Hz‖={hn}, expected {expected}"
        );
        assert!((loss - 25.0).abs() < 1e-4);
    }

    #[test]
    fn layer_traces_rejects_zero_probes() {
        let q = Quadratic::diag(&[1.0]);
        let params = vec![Tensor::zeros([1])];
        let mut oracle = q.oracle();
        let (_, base) = oracle(&params).unwrap();
        assert!(layer_traces(&mut oracle, &params, &base, 0, 1e-3, 0).is_err());
    }

    #[test]
    fn flatter_quadratic_has_smaller_probe() {
        // The probe must rank curvature correctly — this ordering is what
        // Fig. 2(a) relies on.
        let sharp = Quadratic::diag(&[10.0, 10.0]);
        let flat = Quadratic::diag(&[0.5, 0.5]);
        let params = vec![Tensor::from_vec(vec![1.0, 1.0], [2]).unwrap()];
        let (hn_sharp, _) = hessian_norm_probe(&mut sharp.oracle(), &params, 1e-3).unwrap();
        let (hn_flat, _) = hessian_norm_probe(&mut flat.oracle(), &params, 1e-3).unwrap();
        assert!(hn_sharp > hn_flat * 10.0);
    }
}
