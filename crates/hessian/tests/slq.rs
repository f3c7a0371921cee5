//! Correctness suite for the spectrum observatory estimators: SLQ density
//! moments against exact diagonal spectra, per-layer trace consistency
//! against the global Hutchinson trace, and degenerate-input behaviour of
//! the Lanczos layer.

use hero_hessian::{
    fd_hvp_into, lanczos_spectrum_from, layer_traces, probe_seed, slq_density, Estimate,
    GradOracle, SlqConfig, SlqDensity,
};
use hero_tensor::rng::{Rng, StdRng};
use hero_tensor::{global_dot, Result, Tensor, TensorError};
use hero_testkit::Quadratic;

/// The gradient at `params`, which the estimators take as their shared
/// base gradient.
fn base(oracle: &mut dyn GradOracle, params: &[Tensor]) -> Vec<Tensor> {
    oracle.grad(params).unwrap().1
}

/// Hutchinson estimate of the whole Hessian's trace, `E_z[zᵀHz]` over
/// Rademacher probes, one gradient evaluation each; probe `i` draws from
/// [`probe_seed`]`(seed, i)`. The reference `layer_traces` is held
/// against: its per-tensor traces sum to this one.
fn hutchinson_trace(
    oracle: &mut dyn GradOracle,
    params: &[Tensor],
    probes: usize,
    eps: f32,
    seed: u64,
) -> Result<Estimate> {
    if probes == 0 {
        return Err(TensorError::InvalidArgument(
            "hutchinson_trace needs at least one probe".into(),
        ));
    }
    let (_, grads) = oracle.grad(params)?;
    let mut z: Vec<Tensor> = params
        .iter()
        .map(|p| Tensor::zeros(p.shape().clone()))
        .collect();
    let (mut shifted, mut hz) = (Vec::new(), Vec::new());
    let mut samples = Vec::with_capacity(probes);
    for i in 0..probes {
        let mut rng = StdRng::seed_from_u64(probe_seed(seed, i));
        for v in z.iter_mut().flat_map(|t| t.data_mut()) {
            *v = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        }
        fd_hvp_into(oracle, params, &grads, &z, eps, &mut shifted, &mut hz)?;
        samples.push(global_dot(&z, &hz));
    }
    Ok(Estimate::from_samples(&samples))
}

/// Trapezoid-rule integral of `λᵖ · ρ(λ)` over the density grid: about 1
/// at `p = 0`; at `p = 1, 2` it tracks the spectral mean and the second
/// moment up to broadening (which inflates the second moment by exactly
/// σ²).
fn grid_moment(d: &SlqDensity, p: u32) -> f32 {
    let n = d.grid.len();
    if n < 2 {
        return f32::NAN;
    }
    let mut acc = 0.0f64;
    for i in 0..n - 1 {
        let dl = (d.grid[i + 1] - d.grid[i]) as f64;
        let fa = (d.grid[i].powi(p as i32) * d.density[i]) as f64;
        let fb = (d.grid[i + 1].powi(p as i32) * d.density[i + 1]) as f64;
        acc += 0.5 * (fa + fb) * dl;
    }
    acc as f32
}

/// Exact spectrum {0.5, 1, 2, 4, 8, 16}: checks every density moment the
/// observatory reports against closed-form values.
#[test]
fn slq_moments_match_exact_eigenvalues() {
    let eigs = [0.5f32, 1.0, 2.0, 4.0, 8.0, 16.0];
    let q = Quadratic::diag(&eigs);
    let params = vec![Tensor::zeros([6])];
    let cfg = SlqConfig {
        steps: 6,
        probes: 24,
        seed: 3,
        ..SlqConfig::default()
    };
    let mut oracle = q.oracle();
    let g = base(&mut oracle, &params);
    let d = slq_density(&mut oracle, &params, &g, cfg).unwrap();

    let n = eigs.len() as f32;
    let exact_mean: f32 = eigs.iter().sum::<f32>() / n;
    let exact_second: f32 = eigs.iter().map(|l| l * l).sum::<f32>() / n;
    assert!(
        (d.lambda_max.mean - 16.0).abs() < 0.3,
        "λmax {} ± {}",
        d.lambda_max.mean,
        d.lambda_max.std_error
    );
    assert!((d.lambda_min.mean - 0.5).abs() < 0.3);
    assert!(
        (d.mean_eigenvalue.mean - exact_mean).abs() < 0.8,
        "tr/n {} vs {exact_mean}",
        d.mean_eigenvalue.mean
    );
    assert!(
        (d.second_moment.mean - exact_second).abs() < 0.2 * exact_second,
        "Σλ²/n {} vs {exact_second}",
        d.second_moment.mean
    );
    // Every estimate carries a finite standard error from 24 probes.
    for e in [
        d.lambda_max,
        d.lambda_min,
        d.mean_eigenvalue,
        d.second_moment,
    ] {
        assert_eq!(e.samples, 24);
        assert!(e.std_error.is_finite());
    }
    // The broadened grid is a normalized density.
    assert!((grid_moment(&d, 0) - 1.0).abs() < 0.05);
}

/// Splits a flat 6-dim quadratic into three "layers" of 2 params each.
fn layered_oracle(eigs: &'static [f32]) -> impl FnMut(&[Tensor]) -> Result<(f32, Vec<Tensor>)> {
    move |ps: &[Tensor]| {
        let q = Quadratic::diag(eigs);
        let flat: Vec<f32> = ps.iter().flat_map(|t| t.data().iter().copied()).collect();
        let x = vec![Tensor::from_vec(flat, [eigs.len()])?];
        let (l, g) = q.oracle().grad(&x)?;
        let gd = g[0].data();
        let mut out = Vec::new();
        let mut off = 0;
        for p in ps {
            let len = p.numel();
            out.push(Tensor::from_vec(gd[off..off + len].to_vec(), [len])?);
            off += len;
        }
        Ok((l, out))
    }
}

#[test]
fn layer_traces_sum_to_global_trace() {
    static EIGS: [f32; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let mut oracle = layered_oracle(&EIGS);
    let params = vec![Tensor::zeros([2]), Tensor::zeros([2]), Tensor::zeros([2])];
    let g = base(&mut oracle, &params);
    let per_layer = layer_traces(&mut oracle, &params, &g, 4, 1e-3, 11).unwrap();
    assert_eq!(per_layer.len(), 3);
    // Diagonal blocks: traces 3, 7, 11 (exact under Rademacher probes).
    for (t, want) in per_layer.iter().zip(&[3.0f32, 7.0, 11.0]) {
        assert!((t.mean - want).abs() < 0.05, "{t:?} vs {want}");
    }
    let total: f32 = per_layer.iter().map(|t| t.mean).sum();
    let global = hutchinson_trace(&mut oracle, &params, 4, 1e-3, 11).unwrap();
    assert!(
        (total - global.mean).abs() < 0.1,
        "layer sum {total} vs global {}",
        global.mean
    );
}

#[test]
fn lanczos_handles_repeated_eigenvalues() {
    // Spectrum {2, 2, 2, 5}: full reorthogonalization must not mint ghost
    // copies — the Krylov space has dimension 2, so iteration breaks down
    // early and reports exactly the two distinct eigenvalues.
    let q = Quadratic::diag(&[2.0, 2.0, 2.0, 5.0]);
    let params = vec![Tensor::zeros([4])];
    let v0 = vec![Tensor::from_vec(vec![0.5; 4], [4]).unwrap()];
    let mut oracle = q.oracle();
    let g = base(&mut oracle, &params);
    let res = lanczos_spectrum_from(&mut oracle, &params, &g, &v0, 4, 1e-3).unwrap();
    assert!(res.steps <= 2, "Krylov dim 2, ran {} steps", res.steps);
    assert!(
        (res.lambda_min() - 2.0).abs() < 0.05,
        "{}",
        res.lambda_min()
    );
    assert!(
        (res.lambda_max() - 5.0).abs() < 0.05,
        "{}",
        res.lambda_max()
    );
    assert!(res.ritz_values.iter().all(|v| v.is_finite()));
    let wsum: f32 = res.weights.iter().sum();
    assert!((wsum - 1.0).abs() < 1e-3);
}

#[test]
fn lanczos_steps_beyond_dimension_break_down_cleanly() {
    // k > dim: the Krylov space is exhausted after `dim` steps; the run
    // must stop early with finite Ritz values, not a NaN tridiagonal.
    let q = Quadratic::diag(&[1.0, 4.0, 9.0]);
    let params = vec![Tensor::zeros([3])];
    let v0 = vec![Tensor::from_vec(vec![1.0, 1.0, 1.0], [3]).unwrap()];
    let mut oracle = q.oracle();
    let g = base(&mut oracle, &params);
    let res = lanczos_spectrum_from(&mut oracle, &params, &g, &v0, 12, 1e-3).unwrap();
    assert!(res.steps <= 3, "dim 3, ran {} steps", res.steps);
    assert!(res.ritz_values.iter().all(|v| v.is_finite()));
    assert!((res.lambda_max() - 9.0).abs() < 0.1);
    assert!((res.lambda_min() - 1.0).abs() < 0.1);
}

#[test]
fn lanczos_zero_probe_is_a_clean_error() {
    let q = Quadratic::diag(&[1.0, 2.0]);
    let params = vec![Tensor::zeros([2])];
    let v0 = vec![Tensor::zeros([2])];
    let mut oracle = q.oracle();
    let g = base(&mut oracle, &params);
    let err = lanczos_spectrum_from(&mut oracle, &params, &g, &v0, 2, 1e-3).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("norm"), "unexpected error: {msg}");
}

#[test]
fn lanczos_non_finite_probe_is_a_clean_error() {
    let q = Quadratic::diag(&[1.0, 2.0]);
    let params = vec![Tensor::zeros([2])];
    let v0 = vec![Tensor::from_vec(vec![f32::NAN, 1.0], [2]).unwrap()];
    let mut oracle = q.oracle();
    let g = base(&mut oracle, &params);
    assert!(lanczos_spectrum_from(&mut oracle, &params, &g, &v0, 2, 1e-3).is_err());
}

#[test]
fn lanczos_nan_gradients_are_a_clean_error() {
    // An oracle that returns NaN gradients must surface as an error, not
    // as NaN Ritz values.
    let mut oracle = |ps: &[Tensor]| {
        Ok((
            f32::NAN,
            vec![Tensor::from_vec(
                vec![f32::NAN; ps[0].numel()],
                [ps[0].numel()],
            )?],
        ))
    };
    let params = vec![Tensor::zeros([2])];
    let v0 = vec![Tensor::from_vec(vec![1.0, 0.0], [2]).unwrap()];
    let g = base(&mut oracle, &params);
    let err = lanczos_spectrum_from(&mut oracle, &params, &g, &v0, 2, 1e-3).unwrap_err();
    assert!(format!("{err}").contains("non-finite"));
}

#[test]
fn grid_density_is_normalized_and_tracks_moments() {
    let q = Quadratic::diag(&[1.0, 3.0, 8.0]);
    let params = vec![Tensor::zeros([3])];
    let cfg = SlqConfig {
        steps: 3,
        probes: 8,
        grid_points: 256,
        ..SlqConfig::default()
    };
    let mut oracle = q.oracle();
    let g = base(&mut oracle, &params);
    let d = slq_density(&mut oracle, &params, &g, cfg).unwrap();
    assert!(
        (grid_moment(&d, 0) - 1.0).abs() < 0.02,
        "{}",
        grid_moment(&d, 0)
    );
    assert!(
        (grid_moment(&d, 1) - d.mean_eigenvalue.mean).abs() < 0.2,
        "grid {} vs quadrature {}",
        grid_moment(&d, 1),
        d.mean_eigenvalue.mean
    );
    // Broadening inflates the second grid moment by exactly σ².
    let expect2 = d.second_moment.mean + d.sigma * d.sigma;
    assert!((grid_moment(&d, 2) - expect2).abs() < 0.8);
}

#[test]
fn hutchinson_trace_of_diagonal() {
    // Rademacher probes square to 1, so zᵀHz = Σ Hₖₖ exactly for a
    // diagonal Hessian: every sample equals the trace.
    let q = Quadratic::diag(&[1.0, 2.0, 3.0]);
    let mut oracle = q.oracle();
    let params = vec![Tensor::zeros([3])];
    let tr = hutchinson_trace(&mut oracle, &params, 8, 1e-3, 5).unwrap();
    assert!((tr.mean - 6.0).abs() < 0.1, "trace={}", tr.mean);
    assert_eq!(tr.samples, 8);
    assert!(tr.std_error.is_finite() && tr.std_error < 0.1);
}

#[test]
fn hutchinson_trace_is_seed_reproducible() {
    // Off-diagonal Hessian [[0,1],[1,0]]: zᵀHz = 2·z₀z₁ = ±2, so the
    // estimate genuinely depends on the probe signs (on a diagonal
    // Hessian every Rademacher probe is exact and seeds are invisible).
    let mut oracle = |ps: &[Tensor]| {
        let d = ps[0].data();
        Ok((d[0] * d[1], vec![Tensor::from_vec(vec![d[1], d[0]], [2])?]))
    };
    let params = vec![Tensor::zeros([2])];
    let a = hutchinson_trace(&mut oracle, &params, 3, 1e-3, 9).unwrap();
    let b = hutchinson_trace(&mut oracle, &params, 3, 1e-3, 9).unwrap();
    assert_eq!(a, b, "same seed must reproduce bitwise");
    let others: Vec<f32> = (0..16)
        .map(|s| {
            hutchinson_trace(&mut oracle, &params, 3, 1e-3, s)
                .unwrap()
                .mean
        })
        .collect();
    assert!(
        others.iter().any(|&m| m != a.mean),
        "seed changes never alter the estimate"
    );
}

#[test]
fn hutchinson_trace_rejects_zero_probes() {
    let q = Quadratic::diag(&[1.0]);
    let params = vec![Tensor::zeros([1])];
    assert!(hutchinson_trace(&mut q.oracle(), &params, 0, 1e-3, 0).is_err());
}

#[test]
fn layer_traces_of_block_diagonal() {
    // Two parameter tensors over a block-diagonal quadratic: each
    // masked probe recovers its block's trace exactly (diagonal H).
    let q = Quadratic::diag(&[1.0, 2.0, 3.0, 4.0]);
    let mut oracle = move |ps: &[Tensor]| {
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
    let (_, base) = oracle(&params).unwrap();
    let traces = layer_traces(&mut oracle, &params, &base, 4, 1e-3, 7).unwrap();
    assert_eq!(traces.len(), 2);
    assert!((traces[0].mean - 3.0).abs() < 0.05, "{:?}", traces[0]);
    assert!((traces[1].mean - 7.0).abs() < 0.05, "{:?}", traces[1]);
    // Per-layer traces sum to the global trace.
    let total: f32 = traces.iter().map(|t| t.mean).sum();
    let global = hutchinson_trace(&mut oracle, &params, 4, 1e-3, 7).unwrap();
    assert!((total - global.mean).abs() < 0.1, "{total} vs {global:?}");
}
