//! Correctness suite for the spectrum observatory estimators: SLQ density
//! moments against exact diagonal spectra, per-layer trace consistency,
//! and degenerate-input behaviour of the Lanczos layer (ISSUE 8).

use hero_hessian::{
    hutchinson_trace, lanczos_spectrum_from, layer_traces, slq_density, GradOracle, Quadratic,
    SlqConfig,
};
use hero_tensor::{Result, Tensor};

/// The gradient at `params`, which the estimators take as their shared
/// base gradient.
fn base(oracle: &mut dyn GradOracle, params: &[Tensor]) -> Vec<Tensor> {
    oracle.grad(params).unwrap().1
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
    assert!((d.grid_moment(0) - 1.0).abs() < 0.05);
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
