//! 2-D loss-surface scans around a weight configuration (Fig. 3).

use hero_tensor::{Result, Tensor, TensorError};

/// A loss evaluator over parameter lists — any closure mapping parameters
/// to a scalar loss.
pub trait LossOracle {
    /// Evaluates the loss at `params`.
    ///
    /// # Errors
    ///
    /// Returns an error for incompatible parameter lists.
    fn loss(&mut self, params: &[Tensor]) -> Result<f32>;
}

impl<F> LossOracle for F
where
    F: FnMut(&[Tensor]) -> Result<f32>,
{
    fn loss(&mut self, params: &[Tensor]) -> Result<f32> {
        self(params)
    }
}

/// A 2-D loss-surface scan over `W + α·d1 + β·d2`.
#[derive(Debug, Clone)]
pub struct SurfaceScan {
    /// Coefficient grid along the first direction (rows).
    pub alphas: Vec<f32>,
    /// Coefficient grid along the second direction (columns).
    pub betas: Vec<f32>,
    /// Loss at each `(alpha, beta)`, row-major `losses[i][j]`.
    pub losses: Vec<Vec<f32>>,
    /// Loss at the centre `(0, 0)`.
    pub center_loss: f32,
}

impl SurfaceScan {
    /// Fraction of grid points whose loss stays within `threshold` of the
    /// centre loss — the "area inside the inner contour" statistic used to
    /// compare Fig. 3(a) vs (b). Larger is flatter.
    pub fn low_loss_fraction(&self, threshold: f32) -> f32 {
        let total: usize = self.losses.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let within = self
            .losses
            .iter()
            .flatten()
            .filter(|&&l| l <= self.center_loss + threshold)
            .count();
        within as f32 / total as f32
    }

    /// The largest coefficient radius `r` such that every grid point with
    /// `max(|α|,|β|) ≤ r` stays within `threshold` of the centre loss.
    pub fn flat_radius(&self, threshold: f32) -> f32 {
        let mut best: f32 = 0.0;
        // Grow r over the sorted distinct grid radii until a point within r
        // exceeds the threshold.
        let mut radii: Vec<f32> = self
            .alphas
            .iter()
            .flat_map(|&a| self.betas.iter().map(move |&b| a.abs().max(b.abs())))
            .collect();
        radii.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
        radii.dedup();
        for &r in &radii {
            let ok = self.alphas.iter().enumerate().all(|(i, &a)| {
                self.betas.iter().enumerate().all(|(j, &b)| {
                    a.abs().max(b.abs()) > r || self.losses[i][j] <= self.center_loss + threshold
                })
            });
            if ok {
                best = r;
            } else {
                break;
            }
        }
        best
    }

    /// Renders the scan as an ASCII contour map (one char per cell):
    /// `#` within `threshold` of centre, `+` within `4×threshold`, `.`
    /// beyond. Useful for eyeballing Fig. 3 shapes in a terminal.
    pub fn ascii_contour(&self, threshold: f32) -> String {
        let mut out = String::new();
        for row in &self.losses {
            for &l in row {
                let d = l - self.center_loss;
                out.push(if d <= threshold {
                    '#'
                } else if d <= 4.0 * threshold {
                    '+'
                } else {
                    '.'
                });
            }
            out.push('\n');
        }
        out
    }
}

/// Evaluates the loss on a symmetric grid `[-radius, radius]²` of
/// `steps × steps` points along two directions.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for an empty grid or misaligned
/// directions, and propagates oracle errors.
pub fn scan_2d(
    oracle: &mut dyn LossOracle,
    params: &[Tensor],
    d1: &[Tensor],
    d2: &[Tensor],
    radius: f32,
    steps: usize,
) -> Result<SurfaceScan> {
    if steps < 2 {
        return Err(TensorError::InvalidArgument(
            "surface scan needs >= 2 steps".into(),
        ));
    }
    if d1.len() != params.len() || d2.len() != params.len() {
        return Err(TensorError::InvalidArgument(
            "directions must align with params".into(),
        ));
    }
    let coeffs: Vec<f32> = (0..steps)
        .map(|i| -radius + 2.0 * radius * i as f32 / (steps - 1) as f32)
        .collect();
    let mut losses = Vec::with_capacity(steps);
    let mut shifted: Vec<Tensor> = params.to_vec();
    for &a in &coeffs {
        let mut row = Vec::with_capacity(steps);
        for &b in &coeffs {
            for ((s, p), (v1, v2)) in shifted.iter_mut().zip(params).zip(d1.iter().zip(d2)) {
                *s = p.clone();
                s.axpy(a, v1)?;
                s.axpy(b, v2)?;
            }
            row.push(oracle.loss(&shifted)?);
        }
        losses.push(row);
    }
    let center_loss = oracle.loss(params)?;
    Ok(SurfaceScan {
        alphas: coeffs.clone(),
        betas: coeffs,
        losses,
        center_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic bowl with controllable curvature per coordinate.
    fn bowl(curv: Vec<f32>) -> impl FnMut(&[Tensor]) -> Result<f32> {
        move |ps: &[Tensor]| {
            let x = &ps[0];
            Ok(x.data()
                .iter()
                .zip(&curv)
                .map(|(&v, &k)| 0.5 * k * v * v)
                .sum())
        }
    }

    #[test]
    fn scan_2d_of_a_bowl_is_symmetric_with_center_minimum() {
        let params = vec![Tensor::zeros([2])];
        let d1 = vec![Tensor::from_vec(vec![1.0, 0.0], [2]).unwrap()];
        let d2 = vec![Tensor::from_vec(vec![0.0, 1.0], [2]).unwrap()];
        let mut oracle = bowl(vec![2.0, 2.0]);
        let scan = scan_2d(&mut oracle, &params, &d1, &d2, 1.0, 5).unwrap();
        assert_eq!(scan.losses.len(), 5);
        assert_eq!(scan.center_loss, 0.0);
        // Centre cell is the minimum.
        assert_eq!(scan.losses[2][2], 0.0);
        // Four corners are equal by symmetry.
        assert!((scan.losses[0][0] - scan.losses[4][4]).abs() < 1e-6);
        assert!((scan.losses[0][4] - scan.losses[4][0]).abs() < 1e-6);
        // Corner loss = 0.5*2*(1+1) = 2.
        assert!((scan.losses[0][0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn flat_bowl_has_larger_low_loss_fraction() {
        let params = vec![Tensor::zeros([2])];
        let d1 = vec![Tensor::from_vec(vec![1.0, 0.0], [2]).unwrap()];
        let d2 = vec![Tensor::from_vec(vec![0.0, 1.0], [2]).unwrap()];
        let sharp = scan_2d(&mut bowl(vec![50.0, 50.0]), &params, &d1, &d2, 1.0, 11).unwrap();
        let flat = scan_2d(&mut bowl(vec![0.5, 0.5]), &params, &d1, &d2, 1.0, 11).unwrap();
        let thr = 0.1;
        assert!(flat.low_loss_fraction(thr) > sharp.low_loss_fraction(thr));
        assert!(flat.flat_radius(thr) > sharp.flat_radius(thr));
    }

    #[test]
    fn flat_radius_matches_analytic_bowl() {
        // loss = 0.5*k*(a^2+b^2); within threshold t along the worst corner
        // (a=b=r): k r^2 <= t. k=2, t=0.5 -> r <= 0.5.
        let params = vec![Tensor::zeros([2])];
        let d1 = vec![Tensor::from_vec(vec![1.0, 0.0], [2]).unwrap()];
        let d2 = vec![Tensor::from_vec(vec![0.0, 1.0], [2]).unwrap()];
        let scan = scan_2d(&mut bowl(vec![2.0, 2.0]), &params, &d1, &d2, 1.0, 21).unwrap();
        let r = scan.flat_radius(0.5);
        assert!((r - 0.5).abs() <= 0.1, "flat radius {r}");
    }

    #[test]
    fn ascii_contour_marks_flat_center() {
        let params = vec![Tensor::zeros([2])];
        let d1 = vec![Tensor::from_vec(vec![1.0, 0.0], [2]).unwrap()];
        let d2 = vec![Tensor::from_vec(vec![0.0, 1.0], [2]).unwrap()];
        let scan = scan_2d(&mut bowl(vec![8.0, 8.0]), &params, &d1, &d2, 1.0, 7).unwrap();
        let art = scan.ascii_contour(0.2);
        assert_eq!(art.lines().count(), 7);
        let center_row: Vec<&str> = art.lines().collect();
        assert!(center_row[3].contains('#'));
        assert!(art.contains('.'));
    }

    #[test]
    fn scan_validates_arguments() {
        let params = vec![Tensor::zeros([1])];
        let d = vec![Tensor::ones([1])];
        assert!(scan_2d(&mut bowl(vec![1.0]), &params, &d, &d, 1.0, 1).is_err());
        assert!(scan_2d(&mut bowl(vec![1.0]), &params, &[], &d, 1.0, 3).is_err());
    }
}
