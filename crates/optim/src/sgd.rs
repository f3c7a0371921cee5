//! SGD-with-momentum parameter updates.

use hero_tensor::{Result, Tensor, TensorError};

/// Momentum state for SGD, one buffer per parameter tensor.
///
/// The update is the classic heavy-ball form the paper (and PyTorch) uses:
/// `v ← μ·v + ∇` followed by `W ← W − η·v`, with μ = 0.9 in §5.1.
#[derive(Debug, Clone)]
pub struct SgdState {
    momentum: f32,
    buffers: Option<Vec<Tensor>>,
}

impl SgdState {
    /// Creates a state with the given momentum coefficient. Buffers are
    /// allocated lazily on the first update.
    pub fn new(momentum: f32) -> Self {
        SgdState {
            momentum,
            buffers: None,
        }
    }

    /// Applies one update in place: `v ← μv + g`, `p ← p − η·v` for every
    /// (parameter, gradient) pair.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `params` and `grads` are misaligned or the
    /// shapes changed since the buffers were created.
    pub fn update(&mut self, params: &mut [Tensor], grads: &[Tensor], lr: f32) -> Result<()> {
        if params.len() != grads.len() {
            return Err(TensorError::InvalidArgument(format!(
                "{} params but {} grads",
                params.len(),
                grads.len()
            )));
        }
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                p.axpy(-lr, g)?;
            }
            return Ok(());
        }
        let buffers = self.buffers.get_or_insert_with(|| {
            grads
                .iter()
                .map(|g| Tensor::zeros(g.shape().clone()))
                .collect()
        });
        if buffers.len() != grads.len() {
            return Err(TensorError::InvalidArgument(format!(
                "momentum buffers ({}) do not match gradients ({})",
                buffers.len(),
                grads.len()
            )));
        }
        for ((p, g), v) in params.iter_mut().zip(grads).zip(buffers.iter_mut()) {
            v.scale_in_place(self.momentum);
            v.axpy(1.0, g)?;
            p.axpy(-lr, v)?;
        }
        Ok(())
    }

    /// Clears the momentum buffers (e.g. when restarting training).
    pub fn reset(&mut self) {
        self.buffers = None;
    }

    /// The momentum buffers, if they have been materialized. Buffers are
    /// created lazily on the first non-zero-momentum step, so `None`
    /// also describes a freshly constructed state.
    pub fn buffers(&self) -> Option<&[Tensor]> {
        self.buffers.as_deref()
    }

    /// Installs previously captured momentum buffers (checkpoint
    /// resume). Passing an empty vector clears them, matching a state
    /// that never stepped.
    pub fn set_buffers(&mut self, buffers: Vec<Tensor>) {
        self.buffers = if buffers.is_empty() {
            None
        } else {
            Some(buffers)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_momentum_is_plain_gradient_descent() {
        let mut s = SgdState::new(0.0);
        let mut p = vec![Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap()];
        let g = vec![Tensor::from_vec(vec![0.5, -0.5], [2]).unwrap()];
        s.update(&mut p, &g, 0.1).unwrap();
        assert_eq!(p[0].data(), &[0.95, 2.05]);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut s = SgdState::new(0.9);
        let mut p = vec![Tensor::zeros([1])];
        let g = vec![Tensor::ones([1])];
        s.update(&mut p, &g, 1.0).unwrap();
        assert_eq!(p[0].data(), &[-1.0]); // v = 1
        s.update(&mut p, &g, 1.0).unwrap();
        assert!((p[0].data()[0] - (-2.9)).abs() < 1e-6); // v = 1.9
        s.update(&mut p, &g, 1.0).unwrap();
        assert!((p[0].data()[0] - (-5.61)).abs() < 1e-5); // v = 2.71
    }

    #[test]
    fn reset_clears_velocity() {
        let mut s = SgdState::new(0.9);
        let mut p = vec![Tensor::zeros([1])];
        let g = vec![Tensor::ones([1])];
        s.update(&mut p, &g, 1.0).unwrap();
        s.reset();
        let mut p2 = vec![Tensor::zeros([1])];
        s.update(&mut p2, &g, 1.0).unwrap();
        assert_eq!(p2[0].data(), &[-1.0]); // no residual velocity
        assert_eq!(s.momentum, 0.9);
    }

    #[test]
    fn update_validates_alignment() {
        let mut s = SgdState::new(0.9);
        let mut p = vec![Tensor::zeros([2])];
        assert!(s.update(&mut p, &[], 0.1).is_err());
        let g = vec![Tensor::zeros([3])];
        assert!(s.update(&mut p, &g, 0.1).is_err());
    }

    #[test]
    fn momentum_descends_quadratic_faster_than_plain() {
        // Minimize f(x) = 0.5 * x^2 from x = 1; compare 20 steps.
        let run = |momentum: f32| {
            let mut s = SgdState::new(momentum);
            let mut p = vec![Tensor::from_vec(vec![1.0], [1]).unwrap()];
            for _ in 0..20 {
                let g = vec![p[0].clone()]; // grad = x
                s.update(&mut p, &g, 0.05).unwrap();
            }
            p[0].data()[0].abs()
        };
        assert!(run(0.9) < run(0.0));
    }
}
