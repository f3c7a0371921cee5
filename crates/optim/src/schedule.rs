//! Learning-rate schedules.
//!
//! The paper trains every method with a cosine schedule from an initial
//! learning rate of 0.1 (§5.1).

/// A learning-rate schedule mapping a step index to a learning rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Cosine annealing from `lr` to `min_lr` over `total_steps` (the
    /// paper's setting with `min_lr = 0`).
    Cosine {
        /// Initial learning rate.
        lr: f32,
        /// Final learning rate.
        min_lr: f32,
        /// Horizon over which to anneal.
        total_steps: usize,
    },
}

impl LrSchedule {
    /// Learning rate at `step` (0-based). Steps past the horizon clamp to
    /// the final value.
    pub fn at(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::Cosine {
                lr,
                min_lr,
                total_steps,
            } => {
                if total_steps == 0 {
                    return min_lr;
                }
                let t = (step.min(total_steps)) as f32 / total_steps as f32;
                min_lr + 0.5 * (lr - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_starts_high_ends_low() {
        let s = LrSchedule::Cosine {
            lr: 0.1,
            min_lr: 0.0,
            total_steps: 100,
        };
        assert!((s.at(0) - 0.1).abs() < 1e-6);
        assert!((s.at(50) - 0.05).abs() < 1e-6); // halfway is the midpoint
        assert!(s.at(100) < 1e-6);
        assert!(s.at(500) < 1e-6); // clamps past the horizon
    }

    #[test]
    fn cosine_is_monotone_decreasing() {
        let s = LrSchedule::Cosine {
            lr: 0.1,
            min_lr: 0.0,
            total_steps: 200,
        };
        let mut prev = f32::INFINITY;
        for step in 0..=200 {
            let lr = s.at(step);
            assert!(lr <= prev + 1e-7, "lr increased at step {step}");
            prev = lr;
        }
    }

    #[test]
    fn cosine_zero_horizon_is_min() {
        let s = LrSchedule::Cosine {
            lr: 0.1,
            min_lr: 0.01,
            total_steps: 0,
        };
        assert_eq!(s.at(0), 0.01);
    }
}
