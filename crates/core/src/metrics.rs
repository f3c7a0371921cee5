//! Per-epoch metrics and whole-run records.

use crate::spectrum::SpectrumProbe;

/// Metrics collected at the end of one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f32,
    /// Training-set accuracy (evaluated when the test set is evaluated).
    pub train_acc: f32,
    /// Test-set accuracy (NaN when not evaluated this epoch).
    pub test_acc: f32,
    /// ‖Hz‖ curvature probe (NaN when not probed this epoch).
    pub hessian_norm: f32,
    /// Mean of the method's regularizer statistic over the epoch.
    pub regularizer: f32,
}

impl EpochMetrics {
    /// Generalization gap `train_acc − test_acc` (NaN when the test set was
    /// not evaluated).
    pub fn generalization_gap(&self) -> f32 {
        self.train_acc - self.test_acc
    }

    /// True when both accuracies were actually measured this epoch, so the
    /// gap is a number rather than NaN arithmetic.
    pub fn gap_is_measured(&self) -> bool {
        self.train_acc.is_finite() && self.test_acc.is_finite()
    }

    /// Packages the metrics as a structured `epoch` telemetry event (NaN
    /// fields serialize as `null` in the JSONL stream).
    pub fn to_event(&self) -> hero_obs::Event {
        hero_obs::Event::new("epoch")
            .u64("epoch", self.epoch as u64)
            .f64("train_loss", f64::from(self.train_loss))
            .f64("train_acc", f64::from(self.train_acc))
            .f64("test_acc", f64::from(self.test_acc))
            .f64("hessian_norm", f64::from(self.hessian_norm))
            .f64("regularizer", f64::from(self.regularizer))
    }
}

/// The full record of one training run.
#[derive(Debug, Clone)]
pub struct TrainRecord {
    /// Method name (for reports).
    pub method: String,
    /// Per-epoch metrics.
    pub epochs: Vec<EpochMetrics>,
    /// Final test accuracy.
    pub final_test_acc: f32,
    /// Final training accuracy.
    pub final_train_acc: f32,
    /// Total gradient evaluations spent.
    pub grad_evals: usize,
    /// Spectrum probes taken over training (empty unless
    /// [`crate::TrainConfig::spectrum_every`] was enabled).
    pub spectra: Vec<SpectrumProbe>,
}

impl TrainRecord {
    /// Final generalization gap.
    pub fn final_gap(&self) -> f32 {
        self.final_train_acc - self.final_test_acc
    }

    /// Mean generalization gap over the last `k` evaluated epochs — the
    /// paper's Fig. 2(b) statistic ("final 50 training epochs").
    ///
    /// Only epochs where *both* accuracies are finite contribute (a NaN
    /// train accuracy — e.g. an epoch whose training eval was skipped or
    /// diverged — would otherwise poison the whole mean). `k == 0` asks
    /// for the mean of nothing and returns NaN explicitly rather than via
    /// a 0/0.
    pub fn mean_late_gap(&self, k: usize) -> f32 {
        if k == 0 {
            return f32::NAN;
        }
        let evaluated: Vec<&EpochMetrics> =
            self.epochs.iter().filter(|e| e.gap_is_measured()).collect();
        if evaluated.is_empty() {
            return f32::NAN;
        }
        let tail = &evaluated[evaluated.len().saturating_sub(k)..];
        tail.iter().map(|e| e.generalization_gap()).sum::<f32>() / tail.len() as f32
    }

    /// The ‖Hz‖ probe series as `(epoch, value)` pairs — Fig. 2(a).
    /// Non-finite probes (unprobed epochs, diverged estimates) are
    /// filtered.
    pub fn hessian_series(&self) -> Vec<(usize, f32)> {
        self.epochs
            .iter()
            .filter(|e| e.hessian_norm.is_finite())
            .map(|e| (e.epoch, e.hessian_norm))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(e: usize, train: f32, test: f32, hz: f32) -> EpochMetrics {
        EpochMetrics {
            epoch: e,
            train_loss: 1.0,
            train_acc: train,
            test_acc: test,
            hessian_norm: hz,
            regularizer: 0.0,
        }
    }

    #[test]
    fn gap_is_train_minus_test() {
        let m = epoch(0, 0.9, 0.8, f32::NAN);
        assert!((m.generalization_gap() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn mean_late_gap_uses_evaluated_tail() {
        let rec = TrainRecord {
            method: "SGD".into(),
            epochs: vec![
                epoch(0, 0.5, 0.5, f32::NAN),
                epoch(1, 0.8, f32::NAN, f32::NAN), // skipped eval
                epoch(2, 0.9, 0.7, f32::NAN),
                epoch(3, 1.0, 0.7, f32::NAN),
            ],
            final_test_acc: 0.7,
            final_train_acc: 1.0,
            grad_evals: 0,
            spectra: vec![],
        };
        assert!((rec.mean_late_gap(2) - 0.25).abs() < 1e-6);
        assert!((rec.final_gap() - 0.3).abs() < 1e-6);
        // Asking for more than exist averages everything evaluated.
        assert!((rec.mean_late_gap(10) - (0.0 + 0.2 + 0.3) / 3.0).abs() < 1e-6);
    }

    #[test]
    fn hessian_series_skips_unprobed_epochs() {
        let rec = TrainRecord {
            method: "HERO".into(),
            epochs: vec![
                epoch(0, 0.5, 0.5, 2.0),
                epoch(1, 0.6, 0.5, f32::NAN),
                epoch(2, 0.7, 0.6, 1.0),
            ],
            final_test_acc: 0.6,
            final_train_acc: 0.7,
            grad_evals: 0,
            spectra: vec![],
        };
        assert_eq!(rec.hessian_series(), vec![(0, 2.0), (2, 1.0)]);
    }

    #[test]
    fn empty_record_gap_is_nan() {
        let rec = TrainRecord {
            method: "x".into(),
            epochs: vec![],
            final_test_acc: 0.0,
            final_train_acc: 0.0,
            grad_evals: 0,
            spectra: vec![],
        };
        assert!(rec.mean_late_gap(5).is_nan());
    }

    #[test]
    fn mean_late_gap_of_zero_epochs_is_nan() {
        let rec = TrainRecord {
            method: "x".into(),
            epochs: vec![epoch(0, 0.9, 0.8, f32::NAN)],
            final_test_acc: 0.8,
            final_train_acc: 0.9,
            grad_evals: 0,
            spectra: vec![],
        };
        assert!(rec.mean_late_gap(0).is_nan());
    }

    #[test]
    fn mean_late_gap_skips_nan_train_accuracy() {
        // An epoch with a measured test accuracy but NaN train accuracy
        // must not poison the mean.
        let mut bad = epoch(1, f32::NAN, 0.6, f32::NAN);
        bad.train_acc = f32::NAN;
        let rec = TrainRecord {
            method: "x".into(),
            epochs: vec![
                epoch(0, 0.9, 0.8, f32::NAN),
                bad,
                epoch(2, 1.0, 0.7, f32::NAN),
            ],
            final_test_acc: 0.7,
            final_train_acc: 1.0,
            grad_evals: 0,
            spectra: vec![],
        };
        let g = rec.mean_late_gap(10);
        assert!((g - (0.1 + 0.3) / 2.0).abs() < 1e-6, "gap {g}");
    }

    #[test]
    fn all_nan_test_accuracy_yields_nan_gap() {
        let rec = TrainRecord {
            method: "x".into(),
            epochs: vec![
                epoch(0, 0.9, f32::NAN, f32::NAN),
                epoch(1, 1.0, f32::NAN, f32::NAN),
            ],
            final_test_acc: f32::NAN,
            final_train_acc: 1.0,
            grad_evals: 0,
            spectra: vec![],
        };
        assert!(rec.mean_late_gap(2).is_nan());
        assert!(!rec.epochs[0].gap_is_measured());
    }

    #[test]
    fn hessian_series_filters_non_finite_probes() {
        let rec = TrainRecord {
            method: "x".into(),
            epochs: vec![
                epoch(0, 0.5, 0.5, 2.0),
                epoch(1, 0.6, 0.5, f32::INFINITY), // diverged probe
                epoch(2, 0.7, 0.6, f32::NAN),      // unprobed
                epoch(3, 0.8, 0.6, 1.0),
            ],
            final_test_acc: 0.6,
            final_train_acc: 0.8,
            grad_evals: 0,
            spectra: vec![],
        };
        assert_eq!(rec.hessian_series(), vec![(0, 2.0), (3, 1.0)]);
    }

    #[test]
    fn epoch_event_serializes_nan_as_null() {
        let v = hero_obs::json::parse(&epoch(3, 0.9, f32::NAN, 1.5).to_event().to_json())
            .expect("valid json");
        use hero_obs::json::Value;
        assert_eq!(v.get("ev").and_then(Value::as_str), Some("epoch"));
        assert_eq!(v.get("epoch").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("test_acc"), Some(&Value::Null));
        let hz = v.get("hessian_norm").and_then(Value::as_f64).expect("hz");
        assert!((hz - 1.5).abs() < 1e-9);
    }
}
