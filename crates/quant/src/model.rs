//! Post-training quantization of a whole network.

use crate::quantizer::{quant_error, quantize_tensor, QuantError};
use crate::scheme::QuantScheme;
use hero_nn::Network;
use hero_tensor::{Result, Tensor};

/// Summary of quantizing one network snapshot.
#[derive(Debug, Clone)]
pub struct ModelQuantReport {
    /// Number of weight tensors quantized.
    pub quantized_tensors: usize,
    /// Number of tensors left full-precision (biases, batch-norm params).
    pub skipped_tensors: usize,
    /// The worst per-tensor ℓ∞ perturbation — Theorem 2's ‖δ‖∞.
    pub worst_linf: f32,
    /// The largest bin width Δ across layers (`2ρ` in Theorem 2).
    pub max_bin_width: f32,
    /// Mean of per-tensor MSEs.
    pub mean_mse: f32,
}

/// Returns a quantized copy of the network's parameters: weight tensors
/// are fake-quantized under `scheme`, everything else passes through.
///
/// This is the paper's post-training setting — no finetuning, weights only,
/// per-layer ranges.
///
/// # Errors
///
/// Propagates quantizer errors (invalid scheme).
pub fn quantize_params(
    net: &Network,
    scheme: &QuantScheme,
) -> Result<(Vec<Tensor>, ModelQuantReport)> {
    quantize_each(net, |_| Ok(*scheme))
}

/// Fake-quantizes the `i`-th quantizable tensor under `scheme_of(i)` and
/// passes every other parameter through.
pub(crate) fn quantize_each(
    net: &Network,
    mut scheme_of: impl FnMut(usize) -> Result<QuantScheme>,
) -> Result<(Vec<Tensor>, ModelQuantReport)> {
    let _obs = hero_obs::span("quantize");
    let params = net.params();
    let mut out = Vec::with_capacity(params.len());
    let mut report = ModelQuantReport {
        quantized_tensors: 0,
        skipped_tensors: 0,
        worst_linf: 0.0,
        max_bin_width: 0.0,
        mean_mse: 0.0,
    };
    let mut mse_acc = 0.0;
    for (p, info) in params.iter().zip(net.param_infos()) {
        if info.kind.is_quantizable() {
            let q = quantize_tensor(p, &scheme_of(report.quantized_tensors)?);
            let err: QuantError = quant_error(p, &q.values)?;
            hero_obs::counters::QUANT_TENSORS.incr();
            report.quantized_tensors += 1;
            report.worst_linf = report.worst_linf.max(err.linf);
            report.max_bin_width = report.max_bin_width.max(q.bin_width);
            mse_acc += err.mse;
            out.push(q.values);
        } else {
            report.skipped_tensors += 1;
            out.push(p.clone());
        }
    }
    if report.quantized_tensors > 0 {
        report.mean_mse = mse_acc / report.quantized_tensors as f32;
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_nn::models::{mini_resnet, mlp, ModelConfig};
    use hero_tensor::rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn quantize_params_touches_only_weights() {
        let net = mini_resnet(ModelConfig::default(), 1, &mut rng());
        let (qp, report) = quantize_params(&net, &QuantScheme::symmetric(4).unwrap()).unwrap();
        let infos = net.param_infos();
        let orig = net.params();
        assert_eq!(qp.len(), orig.len());
        for ((q, o), info) in qp.iter().zip(&orig).zip(&infos) {
            if info.kind.is_quantizable() {
                // 4-bit quantization of random weights changes something.
                continue;
            }
            assert_eq!(q, o, "non-weight {} was modified", info.name);
        }
        assert!(report.quantized_tensors > 0);
        assert!(report.skipped_tensors > 0);
        assert_eq!(
            report.quantized_tensors + report.skipped_tensors,
            orig.len()
        );
    }

    #[test]
    fn theorem2_premise_holds_on_a_network() {
        let net = mini_resnet(ModelConfig::default(), 1, &mut rng());
        for bits in [2u8, 4, 8] {
            let (_, report) =
                quantize_params(&net, &QuantScheme::symmetric(bits).unwrap()).unwrap();
            assert!(
                report.worst_linf <= report.max_bin_width / 2.0 + 1e-6,
                "{bits}-bit: ‖δ‖∞ {} exceeds Δ/2 {}",
                report.worst_linf,
                report.max_bin_width / 2.0
            );
        }
    }

    #[test]
    fn lower_precision_means_larger_perturbation() {
        let net = mini_resnet(ModelConfig::default(), 1, &mut rng());
        let (_, r8) = quantize_params(&net, &QuantScheme::symmetric(8).unwrap()).unwrap();
        let (_, r4) = quantize_params(&net, &QuantScheme::symmetric(4).unwrap()).unwrap();
        let (_, r2) = quantize_params(&net, &QuantScheme::symmetric(2).unwrap()).unwrap();
        assert!(r2.worst_linf > r4.worst_linf);
        assert!(r4.worst_linf > r8.worst_linf);
        assert!(r2.mean_mse > r4.mean_mse);
    }

    #[test]
    fn quantized_params_install_into_the_network() {
        let cfg = ModelConfig {
            classes: 3,
            in_channels: 1,
            input_hw: 4,
            width: 4,
        };
        let mut net = mlp(cfg, &[8], &mut rng());
        let scheme = QuantScheme::symmetric(3).unwrap();
        let before = net.params();
        let (params, report) = quantize_params(&net, &scheme).unwrap();
        net.set_params(&params).unwrap();
        let after = net.params();
        assert_ne!(before, after);
        assert!(report.worst_linf > 0.0);
        // Quantizing again is a no-op (idempotence at network level).
        let (_, again) = quantize_params(&net, &scheme).unwrap();
        assert!(again.worst_linf < 1e-5);
    }

    #[test]
    fn predictions_survive_8bit_quantization() {
        let cfg = ModelConfig {
            classes: 4,
            in_channels: 1,
            input_hw: 4,
            width: 4,
        };
        let mut net = mlp(cfg, &[16], &mut StdRng::seed_from_u64(12));
        let x = Tensor::from_fn([6, 1, 4, 4], |i| (i.iter().sum::<usize>() % 5) as f32 - 2.0);
        let before = net.predict(&x).unwrap();
        let (params, _) = quantize_params(&net, &QuantScheme::symmetric(8).unwrap()).unwrap();
        net.set_params(&params).unwrap();
        let after = net.predict(&x).unwrap();
        let drift = before.sub(&after).unwrap().norm_linf();
        assert!(drift < 0.05, "8-bit drift {drift}");
    }
}
