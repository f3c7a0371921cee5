//! Canonical-order pin: the parameter and state order of every reference
//! model is the contract between the optimizer's flat weight vector, the
//! Hessian probes, the quantizer and the artifact's TENSORS section. This
//! test lists each model's `param_infos()` names and kinds with the dims
//! of `params()`, then `state()`'s names and lengths, and compares the
//! listing with `tests/golden/canonical_order.txt`. On a mismatch the
//! actual listing is written to a temp file that the failure names.

use hero_nn::models::{mini_mobilenet, mini_resnet, mini_vgg, mlp, ModelConfig};
use hero_nn::Network;
use hero_tensor::rng::StdRng;
use std::fmt::Write;
use std::path::Path;

fn listing(net: &Network, out: &mut String) {
    let (params, infos, state) = (net.params(), net.param_infos(), net.state());
    assert_eq!(params.len(), infos.len(), "{}: params vs infos", net.name());
    writeln!(out, "# {}", net.name()).expect("write");
    for (info, p) in infos.iter().zip(&params) {
        writeln!(out, "param {} {:?} {:?}", info.name, info.kind, p.dims()).expect("write");
    }
    for (name, values) in &state {
        writeln!(out, "state {name} {}", values.len()).expect("write");
    }
}

#[test]
fn reference_models_keep_their_canonical_order() {
    let cfg = ModelConfig::default();
    let rng = || StdRng::seed_from_u64(0);
    let deep = ModelConfig {
        classes: 50,
        input_hw: 16,
        ..cfg
    };
    let nets = [
        mlp(cfg, &[16, 16], &mut rng()),
        mini_resnet(cfg, 1, &mut rng()),
        mini_resnet(deep, 2, &mut rng()),
        mini_mobilenet(cfg, &mut rng()),
        mini_vgg(cfg, &mut rng()),
    ];
    let mut actual = String::new();
    for net in &nets {
        listing(net, &mut actual);
    }
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/canonical_order.txt");
    let expected = std::fs::read_to_string(&golden).expect("read committed order");
    if actual != expected {
        let keep =
            std::env::temp_dir().join(format!("canonical_order_{}.actual", std::process::id()));
        std::fs::write(&keep, &actual).expect("write actual listing");
        panic!(
            "canonical order differs from tests/golden/canonical_order.txt; actual listing in {}",
            keep.display()
        );
    }
}
