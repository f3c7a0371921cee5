//! The pre-flight analyzer's report text is a contract: `hero preflight`
//! must reproduce the committed `results/analyze/` reports byte for byte.
//!
//! Op names appear in every report line and in the FNV `preflight_hash`
//! stamped into `.ha` provenance, so this also pins the trace IR's op-name
//! table. The reports are identical in debug and release builds and under
//! both GEMM kernels (`HERO_NO_SIMD=1` included). MobileNet is left out:
//! under `HERO_NO_SIMD=1` its `scale-explosion` bounds differ in the 9th
//! digit, the expected FMA rounding difference between the kernels
//! (DESIGN.md §13), so its report is not kernel-independent.

use std::path::Path;
use std::process::Command;

#[test]
fn preflight_reports_match_the_committed_files() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/analyze");
    let out_dir = std::env::temp_dir().join(format!("hero_preflight_pin_{}", std::process::id()));
    for (model, stem) in [("resnet", "resnet20_cifar_10"), ("vgg", "vgg19bn_cifar_10")] {
        let out = Command::new(env!("CARGO_BIN_EXE_hero"))
            .args(["preflight", "--preset", "c10", "--model", model])
            .args(["--scale", "0.25", "--bits", "3,4,8", "--out-dir"])
            .arg(&out_dir)
            .output()
            .expect("spawn hero preflight");
        assert!(
            out.status.success(),
            "preflight --model {model} failed:\n{}\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        for ext in ["txt", "dot"] {
            let file = format!("{stem}.{ext}");
            let got = std::fs::read_to_string(out_dir.join(&file)).expect("read new report");
            let want = std::fs::read_to_string(committed.join(&file)).expect("read committed");
            if got != want {
                let line = got
                    .lines()
                    .zip(want.lines())
                    .position(|(a, b)| a != b)
                    .map_or(got.lines().count().min(want.lines().count()), |i| i);
                panic!(
                    "{file} differs from results/analyze/{file} at line {}:\n  new:       {:?}\n  \
                     committed: {:?}",
                    line + 1,
                    got.lines().nth(line),
                    want.lines().nth(line)
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
