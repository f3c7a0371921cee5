//! CLI transcript pin: each case runs the `hero` binary in a fresh working
//! directory with relative paths, then byte-compares its stdout and every
//! file it wrote against `tests/golden/cli/<case>/` (stdout is stored as
//! `stdout`; written files keep their relative paths).
//!
//! The child runs on one worker (`HERO_THREADS=1`), so the transcripts do
//! not depend on the host's core count. Both GEMM kernels round alike, so
//! they do not depend on its SIMD support either. On a mismatch the actual
//! bytes are written to a temp file that the failure names; compare it
//! with the committed file to see what moved.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir`, as sorted paths relative to it.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path.strip_prefix(dir).expect("under dir").to_path_buf());
            }
        }
    }
    out.sort();
    out
}

/// Runs `hero <command>` in a fresh working directory holding a copy of
/// the golden artifact as `model.ha`, and checks the transcript of case
/// `name`.
fn transcript(name: &str, command: &str) {
    transcript_of(name, "tests/golden/c10_resnet_hero_smoke.ha", command);
}

/// [`transcript`] with the repository file `input` copied in as `model.ha`.
fn transcript_of(name: &str, input: &str, command: &str) {
    let args: Vec<&str> = command.split_whitespace().collect();
    let work = std::env::temp_dir().join(format!("hero_transcript_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create working dir");
    std::fs::copy(repo().join(input), work.join("model.ha")).expect("copy input artifact");
    let out = Command::new(env!("CARGO_BIN_EXE_hero"))
        .current_dir(&work)
        .args(&args)
        .env("HERO_THREADS", "1")
        .env_remove("HERO_TRACE")
        .output()
        .expect("spawn hero");
    assert!(
        out.status.success(),
        "`hero {}` failed:\n{}\n{}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(work.join("model.ha")).expect("remove input copy");
    std::fs::write(work.join("stdout"), &out.stdout).expect("write stdout");

    let golden = repo().join("tests/golden/cli").join(name);
    let (got, want) = (files_under(&work), files_under(&golden));
    assert_eq!(
        got,
        want,
        "`hero {}` wrote a different set of files (left: written, right: committed)",
        args.join(" ")
    );
    for file in &got {
        let actual = std::fs::read(work.join(file)).expect("read written file");
        let expected = std::fs::read(golden.join(file)).expect("read committed file");
        if actual != expected {
            let keep = std::env::temp_dir().join(format!(
                "hero_transcript_{name}_{}.actual",
                file.to_string_lossy().replace('/', "_")
            ));
            std::fs::write(&keep, &actual).expect("write actual bytes");
            panic!(
                "`hero {}`: {} differs from tests/golden/cli/{name}/{}; actual bytes in {}",
                args.join(" "),
                file.display(),
                file.display(),
                keep.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}

#[test]
fn analyze_transcript() {
    transcript("analyze", "analyze --artifact model.ha --scale 0.05");
}

#[test]
fn quantize_transcript() {
    transcript(
        "quantize",
        "quantize --artifact model.ha --scale 0.05 --bits 3,4,8 --mixed 4.0 \
         --save q.ha --save-bits 4",
    );
}

#[test]
fn quantize_fresh_model_transcript() {
    transcript(
        "quantize_train",
        "quantize --model resnet --method hero --epochs 1 --scale 0.05 --bits 4",
    );
}

#[test]
fn preflight_transcript() {
    transcript(
        "preflight",
        "preflight --artifact model.ha --scale 0.05 --mixed 4.0 --stamp s.ha",
    );
}

#[test]
fn spectrum_transcript() {
    transcript(
        "spectrum",
        "spectrum --artifact model.ha --scale 0.05 --steps 2 --probes 1",
    );
}

#[test]
fn train_transcript() {
    transcript("train", "train --scale 0.05 --epochs 1");
}

#[test]
fn noise_crosscheck_transcript() {
    transcript(
        "noise_crosscheck",
        "noise-crosscheck --models resnet --scale 0.05 --epochs 1",
    );
}

#[test]
fn artifact_inspect_transcript() {
    transcript("artifact_inspect", "artifact inspect --path model.ha");
}

#[test]
fn artifact_inspect_quantized_transcript() {
    transcript_of(
        "artifact_inspect_quantized",
        "tests/golden/cli/quantize/q.ha",
        "artifact inspect --path model.ha",
    );
}
