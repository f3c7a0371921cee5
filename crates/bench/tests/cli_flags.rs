//! The `hero` flag layer rejects bad command lines before doing any work:
//! unknown, repeated and valueless flags, stray arguments, the removed
//! legacy-checkpoint flags, unknown repro targets, model-picking flags
//! combined with `--artifact`, flags that would have no effect, and bit
//! grids or probe counts the experiment cannot use. Each rejection exits
//! nonzero and names the offending flag, argument or value.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn hero(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hero"))
        .args(args)
        .output()
        .expect("spawn hero")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hero_flags_{}_{name}", std::process::id()))
}

/// Asserts `args` fails with an error line that names `culprit`.
fn rejects(args: &[&str], culprit: &str) {
    let out = hero(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`hero {}` succeeded", args.join(" "));
    assert!(
        stderr.starts_with("error: ") && stderr.contains(culprit),
        "`hero {}`: error does not name `{culprit}`:\n{stderr}",
        args.join(" ")
    );
}

#[test]
fn unknown_flags_are_rejected() {
    rejects(&["train", "--epoch", "5"], "`--epoch`");
    rejects(&["noise-crosscheck", "--tightness", "x"], "`--tightness`");
}

#[test]
fn duplicate_flags_are_rejected() {
    rejects(&["train", "--epochs", "1", "--epochs", "2"], "`--epochs`");
}

#[test]
fn valueless_flags_are_rejected() {
    rejects(&["train", "--seed"], "`--seed`");
    rejects(&["train", "--epochs", "--seed", "3"], "`--epochs`");
}

#[test]
fn stray_positionals_are_rejected() {
    rejects(&["train", "resnet"], "`resnet`");
}

#[test]
fn legacy_checkpoint_flags_are_gone() {
    rejects(&["train", "--out", "net.ckpt"], "`--out`");
    rejects(&["quantize", "--ckpt", "net.ckpt"], "`--ckpt`");
    rejects(&["analyze", "--ckpt", "net.ckpt"], "`--ckpt`");
}

#[test]
fn unknown_repro_targets_are_rejected() {
    rejects(&["repro", "nope"], "`nope`");
    rejects(
        &["repro", "table1", "--artifact-dir", "cache"],
        "--artifact-dir",
    );
}

#[test]
fn stamp_needs_an_artifact() {
    rejects(&["preflight", "--stamp", "out.ha"], "--stamp");
}

#[test]
fn model_flags_conflict_with_an_artifact() {
    // The conflict is caught before the (nonexistent) file is opened.
    rejects(
        &["preflight", "--artifact", "missing.ha", "--model", "vgg"],
        "--model",
    );
    rejects(
        &["quantize", "--artifact", "missing.ha", "--epochs", "3"],
        "--epochs",
    );
    rejects(
        &["analyze", "--artifact", "missing.ha", "--seed", "1"],
        "--seed",
    );
    for flag in ["--model", "--methods", "--epochs", "--spectrum-every"] {
        let value = if flag == "--methods" { "sgd" } else { "1" };
        rejects(
            &["spectrum", "--artifact", "missing.ha", flag, value],
            &format!("{flag} cannot be combined with --artifact"),
        );
    }
}

#[test]
fn flags_without_effect_are_rejected() {
    rejects(&["preflight", "--budget", "0.5"], "--budget has no effect");
    rejects(
        &["preflight", "--noise-bits", "4", "--mixed", "4.0"],
        "--noise-bits cannot be combined with --mixed",
    );
    rejects(&["quantize", "--sens", "proxy"], "--sens has no effect");
    rejects(
        &["quantize", "--save-bits", "4"],
        "--save-bits has no effect",
    );
    rejects(
        &["train", "--checkpoint-every", "2"],
        "--checkpoint-every has no effect",
    );
    rejects(
        &[
            "train",
            "--golden-recipe",
            "g.ha",
            "--epochs",
            "7",
            "--model",
            "vgg",
        ],
        "cannot be combined with --golden-recipe",
    );
}

/// A checkpoint file the cadence would never write (checkpoints come
/// after every N-th epoch but the last) is refused before training: a
/// budget of hours stands in for the training, and the deadline turns a
/// refusal that comes too late into a failure.
#[test]
fn a_checkpoint_that_would_never_be_written_is_refused() {
    let ckpt = tmp("never_written.ha");
    let never = "no checkpoint would be written to";
    let path = ckpt.to_str().unwrap();
    let args = ["train", "--scale", "0.05", "--checkpoint", path];
    rejects(&[&args[..], &["--epochs", "1"]].concat(), never);
    let child = Command::new(env!("CARGO_BIN_EXE_hero"))
        .args(args)
        .args(["--epochs", "100000", "--checkpoint-every", "100000"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hero");
    let stderr = exits_within(child, Duration::from_secs(60));
    assert!(stderr.contains(never), "{stderr}");
    assert!(!ckpt.exists());
}

/// Waits for `child` to exit unsuccessfully within `limit` (killing it and
/// failing otherwise) and returns its stderr.
fn exits_within(mut child: Child, limit: Duration) -> String {
    let start = Instant::now();
    while child.try_wait().expect("poll hero").is_none() {
        if start.elapsed() > limit {
            child.kill().ok();
            panic!("hero was still running after {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("collect hero");
    assert!(!out.status.success());
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `cmd` on a model artifact that does not exist.
fn on_missing<'a>(cmd: &[&'a str]) -> Vec<&'a str> {
    [cmd, &["--artifact", "missing.ha"]].concat()
}

/// Each bad value is checked before anything is loaded: naming a missing
/// artifact (or a training budget far beyond the test's) would otherwise
/// surface as a different error (or run for hours) first.
#[test]
fn unusable_grids_and_probe_counts_fail_before_any_work() {
    let no_probe = "at least one Lanczos step and one probe";
    rejects(&on_missing(&["spectrum", "--probes", "0"]), no_probe);
    rejects(&on_missing(&["spectrum", "--steps", "0"]), no_probe);
    rejects(&on_missing(&["spectrum", "--bits", "32"]), "bit width 32");
    let grid = ["preflight", "--bits", "8,4,3,4", "--mixed", "4.0"];
    rejects(&on_missing(&grid), "strictly increasing");
    let width = ["preflight", "--noise-bits", "32"];
    rejects(&on_missing(&width), "bit width 32");
    rejects(&on_missing(&["quantize", "--bits", "4,32"]), "bit width 32");
    // No artifact to name here: a training budget of hours stands in, and
    // the deadline turns a rejection that comes too late into a failure.
    let child = Command::new(env!("CARGO_BIN_EXE_hero"))
        .args(["noise-crosscheck", "--bits", "8,4", "--epochs", "100000"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hero");
    let stderr = exits_within(child, Duration::from_secs(60));
    assert!(stderr.contains("strictly increasing"), "{stderr}");
}

/// Trains a 0-epoch VGG artifact: untrained, but enough to label.
fn untrained_vgg(name: &str) -> PathBuf {
    let model = tmp(name);
    let out = hero(&[
        "train",
        "--model",
        "vgg",
        "--scale",
        "0.05",
        "--epochs",
        "0",
        "--save",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "train --save failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    model
}

#[test]
fn preflight_names_its_report_after_the_artifact_model() {
    let model = untrained_vgg("vgg.ha");
    let out_dir = tmp("preflight");
    let out = hero(&[
        "preflight",
        "--scale",
        "0.05",
        "--artifact",
        model.to_str().unwrap(),
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "preflight --artifact failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out_dir.join("vgg19bn_cifar_10.txt").exists());
    assert!(!out_dir.join("resnet20_cifar_10.txt").exists());
    std::fs::remove_file(&model).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn spectrum_names_its_document_after_the_artifact_model() {
    let model = untrained_vgg("vgg_spectrum.ha");
    let dir = tmp("spectrum");
    std::fs::create_dir_all(&dir).unwrap();
    // No --out: the default path is derived from the model name, relative
    // to the working directory.
    let out = Command::new(env!("CARGO_BIN_EXE_hero"))
        .current_dir(&dir)
        .args([
            "spectrum",
            "--scale",
            "0.05",
            "--steps",
            "2",
            "--probes",
            "1",
            "--artifact",
            model.to_str().unwrap(),
        ])
        .output()
        .expect("spawn hero");
    assert!(
        out.status.success(),
        "spectrum --artifact failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = dir.join("results/SPECTRUM_vgg19bn_cifar_10.json");
    let text = std::fs::read_to_string(&doc).expect("spectrum document at the VGG path");
    assert!(text.contains("\"model\": \"VGG19BN\""), "{text}");
    assert!(text.contains("\"epochs\": 0"), "{text}");
    assert!(!dir.join("results/SPECTRUM_resnet20_cifar_10.json").exists());
    std::fs::remove_file(&model).ok();
    std::fs::remove_dir_all(&dir).ok();
}
