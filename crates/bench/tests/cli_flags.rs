//! The `hero` flag layer rejects bad command lines before doing any work:
//! unknown, repeated and valueless flags, stray arguments, the removed
//! legacy-checkpoint flags, unknown repro targets, and model-picking flags
//! combined with `--artifact`. Each rejection exits nonzero and names the
//! offending flag or argument.

use std::path::PathBuf;
use std::process::Command;

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
