//! Seeded fuzzing of the artifact decoder: every corruption of a valid
//! artifact — truncation, bit flips, bad magic/version, and lying length
//! fields — must come back as a clean typed [`ArtifactError`], never a
//! panic and never an allocation the input bytes could not justify.
//!
//! The crate is zero-dependency, so the generator is a local SplitMix64
//! (same algorithm as the workspace RNG): every run is deterministic and
//! a failure reproduces from the case number alone.
//!
//! These are the container's cases. The RESUME section is opaque here;
//! its decoder's corruption cases live with its schema, in
//! `crates/core/tests/resume_fuzz.rs`.

use hero_artifact::{Artifact, ArtifactError, MetaValue, QuantEntry, StateEntry, TensorEntry};

const TRUNCATION_CASES: u64 = 200;
const BITFLIP_CASES: u64 = 200;
const LENGTH_LIE_CASES: u64 = 100;
const HEADER_CASES: u64 = 50;

/// SplitMix64 — embedded so the fuzz harness adds no dependency edge.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A representative artifact exercising every section and value type.
fn sample(rng: &mut Rng) -> Artifact {
    let mut art = Artifact::new();
    art.set_meta("format", MetaValue::Str("hero-artifact".into()));
    art.set_meta("train.seed", MetaValue::U64(rng.next()));
    art.set_meta("train.lr", MetaValue::F64(0.1));
    art.set_meta("train.augment.hflip", MetaValue::Bool(rng.below(2) == 1));
    let n = 4 + rng.below(12) as usize;
    art.tensors.push(TensorEntry {
        name: "stem.conv.weight".into(),
        kind: 0,
        dims: vec![n as u64, 2],
        data: (0..n * 2).map(|i| i as f32 * 0.25 - 1.0).collect(),
    });
    art.tensors.push(TensorEntry {
        name: "head.bias".into(),
        kind: 1,
        dims: vec![3],
        data: vec![0.0, f32::NAN, -2.5],
    });
    art.state.push(StateEntry {
        name: "stem.bn.running_mean".into(),
        data: vec![0.5; n],
    });
    art.quant.push(QuantEntry {
        name: "stem.conv.weight".into(),
        bits: 4,
        bin_width: 0.125,
    });
    if rng.below(2) == 1 {
        // Opaque bytes: the container stores RESUME without reading it.
        art.resume = Some((0..8 * n).map(|_| rng.next() as u8).collect());
    }
    art
}

/// Decode must terminate with Ok or a typed error — the `match` is
/// exhaustive over [`ArtifactError`], so an unexpected panic (the only
/// other way out) fails the test by unwinding.
fn decode_must_be_clean(bytes: &[u8], case: u64, what: &str) {
    match Artifact::from_bytes(bytes) {
        Ok(_) => {}
        Err(
            ArtifactError::Io(_)
            | ArtifactError::BadMagic
            | ArtifactError::UnsupportedVersion(_)
            | ArtifactError::Truncated { .. }
            | ArtifactError::ChecksumMismatch { .. }
            | ArtifactError::Malformed { .. },
        ) => {}
    }
    let _ = (case, what);
}

#[test]
fn truncation_at_every_random_cut_is_typed() {
    for case in 0..TRUNCATION_CASES {
        let mut rng = Rng(0xF00D ^ case);
        let bytes = sample(&mut rng).to_bytes();
        let cut = rng.below(bytes.len() as u64) as usize;
        let err = Artifact::from_bytes(&bytes[..cut]);
        assert!(
            matches!(
                err,
                Err(ArtifactError::Truncated { .. }) | Err(ArtifactError::BadMagic)
            ),
            "case {case}: cut at {cut}/{} gave {err:?}",
            bytes.len()
        );
    }
}

#[test]
fn random_bit_flips_never_panic_and_never_pass_silently() {
    for case in 0..BITFLIP_CASES {
        let mut rng = Rng(0xBAD_5EED ^ case);
        let art = sample(&mut rng);
        let clean = art.to_bytes();
        let mut bytes = clean.clone();
        let pos = rng.below(bytes.len() as u64) as usize;
        let bit = 1u8 << rng.below(8);
        bytes[pos] ^= bit;
        decode_must_be_clean(&bytes, case, "bit flip");
        // A flip in the body must be caught by the checksum; a flip in
        // the 28-byte header must be caught by its own validation. Either
        // way, a corrupted artifact must never decode to the clean bytes.
        if let Ok(decoded) = Artifact::from_bytes(&bytes) {
            assert_ne!(
                decoded.to_bytes(),
                clean,
                "case {case}: flip of bit {bit:#04x} at byte {pos} vanished"
            );
        }
    }
}

#[test]
fn body_bit_flips_specifically_fail_the_checksum() {
    for case in 0..BITFLIP_CASES {
        let mut rng = Rng(0xC0FFEE ^ case);
        let mut bytes = sample(&mut rng).to_bytes();
        let body_len = bytes.len() - 28;
        let pos = 28 + rng.below(body_len as u64) as usize;
        bytes[pos] ^= 1u8 << rng.below(8);
        assert!(
            matches!(
                Artifact::from_bytes(&bytes),
                Err(ArtifactError::ChecksumMismatch { .. })
            ),
            "case {case}: body flip at {pos} escaped the checksum"
        );
    }
}

#[test]
fn length_field_lies_fail_without_huge_allocation() {
    // Overwrite a random aligned 4- or 8-byte window in the body with a
    // huge count/length and fix up the checksum so the lie is the first
    // thing the decoder can trip on. The decoder validates every claimed
    // count against the bytes remaining BEFORE allocating, so a claim of
    // ~u64::MAX elements must come back Malformed/Truncated instantly
    // instead of attempting an exabyte Vec (an OOM would abort the test
    // process — surviving all cases is the assertion).
    for case in 0..LENGTH_LIE_CASES {
        let mut rng = Rng(0x11E5 ^ case);
        let art = sample(&mut rng);
        let mut bytes = art.to_bytes();
        let body_len = bytes.len() - 28;
        let pos = 28 + rng.below(body_len.saturating_sub(8) as u64) as usize;
        let lie: u64 = match rng.below(3) {
            0 => u64::MAX,
            1 => u64::MAX / 2,
            _ => 0x0001_0000_0000 + rng.below(1 << 30),
        };
        if rng.below(2) == 0 {
            bytes[pos..pos + 4].copy_from_slice(&(lie as u32).to_le_bytes());
        } else {
            bytes[pos..pos + 8].copy_from_slice(&lie.to_le_bytes());
        }
        let fixed = hero_artifact::fnv1a64(&bytes[28..]);
        bytes[20..28].copy_from_slice(&fixed.to_le_bytes());
        let res = Artifact::from_bytes(&bytes);
        assert!(
            !matches!(res, Err(ArtifactError::ChecksumMismatch { .. })),
            "case {case}: checksum fixup failed"
        );
        decode_must_be_clean(&bytes, case, "length lie");
    }
}

#[test]
fn header_corruptions_are_the_right_variant() {
    for case in 0..HEADER_CASES {
        let mut rng = Rng(0x44EAD ^ case);
        let clean = sample(&mut rng).to_bytes();

        // Magic.
        let mut bad = clean.clone();
        let pos = rng.below(8) as usize;
        bad[pos] = bad[pos].wrapping_add(1 + rng.below(255) as u8);
        assert_eq!(
            Artifact::from_bytes(&bad),
            Err(ArtifactError::BadMagic),
            "case {case}: magic corruption misclassified"
        );

        // Version.
        let mut bad = clean.clone();
        let v = 2 + rng.below(u64::from(u32::MAX) - 2) as u32;
        bad[8..12].copy_from_slice(&v.to_le_bytes());
        assert_eq!(
            Artifact::from_bytes(&bad),
            Err(ArtifactError::UnsupportedVersion(v)),
            "case {case}: version corruption misclassified"
        );

        // Declared body length larger than the file: truncated.
        let mut bad = clean.clone();
        let body_len = (clean.len() - 28) as u64;
        bad[12..20].copy_from_slice(&(body_len + 1 + rng.below(1 << 40)).to_le_bytes());
        assert!(
            matches!(
                Artifact::from_bytes(&bad),
                Err(ArtifactError::Truncated { .. })
            ),
            "case {case}: oversized body_len misclassified"
        );

        // Declared body length smaller than the file: trailing garbage.
        if body_len > 1 {
            let mut bad = clean.clone();
            bad[12..20].copy_from_slice(&(body_len - 1 - rng.below(body_len - 1)).to_le_bytes());
            assert!(
                matches!(
                    Artifact::from_bytes(&bad),
                    Err(ArtifactError::Malformed { .. })
                ),
                "case {case}: undersized body_len misclassified"
            );
        }

        // Checksum.
        let mut bad = clean;
        bad[20] ^= 0xFF;
        assert!(
            matches!(
                Artifact::from_bytes(&bad),
                Err(ArtifactError::ChecksumMismatch { .. })
            ),
            "case {case}: checksum corruption misclassified"
        );
    }
}

#[test]
fn valid_artifacts_always_round_trip() {
    for case in 0..100u64 {
        let mut rng = Rng(0x900D ^ case);
        let art = sample(&mut rng);
        let bytes = art.to_bytes();
        let back = Artifact::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: valid artifact rejected: {e}"));
        assert_eq!(
            back.to_bytes(),
            bytes,
            "case {case}: round trip not byte-stable"
        );
    }
}
