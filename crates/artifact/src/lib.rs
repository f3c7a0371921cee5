//! # hero-artifact
//!
//! The versioned, deterministic binary model-artifact format of the HERO
//! reproduction (DESIGN.md §16): graph topology metadata, weights,
//! batch-norm running statistics, quantization scales/bit allocation,
//! provenance (seed, training configuration, git revision, preflight
//! report hash) and an optional resumable-training section — everything
//! the train → preflight → quantize pipeline persists between stages.
//!
//! The crate is deliberately free of every other `hero-*` crate: it owns
//! the container (header, checksum, section order) and the schema of the
//! META, TENSORS, STATE and QUANT sections, nothing else. The RESUME
//! section, always the last, is kept as the bytes it holds:
//! `hero-core::artifact_io` owns its schema (the trainer state and the
//! training history) and encodes it with the same bounded primitives this
//! crate exports ([`put_u64`], [`put_tensor`], … and [`Reader`]). That
//! module also converts to and from live networks.
//!
//! # Determinism contract
//!
//! [`Artifact::to_bytes`] is a pure function of the artifact's contents:
//! fields are written in a fixed order, floats as their exact IEEE-754
//! bit patterns, and no clocks, hashes of addresses, or map iteration
//! orders are involved. The same training run therefore always produces
//! byte-identical files — which is what lets CI pin a golden artifact by
//! hash (see `scripts/verify.sh`).
//!
//! # Corruption safety
//!
//! [`Artifact::from_bytes`] never panics and never allocates more than
//! the input could justify: every length field is validated against the
//! bytes actually remaining before any buffer is reserved, so a
//! length-field lie yields [`ArtifactError::Malformed`] instead of an
//! OOM. A whole-body FNV-1a checksum in the header catches bit flips.
//! Every read goes through [`Reader`], so the RESUME decoder built on it
//! inherits the same guarantees.
//!
//! # Examples
//!
//! ```
//! use hero_artifact::{Artifact, MetaValue, TensorEntry};
//!
//! let mut art = Artifact::new();
//! art.set_meta("train.seed", MetaValue::U64(7));
//! art.tensors.push(TensorEntry {
//!     name: "head.weight".into(),
//!     kind: 0,
//!     dims: vec![2, 3],
//!     data: vec![0.0; 6],
//! });
//! let bytes = art.to_bytes();
//! let back = Artifact::from_bytes(&bytes).unwrap();
//! assert_eq!(back.to_bytes(), bytes); // byte-identical round trip
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::path::Path;

/// File magic: the first eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"HEROART1";

/// Current format version. Readers reject anything newer; older versions
/// are migrated explicitly when the format evolves (none exist yet).
pub const VERSION: u32 = 1;

/// Longest accepted string field (names, meta keys/values) in bytes.
/// Keeps a corrupted length field from looking plausible.
pub const MAX_STR: usize = 1 << 16;

/// Highest accepted tensor rank.
pub const MAX_RANK: usize = 8;

const SECTION_META: u8 = 1;
const SECTION_TENSORS: u8 = 2;
const SECTION_STATE: u8 = 3;
const SECTION_QUANT: u8 = 4;
const SECTION_RESUME: u8 = 5;

/// Errors surfaced by artifact decoding and file I/O.
///
/// Every decode failure is one of these typed variants — corrupted input
/// must never panic or trigger an unbounded allocation (fuzzed in
/// `tests/fuzz.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Underlying file I/O failed.
    Io(String),
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The header declares a version this reader does not support.
    UnsupportedVersion(u32),
    /// The input ended before a declared field was complete.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the field still needed.
        needed: usize,
    },
    /// The body bytes do not hash to the checksum stored in the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the body actually read.
        computed: u64,
    },
    /// A structurally invalid field: length-field lies, bad section tags,
    /// out-of-range ranks, non-UTF-8 names, trailing garbage.
    Malformed {
        /// Byte offset of the offending field.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact I/O error: {e}"),
            ArtifactError::BadMagic => write!(f, "not a HERO artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(f, "unsupported artifact version {v} (reader supports {VERSION})")
            }
            ArtifactError::Truncated { offset, needed } => {
                write!(f, "artifact truncated at byte {offset}: {needed} more bytes needed")
            }
            ArtifactError::ChecksumMismatch { stored, computed } => write!(
                f,
                "artifact checksum mismatch: header says {stored:#018x}, body hashes to {computed:#018x}"
            ),
            ArtifactError::Malformed { offset, what } => {
                write!(f, "malformed artifact at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Decode result alias.
pub type Result<T> = std::result::Result<T, ArtifactError>;

/// FNV-1a 64-bit hash — the body checksum (and the hash verify.sh pins
/// golden artifacts by). Chosen for being trivially portable and fully
/// specified; this is corruption detection, not cryptography.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One provenance/config entry value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    /// UTF-8 string.
    Str(String),
    /// Unsigned integer.
    U64(u64),
    /// Floating point (stored as exact IEEE-754 bits).
    F64(f64),
    /// Boolean.
    Bool(bool),
}

/// Renders a string quoted and every other value plainly.
impl fmt::Display for MetaValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaValue::Str(s) => write!(f, "\"{s}\""),
            MetaValue::U64(n) => write!(f, "{n}"),
            MetaValue::F64(x) => write!(f, "{x}"),
            MetaValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One named parameter tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorEntry {
    /// Dotted parameter path, e.g. `stage1.block0.conv1.weight`.
    pub name: String,
    /// Role tag (the writer's `ParamKind` ordinal; opaque to this crate).
    pub kind: u8,
    /// Tensor dimensions.
    pub dims: Vec<u64>,
    /// Row-major values.
    pub data: Vec<f32>,
}

impl TensorEntry {
    /// Element count implied by the dims (checked, saturating on overflow).
    pub fn numel(&self) -> u64 {
        self.dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d))
            .unwrap_or(u64::MAX)
    }
}

/// One named non-parameter state buffer (batch-norm running statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct StateEntry {
    /// Dotted buffer path, e.g. `stem.bn.running_mean`.
    pub name: String,
    /// Buffer values.
    pub data: Vec<f32>,
}

/// Quantization decision for one weight tensor: a symmetric per-tensor
/// grid. On disk the bin width sits behind a granularity flag (0) and a
/// group count (1); the decoder accepts no other values.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantEntry {
    /// Dotted parameter path of the quantized weight.
    pub name: String,
    /// Allocated bit width.
    pub bits: u8,
    /// Bin width Δ of the grid.
    pub bin_width: f32,
}

/// A decoded (or to-be-encoded) model artifact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Artifact {
    /// Ordered provenance/config entries. Order is part of the byte
    /// encoding, so writers must emit keys in a fixed order.
    pub meta: Vec<(String, MetaValue)>,
    /// Parameter tensors, canonical network order.
    pub tensors: Vec<TensorEntry>,
    /// Non-parameter state buffers, canonical network order.
    pub state: Vec<StateEntry>,
    /// Quantization allocation (empty for full-precision artifacts).
    pub quant: Vec<QuantEntry>,
    /// The RESUME section's bytes, stored as read and written without
    /// interpretation: `hero_core::artifact_io` owns their schema (the
    /// trainer state of a checkpoint or a final save).
    pub resume: Option<Vec<u8>>,
}

impl Artifact {
    /// An empty artifact.
    pub fn new() -> Self {
        Artifact::default()
    }

    /// Sets (or replaces) a meta entry, preserving insertion order.
    pub fn set_meta(&mut self, key: &str, value: MetaValue) {
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    /// Looks up a meta entry.
    pub fn meta(&self, key: &str) -> Option<&MetaValue> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String meta entry, if present with that type.
    pub fn meta_str(&self, key: &str) -> Option<&str> {
        match self.meta(key) {
            Some(MetaValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// Integer meta entry, if present with that type.
    pub fn meta_u64(&self, key: &str) -> Option<u64> {
        match self.meta(key) {
            Some(MetaValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Float meta entry, if present with that type.
    pub fn meta_f64(&self, key: &str) -> Option<f64> {
        match self.meta(key) {
            Some(MetaValue::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Boolean meta entry, if present with that type.
    pub fn meta_bool(&self, key: &str) -> Option<bool> {
        match self.meta(key) {
            Some(MetaValue::Bool(v)) => Some(*v),
            _ => None,
        }
    }

    /// Total scalar parameter count across all tensors.
    pub fn num_scalars(&self) -> u64 {
        self.tensors.iter().map(TensorEntry::numel).sum()
    }

    /// Encodes the artifact into its canonical byte representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::new();
        // META
        body.push(SECTION_META);
        put_u32(&mut body, self.meta.len() as u32);
        for (k, v) in &self.meta {
            put_str(&mut body, k);
            match v {
                MetaValue::Str(s) => {
                    body.push(0);
                    put_str(&mut body, s);
                }
                MetaValue::U64(n) => {
                    body.push(1);
                    put_u64(&mut body, *n);
                }
                MetaValue::F64(x) => {
                    body.push(2);
                    put_u64(&mut body, x.to_bits());
                }
                MetaValue::Bool(b) => {
                    body.push(3);
                    body.push(u8::from(*b));
                }
            }
        }
        // TENSORS
        body.push(SECTION_TENSORS);
        put_u32(&mut body, self.tensors.len() as u32);
        for t in &self.tensors {
            put_tensor(&mut body, t);
        }
        // STATE
        body.push(SECTION_STATE);
        put_u32(&mut body, self.state.len() as u32);
        for s in &self.state {
            put_str(&mut body, &s.name);
            put_u64(&mut body, s.data.len() as u64);
            put_f32s(&mut body, &s.data);
        }
        // QUANT (only when present — full-precision artifacts skip it)
        if !self.quant.is_empty() {
            body.push(SECTION_QUANT);
            put_u32(&mut body, self.quant.len() as u32);
            for q in &self.quant {
                put_str(&mut body, &q.name);
                body.push(q.bits);
                body.push(0); // per-tensor granularity
                put_u64(&mut body, 1); // one bin-width group
                put_f32(&mut body, q.bin_width);
            }
        }
        // RESUME (checkpoints and final saves), the last section
        if let Some(r) = &self.resume {
            body.push(SECTION_RESUME);
            body.extend_from_slice(r);
        }

        let mut out = Vec::with_capacity(28 + body.len());
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, body.len() as u64);
        put_u64(&mut out, fnv1a64(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Decodes an artifact, validating magic, version, length, checksum
    /// and every internal length field.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ArtifactError`]; never panics on any input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact> {
        let mut r = Reader::new(bytes);
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let body_len = r.u64()?;
        let stored_hash = r.u64()?;
        if body_len as usize as u64 != body_len || r.remaining() < body_len as usize {
            return Err(ArtifactError::Truncated {
                offset: r.pos,
                needed: body_len.saturating_sub(r.remaining() as u64) as usize,
            });
        }
        if r.remaining() > body_len as usize {
            return Err(r.malformed(format!(
                "{} trailing bytes after the declared body",
                r.remaining() - body_len as usize
            )));
        }
        let body = r.take(body_len as usize)?;
        let computed = fnv1a64(body);
        if computed != stored_hash {
            return Err(ArtifactError::ChecksumMismatch {
                stored: stored_hash,
                computed,
            });
        }

        let mut r = Reader::with_base(body, 28);
        let mut art = Artifact::new();
        let mut last_tag = 0u8;
        let mut seen_meta = false;
        while r.remaining() > 0 {
            let tag = r.u8()?;
            if tag <= last_tag {
                return Err(
                    r.malformed(format!("section tag {tag} out of order (after {last_tag})"))
                );
            }
            last_tag = tag;
            match tag {
                SECTION_META => {
                    seen_meta = true;
                    let count = r.counted(6)?; // key len + value tag + ≥1
                    for _ in 0..count {
                        let key = r.string()?;
                        let vtag = r.u8()?;
                        let value = match vtag {
                            0 => MetaValue::Str(r.string()?),
                            1 => MetaValue::U64(r.u64()?),
                            2 => MetaValue::F64(f64::from_bits(r.u64()?)),
                            3 => MetaValue::Bool(r.bool()?),
                            t => return Err(r.malformed(format!("unknown meta value tag {t}"))),
                        };
                        art.meta.push((key, value));
                    }
                }
                SECTION_TENSORS => {
                    let count = r.counted(6)?;
                    for _ in 0..count {
                        art.tensors.push(r.tensor()?);
                    }
                }
                SECTION_STATE => {
                    let count = r.counted(12)?;
                    for _ in 0..count {
                        let name = r.string()?;
                        let data = r.f32s()?;
                        art.state.push(StateEntry { name, data });
                    }
                }
                SECTION_QUANT => {
                    let count = r.counted(14)?;
                    for _ in 0..count {
                        let name = r.string()?;
                        let bits = r.u8()?;
                        let (flag, groups) = (r.u8()?, r.u64()?);
                        if (flag, groups) != (0, 1) {
                            return Err(r.malformed(format!(
                                "quantization grid of `{name}` has granularity {flag} with \
                                 {groups} groups; only per-tensor (0, 1) is supported"
                            )));
                        }
                        let bin_width = r.f32()?;
                        art.quant.push(QuantEntry {
                            name,
                            bits,
                            bin_width,
                        });
                    }
                }
                SECTION_RESUME => art.resume = Some(r.take(r.remaining())?.to_vec()),
                t => return Err(r.malformed(format!("unknown section tag {t}"))),
            }
        }
        if !seen_meta {
            return Err(r.malformed("artifact body carries no META section".into()));
        }
        Ok(art)
    }

    /// Encodes and writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.as_ref().display())))
    }

    /// Reads and decodes an artifact from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failures or any decode
    /// error from [`Artifact::from_bytes`].
    pub fn load(path: impl AsRef<Path>) -> Result<Artifact> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Artifact::from_bytes(&bytes)
    }

    /// Human-readable header/provenance dump of the container — the body
    /// of `hero artifact inspect`, whose `resume:` line the owner of the
    /// RESUME schema appends.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let bytes = self.to_bytes();
        let mut out = String::new();
        let _ = writeln!(out, "HERO artifact v{VERSION}");
        let _ = writeln!(out, "  bytes: {}", bytes.len());
        let _ = writeln!(out, "  body hash (fnv1a64): {:016x}", fnv1a64(&bytes[28..]));
        let _ = writeln!(out, "  meta ({} entries):", self.meta.len());
        for (k, v) in &self.meta {
            let _ = writeln!(out, "    {k} = {v}");
        }
        let _ = writeln!(
            out,
            "  tensors: {} ({} scalars)",
            self.tensors.len(),
            self.num_scalars()
        );
        for t in &self.tensors {
            let _ = writeln!(out, "    {} kind={} dims={:?}", t.name, t.kind, t.dims);
        }
        let _ = writeln!(out, "  state buffers: {}", self.state.len());
        for s in &self.state {
            let _ = writeln!(out, "    {} len={}", s.name, s.data.len());
        }
        if !self.quant.is_empty() {
            let _ = writeln!(out, "  quantization ({} tensors):", self.quant.len());
            for q in &self.quant {
                let _ = writeln!(out, "    {} bits={} per-tensor groups=1", q.name, q.bits);
            }
        }
        out
    }
}

// --- encoding primitives ------------------------------------------------
//
// Every field is little-endian; floats are written as their IEEE-754 bits.
// Exported so the owner of the RESUME section's schema encodes it with
// the same primitives as the container.

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as its exact bit pattern (NaN payloads survive).
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    buf.reserve(vs.len() * 4);
    for &v in vs {
        put_f32(buf, v);
    }
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends a named tensor: name, kind, rank, dims and the values.
pub fn put_tensor(buf: &mut Vec<u8>, t: &TensorEntry) {
    put_str(buf, &t.name);
    buf.push(t.kind);
    buf.push(t.dims.len() as u8);
    for &d in &t.dims {
        put_u64(buf, d);
    }
    put_u64(buf, t.data.len() as u64);
    put_f32s(buf, &t.data);
}

// --- bounded decoding -----------------------------------------------------

/// Bounds-checked decoding cursor, the inverse of the `put_*` primitives.
/// No read panics or allocates more than the remaining input could hold;
/// each failure is a typed [`ArtifactError`] whose offset counts from the
/// start of the buffer the reader was made over.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            base: 0,
        }
    }

    fn with_base(buf: &'a [u8], base: usize) -> Self {
        Reader { buf, pos: 0, base }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A [`ArtifactError::Malformed`] at the cursor.
    pub fn malformed(&self, what: String) -> ArtifactError {
        ArtifactError::Malformed {
            offset: self.base + self.pos,
            what,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                offset: self.base + self.pos,
                needed: n - self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// A boolean byte (0 or 1; anything else is malformed).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.malformed(format!("boolean field holds {b}"))),
        }
    }

    fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// An `f32` from its bit pattern.
    pub fn f32(&mut self) -> Result<f32> {
        let b = self.take(4)?;
        Ok(f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
    }

    /// Reads a `u32` element count and validates that
    /// `count × min_entry_bytes` could still fit in the remaining input —
    /// the guard that turns length-field lies into clean errors instead of
    /// huge allocations.
    pub fn counted(&mut self, min_entry_bytes: usize) -> Result<usize> {
        let count = u64::from(self.u32()?);
        let need = count.checked_mul(min_entry_bytes as u64);
        match need {
            Some(n) if n <= self.remaining() as u64 => Ok(count as usize),
            _ => Err(self.malformed(format!(
                "count {count} × ≥{min_entry_bytes} bytes exceeds the {} remaining",
                self.remaining()
            ))),
        }
    }

    /// A string written by [`put_str`], capped at [`MAX_STR`] bytes.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > MAX_STR {
            return Err(self.malformed(format!("string of {len} bytes exceeds cap {MAX_STR}")));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| self.malformed("string field is not UTF-8".into()))
    }

    fn f32s(&mut self) -> Result<Vec<f32>> {
        let len = self.u64()?;
        let need = len.checked_mul(4);
        match need {
            Some(n) if n <= self.remaining() as u64 => {}
            _ => {
                return Err(self.malformed(format!(
                    "f32 run of {len} elements exceeds the {} bytes remaining",
                    self.remaining()
                )))
            }
        }
        let raw = self.take(len as usize * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
            .collect())
    }

    /// A tensor written by [`put_tensor`], its values checked against its
    /// dims.
    pub fn tensor(&mut self) -> Result<TensorEntry> {
        let name = self.string()?;
        let kind = self.u8()?;
        let rank = self.u8()? as usize;
        if rank > MAX_RANK {
            return Err(self.malformed(format!("tensor rank {rank} exceeds cap {MAX_RANK}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.u64()?);
        }
        let numel = dims
            .iter()
            .try_fold(1u64, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| self.malformed("tensor dims overflow".into()))?;
        let data = self.f32s()?;
        if data.len() as u64 != numel {
            return Err(self.malformed(format!(
                "tensor `{name}` declares dims {dims:?} ({numel} scalars) but carries {}",
                data.len()
            )));
        }
        Ok(TensorEntry {
            name,
            kind,
            dims,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut art = Artifact::new();
        art.set_meta("format", MetaValue::Str("hero-artifact".into()));
        art.set_meta("train.seed", MetaValue::U64(7));
        art.set_meta("train.lr", MetaValue::F64(0.1));
        art.set_meta("train.augment.hflip", MetaValue::Bool(true));
        art.tensors.push(TensorEntry {
            name: "fc.weight".into(),
            kind: 0,
            dims: vec![2, 3],
            data: vec![1.0, -2.0, 0.5, f32::NAN, 4.0, 0.0],
        });
        art.state.push(StateEntry {
            name: "bn.running_mean".into(),
            data: vec![0.25, -0.25],
        });
        art.quant.push(QuantEntry {
            name: "fc.weight".into(),
            bits: 4,
            bin_width: 0.125,
        });
        // Opaque to this crate: stored and written back as is.
        art.resume = Some(vec![3, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0x7F]);
        art
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let art = sample();
        let bytes = art.to_bytes();
        let back = Artifact::from_bytes(&bytes).unwrap();
        // Byte identity is the contract; struct equality would be foiled
        // by the deliberate NaN fields (NaN != NaN).
        assert_eq!(back.to_bytes(), bytes);

        let mut nan_free = sample();
        nan_free.tensors[0].data[3] = 3.0;
        let back = Artifact::from_bytes(&nan_free.to_bytes()).unwrap();
        assert_eq!(back, nan_free);
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let art = sample();
        let back = Artifact::from_bytes(&art.to_bytes()).unwrap();
        assert_eq!(
            back.tensors[0].data[3].to_bits(),
            art.tensors[0].data[3].to_bits()
        );
        assert_eq!(back.resume, art.resume, "RESUME bytes come back as stored");
    }

    #[test]
    fn only_per_tensor_quant_grids_decode() {
        let bytes = sample().to_bytes();
        // The QUANT entry's granularity flag sits after its name and bits;
        // its group count follows.
        let name = b"fc.weight";
        let at = bytes.windows(name.len()).rposition(|w| w == name).unwrap() + name.len() + 1;
        assert_eq!(&bytes[at..at + 9], &[0, 1, 0, 0, 0, 0, 0, 0, 0]);
        for (offset, value) in [(0, 1u8), (1, 2)] {
            let mut bad = bytes.clone();
            bad[at + offset] = value;
            let hash = fnv1a64(&bad[28..]);
            bad[20..28].copy_from_slice(&hash.to_le_bytes());
            assert!(
                matches!(
                    Artifact::from_bytes(&bad),
                    Err(ArtifactError::Malformed { .. })
                ),
                "byte {offset} of the grid header set to {value}"
            );
        }
    }

    #[test]
    fn meta_accessors_find_typed_entries() {
        let art = sample();
        assert_eq!(art.meta_str("format"), Some("hero-artifact"));
        assert_eq!(art.meta_u64("train.seed"), Some(7));
        assert_eq!(art.meta_f64("train.lr"), Some(0.1));
        assert_eq!(art.meta_bool("train.augment.hflip"), Some(true));
        assert_eq!(art.meta_str("train.seed"), None, "type-checked access");
        assert_eq!(art.meta("missing"), None);
    }

    #[test]
    fn set_meta_replaces_in_place() {
        let mut art = sample();
        let order_before: Vec<String> = art.meta.iter().map(|(k, _)| k.clone()).collect();
        art.set_meta("train.seed", MetaValue::U64(9));
        let order_after: Vec<String> = art.meta.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(order_before, order_after, "replacement preserves order");
        assert_eq!(art.meta_u64("train.seed"), Some(9));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Artifact::from_bytes(&bytes), Err(ArtifactError::BadMagic));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(
            Artifact::from_bytes(&bytes),
            Err(ArtifactError::UnsupportedVersion(2))
        );
    }

    #[test]
    fn bit_flip_fails_checksum() {
        let mut bytes = sample().to_bytes();
        let mid = 28 + (bytes.len() - 28) / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 12, 27, 40, bytes.len() - 1] {
            let err = Artifact::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ArtifactError::Truncated { .. } | ArtifactError::BadMagic
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Artifact::from_bytes(&bytes),
            Err(ArtifactError::Malformed { .. })
        ));
    }

    #[test]
    fn empty_artifact_round_trips() {
        let art = Artifact::new();
        let back = Artifact::from_bytes(&art.to_bytes()).unwrap();
        assert_eq!(back, art);
    }

    #[test]
    fn describe_mentions_key_facts() {
        let d = sample().describe();
        assert!(d.contains("HERO artifact v1"));
        assert!(d.contains("train.seed = 7"));
        assert!(d.contains("fc.weight"));
        assert!(d.contains("fc.weight bits=4 per-tensor groups=1"));
        assert!(d.contains("bn.running_mean"));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
