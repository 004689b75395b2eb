//! Persistent compilation artifacts and the warm-start autotune cache.
//!
//! Every process used to recompile every plan and relearn every KMU
//! cost ratio from scratch, so a fleet-scale deployment paid that
//! warm-up on every boot. This module persists the two halves of that
//! warm-up to a content-addressed on-disk store:
//!
//! - **plan-time state** ([`PlanArtifact`]): the planner's variant table —
//!   which lowering runs on which sub-range of the input axis, the
//!   measured decision the probe/binary-search construction pays for. A
//!   store hit skips that construction; the work bodies and edge layouts
//!   are pure functions of the program, cheaper to rebuild than to
//!   decode, and are rebuilt on every load.
//! - **run-time *learned* state** ([`LearnedState`]): the kernel-management
//!   unit's per-variant [`VariantHistogram`] EWMA summaries. A reloaded
//!   manager's cost quotes start where the last process left off — and
//!   [`LearnedState::to_bytes`] lets one node ship them to peers.
//!   Circuit-breaker/quarantine state is deliberately **not** part of
//!   this type: quarantine reflects *this process's* observation of a
//!   possibly-transient device fault, and a fresh process must start
//!   with closed (healthy) breakers.
//!
//! Artifacts are keyed by ([`content hash`](crate::plan::content_hash),
//! [`DeviceSpec::fingerprint`](gpu_sim::DeviceSpec::fingerprint),
//! [`FORMAT_VERSION`]). No serde exists in this offline workspace, so the
//! format is a hand-rolled length-prefixed binary codec: a magic header,
//! a format-version field, the key (so a hash-named file cannot be
//! swapped for another), then length-prefixed records each carrying an
//! FNV-1a checksum. Corrupt, truncated or version-mismatched files are
//! *counted misses* ([`ArtifactStore`] telemetry), never a crash: every
//! decode path returns a typed [`ArtifactError`].
//!
//! Writes are atomic (write to a temp file in the same directory, then
//! rename), so a crashed writer can never leave a half-written artifact
//! that a later boot would read.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::kmu::VariantHistogram;
use crate::opt::segmentation::ReduceChoice;
use crate::plan::{OptTag, SegChoice, Variant};

/// Bump on any change to the on-disk layout *or* to the semantics of what
/// is persisted (variant-table meaning, histogram fields). Version-
/// mismatched files are rejected as misses and overwritten.
pub const FORMAT_VERSION: u32 = 5;

/// Magic bytes opening every artifact file.
const MAGIC: [u8; 4] = *b"ADPT";

/// File kind discriminants (byte after the version field).
const KIND_PLAN: u8 = 1;
const KIND_LEARNED: u8 = 2;

/// Why an artifact could not be used. Every decoder path returns this —
/// never a panic, never silent garbage.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem error reading or writing the store.
    Io(io::Error),
    /// The file does not open with the expected magic bytes.
    BadMagic,
    /// The file was written by a different format version.
    Version { found: u32, expected: u32 },
    /// The file's embedded key does not match the requested key (a
    /// renamed or hash-colliding file).
    KeyMismatch,
    /// The payload ended before a field could be read.
    Truncated,
    /// A record's checksum does not match its payload.
    Checksum,
    /// A decoded value is structurally invalid (unknown tag, non-finite
    /// histogram ratio, trailing bytes, wrong record count, ...).
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact io error: {e}"),
            ArtifactError::BadMagic => write!(f, "not an artifact file (bad magic)"),
            ArtifactError::Version { found, expected } => {
                write!(f, "artifact format v{found}, expected v{expected}")
            }
            ArtifactError::KeyMismatch => write!(f, "artifact key does not match request"),
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::Checksum => write!(f, "artifact checksum mismatch"),
            ArtifactError::Malformed(why) => write!(f, "malformed artifact: {why}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> ArtifactError {
        ArtifactError::Io(e)
    }
}

type Result<T> = std::result::Result<T, ArtifactError>;

/// FNV-1a 64-bit — the store's stable hash, used for record checksums and
/// (via [`crate::plan::content_hash`]) content addressing. Chosen over
/// `DefaultHasher` because artifacts outlive processes: the hash must be
/// identical across runs, builds and Rust versions.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The content address of one compiled program on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Structural hash of (program AST, compile options, input axis) —
    /// see [`crate::plan::content_hash`].
    pub content: u64,
    /// [`gpu_sim::DeviceSpec::fingerprint`] of the target device.
    pub device: u64,
}

impl ArtifactKey {
    fn stem(&self) -> String {
        format!("{:016x}-{:016x}", self.content, self.device)
    }
}

// ---------------------------------------------------------------------------
// Codec primitives
// ---------------------------------------------------------------------------

/// Little-endian append-only encoder.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Element count prefix (shared by every variable-length sequence).
    fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }
}

/// Bounds-checked little-endian reader over one record's payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(ArtifactError::Truncated)?;
        if end > self.buf.len() {
            return Err(ArtifactError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(ArtifactError::Malformed(format!("bool byte {b}"))),
        }
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ArtifactError::Malformed(format!("usize {v}")))
    }
    /// Element count, sanity-bounded by the bytes remaining (every element
    /// encodes to at least one byte) so a corrupted count cannot trigger a
    /// huge allocation.
    fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(ArtifactError::Truncated);
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Enum tags
// ---------------------------------------------------------------------------

fn opt_tag_tag(t: OptTag) -> u8 {
    match t {
        OptTag::MemoryRestructuring => 0,
        OptTag::NeighboringAccess => 1,
        OptTag::StreamReduction => 2,
        OptTag::IntraActorParallelization => 3,
        OptTag::VerticalIntegration => 4,
        OptTag::HorizontalIntegration => 5,
        OptTag::ThreadIntegration => 6,
    }
}

fn opt_tag_of(tag: u8) -> Result<OptTag> {
    Ok(match tag {
        0 => OptTag::MemoryRestructuring,
        1 => OptTag::NeighboringAccess,
        2 => OptTag::StreamReduction,
        3 => OptTag::IntraActorParallelization,
        4 => OptTag::VerticalIntegration,
        5 => OptTag::HorizontalIntegration,
        6 => OptTag::ThreadIntegration,
        t => return Err(ArtifactError::Malformed(format!("opt tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Variant table
// ---------------------------------------------------------------------------

fn enc_choice(e: &mut Enc, c: &SegChoice) {
    match c {
        SegChoice::Map { coarsen } => {
            e.u8(0);
            e.usize(*coarsen);
        }
        SegChoice::Reduce { choice } => {
            e.u8(1);
            match choice {
                ReduceChoice::TwoKernel { block_dim } => {
                    e.u8(0);
                    e.u32(*block_dim);
                }
                ReduceChoice::OneKernel {
                    arrays_per_block,
                    block_dim,
                } => {
                    e.u8(1);
                    e.usize(*arrays_per_block);
                    e.u32(*block_dim);
                }
                ReduceChoice::ThreadPerArray { block_dim } => {
                    e.u8(2);
                    e.u32(*block_dim);
                }
            }
        }
        SegChoice::Stencil { tile } => {
            e.u8(2);
            e.usize(tile.0);
            e.usize(tile.1);
        }
        SegChoice::HFused { fused } => {
            e.u8(3);
            e.bool(*fused);
        }
        SegChoice::MapSiblings => e.u8(4),
        SegChoice::Opaque => e.u8(5),
    }
}

fn dec_choice(d: &mut Dec<'_>) -> Result<SegChoice> {
    Ok(match d.u8()? {
        0 => SegChoice::Map {
            coarsen: d.usize()?,
        },
        1 => SegChoice::Reduce {
            choice: match d.u8()? {
                0 => ReduceChoice::TwoKernel {
                    block_dim: d.u32()?,
                },
                1 => ReduceChoice::OneKernel {
                    arrays_per_block: d.usize()?,
                    block_dim: d.u32()?,
                },
                2 => ReduceChoice::ThreadPerArray {
                    block_dim: d.u32()?,
                },
                t => return Err(ArtifactError::Malformed(format!("reduce tag {t}"))),
            },
        },
        2 => SegChoice::Stencil {
            tile: (d.usize()?, d.usize()?),
        },
        3 => SegChoice::HFused { fused: d.bool()? },
        4 => SegChoice::MapSiblings,
        5 => SegChoice::Opaque,
        t => return Err(ArtifactError::Malformed(format!("choice tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Artifact payload types
// ---------------------------------------------------------------------------

/// The plan-time half of a compiled program: the planner's variant table
/// for (program, device, axis, options), independent of any launch.
/// Paired at load time with a freshly rebuilt structure — the segment
/// list, the lowered work bodies and the edge layouts — to reconstitute a
/// [`CompiledProgram`](crate::CompiledProgram) without re-planning.
#[derive(Debug, Clone)]
pub struct PlanArtifact {
    /// The planner's variant table, ordered by `lo`.
    pub(crate) variants: Vec<Variant>,
}

impl PlanArtifact {
    pub(crate) fn new(variants: Vec<Variant>) -> PlanArtifact {
        PlanArtifact { variants }
    }

    /// Number of segments this plan was made for: one choice per segment
    /// in every variant.
    pub fn segment_count(&self) -> usize {
        self.variants.first().map_or(0, |v| v.choices.len())
    }

    /// Number of variants in the persisted table.
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }

    /// Exact on-disk size of this plan's artifact file in bytes — the
    /// variant table plus the file's framing, the per-device store
    /// footprint. Computed by encoding, never by touching the filesystem.
    pub fn byte_size(&self) -> usize {
        let key = ArtifactKey {
            content: 0,
            device: 0,
        };
        encode_file(KIND_PLAN, key, &[self.encode_record()]).len()
    }

    fn encode_record(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.count(self.variants.len());
        for v in &self.variants {
            e.i64(v.lo);
            e.i64(v.hi);
            e.count(v.choices.len());
            for c in &v.choices {
                enc_choice(&mut e, c);
            }
            e.count(v.tags.len());
            for &t in &v.tags {
                e.u8(opt_tag_tag(t));
            }
        }
        e.buf
    }

    fn decode_record(table: &[u8]) -> Result<PlanArtifact> {
        let mut d = Dec::new(table);
        let n_variants = d.count()?;
        let mut variants = Vec::with_capacity(n_variants);
        for _ in 0..n_variants {
            let lo = d.i64()?;
            let hi = d.i64()?;
            let n_choices = d.count()?;
            let mut choices = Vec::with_capacity(n_choices);
            for _ in 0..n_choices {
                choices.push(dec_choice(&mut d)?);
            }
            let n_tags = d.count()?;
            let mut tags = Vec::with_capacity(n_tags);
            for _ in 0..n_tags {
                tags.push(opt_tag_of(d.u8()?)?);
            }
            variants.push(Variant {
                lo,
                hi,
                choices,
                tags,
            });
        }
        if !d.done() {
            return Err(ArtifactError::Malformed(
                "trailing bytes in table record".into(),
            ));
        }
        Ok(PlanArtifact { variants })
    }

    /// Structural fit against a freshly rebuilt program structure: a
    /// variant table whose rows cover every segment and exactly tile
    /// `[lo, hi]`.
    pub(crate) fn fits(&self, segments: usize, lo: i64, hi: i64) -> bool {
        !self.variants.is_empty()
            && self.variants.iter().all(|v| v.choices.len() == segments)
            && self.variants.first().map(|v| v.lo) == Some(lo)
            && self.variants.last().map(|v| v.hi) == Some(hi)
            && self.variants.iter().all(|v| v.lo <= v.hi)
            && self.variants.windows(2).all(|w| w[0].hi + 1 == w[1].lo)
    }
}

/// The run-time *learned* state of a [`crate::KernelManager`]: the
/// per-variant measured-feedback histograms. This is exactly what a warm
/// boot should inherit — and exactly what a peer node can usefully import.
///
/// Deliberately **absent**: circuit-breaker/quarantine state, the logical
/// clock, and the variant boundaries (they belong to the plan). Quarantine
/// encodes "this device, in this process, is currently failing" — shipping
/// it forward would leave a healthy process refusing healthy variants.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedState {
    /// Per-variant measured-cost summaries, in variant order.
    pub histograms: Vec<VariantHistogram>,
}

impl LearnedState {
    fn encode_record(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.count(self.histograms.len());
        for h in &self.histograms {
            e.u64(h.samples);
            e.f64(h.ratio);
            e.f64(h.sum_rel_err());
        }
        e.buf
    }

    fn decode_record(payload: &[u8]) -> Result<LearnedState> {
        let mut d = Dec::new(payload);
        let n = d.count()?;
        let mut histograms = Vec::with_capacity(n);
        for _ in 0..n {
            let samples = d.u64()?;
            let ratio = d.f64()?;
            let sum_rel_err = d.f64()?;
            if !(ratio.is_finite() && ratio > 0.0) {
                return Err(ArtifactError::Malformed(format!("ratio {ratio}")));
            }
            if !(sum_rel_err.is_finite() && sum_rel_err >= 0.0) {
                return Err(ArtifactError::Malformed(format!(
                    "sum_rel_err {sum_rel_err}"
                )));
            }
            histograms.push(VariantHistogram::from_raw(samples, ratio, sum_rel_err));
        }
        if !d.done() {
            return Err(ArtifactError::Malformed(
                "trailing bytes in learned record".into(),
            ));
        }
        Ok(LearnedState { histograms })
    }

    /// Whether this learned state can seed a table of `variants` entries:
    /// one histogram per variant.
    pub fn fits(&self, variants: usize) -> bool {
        self.histograms.len() == variants
    }

    /// Serialize for shipping to a peer node (a self-contained artifact
    /// file image; the peer imports with [`LearnedState::from_bytes`]).
    pub fn to_bytes(&self, key: ArtifactKey) -> Vec<u8> {
        encode_file(KIND_LEARNED, key, &[self.encode_record()])
    }

    /// Decode a peer's exported learned state, verifying magic, version,
    /// key and checksums.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] the decoder can produce; never panics.
    pub fn from_bytes(bytes: &[u8], key: ArtifactKey) -> Result<LearnedState> {
        let records = decode_file(bytes, KIND_LEARNED, key)?;
        let [payload] = records.as_slice() else {
            return Err(ArtifactError::Malformed(format!(
                "expected 1 record, found {}",
                records.len()
            )));
        };
        LearnedState::decode_record(payload)
    }
}

// ---------------------------------------------------------------------------
// File framing
// ---------------------------------------------------------------------------

/// `MAGIC | version | kind | key | n_records | (len | payload | fnv)*`.
fn encode_file(kind: u8, key: ArtifactKey, records: &[Vec<u8>]) -> Vec<u8> {
    let mut e = Enc::default();
    e.buf.extend_from_slice(&MAGIC);
    e.u32(FORMAT_VERSION);
    e.u8(kind);
    e.u64(key.content);
    e.u64(key.device);
    e.count(records.len());
    for r in records {
        e.u64(r.len() as u64);
        e.buf.extend_from_slice(r);
        e.u64(fnv1a64(r));
    }
    e.buf
}

fn decode_file(bytes: &[u8], kind: u8, key: ArtifactKey) -> Result<Vec<Vec<u8>>> {
    let mut d = Dec::new(bytes);
    if d.take(4).map_err(|_| ArtifactError::BadMagic)? != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let found = d.u32()?;
    if found != FORMAT_VERSION {
        return Err(ArtifactError::Version {
            found,
            expected: FORMAT_VERSION,
        });
    }
    let found_kind = d.u8()?;
    if found_kind != kind {
        return Err(ArtifactError::Malformed(format!("file kind {found_kind}")));
    }
    if (d.u64()?, d.u64()?) != (key.content, key.device) {
        return Err(ArtifactError::KeyMismatch);
    }
    let n = d.count()?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let len = d.usize()?;
        let payload = d.take(len)?.to_vec();
        let sum = d.u64()?;
        if fnv1a64(&payload) != sum {
            return Err(ArtifactError::Checksum);
        }
        records.push(payload);
    }
    if !d.done() {
        return Err(ArtifactError::Malformed(
            "trailing bytes after records".into(),
        ));
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A content-addressed, versioned on-disk artifact store.
///
/// One directory holds two file families, both named by
/// `(content hash, device fingerprint)`:
///
/// - `<key>.plan` — [`PlanArtifact`]: the variant table;
/// - `<key>.kmu` — [`LearnedState`]: the per-variant histograms.
///
/// All methods are infallible in the "never crash the runtime" sense:
/// loads degrade to counted misses/rejects, and store operations report
/// (but callers may ignore) I/O errors. `&ArtifactStore` is `Sync`;
/// counters are relaxed atomics and file replacement is atomic
/// (temp + rename).
#[derive(Debug)]
pub struct ArtifactStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejects: AtomicU64,
}

impl ArtifactStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
        }
    }

    /// The store named by the `ADAPTIC_ARTIFACT_DIR` environment variable,
    /// or `None` when unset/empty (persistence disabled).
    pub fn from_env() -> Option<ArtifactStore> {
        match std::env::var("ADAPTIC_ARTIFACT_DIR") {
            Ok(dir) if !dir.is_empty() => Some(ArtifactStore::new(dir)),
            _ => None,
        }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads satisfied from disk.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that found nothing (cold).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Artifacts found but refused (corrupt/version/incompatible).
    pub fn rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }

    fn plan_path(&self, key: ArtifactKey) -> PathBuf {
        self.dir.join(format!("{}.plan", key.stem()))
    }

    fn learned_path(&self, key: ArtifactKey) -> PathBuf {
        self.dir.join(format!("{}.kmu", key.stem()))
    }

    /// Load-or-miss a file: absent files count a miss, unreadable or
    /// undecodable files count a reject; only a fully validated decode
    /// counts a hit.
    fn load<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&[u8]) -> Result<T>,
        valid: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode(&bytes) {
            Ok(v) if valid(&v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            _ => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Load the plan artifact for `key`, validated against a freshly
    /// rebuilt structure of `segments` segments over the axis `[lo, hi]`.
    /// Returns `None` (a counted miss or reject) on any problem.
    pub fn load_plan(
        &self,
        key: ArtifactKey,
        segments: usize,
        lo: i64,
        hi: i64,
    ) -> Option<PlanArtifact> {
        self.load(
            &self.plan_path(key),
            |bytes| {
                let records = decode_file(bytes, KIND_PLAN, key)?;
                let [table] = records.as_slice() else {
                    return Err(ArtifactError::Malformed(format!(
                        "expected 1 record, found {}",
                        records.len()
                    )));
                };
                PlanArtifact::decode_record(table)
            },
            |p| p.fits(segments, lo, hi),
        )
    }

    /// Persist a plan artifact (atomic replace).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the store's counters are untouched by
    /// writes.
    pub fn store_plan(&self, key: ArtifactKey, plan: &PlanArtifact) -> Result<()> {
        self.write_atomic(
            &self.plan_path(key),
            &encode_file(KIND_PLAN, key, &[plan.encode_record()]),
        )
    }

    /// Load the learned KMU state for `key`, validated against a table of
    /// `variants` entries.
    pub fn load_learned(&self, key: ArtifactKey, variants: usize) -> Option<LearnedState> {
        self.load(
            &self.learned_path(key),
            |bytes| {
                let records = decode_file(bytes, KIND_LEARNED, key)?;
                let [payload] = records.as_slice() else {
                    return Err(ArtifactError::Malformed(format!(
                        "expected 1 record, found {}",
                        records.len()
                    )));
                };
                LearnedState::decode_record(payload)
            },
            |l| l.fits(variants),
        )
    }

    /// Persist learned KMU state (atomic replace).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn store_learned(&self, key: ArtifactKey, learned: &LearnedState) -> Result<()> {
        self.write_atomic(
            &self.learned_path(key),
            &encode_file(KIND_LEARNED, key, &[learned.encode_record()]),
        )
    }

    /// Write-temp + rename so readers never observe a partial file.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ArtifactKey {
        ArtifactKey {
            content: 0x1122334455667788,
            device: 0x99aabbccddeeff00,
        }
    }

    fn learned() -> LearnedState {
        LearnedState {
            histograms: vec![
                VariantHistogram::from_raw(7, 1.25, 0.5),
                VariantHistogram::from_raw(2, 0.8, 0.1),
            ],
        }
    }

    #[test]
    fn learned_state_roundtrips_byte_for_byte() {
        let l = learned();
        let bytes = l.to_bytes(key());
        let back = LearnedState::from_bytes(&bytes, key()).unwrap();
        assert_eq!(back, l);
        // Re-serialization is bit-identical: the codec has one canonical
        // encoding per value.
        assert_eq!(back.to_bytes(key()), bytes);
    }

    #[test]
    fn learned_state_fits_checks_the_variant_count() {
        let l = learned();
        assert!(l.fits(2));
        assert!(!l.fits(3), "wrong variant count");
        assert!(!l.fits(1), "wrong variant count");
    }

    /// A learned file of format v4 — boundaries, then histograms carrying
    /// a moves-ago count — is a counted reject under v5, never a panic,
    /// and the next persist replaces it.
    #[test]
    fn v4_learned_file_is_a_counted_reject() {
        let dir = std::env::temp_dir().join(format!("adaptic_v4_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(&dir);

        let mut rec = Enc::default();
        rec.count(2);
        for (lo, hi) in [(1, 99), (100, 4096)] {
            rec.i64(lo);
            rec.i64(hi);
        }
        rec.count(2);
        for (samples, moves_ago, ratio, err) in [(7, 3, 1.25, 0.5), (2, 2, 0.8, 0.1)] {
            rec.u64(samples);
            rec.u64(moves_ago);
            rec.f64(ratio);
            rec.f64(err);
        }
        let mut e = Enc::default();
        e.buf.extend_from_slice(&MAGIC);
        e.u32(4);
        e.u8(KIND_LEARNED);
        e.u64(key().content);
        e.u64(key().device);
        e.count(1);
        e.u64(rec.buf.len() as u64);
        e.buf.extend_from_slice(&rec.buf);
        e.u64(fnv1a64(&rec.buf));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(store.learned_path(key()), &e.buf).unwrap();

        assert!(matches!(
            LearnedState::from_bytes(&e.buf, key()),
            Err(ArtifactError::Version {
                found: 4,
                expected: 5
            })
        ));
        assert!(store.load_learned(key(), 2).is_none());
        assert_eq!((store.hits(), store.rejects()), (0, 1));

        // The next persist overwrites it with a v5 file that loads.
        store.store_learned(key(), &learned()).unwrap();
        assert_eq!(store.load_learned(key(), 2), Some(learned()));
        assert_eq!(store.hits(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decoder_rejects_wrong_magic_version_key_and_kind() {
        let l = learned();
        let good = l.to_bytes(key());

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            LearnedState::from_bytes(&bad, key()),
            Err(ArtifactError::BadMagic)
        ));

        let mut bad = good.clone();
        bad[4] = bad[4].wrapping_add(1); // version field
        assert!(matches!(
            LearnedState::from_bytes(&bad, key()),
            Err(ArtifactError::Version { .. })
        ));

        let other = ArtifactKey {
            content: 1,
            device: 2,
        };
        assert!(matches!(
            LearnedState::from_bytes(&good, other),
            Err(ArtifactError::KeyMismatch)
        ));

        // A learned file presented as a plan file is a kind mismatch.
        assert!(decode_file(&good, KIND_PLAN, key()).is_err());
    }

    #[test]
    fn decoder_rejects_truncation_and_bit_flips() {
        let l = learned();
        let good = l.to_bytes(key());
        for cut in 0..good.len() {
            assert!(
                LearnedState::from_bytes(&good[..cut], key()).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // Flip one bit in the payload region: the checksum must catch it
        // (or a field validator must reject the mutated value).
        for byte in 25..good.len() {
            let mut bad = good.clone();
            bad[byte] ^= 0x01;
            assert!(
                LearnedState::from_bytes(&bad, key()).is_err(),
                "bit flip at byte {byte} decoded"
            );
        }
    }

    #[test]
    fn store_counts_misses_rejects_and_hits() {
        let dir = std::env::temp_dir().join(format!("adaptic_store_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(&dir);
        let l = learned();

        assert!(store.load_learned(key(), 2).is_none());
        assert_eq!(store.misses(), 1);

        store.store_learned(key(), &l).unwrap();
        let back = store.load_learned(key(), 2).unwrap();
        assert_eq!(back, l);
        assert_eq!(store.hits(), 1);

        // Structurally incompatible with the requesting table: reject.
        assert!(store.load_learned(key(), 5).is_none());
        assert_eq!(store.rejects(), 1);

        // Corrupt the file on disk: counted reject, never a panic.
        let path = store.learned_path(key());
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_learned(key(), 2).is_none());
        assert_eq!(store.rejects(), 2);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned test vectors: the content address must never drift
        // between builds, or every fleet artifact silently invalidates.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"adaptic"), 0x9be5001f999a6eb3);
    }
}
