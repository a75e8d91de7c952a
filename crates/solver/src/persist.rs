//! Crash-safe on-disk persistence for the [`SharedCache`].
//!
//! The shared query cache is the steady state of a long-lived checker — on
//! the bundled designs a few dozen alpha-invariant entries answer hundreds
//! of queries — so losing it between runs means paying the cold-start cost
//! every time. This module gives it a versioned, checksummed binary image:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"LILACSHC"
//!      8     4  format version (little-endian u32, currently 1)
//!     12     8  payload length in bytes (little-endian u64)
//!     20     8  FNV-1a checksum of the payload (little-endian u64)
//!     28     —  payload: buckets of (hash, facts, goal, outcome) entries
//! ```
//!
//! The contract is *never a crash, never a wrong answer*: loading validates
//! magic, version, length, and checksum before touching the payload, and
//! the payload reader bounds-checks every field, so a truncated, bit-flipped
//! or version-bumped file is reported as a typed [`CacheLoadError`] — and
//! [`SharedCache::load_or_quarantine`] turns that report into the recovery
//! policy: move the bad file aside (`<path>.quarantined`) and start cold.
//! A cache only ever accelerates; rebuilding it cold costs time, not
//! correctness.
//!
//! No external serialization crate is available in the build image, so the
//! encoding is hand-rolled little-endian: strings are length-prefixed UTF-8,
//! and [`Pred`]/[`LinExpr`]/[`Term`]/[`Model`] nest the obvious way.

use crate::alpha;
use crate::expr::{LinExpr, Term};
use crate::model::Model;
use crate::pred::Pred;
use crate::solve::{Outcome, SharedCache};
use lilac_util::fnv::fnv1a;
use lilac_util::intern::Symbol;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic prefix of a serialized cache image.
pub const CACHE_MAGIC: &[u8; 8] = b"LILACSHC";
/// Current format version.
pub const CACHE_VERSION: u32 = 1;
const HEADER_LEN: usize = 28;

/// Why a serialized cache image was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheLoadError {
    /// The file does not start with [`CACHE_MAGIC`].
    BadMagic,
    /// The file's format version is not [`CACHE_VERSION`].
    UnsupportedVersion(u32),
    /// The file is shorter than its header claims.
    Truncated,
    /// The payload checksum does not match.
    ChecksumMismatch,
    /// The payload parsed inconsistently (should be unreachable behind a
    /// valid checksum; kept as defense in depth).
    Malformed(&'static str),
    /// The file could not be read at all.
    Io(String),
}

impl fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheLoadError::BadMagic => f.write_str("not a lilac cache file (bad magic)"),
            CacheLoadError::UnsupportedVersion(v) => {
                write!(f, "unsupported cache format version {v} (expected {CACHE_VERSION})")
            }
            CacheLoadError::Truncated => f.write_str("cache file is truncated"),
            CacheLoadError::ChecksumMismatch => f.write_str("cache payload checksum mismatch"),
            CacheLoadError::Malformed(what) => write!(f, "malformed cache payload: {what}"),
            CacheLoadError::Io(e) => write!(f, "cache file unreadable: {e}"),
        }
    }
}

impl std::error::Error for CacheLoadError {}

/// What [`SharedCache::load_or_quarantine`] found on disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheLoadStatus {
    /// No cache file existed; starting cold.
    Missing,
    /// The image validated and loaded.
    Loaded {
        /// Entries restored.
        entries: usize,
    },
    /// The image failed validation; it was moved aside and the cache starts
    /// cold.
    Quarantined {
        /// Why the image was rejected.
        error: CacheLoadError,
        /// Where the bad file was moved (`None` if even the move failed and
        /// the file was deleted instead).
        moved_to: Option<PathBuf>,
    },
}

// ---------------------------------------------------------------------------
// Generic checksummed envelope
// ---------------------------------------------------------------------------

/// Wraps a serialized payload in the self-validating envelope shared by
/// every on-disk image in the workspace (the solver's query cache, the
/// service's report cache): magic, version, payload length, FNV-1a checksum,
/// then the payload itself. Equal payloads produce equal images.
pub fn seal_image(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut image = Vec::with_capacity(HEADER_LEN + payload.len());
    image.extend_from_slice(magic);
    image.extend_from_slice(&version.to_le_bytes());
    image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    image.extend_from_slice(&fnv1a(0, payload).to_le_bytes());
    image.extend_from_slice(payload);
    image
}

/// Validates an envelope produced by [`seal_image`] under the same magic and
/// version and returns the payload slice.
///
/// # Errors
///
/// Wrong magic, unsupported version, truncation, trailing bytes, and
/// checksum mismatch each surface as their [`CacheLoadError`] variant; this
/// function never panics on bad input.
pub fn open_image<'a>(
    magic: &[u8; 8],
    version: u32,
    bytes: &'a [u8],
) -> Result<&'a [u8], CacheLoadError> {
    if bytes.len() < HEADER_LEN {
        // Distinguish "cut short" from "never ours": a proper prefix of the
        // magic still reads as truncation.
        let head = &bytes[..bytes.len().min(8)];
        return if magic.starts_with(head) {
            Err(CacheLoadError::Truncated)
        } else {
            Err(CacheLoadError::BadMagic)
        };
    }
    if &bytes[0..8] != magic {
        return Err(CacheLoadError::BadMagic);
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != version {
        return Err(CacheLoadError::UnsupportedVersion(found));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() < payload_len {
        return Err(CacheLoadError::Truncated);
    }
    if payload.len() > payload_len {
        return Err(CacheLoadError::Malformed("trailing bytes after payload"));
    }
    if fnv1a(0, payload) != checksum {
        return Err(CacheLoadError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Writes an image to `path` via a sibling temp file and an atomic rename,
/// so a crash mid-write cannot leave a half-written image under the real
/// name.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_image(path: &Path, image: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, image)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Moves an invalid image aside to `<path>.quarantined`, deleting it if even
/// the move fails. Returns where the bad file went (`None` if deleted).
pub fn quarantine_image(path: &Path) -> Option<PathBuf> {
    let quarantine = quarantine_path(path);
    match std::fs::rename(path, &quarantine) {
        Ok(()) => Some(quarantine),
        Err(_) => {
            let _ = std::fs::remove_file(path);
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
    fn symbol(&mut self, s: Symbol) {
        self.str(s.as_str());
    }
    fn term(&mut self, t: &Term) {
        match t {
            Term::Var(name) => {
                self.u8(0);
                self.symbol(*name);
            }
            Term::App { func, args } => {
                self.u8(1);
                self.symbol(*func);
                self.u32(args.len() as u32);
                for a in args {
                    self.lin_expr(a);
                }
            }
        }
    }
    fn lin_expr(&mut self, e: &LinExpr) {
        self.i64(e.constant_part());
        self.u32(e.term_count() as u32);
        for (term, coeff) in e.terms() {
            self.term(term);
            self.i64(coeff);
        }
    }
    fn pred(&mut self, p: &Pred) {
        match p {
            Pred::True => self.u8(0),
            Pred::False => self.u8(1),
            Pred::Le(e) => {
                self.u8(2);
                self.lin_expr(e);
            }
            Pred::Eq(e) => {
                self.u8(3);
                self.lin_expr(e);
            }
            Pred::Not(inner) => {
                self.u8(4);
                self.pred(inner);
            }
            Pred::And(ps) => {
                self.u8(5);
                self.u32(ps.len() as u32);
                for q in ps {
                    self.pred(q);
                }
            }
            Pred::Or(ps) => {
                self.u8(6);
                self.u32(ps.len() as u32);
                for q in ps {
                    self.pred(q);
                }
            }
        }
    }
    fn model(&mut self, m: &Model) {
        self.u32(m.len() as u32);
        for (term, value) in m.iter() {
            self.term(term);
            self.i64(value);
        }
    }
    fn outcome(&mut self, o: &Outcome) {
        match o {
            Outcome::Proved => self.u8(0),
            Outcome::Disproved(m) => {
                self.u8(1);
                self.model(m);
            }
            Outcome::Unknown => self.u8(2),
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

type Parse<T> = Result<T, CacheLoadError>;

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Parse<&'a [u8]> {
        let end = self.at.checked_add(n).ok_or(CacheLoadError::Malformed("length overflow"))?;
        if end > self.bytes.len() {
            return Err(CacheLoadError::Malformed("payload ends mid-field"));
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Parse<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Parse<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Parse<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn i64(&mut self) -> Parse<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    /// A collection length, sanity-capped against the bytes that remain so a
    /// hostile length cannot force a huge allocation.
    fn len(&mut self) -> Parse<usize> {
        let n = self.u32()? as usize;
        if n > self.bytes.len().saturating_sub(self.at) {
            return Err(CacheLoadError::Malformed("length exceeds remaining payload"));
        }
        Ok(n)
    }
    fn str(&mut self) -> Parse<&'a str> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| CacheLoadError::Malformed("string is not UTF-8"))
    }
    fn symbol(&mut self) -> Parse<Symbol> {
        Ok(Symbol::intern(self.str()?))
    }
    fn term(&mut self) -> Parse<Term> {
        match self.u8()? {
            0 => Ok(Term::Var(self.symbol()?)),
            1 => {
                let func = self.symbol()?;
                let argc = self.len()?;
                let mut args = Vec::with_capacity(argc.min(64));
                for _ in 0..argc {
                    args.push(self.lin_expr()?);
                }
                Ok(Term::App { func, args })
            }
            _ => Err(CacheLoadError::Malformed("unknown term tag")),
        }
    }
    fn lin_expr(&mut self) -> Parse<LinExpr> {
        let constant = self.i64()?;
        let n = self.len()?;
        let mut expr = LinExpr::constant(constant);
        for _ in 0..n {
            let term = self.term()?;
            let coeff = self.i64()?;
            expr.add_term(term, coeff);
        }
        Ok(expr)
    }
    fn pred(&mut self) -> Parse<Pred> {
        match self.u8()? {
            0 => Ok(Pred::True),
            1 => Ok(Pred::False),
            2 => Ok(Pred::Le(self.lin_expr()?)),
            3 => Ok(Pred::Eq(self.lin_expr()?)),
            4 => Ok(Pred::Not(Box::new(self.pred()?))),
            5 => {
                let n = self.len()?;
                let mut ps = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    ps.push(self.pred()?);
                }
                Ok(Pred::And(ps))
            }
            6 => {
                let n = self.len()?;
                let mut ps = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    ps.push(self.pred()?);
                }
                Ok(Pred::Or(ps))
            }
            _ => Err(CacheLoadError::Malformed("unknown predicate tag")),
        }
    }
    fn model(&mut self) -> Parse<Model> {
        let n = self.len()?;
        let mut model = Model::new();
        for _ in 0..n {
            let term = self.term()?;
            let value = self.i64()?;
            model.assign(term, value);
        }
        Ok(model)
    }
    fn outcome(&mut self) -> Parse<Outcome> {
        match self.u8()? {
            0 => Ok(Outcome::Proved),
            1 => Ok(Outcome::Disproved(self.model()?)),
            2 => Ok(Outcome::Unknown),
            _ => Err(CacheLoadError::Malformed("unknown outcome tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// SharedCache entry points
// ---------------------------------------------------------------------------

impl SharedCache {
    /// Serializes the cache to a self-validating byte image (see the module
    /// docs for the layout). Equal cache contents produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let snapshot = self.snapshot();
        let mut w = Writer { out: Vec::new() };
        w.u64(snapshot.len() as u64);
        for (hash, bucket) in &snapshot {
            w.u64(*hash);
            w.u32(bucket.len() as u32);
            for (facts, goal, outcome) in bucket {
                w.u32(facts.len() as u32);
                for fact in facts {
                    w.pred(fact);
                }
                w.pred(goal);
                w.outcome(outcome);
            }
        }
        seal_image(CACHE_MAGIC, CACHE_VERSION, &w.out)
    }

    /// Validates and deserializes an image produced by
    /// [`SharedCache::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any header or payload inconsistency — wrong magic, unsupported
    /// version, truncation, checksum mismatch, malformed field — is returned
    /// as a [`CacheLoadError`]; this function never panics on bad input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SharedCache, CacheLoadError> {
        let payload = open_image(CACHE_MAGIC, CACHE_VERSION, bytes)?;
        let mut r = Reader { bytes: payload, at: 0 };
        let cache = SharedCache::new();
        let buckets = r.u64()?;
        for _ in 0..buckets {
            // The stored bucket hash is only a grouping artifact of the
            // writing process: [`alpha::query_hash`] is interner-independent
            // but runs through the standard library's `DefaultHasher`, whose
            // algorithm is not guaranteed stable across Rust releases.
            // Recomputing the alpha-invariant hash here re-buckets every
            // entry for *this* build's hasher, so a cache written by one run
            // still hits in the next.
            let _stored_hash = r.u64()?;
            let entries = r.len()?;
            for _ in 0..entries {
                let fact_count = r.len()?;
                let mut facts = Vec::with_capacity(fact_count.min(256));
                for _ in 0..fact_count {
                    facts.push(r.pred()?);
                }
                let goal = r.pred()?;
                let outcome = r.outcome()?;
                let hash = {
                    let mut state = std::collections::hash_map::DefaultHasher::new();
                    alpha::query_hash(facts.iter().map(alpha::fact_hash), &goal, &mut state);
                    std::hash::Hasher::finish(&state)
                };
                cache.insert_raw(hash, facts, goal, outcome);
            }
        }
        if r.at != payload.len() {
            return Err(CacheLoadError::Malformed("trailing bytes after last entry"));
        }
        Ok(cache)
    }

    /// Writes the cache image to `path` (via a sibling temp file and an
    /// atomic rename, so a crash mid-write cannot leave a half-written
    /// image under the real name).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<usize> {
        let entries = self.len();
        save_image(path, &self.to_bytes())?;
        Ok(entries)
    }

    /// Reads and validates a cache image from `path`.
    ///
    /// # Errors
    ///
    /// Filesystem errors surface as [`CacheLoadError::Io`]; validation
    /// failures as their specific variants.
    pub fn load(path: &Path) -> Result<SharedCache, CacheLoadError> {
        let bytes = std::fs::read(path).map_err(|e| CacheLoadError::Io(e.to_string()))?;
        SharedCache::from_bytes(&bytes)
    }

    /// The recovery policy around [`SharedCache::load`]: a missing file
    /// starts cold, a valid image loads warm, and an invalid image is moved
    /// aside to `<path>.quarantined` (deleted if even the move fails) before
    /// starting cold. Never fails, never panics: the worst outcome is an
    /// empty cache.
    pub fn load_or_quarantine(path: &Path) -> (SharedCache, CacheLoadStatus) {
        if !path.exists() {
            return (SharedCache::new(), CacheLoadStatus::Missing);
        }
        match SharedCache::load(path) {
            Ok(cache) => {
                let entries = cache.len();
                (cache, CacheLoadStatus::Loaded { entries })
            }
            Err(error) => {
                let moved_to = quarantine_image(path);
                (SharedCache::new(), CacheLoadStatus::Quarantined { error, moved_to })
            }
        }
    }
}

/// `<path>.quarantined` (appended, not replacing the extension, so distinct
/// cache files quarantine to distinct names).
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".quarantined");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{Solver, SolverConfig};

    /// A cache with real entries: drive a few queries through a solver
    /// configured to share it.
    fn populated_cache() -> SharedCache {
        let shared = SharedCache::new();
        let config = SolverConfig { shared_cache: Some(shared.clone()), ..SolverConfig::default() };
        let mut solver = Solver::with_config(config);
        let l = LinExpr::var("L");
        let m = LinExpr::var("M");
        solver.assume(Pred::ge(l.clone(), LinExpr::constant(1)));
        solver.assume(Pred::eq(m.clone(), l.clone() + LinExpr::constant(2)));
        // One provable, one refutable (stores a model), one with an
        // uninterpreted application.
        assert!(solver.prove(&Pred::ge(m.clone(), LinExpr::constant(3))).is_proved());
        assert!(matches!(solver.prove(&Pred::eq(m.clone(), l.clone())), Outcome::Disproved(_)));
        let app = LinExpr::from_term(Term::app("Max::#O", vec![l.clone(), m.clone()]), 1);
        let _ = solver.prove(&Pred::ge(app, LinExpr::constant(0)));
        assert!(!shared.is_empty());
        shared
    }

    #[test]
    fn round_trip_preserves_every_entry() {
        let cache = populated_cache();
        let image = cache.to_bytes();
        let reloaded = SharedCache::from_bytes(&image).expect("image must validate");
        assert_eq!(cache.len(), reloaded.len());
        assert_eq!(
            cache.snapshot(),
            reloaded.snapshot(),
            "round trip must preserve hashes, facts, goals, and outcomes exactly"
        );
        // Serialization is deterministic: same contents, same bytes.
        assert_eq!(image, reloaded.to_bytes());
    }

    #[test]
    fn empty_cache_round_trips() {
        let cache = SharedCache::new();
        let reloaded = SharedCache::from_bytes(&cache.to_bytes()).expect("empty image validates");
        assert!(reloaded.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let image = populated_cache().to_bytes();
        for keep in [0, 4, HEADER_LEN - 1, HEADER_LEN, image.len() / 2, image.len() - 1] {
            let cut = &image[..keep];
            assert!(
                SharedCache::from_bytes(cut).is_err(),
                "truncation to {keep} bytes must be rejected"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let image = populated_cache().to_bytes();
        // Flipping any single bit anywhere — header or payload — must fail
        // validation (magic, version, length, or checksum catches it).
        for at in 0..image.len() {
            let mut bad = image.clone();
            bad[at] ^= 1 << (at % 8);
            assert!(
                SharedCache::from_bytes(&bad).is_err(),
                "bit flip at byte {at} must be rejected"
            );
        }
    }

    #[test]
    fn version_bump_is_detected() {
        let mut image = populated_cache().to_bytes();
        image[8] = image[8].wrapping_add(1);
        match SharedCache::from_bytes(&image) {
            Err(CacheLoadError::UnsupportedVersion(v)) => assert_eq!(v, CACHE_VERSION + 1),
            other => panic!("expected UnsupportedVersion, got {:?}", other.map(|c| c.len())),
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(SharedCache::from_bytes(&[]).is_err());
        assert!(SharedCache::from_bytes(b"not a cache").is_err());
        let mut rng = lilac_util::rng::Rng::new(42);
        for len in [1usize, 7, 27, 28, 64, 1024] {
            let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert!(SharedCache::from_bytes(&junk).is_err(), "random {len}-byte junk");
        }
    }

    #[test]
    fn save_load_and_quarantine_policy() {
        let dir = std::env::temp_dir().join(format!("lilac-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("cache.bin");

        // Missing file: cold start.
        let _ = std::fs::remove_file(&path);
        let (cache, status) = SharedCache::load_or_quarantine(&path);
        assert!(cache.is_empty());
        assert_eq!(status, CacheLoadStatus::Missing);

        // Save + load round trip.
        let cache = populated_cache();
        let written = cache.save(&path).expect("save");
        assert_eq!(written, cache.len());
        let (reloaded, status) = SharedCache::load_or_quarantine(&path);
        assert_eq!(status, CacheLoadStatus::Loaded { entries: cache.len() });
        assert_eq!(reloaded.snapshot(), cache.snapshot());

        // Corrupt the file on disk: quarantined, cold rebuild, bad image
        // moved aside.
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let (cold, status) = SharedCache::load_or_quarantine(&path);
        assert!(cold.is_empty(), "corrupted image must rebuild cold");
        match status {
            CacheLoadStatus::Quarantined { error, moved_to } => {
                assert_eq!(error, CacheLoadError::ChecksumMismatch);
                let moved = moved_to.expect("rename should succeed in temp dir");
                assert!(moved.exists(), "quarantined file must still exist");
                assert!(!path.exists(), "bad file must be moved off the live path");
                let _ = std::fs::remove_file(moved);
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
