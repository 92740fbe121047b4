//! The persistent, content-addressed, NPN-canonical result cache.
//!
//! # Key derivation
//!
//! A cache key identifies the *verdict-determining facet* of a job: the
//! canonical representative of the function under the cost-preserving NPN
//! subgroup ([`mm_boolfn::npn::canonicalize`]) plus one of two facets:
//!
//! - a minimize job's ladder shape and conflict limit
//!   ([`MinimizeRequest::cache_facet`]), answered by a [`CacheEntry`];
//! - a single `Rung` `(N_R, N_L, N_VS)`, the fixed-budget decision a
//!   `synthesize` job answers and a `faultsim` job synthesizes its
//!   circuit under, answered by a `RungEntry` (with no circuit when the
//!   rung is UNSAT).
//!
//! The key is the FNV-1a hash (two independent 64-bit streams, 32 hex
//! chars) of the facet's canonical JSON serialization; the two facets
//! serialize different fields, so they never share key material. Hashes
//! only *address* entries — every entry stores its full key material, and
//! a lookup compares it against the request, so a hash collision degrades
//! into a miss, never a wrong answer.
//!
//! # On-disk format
//!
//! `<dir>/entries/<key>.json`, written atomically
//! ([`mm_telemetry::atomic_write`]), two lines:
//!
//! ```text
//! {"cache_schema":1,"checksum":"<fnv1a64 of the payload line>"}
//! {...payload json...}
//! ```
//!
//! A reader validates the header schema and the payload checksum before
//! parsing the payload; any mismatch (torn write, truncation, bit flip,
//! schema bump) moves the file to `<dir>/quarantine/` and reports a miss.
//! [`ResultCache::open`] runs the same validation as a *recovery scan*
//! over every entry, deleting in-flight temp files a killed process left
//! behind ([`mm_telemetry::atomic::is_temp_artifact`]).
//!
//! An entry holds only what a reply reads. Payload fields a reader does
//! not know are ignored, so entries that still carry the device trace and
//! solver-call count earlier builds stored keep hitting under the same
//! schema version.
//!
//! A stored DRAT proof is parsed only by lookups that serve it: an
//! uncertified [`lookup`](ResultCache::lookup) checks the whole payload's
//! checksum but returns `proof: None` without parsing the proof text,
//! which on a megabyte proof is most of a hit's time.
//!
//! # Paranoid mode
//!
//! With [`paranoid`](ResultCache::with_paranoid), every hit's circuit is
//! re-executed exhaustively on the nominal device model
//! ([`mm_device::LineArray`]) before being served; a circuit that does not
//! reproduce its function row-for-row is quarantined and the job falls
//! through to a fresh solve. A poisoned cache can therefore never emit a
//! wrong answer, only cost time.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mm_boolfn::MultiOutputFn;
use mm_circuit::{MmCircuit, Schedule};
use mm_device::{ElectricalParams, LineArray};
use mm_sat::DratProof;
use mm_synth::request::{MinimizeMode, MinimizeRequest};
use mm_telemetry::atomic::is_temp_artifact;
use mm_telemetry::atomic_write;
use serde::{Deserialize, Serialize, Value};

use crate::metrics::ServiceMetrics;

/// Bump when [`CacheEntry`]'s serialization changes shape; readers
/// quarantine entries from other versions instead of guessing.
pub const CACHE_SCHEMA_VERSION: u64 = 1;

/// Seed of the device arrays paranoid verification re-executes hits on.
const DEVICE_SEED: u64 = 0xCAC4E;

/// FNV-1a 64-bit.
fn fnv1a64(bytes: &[u8], offset: u64) -> u64 {
    let mut h = offset;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content-address of one cacheable job facet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey(String);

impl CacheKey {
    /// Derives the key for `(canonical function, request facet)`.
    pub fn derive(canonical: &MultiOutputFn, request: &MinimizeRequest) -> Self {
        let (mode, max_conflicts) = request.cache_facet();
        Self::hash(&KeyMaterial {
            tables: table_bits(canonical),
            n_inputs: u64::from(canonical.n_inputs()),
            mode,
            max_conflicts,
        })
    }

    /// Derives the key for `(canonical function, rung)`.
    pub(crate) fn derive_rung(canonical: &MultiOutputFn, rung: Rung) -> Self {
        Self::hash(&RungKeyMaterial {
            tables: table_bits(canonical),
            n_inputs: u64::from(canonical.n_inputs()),
            rung,
        })
    }

    fn hash(material: &impl Serialize) -> Self {
        let material = serde_json::to_string(material).expect("key material serializes");
        let a = fnv1a64(material.as_bytes(), 0xcbf2_9ce4_8422_2325);
        let b = fnv1a64(material.as_bytes(), 0x6c62_272e_07bb_0142);
        Self(format!("{a:016x}{b:016x}"))
    }

    /// The hex form used as the entry file stem.
    pub fn as_hex(&self) -> &str {
        &self.0
    }
}

/// What a minimize key hashes: canonical truth tables + ladder facet.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct KeyMaterial {
    tables: Vec<String>,
    n_inputs: u64,
    mode: MinimizeMode,
    max_conflicts: Option<u64>,
}

/// What a rung key hashes: canonical truth tables + rung.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct RungKeyMaterial {
    tables: Vec<String>,
    n_inputs: u64,
    rung: Rung,
}

/// One fixed-budget point of the mixed-mode lattice: `N_R` R-ops, `N_L`
/// legs, `N_VS` V-steps per leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) struct Rung {
    /// R-op budget.
    pub(crate) n_rops: usize,
    /// Leg budget.
    pub(crate) n_legs: usize,
    /// Steps-per-leg budget.
    pub(crate) n_vsteps: usize,
}

/// A function's output tables as bitstrings (row 0 first), the stable
/// textual form used in key material and collision checks.
fn table_bits(f: &MultiOutputFn) -> Vec<String> {
    f.outputs()
        .iter()
        .map(|t| {
            (0..t.n_rows())
                .map(|q| if t.get(q) { '1' } else { '0' })
                .collect()
        })
        .collect()
}

/// `Value` accessors the shim does not provide.
fn value_u64(v: Option<&Value>) -> Option<u64> {
    match v {
        Some(Value::UInt(x)) => Some(*x),
        _ => None,
    }
}

fn value_str(v: Option<&Value>) -> Option<&str> {
    match v {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// One cached result: the canonical function, the request facet it
/// answers, and the canonical verdict a reply reads (circuit, optimality,
/// proof).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CacheEntry {
    /// The canonical representative the solver actually ran on.
    pub canonical: MultiOutputFn,
    /// Ladder shape of the cached run.
    pub mode: MinimizeMode,
    /// Conflict limit of the cached run (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// The minimal circuit for `canonical`, if one exists within budget.
    pub circuit: Option<MmCircuit>,
    /// Whether minimality was proved (UNSAT at the next smaller budget).
    pub proven_optimal: bool,
    /// The checker-accepted refutation of the rung below the optimum,
    /// when the run was certified and such a rung exists.
    pub proof: Option<DratProof>,
}

impl CacheEntry {
    /// Whether the stored key material matches the request — the
    /// collision guard behind content addressing. Compares truth tables,
    /// not [`MultiOutputFn`] equality: the function *name* is not key
    /// material (xor2 and xnor2 share one canonical entry, as do a named
    /// CLI function and the same tables sent over the wire).
    fn answers(&self, canonical: &MultiOutputFn, request: &MinimizeRequest) -> bool {
        let (mode, max_conflicts) = request.cache_facet();
        self.canonical.n_inputs() == canonical.n_inputs()
            && self.canonical.outputs() == canonical.outputs()
            && self.mode == mode
            && self.max_conflicts == max_conflicts
    }
}

/// One cached rung verdict: the circuit a cold solve of `rung` found for
/// `canonical`, or `None` when the rung is UNSAT.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct RungEntry {
    /// The canonical representative the solver actually ran on.
    pub(crate) canonical: MultiOutputFn,
    /// The rung it was solved at.
    pub(crate) rung: Rung,
    /// The rung's witness, `None` for an UNSAT rung.
    pub(crate) circuit: Option<MmCircuit>,
}

impl RungEntry {
    /// Whether the stored key material matches the lookup, as
    /// [`CacheEntry`]'s collision guard compares it.
    fn answers(&self, canonical: &MultiOutputFn, rung: Rung) -> bool {
        self.canonical.n_inputs() == canonical.n_inputs()
            && self.canonical.outputs() == canonical.outputs()
            && self.rung == rung
    }
}

/// A validated entry file of either facet.
enum Stored {
    Minimize(CacheEntry),
    Rung(RungEntry),
}

impl Stored {
    /// Reads a checksummed payload. Rung entries are the ones with a
    /// `rung` field. A minimize entry's proof is parsed only when `proof`
    /// is set and reads as `None` otherwise.
    fn from_payload(mut value: Value, proof: bool) -> Result<Self, serde::Error> {
        if value.get("rung").is_some() {
            return RungEntry::from_value(&value).map(Self::Rung);
        }
        if let (false, Value::Object(fields)) = (proof, &mut value) {
            if let Some((_, text)) = fields.iter_mut().find(|(name, _)| name == "proof") {
                *text = Value::Null;
            }
        }
        CacheEntry::from_value(&value).map(Self::Minimize)
    }

    /// The stored function and the circuit claimed to implement it.
    fn function_and_circuit(&self) -> (&MultiOutputFn, Option<&MmCircuit>) {
        match self {
            Self::Minimize(e) => (&e.canonical, e.circuit.as_ref()),
            Self::Rung(e) => (&e.canonical, e.circuit.as_ref()),
        }
    }
}

/// Snapshot of the cache counters, kept as the `stats` op's wire type.
/// The live counts are lock-free [`ServiceMetrics`] counters; this struct
/// is assembled from one relaxed load per field at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries quarantined (at startup or on lookup).
    pub quarantined: u64,
}

/// What the startup recovery scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Entries that validated clean.
    pub valid: u64,
    /// Entries moved to quarantine (torn, truncated, bit-flipped, or from
    /// another schema version).
    pub quarantined: u64,
    /// Abandoned in-flight temp files deleted.
    pub temps_removed: u64,
}

/// Why a stored entry failed validation.
#[derive(Debug)]
enum EntryFault {
    Io(io::Error),
    Malformed(String),
}

impl std::fmt::Display for EntryFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io: {e}"),
            Self::Malformed(m) => write!(f, "{m}"),
        }
    }
}

/// The persistent result cache. All methods are `&self` and thread-safe;
/// concurrent stores of the same key are resolved by last-rename-wins.
#[derive(Debug)]
pub struct ResultCache {
    entries: PathBuf,
    quarantine: PathBuf,
    index_path: PathBuf,
    paranoid: bool,
    /// Lock-free counters (hits/misses/stores/quarantined) and disk
    /// gauges. Detached by default; the daemon swaps in its scrapeable
    /// bundle via [`with_metrics`](Self::with_metrics).
    metrics: Arc<ServiceMetrics>,
}

impl ResultCache {
    /// Opens (creating if needed) the cache at `dir` and runs the
    /// recovery scan: abandoned temp files are deleted and every entry is
    /// validated, with failures quarantined.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/listing failures. Per-entry faults
    /// never fail `open`; they are quarantined and counted.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref();
        let cache = Self {
            entries: dir.join("entries"),
            quarantine: dir.join("quarantine"),
            index_path: dir.join("index.json"),
            paranoid: false,
            metrics: ServiceMetrics::detached(),
        };
        fs::create_dir_all(&cache.entries)?;
        fs::create_dir_all(&cache.quarantine)?;
        let report = cache.recovery_scan()?;
        cache.metrics.cache_quarantined.add(report.quarantined);
        cache.refresh_disk_gauges();
        Ok((cache, report))
    }

    /// Enables paranoid mode: hits are re-executed on the device model
    /// before being served.
    pub fn with_paranoid(mut self, paranoid: bool) -> Self {
        self.paranoid = paranoid;
        self
    }

    /// Swaps in a shared metrics bundle (the daemon's scrapeable
    /// registry), carrying over counts accumulated so far — notably the
    /// recovery scan's quarantine count from [`open`](Self::open).
    pub fn with_metrics(mut self, metrics: Arc<ServiceMetrics>) -> Self {
        metrics.cache_hits.add(self.metrics.cache_hits.get());
        metrics.cache_misses.add(self.metrics.cache_misses.get());
        metrics.cache_stores.add(self.metrics.cache_stores.get());
        metrics
            .cache_quarantined
            .add(self.metrics.cache_quarantined.get());
        self.metrics = metrics;
        self.refresh_disk_gauges();
        self
    }

    /// Snapshot of the hit/miss/store/quarantine counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.metrics.cache_hits.get(),
            misses: self.metrics.cache_misses.get(),
            stores: self.metrics.cache_stores.get(),
            quarantined: self.metrics.cache_quarantined.get(),
        }
    }

    /// Re-counts the entry files and their total size into the
    /// `mmsynth_cache_entries` / `mmsynth_cache_disk_bytes` gauges.
    /// Called on open, store, and quarantine — the paths that change the
    /// directory — never on the hit path.
    fn refresh_disk_gauges(&self) {
        let (mut entries, mut bytes) = (0i64, 0i64);
        if let Ok(dir) = fs::read_dir(&self.entries) {
            for item in dir.filter_map(Result::ok) {
                if let Ok(meta) = item.metadata() {
                    if meta.is_file() {
                        entries += 1;
                        bytes += meta.len() as i64;
                    }
                }
            }
        }
        self.metrics.cache_entries.set(entries);
        self.metrics.cache_disk_bytes.set(bytes);
    }

    /// Number of (currently valid) entries on disk.
    pub fn len(&self) -> u64 {
        fs::read_dir(&self.entries)
            .map(|d| d.filter_map(Result::ok).count() as u64)
            .unwrap_or(0)
    }

    /// Whether the entry directory is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn recovery_scan(&self) -> io::Result<RecoveryReport> {
        let mut report = RecoveryReport::default();
        // Temp droppings can sit next to the index as well as the entries.
        for dir in [
            self.entries.parent().unwrap_or(&self.entries),
            &self.entries,
        ] {
            for item in fs::read_dir(dir)? {
                let item = item?;
                let name = item.file_name().to_string_lossy().into_owned();
                if is_temp_artifact(&name) && item.path().is_file() {
                    fs::remove_file(item.path())?;
                    report.temps_removed += 1;
                }
            }
        }
        for item in fs::read_dir(&self.entries)? {
            let path = item?.path();
            if !path.is_file() {
                continue;
            }
            match self.read_entry(&path, true) {
                Ok(_) => report.valid += 1,
                Err(fault) => {
                    self.quarantine_file(&path, &fault);
                    report.quarantined += 1;
                }
            }
        }
        Ok(report)
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.entries.join(format!("{}.json", key.as_hex()))
    }

    /// Parses + validates one entry file: header schema, payload
    /// checksum, payload shape (the proof's only when `proof` is set).
    fn read_entry(&self, path: &Path, proof: bool) -> Result<Stored, EntryFault> {
        let text = fs::read_to_string(path).map_err(EntryFault::Io)?;
        let (header, payload) = text
            .split_once('\n')
            .ok_or_else(|| EntryFault::Malformed("missing header/payload split".into()))?;
        let header: Value = serde_json::from_str(header)
            .map_err(|e| EntryFault::Malformed(format!("bad header: {e}")))?;
        let schema = value_u64(header.get("cache_schema"))
            .ok_or_else(|| EntryFault::Malformed("header missing cache_schema".into()))?;
        if schema != CACHE_SCHEMA_VERSION {
            return Err(EntryFault::Malformed(format!(
                "schema {schema}, expected {CACHE_SCHEMA_VERSION}"
            )));
        }
        let recorded = value_str(header.get("checksum"))
            .ok_or_else(|| EntryFault::Malformed("header missing checksum".into()))?
            .to_string();
        let payload = payload.trim_end_matches('\n');
        let actual = format!(
            "{:016x}",
            fnv1a64(payload.as_bytes(), 0xcbf2_9ce4_8422_2325)
        );
        if recorded != actual {
            return Err(EntryFault::Malformed(format!(
                "checksum mismatch: header {recorded}, payload {actual}"
            )));
        }
        let value: Value = serde_json::from_str(payload)
            .map_err(|e| EntryFault::Malformed(format!("bad payload json: {e}")))?;
        Stored::from_payload(value, proof)
            .map_err(|e| EntryFault::Malformed(format!("bad payload shape: {e}")))
    }

    fn quarantine_file(&self, path: &Path, fault: &EntryFault) {
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry".into());
        let dest = self.quarantine.join(&name);
        // Rename keeps the evidence; if even that fails, remove so the
        // poison cannot be served.
        if fs::rename(path, &dest).is_err() {
            let _ = fs::remove_file(path);
        } else {
            let note = self.quarantine.join(format!("{name}.reason"));
            let _ = atomic_write(&note, format!("{fault}\n"));
        }
    }

    fn note_quarantine(&self) {
        self.metrics.cache_quarantined.inc();
        self.refresh_disk_gauges();
    }

    /// Looks up the entry answering `(canonical, request)`. Invalid or
    /// mismatching entries are quarantined and reported as a miss; in
    /// paranoid mode the stored circuit must additionally reproduce
    /// `canonical` on the device model. The stored proof is parsed and
    /// returned only for a certified `request`.
    pub fn lookup(
        &self,
        canonical: &MultiOutputFn,
        request: &MinimizeRequest,
    ) -> Option<CacheEntry> {
        let key = CacheKey::derive(canonical, request);
        self.fetch(&key, request.certify, |stored| match stored {
            Stored::Minimize(entry) if entry.answers(canonical, request) => Some(entry),
            _ => None,
        })
    }

    /// Looks up the verdict of `rung` for `canonical`, validated as
    /// [`lookup`](Self::lookup) validates a minimize entry.
    pub(crate) fn lookup_rung(&self, canonical: &MultiOutputFn, rung: Rung) -> Option<RungEntry> {
        let key = CacheKey::derive_rung(canonical, rung);
        self.fetch(&key, false, |stored| match stored {
            Stored::Rung(entry) if entry.answers(canonical, rung) => Some(entry),
            _ => None,
        })
    }

    /// Reads the entry stored under `key` and `pick`s the answer from it,
    /// counting a hit or a miss. A missing entry, one that fails
    /// validation (quarantined) and one `pick` rejects (a hash collision,
    /// left for its rightful owner) are misses.
    fn fetch<T>(
        &self,
        key: &CacheKey,
        proof: bool,
        pick: impl FnOnce(Stored) -> Option<T>,
    ) -> Option<T> {
        let path = self.entry_path(key);
        if !path.exists() {
            self.metrics.cache_misses.inc();
            return None;
        }
        let stored = match self.read_entry(&path, proof) {
            Ok(stored) => stored,
            Err(fault) => {
                self.quarantine_file(&path, &fault);
                self.note_quarantine();
                self.metrics.cache_misses.inc();
                return None;
            }
        };
        let (f, circuit) = stored.function_and_circuit();
        if self.paranoid && !paranoid_check(f, circuit) {
            let fault = EntryFault::Malformed(
                "paranoid re-execution: circuit does not implement its function".into(),
            );
            self.quarantine_file(&path, &fault);
            self.note_quarantine();
            self.metrics.cache_misses.inc();
            return None;
        }
        let Some(answer) = pick(stored) else {
            self.metrics.cache_misses.inc();
            return None;
        };
        self.metrics.cache_hits.inc();
        Some(answer)
    }

    /// Atomically persists `entry` under its derived key.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn store(&self, request: &MinimizeRequest, entry: &CacheEntry) -> io::Result<()> {
        self.write(&CacheKey::derive(&entry.canonical, request), entry)
    }

    /// Atomically persists a rung verdict under its derived key.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub(crate) fn store_rung(&self, entry: &RungEntry) -> io::Result<()> {
        self.write(&CacheKey::derive_rung(&entry.canonical, entry.rung), entry)
    }

    fn write(&self, key: &CacheKey, entry: &impl Serialize) -> io::Result<()> {
        let payload = serde_json::to_string(entry).map_err(io::Error::other)?;
        let checksum = format!(
            "{:016x}",
            fnv1a64(payload.as_bytes(), 0xcbf2_9ce4_8422_2325)
        );
        let text = format!(
            "{}\n{payload}\n",
            serde_json::to_string(&Value::Object(vec![
                ("cache_schema".into(), Value::UInt(CACHE_SCHEMA_VERSION)),
                ("checksum".into(), Value::Str(checksum)),
            ]))
            .map_err(io::Error::other)?
        );
        atomic_write(self.entry_path(key), text)?;
        self.metrics.cache_stores.inc();
        self.refresh_disk_gauges();
        Ok(())
    }

    /// Writes the informational `index.json` (schema version, entry
    /// count, counters) atomically. The index is advisory — recovery
    /// rebuilds the truth from the entry files — but flushing it on
    /// shutdown gives operators a cheap health snapshot.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn flush_index(&self) -> io::Result<()> {
        let stats = self.stats();
        let index = Value::Object(vec![
            ("cache_schema".into(), Value::UInt(CACHE_SCHEMA_VERSION)),
            ("entries".into(), Value::UInt(self.len())),
            ("stats".into(), Serialize::to_value(&stats)),
        ]);
        let text = serde_json::to_string_pretty(&index).map_err(io::Error::other)?;
        atomic_write(&self.index_path, format!("{text}\n"))
    }
}

/// Exhaustive device-model re-execution: every input row must reproduce
/// the stored canonical function `f`. Entries without a circuit pass
/// trivially (there is nothing executable to poison).
fn paranoid_check(f: &MultiOutputFn, circuit: Option<&MmCircuit>) -> bool {
    let Some(circuit) = circuit else {
        return true;
    };
    let Ok(schedule) = Schedule::compile(circuit) else {
        return false;
    };
    for q in 0..f.n_rows() as u32 {
        let mut array = LineArray::bfo(schedule.n_cells(), ElectricalParams::bfo(), DEVICE_SEED);
        let got = schedule.execute(q, &mut array);
        let want: Vec<bool> = (0..f.n_outputs())
            .map(|i| f.output(i).expect("output in range").get(q as usize))
            .collect();
        if got != want {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use mm_boolfn::generators;
    use mm_boolfn::npn::canonicalize;
    use mm_synth::{EncodeOptions, Synthesizer};

    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mm_cache_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn solved_entry(f: &MultiOutputFn, request: &MinimizeRequest) -> CacheEntry {
        let options = EncodeOptions::recommended();
        let (canonical, _) = canonicalize(f);
        let report = request
            .run(&Synthesizer::new(), &canonical, &options, 2)
            .expect("solve");
        let circuit = report.best;
        CacheEntry {
            canonical,
            mode: request.cache_facet().0,
            max_conflicts: request.max_conflicts,
            circuit,
            proven_optimal: report.proven_optimal,
            proof: None,
        }
    }

    #[test]
    fn store_then_lookup_roundtrips_bit_identically() {
        let dir = temp_dir("roundtrip");
        let (cache, recovery) = ResultCache::open(&dir).unwrap();
        assert_eq!(recovery, RecoveryReport::default());
        let f = generators::xor_gate(2);
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        let entry = solved_entry(&f, &request);
        cache.store(&request, &entry).unwrap();

        let (canonical, _) = canonicalize(&f);
        let hit = cache.lookup(&canonical, &request).expect("hit");
        assert_eq!(hit.canonical, entry.canonical);
        assert_eq!(hit.circuit, entry.circuit);
        assert_eq!(hit.proven_optimal, entry.proven_optimal);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 0, 1));

        // Entries that still carry the device trace and call count older
        // builds stored hit too: the payload's extra fields are ignored.
        let schedule = Schedule::compile(entry.circuit.as_ref().unwrap()).unwrap();
        let mut array = LineArray::bfo(schedule.n_cells(), ElectricalParams::bfo(), DEVICE_SEED);
        schedule.execute(0, &mut array);
        let mut payload = Serialize::to_value(&entry);
        if let Value::Object(fields) = &mut payload {
            fields.push(("trace".into(), Serialize::to_value(array.trace())));
            fields.push(("solver_calls".into(), Value::UInt(4)));
        }
        cache
            .write(&CacheKey::derive(&canonical, &request), &payload)
            .unwrap();
        let old = cache.lookup(&canonical, &request).expect("old entries hit");
        assert_eq!(old.circuit, entry.circuit);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn npn_equivalent_functions_share_one_entry() {
        let dir = temp_dir("npn_share");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        let entry = solved_entry(&generators::xor_gate(2), &request);
        cache.store(&request, &entry).unwrap();
        // XNOR canonicalizes to the same representative as XOR.
        let (canonical, _) = canonicalize(&generators::xnor_gate(2));
        assert!(cache.lookup(&canonical, &request).is_some());
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_budgets_address_different_entries() {
        let f = generators::and_gate(2);
        let mut limited = MinimizeRequest::mixed_mode(3, 3, false);
        limited.max_conflicts = Some(10);
        let unlimited = MinimizeRequest::mixed_mode(3, 3, false);
        let (canonical, _) = canonicalize(&f);
        assert_ne!(
            CacheKey::derive(&canonical, &limited),
            CacheKey::derive(&canonical, &unlimited)
        );
        // Deadlines do not split the address space.
        let mut with_deadline = unlimited.clone();
        with_deadline.deadline = Some(std::time::Duration::from_secs(5));
        assert_eq!(
            CacheKey::derive(&canonical, &unlimited),
            CacheKey::derive(&canonical, &with_deadline)
        );
    }

    #[test]
    fn proofs_are_parsed_only_for_certified_lookups() {
        let dir = temp_dir("lazy_proof");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let f = generators::xor_gate(2);
        let mut request = MinimizeRequest::mixed_mode(3, 3, false);
        let proof = DratProof::from_steps(vec![
            mm_sat::drat::ProofStep::Add(vec![mm_sat::Lit::from_dimacs(1).expect("nonzero")]),
            mm_sat::drat::ProofStep::Add(vec![]),
        ]);
        let entry = CacheEntry {
            proof: Some(proof.clone()),
            ..solved_entry(&f, &request)
        };
        cache.store(&request, &entry).unwrap();
        let (canonical, _) = canonicalize(&f);
        let plain = cache.lookup(&canonical, &request).expect("hit");
        assert_eq!(plain.proof, None, "an uncertified lookup leaves the proof");
        assert_eq!(plain.circuit, entry.circuit);
        request.certify = true;
        let certified = cache.lookup(&canonical, &request).expect("hit");
        assert_eq!(certified.proof, Some(proof), "the stored proof, unchanged");
        assert_eq!(cache.stats().hits, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rung_entries_roundtrip_beside_minimize_entries() {
        let dir = temp_dir("rungs");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let f = generators::xor_gate(2);
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        let minimized = solved_entry(&f, &request);
        cache.store(&request, &minimized).unwrap();
        let (canonical, _) = canonicalize(&f);
        let sat = Rung {
            n_rops: 3,
            n_legs: 4,
            n_vsteps: 3,
        };
        let unsat = Rung { n_rops: 0, ..sat };
        assert!(cache.lookup_rung(&canonical, sat).is_none());
        let stored = RungEntry {
            canonical: canonical.clone(),
            rung: sat,
            circuit: minimized.circuit.clone(),
        };
        cache.store_rung(&stored).unwrap();
        cache
            .store_rung(&RungEntry {
                rung: unsat,
                circuit: None,
                ..stored.clone()
            })
            .unwrap();
        assert_eq!(cache.lookup_rung(&canonical, sat), Some(stored));
        let unsat_hit = cache
            .lookup_rung(&canonical, unsat)
            .expect("UNSAT is stored");
        assert_eq!(unsat_hit.circuit, None);
        // The facets never answer each other, and recovery accepts both.
        assert!(cache
            .lookup_rung(&canonical, Rung { n_vsteps: 2, ..sat })
            .is_none());
        assert!(cache.lookup(&canonical, &request).is_some());
        let (reopened, recovery) = ResultCache::open(&dir).unwrap();
        assert_eq!((recovery.valid, recovery.quarantined), (3, 0));
        assert!(reopened.lookup_rung(&canonical, unsat).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn minimize_keys_are_pinned() {
        // Existing cache directories must keep hitting: this hex is the
        // on-disk name of xnor2's (3, 3) mixed-mode entry at 10 000
        // conflicts per call.
        let (canonical, _) = canonicalize(&generators::xnor_gate(2));
        let mut request = MinimizeRequest::mixed_mode(3, 3, false);
        request.max_conflicts = Some(10_000);
        assert_eq!(
            CacheKey::derive(&canonical, &request).as_hex(),
            "0d2317ab48d1a6bbe4feb17c026faa00"
        );
    }

    #[test]
    fn truncated_entry_is_quarantined_on_lookup() {
        let dir = temp_dir("truncate");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let f = generators::or_gate(2);
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        let entry = solved_entry(&f, &request);
        cache.store(&request, &entry).unwrap();
        let (canonical, _) = canonicalize(&f);
        let key = CacheKey::derive(&canonical, &request);
        let path = cache.entry_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();

        assert!(cache.lookup(&canonical, &request).is_none());
        assert!(!path.exists(), "torn entry removed from entries/");
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(
            fs::read_dir(dir.join("quarantine")).unwrap().count(),
            2,
            "quarantine holds the entry plus its .reason note"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_scan_quarantines_corruption_and_sweeps_temps() {
        let dir = temp_dir("recovery");
        let f = generators::xor_gate(2);
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        let entry = solved_entry(&f, &request);
        {
            let (cache, _) = ResultCache::open(&dir).unwrap();
            cache.store(&request, &entry).unwrap();
        }
        // Simulate a crash: a second entry bit-flipped, a torn temp file.
        let bad = dir.join("entries/deadbeefdeadbeefdeadbeefdeadbeef.json");
        let good_path = fs::read_dir(dir.join("entries"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut corrupted = fs::read(&good_path).unwrap();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x40;
        fs::write(&bad, &corrupted).unwrap();
        fs::write(dir.join("entries/.x.json.tmp-1-2"), b"partial").unwrap();

        let (cache, recovery) = ResultCache::open(&dir).unwrap();
        assert_eq!(recovery.valid, 1);
        assert_eq!(recovery.quarantined, 1);
        assert_eq!(recovery.temps_removed, 1);
        assert_eq!(cache.len(), 1);
        let (canonical, _) = canonicalize(&f);
        assert!(cache.lookup(&canonical, &request).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_bump_quarantines_instead_of_parsing() {
        let dir = temp_dir("schema");
        let f = generators::and_gate(2);
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        let entry = solved_entry(&f, &request);
        {
            let (cache, _) = ResultCache::open(&dir).unwrap();
            cache.store(&request, &entry).unwrap();
        }
        let path = fs::read_dir(dir.join("entries"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(
            &path,
            text.replacen("\"cache_schema\":1", "\"cache_schema\":99", 1),
        )
        .unwrap();
        let (_, recovery) = ResultCache::open(&dir).unwrap();
        assert_eq!(recovery.quarantined, 1);
        assert_eq!(recovery.valid, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn paranoid_mode_rejects_poisoned_circuits() {
        let dir = temp_dir("paranoid");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let cache = cache.with_paranoid(true);
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        // Poison: store AND's canonical entry but with OR's circuit.
        let and_entry = solved_entry(&generators::and_gate(2), &request);
        let or_entry = solved_entry(&generators::or_gate(2), &request);
        let poisoned = CacheEntry {
            circuit: or_entry.circuit,
            ..and_entry.clone()
        };
        cache.store(&request, &poisoned).unwrap();
        let (canonical, _) = canonicalize(&generators::and_gate(2));
        assert!(
            cache.lookup(&canonical, &request).is_none(),
            "paranoid hit must re-execute and reject"
        );
        assert_eq!(cache.stats().quarantined, 1);
        // The honest entry passes paranoid verification.
        cache.store(&request, &and_entry).unwrap();
        assert!(cache.lookup(&canonical, &request).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_flush_reports_counts() {
        let dir = temp_dir("index");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let request = MinimizeRequest::mixed_mode(3, 3, false);
        let entry = solved_entry(&generators::and_gate(2), &request);
        cache.store(&request, &entry).unwrap();
        cache.flush_index().unwrap();
        let index: Value =
            serde_json::from_str(&fs::read_to_string(dir.join("index.json")).unwrap()).unwrap();
        assert_eq!(value_u64(index.get("entries")), Some(1));
        assert_eq!(
            value_u64(index.get("cache_schema")),
            Some(CACHE_SCHEMA_VERSION)
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
