//! Content-addressed on-disk cache of simulation results.
//!
//! A run's result is a pure function of its `(MachineConfig, Spec)` inputs
//! (the simulator is deterministic), so results are memoized under a key
//! derived from content alone:
//!
//! ```text
//! key = fnv1a64( canonical JSON of { format, version, config, spec } )
//! ```
//!
//! The `format` constant and crate `version` act as a salt: bumping either
//! (e.g. when the statistics schema or an encoding changes) orphans every
//! old entry instead of replaying stale results. Entries live as pretty
//! JSON files under `target/ccsim-cache/` — human-inspectable, `rm -rf`able,
//! and written atomically (temp file + rename) so concurrent writers of the
//! same key are safe.
//!
//! Behaviour is controlled by `CCSIM_CACHE`:
//!
//! * `rw` (default) — read hits, write misses back.
//! * `ro` — read hits, never write (e.g. CI consuming a seeded cache).
//! * `off` — bypass entirely; always simulate.
//!
//! `CCSIM_CACHE_DIR` overrides the cache directory.
//!
//! # Corruption safety
//!
//! Every entry embeds a checksum of its statistics payload, verified on
//! every read. An entry that is truncated, garbled, checksum-mismatched, or
//! written by a different format version is never trusted: it counts as a
//! miss, and the offending file is *quarantined* — renamed to
//! `<key>.json.corrupt` — so it can be inspected after the fact instead of
//! being silently overwritten (a fresh store then heals the key). Only a
//! cleanly absent file is a plain miss with no quarantine.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ccsim_engine::RunStats;
use ccsim_types::MachineConfig;
use ccsim_util::{fnv1a64, FromJson, Json, ToJson};
use ccsim_workloads::{run_spec, Spec};

/// Bumped whenever the cache key derivation or the stored encoding changes
/// shape; combined with the crate version it salts every key.
/// v2: entries carry a verified checksum over the statistics payload.
const CACHE_FORMAT: &str = "ccsim-run-cache-v2";

/// How the cache participates in a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Never consult or write the cache.
    Off,
    /// Read hits, write misses back (the default).
    ReadWrite,
    /// Read hits, never write.
    ReadOnly,
}

impl CacheMode {
    /// Read `CCSIM_CACHE` (`off` | `rw` | `ro`; default `rw`). Unknown
    /// values fall back to `rw` — an experiment run should not die on a
    /// typo'd tuning variable — but warn once on stderr, naming the value
    /// and the accepted set, so the typo is visible.
    pub fn from_env() -> CacheMode {
        match std::env::var("CCSIM_CACHE").as_deref() {
            Ok("off") => CacheMode::Off,
            Ok("ro") => CacheMode::ReadOnly,
            Ok("rw") | Ok("") | Err(_) => CacheMode::ReadWrite,
            Ok(other) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                let other = other.to_string();
                WARNED.call_once(|| {
                    eprintln!(
                        "ccsim: unknown CCSIM_CACHE value {other:?} \
                         (accepted: \"off\", \"ro\", \"rw\"); using \"rw\""
                    );
                });
                CacheMode::ReadWrite
            }
        }
    }
}

/// Default cache directory: `target/ccsim-cache` of this workspace
/// (anchored to the crate's manifest, not the current directory, so every
/// test binary and example shares one cache), unless `CCSIM_CACHE_DIR`
/// overrides it.
pub fn default_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CCSIM_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/ccsim-cache")
}

/// Hit/miss/bypass accounting, process-wide.
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BYPASSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static QUARANTINED: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Runs answered from disk.
    pub hits: u64,
    /// Runs simulated because no (valid) entry existed.
    pub misses: u64,
    /// Runs simulated because the cache was off.
    pub bypasses: u64,
    /// Entries written to disk.
    pub stores: u64,
    /// Corrupt entries renamed to `*.corrupt` instead of being trusted.
    pub quarantined: u64,
}

impl CacheStats {
    /// Current counter values.
    pub fn snapshot() -> CacheStats {
        CacheStats {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            bypasses: BYPASSES.load(Ordering::Relaxed),
            stores: STORES.load(Ordering::Relaxed),
            quarantined: QUARANTINED.load(Ordering::Relaxed),
        }
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bypasses: self.bypasses - earlier.bypasses,
            stores: self.stores - earlier.stores,
            quarantined: self.quarantined - earlier.quarantined,
        }
    }

    /// One-line human summary (experiment binaries print this at exit).
    pub fn summary(&self) -> String {
        format!(
            "run cache: {} hits, {} misses, {} bypasses, {} stores, {} quarantined",
            self.hits, self.misses, self.bypasses, self.stores, self.quarantined
        )
    }
}

/// The content key of one run: a 16-hex-digit stable hash of the canonical
/// encoding of its inputs plus the format/version salt.
pub fn run_key(cfg: &MachineConfig, spec: &Spec) -> String {
    let doc = Json::obj(vec![
        ("format", CACHE_FORMAT.to_json()),
        ("version", env!("CARGO_PKG_VERSION").to_json()),
        ("config", cfg.to_json()),
        ("spec", spec.to_json()),
    ]);
    format!("{:016x}", fnv1a64(doc.to_string().as_bytes()))
}

fn entry_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// Where a corrupt entry is moved for post-mortem inspection.
fn quarantine_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json.corrupt"))
}

/// Checksum of the statistics payload: the stable hash of its compact
/// canonical encoding, as 16 hex digits.
fn stats_checksum(stats_json: &Json) -> String {
    format!("{:016x}", fnv1a64(stats_json.to_string().as_bytes()))
}

/// Decode and verify one entry's text: format marker, checksum over the
/// statistics payload, then a full statistics decode.
fn decode_entry(text: &str) -> Result<RunStats, String> {
    let j = Json::parse(text)?;
    let format: String = j.field("format")?;
    if format != CACHE_FORMAT {
        return Err(format!(
            "entry format {format:?}, expected {CACHE_FORMAT:?}"
        ));
    }
    let stored: String = j.field("checksum")?;
    let stats_json = j.req("stats")?;
    let computed = stats_checksum(stats_json);
    if stored != computed {
        return Err(format!(
            "checksum mismatch: stored {stored}, computed {computed}"
        ));
    }
    RunStats::from_json(stats_json)
}

/// Sideline a corrupt entry as `<key>.json.corrupt` (best-effort; the
/// rename is atomic so concurrent readers either see the bad entry or no
/// entry, never half of each).
fn quarantine(dir: &Path, key: &str) {
    let _ = std::fs::rename(entry_path(dir, key), quarantine_path(dir, key));
    QUARANTINED.fetch_add(1, Ordering::Relaxed);
}

/// Load a cached result, verifying format, checksum and a clean decode.
/// A cleanly absent file is a plain miss; anything else that fails is
/// quarantined and then a miss.
fn load(dir: &Path, key: &str) -> Option<RunStats> {
    let text = match std::fs::read_to_string(entry_path(dir, key)) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
        Err(_) => {
            quarantine(dir, key);
            return None;
        }
    };
    match decode_entry(&text) {
        Ok(stats) => Some(stats),
        Err(_) => {
            quarantine(dir, key);
            None
        }
    }
}

/// Store a result atomically: write a unique temp file in the cache
/// directory, then rename over the final path (rename is atomic on the
/// same filesystem, so concurrent writers of the same key are safe and
/// readers never observe a partial entry).
fn store(dir: &Path, key: &str, stats: &RunStats) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stats_json = stats.to_json();
    let doc = Json::obj(vec![
        ("format", CACHE_FORMAT.to_json()),
        ("checksum", stats_checksum(&stats_json).to_json()),
        ("stats", stats_json),
    ]);
    let tmp = dir.join(format!(
        ".{key}.tmp.{}.{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&tmp, doc.pretty())?;
    std::fs::rename(&tmp, entry_path(dir, key))
}

/// How one cached run was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// Read from disk.
    Hit,
    /// Simulated because no valid entry existed; `stored` if the result
    /// was written back.
    Miss { stored: bool },
    /// Simulated because the cache was off.
    Bypass,
}

/// Run one workload through the cache at an explicit mode and directory
/// (the form tests use — no environment reads, no races).
pub fn run_cached_at(cfg: MachineConfig, spec: &Spec, mode: CacheMode, dir: &Path) -> RunStats {
    run_cached_outcome(cfg, spec, mode, dir).0
}

/// [`run_cached_at`], also reporting how this call was answered. The
/// process-wide counters add up every call's outcome; tests assert on the
/// outcome itself, which concurrent callers cannot disturb.
pub(crate) fn run_cached_outcome(
    cfg: MachineConfig,
    spec: &Spec,
    mode: CacheMode,
    dir: &Path,
) -> (RunStats, Lookup) {
    if mode == CacheMode::Off {
        BYPASSES.fetch_add(1, Ordering::Relaxed);
        return (run_spec(cfg, spec), Lookup::Bypass);
    }
    let key = run_key(&cfg, spec);
    if let Some(stats) = load(dir, &key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return (stats, Lookup::Hit);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let stats = run_spec(cfg, spec);
    // A failed store (read-only filesystem, disk full) costs only the
    // memoization, not the result.
    let stored = mode == CacheMode::ReadWrite && store(dir, &key, &stats).is_ok();
    if stored {
        STORES.fetch_add(1, Ordering::Relaxed);
    }
    (stats, Lookup::Miss { stored })
}

/// Run one workload through the cache, honouring `CCSIM_CACHE` and
/// `CCSIM_CACHE_DIR`. This is the entry point experiments use.
pub fn run_cached(cfg: MachineConfig, spec: &Spec) -> RunStats {
    run_cached_at(cfg, spec, CacheMode::from_env(), &default_dir())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_types::ProtocolKind;
    use ccsim_workloads::mp3d::Mp3dParams;

    fn tiny_spec() -> Spec {
        let mut p = Mp3dParams::quick();
        p.particles = 24;
        p.steps = 1;
        Spec::Mp3d(p)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ccsim-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn keys_are_stable_and_input_sensitive() {
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let spec = tiny_spec();
        assert_eq!(run_key(&cfg, &spec), run_key(&cfg, &spec));
        let other_cfg = cfg.with_protocol(ProtocolKind::Ad);
        assert_ne!(run_key(&cfg, &spec), run_key(&other_cfg, &spec));
        let mut p = Mp3dParams::quick();
        p.particles = 25;
        p.steps = 1;
        assert_ne!(run_key(&cfg, &spec), run_key(&cfg, &Spec::Mp3d(p)));
    }

    #[test]
    fn miss_then_hit_returns_identical_stats() {
        let dir = temp_dir("hit");
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        let spec = tiny_spec();
        let (fresh, first) = run_cached_outcome(cfg, &spec, CacheMode::ReadWrite, &dir);
        let (cached, second) = run_cached_outcome(cfg, &spec, CacheMode::ReadWrite, &dir);
        assert_eq!(cached, fresh);
        assert_eq!(first, Lookup::Miss { stored: true });
        assert_eq!(second, Lookup::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_never_writes() {
        let dir = temp_dir("ro");
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let spec = tiny_spec();
        for _ in 0..2 {
            let (_, lookup) = run_cached_outcome(cfg, &spec, CacheMode::ReadOnly, &dir);
            assert_eq!(lookup, Lookup::Miss { stored: false });
        }
        assert!(!entry_path(&dir, &run_key(&cfg, &spec)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_mode_bypasses() {
        let dir = temp_dir("off");
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ad);
        let spec = tiny_spec();
        let (_, lookup) = run_cached_outcome(cfg, &spec, CacheMode::Off, &dir);
        assert_eq!(lookup, Lookup::Bypass);
        assert!(!dir.exists());
    }

    #[test]
    fn counters_count_every_outcome() {
        // Tests run concurrently and share the process-wide counters, so
        // the deltas are lower bounds.
        let dir = temp_dir("counters");
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let spec = tiny_spec();
        let before = CacheStats::snapshot();
        run_cached_at(cfg, &spec, CacheMode::Off, &dir);
        run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
        run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
        let d = CacheStats::snapshot().since(&before);
        assert!(d.bypasses >= 1 && d.misses >= 1 && d.stores >= 1 && d.hits >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses_and_healed() {
        let dir = temp_dir("corrupt");
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ls);
        let spec = tiny_spec();
        let key = run_key(&cfg, &spec);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(entry_path(&dir, &key), "{ not json").unwrap();
        let (stats, lookup) = run_cached_outcome(cfg, &spec, CacheMode::ReadWrite, &dir);
        assert_eq!(lookup, Lookup::Miss { stored: true });
        // The corrupt entry was sidelined for inspection, not overwritten
        // blindly, and the healed entry now round-trips.
        assert!(quarantine_path(&dir, &key).exists());
        assert_eq!(load(&dir, &key).unwrap(), stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_mismatch_is_quarantined() {
        let dir = temp_dir("checksum");
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Ad);
        let spec = tiny_spec();
        let key = run_key(&cfg, &spec);
        let stats = run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
        // Flip one digit inside the stored statistics payload: the entry
        // still parses as JSON but no longer matches its checksum.
        let path = entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).unwrap();
        let needle = format!("\"exec_cycles\": {}", stats.exec_cycles);
        let tampered = text.replace(
            &needle,
            &format!("\"exec_cycles\": {}", stats.exec_cycles + 1),
        );
        assert_ne!(text, tampered, "tamper target not found in entry");
        std::fs::write(&path, tampered).unwrap();
        assert!(load(&dir, &key).is_none(), "tampered entry must not load");
        assert!(quarantine_path(&dir, &key).exists());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_format_version_is_quarantined_not_trusted() {
        let dir = temp_dir("format");
        let cfg = MachineConfig::splash_baseline(ProtocolKind::Baseline);
        let spec = tiny_spec();
        let key = run_key(&cfg, &spec);
        let stats = run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
        let path = entry_path(&dir, &key);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(CACHE_FORMAT, "ccsim-run-cache-v0")).unwrap();
        assert!(load(&dir, &key).is_none());
        assert!(quarantine_path(&dir, &key).exists());
        // The next read-write run heals the key.
        let again = run_cached_at(cfg, &spec, CacheMode::ReadWrite, &dir);
        assert_eq!(again, stats);
        assert_eq!(load(&dir, &key).unwrap(), stats);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
