//! Content-addressed analysis cache.
//!
//! DyDroid scales to tens of thousands of apps because the static
//! analysis of intercepted code operates on *unique files*, not on
//! per-load occurrences: thousands of corpus apps load byte-identical
//! third-party SDK payloads. [`AnalysisCache`] memoizes the expensive
//! per-binary work — MAIL translation + ACFG signature construction +
//! malware matching ([`BinarySig::build`] / `detect_sig`) and the taint
//! analysis ([`TaintAnalysis::run`]) — keyed by a content hash of the
//! intercepted bytes, shared across all sweep workers. Each unique
//! payload is analysed exactly once per sweep, however many apps load
//! it and however many environment re-runs replay it.
//!
//! The map is sharded (lock striping) so workers rarely contend, and
//! each entry is a [`OnceLock`]: when two workers race on the same
//! unseen payload, one computes while the other blocks on the cell
//! rather than duplicating the work — the *exactly once* invariant
//! holds even under contention. See `DESIGN.md`, "Content-addressed
//! analysis cache".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dydroid_analysis::acfg::{BinarySig, FamilyMatch};
use dydroid_analysis::mail::CodeBinary;
use dydroid_analysis::taint::{Leak, TaintAnalysis};
use dydroid_analysis::MalwareDetector;
use serde::{Deserialize, Serialize};

use crate::telemetry::Telemetry;

/// Shard count (a power of two) of every sweep's cache.
pub const DEFAULT_SHARDS: usize = 64;

/// 64-bit FNV-1a over the binary content, with a final avalanche mix so
/// nearby inputs spread across shards.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The memoized outcome of analysing one unique binary: everything the
/// pipeline derives from the bytes alone (the per-app parts — path,
/// entity attribution, vulnerability classification — stay per-load).
#[derive(Debug, Clone, PartialEq)]
pub enum BinaryVerdict {
    /// The bytes parse as neither DEX nor a native library.
    Unparsable,
    /// Parsed and analysed.
    Parsed {
        /// Whether the binary is native code.
        native: bool,
        /// Malware-family match, if any.
        malware: Option<FamilyMatch>,
        /// Taint leaks (empty for native binaries).
        leaks: Vec<Leak>,
    },
}

/// Monotonic cache counters; [`CacheStats::since`] gives per-run deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (one per unique binary).
    pub misses: u64,
    /// Unique binaries currently cached (absolute, not a delta).
    pub entries: u64,
    /// `BinarySig::build` invocations (parsed binaries only).
    pub sig_builds: u64,
    /// `TaintAnalysis::run` invocations (DEX binaries only).
    pub taint_runs: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`; `None`
    /// when there were no lookups, so nothing was measured.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// The counter deltas accumulated since `earlier` (entries stays
    /// absolute — it is a size, not a rate).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            entries: self.entries,
            sig_builds: self.sig_builds - earlier.sig_builds,
            taint_runs: self.taint_runs - earlier.taint_runs,
        }
    }
}

type Shard = Mutex<HashMap<u64, Arc<OnceLock<Arc<BinaryVerdict>>>>>;

/// The corpus-wide, content-addressed cache (see module docs).
#[derive(Debug)]
pub struct AnalysisCache {
    shards: Box<[Shard]>,
    hits: AtomicU64,
    misses: AtomicU64,
    sig_builds: AtomicU64,
    taint_runs: AtomicU64,
    telemetry: Telemetry,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache::new()
    }
}

impl AnalysisCache {
    /// Creates an empty cache of [`DEFAULT_SHARDS`] shards. A fresh
    /// cache is cold: its first lookup of any content computes it.
    pub fn new() -> Self {
        AnalysisCache::with_shards(DEFAULT_SHARDS)
    }

    /// A cache of `shards` shards, rounded up to a power of two.
    fn with_shards(shards: usize) -> Self {
        AnalysisCache {
            shards: (0..shards.next_power_of_two())
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sig_builds: AtomicU64::new(0),
            taint_runs: AtomicU64::new(0),
            telemetry: Telemetry::new(false),
        }
    }

    /// Attaches a telemetry handle: every cold compute then records its
    /// malware-detection and taint phase latencies into the
    /// `phase.malware_detect.us` / `phase.taint.us` histograms.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Analyses one intercepted binary through the cache: parse, build
    /// the ACFG signature, match malware families, and (for DEX) run the
    /// taint analysis — at most once per unique content.
    pub fn analyze(
        &self,
        data: &[u8],
        detector: &MalwareDetector,
        taint: &TaintAnalysis,
    ) -> Arc<BinaryVerdict> {
        let key = content_hash(data);
        let cell = {
            let mut map = self
                .shard(key)
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        // Initialisation happens outside the shard lock, so a slow
        // payload never blocks unrelated keys in the same shard.
        let mut computed = false;
        let verdict = cell.get_or_init(|| {
            computed = true;
            Arc::new(self.compute(data, detector, taint))
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(verdict)
    }

    /// The shard holding `key`.
    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key as usize) & (self.shards.len() - 1)]
    }

    fn compute(
        &self,
        data: &[u8],
        detector: &MalwareDetector,
        taint: &TaintAnalysis,
    ) -> BinaryVerdict {
        let Ok(code) = CodeBinary::from_bytes(data) else {
            return BinaryVerdict::Unparsable;
        };
        self.sig_builds.fetch_add(1, Ordering::Relaxed);
        let detect_started = std::time::Instant::now();
        let sig = BinarySig::build(&code);
        let malware = detector.detect_sig(&sig);
        if self.telemetry.is_enabled() {
            self.telemetry.record(
                "phase.malware_detect.us",
                detect_started.elapsed().as_micros() as u64,
            );
        }
        let leaks = if let CodeBinary::Dex(dex) = &code {
            self.taint_runs.fetch_add(1, Ordering::Relaxed);
            let taint_started = std::time::Instant::now();
            let leaks = taint.run(dex);
            if self.telemetry.is_enabled() {
                self.telemetry
                    .record("phase.taint.us", taint_started.elapsed().as_micros() as u64);
            }
            leaks
        } else {
            Vec::new()
        };
        BinaryVerdict::Parsed {
            native: code.is_native(),
            malware,
            leaks,
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len() as u64
            })
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            sig_builds: self.sig_builds.load(Ordering::Relaxed),
            taint_runs: self.taint_runs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_dex::native::Arch;
    use dydroid_dex::{DexFile, NativeLibrary};

    fn fixtures() -> (MalwareDetector, TaintAnalysis) {
        (MalwareDetector::new(), TaintAnalysis::new())
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(b""), content_hash(b"\0"));
    }

    #[test]
    fn memoizes_by_content() {
        let cache = AnalysisCache::with_shards(4);
        let (detector, taint) = fixtures();
        let dex = DexFile::new().to_bytes();
        let a = cache.analyze(&dex, &detector, &taint);
        let b = cache.analyze(&dex, &detector, &taint);
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.sig_builds, 1);
        assert_eq!(stats.taint_runs, 1);
    }

    #[test]
    fn native_binaries_skip_taint() {
        let cache = AnalysisCache::with_shards(1);
        let (detector, taint) = fixtures();
        let lib = NativeLibrary::new("l.so", Arch::Arm).to_bytes();
        let v = cache.analyze(&lib, &detector, &taint);
        assert!(matches!(&*v, BinaryVerdict::Parsed { native: true, .. }));
        assert_eq!(cache.stats().taint_runs, 0);
        assert_eq!(cache.stats().sig_builds, 1);
    }

    #[test]
    fn unparsable_is_cached_too() {
        let cache = AnalysisCache::with_shards(2);
        let (detector, taint) = fixtures();
        assert_eq!(
            *cache.analyze(b"junk", &detector, &taint),
            BinaryVerdict::Unparsable
        );
        assert_eq!(
            *cache.analyze(b"junk", &detector, &taint),
            BinaryVerdict::Unparsable
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.sig_builds), (1, 1, 0));
    }

    #[test]
    fn exactly_once_under_contention() {
        let cache = std::sync::Arc::new(AnalysisCache::with_shards(8));
        let (detector, taint) = fixtures();
        let dex = DexFile::new().to_bytes();
        crossbeam::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                let dex = dex.clone();
                let detector = &detector;
                let taint = &taint;
                scope.spawn(move |_| {
                    for _ in 0..50 {
                        cache.analyze(&dex, detector, taint);
                    }
                });
            }
        })
        .expect("no panics");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "one compute per unique binary");
        assert_eq!(stats.sig_builds, 1);
        assert_eq!(stats.hits, 8 * 50 - 1);
    }

    #[test]
    fn mixed_lookups_count_one_per_item() {
        let cache = AnalysisCache::with_shards(4);
        let (detector, taint) = fixtures();
        let dex = DexFile::new().to_bytes();
        let lib = NativeLibrary::new("l.so", Arch::Arm).to_bytes();
        let junk = b"junk".to_vec();
        let verdicts: Vec<_> = [&dex, &lib, &junk, &dex]
            .into_iter()
            .map(|data| cache.analyze(data, &detector, &taint))
            .collect();
        assert_eq!(verdicts[0], verdicts[3], "same content, same verdict");
        assert_eq!(*verdicts[2], BinaryVerdict::Unparsable);
        assert!(matches!(
            &*verdicts[1],
            BinaryVerdict::Parsed { native: true, .. }
        ));
        let stats = cache.stats();
        // 3 unique misses + 1 duplicate hit.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.sig_builds, 2, "junk never builds a signature");
    }

    #[test]
    fn stats_since_subtracts_counters() {
        let cache = AnalysisCache::with_shards(1);
        let (detector, taint) = fixtures();
        let dex = DexFile::new().to_bytes();
        cache.analyze(&dex, &detector, &taint);
        let mark = cache.stats();
        cache.analyze(&dex, &detector, &taint);
        let delta = cache.stats().since(&mark);
        assert_eq!((delta.hits, delta.misses), (1, 0));
        assert_eq!(delta.entries, 1, "entries stays absolute");
        assert_eq!(delta.hit_rate(), Some(1.0));
        assert_eq!(
            CacheStats::default().hit_rate(),
            None,
            "no lookups, no rate"
        );
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(AnalysisCache::with_shards(3).shards.len(), 4);
        assert_eq!(AnalysisCache::new().shards.len(), DEFAULT_SHARDS);
    }
}
