//! Pipeline configuration.

use crate::durable::{SyncPolicy, DEFAULT_RETRY_BUDGET};
use dydroid_avm::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Default per-app `EventLog` ring bound; generous enough that a
/// well-behaved app never drops, small enough to bound a hot loop.
pub const DEFAULT_MAX_EVENTS_PER_APP: usize = 65_536;

/// Default virtual-clock interval between durable metrics snapshots
/// (~44 virtual µs per app at the default corpus mix → a snapshot every
/// few dozen apps).
pub const DEFAULT_METRICS_INTERVAL_US: u64 = 1_000;

/// Default straggler threshold: flag apps over 4× the running median
/// virtual cost (a planted 10× app trips it; ordinary corpus variance
/// does not).
pub const DEFAULT_WATCHDOG_K: f64 = 4.0;

/// Default straggler-appendix size in the perf report.
pub const DEFAULT_STRAGGLER_TOP: usize = 5;

/// Configuration of a measurement run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Monkey seed (per-app sequences derive from it and the app index).
    pub monkey_seed: u64,
    /// Monkey UI-event budget per app.
    pub monkey_events: usize,
    /// Worker threads for the corpus sweep (0 = available parallelism).
    pub workers: usize,
    /// Whether the interception hook suppresses delete/rename (the
    /// ablation bench turns this off).
    pub suppress_file_ops: bool,
    /// ACFG match threshold for the malware detector.
    pub malware_threshold: f64,
    /// Whether to run the Table VIII environment re-runs for apps whose
    /// loaded code was flagged as malware.
    pub environment_reruns: bool,
    /// Per-app wall-clock/virtual deadline in milliseconds; `0` disables
    /// the watchdog. Charged as the max of real elapsed time and a
    /// deterministic virtual clock (1k interpreter instructions per ms).
    pub app_deadline_ms: u64,
    /// How many times a harness failure (panic or deadline) is retried
    /// before the app is recorded as an analysis failure.
    pub max_retries: u32,
    /// Whether retries reseed the Monkey so a different event sequence
    /// gets a chance to avoid the failing path.
    pub retry_reseed: bool,
    /// Whether intercepted-binary analysis (ACFG signature + malware
    /// match + taint) is memoized by content hash across the sweep, so
    /// each unique payload is analysed exactly once however many apps
    /// load it. Disable for differential testing and baselines.
    pub analysis_cache: bool,
    /// Run the Table VIII environment re-runs serially with per-config
    /// re-decompilation (the pre-optimization code path), instead of
    /// fanning (app × config) pairs over the worker pool with a single
    /// decompile per app. Kept for differential tests and the
    /// `sweepbench` baseline.
    pub serial_env_reruns: bool,
    /// Route malware detection through the quadratic naive scan instead
    /// of the inverted block index. Kept for differential tests and the
    /// `detectbench` baseline; verdicts are identical either way.
    pub naive_detector: bool,
    /// Run every app on the AVM's legacy string-resolving interpreter
    /// instead of the interned/pre-resolved fast path. Outcomes —
    /// verdicts, ledger, report JSON — are identical either way; kept
    /// for differential tests and the `avmbench` baseline.
    pub legacy_interp: bool,
    /// Collect span traces and metrics during the run (see
    /// `crate::telemetry`). Disabled, every telemetry call site is a
    /// single branch — the no-op fast path measured by `tracebench`.
    /// Never affects report JSON: telemetry rides on `SweepStats`,
    /// which is excluded from serialization.
    pub telemetry: bool,
    /// Emit a single-line live progress report to stderr roughly every
    /// tenth of the corpus during sweeps (requires `telemetry`).
    pub progress: bool,
    /// Write a Chrome `trace_event` JSON file (loadable in
    /// `chrome://tracing` / Perfetto) to this path after the run
    /// (requires `telemetry`).
    pub trace_out: Option<String>,
    /// Write the run's span profile as Brendan-Gregg collapsed-stack
    /// ("folded") lines to this path after the run — one
    /// `root;child;leaf self_µs` line per distinct span path, ready for
    /// `flamegraph.pl` (requires `telemetry`; see `crate::profile`).
    pub profile_out: Option<String>,
    /// Virtual-clock interval between durable metrics snapshots on
    /// journaled runs: every time `monkey.virtual_us` advances by this
    /// many microseconds, the full metrics registry is serialized as a
    /// CRC-framed record to `<journal>.metrics.jsonl`. `0` disables the
    /// snapshot stream (requires `telemetry`).
    pub metrics_interval_us: u64,
    /// Straggler watchdog threshold: a dynamic-phase app whose virtual
    /// cost exceeds `watchdog_k` × the running per-app median is flagged
    /// as a straggler (warning event + `SweepStats` stall section).
    /// Values ≤ 1.0 disable the watchdog.
    pub watchdog_k: f64,
    /// How many of the slowest flagged stragglers the report appendix
    /// keeps, with per-phase breakdowns.
    pub straggler_top: usize,
    /// Ring-buffer bound on each app's instrumentation `EventLog`
    /// (`0` = unbounded). Evicted events are counted per app in the
    /// provenance ledger and corpus-wide in `SweepStats`.
    pub max_events_per_app: usize,
    /// Record per-app provenance graphs (URL → file → load → verdict)
    /// and persist them as a JSONL ledger beside the journal when one is
    /// in use, or at `provenance_out` (see `crate::provenance`). A sweep
    /// builds graphs only when such a ledger receives them; no table
    /// reads them.
    pub provenance: bool,
    /// Explicit path for the provenance ledger. `None` places it beside
    /// the sweep journal (`<journal>.provenance.jsonl`); without a
    /// journal no ledger is kept and no graph is built. A plain [`Pipeline::run`]
    /// streams it through the same shard append as a journaled sweep (one
    /// ledger-only shard) and finalizes it in corpus order.
    ///
    /// [`Pipeline::run`]: crate::Pipeline::run
    pub provenance_out: Option<String>,
    /// When the persistent streams fsync: after every record, at
    /// checkpoint intervals (default), or never (see
    /// [`crate::durable::SyncPolicy`]). Syncs issued on the journal are
    /// counted in `SweepStats`.
    pub sync_policy: SyncPolicy,
    /// Per-run budget of transient I/O error retries (EINTR/EAGAIN-
    /// class), shared across the journal, ledger and event streams.
    /// Retries back off exponentially with seeded jitter on the
    /// deterministic virtual clock.
    pub io_retry_budget: u32,
    /// Number of interrupted (cross-stream inconsistent) attempts an app
    /// may accumulate across resumes before it is quarantined: recorded
    /// as an analysis failure and skipped on re-runs.
    pub quarantine_threshold: u32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            monkey_seed: 0x5EED,
            monkey_events: 10,
            workers: 0,
            suppress_file_ops: true,
            malware_threshold: dydroid_analysis::acfg::DEFAULT_THRESHOLD,
            environment_reruns: true,
            app_deadline_ms: 30_000,
            max_retries: 1,
            retry_reseed: true,
            analysis_cache: true,
            serial_env_reruns: false,
            naive_detector: false,
            legacy_interp: false,
            telemetry: true,
            progress: false,
            trace_out: None,
            profile_out: None,
            metrics_interval_us: DEFAULT_METRICS_INTERVAL_US,
            watchdog_k: DEFAULT_WATCHDOG_K,
            straggler_top: DEFAULT_STRAGGLER_TOP,
            max_events_per_app: DEFAULT_MAX_EVENTS_PER_APP,
            provenance: true,
            provenance_out: None,
            sync_policy: SyncPolicy::default(),
            io_retry_budget: DEFAULT_RETRY_BUDGET,
            quarantine_threshold: 3,
        }
    }
}

impl PipelineConfig {
    /// The baseline device configuration (instrumented, defaults).
    pub fn device_config(&self) -> DeviceConfig {
        DeviceConfig {
            legacy_interp: self.legacy_interp,
            ..DeviceConfig::default()
        }
    }

    /// The deadline as an `Option` (`0` = disabled).
    pub fn deadline_ms(&self) -> Option<u64> {
        if self.app_deadline_ms == 0 {
            None
        } else {
            Some(self.app_deadline_ms)
        }
    }

    /// Resolved worker count.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = PipelineConfig::default();
        assert!(c.suppress_file_ops);
        assert!(c.environment_reruns);
        assert!(c.effective_workers() >= 1);
        assert!((c.malware_threshold - 0.9).abs() < 1e-9);
        assert_eq!(c.deadline_ms(), Some(30_000));
        assert_eq!(c.max_retries, 1);
        assert!(c.retry_reseed);
        assert!(c.analysis_cache);
        assert!(!c.serial_env_reruns);
        assert!(!c.naive_detector);
        assert!(!c.legacy_interp);
        assert!(c.telemetry);
        assert!(!c.progress);
        assert_eq!(c.trace_out, None);
        assert_eq!(c.profile_out, None);
        assert_eq!(c.metrics_interval_us, DEFAULT_METRICS_INTERVAL_US);
        assert!((c.watchdog_k - 4.0).abs() < 1e-9);
        assert_eq!(c.straggler_top, DEFAULT_STRAGGLER_TOP);
        assert_eq!(c.max_events_per_app, DEFAULT_MAX_EVENTS_PER_APP);
        assert!(c.provenance);
        assert_eq!(c.provenance_out, None);
        assert_eq!(c.sync_policy, SyncPolicy::Checkpoint);
        assert_eq!(c.io_retry_budget, DEFAULT_RETRY_BUDGET);
        assert_eq!(c.quarantine_threshold, 3);
    }

    #[test]
    fn zero_deadline_disables_watchdog() {
        let c = PipelineConfig {
            app_deadline_ms: 0,
            ..Default::default()
        };
        assert_eq!(c.deadline_ms(), None);
    }

    #[test]
    fn explicit_workers_respected() {
        let c = PipelineConfig {
            workers: 3,
            ..Default::default()
        };
        assert_eq!(c.effective_workers(), 3);
    }
}
