//! Pipeline configuration.

use crate::durable::{SyncPolicy, DEFAULT_RETRY_BUDGET};
use dydroid_avm::DeviceConfig;
use serde::{Deserialize, Serialize};

/// Monkey seed of every run: each app's event sequence derives from it
/// and the app's package name.
pub const MONKEY_SEED: u64 = 0x5EED;

/// How many times a harness failure (panic or deadline) is retried, with
/// the Monkey reseeded, before the app is recorded as an analysis
/// failure.
pub const MAX_RETRIES: u32 = 1;

/// Ring-buffer bound on each app's instrumentation `EventLog`; generous
/// enough that a well-behaved app never drops, small enough to bound a
/// hot loop. Evicted events are counted per app in the provenance ledger
/// and corpus-wide in `SweepStats`.
pub const MAX_EVENTS_PER_APP: usize = 65_536;

/// Virtual-clock interval between metrics snapshots on journaled
/// telemetry runs: every time the summed virtual cost of the apps the
/// collector has received crosses a multiple of this many microseconds,
/// the full metrics registry goes to the live event stream as one
/// `{"type":"metrics"}` line (~44 virtual µs per app at the default
/// corpus mix → a snapshot every few dozen apps).
pub const METRICS_INTERVAL_US: u64 = 1_000;

/// Straggler threshold: the watchdog flags a dynamic-phase app whose
/// virtual cost exceeds this multiple of the running median (a planted
/// 10× app trips it; ordinary corpus variance does not).
pub const WATCHDOG_K: f64 = 4.0;

/// How many of the slowest flagged stragglers the perf report's
/// appendix keeps, with per-phase breakdowns.
pub const STRAGGLER_TOP: usize = 5;

/// Configuration of a measurement run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Monkey UI-event budget per app.
    pub monkey_events: usize,
    /// Worker threads for the corpus sweep (0 = available parallelism).
    pub workers: usize,
    /// Whether the interception hook suppresses delete/rename (the
    /// ablation bench turns this off).
    pub suppress_file_ops: bool,
    /// Whether to run the Table VIII environment re-runs for apps whose
    /// loaded code was flagged as malware.
    pub environment_reruns: bool,
    /// Per-app deadline in virtual milliseconds; `0` disables the
    /// watchdog. Charged on the deterministic virtual clock alone (1k
    /// interpreter instructions per ms), so host load moves no verdict.
    pub app_deadline_ms: u64,
    /// Collect span traces and metrics during the run (see
    /// `crate::telemetry`). Disabled, every telemetry call site is a
    /// single branch — the no-op fast path measured by `tracebench`.
    /// Never affects report JSON: telemetry rides on `SweepStats`,
    /// which is excluded from serialization. A caller exports the spans
    /// and gauges itself, through `Pipeline::telemetry()`.
    pub telemetry: bool,
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
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            monkey_events: 10,
            workers: 0,
            suppress_file_ops: true,
            environment_reruns: true,
            app_deadline_ms: 30_000,
            telemetry: true,
            sync_policy: SyncPolicy::default(),
            io_retry_budget: DEFAULT_RETRY_BUDGET,
        }
    }
}

impl PipelineConfig {
    /// The baseline device configuration (instrumented, defaults).
    pub fn device_config(&self) -> DeviceConfig {
        DeviceConfig::default()
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
        assert_eq!(c.deadline_ms(), Some(30_000));
        assert!(c.telemetry);
        assert_eq!(c.sync_policy, SyncPolicy::Checkpoint);
        assert_eq!(c.io_retry_budget, DEFAULT_RETRY_BUDGET);
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
