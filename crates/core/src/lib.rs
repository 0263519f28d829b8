//! # dydroid
//!
//! The DyDroid system: a hybrid dynamic + static analysis pipeline that
//! measures dynamic code loading (DCL) and its security implications
//! across an Android app corpus, reproducing Qu et al., *DyDroid* (DSN
//! 2017) on the simulated substrate provided by the sibling crates.
//!
//! The pipeline per app (Figure 1 of the paper):
//!
//! 1. decompile the APK ([`dydroid_analysis::decompiler`]), recording
//!    anti-decompilation failures: `classes.dex` is parsed once into a
//!    shared `Arc<DexFile>` that the filter and the obfuscation detectors
//!    scan and that install and every launch reuse (smali text is
//!    rendered only on demand);
//! 2. statically filter for DCL-related code ([`dydroid_analysis::filter`])
//!    and run the obfuscation detectors;
//! 3. rewrite/repack if the external-storage permission is missing;
//! 4. exercise the app on the instrumented device under the Monkey
//!    ([`dydroid_monkey`]), collecting DCL events, intercepted binaries,
//!    download-tracker provenance and call-site entities;
//! 5. statically analyse the intercepted binaries: DroidNative-like
//!    malware detection and FlowDroid-like privacy-leak analysis —
//!    memoized per unique binary content by the corpus-wide
//!    [`cache::AnalysisCache`], so byte-identical SDK payloads loaded
//!    by thousands of apps are analysed once per sweep;
//! 6. classify code-injection vulnerabilities from the loaded paths;
//! 7. re-run malicious apps under the four runtime-environment
//!    configurations of Table VIII.
//!
//! [`MeasurementReport`] aggregates everything and regenerates every table
//! and figure of the paper's evaluation section.
//!
//! ## Example
//!
//! ```no_run
//! use dydroid::{Pipeline, PipelineConfig};
//! use dydroid_workload::{generate, CorpusSpec};
//!
//! let corpus = generate(&CorpusSpec { scale: 0.01, ..Default::default() });
//! let pipeline = Pipeline::new(PipelineConfig::default());
//! let report = pipeline.run(&corpus);
//! println!("{}", report.table2().render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod durable;
pub mod environment;
pub mod pipeline;
pub mod profile;
pub mod provenance;
pub mod report;
pub mod scheduler;
pub mod sweep;
pub mod telemetry;
pub mod training;

/// Thin observability facade: the handful of telemetry types callers
/// (CLIs, benches, tests) interact with, re-exported in one place so
/// downstream code does not depend on `telemetry`'s module layout.
pub mod obs {
    pub use crate::profile::{ProfileEntry, SpanProfile, StragglerEntry, Watchdog};
    pub use crate::telemetry::{
        ChildTable, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot, SpanGuard,
        SpanRecord, Telemetry,
    };
}

pub use cache::{AnalysisCache, CacheStats};
pub use config::PipelineConfig;
pub use durable::{IoHarness, StreamKind, SyncPolicy};
pub use pipeline::{AppRecord, DynamicStatus, Pipeline, RecoveryOutcome};
pub use profile::{SpanProfile, StragglerEntry, Watchdog};
pub use provenance::{AppProvenance, ProvenanceIndex, ProvenanceLedger};
pub use report::{MeasurementReport, SweepStats};
pub use scheduler::WorkerStats;
pub use sweep::Journal;
pub use telemetry::Telemetry;
