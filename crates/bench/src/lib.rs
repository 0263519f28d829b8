//! # dydroid-bench
//!
//! Benchmark harness and experiment drivers for the DyDroid reproduction:
//!
//! - the `tables` binary regenerates every table and figure of the
//!   paper's evaluation section (`cargo run -p dydroid-bench --bin tables`);
//! - the Criterion benches under `benches/` measure component throughput
//!   and run the ablations called out in `DESIGN.md`;
//! - the [`measure`]/[`compare`](mod@compare)/[`history`]/[`args`]
//!   modules form the unified measurement harness every `*bench` binary
//!   reports through: one record shape (`BENCH_*.json`), one noise-aware
//!   comparator (`benchcmp`), one framed history stream
//!   (`BENCH_history.jsonl`);
//! - the [`trend`] module renders per-metric median trajectories over
//!   that history (`benchcmp --trend`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod compare;
pub mod history;
pub mod measure;
pub mod trend;

pub use args::{ArgParser, CommonArgs, EXIT_CLEAN, EXIT_CODE_HELP, EXIT_FINDING, EXIT_USAGE};
pub use compare::{compare, significant, CompareConfig, Comparison, Gate, MetricDelta, Verdict};
pub use measure::{Direction, Measurement, Metric, Stats};
pub use trend::{trend_rows, Trend, TrendRow};

use dydroid::{Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

/// Generates the default benchmark corpus at the given scale.
pub fn corpus(scale: f64, seed: u64) -> Vec<SyntheticApp> {
    generate(&CorpusSpec { scale, seed })
}

/// Builds the default pipeline.
pub fn pipeline() -> Pipeline {
    Pipeline::new(PipelineConfig::default())
}

/// Builds a pipeline without the (expensive) environment re-runs, for
/// component benchmarks.
pub fn pipeline_no_reruns() -> Pipeline {
    Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..Default::default()
    })
}
