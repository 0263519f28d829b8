//! # dydroid-bench
//!
//! Benchmark harness and experiment drivers for the DyDroid reproduction:
//!
//! - the `tables` binary regenerates every table and figure of the
//!   paper's evaluation section (`cargo run -p dydroid-bench --bin tables`);
//!   the design ablations of `DESIGN.md` §7 are tests
//!   (`tests/ablations.rs`), not benches;
//! - the [`measure`]/[`compare`](mod@compare)/[`history`]/[`args`]
//!   modules form the unified measurement harness every `*bench` binary
//!   reports through: one record shape (`BENCH_*.json`), one noise-aware
//!   comparator (`benchcmp`), one framed history stream
//!   (`BENCH_history.jsonl`);
//! - the [`trend`] module renders per-metric median trajectories over
//!   that history (`benchcmp --trend`);
//! - the [`progress`] module is `tables --progress`: a poller over a
//!   running sweep's live gauges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod compare;
pub mod history;
pub mod measure;
pub mod progress;
pub mod trend;

pub use args::{ArgParser, CommonArgs, EXIT_CLEAN, EXIT_CODE_HELP, EXIT_FINDING, EXIT_USAGE};
pub use compare::{compare, significant, CompareConfig, Comparison, Gate, MetricDelta, Verdict};
pub use measure::{Direction, Measurement, Metric, Stats};
pub use trend::{trend_rows, Trend, TrendRow};
