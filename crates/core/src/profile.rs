//! Span-derived profiling and the straggler watchdog — the analytical
//! half of the sweep observatory (DESIGN.md §5j).
//!
//! The telemetry layer (§5d) folds each span into a **profile** as it
//! closes: for every distinct root-to-leaf name path, how many spans ran
//! there, their total (inclusive) time, and their self time (the part of
//! each span's interval no child span covers). The profile is
//! exportable as Brendan-Gregg collapsed-stack ("folded") lines —
//! `app;monkey 1234` — which `flamegraph.pl` and every folded-stack tool
//! consume directly.
//!
//! Every span line of the event log carries its path, duration and self
//! time, so the same profile is built two ways through one
//! [`SpanProfile::fold`], and the two agree by construction:
//!
//! - **live**, folded as spans close or are stitched in
//!   (`Telemetry::profile()`), and
//! - **offline**, by replaying the event log of a live or killed
//!   journaled run ([`SpanProfile::from_event_stream`] over
//!   `Journal::events_path()`).
//!
//! The [`Watchdog`] rides the same data on the *deterministic virtual
//! clock*: it keeps a running median of per-app virtual cost and flags
//! any app exceeding [`WATCHDOG_K`]× that median as a straggler, so one
//! wedged app in a corpus-scale sweep is named while it is happening
//! instead of being averaged away post-hoc.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::ops::ControlFlow;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::config::WATCHDOG_K;
use crate::durable::read_frames;
use crate::telemetry::SpanRecord;

/// Apps the watchdog observes before it starts flagging, so the running
/// median is meaningful before anything is called a straggler.
pub const WATCHDOG_WARMUP: usize = 16;

/// Aggregate of every span that ran at one name path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// Number of spans aggregated at this path.
    pub count: u64,
    /// Inclusive time: sum of the spans' durations, in microseconds.
    pub total_us: u64,
    /// Self time: the part of the spans' intervals no child span
    /// covers, in microseconds.
    pub self_us: u64,
}

/// A self-time/total-time profile over a span tree, keyed by the
/// `;`-joined root-to-leaf path of span names.
///
/// Paths are stored in a `BTreeMap`, so every export is deterministic
/// for a given span set regardless of the order spans were folded in —
/// the property the live-vs-offline differential test pins down to the
/// byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanProfile {
    nodes: BTreeMap<String, ProfileEntry>,
}

impl SpanProfile {
    /// Folds one span, of `dur_us` with `self_us` of it uncovered by its
    /// children, into its path's entry.
    pub fn fold(&mut self, path: &str, dur_us: u64, self_us: u64) {
        let entry = match self.nodes.get_mut(path) {
            Some(entry) => entry,
            None => self.nodes.entry(path.to_string()).or_default(),
        };
        entry.count += 1;
        entry.total_us += dur_us;
        entry.self_us += self_us;
    }

    /// Builds the profile offline by replaying a framed event stream:
    /// every `{"type":"span"}` line in its valid prefix is folded at the
    /// path it carries. A torn or corrupt tail ends the replay (same
    /// tolerance as `Telemetry::stitch_from`); a missing file is empty.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the stream file not existing.
    pub fn from_event_stream(path: &Path) -> io::Result<SpanProfile> {
        let mut profile = SpanProfile::default();
        read_frames(path, |_, body| {
            let Ok(value) = serde_json::from_str::<serde::Value>(body) else {
                return ControlFlow::Break(());
            };
            if value.get("type").and_then(|t| t.as_str()) == Some("span") {
                if let Ok(span) = SpanRecord::from_json(&value) {
                    profile.fold(&span.path, span.dur_us, span.self_us);
                }
            }
            ControlFlow::Continue(())
        })?;
        Ok(profile)
    }

    /// Number of spans folded into the profile.
    pub fn span_count(&self) -> u64 {
        self.nodes.values().map(|e| e.count).sum()
    }

    /// The profile's entries, in path order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &ProfileEntry)> {
        self.nodes.iter().map(|(p, e)| (p.as_str(), e))
    }

    /// Brendan-Gregg collapsed-stack export: one
    /// `name;name;… self_µs\n` line per path, in path order. Feed the
    /// output straight to `flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, entry) in &self.nodes {
            let _ = writeln!(out, "{path} {}", entry.self_us);
        }
        out
    }
}

/// One flagged straggler: an app whose deterministic virtual cost
/// exceeded [`WATCHDOG_K`]× the running per-app median when it completed.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StragglerEntry {
    /// The app's package name.
    pub package: String,
    /// The app's virtual cost in microseconds.
    pub virtual_us: u64,
    /// The running median virtual cost when the app was flagged.
    pub median_virtual_us: u64,
    /// Wall-clock phase breakdown from the app span's direct children:
    /// `(phase name, µs)`, largest first. A retried app's repeated
    /// phases are summed by name.
    pub phases: Vec<(String, u64)>,
}

/// Running-median straggler detector on the deterministic virtual
/// clock.
///
/// The sweep collector feeds it one observation per completed
/// dynamic-phase app, in completion order. After [`WATCHDOG_WARMUP`]
/// observations it flags any app whose virtual cost exceeds
/// [`WATCHDOG_K`]× the median of the apps observed *before* it. Each
/// app's cost is deterministic, but which apps precede it is not: the
/// completion order, and so the median an app is judged against,
/// depends on the worker count and the interleave, and so does whether
/// an app completes inside the warm-up. After it, a cost far above the
/// corpus spread is flagged under any order; a borderline one may be
/// flagged in one run and not in another. Noise-level variance (a few
/// percent around the median) never trips the 4× threshold, while a
/// planted 10× app always does.
#[derive(Debug, Default)]
pub struct Watchdog {
    sorted: Vec<u64>,
    flagged: u64,
}

impl Watchdog {
    /// Notes one completed app's virtual cost. Returns the running
    /// median it was judged against when the app is flagged as a
    /// straggler, `None` otherwise.
    pub fn observe(&mut self, virtual_us: u64) -> Option<u64> {
        let mut verdict = None;
        if self.sorted.len() >= WATCHDOG_WARMUP {
            let median = self.sorted[self.sorted.len() / 2];
            if median > 0 && virtual_us as f64 > WATCHDOG_K * median as f64 {
                self.flagged += 1;
                verdict = Some(median);
            }
        }
        let pos = self.sorted.partition_point(|&v| v <= virtual_us);
        self.sorted.insert(pos, virtual_us);
        verdict
    }

    /// Observations so far.
    pub fn observed(&self) -> usize {
        self.sorted.len()
    }

    /// Apps flagged so far.
    pub fn flagged(&self) -> u64 {
        self.flagged
    }

    /// The current running median virtual cost (0 before any
    /// observation).
    pub fn median(&self) -> u64 {
        if self.sorted.is_empty() {
            0
        } else {
            self.sorted[self.sorted.len() / 2]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A profile folded from `(path, dur_us, self_us)` spans.
    fn folded(spans: &[(&str, u64, u64)]) -> SpanProfile {
        let mut profile = SpanProfile::default();
        for (path, dur_us, self_us) in spans {
            profile.fold(path, *dur_us, *self_us);
        }
        profile
    }

    #[test]
    fn profile_attributes_self_and_total_time() {
        let profile = folded(&[
            ("app;static", 30, 30),
            ("app;monkey", 50, 50),
            ("app", 100, 20),
            ("app;monkey", 40, 40),
            ("app", 40, 0),
        ]);
        assert_eq!(profile.entries().count(), 3);
        assert_eq!(profile.span_count(), 5);
        let get = |key: &str| {
            profile
                .entries()
                .find(|(p, _)| *p == key)
                .map(|(_, e)| *e)
                .expect("path present")
        };
        let app = get("app");
        assert_eq!(app.count, 2);
        assert_eq!(app.total_us, 140);
        assert_eq!(app.self_us, 20);
        let monkey = get("app;monkey");
        assert_eq!(monkey.count, 2);
        assert_eq!(monkey.total_us, 90);
        assert_eq!(monkey.self_us, 90, "leaves keep all their time");
        assert_eq!(get("app;static").self_us, 30);
    }

    #[test]
    fn folded_output_is_order_independent() {
        let mut spans = vec![
            ("app", 100, 40),
            ("app;monkey", 60, 60),
            ("sweep", 500, 500),
        ];
        let forward = folded(&spans).folded();
        spans.reverse();
        let reversed = folded(&spans).folded();
        assert_eq!(forward, reversed, "profile must not depend on span order");
        // Folded lines parse as `path space value`.
        assert_eq!(forward.lines().count(), 3);
        for line in forward.lines() {
            let (path, value) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            value.parse::<u64>().expect("numeric self time");
        }
        assert_eq!(forward, "app 40\napp;monkey 60\nsweep 500\n");
    }

    #[test]
    fn watchdog_flags_planted_straggler_not_noise() {
        let mut dog = Watchdog::default();
        // Noise-level variance around 100 µs: never flagged.
        for i in 0..32u64 {
            let v = 95 + (i * 7) % 11; // 95..=105
            assert_eq!(dog.observe(v), None, "noise flagged at i={i}");
        }
        assert_eq!(dog.flagged(), 0);
        let median = dog.median();
        assert!((95..=105).contains(&median));
        // A planted 10× app is flagged against that median.
        let verdict = dog.observe(median * 10);
        assert_eq!(verdict, Some(median));
        assert_eq!(dog.flagged(), 1);
        // The straggler barely moves the median; normal apps still pass.
        assert_eq!(dog.observe(104), None);
    }

    #[test]
    fn watchdog_warms_up() {
        let mut dog = Watchdog::default();
        // Before warmup even a huge outlier passes silently.
        for _ in 0..WATCHDOG_WARMUP - 1 {
            assert_eq!(dog.observe(100), None);
        }
        assert_eq!(dog.observe(100_000), None, "still warming up");
        assert_eq!(dog.observed(), WATCHDOG_WARMUP);
        assert_eq!(dog.flagged(), 0);
    }
}
