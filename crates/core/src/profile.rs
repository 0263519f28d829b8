//! Span-derived profiling and the straggler watchdog — the analytical
//! half of the sweep observatory (DESIGN.md §5j).
//!
//! The telemetry layer (§5d) records one [`SpanRecord`] per phase per
//! app. This module folds that span tree into a **profile**: for every
//! distinct root-to-leaf name path, how many spans ran there, their
//! total (inclusive) time, and their self time (total minus child
//! time). The profile is exportable as Brendan-Gregg collapsed-stack
//! ("folded") lines — `app;monkey 1234` — which `flamegraph.pl` and
//! every folded-stack tool consume directly.
//!
//! The same profile is computable two ways, and the two are
//! byte-identical over the same span set (a differential test holds
//! this):
//!
//! - **live**, from the in-memory span store fed by `SpanGuard` drops
//!   ([`SpanProfile::from_spans`] over `Telemetry::spans()`), and
//! - **offline**, by replaying the event log of a live or killed
//!   journaled run ([`SpanProfile::replay_journal`]).
//!
//! The [`Watchdog`] rides the same data on the *deterministic virtual
//! clock*: it keeps a running median of per-app virtual cost and flags
//! any app exceeding [`WATCHDOG_K`]× that median as a straggler, so one
//! wedged app in a corpus-scale sweep is named while it is happening
//! instead of being averaged away post-hoc.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::ops::ControlFlow;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::config::WATCHDOG_K;
use crate::durable::read_frames;
use crate::sweep::Journal;
use crate::telemetry::SpanRecord;

/// Parent-chain walk bound: a span nested deeper than this (impossible
/// for well-formed streams; cycles only via corruption) is rooted where
/// the walk stopped instead of looping forever.
const MAX_PROFILE_DEPTH: usize = 64;

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
    /// Self time: inclusive time minus time attributed to child spans,
    /// in microseconds.
    pub self_us: u64,
}

/// A self-time/total-time profile over a span tree, keyed by the
/// root-to-leaf path of span names.
///
/// Paths are stored in a `BTreeMap`, so every export is deterministic
/// for a given span set regardless of the order spans were recorded or
/// replayed in — the property the live-vs-offline differential test
/// pins down to the byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanProfile {
    nodes: BTreeMap<Vec<String>, ProfileEntry>,
}

impl SpanProfile {
    /// Builds the profile from a span set (any order).
    ///
    /// Each span contributes its duration to its own path's total, and
    /// its duration minus its direct children's durations to the path's
    /// self time. A span whose parent id is absent from the set (e.g. a
    /// phase span whose app span was lost to a crash) roots its path at
    /// the deepest ancestor present.
    pub fn from_spans(spans: &[SpanRecord]) -> SpanProfile {
        let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            by_id.insert(s.id, i);
        }
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for s in spans {
            if s.parent != 0 && by_id.contains_key(&s.parent) {
                *child_us.entry(s.parent).or_insert(0) += s.dur_us;
            }
        }
        let mut nodes: BTreeMap<Vec<String>, ProfileEntry> = BTreeMap::new();
        for s in spans {
            let mut path = vec![s.name.clone()];
            let mut cursor = s.parent;
            for _ in 0..MAX_PROFILE_DEPTH {
                if cursor == 0 {
                    break;
                }
                match by_id.get(&cursor) {
                    Some(&i) => {
                        path.push(spans[i].name.clone());
                        cursor = spans[i].parent;
                    }
                    None => break,
                }
            }
            path.reverse();
            let entry = nodes.entry(path).or_default();
            entry.count += 1;
            entry.total_us += s.dur_us;
            entry.self_us += s
                .dur_us
                .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
        }
        SpanProfile { nodes }
    }

    /// Builds the profile offline by replaying a framed event stream:
    /// every `{"type":"span"}` body in its valid prefix is a span. A torn
    /// or corrupt tail ends the replay (same tolerance as
    /// `Telemetry::stitch_from`); a missing file is empty.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the stream file not existing.
    pub fn from_event_stream(path: &Path) -> io::Result<SpanProfile> {
        let mut spans = Vec::new();
        read_frames(path, |_, body| {
            let Ok(value) = serde_json::from_str::<serde::Value>(body) else {
                return ControlFlow::Break(());
            };
            if value.get("type").and_then(|t| t.as_str()) == Some("span") {
                if let Ok(record) = SpanRecord::from_json(&value) {
                    spans.push(record);
                }
            }
            ControlFlow::Continue(())
        })?;
        spans.sort_by_key(|s| (s.start_us, s.id));
        Ok(SpanProfile::from_spans(&spans))
    }

    /// [`SpanProfile::from_event_stream`] over a journal's event log
    /// (empty once a finished run's finalize removed it).
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the stream read.
    pub fn replay_journal(journal: &Journal) -> io::Result<SpanProfile> {
        SpanProfile::from_event_stream(&journal.events_path())
    }

    /// Number of distinct span paths in the profile.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the profile holds no spans at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The profile's entries, in path order.
    pub fn entries(&self) -> impl Iterator<Item = (&[String], &ProfileEntry)> {
        self.nodes.iter().map(|(p, e)| (p.as_slice(), e))
    }

    /// Brendan-Gregg collapsed-stack export: one
    /// `name;name;… self_µs\n` line per path, in path order. Feed the
    /// output straight to `flamegraph.pl`.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, entry) in &self.nodes {
            out.push_str(&path.join(";"));
            let _ = writeln!(out, " {}", entry.self_us);
        }
        out
    }

    /// Human-readable profile table, hottest self-time first.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&Vec<String>, &ProfileEntry)> = self.nodes.iter().collect();
        rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(b.0)));
        let width = rows
            .iter()
            .map(|(p, _)| p.join(";").len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "  {:<width$}  {:>9}  {:>12}  {:>12}",
            "path", "count", "total µs", "self µs"
        );
        for (path, e) in rows {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>9}  {:>12}  {:>12}",
                path.join(";"),
                e.count,
                e.total_us,
                e.self_us
            );
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
    /// Wall-clock phase breakdown from the app's child spans:
    /// `(phase name, µs)`, largest first.
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

    fn span(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            tid: 1,
            start_us,
            dur_us,
            fields: Vec::new(),
        }
    }

    #[test]
    fn profile_attributes_self_and_total_time() {
        let spans = vec![
            span(1, 0, "app", 0, 100),
            span(2, 1, "static", 0, 30),
            span(3, 1, "monkey", 30, 50),
            span(4, 0, "app", 100, 40),
            span(5, 4, "monkey", 100, 40),
        ];
        let profile = SpanProfile::from_spans(&spans);
        assert_eq!(profile.len(), 3);
        let get = |names: &[&str]| {
            let key: Vec<String> = names.iter().map(|s| s.to_string()).collect();
            profile
                .entries()
                .find(|(p, _)| *p == key.as_slice())
                .map(|(_, e)| *e)
                .expect("path present")
        };
        let app = get(&["app"]);
        assert_eq!(app.count, 2);
        assert_eq!(app.total_us, 140);
        // First app: 100 − (30 + 50) = 20 self; second: 40 − 40 = 0.
        assert_eq!(app.self_us, 20);
        let monkey = get(&["app", "monkey"]);
        assert_eq!(monkey.count, 2);
        assert_eq!(monkey.total_us, 90);
        assert_eq!(monkey.self_us, 90, "leaves keep all their time");
        assert_eq!(get(&["app", "static"]).self_us, 30);
    }

    #[test]
    fn folded_output_is_order_independent() {
        let mut spans = vec![
            span(1, 0, "app", 0, 100),
            span(2, 1, "monkey", 10, 60),
            span(3, 0, "sweep", 0, 500),
        ];
        let forward = SpanProfile::from_spans(&spans).folded();
        spans.reverse();
        let reversed = SpanProfile::from_spans(&spans).folded();
        assert_eq!(forward, reversed, "profile must not depend on span order");
        // Folded lines parse as `path space value`.
        assert_eq!(forward.lines().count(), 3);
        for line in forward.lines() {
            let (path, value) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            value.parse::<u64>().expect("numeric self time");
        }
        assert!(forward.contains("app;monkey 60\n"));
        assert!(forward.contains("app 40\n"));
    }

    #[test]
    fn orphan_spans_root_at_the_deepest_present_ancestor() {
        // Parent id 99 is absent (lost to a crash): the child's path
        // starts at itself instead of looping or panicking.
        let spans = vec![span(2, 99, "monkey", 0, 50)];
        let profile = SpanProfile::from_spans(&spans);
        let (path, entry) = profile.entries().next().expect("one path");
        assert_eq!(path, ["monkey".to_string()].as_slice());
        assert_eq!(entry.self_us, 50);
    }

    #[test]
    fn cyclic_parent_links_terminate() {
        // Corruption could make two spans each other's parent; the walk
        // must stop at the depth bound.
        let spans = vec![span(1, 2, "a", 0, 10), span(2, 1, "b", 0, 10)];
        let profile = SpanProfile::from_spans(&spans);
        assert_eq!(profile.len(), 2);
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

    #[test]
    fn render_lists_hottest_self_time_first() {
        let spans = vec![
            span(1, 0, "app", 0, 100),
            span(2, 1, "monkey", 0, 80),
            span(3, 0, "sweep", 0, 10),
        ];
        let table = SpanProfile::from_spans(&spans).render();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("path"));
        assert!(lines[1].contains("app;monkey"), "got: {}", lines[1]);
        assert!(lines[2].contains("app"), "got: {}", lines[2]);
        assert!(lines[3].contains("sweep"), "got: {}", lines[3]);
    }
}
