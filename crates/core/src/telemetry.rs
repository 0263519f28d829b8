//! Span-based tracing and metrics for the measurement pipeline.
//!
//! DyDroid is a *measurement* system: when a 46K-app sweep (or our
//! fault-injected 200-app reproduction) stalls, the coarse wall-times in
//! `SweepStats` cannot say which app, which phase, or where the time
//! went. This module provides the missing observability layer:
//!
//! - **Spans** — every app analyzed under [`crate::Pipeline::run`] /
//!   `run_resumable` opens a span with child spans per phase (static
//!   filter, rewrite, install, monkey run, interception collect, binary
//!   analysis, environment re-runs), each carrying structured fields
//!   (app id, retry attempt, cache hit/miss deltas, verdict). Span ids
//!   are recorded in the sweep's JSONL event stream so resumed runs
//!   stitch into the same timeline.
//! - **Metrics** — a lock-striped registry (mirroring the `cache.rs`
//!   shard pattern) of counters, gauges, and log-linear histograms,
//!   feeding p50/p95/p99 per-phase latency into an extended
//!   `render_perf()`.
//! - **Exporters** — (1) a JSONL event log written alongside the
//!   journal while a run is live (finalize removes it), and (2) Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` / Perfetto
//!   ([`chrome_trace`]). A caller writes the trace after a run, and may
//!   poll the live `sweep.*` gauges while it goes, through
//!   `Pipeline::telemetry()`.
//!
//! Everything is gated by `PipelineConfig::telemetry`: a disabled
//! [`Telemetry`] is a single `Option` check per call site — no
//! allocation, no clock read, no atomics.

use std::collections::HashMap;
use std::io;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::durable::{read_frames, FramedWriter, SinkOptions, StreamKind};

use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Log-linear histogram
// ---------------------------------------------------------------------------

/// Sub-buckets per power of two (16 → ≤6.25% relative quantile error).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
/// Values below `SUBS` get exact unit buckets; each octave above
/// contributes `SUBS` buckets, up to the top of the `u64` range.
const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Maps a value to its log-linear bucket index.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        (shift as usize) * SUBS + (v >> shift) as usize
    }
}

/// Inclusive lower bound of a bucket (its reported quantile value).
fn bucket_lower(i: usize) -> u64 {
    if i < SUBS {
        i as u64
    } else {
        ((i % SUBS + SUBS) as u64) << (i / SUBS - 1)
    }
}

/// A log-linear histogram over `u64` values (microseconds, counts, …).
///
/// Recording is O(1); quantiles are read by walking cumulative bucket
/// counts and reporting the matching bucket's lower bound, clamped to
/// the observed `[min, max]` — so the relative error is bounded by the
/// bucket width (≤6.25% with 16 sub-buckets per octave).
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Value at quantile `q` in `[0, 1]` (0 when empty). Reported as the
    /// lower bound of the bucket holding the target rank, clamped to the
    /// observed value range.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if target == self.count {
            // The top rank is the observed maximum, exactly.
            return self.max;
        }
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return bucket_lower(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Snapshot of the headline summary statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Headline statistics of one [`Histogram`], cheap to copy and serialize.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (bucket lower bound).
    pub p50: u64,
    /// 95th percentile (bucket lower bound).
    pub p95: u64,
    /// 99th percentile (bucket lower bound).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Lock-striped metrics registry
// ---------------------------------------------------------------------------

const REGISTRY_SHARDS: usize = 16;

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histo(Arc<Mutex<Histogram>>),
}

/// A sharded registry of named counters, gauges, and histograms.
///
/// Names are striped over `Mutex<HashMap>` shards by FNV-1a hash — the
/// same pattern `cache.rs` uses for verdict shards — so concurrent sweep
/// workers recording different metrics rarely contend.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Box<[Mutex<HashMap<String, Metric>>]>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        let shards = (0..REGISTRY_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MetricsRegistry { shards }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        &self.shards[(name_hash(name) as usize) & (self.shards.len() - 1)]
    }

    fn metric(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut shard = self.shard(name).lock().expect("metrics shard poisoned");
        shard.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Adds `n` to the named counter, creating it at zero if needed.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Metric::Counter(c) = self.metric(name, || Metric::Counter(Arc::default())) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of the named counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        let shard = self.shard(name).lock().expect("metrics shard poisoned");
        match shard.get(name) {
            Some(Metric::Counter(c)) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Sets the named gauge to `v`, creating it if needed.
    pub fn gauge_set(&self, name: &str, v: u64) {
        if let Metric::Gauge(g) = self.metric(name, || Metric::Gauge(Arc::default())) {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Current value of the named gauge (0 if absent).
    pub fn gauge_value(&self, name: &str) -> u64 {
        let shard = self.shard(name).lock().expect("metrics shard poisoned");
        match shard.get(name) {
            Some(Metric::Gauge(g)) => g.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Records `v` into the named histogram, creating it if needed.
    pub fn record(&self, name: &str, v: u64) {
        if let Metric::Histo(h) = self.metric(name, || Metric::Histo(Arc::default())) {
            h.lock().expect("histogram poisoned").record(v);
        }
    }

    /// Point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("metrics shard poisoned");
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => {
                        counters.push((name.clone(), c.load(Ordering::Relaxed)));
                    }
                    Metric::Gauge(g) => gauges.push((name.clone(), g.load(Ordering::Relaxed))),
                    Metric::Histo(h) => {
                        let summary = h.lock().expect("histogram poisoned").summary();
                        histograms.push((name.clone(), summary));
                    }
                }
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A serializable point-in-time view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Value of a counter in this snapshot (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Summary of a histogram in this snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The counters as an ordered name → value map — the export surface
    /// the unified bench measurement record (`dydroid-bench`) feeds its
    /// `counters` envelope from. Registry names are kept verbatim.
    pub fn counter_map(&self) -> std::collections::BTreeMap<String, u64> {
        self.counters.iter().cloned().collect()
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A completed (or stitched-in) span on the sweep timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within the timeline (never 0; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Phase name ("app", "monkey", "binary_analysis", …).
    pub name: String,
    /// Worker lane the span ran on (stable per thread).
    pub tid: u64,
    /// Start offset from the telemetry epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Structured key/value fields attached via [`SpanGuard::field`].
    pub fields: Vec<(String, String)>,
}

/// Total spans retained in memory before new ones are counted as
/// dropped (they still reach the JSONL sink and the histograms).
const MAX_SPANS: usize = 1 << 20;
const SPAN_STRIPES: usize = 16;

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    registry: MetricsRegistry,
    spans: Box<[Mutex<Vec<SpanRecord>>]>,
    span_count: AtomicUsize,
    /// The framed event stream every thread appends to, when one is
    /// open.
    sink: Mutex<Option<FramedWriter>>,
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

fn thread_lane() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static LANE: Cell<u64> = const { Cell::new(0) };
    }
    LANE.with(|lane| {
        if lane.get() == 0 {
            lane.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        lane.get()
    })
}

impl Inner {
    fn new() -> Self {
        let spans = (0..SPAN_STRIPES)
            .map(|_| Mutex::new(Vec::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Inner {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            registry: MetricsRegistry::new(),
            spans,
            span_count: AtomicUsize::new(0),
            sink: Mutex::new(None),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn store_span(&self, record: SpanRecord) {
        if self.span_count.load(Ordering::Relaxed) >= MAX_SPANS {
            self.registry.counter_add("telemetry.spans_dropped", 1);
            return;
        }
        self.span_count.fetch_add(1, Ordering::Relaxed);
        let stripe = (record.tid as usize) & (self.spans.len() - 1);
        self.spans[stripe]
            .lock()
            .expect("span stripe poisoned")
            .push(record);
    }

    /// Mirror the journal's crash discipline: one framed line per
    /// event. The writer sheds events itself under disk pressure;
    /// hard errors are counted and warned once (the event log is
    /// observability only and recovery never reads it, so a lost
    /// event never corrupts the durable record).
    fn write_event(&self, line: &str) {
        let mut sink = self.sink.lock().expect("event sink poisoned");
        let Some(w) = sink.as_mut() else { return };
        if let Err(e) = w.append_body(line) {
            self.registry.counter_add("telemetry.event_write_errors", 1);
            if self.registry.counter_value("telemetry.event_write_errors") == 1 {
                eprintln!("dydroid: events: write failed ({e}); degrading telemetry");
            }
        }
    }

    fn finish_span(&self, mut record: SpanRecord) {
        record.dur_us = self.now_us().saturating_sub(record.start_us);
        self.registry
            .record(&format!("span.{}.us", record.name), record.dur_us);
        let mut pairs = vec![("type".to_string(), serde::Value::Str("span".to_string()))];
        if let serde::Value::Object(rest) = record.to_json() {
            pairs.extend(rest);
        }
        self.write_event(&serde::Value::Object(pairs).to_compact_string());
        self.store_span(record);
    }
}

/// Handle to the telemetry subsystem. Cloning is cheap (an `Arc`); a
/// disabled handle makes every operation a no-op.
#[derive(Debug, Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled or disabled subsystem, per `PipelineConfig::telemetry`.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            inner: enabled.then(|| Arc::new(Inner::new())),
        }
    }

    /// A disabled handle: every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether telemetry is collecting.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span. The span ends (and is recorded) on drop.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.span_with_parent(name, 0)
    }

    /// Opens a span under an explicit parent span id (0 = root). Used to
    /// parent worker-thread spans under the sweep span without carrying
    /// a guard across threads.
    pub fn span_with_parent(&self, name: &str, parent: u64) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { active: None },
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let record = SpanRecord {
                    id,
                    parent,
                    name: name.to_string(),
                    tid: thread_lane(),
                    start_us: inner.now_us(),
                    dur_us: 0,
                    fields: Vec::new(),
                };
                SpanGuard {
                    active: Some(ActiveSpan {
                        inner: Arc::clone(inner),
                        record: Some(record),
                    }),
                }
            }
        }
    }

    /// Adds `n` to a named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter_add(name, n);
        }
    }

    /// Current value of a named counter (0 when disabled or absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.registry.counter_value(name))
    }

    /// Sets a named gauge.
    pub fn gauge_set(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge_set(name, v);
        }
    }

    /// Current value of a named gauge (0 when disabled or absent).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.registry.gauge_value(name))
    }

    /// Records a value into a named histogram.
    pub fn record(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.record(name, v);
        }
    }

    /// Snapshot of all metrics (empty when disabled).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map_or_else(MetricsSnapshot::default, |i| i.registry.snapshot())
    }

    /// All retained spans, ordered by start time then id.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut all = Vec::new();
        for stripe in inner.spans.iter() {
            all.extend(stripe.lock().expect("span stripe poisoned").iter().cloned());
        }
        all.sort_by_key(|s| (s.start_us, s.id));
        all
    }

    /// Directs the framed JSONL event stream (span, checkpoint,
    /// provenance-link, warning and metrics lines) to `path`, appending
    /// so resumed sweeps extend the same stream; a torn or corrupt tail
    /// is truncated and the frame sequence continues from the valid
    /// prefix.
    pub fn set_event_sink(&self, path: &Path) -> io::Result<()> {
        self.set_event_sink_with(path, SinkOptions::direct(StreamKind::Events))
    }

    /// [`Telemetry::set_event_sink`] with explicit sink options: `opts`
    /// threads the run's shared I/O state and fault harness through.
    pub fn set_event_sink_with(&self, path: &Path, opts: SinkOptions) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let writer = FramedWriter::open(path, opts)?;
        *inner.sink.lock().expect("event sink poisoned") = Some(writer);
        Ok(())
    }

    /// Closes the event sink, if one is open; later events reach no
    /// file. Called when a journaled run finalizes.
    pub fn close_event_sink(&self) {
        if let Some(inner) = &self.inner {
            *inner.sink.lock().expect("event sink poisoned") = None;
        }
    }

    /// Emits a checkpoint event tying a journaled app record to the span
    /// that produced it, so a resumed run can stitch the timeline.
    pub fn emit_checkpoint(&self, app: &str, span: u64) {
        let Some(inner) = &self.inner else { return };
        let line = serde::Value::Object(vec![
            (
                "type".to_string(),
                serde::Value::Str("checkpoint".to_string()),
            ),
            ("app".to_string(), serde::Value::Str(app.to_string())),
            ("span".to_string(), span.to_json()),
            ("t_us".to_string(), inner.now_us().to_json()),
        ])
        .to_compact_string();
        inner.write_event(&line);
    }

    /// Emits a provenance-link event tying an app's ledger record to the
    /// span that produced it. The ledger itself omits span ids (they
    /// depend on worker interleave and would break its byte-determinism),
    /// so this event-stream line is the durable cross-reference.
    pub fn emit_provenance_link(&self, app: &str, span: u64) {
        let Some(inner) = &self.inner else { return };
        let line = serde::Value::Object(vec![
            (
                "type".to_string(),
                serde::Value::Str("provenance".to_string()),
            ),
            ("app".to_string(), serde::Value::Str(app.to_string())),
            ("span".to_string(), span.to_json()),
            ("t_us".to_string(), inner.now_us().to_json()),
        ])
        .to_compact_string();
        inner.write_event(&line);
    }

    /// Emits a structured warning event (`{"type":"warn","kind":...}`)
    /// to the live event stream — the observatory's channel for
    /// straggler and stall alerts, which `dcltrace top` surfaces while
    /// the sweep runs. Like span lines, warnings are live-only detail:
    /// the log is removed once the run finalizes.
    pub fn emit_warning(&self, kind: &str, app: &str, detail: &[(&str, u64)]) {
        let Some(inner) = &self.inner else { return };
        let mut pairs = vec![
            ("type".to_string(), serde::Value::Str("warn".to_string())),
            ("kind".to_string(), serde::Value::Str(kind.to_string())),
            ("app".to_string(), serde::Value::Str(app.to_string())),
        ];
        for (name, value) in detail {
            pairs.push(((*name).to_string(), value.to_json()));
        }
        pairs.push(("t_us".to_string(), inner.now_us().to_json()));
        inner.write_event(&serde::Value::Object(pairs).to_compact_string());
    }

    /// Emits a metrics snapshot (`{"type":"metrics","virtual_us":…,
    /// "snapshot":…}`) — the full registry stamped with the virtual
    /// clock — to the live event stream, where `dcltrace top` reads it.
    /// Like warnings, snapshots are live-only detail: the log is removed
    /// once the run finalizes.
    pub fn emit_metrics(&self, virtual_us: u64) {
        let Some(inner) = &self.inner else { return };
        let line = serde::Value::Object(vec![
            ("type".to_string(), serde::Value::Str("metrics".to_string())),
            ("virtual_us".to_string(), virtual_us.to_json()),
            ("snapshot".to_string(), inner.registry.snapshot().to_json()),
        ])
        .to_compact_string();
        inner.write_event(&line);
    }

    /// Loads span events from a previous session's JSONL stream so a
    /// resumed sweep extends the same timeline: stitched spans are
    /// retained for trace export and the span-id counter is advanced
    /// past the highest prior id (ids stay unique across sessions).
    /// Histograms are *not* replayed — metrics describe this process.
    /// Returns the number of spans stitched; the first torn or corrupt
    /// frame stops the read (same tolerance as the journal).
    pub fn stitch_from(&self, path: &Path) -> io::Result<usize> {
        let Some(inner) = &self.inner else {
            return Ok(0);
        };
        let mut loaded = 0usize;
        let mut max_id = 0u64;
        read_frames(path, |_, body| {
            let Ok(value) = serde_json::from_str::<serde::Value>(body) else {
                return ControlFlow::Break(());
            };
            let kind = value.get("type").and_then(|t| t.as_str());
            if kind == Some("span") {
                if let Ok(record) = SpanRecord::from_json(&value) {
                    max_id = max_id.max(record.id);
                    inner.store_span(record);
                    loaded += 1;
                }
            } else if kind == Some("checkpoint") || kind == Some("provenance") {
                if let Some(id) = value.get("span").and_then(|s| s.as_u64()) {
                    max_id = max_id.max(id);
                }
            }
            ControlFlow::Continue(())
        })?;
        inner.next_span.fetch_max(max_id + 1, Ordering::Relaxed);
        Ok(loaded)
    }

    /// Writes all retained spans as Chrome `trace_event` JSON, loadable
    /// in `chrome://tracing` or Perfetto.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        let doc = chrome_trace(&self.spans());
        std::fs::write(path, doc.to_compact_string() + "\n")
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    record: Option<SpanRecord>,
}

/// RAII guard for an open span; ends and records the span on drop.
/// All methods are no-ops when telemetry is disabled.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// The span's id, or 0 when telemetry is disabled.
    pub fn id(&self) -> u64 {
        self.active
            .as_ref()
            .and_then(|a| a.record.as_ref())
            .map_or(0, |r| r.id)
    }

    /// Whether this guard refers to a live span.
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// Attaches a structured `key = value` field.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(record) = self.active.as_mut().and_then(|a| a.record.as_mut()) {
            record.fields.push((key.to_string(), value.to_string()));
        }
    }

    /// Opens a child span of this span.
    pub fn child(&self, name: &str) -> SpanGuard {
        match &self.active {
            None => SpanGuard { active: None },
            Some(active) => Telemetry {
                inner: Some(Arc::clone(&active.inner)),
            }
            .span_with_parent(name, self.id()),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut active) = self.active.take() {
            if let Some(record) = active.record.take() {
                active.inner.finish_span(record);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Converts spans to a Chrome `trace_event` document (the JSON object
/// form: `{"traceEvents": [...]}`), loadable in `chrome://tracing` and
/// Perfetto. Each span becomes a complete (`"ph": "X"`) event on the
/// worker lane it ran on; span id, parent id, and structured fields ride
/// in `args`.
pub fn chrome_trace(spans: &[SpanRecord]) -> serde::Value {
    let events: Vec<serde::Value> = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), s.id.to_json()),
                ("parent".to_string(), s.parent.to_json()),
            ];
            for (k, v) in &s.fields {
                args.push((k.clone(), serde::Value::Str(v.clone())));
            }
            serde::Value::Object(vec![
                ("name".to_string(), serde::Value::Str(s.name.clone())),
                ("cat".to_string(), serde::Value::Str("dydroid".to_string())),
                ("ph".to_string(), serde::Value::Str("X".to_string())),
                ("ts".to_string(), s.start_us.to_json()),
                ("dur".to_string(), s.dur_us.to_json()),
                ("pid".to_string(), 1u64.to_json()),
                ("tid".to_string(), s.tid.to_json()),
                ("args".to_string(), serde::Value::Object(args)),
            ])
        })
        .collect();
    serde::Value::Object(vec![
        ("traceEvents".to_string(), serde::Value::Array(events)),
        (
            "displayTimeUnit".to_string(),
            serde::Value::Str("ms".to_string()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_is_exact_below_subs_and_bounded_above() {
        // Unit buckets below SUBS.
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
        }
        // Every bucket's lower bound maps back to that bucket, and
        // bucket lower bounds are strictly increasing.
        let mut prev = None;
        for i in 0..NUM_BUCKETS {
            let lb = bucket_lower(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
            if let Some(p) = prev {
                assert!(lb > p, "bucket {i} not increasing");
            }
            prev = Some(lb);
        }
        // Relative error bound: lower bound within 1/16 of any value.
        for v in [17u64, 100, 999, 12_345, u32::MAX as u64, u64::MAX / 3] {
            let lb = bucket_lower(bucket_index(v));
            assert!(lb <= v);
            assert!(v - lb <= v / SUBS as u64, "error too large for {v}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_track_the_distribution() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 500_500);
        let p50 = h.quantile(0.50);
        assert!((469..=531).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((928..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000);

        // A point mass at a bucket boundary is reported exactly.
        let mut point = Histogram::new();
        for _ in 0..100 {
            point.record(4096);
        }
        assert_eq!(point.quantile(0.5), 4096);
        assert_eq!(point.summary().p99, 4096);
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for v in [3u64, 17, 170, 1_700, 17_000] {
            a.record(v);
            combined.record(v);
        }
        for v in [5u64, 50, 500_000] {
            b.record(v);
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), combined.summary());
    }

    #[test]
    fn registry_counters_gauges_histograms_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter_add("apps", 3);
        reg.counter_add("apps", 4);
        reg.gauge_set("workers", 8);
        reg.record("lat.us", 100);
        reg.record("lat.us", 200);
        assert_eq!(reg.counter_value("apps"), 7);
        assert_eq!(reg.counter_value("missing"), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("apps"), 7);
        assert_eq!(snap.gauges, vec![("workers".to_string(), 8)]);
        let lat = snap.histogram("lat.us").expect("histogram");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.min, 100);
        assert_eq!(lat.max, 200);
        // The snapshot serializes and parses back through the shim.
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }

    #[test]
    fn spans_nest_and_record_fields() {
        let t = Telemetry::new(true);
        {
            let mut root = t.span("app");
            root.field("app", "com.example");
            {
                let mut child = root.child("monkey");
                child.field("events", 10);
                assert_ne!(child.id(), 0);
                assert_ne!(child.id(), root.id());
            }
            let grand = root.child("analysis");
            drop(grand);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "app").expect("root span");
        assert_eq!(root.parent, 0);
        assert_eq!(
            root.fields,
            vec![("app".to_string(), "com.example".to_string())]
        );
        for child in spans.iter().filter(|s| s.name != "app") {
            assert_eq!(child.parent, root.id);
        }
        // The drop hook fed the per-phase histograms.
        let snap = t.snapshot();
        assert_eq!(snap.histogram("span.app.us").expect("app histo").count, 1);
        assert_eq!(
            snap.histogram("span.monkey.us")
                .expect("monkey histo")
                .count,
            1
        );
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::disabled();
        let mut span = t.span("app");
        assert_eq!(span.id(), 0);
        assert!(!span.is_recording());
        span.field("k", "v");
        let child = span.child("inner");
        assert_eq!(child.id(), 0);
        drop(child);
        drop(span);
        t.counter_add("c", 1);
        assert_eq!(t.counter_value("c"), 0);
        assert!(t.spans().is_empty());
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn chrome_trace_document_parses_back() {
        let t = Telemetry::new(true);
        {
            let mut root = t.span("app");
            root.field("app", "com.x");
            let _child = root.child("monkey");
        }
        let doc = chrome_trace(&t.spans());
        let text = doc.to_compact_string();
        let parsed: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(|p| p.as_str()), Some("X"));
            assert!(ev.get("ts").and_then(|t| t.as_u64()).is_some());
            assert!(ev.get("dur").and_then(|d| d.as_u64()).is_some());
            assert!(ev.get("name").and_then(|n| n.as_str()).is_some());
            assert!(ev.get("args").and_then(|a| a.get("id")).is_some());
        }
    }

    #[test]
    fn event_stream_stitches_across_sessions() {
        let path = std::env::temp_dir().join(format!(
            "dydroid-stitch-{}-{:?}.events.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);

        // Session 1: two spans and a checkpoint.
        let first = Telemetry::new(true);
        first.set_event_sink(&path).expect("sink");
        let first_ids: Vec<u64> = {
            let mut root = first.span("app");
            root.field("app", "com.a");
            let child = root.child("monkey");
            vec![root.id(), child.id()]
        };
        first.emit_checkpoint("com.a", first_ids[0]);
        drop(first);

        // Session 2 stitches the stream and continues the timeline.
        let second = Telemetry::new(true);
        let loaded = second.stitch_from(&path).expect("stitch");
        assert_eq!(loaded, 2);
        second.set_event_sink(&path).expect("sink");
        let new_id = {
            let span = second.span("app");
            span.id()
        };
        // Ids never collide across sessions.
        assert!(first_ids.iter().all(|&id| id != new_id));
        let spans = second.spans();
        assert_eq!(spans.len(), 3);
        let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "span ids must be unique after stitching");

        // A torn tail on the event stream is tolerated like the journal's.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| {
                use std::io::Write;
                f.write_all(b"{\"type\":\"span\",\"id\":9")
            })
            .expect("append torn tail");
        let third = Telemetry::new(true);
        assert_eq!(third.stitch_from(&path).expect("stitch torn"), 3);
        let _ = std::fs::remove_file(&path);
    }
}
