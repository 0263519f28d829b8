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
//!   (app id, retry attempt, cache hit/miss deltas, verdict). A child is
//!   opened under its parent's guard, which worker threads share by
//!   reference. A span is folded as it closes: its path's entry in the
//!   [`SpanProfile`] (count, total µs, self µs — the part of its interval
//!   no child covers) and its `span.<name>.us` histogram sample are all
//!   that outlive it, so telemetry memory does not grow with the spans a
//!   run closes. Span ids are recorded in the sweep's JSONL event stream
//!   so resumed runs stitch into the same timeline.
//! - **Metrics** — a lock-striped registry (mirroring the `cache.rs`
//!   shard pattern) of counters, gauges, and log-linear histograms,
//!   feeding p50/p95/p99 per-phase latency into an extended
//!   `render_perf()`.
//! - **Exporters** — (1) a JSONL event log written alongside the
//!   journal while a run is live (finalize removes it), and (2) Chrome
//!   `trace_event` JSON loadable in `chrome://tracing` / Perfetto,
//!   streamed from [`Telemetry::open_trace`] to
//!   [`Telemetry::close_trace`], one event per span that closes or is
//!   stitched in between. A span keeps its fields, and is encoded, only
//!   while one of them is open. A caller may poll the live `sweep.*`
//!   gauges while a run goes, through `Pipeline::telemetry()`.
//!
//! Everything is gated by `PipelineConfig::telemetry`: a disabled
//! [`Telemetry`] is a single `Option` check per call site — no
//! allocation, no clock read, no atomics.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::durable::{read_frames, FramedWriter, SinkOptions, StreamKind};
use crate::profile::SpanProfile;

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

    /// The named metric, created by `make` if absent; the name is copied
    /// only then.
    fn metric(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut shard = lock(self.shard(name));
        if let Some(metric) = shard.get(name) {
            return metric.clone();
        }
        let metric = make();
        shard.insert(name.to_string(), metric.clone());
        metric
    }

    /// Adds `n` to the named counter, creating it at zero if needed.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Metric::Counter(c) = self.metric(name, || Metric::Counter(Arc::default())) {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value of the named counter (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        let shard = lock(self.shard(name));
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
        let shard = lock(self.shard(name));
        match shard.get(name) {
            Some(Metric::Gauge(g)) => g.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Records `v` into the named histogram, creating it if needed.
    pub fn record(&self, name: &str, v: u64) {
        lock(&self.histogram(name)).record(v);
    }

    /// The named histogram, created if needed (a detached one when the
    /// name is another kind of metric).
    fn histogram(&self, name: &str) -> Arc<Mutex<Histogram>> {
        match self.metric(name, || Metric::Histo(Arc::default())) {
            Metric::Histo(h) => h,
            _ => Arc::default(),
        }
    }

    /// Point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for shard in self.shards.iter() {
            let shard = lock(shard);
            for (name, metric) in shard.iter() {
                match metric {
                    Metric::Counter(c) => {
                        counters.push((name.clone(), c.load(Ordering::Relaxed)));
                    }
                    Metric::Gauge(g) => gauges.push((name.clone(), g.load(Ordering::Relaxed))),
                    Metric::Histo(h) => {
                        let summary = lock(h).summary();
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
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A closed span as one line of the event stream carries it: the decoded
/// form of a `{"type":"span"}` line, and the form a stitched span takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within the timeline (never 0; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root span.
    pub parent: u64,
    /// Phase name ("app", "monkey", "binary_analysis", …).
    pub name: String,
    /// The `;`-joined span names from the root span down to this one.
    pub path: String,
    /// Worker lane the span ran on (stable per thread).
    pub tid: u64,
    /// Start offset from the telemetry epoch, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// The part of the span's interval no child span covers, in µs.
    pub self_us: u64,
    /// Structured key/value fields attached via [`SpanGuard::field`].
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// The span as a Chrome `trace_event` complete (`"ph":"X"`) event on
    /// its worker lane; its id, parent id and fields ride in `args`.
    fn trace_event(&self) -> String {
        let mut event = String::from("{\"name\":");
        self.name.write_json(&mut event);
        let _ = write!(
            event,
            ",\"cat\":\"dydroid\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
             \"args\":{{\"id\":{},\"parent\":{}",
            self.start_us, self.dur_us, self.tid, self.id, self.parent
        );
        for (key, value) in &self.fields {
            event.push(',');
            key.write_json(&mut event);
            event.push(':');
            value.write_json(&mut event);
        }
        event.push_str("}}");
        event
    }
}

/// Locks `m`, recovering it from a panic elsewhere: spans close in `Drop`,
/// even while unwinding, and no update under these locks breaks its data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One interned span path: its `;`-joined names, its spans' `span.<name>.us`
/// histogram (resolved at the first close) and the paths below it.
#[derive(Debug, Default)]
struct SpanPath {
    joined: Box<str>,
    name: &'static str,
    histogram: OnceLock<Arc<Mutex<Histogram>>>,
    children: Mutex<Vec<Arc<SpanPath>>>,
}

impl SpanPath {
    /// The path one `name` below this one, interned on first use.
    fn child(&self, name: &'static str) -> Arc<SpanPath> {
        let mut children = lock(&self.children);
        if let Some(path) = children.iter().find(|path| path.name == name) {
            return Arc::clone(path);
        }
        let joined = match &*self.joined {
            "" => name.into(),
            parent => format!("{parent};{name}").into(),
        };
        let path = Arc::new(SpanPath {
            joined,
            name,
            ..SpanPath::default()
        });
        children.push(Arc::clone(&path));
        path
    }
}

/// µs of a span's direct children, summed by name.
pub type ChildTable = Vec<(&'static str, u64)>;

/// The mutable part of an open span: its direct children's count open,
/// cover of its interval (time with one of them open) and µs by name,
/// and the fields it keeps while an event sink or a trace is open.
#[derive(Debug, Default)]
struct SpanState {
    open: u32,
    since_us: u64,
    covered_us: u64,
    children: ChildTable,
    fields: Vec<(String, String)>,
}

impl SpanState {
    fn child_opened(&mut self, now_us: u64) {
        if self.open == 0 {
            self.since_us = now_us;
        }
        self.open += 1;
    }

    fn child_closed(&mut self, name: &'static str, dur_us: u64, now_us: u64) {
        self.open = self.open.saturating_sub(1);
        if self.open == 0 {
            self.covered_us += now_us.saturating_sub(self.since_us);
        }
        match self.children.iter_mut().find(|(child, _)| *child == name) {
            Some((_, us)) => *us += dur_us,
            None => self.children.push((name, dur_us)),
        }
    }

    /// Self time of a span over `[start_us, end_us]`: the part of it no
    /// child covered (a child still open covers the rest).
    fn self_us(&self, start_us: u64, end_us: u64) -> u64 {
        let open_since = if self.open > 0 { self.since_us } else { end_us };
        let covered = self.covered_us + end_us.saturating_sub(open_since);
        end_us.saturating_sub(start_us).saturating_sub(covered)
    }
}

/// An open span, which its guard and its open children share.
#[derive(Debug)]
struct SpanNode {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<Arc<SpanNode>>,
    path: Arc<SpanPath>,
    tid: u64,
    start_us: u64,
    state: Mutex<SpanState>,
}

impl SpanNode {
    /// Reports the span's µs to its parent, records its histogram sample,
    /// folds it and writes it to an open event sink or trace. Returns its
    /// children's µs by name.
    fn close(&self) -> ChildTable {
        let (inner, path) = (&self.inner, &self.path);
        let end_us = inner.now_us();
        let dur_us = end_us.saturating_sub(self.start_us);
        let state = std::mem::take(&mut *lock(&self.state));
        let self_us = state.self_us(self.start_us, end_us);
        if let Some(parent) = &self.parent {
            lock(&parent.state).child_closed(path.name, dur_us, end_us);
        }
        let histogram = path
            .histogram
            .get_or_init(|| inner.registry.histogram(&format!("span.{}.us", path.name)));
        lock(histogram).record(dur_us);
        lock(&inner.profile).fold(&path.joined, dur_us, self_us);
        if inner.exporting.load(Ordering::Relaxed) {
            let span = SpanRecord {
                id: self.id,
                parent: self.parent.as_ref().map_or(0, |p| p.id),
                name: path.name.to_string(),
                path: path.joined.to_string(),
                tid: self.tid,
                start_us: self.start_us,
                dur_us,
                self_us,
                fields: state.fields,
            };
            inner.write_event(|line| {
                span.write_json(line);
                line.replace_range(..1, "{\"type\":\"span\",");
            });
            inner.write_trace(&span);
        }
        state.children
    }
}

/// A Chrome `trace_event` document being streamed to its file, in the
/// object form `{"traceEvents":[…],"displayTimeUnit":"ms"}`: its
/// writer, the separator before its next event, and the result of its
/// writes so far (a failed one stops the later ones).
type TraceFile = (BufWriter<File>, &'static str, io::Result<()>);

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    registry: MetricsRegistry,
    /// The interned paths of root spans.
    root: SpanPath,
    /// Every closed or stitched span, folded by path.
    profile: Mutex<SpanProfile>,
    /// The framed event stream, when one is open.
    sink: Mutex<Option<FramedWriter>>,
    /// The Chrome trace being streamed, when one is open.
    trace: Mutex<Option<TraceFile>>,
    /// Whether the sink or the trace is open; a hint, rechecked per write.
    exporting: AtomicBool,
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
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn open(self: &Arc<Self>, name: &'static str, parent: Option<&Arc<SpanNode>>) -> SpanGuard {
        let path = parent.map_or(&self.root, |p| &p.path).child(name);
        let start_us = self.now_us();
        if let Some(parent) = parent {
            lock(&parent.state).child_opened(start_us);
        }
        SpanGuard {
            node: Some(Arc::new(SpanNode {
                inner: Arc::clone(self),
                id: self.next_span.fetch_add(1, Ordering::Relaxed),
                parent: parent.cloned(),
                path,
                tid: thread_lane(),
                start_us,
                state: Mutex::default(),
            })),
        }
    }

    /// Re-reads whether an exporter is open, after one opened or closed.
    fn refresh_exporting(&self) {
        let open = lock(&self.sink).is_some() || lock(&self.trace).is_some();
        self.exporting.store(open, Ordering::Relaxed);
    }

    /// Mirror the journal's crash discipline: one framed line per
    /// event, encoded by `encode` only while a sink is open. The writer
    /// sheds events itself under disk pressure; hard errors are counted
    /// and warned once (the event log is observability only and
    /// recovery never reads it, so a lost event never corrupts the
    /// durable record).
    fn write_event(&self, encode: impl FnOnce(&mut String)) {
        let mut sink = lock(&self.sink);
        let Some(w) = sink.as_mut() else { return };
        let mut line = String::new();
        encode(&mut line);
        if let Err(e) = w.append_body(&line) {
            self.registry.counter_add("telemetry.event_write_errors", 1);
            if self.registry.counter_value("telemetry.event_write_errors") == 1 {
                eprintln!("dydroid: events: write failed ({e}); degrading telemetry");
            }
        }
    }

    /// Appends `span` to the trace, when one is open.
    fn write_trace(&self, span: &SpanRecord) {
        if let Some((out, separator, written @ Ok(()))) = lock(&self.trace).as_mut() {
            *written = write!(out, "{separator}{}", span.trace_event());
            *separator = ",";
        }
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
        let inner = enabled.then(|| {
            Arc::new(Inner {
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                registry: MetricsRegistry::new(),
                root: SpanPath::default(),
                profile: Mutex::default(),
                sink: Mutex::default(),
                trace: Mutex::default(),
                exporting: AtomicBool::default(),
            })
        });
        Telemetry { inner }
    }

    /// Whether telemetry is collecting.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a root span. The span ends (and is folded) on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_with_parent(name, &NO_PARENT)
    }

    /// Opens a span under the one `parent` guards, or a root span under a
    /// guard of none; worker threads share the sweep span's by reference.
    pub fn span_with_parent(&self, name: &'static str, parent: &SpanGuard) -> SpanGuard {
        match &self.inner {
            None => SpanGuard::default(),
            Some(inner) => inner.open(name, parent.node.as_ref()),
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

    /// The profile of every span closed or stitched so far (empty when
    /// disabled).
    pub fn profile(&self) -> SpanProfile {
        self.inner
            .as_ref()
            .map_or_else(SpanProfile::default, |i| lock(&i.profile).clone())
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
        *lock(&inner.sink) = Some(FramedWriter::open(path, opts)?);
        inner.refresh_exporting();
        Ok(())
    }

    /// Closes the event sink, if one is open; later events reach no
    /// file. Called when a journaled run finalizes.
    pub fn close_event_sink(&self) {
        if let Some(inner) = &self.inner {
            *lock(&inner.sink) = None;
            inner.refresh_exporting();
        }
    }

    /// Starts streaming a Chrome `trace_event` document, loadable in
    /// `chrome://tracing` or Perfetto, to `path`: every span that closes
    /// or is stitched from here on appends one complete event, until
    /// [`Telemetry::close_trace`]. A disabled handle creates no file.
    ///
    /// # Errors
    ///
    /// Returns the error of creating `path` or writing to it.
    pub fn open_trace(&self, path: &Path) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        *lock(&inner.trace) = Some((out, "", Ok(())));
        inner.refresh_exporting();
        Ok(())
    }

    /// Ends and flushes the streamed trace document, if one is open.
    ///
    /// # Errors
    ///
    /// Returns the first error any write to the trace file met.
    pub fn close_trace(&self) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let trace = lock(&inner.trace).take();
        inner.refresh_exporting();
        let Some((mut out, _, written)) = trace else {
            return Ok(());
        };
        written?;
        out.write_all(b"],\"displayTimeUnit\":\"ms\"}\n")?;
        out.flush()
    }

    /// Emits a checkpoint event tying a journaled app record to the span
    /// that produced it, so a resumed run can stitch the timeline.
    pub fn emit_checkpoint(&self, app: &str, span: u64) {
        self.emit_link("checkpoint", app, span);
    }

    /// Emits a provenance-link event tying an app's ledger record to the
    /// span that produced it. The ledger itself omits span ids (they
    /// depend on worker interleave and would break its byte-determinism),
    /// so this event-stream line is the durable cross-reference.
    pub fn emit_provenance_link(&self, app: &str, span: u64) {
        self.emit_link("provenance", app, span);
    }

    fn emit_link(&self, kind: &str, app: &str, span: u64) {
        let Some(inner) = &self.inner else { return };
        inner.write_event(|line| {
            let _ = write!(line, "{{\"type\":\"{kind}\",\"app\":");
            app.write_json(line);
            let _ = write!(line, ",\"span\":{span},\"t_us\":{}}}", inner.now_us());
        });
    }

    /// Emits a structured warning event (`{"type":"warn","kind":...}`)
    /// to the live event stream — the observatory's channel for
    /// straggler and stall alerts, which `dcltrace top` surfaces while
    /// the sweep runs. Like span lines, warnings are live-only detail:
    /// the log is removed once the run finalizes.
    pub fn emit_warning(&self, kind: &str, app: &str, detail: &[(&str, u64)]) {
        let Some(inner) = &self.inner else { return };
        inner.write_event(|line| {
            line.push_str("{\"type\":\"warn\",\"kind\":");
            kind.write_json(line);
            line.push_str(",\"app\":");
            app.write_json(line);
            for (name, value) in detail {
                line.push(',');
                name.write_json(line);
                let _ = write!(line, ":{value}");
            }
            let _ = write!(line, ",\"t_us\":{}}}", inner.now_us());
        });
    }

    /// Emits a metrics snapshot (`{"type":"metrics","virtual_us":…,
    /// "snapshot":…}`) — the full registry stamped with the virtual
    /// clock — to the live event stream, where `dcltrace top` reads it.
    /// Like warnings, snapshots are live-only detail: the log is removed
    /// once the run finalizes.
    pub fn emit_metrics(&self, virtual_us: u64) {
        let Some(inner) = &self.inner else { return };
        inner.write_event(|line| {
            let _ = write!(
                line,
                "{{\"type\":\"metrics\",\"virtual_us\":{virtual_us},\"snapshot\":"
            );
            inner.registry.snapshot().write_json(line);
            line.push('}');
        });
    }

    /// Loads span events from a previous session's JSONL stream so a
    /// resumed sweep extends the same timeline: each stitched span is
    /// folded into the profile at the path its line carries and appended
    /// to an open trace, and the span-id counter is advanced past the
    /// highest prior id (ids stay unique across sessions). Histograms
    /// are *not* replayed — metrics describe this process. Returns the
    /// number of spans stitched; the first torn or corrupt frame stops
    /// the read (same tolerance as the journal).
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
                if let Ok(span) = SpanRecord::from_json(&value) {
                    max_id = max_id.max(span.id);
                    lock(&inner.profile).fold(&span.path, span.dur_us, span.self_us);
                    inner.write_trace(&span);
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
}

/// The parent of root spans: a static, so opening one drops no guard.
static NO_PARENT: SpanGuard = SpanGuard { node: None };

/// RAII guard for an open span; ends and folds the span on drop.
/// All methods are no-ops when telemetry is disabled.
#[derive(Debug, Default)]
pub struct SpanGuard {
    node: Option<Arc<SpanNode>>,
}

impl SpanGuard {
    /// The span's id, or 0 when telemetry is disabled.
    pub fn id(&self) -> u64 {
        self.node.as_ref().map_or(0, |n| n.id)
    }

    /// Whether [`SpanGuard::field`] keeps a field now: an event sink or
    /// a trace is open to write it to.
    pub(crate) fn keeps_fields(&self) -> bool {
        self.node
            .as_ref()
            .is_some_and(|node| node.inner.exporting.load(Ordering::Relaxed))
    }

    /// Attaches a structured `key = value` field, kept only while an
    /// event sink or a trace is open to write it to.
    pub fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        if let (true, Some(node)) = (self.keeps_fields(), &self.node) {
            let field = (key.to_string(), value.to_string());
            lock(&node.state).fields.push(field);
        }
    }

    /// Ends the span now; returns its children's µs by name (`ChildTable`).
    pub fn close(mut self) -> ChildTable {
        self.node
            .take()
            .map(|node| node.close())
            .unwrap_or_default()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(node) = self.node.take() {
            node.close();
        }
    }
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

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dydroid-telemetry-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// The spans of a framed event stream, in the order they closed.
    fn span_lines(path: &Path) -> Vec<SpanRecord> {
        let mut spans = Vec::new();
        read_frames(path, |_, body| {
            let value: serde::Value = serde_json::from_str(body).expect("event line parses");
            if value.get("type").and_then(|t| t.as_str()) == Some("span") {
                spans.push(SpanRecord::from_json(&value).expect("span line decodes"));
            }
            ControlFlow::Continue(())
        })
        .expect("read event stream");
        spans
    }

    #[test]
    fn spans_nest_and_record_fields() {
        let path = temp_path("nest");
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::new(true);
        t.set_event_sink(&path).expect("sink");
        let (root_id, phases) = {
            let mut root = t.span("app");
            root.field("app", "com.example");
            {
                let mut child = t.span_with_parent("monkey", &root);
                child.field("events", 10);
                assert_ne!(child.id(), 0);
                assert_ne!(child.id(), root.id());
            }
            // A child opened on another thread, as a sweep worker does.
            std::thread::scope(|s| {
                s.spawn(|| drop(t.span_with_parent("analysis", &root)));
            });
            drop(t.span_with_parent("monkey", &root));
            (root.id(), root.close())
        };
        // The child table sums repeated phases by name.
        let names: Vec<&str> = phases.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["monkey", "analysis"]);
        let spans = span_lines(&path);
        assert_eq!(spans.len(), 4);
        let root = spans.last().expect("the root closes last");
        assert_eq!((root.id, root.parent), (root_id, 0));
        assert_eq!(root.path, "app");
        assert_eq!(
            root.fields,
            vec![("app".to_string(), "com.example".to_string())]
        );
        assert!(root.self_us <= root.dur_us);
        for child in &spans[..3] {
            assert_eq!(child.parent, root_id);
            assert_eq!(child.path, format!("app;{}", child.name));
            assert_eq!(child.self_us, child.dur_us, "a leaf keeps all its time");
        }
        // The close fed the per-phase histograms and the profile.
        let snap = t.snapshot();
        assert_eq!(snap.histogram("span.app.us").expect("app histo").count, 1);
        assert_eq!(
            snap.histogram("span.monkey.us")
                .expect("monkey histo")
                .count,
            2
        );
        let profile = t.profile();
        assert_eq!(profile.span_count(), 4);
        let paths: Vec<&str> = profile.entries().map(|(path, _)| path).collect();
        assert_eq!(paths, ["app", "app;analysis", "app;monkey"]);
        let _ = std::fs::remove_file(&path);
    }

    /// Self time is the part of a span's interval no child covers: two
    /// overlapping children and a gap, on explicit timestamps. Subtracting
    /// the children's summed µs would read 100 − (40 + 40) = 20.
    #[test]
    fn self_time_is_the_uncovered_part_of_the_interval() {
        let mut cover = SpanState::default();
        cover.child_opened(10); // a: [10, 50]
        cover.child_opened(30); // b: [30, 70]
        cover.child_closed("a", 40, 50);
        cover.child_closed("b", 40, 70);
        // Covered [10, 70]; uncovered [0, 10] and [70, 100].
        assert_eq!(cover.self_us(0, 100), 40);
        assert_eq!(cover.children, vec![("a", 40), ("b", 40)]);

        // Children one after another are subtracted exactly.
        let mut serial = SpanState::default();
        serial.child_opened(0);
        serial.child_closed("a", 30, 30);
        serial.child_opened(30);
        serial.child_closed("a", 50, 80);
        assert_eq!(serial.self_us(0, 100), 20);
        assert_eq!(serial.children, vec![("a", 80)]);

        // Children whose µs sum past the parent's still leave its gaps,
        // and a child open at the close covers the rest.
        let mut busy = SpanState::default();
        busy.child_opened(0);
        busy.child_opened(10);
        busy.child_closed("a", 80, 80);
        busy.child_closed("b", 80, 90);
        busy.child_opened(95);
        assert_eq!(busy.self_us(0, 100), 5);
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = Telemetry::new(false);
        let mut span = t.span("app");
        assert_eq!(span.id(), 0);
        span.field("k", "v");
        let child = t.span_with_parent("inner", &span);
        assert_eq!(child.id(), 0);
        drop(child);
        assert!(span.close().is_empty());
        t.counter_add("c", 1);
        assert_eq!(t.counter_value("c"), 0);
        assert_eq!(t.profile(), SpanProfile::default());
        assert_eq!(t.snapshot(), MetricsSnapshot::default());
        let path = temp_path("disabled.trace.json");
        t.open_trace(&path).expect("no-op");
        t.close_trace().expect("no-op");
        assert!(!path.exists(), "a disabled handle wrote a trace");
    }

    #[test]
    fn chrome_trace_document_parses_back() {
        let path = temp_path("doc.trace.json");
        let t = Telemetry::new(true);
        // A span closed before the trace opens is not in it.
        drop(t.span("train"));
        t.open_trace(&path).expect("open trace");
        {
            let mut root = t.span("app");
            root.field("app", "com.\"x\"");
            let _child = t.span_with_parent("monkey", &root);
        }
        t.close_trace().expect("close trace");
        let text = std::fs::read_to_string(&path).expect("trace written");
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
        let app = events[1].get("args").and_then(|a| a.get("app"));
        assert_eq!(app.and_then(|a| a.as_str()), Some("com.\"x\""));
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(|u| u.as_str()),
            Some("ms")
        );
        // Once closed, spans reach no trace.
        drop(t.span("late"));
        assert_eq!(std::fs::read_to_string(&path).expect("trace"), text);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn event_stream_stitches_across_sessions() {
        let path = temp_path("stitch.events.jsonl");
        let _ = std::fs::remove_file(&path);

        // Session 1: two spans and a checkpoint.
        let first = Telemetry::new(true);
        first.set_event_sink(&path).expect("sink");
        let first_ids: Vec<u64> = {
            let mut root = first.span("app");
            root.field("app", "com.a");
            let child = first.span_with_parent("monkey", &root);
            vec![root.id(), child.id()]
        };
        first.emit_checkpoint("com.a", first_ids[0]);
        let first_profile = first.profile();
        drop(first);

        // Session 2 stitches the stream and continues the timeline: the
        // stitched spans fold at the paths their lines carry.
        let second = Telemetry::new(true);
        let loaded = second.stitch_from(&path).expect("stitch");
        assert_eq!(loaded, 2);
        assert_eq!(second.profile(), first_profile);
        second.set_event_sink(&path).expect("sink");
        let new_id = {
            let span = second.span("app");
            span.id()
        };
        // Ids never collide across sessions.
        assert!(first_ids.iter().all(|&id| id != new_id));
        let ids: std::collections::HashSet<u64> = span_lines(&path).iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "span ids must be unique after stitching");
        assert_eq!(second.profile().span_count(), 3);

        // A torn tail on the event stream is tolerated like the journal's.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(b"{\"type\":\"span\",\"id\":9"))
            .expect("append torn tail");
        let third = Telemetry::new(true);
        assert_eq!(third.stitch_from(&path).expect("stitch torn"), 3);
        let _ = std::fs::remove_file(&path);
    }
}
