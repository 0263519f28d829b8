//! Crash-consistent record framing and fault-injectable I/O.
//!
//! Every persistent stream the sweep writes — the journal, the
//! provenance ledger, the telemetry event stream, and the metrics
//! snapshot stream — shares one framed-record format defined here:
//! each line is a self-describing JSON envelope
//!
//! ```text
//! {"seq":<n>,"len":<body bytes>,"crc":<crc32 of body>,"body":<payload json>}
//! ```
//!
//! so a reader can detect truncation (missing trailing newline or short
//! body), bit rot (CRC mismatch), and lost records (sequence gap)
//! without trusting the payload, while `jq`/`dcltrace` keep working on
//! the line-oriented JSON. Frames are written through the [`RecordIo`]
//! trait; the production impl is a plain append-mode file, and the
//! fault-injecting impl ([`FaultIo`]) consults an [`IoHarness`] that can
//! force short writes, bit-flips, transient `EINTR`/`EAGAIN`-class
//! errors, `ENOSPC`, or a full crash at any write boundary on the
//! deterministic virtual op clock — the substrate for the crash-torture
//! matrix in `workload::faults`.
//!
//! [`FramedWriter`] layers policy on top: transient-error retries with
//! exponential backoff and seeded jitter against a per-run retry budget,
//! fsync scheduling per [`SyncPolicy`], and graceful degradation on disk
//! pressure — metrics snapshots shed first, telemetry events second,
//! provenance detail third, the journal never (see [`IoState`]).
//!
//! [`RecordFile`] types a framed file by its record: the journal, the
//! provenance ledger and the quarantine file share its load, recover,
//! rewrite, finalize and append code.

use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use dydroid_dex::checksum::crc32;
use dydroid_workload::faults::{retry_jitter, IoFaultKind, IoFaultScript};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Frame encode / decode / stream scan
// ---------------------------------------------------------------------------

/// Why a frame (and everything after it) was rejected during a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// The line is not a frame envelope (torn tail, raw JSON, garbage).
    BadHeader,
    /// The declared `len` disagrees with the body's byte count.
    LengthMismatch,
    /// The body's CRC32 disagrees with the declared `crc`.
    CrcMismatch,
    /// The sequence number is not the expected next one.
    SeqGap {
        /// Sequence number the scan expected.
        expected: u64,
        /// Sequence number the frame declared.
        found: u64,
    },
    /// The final line has no trailing newline: an append died mid-frame.
    TornTail,
    /// The line holds bytes that are not valid UTF-8 (bit rot).
    BadUtf8,
}

impl fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameDefect::BadHeader => write!(f, "unframed or torn header"),
            FrameDefect::LengthMismatch => write!(f, "length mismatch"),
            FrameDefect::CrcMismatch => write!(f, "crc mismatch"),
            FrameDefect::SeqGap { expected, found } => {
                write!(f, "sequence gap (expected {expected}, found {found})")
            }
            FrameDefect::TornTail => write!(f, "torn tail"),
            FrameDefect::BadUtf8 => write!(f, "invalid utf-8"),
        }
    }
}

/// Appends the framed record line (with trailing `\n`) of one body to
/// `out`.
///
/// The body must be single-line JSON; the envelope embeds it verbatim so
/// the frame itself stays valid JSON.
fn push_frame(out: &mut String, seq: u64, body: &str) {
    debug_assert!(!body.contains('\n'), "frame bodies must be single-line");
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"len\":{len},\"crc\":{crc},\"body\":",
        len = body.len(),
        crc = crc32(body.as_bytes()),
    );
    out.push_str(body);
    out.push_str("}\n");
}

/// Encodes one body line into a framed record line (with trailing `\n`).
pub fn encode_frame(seq: u64, body: &str) -> String {
    let mut out = String::new();
    push_frame(&mut out, seq, body);
    out
}

/// Encodes a batch of bodies as consecutive frames starting at `start_seq`.
pub fn encode_frames(start_seq: u64, bodies: &[String]) -> String {
    let mut out = String::new();
    for (seq, body) in (start_seq..).zip(bodies) {
        push_frame(&mut out, seq, body);
    }
    out
}

/// Encodes `records` as consecutive frames from sequence 0 into one
/// buffer: each body is written once into a reused scratch string, then
/// its header and the body are appended.
pub(crate) fn encode_records<T: Serialize>(records: &[T]) -> String {
    let mut out = String::new();
    let mut body = String::new();
    for (seq, record) in (0..).zip(records) {
        body.clear();
        record.write_json(&mut body);
        push_frame(&mut out, seq, &body);
    }
    out
}

fn parse_decimal(s: &str) -> Option<(u64, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if end == 0 {
        return None;
    }
    let value = s[..end].parse::<u64>().ok()?;
    Some((value, &s[end..]))
}

/// Decodes one frame line (without trailing newline) into `(seq, body)`.
///
/// The header is parsed strictly — literal key order, no whitespace — so
/// a flipped header byte reads as [`FrameDefect::BadHeader`] rather than
/// a different record.
pub fn decode_frame(line: &str) -> Result<(u64, &str), FrameDefect> {
    let rest = line
        .strip_prefix("{\"seq\":")
        .ok_or(FrameDefect::BadHeader)?;
    let (seq, rest) = parse_decimal(rest).ok_or(FrameDefect::BadHeader)?;
    let rest = rest
        .strip_prefix(",\"len\":")
        .ok_or(FrameDefect::BadHeader)?;
    let (len, rest) = parse_decimal(rest).ok_or(FrameDefect::BadHeader)?;
    let rest = rest
        .strip_prefix(",\"crc\":")
        .ok_or(FrameDefect::BadHeader)?;
    let (crc, rest) = parse_decimal(rest).ok_or(FrameDefect::BadHeader)?;
    let body = rest
        .strip_prefix(",\"body\":")
        .ok_or(FrameDefect::BadHeader)?;
    let body = body.strip_suffix('}').ok_or(FrameDefect::BadHeader)?;
    if body.len() as u64 != len {
        return Err(FrameDefect::LengthMismatch);
    }
    if crc > u64::from(u32::MAX) || crc32(body.as_bytes()) != crc as u32 {
        return Err(FrameDefect::CrcMismatch);
    }
    Ok((seq, body))
}

/// Where the valid frames of a stream end: the writer's resume point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamEnd {
    /// Sequence number the next appended frame must carry.
    pub next_seq: u64,
    /// Byte length of the valid frames (including the trailing newline).
    pub valid_len: u64,
}

/// Result of scanning a framed stream for its longest valid prefix.
#[derive(Debug, Clone, Default)]
pub struct StreamScan<'a> {
    /// Body payloads of the valid prefix, in sequence order, borrowed
    /// from the scanned bytes.
    pub bodies: Vec<&'a str>,
    /// Non-empty lines rejected at or after the first defect.
    pub dropped: usize,
    /// The defect that terminated the scan, if any.
    pub defect: Option<FrameDefect>,
    /// Sequence number the next appended frame must carry.
    pub next_seq: u64,
    /// Byte length of the valid prefix (including its trailing newline);
    /// truncating the file here removes every rejected byte.
    pub valid_len: u64,
}

impl StreamScan<'_> {
    /// True when the scan rejected nothing.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.defect.is_none()
    }

    /// Where the valid prefix ends.
    pub fn end(&self) -> StreamEnd {
        StreamEnd {
            next_seq: self.next_seq,
            valid_len: self.valid_len,
        }
    }
}

/// Scans raw stream bytes for the longest valid framed prefix.
///
/// Validation stops at the first defect — a valid stream always carries
/// sequence numbers `0..n` with no gaps — and everything from that point
/// on is counted as dropped. Empty lines inside the valid prefix are
/// skipped but kept (they cannot corrupt a reader).
pub fn scan_stream(bytes: &[u8]) -> StreamScan<'_> {
    let mut scan = StreamScan::default();
    let mut pos = 0usize;
    let mut defect = None;
    let mut tail_start = bytes.len();
    while pos < bytes.len() {
        let nl = bytes[pos..].iter().position(|&b| b == b'\n');
        let (line_end, next_pos, has_newline) = match nl {
            Some(off) => (pos + off, pos + off + 1, true),
            None => (bytes.len(), bytes.len(), false),
        };
        let raw = &bytes[pos..line_end];
        if raw.is_empty() {
            scan.valid_len = next_pos as u64;
            pos = next_pos;
            continue;
        }
        let verdict = match std::str::from_utf8(raw) {
            Err(_) => Err(FrameDefect::BadUtf8),
            Ok(_) if !has_newline => Err(FrameDefect::TornTail),
            Ok(line) => decode_frame(line).and_then(|(seq, body)| {
                if seq == scan.next_seq {
                    Ok(body)
                } else {
                    Err(FrameDefect::SeqGap {
                        expected: scan.next_seq,
                        found: seq,
                    })
                }
            }),
        };
        match verdict {
            Ok(body) => {
                scan.bodies.push(body);
                scan.next_seq += 1;
                scan.valid_len = next_pos as u64;
                pos = next_pos;
            }
            Err(d) => {
                defect = Some(d);
                tail_start = pos;
                break;
            }
        }
    }
    if let Some(d) = defect {
        scan.defect = Some(d);
        scan.dropped = bytes[tail_start..]
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .count();
    }
    scan
}

/// Reads the framed stream at `path` for [`scan_stream`]; `Ok(None)`
/// when the file is absent.
pub fn read_stream(path: &Path) -> io::Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Marker payload for simulated and real out-of-space conditions.
#[derive(Debug)]
pub struct DiskFull;

impl fmt::Display for DiskFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no space left on device")
    }
}

impl std::error::Error for DiskFull {}

/// Builds an `io::Error` carrying the [`DiskFull`] marker.
pub fn disk_full_error() -> io::Error {
    io::Error::other(DiskFull)
}

/// True when the error is disk-pressure: shed load, do not retry.
pub fn is_disk_full(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<DiskFull>())
}

/// True when the error is transient (`EINTR`/`EAGAIN`-class): worth a
/// bounded retry after backing off.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn transient_error() -> io::Error {
    io::Error::new(io::ErrorKind::WouldBlock, "simulated transient I/O error")
}

// ---------------------------------------------------------------------------
// Streams, sync policy, shared per-run I/O state
// ---------------------------------------------------------------------------

/// The four persistent streams a sweep writes, in shed-priority order:
/// under disk pressure metrics snapshots are shed first, telemetry
/// events second, provenance detail third, and the journal never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// The sweep journal — the source of truth, never shed.
    Journal,
    /// The provenance ledger — shed only under sustained pressure.
    Ledger,
    /// The telemetry event stream — shed before provenance detail.
    Events,
    /// The durable metrics snapshot stream — first to shed.
    Metrics,
}

impl StreamKind {
    /// All streams, indexable by [`StreamKind::index`].
    pub const ALL: [StreamKind; 4] = [
        StreamKind::Journal,
        StreamKind::Ledger,
        StreamKind::Events,
        StreamKind::Metrics,
    ];

    /// Stable array index for per-stream counters.
    pub fn index(self) -> usize {
        match self {
            StreamKind::Journal => 0,
            StreamKind::Ledger => 1,
            StreamKind::Events => 2,
            StreamKind::Metrics => 3,
        }
    }

    /// Human-readable stream name (matches the warning prefix).
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Journal => "journal",
            StreamKind::Ledger => "ledger",
            StreamKind::Events => "events",
            StreamKind::Metrics => "metrics",
        }
    }
}

/// When the writer forces appended frames to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SyncPolicy {
    /// Fsync after every appended record (safest, slowest).
    Always,
    /// Fsync every [`CHECKPOINT_SYNC_INTERVAL`] records (the default).
    #[default]
    Checkpoint,
    /// Never fsync explicitly; rely on the OS page cache.
    Never,
}

/// Appends between fsyncs under [`SyncPolicy::Checkpoint`].
pub const CHECKPOINT_SYNC_INTERVAL: u64 = 32;

/// Default per-run transient-retry budget (see `PipelineConfig`).
pub const DEFAULT_RETRY_BUDGET: u32 = 64;

/// Shared per-run I/O accounting: the shed level, the transient-retry
/// budget, and per-stream counters that feed `SweepStats`.
///
/// The shed level is sticky for the run: `ENOSPC` on the metrics
/// snapshot stream raises it to 1 (metrics shed), on the event stream
/// to 2 (metrics and events shed), on the ledger or journal to 3
/// (everything but the journal shed). The journal itself is never shed
/// — its failures surface as errors so the app is re-analyzed on
/// resume.
#[derive(Debug)]
pub struct IoState {
    shed_level: AtomicU8,
    retry_budget: AtomicU64,
    syncs: [AtomicU64; 4],
    retries: AtomicU64,
    backoff_us: AtomicU64,
    shed: [AtomicU64; 4],
    write_errors: [AtomicU64; 4],
}

impl IoState {
    /// Fresh state with `retry_budget` transient retries for the run.
    pub fn new(retry_budget: u32) -> Arc<Self> {
        Arc::new(IoState {
            shed_level: AtomicU8::new(0),
            retry_budget: AtomicU64::new(u64::from(retry_budget)),
            syncs: Default::default(),
            retries: AtomicU64::new(0),
            backoff_us: AtomicU64::new(0),
            shed: Default::default(),
            write_errors: Default::default(),
        })
    }

    /// True when records for `stream` should be shed at the current level.
    pub fn should_shed(&self, stream: StreamKind) -> bool {
        let level = self.shed_level.load(Ordering::Relaxed);
        match stream {
            StreamKind::Metrics => level >= 1,
            StreamKind::Events => level >= 2,
            StreamKind::Ledger => level >= 3,
            StreamKind::Journal => false,
        }
    }

    /// Raises the shed level after `ENOSPC` on `stream`.
    pub fn raise_shed_for(&self, stream: StreamKind) {
        let level = match stream {
            StreamKind::Metrics => 1,
            StreamKind::Events => 2,
            StreamKind::Ledger | StreamKind::Journal => 3,
        };
        self.shed_level.fetch_max(level, Ordering::Relaxed);
    }

    /// Takes one retry token; false when the budget is exhausted.
    pub fn take_retry(&self) -> bool {
        self.retry_budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }

    fn count_sync(&self, stream: StreamKind) {
        self.syncs[stream.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn count_retry(&self, backoff_us: u64) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.backoff_us.fetch_add(backoff_us, Ordering::Relaxed);
    }

    fn count_shed(&self, stream: StreamKind) {
        self.shed[stream.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn count_write_error(&self, stream: StreamKind) {
        self.write_errors[stream.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters for `SweepStats`.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let load = |a: &[AtomicU64; 4]| {
            [
                a[0].load(Ordering::Relaxed),
                a[1].load(Ordering::Relaxed),
                a[2].load(Ordering::Relaxed),
                a[3].load(Ordering::Relaxed),
            ]
        };
        IoStatsSnapshot {
            shed_level: self.shed_level.load(Ordering::Relaxed),
            syncs: load(&self.syncs),
            retries: self.retries.load(Ordering::Relaxed),
            backoff_us: self.backoff_us.load(Ordering::Relaxed),
            shed: load(&self.shed),
            write_errors: load(&self.write_errors),
        }
    }
}

/// Plain-data snapshot of [`IoState`] counters (indexed by
/// [`StreamKind::index`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Current shed level (0 = nothing shed).
    pub shed_level: u8,
    /// Fsyncs issued per stream.
    pub syncs: [u64; 4],
    /// Transient-error retries spent.
    pub retries: u64,
    /// Virtual backoff charged across retries, in microseconds.
    pub backoff_us: u64,
    /// Records shed per stream under disk pressure.
    pub shed: [u64; 4],
    /// Append failures per stream (after retries, excluding sheds).
    pub write_errors: [u64; 4],
}

// ---------------------------------------------------------------------------
// Fault harness
// ---------------------------------------------------------------------------

/// Deterministic I/O fault and crash scheduler shared by every sink of a
/// run. Each append consumes one tick of the virtual op clock; the
/// harness decides per-op whether to inject a fault from the script and
/// whether the simulated process dies at that boundary.
///
/// After the crash op fires, every subsequent operation silently
/// succeeds without touching the file — the on-disk state is frozen
/// exactly as a `kill -9` would leave it while the in-process sweep runs
/// to completion (the torture harness discards its report).
#[derive(Debug)]
pub struct IoHarness {
    ops: AtomicU64,
    crash_at: u64,
    crashed: AtomicBool,
    script: Option<IoFaultScript>,
}

impl IoHarness {
    /// Harness that injects faults from `script` and crashes at op
    /// `crash_at` (`None` = never).
    pub fn new(crash_at: Option<u64>, script: Option<IoFaultScript>) -> Arc<Self> {
        Arc::new(IoHarness {
            ops: AtomicU64::new(0),
            crash_at: crash_at.unwrap_or(u64::MAX),
            crashed: AtomicBool::new(false),
            script,
        })
    }

    /// Inert harness that only counts write ops — used to size the
    /// crash matrix from a reference run.
    pub fn counting() -> Arc<Self> {
        IoHarness::new(None, None)
    }

    /// Write ops consumed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// True once the simulated crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    fn fault(&self, op: u64) -> Option<IoFaultKind> {
        self.script.as_ref().and_then(|s| s.decide(op))
    }

    fn param(&self, op: u64) -> u64 {
        self.script
            .as_ref()
            .map(|s| s.param(op))
            .unwrap_or_else(|| op.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

// ---------------------------------------------------------------------------
// RecordIo: the injectable write path
// ---------------------------------------------------------------------------

/// Minimal file surface a [`FramedWriter`] needs, so faults can be
/// injected between the writer's policy and the filesystem.
pub trait RecordIo: fmt::Debug + Send {
    /// Appends `bytes` at the end of the stream.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Forces appended bytes to stable storage.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncates the stream back to `len` bytes (retry cleanup).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// Production [`RecordIo`]: an append-mode file.
#[derive(Debug)]
pub struct FileIo {
    file: File,
}

impl FileIo {
    /// Opens (creating if needed) `path` in append mode.
    pub fn open(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FileIo { file })
    }
}

impl RecordIo for FileIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.file.flush()
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// Fault-injecting [`RecordIo`]: wraps a [`FileIo`] and consults the
/// run's [`IoHarness`] at every append boundary.
#[derive(Debug)]
pub struct FaultIo {
    inner: FileIo,
    harness: Arc<IoHarness>,
}

impl FaultIo {
    /// Wraps `inner` with fault decisions from `harness`.
    pub fn new(inner: FileIo, harness: Arc<IoHarness>) -> Self {
        FaultIo { inner, harness }
    }
}

impl RecordIo for FaultIo {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let op = self.harness.next_op();
        if self.harness.crashed() {
            return Ok(());
        }
        if op == self.harness.crash_at {
            // The process dies mid-write: a torn prefix lands on disk and
            // nothing after this boundary is ever persisted.
            let cut = (self.harness.param(op) as usize) % (bytes.len() + 1);
            let _ = self.inner.append(&bytes[..cut]);
            self.harness.crashed.store(true, Ordering::Relaxed);
            return Ok(());
        }
        match self.harness.fault(op) {
            None => self.inner.append(bytes),
            Some(IoFaultKind::ShortWrite) => {
                let cut = (self.harness.param(op) as usize) % bytes.len().max(1);
                self.inner.append(&bytes[..cut])?;
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "simulated short write",
                ))
            }
            Some(IoFaultKind::BitFlip) => {
                // Silent corruption: the write "succeeds" with one bit
                // flipped somewhere in the frame.
                let mut corrupt = bytes.to_vec();
                if !corrupt.is_empty() {
                    let bit = (self.harness.param(op) as usize) % (corrupt.len() * 8);
                    corrupt[bit / 8] ^= 1 << (bit % 8);
                }
                self.inner.append(&corrupt)
            }
            Some(IoFaultKind::Transient) => Err(transient_error()),
            Some(IoFaultKind::DiskFull) => Err(disk_full_error()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.harness.crashed() {
            return Ok(());
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if self.harness.crashed() {
            return Ok(());
        }
        self.inner.truncate(len)
    }
}

// ---------------------------------------------------------------------------
// SinkOptions and FramedWriter
// ---------------------------------------------------------------------------

/// Per-sink configuration: which stream it is, its sync policy, the
/// run's shared [`IoState`], and an optional fault harness.
#[derive(Debug, Clone)]
pub struct SinkOptions {
    /// Which of the four streams this sink persists.
    pub stream: StreamKind,
    /// Fsync scheduling for this sink.
    pub policy: SyncPolicy,
    /// Shared per-run shed/retry/counter state.
    pub state: Arc<IoState>,
    /// Fault harness; `None` writes straight through.
    pub harness: Option<Arc<IoHarness>>,
}

impl SinkOptions {
    /// Stand-alone options for `stream`: default policy, fresh state, no
    /// fault injection. Used by the compatibility constructors.
    pub fn direct(stream: StreamKind) -> Self {
        SinkOptions {
            stream,
            policy: SyncPolicy::default(),
            state: IoState::new(DEFAULT_RETRY_BUDGET),
            harness: None,
        }
    }
}

/// Outcome of a [`FramedWriter::append_body`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Appended {
    /// The record was framed and written.
    Written,
    /// The record was shed under disk pressure (counted, not written).
    Shed,
}

fn backoff_us(op: u64, attempt: u32) -> u64 {
    let base = 100u64 << (attempt - 1).min(10);
    let base = base.min(100_000);
    base + retry_jitter(op, attempt) % base
}

/// Append-side of a framed stream: monotonically numbers records,
/// retries transient faults with virtual exponential backoff, truncates
/// partial writes before retrying, sheds records per the run's shed
/// level, and fsyncs per policy.
#[derive(Debug)]
pub struct FramedWriter {
    io: Box<dyn RecordIo>,
    opts: SinkOptions,
    seq: u64,
    good_len: u64,
    since_sync: u64,
    /// The frame being appended, reused across appends.
    frame: String,
}

impl FramedWriter {
    /// Opens the stream at `path`, scanning any existing content so the
    /// writer resumes at the next sequence number; a torn or corrupt
    /// tail is truncated away first.
    pub fn open(path: &Path, opts: SinkOptions) -> io::Result<Self> {
        let bytes = read_stream(path)?.unwrap_or_default();
        let scan = scan_stream(&bytes);
        let mut writer = FramedWriter::resume(path, opts, scan.end())?;
        if !scan.is_clean() {
            writer.io.truncate(scan.valid_len)?;
        }
        Ok(writer)
    }

    /// Opens the stream at `path` to append after `end` without scanning
    /// it: `end` must be where the file's valid frames end and the file
    /// must hold nothing past them, as after a recovery that just read or
    /// rewrote it.
    pub(crate) fn resume(path: &Path, opts: SinkOptions, end: StreamEnd) -> io::Result<Self> {
        let file = FileIo::open(path)?;
        let io: Box<dyn RecordIo> = match &opts.harness {
            Some(h) => Box::new(FaultIo::new(file, Arc::clone(h))),
            None => Box::new(file),
        };
        Ok(FramedWriter {
            io,
            opts,
            seq: end.next_seq,
            good_len: end.valid_len,
            since_sync: 0,
            frame: String::new(),
        })
    }

    /// Sequence number the next appended record will carry.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Frames and appends one body line, applying shed policy, transient
    /// retries with backoff, and the sync policy.
    pub fn append_body(&mut self, body: &str) -> io::Result<Appended> {
        let state = Arc::clone(&self.opts.state);
        let stream = self.opts.stream;
        if state.should_shed(stream) {
            state.count_shed(stream);
            return Ok(Appended::Shed);
        }
        self.frame.clear();
        push_frame(&mut self.frame, self.seq, body);
        let mut attempt = 0u32;
        loop {
            match self.io.append(self.frame.as_bytes()) {
                Ok(()) => {
                    self.seq += 1;
                    self.good_len += self.frame.len() as u64;
                    self.maybe_sync()?;
                    return Ok(Appended::Written);
                }
                Err(e) if is_disk_full(&e) => {
                    let _ = self.io.truncate(self.good_len);
                    state.raise_shed_for(stream);
                    state.count_write_error(stream);
                    return Err(e);
                }
                Err(e) if is_transient(&e) && state.take_retry() => {
                    // A short write may have left a partial frame behind;
                    // roll the file back before trying again.
                    attempt += 1;
                    state.count_retry(backoff_us(self.seq, attempt));
                    let _ = self.io.truncate(self.good_len);
                }
                Err(e) => {
                    let _ = self.io.truncate(self.good_len);
                    state.count_write_error(stream);
                    return Err(e);
                }
            }
        }
    }

    fn maybe_sync(&mut self) -> io::Result<()> {
        self.since_sync += 1;
        let due = match self.opts.policy {
            SyncPolicy::Always => true,
            SyncPolicy::Checkpoint => self.since_sync >= CHECKPOINT_SYNC_INTERVAL,
            SyncPolicy::Never => false,
        };
        if due {
            self.since_sync = 0;
            self.io.sync()?;
            self.opts.state.count_sync(self.opts.stream);
        }
        Ok(())
    }

    /// Forces an fsync now regardless of policy.
    pub fn sync_now(&mut self) -> io::Result<()> {
        self.since_sync = 0;
        self.io.sync()?;
        self.opts.state.count_sync(self.opts.stream);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Atomic finalize
// ---------------------------------------------------------------------------

/// Atomically replaces `path` with `text` (its framed records): writes
/// and syncs a temp file beside the target, renames it into place and
/// syncs the directory, so a crash, power loss or fault at any boundary
/// leaves either the old bytes or the new bytes — never a blend. Routed
/// through `harness` when present as one op (a crashed harness freezes
/// the old file; an injected fault aborts the rewrite with the old file
/// intact).
pub fn atomic_replace(
    path: &Path,
    mut text: String,
    harness: Option<&Arc<IoHarness>>,
) -> io::Result<()> {
    if let Some(h) = harness {
        let op = h.next_op();
        if h.crashed() {
            return Ok(());
        }
        if op == h.crash_at {
            h.crashed.store(true, Ordering::Relaxed);
            return Ok(());
        }
        match h.fault(op) {
            None => {}
            Some(IoFaultKind::BitFlip) => {
                // The replacement file lands corrupted; recovery on the
                // next run drops the damaged suffix.
                let mut bytes = text.into_bytes();
                if !bytes.is_empty() {
                    let bit = (h.param(op) as usize) % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                text = String::from_utf8(bytes)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            }
            Some(IoFaultKind::ShortWrite | IoFaultKind::Transient) => {
                return Err(transient_error());
            }
            Some(IoFaultKind::DiskFull) => return Err(disk_full_error()),
        }
    }
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            std::fs::create_dir_all(parent)?;
            parent
        }
        _ => Path::new("."),
    };
    let tmp = temp_file_for(path);
    let mut file = File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()
}

/// The temp file [`atomic_replace`] writes beside `path`: its whole file
/// name plus `.tmp`, so no two targets (and no target itself) share it.
fn temp_file_for(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Removes `path`; a file that is already gone is not an error.
pub(crate) fn remove_if_exists(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// RecordFile: typed framed files
// ---------------------------------------------------------------------------

/// A record type persisted in a [`RecordFile`]: one JSON body per frame,
/// appended as (and shed like) its [`StreamKind`].
pub trait Record: Serialize + Deserialize {
    /// The stream appends of this record type are accounted to.
    const STREAM: StreamKind;
}

/// A framed file of `T` records — the sweep journal, the provenance
/// ledger and the quarantine file are all one of these. Streamed during
/// a sweep for resume-safety, cut back to its valid prefix on recovery,
/// and rewritten deterministically when a run completes.
#[derive(Debug, Clone)]
pub struct RecordFile<T> {
    path: PathBuf,
    record: PhantomData<fn() -> T>,
}

/// Outcome of [`RecordFile::recover_counted`]: the surviving records and
/// the number of corrupt frames dropped.
#[derive(Debug, Clone)]
pub struct Recovery<T> {
    /// Every record in the valid framed prefix before the first defect.
    pub records: Vec<T>,
    /// Frames/lines discarded from the first defect onward.
    pub dropped_lines: usize,
    /// Where the file's frames end once recovery is done: after
    /// [`RecordFile::recover_counted`] the file holds exactly `records`,
    /// and a writer resumes here.
    pub end: StreamEnd,
}

impl<T: Record> RecordFile<T> {
    /// A record file at `path`; the file need not exist yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        RecordFile {
            path: path.into(),
            record: PhantomData,
        }
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads every record in the valid framed prefix. A missing file is
    /// empty; the first torn, corrupt, or out-of-sequence frame ends the
    /// load (everything before it is kept).
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn load(&self) -> io::Result<Vec<T>> {
        Ok(self.load_split()?.records)
    }

    /// Like [`RecordFile::load`], but when the file holds anything past
    /// the valid prefix, rewrites it to exactly the surviving records
    /// first — so appends after a resume extend a clean, contiguous
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or rewriting the file.
    pub fn recover(&self) -> io::Result<Vec<T>> {
        Ok(self.recover_counted()?.records)
    }

    /// Like [`RecordFile::recover`], but also reports how many corrupt
    /// frames were dropped — recovery must never discard data silently.
    /// The pipeline surfaces the count as a telemetry counter and a
    /// stderr warning.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or rewriting the file.
    pub fn recover_counted(&self) -> io::Result<Recovery<T>> {
        let mut recovery = self.load_split()?;
        if recovery.dropped_lines > 0 {
            recovery.end = self.rewrite(&recovery.records)?;
        }
        Ok(recovery)
    }

    /// Atomically replaces the file with exactly `records`, reframed from
    /// sequence 0 — [`RecordFile::finalize_with`] without a fault
    /// harness, for recovery paths. Returns where the new frames end.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn rewrite(&self, records: &[T]) -> io::Result<StreamEnd> {
        let text = encode_records(records);
        let end = StreamEnd {
            next_seq: records.len() as u64,
            valid_len: text.len() as u64,
        };
        atomic_replace(&self.path, text, None)?;
        Ok(end)
    }

    /// Atomically replaces the file with `records` in the given (corpus)
    /// order, reframed from sequence 0 — the completed-run finalize that
    /// makes same-seed runs byte-identical however the sweep interleaved
    /// or how many times it was resumed. Faults are routed through
    /// `harness` when present; a crash or injected fault leaves the
    /// previous bytes intact rather than a blend.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn finalize_with(&self, records: &[T], harness: Option<&Arc<IoHarness>>) -> io::Result<()> {
        self.replace(encode_records(records), harness)
    }

    /// Atomically replaces the file with `frames`, the
    /// [`encode_records`] text of its records, routed through `harness`
    /// like [`RecordFile::finalize_with`].
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub(crate) fn replace(
        &self,
        frames: String,
        harness: Option<&Arc<IoHarness>>,
    ) -> io::Result<()> {
        atomic_replace(&self.path, frames, harness)
    }

    /// Valid leading records plus the number of frames/lines dropped
    /// from the first defect onward (0 = the whole file scanned clean).
    /// A frame whose body fails to decode as a `T` also ends the load.
    /// Bodies are decoded straight from the file buffer.
    fn load_split(&self) -> io::Result<Recovery<T>> {
        let bytes = read_stream(&self.path)?.unwrap_or_default();
        let scan = scan_stream(&bytes);
        let mut records = Vec::with_capacity(scan.bodies.len());
        for (i, body) in scan.bodies.iter().enumerate() {
            match serde_json::from_str::<T>(body) {
                Ok(record) => records.push(record),
                Err(_) => {
                    return Ok(Recovery {
                        records,
                        dropped_lines: scan.bodies.len() - i + scan.dropped,
                        // Not a resume point: the file still holds the
                        // undecodable frames, so `recover_counted`
                        // rewrites it and takes the rewrite's end.
                        end: StreamEnd::default(),
                    });
                }
            }
        }
        Ok(Recovery {
            records,
            dropped_lines: scan.dropped,
            end: scan.end(),
        })
    }

    /// Opens the file for appending with stand-alone sink options
    /// (default sync policy, no fault injection), creating it if needed
    /// and truncating any torn tail so the sequence continues cleanly.
    ///
    /// # Errors
    ///
    /// Returns the underlying open error.
    pub fn writer(&self) -> io::Result<RecordWriter<T>> {
        self.writer_with(SinkOptions::direct(T::STREAM))
    }

    /// Like [`RecordFile::writer`], but with explicit sink options — the
    /// pipeline threads the run's shared [`IoState`], sync policy, and
    /// fault harness through here.
    ///
    /// # Errors
    ///
    /// Returns the underlying open error.
    pub fn writer_with(&self, opts: SinkOptions) -> io::Result<RecordWriter<T>> {
        self.open_writer(opts, None)
    }

    /// Like [`RecordFile::writer_with`]; with `end` set, appends after it
    /// without scanning the file. `end` must come from a [`Recovery`] of
    /// this file (or a [`RecordFile::rewrite`] of it) in this session.
    ///
    /// # Errors
    ///
    /// Returns the underlying open error.
    pub(crate) fn open_writer(
        &self,
        opts: SinkOptions,
        end: Option<StreamEnd>,
    ) -> io::Result<RecordWriter<T>> {
        let inner = match end {
            Some(end) => FramedWriter::resume(&self.path, opts, end)?,
            None => FramedWriter::open(&self.path, opts)?,
        };
        Ok(RecordWriter::new(inner))
    }

    /// Deletes the file if present.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn reset(&self) -> io::Result<()> {
        remove_if_exists(&self.path)
    }
}

/// An append handle to a [`RecordFile`]: one framed record per line,
/// flushed per append so a kill loses at most in-flight records; fsyncs
/// follow the sink's [`SyncPolicy`]. Records of a sheddable stream are
/// counted, not written, under disk pressure — the completed-run
/// finalize reconstructs them from memory.
#[derive(Debug)]
pub struct RecordWriter<T> {
    inner: FramedWriter,
    /// The record being appended, encoded once, reused across appends.
    body: String,
    record: PhantomData<fn(&T)>,
}

impl<T: Record> RecordWriter<T> {
    fn new(inner: FramedWriter) -> Self {
        RecordWriter {
            inner,
            body: String::new(),
            record: PhantomData,
        }
    }

    /// Appends one record as a framed JSON line (or sheds it).
    ///
    /// # Errors
    ///
    /// Returns the underlying write error (transient faults are retried
    /// within the run's budget first).
    pub fn append(&mut self, record: &T) -> io::Result<()> {
        self.body.clear();
        record.write_json(&mut self.body);
        self.inner.append_body(&self.body).map(|_| ())
    }

    /// Sequence number the next appended record will carry.
    pub fn seq(&self) -> u64 {
        self.inner.seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_workload::faults::IoFaultSpec;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dydroid-durable-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_stay_line_json() {
        let body = r#"{"package":"com.a","x":1}"#;
        let frame = encode_frame(7, body);
        assert!(frame.ends_with('\n'));
        let (seq, got) = decode_frame(frame.trim_end()).expect("valid frame");
        assert_eq!(seq, 7);
        assert_eq!(got, body);
        // The envelope itself parses as ordinary JSON with the body intact.
        let v: serde::Value = serde_json::from_str(frame.trim_end()).expect("frame is JSON");
        assert_eq!(v.get("seq").and_then(|s| s.as_u64()), Some(7));
        assert_eq!(
            v.get("body")
                .and_then(|b| b.get("package"))
                .and_then(|p| p.as_str()),
            Some("com.a")
        );
    }

    #[test]
    fn scan_accepts_a_clean_stream_and_stops_at_defects() {
        let bodies: Vec<String> = (0..4).map(|i| format!("{{\"i\":{i}}}")).collect();
        let text = encode_frames(0, &bodies);
        let scan = scan_stream(text.as_bytes());
        assert!(scan.is_clean());
        assert_eq!(scan.bodies, bodies);
        assert_eq!(scan.next_seq, 4);
        assert_eq!(scan.valid_len, text.len() as u64);

        // Torn tail: last frame loses its newline and some bytes.
        let torn = &text[..text.len() - 3];
        let scan = scan_stream(torn.as_bytes());
        assert_eq!(scan.bodies.len(), 3);
        assert_eq!(scan.dropped, 1);
        // Remaining prefix is exactly the three whole frames.
        assert_eq!(scan.valid_len, encode_frames(0, &bodies[..3]).len() as u64);

        // A skipped frame is a sequence gap.
        let gap = format!("{}{}", encode_frame(0, "{}"), encode_frame(2, "{}"));
        let scan = scan_stream(gap.as_bytes());
        assert_eq!(scan.bodies.len(), 1);
        assert_eq!(
            scan.defect,
            Some(FrameDefect::SeqGap {
                expected: 1,
                found: 2
            })
        );

        // Raw unframed JSON (the old format) is rejected, not mis-read.
        let scan = scan_stream(b"{\"package\":\"com.a\"}\n");
        assert_eq!(scan.bodies.len(), 0);
        assert_eq!(scan.defect, Some(FrameDefect::BadHeader));
        assert_eq!(scan.dropped, 1);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bodies = vec![
            "{\"package\":\"com.a\",\"n\":41}".to_string(),
            "{\"package\":\"com.b\",\"n\":42}".to_string(),
        ];
        let text = encode_frames(0, &bodies);
        let clean = scan_stream(text.as_bytes());
        assert!(clean.is_clean());
        for bit in 0..text.len() * 8 {
            let mut bytes = text.clone().into_bytes();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let scan = scan_stream(&bytes);
            // The flip must be detected: fewer bodies survive, and any
            // surviving prefix is byte-identical to the original bodies.
            assert!(
                scan.bodies.len() < bodies.len(),
                "flip of bit {bit} went undetected"
            );
            for (got, want) in scan.bodies.iter().zip(&bodies) {
                assert_eq!(got, want, "flip of bit {bit} mis-parsed a record");
            }
        }
    }

    #[test]
    fn writer_resumes_sequence_and_truncates_corrupt_tails() {
        let path = temp_path("resume");
        let _ = std::fs::remove_file(&path);
        {
            let mut w =
                FramedWriter::open(&path, SinkOptions::direct(StreamKind::Journal)).expect("open");
            w.append_body("{\"a\":1}").unwrap();
            w.append_body("{\"a\":2}").unwrap();
            assert_eq!(w.seq(), 2);
        }
        // Corrupt tail: torn half-frame appended by a dying writer.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(b"{\"seq\":2,\"len\":99,\"crc\":1,\"bo"))
            .unwrap();
        {
            let mut w = FramedWriter::open(&path, SinkOptions::direct(StreamKind::Journal))
                .expect("reopen");
            assert_eq!(w.seq(), 2, "resume after the valid prefix");
            w.append_body("{\"a\":3}").unwrap();
        }
        let bytes = std::fs::read(&path).expect("file exists");
        let scan = scan_stream(&bytes);
        assert!(scan.is_clean());
        assert_eq!(scan.bodies.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn transient_faults_retry_within_budget_and_leave_no_garbage() {
        let path = temp_path("retry");
        let _ = std::fs::remove_file(&path);
        // rate 1.0 would fault every op forever; craft a script where the
        // kinds cycle so some ops are transient. Use a high rate and rely
        // on the retry loop re-issuing ops until a clean one lands.
        let harness = IoHarness::new(
            None,
            Some(IoFaultScript::new(IoFaultSpec { rate: 0.5, seed: 7 })),
        );
        let state = IoState::new(1_000);
        let opts = SinkOptions {
            stream: StreamKind::Journal,
            policy: SyncPolicy::Never,
            state: Arc::clone(&state),
            harness: Some(Arc::clone(&harness)),
        };
        let mut w = FramedWriter::open(&path, opts).expect("open");
        let mut accepted: Vec<String> = Vec::new();
        for i in 0..64 {
            let body = format!("{{\"i\":{i}}}");
            match w.append_body(&body) {
                Ok(Appended::Written) => accepted.push(body),
                Ok(Appended::Shed) => panic!("journal must never shed"),
                Err(e) if is_disk_full(&e) => {
                    // ENOSPC on the journal surfaces as an error (the
                    // record is dropped); the stream must still be clean
                    // afterwards.
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("file exists");
        let scan = scan_stream(&bytes);
        // Bit-flips are silent corruption: the scan stops there, but the
        // prefix before the first flip is exactly a prefix of the bodies
        // the writer accepted — every retried transient/short write left
        // no duplicate or partial frame inside it.
        assert!(scan.bodies.len() <= accepted.len());
        assert_eq!(scan.bodies, accepted[..scan.bodies.len()]);
        let snap = state.snapshot();
        assert!(snap.retries > 0, "script at rate 0.5 must hit transients");
        assert!(snap.backoff_us > 0);
        assert!(!accepted.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disk_full_raises_shed_level_in_order() {
        let state = IoState::new(0);
        assert!(!state.should_shed(StreamKind::Metrics));
        state.raise_shed_for(StreamKind::Metrics);
        assert!(state.should_shed(StreamKind::Metrics));
        assert!(!state.should_shed(StreamKind::Events));
        state.raise_shed_for(StreamKind::Events);
        assert!(state.should_shed(StreamKind::Metrics));
        assert!(state.should_shed(StreamKind::Events));
        assert!(!state.should_shed(StreamKind::Ledger));
        state.raise_shed_for(StreamKind::Ledger);
        assert!(state.should_shed(StreamKind::Ledger));
        assert!(
            !state.should_shed(StreamKind::Journal),
            "journal never sheds"
        );
        let snap = state.snapshot();
        assert_eq!(snap.shed_level, 3);
    }

    #[test]
    fn shed_records_are_counted_not_written() {
        let path = temp_path("shed");
        let _ = std::fs::remove_file(&path);
        let state = IoState::new(0);
        state.raise_shed_for(StreamKind::Events);
        let opts = SinkOptions {
            stream: StreamKind::Events,
            policy: SyncPolicy::Never,
            state: Arc::clone(&state),
            harness: None,
        };
        let mut w = FramedWriter::open(&path, opts).expect("open");
        assert_eq!(w.append_body("{\"e\":1}").unwrap(), Appended::Shed);
        assert_eq!(w.append_body("{\"e\":2}").unwrap(), Appended::Shed);
        drop(w);
        assert_eq!(state.snapshot().shed[StreamKind::Events.index()], 2);
        let bytes = std::fs::read(&path).expect("file created");
        let scan = scan_stream(&bytes);
        assert_eq!(scan.bodies.len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_freezes_the_file_mid_frame() {
        let path = temp_path("crash");
        let _ = std::fs::remove_file(&path);
        let harness = IoHarness::new(Some(2), None);
        let opts = SinkOptions {
            stream: StreamKind::Journal,
            policy: SyncPolicy::Never,
            state: IoState::new(8),
            harness: Some(Arc::clone(&harness)),
        };
        let mut w = FramedWriter::open(&path, opts).expect("open");
        for i in 0..6 {
            // The crashed harness reports success; the writer keeps going.
            w.append_body(&format!("{{\"i\":{i}}}")).unwrap();
        }
        drop(w);
        assert!(harness.crashed());
        assert_eq!(harness.ops(), 6, "ops keep ticking after the crash");
        let bytes = std::fs::read(&path).expect("file exists");
        let scan = scan_stream(&bytes);
        // The two pre-crash frames survive; op 2 died mid-write, so at
        // most a torn prefix of it (or the whole frame, if the cut
        // landed at the end) is on disk — and nothing after it.
        assert!(
            scan.bodies.len() == 2 || scan.bodies.len() == 3,
            "got {} bodies",
            scan.bodies.len()
        );
        for (i, body) in scan.bodies.iter().enumerate() {
            assert_eq!(body, &format!("{{\"i\":{i}}}"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_policy_counts_syncs() {
        let path = temp_path("sync");
        let _ = std::fs::remove_file(&path);
        let state = IoState::new(0);
        let opts = SinkOptions {
            stream: StreamKind::Journal,
            policy: SyncPolicy::Always,
            state: Arc::clone(&state),
            harness: None,
        };
        let mut w = FramedWriter::open(&path, opts).expect("open");
        for i in 0..3 {
            w.append_body(&format!("{{\"i\":{i}}}")).unwrap();
        }
        drop(w);
        assert_eq!(state.snapshot().syncs[StreamKind::Journal.index()], 3);

        // Checkpoint policy syncs once per interval.
        let state2 = IoState::new(0);
        let opts = SinkOptions {
            stream: StreamKind::Journal,
            policy: SyncPolicy::Checkpoint,
            state: Arc::clone(&state2),
            harness: None,
        };
        let _ = std::fs::remove_file(&path);
        let mut w = FramedWriter::open(&path, opts).expect("open");
        for i in 0..(CHECKPOINT_SYNC_INTERVAL * 2) {
            w.append_body(&format!("{{\"i\":{i}}}")).unwrap();
        }
        drop(w);
        assert_eq!(state2.snapshot().syncs[StreamKind::Journal.index()], 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retry_budget_is_shared_and_exhaustible() {
        let state = IoState::new(2);
        assert!(state.take_retry());
        assert!(state.take_retry());
        assert!(!state.take_retry());
        assert!(!state.take_retry());
    }

    #[test]
    fn atomic_write_replaces_or_preserves_never_blends() {
        let path = temp_path("atomic");
        let _ = std::fs::remove_file(&path);
        let old = vec!["{\"v\":1}".to_string()];
        atomic_replace(&path, encode_frames(0, &old), None).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();

        // A crash scheduled on the rewrite op leaves the old bytes.
        let harness = IoHarness::new(Some(0), None);
        let new = vec!["{\"v\":2}".to_string(), "{\"v\":3}".to_string()];
        atomic_replace(&path, encode_frames(0, &new), Some(&harness)).unwrap();
        assert!(harness.crashed());
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes);

        // Fault-free rewrite replaces the content wholesale.
        atomic_replace(&path, encode_frames(0, &new), None).unwrap();
        let bytes = std::fs::read(&path).expect("file exists");
        let scan = scan_stream(&bytes);
        assert!(scan.is_clean());
        assert_eq!(scan.bodies, new);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn temp_files_never_collide_with_their_target_or_each_other() {
        let dir = std::env::temp_dir().join(format!(
            "dydroid-durable-tmpname-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        // A journal named `*.tmp` is not its own temp file, and targets
        // differing only in their extension get different temp files.
        assert_eq!(
            temp_file_for(&dir.join("sweep.tmp")),
            dir.join("sweep.tmp.tmp")
        );
        assert_ne!(
            temp_file_for(&dir.join("a.jsonl")),
            temp_file_for(&dir.join("a.json"))
        );
        for (name, body) in [
            ("sweep.tmp", "{\"t\":1}"),
            ("a.jsonl", "{\"l\":1}"),
            ("a.json", "{\"j\":1}"),
        ] {
            let path = dir.join(name);
            atomic_replace(&path, encode_frame(0, "{}"), None).unwrap();
            atomic_replace(&path, encode_frame(0, body), None).unwrap();
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                encode_frame(0, body)
            );
        }
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(
            left,
            ["a.json", "a.jsonl", "sweep.tmp"],
            "no temp file is left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_full_errors_are_classified() {
        let e = disk_full_error();
        assert!(is_disk_full(&e));
        assert!(!is_transient(&e));
        let t = transient_error();
        assert!(is_transient(&t));
        assert!(!is_disk_full(&t));
        let plain = io::Error::new(io::ErrorKind::PermissionDenied, "nope");
        assert!(!is_disk_full(&plain));
        assert!(!is_transient(&plain));
    }
}
