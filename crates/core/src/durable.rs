//! Crash-consistent record framing and fault-injectable I/O.
//!
//! Every persistent stream the sweep writes — the journal, the
//! provenance ledger and the telemetry event stream — shares one
//! framed-record format defined here:
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
//! pressure — telemetry events shed first, provenance detail second,
//! the journal never (see [`IoState`]).
//!
//! [`RecordFile`] types a framed file by its record: the journal and
//! the provenance ledger share its load, recover, rewrite, finalize and
//! append code.

use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::ops::ControlFlow;
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
    push_header(out, seq, body);
    out.push_str(body);
    out.push_str(FRAME_END);
}

/// Appends the envelope of `body`'s frame up to where the body starts.
fn push_header(out: &mut String, seq: u64, body: &str) {
    debug_assert!(!body.contains('\n'), "frame bodies must be single-line");
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"len\":{len},\"crc\":{crc},\"body\":",
        len = body.len(),
        crc = crc32(body.as_bytes()),
    );
}

/// What closes a frame after its body.
const FRAME_END: &str = "}\n";

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

/// How a [`scan_frames`] pass ended: where the valid prefix ends and
/// what was rejected from the first defect on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameScan {
    /// Where the valid prefix ends; truncating the stream at
    /// `end.valid_len` removes every rejected byte.
    pub end: StreamEnd,
    /// Non-empty lines rejected at or after the first defect.
    pub dropped: usize,
    /// Empty lines skipped (and kept) inside the valid prefix.
    pub blank: usize,
    /// The defect that terminated the scan, if any (`None` when the
    /// visitor rejected a body).
    pub defect: Option<FrameDefect>,
}

impl FrameScan {
    /// True when the scan rejected nothing.
    pub fn is_clean(&self) -> bool {
        self.dropped == 0 && self.defect.is_none()
    }
}

/// Reads a framed stream line by line, through one reused line buffer,
/// and hands each body of its longest valid prefix to `visit` together
/// with the body's byte offset in the stream.
///
/// Validation stops at the first defect — a line that is not UTF-8, a
/// final line without its newline, a bad header, length or CRC, or a
/// sequence number other than the next one (a valid stream always
/// carries `0..n` with no gaps) — and every non-empty line from that
/// point on is counted as dropped. A visitor that answers
/// [`ControlFlow::Break`] rejects its body the same way, without a
/// [`FrameDefect`]. Empty lines inside the valid prefix are skipped but
/// kept (they cannot corrupt a reader).
///
/// # Errors
///
/// Returns read errors.
pub fn scan_frames(
    mut input: impl BufRead,
    mut visit: impl FnMut(u64, &str) -> ControlFlow<()>,
) -> io::Result<FrameScan> {
    let mut scan = FrameScan::default();
    let mut line = Vec::new();
    loop {
        line.clear();
        if input.read_until(b'\n', &mut line)? == 0 {
            return Ok(scan);
        }
        let (raw, has_newline) = match line.strip_suffix(b"\n") {
            Some(raw) => (raw, true),
            None => (&line[..], false),
        };
        if raw.is_empty() {
            scan.blank += 1;
            scan.end.valid_len += line.len() as u64;
            continue;
        }
        let verdict = match std::str::from_utf8(raw) {
            Err(_) => Err(Some(FrameDefect::BadUtf8)),
            Ok(_) if !has_newline => Err(Some(FrameDefect::TornTail)),
            Ok(text) => match decode_frame(text) {
                Ok((seq, body)) if seq == scan.end.next_seq => {
                    // The body closes the line but for the frame's `}`.
                    let offset = scan.end.valid_len + (text.len() - 1 - body.len()) as u64;
                    match visit(offset, body) {
                        ControlFlow::Continue(()) => Ok(()),
                        ControlFlow::Break(()) => Err(None),
                    }
                }
                Ok((found, _)) => Err(Some(FrameDefect::SeqGap {
                    expected: scan.end.next_seq,
                    found,
                })),
                Err(defect) => Err(Some(defect)),
            },
        };
        match verdict {
            Ok(()) => {
                scan.end.next_seq += 1;
                scan.end.valid_len += line.len() as u64;
            }
            Err(defect) => {
                scan.defect = defect;
                scan.dropped = 1;
                loop {
                    line.clear();
                    if input.read_until(b'\n', &mut line)? == 0 {
                        return Ok(scan);
                    }
                    if line != b"\n" {
                        scan.dropped += 1;
                    }
                }
            }
        }
    }
}

/// [`scan_frames`] over the stream file at `path`; `Ok(None)` when the
/// file is absent.
///
/// # Errors
///
/// Returns open and read errors other than the file not existing.
pub fn read_frames(
    path: &Path,
    visit: impl FnMut(u64, &str) -> ControlFlow<()>,
) -> io::Result<Option<FrameScan>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    scan_frames(BufReader::with_capacity(READ_BUFFER, file), visit).map(Some)
}

/// Bytes a [`read_frames`] pass buffers between reads of its file.
const READ_BUFFER: usize = 1 << 16;

/// Result of scanning in-memory stream bytes for their longest valid
/// framed prefix.
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

/// [`scan_frames`] over stream bytes already in memory, collecting the
/// valid prefix's bodies as slices of `bytes`.
pub fn scan_stream(bytes: &[u8]) -> StreamScan<'_> {
    let mut bodies = Vec::new();
    let scan = scan_frames(bytes, |offset, body| {
        let start = offset as usize;
        let body = std::str::from_utf8(&bytes[start..start + body.len()])
            .expect("a frame body lies on the UTF-8 line it was read from");
        bodies.push(body);
        ControlFlow::Continue(())
    })
    .expect("reading a byte slice cannot fail");
    StreamScan {
        bodies,
        dropped: scan.dropped,
        defect: scan.defect,
        next_seq: scan.end.next_seq,
        valid_len: scan.end.valid_len,
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

/// The three persistent streams a sweep writes, in shed-priority
/// order: under disk pressure telemetry events (spans, checkpoints,
/// warnings and metrics snapshots alike) are shed first, provenance
/// detail second, and the journal never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// The sweep journal — the source of truth, never shed.
    Journal,
    /// The provenance ledger — shed only under sustained pressure.
    Ledger,
    /// The telemetry event stream — first to shed.
    Events,
}

impl StreamKind {
    /// Stable array index for per-stream counters.
    pub fn index(self) -> usize {
        match self {
            StreamKind::Journal => 0,
            StreamKind::Ledger => 1,
            StreamKind::Events => 2,
        }
    }

    /// Human-readable stream name (matches the warning prefix).
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Journal => "journal",
            StreamKind::Ledger => "ledger",
            StreamKind::Events => "events",
        }
    }
}

/// When the writer forces appended frames to stable storage. It governs
/// the journal and the ledger, the streams recovery reads. The live event
/// stream is never fsynced: recovery never reads it, finalize replaces it
/// atomically, and its readers already tolerate a torn tail.
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
/// The shed level is sticky for the run: `ENOSPC` on the event stream
/// raises it to 1 (events shed), on the ledger or journal to 2
/// (everything but the journal shed). The journal itself is never shed
/// — its failures surface as errors so the app is re-analyzed on
/// resume.
#[derive(Debug)]
pub struct IoState {
    shed_level: AtomicU8,
    retry_budget: AtomicU64,
    syncs: [AtomicU64; 3],
    retries: AtomicU64,
    backoff_us: AtomicU64,
    shed: [AtomicU64; 3],
    write_errors: [AtomicU64; 3],
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
            StreamKind::Events => level >= 1,
            StreamKind::Ledger => level >= 2,
            StreamKind::Journal => false,
        }
    }

    /// Raises the shed level after `ENOSPC` on `stream`.
    pub fn raise_shed_for(&self, stream: StreamKind) {
        let level = match stream {
            StreamKind::Events => 1,
            StreamKind::Ledger | StreamKind::Journal => 2,
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
        let load = |a: &[AtomicU64; 3]| {
            [
                a[0].load(Ordering::Relaxed),
                a[1].load(Ordering::Relaxed),
                a[2].load(Ordering::Relaxed),
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
    pub syncs: [u64; 3],
    /// Transient-error retries spent.
    pub retries: u64,
    /// Virtual backoff charged across retries, in microseconds.
    pub backoff_us: u64,
    /// Records shed per stream under disk pressure.
    pub shed: [u64; 3],
    /// Append failures per stream (after retries, excluding sheds).
    pub write_errors: [u64; 3],
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
    /// Which of the three streams this sink persists.
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
        let scan = read_frames(path, |_, _| ControlFlow::Continue(()))?.unwrap_or_default();
        let mut writer = FramedWriter::resume(path, opts, scan.end)?;
        if !scan.is_clean() {
            writer.io.truncate(scan.end.valid_len)?;
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
        if self.opts.stream == StreamKind::Events {
            return Ok(());
        }
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

/// Atomically replaces `path` with the framed records `frames` writes,
/// numbered from sequence 0: the frames stream into a temp file beside
/// the target, which is synced, renamed into place and made durable by a
/// directory sync, so a crash, power loss or fault at any boundary
/// leaves either the old bytes or the new bytes — never a blend. Routed
/// through `harness` when present as one op, decided before any byte is
/// written (a crashed harness freezes the old file; an injected error
/// fault aborts the rewrite with the old file intact and no temp file).
/// Returns where the new frames end, or `None` when a crashed harness
/// swallowed the replace.
///
/// # Errors
///
/// Returns injected faults and write, sync and rename errors.
pub fn atomic_replace(
    path: &Path,
    harness: Option<&Arc<IoHarness>>,
    frames: impl FnOnce(&mut FrameOut) -> io::Result<()>,
) -> io::Result<Option<StreamEnd>> {
    let Some(replacement) = Replacement::begin(path, harness)? else {
        return Ok(None);
    };
    let end = replacement.write(frames)?;
    replacement.commit()?;
    sync_dir(path)?;
    Ok(Some(end))
}

/// The frame producer's end of an [`atomic_replace`]: each body is
/// encoded into one reused scratch string and its frame goes out through
/// a buffered writer, so a rewrite holds one frame, never the stream.
#[derive(Debug)]
pub struct FrameOut {
    out: BufWriter<File>,
    body: String,
    head: String,
    end: StreamEnd,
}

impl FrameOut {
    /// Frames the single-line JSON body `encode` writes as the next
    /// record.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn push(&mut self, encode: impl FnOnce(&mut String)) -> io::Result<()> {
        self.body.clear();
        encode(&mut self.body);
        self.head.clear();
        push_header(&mut self.head, self.end.next_seq, &self.body);
        self.out.write_all(self.head.as_bytes())?;
        self.out.write_all(self.body.as_bytes())?;
        self.out.write_all(FRAME_END.as_bytes())?;
        self.end.next_seq += 1;
        self.end.valid_len += (self.head.len() + self.body.len() + FRAME_END.len()) as u64;
        Ok(())
    }

    /// Frames `record`'s JSON as the next record.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn push_record<T: Serialize + ?Sized>(&mut self, record: &T) -> io::Result<()> {
        self.push(|body| record.write_json(body))
    }
}

/// One atomic replace under way: [`Replacement::begin`] takes its harness
/// op, [`Replacement::write`] fills the temp file beside the target and
/// [`Replacement::commit`] renames it into place. Split so a caller can
/// write several temp files at once and still commit them in a fixed
/// order, with one [`sync_dir`] after the renames of a directory.
#[derive(Debug)]
pub(crate) struct Replacement {
    path: PathBuf,
    tmp: PathBuf,
    /// Parameter of an injected bit flip: bit `flip % (len * 8)` of the
    /// written temp file is inverted before it is synced.
    flip: Option<u64>,
}

impl Replacement {
    /// Takes the replace's one harness op and decides its fault before
    /// any byte is written. `Ok(None)` when the harness has crashed, at
    /// this op or before: the target keeps its old bytes.
    ///
    /// # Errors
    ///
    /// Returns the injected transient or disk-full fault.
    pub(crate) fn begin(
        path: &Path,
        harness: Option<&Arc<IoHarness>>,
    ) -> io::Result<Option<Replacement>> {
        let mut flip = None;
        if let Some(h) = harness {
            let op = h.next_op();
            if h.crashed() {
                return Ok(None);
            }
            if op == h.crash_at {
                h.crashed.store(true, Ordering::Relaxed);
                return Ok(None);
            }
            match h.fault(op) {
                None => {}
                // The replacement file lands corrupted; recovery on the
                // next run drops the damaged suffix.
                Some(IoFaultKind::BitFlip) => flip = Some(h.param(op)),
                Some(IoFaultKind::ShortWrite | IoFaultKind::Transient) => {
                    return Err(transient_error());
                }
                Some(IoFaultKind::DiskFull) => return Err(disk_full_error()),
            }
        }
        Ok(Some(Replacement {
            path: path.to_path_buf(),
            tmp: temp_file_for(path),
            flip,
        }))
    }

    /// Streams the frames `frames` writes into the temp file and syncs
    /// it; returns where they end. A failed write removes the temp file.
    ///
    /// # Errors
    ///
    /// Returns the producer's and the file's write and sync errors.
    pub(crate) fn write(
        &self,
        frames: impl FnOnce(&mut FrameOut) -> io::Result<()>,
    ) -> io::Result<StreamEnd> {
        let written = self.write_tmp(frames);
        if written.is_err() {
            let _ = remove_if_exists(&self.tmp);
        }
        written
    }

    fn write_tmp(
        &self,
        frames: impl FnOnce(&mut FrameOut) -> io::Result<()>,
    ) -> io::Result<StreamEnd> {
        std::fs::create_dir_all(dir_of(&self.path))?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&self.tmp)?;
        let mut out = FrameOut {
            out: BufWriter::with_capacity(REPLACE_BUFFER, file),
            body: String::new(),
            head: String::new(),
            end: StreamEnd::default(),
        };
        frames(&mut out)?;
        let end = out.end;
        let mut file = out.out.into_inner().map_err(|e| e.into_error())?;
        if let Some(param) = self.flip.filter(|_| end.valid_len > 0) {
            let bit = param % (end.valid_len * 8);
            let mut byte = [0u8];
            file.seek(SeekFrom::Start(bit / 8))?;
            file.read_exact(&mut byte)?;
            byte[0] ^= 1 << (bit % 8);
            file.seek(SeekFrom::Start(bit / 8))?;
            file.write_all(&byte)?;
        }
        file.sync_all()?;
        Ok(end)
    }

    /// Renames the written temp file over the target. The rename is
    /// durable once [`sync_dir`] has run on the target's directory.
    ///
    /// # Errors
    ///
    /// Returns the rename error (the temp file is removed).
    pub(crate) fn commit(self) -> io::Result<()> {
        std::fs::rename(&self.tmp, &self.path).inspect_err(|_| {
            let _ = remove_if_exists(&self.tmp);
        })
    }
}

/// Bytes a [`FrameOut`] buffers between writes to its temp file.
const REPLACE_BUFFER: usize = 1 << 16;

/// Syncs the directory holding `path`, so renames into it survive a
/// power loss.
///
/// # Errors
///
/// Returns the open or sync error.
pub(crate) fn sync_dir(path: &Path) -> io::Result<()> {
    File::open(dir_of(path))?.sync_all()
}

/// Syncs the file at `path` through a handle of its own, so bytes another
/// handle wrote to it survive a power loss.
///
/// # Errors
///
/// Returns the open or sync error.
pub(crate) fn sync_file(path: &Path) -> io::Result<()> {
    File::open(path)?.sync_all()
}

/// The directory `path` lives in (`.` for a bare file name).
fn dir_of(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
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

/// A framed file of `T` records — the sweep journal and the provenance
/// ledger are both one of these. Streamed during a sweep for
/// resume-safety, cut back to its valid prefix on recovery, and
/// rewritten deterministically when a run completes.
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

/// Outcome of [`RecordFile::load_each`] and [`RecordFile::recover_each`]:
/// a [`Recovery`] whose records went to the caller one by one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Loaded {
    /// Records handed over, in file order.
    pub(crate) records: usize,
    /// Frames/lines discarded from the first defect onward.
    pub(crate) dropped_lines: usize,
    /// Empty lines kept between the handed-over frames.
    pub(crate) blank_lines: usize,
    /// Where the frames of the handed-over records end: after
    /// [`RecordFile::recover_each`] the file holds exactly those frames,
    /// and a writer resumes here.
    pub(crate) end: StreamEnd,
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
        let mut records = Vec::new();
        self.load_each(|record| records.push(record))?;
        Ok(records)
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
        let mut records = Vec::new();
        let loaded = self.recover_each(|record| records.push(record))?;
        Ok(Recovery {
            records,
            dropped_lines: loaded.dropped_lines,
            end: loaded.end,
        })
    }

    /// Reads the file frame by frame and hands each record of the valid
    /// framed prefix to `take` as soon as it is decoded, so the load
    /// holds one frame at a time. A missing file is empty. The first
    /// torn, corrupt or out-of-sequence frame ends the load, and so does
    /// the first frame whose body does not decode as a `T`: it and every
    /// line after it count as dropped.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub(crate) fn load_each(&self, mut take: impl FnMut(T)) -> io::Result<Loaded> {
        let mut records = 0;
        let scan = read_frames(&self.path, |_, body| {
            match serde_json::from_str::<T>(body) {
                Ok(record) => {
                    take(record);
                    records += 1;
                    ControlFlow::Continue(())
                }
                Err(_) => ControlFlow::Break(()),
            }
        })?
        .unwrap_or_default();
        Ok(Loaded {
            records,
            dropped_lines: scan.dropped,
            blank_lines: scan.blank,
            end: scan.end,
        })
    }

    /// [`RecordFile::load_each`], then, when the file holds anything past
    /// the handed-over records, an atomic rewrite to exactly them.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from reading or rewriting the file.
    pub(crate) fn recover_each(&self, take: impl FnMut(T)) -> io::Result<Loaded> {
        let mut loaded = self.load_each(take)?;
        if loaded.dropped_lines > 0 {
            loaded.end = self.rewrite_prefix(loaded.records)?;
            loaded.blank_lines = 0;
        }
        Ok(loaded)
    }

    /// Atomically replaces the file with its own first `count` records,
    /// read back frame by frame and reframed from sequence 0 as
    /// [`RecordFile::rewrite`] frames them.
    fn rewrite_prefix(&self, count: usize) -> io::Result<StreamEnd> {
        let end = atomic_replace(&self.path, None, |out| {
            let mut left = count;
            let mut pushed = Ok(());
            read_frames(&self.path, |_, body| {
                if left == 0 {
                    return ControlFlow::Break(());
                }
                left -= 1;
                pushed = serde_json::from_str::<T>(body)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                    .and_then(|record| out.push_record(&record));
                match pushed {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(_) => ControlFlow::Break(()),
                }
            })?;
            pushed
        })?;
        // Only a crashed harness swallows a replace, and there is none.
        Ok(end.unwrap_or_default())
    }

    /// Atomically replaces the file with exactly `records`, reframed from
    /// sequence 0 — [`RecordFile::finalize_with`] without a fault
    /// harness, for recovery paths. Returns where the new frames end.
    ///
    /// # Errors
    ///
    /// Returns write errors.
    pub fn rewrite<'a>(&self, records: impl IntoIterator<Item = &'a T>) -> io::Result<StreamEnd>
    where
        T: 'a,
    {
        // Only a crashed harness swallows a replace, and there is none.
        Ok(self.replace_with(records, None)?.unwrap_or_default())
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
        self.replace_with(records, harness).map(drop)
    }

    fn replace_with<'a>(
        &self,
        records: impl IntoIterator<Item = &'a T>,
        harness: Option<&Arc<IoHarness>>,
    ) -> io::Result<Option<StreamEnd>>
    where
        T: 'a,
    {
        atomic_replace(&self.path, harness, |out| {
            records
                .into_iter()
                .try_for_each(|record| out.push_record(record))
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

    /// Appends one record already encoded as its JSON `body`, as
    /// [`RecordWriter::append`] would encode it (or sheds it).
    ///
    /// # Errors
    ///
    /// As [`RecordWriter::append`].
    pub fn append_body(&mut self, body: &str) -> io::Result<()> {
        self.inner.append_body(body).map(|_| ())
    }

    /// Sequence number the next appended record will carry.
    pub fn seq(&self) -> u64 {
        self.inner.seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydroid_workload::faults::{IoFaultKind, IoFaultSpec};

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

    /// A small [`Record`] type for the record-file tests.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
    struct Entry {
        package: String,
        count: u32,
    }

    impl Record for Entry {
        const STREAM: StreamKind = StreamKind::Journal;
    }

    /// `n` entries and their bodies as `rewrite` encodes them.
    fn entries(n: u32) -> (Vec<Entry>, Vec<String>) {
        let entries: Vec<_> = (0..n)
            .map(|i| Entry {
                package: format!("com.app{i}"),
                count: i + 1,
            })
            .collect();
        let bodies = entries
            .iter()
            .map(|e| serde_json::to_string(e).expect("encode"))
            .collect();
        (entries, bodies)
    }

    /// A record file `tag` holding exactly `bytes`.
    fn record_file(tag: &str, bytes: &[u8]) -> RecordFile<Entry> {
        let path = temp_path(tag);
        std::fs::write(&path, bytes).expect("write record file");
        RecordFile::new(path)
    }

    /// The end of `count` frames of `bodies`, framed from sequence 0.
    fn frames_end(bodies: &[String], count: usize) -> StreamEnd {
        StreamEnd {
            next_seq: count as u64,
            valid_len: encode_frames(0, &bodies[..count]).len() as u64,
        }
    }

    #[test]
    fn a_body_that_does_not_decode_ends_the_load_and_is_rewritten_away() {
        let (entries, mut bodies) = entries(4);
        bodies[2] = r#"{"not":"an entry"}"#.to_string();
        let text = encode_frames(0, &bodies);
        let file = record_file("undecodable", text.as_bytes());
        assert_eq!(file.load().expect("load"), entries[..2]);
        assert_eq!(
            file.load_each(|_| {}).expect("load"),
            Loaded {
                records: 2,
                dropped_lines: 2,
                blank_lines: 0,
                end: frames_end(&bodies, 2),
            }
        );
        let recovery = file.recover_counted().expect("recover");
        assert_eq!(recovery.records, entries[..2]);
        assert_eq!(recovery.dropped_lines, 2);
        assert_eq!(recovery.end, frames_end(&bodies, 2));
        let rewritten = std::fs::read_to_string(file.path()).expect("read");
        assert_eq!(rewritten, encode_frames(0, &bodies[..2]));
        file.reset().expect("cleanup");
    }

    #[test]
    fn a_torn_tail_without_a_newline_is_dropped() {
        let (entries, bodies) = entries(3);
        let text = encode_frames(0, &bodies);
        let file = record_file("torn", &text.as_bytes()[..text.len() - 1]);
        let recovery = file.recover_counted().expect("recover");
        assert_eq!(recovery.records, entries[..2]);
        assert_eq!(recovery.dropped_lines, 1);
        assert_eq!(recovery.end, frames_end(&bodies, 2));
        assert_eq!(
            std::fs::read_to_string(file.path()).expect("read"),
            encode_frames(0, &bodies[..2])
        );
        file.reset().expect("cleanup");
    }

    #[test]
    fn a_line_that_is_not_utf8_ends_the_load() {
        let (entries, bodies) = entries(3);
        let mut bytes = encode_frames(0, &bodies[..2]).into_bytes();
        bytes.extend_from_slice(b"{\"seq\":2,\xff\xfe}\n");
        bytes.extend_from_slice(encode_frame(2, &bodies[2]).as_bytes());
        let file = record_file("not_utf8", &bytes);
        let recovery = file.recover_counted().expect("recover");
        assert_eq!(recovery.records, entries[..2]);
        assert_eq!(recovery.dropped_lines, 2);
        assert_eq!(recovery.end, frames_end(&bodies, 2));
        file.reset().expect("cleanup");
    }

    #[test]
    fn empty_lines_inside_the_valid_prefix_are_kept() {
        let (entries, bodies) = entries(2);
        let text = format!(
            "\n{}\n\n{}\n",
            encode_frame(0, &bodies[0]),
            encode_frame(1, &bodies[1])
        );
        let file = record_file("empty_lines", text.as_bytes());
        let recovery = file.recover_counted().expect("recover");
        assert_eq!(recovery.records, entries);
        assert_eq!(recovery.dropped_lines, 0);
        assert_eq!(
            recovery.end,
            StreamEnd {
                next_seq: 2,
                valid_len: text.len() as u64,
            }
        );
        // Nothing was dropped, so nothing was rewritten, and the load
        // counts the empty lines it kept.
        assert_eq!(std::fs::read_to_string(file.path()).expect("read"), text);
        assert_eq!(
            file.load_each(|_| {}).expect("load").blank_lines,
            text.lines().filter(|line| line.is_empty()).count()
        );

        // Behind a torn tail, the rewrite keeps the frames, not the
        // empty lines.
        let torn = format!("{text}{}", &encode_frame(2, &bodies[0])[..9]);
        let file = record_file("empty_lines_torn", torn.as_bytes());
        let recovery = file.recover_counted().expect("recover");
        assert_eq!(recovery.records, entries);
        assert_eq!(recovery.dropped_lines, 1);
        assert_eq!(recovery.end, frames_end(&bodies, 2));
        file.reset().expect("cleanup");
    }

    #[test]
    fn a_missing_record_file_is_empty_and_stays_missing() {
        let file: RecordFile<Entry> = RecordFile::new(temp_path("missing"));
        file.reset().expect("no file");
        let recovery = file.recover_counted().expect("recover");
        assert!(recovery.records.is_empty());
        assert_eq!(recovery.dropped_lines, 0);
        assert_eq!(recovery.end, StreamEnd::default());
        assert!(!file.path().exists());
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
        assert!(!state.should_shed(StreamKind::Events));
        state.raise_shed_for(StreamKind::Events);
        assert!(state.should_shed(StreamKind::Events));
        assert!(!state.should_shed(StreamKind::Ledger));
        state.raise_shed_for(StreamKind::Ledger);
        assert!(state.should_shed(StreamKind::Ledger));
        assert!(
            !state.should_shed(StreamKind::Journal),
            "journal never sheds"
        );
        let snap = state.snapshot();
        assert_eq!(snap.shed_level, 2);
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
    fn the_event_stream_is_never_synced() {
        let state = IoState::new(0);
        for stream in [StreamKind::Events, StreamKind::Journal] {
            let path = temp_path(&format!("nosync-{}", stream.name()));
            let _ = std::fs::remove_file(&path);
            let opts = SinkOptions {
                stream,
                policy: SyncPolicy::Always,
                state: Arc::clone(&state),
                harness: None,
            };
            let mut w = FramedWriter::open(&path, opts).expect("open");
            for i in 0..3 {
                w.append_body(&format!("{{\"i\":{i}}}")).unwrap();
            }
            drop(w);
            let _ = std::fs::remove_file(&path);
        }
        let syncs = state.snapshot().syncs;
        assert_eq!(syncs[StreamKind::Events.index()], 0);
        assert_eq!(syncs[StreamKind::Journal.index()], 3);
    }

    #[test]
    fn retry_budget_is_shared_and_exhaustible() {
        let state = IoState::new(2);
        assert!(state.take_retry());
        assert!(state.take_retry());
        assert!(!state.take_retry());
        assert!(!state.take_retry());
    }

    /// Replaces `path` with frames of `bodies` through the streamed path.
    fn replace_bodies(
        path: &Path,
        bodies: &[String],
        harness: Option<&Arc<IoHarness>>,
    ) -> io::Result<Option<StreamEnd>> {
        atomic_replace(path, harness, |out| {
            bodies
                .iter()
                .try_for_each(|b| out.push(|body| body.push_str(b)))
        })
    }

    fn bodies(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("{{\"package\":\"com.app{i}\",\"n\":{i}}}"))
            .collect()
    }

    /// A harness whose op clock stands at `op`, faulting every op from
    /// an all-faults script (rate 1.0).
    fn harness_at(op: u64, crash_at: Option<u64>) -> Arc<IoHarness> {
        let h = IoHarness::new(
            crash_at,
            Some(IoFaultScript::new(IoFaultSpec { rate: 1.0, seed: 3 })),
        );
        h.ops.store(op, Ordering::Relaxed);
        h
    }

    /// The first ops at or after `from` whose scripted fault is `kind`.
    fn ops_with(kind: IoFaultKind, from: u64, count: usize) -> Vec<u64> {
        let h = harness_at(0, None);
        (from..)
            .filter(|&op| h.fault(op) == Some(kind))
            .take(count)
            .collect()
    }

    #[test]
    fn atomic_write_replaces_or_preserves_never_blends() {
        let path = temp_path("atomic");
        let _ = std::fs::remove_file(&path);
        let old = vec!["{\"v\":1}".to_string()];
        replace_bodies(&path, &old, None).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();

        // A crash scheduled on the rewrite op leaves the old bytes.
        let harness = IoHarness::new(Some(0), None);
        let new = vec!["{\"v\":2}".to_string(), "{\"v\":3}".to_string()];
        assert_eq!(replace_bodies(&path, &new, Some(&harness)).unwrap(), None);
        assert!(harness.crashed());
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes);

        // Fault-free rewrite replaces the content wholesale.
        replace_bodies(&path, &new, None).unwrap();
        let bytes = std::fs::read(&path).expect("file exists");
        let scan = scan_stream(&bytes);
        assert!(scan.is_clean());
        assert_eq!(scan.bodies, new);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streamed_replace_writes_the_encoded_frames_and_reports_their_end() {
        let path = temp_path("streamed");
        let _ = std::fs::remove_file(&path);
        // Enough frames to cross the write buffer several times.
        let bodies = bodies(5_000);
        let text = encode_frames(0, &bodies);
        assert!(text.len() > 4 * REPLACE_BUFFER);
        let end = replace_bodies(&path, &bodies, None).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        assert_eq!(
            end,
            Some(StreamEnd {
                next_seq: bodies.len() as u64,
                valid_len: text.len() as u64,
            })
        );
        assert_eq!(
            replace_bodies(&path, &[], None).unwrap(),
            Some(StreamEnd::default())
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_lands_exactly_on_the_hand_flipped_frames() {
        let path = temp_path("bitflip");
        let bodies = bodies(40);
        let text = encode_frames(0, &bodies).into_bytes();
        let bit_of = |op: u64| (harness_at(0, None).param(op) % (text.len() as u64 * 8)) as usize;
        let mut flip_ops = ops_with(IoFaultKind::BitFlip, 0, 12);
        // A flipped high bit leaves invalid UTF-8, which lands as is.
        let high_bit_op = ops_with(IoFaultKind::BitFlip, 0, 1_000)
            .into_iter()
            .find(|&op| bit_of(op) % 8 == 7)
            .expect("some flip hits a high bit");
        flip_ops.push(high_bit_op);
        for op in flip_ops {
            let harness = harness_at(op, None);
            let bit = bit_of(op);
            let mut want = text.clone();
            want[bit / 8] ^= 1 << (bit % 8);
            replace_bodies(&path, &bodies, Some(&harness)).unwrap();
            assert_eq!(harness.ops(), op + 1, "one op per replace");
            assert_eq!(std::fs::read(&path).unwrap(), want, "flip at op {op}");
            assert!(!scan_stream(&want).is_clean(), "flip at op {op} undetected");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn faults_leave_the_old_bytes_and_no_temp_file() {
        let path = temp_path("faulted");
        let _ = std::fs::remove_file(&path);
        let tmp = temp_file_for(&path);
        let old = bodies(3);
        replace_bodies(&path, &old, None).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();
        let new = bodies(9);
        let kept = |what: &str| {
            assert_eq!(std::fs::read(&path).unwrap(), old_bytes, "{what}");
            assert!(!tmp.exists(), "{what} left {}", tmp.display());
        };

        // A crash at the replace's op, and any replace after it.
        let crash_op = 5;
        let harness = harness_at(crash_op, Some(crash_op));
        assert_eq!(replace_bodies(&path, &new, Some(&harness)).unwrap(), None);
        assert!(harness.crashed());
        kept("a crash");
        assert_eq!(replace_bodies(&path, &new, Some(&harness)).unwrap(), None);
        kept("a replace after the crash");

        for (kind, classified) in [
            (
                IoFaultKind::Transient,
                is_transient as fn(&io::Error) -> bool,
            ),
            (IoFaultKind::ShortWrite, is_transient),
            (IoFaultKind::DiskFull, is_disk_full),
        ] {
            let op = ops_with(kind, 0, 1)[0];
            let harness = harness_at(op, None);
            let e = replace_bodies(&path, &new, Some(&harness)).unwrap_err();
            assert!(classified(&e), "{kind:?} surfaced as {e}");
            kept(&format!("{kind:?}"));
        }

        // A producer that fails midway removes its half-written temp file.
        let e = atomic_replace(&path, None, |out| {
            out.push_record("first")?;
            Err(io::Error::other("producer failed"))
        })
        .unwrap_err();
        assert_eq!(e.to_string(), "producer failed");
        kept("a failed producer");
        let _ = std::fs::remove_file(&path);
    }

    /// The sweep's finalize takes the ledger's op, then the journal's: a
    /// crash at the journal's op commits the new ledger and leaves the
    /// journal as the sweep appended it, and a resume finalizes both.
    #[test]
    fn finalize_crash_at_the_journal_op_keeps_the_new_ledger_and_the_old_journal() {
        use std::os::unix::fs::MetadataExt;

        use crate::provenance::ProvenanceLedger;
        use crate::sweep::Journal;
        use crate::{Pipeline, PipelineConfig};

        let corpus = dydroid_workload::generate(&dydroid_workload::CorpusSpec {
            scale: 0.001,
            seed: 5,
        });
        let pipeline = || {
            Pipeline::new(PipelineConfig {
                workers: 2,
                telemetry: false,
                ..Default::default()
            })
        };
        let dir = std::env::temp_dir().join(format!(
            "dydroid-durable-finalize-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let read = |journal: &Journal| {
            (
                std::fs::read(journal.path()).unwrap(),
                std::fs::read(journal.provenance_path()).unwrap(),
            )
        };

        // A clean run: its op count ends on the finalize's ledger and
        // journal ops.
        let clean = Journal::new(dir.join("clean.jsonl"));
        clean.reset().unwrap();
        let counting = IoHarness::counting();
        let mut p = pipeline();
        p.set_io_harness(Arc::clone(&counting));
        p.run_resumable(&corpus, &clean).unwrap();
        let (final_journal, final_ledger) = read(&clean);
        let journal_op = counting.ops() - 1;

        // The sweep appends to the journal file in place, so the file
        // created here keeps its inode unless a finalize replaces it.
        let crashed = Journal::new(dir.join("crashed.jsonl"));
        crashed.reset().unwrap();
        std::fs::File::create(crashed.path()).unwrap();
        let inode = || std::fs::metadata(crashed.path()).unwrap().ino();
        let appended_inode = inode();
        let harness = IoHarness::new(Some(journal_op), None);
        let mut p = pipeline();
        p.set_io_harness(Arc::clone(&harness));
        p.run_resumable(&corpus, &crashed).unwrap();
        assert!(harness.crashed());
        assert_eq!(harness.ops(), journal_op + 1);
        let (journal_bytes, ledger_bytes) = read(&crashed);
        assert!(ledger_bytes == final_ledger, "the ledger committed");
        assert_eq!(inode(), appended_inode, "the journal was not replaced");
        // The journal is the sweep's appends, every app in the one file.
        let scan = scan_stream(&journal_bytes);
        assert!(scan.is_clean());
        assert_eq!(scan.bodies.len(), corpus.len());
        let left = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect::<Vec<_>>();
        assert!(left.is_empty(), "temp files left: {left:?}");

        pipeline().run_resumable(&corpus, &crashed).unwrap();
        assert!(read(&crashed) == (final_journal, final_ledger));
        assert!(ProvenanceLedger::new(crashed.provenance_path())
            .load()
            .is_ok());
        let _ = std::fs::remove_dir_all(&dir);
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
            replace_bodies(&path, &["{}".to_string()], None).unwrap();
            replace_bodies(&path, &[body.to_string()], None).unwrap();
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
