//! The regression-gated bench history: `BENCH_history.jsonl`.
//!
//! Every bench run appends its unified [`Measurement`]
//! as **one framed line** — the same `{"seq","len","crc","body"}` record
//! frame the sweep journal uses (`dydroid::durable`), so a crash mid-
//! append can only tear the tail, and the next append (or load) truncates
//! the torn frame and continues the sequence. The file is tracked in
//! git: the perf trajectory of the repo is a first-class artifact, and
//! `benchcmp --history` diffs a fresh record against the latest
//! committed entry for the same bench.

use std::io;
use std::ops::ControlFlow;
use std::path::Path;

use dydroid::durable::{read_frames, FramedWriter, SinkOptions, StreamKind};

use crate::Measurement;

/// Default history path, relative to the working directory (the repo
/// root for `cargo run`), tracked in git.
pub const DEFAULT_HISTORY: &str = "BENCH_history.jsonl";

/// Appends one record to the history stream at `path`, creating it if
/// absent and truncating any torn tail first. Returns the sequence
/// number the record was framed with.
///
/// # Errors
///
/// Propagates open/write errors.
pub fn append(path: &Path, record: &Measurement) -> io::Result<u64> {
    // The history is a source-of-truth stream: never shed under
    // pressure, which is what `StreamKind::Journal` encodes.
    let mut writer = FramedWriter::open(path, SinkOptions::direct(StreamKind::Journal))?;
    let seq = writer.seq();
    writer.append_body(&record.to_body())?;
    writer.sync_now()?;
    Ok(seq)
}

/// Loads every intact record from the history stream, oldest first.
/// A missing file is an empty history; a torn or corrupt tail ends the
/// read at the last intact frame (matching the writer's recovery);
/// bodies that are not measurement records are skipped with a warning.
///
/// # Errors
///
/// Propagates read errors.
pub fn load(path: &Path) -> io::Result<Vec<Measurement>> {
    let mut records = Vec::new();
    let mut line = 0usize;
    read_frames(path, |_, body| {
        match Measurement::parse(body) {
            Ok(record) => records.push(record),
            Err(e) => eprintln!(
                "warning: {}: skipping history line {line}: {e}",
                path.display()
            ),
        }
        line += 1;
        ControlFlow::Continue(())
    })?;
    Ok(records)
}

/// The latest history entry for `bench`, excluding any entry whose body
/// is byte-identical to `current` (so a record that was just appended
/// does not compare against itself).
pub fn latest_for<'h>(
    records: &'h [Measurement],
    bench: &str,
    current: Option<&Measurement>,
) -> Option<&'h Measurement> {
    let current_body = current.map(Measurement::to_body);
    records
        .iter()
        .rev()
        .filter(|r| r.bench == bench)
        .find(|r| current_body.as_ref().is_none_or(|c| *c != r.to_body()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Direction;

    fn temp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "dydroid-bench-history-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn record(bench: &str, median: f64) -> Measurement {
        let mut m = Measurement::new(bench, "default", 0.01, 7);
        m.push_metric("wall_ms", "ms", Direction::Lower, false, vec![median]);
        m
    }

    #[test]
    fn append_then_load_round_trips_in_order() {
        let path = temp("roundtrip");
        let _ = std::fs::remove_file(&path);
        assert!(load(&path).expect("empty load").is_empty());

        assert_eq!(append(&path, &record("sweep", 100.0)).expect("append"), 0);
        assert_eq!(append(&path, &record("avm", 5.0)).expect("append"), 1);
        assert_eq!(append(&path, &record("sweep", 90.0)).expect("append"), 2);

        let records = load(&path).expect("load");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].bench, "sweep");
        assert_eq!(records[2].metric("wall_ms").unwrap().stats.median, 90.0);

        // Latest-per-bench picks the newest entry of that bench only.
        let latest = latest_for(&records, "sweep", None).expect("latest");
        assert_eq!(latest.metric("wall_ms").unwrap().stats.median, 90.0);
        assert!(latest_for(&records, "detect", None).is_none());

        // A just-appended record is excluded from its own comparison.
        let newest = records[2].clone();
        let prior = latest_for(&records, "sweep", Some(&newest)).expect("prior");
        assert_eq!(prior.metric("wall_ms").unwrap().stats.median, 100.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_and_sequence_continues() {
        let path = temp("torn");
        let _ = std::fs::remove_file(&path);
        append(&path, &record("sweep", 100.0)).expect("append");
        append(&path, &record("sweep", 95.0)).expect("append");
        // Tear the tail mid-frame, as a crash during append would.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tear");

        let records = load(&path).expect("load torn");
        assert_eq!(records.len(), 1, "torn frame dropped");

        // The next append truncates the tear and reuses its seq slot.
        assert_eq!(append(&path, &record("sweep", 92.0)).expect("append"), 1);
        let records = load(&path).expect("load healed");
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].metric("wall_ms").unwrap().stats.median, 92.0);
        let _ = std::fs::remove_file(&path);
    }
}
