//! Checkpointed corpus sweeps: a framed JSON-lines journal of completed
//! [`AppRecord`]s.
//!
//! Every record finished by [`crate::Pipeline::run_resumable`] is
//! appended as one framed line (see [`crate::durable`]): a CRC32-checked,
//! sequence-numbered envelope around the record's JSON. A sweep killed
//! mid-flight loses at most the apps that were still running; on restart
//! the journal is scanned for its longest valid prefix, already-analysed
//! packages are skipped, and the sweep continues. Torn tails, bit rot,
//! and lost records are all detected by the frame scan rather than
//! trusted to JSON parsing.

use std::io;
use std::ops::Deref;
use std::path::PathBuf;

use crate::durable::{remove_if_exists, Record, RecordFile, RecordWriter, Recovery, StreamKind};
use crate::pipeline::AppRecord;

impl Record for AppRecord {
    const STREAM: StreamKind = StreamKind::Journal;
}

/// A framed JSON-lines checkpoint file of completed app records: a
/// [`RecordFile`] of [`AppRecord`]s (load, recover, finalize and append
/// come from there) that also names the sidecar streams written beside
/// it.
#[derive(Debug, Clone)]
pub struct Journal(RecordFile<AppRecord>);

impl Deref for Journal {
    type Target = RecordFile<AppRecord>;

    fn deref(&self) -> &RecordFile<AppRecord> {
        &self.0
    }
}

impl Journal {
    /// A journal at `path`; the file need not exist yet.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal(RecordFile::new(path))
    }

    /// `<journal><suffix>`: a sidecar path beside the journal.
    fn sidecar(&self, suffix: &str) -> PathBuf {
        let mut name = self.path().as_os_str().to_owned();
        name.push(suffix);
        PathBuf::from(name)
    }

    /// Path of the telemetry event log written alongside this journal
    /// while a run is live (`<journal>.events.jsonl`): a resumed run
    /// stitches a killed session's spans from it, and finalize removes
    /// it once the journal is final.
    pub fn events_path(&self) -> PathBuf {
        self.sidecar(".events.jsonl")
    }

    /// Path of the provenance ledger written alongside this journal
    /// (`<journal>.provenance.jsonl`), holding one causal graph per
    /// analysed app (see [`crate::provenance`]).
    pub fn provenance_path(&self) -> PathBuf {
        self.sidecar(".provenance.jsonl")
    }

    /// Path of the folded span-profile artifact kept alongside this
    /// journal (`<journal>.profile.folded`): collapsed-stack lines ready
    /// for flamegraph tooling. Each finalize appends its session's
    /// stacks, so the artifact keeps every session's spans once the event
    /// log is gone.
    pub fn profile_path(&self) -> PathBuf {
        self.sidecar(".profile.folded")
    }

    /// Deletes the journal file if present (start a sweep from scratch).
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than the file not existing.
    pub fn reset(&self) -> io::Result<()> {
        // The event stream, provenance ledger and profile artifact all
        // describe the journal's records; a reset journal must not resume
        // against stale ones.
        for side in [
            self.events_path(),
            self.provenance_path(),
            self.profile_path(),
        ] {
            remove_if_exists(&side)?;
        }
        self.0.reset()
    }
}

/// Outcome of [`RecordFile::recover_counted`] on a [`Journal`].
pub type JournalRecovery = Recovery<AppRecord>;

/// An append handle to a [`Journal`]. The journal is never shed.
pub type JournalWriter = RecordWriter<AppRecord>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DynamicOutcome, DynamicStatus};

    fn record(pkg: &str) -> AppRecord {
        AppRecord {
            package: pkg.to_string(),
            metadata: dydroid_workload::AppMetadata {
                category: 1,
                downloads: 10,
                rating_count: 2,
                avg_rating: 4.5,
            },
            decompiled: true,
            filter: Default::default(),
            obfuscation: Default::default(),
            rewritten: false,
            dynamic: Some(DynamicOutcome::empty(DynamicStatus::Exercised)),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dydroid_journal_{tag}_{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn round_trips_records() {
        let journal = Journal::new(temp_path("roundtrip"));
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.a")).unwrap();
            w.append(&record("com.b")).unwrap();
        }
        let loaded = journal.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].package, "com.a");
        assert_eq!(loaded[1].package, "com.b");
        // Every line is a framed envelope that still parses as JSON.
        let text = std::fs::read_to_string(journal.path()).unwrap();
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line).expect("frame is JSON");
            assert!(v.get("seq").is_some());
            assert!(v.get("crc").is_some());
            assert!(v.get("body").and_then(|b| b.get("package")).is_some());
        }
        journal.reset().unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        let journal = Journal::new(temp_path("missing"));
        journal.reset().unwrap();
        assert!(journal.load().unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = temp_path("torn");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.whole")).unwrap();
        }
        // Simulate a kill mid-append: garbage half-line at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"seq\":1,\"len\":231,\"crc\":17,\"body\":{\"package\":\"com.torn");
        std::fs::write(&path, text).unwrap();
        let loaded = journal.load().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].package, "com.whole");
        journal.reset().unwrap();
    }

    #[test]
    fn recover_truncates_the_torn_tail() {
        let path = temp_path("recover");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.whole")).unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"package\":\"com.torn\",\"metad");
        std::fs::write(&path, text).unwrap();
        assert_eq!(journal.recover().unwrap().len(), 1);
        // Appends after recovery land on a clean file, so a full reload
        // sees both records.
        journal
            .writer()
            .unwrap()
            .append(&record("com.later"))
            .unwrap();
        let loaded = journal.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].package, "com.later");
        journal.reset().unwrap();
    }

    #[test]
    fn recovery_counts_dropped_lines() {
        let path = temp_path("counted");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.whole")).unwrap();
        }
        // A clean journal recovers with zero drops.
        let clean = journal.recover_counted().unwrap();
        assert_eq!(clean.records.len(), 1);
        assert_eq!(clean.dropped_lines, 0);
        // Corrupt middle line: it and everything after it is dropped
        // and counted.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"package\":\"com.torn\",\"metad\n");
        text.push_str("not json either\n");
        std::fs::write(&path, text).unwrap();
        let recovered = journal.recover_counted().unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.dropped_lines, 2);
        journal.reset().unwrap();
    }

    #[test]
    fn a_flipped_bit_is_detected_and_dropped() {
        let path = temp_path("bitflip");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.a")).unwrap();
            w.append(&record("com.b")).unwrap();
        }
        // Flip one bit inside the second record's body.
        let mut bytes = std::fs::read(&path).unwrap();
        let target = bytes.len() - 20;
        bytes[target] ^= 0b0000_0100;
        std::fs::write(&path, &bytes).unwrap();
        let recovered = journal.recover_counted().unwrap();
        assert_eq!(recovered.records.len(), 1, "corrupt record must drop");
        assert_eq!(recovered.records[0].package, "com.a");
        assert_eq!(recovered.dropped_lines, 1);
        journal.reset().unwrap();
    }

    #[test]
    fn finalize_is_byte_deterministic_and_atomic() {
        let path = temp_path("finalize");
        let journal = Journal::new(&path);
        journal.reset().unwrap();
        let records = vec![record("com.a"), record("com.b")];
        journal.finalize_with(&records, None).unwrap();
        let first = std::fs::read(&path).unwrap();
        // Append out-of-band garbage, then finalize again: identical bytes.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, b"garbage"))
            .unwrap();
        journal.finalize_with(&records, None).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        assert_eq!(journal.load().unwrap().len(), 2);
        journal.reset().unwrap();
    }

    #[test]
    fn events_path_sits_beside_the_journal() {
        let journal = Journal::new("/tmp/sweep.jsonl");
        assert_eq!(
            journal.events_path(),
            PathBuf::from("/tmp/sweep.jsonl.events.jsonl")
        );
    }

    #[test]
    fn provenance_path_sits_beside_the_journal() {
        let journal = Journal::new("/tmp/sweep.jsonl");
        assert_eq!(
            journal.provenance_path(),
            PathBuf::from("/tmp/sweep.jsonl.provenance.jsonl")
        );
    }

    #[test]
    fn profile_path_sits_beside_the_journal() {
        let journal = Journal::new("/tmp/sweep.jsonl");
        assert_eq!(
            journal.profile_path(),
            PathBuf::from("/tmp/sweep.jsonl.profile.folded")
        );
        let j = Journal::new(temp_path("profile_reset"));
        j.reset().unwrap();
        std::fs::write(j.profile_path(), b"").unwrap();
        j.reset().unwrap();
        assert!(!j.profile_path().exists(), "reset removes the artifact");
    }

    #[test]
    fn reset_removes_the_provenance_ledger() {
        let journal = Journal::new(temp_path("prov_reset"));
        journal.reset().unwrap();
        std::fs::write(journal.provenance_path(), "{}\n").unwrap();
        journal.reset().unwrap();
        assert!(!journal.provenance_path().exists());
    }

    #[test]
    fn append_after_load_continues_file() {
        let journal = Journal::new(temp_path("resume"));
        journal.reset().unwrap();
        {
            let mut w = journal.writer().unwrap();
            w.append(&record("com.first")).unwrap();
            assert_eq!(w.seq(), 1);
        }
        {
            let mut w = journal.writer().unwrap();
            assert_eq!(w.seq(), 1, "sequence continues across sessions");
            w.append(&record("com.second")).unwrap();
        }
        assert_eq!(journal.load().unwrap().len(), 2);
        journal.reset().unwrap();
    }
}
