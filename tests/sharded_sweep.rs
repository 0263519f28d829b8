//! Multi-writer sharded stream acceptance: a multi-worker sweep that
//! appends through per-shard journal/ledger/event files — even one
//! killed mid-run and resumed — must finalize all three persistent
//! streams byte-identical to a single-worker serial run, and the shard
//! merge must preserve per-shard frame-sequence contiguity.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use dydroid::durable::{read_stream, scan_stream};
use dydroid::pipeline::{DynamicOutcome, DynamicStatus};
use dydroid::{
    AppProvenance, AppRecord, IoHarness, Journal, Pipeline, PipelineConfig, ProvenanceLedger,
};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};
use proptest::prelude::*;

fn small_corpus(n: usize) -> Vec<SyntheticApp> {
    let mut corpus = generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    });
    corpus.truncate(n);
    assert_eq!(corpus.len(), n, "corpus generation too small");
    corpus
}

fn temp_journal(tag: &str) -> Journal {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_sharded_{tag}_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
}

fn config(workers: usize) -> PipelineConfig {
    PipelineConfig {
        workers,
        environment_reruns: false,
        app_deadline_ms: 400,
        ..PipelineConfig::default()
    }
}

/// All three finalized streams of one journaled run, concatenated.
fn stream_bytes(journal: &Journal) -> Vec<u8> {
    let mut bytes = std::fs::read(journal.path()).expect("journal bytes");
    bytes.extend(std::fs::read(journal.provenance_path()).expect("ledger bytes"));
    bytes.extend(std::fs::read(journal.events_path()).expect("events bytes"));
    bytes
}

/// The tentpole invariant: a sharded 4-worker sweep finalizes streams
/// byte-identical to the single-worker single-writer run.
#[test]
fn sharded_multiworker_streams_finalize_byte_identical_to_serial() {
    let corpus = small_corpus(60);

    let serial_journal = temp_journal("serial");
    let serial_report = Pipeline::new(config(1))
        .run_resumable(&corpus, &serial_journal)
        .expect("serial sweep");
    assert_eq!(
        serial_report.stats().stream_shards,
        1,
        "one worker must append through shard 0, the base streams, alone"
    );
    let serial_bytes = stream_bytes(&serial_journal);

    let sharded_journal = temp_journal("sharded");
    let sharded_report = Pipeline::new(config(4))
        .run_resumable(&corpus, &sharded_journal)
        .expect("sharded sweep");
    assert_eq!(
        sharded_report.stats().stream_shards,
        4,
        "four workers must open four stream shards"
    );
    assert_eq!(sharded_report.stats().worker_stats.len(), 4);
    let executed: u64 = sharded_report
        .stats()
        .worker_stats
        .iter()
        .map(|w| w.executed)
        .sum();
    assert_eq!(executed, corpus.len() as u64, "scheduler lost tasks");

    // Finalize removed the per-shard files and left the canonical
    // single-file layout.
    assert!(
        sharded_journal.discover_shards().expect("scan").is_empty(),
        "finalize must merge and remove shard files"
    );
    assert_eq!(stream_bytes(&sharded_journal), serial_bytes);

    // And the measured results are identical too.
    let a = serde_json::to_string(&serial_report).expect("serialise serial");
    let b = serde_json::to_string(&sharded_report).expect("serialise sharded");
    assert_eq!(a, b, "worker count changed measured bytes");

    serial_journal.reset().expect("cleanup");
    sharded_journal.reset().expect("cleanup");
}

/// The crash-consistency half: kill the sharded multi-worker sweep
/// mid-run (streams frozen at a write boundary), resume it with a fresh
/// pipeline, and require the finalized streams to be byte-identical to
/// the serial run — shard recovery takes each shard's longest
/// consistent prefix and re-analyses only the torn apps.
#[test]
fn killed_sharded_sweep_resumes_byte_identical_to_serial() {
    let corpus = small_corpus(60);

    let serial_journal = temp_journal("kill_serial");
    let _ = Pipeline::new(config(1))
        .run_resumable(&corpus, &serial_journal)
        .expect("serial sweep");
    let serial_bytes = stream_bytes(&serial_journal);

    let journal = temp_journal("kill_sharded");
    let mut first = Pipeline::new(config(4));
    // Freeze every persistent stream at write op 150 — mid-sweep, after
    // some apps have checkpointed into their shards.
    first.set_io_harness(IoHarness::new(Some(150), None));
    let _ = first
        .run_resumable(&corpus, &journal)
        .expect("interrupted sweep still returns");

    // The kill left unmerged per-shard files behind. Shard 0 is the base
    // triplet itself: it has no shard file, and its apps' frames sit in
    // the base journal.
    assert!(
        !journal.discover_shards().expect("scan").is_empty(),
        "interrupted sharded sweep should leave shard files"
    );
    assert!(
        !journal.shard_path(0).exists(),
        "shard 0 must append to the base journal, not a shard file"
    );
    let base_frames = read_stream(journal.path())
        .expect("read base journal")
        .map_or(0, |bytes| scan_stream(&bytes).bodies.len());
    assert!(
        base_frames > 0,
        "shard 0's appends must land in the base journal"
    );

    let resumed = Pipeline::new(config(4))
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    assert_eq!(resumed.records().len(), corpus.len());

    // No app analysed twice, shards merged away, streams byte-identical.
    let records = journal.load().expect("load resumed journal");
    let unique: HashSet<&str> = records.iter().map(|r| r.package.as_str()).collect();
    assert_eq!(unique.len(), corpus.len(), "package analysed twice");
    assert!(journal.discover_shards().expect("scan").is_empty());
    assert_eq!(stream_bytes(&journal), serial_bytes);

    serial_journal.reset().expect("cleanup");
    journal.reset().expect("cleanup");
}

static PROP_CASE: AtomicUsize = AtomicUsize::new(0);

fn prop_record(pkg: &str) -> AppRecord {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shard merge preserves frame-sequence contiguity: every shard file
    /// scans clean (seq 0..n, nothing dropped) before the merge, and the
    /// merged base journal scans clean with exactly the union of the
    /// shard packages (base first, shards in ascending order, duplicates
    /// folded).
    #[test]
    fn shard_merge_preserves_per_shard_sequence_contiguity(
        base in prop::collection::vec(0usize..24, 0..4),
        shards in prop::collection::vec(prop::collection::vec(0usize..24, 0..6), 1..4),
    ) {
        let case = PROP_CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "dydroid_shard_merge_{}_{case}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::new(dir.join("sweep.jsonl"));
        journal.reset().unwrap();

        // Every journal segment gets the ledger segment beside it, one
        // graph per record, as a sweep's shard append writes them.
        let mut expected: Vec<String> = Vec::new();
        let mut seen: HashSet<String> = HashSet::new();
        let segments = std::iter::once((journal.clone(), journal.provenance_path(), &base)).chain(
            shards
                .iter()
                .enumerate()
                .map(|(k, ids)| (journal.shard(k), journal.shard_provenance_path(k), ids)),
        );
        for (segment, ledger_path, ids) in segments {
            let mut w = segment.writer().unwrap();
            let mut lw = ProvenanceLedger::new(ledger_path).writer().unwrap();
            for id in ids {
                let pkg = format!("com.app{id}");
                let record = prop_record(&pkg);
                w.append(&record).unwrap();
                lw.append(&AppProvenance::from_record(&record)).unwrap();
                if seen.insert(pkg.clone()) {
                    expected.push(pkg);
                }
            }
        }

        // Pre-merge: every shard file is a contiguous frame sequence of
        // its own (seq restarts at 0 per shard).
        for (k, ids) in shards.iter().enumerate() {
            if ids.is_empty() {
                continue; // opening wrote no frames; file may be empty
            }
            let bytes = read_stream(&journal.shard_path(k)).unwrap().unwrap();
            let scan = scan_stream(&bytes);
            prop_assert_eq!(scan.dropped, 0usize);
            prop_assert_eq!(scan.next_seq, ids.len() as u64);
        }

        // Merge through recovery (no event streams in play).
        let pipeline = Pipeline::new(PipelineConfig {
            telemetry: false,
            environment_reruns: false,
            ..PipelineConfig::default()
        });
        let outcome = pipeline.recover_all(&journal).unwrap();
        let merged: Vec<String> = outcome.records.iter().map(|r| r.package.clone()).collect();
        prop_assert_eq!(&merged, &expected);
        prop_assert!(outcome.inconsistent.is_empty());

        // Post-merge: shard files are gone and the base journal scans
        // clean as one contiguous sequence holding the union.
        prop_assert!(journal.discover_shards().unwrap().is_empty());
        if expected.is_empty() {
            // Nothing to rewrite; the base journal may not even exist.
        } else {
            let bytes = read_stream(journal.path()).unwrap().unwrap();
            let scan = scan_stream(&bytes);
            prop_assert_eq!(scan.dropped, 0usize);
            prop_assert_eq!(scan.next_seq, expected.len() as u64);
        }

        journal.reset().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
