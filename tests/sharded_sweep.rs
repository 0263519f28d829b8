//! Multi-worker journaled sweep acceptance: a multi-worker sweep — even
//! one killed mid-run and resumed — appends every frame through one
//! writer to the base journal, ledger and event stream, and finalizes
//! all three byte-identical to a single-worker serial run.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use dydroid::durable::scan_stream;
use dydroid::{IoHarness, Journal, Pipeline, PipelineConfig};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

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

/// Files beside `journal` named like a stream shard
/// (`<journal>.shard-*`), which no sweep writes.
fn shard_files(journal: &Journal) -> Vec<String> {
    let path = journal.path();
    let prefix = format!("{}.shard-", path.file_name().unwrap().to_string_lossy());
    std::fs::read_dir(path.parent().unwrap_or(Path::new(".")))
        .expect("read journal dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

/// The `field` values of the frames of `path` (of its `kind` lines
/// only, when given) in its valid prefix.
fn frame_fields(path: &Path, kind: Option<&str>, field: &str) -> Vec<String> {
    let bytes = std::fs::read(path).unwrap_or_default();
    scan_stream(&bytes)
        .bodies
        .iter()
        .map(|body| serde_json::from_str::<serde::Value>(body).expect("body is JSON"))
        .filter(|v| kind.is_none() || v.get("type").and_then(|t| t.as_str()) == kind)
        .map(|v| {
            v.get(field)
                .and_then(|f| f.as_str())
                .expect(field)
                .to_string()
        })
        .collect()
}

/// All three finalized streams of one journaled run, concatenated.
fn stream_bytes(journal: &Journal) -> Vec<u8> {
    let mut bytes = std::fs::read(journal.path()).expect("journal bytes");
    bytes.extend(std::fs::read(journal.provenance_path()).expect("ledger bytes"));
    bytes.extend(std::fs::read(journal.events_path()).expect("events bytes"));
    bytes
}

/// A 4-worker sweep finalizes streams byte-identical to the
/// single-worker run.
#[test]
fn sharded_multiworker_streams_finalize_byte_identical_to_serial() {
    let corpus = small_corpus(60);

    let serial_journal = temp_journal("serial");
    let serial_report = Pipeline::new(config(1))
        .run_resumable(&corpus, &serial_journal)
        .expect("serial sweep");
    let serial_bytes = stream_bytes(&serial_journal);

    let sharded_journal = temp_journal("sharded");
    let sharded_report = Pipeline::new(config(4))
        .run_resumable(&corpus, &sharded_journal)
        .expect("sharded sweep");
    assert_eq!(sharded_report.stats().worker_stats.len(), 4);
    let executed: u64 = sharded_report
        .stats()
        .worker_stats
        .iter()
        .map(|w| w.executed)
        .sum();
    assert_eq!(executed, corpus.len() as u64, "scheduler lost tasks");

    assert!(shard_files(&sharded_journal).is_empty());
    assert_eq!(stream_bytes(&sharded_journal), serial_bytes);

    // And the measured results are identical too.
    let a = serde_json::to_string(&serial_report).expect("serialise serial");
    let b = serde_json::to_string(&sharded_report).expect("serialise sharded");
    assert_eq!(a, b, "worker count changed measured bytes");

    serial_journal.reset().expect("cleanup");
    sharded_journal.reset().expect("cleanup");
}

/// The crash-consistency half: kill the multi-worker sweep mid-run
/// (streams frozen at a write boundary), resume it with a fresh
/// pipeline, and require the finalized streams to be byte-identical to
/// the serial run — recovery takes the longest consistent prefix and
/// re-analyses only the torn apps.
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
    // some apps have checkpointed.
    first.set_io_harness(IoHarness::new(Some(150), None));
    let _ = first
        .run_resumable(&corpus, &journal)
        .expect("interrupted sweep still returns");

    // The kill left the base triplet and nothing else, and every app the
    // event stream checkpointed has its frame in the base journal.
    assert_eq!(shard_files(&journal), Vec::<String>::new());
    let journaled: HashSet<String> = frame_fields(journal.path(), None, "package")
        .into_iter()
        .collect();
    let checkpointed = frame_fields(&journal.events_path(), Some("checkpoint"), "app");
    assert!(
        !checkpointed.is_empty(),
        "the kill came before any checkpoint"
    );
    for app in &checkpointed {
        assert!(
            journaled.contains(app),
            "{app} checkpointed but not journaled"
        );
    }

    let resumed = Pipeline::new(config(4))
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    assert_eq!(resumed.records().len(), corpus.len());

    // No app analysed twice, streams byte-identical.
    let records = journal.load().expect("load resumed journal");
    let unique: HashSet<&str> = records.iter().map(|r| r.package.as_str()).collect();
    assert_eq!(unique.len(), corpus.len(), "package analysed twice");
    assert!(shard_files(&journal).is_empty());
    assert_eq!(stream_bytes(&journal), serial_bytes);

    serial_journal.reset().expect("cleanup");
    journal.reset().expect("cleanup");
}
