//! `tables --perf-json` reports the stream counters (fsyncs, retries,
//! sheds) only for a journaled run: a plain run opens no stream, so they
//! are absent, not 0. No run reports a shard count or shard contention:
//! one writer appends every frame.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The stream counters of the `stats` object in a perf JSON dump.
const STREAM_FIELDS: [&str; 5] = [
    "journal_syncs",
    "io_retries",
    "io_backoff_us",
    "shed_events",
    "shed_provenance",
];

/// Runs `tables` at scale 0.01 with `--perf-json` (and `extra` args) and
/// returns the dump's `stats` object.
fn perf_stats(dir: &Path, name: &str, extra: &[&str]) -> serde::Value {
    let perf = dir.join(format!("{name}.perf.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args([
            "--scale",
            "0.01",
            "--seed",
            "1",
            "--table",
            "2",
            "--perf-json",
        ])
        .arg(&perf)
        .args(extra)
        .output()
        .expect("spawn tables");
    assert!(out.status.success(), "tables {name} failed: {out:?}");
    let text = std::fs::read_to_string(&perf).expect("perf json written");
    let json: serde::Value = serde_json::from_str(&text).expect("perf json parses");
    json.get("stats").cloned().expect("perf json has stats")
}

#[test]
fn stream_counters_appear_only_when_a_run_writes_streams() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dydroid_perf_json_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let plain = perf_stats(&dir, "plain", &[]);
    for field in STREAM_FIELDS {
        assert!(
            plain.get(field).is_none(),
            "a plain run reported `{field}` it never measured"
        );
    }
    assert_eq!(
        plain.get("journaled").and_then(|v| v.as_bool()),
        Some(false)
    );

    let journal = dir.join("sweep.jsonl");
    let journal_arg = journal.to_str().expect("utf-8 temp path");
    let journaled = perf_stats(&dir, "journaled", &["--journal", journal_arg]);
    for field in STREAM_FIELDS {
        assert!(
            journaled.get(field).and_then(|v| v.as_u64()).is_some(),
            "a journaled run lost `{field}`"
        );
    }
    assert_eq!(
        journaled.get("journaled").and_then(|v| v.as_bool()),
        Some(true)
    );
    for stats in [&plain, &journaled] {
        for field in ["stream_shards", "shard_contention"] {
            assert!(stats.get(field).is_none(), "a run reported `{field}`");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
