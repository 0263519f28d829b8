//! Integration tests for the sweep observatory (DESIGN.md §5j): the
//! span-derived self-time profile must be byte-identical whether it is
//! aggregated live from in-memory spans or replayed offline from the
//! persisted event streams — including after a `kill -9` mid-sweep and
//! across a resume — the durable metrics-snapshot stream must survive
//! crashes and torn tails like every other §5f stream, and the
//! straggler watchdog must actually flag under an aggressive threshold.

use std::collections::HashSet;
use std::path::PathBuf;

use dydroid::durable::{
    encode_frames, read_stream, scan_stream, FramedWriter, SinkOptions, StreamKind,
};
use dydroid::obs::{MetricsSnapshot, SpanRecord};
use dydroid::{IoHarness, Journal, Pipeline, PipelineConfig, SpanProfile, Telemetry};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};
use proptest::prelude::*;
use serde::Deserialize as _;

fn small_corpus(n: usize) -> Vec<SyntheticApp> {
    let mut corpus = generate(&CorpusSpec {
        scale: 0.004,
        seed: 99,
    });
    corpus.truncate(n);
    corpus
}

fn temp_journal(tag: &str) -> Journal {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_observatory_{tag}_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
}

/// Live aggregation over a plain (non-journaled) run's event sink is
/// byte-identical to the offline replay of that sink: same folded
/// lines, same order, same self-times.
#[test]
fn offline_replay_matches_live_aggregation() {
    let corpus = small_corpus(40);
    let sink = std::env::temp_dir().join(format!(
        "dydroid_observatory_live_{}.events.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&sink);

    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    // Spans recorded before the sink attaches (detector training runs at
    // construction) never reach the stream; the differential covers
    // everything recorded while the sink was live.
    let pre_sink: HashSet<u64> = pipeline.telemetry().spans().iter().map(|s| s.id).collect();
    pipeline
        .telemetry()
        .set_event_sink(&sink)
        .expect("event sink");
    let _ = pipeline.run(&corpus);

    let sunk: Vec<SpanRecord> = pipeline
        .telemetry()
        .spans()
        .into_iter()
        .filter(|s| !pre_sink.contains(&s.id))
        .collect();
    let live = SpanProfile::from_spans(&sunk);
    assert!(!live.is_empty(), "sweep recorded no spans");
    let offline = SpanProfile::from_event_streams(std::slice::from_ref(&sink)).expect("replay");
    assert_eq!(
        live.folded(),
        offline.folded(),
        "offline replay diverged from live aggregation"
    );
    // Self-time never exceeds total time, and the root sweep span is
    // present in the profile.
    for (path, entry) in live.entries() {
        assert!(entry.self_us <= entry.total_us, "self > total at {path:?}");
    }
    let _ = std::fs::remove_file(&sink);
}

/// A sweep killed mid-run (virtual-clock I/O crash) leaves a torn live
/// event stream; replaying it offline reconstructs exactly the profile
/// a fresh telemetry instance stitches from the same stream — the two
/// independent parsers of the span wire format agree byte-for-byte.
#[test]
fn killed_sweep_replay_matches_stitched_spans() {
    let corpus = small_corpus(60);
    let journal = temp_journal("killed");

    let config = PipelineConfig {
        environment_reruns: false,
        // Single-writer layout so the base event stream holds the spans.
        workers: 1,
        ..PipelineConfig::default()
    };
    let mut first = Pipeline::new(config.clone());
    first.set_io_harness(IoHarness::new(Some(150), None));
    let _ = first
        .run_resumable(&corpus, &journal)
        .expect("interrupted sweep still returns");

    let stitcher = Telemetry::new(true);
    let stitched = stitcher
        .stitch_from(&journal.events_path())
        .expect("stitch");
    assert!(stitched > 0, "crash left no spans to stitch");
    let live = SpanProfile::from_spans(&stitcher.spans());
    let offline = SpanProfile::replay_journal(&journal).expect("replay");
    assert!(!offline.is_empty());
    assert_eq!(
        live.folded(),
        offline.folded(),
        "replay diverged from stitched aggregation after a crash"
    );

    // Resuming to completion writes the profile artifact, and it is
    // byte-identical to aggregating the resumed pipeline's full
    // (stitched + fresh) timeline.
    let profile_out = std::env::temp_dir().join(format!(
        "dydroid_observatory_killed_{}.profile.folded",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&profile_out);
    let second = Pipeline::new(PipelineConfig {
        profile_out: Some(profile_out.to_string_lossy().into_owned()),
        ..config
    });
    let resumed = second
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    assert_eq!(resumed.records().len(), corpus.len());
    let artifact = std::fs::read_to_string(&profile_out).expect("profile artifact");
    let full = SpanProfile::from_spans(&second.telemetry().spans());
    assert_eq!(
        artifact,
        full.folded(),
        "profile artifact diverged from the resumed live timeline"
    );
    // The same artifact lands beside the journal for `dcltrace profile`.
    assert_eq!(
        std::fs::read_to_string(journal.profile_path()).expect("journal-side artifact"),
        artifact
    );
    // Folded lines parse: "path;path;... <self_us>".
    for line in artifact.lines() {
        let (stack, self_us) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        self_us.parse::<u64>().expect("self-time is integral µs");
    }

    let _ = std::fs::remove_file(&profile_out);
    journal.reset().expect("cleanup");
}

/// The metrics-snapshot stream survives a mid-sweep crash: the resumed
/// run truncates any torn tail, continues the sequence, and the final
/// stream scans clean with monotone virtual clocks and deserializable
/// snapshots.
#[test]
fn metrics_stream_survives_crash_and_resume() {
    let corpus = small_corpus(60);
    let journal = temp_journal("metrics");

    let config = PipelineConfig {
        environment_reruns: false,
        workers: 1,
        // Snapshot roughly every app (~44 virtual µs each) so even the
        // truncated pre-crash window captures several frames.
        metrics_interval_us: 50,
        ..PipelineConfig::default()
    };
    let mut first = Pipeline::new(config.clone());
    first.set_io_harness(IoHarness::new(Some(150), None));
    let _ = first
        .run_resumable(&corpus, &journal)
        .expect("interrupted sweep still returns");
    let mid_bytes = read_stream(&journal.metrics_path())
        .expect("read metrics")
        .expect("metrics stream exists");
    let mid = scan_stream(&mid_bytes);
    assert!(!mid.bodies.is_empty(), "no snapshots before the crash");

    let second = Pipeline::new(config);
    let _ = second
        .run_resumable(&corpus, &journal)
        .expect("resumed sweep");
    let bytes = read_stream(&journal.metrics_path())
        .expect("read metrics")
        .expect("metrics stream exists");
    let scan = scan_stream(&bytes);
    assert!(
        scan.is_clean(),
        "resumed stream has defect {:?}",
        scan.defect
    );
    assert_eq!(scan.dropped, 0);
    assert!(
        scan.bodies.len() >= mid.bodies.len(),
        "resume lost snapshots"
    );

    // The virtual clock is per session: monotone within a session,
    // resetting to zero when the resumed pipeline starts its own clock.
    // One crash + one resume ⇒ at most one reset in the whole stream.
    let mut last_virtual = 0u64;
    let mut resets = 0usize;
    for body in &scan.bodies {
        let value: serde::Value = serde_json::from_str(body).expect("snapshot body parses");
        assert_eq!(
            value.get("type").and_then(|t| t.as_str()),
            Some("metrics"),
            "foreign body in the metrics stream: {body}"
        );
        let virtual_us = value
            .get("virtual_us")
            .and_then(|v| v.as_u64())
            .expect("virtual clock stamp");
        if virtual_us < last_virtual {
            resets += 1;
        }
        last_virtual = virtual_us;
        let snap = MetricsSnapshot::from_json(value.get("snapshot").expect("snapshot payload"))
            .expect("snapshot deserializes");
        assert!(
            snap.counters.iter().any(|(n, _)| n == "monkey.virtual_us"),
            "snapshot missing the virtual clock counter"
        );
    }
    assert!(
        resets <= 1,
        "virtual clock reset {resets} times across one resume"
    );

    // `Journal::reset` removes the sidecar with the other streams.
    journal.reset().expect("cleanup");
    assert!(!journal.metrics_path().exists());
}

/// An aggressive watchdog threshold flags stragglers on the real
/// (deterministic) virtual-time distribution, surfaces them in
/// `SweepStats` and `render_perf`, and caps the appendix at the
/// configured top-N.
#[test]
fn watchdog_flags_and_renders_stragglers() {
    let corpus = small_corpus(60);
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        // Any app 1% over the running median is a "straggler": the
        // deterministic virtual-time spread guarantees flags.
        watchdog_k: 1.01,
        straggler_top: 3,
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&corpus);
    let stats = report.stats();
    assert!(
        stats.straggler_warnings > 0,
        "no stragglers flagged at k=1.01 over {} apps",
        corpus.len()
    );
    assert!(!stats.stragglers.is_empty());
    assert!(stats.stragglers.len() <= 3, "top-N cap ignored");
    for s in &stats.stragglers {
        assert!(
            s.virtual_us as f64 > 1.01 * s.median_virtual_us as f64,
            "{} flagged below threshold ({} vs median {})",
            s.package,
            s.virtual_us,
            s.median_virtual_us
        );
    }
    let perf = report.render_perf();
    assert!(perf.contains("straggler(s) flagged"), "{perf}");
    assert!(perf.contains("slowest stragglers"), "{perf}");

    // The flag count also lands in the metrics registry, where the
    // progress line and `dcltrace top` read it.
    assert_eq!(
        pipeline
            .telemetry()
            .snapshot()
            .counter("watchdog.stragglers"),
        stats.straggler_warnings
    );
}

/// The default watchdog threshold stays quiet on the same corpus: 4× the
/// running median is far outside the deterministic virtual-time spread.
#[test]
fn default_watchdog_threshold_is_quiet() {
    let corpus = small_corpus(60);
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: false,
        ..PipelineConfig::default()
    });
    let report = pipeline.run(&corpus);
    assert_eq!(report.stats().straggler_warnings, 0);
    assert!(report.stats().stragglers.is_empty());
}

/// Synthetic metrics-snapshot bodies, the payload shape the metrics
/// stream writes (a miniature of the real §5f snapshot frame).
fn metrics_bodies(clocks: &[u32]) -> Vec<String> {
    clocks
        .iter()
        .map(|c| {
            format!(
                "{{\"type\":\"metrics\",\"virtual_us\":{c},\"snapshot\":{{\"counters\":[[\"monkey.virtual_us\",{c}]],\"gauges\":[],\"histograms\":[]}}}}"
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Truncating a metrics-snapshot stream at any byte offset recovers
    /// exactly the intact prefix — every recovered body still parses as
    /// a snapshot — and a reopened writer truncates the tear, continues
    /// the sequence, and leaves a clean stream.
    #[test]
    fn torn_metrics_stream_recovers_and_heals(
        clocks in prop::collection::vec(any::<u32>(), 1..8),
        at in any::<prop::sample::Index>(),
    ) {
        let bodies = metrics_bodies(&clocks);
        let encoded = encode_frames(0, &bodies);
        let cut = at.index(encoded.len() + 1);
        let scan = scan_stream(&encoded.as_bytes()[..cut]);
        prop_assert!(scan.bodies.len() <= bodies.len());
        for body in &scan.bodies {
            let value: serde::Value =
                serde_json::from_str(body).expect("recovered snapshot parses");
            prop_assert_eq!(
                value.get("type").and_then(|t| t.as_str()),
                Some("metrics")
            );
            prop_assert!(MetricsSnapshot::from_json(
                value.get("snapshot").expect("snapshot payload")
            )
            .is_ok());
        }

        // Healing: reopening the torn file as a metrics sink truncates
        // the tear and the next snapshot lands at the torn seq slot.
        let path = std::env::temp_dir().join(format!(
            "dydroid_observatory_torn_{}_{:?}.metrics.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, &encoded.as_bytes()[..cut]).expect("write torn stream");
        let mut writer = FramedWriter::open(&path, SinkOptions::direct(StreamKind::Metrics))
            .expect("reopen torn stream");
        prop_assert_eq!(writer.seq(), scan.bodies.len() as u64);
        writer
            .append_body(&metrics_bodies(&[7])[0])
            .expect("append after heal");
        writer.sync_now().expect("sync");
        drop(writer);
        let healed_bytes = read_stream(&path).expect("read healed").expect("healed exists");
        let healed = scan_stream(&healed_bytes);
        prop_assert!(healed.is_clean(), "healed stream defect {:?}", healed.defect);
        prop_assert_eq!(healed.bodies.len(), scan.bodies.len() + 1);
        let _ = std::fs::remove_file(&path);
    }
}
