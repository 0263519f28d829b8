//! Golden byte-identity of the durable streams. A scale-0.01 journaled
//! sweep with provenance and telemetry on must finalize its journal,
//! provenance ledger and event stream to exactly the committed lengths
//! and FNV-1a digests, so any change to the JSON codec, the frame
//! envelope or the CRC that moves a single on-disk byte fails here.
//! The same sweep checks that every journaled record and provenance
//! graph encodes identically through `serde_json::to_string` and through
//! the `Value` tree, that the journal reads back to the records the
//! sweep returned, and that recovery of the finished run is clean.
//! It also pins the sweep's serialized report and the interpreter
//! instructions it retired, so a change to the analysis path that moves
//! a verdict or a single retired instruction fails here too.

use std::path::PathBuf;

use dydroid::{AppProvenance, AppRecord, Journal, Pipeline, PipelineConfig, ProvenanceLedger};
use dydroid_workload::{generate, CorpusSpec};
use serde::Serialize;

/// `(stream, byte length, FNV-1a 64 digest)` of the finalized streams.
const GOLDEN: [(&str, usize, u64); 3] = [
    ("journal", 434_800, 0x8ca3_d040_8bef_d16e),
    ("ledger", 322_849, 0x509e_c3df_95cc_a59e),
    ("events", 111_961, 0x4792_f3fa_83a0_e141),
];

/// `(byte length, FNV-1a 64 digest)` of the same sweep's report JSON
/// (`serde_json::to_string` of the `MeasurementReport`), and the
/// interpreter instructions it retired in total (the `avm.instructions`
/// counter: baseline runs plus Table VIII re-runs). Both were computed
/// before the class space was parsed once and shared from decompile
/// through install and launch, and that change left them as they were.
const GOLDEN_REPORT: (usize, u64) = (408_909, 0xead6_8a2c_6966_c5e9);
const GOLDEN_INSTRUCTIONS: u64 = 26_002;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The tree-free encoder and the `Value` tree must agree byte for byte.
fn assert_encoders_agree<T: Serialize>(what: &str, key: &str, x: &T) {
    let direct = serde_json::to_string(x).expect("encode");
    assert!(
        direct == x.to_json().to_compact_string(),
        "{what} `{key}`: serde_json::to_string differs from the Value tree encoding"
    );
}

#[test]
fn finalized_streams_match_committed_goldens() {
    let corpus = generate(&CorpusSpec {
        scale: 0.01,
        ..CorpusSpec::default()
    });
    let config = PipelineConfig {
        workers: 2,
        telemetry: true,
        provenance: true,
        ..PipelineConfig::default()
    };
    let path: PathBuf =
        std::env::temp_dir().join(format!("dydroid_golden_{}.jsonl", std::process::id()));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    let pipeline = Pipeline::new(config.clone());
    let report = pipeline
        .run_resumable(&corpus, &journal)
        .expect("journaled sweep");
    assert_eq!(report.records().len(), corpus.len());
    let report_json = serde_json::to_string(&report).expect("serialise report");
    let instructions = pipeline.telemetry().counter_value("avm.instructions");

    let streams = [
        ("journal", journal.path().to_path_buf()),
        ("ledger", journal.provenance_path()),
        ("events", journal.events_path()),
    ];
    let measured: Vec<(&str, usize, u64)> = streams
        .iter()
        .map(|(name, path)| {
            let bytes = std::fs::read(path).expect("finalized stream");
            (*name, bytes.len(), fnv1a(&bytes))
        })
        .collect();

    let records: Vec<AppRecord> = journal.load().expect("load journal");
    let ledger: Vec<AppProvenance> = ProvenanceLedger::new(journal.provenance_path())
        .load()
        .expect("load ledger");
    assert_eq!(records.len(), corpus.len(), "journal lost records");
    assert_eq!(ledger.len(), corpus.len(), "ledger lost records");
    for (read, swept) in records.iter().zip(report.records()) {
        assert_eq!(read.package, swept.package);
        assert_encoders_agree("record", &read.package, read);
        assert_eq!(
            serde_json::to_string(read).unwrap(),
            serde_json::to_string(swept).unwrap(),
            "record `{}` does not round-trip through the journal",
            read.package
        );
    }
    for graph in &ledger {
        assert_encoders_agree("provenance", &graph.package, graph);
    }

    let outcome = Pipeline::new(config)
        .recover_all(&journal)
        .expect("recover the finished journal");
    assert!(outcome.inconsistent.is_empty());
    assert_eq!(outcome.records.len(), corpus.len());
    journal.reset().expect("cleanup");

    assert_eq!(
        measured,
        GOLDEN.to_vec(),
        "finalized stream bytes moved (stream, length, FNV-1a)"
    );
    assert_eq!(
        (report_json.len(), fnv1a(report_json.as_bytes())),
        GOLDEN_REPORT,
        "report JSON moved (length, FNV-1a)"
    );
    assert_eq!(
        instructions, GOLDEN_INSTRUCTIONS,
        "instructions retired moved"
    );
}
