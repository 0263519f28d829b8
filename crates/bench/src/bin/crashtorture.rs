//! Crash-torture smoke harness: kills a journaled sweep at sampled write
//! boundaries (optionally under an injected I/O fault script), resumes
//! each killed run cleanly, and byte-compares the finalized journal,
//! provenance ledger and event stream against the fault-free run at the
//! same seed.
//!
//! `--crash-points 0` exercises every write boundary; otherwise `N`
//! evenly spaced boundaries are sampled. `--fault-rate` additionally
//! injects short writes, bit-flips, transient errors and ENOSPC at that
//! per-op probability during the killed runs. The run emits a unified
//! `BENCH_crash.json` measurement record (appended to
//! `BENCH_history.jsonl`) whose write-op and crash-point totals are
//! `Steady` virtual identities benchcmp gates across machines;
//! `--report-out` additionally writes the recovered report (tables
//! rendered from the last resumed run) as a CI artifact. Exits 1 if any
//! crash point fails to recover byte-identically.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dydroid::{IoHarness, Journal, Pipeline, PipelineConfig};
use dydroid_bench::{ArgParser, CommonArgs, Direction, Measurement, EXIT_FINDING};
use dydroid_workload::faults::{crash_points, crash_torture, IoFaultScript, IoFaultSpec};
use dydroid_workload::{generate, CorpusSpec};

const USAGE: &str = "crashtorture [--scale F] [--seed N] [--crash-points N] [--fault-rate F] \
[--fault-seed N] [--out PATH] [--report-out PATH] [--history PATH | --no-history]";

fn temp_journal(tag: &str) -> Journal {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_crashtorture_{tag}_{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::new(path);
    journal.reset().expect("reset journal");
    journal
}

fn main() {
    let mut parser = ArgParser::new(USAGE);
    let mut common = CommonArgs::for_bench("BENCH_crash.json", 1, 0);
    let mut crash_count = 16u64;
    let mut fault_rate = 0.0f64;
    let mut fault_seed = 17u64;
    let mut report_out: Option<String> = None;
    while let Some(arg) = parser.next() {
        if common.accept(&arg, &mut parser) {
            continue;
        }
        match arg.as_str() {
            "--crash-points" => {
                crash_count = parser.value("--crash-points", "an integer (0 = every op)")
            }
            "--fault-rate" => fault_rate = parser.value("--fault-rate", "a float in [0,1)"),
            "--fault-seed" => fault_seed = parser.value("--fault-seed", "an integer"),
            "--report-out" => report_out = Some(parser.raw("--report-out")),
            other => parser.fail(&format!("unknown argument {other:?}")),
        }
    }

    let corpus = generate(&CorpusSpec {
        scale: common.scale,
        seed: common.seed,
    });
    eprintln!(
        "crashtorture: {} apps (scale {}, seed {:#x}), fault rate {}",
        corpus.len(),
        common.scale,
        common.seed,
        fault_rate
    );
    // Two workers on every host: the write-op total is a cross-machine
    // identity.
    let config = PipelineConfig {
        environment_reruns: false,
        workers: 2,
        ..Default::default()
    };
    let script = (fault_rate > 0.0).then(|| {
        IoFaultScript::new(IoFaultSpec {
            rate: fault_rate,
            seed: fault_seed,
        })
    });

    // All three finalized streams of one journaled run, concatenated.
    let stream_bytes = |journal: &Journal| -> Vec<u8> {
        let mut bytes = std::fs::read(journal.path()).expect("journal bytes");
        bytes.extend(std::fs::read(journal.provenance_path()).expect("ledger bytes"));
        bytes.extend(std::fs::read(journal.events_path()).expect("events bytes"));
        bytes
    };
    let last_report = std::cell::RefCell::new(None);
    let run = |tag: &str, harness: Option<Arc<IoHarness>>| -> Vec<u8> {
        let journal = temp_journal(tag);
        let mut pipeline = Pipeline::new(config.clone());
        if let Some(h) = &harness {
            pipeline.set_io_harness(Arc::clone(h));
        }
        let _ = pipeline
            .run_resumable(&corpus, &journal)
            .expect("interrupted run still returns");
        if harness.is_some() {
            let report = Pipeline::new(config.clone())
                .run_resumable(&corpus, &journal)
                .expect("resumed run");
            *last_report.borrow_mut() = Some(report);
        }
        let bytes = stream_bytes(&journal);
        journal.reset().expect("cleanup");
        bytes
    };

    let t0 = Instant::now();
    let counter = IoHarness::counting();
    let reference = run("ref", Some(Arc::clone(&counter)));
    let total_ops = counter.ops();
    let points = crash_points(total_ops, crash_count);
    eprintln!(
        "crashtorture: {} write ops, exercising {} crash point(s)",
        total_ops,
        points.len()
    );
    let report = crash_torture(
        move || (reference, total_ops),
        &points,
        |op| run(&format!("op{op}"), Some(IoHarness::new(Some(op), script))),
    );
    let torture_ms = t0.elapsed().as_secs_f64() * 1e3;

    if let (Some(path), Some(recovered)) = (&report_out, last_report.borrow().as_ref()) {
        std::fs::write(path, recovered.render_all()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(EXIT_FINDING);
        });
        eprintln!("crashtorture: recovered report written to {path}");
    }

    let divergent = report.divergent();
    // `--crash-points` shapes the sampled-point identity, so it belongs
    // in the workload string: records at different point counts are a
    // shape mismatch and their Steady metrics must not gate.
    let workload = if fault_rate > 0.0 {
        format!("faults-{fault_rate}-p{crash_count}")
    } else {
        format!("crash-only-p{crash_count}")
    };
    let mut record = Measurement::new("crash", &workload, common.scale, common.seed);
    record.samples = common.samples;
    record.warmup = common.warmup;
    if let Some(recovered) = last_report.borrow().as_ref() {
        record.counters_from_stats(recovered.stats());
    }
    // Deterministic identities: the write-op total and sampled point
    // count must never move for a fixed scale + seed, on any machine.
    record.push_metric(
        "write_ops",
        "count",
        Direction::Steady,
        true,
        vec![report.total_ops as f64],
    );
    record.push_metric(
        "crash_points",
        "count",
        Direction::Steady,
        true,
        vec![report.verdicts.len() as f64],
    );
    // Any divergence is a correctness failure; the metric also gates in
    // benchcmp (Lower: 0 is the only clean value).
    record.push_metric(
        "divergent",
        "count",
        Direction::Lower,
        true,
        vec![divergent.len() as f64],
    );
    record.push_metric(
        "torture_wall_ms",
        "ms",
        Direction::Lower,
        false,
        vec![torture_ms],
    );
    record.counter("crash.write_ops", report.total_ops);
    record.counter("crash.points", report.verdicts.len() as u64);
    record.counter("crash.divergent", divergent.len() as u64);
    record.payload = serde_json::json!({
        "apps": corpus.len(),
        "fault_rate": fault_rate,
        "fault_seed": fault_seed,
        "total_ops": report.total_ops,
        "points": report.verdicts.len(),
        "divergent": serde_json::to_value(&divergent).expect("serialise divergent"),
    });

    record
        .write_pretty(&common.out)
        .expect("write bench output");
    eprintln!("crashtorture: wrote {}", common.out);
    common.append_history("crashtorture", &record);

    if divergent.is_empty() {
        println!(
            "ok: {} crash point(s) of {} write ops all recovered byte-identically",
            report.verdicts.len(),
            report.total_ops
        );
    } else {
        eprintln!(
            "FAIL: {} of {} crash point(s) diverged from the fault-free streams: {divergent:?}",
            divergent.len(),
            report.verdicts.len()
        );
        std::process::exit(EXIT_FINDING);
    }
}
