//! rebar-style sweep benchmark: times a fixed-seed in-memory corpus
//! sweep (the content-addressed analysis cache is always on), then
//! sweeps the worker count 1→N through the journaled path and emits the
//! apps/sec-per-core scaling curve.
//!
//! The in-memory sweep is sampled over several rounds (rebar
//! warmup/sample discipline). Its record keeps the workload name
//! `cached-vs-baseline`, the name of the committed baseline record that
//! `benchcmp` gates it against.
//!
//! Scaling is judged on the **virtual makespan** — the longest summed
//! deterministic per-app virtual cost any one worker was charged (see
//! `dydroid::WorkerStats`) — not wall-clock: the curve then measures
//! scheduler load balance and is reproducible on any machine, including
//! single-core CI runners where wall-clock cannot speed up at all.
//! Wall-clock per worker count is still recorded, unjudged.
//!
//! The run emits one unified measurement record (`BENCH_sweep.json`)
//! and exits 1 on any failed
//! identity check or `--min-scaling` gate (the shared bench exit-code
//! convention).

use std::time::Instant;

use dydroid::scheduler::virtual_makespan_us;
use dydroid::{Journal, MeasurementReport, Pipeline, PipelineConfig};
use dydroid_bench::measure::sample_rounds;
use dydroid_bench::{ArgParser, CommonArgs, Direction, Measurement, EXIT_FINDING};
use dydroid_workload::{generate, SyntheticApp};

const USAGE: &str = "sweepbench [--scale F] [--seed N] [--out PATH] [--samples N] [--warmup N] \
[--max-workers N] [--min-scaling F]";

/// One timed sweep; returns the report and total wall-clock ms.
fn timed_sweep(config: PipelineConfig, corpus: &[SyntheticApp]) -> (MeasurementReport, f64) {
    let pipeline = Pipeline::new(config);
    let t0 = Instant::now();
    let report = pipeline.run(corpus);
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

/// One scaling point: a journaled sweep at a fixed worker count. Returns the report, the wall-clock
/// ms, and the finalized journal bytes (the cross-count byte-identity
/// evidence).
fn scaling_point(
    corpus: &[SyntheticApp],
    workers: usize,
    dir: &std::path::Path,
) -> (MeasurementReport, u64, Vec<u8>) {
    let config = PipelineConfig {
        workers,
        telemetry: false,
        environment_reruns: false,
        ..PipelineConfig::default()
    };
    let pipeline = Pipeline::new(config);
    let path = dir.join(format!("scaling-{workers}.jsonl"));
    let journal = Journal::new(&path);
    journal.reset().expect("reset scaling journal");
    let t0 = Instant::now();
    let report = pipeline
        .run_resumable(corpus, &journal)
        .expect("scaling sweep");
    let wall_ms = t0.elapsed().as_millis() as u64;
    let bytes = std::fs::read(&path).expect("read finalized scaling journal");
    (report, wall_ms, bytes)
}

/// The perf facts of the in-memory sweep as a JSON object (median
/// wall-clock over the sampled rounds). `hit_rate` is omitted when the
/// sweep made no cache lookup.
fn sweep_json(report: &MeasurementReport, wall_ms: f64, apps: usize) -> serde_json::Value {
    let stats = report.stats();
    let cache = &stats.cache;
    let apps_per_sec = if wall_ms == 0.0 {
        0.0
    } else {
        apps as f64 * 1000.0 / wall_ms
    };
    let phases = serde_json::json!({
        "sweep_ms": stats.sweep_ms,
        "env_ms": stats.env_ms,
    });
    let mut cache_json = serde_json::json!({
        "hits": cache.hits,
        "misses": cache.misses,
        "unique_binaries": cache.entries,
        "sig_builds": cache.sig_builds,
        "taint_runs": cache.taint_runs,
    });
    if let (serde_json::Value::Object(map), Some(rate)) = (&mut cache_json, cache.hit_rate()) {
        map.push(("hit_rate".to_string(), serde_json::json!(rate)));
    }
    serde_json::json!({
        "wall_ms": wall_ms,
        "apps_per_sec": apps_per_sec,
        "phases": phases,
        "cache": cache_json,
    })
}

fn main() {
    let mut parser = ArgParser::new(USAGE);
    let mut common = CommonArgs::for_bench("BENCH_sweep.json", 3, 1);
    common.scale = 0.01;
    let mut max_workers = 4usize;
    let mut min_scaling: Option<f64> = None;
    while let Some(arg) = parser.next() {
        if common.accept(&arg, &mut parser) {
            continue;
        }
        match arg.as_str() {
            "--min-scaling" => min_scaling = Some(parser.value("--min-scaling", "a float")),
            "--max-workers" => {
                max_workers = parser.value("--max-workers", "an integer >= 1");
                if max_workers == 0 {
                    parser.fail("--max-workers needs an integer >= 1");
                }
            }
            other => parser.fail(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!(
        "sweepbench: generating corpus (scale {}, seed {:#x}) ...",
        common.scale, common.seed
    );
    let corpus = generate(&dydroid_workload::CorpusSpec {
        scale: common.scale,
        seed: common.seed,
    });
    let apps = corpus.len();
    eprintln!("sweepbench: {apps} apps");

    let mut record = Measurement::new("sweep", "cached-vs-baseline", common.scale, common.seed);
    record.samples = common.samples;
    record.warmup = common.warmup;

    // Telemetry off: this benchmark is the PR-over-PR perf trajectory,
    // so it measures the disabled-telemetry fast path (tracebench owns
    // the enabled-vs-disabled comparison).
    let cached_config = PipelineConfig {
        telemetry: false,
        ..PipelineConfig::default()
    };

    eprintln!(
        "sweepbench: cached sweep ({} warmup + {} sample rounds) ...",
        common.warmup, common.samples
    );
    let mut cached_report: Option<MeasurementReport> = None;
    let cached_ms = sample_rounds(common.samples, common.warmup, || {
        let (report, ms) = timed_sweep(cached_config.clone(), &corpus);
        cached_report = Some(report);
        ms
    });
    let cached_report = cached_report.expect("at least one cached round");
    eprint!("{}", cached_report.render_perf());
    record.counters_from_stats(cached_report.stats());
    record.push_metric(
        "cached_wall_ms",
        "ms",
        Direction::Lower,
        false,
        cached_ms.clone(),
    );
    let cached_median = dydroid_bench::Stats::from_samples(&cached_ms).median;
    record.push_metric(
        "apps_per_sec",
        "apps/sec",
        Direction::Higher,
        false,
        cached_ms
            .iter()
            .map(|ms| {
                if *ms == 0.0 {
                    0.0
                } else {
                    apps as f64 * 1000.0 / ms
                }
            })
            .collect(),
    );

    let mut payload = serde_json::json!({
        "apps": apps,
        "workers": PipelineConfig::default().effective_workers(),
        "cached": sweep_json(&cached_report, cached_median, apps),
    });

    // Worker-count scaling sweep 1→N through the journaled path. Each
    // count runs the same corpus; the finalized journal and the report
    // JSON must be byte-identical across counts.
    let scaling_dir =
        std::env::temp_dir().join(format!("sweepbench-scaling-{}", std::process::id()));
    std::fs::create_dir_all(&scaling_dir).expect("create scaling dir");
    let mut points = Vec::new();
    let mut makespan_1 = 0u64;
    let mut makespan_max = 0u64;
    let mut reference: Option<(Vec<u8>, String)> = None;
    for workers in 1..=max_workers {
        eprintln!("sweepbench: scaling sweep at {workers} worker(s) ...");
        let (report, wall_ms, journal_bytes) = scaling_point(&corpus, workers, &scaling_dir);
        let stats = report.stats();
        let makespan_us = virtual_makespan_us(&stats.worker_stats);
        if workers == 1 {
            makespan_1 = makespan_us;
        }
        makespan_max = makespan_us;
        // Scaling factor: how much shorter the critical path (longest
        // per-worker virtual cost) got versus one worker.
        let scaling = if makespan_us == 0 {
            0.0
        } else {
            makespan_1 as f64 / makespan_us as f64
        };
        let report_json = serde_json::to_string(&report).expect("serialise scaling report");
        match &reference {
            None => reference = Some((journal_bytes, report_json)),
            Some((ref_journal, ref_report)) => {
                if *ref_journal != journal_bytes {
                    eprintln!(
                        "sweepbench: FAIL — finalized journal at {workers} workers differs from 1 worker"
                    );
                    std::process::exit(EXIT_FINDING);
                }
                if *ref_report != report_json {
                    eprintln!(
                        "sweepbench: FAIL — report JSON at {workers} workers differs from 1 worker"
                    );
                    std::process::exit(EXIT_FINDING);
                }
            }
        }
        let virtual_total: u64 = stats.worker_stats.iter().map(|w| w.virtual_us).sum();
        let apps_per_virtual_sec_per_core = if makespan_us == 0 {
            0.0
        } else {
            apps as f64 * 1_000_000.0 / (makespan_us as f64 * workers as f64)
        };
        eprintln!(
            "sweepbench:   wall {wall_ms} ms, virtual makespan {makespan_us} µs, scaling {scaling:.2}x"
        );
        points.push(serde_json::json!({
            "workers": workers,
            "wall_ms": wall_ms,
            "virtual_makespan_us": makespan_us,
            "virtual_total_us": virtual_total,
            "scaling": scaling,
            "apps_per_virtual_sec_per_core": apps_per_virtual_sec_per_core,
        }));
    }
    let _ = std::fs::remove_dir_all(&scaling_dir);
    let final_scaling = points
        .last()
        .and_then(|p| p["scaling"].as_f64())
        .unwrap_or(0.0);
    eprintln!(
        "sweepbench: scaling 1→{max_workers}: {final_scaling:.2}x on virtual makespan \
         (streams byte-identical across counts)"
    );
    // Virtual metrics: deterministic, judged across machines by benchcmp.
    record.push_metric(
        "virtual_makespan_us",
        "us",
        Direction::Lower,
        true,
        vec![makespan_max as f64],
    );
    record.push_metric(
        "scaling_at_max",
        "ratio",
        Direction::Higher,
        true,
        vec![final_scaling],
    );
    if let serde_json::Value::Object(map) = &mut payload {
        map.push((
            "scaling".to_string(),
            serde_json::json!({
                "judged_on": "virtual_makespan_us",
                "max_workers": max_workers,
                "scaling_at_max": final_scaling,
                "points": points,
            }),
        ));
    }
    record.payload = payload;

    record
        .write_pretty(&common.out)
        .expect("write bench output");
    eprintln!("sweepbench: wrote {}", common.out);

    if let Some(min_scaling) = min_scaling {
        if final_scaling < min_scaling {
            eprintln!(
                "sweepbench: FAIL — scaling {final_scaling:.2}x at {max_workers} workers below \
                 required {min_scaling:.2}x"
            );
            std::process::exit(EXIT_FINDING);
        }
    }
}
