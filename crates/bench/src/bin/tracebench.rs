//! Telemetry overhead benchmark: runs the sweepbench-shape corpus with
//! telemetry **disabled** and **enabled**, verifies the two reports are
//! byte-identical JSON (the observability layer must never change a
//! measured byte), streams the Chrome trace of one more enabled sweep
//! and parses it back, micro-benchmarks the no-op span fast path, and
//! emits a unified `BENCH_trace.json` measurement record. Wall-clock
//! and span-cost numbers are sampled
//! over several rounds (rebar warmup/sample discipline); the recorded
//! span count is a deterministic `Steady` identity benchcmp gates
//! across machines.
//!
//! The gate: the *disabled* fast path must cost < `--max-overhead`
//! percent (default 3%) of sweep wall time. A disabled span guard does
//! no allocation and no locking, so its estimated share — spans the
//! enabled run recorded × the measured ns per disabled span, over the
//! disabled-run wall time — stays far below the budget.

use std::path::PathBuf;
use std::time::Instant;

use dydroid::obs::Telemetry;
use dydroid::{MeasurementReport, Pipeline, PipelineConfig};
use dydroid_bench::measure::sample_rounds;
use dydroid_bench::{ArgParser, CommonArgs, Direction, Measurement, Stats, EXIT_FINDING};
use dydroid_workload::{generate, CorpusSpec, SyntheticApp};

const USAGE: &str = "tracebench [--scale F] [--seed N] [--out PATH] [--samples N] [--warmup N] \
[--trace-out PATH] [--max-overhead PCT]";

/// One timed sweep; returns the pipeline (for its telemetry), the report
/// and the wall-clock ms.
fn timed_sweep(
    config: PipelineConfig,
    corpus: &[SyntheticApp],
) -> (Pipeline, MeasurementReport, f64) {
    let pipeline = Pipeline::new(config);
    let t0 = Instant::now();
    let report = pipeline.run(corpus);
    (pipeline, report, t0.elapsed().as_secs_f64() * 1e3)
}

/// Nanoseconds per span open/field/close round trip on `telemetry`.
fn span_round_trip_ns(telemetry: &Telemetry, iters: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        let mut span = telemetry.span("bench");
        span.field("i", i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let mut parser = ArgParser::new(USAGE);
    let mut common = CommonArgs::for_bench("BENCH_trace.json", 3, 1);
    let mut trace_out: Option<String> = None;
    let mut max_overhead_pct = 3.0f64;
    while let Some(arg) = parser.next() {
        if common.accept(&arg, &mut parser) {
            continue;
        }
        match arg.as_str() {
            "--trace-out" => trace_out = Some(parser.raw("--trace-out")),
            "--max-overhead" => {
                max_overhead_pct = parser.value("--max-overhead", "a float percentage")
            }
            other => parser.fail(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!(
        "tracebench: generating corpus (scale {}, seed {:#x}) ...",
        common.scale, common.seed
    );
    let corpus = generate(&CorpusSpec {
        scale: common.scale,
        seed: common.seed,
    });
    let apps = corpus.len();
    eprintln!("tracebench: {apps} apps");

    let mut record = Measurement::new("trace", "on-vs-off", common.scale, common.seed);
    record.samples = common.samples;
    record.warmup = common.warmup;

    eprintln!(
        "tracebench: telemetry-disabled sweep ({} warmup + {} sample rounds) ...",
        common.warmup, common.samples
    );
    let mut off_report: Option<MeasurementReport> = None;
    let off_ms = sample_rounds(common.samples, common.warmup, || {
        let (_, report, ms) = timed_sweep(
            PipelineConfig {
                telemetry: false,
                ..PipelineConfig::default()
            },
            &corpus,
        );
        off_report = Some(report);
        ms
    });
    let off_report = off_report.expect("disabled rounds");
    let off_med = Stats::from_samples(&off_ms).median;
    eprintln!("tracebench: disabled sweep median {off_med:.1} ms");

    eprintln!(
        "tracebench: telemetry-enabled sweep ({} warmup + {} sample rounds) ...",
        common.warmup, common.samples
    );
    // The enabled run's own span count: every span it closed, folded
    // into its profile.
    let mut on_run: Option<(u64, MeasurementReport)> = None;
    let on_ms = sample_rounds(common.samples, common.warmup, || {
        let (pipeline, report, ms) = timed_sweep(PipelineConfig::default(), &corpus);
        on_run = Some((pipeline.telemetry().profile().span_count(), report));
        ms
    });
    let (spans_recorded, on_report) = on_run.expect("enabled rounds");
    let on_med = Stats::from_samples(&on_ms).median;
    eprintln!("tracebench: enabled sweep median {on_med:.1} ms");
    eprint!("{}", on_report.render_perf());
    record.counters_from_stats(on_report.stats());

    // Telemetry must never change a measured byte.
    let off_json = serde_json::to_string(&off_report).expect("serialise disabled report");
    let on_json = serde_json::to_string(&on_report).expect("serialise enabled report");
    if off_json != on_json {
        eprintln!("tracebench: FAIL — telemetry on/off reports differ");
        std::process::exit(EXIT_FINDING);
    }
    eprintln!(
        "tracebench: reports identical ({} bytes of JSON)",
        off_json.len()
    );

    // Chrome-trace export: one more enabled sweep streams its trace (to
    // --trace-out or a temp path), opened before the pipeline is built,
    // and the file must parse back with one complete event per span.
    let trace_path = trace_out.as_ref().map_or_else(
        || std::env::temp_dir().join(format!("tracebench-{}.trace.json", std::process::id())),
        PathBuf::from,
    );
    let telemetry = Telemetry::new(true);
    let n_events = telemetry
        .open_trace(&trace_path)
        .and_then(|()| {
            let pipeline = Pipeline::with_telemetry(PipelineConfig::default(), telemetry);
            let _ = pipeline.run(&corpus);
            pipeline.telemetry().close_trace()
        })
        .and_then(|()| std::fs::read_to_string(&trace_path))
        .ok()
        .and_then(|text| serde_json::from_str::<serde_json::Value>(&text).ok())
        .and_then(|doc| doc.get("traceEvents")?.as_array().map(Vec::len));
    if trace_out.is_none() {
        let _ = std::fs::remove_file(&trace_path);
    }
    let Some(n_events) = n_events.filter(|&n| n as u64 == spans_recorded) else {
        eprintln!(
            "tracebench: FAIL — {spans_recorded} spans streamed a trace of {n_events:?} events to {}",
            trace_path.display()
        );
        std::process::exit(EXIT_FINDING);
    };
    eprintln!("tracebench: chrome trace valid ({n_events} events)");
    if let Some(path) = &trace_out {
        eprintln!("tracebench: wrote {path}");
    }

    // Micro-benchmark both span fast paths, one measurement per round.
    const ITERS: u64 = 1_000_000;
    let disabled_ns = sample_rounds(common.samples, common.warmup, || {
        span_round_trip_ns(&Telemetry::new(false), ITERS)
    });
    let enabled_ns = sample_rounds(common.samples, common.warmup, || {
        span_round_trip_ns(&Telemetry::new(true), ITERS)
    });
    let disabled_ns_med = Stats::from_samples(&disabled_ns).median;
    let enabled_ns_med = Stats::from_samples(&enabled_ns).median;
    eprintln!(
        "tracebench: span round trip {disabled_ns_med:.1} ns disabled / {enabled_ns_med:.1} ns enabled"
    );

    // The disabled-path overhead estimate: every span the enabled run
    // recorded would have been a no-op guard in the disabled run.
    let off_ns = off_med.max(1.0) * 1e6;
    let disabled_overhead_pct = 100.0 * (spans_recorded as f64 * disabled_ns_med) / off_ns;
    let enabled_overhead_pct = if off_med == 0.0 {
        0.0
    } else {
        100.0 * (on_med - off_med) / off_med
    };
    eprintln!(
        "tracebench: estimated disabled overhead {disabled_overhead_pct:.3}% \
         (budget {max_overhead_pct:.1}%), enabled overhead {enabled_overhead_pct:.1}%"
    );

    record.push_metric("disabled_wall_ms", "ms", Direction::Lower, false, off_ms);
    record.push_metric("enabled_wall_ms", "ms", Direction::Lower, false, on_ms);
    record.push_metric(
        "span_ns_disabled",
        "ns",
        Direction::Lower,
        false,
        disabled_ns,
    );
    record.push_metric("span_ns_enabled", "ns", Direction::Lower, false, enabled_ns);
    record.push_metric(
        "disabled_overhead_pct",
        "percent",
        Direction::Lower,
        false,
        vec![disabled_overhead_pct],
    );
    // Deterministic identity: the span count for a fixed corpus must
    // never move, on any machine.
    record.push_metric(
        "spans_recorded",
        "count",
        Direction::Steady,
        true,
        vec![spans_recorded as f64],
    );
    record.payload = serde_json::json!({
        "apps": apps,
        "workers": PipelineConfig::default().effective_workers(),
        "disabled_wall_ms": off_med,
        "enabled_wall_ms": on_med,
        "spans_recorded": spans_recorded,
        "trace_events": n_events,
        "span_ns_disabled": disabled_ns_med,
        "span_ns_enabled": enabled_ns_med,
        "disabled_overhead_pct": disabled_overhead_pct,
        "enabled_overhead_pct": enabled_overhead_pct,
        "max_overhead_pct": max_overhead_pct,
        "reports_identical": true,
    });

    record
        .write_pretty(&common.out)
        .expect("write bench output");
    eprintln!("tracebench: wrote {}", common.out);

    if disabled_overhead_pct > max_overhead_pct {
        eprintln!(
            "tracebench: FAIL — disabled-telemetry overhead {disabled_overhead_pct:.3}% \
             exceeds {max_overhead_pct:.1}%"
        );
        std::process::exit(EXIT_FINDING);
    }
}
