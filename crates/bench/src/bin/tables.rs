//! Regenerates every table and figure of the DyDroid evaluation section.
//!
//! ```text
//! tables [--scale F] [--seed N] [--workers N] [--table N]... [--figure 3] [--all]
//!        [--json PATH] [--journal PATH] [--resume] [--perf-json PATH] [--trace-out PATH]
//!        [--profile-out PATH] [--progress] [--sync-policy always|checkpoint|never]
//! ```
//!
//! With no selection flags, prints everything. Table numbers follow the
//! paper (2–10; Table I is the download-tracker rule set, which is an
//! input to the system, exercised by unit tests rather than regenerated).
//!
//! `--journal PATH` streams every completed app record to a JSON-lines
//! checkpoint file; with `--resume` a previous journal's apps are skipped
//! instead of re-analysed (without it the journal is reset first), so a
//! killed sweep picks up where it left off. Every journaled run also
//! writes the per-app provenance ledger (one causal graph per JSON line,
//! queryable with `dcltrace`) beside the journal as
//! `<journal>.provenance.jsonl`; a run without `--journal` keeps none.
//!
//! Observability: `--perf-json PATH` writes the perf stats and the full
//! metrics snapshot (counters, gauges, per-phase histograms) as JSON;
//! `--trace-out PATH` writes a Chrome `trace_event` file loadable in
//! chrome://tracing or Perfetto; `--profile-out PATH` writes the sweep's
//! span-derived self-time profile as flamegraph-collapsed stack lines
//! (feed to `inferno` / `flamegraph.pl`, or read directly — hottest
//! self-time first via `dcltrace profile`); `--progress` prints a
//! periodic one-line sweep progress report to stderr.
//! `--sync-policy` picks when the persistent streams fsync: `always`
//! (per record), `checkpoint` (default, batched), or `never`.

use std::io::Write as _;

use dydroid::{Journal, Pipeline, PipelineConfig, SyncPolicy};
use dydroid_bench::args::parse_scale;
use dydroid_workload::{generate, CorpusSpec};

struct Args {
    scale: f64,
    seed: u64,
    workers: usize,
    tables: Vec<u32>,
    figure3: bool,
    all: bool,
    json: Option<String>,
    journal: Option<String>,
    resume: bool,
    perf_json: Option<String>,
    trace_out: Option<String>,
    profile_out: Option<String>,
    progress: bool,
    sync_policy: SyncPolicy,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.1,
        seed: CorpusSpec::default().seed,
        workers: 0,
        tables: Vec::new(),
        figure3: false,
        all: false,
        json: None,
        journal: None,
        resume: false,
        perf_json: None,
        trace_out: None,
        profile_out: None,
        progress: false,
        sync_policy: SyncPolicy::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .as_deref()
                    .and_then(parse_scale)
                    .unwrap_or_else(|| usage("--scale needs a positive float"));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--workers" => {
                args.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--workers needs an integer (0 = all cores)"));
            }
            "--table" => {
                let n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n| (2..=10).contains(n))
                    .unwrap_or_else(|| usage("--table needs a number 2..=10"));
                args.tables.push(n);
            }
            "--figure" => {
                let n: u32 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--figure needs the number 3"));
                if n == 3 {
                    args.figure3 = true;
                } else {
                    usage("only figure 3 exists");
                }
            }
            "--all" => args.all = true,
            "--json" => args.json = it.next().or_else(|| usage("--json needs a path")),
            "--journal" => args.journal = it.next().or_else(|| usage("--journal needs a path")),
            "--resume" => args.resume = true,
            "--perf-json" => {
                args.perf_json = it.next().or_else(|| usage("--perf-json needs a path"));
            }
            "--trace-out" => {
                args.trace_out = it.next().or_else(|| usage("--trace-out needs a path"));
            }
            "--profile-out" => {
                args.profile_out = it.next().or_else(|| usage("--profile-out needs a path"));
            }
            "--progress" => args.progress = true,
            "--sync-policy" => {
                args.sync_policy = match it.next().as_deref() {
                    Some("always") => SyncPolicy::Always,
                    Some("checkpoint") => SyncPolicy::Checkpoint,
                    Some("never") => SyncPolicy::Never,
                    _ => usage("--sync-policy needs always|checkpoint|never"),
                };
            }
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if args.tables.is_empty() && !args.figure3 {
        args.all = true;
    }
    if args.resume && args.journal.is_none() {
        usage("--resume needs --journal PATH");
    }
    args
}

const USAGE: &str = "tables [--scale F] [--seed N] [--workers N] [--table N]... [--figure 3] \
[--all] [--json PATH] [--journal PATH] [--resume] [--perf-json PATH] [--trace-out PATH] \
[--profile-out PATH] [--progress] [--sync-policy always|checkpoint|never]";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    eprintln!(
        "generating corpus (scale {}, seed {:#x}) ...",
        args.scale, args.seed
    );
    let t0 = std::time::Instant::now();
    let corpus = generate(&CorpusSpec {
        scale: args.scale,
        seed: args.seed,
    });
    eprintln!("corpus: {} apps in {:.1?}", corpus.len(), t0.elapsed());

    let needs_env = args.all || args.tables.contains(&8);
    let pipeline = Pipeline::new(PipelineConfig {
        environment_reruns: needs_env,
        workers: args.workers,
        progress: args.progress,
        trace_out: args.trace_out.clone(),
        profile_out: args.profile_out.clone(),
        sync_policy: args.sync_policy,
        ..Default::default()
    });
    let t1 = std::time::Instant::now();
    let report = match &args.journal {
        Some(path) => {
            let journal = Journal::new(path);
            if !args.resume {
                journal.reset().expect("reset journal");
            }
            pipeline
                .run_resumable(&corpus, &journal)
                .expect("journalled sweep")
        }
        None => pipeline.run(&corpus),
    };
    eprintln!("pipeline: analysed in {:.1?}", t1.elapsed());

    if args.all {
        println!("{}", report.render_all());
    } else {
        for t in &args.tables {
            let text = match t {
                2 => report.table2().render(),
                3 => report.table3().render(),
                4 => report.table4().render(),
                5 => report.table5().render(),
                6 => report.table6().render(),
                7 => report.table7().render(),
                8 => report.env_counts().render(),
                9 => report.table9().render(),
                10 => report.table10().render(),
                _ => unreachable!("parse_args admits tables 2..=10 only"),
            };
            println!("{text}");
        }
        if args.figure3 {
            println!("{}", report.figure3().render());
        }
    }

    if let Some(path) = args.json {
        let json = serde_json::json!({
            "scale": args.scale,
            "seed": args.seed,
            "apps": report.records().len(),
            "table2": report.table2(),
            "table3": report.table3(),
            "table4": report.table4(),
            "table5": report.table5(),
            "table6": report.table6(),
            "figure3": report.figure3(),
            "table7": report.table7(),
            "table8": report.env_counts(),
            "table9": report.table9(),
            "table10": report.table10(),
        });
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(
            serde_json::to_string_pretty(&json)
                .expect("serialise")
                .as_bytes(),
        )
        .expect("write json output");
        eprintln!("wrote {path}");
    }

    if let Some(path) = args.perf_json {
        // One serialization path for all perf facts: the stats struct
        // (excluded from report JSON) plus the raw metrics snapshot.
        let perf = serde_json::json!({
            "stats": report.stats(),
            "metrics": pipeline.metrics_snapshot(),
        });
        let mut f = std::fs::File::create(&path).expect("create perf json output");
        f.write_all(
            serde_json::to_string_pretty(&perf)
                .expect("serialise perf")
                .as_bytes(),
        )
        .expect("write perf json output");
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.trace_out {
        eprintln!("trace written to {path} (load in chrome://tracing or https://ui.perfetto.dev)");
    }
    if let Some(path) = &args.profile_out {
        eprintln!("profile written to {path} (flamegraph-collapsed stacks; feed to inferno)");
    }
    if let Some(path) = &args.journal {
        let ledger = Journal::new(path).provenance_path();
        eprintln!(
            "provenance ledger written to {} (query with dcltrace)",
            ledger.display()
        );
    }
}
