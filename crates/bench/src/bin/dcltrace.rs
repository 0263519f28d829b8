//! Queries the DCL provenance ledger written beside a sweep journal
//! (`<journal>.provenance.jsonl`).
//!
//! ```text
//! dcltrace --ledger PATH summary
//! dcltrace --ledger PATH chain <package> [<path>]
//! dcltrace --ledger PATH diff [<package>]
//! dcltrace --ledger PATH export --dot [--app PKG] [--out PATH]
//! dcltrace --ledger PATH check --journal PATH
//! dcltrace profile <journal> [--out PATH]
//! dcltrace top <journal> [--interval-ms N] [--iterations N]
//! ```
//!
//! `summary` prints one line per ledgered app; `chain` reconstructs the
//! causal URL → stream → file → load chain for a loaded path (all loaded
//! paths when none is given); `diff` lists the loads whose presence
//! differs across the four Table VIII environment configurations — the
//! logic-bomb signal; `export --dot` emits Graphviz DOT (one app, or the
//! whole corpus as clustered subgraphs); `check` verifies frame
//! integrity (CRC32 checksums and contiguous sequence numbers) across
//! the journal, the ledger and, while a run is live or was killed, its
//! event log, plus ledger↔journal agreement on the analysed app set,
//! printing per-stream intact/dropped counts and exiting non-zero on any
//! corruption or disagreement (the CI smoke gate).
//!
//! Two observatory commands work straight off a journal, no ledger
//! needed. The `<journal>.events.jsonl` event log exists only while a
//! run is live or after one was killed: finalize removes it. `profile`
//! replays the log into the span-derived self-time profile and prints
//! it as flamegraph-collapsed stack lines; with no span in a log, it
//! prints the `<journal>.profile.folded` artifact, to which every
//! finalize appends its session's stacks. `top` is a live
//! plain-terminal monitor that tails the log — span, warning and
//! metrics-snapshot lines, torn tails and all, a running sweep's tail
//! is torn by definition — and repaints apps/sec, worker utilization,
//! per-phase latency quantiles, straggler alerts and the virtual-clock
//! ETA until the sweep completes. With no log beside a journal that
//! holds frames, the sweep has finished: `top` counts the journal's
//! intact frames as done, prints `sweep complete` and exits.

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::ops::ControlFlow;

use dydroid::durable::read_frames;
use dydroid::obs::{Histogram, MetricsSnapshot, SpanRecord};
use dydroid::provenance::{check_against_journal, corpus_dot};
use dydroid::{AppProvenance, Journal, ProvenanceLedger, SpanProfile};
use dydroid_bench::{EXIT_CODE_HELP, EXIT_FINDING, EXIT_USAGE};
use serde::Deserialize as _;

const USAGE: &str = "dcltrace --ledger PATH <summary | chain <pkg> [<path>] | diff [<pkg>] | \
export --dot [--app PKG] [--out PATH] | check --journal PATH> | \
dcltrace profile <journal> [--out PATH] | \
dcltrace top <journal> [--interval-ms N] [--iterations N]";

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {USAGE}");
    eprintln!("{EXIT_CODE_HELP}");
    std::process::exit(EXIT_USAGE);
}

fn load_ledger(path: &str, allow_empty: bool) -> Vec<AppProvenance> {
    let ledger = ProvenanceLedger::new(path);
    match ledger.load() {
        Ok(records) if records.is_empty() && !allow_empty => {
            eprintln!("ledger {path} holds no records");
            std::process::exit(EXIT_FINDING);
        }
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: cannot read ledger {path}: {e}");
            std::process::exit(EXIT_FINDING);
        }
    }
}

fn find_app<'l>(records: &'l [AppProvenance], pkg: &str) -> &'l AppProvenance {
    records
        .iter()
        .find(|p| p.package == pkg)
        .unwrap_or_else(|| {
            eprintln!(
                "error: package {pkg} not in ledger ({} apps)",
                records.len()
            );
            std::process::exit(EXIT_FINDING);
        })
}

fn cmd_summary(records: &[AppProvenance]) {
    println!(
        "{} apps in ledger ({} degraded)",
        records.len(),
        records.iter().filter(|p| p.degraded).count()
    );
    for p in records {
        let loads = p.loaded_paths();
        let remote = loads.iter().filter(|l| p.is_remote_chain(l)).count();
        println!(
            "{}  verdict={}  nodes={}  edges={}  loads={}  remote={}  env-divergent={}{}",
            p.package,
            p.verdict,
            p.nodes.len(),
            p.edges.len(),
            loads.len(),
            remote,
            p.env_diff().len(),
            if p.degraded { "  [degraded]" } else { "" },
        );
    }
}

fn cmd_chain(records: &[AppProvenance], pkg: &str, path: Option<&str>) {
    let app = find_app(records, pkg);
    let paths = match path {
        Some(p) => vec![p.to_string()],
        None => app.loaded_paths(),
    };
    if paths.is_empty() {
        println!("{pkg}: no dynamically loaded files");
        return;
    }
    for p in &paths {
        match app.render_chain(p) {
            Some(chain) => {
                let origin = if app.is_remote_chain(p) {
                    "remote"
                } else {
                    "local"
                };
                println!("{pkg} {p} [{origin} origin]");
                print!("{chain}");
            }
            None => println!("{pkg} {p}: not in provenance graph"),
        }
    }
}

fn cmd_diff(records: &[AppProvenance], pkg: Option<&str>) {
    let subset: Vec<&AppProvenance> = match pkg {
        Some(pkg) => vec![find_app(records, pkg)],
        None => records.iter().collect(),
    };
    let mut total = 0usize;
    for app in subset {
        for d in app.env_diff() {
            total += 1;
            println!(
                "{} {}  loaded under [{}]  missing under [{}]",
                app.package,
                d.path,
                d.loaded_under.join(", "),
                d.missing_under.join(", ")
            );
        }
    }
    println!("{total} environment-divergent load(s)");
}

fn cmd_export(records: &[AppProvenance], app: Option<&str>, out: Option<&str>) {
    let dot = match app {
        Some(pkg) => find_app(records, pkg).to_dot(),
        None => corpus_dot(records),
    };
    match out {
        Some(path) => {
            std::fs::write(path, &dot).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(EXIT_FINDING);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{dot}"),
    }
}

/// Frame-verifies one stream file: checksums and sequence continuity.
/// Returns the number of corrupt/dropped frames (0 for a missing file,
/// which only `required` streams report as a defect).
fn check_stream(name: &str, path: &std::path::Path, required: bool) -> usize {
    match read_frames(path, |_, _| ControlFlow::Continue(())) {
        Ok(Some(scan)) => {
            let intact = scan.end.next_seq;
            match &scan.defect {
                Some(defect) => println!(
                    "{name}: {intact} intact frame(s), {} dropped ({defect})",
                    scan.dropped
                ),
                None => println!("{name}: {intact} intact frame(s), 0 dropped"),
            }
            scan.dropped
        }
        Ok(None) => {
            if required {
                println!("{name}: missing ({})", path.display());
                1
            } else {
                println!("{name}: not present (skipped)");
                0
            }
        }
        Err(e) => {
            println!("{name}: unreadable ({e})");
            1
        }
    }
}

fn cmd_check(records: &[AppProvenance], ledger_path: &str, journal_path: &str) {
    let journal = Journal::new(journal_path);
    let loaded = journal.load().unwrap_or_else(|e| {
        eprintln!("error: cannot read journal {journal_path}: {e}");
        std::process::exit(EXIT_FINDING);
    });
    // Layer 1: frame integrity — CRC32 checksums and contiguous sequence
    // numbers across the journal, the ledger and any event log.
    let mut dropped = 0usize;
    dropped += check_stream("journal", std::path::Path::new(journal_path), true);
    dropped += check_stream("ledger", std::path::Path::new(ledger_path), true);
    dropped += check_stream("events", &journal.events_path(), false);
    // Layer 2: cross-stream agreement on the analysed app set.
    let agree = check_against_journal(records, &loaded);
    match &agree {
        Ok(()) => println!("ok: ledger and journal agree on {} app(s)", loaded.len()),
        Err(msg) => eprintln!("check failed: {msg}"),
    }
    if dropped > 0 {
        eprintln!("check failed: {dropped} corrupt or dropped frame(s) across streams");
    }
    if dropped > 0 || agree.is_err() {
        std::process::exit(EXIT_FINDING);
    }
}

fn cmd_profile(journal_path: &str, out: Option<&str>) {
    let journal = Journal::new(journal_path);
    let profile = SpanProfile::from_event_stream(&journal.events_path()).unwrap_or_else(|e| {
        eprintln!("error: cannot replay event streams of {journal_path}: {e}");
        std::process::exit(EXIT_FINDING);
    });
    let folded = if profile.span_count() == 0 {
        // Finalize removes the log and appends each session's stacks to
        // the artifact.
        std::fs::read_to_string(journal.profile_path()).unwrap_or_else(|_| {
            eprintln!(
                "error: no span events in {} and no profile artifact at {}",
                journal.events_path().display(),
                journal.profile_path().display()
            );
            std::process::exit(EXIT_FINDING);
        })
    } else {
        profile.folded()
    };
    match out {
        Some(path) => {
            std::fs::write(path, &folded).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(EXIT_FINDING);
            });
            eprintln!("wrote {path}");
        }
        None => print!("{folded}"),
    }
}

/// One repaint's worth of observatory state, read fresh from the
/// streams each frame. Torn tails are expected (the sweep is mid-write)
/// and tolerated: `read_frames` yields the intact prefix.
#[derive(Default)]
struct TopFrame {
    /// Distinct apps with a checkpoint event (survives resume stitching,
    /// where an app may appear in more than one stream generation), or
    /// the journal's intact frames once the log is gone.
    done: usize,
    /// Gauges and counters from the newest metrics snapshot line, 0 when
    /// the log holds none; with no log, `total` is the journal's frames.
    total: u64,
    workers: u64,
    busy_us: u64,
    makespan_us: u64,
    stalls: u64,
    snapshots: usize,
    /// Virtual clock at the newest snapshot.
    virtual_us: u64,
    /// Span durations per phase name, for latency quantiles (the
    /// log-linear buckets of the pipeline's `span.<name>.us`).
    phase_us: HashMap<String, Histogram>,
    /// Straggler warning apps, oldest first.
    straggler_apps: Vec<String>,
}

fn read_top_frame(journal: &Journal) -> TopFrame {
    let mut frame = TopFrame::default();
    let mut done: HashSet<String> = HashSet::new();
    let mut newest: Option<serde::Value> = None;
    // A read error keeps what was read before it.
    let log = read_frames(&journal.events_path(), |_, body| {
        let Ok(value) = serde_json::from_str::<serde::Value>(body) else {
            return ControlFlow::Continue(());
        };
        match value.get("type").and_then(|t| t.as_str()) {
            Some("checkpoint") => {
                if let Some(app) = value.get("app").and_then(|a| a.as_str()) {
                    done.insert(app.to_string());
                }
            }
            Some("metrics") => {
                frame.snapshots += 1;
                newest = Some(value);
            }
            Some("span") => {
                if let Ok(span) = SpanRecord::from_json(&value) {
                    frame
                        .phase_us
                        .entry(span.name)
                        .or_default()
                        .record(span.dur_us);
                }
            }
            Some("warn") if value.get("kind").and_then(|k| k.as_str()) == Some("straggler") => {
                if let Some(app) = value.get("app").and_then(|a| a.as_str()) {
                    frame.straggler_apps.push(app.to_string());
                }
            }
            _ => {}
        }
        ControlFlow::Continue(())
    });
    if let Ok(None) = log {
        // No log: the sweep has finished (finalize removed it) or has not
        // begun, and the journal's intact frames are its done apps.
        let frames = read_frames(journal.path(), |_, _| ControlFlow::Continue(()));
        frame.done = frames
            .ok()
            .flatten()
            .map_or(0, |scan| scan.end.next_seq as usize);
        frame.total = frame.done as u64;
        return frame;
    }
    frame.done = done.len();
    let newest = newest.and_then(|value| {
        let virtual_us = value
            .get("virtual_us")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let snap = MetricsSnapshot::from_json(value.get("snapshot")?).ok()?;
        Some((virtual_us, snap))
    });
    if let Some((virtual_us, snap)) = newest {
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        frame.virtual_us = virtual_us;
        frame.total = gauge("sweep.total_apps");
        frame.workers = gauge("sweep.workers");
        frame.busy_us = gauge("sweep.busy_us");
        frame.makespan_us = gauge("sweep.virtual_makespan_us");
        frame.stalls = snap.counter("watchdog.stragglers");
    }
    frame
}

fn render_top(
    journal_path: &str,
    frame_no: u64,
    frame: &TopFrame,
    prev: Option<&(TopFrame, std::time::Instant)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "dcltrace top — {journal_path} · frame {frame_no}");
    // Wall-clock throughput from the inter-frame checkpoint delta; the
    // first frame has no baseline.
    let rate = prev.and_then(|(p, t)| {
        let secs = t.elapsed().as_secs_f64();
        (secs > 0.0).then(|| (frame.done.saturating_sub(p.done)) as f64 / secs)
    });
    let mut apps_line = match frame.total {
        0 => format!("  apps: {} done", frame.done),
        total => format!(
            "  apps: {}/{total} done ({:.1}%)",
            frame.done,
            frame.done as f64 * 100.0 / total as f64
        ),
    };
    if frame.workers > 0 {
        let _ = write!(apps_line, " · {} worker(s)", frame.workers);
    }
    match rate {
        Some(rate) if rate > 0.0 => {
            let _ = write!(apps_line, " · {rate:.1} apps/s");
            let remaining = frame.total.saturating_sub(frame.done as u64);
            if frame.total > 0 {
                let _ = write!(apps_line, " · ETA {:.1}s", remaining as f64 / rate);
            }
        }
        Some(_) => apps_line.push_str(" · stalled (no progress since last frame)"),
        None => {}
    }
    let _ = writeln!(out, "{apps_line}");
    if frame.snapshots > 0 {
        let util = if frame.workers > 0 && frame.makespan_us > 0 {
            (frame.busy_us as f64 / (frame.workers * frame.makespan_us) as f64 * 100.0).min(100.0)
        } else {
            0.0
        };
        // The deterministic ETA: remaining apps at the observed
        // per-app share of the parallel virtual makespan.
        let virtual_eta_us = if frame.done > 0 {
            frame.total.saturating_sub(frame.done as u64) as f64 * frame.makespan_us as f64
                / frame.done as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  virtual: {:.1} ms makespan · {util:.0}% worker utilization · \
             ETA ≈ {:.1} virtual ms · {} snapshot(s)",
            frame.makespan_us as f64 / 1000.0,
            virtual_eta_us / 1000.0,
            frame.snapshots,
        );
    }
    if frame.stalls > 0 || !frame.straggler_apps.is_empty() {
        let recent: Vec<&str> = frame
            .straggler_apps
            .iter()
            .rev()
            .take(3)
            .map(String::as_str)
            .collect();
        let _ = writeln!(
            out,
            "  stalls: {} straggler(s) flagged{}{}",
            frame.stalls.max(frame.straggler_apps.len() as u64),
            if recent.is_empty() { "" } else { " — " },
            recent.join(", "),
        );
    }
    if !frame.phase_us.is_empty() {
        let mut phases: Vec<(&String, &Histogram)> = frame.phase_us.iter().collect();
        phases.sort_by_key(|(name, h)| (std::cmp::Reverse(h.sum()), *name));
        let width = phases
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let _ = writeln!(
            out,
            "  {:<width$}  {:>7}  {:>10}  {:>10}  {:>10}",
            "phase", "count", "p50 µs", "p95 µs", "p99 µs"
        );
        for (name, h) in phases.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>7}  {:>10}  {:>10}  {:>10}",
                name,
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
    }
    out
}

fn cmd_top(journal_path: &str, interval_ms: u64, iterations: u64) {
    let journal = Journal::new(journal_path);
    let mut prev: Option<(TopFrame, std::time::Instant)> = None;
    let mut frame_no = 0u64;
    loop {
        frame_no += 1;
        let frame = read_top_frame(&journal);
        let mut stdout = std::io::stdout().lock();
        if frame_no > 1 {
            // Repaint in place: home the cursor and clear to end.
            let _ = write!(stdout, "\x1b[H\x1b[J");
        }
        let complete = frame.total > 0 && frame.done as u64 >= frame.total;
        let _ = write!(
            stdout,
            "{}",
            render_top(journal_path, frame_no, &frame, prev.as_ref())
        );
        if complete {
            let _ = writeln!(stdout, "sweep complete");
        }
        let _ = stdout.flush();
        drop(stdout);
        prev = Some((frame, std::time::Instant::now()));
        if complete || (iterations > 0 && frame_no >= iterations) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter().map(String::as_str);
    let mut ledger_path: Option<&str> = None;
    let mut command: Option<&str> = None;
    let mut operands: Vec<&str> = Vec::new();
    let mut dot = false;
    let mut app: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut journal: Option<&str> = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations: u64 = 0;
    while let Some(arg) = it.next() {
        match arg {
            "--ledger" => {
                ledger_path = Some(it.next().unwrap_or_else(|| usage("--ledger needs a path")))
            }
            "--dot" => dot = true,
            "--app" => app = Some(it.next().unwrap_or_else(|| usage("--app needs a package"))),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--journal" => {
                journal = Some(it.next().unwrap_or_else(|| usage("--journal needs a path")));
            }
            "--interval-ms" => {
                interval_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--interval-ms needs an integer"));
            }
            "--iterations" => {
                iterations = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--iterations needs an integer (0 = until done)"));
            }
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                println!("{EXIT_CODE_HELP}");
                std::process::exit(0);
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other:?}")),
            other if command.is_none() => command = Some(other),
            other => operands.push(other),
        }
    }
    // The observatory commands work straight off a journal; only the
    // ledger-query commands need --ledger.
    if let Some(cmd @ ("profile" | "top")) = command {
        let journal_path = operands
            .first()
            .copied()
            .or(journal)
            .unwrap_or_else(|| usage(&format!("{cmd} needs a journal path")));
        if operands.len() > 1 {
            usage(&format!("{cmd} takes one journal path"));
        }
        match cmd {
            "profile" => cmd_profile(journal_path, out),
            _ => cmd_top(journal_path, interval_ms, iterations),
        }
        return;
    }
    let ledger_path = ledger_path.unwrap_or_else(|| usage("--ledger PATH is required"));
    // `check` must still verify a first run interrupted before its first
    // ledger frame, whose ledger is legitimately empty.
    let records = load_ledger(ledger_path, command == Some("check"));
    match command {
        Some("summary") => cmd_summary(&records),
        Some("chain") => match operands.as_slice() {
            [pkg] => cmd_chain(&records, pkg, None),
            [pkg, path] => cmd_chain(&records, pkg, Some(path)),
            _ => usage("chain takes <package> [<path>]"),
        },
        Some("diff") => match operands.as_slice() {
            [] => cmd_diff(&records, None),
            [pkg] => cmd_diff(&records, Some(pkg)),
            _ => usage("diff takes at most one <package>"),
        },
        Some("export") => {
            if !dot {
                usage("export currently requires --dot");
            }
            cmd_export(&records, app, out);
        }
        Some("check") => {
            let journal = journal.unwrap_or_else(|| usage("check needs --journal PATH"));
            cmd_check(&records, ledger_path, journal);
        }
        Some(other) => usage(&format!("unknown command {other:?}")),
        None => usage("a command is required"),
    }
}
