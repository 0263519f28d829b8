//! Bad command lines to `tables`, `corpusgen` and the bench binaries are
//! usage errors: exit code 2, nothing on stdout, and no corpus generated
//! or written.
//! Past its command line, a `tables` run fails when an output cannot be
//! written, and its telemetry flags only ever add output.

use std::path::PathBuf;
use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    assert!(
        !stderr.contains("generating corpus"),
        "{bin} {args:?} generated a corpus"
    );
}

#[test]
fn tables_rejects_bad_scale_and_table_numbers() {
    let tables = env!("CARGO_BIN_EXE_tables");
    for scale in ["-1", "nan", "0", "inf", "abc"] {
        assert_usage_error(tables, &["--scale", scale]);
    }
    for table in ["1", "11"] {
        assert_usage_error(tables, &["--table", table, "--scale", "0.001"]);
    }
    // The provenance ledger sits beside the journal and nowhere else.
    let ledger: PathBuf = std::env::temp_dir().join(format!(
        "dydroid_provenance_out_{}.jsonl",
        std::process::id()
    ));
    let ledger_arg = ledger.to_str().expect("utf-8 temp path");
    assert_usage_error(
        tables,
        &["--provenance-out", ledger_arg, "--scale", "0.001"],
    );
    assert!(!ledger.exists(), "a rejected command line wrote {ledger:?}");
}

#[test]
fn corpusgen_rejects_bad_scale_and_seed() {
    let corpusgen = env!("CARGO_BIN_EXE_corpusgen");
    let dir: PathBuf =
        std::env::temp_dir().join(format!("dydroid_corpusgen_args_{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    for scale in ["abc", "-1", "nan", "0"] {
        assert_usage_error(corpusgen, &[dir_arg, "--scale", scale]);
    }
    assert_usage_error(corpusgen, &[dir_arg, "--seed", "xyz"]);
    assert_usage_error(corpusgen, &["--scale", "0.01"]);
    assert!(!dir.exists(), "a rejected command line wrote {dir:?}");
}

/// A bench reads only the gates it names; a `--min-*` flag it does not
/// know is a typo or a retired gate, never a silent no-op.
#[test]
fn benches_reject_gates_they_do_not_read() {
    assert_usage_error(env!("CARGO_BIN_EXE_detectbench"), &["--min-bogus", "1"]);
    assert_usage_error(env!("CARGO_BIN_EXE_avmbench"), &["--min-speedup", "3"]);
}

/// A scratch directory for one test's output files, fresh per run.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dydroid_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_arg(path: &std::path::Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// An output `tables` cannot write fails the run: `error: cannot write
/// PATH`, exit 1, and no line claiming a file was written.
#[test]
fn tables_fails_when_an_output_cannot_be_written() {
    let tables = env!("CARGO_BIN_EXE_tables");
    let dir = scratch_dir("unwritable");
    let missing = dir.join("no_such_dir");
    let (json, perf, trace, profile) = (
        missing.join("a.json"),
        missing.join("perf.json"),
        missing.join("x.trace.json"),
        missing.join("p.folded"),
    );
    // A journal whose parent is a regular file can be neither reset nor
    // created.
    let file = dir.join("a_file");
    std::fs::write(&file, b"").expect("write a regular file");
    let journal = file.join("j.jsonl");
    let cases: [&[(&str, &std::path::Path)]; 6] = [
        &[("--json", &json)],
        &[("--perf-json", &perf)],
        &[("--trace-out", &trace)],
        &[("--profile-out", &profile)],
        &[("--trace-out", &trace), ("--profile-out", &profile)],
        &[("--journal", &journal)],
    ];
    for case in cases {
        let mut args = vec!["--scale", "0.01", "--seed", "1", "--table", "2"];
        for (flag, path) in case {
            args.extend([*flag, path_arg(path)]);
        }
        let out = Command::new(tables).args(&args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        let first = path_arg(case[0].1);
        assert!(
            stderr.contains(&format!("error: cannot write {first}: ")),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("wrote ") && !stderr.contains("written to"),
            "{args:?} claimed a write: {stderr}"
        );
    }
    assert!(!missing.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace-out`, `--profile-out` and `--progress` only add output: the
/// tables and the report JSON are the same bytes with and without them,
/// the trace parses, the profile is folded lines, and the progress lines
/// end on the sweep's `N/N`.
#[test]
fn telemetry_flags_only_add_output() {
    let tables = env!("CARGO_BIN_EXE_tables");
    let dir = scratch_dir("telemetry_flags");
    let (plain_json, traced_json, trace, profile) = (
        dir.join("plain.json"),
        dir.join("traced.json"),
        dir.join("sweep.trace.json"),
        dir.join("profile.folded"),
    );
    let base = ["--scale", "0.02", "--seed", "3", "--table", "2", "--json"];
    let plain = Command::new(tables)
        .args(base)
        .arg(&plain_json)
        .output()
        .expect("spawn plain run");
    let traced = Command::new(tables)
        .args(base)
        .arg(&traced_json)
        .args(["--trace-out", path_arg(&trace)])
        .args(["--profile-out", path_arg(&profile)])
        .arg("--progress")
        .output()
        .expect("spawn traced run");
    assert!(plain.status.success() && traced.status.success());
    assert!(!plain.stdout.is_empty());
    assert_eq!(plain.stdout, traced.stdout, "stdout moved");
    assert_eq!(
        std::fs::read(&plain_json).expect("plain report"),
        std::fs::read(&traced_json).expect("traced report"),
        "report JSON moved"
    );

    let text = std::fs::read_to_string(&trace).expect("trace written");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    assert!(
        doc.get("traceEvents")
            .and_then(|e| e.as_array())
            .is_some_and(|a| !a.is_empty()),
        "trace has no events"
    );
    let folded = std::fs::read_to_string(&profile).expect("profile written");
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, self_us) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!stack.is_empty());
        self_us.parse::<u64>().expect("self-time is integral µs");
    }

    let stderr = String::from_utf8_lossy(&traced.stderr);
    let counts: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("dydroid: sweep "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert!((1..=11).contains(&counts.len()), "{stderr}");
    let last = counts.last().expect("a progress line");
    let (done, total) = last.split_once('/').expect("N/N");
    assert_eq!(done, total, "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
