//! Bad command lines to `tables` and `corpusgen` are usage errors: exit
//! code 2, nothing on stdout, and no corpus generated or written.

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
