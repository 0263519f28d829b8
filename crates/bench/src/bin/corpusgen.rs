//! Dumps a synthetic corpus to disk so the `analyze` tool (or any
//! external consumer) can work with standalone `.apk` files.
//!
//! ```text
//! corpusgen <out-dir> [--scale F] [--seed N]
//! ```
//!
//! Layout:
//!
//! ```text
//! <out-dir>/apks/<package>.apk        installable archives
//! <out-dir>/fixtures/<n>.bin          remote payload / planted-file bytes
//! <out-dir>/fixtures.json             per-app environment fixtures
//! <out-dir>/truth.json                ground-truth plans (for evaluation)
//! ```

use std::fs;
use std::path::PathBuf;

use dydroid_bench::ArgParser;
use dydroid_workload::{generate, CorpusSpec};

const USAGE: &str = "corpusgen <out-dir> [--scale F] [--seed N]";

fn main() {
    let mut args = ArgParser::new(USAGE);
    let out_dir = match args.next() {
        Some(flag) if flag.starts_with('-') => args.fail("the first argument is <out-dir>"),
        Some(dir) => PathBuf::from(dir),
        None => args.fail("missing <out-dir>"),
    };
    let mut scale = 0.01f64;
    let mut seed = CorpusSpec::default().seed;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = args.scale("--scale"),
            "--seed" => seed = args.value("--seed", "an integer"),
            other => args.fail(&format!("unknown argument {other:?}")),
        }
    }

    let corpus = generate(&CorpusSpec { scale, seed });
    let apk_dir = out_dir.join("apks");
    let fix_dir = out_dir.join("fixtures");
    fs::create_dir_all(&apk_dir).expect("create apks dir");
    fs::create_dir_all(&fix_dir).expect("create fixtures dir");

    let mut fixtures = Vec::new();
    let mut truth = Vec::new();
    let mut blob_counter = 0usize;
    for app in &corpus {
        let apk_path = apk_dir.join(format!("{}.apk", app.package()));
        fs::write(&apk_path, &app.apk).expect("write apk");

        let mut remote = Vec::new();
        for (domain, path, bytes) in &app.remote_resources {
            let blob = format!("{blob_counter}.bin");
            blob_counter += 1;
            fs::write(fix_dir.join(&blob), bytes).expect("write fixture blob");
            remote.push(serde_json::json!({
                "domain": domain,
                "path": path,
                "file": format!("fixtures/{blob}"),
            }));
        }
        let mut device_files = Vec::new();
        for (path, owner, bytes) in &app.device_files {
            let blob = format!("{blob_counter}.bin");
            blob_counter += 1;
            fs::write(fix_dir.join(&blob), bytes).expect("write fixture blob");
            device_files.push(serde_json::json!({
                "path": path,
                "owner": owner,
                "file": format!("fixtures/{blob}"),
            }));
        }
        if !remote.is_empty() || !device_files.is_empty() {
            fixtures.push(serde_json::json!({
                "package": app.package(),
                "remote": remote,
                "device_files": device_files,
            }));
        }
        truth.push(serde_json::to_value(&app.plan).expect("plan serialises"));
    }

    fs::write(
        out_dir.join("fixtures.json"),
        serde_json::to_string_pretty(&fixtures).expect("serialise"),
    )
    .expect("write fixtures.json");
    fs::write(
        out_dir.join("truth.json"),
        serde_json::to_string_pretty(&truth).expect("serialise"),
    )
    .expect("write truth.json");

    println!(
        "wrote {} apks, {} fixture entries to {}",
        corpus.len(),
        fixtures.len(),
        out_dir.display()
    );
}
