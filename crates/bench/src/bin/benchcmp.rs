//! `benchcmp` — noise-aware diff of two unified measurement records.
//!
//! ```text
//! benchcmp OLD.json NEW.json
//! ```
//!
//! A delta only counts when it clears `max(floor · old_median,
//! k · pooled_stddev)`; which metrics can *gate* — turn the exit code
//! to 1 — is chosen with `--gate` and defaults to machine-independent
//! virtual metrics, so a committed baseline from one host can gate CI
//! runs on another. Exit codes follow the shared convention (also used
//! by `dcltrace check`): 0 clean, 1 finding, 2 usage error.

use std::process::ExitCode;

use dydroid_bench::{compare, ArgParser, CompareConfig, Gate, Measurement, Metric, EXIT_CODE_HELP};

const USAGE: &str = "benchcmp OLD.json NEW.json \
[--floor FRACTION] [--k F] [--gate virtual|all|none] [--plant FRACTION]
  OLD.json           baseline record
  NEW.json           fresh record to judge
  --floor FRACTION   relative floor below which deltas never count (default 0.05)
  --k F              noise multiplier on the pooled stddev (default 3)
  --gate MODE        which regressions exit 1: virtual (default), all, none
  --plant FRACTION   adversarially shift every NEW metric by this fraction
                     before comparing (demo/test hook for the gating path)";

fn load_record(path: &str, parser: &ArgParser) -> Measurement {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => parser.fail(&format!("cannot read {path}: {e}")),
    };
    match Measurement::parse(&text) {
        Ok(record) => record,
        Err(e) => parser.fail(&format!("{path}: {e}")),
    }
}

/// Shifts every metric the *bad* way by `fraction`: Lower/Steady
/// metrics up, Higher metrics down. Used to demonstrate and test the
/// gating path without editing a record by hand.
fn plant(record: &mut Measurement, fraction: f64) {
    use dydroid_bench::Direction;
    for m in &mut record.metrics {
        let factor = match m.direction {
            Direction::Higher => 1.0 / (1.0 + fraction),
            Direction::Lower | Direction::Steady => 1.0 + fraction,
        };
        let samples: Vec<f64> = m.samples.iter().map(|x| x * factor).collect();
        *m = Metric::new(&m.name, &m.unit, m.direction, m.virtual_metric, samples);
    }
}

fn main() -> ExitCode {
    let mut parser = ArgParser::new(USAGE);
    let mut paths: Vec<String> = Vec::new();
    let mut cfg = CompareConfig::default();
    let mut planted: Option<f64> = None;

    while let Some(arg) = parser.next() {
        match arg.as_str() {
            "--floor" => cfg.floor = parser.value("--floor", "a fraction (e.g. 0.05)"),
            "--k" => cfg.k = parser.value("--k", "a float"),
            "--gate" => {
                cfg.gate = match parser.raw("--gate").as_str() {
                    "virtual" => Gate::Virtual,
                    "all" => Gate::All,
                    "none" => Gate::None,
                    other => parser.fail(&format!("--gate must be virtual|all|none, got {other}")),
                }
            }
            "--plant" => planted = Some(parser.value("--plant", "a fraction (e.g. 0.20)")),
            "--help" | "-h" => parser.help(),
            flag if flag.starts_with("--") => parser.fail(&format!("unknown flag {flag}")),
            path => paths.push(path.to_string()),
        }
    }

    let (old, mut new) = match paths.as_slice() {
        [old_path, new_path] => (
            load_record(old_path, &parser),
            load_record(new_path, &parser),
        ),
        _ => parser.fail("expected OLD.json NEW.json"),
    };

    if let Some(fraction) = planted {
        eprintln!(
            "benchcmp: planting a {:.1}% adverse shift into the new record",
            fraction * 100.0
        );
        plant(&mut new, fraction);
    }

    let cmp = match compare(&old, &new, &cfg) {
        Ok(cmp) => cmp,
        Err(e) => parser.fail(&e),
    };
    print!("{}", dydroid_bench::compare::render(&old, &new, &cmp));

    let gated = cmp.gated_regressions();
    if gated > 0 {
        eprintln!("benchcmp: FAIL — {gated} gated regression(s)");
        eprintln!("{EXIT_CODE_HELP}");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
