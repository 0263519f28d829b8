//! Shared command-line parsing for the bench binaries.
//!
//! [`ArgParser`] + [`CommonArgs`] give every bench binary one shared
//! flag vocabulary (`--scale/--seed/--out` and sampling), one
//! usage/exit-code convention (see [`EXIT_CLEAN`], [`EXIT_FINDING`],
//! [`EXIT_USAGE`]) and one `--help` shape. Bench-specific flags,
//! including a bench's own gate (`sweepbench --min-scaling`), stay in
//! the binary's own `match` arm, parsed through the same
//! [`ArgParser::value`] helper; an unknown flag is a usage error.

use std::str::FromStr;

/// Exit code: the run completed and found nothing to report.
pub const EXIT_CLEAN: i32 = 0;
/// Exit code: the run completed and found something — a gated
/// regression, a failed identity check, corrupt frames. Shared with
/// `dcltrace check`.
pub const EXIT_FINDING: i32 = 1;
/// Exit code: the command line itself was invalid.
pub const EXIT_USAGE: i32 = 2;

/// The exit-code convention, appended to every binary's `--help`.
pub const EXIT_CODE_HELP: &str = "exit codes: 0 clean · 1 finding (gated regression, failed \
identity or integrity check) · 2 usage error";

/// Parses a corpus scale: a finite float above zero. Anything else
/// would silently generate the minimum corpus.
pub fn parse_scale(v: &str) -> Option<f64> {
    v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0)
}

/// Iterates the process arguments with typed flag-value helpers and the
/// shared usage/exit-code convention.
pub struct ArgParser {
    args: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl ArgParser {
    /// Parser over `std::env::args` (program name skipped).
    pub fn new(usage: &'static str) -> ArgParser {
        ArgParser {
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
            usage,
        }
    }

    /// Next raw argument, if any.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`, parsed as `T`; exits with
    /// [`EXIT_USAGE`] when missing or malformed.
    pub fn value<T: FromStr>(&mut self, flag: &str, what: &str) -> T {
        self.args
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| self.fail(&format!("{flag} needs {what}")))
    }

    /// The corpus scale following `flag` (see [`parse_scale`]); exits
    /// with [`EXIT_USAGE`] when missing or out of range.
    pub fn scale(&mut self, flag: &str) -> f64 {
        match self.args.next().as_deref().and_then(parse_scale) {
            Some(scale) => scale,
            None => self.fail(&format!("{flag} needs a positive float")),
        }
    }

    /// The raw string following `flag`; exits with [`EXIT_USAGE`] when
    /// missing.
    pub fn raw(&mut self, flag: &str) -> String {
        match self.args.next() {
            Some(v) => v,
            None => self.fail(&format!("{flag} needs a value")),
        }
    }

    /// Prints the usage error and exits with [`EXIT_USAGE`].
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!("usage: {}", self.usage);
        eprintln!("{EXIT_CODE_HELP}");
        std::process::exit(EXIT_USAGE);
    }

    /// Prints usage plus the exit-code convention and exits clean
    /// (the `--help` path).
    pub fn help(&self) -> ! {
        println!("usage: {}", self.usage);
        println!("{EXIT_CODE_HELP}");
        std::process::exit(EXIT_CLEAN);
    }
}

/// The flags every bench binary shares.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Corpus scale (`--scale`).
    pub scale: f64,
    /// Deterministic seed (`--seed`).
    pub seed: u64,
    /// Unified-record output path (`--out`).
    pub out: String,
    /// Recorded sample rounds (`--samples`).
    pub samples: usize,
    /// Unrecorded warmup rounds (`--warmup`).
    pub warmup: usize,
}

impl CommonArgs {
    /// Defaults for one bench: its record path and sampling shape.
    pub fn for_bench(out: &str, samples: usize, warmup: usize) -> CommonArgs {
        CommonArgs {
            scale: 0.01,
            seed: dydroid_workload::CorpusSpec::default().seed,
            out: out.to_string(),
            samples,
            warmup,
        }
    }

    /// Consumes `arg` if it is a shared flag; returns `false` so the
    /// caller can try its bench-specific flags.
    pub fn accept(&mut self, arg: &str, p: &mut ArgParser) -> bool {
        match arg {
            "--scale" => self.scale = p.scale("--scale"),
            "--seed" => self.seed = p.value("--seed", "an integer"),
            "--out" => self.out = p.raw("--out"),
            "--samples" => {
                self.samples = p.value("--samples", "an integer >= 1");
                if self.samples == 0 {
                    p.fail("--samples needs an integer >= 1");
                }
            }
            "--warmup" => self.warmup = p.value("--warmup", "an integer"),
            "--help" | "-h" => p.help(),
            _ => return false,
        }
        true
    }
}
