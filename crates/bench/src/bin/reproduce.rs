//! Regenerates the paper's evaluation and the experiments that extend it:
//! every table and figure, one Markdown file each, under `results/`.
//!
//! ```text
//! reproduce [--only NAME,...] [--out DIR] [--budget SECS]
//! ```
//!
//! - `--only`: the artifacts to run (default: all; `--help` lists them).
//! - `--out`: the results directory (default `results`).
//! - `--budget`: seconds per ILP / exhaustive solve (default 3, the
//!   committed results' budget).
//!
//! Everything is measured afresh on every run. `tests/reproduce.rs` checks
//! the committed files against the code.

use hermes_bench::eval::{self, Artifact, ARTIFACTS};
use hermes_bench::{Ctx, DEFAULT_BUDGET};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: reproduce [--only NAME,...] [--out DIR] [--budget SECS]";

struct Args {
    only: Vec<&'static Artifact>,
    out: PathBuf,
    budget: Duration,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        only: ARTIFACTS.iter().collect(),
        out: PathBuf::from("results"),
        budget: DEFAULT_BUDGET,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--only" => {
                parsed.only = value()?.split(',').map(eval::artifact).collect::<Result<_, _>>()?
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            "--budget" => {
                let secs = value()?;
                parsed.budget = secs
                    .parse::<f64>()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or(format!("--budget {secs}: not a number of seconds"))?;
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// The CPU and its threads, for the footnote under host-dependent cells.
/// The code that measured them is the commit that last wrote the file.
fn provenance() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_owned());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{cpu} ({threads} threads), by the commit that last wrote this file")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\n\nartifacts:");
        for a in ARTIFACTS {
            println!("  {:<16} {}", a.name, a.about);
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse(raw.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx { budget: args.budget, provenance: provenance() };
    let mut failed = false;
    for artifact in args.only {
        eprintln!("{}: {}", artifact.name, artifact.about);
        let result = (artifact.run)(&ctx).and_then(|outputs| {
            for output in outputs {
                let path = args.out.join(output.file);
                std::fs::create_dir_all(&args.out)
                    .and_then(|()| std::fs::write(&path, output.text))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                println!("wrote {}", path.display());
            }
            Ok(())
        });
        if let Err(e) = result {
            eprintln!("error: {}: {e}", artifact.name);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
