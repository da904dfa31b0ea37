//! The fusion mediator's scoreboard: four unpaced workloads measured end
//! to end through a small frozen set of front doors, and layer by layer
//! from outside the library. See `README.md`.
//!
//! ```text
//! fusion-benchmark [run] --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
//! fusion-benchmark all   [--seed <u64>] [--seconds <s>]
//! fusion-benchmark agree [--seconds <s>]
//! ```

#![forbid(unsafe_code)]

mod json;
mod report;
mod serve;
mod single;
mod sqlgen;
mod stats;
mod suite;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;
use workload::Kind;

/// `run_seconds` of `BENCHMARK.json`: what one run measures for when
/// `--seconds` is not given.
const RUN_SECONDS: f64 = 20.0;

/// `setup_s` is the median over repeated set-ups: at least `MIN_SETUPS`,
/// and more while they are quick (a 15 ms set-up timed three times moved
/// 20 % between runs), up to `MAX_SETUPS` or `SETUP_BUDGET_S` in total.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// Where documents and span dumps go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The flags every subcommand shares.
#[derive(Debug, Clone, PartialEq)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 41,
        seconds: RUN_SECONDS,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("`{flag} {value}`: expected {what}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                flags.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                flags.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(flags)
}

/// Runs one workload in this process. Prints the run's document on one
/// line, then — last — the result line the driver reads.
fn run(flags: &Flags) -> Result<bool, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let spec = workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;

    // Set-up is everything before the first query: data, wrappers and
    // their statistics, SQL texts, streams, ground truth.
    let mut setups: Vec<f64> = Vec::new();
    let mut inputs = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(inputs.take());
        let t0 = Instant::now();
        inputs = Some(workload::build(spec, flags.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up ran");

    let mut out = Outcome::default();
    out.end_to_end("setup_s", stats::median(&setups));
    // A traced run spends half its time on the untraced phases its
    // per-layer ratios need, so that it ends about when an untraced one
    // does.
    let timed = if flags.traced {
        flags.seconds / 2.0
    } else {
        flags.seconds
    };
    match spec.kind {
        Kind::Single { .. } => single::run(&inputs, timed, flags.traced, &mut out),
        Kind::Serve { .. } => serve::run(&inputs, timed, flags.traced, &mut out),
    }

    let doc = out.document(name, flags.seed, flags.seconds, flags.traced);
    let stem = format!("{name}-seed{}-trace{}", flags.seed, u8::from(flags.traced));
    // The dumps are for people; a run is not lost over them.
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), doc.pretty()))
        .and_then(|()| match &out.recorder {
            Some(rec) => rec.write_tsv(&dir.join(format!("{stem}-spans.tsv"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", dir.display());
    }
    println!("{}", doc.render());
    println!("{}", out.result_line(flags.traced).render());
    Ok(out.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "agree")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = parse_flags(rest).and_then(|flags| match command {
        "all" => suite::all(&flags),
        "agree" => suite::agree(&flags),
        _ => run(&flags),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let f = parse_flags(&args(
            "--workload serve-warm --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            f,
            Flags {
                workload: Some("serve-warm".into()),
                seed: 7,
                seconds: 20.0,
                traced: true
            }
        );
        assert_eq!(parse_flags(&[]).unwrap().seconds, RUN_SECONDS);
    }

    #[test]
    fn rejects_malformed_flags() {
        for line in [
            "--seed",
            "--seed -1",
            "--seconds nan",
            "--seconds -3",
            "--trace 2",
            "--frobnicate 1",
        ] {
            assert!(parse_flags(&args(line)).is_err(), "{line}");
        }
    }
}
