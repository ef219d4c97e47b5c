//! `imdpp-perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fresh_solve|churn_maintain|serve_mixed> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Each run generates its inputs from `--seed`, measures the workload for
//! `--seconds` (longer if a tail percentile still lacks samples), checks the
//! program's outputs, prints a human-readable summary to stderr, and prints
//! one JSON object as the last line of stdout:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, timed from calls into each layer's public API (the
//! spans are also written to `perfbench/out/`).  See `perfbench/README.md`.

mod churn;
mod common;
mod fresh;
mod gen;
mod metrics;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

/// The command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: imdpp-perfbench --workload <fresh_solve|churn_maintain|serve_mixed> \
                     [--seed <n> (1)] [--seconds <s> (30)] [--trace <0|1> (0)]";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "fresh_solve" => fresh::run,
        "churn_maintain" => churn::run,
        "serve_mixed" => serve::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let outcome = run(args.seed, args.seconds, args.trace)
        .and_then(|out| metrics::validate(&out, table).map(|()| out));
    match outcome {
        Ok(out) => {
            eprintln!(
                "{} seed {} ({} run): {} attempted, {} failed, error_rate {}",
                args.workload,
                args.seed,
                if args.trace { "traced" } else { "untraced" },
                out.attempted,
                out.failed,
                out.error_rate()
            );
            for m in &out.metrics {
                eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark run failed: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse(&argv(
            "--workload serve_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve_mixed".to_string(),
                seed: 7,
                seconds: 20.0,
                trace: true,
            }
        );
    }

    #[test]
    fn defaults_seed_seconds_and_trace() {
        let args = parse(&argv("--workload fresh_solve")).unwrap();
        assert_eq!((args.seed, args.seconds, args.trace), (1, 30.0, false));
        assert!(parse(&argv("--seed 3")).is_err());
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&argv("--workload x --seed 1 --seconds")).is_err());
        assert!(parse(&argv("--workload x --seed -1 --seconds 5 --trace 0")).is_err());
        assert!(parse(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse(&argv("--workload x --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse(&argv("--bogus 1")).is_err());
    }
}
