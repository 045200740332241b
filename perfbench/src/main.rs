//! The repository's benchmark: runs one named workload on inputs made from
//! `--seed` for about `--seconds`, checks the program's outputs, and prints
//! as its last line one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload board_map --seed 1 --seconds 35 --trace 0
//! ```

mod board;
mod fleet;
mod layers;
mod proc_stats;
mod run;
mod stats;
mod trace;

use run::{Bench, Report};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(&"must be a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Writes the traced passes' spans as JSON Lines under `perfbench/traces/`.
fn write_spans(args: &Args, report: &Report) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}-seed{}.jsonl", args.workload, args.seed);
    let mut out = BufWriter::new(std::fs::File::create(&path)?);
    for (pass, spans) in report.spans.iter().enumerate() {
        trace::Tracer::write_jsonl(pass, spans, &mut out)?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Bench::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(bench) = Bench::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            Bench::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = match run::run(&bench, args.seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    if args.trace {
        match write_spans(&args, &report) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload fleet_wide --seed 7 --seconds 30 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_wide", 7, 30.0, true)
        );
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload x --seed 1").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("ops_per_s", 12.5, "1/s")],
            lines: Vec::new(),
            spans: Vec::new(),
        };
        let line = json_line(&report);
        let doc = rankmap_core::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let ops = doc
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .expect("metric");
        assert_eq!(ops.get("value").and_then(|v| v.as_f64()), Some(12.5));
        assert_eq!(ops.get("unit").and_then(|v| v.as_str()), Some("1/s"));
    }
}
