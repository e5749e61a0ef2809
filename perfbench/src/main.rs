//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes (fingerprint, saturation, failures), the metrics one per
//! line, and as its last line the JSON result object. Exits 1 when a check
//! failed and 2 on a usage error.

use hyrec_perfbench::plan::{Config, Workload};
use hyrec_perfbench::report::result_line;
use hyrec_perfbench::run;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <1-60> --trace <0|1>\n{why}",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let config = Config::full(args.workload, args.seed, args.seconds);
    println!(
        "workload {} seed {} ops {} depth {} connections {} users {} workers {} trace {}",
        config.workload.name(),
        config.seed,
        config.ops,
        config.depth,
        config.connections,
        config.users,
        config.workers,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        let spans = PathBuf::from(".bench_out").join(format!(
            "spans-{}-seed{}.jsonl",
            config.workload.name(),
            config.seed
        ));
        run::traced(&config, &spans)
    } else {
        run::untraced(&config)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("benchmark error: {err}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for metric in &outcome.metrics {
        println!("{:<40} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
