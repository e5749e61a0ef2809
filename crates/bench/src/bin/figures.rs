//! Regenerates every table and figure of the HyRec paper's evaluation.
//!
//! ```text
//! figures -- all                 # everything at laptop scale
//! figures -- fig3 fig6           # selected artifacts
//! figures -- fig7 --full         # one artifact at full paper scale
//! figures -- table2 --scale 0.5  # custom dataset scale
//! ```

use hyrec_bench::figures;
use hyrec_bench::RunOptions;

/// Artifacts whose workload is fixed (or set by `--full` alone): they never
/// read `--scale`.
const SCALE_IGNORED: [&str; 6] = ["fig8", "fig9", "fig10", "fig11", "fig12", "fig13"];

const USAGE: &str = "usage: figures [--scale F] [--full] [--seed N] <artifact>...
artifacts: table2 fig3 fig4 fig5 fig6 fig7 table3 fig8 fig9 fig10 fig11 fig12 fig13 bandwidth all";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = RunOptions::default();
    let mut targets: Vec<String> = Vec::new();

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().unwrap_or_else(|| {
                    eprintln!("--scale needs a value\n{USAGE}");
                    std::process::exit(2);
                });
                options.scale = value.parse::<f64>().ok();
                if options.scale.is_none() {
                    eprintln!("invalid --scale {value}\n{USAGE}");
                    std::process::exit(2);
                }
            }
            "--full" => options.full = true,
            "--seed" => {
                let value = iter.next().map(|v| v.parse::<u64>());
                match value {
                    Some(Ok(seed)) => options.seed = seed,
                    _ => {
                        eprintln!("--seed needs an integer\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => targets.push(other.to_owned()),
        }
    }
    if targets.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if targets.iter().any(|t| t == "all") {
        targets = [
            "table2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "table3",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "bandwidth",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    }

    // Table 3 is priced from Figure 7's measurements, so Figure 7 runs (and
    // prints) at most once per invocation, whichever of the two comes first.
    let mut fig7 = None;
    for target in &targets {
        if options.scale.is_some() && SCALE_IGNORED.contains(&target.as_str()) {
            println!("# --scale does not apply to {target}");
        }
        match target.as_str() {
            "table2" => figures::table2::run(&options),
            "fig3" => figures::fig3::run(&options),
            "fig4" => figures::fig4::run(&options),
            "fig5" => figures::fig5::run(&options),
            "fig6" => figures::fig6::run(&options),
            "fig7" => {
                fig7.get_or_insert_with(|| figures::fig7::run(&options));
            }
            "table3" => {
                let results = fig7.get_or_insert_with(|| figures::fig7::run(&options));
                figures::table3::run_with(results);
            }
            "fig8" => figures::fig8::run(&options),
            "fig9" => figures::fig9::run(&options),
            "fig10" => figures::fig10::run(&options),
            "fig11" => figures::fig11::run(&options),
            "fig12" => figures::fig12::run(&options),
            "fig13" => figures::fig13::run(&options),
            "bandwidth" => figures::bandwidth::run(&options),
            other => {
                eprintln!("unknown artifact `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
}
