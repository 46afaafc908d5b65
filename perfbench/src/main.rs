//! The repository benchmark. Runs one workload against the `dysta`
//! library and prints its metrics, then one JSON result line.
//!
//! ```text
//! perfbench --workload <single_node|fleet_stream|sweep_grid>
//!           --seed <n> --seconds <s> --trace <0|1> [--print-digests]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the per-layer traced run instead. Every report is checked: a
//! mismatch or panic counts as a failed operation and makes the exit
//! code 1. `--print-digests` prints the report digests of one untraced
//! pass at `--seed` as a `pins.rs` table, and measures nothing. See
//! `README.md` for the workloads and metrics.

mod adapter;
mod fleet_stream;
mod harness;
mod pins;
mod probes;
mod single_node;
mod stats;
mod sweep_grid;

use harness::{Checks, Metric};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub print_digests: bool,
}

const WORKLOADS: [&str; 3] = ["single_node", "fleet_stream", "sweep_grid"];

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: harness::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        print_digests: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    // `{:?}` prints the shortest text that round-trips, keeping every
    // digit; JSON has no NaN or infinity.
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if args.print_digests {
        let digests = match args.workload.as_str() {
            "single_node" => single_node::digests(&args),
            "fleet_stream" => fleet_stream::digests(&args),
            _ => sweep_grid::digests(&args),
        };
        let name = args.workload.to_uppercase();
        println!("#[rustfmt::skip]");
        println!("pub const {name}: [u64; {}] = [", digests.len());
        for row in digests.chunks(4) {
            let row: Vec<String> = row.iter().map(|d| format!("{d:#018x},")).collect();
            println!("    {}", row.join(" "));
        }
        println!("];");
        return;
    }

    let mut checks = Checks::default();
    let metrics: Vec<Metric> = match (args.workload.as_str(), args.trace) {
        ("single_node", false) => single_node::end_to_end(&args, &mut checks),
        ("single_node", true) => single_node::traced(&args, &mut checks),
        ("fleet_stream", false) => fleet_stream::end_to_end(&args, &mut checks),
        ("fleet_stream", true) => fleet_stream::traced(&args, &mut checks),
        (_, false) => sweep_grid::end_to_end(&args, &mut checks),
        (_, true) => sweep_grid::traced(&args, &mut checks),
    };

    let failed_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<32} {:>16.6} fraction", "failed_ratio", failed_ratio);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload fleet_stream --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_stream", 7, 12.0, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope").is_err());
        assert!(args("--workload sweep_grid --trace 2").is_err());
        assert!(args("--workload sweep_grid --seconds 0").is_err());
        assert!(args("--workload sweep_grid --seed").is_err());
    }
}
